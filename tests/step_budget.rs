//! The paper's step-count claims as tests, enforced by the
//! `cso-trace` step auditor — not just measured by the E1 bench bin.
//!
//! * Theorem 1: a contention-free strong `push`/`pop` on the Figure 3
//!   stack performs at most **6** shared-memory accesses and takes no
//!   lock (solo it is exactly 6, deterministically).
//! * §3 / Figure 1: a solo `weak_push`/`weak_pop` performs exactly
//!   **5**.
//! * The closed form past attempt 0: an operation that waits out `j`
//!   raises of `CONTENTION` and whose `k` attempts abort (`j + k ≤
//!   FAST_RETRIES`) completes lock-free within `j + (k + 1) × 6`
//!   accesses, and one sent to the lock never exceeds
//!   [`cso::core::LOCKED_SOLO_ACCESS_BOUND`] plus the weak operation's
//!   own 5 accesses (an armed fail point is the only deterministic way
//!   to veto the fast path of a real stack).
//! * One build, two modes: quiet or armed, a strong operation counts
//!   the same six (seven on the queue), and only an armed one records.
//!
//! A budget violation panics inside [`StepAuditor::audit`], failing
//! the build — Theorem 1 is a regression test now.

use cso::core::CsConfig;
use cso::locks::TasLock;
use cso::memory::counting::CountScope;
use cso::stack::{AbortableStack, CsStack, PopOutcome, PushOutcome};
use cso::trace::StepAuditor;

/// Theorem 1's budget for a contention-free strong operation.
const STRONG_BUDGET: u64 = 6;
/// Figure 1's cost for a solo weak operation.
const WEAK_COST: u64 = 5;

/// Chaos plans are process-global and an armed plan is consumed by
/// whichever thread passes that site next, so every test that reaches
/// an armed site holds this guard: a strong operation through
/// `cs::fast`, and a direct `weak_*` call through `stack::push`/
/// `stack::pop` (the public weak entry points read the mode word too).
/// The arming tests must not lose their veto to a neighbour, and the
/// exact-count tests must not be handed one.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static M: std::sync::Mutex<()> = std::sync::Mutex::new(());
    M.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The access-counting substrate this whole file leans on must be the
/// zero-cost passthrough in a default build — the `model` runtime is
/// opt-in and would invalidate the bit-exact totals below.
#[test]
fn default_build_runs_the_std_runtime() {
    let std = cso::memory::runtime::active_name() == "std";
    assert_eq!(std, !cso::memory::MODEL);
}

#[test]
fn contention_free_strong_ops_stay_within_six_accesses() {
    let _serial = serial();
    let cs: CsStack<u32> = CsStack::new(1024, 4);
    // First op on a fresh object may take a boundary path; warm up.
    cs.push(0, 0);
    cs.pop(0);

    let auditor = StepAuditor::strict(STRONG_BUDGET);
    for i in 0..10_000u32 {
        assert_eq!(auditor.audit(|| cs.push(0, i)), PushOutcome::Pushed);
        assert_eq!(auditor.audit(|| cs.pop(0)), PopOutcome::Popped(i));
    }

    let report = auditor.report();
    assert_eq!(report.checked, 20_000);
    assert!(report.clean());
    // Solo the cost is not merely bounded but exact.
    assert_eq!(report.worst, STRONG_BUDGET, "Theorem 1 is tight");
    assert_eq!(
        cs.path_stats().locked,
        0,
        "Theorem 1: contention-free operations take no lock"
    );
}

/// The run-time mode moves no counted access: quiet (nothing armed),
/// attempt 0 runs inline and records nothing; armed (a `Recording`
/// open), the escalation routine makes attempt 0 and it records its
/// fast-path pair. Either way the stack's operation is Theorem 1's six
/// and the queue's seven.
#[test]
fn both_modes_count_six_on_the_stack_and_seven_on_the_queue() {
    use cso::queue::CsQueue;
    use cso::trace::{probe, Event};
    let _serial = serial();
    let stack: CsStack<u32> = CsStack::new(64, 1);
    let queue: CsQueue<u32> = CsQueue::new(64, 1);
    let ops = |v: u32| {
        let scope = CountScope::start();
        assert_eq!(stack.push(0, v), PushOutcome::Pushed);
        let push = scope.take().total();
        drop(scope);
        let scope = CountScope::start();
        assert!(queue.enqueue(0, v).is_enqueued());
        (push, scope.take().total())
    };
    ops(0);

    // Every test of this file that arms holds `serial`.
    assert!(!cso::memory::mode::armed());
    let before = probe::emitted();
    assert_eq!(ops(1), (STRONG_BUDGET, STRONG_BUDGET + 1));
    assert_eq!(
        probe::emitted(),
        before,
        "a quiet operation records nothing"
    );

    let recording = probe::Recording::start();
    let me = probe::thread_id();
    probe::clear();
    assert_eq!(ops(2), (STRONG_BUDGET, STRONG_BUDGET + 1));
    let fast: Vec<Event> = probe::collect()
        .events
        .iter()
        .filter(|e| e.thread == me && matches!(e.event, Event::FastAttempt | Event::FastSuccess))
        .map(|e| e.event)
        .collect();
    drop(recording);
    assert_eq!(
        fast,
        [Event::FastAttempt, Event::FastSuccess].repeat(2),
        "an armed operation records its fast-path pair"
    );
    assert_eq!(stack.path_stats().locked + queue.path_stats().locked, 0);
}

/// An armed fail point reaches the weak operation's own site: a
/// spurious abort of `stack::push` sends the operation down the
/// escalation routine, and it completes — on a retry when attempt 0
/// alone is vetoed, under the lock when every lock-free attempt is.
/// Both direct entries to the weak operation, `weak_push` and the
/// `Abortable` trait's `try_apply`, read the mode and take a veto too.
#[test]
fn an_armed_weak_op_abort_escalates_and_completes() {
    use cso::core::{Abortable, Aborted};
    use cso::memory::chaos::{self, Fault, Plan};
    use cso::stack::StackOp;
    let _serial = serial();
    let cs: CsStack<u32> = CsStack::new(64, 1);
    for (vetoes, locked) in [(1, 0), (u64::from(cso::core::FAST_ATTEMPTS), 1)] {
        chaos::reset();
        cs.reset_path_stats();
        chaos::arm_plan("stack::push", Plan::times(Fault::SpuriousAbort, vetoes));
        assert_eq!(cs.push(0, 7), PushOutcome::Pushed);
        assert_eq!(chaos::fires("stack::push"), vetoes);
        assert_eq!(cs.path_stats().locked, locked, "{vetoes} vetoes");
        assert_eq!(cs.pop(0), PopOutcome::Popped(7));
    }
    chaos::reset();
    let weak: AbortableStack<u32> = AbortableStack::new(64);
    chaos::arm_plan("stack::push", Plan::times(Fault::SpuriousAbort, 2));
    assert_eq!(weak.weak_push(7), Err(Aborted));
    assert_eq!(weak.try_apply(&StackOp::Push(7)), Err(Aborted));
    assert_eq!(chaos::fires("stack::push"), 2);
    chaos::reset();
    assert!(!cso::memory::mode::armed(), "a spent plan disarms the mode");
}

#[test]
fn weak_ops_cost_exactly_five_accesses() {
    let _serial = serial();
    let stack: AbortableStack<u32> = AbortableStack::new(1024);
    stack.weak_push(0).expect("solo never aborts");
    stack.weak_pop().expect("solo never aborts");

    let auditor = StepAuditor::strict(WEAK_COST);
    for i in 0..10_000u32 {
        let scope = CountScope::start();
        stack.weak_push(i).expect("solo never aborts");
        let push_cost = scope.take();
        assert_eq!(push_cost.total(), WEAK_COST, "weak_push: {push_cost}");
        auditor.observe(push_cost);

        let scope = CountScope::start();
        stack.weak_pop().expect("solo never aborts");
        let pop_cost = scope.take();
        assert_eq!(pop_cost.total(), WEAK_COST, "weak_pop: {pop_cost}");
        auditor.observe(pop_cost);
    }
    assert!(auditor.report().clean());
}

/// Theorem 1 must survive the combining upgrade: with the
/// flat-combining slow path and the adaptive gate *compiled in* (the
/// `COMBINING` config), a contention-free strong operation still
/// performs exactly six counted shared-memory accesses — the
/// publication records and the gate's EWMA bookkeeping live entirely
/// in uncounted memory.
#[test]
fn combining_config_keeps_theorem_one_exact() {
    let _serial = serial();
    let cs: CsStack<u32> = CsStack::with_config(1024, TasLock::new(), 4, CsConfig::COMBINING);
    cs.push(0, 0);
    cs.pop(0);

    let auditor = StepAuditor::strict(STRONG_BUDGET);
    for i in 0..10_000u32 {
        assert_eq!(auditor.audit(|| cs.push(0, i)), PushOutcome::Pushed);
        assert_eq!(auditor.audit(|| cs.pop(0)), PopOutcome::Popped(i));
    }

    let report = auditor.report();
    assert_eq!(report.checked, 20_000);
    assert!(report.clean());
    assert_eq!(report.worst, STRONG_BUDGET, "Theorem 1 is still tight");
    assert_eq!(cs.path_stats().locked, 0, "solo ops never take the lock");
    assert!(!cs.gate().engaged(), "solo successes never engage the gate");
    assert_eq!(cs.combining_stats().batches, 0);
}

/// Theorem 1 must survive the escalation ladder too: with the
/// elimination rung *armed* (the `LADDER` config), a contention-free
/// strong operation still performs exactly six counted shared-memory
/// accesses — retries and the elimination rung only run after a
/// weak-op abort, which never happens solo, and the exchanger slots
/// live in uncounted memory.
#[test]
fn ladder_config_keeps_theorem_one_exact() {
    let _serial = serial();
    let cs: CsStack<u32> = CsStack::with_config(1024, TasLock::new(), 4, CsConfig::LADDER);
    cs.push(0, 0);
    cs.pop(0);

    let auditor = StepAuditor::strict(STRONG_BUDGET);
    for i in 0..10_000u32 {
        assert_eq!(auditor.audit(|| cs.push(0, i)), PushOutcome::Pushed);
        assert_eq!(auditor.audit(|| cs.pop(0)), PopOutcome::Popped(i));
    }

    let report = auditor.report();
    assert_eq!(report.checked, 20_000);
    assert!(report.clean());
    assert_eq!(report.worst, STRONG_BUDGET, "Theorem 1 is still tight");
    assert_eq!(cs.path_stats().locked, 0, "solo ops never take the lock");
    assert_eq!(cs.path_stats().eliminated, 0, "solo ops never rendezvous");
    assert_eq!(cs.eliminated_pairs(), 0);
}

/// A vetoed operation that a retry rescues stays cheap and lock-free:
/// `k ≤ FAST_RETRIES` refused attempts cost one `CONTENTION` read each
/// (the veto sits between line 01 and the weak operation, so these are
/// the cheapest aborts there are), then attempt `k` is a full six —
/// `k + 6`, inside the closed form's `(k + 1) × 6` for real aborts.
#[test]
fn retried_ops_complete_lock_free_within_the_closed_form() {
    use cso::memory::chaos::{self, Fault, Plan};
    let _serial = serial();

    let cs: CsStack<u32> = CsStack::new(1024, 4);
    cs.push(0, 0);

    for k in 1..=u64::from(cso::core::FAST_RETRIES) {
        let auditor = StepAuditor::strict((k + 1) * STRONG_BUDGET);
        for i in 0..250u32 {
            chaos::arm_plan("cs::fast", Plan::times(Fault::SpuriousAbort, k));
            assert_eq!(auditor.audit(|| cs.push(0, i)), PushOutcome::Pushed);
            cs.pop(0);
        }
        assert_eq!(auditor.report().worst, k + STRONG_BUDGET);
    }
    chaos::reset();

    assert_eq!(
        cs.path_stats().locked,
        0,
        "the retries must absorb every veto"
    );
}

/// The adaptive gate's full cycle, step-counted: engaged, it diverts
/// operations onto the combining slow path (which costs more than six
/// counted accesses — the batch apply runs under the lock); its
/// periodic probes succeed, decay the abort estimate, and disengage
/// it; after which the fast path is *exactly* six accesses again.
#[test]
fn engaged_gate_diverts_then_recovery_restores_the_six_access_fast_path() {
    let _serial = serial();
    let cs: CsStack<u32> = CsStack::with_config(1024, TasLock::new(), 4, CsConfig::COMBINING);
    cs.push(0, 0);
    cs.pop(0);

    // Phase 1: disengaged gate — Theorem 1 exactly.
    let auditor = StepAuditor::strict(STRONG_BUDGET);
    for i in 0..1_000u32 {
        assert_eq!(auditor.audit(|| cs.push(0, i)), PushOutcome::Pushed);
        assert_eq!(auditor.audit(|| cs.pop(0)), PopOutcome::Popped(i));
    }
    assert!(auditor.report().clean());
    assert_eq!(auditor.report().worst, STRONG_BUDGET);

    // Phase 2: force-engage. Diverted operations take the combining
    // slow path; the probes (1 in PROBE_PERIOD) run the fast path,
    // succeed solo, and decay the EWMA until the gate disengages.
    cs.gate().force_engage();
    let mut slow_costs = 0u32;
    let mut ops = 0u32;
    while cs.gate().engaged() {
        let scope = CountScope::start();
        assert_eq!(cs.push(0, ops), PushOutcome::Pushed);
        if scope.take().total() != STRONG_BUDGET {
            slow_costs += 1;
        }
        cs.pop(0);
        ops += 1;
        assert!(ops < 10_000, "engaged gate never disengaged");
    }
    assert!(
        slow_costs > 0,
        "an engaged gate never paid a slow-path cost"
    );
    assert!(cs.path_stats().locked > 0, "diversions must take the lock");
    assert!(cs.gate().stats().diverted > 0);
    assert!(
        cs.combining_stats().batches > 0,
        "diverted ops must go through the combining tenure machinery"
    );

    // Phase 3: disengaged again — back to exactly six.
    let auditor = StepAuditor::strict(STRONG_BUDGET);
    for i in 0..1_000u32 {
        assert_eq!(auditor.audit(|| cs.push(0, i)), PushOutcome::Pushed);
        assert_eq!(auditor.audit(|| cs.pop(0)), PopOutcome::Popped(i));
    }
    let report = auditor.report();
    assert!(report.clean(), "recovery must restore the six-access bound");
    assert_eq!(report.worst, STRONG_BUDGET, "Theorem 1 is tight again");
}

/// Under real concurrency the auditor can still enforce the closed
/// form — on exactly the operations that completed lock-free (fast
/// path), which only the probe layer can identify. A completion after
/// `j` waited-out raises of `CONTENTION` and `k` aborts costs `j + (k +
/// 1) × 6`, with `j + k < FAST_ATTEMPTS`; the worst of those is `j = 0`,
/// every attempt made and all but the last aborted. (That an attempt
/// nobody interferes with is the *first* one, i.e. Theorem 1's six, is
/// the solo tests' above; `tests/theorem1.rs` checks each `k`.)
#[test]
fn concurrent_fast_path_completions_stay_within_the_closed_form() {
    use cso::core::{FAST_ATTEMPTS, FAST_RETRIES};
    use std::sync::Arc;
    let _serial = serial();
    // The probe layer reports each completion's path while armed.
    let _recording = cso::trace::probe::Recording::start();

    let fast_cost = |j: u64, k: u64| j + (k + 1) * STRONG_BUDGET;
    let retries = u64::from(FAST_RETRIES);
    let worst = (0..=retries)
        .map(|k| fast_cost(retries - k, k))
        .max()
        .unwrap();
    assert_eq!(worst, STRONG_BUDGET * u64::from(FAST_ATTEMPTS));

    const THREADS: usize = 4;
    const OPS: u32 = 20_000;
    let cs: Arc<CsStack<u32>> = Arc::new(CsStack::new(1 << 15, THREADS));
    let auditor = Arc::new(StepAuditor::strict(worst));

    std::thread::scope(|s| {
        for proc in 0..THREADS {
            let cs = Arc::clone(&cs);
            let auditor = Arc::clone(&auditor);
            s.spawn(move || {
                for i in 0..OPS {
                    if (proc + i as usize) % 2 == 0 {
                        auditor.audit_contention_free(|| cs.push(proc, i));
                    } else {
                        auditor.audit_contention_free(|| cs.pop(proc));
                    }
                }
            });
        }
    });

    let report = auditor.report();
    assert_eq!(report.checked, THREADS as u64 * u64::from(OPS));
    assert!(
        report.clean(),
        "a fast-path completion exceeded j + (k + 1) × 6"
    );
}

/// The slow path has a documented bound too: the transformation's own
/// footprint ([`cso::core::LOCKED_SOLO_ACCESS_BOUND`]) plus one weak
/// operation. A solo invocation vetoed off the fast path — first
/// attempt and every retry — must land within it.
#[test]
fn locked_path_stays_within_documented_bound() {
    use cso::memory::chaos::{self, Fault, Plan};
    let _serial = serial();

    let locked_budget = cso::core::LOCKED_SOLO_ACCESS_BOUND + WEAK_COST;
    let cs: CsStack<u32> = CsStack::new(1024, 4);
    cs.push(0, 0);

    let auditor = StepAuditor::strict(locked_budget);
    for i in 0..1_000u32 {
        chaos::arm_plan(
            "cs::fast",
            Plan::times(Fault::SpuriousAbort, u64::from(cso::core::FAST_ATTEMPTS)),
        );
        assert_eq!(auditor.audit(|| cs.push(0, i)), PushOutcome::Pushed);
        cs.pop(0);
    }
    chaos::reset();

    let report = auditor.report();
    assert!(report.clean());
    assert_eq!(
        cs.path_stats().locked,
        1_000,
        "every audited push must have been forced onto the lock path"
    );
}
