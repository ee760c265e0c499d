//! Graceful degradation of a live `CsStack` under injected faults
//! (`--features chaos`).
//!
//! §5 of the paper concedes that the Figure 3 transformation survives
//! crashes only outside the critical section. These tests arm the
//! fail points on a four-process stack and check what degrades: abort
//! storms and lock-path delays cost time, never values; a panic inside
//! the locked slow path is survived by the guard with every value
//! conserved; and a holder stalled forever turns deadline-bounded
//! callers into clean timeouts until the stall clears.
//!
//! With `trace` on as well, each storm's capture is folded in process
//! and must reconstruct at least 99 % of its operations into spans
//! with no §4.4 bypass-bound violation (`n − 1` = 3), and render as a
//! Chrome trace that parses.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use cso::core::FAST_ATTEMPTS;
use cso::memory::chaos::{self, Fault, Plan};
use cso::metrics::Json;
use cso::stack::{CsStack, PopOutcome, PushOutcome};
use cso::trace::export::chrome_trace_json;
use cso::trace::probe;
use cso_analyze::Fold;

const THREADS: usize = 4;
const OPS_PER_THREAD: u64 = 4_000;

// The chaos registry and the probe rings are process-global.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// `THREADS` processes alternate push and pop under whatever is armed,
/// catching the injected panics. Returns the successful (pushes, pops).
fn storm(stack: &CsStack<u32>) -> (u64, u64) {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|proc| {
                s.spawn(move || {
                    let (mut pushed, mut popped) = (0u64, 0u64);
                    for i in 0..OPS_PER_THREAD {
                        if i % 2 == 0 {
                            let v = (proc as u64 * OPS_PER_THREAD + i) as u32;
                            let op = catch_unwind(AssertUnwindSafe(|| stack.push(proc, v)));
                            pushed += u64::from(matches!(op, Ok(PushOutcome::Pushed)));
                        } else {
                            let op = catch_unwind(AssertUnwindSafe(|| stack.pop(proc)));
                            popped += u64::from(matches!(op, Ok(PopOutcome::Popped(_))));
                        }
                    }
                    (pushed, popped)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no unwind may escape catch_unwind"))
            .fold((0, 0), |(p, q), (a, b)| (p + a, q + b))
    })
}

/// With probes on, the capture since the last `probe::clear`, judged
/// as `cso-analyze check` judges a file by default: span coverage at
/// least 0.99 and no interval over the bypass bound `n − 1`. Its
/// Chrome `trace_event` rendering must parse as JSON.
fn check_capture() {
    if !cso::trace::TRACE {
        return;
    }
    let trace = probe::collect();
    Json::parse(&chrome_trace_json(&trace)).expect("the Chrome trace is JSON");
    let mut fold = Fold::with_bypass_bound(THREADS as u64 - 1);
    fold.ingest(&trace.events, &trace.truncated);
    let snap = fold.snapshot();
    assert!(snap.coverage() >= 0.99, "{}", snap.render_text());
    assert_eq!(snap.bypass_violations, 0, "{}", snap.render_text());
}

/// A fault-free run, abort storms and lock-path delays conserve every
/// value. In the panic storm (the last cell) about one locked slow-path
/// entry in fifty dies: every panic is survived, and the survivors are
/// exactly the successful pushes minus the successful pops. (The veto
/// is per fast-path attempt: at one in two, a run of `FAST_ATTEMPTS`
/// of them sends about one operation in sixteen to the lock.)
#[test]
fn fault_storms_and_a_panic_storm_under_the_lock_conserve_every_value() {
    let _serial = serial();
    let veto = ("cs::fast", Plan::one_in(Fault::SpuriousAbort, 2));
    let delay = Plan::one_in(Fault::Delay(Duration::from_micros(5)), 8);
    let cells: [&[(&str, Plan)]; 5] = [
        &[],
        &[veto],
        &[
            ("stack::push", Plan::one_in(Fault::SpuriousAbort, 4)),
            ("stack::pop", Plan::one_in(Fault::SpuriousAbort, 4)),
        ],
        &[
            ("cs::lock-wait", delay),
            ("tas::acquire", Plan::one_in(Fault::Yield, 4)),
        ],
        &[veto, ("cs::locked", Plan::one_in(Fault::Panic, 50))],
    ];
    for (cell, plans) in cells.iter().enumerate() {
        chaos::reset();
        for (site, plan) in plans.iter() {
            chaos::arm_plan(site, *plan);
        }
        probe::clear();
        let stack: CsStack<u32> = CsStack::new(1 << 14, THREADS);
        // The panic storm panics on purpose, hundreds of times; silence
        // the per-panic chatter while it runs, and only then.
        std::panic::set_hook(Box::new(|_| {}));
        let (pushed, popped) = storm(&stack);
        let _ = std::panic::take_hook();
        chaos::reset();

        let mut drained = 0u64;
        while let PopOutcome::Popped(_) = stack.pop(0) {
            drained += 1;
        }
        assert_eq!(drained, pushed - popped, "cell {cell}: a value leaked");
        let poisoned = stack.fault_stats().poisoned;
        assert!(cell != 4 || poisoned > 0, "no panic under the lock");
        check_capture();
    }
}

/// The §5 nightmare: the holder stalls forever. Unbounded callers
/// would hang; `try_push_for` callers get clean timeouts, and service
/// resumes once the wedge clears.
#[test]
fn a_stalled_holder_times_every_bounded_caller_out_until_it_clears() {
    const ATTEMPTS: u64 = 20;
    let _serial = serial();
    chaos::reset();
    probe::clear();
    let stack: CsStack<u32> = CsStack::new(64, THREADS);
    let vetoes = Plan::times(Fault::SpuriousAbort, u64::from(FAST_ATTEMPTS));
    chaos::arm_plan("cs::fast", vetoes);
    chaos::arm_plan("cs::locked", Plan::once(Fault::StallForever));

    let mut timeouts = 0u64;
    std::thread::scope(|s| {
        let stack = &stack;
        // Sacrificial op: vetoed off the fast path, then parked while
        // holding the lock.
        s.spawn(move || stack.push(0, 1));
        while chaos::fires("cs::locked") == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        for i in 0..ATTEMPTS {
            let bounded = stack.try_push_for(1, 100 + i as u32, Duration::from_millis(5));
            timeouts += u64::from(bounded.is_err());
        }
        // Release the wedge so the sacrificial thread can finish.
        chaos::reset();
    });
    assert_eq!(timeouts, ATTEMPTS, "a wedged lock times every caller out");
    assert!(
        stack.push(1, 2).is_pushed(),
        "service resumes after the wedge"
    );
    check_capture();
}
