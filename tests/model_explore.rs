//! V1 and V3 on the shipped strong objects: schedule exploration of
//! `CsStack`, `CsQueue` and `CsDeque` — Figure 3 over Figure 1, the
//! queue and the HLM deque — with the paper's configuration, the
//! escalation ladder and the combining slow path.
//!
//! ```text
//! cargo test --test model_explore -- --nocapture
//! ```
//!
//! Each body runs once per explored schedule, from the top, with fresh
//! state; every counted register access inside the production code —
//! and every access to a publication record's or exchanger slot's
//! protocol word — is a scheduling decision. Each execution is held
//! to the oracles of `model_support`: the recorded history, extended
//! by a sequential drain, linearizes against the sequential reference
//! (Lemma 1, Theorem 1's safety half); no strong operation returns ⊥;
//! and at quiescence the slow path is still passable by every process
//! (the lock was released, no `FLAG` left raised). Under the fair
//! scheduler (`Explorer::round_robin`) every operation completes
//! within a bounded number of its own accesses — Lemmas 2–3 in their
//! bounded form.
//!
//! Depth follows DESIGN.md's budget table; each body prints its mode
//! and `Report`. A failure is deterministic: the panic message carries
//! a replay trace (CONTRIBUTING.md, "Writing a model test").
//!
//! Chaos fail points ride along: an armed fail point is the only
//! deterministic way to veto the fast path of a real object, which the
//! ladder body and the quiescence check use. The fail-point registry
//! is process-global, so every test in this file serializes behind one
//! mutex.

mod model_support;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cso::core::{CsConfig, FAST_ATTEMPTS, FAST_RETRIES};
use cso::deque::{CsDeque, DequeOp, DequePushOutcome, DequeResponse, End, SeqDeque};
use cso::locks::TasLock;
use cso::memory::chaos::{self, Fault, Plan};
use cso::queue::{CsQueue, DequeueOutcome, EnqueueOutcome, QueueOp, QueueResponse, SeqQueue};
use cso::sched::{spawn, Explorer};
use cso::stack::{CsStack, PopOutcome, SeqStack, StackOp, StackResponse};

use model_support::{
    aborts, assert_exhausted, assert_swept, bounded, bounded_then_swept, scripted_body, serial,
    strong_stack, Apply, Note,
};

use DequeOp::{Pop as DPop, Push as DPush};
use End::{Left, Right};
use QueueOp::{Dequeue, Enqueue};
use StackOp::{Pop, Push};

/// Theorem 1: a contention-free strong operation costs exactly six
/// shared accesses on the stack, seven on the queue (the extra
/// `CONTENTION`-style read of the opposite end).
const STACK_SOLO: u64 = 6;
const QUEUE_SOLO: u64 = 7;

/// Sanity ceiling for *contended* operations: they legitimately exceed
/// the solo budget (they retry and fall through to the lock), but no
/// explored schedule should let one ramble past this.
const CONTENDED_CEILING: u64 = 160;

/// Own accesses an operation may need under the fair scheduler with
/// up to four processes (measured: 27 / 34 / 45 at n = 2 / 3 / 4, the
/// retries spent; 22 / 34 / 45 when the figure escalated at once).
const FAIR_BOUND: u64 = 160;

const SWEEP: usize = 1_000;

fn queue_apply(queue: &Arc<CsQueue<u32>>) -> Apply<SeqQueue<u32>> {
    let queue = Arc::clone(queue);
    Arc::new(move |proc, op| {
        Some(match *op {
            Enqueue(v) => QueueResponse::Enqueue(queue.enqueue(proc, v)),
            Dequeue => QueueResponse::Dequeue(queue.dequeue(proc)),
        })
    })
}

fn deque_apply(deque: &Arc<CsDeque<u32>>) -> Apply<SeqDeque<u32>> {
    let deque = Arc::clone(deque);
    Arc::new(move |proc, op| {
        Some(match *op {
            DPush(end, v) => DequeResponse::Push(deque.push(proc, end, v)),
            DPop(end) => DequeResponse::Pop(deque.pop(proc, end)),
        })
    })
}

/// What the strong bodies add to the shared oracles: never ⊥, and no
/// operation past the contended ceiling.
fn assert_strong<Resp: std::fmt::Debug>(notes: &[Note<Resp>]) {
    assert_eq!(aborts(notes), 0, "a strong operation returned ⊥");
    let worst = notes.iter().map(|n| n.accesses).max().unwrap_or(0);
    assert!(
        worst <= CONTENDED_CEILING,
        "an operation spent {worst} accesses (ceiling {CONTENDED_CEILING})"
    );
}

/// At quiescence the slow path must be passable by every process:
/// `n + 1` rounds (so `TURN` visits everyone) of one operation each
/// whose fast attempt and every retry a fail point vetoes. A lock
/// left held, or a `FLAG` left raised under `TURN`, blocks one of them
/// — which the explorer reports as a pruned execution. `op` must not
/// change the (drained) object; returns how many operations were sent
/// through.
fn assert_slow_path_passable(n: usize, site: &'static str, op: impl Fn(usize)) -> u64 {
    for _round in 0..=n {
        for proc in 0..n {
            chaos::arm_plan(
                site,
                Plan::times(Fault::SpuriousAbort, u64::from(FAST_ATTEMPTS)),
            );
            op(proc);
        }
    }
    ((n + 1) * n) as u64
}

/// With `FAST_RETRIES` paced retries an operation reaches line 04 only
/// after `FAST_ATTEMPTS` aborts in a row — more than the peers of a
/// two-operation script can inflict. So the bodies that are about
/// *both* paths spend the retries up front: the first `FAST_RETRIES`
/// weak operations at `site` are answered ⊥ (`one_in: 1` draws are not
/// schedule branches; which thread's attempts they land on is), and
/// from there one real interference sends an operation to the lock, as
/// it did when the figure escalated on the first abort. Call at the top
/// of a body, once per execution.
fn spend_retries(site: &'static str) {
    chaos::reset();
    chaos::arm_plan(
        site,
        Plan::times(Fault::SpuriousAbort, u64::from(FAST_RETRIES)),
    );
}

/// One execution over a fresh `CsStack`: the scripts, the oracles, and
/// the quiescence check. Returns the notes and the stack's path mix
/// over the scripted operations.
fn stack_body(
    capacity: usize,
    config: CsConfig,
    prefill: &[u32],
    scripts: &[Vec<StackOp<u32>>],
) -> (Vec<Note<StackResponse<u32>>>, cso::core::PathStats) {
    let n = scripts.len();
    let stack = Arc::new(CsStack::with_config(capacity, TasLock::new(), n, config));
    let notes = scripted_body(
        strong_stack(&stack),
        SeqStack::new(capacity),
        prefill,
        scripts,
    );
    assert_strong(&notes);
    let mix = stack.path_stats();
    let sent = assert_slow_path_passable(n, "stack::pop", |proc| {
        assert_eq!(stack.pop(proc), PopOutcome::Empty);
    });
    let after = stack.path_stats();
    assert_eq!(
        after.locked - mix.locked,
        sent,
        "vetoed operations complete under the lock"
    );
    (notes, mix)
}

fn queue_body(
    capacity: usize,
    prefill: &[u32],
    scripts: &[Vec<QueueOp<u32>>],
) -> Vec<Note<QueueResponse<u32>>> {
    let n = scripts.len();
    let queue = Arc::new(CsQueue::with_config(
        capacity,
        TasLock::new(),
        n,
        CsConfig::PAPER,
    ));
    let notes = scripted_body(
        queue_apply(&queue),
        SeqQueue::new(capacity),
        prefill,
        scripts,
    );
    assert_strong(&notes);
    assert_slow_path_passable(n, "queue::dequeue", |proc| {
        assert_eq!(queue.dequeue(proc), DequeueOutcome::Empty);
    });
    assert_eq!(queue.len(), 0);
    notes
}

fn deque_body(capacity: usize, scripts: &[Vec<DequeOp<u32>>]) -> Vec<Note<DequeResponse<u32>>> {
    let n = scripts.len();
    let deque = Arc::new(CsDeque::with_config(
        capacity,
        TasLock::new(),
        n,
        CsConfig::PAPER,
    ));
    let notes = scripted_body(deque_apply(&deque), SeqDeque::new(capacity), &[], scripts);
    assert_strong(&notes);
    // The probe to Full ran the data block into the left wall; a
    // vetoed left push answers Full without changing it.
    assert_slow_path_passable(n, "deque::push", |proc| {
        assert_eq!(deque.push(proc, Left, 0), DequePushOutcome::Full);
    });
    notes
}

/// Theorem 1 through the model runtime: with no second thread every
/// scheduling decision is forced, the single schedule is the solo
/// execution, and it costs exactly six (stack) and seven (queue)
/// accesses — the model runtime did not perturb the accounting.
#[test]
fn solo_strong_ops_cost_exactly_six_and_seven() {
    let _serial = serial();
    let report = bounded(3).explore(|| {
        let (notes, mix) = stack_body(4, CsConfig::PAPER, &[], &[vec![Push(7), Pop]]);
        assert!(notes.iter().all(|n| n.accesses == STACK_SOLO), "{notes:?}");
        assert_eq!((mix.fast, mix.locked), (2 + 1, 0), "solo never locks");
        let notes = queue_body(4, &[], &[vec![Enqueue(7), Dequeue]]);
        assert!(notes.iter().all(|n| n.accesses == QUEUE_SOLO), "{notes:?}");
    });
    assert_exhausted("solo_strong_ops_cost_exactly_six_and_seven", &report);
    assert_eq!(report.schedules, 1, "a solo body has exactly one schedule");
}

/// Two threads each push a distinct value and pop once against the
/// paper's Figure 3 configuration.
#[test]
fn stack_two_ops_per_thread() {
    let _serial = serial();
    let scripts = [vec![Push(1), Pop], vec![Push(2), Pop]];
    let locked = AtomicU64::new(0);
    let body = || {
        spend_retries("stack::push");
        let (_, mix) = stack_body(2, CsConfig::PAPER, &[], &scripts);
        locked.fetch_add(mix.locked, Ordering::Relaxed);
    };
    let report = bounded_then_swept("stack_two_ops_per_thread", 3, (0xC5, SWEEP), body);
    assert!(report.schedules > 1_000, "{report}");
    assert!(locked.into_inner() > 0, "no schedule ever took the lock");
}

/// Three pushers: `CONTENTION` really diverts — somewhere in the
/// space operations complete on the fast path and under the lock.
#[test]
fn stack_three_threads_exercise_both_paths() {
    let _serial = serial();
    let scripts = [vec![Push(1)], vec![Push(2)], vec![Push(3)]];
    let (fast, locked) = (AtomicU64::new(0), AtomicU64::new(0));
    let body = || {
        spend_retries("stack::push");
        let (_, mix) = stack_body(8, CsConfig::PAPER, &[], &scripts);
        fast.fetch_add(mix.fast, Ordering::Relaxed);
        locked.fetch_add(mix.locked, Ordering::Relaxed);
    };
    bounded_then_swept(
        "stack_three_threads_exercise_both_paths",
        3,
        (7, SWEEP),
        body,
    );
    assert!(
        fast.into_inner() > 0,
        "some operations stay on the fast path"
    );
    assert!(locked.into_inner() > 0, "some operations fall to the lock");
}

/// Three threads × two operations: too wide for the DFS, so a sweep —
/// over the paper's configuration and over the combining slow path.
#[test]
fn stack_three_threads_two_ops_sweep() {
    let _serial = serial();
    let scripts = [
        vec![Push(1), Pop],
        vec![Push(2), Push(3)],
        vec![Pop, Push(4)],
    ];
    for (name, config) in [
        ("paper", CsConfig::PAPER),
        ("combining", CsConfig::COMBINING),
    ] {
        let report = Explorer::random(0xC50, SWEEP).explore(|| {
            spend_retries("stack::push");
            stack_body(8, config, &[], &scripts);
        });
        assert_swept(
            &format!("stack_three_threads_two_ops_sweep ({name})"),
            &report,
            SWEEP,
        );
    }
}

/// The production `CsStack` with the **full escalation ladder and the
/// combining slow path** (fast path and its paced retries →
/// elimination → flat combining), through every 2-thread interleaving
/// at bound 2, then a sweep.
///
/// The fast path absorbs `FAST_RETRIES` paced retries, and with only
/// two ops per thread the other thread can cause at most two CAS
/// failures — pure interleaving can never push an op off the fast
/// path here. So the body arms a deterministic fail-point plan
/// (`one_in: 1` draws are not schedule branches) vetoing the first
/// eight weak pushes: in every schedule at least one push exhausts its
/// retries, parks in elimination, and falls through to the combining
/// lock, while pops and later pushes still travel the fast path.
///
/// The retry pacing (`backoff::retry_pause`) awaits nothing, so it is
/// a plain yield point, and the exchanger's slot words and the
/// publication records' status words behind it are yield points too:
/// 197 schedules. The `> 100` below separates that from either going
/// missing — 91 with those words inside atomic blocks, 7 with the
/// pacing a spin hint (both threads hint within three accesses of
/// starting and alternate deterministically from there). Bound 2, not
/// the table's 3: a 512-poll elimination park makes a schedule cost
/// ≈ 10 ms, and bound 3 is 1,275 schedules in 32 s.
#[test]
fn exhaustive_ladder_combining_stack() {
    let _serial = serial();
    let config = CsConfig::LADDER.with_combining().with_adaptive_gate();
    let slow_completions = AtomicU64::new(0);
    let worst_cost = AtomicU64::new(0);
    let body = || {
        chaos::reset();
        chaos::arm_plan(
            "stack::push",
            Plan {
                fault: Fault::SpuriousAbort,
                after: 0,
                one_in: 1,
                max_fires: 8,
            },
        );
        let stack = Arc::new(CsStack::with_config(2, TasLock::new(), 2, config));
        let scripts = [vec![Push(1), Pop], vec![Push(2), Pop]];
        let notes = scripted_body(strong_stack(&stack), SeqStack::new(2), &[], &scripts);
        assert_strong(&notes);
        let worst = notes.iter().map(|n| n.accesses).max().unwrap_or(0);
        worst_cost.fetch_max(worst, Ordering::Relaxed);
        let mix = stack.path_stats();
        slow_completions.fetch_add(mix.eliminated + mix.locked, Ordering::Relaxed);
        chaos::reset();
    };
    // The elimination parks cost model steps per poll; give each
    // schedule room for a few of them.
    let report = bounded(2).with_max_steps(20_000).explore(body);
    assert_exhausted("exhaustive_ladder_combining_stack (bound 2)", &report);
    assert!(
        report.schedules > 100,
        "the ladder's pacing and protocol words are schedule points \
         (7 schedules without the first, 91 without the second): {report}"
    );
    let report = Explorer::random(0x1ADD, SWEEP / 4).explore(body);
    assert_swept(
        "exhaustive_ladder_combining_stack (random)",
        &report,
        SWEEP / 4,
    );
    // The exploration must have pushed operations off the fast path
    // somewhere — otherwise it never exercised the ladder/combining
    // machinery it claims to verify.
    assert!(
        slow_completions.into_inner() > 0,
        "no schedule ever escalated off the fast path"
    );
    // Contended schedules must exist (worst observed above the solo
    // budget proves real interference was explored).
    assert!(
        worst_cost.into_inner() > STACK_SOLO,
        "no schedule ever contended"
    );
}

/// An empty trace replays as "always the first candidate" (and a
/// short one falls back to it where it runs out) — a valid schedule
/// for any body, and exactly one. (The failing-trace direction is
/// covered by the mutation self-tests.)
#[test]
fn replay_mode_runs_a_recorded_trace() {
    let _serial = serial();
    let scripts = [vec![Push(1)], vec![Push(2)]];
    for trace in ["", "1"] {
        let report = Explorer::replay(trace).explore(|| {
            stack_body(2, CsConfig::PAPER, &[], &scripts);
        });
        report.assert_ok();
        assert_eq!(report.schedules, 1, "trace {trace:?}: {report}");
    }
}

#[test]
fn queue_two_ops_per_thread() {
    let _serial = serial();
    let scripts = [vec![Enqueue(1), Dequeue], vec![Enqueue(2), Dequeue]];
    let report = bounded_then_swept("queue_two_ops_per_thread", 3, (0xC5, SWEEP), || {
        spend_retries("queue::enqueue");
        queue_body(2, &[], &scripts);
    });
    assert!(report.schedules > 1_000, "{report}");
}

#[test]
fn queue_three_threads_two_ops_sweep() {
    let _serial = serial();
    let scripts = [
        vec![Enqueue(1), Dequeue],
        vec![Enqueue(2), Enqueue(3)],
        vec![Dequeue, Enqueue(4)],
    ];
    let report = Explorer::random(0xC5, SWEEP).explore(|| {
        spend_retries("queue::enqueue");
        queue_body(8, &[9], &scripts);
    });
    assert_swept("queue_three_threads_two_ops_sweep", &report, SWEEP);
}

/// `len()` is a size the queue really had: in every interleaving of a
/// reader with an enqueue and two dequeues, both the counted `len()`
/// and the uncounted `peek_len()` stay within the capacity. (Pairing
/// `TAIL` with a `HEAD` read after it does not: the schedule "read
/// TAIL = 1; enqueue, dequeue, dequeue; read HEAD = 2" makes the
/// 16-bit difference wrap to 65 535.)
#[test]
fn exhaustive_queue_len_is_a_consistent_snapshot() {
    let _serial = serial();
    let report = bounded(3).explore(|| {
        let queue: Arc<CsQueue<u32>> = Arc::new(CsQueue::new(2, 2));
        assert_eq!(queue.enqueue(0, 1), EnqueueOutcome::Enqueued);
        let child = {
            let queue = Arc::clone(&queue);
            spawn(move || {
                assert_eq!(queue.enqueue(1, 2), EnqueueOutcome::Enqueued);
                assert_eq!(queue.dequeue(1), DequeueOutcome::Dequeued(1));
                assert_eq!(queue.dequeue(1), DequeueOutcome::Dequeued(2));
            })
        };
        let (len, peeked) = (queue.len(), queue.peek_len());
        assert!(len <= 2 && peeked <= 2, "len() {len}, peek_len() {peeked}");
        child.join();
        assert_eq!(queue.len(), 0);
    });
    assert_exhausted("exhaustive_queue_len_is_a_consistent_snapshot", &report);
    assert!(report.schedules > 1, "{report}");
}

/// Mixed ends: one thread pushes left and pops right, the other
/// pushes right and pops left — the two-sided interleavings the HLM
/// deque's per-side words make interesting.
#[test]
fn deque_two_ops_per_thread() {
    let _serial = serial();
    let scripts = [
        vec![DPush(Left, 1), DPop(Right)],
        vec![DPush(Right, 2), DPop(Left)],
    ];
    let report = bounded_then_swept("deque_two_ops_per_thread", 3, (0xD0, SWEEP), || {
        spend_retries("deque::push");
        deque_body(4, &scripts);
    });
    assert!(report.schedules > 1_000, "{report}");
}

/// Figure 3 over the deque, three threads: every strong operation
/// terminates (the obstruction-free → starvation-free leap),
/// linearizably.
#[test]
fn deque_three_threads_sweep() {
    let _serial = serial();
    let scripts = [
        vec![DPush(Left, 1), DPop(Right)],
        vec![DPush(Right, 2)],
        vec![DPop(Left), DPush(Right, 3)],
    ];
    let report = Explorer::random(0xD0, SWEEP).explore(|| {
        spend_retries("deque::push");
        deque_body(2, &scripts);
    });
    assert_swept("deque_three_threads_sweep", &report, SWEEP);
}

/// V3 — Lemmas 2–3, bounded form: with every process pushing and
/// popping through Figure 3 at once under the fair scheduler, every
/// operation completes, none returns ⊥, and none needs more than
/// `FAIR_BOUND` of its own accesses.
#[test]
fn all_strong_ops_complete_under_fair_scheduling() {
    let _serial = serial();
    for n in [2usize, 3, 4] {
        let scripts: Vec<_> = (0..n).map(|i| vec![Push(i as u32), Pop]).collect();
        let (worst, locked) = (AtomicU64::new(0), AtomicU64::new(0));
        let report = Explorer::round_robin().explore(|| {
            spend_retries("stack::push");
            let (notes, mix) = stack_body(16, CsConfig::PAPER, &[], &scripts);
            assert_eq!(notes.len(), 2 * n);
            let most = notes.iter().map(|n| n.accesses).max().unwrap_or(0);
            worst.store(most, Ordering::Relaxed);
            locked.store(mix.locked, Ordering::Relaxed);
        });
        let (worst, locked) = (worst.into_inner(), locked.into_inner());
        println!(
            "all_strong_ops_complete_under_fair_scheduling (n = {n}): {report}; \
             worst op {worst} accesses, {locked} under the lock"
        );
        report.assert_ok();
        assert!(worst <= FAIR_BOUND, "n={n}: an operation needed {worst}");
        assert!(locked > 0, "n={n}: the fair run never reached line 04");
    }
}
