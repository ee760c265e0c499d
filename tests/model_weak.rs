//! V1, V2 and V5 on the shipped weak objects: every interleaving of
//! bounded instances of Figure 1's `AbortableStack`, the abortable
//! queue and the abortable HLM deque.
//!
//! ```text
//! cargo test --features model,chaos --test model_weak -- --nocapture
//! ```
//!
//! What each execution is held to (the oracles live in
//! `model_support`):
//!
//! * the history with ⊥ operations erased, extended by a sequential
//!   drain of the object (and, for the deque, a probe to `Full` that
//!   pins the arena's null accounting), linearizes against the
//!   sequential reference — Lemma 1's safety half, "aborted operations
//!   are no-ops", and "the final state is the witness's state" in one
//!   check, on the packed `TopWord`/`SlotWord`/`DequeWord`
//!   representation with its 16-bit tags;
//! * ⊥ only with an interleaved peer (zero aborts solo), and for the
//!   stack and the queue at least one of the contenders wins;
//! * solo weak operations cost exactly five (stack) and six (queue)
//!   counted accesses.
//!
//! Depth follows DESIGN.md's budget table ("The deterministic-
//! interleaving runtime"); each body prints its mode and `Report`.

mod model_support;

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use cso::deque::{AbortableDeque, DequeOp, End, SeqDeque};
use cso::lincheck::spec::SeqSpec;
use cso::queue::{AbortableQueue, QueueOp, SeqQueue};
use cso::stack::{AbortableStack, PopOutcome, SeqStack, StackOp, StackResponse};

use model_support::{
    aborts, assert_exhausted, assert_someone_wins, bounded_then_swept, scripted_body, unbounded,
    weak, Note,
};

use DequeOp::{Pop as DPop, Push as DPush};
use End::{Left, Right};
use QueueOp::{Dequeue, Enqueue};
use StackOp::{Pop, Push};

/// The sweep behind every bounded body.
const SWEEP: usize = 2_000;

type Notes<R> = Vec<Note<<R as SeqSpec>::Resp>>;

fn stack_body(
    capacity: usize,
    prefill: &[u32],
    scripts: &[Vec<StackOp<u32>>],
) -> Notes<SeqStack<u32>> {
    let stack = weak(AbortableStack::<u32>::new(capacity));
    let notes = scripted_body(stack, SeqStack::new(capacity), prefill, scripts);
    assert_someone_wins(&notes);
    notes
}

fn queue_body(
    capacity: usize,
    prefill: &[u32],
    scripts: &[Vec<QueueOp<u32>>],
) -> Notes<SeqQueue<u32>> {
    let queue = weak(AbortableQueue::<u32>::new(capacity));
    let notes = scripted_body(queue, SeqQueue::new(capacity), prefill, scripts);
    assert_someone_wins(&notes);
    notes
}

/// No `assert_someone_wins`: two HLM operations can abort each other.
fn deque_body(
    capacity: usize,
    prefill: &[u32],
    scripts: &[Vec<DequeOp<u32>>],
) -> Notes<SeqDeque<u32>> {
    let deque = weak(AbortableDeque::<u32>::new(capacity));
    scripted_body(deque, SeqDeque::new(capacity), prefill, scripts)
}

// ---------------------------------------------------------------
// V1/V2 — Figure 1, the weak stack.
// ---------------------------------------------------------------

#[test]
fn stack_two_racing_pushes() {
    let (clean, contended) = (AtomicBool::new(false), AtomicBool::new(false));
    let report = unbounded().explore(|| {
        let notes = stack_body(4, &[], &[vec![Push(1)], vec![Push(2)]]);
        match aborts(&notes) {
            0 => clean.store(true, Ordering::Relaxed),
            1 => contended.store(true, Ordering::Relaxed),
            n => panic!("{n} of two racing pushes aborted"),
        }
    });
    assert_exhausted("stack_two_racing_pushes", &report);
    assert!(report.schedules >= 252, "C(10,5) at least: {report}");
    assert!(
        clean.into_inner() && contended.into_inner(),
        "both a quiet and an aborting schedule exist"
    );
}

#[test]
fn stack_push_racing_pop_prefilled() {
    let report = unbounded().explore(|| {
        stack_body(4, &[5, 6], &[vec![Push(9)], vec![Pop]]);
    });
    assert_exhausted("stack_push_racing_pop_prefilled", &report);
}

#[test]
fn stack_push_racing_pop_on_empty() {
    let (saw_empty, saw_nine) = (AtomicBool::new(false), AtomicBool::new(false));
    let report = unbounded().explore(|| {
        let notes = stack_body(2, &[], &[vec![Pop], vec![Push(9)]]);
        match notes[0].resp {
            Some(StackResponse::Pop(PopOutcome::Empty)) => saw_empty.store(true, Ordering::Relaxed),
            Some(StackResponse::Pop(PopOutcome::Popped(9))) => {
                saw_nine.store(true, Ordering::Relaxed);
            }
            None => {}
            other => panic!("pop returned {other:?}"),
        }
    });
    assert_exhausted("stack_push_racing_pop_on_empty", &report);
    assert!(saw_empty.into_inner(), "some schedule pops before the push");
    assert!(saw_nine.into_inner(), "some schedule pops the pushed value");
}

#[test]
fn stack_full_boundary() {
    let full_seen = AtomicBool::new(false);
    let report = unbounded().explore(|| {
        // Capacity 1: whichever push linearizes second answers Full,
        // which the drain then confirms (exactly one value comes out).
        let notes = stack_body(1, &[], &[vec![Push(1)], vec![Push(2)]]);
        if aborts(&notes) == 0 {
            full_seen.store(true, Ordering::Relaxed);
        }
    });
    assert_exhausted("stack_full_boundary", &report);
    assert!(full_seen.into_inner(), "a capacity-1 stack reports Full");
}

#[test]
fn stack_two_ops_per_thread() {
    let scripts = [vec![Push(1), Pop], vec![Push(2), Pop]];
    let report = bounded_then_swept("stack_two_ops_per_thread", 4, (0x57AC, SWEEP), || {
        stack_body(4, &[], &scripts);
    });
    assert!(report.schedules > 1_000, "{report}");
}

#[test]
fn stack_three_threads() {
    let scripts = [vec![Push(1)], vec![Push(2)], vec![Pop]];
    let seen = [const { AtomicBool::new(false) }; 3];
    let body = || {
        let notes = stack_body(4, &[7], &scripts);
        seen[aborts(&notes)].store(true, Ordering::Relaxed);
    };
    bounded_then_swept("stack_three_threads", 3, (0x3_57AC, SWEEP), body);
    let [quiet, one, two] = seen.map(AtomicBool::into_inner);
    assert!(quiet && one && two, "0, 1 and 2 aborts all occur");
}

/// V2: solo, a weak operation is exactly five accesses and never ⊥.
#[test]
fn stack_solo_ops_are_five_accesses() {
    for op in [Push(1), Pop] {
        let report = unbounded().explore(|| {
            let notes = stack_body(4, &[3], &[vec![op]]);
            assert!(!notes[0].aborted());
            assert_eq!(notes[0].accesses, 5, "{op:?}");
        });
        assert_exhausted("stack_solo_ops_are_five_accesses", &report);
        assert_eq!(report.schedules, 1, "a solo body has one schedule");
    }
}

// ---------------------------------------------------------------
// V1/V2 — the weak queue, including §1.1's non-interference.
// ---------------------------------------------------------------

#[test]
fn queue_two_racing_enqueues() {
    let max_aborts = AtomicUsize::new(0);
    let report = unbounded().explore(|| {
        let notes = queue_body(4, &[], &[vec![Enqueue(1)], vec![Enqueue(2)]]);
        max_aborts.fetch_max(aborts(&notes), Ordering::Relaxed);
    });
    assert_exhausted("queue_two_racing_enqueues", &report);
    assert_eq!(max_aborts.into_inner(), 1, "one of two racers always wins");
}

#[test]
fn queue_two_racing_dequeues() {
    let report = unbounded().explore(|| {
        queue_body(4, &[8, 9], &[vec![Dequeue], vec![Dequeue]]);
    });
    assert_exhausted("queue_two_racing_dequeues", &report);
}

/// §1.1's example, in every schedule: on a non-empty, non-full queue a
/// concurrent enqueue and dequeue never abort each other.
#[test]
fn queue_enqueue_and_dequeue_never_interfere() {
    let report = unbounded().explore(|| {
        let notes = queue_body(4, &[5, 6], &[vec![Enqueue(9)], vec![Dequeue]]);
        assert_eq!(aborts(&notes), 0, "the two ends are non-interfering");
    });
    assert_exhausted("queue_enqueue_and_dequeue_never_interfere", &report);
    assert!(report.schedules >= 900, "C(12,6) = 924 at least: {report}");
}

/// At the `Empty` boundary the same pair can interfere; aborts may
/// appear, linearizability must hold.
#[test]
fn queue_empty_boundary_race() {
    let report = unbounded().explore(|| {
        queue_body(2, &[], &[vec![Enqueue(9)], vec![Dequeue]]);
    });
    assert_exhausted("queue_empty_boundary_race", &report);
}

#[test]
fn queue_solo_ops_are_six_accesses() {
    for (op, prefill) in [(Enqueue(1), &[][..]), (Dequeue, &[5][..])] {
        let report = unbounded().explore(|| {
            let notes = queue_body(4, prefill, &[vec![op]]);
            assert!(!notes[0].aborted());
            assert_eq!(notes[0].accesses, 6, "{op:?}");
        });
        assert_exhausted("queue_solo_ops_are_six_accesses", &report);
        assert_eq!(report.schedules, 1);
    }
}

// ---------------------------------------------------------------
// V5 — the abortable HLM deque.
// ---------------------------------------------------------------

/// Explores `scripts` with no bound and reports whether any schedule
/// aborted.
fn deque_race(name: &str, capacity: usize, prefill: &[u32], scripts: &[Vec<DequeOp<u32>>]) -> bool {
    let aborted = AtomicBool::new(false);
    let report = unbounded().explore(|| {
        let notes = deque_body(capacity, prefill, scripts);
        aborted.fetch_or(aborts(&notes) > 0, Ordering::Relaxed);
    });
    assert_exhausted(name, &report);
    assert!(report.schedules > 100, "{name}: {report}");
    aborted.into_inner()
}

#[test]
fn deque_racing_right_pushes() {
    assert!(
        deque_race(
            "deque_racing_right_pushes",
            2,
            &[],
            &[vec![DPush(Right, 1)], vec![DPush(Right, 2)]]
        ),
        "same-end pushes conflict in some schedule"
    );
}

/// The deque's signature weakness: with the boundaries adjacent even
/// *opposite*-end pushes interfere — unlike the queue's two ends.
#[test]
fn deque_opposite_end_pushes_on_small_arena() {
    assert!(
        deque_race(
            "deque_opposite_end_pushes_on_small_arena",
            2,
            &[],
            &[vec![DPush(Left, 1)], vec![DPush(Right, 2)]]
        ),
        "adjacent boundaries make opposite ends interfere"
    );
}

#[test]
fn deque_push_racing_pop_same_end() {
    deque_race(
        "deque_push_racing_pop_same_end",
        2,
        &[9],
        &[vec![DPush(Right, 1)], vec![DPop(Right)]],
    );
}

/// The right block down to its sentinel: `Full` against `Popped`.
#[test]
fn deque_full_boundary_race() {
    deque_race(
        "deque_full_boundary_race",
        2,
        &[1],
        &[vec![DPush(Right, 2)], vec![DPop(Right)]],
    );
}

#[test]
fn deque_racing_pops_from_both_ends() {
    let both = AtomicBool::new(false);
    let report = unbounded().explore(|| {
        let notes = deque_body(4, &[5, 6], &[vec![DPop(Left)], vec![DPop(Right)]]);
        // Two elements, two ends: when neither aborts both popped
        // (the drain then finds nothing, which the history checks).
        both.fetch_or(aborts(&notes) == 0, Ordering::Relaxed);
    });
    assert_exhausted("deque_racing_pops_from_both_ends", &report);
    assert!(both.into_inner(), "some schedule lets both pops succeed");
}

/// One element, a pop at each end: the history check allows at most
/// one `Popped(7)`; `Empty` and ⊥ sort themselves out around it.
#[test]
fn deque_pop_race_on_single_element() {
    deque_race(
        "deque_pop_race_on_single_element",
        2,
        &[7],
        &[vec![DPop(Left)], vec![DPop(Right)]],
    );
}

#[test]
fn deque_two_ops_per_thread() {
    let scripts = [
        vec![DPush(Left, 1), DPop(Right)],
        vec![DPush(Right, 2), DPop(Left)],
    ];
    let report = bounded_then_swept("deque_two_ops_per_thread", 4, (0xDE0, SWEEP), || {
        deque_body(2, &[], &scripts);
    });
    assert!(report.schedules > 1_000, "{report}");
}

#[test]
fn deque_solo_attempts_never_abort() {
    for op in [DPush(Left, 1), DPush(Right, 2), DPop(Left), DPop(Right)] {
        let report = unbounded().explore(|| {
            let notes = deque_body(3, &[4], &[vec![op]]);
            assert!(!notes[0].aborted(), "solo {op:?}");
        });
        assert_exhausted("deque_solo_attempts_never_abort", &report);
        assert_eq!(report.schedules, 1);
    }
}
