//! k-relaxed sequential specifications (out-of-order distance ≤ k).
//!
//! Following the quantitative-relaxation framing (Henzinger et al.;
//! see PAPERS.md), a *k-relaxed* stack/queue weakens only the removal
//! end and the boundary answers, by a checked distance `k`:
//!
//! * a pop/dequeue may return any element within distance `k` of the
//!   strict answer (top of the stack, front of the queue);
//! * `Empty` is legal while at most `k` elements are resident (an
//!   in-flight operation may not have seen them);
//! * `Full` is legal while at least `capacity − k` elements are
//!   resident.
//!
//! Insertions stay strict (they always append). With `k = 0` both
//! specs are **exactly** the objects' own [`SeqStack`] / [`SeqQueue`]
//! semantics, which the unit tests pin down; both speak the objects'
//! vocabulary (`StackOp`/`StackResponse`, `QueueOp`/`QueueResponse`).
//!
//! These are [`RelaxedSpec`]s — relations, not functions — decided by
//! the same [`check_linearizable`](crate::checker::check_linearizable)
//! search as the strict specs.
//! `cso-shard`'s relaxed mode advertises its bound via
//! `relaxation_bound()`; feeding that bound as `k` here is how
//! `tests/sharding_lincheck.rs` proves the observed relaxation never
//! exceeds the configured one.
//!
//! [`SeqStack`]: cso_stack::SeqStack
//! [`SeqQueue`]: cso_queue::SeqQueue

use std::collections::VecDeque;

use cso_queue::{DequeueOutcome, EnqueueOutcome, QueueOp, QueueResponse};
use cso_stack::{PopOutcome, PushOutcome, StackOp, StackResponse};

use crate::spec::RelaxedSpec;

/// The k-relaxed bounded LIFO stack specification.
///
/// ```
/// use cso_lincheck::checker::check_linearizable;
/// use cso_lincheck::history::History;
/// use cso_lincheck::specs::relaxed::KStackSpec;
/// use cso_stack::{PopOutcome, PushOutcome, StackOp, StackResponse};
///
/// // Two sequential pushes, then a pop returning the *bottom* value:
/// // distance 1 from the top — illegal strictly, legal for k = 1.
/// let mut h = History::new();
/// h.invoke(0, StackOp::Push(1));
/// h.ret(0, StackResponse::Push(PushOutcome::Pushed));
/// h.invoke(0, StackOp::Push(2));
/// h.ret(0, StackResponse::Push(PushOutcome::Pushed));
/// h.invoke(0, StackOp::Pop);
/// h.ret(0, StackResponse::Pop(PopOutcome::Popped(1)));
/// assert!(!check_linearizable(&KStackSpec::new(4, 0), &h).is_linearizable());
/// assert!(check_linearizable(&KStackSpec::new(4, 1), &h).is_linearizable());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KStackSpec {
    capacity: usize,
    k: usize,
}

impl KStackSpec {
    /// A stack of capacity `capacity` whose pops may reach `k` deep.
    #[must_use]
    pub fn new(capacity: usize, k: usize) -> KStackSpec {
        KStackSpec { capacity, k }
    }

    /// The relaxation bound `k`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }
}

impl RelaxedSpec for KStackSpec {
    type State = Vec<u32>;
    type Op = StackOp<u32>;
    type Resp = StackResponse<u32>;

    fn initial(&self) -> Vec<u32> {
        Vec::new()
    }

    fn candidates(
        &self,
        state: &Vec<u32>,
        op: &StackOp<u32>,
    ) -> impl IntoIterator<Item = (Vec<u32>, StackResponse<u32>)> {
        match op {
            StackOp::Push(v) => {
                let mut out = Vec::new();
                if state.len() < self.capacity {
                    let mut next = state.clone();
                    next.push(*v);
                    out.push((next, StackResponse::Push(PushOutcome::Pushed)));
                }
                // Full may be answered while ≥ capacity − k resident.
                if state.len() + self.k >= self.capacity {
                    out.push((state.clone(), StackResponse::Push(PushOutcome::Full)));
                }
                out
            }
            StackOp::Pop => {
                let mut out = Vec::new();
                // Any element within distance k of the top.
                if !state.is_empty() {
                    for depth in 0..=self.k.min(state.len() - 1) {
                        let idx = state.len() - 1 - depth;
                        let mut next = state.clone();
                        let v = next.remove(idx);
                        out.push((next, StackResponse::Pop(PopOutcome::Popped(v))));
                    }
                }
                // Empty may be answered while ≤ k resident.
                if state.len() <= self.k {
                    out.push((state.clone(), StackResponse::Pop(PopOutcome::Empty)));
                }
                out
            }
        }
    }
}

/// The k-relaxed bounded FIFO queue specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KQueueSpec {
    capacity: usize,
    k: usize,
}

impl KQueueSpec {
    /// A queue of capacity `capacity` whose dequeues may reach `k`
    /// past the front.
    #[must_use]
    pub fn new(capacity: usize, k: usize) -> KQueueSpec {
        KQueueSpec { capacity, k }
    }

    /// The relaxation bound `k`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }
}

impl RelaxedSpec for KQueueSpec {
    type State = VecDeque<u32>;
    type Op = QueueOp<u32>;
    type Resp = QueueResponse<u32>;

    fn initial(&self) -> VecDeque<u32> {
        VecDeque::new()
    }

    fn candidates(
        &self,
        state: &VecDeque<u32>,
        op: &QueueOp<u32>,
    ) -> impl IntoIterator<Item = (VecDeque<u32>, QueueResponse<u32>)> {
        match op {
            QueueOp::Enqueue(v) => {
                let mut out = Vec::new();
                if state.len() < self.capacity {
                    let mut next = state.clone();
                    next.push_back(*v);
                    out.push((next, QueueResponse::Enqueue(EnqueueOutcome::Enqueued)));
                }
                if state.len() + self.k >= self.capacity {
                    out.push((state.clone(), QueueResponse::Enqueue(EnqueueOutcome::Full)));
                }
                out
            }
            QueueOp::Dequeue => {
                let mut out = Vec::new();
                // Any element within distance k of the front.
                if !state.is_empty() {
                    for depth in 0..=self.k.min(state.len() - 1) {
                        let mut next = state.clone();
                        let v = next.remove(depth).expect("depth < len");
                        out.push((next, QueueResponse::Dequeue(DequeueOutcome::Dequeued(v))));
                    }
                }
                if state.len() <= self.k {
                    out.push((state.clone(), QueueResponse::Dequeue(DequeueOutcome::Empty)));
                }
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use cso_queue::SeqQueue;
    use cso_stack::SeqStack;

    use super::*;
    use crate::checker::check_linearizable;
    use crate::history::History;
    use crate::spec::SeqSpec;

    const PUSHED: StackResponse<u32> = StackResponse::Push(PushOutcome::Pushed);
    const ENQUEUED: QueueResponse<u32> = QueueResponse::Enqueue(EnqueueOutcome::Enqueued);

    #[test]
    fn k0_stack_candidates_match_the_strict_spec() {
        let relaxed = KStackSpec::new(2, 0);
        for items in [vec![], vec![1], vec![1, 2]] {
            let mut strict = SeqStack::new(2);
            for &v in &items {
                strict.push(v);
            }
            for op in [StackOp::Push(9), StackOp::Pop] {
                let got: Vec<_> = relaxed.candidates(&items, &op).into_iter().collect();
                assert_eq!(got.len(), 1, "k=0 must be deterministic");
                let (next, resp) = strict.step(&strict, &op);
                assert_eq!((got[0].0.as_slice(), got[0].1), (next.items(), resp));
            }
        }
    }

    #[test]
    fn k0_queue_candidates_match_the_strict_spec() {
        let relaxed = KQueueSpec::new(2, 0);
        for items in [VecDeque::new(), VecDeque::from([1]), VecDeque::from([1, 2])] {
            let mut strict = SeqQueue::new(2);
            for &v in &items {
                strict.enqueue(v);
            }
            for op in [QueueOp::Enqueue(9), QueueOp::Dequeue] {
                let got: Vec<_> = relaxed.candidates(&items, &op).into_iter().collect();
                assert_eq!(got.len(), 1, "k=0 must be deterministic");
                let (next, resp) = strict.step(&strict, &op);
                assert_eq!((&got[0].0, got[0].1), (next.items(), resp));
            }
        }
    }

    #[test]
    fn pop_depth_is_bounded_by_k() {
        // [1, 2, 3]: pop may return 3 (depth 0) or 2 (depth 1) with
        // k = 1, but never 1 (depth 2).
        let spec = KStackSpec::new(8, 1);
        let state = vec![1, 2, 3];
        let popped: Vec<StackResponse<u32>> = spec
            .candidates(&state, &StackOp::Pop)
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        let pop = StackResponse::<u32>::Pop;
        assert!(popped.contains(&pop(PopOutcome::Popped(3))));
        assert!(popped.contains(&pop(PopOutcome::Popped(2))));
        assert!(!popped.contains(&pop(PopOutcome::Popped(1))));
        assert!(!popped.contains(&pop(PopOutcome::Empty)), "3 > k resident");
    }

    #[test]
    fn empty_and_full_windows_scale_with_k() {
        let spec = KQueueSpec::new(4, 2);
        // 2 resident ≤ k: Empty is a legal answer.
        let resps: Vec<QueueResponse<u32>> = spec
            .candidates(&VecDeque::from([1, 2]), &QueueOp::Dequeue)
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        assert!(resps.contains(&QueueResponse::Dequeue(DequeueOutcome::Empty)));
        // 2 resident ≥ capacity − k: Full is a legal answer too.
        let resps: Vec<QueueResponse<u32>> = spec
            .candidates(&VecDeque::from([1, 2]), &QueueOp::Enqueue(9))
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        assert!(resps.contains(&QueueResponse::Enqueue(EnqueueOutcome::Full)));
        assert!(resps.contains(&ENQUEUED));
    }

    #[test]
    fn out_of_order_dequeue_needs_large_enough_k() {
        // enq 1, 2, 3 sequentially; dequeue returns 3 (distance 2).
        let mut h = History::new();
        for v in 1..=3 {
            h.invoke(0, QueueOp::Enqueue(v));
            h.ret(0, ENQUEUED);
        }
        h.invoke(1, QueueOp::Dequeue);
        h.ret(1, QueueResponse::Dequeue(DequeueOutcome::Dequeued(3)));
        assert!(!check_linearizable(&KQueueSpec::new(8, 1), &h).is_linearizable());
        assert!(check_linearizable(&KQueueSpec::new(8, 2), &h).is_linearizable());
        // And the strict checker rejects it outright.
        assert!(!check_linearizable(&SeqQueue::new(8), &h).is_linearizable());
    }

    #[test]
    fn relaxed_checker_with_k0_agrees_with_strict() {
        // A legal strict history passes at k = 0 as it does strictly.
        let mut h = History::new();
        h.invoke(0, StackOp::Push(1));
        h.invoke(1, StackOp::Pop);
        h.ret(0, PUSHED);
        h.ret(1, StackResponse::Pop(PopOutcome::Popped(1)));
        assert!(check_linearizable(&SeqStack::new(4), &h).is_linearizable());
        assert!(check_linearizable(&KStackSpec::new(4, 0), &h).is_linearizable());
        // An illegal one fails both ways.
        let mut bad = History::new();
        bad.invoke(0, StackOp::Pop);
        bad.ret(0, StackResponse::Pop(PopOutcome::Popped(7)));
        assert!(!check_linearizable(&SeqStack::new(4), &bad).is_linearizable());
        assert!(!check_linearizable(&KStackSpec::new(4, 0), &bad).is_linearizable());
    }

    #[test]
    fn seqspec_blanket_impl_feeds_the_relaxed_checker() {
        // A deterministic spec reaches the search through the blanket
        // impl's singleton candidates.
        let mut h = History::new();
        h.invoke(0, QueueOp::Enqueue(5u32));
        h.ret(0, ENQUEUED);
        h.invoke(0, QueueOp::Dequeue);
        h.ret(0, QueueResponse::Dequeue(DequeueOutcome::Dequeued(5)));
        assert!(check_linearizable(&SeqQueue::new(4), &h).is_linearizable());
    }
}
