//! Ready-made sequential specifications for the paper's objects.
//!
//! The stack, queue and deque are specified by their own crates'
//! sequential types — [`SeqStack`], [`SeqQueue`], [`SeqDeque`] — in the
//! objects' own operation and response vocabulary, so a recorded call
//! of a concurrent object is checked as it was made. The value is the
//! initial state: a specification that starts pre-filled is a `Seq*`
//! filled the same way.

use std::hash::Hash;

use cso_deque::{DequeOp, DequeResponse, SeqDeque};
use cso_queue::{QueueOp, QueueResponse, SeqQueue};
use cso_stack::{SeqStack, StackOp, StackResponse};

use crate::spec::SeqSpec;

pub mod register;
pub mod relaxed;

impl<V: Clone + Eq + Hash> SeqSpec for SeqStack<V> {
    type State = SeqStack<V>;
    type Op = StackOp<V>;
    type Resp = StackResponse<V>;

    fn initial(&self) -> SeqStack<V> {
        self.clone()
    }

    fn step(&self, state: &SeqStack<V>, op: &StackOp<V>) -> (SeqStack<V>, StackResponse<V>) {
        let mut next = state.clone();
        let resp = next.apply(op);
        (next, resp)
    }
}

impl<V: Clone + Eq + Hash> SeqSpec for SeqQueue<V> {
    type State = SeqQueue<V>;
    type Op = QueueOp<V>;
    type Resp = QueueResponse<V>;

    fn initial(&self) -> SeqQueue<V> {
        self.clone()
    }

    fn step(&self, state: &SeqQueue<V>, op: &QueueOp<V>) -> (SeqQueue<V>, QueueResponse<V>) {
        let mut next = state.clone();
        let resp = next.apply(op);
        (next, resp)
    }
}

/// The linear-HLM arena semantics: `Full` at one end depends on where
/// the data block has drifted, not on the number of values stored.
impl<V: Clone + Eq + Hash> SeqSpec for SeqDeque<V> {
    type State = SeqDeque<V>;
    type Op = DequeOp<V>;
    type Resp = DequeResponse<V>;

    fn initial(&self) -> SeqDeque<V> {
        self.clone()
    }

    fn step(&self, state: &SeqDeque<V>, op: &DequeOp<V>) -> (SeqDeque<V>, DequeResponse<V>) {
        let mut next = state.clone();
        let resp = next.apply(op);
        (next, resp)
    }
}

#[cfg(test)]
mod tests {
    use cso_deque::{DequePopOutcome, DequePushOutcome, End};
    use cso_queue::{DequeueOutcome, EnqueueOutcome};
    use cso_stack::{PopOutcome, PushOutcome};

    use super::*;
    use crate::checker::check_linearizable;
    use crate::history::History;

    #[test]
    fn lifo_with_capacity() {
        let spec = SeqStack::new(2);
        let s0 = spec.initial();
        let (s1, r1) = spec.step(&s0, &StackOp::Push(1u32));
        assert_eq!(r1, StackResponse::Push(PushOutcome::Pushed));
        let (s2, _) = spec.step(&s1, &StackOp::Push(2));
        let (s3, r3) = spec.step(&s2, &StackOp::Push(3));
        assert_eq!(r3, StackResponse::Push(PushOutcome::Full));
        assert_eq!(s3, s2);
        let (_, r4) = spec.step(&s3, &StackOp::Pop);
        assert_eq!(r4, StackResponse::Pop(PopOutcome::Popped(2)));
        let (empty, r5) = spec.step(&s0, &StackOp::Pop);
        assert_eq!(r5, StackResponse::Pop(PopOutcome::Empty));
        assert!(empty.is_empty());
    }

    #[test]
    fn fifo_with_capacity() {
        let spec = SeqQueue::new(2);
        let s0 = spec.initial();
        let (s1, _) = spec.step(&s0, &QueueOp::Enqueue(1u32));
        let (s2, _) = spec.step(&s1, &QueueOp::Enqueue(2));
        let (s3, r) = spec.step(&s2, &QueueOp::Enqueue(3));
        assert_eq!(r, QueueResponse::Enqueue(EnqueueOutcome::Full));
        assert_eq!(s3, s2);
        let (_, r) = spec.step(&s2, &QueueOp::Dequeue);
        assert_eq!(r, QueueResponse::Dequeue(DequeueOutcome::Dequeued(1)));
        let (_, r) = spec.step(&s0, &QueueOp::Dequeue);
        assert_eq!(r, QueueResponse::Dequeue(DequeueOutcome::Empty));
    }

    #[test]
    fn fifo_order_violation_is_not_linearizable() {
        // enq(1); enq(2) sequentially, then a dequeue (sequential)
        // returning 2: violates FIFO.
        let enqueued = QueueResponse::Enqueue(EnqueueOutcome::Enqueued);
        let mut h = History::new();
        h.invoke(0, QueueOp::Enqueue(1));
        h.ret(0, enqueued);
        h.invoke(0, QueueOp::Enqueue(2));
        h.ret(0, enqueued);
        h.invoke(1, QueueOp::Dequeue);
        h.ret(1, QueueResponse::Dequeue(DequeueOutcome::Dequeued(2)));
        assert!(!check_linearizable(&SeqQueue::new(4), &h).is_linearizable());
    }

    #[test]
    fn overlapping_enqueues_allow_either_order() {
        let enqueued = QueueResponse::Enqueue(EnqueueOutcome::Enqueued);
        let mut h = History::new();
        h.invoke(0, QueueOp::Enqueue(1));
        h.invoke(1, QueueOp::Enqueue(2));
        h.ret(0, enqueued);
        h.ret(1, enqueued);
        h.invoke(0, QueueOp::Dequeue);
        // 2 first is fine: the enqueues overlapped.
        h.ret(0, QueueResponse::Dequeue(DequeueOutcome::Dequeued(2)));
        assert!(check_linearizable(&SeqQueue::new(4), &h).is_linearizable());
    }

    #[test]
    fn deque_ends_and_the_drifted_wall() {
        use DequeOp::{Pop, Push};
        let pushed = DequeResponse::Push(DequePushOutcome::Pushed);
        let full = DequeResponse::Push(DequePushOutcome::Full);
        // Capacity 2: LN LN RN RN, so one push fits on each side.
        let spec = SeqDeque::new(2);
        let mut h = History::new();
        for (op, resp) in [
            (Push(End::Right, 1u32), pushed),
            (Push(End::Right, 2), full),
            (Push(End::Left, 0), pushed),
            (
                Pop(End::Right),
                DequeResponse::Pop(DequePopOutcome::Popped(1)),
            ),
            (
                Pop(End::Right),
                DequeResponse::Pop(DequePopOutcome::Popped(0)),
            ),
            // Both values left by the right: the data block drifted
            // into the left wall, and the empty deque is full there.
            (Push(End::Left, 3), full),
            (Pop(End::Left), DequeResponse::Pop(DequePopOutcome::Empty)),
        ] {
            h.invoke(0, op);
            h.ret(0, resp);
        }
        assert!(check_linearizable(&spec, &h).is_linearizable());
        // Forged: a left pop sees the value pushed on the right before
        // the left one, which only a FIFO could answer.
        let mut forged = History::new();
        for (op, resp) in [
            (Push(End::Right, 1u32), pushed),
            (Push(End::Left, 0), pushed),
            (
                Pop(End::Left),
                DequeResponse::Pop(DequePopOutcome::Popped(1)),
            ),
        ] {
            forged.invoke(0, op);
            forged.ret(0, resp);
        }
        assert!(!check_linearizable(&spec, &forged).is_linearizable());
    }
}
