//! Cross-crate stress: record live concurrent histories from the real
//! implementations and run them through the Wing–Gong checker.
//!
//! The recorder's mutex serializes event logging, so these runs are
//! about *correctness coverage*, not performance. Aborted (⊥)
//! operations are cancelled in the recorder — by the abortable-object
//! contract they had no effect, and an implementation violating that
//! contract would poison the remaining history and fail the check.

use cso::core::Abortable;
use cso::lincheck::{check_linearizable, record};
use cso::queue::{AbortableQueue, CsQueue, QueueOp, SeqQueue};
use cso::stack::{AbortableStack, CsStack, SeqStack, StackOp};

const THREADS: usize = 3;
const OPS: usize = 7;

/// One script per thread: op `i` of thread `proc` is `op(proc, i, v)`,
/// `v` a value unique to the round.
fn scripts<Op>(round: usize, op: impl Fn(usize, usize, u32) -> Op) -> Vec<Vec<Op>> {
    let value = |proc, i| (round * 100 + proc * OPS + i) as u32;
    (0..THREADS)
        .map(|proc| (0..OPS).map(|i| op(proc, i, value(proc, i))).collect())
        .collect()
}

#[test]
fn abortable_stack_histories_linearize() {
    for round in 0..150 {
        let stack: AbortableStack<u32> = AbortableStack::new(4);
        let scripts = scripts(round, |proc, i, v| match (proc * 31 + i * 17 + round) % 3 {
            0 => StackOp::Pop,
            _ => StackOp::Push(v),
        });
        let history = record(&scripts, |_, op| stack.try_apply(op).ok());
        assert!(
            check_linearizable(&SeqStack::new(4), &history).is_linearizable(),
            "round {round}:\n{history}"
        );
    }
}

#[test]
fn cs_stack_histories_linearize() {
    for round in 0..120 {
        let stack: CsStack<u32> = CsStack::new(4, THREADS);
        let scripts = scripts(round, |proc, i, v| match (proc + i + round) % 2 {
            0 => StackOp::Push(v),
            _ => StackOp::Pop,
        });
        let history = record(&scripts, |proc, op| Some(stack.apply(proc, op)));
        assert!(
            check_linearizable(&SeqStack::new(4), &history).is_linearizable(),
            "round {round}:\n{history}"
        );
    }
}

#[test]
fn abortable_queue_histories_linearize() {
    for round in 0..150 {
        let queue: AbortableQueue<u32> = AbortableQueue::new(4);
        let scripts = scripts(round, |proc, i, v| match (proc * 13 + i * 7 + round) % 3 {
            0 => QueueOp::Dequeue,
            _ => QueueOp::Enqueue(v),
        });
        let history = record(&scripts, |_, op| queue.try_apply(op).ok());
        assert!(
            check_linearizable(&SeqQueue::new(4), &history).is_linearizable(),
            "round {round}"
        );
    }
}

#[test]
fn cs_queue_histories_linearize() {
    for round in 0..120 {
        let queue: CsQueue<u32> = CsQueue::new(4, THREADS);
        let scripts = scripts(round, |proc, i, v| match (proc + i + round) % 2 {
            0 => QueueOp::Enqueue(v),
            _ => QueueOp::Dequeue,
        });
        let history = record(&scripts, |proc, op| Some(queue.apply(proc, op)));
        assert!(
            check_linearizable(&SeqQueue::new(4), &history).is_linearizable(),
            "round {round}"
        );
    }
}
