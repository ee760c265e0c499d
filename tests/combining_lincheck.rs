//! Linearizability of the flat-combining slow path.
//!
//! With combining forced on (fast path compiled out), operations are
//! frequently applied by a *different* thread than the one that
//! invoked them: the combiner serves the publication records of the
//! waiters. These stress tests record live histories with
//! [`cso::lincheck::record`], which records every operation on its
//! invoker's thread, around the public call — so each is attributed to
//! its **invoking** process, whose invoke/return window must contain
//! the linearization point — and run them through the Wing–Gong
//! checker.

use cso::core::CsConfig;
use cso::lincheck::{check_linearizable, record};
use cso::locks::TasLock;
use cso::queue::{CsQueue, QueueOp, SeqQueue};
use cso::stack::{CsStack, SeqStack, StackOp};

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

fn combining_config() -> CsConfig {
    // Fast path off: every operation goes through the combining slow
    // path, maximizing combiner-applied (cross-thread) completions.
    CsConfig::PAPER.without_fast_path().with_combining()
}

#[test]
fn combining_stack_histories_linearize() {
    for round in 0..120 {
        let stack: CsStack<u32> =
            CsStack::with_config(4, TasLock::new(), THREADS, combining_config());
        let scripts = scripts(round, |proc, i, v| match (proc * 31 + i * 17 + round) % 3 {
            0 => StackOp::Pop,
            _ => StackOp::Push(v),
        });
        // Strong ops never return ⊥.
        let history = record(&scripts, |proc, op| Some(stack.apply(proc, op)));
        // Sanity: the run exercised the combining machinery at all.
        assert_eq!(stack.path_stats().fast, 0, "fast path must be off");
        assert!(
            check_linearizable(&SeqStack::new(4), &history).is_linearizable(),
            "round {round}:\n{history}"
        );
    }
}

#[test]
fn combining_queue_histories_linearize() {
    for round in 0..120 {
        let queue: CsQueue<u32> =
            CsQueue::with_config(4, TasLock::new(), THREADS, combining_config());
        let scripts = scripts(round, |proc, i, v| match (proc * 13 + i * 7 + round) % 3 {
            0 => QueueOp::Dequeue,
            _ => QueueOp::Enqueue(v),
        });
        let history = record(&scripts, |proc, op| Some(queue.apply(proc, op)));
        assert_eq!(queue.path_stats().fast, 0, "fast path must be off");
        assert!(
            check_linearizable(&SeqQueue::new(4), &history).is_linearizable(),
            "round {round}:\n{history}"
        );
    }
}

/// Combining with the fast path *on* (the `COMBINING` config): mixed
/// fast-path and combiner-applied completions still linearize.
#[test]
fn combining_with_fast_path_histories_linearize() {
    for round in 0..60 {
        let stack: CsStack<u32> =
            CsStack::with_config(4, TasLock::new(), THREADS, CsConfig::COMBINING);
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
