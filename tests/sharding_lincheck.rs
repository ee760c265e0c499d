//! Linearizability of the sharded structures.
//!
//! `ShardConfig::strict` must satisfy the **unrelaxed** stack/queue
//! specifications: exact order is one cell, so the structure *is* a
//! single Figure-3 object behind the router's peeks, whatever lane
//! count was asked for. Relaxed sharding must satisfy the k-relaxed
//! specification at `k = relaxation_bound()`: running every recorded
//! history through the Wing–Gong membership check for the k-spec is
//! exactly the proof that the *observed* relaxation never exceeds the
//! *configured* bound.

use cso::lincheck::specs::relaxed::{KQueueSpec, KStackSpec};
use cso::lincheck::{check_linearizable, record, History};
use cso::queue::{QueueOp, QueueResponse, SeqQueue};
use cso::shard::{ShardConfig, ShardedCsQueue, ShardedCsStack};
use cso::stack::{SeqStack, StackOp, StackResponse};

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

fn run_stack_round(
    stack: &ShardedCsStack<u32>,
    round: usize,
) -> History<StackOp<u32>, StackResponse<u32>> {
    let scripts = scripts(round, |proc, i, v| match (proc * 31 + i * 17 + round) % 3 {
        0 => StackOp::Pop,
        _ => StackOp::Push(v),
    });
    record(&scripts, |proc, op| {
        Some(match *op {
            StackOp::Push(v) => StackResponse::Push(stack.push(proc, v)),
            StackOp::Pop => StackResponse::Pop(stack.pop(proc)),
        })
    })
}

fn run_queue_round(
    queue: &ShardedCsQueue<u32>,
    round: usize,
) -> History<QueueOp<u32>, QueueResponse<u32>> {
    let scripts = scripts(round, |proc, i, v| match (proc * 13 + i * 7 + round) % 3 {
        0 => QueueOp::Dequeue,
        _ => QueueOp::Enqueue(v),
    });
    record(&scripts, |proc, op| {
        Some(match *op {
            QueueOp::Enqueue(v) => QueueResponse::Enqueue(queue.enqueue(proc, v)),
            QueueOp::Dequeue => QueueResponse::Dequeue(queue.dequeue(proc)),
        })
    })
}

#[test]
fn strict_sharded_stack_histories_linearize_unrelaxed() {
    for round in 0..120 {
        let stack: ShardedCsStack<u32> = ShardedCsStack::new(4, THREADS, ShardConfig::strict(2));
        let history = run_stack_round(&stack, round);
        assert!(
            check_linearizable(&SeqStack::new(4), &history).is_linearizable(),
            "round {round}:\n{history}"
        );
    }
}

#[test]
fn strict_sharded_queue_histories_linearize_unrelaxed() {
    for round in 0..120 {
        let queue: ShardedCsQueue<u32> = ShardedCsQueue::new(4, THREADS, ShardConfig::strict(2));
        let history = run_queue_round(&queue, round);
        assert!(
            check_linearizable(&SeqQueue::new(4), &history).is_linearizable(),
            "round {round}:\n{history}"
        );
    }
}

#[test]
fn relaxed_sharded_stack_stays_within_its_relaxation_bound() {
    for round in 0..100 {
        let stack: ShardedCsStack<u32> =
            ShardedCsStack::new(4, THREADS, ShardConfig::relaxed(2, 2));
        let spec = KStackSpec::new(stack.capacity(), stack.relaxation_bound());
        let history = run_stack_round(&stack, round);
        assert!(
            check_linearizable(&spec, &history).is_linearizable(),
            "round {round} exceeded k={}:\n{history}",
            stack.relaxation_bound()
        );
    }
}

#[test]
fn relaxed_sharded_queue_stays_within_its_relaxation_bound() {
    for round in 0..100 {
        let queue: ShardedCsQueue<u32> =
            ShardedCsQueue::new(4, THREADS, ShardConfig::relaxed(2, 2));
        let spec = KQueueSpec::new(queue.capacity(), queue.relaxation_bound());
        let history = run_queue_round(&queue, round);
        assert!(
            check_linearizable(&spec, &history).is_linearizable(),
            "round {round} exceeded k={}:\n{history}",
            queue.relaxation_bound()
        );
    }
}

#[test]
fn elastic_relaxed_stack_stays_within_its_relaxation_bound() {
    // Aggressive cadence so split/merge happens *during* the checked
    // histories.
    for round in 0..60 {
        let stack: ShardedCsStack<u32> = ShardedCsStack::new(
            8,
            THREADS,
            ShardConfig::relaxed(4, 6)
                .with_elastic()
                .with_elastic_cadence(4, 0),
        );
        let spec = KStackSpec::new(stack.capacity(), stack.relaxation_bound());
        let history = run_stack_round(&stack, round);
        assert!(
            check_linearizable(&spec, &history).is_linearizable(),
            "round {round} exceeded k={}:\n{history}",
            stack.relaxation_bound()
        );
    }
}
