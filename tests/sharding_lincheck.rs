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

use cso::lincheck::checker::{check_linearizable, check_relaxed_linearizable};
use cso::lincheck::recorder::Recorder;
use cso::lincheck::specs::queue::{QueueSpec, SpecQueueOp, SpecQueueResp};
use cso::lincheck::specs::relaxed::{KQueueSpec, KStackSpec};
use cso::lincheck::specs::stack::{SpecStackOp, SpecStackResp, StackSpec};
use cso::queue::{DequeueOutcome, EnqueueOutcome};
use cso::shard::{ShardConfig, ShardedCsQueue, ShardedCsStack};
use cso::stack::{PopOutcome, PushOutcome};

const THREADS: usize = 3;
const OPS: usize = 7;

fn run_stack_round(
    stack: &ShardedCsStack<u32>,
    round: usize,
) -> cso::lincheck::History<SpecStackOp, SpecStackResp> {
    let recorder: Recorder<SpecStackOp, SpecStackResp> = Recorder::new();
    std::thread::scope(|s| {
        for proc in 0..THREADS {
            let recorder = recorder.clone();
            s.spawn(move || {
                for i in 0..OPS {
                    if (proc * 31 + i * 17 + round) % 3 != 0 {
                        let v = (round * 100 + proc * OPS + i) as u32;
                        let handle = recorder.begin(proc, SpecStackOp::Push(v));
                        match stack.push(proc, v) {
                            PushOutcome::Pushed => handle.finish(SpecStackResp::Pushed),
                            PushOutcome::Full => handle.finish(SpecStackResp::Full),
                        }
                    } else {
                        let handle = recorder.begin(proc, SpecStackOp::Pop);
                        match stack.pop(proc) {
                            PopOutcome::Popped(v) => handle.finish(SpecStackResp::Popped(v)),
                            PopOutcome::Empty => handle.finish(SpecStackResp::Empty),
                        }
                    }
                    if i % 2 == round % 2 {
                        std::thread::yield_now();
                    }
                }
            });
        }
    });
    recorder.finish()
}

fn run_queue_round(
    queue: &ShardedCsQueue<u32>,
    round: usize,
) -> cso::lincheck::History<SpecQueueOp, SpecQueueResp> {
    let recorder: Recorder<SpecQueueOp, SpecQueueResp> = Recorder::new();
    std::thread::scope(|s| {
        for proc in 0..THREADS {
            let recorder = recorder.clone();
            s.spawn(move || {
                for i in 0..OPS {
                    if (proc * 13 + i * 7 + round) % 3 != 0 {
                        let v = (round * 100 + proc * OPS + i) as u32;
                        let handle = recorder.begin(proc, SpecQueueOp::Enqueue(v));
                        match queue.enqueue(proc, v) {
                            EnqueueOutcome::Enqueued => handle.finish(SpecQueueResp::Enqueued),
                            EnqueueOutcome::Full => handle.finish(SpecQueueResp::Full),
                        }
                    } else {
                        let handle = recorder.begin(proc, SpecQueueOp::Dequeue);
                        match queue.dequeue(proc) {
                            DequeueOutcome::Dequeued(v) => {
                                handle.finish(SpecQueueResp::Dequeued(v));
                            }
                            DequeueOutcome::Empty => handle.finish(SpecQueueResp::Empty),
                        }
                    }
                    if i % 2 == round % 2 {
                        std::thread::yield_now();
                    }
                }
            });
        }
    });
    recorder.finish()
}

#[test]
fn strict_sharded_stack_histories_linearize_unrelaxed() {
    let spec = StackSpec::new(4);
    for round in 0..120 {
        let stack: ShardedCsStack<u32> = ShardedCsStack::new(4, THREADS, ShardConfig::strict(2));
        let history = run_stack_round(&stack, round);
        assert!(
            check_linearizable(&spec, &history).is_linearizable(),
            "round {round}:\n{history}"
        );
    }
}

#[test]
fn strict_sharded_queue_histories_linearize_unrelaxed() {
    let spec = QueueSpec::new(4);
    for round in 0..120 {
        let queue: ShardedCsQueue<u32> = ShardedCsQueue::new(4, THREADS, ShardConfig::strict(2));
        let history = run_queue_round(&queue, round);
        assert!(
            check_linearizable(&spec, &history).is_linearizable(),
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
            check_relaxed_linearizable(&spec, &history).is_linearizable(),
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
            check_relaxed_linearizable(&spec, &history).is_linearizable(),
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
            check_relaxed_linearizable(&spec, &history).is_linearizable(),
            "round {round} exceeded k={}:\n{history}",
            stack.relaxation_bound()
        );
    }
}
