//! Exhaustive and seeded-random model exploration of the sharded
//! router.
//!
//! ```text
//! cargo test --features model,chaos --test model_shard
//! ```
//!
//! Each body runs once per explored schedule, from the top, with fresh
//! state (CONTRIBUTING.md, "Writing a model test"). Every counted
//! access of a *lane* operation is a scheduling decision, and so is
//! every hint the relaxed router reads: it steers by uncounted peeks
//! of the lanes' own registers, and a peek is a schedule point under
//! `model`. So the explorer interleaves other threads between a peek
//! and the probe it chose — a stale "nonempty", a stale "full" — as
//! well as through stealing, spilling, and split/merge. (The elastic
//! controller and the strict-order latch are plain `std` atomics and
//! run between those points.)
//!
//! The elastic cadence in these bodies is operation-count driven (no
//! wall-clock anywhere in the controller), so the split/merge history
//! is a deterministic function of the schedule — exactly what replay
//! needs.

use std::collections::BTreeSet;
use std::sync::Arc;

use cso::lincheck::checker::{check_linearizable, check_relaxed_linearizable};
use cso::lincheck::recorder::Recorder;
use cso::lincheck::specs::queue::{QueueSpec, SpecQueueOp, SpecQueueResp};
use cso::lincheck::specs::relaxed::KStackSpec;
use cso::lincheck::specs::stack::{SpecStackOp, SpecStackResp, StackSpec};
use cso::memory::runtime;
use cso::queue::{DequeueOutcome, EnqueueOutcome};
use cso::sched::{spawn, Explorer};
use cso::shard::{ShardConfig, ShardedCsQueue, ShardedCsStack};
use cso::stack::{PopOutcome, PushOutcome};
use cso::trace::audit::StepAuditor;

/// Theorem 1 per lane: six accesses for a solo stack op, seven for
/// the queue (the extra `CONTENTION` read of the opposite end).
const STACK_BUDGET: u64 = 6;
const QUEUE_BUDGET: u64 = 7;

#[test]
fn model_runtime_is_active() {
    assert_eq!(runtime::active_name(), "model");
}

/// The router adds **zero** counted accesses: solo sharded operations
/// under the model runtime stay exactly on the single-cell budgets, in
/// every mode (strict latch, relaxed probing, elastic contracted to
/// one lane).
#[test]
fn solo_sharded_ops_keep_the_cell_budgets_under_model() {
    for config in [
        ShardConfig::strict(2),
        ShardConfig::relaxed(2, 4),
        ShardConfig::relaxed(2, 4).with_elastic(),
    ] {
        let report = Explorer::exhaustive().explore(move || {
            let stack: ShardedCsStack<u32> = ShardedCsStack::new(8, 2, config);
            let auditor = StepAuditor::strict(STACK_BUDGET);
            assert!(matches!(
                auditor.audit(|| stack.push(0, 7)),
                PushOutcome::Pushed
            ));
            assert!(matches!(
                auditor.audit(|| stack.pop(0)),
                PopOutcome::Popped(7)
            ));
            assert!(auditor.report().clean());

            let queue: ShardedCsQueue<u32> = ShardedCsQueue::new(8, 2, config);
            let auditor = StepAuditor::strict(QUEUE_BUDGET);
            assert!(matches!(
                auditor.audit(|| queue.enqueue(0, 9)),
                EnqueueOutcome::Enqueued
            ));
            assert!(matches!(
                auditor.audit(|| queue.dequeue(0)),
                DequeueOutcome::Dequeued(9)
            ));
            assert!(auditor.report().clean());
        });
        report.assert_ok();
        assert_eq!(report.schedules, 1, "a solo body has exactly one schedule");
    }
}

/// Exhaustive 2-thread × 2-lane **strict** exploration: the ticket
/// latch serializes ordering decisions across lanes, so every
/// interleaving must satisfy the *unrelaxed* stack spec, conserve
/// values, and leave `len()` agreeing with the lanes.
#[test]
fn exhaustive_strict_two_lane_stack_linearizes() {
    let report = Explorer::exhaustive().explore(|| {
        let stack: Arc<ShardedCsStack<u32>> =
            Arc::new(ShardedCsStack::new(2, 2, ShardConfig::strict(2)));
        let recorder: Recorder<SpecStackOp, SpecStackResp> = Recorder::new();
        let child = {
            let stack = Arc::clone(&stack);
            let recorder = recorder.clone();
            spawn(move || {
                let mut got = Vec::new();
                let handle = recorder.begin(1, SpecStackOp::Push(2));
                match stack.push(1, 2) {
                    PushOutcome::Pushed => handle.finish(SpecStackResp::Pushed),
                    PushOutcome::Full => handle.finish(SpecStackResp::Full),
                }
                let handle = recorder.begin(1, SpecStackOp::Pop);
                match stack.pop(1) {
                    PopOutcome::Popped(v) => {
                        got.push(v);
                        handle.finish(SpecStackResp::Popped(v));
                    }
                    PopOutcome::Empty => handle.finish(SpecStackResp::Empty),
                }
                got
            })
        };
        let mut got = Vec::new();
        let handle = recorder.begin(0, SpecStackOp::Push(1));
        match stack.push(0, 1) {
            PushOutcome::Pushed => handle.finish(SpecStackResp::Pushed),
            PushOutcome::Full => handle.finish(SpecStackResp::Full),
        }
        let handle = recorder.begin(0, SpecStackOp::Pop);
        match stack.pop(0) {
            PopOutcome::Popped(v) => {
                got.push(v);
                handle.finish(SpecStackResp::Popped(v));
            }
            PopOutcome::Empty => handle.finish(SpecStackResp::Empty),
        }
        got.extend(child.join());

        while let PopOutcome::Popped(v) = stack.pop(0) {
            got.push(v);
        }
        let distinct: BTreeSet<u32> = got.iter().copied().collect();
        assert_eq!(got.len(), 2, "conservation: {got:?}");
        assert_eq!(distinct, BTreeSet::from([1, 2]), "conservation: {got:?}");

        // At quiescence `len()` must agree with lane ground truth
        // exactly.
        let lane_sum: usize = (0..stack.lanes()).map(|i| stack.lane(i).len()).sum();
        assert_eq!(stack.len(), lane_sum);
        assert_eq!(lane_sum, 0);

        let history = recorder.finish();
        assert!(
            check_linearizable(&StackSpec::new(2), &history).is_linearizable(),
            "non-linearizable history:\n{history}"
        );
    });
    report.assert_ok();
    assert!(report.exhausted, "{report}");
    assert!(report.schedules > 1, "two threads must branch: {report}");
}

/// Exhaustive 2-thread × 2-lane **elastic relaxed** exploration with
/// the most aggressive cadence (evaluate every op, no cooldown): the
/// active prefix flips between 1 and 2 *during* the ops, stealing
/// races the merges, and in every schedule the structure must conserve
/// values, keep a sane lane count, satisfy the k-spec at its
/// advertised bound, and leave `len()` equal to the lane sums.
#[test]
fn exhaustive_elastic_split_merge_with_stealing() {
    let report = Explorer::exhaustive().explore(|| {
        let stack: Arc<ShardedCsStack<u32>> = Arc::new(ShardedCsStack::new(
            4,
            2,
            ShardConfig::relaxed(2, 2)
                .with_elastic()
                .with_elastic_cadence(1, 0),
        ));
        let bound = stack.relaxation_bound();
        let capacity = stack.capacity();
        let recorder: Recorder<SpecStackOp, SpecStackResp> = Recorder::new();
        let child = {
            let stack = Arc::clone(&stack);
            let recorder = recorder.clone();
            spawn(move || {
                let mut got = Vec::new();
                let handle = recorder.begin(1, SpecStackOp::Push(2));
                match stack.push(1, 2) {
                    PushOutcome::Pushed => handle.finish(SpecStackResp::Pushed),
                    PushOutcome::Full => handle.finish(SpecStackResp::Full),
                }
                let handle = recorder.begin(1, SpecStackOp::Pop);
                match stack.pop(1) {
                    PopOutcome::Popped(v) => {
                        got.push(v);
                        handle.finish(SpecStackResp::Popped(v));
                    }
                    PopOutcome::Empty => handle.finish(SpecStackResp::Empty),
                }
                got
            })
        };
        let mut got = Vec::new();
        let handle = recorder.begin(0, SpecStackOp::Push(1));
        match stack.push(0, 1) {
            PushOutcome::Pushed => handle.finish(SpecStackResp::Pushed),
            PushOutcome::Full => handle.finish(SpecStackResp::Full),
        }
        let handle = recorder.begin(0, SpecStackOp::Pop);
        match stack.pop(0) {
            PopOutcome::Popped(v) => {
                got.push(v);
                handle.finish(SpecStackResp::Popped(v));
            }
            PopOutcome::Empty => handle.finish(SpecStackResp::Empty),
        }
        got.extend(child.join());

        // No lost lane: the active prefix stays in 1..=lanes, and
        // deactivated lanes still drain (pops probe all lanes).
        let active = stack.active_lanes();
        assert!(active >= 1 && active <= stack.lanes(), "active {active}");

        while let PopOutcome::Popped(v) = stack.pop(0) {
            got.push(v);
        }
        let distinct: BTreeSet<u32> = got.iter().copied().collect();
        assert_eq!(got.len(), 2, "conservation: {got:?}");
        assert_eq!(distinct, BTreeSet::from([1, 2]), "conservation: {got:?}");

        let lane_sum: usize = (0..stack.lanes()).map(|i| stack.lane(i).len()).sum();
        assert_eq!(stack.len(), lane_sum, "len() off the lanes");
        assert_eq!(lane_sum, 0, "values left stranded in a merged-away lane");

        let history = recorder.finish();
        assert!(
            check_relaxed_linearizable(&KStackSpec::new(capacity, bound), &history)
                .is_linearizable(),
            "history exceeded k={bound}:\n{history}"
        );
    });
    report.assert_ok();
    assert!(report.exhausted, "{report}");
    assert!(report.schedules > 1, "{report}");
}

/// Exhaustive 2-thread strict **queue** exploration: FIFO across two
/// lanes under the order journal.
#[test]
fn exhaustive_strict_two_lane_queue_linearizes() {
    let report = Explorer::exhaustive().explore(|| {
        let queue: Arc<ShardedCsQueue<u32>> =
            Arc::new(ShardedCsQueue::new(2, 2, ShardConfig::strict(2)));
        let recorder: Recorder<SpecQueueOp, SpecQueueResp> = Recorder::new();
        let child = {
            let queue = Arc::clone(&queue);
            let recorder = recorder.clone();
            spawn(move || {
                let mut got = Vec::new();
                let handle = recorder.begin(1, SpecQueueOp::Enqueue(2));
                match queue.enqueue(1, 2) {
                    EnqueueOutcome::Enqueued => handle.finish(SpecQueueResp::Enqueued),
                    EnqueueOutcome::Full => handle.finish(SpecQueueResp::Full),
                }
                let handle = recorder.begin(1, SpecQueueOp::Dequeue);
                match queue.dequeue(1) {
                    DequeueOutcome::Dequeued(v) => {
                        got.push(v);
                        handle.finish(SpecQueueResp::Dequeued(v));
                    }
                    DequeueOutcome::Empty => handle.finish(SpecQueueResp::Empty),
                }
                got
            })
        };
        let mut got = Vec::new();
        let handle = recorder.begin(0, SpecQueueOp::Enqueue(1));
        match queue.enqueue(0, 1) {
            EnqueueOutcome::Enqueued => handle.finish(SpecQueueResp::Enqueued),
            EnqueueOutcome::Full => handle.finish(SpecQueueResp::Full),
        }
        let handle = recorder.begin(0, SpecQueueOp::Dequeue);
        match queue.dequeue(0) {
            DequeueOutcome::Dequeued(v) => {
                got.push(v);
                handle.finish(SpecQueueResp::Dequeued(v));
            }
            DequeueOutcome::Empty => handle.finish(SpecQueueResp::Empty),
        }
        got.extend(child.join());
        while let DequeueOutcome::Dequeued(v) = queue.dequeue(0) {
            got.push(v);
        }
        let distinct: BTreeSet<u32> = got.iter().copied().collect();
        assert_eq!(got.len(), 2, "conservation: {got:?}");
        assert_eq!(distinct, BTreeSet::from([1, 2]), "conservation: {got:?}");

        let history = recorder.finish();
        assert!(
            check_linearizable(&QueueSpec::new(2), &history).is_linearizable(),
            "non-linearizable history:\n{history}"
        );
    });
    report.assert_ok();
    assert!(report.exhausted, "{report}");
    assert!(report.schedules > 1, "{report}");
}

/// A seeded-random 3-thread sweep beyond the exhaustive envelope:
/// elastic relaxed sharding with the aggressive cadence, checked
/// against the k-spec at the advertised bound. Failures print the
/// schedule seed and a replay trace.
#[test]
fn random_sweep_three_thread_elastic_shard_holds() {
    let report = Explorer::random(0x0005_AA4D_5EED, 150).explore(|| {
        let stack: Arc<ShardedCsStack<u32>> = Arc::new(ShardedCsStack::new(
            6,
            3,
            ShardConfig::relaxed(2, 2)
                .with_elastic()
                .with_elastic_cadence(2, 0),
        ));
        let bound = stack.relaxation_bound();
        let capacity = stack.capacity();
        let recorder: Recorder<SpecStackOp, SpecStackResp> = Recorder::new();
        let children: Vec<_> = (1..3usize)
            .map(|proc| {
                let stack = Arc::clone(&stack);
                let recorder = recorder.clone();
                spawn(move || {
                    let v = proc as u32;
                    let handle = recorder.begin(proc, SpecStackOp::Push(v));
                    match stack.push(proc, v) {
                        PushOutcome::Pushed => handle.finish(SpecStackResp::Pushed),
                        PushOutcome::Full => handle.finish(SpecStackResp::Full),
                    }
                    let handle = recorder.begin(proc, SpecStackOp::Pop);
                    match stack.pop(proc) {
                        PopOutcome::Popped(v) => handle.finish(SpecStackResp::Popped(v)),
                        PopOutcome::Empty => handle.finish(SpecStackResp::Empty),
                    }
                })
            })
            .collect();
        let handle = recorder.begin(0, SpecStackOp::Push(0));
        match stack.push(0, 0) {
            PushOutcome::Pushed => handle.finish(SpecStackResp::Pushed),
            PushOutcome::Full => handle.finish(SpecStackResp::Full),
        }
        for child in children {
            child.join();
        }

        // Quiescent audit: len() == lane ground truth.
        let lane_sum: usize = (0..stack.lanes()).map(|i| stack.lane(i).len()).sum();
        assert_eq!(stack.len(), lane_sum, "len() off the lanes");

        let history = recorder.finish();
        assert!(
            check_relaxed_linearizable(&KStackSpec::new(capacity, bound), &history)
                .is_linearizable(),
            "history exceeded k={bound}:\n{history}"
        );
    });
    report.assert_ok();
    assert_eq!(report.schedules, 150, "{report}");
}
