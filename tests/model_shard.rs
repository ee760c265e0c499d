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
//! every hint the router reads: it steers by uncounted peeks of the
//! lanes' own registers, and a peek is a schedule point under `model`.
//! So the explorer interleaves other threads between a peek and the
//! probe it chose — a stale "nonempty", a stale "full" — as well as
//! through stealing, spilling, and split/merge. `ShardConfig::strict`
//! is one lane with nothing in front of it, so its bodies explore the
//! cell's own interleavings — every one of them. (The elastic
//! evaluation folds plain `std` statistics cells and runs between
//! those points.)
//!
//! The elastic cadence in these bodies is operation-count driven (no
//! wall-clock anywhere in the controller), so the split/merge history
//! is a deterministic function of the schedule — exactly what replay
//! needs.
//!
//! The exhaustive bodies' schedule counts, and the elastic body's split
//! of them, are pinned ([`assert_pinned`]): they are a function of the
//! program the explorer sees, so a change to the router's peek and
//! probe sequence that leaves them alone left that program alone.

mod model_support;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use cso::lincheck::checker::check_linearizable;
use cso::lincheck::recorder::Recorder;
use cso::lincheck::specs::relaxed::KStackSpec;
use cso::memory::runtime;
use cso::queue::{QueueOp, QueueResponse, SeqQueue};
use cso::sched::{Explorer, Report};
use cso::shard::{ShardConfig, ShardedCsQueue, ShardedCsStack};
use cso::stack::{PopOutcome, SeqStack, StackOp, StackResponse};

use model_support::{assert_exhausted, assert_swept, run_scripts, scripted_body, settle, Apply};

/// Theorem 1 per lane: six accesses for a solo stack op, seven for
/// the queue (the extra `CONTENTION` read of the opposite end).
const STACK_BUDGET: u64 = 6;
const QUEUE_BUDGET: u64 = 7;

fn stack_apply(stack: &Arc<ShardedCsStack<u32>>) -> Apply<SeqStack<u32>> {
    let stack = Arc::clone(stack);
    Arc::new(move |proc, op| {
        Some(match *op {
            StackOp::Push(v) => StackResponse::Push(stack.push(proc, v)),
            StackOp::Pop => StackResponse::Pop(stack.pop(proc)),
        })
    })
}

fn queue_apply(queue: &Arc<ShardedCsQueue<u32>>) -> Apply<SeqQueue<u32>> {
    let queue = Arc::clone(queue);
    Arc::new(move |proc, op| {
        Some(match *op {
            QueueOp::Enqueue(v) => QueueResponse::Enqueue(queue.enqueue(proc, v)),
            QueueOp::Dequeue => QueueResponse::Dequeue(queue.dequeue(proc)),
        })
    })
}

/// Why a pinned count may move, and what moving it takes.
const PINNED: &str = "a change to the router's peek and probe sequence (or to a lane's \
     counted accesses) moves this number: the change that moves it must say why, and re-pin it";

/// An exhaustive body that ran dry in exactly `schedules` schedules.
fn assert_pinned(name: &str, report: &Report, schedules: usize) {
    assert_exhausted(name, report);
    assert_eq!(report.schedules, schedules, "{name}: {PINNED}\n{report}");
}

/// At quiescence `len()` must agree with lane ground truth exactly.
fn assert_len_is_the_lane_sum(stack: &ShardedCsStack<u32>) -> usize {
    let lane_sum: usize = (0..stack.lanes()).map(|i| stack.lane(i).len()).sum();
    assert_eq!(stack.len(), lane_sum, "len() off the lanes");
    lane_sum
}

/// One execution of an elastic relaxed stack: the scripts, a drain
/// inside the history if `drain`, the quiescent audit, and the k-spec
/// at the advertised bound.
fn relaxed_body(stack: &Arc<ShardedCsStack<u32>>, scripts: &[Vec<StackOp<u32>>], drain: bool) {
    let spec = KStackSpec::new(stack.capacity(), stack.relaxation_bound());
    let recorder = Recorder::new();
    let apply = stack_apply(stack);
    run_scripts(&recorder, scripts.to_vec(), Arc::clone(&apply));
    // No lost lane: the active prefix stays in 1..=lanes, and
    // deactivated lanes still drain (pops probe all lanes).
    let active = stack.active_lanes();
    assert!(active >= 1 && active <= stack.lanes(), "active {active}");
    if drain {
        let empty = StackResponse::Pop(PopOutcome::Empty);
        settle(&recorder, &*apply, StackOp::Pop, &empty);
        assert_eq!(
            assert_len_is_the_lane_sum(stack),
            0,
            "values left stranded in a merged-away lane"
        );
    } else {
        assert_len_is_the_lane_sum(stack);
    }
    let history = recorder.finish();
    assert!(
        check_linearizable(&spec, &history).is_linearizable(),
        "history exceeded k={}:\n{history}",
        spec.k()
    );
}

#[test]
fn model_runtime_is_active() {
    assert_eq!(runtime::active_name(), "model");
}

/// The router adds **zero** counted accesses: solo sharded operations
/// under the model runtime stay exactly on the single-cell budgets, in
/// every configuration (the one strict lane, relaxed probing, elastic
/// contracted to one lane).
#[test]
fn solo_sharded_ops_keep_the_cell_budgets_under_model() {
    for config in [
        ShardConfig::strict(2),
        ShardConfig::relaxed(2, 4),
        ShardConfig::relaxed(2, 4).with_elastic(),
    ] {
        let report = Explorer::exhaustive().explore(move || {
            let stack = Arc::new(ShardedCsStack::new(8, 2, config));
            let script = [vec![StackOp::Push(7), StackOp::Pop]];
            let notes = scripted_body(stack_apply(&stack), SeqStack::new(8), &[], &script);
            assert!(
                notes.iter().all(|n| n.accesses == STACK_BUDGET),
                "{notes:?}"
            );
            let queue = Arc::new(ShardedCsQueue::new(8, 2, config));
            let script = [vec![QueueOp::Enqueue(9), QueueOp::Dequeue]];
            let notes = scripted_body(queue_apply(&queue), SeqQueue::new(8), &[], &script);
            assert!(
                notes.iter().all(|n| n.accesses == QUEUE_BUDGET),
                "{notes:?}"
            );
        });
        assert_exhausted(
            "solo_sharded_ops_keep_the_cell_budgets_under_model",
            &report,
        );
        assert_eq!(report.schedules, 1, "a solo body has exactly one schedule");
    }
}

/// Exhaustive 2-thread **strict** exploration: asked for two lanes,
/// exact order is one cell, so every interleaving of the cell's own
/// accesses and the router's peeks must satisfy the *unrelaxed* stack
/// spec — drain included — and leave `len()` agreeing with the lane.
#[test]
fn exhaustive_strict_stack_linearizes() {
    let report = Explorer::exhaustive().explore(|| {
        let stack = Arc::new(ShardedCsStack::new(2, 2, ShardConfig::strict(2)));
        assert_eq!(stack.relaxation_bound(), 0);
        let scripts = [
            vec![StackOp::Push(1), StackOp::Pop],
            vec![StackOp::Push(2), StackOp::Pop],
        ];
        scripted_body(stack_apply(&stack), SeqStack::new(2), &[], &scripts);
        assert_eq!(assert_len_is_the_lane_sum(&stack), 0);
    });
    assert_pinned("exhaustive_strict_stack_linearizes", &report, 273);
}

/// Exhaustive 2-thread × 2-lane **elastic relaxed** exploration with
/// the most aggressive cadence that can see two writers (evaluate
/// every second op of a thread, no cooldown): the active prefix flips
/// between 1 and 2 *during* the ops, stealing races the merges, and in
/// every schedule the structure must conserve values (the drain is part
/// of the history), keep a sane lane count, satisfy the k-spec at its
/// advertised bound, and leave `len()` equal to the lane sums. Every
/// outcome is required to occur, in a pinned number of schedules —
/// threads that collided in lane 0 and were fanned out, fanned-out
/// lanes folded back, threads that did not collide and stayed at one
/// lane — so the body cannot silently explore a controller that never
/// moves.
#[test]
fn exhaustive_elastic_split_merge_with_stealing() {
    use StackOp::{Pop, Push};
    static FANNED_OUT: AtomicUsize = AtomicUsize::new(0);
    static FOLDED_BACK: AtomicUsize = AtomicUsize::new(0);
    static STAYED: AtomicUsize = AtomicUsize::new(0);
    let report = Explorer::exhaustive().explore(|| {
        let config = ShardConfig::relaxed(2, 2)
            .with_elastic()
            .with_elastic_cadence(2, 0);
        let stack = Arc::new(ShardedCsStack::new(4, 2, config));
        // Thread 0 evaluates at its second push: mid-race, with thread
        // 1's operations on either side of the decision. Its second
        // pop — the drain's — evaluates again, alone by then.
        let scripts = [vec![Push(1), Push(3), Pop], vec![Push(2), Pop]];
        relaxed_body(&stack, &scripts, true);
        let stats = stack.router_stats();
        for (count, moved) in [
            (&FANNED_OUT, stats.splits > 0),
            (&FOLDED_BACK, stats.merges > 0),
            (&STAYED, stats.splits == 0),
        ] {
            count.fetch_add(usize::from(moved), Ordering::Relaxed);
        }
    });
    let [fanned_out, folded_back, stayed] =
        [&FANNED_OUT, &FOLDED_BACK, &STAYED].map(|count| count.load(Ordering::Relaxed));
    println!(
        "exhaustive_elastic_split_merge_with_stealing: {fanned_out} schedule(s) fanned out, \
         {folded_back} folded back, {stayed} stayed at one lane"
    );
    assert_pinned("exhaustive_elastic_split_merge_with_stealing", &report, 417);
    assert_eq!(
        (fanned_out, folded_back, stayed),
        (245, 10, 172),
        "fanned out / folded back / stayed: {PINNED}"
    );
}

/// Exhaustive 2-thread strict **queue** exploration: exact FIFO from
/// the one cell, against the unrelaxed spec.
#[test]
fn exhaustive_strict_queue_linearizes() {
    let report = Explorer::exhaustive().explore(|| {
        let queue = Arc::new(ShardedCsQueue::new(2, 2, ShardConfig::strict(2)));
        let scripts = [
            vec![QueueOp::Enqueue(1), QueueOp::Dequeue],
            vec![QueueOp::Enqueue(2), QueueOp::Dequeue],
        ];
        scripted_body(queue_apply(&queue), SeqQueue::new(2), &[], &scripts);
    });
    assert_pinned("exhaustive_strict_queue_linearizes", &report, 421);
}

/// A seeded-random 3-thread sweep beyond the exhaustive envelope:
/// elastic relaxed sharding with the aggressive cadence, checked
/// against the k-spec at the advertised bound. Failures print the
/// schedule seed and a replay trace.
#[test]
fn random_sweep_three_thread_elastic_shard_holds() {
    use StackOp::{Pop, Push};
    let report = Explorer::random(0x0005_AA4D_5EED, 150).explore(|| {
        let config = ShardConfig::relaxed(2, 2)
            .with_elastic()
            .with_elastic_cadence(2, 0);
        relaxed_body(
            &Arc::new(ShardedCsStack::new(6, 3, config)),
            &[vec![Push(0)], vec![Push(1), Pop], vec![Push(2), Pop]],
            false,
        );
    });
    assert_swept(
        "random_sweep_three_thread_elastic_shard_holds",
        &report,
        150,
    );
}
