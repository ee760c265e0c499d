//! The public surface of the object types a client names: `CsStack`,
//! `CsQueue`, `CsDeque` (Figure 3), `NonBlockingStack`,
//! `NonBlockingQueue`, `HlmDeque` and the generic `NonBlocking`
//! (Figure 2), `ShardedCsStack` and `ShardedCsQueue`. Every public
//! method and associated const is called here once, through plain
//! method syntax and with its return type spelled out, so a refactor
//! that moves an accessor (onto the generic transformation, or the
//! shared router) must keep it reachable under the same name and type
//! — or this file stops compiling.

use std::sync::Arc;
use std::time::Duration;

use cso::core::{
    AdaptiveGate, CombiningStats, CsConfig, CsError, FaultStats, Liveness, NonBlocking, PathStats,
    ProgressCondition, RecoveryPolicy, RecoveryStats,
};
use cso::deque::{
    AbortableDeque, CsDeque, DequeOp, DequePopOutcome, DequePushOutcome, End, HlmDeque,
};
use cso::locks::{TasLock, TicketLock};
use cso::queue::{CsQueue, DequeueOutcome, EnqueueOutcome, NonBlockingQueue, QueueAbortStats};
use cso::shard::{RouterStats, ShardConfig, ShardedCsQueue, ShardedCsStack};
use cso::stack::{
    AbortStats, AbortableStack, CsStack, NonBlockingStack, PopOutcome, PushOutcome, StackOp,
};
use cso::trace::Registry;

const TIMEOUT: Duration = Duration::from_secs(5);

fn recovering() -> CsConfig {
    CsConfig::PAPER.with_recovery(RecoveryPolicy::DEFAULT)
}

#[test]
fn cs_stack_surface() {
    let progress: ProgressCondition = CsStack::<u32>::PROGRESS;
    assert_eq!(progress, ProgressCondition::StarvationFree);
    assert_eq!(
        CsStack::<u32, TicketLock>::PROGRESS,
        ProgressCondition::StarvationFree
    );

    let stack: CsStack<u32> = CsStack::new(8, 2);
    let _: CsStack<u32, TicketLock> = CsStack::with_lock(8, TicketLock::new(), 2);
    let recovering: CsStack<u32> = CsStack::with_config(8, TasLock::new(), 2, recovering());

    assert_eq!(stack.push(0, 1), PushOutcome::Pushed);
    assert_eq!(stack.pop(1), PopOutcome::Popped(1));
    let pushed: Result<PushOutcome, CsError> = stack.try_push_for(0, 2, TIMEOUT);
    assert_eq!(pushed, Ok(PushOutcome::Pushed));
    let popped: Result<PopOutcome<u32>, CsError> = stack.try_pop_for(1, TIMEOUT);
    assert_eq!(popped, Ok(PopOutcome::Popped(2)));
    stack.push(0, 3);

    let capacity: usize = stack.capacity();
    let len: usize = stack.len();
    let empty: bool = stack.is_empty();
    let peek: usize = stack.peek_len();
    let n: usize = stack.n();
    assert_eq!((capacity, len, empty, peek, n), (8, 1, false, 1, 2));

    let paths: PathStats = stack.path_stats();
    assert_eq!(paths.total(), 5);
    let pairs: u64 = stack.eliminated_pairs();
    assert_eq!(pairs, 0);
    let aborts: AbortStats = stack.abort_stats();
    assert_eq!(aborts.push_aborts + aborts.pop_aborts, 0);
    let faults: FaultStats = stack.fault_stats();
    assert_eq!(faults, FaultStats::default());
    let combining: CombiningStats = stack.combining_stats();
    assert_eq!(combining.batches, 0);
    let gate: &AdaptiveGate = stack.gate();
    assert!(!gate.engaged());
    let poisoned: bool = stack.is_poisoned();
    assert!(!poisoned);
    let recovery: Option<RecoveryStats> = stack.recovery_stats();
    assert!(recovery.is_none());
    assert!(recovering.recovery_stats().is_some());
    let liveness: Option<&Arc<Liveness>> = stack.liveness();
    assert!(liveness.is_none());
    assert_eq!(recovering.liveness().map(|live| live.n()), Some(2));

    stack.reset_path_stats();
    assert_eq!(stack.path_stats().total(), 0);
    let registry = Registry::new();
    stack.attach_metrics(&registry, "api_stack");
}

#[test]
fn cs_queue_surface() {
    let progress: ProgressCondition = CsQueue::<u32>::PROGRESS;
    assert_eq!(progress, ProgressCondition::StarvationFree);

    let queue: CsQueue<u32> = CsQueue::new(8, 2);
    let _: CsQueue<u32, TicketLock> = CsQueue::with_lock(8, TicketLock::new(), 2);
    let recovering: CsQueue<u32> = CsQueue::with_config(8, TasLock::new(), 2, recovering());

    assert_eq!(queue.enqueue(0, 1), EnqueueOutcome::Enqueued);
    assert_eq!(queue.dequeue(1), DequeueOutcome::Dequeued(1));
    let enqueued: Result<EnqueueOutcome, CsError> = queue.try_enqueue_for(0, 2, TIMEOUT);
    assert_eq!(enqueued, Ok(EnqueueOutcome::Enqueued));
    let dequeued: Result<DequeueOutcome<u32>, CsError> = queue.try_dequeue_for(1, TIMEOUT);
    assert_eq!(dequeued, Ok(DequeueOutcome::Dequeued(2)));
    queue.enqueue(0, 3);

    let capacity: usize = queue.capacity();
    let len: usize = queue.len();
    let empty: bool = queue.is_empty();
    let peek: usize = queue.peek_len();
    let n: usize = queue.n();
    assert_eq!((capacity, len, empty, peek, n), (8, 1, false, 1, 2));

    let paths: PathStats = queue.path_stats();
    assert_eq!(paths.total(), 5);
    let aborts: QueueAbortStats = queue.abort_stats();
    assert_eq!(aborts.enq_aborts + aborts.deq_aborts, 0);
    let faults: FaultStats = queue.fault_stats();
    assert_eq!(faults, FaultStats::default());
    let combining: CombiningStats = queue.combining_stats();
    assert_eq!(combining.batches, 0);
    let gate: &AdaptiveGate = queue.gate();
    assert!(!gate.engaged());
    let poisoned: bool = queue.is_poisoned();
    assert!(!poisoned);
    let recovery: Option<RecoveryStats> = queue.recovery_stats();
    assert!(recovery.is_none());
    assert!(recovering.recovery_stats().is_some());
    let liveness: Option<&Arc<Liveness>> = queue.liveness();
    assert!(liveness.is_none());
    assert_eq!(recovering.liveness().map(|live| live.n()), Some(2));

    queue.reset_path_stats();
    assert_eq!(queue.path_stats().total(), 0);
    let registry = Registry::new();
    queue.attach_metrics(&registry, "api_queue");
}

#[test]
fn cs_deque_surface() {
    let progress: ProgressCondition = CsDeque::<u32>::PROGRESS;
    assert_eq!(progress, ProgressCondition::StarvationFree);

    let deque: CsDeque<u32> = CsDeque::new(8, 2);
    let _: CsDeque<u32, TicketLock> = CsDeque::with_lock(8, TicketLock::new(), 2);
    let recovering: CsDeque<u32> = CsDeque::with_config(8, TasLock::new(), 2, recovering());

    assert_eq!(deque.push(0, End::Left, 1), DequePushOutcome::Pushed);
    assert_eq!(deque.pop(1, End::Left), DequePopOutcome::Popped(1));
    assert_eq!(deque.push_left(0, 2), DequePushOutcome::Pushed);
    assert_eq!(deque.push_right(1, 3), DequePushOutcome::Pushed);
    assert_eq!(deque.pop_left(0), DequePopOutcome::Popped(2));
    assert_eq!(deque.pop_right(1), DequePopOutcome::Popped(3));
    deque.push_right(0, 4);

    let capacity: usize = deque.capacity();
    let len: usize = deque.len();
    let empty: bool = deque.is_empty();
    let n: usize = deque.n();
    assert_eq!((capacity, len, empty, n), (8, 1, false, 2));

    let paths: PathStats = deque.path_stats();
    assert_eq!(paths.total(), 7);
    let faults: FaultStats = deque.fault_stats();
    assert_eq!(faults, FaultStats::default());
    let combining: CombiningStats = deque.combining_stats();
    assert_eq!(combining.batches, 0);
    let gate: &AdaptiveGate = deque.gate();
    assert!(!gate.engaged());
    let poisoned: bool = deque.is_poisoned();
    assert!(!poisoned);
    let recovery: Option<RecoveryStats> = deque.recovery_stats();
    assert!(recovery.is_none());
    assert!(recovering.recovery_stats().is_some());
    let liveness: Option<&Arc<Liveness>> = deque.liveness();
    assert!(liveness.is_none());
    assert_eq!(recovering.liveness().map(|live| live.n()), Some(2));

    let registry = Registry::new();
    deque.attach_metrics(&registry, "api_deque");
}

#[test]
fn non_blocking_stack_surface() {
    let progress: ProgressCondition = NonBlockingStack::<u32>::PROGRESS;
    assert_eq!(progress, ProgressCondition::NonBlocking);

    let stack: NonBlockingStack<u32> = NonBlockingStack::new(8);

    assert_eq!(stack.push(1), PushOutcome::Pushed);
    assert_eq!(stack.pop(), PopOutcome::Popped(1));
    stack.push(2);

    let capacity: usize = stack.capacity();
    let len: usize = stack.len();
    let empty: bool = stack.is_empty();
    assert_eq!((capacity, len, empty), (8, 1, false));
    let aborts: AbortStats = stack.abort_stats();
    assert_eq!(aborts.push_attempts + aborts.pop_attempts, 3);
    let weak: &cso::stack::AbortableStack<u32> = stack.as_abortable();
    assert_eq!(weak.len(), 1);
}

#[test]
fn non_blocking_queue_surface() {
    let progress: ProgressCondition = NonBlockingQueue::<u32>::PROGRESS;
    assert_eq!(progress, ProgressCondition::NonBlocking);

    let queue: NonBlockingQueue<u32> = NonBlockingQueue::new(8);

    assert_eq!(queue.enqueue(1), EnqueueOutcome::Enqueued);
    assert_eq!(queue.dequeue(), DequeueOutcome::Dequeued(1));
    queue.enqueue(2);

    let capacity: usize = queue.capacity();
    let len: usize = queue.len();
    let empty: bool = queue.is_empty();
    assert_eq!((capacity, len, empty), (8, 1, false));
    let aborts: QueueAbortStats = queue.abort_stats();
    assert_eq!(aborts.enq_attempts + aborts.deq_attempts, 3);
    let weak: &cso::queue::AbortableQueue<u32> = queue.as_abortable();
    assert_eq!(weak.len(), 1);
}

#[test]
fn hlm_deque_surface() {
    let progress: ProgressCondition = HlmDeque::<u32>::PROGRESS;
    assert_eq!(progress, ProgressCondition::ObstructionFree);

    let deque: HlmDeque<u32> = HlmDeque::new(8);
    assert_eq!(deque.push(End::Left, 1), DequePushOutcome::Pushed);
    assert_eq!(deque.push(End::Right, 2), DequePushOutcome::Pushed);
    assert_eq!(deque.pop(End::Left), DequePopOutcome::Popped(1));
    assert_eq!(deque.pop(End::Right), DequePopOutcome::Popped(2));
    deque.push(End::Right, 3);

    // The Figure 2 loop, then the abortable deque, through `Deref`.
    let looped: &NonBlocking<AbortableDeque<u32>> = &deque;
    let pushed: DequePushOutcome = looped.apply(&DequeOp::Push(End::Left, 4)).expect_push();
    assert_eq!(pushed, DequePushOutcome::Pushed);
    let capacity: usize = deque.capacity();
    let len: usize = deque.len();
    let empty: bool = deque.is_empty();
    assert_eq!((capacity, len, empty), (8, 2, false));
    let (attempts, aborts): (u64, u64) = deque.abort_counts();
    assert_eq!((attempts, aborts), (6, 0));
    let weak: &AbortableDeque<u32> = deque.as_abortable();
    assert_eq!(weak.try_pop(End::Left), Ok(DequePopOutcome::Popped(4)));
}

#[test]
fn non_blocking_surface() {
    let progress: ProgressCondition = NonBlocking::<AbortableStack<u32>>::PROGRESS;
    assert_eq!(progress, ProgressCondition::NonBlocking);

    let nb: NonBlocking<AbortableStack<u32>> = NonBlocking::new(AbortableStack::new(8));
    assert_eq!(
        nb.apply(&StackOp::Push(1)).expect_push(),
        PushOutcome::Pushed
    );
    assert_eq!(nb.apply(&StackOp::Pop).expect_pop(), PopOutcome::Popped(1));
    nb.apply(&StackOp::Push(2));

    // The wrapped object's own accessors, through `Deref`.
    let weak: &AbortableStack<u32> = &nb;
    assert_eq!(
        (weak.capacity(), weak.len(), weak.is_empty()),
        (8, 1, false)
    );
    let aborts: AbortStats = nb.abort_stats();
    assert_eq!(aborts.push_attempts + aborts.pop_attempts, 3);
}

#[test]
fn sharded_stack_surface() {
    let stack: ShardedCsStack<u32> = ShardedCsStack::new(16, 4, ShardConfig::relaxed(2, 8));
    let _default_value: ShardedCsStack = ShardedCsStack::new(16, 4, ShardConfig::strict(2));
    let elastic: ShardedCsStack<u32> =
        ShardedCsStack::new(16, 4, ShardConfig::relaxed(2, 8).with_elastic());

    assert_eq!(stack.push(0, 1), PushOutcome::Pushed);
    assert_eq!(stack.pop(0), PopOutcome::Popped(1));
    stack.push(1, 2);

    let capacity: usize = stack.capacity();
    let len: usize = stack.len();
    let empty: bool = stack.is_empty();
    let occupancy: usize = stack.occupancy(1);
    let n: usize = stack.n();
    let lanes: usize = stack.lanes();
    assert_eq!(
        (capacity, len, empty, occupancy, n, lanes),
        (16, 1, false, 1, 4, 2)
    );
    let active: usize = stack.active_lanes();
    assert_eq!(active, 2);
    let bound: usize = stack.relaxation_bound();
    assert_eq!(bound, 8);
    let router: RouterStats = stack.router_stats();
    assert_eq!((router.pushes, router.pops), (2, 1));
    let lane: &CsStack<u32, TasLock> = stack.lane(1);
    assert_eq!(lane.len(), 1);
    let enabled: bool = stack.elastic_enabled();
    assert!(!enabled);
    assert!(elastic.elastic_enabled());

    let registry = Registry::new();
    stack.attach_metrics(&registry, "api_sharded_stack");
    let shown = format!("{stack:?}");
    assert!(
        shown.contains("lanes: 2") && shown.contains("len: 1"),
        "{shown}"
    );
}

#[test]
fn sharded_queue_surface() {
    let queue: ShardedCsQueue<u32> = ShardedCsQueue::new(16, 4, ShardConfig::relaxed(2, 8));
    let _default_value: ShardedCsQueue = ShardedCsQueue::new(16, 4, ShardConfig::strict(2));
    let elastic: ShardedCsQueue<u32> =
        ShardedCsQueue::new(16, 4, ShardConfig::relaxed(2, 8).with_elastic());

    assert_eq!(queue.enqueue(0, 1), EnqueueOutcome::Enqueued);
    assert_eq!(queue.dequeue(0), DequeueOutcome::Dequeued(1));
    queue.enqueue(1, 2);

    let capacity: usize = queue.capacity();
    let len: usize = queue.len();
    let empty: bool = queue.is_empty();
    let occupancy: usize = queue.occupancy(1);
    let n: usize = queue.n();
    let lanes: usize = queue.lanes();
    assert_eq!(
        (capacity, len, empty, occupancy, n, lanes),
        (16, 1, false, 1, 4, 2)
    );
    let active: usize = queue.active_lanes();
    assert_eq!(active, 2);
    let bound: usize = queue.relaxation_bound();
    assert_eq!(bound, 8);
    let router: RouterStats = queue.router_stats();
    assert_eq!((router.pushes, router.pops), (2, 1));
    let lane: &CsQueue<u32, TasLock> = queue.lane(1);
    assert_eq!(lane.len(), 1);
    let enabled: bool = queue.elastic_enabled();
    assert!(!enabled);
    assert!(elastic.elastic_enabled());

    let registry = Registry::new();
    queue.attach_metrics(&registry, "api_sharded_queue");
    let shown = format!("{queue:?}");
    assert!(
        shown.contains("lanes: 2") && shown.contains("len: 1"),
        "{shown}"
    );
}
