//! The contention-sensitive starvation-free queue (Figure-3
//! methodology).

use std::ops::Deref;
use std::time::Duration;

use cso_core::{ContentionSensitive, CsConfig, CsError, ProgressCondition};
use cso_locks::{RawLock, TasLock};
use cso_memory::bits::Bits32;

use crate::abortable::AbortableQueue;
use crate::outcome::{DequeueOutcome, EnqueueOutcome, QueueOp};

/// A **contention-sensitive, starvation-free bounded FIFO queue**:
/// the Figure 3 transformation instantiated for the queue.
///
/// A contention-free `enqueue`/`dequeue` takes the lock-free fast path
/// in **seven** shared-memory accesses (one `CONTENTION` read + the
/// six of a solo weak queue operation — one more than the stack
/// because a bounded queue checks the opposite end). Under contention
/// operations fall back to the §4.4-boosted lock, so every invocation
/// terminates with a non-⊥ value.
///
/// Because the weak enqueue and dequeue never abort each other, the
/// pairs the paper calls *non-interfering* (§1.1) almost always stay
/// on the fast path even when both ends are busy.
///
/// ```
/// use cso_queue::{CsQueue, EnqueueOutcome, DequeueOutcome};
///
/// let queue: CsQueue<u32> = CsQueue::new(16, 2);
/// assert_eq!(queue.enqueue(0, 10), EnqueueOutcome::Enqueued);
/// assert_eq!(queue.dequeue(1), DequeueOutcome::Dequeued(10));
/// assert_eq!(queue.dequeue(1), DequeueOutcome::Empty);
/// ```
#[derive(Debug)]
pub struct CsQueue<V: Bits32, L: RawLock = TasLock> {
    inner: ContentionSensitive<AbortableQueue<V>, L>,
}

impl<V: Bits32> CsQueue<V, TasLock> {
    /// Creates an empty queue of capacity `capacity` (a power of two
    /// at most 2¹⁵) for `n` processes with the default TAS lock.
    ///
    /// # Panics
    ///
    /// Panics on invalid capacities (see [`AbortableQueue::new`]) or
    /// if `n == 0`.
    #[must_use]
    pub fn new(capacity: usize, n: usize) -> CsQueue<V, TasLock> {
        CsQueue::with_lock(capacity, TasLock::new(), n)
    }
}

impl<V: Bits32, L: RawLock> CsQueue<V, L> {
    /// Creates an empty queue using `lock` (deadlock-free suffices)
    /// for the slow path.
    ///
    /// # Panics
    ///
    /// Panics on invalid capacities or if `n == 0`.
    #[must_use]
    pub fn with_lock(capacity: usize, lock: L, n: usize) -> CsQueue<V, L> {
        CsQueue::with_config(capacity, lock, n, CsConfig::PAPER)
    }

    /// Creates a queue with an explicit mechanism selection.
    ///
    /// # Panics
    ///
    /// Panics on invalid capacities or if `n == 0`.
    #[must_use]
    pub fn with_config(capacity: usize, lock: L, n: usize, config: CsConfig) -> CsQueue<V, L> {
        CsQueue {
            inner: ContentionSensitive::with_config(AbortableQueue::new(capacity), lock, n, config),
        }
    }

    /// The progress condition of this implementation.
    pub const PROGRESS: ProgressCondition = ProgressCondition::StarvationFree;

    /// Enqueues `value` on behalf of process `proc`; never returns ⊥.
    ///
    /// # Panics
    ///
    /// Panics if `proc >= n`.
    pub fn enqueue(&self, proc: usize, value: V) -> EnqueueOutcome {
        self.inner
            .apply(proc, &QueueOp::Enqueue(value))
            .expect_enqueue()
    }

    /// Dequeues on behalf of process `proc`; never returns ⊥.
    ///
    /// # Panics
    ///
    /// Panics if `proc >= n`.
    pub fn dequeue(&self, proc: usize) -> DequeueOutcome<V> {
        self.inner.apply(proc, &QueueOp::Dequeue).expect_dequeue()
    }

    /// Deadline-bounded [`CsQueue::enqueue`]: gives up with no effect
    /// if the slow-path lock stays unavailable for `timeout` (e.g.
    /// wedged by a crashed holder — the §5 failure mode).
    ///
    /// # Errors
    ///
    /// Returns [`CsError::TimedOut`] if the deadline expired first, or
    /// [`CsError::Unrecoverable`] if the crash-recovery succession
    /// budget is exhausted (see [`cso_core::RecoveryPolicy`]).
    ///
    /// # Panics
    ///
    /// Panics if `proc >= n`.
    pub fn try_enqueue_for(
        &self,
        proc: usize,
        value: V,
        timeout: Duration,
    ) -> Result<EnqueueOutcome, CsError> {
        self.inner
            .try_apply_for(proc, &QueueOp::Enqueue(value), timeout)
            .map(|resp| resp.expect_enqueue())
    }

    /// Deadline-bounded [`CsQueue::dequeue`]; see
    /// [`CsQueue::try_enqueue_for`].
    ///
    /// # Errors
    ///
    /// Returns [`CsError::TimedOut`] if the deadline expired first, or
    /// [`CsError::Unrecoverable`] if the crash-recovery succession
    /// budget is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `proc >= n`.
    pub fn try_dequeue_for(
        &self,
        proc: usize,
        timeout: Duration,
    ) -> Result<DequeueOutcome<V>, CsError> {
        self.inner
            .try_apply_for(proc, &QueueOp::Dequeue, timeout)
            .map(|resp| resp.expect_dequeue())
    }
}

impl<V: Bits32, L: RawLock> Deref for CsQueue<V, L> {
    type Target = ContentionSensitive<AbortableQueue<V>, L>;

    #[inline]
    fn deref(&self) -> &Self::Target {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cso_memory::counting::CountScope;
    use std::collections::HashSet;
    use std::sync::Arc;

    #[test]
    fn fifo_order_solo() {
        let queue: CsQueue<u32> = CsQueue::new(8, 2);
        for v in 1..=5 {
            assert_eq!(queue.enqueue(0, v), EnqueueOutcome::Enqueued);
        }
        for v in 1..=5 {
            assert_eq!(queue.dequeue(1), DequeueOutcome::Dequeued(v));
        }
        assert_eq!(queue.dequeue(0), DequeueOutcome::Empty);
    }

    #[test]
    fn solo_ops_are_exactly_seven_accesses() {
        let queue: CsQueue<u32> = CsQueue::new(64, 4);
        queue.enqueue(0, 1);
        let scope = CountScope::start();
        queue.enqueue(0, 2);
        assert_eq!(
            scope.take().total(),
            7,
            "CONTENTION read + 6-access weak enqueue"
        );
        let scope = CountScope::start();
        queue.dequeue(0);
        assert_eq!(
            scope.take().total(),
            7,
            "CONTENTION read + 6-access weak dequeue"
        );
        assert_eq!(queue.path_stats().locked, 0);
    }

    #[test]
    fn full_and_empty_solo() {
        let queue: CsQueue<u32> = CsQueue::new(1, 2);
        assert_eq!(queue.dequeue(0), DequeueOutcome::Empty);
        assert_eq!(queue.enqueue(0, 1), EnqueueOutcome::Enqueued);
        assert_eq!(queue.enqueue(0, 2), EnqueueOutcome::Full);
        assert_eq!(queue.dequeue(1), DequeueOutcome::Dequeued(1));
    }

    #[test]
    fn concurrent_strong_ops_conserve_values() {
        const THREADS: u32 = 4;
        const PER_THREAD: u32 = 1_500;
        let queue: Arc<CsQueue<u32>> = Arc::new(CsQueue::new(8192, THREADS as usize));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    for i in 0..PER_THREAD {
                        assert_eq!(
                            queue.enqueue(t as usize, t * PER_THREAD + i),
                            EnqueueOutcome::Enqueued
                        );
                        if let DequeueOutcome::Dequeued(v) = queue.dequeue(t as usize) {
                            got.push(v);
                        }
                    }
                    got
                })
            })
            .collect();
        let mut all: Vec<u32> = Vec::new();
        for h in handles {
            all.extend(h.join().unwrap());
        }
        while let DequeueOutcome::Dequeued(v) = queue.dequeue(0) {
            all.push(v);
        }
        assert_eq!(all.len(), (THREADS * PER_THREAD) as usize);
        assert_eq!(all.iter().collect::<HashSet<_>>().len(), all.len());
    }

    /// `len()` pairs `TAIL` with a `HEAD` of the same instant: a reader
    /// racing two workers never sees more than the capacity. (A `TAIL`
    /// read before a stale `HEAD` wraps the 16-bit difference once
    /// dequeues pass it; `tests/model_explore.rs` finds that schedule
    /// deterministically, this is the wall-clock version.)
    #[test]
    fn len_never_exceeds_capacity_under_a_race() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        const CAPACITY: usize = 64;
        const PER_WORKER: u32 = 200_000;
        let queue: CsQueue<u32> = CsQueue::new(CAPACITY, 2);
        let running = AtomicUsize::new(2);
        std::thread::scope(|s| {
            for proc in 0..2 {
                let (queue, running) = (&queue, &running);
                s.spawn(move || {
                    for i in 0..PER_WORKER {
                        let _ = queue.enqueue(proc, i);
                        if i % 3 != 0 {
                            let _ = queue.dequeue(proc);
                        } else if i % 96 == 0 {
                            while queue.dequeue(proc).is_dequeued() {}
                        }
                    }
                    running.fetch_sub(1, Ordering::SeqCst);
                });
            }
            s.spawn(|| {
                while running.load(Ordering::SeqCst) > 0 {
                    for len in [queue.len(), queue.peek_len()] {
                        assert!(len <= CAPACITY, "len() read {len} of {CAPACITY}");
                    }
                }
            });
        });
    }

    #[test]
    fn ablation_configs_remain_correct() {
        for config in [CsConfig::PAPER, CsConfig::UNFAIR] {
            let queue: CsQueue<u32> = CsQueue::with_config(8, TasLock::new(), 2, config);
            assert_eq!(queue.enqueue(0, 1), EnqueueOutcome::Enqueued);
            assert_eq!(queue.dequeue(1), DequeueOutcome::Dequeued(1));
        }
    }

    /// Forced-slow combining on the queue: tenure accounting holds.
    #[test]
    fn combining_slow_path_conserves_and_reports_batches() {
        const THREADS: u32 = 3;
        const PER_THREAD: u32 = 1_000;
        let config = CsConfig::PAPER.without_fast_path().with_combining();
        let queue: Arc<CsQueue<u32>> = Arc::new(CsQueue::with_config(
            4096,
            TasLock::new(),
            THREADS as usize,
            config,
        ));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        assert_eq!(
                            queue.enqueue(t as usize, t * PER_THREAD + i),
                            EnqueueOutcome::Enqueued
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut seen = HashSet::new();
        while let DequeueOutcome::Dequeued(v) = queue.dequeue(0) {
            assert!(seen.insert(v), "duplicate value {v}");
        }
        assert_eq!(seen.len(), (THREADS * PER_THREAD) as usize);

        let paths = queue.path_stats();
        let combining = queue.combining_stats();
        assert_eq!(paths.fast, 0, "fast path disabled");
        assert_eq!(combining.batches + combining.combined, paths.locked);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_proc() {
        let queue: CsQueue<u32> = CsQueue::new(8, 2);
        let _ = queue.enqueue(2, 1);
    }
}
