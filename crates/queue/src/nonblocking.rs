//! The non-blocking queue (Figure-2 methodology).

use std::ops::Deref;

use cso_core::{NonBlocking, ProgressCondition};
use cso_memory::bits::Bits32;

use crate::abortable::AbortableQueue;
use crate::outcome::{DequeueOutcome, EnqueueOutcome, QueueOp};

/// A **non-blocking bounded FIFO queue**: an [`AbortableQueue`] whose
/// operations are retried until they return a non-⊥ value — the exact
/// Figure 2 transformation, instantiated for the queue.
///
/// No operation ever returns ⊥; at least one concurrent operation
/// always terminates. The object's accessors (`capacity`, `len`,
/// `abort_stats`, …) are [`AbortableQueue`]'s, reached through `Deref`.
///
/// ```
/// use cso_queue::{NonBlockingQueue, EnqueueOutcome, DequeueOutcome};
///
/// let queue: NonBlockingQueue<u32> = NonBlockingQueue::new(16);
/// assert_eq!(queue.enqueue(1), EnqueueOutcome::Enqueued);
/// assert_eq!(queue.enqueue(2), EnqueueOutcome::Enqueued);
/// assert_eq!(queue.dequeue(), DequeueOutcome::Dequeued(1));
/// ```
#[derive(Debug)]
pub struct NonBlockingQueue<V: Bits32> {
    inner: NonBlocking<AbortableQueue<V>>,
}

impl<V: Bits32> NonBlockingQueue<V> {
    /// Creates an empty queue of capacity `capacity` (a power of two
    /// at most 2¹⁵) with immediate retries.
    ///
    /// # Panics
    ///
    /// Panics on invalid capacities (see [`AbortableQueue::new`]).
    #[must_use]
    pub fn new(capacity: usize) -> NonBlockingQueue<V> {
        NonBlockingQueue {
            inner: NonBlocking::new(AbortableQueue::new(capacity)),
        }
    }

    /// The progress condition of this implementation.
    pub const PROGRESS: ProgressCondition = ProgressCondition::NonBlocking;

    /// Enqueues `value`; never returns ⊥.
    pub fn enqueue(&self, value: V) -> EnqueueOutcome {
        self.inner.apply(&QueueOp::Enqueue(value)).expect_enqueue()
    }

    /// Dequeues the front value; never returns ⊥.
    pub fn dequeue(&self) -> DequeueOutcome<V> {
        self.inner.apply(&QueueOp::Dequeue).expect_dequeue()
    }

    /// The underlying abortable queue.
    pub fn as_abortable(&self) -> &AbortableQueue<V> {
        &self.inner
    }
}

impl<V: Bits32> Deref for NonBlockingQueue<V> {
    type Target = NonBlocking<AbortableQueue<V>>;

    #[inline]
    fn deref(&self) -> &Self::Target {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;

    #[test]
    fn fifo_order_solo() {
        let queue: NonBlockingQueue<i32> = NonBlockingQueue::new(8);
        for v in [-1, -2, -3] {
            assert_eq!(queue.enqueue(v), EnqueueOutcome::Enqueued);
        }
        assert_eq!(queue.dequeue(), DequeueOutcome::Dequeued(-1));
        assert_eq!(queue.dequeue(), DequeueOutcome::Dequeued(-2));
        assert_eq!(queue.dequeue(), DequeueOutcome::Dequeued(-3));
        assert_eq!(queue.dequeue(), DequeueOutcome::Empty);
    }

    #[test]
    fn full_outcome_is_definitive() {
        let queue: NonBlockingQueue<u32> = NonBlockingQueue::new(1);
        assert_eq!(queue.enqueue(1), EnqueueOutcome::Enqueued);
        assert_eq!(queue.enqueue(2), EnqueueOutcome::Full);
    }

    #[test]
    fn concurrent_fifo_per_producer() {
        // FIFO linearizability implies per-producer order is
        // preserved among dequeued values.
        const PRODUCERS: u32 = 2;
        const PER_PRODUCER: u32 = 3_000;
        let queue: Arc<NonBlockingQueue<u32>> = Arc::new(NonBlockingQueue::new(8192));
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|t| {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        while queue.enqueue(t * PER_PRODUCER + i) == EnqueueOutcome::Full {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let consumer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while got.len() < (PRODUCERS * PER_PRODUCER) as usize {
                    if let DequeueOutcome::Dequeued(v) = queue.dequeue() {
                        got.push(v);
                    }
                }
                got
            })
        };
        for p in producers {
            p.join().unwrap();
        }
        let got = consumer.join().unwrap();
        assert_eq!(got.len(), (PRODUCERS * PER_PRODUCER) as usize);
        assert_eq!(got.iter().collect::<HashSet<_>>().len(), got.len());
        // Per-producer subsequences must be increasing.
        for t in 0..PRODUCERS {
            let sub: Vec<u32> = got
                .iter()
                .copied()
                .filter(|v| v / PER_PRODUCER == t)
                .collect();
            assert!(
                sub.windows(2).all(|w| w[0] < w[1]),
                "producer {t} order violated"
            );
        }
    }
}
