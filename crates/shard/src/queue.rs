//! The sharded contention-sensitive queue.

use cso_locks::TasLock;
use cso_queue::{CsQueue, DequeueOutcome, EnqueueOutcome, QueueValue};
use cso_trace::Registry;

use crate::config::ShardConfig;
use crate::router::{sealed, ShardLane, Sharded};

impl<V: QueueValue> sealed::Sealed for CsQueue<V, TasLock> {}

impl<V: QueueValue> ShardLane for CsQueue<V, TasLock> {
    type Value = V;

    fn lane_push(&self, proc: usize, value: V) -> bool {
        matches!(self.enqueue(proc, value), EnqueueOutcome::Enqueued)
    }

    fn lane_pop(&self, proc: usize) -> Option<V> {
        self.dequeue(proc).into_option()
    }

    #[inline]
    fn lane_peek_len(&self) -> usize {
        self.peek_len()
    }

    fn lane_collisions(&self) -> u64 {
        let aborts = self.abort_stats();
        aborts.enq_aborts + aborts.deq_aborts + self.path_stats().locked
    }

    fn lane_attach_metrics(&self, registry: &Registry, prefix: &str) {
        self.attach_metrics(registry, prefix);
    }
}

/// `CsQueue` lanes need power-of-two capacities: the largest one not
/// above `raw` (`raw ≥ 1`), so a bound derived from `raw` still holds.
pub(crate) fn power_of_two_floor(raw: usize) -> usize {
    1 << raw.ilog2()
}

/// N independent Figure-3 queue cells behind the sharding router.
///
/// Each lane is a full [`CsQueue`] — non-interfering enqueue/dequeue
/// pairs, the escalation ladder, combining, and recovery all work
/// unchanged per lane, and each lane keeps the exact seven-access solo
/// budget (the router adds only uncounted peeks). See the crate
/// docs for the relaxation bound and the elasticity protocol, and
/// [`Sharded`] for the accessors both sharded objects share.
///
/// ```
/// use cso_shard::{ShardConfig, ShardedCsQueue};
/// use cso_queue::{DequeueOutcome, EnqueueOutcome};
///
/// let queue: ShardedCsQueue<u32> = ShardedCsQueue::new(16, 4, ShardConfig::strict(2));
/// assert_eq!(queue.enqueue(0, 1), EnqueueOutcome::Enqueued);
/// assert_eq!(queue.enqueue(1, 2), EnqueueOutcome::Enqueued);
/// // Exact FIFO is one cell, whoever asks.
/// assert_eq!((queue.lanes(), queue.relaxation_bound()), (1, 0));
/// assert_eq!(queue.dequeue(2), DequeueOutcome::Dequeued(1));
/// assert_eq!(queue.dequeue(3), DequeueOutcome::Dequeued(2));
/// assert_eq!(queue.dequeue(0), DequeueOutcome::Empty);
/// ```
pub type ShardedCsQueue<V = u32> = Sharded<CsQueue<V, TasLock>>;

impl<V: QueueValue> ShardedCsQueue<V> {
    /// A sharded queue holding up to `capacity` values for processes
    /// `0..n`, laid out per `config`.
    ///
    /// `CsQueue` lanes need power-of-two capacities (≤ 2¹⁵), so the
    /// derived `min(ceil(capacity / lanes), k / (lanes − 1))` — one
    /// lane (`ShardConfig::strict`) has no second term — is rounded
    /// *down* (never below 1), which keeps the relaxation bound valid,
    /// and `capacity()` reports the effective `lanes × lane_cap`.
    ///
    /// # Panics
    ///
    /// Panics if `config.lanes` is outside `1..=64`, if `k < lanes −
    /// 1`, or if a rounded lane capacity violates `CsQueue`'s own
    /// limits.
    #[must_use]
    pub fn new(capacity: usize, n: usize, config: ShardConfig) -> ShardedCsQueue<V> {
        Sharded::build(&config, n, capacity, power_of_two_floor, |lane_cap| {
            CsQueue::with_config(lane_cap, TasLock::new(), n, config.cs)
        })
    }

    /// Enqueues `value` on behalf of process `proc`.
    pub fn enqueue(&self, proc: usize, value: V) -> EnqueueOutcome {
        if self.route_push(proc, value) {
            EnqueueOutcome::Enqueued
        } else {
            EnqueueOutcome::Full
        }
    }

    /// Dequeues on behalf of process `proc`.
    pub fn dequeue(&self, proc: usize) -> DequeueOutcome<V> {
        match self.route_pop(proc) {
            Some(v) => DequeueOutcome::Dequeued(v),
            None => DequeueOutcome::Empty,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cso_memory::CountScope;

    #[test]
    fn strict_mode_is_exact_fifo_whoever_asks() {
        let queue: ShardedCsQueue<u32> = ShardedCsQueue::new(32, 4, ShardConfig::strict(4));
        assert_eq!((queue.lanes(), queue.active_lanes()), (1, 1));
        for (proc, v) in [(0, 10), (1, 11), (2, 12), (3, 13), (0, 14)] {
            assert_eq!(queue.enqueue(proc, v), EnqueueOutcome::Enqueued);
        }
        for expect in [10, 11, 12, 13, 14] {
            assert_eq!(queue.dequeue(1), DequeueOutcome::Dequeued(expect));
        }
        assert_eq!(queue.dequeue(0), DequeueOutcome::Empty);
        assert_eq!(queue.relaxation_bound(), 0);
    }

    #[test]
    fn strict_full_is_the_requested_capacity() {
        // `capacity()` is the one rule: what the (power-of-two) lane
        // holds, which is what was requested when that is a power of
        // two and the next one down otherwise.
        for (requested, effective) in [(4, 4), (3, 2)] {
            let queue: ShardedCsQueue<u32> =
                ShardedCsQueue::new(requested, 2, ShardConfig::strict(2));
            assert_eq!(queue.capacity(), effective);
            for v in 0..effective as u32 {
                assert_eq!(queue.enqueue(0, v), EnqueueOutcome::Enqueued);
            }
            assert_eq!(queue.enqueue(1, 99), EnqueueOutcome::Full);
            assert_eq!(queue.len(), queue.capacity());
        }
    }

    /// Process 0 homes without a division; process 5 homes at `5 mod
    /// active` (lane 1 of 4 relaxed lanes) and pays the same seven.
    #[test]
    fn solo_enqueue_and_dequeue_cost_exactly_seven_counted_accesses() {
        for config in [
            ShardConfig::strict(4),
            ShardConfig::relaxed(4, 12),
            ShardConfig::relaxed(4, 12).with_elastic(),
        ] {
            for proc in [0, 5] {
                let queue: ShardedCsQueue<u32> = ShardedCsQueue::new(64, 8, config);
                let scope = CountScope::start();
                assert_eq!(queue.enqueue(proc, 7), EnqueueOutcome::Enqueued);
                assert_eq!(
                    scope.take().total(),
                    7,
                    "enqueue by {proc} under {config:?}"
                );
                let home = proc % queue.active_lanes();
                assert_eq!(
                    queue.occupancy(home),
                    1,
                    "enqueue by {proc} under {config:?}"
                );
                let scope = CountScope::start();
                assert_eq!(queue.dequeue(proc), DequeueOutcome::Dequeued(7));
                assert_eq!(
                    scope.take().total(),
                    7,
                    "dequeue by {proc} under {config:?}"
                );
            }
        }
    }

    #[test]
    fn relaxed_dequeue_stays_within_the_relaxation_bound() {
        let queue: ShardedCsQueue<u32> = ShardedCsQueue::new(8, 4, ShardConfig::relaxed(2, 4));
        let mut enqueued = Vec::new();
        for (proc, v) in [(0, 1), (1, 2), (0, 3), (1, 4), (0, 5), (1, 6)] {
            assert_eq!(queue.enqueue(proc, v), EnqueueOutcome::Enqueued);
            enqueued.push(v);
        }
        let bound = queue.relaxation_bound();
        let mut resident = enqueued.clone();
        for proc in 0..6 {
            if let DequeueOutcome::Dequeued(v) = queue.dequeue(proc % 4) {
                let pos_from_front = resident.iter().position(|&x| x == v).unwrap();
                assert!(
                    pos_from_front <= bound,
                    "{v} was {pos_from_front} from the front"
                );
                resident.retain(|&x| x != v);
            }
        }
        assert!(resident.is_empty());
    }

    #[test]
    fn full_only_after_every_lane_is_full() {
        // 4 lanes × lane_cap 1 (k = 3).
        let queue: ShardedCsQueue<u32> = ShardedCsQueue::new(4, 2, ShardConfig::relaxed(4, 3));
        assert_eq!(queue.capacity(), 4);
        for v in 0..4 {
            assert_eq!(queue.enqueue(0, v), EnqueueOutcome::Enqueued, "enqueue {v}");
        }
        assert_eq!(queue.enqueue(0, 99), EnqueueOutcome::Full);
        assert!(queue.router_stats().spills >= 3);
        assert_eq!(queue.len(), 4);
    }

    #[test]
    fn elastic_contracts_to_one_lane_when_solo() {
        let queue: ShardedCsQueue<u32> = ShardedCsQueue::new(
            64,
            4,
            ShardConfig::relaxed(4, 16)
                .with_elastic()
                .with_elastic_cadence(8, 0),
        );
        assert_eq!(queue.active_lanes(), 1, "starts contracted");
        for i in 0..200 {
            assert_eq!(queue.enqueue(0, i), EnqueueOutcome::Enqueued);
            assert!(queue.dequeue(0).is_dequeued());
        }
        assert_eq!(
            queue.active_lanes(),
            1,
            "solo traffic must stay at one lane"
        );
        let scope = CountScope::start();
        assert_eq!(queue.enqueue(0, 7), EnqueueOutcome::Enqueued);
        assert_eq!(scope.take().total(), 7);
        let _ = queue.dequeue(0);
    }

    #[test]
    fn concurrent_mixed_ops_conserve_values_in_both_modes() {
        for config in [
            ShardConfig::strict(4),
            ShardConfig::relaxed(4, 768).with_elastic(),
        ] {
            let queue: ShardedCsQueue<u32> = ShardedCsQueue::new(1024, 8, config);
            let drained = std::sync::Mutex::new(Vec::new());
            std::thread::scope(|s| {
                for proc in 0..8 {
                    let queue = &queue;
                    let drained = &drained;
                    s.spawn(move || {
                        let mut mine = Vec::new();
                        for i in 0..100u32 {
                            let v = proc as u32 * 1000 + i;
                            assert_eq!(queue.enqueue(proc, v), EnqueueOutcome::Enqueued);
                            if i % 2 == 0 {
                                if let DequeueOutcome::Dequeued(v) = queue.dequeue(proc) {
                                    mine.push(v);
                                }
                            }
                        }
                        drained.lock().unwrap().extend(mine);
                    });
                }
            });
            let mut seen: Vec<u32> = drained.into_inner().unwrap();
            for proc in 0..8 {
                while let DequeueOutcome::Dequeued(v) = queue.dequeue(proc) {
                    seen.push(v);
                }
            }
            seen.sort_unstable();
            let mut expect: Vec<u32> = (0..8)
                .flat_map(|p| (0..100).map(move |i| p * 1000 + i))
                .collect();
            expect.sort_unstable();
            assert_eq!(seen, expect, "conservation under {config:?}");
            assert_eq!(queue.len(), 0);
        }
    }

    #[test]
    fn solo_affine_traffic_is_exact_fifo_even_relaxed() {
        // A solo producer routes every value to its home lane (never
        // full below lane_cap) and drains it back first: no steals, no
        // spills, exact FIFO — relaxation costs nothing when unused.
        let queue: ShardedCsQueue<u32> = ShardedCsQueue::new(64, 2, ShardConfig::relaxed(2, 8));
        let lane_cap = queue.lane(0).capacity();
        for v in 0..lane_cap as u32 {
            assert_eq!(queue.enqueue(0, v), EnqueueOutcome::Enqueued);
        }
        let mut got = Vec::new();
        while let DequeueOutcome::Dequeued(v) = queue.dequeue(0) {
            got.push(v);
        }
        assert_eq!(got, (0..lane_cap as u32).collect::<Vec<_>>());
        let stats = queue.router_stats();
        assert_eq!(stats.spills, 0);
        assert_eq!(stats.steals, 0);
    }

    /// The queue's twin of the stack's steal/spill test: the probe
    /// order is steered by `TAIL − HEAD` of each lane, peeked, so the
    /// operation lands on the one qualifying foreign lane in one real
    /// probe at the solo seven counted accesses.
    #[test]
    fn steal_and_spill_land_in_one_probe_on_uncounted_peeks() {
        // 4 lanes × lane_cap 2 (k = 6).
        let queue: ShardedCsQueue<u32> = ShardedCsQueue::new(8, 4, ShardConfig::relaxed(4, 6));
        let attempts = |lane: usize| {
            let s = queue.lane(lane).abort_stats();
            s.enq_attempts + s.deq_attempts
        };
        // Only lane 2 holds anything.
        assert_eq!(queue.enqueue(2, 7), EnqueueOutcome::Enqueued);
        assert_eq!(queue.enqueue(2, 8), EnqueueOutcome::Enqueued);
        let before: Vec<u64> = (0..4).map(attempts).collect();

        // Dequeue from proc 0: home lane 0 and lane 1 peek empty.
        let scope = CountScope::start();
        assert_eq!(queue.dequeue(0), DequeueOutcome::Dequeued(7));
        assert_eq!(scope.take().total(), 7, "a steal is one lane operation");
        assert_eq!(queue.router_stats().steals, 1);
        assert_eq!(
            (0..4).map(attempts).collect::<Vec<_>>(),
            vec![before[0], before[1], before[2] + 1, before[3]]
        );

        // Fill lanes 0, 1 and 3; lane 2 holds one of its two.
        for proc in [0, 0, 1, 1, 3, 3] {
            assert_eq!(queue.enqueue(proc, 1), EnqueueOutcome::Enqueued);
        }
        assert_eq!(queue.router_stats().spills, 0);
        assert_eq!((0..4).map(|l| queue.occupancy(l)).sum::<usize>(), 7);
        let before: Vec<u64> = (0..4).map(attempts).collect();

        // Enqueue from proc 3: home lane 3, then lanes 0 and 1, peek full.
        let scope = CountScope::start();
        assert_eq!(queue.enqueue(3, 9), EnqueueOutcome::Enqueued);
        assert_eq!(scope.take().total(), 7, "a spill is one lane operation");
        assert_eq!(queue.router_stats().spills, 1);
        assert_eq!(queue.occupancy(2), 2);
        assert_eq!(
            (0..4).map(attempts).collect::<Vec<_>>(),
            vec![before[0], before[1], before[2] + 1, before[3]]
        );
    }
}
