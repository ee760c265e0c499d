//! The sharded contention-sensitive stack.

use cso_locks::TasLock;
use cso_stack::{CsStack, PopOutcome, PushOutcome, StackValue};
use cso_trace::Registry;

use crate::config::ShardConfig;
use crate::router::{sealed, ShardLane, Sharded};

impl<V: StackValue> sealed::Sealed for CsStack<V, TasLock> {}

impl<V: StackValue> ShardLane for CsStack<V, TasLock> {
    type Value = V;

    fn lane_push(&self, proc: usize, value: V) -> bool {
        matches!(self.push(proc, value), PushOutcome::Pushed)
    }

    fn lane_pop(&self, proc: usize) -> Option<V> {
        self.pop(proc).into_option()
    }

    #[inline]
    fn lane_peek_len(&self) -> usize {
        self.peek_len()
    }

    fn lane_collisions(&self) -> u64 {
        let aborts = self.abort_stats();
        aborts.push_aborts + aborts.pop_aborts + self.path_stats().locked
    }

    fn lane_attach_metrics(&self, registry: &Registry, prefix: &str) {
        self.attach_metrics(registry, prefix);
    }
}

/// N independent Figure-3 stack cells behind the sharding router.
///
/// Each lane is a full [`CsStack`] — the escalation ladder, combining
/// slow path, and recovery machinery all work unchanged per lane, and
/// each lane keeps Theorem 1's exact six-access solo budget (the
/// router adds only uncounted peeks). See the crate docs for
/// the relaxation bound and the elasticity protocol, and [`Sharded`]
/// for the accessors both sharded objects share.
///
/// ```
/// use cso_shard::{ShardConfig, ShardedCsStack};
/// use cso_stack::{PopOutcome, PushOutcome};
///
/// let stack: ShardedCsStack<u32> = ShardedCsStack::new(16, 4, ShardConfig::strict(2));
/// assert_eq!(stack.push(0, 1), PushOutcome::Pushed);
/// assert_eq!(stack.push(1, 2), PushOutcome::Pushed);
/// // Exact LIFO is one cell, whoever asks.
/// assert_eq!((stack.lanes(), stack.relaxation_bound()), (1, 0));
/// assert_eq!(stack.pop(2), PopOutcome::Popped(2));
/// assert_eq!(stack.pop(3), PopOutcome::Popped(1));
/// assert_eq!(stack.pop(0), PopOutcome::Empty);
/// ```
pub type ShardedCsStack<V = u32> = Sharded<CsStack<V, TasLock>>;

impl<V: StackValue> ShardedCsStack<V> {
    /// A sharded stack holding up to `capacity` values for processes
    /// `0..n`, laid out per `config`.
    ///
    /// The per-lane capacity is `min(ceil(capacity / lanes), k /
    /// (lanes − 1))` — the second term is what makes the relaxation
    /// bound hold, and one lane (`ShardConfig::strict`) has no such
    /// term — and `capacity()` reports the effective `lanes ×
    /// lane_cap`.
    ///
    /// # Panics
    ///
    /// Panics if `config.lanes` is outside `1..=64`, if `k < lanes −
    /// 1` (some lane could hold nothing), or if the per-lane capacity
    /// violates `CsStack`'s own limits.
    #[must_use]
    pub fn new(capacity: usize, n: usize, config: ShardConfig) -> ShardedCsStack<V> {
        Sharded::build(
            &config,
            n,
            capacity,
            |raw| raw,
            |lane_cap| CsStack::with_config(lane_cap, TasLock::new(), n, config.cs),
        )
    }

    /// Pushes `value` on behalf of process `proc`.
    pub fn push(&self, proc: usize, value: V) -> PushOutcome {
        if self.route_push(proc, value) {
            PushOutcome::Pushed
        } else {
            PushOutcome::Full
        }
    }

    /// Pops on behalf of process `proc`.
    pub fn pop(&self, proc: usize) -> PopOutcome<V> {
        match self.route_pop(proc) {
            Some(v) => PopOutcome::Popped(v),
            None => PopOutcome::Empty,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cso_memory::CountScope;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn strict_mode_is_exact_lifo_whoever_asks() {
        let stack: ShardedCsStack<u32> = ShardedCsStack::new(32, 4, ShardConfig::strict(4));
        // Exact order is one cell, whatever lane count was asked for.
        assert_eq!((stack.lanes(), stack.active_lanes()), (1, 1));
        for (proc, v) in [(0, 10), (1, 11), (2, 12), (3, 13), (0, 14)] {
            assert_eq!(stack.push(proc, v), PushOutcome::Pushed);
        }
        for expect in [14, 13, 12, 11, 10] {
            assert_eq!(stack.pop(1), PopOutcome::Popped(expect));
        }
        assert_eq!(stack.pop(0), PopOutcome::Empty);
        assert_eq!(stack.relaxation_bound(), 0);
        // One relaxed lane is the same object.
        let one: ShardedCsStack<u32> = ShardedCsStack::new(32, 4, ShardConfig::relaxed(1, 0));
        assert_eq!((one.capacity(), one.relaxation_bound()), (32, 0));
    }

    #[test]
    fn strict_full_is_the_requested_capacity() {
        let stack: ShardedCsStack<u32> = ShardedCsStack::new(3, 2, ShardConfig::strict(2));
        assert_eq!(stack.capacity(), 3);
        for v in 0..3 {
            assert_eq!(stack.push(0, v), PushOutcome::Pushed);
        }
        assert_eq!(stack.push(1, 99), PushOutcome::Full);
        assert_eq!(stack.len(), 3);
    }

    /// Process 0 homes without a division; process 5 homes at `5 mod
    /// active` (lane 1 of 4 relaxed lanes) and pays the same six.
    #[test]
    fn solo_push_and_pop_cost_exactly_six_counted_accesses() {
        for config in [
            ShardConfig::strict(4),
            ShardConfig::relaxed(4, 8),
            ShardConfig::relaxed(4, 8).with_elastic(),
        ] {
            for proc in [0, 5] {
                let stack: ShardedCsStack<u32> = ShardedCsStack::new(64, 8, config);
                let scope = CountScope::start();
                assert_eq!(stack.push(proc, 7), PushOutcome::Pushed);
                assert_eq!(scope.take().total(), 6, "push by {proc} under {config:?}");
                let home = proc % stack.active_lanes();
                assert_eq!(stack.occupancy(home), 1, "push by {proc} under {config:?}");
                let scope = CountScope::start();
                assert_eq!(stack.pop(proc), PopOutcome::Popped(7));
                assert_eq!(scope.take().total(), 6, "pop by {proc} under {config:?}");
            }
        }
    }

    #[test]
    fn relaxed_pop_stays_within_the_relaxation_bound() {
        // 2 lanes × lane_cap 2 (k = 2): a popped value may be at most
        // 2 positions from the strict LIFO answer.
        let stack: ShardedCsStack<u32> = ShardedCsStack::new(4, 4, ShardConfig::relaxed(2, 2));
        assert_eq!(stack.relaxation_bound(), 3); // max(2, n-1=3)
                                                 // Fill from alternating procs so both lanes hold values.
        let mut pushed = Vec::new();
        for (proc, v) in [(0, 1), (1, 2), (0, 3), (1, 4)] {
            assert_eq!(stack.push(proc, v), PushOutcome::Pushed);
            pushed.push(v);
        }
        // Pop everything; every answer must be within `bound` of the
        // newest still-resident element's position.
        let bound = stack.relaxation_bound();
        let mut resident: Vec<u32> = pushed.clone();
        for proc in 0..4 {
            if let PopOutcome::Popped(v) = stack.pop(proc) {
                let pos_from_top = resident.iter().rev().position(|&x| x == v).unwrap();
                assert!(pos_from_top <= bound, "{v} was {pos_from_top} from the top");
                resident.retain(|&x| x != v);
            }
        }
        assert!(resident.is_empty());
    }

    #[test]
    fn spill_routes_a_push_past_a_full_home_lane() {
        // lane_cap = 1 (k=3, 4 lanes): proc 0's home lane fills after
        // one push; the second push must spill, not report Full.
        let stack: ShardedCsStack<u32> = ShardedCsStack::new(4, 4, ShardConfig::relaxed(4, 3));
        assert_eq!(stack.push(0, 1), PushOutcome::Pushed);
        assert_eq!(stack.push(0, 2), PushOutcome::Pushed);
        assert!(stack.router_stats().spills >= 1);
        // And a pop from a proc whose home lane is empty steals.
        assert!(stack.pop(3).is_popped());
        assert!(stack.pop(3).is_popped());
        assert!(stack.router_stats().steals >= 1);
        assert_eq!(stack.pop(0), PopOutcome::Empty);
    }

    #[test]
    fn full_only_after_every_lane_is_full() {
        let stack: ShardedCsStack<u32> = ShardedCsStack::new(4, 2, ShardConfig::relaxed(4, 3));
        assert_eq!(stack.capacity(), 4);
        for v in 0..4 {
            assert_eq!(stack.push(0, v), PushOutcome::Pushed, "push {v}");
        }
        assert_eq!(stack.push(0, 99), PushOutcome::Full);
        assert_eq!(stack.len(), 4);
    }

    #[test]
    fn elastic_contracts_to_one_lane_when_solo() {
        let stack: ShardedCsStack<u32> = ShardedCsStack::new(
            64,
            4,
            ShardConfig::relaxed(4, 16)
                .with_elastic()
                .with_elastic_cadence(8, 0),
        );
        assert_eq!(stack.active_lanes(), 1, "starts contracted");
        for i in 0..200 {
            assert_eq!(stack.push(0, i), PushOutcome::Pushed);
            assert!(stack.pop(0).is_popped());
        }
        assert_eq!(
            stack.active_lanes(),
            1,
            "solo traffic must stay at one lane"
        );
        assert_eq!(stack.router_stats().splits, 0);
        // Solo budget at one active lane is still exactly six.
        let scope = CountScope::start();
        assert_eq!(stack.push(0, 7), PushOutcome::Pushed);
        assert_eq!(scope.take().total(), 6);
        let _ = stack.pop(0);
    }

    /// The controller moves in both directions on real threads, on
    /// nothing but what the operations already write: two threads with
    /// different home lanes share lane 0 while the prefix is 1, collide
    /// there, and are fanned out; one stops, and the survivor's own
    /// traffic folds the prefix back. Cadence and budgets are operation
    /// counts — no sleep, no clock.
    #[test]
    fn elastic_fans_out_under_two_threads_and_folds_back_when_one_stops() {
        const BUDGET: u32 = 20_000_000;
        let stack: ShardedCsStack<u32> = ShardedCsStack::new(
            64,
            2,
            ShardConfig::relaxed(2, 32)
                .with_elastic()
                .with_elastic_cadence(16, 1),
        );
        let fanned_out = AtomicBool::new(false);
        // One push/pop pair per turn until `until` says stop: the
        // turns it took, or None past the budget.
        let hammer = |proc: usize, until: &dyn Fn() -> bool| {
            (0..BUDGET).find(|&turn| {
                let _ = stack.push(proc, turn);
                let _ = stack.pop(proc);
                until()
            })
        };
        let both = || {
            if stack.active_lanes() >= 2 {
                fanned_out.store(true, Ordering::Relaxed);
            }
            fanned_out.load(Ordering::Relaxed)
        };
        std::thread::scope(|s| {
            let other = s.spawn(|| hammer(1, &both));
            let survivor = hammer(0, &both);
            let other = other.join().unwrap();
            assert!(
                survivor.is_some() && other.is_some(),
                "two colliding writers never fanned out: {:?}",
                stack.router_stats()
            );
            assert!(stack.router_stats().splits >= 1);
            // The other thread is gone; the survivor carries on alone.
            assert!(
                hammer(0, &|| stack.active_lanes() == 1).is_some(),
                "a solo writer never folded back: {:?}",
                stack.router_stats()
            );
            assert!(stack.router_stats().merges >= 1);
        });
        while stack.pop(0).is_popped() {}
        assert_eq!(stack.len(), 0);
    }

    #[test]
    fn concurrent_mixed_ops_conserve_values_in_both_modes() {
        for config in [
            ShardConfig::strict(4),
            ShardConfig::relaxed(4, 768).with_elastic(),
        ] {
            let stack: ShardedCsStack<u32> = ShardedCsStack::new(1024, 8, config);
            let popped = std::sync::Mutex::new(Vec::new());
            std::thread::scope(|s| {
                for proc in 0..8 {
                    let stack = &stack;
                    let popped = &popped;
                    s.spawn(move || {
                        let mut mine = Vec::new();
                        for i in 0..100u32 {
                            let v = proc as u32 * 1000 + i;
                            assert_eq!(stack.push(proc, v), PushOutcome::Pushed);
                            if i % 2 == 0 {
                                if let PopOutcome::Popped(v) = stack.pop(proc) {
                                    mine.push(v);
                                }
                            }
                        }
                        popped.lock().unwrap().extend(mine);
                    });
                }
            });
            // Quiescent: the striped router counters and the summed
            // lane counts are exact.
            let mut seen: Vec<u32> = popped.into_inner().unwrap();
            let stats = stack.router_stats();
            assert_eq!(stats.pushes, 800, "pushes under {config:?}");
            assert_eq!(stats.pops, seen.len() as u64, "pops under {config:?}");
            assert_eq!(stack.len(), 800 - seen.len(), "len under {config:?}");
            assert_eq!(
                stack.len(),
                (0..stack.lanes())
                    .map(|i| stack.lane(i).len())
                    .sum::<usize>()
            );
            // Drain and account for every value exactly once.
            for proc in 0..8 {
                while let PopOutcome::Popped(v) = stack.pop(proc) {
                    seen.push(v);
                }
            }
            assert_eq!(stack.router_stats().pops, 800);
            seen.sort_unstable();
            let mut expect: Vec<u32> = (0..8)
                .flat_map(|p| (0..100).map(move |i| p * 1000 + i))
                .collect();
            expect.sort_unstable();
            assert_eq!(seen, expect, "conservation under {config:?}");
            assert_eq!(stack.len(), 0);
        }
    }

    /// The probe order is steered by the lanes' own counts: with the
    /// home lane empty (pop) or full (push) and one foreign lane
    /// qualifying, the operation lands there in one real probe — the
    /// skipped lanes see no attempt — and the peeks that steered it
    /// cost none of the six counted accesses.
    #[test]
    fn steal_and_spill_land_in_one_probe_on_uncounted_peeks() {
        // 4 lanes × lane_cap 2 (k = 6).
        let stack: ShardedCsStack<u32> = ShardedCsStack::new(8, 4, ShardConfig::relaxed(4, 6));
        let attempts = |lane: usize| {
            let s = stack.lane(lane).abort_stats();
            s.push_attempts + s.pop_attempts
        };
        // Only lane 2 holds anything.
        assert_eq!(stack.push(2, 7), PushOutcome::Pushed);
        assert_eq!(stack.push(2, 8), PushOutcome::Pushed);
        let before: Vec<u64> = (0..4).map(attempts).collect();

        // Pop from proc 0: home lane 0 and lane 1 peek empty.
        let scope = CountScope::start();
        assert_eq!(stack.pop(0), PopOutcome::Popped(8));
        assert_eq!(scope.take().total(), 6, "a steal is one lane operation");
        assert_eq!(stack.router_stats().steals, 1);
        assert_eq!(
            (0..4).map(attempts).collect::<Vec<_>>(),
            vec![before[0], before[1], before[2] + 1, before[3]]
        );

        // Fill lanes 0, 1 and 3; lane 2 holds one of its two.
        for proc in [0, 0, 1, 1, 3, 3] {
            assert_eq!(stack.push(proc, 1), PushOutcome::Pushed);
        }
        assert_eq!(stack.router_stats().spills, 0);
        assert_eq!((0..4).map(|l| stack.occupancy(l)).sum::<usize>(), 7);
        let before: Vec<u64> = (0..4).map(attempts).collect();

        // Push from proc 3: home lane 3, then lanes 0 and 1, peek full.
        let scope = CountScope::start();
        assert_eq!(stack.push(3, 9), PushOutcome::Pushed);
        assert_eq!(scope.take().total(), 6, "a spill is one lane operation");
        assert_eq!(stack.router_stats().spills, 1);
        assert_eq!(stack.occupancy(2), 2);
        assert_eq!(
            (0..4).map(attempts).collect::<Vec<_>>(),
            vec![before[0], before[1], before[2] + 1, before[3]]
        );
    }

    #[test]
    fn attach_metrics_exposes_lanes_and_router() {
        let registry = Registry::new();
        let stack: ShardedCsStack<u32> = ShardedCsStack::new(16, 2, ShardConfig::relaxed(2, 4));
        stack.attach_metrics(&registry, "shard_stack");
        let _ = stack.push(0, 1);
        let _ = stack.pop(1);
        let snapshot = registry.snapshot();
        let names: Vec<&str> = snapshot.counters.iter().map(|c| c.0.as_str()).collect();
        assert!(names.iter().any(|n| n.starts_with("shard_stack_lane0_")));
        assert!(names.iter().any(|n| n.starts_with("shard_stack_lane1_")));
        assert!(names.contains(&"shard_stack_router_steals_total"));
        // The gauges are polled: a scrape sees the state as of the
        // scrape, with nothing published per operation.
        assert_eq!(stack.push(0, 2), PushOutcome::Pushed);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.gauge("shard_stack_router_size"), Some(1.0));
        assert_eq!(snapshot.gauge("shard_stack_router_active_lanes"), Some(2.0));
        assert_eq!(snapshot.gauge("shard_stack_router_splits"), Some(0.0));
    }
}
