//! The per-lane occupancy aggregate.
//!
//! What routing needs to know about the lanes without touching them:
//! per-lane occupancy counters and a nonempty bitmask — all plain
//! (`std::sync::atomic`, *uncounted*) operations, so consulting the
//! aggregate never spends any of the paper's counted access budget.
//!
//! ## Cost contract: updates touch only the lane's own line
//!
//! Uncounted is not free: a shared word written on every operation
//! costs a cache-line transfer per operation, which is what sharding
//! exists to avoid. So the layout follows the per-writer-cell design of
//! "Write-and-f-array" (PAPERS.md), with the roles the router's traffic
//! dictates — updates are every operation, `len()` is rare:
//!
//! * [`record_push`](LaneAggregate::record_push) /
//!   [`record_pop`](LaneAggregate::record_pop) write **only the lane's
//!   own cache-padded `occ` cell**, plus the shared `nonempty` mask
//!   when (and only when) the lane crosses empty ↔ nonempty. Threads
//!   working different lanes share no written line.
//! * [`len`](LaneAggregate::len) **sums the ≤ 64 `occ` cells** — it is
//!   O(lanes), and there is no maintained total for updates to fight
//!   over. The sum is racy but convergent: exact at quiescence,
//!   otherwise off by at most the operations in flight.
//! * [`take_dirty`](LaneAggregate::take_dirty), polled before every
//!   routed operation, is a read unless a heal is owed.
//!
//! The aggregate is a **routing hint, not a correctness mechanism**:
//! every decision it guides is re-validated by the lane operation
//! itself (which is linearizable). Under concurrency a reader can see
//! a value that lags the truth by at most the number of in-flight
//! operations — each operation updates the aggregate immediately
//! after its lane operation returns — and the router's probe protocol
//! turns that into the documented ≤ n − 1 slack on Empty/Full
//! answers. A crashed operation never updates the aggregate at all;
//! the [`dirty`](LaneAggregate::mark_dirty) flag plus
//! [`resync`](LaneAggregate::resync) re-derive the counters from the
//! lanes (see the router's heal path and the E14 kill-site audit in
//! DESIGN.md).

use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicU64, Ordering};

use cso_memory::CachePadded;

/// Per-lane occupancy counters + nonempty mask.
///
/// All reads and writes are uncounted; lanes are capped at 64 so the
/// mask fits one `AtomicU64`. See the module docs for which lines an
/// update may write.
#[derive(Debug)]
pub struct LaneAggregate {
    /// Per-lane element counts (cache-padded: each lane's operations
    /// update their own line). `isize` because transient interleavings
    /// of the unfenced updates may briefly undershoot zero.
    occ: Vec<CachePadded<AtomicIsize>>,
    /// Bit `i` set ⇒ lane `i` is believed nonempty. Read by every pop,
    /// written only on an empty ↔ nonempty transition.
    nonempty: AtomicU64,
    /// Per-lane capacity the router enforces (`looks_full`).
    lane_cap: usize,
    /// Set when an operation unwound mid-lane (crash/panic): counters
    /// may have drifted and must be re-derived from the lanes.
    dirty: AtomicBool,
}

impl LaneAggregate {
    /// An aggregate over `lanes` lanes of capacity `lane_cap` each.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is 0 or exceeds 64.
    #[must_use]
    pub fn new(lanes: usize, lane_cap: usize) -> LaneAggregate {
        assert!((1..=64).contains(&lanes), "lanes must be in 1..=64");
        LaneAggregate {
            occ: (0..lanes)
                .map(|_| CachePadded::new(AtomicIsize::new(0)))
                .collect(),
            nonempty: AtomicU64::new(0),
            lane_cap,
            dirty: AtomicBool::new(false),
        }
    }

    /// Number of lanes covered.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.occ.len()
    }

    /// The per-lane capacity `looks_full` compares against.
    #[must_use]
    pub fn lane_cap(&self) -> usize {
        self.lane_cap
    }

    /// Records a successful push/enqueue into `lane`.
    pub fn record_push(&self, lane: usize) {
        let prev = self.occ[lane].fetch_add(1, Ordering::AcqRel);
        if prev <= 0 {
            self.nonempty.fetch_or(1 << lane, Ordering::AcqRel);
        }
    }

    /// Records a successful pop/dequeue out of `lane`.
    pub fn record_pop(&self, lane: usize) {
        let prev = self.occ[lane].fetch_sub(1, Ordering::AcqRel);
        if prev <= 1 {
            self.nonempty.fetch_and(!(1 << lane), Ordering::AcqRel);
            // A push may have raced between our decrement and the
            // clear; re-validate so the bit converges to the truth.
            if self.occ[lane].load(Ordering::Acquire) > 0 {
                self.nonempty.fetch_or(1 << lane, Ordering::AcqRel);
            }
        }
    }

    /// Whether lane `lane` is believed nonempty (O(1) mask read).
    #[must_use]
    pub fn looks_nonempty(&self, lane: usize) -> bool {
        self.nonempty.load(Ordering::Acquire) & (1 << lane) != 0
    }

    /// Whether lane `lane` is believed at capacity.
    #[must_use]
    pub fn looks_full(&self, lane: usize) -> bool {
        self.occ[lane].load(Ordering::Acquire) >= self.lane_cap as isize
    }

    /// The believed occupancy of `lane` (clamped at 0).
    #[must_use]
    pub fn occupancy(&self, lane: usize) -> usize {
        self.occ[lane].load(Ordering::Acquire).max(0) as usize
    }

    /// The believed total size across lanes: the sum of the per-lane
    /// cells, O(lanes). Racy but convergent — exact at quiescence,
    /// otherwise off by at most the operations in flight (clamped at
    /// 0). Meant for occasional reads, not for a per-operation path.
    #[must_use]
    pub fn len(&self) -> usize {
        self.occ
            .iter()
            .map(|cell| cell.load(Ordering::Acquire))
            .sum::<isize>()
            .max(0) as usize
    }

    /// Whether the structure is believed empty (O(1)).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nonempty_mask() == 0
    }

    /// The nonempty bitmask (bit `i` ⇒ lane `i` has elements).
    #[must_use]
    pub fn nonempty_mask(&self) -> u64 {
        self.nonempty.load(Ordering::Acquire)
    }

    /// Overwrites lane `lane`'s count with ground truth `actual`
    /// (read from the lane itself) and fixes the mask bit. Used by the
    /// heal path after a crash and by `refresh_occupancy()` audits.
    pub fn resync(&self, lane: usize, actual: usize) {
        let actual = actual as isize;
        self.occ[lane].store(actual, Ordering::Release);
        if actual > 0 {
            self.nonempty.fetch_or(1 << lane, Ordering::AcqRel);
        } else {
            self.nonempty.fetch_and(!(1 << lane), Ordering::AcqRel);
        }
    }

    /// Flags the aggregate as possibly drifted (an operation unwound
    /// between its lane op and its aggregate update).
    pub fn mark_dirty(&self) {
        self.dirty.store(true, Ordering::Release);
    }

    /// Consumes the dirty flag; `true` means a heal is owed, and each
    /// `mark_dirty` is consumed by exactly one caller. Tests before it
    /// swaps: the router polls this before every operation, and an
    /// unconditional swap would make the flag's line a per-operation
    /// shared write.
    pub fn take_dirty(&self) -> bool {
        self.dirty.load(Ordering::Acquire) && self.dirty.swap(false, Ordering::AcqRel)
    }

    /// Whether a heal is currently owed.
    #[must_use]
    pub fn is_dirty(&self) -> bool {
        self.dirty.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_mask_track_ops() {
        let agg = LaneAggregate::new(4, 2);
        assert_eq!(agg.len(), 0);
        assert!(agg.is_empty());
        agg.record_push(1);
        agg.record_push(1);
        agg.record_push(3);
        assert_eq!(agg.len(), 3);
        assert_eq!(agg.occupancy(1), 2);
        assert!(agg.looks_full(1));
        assert!(!agg.looks_full(3));
        assert_eq!(agg.nonempty_mask(), 0b1010);
        agg.record_pop(1);
        agg.record_pop(1);
        assert!(!agg.looks_nonempty(1));
        assert!(agg.looks_nonempty(3));
        assert_eq!(agg.len(), 1);
    }

    #[test]
    fn resync_restores_ground_truth() {
        let agg = LaneAggregate::new(2, 8);
        agg.record_push(0);
        agg.record_push(0);
        // Simulate a crashed push that applied but never recorded:
        // ground truth says 3.
        agg.mark_dirty();
        assert!(agg.take_dirty());
        assert!(!agg.take_dirty());
        agg.resync(0, 3);
        assert_eq!(agg.occupancy(0), 3);
        assert_eq!(agg.len(), 3);
        agg.resync(0, 0);
        assert!(agg.is_empty());
        assert_eq!(agg.len(), 0);
    }

    #[test]
    fn one_mark_dirty_is_taken_exactly_once() {
        let agg = LaneAggregate::new(2, 8);
        assert!(!agg.take_dirty(), "a clean flag is only read");
        for _ in 0..100 {
            agg.mark_dirty();
            let start = std::sync::Barrier::new(4);
            let takers = std::thread::scope(|s| {
                let handles: Vec<_> = (0..4)
                    .map(|_| {
                        s.spawn(|| {
                            start.wait();
                            agg.take_dirty()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .filter(|&took| took)
                    .count()
            });
            assert_eq!(takers, 1, "one heal owed, one heal taken");
            assert!(!agg.is_dirty());
        }
    }

    #[test]
    fn concurrent_updates_conserve_counts() {
        let agg = std::sync::Arc::new(LaneAggregate::new(4, usize::MAX / 2));
        std::thread::scope(|s| {
            for t in 0..4 {
                let agg = std::sync::Arc::clone(&agg);
                s.spawn(move || {
                    for i in 0..1000 {
                        agg.record_push((t + i) % 4);
                    }
                    for i in 0..1000 {
                        agg.record_pop((t + i) % 4);
                    }
                });
            }
        });
        assert_eq!(agg.len(), 0);
        for lane in 0..4 {
            assert_eq!(agg.occupancy(lane), 0);
        }
    }
}
