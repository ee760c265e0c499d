//! Strict-mode ordering: a ticket latch plus an order journal.
//!
//! A naive sharded structure that lets pushes claim global positions
//! and land in lanes asynchronously is **not** linearizable: a push
//! that claims a position and stalls can surface *under* a later push
//! in the same lane, and the crossed pops that follow admit no legal
//! linearization order. Strict mode therefore serializes the ordering
//! decision itself: a FIFO ticket latch (uncounted raw atomics —
//! none of Theorem 1's budget) is held across {lane selection → lane
//! operation → journal update}, and the journal records which lane
//! holds each logical position. Pops consult the journal for the lane
//! of the strict answer (top entry for LIFO, head entry for FIFO), so
//! the observable order is exactly the sequential spec's.
//!
//! The latch is ticket-fair, keeping the paper's starvation-freedom
//! story intact end to end: tickets are served in order, and inside
//! the critical section the lane's own §4.4 machinery bounds the
//! operation. Spin waits go through [`Spinner`], which yields to the
//! OS (and to the model scheduler under `--features model`).
//!
//! Crash behaviour: the latch guard releases on unwind, so a killed
//! operation cannot wedge the order section. A kill between the lane
//! operation and the journal update leaves the journal one entry off
//! its lanes — the one piece of derived state a sharded structure
//! still has. The guard sees the unwind as it drops and sets the
//! journal's `dirty` flag; the next holder reconciles under the latch
//! by appending the orphaned lane entries — legal because the killed
//! operation never returned, so it may linearize at any later point
//! (see `tests/shard_chaos.rs`).

use std::sync::atomic::{AtomicBool, AtomicU16, AtomicU64, AtomicUsize, Ordering};

use cso_memory::backoff::Spinner;

/// The strict-order section: ticket latch + lane journal.
#[derive(Debug)]
pub(crate) struct StrictOrder {
    /// Next ticket to hand out.
    next: AtomicU64,
    /// Ticket currently being served.
    serving: AtomicU64,
    /// Ring of lane ids, one per resident element, in push order.
    entries: Box<[AtomicU16]>,
    /// Ring head (FIFO consumption index; unused for LIFO).
    head: AtomicUsize,
    /// Resident element count.
    len: AtomicUsize,
    /// Set when a holder unwound out of the section (crash/panic): the
    /// journal may be off its lanes and the next holder reconciles.
    dirty: AtomicBool,
    /// True = consume oldest (queue); false = consume newest (stack).
    fifo: bool,
}

impl StrictOrder {
    pub(crate) fn new(capacity: usize, fifo: bool) -> StrictOrder {
        StrictOrder {
            next: AtomicU64::new(0),
            serving: AtomicU64::new(0),
            entries: (0..capacity).map(|_| AtomicU16::new(0)).collect(),
            head: AtomicUsize::new(0),
            len: AtomicUsize::new(0),
            dirty: AtomicBool::new(false),
            fifo,
        }
    }

    /// Acquires the order latch (FIFO ticket discipline); the guard
    /// releases on drop, including during unwinding.
    pub(crate) fn acquire(&self) -> OrderGuard<'_> {
        let ticket = self.next.fetch_add(1, Ordering::AcqRel);
        let mut spinner = Spinner::new();
        while self.serving.load(Ordering::Acquire) != ticket {
            spinner.spin();
        }
        OrderGuard { order: self }
    }
}

/// Exclusive access to the journal; releasing happens on drop.
///
/// All journal loads/stores inside the guard (the `dirty` flag
/// included) use `Relaxed`: the latch's acquire/release pair orders
/// them across owners.
pub(crate) struct OrderGuard<'a> {
    order: &'a StrictOrder,
}

impl OrderGuard<'_> {
    /// Resident element count.
    pub(crate) fn len(&self) -> usize {
        self.order.len.load(Ordering::Relaxed)
    }

    /// Records that the newest element lives in `lane`.
    pub(crate) fn push_lane(&self, lane: usize) {
        let len = self.len();
        debug_assert!(len < self.order.entries.len(), "journal overflow");
        let slot = if self.order.fifo {
            (self.order.head.load(Ordering::Relaxed) + len) % self.order.entries.len()
        } else {
            len
        };
        self.order.entries[slot].store(lane as u16, Ordering::Relaxed);
        self.order.len.store(len + 1, Ordering::Relaxed);
    }

    /// Removes and returns the lane of the strict answer (newest for
    /// LIFO, oldest for FIFO); `None` when the journal is empty.
    pub(crate) fn pop_lane(&self) -> Option<usize> {
        let len = self.len();
        if len == 0 {
            return None;
        }
        let lane = if self.order.fifo {
            let head = self.order.head.load(Ordering::Relaxed);
            let lane = self.order.entries[head].load(Ordering::Relaxed);
            self.order
                .head
                .store((head + 1) % self.order.entries.len(), Ordering::Relaxed);
            lane
        } else {
            self.order.entries[len - 1].load(Ordering::Relaxed)
        };
        self.order.len.store(len - 1, Ordering::Relaxed);
        Some(lane as usize)
    }

    /// Flags the journal as possibly off its lanes.
    pub(crate) fn mark_dirty(&self) {
        self.order.dirty.store(true, Ordering::Relaxed);
    }

    /// Consumes the flag; `true` means a reconciliation is owed. A
    /// load and a rare store, not a `swap`: under the latch there is
    /// no race to lose, and every strict operation passes here.
    pub(crate) fn take_dirty(&self) -> bool {
        let dirty = self.order.dirty.load(Ordering::Relaxed);
        if dirty {
            self.order.dirty.store(false, Ordering::Relaxed);
        }
        dirty
    }

    /// How many journal entries currently name `lane`.
    pub(crate) fn count_lane(&self, lane: usize) -> usize {
        let len = self.len();
        let head = self.order.head.load(Ordering::Relaxed);
        (0..len)
            .filter(|i| {
                let slot = if self.order.fifo {
                    (head + i) % self.order.entries.len()
                } else {
                    *i
                };
                self.order.entries[slot].load(Ordering::Relaxed) == lane as u16
            })
            .count()
    }

    /// Removes `excess` entries naming `lane` (newest-first),
    /// compacting the ring. Heal path only; O(len).
    pub(crate) fn remove_lane_entries(&self, lane: usize, excess: usize) {
        if excess == 0 {
            return;
        }
        let len = self.len();
        let head = self.order.head.load(Ordering::Relaxed);
        let cap = self.order.entries.len();
        let slot_of = |i: usize| if self.order.fifo { (head + i) % cap } else { i };
        let mut kept: Vec<u16> = Vec::with_capacity(len);
        let mut to_drop = excess;
        // Walk oldest→newest; drop the *newest* matching entries.
        for i in 0..len {
            kept.push(self.order.entries[slot_of(i)].load(Ordering::Relaxed));
        }
        for slot in kept.iter_mut().rev() {
            if to_drop == 0 {
                break;
            }
            if *slot == lane as u16 {
                *slot = u16::MAX; // tombstone
                to_drop -= 1;
            }
        }
        let survivors: Vec<u16> = kept.into_iter().filter(|&l| l != u16::MAX).collect();
        self.order.head.store(0, Ordering::Relaxed);
        for (i, l) in survivors.iter().enumerate() {
            self.order.entries[i].store(*l, Ordering::Relaxed);
        }
        self.order.len.store(survivors.len(), Ordering::Relaxed);
    }
}

impl Drop for OrderGuard<'_> {
    fn drop(&mut self) {
        // Unwinding out of the section is a killed operation: it may
        // have changed a lane and not the journal, or the reverse.
        if std::thread::panicking() {
            self.mark_dirty();
        }
        self.order.serving.fetch_add(1, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_journal_pops_newest() {
        let order = StrictOrder::new(8, false);
        let g = order.acquire();
        g.push_lane(0);
        g.push_lane(1);
        g.push_lane(0);
        assert_eq!(g.len(), 3);
        assert_eq!(g.pop_lane(), Some(0));
        assert_eq!(g.pop_lane(), Some(1));
        assert_eq!(g.pop_lane(), Some(0));
        assert_eq!(g.pop_lane(), None);
    }

    #[test]
    fn fifo_journal_pops_oldest_and_wraps() {
        let order = StrictOrder::new(3, true);
        let g = order.acquire();
        for lane in [2, 0, 1] {
            g.push_lane(lane);
        }
        assert_eq!(g.pop_lane(), Some(2));
        g.push_lane(3); // wraps the ring
        assert_eq!(g.pop_lane(), Some(0));
        assert_eq!(g.pop_lane(), Some(1));
        assert_eq!(g.pop_lane(), Some(3));
        assert_eq!(g.pop_lane(), None);
    }

    #[test]
    fn count_and_remove_heal_primitives() {
        let order = StrictOrder::new(8, true);
        let g = order.acquire();
        for lane in [0, 1, 0, 2, 0] {
            g.push_lane(lane);
        }
        assert_eq!(g.count_lane(0), 3);
        assert_eq!(g.count_lane(1), 1);
        g.remove_lane_entries(0, 2); // drop the two newest 0-entries
        assert_eq!(g.count_lane(0), 1);
        assert_eq!(g.len(), 3);
        // FIFO order of survivors preserved: 0, 1, 2.
        assert_eq!(g.pop_lane(), Some(0));
        assert_eq!(g.pop_lane(), Some(1));
        assert_eq!(g.pop_lane(), Some(2));
    }

    #[test]
    fn latch_serializes_and_releases_on_unwind() {
        let order = std::sync::Arc::new(StrictOrder::new(64, false));
        // A panicking holder must not wedge the latch.
        let o = std::sync::Arc::clone(&order);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _g = o.acquire();
            panic!("simulated kill inside the order section");
        }));
        std::thread::scope(|s| {
            for t in 0..4 {
                let order = std::sync::Arc::clone(&order);
                s.spawn(move || {
                    for _ in 0..200 {
                        let g = order.acquire();
                        g.push_lane(t);
                        assert_eq!(g.pop_lane(), Some(t));
                    }
                });
            }
        });
        let g = order.acquire();
        assert_eq!(g.len(), 0);
        assert!(g.take_dirty(), "the kill must have flagged the journal");
        assert!(!g.take_dirty(), "one kill, one reconciliation owed");
    }
}
