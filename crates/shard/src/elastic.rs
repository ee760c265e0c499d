//! The elastic lane controller: a reader of cells the operations
//! already write.
//!
//! An operation tells the controller nothing. What the controller
//! wants to know — how many threads are using the structure, and
//! whether they get in each other's way — is already recorded, by
//! writers, in cells they own (the per-writer-cell layout of
//! Write-and-f-array, PAPERS.md): every thread bumps its own stripe of
//! the router's `PUSHES`/`POPS` counters, and every lane counts its own
//! aborted weak operations and lock tenures. So the sensor is a *fold*
//! of those cells, run by whichever thread's own count of pushes (on a
//! push) or pops (on a pop) — the value its stripe update already has
//! in hand — crosses a multiple of `eval_period`:
//!
//! * **writers** — the stripes that advanced since the previous
//!   evaluation, i.e. the threads that completed an operation in the
//!   window;
//! * **collided** — whether the active lanes' abort/locked counts
//!   advanced in the same window.
//!
//! The active prefix doubles while writers outnumber the active lanes
//! *and* collide, and halves while the halved prefix would still hold
//! a lane per writer (fewer writers than lanes, with room to spare, so
//! a fold is never undone by the next fan-out test). A solo thread
//! therefore sits at one lane — its budget is exactly one unsharded
//! cell's — and threads that do not interfere are left where they are.
//!
//! Decisions are **operation-count driven, never wall-clock driven**,
//! and a `cooldown_evals` hysteresis separates consecutive
//! transitions. That keeps the controller inside the model runtime's
//! determinism contract — the same schedule always produces the same
//! split/merge history (`tests/model_shard.rs` explores exactly this).
//!
//! Active lanes are always the prefix `0..active`. Pushes route only
//! into the active prefix (spilling past it only when every active
//! lane is full); pops steal from *all* lanes, so shrinking the
//! prefix can never strand elements — deactivated lanes simply drain.
//!
//! All state here is uncounted (`std::sync`): the controller costs
//! none of Theorem 1's budget, and between evaluations an operation
//! loads `active` and nothing else.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use cso_memory::stripes::STRIPES;
use cso_memory::CachePadded;

/// A thread's completed operations, per stripe of the router's
/// statistics block (the overflow stripe last).
pub(crate) type OpsPerStripe = [u64; STRIPES + 1];

/// What the last evaluation read, for the next one to difference
/// against; touched only by the evaluator.
#[derive(Debug)]
struct Window {
    ops: OpsPerStripe,
    /// Summed over the lanes that were active when it was read.
    collisions: u64,
    /// Evaluations to skip before the next transition is allowed.
    cooldown: usize,
}

#[derive(Debug)]
pub(crate) struct Elastic {
    /// Length of the active lane prefix, `1..=max_lanes`.
    active: AtomicUsize,
    splits: AtomicU64,
    merges: AtomicU64,
    max_lanes: usize,
    /// `eval_period − 1`, the period rounded up to a power of two: the
    /// cadence test is on every operation, and a mask is not a divide.
    eval_mask: u64,
    cooldown_evals: usize,
    enabled: bool,
    /// The evaluator's state, and — as a `try_lock` — its claim. On
    /// lines of its own: everything above is read by every operation
    /// and written only by a transition.
    window: CachePadded<Mutex<Window>>,
}

impl Elastic {
    pub(crate) fn new(
        max_lanes: usize,
        enabled: bool,
        eval_period: usize,
        cooldown_evals: usize,
    ) -> Elastic {
        assert!(eval_period > 0, "eval_period must be nonzero");
        Elastic {
            active: AtomicUsize::new(if enabled { 1 } else { max_lanes }),
            splits: AtomicU64::new(0),
            merges: AtomicU64::new(0),
            max_lanes,
            eval_mask: eval_period.next_power_of_two() as u64 - 1,
            cooldown_evals,
            enabled,
            window: CachePadded::new(Mutex::new(Window {
                ops: [0; STRIPES + 1],
                collisions: 0,
                cooldown: 0,
            })),
        }
    }

    /// The active lane prefix length.
    #[inline]
    pub(crate) fn active(&self) -> usize {
        if self.enabled {
            self.active.load(Ordering::Acquire).clamp(1, self.max_lanes)
        } else {
            self.max_lanes
        }
    }

    /// Whether the thread whose own count of the operation it has just
    /// completed reads `own` is the one to evaluate. The `enabled` test
    /// is all a fixed-lane router inlines of the controller.
    #[inline]
    pub(crate) fn due(&self, own: u64) -> bool {
        self.enabled && own & self.eval_mask == 0
    }

    /// Re-evaluates the lane count from `ops`, the operations each
    /// stripe has completed, and `collisions(active)`, the abort/locked
    /// count of the first `active` lanes. Runs **once per
    /// `eval_period` operations of one thread** — every write and the
    /// one RMW of the controller (the `try_lock` claim: a second
    /// evaluator arriving meanwhile leaves, the window is already
    /// being read) are in here, and none of them is per operation.
    pub(crate) fn evaluate(&self, ops: OpsPerStripe, collisions: impl Fn(usize) -> u64) {
        let Ok(mut window) = self.window.try_lock() else {
            return;
        };
        let active = self.active();
        // The evaluator is a writer even when a concurrent evaluation
        // already saw its last operation.
        let writers = (ops.iter().zip(&window.ops))
            .filter(|(now, then)| now != then)
            .count()
            .max(1);
        let collisions_now = collisions(active);
        let collided = collisions_now != window.collisions;
        window.ops = ops;
        window.collisions = collisions_now;
        if window.cooldown > 0 {
            window.cooldown -= 1;
            return;
        }
        let target = if writers > active && collided {
            (active * 2).min(self.max_lanes)
        } else if writers <= active / 2 {
            active / 2
        } else {
            active
        };
        if target == active {
            return;
        }
        // Single writer under the claim: plain load + store.
        let tally = if target > active {
            &self.splits
        } else {
            &self.merges
        };
        tally.store(tally.load(Ordering::Relaxed) + 1, Ordering::Release);
        self.active.store(target, Ordering::Release);
        window.cooldown = self.cooldown_evals;
        window.collisions = collisions(target);
    }

    pub(crate) fn splits(&self) -> u64 {
        self.splits.load(Ordering::Acquire)
    }

    pub(crate) fn merges(&self) -> u64 {
        self.merges.load(Ordering::Acquire)
    }

    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One evaluation after `writers` stripes each completed another
    /// operation, the lanes' collision count reading `collisions`.
    fn window(e: &Elastic, ops: &mut OpsPerStripe, writers: usize, collisions: u64) {
        for stripe in &mut ops[..writers] {
            *stripe += 1;
        }
        e.evaluate(*ops, |_| collisions);
    }

    #[test]
    fn disabled_controller_pins_all_lanes_active() {
        let e = Elastic::new(8, false, 4, 0);
        assert!(
            !e.enabled() && !e.due(4),
            "a fixed-lane router is never due"
        );
        let mut ops = [0; STRIPES + 1];
        for collisions in 1..=4 {
            window(&e, &mut ops, STRIPES + 1, collisions);
        }
        assert_eq!(e.active(), 8);
    }

    #[test]
    fn sustained_contention_splits_and_quiet_merges() {
        let e = Elastic::new(4, true, 4, 0);
        let mut ops = [0; STRIPES + 1];
        assert_eq!(e.active(), 1);
        // Four writers that collide in every window: double, twice.
        window(&e, &mut ops, 4, 1);
        window(&e, &mut ops, 4, 2);
        assert_eq!((e.active(), e.splits()), (4, 2), "must fan out");
        // A lane each: nothing to do, colliding or not.
        window(&e, &mut ops, 4, 3);
        window(&e, &mut ops, 4, 3);
        assert_eq!(e.active(), 4);
        // Three writers would not fit in two lanes: stay.
        window(&e, &mut ops, 3, 3);
        assert_eq!(e.active(), 4);
        // One writer left: halve, twice.
        window(&e, &mut ops, 1, 3);
        window(&e, &mut ops, 1, 3);
        assert_eq!((e.active(), e.merges()), (1, 2), "must contract");
        // Writers that outnumber the lanes without colliding are left
        // where they are.
        window(&e, &mut ops, 4, 3);
        assert_eq!((e.active(), e.splits()), (1, 2));
    }

    #[test]
    fn cooldown_spaces_transitions() {
        let e = Elastic::new(8, true, 4, 2);
        let mut ops = [0; STRIPES + 1];
        window(&e, &mut ops, 8, 1);
        assert_eq!(e.active(), 2);
        // The next two evaluations are absorbed by the cooldown.
        window(&e, &mut ops, 8, 2);
        window(&e, &mut ops, 8, 3);
        assert_eq!(e.active(), 2);
        window(&e, &mut ops, 8, 4);
        assert_eq!((e.active(), e.splits()), (4, 2));
    }

    #[test]
    fn a_thread_evaluates_at_multiples_of_the_period_of_its_own_count() {
        let e = Elastic::new(2, true, 4, 0);
        assert_eq!((1..=12).filter(|&own| e.due(own)).count(), 3);
        // Rounded up to a power of two.
        let e = Elastic::new(2, true, 5, 0);
        assert_eq!((1..=16).filter(|&own| e.due(own)).count(), 2);
    }
}
