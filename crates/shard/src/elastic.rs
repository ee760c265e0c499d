//! The elastic lane controller: gate-driven split/merge.
//!
//! Reuses [`AdaptiveGate`] — the EWMA gate that arbitrates the
//! combining slow path — as the contention sensor for the *lane
//! count*. The signal fed to the gate is in-flight overlap: an
//! operation that enters while another operation is already inside
//! the structure records a "contended" sample. Solo traffic therefore
//! drives the EWMA to zero (merge down to one lane — the solo budget
//! is then exactly one unsharded cell's), and sustained overlap
//! engages the gate (split up to the configured maximum).
//!
//! Decisions are **operation-count driven, never wall-clock driven**:
//! every `eval_period`-th operation evaluates the gate, and a
//! `cooldown_evals` hysteresis separates consecutive transitions.
//! That keeps the controller inside the model runtime's determinism
//! contract — the same schedule always produces the same split/merge
//! history (`tests/model_shard.rs` explores exactly this).
//!
//! Active lanes are always the prefix `0..active`. Pushes route only
//! into the active prefix (spilling past it only when every active
//! lane is full); pops steal from *all* lanes, so shrinking the
//! prefix can never strand elements — deactivated lanes simply drain.
//!
//! All state here is uncounted (`std::sync::atomic`): the controller
//! costs none of Theorem 1's budget.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use cso_core::AdaptiveGate;
use cso_memory::CachePadded;

#[derive(Debug)]
pub(crate) struct Elastic {
    /// EWMA contention gate (engaged ⇒ fan out).
    gate: AdaptiveGate,
    /// Length of the active lane prefix, `1..=max_lanes`.
    active: AtomicUsize,
    /// Operations currently inside the structure (overlap sensor).
    inflight: CachePadded<AtomicUsize>,
    /// Operation counter driving the evaluation cadence.
    ops: CachePadded<AtomicUsize>,
    /// Evaluations to skip before the next transition is allowed.
    cooldown: AtomicUsize,
    splits: AtomicU64,
    merges: AtomicU64,
    max_lanes: usize,
    eval_period: usize,
    cooldown_evals: usize,
    enabled: bool,
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
            gate: AdaptiveGate::new(),
            active: AtomicUsize::new(if enabled { 1 } else { max_lanes }),
            inflight: CachePadded::new(AtomicUsize::new(0)),
            ops: CachePadded::new(AtomicUsize::new(0)),
            cooldown: AtomicUsize::new(0),
            splits: AtomicU64::new(0),
            merges: AtomicU64::new(0),
            max_lanes,
            eval_period,
            cooldown_evals,
            enabled,
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

    /// Marks an operation as entering; returns `true` when another
    /// operation is already in flight (a "contended" sample). No-op
    /// (always solo) when elasticity is disabled.
    #[inline]
    pub(crate) fn enter(&self) -> bool {
        if !self.enabled {
            return false;
        }
        self.inflight.fetch_add(1, Ordering::AcqRel) > 0
    }

    /// Marks the operation as leaving (paired with [`Elastic::enter`]).
    #[inline]
    pub(crate) fn exit(&self) {
        if self.enabled {
            self.inflight.fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// Feeds the overlap sample to the gate and, every `eval_period`
    /// operations, re-evaluates the lane count: engaged gate ⇒ double
    /// the active prefix; disengaged gate ⇒ halve it. The `enabled`
    /// test is all a fixed-lane router inlines of this.
    #[inline]
    pub(crate) fn record(&self, contended: bool) {
        if self.enabled {
            self.sample(contended);
        }
    }

    fn sample(&self, contended: bool) {
        self.gate.record(contended);
        let tick = self.ops.fetch_add(1, Ordering::AcqRel) + 1;
        if tick % self.eval_period != 0 {
            return;
        }
        // Only the thread that crossed the period boundary evaluates.
        if self
            .cooldown
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |c| c.checked_sub(1))
            .is_ok()
        {
            return; // still cooling down after the last transition
        }
        let active = self.active();
        let target = if self.gate.engaged() {
            (active * 2).min(self.max_lanes)
        } else {
            (active / 2).max(1)
        };
        if target > active {
            self.active.store(target, Ordering::Release);
            self.splits.fetch_add(1, Ordering::AcqRel);
            self.cooldown.store(self.cooldown_evals, Ordering::Release);
        } else if target < active {
            self.active.store(target, Ordering::Release);
            self.merges.fetch_add(1, Ordering::AcqRel);
            self.cooldown.store(self.cooldown_evals, Ordering::Release);
        }
    }

    pub(crate) fn gate(&self) -> &AdaptiveGate {
        &self.gate
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

    #[test]
    fn disabled_controller_pins_all_lanes_active() {
        let e = Elastic::new(8, false, 4, 0);
        assert_eq!(e.active(), 8);
        assert!(!e.enter());
        e.exit();
        for _ in 0..256 {
            e.record(true);
        }
        assert_eq!(e.active(), 8);
        assert_eq!(e.splits(), 0);
    }

    #[test]
    fn sustained_contention_splits_and_quiet_merges() {
        let e = Elastic::new(4, true, 4, 0);
        assert_eq!(e.active(), 1);
        // Engage the gate, then let evaluations double the prefix.
        for _ in 0..256 {
            e.record(true);
        }
        assert_eq!(e.active(), 4, "sustained overlap must fan out");
        assert!(e.splits() >= 2);
        // Quiet traffic disengages the gate and merges back to 1.
        for _ in 0..1024 {
            e.record(false);
        }
        assert_eq!(e.active(), 1, "solo traffic must contract");
        assert!(e.merges() >= 2);
    }

    #[test]
    fn cooldown_spaces_transitions() {
        let e = Elastic::new(8, true, 4, 2);
        for _ in 0..4 {
            e.record(true);
        }
        let after_one_eval = e.active();
        for _ in 0..8 {
            e.record(true);
        }
        // Two more evaluation points passed, both absorbed by the
        // cooldown: the lane count must not have doubled twice more.
        assert!(e.active() <= after_one_eval * 2);
    }

    #[test]
    fn inflight_overlap_is_the_contention_signal() {
        let e = Elastic::new(2, true, 1, 0);
        assert!(!e.enter(), "first entrant sees no overlap");
        assert!(e.enter(), "second entrant overlaps the first");
        e.exit();
        e.exit();
    }
}
