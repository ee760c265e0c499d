//! The adaptive contention gate: an EWMA of fast-path abort rates
//! with hysteresis.
//!
//! Figure 3's `CONTENTION` register is binary: one slow-path tenure
//! diverts *every* arriving operation to the lock until it clears.
//! That is the right call while a lock holder is actually working, but
//! it has no memory — a single collision looks the same as a sustained
//! storm. The gate adds that memory: it tracks an exponentially
//! weighted moving average of recent fast-path outcomes (1 = aborted,
//! 0 = succeeded) and **engages** — diverting operations straight to
//! the slow path — only when the average says the fast path is
//! genuinely losing. Hysteresis (engage high, disengage low) keeps a
//! lone abort from stampeding everyone onto the lock, and a periodic
//! *probe* (every [`AdaptiveGate::PROBE_PERIOD`]-th operation is let
//! through while engaged) feeds the average fresh evidence so the gate
//! can disengage once contention drains — without it, an engaged gate
//! would starve itself of observations and stick forever.
//!
//! The gate is a heuristic layered *beside* the paper's machinery, not
//! a replacement for it: `CONTENTION` still guards the fast path and
//! still provides the Lemma 2 termination argument. Everything here
//! lives in plain (uncounted) atomics, so the contention-free fast
//! path still performs exactly the six counted shared-memory accesses
//! of Theorem 1 — enforced by the step-budget regression tests.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

/// Fixed-point scale: `SCALE` represents an abort rate of 1.0.
const SCALE: u32 = 1 << 16;
/// EWMA smoothing: `alpha = 1 / 2^ALPHA_SHIFT` (1/8 — a few dozen
/// operations of memory).
const ALPHA_SHIFT: u32 = 3;
/// Engage when the smoothed abort rate exceeds one half…
const ENTER: u32 = SCALE / 2;
/// …and disengage only once it has decayed below one sixteenth.
const EXIT: u32 = SCALE / 16;

/// Cumulative gate activity, for diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GateStats {
    /// Times the gate transitioned disengaged → engaged.
    pub engages: u64,
    /// Operations diverted to the slow path by an engaged gate.
    pub diverted: u64,
}

/// See the module docs. One instance guards one
/// [`crate::ContentionSensitive`]; all methods are lock-free and cost
/// a handful of relaxed atomic operations on *uncounted* memory.
#[derive(Debug)]
pub struct AdaptiveGate {
    /// Smoothed abort rate in fixed point (`SCALE` = 1.0). Updates are
    /// load/store rather than CAS: the occasional lost update under
    /// races is irrelevant to a smoothed heuristic and keeps the fast
    /// path cheap.
    ewma: AtomicU32,
    engaged: AtomicBool,
    /// Operations seen while engaged, for probe scheduling.
    tick: AtomicU32,
    engages: AtomicU64,
    diverted: AtomicU64,
}

impl AdaptiveGate {
    /// While engaged, every this-many-th operation probes the fast
    /// path instead of diverting, feeding the EWMA the evidence it
    /// needs to disengage.
    pub const PROBE_PERIOD: u32 = 16;

    /// A disengaged gate with a zero abort estimate.
    #[must_use]
    pub fn new() -> AdaptiveGate {
        AdaptiveGate {
            ewma: AtomicU32::new(0),
            engaged: AtomicBool::new(false),
            tick: AtomicU32::new(0),
            engages: AtomicU64::new(0),
            diverted: AtomicU64::new(0),
        }
    }

    /// Records one fast-path outcome and updates the engage/disengage
    /// state through the hysteresis band.
    pub fn record(&self, aborted: bool) {
        let old = self.ewma.load(Ordering::Relaxed);
        let sample = if aborted { SCALE } else { 0 };
        let new = old - (old >> ALPHA_SHIFT) + (sample >> ALPHA_SHIFT);
        self.ewma.store(new, Ordering::Relaxed);
        if new >= ENTER {
            if !self.engaged.swap(true, Ordering::Relaxed) {
                self.engages.fetch_add(1, Ordering::Relaxed);
                self.tick.store(0, Ordering::Relaxed);
            }
        } else if new <= EXIT {
            self.engaged.store(false, Ordering::Relaxed);
        }
    }

    /// Asks whether the next operation should skip the fast path.
    /// Disengaged: always `false` (one relaxed load). Engaged: `true`,
    /// except for the periodic probe that is let through to re-measure.
    pub fn should_divert(&self) -> bool {
        if !self.engaged.load(Ordering::Relaxed) {
            return false;
        }
        let t = self.tick.fetch_add(1, Ordering::Relaxed);
        if t % Self::PROBE_PERIOD == Self::PROBE_PERIOD - 1 {
            return false;
        }
        self.diverted.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Whether the gate is currently diverting operations.
    #[must_use]
    pub fn engaged(&self) -> bool {
        self.engaged.load(Ordering::Relaxed)
    }

    /// The smoothed abort-rate estimate in `[0.0, 1.0]`.
    #[must_use]
    pub fn abort_ewma(&self) -> f64 {
        f64::from(self.ewma.load(Ordering::Relaxed)) / f64::from(SCALE)
    }

    /// Snapshot of the cumulative activity counters.
    #[must_use]
    pub fn stats(&self) -> GateStats {
        GateStats {
            engages: self.engages.load(Ordering::Relaxed),
            diverted: self.diverted.load(Ordering::Relaxed),
        }
    }

    /// Forces the gate into the engaged state with a saturated abort
    /// estimate — deterministic setup for tests and experiments (the
    /// probe/decay machinery then disengages it normally).
    pub fn force_engage(&self) {
        self.ewma.store(SCALE, Ordering::Relaxed);
        if !self.engaged.swap(true, Ordering::Relaxed) {
            self.engages.fetch_add(1, Ordering::Relaxed);
            self.tick.store(0, Ordering::Relaxed);
        }
    }

    /// Returns the gate to its initial state (estimate and counters).
    pub fn reset(&self) {
        self.ewma.store(0, Ordering::Relaxed);
        self.engaged.store(false, Ordering::Relaxed);
        self.tick.store(0, Ordering::Relaxed);
        self.engages.store(0, Ordering::Relaxed);
        self.diverted.store(0, Ordering::Relaxed);
    }
}

impl Default for AdaptiveGate {
    fn default() -> AdaptiveGate {
        AdaptiveGate::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_abort_does_not_stampede() {
        let gate = AdaptiveGate::new();
        gate.record(true);
        assert!(!gate.engaged(), "one collision must not engage the gate");
        assert!(!gate.should_divert());
        assert!(gate.abort_ewma() < 0.2);
    }

    #[test]
    fn sustained_aborts_engage_with_hysteresis() {
        let gate = AdaptiveGate::new();
        let mut to_engage = 0;
        while !gate.engaged() {
            gate.record(true);
            to_engage += 1;
            assert!(to_engage < 100, "gate never engaged");
        }
        // alpha = 1/8, enter at 0.5: needs several consecutive aborts.
        assert!(to_engage >= 4, "engaged after only {to_engage} aborts");
        assert_eq!(gate.stats().engages, 1);

        // One success must NOT disengage (hysteresis): the estimate has
        // to decay all the way below EXIT.
        gate.record(false);
        assert!(gate.engaged(), "hysteresis: one success disengaged");
        let mut to_disengage = 1;
        while gate.engaged() {
            gate.record(false);
            to_disengage += 1;
            assert!(to_disengage < 100, "gate never disengaged");
        }
        assert!(
            to_disengage > to_engage,
            "exit band must be slower than entry"
        );
    }

    #[test]
    fn engaged_gate_diverts_but_probes_periodically() {
        let gate = AdaptiveGate::new();
        gate.force_engage();
        let mut probes = 0;
        let rounds = AdaptiveGate::PROBE_PERIOD * 4;
        for _ in 0..rounds {
            if !gate.should_divert() {
                probes += 1;
            }
        }
        assert_eq!(probes, 4, "one probe per PROBE_PERIOD operations");
        assert_eq!(gate.stats().diverted, u64::from(rounds) - 4);
    }

    #[test]
    fn probe_successes_eventually_disengage() {
        let gate = AdaptiveGate::new();
        gate.force_engage();
        let mut ops = 0u32;
        while gate.engaged() {
            if !gate.should_divert() {
                // The probe went to the fast path and succeeded.
                gate.record(false);
            }
            ops += 1;
            assert!(ops < 10_000, "engaged gate never decayed");
        }
        assert!(!gate.should_divert(), "disengaged gate lets ops through");
    }

    #[test]
    fn reset_restores_initial_state() {
        let gate = AdaptiveGate::new();
        gate.force_engage();
        let _ = gate.should_divert();
        gate.reset();
        assert!(!gate.engaged());
        assert_eq!(gate.stats(), GateStats::default());
        assert_eq!(gate.abort_ewma(), 0.0);
    }
}
