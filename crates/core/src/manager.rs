//! Contention managers: what to do between retries.
//!
//! The paper's Figure 2 retries a weak operation immediately. §5 points
//! at the contention-manager literature (Fich et al. \[4\], Taubenfeld
//! \[25\], Guerraoui et al. \[5\]) for how obstruction-free or non-blocking
//! algorithms are boosted in practice. The policies here are the
//! standard spectrum.

use std::cell::RefCell;

use cso_memory::backoff::XorShift64;

/// A policy consulted by the retry transformations after each aborted
/// attempt.
///
/// Implementations must be cheap and must not access the object: their
/// only job is to *wait* in a way that lets conflicting operations
/// drain.
pub trait ContentionManager: Send + Sync {
    /// Called after the `attempt`-th consecutive abort of one logical
    /// operation (`attempt` starts at 0 and resets on success).
    fn on_abort(&self, attempt: u32);
}

/// Retry immediately — the literal Figure 2 loop.
///
/// ```
/// use cso_core::{ContentionManager, NoBackoff};
/// NoBackoff.on_abort(3); // returns immediately
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct NoBackoff;

impl ContentionManager for NoBackoff {
    fn on_abort(&self, _attempt: u32) {}
}

/// Spin a fixed number of pause instructions between retries.
#[derive(Debug, Clone, Copy)]
pub struct SpinBackoff {
    pauses: u32,
}

impl SpinBackoff {
    /// A policy spinning `pauses` pause instructions per abort.
    #[must_use]
    pub fn new(pauses: u32) -> SpinBackoff {
        SpinBackoff { pauses }
    }
}

impl Default for SpinBackoff {
    fn default() -> SpinBackoff {
        SpinBackoff::new(32)
    }
}

impl ContentionManager for SpinBackoff {
    fn on_abort(&self, _attempt: u32) {
        for _ in 0..self.pauses {
            std::hint::spin_loop();
        }
    }
}

/// Randomized exponential backoff: wait a uniform number of pauses in
/// `[0, 2^min(attempt, cap))`, yielding the thread once attempts pile
/// up (essential on oversubscribed machines).
#[derive(Debug, Clone, Copy)]
pub struct ExpBackoff {
    /// `attempt` saturates at this exponent.
    cap: u32,
    /// Attempts at or beyond this yield the OS thread instead.
    yield_at: u32,
}

impl ExpBackoff {
    /// A policy with exponent cap `cap` and yield threshold `yield_at`.
    #[must_use]
    pub fn new(cap: u32, yield_at: u32) -> ExpBackoff {
        ExpBackoff { cap, yield_at }
    }
}

impl Default for ExpBackoff {
    fn default() -> ExpBackoff {
        ExpBackoff::new(10, 6)
    }
}

thread_local! {
    static RNG: RefCell<XorShift64> = RefCell::new(XorShift64::from_entropy());
}

impl ContentionManager for ExpBackoff {
    fn on_abort(&self, attempt: u32) {
        if attempt >= self.yield_at {
            std::thread::yield_now();
            return;
        }
        let exp = attempt.min(self.cap);
        let bound = 1u64 << exp;
        let pauses = RNG.with(|rng| rng.borrow_mut().next_below(bound + 1));
        for _ in 0..pauses {
            std::hint::spin_loop();
        }
    }
}

/// Yield the OS thread on every abort — the right default when threads
/// outnumber cores.
#[derive(Debug, Clone, Copy, Default)]
pub struct YieldBackoff;

impl ContentionManager for YieldBackoff {
    fn on_abort(&self, _attempt: u32) {
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_policies_return() {
        // Liveness smoke tests: each policy must come back promptly
        // for small and large attempt numbers.
        for attempt in [0, 1, 5, 31, 1000] {
            NoBackoff.on_abort(attempt);
            SpinBackoff::new(8).on_abort(attempt);
            ExpBackoff::default().on_abort(attempt);
            YieldBackoff.on_abort(attempt);
        }
    }

    #[test]
    fn exp_backoff_saturates_exponent() {
        // attempt > cap must not overflow the shift.
        ExpBackoff::new(3, 1000).on_abort(500);
    }

    #[test]
    fn policies_are_object_safe() {
        let policies: Vec<Box<dyn ContentionManager>> = vec![
            Box::new(NoBackoff),
            Box::new(SpinBackoff::default()),
            Box::new(ExpBackoff::default()),
            Box::new(YieldBackoff),
        ];
        for p in &policies {
            p.on_abort(2);
        }
    }
}
