//! Waiting and pacing for retry loops: the [`Deadline`] a bounded
//! wait polls, the [`Spinner`] a blocking wait spins and yields on,
//! [`retry_pause`] (the fixed sleep between two lock-free attempts of
//! Figure 3's line-02 loop), and the [`XorShift64`] generator.

use std::hint;
use std::thread;
use std::time::{Duration, Instant};

use crate::runtime;

/// A point in time a wait loop must not spin past.
///
/// The paper's waits (Figure 3 line 05, the line-08 retry loop, every
/// lock acquisition) are unbounded: if the awaited process stalls
/// forever — the §5 crash caveat — so does the waiter. A `Deadline`
/// bounds that: deadline-aware loops poll [`Deadline::expired`] and
/// bail out with a timeout the caller can handle.
///
/// ```
/// use cso_memory::backoff::Deadline;
/// use std::time::Duration;
///
/// let d = Deadline::after(Duration::from_secs(60));
/// assert!(!d.expired());
/// assert!(d.remaining().is_some_and(|left| left <= Duration::from_secs(60)));
/// assert!(!Deadline::NEVER.expired());
/// assert_eq!(Deadline::NEVER.remaining(), None);
/// let past = Deadline::after(Duration::ZERO);
/// assert!(past.expired());
/// assert_eq!(past.remaining(), Some(Duration::ZERO));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    /// `None` = never expires.
    at: Option<Instant>,
}

impl Deadline {
    /// A deadline that never expires (waits degrade to unbounded).
    pub const NEVER: Deadline = Deadline { at: None };

    /// A deadline `timeout` from now.
    #[must_use]
    pub fn after(timeout: Duration) -> Deadline {
        Deadline {
            at: Instant::now().checked_add(timeout),
        }
    }

    /// A deadline at an absolute instant.
    #[must_use]
    pub fn at(instant: Instant) -> Deadline {
        Deadline { at: Some(instant) }
    }

    /// Whether the deadline has passed. Inlined so that a
    /// [`Deadline::NEVER`] known at the call site folds to `false`: the
    /// unbounded entry points are instances of the bounded ones.
    #[must_use]
    #[inline]
    pub fn expired(&self) -> bool {
        match self.at {
            Some(at) => Instant::now() >= at,
            None => false,
        }
    }

    /// Time left, or `None` when unbounded; `Some(ZERO)` once expired.
    #[must_use]
    pub fn remaining(&self) -> Option<Duration> {
        self.at
            .map(|at| at.saturating_duration_since(Instant::now()))
    }
}

/// A deterministic xorshift64* pseudo-random generator.
///
/// Used for the exchanger's slot selection and the seeded workloads of
/// the tests.
/// Not cryptographic; deliberately dependency-free so the core crates
/// stay `std`-only.
///
/// ```
/// use cso_memory::backoff::XorShift64;
/// let mut rng = XorShift64::new(42);
/// let a = rng.next_u64();
/// let b = rng.next_u64();
/// assert_ne!(a, b);
/// assert!(rng.next_below(10) < 10);
/// ```
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Creates a generator from a seed (a zero seed is remapped to a
    /// fixed non-zero constant, since xorshift has a fixed point at 0).
    #[must_use]
    pub fn new(seed: u64) -> XorShift64 {
        XorShift64 {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Creates a generator seeded from the current thread and time —
    /// or, on a model thread, from the session's deterministic entropy
    /// (so replayed schedules reseed identically).
    #[must_use]
    pub fn from_entropy() -> XorShift64 {
        if let Some(seed) = runtime::entropy_seed() {
            return XorShift64::new(seed);
        }
        use std::collections::hash_map::RandomState;
        use std::hash::{BuildHasher, Hasher};
        let mut hasher = RandomState::new().build_hasher();
        hasher.write_u64(0xC0FF_EE00);
        XorShift64::new(hasher.finish())
    }

    /// Returns the next pseudo-random 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Returns a pseudo-random value in `0..bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        self.next_u64() % bound
    }
}

/// A cooperative wait-loop helper: busy-spins a handful of iterations
/// (cheap when the awaited condition flips quickly on another core),
/// then starts yielding the OS thread (essential when cores are scarce
/// — a pure spinner would burn its whole quantum while the thread it
/// waits for is descheduled).
///
/// Use one `Spinner` per wait loop:
///
/// ```
/// use cso_memory::backoff::Spinner;
/// use std::sync::atomic::{AtomicBool, Ordering};
///
/// let ready = AtomicBool::new(true);
/// let mut spinner = Spinner::new();
/// while !ready.load(Ordering::Acquire) {
///     spinner.spin();
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Spinner {
    count: u32,
}

impl Spinner {
    /// Busy-spin iterations before the first yield.
    pub const SPIN_LIMIT: u32 = 64;

    /// Creates a fresh spinner.
    #[must_use]
    pub fn new() -> Spinner {
        Spinner { count: 0 }
    }

    /// Waits one step: a pause instruction for the first
    /// [`Spinner::SPIN_LIMIT`] calls, a `thread::yield_now` after.
    pub fn spin(&mut self) {
        if runtime::spin_hint() {
            return;
        }
        if self.count < Self::SPIN_LIMIT {
            self.count += 1;
            hint::spin_loop();
        } else {
            thread::yield_now();
        }
    }

    /// Deadline-aware wait step: like [`Spinner::spin`], but returns
    /// `false` — without waiting — once `deadline` has expired.
    /// Checking *before* waiting keeps the first call of an
    /// already-expired deadline from burning a yield.
    ///
    /// ```
    /// use cso_memory::backoff::{Deadline, Spinner};
    /// use std::time::Duration;
    ///
    /// let deadline = Deadline::after(Duration::from_millis(1));
    /// let mut spinner = Spinner::new();
    /// while spinner.spin_deadline(deadline) {
    ///     // ... re-check the awaited condition ...
    /// }
    /// assert!(deadline.expired());
    /// ```
    #[inline]
    pub fn spin_deadline(&mut self, deadline: Deadline) -> bool {
        if deadline.expired() {
            return false;
        }
        self.spin();
        true
    }
}

impl Default for Spinner {
    fn default() -> Spinner {
        Spinner::new()
    }
}

/// The window between two lock-free attempts of Figure 3's line-02
/// loop: what one [`retry_pause`] asks the OS to sleep.
///
/// A **request, not the window**: Linux wakes a sleeping thread within
/// its timer slack (50 µs by default), and on the 2-vCPU host the
/// window was sized on a 1 µs request sleeps 56–57 µs at the median
/// and 63–64 µs at p99 (3,000 calls; 10 µs sleeps 66 / 75–80 and
/// 50 µs 105 / 114). So the slack, not this constant, sets the window
/// there, and the smallest request on the throughput plateau is the
/// one that ships: the sweep in DESIGN.md, "The escalation ladder",
/// finds `contended` level from 1 to 10 µs and 12 % slower at 50.
pub const RETRY_PAUSE: Duration = Duration::from_micros(1);

/// The pause between two lock-free attempts at one contended word,
/// after Dice, Hendler & Mirsky's *Lightweight Contention Management
/// for Efficient Compare-and-Swap Operations*: a failed CAS means the
/// line just moved to another core, and retrying at once only takes it
/// back mid-operation.
///
/// **Constant and stateless** on purpose. Every caller waits the same
/// window whatever happened before, so two threads that collide are
/// treated symmetrically: no per-thread history in which the loser
/// waits longer and the winner shorter (positive feedback), no RNG,
/// and no `yield_now`. The wait is a timed sleep of [`RETRY_PAUSE`]:
/// the thread leaves the CPU for the window instead of spinning
/// through it, so the wait costs no CPU time, and on an
/// oversubscribed host another thread runs meanwhile. It is for
/// *bounded* retry loops, which fall back to a blocking path whose
/// wait ([`Spinner`]) yields, so oversubscribed runs stay live.
///
/// A pacing delay awaits nothing, so to a model session it is an
/// ordinary yield point — the caller may be scheduled straight on or
/// overtaken — and not a spin hint, which would park the thread until
/// every other thread pauses. Inside a session the sleep itself is
/// skipped: the explorer's schedules do not depend on time.
///
/// ```
/// cso_memory::backoff::retry_pause(); // ≈ 60 µs on Linux, returns
/// ```
#[inline]
pub fn retry_pause() {
    if runtime::before_pause() {
        return;
    }
    thread::sleep(RETRY_PAUSE);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xorshift_is_deterministic() {
        let mut a = XorShift64::new(7);
        let mut b = XorShift64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn xorshift_zero_seed_is_remapped() {
        let mut rng = XorShift64::new(0);
        assert_ne!(rng.next_u64(), 0);
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = XorShift64::new(123);
        for bound in [1u64, 2, 3, 17, 1000] {
            for _ in 0..200 {
                assert!(rng.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn xorshift_covers_residues() {
        // Sanity: over 1000 draws mod 8, every residue appears.
        let mut rng = XorShift64::new(99);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[(rng.next_u64() % 8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn deadline_expires_and_reports_remaining() {
        let d = Deadline::after(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(1));
        assert!(d.expired());
        assert_eq!(d.remaining(), Some(Duration::ZERO));
        assert!(!Deadline::NEVER.expired());
        assert_eq!(Deadline::NEVER.remaining(), None);
        let far = Deadline::after(Duration::from_secs(3600));
        assert!(!far.expired());
        assert!(far.remaining().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn spin_deadline_refuses_after_expiry() {
        let expired = Deadline::at(Instant::now());
        let mut spinner = Spinner::new();
        assert!(!spinner.spin_deadline(expired));
        let mut spins = 0u32;
        let live = Deadline::after(Duration::from_millis(2));
        let mut spinner = Spinner::new();
        while spinner.spin_deadline(live) {
            spins += 1;
            assert!(spins < 100_000_000, "deadline never fired");
        }
        assert!(live.expired());
    }

    #[test]
    fn retry_pause_lasts_at_least_the_window() {
        let t0 = Instant::now();
        retry_pause();
        assert!(t0.elapsed() >= RETRY_PAUSE);
    }
}
