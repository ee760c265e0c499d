//! The two lock interfaces used across the workspace.
//!
//! * [`RawLock`] — anonymous locks (`lock()`/`unlock()`), enough for
//!   test-and-set and ticket locks;
//! * [`ProcLock`] — identity-indexed locks (`lock(i)`/`unlock(i)` for
//!   `i ∈ 0..n`), required by algorithms that keep per-process state,
//!   like the paper's §4.4 `FLAG`/`TURN` booster and Lamport's fast
//!   mutex.

use cso_memory::backoff::{Deadline, Spinner};

use crate::guard::{LockGuard, ProcLockGuard};

/// An anonymous mutual-exclusion lock.
///
/// # Contract
///
/// [`RawLock::unlock`] must only be called by the thread that currently
/// holds the lock (i.e. whose matching [`RawLock::lock`] or successful
/// [`RawLock::try_lock`] has not been unlocked yet). Violating this is
/// a logic error — the locks in this crate are word-based, so memory
/// safety is preserved, but mutual exclusion is not. Prefer
/// [`RawLock::lock_guard`], which ties the release to a guard's drop.
pub trait RawLock: Send + Sync {
    /// Acquires the lock, spinning or blocking until it is available.
    fn lock(&self);

    /// Releases the lock. See the trait-level contract.
    fn unlock(&self);

    /// Attempts to acquire the lock without waiting; returns whether
    /// the acquisition succeeded.
    fn try_lock(&self) -> bool;

    /// Attempts to acquire the lock until `deadline` expires; returns
    /// whether the acquisition succeeded. The default implementation
    /// polls [`RawLock::try_lock`] through a [`Spinner`], so it never
    /// spins past the deadline. With [`Deadline::NEVER`] there is
    /// nothing to poll for: the wait is [`RawLock::lock`] itself, so a
    /// queue lock (ticket) enqueues and keeps its FIFO order.
    ///
    /// ```
    /// use cso_locks::{RawLock, TasLock};
    /// use cso_memory::backoff::Deadline;
    /// use std::time::Duration;
    ///
    /// let lock = TasLock::new();
    /// lock.lock();
    /// assert!(!lock.try_lock_until(Deadline::after(Duration::from_millis(1))));
    /// lock.unlock();
    /// assert!(lock.try_lock_until(Deadline::NEVER));
    /// lock.unlock();
    /// ```
    fn try_lock_until(&self, deadline: Deadline) -> bool {
        if deadline == Deadline::NEVER {
            self.lock();
            return true;
        }
        let mut spinner = Spinner::new();
        loop {
            if self.try_lock() {
                return true;
            }
            if !spinner.spin_deadline(deadline) {
                return false;
            }
        }
    }

    /// Acquires the lock and returns a guard that releases it on drop
    /// (including on unwind).
    ///
    /// ```
    /// use cso_locks::{RawLock, TasLock};
    /// let lock = TasLock::new();
    /// let guard = lock.lock_guard();
    /// assert!(!lock.try_lock());
    /// drop(guard);
    /// assert!(lock.try_lock());
    /// lock.unlock();
    /// ```
    fn lock_guard(&self) -> LockGuard<'_, Self>
    where
        Self: Sized,
    {
        self.lock();
        // SAFETY-free: the guard only pairs the unlock with this lock.
        LockGuard::new(self)
    }

    /// Runs `f` inside the critical section.
    fn with<R>(&self, f: impl FnOnce() -> R) -> R
    where
        Self: Sized,
    {
        let _guard = self.lock_guard();
        f()
    }
}

/// A mutual-exclusion lock indexed by process identity.
///
/// The paper's processes are `p_0..p_{n-1}` (we use 0-based ids; the
/// paper is 1-based). A `ProcLock` serves at most [`ProcLock::n`]
/// processes, each of which must pass its own identity consistently.
///
/// # Contract
///
/// * `proc` must be `< self.n()` and must not be used concurrently by
///   two threads;
/// * [`ProcLock::unlock`] must be called with the identity that
///   acquired the lock.
///
/// Violations are logic errors (possible loss of mutual exclusion or a
/// panic), never memory unsafety.
pub trait ProcLock: Send + Sync {
    /// Maximum number of processes this lock instance serves.
    fn n(&self) -> usize;

    /// Acquires the lock on behalf of process `proc`.
    fn lock(&self, proc: usize);

    /// Releases the lock on behalf of process `proc`.
    fn unlock(&self, proc: usize);

    /// Acquires on behalf of `proc` and returns a drop guard.
    fn lock_proc_guard(&self, proc: usize) -> ProcLockGuard<'_, Self>
    where
        Self: Sized,
    {
        self.lock(proc);
        ProcLockGuard::new(self, proc)
    }

    /// Runs `f` inside the critical section on behalf of `proc`.
    fn with_proc<R>(&self, proc: usize, f: impl FnOnce() -> R) -> R
    where
        Self: Sized,
    {
        let _guard = self.lock_proc_guard(proc);
        f()
    }
}

/// Adapts any [`RawLock`] into a [`ProcLock`] that ignores identities.
///
/// Useful to run a proc-indexed harness (`tests/model_locks.rs`) over
/// anonymous locks.
///
/// ```
/// use cso_locks::{Anonymous, ProcLock, TicketLock};
/// let lock = Anonymous::new(TicketLock::new(), 8);
/// lock.lock(3);
/// lock.unlock(3);
/// ```
#[derive(Debug)]
pub struct Anonymous<L> {
    inner: L,
    n: usize,
}

impl<L: RawLock> Anonymous<L> {
    /// Wraps `inner`, declaring it usable by `n` processes.
    pub fn new(inner: L, n: usize) -> Anonymous<L> {
        Anonymous { inner, n }
    }

    /// Returns the wrapped lock.
    pub fn into_inner(self) -> L {
        self.inner
    }
}

impl<L: RawLock> ProcLock for Anonymous<L> {
    fn n(&self) -> usize {
        self.n
    }

    fn lock(&self, proc: usize) {
        debug_assert!(proc < self.n);
        self.inner.lock();
    }

    fn unlock(&self, proc: usize) {
        debug_assert!(proc < self.n);
        self.inner.unlock();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TasLock;

    #[test]
    fn with_returns_closure_value() {
        let lock = TasLock::new();
        let out = lock.with(|| 41 + 1);
        assert_eq!(out, 42);
        assert!(lock.try_lock(), "lock must be free after with()");
        lock.unlock();
    }

    #[test]
    fn guard_releases_on_panic() {
        let lock = TasLock::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = lock.lock_guard();
            panic!("boom");
        }));
        assert!(result.is_err());
        assert!(lock.try_lock(), "guard must release on unwind");
        lock.unlock();
    }

    #[test]
    fn anonymous_adapter_is_a_proc_lock() {
        crate::testutil::stress_proc(Anonymous::new(TasLock::new(), 4), 4, 2_000);
    }

    #[test]
    fn with_proc_runs_in_cs() {
        let lock = Anonymous::new(TasLock::new(), 2);
        let v = lock.with_proc(1, || "ok");
        assert_eq!(v, "ok");
    }
}
