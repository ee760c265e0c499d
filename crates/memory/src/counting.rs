//! Per-thread shared-memory access counters.
//!
//! While a [`CountScope`] is open on a thread, every operation that
//! thread performs on a register from [`crate::reg`] records one access
//! in a thread-local counter. The counters are the measurement substrate
//! for experiment E1 (the paper's Theorem 1: a contention-free
//! `strong_push`/`strong_pop` performs exactly **six** shared-memory
//! accesses) and for the Lamport fast-mutex "seven accesses" claim
//! (reference \[16\] of the paper).
//!
//! The scope that reads the counters is the switch that maintains them.
//! With no scope open an access pays a thread-local load and a
//! predicted branch; an increment would be a load-store ahead of the
//! operation's own atomics on every operation of every thread, for a
//! statistic only a scope ever reads.

use std::cell::Cell;
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Add, Sub};

/// The kind of shared-memory access performed on an atomic register.
///
/// The paper's model (§2.1–2.2) has exactly three base operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// An atomic read of a register.
    Read,
    /// An atomic write of a register.
    Write,
    /// A `Compare&Swap` on a register (counted once whether it
    /// succeeds or fails; either way it is one access to shared memory).
    Cas,
}

thread_local! {
    /// Open [`CountScope`]s on this thread; [`record`] counts only
    /// while it is non-zero.
    static SCOPES: Cell<u32> = const { Cell::new(0) };
    static READS: Cell<u64> = const { Cell::new(0) };
    static WRITES: Cell<u64> = const { Cell::new(0) };
    static CASES: Cell<u64> = const { Cell::new(0) };
}

/// Records one shared-memory access of the given kind for the calling
/// thread, if a [`CountScope`] is open on it; otherwise does nothing.
///
/// Register types in [`crate::reg`] call this automatically; call it
/// yourself only when modelling a shared access that does not go
/// through those types.
#[inline]
pub fn record(kind: AccessKind) {
    if SCOPES.with(Cell::get) == 0 {
        return;
    }
    match kind {
        AccessKind::Read => READS.with(|c| c.set(c.get().wrapping_add(1))),
        AccessKind::Write => WRITES.with(|c| c.set(c.get().wrapping_add(1))),
        AccessKind::Cas => CASES.with(|c| c.set(c.get().wrapping_add(1))),
    }
}

/// Shared-memory accesses by kind: the difference a [`CountScope`]
/// computes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct AccessCounts {
    /// Number of atomic reads.
    pub reads: u64,
    /// Number of atomic writes.
    pub writes: u64,
    /// Number of `Compare&Swap` invocations (successful or not).
    pub cas: u64,
}

impl AccessCounts {
    /// Total number of shared-memory accesses.
    ///
    /// Saturating: a nonsensical value (e.g. the wrapped difference of
    /// subtracting a larger count from a smaller one) yields a huge
    /// total, never a panic, so budget checks built on `total()` fail
    /// loudly instead of aborting in debug builds.
    ///
    /// ```
    /// use cso_memory::counting::AccessCounts;
    /// let c = AccessCounts { reads: 3, writes: 1, cas: 2 };
    /// assert_eq!(c.total(), 6);
    /// ```
    #[must_use]
    pub fn total(&self) -> u64 {
        self.reads
            .saturating_add(self.writes)
            .saturating_add(self.cas)
    }
}

impl Add for AccessCounts {
    type Output = AccessCounts;

    fn add(self, rhs: AccessCounts) -> AccessCounts {
        AccessCounts {
            reads: self.reads + rhs.reads,
            writes: self.writes + rhs.writes,
            cas: self.cas + rhs.cas,
        }
    }
}

impl Sub for AccessCounts {
    type Output = AccessCounts;

    fn sub(self, rhs: AccessCounts) -> AccessCounts {
        AccessCounts {
            reads: self.reads.wrapping_sub(rhs.reads),
            writes: self.writes.wrapping_sub(rhs.writes),
            cas: self.cas.wrapping_sub(rhs.cas),
        }
    }
}

impl fmt::Display for AccessCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses ({} reads, {} writes, {} CAS)",
            self.total(),
            self.reads,
            self.writes,
            self.cas
        )
    }
}

/// The calling thread's cumulative access counters. They move only
/// while a scope is open, so only a scope reads them.
fn snapshot() -> AccessCounts {
    AccessCounts {
        reads: READS.with(Cell::get),
        writes: WRITES.with(Cell::get),
        cas: CASES.with(Cell::get),
    }
}

/// A measurement scope: switches access counting on for the calling
/// thread, captures the counters at construction and reports the delta
/// on [`CountScope::take`]; dropping the last open scope switches
/// counting off again.
///
/// The counters are **thread-local** (`Cell`s, no atomics), so a scope
/// counts the thread that opened it and is `!Send`: the delta is exact,
/// no other thread's accesses can leak in and nothing this thread
/// recorded can be missed. To audit several threads, start one scope
/// *on each thread* and combine the per-thread results with
/// [`AccessCounts`]'s `Add` — see `StepAuditor` in `cso-trace` for the
/// aggregated form. A scope cannot be moved to another thread:
///
/// ```compile_fail,E0277
/// use cso_memory::counting::CountScope;
///
/// let scope = CountScope::start();
/// std::thread::spawn(move || scope.take()).join().unwrap();
/// ```
///
/// Nested scopes on one thread compose exactly: the counters are
/// cumulative and monotonic while any scope is open, so an inner
/// scope's delta is a sub-range of every enclosing scope's delta
/// (tested by `nested_scopes_compose`).
///
/// ```
/// use cso_memory::counting::CountScope;
/// use cso_memory::reg::RegBool;
///
/// let flag = RegBool::new(false);
/// let scope = CountScope::start();
/// flag.write(true);
/// assert_eq!(scope.take().writes, 1);
/// ```
#[derive(Debug)]
pub struct CountScope {
    base: AccessCounts,
    /// Pins the scope to the thread whose counters it switched on.
    _thread: PhantomData<*const ()>,
}

impl CountScope {
    /// Starts a new measurement scope on the calling thread.
    #[must_use]
    pub fn start() -> CountScope {
        SCOPES.with(|open| open.set(open.get() + 1));
        CountScope {
            base: snapshot(),
            _thread: PhantomData,
        }
    }

    /// Returns the accesses performed on this thread since
    /// [`CountScope::start`] (or since the last [`CountScope::lap`]).
    pub fn take(&self) -> AccessCounts {
        snapshot() - self.base
    }

    /// Returns the accesses since the scope started and moves the
    /// baseline forward, so consecutive calls report disjoint windows.
    ///
    /// Windows are exact and gap-free: the new baseline is the same
    /// snapshot the delta was computed from, so an access is reported
    /// in exactly one lap.
    pub fn lap(&mut self) -> AccessCounts {
        let now = snapshot();
        let delta = now - self.base;
        self.base = now;
        delta
    }
}

impl Drop for CountScope {
    fn drop(&mut self) {
        SCOPES.with(|open| open.set(open.get() - 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_increments_each_kind() {
        let scope = CountScope::start();
        record(AccessKind::Read);
        record(AccessKind::Read);
        record(AccessKind::Write);
        record(AccessKind::Cas);
        let c = scope.take();
        assert_eq!(
            c,
            AccessCounts {
                reads: 2,
                writes: 1,
                cas: 1
            }
        );
        assert_eq!(c.total(), 4);
    }

    #[test]
    fn lap_reports_disjoint_windows() {
        let mut scope = CountScope::start();
        record(AccessKind::Read);
        assert_eq!(scope.lap().reads, 1);
        record(AccessKind::Write);
        let second = scope.lap();
        assert_eq!(second.reads, 0);
        assert_eq!(second.writes, 1);
    }

    #[test]
    fn nested_scopes_compose() {
        let outer = CountScope::start();
        record(AccessKind::Read);
        let inner = CountScope::start();
        record(AccessKind::Write);
        record(AccessKind::Cas);
        let inner_delta = inner.take();
        record(AccessKind::Read);
        let outer_delta = outer.take();
        // The inner window sees only what happened inside it…
        assert_eq!(
            inner_delta,
            AccessCounts {
                reads: 0,
                writes: 1,
                cas: 1
            }
        );
        // …and is a sub-range of the outer window: outer = before +
        // inner + after, component-wise.
        assert_eq!(
            outer_delta,
            AccessCounts {
                reads: 2,
                writes: 0,
                cas: 0
            } + inner_delta
        );
        // A still-open outer scope keeps extending while inner scopes
        // come and go.
        let mid = CountScope::start();
        record(AccessKind::Cas);
        assert_eq!(mid.take().total(), 1);
        assert_eq!(outer.take().total(), outer_delta.total() + 1);
    }

    #[test]
    fn total_saturates_on_garbage_deltas() {
        // A wrapped difference must not overflow-panic in total().
        let garbage = AccessCounts {
            reads: u64::MAX - 1,
            writes: 7,
            cas: 7,
        };
        assert_eq!(garbage.total(), u64::MAX);
    }

    #[test]
    fn counters_are_thread_local() {
        let scope = CountScope::start();
        std::thread::spawn(|| {
            record(AccessKind::Read);
            record(AccessKind::Read);
        })
        .join()
        .unwrap();
        assert_eq!(scope.take().total(), 0);
    }

    #[test]
    fn registers_count_nothing_outside_a_scope() {
        use crate::reg::{Reg64, RegBool, RegUsize};
        let before = snapshot();
        let (word, flag, index) = (Reg64::new(0), RegBool::new(false), RegUsize::new(0));
        for i in 0..1_000 {
            let seen = word.read();
            word.cas(seen, seen + 1);
            word.write(i);
            flag.write(!flag.read());
            index.cas(index.read(), i as usize);
        }
        assert_eq!(snapshot(), before);
    }

    #[test]
    fn the_last_dropped_scope_switches_counting_off() {
        drop(CountScope::start());
        let before = snapshot();
        record(AccessKind::Read);
        assert_eq!(snapshot(), before, "no scope is open");

        let outer = CountScope::start();
        drop(CountScope::start());
        record(AccessKind::Write);
        assert_eq!(outer.take().writes, 1, "the outer scope is still open");
    }

    #[test]
    fn counts_add_and_display() {
        let a = AccessCounts {
            reads: 1,
            writes: 2,
            cas: 3,
        };
        let b = AccessCounts {
            reads: 4,
            writes: 5,
            cas: 6,
        };
        let s = a + b;
        assert_eq!(
            s,
            AccessCounts {
                reads: 5,
                writes: 7,
                cas: 9
            }
        );
        assert_eq!(s.to_string(), "21 accesses (5 reads, 7 writes, 9 CAS)");
    }
}
