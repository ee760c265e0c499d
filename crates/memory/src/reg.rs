//! Counted atomic registers.
//!
//! The paper's computation model (§2) provides atomic registers with
//! `read`, `write` and `Compare&Swap`. These wrappers implement that
//! model over `std::sync::atomic` with two deliberate choices:
//!
//! * **every access records itself** in the thread-local counters of
//!   [`crate::counting`] while a scope is open there, making
//!   step-complexity claims measurable;
//! * **all orderings are `SeqCst`** — the paper's registers are atomic
//!   in the sequential-consistency sense, and the point of the
//!   algorithms is their structure, not fence minimization. Baseline
//!   structures that traditionally use acquire/release live outside
//!   this module.
//!
//! # Uncounted validation peeks
//!
//! The `peek` / `cas_validated` / `write_lazy` members are the one
//! sanctioned exception to "every access records itself": they issue a
//! *plain relaxed load* that is **not** counted, in the spirit of
//! Dice, Hendler & Mirsky's read-validate-before-CAS — a doomed CAS
//! (or redundant store) costs an exclusive cache-line acquisition,
//! while a shared read does not. The accounting contract stays
//! honest because the peek can only *remove* counted accesses that
//! were about to happen (the skipped CAS/store), never add any: on
//! the contention-free paths the validation always passes and the
//! counted totals are bit-for-bit identical — which is what the
//! `step_budget` regression tests pin down.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use crate::counting::AccessKind;
use crate::runtime::{self, access};

/// A counted 64-bit atomic register.
///
/// This is the register type the paper's stack is built from: `TOP` and
/// every `STACK[x]` are multi-field words (see [`crate::packed`]) stored
/// in one `Reg64` so the whole word is read and CAS-ed atomically.
///
/// ```
/// use cso_memory::reg::Reg64;
/// let top = Reg64::new(0);
/// assert!(top.cas(0, 7));
/// assert!(!top.cas(0, 9));
/// assert_eq!(top.read(), 7);
/// ```
#[derive(Debug)]
pub struct Reg64 {
    cell: AtomicU64,
}

impl Reg64 {
    /// Creates a register holding `value`.
    #[must_use]
    pub fn new(value: u64) -> Reg64 {
        Reg64 {
            cell: AtomicU64::new(value),
        }
    }

    /// Atomically reads the register.
    #[inline]
    pub fn read(&self) -> u64 {
        access(AccessKind::Read);
        self.cell.load(Ordering::SeqCst)
    }

    /// Atomically writes `value` into the register.
    #[inline]
    pub fn write(&self, value: u64) {
        access(AccessKind::Write);
        self.cell.store(value, Ordering::SeqCst);
    }

    /// The paper's `X.C&S(old, new)` (§2.2): atomically, if the register
    /// holds `old`, replaces it with `new` and returns `true`;
    /// otherwise returns `false` and leaves the register unchanged.
    #[inline]
    pub fn cas(&self, old: u64, new: u64) -> bool {
        access(AccessKind::Cas);
        self.cell
            .compare_exchange(old, new, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// **Uncounted** relaxed load — an engineering-level peek used only
    /// to avoid doomed counted accesses (see the module docs). Never
    /// use it where the algorithm's correctness needs a counted read.
    #[inline]
    #[must_use]
    pub fn peek(&self) -> u64 {
        runtime::peek();
        self.cell.load(Ordering::Relaxed)
    }

    /// Read-validate-before-CAS: if an uncounted [`Reg64::peek`]
    /// already shows the register diverged from `old`, reports failure
    /// **without issuing the CAS** (zero counted accesses); otherwise
    /// performs the ordinary counted [`Reg64::cas`]. On uncontended
    /// paths the validation passes and the cost is exactly one counted
    /// CAS, so solo step budgets are unchanged. One read of the hooks
    /// word serves the peek and the CAS; with a hook on, the whole
    /// operation is the cold `cas_validated_hooked`.
    #[inline]
    pub fn cas_validated(&self, old: u64, new: u64) -> bool {
        if runtime::hooked() {
            return self.cas_validated_hooked(old, new);
        }
        self.cell.load(Ordering::Relaxed) == old
            && self
                .cell
                .compare_exchange(old, new, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
    }

    #[cold]
    #[inline(never)]
    fn cas_validated_hooked(&self, old: u64, new: u64) -> bool {
        self.peek() == old && self.cas(old, new)
    }
}

/// A counted boolean atomic register (the paper's `CONTENTION` and
/// `FLAG[i]` registers).
///
/// ```
/// use cso_memory::reg::RegBool;
/// let contention = RegBool::new(false);
/// contention.write(true);
/// assert!(contention.read());
/// ```
#[derive(Debug)]
pub struct RegBool {
    cell: AtomicBool,
}

impl RegBool {
    /// Creates a register holding `value`.
    #[must_use]
    pub fn new(value: bool) -> RegBool {
        RegBool {
            cell: AtomicBool::new(value),
        }
    }

    /// Atomically reads the register.
    #[inline]
    pub fn read(&self) -> bool {
        access(AccessKind::Read);
        self.cell.load(Ordering::SeqCst)
    }

    /// Atomically writes `value`.
    #[inline]
    pub fn write(&self, value: bool) {
        access(AccessKind::Write);
        self.cell.store(value, Ordering::SeqCst);
    }

    /// Atomic `Compare&Swap`; returns whether the swap happened.
    #[inline]
    pub fn cas(&self, old: bool, new: bool) -> bool {
        access(AccessKind::Cas);
        self.cell
            .compare_exchange(old, new, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Atomically replaces the value, returning the previous one.
    /// Counted as one CAS-class access (it is a read-modify-write).
    #[inline]
    pub fn swap(&self, value: bool) -> bool {
        access(AccessKind::Cas);
        self.cell.swap(value, Ordering::SeqCst)
    }

    /// **Uncounted** relaxed load — see the module docs and
    /// [`Reg64::peek`].
    #[inline]
    #[must_use]
    pub fn peek(&self) -> bool {
        runtime::peek();
        self.cell.load(Ordering::Relaxed)
    }

    /// Store-if-different: if an uncounted [`RegBool::peek`] already
    /// shows `value`, skips the store entirely (zero counted accesses,
    /// no cache-line invalidation) and returns `false`; otherwise
    /// performs the ordinary counted [`RegBool::write`] and returns
    /// `true`. On paths where the write is a real toggle the store
    /// always happens, so solo step budgets are unchanged. One read of
    /// the hooks word serves the peek and the store, as in
    /// [`Reg64::cas_validated`].
    #[inline]
    pub fn write_lazy(&self, value: bool) -> bool {
        if runtime::hooked() {
            return self.write_lazy_hooked(value);
        }
        let differs = self.cell.load(Ordering::Relaxed) != value;
        if differs {
            self.cell.store(value, Ordering::SeqCst);
        }
        differs
    }

    #[cold]
    #[inline(never)]
    fn write_lazy_hooked(&self, value: bool) -> bool {
        let differs = self.peek() != value;
        if differs {
            self.write(value);
        }
        differs
    }
}

/// A counted `usize` atomic register (the paper's `TURN` register and
/// the ticket lock's counters).
///
/// ```
/// use cso_memory::reg::RegUsize;
/// let turn = RegUsize::new(0);
/// turn.write(3);
/// assert_eq!(turn.fetch_add(1), 3);
/// assert_eq!(turn.read(), 4);
/// ```
#[derive(Debug)]
pub struct RegUsize {
    cell: AtomicUsize,
}

impl RegUsize {
    /// Creates a register holding `value`.
    #[must_use]
    pub fn new(value: usize) -> RegUsize {
        RegUsize {
            cell: AtomicUsize::new(value),
        }
    }

    /// Atomically reads the register.
    #[inline]
    pub fn read(&self) -> usize {
        access(AccessKind::Read);
        self.cell.load(Ordering::SeqCst)
    }

    /// Atomically writes `value`.
    #[inline]
    pub fn write(&self, value: usize) {
        access(AccessKind::Write);
        self.cell.store(value, Ordering::SeqCst);
    }

    /// Atomic `Compare&Swap`; returns whether the swap happened.
    #[inline]
    pub fn cas(&self, old: usize, new: usize) -> bool {
        access(AccessKind::Cas);
        self.cell
            .compare_exchange(old, new, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Atomically adds `delta`, returning the previous value.
    /// Counted as one CAS-class access.
    #[inline]
    pub fn fetch_add(&self, delta: usize) -> usize {
        access(AccessKind::Cas);
        self.cell.fetch_add(delta, Ordering::SeqCst)
    }

    /// Atomically replaces the value, returning the previous one.
    /// Counted as one CAS-class access.
    #[inline]
    pub fn swap(&self, value: usize) -> usize {
        access(AccessKind::Cas);
        self.cell.swap(value, Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting::CountScope;

    #[test]
    fn reg64_cas_semantics() {
        let r = Reg64::new(5);
        assert!(r.cas(5, 6));
        assert!(!r.cas(5, 7));
        assert_eq!(r.read(), 6);
    }

    #[test]
    fn reg64_counts_every_access() {
        let r = Reg64::new(0);
        let scope = CountScope::start();
        r.read();
        r.write(1);
        r.cas(1, 2);
        r.cas(1, 3); // failed CAS still counts: it touched shared memory
        let c = scope.take();
        assert_eq!((c.reads, c.writes, c.cas), (1, 1, 2));
    }

    #[test]
    fn peeks_and_validated_ops_are_uncounted_only_when_they_skip() {
        let r = Reg64::new(5);
        let scope = CountScope::start();
        assert_eq!(r.peek(), 5); // uncounted
        assert!(!r.cas_validated(9, 1)); // validation fails: no CAS issued
        assert_eq!(scope.take().total(), 0, "skipped accesses must not count");

        let scope = CountScope::start();
        assert!(r.cas_validated(5, 6)); // validation passes: one counted CAS
        let c = scope.take();
        assert_eq!((c.reads, c.writes, c.cas), (0, 0, 1));
        assert_eq!(r.read(), 6);
    }

    #[test]
    fn write_lazy_skips_redundant_stores() {
        let b = RegBool::new(false);
        let scope = CountScope::start();
        assert!(!b.write_lazy(false), "redundant store must be skipped");
        assert_eq!(scope.take().total(), 0);

        let scope = CountScope::start();
        assert!(b.write_lazy(true), "a real toggle must store");
        let c = scope.take();
        assert_eq!((c.reads, c.writes, c.cas), (0, 1, 0));
        assert!(b.read());
        assert!(b.peek());
    }

    #[test]
    fn regbool_swap_and_cas() {
        let b = RegBool::new(false);
        assert!(!b.swap(true));
        assert!(b.read());
        assert!(b.cas(true, false));
        assert!(!b.cas(true, false));
    }

    #[test]
    fn regusize_fetch_add_wraps_forward() {
        let u = RegUsize::new(10);
        assert_eq!(u.fetch_add(5), 10);
        assert_eq!(u.swap(0), 15);
        assert_eq!(u.read(), 0);
    }

    #[test]
    fn registers_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Reg64>();
        assert_send_sync::<RegBool>();
        assert_send_sync::<RegUsize>();
    }

    #[test]
    fn concurrent_cas_is_atomic() {
        use std::sync::Arc;
        let r = Arc::new(RegUsize::new(0));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        r.fetch_add(1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(r.read(), 40_000);
    }
}
