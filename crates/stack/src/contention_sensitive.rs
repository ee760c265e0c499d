//! Figure 3: the contention-sensitive starvation-free stack.

use std::ops::Deref;
use std::time::Duration;

use cso_core::{ContentionSensitive, CsConfig, CsError, ProgressCondition};
use cso_locks::{RawLock, TasLock};

use crate::abortable::AbortableStack;
use crate::outcome::{PopOutcome, PushOutcome, StackOp};
use crate::value::StackValue;

/// The paper's **contention-sensitive, starvation-free stack**
/// (Figure 3, the paper's headline construction).
///
/// `strong_push`/`strong_pop` first read the `CONTENTION` register
/// and, if clear, run one weak operation with no lock: in a
/// contention-free context an operation completes in **six shared
/// memory accesses and lock-free** (Theorem 1). Under contention they
/// fall back to a critical section protected by a deadlock-free lock
/// `L` boosted to starvation freedom by the `FLAG`/`TURN` round-robin
/// of §4.4 — so *every* invocation terminates with a non-⊥ value.
///
/// Each participating thread passes its process identity
/// (`0..n`, typically from [`cso_memory::registry::ProcRegistry`]).
///
/// The stack keeps only its own operations; through `Deref`,
/// [`ContentionSensitive`] has the statistics (`path_stats`, `gate`,
/// `liveness`, …) and [`AbortableStack`] the accessors (`len`, …).
///
/// ```
/// use cso_stack::{CsStack, PushOutcome, PopOutcome};
/// use cso_memory::counting::CountScope;
///
/// let stack: CsStack<u32> = CsStack::new(64, 2);
/// let scope = CountScope::start();
/// assert_eq!(stack.push(0, 42), PushOutcome::Pushed);
/// assert_eq!(scope.take().total(), 6); // Theorem 1
/// assert_eq!(stack.pop(1), PopOutcome::Popped(42));
/// ```
#[derive(Debug)]
pub struct CsStack<V: StackValue, L: RawLock = TasLock> {
    inner: ContentionSensitive<AbortableStack<V>, L>,
}

impl<V: StackValue> CsStack<V, TasLock> {
    /// Creates an empty stack of capacity `capacity` for `n`
    /// processes, with the default TAS lock for the slow path (any
    /// deadlock-free lock works; the paper assumes nothing more).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 or exceeds `u16::MAX - 1`, or if
    /// `n == 0`.
    #[must_use]
    pub fn new(capacity: usize, n: usize) -> CsStack<V, TasLock> {
        CsStack::with_lock(capacity, TasLock::new(), n)
    }
}

impl<V: StackValue, L: RawLock> CsStack<V, L> {
    /// Creates an empty stack using `lock` (deadlock-free suffices)
    /// for the slow path.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 or exceeds `u16::MAX - 1`, or if
    /// `n == 0`.
    #[must_use]
    pub fn with_lock(capacity: usize, lock: L, n: usize) -> CsStack<V, L> {
        CsStack::with_config(capacity, lock, n, CsConfig::PAPER)
    }

    /// Creates a stack with an explicit mechanism selection
    /// ([`CsConfig::PAPER`] is Figure 3 verbatim).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 or exceeds `u16::MAX - 1`, or if
    /// `n == 0`.
    #[must_use]
    pub fn with_config(capacity: usize, lock: L, n: usize, config: CsConfig) -> CsStack<V, L> {
        CsStack {
            inner: ContentionSensitive::with_config(AbortableStack::new(capacity), lock, n, config),
        }
    }

    /// The progress condition of this implementation.
    pub const PROGRESS: ProgressCondition = ProgressCondition::StarvationFree;

    /// `strong_push(v)` on behalf of process `proc`; never returns ⊥.
    ///
    /// # Panics
    ///
    /// Panics if `proc >= n`.
    pub fn push(&self, proc: usize, value: V) -> PushOutcome {
        self.inner.apply(proc, &StackOp::Push(value)).expect_push()
    }

    /// `strong_pop()` on behalf of process `proc`; never returns ⊥.
    ///
    /// # Panics
    ///
    /// Panics if `proc >= n`.
    pub fn pop(&self, proc: usize) -> PopOutcome<V> {
        self.inner.apply(proc, &StackOp::Pop).expect_pop()
    }

    /// Deadline-bounded [`CsStack::push`]: gives up with no effect if
    /// the slow-path lock stays unavailable for `timeout` (e.g. wedged
    /// by a crashed holder — the §5 failure mode).
    ///
    /// # Errors
    ///
    /// Returns [`CsError::TimedOut`] if the deadline expired first, or
    /// [`CsError::Unrecoverable`] if the crash-recovery succession
    /// budget is exhausted (see [`cso_core::RecoveryPolicy`]).
    ///
    /// # Panics
    ///
    /// Panics if `proc >= n`.
    pub fn try_push_for(
        &self,
        proc: usize,
        value: V,
        timeout: Duration,
    ) -> Result<PushOutcome, CsError> {
        self.inner
            .try_apply_for(proc, &StackOp::Push(value), timeout)
            .map(|resp| resp.expect_push())
    }

    /// Deadline-bounded [`CsStack::pop`]; see [`CsStack::try_push_for`].
    ///
    /// # Errors
    ///
    /// Returns [`CsError::TimedOut`] if the deadline expired first, or
    /// [`CsError::Unrecoverable`] if the crash-recovery succession
    /// budget is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `proc >= n`.
    pub fn try_pop_for(&self, proc: usize, timeout: Duration) -> Result<PopOutcome<V>, CsError> {
        self.inner
            .try_apply_for(proc, &StackOp::Pop, timeout)
            .map(|resp| resp.expect_pop())
    }
}

impl<V: StackValue, L: RawLock> Deref for CsStack<V, L> {
    type Target = ContentionSensitive<AbortableStack<V>, L>;

    #[inline]
    fn deref(&self) -> &Self::Target {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cso_memory::counting::CountScope;
    use std::collections::HashSet;
    use std::sync::Arc;

    #[test]
    fn lifo_order_solo() {
        let stack: CsStack<u32> = CsStack::new(8, 2);
        for v in 1..=5 {
            assert_eq!(stack.push(0, v), PushOutcome::Pushed);
        }
        for v in (1..=5).rev() {
            assert_eq!(stack.pop(1), PopOutcome::Popped(v));
        }
        assert_eq!(stack.pop(0), PopOutcome::Empty);
    }

    /// What the probes keep in the object — the lock's two handoff
    /// stamps, one padded line each — is all they add to it: the rest
    /// is the 3,200 bytes (25 padded lines) the stack was before the
    /// stamps moved behind `cso-trace` (a 64-bit layout).
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn the_probes_add_two_stamp_lines_to_the_stack() {
        use std::mem::size_of;
        let stamps = 2 * size_of::<cso_trace::TidStamp>();
        assert_eq!(stamps, 2 * 128);
        assert_eq!(size_of::<CsStack<u32>>(), 3200 + stamps);
    }

    /// Theorem 1's headline number: a contention-free strong operation
    /// performs exactly six shared-memory accesses and takes no lock.
    #[test]
    fn solo_strong_push_is_exactly_six_accesses() {
        let stack: CsStack<u32> = CsStack::new(64, 4);
        let scope = CountScope::start();
        stack.push(0, 1);
        let c = scope.take();
        assert_eq!(c.total(), 6, "Theorem 1: got {c}");
        assert_eq!(stack.path_stats().locked, 0, "no lock in a solo run");
    }

    #[test]
    fn solo_strong_pop_is_exactly_six_accesses() {
        let stack: CsStack<u32> = CsStack::new(64, 4);
        stack.push(0, 1);
        let scope = CountScope::start();
        assert_eq!(stack.pop(0), PopOutcome::Popped(1));
        assert_eq!(scope.take().total(), 6);
    }

    #[test]
    fn six_access_bound_is_independent_of_capacity_and_n() {
        for (capacity, n) in [(2, 1), (16, 2), (4096, 32), (60_000, 64)] {
            let stack: CsStack<u32> = CsStack::new(capacity, n);
            stack.push(0, 7);
            let scope = CountScope::start();
            stack.push(n - 1, 9);
            assert_eq!(scope.take().total(), 6, "capacity={capacity}, n={n}");
            let scope = CountScope::start();
            stack.pop(0);
            assert_eq!(scope.take().total(), 6, "capacity={capacity}, n={n}");
        }
    }

    #[test]
    fn full_and_empty_solo() {
        let stack: CsStack<u32> = CsStack::new(1, 2);
        assert_eq!(stack.pop(0), PopOutcome::Empty);
        assert_eq!(stack.push(0, 1), PushOutcome::Pushed);
        assert_eq!(stack.push(0, 2), PushOutcome::Full);
        assert_eq!(stack.pop(1), PopOutcome::Popped(1));
    }

    #[test]
    fn concurrent_strong_ops_conserve_values_and_never_bot() {
        const THREADS: u32 = 4;
        const PER_THREAD: u32 = 1_500;
        let stack: Arc<CsStack<u32>> = Arc::new(CsStack::new(
            (THREADS * PER_THREAD) as usize,
            THREADS as usize,
        ));

        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let stack = Arc::clone(&stack);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    for i in 0..PER_THREAD {
                        assert_eq!(
                            stack.push(t as usize, t * PER_THREAD + i),
                            PushOutcome::Pushed
                        );
                        if let PopOutcome::Popped(v) = stack.pop(t as usize) {
                            got.push(v);
                        }
                    }
                    got
                })
            })
            .collect();
        let mut all: Vec<u32> = Vec::new();
        for h in handles {
            all.extend(h.join().unwrap());
        }
        while let PopOutcome::Popped(v) = stack.pop(0) {
            all.push(v);
        }
        assert_eq!(all.len(), (THREADS * PER_THREAD) as usize);
        let distinct: HashSet<u32> = all.iter().copied().collect();
        assert_eq!(distinct.len(), all.len());
        // Every operation completed on one of the two paths.
        assert_eq!(
            stack.path_stats().total(),
            u64::from(THREADS * PER_THREAD) * 2 + 1
        );
    }

    #[test]
    fn ablation_configs_remain_correct() {
        for config in [CsConfig::PAPER, CsConfig::UNFAIR] {
            let stack: CsStack<u32> = CsStack::with_config(16, TasLock::new(), 2, config);
            assert_eq!(stack.push(0, 1), PushOutcome::Pushed);
            assert_eq!(stack.pop(1), PopOutcome::Popped(1));
            assert_eq!(stack.pop(1), PopOutcome::Empty);
        }
    }

    /// Forced-slow combining: every completion is either a combiner's
    /// own op or a served record.
    #[test]
    fn combining_slow_path_conserves_and_reports_batches() {
        const THREADS: u32 = 3;
        const PER_THREAD: u32 = 1_000;
        let config = CsConfig::PAPER.without_fast_path().with_combining();
        let stack: Arc<CsStack<u32>> = Arc::new(CsStack::with_config(
            (THREADS * PER_THREAD) as usize,
            TasLock::new(),
            THREADS as usize,
            config,
        ));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let stack = Arc::clone(&stack);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        assert_eq!(
                            stack.push(t as usize, t * PER_THREAD + i),
                            PushOutcome::Pushed
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut seen = HashSet::new();
        while let PopOutcome::Popped(v) = stack.pop(0) {
            assert!(seen.insert(v), "duplicate value {v}");
        }
        assert_eq!(seen.len(), (THREADS * PER_THREAD) as usize);

        let paths = stack.path_stats();
        let combining = stack.combining_stats();
        assert_eq!(paths.fast, 0, "fast path disabled");
        // Pops above run after the threads joined, so the totals still
        // satisfy the tenure accounting: every locked completion is a
        // combiner's own op (one per batch) or a served record.
        assert_eq!(combining.batches + combining.combined, paths.locked);
    }

    #[test]
    fn ladder_config_preserves_theorem_one_budget() {
        // Arming both middle rungs must not cost a solo operation
        // anything: the fast path succeeds and the ladder is never
        // entered, so Theorem 1's six accesses stay exact.
        let stack: CsStack<u32> = CsStack::with_config(64, TasLock::new(), 4, CsConfig::LADDER);
        stack.push(0, 1);
        let scope = CountScope::start();
        stack.push(0, 2);
        assert_eq!(scope.take().total(), 6, "Theorem 1 with the ladder armed");
        let scope = CountScope::start();
        assert_eq!(stack.pop(0), PopOutcome::Popped(2));
        assert_eq!(scope.take().total(), 6);
        assert_eq!(stack.path_stats().locked, 0);
        assert_eq!(stack.eliminated_pairs(), 0, "solo ops never rendezvous");
    }

    #[test]
    fn ladder_config_conserves_values_under_contention() {
        const THREADS: u32 = 4;
        const PER_THREAD: u32 = 1_500;
        let stack: Arc<CsStack<u32>> = Arc::new(CsStack::with_config(
            (THREADS * PER_THREAD) as usize,
            TasLock::new(),
            THREADS as usize,
            CsConfig::LADDER,
        ));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let stack = Arc::clone(&stack);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    for i in 0..PER_THREAD {
                        assert_eq!(
                            stack.push(t as usize, t * PER_THREAD + i),
                            PushOutcome::Pushed
                        );
                        if let PopOutcome::Popped(v) = stack.pop(t as usize) {
                            got.push(v);
                        }
                    }
                    got
                })
            })
            .collect();
        let mut all: Vec<u32> = Vec::new();
        for h in handles {
            all.extend(h.join().unwrap());
        }
        while let PopOutcome::Popped(v) = stack.pop(0) {
            all.push(v);
        }
        // Conservation: eliminated pairs hand the value straight from
        // pusher to popper, so nothing is lost or duplicated.
        assert_eq!(all.len(), (THREADS * PER_THREAD) as usize);
        let distinct: HashSet<u32> = all.iter().copied().collect();
        assert_eq!(distinct.len(), all.len());
        // Every completion took exactly one rung of the ladder.
        let paths = stack.path_stats();
        assert_eq!(paths.total(), u64::from(THREADS * PER_THREAD) * 2 + 1);
        // Both sides of each rendezvous count in `eliminated`.
        assert_eq!(paths.eliminated, stack.eliminated_pairs() * 2);
    }

    #[test]
    fn custom_lock_variant() {
        use cso_locks::TicketLock;
        let stack: CsStack<u32, TicketLock> = CsStack::with_lock(8, TicketLock::new(), 3);
        assert_eq!(stack.push(2, 5), PushOutcome::Pushed);
        assert_eq!(stack.pop(0), PopOutcome::Popped(5));
        assert_eq!(stack.n(), 3);
        assert_eq!(stack.capacity(), 8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_proc() {
        let stack: CsStack<u32> = CsStack::new(8, 2);
        let _ = stack.push(5, 1);
    }
}
