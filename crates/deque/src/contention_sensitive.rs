//! Figure 3 over the deque: obstruction-free → starvation-free in
//! one transformation.

use std::ops::Deref;

use cso_core::{ContentionSensitive, CsConfig, ProgressCondition};
use cso_locks::{RawLock, TasLock};
use cso_memory::bits::Bits32;

use crate::abortable::AbortableDeque;
use crate::outcome::{DequeOp, DequePopOutcome, DequePushOutcome, End};

/// The contention-sensitive, **starvation-free** deque: Figure 3
/// applied to the weakest object in the family.
///
/// This instantiation is the sharpest demonstration of the paper's
/// §1.2 remark that its mechanism generalizes: the HLM deque's naive
/// retry loop is only obstruction-free (opposing operations can
/// livelock), yet under the `CONTENTION` + `FLAG`/`TURN` + lock
/// wrapper every invocation terminates — the transformation leaps
/// from the bottom of the progress hierarchy to the top. (Lemma 2's
/// argument carries over verbatim: weak attempts always terminate,
/// and once the in-flight fast-path attempts drain, the lock holder
/// runs solo and must succeed.)
///
/// ```
/// use cso_deque::{CsDeque, DequePushOutcome, DequePopOutcome, End};
///
/// let deque: CsDeque<u32> = CsDeque::new(8, 4);
/// assert_eq!(deque.push_right(0, 1), DequePushOutcome::Pushed);
/// assert_eq!(deque.pop_left(3), DequePopOutcome::Popped(1));
/// ```
#[derive(Debug)]
pub struct CsDeque<V: Bits32, L: RawLock = TasLock> {
    inner: ContentionSensitive<AbortableDeque<V>, L>,
}

impl<V: Bits32> CsDeque<V, TasLock> {
    /// Creates an empty deque for `n` processes with the default TAS
    /// lock.
    ///
    /// # Panics
    ///
    /// Panics on invalid capacities (see [`AbortableDeque::new`]) or
    /// if `n == 0`.
    #[must_use]
    pub fn new(capacity: usize, n: usize) -> CsDeque<V, TasLock> {
        CsDeque::with_lock(capacity, TasLock::new(), n)
    }
}

impl<V: Bits32, L: RawLock> CsDeque<V, L> {
    /// Creates an empty deque using `lock` (deadlock-free suffices)
    /// for the slow path.
    ///
    /// # Panics
    ///
    /// Panics on invalid capacities or if `n == 0`.
    #[must_use]
    pub fn with_lock(capacity: usize, lock: L, n: usize) -> CsDeque<V, L> {
        CsDeque::with_config(capacity, lock, n, CsConfig::PAPER)
    }

    /// Creates a deque with an explicit mechanism selection
    /// ([`CsConfig::COMBINING`] adds the flat-combining slow path).
    ///
    /// # Panics
    ///
    /// Panics on invalid capacities or if `n == 0`.
    #[must_use]
    pub fn with_config(capacity: usize, lock: L, n: usize, config: CsConfig) -> CsDeque<V, L> {
        CsDeque {
            inner: ContentionSensitive::with_config(AbortableDeque::new(capacity), lock, n, config),
        }
    }

    /// The progress condition of this implementation.
    pub const PROGRESS: ProgressCondition = ProgressCondition::StarvationFree;

    /// Pushes at `end` on behalf of `proc`; never returns ⊥.
    ///
    /// # Panics
    ///
    /// Panics if `proc >= n`.
    pub fn push(&self, proc: usize, end: End, value: V) -> DequePushOutcome {
        self.inner
            .apply(proc, &DequeOp::Push(end, value))
            .expect_push()
    }

    /// Pops from `end` on behalf of `proc`; never returns ⊥.
    ///
    /// # Panics
    ///
    /// Panics if `proc >= n`.
    pub fn pop(&self, proc: usize, end: End) -> DequePopOutcome<V> {
        self.inner.apply(proc, &DequeOp::Pop(end)).expect_pop()
    }

    /// `push(proc, End::Left, value)`.
    pub fn push_left(&self, proc: usize, value: V) -> DequePushOutcome {
        self.push(proc, End::Left, value)
    }

    /// `push(proc, End::Right, value)`.
    pub fn push_right(&self, proc: usize, value: V) -> DequePushOutcome {
        self.push(proc, End::Right, value)
    }

    /// `pop(proc, End::Left)`.
    pub fn pop_left(&self, proc: usize) -> DequePopOutcome<V> {
        self.pop(proc, End::Left)
    }

    /// `pop(proc, End::Right)`.
    pub fn pop_right(&self, proc: usize) -> DequePopOutcome<V> {
        self.pop(proc, End::Right)
    }
}

impl<V: Bits32, L: RawLock> Deref for CsDeque<V, L> {
    type Target = ContentionSensitive<AbortableDeque<V>, L>;

    #[inline]
    fn deref(&self) -> &Self::Target {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;

    #[test]
    fn deque_semantics_solo() {
        let d: CsDeque<u32> = CsDeque::new(6, 2);
        assert_eq!(d.push_right(0, 2), DequePushOutcome::Pushed);
        assert_eq!(d.push_left(1, 1), DequePushOutcome::Pushed);
        assert_eq!(d.push_right(0, 3), DequePushOutcome::Pushed);
        assert_eq!(d.pop_left(0), DequePopOutcome::Popped(1));
        assert_eq!(d.pop_right(1), DequePopOutcome::Popped(3));
        assert_eq!(d.pop_right(1), DequePopOutcome::Popped(2));
        assert_eq!(d.pop_left(0), DequePopOutcome::Empty);
        assert_eq!(d.n(), 2);
        assert_eq!(d.capacity(), 6);
    }

    #[test]
    fn solo_ops_take_the_fast_path() {
        let d: CsDeque<u32> = CsDeque::new(4, 2);
        d.push_left(0, 1);
        d.pop_right(0);
        let stats = d.path_stats();
        assert_eq!(stats.locked, 0);
        assert_eq!(stats.fast, 2);
    }

    /// Every strong operation terminates with a definitive answer
    /// under heavy two-sided contention — the starvation-freedom
    /// boost over a merely obstruction-free object.
    #[test]
    fn concurrent_strong_ops_all_terminate_and_conserve() {
        const THREADS: u32 = 4;
        const PER_THREAD: u32 = 800;
        let deque: Arc<CsDeque<u32>> = Arc::new(CsDeque::new(16, THREADS as usize));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let deque = Arc::clone(&deque);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    let my_end = if t % 2 == 0 { End::Right } else { End::Left };
                    for i in 0..PER_THREAD {
                        let v = t * PER_THREAD + i;
                        loop {
                            match deque.push(t as usize, my_end, v) {
                                DequePushOutcome::Pushed => break,
                                DequePushOutcome::Full => match deque.pop(t as usize, my_end) {
                                    DequePopOutcome::Popped(v) => got.push(v),
                                    // Empty yet full: the linear block
                                    // drifted against our wall (a thread
                                    // left alone drifts one cell per
                                    // iteration). Only the other end has
                                    // room.
                                    DequePopOutcome::Empty => {
                                        if deque.push(t as usize, my_end.opposite(), v)
                                            == DequePushOutcome::Pushed
                                        {
                                            break;
                                        }
                                    }
                                },
                            }
                        }
                        if let DequePopOutcome::Popped(v) = deque.pop(t as usize, my_end.opposite())
                        {
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
        while let DequePopOutcome::Popped(v) = deque.pop_left(0) {
            all.push(v);
        }
        assert_eq!(all.len(), (THREADS * PER_THREAD) as usize);
        let distinct: HashSet<u32> = all.iter().copied().collect();
        assert_eq!(distinct.len(), all.len());
    }

    /// Forced-slow combining on the deque: both-end traffic conserves
    /// values and the tenure accounting holds.
    #[test]
    fn combining_slow_path_conserves_and_reports_batches() {
        use cso_locks::TasLock;
        const THREADS: u32 = 3;
        const PER_THREAD: u32 = 600;
        let config = CsConfig::PAPER.without_fast_path().with_combining();
        let deque: Arc<CsDeque<u32>> = Arc::new(CsDeque::with_config(
            (THREADS * PER_THREAD) as usize,
            TasLock::new(),
            THREADS as usize,
            config,
        ));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let deque = Arc::clone(&deque);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    let my_end = if t % 2 == 0 { End::Right } else { End::Left };
                    for i in 0..PER_THREAD {
                        loop {
                            // The arena splits capacity per end, so a
                            // side can fill up: drain our own end then.
                            match deque.push(t as usize, my_end, t * PER_THREAD + i) {
                                DequePushOutcome::Pushed => break,
                                DequePushOutcome::Full => {
                                    if let DequePopOutcome::Popped(v) =
                                        deque.pop(t as usize, my_end)
                                    {
                                        got.push(v);
                                    }
                                }
                            }
                        }
                    }
                    got
                })
            })
            .collect();
        let mut seen = HashSet::new();
        for h in handles {
            for v in h.join().unwrap() {
                assert!(seen.insert(v), "duplicate value {v}");
            }
        }
        while let DequePopOutcome::Popped(v) = deque.pop_left(0) {
            assert!(seen.insert(v), "duplicate value {v}");
        }
        assert_eq!(seen.len(), (THREADS * PER_THREAD) as usize);

        let paths = deque.path_stats();
        let combining = deque.combining_stats();
        assert_eq!(paths.fast, 0, "fast path disabled");
        assert_eq!(combining.batches + combining.combined, paths.locked);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_proc() {
        let d: CsDeque<u32> = CsDeque::new(4, 2);
        let _ = d.push_left(2, 1);
    }
}
