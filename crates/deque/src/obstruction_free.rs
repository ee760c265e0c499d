//! The original HLM deque: retry ⊥ — obstruction-free, and *only*
//! obstruction-free.

use std::ops::Deref;

use cso_core::{NonBlocking, ProgressCondition};
use cso_memory::bits::Bits32;

use crate::abortable::AbortableDeque;
use crate::outcome::{DequeOp, DequePopOutcome, DequePushOutcome, End};

/// The Herlihy–Luchangco–Moir deque as published: each operation
/// retries its attempt until it gets a definitive answer.
///
/// **Progress: obstruction-free** — an operation is guaranteed to
/// terminate only when it eventually runs solo (paper §1.2 / ref
/// \[8\]). The retry loop is Figure 2's ([`NonBlocking`]), but over
/// this object it is *not* non-blocking: two symmetric two-`C&S`
/// operations can keep invalidating each other's first `C&S` forever
/// without either completing (no "my abort implies your success"
/// property). This is the genuinely weakest rung of the paper's
/// hierarchy, which is why [`crate::CsDeque`] exists. The object's
/// accessors (`capacity`, `len`, …) are [`AbortableDeque`]'s, reached
/// through `Deref`.
///
/// ```
/// use cso_deque::{HlmDeque, DequePushOutcome, DequePopOutcome, End};
///
/// let deque: HlmDeque<u32> = HlmDeque::new(8);
/// assert_eq!(deque.push(End::Left, 1), DequePushOutcome::Pushed);
/// assert_eq!(deque.pop(End::Right), DequePopOutcome::Popped(1));
/// ```
#[derive(Debug)]
pub struct HlmDeque<V: Bits32> {
    inner: NonBlocking<AbortableDeque<V>>,
}

impl<V: Bits32> HlmDeque<V> {
    /// Creates an empty deque with immediate retries.
    ///
    /// # Panics
    ///
    /// Panics on invalid capacities (see [`AbortableDeque::new`]).
    #[must_use]
    pub fn new(capacity: usize) -> HlmDeque<V> {
        HlmDeque {
            inner: NonBlocking::new(AbortableDeque::new(capacity)),
        }
    }

    /// The progress condition of this implementation.
    pub const PROGRESS: ProgressCondition = ProgressCondition::ObstructionFree;

    /// Pushes `value` at `end`, retrying ⊥.
    pub fn push(&self, end: End, value: V) -> DequePushOutcome {
        self.inner.apply(&DequeOp::Push(end, value)).expect_push()
    }

    /// Pops from `end`, retrying ⊥.
    pub fn pop(&self, end: End) -> DequePopOutcome<V> {
        self.inner.apply(&DequeOp::Pop(end)).expect_pop()
    }

    /// The underlying abortable deque.
    pub fn as_abortable(&self) -> &AbortableDeque<V> {
        &self.inner
    }
}

impl<V: Bits32> Deref for HlmDeque<V> {
    type Target = NonBlocking<AbortableDeque<V>>;

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
        let d: HlmDeque<u32> = HlmDeque::new(6);
        d.push(End::Right, 2);
        d.push(End::Left, 1);
        d.push(End::Right, 3);
        assert_eq!(d.pop(End::Left), DequePopOutcome::Popped(1));
        assert_eq!(d.pop(End::Left), DequePopOutcome::Popped(2));
        assert_eq!(d.pop(End::Left), DequePopOutcome::Popped(3));
        assert_eq!(d.pop(End::Left), DequePopOutcome::Empty);
        assert_eq!(d.capacity(), 6);
    }

    /// Under real threads values are conserved. The loop retries at
    /// once; the scheduler's interleaving gives each operation the solo
    /// window the obstruction-freedom hypothesis asks for.
    #[test]
    fn concurrent_conservation_with_immediate_retries() {
        const THREADS: u32 = 3;
        const PER_THREAD: u32 = 800;
        let deque: Arc<HlmDeque<u32>> = Arc::new(HlmDeque::new(16));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let deque = Arc::clone(&deque);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    let my_end = if t % 2 == 0 { End::Right } else { End::Left };
                    for i in 0..PER_THREAD {
                        let v = t * PER_THREAD + i;
                        // Bounded *linear* deque: on Full, drain one
                        // from this end to regenerate a null cell. If
                        // the data block has drifted away from this
                        // end (Full with nothing to pop — every null
                        // is on the far side), push there instead.
                        let mut end = my_end;
                        loop {
                            match deque.push(end, v) {
                                DequePushOutcome::Pushed => break,
                                DequePushOutcome::Full => {
                                    if let DequePopOutcome::Popped(v) = deque.pop(end) {
                                        got.push(v);
                                    } else {
                                        end = end.opposite();
                                    }
                                }
                            }
                        }
                        if let DequePopOutcome::Popped(v) = deque.pop(my_end.opposite()) {
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
        while let DequePopOutcome::Popped(v) = deque.pop(End::Left) {
            all.push(v);
        }
        assert_eq!(all.len(), (THREADS * PER_THREAD) as usize);
        let distinct: HashSet<u32> = all.iter().copied().collect();
        assert_eq!(distinct.len(), all.len(), "no duplicates, nothing lost");
    }
}
