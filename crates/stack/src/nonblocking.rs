//! Figure 2: the non-blocking stack.

use std::ops::Deref;

use cso_core::{NonBlocking, ProgressCondition};

use crate::abortable::AbortableStack;
use crate::outcome::{PopOutcome, PushOutcome, StackOp};
use crate::value::StackValue;

/// The paper's **non-blocking stack** (Figure 2): an
/// [`AbortableStack`] whose operations are retried until they return a
/// non-⊥ value.
///
/// ```text
/// operation non_blocking_push(v):
///     repeat res ← weak_push(v) until res ≠ ⊥; return(res).
/// operation non_blocking_pop():
///     repeat res ← weak_pop() until res ≠ ⊥; return(res).
/// ```
///
/// No operation ever returns ⊥, and whatever the contention pattern at
/// least one concurrent operation terminates (the proof is in Shafiei
/// \[22\]): the implementation is **non-blocking** (lock-free). It is
/// *not* starvation-free — a specific process can lose every race —
/// which is what Figure 3 ([`crate::CsStack`]) repairs.
///
/// The object's accessors (`capacity`, `len`, `abort_stats`, …) are
/// [`AbortableStack`]'s, reached through `Deref`.
///
/// ```
/// use cso_stack::{NonBlockingStack, PushOutcome, PopOutcome};
///
/// let stack: NonBlockingStack<u32> = NonBlockingStack::new(128);
/// assert_eq!(stack.push(1), PushOutcome::Pushed);
/// assert_eq!(stack.pop(), PopOutcome::Popped(1));
/// assert_eq!(stack.pop(), PopOutcome::Empty);
/// ```
#[derive(Debug)]
pub struct NonBlockingStack<V: StackValue> {
    inner: NonBlocking<AbortableStack<V>>,
}

impl<V: StackValue> NonBlockingStack<V> {
    /// Creates an empty stack of capacity `capacity` with the paper's
    /// immediate-retry loop.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 or exceeds `u16::MAX - 1`.
    #[must_use]
    pub fn new(capacity: usize) -> NonBlockingStack<V> {
        NonBlockingStack {
            inner: NonBlocking::new(AbortableStack::new(capacity)),
        }
    }

    /// The progress condition of this implementation.
    pub const PROGRESS: ProgressCondition = ProgressCondition::NonBlocking;

    /// Pushes `value`; never returns ⊥.
    pub fn push(&self, value: V) -> PushOutcome {
        self.inner.apply(&StackOp::Push(value)).expect_push()
    }

    /// Pops the top value; never returns ⊥.
    pub fn pop(&self) -> PopOutcome<V> {
        self.inner.apply(&StackOp::Pop).expect_pop()
    }

    /// The underlying abortable stack.
    pub fn as_abortable(&self) -> &AbortableStack<V> {
        &self.inner
    }
}

impl<V: StackValue> Deref for NonBlockingStack<V> {
    type Target = NonBlocking<AbortableStack<V>>;

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
    fn lifo_order_solo() {
        let stack: NonBlockingStack<i32> = NonBlockingStack::new(8);
        for v in [-1, -2, -3] {
            assert_eq!(stack.push(v), PushOutcome::Pushed);
        }
        assert_eq!(stack.pop(), PopOutcome::Popped(-3));
        assert_eq!(stack.pop(), PopOutcome::Popped(-2));
        assert_eq!(stack.pop(), PopOutcome::Popped(-1));
        assert_eq!(stack.pop(), PopOutcome::Empty);
    }

    #[test]
    fn full_outcome_is_returned_not_retried() {
        let stack: NonBlockingStack<u32> = NonBlockingStack::new(1);
        assert_eq!(stack.push(1), PushOutcome::Pushed);
        // Full is a definitive answer (non-⊥), so the loop exits.
        assert_eq!(stack.push(2), PushOutcome::Full);
    }

    #[test]
    fn concurrent_pushes_and_pops_conserve_values() {
        const THREADS: u32 = 4;
        const PER_THREAD: u32 = 2_000;
        let stack: Arc<NonBlockingStack<u32>> =
            Arc::new(NonBlockingStack::new((THREADS * PER_THREAD) as usize));
        // Phase 1: concurrent pushes of distinct values.
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let stack = Arc::clone(&stack);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        assert_eq!(stack.push(t * PER_THREAD + i), PushOutcome::Pushed);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(stack.len(), (THREADS * PER_THREAD) as usize);

        // Phase 2: concurrent pops; every value comes back exactly once.
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let stack = Arc::clone(&stack);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let PopOutcome::Popped(v) = stack.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        let mut all: Vec<u32> = Vec::new();
        for h in handles {
            all.extend(h.join().unwrap());
        }
        assert_eq!(all.len(), (THREADS * PER_THREAD) as usize);
        let distinct: HashSet<u32> = all.iter().copied().collect();
        assert_eq!(distinct.len(), all.len());
    }

    #[test]
    fn exposes_abort_stats() {
        let stack: NonBlockingStack<u32> = NonBlockingStack::new(8);
        stack.push(1);
        stack.pop();
        let stats = stack.abort_stats();
        assert_eq!(stats.push_attempts, 1);
        assert_eq!(stats.pop_attempts, 1);
        assert!(!stack.as_abortable().is_empty() || stack.is_empty());
    }
}
