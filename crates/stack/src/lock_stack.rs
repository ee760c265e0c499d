//! The traditional fully lock-based stack (§1.1's baseline).

use std::cell::UnsafeCell;

use cso_core::ProgressCondition;
use cso_locks::{RawLock, TasLock};

use crate::outcome::{PopOutcome, PushOutcome};

/// A stack protected by a single lock — "associating a single lock
/// with an object prevents several processes/threads from accessing it
/// simultaneously" (§1.1). Every operation, contended or not, pays the
/// lock.
///
/// The lock type is pluggable so the benchmarks can compare the
/// contention-sensitive stack against TAS-, ticket- and OS-locked
/// variants. Progress inherits from the lock: deadlock-free for TAS,
/// starvation-free for a ticket lock.
///
/// An optional capacity bound mirrors the bounded semantics of the
/// paper's array stack (`Full`/`Empty` outcomes), so all stacks answer
/// the same workload interface.
///
/// ```
/// use cso_stack::{LockStack, PushOutcome, PopOutcome};
///
/// let stack: LockStack<&str> = LockStack::new(2);
/// assert_eq!(stack.push("a"), PushOutcome::Pushed);
/// assert_eq!(stack.push("b"), PushOutcome::Pushed);
/// assert_eq!(stack.push("c"), PushOutcome::Full);
/// assert_eq!(stack.pop(), PopOutcome::Popped("b"));
/// ```
pub struct LockStack<T, L: RawLock = TasLock> {
    lock: L,
    capacity: usize,
    items: UnsafeCell<Vec<T>>,
}

// SAFETY: all access to `items` happens inside the critical section of
// `lock` (a `RawLock` provides mutual exclusion per its contract), so
// the stack may be shared across threads whenever the payload moves
// across threads safely.
unsafe impl<T: Send, L: RawLock> Send for LockStack<T, L> {}
unsafe impl<T: Send, L: RawLock> Sync for LockStack<T, L> {}

impl<T> LockStack<T, TasLock> {
    /// Creates an empty stack of capacity `capacity` behind a TAS
    /// lock.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> LockStack<T, TasLock> {
        LockStack::with_lock(capacity, TasLock::new())
    }
}

impl<T, L: RawLock> LockStack<T, L> {
    /// Creates an empty stack of capacity `capacity` behind `lock`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn with_lock(capacity: usize, lock: L) -> LockStack<T, L> {
        assert!(capacity > 0, "stack capacity must be positive");
        LockStack {
            lock,
            capacity,
            items: UnsafeCell::new(Vec::new()),
        }
    }

    /// The progress condition (that of the weakest supported lock).
    pub const PROGRESS: ProgressCondition = ProgressCondition::NonBlocking;

    /// Pushes `value`, or reports `Full` at capacity.
    pub fn push(&self, value: T) -> PushOutcome {
        self.lock.with(|| {
            // SAFETY: inside the critical section (see Send/Sync note).
            let items = unsafe { &mut *self.items.get() };
            if items.len() == self.capacity {
                PushOutcome::Full
            } else {
                items.push(value);
                PushOutcome::Pushed
            }
        })
    }

    /// Pops the top value, or reports `Empty`.
    pub fn pop(&self) -> PopOutcome<T> {
        self.lock.with(|| {
            // SAFETY: inside the critical section (see Send/Sync note).
            let items = unsafe { &mut *self.items.get() };
            match items.pop() {
                Some(v) => PopOutcome::Popped(v),
                None => PopOutcome::Empty,
            }
        })
    }

    /// Current size (takes the lock).
    #[must_use]
    pub fn len(&self) -> usize {
        // SAFETY: inside the critical section (see Send/Sync note).
        self.lock.with(|| unsafe { (*self.items.get()).len() })
    }

    /// True when empty (takes the lock).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The capacity bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl<T, L: RawLock> std::fmt::Debug for LockStack<T, L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockStack")
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cso_locks::TicketLock;
    use std::collections::HashSet;
    use std::sync::Arc;

    #[test]
    fn lifo_order_solo() {
        let stack: LockStack<u32> = LockStack::new(8);
        for v in 1..=3 {
            assert_eq!(stack.push(v), PushOutcome::Pushed);
        }
        assert_eq!(stack.pop(), PopOutcome::Popped(3));
        assert_eq!(stack.len(), 2);
        assert_eq!(stack.capacity(), 8);
    }

    #[test]
    fn bounded_semantics() {
        let stack: LockStack<u32> = LockStack::new(1);
        assert_eq!(stack.pop(), PopOutcome::Empty);
        assert_eq!(stack.push(1), PushOutcome::Pushed);
        assert_eq!(stack.push(2), PushOutcome::Full);
        assert!(!stack.is_empty());
    }

    #[test]
    fn works_with_other_locks() {
        let ticket: LockStack<u32, TicketLock> = LockStack::with_lock(4, TicketLock::new());
        assert_eq!(ticket.push(1), PushOutcome::Pushed);
        assert_eq!(ticket.pop(), PopOutcome::Popped(1));
    }

    #[test]
    fn owned_payloads_are_dropped() {
        let stack: LockStack<String> = LockStack::new(4);
        stack.push("leak-check".to_owned());
        // Dropped with the stack; run under ASAN/Miri to verify.
    }

    #[test]
    fn concurrent_conservation() {
        const THREADS: u32 = 4;
        const PER_THREAD: u32 = 2_000;
        let stack: Arc<LockStack<u32>> = Arc::new(LockStack::new((THREADS * PER_THREAD) as usize));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let stack = Arc::clone(&stack);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    for i in 0..PER_THREAD {
                        assert_eq!(stack.push(t * PER_THREAD + i), PushOutcome::Pushed);
                        if let PopOutcome::Popped(v) = stack.pop() {
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
        while let PopOutcome::Popped(v) = stack.pop() {
            all.push(v);
        }
        assert_eq!(all.len(), (THREADS * PER_THREAD) as usize);
        assert_eq!(all.iter().collect::<HashSet<_>>().len(), all.len());
    }
}
