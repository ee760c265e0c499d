//! The sequential reference deque (differential-testing oracle).

use std::collections::VecDeque;

use crate::outcome::{DequeOp, DequePopOutcome, DequePushOutcome, DequeResponse, End};

/// A single-threaded deque with the **linear-HLM arena semantics**:
/// each end owns a block of null slots, a push consumes a null on its
/// own side (reporting `Full` when only that side's sentinel remains)
/// and a pop returns a null to the popping side.
///
/// This is deliberately *not* a plain bounded `VecDeque`: it is the
/// sequential specification of [`crate::AbortableDeque`]'s observable
/// behaviour, used by the property tests, the linearizability checker
/// and the model checker.
///
/// ```
/// use cso_deque::{SeqDeque, DequePushOutcome, End};
///
/// let mut d = SeqDeque::new(2); // arena: LN LN RN RN
/// assert_eq!(d.push(End::Right, 1), DequePushOutcome::Pushed);
/// assert_eq!(d.push(End::Right, 2), DequePushOutcome::Full); // right sentinel only
/// assert_eq!(d.push(End::Left, 0), DequePushOutcome::Pushed);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SeqDeque<V> {
    left_nulls: usize,
    right_nulls: usize,
    items: VecDeque<V>,
}

impl<V: Clone> SeqDeque<V> {
    /// An empty deque over a `capacity + 2`-slot arena, nulls split
    /// like [`crate::AbortableDeque::new`] (left gets the odd slot).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> SeqDeque<V> {
        assert!(capacity > 0, "deque capacity must be positive");
        let left = 1 + capacity.div_ceil(2);
        SeqDeque {
            left_nulls: left,
            right_nulls: capacity + 2 - left,
            items: VecDeque::new(),
        }
    }

    /// Pushes at `end`, honouring the per-side space rule.
    pub fn push(&mut self, end: End, value: V) -> DequePushOutcome {
        match end {
            End::Right => {
                if self.right_nulls == 1 {
                    DequePushOutcome::Full
                } else {
                    self.right_nulls -= 1;
                    self.items.push_back(value);
                    DequePushOutcome::Pushed
                }
            }
            End::Left => {
                if self.left_nulls == 1 {
                    DequePushOutcome::Full
                } else {
                    self.left_nulls -= 1;
                    self.items.push_front(value);
                    DequePushOutcome::Pushed
                }
            }
        }
    }

    /// Pops from `end`, returning a null slot to that side.
    pub fn pop(&mut self, end: End) -> DequePopOutcome<V> {
        let popped = match end {
            End::Right => self.items.pop_back(),
            End::Left => self.items.pop_front(),
        };
        match popped {
            Some(v) => {
                match end {
                    End::Right => self.right_nulls += 1,
                    End::Left => self.left_nulls += 1,
                }
                DequePopOutcome::Popped(v)
            }
            None => DequePopOutcome::Empty,
        }
    }

    /// Applies an operation descriptor (checker-facing interface).
    pub fn apply(&mut self, op: &DequeOp<V>) -> DequeResponse<V> {
        match op {
            DequeOp::Push(end, v) => DequeResponse::Push(self.push(*end, v.clone())),
            DequeOp::Pop(end) => DequeResponse::Pop(self.pop(*end)),
        }
    }

    /// Number of stored values.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no values are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The content, left to right.
    #[must_use]
    pub fn items(&self) -> &VecDeque<V> {
        &self.items
    }

    /// Free slots on the given side (including the sentinel).
    #[must_use]
    pub fn nulls(&self, end: End) -> usize {
        match end {
            End::Left => self.left_nulls,
            End::Right => self.right_nulls,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_accounting() {
        let mut d: SeqDeque<u32> = SeqDeque::new(3); // arena of 5: LLL RR
        assert_eq!(d.nulls(End::Left), 3);
        assert_eq!(d.nulls(End::Right), 2);
        assert_eq!(d.push(End::Right, 1), DequePushOutcome::Pushed);
        assert_eq!(d.push(End::Right, 2), DequePushOutcome::Full);
        assert_eq!(d.push(End::Left, 0), DequePushOutcome::Pushed);
        assert_eq!(d.push(End::Left, 9), DequePushOutcome::Pushed);
        assert_eq!(d.push(End::Left, 8), DequePushOutcome::Full);
        assert_eq!(d.items().iter().copied().collect::<Vec<_>>(), vec![9, 0, 1]);
        assert_eq!(d.pop(End::Right), DequePopOutcome::Popped(1));
        assert_eq!(d.push(End::Right, 5), DequePushOutcome::Pushed);
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
    }

    #[test]
    fn empty_pops() {
        let mut d: SeqDeque<u32> = SeqDeque::new(2);
        assert_eq!(d.pop(End::Left), DequePopOutcome::Empty);
        assert_eq!(d.pop(End::Right), DequePopOutcome::Empty);
    }
}
