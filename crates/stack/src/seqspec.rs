//! The sequential reference stack (differential-testing oracle).

use crate::outcome::{PopOutcome, PushOutcome, StackOp, StackResponse};

/// A plain single-threaded bounded stack with the same vocabulary as
/// the concurrent ones — the sequential specification that
/// linearizability is defined against (§1.1), and the only one: the
/// property tests compare against it, and `cso-lincheck` implements
/// its `SeqSpec` for this type, so the stress suites and the model
/// checker's bodies judge every recorded history against it.
///
/// ```
/// use cso_stack::{SeqStack, PushOutcome, PopOutcome};
///
/// let mut stack = SeqStack::new(2);
/// assert_eq!(stack.push(1), PushOutcome::Pushed);
/// assert_eq!(stack.push(2), PushOutcome::Pushed);
/// assert_eq!(stack.push(3), PushOutcome::Full);
/// assert_eq!(stack.pop(), PopOutcome::Popped(2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SeqStack<V> {
    capacity: usize,
    items: Vec<V>,
}

impl<V: Clone> SeqStack<V> {
    /// Creates an empty stack of capacity `capacity`.
    #[must_use]
    pub fn new(capacity: usize) -> SeqStack<V> {
        SeqStack {
            capacity,
            items: Vec::new(),
        }
    }

    /// Pushes `value`, or reports `Full` at capacity.
    pub fn push(&mut self, value: V) -> PushOutcome {
        if self.items.len() == self.capacity {
            PushOutcome::Full
        } else {
            self.items.push(value);
            PushOutcome::Pushed
        }
    }

    /// Pops the top value, or reports `Empty`.
    pub fn pop(&mut self) -> PopOutcome<V> {
        match self.items.pop() {
            Some(v) => PopOutcome::Popped(v),
            None => PopOutcome::Empty,
        }
    }

    /// Applies an operation descriptor (checker-facing interface).
    pub fn apply(&mut self, op: &StackOp<V>) -> StackResponse<V> {
        match op {
            StackOp::Push(v) => StackResponse::Push(self.push(v.clone())),
            StackOp::Pop => StackResponse::Pop(self.pop()),
        }
    }

    /// Current size.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The capacity bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// A view of the current content, bottom first.
    #[must_use]
    pub fn items(&self) -> &[V] {
        &self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_lifo_semantics() {
        let mut s = SeqStack::new(2);
        assert_eq!(s.pop(), PopOutcome::<u32>::Empty);
        assert_eq!(s.push(1), PushOutcome::Pushed);
        assert_eq!(s.push(2), PushOutcome::Pushed);
        assert_eq!(s.push(3), PushOutcome::Full);
        assert_eq!(s.items(), &[1, 2]);
        assert_eq!(s.pop(), PopOutcome::Popped(2));
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
        assert_eq!(s.capacity(), 2);
    }

    #[test]
    fn apply_mirrors_direct_calls() {
        let mut s = SeqStack::new(4);
        assert_eq!(
            s.apply(&StackOp::Push(7u32)),
            StackResponse::Push(PushOutcome::Pushed)
        );
        assert_eq!(
            s.apply(&StackOp::Pop),
            StackResponse::Pop(PopOutcome::Popped(7))
        );
        assert_eq!(
            s.apply(&StackOp::Pop),
            StackResponse::Pop(PopOutcome::Empty)
        );
    }
}
