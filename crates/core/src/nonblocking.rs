//! Figure 2: the abortable → non-blocking transformation.

use crate::abortable::Abortable;
use crate::progress::ProgressCondition;

/// Figure 2 of the paper, generalized to any [`Abortable`] object:
///
/// ```text
/// operation non_blocking_op(par):
///     repeat res ← weak_op(par) until res ≠ ⊥;
///     return res.
/// ```
///
/// Because a solo weak operation never aborts, the loop trivially
/// satisfies obstruction-freedom; where some concurrent weak operation
/// always succeeds (an abort means *another* operation's CAS won, as
/// for the stack and the queue), at least one looping process exits —
/// the implementation is **non-blocking** (lock-free). Over an object
/// without that property (the HLM deque) the same loop is only
/// obstruction-free. No operation of the wrapper ever returns ⊥.
///
/// The loop retries at once, as printed. The one pacing policy in the
/// repo is Figure 3's `cso_memory::backoff::retry_pause`.
///
/// ```
/// # use cso_core::{Abortable, Aborted, NonBlocking};
/// # use std::sync::atomic::{AtomicU64, Ordering};
/// # struct Obj(AtomicU64);
/// # impl Abortable for Obj {
/// #     type Op = u64;
/// #     type Response = u64;
/// #     fn try_apply(&self, op: &u64) -> Result<u64, Aborted> {
/// #         Ok(self.0.fetch_add(*op, Ordering::SeqCst) + *op)
/// #     }
/// # }
/// let nb = NonBlocking::new(Obj(AtomicU64::new(0)));
/// assert_eq!(nb.apply(&5), 5); // never ⊥
/// ```
#[derive(Debug)]
pub struct NonBlocking<O> {
    inner: O,
}

impl<O: Abortable> NonBlocking<O> {
    /// Wraps `inner` with the paper's immediate-retry loop.
    #[must_use]
    pub fn new(inner: O) -> NonBlocking<O> {
        NonBlocking { inner }
    }

    /// The progress condition this transformation provides.
    pub const PROGRESS: ProgressCondition = ProgressCondition::NonBlocking;

    /// Applies `op`, retrying aborts until it takes effect. Never
    /// returns ⊥.
    pub fn apply(&self, op: &O::Op) -> O::Response {
        loop {
            if let Ok(res) = self.inner.try_apply(op) {
                return res;
            }
        }
    }
}

/// The wrapped object's own accessors, read through the loop (see the
/// same impl on [`ContentionSensitive`](crate::ContentionSensitive)).
impl<O> std::ops::Deref for NonBlocking<O> {
    type Target = O;

    #[inline]
    fn deref(&self) -> &O {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testobj::{Bump, ScriptedObject};
    use std::sync::atomic::Ordering;

    #[test]
    fn retries_until_success() {
        let nb = NonBlocking::new(ScriptedObject::with_aborts(10));
        assert_eq!(nb.apply(&Bump(3)), 3);
        assert_eq!(nb.aborts_left.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn retries_through_five_aborts() {
        let nb = NonBlocking::new(ScriptedObject::with_aborts(5));
        assert_eq!(nb.apply(&Bump(1)), 1);
        assert_eq!(nb.aborts_left.load(Ordering::SeqCst), 0);
        assert_eq!(nb.applied.load(Ordering::SeqCst), 1);
    }
}
