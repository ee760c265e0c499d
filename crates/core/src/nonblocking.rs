//! Figure 2: the abortable → non-blocking transformation.

use crate::abortable::Abortable;
use crate::manager::{ContentionManager, NoBackoff};
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
/// The `M` parameter selects the backoff policy between retries;
/// [`NoBackoff`] is the paper's literal loop.
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
pub struct NonBlocking<O, M = NoBackoff> {
    inner: O,
    manager: M,
}

impl<O: Abortable> NonBlocking<O, NoBackoff> {
    /// Wraps `inner` with the paper's immediate-retry loop.
    #[must_use]
    pub fn new(inner: O) -> NonBlocking<O, NoBackoff> {
        NonBlocking {
            inner,
            manager: NoBackoff,
        }
    }
}

impl<O: Abortable, M: ContentionManager> NonBlocking<O, M> {
    /// Wraps `inner` with retries paced by `manager`.
    #[must_use]
    pub fn with_manager(inner: O, manager: M) -> NonBlocking<O, M> {
        NonBlocking { inner, manager }
    }

    /// The progress condition this transformation provides.
    pub const PROGRESS: ProgressCondition = ProgressCondition::NonBlocking;

    /// Applies `op`, retrying aborts until it takes effect. Never
    /// returns ⊥.
    pub fn apply(&self, op: &O::Op) -> O::Response {
        let mut attempt: u32 = 0;
        loop {
            match self.inner.try_apply(op) {
                Ok(res) => return res,
                Err(_) => {
                    self.manager.on_abort(attempt);
                    attempt = attempt.saturating_add(1);
                }
            }
        }
    }

    /// Applies `op` with a retry budget, returning `None` if every
    /// attempt aborted. Exposes the intermediate abort count for
    /// diagnostics (experiment E2 uses it).
    pub fn apply_bounded(&self, op: &O::Op, max_attempts: u32) -> Option<O::Response> {
        for attempt in 0..max_attempts {
            if let Ok(res) = self.inner.try_apply(op) {
                return Some(res);
            }
            self.manager.on_abort(attempt);
        }
        None
    }

    /// The wrapped abortable object.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Unwraps the transformation.
    pub fn into_inner(self) -> O {
        self.inner
    }
}

/// The wrapped object's own accessors, read through the loop (see the
/// same impl on [`ContentionSensitive`](crate::ContentionSensitive)).
impl<O, M> std::ops::Deref for NonBlocking<O, M> {
    type Target = O;

    #[inline]
    fn deref(&self) -> &O {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{ExpBackoff, YieldBackoff};
    use crate::testobj::{Bump, ScriptedObject};

    #[test]
    fn retries_until_success() {
        let nb = NonBlocking::new(ScriptedObject::with_aborts(10));
        assert_eq!(nb.apply(&Bump(3)), 3);
        assert_eq!(
            nb.inner()
                .aborts_left
                .load(std::sync::atomic::Ordering::SeqCst),
            0
        );
    }

    #[test]
    fn works_with_every_manager() {
        let nb = NonBlocking::with_manager(ScriptedObject::with_aborts(5), ExpBackoff::default());
        assert_eq!(nb.apply(&Bump(1)), 1);
        let nb = NonBlocking::with_manager(ScriptedObject::with_aborts(5), YieldBackoff);
        assert_eq!(nb.apply(&Bump(1)), 1);
    }

    #[test]
    fn bounded_apply_gives_up() {
        let nb = NonBlocking::new(ScriptedObject::with_aborts(100));
        assert_eq!(nb.apply_bounded(&Bump(1), 10), None);
        // 10 attempts consumed 10 scripted aborts.
        assert_eq!(
            nb.inner()
                .aborts_left
                .load(std::sync::atomic::Ordering::SeqCst),
            90
        );
    }

    #[test]
    fn bounded_apply_succeeds_within_budget() {
        let nb = NonBlocking::new(ScriptedObject::with_aborts(3));
        assert_eq!(nb.apply_bounded(&Bump(2), 10), Some(2));
    }

    #[test]
    fn into_inner_round_trips() {
        let nb = NonBlocking::new(ScriptedObject::with_aborts(0));
        let obj = nb.into_inner();
        assert_eq!(obj.applied.load(std::sync::atomic::Ordering::SeqCst), 0);
    }
}
