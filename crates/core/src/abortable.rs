//! The abortable-object abstraction.

use cso_memory::mode::Mode;

use crate::error::Aborted;

/// An *abortable* concurrent object (paper §1.2).
///
/// "An abortable concurrent object behaves like an ordinary object
/// when accessed sequentially, but may abort operations when accessed
/// concurrently (in that case the aborted operation **has no effect**
/// and returns a default value denoted ⊥)."
///
/// # Contract for implementors
///
/// * **Total**: `try_apply` always returns (it never blocks or loops
///   unboundedly);
/// * **Solo success**: an invocation that runs in a contention-free
///   context (no concurrent operation on the object) must return
///   `Ok(_)`;
/// * **Abort = no effect**: an `Err(Aborted)` invocation must leave
///   the abstract state of the object exactly as if it was never
///   invoked;
/// * **Linearizable**: the non-aborted operations must be linearizable
///   with respect to the object's sequential specification.
///
/// The operation is taken by reference so the retry-based
/// transformations ([`crate::NonBlocking`], [`crate::ContentionSensitive`])
/// can re-submit it without requiring `Op: Clone`.
///
/// An abortable object is *stronger* than an obstruction-free one:
/// both guarantee solo termination, but the abortable object also
/// terminates (with ⊥) under contention, instead of possibly not
/// terminating at all (§1.2).
pub trait Abortable: Send + Sync {
    /// The operation descriptor (e.g. `Push(v)` / `Pop` for a stack).
    type Op;

    /// The non-⊥ result of an operation (e.g. the popped value).
    type Response;

    /// Attempts the operation once. An object with fail points or
    /// probes reads the run-time mode (`cso_memory::mode::armed`) here
    /// and runs the matching [`Abortable::try_apply_as`].
    ///
    /// # Errors
    ///
    /// Returns [`Aborted`] (the paper's ⊥) when a concurrent operation
    /// interfered; the object state is unchanged in that case.
    fn try_apply(&self, op: &Self::Op) -> Result<Self::Response, Aborted>;

    /// [`Abortable::try_apply`] in the mode `M` the caller has already
    /// read: the `Quiet` instance has no fail point or probe, the
    /// `Armed` one has every site in place. The transformations call
    /// this, so Figure 3's attempt 0 reads the word once. An object
    /// whose weak operation has no site keeps this default.
    ///
    /// # Errors
    ///
    /// As [`Abortable::try_apply`].
    fn try_apply_as<M: Mode>(&self, op: &Self::Op) -> Result<Self::Response, Aborted> {
        self.try_apply(op)
    }

    /// Elimination hook: attempts to complete `op` by *rendezvous*
    /// with a concurrent inverse operation (e.g. a stack's push/pop
    /// pair exchanging the value through `cso_memory::exchange`),
    /// without touching the object's main state. The escalation
    /// ladder of [`crate::ContentionSensitive`] (with
    /// [`crate::CsConfig::elimination`]) calls this after a weak-op
    /// abort, *before* raising `CONTENTION` or taking the lock.
    ///
    /// `polls` bounds how long the attempt may park waiting for a
    /// partner (in spin iterations) — the caller scales it with its
    /// contention estimate. The attempt must be bounded and must
    /// return `None` (no effect) when no partner commits.
    ///
    /// A returned response must be one the operation could have
    /// received from [`Abortable::try_apply`] in some linearizable
    /// execution — the pair linearizes back-to-back at the instant of
    /// the exchange. The default declines (objects without an inverse
    /// structure simply never eliminate).
    fn try_eliminate(&self, op: &Self::Op, polls: u32) -> Option<Self::Response> {
        let _ = (op, polls);
        None
    }
}

// An `Arc<O>` or reference to an abortable object is itself abortable,
// so the transformations can share objects freely.
impl<O: Abortable + ?Sized> Abortable for &O {
    type Op = O::Op;
    type Response = O::Response;

    fn try_apply(&self, op: &Self::Op) -> Result<Self::Response, Aborted> {
        (**self).try_apply(op)
    }

    fn try_apply_as<M: Mode>(&self, op: &Self::Op) -> Result<Self::Response, Aborted> {
        (**self).try_apply_as::<M>(op)
    }

    fn try_eliminate(&self, op: &Self::Op, polls: u32) -> Option<Self::Response> {
        (**self).try_eliminate(op, polls)
    }
}

impl<O: Abortable + ?Sized> Abortable for std::sync::Arc<O> {
    type Op = O::Op;
    type Response = O::Response;

    fn try_apply(&self, op: &Self::Op) -> Result<Self::Response, Aborted> {
        (**self).try_apply(op)
    }

    fn try_apply_as<M: Mode>(&self, op: &Self::Op) -> Result<Self::Response, Aborted> {
        (**self).try_apply_as::<M>(op)
    }

    fn try_eliminate(&self, op: &Self::Op, polls: u32) -> Option<Self::Response> {
        (**self).try_eliminate(op, polls)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testobj::{Bump, ScriptedObject};
    use std::sync::Arc;

    #[test]
    fn scripted_object_aborts_then_succeeds() {
        let obj = ScriptedObject::with_aborts(2);
        assert_eq!(obj.try_apply(&Bump(1)), Err(Aborted));
        assert_eq!(obj.try_apply(&Bump(1)), Err(Aborted));
        assert_eq!(obj.try_apply(&Bump(1)), Ok(1));
        assert_eq!(obj.try_apply(&Bump(5)), Ok(6));
    }

    #[test]
    fn references_and_arcs_forward() {
        let obj = Arc::new(ScriptedObject::with_aborts(0));
        assert_eq!(obj.try_apply(&Bump(2)), Ok(2));
        let by_ref: &ScriptedObject = &obj;
        assert_eq!(by_ref.try_apply(&Bump(2)), Ok(4));
    }
}
