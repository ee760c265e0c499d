//! Object model and generic transformations from Mostefaoui & Raynal
//! (2011).
//!
//! The paper builds its contention-sensitive stack in three layers and
//! notes that the upper two are generic (§1.2: the starvation-freedom
//! mechanism "constitute\[s\] a contention manager that can be used to
//! solve other fairness-related problems"). This crate implements the
//! layers once, for *any* object:
//!
//! 1. [`Abortable`] — the paper's abortable-object notion: an operation
//!    either takes effect and returns a value, or aborts (returns ⊥,
//!    here [`Aborted`]) **with no effect**, which may happen only under
//!    contention. Abortable objects terminate always; solo operations
//!    never abort.
//! 2. [`NonBlocking`] — Figure 2: `repeat weak_op() until res ≠ ⊥`,
//!    retried at once, as printed.
//! 3. [`ContentionSensitive`] — Figure 3: a lock-free fast path guarded
//!    by the `CONTENTION` register, and a slow path under a
//!    deadlock-free lock boosted to starvation freedom by the
//!    `FLAG`/`TURN` round-robin of §4.4.
//!
//! The progress conditions themselves are catalogued in [`progress`]
//! (obstruction-freedom < non-blocking < starvation-freedom, §1.2).
//!
//! # Example
//!
//! `cso-stack`'s abortable stack plugged into both transformations:
//!
//! ```
//! use cso_core::{Abortable, Aborted};
//!
//! // A toy abortable object: a register with compare-and-set ops.
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! struct AbortableCounter(AtomicU64);
//!
//! enum Op { Incr }
//!
//! impl Abortable for AbortableCounter {
//!     type Op = Op;
//!     type Response = u64;
//!     fn try_apply(&self, _op: &Op) -> Result<u64, Aborted> {
//!         let v = self.0.load(Ordering::SeqCst);
//!         if self.0.compare_exchange(v, v + 1, Ordering::SeqCst, Ordering::SeqCst).is_ok() {
//!             Ok(v + 1)
//!         } else {
//!             Err(Aborted) // interfered with: abort with no effect
//!         }
//!     }
//! }
//!
//! use cso_core::NonBlocking;
//! let nb = NonBlocking::new(AbortableCounter(AtomicU64::new(0)));
//! assert_eq!(nb.apply(&Op::Incr), 1);
//! ```

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

mod abortable;
mod contention_sensitive;
mod error;
mod gate;
mod nonblocking;
pub mod progress;

pub use abortable::Abortable;
pub use contention_sensitive::{
    CombiningStats, ContentionSensitive, CsConfig, FaultStats, PathStats, RecoveryStats, Telemetry,
    FAST_ATTEMPTS, FAST_RETRIES, LOCKED_SOLO_ACCESS_BOUND,
};
pub use cso_memory::liveness::{Liveness, RecoveryPolicy};
pub use error::{Aborted, CsError, TimedOut, Unrecoverable};
pub use gate::{AdaptiveGate, GateStats};
pub use nonblocking::NonBlocking;
pub use progress::ProgressCondition;

#[cfg(test)]
pub(crate) mod testobj {
    //! A deterministic abortable object for testing the
    //! transformations: aborts a scripted number of times, then
    //! increments a counter.

    use super::{Abortable, Aborted};
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[derive(Debug, Default)]
    pub struct ScriptedObject {
        /// Remaining aborts to serve before the next success.
        pub aborts_left: AtomicUsize,
        /// Successful applications so far.
        pub applied: AtomicU64,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Bump(pub u64);

    impl ScriptedObject {
        pub fn with_aborts(n: usize) -> ScriptedObject {
            ScriptedObject {
                aborts_left: AtomicUsize::new(n),
                applied: AtomicU64::new(0),
            }
        }
    }

    impl Abortable for ScriptedObject {
        type Op = Bump;
        type Response = u64;

        fn try_apply(&self, op: &Bump) -> Result<u64, Aborted> {
            let left = self.aborts_left.load(Ordering::SeqCst);
            if left > 0
                && self
                    .aborts_left
                    .compare_exchange(left, left - 1, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            {
                return Err(Aborted);
            }
            Ok(self.applied.fetch_add(op.0, Ordering::SeqCst) + op.0)
        }
    }
}
