//! Linearizability checking for concurrent-object histories.
//!
//! Linearizability (Herlihy & Wing, the paper's safety condition,
//! §1.1) holds when "the operation invocations issued by the processes
//! appear as if they have been executed sequentially, each invocation
//! appearing as being executed instantaneously at some point of the
//! time line between its start event and its end event".
//!
//! This crate decides that property for recorded histories:
//!
//! * [`history`] — invoke/return event sequences ([`History`]);
//! * [`recorder`] — a concurrent [`Recorder`] producing real-time
//!   ordered histories from live runs, and [`record`], which runs one
//!   operation script per thread through a closure and records it;
//! * [`spec`] — the [`SeqSpec`] trait: a sequential specification as a
//!   pure state-transition function, and [`RelaxedSpec`], its
//!   nondeterministic form (every `SeqSpec` is one, with a single
//!   candidate per step);
//! * [`checker`] — the decision procedure, [`check_linearizable`]: one
//!   Wing & Gong backtracking search over any [`RelaxedSpec`], with
//!   Lowe-style memoization of (linearized-set, state) configurations;
//! * [`specs`] — the specifications: the object crates' own
//!   `SeqStack`, `SeqQueue` and `SeqDeque` (one sequential type per
//!   object, in the objects' own vocabulary), a CAS register, and the
//!   k-relaxed stack and queue, decided by the same
//!   [`check_linearizable`].
//!
//! # Example
//!
//! ```
//! use cso_lincheck::{check_linearizable, record};
//! use cso_stack::{AbortableStack, SeqStack, StackOp, StackResponse};
//!
//! // Two threads push and pop a Figure-1 stack; a ⊥ (`None`) is
//! // cancelled, since an aborted operation took no effect.
//! let stack: AbortableStack<u32> = AbortableStack::new(4);
//! let scripts = [
//!     vec![StackOp::Push(1), StackOp::Pop],
//!     vec![StackOp::Push(2), StackOp::Pop],
//! ];
//! let history = record(&scripts, |_proc, op| match *op {
//!     StackOp::Push(v) => stack.weak_push(v).ok().map(StackResponse::Push),
//!     StackOp::Pop => stack.weak_pop().ok().map(StackResponse::Pop),
//! });
//!
//! let verdict = check_linearizable(&SeqStack::new(4), &history);
//! assert!(verdict.is_linearizable(), "{history}");
//! ```

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod checker;
pub mod history;
pub mod recorder;
pub mod spec;
pub mod specs;

pub use checker::{check_linearizable, LinResult};
pub use history::{Event, History};
pub use recorder::{record, Recorder};
pub use spec::{RelaxedSpec, SeqSpec};
