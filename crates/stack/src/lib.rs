//! The concurrent stacks of Mostefaoui & Raynal (2011).
//!
//! The paper constructs one object — a bounded shared stack — three
//! times, each construction strengthening the previous one's liveness:
//!
//! | Type | Paper | Progress | Lock use |
//! |---|---|---|---|
//! | [`AbortableStack`] | Figure 1 | abortable (≥ obstruction-free) | none |
//! | [`NonBlockingStack`] | Figure 2 | non-blocking | none |
//! | [`CsStack`] | Figure 3 | starvation-free | only under contention |
//!
//! plus the baseline the paper measures them against: [`LockStack`]
//! (everything under a single lock — the "traditional" approach of
//! §1.1).
//!
//! Figures 2 and 3 keep only their own operations: each dereferences
//! to `cso-core`'s generic transformation, which has the statistics,
//! and that to the [`AbortableStack`], which has the accessors.
//!
//! Values stored in the register-based stacks are 32-bit
//! ([`StackValue`]); a larger payload rides as an index into storage
//! the caller owns (`examples/job_scheduler.rs`).
//!
//! # Quickstart
//!
//! ```
//! use cso_stack::{CsStack, PushOutcome, PopOutcome};
//!
//! // A stack with capacity 1024 shared by up to 4 processes.
//! let stack: CsStack<u32> = CsStack::new(1024, 4);
//!
//! // Process 0 pushes, process 3 pops. Contention-free operations
//! // take the lock-free fast path (6 shared-memory accesses).
//! assert_eq!(stack.push(0, 7), PushOutcome::Pushed);
//! assert_eq!(stack.pop(3), PopOutcome::Popped(7));
//! assert_eq!(stack.pop(3), PopOutcome::Empty);
//! ```

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

mod abortable;
mod contention_sensitive;
mod lock_stack;
mod nonblocking;
mod outcome;
mod seqspec;
mod value;

pub use abortable::{AbortStats, AbortableStack};
pub use contention_sensitive::CsStack;
pub use lock_stack::LockStack;
pub use nonblocking::NonBlockingStack;
pub use outcome::{PopOutcome, PushOutcome, StackOp, StackResponse};
pub use seqspec::SeqStack;
pub use value::StackValue;
