//! The Mostefaoui–Raynal methodology applied to a FIFO queue.
//!
//! The paper's motivating example of *non-interfering* concurrent
//! operations is "enqueuing and dequeuing on a non-empty queue"
//! (§1.1): the two operations touch opposite ends and should not pay
//! for each other. The paper then develops only the stack; this crate
//! is the **extension** (flagged in `DESIGN.md`) that carries the same
//! three-layer construction to a bounded FIFO queue:
//!
//! | Type | Analogue of | Progress |
//! |---|---|---|
//! | [`AbortableQueue`] | Figure 1 | abortable |
//! | [`NonBlockingQueue`] | Figure 2 | non-blocking |
//! | [`CsQueue`] | Figure 3 | starvation-free, contention-sensitive |
//!
//! As for the stack, the last two keep only their own operations and
//! dereference to `cso-core`'s transformation and the
//! [`AbortableQueue`] for everything else.
//!
//! The design mirrors the stack's register discipline: a `TAIL`
//! register `⟨count, value, sn⟩` is the authority for the enqueue end
//! (with the same lazy slot write + helping + per-slot sequence
//! numbers), and a `HEAD` register carries the monotone dequeue
//! counter. Because enqueue CASes only `TAIL` and dequeue CASes only
//! `HEAD`, **an enqueue never aborts a dequeue and vice versa** — the
//! paper's non-interference, checked on every schedule (`model_weak`).
//!
//! # Quickstart
//!
//! ```
//! use cso_queue::{CsQueue, EnqueueOutcome, DequeueOutcome};
//!
//! let queue: CsQueue<u32> = CsQueue::new(64, 2);
//! assert_eq!(queue.enqueue(0, 1), EnqueueOutcome::Enqueued);
//! assert_eq!(queue.enqueue(0, 2), EnqueueOutcome::Enqueued);
//! assert_eq!(queue.dequeue(1), DequeueOutcome::Dequeued(1)); // FIFO
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod abortable;
mod contention_sensitive;
mod nonblocking;
mod outcome;
mod seqspec;

pub use abortable::{AbortableQueue, QueueAbortStats};
pub use contention_sensitive::CsQueue;
pub use nonblocking::NonBlockingQueue;
pub use outcome::{DequeueOutcome, EnqueueOutcome, QueueOp, QueueResponse};
pub use seqspec::SeqQueue;

/// A value storable directly in the queue's packed registers — an
/// alias for [`cso_memory::bits::Bits32`].
pub use cso_memory::bits::Bits32 as QueueValue;
