//! Sharded, elastic multi-lane wrappers over the contention-sensitive
//! objects.
//!
//! Every structure in `cso-stack` / `cso-queue` is a single Figure-3
//! TOP/CONTENTION/FLAG/TURN cell, so its peak throughput is capped by
//! one contended cache line no matter how many cores are offered.
//! This crate scales past that cell by composition, not by changing
//! the paper's algorithms: [`ShardedCsStack`] and [`ShardedCsQueue`]
//! are **N independent Figure-3 cells** (each a full `CsStack` /
//! `CsQueue` with the escalation ladder, combining slow path, and
//! crash-recovery machinery intact) behind a thin router — two
//! aliases of one [`Sharded`], which has every accessor.
//!
//! The router adds three things:
//!
//! * **Thread-affine lanes with bounded work-stealing.** Process `p`
//!   routes to lane `p mod active`; a pop that finds its home lane
//!   empty steals from the other lanes (steered by the lanes' own
//!   counts, below), and a push that finds its home lane full spills
//!   the same way. Every router step is an *uncounted* access — the
//!   per-lane solo budget stays at Theorem 1's exact six (stack) /
//!   seven (queue) counted shared-memory accesses.
//! * **An explicit out-of-order bound.** N lanes are N orders, so the
//!   structure is *k-relaxed*: per-lane capacity is derived from
//!   [`ShardConfig::k`] so that a popped element can never be more than
//!   [`relaxation_bound`](ShardedCsStack::relaxation_bound) positions
//!   away from the strict answer (see DESIGN.md "Sharding &
//!   elasticity" for the bound's proof sketch). **Exact order is one
//!   cell**: [`ShardConfig::strict`] builds a single full-capacity
//!   lane, whose order, linearizability, starvation-freedom and crash
//!   story are the cell's own (Theorem 1) — no lock in front of it when
//!   nobody interferes, which is the paper's point.
//! * **Elastic lane count.** When enabled, the active lane prefix
//!   doubles while the threads seen using the structure outnumber the
//!   active lanes and collide in them, and halves when there is a lane
//!   to spare per thread: a solo thread contracts to one cell — solo
//!   cost identical to an unsharded cell — and rising contention fans
//!   out to the configured maximum. The sensor *reads* cells the
//!   operations already write (each thread's statistics stripe, each
//!   lane's abort/locked counts) once per `eval_period` operations of
//!   one thread; an operation reports nothing to it. Pops always steal
//!   from *all* lanes, so a merge can never strand values in a
//!   deactivated lane.
//!
//! **The lanes are the aggregate.** A lane's element count already
//! sits in its own registers — the `index` field of a stack's `TOP`, a
//! queue's `TAIL − HEAD` — so the router keeps no copy: it steers by
//! an *uncounted* peek of the lane it is about to operate on (skip a
//! lane that reads full on a push, empty on a pop), and the lane
//! operation itself re-validates. An operation that stays in its home
//! lane therefore executes no locked instruction and writes no line
//! but the lane's and its own statistics stripe — in every
//! configuration — there is nothing derived for a crash to leave
//! stale, and `len()` / `is_empty()` sum the peeks: O(lanes), racy,
//! exact at quiescence.
//!
//! # Quick start
//!
//! ```
//! use cso_shard::{ShardConfig, ShardedCsStack};
//! use cso_stack::{PopOutcome, PushOutcome};
//!
//! // 4 lanes, k-relaxed with out-of-order distance ≤ 8, elastic.
//! let stack: ShardedCsStack<u32> =
//!     ShardedCsStack::new(64, 8, ShardConfig::relaxed(4, 8).with_elastic());
//! assert_eq!(stack.push(0, 7), PushOutcome::Pushed);
//! assert_eq!(stack.pop(0), PopOutcome::Popped(7));
//! assert!(stack.relaxation_bound() <= 8.max(stack.n() - 1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
mod elastic;
mod queue;
mod router;
mod stack;

pub use config::ShardConfig;
pub use queue::ShardedCsQueue;
pub use router::{RouterStats, ShardLane, Sharded};
pub use stack::ShardedCsStack;
