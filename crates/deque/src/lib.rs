//! The obstruction-free double-ended queue — the paper's reference
//! \[8\] (Herlihy, Luchangco & Moir, ICDCS'03), integrated into the
//! Mostefaoui–Raynal object family.
//!
//! The paper's progress hierarchy (§1.2) has three rungs. The stack
//! and queue crates populate the top two (non-blocking,
//! starvation-free); this crate supplies a *genuinely
//! obstruction-free-only* object for the bottom rung — the HLM linear
//! bounded deque, whose two-`C&S` operations can abort **each other**
//! symmetrically, so naive retrying guarantees only solo termination:
//!
//! | Type | Progress | How |
//! |---|---|---|
//! | [`AbortableDeque`] | abortable | single attempt of the HLM operation |
//! | [`HlmDeque`] | **obstruction-free** | retry ⊥ (the original HLM loop) |
//! | [`CsDeque`] | starvation-free | Figure 3 over the abortable deque |
//!
//! That last row is the paper's §1.2 observation made concrete: the
//! contention-sensitive transformation is also an
//! obstruction-freedom booster — it lifts the weakest rung straight
//! to the strongest. Both retry loops keep only their operations and
//! dereference to `cso-core`'s transformation (Figure 2's loop, or
//! Figure 3) and the [`AbortableDeque`] for everything else.
//!
//! # The algorithm (linear bounded HLM deque)
//!
//! An array `A[0..=m]` always matches the pattern `LN⁺ DATA* RN⁺`
//! (left-null block, data, right-null block). A right push finds the
//! boundary (leftmost `RN`), *bumps* the sequence number of the slot
//! left of it (serializing against neighbours), then converts the
//! `RN` slot to data; pops mirror. Both ends consume their own null
//! block: `rightpush` reports `Full` when only the right sentinel
//! remains **even if space is left on the other side** — the
//! documented semantics of the linear (non-circular) HLM variant,
//! mirrored exactly by [`SeqDeque`].
//!
//! # Example
//!
//! ```
//! use cso_deque::{CsDeque, DequePushOutcome, DequePopOutcome};
//!
//! // Capacity 8 (per the two-sided arena rules), 2 processes.
//! let deque: CsDeque<u32> = CsDeque::new(8, 2);
//! assert_eq!(deque.push_right(0, 1), DequePushOutcome::Pushed);
//! assert_eq!(deque.push_left(1, 2), DequePushOutcome::Pushed);
//! assert_eq!(deque.pop_right(0), DequePopOutcome::Popped(1));
//! assert_eq!(deque.pop_right(0), DequePopOutcome::Popped(2));
//! assert_eq!(deque.pop_left(1), DequePopOutcome::Empty);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod abortable;
mod contention_sensitive;
mod obstruction_free;
mod outcome;
mod seqspec;

pub use abortable::AbortableDeque;
pub use contention_sensitive::CsDeque;
pub use obstruction_free::HlmDeque;
pub use outcome::{DequeOp, DequePopOutcome, DequePushOutcome, DequeResponse, End};
pub use seqspec::SeqDeque;

/// A value storable in the deque's packed registers — an alias for
/// [`cso_memory::bits::Bits32`].
pub use cso_memory::bits::Bits32 as DequeValue;
