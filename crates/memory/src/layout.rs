//! Cache-line placement, as something a test can assert.
//!
//! A word one thread writes invalidates, in every other cache, the
//! whole line it sits on — and, with the adjacent-line prefetcher of
//! current x86 parts, its 128-byte pair. So "which fields share a
//! line" is part of an object's cost model even though no counted
//! access mentions it (DESIGN.md, "Layout contract"). These two
//! helpers let a layout test name the fields and state the rule,
//! instead of hand-rolling address arithmetic per crate.
//!
//! ```
//! use cso_memory::layout::{disjoint, lines_of};
//! use cso_memory::CachePadded;
//!
//! let pair = (CachePadded::new(1u8), CachePadded::new(2u8));
//! assert!(disjoint(&lines_of(&pair.0), &lines_of(&pair.1)));
//! let packed = (1u8, 2u8);
//! assert!(!disjoint(&lines_of(&packed.0), &lines_of(&packed.1)));
//! // Unsized values work too: a slice covers all its elements.
//! let cells = [CachePadded::new(0u64), CachePadded::new(0u64)];
//! assert_eq!(lines_of(&cells[..]).count(), 2);
//! ```

use std::ops::RangeInclusive;

/// The placement granularity in bytes: two 64-byte lines, the unit the
/// adjacent-line prefetcher moves and the one [`crate::CachePadded`]
/// and [`crate::Stripes`] align to.
const LINE: usize = 128;

/// The 128-byte lines (as `address / 128`) that the bytes of `value`
/// occupy. Covers only `value` itself, not what it points to: for a
/// `Vec` that is the header, not the heap block.
#[must_use]
pub fn lines_of<T: ?Sized>(value: &T) -> RangeInclusive<usize> {
    let start = (value as *const T).cast::<u8>() as usize;
    let last = start + std::mem::size_of_val(value).max(1) - 1;
    start / LINE..=last / LINE
}

/// True when the two line ranges have no line in common.
#[must_use]
pub fn disjoint(a: &RangeInclusive<usize>, b: &RangeInclusive<usize>) -> bool {
    a.end() < b.start() || b.end() < a.start()
}
