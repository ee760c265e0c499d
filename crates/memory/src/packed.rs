//! Multi-field register words, packed into a single `u64`.
//!
//! The paper's stack uses two register shapes (§3):
//!
//! * `TOP` holds a triple `⟨index, value, seqnb⟩` — "an index (to
//!   address an entry of `STACK`), a value and a counter";
//! * each `STACK[x]` holds a pair `⟨val, sn⟩` — a value and the
//!   sequence number that defeats the ABA problem (§2.2).
//!
//! Hardware `Compare&Swap` operates on machine words, so these triples
//! are bit-packed: 16-bit index, 16-bit sequence tag, 32-bit value. The
//! queue sibling (`cso-queue`) adds `⟨count⟩` and `⟨count, sn, value⟩`
//! words with the same layout discipline.
//!
//! # Tag width
//!
//! A 16-bit tag wraps after 65 536 same-slot operations. An ABA
//! violation requires a thread to stall across *exactly* a multiple of
//! 2¹⁶ operations on one slot and then have its stale CAS win — the
//! classical bounded-tag caveat. The model checker (`cso-sched`, the
//! `model` feature) explores these packed words as shipped, so what it
//! validates is the logic *at* this tag width; the wrap arithmetic has
//! its own stress tests (`tests/wraparound.rs`).
//!
//! # Layout
//!
//! ```text
//! bit 63........32 31........16 15.........0
//!     value (u32)  index (u16)  seq (u16)     TopWord / TailWord
//!     value (u32)  (zero)       seq (u16)     SlotWord
//!     (zero)       (zero)       count (u16)   HeadWord
//! ```

/// The paper's `TOP` register content: `⟨index, value, seqnb⟩`.
///
/// `index` addresses the `STACK` array entry currently at the top,
/// `value` is the element stored there, and `seq` is the sequence
/// number that the pending lazy write will install into
/// `STACK[index]` (§3, "the implementation is lazy").
///
/// ```
/// use cso_memory::packed::TopWord;
/// let w = TopWord { index: 3, value: 0xDEAD_BEEF, seq: 41 };
/// assert_eq!(TopWord::unpack(w.pack()), w);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TopWord {
    /// Index of the top entry in the `STACK` array (0 = empty stack).
    pub index: u16,
    /// Sequence number associated with the pending write of
    /// `STACK[index]`.
    pub seq: u16,
    /// The value at the top of the stack.
    pub value: u32,
}

impl TopWord {
    /// Packs the triple into one `u64` register word.
    #[inline]
    #[must_use]
    pub fn pack(self) -> u64 {
        (u64::from(self.value) << 32) | (u64::from(self.index) << 16) | u64::from(self.seq)
    }

    /// Unpacks a register word produced by [`TopWord::pack`].
    #[inline]
    #[must_use]
    pub fn unpack(word: u64) -> TopWord {
        TopWord {
            value: (word >> 32) as u32,
            index: ((word >> 16) & 0xFFFF) as u16,
            seq: (word & 0xFFFF) as u16,
        }
    }
}

impl From<TopWord> for u64 {
    fn from(w: TopWord) -> u64 {
        w.pack()
    }
}

impl From<u64> for TopWord {
    fn from(word: u64) -> TopWord {
        TopWord::unpack(word)
    }
}

/// A `STACK[x]` (or queue slot) register content: `⟨val, sn⟩`.
///
/// The sequence number `seq` is bumped on every write to the slot, so a
/// stale helper CAS (§3, `help` procedure, lines 15–16) can never
/// resurrect an old value: the ABA countermeasure of §2.2.
///
/// ```
/// use cso_memory::packed::SlotWord;
/// let s = SlotWord { value: 7, seq: 2 };
/// assert_eq!(SlotWord::unpack(s.pack()), s);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SlotWord {
    /// Sequence number of the last write to this slot.
    pub seq: u16,
    /// The value stored in the slot.
    pub value: u32,
}

impl SlotWord {
    /// Packs the pair into one `u64` register word.
    #[inline]
    #[must_use]
    pub fn pack(self) -> u64 {
        (u64::from(self.value) << 32) | u64::from(self.seq)
    }

    /// Unpacks a register word produced by [`SlotWord::pack`].
    #[inline]
    #[must_use]
    pub fn unpack(word: u64) -> SlotWord {
        SlotWord {
            value: (word >> 32) as u32,
            seq: (word & 0xFFFF) as u16,
        }
    }
}

impl From<SlotWord> for u64 {
    fn from(w: SlotWord) -> u64 {
        w.pack()
    }
}

impl From<u64> for SlotWord {
    fn from(word: u64) -> SlotWord {
        SlotWord::unpack(word)
    }
}

/// The queue's `HEAD` register content: a monotone dequeue counter.
///
/// The counter itself is the ABA tag: it increments on every successful
/// dequeue, so a stale CAS on `HEAD` can never succeed. The ring
/// position of the next element to dequeue is `count % capacity`
/// (capacity is a power of two, so the mapping stays consistent across
/// the 2¹⁶ wrap).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct HeadWord {
    /// Number of completed dequeues, modulo 2¹⁶.
    pub count: u16,
}

impl HeadWord {
    /// Packs the counter into one `u64` register word.
    #[inline]
    #[must_use]
    pub fn pack(self) -> u64 {
        u64::from(self.count)
    }

    /// Unpacks a register word produced by [`HeadWord::pack`].
    #[inline]
    #[must_use]
    pub fn unpack(word: u64) -> HeadWord {
        HeadWord {
            count: (word & 0xFFFF) as u16,
        }
    }
}

impl From<HeadWord> for u64 {
    fn from(w: HeadWord) -> u64 {
        w.pack()
    }
}

impl From<u64> for HeadWord {
    fn from(word: u64) -> HeadWord {
        HeadWord::unpack(word)
    }
}

/// The queue's `TAIL` register content: `⟨count, seq, value⟩`.
///
/// Mirrors [`TopWord`]: `count` is the monotone enqueue counter (ring
/// position `count % capacity` holds the *last enqueued* element),
/// `value` is that element, and `seq` is the sequence number the
/// pending lazy write will install into the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TailWord {
    /// Number of completed enqueues, modulo 2¹⁶.
    pub count: u16,
    /// Sequence number for the pending slot write.
    pub seq: u16,
    /// The value most recently enqueued.
    pub value: u32,
}

impl TailWord {
    /// Packs the triple into one `u64` register word.
    #[inline]
    #[must_use]
    pub fn pack(self) -> u64 {
        (u64::from(self.value) << 32) | (u64::from(self.count) << 16) | u64::from(self.seq)
    }

    /// Unpacks a register word produced by [`TailWord::pack`].
    #[inline]
    #[must_use]
    pub fn unpack(word: u64) -> TailWord {
        TailWord {
            value: (word >> 32) as u32,
            count: ((word >> 16) & 0xFFFF) as u16,
            seq: (word & 0xFFFF) as u16,
        }
    }
}

impl From<TailWord> for u64 {
    fn from(w: TailWord) -> u64 {
        w.pack()
    }
}

impl From<u64> for TailWord {
    fn from(word: u64) -> TailWord {
        TailWord::unpack(word)
    }
}

/// A deque slot: `⟨state, val, sn⟩` — the HLM obstruction-free deque
/// (the paper's ref \[8\]) distinguishes *left-null* (`LN`),
/// *right-null* (`RN`) and data slots, each carrying the usual
/// ABA-defeating sequence number.
///
/// Layout: bits 0–15 seq, bits 16–17 state, bits 32–63 value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DequeWord {
    /// The slot's role.
    pub state: DequeState,
    /// Sequence number of the last write to this slot.
    pub seq: u16,
    /// The value (meaningful only in `Data` slots).
    pub value: u32,
}

/// The role of a deque slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DequeState {
    /// Left null — belongs to the left sentinel block.
    #[default]
    LeftNull = 0,
    /// Right null — belongs to the right sentinel block.
    RightNull = 1,
    /// Holds a value.
    Data = 2,
}

impl DequeWord {
    /// Packs the triple into one `u64` register word.
    #[inline]
    #[must_use]
    pub fn pack(self) -> u64 {
        (u64::from(self.value) << 32) | ((self.state as u64) << 16) | u64::from(self.seq)
    }

    /// Unpacks a register word produced by [`DequeWord::pack`].
    #[inline]
    #[must_use]
    pub fn unpack(word: u64) -> DequeWord {
        let state = match (word >> 16) & 0b11 {
            0 => DequeState::LeftNull,
            1 => DequeState::RightNull,
            _ => DequeState::Data,
        };
        DequeWord {
            state,
            seq: (word & 0xFFFF) as u16,
            value: (word >> 32) as u32,
        }
    }

    /// The same word with the sequence number advanced by one —
    /// the HLM "bump" that serializes neighbouring operations.
    #[inline]
    #[must_use]
    pub fn bumped(self) -> DequeWord {
        DequeWord {
            seq: self.seq.wrapping_add(1),
            ..self
        }
    }
}

impl From<DequeWord> for u64 {
    fn from(w: DequeWord) -> u64 {
        w.pack()
    }
}

impl From<u64> for DequeWord {
    fn from(word: u64) -> DequeWord {
        DequeWord::unpack(word)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_word_round_trip_extremes() {
        for w in [
            TopWord {
                index: 0,
                seq: 0,
                value: 0,
            },
            TopWord {
                index: u16::MAX,
                seq: u16::MAX,
                value: u32::MAX,
            },
            TopWord {
                index: 1,
                seq: u16::MAX,
                value: 0,
            },
        ] {
            assert_eq!(TopWord::unpack(w.pack()), w);
        }
    }

    #[test]
    fn distinct_fields_occupy_distinct_bits() {
        let base = TopWord {
            index: 0,
            seq: 0,
            value: 0,
        }
        .pack();
        let only_index = TopWord {
            index: 1,
            seq: 0,
            value: 0,
        }
        .pack();
        let only_seq = TopWord {
            index: 0,
            seq: 1,
            value: 0,
        }
        .pack();
        let only_value = TopWord {
            index: 0,
            seq: 0,
            value: 1,
        }
        .pack();
        assert_eq!(base, 0);
        assert_eq!(only_index & only_seq, 0);
        assert_eq!(only_index & only_value, 0);
        assert_eq!(only_seq & only_value, 0);
    }

    #[test]
    fn u64_conversions_match_pack() {
        let w = TopWord {
            index: 9,
            seq: 8,
            value: 7,
        };
        assert_eq!(u64::from(w), w.pack());
        assert_eq!(TopWord::from(w.pack()), w);
        let s = SlotWord { seq: 3, value: 4 };
        assert_eq!(u64::from(s), s.pack());
        assert_eq!(SlotWord::from(s.pack()), s);
    }

    #[test]
    fn deque_word_round_trip_and_bump() {
        for state in [
            DequeState::LeftNull,
            DequeState::RightNull,
            DequeState::Data,
        ] {
            let w = DequeWord {
                state,
                seq: 41,
                value: 7,
            };
            assert_eq!(DequeWord::unpack(w.pack()), w);
            let b = w.bumped();
            assert_eq!(b.seq, 42);
            assert_eq!(b.state, state);
            assert_eq!(b.value, 7);
        }
        // seq wraps
        assert_eq!(
            DequeWord {
                state: DequeState::Data,
                seq: u16::MAX,
                value: 0
            }
            .bumped()
            .seq,
            0
        );
    }

    // Randomized round-trip checks, driven by the in-repo
    // deterministic generator (dependency-free, reproducible).
    const RANDOM_CASES: usize = 2_000;

    fn rng() -> crate::backoff::XorShift64 {
        crate::backoff::XorShift64::new(0xD06F_00D5_EED5)
    }

    #[test]
    fn random_deque_word_round_trip() {
        let mut rng = rng();
        for _ in 0..RANDOM_CASES {
            let state = match rng.next_below(3) {
                0 => DequeState::LeftNull,
                1 => DequeState::RightNull,
                _ => DequeState::Data,
            };
            let w = DequeWord {
                state,
                seq: rng.next_u64() as u16,
                value: rng.next_u64() as u32,
            };
            assert_eq!(DequeWord::unpack(w.pack()), w);
        }
    }

    #[test]
    fn random_top_word_round_trip() {
        let mut rng = rng();
        for _ in 0..RANDOM_CASES {
            let w = TopWord {
                index: rng.next_u64() as u16,
                seq: rng.next_u64() as u16,
                value: rng.next_u64() as u32,
            };
            assert_eq!(TopWord::unpack(w.pack()), w);
        }
    }

    #[test]
    fn random_slot_word_round_trip() {
        let mut rng = rng();
        for _ in 0..RANDOM_CASES {
            let w = SlotWord {
                seq: rng.next_u64() as u16,
                value: rng.next_u64() as u32,
            };
            assert_eq!(SlotWord::unpack(w.pack()), w);
        }
    }

    #[test]
    fn random_tail_word_round_trip() {
        let mut rng = rng();
        for _ in 0..RANDOM_CASES {
            let w = TailWord {
                count: rng.next_u64() as u16,
                seq: rng.next_u64() as u16,
                value: rng.next_u64() as u32,
            };
            assert_eq!(TailWord::unpack(w.pack()), w);
        }
    }

    #[test]
    fn random_head_word_round_trip() {
        let mut rng = rng();
        for _ in 0..RANDOM_CASES {
            let w = HeadWord {
                count: rng.next_u64() as u16,
            };
            assert_eq!(HeadWord::unpack(w.pack()), w);
        }
    }

    #[test]
    fn random_packing_is_injective() {
        let mut rng = rng();
        for _ in 0..RANDOM_CASES {
            let wa = TopWord {
                index: rng.next_u64() as u16,
                seq: rng.next_u64() as u16,
                value: rng.next_u64() as u32,
            };
            // Mix fresh values with near-collisions (sharing fields).
            let wb = match rng.next_below(4) {
                0 => wa,
                1 => TopWord {
                    index: rng.next_u64() as u16,
                    ..wa
                },
                2 => TopWord {
                    seq: rng.next_u64() as u16,
                    ..wa
                },
                _ => TopWord {
                    index: rng.next_u64() as u16,
                    seq: rng.next_u64() as u16,
                    value: rng.next_u64() as u32,
                },
            };
            assert_eq!(wa.pack() == wb.pack(), wa == wb);
        }
    }
}
