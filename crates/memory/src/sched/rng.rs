//! A tiny deterministic PRNG (SplitMix64).
//!
//! The scheduler keeps its own generator rather than
//! [`crate::backoff::XorShift64`], whose seeding it overrides inside a
//! session. SplitMix64 is chosen for its one-line state transition
//! and its ability to turn *any* seed — including 0 — into a
//! well-mixed stream, which matters because seeds here are built by
//! XOR-ing schedule indices into user-provided base seeds.

/// SplitMix64: 64 bits of state, passes BigCrush, never gets stuck.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed` (any value, including 0).
    #[must_use]
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `[0, bound)`; `bound` must be positive.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "next_below needs a positive bound");
        // Multiply-shift reduction: unbiased enough for schedule
        // sampling, and branch-free.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}

/// One-shot mix of `seed` — the stateless form of [`SplitMix64`],
/// used where a decision must be a pure function of its position
/// (e.g. chaos draws that have to replay identically whether they are
/// reached fresh or through a DFS prefix).
#[must_use]
pub fn mix(seed: u64) -> u64 {
    SplitMix64::new(seed).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn zero_seed_is_fine() {
        let mut r = SplitMix64::new(0);
        let first = r.next_u64();
        assert_ne!(first, 0);
        assert_ne!(first, r.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SplitMix64::new(42);
        for bound in 1..32u64 {
            for _ in 0..64 {
                assert!(r.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn mix_is_stateless() {
        assert_eq!(mix(123), mix(123));
        assert_ne!(mix(123), mix(124));
    }
}
