//! The op tape: per thread, a seeded shuffle of exactly `HALF` puts
//! and `HALF` takes, cycled. Balanced, so occupancy returns to the
//! prefill level every cycle and `Full`/`Empty` answers are failures,
//! not a second regime. The generator is the harness's own: the product
//! sees only the ops.

/// Puts (and takes) per tape.
pub const HALF: usize = 32_768;
/// Ops per tape; a power of two so cycling is a mask.
pub const LEN: usize = 2 * HALF;

/// SplitMix64: small, seedable, and independent of the product's own
/// generators.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (bound ≤ 2^32, so the modulo bias of a
    /// 64-bit draw is below 2^-32).
    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// `true` = put, `false` = take.
pub type Tape = Vec<bool>;

/// The tape of `thread` under `seed`: a Fisher–Yates shuffle of `HALF`
/// puts and `HALF` takes.
pub fn tape(seed: u64, thread: usize) -> Tape {
    let mut rng = Rng::new(seed ^ (thread as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let mut ops: Tape = (0..LEN).map(|i| i < HALF).collect();
    for i in (1..LEN).rev() {
        ops.swap(i, rng.below(i + 1));
    }
    ops
}

/// One tape per thread.
pub fn tapes(seed: u64, threads: usize) -> Vec<Tape> {
    (0..threads).map(|t| tape(seed, t)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tape_is_exactly_balanced() {
        for seed in [0, 1, 42, u64::MAX] {
            for thread in 0..2 {
                let t = tape(seed, thread);
                assert_eq!(t.len(), LEN);
                assert_eq!(t.iter().filter(|&&put| put).count(), HALF);
            }
        }
    }

    #[test]
    fn equal_seeds_give_equal_tapes_and_different_seeds_differ() {
        assert_eq!(tape(7, 0), tape(7, 0));
        assert_eq!(tape(7, 1), tape(7, 1));
        assert_ne!(tape(7, 0), tape(8, 0));
        assert_ne!(tape(7, 0), tape(7, 1));
    }

    #[test]
    fn occupancy_stays_within_a_few_hundred_of_the_prefill() {
        // The property the workloads rely on: with a 4096 prefill and
        // 8192 capacity, no prefix of the tape reaches either wall.
        for seed in 0..32 {
            let mut level = 0i64;
            let mut worst = 0i64;
            for put in tape(seed, 0) {
                level += if put { 1 } else { -1 };
                worst = worst.max(level.abs());
            }
            assert_eq!(level, 0);
            assert!(worst < 1024, "seed {seed}: excursion {worst}");
        }
    }
}
