//! Output checks, run every round after the workers join and the
//! object is drained: conservation (count, sum and xor of the values
//! put equal those of the values taken plus drained) and, on FIFO
//! objects, per-producer order at every consumer.

/// Who put a value: the worker threads are producers 0 and 1, the
/// prefill is producer 2.
pub const PREFILL: u32 = 2;
const PRODUCERS: usize = 4;
const SEQ_BITS: u32 = 30;
const SEQ_MASK: u32 = (1 << SEQ_BITS) - 1;

/// The value producer `producer` puts as its `seq`-th: the producer in
/// the top two bits, the sequence number below.
pub fn value(producer: u32, seq: u32) -> u32 {
    debug_assert!((producer as usize) < PRODUCERS);
    (producer << SEQ_BITS) | (seq & SEQ_MASK)
}

/// Count, sum and xor of a multiset of values. Two multisets that agree
/// on all three differ only by a conspiracy of errors; one lost,
/// duplicated or altered value always shows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub count: u64,
    pub sum: u64,
    pub xor: u32,
}

impl Tally {
    #[inline]
    pub fn add(&mut self, v: u32) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(u64::from(v));
        self.xor ^= v;
    }

    pub fn merge(&mut self, other: Tally) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.xor ^= other.xor;
    }
}

/// Whether everything put came out exactly once.
pub fn conserved(put: Tally, taken_and_drained: Tally) -> bool {
    put == taken_and_drained
}

/// One consumer's view of a FIFO object: each producer's values must
/// arrive in increasing sequence order.
#[derive(Debug, Clone, Default)]
pub struct OrderCheck {
    /// Next admissible sequence number per producer.
    next: [u32; PRODUCERS],
    pub violations: u64,
}

impl OrderCheck {
    #[inline]
    pub fn see(&mut self, v: u32) {
        let producer = (v >> SEQ_BITS) as usize;
        let seq = v & SEQ_MASK;
        if seq < self.next[producer] {
            self.violations += 1;
        }
        self.next[producer] = seq + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tally(values: &[u32]) -> Tally {
        let mut t = Tally::default();
        values.iter().for_each(|&v| t.add(v));
        t
    }

    fn violations(values: &[u32]) -> u64 {
        let mut c = OrderCheck::default();
        values.iter().for_each(|&v| c.see(v));
        c.violations
    }

    #[test]
    fn conservation_holds_for_a_permutation() {
        let put: Vec<u32> = (0..100).map(|s| value(0, s)).collect();
        let mut taken = put.clone();
        taken.reverse();
        assert!(conserved(tally(&put), tally(&taken)));
    }

    #[test]
    fn conservation_fails_on_a_planted_lost_value() {
        let put: Vec<u32> = (0..100).map(|s| value(1, s)).collect();
        let mut taken = put.clone();
        taken.remove(37);
        assert!(!conserved(tally(&put), tally(&taken)));
    }

    #[test]
    fn conservation_fails_on_a_planted_duplicated_value() {
        let put: Vec<u32> = (0..100).map(|s| value(PREFILL, s)).collect();
        let mut taken = put.clone();
        taken.push(put[12]);
        assert!(!conserved(tally(&put), tally(&taken)));
        // Same count, one value replaced by a copy of another.
        let mut swapped = put.clone();
        swapped[5] = put[6];
        assert!(!conserved(tally(&put), tally(&swapped)));
    }

    #[test]
    fn order_check_passes_interleaved_producers_and_gaps() {
        // Another consumer took the missing ones; gaps are fine.
        let seen = [
            value(0, 0),
            value(1, 0),
            value(0, 3),
            value(1, 1),
            value(0, 4),
        ];
        assert_eq!(violations(&seen), 0);
    }

    #[test]
    fn order_check_fails_on_a_planted_swapped_pair() {
        let mut seen: Vec<u32> = (0..50).map(|s| value(0, s)).collect();
        seen.swap(20, 21);
        assert_eq!(violations(&seen), 1);
        // A swapped pair conserves, so only the order check catches it.
        let put: Vec<u32> = (0..50).map(|s| value(0, s)).collect();
        assert!(conserved(tally(&put), tally(&seen)));
    }

    #[test]
    fn order_check_fails_on_a_duplicate() {
        assert_eq!(violations(&[value(1, 7), value(1, 7)]), 1);
    }
}
