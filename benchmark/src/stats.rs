//! Medians, quartiles and latency percentiles.

/// Median and quartiles of a set of rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// Summarises `values`; quartiles as Python's
/// `statistics.quantiles(values, n=4)` gives them (the rule the
/// acceptance check of the benchmark contract uses). `None` for an
/// empty set; a single value is its own quartiles.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let n = x.len();
    if n == 0 {
        return None;
    }
    let median = if n % 2 == 1 {
        x[n / 2]
    } else {
        (x[n / 2 - 1] + x[n / 2]) / 2.0
    };
    if n == 1 {
        return Some(Summary {
            median,
            q1: median,
            q3: median,
            n,
        });
    }
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    Some(Summary {
        median,
        q1: quartile(1),
        q3: quartile(3),
        n,
    })
}

/// The duration in force at the median *instant*: sort the durations
/// and walk up until half of the total time is covered. Unlike the
/// plain median it weighs a duration by how long it lasted, so a swarm
/// of very short blocks that together cover little time cannot pull it
/// down. Sorts `durations`; `None` when there are none.
pub fn time_weighted_median(durations: &mut [u64]) -> Option<u64> {
    durations.sort_unstable();
    let total: u128 = durations.iter().map(|&d| u128::from(d)).sum();
    let mut covered = 0u128;
    durations.iter().copied().find(|&d| {
        covered += u128::from(d);
        covered * 2 >= total
    })
}

/// Durations below this many nanoseconds are counted exactly, one
/// bucket per nanosecond; the rare longer ones are kept as values.
const EXACT_NS: usize = 1 << 16;
/// A percentile is reported only with this many samples beyond it.
pub const MIN_BEYOND: u64 = 10;

/// An exact latency histogram: every sample keeps its nanosecond.
pub struct LatHist {
    exact: Vec<u32>,
    long: Vec<u64>,
    count: u64,
}

impl Default for LatHist {
    fn default() -> LatHist {
        LatHist {
            exact: vec![0; EXACT_NS],
            long: Vec::new(),
            count: 0,
        }
    }
}

impl LatHist {
    #[inline]
    pub fn record(&mut self, ns: u64) {
        match self.exact.get_mut(ns as usize) {
            Some(bucket) => *bucket += 1,
            None => self.long.push(ns),
        }
        self.count += 1;
    }

    pub fn merge(&mut self, other: &LatHist) {
        for (mine, theirs) in self.exact.iter_mut().zip(&other.exact) {
            *mine += theirs;
        }
        self.long.extend_from_slice(&other.long);
        self.count += other.count;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// The nearest-rank `p`-th percentile (`0 < p < 1`), or `None`
    /// when fewer than [`MIN_BEYOND`] samples lie beyond it: a tail
    /// read off a handful of samples is noise.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        assert!(p > 0.0 && p < 1.0, "percentile out of range");
        let rank = ((p * self.count as f64).ceil() as u64).max(1);
        if self.count < rank + MIN_BEYOND {
            return None;
        }
        let mut seen = 0u64;
        for (ns, &c) in self.exact.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return Some(ns as u64);
            }
        }
        let mut long = self.long.clone();
        long.sort_unstable();
        Some(long[(rank - seen - 1) as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = summarize(&[5.0, 3.0, 1.0, 4.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn time_weighted_median_ignores_a_swarm_of_short_blocks() {
        // 100 blocks of 1000 ns (100 us in all) and 2000 blocks of 10 ns
        // (20 us in all): the plain median is 10, but five sixths of the
        // time was spent in 1000-ns blocks.
        let mut blocks: Vec<u64> = vec![1000; 100];
        blocks.extend(vec![10; 2000]);
        assert_eq!(time_weighted_median(&mut blocks), Some(1000));
        // A few long stalls do not move it either.
        blocks.extend(vec![20_000; 2]);
        assert_eq!(time_weighted_median(&mut blocks), Some(1000));
        assert_eq!(time_weighted_median(&mut []), None);
        assert_eq!(time_weighted_median(&mut [7]), Some(7));
    }

    #[test]
    fn summarize_refuses_an_empty_set() {
        assert_eq!(summarize(&[]), None);
        assert_eq!(summarize(&[4.0]).unwrap().q3, 4.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let mut h = LatHist::default();
        for ns in 1..=20 {
            h.record(ns);
        }
        // p50 of 20 samples: rank 10, ten beyond — just enough.
        assert_eq!(h.percentile(0.5), Some(10));
        // p99 of 20 samples: rank 20, none beyond.
        assert_eq!(h.percentile(0.99), None);
        // One sample fewer and p50 (rank 10 of 19) has nine beyond.
        let mut h = LatHist::default();
        for ns in 1..=19 {
            h.record(ns);
        }
        assert_eq!(h.percentile(0.5), None);
    }

    #[test]
    fn p99_appears_once_a_thousand_samples_back_it() {
        let mut h = LatHist::default();
        for ns in 1..=999 {
            h.record(ns);
        }
        assert_eq!(h.percentile(0.99), None); // rank 990, nine beyond
        h.record(1000);
        assert_eq!(h.percentile(0.99), Some(990));
        assert_eq!(h.percentile(0.999), None);
    }

    #[test]
    fn long_samples_keep_their_value() {
        let mut h = LatHist::default();
        for _ in 0..10 {
            h.record(100);
        }
        for i in 0..30 {
            h.record(1_000_000 + i);
        }
        assert_eq!(h.percentile(0.5), Some(1_000_009));
        let mut merged = LatHist::default();
        merged.merge(&h);
        merged.merge(&h);
        assert_eq!(merged.count(), 80);
        assert_eq!(merged.percentile(0.5), Some(1_000_009));
    }
}
