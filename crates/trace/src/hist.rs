//! Log-bucketed latency histograms (HDR-style), std-only.
//!
//! A [`LogHistogram`] keeps one atomic counter per *log-linear* bucket:
//! values below 16 ns get exact buckets; above that, each power of two
//! is split into 16 linear sub-buckets, bounding the relative error of
//! any reported quantile by 1/16 (6.25%) — the same precision/footprint
//! trade HdrHistogram makes at 4 significant bits. The whole structure
//! is 976 `AtomicU64`s (≈7.6 KiB), needs no allocation after
//! construction, and is safe to record into from any number of threads
//! concurrently (relaxed atomics; a snapshot taken mid-recording is a
//! consistent-enough view for percentile reporting, see
//! [`LogHistogram::snapshot`]).
//!
//! Unlike the [`probe`](mod@crate::probe) machinery this module needs no
//! armed mode — it is plain data, costs nothing unless used, and the
//! bench harness reads it from quiet runs to report per-path latency
//! tables.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Exact buckets cover `0..LINEAR_LIMIT`; log-linear buckets above.
const LINEAR_LIMIT: u64 = 16;
/// Sub-buckets per power of two (4 significant bits).
const SUB_BUCKETS: usize = 16;
/// 16 exact + 16 per msb for msb in 4..=63.
const NUM_BUCKETS: usize = LINEAR_LIMIT as usize + (64 - 4) * SUB_BUCKETS;

/// Maps a value to its bucket index. Total order preserving.
fn bucket_index(v: u64) -> usize {
    if v < LINEAR_LIMIT {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize; // >= 4 here
    let sub = ((v >> (msb - 4)) & 0xF) as usize;
    (msb - 4) * SUB_BUCKETS + LINEAR_LIMIT as usize + sub
}

/// The largest value a bucket can hold — the representative reported
/// for quantiles falling in it (conservative: never under-reports).
fn bucket_upper_bound(idx: usize) -> u64 {
    if idx < LINEAR_LIMIT as usize {
        return idx as u64;
    }
    let rel = idx - LINEAR_LIMIT as usize;
    let msb = rel / SUB_BUCKETS + 4;
    let sub = (rel % SUB_BUCKETS) as u64;
    // Bucket covers [base + sub*width, base + (sub+1)*width). The top
    // bucket's exclusive end is 2^64, which does not fit in a u64 —
    // saturate so its representative is u64::MAX rather than a wrap to
    // zero (which would report the largest samples as the smallest).
    let base = 1u64 << msb;
    let width = 1u64 << (msb - 4);
    match base.checked_add((sub + 1) * width) {
        Some(end) => end - 1,
        None => u64::MAX,
    }
}

/// A concurrent log-bucketed histogram of `u64` samples (nanoseconds
/// by convention — [`LogHistogram::record`] takes a [`Duration`]).
pub struct LogHistogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram. Allocates its bucket array once.
    #[must_use]
    pub fn new() -> Self {
        LogHistogram {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample, in nanoseconds. Wait-free: three relaxed
    /// atomic RMWs plus a bounded max-update loop.
    pub fn record_ns(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
        self.max.fetch_max(ns, Ordering::Relaxed);
    }

    /// Records one sample as a [`Duration`] (saturating at `u64` ns).
    pub fn record(&self, d: Duration) {
        self.record_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count.load(Ordering::Relaxed) == 0
    }

    /// A point-in-time percentile summary.
    ///
    /// Taken with relaxed loads, so a snapshot racing concurrent
    /// [`record_ns`](Self::record_ns) calls may miss in-flight samples
    /// or observe a sample in the buckets before it is reflected in
    /// `count` (and vice versa); quantiles are computed against the
    /// bucket mass actually seen, so the result is always a valid
    /// summary of *some* recent prefix of samples. Quantile values are
    /// bucket upper bounds: within 6.25% above the true sample.
    #[must_use]
    pub fn snapshot(&self) -> HistSnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        let quantile = |q: f64| -> u64 {
            if total == 0 {
                return 0;
            }
            // Rank of the q-quantile sample, 1-based, clamped.
            let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
            let mut seen = 0u64;
            for (idx, c) in counts.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return bucket_upper_bound(idx);
                }
            }
            bucket_upper_bound(NUM_BUCKETS - 1)
        };
        HistSnapshot {
            count: total,
            mean_ns: self
                .sum
                .load(Ordering::Relaxed)
                .checked_div(total)
                .unwrap_or(0),
            p50_ns: quantile(0.50),
            p90_ns: quantile(0.90),
            p99_ns: quantile(0.99),
            max_ns: self.max.load(Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero. Not atomic with respect to
    /// concurrent recorders; reset between measurement cells.
    pub fn clear(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time summary of a [`LogHistogram`], in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Arithmetic mean (exact: kept as a running sum, not bucketed).
    pub mean_ns: u64,
    /// Median (bucket upper bound; ≤6.25% above the true sample).
    pub p50_ns: u64,
    /// 90th percentile.
    pub p90_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// Largest sample (exact).
    pub max_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let h = LogHistogram::new();
        for v in 0..16 {
            h.record_ns(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 16);
        assert_eq!(s.max_ns, 15);
        assert_eq!(s.p50_ns, 7, "8th of 16 samples is value 7, exact bucket");
    }

    #[test]
    fn bucket_index_is_monotonic_and_in_range() {
        let mut values: Vec<u64> = Vec::new();
        for shift in 0..64 {
            for off in [0u64, 1, 3] {
                values.push((1u64 << shift).saturating_add(off));
            }
        }
        values.sort_unstable();
        let mut prev = 0usize;
        for v in values {
            let idx = bucket_index(v);
            assert!(idx < NUM_BUCKETS, "v={v} idx={idx}");
            assert!(idx >= prev, "index must not decrease: v={v}");
            prev = idx;
            assert!(
                bucket_upper_bound(idx) >= v,
                "upper bound {} < value {v}",
                bucket_upper_bound(idx)
            );
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn quantile_error_is_bounded() {
        let h = LogHistogram::new();
        // All samples identical: every quantile must land within 1/16.
        for _ in 0..1000 {
            h.record_ns(1_000_000);
        }
        let s = h.snapshot();
        for q in [s.p50_ns, s.p90_ns, s.p99_ns] {
            assert!(q >= 1_000_000, "upper-bound representative");
            assert!(
                q <= 1_000_000 + 1_000_000 / 16 + 1,
                "q={q} exceeds 1/16 relative error"
            );
        }
        assert_eq!(s.max_ns, 1_000_000, "max is exact");
        assert_eq!(s.mean_ns, 1_000_000, "mean is exact");
    }

    #[test]
    fn top_bucket_saturates_instead_of_overflowing() {
        // The last bucket's exclusive end is 2^64; its representative
        // must saturate to u64::MAX, not wrap (a wrap would make the
        // largest samples report as the smallest).
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_upper_bound(NUM_BUCKETS - 1), u64::MAX);

        let h = LogHistogram::new();
        h.record_ns(u64::MAX);
        h.record_ns(u64::MAX - 1);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.max_ns, u64::MAX, "max is exact");
        for q in [s.p50_ns, s.p90_ns, s.p99_ns] {
            assert_eq!(q, u64::MAX, "top-bucket quantile saturates");
        }
        // Every bucket's representative must cover the bucket.
        for idx in 0..NUM_BUCKETS - 1 {
            assert!(bucket_upper_bound(idx) < bucket_upper_bound(idx + 1));
        }
    }

    #[test]
    fn quantile_error_bounded_on_log_uniform_samples() {
        // Property test: across log-uniformly distributed samples (the
        // regime latency data lives in), every reported quantile must
        // sit in [true, true * (1 + 1/16)] — the documented ≤6.25%
        // relative error of 16 sub-buckets per power of two.
        let mut rng = cso_memory::backoff::XorShift64::new(0x5eed_cafe);
        for round in 0..8u64 {
            let h = LogHistogram::new();
            let mut samples: Vec<u64> = Vec::with_capacity(4096);
            for _ in 0..4096 {
                // Pick an exponent 4..=47, then a uniform mantissa.
                let e = 4 + (rng.next_u64() % 44) as u32;
                let v = (1u64 << e) | (rng.next_u64() & ((1u64 << e) - 1));
                samples.push(v);
                h.record_ns(v);
            }
            samples.sort_unstable();
            let s = h.snapshot();
            for (q, got) in [(0.50, s.p50_ns), (0.90, s.p90_ns), (0.99, s.p99_ns)] {
                let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
                let truth = samples[rank - 1];
                assert!(got >= truth, "round {round} q{q}: {got} < true {truth}");
                assert!(
                    got <= truth + truth / 16 + 1,
                    "round {round} q{q}: {got} exceeds 6.25% above true {truth}"
                );
            }
            assert_eq!(s.max_ns, *samples.last().unwrap(), "max is exact");
        }
    }

    #[test]
    fn percentiles_order_correctly() {
        let h = LogHistogram::new();
        for i in 1..=10_000u64 {
            h.record_ns(i * 100);
        }
        let s = h.snapshot();
        assert!(s.p50_ns <= s.p90_ns && s.p90_ns <= s.p99_ns);
        // Quantiles are bucket *upper bounds*, so p99 may exceed the
        // exact max — but never by more than the 1/16 bucket width.
        assert!(s.p99_ns <= s.max_ns + s.max_ns / 16 + 1);
        // p50 of uniform 100..=1_000_000 is ~500_000; allow bucket width.
        assert!((450_000..=600_000).contains(&s.p50_ns), "p50={}", s.p50_ns);
        assert!(s.p99_ns >= 950_000, "p99={}", s.p99_ns);
    }

    #[test]
    fn concurrent_recording_loses_nothing_at_quiescence() {
        let h = std::sync::Arc::new(LogHistogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        h.record_ns(t * 1000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.snapshot().count, 4000);
    }

    #[test]
    fn clear_resets() {
        let h = LogHistogram::new();
        h.record_ns(42);
        h.clear();
        assert!(h.is_empty());
        assert_eq!(
            h.snapshot(),
            HistSnapshot {
                count: 0,
                mean_ns: 0,
                p50_ns: 0,
                p90_ns: 0,
                p99_ns: 0,
                max_ns: 0
            }
        );
    }
}
