//! Causal ("what-if") profiling over the probe-site taxonomy.
//!
//! Ordinary profiles answer *where time goes*; a causal profile
//! answers *what would happen to throughput if this got faster* —
//! which is the question that matters for a concurrent object, where
//! time spent spinning on `FLAG` may or may not bound end-to-end
//! progress. The technique is Curtsinger & Berger's *coz* virtual
//! speedup, inverted for injection: we cannot magically speed a site
//! up, but we **can slow every other site down** by a calibrated delay,
//! which is equivalent up to a time rescale.
//!
//! Concretely, for each [`SiteClass`] (CAS retry, FLAG wait, lock
//! handoff, combining) the scanner:
//!
//! 1. measures baseline throughput with **all** classes delayed by
//!    `delay_ns` (via [`cso_trace::probe::set_causal_delays`] — one
//!    relaxed load per probe when disarmed, a busy-wait when armed);
//! 2. measures throughput with every class *except the candidate*
//!    delayed — i.e. the candidate virtually sped up;
//! 3. ranks classes by [`SiteGain::virtual_speedup`], the relative
//!    throughput gain its exclusion bought.
//!
//! The class with the largest gain *bounds* throughput: making it
//! faster would translate to end-to-end improvement, while speeding up
//! a low-ranked class would only shift waiting elsewhere.
//!
//! ## Caveats
//!
//! * Delays busy-wait (never sleep) so the scheduler cannot absorb
//!   them, but on an oversubscribed box spinning still yields the CPU
//!   at preemption granularity — use delays well above scheduler noise
//!   (the 5 µs default) and windows long enough to average it out.
//! * The injected delay must be comparable to the real per-site cost
//!   it stands in for; gains are relative rankings, not predicted
//!   percentages.
//! * Classes that never fire in the workload rank last with gain ~0 by
//!   construction (their exclusion changes nothing).

use std::time::{Duration, Instant};

use cso_metrics::Json;
use cso_trace::probe;
use cso_trace::SiteClass;

/// Scan parameters.
#[derive(Debug, Clone, Copy)]
pub struct CausalConfig {
    /// How long each throughput measurement runs.
    pub window: Duration,
    /// Dead time after re-arming delays before measuring (lets
    /// in-flight operations finish under the new regime).
    pub settle: Duration,
    /// The injected per-probe delay. Must dominate scheduler noise;
    /// the default is 5 µs.
    pub delay_ns: u32,
    /// How many times the baseline-plus-each-class window sequence
    /// repeats (measurements are summed). Rounds interleave the
    /// candidates with fresh baselines, so a monotonic throughput
    /// drift across the scan (warm-up, frequency scaling, a co-located
    /// job) averages out instead of favouring whichever class happened
    /// to be measured last. Clamped to at least 1.
    pub rounds: u32,
}

impl Default for CausalConfig {
    fn default() -> CausalConfig {
        CausalConfig {
            window: Duration::from_millis(150),
            settle: Duration::from_millis(10),
            delay_ns: 5_000,
            rounds: 2,
        }
    }
}

/// One candidate bottleneck's measurement.
#[derive(Debug, Clone, Copy)]
pub struct SiteGain {
    /// The probe-site class that was virtually sped up.
    pub class: SiteClass,
    /// Operations completed in the window with this class *excluded*
    /// from delay injection (everything else delayed).
    pub excluded_ops: u64,
}

impl SiteGain {
    /// Relative throughput gain over `baseline_ops` (all classes
    /// delayed): `excluded / baseline - 1`. The class with the largest
    /// virtual speedup bounds throughput.
    #[must_use]
    pub fn virtual_speedup(&self, baseline_ops: u64) -> f64 {
        if baseline_ops == 0 {
            0.0
        } else {
            self.excluded_ops as f64 / baseline_ops as f64 - 1.0
        }
    }
}

/// A completed causal scan: per-class gains ranked by virtual speedup.
#[derive(Debug, Clone)]
pub struct CausalReport {
    /// The injected delay used throughout.
    pub delay_ns: u32,
    /// The measurement window used throughout.
    pub window: Duration,
    /// Rounds the per-class measurements were summed over.
    pub rounds: u32,
    /// Operations completed with **no** delays armed (context only —
    /// the ratio to `baseline_ops` shows how much signal the injection
    /// added).
    pub undelayed_ops: u64,
    /// Operations completed with **all** classes delayed.
    pub baseline_ops: u64,
    /// Per-class measurements, descending by virtual speedup (the
    /// first entry is the inferred bottleneck).
    pub gains: Vec<SiteGain>,
}

impl CausalReport {
    /// The inferred bottleneck: the class whose virtual speedup is
    /// largest.
    #[must_use]
    pub fn bottleneck(&self) -> Option<SiteClass> {
        self.gains.first().map(|g| g.class)
    }

    /// Classes in rank order, best candidate first.
    #[must_use]
    pub fn ranking(&self) -> Vec<SiteClass> {
        self.gains.iter().map(|g| g.class).collect()
    }

    /// The JSON document embedded in BENCH output.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let gains = self
            .gains
            .iter()
            .map(|g| {
                (
                    g.class.name().to_owned(),
                    Json::obj()
                        .field("excluded_ops", g.excluded_ops)
                        .field("virtual_speedup", g.virtual_speedup(self.baseline_ops)),
                )
            })
            .collect();
        Json::obj()
            .field("delay_ns", u64::from(self.delay_ns))
            .field("window_ms", self.window.as_millis() as u64)
            .field("rounds", u64::from(self.rounds))
            .field("undelayed_ops", self.undelayed_ops)
            .field("baseline_ops", self.baseline_ops)
            .field(
                "ranking",
                Json::Arr(
                    self.gains
                        .iter()
                        .map(|g| Json::from(g.class.name()))
                        .collect(),
                ),
            )
            .field("gains", Json::Obj(gains))
    }

    /// A human-readable ranking table.
    #[must_use]
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "causal scan: {} ns/probe delay, {} x {} ms windows, baseline {} ops (undelayed {})",
            self.delay_ns,
            self.rounds,
            self.window.as_millis(),
            self.baseline_ops,
            self.undelayed_ops
        );
        for (rank, gain) in self.gains.iter().enumerate() {
            let _ = writeln!(
                out,
                "  #{:<2} {:<14} {:>12} ops  {:>+8.1}% virtual speedup",
                rank + 1,
                gain.class.name(),
                gain.excluded_ops,
                gain.virtual_speedup(self.baseline_ops) * 100.0
            );
        }
        out
    }
}

/// Disarms injection on drop, so a panicking workload cannot leave the
/// process permanently delayed.
struct Disarm;

impl Drop for Disarm {
    fn drop(&mut self) {
        probe::clear_causal_delays();
    }
}

/// Runs a causal scan against a live workload.
///
/// `ops` must return a monotonic count of completed operations (e.g. a
/// relaxed load of a shared counter the worker threads bump); each
/// window measures its delta. The workload must keep running for the
/// duration of the scan: `1 + rounds x (1 + |classes|)` windows plus
/// settle times.
///
/// Injection is disarmed on return, including on panic.
pub fn scan(mut ops: impl FnMut() -> u64, config: &CausalConfig) -> CausalReport {
    let _disarm = Disarm;
    let mut window = |mask: u32| -> u64 {
        probe::set_causal_delays(mask, config.delay_ns);
        std::thread::sleep(config.settle);
        let start_ops = ops();
        let start = Instant::now();
        std::thread::sleep(config.window);
        let elapsed = start.elapsed().as_secs_f64();
        let delta = ops().saturating_sub(start_ops);
        // Normalize to the nominal window so scheduler-stretched
        // windows (sleep overshoot on a loaded box) stay comparable.
        (delta as f64 * config.window.as_secs_f64() / elapsed.max(1e-9)).round() as u64
    };
    let undelayed_ops = window(0);
    let mut baseline_ops = 0u64;
    let mut excluded = [0u64; SiteClass::ALL.len()];
    for _ in 0..config.rounds.max(1) {
        baseline_ops += window(SiteClass::mask_all());
        for (slot, class) in excluded.iter_mut().zip(SiteClass::ALL) {
            *slot += window(SiteClass::mask_all() & !class.bit());
        }
    }
    let mut gains: Vec<SiteGain> = SiteClass::ALL
        .iter()
        .zip(excluded)
        .map(|(&class, excluded_ops)| SiteGain {
            class,
            excluded_ops,
        })
        .collect();
    gains.sort_by(|a, b| {
        b.excluded_ops
            .cmp(&a.excluded_ops)
            .then_with(|| a.class.name().cmp(b.class.name()))
    });
    CausalReport {
        delay_ns: config.delay_ns,
        window: config.window,
        rounds: config.rounds.max(1),
        undelayed_ops,
        baseline_ops,
        gains,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_ranks_by_excluded_ops_and_renders() {
        let report = CausalReport {
            delay_ns: 5_000,
            window: Duration::from_millis(100),
            rounds: 1,
            undelayed_ops: 10_000,
            baseline_ops: 1_000,
            gains: vec![
                SiteGain {
                    class: SiteClass::FlagWait,
                    excluded_ops: 4_000,
                },
                SiteGain {
                    class: SiteClass::CasRetry,
                    excluded_ops: 1_100,
                },
            ],
        };
        assert_eq!(report.bottleneck(), Some(SiteClass::FlagWait));
        assert_eq!(
            report.ranking(),
            vec![SiteClass::FlagWait, SiteClass::CasRetry]
        );
        let top = report.gains[0].virtual_speedup(report.baseline_ops);
        assert!((top - 3.0).abs() < 1e-9, "{top}");
        assert!(report.render_text().contains("flag-wait"));
        Json::parse(&report.to_json().render_pretty()).expect("valid JSON");
    }

    #[test]
    fn zero_baseline_never_divides_by_zero() {
        let gain = SiteGain {
            class: SiteClass::Combining,
            excluded_ops: 50,
        };
        assert_eq!(gain.virtual_speedup(0), 0.0);
    }

    #[test]
    fn scan_ranks_the_class_the_workload_actually_hits() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        use std::sync::Arc;

        if !cso_trace::TRACE {
            return;
        }
        let _serial = crate::test_serial();
        // A synthetic workload that emits one flag-wait-class probe per
        // operation: delaying FlagWait throttles it, delaying anything
        // else does not, so excluding FlagWait must win the ranking.
        let stop = Arc::new(AtomicBool::new(false));
        let ops = Arc::new(AtomicU64::new(0));
        let worker = {
            let stop = Arc::clone(&stop);
            let ops = Arc::clone(&ops);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    cso_trace::probe!(cso_trace::Event::LockAcquire(0));
                    ops.fetch_add(1, Ordering::Relaxed);
                }
            })
        };
        let config = CausalConfig {
            window: Duration::from_millis(60),
            settle: Duration::from_millis(5),
            delay_ns: 20_000,
            rounds: 1,
        };
        let counter = Arc::clone(&ops);
        let report = scan(move || counter.load(Ordering::Relaxed), &config);
        stop.store(true, Ordering::Release);
        worker.join().expect("worker");
        assert_eq!(probe::causal_delays(), None, "scan disarms on return");
        assert_eq!(
            report.bottleneck(),
            Some(SiteClass::FlagWait),
            "{}",
            report.render_text()
        );
        // Excluding the hot class recovers a large fraction of the
        // undelayed rate; the baseline (everything delayed) is far
        // slower.
        assert!(report.baseline_ops < report.gains[0].excluded_ops);
        probe::clear();
    }
}
