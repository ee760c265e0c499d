//! # `cso-profile` — continuous profiling for contention-sensitive objects
//!
//! `cso-trace` records into fixed per-thread rings, so a long run
//! overwrites its own history; `cso-analyze` folds a stream of probe
//! events into spans, quantiles and verdicts. This crate connects the
//! two while the workload runs, with four pieces:
//!
//! * [`harvest::Harvester`] — a background thread that drains every
//!   probe ring (via `cso_trace::probe::harvest`) faster than the
//!   rings wrap, making arbitrarily long traces lossless: the drop
//!   gauge stays 0 and every event reaches the aggregator exactly
//!   once;
//! * [`aggregate::LiveAggregator`] — [`cso_analyze::Fold`], the
//!   analyser the `cso-analyze` CLI runs on a capture file, behind a
//!   mutex and fed one harvested batch at a time: per-path latency
//!   histograms, lock wait/hold quantiles, the §4.4 bypass count,
//!   convoy and combiner-stall detection, recovery counts, the
//!   helped-by graph and collapsed stacks, in memory bounded by the
//!   thread count;
//! * [`causal`] — a coz-style *causal* (what-if) profiler: to ask
//!   "how much would speeding up site class X help?", it delays every
//!   *other* probe-site class by a calibrated amount and compares
//!   throughput against an everything-delayed baseline. The class
//!   whose exclusion buys the most virtual speedup is the bottleneck;
//! * [`routes`] — `/profile`, `/spans.json` and `/flamegraph`
//!   handlers for [`cso_metrics::MetricsServer`], serving the live
//!   aggregate over the same port as `/metrics`.
//!
//! Everything is std-only and compiles without the `trace` feature —
//! the harvester then drains empty rings and the causal injector is
//! inert, so embedding the profiler costs nothing in untraced builds.

#![warn(missing_docs)]

pub mod aggregate;
pub mod causal;
pub mod harvest;
pub mod routes;

pub use aggregate::{LiveAggregator, ProfileSnapshot};
pub use causal::{CausalConfig, CausalReport, SiteGain};
pub use harvest::Harvester;
pub use routes::profile_routes;

/// Serializes tests that touch the process-global probe rings or the
/// causal injector (the rings have a single logical consumer).
#[cfg(test)]
fn test_serial() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
