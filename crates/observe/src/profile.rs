//! Continuous profiling: the probe rings drained and folded while the
//! workload runs.
//!
//! `cso-trace` records into fixed per-thread rings, so a long run
//! overwrites its own history; [`crate::analyze::Fold`] folds a stream
//! of probe events into spans, quantiles and verdicts. This module
//! connects the two while the workload runs:
//!
//! * [`harvest::Harvester`] — a background thread that drains every
//!   probe ring (via `cso_trace::probe::harvest`) faster than the
//!   rings wrap, making arbitrarily long traces lossless: the drop
//!   gauge stays 0 and every event reaches the aggregator exactly
//!   once;
//! * [`aggregate::LiveAggregator`] — [`crate::analyze::Fold`], the
//!   analyser the `cso-analyze` CLI runs on a capture file, behind a
//!   mutex and fed one harvested batch at a time: per-path latency
//!   histograms, lock wait/hold quantiles, the §4.4 bypass count,
//!   convoy and combiner-stall detection, recovery counts, the
//!   helped-by graph and collapsed stacks, in memory bounded by the
//!   thread count;
//! * [`routes`] — `/profile`, `/spans.json`, `/flamegraph` and
//!   `/causal.json` handlers for [`crate::metrics::MetricsServer`],
//!   serving the live aggregate over the same port as `/metrics`.
//!
//! Everything is std-only. A running harvester arms the probes (the
//! run-time mode of `cso_memory::mode`) for as long as it lives, so
//! embedding the profiler costs nothing until it is started.

pub mod aggregate;
pub mod harvest;
pub mod routes;

pub use aggregate::LiveAggregator;
pub use harvest::Harvester;
pub use routes::profile_routes;
