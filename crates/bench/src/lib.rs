//! The two baseline tables the yardstick does not run yet.
//!
//! The paper has no measured evaluation — its claims are analytic
//! (step counts, progress conditions) plus a performance argument
//! (contention-sensitivity beats always-locking when contention is
//! rare). What this repository *times* is timed by the yardstick
//! (`benchmark/`), and what it *asserts* is asserted by `cargo test`
//! (EXPERIMENTS.md, "Assertion ledger"). This crate keeps the two
//! tables whose baselines are not yardstick rows yet (ROADMAP 1(a)/(b));
//! they assert nothing and only print: `results/<bin>.txt` is a
//! redirected stdout.
//!
//! | Binary | Experiment |
//! |---|---|
//! | `e3_throughput` | stack throughput across implementations and thread counts |
//! | `e5_fairness` | per-thread fairness / starvation |
//!
//! Run with `CSO_TRACE_OUT` or `CSO_TRACE_EVENTS` set, both also
//! record the probe event stream and export it (see [`tracing`]).
//!
//! Environment knobs: `CSO_BENCH_MS` (milliseconds per measured cell,
//! default 300), `CSO_MAX_THREADS` (default 8), `CSO_TRACE_OUT` and
//! `CSO_TRACE_EVENTS` (Chrome trace / event log output paths).

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod adapters;
pub mod measure;
pub mod report;
pub mod tracing;

use std::time::Duration;

/// Milliseconds each measured cell runs for (`CSO_BENCH_MS`, default
/// 300).
#[must_use]
pub fn cell_duration() -> Duration {
    let ms = std::env::var("CSO_BENCH_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300u64);
    Duration::from_millis(ms)
}

/// The thread counts swept by the scaling experiments
/// (`CSO_MAX_THREADS` caps the list, default 8).
#[must_use]
pub fn thread_counts() -> Vec<usize> {
    let max = std::env::var("CSO_MAX_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8usize);
    [1usize, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64]
        .into_iter()
        .filter(|&t| t <= max)
        .collect()
}
