//! # `cso-analyze` — trace-driven analysis for contention-sensitive objects
//!
//! Where `cso-metrics` reports what an object is doing *now*, this
//! crate answers what a captured run actually *did*. It consumes the
//! `cso-trace-events v1` TSV stream that the bench harness writes
//! (`cso_trace::export::event_log`, via `CSO_TRACE_EVENTS` or
//! `target/trace/<bin>.events.tsv`) and provides:
//!
//! * [`log`] — the TSV parser, including ring-loss accounting
//!   (`# dropped` / `# truncated` headers);
//! * [`spans`] — per-operation span reconstruction: every thread's
//!   stream replays through a state machine mirroring the Figure 3
//!   emission sites, classifying each operation as fast / locked /
//!   combined / combiner and each anomaly as truncation loss or a
//!   protocol violation;
//! * [`causal`] — the cross-thread helped-by graph: folds the causal
//!   annotations (combiner / elimination partner / lock handoff /
//!   custody transfer) into per-edge counts and the attribution
//!   coverage the observability gate enforces;
//! * [`bypass`] — the empirical §4.4 starvation-freedom check: no
//!   `flag-raise(p)` → `lock-acquire(p)` interval may contain more
//!   than `n − 1` acquisitions by other processes;
//! * [`convoy`] — lock-tenure pathologies: saturated hand-off runs
//!   (convoys) and combining tenures whose batch failed to amortise
//!   the hold (combiner stalls);
//! * [`collapse`] — critical-path statistics and collapsed-stack
//!   (flamegraph) output.
//!
//! The `cso-analyze` binary fronts all of it; `cso-analyze check` is
//! the CI entry point (nonzero exit on a bypass violation or span
//! coverage below threshold).

#![warn(missing_docs)]

pub mod bypass;
pub mod causal;
pub mod collapse;
pub mod convoy;
pub mod log;
pub mod spans;
