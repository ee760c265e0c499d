//! # `cso-metrics` — live metrics for contention-sensitive objects
//!
//! The offline story (bench tables, `cso-trace` rings, the step
//! auditor) answers "what happened during that run"; this crate
//! answers "what is the object doing *right now*". It provides:
//!
//! * a [`Registry`] of wait-free, per-thread-striped [`Counter`]s,
//!   [`Gauge`]s and [`LogHistogram`]-backed [`Timer`]s
//!   ([`registry`]) — cheap enough to leave attached to a production
//!   object (a plain load and store of the thread's own cache-padded
//!   stripe per increment, no locked instruction on the hot path),
//!   and of *polled* counters and gauges that read, at scrape time,
//!   what an object already counts in its own cells;
//! * exporters: Prometheus text exposition ([`prom`]) and JSON
//!   ([`json`]), both hand-rolled because the workspace builds
//!   `--offline` with zero external dependencies;
//! * a std-only scrape endpoint ([`serve::MetricsServer`]) on
//!   `std::net::TcpListener`, plus a headless periodic dump mode
//!   ([`serve::PeriodicDump`]).
//!
//! The object crates integrate via `attach_metrics` methods
//! (`ContentionSensitive`, `StarvationFree`, and the `CsStack` /
//! `CsQueue` / `CsDeque` wrappers): once attached, a live object
//! exposes its fast/locked/combining path mix, abort rate, EWMA gate
//! state, and per-path latency quantiles. The counts are the object's
//! own (the registry is one more reader of them), so attaching adds
//! only the timers' clock readings. Attachment is optional and
//! `&self`; attached or not, an object pays one uncounted atomic load
//! per operation for it, so the paper's Theorem 1 step budgets (six
//! *counted* shared accesses contention-free) are unchanged.
//!
//! [`LogHistogram`]: cso_trace::LogHistogram

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod json;
pub mod prom;
pub mod registry;
pub mod serve;

pub use json::Json;
pub use registry::{Counter, Gauge, Registry, Snapshot, Timer};
pub use serve::{MetricsServer, PeriodicDump, RouteHandler, Routes};
