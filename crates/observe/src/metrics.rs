//! Live metrics, rendered and served.
//!
//! The [`Registry`] and its series live in `cso-trace`, beside the
//! objects that feed them; they are re-exported here so that
//! `metrics::Registry` names the registry this module renders. On top
//! of it:
//!
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

pub mod json;
pub mod prom;
pub mod serve;

pub use cso_trace::registry::{Registry, Snapshot, Timer};
pub use json::Json;
pub use serve::{MetricsServer, PeriodicDump, RouteHandler, Routes};
