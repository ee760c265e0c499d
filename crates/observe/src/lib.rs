//! # `cso-observe` — everything that renders, serves or analyses what the objects record
//!
//! The objects record into `cso-trace`: probe events into per-thread
//! rings, and live counts into cells a `Registry` reads. This crate is
//! every reader of those records that is not itself on an object's
//! path, one module per job:
//!
//! | module | contents |
//! |---|---|
//! | [`metrics`] | the registry re-exported, Prometheus and JSON exporters, the scrape server and the periodic dump |
//! | [`analyze`] | [`analyze::Fold`], the one trace analyser: spans, the §4.4 bypass bound, convoys, the helped-by graph, flamegraph stacks; the `cso-analyze` CLI runs it on a capture file |
//! | [`profile`] | the ring harvester and the live aggregator, served as `/profile`, `/spans.json`, `/flamegraph` and `/causal.json` |
//! | [`watch`] | the invariant watchdog and SLO burn-rate alerting, served as `/health` and `/alerts.json` |
//!
//! It is a leaf: no object crate depends on it, so no build of a stack
//! compiles an HTTP server or a JSON parser.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod analyze;
pub mod metrics;
pub mod profile;
pub mod watch;
