//! Online runtime verification: the watchdog, SLOs and their routes.
//!
//! The offline layers already check the paper's guarantees hard: the
//! linearizability checker replays histories, the model runtime
//! explores interleavings exhaustively, the analyzer audits traced
//! runs post-mortem. This module moves a useful slice of that
//! checking *into* the running process: a background watchdog thread
//! continuously samples cheap online predicates over the live
//! structures and the profiling pipeline, debounces the racy reads,
//! and publishes a health verdict the moment a guarantee stops
//! holding — instead of a failed assertion three hours later in CI.
//!
//! Three pieces:
//!
//! - [`invariant`] — the catalogue of named checks: conservation
//!   (pushes − pops == size), the §4.4 bypass bound (≤ n−1 at one
//!   `TURN` position), per-path step-budget latency ceilings, lease
//!   staleness, poison freedom, and lossless trace capture.
//! - [`slo`] — declarative objectives over the live per-path
//!   operation mix, evaluated with the classic multi-window burn
//!   rate so a brief spike alerts fast but never pages.
//! - [`watchdog`] — the evaluation loop: debounced severity per
//!   check, `cso_watch_*` gauges, a transition-event ring with
//!   optional JSONL export, and the state behind [`routes`]'s
//!   `/health` and `/alerts.json` endpoints.
//!
//! ```no_run
//! use std::sync::Arc;
//! use cso_observe::metrics::{MetricsServer, Registry};
//! use cso_observe::profile::{Harvester, profile_routes};
//! use cso_observe::watch::{Invariant, SloSpec, Watchdog, watch_routes};
//!
//! let registry = Registry::new();
//! let harvester = Harvester::start();
//! let agg = harvester.aggregator();
//! let dog = Watchdog::builder()
//!     .invariant(Invariant::bypass_bound(&agg))
//!     .invariant(Invariant::poison_free(&agg))
//!     .invariant(Invariant::lossless_rings(&agg))
//!     .slos(SloSpec::parse("fastpath budget=0.25 short=30s long=300s good=fast,eliminated").unwrap())
//!     .aggregator(Arc::clone(&agg))
//!     .registry(&registry)
//!     .spawn();
//! let routes = profile_routes(agg).merge(watch_routes(&dog));
//! let server = MetricsServer::bind_with_routes(registry, "127.0.0.1:0", routes).unwrap();
//! println!("curl http://{}/health", server.addr());
//! ```

pub mod invariant;
pub mod routes;
pub mod slo;
pub mod watchdog;

pub use invariant::{Invariant, Verdict};
pub use routes::watch_routes;
pub use slo::{SloEngine, SloSpec, SloStatus};
pub use watchdog::{WatchConfig, Watchdog, WatchdogBuilder};
