//! Trace analysis: what a run actually *did*, operation by operation.
//!
//! Where [`crate::metrics`] reports what an object is doing *now*,
//! this module answers what a run did — and it answers once. [`Fold`]
//! is the repository's only trace analyser: a bounded-memory fold over
//! the typed [`cso_trace::Event`] stream. [`crate::profile`] feeds it harvested
//! batches while the workload runs; the `cso-analyze` binary feeds it
//! a `cso-trace-events v1` capture (`cso_trace::export::event_log`,
//! written by the bench harness via `CSO_TRACE_EVENTS` or to
//! `target/trace/<bin>.events.tsv`, read back by
//! `cso_trace::export::parse_event_log`) after it has ended. Both read
//! the same [`Snapshot`].
//!
//! * [`spans`] — the per-thread span state machine: every operation is
//!   classified fast / eliminated / locked / combined / combiner, every
//!   anomaly as loss or as a protocol violation;
//! * [`fold`] — the fold itself, with the two cross-thread trackers it
//!   owns: §4.4 bypass accounting (no `flag-raise(p)` →
//!   `lock-acquire(p)` interval should contain more than `n − 1`
//!   acquisitions by others) and lock-tenure accounting (convoys,
//!   combiner stalls); its module docs say what memory it holds, what
//!   loss does to each consumer, and what cross-thread skew remains;
//! * [`snapshot`] — the view every consumer reads, with the
//!   `/spans.json` and `/profile` renderings;
//! * [`causal`] — the cross-thread helped-by graph and the attribution
//!   coverage the observability gate enforces;
//! * [`collapse`] — collapsed-stack (flamegraph) output.
//!
//! The `cso-analyze` binary prints views of one snapshot;
//! `cso-analyze check` is the CI entry point (nonzero exit on a bypass
//! violation or span coverage below threshold).

pub mod causal;
pub mod collapse;
pub mod fold;
pub mod snapshot;
pub mod spans;

pub use fold::Fold;
pub use snapshot::Snapshot;
