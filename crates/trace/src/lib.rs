//! `cso-trace` — observability for the contention-sensitive objects.
//!
//! The paper's central quantitative claim (Theorem 1: a contention-free
//! strong operation costs **six** shared-memory accesses and no lock)
//! is checked offline by the E1 experiment; nothing in the seed could
//! say *why* an individual operation aborted, raised `CONTENTION`, or
//! queued behind `TURN`. This crate closes that gap:
//!
//! * [`probe`] — a tracing event API ([`Event`], [`probe!`]) recorded
//!   into lock-free per-thread ring buffers with global logical
//!   timestamps. **Compiled to nothing unless the `trace` cargo
//!   feature is on** — the macro discards its tokens, so release
//!   builds carry zero code and zero cost (the same discipline as
//!   `cso_memory::fail_point!`).
//! * [`hist`] — log-bucketed (HDR-style) latency histograms with
//!   p50/p90/p99/max snapshots, std-only and always compiled (they
//!   are plain data structures; only *recording probes* is gated).
//! * [`audit`] — a live step-count auditor ([`StepAuditor`]) that
//!   wraps any operation in a `cso_memory::counting::CountScope` and
//!   asserts the paper's access budget per completed operation —
//!   the E1 bench bin's measurement promoted to a reusable runtime
//!   check that can fail a test run.
//! * [`export`] — Chrome `trace_event` JSON (open in
//!   `chrome://tracing` or <https://ui.perfetto.dev>), a plain counts
//!   summary, and the `cso-trace-events v1` event log with its parser
//!   (the codec `cso-analyze` reads captures through), all driven off
//!   a collected [`Trace`].
//!
//! * [`registry`] — the live metrics [`Registry`]: counters and
//!   gauges are polled readers of what an object already counts in
//!   its own cells, and the [`LogHistogram`]-backed [`Timer`] is the
//!   one handle (a latency sample needs a clock reading on the
//!   operation's path). The objects' `attach_metrics` register here;
//!   rendering and serving a snapshot is `cso-observe`'s.
//!
//! * [`stamp`] — the two things a probe site keeps *between* events:
//!   a thread-id cell one thread leaves for the next ([`TidStamp`])
//!   and a clock for a span's length ([`SpanClock`]). Both are
//!   zero-sized, and do nothing, unless probes record.
//!
//! # The one switch
//!
//! `trace` is a cargo feature of **this crate only**, and [`TRACE`]
//! says whether it is on. The instrumented crates declare no feature
//! of their own: what they keep for a traced build lives behind the
//! types and functions here, so switching the mode on — from any
//! package, by any spelling that reaches `cso-trace/trace` — switches
//! it on for every probe site in the graph at once.
//!
//! | `cso-trace/trace` | effect |
//! |---|---|
//! | off | [`probe!`] compiles to nothing; [`probe::collect`] returns an empty [`Trace`]; histograms and the auditor still work |
//! | on | probes record into per-thread rings; [`probe::last_path`] reports the completion path; [`install_chaos_hook`] mirrors fail-point *fires* into the event stream (when `cso-memory/chaos` is on too) |
//!
//! # Example (feature-independent surface)
//!
//! ```
//! use cso_trace::hist::LogHistogram;
//! use cso_trace::probe;
//!
//! let h = LogHistogram::new();
//! h.record_ns(250);
//! h.record_ns(900);
//! assert_eq!(h.snapshot().count, 2);
//!
//! // With the `trace` feature off this is free and collect() is empty.
//! cso_trace::probe!(cso_trace::Event::FastSuccess);
//! let trace = probe::collect();
//! # let _ = trace;
//! ```

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod audit;
pub mod export;
pub mod hist;
pub mod probe;
pub mod registry;
pub mod stamp;

pub use audit::{AuditReport, StepAuditor};
pub use hist::{HistSnapshot, LogHistogram};
pub use probe::{Event, Harvested, HelpKind, Path, Trace, TraceEvent, NO_TID};
pub use registry::{Registry, Timer};
pub use stamp::{SpanClock, TidStamp};

/// Whether probes are compiled in: the `trace` cargo feature of this
/// crate, the one switch for the mode. Code that must branch on it —
/// a build-info gauge, a test that reads the rings — reads this
/// constant; no other library crate declares a `trace` feature.
pub const TRACE: bool = cfg!(feature = "trace");

/// Records a probe [`Event`] on the calling thread.
///
/// With the `trace` cargo feature **disabled** (the default) the event
/// expression is wrapped in a closure that is never called: it stays
/// type-checked (imports at the probe site remain used) but is never
/// evaluated and generates no code, so an un-traced build carries zero
/// cost at every probe site. With the feature enabled the macro
/// appends the event to this thread's ring buffer (see [`probe`]).
#[cfg(feature = "trace")]
#[macro_export]
macro_rules! probe {
    ($event:expr) => {
        $crate::probe::record($event)
    };
}

/// Records a probe [`Event`] (disabled: compiles to nothing; enable
/// the `trace` cargo feature to activate).
#[cfg(not(feature = "trace"))]
#[macro_export]
macro_rules! probe {
    ($event:expr) => {{
        let _ = || $event;
    }};
}

/// Evaluates `$cond` and records `$event` when it is true.
///
/// The condition is evaluated **in both builds** (it may carry side
/// effects — the canonical use is a helping `C&S` whose success is the
/// event); only the recording disappears when the `trace` feature is
/// off. This shape exists so probe sites don't leave behind an empty
/// `if` body that `clippy::needless_if` would reject.
#[cfg(feature = "trace")]
#[macro_export]
macro_rules! probe_if {
    ($cond:expr, $event:expr) => {
        if $cond {
            $crate::probe::record($event);
        }
    };
}

/// Evaluates `$cond` for its side effects and leaves `$event`
/// type-checked but unevaluated (disabled form; enable the `trace`
/// cargo feature to record).
#[cfg(not(feature = "trace"))]
#[macro_export]
macro_rules! probe_if {
    ($cond:expr, $event:expr) => {{
        let _ = $cond;
        let _ = || $event;
    }};
}

/// Mirrors chaos fail-point **fires** into the probe event stream as
/// [`Event::FailPoint`] records, so a trace can show *which* fail
/// point caused each poisoning or abort storm.
///
/// A no-op unless probes record ([`TRACE`]) and fail points exist
/// (`cso_memory::CHAOS`); callers need not gate the call. Idempotent.
pub fn install_chaos_hook() {
    #[cfg(feature = "trace")]
    cso_memory::set_fire_hook(Some(|site| probe::record(Event::FailPoint(site))));
}

#[cfg(test)]
mod tests {
    #[test]
    fn install_chaos_hook_is_callable_in_any_build() {
        super::install_chaos_hook();
    }
}
