//! `cso-trace` — observability for the contention-sensitive objects.
//!
//! The paper's central quantitative claim (Theorem 1: a contention-free
//! strong operation costs **six** shared-memory accesses and no lock)
//! is checked offline by the E1 experiment; nothing in the seed could
//! say *why* an individual operation aborted, raised `CONTENTION`, or
//! queued behind `TURN`. This crate closes that gap:
//!
//! * [`probe`](mod@probe) — a tracing event API ([`Event`],
//!   [`probe!`]) recorded into lock-free per-thread ring buffers with
//!   global logical timestamps. **Recorded only while the run-time mode
//!   is armed** (`cso_memory::mode`): while someone reads the rings — a
//!   [`probe::Recording`] or the profiler's harvester — or a fail point
//!   is armed. Quiet, a site is one relaxed load, and on
//!   Figure 3's contention-free path no site exists at all (the
//!   macros' `M =>` form, the same discipline as
//!   `cso_memory::fail_point!`).
//! * [`hist`] — log-bucketed (HDR-style) latency histograms with
//!   p50/p90/p99/max snapshots, std-only plain data structures.
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
//!   and a clock for a span's length ([`SpanClock`]). Both are written
//!   and read only while the mode is armed.
//!
//! # One build, two modes
//!
//! | mode | effect |
//! |---|---|
//! | quiet | a [`probe!`] site is one relaxed load (none on the contention-free path); [`probe::collect`] returns what earlier armed periods left; histograms and the auditor still work |
//! | armed | probes record into per-thread rings; [`probe::last_path`] reports the completion path; [`install_chaos_hook`] mirrors fail-point *fires* into the event stream |
//!
//! # Example
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
//! // Quiet: the site reads the mode word and records nothing.
//! cso_trace::probe!(cso_trace::Event::FastSuccess);
//! // Armed while the recording lives.
//! let recording = probe::Recording::start();
//! cso_trace::probe!(cso_trace::Event::FastSuccess);
//! assert_eq!(probe::last_path(), Some(probe::Path::Fast));
//! drop(recording);
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

pub use cso_memory::mode;

/// Records a probe [`Event`] on the calling thread while the run-time
/// mode is armed ([`mode::armed`], one relaxed load); quiet, the event
/// expression is not evaluated.
///
/// `probe!(M => event)` is the form for code on Figure 3's
/// contention-free path, generic over a [`mode::Mode`] `M`: its
/// [`mode::Quiet`] instance carries no site at all.
#[macro_export]
macro_rules! probe {
    ($mode:ident => $event:expr) => {
        if <$mode as $crate::mode::Mode>::ON {
            $crate::probe!($event);
        }
    };
    ($event:expr) => {
        if $crate::mode::armed() {
            $crate::probe::record($event);
        }
    };
}

/// Evaluates `$cond` and records `$event` when it is true and the mode
/// is armed.
///
/// The condition is evaluated **in both modes** (it may carry side
/// effects — the canonical use is a helping `C&S` whose success is the
/// event); only the recording depends on the mode. This shape exists
/// so probe sites don't leave behind an empty `if` body that
/// `clippy::needless_if` would reject. `probe_if!(M => cond, event)`
/// is the mode-generic form, as for [`probe!`].
#[macro_export]
macro_rules! probe_if {
    ($mode:ident => $cond:expr, $event:expr) => {
        if $cond {
            $crate::probe!($mode => $event);
        }
    };
    ($cond:expr, $event:expr) => {
        if $cond {
            $crate::probe!($event);
        }
    };
}

/// Mirrors chaos fail-point **fires** into the probe event stream as
/// [`Event::FailPoint`] records, so a trace can show *which* fail
/// point caused each poisoning or abort storm. A fire needs an armed
/// fail point, so the mode is armed whenever the hook runs.
/// Idempotent.
pub fn install_chaos_hook() {
    cso_memory::chaos::set_fire_hook(Some(|site| probe::record(Event::FailPoint(site))));
}

#[cfg(test)]
pub(crate) mod tests {
    /// The probe rings and the mode word are process-global: the tests
    /// of this crate that record, or that assert the quiet mode, take
    /// turns.
    pub(crate) fn serial() -> std::sync::MutexGuard<'static, ()> {
        static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
        SERIAL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn install_chaos_hook_is_callable_in_any_build() {
        super::install_chaos_hook();
    }
}
