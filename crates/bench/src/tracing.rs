//! Trace capture for the experiment binaries.
//!
//! Every `e*` binary finishes by calling [`emit`], which is a no-op in
//! untraced builds and, under `--features trace`, prints the event
//! summary table and writes a Chrome `trace_event` JSON next to the
//! target directory (open it in `chrome://tracing` or
//! <https://ui.perfetto.dev>) plus the `cso-trace-events v1` log that
//! `cso-analyze` reads. Per-path latency is not measured here: a run
//! that times is the yardstick's, and the per-path table of a traced
//! capture is `cso-analyze spans <events.tsv>`.
//!
//! Environment knobs: `CSO_TRACE_OUT` overrides the JSON output path
//! (default `target/trace/<bin>.json`), `CSO_TRACE_EVENTS` the event
//! log's (default `target/trace/<bin>.events.tsv`).

use std::path::PathBuf;

use cso_trace::export;
use cso_trace::probe::{self, Event, Trace};

/// Attributes each survived poisoning to the chaos fail point that
/// caused it: for every [`Event::SlowPoisoned`], the nearest preceding
/// [`Event::FailPoint`] *on the same thread* is charged. Returns
/// `(site, poisonings)` rows, descending by count. Requires
/// [`cso_trace::install_chaos_hook`] to have been installed before the
/// run (otherwise no fail-point events exist and every poisoning is
/// charged to `"<unattributed>"`).
#[must_use]
pub fn poisoning_causes(trace: &Trace) -> Vec<(&'static str, u64)> {
    let mut counts: Vec<(&'static str, u64)> = Vec::new();
    let mut bump = |site: &'static str| match counts.iter_mut().find(|(s, _)| *s == site) {
        Some((_, n)) => *n += 1,
        None => counts.push((site, 1)),
    };
    for (i, e) in trace.events.iter().enumerate() {
        if e.event != Event::SlowPoisoned {
            continue;
        }
        let cause = trace.events[..i]
            .iter()
            .rev()
            .filter(|c| c.thread == e.thread)
            .find_map(|c| match c.event {
                Event::FailPoint(site) => Some(site),
                _ => None,
            });
        bump(cause.unwrap_or("<unattributed>"));
    }
    counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    counts
}

/// Ends a traced experiment: prints the event summary and writes the
/// Chrome `trace_event` JSON for `bin` (to `CSO_TRACE_OUT`, or
/// `target/trace/<bin>.json`). Completely silent when probes are not
/// recording (untraced build or [`probe::set_enabled`]`(false)`),
/// so every binary can call this unconditionally.
pub fn emit(bin: &str) {
    if !probe::enabled() {
        return;
    }
    let trace = probe::collect();
    println!();
    print!("{}", export::summary(&trace));
    let path = std::env::var_os("CSO_TRACE_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/trace").join(format!("{bin}.json")));
    if let Some(dir) = path.parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("trace: cannot create {}: {e}", dir.display());
            return;
        }
    }
    match std::fs::write(&path, export::chrome_trace_json(&trace)) {
        Ok(()) => println!(
            "chrome trace: {} ({} events) — open in chrome://tracing or ui.perfetto.dev",
            path.display(),
            trace.events.len()
        ),
        Err(e) => eprintln!("trace: cannot write {}: {e}", path.display()),
    }
    // The analyzer input: the same events in the `cso-trace-events v1`
    // TSV form `cso-analyze` consumes.
    let events_path = std::env::var_os("CSO_TRACE_EVENTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/trace").join(format!("{bin}.events.tsv")));
    match std::fs::write(&events_path, export::event_log(&trace)) {
        Ok(()) => println!(
            "event log: {} — analyze with `cso-analyze check {}`",
            events_path.display(),
            events_path.display()
        ),
        Err(e) => eprintln!("trace: cannot write {}: {e}", events_path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cso_trace::probe::TraceEvent;

    #[test]
    fn poisoning_attribution_charges_same_thread_fail_point() {
        let ev = |thread, seq, event| TraceEvent {
            thread,
            seq,
            wall_ns: seq,
            event,
        };
        let trace = Trace {
            events: vec![
                ev(0, 0, Event::FailPoint("cs::locked")),
                ev(1, 1, Event::FailPoint("stack::push")),
                ev(0, 2, Event::SlowPoisoned),
                ev(1, 3, Event::SlowPoisoned),
                ev(2, 4, Event::SlowPoisoned),
            ],
            dropped: 0,
            truncated: Vec::new(),
        };
        assert_eq!(
            poisoning_causes(&trace),
            vec![("<unattributed>", 1), ("cs::locked", 1), ("stack::push", 1),]
        );
    }

    #[test]
    fn emit_is_silent_when_not_recording() {
        // In untraced builds enabled() is always false; in traced test
        // builds, pause recording so emit() must take the silent path.
        let was = probe::enabled();
        probe::set_enabled(false);
        emit("tracing-test");
        if was {
            probe::set_enabled(true);
        }
        assert!(!std::path::Path::new("target/trace/tracing-test.json").exists());
    }
}
