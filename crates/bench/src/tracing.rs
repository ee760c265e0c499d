//! Trace capture for the experiment binaries.
//!
//! Both `e*` binaries start with [`capture`], which records the run
//! when an output is named, and end a recorded run by dropping the
//! capture and calling [`emit`]: it prints the event summary table and
//! writes a Chrome `trace_event` JSON next to the target directory
//! (open it in `chrome://tracing` or <https://ui.perfetto.dev>) plus
//! the `cso-trace-events v1` log that `cso-analyze` reads. Per-path latency is not measured here: a run
//! that times is the yardstick's, and the per-path table of a traced
//! capture is `cso-analyze spans <events.tsv>`.
//!
//! Environment knobs: `CSO_TRACE_OUT` overrides the JSON output path
//! (default `target/trace/<bin>.json`), `CSO_TRACE_EVENTS` the event
//! log's (default `target/trace/<bin>.events.tsv`); setting either asks
//! for the capture.

use std::path::PathBuf;

use cso_trace::export;
use cso_trace::probe::{self, Recording};

/// Records the run (arms the probes) when `CSO_TRACE_OUT` or
/// `CSO_TRACE_EVENTS` is set; `None` leaves it quiet.
#[must_use]
pub fn capture() -> Option<Recording> {
    ["CSO_TRACE_OUT", "CSO_TRACE_EVENTS"]
        .iter()
        .any(|var| std::env::var_os(var).is_some())
        .then(Recording::start)
}

/// Ends a recorded experiment, once its [`capture`] has dropped: prints
/// the event summary and writes the Chrome `trace_event` JSON for `bin`
/// (to `CSO_TRACE_OUT`, or `target/trace/<bin>.json`) and the event log.
pub fn emit(bin: &str) {
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

    #[test]
    fn a_run_that_names_no_output_is_not_captured() {
        if ["CSO_TRACE_OUT", "CSO_TRACE_EVENTS"]
            .iter()
            .all(|var| std::env::var_os(var).is_none())
        {
            assert!(capture().is_none());
        }
    }
}
