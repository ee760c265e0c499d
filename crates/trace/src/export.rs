//! Exporters: Chrome `trace_event` JSON, a plain-text summary, and the
//! `cso-trace-events v1` event log — the one format this crate also
//! reads back ([`event_log`] / [`parse_event_log`]), so a capture
//! written by a traced bench binary replays through the same typed
//! [`Event`]s the live harvester hands out.
//!
//! All of them work on a collected [`Trace`]; none depends on the
//! `trace` feature (an empty trace exports to an empty-but-valid
//! document, and an untraced build parses logs a traced one wrote).
//! The JSON is hand-rolled — the workspace is deliberately
//! dependency-free — against the published `trace_event` format, so
//! the output opens directly in `chrome://tracing` or
//! <https://ui.perfetto.dev>.

use crate::probe::{Event, Trace, TraceEvent};
use std::fmt::Write as _;
use std::sync::Mutex;

/// Minimal JSON string escaping (the only dynamic strings we embed are
/// event names and `&'static str` site labels, but stay correct for
/// arbitrary input).
fn escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// One event rendered as a Chrome trace object (no trailing comma).
fn push_instant(out: &mut String, name: &str, tid: u32, ts_us: f64, args: &[(&str, String)]) {
    out.push_str("{\"name\":\"");
    escape(name, out);
    let _ = write!(
        out,
        "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{tid},\"ts\":{ts_us:.3}"
    );
    push_args(out, args);
    out.push('}');
}

fn push_complete(
    out: &mut String,
    name: &str,
    tid: u32,
    ts_us: f64,
    dur_us: f64,
    args: &[(&str, String)],
) {
    out.push_str("{\"name\":\"");
    escape(name, out);
    let _ = write!(
        out,
        "\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{ts_us:.3},\"dur\":{dur_us:.3}"
    );
    push_args(out, args);
    out.push('}');
}

fn push_args(out: &mut String, args: &[(&str, String)]) {
    if args.is_empty() {
        return;
    }
    out.push_str(",\"args\":{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape(k, out);
        out.push_str("\":\"");
        escape(v, out);
        out.push('"');
    }
    out.push('}');
}

fn event_args(event: &Event) -> Vec<(&'static str, String)> {
    let mut args = Vec::new();
    if let Some(site) = event.site() {
        args.push(("site", site.to_owned()));
    }
    if let Some(proc) = event.proc() {
        args.push(("proc", proc.to_string()));
    }
    args
}

/// Renders a [`Trace`] as Chrome `trace_event` JSON (object form:
/// `{"traceEvents":[...],"displayTimeUnit":"ns"}`).
///
/// Every probe event becomes a thread-scoped instant (`ph:"i"`) on its
/// recording thread's track. Additionally, each
/// [`Event::LockAcquire`]/[`Event::LockRelease`] pair observed on the
/// same thread is folded into a complete span (`ph:"X"`) named
/// `lock-held`, so the timeline shows lock-hold durations as bars
/// rather than dots. Timestamps are the recorded wall-clock offsets
/// converted to microseconds (the format's native unit), with the
/// logical sequence number attached as an arg for exact ordering of
/// same-microsecond events.
#[must_use]
pub fn chrome_trace_json(trace: &Trace) -> String {
    let mut out = String::with_capacity(128 + trace.events.len() * 96);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push(',');
        }
    };
    // Open lock-acquires per (thread, proc), folded into spans on release.
    let mut open_locks: Vec<(u32, u32, u64)> = Vec::new();
    for e in &trace.events {
        let ts_us = e.wall_ns as f64 / 1e3;
        let mut args = event_args(&e.event);
        args.push(("seq", e.seq.to_string()));
        sep(&mut out);
        push_instant(&mut out, &e.event.label(), e.thread, ts_us, &args);
        match e.event {
            Event::LockAcquire(p) => open_locks.push((e.thread, p, e.wall_ns)),
            Event::LockRelease(p) => {
                if let Some(i) = open_locks
                    .iter()
                    .rposition(|&(t, pr, _)| t == e.thread && pr == p)
                {
                    let (_, _, start_ns) = open_locks.swap_remove(i);
                    let dur_us = e.wall_ns.saturating_sub(start_ns) as f64 / 1e3;
                    sep(&mut out);
                    push_complete(
                        &mut out,
                        "lock-held",
                        e.thread,
                        start_ns as f64 / 1e3,
                        dur_us,
                        &[("proc", p.to_string())],
                    );
                }
            }
            _ => {}
        }
    }
    if trace.dropped > 0 {
        sep(&mut out);
        push_instant(
            &mut out,
            "ring-dropped",
            0,
            0.0,
            &[("count", trace.dropped.to_string())],
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

/// Renders a [`Trace`] as the `cso-trace-events v1` log: a line-based
/// TSV made for `cso-analyze` (stable, greppable and parseable without
/// a JSON reader). [`parse_event_log`] is its inverse.
///
/// Layout:
///
/// ```text
/// # cso-trace-events v1
/// # dropped <total>
/// # truncated <thread> <count>      (one line per wrapped ring)
/// <seq>\t<thread>\t<wall_ns>\t<name>\t<site>\t<proc>\t<value>
/// ```
///
/// Absent payload columns hold `-`. Rows are in logical-timestamp
/// order (the order [`Trace::events`] already has). The `# truncated`
/// headers let a consumer classify a wrapped thread's leading partial
/// operation as *truncated* instead of *malformed*.
#[must_use]
pub fn event_log(trace: &Trace) -> String {
    let mut out = String::with_capacity(64 + trace.events.len() * 48);
    out.push_str("# cso-trace-events v1\n");
    let _ = writeln!(out, "# dropped {}", trace.dropped);
    for (thread, count) in &trace.truncated {
        let _ = writeln!(out, "# truncated {thread} {count}");
    }
    for e in &trace.events {
        let _ = write!(
            out,
            "{}\t{}\t{}\t{}\t",
            e.seq,
            e.thread,
            e.wall_ns,
            e.event.name()
        );
        match e.event.site() {
            Some(site) => out.push_str(site),
            None => out.push('-'),
        }
        match e.event.proc() {
            Some(p) => {
                let _ = write!(out, "\t{p}");
            }
            None => out.push_str("\t-"),
        }
        match e.event.value() {
            Some(v) => {
                let _ = writeln!(out, "\t{v}");
            }
            None => out.push_str("\t-\n"),
        }
    }
    out
}

/// A line of a `cso-trace-events v1` log that [`parse_event_log`]
/// could not read.
#[derive(Debug)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

/// Site names read back from event logs, leaked once each so the
/// parsed [`Event`] can carry the `&'static str` the recorded one did.
/// The vocabulary is the few dozen register, lock-kind and fail-point
/// names the probe sites spell, so the table stays that small. It is
/// deliberately not the recorder's own interning table: that one is
/// compiled only with the `trace` feature, and log files are read by
/// untraced builds (CI runs the `cso-analyze` CLI that way).
static PARSED_SITES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

fn intern_site(site: &str) -> &'static str {
    let mut sites = PARSED_SITES.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(known) = sites.iter().find(|s| **s == site) {
        return known;
    }
    let leaked: &'static str = Box::leak(site.to_owned().into_boxed_str());
    sites.push(leaked);
    leaked
}

/// Rebuilds an [`Event`] from the columns [`event_log`] writes for it:
/// the inverse of [`Event::name`] plus whichever of [`Event::site`],
/// [`Event::proc`] and [`Event::value`] the variant carries. `None`
/// for an unknown name or a missing payload; payload columns the
/// variant does not carry are ignored.
#[must_use]
pub fn parse_event(
    name: &str,
    site: Option<&str>,
    proc: Option<u32>,
    value: Option<u32>,
) -> Option<Event> {
    let site = || site.map(intern_site);
    Some(match name {
        "fast-attempt" => Event::FastAttempt,
        "fast-abort" => Event::FastAbort,
        "fast-success" => Event::FastSuccess,
        "cas-fail" => Event::CasFail(site()?),
        "contention-raise" => Event::ContentionRaise,
        "contention-clear" => Event::ContentionClear,
        "lock-acquire" => Event::LockAcquire(proc?),
        "lock-release" => Event::LockRelease(proc?),
        "turn-advance" => Event::TurnAdvance(proc?),
        "helping-write" => Event::HelpingWrite(site()?),
        "fail-point" => Event::FailPoint(site()?),
        "locked-complete" => Event::LockedComplete,
        "slow-timeout" => Event::SlowTimeout,
        "slow-poisoned" => Event::SlowPoisoned,
        "record-post" => Event::RecordPost,
        "record-handoff" => Event::RecordHandoff(value?),
        "combine-batch" => Event::CombineBatch(value?),
        "combined-complete" => Event::CombinedComplete,
        "record-poisoned" => Event::RecordPoisoned,
        "flag-raise" => Event::FlagRaise(proc?),
        "elim-attempt" => Event::ElimAttempt,
        "eliminated-complete" => Event::EliminatedComplete,
        "suspect-raised" => Event::SuspectRaised(proc?),
        "record-reclaimed" => Event::RecordReclaimed(proc?),
        "lock-succeeded" => Event::LockSucceeded(proc?),
        "helped-by-combiner" => Event::HelpedByCombiner(value?),
        "helped-by-partner" => Event::HelpedByPartner(value?),
        "handoff-from" => Event::HandoffFrom(value?),
        "custody-from" => Event::CustodyFrom(value?),
        _ => return None,
    })
}

/// One numeric column of a log line; the error is the message half of
/// a [`ParseError`].
fn number<T: std::str::FromStr>(text: Option<&str>, what: &str) -> Result<T, String> {
    let text = text.ok_or_else(|| format!("missing {what} column"))?;
    text.parse().map_err(|_| format!("bad {what}: {text:?}"))
}

/// A payload column: `-` when the event carries none.
fn optional<T: std::str::FromStr>(text: Option<&str>, what: &str) -> Result<Option<T>, String> {
    match text {
        Some("-") => Ok(None),
        text => number(text, what).map(Some),
    }
}

/// Parses a `cso-trace-events v1` log back into the [`Trace`] that
/// [`event_log`] rendered. Events are re-sorted by sequence number
/// (earlier writers grouped rows by thread); blank lines and unknown
/// `#` comments are skipped, so a log survives a future header.
///
/// # Errors
///
/// [`ParseError`] on a missing or mismatched version header, a row
/// without the seven columns, an unparseable number, or an event name
/// (or payload) this build's [`Event`] does not have.
pub fn parse_event_log(text: &str) -> Result<Trace, ParseError> {
    let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l.trim_end()));
    let header = match lines.next() {
        Some((_, "# cso-trace-events v1")) => Ok(()),
        Some((_, first)) => Err(format!(
            "expected `# cso-trace-events v1` header, got {first:?}"
        )),
        None => Err("empty input".to_owned()),
    };
    header.map_err(|message| ParseError { line: 1, message })?;

    let mut trace = Trace::default();
    for (line, text) in lines {
        let fail = |message: String| ParseError { line, message };
        if let Some(comment) = text.strip_prefix('#') {
            let mut words = comment.split_whitespace();
            match words.next() {
                Some("dropped") => {
                    trace.dropped = number(words.next(), "dropped count").map_err(fail)?;
                }
                Some("truncated") => trace.truncated.push((
                    number(words.next(), "truncated thread").map_err(fail)?,
                    number(words.next(), "truncated count").map_err(fail)?,
                )),
                _ => {}
            }
            continue;
        }
        if text.is_empty() {
            continue;
        }
        let mut cols = text.split('\t');
        let seq = number(cols.next(), "seq").map_err(fail)?;
        let thread = number(cols.next(), "thread").map_err(fail)?;
        let wall_ns = number(cols.next(), "wall_ns").map_err(fail)?;
        let name = cols
            .next()
            .ok_or_else(|| fail("missing name column".into()))?;
        let site = match cols.next() {
            None => return Err(fail("missing site column".into())),
            Some("-") => None,
            site => site,
        };
        let proc = optional(cols.next(), "proc").map_err(fail)?;
        let value = optional(cols.next(), "value").map_err(fail)?;
        let event = parse_event(name, site, proc, value)
            .ok_or_else(|| fail(format!("unknown event or missing payload: {name:?}")))?;
        trace.events.push(TraceEvent {
            thread,
            seq,
            wall_ns,
            event,
        });
    }
    trace.events.sort_by_key(|e| e.seq);
    Ok(trace)
}

/// Renders a [`Trace`] as a plain-text counts table: one row per
/// distinct [`Event::label`] (so CAS fails and fail points break out
/// per site), descending by count, plus thread/drop totals.
#[must_use]
pub fn summary(trace: &Trace) -> String {
    let rows = trace.counts();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace summary: {} events on {} thread(s), {} dropped",
        trace.events.len(),
        trace.thread_count(),
        trace.dropped
    );
    let width = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(5).max(5);
    let _ = writeln!(out, "  {:<width$}  {:>10}", "event", "count");
    for (label, count) in rows {
        let _ = writeln!(out, "  {label:<width$}  {count:>10}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::TraceEvent;

    /// A compact structural JSON validity check: balanced containers
    /// outside strings, proper string termination, no trailing junk.
    fn assert_valid_json(s: &str) {
        let mut depth: Vec<char> = Vec::new();
        let mut in_string = false;
        let mut escaped = false;
        for c in s.chars() {
            if in_string {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_string = false;
                }
                continue;
            }
            match c {
                '"' => in_string = true,
                '{' => depth.push('}'),
                '[' => depth.push(']'),
                '}' | ']' => assert_eq!(depth.pop(), Some(c), "mismatched container in {s}"),
                _ => {}
            }
        }
        assert!(!in_string, "unterminated string");
        assert!(depth.is_empty(), "unbalanced containers");
        assert!(s.starts_with('{') && s.ends_with('}'));
        // No adjacent-value syntax errors from comma handling.
        assert!(!s.contains(",,") && !s.contains("[,") && !s.contains(",]"));
    }

    fn ev(thread: u32, seq: u64, wall_ns: u64, event: Event) -> TraceEvent {
        TraceEvent {
            thread,
            seq,
            wall_ns,
            event,
        }
    }

    #[test]
    fn empty_trace_is_valid_json() {
        let json = chrome_trace_json(&Trace::default());
        assert_valid_json(&json);
        assert!(json.contains("\"traceEvents\":[]"));
    }

    #[test]
    fn events_render_with_sites_and_lock_spans() {
        let trace = Trace {
            events: vec![
                ev(0, 0, 100, Event::FastAttempt),
                ev(0, 1, 250, Event::CasFail("stack::top")),
                ev(1, 2, 300, Event::LockAcquire(1)),
                ev(1, 3, 2_300, Event::LockRelease(1)),
            ],
            dropped: 2,
            truncated: vec![(0, 2)],
        };
        let json = chrome_trace_json(&trace);
        assert_valid_json(&json);
        assert!(json.contains("\"name\":\"cas-fail@stack::top\""));
        assert!(json.contains("\"site\":\"stack::top\""));
        // 300ns..2300ns lock hold = 2.000µs complete event.
        assert!(json.contains("\"name\":\"lock-held\""), "{json}");
        assert!(json.contains("\"dur\":2.000"), "{json}");
        assert!(json.contains("ring-dropped"));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 1);
        assert_eq!(
            json.matches("\"ph\":\"i\"").count(),
            5,
            "4 events + drop marker"
        );
    }

    #[test]
    fn unmatched_release_renders_no_span() {
        let trace = Trace {
            events: vec![ev(0, 0, 10, Event::LockRelease(3))],
            dropped: 0,
            truncated: Vec::new(),
        };
        let json = chrome_trace_json(&trace);
        assert_valid_json(&json);
        assert!(!json.contains("lock-held"));
    }

    #[test]
    fn escape_handles_specials() {
        let mut s = String::new();
        escape("a\"b\\c\nd\u{1}", &mut s);
        assert_eq!(s, "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn event_log_round_trips_columns_and_headers() {
        let trace = Trace {
            events: vec![
                ev(0, 0, 100, Event::FastAttempt),
                ev(0, 1, 250, Event::CasFail("stack::top")),
                ev(1, 2, 300, Event::FlagRaise(1)),
                ev(1, 3, 400, Event::LockAcquire(1)),
                ev(1, 4, 900, Event::CombineBatch(5)),
            ],
            dropped: 3,
            truncated: vec![(1, 3)],
        };
        let log = event_log(&trace);
        let mut lines = log.lines();
        assert_eq!(lines.next(), Some("# cso-trace-events v1"));
        assert_eq!(lines.next(), Some("# dropped 3"));
        assert_eq!(lines.next(), Some("# truncated 1 3"));
        assert_eq!(lines.next(), Some("0\t0\t100\tfast-attempt\t-\t-\t-"));
        assert_eq!(lines.next(), Some("1\t0\t250\tcas-fail\tstack::top\t-\t-"));
        assert_eq!(lines.next(), Some("2\t1\t300\tflag-raise\t-\t1\t-"));
        assert_eq!(lines.next(), Some("3\t1\t400\tlock-acquire\t-\t1\t-"));
        assert_eq!(lines.next(), Some("4\t1\t900\tcombine-batch\t-\t-\t5"));
        assert_eq!(lines.next(), None);
    }

    /// One of every variant, payloads distinct enough that a column
    /// mix-up cannot cancel out. (A variant missing from this list is
    /// still caught in `trace` builds, where
    /// `every_ring_code_survives_the_event_log_codec` walks the ring's
    /// own exhaustive enumeration through the parser.)
    fn one_of_each() -> Vec<Event> {
        vec![
            Event::FastAttempt,
            Event::FastAbort,
            Event::FastSuccess,
            Event::CasFail("stack::top"),
            Event::ContentionRaise,
            Event::ContentionClear,
            Event::LockAcquire(1),
            Event::LockRelease(2),
            Event::TurnAdvance(3),
            Event::HelpingWrite("queue::slot"),
            Event::FailPoint("cs::locked"),
            Event::LockedComplete,
            Event::SlowTimeout,
            Event::SlowPoisoned,
            Event::RecordPost,
            Event::RecordHandoff(u32::MAX),
            Event::CombineBatch(5),
            Event::CombinedComplete,
            Event::RecordPoisoned,
            Event::FlagRaise(4),
            Event::ElimAttempt,
            Event::EliminatedComplete,
            Event::SuspectRaised(5),
            Event::RecordReclaimed(6),
            Event::LockSucceeded(7),
            Event::HelpedByCombiner(8),
            Event::HelpedByPartner(9),
            Event::HandoffFrom(10),
            Event::CustodyFrom(crate::NO_TID),
        ]
    }

    #[test]
    fn parse_event_log_inverts_event_log_for_every_variant() {
        let events = one_of_each()
            .into_iter()
            .enumerate()
            .map(|(i, event)| ev(i as u32 % 3, i as u64, 100 * i as u64, event))
            .collect();
        let trace = Trace {
            events,
            dropped: 12,
            truncated: vec![(0, 5), (2, 7)],
        };
        let text = event_log(&trace);
        let parsed = parse_event_log(&text).expect("own output parses");
        assert_eq!(parsed.events, trace.events);
        assert_eq!(parsed.dropped, trace.dropped);
        assert_eq!(parsed.truncated, trace.truncated);
        assert_eq!(event_log(&parsed), text, "and renders back byte for byte");
        // A site read twice is one leaked string, not two.
        let again = parse_event_log(&text).expect("parses again");
        assert_eq!(
            parsed.events[3].event.site().map(str::as_ptr),
            again.events[3].event.site().map(str::as_ptr)
        );
    }

    #[test]
    fn parse_event_log_sorts_and_skips_noise() {
        let text = "# cso-trace-events v1\n# some future header\n\n\
                    3\t1\t900\tlock-acquire\t-\t1\t-\n\
                    0\t0\t100\tfast-attempt\t-\t-\t-  \n";
        let trace = parse_event_log(text).expect("parses");
        assert_eq!(trace.dropped, 0);
        assert!(trace.truncated.is_empty());
        assert_eq!(trace.events[0], ev(0, 0, 100, Event::FastAttempt));
        assert_eq!(trace.events[1], ev(1, 3, 900, Event::LockAcquire(1)));
    }

    #[test]
    fn parse_event_log_rejects_what_it_cannot_represent() {
        let line_of = |text: &str| parse_event_log(text).expect_err("rejected").line;
        assert_eq!(line_of(""), 1);
        assert_eq!(line_of("# cso-trace-events v2\n"), 1);
        let head = "# cso-trace-events v1\n";
        // Short row, bad number, unknown name, payload the variant
        // needs but the row lacks, payload wider than the event's u32.
        for row in [
            "0\t0\t1\tfast-attempt\t-\n",
            "x\t0\t1\tfast-attempt\t-\t-\t-\n",
            "0\t0\t1\tno-such-event\t-\t-\t-\n",
            "0\t0\t1\tlock-acquire\t-\t-\t-\n",
            "0\t0\t1\tcombine-batch\t-\t-\t4294967296\n",
            "# truncated 1\n",
        ] {
            assert_eq!(line_of(&format!("{head}{row}")), 2, "{row:?}");
        }
        let err = parse_event_log(&format!("{head}x\t0\t1\tfast-attempt\t-\t-\t-\n"));
        assert!(err
            .expect_err("bad seq")
            .to_string()
            .contains("line 2: bad seq"));
    }

    #[test]
    fn summary_groups_and_reports_totals() {
        let trace = Trace {
            events: vec![
                ev(0, 0, 0, Event::FastSuccess),
                ev(0, 1, 1, Event::FastSuccess),
                ev(1, 2, 2, Event::FailPoint("cs::locked")),
            ],
            dropped: 7,
            truncated: vec![(0, 3), (1, 4)],
        };
        let text = summary(&trace);
        assert!(text.contains("3 events on 2 thread(s), 7 dropped"));
        assert!(text.contains("fast-success"));
        assert!(text.contains("fail-point@cs::locked"));
        let fast_line = text.lines().find(|l| l.contains("fast-success")).unwrap();
        assert!(fast_line.trim_end().ends_with('2'));
    }
}
