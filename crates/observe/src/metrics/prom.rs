//! Prometheus text exposition (format version 0.0.4) and the JSON
//! equivalent, rendered from a [`Snapshot`].

use std::fmt::Write as _;

use cso_trace::registry::Snapshot;

use crate::metrics::json::Json;

/// Renders the snapshot in the Prometheus text exposition format:
///
/// * counters as `# TYPE <name> counter` plus one sample;
/// * gauges as `# TYPE <name> gauge`;
/// * timers as a `summary` — `quantile="0.5"/"0.9"/"0.99"` samples
///   (bucket upper bounds, ≤6.25% above the true sample) plus
///   `_sum` / `_count`, and a companion `<name>_max` gauge (the exact
///   maximum, which a summary cannot express).
///
/// All values are nanoseconds for timers; consumers divide as needed.
#[must_use]
pub fn render_prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, value) in &snap.gauges {
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {}", fmt_f64(*value));
    }
    for (name, hist) in &snap.timers {
        let _ = writeln!(out, "# TYPE {name} summary");
        let _ = writeln!(out, "{name}{{quantile=\"0.5\"}} {}", hist.p50_ns);
        let _ = writeln!(out, "{name}{{quantile=\"0.9\"}} {}", hist.p90_ns);
        let _ = writeln!(out, "{name}{{quantile=\"0.99\"}} {}", hist.p99_ns);
        // The histogram keeps an exact running sum but snapshots only
        // the mean; mean × count restores the sum to ±count/2 ns.
        let _ = writeln!(
            out,
            "{name}_sum {}",
            hist.mean_ns.saturating_mul(hist.count)
        );
        let _ = writeln!(out, "{name}_count {}", hist.count);
        let _ = writeln!(out, "# TYPE {name}_max gauge");
        let _ = writeln!(out, "{name}_max {}", hist.max_ns);
    }
    out
}

/// Renders the snapshot as a JSON object:
///
/// ```json
/// {
///   "counters": {"name": 1},
///   "gauges": {"name": 0.5},
///   "timers": {"name": {"count": 1, "mean_ns": 5, "p50_ns": 5,
///                        "p90_ns": 5, "p99_ns": 5, "max_ns": 5}}
/// }
/// ```
#[must_use]
pub fn render_json(snap: &Snapshot) -> Json {
    let counters = snap
        .counters
        .iter()
        .map(|(n, v)| (n.clone(), Json::U64(*v)))
        .collect();
    let gauges = snap
        .gauges
        .iter()
        .map(|(n, v)| (n.clone(), Json::F64(*v)))
        .collect();
    let timers = snap
        .timers
        .iter()
        .map(|(n, h)| {
            (
                n.clone(),
                Json::obj()
                    .field("count", h.count)
                    .field("mean_ns", h.mean_ns)
                    .field("p50_ns", h.p50_ns)
                    .field("p90_ns", h.p90_ns)
                    .field("p99_ns", h.p99_ns)
                    .field("max_ns", h.max_ns),
            )
        })
        .collect();
    Json::obj()
        .field("counters", Json::Obj(counters))
        .field("gauges", Json::Obj(gauges))
        .field("timers", Json::Obj(timers))
}

fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_owned()
    } else if v == f64::INFINITY {
        "+Inf".to_owned()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_owned()
    } else {
        format!("{v}")
    }
}

/// Structural validation of a Prometheus text page: every line is a
/// comment (`# HELP` / `# TYPE`), blank, or `<name>[{labels}] <value>`
/// with a valid metric name and a parseable value. Returns the first
/// offending line. Used by the CI scrape smoke test.
///
/// # Errors
///
/// `Err((line_number, line))`, 1-based, on the first malformed line.
pub fn validate_prometheus(page: &str) -> Result<(), (usize, String)> {
    for (i, line) in page.lines().enumerate() {
        let bad = || Err((i + 1, line.to_owned()));
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut words = comment.split_whitespace();
            match words.next() {
                Some("HELP" | "TYPE") if words.next().is_some() => continue,
                _ => return bad(),
            }
        }
        // Sample line: name[{labels}] value [timestamp]
        let rest =
            line.trim_start_matches(|c: char| c.is_ascii_alphanumeric() || c == '_' || c == ':');
        if rest.len() == line.len() {
            return bad(); // no metric name at all
        }
        let rest = if let Some(after) = rest.strip_prefix('{') {
            match after.find('}') {
                Some(end) => &after[end + 1..],
                None => return bad(),
            }
        } else {
            rest
        };
        let mut words = rest.split_whitespace();
        let Some(value) = words.next() else {
            return bad();
        };
        if value.parse::<f64>().is_err() && !matches!(value, "NaN" | "+Inf" | "-Inf") {
            return bad();
        }
        if let Some(ts) = words.next() {
            if ts.parse::<i64>().is_err() {
                return bad();
            }
        }
        if words.next().is_some() {
            return bad();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cso_trace::Registry;

    fn sample() -> Snapshot {
        let reg = Registry::new();
        reg.counter_fn("cs_ops_fast_total", || 10);
        reg.counter_fn("cs_ops_locked_total", || 2);
        reg.counter_fn("cs_ops_polled_total", || 7);
        reg.gauge_fn("cs_gate_abort_ewma", || 0.125);
        let t = reg.timer("cs_fast_ns");
        for i in 1..=100 {
            t.record_ns(i * 10);
        }
        reg.snapshot()
    }

    #[test]
    fn prometheus_page_has_expected_series() {
        let page = render_prometheus(&sample());
        assert!(page.contains("# TYPE cs_ops_fast_total counter"));
        assert!(page.contains("cs_ops_fast_total 10"));
        // A polled reader is typed as what it was registered as.
        assert!(page.contains("# TYPE cs_ops_polled_total counter"));
        assert!(page.contains("cs_ops_polled_total 7"));
        assert!(page.contains("# TYPE cs_gate_abort_ewma gauge"));
        assert!(page.contains("cs_gate_abort_ewma 0.125"));
        assert!(page.contains("# TYPE cs_fast_ns summary"));
        assert!(page.contains("cs_fast_ns{quantile=\"0.5\"}"));
        assert!(page.contains("cs_fast_ns_count 100"));
        assert!(page.contains("cs_fast_ns_max 1000"));
        validate_prometheus(&page).expect("page validates");
    }

    #[test]
    fn json_snapshot_round_trips() {
        let json = render_json(&sample());
        let parsed = Json::parse(&json.render()).unwrap();
        assert_eq!(
            parsed
                .get("counters")
                .and_then(|c| c.get("cs_ops_fast_total"))
                .and_then(Json::as_u64),
            Some(10)
        );
        assert_eq!(
            parsed
                .get("timers")
                .and_then(|t| t.get("cs_fast_ns"))
                .and_then(|h| h.get("count"))
                .and_then(Json::as_u64),
            Some(100)
        );
    }

    #[test]
    fn validator_rejects_malformed_pages() {
        assert!(validate_prometheus("just words\n").is_err());
        assert!(validate_prometheus("# FOO bar\n").is_err());
        assert!(validate_prometheus("name notanumber\n").is_err());
        assert!(validate_prometheus("name{unclosed 1\n").is_err());
        assert!(validate_prometheus("name 1 2 3\n").is_err());
        assert!(validate_prometheus("name 1\nname{l=\"x\"} 2.5\n# TYPE name counter\n").is_ok());
        assert!(validate_prometheus("g NaN\ng2 +Inf\n").is_ok());
    }
}
