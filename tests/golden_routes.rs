//! Every route the scrape server serves, pinned byte for byte.
//!
//! The inputs are fixed: a registry whose counters, gauges and timers
//! hold set values, and `golden/capture.events.tsv`, a
//! `cso-trace-events v1` capture of a traced run (four threads on
//! three `CsStack`s: fast, combining and locked). The capture is folded
//! by a `LiveAggregator` and judged by one manual watchdog tick. Each
//! route's body must equal its file under `golden/routes/`. Built-in
//! routes are rendered as the server renders them. Plugged-in routes
//! are called through the route table.
//!
//! The test needs no feature. It records no probe, so the live drop
//! gauge reads 0 in every build.
//!
//! Volatile series are masked by name before comparing (see
//! [`VOLATILE`]). Both are times since the watchdog was built.
//!
//! To regenerate the goldens after an intended change to a renderer,
//! run with `CSO_BLESS_GOLDENS=1` and review the diff.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use cso::metrics::prom::{render_json, render_prometheus};
use cso::metrics::{Registry, Routes};
use cso::profile::{profile_routes, LiveAggregator};
use cso::trace::export::parse_event_log;
use cso::trace::probe::Harvested;
use cso::watch::{watch_routes, Invariant, SloSpec, Verdict, Watchdog};

/// JSON fields whose value is a wall-clock reading, masked before
/// comparing: `/health`'s `uptime_ms` and the `t_ms` of each
/// transition event in `/alerts.json`.
const VOLATILE: [&str; 2] = ["uptime_ms", "t_ms"];

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// A registry holding set values in every kind of series: polled
/// counters and gauges, and timers with recorded samples.
fn fixed_registry() -> Registry {
    let registry = Registry::new();
    registry.counter_fn("golden_ops_total", || 1234);
    registry.counter_fn("golden_aborts_total", || 56);
    registry.counter_fn("golden_polled_total", || 789);
    registry.gauge_fn("golden_depth", || 17.0);
    registry.gauge_fn("golden_ratio", || 0.375);
    registry.gauge_fn("golden_polled_gauge", || -2.5);
    let fast = registry.timer("golden_fast_ns");
    for ns in [120, 180, 250, 310, 990, 4_000] {
        fast.record_ns(ns);
    }
    let slow = registry.timer("golden_slow_ns");
    for i in 1..=100u64 {
        slow.record_ns(i * 1_000);
    }
    registry
}

/// The capture folded as one harvested batch.
fn folded_capture() -> Arc<LiveAggregator> {
    let text =
        std::fs::read_to_string(golden_dir().join("capture.events.tsv")).expect("read the capture");
    let trace = parse_event_log(&text).expect("parse the capture");
    let agg = Arc::new(LiveAggregator::new());
    agg.ingest(&Harvested {
        events: trace.events,
        lost: 0,
        truncated: trace.truncated,
    });
    agg
}

/// Replaces the value of every `"<name>": <digits>` with `"<name>": 0`.
fn mask(body: &str) -> String {
    let mut out = String::with_capacity(body.len());
    for line in body.split_inclusive('\n') {
        let masked = VOLATILE.iter().find_map(|name| {
            let key = format!("\"{name}\": ");
            let at = line.find(&key)? + key.len();
            let digits = line[at..].bytes().take_while(u8::is_ascii_digit).count();
            (digits > 0).then(|| format!("{}0{}", &line[..at], &line[at + digits..]))
        });
        out.push_str(masked.as_deref().unwrap_or(line));
    }
    out
}

/// Every route's `(file, body)`, with the built-ins read after the
/// watchdog tick so its gauges are in `/metrics`.
fn render_all() -> Vec<(&'static str, String)> {
    let registry = fixed_registry();
    let agg = folded_capture();
    agg.register_metrics(&registry);
    let mut dog = Watchdog::builder()
        .invariant(Invariant::bypass_bound(&agg))
        .invariant(Invariant::poison_free(&agg))
        .invariant(Invariant::lossless_rings(&agg))
        .invariant(Invariant::new("planted", || {
            Verdict::Degraded("a planted violation".to_owned())
        }))
        .slos(
            SloSpec::parse(
                "fastpath budget=0.25 short=30s long=300s good=fast\n\
                 served budget=0.001 short=30s long=300s good=fast,locked,combined,combiner",
            )
            .expect("slo specs"),
        )
        .aggregator(Arc::clone(&agg))
        .registry(&registry)
        .debounce(1)
        .build();
    dog.tick();
    let routes: Routes = profile_routes(agg).merge(watch_routes(&dog));
    let plugged = |path: &str, content_type: &str| {
        let handler = routes
            .lookup(path)
            .unwrap_or_else(|| panic!("no route {path}"));
        let (ctype, body) = handler();
        assert_eq!(ctype, content_type, "{path}");
        mask(&body)
    };
    let snap = registry.snapshot();
    vec![
        ("metrics.txt", render_prometheus(&snap)),
        ("metrics.json", render_json(&snap).render_pretty()),
        (
            "profile.txt",
            plugged("/profile", "text/plain; charset=utf-8"),
        ),
        ("spans.json", plugged("/spans.json", "application/json")),
        (
            "flamegraph.txt",
            plugged("/flamegraph", "text/plain; charset=utf-8"),
        ),
        ("causal.json", plugged("/causal.json", "application/json")),
        ("health.json", plugged("/health", "application/json")),
        ("alerts.json", plugged("/alerts.json", "application/json")),
    ]
}

#[test]
fn every_route_is_byte_identical_to_its_golden() {
    let dir = golden_dir().join("routes");
    let bless = std::env::var_os("CSO_BLESS_GOLDENS").is_some();
    let mut differ = Vec::new();
    for (file, body) in render_all() {
        let path = dir.join(file);
        if bless {
            std::fs::create_dir_all(&dir).expect("create the golden dir");
            std::fs::write(&path, &body).expect("write a golden");
            continue;
        }
        let golden =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        if golden != body {
            differ.push(file);
        }
    }
    assert!(
        differ.is_empty(),
        "routes differ from their goldens: {differ:?} (see {})",
        dir.display()
    );
}

#[test]
fn the_masking_touches_only_the_volatile_series() {
    let body = "{\n  \"uptime_ms\": 1234,\n  \"ticks\": 56,\n  \"t_ms\": 7\n}\n";
    assert_eq!(
        mask(body),
        "{\n  \"uptime_ms\": 0,\n  \"ticks\": 56,\n  \"t_ms\": 0\n}\n"
    );
}
