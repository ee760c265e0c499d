//! Scrape-under-load smoke: the metrics/profile endpoints must serve
//! consistent responses while worker threads hammer a contention-
//! sensitive stack. This is the integration seam the unit tests can't
//! cover — the HTTP server, the live aggregator, and the workload all
//! running at once.
//!
//! Works in every feature configuration: without `trace` the profile
//! endpoints serve empty-but-valid documents; with it they serve the
//! live aggregate. Either way every response must be 200 with a body
//! that parses.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cso::metrics::{Json, MetricsServer, Registry};
use cso::profile::{profile_routes, Harvester, LiveAggregator};
use cso::stack::CsStack;
use cso::watch::{watch_routes, Invariant, Watchdog};

fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let (head, body) = response.split_once("\r\n\r\n").expect("header terminator");
    (head.to_owned(), body.to_owned())
}

#[test]
fn scrapes_stay_consistent_while_workers_hammer_the_stack() {
    const WORKERS: usize = 8;
    const SCRAPES: usize = 20;

    let registry = Registry::new();
    let ops_counter = registry.counter("scrape_smoke_ops_total");
    let aggregator = Arc::new(LiveAggregator::new());
    let harvester = Harvester::start_with(Arc::clone(&aggregator), Duration::from_millis(2));
    // The watchdog rides along on the same port. Only loss-tolerant
    // invariants are armed: eight zero-think-time workers may out-emit
    // the harvester (see the conservation check at the bottom), and a
    // lossy event stream makes bypass counting approximate.
    let dog = Watchdog::builder()
        .invariant(Invariant::poison_free(&aggregator))
        .cadence(Duration::from_millis(5))
        .spawn();
    let server = MetricsServer::bind_with_routes(
        registry,
        "127.0.0.1:0",
        profile_routes(Arc::clone(&aggregator)).merge(watch_routes(&dog)),
    )
    .expect("bind scrape server");
    let addr = server.addr();

    let stack = Arc::new(CsStack::<u32>::new(65_000, WORKERS));
    for i in 0..4_096 {
        let _ = stack.push(0, i);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..WORKERS)
        .map(|proc| {
            let stack = Arc::clone(&stack);
            let stop = Arc::clone(&stop);
            let ops = ops_counter.clone();
            std::thread::spawn(move || {
                let mut i = 0u32;
                while !stop.load(Ordering::Acquire) {
                    if i % 2 == 0 {
                        let _ = stack.push(proc, i);
                    } else {
                        let _ = stack.pop(proc);
                    }
                    ops.inc();
                    i = i.wrapping_add(1);
                }
            })
        })
        .collect();

    // Interleave scrapes of every endpoint with the running workload.
    for round in 0..SCRAPES {
        let (head, body) = http_get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "round {round}: {head}");
        assert!(
            body.contains("scrape_smoke_ops_total"),
            "round {round}: workload counter missing from exposition"
        );

        let (head, body) = http_get(addr, "/spans.json");
        assert!(head.starts_with("HTTP/1.1 200"), "round {round}: {head}");
        assert!(head.contains("application/json"), "round {round}: {head}");
        let doc = Json::parse(&body)
            .unwrap_or_else(|e| panic!("round {round}: /spans.json unparseable: {e}\n{body}"));
        assert!(
            doc.get("harvest").is_some() && doc.get("spans").is_some(),
            "round {round}: snapshot shape"
        );

        let (head, body) = http_get(addr, "/profile");
        assert!(head.starts_with("HTTP/1.1 200"), "round {round}: {head}");
        assert!(body.contains("spans:"), "round {round}: {body}");

        let (head, _) = http_get(addr, "/flamegraph");
        assert!(head.starts_with("HTTP/1.1 200"), "round {round}: {head}");

        let (head, body) = http_get(addr, "/causal.json");
        assert!(head.starts_with("HTTP/1.1 200"), "round {round}: {head}");
        assert!(head.contains("application/json"), "round {round}: {head}");
        let doc = Json::parse(&body)
            .unwrap_or_else(|e| panic!("round {round}: /causal.json unparseable: {e}\n{body}"));
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("cso-causal v1"),
            "round {round}: causal schema"
        );

        let (head, body) = http_get(addr, "/health");
        assert!(head.starts_with("HTTP/1.1 200"), "round {round}: {head}");
        assert!(head.contains("application/json"), "round {round}: {head}");
        let doc = Json::parse(&body)
            .unwrap_or_else(|e| panic!("round {round}: /health unparseable: {e}\n{body}"));
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("cso-health v1"),
            "round {round}: health schema"
        );
        let status = doc.get("status").and_then(Json::as_str).unwrap_or("?");
        assert!(
            ["OK", "DEGRADED", "POISONED"].contains(&status),
            "round {round}: bogus health status {status:?}"
        );

        let (head, body) = http_get(addr, "/alerts.json");
        assert!(head.starts_with("HTTP/1.1 200"), "round {round}: {head}");
        let doc = Json::parse(&body)
            .unwrap_or_else(|e| panic!("round {round}: /alerts.json unparseable: {e}\n{body}"));
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("cso-alerts v1"),
            "round {round}: alerts schema"
        );
        assert!(
            doc.get("active").is_some_and(|a| a.as_arr().is_some()),
            "round {round}: alerts shape"
        );

        // Unknown routes keep 404-ing under load.
        let (head, _) = http_get(addr, "/definitely-not-a-route");
        assert!(head.starts_with("HTTP/1.1 404"), "round {round}: {head}");
    }

    stop.store(true, Ordering::Release);
    for w in workers {
        w.join().expect("worker");
    }
    let agg = harvester.stop();

    // The final snapshot is coherent. Eight zero-think-time workers on
    // however few cores the host has can out-emit any consumer, so
    // loss is legal here (losslessness under a *paced* workload is
    // E15's claim); what must hold is conservation — every emitted
    // event was either ingested or counted lost, never silently gone.
    let snap = agg.snapshot();
    assert_eq!(
        agg.ingested() + snap.lost,
        cso::trace::probe::emitted(),
        "conservation: ingested + lost == emitted"
    );
    if cso::trace::TRACE {
        assert!(snap.events_ingested > 0, "trace build: events flowed");
        assert!(snap.spans > 0, "trace build: spans reconstructed");
    }
    // No lock was poisoned, so the one armed invariant never fired:
    // the scrape storm produced zero alert transitions.
    assert_eq!(dog.status(), "OK", "{:?}", dog.alerts_json());
    assert_eq!(dog.transitions(), 0, "{:?}", dog.alerts_json());
    dog.stop();
    server.shutdown();
}
