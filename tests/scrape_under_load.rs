//! The live surface over real HTTP: the metrics, profile and watch
//! endpoints of one server, scraped while worker threads hammer a
//! contention-sensitive stack. This is the integration seam the unit
//! tests can't cover — the HTTP server, the live aggregator, the
//! watchdog and the workload all running at once.
//!
//! Works in every feature configuration: without `trace` the profile
//! endpoints serve empty-but-valid documents; with it they serve the
//! live aggregate. Either way every response must be 200 with a body
//! that parses.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use cso::core::CsConfig;
use cso::locks::TasLock;
use cso::metrics::prom::validate_prometheus;
use cso::metrics::{Json, MetricsServer, PeriodicDump, Registry};
use cso::profile::{profile_routes, Harvester, LiveAggregator};
use cso::stack::CsStack;
use cso::trace::probe;
use cso::watch::{watch_routes, Invariant, SloSpec, Watchdog, WatchdogBuilder};

// The probe rings and their harvest watermark are process-global: one
// harvester at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// One live surface: a harvester feeding an aggregator, the watchdog
/// `arm` builds over it, and one server with every route, all
/// registered on one registry.
struct Surface {
    harvester: Harvester,
    dog: Watchdog,
    server: MetricsServer,
}

impl Surface {
    fn start(
        registry: &Registry,
        arm: impl FnOnce(WatchdogBuilder, &Arc<LiveAggregator>) -> WatchdogBuilder,
    ) -> Surface {
        registry.register_build_info();
        let harvester =
            Harvester::start_with(Arc::new(LiveAggregator::new()), Duration::from_millis(2));
        let agg = harvester.aggregator();
        agg.register_metrics(registry);
        let builder = Watchdog::builder()
            .aggregator(Arc::clone(&agg))
            .registry(registry);
        let dog = arm(builder, &agg).spawn();
        let routes = profile_routes(agg).merge(watch_routes(&dog));
        let server = MetricsServer::bind_with_routes(registry.clone(), "127.0.0.1:0", routes)
            .expect("bind scrape server");
        Surface {
            harvester,
            dog,
            server,
        }
    }

    /// `GET path`: the response head and body.
    fn http_get(&self, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(self.server.addr()).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let (head, body) = response.split_once("\r\n\r\n").expect("header terminator");
        (head.to_owned(), body.to_owned())
    }

    /// `GET path`, which must answer 200.
    fn get_ok(&self, path: &str) -> (String, String) {
        let (head, body) = self.http_get(path);
        assert!(head.starts_with("HTTP/1.1 200"), "{path}: {head}");
        (head, body)
    }

    /// `GET path`, which must answer 200 with a JSON document whose
    /// `schema` is `schema`.
    fn get_json(&self, path: &str, schema: &str) -> Json {
        let (head, body) = self.get_ok(path);
        assert!(head.contains("application/json"), "{path}: {head}");
        let doc = Json::parse(&body).unwrap_or_else(|e| panic!("{path} unparseable: {e}\n{body}"));
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(schema),
            "{path}"
        );
        doc
    }

    /// Stops everything; returns the aggregator, now complete.
    fn stop(self) -> Arc<LiveAggregator> {
        self.dog.stop();
        self.server.shutdown();
        self.harvester.stop()
    }
}

/// Runs `workers` threads of `op(proc, i)` while `main` runs on the
/// caller's thread, then stops them. Returns `main`'s result and the
/// number of operations completed.
fn under_load<R>(
    workers: usize,
    op: impl Fn(usize, u64) + Sync,
    main: impl FnOnce() -> R,
) -> (R, u64) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|proc| {
                let (op, stop) = (&op, &stop);
                s.spawn(move || {
                    let mut i = 0;
                    while !stop.load(Ordering::Acquire) {
                        op(proc, i);
                        i += 1;
                    }
                    i
                })
            })
            .collect();
        let result = main();
        stop.store(true, Ordering::Release);
        let ops = handles.into_iter().map(|h| h.join().expect("worker")).sum();
        (result, ops)
    })
}

/// Every endpoint, scraped while eight workers hammer a combining
/// stack; then the stack's attached series — scraped in both formats
/// and dumped to a file — must agree with its own telemetry.
#[test]
fn scrapes_stay_consistent_while_workers_hammer_the_stack() {
    const WORKERS: usize = 8;
    const SCRAPES: usize = 20;
    const PREFILL: u64 = 4_096;
    let _serial = serial();
    probe::clear();
    let emitted_before = probe::emitted();

    let registry = Registry::new();
    let ops_counter = registry.counter("scrape_smoke_ops_total");
    // Combining, so every path (fast, locked, combined) can fire.
    let config = CsConfig::COMBINING;
    let stack = CsStack::<u32>::with_config(65_000, TasLock::new(), WORKERS, config);
    stack.attach_metrics(&registry, "stack");
    let dump_path = std::env::temp_dir().join(format!("cso-scrape-{}.json", std::process::id()));
    let dump = PeriodicDump::spawn(
        registry.clone(),
        dump_path.clone(),
        Duration::from_millis(50),
    );
    // Only loss-tolerant invariants are armed: eight zero-think-time
    // workers may out-emit the harvester (see the conservation check
    // at the bottom), and a lossy event stream makes bypass counting
    // approximate.
    let surface = Surface::start(&registry, |dog, agg| {
        dog.invariant(Invariant::poison_free(agg))
            .cadence(Duration::from_millis(5))
    });

    for i in 0..PREFILL {
        let _ = stack.push(0, i as u32);
    }
    let hammer = |proc: usize, i: u64| {
        if i % 2 == 0 {
            let _ = stack.push(proc, i as u32);
        } else {
            let _ = stack.pop(proc);
        }
        ops_counter.inc();
    };
    // Interleave scrapes of every endpoint with the running workload.
    let ((), ops) = under_load(WORKERS, hammer, || {
        for round in 0..SCRAPES {
            let (_, body) = surface.get_ok("/metrics");
            assert!(
                body.contains("scrape_smoke_ops_total"),
                "round {round}: workload counter missing from exposition"
            );
            let doc = surface.get_json("/spans.json", "cso-profile-live v1");
            assert!(
                doc.get("harvest").is_some() && doc.get("spans").is_some(),
                "round {round}: snapshot shape"
            );
            let (_, body) = surface.get_ok("/profile");
            assert!(body.contains("spans:"), "round {round}: {body}");
            surface.get_ok("/flamegraph");
            surface.get_json("/causal.json", "cso-causal v1");
            let doc = surface.get_json("/health", "cso-health v1");
            let status = doc.get("status").and_then(Json::as_str).unwrap_or("?");
            assert!(
                ["OK", "DEGRADED", "POISONED"].contains(&status),
                "round {round}: bogus health status {status:?}"
            );
            let doc = surface.get_json("/alerts.json", "cso-alerts v1");
            assert!(
                doc.get("active").is_some_and(|a| a.as_arr().is_some()),
                "round {round}: alerts shape"
            );
            // Unknown routes keep 404-ing under load.
            let (head, _) = surface.http_get("/definitely-not-a-route");
            assert!(head.starts_with("HTTP/1.1 404"), "round {round}: {head}");
        }
    });

    // The Prometheus page of the quiesced stack: valid, names present.
    let (head, page) = surface.get_ok("/metrics");
    assert!(
        head.contains("text/plain; version=0.0.4"),
        "bad content type: {head}"
    );
    if let Err((line, text)) = validate_prometheus(&page) {
        panic!("malformed Prometheus exposition at line {line}: {text:?}");
    }
    let names = "stack_ops_fast_total stack_ops_locked_total stack_fast_aborts_total \
                 stack_lock_acquires_total stack_gate_abort_ewma stack_fast_ns";
    for name in names.split_whitespace() {
        assert!(page.contains(name), "scrape page is missing {name}");
    }
    // The JSON snapshot agrees with the object's own counters (the
    // workload has stopped, so the two reads race nothing), and every
    // operation, prefill included, is on exactly one path.
    let (_, body) = surface.get_ok("/metrics.json");
    let snapshot = Json::parse(&body).expect("JSON snapshot parses");
    let counter = |doc: &Json, name: &str| {
        let counters = doc.get("counters").expect("counters");
        counters.get(name).and_then(Json::as_u64)
    };
    let count = |name| counter(&snapshot, name).unwrap_or_else(|| panic!("no counter {name}"));
    let fast = count("stack_ops_fast_total");
    let locked = count("stack_ops_locked_total");
    let combined = count("stack_ops_combined_total");
    let stats = stack.path_stats();
    assert_eq!(fast, stats.fast, "fast-path counter drifted");
    assert_eq!(
        locked + combined,
        stats.locked,
        "locked + combined != locked"
    );
    assert_eq!(
        fast + locked + combined,
        PREFILL + ops,
        "an op off every path"
    );
    // The periodic dump: a final write on stop, parseable, same counts.
    dump.stop();
    let dumped = std::fs::read_to_string(&dump_path).expect("dump file exists");
    let _ = std::fs::remove_file(&dump_path);
    let dumped = Json::parse(&dumped).expect("dump file parses");
    let dumped_fast = counter(&dumped, "stack_ops_fast_total");
    assert_eq!(dumped_fast, Some(fast), "dump disagrees with the scrape");

    // No lock was poisoned, so the one armed invariant never fired:
    // the scrape storm produced zero alert transitions.
    let alerts = surface.dog.alerts_json();
    assert_eq!(surface.dog.status(), "OK", "{alerts:?}");
    assert_eq!(surface.dog.transitions(), 0, "{alerts:?}");
    let agg = surface.stop();

    // The final snapshot is coherent. Eight zero-think-time workers on
    // however few cores the host has can out-emit any consumer, so
    // loss is legal here (losslessness under a *paced* workload is
    // `tests/profile_harvest.rs`'s claim); what must hold is
    // conservation — every emitted event was either ingested or
    // counted lost, never silently gone.
    let snap = agg.snapshot();
    assert_eq!(
        agg.ingested() + snap.lost,
        probe::emitted() - emitted_before,
        "conservation: ingested + lost == emitted"
    );
    if cso::trace::TRACE {
        assert!(snap.events_ingested > 0, "trace build: events flowed");
        assert!(snap.spans > 0, "trace build: spans reconstructed");
    }
}

/// Shared op books the workload keeps and the watchdog samples.
#[derive(Default)]
struct Books {
    pushes: AtomicU64,
    pops: AtomicU64,
    size: AtomicI64,
}

/// The full watchdog — five invariants, an SLO, its gauges and routes —
/// armed beside a running workload: it keeps at least half the
/// throughput (a watchdog that serialized the workload or snapshotted
/// per operation would not), raises nothing on a clean run, and flags
/// a planted conservation leak within `DETECT_WITHIN`, over HTTP,
/// until the books balance again.
#[test]
fn an_armed_watchdog_is_cheap_silent_and_flags_a_planted_leak() {
    const THREADS: usize = 4;
    const WINDOW: Duration = Duration::from_millis(300);
    /// Armed throughput must stay above this fraction of disarmed.
    const NOISE_FLOOR: f64 = 0.5;
    /// The watchdog ticks every 25 ms and debounces 2 samples: ~20x slack.
    const DETECT_WITHIN: Duration = Duration::from_secs(2);
    const LEAK: u64 = 100; // far beyond the 4n slack
    let _serial = serial();

    let stack = CsStack::<u32>::new(65_000, THREADS);
    let books = Arc::new(Books::default());
    // Under `trace` the workload breathes 1 ms per 32 ops, so the 2 ms
    // harvester keeps every ring ahead of the probe stream (an unpaced
    // burst outruns any consumer, and that loss would be a true
    // alert). Without it the workload runs flat out: the configuration
    // whose armed/disarmed ratio isolates the watchdog.
    let window = || {
        let op = |proc: usize, i: u64| {
            if i % 2 == 0 {
                if stack.push(proc, proc as u32).is_pushed() {
                    books.pushes.fetch_add(1, Ordering::Relaxed);
                    books.size.fetch_add(1, Ordering::Relaxed);
                }
            } else if stack.pop(proc).is_popped() {
                books.pops.fetch_add(1, Ordering::Relaxed);
                books.size.fetch_sub(1, Ordering::Relaxed);
            }
            if cso::trace::TRACE && i % 32 == 31 {
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        under_load(THREADS, op, || std::thread::sleep(WINDOW)).1
    };

    let disarmed = window();
    // The disarmed window had no consumer, so under `trace` it wrapped
    // the rings; clear them so the first harvest books no loss.
    probe::clear();
    let registry = Registry::new();
    let surface = Surface::start(&registry, |dog, agg| {
        let (p, o, s) = (Arc::clone(&books), Arc::clone(&books), Arc::clone(&books));
        let conservation = Invariant::conservation(
            "conservation",
            4 * THREADS as u64,
            move || p.pushes.load(Ordering::Relaxed),
            move || o.pops.load(Ordering::Relaxed),
            move || s.size.load(Ordering::Relaxed),
        );
        let good = "fast,eliminated,locked,combined,combiner";
        let slo = format!("served budget=0.01 short=5s long=30s good={good}");
        dog.invariant(conservation)
            .invariant(Invariant::bypass_bound(agg))
            .invariant(Invariant::poison_free(agg))
            .invariant(Invariant::lossless_rings(agg))
            .invariant(Invariant::path_ceiling(agg, "fast", 1_000_000_000))
            .slos(SloSpec::parse(&slo).expect("spec parses"))
    });
    let armed = window();
    let ratio = armed as f64 / disarmed as f64;
    assert!(ratio >= NOISE_FLOOR, "armed/disarmed throughput {ratio:.3}");

    // The clean run raised nothing.
    std::thread::sleep(Duration::from_millis(100)); // a few quiesced ticks
    let dog = &surface.dog;
    let alerts = dog.alerts_json();
    assert_eq!(dog.status(), "OK", "{alerts:?}");
    assert_eq!(dog.transitions(), 0, "clean run flapped: {alerts:?}");

    let health = surface.get_json("/health", "cso-health v1");
    assert_eq!(health.get("status").and_then(Json::as_str), Some("OK"));
    let checks = health.get("checks").and_then(Json::as_arr).expect("checks");
    assert_eq!(checks.len(), 5, "all five armed checks are reported");
    let alerts = surface.get_json("/alerts.json", "cso-alerts v1");
    let active = alerts.get("active").and_then(Json::as_arr);
    assert_eq!(active.map(<[Json]>::len), Some(0));
    let causal = surface.get_json("/causal.json", "cso-causal v1");
    let coverage = causal.get("coverage").expect("coverage");
    let attribution = coverage.get("attribution").and_then(Json::as_f64);
    let attribution = attribution.expect("attribution");
    assert!((0.99..=1.0).contains(&attribution), "{attribution}");
    let (_, page) = surface.get_ok("/metrics");
    let names = "cso_watch_health cso_watch_conservation cso_watch_bypass_bound \
                 cso_watch_slo_served_firing cso_build_info cso_process_uptime_seconds \
                 cso_harvest_ingested_total";
    for name in names.split_whitespace() {
        assert!(page.contains(name), "scrape page is missing {name}");
    }

    // A planted leak flips health; repairing the books clears it.
    let within_detection = |what: &str, cond: &dyn Fn() -> bool| {
        let t0 = Instant::now();
        while !cond() {
            assert!(t0.elapsed() < DETECT_WITHIN, "{what}: too slow");
            std::thread::sleep(Duration::from_millis(5));
        }
    };
    books.pushes.fetch_add(LEAK, Ordering::Relaxed);
    within_detection("leak flagged", &|| dog.status() != "OK");
    assert_eq!(dog.status(), "DEGRADED");
    let health = surface.get_json("/health", "cso-health v1");
    let status = health.get("status").and_then(Json::as_str);
    assert_eq!(status, Some("DEGRADED"));
    let reasons = health.get("reasons").and_then(Json::as_arr);
    let leak = |r: &Json| r.as_str().is_some_and(|s| s.contains("conservation leak"));
    assert!(reasons.expect("reasons").iter().any(leak), "{health:?}");
    books.pushes.fetch_sub(LEAK, Ordering::Relaxed);
    within_detection("repair seen", &|| dog.status() == "OK");
    assert_eq!(dog.transitions(), 2, "one escalation + one recovery");
    surface.stop();
}
