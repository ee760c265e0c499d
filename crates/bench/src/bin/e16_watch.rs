//! E16 — the watchdog overhead guard and live health surface.
//!
//! Four phases, each with a hard assertion (the binary exits nonzero
//! on violation, so CI can gate on it):
//!
//! 1. **Overhead guard** — the e3-style throughput workload runs
//!    twice: watchdog disarmed, then fully armed (all catalogue
//!    invariants, SLOs, gauges, HTTP surface, 25 ms cadence). The
//!    armed/disarmed throughput ratio must stay within a generous
//!    noise bound — runtime verification that taxes the object it
//!    verifies would never stay deployed.
//! 2. **Clean-run silence** — across the armed run the watchdog must
//!    report `OK` with **zero** transitions: no false alerts from
//!    racy reads, in-flight operations, or scheduler noise.
//! 3. **Live surface** — `/health`, `/alerts.json`, `/causal.json`
//!    and `/metrics` are scraped over real HTTP and validated:
//!    schemas, status fields, `cso_watch_*` and `cso_build_info`
//!    series.
//! 4. **Planted violation** — a conservation leak (the Figure-1
//!    help-after-CAS mutant's observable) is planted while the
//!    watchdog runs; it must flip `/health` to `DEGRADED` within a
//!    bounded window, and repairing the books must clear it again.
//!
//! Runs with or without `--features trace` — the aggregator-fed
//! checks see real probe data only under trace, the closure-fed ones
//! either way.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cso_bench::measure::timed_run;
use cso_bench::workload::{thread_rng, OpMix};
use cso_core::CsConfig;
use cso_locks::TasLock;
use cso_metrics::{Json, MetricsServer, Registry};
use cso_profile::{profile_routes, Harvester, LiveAggregator};
use cso_stack::CsStack;
use cso_watch::{watch_routes, Invariant, SloSpec, Watchdog};

const THREADS: usize = 4;
const WINDOW: Duration = Duration::from_millis(300);
/// Armed throughput must stay above this fraction of disarmed — a
/// deliberately loose bound so scheduler noise on a loaded CI box
/// cannot fail the build, while a watchdog that serialized the
/// workload (or snapshotted per-op) still would.
const NOISE_FLOOR: f64 = 0.5;
/// The planted leak must be flagged within this window (the watchdog
/// ticks every 25 ms and debounces 2 samples, so this is ~20x slack).
const DETECT_WITHIN: Duration = Duration::from_secs(2);

/// Shared op books the workload maintains and the watchdog samples.
struct Books {
    pushes: AtomicU64,
    pops: AtomicU64,
    size: AtomicI64,
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to endpoint");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: e16\r\n\r\n").expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header terminator");
    (head.to_owned(), body.to_owned())
}

/// One measurement window. Under `trace` the workload paces itself
/// like e15's lossless phase (1 ms breath per 32 ops) so the 2 ms
/// harvester provably keeps every ring ahead of the probe stream —
/// an unpaced 4-thread burst outruns *any* consumer (e15 phase 1),
/// and the resulting loss would be a true alert, not a false one.
/// Without `trace` the workload runs flat out, which is the config
/// whose armed/disarmed ratio isolates the watchdog machinery.
fn run_window(stack: &CsStack<u32>, books: &Books) -> u64 {
    let paced = cso_trace::TRACE;
    timed_run(THREADS, WINDOW, |thread, stop| {
        let mut rng = thread_rng(thread, 0xE16);
        let mut ops = 0u64;
        while !stop.load(Ordering::Relaxed) {
            if OpMix::BALANCED.next_is_push(&mut rng) {
                if stack.push(thread, thread as u32).is_pushed() {
                    books.pushes.fetch_add(1, Ordering::Relaxed);
                    books.size.fetch_add(1, Ordering::Relaxed);
                }
            } else if stack.pop(thread).is_popped() {
                books.pops.fetch_add(1, Ordering::Relaxed);
                books.size.fetch_sub(1, Ordering::Relaxed);
            }
            ops += 1;
            if paced && ops % 32 == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        ops
    })
    .total_ops()
}

fn main() {
    println!("E16: watchdog overhead guard + live health surface");
    println!("({THREADS} threads, {WINDOW:?} windows, noise floor {NOISE_FLOOR})\n");

    let stack: Arc<CsStack<u32>> = Arc::new(CsStack::with_config(
        65_000,
        TasLock::new(),
        THREADS,
        CsConfig::PAPER,
    ));
    let books = Arc::new(Books {
        pushes: AtomicU64::new(0),
        pops: AtomicU64::new(0),
        size: AtomicI64::new(0),
    });

    // ---- Phase 1a: disarmed baseline. ------------------------------
    let disarmed_ops = run_window(&stack, &books);
    println!(
        "phase 1 (disarmed): {disarmed_ops} ops ({:.0} ops/s)",
        disarmed_ops as f64 / WINDOW.as_secs_f64()
    );

    // ---- Arm everything: harvester, watchdog, registry, HTTP. ------
    // The disarmed window ran with no consumer, so under `trace` its
    // probe stream wrapped the rings; clear them so the first harvest
    // does not book that backlog as capture loss.
    cso_trace::probe::clear();
    let registry = Registry::new();
    registry.register_build_info();
    let harvester =
        Harvester::start_with(Arc::new(LiveAggregator::new()), Duration::from_millis(2));
    let agg = harvester.aggregator();
    agg.register_metrics(&registry);
    let conservation = {
        let (p, o, s) = (Arc::clone(&books), Arc::clone(&books), Arc::clone(&books));
        Invariant::conservation(
            "conservation",
            4 * THREADS as u64,
            move || p.pushes.load(Ordering::Relaxed),
            move || o.pops.load(Ordering::Relaxed),
            move || s.size.load(Ordering::Relaxed),
        )
    };
    let specs = SloSpec::parse(
        "served budget=0.01 short=5s long=30s good=fast,eliminated,locked,combined,combiner",
    )
    .expect("spec parses");
    let dog = Watchdog::builder()
        .invariant(conservation)
        .invariant(Invariant::bypass_bound(&agg))
        .invariant(Invariant::poison_free(&agg))
        .invariant(Invariant::lossless_rings(&agg))
        .invariant(Invariant::path_ceiling(&agg, "fast", 1_000_000_000))
        .slos(specs)
        .aggregator(Arc::clone(&agg))
        .registry(&registry)
        .spawn();
    let server = MetricsServer::bind_with_routes(
        registry.clone(),
        "127.0.0.1:0",
        profile_routes(Arc::clone(&agg)).merge(watch_routes(&dog)),
    )
    .expect("bind");
    println!(
        "armed: watchdog + harvester + http://{}/health",
        server.addr()
    );

    // ---- Phase 1b: armed run. --------------------------------------
    let armed_ops = run_window(&stack, &books);
    let ratio = armed_ops as f64 / disarmed_ops as f64;
    println!(
        "phase 1 (armed):    {armed_ops} ops ({:.0} ops/s) — ratio {ratio:.3}",
        armed_ops as f64 / WINDOW.as_secs_f64()
    );
    assert!(
        ratio >= NOISE_FLOOR,
        "armed watchdog cost {:.0}% throughput (floor {:.0}%)",
        (1.0 - ratio) * 100.0,
        (1.0 - NOISE_FLOOR) * 100.0
    );

    // ---- Phase 2: the clean run raised nothing. --------------------
    std::thread::sleep(Duration::from_millis(100)); // a few quiesced ticks
    assert_eq!(dog.status(), "OK", "{:?}", dog.alerts_json());
    assert_eq!(
        dog.transitions(),
        0,
        "clean workload flapped: {:?}",
        dog.alerts_json()
    );
    println!("phase 2: clean run, 0 transitions, status OK");

    // ---- Phase 3: the live surface, over real HTTP. ----------------
    let (head, body) = http_get(server.addr(), "/health");
    assert!(head.starts_with("HTTP/1.1 200"), "bad status: {head}");
    let health = Json::parse(&body).expect("/health parses");
    assert_eq!(
        health.get("schema").and_then(Json::as_str),
        Some("cso-health v1")
    );
    assert_eq!(health.get("status").and_then(Json::as_str), Some("OK"));
    let checks = health.get("checks").and_then(Json::as_arr).expect("checks");
    assert_eq!(checks.len(), 5, "all five armed checks are reported");

    let (head, body) = http_get(server.addr(), "/alerts.json");
    assert!(head.starts_with("HTTP/1.1 200"), "bad status: {head}");
    let alerts = Json::parse(&body).expect("/alerts.json parses");
    assert_eq!(
        alerts.get("schema").and_then(Json::as_str),
        Some("cso-alerts v1")
    );
    assert_eq!(
        alerts
            .get("active")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(0)
    );

    let (head, body) = http_get(server.addr(), "/causal.json");
    assert!(head.starts_with("HTTP/1.1 200"), "bad status: {head}");
    let causal = Json::parse(&body).expect("/causal.json parses");
    assert_eq!(
        causal.get("schema").and_then(Json::as_str),
        Some("cso-causal v1")
    );
    let attribution = causal
        .get("coverage")
        .and_then(|c| c.get("attribution"))
        .and_then(Json::as_f64)
        .expect("attribution");
    assert!(
        (0.99..=1.0).contains(&attribution),
        "attribution {attribution}"
    );

    let (head, page) = http_get(server.addr(), "/metrics");
    assert!(head.starts_with("HTTP/1.1 200"), "bad status: {head}");
    for name in [
        "cso_watch_health",
        "cso_watch_conservation",
        "cso_watch_bypass_bound",
        "cso_watch_slo_served_firing",
        "cso_build_info",
        "cso_process_uptime_seconds",
        "cso_harvest_ingested_total",
    ] {
        assert!(page.contains(name), "scrape page is missing {name}");
    }
    println!("phase 3: /health /alerts.json /causal.json /metrics all validated");
    println!("         causal attribution {attribution:.4}");

    // ---- Phase 4: a planted leak flips health, repair clears it. ---
    const LEAK: u64 = 100; // far beyond the 4n slack
    books.pushes.fetch_add(LEAK, Ordering::Relaxed);
    let planted = Instant::now();
    while dog.status() == "OK" {
        assert!(
            planted.elapsed() < DETECT_WITHIN,
            "leak not flagged within {DETECT_WITHIN:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let detect_ms = planted.elapsed().as_millis() as u64;
    assert_eq!(dog.status(), "DEGRADED");
    let (_, body) = http_get(server.addr(), "/health");
    let health = Json::parse(&body).expect("/health parses");
    assert_eq!(
        health.get("status").and_then(Json::as_str),
        Some("DEGRADED")
    );
    let reasons = health
        .get("reasons")
        .and_then(Json::as_arr)
        .expect("reasons");
    assert!(
        reasons
            .iter()
            .any(|r| r.as_str().is_some_and(|s| s.contains("conservation leak"))),
        "{body}"
    );
    println!("phase 4: planted {LEAK}-op leak flagged DEGRADED in {detect_ms} ms");

    // Repair the books: the next clean sample recovers immediately.
    books.pushes.fetch_sub(LEAK, Ordering::Relaxed);
    let repaired = Instant::now();
    while dog.status() != "OK" {
        assert!(
            repaired.elapsed() < DETECT_WITHIN,
            "repair not recognized within {DETECT_WITHIN:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(dog.transitions(), 2, "one escalation + one recovery");
    println!(
        "phase 4: repair recovered to OK in {} ms",
        repaired.elapsed().as_millis()
    );

    dog.stop();
    server.shutdown();
    let _ = harvester.stop();

    println!("\nReading: arming the full watchdog (five invariants, an SLO engine,");
    println!("gauges, and the HTTP surface) costs throughput within scheduler noise —");
    println!("the checks sample uncounted atomics and debounce, they never lock the");
    println!("structures. The same configuration that stays silent across a clean");
    println!("concurrent run flags a planted conservation leak within a bounded");
    println!("window and clears the moment the books balance again.");
}
