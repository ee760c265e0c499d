//! Planted-violation mutation tests: the watchdog must flag a
//! structure carrying the Figure-1 help-after-CAS defect (modelled as
//! a conservation leak) and a §4.4 bypass-bound violation within a
//! bounded number of ticks — and raise **zero** alerts on a clean
//! concurrent workload.
//!
//! The offline twin of this test is `tests/model_mutation.rs` at the
//! workspace root, where the same mutant is killed by exhaustive
//! schedule exploration. Here the defect must be caught *online*,
//! from racy uncounted reads, without ever crying wolf.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cso_observe::profile::LiveAggregator;
use cso_observe::watch::{Invariant, Watchdog};
use cso_trace::probe::{self, Event, Harvested, TraceEvent};

/// Shared op counters a workload updates and the watchdog samples.
struct Books {
    pushes: AtomicU64,
    pops: AtomicU64,
    size: AtomicI64,
}

impl Books {
    fn new() -> Arc<Books> {
        Arc::new(Books {
            pushes: AtomicU64::new(0),
            pops: AtomicU64::new(0),
            size: AtomicI64::new(0),
        })
    }

    fn conservation(self: &Arc<Books>, slack: u64) -> Invariant {
        let (p, o, s) = (Arc::clone(self), Arc::clone(self), Arc::clone(self));
        Invariant::conservation(
            "conservation",
            slack,
            move || p.pushes.load(Ordering::Relaxed),
            move || o.pops.load(Ordering::Relaxed),
            move || s.size.load(Ordering::Relaxed),
        )
    }
}

/// The Figure-1 mutant moves the helping write after the decisive TOP
/// CAS, so a concurrent pop can return a value whose push never
/// landed: an operation is lost. Observable effect on the books: the
/// push counter advanced but the element never reached the structure,
/// so `pushes - pops` drifts away from `size` and stays drifted.
#[test]
fn the_conservation_mutant_is_flagged_degraded_within_bounded_ticks() {
    let books = Books::new();
    const DEBOUNCE: u32 = 2;
    let mut dog = Watchdog::builder()
        .invariant(books.conservation(4))
        .debounce(DEBOUNCE)
        .build();

    // Faithful phase: balanced books stay green.
    for i in 0..1_000u64 {
        books.pushes.fetch_add(1, Ordering::Relaxed);
        books.size.fetch_add(1, Ordering::Relaxed);
        if i % 2 == 0 {
            books.pops.fetch_add(1, Ordering::Relaxed);
            books.size.fetch_sub(1, Ordering::Relaxed);
        }
    }
    for _ in 0..5 {
        dog.tick();
    }
    assert_eq!(dog.status(), "OK", "faithful ordering raises nothing");
    assert_eq!(dog.transitions(), 0);

    // Mutant phase: ten pushes whose helping write was lost. The
    // counter moved, the structure did not.
    for _ in 0..10 {
        books.pushes.fetch_add(1, Ordering::Relaxed);
    }
    let mut ticks_to_detect = 0;
    while dog.status() == "OK" {
        assert!(
            ticks_to_detect <= DEBOUNCE + 1,
            "not detected within the debounce window"
        );
        dog.tick();
        ticks_to_detect += 1;
    }
    assert_eq!(dog.status(), "DEGRADED");
    let health = dog.health_json();
    let reasons = health.get("reasons").unwrap().as_arr().unwrap();
    assert_eq!(reasons.len(), 1);
    assert!(
        reasons[0].as_str().unwrap().contains("conservation leak"),
        "{health:?}"
    );
}

/// A §4.4 violation planted straight into the trace stream: proc 0
/// raises its FLAG, then proc 1 takes the lock three times before
/// proc 0 is admitted. With n = 2 the bound is n−1 = 1, so a max
/// bypass of 3 must degrade health.
#[test]
fn a_planted_bypass_violation_is_flagged_degraded() {
    let agg = Arc::new(LiveAggregator::new());
    let mut seq = 0;
    let mut mk = |thread: u32, event| {
        seq += 1;
        TraceEvent {
            thread,
            seq,
            wall_ns: seq * 10,
            event,
        }
    };
    let mut events = vec![mk(0, Event::FlagRaise(0))];
    for _ in 0..3 {
        events.push(mk(1, Event::FlagRaise(1)));
        events.push(mk(1, Event::LockAcquire(1)));
        events.push(mk(1, Event::LockRelease(1)));
    }
    events.push(mk(0, Event::LockAcquire(0)));
    events.push(mk(0, Event::LockRelease(0)));
    agg.ingest(&Harvested {
        events,
        lost: 0,
        truncated: Vec::new(),
    });

    let mut dog = Watchdog::builder()
        .invariant(Invariant::bypass_bound(&agg))
        .debounce(2)
        .build();
    dog.tick();
    assert_eq!(dog.status(), "OK", "first sample is debounced");
    dog.tick();
    assert_eq!(dog.status(), "DEGRADED");
    let alerts = dog.alerts_json();
    let active = alerts.get("active").unwrap().as_arr().unwrap();
    assert_eq!(active.len(), 1);
    assert!(
        active[0]
            .get("reason")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("bypass bound violated"),
        "{alerts:?}"
    );
}

/// The flip side of detection: a clean, genuinely concurrent workload
/// on the production contention-sensitive stack must produce zero
/// transitions — no false positives from racy reads, in-flight
/// operations, or scheduler noise.
#[test]
fn a_clean_concurrent_workload_raises_no_alerts() {
    use cso_stack::CsStack;

    const THREADS: usize = 4;
    const OPS: u64 = 5_000;

    let stack: Arc<CsStack<u32>> = Arc::new(CsStack::new(4096, THREADS));
    let books = Books::new();
    // With `trace` on, the workload emits real probes; a live
    // harvester must drain the rings or `lossless_rings` would —
    // correctly — flag the capture as lossy. Whether a 1 ms harvester
    // gets scheduled often enough is the host's business, so the
    // workers do not bet on it: each waits while the events emitted
    // since this point and not yet ingested exceed half a ring (4096
    // slots). No ring can then hold a full lap of unread events,
    // however the threads are scheduled — on one CPU as well. Without
    // `trace` both counts stay 0.
    const HALF_RING: u64 = 2048;
    probe::clear();
    let emitted_before = probe::emitted();
    let harvester = cso_observe::profile::Harvester::start_with(
        Arc::new(LiveAggregator::new()),
        Duration::from_millis(1),
    );
    let agg = harvester.aggregator();
    let dog = Watchdog::builder()
        .invariant(books.conservation(4 * THREADS as u64))
        .invariant(Invariant::bypass_bound(&agg))
        .invariant(Invariant::poison_free(&agg))
        .invariant(Invariant::lossless_rings(&agg))
        .cadence(Duration::from_millis(1))
        .debounce(2)
        .spawn();

    let workers: Vec<_> = (0..THREADS)
        .map(|proc| {
            let stack = Arc::clone(&stack);
            let books = Arc::clone(&books);
            let agg = Arc::clone(&agg);
            std::thread::spawn(move || {
                for i in 0..OPS {
                    // Every 16 operations is often enough: four workers
                    // emit a few hundred events between checks.
                    while i % 16 == 0
                        && (probe::emitted() - emitted_before).saturating_sub(agg.ingested())
                            > HALF_RING
                    {
                        std::thread::yield_now();
                    }
                    if i % 2 == 0 {
                        if stack.push(proc, i as u32).is_pushed() {
                            books.pushes.fetch_add(1, Ordering::Relaxed);
                            books.size.fetch_add(1, Ordering::Relaxed);
                        }
                    } else if stack.pop(proc).is_popped() {
                        books.pops.fetch_add(1, Ordering::Relaxed);
                        books.size.fetch_sub(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("worker");
    }
    // Let the watchdog observe the quiesced structure too.
    std::thread::sleep(Duration::from_millis(20));

    assert_eq!(dog.status(), "OK", "{:?}", dog.alerts_json());
    assert_eq!(
        dog.transitions(),
        0,
        "clean workload flapped: {:?}",
        dog.alerts_json()
    );
    let expected =
        books.pushes.load(Ordering::Relaxed) as i64 - books.pops.load(Ordering::Relaxed) as i64;
    assert_eq!(
        books.size.load(Ordering::Relaxed),
        expected,
        "the workload itself conserves"
    );
    dog.stop();
    let _ = harvester.stop();
}
