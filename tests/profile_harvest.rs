//! Continuous profiling on a real workload (`--features trace`): four
//! `CsStack` processes, each recording into its own probe ring. The
//! harvester makes overflowing rings lossless, and the causal
//! (what-if) scan finds the bottleneck the workload was built around.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use cso::core::CsConfig;
use cso::locks::TasLock;
use cso::profile::causal::{scan, CausalConfig};
use cso::profile::{Harvester, LiveAggregator};
use cso::stack::CsStack;
use cso::trace::{probe, SiteClass};

const THREADS: usize = 4;
/// `cso-trace`'s per-thread ring capacity (not exported; a stale value
/// here weakens phase 2's lower bound, it cannot break it).
const RING_CAPACITY: u64 = 4096;
/// How many times over each ring must overflow in the harvested phase.
const OVERFLOW_FACTOR: u64 = 10;

// The probe rings, their gauges and the harvest watermark are
// process-global.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn stack(config: CsConfig) -> CsStack<u32> {
    let s = CsStack::with_config(65_000, TasLock::new(), THREADS, config);
    for i in 0..16_384 {
        let _ = s.push(0, i);
    }
    s
}

/// `ops` alternating push/pop per process. `paced` sleeps 1 ms every
/// 32 operations, bounding the burst a ring sees between harvest
/// passes (and leaving the CPU to the harvester on a small host).
fn run_ops(stack: &CsStack<u32>, ops: u64, paced: bool) {
    std::thread::scope(|s| {
        for proc in 0..THREADS {
            s.spawn(move || {
                for i in 0..ops {
                    if i % 2 == 0 {
                        let _ = stack.push(proc, i as u32);
                    } else {
                        let _ = stack.pop(proc);
                    }
                    if paced && i % 32 == 31 {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            });
        }
    });
}

/// With no consumer, an unpaced burst of about three ring capacities
/// per thread shows on the drop gauge: the rings lose history on their
/// own. The same rings drained by a `Harvester` on a 2 ms cadence,
/// under a paced workload ten ring capacities long, drop nothing, and
/// the aggregator ingests *exactly* the events emitted.
#[test]
fn a_harvester_makes_overflowing_rings_lossless() {
    let _serial = serial();
    let s = stack(CsConfig::PAPER);

    // No consumer; a fast op records at least two events.
    probe::clear();
    run_ops(&s, 3 * RING_CAPACITY / 2, false);
    assert!(probe::dropped() > 0, "unconsumed rings must drop");

    // The same volume tenfold, harvested.
    probe::clear();
    let emitted_before = probe::emitted();
    let harvester =
        Harvester::start_with(Arc::new(LiveAggregator::new()), Duration::from_millis(2));
    run_ops(&s, OVERFLOW_FACTOR * RING_CAPACITY / 2, true);
    let agg = harvester.stop();
    let emitted = probe::emitted() - emitted_before;
    let snap = agg.snapshot();
    let floor = THREADS as u64 * OVERFLOW_FACTOR * RING_CAPACITY;
    assert!(emitted >= floor, "overflow < {OVERFLOW_FACTOR}x: {emitted}");
    assert_eq!(probe::dropped(), 0, "harvester kept pace: drop gauge is 0");
    assert_eq!(snap.lost, 0, "no harvest pass observed loss");
    assert_eq!(agg.ingested(), emitted, "every event ingested once");
    assert!(snap.spans > 0, "the live aggregator reconstructed spans");
    probe::clear();
}

/// On a forced-slow workload the §4.4 lock bounds throughput, so the
/// two lock classes (`flag-wait`, whose `lock-acquire` probe is inside
/// the tenure, and `lock-handoff`, whose `lock-release` probe is) rank
/// first and second, each strictly above `cas-retry` and `combining`.
/// Known flaky, as E15 was: `cas-retry`'s `helping-write` fires inside
/// the tenure too, and now and then takes second place (ROADMAP).
#[test]
fn the_causal_scan_ranks_the_lock_classes_first_on_a_forced_slow_workload() {
    let _serial = serial();
    probe::clear();
    let slow = stack(CsConfig::PAPER.without_fast_path());
    let stop = AtomicBool::new(false);
    let ops = AtomicU64::new(0);
    let report = std::thread::scope(|s| {
        for proc in 0..THREADS {
            let (slow, stop, ops) = (&slow, &stop, &ops);
            s.spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Acquire) {
                    if i % 2 == 0 {
                        let _ = slow.push(proc, i as u32);
                    } else {
                        let _ = slow.pop(proc);
                    }
                    ops.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            });
        }
        let config = CausalConfig {
            window: Duration::from_millis(100),
            settle: Duration::from_millis(10),
            delay_ns: 20_000,
            rounds: 2,
        };
        let report = scan(|| ops.load(Ordering::Relaxed), &config);
        stop.store(true, Ordering::Release);
        report
    });
    let text = report.render_text();
    let gain_of = |class: SiteClass| {
        report
            .gains
            .iter()
            .find(|g| g.class == class)
            .map_or(0.0, |g| g.virtual_speedup(report.baseline_ops))
    };
    // First place between the two lock classes is a near-tie by
    // construction; both must beat the cold classes.
    let lock_classes = [SiteClass::FlagWait, SiteClass::LockHandoff];
    let bottleneck = report.bottleneck().expect("nonempty ranking");
    assert!(lock_classes.contains(&bottleneck), "{text}");
    assert!(lock_classes.contains(&report.ranking()[1]), "{text}");
    for lock_class in lock_classes {
        for cold_class in [SiteClass::CasRetry, SiteClass::Combining] {
            assert!(
                gain_of(lock_class) > gain_of(cold_class),
                "{} must outrank {}\n{text}",
                lock_class.name(),
                cold_class.name(),
            );
        }
    }
    probe::clear();
}
