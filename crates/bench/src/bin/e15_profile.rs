//! E15 — continuous profiling: harvester losslessness and causal
//! (what-if) bottleneck ranking.
//!
//! Three phases, each with a hard assertion (the binary exits nonzero
//! on violation, so CI can gate on it):
//!
//! 1. **Drops without harvest** — a burst workload overflows every
//!    per-thread probe ring several times with no consumer: the drop
//!    gauge must go nonzero. This is the control showing the rings
//!    really do lose history on their own.
//! 2. **Losslessness under harvest** — the same volume (≥ 10x ring
//!    capacity per thread), paced, with a [`cso_profile::Harvester`]
//!    draining on a 2 ms cadence: the drop gauge must read 0 and the
//!    aggregator must ingest **exactly** the emitted-event delta — the
//!    stream is complete, not merely mostly-complete. The live span
//!    aggregate is printed.
//! 3. **Causal ranking** — a forced-slow workload
//!    ([`CsConfig::without_fast_path`]) makes the §4.4 lock the known
//!    throughput bound. The causal scanner virtually speeds up each
//!    probe-site class in turn; the two lock classes (`flag-wait`,
//!    whose `lock-acquire` probe sits inside the tenure, and
//!    `lock-handoff`, whose `lock-release` probe does too) must occupy
//!    the top two ranks, and each must strictly outrank `cas-retry`
//!    and `combining` (which the workload barely exercises).
//!
//! Requires `--features trace` (the probe rings are the subject under
//! test).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cso_core::CsConfig;
use cso_locks::TasLock;
use cso_profile::causal::{scan, CausalConfig};
use cso_profile::{Harvester, LiveAggregator};
use cso_stack::CsStack;
use cso_trace::probe;
use cso_trace::SiteClass;

/// Worker threads (each gets its own probe ring).
const THREADS: usize = 4;

/// Mirrors `cso-trace`'s per-thread ring capacity (not exported; the
/// losslessness claim only needs a lower bound, so a stale value here
/// would weaken the test, not break it).
const RING_CAPACITY: u64 = 4096;

/// How many times over each ring must overflow in the harvested phase.
const OVERFLOW_FACTOR: u64 = 10;

fn stack(config: CsConfig) -> Arc<CsStack<u32>> {
    let s = Arc::new(CsStack::with_config(
        65_000,
        TasLock::new(),
        THREADS,
        config,
    ));
    for i in 0..16_384 {
        let _ = s.push(0, i);
    }
    s
}

/// Runs `ops` alternating push/pop on `proc`'s behalf. `paced` sleeps
/// 1 ms every 32 ops, bounding the burst any ring sees between harvest
/// passes (and yielding the CPU so the harvester keeps its cadence on
/// a single-core box).
fn run_ops(stack: &CsStack<u32>, proc: usize, ops: u64, paced: bool) {
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
}

fn spawn_fixed(stack: &Arc<CsStack<u32>>, ops: u64, paced: bool) {
    let workers: Vec<_> = (0..THREADS)
        .map(|proc| {
            let stack = Arc::clone(stack);
            std::thread::spawn(move || run_ops(&stack, proc, ops, paced))
        })
        .collect();
    for w in workers {
        w.join().expect("worker");
    }
}

fn main() {
    println!("E15: continuous profiling — harvester losslessness + causal ranking");
    println!("({THREADS} threads, {RING_CAPACITY}-slot rings)\n");

    // ---- Phase 1: no harvester => the rings overwrite history. ----
    let s = stack(CsConfig::PAPER);
    probe::clear();
    // Unpaced burst, ~3x ring capacity of events per thread (a fast
    // op records at least attempt + completion).
    spawn_fixed(&s, 3 * RING_CAPACITY / 2, false);
    let unharvested_drops = probe::dropped();
    println!("phase 1 (no harvest): drop gauge = {unharvested_drops}");
    assert!(
        unharvested_drops > 0,
        "overflowing rings with no consumer must drop"
    );

    // ---- Phase 2: harvester on => the same rings become lossless. --
    probe::clear();
    let emitted_before = probe::emitted();
    let agg = Arc::new(LiveAggregator::new());
    let harvester = Harvester::start_with(Arc::clone(&agg), Duration::from_millis(2));
    // >= OVERFLOW_FACTOR x ring capacity of events per thread, paced.
    spawn_fixed(&s, OVERFLOW_FACTOR * RING_CAPACITY / 2, true);
    let agg = harvester.stop();
    let emitted = probe::emitted() - emitted_before;
    let harvested_drops = probe::dropped();
    let snap = agg.snapshot();
    println!(
        "phase 2 (harvest @2ms): emitted {emitted} events (~{}x ring capacity per thread), \
         ingested {}, lost {}, drop gauge = {harvested_drops}",
        emitted / (THREADS as u64 * RING_CAPACITY),
        agg.ingested(),
        snap.lost,
    );
    assert!(
        emitted >= THREADS as u64 * OVERFLOW_FACTOR * RING_CAPACITY,
        "phase 2 must overflow each ring >= {OVERFLOW_FACTOR}x (emitted {emitted})"
    );
    assert_eq!(harvested_drops, 0, "harvester kept pace: drop gauge is 0");
    assert_eq!(snap.lost, 0, "no harvest pass observed loss");
    assert_eq!(
        agg.ingested(),
        emitted,
        "every emitted event reached the aggregator exactly once"
    );
    assert!(snap.spans > 0, "the live aggregator reconstructed spans");
    println!("\nlive aggregate:\n{}", snap.render_text());

    // ---- Phase 3: causal ranking on a forced-slow workload. --------
    probe::clear();
    let slow = stack(CsConfig::PAPER.without_fast_path());
    let stop = Arc::new(AtomicBool::new(false));
    let ops = Arc::new(AtomicU64::new(0));
    let workers: Vec<_> = (0..THREADS)
        .map(|proc| {
            let slow = Arc::clone(&slow);
            let stop = Arc::clone(&stop);
            let ops = Arc::clone(&ops);
            std::thread::spawn(move || {
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
            })
        })
        .collect();
    let config = CausalConfig {
        window: Duration::from_millis(100),
        settle: Duration::from_millis(10),
        delay_ns: 20_000,
        rounds: 2,
    };
    let counter = Arc::clone(&ops);
    let report = scan(move || counter.load(Ordering::Relaxed), &config);
    stop.store(true, Ordering::Release);
    for w in workers {
        w.join().expect("worker");
    }
    println!("{}", report.render_text());
    let gain_of = |class: SiteClass| -> f64 {
        report
            .gains
            .iter()
            .find(|g| g.class == class)
            .map(|g| g.virtual_speedup(report.baseline_ops))
            .unwrap_or(0.0)
    };
    // The known bottleneck is the lock: both `lock-acquire` (class
    // flag-wait) and `lock-release` (class lock-handoff) are probed
    // inside the tenure, so those two classes carry the delays that
    // serialize everyone and must occupy the top of the ranking —
    // first place between them is a near-tie by construction.
    let lock_classes = [SiteClass::FlagWait, SiteClass::LockHandoff];
    assert!(
        lock_classes.contains(&report.bottleneck().expect("nonempty ranking")),
        "forced-slow workload: a lock class bounds throughput\n{}",
        report.render_text()
    );
    assert!(
        lock_classes.contains(&report.ranking()[1]),
        "both lock classes rank above the cold classes\n{}",
        report.render_text()
    );
    for lock_class in lock_classes {
        for cold_class in [SiteClass::CasRetry, SiteClass::Combining] {
            assert!(
                gain_of(lock_class) > gain_of(cold_class),
                "{} ({:+.3}) must outrank {} ({:+.3})",
                lock_class.name(),
                gain_of(lock_class),
                cold_class.name(),
                gain_of(cold_class),
            );
        }
    }
    probe::clear();

    println!("\nReading: phase 1 shows the rings genuinely lose history without a");
    println!("consumer; phase 2 shows the background harvester turns the same volume");
    println!("lossless (drop gauge 0, aggregator count == emitted count) while the");
    println!("span aggregate stays live. Phase 3 injects calibrated delays at every");
    println!("probe-site class except one and ranks the exclusions: on a workload");
    println!("where every operation waits for the lock, virtually speeding up the");
    println!("lock's own probe sites buys the most throughput — the causal profiler");
    println!("finds the bottleneck the workload was built around.");
}
