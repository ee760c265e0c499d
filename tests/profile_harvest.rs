//! Continuous profiling on a real workload: four `CsStack` processes,
//! each recording into its own probe ring. The harvester, which arms
//! the probes while it runs, makes overflowing rings lossless.

use std::sync::Arc;
use std::time::Duration;

use cso::core::CsConfig;
use cso::locks::TasLock;
use cso::profile::{Harvester, LiveAggregator};
use cso::stack::CsStack;
use cso::trace::probe;

const THREADS: usize = 4;
/// `cso-trace`'s per-thread ring capacity (not exported; a stale value
/// here weakens phase 2's lower bound, it cannot break it).
const RING_CAPACITY: u64 = 4096;
/// How many times over each ring must overflow in the harvested phase.
const OVERFLOW_FACTOR: u64 = 10;

fn stack() -> CsStack<u32> {
    let s = CsStack::with_config(65_000, TasLock::new(), THREADS, CsConfig::PAPER);
    for i in 0..16_384 {
        let _ = s.push(0, i);
    }
    s
}

/// `ops` alternating push/pop per process, calling `pace` after each.
fn run_ops(stack: &CsStack<u32>, ops: u64, pace: &(dyn Fn() + Sync)) {
    std::thread::scope(|s| {
        for proc in 0..THREADS {
            s.spawn(move || {
                for i in 0..ops {
                    if i % 2 == 0 {
                        let _ = stack.push(proc, i as u32);
                    } else {
                        let _ = stack.pop(proc);
                    }
                    pace();
                }
            });
        }
    });
}

/// With no consumer, an unpaced burst of about three ring capacities
/// per thread shows on the drop gauge: the rings lose history on their
/// own. The same rings drained by a `Harvester` on a 2 ms cadence,
/// under a workload ten ring capacities long, drop nothing, and the
/// aggregator ingests *exactly* the events emitted. The workers are
/// paced by back-pressure, not by the clock: each waits while more
/// than half a ring's worth of events is emitted but not yet ingested,
/// so no ring can fill between harvest passes however the host
/// schedules the harvester.
#[test]
fn a_harvester_makes_overflowing_rings_lossless() {
    let s = stack();

    // Recording with no consumer; a fast op records at least two
    // events.
    let recording = probe::Recording::start();
    probe::clear();
    run_ops(&s, 3 * RING_CAPACITY / 2, &|| {});
    drop(recording);
    assert!(probe::dropped() > 0, "unconsumed rings must drop");

    // The same volume tenfold, harvested.
    probe::clear();
    let emitted_before = probe::emitted();
    let agg = Arc::new(LiveAggregator::new());
    let harvester = Harvester::start_with(Arc::clone(&agg), Duration::from_millis(2));
    // Saturating: other workers emit between the two reads, so the
    // harvester may have ingested past this `emitted` snapshot.
    let backlog = || (probe::emitted() - emitted_before).saturating_sub(agg.ingested());
    run_ops(&s, OVERFLOW_FACTOR * RING_CAPACITY / 2, &|| {
        while backlog() > RING_CAPACITY / 2 {
            std::thread::yield_now();
        }
    });
    harvester.stop();
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
