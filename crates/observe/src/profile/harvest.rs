//! The background ring harvester.
//!
//! `cso-trace`'s per-thread rings hold 4096 events each; anything
//! older is overwritten and counted dropped. The
//! [`Harvester`] turns that bounded window into a lossless stream: a
//! background thread calls [`cso_trace::probe::harvest`] on a fixed
//! cadence, feeding each drained batch to a [`LiveAggregator`] *before*
//! the rings wrap. Harvested events are not drops — the drain advances
//! each ring's consumed watermark — so as long as
//!
//! ```text
//! per-thread event rate x cadence  <  RING_CAPACITY
//! ```
//!
//! the drop gauge reads 0 for the whole run, however long it is. The
//! default cadence (5 ms against 4096-slot rings) keeps up with ~800k
//! events/sec/thread, far above any real probe rate; the harvest pass
//! itself is a read of at most one ring's worth per thread, so overhead
//! scales with the event rate, not with run length.
//!
//! A running harvester is a reader of the rings, so it arms the probes
//! (a [`probe::Recording`]) for as long as it lives. Stopping it
//! performs one final drain, so the tail of the stream reaches the
//! aggregator too.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cso_trace::probe::{self, Recording};

use crate::profile::aggregate::LiveAggregator;

/// The default harvest cadence: comfortable margin against 4096-slot
/// rings at any plausible probe rate.
pub const DEFAULT_CADENCE: Duration = Duration::from_millis(5);

/// A background thread draining every probe ring into a
/// [`LiveAggregator`]. Dropping it stops the thread after one final
/// drain.
#[derive(Debug)]
pub struct Harvester {
    aggregator: Arc<LiveAggregator>,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
    /// Keeps the probes recording while the harvester lives.
    _recording: Recording,
}

impl Harvester {
    /// Starts harvesting into a fresh aggregator every
    /// [`DEFAULT_CADENCE`].
    #[must_use]
    pub fn start() -> Harvester {
        Harvester::start_with(Arc::new(LiveAggregator::new()), DEFAULT_CADENCE)
    }

    /// Starts harvesting into `aggregator` every `cadence`.
    ///
    /// The harvester is the rings' single consumer while it runs: a
    /// concurrent [`cso_trace::probe::collect`] only sees the
    /// not-yet-harvested tail. Run one harvester at a time.
    #[must_use]
    pub fn start_with(aggregator: Arc<LiveAggregator>, cadence: Duration) -> Harvester {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let agg = Arc::clone(&aggregator);
        let handle = std::thread::Builder::new()
            .name("cso-profile-harvest".to_owned())
            .spawn(move || loop {
                // Read the stop flag *before* draining, and only break
                // after a pass that began with it set. A pass already in
                // flight when stop lands may have read the ring heads
                // before the caller's final events were published;
                // treating it as the final drain would strand that tail
                // uncounted. The Acquire load pairs with the Release
                // store in `stop_and_join`, so a pass that observes the
                // flag also observes every event published before the
                // caller asked to stop.
                let stopping = stop_flag.load(Ordering::Acquire);
                let batch = probe::harvest();
                if !batch.events.is_empty() || batch.lost > 0 {
                    agg.ingest(&batch);
                }
                if stopping {
                    break;
                }
                std::thread::park_timeout(cadence);
            })
            .expect("spawn harvest thread");
        Harvester {
            aggregator,
            stop,
            handle: Some(handle),
            _recording: Recording::start(),
        }
    }

    /// The aggregator this harvester feeds (share it with
    /// [`crate::profile::profile_routes`] or read snapshots directly).
    #[must_use]
    pub fn aggregator(&self) -> Arc<LiveAggregator> {
        Arc::clone(&self.aggregator)
    }

    /// Stops the harvest thread after one final drain and returns the
    /// aggregator, now holding the complete stream.
    pub fn stop(mut self) -> Arc<LiveAggregator> {
        self.stop_and_join();
        Arc::clone(&self.aggregator)
    }

    fn stop_and_join(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.stop.store(true, Ordering::Release);
        handle.thread().unpark();
        let _ = handle.join();
    }
}

impl Drop for Harvester {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The probe rings have a single logical consumer: the tests that
    /// harvest them take turns.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
        SERIAL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn harvester_starts_and_stops_cleanly_without_traffic() {
        // A harvester is the rings' consumer while it runs: beside the
        // test below it would take events that one is counting.
        let _serial = serial();
        let harvester = Harvester::start();
        let agg = harvester.stop();
        // Other tests may have recorded — either way the harvester must
        // not hang or panic, and the aggregator must serve a snapshot.
        let _ = agg.snapshot();
    }

    #[test]
    fn harvester_makes_overflowing_rings_lossless() {
        // The global rings are process-wide: serialize against the
        // causal test via the shared lock.
        let _serial = serial();
        probe::clear();
        let before = probe::emitted();
        let agg = Arc::new(LiveAggregator::new());
        let harvester = Harvester::start_with(Arc::clone(&agg), Duration::from_millis(1));
        // Emit far more than one ring capacity. The emitter is paced
        // by the harvester itself, not by the clock: it waits while
        // more than half a ring (4096 slots) of its events is still
        // unread, so the ring cannot wrap however rarely the harvest
        // thread is scheduled — pinned to a single CPU included.
        let rounds = 64u64;
        let per_round = 1024u64; // rounds * per_round = 16x capacity
        for _ in 0..rounds {
            for _ in 0..per_round / 2 {
                cso_trace::probe!(cso_trace::Event::FastAttempt);
                cso_trace::probe!(cso_trace::Event::FastSuccess);
            }
            while probe::emitted() - before - agg.ingested() > 2048 {
                std::thread::yield_now();
            }
        }
        let agg = harvester.stop();
        let emitted = probe::emitted() - before;
        assert!(emitted >= rounds * per_round);
        assert_eq!(probe::dropped(), 0, "harvester kept pace: no drops");
        let snap = agg.snapshot();
        assert_eq!(snap.lost, 0);
        assert_eq!(
            agg.ingested(),
            emitted,
            "every emitted event reached the aggregator exactly once"
        );
        assert_eq!(snap.spans, rounds * per_round / 2);
        probe::clear();
    }
}
