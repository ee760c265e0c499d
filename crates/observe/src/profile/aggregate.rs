//! The live aggregator: harvested batches in, [`Snapshot`]s out.
//!
//! The analysis itself is [`crate::analyze::Fold`] — the same fold the
//! `cso-analyze` CLI feeds from a file; its module docs say what it
//! computes, what memory it holds (bounded by threads and processes,
//! never by run length) and what loss does to each consumer. What this
//! module adds is what only a running process has: a mutex so the
//! harvester can write while HTTP routes and the watchdog read, the
//! harvest batch count, the live probe drop gauge, and the
//! `cso_harvest_*` series that make harvester conservation checkable
//! from `/metrics`.

use std::sync::{Arc, Mutex, MutexGuard, Weak};

use cso_trace::probe::Harvested;
use cso_trace::Registry;

use crate::analyze::{Fold, Snapshot};

struct Live {
    fold: Fold,
    batches: u64,
    /// Where a newly truncated thread's gauge goes, and the aggregator
    /// that gauge reads.
    registry: Option<(Registry, Weak<LiveAggregator>)>,
}

/// The live aggregator. One instance per process; the harvester feeds
/// [`LiveAggregator::ingest`], the HTTP routes and the bench binary
/// read [`LiveAggregator::snapshot`].
pub struct LiveAggregator {
    inner: Mutex<Live>,
}

impl std::fmt::Debug for LiveAggregator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveAggregator").finish_non_exhaustive()
    }
}

impl Default for LiveAggregator {
    fn default() -> Self {
        LiveAggregator::new()
    }
}

/// Registers `thread`'s truncation gauge: a reader of the fold's total.
/// Like every reader the aggregator registers, it holds the aggregator
/// weakly — the aggregator keeps the registry, so a strong reader would
/// keep both alive for good — and reads 0 once it is gone.
fn truncation_gauge(registry: &Registry, agg: Weak<LiveAggregator>, thread: u32) {
    let name = format!("cso_harvest_truncated_events_thread_{thread}");
    registry.gauge_fn(&name, move || {
        agg.upgrade().map_or(0.0, |agg| {
            let total = agg.live().fold.truncated().find(|&(t, _)| t == thread);
            total.map_or(0.0, |(_, n)| n as f64)
        })
    });
}

impl LiveAggregator {
    /// An empty aggregator.
    #[must_use]
    pub fn new() -> LiveAggregator {
        LiveAggregator {
            inner: Mutex::new(Live {
                fold: Fold::new(),
                batches: 0,
                registry: None,
            }),
        }
    }

    /// Every update leaves the fold a valid fold of the events it has
    /// seen, so a reader may carry on past a writer that panicked.
    fn live(&self) -> MutexGuard<'_, Live> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Folds one harvested batch in. Batches must arrive in harvest
    /// order (the harvester is the single producer).
    pub fn ingest(&self, batch: &Harvested) {
        let mut live = self.live();
        let live = &mut *live;
        live.batches += 1;
        live.fold.ingest(&batch.events, &batch.truncated);
        if let Some((registry, agg)) = &live.registry {
            for &(thread, _) in &batch.truncated {
                truncation_gauge(registry, Weak::clone(agg), thread);
            }
        }
    }

    /// Publishes harvester conservation to `registry` and keeps it
    /// published:
    ///
    /// * `cso_harvest_ingested_total` / `cso_harvest_batches_total` /
    ///   `cso_harvest_lost_total` — counters, polled at scrape time, so
    ///   the conservation identity *ingested + lost + drop gauge =
    ///   emitted* is checkable from `/metrics` alone;
    /// * `cso_trace_ring_dropped` — the live probe drop gauge;
    /// * `cso_harvest_truncated_events_thread_<t>` — one gauge per
    ///   thread whose ring ever truncated, a reader of the fold's total
    ///   registered when that thread's first loss is harvested (threads
    ///   with lossless rings get no series).
    pub fn register_metrics(self: &Arc<Self>, registry: &Registry) {
        for (name, read) in [
            (
                "cso_harvest_ingested_total",
                (|l: &Live| l.fold.ingested()) as fn(&Live) -> u64,
            ),
            ("cso_harvest_batches_total", |l: &Live| l.batches),
            ("cso_harvest_lost_total", |l: &Live| l.fold.lost()),
        ] {
            let agg = Arc::downgrade(self);
            registry.counter_fn(name, move || {
                agg.upgrade().map_or(0, |agg| read(&agg.live()))
            });
        }
        registry.register_probe_drop_gauge();
        let mut live = self.live();
        // Backfill truncations harvested before the registry arrived.
        for (thread, _) in live.fold.truncated() {
            truncation_gauge(registry, Arc::downgrade(self), thread);
        }
        live.registry = Some((registry.clone(), Arc::downgrade(self)));
    }

    /// Total events ingested so far (the losslessness counter: equal
    /// to the emitted-count delta when no ring ever wrapped unread).
    #[must_use]
    pub fn ingested(&self) -> u64 {
        self.live().fold.ingested()
    }

    /// Takes a consistent snapshot of every aggregate. Snapshots are
    /// cheap (histogram summaries and small maps); the HTTP routes take
    /// one per request.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let live = self.live();
        Snapshot {
            batches: live.batches,
            dropped_gauge: cso_trace::probe::dropped(),
            ..live.fold.snapshot()
        }
    }

    /// The collapsed-stack accumulator rendered in flamegraph input
    /// format (`stack weight` lines, nanosecond weights).
    #[must_use]
    pub fn collapsed(&self) -> String {
        self.live().fold.collapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Json;
    use cso_trace::probe::{Event, TraceEvent};

    fn ev(seq: u64, thread: u32, wall_ns: u64, event: Event) -> TraceEvent {
        TraceEvent {
            thread,
            seq,
            wall_ns,
            event,
        }
    }

    fn batch(events: Vec<TraceEvent>) -> Harvested {
        Harvested {
            events,
            lost: 0,
            truncated: Vec::new(),
        }
    }

    #[test]
    fn aggregates_spans_across_batch_boundaries() {
        let agg = LiveAggregator::new();
        // One locked operation split across two harvest passes.
        agg.ingest(&batch(vec![
            ev(0, 0, 10, Event::FastAttempt),
            ev(1, 0, 20, Event::FastAbort),
            ev(2, 0, 30, Event::FlagRaise(0)),
        ]));
        agg.ingest(&batch(vec![
            ev(3, 0, 70, Event::LockAcquire(0)),
            ev(4, 0, 110, Event::LockedComplete),
            ev(5, 0, 120, Event::LockRelease(0)),
            ev(6, 1, 130, Event::FastAttempt),
            ev(7, 1, 140, Event::FastSuccess),
        ]));
        let snap = agg.snapshot();
        assert_eq!(snap.events_ingested, 8);
        assert_eq!(snap.batches, 2);
        assert_eq!(snap.spans, 2);
        assert_eq!(snap.malformed, 0);
        assert_eq!(snap.open, 0);
        assert_eq!(snap.tenures, 1);
        let locked = snap
            .per_path
            .iter()
            .find(|(l, _)| *l == "locked")
            .expect("locked path populated");
        assert_eq!(locked.1.count, 1);
        assert_eq!(snap.wait.count, 1);
        assert_eq!(snap.hold.count, 1);
        let flame = agg.collapsed();
        assert!(flame.contains("proc_0;locked;wait"), "{flame}");
        assert!(flame.contains("proc_0;locked;hold"), "{flame}");
        assert!(flame.contains("thread_1;fast"), "{flame}");
        // JSON snapshot round-trips.
        let json = snap.to_json();
        Json::parse(&json.render_pretty()).expect("valid JSON");
        assert!(snap.render_text().contains("spans: 2 completed"));
    }

    #[test]
    fn harvest_loss_desyncs_only_the_lossy_thread() {
        let agg = LiveAggregator::new();
        agg.ingest(&batch(vec![
            ev(0, 0, 10, Event::FastAttempt),
            ev(1, 1, 11, Event::FastAttempt),
            ev(2, 1, 12, Event::FastSuccess),
        ]));
        // Thread 0 lost events; its dangling completion is an orphan,
        // thread 1 keeps working normally.
        agg.ingest(&Harvested {
            events: vec![
                ev(10, 0, 50, Event::LockRelease(0)),
                ev(11, 1, 51, Event::FastAttempt),
                ev(12, 1, 52, Event::FastSuccess),
            ],
            lost: 7,
            truncated: vec![(0, 7)],
        });
        let snap = agg.snapshot();
        assert_eq!(snap.lost, 7);
        assert_eq!(snap.orphans, 1, "thread 0's dangling release is loss");
        assert_eq!(snap.malformed, 0);
        assert_eq!(snap.spans, 2, "thread 1 unaffected");
        // Thread 0 resynchronises on the next clean start.
        agg.ingest(&batch(vec![
            ev(20, 0, 60, Event::FastAttempt),
            ev(21, 0, 61, Event::FastSuccess),
        ]));
        assert_eq!(agg.snapshot().spans, 3);
    }

    #[test]
    fn convoy_and_stall_detection_fires_on_saturated_runs() {
        let agg = LiveAggregator::new();
        let mut events = Vec::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        // Two procs trade the lock back-to-back (gap 100ns < 1000ns)
        // for 40 tenures: a saturated run far longer than min_len.
        for i in 0..40u64 {
            let proc_id = (i % 2) as u32;
            let thread = proc_id;
            events.push(ev(seq, thread, now, Event::LockAcquire(proc_id)));
            seq += 1;
            now += 2_000;
            events.push(ev(seq, thread, now, Event::LockedComplete));
            seq += 1;
            events.push(ev(seq, thread, now + 1, Event::LockRelease(proc_id)));
            seq += 1;
            now += 100; // handoff gap, under GAP_NS
        }
        agg.ingest(&batch(events));
        let snap = agg.snapshot();
        assert_eq!(snap.tenures, 40);
        assert!(snap.convoys >= 1, "saturated run detected: {snap:?}");
        assert!(snap.longest_convoy_run >= 30);
        assert_eq!(snap.stalls, 0);

        // A combining tenure 100x the median hold with a tiny batch
        // stalls.
        let agg = LiveAggregator::new();
        let mut events = Vec::new();
        let mut seq = 0;
        let mut now = 0;
        for _ in 0..10 {
            events.push(ev(seq, 0, now, Event::LockAcquire(0)));
            seq += 1;
            now += 1_000;
            events.push(ev(seq, 0, now, Event::LockRelease(0)));
            seq += 1;
            now += 10_000; // idle gap: no convoy
        }
        events.push(ev(seq, 0, now, Event::LockAcquire(0)));
        seq += 1;
        events.push(ev(seq, 0, now + 1, Event::CombineBatch(2)));
        seq += 1;
        now += 400_000;
        events.push(ev(seq, 0, now, Event::LockRelease(0)));
        agg.ingest(&batch(events));
        let snap = agg.snapshot();
        assert_eq!(snap.stalls, 1, "{snap:?}");
        assert_eq!(snap.convoys, 0);
    }

    /// The readers a registry keeps do not keep the aggregator: once
    /// both are dropped, nothing of either is left.
    #[test]
    fn a_registered_aggregator_is_freed_with_its_registry() {
        let agg = std::sync::Arc::new(LiveAggregator::new());
        let reg = Registry::new();
        agg.register_metrics(&reg);
        agg.ingest(&Harvested {
            events: Vec::new(),
            lost: 2,
            truncated: vec![(4, 2)],
        });
        let weak = std::sync::Arc::downgrade(&agg);
        drop(agg);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("cso_harvest_lost_total"), Some(0));
        assert_eq!(
            snap.gauge("cso_harvest_truncated_events_thread_4"),
            Some(0.0)
        );
        drop(reg);
        assert!(
            weak.upgrade().is_none(),
            "the aggregator outlived both handles"
        );
    }

    #[test]
    fn harvest_conservation_is_published_to_a_registry() {
        let agg = std::sync::Arc::new(LiveAggregator::new());
        let reg = Registry::new();
        agg.register_metrics(&reg);
        agg.ingest(&Harvested {
            events: vec![
                ev(0, 0, 1, Event::FastAttempt),
                ev(1, 0, 2, Event::FastSuccess),
            ],
            lost: 5,
            truncated: vec![(0, 5)],
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counter("cso_harvest_ingested_total"), Some(2));
        assert_eq!(snap.counter("cso_harvest_batches_total"), Some(1));
        assert_eq!(snap.counter("cso_harvest_lost_total"), Some(5));
        assert_eq!(
            snap.gauge("cso_harvest_truncated_events_thread_0"),
            Some(5.0)
        );
        assert!(snap.gauge("cso_trace_ring_dropped") >= Some(0.0));
        assert_eq!(agg.snapshot().truncated_threads, vec![(0, 5)]);

        // A second truncated batch on the same thread: the gauge reads
        // the fold's new total.
        agg.ingest(&Harvested {
            events: Vec::new(),
            lost: 3,
            truncated: vec![(0, 3)],
        });
        let truncated = reg
            .snapshot()
            .gauge("cso_harvest_truncated_events_thread_0");
        assert_eq!(truncated, Some(8.0));

        // Late binding backfills truncations already harvested.
        let late = Registry::new();
        agg.register_metrics(&late);
        let backfilled = late
            .snapshot()
            .gauge("cso_harvest_truncated_events_thread_0");
        assert_eq!(backfilled, Some(8.0));
    }

    #[test]
    fn causal_edges_and_bypass_fold_into_the_snapshot() {
        let agg = LiveAggregator::new();
        agg.ingest(&batch(vec![
            // Proc 0 flags, proc 1 acquires twice before proc 0 gets
            // in: a closed interval with 2 bypasses.
            ev(0, 0, 10, Event::FlagRaise(0)),
            ev(1, 1, 11, Event::FlagRaise(1)),
            ev(2, 1, 12, Event::LockAcquire(1)),
            ev(3, 1, 13, Event::LockedComplete),
            ev(4, 1, 14, Event::LockRelease(1)),
            ev(5, 1, 15, Event::FlagRaise(1)),
            ev(6, 1, 16, Event::LockAcquire(1)),
            ev(7, 1, 17, Event::LockedComplete),
            ev(8, 1, 18, Event::LockRelease(1)),
            ev(9, 0, 20, Event::LockAcquire(0)),
            ev(10, 0, 21, Event::LockedComplete),
            ev(11, 0, 22, Event::LockRelease(0)),
            // A combined op on thread 2, served by thread 9's combiner.
            ev(12, 2, 30, Event::RecordPost),
            ev(13, 2, 40, Event::HelpedByCombiner(9)),
            ev(14, 2, 41, Event::CombinedComplete),
        ]));
        let snap = agg.snapshot();
        assert_eq!(snap.max_bypass, 2);
        assert_eq!(snap.bypass_intervals, 3);
        assert_eq!(snap.bypass_open, 0);
        assert_eq!(snap.procs, 2);
        assert_eq!(snap.causal.combined, (1, 1));
        assert_eq!(snap.causal.attributed(), 1);
        assert!((snap.causal.attribution() - 1.0).abs() < f64::EPSILON);
        let edge = snap.causal.edges[0];
        assert_eq!((edge.helper, edge.owner, edge.count), (9, 2, 1));
        let text = snap.render_text();
        assert!(
            text.contains("bypass: max 2 over 3 closed interval(s)"),
            "{text}"
        );
        assert!(text.contains("causal: 1 op(s) attributed"), "{text}");
        Json::parse(&snap.to_json().render_pretty()).expect("valid JSON");
        Json::parse(&snap.causal.to_json().render_pretty()).expect("valid causal JSON");
    }

    #[test]
    fn empty_aggregator_serves_empty_but_valid_output() {
        let agg = LiveAggregator::new();
        let snap = agg.snapshot();
        assert_eq!(snap.events_ingested, 0);
        assert_eq!(snap.spans, 0);
        assert!(snap.per_path.is_empty());
        Json::parse(&snap.to_json().render_pretty()).expect("valid JSON");
        assert_eq!(agg.collapsed(), "");
        assert_eq!(agg.ingested(), 0);
    }
}
