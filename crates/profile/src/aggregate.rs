//! The online span aggregator: harvested batches in, live bounded-
//! memory aggregates out.
//!
//! This is the streaming counterpart of `cso-analyze`'s post-mortem
//! pipeline, built from the same parts so the two cannot drift:
//!
//! * span reconstruction uses [`cso_analyze::spans::ThreadReplayer`] —
//!   the exact state machine `reconstruct` runs, fed incrementally
//!   (batch boundaries are invisible to the protocol);
//! * collapsed stacks use [`cso_analyze::collapse::add_span`], the
//!   same fold `cso-analyze collapse` renders;
//! * convoy and combiner-stall detection mirrors
//!   [`cso_analyze::convoy`]: tenures are paired from raw
//!   acquire/release events, a saturated run at least as long as the
//!   inferred process count is a convoy, and a combining tenure whose
//!   per-request cost exceeds 4x the median hold is a stall. The one
//!   concession to streaming is a small reorder buffer: harvested
//!   batches interleave threads slightly out of wall-clock order, so
//!   tenures sit in a 16-deep buffer sorted by start time before the
//!   run detector consumes them, and the median hold comes from the
//!   live histogram's p50 rather than an exact sort.
//!
//! Memory is bounded regardless of run length: histograms are
//! fixed-size log-bucketed arrays, counts are scalars, and the
//! collapsed-stack map is keyed by `proc x path x phase` (a few dozen
//! entries for any workload).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use cso_analyze::causal::{CausalAccumulator, CausalReport};
use cso_analyze::collapse;
use cso_analyze::log::Row;
use cso_analyze::spans::{Fed, RecoveryCounts, ThreadReplayer};
use cso_metrics::{Json, Registry};
use cso_trace::probe::{Harvested, TraceEvent};
use cso_trace::{HistSnapshot, LogHistogram};

/// Release-to-acquire gaps under this mean "the lock never went idle"
/// (mirrors `cso_analyze::convoy::DEFAULT_GAP_NS`).
const GAP_NS: u64 = 1_000;

/// A combining tenure stalls when its per-request cost exceeds this
/// multiple of the median hold (mirrors `cso_analyze::convoy`).
const STALL_FACTOR: u64 = 4;

/// Tenures buffered (sorted by start time) before the convoy run
/// detector consumes them, absorbing cross-thread arrival skew.
const REORDER_DEPTH: usize = 16;

/// The stable path order for reports.
const PATHS: [&str; 5] = ["fast", "eliminated", "locked", "combined", "combiner"];

#[derive(Debug, Clone, Copy)]
struct Tenure {
    start_ns: u64,
    end_ns: u64,
    proc_id: u32,
}

/// Streaming convoy detection over closed tenures.
#[derive(Debug, Default)]
struct ConvoyTracker {
    pending: Vec<Tenure>,
    last_end_ns: Option<u64>,
    run_len: usize,
    run_procs: Vec<u32>,
    convoys: u64,
    longest_run: usize,
}

impl ConvoyTracker {
    fn push(&mut self, tenure: Tenure, min_len: usize) {
        self.pending.push(tenure);
        if self.pending.len() > REORDER_DEPTH {
            self.pending.sort_by_key(|t| t.start_ns);
            let drain: Vec<Tenure> = self.pending.drain(..REORDER_DEPTH / 2).collect();
            for t in drain {
                self.advance(t, min_len);
            }
        }
    }

    fn advance(&mut self, tenure: Tenure, min_len: usize) {
        let saturated = self
            .last_end_ns
            .is_some_and(|last| tenure.start_ns.saturating_sub(last) <= GAP_NS);
        if saturated {
            self.run_len += 1;
            if !self.run_procs.contains(&tenure.proc_id) {
                self.run_procs.push(tenure.proc_id);
            }
        } else {
            self.close_run(min_len);
            self.run_len = 1;
            self.run_procs = vec![tenure.proc_id];
        }
        self.last_end_ns = Some(tenure.end_ns.max(self.last_end_ns.unwrap_or(0)));
    }

    fn close_run(&mut self, min_len: usize) {
        if self.run_len >= min_len {
            self.convoys += 1;
        }
        self.longest_run = self.longest_run.max(self.run_len);
        self.run_len = 0;
        self.run_procs.clear();
    }

    /// Drains the reorder buffer and closes the current run (called on
    /// snapshot so a still-saturated lock shows up without waiting for
    /// an idle gap; the run state is restored conservatively by the
    /// next push starting a fresh run).
    fn flush(&mut self, min_len: usize) -> (u64, usize) {
        self.pending.sort_by_key(|t| t.start_ns);
        let drain: Vec<Tenure> = self.pending.drain(..).collect();
        for t in drain {
            self.advance(t, min_len);
        }
        let longest_with_open = self.longest_run.max(self.run_len);
        let convoys_with_open = self.convoys + u64::from(self.run_len >= min_len);
        (convoys_with_open, longest_with_open)
    }
}

struct AggState {
    replayers: BTreeMap<u32, ThreadReplayer>,
    truncated_at_start: Vec<u32>,
    events_ingested: u64,
    batches: u64,
    lost: u64,
    spans: u64,
    malformed: u64,
    orphans: u64,
    path_hists: BTreeMap<&'static str, LogHistogram>,
    wait_hist: LogHistogram,
    hold_hist: LogHistogram,
    tenures: u64,
    stalls: u64,
    convoy: ConvoyTracker,
    open_tenures: BTreeMap<u32, (u64, Option<u64>, u32)>,
    max_proc: Option<u32>,
    event_counts: BTreeMap<String, u64>,
    stacks: BTreeMap<String, u64>,
    causal: CausalAccumulator,
    bypass: BypassTracker,
    truncated_counts: BTreeMap<u32, u64>,
    registry: Option<Registry>,
}

/// Streaming port of `cso_analyze::bypass`: each open `flag-raise(p)`
/// → `lock-acquire(p)` interval counts acquisitions by other
/// processes; the watchdog checks the running max against `n − 1`.
#[derive(Debug, Default)]
struct BypassTracker {
    open: BTreeMap<u32, u64>,
    max_bypass: u64,
    intervals: u64,
}

impl BypassTracker {
    fn on_flag_raise(&mut self, proc_id: u32) {
        self.open.entry(proc_id).or_insert(0);
    }

    fn on_lock_acquire(&mut self, proc_id: u32) {
        for (&waiter, bypasses) in &mut self.open {
            if waiter != proc_id {
                *bypasses += 1;
            }
        }
        if let Some(bypasses) = self.open.remove(&proc_id) {
            self.intervals += 1;
            self.max_bypass = self.max_bypass.max(bypasses);
        }
    }
}

impl AggState {
    fn new() -> AggState {
        AggState {
            replayers: BTreeMap::new(),
            truncated_at_start: Vec::new(),
            events_ingested: 0,
            batches: 0,
            lost: 0,
            spans: 0,
            malformed: 0,
            orphans: 0,
            path_hists: PATHS.iter().map(|&p| (p, LogHistogram::new())).collect(),
            wait_hist: LogHistogram::new(),
            hold_hist: LogHistogram::new(),
            tenures: 0,
            stalls: 0,
            convoy: ConvoyTracker::default(),
            open_tenures: BTreeMap::new(),
            max_proc: None,
            event_counts: BTreeMap::new(),
            stacks: BTreeMap::new(),
            causal: CausalAccumulator::default(),
            bypass: BypassTracker::default(),
            truncated_counts: BTreeMap::new(),
            registry: None,
        }
    }

    fn min_run_len(&self) -> usize {
        self.max_proc.map_or(2, |p| (p as usize + 1).max(2))
    }
}

/// One immutable view of everything the aggregator knows. Snapshots
/// are cheap (histogram copies + small maps); the HTTP routes take one
/// per request.
#[derive(Debug, Clone)]
pub struct ProfileSnapshot {
    /// Events ingested from harvested batches.
    pub events_ingested: u64,
    /// Harvest batches ingested.
    pub batches: u64,
    /// Events the harvester reported lost (overwritten unread).
    pub lost: u64,
    /// Completed spans.
    pub spans: u64,
    /// Operations in flight right now.
    pub open: u64,
    /// Protocol violations.
    pub malformed: u64,
    /// Events charged to truncation/loss gaps.
    pub orphans: u64,
    /// `(path label, duration histogram)` for each populated path.
    pub per_path: Vec<(&'static str, HistSnapshot)>,
    /// `flag-raise` → `lock-acquire` wait quantiles.
    pub wait: HistSnapshot,
    /// Lock tenure (hold) quantiles.
    pub hold: HistSnapshot,
    /// Closed lock tenures.
    pub tenures: u64,
    /// Saturated hand-off runs at least as long as the process count.
    pub convoys: u64,
    /// The longest saturated run seen.
    pub longest_convoy_run: u64,
    /// Combining tenures whose amortisation collapsed.
    pub stalls: u64,
    /// Crash-recovery annotations.
    pub recovery: RecoveryCounts,
    /// Event counts by label, descending.
    pub event_counts: Vec<(String, u64)>,
    /// The live probe drop gauge at snapshot time.
    pub dropped_gauge: u64,
    /// The cross-thread helped-by graph (`/causal.json`).
    pub causal: CausalReport,
    /// Worst §4.4 bypass count over closed flag→acquire intervals.
    pub max_bypass: u64,
    /// Closed flag→acquire intervals.
    pub bypass_intervals: u64,
    /// Flagged processes still waiting at snapshot time.
    pub bypass_open: u64,
    /// Distinct process ids seen (`max + 1`) — the `n` in the §4.4
    /// `n − 1` bound. 0 until a proc-carrying event arrives.
    pub procs: u64,
    /// `(thread, events lost)` per thread whose ring ever truncated.
    pub truncated_threads: Vec<(u32, u64)>,
}

/// The live aggregator. One instance per process; the harvester feeds
/// [`LiveAggregator::ingest`], the HTTP routes and the bench binary
/// read [`LiveAggregator::snapshot`].
pub struct LiveAggregator {
    inner: Mutex<AggState>,
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

impl LiveAggregator {
    /// An empty aggregator.
    #[must_use]
    pub fn new() -> LiveAggregator {
        LiveAggregator {
            inner: Mutex::new(AggState::new()),
        }
    }

    /// Folds one harvested batch in. Events must arrive in harvest
    /// order (the harvester is the single producer); per-thread
    /// sequence order within the batch is what the state machines
    /// consume.
    pub fn ingest(&self, batch: &Harvested) {
        let mut state = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let state = &mut *state;
        state.batches += 1;
        state.lost += batch.lost;
        // A thread that lost events mid-stream cannot trust its state
        // machine any more: desynchronise it so the gap's orphans are
        // charged to loss, and resync on the next clean span start.
        for &(thread, lost) in &batch.truncated {
            let total = state.truncated_counts.entry(thread).or_insert(0);
            *total += lost;
            if let Some(registry) = &state.registry {
                registry
                    .gauge(&format!("cso_harvest_truncated_events_thread_{thread}"))
                    .set(*total as f64);
            }
            match state.replayers.get_mut(&thread) {
                Some(replayer) => replayer.desync(),
                None => state.truncated_at_start.push(thread),
            }
        }
        for event in &batch.events {
            state.events_ingested += 1;
            let row = row_of(event);
            if let Some(p) = row.proc_id {
                state.max_proc = Some(state.max_proc.map_or(p, |m| m.max(p)));
            }
            *state.event_counts.entry(event.event.label()).or_insert(0) += 1;
            track_tenure(state, &row);
            let truncated = state.truncated_at_start.contains(&row.thread);
            let replayer = state
                .replayers
                .entry(row.thread)
                .or_insert_with(|| ThreadReplayer::new(truncated));
            match replayer.feed(&row) {
                Fed::Quiet => {}
                Fed::Span(span) => {
                    state.spans += 1;
                    let label = span.path.label();
                    if let Some(hist) = state.path_hists.get(label) {
                        hist.record_ns(span.duration_ns());
                    }
                    if let Some(wait) = span.wait_ns {
                        state.wait_hist.record_ns(wait);
                    }
                    state.causal.add_span(&span);
                    collapse::add_span(&mut state.stacks, &span);
                }
                Fed::Malformed(_) => state.malformed += 1,
                Fed::Orphan => state.orphans += 1,
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
    ///   thread whose ring ever truncated, registered lazily when the
    ///   first loss is harvested (threads with lossless rings get no
    ///   series).
    pub fn register_metrics(self: &Arc<Self>, registry: &Registry) {
        for (name, read) in [
            (
                "cso_harvest_ingested_total",
                (|s: &AggState| s.events_ingested) as fn(&AggState) -> u64,
            ),
            ("cso_harvest_batches_total", |s: &AggState| s.batches),
            ("cso_harvest_lost_total", |s: &AggState| s.lost),
        ] {
            let agg = Arc::clone(self);
            registry.counter_fn(name, move || {
                read(&agg.inner.lock().unwrap_or_else(|e| e.into_inner()))
            });
        }
        registry.register_probe_drop_gauge();
        let mut state = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        // Backfill truncations harvested before the registry arrived.
        for (&thread, &total) in &state.truncated_counts {
            registry
                .gauge(&format!("cso_harvest_truncated_events_thread_{thread}"))
                .set(total as f64);
        }
        state.registry = Some(registry.clone());
    }

    /// Total events ingested so far (the losslessness counter: equal
    /// to the emitted-count delta when no ring ever wrapped unread).
    #[must_use]
    pub fn ingested(&self) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .events_ingested
    }

    /// Takes a consistent snapshot of every aggregate.
    #[must_use]
    pub fn snapshot(&self) -> ProfileSnapshot {
        let mut state = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let min_len = state.min_run_len();
        let (convoys, longest_run) = state.convoy.flush(min_len);
        let mut recovery = RecoveryCounts::default();
        let mut open = 0u64;
        for replayer in state.replayers.values() {
            let r = replayer.recovery();
            recovery.suspects += r.suspects;
            recovery.reclaimed += r.reclaimed;
            recovery.successions += r.successions;
            open += u64::from(replayer.is_open());
        }
        let mut event_counts: Vec<(String, u64)> = state
            .event_counts
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        event_counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        ProfileSnapshot {
            events_ingested: state.events_ingested,
            batches: state.batches,
            lost: state.lost,
            spans: state.spans,
            open,
            malformed: state.malformed,
            orphans: state.orphans,
            per_path: PATHS
                .iter()
                .filter_map(|&p| {
                    let snap = state.path_hists.get(p)?.snapshot();
                    (snap.count > 0).then_some((p, snap))
                })
                .collect(),
            wait: state.wait_hist.snapshot(),
            hold: state.hold_hist.snapshot(),
            tenures: state.tenures,
            convoys,
            longest_convoy_run: longest_run as u64,
            stalls: state.stalls,
            recovery,
            event_counts,
            dropped_gauge: cso_trace::probe::dropped(),
            causal: state.causal.report(),
            max_bypass: state.bypass.max_bypass,
            bypass_intervals: state.bypass.intervals,
            bypass_open: state.bypass.open.len() as u64,
            procs: state.max_proc.map_or(0, |p| u64::from(p) + 1),
            truncated_threads: state
                .truncated_counts
                .iter()
                .map(|(&t, &n)| (t, n))
                .collect(),
        }
    }

    /// The collapsed-stack accumulator rendered in flamegraph input
    /// format (`stack weight` lines, nanosecond weights).
    #[must_use]
    pub fn collapsed(&self) -> String {
        let state = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        collapse::render_stacks(&state.stacks)
    }
}

/// Pairs lock tenures from raw acquire/release rows (mirroring
/// `cso_analyze::convoy::analyze`) and feeds the hold histogram, the
/// stall detector, and the convoy tracker.
fn track_tenure(state: &mut AggState, row: &Row) {
    match row.name.as_str() {
        "flag-raise" => {
            if let Some(p) = row.proc_id {
                state.bypass.on_flag_raise(p);
            }
        }
        "lock-acquire" => {
            if let Some(p) = row.proc_id {
                state.bypass.on_lock_acquire(p);
            }
            state.open_tenures.insert(
                row.thread,
                (row.wall_ns, None, row.proc_id.unwrap_or(u32::MAX)),
            );
        }
        "combine-batch" => {
            if let Some(open) = state.open_tenures.get_mut(&row.thread) {
                open.1 = row.value;
            }
        }
        "lock-release" => {
            if let Some((start_ns, batch, proc_id)) = state.open_tenures.remove(&row.thread) {
                let hold = row.wall_ns.saturating_sub(start_ns);
                state.tenures += 1;
                state.hold_hist.record_ns(hold);
                if let Some(batch) = batch {
                    let median = state.hold_hist.snapshot().p50_ns;
                    let threshold = median.saturating_mul(STALL_FACTOR).max(1);
                    if hold / batch.max(1) > threshold {
                        state.stalls += 1;
                    }
                }
                let min_len = state.min_run_len();
                state.convoy.push(
                    Tenure {
                        start_ns,
                        end_ns: row.wall_ns,
                        proc_id,
                    },
                    min_len,
                );
            }
        }
        _ => {}
    }
}

fn row_of(event: &TraceEvent) -> Row {
    Row {
        seq: event.seq,
        thread: event.thread,
        wall_ns: event.wall_ns,
        name: event.event.name().to_owned(),
        site: event.event.site().map(str::to_owned),
        proc_id: event.event.proc(),
        value: event.event.value().map(u64::from),
    }
}

fn hist_json(snap: &HistSnapshot) -> Json {
    Json::obj()
        .field("count", snap.count)
        .field("mean_ns", snap.mean_ns)
        .field("p50_ns", snap.p50_ns)
        .field("p90_ns", snap.p90_ns)
        .field("p99_ns", snap.p99_ns)
        .field("max_ns", snap.max_ns)
}

impl ProfileSnapshot {
    /// The JSON document `/spans.json` serves.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let paths = self
            .per_path
            .iter()
            .map(|(label, snap)| ((*label).to_owned(), hist_json(snap)))
            .collect();
        let events = self
            .event_counts
            .iter()
            .map(|(label, count)| (label.clone(), Json::from(*count)))
            .collect();
        Json::obj()
            .field("schema", "cso-profile-live v1")
            .field(
                "harvest",
                Json::obj()
                    .field("events_ingested", self.events_ingested)
                    .field("batches", self.batches)
                    .field("lost", self.lost)
                    .field("dropped_gauge", self.dropped_gauge)
                    .field(
                        "truncated_threads",
                        Json::Obj(
                            self.truncated_threads
                                .iter()
                                .map(|(t, n)| (format!("thread_{t}"), Json::from(*n)))
                                .collect(),
                        ),
                    ),
            )
            .field(
                "spans",
                Json::obj()
                    .field("completed", self.spans)
                    .field("open", self.open)
                    .field("malformed", self.malformed)
                    .field("orphans", self.orphans),
            )
            .field("paths", Json::Obj(paths))
            .field(
                "lock",
                Json::obj()
                    .field("wait", hist_json(&self.wait))
                    .field("hold", hist_json(&self.hold))
                    .field("tenures", self.tenures)
                    .field("convoys", self.convoys)
                    .field("longest_convoy_run", self.longest_convoy_run)
                    .field("stalls", self.stalls),
            )
            .field(
                "recovery",
                Json::obj()
                    .field("suspects", self.recovery.suspects)
                    .field("reclaimed", self.recovery.reclaimed)
                    .field("successions", self.recovery.successions),
            )
            .field(
                "bypass",
                Json::obj()
                    .field("max_bypass", self.max_bypass)
                    .field("intervals", self.bypass_intervals)
                    .field("open", self.bypass_open)
                    .field("procs", self.procs),
            )
            .field(
                "causal",
                Json::obj()
                    .field("attributed", self.causal.attributed())
                    .field("attribution", self.causal.attribution())
                    .field("edges", self.causal.edges.len()),
            )
            .field("events_by_label", Json::Obj(events))
    }

    /// The human-readable text `/profile` serves.
    #[must_use]
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "harvest: {} events in {} batches, {} lost, drop gauge {}",
            self.events_ingested, self.batches, self.lost, self.dropped_gauge
        );
        let _ = writeln!(
            out,
            "spans: {} completed, {} open, {} malformed, {} orphaned",
            self.spans, self.open, self.malformed, self.orphans
        );
        if !self.per_path.is_empty() {
            let _ = writeln!(
                out,
                "{:<12} {:>10} {:>10} {:>10} {:>10} {:>10}",
                "path", "count", "mean_ns", "p50_ns", "p99_ns", "max_ns"
            );
            for (label, snap) in &self.per_path {
                let _ = writeln!(
                    out,
                    "{:<12} {:>10} {:>10} {:>10} {:>10} {:>10}",
                    label, snap.count, snap.mean_ns, snap.p50_ns, snap.p99_ns, snap.max_ns
                );
            }
        }
        let _ = writeln!(
            out,
            "lock: {} tenures, wait p50/p99 {}/{} ns, hold p50/p99 {}/{} ns",
            self.tenures, self.wait.p50_ns, self.wait.p99_ns, self.hold.p50_ns, self.hold.p99_ns
        );
        let _ = writeln!(
            out,
            "pathologies: {} convoys (longest run {}), {} combiner stalls",
            self.convoys, self.longest_convoy_run, self.stalls
        );
        let _ = writeln!(
            out,
            "bypass: max {} over {} closed interval(s), {} open, {} proc(s)",
            self.max_bypass, self.bypass_intervals, self.bypass_open, self.procs
        );
        let _ = writeln!(
            out,
            "causal: {} op(s) attributed over {} edge(s), attribution {:.4}",
            self.causal.attributed(),
            self.causal.edges.len(),
            self.causal.attribution()
        );
        if self.recovery.any() {
            let _ = writeln!(
                out,
                "recovery: {} suspects, {} reclaimed, {} successions",
                self.recovery.suspects, self.recovery.reclaimed, self.recovery.successions
            );
        }
        for (label, count) in self.event_counts.iter().take(12) {
            let _ = writeln!(out, "  {count:>12}  {label}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cso_trace::probe::Event;

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

        // Late binding backfills truncations already harvested.
        let late = Registry::new();
        agg.register_metrics(&late);
        let backfilled = late
            .snapshot()
            .gauge("cso_harvest_truncated_events_thread_0");
        assert_eq!(backfilled, Some(5.0));
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
