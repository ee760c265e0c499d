//! The one trace analyser: a bounded-memory fold over typed events.
//!
//! [`Fold::ingest`] takes a slice of [`TraceEvent`]s in sequence order
//! plus the per-thread loss that came with them, and [`Fold::snapshot`]
//! renders everything the fold knows as one [`Snapshot`]. There is no
//! second analyser: the profiler's live aggregator is a mutex around a
//! `Fold` fed by the harvester, batch after batch, and the `cso-analyze`
//! CLI is the same `Fold` fed once from a parsed event log — the
//! post-mortem *is* the stream replayed, so the two cannot disagree
//! (`tests/live_equals_postmortem.rs` feeds one recorded stream both
//! ways and compares the snapshots byte for byte).
//!
//! # What the fold owns
//!
//! * span replay — one [`ThreadReplayer`] per recording thread;
//! * per-path duration, flag→acquire wait and lock-hold
//!   [`LogHistogram`]s (every quantile the reports print comes from
//!   these, ≤ 6.25 % above the true sample);
//! * tenure pairing, and on top of it the convoy and combiner-stall
//!   detectors (`TenureTracker`, below);
//! * §4.4 bypass accounting (`BypassTracker`, below — its doc is where
//!   the counting rules are stated, once);
//! * the helped-by graph, collapsed stacks, recovery and event counts.
//!
//! # Memory
//!
//! Bounded by the number of threads and processes, never by the number
//! of events: histograms are fixed arrays, counts are scalars, open
//! intervals and tenures are at most one per process or thread, the
//! stack map is keyed by `proc × path × phase`, and the only per-item
//! detail kept is the first [`DETAIL`] malformed events and the
//! [`DETAIL`] worst bypass intervals. No span or tenure outlives the
//! call that completed it.
//!
//! # Loss
//!
//! A ring that wrapped unread reports `(thread, events lost)`: with a
//! harvested batch when it happened mid-stream, from the `# truncated`
//! header when a capture's head was overwritten. Either way the hole
//! lies between that thread's last event before the report and its
//! first after it, and each consumer treats it the same way in both
//! modes:
//!
//! * the thread's replayer desynchronises — what it cannot place until
//!   a span completes cleanly again is an *orphan*, not *malformed*;
//! * the thread's open tenure is dropped rather than paired with a
//!   release from the far side of the hole;
//! * every bypass interval open at either end of the hole is *voided*
//!   (see `BypassTracker`) — loss voids, it does not accuse;
//! * histograms, counts, stacks and the causal graph simply miss what
//!   was lost; nothing is extrapolated.
//!
//! # Order
//!
//! Events are folded in arrival order. A parsed log is sorted by
//! sequence number; live batches are cut at one clock value per
//! harvest pass (`cso_trace::probe::harvest`), so they concatenate in
//! sequence order too. The skew that remains is one in-flight event
//! per writing thread per pass, which can arrive a pass late: the
//! per-thread machines never notice (each thread's own order is
//! exact), the cross-thread trackers may attribute that one acquire
//! or raise to the wrong side of its neighbours.
//!
//! # What the fold cannot tell apart
//!
//! Events carry a process id but no lock identity. A process that uses
//! several locks — eight shard lanes, the six scenarios of E14 — has
//! their intervals and tenures conflated under one id, in the bypass
//! and convoy accounting both.

use std::collections::BTreeMap;

use cso_trace::probe::{Event, TraceEvent};
use cso_trace::LogHistogram;

use crate::analyze::causal::CausalAccumulator;
use crate::analyze::collapse;
use crate::analyze::snapshot::Snapshot;
use crate::analyze::spans::{Fed, Malformed, Path, RecoveryCounts, Span, ThreadReplayer};

/// How many malformed events and worst bypass intervals a [`Snapshot`]
/// describes individually; beyond that only the counts grow.
pub const DETAIL: usize = 5;

/// Release-to-acquire gaps under this are "the lock never went idle".
const GAP_NS: u64 = 1_000;

/// A combining tenure stalls when its per-request cost exceeds this
/// multiple of the median hold.
const STALL_FACTOR: u64 = 4;

/// One closed `flag-raise(p)` → `lock-acquire(p)` interval, kept for
/// the report when it is among the worst seen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bypassed {
    /// The flagged process that was bypassed.
    pub proc_id: u32,
    /// Acquisitions by other processes at the worst single `TURN`
    /// position of its wait — the count that is judged.
    pub bypasses: u64,
    /// Acquisitions by other processes over its whole wait.
    pub over_wait: u64,
    /// Sequence number of the `flag-raise` opening the interval.
    pub flag_seq: u64,
    /// Sequence number of the closing `lock-acquire`.
    pub acquire_seq: u64,
}

/// An interval still waiting for its `lock-acquire`.
#[derive(Debug, Clone, Copy)]
struct Waiting {
    /// Acquisitions by others since `TURN` last moved (or the raise).
    here: u64,
    /// The largest `here` an earlier `TURN` position of this wait saw.
    worst: u64,
    over_wait: u64,
    flag_seq: u64,
}

/// §4.4 bypass accounting — the one definition, live and post-mortem.
///
/// The paper's starvation-freedom argument has two halves. While
/// `TURN` rests on one process, every other process can take the lock
/// at most once: it lowers its flag on release, and to come back it
/// must raise it again and wait at line 05 behind `FLAG[TURN]` — or,
/// if that flag is down, its own release has just moved `TURN` on
/// (lines 10–11). And `TURN` moves round-robin, skipping nobody, so it
/// reaches a flagged process within one sweep and then stays. What is
/// counted is the first half: for every `flag-raise(p)` →
/// `lock-acquire(p)` interval, the lock acquisitions by *other*
/// processes **between two `turn-advance`s** (or the raise, or the
/// acquire), worst position of the wait; readers compare that with
/// `n − 1` (or a bound of their choosing).
///
/// * **`TURN` moving restarts the count, not the wait.** Over a whole
///   wait the acquisitions add up to as many as `n − 1` per position of
///   the sweep, so `n − 1` in total was never a theorem — a waiter that
///   loses its CPU for a few milliseconds on a busy host is passed
///   four or five times at `n = 4` by a lock doing exactly what lines
///   04–12 say (EXPERIMENTS.md has the trace). The total is kept, as
///   [`Bypassed::over_wait`], and reported beside the count; it is not
///   judged. A capture without `turn-advance` events — an unboosted
///   lock, a planted stream — is one position from raise to acquire.
/// * **Every acquisition counts**, flagged or not. The combining path
///   takes the raw inner lock without raising a flag, and still delays
///   every flagged waiter — so a mixed combining/locked workload can
///   legitimately exceed `n − 1`, which is why the bound is a knob.
/// * **A re-raised flag restarts the interval.** An earlier raise that
///   never saw its acquire was either lost, or — since PR 6 — lowered
///   on purpose: the recovering lock waits in `backoff`-sized slices,
///   and a slice that expires drops `FLAG[p]` (nobody may wait on a
///   ghost) and raises it again. §4.4 promises nothing across a
///   lowered flag, so neither does the count.
/// * **Loss voids.** When a thread reports lost events, an acquire that
///   would have closed an open interval may be among them; closing it
///   later would charge it with bypasses that happened after the wait
///   ended. Every interval open at that point is dropped and counted
///   in `voided`, never judged.
/// * Intervals still open at the end are reported, never judged: the
///   acquire may simply not have happened yet.
#[derive(Debug, Default)]
struct BypassTracker {
    open: BTreeMap<u32, Waiting>,
    /// The bound closed intervals are judged against, when the reader
    /// fixed one up front.
    bound: Option<u64>,
    intervals: u64,
    voided: u64,
    violations: u64,
    max_bypass: u64,
    max_over_wait: u64,
    per_proc_max: BTreeMap<u32, u64>,
    /// The [`DETAIL`] worst closed intervals, worst first.
    worst: Vec<Bypassed>,
}

impl BypassTracker {
    fn on_flag_raise(&mut self, proc_id: u32, seq: u64) {
        let fresh = Waiting {
            here: 0,
            worst: 0,
            over_wait: 0,
            flag_seq: seq,
        };
        self.open.insert(proc_id, fresh);
    }

    fn on_turn_advance(&mut self) {
        for waiting in self.open.values_mut() {
            waiting.worst = waiting.worst.max(waiting.here);
            waiting.here = 0;
        }
    }

    fn on_lock_acquire(&mut self, proc_id: u32, seq: u64) {
        if let Some(waited) = self.open.remove(&proc_id) {
            let bypasses = waited.worst.max(waited.here);
            self.intervals += 1;
            self.max_bypass = self.max_bypass.max(bypasses);
            self.max_over_wait = self.max_over_wait.max(waited.over_wait);
            let worst_of_proc = self.per_proc_max.entry(proc_id).or_insert(0);
            *worst_of_proc = (*worst_of_proc).max(bypasses);
            self.violations += u64::from(self.bound.is_some_and(|b| bypasses > b));
            // Strictly-greater keeps the earliest of equals, so the
            // list does not depend on how the stream was batched.
            let rank = self.worst.partition_point(|w| w.bypasses >= bypasses);
            if rank < DETAIL {
                let closed = Bypassed {
                    proc_id,
                    bypasses,
                    over_wait: waited.over_wait,
                    flag_seq: waited.flag_seq,
                    acquire_seq: seq,
                };
                self.worst.insert(rank, closed);
                self.worst.truncate(DETAIL);
            }
        }
        // This acquisition bypasses every other flagged waiter.
        for waiting in self.open.values_mut() {
            waiting.here += 1;
            waiting.over_wait += 1;
        }
    }

    fn void(&mut self) {
        self.voided += self.open.len() as u64;
        self.open.clear();
    }
}

#[derive(Debug, Clone, Copy)]
struct OpenTenure {
    start_ns: u64,
    proc_id: u32,
    batch: Option<u32>,
}

/// Lock-tenure accounting: pairing, convoys and combiner stalls.
///
/// A tenure is a `lock-acquire` → `lock-release` pair on one thread
/// (with the `combine-batch` probed inside, if any); it exists only
/// until its release has been folded.
///
/// A **convoy** is the classic pathology where the lock is handed
/// holder-to-holder without ever going idle — every arriving thread
/// queues behind the current holder, so the lock's *own* overhead
/// (handoff latency, cache-line migration) becomes the throughput
/// ceiling. Detected structurally: a maximal run of tenures whose
/// release-to-acquire gaps stay under [`GAP_NS`] is a *saturated run*;
/// it is a convoy when it is at least as long as the process count
/// **and** at least two processes took part — one process re-taking a
/// lock nobody else wants is queueing behind nobody.
///
/// A **combiner stall** is the flat-combining failure mode: one
/// combiner holds the lock for a long tenure while serving a *small*
/// batch — the amortisation argument collapses and everyone queues
/// behind a slow tenure. Flagged when a combining tenure's cost per
/// served request exceeds [`STALL_FACTOR`] × the median hold so far.
#[derive(Default)]
struct TenureTracker {
    /// At most one open tenure per recording thread.
    open: BTreeMap<u32, OpenTenure>,
    hold: LogHistogram,
    closed: u64,
    stalls: u64,
    last_end_ns: Option<u64>,
    run_len: u64,
    /// Distinct processes in the current run (at most `n`).
    run_procs: Vec<u32>,
    convoys: u64,
    longest_run: u64,
}

impl TenureTracker {
    fn on_acquire(&mut self, e: &TraceEvent, proc_id: u32) {
        let tenure = OpenTenure {
            start_ns: e.wall_ns,
            proc_id,
            batch: None,
        };
        self.open.insert(e.thread, tenure);
    }

    fn on_batch(&mut self, thread: u32, served: u32) {
        if let Some(tenure) = self.open.get_mut(&thread) {
            tenure.batch = Some(served);
        }
    }

    fn on_release(&mut self, e: &TraceEvent, min_run: u64) {
        let Some(tenure) = self.open.remove(&e.thread) else {
            return;
        };
        let hold = e.wall_ns.saturating_sub(tenure.start_ns);
        self.closed += 1;
        self.hold.record_ns(hold);
        if let Some(served) = tenure.batch {
            let threshold = self.hold.snapshot().p50_ns.saturating_mul(STALL_FACTOR);
            self.stalls += u64::from(hold / u64::from(served.max(1)) > threshold.max(1));
        }
        let saturated = self
            .last_end_ns
            .is_some_and(|last| tenure.start_ns.saturating_sub(last) <= GAP_NS);
        if !saturated {
            self.convoys += u64::from(self.run_is_convoy(min_run));
            self.run_len = 0;
            self.run_procs.clear();
        }
        self.run_len += 1;
        self.longest_run = self.longest_run.max(self.run_len);
        if !self.run_procs.contains(&tenure.proc_id) {
            self.run_procs.push(tenure.proc_id);
        }
        self.last_end_ns = Some(e.wall_ns.max(self.last_end_ns.unwrap_or(0)));
    }

    fn run_is_convoy(&self, min_run: u64) -> bool {
        self.run_len >= min_run && self.run_procs.len() >= 2
    }
}

/// The fold. See the [module docs](self).
#[derive(Default)]
pub struct Fold {
    replayers: BTreeMap<u32, ThreadReplayer>,
    /// Threads that reported loss and have not spoken since: the far
    /// end of their hole is their next event.
    lossy: Vec<u32>,
    events: u64,
    lost: u64,
    truncated: BTreeMap<u32, u64>,
    spans: u64,
    malformed: u64,
    orphans: u64,
    first_malformed: Vec<Malformed>,
    paths: [LogHistogram; Path::ALL.len()],
    wait: LogHistogram,
    lock_held_ns: u64,
    /// First span start and last span end seen, wall-clock ns.
    extent: Option<(u64, u64)>,
    longest: Option<Span>,
    tenures: TenureTracker,
    bypass: BypassTracker,
    max_proc: Option<u32>,
    /// Keyed by the typed `(name, site)` pair, both `&'static str` —
    /// counting an event allocates nothing — with the first such event
    /// kept to spell the label when a snapshot asks.
    event_counts: BTreeMap<(&'static str, Option<&'static str>), (Event, u64)>,
    stacks: BTreeMap<String, u64>,
    causal: CausalAccumulator,
}

impl Fold {
    /// An empty fold. Closed bypass intervals are measured but judged
    /// against no bound — a live reader does not know `n` until the
    /// stream has told it, and compares [`Snapshot::max_bypass`] itself.
    #[must_use]
    pub fn new() -> Fold {
        Fold::default()
    }

    /// An empty fold that also counts, in
    /// [`Snapshot::bypass_violations`], the closed intervals with more
    /// than `bound` bypasses (the CLI's `--bound`, or its `n − 1`).
    #[must_use]
    pub fn with_bypass_bound(bound: u64) -> Fold {
        let mut fold = Fold::default();
        fold.bypass.bound = Some(bound);
        fold
    }

    /// Folds in `events` — sequence order, any threads — and the loss
    /// that was reported with them: `(thread, events lost)` for every
    /// thread whose ring wrapped unread since its previous event
    /// (`Harvested::truncated` for a harvested batch, `Trace::truncated`
    /// for a whole parsed log). How the stream is cut into calls does
    /// not change the result.
    pub fn ingest(&mut self, events: &[TraceEvent], loss: &[(u32, u64)]) {
        for &(thread, lost) in loss {
            self.lost += lost;
            *self.truncated.entry(thread).or_insert(0) += lost;
            self.replayers.entry(thread).or_default().desync();
            self.tenures.open.remove(&thread);
            // The near end of the hole; the far end is the thread's
            // next event, below.
            self.bypass.void();
            if !self.lossy.contains(&thread) {
                self.lossy.push(thread);
            }
        }
        for e in events {
            self.events += 1;
            if let Some(i) = self.lossy.iter().position(|t| *t == e.thread) {
                self.lossy.swap_remove(i);
                self.bypass.void();
            }
            if let Some(p) = e.event.proc() {
                self.max_proc = Some(self.max_proc.map_or(p, |m| m.max(p)));
            }
            let key = (e.event.name(), e.event.site());
            self.event_counts.entry(key).or_insert((e.event, 0)).1 += 1;
            // The cross-thread trackers read the five lock events
            // straight off the merged stream; everything else about an
            // operation is its own thread's replayer's business.
            match e.event {
                Event::FlagRaise(p) => self.bypass.on_flag_raise(p, e.seq),
                Event::TurnAdvance(_) => self.bypass.on_turn_advance(),
                Event::LockAcquire(p) => {
                    self.bypass.on_lock_acquire(p, e.seq);
                    self.tenures.on_acquire(e, p);
                }
                Event::CombineBatch(served) => self.tenures.on_batch(e.thread, served),
                Event::LockRelease(_) => self.tenures.on_release(e, self.min_run()),
                _ => {}
            }
            match self.replayers.entry(e.thread).or_default().feed(e) {
                Fed::Quiet => {}
                Fed::Span(span) => self.add_span(span),
                Fed::Malformed(m) => {
                    self.malformed += 1;
                    if self.first_malformed.len() < DETAIL {
                        self.first_malformed.push(m);
                    }
                }
                Fed::Orphan => self.orphans += 1,
            }
        }
    }

    fn add_span(&mut self, span: Span) {
        self.spans += 1;
        self.paths[span.path as usize].record_ns(span.duration_ns());
        if let Some(wait) = span.wait_ns {
            self.wait.record_ns(wait);
        }
        self.lock_held_ns += span.hold_ns.unwrap_or(0);
        let (first, last) = self.extent.unwrap_or((span.start_ns, span.end_ns));
        self.extent = Some((first.min(span.start_ns), last.max(span.end_ns)));
        self.causal.add_span(&span);
        collapse::add_span(&mut self.stacks, &span);
        // Strictly longer: the earliest of equals stays.
        let longest = self.longest.as_ref().map(Span::duration_ns);
        if longest.map_or(true, |ns| span.duration_ns() > ns) {
            self.longest = Some(span);
        }
    }

    /// Processes seen so far: the highest process-identity payload
    /// plus one. 0 until a proc-carrying event arrives.
    fn procs(&self) -> u64 {
        self.max_proc.map_or(0, |p| u64::from(p) + 1)
    }

    /// A saturated run is a convoy from as many hand-offs as there are
    /// processes (two at least).
    fn min_run(&self) -> u64 {
        self.procs().max(2)
    }

    /// Events folded so far.
    #[must_use]
    pub fn ingested(&self) -> u64 {
        self.events
    }

    /// Events reported lost so far.
    #[must_use]
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// `(thread, events lost)` for every thread that ever reported loss.
    pub fn truncated(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.truncated.iter().map(|(&t, &n)| (t, n))
    }

    /// The collapsed-stack accumulator in flamegraph input format
    /// (`stack weight` lines, nanosecond weights).
    #[must_use]
    pub fn collapsed(&self) -> String {
        collapse::render_stacks(&self.stacks)
    }

    /// Everything the fold knows, as one immutable view. Cheap
    /// (histogram summaries and small maps); nothing is consumed, so a
    /// saturated run or a wait still in progress shows up now and is
    /// counted once when it ends.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let mut recovery = RecoveryCounts::default();
        let mut open = 0u64;
        for replayer in self.replayers.values() {
            let r = replayer.recovery();
            recovery.suspects += r.suspects;
            recovery.reclaimed += r.reclaimed;
            recovery.successions += r.successions;
            open += u64::from(replayer.is_open());
        }
        let mut event_counts: Vec<(String, u64)> = self
            .event_counts
            .values()
            .map(|(event, count)| (event.label(), *count))
            .collect();
        event_counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let tenures = &self.tenures;
        Snapshot {
            events_ingested: self.events,
            batches: 0,
            lost: self.lost,
            spans: self.spans,
            open,
            malformed: self.malformed,
            orphans: self.orphans,
            first_malformed: self.first_malformed.clone(),
            per_path: Path::ALL
                .iter()
                .map(|&path| (path.label(), self.paths[path as usize].snapshot()))
                .filter(|(_, hist)| hist.count > 0)
                .collect(),
            wait: self.wait.snapshot(),
            hold: tenures.hold.snapshot(),
            lock_held_ns: self.lock_held_ns,
            // Saturating: a capture file can claim any timestamps.
            capture_ns: self
                .extent
                .map_or(0, |(first, last)| last.saturating_sub(first)),
            longest_span: self.longest.clone(),
            tenures: tenures.closed,
            convoys: tenures.convoys + u64::from(tenures.run_is_convoy(self.min_run())),
            longest_convoy_run: tenures.longest_run,
            stalls: tenures.stalls,
            recovery,
            event_counts,
            dropped_gauge: 0,
            causal: self.causal.report(),
            max_bypass: self.bypass.max_bypass,
            max_bypass_over_wait: self.bypass.max_over_wait,
            bypass_intervals: self.bypass.intervals,
            bypass_open: self.bypass.open.len() as u64,
            bypass_voided: self.bypass.voided,
            bypass_violations: self.bypass.violations,
            worst_bypasses: self.bypass.worst.clone(),
            bypass_per_proc: self
                .bypass
                .per_proc_max
                .iter()
                .map(|(&p, &m)| (p, m))
                .collect(),
            procs: self.procs(),
            truncated_threads: self.truncated().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, thread: u32, wall_ns: u64, event: Event) -> TraceEvent {
        TraceEvent {
            thread,
            seq,
            wall_ns,
            event,
        }
    }

    /// `(seq, event)` rows recorded by thread = process `proc`, one
    /// clock tick per sequence number — all the bypass tracker reads.
    fn by_proc(rows: &[(u64, Event)]) -> Vec<TraceEvent> {
        let thread = |e: &Event| e.proc().expect("proc-carrying event");
        rows.iter()
            .map(|(seq, e)| ev(*seq, thread(e), *seq, *e))
            .collect()
    }

    fn folded(bound: u64, events: &[TraceEvent]) -> Snapshot {
        let mut fold = Fold::with_bypass_bound(bound);
        fold.ingest(events, &[]);
        fold.snapshot()
    }

    #[test]
    fn round_robin_respects_n_minus_one() {
        // Three procs all flag, then acquire in turn order: the last
        // is bypassed exactly twice = n − 1.
        let snap = folded(
            2,
            &by_proc(&[
                (0, Event::FlagRaise(0)),
                (1, Event::FlagRaise(1)),
                (2, Event::FlagRaise(2)),
                (3, Event::LockAcquire(0)),
                (4, Event::LockAcquire(1)),
                (5, Event::LockAcquire(2)),
            ]),
        );
        assert_eq!(snap.procs, 3);
        assert_eq!(snap.bypass_intervals, 3);
        assert_eq!(snap.max_bypass, 2);
        assert_eq!(snap.bypass_violations, 0);
        assert_eq!(snap.bypass_per_proc, vec![(0, 0), (1, 1), (2, 2)]);
    }

    #[test]
    fn a_starved_proc_is_a_violation() {
        // Proc 1 flags once; proc 0 acquires three times before it —
        // 3 > n − 1 = 1.
        let events = by_proc(&[
            (0, Event::FlagRaise(1)),
            (1, Event::LockAcquire(0)),
            (2, Event::LockAcquire(0)),
            (3, Event::LockAcquire(0)),
            (4, Event::LockAcquire(1)),
        ]);
        let snap = folded(1, &events);
        assert_eq!(snap.bypass_violations, 1);
        let starved = Bypassed {
            proc_id: 1,
            bypasses: 3,
            over_wait: 3,
            flag_seq: 0,
            acquire_seq: 4,
        };
        assert_eq!(snap.worst_bypasses, vec![starved]);

        // The same trace passes with a caller-supplied looser bound,
        // and a fold given no bound measures without judging.
        assert_eq!(folded(3, &events).bypass_violations, 0);
        let mut unjudged = Fold::new();
        unjudged.ingest(&events, &[]);
        let snap = unjudged.snapshot();
        assert_eq!((snap.max_bypass, snap.bypass_violations), (3, 0));
    }

    /// Lock events of a clean four-thread run on the production stack
    /// (the watchdog's `a_clean_concurrent_workload_raises_no_alerts`,
    /// 2-vCPU host), verbatim: proc 3 raises its flag and its thread
    /// loses the CPU for half a millisecond. Procs 0 and 2 take the lock
    /// five times meanwhile — each at most once per `TURN` position,
    /// re-raising and queueing behind `FLAG[TURN]` every time, while
    /// `TURN` walks 1, 2, 3 and then holds the door for proc 3. Counted
    /// over the whole wait that is 5 > n − 1 = 3 and used to degrade
    /// the watchdog in every other run; it is lines 04–12 at work.
    #[test]
    fn turn_moving_restarts_the_count_not_the_wait() {
        let snap = folded(
            3,
            &by_proc(&[
                (48021, Event::FlagRaise(3)),
                (48118, Event::LockAcquire(0)),
                (48123, Event::FlagRaise(2)),
                (48127, Event::LockRelease(0)),
                (48128, Event::TurnAdvance(1)),
                (48129, Event::LockAcquire(2)),
                (48137, Event::LockRelease(2)),
                (48138, Event::FlagRaise(0)),
                (48139, Event::TurnAdvance(2)),
                (48141, Event::LockAcquire(0)),
                (48146, Event::FlagRaise(2)),
                (48149, Event::LockRelease(0)),
                (48150, Event::LockAcquire(2)),
                (48156, Event::FlagRaise(0)),
                (48160, Event::LockRelease(2)),
                (48161, Event::TurnAdvance(3)),
                (48162, Event::LockAcquire(0)),
                (48168, Event::FlagRaise(2)),
                (48171, Event::LockRelease(0)),
                (48541, Event::LockAcquire(3)),
            ]),
        );
        let passed = Bypassed {
            proc_id: 3,
            bypasses: 2,
            over_wait: 5,
            flag_seq: 48021,
            acquire_seq: 48541,
        };
        assert_eq!(snap.worst_bypasses[0], passed);
        assert_eq!((snap.max_bypass, snap.max_bypass_over_wait), (2, 5));
        assert_eq!(snap.bypass_violations, 0);
    }

    #[test]
    fn open_intervals_are_reported_not_violations() {
        let snap = folded(
            1,
            &by_proc(&[
                (0, Event::FlagRaise(0)),
                (1, Event::LockAcquire(1)),
                (2, Event::LockAcquire(1)),
            ]),
        );
        assert_eq!(snap.bypass_open, 1);
        assert_eq!(snap.bypass_intervals, 0);
        assert_eq!(snap.bypass_violations, 0);
    }

    #[test]
    fn a_re_raised_flag_restarts_the_interval() {
        // flag(0) ... flag(0) again: the first raise was lowered (a
        // recovering lock's expired slice) or its acquire was lost;
        // only the second interval counts.
        let snap = folded(
            1,
            &by_proc(&[
                (0, Event::FlagRaise(0)),
                (1, Event::LockAcquire(1)),
                (2, Event::LockAcquire(1)),
                (3, Event::FlagRaise(0)),
                (4, Event::LockAcquire(0)),
            ]),
        );
        assert_eq!(snap.bypass_intervals, 1);
        assert_eq!(snap.max_bypass, 0);
        assert_eq!(snap.bypass_violations, 0);
    }

    #[test]
    fn loss_voids_open_intervals_instead_of_accusing() {
        // Proc 1 flags; then its thread's ring wraps. What survives is
        // two full flagged tenures of proc 0 and a bare acquire by
        // proc 1 — whose matching raise, and the acquire that closed
        // the *first* raise, are in the hole. Closing the stale
        // interval would read "bypassed 2 times (> n − 1 = 1)".
        let mut fold = Fold::with_bypass_bound(1);
        fold.ingest(&by_proc(&[(0, Event::FlagRaise(1))]), &[]);
        let second = by_proc(&[
            (10, Event::FlagRaise(0)),
            (11, Event::LockAcquire(0)),
            (12, Event::LockRelease(0)),
            (13, Event::FlagRaise(0)),
            (14, Event::LockAcquire(0)),
            (15, Event::LockRelease(0)),
            (16, Event::LockAcquire(1)),
        ]);
        fold.ingest(&second, &[(1, 2)]);
        let snap = fold.snapshot();
        assert_eq!(snap.bypass_violations, 0);
        assert_eq!(snap.bypass_voided, 1);
        assert_eq!(snap.max_bypass, 0);
        assert_eq!(
            snap.bypass_intervals, 2,
            "proc 0's two, nothing of proc 1's"
        );
        assert_eq!(snap.lost, 2);

        // The same loss declared by a capture's header: the hole is
        // before thread 1's first surviving event, so what is open
        // when that arrives is void.
        let mut file = Fold::with_bypass_bound(1);
        let mut whole = by_proc(&[(5, Event::FlagRaise(1))]);
        whole[0].thread = 7; // another thread's raise for the same id
        whole.extend(second);
        file.ingest(&whole, &[(1, 2)]);
        let snap = file.snapshot();
        assert_eq!((snap.bypass_violations, snap.bypass_voided), (0, 1));
    }

    #[test]
    fn a_batch_boundary_never_changes_the_count() {
        // A `lock-acquire` sits right at the harvest cut. Fed whole or
        // split there, proc 1 is bypassed the same once.
        let events = by_proc(&[
            (0, Event::FlagRaise(1)),
            (1, Event::FlagRaise(0)),
            (2, Event::LockAcquire(0)),
            (3, Event::LockRelease(0)),
            (4, Event::LockAcquire(1)),
            (5, Event::LockRelease(1)),
        ]);
        let whole = folded(1, &events);
        assert_eq!((whole.max_bypass, whole.bypass_intervals), (1, 2));
        for cut in 0..=events.len() {
            let mut split = Fold::with_bypass_bound(1);
            split.ingest(&events[..cut], &[]);
            split.ingest(&events[cut..], &[]);
            let split = split.snapshot();
            assert_eq!(split.max_bypass, whole.max_bypass, "cut at {cut}");
            assert_eq!(split.bypass_intervals, whole.bypass_intervals);
            assert_eq!(split.worst_bypasses, whole.worst_bypasses);
        }
    }

    /// `n` back-to-back tenures (1 µs holds, 100 ns hand-off gaps),
    /// holder `i` being process `i % procs` on its own thread.
    fn saturated_run(n: u64, procs: u32) -> Vec<TraceEvent> {
        let mut events = Vec::new();
        for i in 0..n {
            let p = (i % u64::from(procs)) as u32;
            let start = i * 1_100;
            events.push(ev(2 * i, p, start, Event::LockAcquire(p)));
            events.push(ev(2 * i + 1, p, start + 1_000, Event::LockRelease(p)));
        }
        events
    }

    #[test]
    fn a_convoy_needs_company() {
        // One process re-taking a lock nobody else wants, 300 times
        // without an idle gap: saturated, but queueing behind nobody.
        let solo = folded(0, &saturated_run(300, 1));
        assert_eq!(solo.tenures, 300);
        assert_eq!(solo.longest_convoy_run, 300);
        assert_eq!(solo.convoys, 0);

        // Two procs hand the lock off back-to-back (gaps of 10 ns),
        // then the lock goes idle for 10 µs, then one more tenure.
        let two = folded(
            1,
            &[
                ev(0, 0, 1_000, Event::LockAcquire(0)),
                ev(1, 0, 2_000, Event::LockRelease(0)),
                ev(2, 1, 2_010, Event::LockAcquire(1)),
                ev(3, 1, 3_000, Event::LockRelease(1)),
                ev(4, 0, 3_005, Event::LockAcquire(0)),
                ev(5, 0, 4_000, Event::LockRelease(0)),
                ev(6, 1, 14_000, Event::LockAcquire(1)),
                ev(7, 1, 15_000, Event::LockRelease(1)),
            ],
        );
        assert_eq!(two.tenures, 4);
        assert_eq!(two.hold.max_ns, 1_000);
        assert_eq!(two.convoys, 1);
        assert_eq!(two.longest_convoy_run, 3);

        // A run still saturated when the snapshot is taken shows up in
        // it, and is not counted a second time when it ends.
        let mut fold = Fold::new();
        fold.ingest(&saturated_run(40, 2), &[]);
        assert_eq!(fold.snapshot().convoys, 1);
        assert_eq!(fold.snapshot().convoys, 1, "snapshots consume nothing");
        let idle_then_one = [
            ev(100, 0, 1_000_000, Event::LockAcquire(0)),
            ev(101, 0, 1_001_000, Event::LockRelease(0)),
        ];
        fold.ingest(&idle_then_one, &[]);
        assert_eq!(fold.snapshot().convoys, 1);
    }

    #[test]
    fn small_batch_long_tenure_is_a_stall() {
        // Three quick plain tenures set the median at 100 ns; one
        // combining tenure holds 4 µs for a batch of 2 → 2 µs per
        // request, far above 4× median.
        let tenures = |served: u32| {
            folded(
                1,
                &[
                    ev(0, 0, 0, Event::LockAcquire(0)),
                    ev(1, 0, 100, Event::LockRelease(0)),
                    ev(2, 0, 5_000, Event::LockAcquire(0)),
                    ev(3, 0, 5_100, Event::LockRelease(0)),
                    ev(4, 0, 10_000, Event::LockAcquire(0)),
                    ev(5, 0, 10_100, Event::LockRelease(0)),
                    ev(6, 1, 20_000, Event::LockAcquire(1)),
                    ev(7, 1, 21_000, Event::CombineBatch(served)),
                    ev(8, 1, 24_000, Event::LockRelease(1)),
                ],
            )
        };
        assert_eq!(tenures(2).stalls, 1);
        // A large batch over the same tenure amortises fine.
        assert_eq!(tenures(64).stalls, 0);
        assert_eq!(tenures(64).convoys, 0, "the lock went idle every time");
    }

    #[test]
    fn unreleased_and_holed_tenures_are_never_paired() {
        let snap = folded(0, &[ev(0, 0, 0, Event::LockAcquire(0))]);
        assert_eq!((snap.tenures, snap.convoys), (0, 0));

        // An acquire, a hole, then a release from a later tenure: not
        // a 1 ms hold.
        let mut fold = Fold::new();
        fold.ingest(&[ev(0, 0, 0, Event::LockAcquire(0))], &[]);
        fold.ingest(&[ev(9, 0, 1_000_000, Event::LockRelease(0))], &[(0, 7)]);
        let snap = fold.snapshot();
        assert_eq!((snap.tenures, snap.hold.count), (0, 0));
        assert_eq!(snap.orphans, 1);
    }

    #[test]
    fn lock_share_and_longest_span_are_running_scalars() {
        let snap = folded(
            1,
            &[
                ev(0, 0, 0, Event::FlagRaise(0)),
                ev(1, 0, 10, Event::LockAcquire(0)),
                ev(2, 0, 60, Event::LockedComplete),
                ev(3, 0, 100, Event::LockRelease(0)),
                ev(4, 1, 100, Event::FastAttempt),
                ev(5, 1, 200, Event::FastSuccess),
            ],
        );
        assert_eq!(snap.capture_ns, 200);
        assert_eq!(snap.lock_held_ns, 90);
        assert!((snap.lock_saturation() - 0.45).abs() < 1e-9);
        // Both spans last 100 ns: the earlier one is kept.
        let longest = snap.longest_span.as_ref().expect("two spans");
        assert_eq!((longest.duration_ns(), longest.path), (100, Path::Locked));
        let locked = snap.per_path.iter().find(|(l, _)| *l == "locked").unwrap();
        assert_eq!((locked.1.count, locked.1.mean_ns), (1, 100));
        assert_eq!(snap.coverage(), 1.0);
    }

    #[test]
    fn malformed_detail_is_capped_and_counts_are_not() {
        let strays: Vec<TraceEvent> = (0..8).map(|i| ev(i, 0, i, Event::FastSuccess)).collect();
        let snap = folded(0, &strays);
        assert_eq!(snap.malformed, 8);
        assert_eq!(snap.first_malformed.len(), DETAIL);
        assert_eq!(snap.first_malformed[0].seq, 0);
        assert_eq!(snap.coverage(), 0.0);
        assert_eq!(snap.event_counts, vec![("fast-success".to_owned(), 8)]);
    }
}
