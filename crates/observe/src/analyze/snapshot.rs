//! [`Snapshot`]: the one view of a [`Fold`](crate::analyze::Fold) every
//! consumer reads, and the documents rendered from it.

use cso_trace::HistSnapshot;

use crate::analyze::causal::CausalReport;
use crate::analyze::fold::Bypassed;
use crate::analyze::spans::{Malformed, RecoveryCounts, Span};
use crate::metrics::Json;

/// One immutable view of everything a [`Fold`](crate::analyze::Fold) knows:
/// what `/profile`, `/spans.json` and `/causal.json` serve, what
/// the watchdog samples, and what every `cso-analyze` subcommand prints.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Events folded in.
    pub events_ingested: u64,
    /// Harvest batches behind them — the harvester's fact, filled in
    /// by the live aggregator; 0 from a bare fold.
    pub batches: u64,
    /// Events reported lost (overwritten unread).
    pub lost: u64,
    /// Completed spans.
    pub spans: u64,
    /// Operations in flight right now.
    pub open: u64,
    /// Protocol violations.
    pub malformed: u64,
    /// Events charged to truncation/loss gaps.
    pub orphans: u64,
    /// The first [`DETAIL`](crate::analyze::fold::DETAIL) protocol violations,
    /// in stream order.
    pub first_malformed: Vec<Malformed>,
    /// `(path label, duration histogram)` for each populated path.
    pub per_path: Vec<(&'static str, HistSnapshot)>,
    /// `flag-raise` → `lock-acquire` wait quantiles.
    pub wait: HistSnapshot,
    /// Lock tenure (hold) quantiles.
    pub hold: HistSnapshot,
    /// Total nanoseconds some completed span held the lock.
    pub lock_held_ns: u64,
    /// Wall-clock extent of the completed spans (first start → last
    /// end), nanoseconds.
    pub capture_ns: u64,
    /// The single longest span (the earliest, among equals).
    pub longest_span: Option<Span>,
    /// Closed lock tenures.
    pub tenures: u64,
    /// Saturated hand-off runs at least as long as the process count
    /// that at least two processes took part in.
    pub convoys: u64,
    /// The longest saturated run seen, whoever took part.
    pub longest_convoy_run: u64,
    /// Combining tenures whose amortisation collapsed.
    pub stalls: u64,
    /// Crash-recovery annotations.
    pub recovery: RecoveryCounts,
    /// Event counts by label, descending.
    pub event_counts: Vec<(String, u64)>,
    /// The live probe drop gauge at snapshot time — the recorder's
    /// fact, filled in by the live aggregator; 0 from a bare fold.
    pub dropped_gauge: u64,
    /// The cross-thread helped-by graph (`/causal.json`).
    pub causal: CausalReport,
    /// Worst §4.4 bypass count over closed flag→acquire intervals:
    /// acquisitions by others at one `TURN` position of one wait.
    pub max_bypass: u64,
    /// Most acquisitions by others over one whole wait, every `TURN`
    /// position added up — reported, not judged (no `n − 1` theorem
    /// covers it).
    pub max_bypass_over_wait: u64,
    /// Closed flag→acquire intervals.
    pub bypass_intervals: u64,
    /// Flagged processes still waiting at snapshot time.
    pub bypass_open: u64,
    /// Intervals dropped unjudged because a thread reported loss while
    /// they were open.
    pub bypass_voided: u64,
    /// Closed intervals above the bound the fold was built with
    /// ([`Fold::with_bypass_bound`](crate::analyze::Fold::with_bypass_bound));
    /// 0 without one.
    pub bypass_violations: u64,
    /// The [`DETAIL`](crate::analyze::fold::DETAIL) worst closed intervals,
    /// worst first.
    pub worst_bypasses: Vec<Bypassed>,
    /// Per-process worst bypass count, ascending by process id.
    pub bypass_per_proc: Vec<(u32, u64)>,
    /// Distinct process ids seen (`max + 1`) — the `n` in the §4.4
    /// `n − 1` bound. 0 until a proc-carrying event arrives.
    pub procs: u64,
    /// `(thread, events lost)` per thread whose ring ever truncated.
    pub truncated_threads: Vec<(u32, u64)>,
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

impl Snapshot {
    /// Fraction of observed operations reconstructed into well-formed
    /// spans: `spans / (spans + malformed)`. 1.0 on an empty stream.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        match self.spans + self.malformed {
            0 => 1.0,
            total => self.spans as f64 / total as f64,
        }
    }

    /// Fraction of the capture during which *some* operation held the
    /// lock — the serial fraction that bounds scalability. Can exceed
    /// 1.0 only if tenures overlapped: a bug, or several locks under
    /// one process id.
    #[must_use]
    pub fn lock_saturation(&self) -> f64 {
        match self.capture_ns {
            0 => 0.0,
            wall => self.lock_held_ns as f64 / wall as f64,
        }
    }

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
                    .field("max_over_wait", self.max_bypass_over_wait)
                    .field("intervals", self.bypass_intervals)
                    .field("open", self.bypass_open)
                    .field("voided", self.bypass_voided)
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
            "bypass: max {} over {} closed interval(s), {} open, {} voided by loss, {} proc(s) \
             (per TURN position; {} over one whole wait)",
            self.max_bypass,
            self.bypass_intervals,
            self.bypass_open,
            self.bypass_voided,
            self.procs,
            self.max_bypass_over_wait
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
