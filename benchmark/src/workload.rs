//! The four workloads, and what a run of one measures: the end-to-end
//! metrics from untraced rounds, and the workload's own per-layer
//! metrics from a traced re-run.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use cso::queue::CsQueue;
use cso::stack::CsStack;

use crate::ledger::relaxed8;
use crate::objects::{Counts, Target, CAPACITY};
use crate::round::{self, Round, Stop, ThreadTrace, Totals, Tracer};
use crate::stats::{summarize, LatHist, Summary};
use crate::tape::{tapes, Tape, LEN};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Solo,
    Contended,
    Sharded,
    Queue,
}

pub const ALL: [Workload; 4] = [
    Workload::Solo,
    Workload::Contended,
    Workload::Sharded,
    Workload::Queue,
];

/// Ops each worker runs to warm a set-up: one pass over its tape.
const WARMUP_OPS: u64 = LEN as u64;
/// A round reading more than this many times the run's first-quartile
/// rate is set aside (see `end_to_end`).
const SERIALISED_FACTOR: f64 = 2.0;

type RunFn = Box<dyn Fn(&[Tape], Stop, Option<Tracer<'_>>) -> Round>;

/// A workload's object behind one non-generic call.
struct Driver {
    run: RunFn,
    put: &'static str,
    take: &'static str,
}

impl Driver {
    fn of<T: Target>(make: impl Fn() -> T + 'static) -> Driver {
        Driver {
            run: Box::new(move |tapes, stop, tracer| round::run(&make, tapes, stop, tracer)),
            put: T::PUT,
            take: T::TAKE,
        }
    }
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Solo => "solo",
            Workload::Contended => "contended",
            Workload::Sharded => "sharded",
            Workload::Queue => "queue",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn threads(self) -> usize {
        match self {
            Workload::Solo => 1,
            _ => 2,
        }
    }

    /// `solo` and `contended` share one object; only the thread count
    /// differs.
    fn driver(self) -> Driver {
        match self {
            Workload::Solo | Workload::Contended => Driver::of(|| CsStack::<u32>::new(CAPACITY, 2)),
            Workload::Sharded => Driver::of(relaxed8),
            Workload::Queue => Driver::of(|| CsQueue::<u32>::new(CAPACITY, 2)),
        }
    }

    fn is_queue(self) -> bool {
        self == Workload::Queue
    }
}

/// How long the pieces of a run take.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub round: Duration,
    /// Measured rounds of an untraced run.
    pub rounds: usize,
    /// Untraced/traced round pairs of a traced run.
    pub pairs: usize,
    /// Length of one ledger round.
    pub ledger_round: Duration,
}

/// The end-to-end metrics of one untraced run.
pub struct EndToEnd {
    pub setup_s: Summary,
    pub throughput_mops: Summary,
    pub cpu_ns_per_op: Summary,
    pub fairness_min_max: Summary,
    /// Total ops over wall time and total thread-CPU time over total
    /// ops, unfiltered and as measured, for reference.
    pub raw_throughput_mops: Summary,
    pub raw_cpu_ns_per_op: Summary,
    /// The reference pair time during the rounds, as measured.
    pub host_pair_ns: Summary,
    /// Rounds set aside because the host ran the vCPUs in turn.
    pub serialised_rounds: usize,
    pub totals: Totals,
}

impl EndToEnd {
    pub fn failed_ops_share(&self) -> f64 {
        self.totals.failed() as f64 / self.totals.attempted as f64
    }
}

fn summary(values: &[f64]) -> Summary {
    summarize(values).expect("a run has at least one round")
}

pub fn end_to_end(w: Workload, seed: u64, plan: Plan) -> EndToEnd {
    let driver = w.driver();
    let mut totals = Totals::default();

    // A set-up is everything between nothing and an object ready to be
    // measured: tapes, object, prefill, worker start-up and warm-up. One
    // precedes every measured round, so that set-ups are spread over
    // the run like the rounds are and their median is as steady.
    let mut series: [Vec<f64>; 7] = Default::default();
    for _ in 0..plan.rounds {
        let start = Instant::now();
        let tapes = tapes(seed, w.threads());
        let warm = (driver.run)(&tapes, Stop::Ops(WARMUP_OPS), None);
        let setup = start.elapsed().as_secs_f64();
        totals.add(&warm);

        let r = (driver.run)(&tapes, Stop::After(plan.round), None);
        totals.add(&r);
        let t = &r.timings;
        let values = [
            setup,
            t.mops(),
            t.cpu_ns_per_call(),
            t.fairness(),
            t.raw_mops(),
            t.raw_cpu_ns_per_call(),
            t.pair_ns(),
        ];
        series.iter_mut().zip(values).for_each(|(s, v)| s.push(v));
    }
    // Now and then the host runs the two vCPUs in turn rather than side
    // by side for a second or more: each worker then runs at solo speed
    // while the other is off, and the round reads 3-6x the parallel rate.
    // Such a round measured the host, not the object. A round is set
    // aside when it reads more than twice the first-quartile rate of the
    // run (rounds of one run otherwise lie within some 15 % of each
    // other); the first quartile holds up until three rounds in four
    // are affected.
    let ceiling = SERIALISED_FACTOR * summary(&series[1]).q1;
    let kept: Vec<bool> = series[1].iter().map(|&mops| mops <= ceiling).collect();
    let serialised_rounds = kept.iter().filter(|&&k| !k).count();
    let [setup_s, throughput_mops, cpu_ns_per_op, fairness_min_max, raw_throughput_mops, raw_cpu_ns_per_op, host_pair_ns] =
        series.map(|s| {
            let parallel: Vec<f64> = s
                .iter()
                .zip(&kept)
                .filter(|(_, &k)| k)
                .map(|(&v, _)| v)
                .collect();
            summary(&parallel)
        });
    EndToEnd {
        setup_s,
        throughput_mops,
        cpu_ns_per_op,
        fairness_min_max,
        raw_throughput_mops,
        raw_cpu_ns_per_op,
        host_pair_ns,
        serialised_rounds,
        totals,
    }
}

/// A workload's own per-layer metrics, from a traced re-run.
pub struct Traced {
    /// Name (without the workload suffix), unit, value.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// `cpu_ns_per_op` of the untraced rounds of this run.
    pub untraced_cpu_ns_per_op: f64,
    pub totals: Totals,
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Re-runs `w` as `plan.pairs` pairs of one untraced and one traced
/// round, and writes the kept spans to `out/trace-<workload>.jsonl`.
pub fn traced(w: Workload, seed: u64, plan: Plan, out: &Path) -> Result<Traced, String> {
    let driver = w.driver();
    let tapes = tapes(seed, w.threads());
    let epoch = Instant::now();
    let mut traces: Vec<ThreadTrace> = (0..w.threads()).map(|_| ThreadTrace::default()).collect();
    let mut totals = Totals::default();
    let mut counts = Counts::default();
    let (mut plain_tput, mut plain_cpu, mut traced_tput) = (Vec::new(), Vec::new(), Vec::new());
    let mut round_spans = Vec::new();

    for pair in 0..plan.pairs {
        let plain = (driver.run)(&tapes, Stop::After(plan.round), None);
        plain_tput.push(plain.timings.mops());
        plain_cpu.push(plain.timings.cpu_ns_per_call());
        totals.add(&plain);
        counts.add(plain.counts);

        let id = pair as u32 + 1;
        let tracer = Tracer {
            epoch,
            round: id,
            threads: &mut traces,
        };
        let spanned = (driver.run)(&tapes, Stop::After(plan.round), Some(tracer));
        traced_tput.push(spanned.timings.mops());
        totals.add(&spanned);
        counts.add(spanned.counts);
        round_spans.push((id, spanned.start_ns, spanned.end_ns));
    }
    let run_end_ns = epoch.elapsed().as_nanos() as u64;

    let mut hist = LatHist::default();
    traces.iter().for_each(|t| hist.merge(&t.hist));
    let percentile = |p: f64| {
        hist.percentile(p).map(|ns| ns as f64).ok_or_else(|| {
            format!(
                "{}: {} span samples are too few for the {p} percentile",
                w.name(),
                hist.count()
            )
        })
    };
    let abort_share = share(counts.aborts, counts.attempts);
    let overhead = 1.0 - summary(&traced_tput).median / summary(&plain_tput).median;
    let metrics = vec![
        (
            "stack.abort_share",
            "ratio",
            if w.is_queue() { 0.0 } else { abort_share },
        ),
        (
            "queue.abort_share",
            "ratio",
            if w.is_queue() { abort_share } else { 0.0 },
        ),
        (
            "core.locked_share",
            "ratio",
            share(counts.locked, counts.completed),
        ),
        (
            "shard.steal_share",
            "ratio",
            share(counts.steals, counts.routed),
        ),
        (
            "shard.spill_share",
            "ratio",
            share(counts.spills, counts.routed),
        ),
        ("lat.p50_ns", "ns", percentile(0.5)?),
        ("lat.p99_ns", "ns", percentile(0.99)?),
        ("lat.p999_ns", "ns", percentile(0.999)?),
        ("lat.samples", "count", hist.count() as f64),
        ("trace.overhead_share", "ratio", overhead),
    ];

    write_spans(w, &driver, &traces, &round_spans, run_end_ns, out)
        .map_err(|e| format!("writing the span file of {}: {e}", w.name()))?;
    Ok(Traced {
        metrics,
        untraced_cpu_ns_per_op: summary(&plain_cpu).median,
        totals,
    })
}

/// One JSON object per line: the run span, the round spans (parent =
/// run), then each thread's kept call spans (parent = their round).
fn write_spans(
    w: Workload,
    driver: &Driver,
    traces: &[ThreadTrace],
    rounds: &[(u32, u64, u64)],
    run_end_ns: u64,
    out: &Path,
) -> std::io::Result<()> {
    let mut text = String::new();
    let _ = writeln!(
        text,
        r#"{{"id":0,"parent":null,"name":"run:{}","thread":null,"start_ns":0,"end_ns":{run_end_ns}}}"#,
        w.name()
    );
    for (id, start, end) in rounds {
        let _ = writeln!(
            text,
            r#"{{"id":{id},"parent":0,"name":"round","thread":null,"start_ns":{start},"end_ns":{end}}}"#
        );
    }
    let mut id = rounds.len() as u64;
    for (thread, trace) in traces.iter().enumerate() {
        for span in &trace.kept {
            id += 1;
            let name = if span.put { driver.put } else { driver.take };
            let _ = writeln!(
                text,
                r#"{{"id":{id},"parent":{},"name":"{name}","thread":{thread},"start_ns":{},"end_ns":{}}}"#,
                span.round, span.start_ns, span.end_ns
            );
        }
    }
    std::fs::create_dir_all(out)?;
    std::fs::write(out.join(format!("trace-{}.jsonl", w.name())), text)
}
