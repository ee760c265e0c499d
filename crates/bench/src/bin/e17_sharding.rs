//! E17 — sharded elastic multi-lane scaling.
//!
//! The question: past what the escalation ladder can absorb, does
//! splitting one Figure-3 cell into N independent lanes behind the
//! cso-shard router actually buy throughput — and what does each
//! ordering discipline pay for it?
//!
//! Three parts:
//!
//! 1. **Amortized sweep** (fast path on): single cell vs strict and
//!    relaxed sharding across the thread grid. On a machine with more
//!    threads than cores the fast path rarely aborts, so these rows
//!    cluster — the sweep documents that sharding costs nothing when
//!    contention is cheap.
//! 2. **Forced-contention sweep** — the acceptance regime, E12/E13
//!    precedent: the fast path is forced off and a fixed
//!    [`Fault::Delay`] is armed inside the lock-held section
//!    (`cs::locked`), modelling a critical section with real latency
//!    (I/O, page faults, long combine batches). A single cell
//!    serializes every delay behind one lock; relaxed lanes overlap
//!    them, so throughput scales with the lane count even on one core
//!    — while strict mode's order latch serializes lane selection
//!    *across* lanes and stays at the single-cell floor (the "order
//!    tax" the k-relaxed mode exists to dodge). The run **asserts**
//!    `relaxed/8 ≥ 4× cell` whenever a 32-thread cell is present.
//! 3. **Solo budget audit**: a solo push/pop through every sharded
//!    mode (strict, relaxed, elastic-contracted) must cost exactly the
//!    Theorem-1 budget of the underlying cell — 6 counted accesses for
//!    the stack, 7 for the queue. Asserted unconditionally.
//!
//! Besides the tables, the run writes a machine-readable
//! `results/BENCH_e17_sharding.json` in the shared report shape
//! (`CSO_BENCH_OUT_DIR` overrides the directory) so CI can validate
//! the numbers.

use std::time::Duration;

use cso_bench::adapters::{drive_stack, prefill_stack, BenchStack};
use cso_bench::jsonreport::BenchReport;
use cso_bench::report::{fmt_rate, Table};
use cso_bench::workload::OpMix;
use cso_bench::{cell_duration, thread_counts};
use cso_core::CsConfig;
use cso_locks::TasLock;
use cso_memory::chaos::{self, Fault, Plan};
use cso_memory::CountScope;
use cso_metrics::Json;
use cso_queue::{DequeueOutcome, EnqueueOutcome};
use cso_shard::{ShardConfig, ShardedCsQueue, ShardedCsStack};
use cso_stack::{CsStack, PopOutcome, PushOutcome};

const CAPACITY: usize = 8192;
const PREFILL: usize = CAPACITY / 2;
/// Simulated in-lock latency for the forced sweep.
const LOCK_DELAY: Duration = Duration::from_micros(50);

/// One variant of the sweep: a single cell or a sharded wrapper.
/// A handful of these exist per sweep and the benchmark loop matches
/// through a reference, so boxing the large variant would only add a
/// pointer hop to the measured path.
#[allow(clippy::large_enum_variant)]
enum Subject {
    Cell(CsStack<u32>),
    Shard(ShardedCsStack<u32>),
}

struct Variant {
    label: &'static str,
    subject: Subject,
}

impl Variant {
    fn cell(cs: CsConfig, n: usize) -> Variant {
        Variant {
            label: "cell",
            subject: Subject::Cell(CsStack::with_config(CAPACITY, TasLock::new(), n, cs)),
        }
    }

    fn shard(label: &'static str, config: ShardConfig, n: usize) -> Variant {
        Variant {
            label,
            subject: Subject::Shard(ShardedCsStack::new(CAPACITY, n, config)),
        }
    }

    fn shard_stats(&self) -> Option<cso_shard::RouterStats> {
        match &self.subject {
            Subject::Cell(_) => None,
            Subject::Shard(s) => Some(s.router_stats()),
        }
    }
}

impl BenchStack for Variant {
    fn name(&self) -> &'static str {
        self.label
    }

    fn push(&self, proc: usize, value: u32) -> bool {
        match &self.subject {
            Subject::Cell(s) => s.push(proc, value) == PushOutcome::Pushed,
            Subject::Shard(s) => s.push(proc, value) == PushOutcome::Pushed,
        }
    }

    fn pop(&self, proc: usize) -> Option<u32> {
        match &self.subject {
            Subject::Cell(s) => s.pop(proc).into_option(),
            Subject::Shard(s) => s.pop(proc).into_option(),
        }
    }
}

/// The variant grid for one sweep. `k = CAPACITY` keeps every relaxed
/// lane at its natural `capacity / lanes` size, so the configured
/// relaxation bound is what the lane layout implies.
fn variants(cs: CsConfig, n: usize) -> Vec<Variant> {
    vec![
        Variant::cell(cs, n),
        Variant::shard("strict/2", ShardConfig::strict(2).with_cs(cs), n),
        Variant::shard("strict/8", ShardConfig::strict(8).with_cs(cs), n),
        Variant::shard(
            "relaxed/2",
            ShardConfig::relaxed(2, CAPACITY).with_cs(cs),
            n,
        ),
        Variant::shard(
            "relaxed/4",
            ShardConfig::relaxed(4, CAPACITY).with_cs(cs),
            n,
        ),
        Variant::shard(
            "relaxed/8",
            ShardConfig::relaxed(8, CAPACITY).with_cs(cs),
            n,
        ),
        Variant::shard(
            "elastic/8",
            ShardConfig::relaxed(8, CAPACITY).with_elastic().with_cs(cs),
            n,
        ),
    ]
}

/// Runs one sweep over the thread grid; returns (labels, rates) with
/// `rates[variant][thread_idx]`, plus the router stats of the elastic
/// variant at the widest thread count.
#[allow(clippy::type_complexity)]
fn sweep(
    threads_list: &[usize],
    cs: CsConfig,
) -> (
    Vec<&'static str>,
    Vec<Vec<f64>>,
    Option<cso_shard::RouterStats>,
) {
    let labels: Vec<&'static str> = variants(cs, 1).iter().map(|v| v.label).collect();
    let mut rates: Vec<Vec<f64>> = vec![Vec::new(); labels.len()];
    let mut elastic_stats = None;
    for &threads in threads_list {
        for (i, variant) in variants(cs, threads.max(1)).into_iter().enumerate() {
            prefill_stack(&variant, PREFILL);
            let run = drive_stack(&variant, threads, cell_duration(), OpMix::BALANCED, 0);
            rates[i].push(run.ops_per_sec());
            if variant.label == "elastic/8" {
                elastic_stats = variant.shard_stats();
            }
        }
    }
    (labels, rates, elastic_stats)
}

fn print_sweep(title: &str, threads_list: &[usize], labels: &[&str], rates: &[Vec<f64>]) {
    println!("{title}");
    let mut headers: Vec<String> = vec!["impl".into()];
    headers.extend(threads_list.iter().map(|t| format!("{t} thr")));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(&header_refs);
    for (label, row) in labels.iter().zip(rates) {
        let mut cells = vec![(*label).to_owned()];
        cells.extend(row.iter().map(|&r| fmt_rate(r)));
        table.row(cells);
    }
    table.print();
    println!();
}

fn json_rows(threads_list: &[usize], labels: &[&str], rates: &[Vec<f64>]) -> Json {
    Json::Arr(
        labels
            .iter()
            .zip(rates)
            .map(|(label, row)| {
                let mut obj = Json::obj().field("impl", *label);
                for (&threads, &rate) in threads_list.iter().zip(row) {
                    obj = obj.field(&format!("threads_{threads}"), rate);
                }
                obj
            })
            .collect(),
    )
}

/// Solo counted-access budgets through every sharded mode: the router
/// must be invisible to Theorem 1.
fn audit_budgets() -> Json {
    chaos::reset();
    let configs = [
        ("strict", ShardConfig::strict(4)),
        ("relaxed", ShardConfig::relaxed(4, 8)),
        ("elastic", ShardConfig::relaxed(4, 8).with_elastic()),
    ];
    let mut out = Json::obj();
    for (name, config) in configs {
        let stack: ShardedCsStack<u32> = ShardedCsStack::new(16, 2, config);
        let scope = CountScope::start();
        assert_eq!(stack.push(0, 7), PushOutcome::Pushed);
        let push_cost = scope.take().total();
        let scope = CountScope::start();
        assert_eq!(stack.pop(0), PopOutcome::Popped(7));
        let pop_cost = scope.take().total();
        assert_eq!(push_cost, 6, "{name}: solo sharded push must cost 6");
        assert_eq!(pop_cost, 6, "{name}: solo sharded pop must cost 6");

        let queue: ShardedCsQueue<u32> = ShardedCsQueue::new(16, 2, config);
        let scope = CountScope::start();
        assert_eq!(queue.enqueue(0, 7), EnqueueOutcome::Enqueued);
        let enq_cost = scope.take().total();
        let scope = CountScope::start();
        assert_eq!(queue.dequeue(0), DequeueOutcome::Dequeued(7));
        let deq_cost = scope.take().total();
        assert_eq!(enq_cost, 7, "{name}: solo sharded enqueue must cost 7");
        assert_eq!(deq_cost, 7, "{name}: solo sharded dequeue must cost 7");

        out = out.field(
            name,
            Json::obj()
                .field("stack_push", push_cost)
                .field("stack_pop", pop_cost)
                .field("queue_enqueue", enq_cost)
                .field("queue_dequeue", deq_cost),
        );
        println!(
            "  {name:>8}: stack {push_cost}/{pop_cost}, queue {enq_cost}/{deq_cost} counted accesses"
        );
    }
    out
}

fn stats_json(stats: &cso_shard::RouterStats) -> Json {
    Json::obj()
        .field("pushes", stats.pushes)
        .field("pops", stats.pops)
        .field("steals", stats.steals)
        .field("spills", stats.spills)
        .field("splits", stats.splits)
        .field("merges", stats.merges)
        .field("heals", stats.heals)
        .field("active_lanes", stats.active_lanes as u64)
}

fn main() {
    let threads_list = thread_counts();
    println!("E17: sharded elastic multi-lane scaling, 50/50 push/pop, prefilled half");
    println!(
        "({} ms per cell, capacity {CAPACITY}, k = capacity for relaxed lanes)\n",
        cell_duration().as_millis()
    );

    println!("Solo budget audit (router must preserve Theorem 1 exactly):");
    let budgets = audit_budgets();
    println!();

    // Part 1: fast path on — sharding must not cost anything when the
    // cell absorbs contention on its own.
    chaos::reset();
    let (labels, amortized, _) = sweep(&threads_list, CsConfig::PAPER);
    print_sweep(
        "Amortized sweep (fast path on):",
        &threads_list,
        &labels,
        &amortized,
    );

    // Part 2: forced contention — fast path off, a fixed delay inside
    // every lock tenure. One cell serializes the delays; relaxed lanes
    // overlap them.
    chaos::reset();
    chaos::arm_plan("cs::locked", Plan::one_in(Fault::Delay(LOCK_DELAY), 1));
    let (_, forced, elastic_stats) = sweep(&threads_list, CsConfig::PAPER.without_fast_path());
    chaos::reset();
    print_sweep(
        &format!(
            "Forced-contention sweep (fast path off, {}us in-lock delay):",
            LOCK_DELAY.as_micros()
        ),
        &threads_list,
        &labels,
        &forced,
    );

    let cell_row = labels.iter().position(|&l| l == "cell").expect("cell row");
    let relaxed8_row = labels
        .iter()
        .position(|&l| l == "relaxed/8")
        .expect("relaxed/8 row");
    let mut speedup_at_32 = None;
    if let Some(t32) = threads_list.iter().position(|&t| t == 32) {
        let speedup = forced[relaxed8_row][t32] / forced[cell_row][t32];
        println!("relaxed/8 over cell at 32 threads (forced): {speedup:.2}x");
        assert!(
            speedup >= 4.0,
            "acceptance: relaxed/8 must be >= 4x the single cell at 32 threads \
             under forced contention (got {speedup:.2}x)"
        );
        speedup_at_32 = Some(speedup);
    } else {
        println!("(32-thread cell absent — raise CSO_MAX_THREADS to arm the 4x assertion)");
    }

    if let Some(ref stats) = elastic_stats {
        println!(
            "elastic/8 at {} threads: active {} lanes, {} splits, {} merges, \
             {} steals, {} spills",
            threads_list.last().unwrap_or(&0),
            stats.active_lanes,
            stats.splits,
            stats.merges,
            stats.steals,
            stats.spills
        );
    }

    let mut report = BenchReport::new("e17_sharding")
        .config("bench_ms", cell_duration().as_millis() as u64)
        .config("mix", "50/50")
        .config("capacity", CAPACITY as u64)
        .config("lock_delay_us", LOCK_DELAY.as_micros() as u64)
        .config(
            "threads",
            Json::Arr(threads_list.iter().map(|&t| Json::U64(t as u64)).collect()),
        )
        .metric("solo_budgets", budgets)
        .metric(
            "amortized_ops_per_sec",
            json_rows(&threads_list, &labels, &amortized),
        )
        .metric(
            "forced_ops_per_sec",
            json_rows(&threads_list, &labels, &forced),
        );
    if let Some(speedup) = speedup_at_32 {
        report = report.metric("forced_speedup_relaxed8_at_32", speedup);
    }
    if let Some(ref stats) = elastic_stats {
        report = report.metric("elastic_router", stats_json(stats));
    }
    report.write();

    println!("\nReading: the solo audit pins the router's fast-path cost at zero");
    println!("counted accesses. Amortized sweep: a relaxed op that stays in its home");
    println!("lane writes no shared line, so threads that truly run in parallel keep");
    println!("solo speed per lane while a single cell's TOP line bounces between");
    println!("them; strict mode's latch and elastic mode's in-flight sensor are");
    println!("shared writes per op, and their rows show it. Forced sweep: relaxed");
    println!("sharding overlaps lock tenures that a single cell must serialize,");
    println!("while strict mode pays the order latch and stays at the floor. The");
    println!("elastic variant should converge on the relaxed/8 row once the gate");
    println!("fans out, and fold back to one lane (six-access solo budget intact)");
    println!("when contention drains.");
    cso_bench::tracing::emit("e17_sharding");
}
