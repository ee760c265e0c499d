//! Running the pieces in order, printing every metric by name and unit,
//! and the JSON forms: the one-line result of a single run and
//! `out/report.json` of a full set.

use std::fmt::Write as _;
use std::path::Path;

use crate::host;
use crate::ledger::{self, Ledger};
use crate::round::Totals;
use crate::stats::Summary;
use crate::tape::tape;
use crate::workload::{self, EndToEnd, Plan, Traced, Workload, ALL};

/// An end-to-end metric: how to read it off a run and by what share of
/// the first set's median the second may differ.
struct Metric {
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    of: fn(&EndToEnd) -> Summary,
    bound: fn(Workload) -> f64,
}

/// What ten 30 s runs on this host support (see README, "Measured
/// steadiness"): `solo` at the reference clock spreads 0.04-0.08
/// (IQR/median), the two-thread workloads 0.06-0.17, and the gap
/// between two single sets is wider than either.
fn speed_bound(w: Workload) -> f64 {
    if w == Workload::Solo {
        0.10
    } else {
        0.25
    }
}

const END_TO_END: [Metric; 4] = [
    Metric {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        of: |e| e.setup_s,
        bound: |_| 0.25,
    },
    Metric {
        name: "throughput_mops",
        unit: "Mops/s",
        higher_is_better: true,
        of: |e| e.throughput_mops,
        bound: speed_bound,
    },
    Metric {
        name: "cpu_ns_per_op",
        unit: "ns",
        higher_is_better: false,
        of: |e| e.cpu_ns_per_op,
        bound: speed_bound,
    },
    Metric {
        name: "fairness_min_max",
        unit: "ratio",
        higher_is_better: true,
        of: |e| e.fairness_min_max,
        bound: |_| 0.25,
    },
];

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn header(what: &str, seed: u64, plan: Plan, totals_pinned: bool) {
    println!(
        "# cso-benchmark {what} seed={seed} nproc={} pinned={totals_pinned} rounds={}x{:.3}s {}",
        nproc(),
        plan.rounds,
        plan.round.as_secs_f64(),
        host::rustc_version(),
    );
    if !totals_pinned {
        println!("# pinned=false: threads could not be pinned to distinct CPUs; two-thread figures are unresolved on this host");
    }
}

fn print_summary(name: &str, workload: &str, unit: &str, s: Summary, note: &str) {
    println!(
        "{name:<30} {workload:<10} {:>14.6} {unit:<7} q1 {:.6}  q3 {:.6}  n={}{note}",
        s.median, s.q1, s.q3, s.n
    );
}

/// The untouched totals behind the metrics, and the host's reference
/// pair time during the rounds.
fn reference_figures(e: &EndToEnd) -> [(&'static str, &'static str, Summary); 3] {
    [
        ("raw.throughput_mops", "Mops/s", e.raw_throughput_mops),
        ("raw.cpu_ns_per_op", "ns", e.raw_cpu_ns_per_op),
        ("host.pair_ns", "ns", e.host_pair_ns),
    ]
}

fn print_end_to_end(w: Workload, e: &EndToEnd) {
    for m in &END_TO_END {
        let direction = if m.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        let note = format!(
            "  ({direction} is better, bound {:.0} %)",
            (m.bound)(w) * 100.0
        );
        print_summary(m.name, w.name(), m.unit, (m.of)(e), &note);
    }
    for (name, unit, s) in reference_figures(e) {
        print_summary(name, w.name(), unit, s, "  (as measured, for reference)");
    }
    println!(
        "{:<30} {:<10} {:>14} {:<7} of {} rounds set aside: the host ran the vCPUs in turn",
        "serialised_rounds",
        w.name(),
        e.serialised_rounds,
        "count",
        e.serialised_rounds + e.throughput_mops.n,
    );
    println!(
        "{:<30} {:<10} {:>14.6} {:<7} {} refused + {} violations of {} ops  (lower is better, bound: any increase)",
        "failed_ops_share",
        w.name(),
        e.failed_ops_share(),
        "ratio",
        e.totals.refused,
        e.totals.violations,
        e.totals.attempted,
    );
}

fn number(v: f64) -> String {
    assert!(v.is_finite(), "a metric is not a finite number");
    format!("{v}")
}

/// The last line of a single run.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &str, f64)],
) -> String {
    let mut line = format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{"#
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let comma = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            r#"{comma}"{name}": {{"value": {}, "unit": "{unit}"}}"#,
            number(*value)
        );
    }
    line.push_str("}}");
    line
}

/// `--trace 0`: the end-to-end metrics of one workload.
pub fn single(w: Workload, seed: u64, plan: Plan) -> Result<bool, String> {
    let e = workload::end_to_end(w, seed, plan);
    header(
        &format!("workload={} trace=0", w.name()),
        seed,
        plan,
        !e.totals.unpinned,
    );
    print_end_to_end(w, &e);
    let correct = e.totals.violations == 0;
    let metrics: Vec<_> = END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), m.unit, (m.of)(&e).median))
        .collect();
    println!(
        "{}",
        result_line(correct, e.totals.attempted, e.totals.failed(), &metrics)
    );
    Ok(correct)
}

fn print_ledger(ledger: &Ledger) {
    for (name, unit, s) in &ledger.metrics {
        print_summary(name, "-", unit, *s, "");
    }
}

fn print_traced(w: Workload, t: &Traced) {
    for (name, unit, value) in &t.metrics {
        println!(
            "{:<30} {:<10} {value:>14.6} {unit}",
            format!("{name}.{}", w.name()),
            w.name()
        );
    }
}

/// The ledger consistency check. Returns whether the hard part holds:
/// Theorem 1's access counts are exact integers that must never move.
fn check_ledger(
    ledger: &Ledger,
    solo_cpu_ns_per_op: Option<f64>,
    overheads: &[(Workload, f64)],
) -> (bool, bool) {
    println!("# ledger consistency");
    let stack = ledger.median("memory.accesses_per_op.stack");
    let queue = ledger.median("memory.accesses_per_op.queue");
    let counts_ok = stack == 6.0 && queue == 7.0;
    println!(
        "#   memory.accesses_per_op: stack {stack} (must be 6), queue {queue} (must be 7): {}",
        if counts_ok { "ok" } else { "FAILED" }
    );
    let mut agrees = true;
    match solo_cpu_ns_per_op {
        Some(solo) => {
            let cs = ledger.median("core.cs_ns");
            let gap = (cs - solo).abs() / solo;
            agrees = gap <= speed_bound(Workload::Solo);
            println!(
                "#   core.cs_ns {cs:.3} vs solo cpu_ns_per_op {solo:.3}: gap {:.2} % (bound {:.0} %): {}",
                gap * 100.0,
                speed_bound(Workload::Solo) * 100.0,
                if agrees { "ok" } else { "DISAGREES" }
            );
        }
        None => println!(
            "#   core.cs_ns vs solo cpu_ns_per_op: not checked (this run measured no solo rounds)"
        ),
    }
    for (w, overhead) in overheads {
        println!("#   trace.overhead_share.{}: {overhead:.4}", w.name());
    }
    (counts_ok, agrees)
}

fn overhead_of(t: &Traced) -> f64 {
    t.metrics
        .iter()
        .find(|(name, _, _)| *name == "trace.overhead_share")
        .map(|(_, _, v)| *v)
        .expect("a traced run reports its overhead")
}

/// `--trace 1`: the ledger and the workload's own per-layer metrics.
pub fn single_traced(w: Workload, seed: u64, plan: Plan, out: &Path) -> Result<bool, String> {
    let ledger = ledger::run(&tape(seed, 0), plan.ledger_round);
    let t = workload::traced(w, seed, plan, out)?;
    let mut totals = ledger.totals;
    totals.merge(t.totals);
    header(
        &format!("workload={} trace=1", w.name()),
        seed,
        plan,
        !totals.unpinned,
    );
    println!(
        "# ledger: {} rounds x {:.3}s per rung; traced re-run: {} untraced/traced round pairs",
        ledger::ROUNDS,
        plan.ledger_round.as_secs_f64(),
        plan.pairs
    );
    print_ledger(&ledger);
    print_traced(w, &t);
    let solo = (w == Workload::Solo).then_some(t.untraced_cpu_ns_per_op);
    let (counts_ok, _) = check_ledger(&ledger, solo, &[(w, overhead_of(&t))]);

    let correct = counts_ok && totals.violations == 0;
    let mut metrics: Vec<(String, &str, f64)> = ledger
        .metrics
        .iter()
        .map(|(name, unit, s)| (name.to_string(), *unit, s.median))
        .collect();
    metrics.extend(
        t.metrics
            .iter()
            .map(|(name, unit, v)| (name.to_string(), *unit, *v)),
    );
    println!(
        "{}",
        result_line(correct, totals.attempted, totals.failed(), &metrics)
    );
    Ok(correct)
}

fn json_summary(s: Summary, unit: &str) -> String {
    format!(
        r#"{{"value": {}, "q1": {}, "q3": {}, "n": {}, "unit": "{unit}"}}"#,
        number(s.median),
        number(s.q1),
        number(s.q3),
        s.n
    )
}

fn json_set(set: &[(Workload, EndToEnd)]) -> String {
    let mut text = String::from("{");
    for (i, (w, e)) in set.iter().enumerate() {
        let comma = if i == 0 { "" } else { ", " };
        let _ = write!(text, r#"{comma}"{}": {{"#, w.name());
        for m in &END_TO_END {
            let _ = write!(
                text,
                r#""{}": {}, "#,
                m.name,
                json_summary((m.of)(e), m.unit)
            );
        }
        for (name, unit, s) in reference_figures(e) {
            let _ = write!(text, r#""{name}": {}, "#, json_summary(s, unit));
        }
        let _ = write!(
            text,
            r#""failed_ops_share": {{"value": {}, "unit": "ratio"}}, "serialised_rounds": {}, "attempted": {}, "refused": {}, "violations": {}}}"#,
            number(e.failed_ops_share()),
            e.serialised_rounds,
            e.totals.attempted,
            e.totals.refused,
            e.totals.violations
        );
    }
    text.push('}');
    text
}

/// Two sets of the same code must agree within the benchmark's own
/// bounds on every workload and end-to-end metric.
fn compare_sets(first: &[(Workload, EndToEnd)], second: &[(Workload, EndToEnd)]) -> bool {
    println!("# repeat check: set 1 vs set 2, same code");
    println!(
        "# {:<18} {:<10} {:>14} {:>14} {:>8} {:>7}",
        "metric", "workload", "set 1", "set 2", "gap", "bound"
    );
    let mut agree = true;
    for ((w, a), (_, b)) in first.iter().zip(second) {
        for m in &END_TO_END {
            let (x, y) = ((m.of)(a).median, (m.of)(b).median);
            let gap = (y - x).abs() / x;
            let bound = (m.bound)(*w);
            let ok = gap <= bound;
            agree &= ok;
            println!(
                "  {:<18} {:<10} {x:>14.6} {y:>14.6} {:>7.2}% {:>6.0}%  {}",
                m.name,
                w.name(),
                gap * 100.0,
                bound * 100.0,
                if ok { "ok" } else { "BREACH" }
            );
        }
        let (x, y) = (a.failed_ops_share(), b.failed_ops_share());
        let ok = y <= x;
        agree &= ok;
        println!(
            "  {:<18} {:<10} {x:>14.6} {y:>14.6} {:>8} {:>7}  {}",
            "failed_ops_share",
            w.name(),
            "-",
            "none",
            if ok { "ok" } else { "BREACH" }
        );
    }
    agree
}

/// The full set: every workload untraced, `repeat` times; then the
/// ledger and a traced re-run of every workload.
pub fn full(
    seed: u64,
    seconds: u64,
    plan: Plan,
    repeat: usize,
    out: &Path,
) -> Result<bool, String> {
    let mut sets: Vec<Vec<(Workload, EndToEnd)>> = Vec::new();
    let mut totals = Totals::default();
    for set in 0..repeat {
        let mut results = Vec::new();
        for w in ALL {
            let e = workload::end_to_end(w, seed, plan);
            if set == 0 && w == ALL[0] {
                header(
                    &format!("full set x{repeat}"),
                    seed,
                    plan,
                    !e.totals.unpinned,
                );
            }
            println!("# set {} of {repeat}", set + 1);
            print_end_to_end(w, &e);
            totals.merge(e.totals);
            results.push((w, e));
        }
        sets.push(results);
    }

    println!(
        "# traced run: ledger {} rounds x {:.3}s per rung, then {} untraced/traced round pairs per workload",
        ledger::ROUNDS,
        plan.ledger_round.as_secs_f64(),
        plan.pairs
    );
    let ledger = ledger::run(&tape(seed, 0), plan.ledger_round);
    totals.merge(ledger.totals);
    print_ledger(&ledger);
    let mut traced = Vec::new();
    for w in ALL {
        let t = workload::traced(w, seed, plan, out)?;
        print_traced(w, &t);
        totals.merge(t.totals);
        traced.push((w, t));
    }
    let solo = sets[0][0].1.cpu_ns_per_op.median;
    let overheads: Vec<_> = traced.iter().map(|(w, t)| (*w, overhead_of(t))).collect();
    let (counts_ok, agrees) = check_ledger(&ledger, Some(solo), &overheads);

    println!(
        "# outputs: {} conservation/order violations, {} Full/Empty answers, {} ops attempted",
        totals.violations, totals.refused, totals.attempted
    );
    let sets_agree = repeat < 2 || compare_sets(&sets[0], &sets[1]);

    let mut text = String::from("{\n");
    let _ = writeln!(
        text,
        r#"  "host": {{"nproc": {}, "pinned": {}, "rustc": "{}"}},"#,
        nproc(),
        !totals.unpinned,
        host::rustc_version()
    );
    let _ = writeln!(
        text,
        r#"  "run": {{"seed": {seed}, "seconds": {seconds}, "rounds": {}, "round_s": {}, "ledger_rounds": {}, "ledger_round_s": {}, "trace_pairs": {}}},"#,
        plan.rounds,
        number(plan.round.as_secs_f64()),
        ledger::ROUNDS,
        number(plan.ledger_round.as_secs_f64()),
        plan.pairs
    );
    let sets_json: Vec<String> = sets.iter().map(|s| json_set(s)).collect();
    let _ = writeln!(text, r#"  "end_to_end": [{}],"#, sets_json.join(", "));
    text.push_str(r#"  "per_layer": {"#);
    let mut first = true;
    let mut entry = |text: &mut String, name: &str, body: String| {
        let comma = if std::mem::take(&mut first) { "" } else { ", " };
        let _ = write!(text, r#"{comma}"{name}": {body}"#);
    };
    for (name, unit, s) in &ledger.metrics {
        entry(&mut text, name, json_summary(*s, unit));
    }
    for (w, t) in &traced {
        for (name, unit, v) in &t.metrics {
            let body = format!(r#"{{"value": {}, "unit": "{unit}"}}"#, number(*v));
            entry(&mut text, &format!("{name}.{}", w.name()), body);
        }
    }
    text.push_str("}\n}\n");
    std::fs::create_dir_all(out)
        .and_then(|()| std::fs::write(out.join("report.json"), text))
        .map_err(|e| format!("writing {}: {e}", out.join("report.json").display()))?;
    println!("# wrote {}", out.join("report.json").display());

    Ok(counts_ok && agrees && totals.violations == 0 && sets_agree)
}
