//! The `cso-analyze` command-line front end.
//!
//! ```text
//! cso-analyze spans   <events.tsv>                       span reconstruction + critical path
//! cso-analyze bypass  <events.tsv> [--procs N] [--bound K]   §4.4 bypass-bound check
//! cso-analyze convoy  <events.tsv> [--gap-ns G]          lock convoys + combiner stalls
//! cso-analyze collapse <events.tsv>                      collapsed stacks (flamegraph input)
//! cso-analyze causal  <events.tsv>                       cross-thread helped-by graph
//! cso-analyze check   <events.tsv> [--procs N] [--bound K] [--min-coverage F]
//!                     [--min-attribution F]
//! ```
//!
//! Exit status: 0 clean, 1 an analysis found a violation (bypass
//! bound exceeded, span coverage below threshold), 2 usage / IO /
//! parse errors.

use std::process::ExitCode;

use cso_analyze::spans::SpanReport;
use cso_analyze::{bypass, causal, collapse, convoy, log::EventLog, spans};

/// Minimum fraction of observed operations that must reconstruct into
/// well-formed spans for `check` to pass.
const DEFAULT_MIN_COVERAGE: f64 = 0.99;

fn usage() -> ExitCode {
    eprintln!(
        "usage: cso-analyze <command> [args]\n\
         \n\
         trace commands (input: a cso-trace-events v1 TSV file):\n\
         \x20 spans    <events.tsv>                     reconstruct operation spans\n\
         \x20 bypass   <events.tsv> [--procs N] [--bound K]  check the section-4.4 bypass bound\n\
         \x20 convoy   <events.tsv> [--gap-ns G]        detect lock convoys and combiner stalls\n\
         \x20 collapse <events.tsv>                     emit collapsed stacks (ns weights)\n\
         \x20 causal   <events.tsv>                     cross-thread helped-by graph\n\
         \x20 check    <events.tsv> [--procs N] [--bound K] [--min-coverage F]\n\
         \x20          [--min-attribution F]            spans + bypass + causal attribution;\n\
         \x20                                           nonzero exit on failure"
    );
    ExitCode::from(2)
}

/// Parses `--flag value` pairs out of `args`, leaving positionals.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) if i + 1 < args.len() => {
            args.remove(i);
            Ok(Some(args.remove(i)))
        }
        Some(_) => Err(format!("{flag} needs a value")),
    }
}

fn parse_flag<T: std::str::FromStr>(
    args: &mut Vec<String>,
    flag: &str,
) -> Result<Option<T>, String> {
    take_flag(args, flag)?
        .map(|v| {
            v.parse()
                .map_err(|_| format!("bad value for {flag}: {v:?}"))
        })
        .transpose()
}

fn load_log(path: &str) -> Result<EventLog, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    EventLog::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn print_span_report(report: &SpanReport, log: &EventLog) {
    println!(
        "events: {} ({} dropped by the ring, {} thread(s) truncated)",
        log.rows.len(),
        log.dropped,
        log.truncated.len()
    );
    println!(
        "spans: {} well-formed, {} in flight at capture end, {} truncation orphan(s), {} malformed",
        report.spans.len(),
        report.open,
        report.truncated_events,
        report.malformed.len()
    );
    println!("coverage: {:.2}%", report.coverage() * 100.0);
    if report.recovery.any() {
        println!(
            "recovery: {} suspicion(s) raised, {} orphaned record(s) reclaimed, {} lock succession(s)",
            report.recovery.suspects, report.recovery.reclaimed, report.recovery.successions
        );
    }
    for m in report.malformed.iter().take(5) {
        println!(
            "  malformed: thread {} seq {} `{}` illegal in state `{}`",
            m.thread, m.seq, m.event, m.state
        );
    }
    if report.malformed.len() > 5 {
        println!("  ... and {} more", report.malformed.len() - 5);
    }

    let cp = collapse::critical_path(report);
    if !cp.per_path.is_empty() {
        println!("\nper-path durations (ns):");
        println!(
            "  {:<10} {:>8} {:>10} {:>10} {:>10} {:>10}",
            "path", "count", "mean", "p50", "p99", "max"
        );
        for (label, stats) in &cp.per_path {
            println!(
                "  {:<10} {:>8} {:>10} {:>10} {:>10} {:>10}",
                label,
                stats.count,
                stats.mean_ns(),
                stats.p50_ns,
                stats.p99_ns,
                stats.max_ns
            );
        }
        println!(
            "\nlock held {} ns over a {} ns capture: {:.1}% saturated",
            cp.lock_held_ns,
            cp.wall_ns,
            cp.lock_saturation() * 100.0
        );
        if let Some(longest) = &cp.longest {
            println!(
                "longest span: {} ns on the {} path (thread {}, seq {}..{})",
                longest.duration_ns(),
                longest.path.label(),
                longest.thread,
                longest.start_seq,
                longest.end_seq
            );
        }
    }
}

fn print_bypass_report(report: &bypass::BypassReport) {
    println!(
        "bypass bound: n = {} processes, bound = {}",
        report.procs, report.bound
    );
    println!(
        "intervals: {} closed, {} still open at capture end",
        report.intervals, report.open_intervals
    );
    println!("max bypass observed: {}", report.max_bypass);
    for (p, m) in &report.per_proc_max {
        println!("  proc {p}: worst {m}");
    }
    if report.holds() {
        println!(
            "OK: every flagged process acquired within {} bypasses",
            report.bound
        );
    } else {
        for v in &report.violations {
            println!(
                "VIOLATION: proc {} bypassed {} times (> {}) between seq {} and {}",
                v.proc_id, v.bypasses, report.bound, v.flag_seq, v.acquire_seq
            );
        }
    }
}

fn print_convoy_report(report: &convoy::ConvoyReport) {
    println!(
        "tenures: {} (median hold {} ns, max {} ns)",
        report.tenures.len(),
        report.median_hold_ns,
        report.max_hold_ns
    );
    if report.convoys.is_empty() {
        println!("no convoys: the lock went idle between saturated runs");
    } else {
        for c in &report.convoys {
            println!(
                "convoy: {} back-to-back tenures over {} ns ({} procs, from seq {})",
                c.length, c.duration_ns, c.procs, c.start_seq
            );
        }
    }
    if report.stalls.is_empty() {
        println!("no combiner stalls: every batch amortised its tenure");
    } else {
        for s in &report.stalls {
            println!(
                "combiner stall: {} ns for a batch of {} ({} ns/request) at seq {}",
                s.tenure.hold_ns(),
                s.tenure.batch.unwrap_or(0),
                s.ns_per_request,
                s.tenure.start_seq
            );
        }
    }
}

fn cmd_spans(args: Vec<String>) -> Result<ExitCode, String> {
    let [path] = &args[..] else {
        return Err("spans takes exactly one events file".to_owned());
    };
    let log = load_log(path)?;
    let report = spans::reconstruct(&log);
    print_span_report(&report, &log);
    Ok(ExitCode::SUCCESS)
}

fn cmd_bypass(mut args: Vec<String>) -> Result<ExitCode, String> {
    let procs = parse_flag::<usize>(&mut args, "--procs")?;
    let bound = parse_flag::<u64>(&mut args, "--bound")?;
    let [path] = &args[..] else {
        return Err("bypass takes exactly one events file".to_owned());
    };
    let log = load_log(path)?;
    let report = bypass::check(&log, procs, bound);
    print_bypass_report(&report);
    Ok(if report.holds() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_convoy(mut args: Vec<String>) -> Result<ExitCode, String> {
    let gap_ns = parse_flag::<u64>(&mut args, "--gap-ns")?;
    let [path] = &args[..] else {
        return Err("convoy takes exactly one events file".to_owned());
    };
    let log = load_log(path)?;
    print_convoy_report(&convoy::analyze(&log, gap_ns));
    Ok(ExitCode::SUCCESS)
}

fn cmd_collapse(args: Vec<String>) -> Result<ExitCode, String> {
    let [path] = &args[..] else {
        return Err("collapse takes exactly one events file".to_owned());
    };
    let log = load_log(path)?;
    print!("{}", collapse::collapsed(&spans::reconstruct(&log)));
    Ok(ExitCode::SUCCESS)
}

fn cmd_causal(args: Vec<String>) -> Result<ExitCode, String> {
    let [path] = &args[..] else {
        return Err("causal takes exactly one events file".to_owned());
    };
    let log = load_log(path)?;
    let graph = causal::causal_graph(&spans::reconstruct(&log));
    print!("{}", causal::render(&graph));
    Ok(ExitCode::SUCCESS)
}

fn cmd_check(mut args: Vec<String>) -> Result<ExitCode, String> {
    let procs = parse_flag::<usize>(&mut args, "--procs")?;
    let bound = parse_flag::<u64>(&mut args, "--bound")?;
    let min_coverage =
        parse_flag::<f64>(&mut args, "--min-coverage")?.unwrap_or(DEFAULT_MIN_COVERAGE);
    let min_attribution = parse_flag::<f64>(&mut args, "--min-attribution")?;
    let [path] = &args[..] else {
        return Err("check takes exactly one events file".to_owned());
    };
    let log = load_log(path)?;

    let span_report = spans::reconstruct(&log);
    print_span_report(&span_report, &log);
    println!();
    let bypass_report = bypass::check(&log, procs, bound);
    print_bypass_report(&bypass_report);
    println!();
    print_convoy_report(&convoy::analyze(&log, None));
    println!();
    let causal_report = causal::causal_graph(&span_report);
    print!("{}", causal::render(&causal_report));

    let mut failed = false;
    if span_report.coverage() < min_coverage {
        eprintln!(
            "FAIL: span coverage {:.2}% below the {:.2}% threshold",
            span_report.coverage() * 100.0,
            min_coverage * 100.0
        );
        failed = true;
    }
    if !bypass_report.holds() {
        eprintln!(
            "FAIL: {} bypass-bound violation(s)",
            bypass_report.violations.len()
        );
        failed = true;
    }
    if let Some(min) = min_attribution {
        if causal_report.attribution() < min {
            eprintln!(
                "FAIL: causal attribution {:.4} below the {min:.4} threshold",
                causal_report.attribution()
            );
            failed = true;
        }
    }
    if failed {
        Ok(ExitCode::FAILURE)
    } else {
        println!("\ncheck OK: coverage and the section-4.4 bypass bound both hold");
        Ok(ExitCode::SUCCESS)
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }
    let command = args.remove(0);
    let result = match command.as_str() {
        "spans" => cmd_spans(args),
        "bypass" => cmd_bypass(args),
        "convoy" => cmd_convoy(args),
        "collapse" => cmd_collapse(args),
        "causal" => cmd_causal(args),
        "check" => cmd_check(args),
        _ => {
            eprintln!("unknown command: {command}");
            return usage();
        }
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("cso-analyze {command}: {message}");
            ExitCode::from(2)
        }
    }
}
