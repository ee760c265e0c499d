//! The `cso-analyze` command-line front end: every subcommand parses
//! the capture, feeds it to the one [`Fold`], and prints a view of the
//! resulting [`Snapshot`].
//!
//! ```text
//! cso-analyze spans   <events.tsv>                       span reconstruction + critical path
//! cso-analyze bypass  <events.tsv> [--procs N] [--bound K]   §4.4 bypass-bound check
//! cso-analyze convoy  <events.tsv>                       lock convoys + combiner stalls
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

use cso_observe::analyze::{causal, Fold, Snapshot};
use cso_trace::export::parse_event_log;

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
         \x20 convoy   <events.tsv>                     detect lock convoys and combiner stalls\n\
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

/// The §4.4 reading a run is judged by: `n` processes and the bypass
/// bound, each as given on the command line or else taken from the
/// capture (`n` = highest process id + 1, bound = `n − 1`).
struct Section44 {
    procs: u64,
    bound: u64,
}

/// Parses the capture at `path` and folds it — whole, with the loss
/// its header declares — judging bypass intervals by `--procs` /
/// `--bound` when given.
fn fold_file(
    path: &str,
    procs: Option<u64>,
    bound: Option<u64>,
) -> Result<(Fold, Section44), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let trace = parse_event_log(&text).map_err(|e| format!("{path}: {e}"))?;
    // `n` has to be known before the first interval closes, so when it
    // is not given it is read off the parsed events up front.
    let seen = trace.events.iter().filter_map(|e| e.event.proc()).max();
    let procs = procs.or(seen.map(|p| u64::from(p) + 1)).unwrap_or(0).max(1);
    let bound = bound.unwrap_or(procs - 1);
    let mut fold = Fold::with_bypass_bound(bound);
    fold.ingest(&trace.events, &trace.truncated);
    Ok((fold, Section44 { procs, bound }))
}

fn one_path<'a>(command: &str, args: &'a [String]) -> Result<&'a str, String> {
    match args {
        [path] => Ok(path),
        _ => Err(format!("{command} takes exactly one events file")),
    }
}

fn print_span_view(snap: &Snapshot) {
    println!(
        "events: {} ({} dropped by the ring, {} thread(s) truncated)",
        snap.events_ingested,
        snap.lost,
        snap.truncated_threads.len()
    );
    println!(
        "spans: {} well-formed, {} in flight at capture end, {} truncation orphan(s), {} malformed",
        snap.spans, snap.open, snap.orphans, snap.malformed
    );
    println!("coverage: {:.2}%", snap.coverage() * 100.0);
    if snap.recovery.any() {
        println!(
            "recovery: {} suspicion(s) raised, {} orphaned record(s) reclaimed, {} lock succession(s)",
            snap.recovery.suspects, snap.recovery.reclaimed, snap.recovery.successions
        );
    }
    for m in &snap.first_malformed {
        println!(
            "  malformed: thread {} seq {} `{}` illegal in state `{}`",
            m.thread, m.seq, m.event, m.state
        );
    }
    let unlisted = snap.malformed - snap.first_malformed.len() as u64;
    if unlisted > 0 {
        println!("  ... and {unlisted} more");
    }

    if !snap.per_path.is_empty() {
        println!("\nper-path durations (ns):");
        println!(
            "  {:<10} {:>8} {:>10} {:>10} {:>10} {:>10}",
            "path", "count", "mean", "p50", "p99", "max"
        );
        for (label, hist) in &snap.per_path {
            println!(
                "  {:<10} {:>8} {:>10} {:>10} {:>10} {:>10}",
                label, hist.count, hist.mean_ns, hist.p50_ns, hist.p99_ns, hist.max_ns
            );
        }
        println!(
            "\nlock held {} ns over a {} ns capture: {:.1}% saturated",
            snap.lock_held_ns,
            snap.capture_ns,
            snap.lock_saturation() * 100.0
        );
        if let Some(longest) = &snap.longest_span {
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

fn print_bypass_view(snap: &Snapshot, claim: &Section44) {
    println!(
        "bypass bound: n = {} processes, bound = {}",
        claim.procs, claim.bound
    );
    println!(
        "intervals: {} closed, {} still open at capture end, {} voided by ring loss",
        snap.bypass_intervals, snap.bypass_open, snap.bypass_voided
    );
    println!(
        "max bypass observed: {} at one TURN position ({} over a whole wait, not judged)",
        snap.max_bypass, snap.max_bypass_over_wait
    );
    for (p, m) in &snap.bypass_per_proc {
        println!("  proc {p}: worst {m}");
    }
    if snap.bypass_violations == 0 {
        println!(
            "OK: every flagged process acquired within {} bypasses",
            claim.bound
        );
        return;
    }
    let listed = snap
        .worst_bypasses
        .iter()
        .filter(|w| w.bypasses > claim.bound);
    for v in listed.clone() {
        println!(
            "VIOLATION: proc {} bypassed {} times (> {}) at one TURN position between seq {} and {}",
            v.proc_id, v.bypasses, claim.bound, v.flag_seq, v.acquire_seq
        );
    }
    let unlisted = snap.bypass_violations - listed.count() as u64;
    if unlisted > 0 {
        println!("  ... and {unlisted} more violation(s), none worse than those listed");
    }
}

fn print_convoy_view(snap: &Snapshot) {
    println!(
        "tenures: {} (median hold {} ns, max {} ns)",
        snap.tenures, snap.hold.p50_ns, snap.hold.max_ns
    );
    if snap.convoys == 0 {
        println!(
            "no convoys: no saturated run of two or more processes (longest run {} tenures)",
            snap.longest_convoy_run
        );
    } else {
        println!(
            "convoys: {} saturated run(s) of two or more processes (longest run {} tenures)",
            snap.convoys, snap.longest_convoy_run
        );
    }
    if snap.stalls == 0 {
        println!("no combiner stalls: every batch amortised its tenure");
    } else {
        println!(
            "combiner stalls: {} tenure(s) cost over 4x the median hold per served request",
            snap.stalls
        );
    }
}

fn cmd_spans(args: Vec<String>) -> Result<ExitCode, String> {
    let (fold, _) = fold_file(one_path("spans", &args)?, None, None)?;
    print_span_view(&fold.snapshot());
    Ok(ExitCode::SUCCESS)
}

fn cmd_bypass(mut args: Vec<String>) -> Result<ExitCode, String> {
    let procs = parse_flag::<u64>(&mut args, "--procs")?;
    let bound = parse_flag::<u64>(&mut args, "--bound")?;
    let (fold, claim) = fold_file(one_path("bypass", &args)?, procs, bound)?;
    let snap = fold.snapshot();
    print_bypass_view(&snap, &claim);
    Ok(if snap.bypass_violations == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_convoy(args: Vec<String>) -> Result<ExitCode, String> {
    let (fold, _) = fold_file(one_path("convoy", &args)?, None, None)?;
    print_convoy_view(&fold.snapshot());
    Ok(ExitCode::SUCCESS)
}

fn cmd_collapse(args: Vec<String>) -> Result<ExitCode, String> {
    let (fold, _) = fold_file(one_path("collapse", &args)?, None, None)?;
    print!("{}", fold.collapsed());
    Ok(ExitCode::SUCCESS)
}

fn cmd_causal(args: Vec<String>) -> Result<ExitCode, String> {
    let (fold, _) = fold_file(one_path("causal", &args)?, None, None)?;
    print!("{}", causal::render(&fold.snapshot().causal));
    Ok(ExitCode::SUCCESS)
}

fn cmd_check(mut args: Vec<String>) -> Result<ExitCode, String> {
    let procs = parse_flag::<u64>(&mut args, "--procs")?;
    let bound = parse_flag::<u64>(&mut args, "--bound")?;
    let min_coverage =
        parse_flag::<f64>(&mut args, "--min-coverage")?.unwrap_or(DEFAULT_MIN_COVERAGE);
    let min_attribution = parse_flag::<f64>(&mut args, "--min-attribution")?;
    let (fold, claim) = fold_file(one_path("check", &args)?, procs, bound)?;
    let snap = fold.snapshot();

    print_span_view(&snap);
    println!();
    print_bypass_view(&snap, &claim);
    println!();
    print_convoy_view(&snap);
    println!();
    print!("{}", causal::render(&snap.causal));

    let mut failed = false;
    if snap.coverage() < min_coverage {
        eprintln!(
            "FAIL: span coverage {:.2}% below the {:.2}% threshold",
            snap.coverage() * 100.0,
            min_coverage * 100.0
        );
        failed = true;
    }
    if snap.bypass_violations > 0 {
        eprintln!("FAIL: {} bypass-bound violation(s)", snap.bypass_violations);
        failed = true;
    }
    if let Some(min) = min_attribution {
        if snap.causal.attribution() < min {
            eprintln!(
                "FAIL: causal attribution {:.4} below the {min:.4} threshold",
                snap.causal.attribution()
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
