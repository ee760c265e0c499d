//! The repo's yardstick. See README.md beside this package.
//!
//! Two ways in, both through `run.sh`:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run of one
//!   workload; the last line of standard output is one JSON object with
//!   the end-to-end metrics (`--trace 0`) or the per-layer metrics
//!   (`--trace 1`).
//! * no `--workload` — the full set: every workload untraced
//!   (`--repeat R` times), then the ledger and one traced re-run per
//!   workload; prints every metric and writes `out/report.json`.

mod check;
mod host;
mod ledger;
mod objects;
mod pace;
mod report;
mod round;
mod stats;
mod tape;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use workload::{Plan, Workload};

const DEFAULT_SEED: u64 = 20_110_905;
const DEFAULT_SECONDS: u64 = 30;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: usize,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: 1,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = Workload::from_name(&value).ok_or_else(|| {
                    format!("unknown workload {value:?}; one of solo, contended, sharded, queue")
                })?;
                args.workload = Some(w);
            }
            "--seed" => args.seed = number()?,
            "--seconds" => {
                args.seconds = number()?;
                if !(1..=600).contains(&args.seconds) {
                    return Err("--seconds must be in 1..=600".to_string());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--repeat" => {
                args.repeat = number()? as usize;
                if !(1..=2).contains(&args.repeat) {
                    return Err("--repeat takes 1 or 2".to_string());
                }
            }
            "--out" => args.out = PathBuf::from(&value),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(args)
}

/// Rounds are 1 s; runs shorter than 8 s (smoke runs) get eight
/// shorter rounds. A traced single run splits its time 40 % ledger,
/// 60 % round pairs; a full set gives the ledger the same time per rung
/// as the untraced rounds per workload get per 60 rounds.
fn plan(seconds: u64, single_traced: bool) -> Plan {
    let total = Duration::from_secs(seconds);
    let round = if seconds >= 8 {
        Duration::from_secs(1)
    } else {
        total / 8
    };
    let rounds = (total.as_nanos() / round.as_nanos()) as usize;
    let ledger_rounds = (ledger::TIMED_RUNGS * ledger::ROUNDS) as u32;
    if single_traced {
        Plan {
            round,
            rounds,
            pairs: (rounds * 3 / 10).max(1),
            ledger_round: total * 4 / 10 / ledger_rounds,
        }
    } else {
        Plan {
            round,
            rounds,
            pairs: (rounds / 5).max(1),
            ledger_round: total / 60,
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("cso-benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload {
        Some(w) if args.trace => {
            report::single_traced(w, args.seed, plan(args.seconds, true), &args.out)
        }
        Some(w) => report::single(w, args.seed, plan(args.seconds, false)),
        None => report::full(
            args.seed,
            args.seconds,
            plan(args.seconds, false),
            args.repeat,
            &args.out,
        ),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("cso-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
