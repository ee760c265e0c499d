//! E7 — the lock substrate, and the §4.4 deadlock-free →
//! starvation-free booster.
//!
//! Reports acquisitions/s and per-thread fairness for every lock in
//! `cso-locks`, including `StarvationFree<TasLock>` — the exact
//! mechanism Figure 3 uses for its slow path. The interesting
//! comparison: boosting a TAS lock costs some throughput but repairs
//! its fairness.

use std::sync::atomic::Ordering;

use cso_bench::measure::{timed_run, RunResult};
use cso_bench::report::{fmt_rate, Table};
use cso_bench::{cell_duration, thread_counts};
use cso_locks::{
    Anonymous, ClhLock, LamportFastLock, McsLock, OsLock, ProcLock, StarvationFree, TasLock,
    TicketLock, TournamentLock, TtasLock,
};

fn drive(lock: &(impl ProcLock + ?Sized), threads: usize) -> RunResult {
    timed_run(threads, cell_duration(), |thread, stop| {
        let mut ops = 0u64;
        while !stop.load(Ordering::Relaxed) {
            lock.lock(thread);
            // Tiny critical section.
            std::hint::black_box(ops);
            lock.unlock(thread);
            ops += 1;
        }
        ops
    })
}

fn main() {
    let threads = *thread_counts().last().unwrap_or(&4);
    println!("E7: lock substrate at {threads} threads, empty critical section");
    println!("({} ms per cell)\n", cell_duration().as_millis());

    let mut table = Table::new(&[
        "lock", "acq/s", "min ops", "max ops", "max/min", "jain", "progress",
    ]);

    let mut run = |name: &str, progress: &str, lock: &dyn ProcLock| {
        let result = drive(lock, threads);
        let min = result.min_ops().max(1);
        table.row(vec![
            name.to_owned(),
            fmt_rate(result.ops_per_sec()),
            result.min_ops().to_string(),
            result.max_ops().to_string(),
            format!("{:.2}", result.max_ops() as f64 / min as f64),
            format!("{:.4}", result.jain_index()),
            progress.to_owned(),
        ]);
    };

    run(
        "tas",
        "deadlock-free",
        &Anonymous::new(TasLock::new(), threads),
    );
    run(
        "ttas+backoff",
        "deadlock-free",
        &Anonymous::new(TtasLock::new(), threads),
    );
    run(
        "ticket",
        "starvation-free",
        &Anonymous::new(TicketLock::new(), threads),
    );
    run(
        "os(parking_lot)",
        "deadlock-free",
        &Anonymous::new(OsLock::new(), threads),
    );
    run("clh", "starvation-free", &ClhLock::new(threads));
    run("mcs", "starvation-free", &McsLock::new(threads));
    run(
        "peterson-tree",
        "starvation-free",
        &TournamentLock::new(threads),
    );
    run(
        "lamport-fast",
        "deadlock-free",
        &LamportFastLock::new(threads),
    );
    run(
        "tas + §4.4 booster",
        "starvation-free",
        &StarvationFree::new(TasLock::new(), threads),
    );

    table.print();

    println!("\nExpected shape: the §4.4 booster trades some raw rate for fairness —");
    println!("its max/min must be far tighter than bare tas; queue locks (ticket,");
    println!("clh, mcs) are fair by construction.");
    cso_bench::tracing::emit("e7_locks");
}
