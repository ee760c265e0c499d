//! E3/E4 throughput series — stack implementations across thread
//! counts.
//!
//! The performance story the paper argues for: the
//! contention-sensitive stack should track the lock-free stacks when
//! contention is rare (here: 1 thread, or high think time) while the
//! fully locked baselines pay the lock on every operation.

use cso_bench::adapters::{drive_stack, prefill_stack, stack_suite};
use cso_bench::jsonreport::BenchReport;
use cso_bench::report::{fmt_rate, Table};
use cso_bench::workload::OpMix;
use cso_bench::{cell_duration, thread_counts};
use cso_metrics::Json;

fn main() {
    println!("E3: stack throughput (ops/s), 50/50 push/pop, prefilled half");
    println!("({} ms per cell)\n", cell_duration().as_millis());

    let threads_list = thread_counts();
    let mut headers: Vec<String> = vec!["impl".into()];
    headers.extend(threads_list.iter().map(|t| format!("{t} thr")));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(&header_refs);

    // One fresh suite per thread count (so prefill and stats are
    // clean); iterate implementation-major for the table rows.
    let names: Vec<&'static str> = stack_suite(8192, 32).iter().map(|s| s.name()).collect();
    let mut rows: Vec<Vec<String>> = names.iter().map(|n| vec![(*n).to_owned()]).collect();
    let mut rates: Vec<Vec<f64>> = vec![Vec::new(); names.len()];

    for &threads in &threads_list {
        let suite = stack_suite(8192, threads.max(1));
        for (i, stack) in suite.iter().enumerate() {
            prefill_stack(stack.as_ref(), 4096);
            let result = drive_stack(stack.as_ref(), threads, cell_duration(), OpMix::BALANCED, 0);
            rows[i].push(fmt_rate(result.ops_per_sec()));
            rates[i].push(result.ops_per_sec());
        }
    }

    for row in rows {
        table.row(row);
    }
    table.print();

    let json_rows: Vec<Json> = names
        .iter()
        .zip(rates.iter())
        .map(|(name, per_thread)| {
            let mut row = Json::obj().field("impl", *name);
            for (&threads, &rate) in threads_list.iter().zip(per_thread.iter()) {
                row = row.field(&format!("threads_{threads}"), rate);
            }
            row
        })
        .collect();
    BenchReport::new("e3_throughput")
        .config("bench_ms", cell_duration().as_millis() as u64)
        .config("mix", "50/50")
        .config(
            "threads",
            Json::Arr(threads_list.iter().map(|&t| Json::U64(t as u64)).collect()),
        )
        .metric("ops_per_sec", Json::Arr(json_rows))
        .write();

    println!("\nReading guide: solo, the one-swap lock(tas) leads and cs-stack trails");
    println!("nb-stack by its CONTENTION read; with more threads than cores cs-stack");
    println!("is the row that returns to its solo neighbourhood, while the bare retry");
    println!("loop (nb-stack), the TAS lock and the FIFO ticket lock do not. Unpinned");
    println!("2-thread cells are bimodal on a 2-vCPU guest (EXPERIMENTS.md, E3).");
    cso_bench::tracing::emit("e3_throughput");
}
