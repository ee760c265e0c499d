//! E3 — stack throughput across implementations and thread counts.
//!
//! The performance story the paper argues for: the
//! contention-sensitive stack should track the lock-free stack when
//! contention is rare (here: 1 thread) while the
//! fully locked baselines pay the lock on every operation.
//!
//! Kept only for ROADMAP 1(a)'s baselines — `nb-stack`, `lock(tas)`
//! and `lock(ticket)` — and the thread sweep, none of which the
//! yardstick runs yet; `cs-stack`'s own one- and two-thread figures
//! are the yardstick's.

use cso_bench::adapters::{drive_stack, prefill_stack, stack_suite};
use cso_bench::report::{fmt_rate, Table};
use cso_bench::{cell_duration, thread_counts};

fn main() {
    let capture = cso_bench::tracing::capture();
    println!("E3: stack throughput (ops/s), 50/50 push/pop, prefilled half");
    println!("({} ms per cell)\n", cell_duration().as_millis());

    let threads_list = thread_counts();
    let mut headers: Vec<String> = vec!["impl".into()];
    headers.extend(threads_list.iter().map(|t| format!("{t} thr")));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(&header_refs);

    // One fresh suite per thread count (so prefill and stats are
    // clean); iterate implementation-major for the table rows.
    let suite = stack_suite(8192, 32);
    let mut rows: Vec<Vec<String>> = suite.iter().map(|s| vec![s.name().to_owned()]).collect();

    for &threads in &threads_list {
        let suite = stack_suite(8192, threads.max(1));
        for (i, stack) in suite.iter().enumerate() {
            prefill_stack(stack.as_ref(), 4096);
            let result = drive_stack(stack.as_ref(), threads, cell_duration());
            rows[i].push(fmt_rate(result.ops_per_sec()));
        }
    }

    for row in rows {
        table.row(row);
    }
    table.print();

    println!("\nReading guide: solo, the one-swap lock(tas) leads and cs-stack trails");
    println!("nb-stack by its CONTENTION read; with more threads than cores cs-stack");
    println!("is the row that returns to its solo neighbourhood, while the bare retry");
    println!("loop (nb-stack), the TAS lock and the FIFO ticket lock do not. Cells that");
    println!("fit the host run one pinned thread per CPU; wider ones are unpinned.");
    if capture.is_some() {
        drop(capture);
        cso_bench::tracing::emit("e3_throughput");
    }
}
