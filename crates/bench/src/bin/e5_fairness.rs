//! E5 — starvation-freedom as measured fairness.
//!
//! At maximum contention, compares per-thread completion counts
//! across implementations. The Figure 3 stack (starvation-free via
//! the §4.4 `FLAG`/`TURN` booster) should keep the per-thread spread
//! tight; the merely non-blocking and TAS-locked baselines may
//! starve individual threads.
//!
//! Kept only for ROADMAP 1(a)'s baselines — `nb-stack`, `lock(tas)`
//! and `lock(ticket)` — and for `cs/unfair` (Figure 3 without the
//! booster), none of which the yardstick runs yet; `cs-stack`'s
//! two-thread fairness is the yardstick's `fairness_min_max`.

use cso_bench::adapters::{drive_stack, prefill_stack, stack_suite, CsConfigAdapter};
use cso_bench::report::{fmt_rate, Table};
use cso_bench::{cell_duration, thread_counts};
use cso_core::CsConfig;

fn main() {
    let capture = cso_bench::tracing::capture();
    let threads = *thread_counts().last().unwrap_or(&4);
    println!("E5: per-thread fairness at {threads} threads, 50/50 mix, no think time");
    println!(
        "({} ms per cell; Jain index: 1.0 = perfectly fair)\n",
        cell_duration().as_millis()
    );

    let mut table = Table::new(&["impl", "ops/s", "min ops", "max ops", "max/min", "jain"]);

    let mut run = |stack: &dyn cso_bench::adapters::BenchStack| {
        prefill_stack(stack, 4096);
        let result = drive_stack(stack, threads, cell_duration());
        let min = result.min_ops().max(1);
        table.row(vec![
            stack.name().to_owned(),
            fmt_rate(result.ops_per_sec()),
            result.min_ops().to_string(),
            result.max_ops().to_string(),
            format!("{:.2}", result.max_ops() as f64 / min as f64),
            format!("{:.4}", result.jain_index()),
        ]);
    };

    for stack in stack_suite(8192, threads) {
        run(stack.as_ref());
    }
    // The unfair ablation, for contrast: same algorithm, no
    // FLAG/TURN booster.
    let unfair = CsConfigAdapter::new("cs/unfair", 8192, threads, CsConfig::UNFAIR);
    run(&unfair);

    table.print();

    println!("\nExpected shape: cs-stack and lock(ticket) (both starvation-free) hold");
    println!("the tightest max/min; nb-stack, lock(tas) and cs/unfair may starve a");
    println!("thread under pressure.");
    if capture.is_some() {
        drop(capture);
        cso_bench::tracing::emit("e5_fairness");
    }
}
