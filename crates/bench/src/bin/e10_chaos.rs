//! E10 — graceful degradation under injected faults (`--features
//! chaos`).
//!
//! §5 of the paper concedes the Figure 3 transformation survives
//! crashes only outside the critical section. This experiment arms the
//! fail-point registry at adversarial program points and measures what
//! actually degrades on a live `CsStack`:
//!
//! * abort storms (fast-path vetoes, weak-op ⊥) cost throughput but
//!   never correctness — the lock fraction absorbs the damage;
//! * panics *inside* the locked slow path are survived by the RAII
//!   guard (counted as `poisoned`), with values conserved exactly;
//! * a holder stalled forever wedges unbounded `push`, while
//!   `try_push_for` degrades to clean `TimedOut` answers.
//!
//! Run with `cargo run --release --features chaos --bin e10_chaos`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use cso_bench::adapters::{drive_stack, prefill_stack, CsAdapter};
use cso_bench::cell_duration;
use cso_bench::report::{fmt_pct, fmt_rate, Table};
use cso_bench::tracing::poisoning_causes;
use cso_bench::workload::OpMix;
use cso_core::FAST_ATTEMPTS;
use cso_memory::chaos::{self, Fault, Plan};
use cso_stack::{CsStack, PopOutcome, PushOutcome};
use cso_trace::probe;

const THREADS: usize = 4;

/// One timed cell under whatever faults are currently armed.
fn timed_cell(label: &str, table: &mut Table) {
    let adapter = CsAdapter(CsStack::new(8192, THREADS));
    prefill_stack(&adapter, 4096);
    adapter.0.reset_path_stats();
    let result = drive_stack(&adapter, THREADS, cell_duration(), OpMix::BALANCED, 0);
    let stats = adapter.0.path_stats();
    let faults = adapter.0.fault_stats();
    table.row(vec![
        label.to_string(),
        result.total_ops().to_string(),
        fmt_rate(result.ops_per_sec()),
        fmt_pct(stats.locked_fraction()),
        faults.poisoned.to_string(),
        faults.timeouts.to_string(),
    ]);
}

/// Panic storm: roughly one in fifty locked slow-path entries dies.
/// Every panic must be survived and every value conserved. (The veto
/// is per fast-path *attempt*: at one in two, a run of `FAST_ATTEMPTS`
/// of them sends about one operation in sixteen to the lock.)
fn panic_storm(table: &mut Table) {
    const OPS_PER_THREAD: u64 = 4_000;
    chaos::arm_plan("cs::fast", Plan::one_in(Fault::SpuriousAbort, 2));
    chaos::arm_plan("cs::locked", Plan::one_in(Fault::Panic, 50));
    // The storm panics on purpose, hundreds of times; silence the
    // per-panic backtrace chatter for the duration.
    std::panic::set_hook(Box::new(|_| {}));

    let stack: CsStack<u32> = CsStack::new(1 << 14, THREADS);
    let (pushed, popped): (u64, u64) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|proc| {
                let stack = &stack;
                s.spawn(move || {
                    let (mut pushed, mut popped) = (0u64, 0u64);
                    for i in 0..OPS_PER_THREAD {
                        if i % 2 == 0 {
                            let v = (proc as u64 * OPS_PER_THREAD + i) as u32;
                            match catch_unwind(AssertUnwindSafe(|| stack.push(proc, v))) {
                                Ok(PushOutcome::Pushed) => pushed += 1,
                                Ok(PushOutcome::Full) | Err(_) => {}
                            }
                        } else {
                            match catch_unwind(AssertUnwindSafe(|| stack.pop(proc))) {
                                Ok(PopOutcome::Popped(_)) => popped += 1,
                                Ok(PopOutcome::Empty) | Err(_) => {}
                            }
                        }
                    }
                    (pushed, popped)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no unwind may escape catch_unwind"))
            .fold((0, 0), |(p, q), (a, b)| (p + a, q + b))
    });
    let _ = std::panic::take_hook();
    chaos::reset();

    // Conservation: survivors = successful pushes − successful pops.
    let mut drained = 0u64;
    while let PopOutcome::Popped(_) = stack.pop(0) {
        drained += 1;
    }
    assert_eq!(
        drained,
        pushed - popped,
        "a poisoned operation leaked or destroyed a value"
    );

    let stats = stack.path_stats();
    let faults = stack.fault_stats();
    assert!(faults.poisoned > 0, "the storm never hit the slow path");
    table.row(vec![
        "panic 1/50 @ cs::locked".to_string(),
        (pushed + popped).to_string(),
        "-".to_string(),
        fmt_pct(stats.locked_fraction()),
        faults.poisoned.to_string(),
        faults.timeouts.to_string(),
    ]);
}

/// The §5 nightmare: the holder stalls forever. Unbounded callers
/// would hang; deadline-bounded callers get clean timeouts, and
/// service resumes once the wedge clears.
fn stall_and_deadline(table: &mut Table) {
    const ATTEMPTS: u64 = 20;
    let stack: CsStack<u32> = CsStack::new(64, THREADS);
    chaos::arm_plan(
        "cs::fast",
        Plan::times(Fault::SpuriousAbort, u64::from(FAST_ATTEMPTS)),
    );
    chaos::arm_plan("cs::locked", Plan::once(Fault::StallForever));

    let mut timeouts = 0u64;
    std::thread::scope(|s| {
        let stack = &stack;
        s.spawn(move || {
            // Sacrificial op: vetoed off the fast path, then parked
            // while holding the lock.
            let _ = stack.push(0, 1);
        });
        while chaos::fires("cs::locked") == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        for i in 0..ATTEMPTS {
            if stack
                .try_push_for(1, 100 + i as u32, Duration::from_millis(5))
                .is_err()
            {
                timeouts += 1;
            }
        }
        // Release the wedge so the sacrificial thread can finish.
        chaos::reset();
    });
    assert_eq!(
        timeouts, ATTEMPTS,
        "a wedged lock must time every caller out"
    );
    assert_eq!(
        stack.push(1, 2),
        PushOutcome::Pushed,
        "service must resume after the wedge clears"
    );

    let faults = stack.fault_stats();
    table.row(vec![
        "stall @ cs::locked + 5ms deadline".to_string(),
        ATTEMPTS.to_string(),
        "-".to_string(),
        "-".to_string(),
        faults.poisoned.to_string(),
        faults.timeouts.to_string(),
    ]);
}

fn main() {
    // Mirror every fail-point fire into the probe stream (no-op
    // without `--features trace`), so the trace can name the fail
    // point behind each poisoning.
    cso_trace::install_chaos_hook();
    println!("E10: graceful degradation of the cs-stack under injected faults");
    println!(
        "({THREADS} threads, 50/50 mix, {} ms per timed cell)\n",
        cell_duration().as_millis()
    );

    let mut table = Table::new(&[
        "scenario",
        "ops",
        "ops/s",
        "lock path",
        "poisoned",
        "timeouts",
    ]);

    chaos::reset();
    timed_cell("baseline (no faults)", &mut table);

    chaos::arm_plan("cs::fast", Plan::one_in(Fault::SpuriousAbort, 2));
    timed_cell("veto 1/2 fast attempts", &mut table);
    chaos::reset();

    chaos::arm_plan("stack::push", Plan::one_in(Fault::SpuriousAbort, 4));
    chaos::arm_plan("stack::pop", Plan::one_in(Fault::SpuriousAbort, 4));
    timed_cell("abort 1/4 weak ops", &mut table);
    chaos::reset();

    chaos::arm_plan(
        "cs::lock-wait",
        Plan::one_in(Fault::Delay(Duration::from_micros(5)), 8),
    );
    chaos::arm_plan("tas::acquire", Plan::one_in(Fault::Yield, 4));
    timed_cell("delay/yield in lock path", &mut table);
    chaos::reset();

    panic_storm(&mut table);
    stall_and_deadline(&mut table);

    table.print();

    if probe::enabled() {
        let causes = poisoning_causes(&probe::collect());
        if !causes.is_empty() {
            println!("\nPoisonings by causal fail point:");
            for (site, count) in causes {
                println!("  {site:<24} {count}");
            }
        }
    }

    println!("\nReading the table:");
    println!("- abort storms move work onto the lock path; throughput bends, answers stay right;");
    println!("- every `poisoned` is a panic survived *inside* the critical section — the guard");
    println!("  released the lock and restored CONTENTION, and the drain confirmed conservation;");
    println!("- `timeouts` are the §5 wedge made visible: try_push_for reports TimedOut instead");
    println!("  of hanging, and service resumes once the stall clears.");
    cso_bench::tracing::emit("e10_chaos");
}
