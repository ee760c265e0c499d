//! Driving the model checker by hand.
//!
//! `cso::sched` runs the *shipped* types under a controlled scheduler:
//! on a model thread every counted register access is a yield point,
//! and the explorer decides which thread takes the next one.
//! This example explores every bounded-preemption interleaving of
//! three threads racing on the Figure 1 stack, sweeps random schedules
//! of the Figure 3 stack, runs it once under the fair scheduler, and
//! freezes a pusher after every prefix of its operation.
//!
//! The per-execution work — one script per model thread, a recorded
//! history with every ⊥ erased, a drain inside that history, the
//! Wing–Gong check — is the test suites' own harness,
//! `tests/model_support`, used here as they use it.
//!
//! Run with: `cargo run --release --example model_check`

#[path = "../tests/model_support/mod.rs"]
mod model_support;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cso::sched::{spawn_crashing, Explorer};
use cso::stack::{AbortableStack, CsStack, PopOutcome, SeqStack, StackOp};

use model_support::{aborts, scripted_body, strong_stack, weak};
use StackOp::{Pop, Push};

fn main() {
    // ------------------------------------------------------------
    // Part 1: exhaustive DFS over Figure 1 — three threads, at most
    // three preemptions (unbounded, this space exceeds 400k).
    // ------------------------------------------------------------
    let scripts = [vec![Push(1)], vec![Push(2)], vec![Pop]];
    let abort_histogram = Mutex::new(BTreeMap::<usize, usize>::new());
    let report = Explorer::exhaustive()
        .with_preemption_bound(Some(3))
        .explore(|| {
            let stack = weak(AbortableStack::new(4));
            let notes = scripted_body(stack, SeqStack::new(4), &[7], &scripts);
            *abort_histogram
                .lock()
                .unwrap()
                .entry(aborts(&notes))
                .or_insert(0) += 1;
        });
    report.assert_ok();
    println!("Figure 1, 3 threads (push, push, pop on [7]): {report}");
    for (aborts, count) in abort_histogram.lock().unwrap().iter() {
        println!("  {count:>7} schedules with {aborts} aborted (⊥) operation(s)");
    }

    // ------------------------------------------------------------
    // Part 2: Figure 3 under seeded-random schedules.
    // ------------------------------------------------------------
    let scripts3 = [vec![Push(10), Pop], vec![Push(20)], vec![Pop, Push(30)]];
    let (fast, contended) = (AtomicU64::new(0), AtomicU64::new(0));
    let report = Explorer::random(42, 2_000).explore(|| {
        let stack = strong_stack(&Arc::new(CsStack::new(8, 3)));
        for note in scripted_body(stack, SeqStack::new(8), &[], &scripts3) {
            assert!(!note.aborted(), "strong operations never return ⊥");
            let tally = if note.accesses == 6 {
                &fast
            } else {
                &contended
            };
            tally.fetch_add(1, Ordering::Relaxed);
        }
    });
    report.assert_ok();
    println!("\nFigure 3, 3 threads, random schedules: {report}");
    println!(
        "  {} ops in exactly 6 accesses, {} contended (retried or via the lock)",
        fast.into_inner(),
        contended.into_inner()
    );

    // ------------------------------------------------------------
    // Part 3: the bounded starvation check (Lemmas 2–3): one run under
    // strict rotation, every thread stepping once per round.
    // ------------------------------------------------------------
    let worst = AtomicU64::new(0);
    let report = Explorer::round_robin().explore(|| {
        let stack = strong_stack(&Arc::new(CsStack::new(8, 3)));
        let notes = scripted_body(stack, SeqStack::new(8), &[], &scripts3);
        let most = notes.iter().map(|n| n.accesses).max().unwrap_or(0);
        worst.store(most, Ordering::Relaxed);
    });
    report.assert_ok();
    println!("\nFair (round-robin) run of the same scripts: {report}");
    println!(
        "  all operations completed; worst per-op access count: {}",
        worst.into_inner()
    );

    // ------------------------------------------------------------
    // Part 4: §5, with the scheduler's own API — freeze a pusher after
    // each prefix of its operation; a pop completes regardless (the
    // crash prefix is a decision of the schedule: `k<n>` in a trace).
    // ------------------------------------------------------------
    let report = Explorer::exhaustive().explore(|| {
        let stack = Arc::new(AbortableStack::<u32>::new(4));
        stack.weak_push(7).expect("solo prefill");
        let victim = {
            let stack = Arc::clone(&stack);
            spawn_crashing(7, move || stack.weak_push(9))
        };
        let _finished_or_frozen = victim.try_join();
        let got = stack.weak_pop().expect("a solo pop returned ⊥");
        assert!(matches!(got, PopOutcome::Popped(7 | 9)), "{got:?}");
    });
    report.assert_ok();
    println!("\nCrash at every prefix of a weak push (0..=7): {report}");
    println!("model check OK");
}
