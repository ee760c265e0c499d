//! A mid-run statistics reset must not look like a leak.
//!
//! The object's counters are single-writer stripes, so
//! `reset_abort_stats()` / `reset_path_stats()` record a baseline
//! instead of storing zeroes into cells other threads are updating.
//! This test feeds the conservation invariant from the *object's own*
//! accessors — successful weak pushes minus successful weak pops
//! against the size moved since the reset — and resets between two
//! bursts of a concurrent workload while the watchdog keeps ticking:
//! the books must balance on both sides of the reset, and
//! `telemetry()` must account for exactly the second burst.
//!
//! An attached registry reads the same cells as *lifetime* sums: no
//! reset, racing the workers or not, may make a scraped `_total` go
//! backwards, and at the end the exported path counters account for
//! every completion since construction.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Barrier};

use cso_core::ContentionSensitive;
use cso_locks::TasLock;
use cso_observe::metrics::Registry;
use cso_observe::watch::{Invariant, Watchdog};
use cso_stack::{AbortableStack, PopOutcome, PushOutcome, StackOp};

type Stack = ContentionSensitive<AbortableStack<u32>, TasLock>;

const THREADS: usize = 4;
const OPS: u64 = 20_000;

/// Counters (`*_total`, sorted by name) never go backwards between
/// two scrapes.
fn assert_monotone(earlier: &[(String, u64)], later: &[(String, u64)]) {
    for ((name, before), (_, after)) in earlier.iter().zip(later) {
        assert!(after >= before, "{name}: {before} -> {after}");
    }
}

#[test]
fn conservation_and_telemetry_reconcile_across_a_mid_run_reset() {
    let stack: Arc<Stack> = Arc::new(ContentionSensitive::new(
        AbortableStack::new(1024),
        TasLock::new(),
        THREADS,
    ));
    let registry = Registry::new();
    stack.attach_metrics(&registry, "reset");
    // The size the stack had when the statistics were last reset.
    let base = Arc::new(AtomicI64::new(0));

    // Saturating: a racy sample can read an abort whose attempt it
    // missed; the invariant's double read discards such samples.
    let successes = |stack: &Stack| {
        let s = stack.inner().abort_stats();
        (
            s.push_attempts.saturating_sub(s.push_aborts),
            s.pop_attempts.saturating_sub(s.pop_aborts),
        )
    };
    let (p, o, s, b) = (
        Arc::clone(&stack),
        Arc::clone(&stack),
        Arc::clone(&stack),
        Arc::clone(&base),
    );
    let mut dog = Watchdog::builder()
        .invariant(Invariant::conservation(
            "conservation",
            THREADS as u64,
            move || successes(&p).0,
            move || successes(&o).1,
            move || s.inner().len() as i64 - b.load(Ordering::SeqCst),
        ))
        .debounce(2)
        .build();

    // Each worker pushes before it pops and leaves every fourth value
    // behind, so no answer is Full or Empty and every attempt that did
    // not abort is a success.
    let phase = Barrier::new(THREADS + 1);
    let mut scraped = registry.snapshot();
    std::thread::scope(|scope| {
        for proc in 0..THREADS {
            let (stack, phase) = (&stack, &phase);
            scope.spawn(move || {
                for burst in 0..2 {
                    phase.wait();
                    for i in 0..OPS / 2 {
                        let pushed = stack.apply(proc, &StackOp::Push(i as u32));
                        assert_eq!(pushed.expect_push(), PushOutcome::Pushed);
                        if burst == 1 || i % 4 != 0 || i >= 400 {
                            let popped = stack.apply(proc, &StackOp::Pop);
                            assert!(matches!(popped.expect_pop(), PopOutcome::Popped(_)));
                        }
                    }
                    phase.wait();
                }
            });
        }
        for burst in 0..2 {
            phase.wait();
            // A path-statistics reset racing the first burst's workers,
            // who cannot leave the burst before this thread reaches
            // the barrier below (it feeds no invariant, so the
            // watchdog's books hold).
            if burst == 0 {
                stack.reset_path_stats();
            }
            // Sample while the burst runs, then once it has quiesced.
            for _ in 0..50 {
                dog.tick();
            }
            let racing = registry.snapshot();
            assert_monotone(&scraped.counters, &racing.counters);
            phase.wait();
            for _ in 0..5 {
                dog.tick();
            }
            assert_eq!(dog.status(), "OK", "burst {burst}");
            if burst == 0 {
                assert!(
                    !stack.inner().is_empty(),
                    "the reset cuts a non-empty stack"
                );
                stack.inner().reset_abort_stats();
                stack.reset_path_stats();
                base.store(stack.inner().len() as i64, Ordering::SeqCst);
            }
            scraped = registry.snapshot();
            assert_monotone(&racing.counters, &scraped.counters);
        }
    });
    assert_eq!(dog.transitions(), 0, "a reset is not a leak");

    // The second burst alone: THREADS × OPS/2 pushes, as many pops.
    let (pushes, pops) = successes(&stack);
    assert_eq!(
        (pushes, pops),
        (THREADS as u64 * OPS / 2, THREADS as u64 * OPS / 2)
    );
    let telemetry = stack.telemetry();
    assert_eq!(telemetry.invocations(), THREADS as u64 * OPS);
    assert_eq!(telemetry.paths, stack.path_stats());

    // The registry's view is since construction: both bursts, less the
    // 100 pops each worker skipped in the first.
    let completions: u64 = ["fast", "eliminated", "locked", "combined"]
        .iter()
        .map(|path| scraped.counter(&format!("reset_ops_{path}_total")))
        .map(|total| total.expect("series"))
        .sum();
    assert_eq!(completions, THREADS as u64 * (2 * OPS - 100));
}
