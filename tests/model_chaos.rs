//! Chaos fail points under the model runtime: fires are schedule
//! decisions, not wall-clock RNG draws.
//!
//! Off a model thread, a probabilistic fail-point plan (`one_in > 1`)
//! draws from the site's RNG in whatever order threads happen to hit
//! it — two runs of the same test can fire on different operations.
//! On a model thread the draw is recorded in the execution's decision
//! trace: same schedule, same fires, replayable from the printed
//! trace. These tests pin that contract.
//!
//! The chaos registry is process-global, so this file serializes its
//! tests behind `model_support::serial`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cso::memory::chaos::{self, Fault, Plan};
use cso::sched::{spawn, Explorer};
use cso::stack::{AbortableStack, PopOutcome, PushOutcome};

mod model_support;
use model_support::serial;

/// One exploration of a two-thread abortable-stack body with a
/// probabilistic spurious-abort plan armed on the push fast path.
/// Returns the per-schedule fire counts observed across the whole
/// exploration (keyed by schedule order).
fn fires_per_schedule(seed: u64) -> Vec<u64> {
    let fires = Arc::new(Mutex::new(Vec::new()));
    let report = {
        let fires = Arc::clone(&fires);
        Explorer::exhaustive()
            .with_seed(seed)
            .with_max_schedules(64)
            .explore(move || {
                chaos::reset();
                chaos::arm_plan("stack::push", Plan::one_in(Fault::SpuriousAbort, 2));
                let stack: Arc<AbortableStack<u32>> = Arc::new(AbortableStack::new(4));
                let child = {
                    let stack = Arc::clone(&stack);
                    spawn(move || {
                        // Strong push: retry through injected aborts.
                        while stack.weak_push(2).is_err() {}
                    })
                };
                while stack.weak_push(1).is_err() {}
                child.join();
                let mut popped = Vec::new();
                loop {
                    match stack.weak_pop() {
                        Ok(PopOutcome::Popped(v)) => popped.push(v),
                        Ok(PopOutcome::Empty) => break,
                        Err(_) => {}
                    }
                }
                popped.sort_unstable();
                assert_eq!(popped, vec![1, 2], "conservation under chaos");
                let fired = chaos::fires("stack::push");
                chaos::reset();
                fires.lock().unwrap().push(fired);
            })
    };
    report.assert_ok();
    let out = fires.lock().unwrap().clone();
    assert!(!out.is_empty());
    out
}

/// Same seed ⇒ the exploration walks the same schedules and every
/// probabilistic draw resolves identically — fire counts match
/// schedule-for-schedule.
#[test]
fn chaos_fires_are_schedule_deterministic() {
    let _serial = serial();
    let first = fires_per_schedule(42);
    let second = fires_per_schedule(42);
    assert_eq!(first, second, "same seed must reproduce every draw");
    assert!(
        first.iter().any(|&f| f > 0),
        "a one-in-2 plan must fire somewhere across {} schedules",
        first.len()
    );
}

/// Different seeds decorrelate the draws (the knob is real): at least
/// one schedule position resolves differently.
#[test]
fn chaos_seed_changes_the_draws() {
    let _serial = serial();
    let a = fires_per_schedule(1);
    let b = fires_per_schedule(0xDEAD_BEEF);
    // The schedule *spaces* may differ in size too (a fired abort
    // changes the retry interleaving); either way the runs must not be
    // bit-identical.
    assert_ne!(a, b, "seeds 1 and 0xDEAD_BEEF drew identically");
}

/// `Fault::Panic` at a fail point inside an exploration is reported as
/// an ordinary violation with a replayable trace — crash-at-a-step
/// testing composes with the explorer.
#[test]
fn injected_panic_is_a_replayable_violation() {
    let _serial = serial();
    let body = || {
        chaos::reset();
        // Fire on the second hit: the solo (pre-spawn) push survives,
        // the racing one dies.
        chaos::arm_plan(
            "stack::push",
            Plan {
                fault: Fault::Panic,
                after: 1,
                one_in: 1,
                max_fires: u64::MAX,
            },
        );
        let stack: Arc<AbortableStack<u32>> = Arc::new(AbortableStack::new(4));
        assert!(matches!(stack.weak_push(1), Ok(PushOutcome::Pushed)));
        let child = {
            let stack = Arc::clone(&stack);
            spawn(move || {
                let _ = stack.weak_push(2);
            })
        };
        child.join();
    };
    let report = Explorer::exhaustive().with_max_schedules(16).explore(body);
    let violation = report.assert_violation();
    assert!(
        violation.message.contains("injected panic"),
        "unexpected violation: {}",
        violation.message
    );
    // Replay hits the same panic deterministically.
    let replayed = Explorer::replay(&violation.trace).explore(body);
    assert!(
        replayed
            .assert_violation()
            .message
            .contains("injected panic"),
        "replay diverged"
    );
    chaos::reset();
}

/// `StallForever` under the model is absorbed by the scheduler (the
/// stalled thread spins as *yielded*, everyone else keeps running) and
/// released by `reset` — no wall-clock parking, no hang.
#[test]
fn stall_forever_is_model_absorbed() {
    let _serial = serial();
    let released = Arc::new(AtomicU64::new(0));
    let report = {
        let released = Arc::clone(&released);
        Explorer::exhaustive()
            .with_max_schedules(32)
            .explore(move || {
                chaos::reset();
                chaos::arm_plan(
                    "stack::push",
                    Plan {
                        fault: Fault::StallForever,
                        after: 0,
                        one_in: 1,
                        max_fires: 1,
                    },
                );
                let stack: Arc<AbortableStack<u32>> = Arc::new(AbortableStack::new(4));
                let child = {
                    let stack = Arc::clone(&stack);
                    spawn(move || {
                        let _ = stack.weak_push(2);
                    })
                };
                // The child hits the stall; the body releases it.
                chaos::reset();
                let _ = stack.weak_push(1);
                child.join();
                released.fetch_add(1, Ordering::Relaxed);
            })
    };
    report.assert_ok();
    assert!(released.load(Ordering::Relaxed) > 0);
    chaos::reset();
}
