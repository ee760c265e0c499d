//! Chaos stress for the sharded router: spurious aborts, panic kills,
//! and hard-stalled lock holders, audited against the lanes.
//!
//! These tests require the `chaos` feature:
//!
//! ```text
//! cargo test --features chaos --test shard_chaos
//! ```
//!
//! The E14 kill-site audit, shard edition. The router keeps no record
//! of occupancy, order or traffic beside the lanes' own registers and
//! statistics, so a kill leaves nothing to heal: `len()` is the lane
//! sum before, during and after. `ShardConfig::strict` is one such
//! lane, so its crash story is the cell's own — a panic under the lock
//! is the drop guard's, a stalled holder is §4.4 succession — with no
//! second lock in front of it to wedge. Every test here closes with
//! the same invariant: **a killed operation may neither leak nor
//! double-count** — `len()` equals the sum of lane ground truths and
//! the drained values equal the successfully pushed ones exactly.
//!
//! The chaos fail-point registry is process-global, so tests serialize
//! behind one mutex (same pattern as `tests/chaos_stress.rs`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use cso::core::{CsConfig, RecoveryPolicy, FAST_ATTEMPTS};
use cso::memory::chaos::{self, Fault, Plan};
use cso::shard::{ShardConfig, ShardedCsStack};
use cso::stack::{PopOutcome, PushOutcome};

// The chaos registry is process-global: serialize the scenarios.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Sum of lane ground truths (counted reads) — what `len()` must
/// agree with at quiescence.
fn lane_sum(stack: &ShardedCsStack<u32>) -> usize {
    (0..stack.lanes()).map(|i| stack.lane(i).len()).sum()
}

/// Spurious-abort storm over a mixed 3-thread workload, exact and
/// relaxed:
/// aborted attempts retry down the ladder, but completed operations
/// must conserve values and `len()` must track the lanes.
#[test]
fn abort_storm_conserves_values_and_occupancy() {
    let _serial = serial();
    for config in [ShardConfig::strict(2), ShardConfig::relaxed(2, 4)] {
        for round in 0..40usize {
            chaos::reset();
            chaos::arm_plan("stack::push", Plan::one_in(Fault::SpuriousAbort, 3));
            chaos::arm_plan("stack::pop", Plan::one_in(Fault::SpuriousAbort, 3));
            chaos::arm_plan("cs::fast", Plan::one_in(Fault::SpuriousAbort, 4));
            chaos::arm_plan("tas::acquire", Plan::one_in(Fault::Yield, 2));

            let stack: ShardedCsStack<u32> = ShardedCsStack::new(64, 3, config);
            let pushed = Mutex::new(Vec::new());
            let popped = Mutex::new(Vec::new());
            std::thread::scope(|s| {
                for proc in 0..3 {
                    let stack = &stack;
                    let pushed = &pushed;
                    let popped = &popped;
                    s.spawn(move || {
                        for i in 0..7usize {
                            if (proc * 31 + i * 17 + round) % 3 != 0 {
                                let v = (round * 100 + proc * 7 + i) as u32;
                                if stack.push(proc, v) == PushOutcome::Pushed {
                                    pushed.lock().unwrap().push(v);
                                }
                            } else if let PopOutcome::Popped(v) = stack.pop(proc) {
                                popped.lock().unwrap().push(v);
                            }
                        }
                    });
                }
            });

            // Occupancy audit at quiescence: nothing to refresh first.
            assert_eq!(stack.len(), lane_sum(&stack), "len() off the lanes");

            // Conservation: popped ∪ residue == successfully pushed.
            let mut seen = popped.into_inner().unwrap();
            while let PopOutcome::Popped(v) = stack.pop(0) {
                seen.push(v);
            }
            seen.sort_unstable();
            let mut expect = pushed.into_inner().unwrap();
            expect.sort_unstable();
            assert_eq!(seen, expect, "round {round} under {config:?}");
        }
    }
    assert!(chaos::fires("stack::push") > 0, "the storm never fired");
    chaos::reset();
}

/// A panic kill inside a **relaxed-mode** lane operation (fast path
/// vetoed, victim dies under the lane lock) leaves nothing to heal:
/// the lanes are the only record of occupancy, so `len()` is exact the
/// moment the unwind ends and the victim's value neither leaks in nor
/// double-counts.
#[test]
fn panic_kill_in_relaxed_lane_leaves_nothing_to_heal() {
    let _serial = serial();
    chaos::reset();
    let stack: ShardedCsStack<u32> = ShardedCsStack::new(32, 3, ShardConfig::relaxed(2, 16));
    for v in 1..=10 {
        assert_eq!(stack.push(0, v), PushOutcome::Pushed);
    }
    let len_before = stack.len();

    chaos::arm_plan(
        "cs::fast",
        Plan::times(Fault::SpuriousAbort, u64::from(FAST_ATTEMPTS)),
    );
    chaos::arm_plan("cs::locked", Plan::once(Fault::Panic));
    let killed = catch_unwind(AssertUnwindSafe(|| stack.push(1, 999)));
    assert!(killed.is_err(), "the injected panic must surface");
    assert_eq!(stack.len(), len_before, "999 must not be counted");
    assert_eq!(stack.len(), lane_sum(&stack));

    assert_eq!(stack.push(2, 11), PushOutcome::Pushed);
    assert_eq!(stack.len(), len_before + 1);
    assert_eq!(stack.len(), lane_sum(&stack));

    // Conservation: the victim's value never surfaces.
    let mut drained = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..3)
            .map(|proc| {
                let stack = &stack;
                s.spawn(move || {
                    let mut got = Vec::new();
                    while let PopOutcome::Popped(v) = stack.pop(proc) {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for h in handles {
            drained.extend(h.join().unwrap());
        }
    });
    drained.sort_unstable();
    assert_eq!(drained, (1..=11).collect::<Vec<u32>>(), "999 leaked in");
    chaos::reset();
}

/// A panic kill inside a **strict-mode** operation: the victim dies
/// under the one cell's lock, the cell's drop guard releases it (no
/// wedge — and there is no other lock to leave held), the victim's
/// value is absent, and the surviving values drain in exact LIFO order.
#[test]
fn panic_kill_in_strict_mode_wedges_nothing_and_keeps_order() {
    let _serial = serial();
    chaos::reset();
    let stack: ShardedCsStack<u32> = ShardedCsStack::new(32, 3, ShardConfig::strict(2));
    for v in 1..=6 {
        assert_eq!(stack.push(0, v), PushOutcome::Pushed);
    }

    chaos::arm_plan(
        "cs::fast",
        Plan::times(Fault::SpuriousAbort, u64::from(FAST_ATTEMPTS)),
    );
    chaos::arm_plan("cs::locked", Plan::once(Fault::Panic));
    let killed = catch_unwind(AssertUnwindSafe(|| stack.push(1, 999)));
    assert!(killed.is_err(), "the injected panic must surface");

    // Every operation below would wedge behind a lock left held.
    assert_eq!(stack.push(2, 7), PushOutcome::Pushed);
    assert_eq!(stack.len(), lane_sum(&stack));
    assert_eq!(stack.len(), 7, "999 must not be counted");

    // Exact LIFO across the kill.
    for expect in (1..=7).rev() {
        assert_eq!(stack.pop(2), PopOutcome::Popped(expect));
    }
    assert_eq!(stack.pop(0), PopOutcome::Empty);
    chaos::reset();
}

/// The E14 endgame at shard level: a victim hard-stalled forever while
/// holding one lane's slow-path lock. With a [`RecoveryPolicy`] on the
/// lanes, survivors routed to that lane suspect the corpse, seize the
/// lock by succession, and complete; conservation and `len()` stay
/// exact. Two relaxed lanes add fault isolation (the bystander lane
/// waits for nobody); `strict(2)` is the one cell, where every survivor
/// crosses the corpse — the configuration a lock in front of the lanes
/// could only wedge.
#[test]
fn stalled_lane_lock_holder_is_succeeded_and_occupancy_stays_exact() {
    let _serial = serial();
    const PER_THREAD: u32 = 50;
    let policy = RecoveryPolicy {
        grace: Duration::from_secs(3600), // suspect only on mark_dead
        max_successions: 8,
        backoff: Duration::from_millis(1),
    };
    let cs = CsConfig::PAPER.without_fast_path().with_recovery(policy);
    // n = 4. Two lanes: procs 0 and 2 share home lane 0, so survivor 2
    // must cross the corpse's lane.
    for config in [ShardConfig::relaxed(2, 4096), ShardConfig::strict(2)] {
        chaos::reset();
        let stack = Arc::new(ShardedCsStack::<u32>::new(4096, 4, config.with_cs(cs)));

        // The victim (proc 0, home lane 0) takes lane 0's slow-path
        // lock and dies there.
        chaos::arm_plan("cs::locked", Plan::once(Fault::StallForever));
        let _corpse = {
            let stack = Arc::clone(&stack);
            std::thread::spawn(move || {
                let _ = stack.push(0, 999_999);
            })
        };
        while chaos::fires("cs::locked") == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        stack
            .lane(0)
            .liveness()
            .expect("recovery enabled")
            .mark_dead(0);

        // Survivors 1..=3 complete their whole workloads — including
        // those whose home lane is the corpse's.
        std::thread::scope(|s| {
            for proc in 1..=3usize {
                let stack = &stack;
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        let v = proc as u32 * PER_THREAD + i;
                        assert_eq!(stack.push(proc, v), PushOutcome::Pushed);
                    }
                });
            }
        });
        let successions = |lane: usize| {
            let stats = stack.lane(lane).recovery_stats();
            stats.expect("recovery enabled").successions
        };
        assert!(successions(0) >= 1, "the corpse's lock was never seized");
        if stack.lanes() == 2 {
            // Lane 1 waited for nobody: its tenures overlapped the
            // corpse's, which one cell serialises behind it.
            assert_eq!(successions(1), 0);
        }

        // Kill-site audit: the stalled op applied nothing — no leak,
        // no double-count.
        assert_eq!(stack.len(), lane_sum(&stack));
        assert_eq!(lane_sum(&stack), 3 * PER_THREAD as usize);

        let mut drained = Vec::new();
        while let PopOutcome::Popped(v) = stack.pop(1) {
            drained.push(v);
        }
        drained.sort_unstable();
        let expected: Vec<u32> = (1..=3u32)
            .flat_map(|p| p * PER_THREAD..(p + 1) * PER_THREAD)
            .collect();
        assert_eq!(
            drained, expected,
            "values lost or duplicated past the crash under {config:?}"
        );
    }
    chaos::reset();
}
