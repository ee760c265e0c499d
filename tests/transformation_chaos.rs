//! Fail-point chaos tests for the Figure 3 transformation
//! (`--features chaos`). Where `cso-core`'s `panic_safety.rs` scripts
//! faults into the *object*, these arm the named fail points inside
//! the transformation and the locks themselves — panics and stalls at
//! the exact program points §5 of the paper worries about.
//!
//! Lives with the umbrella's other mode-gated tests: `cso-core` has no
//! `chaos` feature to gate a test target on (the switch is
//! `cso-memory`'s). The scripted object is `cso-core`'s own.

#[path = "../crates/core/tests/common/mod.rs"]
mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::Duration;

use common::{Add, FlakyCounter};
use cso::core::{ContentionSensitive, CsConfig, CsError, RecoveryPolicy};
use cso::locks::TasLock;
use cso::memory::chaos::{self, Fault, Plan};

// The chaos registry is process-global: these tests must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn make(n: usize) -> ContentionSensitive<FlakyCounter, TasLock> {
    ContentionSensitive::new(FlakyCounter::new(), TasLock::new(), n)
}

/// Acceptance test 1: a panic injected *inside the locked slow path*
/// (after `CONTENTION ← true`, before the weak op) must not wedge the
/// other processes — the guard restores `CONTENTION` and releases the
/// lock during unwind.
#[test]
fn injected_panic_in_locked_slow_path_leaves_object_usable() {
    let _serial = serial();
    chaos::reset();
    let cs = Arc::new(make(4));
    cs.inner().abort_to_the_lock(); // force the victim onto the slow path
    chaos::arm_plan("cs::locked", Plan::once(Fault::Panic));

    let victim = {
        let cs = Arc::clone(&cs);
        thread::spawn(move || catch_unwind(AssertUnwindSafe(|| cs.apply(0, &Add(1)))))
    };
    assert!(victim.join().unwrap().is_err(), "injection must panic");
    assert_eq!(chaos::fires("cs::locked"), 1);
    assert_eq!(cs.fault_stats().poisoned, 1);
    assert_eq!(cs.inner().value(), 0, "the poisoned op must have no effect");

    // No leaked lock: a forced slow-path op from another proc completes.
    cs.inner().abort_to_the_lock();
    assert_eq!(cs.apply(1, &Add(5)), 5);
    // CONTENTION restored: contention-free ops are back on the fast path.
    assert_eq!(cs.apply(2, &Add(1)), 6);
    assert!(cs.path_stats().fast >= 1);

    // And concurrent threads all complete.
    let handles: Vec<_> = (0..3)
        .map(|proc| {
            let cs = Arc::clone(&cs);
            thread::spawn(move || {
                for _ in 0..200 {
                    cs.apply(proc, &Add(1));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("threads must complete after the poisoning");
    }
    assert_eq!(cs.inner().value(), 6 + 600);
    chaos::reset();
}

/// Acceptance test 2: a lock holder stalled forever (the §5 crash the
/// algorithm cannot survive) wedges unbounded `apply` — but
/// `try_apply_for` reports [`CsError::TimedOut`] instead of hanging.
#[test]
fn try_apply_for_times_out_when_holder_stalls_forever() {
    let _serial = serial();
    chaos::reset();
    let cs = Arc::new(make(2));
    cs.inner().abort_to_the_lock();
    chaos::arm_plan("cs::locked", Plan::once(Fault::StallForever));

    let wedged = {
        let cs = Arc::clone(&cs);
        thread::spawn(move || cs.apply(0, &Add(1)))
    };
    while chaos::fires("cs::locked") == 0 {
        thread::sleep(Duration::from_millis(1));
    }

    // The holder is parked with the lock held and CONTENTION raised.
    let res = cs.try_apply_for(1, &Add(2), Duration::from_millis(50));
    assert_eq!(res, Err(CsError::TimedOut));
    assert_eq!(cs.fault_stats().timeouts, 1);
    assert_eq!(cs.inner().value(), 0);

    // reset() releases the stall; the system heals and the timed-out
    // operation retries successfully.
    chaos::reset();
    assert_eq!(wedged.join().unwrap(), 1);
    assert_eq!(cs.apply(1, &Add(2)), 3);
}

/// A spurious-abort storm on the fast path degrades every operation to
/// the lock — contention-sensitivity lost, correctness kept.
#[test]
fn fast_path_abort_storm_degrades_to_lock_without_losing_ops() {
    let _serial = serial();
    chaos::reset();
    let cs = make(2);
    chaos::arm("cs::fast", Fault::SpuriousAbort);
    for i in 0..100u64 {
        assert_eq!(cs.apply((i % 2) as usize, &Add(1)), i + 1);
    }
    assert_eq!(cs.inner().value(), 100);
    let stats = cs.path_stats();
    assert_eq!(stats.fast, 0, "every fast attempt was vetoed");
    assert_eq!(stats.locked, 100);
    // The veto applies to every attempt: an operation reaches the
    // lock only after its fast attempt and every retry were refused.
    assert_eq!(
        chaos::fires("cs::fast"),
        100 * (u64::from(cso::core::FAST_ATTEMPTS))
    );
    chaos::reset();
}

/// Delays and yields sprayed across the transformation and the TAS
/// lock perturb schedules but never correctness: all operations
/// complete and the count is conserved.
#[test]
fn delay_and_yield_faults_preserve_correctness_under_load() {
    let _serial = serial();
    chaos::reset();
    chaos::arm_plan("cs::fast", Plan::one_in(Fault::SpuriousAbort, 3));
    chaos::arm_plan(
        "cs::lock-wait",
        Plan::one_in(Fault::Delay(Duration::from_micros(50)), 2),
    );
    chaos::arm_plan("tas::acquire", Plan::one_in(Fault::Yield, 2));
    chaos::arm_plan("sfree::unlock", Plan::one_in(Fault::Yield, 4));

    const THREADS: usize = 4;
    const OPS: u64 = 300;
    let cs = Arc::new(make(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|proc| {
            let cs = Arc::clone(&cs);
            thread::spawn(move || {
                for _ in 0..OPS {
                    cs.apply(proc, &Add(1));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no chaos schedule may wedge a thread");
    }
    assert_eq!(cs.inner().value(), THREADS as u64 * OPS);
    assert_eq!(cs.path_stats().total(), THREADS as u64 * OPS);
    assert_eq!(cs.fault_stats().poisoned, 0);
    chaos::reset();
}

/// Crash recovery for the combining slow path: a poster that dies
/// right after publishing its record must not be waited on forever —
/// the next combiner tombstones the orphan and completes. If the owner
/// was only *falsely* suspected, it finds the tombstone on revival,
/// reclaims it, reposts, and its operation still applies exactly once.
#[test]
fn dead_posters_record_is_tombstoned_and_reposted_on_revival() {
    let _serial = serial();
    chaos::reset();
    let policy = RecoveryPolicy {
        grace: Duration::from_secs(3600), // only an explicit mark_dead suspects
        max_successions: 8,
        backoff: Duration::from_millis(1),
    };
    let config = CsConfig::COMBINING
        .without_fast_path()
        .with_recovery(policy);
    let cs = Arc::new(ContentionSensitive::with_config(
        FlakyCounter::new(),
        TasLock::new(),
        2,
        config,
    ));
    chaos::arm_plan("cs::post", Plan::once(Fault::StallForever));
    let wedged = {
        let cs = Arc::clone(&cs);
        thread::spawn(move || cs.apply(0, &Add(100)))
    };
    while chaos::fires("cs::post") == 0 {
        thread::sleep(Duration::from_millis(1));
    }
    cs.liveness().unwrap().mark_dead(0);

    // The survivor combines past the orphaned record by retiring it.
    assert_eq!(cs.apply(1, &Add(2)), 2);
    let stats = cs.recovery_stats().unwrap();
    assert_eq!(stats.reclaimed, 1);
    assert_eq!(stats.successions, 0, "the corpse never held the lock");
    assert!(!cs.is_poisoned());

    // Exactly-once, half one: the tombstoned operation did NOT apply.
    assert_eq!(cs.inner().value(), 2);

    // Revive the falsely-suspected poster: it reclaims the tombstone,
    // re-announces itself, reposts, and completes.
    chaos::reset();
    assert_eq!(wedged.join().unwrap(), 102);
    // Exactly-once, half two: the revived operation applied once.
    assert_eq!(cs.inner().value(), 102);
}

/// Coverage tracing proves the fail points are actually threaded
/// through every layer a slow-path operation crosses.
#[test]
fn tracing_sees_every_site_on_a_slow_path_operation() {
    let _serial = serial();
    chaos::reset();
    chaos::set_tracing(true);
    let cs = make(2);
    cs.inner().abort_to_the_lock();
    assert_eq!(cs.apply(0, &Add(9)), 9);
    let seen = chaos::seen_sites();
    for site in [
        "cs::fast",
        "cs::lock-wait",
        "cs::locked",
        "sfree::wait",
        "sfree::unlock",
        "tas::acquire",
        "tas::release",
    ] {
        assert!(
            seen.contains(&site),
            "fail point `{site}` never hit; saw {seen:?}"
        );
    }
    chaos::reset();
}
