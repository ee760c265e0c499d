//! Panic-safety and deadline tests for the Figure 3 slow path — no
//! `chaos` feature needed: the faults come from a scriptable object
//! ([`common::FlakyCounter`]) rather than injected fail points.
//!
//! The §5 caveat these tests probe: a process that dies between
//! lines 06 and 12 of Figure 3 leaves `CONTENTION` raised and the
//! lock held. The `SlowGuard` must undo both on unwind, and
//! `try_apply_for` must bound the wait when the holder never returns.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use common::{Add, FlakyCounter};
use cso_core::{ContentionSensitive, CsConfig, CsError};
use cso_locks::TasLock;
use cso_memory::backoff::Deadline;

fn make(n: usize) -> ContentionSensitive<FlakyCounter, TasLock> {
    ContentionSensitive::new(FlakyCounter::new(), TasLock::new(), n)
}

#[test]
fn panic_under_the_lock_is_survived_by_everyone_else() {
    let cs = Arc::new(make(4));
    // The aborts push the victim off the fast path; the next attempt
    // (now under the lock) panics.
    cs.inner().abort_to_the_lock();
    cs.inner().panic_next();
    let result = catch_unwind(AssertUnwindSafe(|| cs.apply(0, &Add(5))));
    assert!(result.is_err(), "the injected panic must propagate");
    assert_eq!(cs.fault_stats().poisoned, 1);
    assert_eq!(cs.inner().value(), 0, "the poisoned op must have no effect");

    // CONTENTION was restored: a contention-free op takes the fast path.
    assert_eq!(cs.apply(1, &Add(3)), 3);
    assert_eq!(cs.path_stats().fast, 1, "CONTENTION leaked: fast path dead");

    // The lock was released: a slow-path op completes too.
    cs.inner().abort_to_the_lock();
    assert_eq!(cs.apply(2, &Add(2)), 5);
    assert_eq!(cs.path_stats().locked, 1, "lock leaked: slow path dead");

    // And other *threads* keep completing.
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
        h.join()
            .expect("worker threads must complete after a poisoning");
    }
    assert_eq!(cs.inner().value(), 5 + 600);
}

#[test]
fn try_apply_for_times_out_while_the_holder_is_stuck() {
    let cs = Arc::new(make(2));
    cs.inner().gate.close();
    cs.inner().abort_to_the_lock();
    let worker = {
        let cs = Arc::clone(&cs);
        // Aborts off the fast path, takes the lock, then blocks on the
        // gate — a holder that (for now) never finishes its critical
        // section.
        thread::spawn(move || cs.apply(0, &Add(1)))
    };
    while cs.inner().gate.waiting() == 0 {
        thread::yield_now();
    }

    // The bounded call reports the wedge instead of hanging, with no
    // effect on the object.
    let res = cs.try_apply_for(1, &Add(2), Duration::from_millis(50));
    assert_eq!(res, Err(CsError::TimedOut));
    assert_eq!(cs.fault_stats().timeouts, 1);
    assert_eq!(cs.inner().value(), 0);

    // Un-wedge the holder; normal service resumes and the timed-out
    // operation can simply be retried.
    cs.inner().gate.open();
    assert_eq!(worker.join().unwrap(), 1);
    assert_eq!(cs.apply(1, &Add(2)), 3);
}

#[test]
fn try_apply_for_times_out_under_the_lock_and_releases_it() {
    let cs = make(1);
    // Every attempt aborts: the op acquires the lock but the line-08
    // retry loop can never finish.
    cs.inner().abort_next(usize::MAX);
    let res = cs.try_apply_for(0, &Add(1), Duration::from_millis(40));
    assert_eq!(res, Err(CsError::TimedOut));
    let faults = cs.fault_stats();
    assert_eq!(faults.timeouts, 1);
    assert_eq!(faults.poisoned, 0, "a timeout is not a poisoning");
    assert_eq!(cs.inner().value(), 0);

    // The guard released the lock and CONTENTION on the way out.
    cs.inner().abort_next(0);
    assert_eq!(cs.apply(0, &Add(7)), 7);
    assert_eq!(cs.path_stats().fast, 1);
}

#[test]
fn zero_timeout_still_serves_the_wait_free_fast_path() {
    let cs = make(1);
    assert_eq!(cs.try_apply_for(0, &Add(4), Duration::ZERO), Ok(4));
    assert_eq!(cs.path_stats().fast, 1);
    // An aborted operation sleeps no retry pause past its deadline: at
    // ZERO it escalates after one abort. A free lock is grabbed without
    // waiting (try-then-check), so it still completes under the lock.
    cs.inner().abort_next(1);
    assert_eq!(cs.try_apply_for(0, &Add(1), Duration::ZERO), Ok(5));
    assert_eq!(cs.path_stats().locked, 1);
    // Only an op that cannot finish inside its budget gives up.
    cs.inner().abort_next(usize::MAX);
    assert_eq!(
        cs.try_apply_for(0, &Add(1), Duration::ZERO),
        Err(CsError::TimedOut)
    );
    cs.inner().abort_next(0);
    assert_eq!(cs.inner().value(), 5);
}

#[test]
fn deadline_never_behaves_like_apply() {
    let cs = make(1);
    cs.inner().abort_to_the_lock();
    assert_eq!(cs.try_apply_until(0, &Add(6), Deadline::NEVER), Ok(6));
    assert_eq!(cs.path_stats().locked, 1);
    assert_eq!(cs.fault_stats().timeouts, 0);
}

#[test]
fn unfair_ablation_times_out_on_the_raw_lock() {
    let cs = Arc::new(ContentionSensitive::with_config(
        FlakyCounter::new(),
        TasLock::new(),
        2,
        CsConfig::UNFAIR,
    ));
    cs.inner().gate.close();
    cs.inner().abort_to_the_lock();
    let worker = {
        let cs = Arc::clone(&cs);
        thread::spawn(move || cs.apply(0, &Add(1)))
    };
    while cs.inner().gate.waiting() == 0 {
        thread::yield_now();
    }
    // Without FLAG/TURN the deadline applies directly to try_lock_until.
    let res = cs.try_apply_for(1, &Add(2), Duration::from_millis(30));
    assert_eq!(res, Err(CsError::TimedOut));
    cs.inner().gate.open();
    assert_eq!(worker.join().unwrap(), 1);
    assert_eq!(cs.apply(1, &Add(2)), 3);
}
