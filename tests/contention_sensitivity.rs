//! Contention-sensitivity, said in counts (no clock).
//!
//! A file — a test binary — of its own on purpose: the count below is
//! about *two* threads on two cores, and the tests of one binary run
//! in parallel.

use cso::stack::{CsStack, PushOutcome};

/// Operations per thread: long enough that two threads on two cores
/// overlap for most of the run.
const OPS: u32 = if cfg!(debug_assertions) {
    200_000
} else {
    2_000_000
};

/// Weak-operation aborts below which a run was not contended: two
/// threads the scheduler leaves on one core take turns by the time
/// slice and abort a few dozen times in the whole run, against tens of
/// thousands when they race on two.
const CONTENDED: u64 = 1_000;

/// Two threads, `OPS` operations each, on a fresh stack: two pushes,
/// two pops, phase-shifted per thread. Conservation is checked here.
fn run() -> CsStack<u32> {
    let stack = CsStack::<u32>::new(8192, 2);
    let (mut put, mut took) = ((0u64, 0u64), (0u64, 0u64));
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..2u32)
            .map(|t| {
                let stack = &stack;
                s.spawn(move || {
                    let (mut put, mut took) = ((0u64, 0u64), (0u64, 0u64));
                    for i in 0..OPS {
                        if (i + 2 * t) % 4 < 2 {
                            let v = t * OPS + i;
                            if stack.push(t as usize, v) == PushOutcome::Pushed {
                                put = (put.0 + 1, put.1 + u64::from(v));
                            }
                        } else if let Some(v) = stack.pop(t as usize).into_option() {
                            took = (took.0 + 1, took.1 + u64::from(v));
                        }
                    }
                    (put, took)
                })
            })
            .collect();
        for w in workers {
            let (p, t) = w.join().expect("both threads finish");
            put = (put.0 + p.0, put.1 + p.1);
            took = (took.0 + t.0, took.1 + t.1);
        }
    });
    assert!(stack.path_stats().total() >= u64::from(2 * OPS));
    while let Some(v) = stack.pop(0).into_option() {
        took = (took.0 + 1, took.1 + u64::from(v));
    }
    assert_eq!(put, took, "count and sum of values put = taken + drained");
    stack
}

/// Two threads hammering one `CsStack` rarely need the lock, and when
/// they do it is because operations really escalated. Figure 3 as
/// printed escalates on the first abort and 10–22 % of this run
/// completes under the lock (0.25 on the yardstick's pinned threads).
/// With line 02 retried after a pause but a raised `CONTENTION` queued
/// behind at once, 0.2–1.0 % did — 0.6–0.9 lock trips per abort: each
/// holder's raise sent its peer's next operation to the lock too, a
/// convoy. With the raise waited out as well only real escalations
/// lock, and an escalation takes several aborts: 0.07–0.09 % of the
/// operations, 0.13–0.14 lock trips per abort. With the pause a sleep
/// the threads collide about ten times less often, and the lock with
/// them: 0.004–0.008 %, 0.11–0.15 per abort. The bound sits between
/// the two, and is judged per abort rather than per operation because
/// a run the scheduler overlaps only in part has fewer of both.
///
/// One-sided: a run the scheduler kept on one core is not contended
/// (fewer than [`CONTENDED`] aborts) and is run again, up to twenty
/// times; a host that never races the two threads passes trivially.
/// The ratio is judged in optimized builds only (CI runs this file
/// with `--release`). The pause is a fixed time whatever the build;
/// an unoptimized operation is ten times longer, so a window is worth
/// a tenth as many operations and the same locked completions weigh
/// ten times as much.
#[test]
fn two_threads_on_one_stack_conserve_and_rarely_lock() {
    let runs = if cfg!(debug_assertions) { 1 } else { 20 };
    for _ in 0..runs {
        let stack = run();
        let paths = stack.path_stats();
        let a = stack.abort_stats();
        let aborts = a.push_aborts + a.pop_aborts;
        println!(
            "{} of {} operations took the lock, {aborts} aborts",
            paths.locked,
            paths.total()
        );
        if !cfg!(debug_assertions) && aborts >= CONTENDED {
            assert!(paths.locked * 4 < aborts, "see the counts above");
            return;
        }
    }
}
