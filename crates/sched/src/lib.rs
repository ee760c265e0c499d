//! # cso-sched — deterministic-interleaving runtime
//!
//! A loom-style controlled scheduler that drives *real* threads
//! running *production* code through exhaustively enumerated (or
//! seeded-random, replayed, or fair round-robin) interleavings. It is
//! the workspace's one model checker: the paper's proofs (§4.3, §4.4,
//! §5) are checked by `tests/model_*.rs` bodies over the shipped
//! types, not over transcriptions of them. It is the engine behind
//! the `model` feature of `cso-memory`: when that feature is on, every
//! counted register access in `cso_memory::reg` calls [`yield_access`]
//! and every spin-wait calls [`yield_spin`], turning each shared-memory
//! step into a scheduling decision this crate controls.
//!
//! ## How it works
//!
//! - **Serialization.** A [`Explorer::explore`] session runs the test
//!   body as model thread 0 and [`spawn`]s further model threads as
//!   real OS threads, but only one holds the *grant* at a time: at
//!   every yield point the running thread parks and the scheduler
//!   picks the next, so interleavings of counted accesses are fully
//!   under scheduler control. Code *between* yield points executes as
//!   one atomic block of the schedule — which is exactly the paper's
//!   cost model, where only counted base-object accesses are steps.
//! - **DFS over a `Path`.** Each execution records its branch
//!   decisions; after the body finishes, the deepest branch with an
//!   untried alternative is stepped and the body re-runs from the top
//!   (the program is its own checkpoint). Forced moves are not
//!   recorded, keeping traces short.
//! - **Bounded preemption.** An involuntary switch away from a
//!   runnable, non-spinning thread counts against a small budget
//!   (CHESS-style): most real bugs need 1–2 preemptions, and the bound
//!   turns an exponential space into a polynomial one.
//! - **Spin discipline.** A thread that reports a spin-wait is
//!   scheduled again only when no fresh thread is runnable, pruning
//!   stutter re-reads (sound for safety oracles) and guaranteeing the
//!   grant escapes uncounted busy-wait loops.
//! - **Replay.** A violation prints a dot-separated branch trace;
//!   [`Explorer::replay`] forces a new run through it, reproducing the
//!   failure deterministically.
//! - **Crash prefixes.** A thread started with [`spawn_crashing`] is
//!   frozen for good after `k` yield points — the asynchronous model's
//!   crash. `k` is a decision like any other: enumerated by the DFS,
//!   drawn by a random sweep, printed in the trace (`k<n>`), replayed.
//!   [`JoinHandle::try_join`] tells the body whether the thread
//!   finished or froze.
//! - **Fair runs.** [`Explorer::round_robin`] is one execution under
//!   strict rotation (every runnable thread steps once per round): the
//!   scheduler under which Lemmas 2–3 promise bounded completion.
//! - **Pruning is a failure.** An execution that exceeds its step
//!   budget is cut *before* its oracles run; [`Report::assert_ok`]
//!   fails on it. A body that expects a blocked thread (a crashed lock
//!   holder's successor, §5) reads [`Report::pruned`] instead.
//!
//! ## How deep to explore
//!
//! The host sustains 2–9k schedules/s. Two threads racing one
//! operation each exhaust with **no** preemption bound; two operations
//! per thread, or three threads, exceed 400k schedules unbounded and
//! run at bound 3–4 plus a seeded random sweep. The measured budget
//! table is in DESIGN.md ("The deterministic-interleaving runtime").
//!
//! ## Determinism contract
//!
//! Bodies must be schedule-deterministic: no wall-clock branching, no
//! OS randomness. Under the `model` feature `cso-memory` routes its
//! entropy (`XorShift64::from_entropy`) and chaos fail-point draws
//! through [`entropy_seed`] / [`chaos_draw`], so the production
//! structures satisfy the contract unchanged. A diverging replay
//! panics with a "not schedule-deterministic" message rather than
//! exploring garbage.

mod explore;
mod path;
mod rng;
mod session;

pub use explore::{Explorer, Mode, Report, Violation};
pub use path::{format_trace, parse_trace, Decision};
pub use rng::SplitMix64;
pub use session::{
    active, chaos_draw, entropy_seed, spawn, spawn_crashing, yield_access, yield_spin, JoinHandle,
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    /// A deliberately racy read-modify-write: `yield_access` before
    /// each shared access stands in for the instrumented registers.
    fn racy_increment(x: &AtomicU64) {
        yield_access();
        let v = x.load(Ordering::SeqCst);
        yield_access();
        x.store(v + 1, Ordering::SeqCst);
    }

    fn lost_update_body() {
        let x = Arc::new(AtomicU64::new(0));
        let t = {
            let x = Arc::clone(&x);
            spawn(move || racy_increment(&x))
        };
        racy_increment(&x);
        t.join();
        yield_access();
        assert_eq!(x.load(Ordering::SeqCst), 2, "lost update");
    }

    #[test]
    fn exhaustive_finds_lost_update() {
        let report = Explorer::exhaustive().explore(lost_update_body);
        let v = report.assert_violation();
        assert!(v.message.contains("lost update"), "got: {}", v.message);
        assert!(!v.trace.is_empty(), "branching schedule must leave a trace");
    }

    #[test]
    fn replay_reproduces_the_violation() {
        let found = Explorer::exhaustive().explore(lost_update_body);
        let v = found.assert_violation().clone();
        let replayed = Explorer::replay(&v.trace).explore(lost_update_body);
        let rv = replayed.assert_violation();
        assert_eq!(rv.message, v.message);
        assert_eq!(rv.trace, v.trace);
    }

    #[test]
    fn zero_preemptions_cannot_find_it() {
        // With no involuntary switches each thread's read-modify-write
        // runs atomically, so the race is invisible — evidence the
        // bound really prunes and the finder above really interleaves.
        let report = Explorer::exhaustive()
            .with_preemption_bound(Some(0))
            .explore(lost_update_body);
        assert!(report.violation.is_none(), "{report}");
        assert!(report.exhausted);
    }

    #[test]
    fn correct_code_exhausts_clean() {
        let report = Explorer::exhaustive().explore(|| {
            let x = Arc::new(AtomicU64::new(0));
            let t = {
                let x = Arc::clone(&x);
                spawn(move || {
                    yield_access();
                    x.fetch_add(1, Ordering::SeqCst);
                })
            };
            yield_access();
            x.fetch_add(1, Ordering::SeqCst);
            t.join();
            yield_access();
            assert_eq!(x.load(Ordering::SeqCst), 2);
        });
        report.assert_ok();
        assert!(report.exhausted);
        assert!(report.schedules > 1, "two threads must branch");
    }

    #[test]
    fn spin_waits_terminate() {
        // The waiter spins (uncounted busy-wait) until the flag flips;
        // without the yield discipline the DFS would either hang (the
        // spinner holds the grant forever) or blow up on stutter
        // branches. With it, exploration exhausts quickly.
        let report = Explorer::exhaustive().explore(|| {
            let flag = Arc::new(AtomicBool::new(false));
            let t = {
                let flag = Arc::clone(&flag);
                spawn(move || {
                    while !flag.load(Ordering::SeqCst) {
                        assert!(yield_spin(), "must run under a session");
                    }
                })
            };
            yield_access();
            flag.store(true, Ordering::SeqCst);
            t.join();
        });
        report.assert_ok();
        assert!(report.exhausted);
    }

    #[test]
    fn random_mode_is_seed_deterministic() {
        let run = |seed| {
            Explorer::random(seed, 64)
                .explore(lost_update_body)
                .violation
                .map(|v| (v.schedule, v.trace))
        };
        let a = run(7);
        assert_eq!(a, run(7), "same seed, same outcome");
        assert!(a.is_some(), "64 random schedules should trip the race");
    }

    #[test]
    fn chaos_draws_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let hits = Arc::new(AtomicU64::new(0));
            let h = Arc::clone(&hits);
            Explorer::exhaustive()
                .with_seed(seed)
                .explore(move || {
                    for _ in 0..8 {
                        if chaos_draw(3) == Some(true) {
                            h.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                })
                .assert_ok();
            hits.load(Ordering::SeqCst)
        };
        assert_eq!(run(11), run(11));
    }

    #[test]
    fn entropy_is_deterministic_per_execution() {
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let record = {
            let seen = Arc::clone(&seen);
            move || {
                let s = entropy_seed().expect("inside a session");
                seen.lock().unwrap().push(s);
            }
        };
        Explorer::exhaustive().explore(&record).assert_ok();
        let first = seen.lock().unwrap().clone();
        seen.lock().unwrap().clear();
        Explorer::exhaustive().explore(&record).assert_ok();
        assert_eq!(*seen.lock().unwrap(), first);
    }

    #[test]
    fn hooks_are_noops_outside_sessions() {
        assert!(!active());
        yield_access(); // must not panic
        assert!(!yield_spin());
        assert_eq!(chaos_draw(2), None);
        assert_eq!(entropy_seed(), None);
    }

    /// A body that livelocks under the model is cut at the step budget
    /// *before* its oracle runs; that must not read as a pass.
    #[test]
    fn a_pruned_execution_fails_assert_ok() {
        let report = Explorer::exhaustive().with_max_steps(50).explore(|| {
            let never = AtomicBool::new(false);
            while !never.load(Ordering::SeqCst) {
                yield_spin();
            }
            unreachable!("the oracle a pruned execution never reaches");
        });
        assert!(report.violation.is_none(), "{report}");
        assert_eq!((report.pruned, report.max_steps), (1, 50), "{report}");
        let failure = std::panic::catch_unwind(|| report.assert_ok())
            .expect_err("assert_ok must reject a pruned execution");
        let message = failure.downcast_ref::<String>().expect("formatted panic");
        assert!(
            message.contains("pruned 1 of 1") && message.contains("step budget of 50"),
            "got: {message}"
        );
    }

    /// The victim takes three steps; an exhaustive run freezes it
    /// after every prefix 0..=4 and the body is told which happened.
    #[test]
    fn crash_prefixes_freeze_the_thread_at_every_step() {
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let report = {
            let seen = Arc::clone(&seen);
            Explorer::exhaustive().explore(move || {
                let x = Arc::new(AtomicU64::new(0));
                let victim = {
                    let x = Arc::clone(&x);
                    spawn_crashing(4, move || {
                        for _ in 0..3 {
                            yield_access();
                            x.fetch_add(1, Ordering::SeqCst);
                        }
                    })
                };
                let finished = victim.try_join().is_some();
                seen.lock()
                    .unwrap()
                    .push((x.load(Ordering::SeqCst), finished));
            })
        };
        report.assert_ok();
        assert!(report.exhausted);
        assert_eq!(
            *seen.lock().unwrap(),
            vec![(0, false), (1, false), (2, false), (3, true), (3, true)]
        );
    }

    /// A crashed thread keeps what it holds: the survivor that needs
    /// it spins to the step budget, which the report counts — and the
    /// crash is in the trace, so a failing prefix replays.
    #[test]
    fn a_frozen_holder_blocks_its_waiter_and_replays() {
        let body = || {
            let held = Arc::new(AtomicBool::new(false));
            let victim = {
                let held = Arc::clone(&held);
                spawn_crashing(2, move || {
                    yield_access();
                    held.store(true, Ordering::SeqCst);
                    yield_access();
                    held.store(false, Ordering::SeqCst);
                })
            };
            let _ = victim.try_join();
            while held.load(Ordering::SeqCst) {
                yield_spin();
            }
        };
        let report = Explorer::exhaustive().with_max_steps(100).explore(body);
        assert!(report.violation.is_none() && report.exhausted, "{report}");
        assert_eq!(
            (report.schedules, report.pruned),
            (3, 1),
            "only the prefix that stops between the two stores blocks: {report}"
        );

        let oracle = || {
            let victim = spawn_crashing(3, || {
                yield_access();
                yield_access();
            });
            assert!(victim.try_join().is_some(), "victim crashed");
        };
        let found = Explorer::exhaustive().explore(oracle);
        let v = found.assert_violation();
        assert_eq!(v.trace, "k0");
        let again = Explorer::replay("k1").explore(oracle);
        assert!(again.assert_violation().message.contains("victim crashed"));
        Explorer::replay("k2").explore(oracle).assert_ok();
        // A fair run takes `max_prefix` itself: 3 outlasts the victim.
        Explorer::round_robin().explore(oracle).assert_ok();
    }

    #[test]
    #[should_panic(expected = "joined a crashed model thread")]
    fn plain_join_rejects_a_crashed_thread() {
        Explorer::replay("k0")
            .explore(|| spawn_crashing(1, yield_access).join())
            .assert_ok();
    }

    /// The fair scheduler is strict rotation — one step per runnable
    /// thread per round, spinners included — and deterministic.
    #[test]
    fn round_robin_rotates_strictly() {
        let run = || {
            let log = Arc::new(std::sync::Mutex::new(Vec::new()));
            let report = {
                let log = Arc::clone(&log);
                Explorer::round_robin().explore(move || {
                    let go = Arc::new(AtomicBool::new(false));
                    let children: Vec<_> = (1..3usize)
                        .map(|id| {
                            let (log, go) = (Arc::clone(&log), Arc::clone(&go));
                            spawn(move || {
                                while !go.load(Ordering::SeqCst) {
                                    log.lock().unwrap().push(id);
                                    yield_spin();
                                }
                            })
                        })
                        .collect();
                    for _ in 0..3 {
                        log.lock().unwrap().push(0);
                        yield_access();
                    }
                    go.store(true, Ordering::SeqCst);
                    for child in children {
                        child.join();
                    }
                })
            };
            report.assert_ok();
            assert_eq!((report.schedules, report.exhausted), (1, false));
            let log = log.lock().unwrap().clone();
            log
        };
        let log = run();
        assert_eq!(log, vec![0, 1, 2, 0, 1, 2, 0, 1, 2], "strict rotation");
        assert_eq!(log, run(), "a fair run is deterministic");
    }

    #[test]
    fn unjoined_children_are_drained() {
        // The body forgets to join; teardown must still let the child
        // finish rather than leaking a parked thread.
        let report = Explorer::exhaustive().with_max_schedules(8).explore(|| {
            let _ = spawn(|| {
                yield_access();
            });
        });
        report.assert_ok();
    }
}
