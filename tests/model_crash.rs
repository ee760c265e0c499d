//! V6 — §5 of the paper, both halves, on the shipped objects: "these
//! algorithms still work despite process crashes **if no process
//! crashes while holding the lock**."
//!
//! ```text
//! cargo test --test model_crash -- --nocapture
//! ```
//!
//! A crash in the asynchronous model is a process the scheduler never
//! picks again. `cso::sched::spawn_crashing(max, f)` is that: the victim
//! is frozen for good after `k` yield points, holding whatever it
//! held, and the exhaustive explorer runs the body once for every
//! prefix `k` in `0..=max` (prefixes past the operation's length let
//! it finish). Each body waits for the victim to freeze or finish —
//! `try_join` says which — and then runs the survivor alone:
//!
//! * **tolerance**: a victim frozen anywhere inside a weak operation,
//!   or a strong operation's lock-free fast path, never blocks the
//!   survivor — helping is idempotent and `TOP`/`HEAD`/`TAIL` are the
//!   single authority — and never corrupts what the survivor reads;
//! * **the caveat**: a victim frozen while it holds the slow-path lock
//!   with `CONTENTION` raised leaves the survivor spinning until the
//!   step budget prunes the execution. That is the one place a body
//!   *expects* pruning, so it reads `report.pruned` itself instead of
//!   calling `assert_ok`. Even then the survivor's fast path completes
//!   while `CONTENTION` is down: between lines 06 and 07, and again
//!   between lines 09 and 12.
//!
//! (What the implementation adds beyond §5 — unwinding panics release
//! the lock, and with a `RecoveryPolicy` even real deaths are
//! succeeded — is checked on real threads in
//! `crates/core/tests/crash_recovery.rs`.)

mod model_support;

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use cso::core::{CsConfig, FAST_ATTEMPTS, FAST_RETRIES};
use cso::deque::{AbortableDeque, DequePopOutcome, End};
use cso::locks::{RawLock, TasLock};
use cso::memory::chaos::{self, Fault, Plan};
use cso::memory::counting::CountScope;
use cso::queue::{AbortableQueue, CsQueue, DequeueOutcome, EnqueueOutcome};
use cso::sched::{spawn_crashing, Explorer};
use cso::stack::{AbortableStack, CsStack, PopOutcome, PushOutcome};

use model_support::{assert_exhausted, serial, unbounded};

/// Explores `body` once per crash prefix and checks it was exactly
/// that: one deterministic execution per prefix, none pruned. `body`
/// returns whether the victim finished; the longest prefixes must let
/// it, or `max_prefix` stops short of the operation's end.
fn explore_prefixes(name: &str, max_prefix: usize, body: impl Fn() -> bool + Sync) {
    let finished = AtomicUsize::new(0);
    let report = Explorer::exhaustive().explore(|| {
        finished.fetch_add(usize::from(body()), Ordering::Relaxed);
    });
    assert_exhausted(&format!("{name} (crash prefix 0..={max_prefix})"), &report);
    assert_eq!(report.schedules, max_prefix + 1, "{name}: {report}");
    let finished = finished.into_inner();
    assert!(
        (1..=max_prefix).contains(&finished),
        "{name}: the victim finished in {finished} of {} executions",
        max_prefix + 1
    );
}

// ---------------------------------------------------------------
// Tolerance: lock-free operations survive a crash at every prefix.
// ---------------------------------------------------------------

/// Figure 1: freeze a pusher after each prefix of its five accesses
/// (and the validating peek); a pop still completes in five accesses
/// with a definitive answer — the victim's 9 if its `TOP` C&S landed
/// (the survivor then *helps* the pending slot write), the pre-filled
/// 7 if not — and the rest of the stack is what that answer implies.
#[test]
fn weak_stack_survives_crashes_anywhere() {
    let _serial = serial();
    const MAX: usize = 7;
    let landed = AtomicUsize::new(0);
    explore_prefixes("weak_stack_survives_crashes_anywhere", MAX, || {
        let stack = Arc::new(AbortableStack::<u32>::new(4));
        assert_eq!(stack.weak_push(7), Ok(PushOutcome::Pushed));
        let victim = {
            let stack = Arc::clone(&stack);
            spawn_crashing(MAX, move || stack.weak_push(9))
        };
        let finished = victim.try_join();
        let scope = CountScope::start();
        let popped = stack.weak_pop().expect("a solo pop returned ⊥");
        assert_eq!(scope.take().total(), 5, "blocked or detoured by a corpse");
        let rest = stack.weak_pop().expect("a solo pop returned ⊥");
        match (popped, rest) {
            (PopOutcome::Popped(9), PopOutcome::Popped(7)) => {
                landed.fetch_add(1, Ordering::Relaxed);
            }
            (PopOutcome::Popped(7), PopOutcome::Empty) => {
                assert!(finished.is_none(), "a finished push must be visible");
            }
            other => panic!("popped {other:?}"),
        }
        assert_eq!(stack.weak_pop(), Ok(PopOutcome::Empty));
        finished.is_some()
    });
    // The C&S is the push's last yield point: only the prefixes that
    // pass it (k = 6 completes it, k = 7 is past the end) land.
    assert_eq!(landed.into_inner(), 2);
}

/// The same crash with the survivor already running: every prefix ×
/// every interleaving of the victim's push with a pop that retries
/// through ⊥. The pop always comes back (lock-freedom needs no help
/// from a corpse), and between it and the drain the pre-filled 7
/// surfaces exactly once, the victim's 9 at most once — and exactly
/// once if the victim finished.
#[test]
fn weak_stack_survives_a_crash_under_any_interleaving() {
    let _serial = serial();
    const MAX: usize = 7;
    let report = unbounded().explore(|| {
        let stack = Arc::new(AbortableStack::<u32>::new(4));
        assert_eq!(stack.weak_push(7), Ok(PushOutcome::Pushed));
        let victim = {
            let stack = Arc::clone(&stack);
            spawn_crashing(MAX, move || stack.weak_push(9))
        };
        let strong_pop = || loop {
            if let Ok(outcome) = stack.weak_pop() {
                return outcome;
            }
        };
        let mut seen = Vec::new();
        let mut outcome = strong_pop();
        let finished = victim.try_join();
        while let PopOutcome::Popped(v) = outcome {
            seen.push(v);
            outcome = strong_pop();
        }
        seen.sort_unstable();
        match finished {
            // A push that returned ⊥ lost to the pop and is a no-op.
            Some(Ok(_)) => assert_eq!(seen, [7, 9]),
            Some(Err(_)) => assert_eq!(seen, [7]),
            None => assert!(seen == [7] || seen == [7, 9], "{seen:?}"),
        }
    });
    assert_exhausted(
        &format!("weak_stack_survives_a_crash_under_any_interleaving (crash prefix 0..={MAX})"),
        &report,
    );
    assert!(report.schedules > 1_000, "{report}");
}

/// The weak queue: freeze an enqueuer anywhere; FIFO order means the
/// pre-filled 7 is at the front wherever the enqueue of 9 froze.
#[test]
fn weak_queue_survives_crashes_anywhere() {
    let _serial = serial();
    const MAX: usize = 8;
    explore_prefixes("weak_queue_survives_crashes_anywhere", MAX, || {
        let queue = Arc::new(AbortableQueue::<u32>::new(4));
        assert_eq!(queue.weak_enqueue(7), Ok(EnqueueOutcome::Enqueued));
        let victim = {
            let queue = Arc::clone(&queue);
            spawn_crashing(MAX, move || queue.weak_enqueue(9))
        };
        let finished = victim.try_join();
        assert_eq!(queue.weak_dequeue(), Ok(DequeueOutcome::Dequeued(7)));
        match queue.weak_dequeue().expect("a solo dequeue returned ⊥") {
            DequeueOutcome::Dequeued(9) => {}
            DequeueOutcome::Empty => assert!(finished.is_none()),
            other => panic!("dequeued {other:?}"),
        }
        finished.is_some()
    });
}

/// The HLM deque is obstruction-free: after a crash the survivor,
/// running solo, always finishes — though the victim's half-done C&S
/// pair may cost it an abort-and-retry first — and the arena still
/// holds only values that were put there.
#[test]
fn weak_deque_survives_crashes_anywhere() {
    let _serial = serial();
    const MAX: usize = 14;
    explore_prefixes("weak_deque_survives_crashes_anywhere", MAX, || {
        let deque = Arc::new(AbortableDeque::<u32>::new(8));
        deque.try_push(End::Right, 7).expect("solo prefill");
        let victim = {
            let deque = Arc::clone(&deque);
            spawn_crashing(MAX, move || deque.try_push(End::Right, 9))
        };
        let finished = victim.try_join().is_some();
        let solo_pop = || {
            (0..4)
                .find_map(|_| deque.try_pop(End::Left).ok())
                .expect("a solo pop neither finished nor stopped aborting")
        };
        assert_eq!(solo_pop(), DequePopOutcome::Popped(7));
        match solo_pop() {
            DequePopOutcome::Popped(9) => assert_eq!(solo_pop(), DequePopOutcome::Empty),
            DequePopOutcome::Empty => assert!(!finished),
            other => panic!("popped {other:?}"),
        }
        finished
    });
}

/// Figure 3: a crash anywhere on the six-access fast path is as
/// harmless as one inside the weak operation it wraps.
#[test]
fn cs_stack_survives_fast_path_crashes() {
    let _serial = serial();
    const MAX: usize = 8;
    explore_prefixes("cs_stack_survives_fast_path_crashes", MAX, || {
        let stack = Arc::new(CsStack::<u32>::new(4, 2));
        assert_eq!(stack.push(1, 7), PushOutcome::Pushed);
        let victim = {
            let stack = Arc::clone(&stack);
            spawn_crashing(MAX, move || stack.push(0, 9))
        };
        let finished = victim.try_join().is_some();
        let scope = CountScope::start();
        assert!(matches!(stack.pop(1), PopOutcome::Popped(7 | 9)));
        assert_eq!(scope.take().total(), 6, "the survivor left the fast path");
        finished
    });
}

/// Figure 3 over the queue (seven accesses).
#[test]
fn cs_queue_survives_fast_path_crashes() {
    let _serial = serial();
    const MAX: usize = 9;
    explore_prefixes("cs_queue_survives_fast_path_crashes", MAX, || {
        let queue = Arc::new(CsQueue::<u32>::new(4, 2));
        assert_eq!(queue.enqueue(1, 7), EnqueueOutcome::Enqueued);
        let victim = {
            let queue = Arc::clone(&queue);
            spawn_crashing(MAX, move || queue.enqueue(0, 9))
        };
        let finished = victim.try_join().is_some();
        let scope = CountScope::start();
        assert_eq!(queue.dequeue(1), DequeueOutcome::Dequeued(7));
        assert_eq!(scope.take().total(), 7, "the survivor left the fast path");
        finished
    });
}

// ---------------------------------------------------------------
// The caveat: a crash while holding the lock.
// ---------------------------------------------------------------

/// The production TAS lock, with a flag the body can read without
/// taking a step: whether somebody holds it.
struct Watched {
    inner: TasLock,
    held: Arc<AtomicBool>,
}

impl RawLock for Watched {
    fn lock(&self) {
        self.inner.lock();
        self.held.store(true, Ordering::SeqCst);
    }

    fn unlock(&self) {
        self.held.store(false, Ordering::SeqCst);
        self.inner.unlock();
    }

    fn try_lock(&self) -> bool {
        let won = self.inner.try_lock();
        if won {
            self.held.store(true, Ordering::SeqCst);
        }
        won
    }
}

/// The survivor has this many scheduling decisions to get through;
/// its whole operation takes six or seven.
const BLOCKED_AFTER: usize = 400;

/// The §5 caveat over one object. `build` makes it around the watched
/// lock, pre-fills it, and returns the victim's operation — whose fast
/// attempt and every retry the fail point `veto` aborts, so lines
/// 04–13 it is — and the survivor's, which must cost `fast_path`
/// accesses whenever it gets past a held lock. Explores every crash prefix and checks: no
/// violation, and the pruned executions are exactly those in which
/// the lock was held and the survivor did not get through — some are,
/// and some held ones are not (`CONTENTION` down).
fn explore_caveat<T, V, S>(
    name: &str,
    max_prefix: usize,
    veto: &'static str,
    fast_path: u64,
    build: impl Fn(Watched) -> (V, S) + Sync,
) where
    T: Send + 'static,
    V: FnOnce() -> T + Send + 'static,
    S: FnOnce(),
{
    let (finished, held, held_and_completed) = (
        AtomicUsize::new(0),
        AtomicUsize::new(0),
        AtomicUsize::new(0),
    );
    let report = Explorer::exhaustive()
        .with_max_steps(BLOCKED_AFTER)
        .explore(|| {
            let lock_held = Arc::new(AtomicBool::new(false));
            let (victim, survivor) = build(Watched {
                inner: TasLock::new(),
                held: Arc::clone(&lock_held),
            });
            chaos::arm_plan(
                veto,
                Plan::times(Fault::SpuriousAbort, u64::from(FAST_ATTEMPTS)),
            );
            let done = spawn_crashing(max_prefix, victim).try_join().is_some();
            let lock_held = lock_held.load(Ordering::SeqCst);
            assert!(
                !(done && lock_held),
                "a finished operation left the lock held"
            );
            finished.fetch_add(usize::from(done), Ordering::Relaxed);
            held.fetch_add(usize::from(lock_held), Ordering::Relaxed);

            let scope = CountScope::start();
            survivor();
            // Reached only if the survivor was not blocked.
            if lock_held {
                assert_eq!(
                    scope.take().total(),
                    fast_path,
                    "past a held lock, fast path only"
                );
                held_and_completed.fetch_add(1, Ordering::Relaxed);
            }
        });
    println!("{name} (crash prefix 0..={max_prefix}): {report}");
    assert!(report.violation.is_none() && report.exhausted, "{report}");
    assert_eq!(report.schedules, max_prefix + 1, "{report}");
    assert!(
        finished.into_inner() > 0,
        "prefix {max_prefix} stops short of the operation's end"
    );
    let (held, completed) = (held.into_inner(), held_and_completed.into_inner());
    assert_eq!(
        report.pruned,
        held - completed,
        "only a frozen lock holder may block the survivor ({held} held, {completed} completed)"
    );
    assert!(
        report.pruned > 0,
        "a crash inside the lock must block the lock path (§5)"
    );
    assert!(
        completed > 0,
        "with CONTENTION down the fast path passes a frozen holder"
    );
}

#[test]
fn cs_stack_blocks_on_a_crash_inside_the_lock() {
    let _serial = serial();
    // The victim's slow-path push passes 20 yield points past line 01,
    // after one `CONTENTION` read and one pause per vetoed retry.
    explore_caveat(
        "cs_stack_blocks_on_a_crash_inside_the_lock",
        22 + 2 * FAST_RETRIES as usize,
        "stack::push",
        6,
        |lock| {
            let stack = Arc::new(CsStack::<u32, _>::with_config(4, lock, 2, CsConfig::PAPER));
            assert_eq!(stack.push(1, 7), PushOutcome::Pushed);
            let victim = Arc::clone(&stack);
            (
                move || victim.push(0, 9),
                move || assert!(matches!(stack.pop(1), PopOutcome::Popped(7 | 9))),
            )
        },
    );
}

#[test]
fn cs_queue_blocks_on_a_crash_inside_the_lock() {
    let _serial = serial();
    explore_caveat(
        "cs_queue_blocks_on_a_crash_inside_the_lock",
        24 + 2 * FAST_RETRIES as usize,
        "queue::enqueue",
        7,
        |lock| {
            let queue = Arc::new(CsQueue::<u32, _>::with_config(4, lock, 2, CsConfig::PAPER));
            assert_eq!(queue.enqueue(1, 7), EnqueueOutcome::Enqueued);
            let victim = Arc::clone(&queue);
            (
                move || victim.enqueue(0, 9),
                move || assert_eq!(queue.dequeue(1), DequeueOutcome::Dequeued(7)),
            )
        },
    );
}
