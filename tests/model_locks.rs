//! V4 (and the lock half of V3): mutual exclusion of the shipped lock
//! menu under schedule exploration, and bounded completion of the
//! starvation-free ones under the fair scheduler.
//!
//! ```text
//! cargo test --test model_locks -- --nocapture
//! ```
//!
//! Every lock of `cso-locks` keeps its words in counted registers, so
//! each `lock()`/`unlock()` access is a scheduling decision. The oracle
//! is an unsynchronised critical section: a flag that must read "nobody
//! inside" on entry, a yield point while inside, and a plain counter
//! that loses an update if two threads overlap.
//!
//! Depth follows DESIGN.md's budget table. The spin discipline keeps
//! the waits finite: a thread that reports a spin is rescheduled only
//! when no fresh thread can run.
//! The test-only read-then-write "TAS" at the bottom is the mutant
//! this harness must kill, with a trace that replays.

mod model_support;

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use cso::locks::{
    Anonymous, LamportFastLock, ProcLock, RawLock, StarvationFree, TasLock, TicketLock,
};
use cso::memory::backoff::Spinner;
use cso::memory::counting::CountScope;
use cso::memory::reg::RegBool;
use cso::sched::{spawn, yield_access, Explorer};

use model_support::{assert_exhausted, assert_swept, bounded, unbounded};

const SWEEP: usize = 1_000;

/// Own accesses one `lock(); CS; unlock()` cycle may need under the
/// fair scheduler (Lemma 3, bounded form) with up to four processes
/// (measured: at most 23, the booster over the ticket lock at n = 4).
const FAIR_BOUND: u64 = 64;

/// The unsynchronised critical section.
#[derive(Default)]
struct Section {
    inside: AtomicBool,
    entries: AtomicUsize,
}

impl Section {
    fn pass(&self) {
        assert!(
            !self.inside.swap(true, Ordering::SeqCst),
            "mutual exclusion violated: entered an occupied critical section"
        );
        let seen = self.entries.load(Ordering::SeqCst);
        yield_access();
        self.entries.store(seen + 1, Ordering::SeqCst);
        self.inside.store(false, Ordering::SeqCst);
    }
}

/// Builds the lock under test for `n` processes.
type Make = dyn Fn(usize) -> Arc<dyn ProcLock> + Sync;

/// `cycles` lock cycles on behalf of `proc`; returns the most counted
/// accesses any of them cost.
fn run_cycles(lock: &dyn ProcLock, section: &Section, proc: usize, cycles: usize) -> u64 {
    (0..cycles)
        .map(|_| {
            let scope = CountScope::start();
            lock.lock(proc);
            section.pass();
            lock.unlock(proc);
            scope.take().total()
        })
        .max()
        .unwrap_or(0)
}

/// One execution: thread `p` runs `cycles[p]` cycles through a fresh
/// lock; no entry is lost. Returns the costliest cycle.
fn lock_body(make: &Make, cycles: &[usize]) -> u64 {
    let lock = make(cycles.len());
    let section = Arc::new(Section::default());
    let children: Vec<_> = (1..cycles.len())
        .map(|proc| {
            let (lock, section, cycles) = (Arc::clone(&lock), Arc::clone(&section), cycles[proc]);
            spawn(move || run_cycles(&*lock, &section, proc, cycles))
        })
        .collect();
    let mut worst = run_cycles(&*lock, &section, 0, cycles[0]);
    for child in children {
        worst = worst.max(child.join());
    }
    assert_eq!(
        section.entries.load(Ordering::SeqCst),
        cycles.iter().sum::<usize>(),
        "a critical-section entry was lost"
    );
    worst
}

/// The three depths every lock is explored at.
fn explore_lock(name: &str, make: &Make) {
    let report = unbounded().explore(|| {
        lock_body(make, &[1, 1]);
    });
    assert_exhausted(&format!("{name} 2×1 (unbounded)"), &report);
    assert!(report.schedules > 1, "{name}: {report}");

    let report = bounded(3).explore(|| {
        lock_body(make, &[2, 2]);
    });
    assert_exhausted(&format!("{name} 2×2 (bound 3)"), &report);

    let cycles: &[usize] = &[2, 2, 1];
    let report = Explorer::random(0x10C, SWEEP).explore(|| {
        lock_body(make, cycles);
    });
    assert_swept(&format!("{name} {cycles:?} (random)"), &report, SWEEP);
}

fn raw<L: RawLock + 'static>(make: fn() -> L) -> impl Fn(usize) -> Arc<dyn ProcLock> + Sync {
    move |n| Arc::new(Anonymous::new(make(), n))
}

#[test]
fn tas_lock_excludes() {
    explore_lock("tas", &raw(TasLock::new));
}

#[test]
fn ticket_lock_excludes() {
    explore_lock("ticket", &raw(TicketLock::new));
}

#[test]
fn lamport_fast_lock_excludes() {
    explore_lock("lamport-fast", &|n| Arc::new(LamportFastLock::new(n)));
}

/// §4.4's booster over the paper's minimal assumption, a TAS lock, and
/// over a second deadlock-free lock: "any" inner lock, checked twice.
#[test]
fn starvation_free_booster_excludes() {
    explore_lock("starvation-free(tas)", &|n| {
        Arc::new(StarvationFree::new(TasLock::new(), n))
    });
    explore_lock("starvation-free(ticket)", &|n| {
        Arc::new(StarvationFree::new(TicketLock::new(), n))
    });
}

/// V3 — Lemma 3, bounded form: under the fair scheduler every cycle
/// through a starvation-free lock completes within `FAIR_BOUND` of its
/// own accesses, for every process, with everyone competing at once.
#[test]
fn starvation_free_locks_are_fair_under_fair_scheduling() {
    let menu: [(&str, Box<Make>); 3] = [
        (
            "starvation-free(tas)",
            Box::new(|n| Arc::new(StarvationFree::new(TasLock::new(), n))),
        ),
        (
            "starvation-free(ticket)",
            Box::new(|n| Arc::new(StarvationFree::new(TicketLock::new(), n))),
        ),
        ("ticket", Box::new(raw(TicketLock::new))),
    ];
    for (name, make) in &menu {
        for n in [2usize, 3, 4] {
            let worst = AtomicUsize::new(0);
            let report = Explorer::round_robin().explore(|| {
                worst.store(lock_body(make, &vec![3; n]) as usize, Ordering::Relaxed);
            });
            let worst = worst.into_inner() as u64;
            println!("{name} fair, n = {n}: {report}; worst cycle {worst} accesses");
            report.assert_ok();
            assert!(
                worst <= FAIR_BOUND,
                "{name}, n={n}: a cycle needed {worst} accesses"
            );
        }
    }
}

/// Solo, the booster costs what lines 04–06 and 10–12 say: flag,
/// turn, (flag\[turn\] unless the turn is ours,) lock; flag, turn,
/// flag\[turn\], turn, unlock. The eighth-or-ninth access shows where
/// `TURN` is, and it moves one place per idle handoff, skipping nobody.
#[test]
fn solo_booster_cycles_show_turn_advancing_one_by_one() {
    let report = Explorer::exhaustive().explore(|| {
        let lock = StarvationFree::new(TasLock::new(), 4);
        let section = Section::default();
        // TURN starts at 0 and is handed on after every cycle here.
        for (proc, cost) in [(0, 8), (2, 9), (2, 8), (3, 8), (3, 9), (1, 8)] {
            assert_eq!(run_cycles(&lock, &section, proc, 1), cost, "proc {proc}");
        }
    });
    assert_exhausted(
        "solo_booster_cycles_show_turn_advancing_one_by_one",
        &report,
    );
    assert_eq!(report.schedules, 1);
}

/// The mutant: a "test-and-set" that tests, then sets.
struct BrokenTas {
    held: RegBool,
}

impl RawLock for BrokenTas {
    fn lock(&self) {
        let mut spinner = Spinner::new();
        while self.held.read() {
            spinner.spin();
        }
        self.held.write(true);
    }

    fn unlock(&self) {
        self.held.write(false);
    }

    fn try_lock(&self) -> bool {
        !self.held.read() && {
            self.held.write(true);
            true
        }
    }
}

/// The harness has teeth: the broken lock passes every serial
/// schedule, dies under interleaving, and its trace replays.
#[test]
fn broken_lock_is_killed_with_a_replaying_trace() {
    let make = raw(|| BrokenTas {
        held: RegBool::new(false),
    });
    let body = || {
        lock_body(&make, &[1, 1]);
    };
    let serial = bounded(0).explore(body);
    assert_exhausted("broken lock, serial schedules", &serial);

    let report = unbounded().explore(body);
    println!("broken lock: {report}");
    let violation = report.assert_violation();
    assert!(
        violation.message.contains("mutual exclusion violated"),
        "wrong oracle fired: {}",
        violation.message
    );
    assert!(!violation.trace.is_empty(), "a race has branch decisions");
    let replayed = Explorer::replay(&violation.trace).explore(body);
    assert_eq!(replayed.assert_violation().message, violation.message);
    assert_eq!(replayed.schedules, 1, "replay is a single execution");
}
