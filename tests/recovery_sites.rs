//! Kill-at-every-site crash recovery of the slow path (`--features
//! chaos`).
//!
//! §5 of the paper concedes that a process crashing inside the
//! critical section wedges the Figure 3 transformation forever. This
//! test parks a victim forever (`Fault::StallForever`, never revived)
//! at each fail point a slow-path operation crosses — before the lock,
//! waiting at FLAG/TURN, holding the lock, releasing it, after posting
//! a publication record, and mid-combining with claimed records. With
//! a [`RecoveryPolicy`] configured, the survivors must:
//!
//! * complete every one of their own operations, the first within
//!   [`TTR_CEILING`] of the kill;
//! * keep exactly-once: the victim's marker value is on the stack iff
//!   the kill landed *after* its operation applied;
//! * recover through the cheapest sufficient mechanism — nothing for a
//!   pre-lock death, a TURN unwedge for a FLAG/TURN death, one lock
//!   succession for an under-lock death, one tombstone for an orphaned
//!   publication record.
//!
//! With `trace` on as well, the whole capture is folded in process:
//! every operation reconstructs into a span (coverage 1.0), no process
//! is bypassed more than `n − 1` = 3 times across the successions, and
//! at least 99 % of the helped operations name their helper.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use cso::analyze::Fold;
use cso::core::{CsConfig, RecoveryPolicy};
use cso::locks::TasLock;
use cso::memory::chaos::{self, Fault, Plan};
use cso::stack::{CsStack, PopOutcome};
use cso::trace::probe;

const THREADS: usize = 4;
/// Suspicion is lease-driven here (no explicit `mark_dead`): recovery
/// starts only after the victim's heartbeat goes `GRACE` stale, so
/// time-to-recover includes failure *detection*, not just the takeover.
const GRACE: Duration = Duration::from_millis(25);
const POLICY: RecoveryPolicy = RecoveryPolicy {
    grace: GRACE,
    max_successions: 8,
    backoff: Duration::from_millis(1),
};
/// The victim's value.
const MARKER: u32 = 9_000_000;
/// The first survivor operation after the kill: its latency is the
/// time-to-recover.
const FIRST: u32 = 8_000_000;
/// Post-recovery burst, per surviving process.
const BURST: u32 = 200;
/// Any recovery slower than this is a wedge, not a recovery.
const TTR_CEILING: Duration = Duration::from_secs(5);

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(t0.elapsed() < Duration::from_secs(30), "no {what} in 30 s");
        thread::sleep(Duration::from_millis(1));
    }
}

/// No fast path: every operation must cross the kill site.
fn recovering_stack(base: CsConfig) -> Arc<CsStack<u32>> {
    let config = base.without_fast_path().with_recovery(POLICY);
    Arc::new(CsStack::with_config(8192, TasLock::new(), THREADS, config))
}

/// The first survivor operation after a kill, timed against the ceiling.
fn first_after_kill(stack: &CsStack<u32>, proc: usize, value: u32, label: &str) {
    let t0 = Instant::now();
    assert!(stack.push(proc, value).is_pushed(), "{label}: wedged");
    let ttr = t0.elapsed();
    assert!(ttr < TTR_CEILING, "{label}: recovery took {ttr:?}");
}

/// Drains on a throwaway thread, so the flood of pop events lands in
/// its own trace ring instead of evicting the rare recovery events
/// from the caller's.
fn drain(stack: &CsStack<u32>, proc: usize) -> Vec<u32> {
    thread::scope(|s| {
        s.spawn(move || {
            let mut out = Vec::new();
            while let PopOutcome::Popped(v) = stack.pop(proc) {
                out.push(v);
            }
            out
        })
        .join()
        .expect("the drain does not panic")
    })
}

/// One kill: park a victim forever at `site`, then let the survivors
/// recover. `(successions, reclaimed)` is what the site must cost.
fn kill_at(site: &'static str, base: CsConfig, cost: (u64, u64), marker_applied: bool) {
    let stack = recovering_stack(base);
    let fired = chaos::fires(site);
    chaos::arm_plan(site, Plan::once(Fault::StallForever));
    // The victim thread (and its Arc) leak by design: a fail-stop crash.
    {
        let stack = Arc::clone(&stack);
        thread::spawn(move || stack.push(0, MARKER));
    }
    wait_until(site, || chaos::fires(site) > fired);
    if base.combining {
        // Orphaned-record reclamation is suspicion-gated: until the
        // victim's lease expires a combiner *helps* its record. Wait
        // the lease out so the sweep must tombstone instead.
        thread::sleep(GRACE * 3);
    }
    first_after_kill(&stack, 1, FIRST, site);

    // Post-recovery burst: every survivor completes every operation.
    thread::scope(|s| {
        for proc in 1..THREADS {
            let stack = &stack;
            s.spawn(move || {
                let p = proc as u32;
                for i in 0..BURST {
                    assert!(stack.push(proc, p * 10_000 + i).is_pushed());
                }
            });
        }
    });

    let stats = stack.recovery_stats().expect("recovery is configured");
    assert_eq!((stats.successions, stats.reclaimed), cost, "{site}");
    assert!(!stats.failed, "{site}: budget of 8 must absorb one crash");
    assert!(!stack.is_poisoned(), "{site}");

    // Conservation: exactly the survivors' values, plus the marker iff
    // the kill landed after the victim's push applied.
    let drained = drain(&stack, 1);
    let mut want: BTreeSet<u32> = (1..THREADS as u32)
        .flat_map(|p| (0..BURST).map(move |i| p * 10_000 + i))
        .collect();
    want.insert(FIRST);
    if marker_applied {
        want.insert(MARKER);
    }
    assert_eq!(drained.len(), want.len(), "{site}: lost or duplicated");
    let got: BTreeSet<u32> = drained.into_iter().collect();
    assert_eq!(got, want, "{site}: wrong survivors");
}

/// The hardest kill: a *combiner* parked forever between claiming
/// another process's record and applying it. The survivor must seize
/// the corpse's tenure, poison the orphaned claims, repost, and finish
/// its workload, with every value applied at most once.
fn kill_a_combiner_mid_batch() {
    const OPS: u32 = 2_000;
    const PROBE: u32 = 8_500_000;
    for _attempt in 0..10 {
        let stack = recovering_stack(CsConfig::COMBINING);
        let fired = chaos::fires("cs::combine");
        chaos::arm_plan("cs::combine", Plan::once(Fault::StallForever));
        let done: Arc<[AtomicBool; 2]> = Arc::new([AtomicBool::new(false), AtomicBool::new(false)]);
        for proc in 0..2u32 {
            let stack = Arc::clone(&stack);
            let done = Arc::clone(&done);
            thread::spawn(move || {
                for i in 0..OPS {
                    assert!(stack.push(proc as usize, proc * 1_000_000 + i).is_pushed());
                }
                done[proc as usize].store(true, Ordering::Release);
            });
        }
        // The fail point fires only on a tenure that claimed a record;
        // with two posters racing that is near-certain, but start over
        // if both workers drain without a kill.
        let finished = |p: usize| done[p].load(Ordering::Acquire);
        let killed = loop {
            if chaos::fires("cs::combine") > fired {
                break true;
            }
            if finished(0) && finished(1) {
                break false;
            }
            thread::sleep(Duration::from_millis(1));
        };
        if !killed {
            continue;
        }

        // One worker is parked forever holding the lock, with the
        // other's record claimed and unapplied.
        first_after_kill(&stack, 2, PROBE, "cs::combine");
        wait_until("the surviving worker", || finished(0) || finished(1));
        let survivor = u32::from(finished(1));
        let victim = 1 - survivor;

        let stats = stack.recovery_stats().expect("recovery is configured");
        assert_eq!(stats.successions, 1, "exactly one seizure of the corpse");
        let poisoned = stack.fault_stats().record_poisoned;
        assert!(poisoned >= 1, "the orphaned claim is poisoned, reposted");
        assert!(!stats.failed);

        // Exactly-once: no duplicates; the survivor's and the prober's
        // values all present; the victim applied a proper prefix.
        let drained = drain(&stack, 3);
        let got: BTreeSet<u32> = drained.iter().copied().collect();
        assert_eq!(got.len(), drained.len(), "a value applied twice");
        assert!(got.contains(&PROBE));
        let lost = (0..OPS).find(|i| !got.contains(&(survivor * 1_000_000 + i)));
        assert_eq!(lost, None, "survivor value lost");
        let victim_applied = (0..OPS)
            .filter(|i| got.contains(&(victim * 1_000_000 + i)))
            .count();
        assert!(victim_applied < OPS as usize, "the victim was parked");
        return;
    }
    panic!("cs::combine never fired in 10 attempts");
}

/// One test, so the kill sites run in sequence into one capture, and
/// nothing revives the victims (a `chaos::reset` would).
#[test]
fn every_kill_site_is_recovered_exactly_once() {
    let _recording = probe::Recording::start();
    cso::trace::install_chaos_hook();
    probe::clear();
    let (paper, combining) = (CsConfig::PAPER, CsConfig::COMBINING);
    kill_at("cs::lock-wait", paper, (0, 0), false);
    kill_at("sfree::wait", paper, (0, 0), false);
    kill_at("cs::locked", paper, (1, 0), false);
    kill_at("sfree::unlock", paper, (1, 0), true);
    kill_at("cs::post", combining, (0, 1), false);
    kill_a_combiner_mid_batch();

    let trace = probe::collect();
    let mut fold = Fold::with_bypass_bound(THREADS as u64 - 1);
    fold.ingest(&trace.events, &trace.truncated);
    let snap = fold.snapshot();
    assert!(snap.coverage() >= 1.0, "{}", snap.render_text());
    assert_eq!(snap.bypass_violations, 0, "{}", snap.render_text());
    let attribution = snap.causal.attribution();
    assert!(attribution >= 0.99, "attribution {attribution}");
}
