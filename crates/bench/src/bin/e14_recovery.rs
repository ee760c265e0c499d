//! E14 — crash tolerance: kill-at-every-step recovery of the slow
//! path (`--features chaos`).
//!
//! §5 of the paper concedes that a process crashing inside the
//! critical section wedges the Figure 3 transformation forever. This
//! experiment arms `Fault::StallForever` at every fail point a
//! slow-path operation crosses — before the lock, waiting at
//! FLAG/TURN, holding the lock, releasing it, after posting a
//! publication record, and mid-combining with claimed records — and
//! *never* revives the victim. With a [`RecoveryPolicy`] configured,
//! the survivors must:
//!
//! * complete every one of their own operations (bounded
//!   time-to-recover, reported per kill site);
//! * keep the exactly-once guarantee: the victim's marker value is on
//!   the stack iff the kill landed *after* its operation applied;
//! * recover through the cheapest sufficient mechanism — nothing for a
//!   pre-lock death, a TURN unwedge for a FLAG/TURN death, one lock
//!   succession for an under-lock death, one tombstone for an orphaned
//!   publication record.
//!
//! Run with `cargo run --release --features chaos --bin e14_recovery`.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use cso_bench::report::Table;
use cso_core::{CsConfig, RecoveryPolicy};
use cso_locks::TasLock;
use cso_memory::chaos::{self, Fault, Plan};
use cso_stack::{CsStack, PopOutcome, PushOutcome};

const THREADS: usize = 4;
/// Suspicion is lease-driven in this experiment (no explicit
/// `mark_dead`): recovery starts only after the victim's heartbeat
/// goes `GRACE` stale, so time-to-recover genuinely includes failure
/// *detection*, not just the takeover.
const GRACE: Duration = Duration::from_millis(25);
const POLICY: RecoveryPolicy = RecoveryPolicy {
    grace: GRACE,
    max_successions: 8,
    backoff: Duration::from_millis(1),
};

/// The victim's value: on the stack afterwards iff the kill site is
/// past the point where its operation applied.
const MARKER: u32 = 9_000_000;
/// The first survivor operation after the kill — its latency is the
/// reported time-to-recover.
const FIRST: u32 = 8_000_000;
/// Post-recovery burst, per surviving process.
const BURST: u32 = 200;
/// Any recovery slower than this is a wedge, not a recovery.
const TTR_CEILING: Duration = Duration::from_secs(5);

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "timed out waiting for {what}"
        );
        thread::sleep(Duration::from_millis(1));
    }
}

fn recovering_stack(combining: bool) -> Arc<CsStack<u32>> {
    let base = if combining {
        CsConfig::COMBINING
    } else {
        CsConfig::PAPER
    };
    // No fast path: every operation must cross the kill site.
    let config = base.without_fast_path().with_recovery(POLICY);
    Arc::new(CsStack::with_config(8192, TasLock::new(), THREADS, config))
}

/// Drains on a throwaway thread so the flood of pop events lands in
/// its own trace ring instead of evicting the (rare, interesting)
/// recovery events from the caller's.
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

/// What each kill site must cost, and whether the victim's operation
/// counts as applied.
struct Expect {
    successions: u64,
    reclaimed: u64,
    marker_applied: bool,
}

/// One kill: park a victim forever at `site`, then let the survivors
/// recover. Returns the time-to-recover in milliseconds.
#[allow(clippy::needless_pass_by_value)]
fn kill_scenario(
    label: &str,
    site: &'static str,
    combining: bool,
    past_grace: bool,
    expect: Expect,
    table: &mut Table,
) -> f64 {
    let stack = recovering_stack(combining);
    let fired = chaos::fires(site);
    chaos::arm_plan(site, Plan::once(Fault::StallForever));

    // The victim: parked forever at the fail point, never revived.
    // The thread (and its Arc) leak by design — a fail-stop crash.
    {
        let stack = Arc::clone(&stack);
        thread::spawn(move || {
            let _ = stack.push(0, MARKER);
        });
    }
    wait_until(site, || chaos::fires(site) > fired);
    if past_grace {
        // Orphaned-record reclamation is suspicion-gated: until the
        // victim's lease expires, a combiner *helps* its record (the
        // operation would complete normally). Wait the lease out so
        // the sweep must tombstone instead.
        thread::sleep(GRACE * 3);
    }

    // Time-to-recover: the first survivor operation after the kill.
    let t0 = Instant::now();
    assert_eq!(stack.push(1, FIRST), PushOutcome::Pushed, "{label}: wedged");
    let ttr = t0.elapsed();
    assert!(ttr < TTR_CEILING, "{label}: recovery took {ttr:?}");

    // Post-recovery burst: every survivor completes every operation.
    thread::scope(|s| {
        for proc in 1..THREADS {
            let stack = &stack;
            s.spawn(move || {
                let p = proc as u32;
                for i in 0..BURST {
                    assert_eq!(stack.push(proc, p * 10_000 + i), PushOutcome::Pushed);
                }
            });
        }
    });

    let stats = stack.recovery_stats().expect("recovery is configured");
    assert_eq!(stats.successions, expect.successions, "{label}");
    assert_eq!(stats.reclaimed, expect.reclaimed, "{label}");
    assert!(!stats.failed, "{label}: budget of 8 must absorb one crash");
    assert!(!stack.is_poisoned(), "{label}");

    // Conservation: exactly the survivors' values, plus the marker iff
    // the kill landed after the victim's push applied.
    let drained = drain(&stack, 1);
    let mut want: BTreeSet<u32> = (1..THREADS as u32)
        .flat_map(|p| (0..BURST).map(move |i| p * 10_000 + i))
        .collect();
    want.insert(FIRST);
    if expect.marker_applied {
        want.insert(MARKER);
    }
    assert_eq!(drained.len(), want.len(), "{label}: lost or duplicated");
    let got: BTreeSet<u32> = drained.into_iter().collect();
    assert_eq!(got, want, "{label}: wrong survivors");

    let ttr_ms = ttr.as_secs_f64() * 1e3;
    table.row(vec![
        label.to_string(),
        site.to_string(),
        format!("{ttr_ms:.2}"),
        stats.successions.to_string(),
        stats.reclaimed.to_string(),
        if expect.marker_applied { "yes" } else { "no" }.to_string(),
    ]);
    ttr_ms
}

/// The hardest kill: a *combiner* parked forever between claiming
/// another process's record and applying it. The survivor must seize
/// the corpse's lock tenure, poison the orphaned claims (possibly its
/// own record's), repost, and finish its workload — with every value
/// applied at most once.
fn combiner_kill(table: &mut Table) -> f64 {
    const OPS: u32 = 2_000;
    const PROBE: u32 = 8_500_000;
    for _attempt in 0..10 {
        let stack = recovering_stack(true);
        let fired = chaos::fires("cs::combine");
        chaos::arm_plan("cs::combine", Plan::once(Fault::StallForever));
        let done: Arc<[AtomicBool; 2]> = Arc::new([AtomicBool::new(false), AtomicBool::new(false)]);
        for proc in 0..2u32 {
            let stack = Arc::clone(&stack);
            let done = Arc::clone(&done);
            thread::spawn(move || {
                for i in 0..OPS {
                    let v = proc * 1_000_000 + i;
                    assert_eq!(stack.push(proc as usize, v), PushOutcome::Pushed);
                }
                done[proc as usize].store(true, Ordering::Release);
            });
        }
        // The fail point only fires on a tenure that actually claimed
        // a record; with two posters racing that is near-certain, but
        // retry from scratch if both workers drain without a kill.
        let killed = loop {
            if chaos::fires("cs::combine") > fired {
                break true;
            }
            if done[0].load(Ordering::Acquire) && done[1].load(Ordering::Acquire) {
                break false;
            }
            thread::sleep(Duration::from_millis(1));
        };
        if !killed {
            continue;
        }

        // One worker is now parked forever holding the lock, with the
        // other worker's record claimed and unapplied.
        let t0 = Instant::now();
        assert_eq!(stack.push(2, PROBE), PushOutcome::Pushed, "combiner wedge");
        let ttr = t0.elapsed();
        assert!(ttr < TTR_CEILING, "combiner succession took {ttr:?}");
        wait_until("the surviving worker", || {
            done[0].load(Ordering::Acquire) || done[1].load(Ordering::Acquire)
        });
        let survivor: u32 = u32::from(done[1].load(Ordering::Acquire));
        let victim = 1 - survivor;

        let stats = stack.recovery_stats().expect("recovery is configured");
        assert_eq!(stats.successions, 1, "exactly one seizure of the corpse");
        assert!(
            stack.fault_stats().record_poisoned >= 1,
            "the orphaned claim must be poisoned and reposted"
        );
        assert!(!stats.failed);

        // Exactly-once: no duplicates; the survivor's and prober's
        // values all present; the victim applied some prefix.
        let drained = drain(&stack, 3);
        let got: BTreeSet<u32> = drained.iter().copied().collect();
        assert_eq!(got.len(), drained.len(), "a value applied twice");
        assert!(got.contains(&PROBE));
        for i in 0..OPS {
            assert!(
                got.contains(&(survivor * 1_000_000 + i)),
                "survivor value {i} lost"
            );
        }
        let victim_applied = (0..OPS)
            .filter(|i| got.contains(&(victim * 1_000_000 + i)))
            .count();
        assert!(victim_applied < OPS as usize, "the victim was parked");

        let ttr_ms = ttr.as_secs_f64() * 1e3;
        table.row(vec![
            "combiner dies mid-batch".to_string(),
            "cs::combine".to_string(),
            format!("{ttr_ms:.2}"),
            stats.successions.to_string(),
            stats.reclaimed.to_string(),
            format!("{victim_applied}/{OPS} ops"),
        ]);
        return ttr_ms;
    }
    panic!("cs::combine never fired in 10 attempts");
}

fn main() {
    cso_trace::install_chaos_hook();
    println!("E14: crash recovery of the slow path, one kill per site");
    println!(
        "({THREADS} threads, grace {}ms, backoff {}ms, succession budget {}, victims never revived)\n",
        GRACE.as_millis(),
        POLICY.backoff.as_millis(),
        POLICY.max_successions,
    );

    let mut table = Table::new(&[
        "scenario",
        "kill site",
        "ttr ms",
        "successions",
        "reclaimed",
        "victim op applied",
    ]);
    let mut max_ttr: f64 = 0.0;
    let mut cell = |ttr: f64| max_ttr = max_ttr.max(ttr);

    cell(kill_scenario(
        "dies before the lock",
        "cs::lock-wait",
        false,
        false,
        Expect {
            successions: 0,
            reclaimed: 0,
            marker_applied: false,
        },
        &mut table,
    ));
    cell(kill_scenario(
        "dies waiting at FLAG/TURN",
        "sfree::wait",
        false,
        false,
        Expect {
            successions: 0,
            reclaimed: 0,
            marker_applied: false,
        },
        &mut table,
    ));
    cell(kill_scenario(
        "dies holding the lock",
        "cs::locked",
        false,
        false,
        Expect {
            successions: 1,
            reclaimed: 0,
            marker_applied: false,
        },
        &mut table,
    ));
    cell(kill_scenario(
        "dies releasing the lock",
        "sfree::unlock",
        false,
        false,
        Expect {
            successions: 1,
            reclaimed: 0,
            marker_applied: true,
        },
        &mut table,
    ));
    cell(kill_scenario(
        "dies after posting a record",
        "cs::post",
        true,
        true,
        Expect {
            successions: 0,
            reclaimed: 1,
            marker_applied: false,
        },
        &mut table,
    ));
    cell(combiner_kill(&mut table));

    table.print();

    println!("\nmax time-to-recover: {max_ttr:.2} ms");

    println!("\nReading the table:");
    println!("- `ttr ms` is the first survivor operation's latency after the kill — it includes");
    println!(
        "  lease-expiry failure detection (grace {}ms), so sub-grace rows are kills that",
        GRACE.as_millis()
    );
    println!("  needed no suspicion at all;");
    println!("- `successions` / `reclaimed` show the cheapest sufficient mechanism was used:");
    println!("  nothing pre-lock, a TURN unwedge at FLAG/TURN, one custody seizure under the");
    println!("  lock, one tombstone for the orphaned record;");
    println!("- `victim op applied` pins the exactly-once boundary: the marker survives the");
    println!("  drain iff the kill landed after the victim's operation applied.");
    cso_bench::tracing::emit("e14_recovery");
}
