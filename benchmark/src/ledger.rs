//! The cost ledger: the same balanced tape on one pinned thread, driven
//! through each layer's public entry point in turn (a *rung*), in
//! CPU-ns per op. A layer's cost is the difference between its rung
//! and the rung below, taken round by round: the rungs of one round
//! run back to back, so slow drift of the host cancels in the
//! difference.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Duration;

use cso::core::{CsConfig, RecoveryPolicy};
use cso::deque::CsDeque;
use cso::locks::{ProcLock, RawLock, StarvationFree, TasLock};
use cso::memory::counting::CountScope;
use cso::memory::Reg64;
use cso::metrics::Registry;
use cso::queue::{AbortableQueue, CsQueue, NonBlockingQueue};
use cso::shard::{ShardConfig, ShardedCsStack};
use cso::stack::{AbortableStack, CsStack, NonBlockingStack};

use crate::objects::{Target, CAPACITY, DEQUE_CAPACITY};
use crate::pace::{pace, Timings, CHUNK};
use crate::round::{self, Stop, Totals};
use crate::stats::{summarize, Summary};
use crate::tape::Tape;

/// Rounds per rung.
pub const ROUNDS: usize = 6;

/// What the ledger found.
pub struct Ledger {
    /// Metric name, unit, summary over the rounds.
    pub metrics: Vec<(&'static str, &'static str, Summary)>,
    pub totals: Totals,
}

impl Ledger {
    pub fn median(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, _, s)| s.median)
            .unwrap_or_else(|| panic!("the ledger has no rung {name}"))
    }
}

/// `threads` pinned threads each calling `call(thread)` in a closed
/// loop for `length`.
fn bare_round(
    threads: usize,
    length: Duration,
    call: impl Fn(usize) + Sync,
    totals: &mut Totals,
) -> Timings {
    let stop = AtomicBool::new(false);
    let start_line = Barrier::new(threads + 1);
    let timings = Timings(std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|thread| {
                let (stop, start_line, call) = (&stop, &start_line, &call);
                s.spawn(move || {
                    pace(thread, start_line, stop, u64::MAX, || {
                        for _ in 0..CHUNK {
                            call(thread);
                        }
                    })
                })
            })
            .collect();
        start_line.wait();
        std::thread::sleep(length);
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("a ledger thread panicked"))
            .collect()
    }));
    totals.add_timings(&timings);
    timings
}

/// CPU-ns per op of one pinned thread cycling `tape` over a fresh
/// `make()` for `length` — exactly a `solo`-shaped round.
fn object_round<T: Target>(
    make: &dyn Fn() -> T,
    tape: &[Tape],
    length: Duration,
    totals: &mut Totals,
) -> f64 {
    let r = round::run(make, tape, Stop::After(length), None);
    totals.add(&r);
    r.timings.cpu_ns_per_call()
}

/// Counted shared-memory accesses per op over a stretch of the tape,
/// solo (Theorem 1's figure: exactly 6 on the stack, 7 on the queue).
fn accesses_per_op<T: Target>(target: &T, tape: &Tape) -> f64 {
    let (prefill, _) = target.prefill();
    for i in 0..prefill {
        assert!(target.put(0, i as u32), "prefill refused");
    }
    let ops = &tape[..4096];
    let scope = CountScope::start();
    for (i, &put) in ops.iter().enumerate() {
        if put {
            assert!(target.put(0, i as u32), "the access-count run met Full");
        } else {
            assert!(target.take(0).is_some(), "the access-count run met Empty");
        }
    }
    scope.take().total() as f64 / ops.len() as f64
}

/// One rung: a round's CPU-ns per op, adding to the totals.
type Rung<'a> = Box<dyn Fn(&mut Totals) -> f64 + 'a>;

fn bare_rung<'a>(threads: usize, length: Duration, call: impl Fn(usize) + Sync + 'a) -> Rung<'a> {
    Box::new(move |totals| bare_round(threads, length, &call, totals).cpu_ns_per_call())
}

fn object_rung<'a, T: Target>(
    make: impl Fn() -> T + 'a,
    tape: &'a [Tape],
    length: Duration,
) -> Rung<'a> {
    Box::new(move |totals| object_round(&make, tape, length, totals))
}

fn cs_stack(config: CsConfig) -> CsStack<u32> {
    CsStack::with_config(CAPACITY, TasLock::new(), 2, config)
}

/// The sharded stack of the `sharded` workload: 8 relaxed lanes, and as
/// many process identities, so the prefill can reach every lane as a
/// home lane.
pub fn relaxed8() -> ShardedCsStack<u32> {
    ShardedCsStack::new(CAPACITY, 8, ShardConfig::relaxed(8, CAPACITY))
}

/// Runs every rung `ROUNDS` times for `round_length` each, rungs
/// interleaved, on `tape` (one thread's).
pub fn run(tape: &Tape, round_length: Duration) -> Ledger {
    let solo = std::slice::from_ref(tape);
    let mut totals = Totals::default();
    let t = &mut totals;

    let line = AtomicU64::new(0);
    let reg = Reg64::new(0);
    let tas = TasLock::new();
    let sf = StarvationFree::new(TasLock::new(), 2);

    let len = round_length;
    let sf_pair = |proc| {
        sf.lock(proc);
        sf.unlock(proc);
    };
    let cs = |config: CsConfig| object_rung(move || cs_stack(config), solo, len);
    let rungs: Vec<(&'static str, Rung<'_>)> = vec![
        (
            "host.pingpong_ns",
            bare_rung(2, len, |_| {
                line.fetch_add(1, Ordering::SeqCst);
            }),
        ),
        // The reference loop itself: on the reference clock it would
        // read 10 by definition, so it is the one rung reported at the
        // host's clock.
        (
            "memory.atomic_pair_ns",
            Box::new(|t| {
                let call = |_| {
                    let seen = line.load(Ordering::SeqCst);
                    let _ =
                        line.compare_exchange(seen, seen + 1, Ordering::SeqCst, Ordering::SeqCst);
                };
                bare_round(1, len, call, t).cpu_ns_per_call_at_host_clock()
            }),
        ),
        (
            "memory.reg64_pair_ns",
            bare_rung(1, len, |_| {
                let seen = reg.read();
                reg.cas(seen, seen + 1);
            }),
        ),
        (
            "locks.tas_pair_ns",
            bare_rung(1, len, |_| {
                tas.lock();
                tas.unlock();
            }),
        ),
        ("locks.sf_pair_ns", bare_rung(1, len, sf_pair)),
        ("locks.sf_handoff_ns", bare_rung(2, len, sf_pair)),
        (
            "stack.weak_ns",
            object_rung(|| AbortableStack::<u32>::new(CAPACITY), solo, len),
        ),
        (
            "stack.nb_ns",
            object_rung(|| NonBlockingStack::<u32>::new(CAPACITY), solo, len),
        ),
        ("core.cs_ns", cs(CsConfig::PAPER)),
        ("core.slow_ns", cs(CsConfig::PAPER.without_fast_path())),
        ("core.gate_ns", cs(CsConfig::PAPER.with_adaptive_gate())),
        ("core.ladder_ns", cs(CsConfig::LADDER)),
        ("core.combining_ns", cs(CsConfig::PAPER.with_combining())),
        (
            "core.recovery_ns",
            cs(CsConfig::PAPER.with_recovery(RecoveryPolicy::DEFAULT)),
        ),
        (
            "metrics.attach_ns",
            object_rung(
                || {
                    let stack = cs_stack(CsConfig::PAPER);
                    stack.attach_metrics(&Registry::new(), "bench");
                    stack
                },
                solo,
                len,
            ),
        ),
        (
            "queue.weak_ns",
            object_rung(|| AbortableQueue::<u32>::new(CAPACITY), solo, len),
        ),
        (
            "queue.nb_ns",
            object_rung(|| NonBlockingQueue::<u32>::new(CAPACITY), solo, len),
        ),
        (
            "queue.cs_ns",
            object_rung(|| CsQueue::<u32>::new(CAPACITY, 2), solo, len),
        ),
        (
            "deque.cs_ns",
            object_rung(|| CsDeque::<u32>::new(DEQUE_CAPACITY, 2), solo, len),
        ),
        ("shard.relaxed8_ns", object_rung(relaxed8, solo, len)),
        (
            "shard.strict2_ns",
            object_rung(
                || ShardedCsStack::<u32>::new(CAPACITY, 2, ShardConfig::strict(2)),
                solo,
                len,
            ),
        ),
        (
            "shard.elastic8_ns",
            object_rung(
                || {
                    let config = ShardConfig::relaxed(8, CAPACITY).with_elastic();
                    ShardedCsStack::<u32>::new(CAPACITY, 8, config)
                },
                solo,
                len,
            ),
        ),
    ];
    assert_eq!(rungs.len(), TIMED_RUNGS, "TIMED_RUNGS budgets the ledger");

    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(ROUNDS); rungs.len()];
    for _ in 0..ROUNDS {
        for (rung, (_, measure)) in rungs.iter().enumerate() {
            samples[rung].push(measure(t));
        }
    }
    let of = |name: &str| -> &Vec<f64> {
        let rung = rungs
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no rung {name}"));
        &samples[rung]
    };
    let delta = |upper: &str, lower: &str| -> Summary {
        let diffs: Vec<f64> = of(upper)
            .iter()
            .zip(of(lower))
            .map(|(u, l)| u - l)
            .collect();
        summarize(&diffs).expect("the ledger ran no rounds")
    };
    let rung = |name: &str| summarize(of(name)).expect("the ledger ran no rounds");
    let exact = |v: f64| Summary {
        median: v,
        q1: v,
        q3: v,
        n: 1,
    };

    let stack_accesses = accesses_per_op(&cs_stack(CsConfig::PAPER), tape);
    let queue_accesses = accesses_per_op(&CsQueue::<u32>::new(CAPACITY, 2), tape);

    let metrics = vec![
        ("host.pingpong_ns", "ns", rung("host.pingpong_ns")),
        ("memory.atomic_pair_ns", "ns", rung("memory.atomic_pair_ns")),
        ("memory.reg64_pair_ns", "ns", rung("memory.reg64_pair_ns")),
        (
            "memory.accesses_per_op.stack",
            "count",
            exact(stack_accesses),
        ),
        (
            "memory.accesses_per_op.queue",
            "count",
            exact(queue_accesses),
        ),
        ("stack.weak_ns", "ns", rung("stack.weak_ns")),
        ("stack.nb_ns", "ns", rung("stack.nb_ns")),
        ("core.cs_ns", "ns", rung("core.cs_ns")),
        (
            "core.fig3_delta_ns",
            "ns",
            delta("core.cs_ns", "stack.nb_ns"),
        ),
        ("core.slow_ns", "ns", rung("core.slow_ns")),
        (
            "core.gate_delta_ns",
            "ns",
            delta("core.gate_ns", "core.cs_ns"),
        ),
        (
            "core.ladder_delta_ns",
            "ns",
            delta("core.ladder_ns", "core.cs_ns"),
        ),
        (
            "core.combining_delta_ns",
            "ns",
            delta("core.combining_ns", "core.cs_ns"),
        ),
        (
            "core.recovery_delta_ns",
            "ns",
            delta("core.recovery_ns", "core.cs_ns"),
        ),
        ("locks.tas_pair_ns", "ns", rung("locks.tas_pair_ns")),
        ("locks.sf_pair_ns", "ns", rung("locks.sf_pair_ns")),
        ("locks.sf_handoff_ns", "ns", rung("locks.sf_handoff_ns")),
        ("queue.weak_ns", "ns", rung("queue.weak_ns")),
        ("queue.nb_ns", "ns", rung("queue.nb_ns")),
        ("queue.cs_ns", "ns", rung("queue.cs_ns")),
        ("deque.cs_ns", "ns", rung("deque.cs_ns")),
        ("shard.relaxed8_ns", "ns", rung("shard.relaxed8_ns")),
        (
            "shard.router_delta_ns",
            "ns",
            delta("shard.relaxed8_ns", "core.cs_ns"),
        ),
        ("shard.strict2_ns", "ns", rung("shard.strict2_ns")),
        ("shard.elastic8_ns", "ns", rung("shard.elastic8_ns")),
        (
            "metrics.attach_delta_ns",
            "ns",
            delta("metrics.attach_ns", "core.cs_ns"),
        ),
    ];
    drop(rungs);
    Ledger { metrics, totals }
}

/// Timed rungs per round, for budgeting a ledger into a time limit.
pub const TIMED_RUNGS: usize = 22;
