//! Linearizability of the elimination rung.
//!
//! An eliminated pair never touches the stack's `TOP`: the pusher's
//! value flows straight to the popper through the exchanger, and the
//! pair linearizes back-to-back at the taker's admission instant —
//! which lies inside both operations' invoke/return windows (the
//! offeror is still parked when the taker commits). These stress
//! tests record live histories with [`cso::lincheck::record`] and run
//! them through the Wing–Gong checker, so that claim is checked
//! against real interleavings rather than argued.

use cso::core::CsConfig;
use cso::lincheck::{check_linearizable, record, History};
use cso::locks::TasLock;
use cso::stack::{CsStack, SeqStack, StackOp, StackResponse};

const THREADS: usize = 3;
const OPS: usize = 7;

fn drive_round(stack: &CsStack<u32>, round: usize) -> History<StackOp<u32>, StackResponse<u32>> {
    let scripts: Vec<Vec<_>> = (0..THREADS)
        .map(|proc| {
            (0..OPS)
                .map(|i| match (proc * 31 + i * 17 + round) % 2 {
                    0 => StackOp::Push((round * 100 + proc * OPS + i) as u32),
                    _ => StackOp::Pop,
                })
                .collect()
        })
        .collect();
    record(&scripts, |proc, op| Some(stack.apply(proc, op)))
}

/// The full ladder with the fast path *on*: mixed fast, retried,
/// eliminated, and locked completions must all linearize together.
#[test]
fn ladder_stack_histories_linearize() {
    for round in 0..120 {
        let stack: CsStack<u32> =
            CsStack::with_config(4, TasLock::new(), THREADS, CsConfig::LADDER);
        let history = drive_round(&stack, round);
        assert!(
            check_linearizable(&SeqStack::new(4), &history).is_linearizable(),
            "round {round}:\n{history}"
        );
    }
}

/// Elimination-heavy regime: fast path off and no retry rung, so
/// every operation goes straight to the exchanger before the lock.
/// The histories must linearize, and — across the whole run — real
/// rendezvous must have happened (the machinery was exercised, not
/// just compiled).
#[test]
fn elimination_heavy_histories_linearize_and_rendezvous() {
    let config = CsConfig::PAPER.without_fast_path().with_elimination();
    let mut total_pairs = 0u64;
    let mut total_eliminated = 0u64;
    for round in 0..120 {
        let stack: CsStack<u32> = CsStack::with_config(4, TasLock::new(), THREADS, config);
        let history = drive_round(&stack, round);
        assert!(
            check_linearizable(&SeqStack::new(4), &history).is_linearizable(),
            "round {round}:\n{history}"
        );
        assert_eq!(stack.path_stats().fast, 0, "fast path must be off");
        total_pairs += stack.eliminated_pairs();
        total_eliminated += stack.path_stats().eliminated;
    }
    assert!(
        total_pairs > 0,
        "120 elimination-heavy rounds never paired an inverse couple"
    );
    // Both sides of every rendezvous completed on the eliminated path.
    assert_eq!(total_eliminated, total_pairs * 2);
}

/// The `Path::Eliminated` accounting surfaces agree with each other:
/// the per-object path statistics, the exchanger's pair counter, and
/// the attached metrics registry all describe the same run —
/// under the elimination-only ablation, where rendezvous is certain,
/// and under the `LADDER` preset, the shipped order of the same rungs.
/// Recorded while they run, the probe stream of those live runs (and
/// of the tests beside this one) is the fourth surface: every operation
/// in it replays into a well-formed span, eliminated ones included.
#[test]
fn eliminated_path_surfaces_agree() {
    let recording = cso::trace::probe::Recording::start();
    let elimination_only = CsConfig::PAPER.without_fast_path().with_elimination();
    for config in [elimination_only, CsConfig::LADDER] {
        surfaces_agree(config);
    }
    drop(recording);
    let spans = cso::profile::LiveAggregator::new();
    spans.ingest(&cso::trace::probe::harvest());
    let snap = spans.snapshot();
    assert_eq!(snap.malformed, 0, "span coverage below 1.0: {snap:?}");
    let mut paths = snap.per_path.iter();
    assert!(paths.any(|(path, hist)| *path == "eliminated" && hist.count > 0));
}

fn surfaces_agree(config: CsConfig) {
    let registry = cso::metrics::Registry::new();
    let stack: CsStack<u32> = CsStack::with_config(64, TasLock::new(), THREADS, config);
    stack.attach_metrics(&registry, "stack");

    std::thread::scope(|s| {
        for proc in 0..THREADS {
            let stack = &stack;
            s.spawn(move || {
                for i in 0..2_000u32 {
                    if (proc as u32 + i) % 2 == 0 {
                        stack.push(proc, i);
                    } else {
                        stack.pop(proc);
                    }
                }
            });
        }
    });

    let paths = stack.path_stats();
    assert_eq!(
        paths.eliminated,
        stack.eliminated_pairs() * 2,
        "path stats vs exchanger pair counter"
    );
    assert_eq!(
        registry.snapshot().counter("stack_ops_eliminated_total"),
        Some(paths.eliminated),
        "metrics registry vs path stats"
    );
    // Paths partition completions: every op finished on exactly one.
    assert_eq!(paths.total(), u64::from(THREADS as u32) * 2_000);
}
