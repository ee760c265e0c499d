//! Property tests for the linearizability checker itself.
//!
//! The checker is trusted by the whole verification story (stress
//! tests, model checking), so it gets its own adversarial testing:
//!
//! * **soundness witnesses**: any history generated by *actually
//!   running* a sequential stack, with operations attributed to
//!   random processes (but still totally ordered), must be accepted,
//!   and the returned witness must replay to the observed responses;
//! * **overlap-closure**: making operations overlap more (moving an
//!   invoke earlier) can only make a linearizable history *more*
//!   acceptable — our generator checks a weaker corollary: fully
//!   overlapped versions of accepted histories stay accepted;
//! * **mutation kills**: flipping a pop response in a sequential
//!   history to a different value must be rejected (unless the value
//!   coincides — excluded by construction);
//! * **the relaxed path**: the k-relaxed stack at k = 0 gives the
//!   strict stack's verdict on every generated history, and a history
//!   accepted at k is accepted at k + 1.

use cso_memory::backoff::XorShift64;

use cso_lincheck::checker::check_linearizable;
use cso_lincheck::history::{Event, History};
use cso_lincheck::spec::SeqSpec;
use cso_lincheck::specs::relaxed::KStackSpec;
use cso_stack::{PopOutcome, PushOutcome, SeqStack, StackOp, StackResponse};

const CAPACITY: usize = 4;

type Op = StackOp<u32>;
type Resp = StackResponse<u32>;

const PUSHED: Resp = StackResponse::Push(PushOutcome::Pushed);

fn popped(v: u32) -> Resp {
    StackResponse::Pop(PopOutcome::Popped(v))
}

/// Runs ops sequentially through the spec, producing a history where
/// each op completes before the next starts (attributed round-robin
/// to 3 processes).
fn sequential_history(ops: &[Op]) -> History<Op, Resp> {
    let spec = SeqStack::new(CAPACITY);
    let mut state = spec.initial();
    let mut history = History::new();
    for (i, op) in ops.iter().enumerate() {
        let proc = i % 3;
        let (next, resp) = spec.step(&state, op);
        history.invoke(proc, *op);
        history.ret(proc, resp);
        state = next;
    }
    history
}

/// The same responses, but all invocations first (maximal overlap).
fn fully_overlapped(history: &History<Op, Resp>) -> History<Op, Resp> {
    // One op per process only — give every op its own process id.
    let ops = history.operations();
    let mut events = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        events.push(Event::Invoke { proc: i, op: op.op });
    }
    for (i, op) in ops.iter().enumerate() {
        let (resp, _) = op.returned.expect("complete");
        events.push(Event::Return { proc: i, resp });
    }
    History::from_events(events)
}

/// Draws a random operation sequence of length `< max_len`.
fn random_ops(rng: &mut XorShift64, max_len: u64) -> Vec<Op> {
    let len = rng.next_u64() % max_len;
    (0..len)
        .map(|_| {
            let word = rng.next_u64();
            if word & 1 == 0 {
                StackOp::Push((word >> 1) as u32 % 8)
            } else {
                StackOp::Pop
            }
        })
        .collect()
}

const CASES: usize = 128;

/// Soundness: real sequential executions are always accepted, and
/// the witness replays exactly.
#[test]
fn sequential_histories_are_linearizable() {
    let mut rng = XorShift64::new(0x011C_4EC4);
    for _ in 0..CASES {
        let ops = random_ops(&mut rng, 14);
        let history = sequential_history(&ops);
        let verdict = check_linearizable(&SeqStack::new(CAPACITY), &history);
        let witness = verdict
            .witness()
            .expect("sequential history must linearize");
        // Replay the witness.
        let spec = SeqStack::new(CAPACITY);
        let records = history.operations();
        let mut state = spec.initial();
        for &idx in witness {
            let (next, resp) = spec.step(&state, &records[idx].op);
            assert_eq!(resp, records[idx].returned.unwrap().0);
            state = next;
        }
    }
}

/// Widening every operation's window preserves acceptance.
#[test]
fn overlap_preserves_acceptance() {
    let mut rng = XorShift64::new(0x0E52_14B5);
    for _ in 0..CASES {
        let ops = random_ops(&mut rng, 10);
        let history = sequential_history(&ops);
        let overlapped = fully_overlapped(&history);
        assert!(check_linearizable(&SeqStack::new(CAPACITY), &overlapped).is_linearizable());
    }
}

/// The history with its first popped value replaced by one never
/// pushed, or `None` when no pop returned a value.
fn corrupt_first_pop(history: &History<Op, Resp>) -> Option<History<Op, Resp>> {
    let target = history.operations().iter().position(|r| {
        matches!(
            r.returned,
            Some((StackResponse::Pop(PopOutcome::Popped(_)), _))
        )
    })?;
    // Rebuild the event list with the corrupted response.
    let mut seen_returns = 0usize;
    let corrupted = history
        .events()
        .iter()
        .cloned()
        .map(|event| match event {
            Event::Return { proc, resp } => {
                let idx = seen_returns;
                seen_returns += 1;
                if idx == target {
                    if let StackResponse::Pop(PopOutcome::Popped(v)) = resp {
                        return Event::Return {
                            proc,
                            resp: popped(v + 1_000),
                        };
                    }
                }
                Event::Return { proc, resp }
            }
            other => other,
        })
        .collect();
    Some(History::from_events(corrupted))
}

/// Mutation kill: corrupting one popped value must be rejected
/// (a sequential history admits exactly one linearization).
#[test]
fn corrupted_pop_is_rejected() {
    let mut rng = XorShift64::new(0xC025_5017);
    let mut killed = 0usize;
    for _ in 0..CASES {
        let mut ops = random_ops(&mut rng, 14);
        if ops.is_empty() {
            ops.push(StackOp::Push(1));
        }
        // Skip histories without a pop that returned a value.
        let Some(corrupted) = corrupt_first_pop(&sequential_history(&ops)) else {
            continue;
        };
        killed += 1;
        assert!(
            !check_linearizable(&SeqStack::new(CAPACITY), &corrupted).is_linearizable(),
            "a never-pushed value must not linearize"
        );
    }
    assert!(
        killed >= CASES / 4,
        "generator starved: only {killed} usable cases"
    );
}

/// Permuting responses across two sequential pops (new/old
/// inversion) is rejected whenever the values differ.
#[test]
fn swapped_sequential_pops_are_rejected() {
    for a in 0u32..4 {
        for b in 4u32..8 {
            let mut history: History<Op, Resp> = History::new();
            for v in [a, b] {
                history.invoke(0, StackOp::Push(v));
                history.ret(0, PUSHED);
            }
            // Two sequential pops returning bottom-first (wrong for LIFO).
            history.invoke(1, StackOp::Pop);
            history.ret(1, popped(a));
            history.invoke(1, StackOp::Pop);
            history.ret(1, popped(b));
            assert!(!check_linearizable(&SeqStack::new(CAPACITY), &history).is_linearizable());
        }
    }
}

/// Determinism: the checker returns identical verdicts on repeated
/// runs (its memoization must not leak randomness).
#[test]
fn checker_is_deterministic() {
    let ops = [
        StackOp::Push(1),
        StackOp::Push(2),
        StackOp::Pop,
        StackOp::Pop,
        StackOp::Pop,
    ];
    let history = sequential_history(&ops);
    let spec = SeqStack::new(CAPACITY);
    let first = check_linearizable(&spec, &history);
    for _ in 0..10 {
        assert_eq!(check_linearizable(&spec, &history), first);
    }
}

/// Scale guard: a 40-operation overlapping history completes quickly
/// thanks to memoization (would be astronomically slow without it).
#[test]
fn memoization_handles_wide_histories() {
    let spec = SeqStack::new(64);
    let mut events = Vec::new();
    for i in 0..20 {
        events.push(Event::Invoke {
            proc: i,
            op: StackOp::Push(i as u32),
        });
    }
    for i in 0..20 {
        events.push(Event::Return {
            proc: i,
            resp: PUSHED,
        });
    }
    for i in 0..20 {
        events.push(Event::Invoke {
            proc: i,
            op: StackOp::Pop,
        });
    }
    for i in 0..20 {
        // Everyone pops "their own" value — all pushes overlap, so
        // any assignment is admissible.
        events.push(Event::Return {
            proc: i,
            resp: popped(i as u32),
        });
    }
    let history = History::from_events(events);
    let start = std::time::Instant::now();
    assert!(check_linearizable(&spec, &history).is_linearizable());
    assert!(
        start.elapsed() < std::time::Duration::from_secs(10),
        "memoization failed"
    );
}

/// Runs ops sequentially through the k-relaxed stack, taking a random
/// one of the legal outcomes at each step: a history the relaxed
/// search must accept at `k`, and often one the strict stack rejects.
fn relaxed_history(rng: &mut XorShift64, ops: &[Op], k: usize) -> History<Op, Resp> {
    use cso_lincheck::spec::RelaxedSpec;
    let spec = KStackSpec::new(CAPACITY, k);
    let mut state = spec.initial();
    let mut history = History::new();
    for (i, op) in ops.iter().enumerate() {
        let mut outcomes: Vec<_> = spec.candidates(&state, op).into_iter().collect();
        let pick = rng.next_u64() as usize % outcomes.len();
        let (next, resp) = outcomes.swap_remove(pick);
        history.invoke(i % 3, *op);
        history.ret(i % 3, resp);
        state = next;
    }
    history
}

/// The generated histories of one case: sequential, fully overlapped,
/// with a corrupted pop, and drawn from the 1-relaxed stack.
fn generated_histories(rng: &mut XorShift64) -> Vec<History<Op, Resp>> {
    let ops = random_ops(rng, 12);
    let sequential = sequential_history(&ops);
    let mut histories = vec![fully_overlapped(&sequential)];
    histories.extend(corrupt_first_pop(&sequential));
    histories.push(sequential);
    histories.push(relaxed_history(rng, &ops, 1));
    histories
}

/// At k = 0 the relaxed stack is the strict one: the same verdict on
/// every generated history, accepted or not.
#[test]
fn k0_relaxed_stack_agrees_with_the_strict_stack() {
    let mut rng = XorShift64::new(0x0E0A_57AC);
    let (mut accepted, mut rejected) = (0usize, 0usize);
    for _ in 0..CASES {
        for history in generated_histories(&mut rng) {
            let strict = check_linearizable(&SeqStack::new(CAPACITY), &history);
            let relaxed = check_linearizable(&KStackSpec::new(CAPACITY, 0), &history);
            assert_eq!(
                strict.is_linearizable(),
                relaxed.is_linearizable(),
                "{history}"
            );
            if strict.is_linearizable() {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
    }
    assert!(
        accepted >= CASES && rejected >= CASES / 4,
        "generator starved: {accepted} accepted, {rejected} rejected"
    );
}

/// Relaxing further only accepts more: a history accepted at k is
/// accepted at k + 1, and one drawn from the k-relaxed stack is
/// accepted at k.
#[test]
fn acceptance_is_monotone_in_k() {
    let mut rng = XorShift64::new(0x4D0E_07E5);
    let mut widened = 0usize;
    for _ in 0..CASES {
        let mut histories = generated_histories(&mut rng);
        let ops = random_ops(&mut rng, 12);
        for k in 0..3 {
            let drawn = relaxed_history(&mut rng, &ops, k);
            assert!(
                check_linearizable(&KStackSpec::new(CAPACITY, k), &drawn).is_linearizable(),
                "drawn at k={k}:\n{drawn}"
            );
            histories.push(drawn);
        }
        for history in &histories {
            let verdicts: Vec<bool> = (0..4)
                .map(|k| {
                    check_linearizable(&KStackSpec::new(CAPACITY, k), history).is_linearizable()
                })
                .collect();
            for k in 0..3 {
                assert!(
                    !verdicts[k] || verdicts[k + 1],
                    "accepted at k={k}, rejected at k={}:\n{history}",
                    k + 1
                );
            }
            if !verdicts[0] && verdicts[3] {
                widened += 1;
            }
        }
    }
    assert!(
        widened >= CASES / 4,
        "only {widened} histories needed k > 0"
    );
}
