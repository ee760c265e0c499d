//! Recording real concurrent runs and checking them for
//! linearizability.
//!
//! Demonstrates the verification workflow: hand `lincheck::record`
//! one operation script per thread and the abortable stack's
//! `try_apply`, and feed the recorded history to the Wing–Gong checker
//! against the stack's own sequential type, `SeqStack`. Operations
//! that returned ⊥ are *cancelled* in the history — the
//! abortable-object contract says they had no effect, and the check
//! would catch an implementation that lied about that (a secretly
//! effective "aborted" push would make the remaining history
//! non-linearizable). Also shows the checker rejecting a forged
//! history.
//!
//! Run with: `cargo run --example verify_linearizability`

use cso::core::Abortable;
use cso::lincheck::{check_linearizable, record, History};
use cso::stack::{AbortableStack, PopOutcome, PushOutcome, SeqStack, StackOp, StackResponse};

const CAPACITY: usize = 8;
const THREADS: usize = 3;
const OPS_PER_THREAD: usize = 6;
const ROUNDS: usize = 300;

fn main() {
    let spec = SeqStack::new(CAPACITY);
    let mut total_aborts = 0;
    for round in 0..ROUNDS {
        let stack: AbortableStack<u32> = AbortableStack::new(CAPACITY);
        let scripts: Vec<Vec<StackOp<u32>>> = (0..THREADS)
            .map(|proc| {
                (0..OPS_PER_THREAD)
                    .map(|i| match (proc + i + round) % 2 {
                        0 => StackOp::Push((proc * OPS_PER_THREAD + i) as u32),
                        _ => StackOp::Pop,
                    })
                    .collect()
            })
            .collect();
        // ⊥ is `None`: `record` erases the invocation.
        let history = record(&scripts, |_proc, op| stack.try_apply(op).ok());
        let stats = stack.abort_stats();
        total_aborts += stats.push_aborts + stats.pop_aborts;
        let verdict = check_linearizable(&spec, &history);
        assert!(
            verdict.is_linearizable(),
            "round {round}: history not linearizable:\n{history}"
        );
    }
    println!(
        "checked {ROUNDS} recorded concurrent rounds ({} ops each): all linearizable",
        THREADS * OPS_PER_THREAD
    );
    println!("rounds contained {total_aborts} aborted (⊥) operations, all verified effect-free");

    // The negative control: a forged history the checker must reject —
    // a pop returning a value that was never pushed.
    let mut forged: History<StackOp<u32>, StackResponse<u32>> = History::new();
    forged.invoke(0, StackOp::Push(1));
    forged.ret(0, StackResponse::Push(PushOutcome::Pushed));
    forged.invoke(1, StackOp::Pop);
    forged.ret(1, StackResponse::Pop(PopOutcome::Popped(99)));
    assert!(!check_linearizable(&spec, &forged).is_linearizable());
    println!("forged history correctly rejected");
}
