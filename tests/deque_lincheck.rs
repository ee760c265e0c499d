//! Linearizability stress for the HLM deque family.
//!
//! The deque's sequential specification is `cso_deque::SeqDeque` — the
//! linear-HLM arena semantics (per-side space) — checked by the
//! generic Wing–Gong checker. Aborted (⊥) attempts are cancelled per
//! the abortable-object contract; a secretly-effective abort (e.g. a
//! push whose first "bump" C&S changed abstract state) would make the
//! remaining history non-linearizable and fail here.

use cso::core::Abortable;
use cso::deque::{AbortableDeque, CsDeque, DequeOp, End, SeqDeque};
use cso::lincheck::{check_linearizable, record};

const CAPACITY: usize = 4;
const THREADS: usize = 3;
const OPS: usize = 7;

/// One script per thread: op `i` of thread `proc` works on the left
/// end when `proc + i` is even, and pushes a value unique to the round
/// when `pushes(proc, i)` holds.
fn scripts(round: usize, pushes: impl Fn(usize, usize) -> bool) -> Vec<Vec<DequeOp<u32>>> {
    let op = |proc, i| {
        let end = [End::Left, End::Right][(proc + i) % 2];
        if pushes(proc, i) {
            DequeOp::Push(end, (round * 100 + proc * OPS + i) as u32)
        } else {
            DequeOp::Pop(end)
        }
    };
    (0..THREADS)
        .map(|proc| (0..OPS).map(|i| op(proc, i)).collect())
        .collect()
}

#[test]
fn abortable_deque_histories_linearize() {
    for round in 0..200 {
        let deque: AbortableDeque<u32> = AbortableDeque::new(CAPACITY);
        let scripts = scripts(round, |proc, i| (proc * 31 + i * 17 + round) % 3 != 0);
        let history = record(&scripts, |_, op| deque.try_apply(op).ok());
        assert!(
            check_linearizable(&SeqDeque::new(CAPACITY), &history).is_linearizable(),
            "round {round}: deque history not linearizable"
        );
    }
}

#[test]
fn cs_deque_histories_linearize() {
    for round in 0..120 {
        let deque: CsDeque<u32> = CsDeque::new(CAPACITY, THREADS);
        let scripts = scripts(round, |proc, i| (proc + i + round) % 2 == 0);
        let history = record(&scripts, |proc, op| Some(deque.apply(proc, op)));
        assert!(
            check_linearizable(&SeqDeque::new(CAPACITY), &history).is_linearizable(),
            "round {round}: cs-deque history not linearizable"
        );
    }
}
