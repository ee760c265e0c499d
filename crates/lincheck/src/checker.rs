//! The linearizability decision procedure.
//!
//! Implements the Wing & Gong backtracking search in the formulation
//! popularized by Lowe: repeatedly pick a *minimal* operation (one
//! whose invocation precedes every return of the operations not yet
//! linearized), check that the sequential specification can produce
//! the observed response (one candidate for a deterministic spec, any
//! of several for a relaxed one), and recurse; memoize visited
//! (linearized-set, abstract-state) configurations so equivalent
//! interleavings are explored once.
//!
//! Pending operations (invoked, never returned) are handled per the
//! definition: each may either take effect at some point after its
//! invocation (with an arbitrary response, since none was delivered)
//! or not take effect at all.

use std::collections::HashSet;

use crate::history::{History, OpRecord};
use crate::spec::RelaxedSpec;

/// The verdict of [`check_linearizable`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinResult {
    /// The history is linearizable; `witness` lists the operation
    /// indices (into `history.operations()`) in a valid
    /// linearization order.
    Linearizable {
        /// A valid linearization order (operation indices).
        witness: Vec<usize>,
    },
    /// No linearization exists.
    NotLinearizable,
}

impl LinResult {
    /// True when a linearization was found.
    #[must_use]
    pub fn is_linearizable(&self) -> bool {
        matches!(self, LinResult::Linearizable { .. })
    }

    /// The witness order, if linearizable.
    #[must_use]
    pub fn witness(&self) -> Option<&[usize]> {
        match self {
            LinResult::Linearizable { witness } => Some(witness),
            LinResult::NotLinearizable => None,
        }
    }
}

/// Decides whether `history` is linearizable with respect to `spec`.
///
/// The spec may be nondeterministic, like the k-relaxed specs in
/// [`crate::specs::relaxed`]: the search branches over every outcome
/// it allows. A [`SeqSpec`](crate::spec::SeqSpec) allows exactly one,
/// so strict and relaxed checking are this one call.
///
/// # Panics
///
/// Panics if the history contains more than 128 operations (the
/// checker is designed for the short, adversarial histories produced
/// by stress runs and the model checker, not for bulk logs).
///
/// ```
/// use cso_lincheck::checker::check_linearizable;
/// use cso_lincheck::history::History;
/// use cso_lincheck::specs::register::{RegisterSpec, RegOp, RegResp};
///
/// // Two overlapping writes then a read seeing the first: fine.
/// let mut h = History::new();
/// h.invoke(0, RegOp::Write(1));
/// h.invoke(1, RegOp::Write(2));
/// h.ret(0, RegResp::Done);
/// h.ret(1, RegResp::Done);
/// h.invoke(0, RegOp::Read);
/// h.ret(0, RegResp::Value(1)); // write(2) linearized first
/// assert!(check_linearizable(&RegisterSpec, &h).is_linearizable());
/// ```
pub fn check_linearizable<S: RelaxedSpec>(
    spec: &S,
    history: &History<S::Op, S::Resp>,
) -> LinResult {
    let ops = history.operations();
    assert!(
        ops.len() <= 128,
        "checker supports at most 128 operations per history"
    );
    let completed = ops
        .iter()
        .enumerate()
        .filter(|(_, op)| op.returned.is_some())
        .fold(0u128, |mask, (i, _)| mask | (1u128 << i));
    let mut search = Search {
        spec,
        ops: &ops,
        completed,
        visited: HashSet::new(),
        witness: Vec::new(),
    };
    if search.dfs(0, &spec.initial()) {
        LinResult::Linearizable {
            witness: search.witness,
        }
    } else {
        LinResult::NotLinearizable
    }
}

/// The search's fixed inputs and its memo and witness stack.
struct Search<'a, S: RelaxedSpec> {
    spec: &'a S,
    ops: &'a [OpRecord<S::Op, S::Resp>],
    /// One bit per operation that returned.
    completed: u128,
    /// The (linearized-set, state) configurations already explored.
    visited: HashSet<(u128, S::State)>,
    witness: Vec<usize>,
}

impl<S: RelaxedSpec> Search<'_, S> {
    fn dfs(&mut self, linearized: u128, state: &S::State) -> bool {
        // Success: every completed operation is linearized (pending
        // ones may be dropped).
        if linearized & self.completed == self.completed {
            return true;
        }
        if !self.visited.insert((linearized, state.clone())) {
            return false;
        }
        let (spec, ops) = (self.spec, self.ops);
        // The frontier: the earliest return among non-linearized
        // completed operations. Any operation invoked before it is a
        // legal next linearization point.
        let frontier = ops
            .iter()
            .enumerate()
            .filter(|(i, op)| linearized & (1 << i) == 0 && op.returned.is_some())
            .map(|(_, op)| op.returned.as_ref().expect("filtered").1)
            .min()
            .unwrap_or(usize::MAX);
        for (i, op) in ops.iter().enumerate() {
            if linearized & (1 << i) != 0 || op.invoked_at >= frontier {
                continue;
            }
            // Branch over every candidate outcome the spec allows;
            // completed operations constrain the response, pending
            // ones accept any candidate.
            for (next, resp) in spec.candidates(state, &op.op) {
                if let Some((actual, _)) = &op.returned {
                    if resp != *actual {
                        continue;
                    }
                }
                self.witness.push(i);
                if self.dfs(linearized | (1 << i), &next) {
                    return true;
                }
                self.witness.pop();
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SeqSpec;
    use crate::specs::register::{RegOp, RegResp, RegisterSpec};
    use cso_stack::{PopOutcome, PushOutcome, SeqStack, StackOp as Op, StackResponse as Resp};

    const PUSHED: Resp<u32> = Resp::Push(PushOutcome::Pushed);
    const FULL: Resp<u32> = Resp::Push(PushOutcome::Full);
    const EMPTY: Resp<u32> = Resp::Pop(PopOutcome::Empty);

    fn popped(v: u32) -> Resp<u32> {
        Resp::Pop(PopOutcome::Popped(v))
    }

    #[test]
    fn empty_history_is_linearizable() {
        let h: History<Op<u32>, Resp<u32>> = History::new();
        assert!(check_linearizable(&SeqStack::new(4), &h).is_linearizable());
    }

    #[test]
    fn sequential_stack_history_linearizes_in_order() {
        let mut h = History::new();
        h.invoke(0, Op::Push(1));
        h.ret(0, PUSHED);
        h.invoke(0, Op::Push(2));
        h.ret(0, PUSHED);
        h.invoke(0, Op::Pop);
        h.ret(0, popped(2));
        let verdict = check_linearizable(&SeqStack::new(4), &h);
        assert_eq!(verdict.witness(), Some(&[0, 1, 2][..]));
    }

    #[test]
    fn overlapping_pops_can_reorder() {
        // p0 pushes 1 and 2 sequentially; then p0 and p1 pop
        // concurrently and the responses arrive "crossed".
        let mut h = History::new();
        h.invoke(0, Op::Push(1));
        h.ret(0, PUSHED);
        h.invoke(0, Op::Push(2));
        h.ret(0, PUSHED);
        h.invoke(0, Op::Pop);
        h.invoke(1, Op::Pop);
        h.ret(0, popped(1)); // p0 got the *bottom* value
        h.ret(1, popped(2)); // because p1's pop linearized first
        assert!(check_linearizable(&SeqStack::new(4), &h).is_linearizable());
    }

    #[test]
    fn detects_non_linearizable_stack_history() {
        // Pop returns a value that was never pushed first.
        let mut h = History::new();
        h.invoke(0, Op::Push(1));
        h.ret(0, PUSHED);
        h.invoke(0, Op::Pop);
        h.ret(0, popped(2));
        assert_eq!(
            check_linearizable(&SeqStack::new(4), &h),
            LinResult::NotLinearizable
        );
    }

    #[test]
    fn detects_real_time_order_violation() {
        // push(1) completes strictly before pop() starts, yet pop says
        // Empty: not linearizable.
        let mut h = History::new();
        h.invoke(0, Op::Push(1));
        h.ret(0, PUSHED);
        h.invoke(1, Op::Pop);
        h.ret(1, EMPTY);
        assert_eq!(
            check_linearizable(&SeqStack::new(4), &h),
            LinResult::NotLinearizable
        );
    }

    #[test]
    fn empty_pop_ok_when_overlapping_push() {
        // pop overlaps the push, so Empty is allowed (pop linearizes
        // first).
        let mut h = History::new();
        h.invoke(0, Op::Push(1));
        h.invoke(1, Op::Pop);
        h.ret(1, EMPTY);
        h.ret(0, PUSHED);
        assert!(check_linearizable(&SeqStack::new(4), &h).is_linearizable());
    }

    #[test]
    fn pending_operation_may_take_effect() {
        // p0's push never returns (crashed), but p1's pop sees the
        // value: the pending push must be linearized.
        let mut h = History::new();
        h.invoke(0, Op::Push(9));
        h.invoke(1, Op::Pop);
        h.ret(1, popped(9));
        assert!(check_linearizable(&SeqStack::new(4), &h).is_linearizable());
    }

    #[test]
    fn pending_operation_may_be_dropped() {
        // p0's push never returns and nobody sees the value: also fine.
        let mut h = History::new();
        h.invoke(0, Op::Push(9));
        h.invoke(1, Op::Pop);
        h.ret(1, EMPTY);
        assert!(check_linearizable(&SeqStack::new(4), &h).is_linearizable());
    }

    #[test]
    fn full_outcome_checks_against_capacity() {
        let mut h = History::new();
        h.invoke(0, Op::Push(1));
        h.ret(0, PUSHED);
        h.invoke(0, Op::Push(2));
        h.ret(0, FULL); // capacity 1: correct
        assert!(check_linearizable(&SeqStack::new(1), &h).is_linearizable());
        // With capacity 2 the same history is NOT linearizable (the
        // push could not have failed).
        assert_eq!(
            check_linearizable(&SeqStack::new(2), &h),
            LinResult::NotLinearizable
        );
    }

    #[test]
    fn register_new_old_inversion_is_caught() {
        // w(1) then w(2) sequentially; two sequential reads see 2 then
        // 1 — a new/old inversion, not linearizable.
        let mut h = History::new();
        h.invoke(0, RegOp::Write(1));
        h.ret(0, RegResp::Done);
        h.invoke(0, RegOp::Write(2));
        h.ret(0, RegResp::Done);
        h.invoke(1, RegOp::Read);
        h.ret(1, RegResp::Value(2));
        h.invoke(1, RegOp::Read);
        h.ret(1, RegResp::Value(1));
        assert_eq!(
            check_linearizable(&RegisterSpec, &h),
            LinResult::NotLinearizable
        );
    }

    #[test]
    fn witness_replays_to_observed_responses() {
        let mut h = History::new();
        h.invoke(0, Op::Push(5));
        h.invoke(1, Op::Pop);
        h.ret(0, PUSHED);
        h.ret(1, popped(5));
        let spec = SeqStack::new(4);
        let verdict = check_linearizable(&spec, &h);
        let witness = verdict.witness().expect("linearizable").to_vec();
        // Replaying the witness through the spec reproduces every
        // observed response.
        let ops = h.operations();
        let mut state = SeqSpec::initial(&spec);
        for idx in witness {
            let (next, resp) = spec.step(&state, &ops[idx].op);
            if let Some((actual, _)) = &ops[idx].returned {
                assert_eq!(resp, *actual);
            }
            state = next;
        }
    }
}
