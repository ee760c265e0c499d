//! The linearizability decision procedure.
//!
//! Implements the Wing & Gong backtracking search in the formulation
//! popularized by Lowe: repeatedly pick a *minimal* operation (one
//! whose invocation precedes every return of the operations not yet
//! linearized), check that the sequential specification produces the
//! observed response, and recurse; memoize visited (linearized-set,
//! abstract-state) configurations so equivalent interleavings are
//! explored once.
//!
//! Pending operations (invoked, never returned) are handled per the
//! definition: each may either take effect at some point after its
//! invocation (with an arbitrary response, since none was delivered)
//! or not take effect at all.

use std::collections::HashSet;

use crate::history::History;
use crate::spec::{RelaxedSpec, SeqSpec};

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

/// The verdict of [`check_linearizable_bounded`]: like [`LinResult`]
/// but with an explicit "ran out of budget" case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoundedLinResult {
    /// A linearization was found within budget.
    Linearizable {
        /// A valid linearization order (operation indices).
        witness: Vec<usize>,
    },
    /// The full configuration space was explored: no linearization.
    NotLinearizable,
    /// The node budget ran out before the search concluded.
    Unknown {
        /// Configurations explored before giving up.
        explored: usize,
    },
}

impl BoundedLinResult {
    /// True when a linearization was found.
    #[must_use]
    pub fn is_linearizable(&self) -> bool {
        matches!(self, BoundedLinResult::Linearizable { .. })
    }
}

/// Like [`check_linearizable`], but gives up after visiting
/// `max_nodes` distinct (linearized-set, state) configurations,
/// returning [`BoundedLinResult::Unknown`] instead of running for an
/// unbounded time. Use for histories near the 128-operation ceiling,
/// where the worst case is astronomically large even with
/// memoization.
///
/// # Panics
///
/// Panics if the history contains more than 128 operations.
pub fn check_linearizable_bounded<S: SeqSpec>(
    spec: &S,
    history: &History<S::Op, S::Resp>,
    max_nodes: usize,
) -> BoundedLinResult {
    let ops = history.operations();
    assert!(
        ops.len() <= 128,
        "checker supports at most 128 operations per history"
    );
    let completed_mask: u128 = ops
        .iter()
        .enumerate()
        .filter(|(_, op)| op.returned.is_some())
        .fold(0u128, |mask, (i, _)| mask | (1u128 << i));

    struct Search<State> {
        visited: HashSet<(u128, State)>,
        witness: Vec<usize>,
        budget: usize,
        exhausted: bool,
    }

    fn dfs<S: SeqSpec>(
        spec: &S,
        ops: &[crate::history::OpRecord<S::Op, S::Resp>],
        linearized: u128,
        state: &S::State,
        completed_mask: u128,
        search: &mut Search<S::State>,
    ) -> bool {
        if linearized & completed_mask == completed_mask {
            return true;
        }
        if search.visited.len() >= search.budget {
            search.exhausted = true;
            return false;
        }
        if !search.visited.insert((linearized, state.clone())) {
            return false;
        }
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
            let (next_state, resp) = spec.apply(state, &op.op);
            if let Some((actual, _)) = &op.returned {
                if resp != *actual {
                    continue;
                }
            }
            search.witness.push(i);
            if dfs(
                spec,
                ops,
                linearized | (1 << i),
                &next_state,
                completed_mask,
                search,
            ) {
                return true;
            }
            search.witness.pop();
        }
        false
    }

    let mut search = Search {
        visited: HashSet::new(),
        witness: Vec::new(),
        budget: max_nodes,
        exhausted: false,
    };
    let initial = spec.initial();
    if dfs(spec, &ops, 0, &initial, completed_mask, &mut search) {
        BoundedLinResult::Linearizable {
            witness: search.witness,
        }
    } else if search.exhausted {
        BoundedLinResult::Unknown {
            explored: search.visited.len(),
        }
    } else {
        BoundedLinResult::NotLinearizable
    }
}

/// Decides whether `history` is linearizable with respect to `spec`.
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
pub fn check_linearizable<S: SeqSpec>(spec: &S, history: &History<S::Op, S::Resp>) -> LinResult {
    let ops = history.operations();
    assert!(
        ops.len() <= 128,
        "checker supports at most 128 operations per history"
    );
    let total = ops.len();
    let completed_mask: u128 = ops
        .iter()
        .enumerate()
        .filter(|(_, op)| op.returned.is_some())
        .fold(0u128, |mask, (i, _)| mask | (1u128 << i));

    let mut visited: HashSet<(u128, S::State)> = HashSet::new();
    let mut witness: Vec<usize> = Vec::new();

    fn dfs<S: SeqSpec>(
        spec: &S,
        ops: &[crate::history::OpRecord<S::Op, S::Resp>],
        linearized: u128,
        state: &S::State,
        completed_mask: u128,
        visited: &mut HashSet<(u128, S::State)>,
        witness: &mut Vec<usize>,
    ) -> bool {
        // Success: every completed operation is linearized (pending
        // ones may be dropped).
        if linearized & completed_mask == completed_mask {
            return true;
        }
        if !visited.insert((linearized, state.clone())) {
            return false;
        }
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
            let (next_state, resp) = spec.apply(state, &op.op);
            if let Some((actual, _)) = &op.returned {
                if resp != *actual {
                    continue; // the spec would answer differently
                }
            }
            // Pending operations linearize with any response.
            witness.push(i);
            if dfs(
                spec,
                ops,
                linearized | (1 << i),
                &next_state,
                completed_mask,
                visited,
                witness,
            ) {
                return true;
            }
            witness.pop();
        }
        false
    }

    let initial = spec.initial();
    if dfs(
        spec,
        &ops,
        0,
        &initial,
        completed_mask,
        &mut visited,
        &mut witness,
    ) {
        debug_assert!(witness.len() >= total.min(witness.len()));
        LinResult::Linearizable { witness }
    } else {
        LinResult::NotLinearizable
    }
}

/// Decides whether `history` is linearizable with respect to a
/// **nondeterministic** (relaxed) specification: the Wing & Gong
/// search, additionally branching over every candidate outcome the
/// spec allows for the chosen operation.
///
/// With a deterministic [`SeqSpec`] (every `SeqSpec` is a
/// [`RelaxedSpec`] with singleton candidates) this agrees exactly with
/// [`check_linearizable`] — the k-relaxed specs in
/// [`crate::specs::relaxed`] with `k = 0` therefore decide strict
/// linearizability against the objects' own `SeqStack`/`SeqQueue`.
///
/// # Panics
///
/// Panics if the history contains more than 128 operations.
///
/// ```
/// use cso_lincheck::checker::check_relaxed_linearizable;
/// use cso_lincheck::history::History;
/// use cso_lincheck::specs::relaxed::KStackSpec;
/// use cso_stack::{PopOutcome, PushOutcome, StackOp, StackResponse};
///
/// // Two sequential pushes, then a pop returning the *bottom* value:
/// // distance 1 from the top — illegal strictly, legal for k = 1.
/// let mut h = History::new();
/// h.invoke(0, StackOp::Push(1));
/// h.ret(0, StackResponse::Push(PushOutcome::Pushed));
/// h.invoke(0, StackOp::Push(2));
/// h.ret(0, StackResponse::Push(PushOutcome::Pushed));
/// h.invoke(0, StackOp::Pop);
/// h.ret(0, StackResponse::Pop(PopOutcome::Popped(1)));
/// assert!(!check_relaxed_linearizable(&KStackSpec::new(4, 0), &h).is_linearizable());
/// assert!(check_relaxed_linearizable(&KStackSpec::new(4, 1), &h).is_linearizable());
/// ```
pub fn check_relaxed_linearizable<S: RelaxedSpec>(
    spec: &S,
    history: &History<S::Op, S::Resp>,
) -> LinResult {
    let ops = history.operations();
    assert!(
        ops.len() <= 128,
        "checker supports at most 128 operations per history"
    );
    let completed_mask: u128 = ops
        .iter()
        .enumerate()
        .filter(|(_, op)| op.returned.is_some())
        .fold(0u128, |mask, (i, _)| mask | (1u128 << i));

    fn dfs<S: RelaxedSpec>(
        spec: &S,
        ops: &[crate::history::OpRecord<S::Op, S::Resp>],
        linearized: u128,
        state: &S::State,
        completed_mask: u128,
        visited: &mut HashSet<(u128, S::State)>,
        witness: &mut Vec<usize>,
    ) -> bool {
        if linearized & completed_mask == completed_mask {
            return true;
        }
        if !visited.insert((linearized, state.clone())) {
            return false;
        }
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
            // Branch over every candidate outcome the relaxed spec
            // allows; completed operations constrain the response,
            // pending ones accept any candidate.
            for (next_state, resp) in spec.candidates(state, &op.op) {
                if let Some((actual, _)) = &op.returned {
                    if resp != *actual {
                        continue;
                    }
                }
                witness.push(i);
                if dfs(
                    spec,
                    ops,
                    linearized | (1 << i),
                    &next_state,
                    completed_mask,
                    visited,
                    witness,
                ) {
                    return true;
                }
                witness.pop();
            }
        }
        false
    }

    let mut visited: HashSet<(u128, S::State)> = HashSet::new();
    let mut witness: Vec<usize> = Vec::new();
    let initial = spec.initial();
    if dfs(
        spec,
        &ops,
        0,
        &initial,
        completed_mask,
        &mut visited,
        &mut witness,
    ) {
        LinResult::Linearizable { witness }
    } else {
        LinResult::NotLinearizable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn bounded_checker_agrees_when_budget_suffices() {
        let mut h = History::new();
        h.invoke(0, Op::Push(1));
        h.invoke(1, Op::Pop);
        h.ret(0, PUSHED);
        h.ret(1, popped(1));
        let spec = SeqStack::new(4);
        match check_linearizable_bounded(&spec, &h, 10_000) {
            BoundedLinResult::Linearizable { .. } => {}
            other => panic!("expected linearizable, got {other:?}"),
        }
        // Non-linearizable histories stay non-linearizable.
        let mut bad = History::new();
        bad.invoke(0, Op::Pop);
        bad.ret(0, popped(9));
        assert_eq!(
            check_linearizable_bounded(&spec, &bad, 10_000),
            BoundedLinResult::NotLinearizable
        );
    }

    #[test]
    fn bounded_checker_reports_unknown_on_tiny_budget() {
        // A wide overlapping history with an enormous configuration
        // space and a budget of 1: the search must give up, not hang.
        let mut events = Vec::new();
        for i in 0..12 {
            events.push(crate::history::Event::Invoke {
                proc: i,
                op: Op::Push(i as u32),
            });
        }
        for i in 0..12 {
            events.push(crate::history::Event::Return {
                proc: i,
                resp: PUSHED,
            });
        }
        let h = History::from_events(events);
        match check_linearizable_bounded(&SeqStack::new(16), &h, 1) {
            BoundedLinResult::Unknown { explored } => assert!(explored <= 1),
            // With budget 1 the first path could still succeed for
            // this all-push history (any order works), so accept it.
            BoundedLinResult::Linearizable { .. } => {}
            BoundedLinResult::NotLinearizable => panic!("cannot conclude within budget 1"),
        }
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
        let mut state = crate::spec::SeqSpec::initial(&spec);
        for idx in witness {
            let (next, resp) = crate::spec::SeqSpec::apply(&spec, &state, &ops[idx].op);
            if let Some((actual, _)) = &ops[idx].returned {
                assert_eq!(resp, *actual);
            }
            state = next;
        }
    }
}
