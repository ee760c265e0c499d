//! Sequential specifications.

use std::hash::Hash;

/// A sequential specification of a concurrent object: a deterministic
/// state machine mapping (state, operation) to (state, response).
///
/// This is the "sequential specification on total operations" of the
/// paper's §1.1 — the standard linearizability is defined against.
/// States must be hashable so the checker can memoize configurations.
pub trait SeqSpec {
    /// The abstract object state.
    type State: Clone + Eq + Hash;
    /// Operation descriptors.
    type Op: Clone;
    /// Operation responses.
    type Resp: Clone + Eq;

    /// The object's initial state.
    fn initial(&self) -> Self::State;

    /// Applies `op` to `state`, producing the next state and the
    /// response a sequential execution would deliver.
    fn step(&self, state: &Self::State, op: &Self::Op) -> (Self::State, Self::Resp);
}

/// A **nondeterministic** sequential specification: applying an
/// operation may legally produce any one of several (state, response)
/// outcomes.
///
/// This is the shape k-relaxed objects take (Henzinger et al.,
/// "quantitative relaxation"): a k-relaxed pop may return any of the
/// top k + 1 elements, so the specification is a relation, not a
/// function. The checker
/// ([`check_linearizable`](crate::checker::check_linearizable))
/// branches over the candidates whose response matches the observed
/// one.
///
/// Every deterministic [`SeqSpec`] is trivially a `RelaxedSpec` with a
/// singleton candidate set; the blanket impl below provides that
/// without allocating, so the one checker decides plain
/// linearizability against a strict spec.
pub trait RelaxedSpec {
    /// The abstract object state.
    type State: Clone + Eq + Hash;
    /// Operation descriptors.
    type Op: Clone;
    /// Operation responses.
    type Resp: Clone + Eq;

    /// The object's initial state.
    fn initial(&self) -> Self::State;

    /// Every (next-state, response) pair a sequential execution could
    /// legally produce for `op` in `state`. Must be non-empty and
    /// deterministic as a *set* (same inputs, same candidates).
    fn candidates(
        &self,
        state: &Self::State,
        op: &Self::Op,
    ) -> impl IntoIterator<Item = (Self::State, Self::Resp)>;
}

impl<S: SeqSpec> RelaxedSpec for S {
    type State = S::State;
    type Op = S::Op;
    type Resp = S::Resp;

    fn initial(&self) -> Self::State {
        SeqSpec::initial(self)
    }

    fn candidates(
        &self,
        state: &Self::State,
        op: &Self::Op,
    ) -> impl IntoIterator<Item = (Self::State, Self::Resp)> {
        std::iter::once(self.step(state, op))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CounterSpec;

    impl SeqSpec for CounterSpec {
        type State = u64;
        type Op = u64;
        type Resp = u64;

        fn initial(&self) -> u64 {
            0
        }

        fn step(&self, state: &u64, op: &u64) -> (u64, u64) {
            (state + op, state + op)
        }
    }

    #[test]
    fn specs_are_pure_state_machines() {
        let spec = CounterSpec;
        // (Qualified calls: the RelaxedSpec blanket impl also applies.)
        let s0 = SeqSpec::initial(&spec);
        let (s1, r1) = spec.step(&s0, &5);
        assert_eq!((s1, r1), (5, 5));
        // Reapplying from the same state gives the same result.
        assert_eq!(spec.step(&s0, &5), (5, 5));
    }

    #[test]
    fn every_seqspec_is_a_singleton_relaxed_spec() {
        let spec = CounterSpec;
        let s0 = RelaxedSpec::initial(&spec);
        let candidates: Vec<_> = spec.candidates(&s0, &5).into_iter().collect();
        assert_eq!(candidates, vec![(5, 5)]);
    }
}
