//! Sequential specification of an atomic `Compare&Swap` register.

use crate::spec::SeqSpec;

/// Register operations (§2.2 of the paper: read, write,
/// `Compare&Swap`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegOp {
    /// Read the register.
    Read,
    /// Write a value.
    Write(u64),
    /// `C&S(old, new)`.
    Cas(u64, u64),
}

/// Register responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegResp {
    /// The value read.
    Value(u64),
    /// A write completed.
    Done,
    /// Whether the `C&S` succeeded.
    Swapped(bool),
}

/// The atomic register specification (initial value 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegisterSpec;

impl SeqSpec for RegisterSpec {
    type State = u64;
    type Op = RegOp;
    type Resp = RegResp;

    fn initial(&self) -> u64 {
        0
    }

    fn step(&self, state: &u64, op: &RegOp) -> (u64, RegResp) {
        match op {
            RegOp::Read => (*state, RegResp::Value(*state)),
            RegOp::Write(v) => (*v, RegResp::Done),
            RegOp::Cas(old, new) => {
                if state == old {
                    (*new, RegResp::Swapped(true))
                } else {
                    (*state, RegResp::Swapped(false))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cas_semantics_match_the_paper() {
        let spec = RegisterSpec;
        let s0 = spec.initial();
        let (s1, r1) = spec.step(&s0, &RegOp::Cas(0, 5));
        assert_eq!((s1, r1), (5, RegResp::Swapped(true)));
        let (s2, r2) = spec.step(&s1, &RegOp::Cas(0, 9));
        assert_eq!((s2, r2), (5, RegResp::Swapped(false)));
        let (_, r3) = spec.step(&s2, &RegOp::Read);
        assert_eq!(r3, RegResp::Value(5));
        let (s4, r4) = spec.step(&s2, &RegOp::Write(1));
        assert_eq!((s4, r4), (1, RegResp::Done));
    }
}
