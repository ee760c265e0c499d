//! The progress-condition hierarchy of §1.2.
//!
//! "We have a hierarchy of progress conditions: obstruction-freedom is
//! strictly weaker than non-blocking that in turn is strictly weaker
//! than starvation-freedom. This hierarchy defines a family of
//! qualities of service for liveness properties."
//!
//! In a failure-free context non-blocking coincides with
//! deadlock-freedom; with crashes, starvation-freedom generalizes to
//! t-resilience and, at t = n − 1, to Herlihy's wait-freedom
//! (footnote 1 of the paper).

use std::fmt;

/// A liveness guarantee offered by a concurrent-object implementation,
/// ordered from weakest to strongest.
///
/// ```
/// use cso_core::ProgressCondition;
///
/// assert!(ProgressCondition::StarvationFree > ProgressCondition::NonBlocking);
/// assert!(ProgressCondition::NonBlocking >= ProgressCondition::ObstructionFree);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProgressCondition {
    /// An operation is required to terminate only when executed with
    /// no concurrent operation (a *solo* execution). Concurrent
    /// invocations may all fail to terminate (Herlihy, Luchangco &
    /// Moir; paper ref \[8\]).
    ObstructionFree,
    /// Obstruction-free, plus: under concurrency at least one of the
    /// concurrent operations terminates (system-wide progress;
    /// lock-freedom in the modern vocabulary).
    NonBlocking,
    /// Every invoked operation terminates (per-process progress).
    StarvationFree,
}

impl ProgressCondition {
    /// All conditions, weakest first.
    pub const ALL: [ProgressCondition; 3] = [
        ProgressCondition::ObstructionFree,
        ProgressCondition::NonBlocking,
        ProgressCondition::StarvationFree,
    ];

    /// The human-readable name used in reports and benchmark output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ProgressCondition::ObstructionFree => "obstruction-free",
            ProgressCondition::NonBlocking => "non-blocking",
            ProgressCondition::StarvationFree => "starvation-free",
        }
    }
}

impl fmt::Display for ProgressCondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchy_is_strictly_ordered() {
        let [of, nb, sf] = ProgressCondition::ALL;
        assert!(of < nb && nb < sf);
    }

    #[test]
    fn names_render() {
        assert_eq!(
            ProgressCondition::ObstructionFree.to_string(),
            "obstruction-free"
        );
        assert_eq!(ProgressCondition::NonBlocking.to_string(), "non-blocking");
        assert_eq!(
            ProgressCondition::StarvationFree.to_string(),
            "starvation-free"
        );
    }
}
