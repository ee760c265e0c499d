//! The live step-count auditor: Theorem 1 as a runtime check.
//!
//! The paper proves (Theorem 1) that a contention-free strong operation
//! on the Figure 3 stack costs **six** shared-memory accesses and takes
//! no lock. The seed checked this only offline, in the `e1` bench bin.
//! A [`StepAuditor`] promotes the measurement to a reusable runtime
//! assertion: wrap each operation in [`StepAuditor::audit`] and the
//! auditor counts its shared accesses via
//! [`cso_memory::counting::CountScope`] — in *strict* mode a budget
//! violation panics immediately with the access breakdown, failing the
//! enclosing test.
//!
//! Two audit shapes exist:
//!
//! * [`StepAuditor::audit`] — enforce on every call. Correct for solo
//!   (contention-free by construction) operations.
//! * [`StepAuditor::audit_contention_free`] — enforce only when the
//!   operation actually completed on the fast path, as reported by
//!   [`crate::probe::last_path`]. Correct under concurrency, where
//!   some operations legitimately fall through to the lock and may
//!   spend more. Enforces only while the run-time mode is armed (a
//!   [`crate::probe::Recording`] is open): quiet, the path is unknown,
//!   so this shape only records.

use crate::probe::{self, Path};
use cso_memory::counting::{AccessCounts, CountScope};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts the shared-memory accesses of audited operations against a
/// budget. Cheap enough to leave in test builds permanently; sharable
/// across threads (`&self` methods, atomic tallies).
#[derive(Debug)]
pub struct StepAuditor {
    budget: u64,
    strict: bool,
    checked: AtomicU64,
    violations: AtomicU64,
    worst: AtomicU64,
}

impl StepAuditor {
    /// An auditor that **panics** the moment an audited operation
    /// exceeds `budget` total shared accesses.
    #[must_use]
    pub fn strict(budget: u64) -> StepAuditor {
        StepAuditor {
            budget,
            strict: true,
            checked: AtomicU64::new(0),
            violations: AtomicU64::new(0),
            worst: AtomicU64::new(0),
        }
    }

    /// An auditor that tallies violations in its [`AuditReport`]
    /// instead of panicking (for exploratory runs).
    #[must_use]
    pub fn recording(budget: u64) -> StepAuditor {
        StepAuditor {
            strict: false,
            ..StepAuditor::strict(budget)
        }
    }

    /// The access budget this auditor enforces.
    #[must_use]
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Runs `op`, counts its shared accesses on this thread, and
    /// checks them against the budget. Returns `op`'s result.
    ///
    /// In strict mode, panics with the access breakdown on a
    /// violation. Use only where *every* call is expected to stay in
    /// budget (e.g. solo operations); under contention prefer
    /// [`StepAuditor::audit_contention_free`].
    pub fn audit<R>(&self, op: impl FnOnce() -> R) -> R {
        let scope = CountScope::start();
        let out = op();
        self.check(scope.take());
        out
    }

    /// Runs `op` and enforces the budget **only if** the operation
    /// completed on the fast path ([`probe::last_path`] reports
    /// [`Path::Fast`]); locked-path completions are counted in the
    /// report's `checked` but never violate. While the mode is quiet
    /// the completion path is unknown and nothing is enforced — the
    /// call still runs `op` and records the worst cost seen.
    pub fn audit_contention_free<R>(&self, op: impl FnOnce() -> R) -> R {
        probe::forget_last_path();
        let scope = CountScope::start();
        let out = op();
        let counts = scope.take();
        if probe::last_path() == Some(Path::Fast) {
            self.check(counts);
        } else {
            self.checked.fetch_add(1, Ordering::Relaxed);
            self.worst.fetch_max(counts.total(), Ordering::Relaxed);
        }
        out
    }

    /// Feeds an externally measured [`AccessCounts`] through the same
    /// budget check as [`StepAuditor::audit`].
    pub fn observe(&self, counts: AccessCounts) {
        self.check(counts);
    }

    fn check(&self, counts: AccessCounts) {
        self.checked.fetch_add(1, Ordering::Relaxed);
        self.worst.fetch_max(counts.total(), Ordering::Relaxed);
        if counts.total() > self.budget {
            self.violations.fetch_add(1, Ordering::Relaxed);
            if self.strict {
                panic!(
                    "step budget exceeded: {} > {} allowed ({counts})",
                    counts.total(),
                    self.budget
                );
            }
        }
    }

    /// A snapshot of what this auditor has seen so far.
    #[must_use]
    pub fn report(&self) -> AuditReport {
        AuditReport {
            budget: self.budget,
            checked: self.checked.load(Ordering::Relaxed),
            violations: self.violations.load(Ordering::Relaxed),
            worst: self.worst.load(Ordering::Relaxed),
        }
    }
}

/// Tallies from a [`StepAuditor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditReport {
    /// The budget that was enforced.
    pub budget: u64,
    /// Operations audited (including locked-path completions under
    /// [`StepAuditor::audit_contention_free`]).
    pub checked: u64,
    /// Operations whose enforced total exceeded the budget.
    pub violations: u64,
    /// Largest access total seen on any audited operation, enforced
    /// or not.
    pub worst: u64,
}

impl AuditReport {
    /// True when every enforced operation stayed within budget.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.violations == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cso_memory::counting::{record, AccessKind};

    fn spend(reads: u64, writes: u64, cas: u64) {
        for _ in 0..reads {
            record(AccessKind::Read);
        }
        for _ in 0..writes {
            record(AccessKind::Write);
        }
        for _ in 0..cas {
            record(AccessKind::Cas);
        }
    }

    #[test]
    fn within_budget_passes_and_tallies() {
        let auditor = StepAuditor::strict(6);
        let v = auditor.audit(|| {
            spend(3, 1, 2);
            42
        });
        assert_eq!(v, 42);
        let r = auditor.report();
        assert_eq!(r.checked, 1);
        assert_eq!(r.worst, 6);
        assert!(r.clean());
    }

    #[test]
    #[should_panic(expected = "step budget exceeded: 7 > 6")]
    fn strict_over_budget_panics() {
        StepAuditor::strict(6).audit(|| spend(4, 1, 2));
    }

    #[test]
    fn recording_over_budget_tallies_without_panic() {
        let auditor = StepAuditor::recording(6);
        auditor.audit(|| spend(10, 0, 0));
        auditor.audit(|| spend(1, 0, 0));
        let r = auditor.report();
        assert_eq!(r.checked, 2);
        assert_eq!(r.violations, 1);
        assert_eq!(r.worst, 10);
        assert!(!r.clean());
    }

    #[test]
    fn observe_feeds_external_counts() {
        let auditor = StepAuditor::recording(6);
        auditor.observe(AccessCounts {
            reads: 5,
            writes: 1,
            cas: 1,
        });
        assert_eq!(auditor.report().violations, 1);
    }

    #[test]
    fn contention_free_audit_skips_locked_completions() {
        use crate::probe::record as precord;
        use crate::Event;
        let auditor = StepAuditor::strict(6);
        // A locked completion spending over budget must not violate.
        auditor.audit_contention_free(|| {
            spend(10, 0, 0);
            precord(Event::LockedComplete);
        });
        // A fast completion within budget is enforced and passes.
        auditor.audit_contention_free(|| {
            spend(5, 0, 0);
            precord(Event::FastSuccess);
        });
        let r = auditor.report();
        assert_eq!(r.checked, 2);
        assert!(r.clean());
        assert_eq!(r.worst, 10);
    }

    #[test]
    #[should_panic(expected = "step budget exceeded")]
    fn contention_free_audit_enforces_fast_completions() {
        use crate::probe::record as precord;
        use crate::Event;
        StepAuditor::strict(6).audit_contention_free(|| {
            spend(7, 0, 0);
            precord(Event::FastSuccess);
        });
    }

    #[test]
    fn contention_free_audit_only_records_an_unknown_path() {
        let auditor = StepAuditor::strict(6);
        auditor.audit_contention_free(|| spend(10, 0, 0));
        let r = auditor.report();
        assert_eq!(r.checked, 1);
        assert!(r.clean(), "unknown path ⇒ no enforcement");
        assert_eq!(r.worst, 10);
    }
}
