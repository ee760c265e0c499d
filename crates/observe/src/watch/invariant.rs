//! The invariant catalogue: named, continuously evaluable checks.
//!
//! An [`Invariant`] pairs a metric-safe name with a closure producing
//! a [`Verdict`]. The constructors below cover the workspace's
//! structural guarantees — the ones the paper proves and the model
//! runtime checks exhaustively offline — re-expressed as cheap online
//! predicates over uncounted reads:
//!
//! | invariant | guarantee | feed |
//! |---|---|---|
//! | `conservation` | pushes − pops == size | caller-supplied closures |
//! | `bypass_bound` | §4.4: a raised FLAG is bypassed ≤ n−1 times at one `TURN` position | live aggregator bypass tracker |
//! | `path_ceiling` | per-path p99 stays under a step-budget-derived ceiling | live aggregator quantiles |
//! | `lease_staleness` | every registered proc heartbeats within its grace | [`cso_memory::Liveness`] |
//! | `poison_free` | no operation ever observed a poisoned record/lock | live aggregator event counts |
//! | `lossless_rings` | the harvester keeps the trace capture lossless | live aggregator + probe drop gauge |
//!
//! The reads are racy by design (the watchdog must never perturb the
//! structures it observes), so a verdict is a *sample*, not a proof:
//! the watchdog debounces transitions over consecutive ticks to
//! absorb in-flight transients like a push that incremented the
//! counter but has not yet landed.

use std::sync::Arc;
use std::time::Duration;

use cso_memory::Liveness;

use crate::profile::LiveAggregator;

/// The outcome of one invariant evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The invariant holds.
    Ok,
    /// The invariant is violated but the structure may still make
    /// progress — alert and keep serving.
    Degraded(String),
    /// The invariant is violated in a way that taints results — the
    /// structure's answers can no longer be trusted.
    Poisoned(String),
}

impl Verdict {
    /// Numeric severity, exported as the `cso_watch_*` gauge value:
    /// 0 = ok, 1 = degraded, 2 = poisoned.
    #[must_use]
    pub fn severity(&self) -> u8 {
        match self {
            Verdict::Ok => 0,
            Verdict::Degraded(_) => 1,
            Verdict::Poisoned(_) => 2,
        }
    }

    /// The violation message, if any.
    #[must_use]
    pub fn reason(&self) -> Option<&str> {
        match self {
            Verdict::Ok => None,
            Verdict::Degraded(r) | Verdict::Poisoned(r) => Some(r),
        }
    }

    /// `true` for [`Verdict::Ok`].
    #[must_use]
    pub fn is_ok(&self) -> bool {
        matches!(self, Verdict::Ok)
    }

    /// The status label used by `/health` and the JSONL export.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Ok => "OK",
            Verdict::Degraded(_) => "DEGRADED",
            Verdict::Poisoned(_) => "POISONED",
        }
    }

    /// Parses severity back into a label (for renderers holding only
    /// the exported number).
    #[must_use]
    pub fn label_of(severity: u8) -> &'static str {
        match severity {
            0 => "OK",
            1 => "DEGRADED",
            _ => "POISONED",
        }
    }
}

/// A named, continuously evaluable check.
pub struct Invariant {
    name: String,
    check: Box<dyn Fn() -> Verdict + Send>,
}

impl std::fmt::Debug for Invariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Invariant")
            .field("name", &self.name)
            .finish()
    }
}

impl Invariant {
    /// Wraps a closure as an invariant. The name is sanitized into the
    /// Prometheus charset (anything outside `[a-zA-Z0-9_:]` becomes
    /// `_`) because it is exported as the `cso_watch_<name>` gauge.
    pub fn new(name: &str, check: impl Fn() -> Verdict + Send + 'static) -> Invariant {
        let name = name
            .chars()
            .map(|c| match c {
                'a'..='z' | 'A'..='Z' | '0'..='9' | '_' | ':' => c,
                _ => '_',
            })
            .collect();
        Invariant {
            name,
            check: Box::new(check),
        }
    }

    /// The sanitized name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Evaluates the check once.
    #[must_use]
    pub fn eval(&self) -> Verdict {
        (self.check)()
    }

    /// Conservation: `pushes − pops == size` (within `slack`). The
    /// three closures read the structure's own counters (uncounted
    /// atomics — the step audit stays exact); a persistent mismatch
    /// beyond `slack` means an operation was lost or duplicated,
    /// exactly the failure the Figure-1 help-after-CAS mutant plants.
    ///
    /// Two defenses keep the racy sampling honest under load:
    ///
    /// - the counters are read *twice*, bracketing the size read; if
    ///   they moved, operations were in flight and the sample is
    ///   inconclusive (`Ok`) — the watchdog ticks often enough that a
    ///   quiet moment always comes;
    /// - `slack` absorbs the bounded skew of updates in flight (a
    ///   thread between its counter bump and the size update), so set
    ///   it to the number of concurrent operations, typically `n`.
    ///
    /// A real leak survives quiesce and outgrows any slack, so
    /// detection is only *deferred* to the next calm tick, never lost.
    ///
    /// `size` is signed because a popper's book-keeping can outrun
    /// the pusher's, driving the sampled size transiently below zero
    /// near an empty structure.
    pub fn conservation(
        name: &str,
        slack: u64,
        pushes: impl Fn() -> u64 + Send + 'static,
        pops: impl Fn() -> u64 + Send + 'static,
        size: impl Fn() -> i64 + Send + 'static,
    ) -> Invariant {
        Invariant::new(name, move || {
            let (p1, o1) = (pushes(), pops());
            let s = size();
            let (p2, o2) = (pushes(), pops());
            if p1 != p2 || o1 != o2 {
                return Verdict::Ok; // operations in flight: inconclusive
            }
            let expected = p1 as i128 - o1 as i128;
            if (expected - i128::from(s)).unsigned_abs() <= u128::from(slack) {
                Verdict::Ok
            } else {
                Verdict::Degraded(format!(
                    "conservation leak: {p1} pushes - {o1} pops = {expected}, \
                     but size is {s} (slack {slack})"
                ))
            }
        })
    }

    /// §4.4 bypass bound: while a slow process's FLAG is raised and
    /// `TURN` rests on one position, at most n−1 other lock
    /// acquisitions may bypass it. The aggregator's streaming bypass
    /// tracker counts per `TURN` position and records the maximum
    /// observed; exceeding n−1 at one position is a starvation-freedom
    /// violation. (Over a whole wait the counts add up; a whole-wait
    /// bound is not what is checked here.)
    pub fn bypass_bound(aggregator: &Arc<LiveAggregator>) -> Invariant {
        let agg = Arc::clone(aggregator);
        Invariant::new("bypass_bound", move || {
            let snap = agg.snapshot();
            if snap.procs == 0 {
                return Verdict::Ok;
            }
            let bound = snap.procs - 1;
            if snap.max_bypass > bound {
                Verdict::Degraded(format!(
                    "bypass bound violated: a raised flag was bypassed {} times at one TURN position, bound is n-1 = {} for n = {}",
                    snap.max_bypass, bound, snap.procs
                ))
            } else {
                Verdict::Ok
            }
        })
    }

    /// Per-path latency ceiling: the path's live p99 must stay under
    /// `ceiling_ns`. Ceilings derive from the step budgets (Theorem 1:
    /// six shared accesses solo) times a machine-calibrated
    /// ns-per-access factor; a breach means the path is doing more
    /// work than its budget allows (convoy, livelock, lost wake-up).
    pub fn path_ceiling(
        aggregator: &Arc<LiveAggregator>,
        path: &'static str,
        ceiling_ns: u64,
    ) -> Invariant {
        let agg = Arc::clone(aggregator);
        Invariant::new(&format!("path_ceiling_{path}"), move || {
            let snap = agg.snapshot();
            match snap.per_path.iter().find(|(label, _)| *label == path) {
                Some((_, hist)) if hist.p99_ns > ceiling_ns => Verdict::Degraded(format!(
                    "path {path} p99 {}ns exceeds its {}ns step-budget ceiling",
                    hist.p99_ns, ceiling_ns
                )),
                _ => Verdict::Ok,
            }
        })
    }

    /// Lease staleness: every proc still registered as active must
    /// have heartbeat within `grace`. A stale lease means a crashed or
    /// wedged process may be holding the lock or a publication slot,
    /// and the recovery path (orphan reclamation, lock succession)
    /// should have fired.
    pub fn lease_staleness(liveness: &Arc<Liveness>, grace: Duration) -> Invariant {
        let live = Arc::clone(liveness);
        Invariant::new("lease_staleness", move || {
            let stale: Vec<usize> = (0..live.n())
                .filter(|&p| live.is_active(p) && live.suspect(p, grace))
                .collect();
            if stale.is_empty() {
                Verdict::Ok
            } else {
                Verdict::Degraded(format!(
                    "{} proc(s) hold stale leases (no heartbeat within {:?}): {:?}",
                    stale.len(),
                    grace,
                    stale
                ))
            }
        })
    }

    /// Poison freedom: no traced operation ever completed by observing
    /// a poisoned record or lock. One poisoned completion taints the
    /// results — this is the only catalogue entry that returns
    /// [`Verdict::Poisoned`].
    pub fn poison_free(aggregator: &Arc<LiveAggregator>) -> Invariant {
        let agg = Arc::clone(aggregator);
        Invariant::new("poison_free", move || {
            let snap = agg.snapshot();
            let poisoned: u64 = snap
                .event_counts
                .iter()
                .filter(|(name, _)| name == "slow-poisoned" || name == "record-poisoned")
                .map(|&(_, n)| n)
                .sum();
            if poisoned == 0 {
                Verdict::Ok
            } else {
                Verdict::Poisoned(format!(
                    "{poisoned} operation(s) observed a poisoned record or lock"
                ))
            }
        })
    }

    /// Lossless capture: the harvester must drain every per-thread
    /// ring before it wraps. Loss does not make the *structures*
    /// wrong, but it silently blinds every other aggregator-fed
    /// invariant, so it degrades health rather than passing quietly.
    ///
    /// The alarm keys on the harvester's cumulative `lost` counter —
    /// the durable accounting of overwritten-before-drain events. The
    /// live drop *gauge* is deliberately only context in the reason:
    /// read concurrently with active writers it can report large
    /// transient values that the next harvest beat reconciles to zero
    /// loss, and a watchdog must not alarm on a racy read when a
    /// durable counter carries the same fact one beat later.
    pub fn lossless_rings(aggregator: &Arc<LiveAggregator>) -> Invariant {
        let agg = Arc::clone(aggregator);
        Invariant::new("lossless_rings", move || {
            let snap = agg.snapshot();
            if snap.lost == 0 {
                Verdict::Ok
            } else {
                Verdict::Degraded(format!(
                    "trace capture is lossy: {} event(s) lost to ring wrap (live drop gauge {})",
                    snap.lost, snap.dropped_gauge
                ))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

    #[test]
    fn severity_orders_the_verdicts() {
        assert_eq!(Verdict::Ok.severity(), 0);
        assert_eq!(Verdict::Degraded(String::new()).severity(), 1);
        assert_eq!(Verdict::Poisoned(String::new()).severity(), 2);
        assert_eq!(Verdict::label_of(0), "OK");
        assert_eq!(Verdict::label_of(1), "DEGRADED");
        assert_eq!(Verdict::label_of(2), "POISONED");
        assert!(Verdict::Ok.reason().is_none());
        assert_eq!(
            Verdict::Degraded("x".into()).reason(),
            Some("x"),
            "reason surfaces the message"
        );
    }

    #[test]
    fn names_are_sanitized_into_the_metric_charset() {
        let inv = Invariant::new("per-path p99 (fast)", || Verdict::Ok);
        assert_eq!(inv.name(), "per_path_p99__fast_");
    }

    #[test]
    fn conservation_flags_a_leak_and_clears_on_repair() {
        let pushes = Arc::new(AtomicU64::new(0));
        let pops = Arc::new(AtomicU64::new(0));
        let size = Arc::new(AtomicI64::new(0));
        let inv = {
            let (p, o, s) = (Arc::clone(&pushes), Arc::clone(&pops), Arc::clone(&size));
            Invariant::conservation(
                "conservation",
                0,
                move || p.load(Ordering::Relaxed),
                move || o.load(Ordering::Relaxed),
                move || s.load(Ordering::Relaxed),
            )
        };
        assert!(inv.eval().is_ok(), "empty structure conserves");
        pushes.store(100, Ordering::Relaxed);
        pops.store(40, Ordering::Relaxed);
        size.store(60, Ordering::Relaxed);
        assert!(inv.eval().is_ok(), "balanced books conserve");
        size.store(59, Ordering::Relaxed);
        let v = inv.eval();
        assert_eq!(v.severity(), 1);
        assert!(v.reason().unwrap().contains("conservation leak"), "{v:?}");
        size.store(60, Ordering::Relaxed);
        assert!(inv.eval().is_ok(), "repair clears the verdict");
    }

    #[test]
    fn conservation_slack_and_inflight_reads_absorb_transients() {
        let pushes = Arc::new(AtomicU64::new(10));
        let pops = Arc::new(AtomicU64::new(0));
        let size = Arc::new(AtomicI64::new(8));
        // slack 2 tolerates two updates in flight...
        let inv = {
            let (p, o, s) = (Arc::clone(&pushes), Arc::clone(&pops), Arc::clone(&size));
            Invariant::conservation(
                "conservation",
                2,
                move || p.load(Ordering::Relaxed),
                move || o.load(Ordering::Relaxed),
                move || s.load(Ordering::Relaxed),
            )
        };
        assert!(inv.eval().is_ok(), "skew of 2 is within slack");
        size.store(7, Ordering::Relaxed);
        assert_eq!(inv.eval().severity(), 1, "skew of 3 breaches");
        // ...and a moving counter makes the sample inconclusive: the
        // size read is bracketed by two counter reads, so a counter
        // that changes between them yields Ok.
        let moving = {
            let p = Arc::clone(&pushes);
            let (o, s) = (Arc::clone(&pops), Arc::clone(&size));
            Invariant::conservation(
                "conservation",
                0,
                move || p.fetch_add(1, Ordering::Relaxed),
                move || o.load(Ordering::Relaxed),
                move || s.load(Ordering::Relaxed),
            )
        };
        assert!(moving.eval().is_ok(), "in-flight sample is inconclusive");
    }

    #[test]
    fn bypass_bound_is_quiet_on_an_empty_aggregator() {
        let agg = Arc::new(LiveAggregator::new());
        assert!(Invariant::bypass_bound(&agg).eval().is_ok());
        assert!(Invariant::poison_free(&agg).eval().is_ok());
        assert!(Invariant::lossless_rings(&agg).eval().is_ok());
        assert!(Invariant::path_ceiling(&agg, "fast", 1_000).eval().is_ok());
    }

    #[test]
    fn lease_staleness_trips_only_for_active_silent_procs() {
        let live = Liveness::new(2);
        live.announce(0);
        live.beat(0);
        let inv = Invariant::lease_staleness(&live, Duration::from_secs(3600));
        assert!(inv.eval().is_ok(), "fresh heartbeat within a huge grace");
        let strict = Invariant::lease_staleness(&live, Duration::from_nanos(0));
        std::thread::sleep(Duration::from_millis(2));
        let v = strict.eval();
        assert_eq!(v.severity(), 1, "zero grace suspects proc 0: {v:?}");
        live.exit(0);
        assert!(strict.eval().is_ok(), "exited procs are nobody's problem");
    }
}
