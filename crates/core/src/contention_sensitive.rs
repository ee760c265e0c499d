//! Figure 3: the abortable → contention-sensitive, starvation-free
//! transformation.
//!
//! # Fault model
//!
//! The paper (§5) observes that the transformation tolerates crashes
//! everywhere *except* inside the critical section: a process that
//! stops between lines 06 and 12 leaves `CONTENTION` raised and the
//! lock held, wedging every future slow-path operation. This module
//! hardens the two recoverable flavours of that failure:
//!
//! * **panics** (unwinding, not process death) inside the slow path
//!   are survived: an RAII guard restores `CONTENTION`, lowers
//!   `FLAG[i]`, hands `TURN` on, and releases the lock during unwind,
//!   so other processes keep completing (see
//!   [`ContentionSensitive::telemetry`] for the poisoning record
//!   alongside the path counters);
//! * **unbounded waits** on a genuinely wedged lock are made
//!   reportable by the deadline-bounded
//!   [`ContentionSensitive::try_apply_for`];
//! * **process crashes inside the critical section** — the §5 wedge
//!   itself — are *recovered from* when [`CsConfig::recovery`] is set:
//!   a [`Liveness`] lease suspects silent processes, waiters run the
//!   lock-succession protocol of [`StarvationFree::lock_recovering`],
//!   and combiners retire (tombstone) the publication records of
//!   suspected-dead posters instead of applying them. Recovery is
//!   budgeted ([`RecoveryPolicy::max_successions`]) and degrades
//!   gracefully: combining → plain locking → fail-fast
//!   [`Unrecoverable`]. All of its bookkeeping lives in plain
//!   (uncounted) atomics, so Theorem 1's counted budgets are
//!   untouched.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use cso_locks::{ProcLock, RawLock, RecoveringLock, StarvationFree, Succession};
use cso_memory::backoff::{retry_pause, Deadline, Spinner};
use cso_memory::combining::{CachePadded, PubRecord, RecordState, NO_HELPER};
use cso_memory::fail_point;
use cso_memory::liveness::{Liveness, RecoveryPolicy};
use cso_memory::mode::{self, Armed, Mode, Quiet};
use cso_memory::reg::RegBool;
use cso_memory::Stripes;
use cso_trace::{probe, probe_if, Event, Registry, SpanClock, Timer};

use crate::abortable::Abortable;
use crate::error::{CsError, TimedOut, Unrecoverable};
use crate::gate::AdaptiveGate;
use crate::progress::ProgressCondition;

/// Which of Figure 3's mechanisms are enabled — the paper
/// configuration plus its ablation and the upgrades layered on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsConfig {
    /// Lines 04–05/10–11: the `FLAG`/`TURN` starvation-freedom
    /// booster. Disabling it takes the deadlock-free lock directly:
    /// progress degrades from starvation-free to non-blocking.
    pub fair: bool,
    /// Lines 01–03: attempt the lock-free fast path at all. Disabling
    /// it forces every invocation onto the slow path — the
    /// always-locking strawman the paper argues against, kept as a
    /// configuration so experiments (E14, E15) can put the *slow paths*
    /// under contention deliberately.
    pub fast_path: bool,
    /// Replace the one-at-a-time slow path with **flat combining**:
    /// contended operations post publication records and the lock
    /// winner applies every pending request in one tenure (see the
    /// module docs of [`cso_memory::combining`]).
    pub combining: bool,
    /// Layer the [`AdaptiveGate`] over the fast path: divert to the
    /// slow path only when the EWMA of recent fast-path aborts says
    /// the fast path is genuinely losing, with hysteresis and periodic
    /// probing. Off, the `CONTENTION` register alone routes (the
    /// paper's exact behaviour).
    pub adaptive_gate: bool,
    /// The escalation ladder's middle rung: once the fast path's
    /// [`FAST_RETRIES`] are spent, attempt to complete by
    /// **elimination** — rendezvous with a concurrent inverse
    /// operation via the object's [`Abortable::try_eliminate`] hook
    /// (e.g. a stack's push/pop pair exchanging through
    /// [`cso_memory::exchange`]). Objects without an inverse structure
    /// decline and fall through to the lock.
    pub elimination: bool,
    /// Crash tolerance for the slow path (the paper's §5 caveat): when
    /// `Some`, the object keeps a per-process [`Liveness`] lease,
    /// acquires the slow-path lock through the succession protocol of
    /// [`StarvationFree::lock_recovering`], and lets combiners retire
    /// the publication records of suspected-dead posters. `None` (the
    /// default everywhere) leaves the paper's fault model unchanged.
    /// Recovery implies the `FLAG`/`TURN` booster on the plain lock
    /// path (the succession protocol lives there), overriding `fair:
    /// false`.
    pub recovery: Option<RecoveryPolicy>,
}

impl CsConfig {
    /// The configuration of the paper's Figure 3 (everything on).
    pub const PAPER: CsConfig = CsConfig {
        fair: true,
        fast_path: true,
        combining: false,
        adaptive_gate: false,
        elimination: false,
        recovery: None,
    };
    /// The paper's own ablation: no `FLAG`/`TURN` fairness.
    pub const UNFAIR: CsConfig = CsConfig {
        fair: false,
        fast_path: true,
        combining: false,
        adaptive_gate: false,
        elimination: false,
        recovery: None,
    };
    /// The combining upgrade: Figure 3's fast path, a flat-combining
    /// slow path, and the adaptive gate in front of the lock.
    pub const COMBINING: CsConfig = CsConfig {
        fair: true,
        fast_path: true,
        combining: true,
        adaptive_gate: true,
        elimination: false,
        recovery: None,
    };
    /// The full escalation ladder: the fast path and its paced
    /// retries, then elimination, then the lock — [`CsConfig::PAPER`]
    /// with the middle rung on.
    pub const LADDER: CsConfig = CsConfig {
        fair: true,
        fast_path: true,
        combining: false,
        adaptive_gate: false,
        elimination: true,
        recovery: None,
    };

    /// This configuration with the flat-combining slow path enabled.
    #[must_use]
    pub const fn with_combining(mut self) -> CsConfig {
        self.combining = true;
        self
    }

    /// This configuration with the adaptive gate enabled.
    #[must_use]
    pub const fn with_adaptive_gate(mut self) -> CsConfig {
        self.adaptive_gate = true;
        self
    }

    /// This configuration with the fast path disabled (every
    /// invocation takes the slow path — for forced-contention
    /// experiments and stress tests).
    #[must_use]
    pub const fn without_fast_path(mut self) -> CsConfig {
        self.fast_path = false;
        self
    }

    /// This configuration with the elimination rung (rendezvous with a
    /// concurrent inverse operation) enabled.
    #[must_use]
    pub const fn with_elimination(mut self) -> CsConfig {
        self.elimination = true;
        self
    }

    /// This configuration with crash recovery enabled under `policy`
    /// (see [`CsConfig::recovery`]).
    #[must_use]
    pub const fn with_recovery(mut self, policy: RecoveryPolicy) -> CsConfig {
        self.recovery = Some(policy);
        self
    }
}

impl Default for CsConfig {
    fn default() -> CsConfig {
        CsConfig::PAPER
    }
}

/// The publication list: one cache-padded record per process.
type PubList<O> = Box<[CachePadded<PubRecord<<O as Abortable>::Op, <O as Abortable>::Response>>]>;

/// The latency histograms of an attached object, installed (at most
/// once) by [`ContentionSensitive::attach_metrics`] — the only metrics
/// that need a handle, because a sample needs a clock reading on the
/// operation's own path. Every *count* lives in the [`StatsBlock`].
struct CsMetrics {
    /// Fast-path completion latency.
    fast_ns: Timer,
    /// Slow-path completion latency (lock wait included).
    locked_ns: Timer,
    /// Time-to-recover: latency of slow-path acquisitions that went
    /// through at least one lock succession.
    recover_ns: Timer,
}

/// Everything the object counts about itself: **one block per object,
/// each fact counted once**. Operations write it; the accessors (since
/// the last [`ContentionSensitive::reset_path_stats`]) and an attached
/// registry (lifetime totals, so an exported counter never goes
/// backwards) are its readers. Metrics, not part of the algorithm's
/// shared-memory footprint: all plain (uncounted) atomics. Behind an
/// `Arc` so the registry's polled readers can hold it, which also
/// keeps every per-operation store off the object itself.
struct StatsBlock {
    /// Single-writer stripes indexed by the constants below.
    cells: Stripes<11>,
    /// The EWMA abort-rate gate in front of the fast path. With
    /// [`CsConfig::adaptive_gate`] on, every fast-path outcome stores
    /// into it, so it has lines of its own.
    gate: CachePadded<AdaptiveGate>,
    /// Largest combining tenure so far. A maximum, not a sum, so not a
    /// stripe; only written under the lock.
    max_batch: AtomicU64,
}

// The cells, each with its one writer.
/// Lock-free weak-op successes, first attempts and retries (invoker).
const FAST: usize = 0;
/// Aborts of those same attempts (invoker).
const FAST_ABORTS: usize = 1;
/// Completions by elimination rendezvous (invoker).
const ELIMINATED: usize = 2;
/// Own-tenure slow-path completions (the lock holder, before release).
const LOCKED: usize = 3;
/// Completions delivered by another process's combining tenure (the
/// invoker, when it collects the response).
const HANDED_OFF: usize = 4;
/// Slow-path tenures that unwound under the lock (the unwinding holder).
const POISONED: usize = 5;
/// Deadline expiries of the bounded entry points (invoker).
const TIMEOUTS: usize = 6;
/// Poisoned publication-record handoffs, retried (the record's owner).
const RECORD_POISONED: usize = 7;
/// Combining lock tenures (combiner).
const BATCHES: usize = 8;
/// Requests applied for other processes (combiner, once per tenure).
const SERVED: usize = 9;
/// Records tombstoned for suspected-dead owners (combiner).
const RECLAIMED: usize = 10;

/// The exported counters: series suffix and the cell it reads. Disjoint
/// by path — `ops_fast + ops_eliminated + ops_locked + ops_combined` =
/// completions — so a scrape shows the path mix directly, where
/// [`PathStats::locked`] is the sum of the last two.
const COUNTER_SERIES: [(&str, usize); 11] = [
    ("ops_fast_total", FAST),
    ("fast_aborts_total", FAST_ABORTS),
    ("ops_eliminated_total", ELIMINATED),
    ("ops_locked_total", LOCKED),
    ("ops_combined_total", HANDED_OFF),
    ("slow_poisoned_total", POISONED),
    ("timeouts_total", TIMEOUTS),
    ("record_poisoned_total", RECORD_POISONED),
    ("combine_batches_total", BATCHES),
    ("combine_served_total", SERVED),
    ("records_reclaimed_total", RECLAIMED),
];

/// How many operations completed on each path (diagnostics for
/// experiment E4: "fraction of ops that took the lock").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathStats {
    /// Operations that completed on the lock-free fast path
    /// (lines 01–03), at the first attempt or a paced retry.
    pub fast: u64,
    /// Operations that completed by elimination rendezvous — the
    /// ladder's middle rung, touching neither the object's main state
    /// nor the lock.
    pub eliminated: u64,
    /// Operations that completed under the lock (lines 04–13), in the
    /// invoker's own tenure or handed off by a combiner.
    pub locked: u64,
}

impl PathStats {
    /// Total completed operations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.fast + self.eliminated + self.locked
    }

    /// Fraction of operations that needed the lock (0.0 when idle).
    #[must_use]
    pub fn locked_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.locked as f64 / self.total() as f64
        }
    }
}

/// How often the slow path degraded instead of completing — the
/// robustness twin of [`PathStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Slow-path invocations that unwound (panicked) while holding the
    /// lock. Each one had its lock released and `CONTENTION` restored
    /// by the drop guard, so this counts *survived* poisonings, not
    /// wedged states.
    pub poisoned: u64,
    /// Deadline-bounded invocations that returned [`TimedOut`].
    pub timeouts: u64,
    /// Publication records a combiner poisoned by unwinding mid-batch.
    /// Each poisoned record's operation was **not** applied; its owner
    /// reclaimed the record and retried cleanly, so — unlike
    /// `poisoned` and `timeouts` — these are *survived handoffs inside
    /// still-running invocations*, not finished invocations, and they
    /// are excluded from [`Telemetry::invocations`].
    pub record_poisoned: u64,
}

/// Documented upper bound on the shared-memory accesses of a **solo,
/// uncontended slow-path** invocation with the paper configuration and
/// a TAS-class inner lock, counting only the transformation's own
/// accesses (not the wrapped object's weak operation):
///
/// | lines | accesses |
/// |---|---|
/// | 01 (`CONTENTION` read, once per attempt) | [`FAST_ATTEMPTS`] = 4 |
/// | 04–06 (`FLAG[i]` write, `TURN` read, `FLAG[TURN]` read, lock TAS) | 4 |
/// | 07 + 09 (`CONTENTION` write ×2) | 2 |
/// | 10–12 (`FLAG[i]` write, `TURN` read, `FLAG[TURN]` read, `TURN` write, unlock write) | 5 |
///
/// Total 15 — 11 + [`FAST_ATTEMPTS`], the figure's own 12 plus
/// one `CONTENTION` read per retry — documented here with one access
/// of headroom (a lock whose release re-reads state, e.g. ticket, may
/// add it). An attempt that *saw* `CONTENTION` raised spends its read
/// and no weak operation, so it costs no more. Contended invocations
/// wait, so their access count is unbounded in general — this bound is
/// the *floor* cost of taking the lock at all, the number Theorem 1's
/// "six accesses, no lock" fast path is avoiding. Guarded by a
/// regression test (`locked_path_stays_within_bound`).
pub const LOCKED_SOLO_ACCESS_BOUND: u64 = 12 + FAST_ATTEMPTS as u64;

/// One snapshot of both statistics families, taken together.
///
/// The two families partition *finished invocations* between them:
/// [`PathStats`] counts the invocations that **completed** (returned a
/// non-⊥ response), split by which Figure 3 path they took, while
/// [`FaultStats`] counts the invocations that **degraded** instead —
/// unwound by a panic under the lock, or gave up at a deadline. Every
/// finished invocation lands in exactly one of five counters, giving
/// the closed form
///
/// ```text
/// invocations = fast + eliminated + locked + poisoned + timeouts
/// ```
///
/// where `locked` includes the operations a combiner executed on the
/// invoker's behalf (attributed to the invoker; the exported series
/// split them out as `ops_combined_total` — same cells, two sums), and
/// [`FaultStats::record_poisoned`] is deliberately absent — poisoned
/// handoffs are retried inside a still-running invocation, not
/// finished ones. [`Telemetry::invocations`] computes exactly this
/// sum, and a regression test
/// (`telemetry_invocations_match_the_documented_closed_form`) pins the
/// identity.
///
/// Prefer [`ContentionSensitive::telemetry`] over calling
/// [`ContentionSensitive::path_stats`] and
/// [`ContentionSensitive::fault_stats`] separately when relating the
/// families (e.g. computing a degradation rate): the one-call snapshot
/// reads all four counters back-to-back, minimizing the skew window
/// against concurrent completions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Telemetry {
    /// Completions by path (fast vs locked).
    pub paths: PathStats,
    /// Degradations (survived poisonings, deadline expiries).
    pub faults: FaultStats,
}

impl Telemetry {
    /// Total finished invocations, completed or degraded.
    #[must_use]
    pub fn invocations(&self) -> u64 {
        self.paths.total() + self.faults.poisoned + self.faults.timeouts
    }

    /// Fraction of finished invocations that degraded instead of
    /// completing (0.0 when idle).
    #[must_use]
    pub fn degraded_fraction(&self) -> f64 {
        let total = self.invocations();
        if total == 0 {
            0.0
        } else {
            (self.faults.poisoned + self.faults.timeouts) as f64 / total as f64
        }
    }
}

/// Activity counters of the flat-combining slow path (all zero unless
/// [`CsConfig::combining`] is enabled).
///
/// In forced-slow-path runs every under-lock completion is either a
/// combiner's own operation (one per batch) or a served request, so
/// `batches + combined == PathStats::locked` — an invariant the stress
/// tests assert.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CombiningStats {
    /// Lock tenures that ran the combining loop.
    pub batches: u64,
    /// Requests applied by a combiner on behalf of *other* processes.
    pub combined: u64,
    /// The largest single tenure (the combiner's own operation plus
    /// everything it served).
    pub max_batch: u64,
}

impl CombiningStats {
    /// Mean operations retired per lock tenure (≥ 1.0 once any batch
    /// ran; 0.0 when idle); a plain lock retires exactly 1.0 per tenure.
    #[must_use]
    pub fn avg_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            (self.batches + self.combined) as f64 / self.batches as f64
        }
    }
}

/// Crash-recovery activity counters, from
/// [`ContentionSensitive::recovery_stats`] (`None` unless
/// [`CsConfig::recovery`] is set).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Publication records retired (tombstoned) by a combiner because
    /// their owner was suspected dead. Each one's operation was
    /// applied **zero** times; a falsely suspected owner reclaims and
    /// reposts.
    pub reclaimed: u64,
    /// Completed lock successions (custody seized from a suspected-
    /// dead holder).
    pub successions: u64,
    /// Unlock attempts by displaced (falsely suspected, then
    /// succeeded) holders that were fenced off.
    pub fenced_unlocks: u64,
    /// The degradation rung: `0` = normal, `1` = combining disabled
    /// (half the succession budget spent — new arrivals take the plain
    /// recovering lock), `2` = unrecoverable (budget exhausted; the
    /// slow path fails fast).
    pub degraded: u32,
    /// True once the succession budget is exhausted (same condition as
    /// [`ContentionSensitive::is_poisoned`]).
    pub failed: bool,
}

/// Private crash-recovery state, present when [`CsConfig::recovery`]
/// is set. Everything here is a plain (uncounted) atomic or an
/// uncounted lease read: recovery must not perturb Theorem 1's counted
/// budgets.
struct RecoveryInner {
    /// The per-process failure detector, shared with the lock.
    live: Arc<Liveness>,
    policy: RecoveryPolicy,
    /// High-water degradation rung (see [`RecoveryStats::degraded`]).
    degraded: AtomicU32,
}

/// Figure 3 of the paper, generalized to any [`Abortable`] object:
/// a **contention-sensitive, starvation-free** implementation.
///
/// ```text
/// operation strong_op(par):                                 % code for p_i %
/// (01) if (¬CONTENTION)
/// (02)     then res ← weak_op(par); if (res ≠ ⊥) then return(res) end if
/// (03) end if;
/// (04) FLAG[i] ← true;                                      ⎫
/// (05) wait((TURN = i) ∨ (¬FLAG[TURN]));                    ⎬ starvation-free
/// (06) LOCK.lock();                                         ⎭ lock (§4.4)
/// (07) CONTENTION ← true;
/// (08) repeat res ← weak_op(par) until res ≠ ⊥;
/// (09) CONTENTION ← false;
/// (10) FLAG[i] ← false;                                     ⎫
/// (11) if (¬FLAG[TURN]) then TURN ← (TURN mod n) + 1;       ⎬ §4.4
/// (12) LOCK.unlock();                                       ⎭
/// (13) return(res).
/// ```
///
/// Properties (Theorem 1): every invocation returns a non-⊥ value, all
/// invocations are linearizable, and a contention-free invocation uses
/// **no lock and six shared-memory accesses** (one read of
/// `CONTENTION` + the five accesses of a solo weak operation).
///
/// The starred lines live in [`StarvationFree`]; the inner lock `L`
/// only needs to be deadlock-free (a plain TAS lock suffices).
///
/// One deliberate departure: neither an aborted line 02 nor a raised
/// `CONTENTION` at line 01 falls through to line 04 at once. Lines
/// 01–02 are retried up to [`FAST_RETRIES`] times, a constant pause
/// apart and `CONTENTION` re-read each time (see [`FAST_RETRIES`] for
/// the counted-access closed form). The contention-free case — attempt
/// 0 succeeds — is the figure's, access for access; the lemmas hold as
/// printed because the loop is bounded and makes a weak attempt only
/// right after reading the register lowered.
///
/// # The combining slow path
///
/// With [`CsConfig::combining`] enabled, the slow path is **flat
/// combining** instead of one-at-a-time locking: a contended operation
/// posts a request into its own cache-padded publication record
/// ([`cso_memory::combining`]) and spins locally; the process that
/// wins the lock becomes the *combiner* and applies every pending
/// request in one tenure, writing responses back through the records.
/// The fast path (lines 01–03) is untouched, so Theorem 1's six-access
/// bound still holds contention-free — the publication list and the
/// [`AdaptiveGate`] live entirely in uncounted atomics.
///
/// Linearizability is preserved: the combiner applies each claimed
/// request via the object's own `try_apply` while its owner is still
/// blocked inside `apply`, so the request's linearization point (the
/// successful weak operation inside the lock tenure) falls strictly
/// between the owner's invocation and response — who *executes* the
/// operation changes, where it *takes effect* in real time does not.
pub struct ContentionSensitive<O: Abortable, L> {
    inner: O,
    /// The paper's `CONTENTION` boolean register.
    contention: RegBool,
    /// The §4.4-boosted lock (lines 04–06 / 10–12).
    lock: StarvationFree<L>,
    config: CsConfig,
    /// One publication record per process (combining slow path).
    records: PubList<O>,
    /// The statistics block and the gate (see [`StatsBlock`]): a
    /// pointer on the read-mostly line, the written lines elsewhere.
    stats: Arc<StatsBlock>,
    /// The latency timers, if [`ContentionSensitive::attach_metrics`]
    /// was called. The `OnceLock` probe is a plain (uncounted) atomic
    /// load, so unattached objects keep Theorem 1's access budget.
    metrics: OnceLock<CsMetrics>,
    /// Crash-recovery state, if [`CsConfig::recovery`] is set.
    recovery: Option<RecoveryInner>,
}

/// RAII custody of the slow path's shared state (lines 07–12), for a
/// plain tenure and a combining one alike.
///
/// Constructed immediately after the lock is acquired; its drop —
/// which also runs during a panic unwind — performs lines 09–12 in
/// order: restore `CONTENTION`, lower `FLAG[i]`, hand `TURN` on,
/// release the lock. Holding all of that in one drop makes the
/// critical section **panic-safe**: a weak operation (or an injected
/// fault) unwinding under the lock cannot strand `CONTENTION` or the
/// lock, which is exactly the §5 wedge this subsystem defends against.
///
/// The path counters are bumped here too, *before* the release, so no
/// window exists in which the lock is free but the operation is
/// missing from [`PathStats`] (the old post-unlock `fetch_add` race).
struct SlowGuard<'a, O: Abortable, L: RawLock> {
    cs: &'a ContentionSensitive<O, L>,
    proc: usize,
    /// Set on normal completion; selects the `locked` counter. Left
    /// false on unwind (counts `poisoned`) and on an under-lock
    /// timeout (the caller counts `timeouts`).
    completed: bool,
    /// A combining tenure: it holds the *inner* (deadlock-free) lock
    /// directly rather than the `FLAG`/`TURN`-boosted one — combining
    /// provides its own fairness (every tenure serves all pending
    /// records), so the round-robin booster would only add handoff
    /// latency — and releases it the same way.
    raw: bool,
}

impl<O: Abortable, L: RawLock> Drop for SlowGuard<'_, O, L> {
    fn drop(&mut self) {
        let cs = self.cs;
        // Count first: once the lock is released, observers must
        // already see this operation in the statistics.
        if self.completed {
            cs.stats.cells.inc(LOCKED);
            probe!(Event::LockedComplete);
        } else if std::thread::panicking() {
            cs.stats.cells.inc(POISONED);
            probe!(Event::SlowPoisoned);
        }
        // Line 09. `write_lazy` skips the store when the register
        // already reads `false` (it never does on this path — the
        // holder raised it at line 07 — so the solo budget is the
        // same); the probe fires only for real transitions.
        if cs.contention.write_lazy(false) {
            probe!(Event::ContentionClear);
        }
        probe!(Event::LockRelease(self.proc as u32));
        if self.raw {
            // Custody-fenced release: a combiner that was falsely
            // suspected and succeeded mid-tenure must not release the
            // inner lock out from under its successor. Without
            // recovery this is exactly `inner().unlock()`.
            cs.lock.raw_unlock(self.proc);
        } else if cs.config.fair || cs.recovery.is_some() {
            // Lines 10–12. Recovery implies the booster: the
            // recovering acquisition went through FLAG/TURN, so the
            // release must too.
            cs.lock.unlock(self.proc);
        } else {
            // Line 12 alone (unfair ablation).
            cs.lock.inner().unlock();
        }
    }
}

/// How many claim-and-apply sweeps one combiner tenure runs before
/// handing the lock back. Bounding the tenure keeps a steady stream of
/// arrivals from starving the combiner's own caller; anything missed
/// is picked up by the next tenure.
const COMBINE_ROUNDS: usize = 3;

/// How many times lines 01–02 are retried, a [`retry_pause`] apart,
/// before an aborted operation escalates to line 04. The paper's
/// figure escalates on the first abort (`0`): one interfering C&S and
/// the operation raises `FLAG`, swaps the lock and raises
/// `CONTENTION`, which vetoes its peer's fast path too — a ≈ 1 µs
/// handoff to undo a ≈ 20 ns collision. Small by design: if this many
/// paced retries all abort, the contention is sustained and the lock
/// is the cheaper place to wait. Sized with the window by the sweep in
/// DESIGN.md, "The escalation ladder".
///
/// A raised `CONTENTION` spends an attempt too: the operation pauses
/// and re-reads instead of queueing at once, so one escalation costs
/// one lock trip rather than a convoy of them.
///
/// What the bound costs, in counted accesses: a strong operation that
/// waits out `j` raises, aborts `k` times (`j + k ≤ FAST_RETRIES`) and
/// then succeeds lock-free spends `j + (k + 1) × (1 + w)` (one
/// `CONTENTION` read per waited-out raise; one read + the `w` accesses
/// of a weak operation per attempt made; `6 + 6k` on the stack, `7 +
/// 7k` on the queue when `j = 0`, `j = k = 0` being Theorem 1's
/// contention-free budget); one that escalates has spent at most
/// [`FAST_ATTEMPTS`]` × (1 + w)` before line 04, i.e. `FAST_RETRIES ×
/// (1 + w)` more than the figure's.
pub const FAST_RETRIES: u32 = 3;

/// Lock-free attempts an operation makes before line 04 — the
/// figure's one and its [`FAST_RETRIES`]: how many aborts (or
/// `cs::fast` vetoes) in a row send an operation to the lock.
pub const FAST_ATTEMPTS: u32 = FAST_RETRIES + 1;

/// Elimination park length (spin polls) while the gate's abort
/// EWMA is calm — a short window, since a partner is not especially
/// likely.
const ELIM_POLLS_SHORT: u32 = 64;

/// Elimination park length while the gate is engaged (the
/// object is demonstrably hot) — park longer, an inverse operation is
/// probably moments away.
const ELIM_POLLS_LONG: u32 = 512;

/// The records one combining sweep has claimed and not yet completed:
/// the indices in `claimed[applied..]`. If the tenure unwinds (an
/// injected fault or a panicking weak operation), the drop poisons
/// exactly those — **before** the tenure's [`SlowGuard`], which
/// outlives this, releases the lock — so each owner observes a
/// terminal state, reclaims, and retries; records that were merely
/// posted (never claimed) are untouched and simply wait for the next
/// combiner.
struct Claims<'a, O: Abortable> {
    records: &'a PubList<O>,
    /// Indices of records claimed in the current sweep.
    claimed: Vec<usize>,
    /// How many of `claimed` have been completed.
    applied: usize,
}

impl<O: Abortable> Drop for Claims<'_, O> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            for &i in &self.claimed[self.applied..] {
                self.records[i].poison();
            }
        }
    }
}

impl<O: Abortable, L> std::fmt::Debug for ContentionSensitive<O, L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ContentionSensitive")
            .field("config", &self.config)
            .field("stats", &self.stats.cells)
            .finish_non_exhaustive()
    }
}

impl<O: Abortable, L: RawLock> ContentionSensitive<O, L> {
    /// Wraps `inner` for `n` processes, using the deadlock-free lock
    /// `lock` for the slow path — the paper's exact Figure 3.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(inner: O, lock: L, n: usize) -> ContentionSensitive<O, L> {
        ContentionSensitive::with_config(inner, lock, n, CsConfig::PAPER)
    }

    /// Like [`ContentionSensitive::new`] with an explicit mechanism
    /// selection (see [`CsConfig`]).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn with_config(inner: O, lock: L, n: usize, config: CsConfig) -> ContentionSensitive<O, L> {
        let lock = StarvationFree::new(lock, n);
        let recovery = config.recovery.map(|policy| {
            let live = Liveness::new(n);
            lock.enable_recovery(Arc::clone(&live), policy);
            RecoveryInner {
                live,
                policy,
                degraded: AtomicU32::new(0),
            }
        });
        ContentionSensitive {
            inner,
            contention: RegBool::new(false),
            lock,
            config,
            records: (0..n).map(|_| CachePadded::new(PubRecord::new())).collect(),
            stats: Arc::new(StatsBlock {
                cells: Stripes::new(),
                gate: CachePadded::new(AdaptiveGate::new()),
                max_batch: AtomicU64::new(0),
            }),
            metrics: OnceLock::new(),
            recovery,
        }
    }

    /// Registers this object's live metrics under `prefix` (e.g.
    /// `prefix = "stack"` yields `stack_ops_fast_total`, …), wires the
    /// [`StarvationFree`] lock's counters in under the same prefix,
    /// and registers the global probe-ring drop gauge.
    ///
    /// Counters and gauges are *polled*: the registry reads this
    /// object's own statistics block when it is scraped — counters as
    /// totals since construction, whatever
    /// [`ContentionSensitive::reset_path_stats`] did; gauges live — so
    /// attaching adds no store to any path. It adds two `Instant`
    /// readings per operation for the latency histograms, behind the
    /// one *uncounted* atomic load (the `OnceLock` probe) every
    /// operation pays either way, and makes attempt 0 in the
    /// out-of-line escalation routine instead of inline: the
    /// step-budget tests still measure Theorem 1's bound unchanged.
    ///
    /// The first call wins; later calls (including against a different
    /// registry) are no-ops — the timers record into one registry.
    pub fn attach_metrics(&self, registry: &Registry, prefix: &str) {
        // Only the winner registers anything: a later attach must not
        // leave names in a registry that will never see a sample.
        let mut first = false;
        self.metrics.get_or_init(|| {
            first = true;
            CsMetrics {
                fast_ns: registry.timer(&format!("{prefix}_fast_ns")),
                locked_ns: registry.timer(&format!("{prefix}_locked_ns")),
                recover_ns: registry.timer(&format!("{prefix}_recover_ns")),
            }
        });
        if !first {
            return;
        }
        for (name, cell) in COUNTER_SERIES {
            let stats = Arc::clone(&self.stats);
            registry.counter_fn(&format!("{prefix}_{name}"), move || stats.cells.total(cell));
        }
        let gauge = |name: &str, read: fn(&StatsBlock) -> f64| {
            let stats = Arc::clone(&self.stats);
            registry.gauge_fn(&format!("{prefix}_{name}"), move || read(&stats));
        };
        gauge("combine_max_batch", |s| {
            s.max_batch.load(Ordering::Relaxed) as f64
        });
        gauge("gate_engaged", |s| f64::from(u8::from(s.gate.engaged())));
        gauge("gate_abort_ewma", |s| s.gate.abort_ewma());
        self.lock.attach_metrics(registry, prefix);
        registry.register_probe_drop_gauge();
    }

    /// The progress condition of the paper configuration.
    pub const PROGRESS: ProgressCondition = ProgressCondition::StarvationFree;

    /// Applies `op` on behalf of process `proc`; never returns ⊥
    /// (Theorem 1 / Lemma 1). The [`Deadline::NEVER`] instance of
    /// [`ContentionSensitive::try_apply_until`].
    ///
    /// # Panics
    ///
    /// Panics if `proc` is not below the `n` given at construction,
    /// or — with [`CsConfig::recovery`] — if the operation needs the
    /// slow path after the lock became [`Unrecoverable`] (use
    /// [`ContentionSensitive::try_apply_for`] for a non-panicking
    /// report of that state).
    pub fn apply(&self, proc: usize, op: &O::Op) -> O::Response {
        match self.try_apply_until(proc, op, Deadline::NEVER) {
            Ok(res) => res,
            // NEVER cannot time out; Unrecoverable is the only failure.
            Err(e) => panic!("{e}"),
        }
    }

    /// Deadline-bounded [`ContentionSensitive::apply`]: gives up — with
    /// **no effect** on the object — once `timeout` elapses without the
    /// operation completing.
    ///
    /// The deadline governs every wait: the fast path's paced retries
    /// (lines 01–03) sleep no more once it has expired, and both the
    /// starvation-free lock acquisition (lines 04–06) and the
    /// under-lock retry loop (line 08) stop at it. This keeps
    /// invocations live even when a *crashed* (not merely panicked)
    /// process wedged the lock — the paper's §5 failure the
    /// transformation cannot otherwise survive.
    ///
    /// # Errors
    ///
    /// Returns [`CsError::TimedOut`] if the deadline expired first,
    /// and [`CsError::Unrecoverable`] if [`CsConfig::recovery`] is set
    /// and the lock's succession budget is exhausted. Either way the
    /// operation took no effect: it either never acquired the lock, or
    /// held it only across aborted weak attempts.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is not below the `n` given at construction.
    pub fn try_apply_for(
        &self,
        proc: usize,
        op: &O::Op,
        timeout: Duration,
    ) -> Result<O::Response, CsError> {
        self.try_apply_until(proc, op, Deadline::after(timeout))
    }

    /// [`ContentionSensitive::try_apply_for`] with an absolute
    /// [`Deadline`] (shared across several calls when composing) —
    /// Figure 3 itself: every entry point is an instance of this one.
    /// A bounded deadline always takes the plain slow path; the
    /// combining one (a posted record cannot be abandoned mid-claim) is
    /// taken only when the wait is unbounded.
    ///
    /// # Errors
    ///
    /// Returns [`CsError::TimedOut`] if the deadline expired first and
    /// [`CsError::Unrecoverable`] if the crash-succession budget is
    /// exhausted; the object is unchanged either way.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is not below the `n` given at construction.
    pub fn try_apply_until(
        &self,
        proc: usize,
        op: &O::Op,
        deadline: Deadline,
    ) -> Result<O::Response, CsError> {
        assert!(proc < self.lock.n(), "process id out of range");
        // Attempt 0 of lines 01–02, inline behind one test: the
        // contention-free operation is its six accesses and this. With
        // metrics attached (a clock reading per attempt), the fast path
        // off, or the mode armed (its one read), the escalation starts
        // at attempt 0 instead.
        if self.config.fast_path && self.metrics.get().is_none() && !mode::armed() {
            return match self.attempt::<Quiet>(op, None) {
                Ok(res) => Ok(res),
                Err(spent) => self.escalate(proc, op, deadline, spent),
            };
        }
        self.escalate(proc, op, deadline, 0)
    }

    /// Everything past a contention-free attempt 0, out of line and
    /// cold so that none of it is paid on the path Theorem 1 is about:
    /// the rest of lines 01–03 from attempt `next` (its pauses and
    /// deadline checks), the elimination rung, the slow path (plain or
    /// combining) and the latency samples.
    ///
    /// Lines 01–03 as one bounded loop: a `CONTENTION` read plus a
    /// weak attempt, retried up to [`FAST_RETRIES`] times a
    /// [`retry_pause`] apart. `CONTENTION` is re-read after every
    /// pause, and a raised register ends the attempt like an abort
    /// does, not the loop: a holder is in its line-08 window, which
    /// lasts about one weak operation, so the next read usually finds
    /// it lowered. Queueing at once instead raises the register for the
    /// holder's peer in turn — a convoy of lock trips per escalation
    /// (DESIGN.md, "The escalation ladder"). Every weak attempt still
    /// follows a read that returned `false`, which is all Lemma 2 asks.
    /// An engaged adaptive gate spends the whole budget at once, which
    /// ends the loop. So does an expired `deadline`, before the pause:
    /// a bounded caller is not slept past its deadline (attempt 0
    /// reads no clock).
    #[cold]
    #[inline(never)]
    fn escalate(
        &self,
        proc: usize,
        op: &O::Op,
        deadline: Deadline,
        next: u32,
    ) -> Result<O::Response, CsError> {
        if self.config.fast_path {
            let metrics = self.metrics.get();
            let mut attempt = next;
            while attempt < FAST_ATTEMPTS {
                if attempt > 0 {
                    if deadline.expired() {
                        break;
                    }
                    retry_pause();
                }
                match self.attempt::<Armed>(op, metrics) {
                    Ok(res) => return Ok(res),
                    Err(spent) => attempt += spent,
                }
            }
        }
        // The elimination rung (no-op unless enabled): its park is
        // bounded too, so one pass respects any reasonable deadline;
        // skip it once expired.
        if !deadline.expired() {
            if let Some(res) = self.eliminate(op) {
                return Ok(res);
            }
        }
        // The slow-path timer covers the lock wait too — that is the
        // latency an operation diverted off the fast path actually
        // pays. `Instant` is only read when metrics are attached.
        let timed = self.metrics.get().map(|m| (m, Instant::now()));
        let res = if deadline == Deadline::NEVER && self.combining_enabled() {
            // Replaces lines 04–13 wholesale (until repeated
            // successions degrade it back to plain locking).
            self.apply_combining(proc, op)
        } else {
            self.apply_locked(proc, op, deadline)?
        };
        if let Some((m, t0)) = timed {
            m.locked_ns.record(t0.elapsed());
        }
        Ok(res)
    }

    /// Lines 04–13, the plain slow path, every wait bounded by
    /// `deadline`.
    fn apply_locked(
        &self,
        proc: usize,
        op: &O::Op,
        deadline: Deadline,
    ) -> Result<O::Response, CsError> {
        // Lines 04–06: acquire the (boosted) lock.
        fail_point!("cs::lock-wait");
        if !self.acquire(proc, deadline)? {
            return Err(self.timed_out());
        }
        probe!(Event::LockAcquire(proc as u32));
        let mut guard = SlowGuard {
            cs: self,
            proc,
            completed: false,
            raw: false,
        };

        // Line 07. The previous holder lowered the register before
        // releasing, so the lazy store is always a real toggle here —
        // the read-before-write only saves the redundant-store case
        // (repeated raises within one combining storm).
        if self.contention.write_lazy(true) {
            probe!(Event::ContentionRaise);
        }
        fail_point!("cs::locked");

        // Line 08: bounded in practice by Lemma 2 — only the fast-path
        // operations already in flight can make us abort, and later
        // attempts see CONTENTION and make no weak operation. The
        // spinner only yields the CPU so those in-flight operations can
        // finish on oversubscribed machines; it adds no shared accesses.
        // Giving up mid-loop is safe: every failed try_apply had no
        // effect, and the guard restores lines 09–12.
        let mut spinner = Spinner::new();
        loop {
            if let Ok(res) = self.inner.try_apply_as::<Armed>(op) {
                // Lines 09–13 run in the guard's drop (also on unwind).
                guard.completed = true;
                return Ok(res);
            }
            if !spinner.spin_deadline(deadline) {
                drop(guard);
                return Err(self.timed_out());
            }
        }
    }

    /// Counts one deadline expiry and returns its error.
    fn timed_out(&self) -> CsError {
        self.stats.cells.inc(TIMEOUTS);
        probe!(Event::SlowTimeout);
        TimedOut.into()
    }

    /// Whether new arrivals should take the combining slow path: the
    /// configuration enables it *and* the degradation ladder has not
    /// fallen back to plain locking (rung 1). In-flight posters are
    /// unaffected — every waiter can still become its own combiner.
    fn combining_enabled(&self) -> bool {
        self.config.combining
            && self
                .recovery
                .as_ref()
                .map_or(true, |r| r.degraded.load(Ordering::Relaxed) == 0)
    }

    /// Lines 04–06 for the plain (non-combining) slow path, bounded by
    /// `deadline`: the boosted lock (the inner lock alone in the unfair
    /// ablation), via the crash-recovering acquisition when
    /// [`CsConfig::recovery`] is set. `Ok(false)` is a timeout.
    ///
    /// # Errors
    ///
    /// Returns [`Unrecoverable`] once the succession budget is
    /// exhausted (nothing is held; the operation had no effect).
    fn acquire(&self, proc: usize, deadline: Deadline) -> Result<bool, Unrecoverable> {
        let Some(rcv) = &self.recovery else {
            return Ok(if self.config.fair {
                self.lock.lock_until(proc, deadline)
            } else {
                self.lock.inner().try_lock_until(deadline)
            });
        };
        rcv.live.announce(proc);
        let before = self.successions();
        let timed = self.metrics.get().map(|m| (m, Instant::now()));
        match self.lock.lock_recovering_until(proc, deadline) {
            RecoveringLock::Acquired => {
                // Time-to-recover: it went through a succession.
                if let Some((m, t0)) = timed.filter(|_| self.successions() > before) {
                    m.recover_ns.record(t0.elapsed());
                }
                self.note_degraded();
                Ok(true)
            }
            RecoveringLock::TimedOut => Ok(false),
            RecoveringLock::Poisoned => {
                self.note_degraded();
                Err(Unrecoverable)
            }
        }
    }

    /// Completed lock successions so far (0 when recovery is off).
    fn successions(&self) -> u64 {
        self.lock.recovery_stats().map_or(0, |s| s.successions)
    }

    /// Folds the lock's recovery state into the degradation high-water
    /// mark: rung 1 (combining disabled) once half the succession
    /// budget is spent, rung 2 (unrecoverable) once the lock poisons
    /// itself. Monotone — a rung is never un-climbed, so the ladder
    /// cannot flap.
    fn note_degraded(&self) {
        let Some(rcv) = &self.recovery else {
            return;
        };
        let rung = if self.lock.is_poisoned() {
            2
        } else {
            u32::from(
                self.successions() >= u64::from(rcv.policy.max_successions.div_ceil(2).max(1)),
            )
        };
        rcv.degraded.fetch_max(rung, Ordering::Relaxed);
    }

    /// One attempt of lines 01–02: the `CONTENTION` read, the adaptive
    /// gate's uncounted check (under its flag), the `cs::fast` fail
    /// point, then the weak operation — timed into `fast_ns` when
    /// `metrics` is given (the sample covers this attempt, not the
    /// pauses before it). `Err(n)` spends `n` of the
    /// [`FAST_ATTEMPTS`]: one for a raised register, an abort or a
    /// veto, all of them for a diverting gate. Inlined into both
    /// callers: attempt 0 in [`ContentionSensitive::try_apply_until`]
    /// ([`Quiet`]), the retries in [`ContentionSensitive::escalate`]
    /// ([`Armed`]: each site checks the mode word).
    #[inline(always)]
    fn attempt<M: Mode>(
        &self,
        op: &O::Op,
        metrics: Option<&CsMetrics>,
    ) -> Result<O::Response, u32> {
        if self.contention.read() {
            return Err(1);
        }
        if self.config.adaptive_gate && self.stats.gate.should_divert() {
            return Err(FAST_ATTEMPTS);
        }
        fail_point!(M => "cs::fast", return Err(1));
        let timed = metrics.map(|m| (m, Instant::now()));
        let Some(res) = self.weak_attempt::<M>(op) else {
            return Err(1);
        };
        if let Some((m, t0)) = timed {
            m.fast_ns.record(t0.elapsed());
        }
        Ok(res)
    }

    /// One lock-free weak attempt — line 02 — with its bookkeeping:
    /// the gate's sample, the `fast` or `fast_aborts` cell, the probe
    /// pair. `#[inline]` alone leaves it out of line inside the loop —
    /// a call, and the response returned through memory, on the path
    /// Theorem 1 is about.
    #[inline(always)]
    fn weak_attempt<M: Mode>(&self, op: &O::Op) -> Option<O::Response> {
        probe!(M => Event::FastAttempt);
        let res = self.inner.try_apply_as::<M>(op).ok();
        if self.config.adaptive_gate {
            self.stats.gate.record(res.is_none());
        }
        if res.is_some() {
            self.stats.cells.inc(FAST);
            probe!(M => Event::FastSuccess);
        } else {
            self.stats.cells.inc(FAST_ABORTS);
            probe!(M => Event::FastAbort);
        }
        res
    }

    /// The escalation ladder's middle rung, between the fast path and
    /// the lock ([`CsConfig::elimination`]): one rendezvous attempt
    /// via [`Abortable::try_eliminate`], parking for a gate-scaled
    /// poll budget. A completion touches neither the object's main
    /// state nor the lock and counts as `eliminated`.
    ///
    /// Declines the moment an uncounted peek shows `CONTENTION`
    /// raised: a lock holder is in its line-08 window and escalating
    /// (to queue behind it) beats parking. Returns `None` to escalate
    /// to the slow path. Solo invocations never reach this method —
    /// their fast path succeeds — so Theorem 1's six-access bound is
    /// untouched, which the step-budget tests pin down with the ladder
    /// enabled.
    fn eliminate(&self, op: &O::Op) -> Option<O::Response> {
        if !self.config.elimination || self.contention.peek() {
            return None;
        }
        let polls = if self.stats.gate.engaged() {
            ELIM_POLLS_LONG
        } else {
            ELIM_POLLS_SHORT
        };
        probe!(Event::ElimAttempt);
        let res = self.inner.try_eliminate(op, polls)?;
        self.stats.cells.inc(ELIMINATED);
        probe!(Event::EliminatedComplete);
        Some(res)
    }

    /// The flat-combining slow path: post a publication record, then
    /// spin locally until either a combiner delivers the response or
    /// the lock is won — in which case *we* are the combiner.
    ///
    /// Progress: the record is withdrawn before combining (under the
    /// lock, so no claim can race it), and every combiner's sweep
    /// claims all records posted before it, so a posted request is
    /// served within the next full tenure — no waiter starves as long
    /// as some poster wins the (deadlock-free) lock.
    fn apply_combining(&self, proc: usize, op: &O::Op) -> O::Response {
        if let Some(rcv) = &self.recovery {
            rcv.live.announce(proc);
        }
        let rec: &PubRecord<O::Op, O::Response> = &self.records[proc];
        // Reads no clock unless the mode is armed.
        let posted_at = SpanClock::start();
        let post = || {
            // SAFETY: this frame does not return until the record
            // reaches a terminal state it consumes (retract under the
            // lock, take after Done, reclaim after Poisoned/Tombstone),
            // so `op` stays valid for any claimer.
            unsafe { rec.post(op) };
            probe!(Event::RecordPost);
        };
        post();
        fail_point!("cs::post");
        let mut spinner = Spinner::new();
        loop {
            match rec.state() {
                RecordState::Done => {
                    // Causal edge: the combiner stamped its trace-
                    // thread id before `complete`, and `state()`'s
                    // Acquire pairs with `complete`'s Release, so the
                    // stamp read here is the thread that executed us.
                    let helper = rec.helper();
                    let res = rec.take_response();
                    // An under-lock completion, attributed to this
                    // (invoking) process — the combiner only executed.
                    self.stats.cells.inc(HANDED_OFF);
                    probe!(Event::RecordHandoff(posted_at.elapsed_ns()));
                    probe_if!(helper != NO_HELPER, Event::HelpedByCombiner(helper));
                    probe!(Event::CombinedComplete);
                    return res;
                }
                RecordState::Poisoned => {
                    // The combiner unwound before applying us: the
                    // operation took no effect. Reclaim and repost.
                    rec.reclaim_poisoned();
                    self.stats.cells.inc(RECORD_POISONED);
                    probe!(Event::RecordPoisoned);
                    post();
                }
                RecordState::Tombstone => {
                    // A combiner suspected us dead and retired the
                    // request *unapplied*. We are alive to read this,
                    // so the suspicion was false: refresh the lease,
                    // reclaim, and repost — the operation has still
                    // been applied exactly zero times.
                    rec.reclaim_tombstone();
                    if let Some(rcv) = &self.recovery {
                        rcv.live.announce(proc);
                    }
                    post();
                }
                _ => {
                    if !self.try_acquire_raw(proc) {
                        spinner.spin();
                        continue;
                    }
                    if rec.try_retract() {
                        return self.combine(proc, op);
                    }
                    // Our record reached a terminal state just before
                    // we acquired (or was among the orphan claims we
                    // poisoned); release and collect it on the next
                    // poll.
                    probe!(Event::LockRelease(proc as u32));
                    self.lock.raw_unlock(proc);
                }
            }
        }
    }

    /// One acquisition attempt of the combining path: the inner lock
    /// directly or — with recovery, when it is held, maybe by a live
    /// combiner about to serve us, maybe by a corpse — custody seized
    /// from a suspected-dead holder (a no-op before the grace period).
    /// The corpse's in-flight claims will never complete; they are
    /// poisoned so their (live) owners reclaim and repost.
    fn try_acquire_raw(&self, proc: usize) -> bool {
        if self.lock.inner().try_lock() {
            self.lock.note_holder(proc);
            probe!(Event::LockAcquire(proc as u32));
            return true;
        }
        let Some(rcv) = &self.recovery else {
            return false;
        };
        rcv.live.beat(proc);
        if self.lock.try_succeed_raw(proc) != Succession::Acquired {
            return false;
        }
        self.note_degraded();
        probe!(Event::LockAcquire(proc as u32));
        self.poison_orphan_claims();
        true
    }

    /// Called with the inner lock freshly *seized* from a suspected-
    /// dead combiner: every record still `Claimed` — the seizer's own
    /// included — was in flight under the corpse (claims happen only
    /// under the lock we now hold) and will never complete. Poison
    /// them so their owners reclaim and repost.
    ///
    /// Exactly-once caveat: if the corpse crashed *between* applying a
    /// claimed operation and writing `complete`, the owner's retry
    /// applies it twice. That two-instruction handoff window is the
    /// residual hazard of crash recovery without write-ahead intent
    /// logging; the chaos fail points sit before the apply, so every
    /// instrumented kill stays exactly-once (see DESIGN.md).
    fn poison_orphan_claims(&self) {
        for r in &self.records {
            if r.state() == RecordState::Claimed {
                r.poison();
                probe!(Event::RecordPoisoned);
            }
        }
    }

    /// The combiner's lock tenure: apply our own operation, then serve
    /// every pending publication record. Called with the inner lock
    /// held and our own record retracted; the guard releases the lock
    /// even on unwind.
    fn combine(&self, proc: usize, op: &O::Op) -> O::Response {
        let mut guard = SlowGuard {
            cs: self,
            proc,
            completed: false,
            raw: true,
        };
        // Line 07: divert fast-path arrivals while we batch.
        if self.contention.write_lazy(true) {
            probe!(Event::ContentionRaise);
        }
        fail_point!("cs::locked");
        // Line 08 for our own operation.
        let mut spinner = Spinner::new();
        let res = loop {
            match self.inner.try_apply_as::<Armed>(op) {
                Ok(res) => break res,
                Err(_) => spinner.spin(),
            }
        };
        let served = self.serve_pending(proc);
        self.stats.cells.inc(BATCHES);
        self.stats.cells.add(SERVED, served);
        self.stats
            .max_batch
            .fetch_max(served + 1, Ordering::Relaxed);
        probe!(Event::CombineBatch(
            u32::try_from(served + 1).unwrap_or(u32::MAX)
        ));
        guard.completed = true;
        drop(guard);
        res
    }

    /// Sweeps the publication list, claiming and applying every posted
    /// request, for up to [`COMBINE_ROUNDS`] rounds (bounding the
    /// tenure keeps the combiner itself from being starved by a steady
    /// request stream). Returns the number of requests served.
    fn serve_pending(&self, proc: usize) -> u64 {
        let mut ops: Vec<*const O::Op> = Vec::new();
        let mut claims = Claims::<O> {
            records: &self.records,
            claimed: Vec::new(),
            applied: 0,
        };
        let mut served = 0u64;
        // This tenure's trace-thread id, stamped into every record we
        // complete so the owner can attribute its completion to us
        // (`NO_HELPER` while quiet — owners then skip the edge).
        let combiner_tid = cso_trace::probe::thread_id();
        for _ in 0..COMBINE_ROUNDS {
            // Claim phase: collect everything posted so far.
            ops.clear();
            claims.claimed.clear();
            claims.applied = 0;
            for (i, rec) in self.records.iter().enumerate() {
                if i == proc {
                    continue;
                }
                if let Some(rcv) = &self.recovery {
                    // Orphan reclamation: a request whose poster is
                    // suspected dead is retired *unapplied* — nobody
                    // will collect its response. The POSTED→TOMBSTONE
                    // CAS makes this exactly-once: the record is
                    // either claimed (applied once) or tombstoned
                    // (applied zero times), never both; a falsely
                    // suspected poster reclaims and reposts.
                    if rec.state() == RecordState::Posted
                        && rcv.live.suspect(i, rcv.policy.grace)
                        && rec.try_tombstone_posted()
                    {
                        self.stats.cells.inc(RECLAIMED);
                        probe!(Event::SuspectRaised(i as u32));
                        probe!(Event::RecordReclaimed(i as u32));
                        continue;
                    }
                }
                if let Some(ptr) = rec.try_claim() {
                    claims.claimed.push(i);
                    ops.push(ptr);
                }
            }
            if ops.is_empty() {
                break;
            }
            for (k, ptr) in ops.iter().enumerate() {
                fail_point!("cs::combine");
                // SAFETY: the claim pins the owner in
                // `apply_combining` until we publish a terminal state,
                // so the pointer it posted is still live.
                let claimed_op = unsafe { &**ptr };
                let mut spinner = Spinner::new();
                let res = loop {
                    match self.inner.try_apply_as::<Armed>(claimed_op) {
                        Ok(res) => break res,
                        Err(_) => spinner.spin(),
                    }
                };
                self.records[claims.claimed[k]].stamp_helper(combiner_tid);
                self.records[claims.claimed[k]].complete(res);
                claims.applied = k + 1;
            }
            served += ops.len() as u64;
        }
        served
    }

    /// Snapshot of how many operations completed on each path — fast,
    /// eliminated (the escalation ladder's rendezvous rung), or under
    /// the lock.
    pub fn path_stats(&self) -> PathStats {
        PathStats {
            fast: self.stats.cells.get(FAST),
            eliminated: self.stats.cells.get(ELIMINATED),
            locked: self.stats.cells.get(LOCKED) + self.stats.cells.get(HANDED_OFF),
        }
    }

    /// Snapshot of the degradation counters (survived slow-path panics
    /// and deadline expiries). See the module docs for the fault model.
    pub fn fault_stats(&self) -> FaultStats {
        FaultStats {
            poisoned: self.stats.cells.get(POISONED),
            timeouts: self.stats.cells.get(TIMEOUTS),
            record_poisoned: self.stats.cells.get(RECORD_POISONED),
        }
    }

    /// Snapshot of the flat-combining activity counters (all zero
    /// unless [`CsConfig::combining`] is on).
    pub fn combining_stats(&self) -> CombiningStats {
        CombiningStats {
            batches: self.stats.cells.get(BATCHES),
            combined: self.stats.cells.get(SERVED),
            max_batch: self.stats.max_batch.load(Ordering::Relaxed),
        }
    }

    /// The adaptive contention gate (for inspection, and for tests and
    /// experiments that need to force a deterministic gate state via
    /// [`AdaptiveGate::force_engage`]). It only routes operations when
    /// [`CsConfig::adaptive_gate`] is on.
    pub fn gate(&self) -> &AdaptiveGate {
        &self.stats.gate
    }

    /// One coherent snapshot of [`PathStats`] and [`FaultStats`]
    /// together — see [`Telemetry`] for how the families relate.
    pub fn telemetry(&self) -> Telemetry {
        Telemetry {
            paths: self.path_stats(),
            faults: self.fault_stats(),
        }
    }

    /// Whether the slow path has permanently failed: the crash-
    /// succession budget is exhausted, [`ContentionSensitive::apply`]
    /// panics when diverted off the fast path and
    /// [`ContentionSensitive::try_apply_for`] reports
    /// [`CsError::Unrecoverable`]. Always `false` without
    /// [`CsConfig::recovery`]. The *fast* path keeps completing
    /// operations either way — only the lock is lost.
    #[must_use]
    pub fn is_poisoned(&self) -> bool {
        self.lock.is_poisoned()
    }

    /// Snapshot of the crash-recovery counters; `None` unless
    /// [`CsConfig::recovery`] is set.
    #[must_use]
    pub fn recovery_stats(&self) -> Option<RecoveryStats> {
        let rcv = self.recovery.as_ref()?;
        self.note_degraded();
        let sf = self.lock.recovery_stats()?;
        Some(RecoveryStats {
            // Recovery progress is not a restartable statistic.
            reclaimed: self.stats.cells.total(RECLAIMED),
            successions: sf.successions,
            fenced_unlocks: sf.fenced_unlocks,
            degraded: rcv.degraded.load(Ordering::Relaxed),
            failed: sf.failed,
        })
    }

    /// The per-process failure detector backing crash recovery;
    /// `None` unless [`CsConfig::recovery`] is set. Chaos harnesses
    /// use it to declare a stalled process dead
    /// ([`Liveness::mark_dead`]) without waiting out the grace period.
    #[must_use]
    pub fn liveness(&self) -> Option<&Arc<Liveness>> {
        self.recovery.as_ref().map(|r| &r.live)
    }

    /// Restarts the path, fault and combining statistics from zero.
    ///
    /// A baseline snapshot, not a store: the counters are
    /// single-writer stripes other threads may be updating, so the
    /// reset records the current sums and every accessor
    /// ([`ContentionSensitive::path_stats`], `fault_stats`,
    /// `combining_stats`, `telemetry`) reports the difference. A
    /// completion racing the reset is counted on one side of it or the
    /// other, never lost — so a mid-run reset leaves the families
    /// reconcilable: completions since the reset still equal
    /// `telemetry().invocations()` at the next quiescent point.
    pub fn reset_path_stats(&self) {
        self.stats.cells.reset();
        self.stats.max_batch.store(0, Ordering::Relaxed);
    }

    /// The number of processes this instance serves.
    #[must_use]
    pub fn n(&self) -> usize {
        self.lock.n()
    }

    /// The mechanism configuration in force.
    #[must_use]
    pub fn config(&self) -> CsConfig {
        self.config
    }

    /// The wrapped abortable object.
    pub fn inner(&self) -> &O {
        &self.inner
    }
}

/// The wrapped object's own accessors (`capacity`, `len`, its abort
/// counters), read through the transformation — DESIGN.md, "One
/// transformation, one set of accessors", says why its weak operations
/// may come along.
impl<O: Abortable, L> std::ops::Deref for ContentionSensitive<O, L> {
    type Target = O;

    #[inline]
    fn deref(&self) -> &O {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testobj::{Bump, ScriptedObject};
    use cso_locks::TasLock;
    use cso_memory::counting::CountScope;
    use std::sync::atomic::AtomicBool;

    /// Scripted aborts that exhaust lines 01–02 and their retries: the
    /// fewest that send a solo operation to the lock.
    const TO_THE_LOCK: usize = FAST_ATTEMPTS as usize;

    fn make(aborts: usize, config: CsConfig) -> ContentionSensitive<ScriptedObject, TasLock> {
        ContentionSensitive::with_config(
            ScriptedObject::with_aborts(aborts),
            TasLock::new(),
            4,
            config,
        )
    }

    #[test]
    fn solo_apply_takes_fast_path() {
        let cs = make(0, CsConfig::PAPER);
        assert_eq!(cs.apply(0, &Bump(7)), 7);
        assert_eq!(
            cs.path_stats(),
            PathStats {
                fast: 1,
                eliminated: 0,
                locked: 0
            }
        );
    }

    #[test]
    fn abort_falls_back_to_lock_and_succeeds() {
        let cs = make(TO_THE_LOCK, CsConfig::PAPER);
        assert_eq!(cs.apply(2, &Bump(7)), 7);
        assert_eq!(
            cs.path_stats(),
            PathStats {
                fast: 0,
                eliminated: 0,
                locked: 1
            }
        );
    }

    #[test]
    fn repeated_aborts_are_absorbed_under_the_lock() {
        let cs = make(25, CsConfig::PAPER);
        assert_eq!(cs.apply(1, &Bump(1)), 1);
        assert_eq!(cs.apply(1, &Bump(1)), 2);
        let stats = cs.path_stats();
        assert_eq!(stats.total(), 2);
    }

    #[test]
    fn solo_fast_path_overhead_is_one_access() {
        // The transformation adds exactly one shared access (the read
        // of CONTENTION) to a solo weak operation. ScriptedObject does
        // no counted accesses, so the total must be exactly 1.
        let cs = make(0, CsConfig::PAPER);
        let scope = CountScope::start();
        cs.apply(0, &Bump(1));
        assert_eq!(scope.take().total(), 1);
    }

    #[test]
    fn ablation_unfair_still_correct() {
        let cs = make(TO_THE_LOCK, CsConfig::UNFAIR);
        assert_eq!(cs.apply(3, &Bump(9)), 9);
        assert_eq!(cs.path_stats().locked, 1);
    }

    #[test]
    fn locked_path_stays_within_bound() {
        // Solo invocation forced onto the slow path (scripted aborts
        // defeat the fast path and every retry). ScriptedObject
        // performs no counted accesses, so the measurement isolates
        // the transformation's own footprint: one `CONTENTION` read
        // per attempt, then the figure's eleven.
        let cs = make(TO_THE_LOCK, CsConfig::PAPER);
        let scope = CountScope::start();
        cs.apply(2, &Bump(1));
        let counts = scope.take();
        assert_eq!(
            counts.total(),
            TO_THE_LOCK as u64 + 11,
            "solo slow path changed cost: {counts} (update the \
             LOCKED_SOLO_ACCESS_BOUND table if intentional)"
        );
        assert!(counts.total() <= LOCKED_SOLO_ACCESS_BOUND);
    }

    #[test]
    fn telemetry_partitions_finished_invocations() {
        let cs = make(TO_THE_LOCK, CsConfig::PAPER);
        cs.apply(0, &Bump(1)); // locked (scripted aborts)
        cs.apply(0, &Bump(1)); // fast
        assert!(cs
            .try_apply_for(1, &Bump(1), Duration::from_millis(50))
            .is_ok());
        let t = cs.telemetry();
        assert_eq!(t.paths, cs.path_stats());
        assert_eq!(t.faults, cs.fault_stats());
        assert_eq!(
            t.paths,
            PathStats {
                fast: 2,
                eliminated: 0,
                locked: 1
            }
        );
        assert_eq!(t.faults, FaultStats::default());
        assert_eq!(t.invocations(), 3);
        assert_eq!(t.degraded_fraction(), 0.0);
    }

    #[test]
    fn telemetry_counts_degradations() {
        let t = Telemetry {
            paths: PathStats {
                fast: 6,
                eliminated: 0,
                locked: 2,
            },
            faults: FaultStats {
                poisoned: 1,
                timeouts: 1,
                // Retried handoffs are not finished invocations.
                record_poisoned: 5,
            },
        };
        assert_eq!(t.invocations(), 10);
        assert!((t.degraded_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn telemetry_invocations_match_the_documented_closed_form() {
        // The documented identity: invocations = fast + eliminated +
        // locked + poisoned + timeouts, with `record_poisoned`
        // excluded (retried handoffs, not finished invocations) and
        // combined completions already inside `locked`.
        let t = Telemetry {
            paths: PathStats {
                fast: 3,
                eliminated: 2,
                locked: 5,
            },
            faults: FaultStats {
                poisoned: 1,
                timeouts: 4,
                record_poisoned: 99,
            },
        };
        assert_eq!(t.invocations(), 3 + 2 + 5 + 1 + 4);
        assert_eq!(
            t.invocations(),
            t.paths.fast
                + t.paths.eliminated
                + t.paths.locked
                + t.faults.poisoned
                + t.faults.timeouts
        );
    }

    #[test]
    fn with_recovery_builder_sets_the_policy() {
        assert_eq!(CsConfig::PAPER.recovery, None);
        assert_eq!(CsConfig::COMBINING.recovery, None);
        assert_eq!(CsConfig::LADDER.recovery, None);
        let cfg = CsConfig::PAPER.with_recovery(RecoveryPolicy::DEFAULT);
        assert_eq!(cfg.recovery, Some(RecoveryPolicy::DEFAULT));
        // Everything else is untouched.
        assert_eq!(
            CsConfig {
                recovery: None,
                ..cfg
            },
            CsConfig::PAPER
        );
    }

    #[test]
    fn recovery_accessors_are_inert_when_disabled() {
        let cs = make(0, CsConfig::PAPER);
        assert!(cs.recovery_stats().is_none());
        assert!(cs.liveness().is_none());
        assert!(!cs.is_poisoned());
    }

    /// Parks its first `try_apply` caller forever — a deterministic
    /// stand-in for a process that crashes inside the critical
    /// section. The parked thread is never unparked or joined; it
    /// plays the corpse for the rest of the test.
    struct ParkFirst {
        armed: std::sync::atomic::AtomicBool,
        parked: Arc<std::sync::atomic::AtomicBool>,
        inner: ScriptedObject,
    }

    impl Abortable for ParkFirst {
        type Op = Bump;
        type Response = u64;

        fn try_apply(&self, op: &Bump) -> Result<u64, crate::error::Aborted> {
            if self.armed.swap(false, Ordering::SeqCst) {
                self.parked.store(true, Ordering::SeqCst);
                loop {
                    std::thread::park();
                }
            }
            self.inner.try_apply(op)
        }
    }

    /// A recovery policy for tests: only an explicit `mark_dead`
    /// raises suspicion (huge grace) and waits retry quickly.
    fn recovery_policy() -> RecoveryPolicy {
        RecoveryPolicy {
            grace: Duration::from_secs(3600),
            max_successions: 4,
            backoff: Duration::from_millis(1),
        }
    }

    fn park_first(
        parked: &Arc<std::sync::atomic::AtomicBool>,
        config: CsConfig,
    ) -> Arc<ContentionSensitive<ParkFirst, TasLock>> {
        let obj = ParkFirst {
            armed: std::sync::atomic::AtomicBool::new(true),
            parked: Arc::clone(parked),
            inner: ScriptedObject::with_aborts(0),
        };
        Arc::new(ContentionSensitive::with_config(
            obj,
            TasLock::new(),
            4,
            config,
        ))
    }

    #[test]
    fn slow_path_survives_a_holder_that_dies_under_the_lock() {
        let parked = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let cs = park_first(
            &parked,
            CsConfig::PAPER
                .without_fast_path()
                .with_recovery(recovery_policy()),
        );
        let _corpse = {
            let cs = Arc::clone(&cs);
            std::thread::spawn(move || cs.apply(0, &Bump(100)))
        };
        while !parked.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        cs.liveness().expect("recovery enabled").mark_dead(0);

        // The survivor's operation completes via lock succession; the
        // corpse's operation was never applied.
        assert_eq!(cs.apply(1, &Bump(2)), 2);
        let stats = cs.recovery_stats().unwrap();
        assert_eq!(stats.successions, 1);
        assert_eq!(stats.fenced_unlocks, 0);
        assert_eq!(stats.degraded, 0, "half the budget is not yet spent");
        assert!(!stats.failed);
        assert!(!cs.is_poisoned());
        // And the object keeps working normally afterwards.
        assert_eq!(cs.apply(2, &Bump(3)), 5);
    }

    #[test]
    fn exhausted_succession_budget_poisons_the_slow_path() {
        let parked = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut policy = recovery_policy();
        policy.max_successions = 0;
        let cs = park_first(
            &parked,
            CsConfig::PAPER.without_fast_path().with_recovery(policy),
        );
        let _corpse = {
            let cs = Arc::clone(&cs);
            std::thread::spawn(move || cs.apply(0, &Bump(100)))
        };
        while !parked.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        cs.liveness().unwrap().mark_dead(0);

        // A zero budget means the very first needed succession fails
        // fast — a distinct failure mode from a timeout.
        assert_eq!(
            cs.try_apply_for(1, &Bump(2), Duration::from_secs(5)),
            Err(CsError::Unrecoverable)
        );
        assert!(cs.is_poisoned());
        let stats = cs.recovery_stats().unwrap();
        assert!(stats.failed);
        assert_eq!(stats.degraded, 2);
        assert_eq!(stats.successions, 0);
        assert_eq!(cs.fault_stats().timeouts, 0);

        // The infallible entry point fails fast too, by panicking.
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cs.apply(2, &Bump(1))))
            .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("unrecoverable"), "{msg}");
    }

    #[test]
    fn combining_seizes_a_dead_combiners_tenure_and_degrades() {
        let parked = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut policy = recovery_policy();
        policy.max_successions = 2; // rung 1 after ceil(2/2) = 1
        let cs = park_first(
            &parked,
            CsConfig::COMBINING
                .without_fast_path()
                .with_recovery(policy),
        );
        // The corpse becomes a combiner (retracts its own record,
        // takes the inner lock) and parks applying its own operation.
        let _corpse = {
            let cs = Arc::clone(&cs);
            std::thread::spawn(move || cs.apply(0, &Bump(100)))
        };
        while !parked.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        cs.liveness().unwrap().mark_dead(0);

        // The survivor seizes the dead combiner's tenure raw (no
        // FLAG), combines, and completes.
        assert_eq!(cs.apply(1, &Bump(2)), 2);
        let stats = cs.recovery_stats().unwrap();
        assert_eq!(stats.successions, 1);
        assert_eq!(stats.degraded, 1, "combining disabled at half the budget");

        // Degraded arrivals fall back to the plain recovering lock —
        // and still complete.
        assert_eq!(cs.apply(2, &Bump(3)), 5);
        assert!(!cs.is_poisoned());
        assert_eq!(cs.fault_stats(), FaultStats::default());
    }

    #[test]
    fn stats_reset() {
        let cs = make(0, CsConfig::PAPER);
        cs.apply(0, &Bump(1));
        cs.reset_path_stats();
        assert_eq!(cs.path_stats().total(), 0);
        cs.apply(0, &Bump(1));
        assert_eq!(
            cs.path_stats().total(),
            1,
            "counting restarts at the baseline"
        );
    }

    #[test]
    fn telemetry_reconciles_after_a_reset_that_races_completions() {
        use std::sync::atomic::AtomicU64;
        const THREADS: usize = 4;
        const OPS: u64 = 50_000;
        let cs = make(0, CsConfig::PAPER);
        // Invocations begun / finished, published around each apply so
        // the resetter can bracket what its reset may have cut off.
        let begun = AtomicU64::new(0);
        let finished = AtomicU64::new(0);
        let (before, after) = std::thread::scope(|s| {
            for proc in 0..THREADS {
                let (cs, begun, finished) = (&cs, &begun, &finished);
                s.spawn(move || {
                    for _ in 0..OPS {
                        begun.fetch_add(1, Ordering::SeqCst);
                        cs.apply(proc, &Bump(1));
                        finished.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
            while finished.load(Ordering::SeqCst) < OPS {
                std::hint::spin_loop();
            }
            let before = finished.load(Ordering::SeqCst);
            cs.reset_path_stats();
            (before, begun.load(Ordering::SeqCst))
        });
        let all = THREADS as u64 * OPS;
        let t = cs.telemetry();
        assert_eq!(t.faults, FaultStats::default());
        // Every invocation begun after the reset returned is counted;
        // none that finished before it began is.
        assert!(
            (all - after..=all - before).contains(&t.invocations()),
            "{} invocations kept, expected {}..={}",
            t.invocations(),
            all - after,
            all - before
        );
        assert_eq!(
            cs.inner().applied.load(Ordering::SeqCst),
            all,
            "the reset touches statistics only"
        );
    }

    #[test]
    fn statistics_share_no_line_with_the_read_mostly_words() {
        use cso_memory::layout::{disjoint, lines_of};
        let cs = make(0, CsConfig::PAPER);
        let block: &StatsBlock = &cs.stats;
        // Every word operations write without holding the lock is in
        // the block, the block is a whole number of lines, and within
        // it the stripes, the gate and `max_batch` share none…
        assert_eq!(std::ptr::from_ref(block) as usize % 128, 0);
        assert_eq!(std::mem::size_of::<StatsBlock>() % 128, 0);
        let written = [
            lines_of(&block.cells),
            lines_of(&block.gate),
            lines_of(&block.max_batch),
        ];
        for (i, hot) in written.iter().enumerate() {
            assert!(written[i + 1..].iter().all(|other| disjoint(hot, other)));
        }
        // …so no statistics store lands on a line of the object, which
        // keeps only the pointer. The words every fast-path operation
        // reads — that pointer among them — share no line with the
        // lock either, whose words the slow path writes.
        assert!(disjoint(&lines_of(block), &lines_of(&cs)));
        for read_mostly in [
            lines_of(&cs.contention),
            lines_of(&cs.config),
            lines_of(&cs.stats),
            lines_of(&cs.metrics),
        ] {
            assert!(disjoint(&read_mostly, &lines_of(&cs.lock)));
        }
    }

    #[test]
    fn locked_fraction_math() {
        let stats = PathStats {
            fast: 3,
            eliminated: 0,
            locked: 1,
        };
        assert!((stats.locked_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(PathStats::default().locked_fraction(), 0.0);
    }

    #[test]
    fn concurrent_strong_ops_all_complete() {
        use std::sync::Arc;
        let cs = Arc::new(make(0, CsConfig::PAPER));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let cs = Arc::clone(&cs);
                std::thread::spawn(move || {
                    for _ in 0..2_000 {
                        cs.apply(i, &Bump(1));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total = cs.inner().applied.load(std::sync::atomic::Ordering::SeqCst);
        assert_eq!(total, 8_000);
        assert_eq!(cs.path_stats().total(), 8_000);
    }

    #[test]
    fn combining_solo_op_self_serves() {
        // Forced slow path + combining: a solo op posts, wins the
        // lock, retracts its own record, and serves an empty batch.
        let cs = make(0, CsConfig::COMBINING.without_fast_path());
        assert_eq!(cs.apply(0, &Bump(5)), 5);
        assert_eq!(
            cs.path_stats(),
            PathStats {
                fast: 0,
                eliminated: 0,
                locked: 1
            }
        );
        let combining = cs.combining_stats();
        assert_eq!(
            combining,
            CombiningStats {
                batches: 1,
                combined: 0,
                max_batch: 1,
            }
        );
        assert!((combining.avg_batch() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn combining_absorbs_aborts_under_the_lock() {
        let cs = make(3, CsConfig::COMBINING.without_fast_path());
        assert_eq!(cs.apply(1, &Bump(2)), 2);
        assert_eq!(cs.apply(1, &Bump(2)), 4);
        assert_eq!(cs.path_stats().locked, 2);
    }

    #[test]
    fn combining_config_keeps_the_fast_path() {
        let cs = make(0, CsConfig::COMBINING);
        assert_eq!(cs.apply(0, &Bump(7)), 7);
        assert_eq!(
            cs.path_stats(),
            PathStats {
                fast: 1,
                eliminated: 0,
                locked: 0
            }
        );
        // And the fast path still costs exactly one extra access (the
        // CONTENTION read): gate and records are uncounted.
        let scope = CountScope::start();
        cs.apply(0, &Bump(1));
        assert_eq!(scope.take().total(), 1);
    }

    #[test]
    fn concurrent_combining_completes_everything_exactly_once() {
        use std::sync::Arc;
        const THREADS: usize = 4;
        const OPS: u64 = 2_000;
        let cs = Arc::new(make(0, CsConfig::COMBINING.without_fast_path()));
        let handles: Vec<_> = (0..THREADS)
            .map(|i| {
                let cs = Arc::clone(&cs);
                std::thread::spawn(move || {
                    for _ in 0..OPS {
                        cs.apply(i, &Bump(1));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let expected = THREADS as u64 * OPS;
        let total = cs.inner().applied.load(std::sync::atomic::Ordering::SeqCst);
        assert_eq!(total, expected, "every op applied exactly once");
        let stats = cs.path_stats();
        assert_eq!(
            stats,
            PathStats {
                fast: 0,
                eliminated: 0,
                locked: expected
            }
        );
        // Every under-lock completion is either a combiner's own op
        // (one per batch) or a served request.
        let combining = cs.combining_stats();
        assert_eq!(combining.batches + combining.combined, stats.locked);
        assert_eq!(cs.fault_stats(), FaultStats::default());
    }

    #[test]
    fn engaged_gate_diverts_then_probes_its_way_back() {
        let cs = make(0, CsConfig::COMBINING);
        cs.gate().force_engage();
        for _ in 0..2_000 {
            cs.apply(0, &Bump(1));
        }
        assert!(
            !cs.gate().engaged(),
            "probe successes must disengage the gate (ewma {})",
            cs.gate().abort_ewma()
        );
        let stats = cs.path_stats();
        assert!(stats.locked > 0, "engaged gate diverted nothing");
        assert!(stats.fast > 0, "probes and post-disengage ops run fast");
        assert_eq!(stats.total(), 2_000);
        assert!(cs.gate().stats().diverted > 0);
    }

    #[test]
    fn attached_gate_gauges_read_the_live_gate() {
        let reg = Registry::new();
        let cs = make(0, CsConfig::COMBINING);
        cs.attach_metrics(&reg, "g");
        let scraped = || reg.snapshot().gauge("g_gate_engaged");
        assert_eq!(scraped(), Some(0.0));
        // No operation runs between the two scrapes, so nothing could
        // have pushed the value: the scrape must read the gate itself.
        cs.gate().force_engage();
        assert_eq!(scraped(), Some(1.0));
        cs.gate().reset();
        assert_eq!(scraped(), Some(0.0));
    }

    #[test]
    fn attached_metrics_mirror_path_counters() {
        let reg = Registry::new();
        let cs = make(TO_THE_LOCK, CsConfig::PAPER);
        cs.attach_metrics(&reg, "t");
        cs.apply(0, &Bump(1)); // scripted aborts → locked
        cs.apply(0, &Bump(1)); // fast
        assert!(cs
            .try_apply_for(1, &Bump(1), Duration::from_millis(50))
            .is_ok()); // fast again (the scripted aborts are spent)
        let snap = reg.snapshot();
        assert_eq!(snap.counter("t_ops_fast_total"), Some(2));
        assert_eq!(snap.counter("t_ops_locked_total"), Some(1));
        assert_eq!(snap.counter("t_ops_combined_total"), Some(0));
        assert_eq!(
            snap.counter("t_fast_aborts_total"),
            Some(TO_THE_LOCK as u64)
        );
        assert_eq!(snap.counter("t_timeouts_total"), Some(0));
        // The lock's own counters registered under the same prefix.
        assert_eq!(snap.counter("t_lock_acquires_total"), Some(1));
        // Per-path latency histograms saw each completion.
        let timer = |name: &str| {
            snap.timers
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, h)| h.count)
        };
        assert_eq!(timer("t_fast_ns"), Some(2));
        assert_eq!(timer("t_locked_ns"), Some(1));
    }

    #[test]
    fn attach_metrics_first_call_wins() {
        let first = Registry::new();
        let second = Registry::new();
        let cs = make(0, CsConfig::PAPER);
        cs.attach_metrics(&first, "a");
        cs.attach_metrics(&second, "b");
        cs.apply(0, &Bump(1));
        assert_eq!(first.snapshot().counter("a_ops_fast_total"), Some(1));
        // The second attach was a full no-op: no "b_*" names were even
        // registered, let alone incremented.
        assert_eq!(second.snapshot().counter("b_ops_fast_total"), None);
    }

    #[test]
    fn attached_metrics_split_combining_completions() {
        let reg = Registry::new();
        let cs = make(0, CsConfig::COMBINING.without_fast_path());
        cs.attach_metrics(&reg, "c");
        assert_eq!(cs.apply(0, &Bump(5)), 5);
        let snap = reg.snapshot();
        // A solo combiner completes its own op under the lock: locked,
        // not combined; one batch, nothing served.
        assert_eq!(snap.counter("c_ops_locked_total"), Some(1));
        assert_eq!(snap.counter("c_ops_combined_total"), Some(0));
        assert_eq!(snap.counter("c_combine_batches_total"), Some(1));
        assert_eq!(snap.counter("c_combine_served_total"), Some(0));
    }

    #[test]
    fn attached_metrics_keep_the_counted_access_budget() {
        // Attaching metrics must not add *counted* shared accesses:
        // the handles are uncounted atomics, so the step-budget
        // numbers of Theorem 1 are identical with a registry attached.
        let reg = Registry::new();
        let cs = make(0, CsConfig::PAPER);
        cs.attach_metrics(&reg, "budget");
        cs.apply(0, &Bump(1)); // warm the shard assignment
        let scope = CountScope::start();
        cs.apply(0, &Bump(1));
        assert_eq!(scope.take().total(), 1);
    }

    /// An abortable object with an always-available rendezvous
    /// partner: the weak op aborts like [`ScriptedObject`], but
    /// `try_eliminate` always succeeds — so the elimination rung can
    /// be driven deterministically, single-threaded.
    struct ElimWrap {
        inner: ScriptedObject,
        eliminations: AtomicU64,
    }

    impl Abortable for ElimWrap {
        type Op = Bump;
        type Response = u64;

        fn try_apply(&self, op: &Bump) -> Result<u64, crate::error::Aborted> {
            self.inner.try_apply(op)
        }

        fn try_eliminate(&self, op: &Bump, polls: u32) -> Option<u64> {
            assert!(polls > 0, "the ladder must grant a park budget");
            self.eliminations.fetch_add(1, Ordering::Relaxed);
            Some(op.0)
        }
    }

    /// The boundary, said in counts: `k ≤ FAST_RETRIES` aborts
    /// complete lock-free at exactly `(k + 1) × (1 + w)` counted
    /// accesses (`w = 0` for the scripted object: one `CONTENTION`
    /// read per attempt), one abort more takes the lock, once.
    #[test]
    fn retries_complete_lock_free_up_to_the_bound_then_lock() {
        for k in 0..=TO_THE_LOCK {
            let cs = make(k, CsConfig::PAPER);
            let scope = CountScope::start();
            assert_eq!(cs.apply(0, &Bump(7)), 7);
            let counts = scope.take();
            let lock_free = k < TO_THE_LOCK;
            assert_eq!(
                cs.path_stats(),
                PathStats {
                    fast: u64::from(lock_free),
                    eliminated: 0,
                    locked: u64::from(!lock_free),
                },
                "{k} aborts"
            );
            if lock_free {
                assert_eq!(counts.total(), k as u64 + 1, "{k} aborts: {counts}");
            }
        }
    }

    /// The retry budget holds on every route into lines 01–03: attempt
    /// 0 inline with the cold routine resuming at attempt 1 (the paper
    /// configuration), the same behind the adaptive gate, and — with
    /// metrics attached, or with the run-time mode armed — the cold
    /// routine making attempt 0 itself. An
    /// object that aborts every lock-free attempt makes exactly
    /// [`FAST_ATTEMPTS`] `CONTENTION` reads and weak attempts before
    /// line 04; a raise seen at attempt 0 spends attempt 0.
    #[test]
    fn every_route_into_the_retries_spends_the_same_budget() {
        let attempts = u64::from(FAST_ATTEMPTS);
        let routes = [
            ("inline", CsConfig::PAPER, false, false),
            ("gate", CsConfig::PAPER.with_adaptive_gate(), false, false),
            ("metrics", CsConfig::PAPER, true, false),
            ("armed", CsConfig::PAPER, false, true),
        ];
        for (route, config, metrics, armed) in routes {
            let _armed = armed.then(cso_trace::probe::Recording::start);
            let on_route = |aborts: usize| {
                let cs = make(aborts, config);
                if metrics {
                    cs.attach_metrics(&Registry::new(), route);
                }
                cs
            };

            // Two aborts past the lock-free budget: line 08 absorbs
            // them. The scripted object makes no counted access, so
            // the count is the attempts' reads and the slow path's
            // eleven (`locked_path_stays_within_bound`).
            let cs = on_route(TO_THE_LOCK + 2);
            let scope = CountScope::start();
            assert_eq!(cs.apply(2, &Bump(5)), 5, "{route}");
            let counts = scope.take();
            assert_eq!(cs.stats.cells.get(FAST_ABORTS), attempts, "{route}");
            assert_eq!(cs.stats.cells.get(FAST), 0, "{route}");
            assert_eq!(counts.total(), attempts + 11, "{route}: {counts}");
            assert_eq!(cs.inner().aborts_left.load(Ordering::SeqCst), 0);
            assert_eq!(cs.path_stats().locked, 1, "{route}");

            // A register raised before the call is seen by every
            // attempt, attempt 0 included: one read each, no weak
            // attempt, then the slow path less line 07's store (already
            // raised: `write_lazy` skips it).
            let cs = on_route(0);
            cs.contention.write(true);
            let scope = CountScope::start();
            assert_eq!(cs.apply(2, &Bump(5)), 5, "{route}");
            let counts = scope.take();
            assert_eq!(cs.stats.cells.get(FAST_ABORTS), 0, "{route}");
            assert_eq!(counts.total(), attempts + 10, "{route}: {counts}");
            assert_eq!(cs.path_stats().locked, 1, "{route}");
        }

        // An engaged gate spends the whole budget at attempt 0: one
        // read, no pause, no weak attempt, then line 04.
        let cs = make(0, CsConfig::PAPER.with_adaptive_gate());
        cs.gate().force_engage();
        let scope = CountScope::start();
        assert_eq!(cs.apply(2, &Bump(5)), 5);
        assert_eq!(scope.take().total(), 1 + 11);
        assert_eq!(cs.gate().stats().diverted, 1);
        assert_eq!(cs.path_stats().locked, 1);
    }

    /// A weak object whose first attempt aborts *and* leaves
    /// `CONTENTION` raised behind it — what a fast-path operation sees
    /// when a lock holder reached line 07 during its attempt.
    struct RaisedMeanwhile {
        cs: OnceLock<std::sync::Weak<ContentionSensitive<RaisedMeanwhile, TasLock>>>,
        calls: AtomicU64,
    }

    impl Abortable for RaisedMeanwhile {
        type Op = Bump;
        type Response = u64;

        fn try_apply(&self, op: &Bump) -> Result<u64, crate::error::Aborted> {
            if self.calls.fetch_add(1, Ordering::Relaxed) > 0 {
                return Ok(op.0);
            }
            let cs = self.cs.get().and_then(std::sync::Weak::upgrade).unwrap();
            cs.contention.write(true);
            Err(crate::error::Aborted)
        }
    }

    #[test]
    fn a_raised_contention_ends_the_retries() {
        let cs = Arc::new(ContentionSensitive::new(
            RaisedMeanwhile {
                cs: OnceLock::new(),
                calls: AtomicU64::new(0),
            },
            TasLock::new(),
            4,
        ));
        cs.inner().cs.set(Arc::downgrade(&cs)).ok().unwrap();
        let scope = CountScope::start();
        assert_eq!(cs.apply(2, &Bump(3)), 3);
        // Nobody lowers the register, so the raise is waited out for
        // the whole budget and then queued behind: every re-read after
        // attempt 0 saw it raised and made no weak attempt. Two weak
        // attempts in all (line 02 once, line 08 once), and the slow
        // path's eleven accesses less line 07's store (already raised:
        // `write_lazy` skips it), plus the four `CONTENTION` reads and
        // the object's own raise.
        assert_eq!(cs.inner().calls.load(Ordering::Relaxed), 2);
        assert_eq!(cs.stats.cells.get(FAST_ABORTS), 1);
        assert_eq!(cs.path_stats().locked, 1);
        assert_eq!(scope.take().total(), TO_THE_LOCK as u64 + 10 + 1);
        assert!(!cs.contention.read(), "line 09 lowers it again");
    }

    /// The other half: a raise that is lowered while the operation
    /// pauses costs it one `CONTENTION` read per re-read that saw it,
    /// and no lock. Only the pause can be aimed at, so a second thread
    /// lowers the register about a pause and a half after the raise —
    /// in time: it sleeps one pause itself, then waits half as long
    /// again (the sleep's real length, which the OS's timer slack
    /// stretches well past the `RETRY_PAUSE` it asks for);
    /// a trial counts when the operation saw the register raised at
    /// least once (more reads than weak attempts) and still finished on
    /// the fast path — which Figure 3 as printed, queueing on the first
    /// raise it sees, can never do.
    #[test]
    fn a_raise_lowered_during_the_pause_is_waited_out() {
        if std::thread::available_parallelism().map_or(1, usize::from) < 2 {
            return; // one core time-slices the two threads: no overlap
        }
        for _trial in 0..1_000 {
            let cs = Arc::new(ContentionSensitive::new(
                RaisedMeanwhile {
                    cs: OnceLock::new(),
                    calls: AtomicU64::new(0),
                },
                TasLock::new(),
                4,
            ));
            cs.inner().cs.set(Arc::downgrade(&cs)).ok().unwrap();
            let (ready, done) = (AtomicBool::new(false), AtomicBool::new(false));
            let (locked, reads) = std::thread::scope(|s| {
                s.spawn(|| {
                    ready.store(true, Ordering::Relaxed);
                    // Line 09 may have lowered it before we looked.
                    while !cs.contention.peek() {
                        if done.load(Ordering::Relaxed) {
                            return;
                        }
                        std::hint::spin_loop();
                    }
                    let raised = Instant::now();
                    retry_pause();
                    let half = raised.elapsed() / 2;
                    let paused = Instant::now();
                    while paused.elapsed() < half {
                        std::hint::spin_loop();
                    }
                    cs.contention.write(false);
                });
                while !ready.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
                let scope = CountScope::start();
                assert_eq!(cs.apply(0, &Bump(3)), 3);
                done.store(true, Ordering::Relaxed);
                (cs.path_stats().locked, scope.take().reads)
            });
            let attempts = cs.inner().calls.load(Ordering::Relaxed);
            if locked == 0 && reads > attempts {
                return;
            }
        }
        panic!("no operation finished on the fast path after seeing CONTENTION raised");
    }

    /// A bounded caller is not slept past its deadline. With
    /// `CONTENTION` held raised for the whole call (and the lock held:
    /// a holder in its line-08 window), an expired deadline reads the
    /// register once, pauses not at all, and times out at line 04 with
    /// no effect; an unbounded call re-reads it after each of its
    /// `FAST_RETRIES` pauses before it queues.
    #[test]
    fn an_expired_deadline_ends_the_retries() {
        let cs = make(0, CsConfig::PAPER);
        assert!(cs.lock.lock_until(1, Deadline::NEVER));
        cs.contention.write(true);
        let expired = Deadline::after(Duration::ZERO);
        let scope = CountScope::start();
        assert!(!cs.lock.lock_until(0, expired));
        let line_04 = scope.take();
        let scope = CountScope::start();
        assert_eq!(
            cs.try_apply_until(0, &Bump(3), expired),
            Err(CsError::TimedOut)
        );
        let bounded = scope.take();
        assert_eq!(bounded.reads, line_04.reads + 1, "one CONTENTION read");
        assert_eq!(bounded.total(), line_04.total() + 1);
        assert_eq!(cs.stats.cells.get(FAST_ABORTS), 0, "no weak attempt");
        assert_eq!(cs.stats.cells.get(TIMEOUTS), 1);

        cs.lock.unlock(1);
        let scope = CountScope::start();
        assert_eq!(cs.try_apply_until(0, &Bump(3), Deadline::NEVER), Ok(3));
        // Four CONTENTION reads, then the slow path's eleven accesses
        // less line 07's store (already raised: `write_lazy` skips it).
        assert_eq!(scope.take().total(), u64::from(FAST_ATTEMPTS) + 10);
        assert_eq!(cs.path_stats().locked, 1);
    }

    /// A retried completion is timed like any other fast one: every
    /// `ops_fast_total` has its `fast_ns` sample.
    #[test]
    fn a_retried_completion_records_its_latency_sample() {
        let reg = Registry::new();
        let cs = make(FAST_RETRIES as usize, CsConfig::PAPER);
        cs.attach_metrics(&reg, "r");
        assert_eq!(cs.apply(0, &Bump(7)), 7);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("r_ops_fast_total"), Some(1));
        assert_eq!(
            snap.counter("r_fast_aborts_total"),
            Some(u64::from(FAST_RETRIES))
        );
        assert_eq!(snap.counter("r_ops_locked_total"), Some(0));
        let samples = |name: &str| {
            snap.timers
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, h)| h.count)
        };
        assert_eq!(samples("r_fast_ns"), Some(1));
        assert_eq!(samples("r_locked_ns"), Some(0));
    }

    #[test]
    fn ladder_elimination_completes_without_lock() {
        let obj = ElimWrap {
            inner: ScriptedObject::with_aborts(TO_THE_LOCK),
            eliminations: AtomicU64::new(0),
        };
        let cs = ContentionSensitive::with_config(
            obj,
            TasLock::new(),
            4,
            CsConfig::PAPER.with_elimination(),
        );
        assert_eq!(cs.apply(0, &Bump(9)), 9);
        assert_eq!(
            cs.path_stats(),
            PathStats {
                fast: 0,
                eliminated: 1,
                locked: 0
            }
        );
        assert_eq!(cs.inner().eliminations.load(Ordering::Relaxed), 1);
        // Eliminated completions are completions: the telemetry
        // families stay a partition.
        assert_eq!(cs.telemetry().invocations(), 1);
    }

    #[test]
    fn ladder_escalates_to_lock_when_both_rungs_fail() {
        // The scripted aborts exhaust the fast attempt and all its
        // retries; the default try_eliminate declines; the lock
        // absorbs the rest (Figure 3's line 08).
        let cs = make(TO_THE_LOCK, CsConfig::LADDER);
        assert_eq!(cs.apply(3, &Bump(5)), 5);
        assert_eq!(
            cs.path_stats(),
            PathStats {
                fast: 0,
                eliminated: 0,
                locked: 1
            }
        );
    }

    #[test]
    fn ladder_config_keeps_the_solo_access_budget() {
        // Theorem 1 must be bit-for-bit intact with the full ladder
        // enabled: a solo op succeeds on the fast path and the ladder
        // is never entered, so the transformation still adds exactly
        // one counted access (the CONTENTION read).
        let cs = make(0, CsConfig::LADDER);
        let scope = CountScope::start();
        cs.apply(0, &Bump(1));
        assert_eq!(scope.take().total(), 1);
    }

    #[test]
    fn deadline_bounded_ladder_still_eliminates() {
        let obj = ElimWrap {
            inner: ScriptedObject::with_aborts(TO_THE_LOCK),
            eliminations: AtomicU64::new(0),
        };
        let cs = ContentionSensitive::with_config(
            obj,
            TasLock::new(),
            4,
            CsConfig::PAPER.with_elimination(),
        );
        assert_eq!(
            cs.try_apply_for(1, &Bump(3), Duration::from_millis(100)),
            Ok(3)
        );
        assert_eq!(cs.path_stats().eliminated, 1);
    }

    #[test]
    fn attached_metrics_mirror_the_eliminated_path() {
        let reg = Registry::new();
        let obj = ElimWrap {
            inner: ScriptedObject::with_aborts(TO_THE_LOCK),
            eliminations: AtomicU64::new(0),
        };
        let cs = ContentionSensitive::with_config(
            obj,
            TasLock::new(),
            4,
            CsConfig::PAPER.with_elimination(),
        );
        cs.attach_metrics(&reg, "e");
        cs.apply(0, &Bump(1)); // fast aborts → eliminated
        cs.apply(0, &Bump(1)); // fast (the scripted aborts are spent)
        let snap = reg.snapshot();
        assert_eq!(snap.counter("e_ops_eliminated_total"), Some(1));
        assert_eq!(snap.counter("e_ops_fast_total"), Some(1));
        assert_eq!(snap.counter("e_ops_locked_total"), Some(0));
    }
}
