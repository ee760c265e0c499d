//! The probe event API: what happened, on which thread, in what order.
//!
//! Probe sites in the object/lock crates call [`crate::probe!`] with an
//! [`Event`]. While the run-time mode is armed (a [`Recording`] or a
//! harvester is alive, or a fail point is armed), each
//! event is appended to a **lock-free per-thread ring buffer** together
//! with a global logical timestamp (one relaxed `fetch_add`) and a
//! wall-clock offset; [`collect`] merges every thread's ring into one
//! ordered [`Trace`]. While it is quiet a site records nothing, and a
//! thread that never recorded owns no ring.
//!
//! # Concurrency contract
//!
//! Each ring has exactly one writer (its owning thread); [`collect`]
//! reads the rings concurrently with relaxed loads below an
//! acquire-read head, so every event published before the collect is
//! seen intact. A ring that wraps overwrites its oldest events — the
//! overwritten count is reported as [`Trace::dropped`], never silently.
//! Collecting while writers are still recording can observe a slot
//! mid-overwrite for events *older than the ring capacity*; collect in
//! a quiescent moment (end of a benchmark cell) for exact results.

use std::cell::{Cell, OnceCell, RefCell};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Which path a completed strong operation took (Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Path {
    /// Lines 01–03: the lock-free fast path.
    Fast,
    /// The elimination middle rung of the escalation ladder: the
    /// operation completed by rendezvous with a concurrent inverse
    /// (never touching the object's main state or the lock).
    Eliminated,
    /// Lines 04–13: under the (boosted) lock.
    Locked,
}

/// One probe event. The taxonomy follows Figure 3's lifecycle plus the
/// lock substrate's fairness mechanics:
///
/// * fast path: [`Event::FastAttempt`] / [`Event::FastAbort`] /
///   [`Event::FastSuccess`];
/// * weak-operation internals: [`Event::CasFail`] (the decisive `C&S`
///   lost — the paper's only source of ⊥) and [`Event::HelpingWrite`]
///   (a lazy write finished on behalf of the previous operation);
/// * the `CONTENTION` register: [`Event::ContentionRaise`] /
///   [`Event::ContentionClear`] (lines 07/09);
/// * the slow path: [`Event::LockAcquire`] / [`Event::LockRelease`] /
///   [`Event::LockedComplete`] / [`Event::SlowTimeout`] /
///   [`Event::SlowPoisoned`];
/// * fairness: [`Event::FlagRaise`] (line 04 — the process announces
///   interest before competing for the lock), [`Event::TurnAdvance`]
///   (line 11);
/// * flat combining: [`Event::RecordPost`] / [`Event::RecordHandoff`] /
///   [`Event::CombineBatch`] / [`Event::CombinedComplete`] /
///   [`Event::RecordPoisoned`] (the publication-record lifecycle of
///   the combining slow path);
/// * elimination: [`Event::ElimAttempt`] / [`Event::EliminatedComplete`]
///   (the escalation ladder's rendezvous middle rung);
/// * chaos: [`Event::FailPoint`] — a fail point *fired* (see
///   [`crate::install_chaos_hook`]);
/// * crash recovery: [`Event::SuspectRaised`] /
///   [`Event::RecordReclaimed`] / [`Event::LockSucceeded`] (liveness
///   suspicion, publication-record tombstoning, lock succession);
/// * causal edges: [`Event::HelpedByCombiner`] /
///   [`Event::HelpedByPartner`] / [`Event::HandoffFrom`] /
///   [`Event::CustodyFrom`] — cross-thread completion attribution.
///   Each carries the **trace thread id** (see [`thread_id`]) of the
///   thread that did the cross-thread work, recorded on the *invoking*
///   thread at the moment it observes the completion, so a replayer
///   can attach a helped-by edge to the span it is about to close.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A fast-path weak operation is about to run (line 02 entered).
    FastAttempt,
    /// The fast-path weak operation returned ⊥.
    FastAbort,
    /// The operation completed on the fast path.
    FastSuccess,
    /// A decisive `Compare&Swap` failed; the payload names the
    /// register (e.g. `"stack::top"`).
    CasFail(&'static str),
    /// `CONTENTION ← true` (line 07).
    ContentionRaise,
    /// `CONTENTION ← false` (line 09).
    ContentionClear,
    /// Process `proc` acquired the slow-path lock (line 06 passed).
    LockAcquire(u32),
    /// Process `proc` released the slow-path lock (line 12).
    LockRelease(u32),
    /// `TURN` advanced to the given identity (line 11).
    TurnAdvance(u32),
    /// A helping `C&S` performed the previous operation's pending
    /// write; the payload names the helped register.
    HelpingWrite(&'static str),
    /// A chaos fail point fired; the payload is the site name.
    FailPoint(&'static str),
    /// The operation completed under the lock.
    LockedComplete,
    /// A deadline-bounded slow path gave up ([`cso_core::TimedOut`]
    /// terms — no effect took place).
    ///
    /// [`cso_core::TimedOut`]: ../../cso_core/struct.TimedOut.html
    SlowTimeout,
    /// A slow path unwound (panicked) under the lock and was survived
    /// by the RAII guard.
    SlowPoisoned,
    /// A contended operation posted its publication record (combining
    /// slow path entered).
    RecordPost,
    /// A waiter took the response a combiner wrote into its record;
    /// the payload is the post-to-done handoff latency in nanoseconds
    /// (saturated at `u32::MAX` ≈ 4.3 s).
    RecordHandoff(u32),
    /// A combiner finished one lock tenure; the payload is the batch
    /// size (its own operation plus every request it served).
    CombineBatch(u32),
    /// The operation completed via a combiner (an under-lock
    /// completion attributed to the *invoking* thread).
    CombinedComplete,
    /// A waiter reclaimed a record the combiner poisoned mid-batch
    /// (the operation was not applied; the waiter reposts).
    RecordPoisoned,
    /// Process `proc` raised its `FLAG` (line 04 — it is now owed the
    /// lock within a bounded number of bypasses, §4.4). The interval
    /// from this event to the same process's [`Event::LockAcquire`] is
    /// the window the bypass-bound analyzer counts other acquirers in.
    FlagRaise(u32),
    /// An aborted weak operation entered the elimination rendezvous
    /// (the escalation ladder's middle rung, before `CONTENTION`).
    ElimAttempt,
    /// The operation completed by exchanging with a concurrent inverse
    /// operation — neither the object's main state nor the lock was
    /// touched.
    EliminatedComplete,
    /// Process `proc` was suspected dead (stale liveness lease or an
    /// explicit kill) by a recovering peer. Opens the time-to-recover
    /// window the analyzer measures up to [`Event::LockSucceeded`] /
    /// [`Event::RecordReclaimed`].
    SuspectRaised(u32),
    /// A combiner retired a POSTED publication record whose owner
    /// `proc` was suspected dead (tombstoned, **not** applied).
    RecordReclaimed(u32),
    /// Process `proc` seized the slow-path lock from a suspected-dead
    /// holder (custody transfer; the inner lock word was never
    /// observably free in between).
    LockSucceeded(u32),
    /// This thread's operation was applied by a combiner running on
    /// the given trace thread (the CLAIMED→DONE cross-thread
    /// completion). Recorded just before [`Event::CombinedComplete`].
    HelpedByCombiner(u32),
    /// This thread's operation completed by elimination rendezvous
    /// with a partner running on the given trace thread. Recorded just
    /// before [`Event::EliminatedComplete`].
    HelpedByPartner(u32),
    /// This thread acquired the slow-path lock that the given trace
    /// thread released (the lock/TURN handoff edge). Recorded just
    /// after [`Event::LockAcquire`].
    HandoffFrom(u32),
    /// This thread seized lock custody from a suspected-dead holder
    /// whose last tenure ran on the given trace thread. Recorded just
    /// after [`Event::LockSucceeded`].
    CustodyFrom(u32),
}

/// The trace thread id recorded when a causal stamp could not be
/// attributed (the helper ran before ever registering a ring, or the
/// build is untraced). Causal events carrying this value are kept as
/// annotations but excluded from the helped-by graph.
pub const NO_TID: u32 = u32::MAX;

/// The kind of cross-thread help a causal edge records — which of the
/// four completion sites stamped it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HelpKind {
    /// Flat-combining CLAIMED→DONE: a combiner applied the op.
    Combiner,
    /// Elimination rendezvous: an inverse op exchanged with this one.
    Partner,
    /// Lock/TURN handoff: the previous holder passed the lock on.
    Handoff,
    /// Succession: custody was seized from a dead holder's tenure.
    Custody,
}

impl HelpKind {
    /// A stable short name (`combiner`, `partner`, `handoff`,
    /// `custody`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            HelpKind::Combiner => "combiner",
            HelpKind::Partner => "partner",
            HelpKind::Handoff => "handoff",
            HelpKind::Custody => "custody",
        }
    }

    /// Every kind, in a stable order.
    pub const ALL: [HelpKind; 4] = [
        HelpKind::Combiner,
        HelpKind::Partner,
        HelpKind::Handoff,
        HelpKind::Custody,
    ];
}

impl fmt::Display for HelpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl Event {
    /// A stable short name for summaries and Chrome trace rows.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Event::FastAttempt => "fast-attempt",
            Event::FastAbort => "fast-abort",
            Event::FastSuccess => "fast-success",
            Event::CasFail(_) => "cas-fail",
            Event::ContentionRaise => "contention-raise",
            Event::ContentionClear => "contention-clear",
            Event::LockAcquire(_) => "lock-acquire",
            Event::LockRelease(_) => "lock-release",
            Event::TurnAdvance(_) => "turn-advance",
            Event::HelpingWrite(_) => "helping-write",
            Event::FailPoint(_) => "fail-point",
            Event::LockedComplete => "locked-complete",
            Event::SlowTimeout => "slow-timeout",
            Event::SlowPoisoned => "slow-poisoned",
            Event::RecordPost => "record-post",
            Event::RecordHandoff(_) => "record-handoff",
            Event::CombineBatch(_) => "combine-batch",
            Event::CombinedComplete => "combined-complete",
            Event::RecordPoisoned => "record-poisoned",
            Event::FlagRaise(_) => "flag-raise",
            Event::ElimAttempt => "elim-attempt",
            Event::EliminatedComplete => "eliminated-complete",
            Event::SuspectRaised(_) => "suspect-raised",
            Event::RecordReclaimed(_) => "record-reclaimed",
            Event::LockSucceeded(_) => "lock-succeeded",
            Event::HelpedByCombiner(_) => "helped-by-combiner",
            Event::HelpedByPartner(_) => "helped-by-partner",
            Event::HandoffFrom(_) => "handoff-from",
            Event::CustodyFrom(_) => "custody-from",
        }
    }

    /// The site payload, for the variants that carry one.
    #[must_use]
    pub fn site(&self) -> Option<&'static str> {
        match self {
            Event::CasFail(s) | Event::HelpingWrite(s) | Event::FailPoint(s) => Some(s),
            _ => None,
        }
    }

    /// The process-identity payload, for the variants that carry one.
    #[must_use]
    pub fn proc(&self) -> Option<u32> {
        match self {
            Event::LockAcquire(p)
            | Event::LockRelease(p)
            | Event::TurnAdvance(p)
            | Event::FlagRaise(p)
            | Event::SuspectRaised(p)
            | Event::RecordReclaimed(p)
            | Event::LockSucceeded(p) => Some(*p),
            _ => None,
        }
    }

    /// The measurement payload, for the variants that carry one: the
    /// handoff latency of [`Event::RecordHandoff`] (nanoseconds), the
    /// batch size of [`Event::CombineBatch`], or the helper trace
    /// thread id of the causal-edge events.
    #[must_use]
    pub fn value(&self) -> Option<u32> {
        match self {
            Event::RecordHandoff(v)
            | Event::CombineBatch(v)
            | Event::HelpedByCombiner(v)
            | Event::HelpedByPartner(v)
            | Event::HandoffFrom(v)
            | Event::CustodyFrom(v) => Some(*v),
            _ => None,
        }
    }

    /// The causal edge this event records, for the four helped-by
    /// variants: `(kind, helper trace thread id)`. Returns `None` both
    /// for non-causal events and for causal events stamped [`NO_TID`]
    /// (an unattributable helper never enters the graph).
    #[must_use]
    pub fn help(&self) -> Option<(HelpKind, u32)> {
        let (kind, tid) = match self {
            Event::HelpedByCombiner(t) => (HelpKind::Combiner, *t),
            Event::HelpedByPartner(t) => (HelpKind::Partner, *t),
            Event::HandoffFrom(t) => (HelpKind::Handoff, *t),
            Event::CustodyFrom(t) => (HelpKind::Custody, *t),
            _ => return None,
        };
        (tid != NO_TID).then_some((kind, tid))
    }

    /// A qualified label: the name, plus `@site` or `(proc)` when the
    /// variant carries a payload. This is the key the summary table
    /// groups by, so e.g. `cas-fail@stack::top` and
    /// `fail-point@cs::locked` get separate rows.
    #[must_use]
    pub fn label(&self) -> String {
        if let Some(site) = self.site() {
            format!("{}@{}", self.name(), site)
        } else {
            self.name().to_owned()
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(proc) = self.proc() {
            write!(f, "{}({proc})", self.name())
        } else {
            f.write_str(&self.label())
        }
    }
}

/// One collected event: which thread, when (logical and wall), what.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Recorder thread (dense ids in registration order, not OS tids).
    pub thread: u32,
    /// Global logical timestamp: a total order across threads.
    pub seq: u64,
    /// Nanoseconds since the first recorded event (approximately).
    pub wall_ns: u64,
    /// What happened.
    pub event: Event,
}

/// Every thread's ring merged and ordered by logical timestamp.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// The surviving events, sorted by [`TraceEvent::seq`].
    pub events: Vec<TraceEvent>,
    /// Events overwritten by ring wrap-around before collection.
    pub dropped: u64,
    /// Per-thread truncation markers: `(thread, overwritten)` for every
    /// thread whose ring wrapped. A thread listed here has lost its
    /// *oldest* events — its surviving prefix starts mid-stream, so a
    /// span analyzer must treat that thread's leading partial operation
    /// as truncated rather than malformed. Threads that lost nothing
    /// are not listed.
    pub truncated: Vec<(u32, u64)>,
}

/// One harvester pass over every ring: the events drained since the
/// previous pass, plus how many were overwritten before this pass could
/// read them (see [`harvest`]).
#[derive(Debug, Clone, Default)]
pub struct Harvested {
    /// The drained events, sorted by [`TraceEvent::seq`].
    pub events: Vec<TraceEvent>,
    /// Events lost to ring wrap-around between passes: they were
    /// overwritten (or observed mid-overwrite) before this pass read
    /// them. A harvester that keeps pace reports 0 here on every pass.
    pub lost: u64,
    /// Per-thread loss markers, `(thread, lost)`, for the threads that
    /// contributed to [`Harvested::lost`] — a streaming span analyzer
    /// desynchronises exactly those threads' state machines.
    pub truncated: Vec<(u32, u64)>,
}

impl Trace {
    /// True when nothing was recorded (always true without the
    /// `trace` feature).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.dropped == 0
    }

    /// Event counts grouped by [`Event::label`], descending by count
    /// (ties broken alphabetically for stable output).
    #[must_use]
    pub fn counts(&self) -> Vec<(String, u64)> {
        let mut map: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
        for e in &self.events {
            *map.entry(e.event.label()).or_insert(0) += 1;
        }
        let mut rows: Vec<(String, u64)> = map.into_iter().collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        rows
    }

    /// The number of distinct recording threads seen.
    #[must_use]
    pub fn thread_count(&self) -> usize {
        let mut threads: Vec<u32> = self.events.iter().map(|e| e.thread).collect();
        threads.sort_unstable();
        threads.dedup();
        threads.len()
    }
}

/// Events kept per thread before the ring wraps (power of two).
pub(crate) const RING_CAPACITY: usize = 1 << 12;

/// The global logical clock: one relaxed `fetch_add` per event.
static SEQ: AtomicU64 = AtomicU64::new(0);

/// Wall-clock origin, fixed at the first recorded event.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Every thread's ring, in registration order.
static RINGS: Mutex<Vec<Arc<Ring>>> = Mutex::new(Vec::new());

/// Interned site names (`&'static str` payloads), id = index.
static SITES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

struct Slot {
    seq: AtomicU64,
    wall_ns: AtomicU64,
    /// `code << 32 | arg`.
    word: AtomicU64,
}

struct Ring {
    thread: u32,
    /// Events ever written (monotonic; slot = head % capacity).
    head: AtomicU64,
    /// Events logically discarded by [`clear`].
    floor: AtomicU64,
    slots: Box<[Slot]>,
}

impl Ring {
    fn push(&self, code: u8, arg: u32) {
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let wall_ns = EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64;
        let head = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(head as usize) & (RING_CAPACITY - 1)];
        slot.seq.store(seq, Ordering::Relaxed);
        slot.wall_ns.store(wall_ns, Ordering::Relaxed);
        slot.word
            .store(u64::from(code) << 32 | u64::from(arg), Ordering::Relaxed);
        // Publish: collectors acquire-read the head, so the slot
        // stores above are visible for every index below it.
        self.head.store(head + 1, Ordering::Release);
    }
}

thread_local! {
    static MY_RING: OnceCell<Arc<Ring>> = const { OnceCell::new() };
    /// `(site pointer, interned id)` pairs already resolved by
    /// this thread — the global table is locked at most once per
    /// distinct site per thread.
    static SITE_CACHE: RefCell<Vec<(usize, u32)>> = const { RefCell::new(Vec::new()) };
    static LAST_PATH: Cell<Option<Path>> = const { Cell::new(None) };
}

fn register_ring() -> Arc<Ring> {
    let mut rings = RINGS.lock().unwrap_or_else(|e| e.into_inner());
    let ring = Arc::new(Ring {
        thread: rings.len() as u32,
        head: AtomicU64::new(0),
        floor: AtomicU64::new(0),
        slots: (0..RING_CAPACITY)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                wall_ns: AtomicU64::new(0),
                word: AtomicU64::new(0),
            })
            .collect(),
    });
    rings.push(Arc::clone(&ring));
    ring
}

fn site_id(site: &'static str) -> u32 {
    SITE_CACHE.with(|cache| {
        let key = site.as_ptr() as usize;
        let mut cache = cache.borrow_mut();
        if let Some(&(_, id)) = cache.iter().find(|(k, _)| *k == key) {
            return id;
        }
        let mut sites = SITES.lock().unwrap_or_else(|e| e.into_inner());
        let id = match sites.iter().position(|s| *s == site) {
            Some(i) => i as u32,
            None => {
                sites.push(site);
                (sites.len() - 1) as u32
            }
        };
        drop(sites);
        cache.push((key, id));
        id
    })
}

fn site_name(id: u32) -> &'static str {
    SITES
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get(id as usize)
        .copied()
        .unwrap_or("?")
}

fn encode(event: Event) -> (u8, u32) {
    match event {
        Event::FastAttempt => (0, 0),
        Event::FastAbort => (1, 0),
        Event::FastSuccess => (2, 0),
        Event::CasFail(s) => (3, site_id(s)),
        Event::ContentionRaise => (4, 0),
        Event::ContentionClear => (5, 0),
        Event::LockAcquire(p) => (6, p),
        Event::LockRelease(p) => (7, p),
        Event::TurnAdvance(p) => (9, p),
        Event::HelpingWrite(s) => (10, site_id(s)),
        Event::FailPoint(s) => (11, site_id(s)),
        Event::LockedComplete => (12, 0),
        Event::SlowTimeout => (13, 0),
        Event::SlowPoisoned => (14, 0),
        Event::RecordPost => (15, 0),
        Event::RecordHandoff(v) => (16, v),
        Event::CombineBatch(v) => (17, v),
        Event::CombinedComplete => (18, 0),
        Event::RecordPoisoned => (19, 0),
        Event::FlagRaise(p) => (20, p),
        Event::ElimAttempt => (21, 0),
        Event::EliminatedComplete => (22, 0),
        Event::SuspectRaised(p) => (23, p),
        Event::RecordReclaimed(p) => (24, p),
        Event::LockSucceeded(p) => (25, p),
        Event::HelpedByCombiner(t) => (26, t),
        Event::HelpedByPartner(t) => (27, t),
        Event::HandoffFrom(t) => (28, t),
        Event::CustodyFrom(t) => (29, t),
    }
}

pub(crate) fn decode(code: u8, arg: u32) -> Option<Event> {
    Some(match code {
        0 => Event::FastAttempt,
        1 => Event::FastAbort,
        2 => Event::FastSuccess,
        3 => Event::CasFail(site_name(arg)),
        4 => Event::ContentionRaise,
        5 => Event::ContentionClear,
        6 => Event::LockAcquire(arg),
        7 => Event::LockRelease(arg),
        9 => Event::TurnAdvance(arg),
        10 => Event::HelpingWrite(site_name(arg)),
        11 => Event::FailPoint(site_name(arg)),
        12 => Event::LockedComplete,
        13 => Event::SlowTimeout,
        14 => Event::SlowPoisoned,
        15 => Event::RecordPost,
        16 => Event::RecordHandoff(arg),
        17 => Event::CombineBatch(arg),
        18 => Event::CombinedComplete,
        19 => Event::RecordPoisoned,
        20 => Event::FlagRaise(arg),
        21 => Event::ElimAttempt,
        22 => Event::EliminatedComplete,
        23 => Event::SuspectRaised(arg),
        24 => Event::RecordReclaimed(arg),
        25 => Event::LockSucceeded(arg),
        26 => Event::HelpedByCombiner(arg),
        27 => Event::HelpedByPartner(arg),
        28 => Event::HandoffFrom(arg),
        29 => Event::CustodyFrom(arg),
        _ => return None,
    })
}

/// Appends `event` to the calling thread's ring buffer, whatever the
/// mode. Instrumentation sites call the [`crate::probe!`] macro
/// instead, which records only while the mode is armed.
pub fn record(event: Event) {
    match event {
        Event::FastSuccess => LAST_PATH.with(|p| p.set(Some(Path::Fast))),
        Event::EliminatedComplete => LAST_PATH.with(|p| p.set(Some(Path::Eliminated))),
        Event::LockedComplete | Event::CombinedComplete => {
            LAST_PATH.with(|p| p.set(Some(Path::Locked)));
        }
        Event::SlowTimeout | Event::SlowPoisoned => LAST_PATH.with(|p| p.set(None)),
        _ => {}
    }
    let (code, arg) = encode(event);
    MY_RING.with(|cell| cell.get_or_init(register_ring).push(code, arg));
}

/// The path taken by the calling thread's most recently **completed**
/// strong operation: `Some(Fast)` after a fast-path success,
/// `Some(Eliminated)` after a rendezvous completion,
/// `Some(Locked)` after an under-lock completion, `None` initially and
/// after a timeout or survived panic (no completion took place).
///
/// Only operations that ran while the mode was armed report a path.
#[must_use]
pub fn last_path() -> Option<Path> {
    LAST_PATH.with(Cell::get)
}

/// Forgets the calling thread's last completion path, so that
/// [`last_path`] after an operation reports that operation's path or
/// `None` (a quiet operation records none).
pub(crate) fn forget_last_path() {
    LAST_PATH.with(|p| p.set(None));
}

/// The calling thread's dense trace thread id — the same id every
/// [`TraceEvent`] recorded by this thread carries. Registering a ring
/// on first use makes the id stable for the thread's lifetime, so the
/// causal stamp sites can write it into shared (uncounted) cells for a
/// helped thread to read back. Returns [`NO_TID`] while the mode is
/// quiet (no ring is registered for a thread that records nothing;
/// stamps then mark the edge unattributable, and readers skip the
/// probe).
#[must_use]
pub fn thread_id() -> u32 {
    if !cso_memory::mode::armed() {
        return NO_TID;
    }
    MY_RING.with(|cell| cell.get_or_init(register_ring).thread)
}

/// Keeps probes recording while it lives (`Recording::start()`): a
/// reader of the rings — a test that collects, a capture — arms the
/// run-time mode with one of these, as the profiler's harvester does.
pub use cso_memory::mode::Recording;

/// One ring's readable window: `(head, oldest)` where `oldest` is
/// the first index still in the ring and above the floor. Indices
/// in `floor..oldest` were overwritten unread — that gap *is* the
/// ring's drop count, so every consumer below derives loss from
/// this one helper and the global and per-thread counts agree by
/// construction.
fn ring_window(ring: &Ring) -> (u64, u64, u64) {
    let head = ring.head.load(Ordering::Acquire);
    let floor = ring.floor.load(Ordering::Acquire);
    let oldest = head.saturating_sub(RING_CAPACITY as u64).max(floor);
    (head, oldest, oldest - floor)
}

fn read_range(ring: &Ring, from: u64, to: u64, events: &mut Vec<TraceEvent>) {
    for i in from..to {
        let slot = &ring.slots[(i as usize) & (RING_CAPACITY - 1)];
        let word = slot.word.load(Ordering::Relaxed);
        let code = (word >> 32) as u8;
        let arg = word as u32;
        if let Some(event) = decode(code, arg) {
            events.push(TraceEvent {
                thread: ring.thread,
                seq: slot.seq.load(Ordering::Relaxed),
                wall_ns: slot.wall_ns.load(Ordering::Relaxed),
                event,
            });
        }
    }
}

/// Merges every thread's ring into one [`Trace`] ordered by logical
/// timestamp. Cheap relative to tracing itself; collect at quiescent
/// points for exact results (see the module docs).
#[must_use]
pub fn collect() -> Trace {
    let rings = RINGS.lock().unwrap_or_else(|e| e.into_inner());
    let mut events = Vec::new();
    let mut truncated = Vec::new();
    for ring in rings.iter() {
        let (head, oldest, lost) = ring_window(ring);
        if lost > 0 {
            truncated.push((ring.thread, lost));
        }
        read_range(ring, oldest, head, &mut events);
    }
    events.sort_by_key(|e| e.seq);
    // The global count is the per-thread markers' sum *by
    // construction* — there is no second accounting path to drift.
    let dropped = truncated.iter().map(|(_, d)| d).sum();
    Trace {
        events,
        dropped,
        truncated,
    }
}

/// Events overwritten by ring wrap-around so far, summed over every
/// thread's ring (relative to the last [`clear`] / [`harvest`]). This
/// is the live counterpart of [`Trace::dropped`]: a metrics registry
/// can poll it as a gauge to surface trace loss without collecting.
#[must_use]
pub fn dropped() -> u64 {
    let rings = RINGS.lock().unwrap_or_else(|e| e.into_inner());
    rings.iter().map(|ring| ring_window(ring).2).sum()
}

/// Events ever recorded into any thread's ring: a monotonic counter
/// unaffected by [`clear`] or [`harvest`]. The losslessness check is
/// `aggregated == emitted() delta` over a harvested window.
#[must_use]
pub fn emitted() -> u64 {
    let rings = RINGS.lock().unwrap_or_else(|e| e.into_inner());
    rings
        .iter()
        .map(|ring| ring.head.load(Ordering::Acquire))
        .sum()
}

/// Drains every ring since the previous harvest (or [`clear`]) and
/// advances the consumed watermark, so events a harvester has already
/// read are **not** counted as drops when the ring later overwrites
/// them. A background thread calling this faster than any ring wraps
/// makes long traces lossless: [`dropped`] stays 0 and the union of
/// all [`Harvested::events`] is the complete event stream.
///
/// Harvest passes are serialized against each other and against
/// [`collect`] / [`clear`] (single consumer per ring). A [`collect`]
/// *after* a harvest returns only the not-yet-harvested tail — the
/// harvester owns everything before its watermark.
///
/// # Order across passes
///
/// A pass reads the logical clock once, before it scans, and takes
/// from every ring only the events stamped below that value; younger
/// ones stay in their ring for the next pass. Successive batches
/// therefore concatenate into one stream in [`TraceEvent::seq`] order,
/// which a streaming consumer can fold in arrival order with no
/// reorder buffer. The skew that remains: a writer preempted between
/// drawing its timestamp and publishing the slot is invisible to the
/// pass that cut above it, so its event arrives one pass late — at
/// most one event per writing thread per pass.
#[must_use]
pub fn harvest() -> Harvested {
    harvest_with(|_| {})
}

/// [`harvest`], calling `after_ring` with each ring's thread id once
/// that ring has been read — the seam that lets a test record
/// events *during* a scan, on rings of its choosing, without racing
/// a real one.
fn harvest_with(mut after_ring: impl FnMut(u32)) -> Harvested {
    // The RINGS mutex serializes harvest against collect/clear and
    // against concurrent harvesters: each ring has exactly one
    // consumer at a time, so advancing the floor below is safe.
    let rings = RINGS.lock().unwrap_or_else(|e| e.into_inner());
    // The rings are read one after another while writers keep
    // recording, so without a common horizon the ring read last
    // would hand over events younger than ones the ring read first
    // recorded during the scan — and those would arrive a whole
    // pass later, behind their successors. Cut every ring at the
    // clock value read here: this pass takes timestamps below it,
    // the rest wait for the next. What can still arrive late is an
    // event whose writer drew its timestamp before the cut but had
    // not published it when its ring was read — at most one per
    // writer per pass (see [`harvest`]). Relaxed: the clock
    // is a ticket dispenser, nothing is published through it.
    let cut = SEQ.load(Ordering::Relaxed);
    let mut events = Vec::new();
    let mut lost = 0u64;
    let mut truncated = Vec::new();
    for ring in rings.iter() {
        let (head, oldest, gap) = ring_window(ring);
        let mut ring_lost = gap;
        let mut batch: Vec<(u64, TraceEvent)> = Vec::with_capacity((head - oldest) as usize);
        for i in oldest..head {
            let slot = &ring.slots[(i as usize) & (RING_CAPACITY - 1)];
            let word = slot.word.load(Ordering::Relaxed);
            if let Some(event) = decode((word >> 32) as u8, word as u32) {
                batch.push((
                    i,
                    TraceEvent {
                        thread: ring.thread,
                        seq: slot.seq.load(Ordering::Relaxed),
                        wall_ns: slot.wall_ns.load(Ordering::Relaxed),
                        event,
                    },
                ));
            }
        }
        // Writers kept pushing while we read. Any index the head
        // has since come within one capacity of was potentially
        // mid-overwrite during the read above — discard those reads
        // and count them lost rather than hand back torn slots.
        // The +1: a write publishes its head increment *after* the
        // slot stores, so when `head_now` reads `j` the writer may
        // still be scribbling index `j`'s slot — which index
        // `j - capacity` shares. Keeping that boundary index can
        // ingest the new lap's word under the old index and then
        // read the same word again next pass (a duplicate that
        // breaks `ingested + lost == emitted`).
        let head_now = ring.head.load(Ordering::Acquire);
        let safe_from = (head_now + 1).saturating_sub(RING_CAPACITY as u64);
        if safe_from > oldest {
            ring_lost += safe_from.min(head) - oldest;
            batch.retain(|(i, _)| *i >= safe_from);
        }
        // A ring's timestamps ascend with its indices, so the cut
        // is a prefix: everything from the first young event on
        // stays in the ring, unconsumed, for the next pass.
        let consumed = match batch.iter().position(|(_, e)| e.seq >= cut) {
            Some(young) => {
                let index = batch[young].0;
                batch.truncate(young);
                index
            }
            None => head,
        };
        events.extend(batch.into_iter().map(|(_, e)| e));
        if ring_lost > 0 {
            truncated.push((ring.thread, ring_lost));
        }
        lost += ring_lost;
        // Everything below `consumed` is now the harvester's:
        // overwriting it no longer counts as a drop. fetch_max
        // keeps a concurrent clear()'s higher floor intact.
        ring.floor.fetch_max(consumed, Ordering::AcqRel);
        after_ring(ring.thread);
    }
    events.sort_by_key(|e| e.seq);
    Harvested {
        events,
        lost,
        truncated,
    }
}

/// Logically discards everything recorded so far (subsequent
/// [`collect`] calls return only newer events, and the dropped counter
/// restarts).
pub fn clear() {
    let rings = RINGS.lock().unwrap_or_else(|e| e.into_inner());
    for ring in rings.iter() {
        let head = ring.head.load(Ordering::Acquire);
        ring.floor.store(head, Ordering::Release);
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_labels_and_payloads() {
        assert_eq!(Event::FastSuccess.label(), "fast-success");
        assert_eq!(Event::CasFail("stack::top").label(), "cas-fail@stack::top");
        assert_eq!(Event::CasFail("stack::top").site(), Some("stack::top"));
        assert_eq!(Event::LockAcquire(3).proc(), Some(3));
        assert_eq!(Event::LockAcquire(3).to_string(), "lock-acquire(3)");
        assert_eq!(
            Event::FailPoint("cs::locked").to_string(),
            "fail-point@cs::locked"
        );
        assert_eq!(Event::CombineBatch(5).value(), Some(5));
        assert_eq!(Event::RecordHandoff(120).value(), Some(120));
        assert_eq!(Event::CombineBatch(5).label(), "combine-batch");
        assert_eq!(Event::RecordPost.value(), None);
        assert_eq!(Event::ElimAttempt.label(), "elim-attempt");
        assert_eq!(Event::EliminatedComplete.label(), "eliminated-complete");
        assert_eq!(Event::SuspectRaised(2).proc(), Some(2));
        assert_eq!(Event::SuspectRaised(2).to_string(), "suspect-raised(2)");
        assert_eq!(Event::RecordReclaimed(1).label(), "record-reclaimed");
        assert_eq!(Event::LockSucceeded(0).proc(), Some(0));
        assert_eq!(Event::LockSucceeded(0).to_string(), "lock-succeeded(0)");
    }

    #[test]
    fn causal_events_expose_their_edges() {
        assert_eq!(Event::HelpedByCombiner(3).label(), "helped-by-combiner");
        assert_eq!(Event::HelpedByPartner(1).name(), "helped-by-partner");
        assert_eq!(Event::HandoffFrom(2).name(), "handoff-from");
        assert_eq!(Event::CustodyFrom(0).name(), "custody-from");
        // The helper tid rides in the measurement payload (so it
        // survives the TSV `value` column round trip).
        assert_eq!(Event::HelpedByCombiner(3).value(), Some(3));
        assert_eq!(Event::HandoffFrom(2).value(), Some(2));
        assert_eq!(Event::HelpedByCombiner(3).proc(), None);
        assert_eq!(
            Event::HelpedByCombiner(3).help(),
            Some((HelpKind::Combiner, 3))
        );
        assert_eq!(
            Event::HelpedByPartner(1).help(),
            Some((HelpKind::Partner, 1))
        );
        assert_eq!(Event::HandoffFrom(2).help(), Some((HelpKind::Handoff, 2)));
        assert_eq!(Event::CustodyFrom(0).help(), Some((HelpKind::Custody, 0)));
        // NO_TID marks an unattributable edge: kept as an annotation,
        // excluded from the graph.
        assert_eq!(Event::HandoffFrom(NO_TID).help(), None);
        assert_eq!(Event::FastSuccess.help(), None);
        for kind in HelpKind::ALL {
            assert!(!kind.name().is_empty());
        }
        assert_eq!(HelpKind::Combiner.to_string(), "combiner");
    }

    #[test]
    fn trace_counts_group_and_sort() {
        let mk = |event, seq| TraceEvent {
            thread: 0,
            seq,
            wall_ns: seq,
            event,
        };
        let trace = Trace {
            events: vec![
                mk(Event::FastSuccess, 0),
                mk(Event::FastSuccess, 1),
                mk(Event::CasFail("top"), 2),
            ],
            dropped: 0,
            truncated: Vec::new(),
        };
        assert_eq!(
            trace.counts(),
            vec![
                ("fast-success".to_owned(), 2),
                ("cas-fail@top".to_owned(), 1)
            ]
        );
        assert_eq!(trace.thread_count(), 1);
        assert!(!trace.is_empty());
    }

    #[test]
    fn a_quiet_site_records_nothing_until_a_recording_arms_it() {
        let _serial = crate::tests::serial();
        let before = emitted();
        crate::probe!(Event::FastSuccess);
        assert_eq!(emitted(), before, "quiet: the site records nothing");
        assert_eq!(thread_id(), NO_TID, "a quiet thread has no trace id");
        let recording = Recording::start();
        crate::probe!(Event::FastSuccess);
        assert_eq!(emitted(), before + 1);
        assert_eq!(last_path(), Some(Path::Fast));
        assert_ne!(thread_id(), NO_TID);
        drop(recording);
        crate::probe!(Event::FastSuccess);
        assert_eq!(emitted(), before + 1, "quiet again once it drops");
        clear();
    }

    mod live {
        use super::super::*;

        /// The rings are process-global; live tests serialize, and
        /// record while the mode is armed (thread ids exist only then).
        fn serial() -> (std::sync::MutexGuard<'static, ()>, Recording) {
            (crate::tests::serial(), Recording::start())
        }

        #[test]
        fn record_and_collect_round_trip() {
            let _serial = serial();
            clear();
            record(Event::FastAttempt);
            record(Event::CasFail("probe-test::site"));
            record(Event::FastSuccess);
            let trace = collect();
            let ours: Vec<&TraceEvent> = trace
                .events
                .iter()
                .filter(|e| {
                    matches!(
                        e.event,
                        Event::FastAttempt
                            | Event::CasFail("probe-test::site")
                            | Event::FastSuccess
                    )
                })
                .collect();
            assert!(ours.len() >= 3, "got {} events", ours.len());
            // Logical timestamps are strictly increasing in the merge.
            assert!(trace.events.windows(2).all(|w| w[0].seq < w[1].seq));
            clear();
        }

        #[test]
        fn thread_id_is_stable_and_matches_recorded_events() {
            let _serial = serial();
            clear();
            let me = thread_id();
            assert_eq!(me, thread_id(), "id is stable across calls");
            assert_ne!(me, NO_TID);
            record(Event::HandoffFrom(me));
            let trace = collect();
            let ev = trace
                .events
                .iter()
                .find(|e| e.event == Event::HandoffFrom(me))
                .expect("causal event round-trips through the ring");
            assert_eq!(ev.thread, me, "thread_id matches the ring's id");
            let other = std::thread::spawn(thread_id).join().unwrap();
            assert_ne!(other, me, "each thread gets a distinct id");
            clear();
        }

        #[test]
        fn last_path_tracks_completions() {
            let _serial = serial();
            record(Event::FastSuccess);
            assert_eq!(last_path(), Some(Path::Fast));
            record(Event::EliminatedComplete);
            assert_eq!(last_path(), Some(Path::Eliminated));
            record(Event::LockedComplete);
            assert_eq!(last_path(), Some(Path::Locked));
            record(Event::SlowTimeout);
            assert_eq!(last_path(), None);
            clear();
        }

        #[test]
        fn wraparound_reports_dropped() {
            let _serial = serial();
            clear();
            let n = super::super::RING_CAPACITY as u64 + 100;
            for _ in 0..n {
                record(Event::FastAttempt);
            }
            let trace = collect();
            assert!(trace.dropped >= 100, "dropped {}", trace.dropped);
            assert_eq!(
                dropped(),
                trace.dropped,
                "live drop gauge matches the collected count"
            );
            clear();
            assert_eq!(collect().dropped, 0, "clear restarts the drop counter");
            assert_eq!(dropped(), 0);
        }

        #[test]
        fn wraparound_marks_truncated_thread_without_reordering() {
            let _serial = serial();
            clear();
            // Overflow this thread's ring so its oldest events are
            // overwritten; a second thread stays under capacity.
            let n = super::super::RING_CAPACITY as u64 + 64;
            for _ in 0..n {
                record(Event::FastAttempt);
            }
            std::thread::spawn(|| record(Event::FastSuccess))
                .join()
                .unwrap();
            let trace = collect();
            // The wrapped thread must appear as a truncation marker with
            // its overwritten count — never a silent gap.
            let wrapped = trace
                .events
                .iter()
                .find(|e| e.event == Event::FastAttempt)
                .expect("surviving events present")
                .thread;
            let marker = trace.truncated.iter().find(|(t, _)| *t == wrapped);
            assert!(marker.is_some(), "wrapped thread gets a truncation marker");
            assert!(marker.unwrap().1 >= 64, "marker carries the drop count");
            assert_eq!(
                trace.truncated.iter().map(|(_, d)| d).sum::<u64>(),
                trace.dropped,
                "per-thread markers sum to the total"
            );
            // The other thread lost nothing and must not be marked.
            let other = trace
                .events
                .iter()
                .find(|e| e.event == Event::FastSuccess)
                .expect("second thread's event survives")
                .thread;
            assert!(trace.truncated.iter().all(|(t, _)| *t != other));
            // Survivors stay in logical order: truncation never reorders.
            assert!(trace.events.windows(2).all(|w| w[0].seq < w[1].seq));
            clear();
        }

        #[test]
        fn harvest_is_lossless_across_many_wraps() {
            let _serial = serial();
            clear();
            let emitted_before = emitted();
            let chunk = super::super::RING_CAPACITY as u64 / 2;
            let rounds = 24; // 12x the ring capacity in total
            let mut harvested = 0u64;
            let mut lost = 0u64;
            for _ in 0..rounds {
                for _ in 0..chunk {
                    record(Event::FastAttempt);
                }
                let batch = harvest();
                harvested += batch.events.len() as u64;
                lost += batch.lost;
            }
            let total = emitted() - emitted_before;
            assert_eq!(total, chunk * rounds);
            assert_eq!(lost, 0, "a keeping-pace harvester loses nothing");
            assert_eq!(harvested, total, "every emitted event was drained");
            assert_eq!(dropped(), 0, "harvested overwrites are not drops");
            assert_eq!(collect().dropped, 0);
            clear();
        }

        #[test]
        fn unharvested_overflow_still_counts_as_lost() {
            let _serial = serial();
            clear();
            let n = super::super::RING_CAPACITY as u64 + 200;
            for _ in 0..n {
                record(Event::FastAttempt);
            }
            let batch = harvest();
            assert!(batch.lost >= 200, "lost {}", batch.lost);
            assert_eq!(batch.events.len() as u64 + batch.lost, n);
            // The harvest consumed everything: the gauge restarts.
            assert_eq!(dropped(), 0);
            clear();
        }

        #[test]
        fn collect_after_harvest_returns_only_the_tail() {
            let _serial = serial();
            clear();
            record(Event::ContentionRaise);
            let batch = harvest();
            assert!(batch
                .events
                .iter()
                .any(|e| e.event == Event::ContentionRaise));
            record(Event::ContentionClear);
            let trace = collect();
            assert!(
                !trace
                    .events
                    .iter()
                    .any(|e| e.event == Event::ContentionRaise),
                "harvested events are owned by the harvester"
            );
            assert!(trace
                .events
                .iter()
                .any(|e| e.event == Event::ContentionClear));
            clear();
        }

        #[test]
        fn dropped_is_the_sum_of_per_thread_markers_across_clear() {
            let _serial = serial();
            clear();
            // Wrap this thread's ring, then add a second non-wrapped
            // ring: the global gauge must equal the marker sum.
            let n = super::super::RING_CAPACITY as u64 + 500;
            for _ in 0..n {
                record(Event::FastAttempt);
            }
            std::thread::spawn(|| record(Event::FastSuccess))
                .join()
                .unwrap();
            let trace = collect();
            let marker_sum: u64 = trace.truncated.iter().map(|(_, d)| d).sum();
            assert_eq!(trace.dropped, marker_sum);
            assert_eq!(dropped(), marker_sum, "live gauge agrees with markers");
            // clear() resets both accountings together — they cannot
            // disagree afterwards because both derive from the floor.
            clear();
            assert_eq!(dropped(), 0);
            let trace = collect();
            assert_eq!(trace.dropped, 0);
            assert!(trace.truncated.is_empty());
            record(Event::FastAttempt);
            let trace = collect();
            assert_eq!(trace.dropped, 0);
            assert!(trace.truncated.is_empty());
            clear();
        }

        #[test]
        fn events_recorded_during_a_scan_wait_for_the_next_pass_in_clock_order() {
            use std::sync::mpsc::channel;
            let _serial = serial();
            clear();
            // This thread's ring registers first, so every pass reads
            // it before the second writer's.
            let me = thread_id();
            record(Event::FastAttempt);
            let (go, gone) = (channel::<()>(), channel::<()>());
            let other = std::thread::spawn(move || {
                record(Event::ContentionRaise); // registers the later ring
                gone.0.send(()).unwrap();
                go.1.recv().unwrap();
                record(Event::LockAcquire(1));
                gone.0.send(()).unwrap();
            });
            gone.1.recv().unwrap();
            // Mid-scan, after this thread's ring has been read: an event
            // here, then a younger one on the ring still to be read.
            let first = super::super::harvest_with(|ring| {
                if ring == me {
                    record(Event::FlagRaise(0));
                    go.0.send(()).unwrap();
                    gone.1.recv().unwrap();
                }
            });
            other.join().unwrap();
            let second = harvest();
            let straddlers = |batch: &Harvested| -> Vec<Event> {
                let events = batch.events.iter().map(|e| e.event);
                events
                    .filter(|e| matches!(e, Event::FlagRaise(0) | Event::LockAcquire(1)))
                    .collect()
            };
            // Without the cut the first pass hands over the younger
            // `lock-acquire` and the older `flag-raise` trails it by a
            // pass: the flag looks raised after the acquire it preceded.
            assert_eq!(straddlers(&first), vec![]);
            assert_eq!(
                straddlers(&second),
                vec![Event::FlagRaise(0), Event::LockAcquire(1)]
            );
            assert_eq!(first.lost + second.lost, 0);
            clear();
        }

        #[test]
        fn every_ring_code_survives_the_event_log_codec() {
            // `encode` is an exhaustive match, so the ring's codes are
            // the one enumeration of `Event` a new variant cannot skip;
            // walk them to pin the name-keyed parser to it. Tag 8 (a
            // retired variant) stays unassigned, so every tag is tried.
            let mut walked = 0;
            for code in 0..=u8::MAX {
                let Some(event) = super::super::decode(code, 7) else {
                    continue;
                };
                let back = crate::export::parse_event(
                    event.name(),
                    event.site(),
                    event.proc(),
                    event.value(),
                );
                assert_eq!(back, Some(event), "code {code}");
                walked += 1;
            }
            assert_eq!(super::super::decode(8, 7), None);
            assert!(walked >= 29, "walked {walked} codes");
        }

        #[test]
        fn threads_get_distinct_ids() {
            let _serial = serial();
            clear();
            record(Event::TurnAdvance(1));
            std::thread::spawn(|| record(Event::TurnAdvance(2)))
                .join()
                .unwrap();
            let trace = collect();
            let turn_threads: Vec<u32> = trace
                .events
                .iter()
                .filter(|e| matches!(e.event, Event::TurnAdvance(_)))
                .map(|e| e.thread)
                .collect();
            assert!(turn_threads.len() >= 2);
            let mut distinct = turn_threads.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert!(distinct.len() >= 2, "each thread gets its own ring");
            clear();
        }
    }
}
