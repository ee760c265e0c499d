//! Per-operation span reconstruction.
//!
//! Each thread's event stream is replayed through a state machine that
//! follows the instrumented code paths of the Figure 3 transformation
//! (see `cso-core::contention_sensitive` for the emission sites):
//!
//! * **fast**: `fast-attempt` → `fast-success`; the escalation
//!   ladder's contention-management retries repeat `fast-attempt` →
//!   `fast-abort` inside the same span;
//! * **eliminated**: [`fast-attempt` → `fast-abort` →] `elim-attempt`
//!   → `eliminated-complete` (a rendezvous with an inverse operation;
//!   a failed attempt instead escalates into the locked/combined
//!   choreography below);
//! * **locked**: [`fast-abort` →] [`flag-raise` →] `lock-acquire` →
//!   `locked-complete` → `lock-release` (completion is probed *before*
//!   the release so observers never see a released lock with an
//!   uncounted operation);
//! * **combined** (poster served by a combiner): `record-post` →
//!   [`record-poisoned` → `record-post` →] `record-handoff` →
//!   `combined-complete`;
//! * **combiner** (poster that won the lock): `record-post` →
//!   `lock-acquire` → `combine-batch` → `locked-complete` →
//!   `lock-release`; an acquire that loses the retract race releases
//!   immediately and falls back to waiting (`lock-acquire` →
//!   `lock-release` with nothing in between); a poster that *seized*
//!   the lock from a dead combiner first poisons the records the
//!   corpse had claimed (`record-poisoned` under the lock, any number
//!   of times) and then combines as usual;
//! * **timeout**: `slow-timeout` either before any acquire (the
//!   deadline passed in the wait queue) or *after* `lock-release`
//!   (the weak op never succeeded while the lock was held).
//!
//! The machine reads the typed [`Event`] the recorder wrote — live
//! from a harvested batch, or parsed back from an event log by
//! `cso_trace::export::parse_event_log` — and [`ThreadReplayer::feed`]
//! sorts every variant into "annotates" or "drives the protocol" with
//! an exhaustive `match`: a probe added to `cso-trace` does not compile
//! here until someone has said which it is. Events that only annotate
//! a path (`contention-raise/clear`, `turn-advance`, `cas-fail`,
//! `fail-point`, `helping-write`, the recovery markers) never delimit
//! spans. A stream that violates the protocol yields a
//! [`Malformed`] record — except where the thread is known to have
//! lost events, where orphaned events are classified as loss instead.
//!
//! **Causal annotations** (`helped-by-combiner`, `helped-by-partner`,
//! `handoff-from`, `custody-from`) carry the trace-thread id of the
//! peer that completed, paired with, or preceded the in-flight
//! operation; the replayer attaches the edge to the span it completes
//! inside ([`Span::helped_by`]), turning per-thread streams into a
//! cross-thread helped-by graph.

use cso_trace::probe::{Event, HelpKind, TraceEvent};

/// Which code path an operation completed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Path {
    /// Lines 01–03: the weak operation succeeded without the lock.
    Fast,
    /// Completed by rendezvous with an inverse operation (the
    /// escalation ladder's elimination rung).
    Eliminated,
    /// Lines 04–13: applied under the (§4.4-boosted) lock.
    Locked,
    /// Posted to the publication list and served by another process.
    Combined,
    /// Posted, won the lock, and served a batch as the combiner.
    Combiner,
}

impl Path {
    /// Every path, in the stable order reports list them.
    pub const ALL: [Path; 5] = [
        Path::Fast,
        Path::Eliminated,
        Path::Locked,
        Path::Combined,
        Path::Combiner,
    ];

    /// Stable lower-case label for reports and collapsed stacks.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Path::Fast => "fast",
            Path::Eliminated => "eliminated",
            Path::Locked => "locked",
            Path::Combined => "combined",
            Path::Combiner => "combiner",
        }
    }
}

/// How an operation span ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The operation completed and returned a response.
    Completed,
    /// A deadline-bounded operation gave up (`slow-timeout`).
    TimedOut,
    /// The critical section unwound (`slow-poisoned`).
    Poisoned,
}

/// One reconstructed operation.
#[derive(Debug, Clone)]
pub struct Span {
    /// Recording thread.
    pub thread: u32,
    /// Process identity, when the slow path revealed it.
    pub proc_id: Option<u32>,
    /// Completion path.
    pub path: Path,
    /// How the span ended.
    pub outcome: Outcome,
    /// Wall-clock nanoseconds of the first event.
    pub start_ns: u64,
    /// Wall-clock nanoseconds of the last event.
    pub end_ns: u64,
    /// `flag-raise` → `lock-acquire` wait, when both were observed.
    pub wait_ns: Option<u64>,
    /// `lock-acquire` → `lock-release` tenure, when both were observed.
    pub hold_ns: Option<u64>,
    /// `combine-batch` payload (requests served, self included).
    pub batch: Option<u64>,
    /// The operation was vetoed off the fast path first.
    pub aborted_fast: bool,
    /// Times the publication record was poisoned and reposted.
    pub reposts: u64,
    /// Sequence number of the first event.
    pub start_seq: u64,
    /// Sequence number of the last event.
    pub end_seq: u64,
    /// Cross-thread causal edge: the kind of help this operation
    /// received and the trace-thread id of the helper (last annotation
    /// wins when an operation records several).
    pub helped_by: Option<(HelpKind, u32)>,
}

impl Span {
    /// Total span duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A protocol violation: an event that is illegal in the state its
/// thread was in, outside any truncation window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Malformed {
    /// Thread whose stream violated the protocol.
    pub thread: u32,
    /// Sequence number of the offending event.
    pub seq: u64,
    /// Name of the offending event.
    pub event: &'static str,
    /// The state it was illegal in.
    pub state: &'static str,
}

/// Crash-recovery annotations observed in the log: suspicions raised,
/// orphaned combining records tombstoned, and lock successions (see
/// the `cso-core` recovery subsystem). These are annotations, not span
/// boundaries — they enrich the report without ever breaking span
/// reconstruction, so a traced recovery run still reaches full
/// coverage.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryCounts {
    /// `suspect-raised` events: a process was suspected dead.
    pub suspects: u64,
    /// `record-reclaimed` events: an orphaned record was tombstoned.
    pub reclaimed: u64,
    /// `lock-succeeded` events: a waiter seized a dead holder's lock.
    pub successions: u64,
}

impl RecoveryCounts {
    /// Whether any recovery activity was observed at all.
    #[must_use]
    pub fn any(&self) -> bool {
        self.suspects + self.reclaimed + self.successions > 0
    }
}

/// In-progress span bookkeeping shared by all non-idle states.
#[derive(Debug, Clone)]
struct Pending {
    start_seq: u64,
    start_ns: u64,
    aborted_fast: bool,
    reposts: u64,
    proc_id: Option<u32>,
    flag_ns: Option<u64>,
    acquire_ns: Option<u64>,
    batch: Option<u64>,
}

impl Pending {
    fn start(e: &TraceEvent) -> Pending {
        Pending {
            start_seq: e.seq,
            start_ns: e.wall_ns,
            aborted_fast: false,
            reposts: 0,
            proc_id: e.event.proc(),
            flag_ns: None,
            acquire_ns: None,
            batch: None,
        }
    }

    /// `flag-raise(p)` seen: the wait is timed from here.
    fn flagged(mut self, e: &TraceEvent) -> Pending {
        self.flag_ns = Some(e.wall_ns);
        self.proc_id = self.proc_id.or(e.event.proc());
        self
    }

    /// `lock-acquire(p)` seen: the hold is timed from here.
    fn acquired(mut self, e: &TraceEvent) -> Pending {
        self.acquire_ns = Some(e.wall_ns);
        self.proc_id = self.proc_id.or(e.event.proc());
        self
    }

    fn finish(self, e: &TraceEvent, path: Path, outcome: Outcome) -> Span {
        Span {
            thread: e.thread,
            proc_id: self.proc_id,
            path,
            outcome,
            start_ns: self.start_ns,
            end_ns: e.wall_ns,
            wait_ns: match (self.flag_ns, self.acquire_ns) {
                (Some(f), Some(a)) => Some(a.saturating_sub(f)),
                _ => None,
            },
            hold_ns: self.acquire_ns.map(|a| {
                // For timeout-after-release spans the release stamp is
                // the previous event; end_ns is close enough that we
                // accept it rather than thread a third timestamp.
                e.wall_ns.saturating_sub(a)
            }),
            batch: self.batch,
            aborted_fast: self.aborted_fast,
            reposts: self.reposts,
            start_seq: self.start_seq,
            end_seq: e.seq,
            // Attached by the replayer when the span completes (causal
            // annotations are replayer-level state, not protocol state).
            helped_by: None,
        }
    }
}

/// The per-thread protocol state.
#[derive(Debug)]
enum State {
    /// Between operations.
    Idle,
    /// Saw `fast-attempt`, awaiting success or abort.
    FastTried(Pending),
    /// Fast path aborted; the slow path has not yet declared itself.
    SlowStart(Pending),
    /// `elim-attempt` seen; parked at the exchanger waiting for an
    /// inverse operation (or about to escalate).
    Eliminating(Pending),
    /// `flag-raise` seen; waiting for the lock.
    SlowWait(Pending),
    /// `record-post` seen; waiting to be served or to win the lock.
    Posted(Pending),
    /// Holding the lock. `done` is set by `locked-complete` /
    /// `slow-poisoned`, which are probed before the release.
    Locked {
        pending: Pending,
        from_posted: bool,
        done: Option<Outcome>,
    },
    /// Released without completing and not combining: the only legal
    /// continuation is the under-lock `slow-timeout`.
    AwaitTimeout(Pending),
}

impl State {
    fn locked(pending: Pending, from_posted: bool) -> State {
        State::Locked {
            pending,
            from_posted,
            done: None,
        }
    }
}

/// What feeding one event into a [`ThreadReplayer`] produced.
#[derive(Debug)]
pub enum Fed {
    /// The event advanced (or annotated) the in-flight operation
    /// without completing it.
    Quiet,
    /// The event completed an operation span.
    Span(Span),
    /// The event was illegal in the current state — a protocol
    /// violation. The machine has reset to idle.
    Malformed(Malformed),
    /// The event was illegal, but this stream has lost events and not
    /// resynchronised yet: it is ring wrap-around loss, not an error.
    /// The machine has reset to idle.
    Orphan,
}

/// One thread's instance of the span state machine. The fold keeps one
/// per recording thread and feeds it that thread's events in sequence
/// order, whether they come from a harvested batch or a parsed file;
/// batch boundaries are invisible to the protocol.
#[derive(Debug)]
pub struct ThreadReplayer {
    state: State,
    synced: bool,
    recovery: RecoveryCounts,
    /// Stashed causal annotation, attached to the span it completes
    /// inside; discarded when the machine resets without completing.
    helped: Option<(HelpKind, u32)>,
}

impl Default for ThreadReplayer {
    fn default() -> Self {
        ThreadReplayer::new()
    }
}

impl ThreadReplayer {
    /// A fresh machine at the head of a complete stream. For a stream
    /// whose head was overwritten, follow with
    /// [`ThreadReplayer::desync`].
    #[must_use]
    pub fn new() -> ThreadReplayer {
        ThreadReplayer {
            state: State::Idle,
            synced: true,
            recovery: RecoveryCounts::default(),
            helped: None,
        }
    }

    /// Marks the stream as having lost events just here (the head of a
    /// wrapped capture, or a harvest pass that reported loss on this
    /// thread's ring): the machine resets to idle and classifies the
    /// next illegal events as [`Fed::Orphan`] rather than
    /// [`Fed::Malformed`] until a span completes cleanly again.
    pub fn desync(&mut self) {
        self.state = State::Idle;
        self.synced = false;
        self.helped = None;
    }

    /// Whether an operation is currently in flight (a capture that
    /// ends now would report it as open, not as an error).
    #[must_use]
    pub fn is_open(&self) -> bool {
        !matches!(self.state, State::Idle)
    }

    /// Recovery annotations seen so far.
    #[must_use]
    pub fn recovery(&self) -> RecoveryCounts {
        self.recovery
    }

    /// Advances the machine by one event.
    pub fn feed(&mut self, e: &TraceEvent) -> Fed {
        // Exhaustive on purpose — no `_` arm: every variant is either
        // an annotation (never delimits a span, legal in every state)
        // or handed to the protocol below.
        match e.event {
            Event::ContentionRaise
            | Event::ContentionClear
            | Event::TurnAdvance(_)
            | Event::CasFail(_)
            | Event::FailPoint(_)
            | Event::HelpingWrite(_)
            | Event::RecordHandoff(_) => return Fed::Quiet,
            Event::SuspectRaised(_) => self.recovery.suspects += 1,
            Event::RecordReclaimed(_) => self.recovery.reclaimed += 1,
            Event::LockSucceeded(_) => self.recovery.successions += 1,
            Event::HelpedByCombiner(_)
            | Event::HelpedByPartner(_)
            | Event::HandoffFrom(_)
            | Event::CustodyFrom(_) => {
                // Last annotation wins; an unattributable one (`NO_TID`)
                // names nobody and leaves the stash alone.
                self.helped = e.event.help().or(self.helped);
            }
            Event::FastAttempt
            | Event::FastAbort
            | Event::FastSuccess
            | Event::LockAcquire(_)
            | Event::LockRelease(_)
            | Event::LockedComplete
            | Event::SlowTimeout
            | Event::SlowPoisoned
            | Event::RecordPost
            | Event::CombineBatch(_)
            | Event::CombinedComplete
            | Event::RecordPoisoned
            | Event::FlagRaise(_)
            | Event::ElimAttempt
            | Event::EliminatedComplete => return self.advance(e),
        }
        Fed::Quiet
    }

    fn advance(&mut self, e: &TraceEvent) -> Fed {
        match step(std::mem::replace(&mut self.state, State::Idle), e) {
            Ok((next, span)) => {
                self.state = next;
                match span {
                    Some(mut span) => {
                        self.synced = true;
                        span.helped_by = self.helped.take();
                        Fed::Span(span)
                    }
                    None => Fed::Quiet,
                }
            }
            Err(state) => {
                // Illegal event. Where the stream is known to have a
                // hole the start of this operation was overwritten;
                // otherwise it is a real protocol violation.
                self.helped = None;
                if self.synced {
                    Fed::Malformed(Malformed {
                        thread: e.thread,
                        seq: e.seq,
                        event: e.event.name(),
                        state,
                    })
                } else {
                    Fed::Orphan
                }
            }
        }
    }
}

/// One pure transition: the next state, plus the span the event
/// completed, if any. `Err(state_name)` means the event is illegal in
/// the current state (which is consumed; the caller resets to idle).
/// Only protocol events reach this function ([`ThreadReplayer::feed`]
/// has peeled the annotations off), so each state's `_` arm means
/// "a protocol event this state does not accept".
fn step(state: State, e: &TraceEvent) -> Result<(State, Option<Span>), &'static str> {
    let close = |span: Span| Ok((State::Idle, Some(span)));
    let next = |state: State| Ok((state, None));
    match state {
        State::Idle => match e.event {
            Event::FastAttempt => next(State::FastTried(Pending::start(e))),
            Event::FlagRaise(_) => next(State::SlowWait(Pending::start(e).flagged(e))),
            Event::RecordPost => next(State::Posted(Pending::start(e))),
            // A fast-path-less ablation can reach the elimination rung
            // without a preceding weak-op attempt.
            Event::ElimAttempt => next(State::Eliminating(Pending::start(e))),
            // The unfair ablation takes the inner lock with no flag.
            Event::LockAcquire(_) => next(State::locked(Pending::start(e).acquired(e), false)),
            _ => Err("idle"),
        },
        State::FastTried(mut p) => match e.event {
            Event::FastSuccess => close(p.finish(e, Path::Fast, Outcome::Completed)),
            Event::FastAbort => {
                p.aborted_fast = true;
                next(State::SlowStart(p))
            }
            _ => Err("fast-tried"),
        },
        State::SlowStart(p) => match e.event {
            // A contention-management retry: the ladder re-attempts the
            // weak operation (backoff-paced) within the same span.
            Event::FastAttempt => next(State::FastTried(p)),
            // The ladder's elimination rung.
            Event::ElimAttempt => next(State::Eliminating(p)),
            Event::FlagRaise(_) => next(State::SlowWait(p.flagged(e))),
            Event::RecordPost => next(State::Posted(p)),
            Event::LockAcquire(_) => next(State::locked(p.acquired(e), false)),
            // Deadline expired before the (unfair) inner lock came.
            Event::SlowTimeout => close(p.finish(e, Path::Locked, Outcome::TimedOut)),
            _ => Err("slow-start"),
        },
        State::Eliminating(p) => match e.event {
            Event::EliminatedComplete => close(p.finish(e, Path::Eliminated, Outcome::Completed)),
            // No partner committed: the operation escalates onto the
            // slow path, still within the same span.
            Event::FlagRaise(_) => next(State::SlowWait(p.flagged(e))),
            Event::RecordPost => next(State::Posted(p)),
            Event::LockAcquire(_) => next(State::locked(p.acquired(e), false)),
            // Deadline expired while parked at the exchanger.
            Event::SlowTimeout => close(p.finish(e, Path::Locked, Outcome::TimedOut)),
            _ => Err("eliminating"),
        },
        State::SlowWait(p) => match e.event {
            // A recovering lock re-raises its flag once per backoff
            // slice while it waits out a suspected-dead holder; the
            // wait stays one span, timed from the first raise.
            Event::FlagRaise(_) => next(State::SlowWait(p)),
            Event::LockAcquire(_) => next(State::locked(p.acquired(e), false)),
            // Deadline expired in the wait queue.
            Event::SlowTimeout => close(p.finish(e, Path::Locked, Outcome::TimedOut)),
            _ => Err("slow-wait"),
        },
        State::Posted(mut p) => match e.event {
            Event::CombinedComplete => close(p.finish(e, Path::Combined, Outcome::Completed)),
            // The owner reclaims its own record, poisoned by a combiner
            // that unwound (or died) before applying it…
            Event::RecordPoisoned => {
                p.reposts += 1;
                next(State::Posted(p))
            }
            // …and reposts it.
            Event::RecordPost => next(State::Posted(p)),
            Event::LockAcquire(_) => next(State::locked(p.acquired(e), true)),
            _ => Err("posted"),
        },
        State::Locked {
            mut pending,
            from_posted,
            mut done,
        } => {
            match e.event {
                Event::CombineBatch(served) => pending.batch = Some(u64::from(served)),
                Event::LockedComplete => done = Some(Outcome::Completed),
                Event::SlowPoisoned => done = Some(Outcome::Poisoned),
                // A holder that seized the lock from a dead combiner
                // poisons the records the corpse had claimed — *other*
                // processes' records, one probe each — before it serves
                // its own batch. Nothing about this span changes.
                Event::RecordPoisoned => {}
                Event::LockRelease(_) => {
                    return match done {
                        Some(outcome) => {
                            let path = match pending.batch {
                                Some(_) => Path::Combiner,
                                None => Path::Locked,
                            };
                            close(pending.finish(e, path, outcome))
                        }
                        // No completion under this tenure: a combining
                        // poster that lost the retract race bounces back
                        // to waiting; a deadline op is about to report
                        // its timeout.
                        None if from_posted => next(State::Posted(pending)),
                        None => next(State::AwaitTimeout(pending)),
                    };
                }
                _ => return Err("locked"),
            }
            next(State::Locked {
                pending,
                from_posted,
                done,
            })
        }
        State::AwaitTimeout(p) => match e.event {
            Event::SlowTimeout => close(p.finish(e, Path::Locked, Outcome::TimedOut)),
            _ => Err("await-timeout"),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn ev(seq: u64, thread: u32, wall_ns: u64, event: Event) -> TraceEvent {
        TraceEvent {
            thread,
            seq,
            wall_ns,
            event,
        }
    }

    /// What one replayer per thread made of a stream.
    #[derive(Default)]
    struct Replay {
        spans: Vec<Span>,
        malformed: Vec<Malformed>,
        orphans: usize,
        open: usize,
        recovery: RecoveryCounts,
    }

    impl Replay {
        fn on_path(&self, path: Path) -> Vec<&Span> {
            self.spans.iter().filter(|s| s.path == path).collect()
        }
    }

    /// Feeds `events` (sequence order, any threads) through one
    /// replayer per thread; the threads in `truncated` start with a
    /// hole, as a wrapped ring's survivors do.
    fn replay(truncated: &[u32], events: &[TraceEvent]) -> Replay {
        let mut machines: BTreeMap<u32, ThreadReplayer> = BTreeMap::new();
        for &thread in truncated {
            machines.entry(thread).or_default().desync();
        }
        let mut out = Replay::default();
        for e in events {
            match machines.entry(e.thread).or_default().feed(e) {
                Fed::Quiet => {}
                Fed::Span(span) => out.spans.push(span),
                Fed::Malformed(m) => out.malformed.push(m),
                Fed::Orphan => out.orphans += 1,
            }
        }
        for machine in machines.values() {
            out.open += usize::from(machine.is_open());
            out.recovery.suspects += machine.recovery().suspects;
            out.recovery.reclaimed += machine.recovery().reclaimed;
            out.recovery.successions += machine.recovery().successions;
        }
        out
    }

    #[test]
    fn reconstructs_all_four_paths() {
        // Thread 0: fast op, then a locked op with the full §4.4
        // choreography. Thread 1: combining poster served by thread 2,
        // which combines a batch of 2.
        let report = replay(
            &[],
            &[
                ev(0, 0, 10, Event::FastAttempt),
                ev(1, 0, 20, Event::FastSuccess),
                ev(2, 0, 30, Event::FastAttempt),
                ev(3, 0, 40, Event::FastAbort),
                ev(4, 0, 50, Event::FlagRaise(0)),
                ev(5, 0, 90, Event::LockAcquire(0)),
                ev(6, 0, 95, Event::ContentionRaise),
                ev(7, 0, 120, Event::LockedComplete),
                ev(8, 0, 121, Event::ContentionClear),
                ev(9, 0, 125, Event::LockRelease(0)),
                ev(10, 0, 126, Event::TurnAdvance(1)),
                ev(11, 1, 10, Event::RecordPost),
                ev(12, 2, 11, Event::RecordPost),
                ev(13, 2, 15, Event::LockAcquire(2)),
                ev(14, 2, 40, Event::CombineBatch(2)),
                ev(15, 1, 45, Event::RecordHandoff(30)),
                ev(16, 1, 46, Event::CombinedComplete),
                ev(17, 2, 50, Event::LockedComplete),
                ev(18, 2, 55, Event::LockRelease(2)),
            ],
        );
        assert!(report.malformed.is_empty(), "{:?}", report.malformed);
        assert_eq!(report.open, 0);
        assert_eq!(report.spans.len(), 4);

        let fast = report.on_path(Path::Fast);
        assert_eq!(fast.len(), 1);
        assert_eq!(fast[0].duration_ns(), 10);

        let locked = report.on_path(Path::Locked);
        assert_eq!(locked.len(), 1);
        assert!(locked[0].aborted_fast);
        assert_eq!(locked[0].proc_id, Some(0));
        assert_eq!(locked[0].wait_ns, Some(40));
        assert_eq!(locked[0].hold_ns, Some(35));

        let combiner = report.on_path(Path::Combiner);
        assert_eq!(combiner.len(), 1);
        assert_eq!(combiner[0].batch, Some(2));

        assert_eq!(report.on_path(Path::Combined).len(), 1);
    }

    #[test]
    fn eliminated_span_covers_the_whole_ladder() {
        // Thread 0 aborts the weak op, retries once under contention
        // management, then rendezvouses at the exchanger. All of it is
        // one span on the eliminated path.
        let report = replay(
            &[],
            &[
                ev(0, 0, 10, Event::FastAttempt),
                ev(1, 0, 20, Event::FastAbort),
                ev(2, 0, 30, Event::FastAttempt),
                ev(3, 0, 40, Event::FastAbort),
                ev(4, 0, 50, Event::ElimAttempt),
                ev(5, 0, 90, Event::EliminatedComplete),
            ],
        );
        assert!(report.malformed.is_empty(), "{:?}", report.malformed);
        assert_eq!(report.spans.len(), 1);
        let span = &report.spans[0];
        assert_eq!(span.path, Path::Eliminated);
        assert_eq!(span.outcome, Outcome::Completed);
        assert!(span.aborted_fast);
        assert_eq!(span.duration_ns(), 80);
    }

    #[test]
    fn failed_elimination_escalates_within_one_span() {
        // No partner commits; the operation walks the rest of the
        // ladder onto the locked slow path.
        let report = replay(
            &[],
            &[
                ev(0, 0, 10, Event::FastAttempt),
                ev(1, 0, 20, Event::FastAbort),
                ev(2, 0, 30, Event::ElimAttempt),
                ev(3, 0, 60, Event::FlagRaise(0)),
                ev(4, 0, 80, Event::LockAcquire(0)),
                ev(5, 0, 95, Event::LockedComplete),
                ev(6, 0, 100, Event::LockRelease(0)),
            ],
        );
        assert!(report.malformed.is_empty(), "{:?}", report.malformed);
        assert_eq!(report.spans.len(), 1);
        let span = &report.spans[0];
        assert_eq!(span.path, Path::Locked);
        assert!(span.aborted_fast);
        assert_eq!(span.wait_ns, Some(20));
        assert!(report.on_path(Path::Eliminated).is_empty());
    }

    #[test]
    fn timeout_before_and_after_acquire() {
        let report = replay(
            &[],
            &[
                ev(0, 0, 10, Event::FlagRaise(0)),
                ev(1, 0, 60, Event::SlowTimeout),
                ev(2, 0, 70, Event::FlagRaise(0)),
                ev(3, 0, 80, Event::LockAcquire(0)),
                ev(4, 0, 99, Event::LockRelease(0)),
                ev(5, 0, 100, Event::SlowTimeout),
            ],
        );
        assert!(report.malformed.is_empty(), "{:?}", report.malformed);
        assert_eq!(report.spans.len(), 2);
        assert!(report.spans.iter().all(|s| s.outcome == Outcome::TimedOut));
        assert_eq!(report.spans[0].wait_ns, None);
        assert_eq!(report.spans[1].wait_ns, Some(10));
    }

    #[test]
    fn combining_bounce_and_repost_stay_one_span() {
        // Poster loses the retract race (acquire → immediate release),
        // then is poisoned, reposts, and is finally served.
        let report = replay(
            &[],
            &[
                ev(0, 0, 10, Event::RecordPost),
                ev(1, 0, 20, Event::LockAcquire(0)),
                ev(2, 0, 25, Event::LockRelease(0)),
                ev(3, 0, 30, Event::RecordPoisoned),
                ev(4, 0, 31, Event::RecordPost),
                ev(5, 0, 90, Event::CombinedComplete),
            ],
        );
        assert!(report.malformed.is_empty(), "{:?}", report.malformed);
        assert_eq!(report.spans.len(), 1);
        let span = &report.spans[0];
        assert_eq!(span.path, Path::Combined);
        assert_eq!(span.reposts, 1);
        assert_eq!(span.duration_ns(), 80);
    }

    /// The combiner-kill scenario of a traced E14 capture,
    /// event for event: the survivor posts, suspects the parked
    /// combiner, seizes its tenure, and — holding the lock — poisons
    /// the record the corpse had claimed before combining its own.
    /// `record-poisoned` under the lock is the seizer's
    /// `poison_orphan_claims`, not a protocol violation; read as one it
    /// cost this span and the three protocol events after it.
    #[test]
    fn a_seizer_poisoning_orphan_claims_under_the_lock_is_one_combiner_span() {
        let report = replay(
            &[],
            &[
                ev(0, 1, 100, Event::RecordPost),
                ev(1, 1, 110, Event::SuspectRaised(1)),
                ev(2, 1, 120, Event::CustodyFrom(26)),
                ev(3, 1, 130, Event::LockSucceeded(2)),
                ev(4, 1, 140, Event::LockAcquire(2)),
                ev(5, 1, 150, Event::RecordPoisoned),
                ev(6, 1, 160, Event::HelpingWrite("stack::slot")),
                ev(7, 1, 170, Event::CombineBatch(1)),
                ev(8, 1, 180, Event::LockedComplete),
                ev(9, 1, 190, Event::ContentionClear),
                ev(10, 1, 200, Event::LockRelease(2)),
            ],
        );
        assert_eq!(report.malformed, vec![], "4 malformed before the fix");
        assert_eq!(report.spans.len(), 1);
        let span = &report.spans[0];
        assert_eq!(span.path, Path::Combiner);
        assert_eq!(span.outcome, Outcome::Completed);
        assert_eq!(span.reposts, 0, "the poisoned record was somebody else's");
        assert_eq!(span.hold_ns, Some(60));
        assert_eq!(span.helped_by, Some((HelpKind::Custody, 26)));
        assert_eq!(report.recovery.suspects, 1);
        assert_eq!(report.recovery.successions, 1);
        assert_eq!(report.open, 0);
    }

    #[test]
    fn truncated_head_is_loss_but_later_orphans_are_malformed() {
        // Thread 3's ring wrapped: its stream opens mid-operation.
        let events = [
            ev(0, 3, 10, Event::LockedComplete),
            ev(1, 3, 12, Event::LockRelease(3)),
            ev(2, 3, 20, Event::FastAttempt),
            ev(3, 3, 25, Event::FastSuccess),
            ev(4, 3, 30, Event::FastSuccess),
        ];
        let report = replay(&[3], &events);
        // The two orphans at the head are truncation loss; the stray
        // fast-success *after* a clean span is a real violation.
        assert_eq!(report.orphans, 2);
        assert_eq!(report.spans.len(), 1);
        let stray = Malformed {
            thread: 3,
            seq: 4,
            event: "fast-success",
            state: "idle",
        };
        assert_eq!(report.malformed, vec![stray]);

        // The same head orphans on an untruncated thread are
        // violations.
        let report = replay(&[], &events);
        assert_eq!(report.orphans, 0);
        assert_eq!(report.malformed.len(), 3);
        assert_eq!(report.spans.len(), 1);
    }

    #[test]
    fn desync_turns_orphans_back_into_loss() {
        let mk = |seq, event| ev(seq, 0, seq * 10, event);
        let mut replayer = ThreadReplayer::new();
        assert!(matches!(
            replayer.feed(&mk(0, Event::FastAttempt)),
            Fed::Quiet
        ));
        assert!(matches!(
            replayer.feed(&mk(1, Event::FastSuccess)),
            Fed::Span(_)
        ));
        // Synced now: a stray completion is a violation...
        assert!(matches!(
            replayer.feed(&mk(2, Event::FastSuccess)),
            Fed::Malformed(_)
        ));
        // ...but after a reported harvest loss it is charged to the
        // gap, and the machine resynchronises on the next clean span.
        replayer.desync();
        assert!(!replayer.is_open());
        assert!(matches!(
            replayer.feed(&mk(3, Event::LockRelease(0))),
            Fed::Orphan
        ));
        assert!(matches!(
            replayer.feed(&mk(4, Event::FastAttempt)),
            Fed::Quiet
        ));
        assert!(replayer.is_open());
        assert!(matches!(
            replayer.feed(&mk(5, Event::FastSuccess)),
            Fed::Span(_)
        ));
        assert!(matches!(
            replayer.feed(&mk(6, Event::LockRelease(0))),
            Fed::Malformed(_)
        ));
    }

    #[test]
    fn causal_annotations_attach_to_their_spans() {
        // Thread 1 is served by a combiner on thread 2; thread 0 takes
        // the lock twice, the second acquisition handed off from the
        // first (same thread here — the replayer does not judge).
        let report = replay(
            &[],
            &[
                ev(0, 1, 10, Event::RecordPost),
                ev(1, 1, 45, Event::HelpedByCombiner(2)),
                ev(2, 1, 46, Event::CombinedComplete),
                ev(3, 0, 10, Event::FlagRaise(0)),
                ev(4, 0, 20, Event::LockAcquire(0)),
                ev(5, 0, 30, Event::LockedComplete),
                ev(6, 0, 35, Event::LockRelease(0)),
                ev(7, 0, 40, Event::FlagRaise(0)),
                ev(8, 0, 50, Event::HandoffFrom(7)),
                ev(9, 0, 51, Event::LockAcquire(0)),
                ev(10, 0, 60, Event::LockedComplete),
                ev(11, 0, 65, Event::LockRelease(0)),
            ],
        );
        assert!(report.malformed.is_empty(), "{:?}", report.malformed);
        assert_eq!(report.spans.len(), 3);

        let combined = report.on_path(Path::Combined);
        assert_eq!(combined[0].helped_by, Some((HelpKind::Combiner, 2)));

        let locked = report.on_path(Path::Locked);
        assert_eq!(locked.len(), 2);
        assert_eq!(
            locked[0].helped_by, None,
            "first acquire: nobody handed off"
        );
        assert_eq!(locked[1].helped_by, Some((HelpKind::Handoff, 7)));
    }

    #[test]
    fn causal_stash_does_not_leak_across_malformed_resets() {
        let mk = |seq, event| ev(seq, 0, seq * 10, event);
        let mut replayer = ThreadReplayer::new();
        // An op picks up an edge but dies malformed...
        assert!(matches!(
            replayer.feed(&mk(0, Event::FastAttempt)),
            Fed::Quiet
        ));
        assert!(matches!(
            replayer.feed(&mk(1, Event::HelpedByPartner(5))),
            Fed::Quiet
        ));
        assert!(matches!(
            replayer.feed(&mk(2, Event::LockRelease(0))),
            Fed::Malformed(_)
        ));
        // ...and the next clean span must not inherit the edge.
        assert!(matches!(
            replayer.feed(&mk(3, Event::FastAttempt)),
            Fed::Quiet
        ));
        match replayer.feed(&mk(4, Event::FastSuccess)) {
            Fed::Span(span) => assert_eq!(span.helped_by, None),
            other => panic!("expected a span, got {other:?}"),
        }
    }

    #[test]
    fn capture_end_leaves_open_spans_not_errors() {
        let report = replay(
            &[],
            &[
                ev(0, 0, 10, Event::FastAttempt),
                ev(1, 1, 10, Event::FlagRaise(1)),
            ],
        );
        assert_eq!(report.open, 2);
        assert!(report.malformed.is_empty());
        assert!(report.spans.is_empty());
    }
}
