//! Live and post-mortem analysis are the same function.
//!
//! One recorded multi-thread stream — all five completion paths, a
//! timeout, a poisoning, a succession, causal edges, a thread whose
//! head was overwritten — is analysed twice: (a) the way the
//! `cso-analyze` CLI does it, rendered to a `cso-trace-events v1` log,
//! parsed back, and folded whole; (b) the way the profiler's
//! harvester does it, as typed events in ragged batches of 1–64. The
//! two snapshots must render to the same bytes.
//!
//! This replaces the tests that used to keep two analysers in step
//! (`incremental_replayer_matches_batch_reconstruct`, and the two
//! `HelpKind` mirror tests): there is one analyser now, so what is
//! left to check is that neither the codec nor the batching shows.

use cso_observe::analyze::Fold;
use cso_trace::export::{event_log, parse_event_log};
use cso_trace::probe::{Event, Trace, TraceEvent};

const THREADS: u32 = 4;
const OPS_PER_THREAD: usize = 250;

/// xorshift64: the stream must be the same on every run.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// One operation of process `p` (recorded on thread `p`), helped —
/// where its path involves help — by thread `h`: the event sequences
/// the instrumented code paths emit, annotations included.
fn operation(kind: u64, p: u32, h: u32) -> Vec<Event> {
    match kind {
        0 => vec![Event::FastAttempt, Event::FastSuccess],
        1 => vec![
            Event::FastAttempt,
            Event::FastAbort,
            Event::ElimAttempt,
            Event::HelpedByPartner(h),
            Event::EliminatedComplete,
        ],
        2 => vec![
            Event::FastAttempt,
            Event::CasFail("stack::top"),
            Event::FastAbort,
            Event::FlagRaise(p),
            Event::LockAcquire(p),
            Event::HandoffFrom(h),
            Event::ContentionRaise,
            Event::HelpingWrite("stack::slot"),
            Event::LockedComplete,
            Event::ContentionClear,
            Event::LockRelease(p),
            Event::TurnAdvance((p + 1) % THREADS),
        ],
        3 => vec![
            Event::RecordPost,
            Event::RecordHandoff(300),
            Event::HelpedByCombiner(h),
            Event::CombinedComplete,
        ],
        4 => vec![
            Event::RecordPost,
            Event::LockAcquire(p),
            Event::CombineBatch(3),
            Event::LockedComplete,
            Event::LockRelease(p),
        ],
        // A recovering lock's wait: re-raised once, then out of time.
        5 => vec![Event::FlagRaise(p), Event::FlagRaise(p), Event::SlowTimeout],
        // A panic survived under the lock.
        6 => vec![
            Event::FlagRaise(p),
            Event::LockAcquire(p),
            Event::FailPoint("cs::locked"),
            Event::SlowPoisoned,
            Event::LockRelease(p),
        ],
        // Succession: the poster seizes a dead combiner's tenure and
        // poisons its orphaned claims before combining.
        _ => vec![
            Event::RecordPost,
            Event::SuspectRaised(h),
            Event::CustodyFrom(h),
            Event::LockSucceeded(p),
            Event::LockAcquire(p),
            Event::RecordPoisoned,
            Event::CombineBatch(1),
            Event::LockedComplete,
            Event::LockRelease(p),
        ],
    }
}

/// The recorded stream: every thread runs a random programme of
/// operations, the threads interleave at random, and thread 2's ring
/// has wrapped — its oldest events, up to the middle of an operation,
/// are gone and declared lost.
fn recorded_stream() -> Trace {
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let mut queues: Vec<std::collections::VecDeque<Event>> = (0..THREADS)
        .map(|p| {
            (0..OPS_PER_THREAD)
                .flat_map(|_| {
                    // Mostly fast, as real runs are; every kind occurs.
                    let kind = match rng.below(16) {
                        k @ 0..=7 => k,
                        _ => 0,
                    };
                    let helper = (p + 1 + rng.below(u64::from(THREADS) - 1) as u32) % THREADS;
                    operation(kind, p, helper)
                })
                .collect()
        })
        .collect();
    let mut events = Vec::new();
    let mut wall_ns = 0;
    while queues.iter().any(|q| !q.is_empty()) {
        let thread = rng.below(u64::from(THREADS)) as usize;
        let Some(event) = queues[thread].pop_front() else {
            continue;
        };
        wall_ns += 1 + rng.below(700);
        events.push(TraceEvent {
            thread: thread as u32,
            seq: events.len() as u64,
            wall_ns,
            event,
        });
    }
    // The hole ends just after thread 2's first `lock-acquire`: what
    // survives of that operation has lost its beginning.
    let of_two = || events.iter().filter(|e| e.thread == 2);
    let lost = 1 + of_two()
        .position(|e| e.event == Event::LockAcquire(2))
        .expect("thread 2 takes the lock at some point");
    let last_lost = of_two().nth(lost - 1).expect("counted above").seq;
    events.retain(|e| e.thread != 2 || e.seq > last_lost);
    Trace {
        events,
        dropped: lost as u64,
        truncated: vec![(2, lost as u64)],
    }
}

#[test]
fn a_stream_folds_the_same_whole_from_a_file_and_ragged_from_a_harvester() {
    let recorded = recorded_stream();

    // (a) Post-mortem: through the text codec, folded in one call.
    let parsed = parse_event_log(&event_log(&recorded)).expect("own log parses");
    let mut post_mortem = Fold::new();
    post_mortem.ingest(&parsed.events, &parsed.truncated);

    // (b) Live: typed events, ragged batches; the loss arrives with
    // the first batch, as it does for a ring that wrapped before the
    // harvester's first pass.
    let mut rng = Rng(0xD1B5_4A32_D192_ED03);
    let mut live = Fold::new();
    let mut rest = recorded.events.as_slice();
    let mut loss = recorded.truncated.as_slice();
    let mut batches = 0;
    while !rest.is_empty() {
        let size = (1 + rng.below(64) as usize).min(rest.len());
        let (batch, tail) = rest.split_at(size);
        live.ingest(batch, loss);
        (rest, loss, batches) = (tail, &[], batches + 1);
    }
    assert!(batches > 100, "the stream really was cut up: {batches}");

    let (a, b) = (post_mortem.snapshot(), live.snapshot());
    assert_eq!(
        a.to_json().render_pretty(),
        b.to_json().render_pretty(),
        "/spans.json"
    );
    assert_eq!(a.render_text(), b.render_text(), "/profile");
    assert_eq!(
        a.causal.to_json().render_pretty(),
        b.causal.to_json().render_pretty(),
        "/causal.json"
    );
    assert_eq!(post_mortem.collapsed(), live.collapsed(), "/flamegraph");
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "every field");

    // And the stream was worth comparing on.
    let paths: Vec<&str> = a.per_path.iter().map(|(label, _)| *label).collect();
    assert_eq!(
        paths,
        ["fast", "eliminated", "locked", "combined", "combiner"]
    );
    let flame = post_mortem.collapsed();
    assert!(flame.contains(";locked;timeout "), "{flame}");
    assert!(flame.contains(";locked;poisoned;"), "{flame}");
    assert!(a.recovery.successions > 0 && a.recovery.suspects > 0);
    assert!(a.causal.custody > 0 && a.causal.handoffs > 0);
    assert_eq!(a.causal.attribution(), 1.0);
    assert!(
        a.orphans > 0,
        "thread 2's headless operation is loss, not error"
    );
    assert_eq!(a.malformed, 0);
    assert_eq!(a.truncated_threads, recorded.truncated);
    assert_eq!(a.lost, recorded.dropped);
    assert!(a.bypass_intervals > 100 && a.tenures > 100);
    assert_eq!(a.events_ingested, recorded.events.len() as u64);
}
