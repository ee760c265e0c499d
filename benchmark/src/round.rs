//! One round: a fresh object, prefilled, driven closed-loop (think time
//! 0) by pinned workers cycling their tapes, then drained and checked.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::check::{conserved, value, OrderCheck, Tally, PREFILL};
use crate::objects::{Counts, Target};
use crate::pace::{pace, Timing, Timings, CHUNK};
use crate::stats::LatHist;
use crate::tape::{Tape, LEN};

/// In a traced round, every this-many-th call gets a span.
const SPAN_EVERY: usize = 16;
/// Spans kept per thread and round for the span file; every span's
/// duration is kept in the thread's histogram regardless.
const KEPT_PER_ROUND: usize = 4096;

/// When a round ends.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// The driver raises the stop flag after this long.
    After(Duration),
    /// Every worker stops by itself after this many ops.
    Ops(u64),
}

/// A span around one call into the product.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub round: u32,
    pub put: bool,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What one worker thread's spans add up to over a traced run.
#[derive(Default)]
pub struct ThreadTrace {
    pub hist: LatHist,
    pub kept: Vec<Span>,
}

/// Where a traced round puts its spans.
pub struct Tracer<'a> {
    /// All timestamps are nanoseconds since this instant.
    pub epoch: Instant,
    pub round: u32,
    /// One per worker thread.
    pub threads: &'a mut [ThreadTrace],
}

/// What a round measured.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// The workers' timings (see [`crate::pace`]).
    pub timings: Timings,
    /// Start and end of the round (earliest worker start, latest worker
    /// end) in nanoseconds since the tracer's epoch; zero in an
    /// untraced round.
    pub start_ns: u64,
    pub end_ns: u64,
    /// `Full` and `Empty` answers.
    pub refused: u64,
    /// Conservation and per-producer-order violations.
    pub violations: u64,
    /// The object's public counters over the worker phase.
    pub counts: Counts,
}

/// Totals every kind of run keeps.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub attempted: u64,
    pub refused: u64,
    pub violations: u64,
    pub unpinned: bool,
}

impl Totals {
    pub fn add(&mut self, r: &Round) {
        self.add_timings(&r.timings);
        self.refused += r.refused;
        self.violations += r.violations;
    }
    /// A loop that checks no outputs.
    pub fn add_timings(&mut self, timings: &Timings) {
        self.attempted += timings.calls();
        self.unpinned |= !timings.pinned();
    }
    pub fn merge(&mut self, other: Totals) {
        self.attempted += other.attempted;
        self.refused += other.refused;
        self.violations += other.violations;
        self.unpinned |= other.unpinned;
    }
    pub fn failed(&self) -> u64 {
        self.refused + self.violations
    }
}

struct Worker {
    timing: Timing,
    refused: u64,
    put: Tally,
    taken: Tally,
    order: OrderCheck,
}

struct SpanSink<'a> {
    epoch: Instant,
    round: u32,
    trace: &'a mut ThreadTrace,
    kept: usize,
}

impl SpanSink<'_> {
    #[inline]
    fn record(&mut self, put: bool, start: Instant, end: Instant) {
        let start_ns = (start - self.epoch).as_nanos() as u64;
        let end_ns = (end - self.epoch).as_nanos() as u64;
        self.trace.hist.record(end_ns - start_ns);
        if self.kept < KEPT_PER_ROUND {
            self.kept += 1;
            self.trace.kept.push(Span {
                round: self.round,
                put,
                start_ns,
                end_ns,
            });
        }
    }
}

/// The worker loop. `sink` is `Some` exactly in traced rounds; the
/// untraced instantiation contains no span code at all.
fn work<T: Target, const TRACED: bool>(
    target: &T,
    thread: usize,
    tape: &Tape,
    stop: &AtomicBool,
    budget: u64,
    start_line: &Barrier,
    mut sink: Option<SpanSink<'_>>,
) -> Worker {
    let producer = thread as u32;
    let (mut seq, mut at, mut refused) = (0u32, 0usize, 0u64);
    let (mut put_tally, mut taken, mut order) =
        (Tally::default(), Tally::default(), OrderCheck::default());
    let timing = pace(thread, start_line, stop, budget, || {
        for k in 0..CHUNK {
            let put = tape[at];
            at = (at + 1) & (LEN - 1);
            let span_start = (TRACED && k % SPAN_EVERY == 0).then(Instant::now);
            if put {
                let v = value(producer, seq);
                if target.put(thread, v) {
                    put_tally.add(v);
                    seq += 1;
                } else {
                    refused += 1;
                }
            } else {
                match target.take(thread) {
                    Some(v) => {
                        taken.add(v);
                        if T::FIFO {
                            order.see(v);
                        }
                    }
                    None => refused += 1,
                }
            }
            if let (Some(start), Some(sink)) = (span_start, sink.as_mut()) {
                sink.record(put, start, Instant::now());
            }
        }
    });
    Worker {
        timing,
        refused,
        put: put_tally,
        taken,
        order,
    }
}

/// Runs one round of `tapes.len()` workers on a fresh `make()`.
pub fn run<T: Target>(
    make: &dyn Fn() -> T,
    tapes: &[Tape],
    stop_rule: Stop,
    tracer: Option<Tracer<'_>>,
) -> Round {
    let target = make();
    let mut put = Tally::default();
    let (prefill, spread) = target.prefill();
    for i in 0..prefill {
        let v = value(PREFILL, i as u32);
        assert!(target.put(i % spread, v), "prefill refused at {i}");
        put.add(v);
    }
    let before = target.counts();

    let stop = AtomicBool::new(false);
    let start_line = Barrier::new(tapes.len() + 1);
    let budget = match stop_rule {
        Stop::After(_) => u64::MAX,
        Stop::Ops(n) => n,
    };
    let (epoch, round_id, mut traces) = match tracer {
        Some(t) => (t.epoch, t.round, Some(t.threads)),
        None => (Instant::now(), 0, None),
    };
    let traced = traces.is_some();
    let workers: Vec<Worker> = std::thread::scope(|s| {
        let mut sinks: Vec<Option<SpanSink<'_>>> = match traces.as_mut() {
            Some(threads) => threads
                .iter_mut()
                .map(|trace| {
                    Some(SpanSink {
                        epoch,
                        round: round_id,
                        trace,
                        kept: 0,
                    })
                })
                .collect(),
            None => tapes.iter().map(|_| None).collect(),
        };
        let handles: Vec<_> = tapes
            .iter()
            .enumerate()
            .map(|(thread, tape)| {
                let sink = sinks[thread].take();
                let (target, stop, start_line) = (&target, &stop, &start_line);
                s.spawn(move || {
                    if traced {
                        work::<T, true>(target, thread, tape, stop, budget, start_line, sink)
                    } else {
                        work::<T, false>(target, thread, tape, stop, budget, start_line, sink)
                    }
                })
            })
            .collect();
        start_line.wait();
        if let Stop::After(length) = stop_rule {
            std::thread::sleep(length);
            stop.store(true, Ordering::Relaxed);
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("a worker panicked"))
            .collect()
    });
    let counts = target.counts().since(before);

    let mut taken = Tally::default();
    let mut drain_order = OrderCheck::default();
    while let Some(v) = target.take(0) {
        taken.add(v);
        if T::FIFO {
            drain_order.see(v);
        }
    }
    let mut violations = drain_order.violations;
    for w in &workers {
        put.merge(w.put);
        taken.merge(w.taken);
        violations += w.order.violations;
    }
    if !conserved(put, taken) {
        violations += 1;
    }

    let refused = workers.iter().map(|w| w.refused).sum();
    let timings = Timings(workers.into_iter().map(|w| w.timing).collect());
    let (start, end) = timings.span();
    Round {
        timings,
        start_ns: start.saturating_duration_since(epoch).as_nanos() as u64,
        end_ns: end.saturating_duration_since(epoch).as_nanos() as u64,
        refused,
        violations,
        counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::tapes;
    use cso::queue::CsQueue;
    use cso::stack::CsStack;

    #[test]
    fn a_solo_round_conserves_and_refuses_nothing() {
        let round = run(
            &|| CsStack::<u32>::new(8192, 2),
            &tapes(3, 1),
            Stop::Ops(2 * LEN as u64),
            None,
        );
        assert_eq!(round.timings.calls(), 2 * LEN as u64);
        assert_eq!((round.refused, round.violations), (0, 0));
        assert_eq!(round.counts.completed, 2 * LEN as u64);
        assert_eq!(round.counts.locked, 0);
    }

    #[test]
    fn a_two_thread_queue_round_keeps_per_producer_order() {
        let round = run(
            &|| CsQueue::<u32>::new(8192, 2),
            &tapes(4, 2),
            Stop::Ops(LEN as u64),
            None,
        );
        assert_eq!(round.timings.calls(), 2 * LEN as u64);
        assert_eq!((round.refused, round.violations), (0, 0));
    }

    #[test]
    fn a_traced_round_spans_every_sixteenth_call() {
        let mut threads = vec![ThreadTrace::default()];
        let round = run(
            &|| CsStack::<u32>::new(8192, 2),
            &tapes(5, 1),
            Stop::Ops(LEN as u64),
            Some(Tracer {
                epoch: Instant::now(),
                round: 1,
                threads: &mut threads,
            }),
        );
        assert_eq!((round.refused, round.violations), (0, 0));
        assert_eq!(threads[0].hist.count(), (LEN / SPAN_EVERY) as u64);
        assert_eq!(threads[0].kept.len(), KEPT_PER_ROUND);
        assert!(threads[0]
            .kept
            .iter()
            .all(|s| s.round == 1 && s.end_ns >= s.start_ns));
    }

    /// A bag that loses every 1000th value put: the round must say so.
    struct Leaky(CsStack<u32>);
    impl Target for Leaky {
        const PUT: &'static str = "Leaky::put";
        const TAKE: &'static str = "Leaky::take";
        fn put(&self, proc: usize, v: u32) -> bool {
            v % 1000 == 999 || self.0.put(proc, v)
        }
        fn take(&self, proc: usize) -> Option<u32> {
            self.0.take(proc)
        }
    }

    #[test]
    fn a_lossy_object_is_caught() {
        let round = run(
            &|| Leaky(CsStack::new(8192, 2)),
            &tapes(6, 1),
            Stop::Ops(LEN as u64),
            None,
        );
        assert!(round.violations > 0);
    }
}
