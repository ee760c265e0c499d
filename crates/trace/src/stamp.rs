//! What a probe site keeps *between* two events.
//!
//! Two causal facts cannot be read off a single probe: *which thread*
//! released the lock this thread just acquired, and *how long ago* a
//! publication record was posted. Each needs a little state at the
//! instrumented site — a shared cell, a clock reading — and that state
//! must go quiet with the probes: a store that feeds an event nobody
//! records is a cache-line transfer on the slow path for nothing.
//!
//! So the state lives here, behind the same run-time mode as
//! [`crate::probe!`] itself: [`TidStamp`] is one padded `AtomicU32`
//! that only an armed thread writes (quiet, leaving is one load of the
//! mode word and taking is one load of the cell), and [`SpanClock`]
//! reads the wall clock only while armed.

use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use cso_memory::{mode, CachePadded};

use crate::NO_TID;

/// A cell in which one thread leaves its trace thread id (see
/// [`crate::probe::thread_id`]) for another to read back — the
/// lock-handoff and custody stamps of `cso_locks::StarvationFree`.
///
/// A plain, *uncounted* atomic on a line of its own: causal stamps
/// must not perturb the paper's counted budgets, and the releaser
/// writes it while waiters hammer the lock word. Every access is
/// `Relaxed`: the cell publishes nothing by itself and is meant to be
/// used under a lock, whose release/acquire pair orders a stamp left
/// before the unlock ahead of the read after the next lock.
///
/// Written only while the mode is armed: quiet, [`TidStamp::leave`]
/// stores nothing and the readers find [`NO_TID`] — which the
/// `probe_if!(tid != NO_TID, …)` at the reading site skips.
#[derive(Debug)]
pub struct TidStamp {
    tid: CachePadded<AtomicU32>,
}

impl TidStamp {
    /// An empty cell (reads [`NO_TID`]).
    #[must_use]
    pub const fn new() -> TidStamp {
        TidStamp {
            tid: CachePadded::new(AtomicU32::new(NO_TID)),
        }
    }

    /// Leaves the calling thread's trace id in the cell, while armed.
    #[inline]
    pub fn leave(&self) {
        if mode::armed() {
            self.tid.store(crate::probe::thread_id(), Ordering::Relaxed);
        }
    }

    /// The id last left, or [`NO_TID`].
    #[inline]
    #[must_use]
    pub fn read(&self) -> u32 {
        self.tid.load(Ordering::Relaxed)
    }

    /// Takes the id last left, emptying the cell: a stamp consumed
    /// this way is seen by exactly one reader, so the edge it feeds is
    /// recorded once per handoff and a later reader never finds a
    /// stale one. An empty cell (every cell, while quiet) is read and
    /// not swapped, so a quiet handoff pays no read-modify-write.
    #[inline]
    #[must_use]
    pub fn take(&self) -> u32 {
        if self.tid.load(Ordering::Relaxed) == NO_TID {
            return NO_TID;
        }
        self.tid.swap(NO_TID, Ordering::Relaxed)
    }
}

impl Default for TidStamp {
    fn default() -> TidStamp {
        TidStamp::new()
    }
}

/// The length of a span for an event payload (`record-handoff`'s
/// post-to-done latency): reads the wall clock only while the mode is
/// armed. Quiet, [`SpanClock::start`] reads no `Instant` and
/// [`SpanClock::elapsed_ns`] — only ever called inside a
/// [`crate::probe!`], which is then not evaluated — returns 0.
#[derive(Debug)]
pub struct SpanClock {
    start: Option<Instant>,
}

impl SpanClock {
    /// Starts the span now (while armed).
    #[inline]
    #[must_use]
    pub fn start() -> SpanClock {
        SpanClock {
            start: mode::armed().then(Instant::now),
        }
    }

    /// Nanoseconds since [`SpanClock::start`], saturated at
    /// `u32::MAX` (≈ 4.3 s); 0 for a span started quiet.
    #[inline]
    #[must_use]
    pub fn elapsed_ns(&self) -> u32 {
        self.start.map_or(0, |start| {
            u32::try_from(start.elapsed().as_nanos()).unwrap_or(u32::MAX)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::Recording;
    use std::mem::size_of;

    /// The price of one build, as a size: a stamp is a line, a clock an
    /// optional `Instant`, in every build.
    #[test]
    fn a_stamp_is_one_line_and_a_clock_one_optional_instant() {
        type Line = cso_memory::CachePadded<std::sync::atomic::AtomicU32>;
        assert_eq!(size_of::<TidStamp>(), size_of::<Line>());
        assert_eq!(
            size_of::<SpanClock>(),
            size_of::<Option<std::time::Instant>>()
        );
    }

    #[test]
    fn a_stamp_is_left_read_and_taken_once() {
        let _serial = crate::tests::serial();
        let cell = TidStamp::new();
        cell.leave();
        assert_eq!(cell.read(), NO_TID, "quiet: nothing is left");
        assert_eq!(cell.take(), NO_TID);
        let _recording = Recording::start();
        cell.leave();
        let me = crate::probe::thread_id();
        assert_ne!(me, NO_TID);
        assert_eq!(cell.read(), me);
        let other = std::thread::scope(|s| s.spawn(|| cell.take()).join().unwrap());
        assert_eq!(other, me, "the next thread reads the id left for it");
        assert_eq!(cell.take(), NO_TID, "a taken stamp is gone");
    }

    #[test]
    fn the_span_clock_runs_only_while_armed() {
        let _serial = crate::tests::serial();
        let quiet = SpanClock::start();
        let recording = Recording::start();
        let armed = SpanClock::start();
        drop(recording);
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert_eq!(quiet.elapsed_ns(), 0);
        let ns = armed.elapsed_ns();
        assert!(ns >= 2_000_000, "{ns}");
    }
}
