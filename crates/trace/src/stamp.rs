//! What a probe site keeps *between* two events.
//!
//! Two causal facts cannot be read off a single probe: *which thread*
//! released the lock this thread just acquired, and *how long ago* a
//! publication record was posted. Each needs a little state at the
//! instrumented site — a shared cell, a clock reading — and that state
//! must vanish with the probes: a field that exists only to feed an
//! event nobody records is a cache line and a store on the slow path.
//!
//! So the state lives here, behind the same switch as [`crate::probe!`]
//! itself. With the `trace` feature off both types are **zero-sized**
//! (a struct with no fields — not `CachePadded<()>`, which would still
//! cost a 128-byte line), every method is an empty inline returning a
//! constant, and the instrumented crates carry no `cfg` of their own;
//! with it on, [`TidStamp`] is one padded `AtomicU32` and
//! [`SpanClock`] one `Instant`.

#[cfg(feature = "trace")]
use std::sync::atomic::{AtomicU32, Ordering};
#[cfg(feature = "trace")]
use std::time::Instant;

#[cfg(feature = "trace")]
use cso_memory::CachePadded;

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
/// Untraced, the cell is zero-sized, [`TidStamp::leave`] does nothing
/// and the readers return [`NO_TID`] — which the `probe_if!(tid !=
/// NO_TID, …)` at the reading site folds away.
#[derive(Debug)]
pub struct TidStamp {
    #[cfg(feature = "trace")]
    tid: CachePadded<AtomicU32>,
}

impl TidStamp {
    /// An empty cell (reads [`NO_TID`]).
    #[must_use]
    pub const fn new() -> TidStamp {
        TidStamp {
            #[cfg(feature = "trace")]
            tid: CachePadded::new(AtomicU32::new(NO_TID)),
        }
    }

    /// Leaves the calling thread's trace id in the cell.
    #[inline]
    pub fn leave(&self) {
        #[cfg(feature = "trace")]
        self.tid.store(crate::probe::thread_id(), Ordering::Relaxed);
    }

    /// The id last left, or [`NO_TID`].
    #[inline]
    #[must_use]
    pub fn read(&self) -> u32 {
        #[cfg(feature = "trace")]
        {
            self.tid.load(Ordering::Relaxed)
        }
        #[cfg(not(feature = "trace"))]
        {
            NO_TID
        }
    }

    /// Takes the id last left, emptying the cell: a stamp consumed
    /// this way is seen by exactly one reader, so the edge it feeds is
    /// recorded once per handoff and a later reader never finds a
    /// stale one.
    #[inline]
    #[must_use]
    pub fn take(&self) -> u32 {
        #[cfg(feature = "trace")]
        {
            self.tid.swap(NO_TID, Ordering::Relaxed)
        }
        #[cfg(not(feature = "trace"))]
        {
            NO_TID
        }
    }
}

impl Default for TidStamp {
    fn default() -> TidStamp {
        TidStamp::new()
    }
}

/// The length of a span for an event payload (`record-handoff`'s
/// post-to-done latency): reads the wall clock only when probes
/// record. Untraced it is zero-sized, [`SpanClock::start`] reads no
/// `Instant`, and [`SpanClock::elapsed_ns`] — only ever called inside
/// a [`crate::probe!`], which is then never evaluated — returns 0.
#[derive(Debug)]
pub struct SpanClock {
    #[cfg(feature = "trace")]
    start: Instant,
}

impl SpanClock {
    /// Starts the span now.
    #[inline]
    #[must_use]
    pub fn start() -> SpanClock {
        SpanClock {
            #[cfg(feature = "trace")]
            start: Instant::now(),
        }
    }

    /// Nanoseconds since [`SpanClock::start`], saturated at
    /// `u32::MAX` (≈ 4.3 s).
    #[inline]
    #[must_use]
    pub fn elapsed_ns(&self) -> u32 {
        #[cfg(feature = "trace")]
        {
            u32::try_from(self.start.elapsed().as_nanos()).unwrap_or(u32::MAX)
        }
        #[cfg(not(feature = "trace"))]
        {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TRACE;
    use std::mem::size_of;

    /// Zero cost, as a size: an untraced build keeps neither a cell nor
    /// a clock reading; a traced one pays a line and an `Instant`.
    #[test]
    fn both_are_zero_sized_unless_probes_record() {
        if TRACE {
            type Line = cso_memory::CachePadded<std::sync::atomic::AtomicU32>;
            assert_eq!(size_of::<TidStamp>(), size_of::<Line>());
            assert_eq!(size_of::<SpanClock>(), size_of::<std::time::Instant>());
        } else {
            assert_eq!(size_of::<TidStamp>(), 0);
            assert_eq!(size_of::<SpanClock>(), 0);
        }
    }

    #[test]
    fn a_stamp_is_left_read_and_taken_once() {
        let cell = TidStamp::new();
        assert_eq!(cell.read(), NO_TID);
        assert_eq!(cell.take(), NO_TID);
        cell.leave();
        // Untraced there is no thread id to leave: still NO_TID.
        let me = crate::probe::thread_id();
        assert_eq!(me == NO_TID, !TRACE);
        assert_eq!(cell.read(), me);
        let other = std::thread::scope(|s| s.spawn(|| cell.take()).join().unwrap());
        assert_eq!(other, me, "the next thread reads the id left for it");
        assert_eq!(cell.take(), NO_TID, "a taken stamp is gone");
    }

    #[test]
    fn the_span_clock_runs_only_when_probes_record() {
        let clock = SpanClock::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let ns = clock.elapsed_ns();
        if TRACE {
            assert!(ns >= 2_000_000, "{ns}");
        } else {
            assert_eq!(ns, 0);
        }
    }
}
