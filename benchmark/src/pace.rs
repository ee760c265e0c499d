//! The measured loop that every round and every ledger rung runs, and
//! the two corrections that make its figures repeat on a virtual host.
//!
//! **Time-weighted block medians.** The host's vCPUs are not always
//! both on a processor. While one worker's vCPU is off, the other
//! worker runs uncontended, some twenty times faster; a few percent of
//! such time inflates ops/wall by tens of percent, and that share
//! drifts with the host's load. Each thread therefore reads both
//! clocks every `BLOCK` calls and reports the cost of a block at the
//! *median instant* of the loop (see
//! [`time_weighted_median`](crate::stats::time_weighted_median)), which
//! such episodes — and preemptions, which stretch a block — do not move
//! until they cover half of the loop.
//!
//! **Reference clock.** The host's core clock moves between states some
//! 15 % apart and stays in one for many seconds, longer than a run can
//! average over. Between blocks each thread times a short burst of a
//! fixed reference loop (a bare `AtomicU64` load + CAS pair on a line
//! of its own). A *single-thread* loop is core-bound and speeds up and
//! slows down with the reference, so its times are reported at the
//! reference clock: divided by (reference pair time / 10 ns). A
//! two-thread loop is bound by line transfers between the cores, which
//! do not follow the core clock (dividing made its run-to-run spread
//! worse, 0.10 → 0.22 on `contended`), so it is reported as measured.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use crate::host;
use crate::stats::time_weighted_median;

/// Calls between two looks at the stop flag.
pub const CHUNK: usize = 1024;
/// Chunks per timed block.
const BLOCK_CHUNKS: u64 = 4;
/// Calls per timed block.
const BLOCK: f64 = (BLOCK_CHUNKS * CHUNK as u64) as f64;
/// Load + CAS pairs per reference burst.
const BURST: u64 = 64;
/// The reference clock: the host speed at which a pair takes this long.
pub const REF_PAIR_NS: f64 = 10.0;

#[repr(align(128))]
struct OwnLine(AtomicU64);

/// One thread's timings over one loop.
#[derive(Debug, Clone)]
pub struct Timing {
    pub calls: u64,
    /// Thread-CPU nanoseconds from the first call to the last.
    pub cpu_ns: u64,
    pub start: Instant,
    pub end: Instant,
    /// Wall and thread-CPU nanoseconds per call at the median instant.
    wall_per_call: f64,
    cpu_per_call: f64,
    /// Nanoseconds per reference pair during the loop.
    pair_ns: f64,
    pub pinned: bool,
}

/// Pins the calling thread to the CPU of worker `thread`, waits at the
/// start line, then runs `chunk` (which makes [`CHUNK`] calls) until
/// `stop` is raised or `budget` calls are made.
pub fn pace(
    thread: usize,
    start_line: &Barrier,
    stop: &AtomicBool,
    budget: u64,
    mut chunk: impl FnMut(),
) -> Timing {
    let pinned = host::cpu_for(thread).is_some_and(host::pin_to);
    let line = OwnLine(AtomicU64::new(0));
    let burst = || {
        let start = Instant::now();
        for _ in 0..BURST {
            let seen = line.0.load(Ordering::SeqCst);
            let _ = line
                .0
                .compare_exchange(seen, seen + 1, Ordering::SeqCst, Ordering::SeqCst);
        }
        start.elapsed().as_nanos() as u64
    };
    let (mut block_wall, mut block_cpu) =
        (Vec::with_capacity(1 << 14), Vec::with_capacity(1 << 14));
    let (mut calls, mut chunks, mut bursts) = (0u64, 0u64, 1u64);

    start_line.wait();
    let mut burst_ns = burst();
    let cpu_start = host::thread_cpu_ns();
    let start = Instant::now();
    let (mut wall_mark, mut cpu_mark) = (start, cpu_start);
    while calls < budget && !stop.load(Ordering::Relaxed) {
        chunk();
        calls += CHUNK as u64;
        chunks += 1;
        if chunks % BLOCK_CHUNKS == 0 {
            let (wall, cpu) = (Instant::now(), host::thread_cpu_ns());
            block_wall.push((wall - wall_mark).as_nanos() as u64);
            block_cpu.push(cpu - cpu_mark);
            burst_ns += burst();
            bursts += 1;
            (wall_mark, cpu_mark) = (Instant::now(), host::thread_cpu_ns());
        }
    }
    let end = Instant::now();
    // Bursts ran inside this interval; their wall time is CPU time too.
    let cpu_ns = (host::thread_cpu_ns() - cpu_start).saturating_sub(burst_ns);

    // A loop too short for one block falls back to its totals.
    let per_call = |blocks: &mut [u64], total_ns: u64| match time_weighted_median(blocks) {
        Some(ns) => ns as f64 / BLOCK,
        None => total_ns as f64 / calls.max(1) as f64,
    };
    Timing {
        calls,
        cpu_ns,
        start,
        end,
        wall_per_call: per_call(&mut block_wall, (end - start).as_nanos() as u64),
        cpu_per_call: per_call(&mut block_cpu, cpu_ns),
        pair_ns: burst_ns as f64 / (bursts * BURST) as f64,
        pinned,
    }
}

/// The timings of all the threads of one loop.
#[derive(Debug, Clone, Default)]
pub struct Timings(pub Vec<Timing>);

impl Timings {
    pub fn calls(&self) -> u64 {
        self.0.iter().map(|t| t.calls).sum()
    }

    pub fn pinned(&self) -> bool {
        self.0.iter().all(|t| t.pinned)
    }

    /// What the times of this loop are divided by: the reference pair
    /// time over its nominal 10 ns for a single-thread loop, 1 for a
    /// two-thread loop (see the module docs).
    pub fn host_factor(&self) -> f64 {
        match self.0.as_slice() {
            [only] => only.pair_ns / REF_PAIR_NS,
            _ => 1.0,
        }
    }

    /// Mean reference pair time over the threads, as measured.
    pub fn pair_ns(&self) -> f64 {
        self.0.iter().map(|t| t.pair_ns).sum::<f64>() / self.0.len() as f64
    }

    /// Calls per microsecond at the median instant, all threads
    /// together.
    pub fn mops(&self) -> f64 {
        self.0.iter().map(|t| 1e3 / t.wall_per_call).sum::<f64>() * self.host_factor()
    }

    /// Thread-CPU nanoseconds per call at the median instant, mean over
    /// the threads.
    pub fn cpu_ns_per_call(&self) -> f64 {
        self.cpu_ns_per_call_at_host_clock() / self.host_factor()
    }

    /// The same before it is put on the reference clock.
    pub fn cpu_ns_per_call_at_host_clock(&self) -> f64 {
        self.0.iter().map(|t| t.cpu_per_call).sum::<f64>() / self.0.len() as f64
    }

    /// Least-served over most-served thread, by their rates at the
    /// median instant.
    pub fn fairness(&self) -> f64 {
        let slowest = self
            .0
            .iter()
            .map(|t| t.wall_per_call)
            .fold(f64::MIN, f64::max);
        let fastest = self
            .0
            .iter()
            .map(|t| t.wall_per_call)
            .fold(f64::MAX, f64::min);
        fastest / slowest
    }

    /// Earliest start and latest end.
    pub fn span(&self) -> (Instant, Instant) {
        let start = self
            .0
            .iter()
            .map(|t| t.start)
            .min()
            .expect("a loop has threads");
        let end = self
            .0
            .iter()
            .map(|t| t.end)
            .max()
            .expect("a loop has threads");
        (start, end)
    }

    /// Total calls over wall time, unfiltered and as measured.
    pub fn raw_mops(&self) -> f64 {
        let (start, end) = self.span();
        self.calls() as f64 * 1e3 / (end - start).as_nanos() as f64
    }

    /// Total thread-CPU time over total calls, unfiltered and as
    /// measured.
    pub fn raw_cpu_ns_per_call(&self) -> f64 {
        self.0.iter().map(|t| t.cpu_ns).sum::<u64>() as f64 / self.calls() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(calls_per_chunk: u64) -> impl FnMut() {
        move || {
            let mut x = 1u64;
            for i in 0..calls_per_chunk {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
            }
            std::hint::black_box(x);
        }
    }

    #[test]
    fn a_budgeted_loop_stops_at_its_budget_and_times_blocks() {
        let t = pace(
            0,
            &Barrier::new(1),
            &AtomicBool::new(false),
            64 * CHUNK as u64,
            spin(CHUNK as u64),
        );
        assert_eq!(t.calls, 64 * CHUNK as u64);
        assert!(t.wall_per_call > 0.0 && t.cpu_per_call > 0.0 && t.pair_ns > 0.0);
        assert!(t.end > t.start);
    }

    #[test]
    fn a_loop_shorter_than_a_block_falls_back_to_totals() {
        let t = pace(
            0,
            &Barrier::new(1),
            &AtomicBool::new(false),
            CHUNK as u64,
            spin(CHUNK as u64),
        );
        assert_eq!(t.calls, CHUNK as u64);
        assert!(t.wall_per_call > 0.0);
    }

    #[test]
    fn only_single_thread_loops_are_put_on_the_reference_clock() {
        let t = pace(
            0,
            &Barrier::new(1),
            &AtomicBool::new(false),
            8 * CHUNK as u64,
            spin(CHUNK as u64),
        );
        let one = Timings(vec![t.clone()]);
        let two = Timings(vec![t.clone(), t]);
        assert_eq!(one.host_factor(), one.pair_ns() / REF_PAIR_NS);
        assert_eq!(two.host_factor(), 1.0);
        assert_eq!(two.fairness(), 1.0);
    }
}
