//! Fixed-duration throughput measurement.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// The outcome of one timed multi-thread run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Operations completed by each thread.
    pub per_thread: Vec<u64>,
    /// Wall-clock time actually measured, floored by the CPU time the
    /// process consumed divided by the core count (see
    /// [`process_cpu_time`]): a monotonic clock that slips under
    /// virtualization cannot make a cell look faster than the silicon.
    pub elapsed: Duration,
}

impl RunResult {
    /// Total operations completed.
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        self.per_thread.iter().sum()
    }

    /// Aggregate throughput in operations per second.
    #[must_use]
    pub fn ops_per_sec(&self) -> f64 {
        self.total_ops() as f64 / self.elapsed.as_secs_f64()
    }

    /// The least-served thread's operation count.
    #[must_use]
    pub fn min_ops(&self) -> u64 {
        self.per_thread.iter().copied().min().unwrap_or(0)
    }

    /// The most-served thread's operation count.
    #[must_use]
    pub fn max_ops(&self) -> u64 {
        self.per_thread.iter().copied().max().unwrap_or(0)
    }

    /// Jain's fairness index over per-thread counts: 1.0 = perfectly
    /// fair, `1/n` = one thread got everything.
    #[must_use]
    pub fn jain_index(&self) -> f64 {
        let n = self.per_thread.len() as f64;
        let sum: f64 = self.per_thread.iter().map(|&x| x as f64).sum();
        let sum_sq: f64 = self
            .per_thread
            .iter()
            .map(|&x| (x as f64) * (x as f64))
            .sum();
        if sum_sq == 0.0 {
            1.0
        } else {
            sum * sum / (n * sum_sq)
        }
    }
}

/// Runs `body(thread_index, &stop)` on `threads` threads for
/// `duration`, after a common barrier. Each body returns the number of
/// operations it completed; bodies must poll `stop` and return
/// promptly once it is set. A cell that fits the host (`threads` ≤
/// `available_parallelism()`) pins worker *i* to the *i*-th allowed
/// CPU, as the yardstick does: unpinned, two workers on a 2-vCPU guest
/// may be time-sliced on one vCPU and read solo speed.
///
/// ```
/// use cso_bench::measure::timed_run;
/// use std::sync::atomic::Ordering;
/// use std::time::Duration;
///
/// let result = timed_run(2, Duration::from_millis(20), |_thread, stop| {
///     let mut ops = 0;
///     while !stop.load(Ordering::Relaxed) {
///         ops += 1;
///     }
///     ops
/// });
/// assert_eq!(result.per_thread.len(), 2);
/// assert!(result.total_ops() > 0);
/// ```
pub fn timed_run<F>(threads: usize, duration: Duration, body: F) -> RunResult
where
    F: Fn(usize, &AtomicBool) -> u64 + Sync,
{
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(threads + 1);
    let mut per_thread = vec![0u64; threads];
    let mut elapsed = Duration::ZERO;
    let cpu_before = process_cpu_time();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for thread in 0..threads {
            let body = &body;
            let stop = &stop;
            let barrier = &barrier;
            handles.push(scope.spawn(move || {
                #[cfg(target_os = "linux")]
                if threads <= cores {
                    pin_to_allowed_cpu(thread);
                }
                barrier.wait();
                body(thread, stop)
            }));
        }
        barrier.wait();
        let start = Instant::now();
        std::thread::sleep(duration);
        stop.store(true, Ordering::SeqCst);
        for (i, handle) in handles.into_iter().enumerate() {
            per_thread[i] = handle.join().expect("benchmark thread panicked");
        }
        elapsed = start.elapsed();
    });

    // Guard against guest-clock slip. Under virtualization (vCPU
    // steal, hypervisor pause/resume) CLOCK_MONOTONIC can advance far
    // less than the time the cell actually ran, inflating ops/s by an
    // order of magnitude in sporadic cells. Real wall time is never
    // less than the CPU time the process burned divided by the cores
    // it could burn it on, so floor `elapsed` there. On an honest
    // clock the floor is below the measurement (workers never exceed
    // full utilization) and this is a no-op.
    if let (Some(before), Some(after)) = (cpu_before, process_cpu_time()) {
        let floor = after.saturating_sub(before) / cores as u32;
        if floor > elapsed {
            elapsed = floor;
        }
    }

    RunResult {
        per_thread,
        elapsed,
    }
}

/// Pins the calling thread to the `index`-th CPU it may run on; a
/// thread the kernel will not pin stays where it was.
#[cfg(target_os = "linux")]
fn pin_to_allowed_cpu(index: usize) {
    /// `cpu_set_t`: 1024 CPUs, one bit each.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    }
    let size = std::mem::size_of::<CpuSet>();
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a valid, writable cpu_set_t of the size passed;
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut set) } != 0 {
        return;
    }
    let mut allowed = (0..1024).filter(|cpu| set[cpu / 64] & (1 << (cpu % 64)) != 0);
    if let Some(cpu) = allowed.nth(index) {
        set = [0; 16];
        set[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: as above, and the kernel only reads `set`.
        unsafe { sched_setaffinity(0, size, &set) };
    }
}

/// Total CPU time (user + system, all threads) this process has
/// consumed, from `/proc/self/stat`; `None` where unavailable.
///
/// Used by [`timed_run`] to bound clock-slip: utime/stime are fields
/// 14 and 15, counted in `USER_HZ` ticks (100/s on every mainstream
/// Linux — the kernel ABI froze the exported value decades ago).
#[must_use]
pub fn process_cpu_time() -> Option<Duration> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The comm field may contain spaces/parens: skip past the last ')'.
    let after_comm = stat.rsplit(')').next()?;
    let mut fields = after_comm.split_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(Duration::from_millis((utime + stime) * 10))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_threads_report() {
        let result = timed_run(3, Duration::from_millis(30), |_t, stop| {
            let mut ops = 0;
            while !stop.load(Ordering::Relaxed) {
                std::thread::yield_now();
                ops += 1;
            }
            ops
        });
        assert_eq!(result.per_thread.len(), 3);
        assert!(result.total_ops() > 0);
        assert!(result.ops_per_sec() > 0.0);
        assert!(result.min_ops() <= result.max_ops());
    }

    #[test]
    fn a_cell_that_fits_the_host_pins_its_worker_and_not_its_caller() {
        // `None` off Linux, where nothing is pinned and nothing is checked.
        let allowed = || {
            let text = std::fs::read_to_string("/proc/thread-self/status").ok()?;
            let line = text.lines().find(|l| l.starts_with("Cpus_allowed_list"))?;
            Some(line.to_owned())
        };
        let before = allowed();
        timed_run(1, Duration::from_millis(5), |_thread, _stop| {
            // One CPU: neither a range nor a list.
            assert!(!allowed().is_some_and(|l| l.contains(['-', ','])));
            1
        });
        assert_eq!(allowed(), before);
    }

    #[test]
    fn process_cpu_time_is_monotonic_where_available() {
        let Some(before) = process_cpu_time() else {
            return; // not Linux: the guard is simply disabled
        };
        // Burn a little CPU so the counter has a chance to move.
        let mut acc = 0u64;
        for i in 0..5_000_000u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(acc);
        let after = process_cpu_time().expect("available above");
        assert!(after >= before, "{after:?} < {before:?}");
    }

    #[test]
    fn elapsed_never_understates_cpu_share() {
        // A busy 30 ms cell: the corrected elapsed must be at least the
        // cell's CPU share and at least the requested duration.
        let result = timed_run(2, Duration::from_millis(30), |_t, stop| {
            let mut ops = 0;
            while !stop.load(Ordering::Relaxed) {
                ops += 1;
            }
            ops
        });
        assert!(result.elapsed >= Duration::from_millis(30));
    }

    #[test]
    fn jain_index_bounds() {
        let balanced = RunResult {
            per_thread: vec![100, 100, 100],
            elapsed: Duration::from_secs(1),
        };
        assert!((balanced.jain_index() - 1.0).abs() < 1e-9);
        let skewed = RunResult {
            per_thread: vec![300, 0, 0],
            elapsed: Duration::from_secs(1),
        };
        assert!((skewed.jain_index() - 1.0 / 3.0).abs() < 1e-9);
        let empty = RunResult {
            per_thread: vec![0, 0],
            elapsed: Duration::from_secs(1),
        };
        assert_eq!(empty.jain_index(), 1.0);
    }
}
