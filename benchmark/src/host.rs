//! The two things the harness needs from the host that std does not
//! offer: pinning a thread to one CPU and reading a thread's CPU time.
//! Both are Linux libc calls declared here (std already links libc).

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
}

/// The CPUs this process may run on, in increasing order.
pub fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a valid, writable cpu_set_t of the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|cpu| set[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// Pins the calling thread to `cpu`; returns whether the kernel agreed.
pub fn pin_to(cpu: usize) -> bool {
    if cpu >= 1024 {
        return false;
    }
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a valid cpu_set_t of the size passed; pid 0
    // names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
}

/// CPU time consumed so far by the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_THREAD_CPUTIME_ID is unavailable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Where thread `i` of a run goes: the `i`-th allowed CPU. `None` when
/// the host allows fewer CPUs than the run has threads.
pub fn cpu_for(thread: usize) -> Option<usize> {
    allowed_cpus().get(thread).copied()
}

/// `rustc --version` of the toolchain on the path, for the report.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_clock_advances_with_work() {
        let before = thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(thread_cpu_ns() > before);
    }

    #[test]
    fn pinning_to_an_allowed_cpu_succeeds() {
        let cpus = allowed_cpus();
        assert!(!cpus.is_empty());
        std::thread::spawn(move || assert!(pin_to(cpus[0])))
            .join()
            .unwrap();
    }
}
