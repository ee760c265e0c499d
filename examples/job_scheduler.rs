//! A LIFO work pool on the contention-sensitive stack.
//!
//! The scenario the paper's introduction motivates: a shared object
//! accessed mostly without contention (workers pop jobs at their own
//! pace, the submitter pushes in bursts), where paying a lock on
//! every access would be waste — but starvation of a worker is
//! unacceptable. The register stack stores 32-bit values; a payload
//! that does not fit (here, a job description) rides as an index into
//! storage the caller owns — the jobs are built into a `Vec` before
//! any thread starts, and the stack carries their indices.
//!
//! Run with: `cargo run --example job_scheduler`

use std::sync::atomic::{AtomicU64, Ordering};

use cso::memory::registry::ProcRegistry;
use cso::stack::{CsStack, PopOutcome, PushOutcome};

/// A unit of work: summing a range (stand-in for real computation).
struct Job {
    id: usize,
    lo: u64,
    hi: u64,
}

impl Job {
    fn run(&self) -> u64 {
        (self.lo..self.hi).sum()
    }
}

const WORKERS: usize = 3;
const JOBS: usize = 1_000;

fn main() {
    // Identities: 1 submitter + WORKERS workers.
    let registry = ProcRegistry::new(1 + WORKERS);
    let jobs: Vec<Job> = (0..JOBS)
        .map(|id| Job {
            id,
            lo: id as u64,
            hi: id as u64 + 100,
        })
        .collect();
    let pool: CsStack<u32> = CsStack::new(2048, 1 + WORKERS);

    let completed = AtomicU64::new(0);
    let checksum = AtomicU64::new(0);

    std::thread::scope(|s| {
        // Workers pop until they have seen all jobs collectively.
        for _ in 0..WORKERS {
            let token = registry.register().expect("identity available");
            let (jobs, pool) = (&jobs, &pool);
            let completed = &completed;
            let checksum = &checksum;
            s.spawn(move || {
                let me = token.id();
                let mut done = 0u64;
                while completed.load(Ordering::Relaxed) < JOBS as u64 {
                    match pool.pop(me) {
                        PopOutcome::Popped(idx) => {
                            let job = &jobs[idx as usize];
                            checksum.fetch_add(job.run() ^ job.id as u64, Ordering::Relaxed);
                            completed.fetch_add(1, Ordering::Relaxed);
                            done += 1;
                        }
                        PopOutcome::Empty => std::thread::yield_now(),
                    }
                }
                println!("worker p{me} executed {done} jobs");
            });
        }

        // The submitter pushes job indices in bursts.
        let token = registry.register().expect("identity available");
        let pool = &pool;
        s.spawn(move || {
            let me = token.id();
            for id in 0..JOBS {
                // Pool full: backpressure.
                while pool.push(me, id as u32) == PushOutcome::Full {
                    std::thread::yield_now();
                }
                if id % 97 == 0 {
                    // A burst boundary: give workers a chance.
                    std::thread::yield_now();
                }
            }
            println!("submitter p{me} queued {JOBS} jobs");
        });
    });

    assert_eq!(completed.load(Ordering::Relaxed), JOBS as u64);
    assert!(pool.is_empty(), "all jobs consumed");

    // The expected checksum, computed sequentially.
    let expected: u64 = (0..JOBS)
        .map(|id| (id as u64..id as u64 + 100).sum::<u64>() ^ id as u64)
        .sum();
    assert_eq!(
        checksum.load(Ordering::Relaxed),
        expected,
        "every job ran exactly once"
    );
    println!("all {JOBS} jobs executed exactly once (checksum verified)");
}
