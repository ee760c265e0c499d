//! Lock substrate for the `cso` workspace.
//!
//! The contention-sensitive stack of Mostefaoui & Raynal (2011),
//! Figure 3, needs a lock that is only **deadlock-free** — its
//! `FLAG`/`TURN` mechanism (§4.4) boosts any such lock to starvation
//! freedom. This crate provides that boost, the deadlock-free lock it
//! wraps in production, one fair lock to compare it with, and the fast
//! mutex the paper cites for its access count:
//!
//! | Lock | Trait | Progress | Notes |
//! |---|---|---|---|
//! | [`TasLock`] | [`RawLock`] | deadlock-free | test-and-set; the paper's minimal assumption |
//! | [`TicketLock`] | [`RawLock`] | starvation-free | FIFO |
//! | [`LamportFastLock`] | [`ProcLock`] | deadlock-free | 7 shared accesses on a contention-free acquire+release (paper ref \[16\]) |
//! | [`StarvationFree`] | [`ProcLock`] | starvation-free | §4.4 booster over any deadlock-free [`RawLock`] |
//!
//! Every lock is built on the counted registers of [`cso_memory::reg`],
//! so its shared-memory step complexity is measurable (the Lamport
//! fast-path claim is E1).
//!
//! # Example
//!
//! ```
//! use cso_locks::{RawLock, TasLock, StarvationFree};
//!
//! // A deadlock-free lock...
//! let tas = TasLock::new();
//! {
//!     let _guard = tas.lock_guard();
//!     // critical section
//! }
//!
//! // ...boosted to starvation freedom for 4 processes (§4.4).
//! use cso_locks::ProcLock;
//! let fair = StarvationFree::new(TasLock::new(), 4);
//! fair.lock(0);
//! fair.unlock(0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod guard;
mod lamport_fast;
mod raw;
mod starvation_free;
mod tas;
mod ticket;

pub use guard::{LockGuard, ProcLockGuard};
pub use lamport_fast::LamportFastLock;
pub use raw::{Anonymous, ProcLock, RawLock};
pub use starvation_free::{RecoveringLock, SfRecoveryStats, StarvationFree, Succession};
pub use tas::TasLock;
pub use ticket::TicketLock;

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared stress harnesses: every lock must provide mutual
    //! exclusion and lose no increments.

    use super::{ProcLock, RawLock};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A critical-section monitor: `enter` asserts nobody else is
    /// inside.
    #[derive(Default)]
    pub struct Critical {
        inside: AtomicUsize,
        count: AtomicUsize,
    }

    impl Critical {
        pub fn enter(&self) {
            let prev = self.inside.fetch_add(1, Ordering::SeqCst);
            assert_eq!(prev, 0, "mutual exclusion violated");
        }

        pub fn exit(&self) {
            self.count.fetch_add(1, Ordering::SeqCst);
            let prev = self.inside.fetch_sub(1, Ordering::SeqCst);
            assert_eq!(prev, 1, "exit without enter");
        }

        pub fn count(&self) -> usize {
            self.count.load(Ordering::SeqCst)
        }
    }

    pub fn stress_raw<L: RawLock + 'static>(lock: L, threads: usize, iters: usize) {
        let lock = Arc::new(lock);
        let critical = Arc::new(Critical::default());
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let critical = Arc::clone(&critical);
                std::thread::spawn(move || {
                    for _ in 0..iters {
                        lock.lock();
                        critical.enter();
                        critical.exit();
                        lock.unlock();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(critical.count(), threads * iters);
    }

    pub fn stress_proc<L: ProcLock + 'static>(lock: L, threads: usize, iters: usize) {
        assert!(threads <= lock.n());
        let lock = Arc::new(lock);
        let critical = Arc::new(Critical::default());
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let lock = Arc::clone(&lock);
                let critical = Arc::clone(&critical);
                std::thread::spawn(move || {
                    for _ in 0..iters {
                        lock.lock(i);
                        critical.enter();
                        critical.exit();
                        lock.unlock(i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(critical.count(), threads * iters);
    }
}
