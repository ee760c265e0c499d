//! Ticket (bakery-counter) lock.

use cso_memory::backoff::Spinner;
use cso_memory::fail_point;
use cso_memory::reg::RegUsize;

use crate::raw::RawLock;

/// A FIFO spin lock: acquirers draw a ticket and wait for it to be
/// served.
///
/// Unlike TAS this lock is **starvation-free** by construction —
/// tickets are served in draw order — so it is a useful comparison
/// point for the paper's §4.4 booster: Figure 3's remark notes that
/// with a starvation-free lock the `FLAG`/`TURN` machinery (lines
/// 04-05 and 10-11) can be dropped entirely.
///
/// ```
/// use cso_locks::{RawLock, TicketLock};
/// let lock = TicketLock::new();
/// lock.lock();
/// lock.unlock();
/// ```
#[derive(Debug)]
pub struct TicketLock {
    next: RegUsize,
    serving: RegUsize,
}

impl TicketLock {
    /// Creates an unlocked lock.
    #[must_use]
    pub fn new() -> TicketLock {
        TicketLock {
            next: RegUsize::new(0),
            serving: RegUsize::new(0),
        }
    }
}

impl Default for TicketLock {
    fn default() -> TicketLock {
        TicketLock::new()
    }
}

impl RawLock for TicketLock {
    fn lock(&self) {
        fail_point!("ticket::acquire");
        let ticket = self.next.fetch_add(1);
        let mut spinner = Spinner::new();
        while self.serving.read() != ticket {
            spinner.spin();
        }
    }

    fn unlock(&self) {
        fail_point!("ticket::release");
        // Only the holder advances `serving`, so read-then-write is
        // race-free.
        let current = self.serving.read();
        self.serving.write(current.wrapping_add(1));
    }

    fn try_lock(&self) -> bool {
        let serving = self.serving.read();
        // Acquire only if we can take the very ticket being served.
        self.next.cas(serving, serving.wrapping_add(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::stress_raw;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn try_lock_only_succeeds_when_free() {
        let lock = TicketLock::new();
        assert!(lock.try_lock());
        assert!(!lock.try_lock());
        lock.unlock();
        assert!(lock.try_lock());
        lock.unlock();
    }

    #[test]
    fn provides_mutual_exclusion() {
        stress_raw(TicketLock::new(), 4, 2_500);
    }

    #[test]
    fn acquisitions_are_fifo() {
        // One holder; two waiters queue up; the first to draw a ticket
        // must win. We serialize draws with a rendezvous.
        let lock = Arc::new(TicketLock::new());
        let order = Arc::new(AtomicUsize::new(0));
        lock.lock();

        let first = {
            let lock = Arc::clone(&lock);
            let order = Arc::clone(&order);
            std::thread::spawn(move || {
                lock.lock();
                let pos = order.fetch_add(1, Ordering::SeqCst);
                lock.unlock();
                pos
            })
        };
        // Give the first waiter time to draw its ticket.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let second = {
            let lock = Arc::clone(&lock);
            let order = Arc::clone(&order);
            std::thread::spawn(move || {
                lock.lock();
                let pos = order.fetch_add(1, Ordering::SeqCst);
                lock.unlock();
                pos
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        lock.unlock();
        assert_eq!(
            first.join().unwrap(),
            0,
            "earlier ticket must be served first"
        );
        assert_eq!(second.join().unwrap(), 1);
    }
}
