//! A scriptable abortable object for fault-tolerance integration
//! tests: a counter whose `try_apply` can be told to abort the next
//! few attempts, panic once, or block on a gate — standing in for a
//! weak operation that hits contention, dies, or never returns.

// Shared between test binaries; not every binary uses every helper.
#![allow(dead_code)]

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use cso_core::{Abortable, Aborted};

/// Blocks `try_apply` while closed; models a stalled lock holder.
pub struct Gate {
    closed: Mutex<bool>,
    opened: Condvar,
    waiting: AtomicUsize,
}

impl Gate {
    fn new() -> Gate {
        Gate {
            closed: Mutex::new(false),
            opened: Condvar::new(),
            waiting: AtomicUsize::new(0),
        }
    }

    /// Makes subsequent (non-aborting) `try_apply` calls block.
    pub fn close(&self) {
        *self.closed.lock().unwrap() = true;
    }

    /// Releases every blocked `try_apply`.
    pub fn open(&self) {
        *self.closed.lock().unwrap() = false;
        self.opened.notify_all();
    }

    /// Number of threads currently blocked at the gate.
    pub fn waiting(&self) -> usize {
        self.waiting.load(Ordering::SeqCst)
    }

    fn pass(&self) {
        let mut closed = self.closed.lock().unwrap();
        while *closed {
            self.waiting.fetch_add(1, Ordering::SeqCst);
            closed = self.opened.wait(closed).unwrap();
            self.waiting.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// The scriptable counter. Checks run in order: abort budget (cheap,
/// no blocking), then the gate, then the one-shot panic, then the
/// actual increment.
pub struct FlakyCounter {
    value: AtomicU64,
    abort_budget: AtomicUsize,
    panic_next: AtomicBool,
    /// Blocks applications while closed (aborted attempts skip it).
    pub gate: Gate,
}

/// The single operation: add the payload, return the new total.
pub struct Add(pub u64);

impl FlakyCounter {
    pub fn new() -> FlakyCounter {
        FlakyCounter {
            value: AtomicU64::new(0),
            abort_budget: AtomicUsize::new(0),
            panic_next: AtomicBool::new(false),
            gate: Gate::new(),
        }
    }

    /// Makes the next `count` attempts abort (⊥).
    pub fn abort_next(&self, count: usize) {
        self.abort_budget.store(count, Ordering::SeqCst);
    }

    /// Aborts the next invocation's fast attempt and every retry of
    /// it — the fewest aborts that push it onto the lock, where its
    /// line-08 attempt then goes through.
    pub fn abort_to_the_lock(&self) {
        self.abort_next(cso_core::FAST_ATTEMPTS as usize);
    }

    /// Makes the next non-aborted attempt panic.
    pub fn panic_next(&self) {
        self.panic_next.store(true, Ordering::SeqCst);
    }

    pub fn value(&self) -> u64 {
        self.value.load(Ordering::SeqCst)
    }
}

impl Abortable for FlakyCounter {
    type Op = Add;
    type Response = u64;

    fn try_apply(&self, op: &Add) -> Result<u64, Aborted> {
        let aborted = self
            .abort_budget
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok();
        if aborted {
            return Err(Aborted);
        }
        self.gate.pass();
        if self.panic_next.swap(false, Ordering::SeqCst) {
            panic!("injected: weak operation died mid-flight");
        }
        Ok(self.value.fetch_add(op.0, Ordering::SeqCst) + op.0)
    }
}
