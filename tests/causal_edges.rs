//! Cross-thread causal edges through the combining slow path,
//! recorded under a probe recording: an operation executed by another thread's
//! combiner tenure must carry a `helped-by-combiner` annotation naming
//! that thread, and a thread that combines for itself must not
//! fabricate one — on the bare transformation, and on the queue and
//! the deque that reuse it (the live-coverage contract `/causal.json`
//! builds on).
//!
//! The scripted object is `cso-core`'s own.

#[path = "../crates/core/tests/common/mod.rs"]
mod common;

use std::collections::HashSet;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;

use common::{Add, FlakyCounter};
use cso::core::{ContentionSensitive, CsConfig};
use cso::deque::{CsDeque, DequePopOutcome, DequePushOutcome};
use cso::locks::TasLock;
use cso::queue::{CsQueue, DequeueOutcome, EnqueueOutcome};
use cso::trace::{probe, Event};

/// The probe rings are process-global; live tests serialize, and
/// record while they run.
fn serial() -> (MutexGuard<'static, ()>, probe::Recording) {
    static M: Mutex<()> = Mutex::new(());
    let guard = M.lock().unwrap_or_else(PoisonError::into_inner);
    (guard, probe::Recording::start())
}

/// Every slow-path operation goes through combining (no fast path to
/// short-circuit the scenario).
fn combining_only() -> CsConfig {
    CsConfig {
        fast_path: false,
        adaptive_gate: false,
        ..CsConfig::COMBINING
    }
}

#[test]
fn combined_completion_names_the_combiners_thread() {
    let _serial = serial();
    probe::clear();
    let cs = Arc::new(ContentionSensitive::with_config(
        FlakyCounter::new(),
        TasLock::new(),
        2,
        combining_only(),
    ));

    // Thread A wins the lock and blocks mid-tenure at the gate...
    cs.inner().gate.close();
    let a = {
        let cs = Arc::clone(&cs);
        thread::spawn(move || {
            cs.apply(0, &Add(1));
            probe::thread_id()
        })
    };
    while cs.inner().gate.waiting() == 0 {
        thread::yield_now();
    }

    // ...while thread B posts its record and spins on the held lock.
    // B's `record-post` probe is the signal that the record is up.
    let posted = probe::emitted();
    let b = {
        let cs = Arc::clone(&cs);
        thread::spawn(move || {
            cs.apply(1, &Add(2));
            probe::thread_id()
        })
    };
    while probe::emitted() == posted {
        thread::yield_now();
    }

    // Released, A's sweep claims and executes B's record.
    cs.inner().gate.open();
    let a_tid = a.join().unwrap();
    let b_tid = b.join().unwrap();

    let trace = probe::collect();
    let edge = trace
        .events
        .iter()
        .find(|e| matches!(e.event, Event::HelpedByCombiner(_)))
        .expect("the served operation records a helped-by edge");
    assert_eq!(edge.event, Event::HelpedByCombiner(a_tid));
    assert_eq!(edge.thread, b_tid, "the edge sits on the owner's thread");
}

#[test]
fn a_thread_combining_for_itself_records_no_edge() {
    let _serial = serial();
    probe::clear();
    let cs =
        ContentionSensitive::with_config(FlakyCounter::new(), TasLock::new(), 2, combining_only());
    // Solo: the poster always wins the lock, retracts its own record,
    // and is its own combiner — nobody helped.
    for i in 1..=4 {
        assert_eq!(cs.apply(0, &Add(1)), i);
    }
    let trace = probe::collect();
    assert!(
        !trace
            .events
            .iter()
            .any(|e| matches!(e.event, Event::HelpedByCombiner(_))),
        "self-combining must not fabricate a helped-by edge"
    );
}

/// Small enough that no per-thread ring (4096 slots) evicts events.
const THREADS: u32 = 3;
const PER_THREAD: u32 = 60;

/// Exactly the combined operations are attributed — no more (a
/// self-combiner records no edge), no fewer (every stamp is read).
fn assert_one_edge_per_combined_op(combined: u64) {
    let trace = probe::collect();
    assert_eq!(trace.dropped, 0, "rings must not have truncated");
    let edges: Vec<_> = trace
        .events
        .iter()
        .filter_map(|e| match e.event {
            Event::HelpedByCombiner(tid) => Some((e.thread, tid)),
            _ => None,
        })
        .collect();
    assert_eq!(
        edges.len() as u64,
        combined,
        "one helped-by edge per combined operation"
    );
    for (owner, helper) in edges {
        assert_ne!(owner, helper, "nobody combines for themselves");
    }
}

#[test]
fn every_combined_op_carries_a_helper_edge() {
    let _serial = serial();
    probe::clear();
    let config = CsConfig::PAPER.without_fast_path().with_combining();
    let queue: Arc<CsQueue<u32>> = Arc::new(CsQueue::with_config(
        1024,
        TasLock::new(),
        THREADS as usize,
        config,
    ));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let queue = Arc::clone(&queue);
            thread::spawn(move || {
                for i in 0..PER_THREAD {
                    assert_eq!(
                        queue.enqueue(t as usize, t * PER_THREAD + i),
                        EnqueueOutcome::Enqueued
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let mut seen = HashSet::new();
    while let DequeueOutcome::Dequeued(v) = queue.dequeue(0) {
        assert!(seen.insert(v), "duplicate value {v}");
    }
    assert_eq!(seen.len(), (THREADS * PER_THREAD) as usize);
    assert_one_edge_per_combined_op(queue.combining_stats().combined);
}

/// The deque reuses the Figure 3 transformation, so a combined
/// push/pop must carry the edge exactly like the stack and queue.
#[test]
fn combined_deque_ops_are_attributed_to_their_combiner() {
    let _serial = serial();
    probe::clear();
    let config = CsConfig::PAPER.without_fast_path().with_combining();
    let deque: Arc<CsDeque<u32>> = Arc::new(CsDeque::with_config(
        1024,
        TasLock::new(),
        THREADS as usize,
        config,
    ));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let deque = Arc::clone(&deque);
            thread::spawn(move || {
                for i in 0..PER_THREAD {
                    let v = t * PER_THREAD + i;
                    let outcome = if t % 2 == 0 {
                        deque.push_left(t as usize, v)
                    } else {
                        deque.push_right(t as usize, v)
                    };
                    assert_eq!(outcome, DequePushOutcome::Pushed);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let mut drained = 0;
    while let DequePopOutcome::Popped(_) = deque.pop_left(0) {
        drained += 1;
    }
    assert_eq!(drained, THREADS * PER_THREAD);
    assert_one_edge_per_combined_op(deque.combining_stats().combined);
}
