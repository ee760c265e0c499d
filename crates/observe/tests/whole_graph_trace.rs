//! Arming the probes arms them for the whole graph.
//!
//! The run-time mode is one word, in `cso-memory`: whichever package
//! opens the recording, every instrumented crate below records —
//! including the sites that keep state *between* events. When each
//! crate forwarded a `trace` feature of its own, one package's spelling
//! reached `cso-trace` but not `cso-locks` or `cso-core`: probes
//! recorded while the lock's handoff stamps and the combiner's
//! `record-handoff` were compiled out, and the aggregator behind the
//! watchdog's invariants folded a stream with those edges silently
//! missing. One build keeps that from coming back.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;

use cso_core::CsConfig;
use cso_locks::{ProcLock, StarvationFree, TasLock};
use cso_stack::{CsStack, PushOutcome};
use cso_trace::{probe, Event};

/// The probe rings are process-global; the two tests serialize, and
/// record while they run.
fn serial() -> (MutexGuard<'static, ()>, probe::Recording) {
    static M: Mutex<()> = Mutex::new(());
    let guard = M.lock().unwrap_or_else(PoisonError::into_inner);
    (guard, probe::Recording::start())
}

#[test]
fn an_unlock_then_lock_across_threads_records_one_handoff_edge() {
    let _serial = serial();
    probe::clear();
    let lock = Arc::new(StarvationFree::new(TasLock::new(), 2));
    lock.lock(0);
    let releaser = probe::thread_id();
    lock.unlock(0);
    let peer = Arc::clone(&lock);
    let acquirer = thread::spawn(move || {
        peer.lock(1);
        peer.unlock(1);
        probe::thread_id()
    })
    .join()
    .unwrap();
    let trace = probe::collect();
    let edges: Vec<_> = trace
        .events
        .iter()
        .filter(|e| matches!(e.event, Event::HandoffFrom(_)))
        .collect();
    assert_eq!(edges.len(), 1, "one handoff, one edge: {edges:?}");
    assert_eq!(edges[0].event, Event::HandoffFrom(releaser));
    assert_eq!(edges[0].thread, acquirer, "the edge is the acquirer's");
}

#[test]
fn a_combined_completion_records_its_handoff_latency() {
    const THREADS: u32 = 3;
    // Small enough that no per-thread ring (4096 slots) evicts events.
    const PER_THREAD: u32 = 60;
    let _serial = serial();
    // Whether a waiter is served by another thread's tenure is up to
    // the scheduler; a round in which every poster won the lock itself
    // proves nothing either way, so take the first round that combined.
    for _round in 0..200 {
        probe::clear();
        let stack: Arc<CsStack<u32>> = Arc::new(CsStack::with_config(
            1024,
            TasLock::new(),
            THREADS as usize,
            CsConfig::COMBINING.without_fast_path(),
        ));
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let stack = Arc::clone(&stack);
                thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        assert_eq!(stack.push(t as usize, i), PushOutcome::Pushed);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let combined = stack.combining_stats().combined;
        if combined == 0 {
            continue;
        }
        let trace = probe::collect();
        assert_eq!(trace.dropped, 0, "rings must not have truncated");
        let handoffs = trace
            .events
            .iter()
            .filter(|e| matches!(e.event, Event::RecordHandoff(_)))
            .count();
        assert_eq!(
            handoffs as u64, combined,
            "one record-handoff per combined completion"
        );
        return;
    }
    panic!("200 rounds of three pushers never produced a combined completion");
}
