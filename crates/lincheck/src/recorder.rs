//! Concurrent history recording, and [`record`], which runs one
//! operation script per thread and records the run.

use std::sync::{Arc, Mutex};

use crate::history::{Event, History, ProcId};

/// Records invoke/return events from concurrently running threads
/// into a real-time ordered [`History`].
///
/// The recorder serializes event appends through a mutex, which makes
/// the recorded order a correct real-time order: an `invoke` is
/// appended *before* the operation starts and a `ret` *after* it
/// returns, so if operation A completes before operation B begins, A's
/// return necessarily precedes B's invoke in the log. (The mutex adds
/// contention of its own — recorded runs are for checking, not for
/// performance measurement.)
///
/// ```
/// use cso_lincheck::recorder::Recorder;
///
/// let recorder: Recorder<&str, u32> = Recorder::new();
/// recorder.invoke(0, "pop");
/// recorder.ret(0, 7);
/// let history = recorder.finish();
/// assert_eq!(history.len(), 2);
/// ```
#[derive(Debug)]
pub struct Recorder<Op, Resp> {
    events: Arc<Mutex<Vec<Event<Op, Resp>>>>,
}

impl<Op: Clone, Resp: Clone> Recorder<Op, Resp> {
    /// Creates an empty recorder.
    #[must_use]
    pub fn new() -> Recorder<Op, Resp> {
        Recorder {
            events: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Records that `proc` is about to start `op`. Call immediately
    /// before invoking the real operation.
    pub fn invoke(&self, proc: ProcId, op: Op) {
        self.events
            .lock()
            .expect("recorder poisoned")
            .push(Event::Invoke { proc, op });
    }

    /// Records that `proc`'s operation returned `resp`. Call
    /// immediately after the real operation returns.
    pub fn ret(&self, proc: ProcId, resp: Resp) {
        self.events
            .lock()
            .expect("recorder poisoned")
            .push(Event::Return { proc, resp });
    }

    /// Cancels `proc`'s pending invocation — for operations that
    /// returned ⊥ (aborted **with no effect**, the abortable-object
    /// contract of the paper): since the operation never took effect,
    /// it is sound to erase it from the history before checking.
    ///
    /// # Panics
    ///
    /// Panics if `proc` has no pending invocation.
    pub fn cancel(&self, proc: ProcId) {
        let mut events = self.events.lock().expect("recorder poisoned");
        let position = events
            .iter()
            .rposition(|event| matches!(event, Event::Invoke { proc: p, .. } if *p == proc))
            .expect("cancel requires a pending invocation");
        // Sanity: the found invoke must really be pending (no return
        // after it for this proc).
        debug_assert!(
            !events[position + 1..]
                .iter()
                .any(|event| matches!(event, Event::Return { proc: p, .. } if *p == proc)),
            "cancel on a completed operation"
        );
        events.remove(position);
    }

    /// Consumes the recorded events into a [`History`].
    ///
    /// # Panics
    ///
    /// Panics if the recorded events are not well-formed (e.g. a
    /// process invoked twice without returning — a bug in the driver).
    #[must_use]
    pub fn finish(&self) -> History<Op, Resp> {
        let events = self.events.lock().expect("recorder poisoned").clone();
        History::from_events(events)
    }
}

impl<Op: Clone, Resp: Clone> Default for Recorder<Op, Resp> {
    fn default() -> Recorder<Op, Resp> {
        Recorder::new()
    }
}

impl<Op, Resp> Clone for Recorder<Op, Resp> {
    fn clone(&self) -> Recorder<Op, Resp> {
        Recorder {
            events: Arc::clone(&self.events),
        }
    }
}

/// Runs `scripts[p]` as process `p`, each script on a thread of its
/// own, and returns the recorded history: every operation is recorded
/// on its invoker's thread, around the call `apply(p, op)`.
///
/// `apply` answers in the specification's vocabulary; `None` is ⊥,
/// and cancels the invocation ([`Recorder::cancel`]): by the
/// abortable-object contract an aborted operation took no effect, and
/// an implementation that breaks the contract leaves a history that
/// does not linearize. Each thread yields after every operation, to
/// shake the interleaving.
///
/// # Panics
///
/// Propagates a panic of `apply`.
pub fn record<Op, Resp, F>(scripts: &[Vec<Op>], apply: F) -> History<Op, Resp>
where
    Op: Clone + Send + Sync,
    Resp: Clone + Send,
    F: Fn(ProcId, &Op) -> Option<Resp> + Sync,
{
    let recorder = Recorder::new();
    std::thread::scope(|s| {
        for (proc, script) in scripts.iter().enumerate() {
            let (recorder, apply) = (&recorder, &apply);
            s.spawn(move || {
                for op in script {
                    recorder.invoke(proc, op.clone());
                    match apply(proc, op) {
                        Some(resp) => recorder.ret(proc, resp),
                        None => recorder.cancel(proc),
                    }
                    std::thread::yield_now();
                }
            });
        }
    });
    recorder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_real_time_order_across_threads() {
        let recorder: Recorder<u32, u32> = Recorder::new();
        let r2 = recorder.clone();
        // p0 completes an operation fully before p1 starts.
        recorder.invoke(0, 1);
        recorder.ret(0, 1);
        let t = std::thread::spawn(move || {
            r2.invoke(1, 2);
            r2.ret(1, 2);
        });
        t.join().unwrap();
        let history = recorder.finish();
        let ops = history.operations();
        assert_eq!(ops.len(), 2);
        assert!(ops[0].returned.as_ref().unwrap().1 < ops[1].invoked_at);
    }

    #[test]
    fn cancel_erases_the_pending_invocation() {
        let recorder: Recorder<&str, u32> = Recorder::new();
        recorder.invoke(0, "a");
        recorder.ret(0, 1);
        recorder.invoke(0, "aborted");
        recorder.cancel(0);
        recorder.invoke(1, "b");
        recorder.ret(1, 2);
        let history = recorder.finish();
        let ops = history.operations();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].op, "a");
        assert_eq!(ops[1].op, "b");
    }

    #[test]
    #[should_panic(expected = "pending invocation")]
    fn cancel_without_invoke_panics() {
        let recorder: Recorder<&str, u32> = Recorder::new();
        recorder.cancel(0);
    }

    #[test]
    fn concurrent_recording_is_well_formed() {
        let recorder: Recorder<usize, usize> = Recorder::new();
        let handles: Vec<_> = (0..4)
            .map(|proc| {
                let r = recorder.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        r.invoke(proc, i);
                        r.ret(proc, i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let history = recorder.finish(); // panics if ill-formed
        assert_eq!(history.operations().len(), 400);
        assert!(history.pending().is_empty());
    }
}
