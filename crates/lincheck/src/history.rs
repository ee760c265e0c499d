//! Concurrent histories: real-time ordered invoke/return events.

use std::fmt;

/// A process identity within a history.
pub type ProcId = usize;

/// One event of a history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<Op, Resp> {
    /// Process `proc` started operation `op`.
    Invoke {
        /// The invoking process.
        proc: ProcId,
        /// The operation being invoked.
        op: Op,
    },
    /// Process `proc`'s current operation returned `resp`.
    Return {
        /// The returning process.
        proc: ProcId,
        /// The response delivered.
        resp: Resp,
    },
}

/// A history: a real-time ordered sequence of invoke/return events,
/// well-formed per process (a process alternates invoke → return).
///
/// ```
/// use cso_lincheck::history::History;
///
/// let mut h: History<&str, u32> = History::new();
/// h.invoke(0, "pop");
/// h.invoke(1, "pop"); // overlapping with p0's pop
/// h.ret(1, 7);
/// h.ret(0, 9);
/// assert_eq!(h.operations().len(), 2);
/// assert!(h.pending().is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct History<Op, Resp> {
    events: Vec<Event<Op, Resp>>,
}

/// One operation extracted from a history: its invocation position,
/// operation, and (if completed) response and return position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord<Op, Resp> {
    /// The invoking process.
    pub proc: ProcId,
    /// The operation.
    pub op: Op,
    /// Position of the invoke event in the history.
    pub invoked_at: usize,
    /// The response and the position of the return event; `None` for
    /// a pending operation.
    pub returned: Option<(Resp, usize)>,
}

impl<Op: Clone, Resp: Clone> History<Op, Resp> {
    /// Creates an empty history.
    #[must_use]
    pub fn new() -> History<Op, Resp> {
        History { events: Vec::new() }
    }

    /// Appends an invocation by `proc`.
    ///
    /// # Panics
    ///
    /// Panics if `proc` already has a pending operation (histories
    /// are per-process sequential).
    pub fn invoke(&mut self, proc: ProcId, op: Op) {
        assert!(
            !self.has_pending(proc),
            "process {proc} invoked an operation while one is pending"
        );
        self.events.push(Event::Invoke { proc, op });
    }

    /// Appends a return by `proc`.
    ///
    /// # Panics
    ///
    /// Panics if `proc` has no pending operation.
    pub fn ret(&mut self, proc: ProcId, resp: Resp) {
        assert!(
            self.has_pending(proc),
            "process {proc} returned without a pending operation"
        );
        self.events.push(Event::Return { proc, resp });
    }

    fn has_pending(&self, proc: ProcId) -> bool {
        let mut pending = false;
        for event in &self.events {
            match event {
                Event::Invoke { proc: p, .. } if *p == proc => pending = true,
                Event::Return { proc: p, .. } if *p == proc => pending = false,
                _ => {}
            }
        }
        pending
    }

    /// The raw event sequence.
    #[must_use]
    pub fn events(&self) -> &[Event<Op, Resp>] {
        &self.events
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the history has no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Extracts the operations (completed and pending) in invocation
    /// order.
    #[must_use]
    pub fn operations(&self) -> Vec<OpRecord<Op, Resp>> {
        let mut records: Vec<OpRecord<Op, Resp>> = Vec::new();
        // Per-process stack of indices into `records` awaiting return.
        let mut open: std::collections::HashMap<ProcId, usize> = std::collections::HashMap::new();
        for (pos, event) in self.events.iter().enumerate() {
            match event {
                Event::Invoke { proc, op } => {
                    open.insert(*proc, records.len());
                    records.push(OpRecord {
                        proc: *proc,
                        op: op.clone(),
                        invoked_at: pos,
                        returned: None,
                    });
                }
                Event::Return { proc, resp } => {
                    let idx = open
                        .remove(proc)
                        .expect("well-formed history: return matches an invoke");
                    records[idx].returned = Some((resp.clone(), pos));
                }
            }
        }
        records
    }

    /// The operations that never returned (crashed or still running
    /// when recording stopped).
    #[must_use]
    pub fn pending(&self) -> Vec<OpRecord<Op, Resp>> {
        self.operations()
            .into_iter()
            .filter(|r| r.returned.is_none())
            .collect()
    }

    /// Builds a history directly from an event vector.
    ///
    /// # Panics
    ///
    /// Panics if the sequence is not well-formed (a process invokes
    /// while pending, or returns while idle).
    #[must_use]
    pub fn from_events(events: Vec<Event<Op, Resp>>) -> History<Op, Resp> {
        let mut history = History::new();
        for event in events {
            match event {
                Event::Invoke { proc, op } => history.invoke(proc, op),
                Event::Return { proc, resp } => history.ret(proc, resp),
            }
        }
        history
    }
}

/// One line per event, the operation and the response in their
/// `Debug` form.
impl<Op: fmt::Debug, Resp: fmt::Debug> fmt::Display for History<Op, Resp> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for event in &self.events {
            match event {
                Event::Invoke { proc, op } => writeln!(f, "p{proc} ── invoke {op:?}")?,
                Event::Return { proc, resp } => writeln!(f, "p{proc} ←─ return {resp:?}")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operations_pair_invokes_with_returns() {
        let mut h: History<&str, u32> = History::new();
        h.invoke(0, "a");
        h.invoke(1, "b");
        h.ret(0, 10);
        h.invoke(0, "c");
        h.ret(1, 20);

        let ops = h.operations();
        assert_eq!(ops.len(), 3);
        assert_eq!(ops[0].op, "a");
        assert_eq!(ops[0].returned.as_ref().unwrap().0, 10);
        assert_eq!(ops[1].op, "b");
        assert_eq!(ops[1].returned.as_ref().unwrap().0, 20);
        assert_eq!(ops[2].op, "c");
        assert!(ops[2].returned.is_none());
        assert_eq!(h.pending().len(), 1);
    }

    #[test]
    #[should_panic(expected = "while one is pending")]
    fn double_invoke_panics() {
        let mut h: History<&str, u32> = History::new();
        h.invoke(0, "a");
        h.invoke(0, "b");
    }

    #[test]
    #[should_panic(expected = "without a pending operation")]
    fn orphan_return_panics() {
        let mut h: History<&str, u32> = History::new();
        h.ret(0, 1);
    }

    #[test]
    fn from_events_round_trips() {
        let mut h: History<u8, u8> = History::new();
        h.invoke(0, 1);
        h.ret(0, 2);
        let rebuilt = History::from_events(h.events().to_vec());
        assert_eq!(rebuilt, h);
        assert_eq!(rebuilt.len(), 2);
        assert!(!rebuilt.is_empty());
    }
}
