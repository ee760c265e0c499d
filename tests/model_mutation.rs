//! Mutation self-test: proof the model harness can actually fail.
//!
//! A verification harness that has never caught a planted bug proves
//! nothing. This file carries a test-only copy of the Figure 1
//! abortable stack with **one deliberate mutation**: the helping write
//! (lines 02/15–16, which completes the previous operation's lazy slot
//! update) is moved from *before* the decisive `TOP` C&S to *after*
//! it. Solo the mutant is indistinguishable — same results, same
//! five counted accesses — but the paper's key invariant ("a new TOP
//! is only installed after the current top slot is finalized") is
//! broken: a concurrent pop can read the stale below-top slot and
//! resurrect a dead value. The explorer must find that interleaving
//! within a bounded schedule count, and its printed trace must replay
//! to the same violation.
//!
//! Two more mutants sit at the bottom, both of Figure 3's line-02
//! retry loop: one with the re-read of `CONTENTION` between attempts
//! taken out, one that waits a raised `CONTENTION` out but then
//! attempts without reading it again. The control there is the
//! *shipped* `ContentionSensitive`; the oracle is Lemma 2's premise,
//! checked in every schedule.
//!
//! Requires `--features model`.

use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use cso::core::{Abortable, Aborted, ContentionSensitive, FAST_ATTEMPTS, FAST_RETRIES};
use cso::locks::{ProcLock, RawLock, StarvationFree, TasLock};
use cso::memory::backoff::{retry_pause, Spinner};
use cso::memory::packed::{SlotWord, TopWord};
use cso::memory::reg::{Reg64, RegBool};
use cso::sched::{spawn, yield_access, Explorer};
use cso::stack::{AbortableStack, PushOutcome, StackOp, StackResponse};

/// `⊥` — the paper's "no value" sentinel (must match the real stack's
/// convention of using the value-field zero state for ⊥; the mutant
/// only ever stores non-zero payloads).
const BOTTOM: u32 = 0;

/// The Figure 1 stack with a switch to reorder the helping write.
/// Faithful to `cso_stack::AbortableStack` in structure and counted
/// cost; stripped of stats, elimination, and fail points.
struct MutableStack {
    top: Reg64,
    slots: Vec<Reg64>,
    /// `false` = faithful Figure 1; `true` = help AFTER the TOP C&S.
    help_after_cas: bool,
}

impl MutableStack {
    fn new(capacity: usize, help_after_cas: bool) -> MutableStack {
        let top = Reg64::new(
            TopWord {
                index: 0,
                seq: 0,
                value: BOTTOM,
            }
            .pack(),
        );
        let slots = (0..=capacity)
            .map(|x| {
                let seq = if x == 0 { u16::MAX } else { 0 };
                Reg64::new(SlotWord { value: BOTTOM, seq }.pack())
            })
            .collect();
        MutableStack {
            top,
            slots,
            help_after_cas,
        }
    }

    fn capacity(&self) -> usize {
        self.slots.len() - 1
    }

    /// Lines 15–16: finish the pending lazy write of the operation
    /// that installed `top`.
    fn help(&self, top: TopWord) {
        let slot = &self.slots[usize::from(top.index)];
        let current = SlotWord::unpack(slot.read());
        let old = SlotWord {
            value: current.value,
            seq: top.seq.wrapping_sub(1),
        };
        let new = SlotWord {
            value: top.value,
            seq: top.seq,
        };
        let _ = slot.cas(old.pack(), new.pack());
    }

    /// Lines 01–07, with the help either in its rightful place
    /// (line 02) or mutated to after the decisive C&S.
    fn weak_push(&self, value: u32) -> Result<bool, ()> {
        let observed = TopWord::unpack(self.top.read());
        if !self.help_after_cas {
            self.help(observed);
        }
        if usize::from(observed.index) == self.capacity() {
            if self.help_after_cas {
                self.help(observed);
            }
            return Ok(false); // full
        }
        let next_slot = SlotWord::unpack(self.slots[usize::from(observed.index) + 1].read());
        let newtop = TopWord {
            index: observed.index + 1,
            value,
            seq: next_slot.seq.wrapping_add(1),
        };
        if self.top.cas(observed.pack(), newtop.pack()) {
            if self.help_after_cas {
                // THE MUTATION: the previous top slot gets finalized
                // only after the new TOP is already visible — a window
                // in which a concurrent pop reads the stale slot.
                self.help(observed);
            }
            Ok(true)
        } else {
            Err(())
        }
    }

    /// Lines 08–14 (faithful in both variants; the push-side mutation
    /// is what poisons the slot this reads).
    fn weak_pop(&self) -> Result<Option<u32>, ()> {
        let observed = TopWord::unpack(self.top.read());
        self.help(observed);
        if observed.index == 0 {
            return Ok(None); // empty
        }
        let below = SlotWord::unpack(self.slots[usize::from(observed.index) - 1].read());
        let newtop = TopWord {
            index: observed.index - 1,
            value: below.value,
            seq: below.seq.wrapping_add(1),
        };
        if self.top.cas(observed.pack(), newtop.pack()) {
            Ok(Some(observed.value))
        } else {
            Err(())
        }
    }

    /// Retry loops turning the weak ops strong (Figure 2).
    fn push(&self, value: u32) -> bool {
        loop {
            if let Ok(done) = self.weak_push(value) {
                return done;
            }
        }
    }

    fn pop(&self) -> Option<u32> {
        loop {
            if let Ok(v) = self.weak_pop() {
                return v;
            }
        }
    }
}

/// The conservation body both variants run: push {1, 2} from two
/// threads (1 solo before spawning, 2 concurrently with a pop), then
/// drain and demand the popped multiset is exactly {1, 2}.
fn conservation_body(help_after_cas: bool) {
    let stack = Arc::new(MutableStack::new(3, help_after_cas));
    assert!(stack.push(1), "solo push cannot fail");
    let child = {
        let stack = Arc::clone(&stack);
        spawn(move || {
            assert!(stack.push(2), "capacity 3 cannot fill");
        })
    };
    let mut got = Vec::new();
    if let Some(v) = stack.pop() {
        got.push(v);
    }
    child.join();
    while let Some(v) = stack.pop() {
        got.push(v);
    }
    let distinct: BTreeSet<u32> = got.iter().copied().collect();
    assert_eq!(got.len(), 2, "conservation violated: popped {got:?}");
    assert_eq!(
        distinct,
        BTreeSet::from([1, 2]),
        "conservation violated: popped {got:?}"
    );
}

/// The unmutated control: the faithful Figure 1 ordering survives the
/// identical exhaustive exploration.
#[test]
fn faithful_ordering_survives_exploration() {
    let report = Explorer::exhaustive().explore(|| conservation_body(false));
    report.assert_ok();
    assert!(report.exhausted, "{report}");
    assert!(report.schedules > 1, "{report}");
}

/// The planted bug is found, within a bounded schedule count.
#[test]
fn mutant_is_killed_within_bounded_schedules() {
    let report = Explorer::exhaustive()
        .with_max_schedules(2_000)
        .explore(|| conservation_body(true));
    let violation = report.assert_violation();
    assert!(
        violation.message.contains("conservation violated"),
        "wrong oracle fired: {}",
        violation.message
    );
    assert!(
        report.schedules <= 2_000,
        "took {} schedules to kill the mutant",
        report.schedules
    );
    assert!(
        !violation.trace.is_empty(),
        "a racing schedule must have branch decisions"
    );

    // The printed trace replays to the same violation, first try.
    let replayed = Explorer::replay(&violation.trace).explore(|| conservation_body(true));
    let again = replayed.assert_violation();
    assert_eq!(again.message, violation.message, "replay diverged");
    assert_eq!(replayed.schedules, 1, "replay is a single execution");
}

/// The mutation needs real interleaving to matter: with preemptions
/// forbidden the mutant passes every (serial) schedule — evidence the
/// kill above came from the explorer's interleavings, not from a
/// sequential bug in the copy.
#[test]
fn mutant_survives_serial_schedules() {
    let report = Explorer::exhaustive()
        .with_preemption_bound(Some(0))
        .explore(|| conservation_body(true));
    report.assert_ok();
    assert!(report.exhausted, "{report}");
}

// ---------------------------------------------------------------
// Mutants 2 and 3: retry loops that attempt without a fresh clearance.
// ---------------------------------------------------------------
//
// Figure 3's line 08 terminates because "only the fast-path operations
// already in flight can make us abort" (Lemma 2): once the holder has
// raised `CONTENTION`, every process makes at most the one attempt it
// had already been cleared for. The shipped loop keeps that premise by
// re-reading the register before every attempt and making none while
// it reads raised. `NoReread` reads it once, at line 01, and then
// spends all `FAST_RETRIES` against the holder; `WaitThenAttempt`
// waits a raise out but attempts after the pause without a new read.
//
// The oracle is that premise, as ghost state around the real Figure 1
// stack: **inside one line-08 window — from the holder's first weak
// attempt under the lock to its successful one — no other process
// starts a second attempt.** On this object and two processes the
// mutant's extra attempts cost the holder nothing *observable* (a
// Figure 1 attempt aborts only because somebody else's C&S succeeded,
// and with n = 2 that somebody is the holder, finished); what they
// would cost with a third process or a two-C&S object (the HLM deque,
// where attempts abort each other without either succeeding) does not
// fit the DFS. So the aborts are scripted — a spurious ⊥ is always a
// legal answer of a weak operation — and the premise itself is judged.

thread_local! {
    /// The process identity of the running model thread (set by each
    /// script; thread-locals outlive an execution on the body thread).
    static PROC: Cell<usize> = const { Cell::new(0) };
}

const NOBODY: usize = usize::MAX;

/// The production TAS lock, telling the ghost who holds it.
struct Watched {
    inner: TasLock,
    holder: Arc<AtomicUsize>,
}

impl RawLock for Watched {
    fn lock(&self) {
        self.inner.lock();
        self.holder.store(PROC.get(), Ordering::SeqCst);
    }

    fn unlock(&self) {
        self.holder.store(NOBODY, Ordering::SeqCst);
        self.inner.unlock();
    }

    fn try_lock(&self) -> bool {
        let won = self.inner.try_lock();
        if won {
            self.holder.store(PROC.get(), Ordering::SeqCst);
        }
        won
    }
}

/// The production abortable stack behind scripted aborts and the
/// Lemma 2 ghost. None of the ghost's words is a yield point, so each
/// of its steps is atomic with the counted access before it — except
/// where an attempt *starts*: that takes a yield point of its own, so
/// an attempt cleared at line 01 can be overtaken by the holder before
/// it begins, which is what "in flight at the raise" means.
struct Lemma2 {
    stack: AbortableStack<u32>,
    holder: Arc<AtomicUsize>,
    /// Attempts still to be answered ⊥ (untouched), per process.
    vetoes: [AtomicUsize; 2],
    /// A holder is between its first line-08 attempt and its
    /// successful one.
    window: AtomicBool,
    /// Fast attempts started inside the current window, per process.
    started: [AtomicUsize; 2],
}

impl Abortable for Lemma2 {
    type Op = StackOp<u32>;
    type Response = StackResponse<u32>;

    fn try_apply(&self, op: &StackOp<u32>) -> Result<StackResponse<u32>, Aborted> {
        let me = PROC.get();
        yield_access();
        let holding = self.holder.load(Ordering::SeqCst) == me;
        if holding {
            if !self.window.swap(true, Ordering::SeqCst) {
                self.started
                    .iter()
                    .for_each(|s| s.store(0, Ordering::SeqCst));
            }
        } else if self.window.load(Ordering::SeqCst) {
            let nth = self.started[me].fetch_add(1, Ordering::SeqCst) + 1;
            assert!(
                nth <= 1,
                "Lemma 2's premise broken: process {me} started fast attempt \
                 #{nth} inside one line-08 window"
            );
        }
        let vetoed = self.vetoes[me]
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok();
        if vetoed {
            return Err(Aborted);
        }
        let res = self.stack.try_apply(op);
        if holding && res.is_ok() {
            self.window.store(false, Ordering::SeqCst);
        }
        res
    }
}

/// The two planted mistakes in Figure 3's fast-path loop.
#[derive(Clone, Copy)]
enum Mutation {
    /// `CONTENTION` is read once, at line 01, and the retries go on
    /// using that clearance.
    NoReread,
    /// A raised `CONTENTION` is waited out as shipped, but the attempt
    /// after the pause goes ahead without reading it again.
    WaitThenAttempt,
}

/// Figure 3 over the same production pieces — `StarvationFree`, the
/// `CONTENTION` register, `retry_pause` — with one mutation.
struct Mutant {
    inner: Lemma2,
    contention: RegBool,
    lock: StarvationFree<Watched>,
    mutation: Mutation,
}

impl Mutant {
    /// Lines 01–03, mutated; `None` goes to the lock.
    fn fast_path(&self, op: &StackOp<u32>) -> Option<StackResponse<u32>> {
        if let Mutation::NoReread = self.mutation {
            if self.contention.read() {
                return None;
            }
        }
        for attempt in 0..FAST_ATTEMPTS {
            if attempt > 0 {
                retry_pause();
            }
            match self.mutation {
                // THE MUTATION: no `if self.contention.read() {
                // continue }` ahead of this retry — the operation goes
                // on using the clearance it got at line 01.
                Mutation::NoReread => {}
                Mutation::WaitThenAttempt => {
                    if self.contention.read() {
                        // THE MUTATION: wait, then attempt on a
                        // clearance nobody gave.
                        retry_pause();
                    }
                }
            }
            if let Ok(res) = self.inner.try_apply(op) {
                return Some(res);
            }
        }
        None
    }

    fn apply(&self, proc: usize, op: &StackOp<u32>) -> StackResponse<u32> {
        if let Some(res) = self.fast_path(op) {
            return res;
        }
        self.lock.lock(proc);
        self.contention.write(true);
        let mut spinner = Spinner::new();
        let res = loop {
            match self.inner.try_apply(op) {
                Ok(res) => break res,
                Err(Aborted) => spinner.spin(),
            }
        };
        self.contention.write(false);
        self.lock.unlock(proc);
        res
    }
}

/// Process 0's push is refused off the fast path altogether and takes
/// the lock; process 1's is refused every attempt but its last, so it
/// is between retries when — in some schedules — the window has opened
/// around it.
fn lemma2_body(mutant: Option<Mutation>) {
    let holder = Arc::new(AtomicUsize::new(NOBODY));
    let inner = Lemma2 {
        stack: AbortableStack::new(4),
        holder: Arc::clone(&holder),
        vetoes: [
            AtomicUsize::new(FAST_ATTEMPTS as usize),
            AtomicUsize::new(FAST_RETRIES as usize),
        ],
        window: AtomicBool::new(false),
        started: [AtomicUsize::new(0), AtomicUsize::new(0)],
    };
    let lock = Watched {
        inner: TasLock::new(),
        holder,
    };
    let apply: Arc<dyn Fn(usize, u32) -> StackResponse<u32> + Send + Sync> =
        if let Some(mutation) = mutant {
            let fig3 = Mutant {
                inner,
                contention: RegBool::new(false),
                lock: StarvationFree::new(lock, 2),
                mutation,
            };
            Arc::new(move |proc, v| fig3.apply(proc, &StackOp::Push(v)))
        } else {
            let fig3 = ContentionSensitive::new(inner, lock, 2);
            Arc::new(move |proc, v| fig3.apply(proc, &StackOp::Push(v)))
        };
    let pushed = StackResponse::Push(PushOutcome::Pushed);
    let child = {
        let apply = Arc::clone(&apply);
        spawn(move || {
            PROC.set(1);
            assert_eq!(apply(1, 2), pushed);
        })
    };
    PROC.set(0);
    assert_eq!(apply(0, 1), pushed);
    child.join();
}

/// The control: the shipped loop keeps the premise in every schedule.
#[test]
fn shipped_retry_loop_keeps_lemma_2s_premise() {
    let report = Explorer::exhaustive()
        .with_preemption_bound(Some(3))
        .explore(|| lemma2_body(None));
    println!("shipped_retry_loop_keeps_lemma_2s_premise: {report}");
    report.assert_ok();
    assert!(report.exhausted, "{report}");
    assert!(report.schedules > 100, "{report}");
}

/// A planted bug dies under the Lemma 2 oracle, and its trace replays.
fn assert_killed_with_a_replaying_trace(name: &str, mutation: Mutation) {
    let report = Explorer::exhaustive()
        .with_preemption_bound(Some(3))
        .explore(|| lemma2_body(Some(mutation)));
    println!("{name}: {report}");
    let violation = report.assert_violation();
    assert!(
        violation.message.contains("Lemma 2's premise broken"),
        "wrong oracle fired: {}",
        violation.message
    );
    assert!(!violation.trace.is_empty(), "a race has branch decisions");

    let replayed = Explorer::replay(&violation.trace).explore(|| lemma2_body(Some(mutation)));
    assert_eq!(replayed.assert_violation().message, violation.message);
    assert_eq!(replayed.schedules, 1, "replay is a single execution");
}

#[test]
fn no_reread_mutant_is_killed_with_a_replaying_trace() {
    assert_killed_with_a_replaying_trace(
        "no_reread_mutant_is_killed_with_a_replaying_trace",
        Mutation::NoReread,
    );
}

/// Waiting a raise out is safe only because the attempt after the
/// pause re-reads `CONTENTION`: without that read it lands inside the
/// holder's window.
#[test]
fn wait_then_attempt_mutant_is_killed_with_a_replaying_trace() {
    assert_killed_with_a_replaying_trace(
        "wait_then_attempt_mutant_is_killed_with_a_replaying_trace",
        Mutation::WaitThenAttempt,
    );
}

/// Without preemptions the mutants are indistinguishable: each push
/// runs to completion alone, so no attempt ever falls inside a window.
#[test]
fn mutants_survive_serial_schedules() {
    for mutation in [Mutation::NoReread, Mutation::WaitThenAttempt] {
        let report = Explorer::exhaustive()
            .with_preemption_bound(Some(0))
            .explore(|| lemma2_body(Some(mutation)));
        report.assert_ok();
        assert!(report.exhausted, "{report}");
    }
}
