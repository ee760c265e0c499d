//! The harness the `model_*` bodies share: scripted threads, recorded
//! histories, and the oracles of DESIGN.md's V1–V8 rows.
//!
//! A body runs once per explored schedule. It builds a production
//! object, hands [`run_scripts`] one operation script per model thread
//! (thread 0 is the body itself) and gets back a [`Note`] per
//! operation: who ran it, over which interval of a logical clock,
//! whether it returned ⊥, and how many counted accesses it cost. The
//! history keeps only the operations that took effect —
//! [`cso::lincheck::Recorder::cancel`] erases a ⊥ — so checking it
//! *is* checking that aborted operations are no-ops. The body then
//! [`settle`]s the object inside the same history (drain to `Empty`,
//! probe to `Full`): the combined history linearizes iff the
//! concurrent part does *and* some linearization of it leaves exactly
//! the state the drain observed. The specification is the object
//! crate's own `Seq*` type, started from the state the body built.

#![allow(dead_code)]

use std::fmt::Debug;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cso::core::Abortable;
use cso::deque::{DequeOp, DequePopOutcome, DequePushOutcome, DequeResponse, End, SeqDeque};
use cso::lincheck::checker::check_linearizable;
use cso::lincheck::recorder::Recorder;
use cso::lincheck::spec::SeqSpec;
use cso::memory::counting::CountScope;
use cso::queue::{DequeueOutcome, QueueOp, QueueResponse, SeqQueue};
use cso::sched::{spawn, Explorer, Report};
use cso::stack::{CsStack, PopOutcome, SeqStack, StackOp, StackResponse};

/// Bodies that arm fail points share one process-global registry;
/// every test of such a file holds this for its whole run.
pub fn serial() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    cso::memory::chaos::reset();
    guard
}

/// A sequential specification that is its own state (the object
/// crates' `Seq*` types) — and the two things a body does around its
/// race: fill the object with values, and turn its final state into
/// history.
pub trait Reference: SeqSpec<State = Self> + Clone {
    /// The operation a pre-fill inserts `v` with.
    fn put(v: u32) -> Self::Op;
    /// The quiescent tail: each `(op, resp)` is applied, recorded,
    /// until it answers `resp` (see [`settle`]) — a drain.
    fn closing() -> Vec<(Self::Op, Self::Resp)>;
}

impl Reference for SeqStack<u32> {
    fn put(v: u32) -> Self::Op {
        StackOp::Push(v)
    }
    fn closing() -> Vec<(Self::Op, Self::Resp)> {
        vec![(StackOp::Pop, StackResponse::Pop(PopOutcome::Empty))]
    }
}

impl Reference for SeqQueue<u32> {
    fn put(v: u32) -> Self::Op {
        QueueOp::Enqueue(v)
    }
    fn closing() -> Vec<(Self::Op, Self::Resp)> {
        vec![(
            QueueOp::Dequeue,
            QueueResponse::Dequeue(DequeueOutcome::Empty),
        )]
    }
}

/// The linear-arena deque: `Full` depends on where the data block has
/// drifted, so after the left drain it pushes left until `Full`, which
/// pins how many left nulls the arena ended with.
impl Reference for SeqDeque<u32> {
    fn put(v: u32) -> Self::Op {
        DequeOp::Push(End::Right, v)
    }
    fn closing() -> Vec<(Self::Op, Self::Resp)> {
        vec![
            (
                DequeOp::Pop(End::Left),
                DequeResponse::Pop(DequePopOutcome::Empty),
            ),
            (
                DequeOp::Push(End::Left, 0),
                DequeResponse::Push(DequePushOutcome::Full),
            ),
        ]
    }
}

/// One operation of one execution.
#[derive(Debug, Clone)]
pub struct Note<Resp> {
    pub proc: usize,
    /// Logical-clock interval of the call. Only one model thread runs
    /// at a time, so the ticks are exact.
    pub start: u64,
    pub end: u64,
    /// What the call returned; `None` is ⊥.
    pub resp: Option<Resp>,
    /// Counted shared accesses the call made.
    pub accesses: u64,
}

impl<Resp> Note<Resp> {
    pub fn aborted(&self) -> bool {
        self.resp.is_none()
    }
}

/// How many of `notes` returned ⊥.
pub fn aborts<Resp>(notes: &[Note<Resp>]) -> usize {
    notes.iter().filter(|n| n.aborted()).count()
}

/// An object under test, as the scripts see it: process `proc`
/// applies `op`; `None` is ⊥ (strong objects never return it).
pub type ApplyFn<Op, Resp> = dyn Fn(usize, &Op) -> Option<Resp> + Send + Sync;

/// [`ApplyFn`] in a reference's vocabulary, shared between threads.
pub type Apply<R> = Arc<ApplyFn<<R as SeqSpec>::Op, <R as SeqSpec>::Resp>>;

/// A weak object as the scripts see it: `try_apply`, ⊥ as `None`.
pub fn weak<O: Abortable + 'static>(object: O) -> Arc<ApplyFn<O::Op, O::Response>> {
    Arc::new(move |_proc, op| object.try_apply(op).ok())
}

/// Figure 3's stack as the scripts see it: process `proc` applies
/// `op`; never ⊥.
pub fn strong_stack(stack: &Arc<CsStack<u32>>) -> Apply<SeqStack<u32>> {
    let stack = Arc::clone(stack);
    Arc::new(move |proc, op| {
        Some(match *op {
            StackOp::Push(v) => StackResponse::Push(stack.push(proc, v)),
            StackOp::Pop => StackResponse::Pop(stack.pop(proc)),
        })
    })
}

fn run_script<Op: Clone, Resp: Clone>(
    proc: usize,
    script: &[Op],
    apply: &ApplyFn<Op, Resp>,
    recorder: &Recorder<Op, Resp>,
    clock: &AtomicU64,
) -> Vec<Note<Resp>> {
    script
        .iter()
        .map(|op| {
            recorder.invoke(proc, op.clone());
            let start = clock.fetch_add(1, Ordering::SeqCst);
            let scope = CountScope::start();
            let resp = apply(proc, op);
            let accesses = scope.take().total();
            let end = clock.fetch_add(1, Ordering::SeqCst);
            match resp.clone() {
                Some(resp) => recorder.ret(proc, resp),
                None => recorder.cancel(proc),
            }
            Note {
                proc,
                start,
                end,
                resp,
                accesses,
            }
        })
        .collect()
}

/// Runs `scripts[p]` on model thread `p` (the caller is thread 0)
/// through `apply` — `None` is ⊥ — and joins. Returns every
/// operation's [`Note`], thread 0's first.
pub fn run_scripts<Op, Resp>(
    recorder: &Recorder<Op, Resp>,
    scripts: Vec<Vec<Op>>,
    apply: Arc<ApplyFn<Op, Resp>>,
) -> Vec<Note<Resp>>
where
    Op: Clone + Send + Sync + 'static,
    Resp: Clone + Send + 'static,
{
    let clock = Arc::new(AtomicU64::new(0));
    let mut scripts = scripts.into_iter().enumerate();
    let (_, mine) = scripts.next().expect("thread 0 needs a script");
    let children: Vec<_> = scripts
        .map(|(proc, script)| {
            let (apply, recorder, clock) =
                (Arc::clone(&apply), recorder.clone(), Arc::clone(&clock));
            spawn(move || run_script(proc, &script, &*apply, &recorder, &clock))
        })
        .collect();
    let mut notes = run_script(0, &mine, &*apply, recorder, &clock);
    for child in children {
        notes.extend(child.join());
    }
    notes
}

/// Applies `op` on thread 0, recorded, until it answers `last`;
/// returns how many calls that took. Run at quiescence it turns the
/// object's final state into history: drain with a pop until `Empty`,
/// or find the arena's edge with a push until `Full`.
pub fn settle<Op: Clone, Resp: Clone + PartialEq>(
    recorder: &Recorder<Op, Resp>,
    apply: &ApplyFn<Op, Resp>,
    op: Op,
    last: &Resp,
) -> usize {
    let mut calls = 0;
    loop {
        recorder.invoke(0, op.clone());
        let resp = apply(0, &op).expect("a solo operation returned ⊥");
        calls += 1;
        let done = resp == *last;
        recorder.ret(0, resp);
        if done {
            return calls;
        }
    }
}

/// One execution of a scripted body: build the object up to the
/// `prefill`ed `reference` solo, race the `scripts`, drain the object
/// into the history ([`Reference::closing`]), and check the lot —
/// history and abort contract. Returns the notes of the raced
/// operations.
pub fn scripted_body<R: Reference>(
    apply: Apply<R>,
    mut reference: R,
    prefill: &[u32],
    scripts: &[Vec<R::Op>],
) -> Vec<Note<R::Resp>>
where
    R::Op: Debug + Send + Sync + 'static,
    R::Resp: Debug + Send + 'static,
{
    for op in prefill.iter().map(|&v| R::put(v)) {
        let built = apply(0, &op).expect("solo prefill returned ⊥");
        let (next, expected) = reference.step(&reference, &op);
        assert_eq!(built, expected, "prefill {op:?}");
        reference = next;
    }
    let recorder = Recorder::new();
    let notes = run_scripts(&recorder, scripts.to_vec(), Arc::clone(&apply));
    for (op, last) in R::closing() {
        settle(&recorder, &*apply, op, &last);
    }
    assert_linearizable(reference, &recorder);
    assert_aborts_are_contended(&notes);
    notes
}

/// Wing–Gong over everything the recorder holds.
pub fn assert_linearizable<R>(initial: R, recorder: &Recorder<R::Op, R::Resp>)
where
    R: SeqSpec<State = R>,
    R::Op: Debug,
    R::Resp: Debug,
{
    let history = recorder.finish();
    assert!(
        check_linearizable(&initial, &history).is_linearizable(),
        "history does not linearize:\n{history}"
    );
}

fn overlapped<Resp>(notes: &[Note<Resp>], a: &Note<Resp>) -> bool {
    notes
        .iter()
        .any(|b| b.proc != a.proc && b.start < a.end && a.start < b.end)
}

/// The abortability contract over one execution's notes (§3, E2): an
/// operation returns ⊥ only if another thread's operation overlapped
/// it — zero aborts solo, aborts only with an interleaved peer.
/// Returns the number of aborts.
pub fn assert_aborts_are_contended<Resp: Debug>(notes: &[Note<Resp>]) -> usize {
    for note in notes.iter().filter(|n| n.aborted()) {
        assert!(
            overlapped(notes, note),
            "⊥ with no concurrent peer: {note:?}"
        );
    }
    aborts(notes)
}

/// Figure 1's (and the queue's) stronger half: a weak operation
/// aborts only because a peer's decisive C&S *succeeded*, so of the
/// operations that had a concurrent peer at least one took effect.
/// (Not so for the HLM deque, whose two-C&S operations can abort each
/// other — it is obstruction-free only.)
pub fn assert_someone_wins<Resp: Debug>(notes: &[Note<Resp>]) {
    let aborts = aborts(notes);
    let contended = notes.iter().filter(|n| overlapped(notes, n)).count();
    assert!(
        aborts <= contended.saturating_sub(1),
        "{aborts} aborts among {contended} contended operations: {notes:?}"
    );
}

/// Two threads × one operation: the whole space, no preemption bound.
pub fn unbounded() -> Explorer {
    Explorer::exhaustive().with_preemption_bound(None)
}

/// Deeper bodies: at most `preemptions` involuntary switches (3–4
/// keeps them near 5k schedules where unbounded exceeds 400k), to be
/// followed by a seeded sweep for what the bound cuts.
pub fn bounded(preemptions: usize) -> Explorer {
    Explorer::exhaustive().with_preemption_bound(Some(preemptions))
}

/// Every exhaustive body ends here: no violation, nothing pruned, the
/// space run dry — and the `Report` on stdout, where CI's
/// `--nocapture` puts the schedule count in the log.
pub fn assert_exhausted(name: &str, report: &Report) {
    println!("{name}: {report}");
    report.assert_ok();
    assert!(report.exhausted, "{name}: {report}");
}

/// The sweep counterpart of [`assert_exhausted`].
pub fn assert_swept(name: &str, report: &Report, schedules: usize) {
    println!("{name}: {report}");
    report.assert_ok();
    assert_eq!(report.schedules, schedules, "{name}: {report}");
}

/// The deeper bodies' two passes: the DFS at `preemptions`, run dry,
/// then `sweep` seeded-random schedules for what the bound cuts.
/// Returns the DFS's report.
pub fn bounded_then_swept(
    name: &str,
    preemptions: usize,
    (seed, sweep): (u64, usize),
    body: impl Fn() + Sync,
) -> Report {
    let report = bounded(preemptions).explore(&body);
    assert_exhausted(&format!("{name} (bound {preemptions})"), &report);
    let swept = Explorer::random(seed, sweep).explore(&body);
    assert_swept(&format!("{name} (random)"), &swept, sweep);
    report
}
