//! The controlled-scheduling session: real threads, one grant at a time.
//!
//! A session serializes a set of *model threads* (real OS threads) so
//! that exactly one runs at any moment. Every shared-memory access of
//! the counted registers ([`crate::reg`]) is a **yield point**: the running thread pauses, the scheduler
//! picks who performs the next access (consulting the DFS [`Path`],
//! the seeded RNG, or a replayed trace), and the chosen thread runs
//! until *its* next yield point. Interleavings of counted accesses are
//! therefore fully controlled; code between two counted accesses
//! (uncounted peeks aside — they are yield points too) executes as an
//! atomic block of the schedule.
//!
//! # Spin discipline
//!
//! Busy-wait loops (`Spinner` in `cso_memory::backoff`)
//! report themselves via the spin hint, which marks the thread
//! *yielded*: it is not scheduled again while any non-yielded thread
//! is runnable. This is loom's treatment of `yield_now`, and it is
//! what keeps exhaustive exploration of spin loops finite — the
//! stuttering re-read branches (schedule the spinner again before
//! anything changed) are pruned, which is sound for safety oracles
//! because a failed re-check of an unchanged register has no effect.
//!
//! # Crashes
//!
//! A thread started with [`spawn_crashing`] is *frozen* once it has
//! passed its crash prefix — `k` yield points, `k` a recorded decision
//! the DFS enumerates like a scheduling choice: it keeps whatever it
//! holds and is never scheduled again, which is the asynchronous
//! model's crash (§5 of the paper). Joining it reports the freeze
//! instead of a value. Frozen threads count as neither runnable nor
//! deadlocked; when only finished and frozen threads remain the
//! execution is over and they unwind like the threads of a stopped
//! session.
//!
//! # Stopping
//!
//! A violation (any panic in the body or a spawned thread), a pruned
//! execution (step budget exceeded), or a deadlock (every live thread
//! blocked on a join) flips the session to a *stopping* state: parked
//! threads wake and unwind with a private sentinel panic, and
//! teardown code (drops) runs **free** — scheduling points become
//! no-ops while the thread is already panicking, so destructors never
//! double-panic through the scheduler.

use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;

use super::path::{Decision, Path};
use super::rng::{self, SplitMix64};
use crate::runtime;

/// `State::active` value meaning "nobody holds the grant" (all model
/// threads finished).
const NO_ACTIVE: usize = usize::MAX;

/// Sentinel panic payload used to unwind model threads when the
/// session stops. Never surfaces to users: the spawn wrapper and the
/// explorer swallow it.
pub(crate) struct ModelAbort;

/// Why a session stopped before the body completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stop {
    /// A thread panicked — an oracle fired or the code under test hit
    /// a bug.
    Violation,
    /// The execution exceeded the per-schedule step budget.
    Pruned,
    /// Every unfinished thread was blocked (join cycle).
    Deadlock,
}

/// Run state of one model thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Run {
    /// Runnable (possibly parked awaiting the grant).
    Ready,
    /// Waiting for thread `.0` to finish (inside `JoinHandle::join`).
    Blocked(usize),
    /// Crashed: past its crash prefix, never scheduled again.
    Frozen,
    /// Finished (or never started because the session stopped).
    Finished,
}

#[derive(Debug)]
struct Th {
    run: Run,
    /// Set by the spin hint; cleared when granted. Yielded threads are
    /// scheduled only when no fresh thread is runnable.
    yielded: bool,
    /// Entropy requests served to this thread (see
    /// [`Session::entropy_seed`]).
    entropy_ctr: u64,
    /// Yield points left before the thread is frozen (`None`: it
    /// never crashes).
    crash_in: Option<usize>,
}

impl Th {
    fn ready(crash_in: Option<usize>) -> Th {
        Th {
            run: Run::Ready,
            yielded: false,
            entropy_ctr: 0,
            crash_in,
        }
    }
}

/// How the session chooses at branch points.
#[derive(Debug, Default)]
pub(crate) enum Chooser {
    /// DFS over the [`Path`] (exhaustive mode).
    Dfs(Path),
    /// Seeded random choice (sweep mode).
    Random(SplitMix64),
    /// Forced decisions from a parsed failure trace.
    Replay {
        decisions: Vec<Decision>,
        pos: usize,
    },
    /// Strict rotation over the runnable threads: the fair scheduler
    /// (every live thread takes one step per round, spinners too).
    RoundRobin,
    /// Placeholder after the explorer takes the chooser back.
    #[default]
    Taken,
}

/// Per-execution limits.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Limits {
    /// Scheduling decisions before the execution is pruned.
    pub max_steps: usize,
    /// Involuntary context switches allowed (`None` = unbounded).
    pub preemption_bound: Option<usize>,
}

#[derive(Debug)]
pub(crate) struct State {
    threads: Vec<Th>,
    active: usize,
    steps: usize,
    preemptions: usize,
    children_alive: usize,
    status: Option<Stop>,
    /// Set once only finished and frozen threads remain: the
    /// execution is complete and the frozen ones may unwind.
    done: bool,
    violation: Option<String>,
    chooser: Chooser,
    /// Branch decisions taken this execution, for trace printing.
    trace: Vec<Decision>,
    limits: Limits,
    /// Per-execution seed: chaos draws, random scheduling, and model
    /// entropy derive from it.
    seed: u64,
}

impl State {
    /// Whether threads should unwind instead of scheduling: the
    /// session stopped, or the execution is complete.
    fn stopping(&self) -> bool {
        self.status.is_some() || self.done
    }

    /// Makes every thread joined on `gone` runnable again.
    fn release_joiners(&mut self, gone: usize) {
        for t in &mut self.threads {
            if t.run == Run::Blocked(gone) {
                t.run = Run::Ready;
            }
        }
    }
}

/// One exploration execution's shared scheduler state.
pub(crate) struct Session {
    mx: Mutex<State>,
    cv: Condvar,
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Session>, usize)>> = const { RefCell::new(None) };
}

/// The calling thread's session registration, if any.
pub(crate) fn current() -> Option<(Arc<Session>, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Registers (or clears) the calling thread as a model thread, and
/// sets (or clears) the session bit of its hooks word to
/// match: the bit is what turns its register accesses into yield
/// points.
fn set_current(v: Option<(Arc<Session>, usize)>) {
    runtime::set_session(v.is_some());
    CURRENT.with(|c| *c.borrow_mut() = v);
}

/// Unwind out of a stopped session — unless the thread is already
/// panicking (teardown drops), in which case scheduling is a no-op.
/// `resume_unwind` skips the panic hook: every execution with a
/// frozen or pruned thread ends this way, and none of them is news.
fn bail() {
    if !thread::panicking() {
        panic::resume_unwind(Box::new(ModelAbort));
    }
}

impl Session {
    pub(crate) fn new(limits: Limits, chooser: Chooser, seed: u64) -> Session {
        Session {
            mx: Mutex::new(State {
                threads: vec![Th::ready(None)],
                active: 0,
                steps: 0,
                preemptions: 0,
                children_alive: 0,
                status: None,
                done: false,
                violation: None,
                chooser,
                trace: Vec::new(),
                limits,
                seed,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.mx.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Picks the next thread to run. `from` is the thread releasing
    /// the grant (it is a candidate iff still `Ready`). On success the
    /// grant has moved and waiters were notified.
    fn decide(&self, st: &mut State, from: usize) -> Result<(), Stop> {
        let enabled: Vec<usize> = (0..st.threads.len())
            .filter(|&i| st.threads[i].run == Run::Ready)
            .collect();
        if enabled.is_empty() {
            if st.threads.iter().any(|t| matches!(t.run, Run::Blocked(_))) {
                return Err(Stop::Deadlock);
            }
            st.active = NO_ACTIVE;
            st.done = true;
            self.cv.notify_all();
            return Ok(());
        }
        let fresh: Vec<usize> = enabled
            .iter()
            .copied()
            .filter(|&i| !st.threads[i].yielded)
            .collect();
        if fresh.is_empty() || matches!(st.chooser, Chooser::RoundRobin) {
            // Every runnable thread is parked in a voluntary spin-wait
            // (or the session is a fair run, which rotates always).
            // Branching here would square the schedule space with each
            // poll pair, and charging the switch as a preemption pins a
            // busy-waiter until the step limit; neither models anything
            // real — stutter steps of busy-waiters commute. Rotate
            // round-robin instead: deterministic, free, and every
            // waiter keeps making poll progress, so the one whose
            // condition has become true eventually runs.
            let chosen = enabled
                .iter()
                .copied()
                .find(|&i| i > from)
                .unwrap_or(enabled[0]);
            st.active = chosen;
            st.threads[chosen].yielded = false;
            self.cv.notify_all();
            return Ok(());
        }
        let mut cands = fresh;
        // Prefer continuing the current thread: the first DFS branch
        // runs each thread to its next voluntary pause, and every
        // schedule beyond it costs explicit context switches.
        if let Some(p) = cands.iter().position(|&c| c == from) {
            cands.rotate_left(p);
        }
        let continuable = cands.first() == Some(&from);
        if continuable {
            if let Some(bound) = st.limits.preemption_bound {
                if st.preemptions >= bound {
                    cands.truncate(1);
                }
            }
        }
        let branching = cands.len() > 1;
        let chosen = match &mut st.chooser {
            Chooser::Dfs(path) => path.choose_sched(&cands),
            Chooser::Random(rng) => cands[rng.next_below(cands.len() as u64) as usize],
            Chooser::Replay { decisions, pos } => {
                if branching {
                    let d = decisions.get(*pos).copied();
                    *pos += 1;
                    match d {
                        Some(Decision::Sched(t)) if cands.contains(&t) => t,
                        _ => cands[0],
                    }
                } else {
                    cands[0]
                }
            }
            Chooser::RoundRobin | Chooser::Taken => cands[0],
        };
        if branching {
            st.trace.push(Decision::Sched(chosen));
        }
        if chosen != from && continuable {
            st.preemptions += 1;
        }
        st.active = chosen;
        st.threads[chosen].yielded = false;
        self.cv.notify_all();
        Ok(())
    }

    /// Applies a `Stop`, recording a deadlock description if needed.
    fn stop_with(&self, st: &mut State, stop: Stop) {
        if st.status.is_none() {
            st.status = Some(stop);
            if stop == Stop::Deadlock && st.violation.is_none() {
                let blocked: Vec<String> = st
                    .threads
                    .iter()
                    .enumerate()
                    .filter_map(|(i, t)| match t.run {
                        Run::Blocked(on) => Some(format!("thread {i} joined-on {on}")),
                        _ => None,
                    })
                    .collect();
                st.violation = Some(format!("model deadlock: {}", blocked.join(", ")));
            }
        }
        self.cv.notify_all();
    }

    /// Hands the grant on from `me` and parks until it comes back;
    /// unwinds if the session stops first.
    fn pass_grant(&self, mut st: MutexGuard<'_, State>, me: usize) {
        st.steps += 1;
        let stop = if st.steps > st.limits.max_steps {
            Err(Stop::Pruned)
        } else {
            self.decide(&mut st, me)
        };
        if let Err(stop) = stop {
            self.stop_with(&mut st, stop);
        }
        while st.active != me && !st.stopping() {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        if st.stopping() {
            drop(st);
            bail();
        }
    }

    /// The scheduling point: pause, let the scheduler pick, resume
    /// when granted. `spin` marks the caller as busy-waiting.
    pub(crate) fn yield_point(self: &Arc<Session>, me: usize, spin: bool) {
        let mut st = self.lock();
        if st.stopping() {
            drop(st);
            return bail();
        }
        debug_assert_eq!(st.active, me, "yield point from a non-granted thread");
        match &mut st.threads[me].crash_in {
            Some(0) => {
                // The crash: keep everything held, never run again.
                st.threads[me].run = Run::Frozen;
                st.release_joiners(me);
                if let Err(stop) = self.decide(&mut st, me) {
                    self.stop_with(&mut st, stop);
                }
                while !st.stopping() {
                    st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                }
                drop(st);
                return bail();
            }
            Some(left) => *left -= 1,
            None => {}
        }
        if spin {
            st.threads[me].yielded = true;
        }
        self.pass_grant(st, me);
    }

    /// Registers a new model thread; returns its id. With
    /// `max_prefix`, the thread crashes: the chooser decides after how
    /// many yield points (`0..=max_prefix`) it is frozen.
    fn register(&self, max_prefix: Option<usize>) -> usize {
        let mut st = self.lock();
        let crash_in = max_prefix.map(|max| {
            let k = match &mut st.chooser {
                Chooser::Dfs(path) => path.choose_crash(max),
                Chooser::Random(rng) => rng.next_below(max as u64 + 1) as usize,
                Chooser::Replay { decisions, pos } => {
                    let d = decisions.get(*pos).copied();
                    *pos += 1;
                    match d {
                        Some(Decision::Crash(k)) => k.min(max),
                        _ => 0,
                    }
                }
                // A fair run decides nothing: the caller's prefix it is.
                Chooser::RoundRobin | Chooser::Taken => max,
            };
            st.trace.push(Decision::Crash(k));
            k
        });
        st.threads.push(Th::ready(crash_in));
        st.children_alive += 1;
        st.threads.len() - 1
    }

    /// Marks `me` finished, unblocks its joiners, and hands the grant
    /// on. Children also decrement the live count.
    pub(crate) fn finish_thread(&self, me: usize, is_child: bool) {
        let mut st = self.lock();
        st.threads[me].run = Run::Finished;
        if is_child {
            st.children_alive -= 1;
        }
        st.release_joiners(me);
        if !st.stopping() {
            if let Err(stop) = self.decide(&mut st, me) {
                self.stop_with(&mut st, stop);
            }
        }
        self.cv.notify_all();
    }

    /// Blocks `me` until `child` finishes or is frozen
    /// (scheduler-aware join); returns whether it finished.
    pub(crate) fn join_wait(self: &Arc<Session>, me: usize, child: usize) -> bool {
        let mut st = self.lock();
        if st.stopping() {
            drop(st);
            bail();
            return true;
        }
        if !matches!(st.threads[child].run, Run::Finished | Run::Frozen) {
            st.threads[me].run = Run::Blocked(child);
            self.pass_grant(st, me);
            st = self.lock();
        }
        st.threads[child].run == Run::Finished
    }

    /// Records the first real violation and flips the session to
    /// stopping. `ModelAbort` payloads are not violations.
    pub(crate) fn record_panic(&self, who: usize, payload: &(dyn std::any::Any + Send)) {
        if payload.is::<ModelAbort>() {
            return;
        }
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "non-string panic payload".to_string());
        let mut st = self.lock();
        if st.violation.is_none() {
            st.violation = Some(format!("thread {who} panicked: {msg}"));
        }
        self.stop_with(&mut st, Stop::Violation);
    }

    /// Schedule-deterministic fire/skip draw for a `one_in` chaos
    /// plan (on a model thread, the replacement for the fail-point registry's
    /// wall-clock-ordered RNG).
    pub(crate) fn chaos_draw(&self, one_in: u64) -> bool {
        let mut st = self.lock();
        if one_in <= 1 {
            return true;
        }
        let seed = st.seed;
        let fired = match &mut st.chooser {
            Chooser::Dfs(path) => path.choose_chaos(one_in, seed),
            Chooser::Random(rng) => rng.next_below(one_in) == 0,
            Chooser::Replay { decisions, pos } => {
                let d = decisions.get(*pos).copied();
                *pos += 1;
                match d {
                    Some(Decision::Chaos(fired)) => fired,
                    _ => false,
                }
            }
            Chooser::RoundRobin | Chooser::Taken => false,
        };
        st.trace.push(Decision::Chaos(fired));
        fired
    }

    /// A deterministic "entropy" seed for thread-local RNGs of code
    /// under test (e.g. the exchanger's slot picker): a pure function
    /// of the execution seed, the thread id, and a per-thread counter,
    /// so replays reseed identically.
    pub(crate) fn entropy_seed(&self, me: usize) -> u64 {
        let mut st = self.lock();
        let ctr = st.threads[me].entropy_ctr;
        st.threads[me].entropy_ctr += 1;
        rng::mix(
            st.seed
                ^ (me as u64).wrapping_mul(0x9E6D_62D0_6F6A_9A9B)
                ^ ctr.wrapping_mul(0xD1B5_4A32_D192_ED03),
        )
    }

    /// Teardown driver, run by the explorer after the body returned
    /// or unwound: marks thread 0 finished, lets any unjoined children
    /// drain, and waits until every child OS thread has left the
    /// session. Returns the execution's outcome.
    pub(crate) fn shutdown(&self, body_panic: Option<&(dyn std::any::Any + Send)>) -> RunOutcome {
        if let Some(payload) = body_panic {
            self.record_panic(0, payload);
        }
        let mut st = self.lock();
        st.threads[0].run = Run::Finished;
        if !st.stopping() {
            if let Err(stop) = self.decide(&mut st, 0) {
                self.stop_with(&mut st, stop);
            }
        } else {
            self.cv.notify_all();
        }
        while st.children_alive > 0 {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        RunOutcome {
            stop: st.status,
            violation: st.violation.take(),
            trace: std::mem::take(&mut st.trace),
            chooser: std::mem::take(&mut st.chooser),
        }
    }
}

/// What one execution produced (collected by the explorer).
pub(crate) struct RunOutcome {
    pub stop: Option<Stop>,
    pub violation: Option<String>,
    pub trace: Vec<Decision>,
    pub chooser: Chooser,
}

/// Runs `body` as model thread 0 of a fresh session and tears the
/// session down afterwards.
pub(crate) fn run_once(
    limits: Limits,
    chooser: Chooser,
    seed: u64,
    body: &(dyn Fn() + Sync),
) -> RunOutcome {
    let sess = Arc::new(Session::new(limits, chooser, seed));
    set_current(Some((Arc::clone(&sess), 0)));
    let result = panic::catch_unwind(AssertUnwindSafe(body));
    set_current(None);
    sess.shutdown(result.err().as_deref())
}

/// Handle to a thread spawned inside a model session (the
/// scheduler-aware analogue of [`std::thread::JoinHandle`]).
pub struct JoinHandle<T> {
    os: thread::JoinHandle<()>,
    tid: usize,
    result: Arc<Mutex<Option<T>>>,
    sess: Arc<Session>,
}

impl<T> JoinHandle<T> {
    /// The thread's model id (as printed in replay traces; the body
    /// is thread 0, spawned threads count up from 1).
    #[must_use]
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Waits — under scheduler control — for the thread to finish and
    /// returns its value.
    ///
    /// # Panics
    ///
    /// Panics if the thread was frozen by its crash prefix (use
    /// [`JoinHandle::try_join`] for a [`spawn_crashing`] thread).
    /// Unwinds with the session's abort sentinel if the session
    /// stopped (violation elsewhere, prune, deadlock); the explorer
    /// catches it.
    pub fn join(self) -> T {
        self.try_join().expect("joined a crashed model thread")
    }

    /// Waits — under scheduler control — until the thread finishes or
    /// is frozen by its crash prefix: `Some(value)` if it finished,
    /// `None` if it crashed (it stays frozen, holding whatever it
    /// held, until the execution ends).
    ///
    /// # Panics
    ///
    /// Unwinds with the session's abort sentinel if the session
    /// stopped; the explorer catches it.
    pub fn try_join(self) -> Option<T> {
        let (sess, me) = current().expect("join outside a model session");
        debug_assert!(Arc::ptr_eq(&sess, &self.sess), "join across sessions");
        if !sess.join_wait(me, self.tid) {
            return None;
        }
        // The child already finished its model work; the OS join is
        // immediate and never carries a panic (the wrapper catches).
        self.os.join().expect("model thread wrapper never panics");
        let value = self.result.lock().unwrap_or_else(|e| e.into_inner()).take();
        Some(value.expect("model thread finished without a value"))
    }
}

/// Spawns a model thread in the calling thread's session.
///
/// The child does not run until the scheduler grants it a step, so
/// the spawn itself is invisible to the schedule: the child becomes a
/// candidate at the parent's next yield point.
///
/// # Panics
///
/// Panics if the calling thread is not inside a model session (use
/// [`super::Explorer::explore`] to start one).
pub fn spawn<T, F>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    spawn_with(None, f)
}

/// Spawns a model thread that **crashes**: after `k` yield points it
/// is frozen for good — never scheduled again, still holding whatever
/// it held — where `k` in `0..=max_prefix` is a decision of the
/// schedule. An exhaustive exploration freezes the thread at every
/// prefix in turn, a random sweep draws one per execution, and a
/// failure trace records it (`k<n>`) so the crash replays; a fair run
/// ([`super::Explorer::round_robin`]) makes no decisions and freezes it
/// after exactly `max_prefix`. A thread that returns before its `k`-th
/// yield point simply finishes; tell the two apart with
/// [`JoinHandle::try_join`].
///
/// # Panics
///
/// Panics if the calling thread is not inside a model session.
pub fn spawn_crashing<T, F>(max_prefix: usize, f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    spawn_with(Some(max_prefix), f)
}

fn spawn_with<T, F>(max_prefix: Option<usize>, f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let (sess, _parent) = current().expect("sched: spawn outside a model session");
    let tid = sess.register(max_prefix);
    let result: Arc<Mutex<Option<T>>> = Arc::new(Mutex::new(None));
    let os = {
        let sess = Arc::clone(&sess);
        let result = Arc::clone(&result);
        thread::Builder::new()
            .name(format!("model-{tid}"))
            .spawn(move || {
                // Wait for the first grant before touching anything.
                {
                    let mut st = sess.lock();
                    loop {
                        if st.stopping() {
                            // Session stopped before we ever ran.
                            drop(st);
                            sess.finish_thread(tid, true);
                            return;
                        }
                        if st.active == tid {
                            break;
                        }
                        st = sess.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                    }
                }
                set_current(Some((Arc::clone(&sess), tid)));
                let out = panic::catch_unwind(AssertUnwindSafe(f));
                set_current(None);
                match out {
                    Ok(v) => {
                        *result.lock().unwrap_or_else(|e| e.into_inner()) = Some(v);
                    }
                    Err(payload) => sess.record_panic(tid, payload.as_ref()),
                }
                sess.finish_thread(tid, true);
            })
            .expect("failed to spawn model thread")
    };
    JoinHandle {
        os,
        tid,
        result,
        sess,
    }
}

/// Yield point hook: what every counted register access (and uncounted
/// peek) of [`crate::reg`] calls on a model thread. No-op when the
/// calling thread is not in a session.
#[cold]
pub fn yield_access() {
    if let Some((sess, me)) = current() {
        sess.yield_point(me, false);
    }
}

/// Spin hint hook: a yield point that also marks the thread as
/// busy-waiting. Returns `true` if a session absorbed the wait (the
/// caller should skip its real spinning/sleeping).
pub fn yield_spin() -> bool {
    match current() {
        Some((sess, me)) => {
            sess.yield_point(me, true);
            true
        }
        None => false,
    }
}

/// Chaos hook: schedule-deterministic fire/skip draw for a `one_in`
/// fail-point plan. `None` when no session is active (the caller
/// falls back to its own RNG).
#[must_use]
pub fn chaos_draw(one_in: u64) -> Option<bool> {
    current().map(|(sess, _)| sess.chaos_draw(one_in))
}

/// Deterministic replacement for entropy seeding of thread-local
/// RNGs. `None` when no session is active.
#[must_use]
pub fn entropy_seed() -> Option<u64> {
    current().map(|(sess, me)| sess.entropy_seed(me))
}

/// Whether the calling thread runs under a model session.
#[must_use]
pub fn active() -> bool {
    runtime::in_session()
}
