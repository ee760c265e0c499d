//! The lane router: affinity, bounded stealing, telemetry.
//!
//! [`Sharded`] is generic over the lane type (a `CsStack` or
//! `CsQueue`) and has what the two sharded objects share, once: the
//! accessors, the metrics and the `Debug` impl. `stack.rs` and
//! `queue.rs` add each alias's constructor and two operations.
//!
//! The router keeps **no record of occupancy of its own**: a lane's
//! size is the `index` field of its `TOP` register (the queue's
//! `TAIL − HEAD`), and the router reads it there, through the lane's
//! *uncounted* [`peek_len`](ShardLane::lane_peek_len). So a
//! routed operation spends exactly the lane's own counted budget —
//! Theorem 1's six accesses for a solo stack op, seven for the queue —
//! and there is no copy of the number to maintain, drift or heal.
//!
//! Uncounted is not free, so the router also keeps a *cost* contract,
//! in every configuration: an operation that stays in its home lane
//! executes **no locked instruction, writes no shared word of the
//! router's own, and runs no probe loop**. It peeks the line of the
//! lane it is about to C&S, runs the lane operation, and bumps its own
//! stripe of the statistics block; the size is summed by readers, not
//! maintained by writers, and the registry gauges are polled at scrape
//! time. A fixed-lane operation loads no shared word of the router's
//! either; an elastic one loads `active`, which only a transition
//! writes, and the controller behind it is one more reader — the
//! thread whose own stripe of the push (or pop) count crosses a
//! multiple of `eval_period` folds the stripes and the active lanes'
//! abort/locked counts ([`Elastic::evaluate`]).
//!
//! ## Probe protocol
//!
//! *Push:* probe the home lane `proc mod active`, then the rest of
//! the active prefix, then the inactive tail — skipping lanes whose
//! peek reads full. If every lane *peeked* full without a single real
//! probe, answer `Full`: each peek was that lane's true size at an
//! instant inside this operation, so only operations in flight with
//! it can have made room (≤ n − 1 slack). If some lanes were really
//! probed and all answered full, force-probe the skipped ones before
//! answering — so a non-racing `Full` means every lane individually
//! answered full.
//!
//! *Pop:* symmetric, skipping lanes whose peek reads empty: probes
//! start at the home lane and cover **all** lanes (so merged-away
//! lanes drain), then a force-probe round only if a lane that peeked
//! nonempty lost a race.
//!
//! Push and pop run the one order: the home lane's peek and attempt
//! inline (`route`), the rest in one cold routine (`probe`) that only a
//! home lane that peeked full (empty) or lost its race enters. A
//! success off the home lane is a spill (a steal); a skipped home lane
//! that round 2 force-probes is still home.
//!
//! With **one lane** (`ShardConfig::strict`) there is no other lane for
//! an answer to be out of order with: every value is the cell's own
//! answer and every `Full`/`Empty` is the cell's own or a peek of it at
//! an instant inside the operation, so the structure is linearizable
//! against the unrelaxed specification — Theorem 1, with nothing in
//! front of it.
//!
//! ## Crash consistency (the E14 kill sites)
//!
//! There is nothing to heal: a killed lane operation either applied or
//! did not, and either way the lane's register says so. Killed
//! operations can therefore neither leak nor double-count, and a
//! stalled lock holder is the lane's own `RecoveryPolicy` story (§4.4
//! succession), whichever lane it is.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cso_memory::Stripes;
use cso_trace::Registry;

use crate::config::ShardConfig;
use crate::elastic::Elastic;

pub(crate) mod sealed {
    /// Keeps [`ShardLane`](super::ShardLane) closed to the two lane
    /// types this crate routes.
    pub trait Sealed {}
}

/// What a lane must provide to be routable: implemented for `CsStack`
/// and `CsQueue` (with the default TAS lock), and sealed — it is
/// public only because [`Sharded`] names it in its bound.
pub trait ShardLane: sealed::Sealed + Send + Sync + 'static {
    /// The value a lane holds.
    type Value: Copy;
    /// Apply a push/enqueue; `true` = accepted, `false` = full.
    fn lane_push(&self, proc: usize, value: Self::Value) -> bool;
    /// Apply a pop/dequeue; `None` = empty.
    fn lane_pop(&self, proc: usize) -> Option<Self::Value>;
    /// The lane's element count as its own registers hold it, read
    /// with **uncounted** peeks: exact at the instant of the read.
    fn lane_peek_len(&self) -> usize;
    /// Aborted weak operations plus completions under the lock, as the
    /// lane's own statistics hold them: it moves when operations on
    /// this lane got in each other's way.
    fn lane_collisions(&self) -> u64;
    /// Attach the lane's own metrics under `prefix`.
    fn lane_attach_metrics(&self, registry: &Registry, prefix: &str);
}

/// A point-in-time snapshot of the router's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Completed push/enqueue operations routed.
    pub pushes: u64,
    /// Completed pop/dequeue operations routed.
    pub pops: u64,
    /// Pops served from a lane other than the home lane.
    pub steals: u64,
    /// Pushes that landed in a lane other than the home lane.
    pub spills: u64,
    /// Elastic fan-outs (active prefix doubled).
    pub splits: u64,
    /// Elastic contractions (active prefix halved).
    pub merges: u64,
    /// Current active lane prefix length.
    pub active_lanes: usize,
}

const PUSHES: usize = 0;
const POPS: usize = 1;
const STEALS: usize = 2;
const SPILLS: usize = 3;

/// N independent Figure-3 cells of type `T` behind the sharding
/// router, with the accessors [`ShardedCsStack`](crate::ShardedCsStack)
/// and [`ShardedCsQueue`](crate::ShardedCsQueue) share; each alias adds
/// its constructor and operations.
pub struct Sharded<T: ShardLane> {
    /// `Arc` (as are `elastic` and `counters`) so the registry's
    /// polled series can read it at scrape time.
    lanes: Arc<[T]>,
    elastic: Arc<Elastic>,
    /// Router statistics, indexed by the constants above: the one
    /// count of each fact, read by `router_stats()` and by the
    /// registry.
    counters: Arc<Stripes<4>>,
    /// Set by the first `attach_metrics`; later calls are no-ops.
    attached: AtomicBool,
    /// Each lane's capacity: what a push compares a lane's peek
    /// against.
    lane_cap: usize,
    n: usize,
}

/// The lane probe order: the active prefix starting at the home lane
/// (`home < active`), then the inactive tail (so merged-away lanes
/// still drain / absorb spill).
#[inline]
fn probe_lane(home: usize, active: usize, i: usize) -> usize {
    if i >= active {
        i
    } else if home + i >= active {
        home + i - active
    } else {
        home + i
    }
}

/// The sum of the lanes' own counts: O(lanes), uncounted.
fn peek_sum<T: ShardLane>(lanes: &[T]) -> usize {
    lanes.iter().map(T::lane_peek_len).sum()
}

impl<T: ShardLane> Sharded<T> {
    /// `cfg.lanes` cells for processes `0..n`, each built by
    /// `make_lane` at the capacity [`ShardConfig::lane_cap`] derives
    /// from `capacity` through `round`.
    pub(crate) fn build(
        cfg: &ShardConfig,
        n: usize,
        capacity: usize,
        round: impl Fn(usize) -> usize,
        make_lane: impl Fn(usize) -> T,
    ) -> Sharded<T> {
        let lane_cap = cfg.lane_cap(capacity, round);
        Sharded {
            elastic: Arc::new(Elastic::new(
                cfg.lanes,
                cfg.elastic,
                cfg.eval_period,
                cfg.cooldown_evals,
            )),
            lanes: (0..cfg.lanes).map(|_| make_lane(lane_cap)).collect(),
            counters: Arc::new(Stripes::new()),
            attached: AtomicBool::new(false),
            lane_cap,
            n,
        }
    }

    /// Counts a completed operation in the caller's own stripe — which
    /// is also the elastic controller's cadence: the thread whose own
    /// count of `field` crosses a multiple of `eval_period` evaluates.
    #[inline]
    fn completed(&self, field: usize) {
        if self.elastic.due(self.counters.inc(field)) {
            self.evaluate();
        }
    }

    #[cold]
    fn evaluate(&self) {
        let (pushes, pops) = (
            self.counters.per_stripe(PUSHES),
            self.counters.per_stripe(POPS),
        );
        self.elastic.evaluate(
            std::array::from_fn(|stripe| pushes[stripe] + pops[stripe]),
            |active| self.lanes[..active].iter().map(T::lane_collisions).sum(),
        );
    }

    #[inline]
    pub(crate) fn route_push(&self, proc: usize, value: T::Value) -> bool {
        let cap = self.lane_cap;
        let full = move |lane: &T| lane.lane_peek_len() >= cap;
        let push = move |lane: &T| lane.lane_push(proc, value).then_some(());
        self.route(proc, PUSHES, SPILLS, full, push).is_some()
    }

    #[inline]
    pub(crate) fn route_pop(&self, proc: usize) -> Option<T::Value> {
        let empty = |lane: &T| lane.lane_peek_len() == 0;
        self.route(proc, POPS, STEALS, empty, move |lane| lane.lane_pop(proc))
    }

    /// The fast path: peek the home lane and, unless `skip` says its
    /// peek rules it out, `attempt` it — the first step of the probe
    /// order, and for an operation that stays home the only one. On
    /// success the operation is counted in `done`'s stripe.
    ///
    /// Keep `push`'s and `pop`'s closures capturing by value and the
    /// cold call behind its own branch: with an `or_else` closure or
    /// by-reference captures, the compiler builds the cold call's
    /// arguments on the stack before the success test, on every
    /// operation (≈ 1 ns of the router's ≈ 2).
    #[inline]
    fn route<R>(
        &self,
        proc: usize,
        done: usize,
        stray: usize,
        skip: impl Fn(&T) -> bool,
        attempt: impl Fn(&T) -> Option<R>,
    ) -> Option<R> {
        let active = self.elastic.active();
        let home = if proc < active { proc } else { proc % active };
        let lane = &self.lanes[home];
        let probed = !skip(lane);
        if probed {
            if let Some(out) = attempt(lane) {
                self.completed(done);
                return Some(out);
            }
        }
        let out = self.probe(home, active, probed, stray, skip, attempt);
        if out.is_some() {
            self.completed(done);
        }
        out
    }

    /// The rest of the probe order, for a home lane that peeked full
    /// (empty) or lost its race: round 1 from the next lane on, then
    /// round 2 over the lanes round 1 skipped. A success off the home
    /// lane is counted in `stray` (spills, steals).
    #[cold]
    #[inline(never)]
    fn probe<R>(
        &self,
        home: usize,
        active: usize,
        home_probed: bool,
        stray: usize,
        skip: impl Fn(&T) -> bool,
        attempt: impl Fn(&T) -> Option<R>,
    ) -> Option<R> {
        let mut probed = u64::from(home_probed) << home;
        let mut skipped_any = !home_probed;
        let try_lane = |lane: usize| {
            let out = attempt(&self.lanes[lane]);
            if out.is_some() && lane != home {
                self.counters.inc(stray);
            }
            out
        };
        // Round 1: real probes of the lanes whose peek allows one.
        for i in 1..self.lanes.len() {
            let lane = probe_lane(home, active, i);
            if skip(&self.lanes[lane]) {
                skipped_any = true;
                continue;
            }
            probed |= 1 << lane;
            if let Some(out) = try_lane(lane) {
                return Some(out);
            }
        }
        if !skipped_any || probed == 0 {
            // Every lane really answered full (empty), or every lane
            // *peeked* so, each at an instant inside this operation:
            // trust them (slack ≤ n − 1, the operations in flight with
            // this one).
            return None;
        }
        // Round 2: the peeks skipped lanes but a probe lost a race —
        // force-probe the skipped ones before answering.
        (0..self.lanes.len())
            .map(|i| probe_lane(home, active, i))
            .filter(|lane| probed & (1 << lane) == 0)
            .find_map(try_lane)
    }

    /// Total capacity: `lanes × lane_cap`, what the cells can hold
    /// between them (the constructor derives `lane_cap`).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.lanes.len() * self.lane_cap
    }

    /// Element count: the sum of the lanes' own counts, each read with
    /// an uncounted peek — O(lanes), and there is no other record of
    /// it. Racy (each lane's count is exact at its own instant), exact
    /// at quiescence.
    #[must_use]
    pub fn len(&self) -> usize {
        peek_sum(&self.lanes)
    }

    /// Whether every lane reads empty — O(lanes), same freshness as
    /// [`len`](Self::len).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lane `lane`'s element count as the lane's own registers hold
    /// it (an uncounted peek — what the router steers by).
    #[must_use]
    pub fn occupancy(&self, lane: usize) -> usize {
        self.lanes[lane].lane_peek_len()
    }

    /// Number of processes the structure was built for.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of lanes (total, including inactive ones).
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Length of the currently active lane prefix.
    #[must_use]
    pub fn active_lanes(&self) -> usize {
        self.elastic.active()
    }

    /// The checked out-of-order bound: `max((lanes − 1) × lane_cap,
    /// n − 1)` — the first term bounds how far a popped value can be
    /// from the strict answer, the second the slack on Empty/Full
    /// answers from in-flight operations (it never moves a popped
    /// value) — and 0 with one lane, where neither term exists: every
    /// answer is the only cell's own, at an instant inside the
    /// operation.
    #[must_use]
    pub fn relaxation_bound(&self) -> usize {
        match self.lanes.len() {
            1 => 0,
            lanes => ((lanes - 1) * self.lane_cap).max(self.n.saturating_sub(1)),
        }
    }

    /// A snapshot of the router's counters.
    #[must_use]
    pub fn router_stats(&self) -> RouterStats {
        let [pushes, pops, steals, spills] = self.counters.snapshot();
        RouterStats {
            pushes,
            pops,
            steals,
            spills,
            splits: self.elastic.splits(),
            merges: self.elastic.merges(),
            active_lanes: self.elastic.active(),
        }
    }

    /// Direct access to lane `i` (telemetry: `path_stats()`,
    /// `combining_stats()`, … of the underlying cell).
    #[must_use]
    pub fn lane(&self, i: usize) -> &T {
        &self.lanes[i]
    }

    /// Whether elastic lane scaling is enabled.
    #[must_use]
    pub fn elastic_enabled(&self) -> bool {
        self.elastic.enabled()
    }

    /// Registers per-lane metrics under `{prefix}_lane{i}` plus the
    /// router's own counters/gauges under `{prefix}_router_*`.
    ///
    /// First attach wins, as for the lanes. Every series is polled —
    /// evaluated when the registry is scraped — so an attached router
    /// pays nothing per operation: the event counters are lifetime
    /// sums of the router's own cells, and `size` in particular never
    /// turns the O(lanes) `len()` into a per-operation scan.
    pub fn attach_metrics(&self, registry: &Registry, prefix: &str) {
        if self.attached.swap(true, Ordering::Relaxed) {
            return;
        }
        for (i, lane) in self.lanes.iter().enumerate() {
            lane.lane_attach_metrics(registry, &format!("{prefix}_lane{i}"));
        }
        for (name, cell) in [("steals", STEALS), ("spills", SPILLS)] {
            let counters = Arc::clone(&self.counters);
            registry.counter_fn(&format!("{prefix}_router_{name}_total"), move || {
                counters.total(cell)
            });
        }
        let lanes = Arc::clone(&self.lanes);
        registry.gauge_fn(&format!("{prefix}_router_size"), move || {
            peek_sum(&lanes) as f64
        });
        let poll = |name: &str, read: fn(&Elastic) -> f64| {
            let elastic = Arc::clone(&self.elastic);
            registry.gauge_fn(&format!("{prefix}_router_{name}"), move || read(&elastic));
        };
        poll("active_lanes", |e| e.active() as f64);
        poll("splits", |e| e.splits() as f64);
        poll("merges", |e| e.merges() as f64);
    }
}

impl<T: ShardLane> std::fmt::Debug for Sharded<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sharded")
            .field("lanes", &self.lanes())
            .field("active", &self.active_lanes())
            .field("bound", &self.relaxation_bound())
            .field("len", &self.len())
            .field("capacity", &self.capacity())
            .finish()
    }
}

/// The probe protocol against lanes whose peeks and answers the test
/// sets: each case pins the exact sequence of peeks and lane
/// operations a routed operation issues, and the counts it leaves.
#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Mutex;

    /// One call a routed operation made on lane `.0`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Call {
        Peek(usize),
        Push(usize),
        Pop(usize),
    }
    use Call::{Peek, Pop, Push};

    const CAP: usize = 2;
    /// `(peek, answer)`: peeks below capacity and nonempty, and the
    /// operation succeeds.
    const OPEN: (usize, bool) = (1, true);
    /// Peeks like `OPEN`, but the operation answers `Full` / `Empty`: it
    /// lost a race between the peek and the C&S.
    const RACED: (usize, bool) = (1, false);
    /// Peeks full (a push skips it) and would answer `Full`.
    const FULL: (usize, bool) = (CAP, false);
    /// Peeks empty (a pop skips it) and would answer `Empty`.
    const EMPTY: (usize, bool) = (0, false);
    /// Peeked full, yet room appeared by the time it is tried.
    const STALE_FULL: (usize, bool) = (CAP, true);
    /// Peeked empty, yet a value arrived by the time it is tried.
    const STALE_EMPTY: (usize, bool) = (0, true);

    /// A lane that answers what the test set and logs every call into
    /// the log all lanes of a router share.
    struct Scripted {
        lane: usize,
        log: Arc<Mutex<Vec<Call>>>,
        peek: AtomicUsize,
        answer: AtomicBool,
    }

    impl Scripted {
        fn call(&self, call: fn(usize) -> Call) -> bool {
            self.log.lock().unwrap().push(call(self.lane));
            self.answer.load(Ordering::Relaxed)
        }
    }

    impl sealed::Sealed for Scripted {}

    impl ShardLane for Scripted {
        type Value = u32;
        fn lane_push(&self, _: usize, _: u32) -> bool {
            self.call(Push)
        }
        fn lane_pop(&self, _: usize) -> Option<u32> {
            self.call(Pop).then_some(self.lane as u32)
        }
        fn lane_peek_len(&self) -> usize {
            self.log.lock().unwrap().push(Peek(self.lane));
            self.peek.load(Ordering::Relaxed)
        }
        fn lane_collisions(&self) -> u64 {
            0
        }
        fn lane_attach_metrics(&self, _: &Registry, _: &str) {}
    }

    /// `config.lanes` scripted lanes of capacity `CAP`, numbered in
    /// order, for processes `0..8`.
    fn router(config: ShardConfig) -> Sharded<Scripted> {
        let log = Arc::default();
        let next = Cell::new(0);
        let router = Sharded::build(
            &config,
            8,
            config.lanes * CAP,
            |raw| raw,
            |_| Scripted {
                lane: next.replace(next.get() + 1),
                log: Arc::clone(&log),
                peek: AtomicUsize::new(0),
                answer: AtomicBool::new(false),
            },
        );
        assert_eq!(router.lane_cap, CAP);
        router
    }

    fn relaxed(lanes: usize) -> Sharded<Scripted> {
        router(ShardConfig::relaxed(lanes, (lanes - 1) * CAP))
    }

    /// Sets lane `i` to `states[i]`, runs `op`, and returns its answer
    /// and every call it made, in order.
    fn run<R>(
        router: &Sharded<Scripted>,
        states: &[(usize, bool)],
        op: impl FnOnce(&Sharded<Scripted>) -> R,
    ) -> (R, Vec<Call>) {
        for (lane, &(peek, answer)) in router.lanes.iter().zip(states) {
            lane.peek.store(peek, Ordering::Relaxed);
            lane.answer.store(answer, Ordering::Relaxed);
        }
        let log = &router.lanes[0].log;
        log.lock().unwrap().clear();
        let answer = op(router);
        (answer, std::mem::take(&mut *log.lock().unwrap()))
    }

    fn stats(active_lanes: usize, [pushes, pops, steals, spills]: [u64; 4]) -> RouterStats {
        RouterStats {
            pushes,
            pops,
            steals,
            spills,
            active_lanes,
            ..RouterStats::default()
        }
    }

    #[test]
    fn a_free_home_lane_is_one_peek_and_one_attempt() {
        let r = relaxed(4);
        let push = run(&r, &[OPEN; 4], |r| r.route_push(1, 7));
        assert_eq!(push, (true, vec![Peek(1), Push(1)]));
        let pop = run(&r, &[OPEN; 4], |r| r.route_pop(1));
        assert_eq!(pop, (Some(1), vec![Peek(1), Pop(1)]));
        assert_eq!(r.router_stats(), stats(4, [1, 1, 0, 0]));
    }

    #[test]
    fn a_home_lane_that_peeks_full_or_empty_is_passed_over() {
        let r = relaxed(4);
        let push = run(&r, &[OPEN, FULL, OPEN, OPEN], |r| r.route_push(1, 7));
        assert_eq!(push, (true, vec![Peek(1), Peek(2), Push(2)]));
        let pop = run(&r, &[OPEN, EMPTY, OPEN, OPEN], |r| r.route_pop(1));
        assert_eq!(pop, (Some(2), vec![Peek(1), Peek(2), Pop(2)]));
        assert_eq!(r.router_stats(), stats(4, [1, 1, 1, 1]));
    }

    /// Home peeks like a candidate and loses its race: round 1 carries
    /// on, and home counts as probed, so round 2 force-probes only the
    /// lane the peeks skipped.
    #[test]
    fn a_home_lane_that_loses_its_race_counts_as_probed() {
        let r = relaxed(4);
        let push = run(&r, &[OPEN, RACED, OPEN, OPEN], |r| r.route_push(1, 7));
        assert_eq!(push, (true, vec![Peek(1), Push(1), Peek(2), Push(2)]));
        let pop = run(&r, &[OPEN, RACED, OPEN, OPEN], |r| r.route_pop(1));
        assert_eq!(pop, (Some(2), vec![Peek(1), Pop(1), Peek(2), Pop(2)]));
        assert_eq!(r.router_stats(), stats(4, [1, 1, 1, 1]));

        let push = run(&r, &[RACED, RACED, STALE_FULL, RACED], |r| {
            r.route_push(1, 7)
        });
        let round_1 = [
            Peek(1),
            Push(1),
            Peek(2),
            Peek(3),
            Push(3),
            Peek(0),
            Push(0),
        ];
        assert_eq!(push, (true, [&round_1[..], &[Push(2)]].concat()));
        let pop = run(&r, &[RACED, RACED, STALE_EMPTY, RACED], |r| r.route_pop(1));
        let round_1 = [Peek(1), Pop(1), Peek(2), Peek(3), Pop(3), Peek(0), Pop(0)];
        assert_eq!(pop, (Some(2), [&round_1[..], &[Pop(2)]].concat()));
        assert_eq!(r.router_stats(), stats(4, [2, 2, 2, 2]));
    }

    /// Every lane peeked full (empty) at an instant inside the
    /// operation: the answer is trusted without a single attempt. Every
    /// lane that really answered full (empty) gets no second round.
    #[test]
    fn peeks_alone_answer_full_and_empty_and_real_answers_end_round_1() {
        let r = relaxed(4);
        let every = [Peek(1), Peek(2), Peek(3), Peek(0)];
        assert_eq!(
            run(&r, &[FULL; 4], |r| r.route_push(1, 7)),
            (false, every.to_vec())
        );
        assert_eq!(
            run(&r, &[EMPTY; 4], |r| r.route_pop(1)),
            (None, every.to_vec())
        );
        let push = run(&r, &[RACED; 4], |r| r.route_push(1, 7));
        let tried = [
            Peek(1),
            Push(1),
            Peek(2),
            Push(2),
            Peek(3),
            Push(3),
            Peek(0),
            Push(0),
        ];
        assert_eq!(push, (false, tried.to_vec()));
        let pop = run(&r, &[RACED; 4], |r| r.route_pop(1));
        let tried = [
            Peek(1),
            Pop(1),
            Peek(2),
            Pop(2),
            Peek(3),
            Pop(3),
            Peek(0),
            Pop(0),
        ];
        assert_eq!(pop, (None, tried.to_vec()));
        assert_eq!(r.router_stats(), stats(4, [0; 4]));
    }

    /// The peeks skipped home, a real probe lost its race, and round 2
    /// finds room (a value) at home: the operation landed in its home
    /// lane, so it is neither a spill nor a steal.
    #[test]
    fn a_skipped_home_lane_force_probed_in_round_2_is_no_spill_or_steal() {
        let r = relaxed(4);
        let push = run(&r, &[FULL, STALE_FULL, RACED, STALE_FULL], |r| {
            r.route_push(1, 7)
        });
        let round_1 = [Peek(1), Peek(2), Push(2), Peek(3), Peek(0)];
        assert_eq!(push, (true, [&round_1[..], &[Push(1)]].concat()));
        let pop = run(&r, &[EMPTY, STALE_EMPTY, RACED, STALE_EMPTY], |r| {
            r.route_pop(1)
        });
        let round_1 = [Peek(1), Peek(2), Pop(2), Peek(3), Peek(0)];
        assert_eq!(pop, (Some(1), [&round_1[..], &[Pop(1)]].concat()));
        assert_eq!(r.router_stats(), stats(4, [1, 1, 0, 0]));

        // Home answers Full (Empty) in round 2 as well: the next
        // skipped lane in probe order takes it, and that is a spill
        // (a steal).
        let push = run(&r, &[STALE_FULL, FULL, RACED, STALE_FULL], |r| {
            r.route_push(1, 7)
        });
        let round_1 = [Peek(1), Peek(2), Push(2), Peek(3), Peek(0)];
        assert_eq!(push, (true, [&round_1[..], &[Push(1), Push(3)]].concat()));
        let pop = run(&r, &[STALE_EMPTY, EMPTY, RACED, STALE_EMPTY], |r| {
            r.route_pop(1)
        });
        let round_1 = [Peek(1), Peek(2), Pop(2), Peek(3), Peek(0)];
        assert_eq!(pop, (Some(3), [&round_1[..], &[Pop(1), Pop(3)]].concat()));
        assert_eq!(r.router_stats(), stats(4, [2, 2, 1, 1]));
    }

    /// `proc ≥ active` homes at `proc mod active`, and the probe order
    /// wraps through the active prefix from there.
    #[test]
    fn a_process_beyond_the_lanes_homes_at_proc_mod_active() {
        let r = relaxed(4);
        assert_eq!(
            run(&r, &[OPEN; 4], |r| r.route_push(5, 7)),
            (true, vec![Peek(1), Push(1)])
        );
        let push = run(&r, &[OPEN, OPEN, OPEN, FULL], |r| r.route_push(7, 7));
        assert_eq!(push, (true, vec![Peek(3), Peek(0), Push(0)]));
        let pop = run(&r, &[EMPTY, EMPTY, OPEN, EMPTY], |r| r.route_pop(6));
        assert_eq!(pop, (Some(2), vec![Peek(2), Pop(2)]));
        let pop = run(&r, &[EMPTY, OPEN, OPEN, OPEN], |r| r.route_pop(4));
        assert_eq!(pop, (Some(1), vec![Peek(0), Peek(1), Pop(1)]));
        assert_eq!(r.router_stats(), stats(4, [2, 2, 1, 1]));
    }

    /// With the elastic prefix at 2 of 4 lanes, home is `proc mod 2`,
    /// the active prefix is probed from home, and the inactive tail
    /// follows in lane order — for a push (spill past a full prefix)
    /// as for a pop (merged-away lanes drain).
    #[test]
    fn an_elastic_prefix_probes_from_home_then_the_inactive_tail() {
        let r = router(ShardConfig::relaxed(4, 3 * CAP).with_elastic());
        assert_eq!(r.elastic.active(), 1);
        let both_wrote = std::array::from_fn(|stripe| u64::from(stripe < 2));
        r.elastic.evaluate(both_wrote, |_| 1);
        assert_eq!(r.elastic.active(), 2);

        let push = run(&r, &[FULL, FULL, FULL, OPEN], |r| r.route_push(5, 7));
        assert_eq!(
            push,
            (true, vec![Peek(1), Peek(0), Peek(2), Peek(3), Push(3)])
        );
        let pop = run(&r, &[EMPTY, EMPTY, OPEN, OPEN], |r| r.route_pop(3));
        assert_eq!(pop, (Some(2), vec![Peek(1), Peek(0), Peek(2), Pop(2)]));
        let push = run(&r, &[OPEN; 4], |r| r.route_push(2, 7));
        assert_eq!(push, (true, vec![Peek(0), Push(0)]));
        // Round 2 force-probes the skipped lanes in the same order.
        let pop = run(&r, &[EMPTY, STALE_EMPTY, RACED, EMPTY], |r| r.route_pop(0));
        let calls = vec![Peek(0), Peek(1), Peek(2), Pop(2), Peek(3), Pop(0), Pop(1)];
        assert_eq!(pop, (Some(1), calls));
        assert_eq!(
            r.router_stats(),
            RouterStats {
                splits: 1,
                ..stats(2, [2, 2, 2, 1])
            }
        );
    }

    /// One lane: home is lane 0 whoever asks, and the peek still
    /// answers for it.
    #[test]
    fn one_lane_takes_the_same_path() {
        let r = router(ShardConfig::strict(4));
        assert_eq!(
            run(&r, &[OPEN], |r| r.route_push(3, 7)),
            (true, vec![Peek(0), Push(0)])
        );
        assert_eq!(
            run(&r, &[FULL], |r| r.route_push(3, 7)),
            (false, vec![Peek(0)])
        );
        assert_eq!(
            run(&r, &[RACED], |r| r.route_pop(3)),
            (None, vec![Peek(0), Pop(0)])
        );
        assert_eq!(run(&r, &[EMPTY], |r| r.route_pop(3)), (None, vec![Peek(0)]));
        assert_eq!(r.router_stats(), stats(1, [1, 0, 0, 0]));
    }
}
