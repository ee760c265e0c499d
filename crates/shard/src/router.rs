//! The lane router: affinity, bounded stealing, telemetry.
//!
//! Generic over the lane type (a `CsStack` or `CsQueue`); the public
//! wrappers in [`crate::stack`] / [`crate::queue`] are thin facades
//! over [`Router`]. The router keeps **no record of occupancy of its
//! own**: a lane's size is the `index` field of its `TOP` register (the
//! queue's `TAIL − HEAD`), and the router reads it there, through the
//! lane's *uncounted* [`peek_len`](ShardLane::lane_peek_len). So a
//! routed operation spends exactly the lane's own counted budget —
//! Theorem 1's six accesses for a solo stack op, seven for the queue —
//! and there is no copy of the number to maintain, drift or heal.
//!
//! Uncounted is not free, so the router also keeps a *cost* contract,
//! in every configuration: an operation that stays in its home lane
//! executes **no locked instruction and writes no shared word of the
//! router's own**. It peeks the line of the lane it is about to C&S,
//! runs the lane operation, and bumps its own stripe of the statistics
//! block; the size is summed by readers, not maintained by writers, and
//! the registry gauges are polled at scrape time. A fixed-lane
//! operation loads no shared word of the router's either; an elastic
//! one loads `active`, which only a transition writes, and the
//! controller behind it is one more reader — the thread whose own
//! stripe of the push (or pop) count crosses a multiple of
//! `eval_period` folds the stripes and the active lanes' abort/locked
//! counts ([`Elastic::evaluate`]).
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
use cso_metrics::Registry;

use crate::config::ShardConfig;
use crate::elastic::Elastic;

/// What a lane must provide to be routable. Implemented for
/// `CsStack` / `CsQueue` by the public wrappers.
pub(crate) trait ShardLane: Send + Sync + 'static {
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

/// The shared router core.
pub(crate) struct Router<T: ShardLane> {
    /// `Arc` (as are `elastic` and `counters`) so the registry's
    /// polled series can read it at scrape time.
    lanes: Arc<[T]>,
    elastic: Arc<Elastic>,
    /// Router statistics, indexed by the constants above: the one
    /// count of each fact, read by `stats()` and by the registry.
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

impl<T: ShardLane> Router<T> {
    /// `cfg.lanes` cells for processes `0..n`, each built by
    /// `make_lane` at the capacity [`ShardConfig::lane_cap`] derives
    /// from `capacity` through `round`.
    pub(crate) fn new(
        cfg: &ShardConfig,
        n: usize,
        capacity: usize,
        round: impl Fn(usize) -> usize,
        make_lane: impl Fn(usize) -> T,
    ) -> Router<T> {
        let lane_cap = cfg.lane_cap(capacity, round);
        Router {
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

    pub(crate) fn push(&self, proc: usize, value: T::Value) -> bool {
        let pushed = self.probe_push(proc, value);
        if pushed {
            self.completed(PUSHES);
        }
        pushed
    }

    pub(crate) fn pop(&self, proc: usize) -> Option<T::Value> {
        let popped = self.probe_pop(proc);
        if popped.is_some() {
            self.completed(POPS);
        }
        popped
    }

    fn probe_push(&self, proc: usize, value: T::Value) -> bool {
        let total = self.lanes.len();
        let active = self.elastic.active();
        let home = proc % active;
        let mut probed = 0u64;
        let mut skipped_any = false;
        // Round 1: real probes of the lanes that peek below capacity.
        for i in 0..total {
            let lane = probe_lane(home, active, i);
            if self.lanes[lane].lane_peek_len() >= self.lane_cap {
                skipped_any = true;
                continue;
            }
            probed |= 1 << lane;
            if self.try_push_lane(lane, home, proc, value) {
                return true;
            }
        }
        if !skipped_any {
            // Every lane really answered full.
            return false;
        }
        if probed == 0 {
            // Every lane *peeked* full, each at an instant inside this
            // operation: trust them (slack ≤ n − 1, the operations in
            // flight with this one).
            return false;
        }
        // Round 2: the peeks skipped lanes but a probe lost a race —
        // force-probe the skipped ones before answering Full.
        for i in 0..total {
            let lane = probe_lane(home, active, i);
            if probed & (1 << lane) != 0 {
                continue;
            }
            if self.try_push_lane(lane, home, proc, value) {
                return true;
            }
        }
        false
    }

    #[inline]
    fn try_push_lane(&self, lane: usize, home: usize, proc: usize, value: T::Value) -> bool {
        let ok = self.lanes[lane].lane_push(proc, value);
        if ok && lane != home {
            self.counters.inc(SPILLS);
        }
        ok
    }

    fn probe_pop(&self, proc: usize) -> Option<T::Value> {
        let total = self.lanes.len();
        let active = self.elastic.active();
        let home = proc % active;
        let mut probed = 0u64;
        // Round 1: real probes of the lanes that peek nonempty, home
        // lane first.
        for i in 0..total {
            let lane = probe_lane(home, active, i);
            if self.lanes[lane].lane_peek_len() == 0 {
                continue;
            }
            probed |= 1 << lane;
            if let Some(v) = self.try_pop_lane(lane, home, proc) {
                return Some(v);
            }
        }
        if probed == 0 {
            // Every lane peeked empty, each at an instant inside this
            // operation: trust them (slack ≤ n − 1).
            return None;
        }
        // Round 2: a candidate lost a race — force-probe every lane
        // before answering Empty.
        for i in 0..total {
            let lane = probe_lane(home, active, i);
            if probed & (1 << lane) != 0 {
                continue;
            }
            if let Some(v) = self.try_pop_lane(lane, home, proc) {
                return Some(v);
            }
        }
        None
    }

    #[inline]
    fn try_pop_lane(&self, lane: usize, home: usize, proc: usize) -> Option<T::Value> {
        let value = self.lanes[lane].lane_pop(proc);
        if value.is_some() && lane != home {
            self.counters.inc(STEALS);
        }
        value
    }

    /// First attach wins, as for the lanes. Every series is polled —
    /// evaluated when the registry is scraped — so an attached router
    /// pays nothing per operation: the event counters are lifetime
    /// sums of the router's own cells, and `size` in particular never
    /// turns the O(lanes) `len()` into a per-operation scan.
    pub(crate) fn attach_metrics(&self, registry: &Registry, prefix: &str) {
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

    pub(crate) fn stats(&self) -> RouterStats {
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

    pub(crate) fn lanes(&self) -> &[T] {
        &self.lanes
    }

    pub(crate) fn elastic(&self) -> &Elastic {
        &self.elastic
    }

    /// `lanes × lane_cap`: what the cells can hold between them.
    pub(crate) fn capacity(&self) -> usize {
        self.lanes.len() * self.lane_cap
    }

    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// The checked relaxation bound: the lane-layout bound
    /// `(lanes − 1) × lane_cap ≤ k` plus the in-flight slack `n − 1`
    /// folded in as a max (the slack only affects Empty/Full answers,
    /// never the popped value's distance) — and 0 with one lane, where
    /// neither term exists: every answer is the only cell's own, at an
    /// instant inside the operation.
    pub(crate) fn relaxation_bound(&self) -> usize {
        match self.lanes.len() {
            1 => 0,
            lanes => ((lanes - 1) * self.lane_cap).max(self.n.saturating_sub(1)),
        }
    }

    /// The sum of the lanes' own counts: O(lanes), racy (each peek is
    /// exact at its own instant), exact at quiescence.
    pub(crate) fn len(&self) -> usize {
        peek_sum(&self.lanes)
    }
}
