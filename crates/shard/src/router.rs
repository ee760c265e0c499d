//! The lane router: affinity, bounded stealing, heal, telemetry.
//!
//! Generic over the lane type (a `CsStack` or `CsQueue`); the public
//! wrappers in [`crate::stack`] / [`crate::queue`] are thin facades
//! over [`Router`]. Everything the router itself touches — the
//! aggregate, the elastic controller, the strict-order journal, the
//! statistics counters — is **uncounted** (`std::sync::atomic`), so a
//! routed operation spends exactly the lane's own counted budget:
//! Theorem 1's six accesses for a solo stack op, seven for the queue.
//!
//! Uncounted is not free, so the router also keeps a *cost* contract:
//! in relaxed mode with elasticity off, an operation that stays in its
//! home lane **writes only lines its own thread owns** — the lane cell
//! itself, the lane's padded occupancy cell, and the thread's stripe
//! of the statistics block. The dirty flag is tested, not swapped; the
//! size is summed by readers, not maintained by writers; the registry
//! gauges are polled at scrape time, not pushed per operation. Strict
//! mode's latch and journal and elastic mode's overlap sensor are
//! shared writes by design and sit outside that contract.
//!
//! ## Probe protocol (relaxed mode)
//!
//! *Push:* probe the home lane `proc mod active`, then the rest of
//! the active prefix, then the inactive tail — skipping lanes the
//! aggregate believes full. If every lane *looked* full without a
//! single real probe, answer `Full` (the aggregate lags the truth by
//! at most the in-flight operations, so this adds ≤ n − 1 slack). If
//! some lanes were really probed and all answered full, force-probe
//! the skipped ones before answering — so a non-racing `Full` means
//! every lane individually answered full.
//!
//! *Pop:* symmetric, with the nonempty mask: mask-guided probes
//! starting at the home lane (over **all** lanes, so merged-away
//! lanes drain), then a force-probe round only if the mask showed a
//! candidate that lost a race.
//!
//! ## Crash consistency (the E14 kill sites)
//!
//! The aggregate is updated *after* the lane operation returns, by
//! the same thread. A kill before the lane applies the op leaves
//! nothing to record — no leak. A kill after the apply but before the
//! update (the `sfree::unlock` boundary) leaves the aggregate one
//! behind; the unwind guard marks it dirty and the next operation
//! (or an explicit `refresh_occupancy()`) re-derives every lane's
//! count from the lane itself — in strict mode under the latch, also
//! re-appending the orphaned journal entries (legal: the killed
//! operation never returned, so it linearizes late). Killed
//! operations can therefore neither leak nor double-count occupancy.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cso_memory::Stripes;
use cso_metrics::Registry;

use crate::aggregate::LaneAggregate;
use crate::config::{ShardConfig, ShardMode};
use crate::elastic::Elastic;
use crate::order::StrictOrder;

/// What a lane must provide to be routable. Implemented for
/// `CsStack` / `CsQueue` by the public wrappers.
pub(crate) trait ShardLane: Send + Sync {
    type Value: Copy;
    /// Apply a push/enqueue; `true` = accepted, `false` = full.
    fn lane_push(&self, proc: usize, value: Self::Value) -> bool;
    /// Apply a pop/dequeue; `None` = empty.
    fn lane_pop(&self, proc: usize) -> Option<Self::Value>;
    /// Ground-truth element count (heal path only).
    fn lane_len(&self) -> usize;
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
    /// Aggregate re-derivations after a crash/unwind.
    pub heals: u64,
    /// Current active lane prefix length.
    pub active_lanes: usize,
}

const PUSHES: usize = 0;
const POPS: usize = 1;
const STEALS: usize = 2;
const SPILLS: usize = 3;
const HEALS: usize = 4;

/// The shared router core.
pub(crate) struct Router<T: ShardLane> {
    lanes: Vec<T>,
    /// `Arc` (as are `elastic` and `counters`) so the registry's
    /// polled series can read it at scrape time.
    agg: Arc<LaneAggregate>,
    order: Option<StrictOrder>,
    elastic: Arc<Elastic>,
    /// Router statistics, indexed by the constants above: the one
    /// count of each fact, read by `stats()` and by the registry.
    counters: Arc<Stripes<5>>,
    /// Set by the first `attach_metrics`; later calls are no-ops.
    attached: AtomicBool,
    mode: ShardMode,
    capacity: usize,
    n: usize,
}

/// Marks the aggregate dirty if the wrapped lane call unwinds
/// (crash/panic between the lane apply and the aggregate update).
struct DirtyOnUnwind<'a> {
    agg: &'a LaneAggregate,
    armed: bool,
}

impl Drop for DirtyOnUnwind<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.agg.mark_dirty();
        }
    }
}

/// Decrements the in-flight overlap counter even on unwind.
struct ExitOnDrop<'a> {
    elastic: &'a Elastic,
}

impl Drop for ExitOnDrop<'_> {
    fn drop(&mut self) {
        self.elastic.exit();
    }
}

impl<T: ShardLane> Router<T> {
    /// `lanes` are the constructed cells; `capacity` is the global
    /// bound (strict mode enforces it via the journal; relaxed mode
    /// via the per-lane caps baked into the cells and the aggregate's
    /// `lane_cap`).
    pub(crate) fn new(
        lanes: Vec<T>,
        cfg: &ShardConfig,
        n: usize,
        capacity: usize,
        lane_cap: usize,
        fifo: bool,
    ) -> Router<T> {
        assert!(
            !lanes.is_empty() && lanes.len() <= 64,
            "lanes must be 1..=64"
        );
        let order = match cfg.mode {
            ShardMode::Strict => Some(StrictOrder::new(capacity, fifo)),
            ShardMode::Relaxed { .. } => None,
        };
        Router {
            agg: Arc::new(LaneAggregate::new(lanes.len(), lane_cap)),
            elastic: Arc::new(Elastic::new(
                lanes.len(),
                cfg.elastic,
                cfg.eval_period,
                cfg.cooldown_evals,
            )),
            lanes,
            order,
            counters: Arc::new(Stripes::new()),
            attached: AtomicBool::new(false),
            mode: cfg.mode,
            capacity,
            n,
        }
    }

    pub(crate) fn push(&self, proc: usize, value: T::Value) -> bool {
        self.maybe_heal();
        let contended = self.elastic.enter();
        let _exit = ExitOnDrop {
            elastic: &self.elastic,
        };
        let pushed = match self.order {
            Some(ref order) => self.push_strict(order, proc, value),
            None => self.push_relaxed(proc, value),
        };
        self.elastic.record(contended);
        if pushed {
            self.counters.inc(PUSHES);
        }
        pushed
    }

    pub(crate) fn pop(&self, proc: usize) -> Option<T::Value> {
        self.maybe_heal();
        let contended = self.elastic.enter();
        let _exit = ExitOnDrop {
            elastic: &self.elastic,
        };
        let popped = match self.order {
            Some(ref order) => self.pop_strict(order, proc),
            None => self.pop_relaxed(proc),
        };
        self.elastic.record(contended);
        if popped.is_some() {
            self.counters.inc(POPS);
        }
        popped
    }

    /// The lane probe order: the active prefix starting at the home
    /// lane, then the inactive tail (so merged-away lanes still
    /// drain / absorb spill).
    fn probe_lane(&self, home: usize, active: usize, i: usize) -> usize {
        if i < active {
            (home + i) % active
        } else {
            i
        }
    }

    fn push_strict(&self, order: &StrictOrder, proc: usize, value: T::Value) -> bool {
        let guard = order.acquire();
        if guard.len() >= self.capacity {
            return false;
        }
        let active = self.elastic.active();
        let home = proc % active;
        // Under the latch no other op is inside any lane, and strict
        // lane capacity ≥ the global capacity, so the home lane has
        // room; probe the rest anyway for defence in depth.
        for i in 0..self.lanes.len() {
            let lane = self.probe_lane(home, active, i);
            let mut dirty = DirtyOnUnwind {
                agg: &self.agg,
                armed: true,
            };
            let ok = self.lanes[lane].lane_push(proc, value);
            dirty.armed = false;
            if ok {
                guard.push_lane(lane);
                self.agg.record_push(lane);
                if lane != home {
                    self.counters.inc(SPILLS);
                }
                return true;
            }
        }
        false
    }

    fn pop_strict(&self, order: &StrictOrder, proc: usize) -> Option<T::Value> {
        let guard = order.acquire();
        let lane = guard.pop_lane()?;
        let mut dirty = DirtyOnUnwind {
            agg: &self.agg,
            armed: true,
        };
        let value = self.lanes[lane].lane_pop(proc);
        dirty.armed = false;
        match value {
            Some(v) => {
                self.agg.record_pop(lane);
                let active = self.elastic.active();
                if lane != proc % active {
                    self.counters.inc(STEALS);
                }
                Some(v)
            }
            None => {
                // Journal said the lane held the answer but the lane
                // disagrees: only reachable after an unhealed crash.
                // Re-derive everything rather than guessing.
                drop(guard);
                self.agg.mark_dirty();
                None
            }
        }
    }

    fn push_relaxed(&self, proc: usize, value: T::Value) -> bool {
        let total = self.lanes.len();
        let active = self.elastic.active();
        let home = proc % active;
        let mut probed = 0u64;
        let mut skipped_any = false;
        // Round 1: aggregate-guided real probes.
        for i in 0..total {
            let lane = self.probe_lane(home, active, i);
            if self.agg.looks_full(lane) {
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
            // Every lane *looked* full: trust the aggregate (slack
            // bounded by in-flight ops, ≤ n − 1).
            return false;
        }
        // Round 2: the hint skipped lanes but a probe lost a race —
        // force-probe the skipped ones before answering Full.
        for i in 0..total {
            let lane = self.probe_lane(home, active, i);
            if probed & (1 << lane) != 0 {
                continue;
            }
            if self.try_push_lane(lane, home, proc, value) {
                return true;
            }
        }
        false
    }

    fn try_push_lane(&self, lane: usize, home: usize, proc: usize, value: T::Value) -> bool {
        let mut dirty = DirtyOnUnwind {
            agg: &self.agg,
            armed: true,
        };
        let ok = self.lanes[lane].lane_push(proc, value);
        dirty.armed = false;
        if ok {
            self.agg.record_push(lane);
            if lane != home {
                self.counters.inc(SPILLS);
            }
        }
        ok
    }

    fn pop_relaxed(&self, proc: usize) -> Option<T::Value> {
        let total = self.lanes.len();
        let active = self.elastic.active();
        let home = proc % active;
        let mut probed = 0u64;
        let mut saw_candidate = false;
        // Round 1: mask-guided real probes, home lane first.
        for i in 0..total {
            let lane = self.probe_lane(home, active, i);
            if !self.agg.looks_nonempty(lane) {
                continue;
            }
            saw_candidate = true;
            probed |= 1 << lane;
            if let Some(v) = self.try_pop_lane(lane, home, proc) {
                return Some(v);
            }
        }
        if !saw_candidate {
            // The mask showed nothing anywhere: trust it (slack
            // bounded by in-flight ops, ≤ n − 1).
            return None;
        }
        // Round 2: a candidate lost a race — force-probe every lane
        // before answering Empty.
        for i in 0..total {
            let lane = self.probe_lane(home, active, i);
            if probed & (1 << lane) != 0 {
                continue;
            }
            if let Some(v) = self.try_pop_lane(lane, home, proc) {
                return Some(v);
            }
        }
        None
    }

    fn try_pop_lane(&self, lane: usize, home: usize, proc: usize) -> Option<T::Value> {
        let mut dirty = DirtyOnUnwind {
            agg: &self.agg,
            armed: true,
        };
        let value = self.lanes[lane].lane_pop(proc);
        dirty.armed = false;
        if value.is_some() {
            self.agg.record_pop(lane);
            if lane != home {
                self.counters.inc(STEALS);
            }
        }
        value
    }

    /// Heals the aggregate (and in strict mode the journal) if a
    /// crashed operation left them behind.
    fn maybe_heal(&self) {
        if self.agg.take_dirty() {
            self.heal();
        }
    }

    /// Re-derives the aggregate from lane ground truth. Strict mode
    /// runs under the latch and also reconciles the journal: lanes
    /// holding more elements than the journal records gained them from
    /// killed (never-returned) operations, which may legally linearize
    /// now — their entries are appended; the reverse direction drops
    /// stale entries.
    pub(crate) fn heal(&self) {
        if let Some(ref order) = self.order {
            let guard = order.acquire();
            for (lane, cell) in self.lanes.iter().enumerate() {
                let actual = cell.lane_len();
                let journaled = guard.count_lane(lane);
                if actual > journaled {
                    for _ in 0..(actual - journaled) {
                        guard.push_lane(lane);
                    }
                } else if journaled > actual {
                    guard.remove_lane_entries(lane, journaled - actual);
                }
                self.agg.resync(lane, actual);
            }
        } else {
            for (lane, cell) in self.lanes.iter().enumerate() {
                self.agg.resync(lane, cell.lane_len());
            }
        }
        self.counters.inc(HEALS);
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
        for (name, cell) in [("steals", STEALS), ("spills", SPILLS), ("heals", HEALS)] {
            let counters = Arc::clone(&self.counters);
            registry.counter_fn(&format!("{prefix}_router_{name}_total"), move || {
                counters.total(cell)
            });
        }
        let agg = Arc::clone(&self.agg);
        registry.gauge_fn(&format!("{prefix}_router_size"), move || agg.len() as f64);
        let poll = |name: &str, read: fn(&Elastic) -> f64| {
            let elastic = Arc::clone(&self.elastic);
            registry.gauge_fn(&format!("{prefix}_router_{name}"), move || read(&elastic));
        };
        poll("active_lanes", |e| e.active() as f64);
        poll("splits", |e| e.splits() as f64);
        poll("merges", |e| e.merges() as f64);
    }

    pub(crate) fn stats(&self) -> RouterStats {
        let [pushes, pops, steals, spills, heals] = self.counters.snapshot();
        RouterStats {
            pushes,
            pops,
            steals,
            spills,
            splits: self.elastic.splits(),
            merges: self.elastic.merges(),
            heals,
            active_lanes: self.elastic.active(),
        }
    }

    pub(crate) fn lanes(&self) -> &[T] {
        &self.lanes
    }

    pub(crate) fn aggregate(&self) -> &LaneAggregate {
        &self.agg
    }

    pub(crate) fn elastic(&self) -> &Elastic {
        &self.elastic
    }

    pub(crate) fn mode(&self) -> ShardMode {
        self.mode
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// The checked relaxation bound: 0 in strict mode; in relaxed
    /// mode the lane-layout bound `(lanes − 1) × lane_cap ≤ k` plus
    /// the in-flight slack `n − 1` folded in as a max (the slack only
    /// affects Empty/Full answers, never the popped value's distance).
    pub(crate) fn relaxation_bound(&self) -> usize {
        match self.mode {
            ShardMode::Strict => 0,
            ShardMode::Relaxed { .. } => {
                ((self.lanes.len() - 1) * self.agg.lane_cap()).max(self.n.saturating_sub(1))
            }
        }
    }
}

impl<T: ShardLane> Router<T> {
    /// Racy but convergent view used by `len()`: strict mode prefers
    /// the journal's resident count (exact at quiescence), relaxed
    /// mode the aggregate's O(lanes) sum.
    pub(crate) fn len(&self) -> usize {
        match self.order {
            Some(ref order) => order.len_hint(),
            None => self.agg.len(),
        }
    }
}
