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
//! Uncounted is not free, so the router also keeps a *cost* contract:
//! in relaxed mode with elasticity off, an operation that stays in its
//! home lane executes **no locked instruction and no shared load of
//! the router's own**. It peeks the line of the lane it is about to
//! C&S, runs the lane operation, and bumps its own stripe of the
//! statistics block; the size is summed by readers, not maintained by
//! writers, and the registry gauges are polled at scrape time. Strict
//! mode's latch and journal and elastic mode's overlap sensor are
//! shared writes by design and sit outside that contract.
//!
//! ## Probe protocol (relaxed mode)
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
//! ## Crash consistency (the E14 kill sites)
//!
//! Relaxed mode has nothing to heal: a killed lane operation either
//! applied or did not, and either way the lane's register says so.
//! Strict mode keeps one derived structure, the order journal, and a
//! kill between the lane operation and the journal update leaves it
//! one entry off. The latch guard notices the unwind and flags the
//! journal; the next strict operation (or an explicit
//! `refresh_occupancy()`) reconciles it with the lanes under the
//! latch, re-appending orphaned entries (legal: the killed operation
//! never returned, so it linearizes late). Killed operations can
//! therefore neither leak nor double-count.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cso_memory::Stripes;
use cso_metrics::Registry;

use crate::config::{ShardConfig, ShardMode};
use crate::elastic::Elastic;
use crate::order::{OrderGuard, StrictOrder};

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
    /// Strict-mode journal reconciliations (after a crash/unwind, or
    /// on request); relaxed mode has nothing to heal.
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
    /// `Arc` (as are `elastic` and `counters`) so the registry's
    /// polled series can read it at scrape time.
    lanes: Arc<[T]>,
    order: Option<StrictOrder>,
    elastic: Arc<Elastic>,
    /// Router statistics, indexed by the constants above: the one
    /// count of each fact, read by `stats()` and by the registry.
    counters: Arc<Stripes<5>>,
    /// Set by the first `attach_metrics`; later calls are no-ops.
    attached: AtomicBool,
    mode: ShardMode,
    capacity: usize,
    /// What a relaxed push compares a lane's peek against.
    lane_cap: usize,
    n: usize,
}

/// Decrements the in-flight overlap counter even on unwind.
struct ExitOnDrop<'a> {
    elastic: &'a Elastic,
}

impl Drop for ExitOnDrop<'_> {
    #[inline]
    fn drop(&mut self) {
        self.elastic.exit();
    }
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
    /// `lanes` are the constructed cells; `capacity` is the global
    /// bound (strict mode enforces it via the journal; relaxed mode
    /// via the per-lane caps baked into the cells, `lane_cap` each).
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
            elastic: Arc::new(Elastic::new(
                lanes.len(),
                cfg.elastic,
                cfg.eval_period,
                cfg.cooldown_evals,
            )),
            lanes: lanes.into(),
            order,
            counters: Arc::new(Stripes::new()),
            attached: AtomicBool::new(false),
            mode: cfg.mode,
            capacity,
            lane_cap,
            n,
        }
    }

    pub(crate) fn push(&self, proc: usize, value: T::Value) -> bool {
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

    fn push_strict(&self, order: &StrictOrder, proc: usize, value: T::Value) -> bool {
        let guard = order.acquire();
        if guard.take_dirty() {
            self.reconcile(&guard);
        }
        if guard.len() >= self.capacity {
            return false;
        }
        let active = self.elastic.active();
        let home = proc % active;
        // Under the latch no other op is inside any lane, and strict
        // lane capacity ≥ the global capacity, so the home lane has
        // room; probe the rest anyway for defence in depth.
        for i in 0..self.lanes.len() {
            let lane = probe_lane(home, active, i);
            // A kill in here unwinds through `guard`, which flags the
            // journal for the next holder.
            if self.lanes[lane].lane_push(proc, value) {
                guard.push_lane(lane);
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
        if guard.take_dirty() {
            self.reconcile(&guard);
        }
        let lane = guard.pop_lane()?;
        let value = self.lanes[lane].lane_pop(proc);
        if value.is_none() {
            // Journal said the lane held the answer but the lane
            // disagrees: re-derive everything rather than guessing.
            guard.mark_dirty();
        } else if lane != proc % self.elastic.active() {
            self.counters.inc(STEALS);
        }
        value
    }

    fn push_relaxed(&self, proc: usize, value: T::Value) -> bool {
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

    fn pop_relaxed(&self, proc: usize) -> Option<T::Value> {
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

    /// Strict mode: reconciles the order journal with the lanes, under
    /// the latch. Relaxed mode keeps nothing derived, so there is
    /// nothing to do.
    pub(crate) fn heal(&self) {
        if let Some(ref order) = self.order {
            let guard = order.acquire();
            let _ = guard.take_dirty();
            self.reconcile(&guard);
        }
    }

    /// Lanes holding more elements than the journal records gained
    /// them from killed (never-returned) operations, which may legally
    /// linearize now — their entries are appended; the reverse
    /// direction drops stale entries.
    fn reconcile(&self, guard: &OrderGuard<'_>) {
        for (lane, cell) in self.lanes.iter().enumerate() {
            let actual = cell.lane_peek_len();
            let journaled = guard.count_lane(lane);
            if actual > journaled {
                for _ in 0..(actual - journaled) {
                    guard.push_lane(lane);
                }
            } else if journaled > actual {
                guard.remove_lane_entries(lane, journaled - actual);
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
                ((self.lanes.len() - 1) * self.lane_cap).max(self.n.saturating_sub(1))
            }
        }
    }

    /// The sum of the lanes' own counts, in either mode: O(lanes),
    /// racy (each peek is exact at its own instant), exact at
    /// quiescence.
    pub(crate) fn len(&self) -> usize {
        peek_sum(&self.lanes)
    }
}
