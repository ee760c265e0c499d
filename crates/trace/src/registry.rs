//! The metric primitives and the registry that aggregates them.
//!
//! The registry lives beside the [`LogHistogram`] a [`Timer`] wraps,
//! so an object attaches its metrics through the one observability
//! crate it already depends on. What renders, serves or analyses a
//! [`Snapshot`] is `cso-observe`'s, a leaf no object depends on.
//!
//! # Striping
//!
//! A [`Counter`] is one [`Stripes`] block of a single counter: each
//! thread leases a stripe for its lifetime and increments it with a
//! plain load and store of a line nobody else writes — wait-free, no
//! locked instruction, and free of the cross-core cache-line ping-pong
//! a single shared counter would cost under contention. Reading a
//! counter sums the stripes. The striping itself (stripe leases, the
//! overflow stripe for surplus threads) lives in
//! [`cso_memory::stripes`], the workspace's one implementation of it.
//!
//! # `snapshot()` consistency model
//!
//! [`Registry::snapshot`] reads every metric with relaxed loads and no
//! global lock-out of writers, so it is a *per-metric-consistent*
//! view, not a cross-metric atomic cut:
//!
//! * each counter value is the sum of its stripes as they were read —
//!   monotone between snapshots, but an increment racing the snapshot
//!   may appear in one counter and not yet in a logically-related one
//!   (e.g. `ops_fast_total` may momentarily lag `ops_total`);
//! * timer quantiles summarize *some recent prefix* of samples (see
//!   `LogHistogram::snapshot`);
//! * polled counters and gauges run their closures at snapshot time.
//!
//! This is the standard contract of scrape-based metrics (Prometheus
//! makes the same trade); rates and ratios computed across metrics are
//! accurate to within the in-flight operations at scrape time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::hist::{HistSnapshot, LogHistogram};
use cso_memory::Stripes;

/// A monotone event counter, striped per thread. Cloning is shallow
/// (an `Arc` bump): every clone observes the same value.
#[derive(Clone)]
pub struct Counter {
    stripes: Arc<Stripes<1>>,
}

impl Counter {
    fn new() -> Counter {
        Counter {
            stripes: Arc::new(Stripes::new()),
        }
    }

    /// Adds `n`. Wait-free: a plain load and store of the calling
    /// thread's own stripe.
    #[inline]
    pub fn add(&self, n: u64) {
        self.stripes.add(0, n);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current total (sum over stripes; monotone between reads).
    #[must_use]
    pub fn value(&self) -> u64 {
        self.stripes.get(0)
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.value())
    }
}

/// A last-write-wins instantaneous value (stored as `f64` bits in one
/// atomic). Clones share the value.
#[derive(Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    fn new() -> Gauge {
        Gauge {
            bits: Arc::new(AtomicU64::new(0f64.to_bits())),
        }
    }

    /// Sets the gauge. Wait-free (one relaxed store).
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gauge({})", self.get())
    }
}

/// A latency recorder backed by a [`LogHistogram`] (≤6.25% relative
/// quantile error, wait-free recording). Clones share the histogram.
#[derive(Clone)]
pub struct Timer {
    hist: Arc<LogHistogram>,
}

impl Timer {
    fn new() -> Timer {
        Timer {
            hist: Arc::new(LogHistogram::new()),
        }
    }

    /// Records one duration sample.
    #[inline]
    pub fn record(&self, d: Duration) {
        self.hist.record(d);
    }

    /// Records one sample in nanoseconds.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.hist.record_ns(ns);
    }

    /// Times a closure and records its wall duration.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.record(t0.elapsed());
        out
    }

    /// A point-in-time percentile summary.
    #[must_use]
    pub fn snapshot(&self) -> HistSnapshot {
        self.hist.snapshot()
    }
}

impl std::fmt::Debug for Timer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Timer(count={})", self.snapshot().count)
    }
}

/// A polled reader: evaluated at snapshot time, outside the registry's
/// locks (so a reader may itself take a lock that a registering thread
/// holds).
type Polled<V> = Arc<dyn Fn() -> V + Send + Sync>;

/// Where a series' value comes from: a handle its owner pushes into,
/// or a reader the registry polls.
#[derive(Clone)]
enum Source<H, V> {
    Handle(H),
    Polled(Polled<V>),
}

/// One kind of series, by name. A name has one source: a handle and a
/// polled reader under one name would export one of them and silently
/// drop the other, so [`handle`] and [`poll`] refuse.
type Table<H, V> = Mutex<Vec<(String, Source<H, V>)>>;

#[derive(Default)]
struct Inner {
    counters: Table<Counter, u64>,
    gauges: Table<Gauge, f64>,
    timers: Table<Timer, HistSnapshot>,
}

/// A named collection of metrics. Cloning is shallow; all clones feed
/// the same snapshot. Registration takes a short-lived lock (do it at
/// setup time); recording into the returned handles never locks.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Inner>,
}

/// `true` for names Prometheus accepts: `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn locked<T>(table: &Mutex<T>) -> MutexGuard<'_, T> {
    table.lock().unwrap_or_else(|e| e.into_inner())
}

/// Registers (or retrieves) the handle named `name`.
fn handle<H: Clone, V>(table: &Table<H, V>, name: &str, make: impl FnOnce() -> H) -> H {
    assert!(valid_name(name), "invalid metric name {name:?}");
    let mut table = locked(table);
    match table.iter().find(|(n, _)| n == name) {
        Some((_, Source::Handle(existing))) => existing.clone(),
        Some(_) => panic!("metric {name:?} is already a polled reader"),
        None => {
            let made = make();
            table.push((name.to_owned(), Source::Handle(made.clone())));
            made
        }
    }
}

/// Registers the polled reader named `name`, replacing an earlier one.
fn poll<H, V>(table: &Table<H, V>, name: &str, read: Polled<V>) {
    assert!(valid_name(name), "invalid metric name {name:?}");
    let mut table = locked(table);
    match table.iter_mut().find(|(n, _)| n == name) {
        Some((_, Source::Handle(_))) => panic!("metric {name:?} is already a handle"),
        Some((_, slot)) => *slot = Source::Polled(read),
        None => table.push((name.to_owned(), Source::Polled(read))),
    }
}

/// Every series of one kind, sorted by name; handles are read through
/// `get`. The table is copied out first (clones are `Arc` bumps).
fn read_all<H: Clone, V: Clone>(table: &Table<H, V>, get: impl Fn(&H) -> V) -> Vec<(String, V)> {
    let sources = locked(table).clone();
    let mut all: Vec<(String, V)> = sources
        .into_iter()
        .map(|(name, source)| match source {
            Source::Handle(h) => (name, get(&h)),
            Source::Polled(read) => (name, read()),
        })
        .collect();
    all.sort_by(|a, b| a.0.cmp(&b.0));
    all
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Registers (or retrieves) the counter named `name`.
    ///
    /// Idempotent: a second registration under the same name returns a
    /// handle to the same counter, so independent components can share
    /// a series without coordination.
    ///
    /// # Panics
    ///
    /// If `name` is not a valid Prometheus metric name
    /// (`[a-zA-Z_:][a-zA-Z0-9_:]*`), or is already a polled counter
    /// ([`Registry::counter_fn`]).
    pub fn counter(&self, name: &str) -> Counter {
        handle(&self.inner.counters, name, Counter::new)
    }

    /// Registers (or retrieves) the gauge named `name`. See
    /// [`Registry::counter`] for naming and idempotence.
    pub fn gauge(&self, name: &str) -> Gauge {
        handle(&self.inner.gauges, name, Gauge::new)
    }

    /// Registers (or retrieves) the timer named `name`. See
    /// [`Registry::counter`] for naming and idempotence.
    pub fn timer(&self, name: &str) -> Timer {
        handle(&self.inner.timers, name, Timer::new)
    }

    /// Registers a *polled* counter: `f` runs at every snapshot and its
    /// return value is reported under `name`, as a counter — how an
    /// object that already counts a fact in its own cells exports it
    /// without a second count. `f` must be monotone (a lifetime total).
    /// Re-registering a name replaces the closure.
    ///
    /// # Panics
    ///
    /// If `name` is invalid (see [`Registry::counter`]) or already has
    /// a [`Registry::counter`] handle.
    pub fn counter_fn(&self, name: &str, f: impl Fn() -> u64 + Send + Sync + 'static) {
        poll(&self.inner.counters, name, Arc::new(f));
    }

    /// Registers a *polled* gauge: the twin of [`Registry::counter_fn`]
    /// for an instantaneous value.
    ///
    /// # Panics
    ///
    /// If `name` is invalid (see [`Registry::counter`]) or already has
    /// a [`Registry::gauge`] handle.
    pub fn gauge_fn(&self, name: &str, f: impl Fn() -> f64 + Send + Sync + 'static) {
        poll(&self.inner.gauges, name, Arc::new(f));
    }

    /// Registers the build-identity and uptime series:
    ///
    /// * `cso_build_info` — always `1` (a presence marker, scrapeable
    ///   as "the process is up and identified");
    /// * `cso_build_version_major` / `_minor` / `_patch` — the crate
    ///   version, spread over three series because the registry is
    ///   label-free by design;
    /// * `cso_feature_trace` / `cso_feature_chaos` /
    ///   `cso_feature_model` — `1` when the corresponding build mode
    ///   is on, else `0`: the constants of the crates that own the
    ///   switches (`cso_trace::TRACE`, `cso_memory::{CHAOS, MODEL}`),
    ///   so a gauge cannot disagree with what was compiled;
    /// * `cso_process_uptime_seconds` — polled; seconds since this
    ///   method ran (call it once at startup so the gauge tracks
    ///   process lifetime).
    pub fn register_build_info(&self) {
        self.gauge("cso_build_info").set(1.0);
        let mut parts = env!("CARGO_PKG_VERSION")
            .split('.')
            .map(|p| p.parse::<u64>().unwrap_or(0));
        for name in [
            "cso_build_version_major",
            "cso_build_version_minor",
            "cso_build_version_patch",
        ] {
            self.gauge(name).set(parts.next().unwrap_or(0) as f64);
        }
        for (name, enabled) in [
            ("cso_feature_trace", crate::TRACE),
            ("cso_feature_chaos", cso_memory::CHAOS),
            ("cso_feature_model", cso_memory::MODEL),
        ] {
            self.gauge(name).set(f64::from(u8::from(enabled)));
        }
        let start = Instant::now();
        self.gauge_fn("cso_process_uptime_seconds", move || {
            start.elapsed().as_secs_f64()
        });
    }

    /// Registers the `cso_trace_ring_dropped` polled gauge: probe
    /// events lost to ring wrap-around since the last `probe::clear()`
    /// (always `0` unless probes record). Surfacing the drop
    /// count means a truncated trace is visible on the dashboard, not
    /// just in the collected artifact.
    pub fn register_probe_drop_gauge(&self) {
        self.gauge_fn("cso_trace_ring_dropped", || crate::probe::dropped() as f64);
    }

    /// A point-in-time view of every registered metric, sorted by
    /// name. See the module docs for the consistency model.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: read_all(&self.inner.counters, Counter::value),
            gauges: read_all(&self.inner.gauges, Gauge::get),
            timers: read_all(&self.inner.timers, Timer::snapshot),
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        write!(
            f,
            "Registry({} counters, {} gauges, {} timers)",
            s.counters.len(),
            s.gauges.len(),
            s.timers.len()
        )
    }
}

/// A point-in-time view of a [`Registry`], ready for export. All three
/// lists are sorted by metric name.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// `(name, total)` per counter, polled counters included.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per gauge, polled gauges included.
    pub gauges: Vec<(String, f64)>,
    /// `(name, summary)` per timer.
    pub timers: Vec<(String, HistSnapshot)>,
}

impl Snapshot {
    /// The counter named `name`, if one is registered.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.0 == name).map(|c| c.1)
    }

    /// The gauge named `name`, if one is registered.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.0 == name).map(|g| g.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads() {
        let reg = Registry::new();
        let c = reg.counter("ops_total");
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.value(), 80_000);
        assert_eq!(
            reg.snapshot().counters,
            vec![("ops_total".to_owned(), 80_000)]
        );
    }

    #[test]
    fn registration_is_idempotent() {
        let reg = Registry::new();
        let a = reg.counter("x_total");
        let b = reg.counter("x_total");
        a.add(3);
        b.add(4);
        assert_eq!(a.value(), 7, "same series");
        assert_eq!(reg.snapshot().counters.len(), 1);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_are_rejected() {
        Registry::new().counter("no spaces allowed");
    }

    #[test]
    fn gauges_and_polled_series_snapshot() {
        let reg = Registry::new();
        reg.gauge("ewma").set(0.25);
        reg.gauge_fn("polled", || 42.0);
        reg.counter_fn("polled_total", || 1);
        reg.counter_fn("polled_total", || 7);
        let snap = reg.snapshot();
        assert_eq!(
            snap.gauges,
            vec![("ewma".to_owned(), 0.25), ("polled".to_owned(), 42.0)]
        );
        // The later reader replaced the earlier, as a counter.
        assert_eq!(snap.counters, vec![("polled_total".to_owned(), 7)]);
    }

    #[test]
    #[should_panic(expected = "already a polled reader")]
    fn a_handle_under_a_polled_name_is_refused() {
        let reg = Registry::new();
        reg.counter_fn("x_total", || 1);
        // Would otherwise be a second `x_total` that reads 0 forever.
        let _ = reg.counter("x_total");
    }

    #[test]
    #[should_panic(expected = "already a handle")]
    fn a_polled_reader_under_a_handle_name_is_refused() {
        let reg = Registry::new();
        let _ = reg.gauge("depth");
        reg.gauge_fn("depth", || 1.0);
    }

    #[test]
    fn timer_snapshots_quantiles() {
        let reg = Registry::new();
        let t = reg.timer("fast_ns");
        for i in 1..=100 {
            t.record_ns(i * 1000);
        }
        let snap = t.snapshot();
        assert_eq!(snap.count, 100);
        assert!(snap.p50_ns >= 50_000 && snap.p50_ns <= 56_000, "{snap:?}");
        let out = t.time(|| 7);
        assert_eq!(out, 7);
        assert_eq!(t.snapshot().count, 101);
    }

    #[test]
    fn probe_drop_gauge_is_wired() {
        let reg = Registry::new();
        reg.register_probe_drop_gauge();
        let snap = reg.snapshot();
        let (name, v) = &snap.gauges[0];
        assert_eq!(name, "cso_trace_ring_dropped");
        // 0 in un-traced builds; >= 0 in traced builds (other tests in
        // this process may have wrapped rings).
        assert!(*v >= 0.0);
    }

    #[test]
    fn build_info_reports_identity_features_and_uptime() {
        let reg = Registry::new();
        reg.register_build_info();
        let snap = reg.snapshot();
        let get = |name: &str| {
            snap.gauges
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("missing gauge {name}"))
                .1
        };
        assert_eq!(get("cso_build_info"), 1.0);
        let version = format!(
            "{}.{}.{}",
            get("cso_build_version_major"),
            get("cso_build_version_minor"),
            get("cso_build_version_patch")
        );
        assert_eq!(version, "0.1.0");
        // Each gauge is its owner's switch — in particular `model`,
        // which no feature of this crate could ever have reported.
        for (feature, on) in [
            ("trace", crate::TRACE),
            ("chaos", cso_memory::CHAOS),
            ("model", cso_memory::MODEL),
        ] {
            let v = get(&format!("cso_feature_{feature}"));
            assert_eq!(v, f64::from(u8::from(on)), "{feature}");
        }
        assert!(get("cso_process_uptime_seconds") >= 0.0);
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let reg = Registry::new();
        reg.counter("z_total");
        reg.counter("a_total");
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a_total", "z_total"]);
    }
}
