//! The metric primitives and the registry that aggregates them.
//!
//! The registry lives beside the [`LogHistogram`] a [`Timer`] wraps,
//! so an object attaches its metrics through the one observability
//! crate it already depends on. What renders, serves or analyses a
//! [`Snapshot`] is `cso-observe`'s, a leaf no object depends on.
//!
//! # Readers, and the one handle
//!
//! A counter or gauge is a *polled reader* ([`Registry::counter_fn`],
//! [`Registry::gauge_fn`]): a fact is counted once, in its owner's
//! cells, and the registry reads it at snapshot time. The [`Timer`] is
//! the one handle, because a latency sample needs a clock reading on
//! the operation's own path.
//!
//! # `snapshot()` consistency model
//!
//! [`Registry::snapshot`] runs every reader with no global lock-out of
//! writers, so it is a *per-metric-consistent* view, not a
//! cross-metric atomic cut:
//!
//! * each counter and gauge is its reader's value as it ran —
//!   a counter reader returns a lifetime total, monotone between
//!   snapshots, but an increment racing the snapshot may appear in
//!   one counter and not yet in a logically-related one (e.g.
//!   `ops_fast_total` may momentarily lag `ops_total`);
//! * timer quantiles summarize *some recent prefix* of samples (see
//!   `LogHistogram::snapshot`).
//!
//! This is the standard contract of scrape-based metrics (Prometheus
//! makes the same trade); rates and ratios computed across metrics are
//! accurate to within the in-flight operations at scrape time.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::hist::{HistSnapshot, LogHistogram};

/// A latency recorder backed by a [`LogHistogram`] (≤6.25% relative
/// quantile error, wait-free recording). Clones share the histogram.
#[derive(Clone)]
pub struct Timer {
    hist: Arc<LogHistogram>,
}

impl Timer {
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

/// One kind of series, by name.
type Table<S> = Mutex<Vec<(String, S)>>;

#[derive(Default)]
struct Inner {
    counters: Table<Polled<u64>>,
    gauges: Table<Polled<f64>>,
    timers: Table<Timer>,
}

/// A named collection of metrics. Cloning is shallow; all clones feed
/// the same snapshot. Registration takes a short-lived lock (do it at
/// setup time); recording into a [`Timer`] never locks.
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

/// Registers the polled reader named `name`, replacing an earlier one.
fn poll<V>(table: &Table<Polled<V>>, name: &str, read: Polled<V>) {
    assert!(valid_name(name), "invalid metric name {name:?}");
    let mut table = locked(table);
    match table.iter_mut().find(|(n, _)| n == name) {
        Some((_, slot)) => *slot = read,
        None => table.push((name.to_owned(), read)),
    }
}

/// Every series of one kind, sorted by name, each read through `get`.
/// The table is copied out first (clones are `Arc` bumps).
fn read_all<S: Clone, V>(table: &Table<S>, get: impl Fn(&S) -> V) -> Vec<(String, V)> {
    let sources = locked(table).clone();
    let mut all: Vec<(String, V)> = sources
        .into_iter()
        .map(|(name, source)| (name, get(&source)))
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

    /// Registers (or retrieves) the timer named `name`.
    ///
    /// Idempotent: a second registration under the same name returns a
    /// handle to the same histogram, so independent components can
    /// share a series without coordination.
    ///
    /// # Panics
    ///
    /// If `name` is not a valid Prometheus metric name
    /// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
    pub fn timer(&self, name: &str) -> Timer {
        assert!(valid_name(name), "invalid metric name {name:?}");
        let mut timers = locked(&self.inner.timers);
        if let Some((_, timer)) = timers.iter().find(|(n, _)| n == name) {
            return timer.clone();
        }
        let timer = Timer {
            hist: Arc::new(LogHistogram::new()),
        };
        timers.push((name.to_owned(), timer.clone()));
        timer
    }

    /// Registers a polled counter: `f` runs at every snapshot and its
    /// return value is reported under `name` — how an object that
    /// counts a fact in its own cells exports it without a second
    /// count. `f` must be monotone (a lifetime total). Re-registering
    /// a name replaces the closure.
    ///
    /// # Panics
    ///
    /// If `name` is invalid (see [`Registry::timer`]).
    pub fn counter_fn(&self, name: &str, f: impl Fn() -> u64 + Send + Sync + 'static) {
        poll(&self.inner.counters, name, Arc::new(f));
    }

    /// Registers a polled gauge: the twin of [`Registry::counter_fn`]
    /// for an instantaneous value.
    ///
    /// # Panics
    ///
    /// If `name` is invalid (see [`Registry::timer`]).
    pub fn gauge_fn(&self, name: &str, f: impl Fn() -> f64 + Send + Sync + 'static) {
        poll(&self.inner.gauges, name, Arc::new(f));
    }

    /// Registers the build-identity and uptime gauges:
    ///
    /// * `cso_build_info` — always `1` (a presence marker, scrapeable
    ///   as "the process is up and identified");
    /// * `cso_build_version_major` / `_minor` / `_patch` — the crate
    ///   version, spread over three series because the registry is
    ///   label-free by design;
    /// * `cso_feature_model` — `1` in a `model` build (the one build
    ///   switch, `cso_memory::MODEL`), else `0`;
    /// * `cso_process_uptime_seconds` — seconds since this method ran
    ///   (call it once at startup so the gauge tracks process
    ///   lifetime).
    pub fn register_build_info(&self) {
        self.gauge_fn("cso_build_info", || 1.0);
        let mut parts = env!("CARGO_PKG_VERSION")
            .split('.')
            .map(|p| p.parse::<u64>().unwrap_or(0));
        for name in [
            "cso_build_version_major",
            "cso_build_version_minor",
            "cso_build_version_patch",
        ] {
            let part = parts.next().unwrap_or(0) as f64;
            self.gauge_fn(name, move || part);
        }
        self.gauge_fn("cso_feature_model", || {
            f64::from(u8::from(cso_memory::MODEL))
        });
        let start = Instant::now();
        self.gauge_fn("cso_process_uptime_seconds", move || {
            start.elapsed().as_secs_f64()
        });
    }

    /// Registers the `cso_trace_ring_dropped` polled gauge: probe
    /// events lost to ring wrap-around since the last `probe::clear()`
    /// (always `0` unless probes have recorded). Surfacing the drop
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
            counters: read_all(&self.inner.counters, |read| read()),
            gauges: read_all(&self.inner.gauges, |read| read()),
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
    /// `(name, total)` per counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per gauge.
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
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_are_rejected() {
        Registry::new().counter_fn("no spaces allowed", || 0);
    }

    #[test]
    fn gauges_and_polled_series_snapshot() {
        let reg = Registry::new();
        reg.gauge_fn("ewma", || 0.25);
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
        // A second registration under the name shares the histogram.
        reg.timer("fast_ns").record_ns(1);
        assert_eq!(t.snapshot().count, 102);
        assert_eq!(reg.snapshot().timers.len(), 1);
    }

    #[test]
    fn probe_drop_gauge_is_wired() {
        let reg = Registry::new();
        reg.register_probe_drop_gauge();
        let snap = reg.snapshot();
        let (name, v) = &snap.gauges[0];
        assert_eq!(name, "cso_trace_ring_dropped");
        // >= 0: other tests in this process may have wrapped rings.
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
        // `model` is the owner's switch, which no feature of this
        // crate could ever have reported.
        assert_eq!(
            get("cso_feature_model"),
            f64::from(u8::from(cso_memory::MODEL))
        );
        assert!(get("cso_process_uptime_seconds") >= 0.0);
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let reg = Registry::new();
        reg.counter_fn("z_total", || 0);
        reg.counter_fn("a_total", || 0);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a_total", "z_total"]);
    }
}
