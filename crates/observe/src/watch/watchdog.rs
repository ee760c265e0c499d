//! The watchdog: a background thread that turns the invariant
//! catalogue and the SLO engine into a live health verdict.
//!
//! Every `cadence` the watchdog evaluates each [`Invariant`], folds
//! the aggregator's per-path counts into the [`SloEngine`], and
//! publishes the result three ways:
//!
//! - **gauges** — `cso_watch_<check>` carries the debounced severity
//!   (0 ok / 1 degraded / 2 poisoned), `cso_watch_health` the overall
//!   maximum, `cso_watch_slo_<name>_firing` and the two burn-rate
//!   gauges the SLO state: readers, registered once at build time, of
//!   the same state `/health` serves;
//! - **events** — every debounced transition appends a structured
//!   record to an in-memory ring (served by `/alerts.json`) and, when
//!   configured, a JSONL file;
//! - **snapshots** — [`Watchdog::health_json`] / `alerts_json` back
//!   the `/health` and `/alerts.json` routes.
//!
//! ## Debounce
//!
//! The watchdog reads racy, uncounted state on purpose — it must
//! never perturb the structures it observes — so a single breaching
//! sample may be an in-flight transient (a push that bumped its
//! counter but has not yet landed). Escalations therefore require
//! `debounce` *consecutive* breaching ticks at the same severity
//! before they publish; recoveries publish on the first clean sample,
//! so a real repair clears immediately. The planted-violation tests
//! in `tests/mutation_detection.rs` pin both directions: a persistent
//! mutant is flagged within a bounded number of ticks, and a clean
//! concurrent workload produces zero transitions.

use std::collections::VecDeque;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::metrics::{Json, Registry};
use crate::profile::LiveAggregator;
use crate::watch::invariant::{Invariant, Verdict};
use crate::watch::slo::{SloEngine, SloSpec, SloStatus};

/// Watchdog tuning knobs.
#[derive(Debug, Clone)]
pub struct WatchConfig {
    /// Evaluation period for the background thread.
    pub cadence: Duration,
    /// Consecutive breaching ticks required before an escalation
    /// publishes (1 = trust every sample).
    pub debounce: u32,
    /// When set, every transition event is appended to this file as
    /// one JSON object per line.
    pub jsonl_path: Option<PathBuf>,
    /// Transition events retained in memory for `/alerts.json`.
    pub recent_cap: usize,
}

impl Default for WatchConfig {
    fn default() -> WatchConfig {
        WatchConfig {
            cadence: Duration::from_millis(25),
            debounce: 2,
            jsonl_path: None,
            recent_cap: 256,
        }
    }
}

/// Builder for a [`Watchdog`].
#[derive(Debug, Default)]
pub struct WatchdogBuilder {
    config: WatchConfig,
    invariants: Vec<Invariant>,
    specs: Vec<SloSpec>,
    aggregator: Option<Arc<LiveAggregator>>,
    registry: Option<Registry>,
}

impl WatchdogBuilder {
    /// Adds one invariant to the catalogue under watch.
    #[must_use]
    pub fn invariant(mut self, invariant: Invariant) -> WatchdogBuilder {
        self.invariants.push(invariant);
        self
    }

    /// Adds SLO objectives (parse them with [`SloSpec::parse`]).
    #[must_use]
    pub fn slos(mut self, specs: Vec<SloSpec>) -> WatchdogBuilder {
        self.specs.extend(specs);
        self
    }

    /// Attaches the live aggregator whose per-path counts feed the
    /// SLO engine. (Aggregator-fed invariants capture their own
    /// handle; this one is only for SLOs.)
    #[must_use]
    pub fn aggregator(mut self, aggregator: Arc<LiveAggregator>) -> WatchdogBuilder {
        self.aggregator = Some(aggregator);
        self
    }

    /// Attaches a metrics registry; the severity and burn gauges are
    /// registered at build time, as readers of the state `/health`
    /// serves, so a scrape sees every check at 0 before anything
    /// breaks.
    #[must_use]
    pub fn registry(mut self, registry: &Registry) -> WatchdogBuilder {
        self.registry = Some(registry.clone());
        self
    }

    /// Overrides the evaluation cadence.
    #[must_use]
    pub fn cadence(mut self, cadence: Duration) -> WatchdogBuilder {
        self.config.cadence = cadence;
        self
    }

    /// Overrides the escalation debounce.
    #[must_use]
    pub fn debounce(mut self, ticks: u32) -> WatchdogBuilder {
        self.config.debounce = ticks.max(1);
        self
    }

    /// Enables the JSONL transition-event export.
    #[must_use]
    pub fn jsonl(mut self, path: impl Into<PathBuf>) -> WatchdogBuilder {
        self.config.jsonl_path = Some(path.into());
        self
    }

    /// Builds without spawning: the caller drives evaluation with
    /// [`Watchdog::tick`]. Deterministic, for tests.
    #[must_use]
    pub fn build(self) -> Watchdog {
        let (engine, shared) = self.assemble();
        Watchdog {
            shared,
            engine: Some(engine),
            thread: None,
            stop: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Builds and spawns the background evaluation thread.
    #[must_use]
    pub fn spawn(self) -> Watchdog {
        let cadence = self.config.cadence;
        let (mut engine, shared) = self.assemble();
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("cso-watch".into())
            .spawn(move || {
                while !thread_stop.load(Ordering::Relaxed) {
                    engine.tick(&thread_shared);
                    std::thread::park_timeout(cadence);
                }
            })
            .expect("spawn cso-watch thread");
        Watchdog {
            shared,
            engine: None,
            thread: Some(handle),
            stop,
        }
    }

    fn assemble(self) -> (Engine, Arc<WatchShared>) {
        let checks: Vec<CheckState> = self
            .invariants
            .iter()
            .map(|inv| CheckState {
                name: inv.name().to_owned(),
                severity: 0,
                reason: String::new(),
                candidate: 0,
                streak: 0,
            })
            .collect();
        let shared = Arc::new(WatchShared {
            start: Instant::now(),
            inner: Mutex::new(WatchInner {
                checks,
                slos: Vec::new(),
                events: VecDeque::new(),
                ticks: 0,
                transitions: 0,
                recent_cap: self.config.recent_cap.max(1),
            }),
        });
        if let Some(reg) = &self.registry {
            shared.register_gauges(reg, &self.specs);
        }
        let engine = Engine {
            invariants: self.invariants,
            slo: SloEngine::new(self.specs),
            slo_firing: Vec::new(),
            aggregator: self.aggregator,
            debounce: self.config.debounce.max(1),
            jsonl_path: self.config.jsonl_path,
        };
        (engine, shared)
    }
}

/// Debounced state of one check, as published to `/health`.
#[derive(Debug, Clone)]
struct CheckState {
    name: String,
    severity: u8,
    reason: String,
    /// Severity the raw samples are currently arguing for.
    candidate: u8,
    /// Consecutive ticks the candidate has held.
    streak: u32,
}

struct WatchInner {
    checks: Vec<CheckState>,
    slos: Vec<SloStatus>,
    events: VecDeque<Json>,
    ticks: u64,
    transitions: u64,
    recent_cap: usize,
}

/// State shared between the evaluation engine and the HTTP routes.
pub struct WatchShared {
    start: Instant,
    inner: Mutex<WatchInner>,
}

/// The evaluation engine: owns the (non-`Sync`) invariants, runs on
/// whichever thread drives it.
struct Engine {
    invariants: Vec<Invariant>,
    slo: SloEngine,
    slo_firing: Vec<bool>,
    aggregator: Option<Arc<LiveAggregator>>,
    debounce: u32,
    jsonl_path: Option<PathBuf>,
}

impl Engine {
    fn tick(&mut self, shared: &WatchShared) {
        let t = shared.start.elapsed();
        let verdicts: Vec<Verdict> = self.invariants.iter().map(Invariant::eval).collect();

        // Fold per-path counts into the SLO engine, then evaluate.
        if !self.slo.is_empty() {
            if let Some(agg) = &self.aggregator {
                let snap = agg.snapshot();
                let counts: Vec<(&str, u64)> = snap
                    .per_path
                    .iter()
                    .map(|&(label, hist)| (label, hist.count))
                    .collect();
                self.slo.observe(t, &counts);
            }
        }
        let slo_status = self.slo.status();
        self.slo_firing.resize(slo_status.len(), false);

        let mut events: Vec<Json> = Vec::new();
        let mut inner = shared.lock();
        inner.ticks += 1;

        for (i, verdict) in verdicts.iter().enumerate() {
            let check = &mut inner.checks[i];
            let raw = verdict.severity();
            let published = check.severity;
            let transition = if raw == published {
                check.streak = 0;
                check.candidate = published;
                // Keep the freshest reason while a violation persists.
                if let Some(reason) = verdict.reason() {
                    check.reason = reason.to_owned();
                }
                false
            } else if raw < published {
                // Recovery: trust the first clean(er) sample.
                true
            } else {
                // Escalation: demand `debounce` consecutive samples.
                if check.candidate == raw {
                    check.streak += 1;
                } else {
                    check.candidate = raw;
                    check.streak = 1;
                }
                check.streak >= self.debounce
            };
            if transition {
                let from = check.severity;
                check.severity = raw;
                check.candidate = raw;
                check.streak = 0;
                check.reason = verdict.reason().unwrap_or("").to_owned();
                events.push(
                    Json::obj()
                        .field("t_ms", t.as_millis() as u64)
                        .field("kind", "invariant")
                        .field("check", check.name.clone())
                        .field("from", Verdict::label_of(from))
                        .field("to", Verdict::label_of(raw))
                        .field("reason", check.reason.clone()),
                );
            }
        }

        // SLO firing state transitions immediately: the engine's long
        // window already is the debounce.
        for (i, status) in slo_status.iter().enumerate() {
            if status.firing != self.slo_firing[i] {
                self.slo_firing[i] = status.firing;
                events.push(
                    Json::obj()
                        .field("t_ms", t.as_millis() as u64)
                        .field("kind", "slo")
                        .field("check", status.name.clone())
                        .field("from", if status.firing { "ok" } else { "firing" })
                        .field("to", if status.firing { "firing" } else { "ok" })
                        .field(
                            "reason",
                            format!(
                                "burn {:.2}x short / {:.2}x long of a {} budget",
                                status.short_burn, status.long_burn, status.budget
                            ),
                        ),
                );
            }
        }
        inner.slos = slo_status;

        inner.transitions += events.len() as u64;
        for event in &events {
            if inner.events.len() >= inner.recent_cap {
                inner.events.pop_front();
            }
            inner.events.push_back(event.clone());
        }
        drop(inner);

        // The JSONL export is best-effort: a full disk must never
        // take the watchdog (or its host process) down with it.
        if let Some(path) = &self.jsonl_path {
            if !events.is_empty() {
                let _ = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .and_then(|mut f| {
                        for event in &events {
                            writeln!(f, "{}", event.render())?;
                        }
                        Ok(())
                    });
            }
        }
    }
}

/// Max published severity across checks, with any firing SLO counting
/// as at least degraded.
fn overall_severity(inner: &WatchInner) -> u8 {
    let checks = inner.checks.iter().map(|c| c.severity).max().unwrap_or(0);
    let slo = u8::from(inner.slos.iter().any(|s| s.firing));
    checks.max(slo)
}

impl WatchShared {
    fn lock(&self) -> MutexGuard<'_, WatchInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Registers the `cso_watch_*` gauges in `reg`, each a reader of
    /// this state: one per check, the overall health, and three per SLO
    /// (0 until the first tick evaluates it).
    fn register_gauges(self: &Arc<Self>, reg: &Registry, specs: &[SloSpec]) {
        for (i, check) in self.lock().checks.iter().enumerate() {
            watch_gauge(
                reg,
                self,
                &format!("cso_watch_{}", check.name),
                move |inner| f64::from(inner.checks[i].severity),
            );
        }
        watch_gauge(reg, self, "cso_watch_health", |inner| {
            f64::from(overall_severity(inner))
        });
        for (i, SloSpec { name, .. }) in specs.iter().enumerate() {
            for (series, read) in [
                (
                    "firing",
                    (|s: &SloStatus| f64::from(u8::from(s.firing))) as fn(&SloStatus) -> f64,
                ),
                ("burn_short", |s| s.short_burn),
                ("burn_long", |s| s.long_burn),
            ] {
                watch_gauge(
                    reg,
                    self,
                    &format!("cso_watch_slo_{name}_{series}"),
                    move |inner| inner.slos.get(i).map_or(0.0, read),
                );
            }
        }
    }

    /// The `/health` document: overall status plus every check and
    /// SLO in its current state.
    pub fn health_json(&self) -> Json {
        let inner = self.lock();
        let severity = overall_severity(&inner);
        let mut reasons = Vec::new();
        let mut checks = Vec::new();
        for check in &inner.checks {
            let mut obj = Json::obj()
                .field("check", check.name.clone())
                .field("status", Verdict::label_of(check.severity))
                .field("severity", u64::from(check.severity));
            if check.severity > 0 {
                obj = obj.field("reason", check.reason.clone());
                reasons.push(Json::Str(format!("{}: {}", check.name, check.reason)));
            }
            checks.push(obj);
        }
        let mut slos = Vec::new();
        for slo in &inner.slos {
            if slo.firing {
                reasons.push(Json::Str(format!(
                    "slo {}: burning {:.2}x short / {:.2}x long",
                    slo.name, slo.short_burn, slo.long_burn
                )));
            }
            slos.push(slo_json(slo));
        }
        Json::obj()
            .field("schema", "cso-health v1")
            .field("status", Verdict::label_of(severity))
            .field("severity", u64::from(severity))
            .field("uptime_ms", self.start.elapsed().as_millis() as u64)
            .field("ticks", inner.ticks)
            .field("reasons", Json::Arr(reasons))
            .field("checks", Json::Arr(checks))
            .field("slos", Json::Arr(slos))
    }

    /// The `/alerts.json` document: currently-active violations plus
    /// the recent transition-event ring.
    pub fn alerts_json(&self) -> Json {
        let inner = self.lock();
        let mut active = Vec::new();
        for check in &inner.checks {
            if check.severity > 0 {
                active.push(
                    Json::obj()
                        .field("kind", "invariant")
                        .field("check", check.name.clone())
                        .field("status", Verdict::label_of(check.severity))
                        .field("reason", check.reason.clone()),
                );
            }
        }
        for slo in &inner.slos {
            if slo.firing {
                active.push(
                    Json::obj()
                        .field("kind", "slo")
                        .field("check", slo.name.clone())
                        .field("status", "DEGRADED")
                        .field(
                            "reason",
                            format!(
                                "burning {:.2}x short / {:.2}x long of a {} budget",
                                slo.short_burn, slo.long_burn, slo.budget
                            ),
                        ),
                );
            }
        }
        Json::obj()
            .field("schema", "cso-alerts v1")
            .field("status", Verdict::label_of(overall_severity(&inner)))
            .field("transitions", inner.transitions)
            .field("active", Json::Arr(active))
            .field("recent", Json::Arr(inner.events.iter().cloned().collect()))
    }
}

fn watch_gauge(
    reg: &Registry,
    shared: &Arc<WatchShared>,
    name: &str,
    read: impl Fn(&WatchInner) -> f64 + Send + Sync + 'static,
) {
    let shared = Arc::clone(shared);
    reg.gauge_fn(name, move || read(&shared.lock()));
}

fn slo_json(slo: &SloStatus) -> Json {
    Json::obj()
        .field("name", slo.name.clone())
        .field("budget", slo.budget)
        .field("short_burn", slo.short_burn)
        .field("long_burn", slo.long_burn)
        .field("firing", slo.firing)
        .field("total_ops", slo.total)
        .field("good_ops", slo.good)
}

/// Handle to a running (or manually driven) watchdog.
pub struct Watchdog {
    shared: Arc<WatchShared>,
    /// Present only in manual mode; the spawned thread owns it
    /// otherwise.
    engine: Option<Engine>,
    thread: Option<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
}

impl Watchdog {
    /// Starts a builder.
    #[must_use]
    pub fn builder() -> WatchdogBuilder {
        WatchdogBuilder::default()
    }

    /// Runs one evaluation pass. Returns `false` (and does nothing)
    /// when the watchdog was spawned — the background thread drives
    /// it then.
    pub fn tick(&mut self) -> bool {
        match &mut self.engine {
            Some(engine) => {
                engine.tick(&self.shared);
                true
            }
            None => false,
        }
    }

    /// The state handle the HTTP routes read.
    #[must_use]
    pub fn shared(&self) -> Arc<WatchShared> {
        Arc::clone(&self.shared)
    }

    /// Current `/health` document.
    #[must_use]
    pub fn health_json(&self) -> Json {
        self.shared.health_json()
    }

    /// Current `/alerts.json` document.
    #[must_use]
    pub fn alerts_json(&self) -> Json {
        self.shared.alerts_json()
    }

    /// Overall status label (`OK` / `DEGRADED` / `POISONED`).
    #[must_use]
    pub fn status(&self) -> &'static str {
        let inner = self.shared.lock();
        Verdict::label_of(overall_severity(&inner))
    }

    /// Total debounced transitions since start.
    #[must_use]
    pub fn transitions(&self) -> u64 {
        self.shared.lock().transitions
    }

    /// Stops the background thread (no-op in manual mode).
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.thread.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn flip_invariant(breach: &Arc<AtomicU64>) -> Invariant {
        let breach = Arc::clone(breach);
        Invariant::new("flip", move || match breach.load(Ordering::Relaxed) {
            0 => Verdict::Ok,
            1 => Verdict::Degraded("planted".into()),
            _ => Verdict::Poisoned("planted hard".into()),
        })
    }

    #[test]
    fn escalations_debounce_and_recoveries_clear_immediately() {
        let breach = Arc::new(AtomicU64::new(0));
        let mut dog = Watchdog::builder()
            .invariant(flip_invariant(&breach))
            .debounce(3)
            .build();
        assert!(dog.tick());
        assert_eq!(dog.status(), "OK");

        // One transient breaching sample: absorbed.
        breach.store(1, Ordering::Relaxed);
        dog.tick();
        breach.store(0, Ordering::Relaxed);
        dog.tick();
        assert_eq!(dog.status(), "OK");
        assert_eq!(dog.transitions(), 0, "transient produced no event");

        // A persistent breach crosses the debounce.
        breach.store(1, Ordering::Relaxed);
        dog.tick();
        dog.tick();
        assert_eq!(dog.status(), "OK", "two ticks, debounce is three");
        dog.tick();
        assert_eq!(dog.status(), "DEGRADED");
        assert_eq!(dog.transitions(), 1);

        // Recovery is immediate.
        breach.store(0, Ordering::Relaxed);
        dog.tick();
        assert_eq!(dog.status(), "OK");
        assert_eq!(dog.transitions(), 2);
    }

    #[test]
    fn poisoned_outranks_degraded_in_overall_health() {
        let breach = Arc::new(AtomicU64::new(2));
        let mut dog = Watchdog::builder()
            .invariant(flip_invariant(&breach))
            .invariant(Invariant::new("steady", || Verdict::Ok))
            .debounce(1)
            .build();
        dog.tick();
        assert_eq!(dog.status(), "POISONED");
        let health = dog.health_json();
        assert_eq!(health.get("status").unwrap().as_str(), Some("POISONED"));
        assert_eq!(
            health.get("schema").unwrap().as_str(),
            Some("cso-health v1")
        );
        let checks = health.get("checks").unwrap().as_arr().unwrap();
        assert_eq!(checks.len(), 2);
        let reasons = health.get("reasons").unwrap().as_arr().unwrap();
        assert_eq!(reasons.len(), 1, "only the breached check has a reason");
    }

    #[test]
    fn transitions_land_in_the_event_ring_and_gauges() {
        let registry = Registry::new();
        let breach = Arc::new(AtomicU64::new(0));
        let mut dog = Watchdog::builder()
            .invariant(flip_invariant(&breach))
            .registry(&registry)
            .debounce(2)
            .build();
        let gauges = || {
            let snap = registry.snapshot();
            (snap.gauge("cso_watch_flip"), snap.gauge("cso_watch_health"))
        };
        assert_eq!(gauges(), (Some(0.0), Some(0.0)), "at 0 before any tick");
        dog.tick();
        assert_eq!(gauges(), (Some(0.0), Some(0.0)));

        breach.store(1, Ordering::Relaxed);
        dog.tick();
        assert_eq!(gauges(), (Some(0.0), Some(0.0)), "one tick is debounced");
        dog.tick();
        assert_eq!(gauges(), (Some(1.0), Some(1.0)), "the second raises");

        let alerts = dog.alerts_json();
        assert_eq!(
            alerts.get("schema").unwrap().as_str(),
            Some("cso-alerts v1")
        );
        let active = alerts.get("active").unwrap().as_arr().unwrap();
        assert_eq!(active.len(), 1);
        assert_eq!(active[0].get("check").unwrap().as_str(), Some("flip"));
        let recent = alerts.get("recent").unwrap().as_arr().unwrap();
        assert_eq!(recent.len(), 1);
        assert_eq!(recent[0].get("to").unwrap().as_str(), Some("DEGRADED"));
        assert_eq!(recent[0].get("reason").unwrap().as_str(), Some("planted"));

        breach.store(0, Ordering::Relaxed);
        dog.tick();
        assert_eq!(
            gauges(),
            (Some(0.0), Some(0.0)),
            "the first clean tick lowers"
        );
    }

    #[test]
    fn the_event_ring_is_bounded() {
        let breach = Arc::new(AtomicU64::new(0));
        let mut dog = Watchdog::builder()
            .invariant(flip_invariant(&breach))
            .debounce(1)
            .build();
        // recent_cap defaults to 256; flap far past it.
        for round in 0..300 {
            breach.store(u64::from(round % 2 == 0), Ordering::Relaxed);
            dog.tick();
        }
        let recent = dog.alerts_json();
        let ring = recent.get("recent").unwrap().as_arr().unwrap().len();
        assert!(ring <= 256, "ring kept {ring}");
        assert_eq!(dog.transitions(), 300, "every flap transitioned");
    }

    #[test]
    fn jsonl_export_appends_one_parseable_object_per_transition() {
        let dir = std::env::temp_dir().join(format!(
            "cso-watch-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("events.jsonl");
        let _ = std::fs::remove_file(&path);
        let breach = Arc::new(AtomicU64::new(0));
        let mut dog = Watchdog::builder()
            .invariant(flip_invariant(&breach))
            .debounce(1)
            .jsonl(&path)
            .build();
        dog.tick();
        breach.store(1, Ordering::Relaxed);
        dog.tick();
        breach.store(0, Ordering::Relaxed);
        dog.tick();
        let text = std::fs::read_to_string(&path).expect("jsonl written");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        for line in lines {
            let event = Json::parse(line).expect("each line parses alone");
            assert_eq!(event.get("kind").unwrap().as_str(), Some("invariant"));
            assert!(event.get("t_ms").unwrap().as_u64().is_some());
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn a_spawned_watchdog_evaluates_on_its_own() {
        let breach = Arc::new(AtomicU64::new(1));
        let dog = Watchdog::builder()
            .invariant(flip_invariant(&breach))
            .cadence(Duration::from_millis(1))
            .debounce(2)
            .spawn();
        let deadline = Instant::now() + Duration::from_secs(5);
        while dog.status() == "OK" && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(dog.status(), "DEGRADED", "background thread detected it");
        dog.stop();
    }

    #[test]
    fn stopping_a_spawned_watchdog_does_not_wait_out_its_cadence() {
        let dog = Watchdog::builder()
            .invariant(Invariant::new("steady", || Verdict::Ok))
            .cadence(Duration::from_secs(5))
            .spawn();
        // Let the thread finish its first tick and start waiting.
        let deadline = Instant::now() + Duration::from_secs(5);
        while dog.health_json().get("ticks").and_then(Json::as_u64) == Some(0)
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(20));
        let t0 = Instant::now();
        dog.stop();
        let took = t0.elapsed();
        assert!(took < Duration::from_secs(1), "stop took {took:?}");
    }
}
