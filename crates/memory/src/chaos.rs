//! Fault injection: named fail points threaded through the hot paths.
//!
//! §5 of the paper concedes that the Figure 3 algorithms survive
//! crashes only "if no process crashes while holding the lock". This
//! module is the workbench for probing exactly that class of adverse
//! event in the *real* (threaded) implementations, not just the model
//! checker: hot paths declare named **fail points**
//! (`cso_memory::fail_point!("cs::locked")`), and a test or chaos
//! harness arms them at run time with a [`Fault`]:
//!
//! * [`Fault::Delay`] — sleep, widening race windows;
//! * [`Fault::Yield`] — yield the OS thread, perturbing schedules;
//! * [`Fault::SpuriousAbort`] — make an abortable fast path return ⊥,
//!   simulating pathological contention;
//! * [`Fault::Panic`] — panic mid-operation, simulating a process
//!   crash at the injection site;
//! * [`Fault::StallForever`] — block until [`reset`], simulating the
//!   §5 nightmare: a process that stops while holding the lock.
//!
//! # Cost while nothing is armed
//!
//! Every build carries the registry. Arming a site arms the run-time
//! mode ([`crate::mode`]), which is what lets an operation reach its
//! fail points at all: on Figure 3's contention-free path the sites
//! exist only in the [`Armed`](crate::mode::Armed) instance, and
//! elsewhere each site is one relaxed load of the mode word.
//!
//! # Concurrency semantics
//!
//! Arming, disarming and firing are globally serialized behind a
//! mutex (fail points are a test facility; the fast path above keeps
//! the common case cheap). [`Fault::StallForever`] parks *outside* the
//! mutex and re-checks a generation counter, so [`reset`] reliably
//! releases stalled threads.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::backoff::XorShift64;
use crate::mode;
use crate::runtime::{Active, Runtime};

/// What an armed fail point injects when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Sleep for the given duration.
    Delay(Duration),
    /// Yield the OS thread once.
    Yield,
    /// Ask the call site to behave as if the operation aborted (⊥).
    /// Only honored by sites wired with the two-argument form of
    /// [`fail_point!`](crate::fail_point); unit sites ignore it.
    SpuriousAbort,
    /// Panic, unwinding out of the injection site.
    Panic,
    /// Park the calling thread until [`reset`] (or [`disarm`] of this
    /// site). Models a crashed/descheduled-forever process.
    StallForever,
}

/// What the call site should do after a fail point returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Proceed normally.
    Continue,
    /// Behave as if the operation aborted with no effect.
    Abort,
}

/// A full injection plan: the fault plus firing discipline.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// The fault to inject.
    pub fault: Fault,
    /// Skip the first `after` hits of the site.
    pub after: u64,
    /// Fire on one in `one_in` eligible hits (1 = every hit),
    /// pseudo-randomly (deterministic per [`arm_plan`] call order).
    pub one_in: u64,
    /// Disarm the site automatically after this many fires
    /// (`u64::MAX` = unlimited).
    pub max_fires: u64,
}

impl Plan {
    /// Fires on every hit, forever.
    #[must_use]
    pub fn always(fault: Fault) -> Plan {
        Plan {
            fault,
            after: 0,
            one_in: 1,
            max_fires: u64::MAX,
        }
    }

    /// Fires exactly once, on the first hit.
    #[must_use]
    pub fn once(fault: Fault) -> Plan {
        Plan::times(fault, 1)
    }

    /// Fires on each of the first `n` hits, then disarms — e.g. a
    /// veto of one operation's fast attempt and each of its retries.
    #[must_use]
    pub fn times(fault: Fault, n: u64) -> Plan {
        Plan {
            fault,
            after: 0,
            one_in: 1,
            max_fires: n,
        }
    }

    /// Fires on roughly one in `n` hits, forever.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn one_in(fault: Fault, n: u64) -> Plan {
        assert!(n > 0, "one_in needs a positive ratio");
        Plan {
            fault,
            after: 0,
            one_in: n,
            max_fires: u64::MAX,
        }
    }
}

#[derive(Debug)]
struct Site {
    plan: Plan,
    hits: u64,
    fires: u64,
    rng: XorShift64,
}

#[derive(Debug, Default)]
struct RegistryState {
    sites: HashMap<&'static str, Site>,
    /// Lifetime counters, kept after disarm so tests can assert.
    hits: HashMap<&'static str, u64>,
    fires: HashMap<&'static str, u64>,
    /// When true, every hit is recorded even with no site armed
    /// (coverage tracing).
    tracing: bool,
}

/// Number of armed sites + tracing flag: what [`hit`] tests before it
/// takes the registry lock (the mode word also counts ring readers).
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

/// Counts `n` more (`activate`) or fewer (`deactivate`) armed sites,
/// here and in the mode word.
fn activate(n: usize) {
    ACTIVE.fetch_add(n, Ordering::SeqCst);
    mode::raise(n);
}

fn deactivate(n: usize) {
    ACTIVE.fetch_sub(n, Ordering::SeqCst);
    mode::lower(n);
}

/// Bumped by [`reset`]/[`disarm`]; stalled threads watch it.
static GENERATION: AtomicU64 = AtomicU64::new(0);

static REGISTRY: Mutex<Option<RegistryState>> = Mutex::new(None);

/// Observer invoked (outside the registry lock, before the fault is
/// applied) each time a fail point **fires**. Installed by tracing
/// layers — see `cso_trace::install_chaos_hook` — so a trace can show
/// which fail point caused each poisoning.
static FIRE_HOOK: Mutex<Option<fn(&'static str)>> = Mutex::new(None);

/// Installs (or, with `None`, removes) the global fire observer.
///
/// The hook runs on the firing thread after the plan decides to fire
/// and before the fault is applied, so a `Panic`/`StallForever` fault
/// is still preceded by its hook call. Keep hooks cheap and
/// non-reentrant (they must not hit fail points themselves).
pub fn set_fire_hook(hook: Option<fn(&'static str)>) {
    *FIRE_HOOK.lock().unwrap_or_else(|e| e.into_inner()) = hook;
}

fn with_registry<R>(f: impl FnOnce(&mut RegistryState) -> R) -> R {
    let mut guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    f(guard.get_or_insert_with(RegistryState::default))
}

/// Arms `site` with a [`Plan::always`] plan for `fault`.
pub fn arm(site: &'static str, fault: Fault) {
    arm_plan(site, Plan::always(fault));
}

/// Arms `site` with an explicit plan, replacing any previous plan.
pub fn arm_plan(site: &'static str, plan: Plan) {
    with_registry(|reg| {
        let seed = 0xC4A0_5E11 ^ (reg.sites.len() as u64 + 1);
        if reg
            .sites
            .insert(
                site,
                Site {
                    plan,
                    hits: 0,
                    fires: 0,
                    rng: XorShift64::new(seed),
                },
            )
            .is_none()
        {
            activate(1);
        }
    });
}

/// Disarms `site` (stalled threads parked on it resume).
pub fn disarm(site: &'static str) {
    with_registry(|reg| {
        if reg.sites.remove(site).is_some() {
            deactivate(1);
        }
    });
    GENERATION.fetch_add(1, Ordering::SeqCst);
}

/// Disarms every site, releases every stalled thread, and clears the
/// lifetime counters. Call between chaos scenarios.
pub fn reset() {
    with_registry(|reg| {
        let armed = reg.sites.len();
        reg.sites.clear();
        reg.hits.clear();
        reg.fires.clear();
        if reg.tracing {
            reg.tracing = false;
            deactivate(1);
        }
        deactivate(armed);
    });
    GENERATION.fetch_add(1, Ordering::SeqCst);
}

/// Enables/disables coverage tracing: while on, every fail point hit
/// is recorded in the lifetime counters even if the site is not armed.
pub fn set_tracing(on: bool) {
    with_registry(|reg| {
        if reg.tracing != on {
            reg.tracing = on;
            if on {
                activate(1);
            } else {
                deactivate(1);
            }
        }
    });
}

/// Lifetime hit count of `site` (survives [`disarm`], cleared by
/// [`reset`]).
#[must_use]
pub fn hits(site: &str) -> u64 {
    with_registry(|reg| reg.hits.get(site).copied().unwrap_or(0))
}

/// Lifetime fire count of `site`.
#[must_use]
pub fn fires(site: &str) -> u64 {
    with_registry(|reg| reg.fires.get(site).copied().unwrap_or(0))
}

/// Every site name recorded so far (tracing or armed hits), sorted.
#[must_use]
pub fn seen_sites() -> Vec<&'static str> {
    with_registry(|reg| {
        let mut names: Vec<&'static str> = reg.hits.keys().copied().collect();
        names.sort_unstable();
        names
    })
}

/// The entry point the [`fail_point!`](crate::fail_point) macro calls.
/// Executes the armed fault (if any) and reports what the call site
/// should do.
pub fn hit(site: &'static str) -> Action {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return Action::Continue;
    }
    let fault = with_registry(|reg| {
        if reg.tracing || reg.sites.contains_key(site) {
            *reg.hits.entry(site).or_insert(0) += 1;
        }
        let s = reg.sites.get_mut(site)?;
        s.hits += 1;
        if s.hits <= s.plan.after {
            return None;
        }
        if s.plan.one_in > 1 {
            // Under the model runtime the fire/skip draw is a recorded
            // schedule decision (deterministic, replayable); otherwise
            // it falls back to the site's thread-agnostic RNG.
            let fired = match Active::chaos_one_in(s.plan.one_in) {
                Some(fired) => fired,
                None => s.rng.next_below(s.plan.one_in) == 0,
            };
            if !fired {
                return None;
            }
        }
        s.fires += 1;
        *reg.fires.entry(site).or_insert(0) += 1;
        let fault = s.plan.fault;
        if s.fires >= s.plan.max_fires {
            reg.sites.remove(site);
            deactivate(1);
        }
        Some(fault)
    });
    let Some(fault) = fault else {
        return Action::Continue;
    };
    if let Some(hook) = *FIRE_HOOK.lock().unwrap_or_else(|e| e.into_inner()) {
        hook(site);
    }
    match fault {
        Fault::Delay(d) => {
            // Inside a model session a wall-clock sleep is meaningless
            // (and harmful: it stalls the serialized schedule); one
            // spin-hint yields the same "someone else runs first"
            // effect deterministically.
            if !Active::spin_hint() {
                std::thread::sleep(d);
            }
            Action::Continue
        }
        Fault::Yield => {
            if !Active::spin_hint() {
                std::thread::yield_now();
            }
            Action::Continue
        }
        Fault::SpuriousAbort => Action::Abort,
        Fault::Panic => panic!("chaos: injected panic at fail point `{site}`"),
        Fault::StallForever => {
            let generation = GENERATION.load(Ordering::SeqCst);
            while GENERATION.load(Ordering::SeqCst) == generation {
                if !Active::spin_hint() {
                    std::thread::park_timeout(Duration::from_micros(200));
                }
            }
            Action::Continue
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global; tests in this module must not
    // run concurrently with each other. Serialize them.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn unarmed_site_is_a_noop() {
        let _serial = serial();
        reset();
        assert_eq!(hit("chaos-test::nothing"), Action::Continue);
        assert_eq!(hits("chaos-test::nothing"), 0);
    }

    #[test]
    fn spurious_abort_fires_and_counts() {
        let _serial = serial();
        reset();
        arm("chaos-test::abort", Fault::SpuriousAbort);
        assert_eq!(hit("chaos-test::abort"), Action::Abort);
        assert_eq!(hit("chaos-test::abort"), Action::Abort);
        assert_eq!(hits("chaos-test::abort"), 2);
        assert_eq!(fires("chaos-test::abort"), 2);
        disarm("chaos-test::abort");
        assert_eq!(hit("chaos-test::abort"), Action::Continue);
        // Lifetime counters survive disarm.
        assert_eq!(fires("chaos-test::abort"), 2);
        reset();
    }

    #[test]
    fn once_plan_self_disarms() {
        let _serial = serial();
        reset();
        arm_plan("chaos-test::once", Plan::once(Fault::SpuriousAbort));
        assert_eq!(hit("chaos-test::once"), Action::Abort);
        assert_eq!(hit("chaos-test::once"), Action::Continue);
        assert_eq!(fires("chaos-test::once"), 1);
        reset();
    }

    #[test]
    fn after_skips_early_hits() {
        let _serial = serial();
        reset();
        arm_plan(
            "chaos-test::after",
            Plan {
                fault: Fault::SpuriousAbort,
                after: 2,
                one_in: 1,
                max_fires: u64::MAX,
            },
        );
        assert_eq!(hit("chaos-test::after"), Action::Continue);
        assert_eq!(hit("chaos-test::after"), Action::Continue);
        assert_eq!(hit("chaos-test::after"), Action::Abort);
        reset();
    }

    #[test]
    fn one_in_fires_a_fraction() {
        let _serial = serial();
        reset();
        arm_plan("chaos-test::ratio", Plan::one_in(Fault::SpuriousAbort, 4));
        let mut aborts = 0;
        for _ in 0..4_000 {
            if hit("chaos-test::ratio") == Action::Abort {
                aborts += 1;
            }
        }
        assert!(
            (500..=1_500).contains(&aborts),
            "one_in(4) fired {aborts}/4000 times"
        );
        reset();
    }

    #[test]
    fn panic_fault_panics_at_the_site() {
        let _serial = serial();
        reset();
        arm_plan("chaos-test::panic", Plan::once(Fault::Panic));
        let result = std::panic::catch_unwind(|| hit("chaos-test::panic"));
        assert!(result.is_err());
        // Self-disarmed after one fire: safe to hit again.
        assert_eq!(hit("chaos-test::panic"), Action::Continue);
        reset();
    }

    #[test]
    fn stall_forever_is_released_by_reset() {
        let _serial = serial();
        reset();
        arm("chaos-test::stall", Fault::StallForever);
        let stalled = std::thread::spawn(|| {
            hit("chaos-test::stall");
        });
        std::thread::sleep(Duration::from_millis(20));
        assert!(!stalled.is_finished(), "thread must be stalled");
        reset();
        stalled.join().expect("reset must release the stall");
    }

    #[test]
    fn fire_hook_sees_fires_not_mere_hits() {
        let _serial = serial();
        reset();
        static HOOKED: AtomicU64 = AtomicU64::new(0);
        set_fire_hook(Some(|site| {
            assert_eq!(site, "chaos-test::hooked");
            HOOKED.fetch_add(1, Ordering::SeqCst);
        }));
        arm_plan(
            "chaos-test::hooked",
            Plan {
                fault: Fault::Yield,
                after: 1,
                one_in: 1,
                max_fires: u64::MAX,
            },
        );
        let _ = hit("chaos-test::hooked"); // skipped by `after`
        let _ = hit("chaos-test::hooked"); // fires
        assert_eq!(HOOKED.load(Ordering::SeqCst), 1);
        set_fire_hook(None);
        let _ = hit("chaos-test::hooked");
        assert_eq!(HOOKED.load(Ordering::SeqCst), 1, "hook removed");
        reset();
    }

    #[test]
    fn tracing_records_unarmed_hits() {
        let _serial = serial();
        reset();
        set_tracing(true);
        let _ = hit("chaos-test::traced");
        assert_eq!(hits("chaos-test::traced"), 1);
        assert!(seen_sites().contains(&"chaos-test::traced"));
        reset();
    }
}
