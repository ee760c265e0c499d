//! The exploration driver: runs a body under the model runtime across
//! many schedules and reports the first violation with a replayable
//! trace.
//!
//! ```no_run
//! use cso_sched::{Explorer, spawn};
//! use std::sync::Arc;
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let report = Explorer::exhaustive().explore(|| {
//!     let x = Arc::new(AtomicU64::new(0));
//!     let t = {
//!         let x = Arc::clone(&x);
//!         spawn(move || x.fetch_add(1, Ordering::SeqCst))
//!     };
//!     x.fetch_add(1, Ordering::SeqCst);
//!     t.join();
//!     assert_eq!(x.load(Ordering::SeqCst), 2);
//! });
//! report.assert_ok();
//! ```
//!
//! (The example uses raw atomics for brevity; real model tests go
//! through `cso_memory::reg` registers, whose accesses are the yield
//! points.)

use std::fmt;

use crate::path::{self, Decision, Path};
use crate::rng::{self, SplitMix64};
use crate::session::{self, Chooser, Limits, Stop};

/// How the explorer walks the schedule space.
#[derive(Debug, Clone)]
pub enum Mode {
    /// Depth-first exhaustive enumeration of every interleaving (up to
    /// the preemption bound and step budget). Complete for small
    /// thread counts; use for 2–3 threads.
    Exhaustive,
    /// `schedules` independent executions under seeded-random
    /// scheduling. Incomplete but scales to any thread count; every
    /// execution's seed is derived from `base_seed` and printed on
    /// failure.
    Random { base_seed: u64, schedules: usize },
    /// A single execution forced through a previously printed failure
    /// trace (see [`Violation::trace`]).
    Replay { trace: String },
    /// A single execution under the fair scheduler: strict rotation,
    /// every runnable thread takes one step per round. Deterministic
    /// (rerun it to reproduce a failure); the mode for bounded
    /// completion checks — Lemmas 2–3 say no operation needs more than
    /// a bounded number of its own steps here.
    RoundRobin,
}

/// Exploration configuration. Build via [`Explorer::exhaustive`],
/// [`Explorer::random`], [`Explorer::replay`], or
/// [`Explorer::round_robin`], then adjust with the `with_*` methods.
#[derive(Debug, Clone)]
pub struct Explorer {
    mode: Mode,
    /// Scheduling decisions per execution before it is pruned.
    max_steps: usize,
    /// Involuntary context switches per execution (CHESS-style bound);
    /// `None` removes the bound. Most real bugs need very few
    /// preemptions, and each unit multiplies the space, so the default
    /// is small.
    preemption_bound: Option<usize>,
    /// Ceiling on executions for exhaustive mode (a safety net against
    /// state-space blowups in CI; `None` = run to exhaustion).
    max_schedules: Option<usize>,
    /// Seed feeding chaos draws (and, in random mode, the default
    /// base), so chaos-armed explorations replay identically.
    seed: u64,
}

impl Explorer {
    /// A configuration with no preemption bound and no schedule cap.
    fn new(mode: Mode, max_steps: usize, seed: u64) -> Explorer {
        Explorer {
            mode,
            max_steps,
            preemption_bound: None,
            max_schedules: None,
            seed,
        }
    }

    /// DFS-exhaustive exploration with the default bounds
    /// (`max_steps = 2_000`, `preemption_bound = Some(2)`).
    #[must_use]
    pub fn exhaustive() -> Explorer {
        Explorer::new(Mode::Exhaustive, 2_000, 0).with_preemption_bound(Some(2))
    }

    /// Seeded-random sweep of `schedules` executions.
    #[must_use]
    pub fn random(base_seed: u64, schedules: usize) -> Explorer {
        let mode = Mode::Random {
            base_seed,
            schedules,
        };
        Explorer::new(mode, 20_000, base_seed)
    }

    /// Replays one execution from a printed failure trace.
    #[must_use]
    pub fn replay(trace: &str) -> Explorer {
        let trace = trace.to_string();
        Explorer::new(Mode::Replay { trace }, 100_000, 0)
    }

    /// One execution under the fair (strict-rotation) scheduler.
    #[must_use]
    pub fn round_robin() -> Explorer {
        Explorer::new(Mode::RoundRobin, 20_000, 0)
    }

    /// Sets the per-execution step budget.
    #[must_use]
    pub fn with_max_steps(mut self, max_steps: usize) -> Explorer {
        self.max_steps = max_steps;
        self
    }

    /// Sets (or, with `None`, removes) the preemption bound.
    #[must_use]
    pub fn with_preemption_bound(mut self, bound: Option<usize>) -> Explorer {
        self.preemption_bound = bound;
        self
    }

    /// Caps the number of schedules an exhaustive run may try.
    #[must_use]
    pub fn with_max_schedules(mut self, max: usize) -> Explorer {
        self.max_schedules = Some(max);
        self
    }

    /// Sets the seed feeding chaos draws (exhaustive/replay modes).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Explorer {
        self.seed = seed;
        self
    }

    /// Runs `body` across schedules per the configured [`Mode`].
    ///
    /// The body runs once per schedule, each time from the top with
    /// fresh state (construct everything under test *inside* the
    /// closure); model threads are started with [`crate::spawn`].
    /// Returns after the first violation or when the schedule budget
    /// is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if a replay trace fails to parse, or if `explore` is
    /// called from inside another model session (sessions do not
    /// nest).
    pub fn explore<F>(&self, body: F) -> Report
    where
        F: Fn() + Sync,
    {
        assert!(
            !session::active(),
            "cso-sched: Explorer::explore inside a model session (sessions do not nest)"
        );
        let limits = Limits {
            max_steps: self.max_steps,
            preemption_bound: self.preemption_bound,
        };
        let mut report = Report {
            schedules: 0,
            pruned: 0,
            exhausted: false,
            max_steps: self.max_steps,
            violation: None,
        };
        match &self.mode {
            Mode::Exhaustive => {
                let mut path = Path::new();
                loop {
                    let chooser = report.run(limits, Chooser::Dfs(path), self.seed, &body);
                    if report.violation.is_some() {
                        return report;
                    }
                    path = match chooser {
                        Chooser::Dfs(p) => p,
                        _ => unreachable!("exhaustive run returned a non-DFS chooser"),
                    };
                    if !path.advance() {
                        report.exhausted = true;
                        return report;
                    }
                    if self
                        .max_schedules
                        .is_some_and(|max| report.schedules >= max)
                    {
                        return report;
                    }
                }
            }
            Mode::Random {
                base_seed,
                schedules,
            } => {
                for i in 0..*schedules {
                    let seed = rng::mix(base_seed ^ (i as u64).wrapping_mul(0x2545_F491_4F6C_DD1D));
                    report.run(limits, Chooser::Random(SplitMix64::new(seed)), seed, &body);
                    if report.violation.is_some() {
                        return report;
                    }
                }
            }
            Mode::Replay { trace } => {
                let decisions: Vec<Decision> = path::parse_trace(trace)
                    .unwrap_or_else(|e| panic!("cso-sched: bad replay trace: {e}"));
                report.run(
                    limits,
                    Chooser::Replay { decisions, pos: 0 },
                    self.seed,
                    &body,
                );
            }
            Mode::RoundRobin => {
                report.run(limits, Chooser::RoundRobin, self.seed, &body);
            }
        }
        report
    }
}

/// The first violation an exploration hit.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The panic message of the failing oracle/assertion (or a
    /// deadlock description).
    pub message: String,
    /// The branch trace of the failing schedule — feed it to
    /// [`Explorer::replay`] to reproduce deterministically.
    pub trace: String,
    /// The execution seed (chaos draws / random scheduling).
    pub seed: u64,
    /// Zero-based index of the failing schedule within the run.
    pub schedule: usize,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "schedule #{} (seed {:#x}) violated: {}\n  replay trace: \"{}\"",
            self.schedule, self.seed, self.message, self.trace
        )
    }
}

/// Outcome of an exploration.
#[derive(Debug, Clone)]
pub struct Report {
    /// Executions run (including the failing one, if any).
    pub schedules: usize,
    /// Executions cut short by the step budget.
    pub pruned: usize,
    /// Whether the DFS ran the schedule space dry (always `false` for
    /// random sweeps, replays and fair runs).
    pub exhausted: bool,
    /// The per-execution step budget the run was cut at.
    pub max_steps: usize,
    /// The first violation, if one was found.
    pub violation: Option<Violation>,
}

impl Report {
    /// Runs one execution and books its outcome; hands the chooser
    /// back for the next one.
    fn run(
        &mut self,
        limits: Limits,
        chooser: Chooser,
        seed: u64,
        body: &(dyn Fn() + Sync),
    ) -> Chooser {
        let outcome = session::run_once(limits, chooser, seed, body);
        match outcome.stop {
            Some(Stop::Violation) | Some(Stop::Deadlock) => {
                self.violation = Some(Violation {
                    message: outcome
                        .violation
                        .unwrap_or_else(|| "violation with no message".into()),
                    trace: path::format_trace(&outcome.trace),
                    seed,
                    schedule: self.schedules,
                });
            }
            Some(Stop::Pruned) => self.pruned += 1,
            None => {}
        }
        self.schedules += 1;
        outcome.chooser
    }

    /// Panics with the full violation (message + replay trace) if the
    /// exploration found one — and if any execution was pruned: one
    /// cut at the step budget unwinds *before* its oracles run, so a
    /// body that livelocks under the model would otherwise pass. A
    /// body that expects a blocked thread reads [`Report::pruned`]
    /// itself.
    pub fn assert_ok(&self) {
        if let Some(v) = &self.violation {
            panic!(
                "model exploration failed after {} schedule(s): {v}",
                self.schedules
            );
        }
        assert!(
            self.pruned == 0,
            "model exploration pruned {} of {} schedule(s) at the step budget of {} \
             before their oracles ran",
            self.pruned,
            self.schedules,
            self.max_steps
        );
    }

    /// Panics unless the exploration found a violation — used by
    /// mutation self-tests to prove the harness has teeth.
    pub fn assert_violation(&self) -> &Violation {
        self.violation.as_ref().unwrap_or_else(|| {
            panic!(
                "model exploration expected a violation but {} schedule(s) \
                 ({} pruned{}) all passed",
                self.schedules,
                self.pruned,
                if self.exhausted {
                    ", space exhausted"
                } else {
                    ""
                }
            )
        })
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} schedule(s), {} pruned, {}",
            self.schedules,
            self.pruned,
            match (&self.violation, self.exhausted) {
                (Some(v), _) => format!("VIOLATION: {v}"),
                (None, true) => "space exhausted, all passed".to_string(),
                (None, false) => "budget reached, all passed".to_string(),
            }
        )
    }
}
