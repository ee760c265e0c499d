//! # `cso` — Contention-Sensitive Concurrent Objects
//!
//! A full reproduction of **Mostefaoui & Raynal, “Looking for
//! Efficient Implementations of Concurrent Objects” (2011)**: the
//! abortable stack (Figure 1), the non-blocking stack (Figure 2) and
//! the contention-sensitive, starvation-free stack (Figure 3), built
//! on explicit substrates — counted atomic registers, locks with the
//! §4.4 deadlock-free → starvation-free booster, generic
//! object transformations — and validated by a linearizability checker
//! and a schedule-exploring model checker.
//!
//! This crate is the umbrella: it re-exports every workspace crate
//! under one name. Depend on the individual crates (`cso-stack`,
//! `cso-locks`, …) if you want a narrower dependency.
//!
//! ## The headline result, as a doctest
//!
//! A contention-free operation on the Figure 3 stack takes **no lock
//! and exactly six shared-memory accesses** (Theorem 1):
//!
//! ```
//! use cso::stack::{CsStack, PushOutcome};
//! use cso::memory::counting::CountScope;
//!
//! let stack: CsStack<u32> = CsStack::new(1024, 8); // capacity, processes
//!
//! let scope = CountScope::start();
//! assert_eq!(stack.push(0, 42), PushOutcome::Pushed);
//! assert_eq!(scope.take().total(), 6);
//! assert_eq!(stack.path_stats().locked, 0);
//! ```
//!
//! ## Layer map
//!
//! | Module | Contents |
//! |---|---|
//! | [`memory`] | counted atomic registers, packed words, process registry |
//! | [`locks`] | TAS/ticket/Lamport locks + the §4.4 booster |
//! | [`core`] | `Abortable` objects, progress conditions, Figure 2/3 as generic transformations — which carry every statistic once, for every object |
//! | [`stack`] | the paper's three stacks + the lock-based baseline; Figures 2 and 3 keep only their operations and `Deref` to [`core`]'s transformation, which `Deref`s to the abortable stack |
//! | [`queue`] | the same construction for a bounded FIFO queue |
//! | [`deque`] | the HLM obstruction-free deque (paper ref \[8\]) and its boosts — one object per rung of the hierarchy |
//! | [`shard`] | N Figure-3 cells behind one router: `Sharded<T>`, aliased as `ShardedCsStack` and `ShardedCsQueue` |
//! | [`lincheck`] | history recording + Wing–Gong linearizability checker, against the objects' own `Seq*` specifications |
//! | [`sched`] | the model checker: a controlled scheduler that drives these very types through exhaustive, seeded-random, fair and crash-prefixed schedules (`tests/model_*.rs`) |
//! | [`trace`] | what the objects record into: probe rings armed at run time, latency histograms, the live metrics registry every `attach_metrics` registers in, step auditor, Chrome trace export |
//! | [`metrics`] | the registry (from [`trace`]) with its Prometheus/JSON exporters and scrape endpoint |
//! | [`analyze`] | the one trace analyser: a bounded-memory fold into spans, the §4.4 bypass count, convoys, the helped-by graph and flamegraph stacks (the `cso-analyze` CLI runs it on a capture) |
//! | [`profile`] | continuous profiling: background ring harvester, online span aggregator, live `/profile` + `/spans.json` + `/flamegraph` + `/causal.json` routes |
//! | [`watch`] | online runtime verification: the invariant watchdog, declarative SLOs with burn-rate alerting, `/health` + `/alerts.json` routes, JSONL event export |
//!
//! The last four come from `cso-observe`, a leaf no object crate
//! depends on.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod paper;

pub use cso_core as core;
pub use cso_deque as deque;
pub use cso_lincheck as lincheck;
pub use cso_locks as locks;
pub use cso_memory as memory;
/// The deterministic-interleaving runtime — the workspace's one model
/// checker: drives the production structures through exhaustive,
/// seeded-random, replayed, fair (round-robin) and crash-prefixed
/// schedules, on the threads it registers. See `tests/model_*.rs` and
/// the CONTRIBUTING.md model-test guide.
pub use cso_memory::sched;
pub use cso_observe::{analyze, metrics, profile, watch};
pub use cso_queue as queue;
pub use cso_shard as shard;
pub use cso_stack as stack;
pub use cso_trace as trace;
