//! Shared-memory substrate for the `cso` workspace.
//!
//! The computation model of Mostefaoui & Raynal (2011), §2, is a set of
//! `n` asynchronous processes communicating through *atomic registers*
//! supporting `read`, `write` and `Compare&Swap`. This crate provides
//! that model on top of `std::sync::atomic`:
//!
//! * [`reg`] — atomic registers whose every access is recorded in a
//!   per-thread counter while a [`CountScope`] is open (so experiments
//!   can *measure* the paper's "six shared memory accesses" claim
//!   rather than assert it);
//! * [`packed`] — the multi-field register words the paper uses
//!   (`TOP = ⟨index, value, seqnb⟩`, `STACK[x] = ⟨val, sn⟩`), packed
//!   into a single `u64` so they can be CAS-ed atomically;
//! * [`counting`] — the per-thread shared-access counters;
//! * [`stripes`] — single-writer per-thread statistics stripes, the
//!   one striped-counter implementation behind every per-operation
//!   statistic in the workspace (path stats, abort stats, router
//!   stats — the cells the metrics registry's counters read);
//! * [`layout`] — `lines_of`/`disjoint`, the two helpers every
//!   cache-line placement test in the workspace is written with;
//! * [`registry`] — process identities `0..n` (the paper's `p_1..p_n`),
//!   needed by the `FLAG`/`TURN` starvation-freedom mechanism;
//! * [`backoff`] — spin/backoff helpers and deadlines used by retry
//!   and wait loops;
//! * [`combining`] — cache-padded publication records for the
//!   flat-combining slow path (post → claim → complete/poison);
//! * [`exchange`] — the elimination rendezvous slots (offer → park →
//!   take/retract) behind the contention-sensitive escalation ladder;
//! * [`liveness`] — a lease-based failure detector (announce / beat /
//!   exit, plus `suspect`) and the [`liveness::RecoveryPolicy`] that
//!   governs crash recovery of the locked slow path;
//! * [`chaos`] — the fail-point registry behind [`fail_point!`], for
//!   fault-injection testing of the §5 crash caveat;
//! * [`mode`] — the run-time mode word that arms fail points and
//!   probes, read once per operation on Figure 3's contention-free
//!   path.
//!
//! # Example
//!
//! ```
//! use cso_memory::counting;
//! use cso_memory::reg::Reg64;
//!
//! let r = Reg64::new(1);
//! let scope = counting::CountScope::start();
//! r.write(2);
//! assert!(r.cas(2, 3));
//! assert_eq!(r.read(), 3);
//! let counts = scope.take();
//! assert_eq!(counts.total(), 3);
//! ```

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod backoff;
pub mod bits;
pub mod chaos;
pub mod combining;
pub mod counting;
pub mod exchange;
pub mod layout;
pub mod liveness;
pub mod mode;
pub mod packed;
pub mod reg;
pub mod registry;
pub mod runtime;
pub mod stripes;

/// Declares a named fault-injection site (see [`chaos`]).
///
/// Three forms:
///
/// * `fail_point!("site")` — injects delays, yields, panics or stalls
///   in place; a [`chaos::Fault::SpuriousAbort`] is ignored.
/// * `fail_point!("site", expr)` — additionally evaluates `expr`
///   (typically `return Err(Aborted)`) when the armed fault asks the
///   operation to abort.
/// * `fail_point!(M => …)`, either of the above behind a [`mode::Mode`]
///   parameter `M`: the form for code on Figure 3's contention-free
///   path, whose [`mode::Quiet`] instance then carries no site at all.
///
/// A site reads the [`mode`] word (one relaxed load) and consults the
/// [`chaos`] registry only while the mode is armed.
#[macro_export]
macro_rules! fail_point {
    ($mode:ident => $($site:tt)+) => {
        if <$mode as $crate::mode::Mode>::ON {
            $crate::fail_point!($($site)+);
        }
    };
    ($site:expr) => {{
        if $crate::mode::armed() {
            let _ = $crate::chaos::hit($site);
        }
    }};
    ($site:expr, $on_abort:expr) => {{
        if $crate::mode::armed() && $crate::chaos::hit($site) == $crate::chaos::Action::Abort {
            $on_abort
        }
    }};
}

/// Whether counted accesses run on the `cso-sched` model runtime (see
/// [`runtime`]): the `model` cargo feature of this crate, the one
/// switch for that mode.
pub const MODEL: bool = cfg!(feature = "model");

pub use backoff::Deadline;
pub use bits::Bits32;
pub use combining::{CachePadded, PubRecord, RecordState, NO_HELPER};
pub use counting::{AccessCounts, CountScope};
pub use exchange::Exchanger;
pub use liveness::{Liveness, RecoveryPolicy};
pub use packed::{DequeState, DequeWord, HeadWord, SlotWord, TailWord, TopWord};
pub use reg::{Reg64, RegBool, RegUsize};
pub use registry::{ProcRegistry, ProcToken, RegistryFull};
pub use stripes::Stripes;
