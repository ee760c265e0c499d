//! Configuration for the sharded structures: lane count, ordering
//! mode, and the elastic controller's knobs.

use cso_core::CsConfig;

/// The ordering discipline a sharded structure provides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardMode {
    /// Exact LIFO/FIFO. A ticket latch serializes lane selection and
    /// an order journal records which lane holds each position, so the
    /// structure linearizes against the unrelaxed sequential spec.
    /// Scaling is limited by the order section (the "stealing tax").
    Strict,
    /// Out-of-order by at most a checked bound. Lane capacity is
    /// derived from `k` so that at most `(lanes − 1) × lane_cap ≤ k`
    /// elements can ever sit in *other* lanes when a pop takes its
    /// lane-local answer; the effective bound (including the ≤ n − 1
    /// slack that concurrent in-flight operations add to Empty/Full
    /// answers) is reported by `relaxation_bound()`.
    Relaxed {
        /// Maximum out-of-order distance contributed by lane layout.
        k: usize,
    },
}

/// Configuration for [`ShardedCsStack`](crate::ShardedCsStack) /
/// [`ShardedCsQueue`](crate::ShardedCsQueue).
///
/// Build with [`ShardConfig::strict`] or [`ShardConfig::relaxed`],
/// then chain `with_*` adapters:
///
/// ```
/// use cso_core::CsConfig;
/// use cso_shard::ShardConfig;
///
/// let cfg = ShardConfig::relaxed(8, 16)
///     .with_elastic()
///     .with_cs(CsConfig::LADDER);
/// assert_eq!(cfg.lanes, 8);
/// assert!(cfg.elastic);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ShardConfig {
    /// Number of lanes (independent Figure-3 cells), `1..=64`.
    pub lanes: usize,
    /// Ordering discipline.
    pub mode: ShardMode,
    /// When true, the active lane prefix grows and shrinks with the
    /// EWMA contention gate; when false all `lanes` are always active.
    pub elastic: bool,
    /// Router operations between elastic evaluations.
    pub eval_period: usize,
    /// Evaluations skipped after a split/merge (hysteresis beyond the
    /// gate's own bands, so the lane count cannot thrash).
    pub cooldown_evals: usize,
    /// The per-lane cell configuration (ladder, combining, recovery —
    /// every `CsConfig` preset works unchanged inside a lane).
    pub cs: CsConfig,
}

impl ShardConfig {
    /// Strict (exact-order) sharding across `lanes` lanes.
    #[must_use]
    pub const fn strict(lanes: usize) -> ShardConfig {
        ShardConfig {
            lanes,
            mode: ShardMode::Strict,
            elastic: false,
            eval_period: 64,
            cooldown_evals: 2,
            cs: CsConfig::PAPER,
        }
    }

    /// k-relaxed sharding across `lanes` lanes: pops may return an
    /// element up to `k` positions away from the strict answer
    /// (requires `k ≥ lanes − 1` so every lane can hold at least one
    /// element).
    #[must_use]
    pub const fn relaxed(lanes: usize, k: usize) -> ShardConfig {
        ShardConfig {
            lanes,
            mode: ShardMode::Relaxed { k },
            elastic: false,
            eval_period: 64,
            cooldown_evals: 2,
            cs: CsConfig::PAPER,
        }
    }

    /// Enables elastic lane split/merge (starts contracted at one
    /// lane; the gate fans out as contention rises).
    #[must_use]
    pub const fn with_elastic(mut self) -> ShardConfig {
        self.elastic = true;
        self
    }

    /// Overrides the per-lane cell configuration.
    #[must_use]
    pub const fn with_cs(mut self, cs: CsConfig) -> ShardConfig {
        self.cs = cs;
        self
    }

    /// Overrides the elastic controller cadence. Small periods react
    /// (and can be exercised deterministically in model tests); large
    /// periods smooth. `eval_period` must be nonzero.
    #[must_use]
    pub const fn with_elastic_cadence(
        mut self,
        eval_period: usize,
        cooldown_evals: usize,
    ) -> ShardConfig {
        self.eval_period = eval_period;
        self.cooldown_evals = cooldown_evals;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let cfg = ShardConfig::strict(4);
        assert_eq!(cfg.mode, ShardMode::Strict);
        assert!(!cfg.elastic);

        let cfg = ShardConfig::relaxed(8, 16)
            .with_elastic()
            .with_elastic_cadence(8, 1);
        assert_eq!(cfg.mode, ShardMode::Relaxed { k: 16 });
        assert!(cfg.elastic);
        assert_eq!(cfg.eval_period, 8);
        assert_eq!(cfg.cooldown_evals, 1);
    }
}
