//! Configuration for the sharded structures: lane count, relaxation
//! bound, and the elastic controller's knobs.

use cso_core::CsConfig;

/// Configuration for [`ShardedCsStack`](crate::ShardedCsStack) /
/// [`ShardedCsQueue`](crate::ShardedCsQueue).
///
/// Build with [`ShardConfig::relaxed`] (or [`ShardConfig::strict`] for
/// exact order), then chain `with_*` adapters:
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
    /// Maximum out-of-order distance the lane layout may contribute.
    /// Lane capacity is derived from it so that at most `(lanes − 1) ×
    /// lane_cap ≤ k` elements can ever sit in *other* lanes when a pop
    /// takes its lane-local answer; the effective bound (including the
    /// ≤ n − 1 slack that concurrent in-flight operations add to
    /// Empty/Full answers) is reported by `relaxation_bound()`. One
    /// lane has no other lanes: `k` is unused and the order is exact.
    pub k: usize,
    /// When true, the active lane prefix grows and shrinks with the
    /// number of threads seen using the structure; when false all
    /// `lanes` are always active.
    pub elastic: bool,
    /// Pushes (or pops) of one thread between its elastic evaluations,
    /// rounded up to a power of two. A window has to span two threads'
    /// operations to see two writers, so a period of 1 never fans out.
    pub eval_period: usize,
    /// Evaluations skipped after a split/merge, so the lane count
    /// cannot thrash.
    pub cooldown_evals: usize,
    /// The per-lane cell configuration (ladder, combining, recovery —
    /// every `CsConfig` preset works unchanged inside a lane).
    pub cs: CsConfig,
}

impl ShardConfig {
    /// Exact LIFO/FIFO: **one** lane, whatever `lanes` says. Exact
    /// order across cells needs a lock in front of all of them, which
    /// is the always-locking design Figure 3 replaces; one cell already
    /// is exact, linearizable and starvation-free (Theorem 1), with no
    /// lock when nobody interferes. Same object as `relaxed(1, 0)`;
    /// the argument is kept for callers written against N strict lanes.
    #[must_use]
    pub const fn strict(_lanes: usize) -> ShardConfig {
        ShardConfig::relaxed(1, 0)
    }

    /// k-relaxed sharding across `lanes` lanes: pops may return an
    /// element up to `k` positions away from the strict answer
    /// (requires `k ≥ lanes − 1` so every lane can hold at least one
    /// element).
    #[must_use]
    pub const fn relaxed(lanes: usize, k: usize) -> ShardConfig {
        ShardConfig {
            lanes,
            k,
            elastic: false,
            eval_period: 64,
            cooldown_evals: 2,
            cs: CsConfig::PAPER,
        }
    }

    /// Enables elastic lane split/merge (starts contracted at one
    /// lane; the controller fans out as writers arrive and collide).
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

    /// The capacity of each lane of a structure asked to hold
    /// `capacity`: `min(ceil(capacity / lanes), k / (lanes − 1))` — the
    /// second term is what makes the relaxation bound hold, and one
    /// lane has no such term — taken through `round`, the lane type's
    /// own constraint, which may lower it but not raise it. The
    /// structure's capacity is `lanes ×` this, in every case.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is outside `1..=64` or `k < lanes − 1` (some
    /// lane could hold nothing).
    pub(crate) fn lane_cap(&self, capacity: usize, round: impl Fn(usize) -> usize) -> usize {
        let ShardConfig { lanes, k, .. } = *self;
        assert!((1..=64).contains(&lanes), "lanes must be in 1..=64");
        let share = capacity.div_ceil(lanes).max(1);
        if lanes == 1 {
            return round(share);
        }
        assert!(
            k >= lanes - 1,
            "relaxed sharding needs k >= lanes - 1 (got k={k}, lanes={lanes})"
        );
        round(share.min(k / (lanes - 1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let cfg = ShardConfig::strict(4);
        assert_eq!((cfg.lanes, cfg.k), (1, 0));
        assert!(!cfg.elastic);

        let cfg = ShardConfig::relaxed(8, 16)
            .with_elastic()
            .with_elastic_cadence(8, 1);
        assert_eq!((cfg.lanes, cfg.k), (8, 16));
        assert!(cfg.elastic);
        assert_eq!(cfg.eval_period, 8);
        assert_eq!(cfg.cooldown_evals, 1);
    }

    #[test]
    fn relaxed_lane_caps_round_down_to_powers_of_two() {
        let floor = crate::queue::power_of_two_floor;
        // ceil(48/4)=12, k/(lanes-1)=24/3=8 → min 8 (already pow2):
        // the layout bound (lanes − 1) × lane_cap is exactly k.
        assert_eq!(ShardConfig::relaxed(4, 24).lane_cap(48, floor), 8);
        // ceil(60/4)=15, 21/3=7 → min 7 → rounds down to 4, so the
        // bound 3 × 4 stays under k = 21.
        assert_eq!(ShardConfig::relaxed(4, 21).lane_cap(60, floor), 4);
        assert_eq!(ShardConfig::relaxed(4, 21).lane_cap(60, |raw| raw), 7);
        // One lane has no k term: the whole capacity, rounded.
        assert_eq!(ShardConfig::strict(4).lane_cap(60, floor), 32);
        assert_eq!(ShardConfig::strict(4).lane_cap(60, |raw| raw), 60);
    }
}
