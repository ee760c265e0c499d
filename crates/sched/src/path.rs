//! The execution path: the DFS frontier over scheduling branches.
//!
//! One *execution* of the body under the model runtime is a sequence
//! of **decisions**: at every scheduling point with more than one
//! runnable candidate, one thread is chosen; at every armed chaos fail
//! point with a probabilistic plan, a fire/skip draw is taken; and at
//! every [`crate::spawn_crashing`], the number of yield points the
//! new thread passes before it is frozen for good. A
//! [`Path`] records those decisions as [`Branch`]es (in the style of
//! loom's `rt::path` — see SNIPPETS.md Snippet 3): re-running the body
//! with the same path prefix deterministically replays the same
//! interleaving up to the frontier, and [`Path::advance`] steps the
//! final branch to its next untried alternative, giving depth-first
//! exhaustive exploration with no checkpointing of program state —
//! the program itself is the checkpoint, replayed from the top.
//!
//! Forced moves (a single runnable candidate) are *not* recorded:
//! they are deterministic consequences of the branch decisions, so
//! omitting them keeps paths — and printed replay traces — short.

use crate::rng;

/// One replayable decision, as printed in a failure trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// A scheduling point chose thread `tid` among ≥ 2 candidates.
    Sched(usize),
    /// An armed chaos fail point drew fire (`true`) or skip (`false`).
    Chaos(bool),
    /// A crashing thread was spawned to freeze after `k` yield points.
    Crash(usize),
}

/// Renders decisions as the compact dot-separated trace format
/// (`"k3.1.0.c1.0"`): scheduling choices as decimal thread ids, chaos
/// draws as `c1`/`c0`, crash prefixes as `k<n>`.
#[must_use]
pub fn format_trace(decisions: &[Decision]) -> String {
    let parts: Vec<String> = decisions
        .iter()
        .map(|d| match d {
            Decision::Sched(t) => t.to_string(),
            Decision::Chaos(fired) => format!("c{}", u8::from(*fired)),
            Decision::Crash(k) => format!("k{k}"),
        })
        .collect();
    parts.join(".")
}

/// Parses the format produced by [`format_trace`].
///
/// # Errors
///
/// Returns a description of the first malformed component.
pub fn parse_trace(trace: &str) -> Result<Vec<Decision>, String> {
    let trimmed = trace.trim();
    if trimmed.is_empty() {
        return Ok(Vec::new());
    }
    trimmed
        .split('.')
        .map(|part| {
            if let Some(flag) = part.strip_prefix('c') {
                match flag {
                    "0" => Ok(Decision::Chaos(false)),
                    "1" => Ok(Decision::Chaos(true)),
                    other => Err(format!("bad chaos decision `c{other}` (want c0/c1)")),
                }
            } else if let Some(prefix) = part.strip_prefix('k') {
                prefix
                    .parse::<usize>()
                    .map(Decision::Crash)
                    .map_err(|_| format!("bad crash prefix `{part}` in trace"))
            } else {
                part.parse::<usize>()
                    .map(Decision::Sched)
                    .map_err(|_| format!("bad thread id `{part}` in trace"))
            }
        })
        .collect()
}

/// A recorded branch point.
#[derive(Debug, Clone)]
enum Branch {
    /// A scheduling choice: the candidate set at that point and the
    /// index of the alternative currently being explored.
    Sched { cands: Vec<usize>, idx: usize },
    /// A chaos draw. Not backtracked over: the draw is a pure function
    /// of the path position and seed (see [`Path::choose_chaos`]), so
    /// exploring both arms would square the schedule space for every
    /// probabilistic fail point; the exhaustive axis stays the
    /// schedule. Recorded so prefix replay reproduces it bit-for-bit.
    Chaos { fired: bool },
    /// A crash prefix: the thread freezes after `k` of at most `max`
    /// yield points. Backtracked over like a scheduling choice, so an
    /// exhaustive run freezes the thread at every prefix `0..=max`.
    Crash { max: usize, k: usize },
}

fn diverged(at: usize, expected: &str, found: &Branch) -> ! {
    panic!(
        "model: schedule diverged from recorded path at decision {at}: \
         expected {expected}, found {found:?} — the body is not schedule-deterministic"
    )
}

/// The DFS path: a replayable prefix plus a frontier.
#[derive(Debug, Default)]
pub struct Path {
    branches: Vec<Branch>,
    /// Position of the next decision within `branches`; decisions
    /// below it replay the recorded choice, decisions at it extend
    /// the path.
    pos: usize,
}

impl Path {
    /// An empty path (the first execution runs thread 0 greedily).
    #[must_use]
    pub fn new() -> Path {
        Path::default()
    }

    /// Chooses the thread to run among `cands` (non-empty, ordered:
    /// the currently running thread first, then ascending ids).
    ///
    /// # Panics
    ///
    /// Panics if a replayed prefix diverges — the candidate set at
    /// this position differs from the recorded one. That means the
    /// body is not schedule-deterministic (wall-clock branches,
    /// unseeded randomness), which exhaustive exploration cannot
    /// handle; failing loudly beats silently exploring garbage.
    pub fn choose_sched(&mut self, cands: &[usize]) -> usize {
        if cands.len() == 1 {
            return cands[0];
        }
        if self.pos < self.branches.len() {
            let at = self.pos;
            self.pos += 1;
            match &self.branches[at] {
                Branch::Sched {
                    cands: recorded,
                    idx,
                } => {
                    assert!(
                        recorded == cands,
                        "model: schedule diverged from recorded path at decision {at}: \
                         recorded candidates {recorded:?}, live candidates {cands:?} — \
                         the body is not schedule-deterministic"
                    );
                    recorded[*idx]
                }
                other => diverged(at, "a scheduling point", other),
            }
        } else {
            self.pos += 1;
            self.branches.push(Branch::Sched {
                cands: cands.to_vec(),
                idx: 0,
            });
            cands[0]
        }
    }

    /// Draws fire/skip for a `one_in` chaos plan. Fresh draws are the
    /// stateless mix of `seed` and the path position, so the same
    /// position yields the same draw on every replay of the prefix.
    pub fn choose_chaos(&mut self, one_in: u64, seed: u64) -> bool {
        if self.pos < self.branches.len() {
            let at = self.pos;
            self.pos += 1;
            match &self.branches[at] {
                Branch::Chaos { fired } => *fired,
                other => diverged(at, "a chaos draw", other),
            }
        } else {
            let fired = rng::mix(seed ^ (self.pos as u64).wrapping_mul(0xA076_1D64_78BD_642F))
                % one_in
                == 0;
            self.pos += 1;
            self.branches.push(Branch::Chaos { fired });
            fired
        }
    }

    /// Chooses after how many yield points (`0..=max`) a crashing
    /// thread freezes: `0` on first visit, then every longer prefix
    /// in turn as [`Path::advance`] backtracks over the branch.
    ///
    /// # Panics
    ///
    /// Panics if a replayed prefix diverges (see
    /// [`Path::choose_sched`]).
    pub fn choose_crash(&mut self, max: usize) -> usize {
        let at = self.pos;
        self.pos += 1;
        match self.branches.get(at) {
            Some(Branch::Crash { max: recorded, k }) if *recorded == max => *k,
            Some(other) => diverged(at, "a crash prefix", other),
            None => {
                self.branches.push(Branch::Crash { max, k: 0 });
                0
            }
        }
    }

    /// Steps to the next unexplored execution: backtracks to the
    /// deepest branch with an untried alternative, selects it, and
    /// rewinds the replay cursor. Returns `false` when the space is
    /// exhausted.
    pub fn advance(&mut self) -> bool {
        loop {
            match self.branches.last_mut() {
                None => return false,
                Some(Branch::Sched { cands, idx }) if *idx + 1 < cands.len() => {
                    *idx += 1;
                    self.pos = 0;
                    return true;
                }
                Some(Branch::Crash { max, k }) if *k < *max => {
                    *k += 1;
                    self.pos = 0;
                    return true;
                }
                Some(_) => {
                    self.branches.pop();
                }
            }
        }
    }

    /// Number of recorded branch points in the current prefix.
    #[cfg(test)]
    pub fn depth(&self) -> usize {
        self.branches.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dfs_enumerates_all_leaf_orders() {
        // Two decisions with 2 candidates each → 4 executions.
        let mut path = Path::new();
        let mut seen = Vec::new();
        loop {
            let a = path.choose_sched(&[0, 1]);
            let b = path.choose_sched(&[0, 1]);
            seen.push((a, b));
            if !path.advance() {
                break;
            }
        }
        assert_eq!(seen, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
    }

    #[test]
    fn forced_moves_are_not_recorded() {
        let mut path = Path::new();
        assert_eq!(path.choose_sched(&[3]), 3);
        assert_eq!(path.depth(), 0);
        assert!(!path.advance(), "no branches, nothing to explore");
    }

    #[test]
    fn chaos_draws_replay_identically() {
        let mut path = Path::new();
        let first = path.choose_chaos(3, 42);
        let _ = path.choose_sched(&[0, 1]);
        assert!(path.advance(), "the sched branch has an alternative");
        // Replay: the chaos draw is below the frontier now.
        assert_eq!(path.choose_chaos(3, 42), first);
        assert_eq!(path.choose_sched(&[0, 1]), 1);
    }

    #[test]
    fn trace_round_trips() {
        let decisions = vec![
            Decision::Sched(1),
            Decision::Chaos(true),
            Decision::Sched(0),
            Decision::Chaos(false),
            Decision::Crash(12),
        ];
        let text = format_trace(&decisions);
        assert_eq!(text, "1.c1.0.c0.k12");
        assert_eq!(parse_trace(&text).unwrap(), decisions);
        assert!(parse_trace("1.x.0").is_err());
        assert!(parse_trace("kx").is_err());
        assert_eq!(parse_trace("  ").unwrap(), Vec::new());
    }

    #[test]
    fn crash_prefixes_are_enumerated_innermost_first() {
        // One crash branch (0..=2) above one 2-way scheduling branch:
        // 3 × 2 executions, the deeper branch varying fastest.
        let mut path = Path::new();
        let mut seen = Vec::new();
        loop {
            let k = path.choose_crash(2);
            let t = path.choose_sched(&[0, 1]);
            seen.push((k, t));
            if !path.advance() {
                break;
            }
        }
        assert_eq!(seen, vec![(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]);
    }

    #[test]
    #[should_panic(expected = "not schedule-deterministic")]
    fn divergence_panics() {
        let mut path = Path::new();
        let _ = path.choose_sched(&[0, 1]);
        path.advance();
        let _ = path.choose_sched(&[0, 2]); // different candidates
    }
}
