//! The cross-thread helped-by graph.
//!
//! Combining, elimination, and lock succession all complete (or
//! enable) an operation on a *different* thread than its invoker, so
//! per-thread spans alone cannot say who did the work. The causal
//! annotations ([`HelpKind`]) close that gap; [`CausalAccumulator`]
//! folds completed spans into the graph they induce: edge counts per
//! `(kind, helper thread → owner thread)` pair plus the attribution
//! coverage the observability acceptance gate checks — the fraction
//! of operations that *should* carry an edge (combined and eliminated
//! completions) that actually do.

use std::collections::BTreeMap;

use cso_metrics::Json;
use cso_trace::HelpKind;

use crate::spans::{Path, Span};

/// One aggregated helped-by edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CausalEdge {
    /// What kind of help flowed along the edge.
    pub kind: HelpKind,
    /// Trace-thread id of the helper (combiner, partner, previous
    /// holder, or corpse).
    pub helper: u32,
    /// Trace-thread id of the operation's invoking thread.
    pub owner: u32,
    /// Operations that received this exact edge.
    pub count: u64,
}

/// The helped-by graph of one capture, with attribution coverage.
#[derive(Debug, Clone, Default)]
pub struct CausalReport {
    /// Aggregated edges, heaviest first.
    pub edges: Vec<CausalEdge>,
    /// Combined-path spans observed / carrying a combiner edge.
    pub combined: (u64, u64),
    /// Eliminated-path spans observed / carrying a partner edge.
    pub eliminated: (u64, u64),
    /// Lock-handoff edges observed (no expected denominator: a free
    /// lock acquires without a predecessor).
    pub handoffs: u64,
    /// Custody-transfer (succession) edges observed.
    pub custody: u64,
}

impl CausalReport {
    /// Fraction of operations that should carry a helper edge
    /// (combined + eliminated completions) that do. 1.0 when none
    /// were observed. The traced `tests/recovery_sites.rs` requires ≥ 0.99.
    #[must_use]
    pub fn attribution(&self) -> f64 {
        let expected = self.combined.0 + self.eliminated.0;
        if expected == 0 {
            1.0
        } else {
            (self.combined.1 + self.eliminated.1) as f64 / expected as f64
        }
    }

    /// Total operations carrying any causal edge.
    #[must_use]
    pub fn attributed(&self) -> u64 {
        self.edges.iter().map(|e| e.count).sum()
    }

    /// The JSON document `/causal.json` serves.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let edges = self
            .edges
            .iter()
            .map(|e| {
                Json::obj()
                    .field("kind", e.kind.name())
                    .field("helper_thread", u64::from(e.helper))
                    .field("owner_thread", u64::from(e.owner))
                    .field("count", e.count)
            })
            .collect();
        Json::obj()
            .field("schema", "cso-causal v1")
            .field("attributed", self.attributed())
            .field(
                "coverage",
                Json::obj()
                    .field("combined_expected", self.combined.0)
                    .field("combined_attributed", self.combined.1)
                    .field("eliminated_expected", self.eliminated.0)
                    .field("eliminated_attributed", self.eliminated.1)
                    .field("handoffs", self.handoffs)
                    .field("custody_transfers", self.custody)
                    .field("attribution", self.attribution()),
            )
            .field("edges", Json::Arr(edges))
    }
}

/// The running fold behind [`CausalReport`]: [`crate::Fold`] holds one
/// and feeds it each completed span, so `/causal.json` and
/// `cso-analyze causal` render the same accumulator.
#[derive(Debug, Clone, Default)]
pub struct CausalAccumulator {
    counts: BTreeMap<(u8, u32, u32), (HelpKind, u64)>,
    combined: (u64, u64),
    eliminated: (u64, u64),
    handoffs: u64,
    custody: u64,
}

impl CausalAccumulator {
    /// Folds one completed span in.
    pub fn add_span(&mut self, span: &Span) {
        match span.path {
            Path::Combined => self.combined.0 += 1,
            Path::Eliminated => self.eliminated.0 += 1,
            _ => {}
        }
        let Some((kind, helper)) = span.helped_by else {
            return;
        };
        match kind {
            HelpKind::Combiner if span.path == Path::Combined => self.combined.1 += 1,
            HelpKind::Partner if span.path == Path::Eliminated => self.eliminated.1 += 1,
            HelpKind::Handoff => self.handoffs += 1,
            HelpKind::Custody => self.custody += 1,
            // A combiner/partner edge on an unexpected path still
            // counts as an edge, just not as path coverage.
            HelpKind::Combiner | HelpKind::Partner => {}
        }
        let key = (kind as u8, helper, span.thread);
        self.counts.entry(key).or_insert((kind, 0)).1 += 1;
    }

    /// Renders the graph accumulated so far.
    #[must_use]
    pub fn report(&self) -> CausalReport {
        let mut edges: Vec<CausalEdge> = self
            .counts
            .iter()
            .map(|(&(_, helper, owner), &(kind, count))| CausalEdge {
                kind,
                helper,
                owner,
                count,
            })
            .collect();
        edges.sort_by_key(|e| std::cmp::Reverse(e.count));
        CausalReport {
            edges,
            combined: self.combined,
            eliminated: self.eliminated,
            handoffs: self.handoffs,
            custody: self.custody,
        }
    }
}

/// Renders the graph as a deterministic text block (one edge per
/// line), for the CLI report.
#[must_use]
pub fn render(report: &CausalReport) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "causal edges: {} ops attributed ({} combined / {} eliminated / {} handoff / {} custody)",
        report.attributed(),
        report.combined.1,
        report.eliminated.1,
        report.handoffs,
        report.custody,
    );
    let _ = writeln!(
        s,
        "attribution coverage: {:.4} ({} of {} expected)",
        report.attribution(),
        report.combined.1 + report.eliminated.1,
        report.combined.0 + report.eliminated.0,
    );
    for e in &report.edges {
        let _ = writeln!(
            s,
            "  {:<9} thread_{} -> thread_{}  x{}",
            e.kind.name(),
            e.helper,
            e.owner,
            e.count
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Outcome;

    fn span(thread: u32, path: Path, helped_by: Option<(HelpKind, u32)>) -> Span {
        Span {
            thread,
            proc_id: None,
            path,
            outcome: Outcome::Completed,
            start_ns: 0,
            end_ns: 10,
            wait_ns: None,
            hold_ns: None,
            batch: None,
            aborted_fast: false,
            reposts: 0,
            start_seq: 0,
            end_seq: 1,
            helped_by,
        }
    }

    #[test]
    fn graph_counts_edges_and_coverage() {
        // Three combined ops, two of them on thread 1 served by thread
        // 9's combiner, the third stripped of its annotation to model
        // a lost stamp; a fast op neither expects nor carries an edge.
        let mut acc = CausalAccumulator::default();
        acc.add_span(&span(1, Path::Combined, Some((HelpKind::Combiner, 9))));
        acc.add_span(&span(2, Path::Combined, None));
        acc.add_span(&span(1, Path::Combined, Some((HelpKind::Combiner, 9))));
        acc.add_span(&span(3, Path::Fast, None));
        let graph = acc.report();
        assert_eq!(graph.combined, (3, 2));
        assert_eq!(graph.eliminated, (0, 0));
        assert!((graph.attribution() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(graph.edges.len(), 1);
        let edge = graph.edges[0];
        assert_eq!(
            (edge.kind, edge.helper, edge.owner, edge.count),
            (HelpKind::Combiner, 9, 1, 2)
        );
        let text = render(&graph);
        assert!(
            text.contains("combiner  thread_9 -> thread_1  x2"),
            "{text}"
        );
    }

    #[test]
    fn empty_capture_has_full_attribution() {
        let graph = CausalAccumulator::default().report();
        assert_eq!(graph.attribution(), 1.0);
        assert_eq!(graph.attributed(), 0);
    }
}
