//! Collapsed-stack (flamegraph) output.
//!
//! The collapsed format is the one `flamegraph.pl` / `inferno`
//! consume: one `frame;frame;... weight` line per stack, weights in
//! nanoseconds here. Spans fold into a two-level stack — the process
//! on top, then the completion path, with the locked path split into
//! its wait (flag → acquire) and hold (acquire → release) phases so
//! the flame shows where slow-path time actually goes.

use std::collections::BTreeMap;

use crate::analyze::spans::{Outcome, Span};

/// Escapes one frame name for the collapsed-stack grammar: `;`
/// separates frames and the final space separates the stack from its
/// weight, so neither may appear *inside* a frame. `;` becomes `:`
/// and any whitespace becomes `_` — lossy but grammar-safe, which is
/// the property downstream tooling (`flamegraph.pl`, `inferno`)
/// actually needs.
#[must_use]
pub fn escape_frame(frame: &str) -> String {
    frame
        .chars()
        .map(|c| match c {
            ';' => ':',
            c if c.is_whitespace() => '_',
            c => c,
        })
        .collect()
}

/// Folds one span into a collapsed-stack accumulator (stack → total
/// nanoseconds), keyed by `proc × path × phase` — a few dozen entries
/// for any workload. Every frame passes through [`escape_frame`], so a
/// hostile label cannot corrupt the line grammar.
pub fn add_span(stacks: &mut BTreeMap<String, u64>, span: &Span) {
    let mut add = |frames: &[&str], ns: u64| {
        if ns > 0 {
            let stack = frames
                .iter()
                .map(|f| escape_frame(f))
                .collect::<Vec<_>>()
                .join(";");
            *stacks.entry(stack).or_insert(0) += ns;
        }
    };
    let who = match span.proc_id {
        Some(p) => format!("proc_{p}"),
        None => format!("thread_{}", span.thread),
    };
    let mut frames = vec![who.as_str(), span.path.label()];
    match span.outcome {
        Outcome::Completed => {}
        Outcome::TimedOut => frames.push("timeout"),
        Outcome::Poisoned => frames.push("poisoned"),
    }
    match (span.wait_ns, span.hold_ns) {
        (wait, Some(hold)) => {
            let wait = wait.unwrap_or(0);
            add(&[&frames[..], &["wait"]].concat(), wait);
            add(&[&frames[..], &["hold"]].concat(), hold);
            // Anything not in wait or hold (fast-abort, post spin).
            add(
                &[&frames[..], &["other"]].concat(),
                span.duration_ns().saturating_sub(wait + hold),
            );
        }
        _ => add(&frames, span.duration_ns()),
    }
}

/// Renders a collapsed-stack accumulator, one `stack weight` line per
/// entry, lexicographically sorted (stable output for diffing).
#[must_use]
pub fn render_stacks(stacks: &BTreeMap<String, u64>) -> String {
    let mut out = String::new();
    for (stack, ns) in stacks {
        out.push_str(stack);
        out.push(' ');
        out.push_str(&ns.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::spans::Path;

    #[test]
    fn stacks_split_locked_spans_into_wait_and_hold() {
        let span = |thread, proc_id, path, end_ns, wait_ns, hold_ns| Span {
            thread,
            proc_id,
            path,
            outcome: Outcome::Completed,
            start_ns: 0,
            end_ns,
            wait_ns,
            hold_ns,
            batch: None,
            aborted_fast: false,
            reposts: 0,
            start_seq: 0,
            end_seq: 1,
            helped_by: None,
        };
        let mut stacks = BTreeMap::new();
        add_span(&mut stacks, &span(0, None, Path::Fast, 10, None, None));
        add_span(
            &mut stacks,
            &span(0, Some(0), Path::Locked, 100, Some(40), Some(60)),
        );
        let out = render_stacks(&stacks);
        assert!(out.contains("proc_0;locked;wait 40\n"), "{out}");
        assert!(out.contains("proc_0;locked;hold 60\n"), "{out}");
        assert!(out.contains("thread_0;fast 10\n"), "{out}");
        // Weights on each line parse as integers.
        for line in out.lines() {
            let (_, weight) = line.rsplit_once(' ').expect("stack weight");
            weight.parse::<u64>().expect("numeric weight");
        }
    }

    #[test]
    fn escape_frame_neutralizes_the_grammar_characters() {
        assert_eq!(escape_frame("plain_frame"), "plain_frame");
        assert_eq!(escape_frame("a;b c\td\ne"), "a:b_c_d_e");
        let escaped = escape_frame("evil; frame\u{a0}name");
        assert!(!escaped.contains(';'), "{escaped}");
        assert!(!escaped.chars().any(char::is_whitespace), "{escaped}");
    }
}
