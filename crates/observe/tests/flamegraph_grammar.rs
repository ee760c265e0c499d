//! The `/flamegraph` endpoint's output contract: every line must
//! round-trip through the collapsed-stack grammar (`frame;frame;...
//! weight`) that `flamegraph.pl` / `inferno` parse. Frames reaching
//! the accumulator pass through `cso_observe::analyze::collapse::escape_frame`,
//! so even hostile frame names cannot produce a line that splits
//! wrong.

use std::collections::BTreeMap;

use cso_observe::analyze::collapse::{escape_frame, render_stacks};

/// Splits one collapsed line back into (frames, weight) exactly the
/// way downstream flamegraph tooling does.
fn parse_line(line: &str) -> (Vec<&str>, u64) {
    let (stack, weight) = line.rsplit_once(' ').expect("`stack weight` shape");
    (
        stack.split(';').collect(),
        weight.parse().expect("numeric weight"),
    )
}

#[test]
fn hostile_frame_names_round_trip_through_the_grammar() {
    let hostile = [
        "evil;frame",
        "frame with spaces",
        "tab\there",
        "newline\nframe",
        "mix;of them\tall",
    ];
    let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
    for (i, name) in hostile.iter().enumerate() {
        let stack = format!("{};{}", escape_frame(name), escape_frame("hold phase"));
        stacks.insert(stack, (i as u64 + 1) * 10);
    }
    let rendered = render_stacks(&stacks);
    let mut seen = 0;
    for line in rendered.lines() {
        let (frames, weight) = parse_line(line);
        assert_eq!(
            frames.len(),
            2,
            "escaping preserved the frame count: {line}"
        );
        for frame in &frames {
            assert!(!frame.is_empty(), "{line}");
            assert!(!frame.contains(';'), "{line}");
            assert!(!frame.chars().any(char::is_whitespace), "{line}");
        }
        assert!(weight > 0);
        seen += 1;
    }
    assert_eq!(seen, hostile.len(), "no two hostile names collapsed away");
}

#[test]
fn live_collapsed_output_parses_line_by_line() {
    use cso_observe::profile::LiveAggregator;
    use cso_trace::probe::{Event, Harvested, TraceEvent};

    let agg = LiveAggregator::new();
    let mk = |seq, thread, wall_ns, event| TraceEvent {
        thread,
        seq,
        wall_ns,
        event,
    };
    agg.ingest(&Harvested {
        events: vec![
            mk(0, 0, 0, Event::FastAttempt),
            mk(1, 0, 10, Event::FastSuccess),
            mk(2, 1, 0, Event::FlagRaise(1)),
            mk(3, 1, 40, Event::LockAcquire(1)),
            mk(4, 1, 90, Event::LockedComplete),
            mk(5, 1, 100, Event::LockRelease(1)),
        ],
        lost: 0,
        truncated: Vec::new(),
    });
    let rendered = agg.collapsed();
    assert!(!rendered.is_empty());
    for line in rendered.lines() {
        let (frames, _) = parse_line(line);
        assert!(!frames.is_empty());
        for frame in frames {
            assert!(!frame.is_empty(), "{line}");
            assert!(!frame.chars().any(char::is_whitespace), "{line}");
        }
    }
}
