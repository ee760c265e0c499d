//! `cso-analyze check`, run as a process on event logs written through
//! `cso-trace`'s codec: it passes a clean capture under the strictest
//! thresholds in use (`--procs 4 --bound 3 --min-coverage 1.0
//! --min-attribution 0.99`), and exits 1 when a capture breaks any one
//! of them.

use std::process::Command;

use cso_trace::export::event_log;
use cso_trace::probe::{Event, Trace, TraceEvent};

/// A locked operation of process `p`: FLAG raised, lock taken, applied.
fn locked(p: u32) -> Vec<Event> {
    vec![
        Event::FlagRaise(p),
        Event::LockAcquire(p),
        Event::LockedComplete,
        Event::LockRelease(p),
    ]
}

/// Operations run one after another, each `(thread, events)` on its
/// thread (thread = process id).
fn capture(ops: &[(u32, Vec<Event>)]) -> Trace {
    let events = ops
        .iter()
        .flat_map(|(thread, events)| events.iter().map(move |e| (*thread, *e)))
        .enumerate()
        .map(|(seq, (thread, event))| TraceEvent {
            thread,
            seq: seq as u64,
            wall_ns: 100 * seq as u64,
            event,
        })
        .collect();
    Trace {
        events,
        dropped: 0,
        truncated: Vec::new(),
    }
}

/// Four processes: two lock, and process 3 combines for process 2.
/// `edge` says whether the combined operation names its combiner.
fn clean(edge: bool) -> Vec<(u32, Vec<Event>)> {
    let mut combined = vec![Event::RecordPost, Event::RecordHandoff(300)];
    if edge {
        combined.push(Event::HelpedByCombiner(3));
    }
    combined.push(Event::CombinedComplete);
    let combiner = vec![
        Event::RecordPost,
        Event::LockAcquire(3),
        Event::CombineBatch(2),
        Event::LockedComplete,
        Event::LockRelease(3),
    ];
    vec![(0, locked(0)), (1, locked(1)), (3, combiner), (2, combined)]
}

/// `cso-analyze check` on `trace` with CI's thresholds: the exit code.
fn check(name: &str, trace: &Trace) -> Option<i32> {
    let dir = std::env::temp_dir().join(format!("cso-check-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{name}.events.tsv"));
    std::fs::write(&path, event_log(trace)).expect("write the capture");
    let status = Command::new(env!("CARGO_BIN_EXE_cso-analyze"))
        .arg("check")
        .arg(&path)
        .args(["--procs", "4", "--bound", "3", "--min-coverage", "1.0"])
        .args(["--min-attribution", "0.99"])
        .output()
        .expect("run cso-analyze")
        .status;
    let _ = std::fs::remove_file(&path);
    status.code()
}

#[test]
fn check_passes_a_clean_capture_and_fails_each_broken_threshold() {
    assert_eq!(check("clean", &capture(&clean(true))), Some(0));

    // `--bound 3`: process 0 waits while the others acquire four times.
    let mut bypassed = vec![(0, vec![Event::FlagRaise(0)])];
    bypassed.extend([1, 2, 3, 1].map(|p| (p, locked(p))));
    bypassed.push((0, locked(0).split_off(1)));
    assert_eq!(check("bypassed", &capture(&bypassed)), Some(1));

    // `--min-coverage 1.0`: one completion that no operation began.
    let mut malformed = clean(true);
    malformed.push((0, vec![Event::LockedComplete]));
    assert_eq!(check("malformed", &capture(&malformed)), Some(1));

    // `--min-attribution 0.99`: the combined operation names no helper.
    assert_eq!(check("unattributed", &capture(&clean(false))), Some(1));
}
