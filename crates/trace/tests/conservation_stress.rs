//! Conservation under saturated, unpaced writers: however hard the
//! rings overflow, every emitted event is either harvested or counted
//! lost — `ingested + lost == emitted` exactly, provided the final
//! drain starts after the writers stop. This is the invariant the
//! profiler's harvester and the scrape-under-load smoke rely on.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cso_trace::probe;

#[test]
fn conservation_under_saturated_writers() {
    const WORKERS: usize = 8;
    probe::clear();
    let before = probe::emitted();
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..WORKERS)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut n = 0u64;
                while !stop.load(Ordering::Acquire) {
                    cso_trace::probe!(cso_trace::Event::FastAttempt);
                    cso_trace::probe!(cso_trace::Event::FastSuccess);
                    n += 2;
                }
                n
            })
        })
        .collect();

    let mut ingested = 0u64;
    let mut lost = 0u64;
    for _ in 0..200 {
        let batch = probe::harvest();
        ingested += batch.events.len() as u64;
        lost += batch.lost;
        std::thread::sleep(Duration::from_millis(1));
    }
    stop.store(true, Ordering::Release);
    let emitted_by_workers: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
    // Final drain after all writers stopped.
    let batch = probe::harvest();
    ingested += batch.events.len() as u64;
    lost += batch.lost;

    let emitted = probe::emitted() - before;
    eprintln!(
        "workers emitted {emitted_by_workers}, ring-emitted {emitted}, \
         ingested {ingested}, lost {lost}, ingested+lost {}",
        ingested + lost
    );
    assert_eq!(
        ingested + lost,
        emitted,
        "conservation: ingested + lost == emitted (delta {})",
        (ingested + lost) as i64 - emitted as i64
    );
    probe::clear();
}
