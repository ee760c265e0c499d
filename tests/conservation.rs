//! Large-scale conservation under real concurrency: across every
//! implementation, nothing is lost, duplicated or invented.
//!
//! Each thread pushes a disjoint tagged value range and pops whatever
//! it finds; at the end, the union of popped values and the residue
//! must be exactly the pushed multiset (and a set — no duplicates).

use std::collections::HashSet;
use std::sync::Arc;

use cso::core::CsConfig;
use cso::locks::TasLock;
use cso::queue::{CsQueue, DequeueOutcome, EnqueueOutcome, NonBlockingQueue};
use cso::stack::{CsStack, LockStack, NonBlockingStack, PushOutcome};

const THREADS: u32 = 4;
const PER_THREAD: u32 = 3_000;
const TOTAL: usize = (THREADS * PER_THREAD) as usize;

fn check_conservation(all: Vec<u32>, label: &str) {
    assert_eq!(all.len(), TOTAL, "{label}: count");
    let distinct: HashSet<u32> = all.iter().copied().collect();
    assert_eq!(distinct.len(), TOTAL, "{label}: duplicates");
    assert!(
        all.iter().all(|v| (*v as usize) < TOTAL),
        "{label}: invented value"
    );
}

fn drive<P, O>(push: P, pop: O, label: &str)
where
    P: Fn(usize, u32) -> bool + Send + Sync,
    O: Fn(usize) -> Option<u32> + Send + Sync,
{
    let mut all: Vec<u32> = Vec::with_capacity(TOTAL);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let push = &push;
                let pop = &pop;
                s.spawn(move || {
                    let mut got = Vec::new();
                    for i in 0..PER_THREAD {
                        let v = t * PER_THREAD + i;
                        while !push(t as usize, v) {
                            std::thread::yield_now();
                        }
                        if i % 2 == 1 {
                            if let Some(v) = pop(t as usize) {
                                got.push(v);
                            }
                        }
                    }
                    got
                })
            })
            .collect();
        for h in handles {
            all.extend(h.join().unwrap());
        }
    });
    while let Some(v) = pop(0) {
        all.push(v);
    }
    check_conservation(all, label);
}

#[test]
fn cs_stack_conserves() {
    let stack = Arc::new(CsStack::<u32>::new(TOTAL, THREADS as usize));
    let s1 = Arc::clone(&stack);
    let s2 = Arc::clone(&stack);
    drive(
        move |p, v| s1.push(p, v) == PushOutcome::Pushed,
        move |p| s2.pop(p).into_option(),
        "cs-stack",
    );
}

#[test]
fn nb_stack_conserves() {
    let stack = Arc::new(NonBlockingStack::<u32>::new(TOTAL));
    let s1 = Arc::clone(&stack);
    let s2 = Arc::clone(&stack);
    drive(
        move |_, v| s1.push(v) == PushOutcome::Pushed,
        move |_| s2.pop().into_option(),
        "nb-stack",
    );
}

/// The workspace's one elimination: Figure 3 with the ladder's middle
/// rung on, where a push and a pop that meet in the exchanger never
/// touch `TOP` — the value must still arrive exactly once.
#[test]
fn elimination_conserves() {
    let stack = Arc::new(CsStack::<u32>::with_config(
        TOTAL,
        TasLock::new(),
        THREADS as usize,
        CsConfig::LADDER,
    ));
    let s1 = Arc::clone(&stack);
    let s2 = Arc::clone(&stack);
    drive(
        move |p, v| s1.push(p, v) == PushOutcome::Pushed,
        move |p| s2.pop(p).into_option(),
        "elimination",
    );
}

#[test]
fn lock_stack_conserves() {
    let stack = Arc::new(LockStack::<u32>::new(TOTAL));
    let s1 = Arc::clone(&stack);
    let s2 = Arc::clone(&stack);
    drive(
        move |_, v| s1.push(v) == PushOutcome::Pushed,
        move |_| s2.pop().into_option(),
        "lock-stack",
    );
}

#[test]
fn cs_queue_conserves() {
    let queue = Arc::new(CsQueue::<u32>::new(16_384, THREADS as usize));
    let q1 = Arc::clone(&queue);
    let q2 = Arc::clone(&queue);
    drive(
        move |p, v| q1.enqueue(p, v) == EnqueueOutcome::Enqueued,
        move |p| q2.dequeue(p).into_option(),
        "cs-queue",
    );
}

#[test]
fn nb_queue_conserves() {
    let queue = Arc::new(NonBlockingQueue::<u32>::new(16_384));
    let q1 = Arc::clone(&queue);
    let q2 = Arc::clone(&queue);
    drive(
        move |_, v| q1.enqueue(v) == EnqueueOutcome::Enqueued,
        move |_| q2.dequeue().into_option(),
        "nb-queue",
    );
}

/// FIFO sanity at scale: a single producer and a single consumer on
/// the cs-queue preserve order exactly, end to end.
#[test]
fn cs_queue_is_fifo_end_to_end() {
    let queue = Arc::new(CsQueue::<u32>::new(1024, 2));
    let producer = {
        let queue = Arc::clone(&queue);
        std::thread::spawn(move || {
            for v in 0..50_000u32 {
                while queue.enqueue(0, v) != EnqueueOutcome::Enqueued {
                    std::thread::yield_now();
                }
            }
        })
    };
    let consumer = {
        let queue = Arc::clone(&queue);
        std::thread::spawn(move || {
            let mut expected = 0u32;
            while expected < 50_000 {
                match queue.dequeue(1) {
                    DequeueOutcome::Dequeued(v) => {
                        assert_eq!(v, expected);
                        expected += 1;
                    }
                    DequeueOutcome::Empty => std::thread::yield_now(),
                }
            }
        })
    };
    producer.join().unwrap();
    consumer.join().unwrap();
}
