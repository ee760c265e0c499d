//! Randomized differential testing: every implementation, driven
//! solo with arbitrary operation sequences, must agree exactly with
//! the sequential reference (`SeqStack` / `SeqQueue`).
//!
//! This is the "behaves like an ordinary object when accessed
//! sequentially" half of the abortable-object definition (§1.2),
//! checked across the whole family at once.

use cso::memory::backoff::XorShift64;

use cso::queue::{
    AbortableQueue, CsQueue, DequeueOutcome, EnqueueOutcome, NonBlockingQueue, SeqQueue,
};
use cso::stack::{
    AbortableStack, CsStack, LockStack, NonBlockingStack, PopOutcome, PushOutcome, SeqStack,
};

const CAPACITY: usize = 8;

/// A solo driver facade over each stack flavour.
enum AnyStack {
    Weak(AbortableStack<u16>),
    Nb(NonBlockingStack<u16>),
    Cs(Box<CsStack<u16>>),
    Locked(LockStack<u16>),
}

impl AnyStack {
    fn all() -> Vec<AnyStack> {
        vec![
            AnyStack::Weak(AbortableStack::new(CAPACITY)),
            AnyStack::Nb(NonBlockingStack::new(CAPACITY)),
            AnyStack::Cs(Box::new(CsStack::new(CAPACITY, 1))),
            AnyStack::Locked(LockStack::new(CAPACITY)),
        ]
    }

    fn name(&self) -> &'static str {
        match self {
            AnyStack::Weak(_) => "abortable",
            AnyStack::Nb(_) => "non-blocking",
            AnyStack::Cs(_) => "contention-sensitive",
            AnyStack::Locked(_) => "lock",
        }
    }

    fn push(&self, v: u16) -> PushOutcome {
        match self {
            AnyStack::Weak(s) => s.weak_push(v).expect("solo never aborts"),
            AnyStack::Nb(s) => s.push(v),
            AnyStack::Cs(s) => s.push(0, v),
            AnyStack::Locked(s) => s.push(v),
        }
    }

    fn pop(&self) -> PopOutcome<u16> {
        match self {
            AnyStack::Weak(s) => s.weak_pop().expect("solo never aborts"),
            AnyStack::Nb(s) => s.pop(),
            AnyStack::Cs(s) => s.pop(0),
            AnyStack::Locked(s) => s.pop(),
        }
    }
}

/// Draws a random op sequence: `Some(v)` = push/enqueue, `None` = pop.
fn random_ops(rng: &mut XorShift64, max_len: u64) -> Vec<Option<u16>> {
    let len = rng.next_u64() % max_len;
    (0..len)
        .map(|_| {
            let word = rng.next_u64();
            (word & 1 == 0).then_some((word >> 1) as u16)
        })
        .collect()
}

const CASES: usize = 64;

#[test]
fn all_stacks_agree_with_the_sequential_reference() {
    let mut rng = XorShift64::new(0xD1FF_57AC);
    for _ in 0..CASES {
        let ops = random_ops(&mut rng, 120);
        for stack in AnyStack::all() {
            let mut reference: SeqStack<u16> = SeqStack::new(CAPACITY);
            for op in &ops {
                match op {
                    Some(v) => {
                        let got = stack.push(*v);
                        let want = reference.push(*v);
                        assert_eq!(got, want, "{} push", stack.name());
                    }
                    None => {
                        let got = stack.pop();
                        let want = reference.pop();
                        assert_eq!(got, want, "{} pop", stack.name());
                    }
                }
            }
        }
    }
}

/// A solo driver facade over each queue flavour.
enum AnyQueue {
    Weak(AbortableQueue<u16>),
    Nb(NonBlockingQueue<u16>),
    Cs(Box<CsQueue<u16>>),
}

impl AnyQueue {
    fn all() -> Vec<AnyQueue> {
        vec![
            AnyQueue::Weak(AbortableQueue::new(CAPACITY)),
            AnyQueue::Nb(NonBlockingQueue::new(CAPACITY)),
            AnyQueue::Cs(Box::new(CsQueue::new(CAPACITY, 1))),
        ]
    }

    fn name(&self) -> &'static str {
        match self {
            AnyQueue::Weak(_) => "abortable",
            AnyQueue::Nb(_) => "non-blocking",
            AnyQueue::Cs(_) => "contention-sensitive",
        }
    }

    fn enqueue(&self, v: u16) -> EnqueueOutcome {
        match self {
            AnyQueue::Weak(q) => q.weak_enqueue(v).expect("solo never aborts"),
            AnyQueue::Nb(q) => q.enqueue(v),
            AnyQueue::Cs(q) => q.enqueue(0, v),
        }
    }

    fn dequeue(&self) -> DequeueOutcome<u16> {
        match self {
            AnyQueue::Weak(q) => q.weak_dequeue().expect("solo never aborts"),
            AnyQueue::Nb(q) => q.dequeue(),
            AnyQueue::Cs(q) => q.dequeue(0),
        }
    }
}

#[test]
fn all_queues_agree_with_the_sequential_reference() {
    let mut rng = XorShift64::new(0xD1FF_0EFE);
    for _ in 0..CASES {
        let ops = random_ops(&mut rng, 120);
        for queue in AnyQueue::all() {
            let mut reference: SeqQueue<u16> = SeqQueue::new(CAPACITY);
            for op in &ops {
                match op {
                    Some(v) => {
                        let got = queue.enqueue(*v);
                        let want = reference.enqueue(*v);
                        assert_eq!(got, want, "{} enqueue", queue.name());
                    }
                    None => {
                        let got = queue.dequeue();
                        let want = reference.dequeue();
                        assert_eq!(got, want, "{} dequeue", queue.name());
                    }
                }
            }
        }
    }
}
