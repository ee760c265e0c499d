//! The generic Figure 2 / Figure 3 transformations composed with
//! every object and lock — the "contention manager that can be used
//! to solve other fairness-related problems" of §1.2.

use cso::core::{Abortable, ContentionSensitive, CsConfig, NonBlocking};
use cso::locks::{TasLock, TicketLock};
use cso::queue::{AbortableQueue, QueueOp, QueueResponse};
use cso::stack::{AbortableStack, PopOutcome, PushOutcome, StackOp, StackResponse};

#[test]
fn figure2_over_the_queue() {
    // The paper instantiates Figure 2 for the stack; the
    // transformation is object-agnostic.
    let nb = NonBlocking::new(AbortableQueue::<u32>::new(8));
    assert!(nb
        .apply(&QueueOp::Enqueue(5))
        .expect_enqueue()
        .is_enqueued());
    match nb.apply(&QueueOp::Dequeue) {
        QueueResponse::Dequeue(out) => assert_eq!(out.into_option(), Some(5)),
        QueueResponse::Enqueue(_) => unreachable!(),
    }
}

#[test]
fn figure3_over_the_queue_with_every_lock() {
    fn exercise<L: cso::locks::RawLock>(lock: L) {
        let cs = ContentionSensitive::new(AbortableQueue::<u32>::new(8), lock, 4);
        for round in 0..50u32 {
            let resp = cs.apply(round as usize % 4, &QueueOp::Enqueue(round));
            assert!(resp.expect_enqueue().is_enqueued());
            let resp = cs.apply((round as usize + 1) % 4, &QueueOp::Dequeue);
            assert_eq!(resp.expect_dequeue().into_option(), Some(round));
        }
        assert_eq!(cs.path_stats().total(), 100);
    }
    exercise(TasLock::new());
    exercise(TicketLock::new());
}

#[test]
fn figure2_shares_one_object_by_reference() {
    let stack = AbortableStack::<u32>::new(16);
    // Two loops over one object, by reference (the blanket impl of
    // Abortable for &O).
    let a = NonBlocking::new(&stack);
    let b = NonBlocking::new(&stack);
    a.apply(&StackOp::Push(1));
    b.apply(&StackOp::Push(2));
    a.apply(&StackOp::Push(3));
    match b.apply(&StackOp::Pop) {
        StackResponse::Pop(PopOutcome::Popped(v)) => assert_eq!(v, 3),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(stack.len(), 2);
}

#[test]
fn figure3_ablations_over_the_stack_under_concurrency() {
    use std::sync::Arc;
    for config in [CsConfig::PAPER, CsConfig::UNFAIR] {
        let cs = Arc::new(ContentionSensitive::with_config(
            AbortableStack::<u32>::new(4096),
            TasLock::new(),
            4,
            config,
        ));
        let handles: Vec<_> = (0..4)
            .map(|proc| {
                let cs = Arc::clone(&cs);
                std::thread::spawn(move || {
                    let mut pushed = 0u64;
                    let mut popped = 0u64;
                    for i in 0..2_000u32 {
                        match cs.apply(proc, &StackOp::Push(i)) {
                            StackResponse::Push(PushOutcome::Pushed) => pushed += 1,
                            StackResponse::Push(PushOutcome::Full) => {}
                            StackResponse::Pop(_) => unreachable!(),
                        }
                        if let StackResponse::Pop(PopOutcome::Popped(_)) =
                            cs.apply(proc, &StackOp::Pop)
                        {
                            popped += 1;
                        }
                    }
                    (pushed, popped)
                })
            })
            .collect();
        let mut pushed = 0;
        let mut popped = 0;
        for h in handles {
            let (pu, po) = h.join().unwrap();
            pushed += pu;
            popped += po;
        }
        // Conservation: what remains is exactly pushed − popped.
        let remaining = cs.inner().len() as u64;
        assert_eq!(remaining, pushed - popped, "config {config:?}");
    }
}

#[test]
fn nested_transformation_is_still_correct() {
    // Pathological but legal: Figure 2 wrapped around a Figure 3
    // object (a never-⊥ object retried is just the object).
    let cs = ContentionSensitive::new(AbortableStack::<u32>::new(8), TasLock::new(), 2);
    // `ContentionSensitive` is not itself `Abortable` (its `apply`
    // takes a process identity and never aborts): a reference-wrapper
    // object that pins process 0 gives it that face.
    struct ProcPinned<'a>(&'a ContentionSensitive<AbortableStack<u32>, TasLock>);
    impl Abortable for ProcPinned<'_> {
        type Op = StackOp<u32>;
        type Response = StackResponse<u32>;
        fn try_apply(&self, op: &Self::Op) -> Result<Self::Response, cso::core::Aborted> {
            Ok(self.0.apply(0, op))
        }
    }
    let nb = NonBlocking::new(ProcPinned(&cs));
    assert_eq!(
        nb.apply(&StackOp::Push(9)).expect_push(),
        PushOutcome::Pushed
    );
    assert_eq!(nb.apply(&StackOp::Pop).expect_pop(), PopOutcome::Popped(9));
}
