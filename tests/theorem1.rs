//! End-to-end checks of the paper's stated theorems through the
//! public (umbrella) API.

use cso::core::ProgressCondition;
use cso::locks::{LamportFastLock, ProcLock, RawLock, StarvationFree, TasLock, TicketLock};
use cso::memory::counting::CountScope;
use cso::memory::registry::ProcRegistry;
use cso::queue::CsQueue;
use cso::stack::{AbortableStack, CsStack, NonBlockingStack, PopOutcome, PushOutcome};

/// Chaos plans are process-global and an armed `cs::fast` plan is
/// consumed by whichever thread passes that site next, so every test
/// that sends a strong operation through it holds this guard (as in
/// `tests/step_budget.rs`).
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static M: std::sync::Mutex<()> = std::sync::Mutex::new(());
    M.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Theorem 1: "any strong_push() or strong_pop() operation invoked in
/// a contention-free context is lock-free and accesses six times the
/// shared memory."
#[test]
fn theorem1_six_accesses_lock_free() {
    let _serial = serial();
    let stack: CsStack<u32> = CsStack::new(4096, 16);
    stack.push(0, 0); // warm-up

    for round in 0..1_000u32 {
        let scope = CountScope::start();
        assert_eq!(stack.push(round as usize % 16, round), PushOutcome::Pushed);
        assert_eq!(scope.take().total(), 6, "push, round {round}");

        let scope = CountScope::start();
        assert!(stack.pop((round as usize + 7) % 16).is_popped());
        assert_eq!(scope.take().total(), 6, "pop, round {round}");
    }
    assert_eq!(
        stack.path_stats().locked,
        0,
        "lock-free in contention-free context"
    );
}

/// Theorem 1 past attempt 0, on both objects: an operation whose first
/// `k ≤ FAST_RETRIES` attempts are refused still completes lock-free.
/// A scripted veto (`cs::fast`, between the `CONTENTION` read and the
/// weak operation) is the cheapest refusal there is — one read — so
/// the cost is exactly `k + (1 + w)`, inside the closed form's `(k +
/// 1) × (1 + w)` for real aborts: `w` = 5 on the stack, 6 on the queue.
#[test]
fn theorem1_holds_for_every_retry_count() {
    use cso::core::FAST_RETRIES;
    use cso::memory::chaos::{self, Fault, Plan};
    let _serial = serial();

    let stack: CsStack<u32> = CsStack::new(64, 4);
    let queue: CsQueue<u32> = CsQueue::new(64, 4);
    // First ops on a fresh object may take a boundary path; warm up.
    stack.push(0, 0);
    stack.pop(0);
    queue.enqueue(0, 0);
    queue.dequeue(0);
    let push = || assert!(stack.push(1, 7).is_pushed());
    let pop = || assert!(stack.pop(2).is_popped());
    let enqueue = || assert!(queue.enqueue(1, 7).is_enqueued());
    let dequeue = || assert!(queue.dequeue(2).into_option().is_some());
    let ops: [(&str, u64, &dyn Fn()); 4] = [
        ("push", 5, &push),
        ("pop", 5, &pop),
        ("enqueue", 6, &enqueue),
        ("dequeue", 6, &dequeue),
    ];
    for k in 0..=u64::from(FAST_RETRIES) {
        for (name, w, op) in ops {
            chaos::reset();
            if k > 0 {
                chaos::arm_plan("cs::fast", Plan::times(Fault::SpuriousAbort, k));
            }
            let scope = CountScope::start();
            op();
            let spent = scope.take().total();
            assert_eq!(spent, k + 1 + w, "{name}, k = {k}");
            assert!(spent <= (k + 1) * (1 + w), "{name}, k = {k}");
        }
    }
    chaos::reset();
    let locked = stack.path_stats().locked + queue.path_stats().locked;
    assert_eq!(locked, 0, "the retries absorb every veto");
}

/// §3: the weak operations are the five-access building block.
#[test]
fn figure1_five_access_weak_ops() {
    let stack: AbortableStack<i32> = AbortableStack::new(64);
    stack.weak_push(-1).unwrap();
    let scope = CountScope::start();
    stack.weak_push(-2).unwrap();
    stack.weak_pop().unwrap();
    assert_eq!(scope.take().total(), 10, "5 + 5");
}

/// §1.2 / ref [16]: Lamport's fast mutex enters and leaves the
/// critical section in seven accesses when uncontended.
#[test]
fn lamport_fast_mutex_seven_accesses() {
    let registry = ProcRegistry::new(4);
    let token = registry.register().unwrap();
    let lock = LamportFastLock::new(registry.n());
    lock.lock(token.id());
    lock.unlock(token.id());
    let scope = CountScope::start();
    lock.lock(token.id());
    lock.unlock(token.id());
    assert_eq!(scope.take().total(), 7);
}

/// The progress-condition hierarchy of §1.2, as reported by the
/// implementations themselves.
#[test]
fn progress_hierarchy_is_declared_and_ordered() {
    assert_eq!(
        NonBlockingStack::<u32>::PROGRESS,
        ProgressCondition::NonBlocking
    );
    assert_eq!(CsStack::<u32>::PROGRESS, ProgressCondition::StarvationFree);
    assert!(CsStack::<u32>::PROGRESS > NonBlockingStack::<u32>::PROGRESS);
    assert!(ProgressCondition::ObstructionFree < ProgressCondition::NonBlocking);
}

/// Lemma 1, at scale: strong operations never return ⊥ — the API makes
/// that structural (no ⊥ in the return types), so we check totality:
/// every invocation terminates with a definitive answer even at the
/// capacity boundaries.
#[test]
fn strong_ops_total_at_boundaries() {
    let _serial = serial();
    let stack: CsStack<u32> = CsStack::new(2, 4);
    assert_eq!(stack.pop(0), PopOutcome::Empty);
    assert_eq!(stack.push(1, 1), PushOutcome::Pushed);
    assert_eq!(stack.push(2, 2), PushOutcome::Pushed);
    assert_eq!(stack.push(3, 3), PushOutcome::Full);
    assert_eq!(stack.pop(0), PopOutcome::Popped(2));

    let queue: CsQueue<u32> = CsQueue::new(2, 4);
    assert!(queue.dequeue(0).into_option().is_none());
    assert!(queue.enqueue(1, 1).is_enqueued());
    assert!(queue.enqueue(2, 2).is_enqueued());
    assert!(!queue.enqueue(3, 3).is_enqueued());
    assert_eq!(queue.dequeue(0).into_option(), Some(1));
}

/// §4.4: the booster turns a deadlock-free lock into a starvation-free
/// one. Under a hostile workload (hoggers cycling as fast as they
/// can), a victim thread must still complete a fixed budget of
/// critical sections.
#[test]
fn section_4_4_booster_prevents_starvation() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let lock = Arc::new(StarvationFree::new(TasLock::new(), 4));
    let stop = Arc::new(AtomicBool::new(false));

    let hoggers: Vec<_> = (0..3)
        .map(|i| {
            let lock = Arc::clone(&lock);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    lock.lock(i);
                    lock.unlock(i);
                }
            })
        })
        .collect();

    let victim = {
        let lock = Arc::clone(&lock);
        std::thread::spawn(move || {
            for _ in 0..300 {
                lock.lock(3);
                lock.unlock(3);
            }
        })
    };
    victim.join().expect("victim completed — starvation-free");
    stop.store(true, Ordering::Relaxed);
    for h in hoggers {
        h.join().unwrap();
    }
}

/// The booster is generic: it composes with any deadlock-free RawLock.
#[test]
fn booster_composes_with_other_locks() {
    for _ in 0..3 {
        let boosted = StarvationFree::new(TicketLock::new(), 2);
        boosted.lock(0);
        boosted.unlock(0);
        boosted.lock(1);
        boosted.unlock(1);
        let inner: &TicketLock = boosted.inner();
        assert!(inner.try_lock());
        inner.unlock();
    }
}
