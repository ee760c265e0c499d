//! E1 — shared-memory access counts of contention-free operations.
//!
//! Reproduces the paper's step-complexity claims:
//! * Theorem 1: a contention-free `strong_push`/`strong_pop` performs
//!   **6** shared accesses and uses no lock;
//! * §3 / Figure 1: a solo `weak_push`/`weak_pop` performs **5**;
//! * ref \[16\]: Lamport's fast mutex acquires+releases solo in **7**.
//!
//! Every count is *measured* through `cso_memory::counting`, averaged
//! over many operations so a single stray access cannot hide.

use cso_bench::report::Table;
use cso_locks::{LamportFastLock, ProcLock, RawLock, TasLock, TicketLock};
use cso_memory::counting::CountScope;
use cso_queue::{AbortableQueue, CsQueue};
use cso_stack::{AbortableStack, CsStack};

const OPS: u64 = 100_000;

fn measure(label: &str, claim: &str, table: &mut Table, mut op: impl FnMut()) {
    // Warm up (first op on a fresh object may take a boundary path).
    op();
    let scope = CountScope::start();
    for _ in 0..OPS {
        op();
    }
    let counts = scope.take();
    let per_op = counts.total() as f64 / OPS as f64;
    table.row(vec![
        label.to_owned(),
        format!("{:.3}", counts.reads as f64 / OPS as f64),
        format!("{:.3}", counts.writes as f64 / OPS as f64),
        format!("{:.3}", counts.cas as f64 / OPS as f64),
        format!("{per_op:.3}"),
        claim.to_owned(),
    ]);
}

fn main() {
    println!("E1: shared-memory accesses per contention-free operation");
    println!("(measured over {OPS} solo operations each)\n");

    let mut table = Table::new(&[
        "operation",
        "reads",
        "writes",
        "cas",
        "total",
        "paper claim",
    ]);

    // --- Figure 1: weak operations, 5 accesses. ---
    let stack: AbortableStack<u32> = AbortableStack::new(1024);
    let mut toggle = false;
    measure("weak_push + weak_pop (avg)", "5 (§3)", &mut table, || {
        // Alternate so the stack stays near-empty and never hits the
        // Full/Empty early exits.
        if toggle {
            stack.weak_pop().expect("solo never aborts");
        } else {
            stack.weak_push(1).expect("solo never aborts");
        }
        toggle = !toggle;
    });

    // --- Figure 3: strong operations, 6 accesses, no lock. ---
    let cs: CsStack<u32> = CsStack::new(1024, 4);
    let mut toggle = false;
    measure(
        "strong_push + strong_pop (avg)",
        "6 (Theorem 1)",
        &mut table,
        || {
            if toggle {
                cs.pop(0);
            } else {
                cs.push(0, 1);
            }
            toggle = !toggle;
        },
    );
    assert_eq!(
        cs.path_stats().locked,
        0,
        "Theorem 1: no lock in contention-free runs"
    );

    // --- The queue analogue: 6 weak / 7 strong. ---
    let queue: AbortableQueue<u32> = AbortableQueue::new(1024);
    let mut toggle = false;
    measure(
        "weak_enqueue + weak_dequeue (avg)",
        "6 (queue ext.)",
        &mut table,
        || {
            if toggle {
                queue.weak_dequeue().expect("solo never aborts");
            } else {
                queue.weak_enqueue(1).expect("solo never aborts");
            }
            toggle = !toggle;
        },
    );

    let csq: CsQueue<u32> = CsQueue::new(1024, 4);
    let mut toggle = false;
    measure(
        "strong enqueue + dequeue (avg)",
        "7 (queue ext.)",
        &mut table,
        || {
            if toggle {
                csq.dequeue(0);
            } else {
                csq.enqueue(0, 1);
            }
            toggle = !toggle;
        },
    );

    // --- Locks: Lamport fast (7), TAS (2), ticket (3ish). ---
    let lamport = LamportFastLock::new(8);
    measure(
        "LamportFast lock+unlock",
        "7 (ref [16])",
        &mut table,
        || {
            lamport.lock(0);
            lamport.unlock(0);
        },
    );

    let tas = TasLock::new();
    measure("TAS lock+unlock", "2 (swap+write)", &mut table, || {
        tas.lock();
        tas.unlock();
    });

    let ticket = TicketLock::new();
    measure(
        "Ticket lock+unlock",
        "4 (2 RMW + 2 r/w)",
        &mut table,
        || {
            ticket.lock();
            ticket.unlock();
        },
    );

    // --- Contrast: the HLM deque's boundary scan is O(capacity) ---
    // (the deque earns its place through the liveness hierarchy, not
    // through step complexity — see DESIGN.md).
    for capacity in [4usize, 64, 1024] {
        let deque: cso_deque::AbortableDeque<u32> = cso_deque::AbortableDeque::new(capacity);
        deque.try_push(cso_deque::End::Right, 0).unwrap();
        let mut toggle = false;
        measure(
            &format!("HLM deque push+pop, cap {capacity}"),
            "O(capacity) scan",
            &mut table,
            || {
                if toggle {
                    deque.try_pop(cso_deque::End::Right).expect("solo");
                } else {
                    deque.try_push(cso_deque::End::Right, 1).expect("solo");
                }
                toggle = !toggle;
            },
        );
    }

    table.print();

    println!("\nNote: the paper's §1.2 announces \"seven\" accesses for the stack while");
    println!("Theorem 1 proves six; the measured six matches the theorem. The seven");
    println!("matches Lamport's fast mutex (ref [16]), measured above.");
    cso_bench::tracing::emit("e1_access_counts");
}
