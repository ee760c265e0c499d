//! Fault injection against the exchange (elimination) layer: a
//! crashed eliminator must never leak an item, never double-surface
//! one, and never wedge a slot.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use cso_memory::chaos::{self, Fault, Plan};
use cso_memory::exchange::Exchanger;

// The fail-point registry is process-global; chaos scenarios must not
// overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A payload whose drops are counted, so conservation is checkable
/// even across panics.
struct Token(Arc<AtomicUsize>);

impl Drop for Token {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// After any chaos scenario the exchanger must still work: one full
/// rendezvous round-trips.
fn assert_ladder_not_wedged(ex: &Arc<Exchanger<u32>>) {
    assert!(ex.is_idle(), "slots must be recycled after the fault");
    let offeror = {
        let ex = Arc::clone(ex);
        std::thread::spawn(move || loop {
            match ex.offer(77, 100_000) {
                Ok(()) => return,
                Err(_) => std::thread::yield_now(),
            }
        })
    };
    loop {
        if let Some(v) = ex.take() {
            assert_eq!(v, 77);
            break;
        }
        std::hint::spin_loop();
    }
    offeror.join().unwrap();
}

#[test]
fn aborted_claim_returns_the_item() {
    let _serial = serial();
    chaos::reset();
    let ex: Exchanger<u32> = Exchanger::new(2);
    chaos::arm_plan("exchange::claim", Plan::once(Fault::SpuriousAbort));
    assert_eq!(ex.offer(5, 64), Err(5), "an aborted claim keeps the item");
    assert!(ex.is_idle());
    assert_eq!(chaos::fires("exchange::claim"), 1);
    chaos::reset();
}

#[test]
fn eliminator_crashing_with_a_parked_item_leaks_nothing() {
    let _serial = serial();
    chaos::reset();
    let drops = Arc::new(AtomicUsize::new(0));
    let ex: Arc<Exchanger<Token>> = Arc::new(Exchanger::new(1));

    // The offeror parks its item, times out, and is crashed at the
    // retract fail point — while the item is still in the slot.
    chaos::arm_plan("exchange::retract", Plan::once(Fault::Panic));
    let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = ex.offer(Token(Arc::clone(&drops)), 4);
    }));
    assert!(crashed.is_err(), "the injected panic must unwind");
    assert_eq!(chaos::fires("exchange::retract"), 1);

    // Conservation: the park guard reclaimed the parked item on the
    // unwind — dropped exactly once, not leaked, not duplicated.
    assert_eq!(drops.load(Ordering::SeqCst), 1);
    assert_eq!(ex.exchanges(), 0);
    assert!(ex.take().is_none(), "the reclaimed item must not resurface");

    // And the ladder is not wedged: the slot recycled cleanly.
    assert!(ex.is_idle(), "crashed offeror must not wedge its slot");
    chaos::reset();
}

#[test]
fn crash_racing_a_taker_surfaces_the_item_exactly_once() {
    let _serial = serial();
    chaos::reset();
    let drops = Arc::new(AtomicUsize::new(0));
    let ex: Arc<Exchanger<Token>> = Arc::new(Exchanger::new(1));
    let taken = Arc::new(AtomicUsize::new(0));

    // Delay the offeror at the retract point to widen the window in
    // which a taker can commit, then crash it there on a later cycle.
    chaos::arm_plan(
        "exchange::retract",
        Plan {
            fault: Fault::Delay(std::time::Duration::from_micros(200)),
            after: 0,
            one_in: 1,
            max_fires: u64::MAX,
        },
    );
    let stop = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let stop = &stop;
        let taker = {
            let ex = Arc::clone(&ex);
            let taken = Arc::clone(&taken);
            s.spawn(move || {
                while stop.load(Ordering::SeqCst) == 0 {
                    if ex.take().is_some() {
                        taken.fetch_add(1, Ordering::SeqCst);
                    }
                }
            })
        };
        for _ in 0..200 {
            let _ = ex.offer(Token(Arc::clone(&drops)), 8);
        }
        stop.store(1, Ordering::SeqCst);
        taker.join().unwrap();
    });

    // Conservation: every offered token was dropped exactly once —
    // either taken by the taker or retracted by the offeror.
    assert_eq!(drops.load(Ordering::SeqCst), 200);
    assert_eq!(ex.exchanges() as usize, taken.load(Ordering::SeqCst));
    assert!(ex.is_idle());
    chaos::reset();

    // The delay plan is cheap fault coverage; now verify full health.
    let ex: Arc<Exchanger<u32>> = Arc::new(Exchanger::new(1));
    assert_ladder_not_wedged(&ex);
}
