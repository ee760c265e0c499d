//! A reusable symmetric-rendezvous (elimination) substrate.
//!
//! Hendler, Shavit & Yerushalmi's elimination back-off rests on one
//! observation: a concurrent push and pop *cancel out* — they can meet
//! in a side array and exchange the value without touching the shared
//! object at all. The slot state machine below serves the
//! contention-sensitive escalation ladder in `cso-core`, which tries a
//! rendezvous *between* the failed fast path and the lock.
//!
//! An [`Exchanger`] is directional: *offerors* park an item and wait
//! for a partner; *takers* consume a parked item. Each slot cycles
//! through
//!
//! ```text
//! EMPTY ──claim──▶ CLAIMED ──park──▶ WAITING ──take──▶ BUSY ──▶ EMPTY (tag+1)
//!    ▲                                  │
//!    └───────── reclaim ◀── RETRACT ◀───┘ (offer timed out)
//! ```
//!
//! with a 32-bit tag in the high half of the state word bumped on
//! every recycle, so a parked offeror can detect "my exchange
//! completed and the slot already moved on" without ABA confusion.
//!
//! # Exclusive cell windows
//!
//! The item cell is touched only inside windows the state machine
//! makes exclusive: an offeror owns it from the `EMPTY→CLAIMED` CAS to
//! the `WAITING` store, and again from a successful `WAITING→RETRACT`
//! CAS to its `EMPTY` store; a taker owns it from a successful
//! `WAITING→BUSY` CAS to its `EMPTY` store. A new claim is only
//! possible after an `EMPTY` store with a bumped tag.
//!
//! # Crash behavior
//!
//! [`Exchanger::offer`] is panic-safe: if the offeror unwinds while
//! its item is parked (the `exchange::retract` fail point injects
//! exactly that crash), a drop guard retracts the item — or, when a
//! taker already committed, concedes the exchange — so a crashed
//! eliminator never leaks an item and never wedges a slot. The chaos
//! fail points `exchange::claim` (fired before a claim CAS on either
//! side) and `exchange::retract` (fired while the item is parked, just
//! before the retract CAS) let tests inject aborts, delays, and
//! crashes into both windows.
//!
//! These atomics are *uncounted* (plain `std::sync::atomic`): the
//! exchanger is an engineering substrate like the combining layer, not
//! part of the paper's counted-register algorithms. They are still
//! schedule points: every access to a slot's state word or stamps goes
//! through an accessor that first calls the runtime's peek hook, so
//! on a model thread the explorer interleaves the claim race, the
//! retract-vs-take race and the stamp handoff. Elsewhere the hook is
//! one thread-local test.

use std::cell::{RefCell, UnsafeCell};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::backoff::XorShift64;
use crate::combining::{CachePadded, NO_HELPER};
use crate::fail_point;
use crate::runtime;

// Slot states (low 32 bits of the packed word; high 32 bits = tag).
const EMPTY: u32 = 0;
/// An offeror owns the cell and is writing its item.
const CLAIMED: u32 = 1;
/// An item is parked and available to a taker.
const WAITING: u32 = 2;
/// A taker owns the cell and is taking the item.
const BUSY: u32 = 3;
/// The offeror timed out and is reclaiming its item.
const RETRACT: u32 = 4;

fn pack(tag: u32, state: u32) -> u64 {
    (u64::from(tag) << 32) | u64::from(state)
}

fn unpack(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, word as u32)
}

/// How long a stamped offeror polls for its partner's identity stamp
/// after detecting the exchange. The taker writes the stamp between
/// its `WAITING→BUSY` commit and the recycling `EMPTY` store, so an
/// offeror that observed `BUSY` may be a few instructions early; one
/// that observed the recycled tag is never early (the `EMPTY` release
/// store orders the stamp before it). Missing the bound degrades the
/// edge to [`NO_HELPER`] — attribution is best-effort, the exchange
/// itself is already decided.
const STAMP_POLLS: u32 = 256;

struct ExchangeSlot<T> {
    state: AtomicU64,
    /// Tag-validated offeror identity, packed `tag << 32 | tid`,
    /// written inside the exclusive `CLAIMED` window (published by the
    /// `WAITING` release store) and read by the taker inside its
    /// exclusive `BUSY` window. The tag check rejects stamps from a
    /// previous occupancy of the slot — the same anti-ABA discipline
    /// as the state word itself.
    offeror_stamp: AtomicU64,
    /// Tag-validated taker identity, written between the
    /// `WAITING→BUSY` commit and the recycling `EMPTY` store, read by
    /// the parked offeror once it detects the exchange.
    taker_stamp: AtomicU64,
    item: UnsafeCell<Option<T>>,
}

// SAFETY: the slot's state machine grants exclusive access to `item`
// to exactly one thread at a time (see the module docs' window
// analysis), and items move across threads, hence `T: Send`.
unsafe impl<T: Send> Send for ExchangeSlot<T> {}
unsafe impl<T: Send> Sync for ExchangeSlot<T> {}

impl<T> ExchangeSlot<T> {
    fn new() -> ExchangeSlot<T> {
        ExchangeSlot {
            state: AtomicU64::new(pack(0, EMPTY)),
            // Tag u32::MAX can never match a live occupancy's tag
            // until the 2^32nd recycle, so fresh stamps read invalid.
            offeror_stamp: AtomicU64::new(pack(u32::MAX, NO_HELPER)),
            taker_stamp: AtomicU64::new(pack(u32::MAX, NO_HELPER)),
            item: UnsafeCell::new(None),
        }
    }

    /// The state word, behind the runtime's schedule point.
    #[inline(always)]
    fn state(&self) -> &AtomicU64 {
        runtime::peek();
        &self.state
    }

    /// The offeror's stamp, behind the runtime's schedule point.
    #[inline(always)]
    fn offeror_stamp(&self) -> &AtomicU64 {
        runtime::peek();
        &self.offeror_stamp
    }

    /// The taker's stamp, behind the runtime's schedule point.
    #[inline(always)]
    fn taker_stamp(&self) -> &AtomicU64 {
        runtime::peek();
        &self.taker_stamp
    }
}

thread_local! {
    static RNG: RefCell<XorShift64> = RefCell::new(XorShift64::from_entropy());
}

/// A pseudo-random value in `[0, bound)` for slot selection. On a
/// model thread it is drawn from the session's deterministic entropy instead of the persistent thread-local generator — the
/// thread-local survives across explored schedules (the exploration
/// body runs many times on one OS thread), which would make replays
/// of the same schedule prefix diverge.
fn random_below(bound: u64) -> u64 {
    if let Some(seed) = runtime::entropy_seed() {
        return XorShift64::new(seed).next_below(bound);
    }
    RNG.with(|rng| rng.borrow_mut().next_below(bound))
}

/// Retracts a parked item if the offeror unwinds mid-exchange.
///
/// Armed between the `WAITING` store and the normal resolution of an
/// offer. On drop (i.e. on unwind out of the parked window) it runs
/// the same retract protocol the timeout path uses: win the
/// `WAITING→RETRACT` CAS and reclaim (drop) the item, or concede the
/// exchange to a committed taker. Either way the slot keeps cycling.
struct ParkGuard<'a, T> {
    slot: &'a ExchangeSlot<T>,
    tag: u32,
    armed: bool,
}

impl<T> Drop for ParkGuard<'_, T> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        if self
            .slot
            .state()
            .compare_exchange(
                pack(self.tag, WAITING),
                pack(self.tag, RETRACT),
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
        {
            // SAFETY: exclusive window (RETRACT); the reclaimed item
            // drops with the unwinding offeror, exactly once.
            drop(unsafe { (*self.slot.item.get()).take() });
            self.slot
                .state()
                .store(pack(self.tag.wrapping_add(1), EMPTY), Ordering::Release);
        }
        // Else a taker committed (BUSY or already recycled): the item
        // is theirs; the crashed offer counts as exchanged.
    }
}

/// A fixed array of rendezvous slots. See the module docs.
pub struct Exchanger<T> {
    slots: Box<[CachePadded<ExchangeSlot<T>>]>,
    /// Completed exchanges (pairs), bumped by the taker at the
    /// `WAITING→BUSY` commit point.
    exchanged: AtomicU64,
}

impl<T: Send> Exchanger<T> {
    /// Creates an exchanger with `slots` independent rendezvous slots.
    ///
    /// # Panics
    ///
    /// Panics if `slots == 0`.
    #[must_use]
    pub fn new(slots: usize) -> Exchanger<T> {
        assert!(slots > 0, "an exchanger needs at least one slot");
        Exchanger {
            slots: (0..slots)
                .map(|_| CachePadded::new(ExchangeSlot::new()))
                .collect(),
            exchanged: AtomicU64::new(0),
        }
    }

    /// Number of rendezvous slots.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Number of completed exchanges (operation *pairs*).
    #[must_use]
    pub fn exchanges(&self) -> u64 {
        self.exchanged.load(Ordering::Relaxed)
    }

    /// Parks `value` in a random `EMPTY` slot and waits up to `polls`
    /// spin iterations for a taker. `Ok(())` means a taker consumed
    /// the item (the exchange happened); `Err(value)` returns the item
    /// to the caller (no slot free, claim lost, or no taker arrived in
    /// time). Panic-safe: an unwind while the item is parked retracts
    /// it or concedes to a committed taker (see the module docs).
    pub fn offer(&self, value: T, polls: u32) -> Result<(), T> {
        self.offer_stamped(value, polls, NO_HELPER).map(|_| ())
    }

    /// [`Exchanger::offer`] with causal attribution: stamps `me` (a
    /// trace thread id) into the slot for the taker to read, and on
    /// success returns the taker's stamp — [`NO_HELPER`] when the
    /// partner did not identify itself or its stamp was not yet
    /// visible. The stamps are plain uncounted stores; the exchange
    /// protocol and its step costs are unchanged.
    pub fn offer_stamped(&self, value: T, polls: u32, me: u32) -> Result<u32, T> {
        fail_point!("exchange::claim", return Err(value));
        let slot = self.random_slot();
        let word = slot.state().load(Ordering::Acquire);
        let (tag, state) = unpack(word);
        if state != EMPTY
            || slot
                .state()
                .compare_exchange(
                    word,
                    pack(tag, CLAIMED),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_err()
        {
            return Err(value);
        }
        // We own the cell: park the item and our identity stamp (the
        // WAITING release store below publishes both).
        // SAFETY: exclusive window (CLAIMED).
        unsafe { *slot.item.get() = Some(value) };
        slot.offeror_stamp().store(pack(tag, me), Ordering::Relaxed);
        let mut guard = ParkGuard {
            slot,
            tag,
            armed: true,
        };
        slot.state().store(pack(tag, WAITING), Ordering::Release);

        for i in 0..polls {
            let (now_tag, now_state) = unpack(slot.state().load(Ordering::Acquire));
            if now_tag != tag || now_state == BUSY {
                // A taker moved us to BUSY (and possibly already
                // recycled the slot): the item is theirs.
                guard.armed = false;
                return Ok(taker_stamp_of(slot, tag));
            }
            if runtime::spin_hint() {
                // A model session absorbed the wait and will run the
                // prospective taker before us.
            } else if i % 64 == 63 {
                // On an oversubscribed host the partner cannot run
                // while we spin; hand over the quantum periodically so
                // a parked offer is actually visible to it. The item
                // stays safely parked across the yield (the taker's
                // BUSY CAS completes the exchange without us).
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        // Timed out: retract if no taker has committed. The fail point
        // fires while the item is still parked — an injected panic
        // here is the "crashed eliminator" case the guard covers.
        fail_point!("exchange::retract");
        guard.armed = false;
        if slot
            .state()
            .compare_exchange(
                pack(tag, WAITING),
                pack(tag, RETRACT),
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
        {
            // SAFETY: exclusive window (RETRACT).
            let value = unsafe { (*slot.item.get()).take() }.expect("parked item present");
            slot.state()
                .store(pack(tag.wrapping_add(1), EMPTY), Ordering::Release);
            Err(value)
        } else {
            // The CAS lost: a taker got there first — exchanged.
            Ok(taker_stamp_of(slot, tag))
        }
    }

    /// Takes a parked item, if any slot holds one.
    pub fn take(&self) -> Option<T> {
        self.take_if(|| true)
    }

    /// Takes a parked item, consulting `admit` once per candidate:
    /// after a slot is observed `WAITING` and before the committing
    /// `WAITING→BUSY` CAS. Returning `false` declines that candidate
    /// (the slot is left untouched for another taker).
    ///
    /// The callback is the caller's *validation window*: because it
    /// runs while the partner is verifiably parked — inside both
    /// operations' intervals — a predicate checked there (e.g. the
    /// bounded stack's "not full" guard) holds at an instant at which
    /// the eliminated pair may linearize.
    ///
    /// Scans every slot starting from a random index.
    pub fn take_if(&self, admit: impl FnMut() -> bool) -> Option<T> {
        self.take_if_stamped(admit, NO_HELPER)
            .map(|(value, _)| value)
    }

    /// [`Exchanger::take_if`] with causal attribution: stamps `me` (a
    /// trace thread id) for the parked offeror to read, and returns
    /// the offeror's stamp alongside the item — [`NO_HELPER`] when the
    /// offeror did not identify itself.
    pub fn take_if_stamped(&self, mut admit: impl FnMut() -> bool, me: u32) -> Option<(T, u32)> {
        let start = random_below(self.slots.len() as u64) as usize;
        for i in 0..self.slots.len() {
            let slot = &*self.slots[(start + i) % self.slots.len()];
            let word = slot.state().load(Ordering::Acquire);
            let (tag, state) = unpack(word);
            if state != WAITING || !admit() {
                continue;
            }
            fail_point!("exchange::claim", continue);
            if slot
                .state()
                .compare_exchange(word, pack(tag, BUSY), Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                continue;
            }
            // SAFETY: exclusive window (BUSY).
            let value = unsafe { (*slot.item.get()).take() }.expect("parked item present");
            // Read the offeror's stamp (published by its WAITING
            // store) and leave ours before the recycling store makes
            // the slot claimable again — both inside the BUSY window.
            let (stamp_tag, partner) = unpack(slot.offeror_stamp().load(Ordering::Relaxed));
            let partner = if stamp_tag == tag { partner } else { NO_HELPER };
            slot.taker_stamp().store(pack(tag, me), Ordering::Release);
            slot.state()
                .store(pack(tag.wrapping_add(1), EMPTY), Ordering::Release);
            self.exchanged.fetch_add(1, Ordering::Relaxed);
            return Some((value, partner));
        }
        None
    }

    /// True when every slot is `EMPTY` with no parked item — the
    /// quiescent-state check the conservation tests rely on.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.slots
            .iter()
            .all(|slot| unpack(slot.state().load(Ordering::Acquire)).1 == EMPTY)
    }

    fn random_slot(&self) -> &ExchangeSlot<T> {
        let idx = random_below(self.slots.len() as u64) as usize;
        &self.slots[idx]
    }
}

/// The taker's identity stamp for the rendezvous tagged `tag`, polled
/// briefly (see [`STAMP_POLLS`]); [`NO_HELPER`] if it never became
/// visible. Called by an offeror that has already detected its
/// exchange, so the slot may be in any later state — the tag check is
/// what ties the stamp to *this* rendezvous.
fn taker_stamp_of<T>(slot: &ExchangeSlot<T>, tag: u32) -> u32 {
    for _ in 0..STAMP_POLLS {
        let (stamp_tag, tid) = unpack(slot.taker_stamp().load(Ordering::Acquire));
        if stamp_tag == tag {
            return tid;
        }
        if !runtime::spin_hint() {
            std::hint::spin_loop();
        }
    }
    NO_HELPER
}

impl<T> std::fmt::Debug for Exchanger<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Exchanger")
            .field("slots", &self.slots.len())
            .field("exchanged", &self.exchanged.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn solo_offer_times_out_and_returns_the_item() {
        let ex: Exchanger<u32> = Exchanger::new(2);
        assert_eq!(ex.offer(7, 4), Err(7));
        assert!(ex.is_idle(), "retract must recycle the slot");
        assert_eq!(ex.exchanges(), 0);
    }

    #[test]
    fn solo_take_finds_nothing() {
        let ex: Exchanger<u32> = Exchanger::new(2);
        assert_eq!(ex.take(), None);
    }

    #[test]
    fn offer_and_take_rendezvous() {
        let ex: Arc<Exchanger<u32>> = Arc::new(Exchanger::new(1));
        let offeror = {
            let ex = Arc::clone(&ex);
            std::thread::spawn(move || loop {
                match ex.offer(42, 10_000) {
                    Ok(()) => return,
                    Err(_) => std::thread::yield_now(),
                }
            })
        };
        let got = loop {
            if let Some(v) = ex.take() {
                break v;
            }
            std::hint::spin_loop();
        };
        offeror.join().unwrap();
        assert_eq!(got, 42);
        assert_eq!(ex.exchanges(), 1);
        assert!(ex.is_idle());
    }

    #[test]
    fn declined_take_leaves_the_slot_parked() {
        let ex: Arc<Exchanger<u32>> = Arc::new(Exchanger::new(1));
        let offeror = {
            let ex = Arc::clone(&ex);
            std::thread::spawn(move || loop {
                match ex.offer(9, 100_000) {
                    Ok(()) => return,
                    Err(_) => std::thread::yield_now(),
                }
            })
        };
        // Wait until the item is verifiably parked, then decline it.
        while ex.is_idle() {
            std::hint::spin_loop();
        }
        assert_eq!(ex.take_if(|| false), None, "declined candidates stay");
        assert_eq!(ex.take(), Some(9), "a later taker still gets it");
        offeror.join().unwrap();
        assert_eq!(ex.exchanges(), 1);
    }

    #[test]
    fn stamped_rendezvous_reports_both_identities() {
        let ex: Arc<Exchanger<u32>> = Arc::new(Exchanger::new(1));
        let offeror = {
            let ex = Arc::clone(&ex);
            std::thread::spawn(move || loop {
                match ex.offer_stamped(42, 10_000, 11) {
                    Ok(partner) => return partner,
                    Err(_) => std::thread::yield_now(),
                }
            })
        };
        let (got, offeror_id) = loop {
            if let Some(pair) = ex.take_if_stamped(|| true, 22) {
                break pair;
            }
            std::hint::spin_loop();
        };
        let taker_id = offeror.join().unwrap();
        assert_eq!(got, 42);
        assert_eq!(offeror_id, 11, "taker learns the offeror's identity");
        assert_eq!(taker_id, 22, "offeror learns the taker's identity");
        assert_eq!(ex.exchanges(), 1);
        assert!(ex.is_idle());
    }

    #[test]
    fn unstamped_calls_report_no_helper() {
        let ex: Arc<Exchanger<u32>> = Arc::new(Exchanger::new(1));
        let offeror = {
            let ex = Arc::clone(&ex);
            std::thread::spawn(move || loop {
                match ex.offer_stamped(5, 10_000, 33) {
                    Ok(partner) => return partner,
                    Err(_) => std::thread::yield_now(),
                }
            })
        };
        // A plain take leaves no taker stamp for this occupancy.
        let got = loop {
            if let Some(v) = ex.take() {
                break v;
            }
            std::hint::spin_loop();
        };
        assert_eq!(got, 5);
        assert_eq!(
            offeror.join().unwrap(),
            NO_HELPER,
            "anonymous taker yields an unattributable edge"
        );
        // A stale stamp from the previous cycle must not leak into a
        // fresh rendezvous either way (tag validation).
        assert_eq!(ex.offer(6, 0), Err(6));
        assert!(ex.is_idle());
    }

    #[test]
    fn slots_recycle_across_many_cycles() {
        let ex: Exchanger<u32> = Exchanger::new(1);
        for i in 0..200 {
            assert_eq!(ex.offer(i, 0), Err(i), "cycle {i}");
        }
        assert!(ex.is_idle());
    }

    #[test]
    fn conserves_items_under_concurrency() {
        const THREADS: u32 = 4;
        const PER_THREAD: u32 = 2_000;
        let ex: Arc<Exchanger<u32>> = Arc::new(Exchanger::new(2));
        let taken = Arc::new(AtomicUsize::new(0));
        let kept = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let ex = Arc::clone(&ex);
                let taken = Arc::clone(&taken);
                let kept = Arc::clone(&kept);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        if t % 2 == 0 {
                            match ex.offer(t * PER_THREAD + i, 64) {
                                Ok(()) => {}
                                Err(_) => {
                                    kept.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        } else if ex.take().is_some() {
                            taken.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let offered = (u64::from(THREADS) / 2) * u64::from(PER_THREAD);
        let exchanged = offered - kept.load(Ordering::Relaxed) as u64;
        assert_eq!(
            taken.load(Ordering::Relaxed) as u64,
            exchanged,
            "every exchanged item must surface exactly once"
        );
        assert_eq!(ex.exchanges(), exchanged);
        assert!(ex.is_idle(), "no items may remain parked");
    }

    #[test]
    fn exchanger_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Exchanger<u32>>();
    }
}
