//! Publication records for a flat-combining slow path.
//!
//! Flat combining (Hendler, Incze, Shavit & Tzafrir) replaces the
//! one-at-a-time lock queue with a *publication list*: a contended
//! operation writes a request into its own cache-padded record and
//! spins locally; whichever thread wins the lock becomes the
//! **combiner** and applies every pending request in one lock tenure,
//! writing results back through the records. This module provides the
//! record and its handoff protocol; the combining loop itself lives in
//! `cso-core`.
//!
//! # The handoff protocol
//!
//! Each record is owned by exactly one posting process and moves
//! through a small status machine:
//!
//! ```text
//!           post                try_claim            complete
//! EMPTY ──────────▶ POSTED ──────────────▶ CLAIMED ──────────▶ DONE
//!   ▲                  │                      │                  │
//!   │   try_retract    │                      │ poison           │ take_response
//!   ◀──────────────────┘                      ▼                  │
//!   ▲                                     POISONED               │
//!   │              reclaim_poisoned           │                  │
//!   ◀─────────────────────────────────────────┴──────────────────┘
//! ```
//!
//! * the **owner** performs `post`, `try_retract`, `take_response` and
//!   `reclaim_poisoned`;
//! * the **combiner** (any thread holding the slow-path lock) performs
//!   `try_claim`, then exactly one of `complete` or `poison`.
//!
//! `POISONED` is the crash-mid-batch story: a combiner that unwinds
//! while a claim is in flight marks the record poisoned *before*
//! releasing the lock, so the owner — who cannot tell a slow combiner
//! from a dead one — observes a terminal state, reclaims the record,
//! and retries cleanly. The poisoned operation was never applied.
//!
//! `TOMBSTONE` is the crash-*of-the-owner* story, the dual of
//! `POISONED`: a combiner that finds a `POSTED` record whose owner is
//! suspected dead (see [`crate::liveness`]) retires it with
//! [`PubRecord::try_tombstone_posted`] **without applying it**, so a
//! dead process's request can never be applied with nobody to receive
//! the response. Tombstone-without-apply is what keeps exactly-once
//! intact under *false* suspicion: a live owner that was merely slow
//! observes `TOMBSTONE` (a terminal state), reclaims the record with
//! [`PubRecord::reclaim_tombstone`], and reposts — its operation was
//! applied zero times so far, never two.
//!
//! # Memory safety
//!
//! The record stores the operation as a raw pointer into the owner's
//! stack frame. This is sound because the owner's `post` is `unsafe`
//! with the contract that the owner does not exit the frame until the
//! record reaches a terminal state it consumes (`DONE` via
//! [`PubRecord::take_response`], `POISONED` via
//! [`PubRecord::reclaim_poisoned`], or a successful
//! [`PubRecord::try_retract`]). All status transitions publish with
//! `Release` and observe with `Acquire`, so the pointer write is
//! visible to the claimer and the response write is visible to the
//! owner.
//!
//! Statuses live in plain (uncounted) atomics: the publication list is
//! an engineering substrate, not part of the paper's shared-memory
//! footprint, so it must not perturb the step-count experiments the
//! [`crate::reg`] registers feed. Uncounted is not unscheduled: every
//! access to a record's `status` or `helper` word goes through an
//! accessor that first calls the runtime's peek hook, so under the
//! `model` feature the handoff races (claim vs retract, poison vs
//! poll) are interleaved by the explorer like any register access.
//! Under the default runtime the hook is an empty inline function.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, Ordering};

use crate::runtime::{Active, Runtime};

const EMPTY: u32 = 0;
const POSTED: u32 = 1;
const CLAIMED: u32 = 2;
const DONE: u32 = 3;
const POISONED: u32 = 4;
const TOMBSTONE: u32 = 5;

/// Pads and aligns `T` to 128 bytes so adjacent values never share a
/// cache line (128 covers the spatial-prefetcher pairs on x86 and the
/// 128-byte lines of some arm64 parts).
///
/// Publication records are written by their owner and scanned by the
/// combiner; without padding, one waiter's local spin would false-share
/// with its neighbours' handoffs.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` in its own cache line.
    pub const fn new(value: T) -> CachePadded<T> {
        CachePadded { value }
    }

    /// Unwraps the padded value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

/// The externally observable status of a [`PubRecord`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordState {
    /// Owned by the poster; no request pending.
    Empty,
    /// A request is published and waiting for a combiner.
    Posted,
    /// A combiner holds the claim and is applying the request.
    Claimed,
    /// The response is ready for the owner.
    Done,
    /// The claiming combiner unwound before applying the request; the
    /// owner must reclaim and retry.
    Poisoned,
    /// A combiner retired the request *unapplied* because the owner
    /// was suspected dead. A falsely suspected owner reclaims with
    /// [`PubRecord::reclaim_tombstone`] and reposts.
    Tombstone,
}

/// The helper stamp a fresh [`PubRecord`] carries: "nobody". Matches
/// `cso_trace::NO_TID` so the value flows straight into causal-edge
/// probe payloads (this crate cannot depend on cso-trace — the chaos
/// hook points the other way — so the sentinel is duplicated here).
pub const NO_HELPER: u32 = u32::MAX;

/// One publication record: a single-producer mailbox through which a
/// contended operation is handed to a combiner and its response handed
/// back. See the module docs for the protocol and its safety argument.
#[derive(Debug)]
pub struct PubRecord<Op, Resp> {
    status: AtomicU32,
    /// Trace thread id of the combiner that last completed this
    /// record, [`NO_HELPER`] initially. An uncounted engineering-side
    /// stamp (like `status`): never part of the paper's step budgets.
    helper: AtomicU32,
    op: UnsafeCell<*const Op>,
    resp: UnsafeCell<Option<Resp>>,
}

// SAFETY: the status machine hands exclusive access around — the owner
// touches `op`/`resp` only in EMPTY/DONE/POISONED, the claimer only in
// CLAIMED — and every transition pairs a Release store with an Acquire
// load. The claimer dereferences the posted `&Op` on its own thread
// (`Op: Sync`) and moves the response across to the owner
// (`Resp: Send`).
unsafe impl<Op: Sync, Resp: Send> Send for PubRecord<Op, Resp> {}
// SAFETY: as above.
unsafe impl<Op: Sync, Resp: Send> Sync for PubRecord<Op, Resp> {}

impl<Op, Resp> PubRecord<Op, Resp> {
    /// The status word, behind the runtime's schedule point.
    #[inline(always)]
    fn status(&self) -> &AtomicU32 {
        Active::before_peek();
        &self.status
    }

    /// The helper stamp, behind the runtime's schedule point.
    #[inline(always)]
    fn helper_word(&self) -> &AtomicU32 {
        Active::before_peek();
        &self.helper
    }

    /// Creates an empty record.
    #[must_use]
    pub fn new() -> PubRecord<Op, Resp> {
        PubRecord {
            status: AtomicU32::new(EMPTY),
            helper: AtomicU32::new(NO_HELPER),
            op: UnsafeCell::new(std::ptr::null()),
            resp: UnsafeCell::new(None),
        }
    }

    /// The current status (an `Acquire` load, so a `Done` observation
    /// licenses [`PubRecord::take_response`]).
    #[must_use]
    pub fn state(&self) -> RecordState {
        match self.status().load(Ordering::Acquire) {
            EMPTY => RecordState::Empty,
            POSTED => RecordState::Posted,
            CLAIMED => RecordState::Claimed,
            DONE => RecordState::Done,
            TOMBSTONE => RecordState::Tombstone,
            _ => RecordState::Poisoned,
        }
    }

    /// Publishes a request (owner side): `EMPTY → POSTED`.
    ///
    /// # Safety
    ///
    /// The caller must be the record's owner, the record must be
    /// `EMPTY`, and `op` must stay valid until the caller consumes a
    /// terminal state: a successful [`PubRecord::try_retract`], or a
    /// [`PubRecord::take_response`] / [`PubRecord::reclaim_poisoned`]
    /// after observing `Done` / `Poisoned`. In practice: post a
    /// reference to a local, then block in this frame until then.
    ///
    /// # Panics
    ///
    /// Panics if the record is not `EMPTY` (a protocol violation).
    pub unsafe fn post(&self, op: *const Op) {
        assert_eq!(
            self.status().load(Ordering::Relaxed),
            EMPTY,
            "post on a non-empty publication record"
        );
        // SAFETY: EMPTY means no claimer can touch the cell, and the
        // caller guarantees owner-exclusivity.
        unsafe { *self.op.get() = op };
        self.status().store(POSTED, Ordering::Release);
    }

    /// Attempts to withdraw an unclaimed request (owner side):
    /// `POSTED → EMPTY`. Returns `false` if a combiner got there first
    /// — the owner must then wait for a terminal state.
    pub fn try_retract(&self) -> bool {
        self.status()
            .compare_exchange(POSTED, EMPTY, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
    }

    /// Attempts to claim a pending request (combiner side):
    /// `POSTED → CLAIMED`. On success returns the posted operation
    /// pointer, which is valid to dereference until the claim is
    /// resolved by [`PubRecord::complete`] or [`PubRecord::poison`].
    #[must_use]
    pub fn try_claim(&self) -> Option<*const Op> {
        self.status()
            .compare_exchange(POSTED, CLAIMED, Ordering::AcqRel, Ordering::Relaxed)
            .ok()?;
        // SAFETY: the successful CAS acquired the POSTED publication,
        // and CLAIMED grants this thread exclusive cell access.
        Some(unsafe { *self.op.get() })
    }

    /// Stamps the combiner's identity (a trace thread id) onto the
    /// record, to be read back by the owner after it observes `Done`.
    /// Call while holding the claim, before [`PubRecord::complete`]:
    /// the `Release` store in `complete` then publishes the stamp
    /// together with the response. A plain (uncounted) store — causal
    /// attribution must not perturb the step audit.
    pub fn stamp_helper(&self, tid: u32) {
        self.helper_word().store(tid, Ordering::Relaxed);
    }

    /// The identity stamped by the combiner that last completed this
    /// record ([`NO_HELPER`] if none ever did). Meaningful to the
    /// owner only after observing `Done` — the `Acquire` load in
    /// [`PubRecord::state`] makes the claimer's stamp visible.
    #[must_use]
    pub fn helper(&self) -> u32 {
        self.helper_word().load(Ordering::Relaxed)
    }

    /// Delivers the response (combiner side): `CLAIMED → DONE`.
    ///
    /// # Panics
    ///
    /// Panics if the record is not `CLAIMED` (a protocol violation).
    pub fn complete(&self, resp: Resp) {
        assert_eq!(
            self.status().load(Ordering::Relaxed),
            CLAIMED,
            "complete on an unclaimed publication record"
        );
        // SAFETY: CLAIMED grants the claimer exclusive cell access.
        unsafe { *self.resp.get() = Some(resp) };
        self.status().store(DONE, Ordering::Release);
    }

    /// Abandons a claim without applying it (combiner side, unwind
    /// path): `CLAIMED → POISONED`. The owner will reclaim and retry.
    ///
    /// # Panics
    ///
    /// Panics if the record is not `CLAIMED` (a protocol violation).
    pub fn poison(&self) {
        assert_eq!(
            self.status().load(Ordering::Relaxed),
            CLAIMED,
            "poison on an unclaimed publication record"
        );
        self.status().store(POISONED, Ordering::Release);
    }

    /// Takes the delivered response (owner side): `DONE → EMPTY`.
    /// Call only after [`PubRecord::state`] returned
    /// [`RecordState::Done`].
    ///
    /// # Panics
    ///
    /// Panics if the record is not `DONE` (a protocol violation).
    #[must_use]
    pub fn take_response(&self) -> Resp {
        assert_eq!(
            self.status().load(Ordering::Acquire),
            DONE,
            "take_response before completion"
        );
        // SAFETY: DONE returns exclusive cell access to the owner.
        let resp = unsafe { (*self.resp.get()).take() };
        self.status().store(EMPTY, Ordering::Release);
        resp.expect("DONE record carries a response")
    }

    /// Reclaims a poisoned record (owner side): `POISONED → EMPTY`.
    /// The request was **not** applied; the owner may repost it.
    ///
    /// # Panics
    ///
    /// Panics if the record is not `POISONED` (a protocol violation).
    pub fn reclaim_poisoned(&self) {
        assert_eq!(
            self.status().load(Ordering::Acquire),
            POISONED,
            "reclaim on an unpoisoned publication record"
        );
        self.status().store(EMPTY, Ordering::Release);
    }

    /// Retires a pending request **without applying it** (combiner
    /// side): `POSTED → TOMBSTONE`. For records whose owner is
    /// suspected dead — the combiner must not apply an operation whose
    /// poster may never collect the response, so the record is parked
    /// in a terminal state instead.
    ///
    /// Returns `false` if the record was no longer `POSTED` (the owner
    /// retracted, or another combiner claimed it) — suspicion raced
    /// with life, and the loser simply walks away. The CAS makes
    /// apply-then-tombstone impossible: a record is either claimed
    /// (and eventually applied exactly once) or tombstoned (applied
    /// zero times), never both.
    pub fn try_tombstone_posted(&self) -> bool {
        self.status()
            .compare_exchange(POSTED, TOMBSTONE, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
    }

    /// Reclaims a tombstoned record (owner side): `TOMBSTONE → EMPTY`.
    /// The request was **not** applied; a falsely suspected owner may
    /// repost it.
    ///
    /// # Panics
    ///
    /// Panics if the record is not `TOMBSTONE` (a protocol violation).
    pub fn reclaim_tombstone(&self) {
        assert_eq!(
            self.status().load(Ordering::Acquire),
            TOMBSTONE,
            "reclaim on an untombstoned publication record"
        );
        self.status().store(EMPTY, Ordering::Release);
    }
}

impl<Op, Resp> Default for PubRecord<Op, Resp> {
    fn default() -> PubRecord<Op, Resp> {
        PubRecord::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_padding_separates_neighbours() {
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 128);
        assert!(std::mem::size_of::<CachePadded<u8>>() >= 128);
        let records: Vec<CachePadded<PubRecord<u32, u32>>> =
            (0..4).map(|_| CachePadded::new(PubRecord::new())).collect();
        let a = &*records[0] as *const _ as usize;
        let b = &*records[1] as *const _ as usize;
        assert!(b - a >= 128, "adjacent records share a cache line");
        let mut padded = CachePadded::new(5u32);
        *padded += 1;
        assert_eq!(padded.into_inner(), 6);
    }

    #[test]
    fn post_claim_complete_take_round_trip() {
        let rec: PubRecord<u32, u32> = PubRecord::new();
        assert_eq!(rec.state(), RecordState::Empty);
        let op = 7u32;
        // SAFETY: `op` outlives the protocol run below.
        unsafe { rec.post(&op) };
        assert_eq!(rec.state(), RecordState::Posted);
        let ptr = rec.try_claim().expect("posted record is claimable");
        // SAFETY: the claim licenses the dereference.
        assert_eq!(unsafe { *ptr }, 7);
        assert_eq!(rec.state(), RecordState::Claimed);
        assert!(rec.try_claim().is_none(), "double claim must fail");
        rec.complete(70);
        assert_eq!(rec.state(), RecordState::Done);
        assert_eq!(rec.take_response(), 70);
        assert_eq!(rec.state(), RecordState::Empty);
    }

    #[test]
    fn retract_races_with_claim_exactly_one_winner() {
        let rec: PubRecord<u32, u32> = PubRecord::new();
        let op = 1u32;
        // SAFETY: `op` outlives the protocol run below.
        unsafe { rec.post(&op) };
        assert!(rec.try_retract(), "unclaimed post retracts");
        assert_eq!(rec.state(), RecordState::Empty);
        assert!(!rec.try_retract(), "nothing left to retract");

        // SAFETY: as above.
        unsafe { rec.post(&op) };
        assert!(rec.try_claim().is_some());
        assert!(!rec.try_retract(), "claimed post cannot be retracted");
        rec.complete(2);
        assert_eq!(rec.take_response(), 2);
    }

    #[test]
    fn poison_reclaim_repost_retries_cleanly() {
        let rec: PubRecord<u32, u32> = PubRecord::new();
        let op = 9u32;
        // SAFETY: `op` outlives the protocol run below.
        unsafe { rec.post(&op) };
        let _ = rec.try_claim().expect("claimable");
        rec.poison();
        assert_eq!(rec.state(), RecordState::Poisoned);
        rec.reclaim_poisoned();
        assert_eq!(rec.state(), RecordState::Empty);
        // The owner retries: the full protocol still works.
        // SAFETY: as above.
        unsafe { rec.post(&op) };
        let _ = rec.try_claim().expect("claimable again");
        rec.complete(90);
        assert_eq!(rec.take_response(), 90);
    }

    #[test]
    fn tombstone_retires_a_post_without_applying_it() {
        let rec: PubRecord<u32, u32> = PubRecord::new();
        let op = 5u32;
        // SAFETY: `op` outlives the protocol run below.
        unsafe { rec.post(&op) };
        assert!(rec.try_tombstone_posted(), "posted record tombstones");
        assert_eq!(rec.state(), RecordState::Tombstone);
        // Terminal for both sides: no claim, no retract.
        assert!(rec.try_claim().is_none(), "tombstone is not claimable");
        assert!(!rec.try_retract(), "tombstone is not retractable");
        // A falsely suspected (live) owner reclaims and reposts.
        rec.reclaim_tombstone();
        assert_eq!(rec.state(), RecordState::Empty);
        // SAFETY: as above.
        unsafe { rec.post(&op) };
        let _ = rec.try_claim().expect("reposted record is claimable");
        rec.complete(50);
        assert_eq!(rec.take_response(), 50);
    }

    #[test]
    fn tombstone_loses_the_race_to_a_claim_or_retract() {
        let rec: PubRecord<u32, u32> = PubRecord::new();
        let op = 3u32;
        // Claimed first: tombstone must fail (the op will be applied
        // exactly once by the claimer).
        // SAFETY: `op` outlives the protocol run below.
        unsafe { rec.post(&op) };
        let _ = rec.try_claim().expect("claimable");
        assert!(!rec.try_tombstone_posted(), "claimed record survives");
        rec.complete(30);
        assert_eq!(rec.take_response(), 30);
        // Retracted first: nothing left to tombstone.
        // SAFETY: as above.
        unsafe { rec.post(&op) };
        assert!(rec.try_retract());
        assert!(!rec.try_tombstone_posted(), "empty record survives");
        assert_eq!(rec.state(), RecordState::Empty);
    }

    #[test]
    #[should_panic(expected = "untombstoned")]
    fn reclaim_tombstone_on_live_record_is_a_protocol_violation() {
        let rec: PubRecord<u32, u32> = PubRecord::new();
        rec.reclaim_tombstone();
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn double_post_is_a_protocol_violation() {
        let rec: PubRecord<u32, u32> = PubRecord::new();
        let op = 1u32;
        // SAFETY: `op` outlives both calls.
        unsafe {
            rec.post(&op);
            rec.post(&op);
        }
    }

    #[test]
    fn helper_stamp_rides_the_done_transition() {
        let rec: PubRecord<u32, u32> = PubRecord::new();
        assert_eq!(rec.helper(), NO_HELPER, "fresh record has no helper");
        let op = 4u32;
        // SAFETY: `op` outlives the protocol run below.
        unsafe { rec.post(&op) };
        let _ = rec.try_claim().expect("claimable");
        rec.stamp_helper(7);
        rec.complete(40);
        assert_eq!(rec.state(), RecordState::Done);
        assert_eq!(rec.helper(), 7, "owner reads the combiner's stamp");
        assert_eq!(rec.take_response(), 40);
    }

    #[test]
    fn cross_thread_handoff_delivers_the_response() {
        let rec: PubRecord<u64, u64> = PubRecord::new();
        let op = 21u64;
        // SAFETY: the scope below joins before `op` (and `rec`) drop.
        unsafe { rec.post(&op) };
        std::thread::scope(|s| {
            s.spawn(|| {
                // Combiner: spin until the post is visible, then serve.
                loop {
                    if let Some(ptr) = rec.try_claim() {
                        // SAFETY: the claim licenses the dereference.
                        let doubled = unsafe { *ptr } * 2;
                        rec.complete(doubled);
                        break;
                    }
                    std::hint::spin_loop();
                }
            });
            // Owner: local spin for the terminal state.
            loop {
                if rec.state() == RecordState::Done {
                    assert_eq!(rec.take_response(), 42);
                    break;
                }
                std::hint::spin_loop();
            }
        });
    }
}
