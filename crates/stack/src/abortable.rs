//! Figure 1: the abortable array-based stack.
//!
//! A faithful transcription of the paper's Figure 1 (itself a
//! simplified version of Shafiei's non-blocking array stack, paper
//! ref \[22\]). Line numbers in the code comments refer to the figure.

use std::marker::PhantomData;

use cso_core::{Abortable, Aborted};
use cso_memory::combining::{CachePadded, NO_HELPER};
use cso_memory::exchange::Exchanger;
use cso_memory::fail_point;
use cso_memory::mode::{self, Armed, Mode, Quiet};
use cso_memory::packed::{SlotWord, TopWord};
use cso_memory::reg::Reg64;
use cso_memory::Stripes;
use cso_trace::{probe, probe_if, Event};

use crate::outcome::{PopOutcome, PushOutcome, StackOp, StackResponse};
use crate::value::StackValue;

/// Abort/attempt counters for experiment E2 (kept in per-thread
/// [`Stripes`] — they are diagnostics, not part of the algorithm's
/// shared-memory footprint, and cost no locked instruction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AbortStats {
    /// `weak_push` invocations.
    pub push_attempts: u64,
    /// `weak_push` invocations that returned ⊥.
    pub push_aborts: u64,
    /// `weak_pop` invocations.
    pub pop_attempts: u64,
    /// `weak_pop` invocations that returned ⊥.
    pub pop_aborts: u64,
}

impl AbortStats {
    /// Fraction of all attempts that aborted (0.0 when idle).
    #[must_use]
    pub fn abort_rate(&self) -> f64 {
        let attempts = self.push_attempts + self.pop_attempts;
        if attempts == 0 {
            0.0
        } else {
            (self.push_aborts + self.pop_aborts) as f64 / attempts as f64
        }
    }
}

/// The paper's **abortable stack** (Figure 1).
///
/// Two registers implement the stack of capacity `k`:
///
/// * `TOP` — a `⟨index, value, seqnb⟩` triple naming the top entry,
///   its value, and the sequence number of the *pending* write of
///   `STACK[index]`;
/// * `STACK[0..k]` — `⟨val, sn⟩` pairs; `STACK\[0\]` is a dummy entry
///   for the empty stack.
///
/// The implementation is *lazy*: a successful operation installs its
/// result in `TOP` only and leaves the matching `STACK[index]` write
/// to the **next** operation (the `help` procedure, lines 15–16). The
/// per-slot sequence numbers make helping idempotent and defeat the
/// ABA problem (§2.2).
///
/// Both operations are **abortable**: executed solo they always return
/// a definitive outcome ([`PushOutcome`]/[`PopOutcome`]), and under
/// contention they may return ⊥ ([`Aborted`]) *with no effect* —
/// exactly one `TOP.C&S` decides each state change.
///
/// A solo `weak_push`/`weak_pop` performs exactly **five** shared
/// memory accesses (read `TOP`; the two accesses of `help`; read the
/// neighbour slot; `C&S` on `TOP`) — the building block of Theorem 1's
/// six-access bound.
///
/// ```
/// use cso_stack::{AbortableStack, PushOutcome, PopOutcome};
///
/// let stack: AbortableStack<u32> = AbortableStack::new(8);
/// assert_eq!(stack.weak_push(5), Ok(PushOutcome::Pushed)); // solo: never ⊥
/// assert_eq!(stack.weak_pop(), Ok(PopOutcome::Popped(5)));
/// assert_eq!(stack.weak_pop(), Ok(PopOutcome::Empty));
/// ```
#[derive(Debug)]
pub struct AbortableStack<V> {
    /// The `TOP` register — every operation's decisive `C&S` lands
    /// here, so it gets its own cache line: without the padding, the
    /// adjacent `STACK[..]` slots (helped lazily by *other*
    /// operations) would false-share with the hottest word in the
    /// structure.
    top: CachePadded<Reg64>,
    /// `STACK[0..k]`: entry 0 is the dummy; capacity is `len - 1`.
    slots: Box<[Reg64]>,
    /// Rendezvous slots for the escalation ladder's elimination rung
    /// ([`Abortable::try_eliminate`]): inverse push/pop pairs exchange
    /// values here without touching `TOP` at all.
    exchanger: Exchanger<u32>,
    /// Diagnostics (not shared-memory accesses), indexed by the
    /// constants below.
    stats: Stripes<4>,
    _values: PhantomData<V>,
}

const PUSH_ATTEMPTS: usize = 0;
const PUSH_ABORTS: usize = 1;
const POP_ATTEMPTS: usize = 2;
const POP_ABORTS: usize = 3;

/// The dummy value stored below the stack bottom (never observed by
/// users: popping at index 0 returns `Empty` before reading it).
const BOTTOM: u32 = 0;

/// Rendezvous slots in the elimination exchanger. Small and fixed: one
/// pairing per slot at a time is plenty below ~16 threads, and the
/// ladder falls through to the lock anyway when slots are contended.
const ELIM_SLOTS: usize = 4;

impl<V: StackValue> AbortableStack<V> {
    /// Creates an empty stack of capacity `capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 or exceeds `u16::MAX - 1` (the index
    /// field of the packed `TOP` register is 16 bits).
    #[must_use]
    pub fn new(capacity: usize) -> AbortableStack<V> {
        assert!(capacity > 0, "stack capacity must be positive");
        assert!(
            capacity < usize::from(u16::MAX),
            "stack capacity must fit the 16-bit index field"
        );
        // TOP ← ⟨0, ⊥, 0⟩; STACK[0] ← ⟨⊥, −1⟩ (so the very first help,
        // with seqnb = 0, finds old = ⟨⊥, −1⟩ and idempotently
        // rewrites the dummy); STACK[1..k] ← ⟨⊥, 0⟩.
        let top = Reg64::new(
            TopWord {
                index: 0,
                seq: 0,
                value: BOTTOM,
            }
            .pack(),
        );
        let slots = (0..=capacity)
            .map(|x| {
                let seq = if x == 0 { u16::MAX } else { 0 };
                Reg64::new(SlotWord { value: BOTTOM, seq }.pack())
            })
            .collect();
        AbortableStack {
            top: CachePadded::new(top),
            slots,
            exchanger: Exchanger::new(ELIM_SLOTS),
            stats: Stripes::new(),
            _values: PhantomData,
        }
    }

    /// The capacity `k` fixed at construction.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len() - 1
    }

    /// A racy snapshot of the current size (the `index` field of
    /// `TOP`). Exact only in a quiescent state.
    ///
    /// Note: this performs one (counted) shared-memory access.
    #[must_use]
    pub fn len(&self) -> usize {
        usize::from(TopWord::unpack(self.top.read()).index)
    }

    /// Racy emptiness snapshot; see [`AbortableStack::len`].
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// [`AbortableStack::len`] through an **uncounted**
    /// [`Reg64::peek`]: the size at the instant of the load, at none
    /// of the paper's access budget. For callers that only steer by
    /// it (the shard router's probe order) and re-validate with a real
    /// operation.
    #[inline]
    #[must_use]
    pub fn peek_len(&self) -> usize {
        usize::from(TopWord::unpack(self.top.peek()).index)
    }

    /// `help(index, value, seqnb)` — lines 15–16: finish the pending
    /// lazy write of the previous successful operation.
    ///
    /// The previous operation required `⟨value, seqnb⟩` to be written
    /// into `STACK[index]`; do it with a `C&S` so it happens at most
    /// once (if some other helper already did it, the slot's sequence
    /// number has moved past `seqnb − 1` and our `C&S` fails,
    /// harmlessly).
    fn help<M: Mode>(&self, top: TopWord) {
        let slot = &self.slots[usize::from(top.index)];
        // Line 15: stacktop ← STACK[index].val.
        let current = SlotWord::unpack(slot.read());
        // Line 16: STACK[index].C&S(⟨stacktop, seqnb − 1⟩, ⟨value, seqnb⟩).
        let old = SlotWord {
            value: current.value,
            seq: top.seq.wrapping_sub(1),
        };
        let new = SlotWord {
            value: top.value,
            seq: top.seq,
        };
        probe_if!(
            M => slot.cas(old.pack(), new.pack()),
            Event::HelpingWrite("stack::slot")
        );
    }

    /// `weak_push(v)` — lines 01–07.
    ///
    /// # Errors
    ///
    /// Returns [`Aborted`] (⊥) if a concurrent operation changed `TOP`
    /// between lines 01 and 06; the stack is unchanged in that case.
    /// Never aborts in a contention-free execution.
    pub fn weak_push(&self, value: V) -> Result<PushOutcome, Aborted> {
        if mode::armed() {
            self.weak_push_as::<Armed>(value)
        } else {
            self.weak_push_as::<Quiet>(value)
        }
    }

    /// [`AbortableStack::weak_push`] in mode `M` (`Quiet`: no site).
    fn weak_push_as<M: Mode>(&self, value: V) -> Result<PushOutcome, Aborted> {
        self.stats.inc(PUSH_ATTEMPTS);
        fail_point!(M => "stack::push", {
            self.stats.inc(PUSH_ABORTS);
            return Err(Aborted);
        });
        // Line 01: (index, value, seqnb) ← TOP.
        let observed = TopWord::unpack(self.top.read());
        // Line 02: help the previous operation's pending write.
        self.help::<M>(observed);
        // Line 03: full?
        if usize::from(observed.index) == self.capacity() {
            return Ok(PushOutcome::Full);
        }
        // Line 04: sn_of_next ← STACK[index + 1].sn.
        let next_slot = SlotWord::unpack(self.slots[usize::from(observed.index) + 1].read());
        // Line 05: newtop ← ⟨index + 1, v, sn_of_next + 1⟩.
        let newtop = TopWord {
            index: observed.index + 1,
            value: value.to_bits(),
            seq: next_slot.seq.wrapping_add(1),
        };
        // Lines 06–07: register the push in TOP, or abort. The
        // validated CAS peeks (uncounted) first: a doomed C&S on a
        // diverged TOP costs an exclusive cache-line acquisition for
        // nothing, while solo the validation always passes and the
        // counted cost is identical (pinned by the five-access tests).
        if self.top.cas_validated(observed.pack(), newtop.pack()) {
            Ok(PushOutcome::Pushed)
        } else {
            self.stats.inc(PUSH_ABORTS);
            probe!(M => Event::CasFail("stack::top"));
            Err(Aborted)
        }
    }

    /// `weak_pop()` — lines 08–14.
    ///
    /// # Errors
    ///
    /// Returns [`Aborted`] (⊥) if a concurrent operation changed `TOP`
    /// between lines 08 and 13; the stack is unchanged in that case.
    /// Never aborts in a contention-free execution.
    pub fn weak_pop(&self) -> Result<PopOutcome<V>, Aborted> {
        if mode::armed() {
            self.weak_pop_as::<Armed>()
        } else {
            self.weak_pop_as::<Quiet>()
        }
    }

    /// [`AbortableStack::weak_pop`] in mode `M` (`Quiet`: no site).
    fn weak_pop_as<M: Mode>(&self) -> Result<PopOutcome<V>, Aborted> {
        self.stats.inc(POP_ATTEMPTS);
        fail_point!(M => "stack::pop", {
            self.stats.inc(POP_ABORTS);
            return Err(Aborted);
        });
        // Line 08: (index, value, seqnb) ← TOP.
        let observed = TopWord::unpack(self.top.read());
        // Line 09: help the previous operation's pending write.
        self.help::<M>(observed);
        // Line 10: empty?
        if observed.index == 0 {
            return Ok(PopOutcome::Empty);
        }
        // Line 11: belowtop ← STACK[index − 1]. (That slot is final:
        // the only possibly-stale slot is STACK[index], which help
        // just fixed.)
        let below = SlotWord::unpack(self.slots[usize::from(observed.index) - 1].read());
        // Line 12: newtop ← ⟨index − 1, belowtop.val, belowtop.sn + 1⟩.
        let newtop = TopWord {
            index: observed.index - 1,
            value: below.value,
            seq: below.seq.wrapping_add(1),
        };
        // Lines 13–14: register the pop in TOP, or abort (validated
        // C&S — see `weak_push`).
        if self.top.cas_validated(observed.pack(), newtop.pack()) {
            Ok(PopOutcome::Popped(V::from_bits(observed.value)))
        } else {
            self.stats.inc(POP_ABORTS);
            probe!(M => Event::CasFail("stack::top"));
            Err(Aborted)
        }
    }

    /// Snapshot of the attempt/abort counters (experiment E2).
    pub fn abort_stats(&self) -> AbortStats {
        let [push_attempts, push_aborts, pop_attempts, pop_aborts] = self.stats.snapshot();
        AbortStats {
            push_attempts,
            push_aborts,
            pop_attempts,
            pop_aborts,
        }
    }

    /// Restarts the attempt/abort counters from zero. A baseline
    /// snapshot, not a store: the counters are single-writer stripes
    /// other threads may be updating, so the reset records the current
    /// sums and [`AbortableStack::abort_stats`] reports the difference.
    /// An attempt racing the reset is counted on one side of it or the
    /// other, never lost.
    pub fn reset_abort_stats(&self) {
        self.stats.reset();
    }

    /// Push/pop *pairs* completed by elimination rendezvous through
    /// [`Abortable::try_eliminate`] (zero unless an escalation ladder
    /// with `elimination` drives this stack).
    #[must_use]
    pub fn eliminated_pairs(&self) -> u64 {
        self.exchanger.exchanges()
    }
}

/// Plugs the stack into the generic transformations of `cso-core`
/// (Figure 2 / Figure 3 are written over `weak_push_or_pop(par)`).
impl<V: StackValue> Abortable for AbortableStack<V> {
    type Op = StackOp<V>;
    type Response = StackResponse<V>;

    fn try_apply(&self, op: &StackOp<V>) -> Result<StackResponse<V>, Aborted> {
        if mode::armed() {
            self.try_apply_as::<Armed>(op)
        } else {
            self.try_apply_as::<Quiet>(op)
        }
    }

    #[inline(always)]
    fn try_apply_as<M: Mode>(&self, op: &StackOp<V>) -> Result<StackResponse<V>, Aborted> {
        match op {
            StackOp::Push(v) => self.weak_push_as::<M>(*v).map(StackResponse::Push),
            StackOp::Pop => self.weak_pop_as::<M>().map(StackResponse::Pop),
        }
    }

    /// Elimination: an aborted push parks its value in the exchanger;
    /// an aborted pop takes a parked value directly. The pair
    /// linearizes as back-to-back `push(v); pop() → v` at the instant
    /// the taker commits — sound whenever the stack has room for the
    /// transiting value at that instant, which the taker validates
    /// (under the sequential spec the push must be legal; the pop then
    /// trivially is, the stack being momentarily non-empty).
    fn try_eliminate(&self, op: &StackOp<V>, polls: u32) -> Option<StackResponse<V>> {
        match op {
            StackOp::Push(v) => {
                // Quick decline while TOP shows a full stack: the pair
                // could not linearize (its push would have to return
                // Full). The authoritative admission check runs on the
                // taker side; this peek (uncounted) just avoids
                // parking a value no pop may legally take.
                if usize::from(TopWord::unpack(self.top.peek()).index) >= self.capacity() {
                    return None;
                }
                self.exchanger
                    .offer_stamped(v.to_bits(), polls, probe::thread_id())
                    .ok()
                    .map(|partner| {
                        // Causal edge: the taker's stamp names the
                        // thread whose pop absorbed this value.
                        probe_if!(partner != NO_HELPER, Event::HelpedByPartner(partner));
                        StackResponse::Push(PushOutcome::Pushed)
                    })
            }
            StackOp::Pop => self
                .exchanger
                .take_if_stamped(
                    || {
                        // Admission check, evaluated after the partner
                        // is observed parked and before the taking C&S
                        // — an instant inside both operations'
                        // intervals. The pair linearizes here, so
                        // occupancy < capacity must hold *now* for the
                        // eliminated push to be legal.
                        usize::from(TopWord::unpack(self.top.peek()).index) < self.capacity()
                    },
                    probe::thread_id(),
                )
                .map(|(bits, partner)| {
                    // Causal edge: the offeror's stamp names the thread
                    // whose push supplied this value.
                    probe_if!(partner != NO_HELPER, Event::HelpedByPartner(partner));
                    StackResponse::Pop(PopOutcome::Popped(V::from_bits(bits)))
                }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cso_memory::backoff::XorShift64;
    use cso_memory::counting::CountScope;

    #[test]
    fn lifo_order_solo() {
        let stack: AbortableStack<u32> = AbortableStack::new(16);
        for v in 1..=5 {
            assert_eq!(stack.weak_push(v), Ok(PushOutcome::Pushed));
        }
        for v in (1..=5).rev() {
            assert_eq!(stack.weak_pop(), Ok(PopOutcome::Popped(v)));
        }
        assert_eq!(stack.weak_pop(), Ok(PopOutcome::Empty));
    }

    #[test]
    fn full_and_empty_are_definitive_not_aborts() {
        let stack: AbortableStack<u32> = AbortableStack::new(2);
        assert_eq!(stack.weak_pop(), Ok(PopOutcome::Empty));
        assert_eq!(stack.weak_push(1), Ok(PushOutcome::Pushed));
        assert_eq!(stack.weak_push(2), Ok(PushOutcome::Pushed));
        assert_eq!(stack.weak_push(3), Ok(PushOutcome::Full));
        // Full did not clobber anything.
        assert_eq!(stack.weak_pop(), Ok(PopOutcome::Popped(2)));
    }

    #[test]
    fn solo_push_is_exactly_five_accesses() {
        let stack: AbortableStack<u32> = AbortableStack::new(64);
        let scope = CountScope::start();
        stack.weak_push(1).unwrap();
        let c = scope.take();
        assert_eq!(c.total(), 5, "Figure 1 solo push: got {c}");
        assert_eq!((c.reads, c.cas), (3, 2));
    }

    #[test]
    fn solo_pop_is_exactly_five_accesses() {
        let stack: AbortableStack<u32> = AbortableStack::new(64);
        stack.weak_push(1).unwrap();
        let scope = CountScope::start();
        stack.weak_pop().unwrap();
        let c = scope.take();
        assert_eq!(c.total(), 5, "Figure 1 solo pop: got {c}");
    }

    #[test]
    fn empty_pop_is_three_accesses() {
        let stack: AbortableStack<u32> = AbortableStack::new(8);
        let scope = CountScope::start();
        assert_eq!(stack.weak_pop(), Ok(PopOutcome::Empty));
        assert_eq!(scope.take().total(), 3); // read TOP + help (2)
    }

    #[test]
    fn len_tracks_quiescent_size() {
        let stack: AbortableStack<u32> = AbortableStack::new(8);
        assert!(stack.is_empty());
        stack.weak_push(1).unwrap();
        stack.weak_push(2).unwrap();
        assert_eq!(stack.len(), 2);
        stack.weak_pop().unwrap();
        assert_eq!(stack.len(), 1);
        assert_eq!(stack.capacity(), 8);
    }

    #[test]
    fn solo_operations_never_abort_long_run() {
        // The "solo success" half of the abortable contract, run long
        // enough to cycle sequence numbers within slots.
        let stack: AbortableStack<u16> = AbortableStack::new(4);
        for round in 0..10_000u32 {
            let v = (round % 17) as u16;
            assert!(stack.weak_push(v).is_ok());
            assert_eq!(stack.weak_pop(), Ok(PopOutcome::Popped(v)));
        }
        assert_eq!(stack.abort_stats().abort_rate(), 0.0);
    }

    #[test]
    fn abortable_trait_round_trips() {
        let stack: AbortableStack<u32> = AbortableStack::new(4);
        let resp = stack.try_apply(&StackOp::Push(9)).unwrap();
        assert_eq!(resp.expect_push(), PushOutcome::Pushed);
        let resp = stack.try_apply(&StackOp::Pop).unwrap();
        assert_eq!(resp.expect_pop(), PopOutcome::Popped(9));
    }

    #[test]
    fn stats_count_attempts() {
        let stack: AbortableStack<u32> = AbortableStack::new(4);
        stack.weak_push(1).unwrap();
        stack.weak_pop().unwrap();
        stack.weak_pop().unwrap(); // Empty still counts as an attempt
        let stats = stack.abort_stats();
        assert_eq!(stats.push_attempts, 1);
        assert_eq!(stats.pop_attempts, 2);
        assert_eq!(stats.push_aborts + stats.pop_aborts, 0);
        stack.reset_abort_stats();
        assert_eq!(stack.abort_stats(), AbortStats::default());
        stack.weak_push(2).unwrap();
        assert_eq!(
            stack.abort_stats().push_attempts,
            1,
            "counts from the reset on"
        );
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = AbortableStack::<u32>::new(0);
    }

    #[test]
    #[should_panic(expected = "16-bit index")]
    fn oversized_capacity_panics() {
        let _ = AbortableStack::<u32>::new(usize::from(u16::MAX));
    }

    #[test]
    fn top_register_is_cache_padded() {
        use cso_memory::layout::{disjoint, lines_of};
        let stack: AbortableStack<u32> = AbortableStack::new(4);
        let top = lines_of(&stack.top);
        assert_eq!(top.clone().count(), 1, "TOP fills exactly one line");
        // The helped slots live outside TOP's padded line, so lazy
        // helping writes never false-share with the decisive C&S…
        assert!(disjoint(&top, &lines_of(&stack.slots[..])));
        // …nor do the statistics stripes.
        assert!(disjoint(&top, &lines_of(&stack.stats)));
    }

    #[test]
    fn elimination_pairs_exchange_without_touching_top() {
        use std::sync::Arc;
        let stack: Arc<AbortableStack<u32>> = Arc::new(AbortableStack::new(8));
        let offeror = {
            let stack = Arc::clone(&stack);
            std::thread::spawn(move || loop {
                match stack.try_eliminate(&StackOp::Push(42), 10_000) {
                    Some(resp) => return resp,
                    None => std::thread::yield_now(),
                }
            })
        };
        let popped = loop {
            if let Some(resp) = stack.try_eliminate(&StackOp::Pop, 0) {
                break resp;
            }
            std::hint::spin_loop();
        };
        assert_eq!(offeror.join().unwrap().expect_push(), PushOutcome::Pushed);
        assert_eq!(popped.expect_pop(), PopOutcome::Popped(42));
        assert_eq!(stack.eliminated_pairs(), 1);
        assert!(stack.is_empty(), "elimination must not touch the stack");
        // No weak operation ran at all: the rendezvous bypassed TOP.
        assert_eq!(stack.abort_stats(), AbortStats::default());
    }

    /// The causal stamps ride the rendezvous only while the probe
    /// rings are armed (thread ids come from registration order).
    #[test]
    fn eliminated_pair_records_both_partner_edges() {
        use cso_trace::probe;
        use std::sync::Arc;

        let _recording = probe::Recording::start();
        let stack: Arc<AbortableStack<u32>> = Arc::new(AbortableStack::new(8));
        let taker_tid = probe::thread_id();
        let offeror = {
            let stack = Arc::clone(&stack);
            std::thread::spawn(move || loop {
                match stack.try_eliminate(&StackOp::Push(42), 10_000) {
                    Some(_) => return probe::thread_id(),
                    None => std::thread::yield_now(),
                }
            })
        };
        while stack.try_eliminate(&StackOp::Pop, 0).is_none() {
            std::hint::spin_loop();
        }
        let offeror_tid = offeror.join().unwrap();
        // The rings are process-global and other tests emit too; only
        // assert our own edges exist, one on each side's thread.
        let trace = probe::collect();
        let edges: Vec<_> = trace
            .events
            .iter()
            .filter(|e| matches!(e.event, Event::HelpedByPartner(_)))
            .collect();
        assert!(
            edges
                .iter()
                .any(|e| e.thread == taker_tid && e.event == Event::HelpedByPartner(offeror_tid)),
            "the pop must name the offering thread"
        );
        assert!(
            edges
                .iter()
                .any(|e| e.thread == offeror_tid && e.event == Event::HelpedByPartner(taker_tid)),
            "the push must name the taking thread"
        );
    }

    #[test]
    fn taker_admission_rejects_when_stack_is_full() {
        let stack: AbortableStack<u32> = AbortableStack::new(1);
        stack.weak_push(9).unwrap();
        // A full stack pre-declines the offering side outright.
        assert!(stack.try_eliminate(&StackOp::Push(1), 1).is_none());
        // A value parked directly (as if the stack filled after the
        // offeror's peek) must be refused by the taker's admission
        // check: the pair's push could only return Full here.
        std::thread::scope(|s| {
            let parked = s.spawn(|| stack.exchanger.offer(5, 200_000));
            for _ in 0..1_000 {
                assert!(stack.try_eliminate(&StackOp::Pop, 0).is_none());
            }
            assert_eq!(parked.join().unwrap(), Err(5), "no pop may admit it");
        });
        assert_eq!(stack.eliminated_pairs(), 0);
    }

    /// Concurrent aborts leave the stack consistent: every pushed
    /// value is popped exactly once (conservation), even though weak
    /// operations freely abort.
    #[test]
    fn concurrent_weak_ops_conserve_values() {
        use std::collections::HashSet;
        use std::sync::{Arc, Mutex};
        const THREADS: usize = 4;
        const PER_THREAD: u32 = 2_000;

        let stack: Arc<AbortableStack<u32>> = Arc::new(AbortableStack::new(1024));
        let popped = Arc::new(Mutex::new(Vec::<u32>::new()));

        let handles: Vec<_> = (0..THREADS as u32)
            .map(|t| {
                let stack = Arc::clone(&stack);
                let popped = Arc::clone(&popped);
                std::thread::spawn(move || {
                    let mut mine = Vec::new();
                    for i in 0..PER_THREAD {
                        let v = t * PER_THREAD + i;
                        // Retry aborted pushes (Full cannot happen:
                        // capacity ≥ total pushes in flight).
                        loop {
                            match stack.weak_push(v) {
                                Ok(PushOutcome::Pushed) => break,
                                Ok(PushOutcome::Full) => panic!("stack cannot be full"),
                                Err(Aborted) => std::thread::yield_now(),
                            }
                        }
                        // Pop something back (retry ⊥; Empty possible
                        // if others popped our value first — then we
                        // just carry on).
                        loop {
                            match stack.weak_pop() {
                                Ok(PopOutcome::Popped(v)) => {
                                    mine.push(v);
                                    break;
                                }
                                Ok(PopOutcome::Empty) => break,
                                Err(Aborted) => std::thread::yield_now(),
                            }
                        }
                    }
                    popped.lock().unwrap().extend(mine);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        // Drain the remainder.
        let mut remaining = Vec::new();
        loop {
            match stack.weak_pop() {
                Ok(PopOutcome::Popped(v)) => remaining.push(v),
                Ok(PopOutcome::Empty) => break,
                Err(Aborted) => unreachable!("no contention while draining"),
            }
        }
        let mut all = popped.lock().unwrap().clone();
        all.extend(remaining);
        assert_eq!(
            all.len(),
            THREADS * PER_THREAD as usize,
            "every push popped exactly once"
        );
        let distinct: HashSet<u32> = all.iter().copied().collect();
        assert_eq!(distinct.len(), all.len(), "no duplicates");
    }

    /// Solo differential test: the abortable stack agrees with the
    /// sequential reference on randomized operation sequences.
    #[test]
    fn random_ops_match_sequential_spec() {
        let mut rng = XorShift64::new(0xABBA_57AC);
        for case in 0..256u64 {
            let _ = case;
            let stack: AbortableStack<u16> = AbortableStack::new(16);
            let mut reference: Vec<u16> = Vec::new();
            let len = (rng.next_u64() % 200) as usize;
            for _ in 0..len {
                let word = rng.next_u64();
                if word & 1 == 0 {
                    let v = (word >> 1) as u16;
                    let got = stack.weak_push(v).expect("solo never aborts");
                    let want = if reference.len() == 16 {
                        PushOutcome::Full
                    } else {
                        reference.push(v);
                        PushOutcome::Pushed
                    };
                    assert_eq!(got, want);
                } else {
                    let got = stack.weak_pop().expect("solo never aborts");
                    let want = match reference.pop() {
                        Some(v) => PopOutcome::Popped(v),
                        None => PopOutcome::Empty,
                    };
                    assert_eq!(got, want);
                }
            }
            assert_eq!(stack.len(), reference.len());
        }
    }
}
