//! The abortable bounded FIFO queue (Figure-1 methodology).
//!
//! Register layout (mirroring the stack's, see the crate docs):
//!
//! * `HEAD = ⟨dcount⟩` — the monotone count of completed dequeues;
//!   the counter doubles as the ABA tag.
//! * `TAIL = ⟨ecount, value, sn⟩` — the monotone count of completed
//!   enqueues, the most recently enqueued value, and the sequence
//!   number of its *pending* lazy slot write.
//! * `RING[0..k]` — `⟨val, sn⟩` slots; element number `j` (1-based)
//!   lives in slot `j mod k`, so `k` must be a power of two for the
//!   mapping to stay consistent across the 16-bit counter wrap.
//!
//! Invariant (the queue analogue of the stack's): **the only possibly
//! stale slot is `RING[TAIL.ecount mod k]`**; every operation helps
//! finish that write before relying on slot contents.
//!
//! Linearization points of non-aborted operations:
//!
//! * `enqueue` → its successful `TAIL.C&S`;
//! * `dequeue` → its successful `HEAD.C&S`;
//! * `Full` → the read of `HEAD` (validated by re-reading `TAIL`
//!   unchanged);
//! * `Empty` → the read of `TAIL` (validated by re-reading `HEAD`
//!   unchanged).
//!
//! Because enqueue CASes only `TAIL` and dequeue only `HEAD`, the two
//! operation kinds never abort each other — the paper's §1.1
//! "non-interfering operations" example, realized.

use std::marker::PhantomData;

use cso_core::{Abortable, Aborted};
use cso_memory::bits::Bits32;
use cso_memory::fail_point;
use cso_memory::mode::{self, Armed, Mode, Quiet};
use cso_memory::packed::{HeadWord, SlotWord, TailWord};
use cso_memory::reg::Reg64;
use cso_memory::Stripes;
use cso_trace::{probe, probe_if, Event};

use crate::outcome::{DequeueOutcome, EnqueueOutcome, QueueOp, QueueResponse};

/// Abort/attempt counters (diagnostics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueAbortStats {
    /// `weak_enqueue` invocations.
    pub enq_attempts: u64,
    /// `weak_enqueue` invocations that returned ⊥.
    pub enq_aborts: u64,
    /// `weak_dequeue` invocations.
    pub deq_attempts: u64,
    /// `weak_dequeue` invocations that returned ⊥.
    pub deq_aborts: u64,
}

impl QueueAbortStats {
    /// Fraction of all attempts that aborted (0.0 when idle).
    #[must_use]
    pub fn abort_rate(&self) -> f64 {
        let attempts = self.enq_attempts + self.deq_attempts;
        if attempts == 0 {
            0.0
        } else {
            (self.enq_aborts + self.deq_aborts) as f64 / attempts as f64
        }
    }
}

/// An **abortable bounded FIFO queue** built with the paper's
/// register discipline (lazy authority register + helping + sequence
/// numbers). See the module docs for the construction.
///
/// Executed solo, `weak_enqueue`/`weak_dequeue` always return a
/// definitive outcome in exactly **six** shared-memory accesses; under
/// contention with a *same-end* operation they may return ⊥
/// ([`Aborted`]) with no effect.
///
/// ```
/// use cso_queue::{AbortableQueue, EnqueueOutcome, DequeueOutcome};
///
/// let queue: AbortableQueue<u32> = AbortableQueue::new(8);
/// assert_eq!(queue.weak_enqueue(1), Ok(EnqueueOutcome::Enqueued));
/// assert_eq!(queue.weak_enqueue(2), Ok(EnqueueOutcome::Enqueued));
/// assert_eq!(queue.weak_dequeue(), Ok(DequeueOutcome::Dequeued(1)));
/// ```
#[derive(Debug)]
pub struct AbortableQueue<V> {
    head: Reg64,
    tail: Reg64,
    ring: Box<[Reg64]>,
    /// Diagnostics, indexed by the constants below.
    stats: Stripes<4>,
    _values: PhantomData<V>,
}

const ENQ_ATTEMPTS: usize = 0;
const ENQ_ABORTS: usize = 1;
const DEQ_ATTEMPTS: usize = 2;
const DEQ_ABORTS: usize = 3;

const BOTTOM: u32 = 0;

impl<V: Bits32> AbortableQueue<V> {
    /// Creates an empty queue of capacity `capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0, not a power of two, or larger than
    /// 2¹⁵ (so `size = ecount − dcount` stays unambiguous within the
    /// 16-bit counters).
    #[must_use]
    pub fn new(capacity: usize) -> AbortableQueue<V> {
        assert!(capacity > 0, "queue capacity must be positive");
        assert!(
            capacity.is_power_of_two(),
            "queue capacity must be a power of two"
        );
        assert!(capacity <= 1 << 15, "queue capacity must be at most 2^15");
        let ring = (0..capacity)
            .map(|x| {
                // Slot 0 starts one sequence step behind (the stack's
                // `⟨⊥, −1⟩` trick) so the very first help is a no-op
                // rewrite of the dummy word.
                let seq = if x == 0 { u16::MAX } else { 0 };
                Reg64::new(SlotWord { value: BOTTOM, seq }.pack())
            })
            .collect();
        AbortableQueue {
            head: Reg64::new(HeadWord { count: 0 }.pack()),
            tail: Reg64::new(
                TailWord {
                    count: 0,
                    seq: 0,
                    value: BOTTOM,
                }
                .pack(),
            ),
            ring,
            stats: Stripes::new(),
            _values: PhantomData,
        }
    }

    /// The capacity fixed at construction.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.ring.len()
    }

    /// Racy size snapshot: the size at the instant `TAIL` was read,
    /// so never more than [`AbortableQueue::capacity`] (three shared
    /// accesses when no dequeue races the read).
    #[must_use]
    pub fn len(&self) -> usize {
        self.snapshot_len(Reg64::read)
    }

    /// [`AbortableQueue::len`] through **uncounted**
    /// [`Reg64::peek`]s: the same consistent snapshot at none of the
    /// access budget. For callers that only steer by it (the shard
    /// router's probe order) and re-validate with a real operation.
    #[inline]
    #[must_use]
    pub fn peek_len(&self) -> usize {
        self.snapshot_len(Reg64::peek)
    }

    /// `HEAD`, `TAIL`, `HEAD` again: when the two `HEAD` reads agree,
    /// `HEAD` held that count while `TAIL` was loaded, and the
    /// difference is the true size at that instant. A `TAIL` paired
    /// with a `HEAD` of another instant is not a size at all: dequeues
    /// that pass it make the 16-bit difference wrap. Retries are
    /// bounded, so a stream of dequeues cannot starve a reader; giving
    /// up pairs `TAIL` with the `HEAD` read *before* it, which can
    /// only overestimate, and the clamp bounds that.
    #[inline]
    fn snapshot_len(&self, load: impl Fn(&Reg64) -> u64) -> usize {
        const RETRIES: usize = 8;
        let mut head = HeadWord::unpack(load(&self.head));
        let mut tail = TailWord::unpack(load(&self.tail));
        for _ in 0..RETRIES {
            let again = HeadWord::unpack(load(&self.head));
            if again == head {
                break;
            }
            head = again;
            tail = TailWord::unpack(load(&self.tail));
        }
        usize::from(tail.count.wrapping_sub(head.count)).min(self.capacity())
    }

    /// Racy emptiness snapshot.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn slot_of(&self, element: u16) -> &Reg64 {
        &self.ring[usize::from(element) & (self.ring.len() - 1)]
    }

    /// Finish the pending lazy write of the last enqueue (the queue's
    /// `help`, cf. Figure 1 lines 15–16): write `⟨tail.value,
    /// tail.seq⟩` into the slot of element `tail.count` unless some
    /// helper already did.
    fn help<M: Mode>(&self, tail: TailWord) {
        let slot = self.slot_of(tail.count);
        let current = SlotWord::unpack(slot.read());
        let old = SlotWord {
            value: current.value,
            seq: tail.seq.wrapping_sub(1),
        };
        let new = SlotWord {
            value: tail.value,
            seq: tail.seq,
        };
        probe_if!(
            M => slot.cas(old.pack(), new.pack()),
            Event::HelpingWrite("queue::ring")
        );
    }

    /// Attempts to enqueue `value` once.
    ///
    /// # Errors
    ///
    /// Returns [`Aborted`] (⊥) if a concurrent *enqueue* interfered
    /// (dequeues never abort an enqueue); the queue is unchanged in
    /// that case. Never aborts solo.
    pub fn weak_enqueue(&self, value: V) -> Result<EnqueueOutcome, Aborted> {
        if mode::armed() {
            self.weak_enqueue_as::<Armed>(value)
        } else {
            self.weak_enqueue_as::<Quiet>(value)
        }
    }

    /// [`AbortableQueue::weak_enqueue`] in mode `M` (`Quiet`: no site).
    fn weak_enqueue_as<M: Mode>(&self, value: V) -> Result<EnqueueOutcome, Aborted> {
        self.stats.inc(ENQ_ATTEMPTS);
        fail_point!(M => "queue::enqueue", {
            self.stats.inc(ENQ_ABORTS);
            return Err(Aborted);
        });
        // 1. Read the enqueue authority.
        let tail = TailWord::unpack(self.tail.read());
        // 2-3. Help the previous enqueue's pending slot write.
        self.help::<M>(tail);
        // 4. Read the dequeue count for the full check.
        let head = HeadWord::unpack(self.head.read());
        if tail.count.wrapping_sub(head.count) == self.ring.len() as u16 {
            // Apparently full. Validate that TAIL did not move while
            // we were looking at HEAD: if it did, the check is
            // meaningless — abort (contention); if not, at the instant
            // HEAD was read the size really was k — linearize Full
            // there.
            let revalidated = TailWord::unpack(self.tail.read());
            if revalidated == tail {
                return Ok(EnqueueOutcome::Full);
            }
            self.stats.inc(ENQ_ABORTS);
            return Err(Aborted);
        }
        // 5. Sequence number for the slot our element will occupy.
        let next_element = tail.count.wrapping_add(1);
        let next_slot = SlotWord::unpack(self.slot_of(next_element).read());
        // 6. Publish in TAIL (the slot write is left to the next
        //    operation's help).
        let new_tail = TailWord {
            count: next_element,
            value: value.to_bits(),
            seq: next_slot.seq.wrapping_add(1),
        };
        if self.tail.cas(tail.pack(), new_tail.pack()) {
            Ok(EnqueueOutcome::Enqueued)
        } else {
            self.stats.inc(ENQ_ABORTS);
            probe!(M => Event::CasFail("queue::tail"));
            Err(Aborted)
        }
    }

    /// Attempts to dequeue once.
    ///
    /// # Errors
    ///
    /// Returns [`Aborted`] (⊥) if a concurrent *dequeue* interfered
    /// (enqueues never abort a dequeue); the queue is unchanged in
    /// that case. Never aborts solo.
    pub fn weak_dequeue(&self) -> Result<DequeueOutcome<V>, Aborted> {
        if mode::armed() {
            self.weak_dequeue_as::<Armed>()
        } else {
            self.weak_dequeue_as::<Quiet>()
        }
    }

    /// [`AbortableQueue::weak_dequeue`] in mode `M` (`Quiet`: no site).
    fn weak_dequeue_as<M: Mode>(&self) -> Result<DequeueOutcome<V>, Aborted> {
        self.stats.inc(DEQ_ATTEMPTS);
        fail_point!(M => "queue::dequeue", {
            self.stats.inc(DEQ_ABORTS);
            return Err(Aborted);
        });
        // 1. Read the dequeue authority.
        let head = HeadWord::unpack(self.head.read());
        // 2. Read the enqueue authority (for emptiness and helping).
        let tail = TailWord::unpack(self.tail.read());
        // 3-4. Help: after this, every slot in (head, tail] is final.
        self.help::<M>(tail);
        if head.count == tail.count {
            // Apparently empty. Validate HEAD unchanged: then at the
            // instant TAIL was read the size really was 0 — linearize
            // Empty there.
            let revalidated = HeadWord::unpack(self.head.read());
            if revalidated == head {
                return Ok(DequeueOutcome::Empty);
            }
            self.stats.inc(DEQ_ABORTS);
            return Err(Aborted);
        }
        // 5. Read our element's slot. It is final: if it is the newest
        //    element we just helped it; otherwise the enqueue of the
        //    element after it helped it before completing.
        let element = head.count.wrapping_add(1);
        let slot = SlotWord::unpack(self.slot_of(element).read());
        // 6. Claim the element by advancing HEAD. Success implies HEAD
        //    was unchanged since step 1, so `slot` really was the word
        //    of element `head.count + 1`.
        let new_head = HeadWord { count: element };
        if self.head.cas(head.pack(), new_head.pack()) {
            Ok(DequeueOutcome::Dequeued(V::from_bits(slot.value)))
        } else {
            self.stats.inc(DEQ_ABORTS);
            probe!(M => Event::CasFail("queue::head"));
            Err(Aborted)
        }
    }

    /// Snapshot of the attempt/abort counters.
    pub fn abort_stats(&self) -> QueueAbortStats {
        let [enq_attempts, enq_aborts, deq_attempts, deq_aborts] = self.stats.snapshot();
        QueueAbortStats {
            enq_attempts,
            enq_aborts,
            deq_attempts,
            deq_aborts,
        }
    }

    /// Restarts the attempt/abort counters from zero. A baseline
    /// snapshot, not a store: the counters are single-writer stripes
    /// other threads may be updating, so the reset records the current
    /// sums and [`AbortableQueue::abort_stats`] reports the difference.
    /// An attempt racing the reset is counted on one side of it or the
    /// other, never lost.
    pub fn reset_abort_stats(&self) {
        self.stats.reset();
    }
}

impl<V: Bits32> Abortable for AbortableQueue<V> {
    type Op = QueueOp<V>;
    type Response = QueueResponse<V>;

    fn try_apply(&self, op: &QueueOp<V>) -> Result<QueueResponse<V>, Aborted> {
        if mode::armed() {
            self.try_apply_as::<Armed>(op)
        } else {
            self.try_apply_as::<Quiet>(op)
        }
    }

    #[inline(always)]
    fn try_apply_as<M: Mode>(&self, op: &QueueOp<V>) -> Result<QueueResponse<V>, Aborted> {
        match op {
            QueueOp::Enqueue(v) => self.weak_enqueue_as::<M>(*v).map(QueueResponse::Enqueue),
            QueueOp::Dequeue => self.weak_dequeue_as::<M>().map(QueueResponse::Dequeue),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cso_memory::backoff::XorShift64;
    use cso_memory::counting::CountScope;

    #[test]
    fn fifo_order_solo() {
        let queue: AbortableQueue<u32> = AbortableQueue::new(8);
        for v in 1..=5 {
            assert_eq!(queue.weak_enqueue(v), Ok(EnqueueOutcome::Enqueued));
        }
        for v in 1..=5 {
            assert_eq!(queue.weak_dequeue(), Ok(DequeueOutcome::Dequeued(v)));
        }
        assert_eq!(queue.weak_dequeue(), Ok(DequeueOutcome::Empty));
    }

    #[test]
    fn full_and_empty_are_definitive() {
        let queue: AbortableQueue<u32> = AbortableQueue::new(2);
        assert_eq!(queue.weak_dequeue(), Ok(DequeueOutcome::Empty));
        assert_eq!(queue.weak_enqueue(1), Ok(EnqueueOutcome::Enqueued));
        assert_eq!(queue.weak_enqueue(2), Ok(EnqueueOutcome::Enqueued));
        assert_eq!(queue.weak_enqueue(3), Ok(EnqueueOutcome::Full));
        assert_eq!(queue.weak_dequeue(), Ok(DequeueOutcome::Dequeued(1)));
        // Space again after a dequeue.
        assert_eq!(queue.weak_enqueue(3), Ok(EnqueueOutcome::Enqueued));
    }

    #[test]
    fn solo_enqueue_is_exactly_six_accesses() {
        let queue: AbortableQueue<u32> = AbortableQueue::new(64);
        let scope = CountScope::start();
        queue.weak_enqueue(1).unwrap();
        let c = scope.take();
        assert_eq!(c.total(), 6, "solo enqueue: got {c}");
    }

    #[test]
    fn solo_dequeue_is_exactly_six_accesses() {
        let queue: AbortableQueue<u32> = AbortableQueue::new(64);
        queue.weak_enqueue(1).unwrap();
        let scope = CountScope::start();
        queue.weak_dequeue().unwrap();
        let c = scope.take();
        assert_eq!(c.total(), 6, "solo dequeue: got {c}");
    }

    #[test]
    fn ring_wraps_many_times() {
        let queue: AbortableQueue<u32> = AbortableQueue::new(4);
        // Cycle far past the 16-bit counter wrap to exercise both the
        // ring mapping and the wrapping arithmetic.
        for round in 0..100_000u32 {
            assert_eq!(queue.weak_enqueue(round), Ok(EnqueueOutcome::Enqueued));
            assert_eq!(queue.weak_dequeue(), Ok(DequeueOutcome::Dequeued(round)));
        }
        assert_eq!(queue.abort_stats().abort_rate(), 0.0, "solo never aborts");
    }

    #[test]
    fn len_tracks_quiescent_size() {
        let queue: AbortableQueue<u32> = AbortableQueue::new(8);
        assert!(queue.is_empty());
        queue.weak_enqueue(1).unwrap();
        queue.weak_enqueue(2).unwrap();
        assert_eq!(queue.len(), 2);
        queue.weak_dequeue().unwrap();
        assert_eq!(queue.len(), 1);
        assert_eq!(queue.capacity(), 8);
    }

    #[test]
    fn abortable_trait_round_trips() {
        let queue: AbortableQueue<u32> = AbortableQueue::new(4);
        assert_eq!(
            queue
                .try_apply(&QueueOp::Enqueue(9))
                .unwrap()
                .expect_enqueue(),
            EnqueueOutcome::Enqueued
        );
        assert_eq!(
            queue.try_apply(&QueueOp::Dequeue).unwrap().expect_dequeue(),
            DequeueOutcome::Dequeued(9)
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_capacity_panics() {
        let _ = AbortableQueue::<u32>::new(6);
    }

    #[test]
    #[should_panic(expected = "at most 2^15")]
    fn oversized_capacity_panics() {
        let _ = AbortableQueue::<u32>::new(1 << 16);
    }

    /// The non-interference property: one enqueuer and one dequeuer
    /// hammering a *pre-filled* queue never abort each other.
    #[test]
    fn enqueue_and_dequeue_do_not_interfere() {
        use std::sync::Arc;
        const OPS: u32 = 30_000;
        let queue: Arc<AbortableQueue<u32>> = Arc::new(AbortableQueue::new(1024));
        // Pre-fill to half.
        for v in 0..512 {
            queue.weak_enqueue(v).unwrap();
        }
        // One enqueuer + one dequeuer: opposite-end operations must
        // never abort each other (they may legitimately observe
        // Full/Empty when one side runs ahead — those are definitive
        // answers, not aborts).
        let enqueuer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                let mut done = 0;
                while done < OPS {
                    match queue.weak_enqueue(done) {
                        Ok(EnqueueOutcome::Enqueued) => done += 1,
                        Ok(EnqueueOutcome::Full) => std::thread::yield_now(),
                        Err(Aborted) => panic!("an enqueue can only be aborted by an enqueue"),
                    }
                }
            })
        };
        let dequeuer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                let mut done = 0;
                while done < OPS {
                    match queue.weak_dequeue() {
                        Ok(DequeueOutcome::Dequeued(_)) => done += 1,
                        Ok(DequeueOutcome::Empty) => std::thread::yield_now(),
                        Err(Aborted) => panic!("a dequeue can only be aborted by a dequeue"),
                    }
                }
            })
        };
        enqueuer.join().unwrap();
        dequeuer.join().unwrap();
        assert_eq!(queue.len(), 512);
        assert_eq!(queue.abort_stats().abort_rate(), 0.0);
    }

    /// Concurrent same-end operations abort but conserve values.
    #[test]
    fn concurrent_weak_ops_conserve_values() {
        use std::collections::HashSet;
        use std::sync::{Arc, Mutex};
        const THREADS: usize = 4;
        const PER_THREAD: u32 = 1_500;

        let queue: Arc<AbortableQueue<u32>> = Arc::new(AbortableQueue::new(16_384));
        let taken = Arc::new(Mutex::new(Vec::<u32>::new()));

        let handles: Vec<_> = (0..THREADS as u32)
            .map(|t| {
                let queue = Arc::clone(&queue);
                let taken = Arc::clone(&taken);
                std::thread::spawn(move || {
                    let mut mine = Vec::new();
                    for i in 0..PER_THREAD {
                        let v = t * PER_THREAD + i;
                        loop {
                            match queue.weak_enqueue(v) {
                                Ok(EnqueueOutcome::Enqueued) => break,
                                Ok(EnqueueOutcome::Full) => panic!("cannot be full"),
                                Err(Aborted) => std::thread::yield_now(),
                            }
                        }
                        loop {
                            match queue.weak_dequeue() {
                                Ok(DequeueOutcome::Dequeued(v)) => {
                                    mine.push(v);
                                    break;
                                }
                                Ok(DequeueOutcome::Empty) => break,
                                Err(Aborted) => std::thread::yield_now(),
                            }
                        }
                    }
                    taken.lock().unwrap().extend(mine);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut all = taken.lock().unwrap().clone();
        loop {
            match queue.weak_dequeue() {
                Ok(DequeueOutcome::Dequeued(v)) => all.push(v),
                Ok(DequeueOutcome::Empty) => break,
                Err(Aborted) => unreachable!("solo drain"),
            }
        }
        assert_eq!(all.len(), THREADS * PER_THREAD as usize);
        let distinct: HashSet<u32> = all.iter().copied().collect();
        assert_eq!(distinct.len(), all.len());
    }

    /// Solo differential test against a VecDeque reference, over
    /// randomized operation sequences.
    #[test]
    fn random_ops_match_sequential_spec() {
        use std::collections::VecDeque;
        let mut rng = XorShift64::new(0xF1F0_0FFE);
        for _ in 0..256u64 {
            let queue: AbortableQueue<u16> = AbortableQueue::new(16);
            let mut reference: VecDeque<u16> = VecDeque::new();
            let len = (rng.next_u64() % 200) as usize;
            for _ in 0..len {
                let word = rng.next_u64();
                if word & 1 == 0 {
                    let v = (word >> 1) as u16;
                    let got = queue.weak_enqueue(v).expect("solo never aborts");
                    let want = if reference.len() == 16 {
                        EnqueueOutcome::Full
                    } else {
                        reference.push_back(v);
                        EnqueueOutcome::Enqueued
                    };
                    assert_eq!(got, want);
                } else {
                    let got = queue.weak_dequeue().expect("solo never aborts");
                    let want = match reference.pop_front() {
                        Some(v) => DequeueOutcome::Dequeued(v),
                        None => DequeueOutcome::Empty,
                    };
                    assert_eq!(got, want);
                }
            }
            assert_eq!(queue.len(), reference.len());
        }
    }
}
