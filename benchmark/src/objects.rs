//! The product's objects as the harness drives them: every object is a
//! bag with `put` and `take`, called through its public entry points,
//! plus whatever public counters it offers. Nothing here reaches past
//! a crate's `pub` surface.

use cso::deque::CsDeque;
use cso::queue::{AbortableQueue, CsQueue, EnqueueOutcome, NonBlockingQueue};
use cso::shard::ShardedCsStack;
use cso::stack::{AbortableStack, CsStack, NonBlockingStack, PushOutcome};

/// Capacity of every object but the deque.
pub const CAPACITY: usize = 8192;
/// Values every object but the sharded and deque ones starts a round
/// with.
pub const PREFILL: usize = CAPACITY / 2;

/// Public counters of an object, read after the prefill and again
/// after the workers join; the difference is what the workers did.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// `path_stats()`: operations completed, on any path.
    pub completed: u64,
    /// `path_stats().locked`.
    pub locked: u64,
    /// `abort_stats()`: weak-operation attempts and aborts.
    pub attempts: u64,
    pub aborts: u64,
    /// `router_stats()`: operations routed, steals and spills.
    pub routed: u64,
    pub steals: u64,
    pub spills: u64,
}

impl Counts {
    pub fn since(self, before: Counts) -> Counts {
        Counts {
            completed: self.completed - before.completed,
            locked: self.locked - before.locked,
            attempts: self.attempts - before.attempts,
            aborts: self.aborts - before.aborts,
            routed: self.routed - before.routed,
            steals: self.steals - before.steals,
            spills: self.spills - before.spills,
        }
    }

    pub fn add(&mut self, other: Counts) {
        self.completed += other.completed;
        self.locked += other.locked;
        self.attempts += other.attempts;
        self.aborts += other.aborts;
        self.routed += other.routed;
        self.steals += other.steals;
        self.spills += other.spills;
    }
}

/// One object under test.
pub trait Target: Sync {
    /// Span names: the public entry points `put` and `take` call.
    const PUT: &'static str;
    const TAKE: &'static str;
    /// Whether takes return values in put order (enables the
    /// per-producer order check).
    const FIFO: bool = false;

    /// `false` = the object answered `Full` (or aborted).
    fn put(&self, proc: usize, v: u32) -> bool;
    /// `None` = the object answered `Empty` (or aborted).
    fn take(&self, proc: usize) -> Option<u32>;

    /// How many values a round starts with, and over how many process
    /// identities the prefill spreads them.
    fn prefill(&self) -> (usize, usize) {
        (PREFILL, 1)
    }

    fn counts(&self) -> Counts {
        Counts::default()
    }
}

fn cell_counts(stack: &CsStack<u32>) -> Counts {
    let paths = stack.path_stats();
    let aborts = stack.abort_stats();
    Counts {
        completed: paths.total(),
        locked: paths.locked,
        attempts: aborts.push_attempts + aborts.pop_attempts,
        aborts: aborts.push_aborts + aborts.pop_aborts,
        ..Counts::default()
    }
}

impl Target for CsStack<u32> {
    const PUT: &'static str = "CsStack::push";
    const TAKE: &'static str = "CsStack::pop";

    fn put(&self, proc: usize, v: u32) -> bool {
        self.push(proc, v).is_pushed()
    }
    fn take(&self, proc: usize) -> Option<u32> {
        self.pop(proc).into_option()
    }
    fn counts(&self) -> Counts {
        cell_counts(self)
    }
}

impl Target for AbortableStack<u32> {
    const PUT: &'static str = "AbortableStack::weak_push";
    const TAKE: &'static str = "AbortableStack::weak_pop";

    fn put(&self, _proc: usize, v: u32) -> bool {
        matches!(self.weak_push(v), Ok(PushOutcome::Pushed))
    }
    fn take(&self, _proc: usize) -> Option<u32> {
        self.weak_pop().ok().and_then(|popped| popped.into_option())
    }
}

impl Target for NonBlockingStack<u32> {
    const PUT: &'static str = "NonBlockingStack::push";
    const TAKE: &'static str = "NonBlockingStack::pop";

    fn put(&self, _proc: usize, v: u32) -> bool {
        self.push(v).is_pushed()
    }
    fn take(&self, _proc: usize) -> Option<u32> {
        self.pop().into_option()
    }
}

impl Target for CsQueue<u32> {
    const PUT: &'static str = "CsQueue::enqueue";
    const TAKE: &'static str = "CsQueue::dequeue";
    const FIFO: bool = true;

    fn put(&self, proc: usize, v: u32) -> bool {
        self.enqueue(proc, v).is_enqueued()
    }
    fn take(&self, proc: usize) -> Option<u32> {
        self.dequeue(proc).into_option()
    }
    fn counts(&self) -> Counts {
        let paths = self.path_stats();
        let aborts = self.abort_stats();
        Counts {
            completed: paths.total(),
            locked: paths.locked,
            attempts: aborts.enq_attempts + aborts.deq_attempts,
            aborts: aborts.enq_aborts + aborts.deq_aborts,
            ..Counts::default()
        }
    }
}

impl Target for AbortableQueue<u32> {
    const PUT: &'static str = "AbortableQueue::weak_enqueue";
    const TAKE: &'static str = "AbortableQueue::weak_dequeue";
    const FIFO: bool = true;

    fn put(&self, _proc: usize, v: u32) -> bool {
        matches!(self.weak_enqueue(v), Ok(EnqueueOutcome::Enqueued))
    }
    fn take(&self, _proc: usize) -> Option<u32> {
        self.weak_dequeue().ok().and_then(|out| out.into_option())
    }
}

impl Target for NonBlockingQueue<u32> {
    const PUT: &'static str = "NonBlockingQueue::enqueue";
    const TAKE: &'static str = "NonBlockingQueue::dequeue";
    const FIFO: bool = true;

    fn put(&self, _proc: usize, v: u32) -> bool {
        self.enqueue(v).is_enqueued()
    }
    fn take(&self, _proc: usize) -> Option<u32> {
        self.dequeue().into_option()
    }
}

/// The HLM deque is a linear array: its data block starts in the
/// middle and a push answers `Full` at the wall, however empty the
/// deque. Used from the right end only, so it gets a smaller arena
/// with the prefill a quarter of the way in: the tape's excursions
/// then reach neither the wall nor empty.
pub const DEQUE_CAPACITY: usize = CAPACITY / 2;

impl Target for CsDeque<u32> {
    const PUT: &'static str = "CsDeque::push_right";
    const TAKE: &'static str = "CsDeque::pop_right";

    fn put(&self, proc: usize, v: u32) -> bool {
        self.push_right(proc, v).is_pushed()
    }
    fn take(&self, proc: usize) -> Option<u32> {
        self.pop_right(proc).into_option()
    }
    fn prefill(&self) -> (usize, usize) {
        (DEQUE_CAPACITY / 4, 1)
    }
}

impl Target for ShardedCsStack<u32> {
    const PUT: &'static str = "ShardedCsStack::push";
    const TAKE: &'static str = "ShardedCsStack::pop";

    fn put(&self, proc: usize, v: u32) -> bool {
        self.push(proc, v).is_pushed()
    }
    fn take(&self, proc: usize) -> Option<u32> {
        self.pop(proc).into_option()
    }
    /// Every active lane starts half full: the prefill goes round the
    /// process identities, whose home lanes are the active lanes.
    fn prefill(&self) -> (usize, usize) {
        let active = self.active_lanes();
        (self.capacity() / self.lanes() / 2 * active, active)
    }
    fn counts(&self) -> Counts {
        let router = self.router_stats();
        let mut counts = Counts {
            routed: router.pushes + router.pops,
            steals: router.steals,
            spills: router.spills,
            ..Counts::default()
        };
        for lane in 0..self.lanes() {
            counts.add(cell_counts(self.lane(lane)));
        }
        counts
    }
}
