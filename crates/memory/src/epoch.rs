//! Minimal epoch-based memory reclamation (EBR).
//!
//! The paper's array + sequence-number objects need no dynamic
//! reclamation at all — that is one of their selling points. The
//! linked baseline they are compared against, Treiber's stack
//! (`cso_stack::TreiberStack`), allocates a node per element and
//! therefore does: a node unlinked by one thread may still be
//! traversed by another, so it cannot be freed immediately.
//!
//! This module is a small, dependency-free implementation of the
//! classical three-epoch scheme (Fraser 2004), API-compatible with the
//! subset of `crossbeam-epoch` Treiber's stack uses — and no more — so
//! the workspace builds fully offline:
//!
//! * threads [`pin`] themselves before touching shared nodes, recording
//!   the global epoch they observed;
//! * an unlinked node is retired with [`Guard::defer_destroy`], tagged
//!   with the epoch at retirement;
//! * the global epoch advances only when every pinned thread has caught
//!   up with it, so garbage from epoch `e` is freed once the global
//!   epoch reaches `e + 2` — by then no thread can still hold a
//!   reference from epoch `e`.
//!
//! Throughput trade-off: retirement buffers are thread-local but the
//! participant registry and the garbage pool are behind plain mutexes,
//! touched only every [`COLLECT_PERIOD`] pins. That is plenty for the
//! baseline role Treiber's stack plays here; a production EBR would
//! shard the garbage pool.

use std::cell::Cell;
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// A pinned thread flushes buffers and tries a collection every this
/// many pins.
const COLLECT_PERIOD: usize = 64;

/// Thread-local retirement buffer flushed to the global pool at this
/// size.
const FLUSH_THRESHOLD: usize = 32;

/// Participant status value meaning "not currently pinned".
const IDLE: usize = usize::MAX;

/// One registered thread.
struct Participant {
    /// [`IDLE`], or the global epoch the thread observed when pinning.
    status: AtomicUsize,
    /// The owning thread exited; scanners skip and eventually prune it.
    dead: AtomicBool,
}

/// A node whose destructor has been deferred: a type-erased owned
/// pointer plus the epoch at retirement.
struct Deferred {
    ptr: *mut (),
    drop_fn: unsafe fn(*mut ()),
    epoch: usize,
}

// SAFETY: a Deferred is an *owned* allocation in transit between the
// retiring thread and whichever thread eventually frees it; ownership
// transfer through the mutex-protected pool is exactly the Send
// contract.
unsafe impl Send for Deferred {}

impl Deferred {
    fn new<T>(ptr: *mut T, epoch: usize) -> Deferred {
        unsafe fn drop_box<T>(p: *mut ()) {
            // SAFETY: `p` was produced by `Box::into_raw::<T>` in
            // `Owned::new` and is dropped exactly once, here.
            drop(unsafe { Box::from_raw(p.cast::<T>()) });
        }
        Deferred {
            ptr: ptr.cast(),
            drop_fn: drop_box::<T>,
            epoch,
        }
    }

    /// Frees the allocation.
    fn execute(self) {
        // SAFETY: by construction `drop_fn` matches `ptr`'s type.
        unsafe { (self.drop_fn)(self.ptr) }
    }
}

/// The global epoch counter.
static GLOBAL_EPOCH: AtomicUsize = AtomicUsize::new(0);

/// All participants ever registered (dead ones are pruned lazily).
static REGISTRY: Mutex<Vec<Arc<Participant>>> = Mutex::new(Vec::new());

/// Retired allocations not yet known to be unreachable.
static GARBAGE: Mutex<Vec<Deferred>> = Mutex::new(Vec::new());

thread_local! {
    static HANDLE: Handle = Handle::register();
}

/// Per-thread pinning state.
struct Handle {
    participant: Arc<Participant>,
    /// Re-entrant pin depth (nested guards share one pinning).
    depth: Cell<usize>,
    /// Total pins, for periodic collection.
    pins: Cell<usize>,
    /// Local retirement buffer (flushed under the pool mutex).
    buffer: Cell<Vec<Deferred>>,
}

impl Handle {
    fn register() -> Handle {
        let participant = Arc::new(Participant {
            status: AtomicUsize::new(IDLE),
            dead: AtomicBool::new(false),
        });
        REGISTRY
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Arc::clone(&participant));
        Handle {
            participant,
            depth: Cell::new(0),
            pins: Cell::new(0),
            buffer: Cell::new(Vec::new()),
        }
    }

    fn flush_buffer(&self) {
        let buf = self.buffer.take();
        if !buf.is_empty() {
            GARBAGE
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .extend(buf);
        }
    }
}

impl Drop for Handle {
    fn drop(&mut self) {
        self.flush_buffer();
        self.participant.dead.store(true, Ordering::SeqCst);
        self.participant.status.store(IDLE, Ordering::SeqCst);
        // Give the orphaned garbage a chance to be freed promptly.
        try_collect();
    }
}

/// Tries to advance the global epoch, then frees every retirement old
/// enough to be unreachable (retired at `e`, freed once the global
/// epoch is `≥ e + 2`).
fn try_collect() {
    let global = GLOBAL_EPOCH.load(Ordering::SeqCst);
    let mut can_advance = true;
    {
        let mut registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
        registry.retain(|p| !(p.dead.load(Ordering::SeqCst) && Arc::strong_count(p) == 1));
        for p in registry.iter() {
            let status = p.status.load(Ordering::SeqCst);
            if status != IDLE && status != global {
                can_advance = false;
                break;
            }
        }
    }
    let horizon = if can_advance {
        // A lost race just means someone else advanced for us.
        let _ =
            GLOBAL_EPOCH.compare_exchange(global, global + 1, Ordering::SeqCst, Ordering::SeqCst);
        GLOBAL_EPOCH.load(Ordering::SeqCst)
    } else {
        global
    };
    let ready: Vec<Deferred> = {
        let mut garbage = GARBAGE.lock().unwrap_or_else(|e| e.into_inner());
        let mut ready = Vec::new();
        garbage.retain_mut(|d| {
            if horizon >= d.epoch + 2 {
                ready.push(Deferred {
                    ptr: d.ptr,
                    drop_fn: d.drop_fn,
                    epoch: d.epoch,
                });
                false
            } else {
                true
            }
        });
        ready
    };
    for d in ready {
        d.execute();
    }
}

/// Pins the current thread: while the returned [`Guard`] lives, no node
/// retired *after* the pin is freed, so loaded [`Shared`] pointers stay
/// dereferenceable.
#[must_use]
pub fn pin() -> Guard {
    HANDLE.with(|h| {
        if h.depth.get() == 0 {
            // Publish the epoch we observed, then re-check: if the
            // global moved between load and store, republish — the
            // collector must never see us parked on a stale epoch it
            // did not account for.
            loop {
                let e = GLOBAL_EPOCH.load(Ordering::SeqCst);
                h.participant.status.store(e, Ordering::SeqCst);
                if GLOBAL_EPOCH.load(Ordering::SeqCst) == e {
                    break;
                }
            }
            let pins = h.pins.get().wrapping_add(1);
            h.pins.set(pins);
            if pins % COLLECT_PERIOD == 0 {
                h.flush_buffer();
                try_collect();
            }
        }
        h.depth.set(h.depth.get() + 1);
    });
    Guard {
        unprotected: false,
        _not_send: PhantomData,
    }
}

/// Returns a guard that performs **no** protection: deferred destroys
/// run immediately.
///
/// # Safety
///
/// The caller must guarantee no other thread is concurrently accessing
/// the data structure (e.g. inside `Drop` with `&mut self`).
#[must_use]
pub unsafe fn unprotected() -> &'static Guard {
    struct SyncGuard(Guard);
    // SAFETY: the unprotected guard carries no thread-local state; the
    // !Send/!Sync marker exists only for pinned guards.
    unsafe impl Sync for SyncGuard {}
    static UNPROTECTED: SyncGuard = SyncGuard(Guard {
        unprotected: true,
        _not_send: PhantomData,
    });
    &UNPROTECTED.0
}

/// A pinning token (see [`pin`]).
pub struct Guard {
    unprotected: bool,
    _not_send: PhantomData<*mut ()>,
}

impl Guard {
    /// Retires the allocation behind `shared`: it is freed once every
    /// thread pinned at retirement time has unpinned.
    ///
    /// # Safety
    ///
    /// `shared` must point to a live allocation created by
    /// [`Owned::new`] that has been made unreachable to new readers,
    /// and must not be retired twice.
    pub unsafe fn defer_destroy<T>(&self, shared: Shared<'_, T>) {
        debug_assert!(!shared.is_null(), "cannot retire the null pointer");
        if self.unprotected {
            // SAFETY: caller guarantees exclusive access.
            drop(unsafe { Box::from_raw(shared.ptr) });
            return;
        }
        let epoch = GLOBAL_EPOCH.load(Ordering::SeqCst);
        HANDLE.with(|h| {
            let mut buf = h.buffer.take();
            buf.push(Deferred::new(shared.ptr, epoch));
            let full = buf.len() >= FLUSH_THRESHOLD;
            h.buffer.set(buf);
            if full {
                h.flush_buffer();
            }
        });
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.unprotected {
            return;
        }
        // Thread-local storage may already be gone during thread
        // teardown; the Handle's own Drop flushed everything then.
        let _ = HANDLE.try_with(|h| {
            let depth = h.depth.get();
            debug_assert!(depth > 0, "guard dropped while not pinned");
            h.depth.set(depth - 1);
            if depth == 1 {
                h.participant.status.store(IDLE, Ordering::SeqCst);
            }
        });
    }
}

/// An atomic nullable pointer to a heap node.
pub struct Atomic<T> {
    ptr: AtomicPtr<T>,
}

impl<T> Atomic<T> {
    /// Creates a null pointer.
    #[must_use]
    pub fn null() -> Atomic<T> {
        Atomic {
            ptr: AtomicPtr::new(ptr::null_mut()),
        }
    }

    /// Loads the current pointer; the guard keeps the pointee alive.
    pub fn load<'g>(&self, ord: Ordering, _guard: &'g Guard) -> Shared<'g, T> {
        Shared {
            ptr: self.ptr.load(ord),
            _marker: PhantomData,
        }
    }

    /// Stores `new` (a [`Shared`] or [`Owned`]).
    pub fn store<P: Pointer<T>>(&self, new: P, ord: Ordering) {
        self.ptr.store(new.into_ptr(), ord);
    }

    /// Compare-and-exchange: replaces `current` with `new`. On failure
    /// the error returns the actual value and hands `new` back so an
    /// [`Owned`] is not leaked.
    ///
    /// # Errors
    ///
    /// Returns [`CompareExchangeError`] when the stored pointer was not
    /// `current`.
    pub fn compare_exchange<'g, P: Pointer<T>>(
        &self,
        current: Shared<'g, T>,
        new: P,
        success: Ordering,
        failure: Ordering,
        _guard: &'g Guard,
    ) -> Result<Shared<'g, T>, CompareExchangeError<'g, T, P>> {
        let new_ptr = new.into_ptr();
        match self
            .ptr
            .compare_exchange(current.ptr, new_ptr, success, failure)
        {
            Ok(prev) => Ok(Shared {
                ptr: prev,
                _marker: PhantomData,
            }),
            Err(actual) => Err(CompareExchangeError {
                current: Shared {
                    ptr: actual,
                    _marker: PhantomData,
                },
                // SAFETY: `new_ptr` came from `new.into_ptr()` above
                // and was NOT installed, so ownership returns intact.
                new: unsafe { P::from_ptr(new_ptr) },
            }),
        }
    }
}

// SAFETY: same bounds as a `Box<T>` shared across threads behind
// atomics: the pointee must be Send (ownership moves at reclamation
// time) and Sync (it is read through shared references).
unsafe impl<T: Send + Sync> Send for Atomic<T> {}
unsafe impl<T: Send + Sync> Sync for Atomic<T> {}

impl<T> fmt::Debug for Atomic<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Atomic({:p})", self.ptr.load(Ordering::Relaxed))
    }
}

/// The error of a failed [`Atomic::compare_exchange`].
pub struct CompareExchangeError<'g, T, P: Pointer<T>> {
    /// The value actually stored.
    pub current: Shared<'g, T>,
    /// The candidate, returned so it can be reused or dropped.
    pub new: P,
}

/// A uniquely-owned heap node not yet published.
pub struct Owned<T> {
    ptr: *mut T,
}

impl<T> Owned<T> {
    /// Allocates `value`.
    #[must_use]
    pub fn new(value: T) -> Owned<T> {
        Owned {
            ptr: Box::into_raw(Box::new(value)),
        }
    }
}

impl<T> Drop for Owned<T> {
    fn drop(&mut self) {
        // SAFETY: an un-consumed Owned still uniquely owns its box.
        drop(unsafe { Box::from_raw(self.ptr) });
    }
}

impl<T> Deref for Owned<T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: uniquely owned, always valid.
        unsafe { &*self.ptr }
    }
}

impl<T> DerefMut for Owned<T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: uniquely owned, always valid.
        unsafe { &mut *self.ptr }
    }
}

// SAFETY: owning pointer — same story as Box<T>.
unsafe impl<T: Send> Send for Owned<T> {}

/// A pointer loaded under a [`Guard`]; valid for the guard's lifetime.
pub struct Shared<'g, T> {
    ptr: *mut T,
    _marker: PhantomData<(&'g Guard, *mut T)>,
}

impl<T> Clone for Shared<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Shared<'_, T> {}

impl<T> PartialEq for Shared<'_, T> {
    fn eq(&self, other: &Self) -> bool {
        self.ptr == other.ptr
    }
}

impl<'g, T> Shared<'g, T> {
    /// Whether this is null.
    #[must_use]
    pub fn is_null(&self) -> bool {
        self.ptr.is_null()
    }

    /// Dereferences, returning `None` for null.
    ///
    /// # Safety
    ///
    /// Non-null pointers must come from a load on the same structure
    /// under the guard `'g` (or be otherwise known live).
    pub unsafe fn as_ref(&self) -> Option<&'g T> {
        // SAFETY: forwarded to the caller.
        unsafe { self.ptr.as_ref() }
    }

    /// Reclaims unique ownership of the allocation.
    ///
    /// # Safety
    ///
    /// The caller must be the unique owner (e.g. inside `Drop` after
    /// excluding all concurrent access).
    #[must_use]
    pub unsafe fn into_owned(self) -> Owned<T> {
        debug_assert!(!self.is_null());
        Owned { ptr: self.ptr }
    }
}

impl<T> fmt::Debug for Shared<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shared({:p})", self.ptr)
    }
}

/// Pointer types storable in an [`Atomic`]: [`Owned`] and [`Shared`].
pub trait Pointer<T> {
    /// Extracts the raw pointer, giving up ownership bookkeeping.
    fn into_ptr(self) -> *mut T;

    /// Rebuilds from a raw pointer.
    ///
    /// # Safety
    ///
    /// `ptr` must carry whatever ownership the implementing type
    /// represents (unique for [`Owned`]).
    unsafe fn from_ptr(ptr: *mut T) -> Self;
}

impl<T> Pointer<T> for Owned<T> {
    fn into_ptr(self) -> *mut T {
        let ptr = self.ptr;
        std::mem::forget(self);
        ptr
    }

    unsafe fn from_ptr(ptr: *mut T) -> Owned<T> {
        Owned { ptr }
    }
}

impl<T> Pointer<T> for Shared<'_, T> {
    fn into_ptr(self) -> *mut T {
        self.ptr
    }

    unsafe fn from_ptr(ptr: *mut T) -> Self {
        Shared {
            ptr,
            _marker: PhantomData,
        }
    }
}

#[cfg(test)]
mod tests {
    // SAFETY (every `unsafe` below): a node is dereferenced only under
    // a pin or by the one thread that can reach it, and re-owned or
    // retired exactly once, after it is unlinked or was never shared.
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// A droppable payload counting into a caller-supplied counter, so
    /// parallel tests don't race on a shared static.
    struct Counted(&'static AtomicUsize);
    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Publishes `value` through a scratch [`Atomic`] and loads it
    /// back — the only way from an [`Owned`] to a [`Shared`], as in
    /// `TreiberStack`'s push then pop. The scratch cell is forgotten
    /// (an `Atomic` owns nothing), so the caller owns the node.
    fn published<T>(value: T, guard: &Guard) -> Shared<'_, T> {
        let cell = Atomic::null();
        cell.store(Owned::new(value), Ordering::SeqCst);
        cell.load(Ordering::SeqCst, guard)
    }

    #[test]
    fn owned_roundtrip_and_drop() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        let guard = pin();
        let mut owned = Owned::new((41u64, Counted(&DROPS)));
        owned.0 += 1;
        assert_eq!(owned.0, 42);
        let atomic = Atomic::null();
        atomic.store(owned, Ordering::SeqCst);
        let shared = atomic.load(Ordering::SeqCst, &guard);
        assert_eq!(unsafe { shared.as_ref() }.map(|n| n.0), Some(42));
        assert_eq!(DROPS.load(Ordering::SeqCst), 0);
        // Re-owned, then dropped: the payload drops exactly once.
        drop(unsafe { shared.into_owned() });
        assert_eq!(DROPS.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn cas_failure_returns_candidate() {
        let atomic: Atomic<u64> = Atomic::null();
        let guard = pin();
        let stale = atomic.load(Ordering::SeqCst, &guard);
        atomic.store(Owned::new(1u64), Ordering::SeqCst);
        let current = atomic.load(Ordering::SeqCst, &guard);
        let candidate = Owned::new(2u64);
        let err = atomic
            .compare_exchange(stale, candidate, Ordering::SeqCst, Ordering::SeqCst, &guard)
            .unwrap_err();
        assert_eq!(err.current, current);
        // The candidate is returned intact and freed normally.
        assert_eq!(*err.new, 2);
        drop(err.new);
        // Clean up the structure.
        drop(unsafe { current.into_owned() });
    }

    #[test]
    fn deferred_destruction_eventually_runs() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        {
            let guard = pin();
            let node = published(Counted(&DROPS), &guard);
            // Retire while pinned: must NOT drop yet.
            unsafe { guard.defer_destroy(node) };
            assert_eq!(DROPS.load(Ordering::SeqCst), 0);
        }
        // Repin until the epoch advances far enough (bounded wait:
        // concurrent tests may transiently block an advance).
        for _ in 0..10_000 {
            for _ in 0..COLLECT_PERIOD {
                let _guard = pin();
            }
            if DROPS.load(Ordering::SeqCst) >= 1 {
                break;
            }
            std::thread::yield_now();
        }
        assert_eq!(
            DROPS.load(Ordering::SeqCst),
            1,
            "retired node must be freed after the epoch advances"
        );
    }

    #[test]
    fn unprotected_defer_destroy_is_immediate() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        let guard = unsafe { unprotected() };
        let node = published(Counted(&DROPS), guard);
        unsafe { guard.defer_destroy(node) };
        assert_eq!(DROPS.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn nested_pins_share_one_epoch_slot() {
        let status = || HANDLE.with(|h| h.participant.status.load(Ordering::SeqCst));
        let g1 = pin();
        let slot = status();
        assert_ne!(slot, IDLE);
        let g2 = pin();
        drop(g1);
        // Still pinned through g2, on the same slot; loads remain
        // protected.
        assert_eq!(status(), slot);
        let shared = published(5u64, &g2);
        assert_eq!(unsafe { shared.as_ref() }, Some(&5));
        drop(unsafe { shared.into_owned() });
        drop(g2);
        assert_eq!(status(), IDLE);
    }

    #[test]
    fn concurrent_treiber_style_churn() {
        // A miniature Treiber stack exercising load/CAS/defer under
        // real concurrency; run with many nodes to flush garbage
        // through whole epochs.
        struct Node {
            value: u64,
            next: Atomic<Node>,
        }
        let head: Atomic<Node> = Atomic::null();
        let pushed = AtomicUsize::new(0);
        let popped = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let head = &head;
                let pushed = &pushed;
                let popped = &popped;
                scope.spawn(move || {
                    for i in 0..2_000u64 {
                        // Push.
                        let guard = pin();
                        let mut node = Owned::new(Node {
                            value: t * 10_000 + i,
                            next: Atomic::null(),
                        });
                        loop {
                            let h = head.load(Ordering::Acquire, &guard);
                            node.next.store(h, Ordering::Relaxed);
                            match head.compare_exchange(
                                h,
                                node,
                                Ordering::Release,
                                Ordering::Relaxed,
                                &guard,
                            ) {
                                Ok(_) => break,
                                Err(e) => node = e.new,
                            }
                        }
                        pushed.fetch_add(1, Ordering::Relaxed);
                        // Pop.
                        loop {
                            let h = head.load(Ordering::Acquire, &guard);
                            let Some(n) = (unsafe { h.as_ref() }) else {
                                break;
                            };
                            let next = n.next.load(Ordering::Acquire, &guard);
                            if head
                                .compare_exchange(
                                    h,
                                    next,
                                    Ordering::Release,
                                    Ordering::Relaxed,
                                    &guard,
                                )
                                .is_ok()
                            {
                                let _ = n.value;
                                unsafe { guard.defer_destroy(h) };
                                popped.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(pushed.load(Ordering::Relaxed), 8_000);
        // Every pop matched a push; drain the rest single-threaded.
        let guard = unsafe { unprotected() };
        let mut rest = 0;
        loop {
            let h = head.load(Ordering::Relaxed, guard);
            if h.is_null() {
                break;
            }
            let owned = unsafe { h.into_owned() };
            let next = owned.next.load(Ordering::Relaxed, guard);
            head.store(next, Ordering::Relaxed);
            drop(owned);
            rest += 1;
        }
        assert_eq!(popped.load(Ordering::Relaxed) + rest, 8_000);
    }
}
