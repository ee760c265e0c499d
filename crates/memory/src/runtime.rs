//! The runtime seam: one thread-local word says what a register access
//! does besides its atomic.
//!
//! Every counted access and peek of [`crate::reg`] (and every protocol
//! word of [`crate::exchange`] and [`crate::combining`]), every wait of
//! [`crate::backoff`], every entropy seed and every probabilistic draw
//! of [`crate::chaos`] first reads the calling thread's *hooks word*:
//! the number of [`crate::CountScope`]s open on the thread in the low
//! bits — a counted access then records itself — and the *session* bit
//! on top, set while the thread is a model thread of a
//! [`crate::sched::Explorer`] session. On a model thread an access or a
//! peek is a yield point of the controlled scheduler, a spin-wait parks
//! there, a pacing delay is skipped, and seeds and chaos draws come
//! from the schedule. A thread with neither — every thread of a
//! production run — pays one thread-local load and a branch not taken.
//! The model checker is picked per thread at run time, not per build.

use std::cell::Cell;

use crate::counting::{self, AccessKind};
use crate::sched;

thread_local! {
    static HOOKS: Cell<u32> = const { Cell::new(0) };
}

/// The session bit of the hooks word; the bits below count scopes.
const SESSION: u32 = 1 << 31;

/// Whether any hook is on for the calling thread.
#[inline(always)]
pub(crate) fn hooked() -> bool {
    HOOKS.with(Cell::get) != 0
}

/// Whether the calling thread is a model thread of a session.
#[inline(always)]
pub(crate) fn in_session() -> bool {
    HOOKS.with(Cell::get) & SESSION != 0
}

/// Whether a [`crate::CountScope`] is open on the calling thread.
#[inline(always)]
pub(crate) fn counting() -> bool {
    HOOKS.with(Cell::get) & !SESSION != 0
}

/// Counts a scope opened (`true`) or closed on the calling thread.
pub(crate) fn count_scope(open: bool) {
    HOOKS.with(|w| w.set(if open { w.get() + 1 } else { w.get() - 1 }));
}

/// Sets or clears the session bit (a model thread registered or
/// released).
pub(crate) fn set_session(on: bool) {
    HOOKS.with(|w| w.set(w.get() & !SESSION | if on { SESSION } else { 0 }));
}

/// One counted access of `kind`.
#[inline(always)]
pub(crate) fn access(kind: AccessKind) {
    if hooked() {
        hooked_access(kind);
    }
}

/// A counted access with a hook on: the yield point, then the count.
#[cold]
#[inline(never)]
fn hooked_access(kind: AccessKind) {
    if in_session() {
        sched::yield_access();
    }
    counting::record(kind);
}

/// One uncounted peek: a yield point on a model thread (racy peek-based
/// code must still be visible to the explorer), free otherwise.
#[inline(always)]
pub(crate) fn peek() {
    if in_session() {
        sched::yield_access();
    }
}

/// Once per spin-wait iteration. `true`: a session absorbed the wait
/// (the thread is marked *yielded*) and the caller skips its real
/// pause, yield or sleep.
#[inline]
pub(crate) fn spin_hint() -> bool {
    in_session() && sched::yield_spin()
}

/// Before a pacing delay that awaits nothing
/// ([`crate::backoff::retry_pause`]) sleeps. On a model thread it is a
/// plain yield point and returns `true`: the caller skips its sleep,
/// since a session's schedules do not depend on time.
#[inline]
pub(crate) fn before_pause() -> bool {
    in_session() && {
        sched::yield_access();
        true
    }
}

/// A `one_in` chaos draw: a recorded schedule decision on a model
/// thread, `None` (the caller draws from its own generator) elsewhere.
pub(crate) fn chaos_one_in(one_in: u64) -> Option<bool> {
    in_session().then(|| sched::chaos_draw(one_in)).flatten()
}

/// A seed for a thread-local generator: derived from the execution's
/// seed and the model thread on a model thread (replays reseed
/// identically), `None` (use real entropy) elsewhere.
pub(crate) fn entropy_seed() -> Option<u64> {
    in_session().then(sched::entropy_seed).flatten()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_thread_outside_every_scope_and_session_is_unhooked() {
        std::thread::spawn(|| {
            assert!(!hooked());
            peek();
            assert!(!before_pause());
            assert!(!spin_hint());
            assert_eq!(chaos_one_in(7), None);
            assert_eq!(entropy_seed(), None);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn scopes_and_the_session_bit_share_the_word_without_clobbering() {
        std::thread::spawn(|| {
            count_scope(true);
            set_session(true);
            count_scope(true);
            assert!(in_session() && counting());
            count_scope(false);
            count_scope(false);
            assert!(in_session() && !counting());
            count_scope(true);
            set_session(false);
            assert!(!in_session() && counting());
            count_scope(false);
            assert!(!hooked());
        })
        .join()
        .unwrap();
    }
}
