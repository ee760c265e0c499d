//! The run-time mode: *quiet* or *armed*, derived, read once per
//! operation on Figure 3's contention-free path.
//!
//! Every fail point ([`crate::fail_point!`]) and probe
//! (`cso_trace::probe!`) is in every build. One process-wide word turns
//! them on, and nobody sets it: it reads armed while something holds
//! it — an armed fail point (the [`crate::chaos`] registry holds it per
//! armed site) or a live reader of the probe rings (a [`Recording`]:
//! one a test or a capture opens, or the profiler's harvester's). Code
//! on the contention-free path is generic over a [`Mode`] and chosen by
//! one read of the word per operation; its [`Quiet`] instance has no
//! site at all. Every other site reads the word itself. DESIGN.md, "One build, two run-time modes", has why
//! the word is process-wide rather than thread-local.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::combining::CachePadded;

/// How many holders keep the mode armed. Alone on its line: read by
/// every operation, written only when something arms or disarms.
static HOLDERS: CachePadded<AtomicUsize> = CachePadded::new(AtomicUsize::new(0));

/// Whether fail points and probes are armed right now: one relaxed
/// load. A holder taken on another thread is seen a little later, the
/// next time the word is read — arming is not a barrier.
#[inline(always)]
#[must_use]
pub fn armed() -> bool {
    HOLDERS.load(Ordering::Relaxed) != 0
}

/// Adds `n` holders; [`lower`] removes them.
pub(crate) fn raise(n: usize) {
    HOLDERS.fetch_add(n, Ordering::SeqCst);
}

pub(crate) fn lower(n: usize) {
    HOLDERS.fetch_sub(n, Ordering::SeqCst);
}

/// Keeps the mode armed while it lives: what a reader of the probe
/// rings holds, so that operations record while someone reads
/// (re-exported as `cso_trace::probe::Recording`).
#[derive(Debug)]
#[must_use = "the mode is armed only while the recording lives"]
pub struct Recording(());

impl Recording {
    /// Arms the mode until the returned recording drops.
    pub fn start() -> Recording {
        raise(1);
        Recording(())
    }
}

impl Drop for Recording {
    fn drop(&mut self) {
        lower(1);
    }
}

/// A mode as a type, for the code on Figure 3's contention-free path:
/// a site there is written `if M::ON { … }` (or through the macros'
/// `M =>` form), so the [`Quiet`] instance compiles it away.
pub trait Mode {
    /// Whether this instance's sites fire.
    const ON: bool;
}

/// The instance that runs while nothing is armed: no site exists.
#[derive(Debug, Clone, Copy)]
pub enum Quiet {}

/// The instance with every site in place, each checking [`armed`]:
/// what runs once the word read armed, and off the contention-free
/// path.
#[derive(Debug, Clone, Copy)]
pub enum Armed {}

impl Mode for Quiet {
    const ON: bool = false;
}

impl Mode for Armed {
    const ON: bool = true;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_recording_arms_the_mode_while_it_lives() {
        let recording = Recording::start();
        assert!(armed());
        let nested = Recording::start();
        drop(recording);
        assert!(armed(), "another holder keeps it armed");
        drop(nested);
        // Other tests of this binary may hold the word too, so the
        // quiet state is not asserted here.
    }

    #[test]
    fn the_word_has_its_own_line() {
        use crate::layout::lines_of;
        assert_eq!(lines_of(&HOLDERS).count(), 1);
    }
}
