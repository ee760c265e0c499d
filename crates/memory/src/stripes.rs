//! Single-writer statistics stripes: counters whose updates cost no
//! locked instruction and no cache-line transfer.
//!
//! "Uncounted" is not "free". A diagnostic `AtomicU64::fetch_add` is
//! invisible to the paper's access model, but on real hardware it is a
//! locked read-modify-write, and on a line several threads write it is
//! a coherence miss per operation — the very cost the contention-free
//! fast path exists to avoid. A [`Stripes`] block removes both:
//!
//! * the block is [`STRIPES`] cache-line-padded **stripes**, each an
//!   array of `N` counters (one line per stripe for `N ≤ 16`);
//! * every thread that touches any block leases one process-wide
//!   **stripe id** from a free list at its first update and returns it
//!   when the thread exits, so short-lived threads reuse stripes;
//! * a stripe has one writer at a time — its leaseholder — so an update
//!   is a `Relaxed` load and a `Relaxed` store of a line only that
//!   thread writes: no `lock` prefix, no line ping-pong;
//! * when more threads are alive than there are stripes, the surplus
//!   share one fixed **overflow stripe** and update it with
//!   `fetch_add` — still exact, merely no cheaper than a plain counter;
//! * readers sum the stripes (the per-writer-cell layout of
//!   Write-and-f-array, PAPERS.md: updates are every operation, reads
//!   are rare, so the reader pays).
//!
//! # Exactness
//!
//! A read is the sum of `Relaxed` loads, so it is *exact at
//! quiescence* — whenever the reader is ordered after the writers by
//! anything (a join, a barrier, a lock) — and otherwise lags by at most
//! the updates in flight. Each counter is monotone between resets.
//!
//! # Reset is a baseline, not a store
//!
//! [`Stripes::reset`] cannot zero the cells: a store into a stripe
//! another thread is updating with load + store would be overwritten
//! (or would overwrite the update). It records the current sums as a
//! **baseline** instead; [`Stripes::get`] returns `sum − baseline` and
//! [`Stripes::total`] the sum itself. An update that races a reset
//! lands on one side of it or the other and is never lost.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::combining::CachePadded;

/// Single-writer stripes per block; also the number of threads that
/// can update concurrently without sharing the overflow stripe. 16
/// covers the workspace's bench range without aliasing and costs
/// 18 × 128 B per block of up to 16 counters.
pub const STRIPES: usize = 16;

/// Index of the shared overflow stripe.
const OVERFLOW: usize = STRIPES;

/// "This thread has not asked for a stripe yet." Above `OVERFLOW`, so
/// the one test on `Stripes::add`'s hot side, `id < OVERFLOW`, sends a
/// fresh thread and an overflow thread alike to `add_cold`.
const UNASSIGNED: usize = usize::MAX;

/// The free list: bit `i` set ⇔ stripe id `i` is unleased.
static FREE: AtomicU64 = AtomicU64::new((1 << STRIPES) - 1);

thread_local! {
    /// This thread's stripe id, read on every update. No destructor,
    /// so it stays readable while the thread's other locals are torn
    /// down.
    static STRIPE: Cell<usize> = const { Cell::new(UNASSIGNED) };
    /// The lease behind `STRIPE`; its destructor returns the id.
    static LEASE: Lease = Lease::acquire();
}

/// One thread's hold on a stripe id (or on none: `OVERFLOW`).
struct Lease(usize);

impl Lease {
    fn acquire() -> Lease {
        let mut free = FREE.load(Ordering::Relaxed);
        while free != 0 {
            let id = free.trailing_zeros() as usize;
            // Acquire pairs with the Release in `drop`: the previous
            // leaseholder's last stores into stripe `id` happen before
            // our first load of it, so taking over loses nothing.
            match FREE.compare_exchange_weak(
                free,
                free & !(1 << id),
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Lease(id),
                Err(now) => free = now,
            }
        }
        Lease(OVERFLOW)
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        // Updates made by later thread-local destructors must not
        // write a stripe that is about to belong to someone else.
        STRIPE.with(|s| s.set(OVERFLOW));
        if self.0 != OVERFLOW {
            FREE.fetch_or(1 << self.0, Ordering::Release);
        }
    }
}

/// A block of `N` statistics counters, striped per thread. See the
/// module docs for the update, read and reset contracts.
///
/// The block is 128-byte aligned and a whole number of lines long, so
/// embedding it in an object also keeps the object's other fields off
/// the lines its statistics dirty.
///
/// ```
/// use cso_memory::stripes::Stripes;
///
/// const HITS: usize = 0;
/// const MISSES: usize = 1;
/// let stats: Stripes<2> = Stripes::new();
/// stats.inc(HITS);
/// stats.add(MISSES, 3);
/// assert_eq!(stats.snapshot(), [1, 3]);
/// stats.reset();
/// stats.inc(HITS);
/// assert_eq!(stats.get(HITS), 1);
/// assert_eq!(stats.total(HITS), 2);
/// ```
pub struct Stripes<const N: usize> {
    /// `STRIPES` single-writer stripes, then the overflow stripe.
    cells: [CachePadded<[AtomicU64; N]>; STRIPES + 1],
    /// Per-counter sums as of the last [`Stripes::reset`].
    baseline: CachePadded<[AtomicU64; N]>,
}

fn zeroed<const N: usize>() -> CachePadded<[AtomicU64; N]> {
    CachePadded::new(std::array::from_fn(|_| AtomicU64::new(0)))
}

impl<const N: usize> Stripes<N> {
    /// A block with every counter at zero.
    #[must_use]
    pub fn new() -> Stripes<N> {
        Stripes {
            cells: std::array::from_fn(|_| zeroed()),
            baseline: zeroed(),
        }
    }

    /// Adds `n` to counter `field` and returns the new count in the
    /// calling thread's stripe, which the store already has in hand:
    /// this thread's updates on top of the stripe's earlier
    /// leaseholders' (on the overflow stripe, of everyone sharing it).
    /// Wait-free; on a leased stripe one plain load and one plain store
    /// of a line this thread owns, behind one test (`id < OVERFLOW`,
    /// which a thread without a leased stripe fails).
    ///
    /// # Panics
    ///
    /// Panics if `field >= N`.
    #[inline]
    pub fn add(&self, field: usize, n: u64) -> u64 {
        let id = STRIPE.with(Cell::get);
        if id < OVERFLOW {
            let cell = &self.cells[id][field];
            let count = cell.load(Ordering::Relaxed).wrapping_add(n);
            cell.store(count, Ordering::Relaxed);
            return count;
        }
        self.add_cold(field, n)
    }

    /// [`Stripes::add`] for a thread without a leased stripe: its
    /// first update (which leases one, then updates it) and every
    /// update of a thread on the shared overflow stripe (`fetch_add`).
    #[cold]
    #[inline(never)]
    fn add_cold(&self, field: usize, n: u64) -> u64 {
        if STRIPE.with(Cell::get) == UNASSIGNED {
            // `try_with` fails only while the thread is being torn down.
            let id = LEASE.try_with(|lease| lease.0).unwrap_or(OVERFLOW);
            STRIPE.with(|s| s.set(id));
            if id != OVERFLOW {
                return self.add(field, n);
            }
        }
        self.cells[OVERFLOW][field]
            .fetch_add(n, Ordering::Relaxed)
            .wrapping_add(n)
    }

    /// Adds one to counter `field`; see [`Stripes::add`].
    #[inline]
    pub fn inc(&self, field: usize) -> u64 {
        self.add(field, 1)
    }

    /// Counter `field` since construction: the sum over every stripe,
    /// whatever [`Stripes::reset`] did in between. This is the read for
    /// an exported counter, which must never go backwards;
    /// [`Stripes::get`] is the read for an accessor a caller restarts.
    ///
    /// # Panics
    ///
    /// Panics if `field >= N`.
    #[must_use]
    pub fn total(&self, field: usize) -> u64 {
        self.cells
            .iter()
            .map(|stripe| stripe[field].load(Ordering::Relaxed))
            .fold(0, u64::wrapping_add)
    }

    /// Counter `field` as each stripe holds it — [`Stripes::total`]
    /// before the fold, the overflow stripe last. A stripe has one
    /// writer at a time, so two reads that differ in `k` places saw
    /// `k` writers in between (all the overflow threads counting as
    /// one): who is updating, learnt from cells the updates already
    /// write.
    ///
    /// # Panics
    ///
    /// Panics if `field >= N`.
    #[must_use]
    pub fn per_stripe(&self, field: usize) -> [u64; STRIPES + 1] {
        std::array::from_fn(|id| self.cells[id][field].load(Ordering::Relaxed))
    }

    /// The value of counter `field` since the last reset.
    ///
    /// # Panics
    ///
    /// Panics if `field >= N`.
    #[must_use]
    pub fn get(&self, field: usize) -> u64 {
        // Baseline first, and Acquire against `reset`'s Release: the
        // stripe loads the baseline was summed from happen before the
        // ones below, so the sum cannot read older than the baseline.
        let baseline = self.baseline[field].load(Ordering::Acquire);
        self.total(field).wrapping_sub(baseline)
    }

    /// Every counter's value since the last reset, read back to back.
    #[must_use]
    pub fn snapshot(&self) -> [u64; N] {
        std::array::from_fn(|field| self.get(field))
    }

    /// Restarts every counter from zero by recording the current sums
    /// as the baseline. Safe against concurrent writers: an update
    /// racing the reset is counted either before or after it, never
    /// dropped.
    pub fn reset(&self) {
        for field in 0..N {
            self.baseline[field].store(self.total(field), Ordering::Release);
        }
    }
}

impl<const N: usize> Default for Stripes<N> {
    fn default() -> Stripes<N> {
        Stripes::new()
    }
}

impl<const N: usize> std::fmt::Debug for Stripes<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Stripes").field(&self.snapshot()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{Barrier, Mutex};

    /// Stripe ids are process-wide, so tests that assert *which*
    /// stripe a thread lands on must not overlap any test that holds
    /// leases: every test that spawns threads takes this lock.
    static IDS: Mutex<()> = Mutex::new(());

    fn ids() -> std::sync::MutexGuard<'static, ()> {
        IDS.lock().unwrap_or_else(|e| e.into_inner())
    }

    impl<const N: usize> Stripes<N> {
        fn overflowed(&self, field: usize) -> u64 {
            self.cells[OVERFLOW][field].load(Ordering::Relaxed)
        }
    }

    #[test]
    fn eight_threads_sum_exactly() {
        let _ids = ids();
        let stats: Stripes<3> = Stripes::new();
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let stats = &stats;
                s.spawn(move || {
                    for _ in 0..100_000 {
                        stats.inc(0);
                        stats.add(2, t);
                    }
                });
            }
        });
        assert_eq!(stats.snapshot(), [800_000, 0, 100_000 * 28]);
    }

    #[test]
    fn short_lived_threads_reuse_stripes() {
        let _ids = ids();
        let stats: Stripes<1> = Stripes::new();
        for _ in 0..200 {
            std::thread::scope(|s| {
                s.spawn(|| stats.inc(0));
            });
        }
        assert_eq!(stats.get(0), 200);
        assert_eq!(stats.overflowed(0), 0, "200 exits must return 200 leases");
    }

    #[test]
    fn more_threads_than_stripes_stay_exact_through_the_overflow_stripe() {
        let _ids = ids();
        const THREADS: usize = STRIPES + 8;
        let stats: Stripes<1> = Stripes::new();
        // Everyone bumps once before anyone exits, so all THREADS
        // leases are outstanding at once.
        let all_leased = Barrier::new(THREADS);
        let ids: Vec<usize> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        stats.inc(0);
                        all_leased.wait();
                        for _ in 0..10_000 {
                            stats.inc(0);
                        }
                        STRIPE.with(Cell::get)
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        assert_eq!(stats.get(0), THREADS as u64 * 10_001);
        // Stripe ids past the sixteenth go to the overflow stripe, and
        // its threads' updates land there and nowhere else: exactly
        // theirs, every leased stripe exactly its one writer's.
        let surplus = ids.iter().filter(|&&id| id == OVERFLOW).count();
        assert!(surplus >= THREADS - STRIPES, "{surplus} overflowed");
        assert_eq!(stats.overflowed(0), surplus as u64 * 10_001);
        let per_stripe = stats.per_stripe(0);
        for id in ids.iter().filter(|&&id| id != OVERFLOW) {
            assert_eq!(per_stripe[*id], 10_001, "stripe {id}");
        }
    }

    #[test]
    fn per_stripe_read_counts_the_writers() {
        const K: u64 = 1_000;
        let _ids = ids();
        let stats: Stripes<2> = Stripes::new();
        let advanced = |then: &[u64; STRIPES + 1]| {
            let now = stats.per_stripe(0);
            now.iter()
                .zip(then)
                .filter(|(now, then)| now != then)
                .count()
        };
        // `threads` writers, all holding their leases at once, each
        // bumping field 0 K times.
        let bump = |threads: usize| {
            let all_leased = Barrier::new(threads);
            std::thread::scope(|s| {
                for _ in 0..threads {
                    s.spawn(|| {
                        let before = stats.add(0, 0);
                        all_leased.wait();
                        let after = (0..K).map(|_| stats.inc(0)).last();
                        // What `inc` returns is the stripe's count:
                        // this thread's K on top of what was there
                        // (more, on the shared overflow stripe).
                        assert!(after >= Some(before + K));
                    });
                }
            });
        };

        let start = stats.per_stripe(0);
        bump(2);
        assert_eq!(advanced(&start), 2, "two writers, two stripes");
        assert_eq!(stats.per_stripe(0).iter().sum::<u64>(), 2 * K);
        assert_eq!(stats.per_stripe(1), [0; STRIPES + 1]);
        assert_eq!((stats.total(0), stats.get(0)), (2 * K, 2 * K));

        // A reset moves the baseline, not the cells.
        let then = stats.per_stripe(0);
        stats.reset();
        assert_eq!(stats.per_stripe(0), then);
        assert_eq!((stats.total(0), stats.get(0)), (2 * K, 0));

        // More writers than stripes: the surplus share the overflow
        // stripe and read as one writer between them.
        bump(STRIPES + 2);
        assert!(advanced(&then) <= STRIPES + 1);
        assert!(stats.overflowed(0) >= 2 * K);
        assert_eq!(stats.get(0), (STRIPES as u64 + 2) * K);

        // A fresh thread's first update leases a stripe and lands in
        // it: the one stripe that moves, by one, is not the overflow
        // stripe.
        let then = stats.per_stripe(1);
        let id = std::thread::scope(|s| {
            s.spawn(|| {
                assert_eq!(STRIPE.with(Cell::get), UNASSIGNED);
                assert_eq!(stats.inc(1), 1, "the first count of a fresh stripe");
                STRIPE.with(Cell::get)
            })
            .join()
            .unwrap()
        });
        assert!(id < OVERFLOW, "the first update went to stripe {id}");
        let mut expected = then;
        expected[id] += 1;
        assert_eq!(stats.per_stripe(1), expected);
    }

    #[test]
    fn reset_racing_writers_loses_no_later_bump() {
        const WRITERS: usize = 4;
        const BUMPS: usize = 200_000;
        let _ids = ids();
        let stats: Stripes<1> = Stripes::new();
        // Per writer: bumps begun / bumps finished, published around
        // each `inc` so the resetter can bracket its reset.
        let begun: [AtomicUsize; WRITERS] = std::array::from_fn(|_| AtomicUsize::new(0));
        let finished: [AtomicUsize; WRITERS] = std::array::from_fn(|_| AtomicUsize::new(0));
        let total = |side: &[AtomicUsize; WRITERS]| -> u64 {
            side.iter()
                .map(|c| c.load(Ordering::SeqCst) as u64)
                .sum::<u64>()
        };
        let start = Barrier::new(WRITERS + 1);
        let (before, after) = std::thread::scope(|s| {
            for w in 0..WRITERS {
                let (stats, begun, finished, start) = (&stats, &begun, &finished, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 1..=BUMPS {
                        begun[w].store(i, Ordering::SeqCst);
                        stats.inc(0);
                        finished[w].store(i, Ordering::SeqCst);
                    }
                });
            }
            start.wait();
            while total(&finished) < (WRITERS * BUMPS / 4) as u64 {
                std::hint::spin_loop();
            }
            let before = total(&finished);
            stats.reset();
            (before, total(&begun))
        });
        // Bumps finished before the reset began may be behind the
        // baseline; bumps begun after it returned must not be.
        let all = (WRITERS * BUMPS) as u64;
        let kept = stats.get(0);
        assert!(
            kept >= all - after,
            "lost a later bump: kept {kept} < {all} - {after}"
        );
        assert!(
            kept <= all - before,
            "resurrected an earlier bump: kept {kept} > {all} - {before}"
        );
        // And a quiescent reset is exact.
        stats.reset();
        assert_eq!(stats.get(0), 0);
        stats.add(0, 7);
        assert_eq!(stats.get(0), 7);
    }

    #[test]
    fn no_two_stripes_share_a_line() {
        use crate::layout::{disjoint, lines_of};
        let stats: Stripes<4> = Stripes::new();
        let stripes: Vec<_> = stats
            .cells
            .iter()
            .chain(std::iter::once(&stats.baseline))
            .map(lines_of)
            .collect();
        assert_eq!(stripes.len(), STRIPES + 2);
        for (i, stripe) in stripes.iter().enumerate() {
            assert!(stripes[i + 1..].iter().all(|other| disjoint(stripe, other)));
        }
        // And the block ends where its last line does, so a neighbour
        // field of the embedding object starts on a fresh one.
        assert_eq!(lines_of(&stats).count(), STRIPES + 2);
    }
}
