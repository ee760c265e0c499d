//! V7 and V8: the two hand-off protocols behind the escalation ladder,
//! on the shipped `cso_memory::exchange::Exchanger` and — through the
//! shipped combining slow path of `ContentionSensitive` — on
//! `cso_memory::combining::PubRecord`.
//!
//! ```text
//! cargo test --features model,chaos --test model_handoff -- --nocapture
//! ```
//!
//! Neither protocol keeps its words in counted registers; their
//! accessors call the runtime's peek hook first, so under `model`
//! every access to a slot's state word or stamps, and to a record's
//! status or helper word, is a scheduling decision.
//!
//! **V7 — the exchanger slot** (`EMPTY → CLAIMED → WAITING → {BUSY,
//! RETRACT} → EMPTY`, a tag bumped on every recycle). At quiescence:
//! every slot is idle; offers that returned `Ok` and takes that
//! returned a value pair up one to one; a declined or retracted offer
//! gets its own item back; nothing is taken twice. The decisive race
//! is at `WAITING` — the offeror's retract C&S against the taker's
//! `BUSY` C&S — and the offer/take body demands that *both* outcomes
//! occur somewhere in its exploration. Offers there park with a poll
//! budget of zero: a poll is a spin hint, and a thread that has hinted
//! is not rescheduled while its partner can run, which would hide
//! exactly the schedules in which the retract races a taker that has
//! already seen `WAITING`.
//!
//! **V8 — the publication record** (`EMPTY → POSTED → CLAIMED → {DONE,
//! POISONED} → EMPTY`). The object under the slow path is a counter
//! whose weak operation is a register read followed by a register
//! write, so anything short of mutual exclusion loses an update, and
//! whose increments are distinct bits, so every response says exactly
//! which operations had been applied before it. At quiescence: the
//! lock is free and every record is `EMPTY` (one more operation per
//! process gets through — `post` panics on a non-empty record); the
//! counter holds every increment exactly once; the responses form a
//! chain. A combiner crash is the `cs::combine` fail point panicking
//! mid-batch: the claims in flight are poisoned, their owners reclaim
//! and repost, and only the crasher loses its response. Both routes
//! out of `CLAIMED` must be observed.

mod model_support;

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Once};

use cso::core::{Abortable, Aborted, ContentionSensitive, CsConfig};
use cso::locks::TasLock;
use cso::memory::chaos::{self, Fault, Plan};
use cso::memory::combining::NO_HELPER;
use cso::memory::exchange::Exchanger;
use cso::memory::reg::Reg64;
use cso::sched::{spawn, Explorer};

use model_support::{assert_exhausted, bounded, bounded_then_swept, serial, unbounded};

const SWEEP: usize = 2_000;

// ---------------------------------------------------------------
// V7 — the exchanger.
// ---------------------------------------------------------------

/// What one exchanger execution observed.
struct Exchange {
    /// Per offer, in `offers` order: `Ok(taker's stamp)` or the item
    /// handed back.
    offers: Vec<Result<u32, u32>>,
    /// Per take: the item and the offeror's stamp, if any.
    takes: Vec<Option<(u32, u32)>>,
    /// A taker found a slot `WAITING` (and went on to its `BUSY` C&S).
    saw_waiting: bool,
}

/// One execution: every `(value, polls)` of `offers` and each of
/// `takers` takes runs on a thread of its own (the first on thread 0)
/// against a fresh exchanger; offeror `i` stamps itself `10 + i`,
/// taker `j` stamps itself `20 + j`. Checks the quiescent invariants
/// and returns what happened.
fn exchange_body(slots: usize, offers: &[(u32, u32)], takers: usize) -> Exchange {
    let ex: Arc<Exchanger<u32>> = Arc::new(Exchanger::new(slots));
    let saw_waiting = Arc::new(AtomicBool::new(false));
    enum Done {
        Offer(Result<u32, u32>),
        Take(Option<(u32, u32)>),
    }
    type Job = Box<dyn FnOnce() -> Done + Send>;
    let mut jobs: Vec<Job> = Vec::new();
    for j in 0..takers {
        let (ex, saw_waiting) = (Arc::clone(&ex), Arc::clone(&saw_waiting));
        jobs.push(Box::new(move || {
            Done::Take(ex.take_if_stamped(
                || {
                    saw_waiting.store(true, Ordering::Relaxed);
                    true
                },
                20 + j as u32,
            ))
        }));
    }
    for (i, &(value, polls)) in offers.iter().enumerate() {
        let ex = Arc::clone(&ex);
        jobs.push(Box::new(move || {
            Done::Offer(ex.offer_stamped(value, polls, 10 + i as u32))
        }));
    }
    let mut jobs = jobs.into_iter();
    let mine = jobs.next().expect("at least one job");
    let children: Vec<_> = jobs.map(spawn).collect();
    let mut done = vec![mine()];
    done.extend(children.into_iter().map(|child| child.join()));

    let mut out = Exchange {
        offers: Vec::new(),
        takes: Vec::new(),
        saw_waiting: saw_waiting.load(Ordering::Relaxed),
    };
    for d in done {
        match d {
            Done::Offer(r) => out.offers.push(r),
            Done::Take(r) => out.takes.push(r),
        }
    }

    // No slot stranded in CLAIMED / WAITING / BUSY / RETRACT.
    assert!(ex.is_idle(), "a slot was left non-EMPTY");
    // A declined or retracted offer hands back its own item.
    for (r, &(value, _)) in out.offers.iter().zip(offers) {
        if let Err(back) = r {
            assert_eq!(*back, value, "an offer got somebody else's item back");
        }
    }
    // Exchanged offers and successful takes pair up one to one, each
    // side naming the other.
    let mut given: Vec<(u32, u32)> = out
        .offers
        .iter()
        .zip(offers)
        .enumerate()
        .filter_map(|(i, (r, &(value, _)))| r.is_ok().then_some((value, 10 + i as u32)))
        .collect();
    let mut taken: Vec<(u32, u32)> = out.takes.iter().flatten().copied().collect();
    given.sort_unstable();
    taken.sort_unstable();
    assert_eq!(given, taken, "offers and takes must complete in pairs");
    assert_eq!(ex.exchanges(), taken.len() as u64);
    for (i, r) in out.offers.iter().enumerate() {
        if let Ok(partner) = r {
            assert!(
                (20..20 + takers as u32).contains(partner) || *partner == NO_HELPER,
                "offer {i} was told its taker is {partner}"
            );
        }
    }
    out
}

/// One offer against one take, every interleaving: rendezvous, missed
/// windows, and the retract-vs-`BUSY` race all keep the invariants —
/// and both outcomes of that race occur.
#[test]
fn exchanger_offer_take_race() {
    let _serial = serial();
    let retract_won = AtomicBool::new(false);
    let busy_won = AtomicBool::new(false);
    let missed = AtomicBool::new(false);
    let report = unbounded().explore(|| {
        let seen = exchange_body(1, &[(7, 0)], 1);
        match (seen.saw_waiting, seen.offers[0].is_ok()) {
            // Both reached their C&S on WAITING; one of them won it.
            (true, true) => busy_won.store(true, Ordering::Relaxed),
            (true, false) => retract_won.store(true, Ordering::Relaxed),
            (false, true) => panic!("an exchange without a taker at WAITING"),
            (false, false) => missed.store(true, Ordering::Relaxed),
        }
    });
    assert_exhausted("exchanger_offer_take_race", &report);
    assert!(report.schedules > 10, "{report}");
    assert!(
        busy_won.into_inner(),
        "no schedule let the taker's BUSY win"
    );
    assert!(
        retract_won.into_inner(),
        "no schedule let the retract beat a taker that had seen WAITING"
    );
    assert!(missed.into_inner(), "no schedule missed the window");
}

/// The same pair with a poll budget: the offeror notices the exchange
/// in its poll loop (state `BUSY`, or the tag already moved on) and
/// collects the taker's stamp.
#[test]
fn exchanger_polling_offer_learns_its_taker() {
    let _serial = serial();
    let stamped = AtomicBool::new(false);
    let report = unbounded().explore(|| {
        let seen = exchange_body(1, &[(7, 3)], 1);
        if seen.offers[0] == Ok(20) {
            assert_eq!(seen.takes[0], Some((7, 10)), "the taker names the offeror");
            stamped.store(true, Ordering::Relaxed);
        }
    });
    assert_exhausted("exchanger_polling_offer_learns_its_taker", &report);
    assert!(stamped.into_inner(), "no schedule exchanged stamps");
}

/// Two offers race for the one slot with no taker: at most one parks
/// at a time, nobody exchanges, both get their own item back.
#[test]
fn exchanger_two_offeror_claim_race() {
    let _serial = serial();
    for polls in [0, 1] {
        let report = unbounded().explore(|| {
            let seen = exchange_body(1, &[(7, polls), (9, polls)], 0);
            assert_eq!(seen.offers, [Err(7), Err(9)], "an exchange with no taker");
        });
        assert_exhausted(
            &format!("exchanger_two_offeror_claim_race (polls {polls})"),
            &report,
        );
        assert!(report.schedules > 20, "{report}");
    }
}

/// Two takers race for one parked item: it is taken at most once (the
/// pairing check), and in some schedule it is taken.
#[test]
fn exchanger_racing_takers_take_at_most_once() {
    let _serial = serial();
    let taken = AtomicBool::new(false);
    let body = || {
        let seen = exchange_body(1, &[(7, 0)], 2);
        taken.fetch_or(seen.takes.iter().any(Option::is_some), Ordering::Relaxed);
    };
    bounded_then_swept(
        "exchanger_racing_takers_take_at_most_once",
        3,
        (0xE11A, SWEEP),
        body,
    );
    assert!(taken.into_inner(), "no schedule ever took the item");
}

/// Two offerors, one taker, two slots: whatever pairs, pairs exactly
/// once.
#[test]
fn exchanger_three_threads() {
    let _serial = serial();
    let exchanged = AtomicBool::new(false);
    let body = || {
        let seen = exchange_body(2, &[(7, 2), (9, 0)], 1);
        exchanged.fetch_or(seen.takes[0].is_some(), Ordering::Relaxed);
    };
    bounded_then_swept("exchanger_three_threads", 3, (0xE11A, SWEEP), body);
    assert!(exchanged.into_inner(), "no schedule ever exchanged");
}

// ---------------------------------------------------------------
// V8 — the publication record, through the combining slow path.
// ---------------------------------------------------------------

/// A counter whose weak operation is *not* atomic: a register read,
/// then a register write. Correct only under mutual exclusion — which
/// is what the combining slow path must provide.
struct Counter {
    value: Reg64,
}

impl Abortable for Counter {
    type Op = u64;
    type Response = u64;

    fn try_apply(&self, add: &u64) -> Result<u64, Aborted> {
        let next = self.value.read() + add;
        self.value.write(next);
        Ok(next)
    }
}

/// Injected combiner crashes are expected by the thousand; keep them
/// off stderr, and everything else on it.
fn quiet_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("chaos: injected panic"));
            if !injected {
                default(info);
            }
        }));
    });
}

/// What an exploration's combining executions observed, summed.
#[derive(Default)]
struct Combined {
    /// Operations whose combiner tenure crashed (their response lost).
    crashed: AtomicU64,
    /// Requests completed by a combiner on their owner's behalf.
    handed_off: AtomicU64,
    /// Claims poisoned by a crash, reclaimed and reposted.
    poisoned: AtomicU64,
}

/// One execution: thread `p` applies the increment `1 << p` through
/// the combining slow path, with `crash` (if any) armed on the
/// `cs::combine` fail point. Checks the quiescent invariants and adds
/// what it observed to `seen`.
fn combining_body(n: usize, crash: Option<Plan>, seen: &Combined) {
    chaos::reset();
    if let Some(plan) = crash {
        chaos::arm_plan("cs::combine", plan);
    }
    let cs = Arc::new(ContentionSensitive::with_config(
        Counter {
            value: Reg64::new(0),
        },
        TasLock::new(),
        n,
        CsConfig::COMBINING.without_fast_path(),
    ));
    let run = |cs: &ContentionSensitive<Counter, TasLock>, proc: usize| {
        panic::catch_unwind(AssertUnwindSafe(|| cs.apply(proc, &(1u64 << proc)))).ok()
    };
    let children: Vec<_> = (1..n)
        .map(|proc| {
            let cs = Arc::clone(&cs);
            spawn(move || run(&cs, proc))
        })
        .collect();
    let mut responses = vec![run(&cs, 0)];
    responses.extend(children.into_iter().map(|child| child.join()));
    chaos::reset();

    // Quiescence: the lock is free and every record EMPTY, or one of
    // these blocks (pruned) or trips `post`'s assertion. The last one
    // reads the counter.
    let mut total = 0;
    for proc in 0..n {
        total = cs.apply(proc, &0);
    }
    // Exactly-once: every increment is in, once — a second application
    // of `1 << p` would carry into a neighbour's bit.
    assert_eq!(total, (1 << n) - 1, "lost or doubled apply: {responses:?}");
    // The responses chain: sorted, each contains its predecessor, its
    // own increment, and beyond that only a crasher's.
    let lost: u64 = (0..n)
        .filter(|&p| responses[p].is_none())
        .map(|p| 1u64 << p)
        .sum();
    let mut chain: Vec<(u64, u64)> = (0..n)
        .filter_map(|p| responses[p].map(|r| (r, 1u64 << p)))
        .collect();
    chain.sort_unstable();
    let mut before = 0u64;
    for (resp, own) in chain {
        assert!(
            resp & own != 0 && resp & before == before && resp & !(before | own | lost) == 0,
            "response chain broken at {resp:#b}: {responses:?}"
        );
        before = resp;
    }
    // A response is lost only to an injected crash.
    let crashed = responses.iter().filter(|r| r.is_none()).count() as u64;
    assert!(crashed == 0 || crash.is_some(), "⊥ without a crash");
    seen.crashed.fetch_add(crashed, Ordering::Relaxed);
    let handed_off = cs.combining_stats().combined;
    seen.handed_off.fetch_add(handed_off, Ordering::Relaxed);
    let poisoned = cs.fault_stats().record_poisoned;
    seen.poisoned.fetch_add(poisoned, Ordering::Relaxed);
}

/// Explores `combining_body(n, crash)`; returns how many operations
/// crashed, were handed off, and were poisoned over the exploration.
/// A slow-path operation passes ≈ 20 yield points, so these spaces
/// are the file's large ones (sizes beside each call).
fn explore_combining(
    name: &str,
    explorer: &Explorer,
    n: usize,
    crash: Option<Plan>,
) -> (u64, u64, u64) {
    let seen = Combined::default();
    let report = explorer.explore(|| combining_body(n, crash, &seen));
    let (crashed, handed_off, poisoned) = (
        seen.crashed.into_inner(),
        seen.handed_off.into_inner(),
        seen.poisoned.into_inner(),
    );
    println!("{name}: {report}; {handed_off} handed off, {crashed} crashed, {poisoned} poisoned");
    report.assert_ok();
    assert!(
        report.exhausted || report.schedules == SWEEP,
        "{name}: {report}"
    );
    (crashed, handed_off, poisoned)
}

/// Two processes, every interleaving (46k schedules, ≈ 6 s): post,
/// claim, complete, take — and the self-serve when nobody else is
/// posted.
#[test]
fn combining_two_process_handoff() {
    let _serial = serial();
    let (crashed, handed_off, poisoned) =
        explore_combining("combining_two_process_handoff", &unbounded(), 2, None);
    assert_eq!((crashed, poisoned), (0, 0));
    assert!(
        handed_off > 0,
        "no schedule took the complete route: CLAIMED → DONE → take_response"
    );
}

/// Two processes, the combiner dying at its first claimed request:
/// poison → reclaim → repost on every schedule that gets that far.
/// Unbounded this is 48k schedules and, unwinding a panic in most of
/// them, ≈ 16 s; bound 5 is 6k, plus a sweep for what the bound cuts.
#[test]
fn combining_two_process_combiner_crash() {
    let _serial = serial();
    quiet_injected_panics();
    let crash = Some(Plan::once(Fault::Panic));
    let (crashed, _, poisoned) = explore_combining(
        "combining_two_process_combiner_crash (bound 5)",
        &bounded(5),
        2,
        crash,
    );
    assert!(crashed > 0, "no schedule ever triggered the crash");
    assert!(
        poisoned > 0,
        "no schedule took the poison route: CLAIMED → POISONED → reclaim → repost"
    );
    explore_combining(
        "combining_two_process_combiner_crash (random)",
        &Explorer::random(0xC0B1, SWEEP),
        2,
        crash,
    );
}

/// Three clean processes: batches of two (one tenure serving both
/// waiters) stay exactly-once. Bound 3 is 26k schedules, ≈ 13 s — the
/// largest body of the lane.
#[test]
fn combining_three_process_batches() {
    let _serial = serial();
    for (name, explorer) in [
        ("bound 3", bounded(3)),
        ("random", Explorer::random(0xBA7C4, SWEEP)),
    ] {
        let name = format!("combining_three_process_batches ({name})");
        let (crashed, handed_off, poisoned) = explore_combining(&name, &explorer, 3, None);
        assert_eq!((crashed, poisoned), (0, 0));
        assert!(handed_off > 0);
    }
}

/// Three processes, the combiner dying *mid-batch* — after serving one
/// of its claims: the served owner has its response, the other's claim
/// is poisoned and retried. Bound 3 would be another 25k schedules and
/// 13 s for the clean body's space over again; bound 2 (1.9k) and the
/// sweep find the crash.
#[test]
fn combining_three_process_crash_mid_batch() {
    let _serial = serial();
    quiet_injected_panics();
    let mid_batch = Plan {
        fault: Fault::Panic,
        after: 1,
        one_in: 1,
        max_fires: 1,
    };
    for (name, explorer) in [
        ("bound 2", bounded(2)),
        ("random", Explorer::random(0xC0B17E5, SWEEP)),
    ] {
        let name = format!("combining_three_process_crash_mid_batch ({name})");
        let (crashed, _, poisoned) = explore_combining(&name, &explorer, 3, Some(mid_batch));
        assert!(crashed > 0, "{name}: the mid-batch crash never triggered");
        assert!(poisoned > 0, "{name}: no claim was poisoned");
    }
}
