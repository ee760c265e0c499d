//! What the implementation adds to §5 of the paper ("these algorithms
//! still work despite process crashes if no process crashes while
//! holding the lock"), on real threads.
//!
//! The model half — a process frozen at every prefix of an operation,
//! tolerance off the lock and the blocked survivor on it — is
//! `tests/model_crash.rs` at the workspace root. These two tests are
//! the implementation's answer to the caveat: a *panic* under the lock
//! is unwound by the RAII guard, and with a `RecoveryPolicy` armed
//! even a holder that never returns is succeeded, exactly once.

// ---------------------------------------------------------------------
// The implementation narrows the §5 caveat: panics are not crashes.
// ---------------------------------------------------------------------

/// The model (`tests/model_crash.rs`) shows a process *dead* inside the
/// critical section wedges the lock path forever. The real implementation distinguishes
/// the recoverable flavour: a slow path that **panics** (unwinds)
/// under the lock is cleaned up by the RAII guard — lock released,
/// `CONTENTION` restored — so the survivor completes instead of
/// blocking.
#[test]
fn real_transformation_recovers_from_a_panic_inside_the_lock() {
    use cso_core::{Abortable, Aborted, ContentionSensitive};
    use cso_locks::TasLock;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    /// The first attempt and every retry abort (forcing the slow
    /// path), the next attempt panics (under the lock), later ones
    /// behave.
    const UNDER_THE_LOCK: usize = cso_core::FAST_ATTEMPTS as usize;
    struct CrashDummy {
        stage: AtomicUsize,
        applied: AtomicU64,
    }

    impl Abortable for CrashDummy {
        type Op = ();
        type Response = u64;

        fn try_apply(&self, _op: &()) -> Result<u64, Aborted> {
            match self.stage.fetch_add(1, Ordering::SeqCst) {
                stage if stage < UNDER_THE_LOCK => Err(Aborted),
                UNDER_THE_LOCK => panic!("modelled crash inside the critical section"),
                _ => Ok(self.applied.fetch_add(1, Ordering::SeqCst) + 1),
            }
        }
    }

    let cs = ContentionSensitive::new(
        CrashDummy {
            stage: AtomicUsize::new(0),
            applied: AtomicU64::new(0),
        },
        TasLock::new(),
        2,
    );
    let unwound =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cs.apply(0, &()))).is_err();
    assert!(unwound, "the modelled crash must unwind");
    assert_eq!(cs.fault_stats().poisoned, 1);

    // Where the model's survivor spun forever, this one completes.
    assert_eq!(cs.apply(1, &()), 1);
    assert_eq!(cs.path_stats().total(), 1, "only the survivor's op counts");
}

// ---------------------------------------------------------------------
// And with a RecoveryPolicy armed, even real deaths are survived.
// ---------------------------------------------------------------------

/// Crash-at-every-step succession check: freeze a victim process at
/// each qualitatively distinct point of its slow-path operation —
/// before it reaches the lock, under the lock before its operation
/// applied, and under the lock *after* it applied — then mark it dead
/// and drive a survivor through a full workload.
///
/// Three properties must hold at every crash point:
/// * **liveness**: every survivor operation completes (succession,
///   where needed, is bounded);
/// * **conservation**: the counter equals exactly the sum of the
///   operations that applied;
/// * **exactly-once**: the victim's operation is counted zero times if
///   it died before applying, once if after — never twice, regardless
///   of the recovery that ran in between.
#[test]
fn recovery_succeeds_a_crash_at_every_step_exactly_once() {
    use cso_core::{Abortable, Aborted, ContentionSensitive, CsConfig, RecoveryPolicy};
    use cso_locks::TasLock;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Crash {
        BeforeLock,
        UnderLockBeforeApply,
        UnderLockAfterApply,
    }
    use Crash::*;

    /// A counter whose first *armed* application parks forever at the
    /// scripted point — the in-object half of the crash matrix.
    struct StagedCounter {
        crash: Crash,
        armed: AtomicBool,
        parked: Arc<AtomicBool>,
        value: AtomicU64,
    }

    impl StagedCounter {
        fn die(&self) -> ! {
            self.parked.store(true, Ordering::SeqCst);
            loop {
                std::thread::park();
            }
        }
    }

    impl Abortable for StagedCounter {
        type Op = u64;
        type Response = u64;

        fn try_apply(&self, op: &u64) -> Result<u64, Aborted> {
            if self.crash == UnderLockBeforeApply && self.armed.swap(false, Ordering::SeqCst) {
                self.die();
            }
            let v = self.value.fetch_add(*op, Ordering::SeqCst) + *op;
            if self.crash == UnderLockAfterApply && self.armed.swap(false, Ordering::SeqCst) {
                self.die();
            }
            Ok(v)
        }
    }

    const VICTIM_OP: u64 = 1_000;
    const SURVIVOR_OPS: u64 = 10;
    let policy = RecoveryPolicy {
        grace: Duration::from_secs(3600), // suspect only on mark_dead
        max_successions: 4,
        backoff: Duration::from_millis(1),
    };

    for crash in [BeforeLock, UnderLockBeforeApply, UnderLockAfterApply] {
        let parked = Arc::new(AtomicBool::new(false));
        let cs = Arc::new(ContentionSensitive::with_config(
            StagedCounter {
                crash,
                armed: AtomicBool::new(crash != BeforeLock),
                parked: Arc::clone(&parked),
                value: AtomicU64::new(0),
            },
            TasLock::new(),
            2,
            CsConfig::PAPER.without_fast_path().with_recovery(policy),
        ));

        // The victim (proc 0) runs until its scripted death; the
        // thread is leaked, playing the corpse.
        let _corpse = {
            let cs = Arc::clone(&cs);
            let parked = Arc::clone(&parked);
            std::thread::spawn(move || {
                if crash == BeforeLock {
                    parked.store(true, Ordering::SeqCst);
                    loop {
                        std::thread::park();
                    }
                }
                cs.apply(0, &VICTIM_OP);
            })
        };
        while !parked.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        cs.liveness().expect("recovery enabled").mark_dead(0);

        // Liveness: the survivor's whole workload completes.
        for _ in 0..SURVIVOR_OPS {
            cs.apply(1, &1);
        }

        // Conservation + exactly-once.
        let victim_applied = match crash {
            BeforeLock | UnderLockBeforeApply => 0,
            UnderLockAfterApply => VICTIM_OP,
        };
        assert_eq!(
            cs.inner().value.load(Ordering::SeqCst),
            SURVIVOR_OPS + victim_applied,
            "{crash:?}: conservation violated across the recovery"
        );

        // Succession ran exactly when the corpse held the lock.
        let stats = cs.recovery_stats().unwrap();
        let expected_successions = u64::from(crash != BeforeLock);
        assert_eq!(stats.successions, expected_successions, "{crash:?}");
        assert!(!stats.failed, "{crash:?}: budget of 4 cannot be exhausted");
        assert!(!cs.is_poisoned(), "{crash:?}");
    }
}
