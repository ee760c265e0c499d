//! # A guided tour: from the paper's text to this code
//!
//! This module is documentation only — a section-by-section
//! concordance between *Mostefaoui & Raynal, “Looking for Efficient
//! Implementations of Concurrent Objects” (PI-1969, 2011)* and the
//! items in this workspace.
//!
//! ## §2 — Computation model
//!
//! | Paper | Code |
//! |---|---|
//! | processes `p_1..p_n`, identities | [`cso_memory::registry::ProcRegistry`] (0-based) |
//! | atomic registers: read / write / `C&S` | [`cso_memory::reg::Reg64`], [`RegBool`](cso_memory::reg::RegBool), [`RegUsize`](cso_memory::reg::RegUsize) — every access counted ([`cso_memory::counting`]) |
//! | §2.2 the ABA problem & sequence numbers | the `seq` fields of [`cso_memory::packed::TopWord`] / [`SlotWord`](cso_memory::packed::SlotWord) |
//!
//! ## §3 — The abortable stack (Figure 1) and non-blocking stack (Figure 2)
//!
//! ```text
//! operation weak_push(v):
//! (01) (index, value, seqnb) ← TOP;                      ┐ AbortableStack::weak_push
//! (02) help(index, value, seqnb);                        │   lines map 1:1 onto the
//! (03) if (index = k) then return(full) end if;          │   commented statements in
//! (04) sn_of_next ← STACK[index + 1].sn;                 │   crates/stack/src/abortable.rs
//! (05) newtop ← ⟨index+1, v, sn_of_next+1⟩;              │
//! (06) if TOP.C&S(⟨index,value,seqnb⟩, newtop)           │
//! (07)    then return(done) else return(⊥) end if.       ┘
//!
//! procedure help(index, value, seqnb):
//! (15) stacktop ← STACK[index].val;                      ┐ AbortableStack::help
//! (16) STACK[index].C&S(⟨stacktop,seqnb−1⟩,⟨value,seqnb⟩)┘
//! ```
//!
//! | Paper | Code |
//! |---|---|
//! | Figure 1 (`weak_push`/`weak_pop`, `help`) | [`cso_stack::AbortableStack`] |
//! | ⊥ | [`cso_core::Aborted`] |
//! | abortable-object notion (§1.2) | the [`cso_core::Abortable`] trait and its contract |
//! | `done`/`full`, value/`empty` | [`cso_stack::PushOutcome`], [`cso_stack::PopOutcome`] |
//! | linearization points (§3) | documented on [`cso_stack::AbortableStack`]; *checked* by [`cso_lincheck::checker::check_linearizable`] over live histories and, under the `model` feature, over **all** schedules of bounded instances of this very type (`tests/model_weak.rs`) |
//! | Figure 2 (`repeat … until ≠ ⊥`) | [`cso_core::NonBlocking`] (generic) and [`cso_stack::NonBlockingStack`] |
//! | progress conditions hierarchy (§1.2) | [`cso_core::progress::ProgressCondition`] |
//!
//! Figure 1 has no model-checker twin: under the `model` feature every
//! counted access of `AbortableStack` itself is a scheduling decision
//! of `cso-sched`, so the lines above are explored as shipped — packed
//! words, 16-bit tags and all. The one hand-written copy left,
//! `tests/model_mutation.rs`, exists to be *broken*: it moves the
//! line-02 help after the C&S and must be caught.
//!
//! ## §4 — The contention-sensitive stack (Figure 3)
//!
//! ```text
//! operation strong_push_or_pop(par):                        % code for p_i %
//! (01) if (¬CONTENTION)                                     ┐ fast path:
//! (02)    then res ← weak_push_or_pop(par);                 │ ContentionSensitive::apply,
//!              if (res ≠ ⊥) then return(res) end if         │ lines 01–03
//! (03) end if;                                              ┘
//! (04) FLAG[i] ← true;                                      ┐
//! (05) wait((TURN = i) ∨ (¬FLAG[TURN]));                    │ StarvationFree::lock
//! (06) LOCK.lock();                                         ┘ (§4.4 booster)
//! (07) CONTENTION ← true;                                   ┐
//! (08) repeat res ← weak_push_or_pop(par) until res ≠ ⊥;    │ slow path
//! (09) CONTENTION ← false;                                  ┘
//! (10) FLAG[i] ← false;                                     ┐
//! (11) if (¬FLAG[TURN]) then TURN ← (TURN mod n) + 1;       │ StarvationFree::unlock
//! (12) LOCK.unlock();                                       ┘
//! (13) return(res).
//! ```
//!
//! | Paper | Code |
//! |---|---|
//! | Figure 3, generic over the object | [`cso_core::ContentionSensitive`] |
//! | Figure 3 for the stack | [`cso_stack::CsStack`] |
//! | the deadlock-free lock it assumes | any [`cso_locks::RawLock`]; default [`cso_locks::TasLock`] |
//! | §4.4 starred lines as a standalone booster | [`cso_locks::StarvationFree`] |
//! | Theorem 1 (non-⊥, linearizable, 6 accesses, lock-free solo) | asserted in `tests/theorem1.rs` and `tests/step_budget.rs`; model-checked on `CsStack`/`CsQueue`/`CsDeque` in `tests/model_explore.rs` |
//! | Lemmas 2–3 (termination, eventual lock acquisition) | bounded mechanical form: `cso_sched::Explorer::round_robin` fair runs of `CsStack` (`tests/model_explore.rs`) and of the starvation-free locks (`tests/model_locks.rs`); hostile-workload stress in `cso-locks` |
//! | the remark that a starvation-free lock makes FLAG/TURN unnecessary | [`cso_core::CsConfig::UNFAIR`] uses the bare lock; pair [`cso_stack::CsStack::with_lock`] with [`cso_locks::TicketLock`] for the remark's configuration |
//!
//! ## §5 — Concluding remarks
//!
//! | Paper | Code |
//! |---|---|
//! | contention managers (refs \[4\], \[25\], \[5\]) | [`cso_memory::backoff::retry_pause`], Figure 3's one pacing: a constant window gets most of the gain (Dice–Hendler–Mirsky), and Figure 2's [`NonBlocking`](cso_core::NonBlocking) retries at once, as printed |
//! | abortable mutual exclusion (§1.2, ref \[13\]) | [`cso_locks::StarvationFree::lock_until`] |
//! | Lamport's fast mutex (§1.1, ref \[16\], “seven accesses”) | [`cso_locks::LamportFastLock`] — measured at exactly 7 |
//! | the queue as the non-interference example (§1.1) | the whole of [`cso_queue`]: enqueue CASes only `TAIL`, dequeue only `HEAD`; exhaustively verified non-interfering |
//! | obstruction-freedom's defining example (§1.2, ref \[8\]: HLM deques) | the whole of [`cso_deque`]: the deque as an abortable object, the original retry loop ([`HlmDeque`](cso_deque::HlmDeque), obstruction-free *only*), and Figure 3 lifting it to starvation freedom ([`CsDeque`](cso_deque::CsDeque)) |
//!
//! ## Known discrepancies and deliberate choices
//!
//! * **“Six” vs “seven”.** §1.2 announces seven accesses for the
//!   contention-free stack operation; Theorem 1 proves six. Our
//!   measurement sides with the theorem (six); Lamport's fast mutex
//!   is the seven.
//! * **Line 02 is retried.** The figure escalates to line 04 on the
//!   first ⊥; [`cso_core::ContentionSensitive`] re-runs lines 01–02 up
//!   to [`cso_core::FAST_RETRIES`] times, a constant pause apart,
//!   before it does — `CONTENTION` re-read every time, so Lemma 2's
//!   argument is the figure's. Contention-free nothing changes (attempt
//!   0 succeeds: six accesses, no lock); an operation that aborts `k`
//!   times and completes lock-free spends `6 + 6k`. Why, and what it
//!   buys under contention: `DESIGN.md`, "The escalation ladder".
//! * **Line 01 is waited out.** The figure sends an operation that
//!   reads `CONTENTION` raised straight to line 04; here that read ends
//!   the attempt, not the loop, and costs the same pause and the same
//!   bound as an abort. No weak operation runs until a read returns
//!   `false`, which is all Lemma 2 needs, and after
//!   [`cso_core::FAST_ATTEMPTS`] attempts lines 04–13 run as printed.
//!   Lock trips per real escalation fall from a convoy of several to
//!   one; an operation that waits out `j` raises and aborts `k` times
//!   spends `j + 6 + 6k`.
//! * **0-based identities.** The paper's `p_1..p_n` and
//!   `TURN ← (TURN mod n) + 1` become `0..n` and
//!   `TURN ← (TURN + 1) mod n`.
//! * **Bounded tags.** The paper's sequence numbers are unbounded
//!   integers; the registers here pack 16-bit tags (wrap analysis in
//!   `DESIGN.md`, wrap stress tests in `tests/wraparound.rs`; the
//!   model checker explores the packed words themselves).
//! * **Crash tolerance (§5).** Like the paper, the lock-free layers
//!   tolerate crashes anywhere; the Figure 3 layer tolerates crashes
//!   anywhere *except while holding the lock*. Both halves — the
//!   tolerance and the caveat — are demonstrated mechanically in
//!   `tests/model_crash.rs` by freezing a process at every prefix of
//!   its operation (`cso_sched::spawn_crashing`).

// This module intentionally declares no items.
