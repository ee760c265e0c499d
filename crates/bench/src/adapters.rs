//! Uniform adapters over every stack implementation, so the
//! experiment binaries can sweep a whole suite with one driver.

use cso_core::CsConfig;
use cso_locks::{TasLock, TicketLock};
use cso_stack::{CsStack, LockStack, NonBlockingStack, PushOutcome};

/// A stack under benchmark: push returns `false` on `Full`.
pub trait BenchStack: Send + Sync {
    /// Implementation name shown in tables.
    fn name(&self) -> &'static str;

    /// Pushes on behalf of process `proc`.
    fn push(&self, proc: usize, value: u32) -> bool;

    /// Pops on behalf of process `proc`.
    fn pop(&self, proc: usize) -> Option<u32>;
}

/// The contention-sensitive stack (Figure 3), paper configuration.
pub struct CsAdapter(pub CsStack<u32>);

impl BenchStack for CsAdapter {
    fn name(&self) -> &'static str {
        "cs-stack"
    }

    fn push(&self, proc: usize, value: u32) -> bool {
        self.0.push(proc, value) == PushOutcome::Pushed
    }

    fn pop(&self, proc: usize) -> Option<u32> {
        self.0.pop(proc).into_option()
    }
}

/// The non-blocking stack (Figure 2).
pub struct NbAdapter(pub NonBlockingStack<u32>);

impl BenchStack for NbAdapter {
    fn name(&self) -> &'static str {
        "nb-stack"
    }

    fn push(&self, _proc: usize, value: u32) -> bool {
        self.0.push(value) == PushOutcome::Pushed
    }

    fn pop(&self, _proc: usize) -> Option<u32> {
        self.0.pop().into_option()
    }
}

/// Everything under one TAS lock.
pub struct LockTasAdapter(pub LockStack<u32, TasLock>);

impl BenchStack for LockTasAdapter {
    fn name(&self) -> &'static str {
        "lock(tas)"
    }

    fn push(&self, _proc: usize, value: u32) -> bool {
        self.0.push(value) == PushOutcome::Pushed
    }

    fn pop(&self, _proc: usize) -> Option<u32> {
        self.0.pop().into_option()
    }
}

/// Everything under one ticket lock.
pub struct LockTicketAdapter(pub LockStack<u32, TicketLock>);

impl BenchStack for LockTicketAdapter {
    fn name(&self) -> &'static str {
        "lock(ticket)"
    }

    fn push(&self, _proc: usize, value: u32) -> bool {
        self.0.push(value) == PushOutcome::Pushed
    }

    fn pop(&self, _proc: usize) -> Option<u32> {
        self.0.pop().into_option()
    }
}

/// A `CsStack` with an explicit config (E5's `cs/unfair` row).
pub struct CsConfigAdapter {
    label: &'static str,
    stack: CsStack<u32>,
}

impl CsConfigAdapter {
    /// Builds a stack under `config` with the given display label.
    #[must_use]
    pub fn new(
        label: &'static str,
        capacity: usize,
        n: usize,
        config: CsConfig,
    ) -> CsConfigAdapter {
        CsConfigAdapter {
            label,
            stack: CsStack::with_config(capacity, TasLock::new(), n, config),
        }
    }
}

impl BenchStack for CsConfigAdapter {
    fn name(&self) -> &'static str {
        self.label
    }

    fn push(&self, proc: usize, value: u32) -> bool {
        self.stack.push(proc, value) == PushOutcome::Pushed
    }

    fn pop(&self, proc: usize) -> Option<u32> {
        self.stack.pop(proc).into_option()
    }
}

/// The standard stack suite swept by E3/E5: the paper's two lock-free
/// constructions and two fully locked baselines — the rows ROADMAP
/// 1(a) keeps for the yardstick.
#[must_use]
pub fn stack_suite(capacity: usize, n: usize) -> Vec<Box<dyn BenchStack>> {
    vec![
        Box::new(CsAdapter(CsStack::new(capacity, n))),
        Box::new(NbAdapter(NonBlockingStack::new(capacity))),
        Box::new(LockTasAdapter(LockStack::new(capacity))),
        Box::new(LockTicketAdapter(LockStack::with_lock(
            capacity,
            TicketLock::new(),
        ))),
    ]
}

/// Pre-fills a stack with `count` values from process 0.
pub fn prefill_stack(stack: &dyn BenchStack, count: usize) {
    for v in 0..count as u32 {
        assert!(
            stack.push(0, v),
            "prefill exceeded capacity of {}",
            stack.name()
        );
    }
}

/// The standard timed driver: `threads` threads issue operations from
/// `mix` with `think_iters` pause instructions between operations.
/// Returns per-thread completed-operation counts (`Full`/`Empty`
/// answers count — they are completed operations).
pub fn drive_stack(
    stack: &dyn BenchStack,
    threads: usize,
    duration: std::time::Duration,
    mix: crate::workload::OpMix,
    think_iters: u32,
) -> crate::measure::RunResult {
    use std::sync::atomic::Ordering;
    crate::measure::timed_run(threads, duration, |thread, stop| {
        let mut rng = crate::workload::thread_rng(thread, 0xBEEF);
        let mut ops = 0u64;
        let mut value = thread as u32;
        while !stop.load(Ordering::Relaxed) {
            if mix.next_is_push(&mut rng) {
                stack.push(thread, value);
                value = value.wrapping_add(threads as u32);
            } else {
                stack.pop(thread);
            }
            ops += 1;
            crate::workload::think(think_iters);
        }
        ops
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_suite_round_trips() {
        for stack in stack_suite(64, 4) {
            assert!(stack.push(0, 7), "{}", stack.name());
            assert_eq!(stack.pop(1), Some(7), "{}", stack.name());
            assert_eq!(stack.pop(2), None, "{}", stack.name());
        }
    }

    #[test]
    fn ablation_adapter_works() {
        let adapter = CsConfigAdapter::new("cs/unfair", 16, 2, CsConfig::UNFAIR);
        assert!(adapter.push(0, 3));
        assert_eq!(adapter.pop(1), Some(3));
        assert_eq!(adapter.name(), "cs/unfair");
    }

    #[test]
    fn prefill_fills_exactly() {
        let adapter = CsAdapter(CsStack::new(64, 2));
        prefill_stack(&adapter, 10);
        let mut drained = 0;
        while adapter.pop(0).is_some() {
            drained += 1;
        }
        assert_eq!(drained, 10);
    }

    #[test]
    fn drive_stack_reports_ops_for_every_thread() {
        let adapter = CsAdapter(CsStack::new(1024, 3));
        prefill_stack(&adapter, 100);
        let result = drive_stack(
            &adapter,
            3,
            std::time::Duration::from_millis(30),
            crate::workload::OpMix::BALANCED,
            0,
        );
        assert_eq!(result.per_thread.len(), 3);
        assert!(result.total_ops() > 0);
    }
}
