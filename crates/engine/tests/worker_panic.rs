//! Worker-panic containment: a die whose flash phase panics on a pool lane
//! surfaces as a typed `WorkerPanicked` instead of a hang, poisons only its
//! own engine, and leaves the lane serving every other engine on it.

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use rd_engine::{Engine, EngineConfig, PoolHandle, WorkerPanicked, WorkerPool};
use rd_ftl::{ControllerPolicy, PolicyAction, PolicyContext, ReadOutcome};
use rd_workloads::{OpKind, TraceOp};

/// Test fixture: panics on the `n`th host read that reaches the array.
#[derive(Debug, Clone)]
struct PanicOnRead {
    n: u64,
    seen: u64,
}

impl ControllerPolicy for PanicOnRead {
    fn name(&self) -> &'static str {
        "panic-on-read"
    }

    fn on_read(
        &mut self,
        _ctx: &mut PolicyContext<'_>,
        _block: u32,
        _outcome: &ReadOutcome,
    ) -> Vec<PolicyAction> {
        self.seen += 1;
        assert!(self.seen < self.n, "injected panic on read {}", self.n);
        Vec::new()
    }
}

/// An engine whose die 0 holds lpa 0 and panics on its second read of it.
fn faulty_engine() -> Engine<PanicOnRead> {
    let mut engine =
        Engine::with_policy(EngineConfig::small_test(), PanicOnRead { n: 2, seen: 0 }).unwrap();
    engine.submit_write(0);
    engine.run(1);
    engine
}

/// Runs `f` on a helper thread and fails the test if it does not return
/// within `secs` seconds. A hung helper stays parked; the test binary still
/// exits.
fn within<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let helper = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(value) => value,
        Err(RecvTimeoutError::Timeout) => panic!("no result within {secs} s"),
        Err(RecvTimeoutError::Disconnected) => {
            panic::resume_unwind(helper.join().expect_err("helper hung up without a result"))
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload.downcast::<String>().map(|s| *s).unwrap_or_default()
}

#[test]
fn join_batch_reports_the_panicked_die_and_the_lane_survives() {
    within(5, || {
        let pool = Arc::new(WorkerPool::new(1));
        let mut faulty = faulty_engine();
        faulty.attach_pool(PoolHandle::all(Arc::clone(&pool)));
        let mut healthy = Engine::new(EngineConfig::small_test()).unwrap();
        healthy.attach_pool(PoolHandle::all(pool));

        faulty.submit_read(0);
        faulty.submit_read(0);
        faulty.begin_batch(1);
        assert_eq!(faulty.join_batch(), Err(WorkerPanicked { die: 0 }));

        // The one lane both engines share still runs jobs.
        healthy.submit_write(0);
        healthy.submit_read(0);
        assert_eq!(healthy.run(1), 2);
        assert!(healthy.drain_completions().iter().all(|c| c.result.is_ok()));

        // The faulty engine is poisoned; later use names the lost die.
        let later = panic::catch_unwind(AssertUnwindSafe(|| faulty.stats())).unwrap_err();
        assert_eq!(panic_message(later), "die 0 poisoned by a worker panic");
    });
}

#[test]
fn fused_entry_points_raise_the_worker_panic_on_the_caller() {
    let message = within(5, || {
        let mut engine = faulty_engine();
        let reads = (0..2).map(|i| TraceOp { time_s: f64::from(i), kind: OpKind::Read, lpa: 0 });
        let raised = panic::catch_unwind(AssertUnwindSafe(|| engine.replay_stats_only(reads, 1)));
        panic_message(raised.unwrap_err())
    });
    assert_eq!(message, "die 0 poisoned by a worker panic");
}
