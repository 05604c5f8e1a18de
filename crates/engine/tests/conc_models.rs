//! Exhaustive model-check suite for the engine's worker pool.
//!
//! Built and run **only** under `--cfg cprecycle_conc` (the `model-check` CI
//! job: `RUSTFLAGS="--cfg cprecycle_conc" cargo test -p cprecycle-engine
//! --test conc_models`). Under that cfg the `cprecycle_engine::sync` facade
//! resolves to the `conc` instrumented shims, so the *production source* of
//! [`WorkerPool`] — its one state mutex, both condvars and its model-thread
//! workers — is explored over every bounded interleaving rather than sampled
//! by stress tests. Two workers each: the idle barrier never returns while a
//! job or its requeued follow-up is live, shutdown runs every queued job, no
//! wakeup is lost between `submit` and a sleeping worker, and a panicking
//! handler neither kills its worker nor strands the barrier. The server that
//! runs on the pool is checked the same way in `crates/core/tests/conc_server.rs`.
#![cfg(cprecycle_conc)]

use std::sync::atomic::{AtomicUsize as StdAtomicUsize, Ordering as StdOrdering};
use std::sync::Arc;

use conc::Builder;
use cprecycle_engine::pool::WorkerPool;

/// `conc::thread` re-exported for spawning model threads in the shapes below.
use conc::thread as cthread;

/// Bounded-exhaustive exploration: every interleaving with at most
/// `preemptions` involuntary context switches (the loom/CHESS result: almost
/// all concurrency bugs manifest within 2 preemptions), asserting the bounded
/// space was *fully* explored.
fn model_bounded(preemptions: u32, f: impl Fn() + Send + Sync + 'static) {
    match Builder::new().max_preemptions(preemptions).check(f) {
        Ok(report) => assert!(
            report.complete,
            "bounded exploration must exhaust its space: {report:?}"
        ),
        Err(failure) => panic!("model check failed: {failure}"),
    }
}

// ---------------------------------------------------------------------------
// WorkerPool (production source, two model-thread workers)
// ---------------------------------------------------------------------------
//
// Handler bookkeeping uses *uninstrumented* std atomics: the checker's baton
// serializes all lanes, so they still observe schedule order, at zero model
// ops — the explored space stays the pool's own lock/condvar protocol.

/// A two-worker pool whose handler counts its runs into `runs` and turns a
/// job `n > 0` into the follow-up `n - 1`.
fn counting_pool(runs: &Arc<StdAtomicUsize>) -> WorkerPool<usize> {
    let runs = Arc::clone(runs);
    WorkerPool::new(
        2,
        |_| (),
        move |_, job: usize| {
            runs.fetch_add(1, StdOrdering::SeqCst);
            job.checked_sub(1)
        },
    )
}

#[test]
fn pool_wait_idle_waits_for_requeued_followups() {
    // Job 1 runs, requeues job 0, which runs: the barrier may return only after
    // both — a window between "handler returned" and "follow-up queued" would
    // let it return after one run on some schedule.
    model_bounded(2, || {
        let runs = Arc::new(StdAtomicUsize::new(0));
        let pool = counting_pool(&runs);
        pool.submit(1);
        pool.wait_idle();
        assert_eq!(
            runs.load(StdOrdering::SeqCst),
            2,
            "wait_idle returned with a live job or follow-up"
        );
        assert_eq!(pool.queued(), 0);
        pool.shutdown();
    });
}

#[test]
fn pool_shutdown_runs_every_queued_job() {
    // No barrier before shutdown: workers may be asleep, mid-job or not yet
    // started when the flag goes up, and must still drain the queue first.
    model_bounded(2, || {
        let runs = Arc::new(StdAtomicUsize::new(0));
        let pool = counting_pool(&runs);
        pool.submit(0);
        pool.submit(0);
        pool.shutdown();
        assert_eq!(
            runs.load(StdOrdering::SeqCst),
            2,
            "shutdown dropped a queued job"
        );
    });
}

#[test]
fn pool_submit_never_loses_a_sleeping_workers_wakeup() {
    // A submitter thread races the workers' way into `work_ready.wait`. A lost
    // wakeup leaves the job queued with every worker asleep, so the barrier
    // below never returns and the checker reports a deadlock on that schedule.
    model_bounded(2, || {
        let runs = Arc::new(StdAtomicUsize::new(0));
        let pool = Arc::new(counting_pool(&runs));
        let submitter = {
            let pool = Arc::clone(&pool);
            cthread::spawn(move || pool.submit(0))
        };
        submitter.join().unwrap();
        pool.wait_idle();
        assert_eq!(runs.load(StdOrdering::SeqCst), 1);
        // Second round, submitted once both workers had the chance to park.
        pool.submit(0);
        pool.wait_idle();
        assert_eq!(runs.load(StdOrdering::SeqCst), 2);
        pool.shutdown();
    });
}

#[test]
fn pool_panicking_handler_keeps_worker_and_barrier() {
    // Job 0 panics inside the handler. Its worker must survive (the second job
    // still runs even if that worker is the only one awake) and `in_flight`
    // must come back down, or `wait_idle` deadlocks.
    model_bounded(2, || {
        let runs = Arc::new(StdAtomicUsize::new(0));
        let r = Arc::clone(&runs);
        let pool = WorkerPool::new(
            2,
            |_| (),
            move |_, job: usize| {
                if job == 0 {
                    std::panic::panic_any("handler fault");
                }
                r.fetch_add(1, StdOrdering::SeqCst);
                None
            },
        );
        pool.submit(0);
        pool.submit(1);
        pool.wait_idle();
        assert_eq!(runs.load(StdOrdering::SeqCst), 1);
        pool.shutdown();
    });
}
