//! Reusable worker-pool primitives shared by the campaign executor and the
//! multi-session receiver server.
//!
//! Two shapes of parallelism live here:
//!
//! * [`run_claiming`] — the *finite-queue* pattern [`crate::exec`] is built on: a
//!   known number of work items, claimed one at a time through an atomic cursor by
//!   scoped worker threads, each carrying lazily-constructed worker-local state
//!   (receiver caches, FFT plans, scratch buffers). Dynamic claiming keeps every
//!   worker busy under imbalanced workloads without per-thread deques, and any
//!   worker can raise a pool-wide stop so a doomed run does not burn the rest of
//!   the queue.
//! * [`WorkerPool`] — the *standing* sibling for open-ended workloads
//!   (`cprecycle::server::RxServer`): long-lived named threads draining one
//!   mutex-guarded FIFO injector, with lazily-built worker-local state, plus an
//!   idle barrier ([`WorkerPool::wait_idle`]) callers use as a drain point and a
//!   graceful [`WorkerPool::shutdown`] that finishes queued jobs before the
//!   threads exit.
//!
//! Neither primitive makes scheduling observable to the work it runs: `run_claiming`
//! hands out items by index and leaves all reduction to the caller (the executor
//! reduces in trial-index order, which is what keeps campaign tallies bit-identical
//! across worker counts), and `WorkerPool` guarantees a handler's side effects for
//! one job happen-before the next job's handler run on any thread (the mutex
//! hand-off), which is what the receiver server's per-session ordering builds on.

use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

// All locks, condvars and threads come through the facade (std normally, the
// `conc` model-checker shims under `--cfg cprecycle_conc`). `run_claiming`'s
// scoped threads and atomics are the documented exceptions — see `crate::sync`.
use crate::sync::thread::JoinHandle;
use crate::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Runs `total` work items over `workers` scoped threads, each item claimed through
/// a shared atomic cursor.
///
/// * `new_worker(worker_index)` lazily builds one worker-local state the first time
///   that worker claims an item, so a worker that never claims pays nothing;
/// * `work(state, item_index)` processes one item and may return
///   [`ControlFlow::Break`] to stop the whole pool: no worker claims further items
///   (in-flight items still finish);
/// * `finish(state)` runs once per worker that built state, after its last item —
///   the hook the executor uses to flush per-worker gauges.
///
/// The function returns once every spawned worker has exited.
pub fn run_claiming<S, NW, W, F>(workers: usize, total: usize, new_worker: NW, work: W, finish: F)
where
    NW: Fn(usize) -> S + Sync,
    W: Fn(&mut S, usize) -> ControlFlow<()> + Sync,
    F: Fn(S) + Sync,
{
    let cursor = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for w in 0..workers.max(1) {
            let cursor = &cursor;
            let stop = &stop;
            let new_worker = &new_worker;
            let work = &work;
            let finish = &finish;
            scope.spawn(move || {
                let mut state: Option<S> = None;
                loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let item = cursor.fetch_add(1, Ordering::Relaxed);
                    if item >= total {
                        break;
                    }
                    let state = state.get_or_insert_with(|| new_worker(w));
                    if let ControlFlow::Break(()) = work(state, item) {
                        stop.store(true, Ordering::Relaxed);
                        break;
                    }
                }
                if let Some(state) = state.take() {
                    finish(state);
                }
            });
        }
    });
}

/// Everything a [`WorkerPool`] shares between submitters, workers and idle
/// waiters, under one lock: that single lock decides queue order, the idle
/// barrier and who sleeps, so no update discipline between separate atomics is
/// needed.
struct PoolState<J> {
    /// Submitted jobs not yet claimed, FIFO.
    queue: VecDeque<J>,
    /// Jobs currently inside a handler.
    in_flight: usize,
    /// Workers parked on `work_ready`.
    sleepers: usize,
    /// Callers parked in [`WorkerPool::wait_idle`].
    idle_waiters: usize,
    /// Once set, workers exit as soon as the queue is empty; queued jobs still run.
    shutting_down: bool,
}

impl<J> PoolState<J> {
    fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.in_flight == 0
    }
}

struct PoolShared<J> {
    state: Mutex<PoolState<J>>,
    /// Signalled when a job is queued (or shutdown begins) and a worker sleeps.
    work_ready: Condvar,
    /// Signalled when the pool turns idle and a caller waits for it.
    idle: Condvar,
}

impl<J> PoolShared<J> {
    fn lock(&self) -> MutexGuard<'_, PoolState<J>> {
        self.state.lock().expect("pool state poisoned")
    }

    /// One worker thread's life: claim, run, account, repeat; park when the
    /// queue is empty; exit once it is empty and shutdown has begun.
    fn work<S, H>(&self, new_state: impl Fn() -> S, handler: &H)
    where
        H: Fn(&mut S, J) -> Option<J>,
    {
        let mut local: Option<S> = None;
        let mut state = self.lock();
        loop {
            if let Some(job) = state.queue.pop_front() {
                state.in_flight += 1;
                drop(state);
                let local = local.get_or_insert_with(&new_state);
                // A panicking handler loses its job, never the worker: the
                // unwind stops here, so `in_flight` still drops below and
                // `wait_idle`/`shutdown` cannot hang on a dead thread.
                let followup =
                    catch_unwind(AssertUnwindSafe(|| handler(local, job))).unwrap_or(None);
                state = self.lock();
                // The follow-up is queued in the same critical section that
                // retires its parent, so `wait_idle` never sees the gap. This
                // worker claims it itself, so no sleeper needs waking.
                if let Some(next) = followup {
                    state.queue.push_back(next);
                }
                state.in_flight -= 1;
                if state.idle_waiters > 0 && state.is_idle() {
                    self.idle.notify_all();
                }
            } else if state.shutting_down {
                return;
            } else {
                state.sleepers += 1;
                state = self.work_ready.wait(state).expect("pool state poisoned");
                state.sleepers -= 1;
            }
        }
    }
}

/// A fixed pool of long-lived worker threads with worker-local state, draining one
/// FIFO injector queue of jobs submitted over time.
///
/// A handler may return `Some(job)` to atomically requeue a follow-up at the back
/// of the queue (the receiver server uses this to yield a long-backlogged session
/// back to the pool so other sessions get a turn, without ever leaving the session
/// in a "work pending but unscheduled" state). [`wait_idle`](Self::wait_idle)
/// blocks until the queue is empty *and* no handler is running — the drain
/// barrier — and [`shutdown`](Self::shutdown) finishes all queued jobs before
/// joining the threads (dropping the pool shuts it down the same way). A handler
/// that panics loses its job but not its worker.
///
/// ```
/// use cprecycle_engine::pool::WorkerPool;
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
///
/// let sum = Arc::new(AtomicUsize::new(0));
/// let handler_sum = Arc::clone(&sum);
/// let pool = WorkerPool::new(
///     4,
///     |_worker| 0usize, // worker-local scratch (receiver caches, FFT plans, …)
///     move |local, job: usize| {
///         *local += 1;
///         handler_sum.fetch_add(job, Ordering::Relaxed);
///         None // nothing to requeue
///     },
/// );
/// for job in 0..100 {
///     pool.submit(job);
/// }
/// pool.wait_idle();
/// assert_eq!(sum.load(Ordering::Relaxed), (0..100).sum());
/// pool.shutdown();
/// ```
pub struct WorkerPool<J: Send + 'static> {
    shared: Arc<PoolShared<J>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    workers: usize,
}

impl<J: Send + 'static> WorkerPool<J> {
    /// Spawns `threads` named worker threads (`rx-pool-<n>`; at least one).
    ///
    /// `new_worker(worker_index)` lazily builds the worker-local state on the first
    /// job that worker claims; `handler(state, job)` processes one job and may
    /// return a follow-up job to requeue. The requeue is atomic with respect to
    /// [`wait_idle`](Self::wait_idle): the pool never appears idle between a
    /// handler returning a follow-up and that follow-up being queued.
    pub fn new<S, NW, H>(threads: usize, new_worker: NW, handler: H) -> Self
    where
        S: 'static,
        NW: Fn(usize) -> S + Send + Sync + 'static,
        H: Fn(&mut S, J) -> Option<J> + Send + Sync + 'static,
    {
        let workers = threads.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                in_flight: 0,
                sleepers: 0,
                idle_waiters: 0,
                shutting_down: false,
            }),
            work_ready: Condvar::new(),
            idle: Condvar::new(),
        });
        let ctx = Arc::new((new_worker, handler));
        let threads = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                let ctx = Arc::clone(&ctx);
                crate::sync::thread::Builder::new()
                    .name(format!("rx-pool-{w}"))
                    .spawn(move || shared.work(|| (ctx.0)(w), &ctx.1))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            threads: Mutex::new(threads),
            workers,
        }
    }

    /// Enqueues one job at the back of the queue.
    ///
    /// Jobs submitted before (or concurrently with) [`shutdown`](Self::shutdown)
    /// still run; callers layering their own lifecycle (the receiver server closes
    /// sessions before shutting the pool down) should stop submitting first.
    pub fn submit(&self, job: J) {
        let mut state = self.shared.lock();
        state.queue.push_back(job);
        // A sleeper counted here is already parked on `work_ready` (it registers
        // and waits under this lock), so notifying after unlock cannot miss it.
        let wake = state.sleepers > 0;
        drop(state);
        if wake {
            self.shared.work_ready.notify_one();
        }
    }

    /// Blocks until no job is queued and no handler is running.
    pub fn wait_idle(&self) {
        let mut state = self.shared.lock();
        while !state.is_idle() {
            state.idle_waiters += 1;
            state = self.shared.idle.wait(state).expect("pool state poisoned");
            state.idle_waiters -= 1;
        }
    }

    /// Number of jobs waiting in the queue (not counting in-flight ones).
    pub fn queued(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// Number of worker threads the pool was built with.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Finishes every queued job, then joins the worker threads. Idempotent; also
    /// runs on drop. Must not be called from inside a handler (a worker cannot
    /// join itself).
    pub fn shutdown(&self) {
        self.shared.lock().shutting_down = true;
        self.shared.work_ready.notify_all();
        let mut threads = self.threads.lock().expect("pool threads poisoned");
        for t in threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl<J: Send + 'static> Drop for WorkerPool<J> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn run_claiming_visits_every_item_exactly_once() {
        let seen: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        run_claiming(
            4,
            seen.len(),
            |w| w,
            |_, i| {
                seen[i].fetch_add(1, Ordering::Relaxed);
                ControlFlow::Continue(())
            },
            |_| {},
        );
        for (i, s) in seen.iter().enumerate() {
            assert_eq!(s.load(Ordering::Relaxed), 1, "item {i}");
        }
    }

    #[test]
    fn run_claiming_break_stops_further_claims_serially() {
        let calls = AtomicUsize::new(0);
        run_claiming(
            1,
            50,
            |_| (),
            |_, _| {
                calls.fetch_add(1, Ordering::Relaxed);
                ControlFlow::Break(())
            },
            |_| {},
        );
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn run_claiming_builds_state_lazily_and_finishes_it() {
        // More workers than items: extra workers must neither build nor finish state.
        let built = AtomicUsize::new(0);
        let finished = AtomicUsize::new(0);
        run_claiming(
            8,
            2,
            |w| {
                built.fetch_add(1, Ordering::Relaxed);
                w
            },
            |_, _| ControlFlow::Continue(()),
            |_| {
                finished.fetch_add(1, Ordering::Relaxed);
            },
        );
        let b = built.load(Ordering::Relaxed);
        assert!((1..=2).contains(&b), "built {b}");
        assert_eq!(finished.load(Ordering::Relaxed), b);
    }

    #[test]
    fn worker_pool_runs_submitted_jobs_and_waits_idle() {
        let sum = Arc::new(AtomicU64::new(0));
        let s = Arc::clone(&sum);
        let pool = WorkerPool::new(
            3,
            |_| (),
            move |_, job: u64| {
                s.fetch_add(job, Ordering::Relaxed);
                None
            },
        );
        for j in 1..=100u64 {
            pool.submit(j);
        }
        pool.wait_idle();
        assert_eq!(sum.load(Ordering::Relaxed), 5050);
        assert_eq!(pool.queued(), 0);
    }

    #[test]
    fn worker_pool_shutdown_finishes_queued_jobs() {
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        let pool = WorkerPool::new(
            1,
            |_| (),
            move |_, _job: usize| {
                std::thread::sleep(std::time::Duration::from_millis(1));
                d.fetch_add(1, Ordering::Relaxed);
                None
            },
        );
        for j in 0..20 {
            pool.submit(j);
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::Relaxed), 20);
        // Idempotent.
        pool.shutdown();
    }

    #[test]
    fn worker_pool_requeues_handler_followups_atomically() {
        // Each seed job spawns a chain of follow-ups; wait_idle must not return
        // until every chain is exhausted.
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        let pool = WorkerPool::new(
            4,
            |_| (),
            move |_, job: usize| {
                d.fetch_add(1, Ordering::Relaxed);
                (job > 0).then(|| job - 1)
            },
        );
        for _ in 0..8 {
            pool.submit(9); // 10 handler runs each
        }
        pool.wait_idle();
        assert_eq!(done.load(Ordering::Relaxed), 80);
    }

    #[test]
    fn worker_pool_state_is_worker_local() {
        // With one worker, its local counter must see every job.
        let last = Arc::new(AtomicUsize::new(0));
        let l = Arc::clone(&last);
        let pool = WorkerPool::new(
            1,
            |_| 0usize,
            move |count, _job: usize| {
                *count += 1;
                l.store(*count, Ordering::Relaxed);
                None
            },
        );
        for j in 0..25 {
            pool.submit(j);
        }
        pool.wait_idle();
        assert_eq!(last.load(Ordering::Relaxed), 25);
    }

    #[test]
    fn worker_pool_survives_a_panicking_handler() {
        // One worker: if the panic killed it, nothing after job 3 would run and
        // wait_idle would hang on the stranded in-flight count.
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        let pool = WorkerPool::new(
            1,
            |_| (),
            move |_, job: usize| {
                assert_ne!(job, 3, "handler fault injected for job 3");
                r.fetch_add(1, Ordering::Relaxed);
                None
            },
        );
        for j in 0..10 {
            pool.submit(j);
        }
        pool.wait_idle();
        assert_eq!(
            ran.load(Ordering::Relaxed),
            9,
            "every job but the faulting one ran"
        );
        for j in 10..15 {
            pool.submit(j);
        }
        pool.wait_idle();
        assert_eq!(
            ran.load(Ordering::Relaxed),
            14,
            "the worker outlives the fault"
        );
        pool.shutdown();
    }
}
