//! Exhaustive model-check suite for the engine's worker pool and the server's
//! per-session ingress protocol.
//!
//! Built and run **only** under `--cfg cprecycle_conc` (the `model-check` CI
//! job: `RUSTFLAGS="--cfg cprecycle_conc" cargo test -p cprecycle-engine
//! --test conc_models`). Under that cfg the `cprecycle_engine::sync` facade
//! resolves to the `conc` instrumented shims, so the *production source* of
//! [`WorkerPool`] — its one state mutex, both condvars and its model-thread
//! workers — is explored over every bounded interleaving rather than sampled
//! by stress tests.
//!
//! Layout:
//! * [`WorkerPool`] models, two workers each: the idle barrier never returns
//!   while a job or its requeued follow-up is live, shutdown runs every queued
//!   job, no wakeup is lost between `submit` and a sleeping worker, and a
//!   panicking handler neither kills its worker nor strands the barrier;
//! * the server's ingress protocol, distilled in [`slot_sim`]: one mutex per
//!   session deciding order, occupancy and scheduling.
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

// ---------------------------------------------------------------------------
// Server ingress protocol (distilled from cprecycle::server)
// ---------------------------------------------------------------------------

/// The server's per-session ingress protocol reduced to its load-bearing parts:
/// one mutex over the item queue, the chunk count, the `scheduled` flag, the
/// `closed` flag and the blocked-producer count, plus the `space` condvar.
/// Pool jobs are modeled as spawned service threads: the only pool property
/// the protocol relies on is that a submitted job eventually runs on *some*
/// worker, concurrently with everything else — which is exactly what a thread
/// per job explores, without the pool's own interleavings (covered above).
mod slot_sim {
    use super::*;
    use cprecycle_engine::sync::{Condvar, Mutex};
    use std::collections::VecDeque;
    use std::sync::Mutex as StdMutex;

    /// Items a service turn handles before yielding the slot back to the pool.
    /// Small, so the shapes below reach the requeue path.
    const BUDGET: usize = 2;

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum Item {
        Chunk(usize),
        Flush,
    }

    #[derive(Debug, PartialEq, Eq)]
    pub enum Pushed {
        Ok,
        Full,
        Closed,
    }

    struct Ingress {
        items: VecDeque<Item>,
        chunks: usize,
        scheduled: bool,
        closed: bool,
        waiters: usize,
    }

    pub struct SlotSim {
        capacity: usize,
        ingress: Mutex<Ingress>,
        space: Condvar,
        /// Concurrent service turns — must never exceed 1 (test bookkeeping,
        /// uninstrumented like the pool handlers above).
        in_service: StdAtomicUsize,
        /// Items in the order the session saw them.
        pub log: StdMutex<Vec<Item>>,
        /// Outstanding pool jobs. Every submit records its handle before the
        /// submitter proceeds, so [`SlotSim::join_jobs`] finds every job.
        jobs: StdMutex<Vec<conc::thread::JoinHandle<()>>>,
    }

    impl SlotSim {
        pub fn new(capacity: usize) -> Arc<SlotSim> {
            Arc::new(SlotSim {
                capacity,
                ingress: Mutex::new(Ingress {
                    items: VecDeque::new(),
                    chunks: 0,
                    scheduled: false,
                    closed: false,
                    waiters: 0,
                }),
                space: Condvar::new(),
                in_service: StdAtomicUsize::new(0),
                log: StdMutex::new(Vec::new()),
                jobs: StdMutex::new(Vec::new()),
            })
        }

        /// A full queue whose scheduled job has not started yet (a wedged
        /// worker): `chunks` chunk items queued, `scheduled` set, no job.
        pub fn wedged(capacity: usize, chunks: usize) -> Arc<SlotSim> {
            let slot = SlotSim::new(capacity);
            {
                let mut ingress = slot.ingress.lock().unwrap();
                ingress.items.extend((0..chunks).map(Item::Chunk));
                ingress.chunks = chunks;
                ingress.scheduled = true;
            }
            slot
        }

        /// Queue a pool job for the slot (a new service thread).
        pub fn submit(self: &Arc<Self>) {
            let slot = Arc::clone(self);
            let handle = cthread::spawn(move || slot.service());
            self.jobs.lock().unwrap().push(handle);
        }

        /// `SessionHandle::push` / `try_push` (server.rs `submit_chunk`).
        pub fn push(self: &Arc<Self>, item: Item, block: bool) -> Pushed {
            let mut ingress = self.ingress.lock().unwrap();
            while ingress.chunks >= self.capacity && !ingress.closed {
                if !block {
                    return Pushed::Full;
                }
                ingress.waiters += 1;
                ingress = self.space.wait(ingress).unwrap();
                ingress.waiters -= 1;
            }
            if ingress.closed {
                return Pushed::Closed;
            }
            self.enqueue(ingress, item);
            Pushed::Ok
        }

        /// `SessionHandle::flush`: accepted regardless of occupancy.
        pub fn flush(self: &Arc<Self>) -> Pushed {
            let ingress = self.ingress.lock().unwrap();
            if ingress.closed {
                return Pushed::Closed;
            }
            self.enqueue(ingress, Item::Flush);
            Pushed::Ok
        }

        /// `RxServer::shutdown` for one session: close, wake blocked
        /// producers, append the final flush.
        pub fn shutdown(self: &Arc<Self>) {
            let mut ingress = self.ingress.lock().unwrap();
            if ingress.closed {
                return;
            }
            ingress.closed = true;
            if ingress.waiters > 0 {
                self.space.notify_all();
            }
            self.enqueue(ingress, Item::Flush);
        }

        /// server.rs `enqueue`: append, then submit after unlocking if no job
        /// exists.
        fn enqueue(
            self: &Arc<Self>,
            mut ingress: cprecycle_engine::sync::MutexGuard<'_, Ingress>,
            item: Item,
        ) {
            if let Item::Chunk(_) = item {
                ingress.chunks += 1;
            }
            ingress.items.push_back(item);
            let submit = !std::mem::replace(&mut ingress.scheduled, true);
            drop(ingress);
            if submit {
                self.submit();
            }
        }

        /// One pool job: `RxServer::service` with `next_item` inlined.
        fn service(self: &Arc<Self>) {
            let depth = self.in_service.fetch_add(1, StdOrdering::SeqCst);
            assert_eq!(depth, 0, "slot serviced by two workers at once");
            for _ in 0..BUDGET {
                let item = {
                    let mut ingress = self.ingress.lock().unwrap();
                    let item = ingress.items.pop_front();
                    match item {
                        None => {
                            ingress.scheduled = false;
                            // Leave the exclusive region inside the critical
                            // section that releases the slot.
                            self.in_service.fetch_sub(1, StdOrdering::SeqCst);
                            return;
                        }
                        Some(Item::Chunk(_)) => {
                            ingress.chunks -= 1;
                            if ingress.waiters > 0 && ingress.chunks == self.capacity / 2 {
                                self.space.notify_all();
                            }
                        }
                        Some(Item::Flush) => {}
                    }
                    item.expect("matched Some above")
                };
                self.log.lock().unwrap().push(item);
            }
            let requeue = {
                let mut ingress = self.ingress.lock().unwrap();
                self.in_service.fetch_sub(1, StdOrdering::SeqCst);
                if ingress.items.is_empty() {
                    ingress.scheduled = false;
                    false
                } else {
                    true
                }
            };
            if requeue {
                self.submit(); // the pool's atomic requeue of `Some(slot)`
            }
        }

        /// Joins every job, including ones spawned while joining.
        pub fn join_jobs(&self) {
            loop {
                let next = self.jobs.lock().unwrap().pop();
                match next {
                    Some(h) => h.join().unwrap(),
                    None => break,
                }
            }
        }

        /// Once every job has finished: nothing queued, nothing stranded, and
        /// the slot left unscheduled for the next push.
        pub fn assert_drained(&self) {
            let ingress = self.ingress.lock().unwrap();
            assert!(ingress.items.is_empty(), "an accepted item was stranded");
            assert_eq!(ingress.chunks, 0);
            assert!(!ingress.scheduled, "slot left scheduled with no job");
        }

        pub fn logged(&self) -> Vec<Item> {
            self.log.lock().unwrap().clone()
        }
    }
}

use slot_sim::{Item, Pushed, SlotSim};

#[test]
fn ingress_two_producers_never_double_service_or_strand() {
    // Two producers race the `scheduled` flag while jobs run (and requeue past
    // the budget) concurrently: the slot is never serviced twice at once and
    // every accepted chunk is serviced, in each producer's order.
    model_bounded(2, || {
        let slot = SlotSim::new(4);
        let producers: Vec<_> = (0..2usize)
            .map(|p| {
                let slot = Arc::clone(&slot);
                cthread::spawn(move || {
                    for i in 0..2 {
                        assert_eq!(slot.push(Item::Chunk(p * 10 + i), false), Pushed::Ok);
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        slot.join_jobs();
        slot.assert_drained();
        let log = slot.logged();
        for p in 0..2 {
            let mine: Vec<Item> = log
                .iter()
                .copied()
                .filter(|item| matches!(item, Item::Chunk(c) if c / 10 == p))
                .collect();
            assert_eq!(mine, vec![Item::Chunk(p * 10), Item::Chunk(p * 10 + 1)]);
        }
    });
}

#[test]
fn ingress_flush_runs_after_every_earlier_chunk() {
    // A flush issued after a chunk is accepted lands behind it (and behind
    // anything a racing producer got in first), whatever the job schedule.
    model_bounded(2, || {
        let slot = SlotSim::new(1);
        let other = {
            let slot = Arc::clone(&slot);
            cthread::spawn(move || slot.push(Item::Chunk(1), true))
        };
        assert_eq!(slot.push(Item::Chunk(0), true), Pushed::Ok);
        assert_eq!(slot.flush(), Pushed::Ok);
        assert_eq!(other.join().unwrap(), Pushed::Ok);
        slot.join_jobs();
        slot.assert_drained();
        let log = slot.logged();
        let at = |item: Item| log.iter().position(|&x| x == item).expect("serviced");
        assert!(
            at(Item::Chunk(0)) < at(Item::Flush),
            "flush overtook a chunk: {log:?}"
        );
        assert_eq!(log.len(), 3);
    });
}

#[test]
fn ingress_blocking_push_at_capacity_one_is_woken() {
    // Capacity 1: the second push must wait for the job to pop the first. The
    // half-capacity wake fires at 0 here; a missed wake is a deadlock.
    model_bounded(2, || {
        let slot = SlotSim::new(1);
        let producer = {
            let slot = Arc::clone(&slot);
            cthread::spawn(move || {
                assert_eq!(slot.push(Item::Chunk(0), true), Pushed::Ok);
                assert_eq!(slot.push(Item::Chunk(1), true), Pushed::Ok);
            })
        };
        producer.join().unwrap();
        slot.join_jobs();
        slot.assert_drained();
        assert_eq!(slot.logged(), vec![Item::Chunk(0), Item::Chunk(1)]);
    });
}

#[test]
fn ingress_shutdown_wakes_a_producer_blocked_at_capacity() {
    // Capacity 1, full, its worker wedged (job scheduled but not running). A
    // producer blocks in `push`; shutdown must wake it with `Closed` — its
    // final flush needs no capacity — and once the worker resumes, the flush
    // runs after the queued chunk.
    model_bounded(2, || {
        let slot = SlotSim::wedged(1, 1);
        let producer = {
            let slot = Arc::clone(&slot);
            cthread::spawn(move || slot.push(Item::Chunk(7), true))
        };
        slot.shutdown();
        assert_eq!(producer.join().unwrap(), Pushed::Closed);
        assert_eq!(slot.push(Item::Chunk(8), false), Pushed::Closed);
        slot.submit(); // the wedged worker resumes its job
        slot.join_jobs();
        slot.assert_drained();
        assert_eq!(slot.logged(), vec![Item::Chunk(0), Item::Flush]);
    });
}
