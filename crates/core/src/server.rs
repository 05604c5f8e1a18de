//! Multi-session receiver server: N independent [`RxSession`]s multiplexed over a
//! fixed worker pool, fed through one mutex-guarded ingress queue per session.
//!
//! One base station services many stations at once; [`RxServer`] is the layer that
//! turns the single-stream [`RxSession`] into that shape. Each session lives behind
//! a cheaply cloneable [`SessionHandle`]: producers push sample chunks into a
//! **bounded per-session queue** ([`SessionHandle::try_push`] returns
//! [`PushError::Full`]; [`SessionHandle::push`] waits for space) and drain ordered
//! per-session [`RxEvent`]s; a pool of worker threads draining one shared injector
//! queue ([`cprecycle_engine::pool::WorkerPool`]) services the sessions.
//!
//! ## Ownership and threading
//!
//! ```text
//!  producer threads                 RxServer                        worker pool
//!  ────────────────   ┌──────────────────────────────────────┐   ┌───────────────┐
//!  handle.push ──┐    │ SessionSlot k                        │   │ injector:     │
//!   (lock, copy  │    │  ingress: Mutex<Ingress>             │   │ [slot j][k].. │
//!    into a free ├───▶│   items: [c₃][c₄][Flush][c₅]  FIFO   │◀──│ rx-pool-0 ─┐  │
//!    buffer,     │    │   chunks: 3 / capacity               │   │ rx-pool-1 ─┤  │
//!    push_back)  │    │   free: [buf][buf]  (recycled)       │   │ pops a slot,│ │
//!  handle.flush ─┘    │   scheduled, closed, waiters         │   │ services it ◀┘ │
//!                     │  space: Condvar (blocked producers)  │   └───────────────┘
//!                     │  session: Mutex<RxSession>           │
//!                     └──────────────────────────────────────┘
//! ```
//!
//! Everything a push, a flush or a service turn must agree on — queue order,
//! occupancy, whether a pool job for the slot exists, whether the session is
//! closed — lives in one [`Mutex`] per session, so every protocol decision is
//! made under a single lock:
//!
//! * a push copies the chunk into a buffer taken from the session's own free list
//!   and appends it; if the slot was not `scheduled`, it sets the flag and submits
//!   the slot to the pool after unlocking. A slot is therefore queued on the pool
//!   **at most once** at any time;
//! * the worker that pops a slot has exclusive run of that session. Each service
//!   turn pops items one at a time (returning the previous chunk's buffer to the
//!   free list in the same critical section) up to a fairness budget, then
//!   re-enqueues the slot behind other waiting slots. It clears `scheduled` in the
//!   same critical section that finds the queue empty, so "work queued ⇒ slot
//!   scheduled" holds with no window for a lost wakeup;
//! * buffers cycle between the free list and the queue, so once each session has
//!   seen its peak occupancy the steady-state push path performs **zero heap
//!   allocations** (pinned by the `server_alloc.rs` counting-allocator test). The
//!   free list needs no cap: it never holds more buffers than the session ever
//!   had in flight (at most `queue_capacity + 1`).
//!
//! ## Determinism
//!
//! Sessions share no state — each owns its receiver, carry-over buffer, detector
//! and interference model — so the only way scheduling could change an output is by
//! changing the order or grouping of one session's chunks. The per-session queue
//! and the `scheduled` flag forbid both: items are appended and popped under one
//! lock (per-session FIFO, flushes included), and exclusive servicing means the
//! session's state machine performs the identical sequence of floating-point
//! operations as a standalone [`RxSession`] fed the same chunks sequentially,
//! regardless of worker count, queue depths, or how N sessions' pushes interleave.
//! Events and [`SessionCounters`] are therefore **bit-identical** to the
//! standalone replay — the property `tests/server_equivalence.rs` pins over random
//! interleavings.
//!
//! ## Backpressure contract
//!
//! * [`SessionHandle::try_push`] either accepts the whole chunk or returns
//!   [`PushError::Full`] having consumed **nothing** — the producer owns the chunk
//!   and may resubmit it later; accepted chunks are never dropped or reordered.
//! * [`SessionHandle::push`] blocks until the queue has space or the session
//!   closes (→ [`PushError::Closed`]). Blocked producers are woken when the queue
//!   drains to half its capacity, and on close.
//! * [`SessionHandle::flush`] is a queue item that does **not** count against
//!   capacity, so it is accepted regardless of occupancy and takes effect after
//!   every previously accepted chunk.
//! * [`RxServer::drain`] blocks until every chunk accepted *before the call* has
//!   been fully processed; buffered mid-frame samples stay pending (no frame that
//!   could still complete is abandoned).
//! * [`RxServer::shutdown`] closes every session (subsequent pushes →
//!   [`PushError::Closed`]; blocked producers wake and observe the closure),
//!   appends one final flush per session (end-of-stream: incomplete frames surface
//!   as [`RxEvent::SyncLost`]), waits for the work to finish, and joins the pool.
//!   It cannot deadlock on backpressure: the final flush never waits for space,
//!   and the queue ahead of it drains because servicing never waits on a
//!   producer. Handles stay valid for draining events and reading counters
//!   afterwards.

use crate::session::{RxEvent, RxSession, SessionConfig, SessionCounters};
use cprecycle_engine::pool::WorkerPool;
use obs::{Log2Histogram, MetricsSnapshot, NoopRecorder, Recorder, StageSnapshot};
use ofdmphy::rx::FrameReceiver;
use ofdmphy::PhyError;
use rfdsp::Complex;
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::time::Instant;

/// Why a push into a session's ingress queue was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The session's bounded ingress queue is at capacity. Nothing was consumed:
    /// resubmit the same chunk once the queue drains and the session's output is
    /// unchanged from an unthrottled feed.
    Full,
    /// The session was closed by [`RxServer::shutdown`]; no further samples are
    /// accepted.
    Closed,
}

impl fmt::Display for PushError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PushError::Full => write!(f, "session ingress queue is full"),
            PushError::Closed => write!(f, "session is closed"),
        }
    }
}

impl std::error::Error for PushError {}

/// Server configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker threads servicing all sessions. Defaults to the machine's available
    /// parallelism. Thread count never affects decoded bits — only throughput.
    pub threads: usize,
    /// Bound on each session's ingress queue, in chunks. When full,
    /// [`SessionHandle::try_push`] returns [`PushError::Full`] and
    /// [`SessionHandle::push`] blocks. Defaults to 64.
    pub queue_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            queue_capacity: 64,
        }
    }
}

/// One entry of a session's ingress queue.
enum Item {
    /// A copy of the producer's chunk and the instant it was accepted (the start
    /// of the push→decode latency span).
    Chunk(Vec<Complex>, Instant),
    /// An end-of-stream flush. Does not count against the queue capacity.
    Flush,
}

/// A session's ingress state; every field is read and written under one lock.
struct Ingress {
    /// Accepted items, FIFO.
    items: VecDeque<Item>,
    /// `Chunk` items in `items` — the occupancy the capacity bounds.
    chunks: usize,
    /// Chunk buffers returned by the worker, reused by the next pushes.
    free: Vec<Vec<Complex>>,
    /// True while a pool job for this slot exists (queued or running).
    scheduled: bool,
    /// Set by [`RxServer::shutdown`]; no item is accepted afterwards.
    closed: bool,
    /// Producers blocked in [`SessionHandle::push`] waiting for space.
    waiters: usize,
    /// Pushes that found the queue full (each counted once, blocking or not).
    full_events: u64,
    /// Samples accepted so far.
    samples_in: usize,
}

/// Everything one session owns, shared between its handles, the server and the pool.
struct SessionSlot<R: FrameReceiver, O: Recorder> {
    /// Index of this session within the server (stable; also the metrics prefix).
    id: usize,
    /// Bound on `Ingress::chunks`.
    capacity: usize,
    ingress: Mutex<Ingress>,
    /// Where blocked producers wait for space (or for the session to close).
    space: Condvar,
    /// Locked only by the worker currently servicing the slot — and briefly by
    /// handle-side reads (events, counters, snapshots).
    session: Mutex<RxSession<R, O>>,
    /// First fatal session error, if any ([`RxSession::push`] errors are
    /// misconfigurations, not per-chunk conditions). Once set, further items are
    /// discarded.
    error: Mutex<Option<PhyError>>,
    /// Push→decode latency (acceptance to end-of-servicing), nanoseconds.
    latency: Mutex<Log2Histogram>,
}

type Slot<R, O> = Arc<SessionSlot<R, O>>;

impl<R: FrameReceiver, O: Recorder> SessionSlot<R, O> {
    fn ingress(&self) -> MutexGuard<'_, Ingress> {
        self.ingress.lock().expect("ingress poisoned")
    }

    /// Pops the next item to service, first returning `done` (the previous
    /// chunk's buffer) to the free list. An empty queue unschedules the slot in
    /// the same critical section and yields `None`.
    fn next_item(&self, done: Option<Vec<Complex>>) -> Option<Item> {
        let mut ingress = self.ingress();
        if let Some(buf) = done {
            ingress.free.push(buf);
        }
        let item = ingress.items.pop_front();
        match item {
            None => ingress.scheduled = false,
            Some(Item::Chunk(..)) => {
                ingress.chunks -= 1;
                // Waking at half capacity (not on every pop) lets a blocked
                // producer refill in a batch instead of ping-ponging per chunk.
                if ingress.waiters > 0 && ingress.chunks == self.capacity / 2 {
                    self.space.notify_all();
                }
            }
            Some(Item::Flush) => {}
        }
        item
    }

    /// Runs `op` against the session unless an earlier item failed fatally.
    fn apply(&self, op: impl FnOnce(&mut RxSession<R, O>) -> crate::Result<()>) {
        if self.error.lock().expect("error poisoned").is_some() {
            return;
        }
        let result = op(&mut self.session.lock().expect("session poisoned"));
        if let Err(e) = result {
            *self.error.lock().expect("error poisoned") = Some(e);
        }
    }
}

/// Appends `item` under the held ingress lock and, if no pool job for the slot
/// exists yet, schedules it — submitting after the lock is released.
fn enqueue<R, O>(
    slot: &Slot<R, O>,
    mut ingress: MutexGuard<'_, Ingress>,
    item: Item,
    pool: &WorkerPool<Slot<R, O>>,
) where
    R: FrameReceiver + Send + 'static,
    R::Stream: Send,
    O: Recorder + Send + 'static,
{
    if let Item::Chunk(..) = item {
        ingress.chunks += 1;
    }
    ingress.items.push_back(item);
    let submit = !std::mem::replace(&mut ingress.scheduled, true);
    drop(ingress);
    if submit {
        pool.submit(Arc::clone(slot));
    }
}

/// Compile-time audit that a session moves freely between worker threads given
/// `Send` building blocks (no hidden `Rc`/raw-pointer state anywhere in the
/// pipeline). Referenced by the server bounds below; never called.
fn _assert_sessions_are_send<R, O>()
where
    R: FrameReceiver + Send,
    R::Stream: Send,
    O: Recorder + Send,
{
    fn is_send<T: Send>() {}
    is_send::<RxSession<R, O>>();
}

/// A multi-session receiver server. See the [module docs](self) for the threading
/// model, determinism argument and backpressure contract.
///
/// The server quickstart (mirrored in the README): two stations, chunks pushed in
/// interleaved order, bit-identical per-station decodes.
///
/// ```
/// use cprecycle::server::{RxServer, ServerConfig};
/// use cprecycle::session::RxEvent;
/// use ofdmphy::convcode::CodeRate;
/// use ofdmphy::frame::{Mcs, Transmitter};
/// use ofdmphy::modulation::Modulation;
/// use ofdmphy::params::OfdmParams;
/// use ofdmphy::rx::StandardReceiver;
/// use rfdsp::Complex;
///
/// let params = OfdmParams::ieee80211ag();
/// let tx = Transmitter::new(params.clone());
/// let mcs = Mcs::new(Modulation::Qpsk, CodeRate::Half);
///
/// // One bursty capture per station.
/// let captures: Vec<Vec<Complex>> = [&b"station zero"[..], &b"station one"[..]]
///     .iter()
///     .map(|payload| {
///         let mut c = vec![Complex::zero(); 300];
///         c.extend(tx.build_frame(payload, mcs, 0x5D).unwrap().samples);
///         c.extend(vec![Complex::zero(); 300]);
///         c
///     })
///     .collect();
///
/// // A server with one session per station.
/// let server: RxServer<StandardReceiver> =
///     RxServer::new(ServerConfig { threads: 2, ..Default::default() });
/// let handles: Vec<_> = captures
///     .iter()
///     .map(|_| server.add_session(StandardReceiver::new(params.clone()), Default::default()))
///     .collect();
///
/// // Interleave the stations' chunks — scheduling never changes decoded bits.
/// let mut feeds: Vec<_> = captures.iter().map(|c| c.chunks(480)).collect();
/// loop {
///     let mut any = false;
///     for (feed, handle) in feeds.iter_mut().zip(&handles) {
///         if let Some(chunk) = feed.next() {
///             handle.push(chunk).unwrap();
///             any = true;
///         }
///     }
///     if !any {
///         break;
///     }
/// }
/// server.shutdown();
///
/// for (handle, payload) in handles.iter().zip([&b"station zero"[..], &b"station one"[..]]) {
///     let decoded: Vec<Vec<u8>> = handle
///         .drain_events()
///         .into_iter()
///         .filter_map(|e| match e {
///             RxEvent::FrameDecoded { frame, .. } => frame.payload.clone(),
///             _ => None,
///         })
///         .collect();
///     assert_eq!(decoded, vec![payload.to_vec()]);
/// }
/// ```
pub struct RxServer<R, O = NoopRecorder>
where
    R: FrameReceiver + Send + 'static,
    R::Stream: Send,
    O: Recorder + Send + 'static,
{
    config: ServerConfig,
    /// Read-mostly registry: `add_session` takes the write lock briefly; snapshot,
    /// drain and shutdown iterate under a read guard without cloning anything.
    slots: RwLock<Vec<Slot<R, O>>>,
    pool: Arc<WorkerPool<Slot<R, O>>>,
    started: Instant,
}

/// How many ingress items one scheduling services before the slot yields the worker
/// (re-enqueueing itself behind other waiting slots). Keeps one deeply backlogged
/// session from starving the rest without ever leaving work unscheduled.
const FAIRNESS_BUDGET: usize = 16;

impl<R, O> RxServer<R, O>
where
    R: FrameReceiver + Send + 'static,
    R::Stream: Send,
    O: Recorder + Send + 'static,
{
    /// Starts a server: spawns the worker pool, initially with zero sessions.
    pub fn new(config: ServerConfig) -> Self {
        let pool = WorkerPool::new(
            config.threads,
            |_w| (),
            |_state: &mut (), slot: Slot<R, O>| Self::service(&slot),
        );
        RxServer {
            config,
            slots: RwLock::new(Vec::new()),
            pool: Arc::new(pool),
            started: Instant::now(),
        }
    }

    /// Services one scheduling of `slot`: feeds its queued items to the session,
    /// up to the fairness budget. Returns the slot itself when it should be
    /// re-enqueued — the pool requeues it atomically with respect to
    /// [`WorkerPool::wait_idle`].
    fn service(slot: &Slot<R, O>) -> Option<Slot<R, O>> {
        let mut done = None;
        for _ in 0..FAIRNESS_BUDGET {
            match slot.next_item(done.take())? {
                Item::Chunk(buf, accepted_at) => {
                    slot.apply(|session| session.push(&buf));
                    let nanos = u64::try_from(accepted_at.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    slot.latency.lock().expect("latency poisoned").record(nanos);
                    done = Some(buf);
                }
                Item::Flush => slot.apply(RxSession::flush),
            }
        }
        // Budget spent: keep `scheduled` set and yield the worker if work is
        // left, otherwise unschedule in the same critical section.
        let mut ingress = slot.ingress();
        if let Some(buf) = done {
            ingress.free.push(buf);
        }
        if ingress.items.is_empty() {
            ingress.scheduled = false;
            None
        } else {
            Some(Arc::clone(slot))
        }
    }

    /// Adds a session with no instrumentation-recorder requirement beyond `O`'s
    /// default construction — use [`Self::add_session_with_recorder`] to attach
    /// one. Sessions can be added while the server is live; the handle is
    /// immediately usable.
    pub fn add_session(&self, receiver: R, config: SessionConfig) -> SessionHandle<R, O>
    where
        O: Default,
    {
        self.add_session_with_recorder(receiver, config, O::default())
    }

    /// Adds a session whose receive chain reports into `recorder` (stage timings +
    /// event trace, exactly as a standalone [`RxSession::with_recorder`]).
    pub fn add_session_with_recorder(
        &self,
        receiver: R,
        config: SessionConfig,
        recorder: O,
    ) -> SessionHandle<R, O> {
        let mut slots = self.slots.write().expect("slots poisoned");
        let slot = Arc::new(SessionSlot {
            id: slots.len(),
            capacity: self.config.queue_capacity.max(1),
            ingress: Mutex::new(Ingress {
                items: VecDeque::new(),
                chunks: 0,
                free: Vec::new(),
                scheduled: false,
                closed: false,
                waiters: 0,
                full_events: 0,
                samples_in: 0,
            }),
            space: Condvar::new(),
            session: Mutex::new(RxSession::with_recorder(receiver, config, recorder)),
            error: Mutex::new(None),
            latency: Mutex::new(Log2Histogram::new()),
        });
        slots.push(Arc::clone(&slot));
        SessionHandle {
            slot,
            pool: Arc::clone(&self.pool),
        }
    }

    /// Number of sessions ever added.
    pub fn sessions(&self) -> usize {
        self.slots.read().expect("slots poisoned").len()
    }

    /// The server configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Blocks until every chunk accepted before this call has been processed.
    ///
    /// This is a barrier, not an end-of-stream: sessions keep their carry-over
    /// buffers, so a frame whose tail has not arrived stays pending and decodes
    /// when the rest is pushed — `drain` never costs a decodable frame. Producers
    /// pushing concurrently with `drain` are outside the barrier.
    pub fn drain(&self) {
        self.pool.wait_idle();
    }

    /// Closes every session, flushes each one (end-of-stream semantics: incomplete
    /// frames become [`RxEvent::SyncLost`]), waits for all queued work and joins the
    /// worker pool. Idempotent. Pushes after (or racing) `shutdown` fail with
    /// [`PushError::Closed`]; handles remain valid for draining events, counters
    /// and snapshots.
    ///
    /// The final flush does not count against queue capacity, so shutdown
    /// completes even when every queue is full and producers are blocked — they
    /// wake with [`PushError::Closed`] instead of deadlocking against the flush.
    pub fn shutdown(&self) {
        for slot in self.slots.read().expect("slots poisoned").iter() {
            let mut ingress = slot.ingress();
            if ingress.closed {
                continue; // already closed by an earlier shutdown
            }
            ingress.closed = true;
            if ingress.waiters > 0 {
                slot.space.notify_all();
            }
            enqueue(slot, ingress, Item::Flush, &self.pool);
        }
        self.pool.wait_idle();
        self.pool.shutdown();
    }

    /// Aggregate + per-session observability snapshot.
    ///
    /// Unprefixed names are server-wide: the `sessions_active` gauge (sessions not
    /// yet closed), per-session-summed counters (`samples_pushed`,
    /// `frames_decoded`, `fcs_passes`, …), the `ring_full_rejections` counter
    /// (pushes that found their session's ingress queue full), the total
    /// `queue_depth` gauge, the `samples_per_sec` gauge (aggregate accepted-sample
    /// rate since the server started — wall-clock, so outside the determinism
    /// contract), and the aggregate push→decode latency: a `push_decode` stage
    /// histogram plus `push_decode_p50_ns`/`p95`/`p99` gauges. Each session's full
    /// snapshot (counters, stage timings, trace) additionally lands under a
    /// `session.{id}.` prefix, plus its own `session.{id}.queue_depth` gauge and
    /// `session.{id}.push_decode_p{50,95,99}_ns` gauges.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let slots = self.slots.read().expect("slots poisoned");
        let mut snap = MetricsSnapshot::new();
        let mut active = 0usize;
        let mut total_depth = 0usize;
        let mut total_samples = 0usize;
        let mut full_events = 0u64;
        let mut latency_all = Log2Histogram::new();
        for slot in slots.iter() {
            let depth = {
                let ingress = slot.ingress();
                if !ingress.closed {
                    active += 1;
                }
                total_samples += ingress.samples_in;
                full_events += ingress.full_events;
                ingress.chunks
            };
            total_depth += depth;
            let per_session = slot
                .session
                .lock()
                .expect("session poisoned")
                .metrics_snapshot();
            // Aggregate counters (sessions are independent, so sums are exact) …
            for (name, value) in &per_session.counters {
                snap.add_counter(name, *value);
            }
            // … and the full per-session view under its prefix.
            let prefix = format!("session.{}.", slot.id);
            snap.merge_prefixed(&prefix, &per_session);
            snap.set_gauge(&format!("session.{}.queue_depth", slot.id), depth as f64);
            let latency = slot.latency.lock().expect("latency poisoned").clone();
            if latency.count() > 0 {
                for (q, name) in [(0.5, "p50"), (0.95, "p95"), (0.99, "p99")] {
                    if let Some(v) = latency.percentile(q) {
                        snap.set_gauge(
                            &format!("session.{}.push_decode_{name}_ns", slot.id),
                            v as f64,
                        );
                    }
                }
                latency_all.merge(&latency);
            }
        }
        snap.add_counter("ring_full_rejections", full_events);
        if latency_all.count() > 0 {
            for (q, name) in [(0.5, "p50"), (0.95, "p95"), (0.99, "p99")] {
                if let Some(v) = latency_all.percentile(q) {
                    snap.set_gauge(&format!("push_decode_{name}_ns"), v as f64);
                }
            }
            snap.stages.push(StageSnapshot {
                stage: "push_decode".to_string(),
                key: String::new(),
                histogram: latency_all,
            });
        }
        snap.set_gauge("sessions_active", active as f64);
        snap.set_gauge("queue_depth", total_depth as f64);
        let elapsed = self.started.elapsed().as_secs_f64();
        if elapsed > 0.0 {
            snap.set_gauge("samples_per_sec", total_samples as f64 / elapsed);
        }
        snap
    }
}

impl<R, O> Drop for RxServer<R, O>
where
    R: FrameReceiver + Send + 'static,
    R::Stream: Send,
    O: Recorder + Send + 'static,
{
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A cheaply cloneable handle to one session inside an [`RxServer`].
///
/// The ingest side ([`push`](Self::push) / [`try_push`](Self::try_push)) and the
/// event side ([`drain_events`](Self::drain_events) / [`poll_event`](Self::poll_event))
/// may live on different threads; events always arrive in the session's
/// stream order.
pub struct SessionHandle<R, O = NoopRecorder>
where
    R: FrameReceiver + Send + 'static,
    R::Stream: Send,
    O: Recorder + Send + 'static,
{
    slot: Slot<R, O>,
    pool: Arc<WorkerPool<Slot<R, O>>>,
}

impl<R, O> Clone for SessionHandle<R, O>
where
    R: FrameReceiver + Send + 'static,
    R::Stream: Send,
    O: Recorder + Send + 'static,
{
    fn clone(&self) -> Self {
        SessionHandle {
            slot: Arc::clone(&self.slot),
            pool: Arc::clone(&self.pool),
        }
    }
}

impl<R, O> SessionHandle<R, O>
where
    R: FrameReceiver + Send + 'static,
    R::Stream: Send,
    O: Recorder + Send + 'static,
{
    /// Index of this session within its server (also its metrics prefix).
    pub fn id(&self) -> usize {
        self.slot.id
    }

    /// Copies `chunk` into a recycled buffer and enqueues it, optionally waiting
    /// for space. A rejected push touches neither the queue nor the producer's
    /// slice.
    fn submit_chunk(&self, chunk: &[Complex], block: bool) -> Result<(), PushError> {
        let slot = &self.slot;
        let mut ingress = slot.ingress();
        let mut counted = false;
        while ingress.chunks >= slot.capacity && !ingress.closed {
            if !counted {
                ingress.full_events += 1;
                counted = true;
            }
            if !block {
                return Err(PushError::Full);
            }
            ingress.waiters += 1;
            ingress = slot.space.wait(ingress).expect("ingress poisoned");
            ingress.waiters -= 1;
        }
        if ingress.closed {
            return Err(PushError::Closed);
        }
        let mut buf = ingress.free.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(chunk);
        ingress.samples_in += chunk.len();
        enqueue(slot, ingress, Item::Chunk(buf, Instant::now()), &self.pool);
        Ok(())
    }

    /// Enqueues a chunk, blocking while the session's ingress queue is full.
    /// Fails only with [`PushError::Closed`] after [`RxServer::shutdown`].
    pub fn push(&self, chunk: &[Complex]) -> Result<(), PushError> {
        self.submit_chunk(chunk, true)
    }

    /// Enqueues a chunk without blocking: [`PushError::Full`] means the bounded
    /// queue is at capacity and **nothing was consumed** — resubmitting the same
    /// chunk later yields the same session output as an unthrottled feed.
    pub fn try_push(&self, chunk: &[Complex]) -> Result<(), PushError> {
        self.submit_chunk(chunk, false)
    }

    /// Enqueues an end-of-stream flush for this session (the asynchronous
    /// counterpart of [`RxSession::flush`]). The flush takes effect after every
    /// previously accepted chunk; use [`RxServer::drain`] to wait for it. A flush
    /// does not count against the queue capacity, so it is accepted even when the
    /// queue is full.
    pub fn flush(&self) -> Result<(), PushError> {
        let ingress = self.slot.ingress();
        if ingress.closed {
            return Err(PushError::Closed);
        }
        enqueue(&self.slot, ingress, Item::Flush, &self.pool);
        Ok(())
    }

    /// Chunks currently waiting in this session's ingress queue.
    pub fn queue_depth(&self) -> usize {
        self.slot.ingress().chunks
    }

    /// Samples accepted so far (including ones still queued).
    pub fn samples_pushed(&self) -> usize {
        self.slot.ingress().samples_in
    }

    /// Drains every event the session has produced so far, in stream order.
    /// Call [`RxServer::drain`] first for a result covering all accepted chunks.
    pub fn drain_events(&self) -> Vec<RxEvent> {
        self.slot
            .session
            .lock()
            .expect("session poisoned")
            .drain_events()
    }

    /// Next produced event, if any.
    pub fn poll_event(&self) -> Option<RxEvent> {
        self.slot
            .session
            .lock()
            .expect("session poisoned")
            .poll_event()
    }

    /// The session's health counters (in lockstep with its event stream).
    pub fn counters(&self) -> SessionCounters {
        self.slot
            .session
            .lock()
            .expect("session poisoned")
            .counters()
    }

    /// The session's observability snapshot (recorder state + counters), as
    /// [`RxSession::metrics_snapshot`].
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.slot
            .session
            .lock()
            .expect("session poisoned")
            .metrics_snapshot()
    }

    /// Takes the session's first fatal error, if one occurred. After an error the
    /// session discards further input (its events up to the error remain
    /// drainable).
    pub fn take_error(&self) -> Option<PhyError> {
        self.slot.error.lock().expect("error poisoned").take()
    }

    /// Runs `f` against the underlying session. The session lock is held for the
    /// duration — keep it short; chunks queue up behind it.
    pub fn with_session<T>(&self, f: impl FnOnce(&RxSession<R, O>) -> T) -> T {
        f(&self.slot.session.lock().expect("session poisoned"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofdmphy::convcode::CodeRate;
    use ofdmphy::frame::{Mcs, Transmitter};
    use ofdmphy::modulation::Modulation;
    use ofdmphy::params::OfdmParams;
    use ofdmphy::rx::StandardReceiver;

    fn capture(payload: &[u8]) -> Vec<Complex> {
        let params = OfdmParams::ieee80211ag();
        let tx = Transmitter::new(params);
        let mcs = Mcs::new(Modulation::Qpsk, CodeRate::Half);
        let mut c = vec![Complex::zero(); 300];
        c.extend(tx.build_frame(payload, mcs, 0x5D).unwrap().samples);
        c.extend(vec![Complex::zero(); 300]);
        c
    }

    fn payloads(events: &[RxEvent]) -> Vec<Vec<u8>> {
        events
            .iter()
            .filter_map(|e| match e {
                RxEvent::FrameDecoded { frame, .. } => frame.payload.clone(),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn each_session_decodes_its_own_stream() {
        let server = RxServer::new(ServerConfig {
            threads: 4,
            ..Default::default()
        });
        let bodies: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i + 1; 40]).collect();
        let handles: Vec<SessionHandle<StandardReceiver>> = bodies
            .iter()
            .map(|_| {
                server.add_session(
                    StandardReceiver::new(OfdmParams::ieee80211ag()),
                    SessionConfig::default(),
                )
            })
            .collect();
        for (h, body) in handles.iter().zip(&bodies) {
            for chunk in capture(body).chunks(333) {
                h.push(chunk).unwrap();
            }
        }
        server.drain();
        for (h, body) in handles.iter().zip(&bodies) {
            assert_eq!(payloads(&h.drain_events()), vec![body.clone()]);
            assert_eq!(h.counters().frames_decoded, 1);
            assert!(h.take_error().is_none());
        }
        assert_eq!(server.sessions(), 4);
    }

    #[test]
    fn shutdown_is_idempotent_and_closes_pushes() {
        let server: RxServer<StandardReceiver> = RxServer::new(ServerConfig {
            threads: 2,
            ..Default::default()
        });
        let h = server.add_session(
            StandardReceiver::new(OfdmParams::ieee80211ag()),
            SessionConfig::default(),
        );
        h.push(&capture(b"closing time")).unwrap();
        server.shutdown();
        server.shutdown();
        assert_eq!(h.push(&[Complex::zero(); 8]), Err(PushError::Closed));
        assert_eq!(h.try_push(&[Complex::zero(); 8]), Err(PushError::Closed));
        assert_eq!(h.flush(), Err(PushError::Closed));
        assert_eq!(payloads(&h.drain_events()), vec![b"closing time".to_vec()]);
    }

    #[test]
    fn server_snapshot_aggregates_and_prefixes() {
        let server: RxServer<StandardReceiver> = RxServer::new(ServerConfig {
            threads: 2,
            ..Default::default()
        });
        let a = server.add_session(
            StandardReceiver::new(OfdmParams::ieee80211ag()),
            SessionConfig::default(),
        );
        let b = server.add_session(
            StandardReceiver::new(OfdmParams::ieee80211ag()),
            SessionConfig::default(),
        );
        a.push(&capture(b"aaaa")).unwrap();
        b.push(&capture(b"bbbb")).unwrap();
        server.drain();
        let snap = server.metrics_snapshot();
        assert_eq!(snap.counter("frames_decoded"), 2);
        assert_eq!(snap.counter("session.0.frames_decoded"), 1);
        assert_eq!(snap.counter("session.1.frames_decoded"), 1);
        assert_eq!(snap.gauge("sessions_active"), Some(2.0));
        assert_eq!(snap.gauge("queue_depth"), Some(0.0));
        assert_eq!(
            snap.counter("samples_pushed"),
            (a.samples_pushed() + b.samples_pushed()) as u64
        );
        server.shutdown();
        assert_eq!(
            server.metrics_snapshot().gauge("sessions_active"),
            Some(0.0)
        );
    }

    #[test]
    fn snapshot_reports_ingress_path_metrics() {
        let server: RxServer<StandardReceiver> = RxServer::new(ServerConfig {
            threads: 1,
            queue_capacity: 2,
        });
        let h = server.add_session(
            StandardReceiver::new(OfdmParams::ieee80211ag()),
            SessionConfig::default(),
        );
        for chunk in capture(b"meter me").chunks(480) {
            h.push(chunk).unwrap();
        }
        server.drain();
        let snap = server.metrics_snapshot();
        // The ingress counter is always present (possibly zero) …
        assert!(snap.counters.contains_key("ring_full_rejections"));
        // … and the push→decode latency surfaced as percentiles + a stage.
        let p50 = snap.gauge("push_decode_p50_ns").expect("aggregate p50");
        let p99 = snap.gauge("push_decode_p99_ns").expect("aggregate p99");
        assert!(p50 <= p99, "p50 {p50} > p99 {p99}");
        assert!(snap.gauge("session.0.push_decode_p95_ns").is_some());
        assert!(snap
            .stages
            .iter()
            .any(|st| st.stage == "push_decode" && st.histogram.count() > 0));
        server.shutdown();
    }

    #[test]
    fn serviced_buffers_are_recycled_per_session() {
        let server: RxServer<StandardReceiver> = RxServer::new(ServerConfig {
            threads: 1,
            queue_capacity: 4,
        });
        let h = server.add_session(
            StandardReceiver::new(OfdmParams::ieee80211ag()),
            SessionConfig::default(),
        );
        let noise = vec![Complex::zero(); 64];
        for _ in 0..100 {
            h.push(&noise).unwrap();
        }
        server.drain();
        let free = h.slot.ingress().free.len();
        // Never more buffers than were ever in flight: the queue plus the one
        // being serviced.
        assert!((1..=5).contains(&free), "free list holds {free} buffers");
        server.shutdown();
    }
}
