//! Exhaustive model-check suite for the production [`RxServer`] ingress.
//!
//! Built and run **only** under `--cfg cprecycle_conc`, in release mode (the
//! `model-check` CI job: `RUSTFLAGS="--cfg cprecycle_conc" cargo test --release
//! -p cprecycle --test conc_server`). Under that cfg the engine's `sync`
//! facade resolves to the `conc` instrumented shims, so the *production
//! source* of `RxServer` — its registry, every session's ingress mutex and
//! `space` condvar, the session locks — and of the `WorkerPool` under it is
//! explored over every interleaving within each test's preemption bound.
//!
//! Order is observed through decoded payloads: each chunk is one whole tiny
//! frame (BPSK 1/2, a 1-byte payload that serves as its tag, 40 zero samples
//! on each side), so any interleaving of chunks is a decodable stream. A
//! flush is observed through a *partial* frame queued before it: the flush
//! turns the pending frame into exactly one `SyncLost`.
//!
//! The properties, each a test below: two producers on one session strand
//! nothing and keep each producer's order; a flush runs after every chunk
//! accepted before it; a blocking push at capacity 1 is woken by a pop;
//! `shutdown` wakes a producer blocked at capacity with `Closed` while the
//! worker is wedged, and its final flushes still run after the queued
//! chunks; a backlog past the fairness budget is requeued behind a waiting
//! session; and a model failure with a live server is reported, not hung.
#![cfg(cprecycle_conc)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex as StdMutex;

use conc::thread as cthread;
use conc::{Builder, FailureKind};
use cprecycle::server::{PushError, RxServer, ServerConfig, SessionHandle};
use cprecycle::session::{RxEvent, SessionConfig};
use cprecycle_engine::sync::{Arc, Condvar, Mutex};
use obs::Recorder;
use ofdmphy::convcode::CodeRate;
use ofdmphy::frame::{Mcs, Transmitter};
use ofdmphy::modulation::Modulation;
use ofdmphy::params::OfdmParams;
use ofdmphy::rx::{FrameInfo, FrameReceiver, ModelPersistence, RxFrame, StandardReceiver};
use rfdsp::Complex;

/// Explores `f` with at most `preemptions` involuntary context switches per
/// schedule, asserting the bounded space was fully explored.
fn model_bounded(preemptions: u32, f: impl Fn() + Send + Sync + 'static) {
    match Builder::new().max_preemptions(preemptions).check(f) {
        Ok(report) => {
            eprintln!("preemption bound {preemptions}: {report:?}");
            assert!(
                report.complete,
                "bounded exploration must exhaust its space: {report:?}"
            );
        }
        Err(failure) => {
            panic!("{failure}\n(replay on Builder::new().max_preemptions({preemptions}))")
        }
    }
}

fn params() -> OfdmParams {
    OfdmParams::ieee80211ag()
}

/// One whole tiny frame whose 1-byte payload is `tag`, with 40 zero samples
/// on each side.
fn frame(tag: u8) -> Vec<Complex> {
    let tx = Transmitter::new(params());
    let mcs = Mcs::new(Modulation::Bpsk, CodeRate::Half);
    let mut chunk = vec![Complex::zero(); 40];
    chunk.extend(tx.build_frame(&[tag], mcs, 0x5D).unwrap().samples);
    chunk.extend(vec![Complex::zero(); 40]);
    chunk
}

/// The first half of [`frame`]: detected, never completed, so the next flush
/// reports it as `SyncLost`.
fn partial_frame(tag: u8) -> Vec<Complex> {
    let mut chunk = frame(tag);
    chunk.truncate(chunk.len() / 2);
    chunk
}

/// Blocks `begin_frame` while closed: wedges the worker that services a frame.
/// Built on the engine's `sync` facade, so the wedge is a model state.
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
}

struct GateState {
    closed: bool,
    entries: usize,
}

impl Gate {
    fn closed() -> Arc<Gate> {
        Arc::new(Gate {
            state: Mutex::new(GateState {
                closed: true,
                entries: 0,
            }),
            cv: Condvar::new(),
        })
    }

    /// Counts the entry (for [`Gate::wait_entered`]), then waits while closed.
    fn pass(&self) {
        let mut state = self.state.lock().unwrap();
        state.entries += 1;
        self.cv.notify_all();
        while state.closed {
            state = self.cv.wait(state).unwrap();
        }
    }

    fn open(&self) {
        self.state.lock().unwrap().closed = false;
        self.cv.notify_all();
    }

    /// Waits until a worker is inside (or past) the gate.
    fn wait_entered(&self) {
        let mut state = self.state.lock().unwrap();
        while state.entries == 0 {
            state = self.cv.wait(state).unwrap();
        }
    }
}

/// A [`StandardReceiver`] with an optional [`Gate`] in `begin_frame` and an
/// optional decode log: it appends its tag to a shared (uninstrumented) log on
/// every frame decode, so a test can read the order in which frames of
/// different sessions were serviced.
struct ModelReceiver {
    inner: StandardReceiver,
    gate: Option<Arc<Gate>>,
    log: Option<(usize, Arc<StdMutex<Vec<usize>>>)>,
}

impl ModelReceiver {
    fn plain() -> ModelReceiver {
        ModelReceiver {
            inner: StandardReceiver::new(params()),
            gate: None,
            log: None,
        }
    }
}

impl FrameReceiver for ModelReceiver {
    type Stream = <StandardReceiver as FrameReceiver>::Stream;

    fn params(&self) -> &OfdmParams {
        self.inner.params()
    }

    fn new_stream(&self, persistence: ModelPersistence) -> Self::Stream {
        self.inner.new_stream(persistence)
    }

    fn begin_frame(&self, stream: &mut Self::Stream) {
        if let Some(gate) = &self.gate {
            gate.pass();
        }
        self.inner.begin_frame(stream);
    }

    fn decode_stream_observed<O: Recorder>(
        &self,
        stream: &mut Self::Stream,
        samples: &[Complex],
        frame_start: usize,
        info: Option<FrameInfo>,
        obs: &O,
    ) -> ofdmphy::Result<RxFrame> {
        if let Some((tag, log)) = &self.log {
            log.lock().unwrap().push(*tag);
        }
        self.inner
            .decode_stream_observed(stream, samples, frame_start, info, obs)
    }
}

type Server = RxServer<ModelReceiver>;
type Handle = SessionHandle<ModelReceiver>;

fn server(threads: usize, queue_capacity: usize) -> Server {
    RxServer::new(ServerConfig {
        threads,
        queue_capacity,
    })
}

fn add(server: &Server, receiver: ModelReceiver) -> Handle {
    server.add_session(receiver, SessionConfig::default())
}

/// Decoded payload tags, in stream order.
fn decoded(events: &[RxEvent]) -> Vec<u8> {
    events
        .iter()
        .filter_map(|e| match e {
            RxEvent::FrameDecoded { frame, .. } => frame.payload.as_ref().map(|p| p[0]),
            _ => None,
        })
        .collect()
}

fn sync_losses(events: &[RxEvent]) -> usize {
    events
        .iter()
        .filter(|e| matches!(e, RxEvent::SyncLost { .. }))
        .count()
}

#[test]
fn two_producers_on_one_session_strand_nothing_and_keep_each_order() {
    // Two workers, so a slot submitted twice would be serviced by both at once
    // and could apply a producer's second chunk before its first.
    let frames: Arc<Vec<Vec<Complex>>> = Arc::new([0, 1, 10, 11].map(frame).to_vec());
    model_bounded(1, move || {
        let server = server(2, 4);
        let session = add(&server, ModelReceiver::plain());
        // The main thread is the first producer, a spawned thread the second.
        let second = {
            let session = session.clone();
            let frames = Arc::clone(&frames);
            cthread::spawn(move || {
                for chunk in &frames[2..] {
                    assert_eq!(session.try_push(chunk), Ok(()));
                }
            })
        };
        for chunk in &frames[..2] {
            assert_eq!(session.try_push(chunk), Ok(()));
        }
        second.join().unwrap();
        server.drain();
        assert_eq!(session.queue_depth(), 0, "an accepted chunk was stranded");
        let tags = decoded(&session.drain_events());
        assert_eq!(tags.len(), 4, "every accepted chunk decodes: {tags:?}");
        for producer in [0, 10] {
            let mine: Vec<u8> = tags
                .iter()
                .copied()
                .filter(|t| t / 10 == producer / 10)
                .collect();
            assert_eq!(
                mine,
                vec![producer, producer + 1],
                "a producer's chunks were reordered"
            );
        }
        server.shutdown();
    });
}

#[test]
fn flush_runs_after_every_chunk_accepted_before_it() {
    // Capacity 1 with a racing producer: the main thread's flush must land
    // behind its partial frame, whatever got in between. The racing chunk is
    // empty so it cannot disturb the stream.
    let partial: Arc<Vec<Complex>> = Arc::new(partial_frame(5));
    model_bounded(1, move || {
        let server = server(2, 1);
        let session = add(&server, ModelReceiver::plain());
        let other = {
            let session = session.clone();
            cthread::spawn(move || session.push(&[]))
        };
        assert_eq!(session.push(&partial), Ok(()));
        assert_eq!(session.flush(), Ok(()));
        assert_eq!(other.join().unwrap(), Ok(()));
        server.drain();
        assert_eq!(session.queue_depth(), 0);
        let events = session.drain_events();
        assert_eq!(
            sync_losses(&events),
            1,
            "the flush overtook the partial frame: {events:?}"
        );
        server.shutdown();
    });
}

#[test]
fn blocking_push_at_capacity_one_is_woken_by_a_pop() {
    // The second push waits for the worker to pop the first chunk; the
    // half-capacity wake fires at 0 here, and a missed wake is a deadlock.
    let frames: Arc<Vec<Vec<Complex>>> = Arc::new([0, 1].map(frame).to_vec());
    model_bounded(2, move || {
        let server = server(1, 1);
        let session = add(&server, ModelReceiver::plain());
        let producer = {
            let session = session.clone();
            let frames = Arc::clone(&frames);
            cthread::spawn(move || {
                assert_eq!(session.push(&frames[0]), Ok(()));
                assert_eq!(session.push(&frames[1]), Ok(()));
            })
        };
        producer.join().unwrap();
        server.drain();
        assert_eq!(decoded(&session.drain_events()), vec![0, 1]);
        server.shutdown();
    });
}

#[test]
fn shutdown_wakes_a_producer_blocked_at_capacity_while_the_worker_is_wedged() {
    // One worker, wedged inside session A's first frame. A and B each hold one
    // queued partial frame at capacity 1, and a producer blocks pushing into
    // B. `shutdown` closes and flushes A, then B: the producer must wake with
    // `Closed` before the worker resumes — an opener thread waits for exactly
    // that before it opens the gate — and each final flush must still run
    // after its session's queued chunk.
    let chunks: Arc<Vec<Vec<Complex>>> =
        Arc::new(vec![frame(1), partial_frame(2), partial_frame(3), frame(4)]);
    model_bounded(2, move || {
        let server = server(1, 1);
        let gate = Gate::closed();
        let a = add(
            &server,
            ModelReceiver {
                gate: Some(Arc::clone(&gate)),
                ..ModelReceiver::plain()
            },
        );
        let b = add(&server, ModelReceiver::plain());
        assert_eq!(a.push(&chunks[0]), Ok(()));
        gate.wait_entered();
        assert_eq!(a.try_push(&chunks[1]), Ok(()));
        assert_eq!(b.try_push(&chunks[2]), Ok(()));
        let producer = {
            let b = b.clone();
            let chunks = Arc::clone(&chunks);
            cthread::spawn(move || b.push(&chunks[3]))
        };
        let opener = {
            let gate = Arc::clone(&gate);
            cthread::spawn(move || {
                assert_eq!(producer.join().unwrap(), Err(PushError::Closed));
                gate.open();
            })
        };
        server.shutdown();
        opener.join().unwrap();
        assert_eq!(a.try_push(&chunks[3]), Err(PushError::Closed));
        let a_events = a.drain_events();
        assert_eq!(decoded(&a_events), vec![1]);
        assert_eq!(sync_losses(&a_events), 1, "A's final flush: {a_events:?}");
        let b_events = b.drain_events();
        assert_eq!(sync_losses(&b_events), 1, "B's final flush: {b_events:?}");
    });
}

#[test]
fn a_backlog_past_the_fairness_budget_is_requeued_behind_a_waiting_session() {
    // One worker, two sessions. A queues 16 flushes — a whole fairness budget
    // of cheap items — then a frame; B queues one frame. Whatever the
    // schedule, both frames decode and nothing is left queued. On the
    // schedules where B is waiting when A's budget runs out, A's turn ends
    // with its frame still queued and A is requeued behind B: B's frame
    // decodes first. At least one schedule must take that path.
    const BUDGET_FLUSHES: usize = 16;
    let frames: Arc<Vec<Vec<Complex>>> = Arc::new([0, 1].map(frame).to_vec());
    let requeued = Arc::new(AtomicBool::new(false));
    let seen = Arc::clone(&requeued);
    model_bounded(2, move || {
        let log = Arc::new(StdMutex::new(Vec::new()));
        let logged = |tag| ModelReceiver {
            log: Some((tag, Arc::clone(&log))),
            ..ModelReceiver::plain()
        };
        let server = server(1, 4);
        let a = add(&server, logged(0));
        let b = add(&server, logged(1));
        for _ in 0..BUDGET_FLUSHES {
            assert_eq!(a.flush(), Ok(()));
        }
        assert_eq!(a.try_push(&frames[0]), Ok(()));
        assert_eq!(b.try_push(&frames[1]), Ok(()));
        server.drain();
        assert_eq!(a.queue_depth() + b.queue_depth(), 0, "a chunk was stranded");
        assert_eq!(decoded(&a.drain_events()), vec![0]);
        assert_eq!(decoded(&b.drain_events()), vec![1]);
        if *log.lock().unwrap() == [1, 0] {
            seen.store(true, Ordering::SeqCst);
        }
        server.shutdown();
    });
    assert!(
        requeued.load(Ordering::SeqCst),
        "no schedule requeued A behind B"
    );
}

#[test]
fn a_failure_with_a_live_server_is_reported() {
    // The unwind drops the server, whose `shutdown` would wait for workers
    // that never run again; the checker must report the user's assertion
    // instead of hanging — whether the main thread fails, or a producer fails
    // while the main thread waits for it.
    let chunk: Arc<Vec<Complex>> = Arc::new(frame(1));
    for in_producer in [false, true] {
        let chunk = Arc::clone(&chunk);
        let result = Builder::new().check(move || {
            let server = server(2, 4);
            let session = add(&server, ModelReceiver::plain());
            session.push(&chunk).unwrap();
            let producer = cthread::spawn(move || {
                assert!(!in_producer, "user failure in the producer");
            });
            assert!(in_producer, "user failure in the main thread");
            producer.join().unwrap();
        });
        let failure = result.expect_err("the assertion must be reported");
        assert_eq!(failure.kind, FailureKind::Panic);
        let expected = if in_producer {
            "producer"
        } else {
            "main thread"
        };
        assert!(
            failure.message.contains(expected),
            "unexpected failure: {failure}"
        );
    }
}
