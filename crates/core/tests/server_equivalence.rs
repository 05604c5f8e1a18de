//! Property tests for the multi-session server — the tentpole invariant of the
//! server core:
//!
//! **Scheduling never changes a decoded bit.** For any number of sessions, worker
//! threads, per-session chunk-size mixes and any interleaving of the sessions'
//! pushes, every session's [`RxEvent`] stream and [`SessionCounters`] coming out of
//! an [`RxServer`] are bit-identical to a standalone [`RxSession`] fed the same
//! chunks sequentially — including under Rolling model persistence (cross-frame
//! interference-model state) and with a live recorder attached.
//!
//! Alongside the equivalence property: the backpressure contract (a full bounded
//! queue rejects without consuming; resubmission converges to the standalone
//! result), drain/shutdown semantics around mid-frame partial chunks, and the
//! counters≡events lockstep extended to the server.

use cprecycle::server::{PushError, RxServer, ServerConfig};
use cprecycle::session::{RxEvent, RxSession, SessionConfig, SessionCounters};
use cprecycle::{CpRecycleConfig, CpRecycleReceiver};
use obs::InMemoryRecorder;
use ofdmphy::convcode::CodeRate;
use ofdmphy::frame::{Mcs, Transmitter};
use ofdmphy::modulation::Modulation;
use ofdmphy::params::OfdmParams;
use ofdmphy::rx::{FrameInfo, FrameReceiver, ModelPersistence, RxFrame, StandardReceiver};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfdsp::Complex;
use std::sync::{Arc, Condvar, Mutex};
use wirelesschan::awgn::AwgnChannel;

const CHUNK_MIX: [usize; 5] = [1, 7, 64, 256, 480];

fn params() -> OfdmParams {
    OfdmParams::ieee80211ag()
}

fn mcs() -> Mcs {
    Mcs::new(Modulation::Qpsk, CodeRate::Half)
}

/// One station's bursty capture: lead noise, `frames` frames with random gaps,
/// trailing noise. Returns the capture and the payloads in order.
fn station_capture(seed: u64, frames: usize, payload_len: usize) -> (Vec<Complex>, Vec<Vec<u8>>) {
    let tx = Transmitter::new(params());
    let mut rng = StdRng::seed_from_u64(seed);
    let payloads: Vec<Vec<u8>> = (0..frames)
        .map(|_| (0..payload_len).map(|_| rng.gen()).collect())
        .collect();
    let built: Vec<_> = payloads
        .iter()
        .enumerate()
        .map(|(i, p)| tx.build_frame(p, mcs(), 0x40 + i as u8).unwrap())
        .collect();
    let power = rfdsp::power::signal_power(&built[0].samples).unwrap();
    let noise_var = power / rfdsp::power::db_to_lin(28.0);
    let mut g = rfdsp::noise::GaussianSource::new();
    let lead = rng.gen_range(250..500);
    let mut capture = g.complex_vector(&mut rng, lead, noise_var);
    for frame in &built {
        capture.extend_from_slice(&frame.samples);
        let gap = rng.gen_range(150..400);
        capture.extend(g.complex_vector(&mut rng, gap, noise_var));
    }
    capture.extend(g.complex_vector(&mut rng, 300, noise_var));
    let mut chan = AwgnChannel::new();
    chan.add_noise_variance(&mut rng, &mut capture, noise_var)
        .unwrap();
    (capture, payloads)
}

/// Splits `capture` into chunks whose sizes are drawn from [`CHUNK_MIX`].
fn chunk_plan(rng: &mut StdRng, capture: &[Complex]) -> Vec<Vec<Complex>> {
    let mut chunks = Vec::new();
    let mut at = 0;
    while at < capture.len() {
        let want = CHUNK_MIX[rng.gen_range(0..CHUNK_MIX.len())];
        let end = (at + want).min(capture.len());
        chunks.push(capture[at..end].to_vec());
        at = end;
    }
    chunks
}

fn assert_frames_bit_identical(a: &RxFrame, b: &RxFrame, context: &str) {
    assert_eq!(a.info, b.info, "{context}: info");
    assert_eq!(a.psdu, b.psdu, "{context}: psdu");
    assert_eq!(a.crc_ok, b.crc_ok, "{context}: crc");
    assert_eq!(a.payload, b.payload, "{context}: payload");
    assert_eq!(
        a.equalized_symbols.len(),
        b.equalized_symbols.len(),
        "{context}: symbol count"
    );
    for (i, (x, y)) in a
        .equalized_symbols
        .iter()
        .zip(&b.equalized_symbols)
        .enumerate()
    {
        for (j, (u, v)) in x.iter().zip(y).enumerate() {
            assert_eq!(
                u.re.to_bits(),
                v.re.to_bits(),
                "{context}: symbol {i} bin {j} re"
            );
            assert_eq!(
                u.im.to_bits(),
                v.im.to_bits(),
                "{context}: symbol {i} bin {j} im"
            );
        }
    }
}

/// Bit-identical comparison of two event streams (`a` = server, `b` = standalone).
fn assert_events_bit_identical(a: &[RxEvent], b: &[RxEvent], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: event count");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        let ctx = format!("{context}: event {i}");
        match (x, y) {
            (RxEvent::FrameDetected { sync: sa }, RxEvent::FrameDetected { sync: sb }) => {
                assert_eq!(sa, sb, "{ctx}: sync");
            }
            (
                RxEvent::FrameDecoded {
                    frame: fa,
                    frame_start: va,
                },
                RxEvent::FrameDecoded {
                    frame: fb,
                    frame_start: vb,
                },
            ) => {
                assert_eq!(va, vb, "{ctx}: frame_start");
                assert_frames_bit_identical(fa, fb, &ctx);
            }
            (RxEvent::FalseAlarm { at: aa }, RxEvent::FalseAlarm { at: ab }) => {
                assert_eq!(aa, ab, "{ctx}: false alarm position");
            }
            (RxEvent::SyncLost { at: aa }, RxEvent::SyncLost { at: ab }) => {
                assert_eq!(aa, ab, "{ctx}: sync-lost position");
            }
            (x, y) => panic!("{ctx}: kind mismatch ({x:?} vs {y:?})"),
        }
    }
}

/// The PR 6 counters≡events property, extended to any server-drained stream.
fn assert_counters_match_events(events: &[RxEvent], c: SessionCounters, rolling: bool, ctx: &str) {
    let mut expect = SessionCounters::default();
    for e in events {
        match e {
            RxEvent::FrameDetected { .. } => expect.frames_detected += 1,
            RxEvent::FrameDecoded { frame, .. } => {
                expect.frames_decoded += 1;
                if frame.crc_ok {
                    expect.fcs_passes += 1;
                    if rolling {
                        expect.model_absorbs += 1;
                    }
                } else {
                    expect.fcs_failures += 1;
                    if rolling {
                        expect.model_rejects += 1;
                    }
                }
            }
            RxEvent::FalseAlarm { .. } => expect.false_alarms += 1,
            RxEvent::SyncLost { .. } => expect.sync_losses += 1,
        }
    }
    assert_eq!(c, expect, "{ctx}: counters vs drained events");
}

/// Standalone reference: one `RxSession` fed `chunks` in order, then flushed.
fn standalone_replay<R: FrameReceiver>(
    receiver: R,
    config: SessionConfig,
    chunks: &[Vec<Complex>],
) -> (Vec<RxEvent>, SessionCounters) {
    let mut session = RxSession::with_config(receiver, config);
    for c in chunks {
        session.push(c).unwrap();
    }
    session.flush().unwrap();
    let events = session.drain_events();
    (events, session.counters())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The tentpole: any interleaving of 2–8 sessions' chunk feeds over 1–4 worker
    /// threads yields per-session events and counters bit-identical to standalone
    /// sequential replays.
    #[test]
    fn server_equals_standalone_for_any_interleaving(
        seed in any::<u64>(),
        n_sessions in 2usize..9,
        threads in 1usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5E4E4);
        let stations: Vec<(Vec<Complex>, Vec<Vec<u8>>)> = (0..n_sessions)
            .map(|i| station_capture(seed.wrapping_add(i as u64), 2, 40))
            .collect();
        let plans: Vec<Vec<Vec<Complex>>> = stations
            .iter()
            .map(|(capture, _)| chunk_plan(&mut rng, capture))
            .collect();

        let server: RxServer<StandardReceiver> = RxServer::new(ServerConfig {
            threads,
            queue_capacity: 4, // small on purpose: blocking push exercises backpressure
        });
        let handles: Vec<_> = (0..n_sessions)
            .map(|_| server.add_session(StandardReceiver::new(params()), SessionConfig::default()))
            .collect();

        // Random interleaving that preserves each session's chunk order.
        let mut next = vec![0usize; n_sessions];
        loop {
            let live: Vec<usize> = (0..n_sessions).filter(|&s| next[s] < plans[s].len()).collect();
            if live.is_empty() {
                break;
            }
            let s = live[rng.gen_range(0..live.len())];
            handles[s].push(&plans[s][next[s]]).unwrap();
            next[s] += 1;
        }
        server.shutdown();

        for (s, handle) in handles.iter().enumerate() {
            let ctx = format!("session {s} (threads {threads})");
            prop_assert!(handle.take_error().is_none(), "{}: session error", ctx);
            let events = handle.drain_events();
            let counters = handle.counters();
            let (ref_events, ref_counters) =
                standalone_replay(StandardReceiver::new(params()), SessionConfig::default(), &plans[s]);
            assert_events_bit_identical(&events, &ref_events, &ctx);
            prop_assert_eq!(counters, ref_counters, "{}: counters", ctx);
            assert_counters_match_events(&events, counters, false, &ctx);
            // Sanity: both frames actually decoded (the property is not vacuous).
            let decoded: Vec<Vec<u8>> = events
                .iter()
                .filter_map(|e| match e {
                    RxEvent::FrameDecoded { frame, .. } => frame.payload.clone(),
                    _ => None,
                })
                .collect();
            prop_assert_eq!(&decoded, &stations[s].1, "{}: payloads", ctx);
        }
    }

    /// The same property with the CPRecycle receiver under Rolling persistence:
    /// cross-frame interference-model state must evolve identically under the
    /// server's scheduling, frame by frame, session by session.
    #[test]
    fn rolling_cprecycle_server_matches_standalone(
        seed in any::<u64>(),
        threads in 1usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0117);
        let config = SessionConfig {
            persistence: ModelPersistence::Rolling,
            ..Default::default()
        };
        let stations: Vec<(Vec<Complex>, Vec<Vec<u8>>)> = (0..2)
            .map(|i| station_capture(seed.wrapping_add(1000 + i as u64), 2, 40))
            .collect();
        let plans: Vec<Vec<Vec<Complex>>> = stations
            .iter()
            .map(|(capture, _)| chunk_plan(&mut rng, capture))
            .collect();

        let server: RxServer<CpRecycleReceiver> = RxServer::new(ServerConfig {
            threads,
            ..Default::default()
        });
        let handles: Vec<_> = (0..2)
            .map(|_| {
                server.add_session(
                    CpRecycleReceiver::new(params(), CpRecycleConfig::default()),
                    config,
                )
            })
            .collect();

        let mut next = [0usize; 2];
        loop {
            let live: Vec<usize> = (0..2).filter(|&s| next[s] < plans[s].len()).collect();
            if live.is_empty() {
                break;
            }
            let s = live[rng.gen_range(0..live.len())];
            handles[s].push(&plans[s][next[s]]).unwrap();
            next[s] += 1;
        }
        server.shutdown();

        for (s, handle) in handles.iter().enumerate() {
            let ctx = format!("rolling session {s} (threads {threads})");
            let events = handle.drain_events();
            let counters = handle.counters();
            let model_preambles =
                handle.with_session(|sess| sess.stream().model().map(|m| m.num_preambles()));

            let mut reference = RxSession::with_config(
                CpRecycleReceiver::new(params(), CpRecycleConfig::default()),
                config,
            );
            for c in &plans[s] {
                reference.push(c).unwrap();
            }
            reference.flush().unwrap();
            let ref_events = reference.drain_events();

            assert_events_bit_identical(&events, &ref_events, &ctx);
            prop_assert_eq!(counters, reference.counters(), "{}: counters", ctx);
            assert_counters_match_events(&events, counters, true, &ctx);
            // The rolling model accumulated the same preambles.
            prop_assert_eq!(
                model_preambles,
                reference.stream().model().map(|m| m.num_preambles()),
                "{}: model preamble count", ctx
            );
            prop_assert_eq!(counters.model_absorbs, counters.fcs_passes, "{}: absorbs", ctx);
        }
    }
}

/// Sessions with a live [`InMemoryRecorder`]: the deterministic parts of the
/// snapshot — counters and the structured event trace — are identical between the
/// server and a standalone instrumented session. (Stage timing histograms are
/// wall-clock and outside the determinism contract.)
#[test]
fn live_recorder_sees_identical_counters_and_trace() {
    let (capture, payloads) = station_capture(0xB0B, 2, 48);
    let mut rng = StdRng::seed_from_u64(0xB0B);
    let plan = chunk_plan(&mut rng, &capture);

    let server: RxServer<StandardReceiver, InMemoryRecorder> = RxServer::new(ServerConfig {
        threads: 2,
        ..Default::default()
    });
    let handle = server.add_session_with_recorder(
        StandardReceiver::new(params()),
        SessionConfig::default(),
        InMemoryRecorder::new(64),
    );
    for c in &plan {
        handle.push(c).unwrap();
    }
    server.shutdown();
    let server_snap = handle.metrics_snapshot();
    let events = handle.drain_events();

    let mut reference = RxSession::with_recorder(
        StandardReceiver::new(params()),
        SessionConfig::default(),
        InMemoryRecorder::new(64),
    );
    for c in &plan {
        reference.push(c).unwrap();
    }
    reference.flush().unwrap();
    let ref_snap = reference.metrics_snapshot();

    assert_eq!(server_snap.counters, ref_snap.counters, "snapshot counters");
    assert_eq!(server_snap.trace, ref_snap.trace, "snapshot trace");
    assert_eq!(server_snap.trace_dropped, ref_snap.trace_dropped);
    assert_events_bit_identical(&events, &reference.drain_events(), "recorded session");
    assert_eq!(
        events
            .iter()
            .filter(|e| matches!(e, RxEvent::FrameDecoded { .. }))
            .count(),
        payloads.len()
    );
}

// ---------------------------------------------------------------------------
// Backpressure: deterministic `Full` via a gate that wedges the (only) worker.
// ---------------------------------------------------------------------------

/// A [`StandardReceiver`] wrapper whose `begin_frame` blocks while a gate is
/// closed — a deterministic way to wedge a worker mid-frame so the bounded
/// ingress queue observably fills. With the gate open it is behaviourally
/// identical to the inner receiver (`begin_frame` is a no-op for the standard
/// receiver), so a plain `StandardReceiver` serves as the standalone reference.
#[derive(Clone)]
struct GatedReceiver {
    inner: StandardReceiver,
    gate: Arc<Gate>,
}

struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
}

struct GateState {
    closed: bool,
    entries: usize,
}

impl Gate {
    fn new() -> Arc<Self> {
        Arc::new(Gate {
            state: Mutex::new(GateState {
                closed: true,
                entries: 0,
            }),
            cv: Condvar::new(),
        })
    }

    /// Blocks the calling worker while the gate is closed; counts the entry first
    /// so the test can wait for the worker to arrive.
    fn pass(&self) {
        let mut s = self.state.lock().unwrap();
        s.entries += 1;
        self.cv.notify_all();
        while s.closed {
            s = self.cv.wait(s).unwrap();
        }
    }

    fn open(&self) {
        self.state.lock().unwrap().closed = false;
        self.cv.notify_all();
    }

    /// Waits until a worker is inside (or past) the gate.
    fn wait_entered(&self) {
        let mut s = self.state.lock().unwrap();
        while s.entries == 0 {
            s = self.cv.wait(s).unwrap();
        }
    }
}

impl FrameReceiver for GatedReceiver {
    type Stream = <StandardReceiver as FrameReceiver>::Stream;

    fn params(&self) -> &OfdmParams {
        self.inner.params()
    }

    fn new_stream(&self, persistence: ModelPersistence) -> Self::Stream {
        self.inner.new_stream(persistence)
    }

    fn begin_frame(&self, stream: &mut Self::Stream) {
        self.gate.pass();
        self.inner.begin_frame(stream);
    }

    fn decode_stream(
        &self,
        stream: &mut Self::Stream,
        samples: &[Complex],
        frame_start: usize,
        info: Option<FrameInfo>,
    ) -> ofdmphy::Result<RxFrame> {
        self.inner.decode_stream(stream, samples, frame_start, info)
    }
}

/// The backpressure contract: with the single worker wedged mid-detection, the
/// bounded queue fills and `try_push` returns `Full` **without consuming the
/// chunk**; once the queue drains, resubmitting the same chunks in order converges
/// to the standalone result — nothing dropped, nothing reordered.
#[test]
fn full_queue_rejects_without_dropping_or_reordering() {
    // Frame A arrives whole in the first chunk; frame B is split over the chunks
    // that ride the backpressure. Decoding B at the right stream offset is only
    // possible if every accepted chunk survives in order.
    let (capture, payloads) = station_capture(0xF00D, 2, 48);
    // Split: chunk0 carries the lead noise + all of frame A (the first frame ends
    // well before the second begins; splitting at the capture midpoint keeps A in
    // chunk0 for these seeds — verified by the decode assertions below).
    let first_cut = capture.len() / 2;
    let chunk0 = capture[..first_cut].to_vec();
    let rest = &capture[first_cut..];
    let quarter = rest.len() / 4;
    let tail_chunks: Vec<Vec<Complex>> = (0..4)
        .map(|i| {
            let lo = i * quarter;
            let hi = if i == 3 {
                rest.len()
            } else {
                (i + 1) * quarter
            };
            rest[lo..hi].to_vec()
        })
        .collect();

    let gate = Gate::new();
    let server: RxServer<GatedReceiver> = RxServer::new(ServerConfig {
        threads: 1,
        queue_capacity: 2,
    });
    let handle = server.add_session(
        GatedReceiver {
            inner: StandardReceiver::new(params()),
            gate: Arc::clone(&gate),
        },
        SessionConfig::default(),
    );

    handle.push(&chunk0).unwrap();
    gate.wait_entered(); // the only worker is now wedged inside frame A's begin_frame

    assert_eq!(handle.try_push(&tail_chunks[0]), Ok(()));
    assert_eq!(handle.try_push(&tail_chunks[1]), Ok(()));
    assert_eq!(handle.queue_depth(), 2);
    assert_eq!(
        handle.try_push(&tail_chunks[2]),
        Err(PushError::Full),
        "bounded queue at capacity must reject"
    );
    assert_eq!(
        handle.try_push(&tail_chunks[2]),
        Err(PushError::Full),
        "still full on retry while wedged"
    );
    // Nothing consumed by the rejections.
    assert_eq!(
        handle.samples_pushed(),
        chunk0.len() + tail_chunks[0].len() + tail_chunks[1].len()
    );

    gate.open();
    server.drain();
    // Resubmit the rejected chunk and the remainder, in order.
    assert_eq!(handle.try_push(&tail_chunks[2]), Ok(()));
    handle.push(&tail_chunks[3]).unwrap();
    server.shutdown();

    let events = handle.drain_events();
    let all_chunks: Vec<Vec<Complex>> = std::iter::once(chunk0)
        .chain(tail_chunks.iter().cloned())
        .collect();
    let (ref_events, ref_counters) = standalone_replay(
        StandardReceiver::new(params()),
        SessionConfig::default(),
        &all_chunks,
    );
    assert_events_bit_identical(&events, &ref_events, "backpressured session");
    assert_eq!(handle.counters(), ref_counters);
    // Both frames decoded — the one that was wedged and the one that rode the
    // backpressure in pieces.
    let decoded: Vec<Vec<u8>> = events
        .iter()
        .filter_map(|e| match e {
            RxEvent::FrameDecoded { frame, .. } => frame.payload.clone(),
            _ => None,
        })
        .collect();
    assert_eq!(decoded, payloads);
}

// ---------------------------------------------------------------------------
// Fairness: a backlogged session yields the worker to other waiting sessions.
// ---------------------------------------------------------------------------

/// A [`GatedReceiver`] that appends its session tag to a shared log on every
/// frame decode, so a test can read the global order in which the worker serviced
/// frames across sessions.
struct TaggedReceiver {
    gated: GatedReceiver,
    tag: usize,
    log: Arc<Mutex<Vec<usize>>>,
}

impl FrameReceiver for TaggedReceiver {
    type Stream = <StandardReceiver as FrameReceiver>::Stream;

    fn params(&self) -> &OfdmParams {
        self.gated.params()
    }

    fn new_stream(&self, persistence: ModelPersistence) -> Self::Stream {
        self.gated.new_stream(persistence)
    }

    fn begin_frame(&self, stream: &mut Self::Stream) {
        self.gated.begin_frame(stream);
    }

    fn decode_stream(
        &self,
        stream: &mut Self::Stream,
        samples: &[Complex],
        frame_start: usize,
        info: Option<FrameInfo>,
    ) -> ofdmphy::Result<RxFrame> {
        self.log.lock().unwrap().push(self.tag);
        self.gated.decode_stream(stream, samples, frame_start, info)
    }
}

/// On a one-worker server, session A is filled to capacity while the worker is
/// wedged inside A's first frame, then session B queues one chunk. Every chunk
/// carries one whole frame, so the decode log is the service order. B's frame must
/// decode while A still has a backlog: the fairness budget re-enqueues A behind B
/// instead of letting it drain its whole queue first.
#[test]
fn fairness_budget_services_a_waiting_session_before_a_backlog_drains() {
    const CAPACITY: usize = 48;
    let params = params();
    let tx = Transmitter::new(params.clone());
    let frame_chunk = |payload: &[u8]| {
        let mut c = vec![Complex::zero(); 300];
        c.extend(tx.build_frame(payload, mcs(), 0x5D).unwrap().samples);
        c.extend(vec![Complex::zero(); 300]);
        c
    };
    let chunk_a = frame_chunk(b"backlogged station");
    let chunk_b = frame_chunk(b"waiting station");

    let log = Arc::new(Mutex::new(Vec::new()));
    let server: RxServer<TaggedReceiver> = RxServer::new(ServerConfig {
        threads: 1,
        queue_capacity: CAPACITY,
    });
    let session = |tag: usize, gate: &Arc<Gate>| {
        server.add_session(
            TaggedReceiver {
                gated: GatedReceiver {
                    inner: StandardReceiver::new(params.clone()),
                    gate: Arc::clone(gate),
                },
                tag,
                log: Arc::clone(&log),
            },
            SessionConfig::default(),
        )
    };
    let gate_a = Gate::new();
    let gate_b = Gate::new();
    gate_b.open();
    let a = session(0, &gate_a);
    let b = session(1, &gate_b);

    a.push(&chunk_a).unwrap();
    gate_a.wait_entered(); // the only worker is inside A's first frame
    for _ in 0..CAPACITY {
        a.try_push(&chunk_a).unwrap();
    }
    assert_eq!(a.try_push(&chunk_a), Err(PushError::Full));
    b.push(&chunk_b).unwrap();
    gate_a.open();
    server.drain();

    let log = log.lock().unwrap().clone();
    assert_eq!(log.iter().filter(|&&tag| tag == 0).count(), CAPACITY + 1);
    let b_at = log
        .iter()
        .position(|&tag| tag == 1)
        .expect("session B decoded its frame");
    let a_after_b = log.len() - b_at - 1;
    assert!(
        a_after_b > 0 && b_at < CAPACITY / 2,
        "B was serviced at position {b_at}, with {a_after_b} of A's frames after it"
    );
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Drain / shutdown under mid-frame partial chunks.
// ---------------------------------------------------------------------------

/// `drain()` is a barrier, not an end-of-stream: a frame whose tail has not
/// arrived stays pending across the drain and decodes when the tail lands — no
/// decodable frame is lost, and no spurious `SyncLost` is reported.
#[test]
fn drain_preserves_mid_frame_partial_chunks() {
    let (capture, payloads) = station_capture(0xD4A1, 1, 64);
    // Cut inside the frame: past the preamble, short of the tail.
    let cut = capture.len() * 2 / 3;

    let server: RxServer<StandardReceiver> = RxServer::new(ServerConfig {
        threads: 2,
        ..Default::default()
    });
    let handle = server.add_session(StandardReceiver::new(params()), SessionConfig::default());
    for c in capture[..cut].chunks(480) {
        handle.push(c).unwrap();
    }
    server.drain();
    let mid_events = handle.drain_events();
    assert!(
        !mid_events
            .iter()
            .any(|e| matches!(e, RxEvent::SyncLost { .. } | RxEvent::FrameDecoded { .. })),
        "drain must neither flush nor decode a half-arrived frame: {mid_events:?}"
    );
    assert_eq!(handle.counters().sync_losses, 0);

    for c in capture[cut..].chunks(480) {
        handle.push(c).unwrap();
    }
    server.shutdown();
    let mut events = mid_events;
    events.extend(handle.drain_events());

    let mut chunks: Vec<Vec<Complex>> = capture[..cut].chunks(480).map(|c| c.to_vec()).collect();
    chunks.extend(capture[cut..].chunks(480).map(|c| c.to_vec()));
    let (ref_events, ref_counters) = standalone_replay(
        StandardReceiver::new(params()),
        SessionConfig::default(),
        &chunks,
    );
    assert_events_bit_identical(&events, &ref_events, "drained-then-completed session");
    assert_eq!(handle.counters(), ref_counters);
    assert_counters_match_events(&events, handle.counters(), false, "drain test");
    let decoded: Vec<Vec<u8>> = events
        .iter()
        .filter_map(|e| match e {
            RxEvent::FrameDecoded { frame, .. } => frame.payload.clone(),
            _ => None,
        })
        .collect();
    assert_eq!(decoded, payloads, "the mid-drain frame still decodes");
}

/// `shutdown()` is the end-of-stream: a frame whose tail never arrives surfaces as
/// exactly the standalone flush would report it, and the counters stay in lockstep
/// with the events delivered across both drains.
#[test]
fn shutdown_mid_frame_matches_standalone_flush() {
    let (capture, _) = station_capture(0x51D0, 1, 64);
    let cut = capture.len() * 2 / 3;

    let server: RxServer<StandardReceiver> = RxServer::new(ServerConfig {
        threads: 2,
        ..Default::default()
    });
    let handle = server.add_session(StandardReceiver::new(params()), SessionConfig::default());
    for c in capture[..cut].chunks(256) {
        handle.push(c).unwrap();
    }
    server.shutdown();

    let events = handle.drain_events();
    let chunks: Vec<Vec<Complex>> = capture[..cut].chunks(256).map(|c| c.to_vec()).collect();
    let (ref_events, ref_counters) = standalone_replay(
        StandardReceiver::new(params()),
        SessionConfig::default(),
        &chunks,
    );
    assert_events_bit_identical(&events, &ref_events, "shutdown mid-frame");
    assert_eq!(handle.counters(), ref_counters);
    assert_counters_match_events(&events, handle.counters(), false, "shutdown test");
    assert_eq!(
        handle.counters().sync_losses,
        1,
        "the truncated frame is lost"
    );
}

/// A per-session `flush()` through the handle behaves exactly like the standalone
/// flush at the same stream position, and the session stays usable afterwards.
#[test]
fn handle_flush_is_ordered_with_pushes() {
    let (capture, payloads) = station_capture(0xF1A5, 2, 40);

    let server: RxServer<StandardReceiver> = RxServer::new(ServerConfig {
        threads: 2,
        ..Default::default()
    });
    let handle = server.add_session(StandardReceiver::new(params()), SessionConfig::default());
    // Feed everything, flush through the handle (not shutdown), keep the server up.
    for c in capture.chunks(333) {
        handle.push(c).unwrap();
    }
    handle.flush().unwrap();
    server.drain();
    let events = handle.drain_events();

    let chunks: Vec<Vec<Complex>> = capture.chunks(333).map(|c| c.to_vec()).collect();
    let (ref_events, ref_counters) = standalone_replay(
        StandardReceiver::new(params()),
        SessionConfig::default(),
        &chunks,
    );
    assert_events_bit_identical(&events, &ref_events, "handle flush");
    assert_eq!(handle.counters(), ref_counters);
    assert_eq!(
        events
            .iter()
            .filter(|e| matches!(e, RxEvent::FrameDecoded { .. }))
            .count(),
        payloads.len()
    );
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Shutdown and flush against a full queue (flushes bypass backpressure).
// ---------------------------------------------------------------------------

/// Regression: `shutdown` (and `handle.flush`) must complete even when a session's
/// ingress queue is full and the only worker is wedged mid-decode. A flush does not
/// count against the queue capacity, so it can always be accepted; a producer
/// blocked in `push` must wake with `Closed` instead of deadlocking against the
/// flush. A hang here fails via the test harness timeout.
#[test]
fn shutdown_completes_while_queues_are_full() {
    let (capture, payloads) = station_capture(0x51DE, 1, 48);
    let cut = capture.len() / 2;

    let gate = Gate::new();
    let server: RxServer<GatedReceiver> = RxServer::new(ServerConfig {
        threads: 1,
        queue_capacity: 2,
    });
    let server = Arc::new(server);
    let handle = server.add_session(
        GatedReceiver {
            inner: StandardReceiver::new(params()),
            gate: Arc::clone(&gate),
        },
        SessionConfig::default(),
    );

    // Wedge the only worker inside the frame, then fill the queue to capacity.
    handle.push(&capture[..cut]).unwrap();
    gate.wait_entered();
    let tail: Vec<Vec<Complex>> = capture[cut..].chunks(256).map(|c| c.to_vec()).collect();
    handle.try_push(&tail[0]).unwrap();
    handle.try_push(&tail[1]).unwrap();
    assert_eq!(handle.try_push(&tail[2]), Err(PushError::Full));

    // A flush against the full queue is accepted immediately (it takes no capacity).
    assert_eq!(handle.flush(), Ok(()));

    // Block one producer in a push against the full queue, then shut down
    // from another thread while the worker is still wedged.
    let parked_handle = handle.clone();
    let parked_chunk = tail[2].clone();
    let parked = std::thread::spawn(move || parked_handle.push(&parked_chunk));
    let shutdown_server = Arc::clone(&server);
    let shutdown = std::thread::spawn(move || shutdown_server.shutdown());

    // Give both threads time to reach their blocking points, then release the
    // worker. Shutdown must now run to completion.
    std::thread::sleep(std::time::Duration::from_millis(50));
    gate.open();
    shutdown.join().expect("shutdown thread");
    match parked.join().expect("parked producer") {
        // Closed: woken by shutdown while still parked (the common interleaving).
        Err(PushError::Closed) => {
            // The accepted prefix was serviced; the parked chunk was not.
            let serviced: Vec<Vec<Complex>> = std::iter::once(capture[..cut].to_vec())
                .chain(tail[..2].iter().cloned())
                .collect();
            let (ref_events, ref_counters) = standalone_replay(
                StandardReceiver::new(params()),
                SessionConfig::default(),
                &serviced,
            );
            assert_events_bit_identical(&handle.drain_events(), &ref_events, "closed while full");
            assert_eq!(handle.counters(), ref_counters);
        }
        // Ok: the push won the race against close once space freed. The exact
        // event stream then depends on where the earlier mid-stream flush
        // landed (it may SyncLost the wedged frame); the property under test is
        // that nothing deadlocked and accounting covers all four accepted chunks.
        Ok(()) => {
            let expected: usize = cut + tail[..3].iter().map(Vec::len).sum::<usize>();
            assert_eq!(handle.samples_pushed(), expected);
            let _ = payloads; // decode equality is pinned by the Closed arm
        }
        Err(PushError::Full) => panic!("blocking push must never return Full"),
    }
    // Idempotent second shutdown still cannot hang.
    server.shutdown();
}
