//! The observability layer's pinned invariant: **instrumentation never changes a
//! decode**. An instrumented run (live `InMemoryRecorder`) must produce bit-for-bit
//! the same results as the no-op-recorder run and the plain uninstrumented API — same
//! [`SyncResult`] bits, same PSDU, same FCS verdict, same equalized subcarrier
//! decisions — for both receivers, on the batch path and on chunked sessions.
//!
//! Also here: the session counter ↔ event consistency property (the counters exposed
//! by [`RxSession`] must agree exactly with the drained [`RxEvent`] stream).

use cprecycle::session::{RxEvent, RxSession, SessionConfig};
use cprecycle::{CpRecycleConfig, CpRecycleReceiver, RxStream};
use obs::{InMemoryRecorder, NoopRecorder, Recorder};
use ofdmphy::convcode::CodeRate;
use ofdmphy::frame::{Mcs, Transmitter};
use ofdmphy::modulation::Modulation;
use ofdmphy::params::OfdmParams;
use ofdmphy::rx::{FrameReceiver, ModelPersistence, RxFrame, StandardReceiver};
use ofdmphy::sync::SyncResult;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rfdsp::Complex;
use wirelesschan::awgn::AwgnChannel;
use wirelesschan::mixer::{combine, InterfererSpec};

fn params() -> OfdmParams {
    OfdmParams::ieee80211ag()
}

fn mcs() -> Mcs {
    Mcs::new(Modulation::Qpsk, CodeRate::Half)
}

/// One noisy frame between noise pads, optionally behind an asynchronous interferer.
fn build_capture(seed: u64, snr_db: f64, interfered: bool) -> Vec<Complex> {
    let tx = Transmitter::new(params());
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let payload: Vec<u8> = (0..80).map(|_| rng.gen()).collect();
    let frame = tx.build_frame(&payload, mcs(), 0x5D).unwrap();
    let mut body = frame.samples.clone();
    if interfered {
        let intf = tx
            .build_frame(
                &(0..200).map(|_| rng.gen()).collect::<Vec<u8>>(),
                Mcs::new(Modulation::Qam16, CodeRate::Half),
                0x2F,
            )
            .unwrap();
        let spec = InterfererSpec::new(intf.samples, 0.0017, 23.7, 4.0);
        body = combine(&body, &[spec]).unwrap().composite;
    }
    let power = rfdsp::power::signal_power(&frame.samples).unwrap();
    let noise_var = power / rfdsp::power::db_to_lin(snr_db);
    let mut g = rfdsp::noise::GaussianSource::new();
    let mut capture = g.complex_vector(&mut rng, 240, noise_var);
    capture.extend(body);
    capture.extend(g.complex_vector(&mut rng, 160, noise_var));
    let mut chan = AwgnChannel::new();
    chan.add_noise_variance(&mut rng, &mut capture, noise_var)
        .unwrap();
    capture
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

fn assert_syncs_bit_identical(a: &SyncResult, b: &SyncResult, context: &str) {
    assert_eq!(a.frame_start, b.frame_start, "{context}: frame_start");
    assert_eq!(
        a.cfo_hz.to_bits(),
        b.cfo_hz.to_bits(),
        "{context}: cfo bits"
    );
}

/// Streams `capture` through a session with the given recorder; returns the first
/// detection and decoded frame.
fn stream_once<R: FrameReceiver, O: Recorder>(
    receiver: R,
    capture: &[Complex],
    chunk: usize,
    obs: O,
) -> (SyncResult, RxFrame) {
    let mut session = RxSession::with_recorder(receiver, SessionConfig::default(), obs);
    for c in capture.chunks(chunk.max(1)) {
        session.push(c).unwrap();
    }
    session.flush().unwrap();
    let mut sync = None;
    let mut frame = None;
    for event in session.drain_events() {
        match event {
            RxEvent::FrameDetected { sync: s } if sync.is_none() => sync = Some(s),
            RxEvent::FrameDecoded { frame: f, .. } if frame.is_none() => frame = Some(*f),
            _ => {}
        }
    }
    (
        sync.expect("session detected the frame"),
        frame.expect("session decoded the frame"),
    )
}

/// Batch path, both receivers: the observed decode (`decode_stream_observed`, or
/// `decode_frame_session_observed` on a fresh `PerFrame` stream) with a live recorder
/// must be bit-identical to the plain `decode_frame`, and the recorder must actually have
/// seen the stage spans.
#[test]
fn instrumented_batch_decode_is_bit_identical() {
    for (seed, interfered) in [(11u64, false), (12, true)] {
        let capture = build_capture(seed, 25.0, interfered);
        let context = format!("seed {seed} interfered {interfered}");

        let standard = StandardReceiver::new(params());
        let sync = ofdmphy::sync::Synchronizer::new(params());
        let det = sync.detect(&capture).unwrap().expect("detected");
        let plain = standard
            .decode_frame(&capture, det.frame_start, None)
            .unwrap();
        let noop = standard
            .decode_stream_observed(&mut (), &capture, det.frame_start, None, &NoopRecorder)
            .unwrap();
        let rec = InMemoryRecorder::default();
        let live = standard
            .decode_stream_observed(&mut (), &capture, det.frame_start, None, &rec)
            .unwrap();
        assert_frames_bit_identical(&plain, &noop, &format!("standard noop, {context}"));
        assert_frames_bit_identical(&plain, &live, &format!("standard live, {context}"));
        let snap = rec.snapshot().unwrap();
        assert!(snap.stage("sync", "Standard").is_some(), "{context}");
        assert!(snap.stage("decide", "Standard").is_some(), "{context}");

        let cp = CpRecycleReceiver::new(params(), CpRecycleConfig::default());
        let plain = cp.decode_frame(&capture, det.frame_start, None).unwrap();
        let mut stream = RxStream::new(ModelPersistence::PerFrame);
        let start = det.frame_start;
        let noop = cp
            .decode_frame_session_observed(&capture, start, None, None, &mut stream, &NoopRecorder)
            .unwrap();
        let rec = InMemoryRecorder::default();
        let live = cp
            .decode_frame_session_observed(&capture, start, None, None, &mut stream, &rec)
            .unwrap();
        assert_frames_bit_identical(&plain, &noop, &format!("cprecycle noop, {context}"));
        assert_frames_bit_identical(&plain, &live, &format!("cprecycle live, {context}"));
        let snap = rec.snapshot().unwrap();
        for stage in ["sync", "extract", "decide", "bits"] {
            assert!(snap.stage(stage, "Sphere").is_some(), "{context}: {stage}");
        }
        assert!(snap.stage("model_train", "ExactKde").is_some(), "{context}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Chunked sessions, both receivers: a session with a live recorder decodes
    /// bit-for-bit what the no-op-recorder session decodes, for arbitrary chunkings
    /// and clean/interfered captures.
    #[test]
    fn instrumented_session_is_bit_identical(
        seed in 0u64..200,
        chunk in 1usize..700,
        interfered in any::<bool>(),
    ) {
        let capture = build_capture(seed, 25.0, interfered);
        let context = format!("seed {seed} chunk {chunk} interfered {interfered}");

        let (sync_a, frame_a) = stream_once(
            StandardReceiver::new(params()), &capture, chunk, NoopRecorder);
        let (sync_b, frame_b) = stream_once(
            StandardReceiver::new(params()), &capture, chunk, InMemoryRecorder::default());
        assert_syncs_bit_identical(&sync_a, &sync_b, &format!("standard, {context}"));
        assert_frames_bit_identical(&frame_a, &frame_b, &format!("standard, {context}"));

        let (sync_a, frame_a) = stream_once(
            CpRecycleReceiver::new(params(), CpRecycleConfig::default()),
            &capture, chunk, NoopRecorder);
        let (sync_b, frame_b) = stream_once(
            CpRecycleReceiver::new(params(), CpRecycleConfig::default()),
            &capture, chunk, InMemoryRecorder::default());
        assert_syncs_bit_identical(&sync_a, &sync_b, &format!("cprecycle, {context}"));
        assert_frames_bit_identical(&frame_a, &frame_b, &format!("cprecycle, {context}"));
    }

    /// The session counters must agree exactly with the drained event stream, and the
    /// metrics snapshot must mirror the counters.
    #[test]
    fn session_counters_agree_with_drained_events(
        seed in 0u64..200,
        chunk in 1usize..700,
        interfered in any::<bool>(),
    ) {
        let capture = build_capture(seed, 25.0, interfered);
        let mut session = RxSession::with_recorder(
            CpRecycleReceiver::new(params(), CpRecycleConfig::default()),
            SessionConfig::default(),
            InMemoryRecorder::default(),
        );
        for c in capture.chunks(chunk) {
            session.push(c).unwrap();
        }
        session.flush().unwrap();

        let counters = session.counters();
        let events = session.drain_events();
        let mut detected = 0usize;
        let mut decoded = 0usize;
        let mut passes = 0usize;
        let mut failures = 0usize;
        let mut false_alarms = 0usize;
        let mut sync_losses = 0usize;
        for event in &events {
            match event {
                RxEvent::FrameDetected { .. } => detected += 1,
                RxEvent::FrameDecoded { frame, .. } => {
                    decoded += 1;
                    if frame.crc_ok { passes += 1; } else { failures += 1; }
                }
                RxEvent::FalseAlarm { .. } => false_alarms += 1,
                RxEvent::SyncLost { .. } => sync_losses += 1,
            }
        }
        prop_assert_eq!(counters.frames_detected, detected);
        prop_assert_eq!(counters.frames_decoded, decoded);
        prop_assert_eq!(counters.fcs_passes, passes);
        prop_assert_eq!(counters.fcs_failures, failures);
        prop_assert_eq!(counters.false_alarms, false_alarms);
        prop_assert_eq!(counters.sync_losses, sync_losses);
        prop_assert_eq!(session.frames_detected(), detected);
        prop_assert_eq!(session.frames_decoded(), decoded);
        prop_assert_eq!(session.fcs_failures(), failures);
        prop_assert_eq!(session.false_alarms(), false_alarms);
        prop_assert_eq!(session.sync_losses(), sync_losses);

        let snap = session.metrics_snapshot();
        prop_assert_eq!(snap.counter("samples_pushed"), session.samples_pushed() as u64);
        prop_assert_eq!(snap.counter("frames_detected"), detected as u64);
        prop_assert_eq!(snap.counter("frames_decoded"), decoded as u64);
        prop_assert_eq!(snap.counter("fcs_passes"), passes as u64);
        prop_assert_eq!(snap.counter("fcs_failures"), failures as u64);
        prop_assert_eq!(snap.counter("false_alarms"), false_alarms as u64);
        prop_assert_eq!(snap.counter("sync_losses"), sync_losses as u64);
        // Every detection mirrors into the structured trace (ring capacity permitting).
        let traced_detections = snap
            .trace
            .iter()
            .filter(|e| e.kind == "frame_detected")
            .count();
        prop_assert!(traced_detections <= detected);
        if snap.trace_dropped == 0 {
            prop_assert_eq!(traced_detections, detected);
        }
    }
}
