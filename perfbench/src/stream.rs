//! `stream_rolling`: one Rolling `RxSession<CpRecycleReceiver>` per 8-frame burst.
//!
//! A closed loop on one thread: each 480-sample chunk is pushed when the previous
//! `push` returns. Detection runs under the interferer, so the session meets
//! false alarms and phantom frames; the rolling model absorbs every FCS-passing
//! frame's preamble (`model_update`) and `decide` scores against an `N_p` that
//! grows by 2 per frame. The corpus is streamed in whole passes; a burst's
//! timings are its best across passes.

use crate::corpus::{self, Burst};
use crate::probe::{
    best_ms_by_key, fnv1a, hd_quantile, mean, BenchRecorder, DecodeLog, StageTotals, Timed,
};
use crate::{Args, Outcome};
use cprecycle::{CpRecycleConfig, CpRecycleReceiver, RxEvent, RxSession, RxStream, SessionConfig};
use cprecycle_scenarios::stream::count_in_order_recoveries;
use obs::Recorder;
use ofdmphy::params::OfdmParams;
use ofdmphy::rx::FrameInfo;
use std::time::{Duration, Instant};

/// Bursts in the corpus: one pass is 48 frames.
const BURSTS: usize = 6;

type Session = RxSession<Timed<CpRecycleReceiver>, BenchRecorder>;

#[derive(Default)]
struct Pass {
    bursts: usize,
    frames_sent: usize,
    samples: usize,
    /// Fastest wall time of each corpus burst, from session construction to the
    /// end of its flush (`u64::MAX` if never streamed).
    best_burst_ns: Vec<u64>,
    push_ns: u64,
    /// Recovered frames per corpus burst, from the first stream of each.
    first_pass: Vec<Option<usize>>,
    correct: bool,
    log: DecodeLog,
    /// `((burst, frame start) hash, push→decode ns)` of FCS-passing frames.
    push_decode: Vec<(u64, u64)>,
    false_alarms: usize,
    faults: u64,
    stages: StageTotals,
    model_samples: Vec<f64>,
}

impl Pass {
    /// Decode rate in Msps over the bursts streamed, each at its fastest.
    fn msps(&self, corpus: &[Burst]) -> f64 {
        let (samples, nanos) = corpus
            .iter()
            .zip(&self.best_burst_ns)
            .filter(|(_, &ns)| ns != u64::MAX)
            .fold((0usize, 0u64), |(s, n), (b, ns)| {
                (s + b.samples.len(), n + ns)
            });
        samples as f64 / nanos as f64 * 1e3
    }
}

fn session_config(params: &OfdmParams) -> SessionConfig {
    let point = corpus::stream_point();
    let longest_frame = FrameInfo {
        mcs: point.mcs,
        psdu_len: point.payload_len + 4,
    }
    .frame_sample_len(params);
    SessionConfig {
        persistence: cprecycle::ModelPersistence::Rolling,
        detection_threshold: point.detection_threshold,
        correct_cfo: false,
        max_frame_samples: Some(longest_frame + 512),
    }
}

fn new_session(params: &OfdmParams, traced: bool) -> Session {
    let rx = CpRecycleReceiver::new(params.clone(), CpRecycleConfig::default());
    RxSession::with_recorder(
        Timed::new(rx),
        session_config(params),
        BenchRecorder::new(traced),
    )
}

/// Mean interference-model samples per data bin, if a model exists.
fn model_samples_per_bin(stream: &RxStream, params: &OfdmParams) -> Option<f64> {
    let model = stream.model()?;
    let bins = params.data_bins();
    Some(bins.iter().map(|&b| model.num_samples(b)).sum::<usize>() as f64 / bins.len() as f64)
}

/// Streams corpus burst `idx` through a fresh session; returns its events.
fn stream_burst(corpus: &[Burst], idx: usize, traced: bool, pass: &mut Pass) -> Vec<RxEvent> {
    let params = OfdmParams::ieee80211ag();
    let chunk_len = corpus::stream_point().chunk_len;
    let burst = &corpus[idx];
    let started = Instant::now();
    let mut session = new_session(&params, traced);
    let mut push_started = Vec::new();
    let mut events = Vec::new();
    for chunk in burst.samples.chunks(chunk_len) {
        let t = Instant::now();
        push_started.push(t);
        if session.push(chunk).is_err() {
            pass.faults += 1;
        }
        pass.push_ns += t.elapsed().as_nanos() as u64;
        for event in session.drain_events() {
            if let RxEvent::FrameDecoded { frame, .. } = &event {
                if traced && frame.crc_ok {
                    if let Some(m) = model_samples_per_bin(session.stream(), &params) {
                        pass.model_samples.push(m);
                    }
                }
            }
            events.push(event);
        }
    }
    let t = Instant::now();
    if session.flush().is_err() {
        pass.faults += 1;
    }
    pass.push_ns += t.elapsed().as_nanos() as u64;
    let nanos = started.elapsed().as_nanos() as u64;
    pass.best_burst_ns[idx] = pass.best_burst_ns[idx].min(nanos);
    events.extend(session.drain_events());

    // push→decode: from the push that delivered a frame's last sample to the
    // instant the session announced the decode.
    let stamps = session.recorder().take_decoded();
    let decoded = events.iter().filter_map(|e| match e {
        RxEvent::FrameDecoded { frame, frame_start } => Some((frame, *frame_start)),
        _ => None,
    });
    for ((frame, frame_start), (_, _, decoded_at)) in decoded.zip(stamps) {
        if !frame.crc_ok {
            continue;
        }
        let last = frame_start + frame.info.frame_sample_len(&params) - 1;
        if let Some(due) = push_started.get(last / chunk_len) {
            let key = fnv1a(&[idx.to_le_bytes(), frame_start.to_le_bytes()].concat());
            let nanos = decoded_at.saturating_duration_since(*due).as_nanos() as u64;
            pass.push_decode.push((key, nanos));
        }
    }
    pass.log.merge(&session.receiver().take_log());
    pass.false_alarms += session.false_alarms();
    if traced {
        pass.stages
            .merge(&StageTotals::from_snapshot(session.recorder().snapshot()));
    }
    events
}

/// Streams the corpus cyclically for `budget`, and at least `min_bursts` bursts.
fn run_pass(corpus: &[Burst], budget: Duration, min_bursts: usize, traced: bool) -> Pass {
    let mut pass = Pass {
        best_burst_ns: vec![u64::MAX; corpus.len()],
        first_pass: vec![None; corpus.len()],
        correct: true,
        ..Default::default()
    };
    let started = Instant::now();
    while pass.bursts < min_bursts.max(1) || started.elapsed() < budget {
        let idx = pass.bursts % corpus.len();
        let events = stream_burst(corpus, idx, traced, &mut pass);
        let burst = &corpus[idx];
        // Every FCS-passing payload must be one the burst carried.
        for event in &events {
            if let RxEvent::FrameDecoded { frame, .. } = event {
                if let Some(p) = frame.payload.as_deref() {
                    if !burst.payloads.iter().any(|sent| sent.as_slice() == p) {
                        pass.correct = false;
                    }
                }
            }
        }
        // Streaming is deterministic: a repeat must recover the same frames.
        let recovered = count_in_order_recoveries(events, &burst.payloads);
        match pass.first_pass[idx] {
            None => pass.first_pass[idx] = Some(recovered),
            Some(first) if first != recovered => pass.correct = false,
            Some(_) => {}
        }
        pass.bursts += 1;
        pass.frames_sent += burst.payloads.len();
        pass.samples += burst.samples.len();
    }
    pass
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let bursts = if args.smoke { 1 } else { BURSTS };
    let params = OfdmParams::ieee80211ag();
    let mut setups = Vec::new();
    let mut corpus = Vec::new();
    for _ in 0..args.setup_reps() {
        let t = Instant::now();
        corpus = corpus::stream_corpus(args.seed, bursts).map_err(|e| e.to_string())?;
        drop(new_session(&params, false));
        setups.push(t.elapsed().as_secs_f64());
    }
    // Warm-up: one burst, untimed.
    run_pass(&corpus[..1], Duration::ZERO, 1, false);

    let mut out = Outcome::new(&setups);
    if !args.trace {
        // At least two passes, so every burst's time is a best of two or more.
        let pass = run_pass(&corpus, args.budget(), 2 * corpus.len(), false);
        let sent: usize = corpus.iter().map(|b| b.payloads.len()).sum();
        let recovered: usize = pass.first_pass.iter().flatten().sum();
        let corpus_samples: usize = corpus.iter().map(|b| b.samples.len()).sum();
        let frame_ms = best_ms_by_key(&pass.log.frames);
        let push_decode_ms = best_ms_by_key(&pass.push_decode);
        let msps = pass.msps(&corpus);
        let e = &mut out.end_to_end;
        e.set("decode_msps", msps);
        e.set("server_msps_peak", msps);
        // Payload bits recovered per captured sample, at the decode rate.
        let bits = (recovered * corpus::PAYLOAD_LEN * 8) as f64;
        e.set("goodput_mbps", msps * bits / corpus_samples as f64);
        e.set("psr", recovered as f64 / sent as f64);
        e.set("frame_ms_p50", hd_quantile(&frame_ms, 0.5));
        e.set("frame_ms_p95", hd_quantile(&frame_ms, 0.95));
        out.correct = pass.correct;
        out.attempted = pass.frames_sent as u64;
        out.failed = pass.faults + pass.log.faults;
        out.note(format!(
            "corpus={} bursts x 8 frames, streamed={} bursts, recovered_first_pass={recovered}/{sent}, decoded_frames={}, push_decode_ms_p50={} push_decode_ms_p99={}",
            corpus.len(),
            pass.bursts,
            frame_ms.len(),
            hd_quantile(&push_decode_ms, 0.5),
            hd_quantile(&push_decode_ms, 0.99)
        ));
    } else {
        let half = args.budget() / 2;
        let plain = run_pass(&corpus, half, 0, false);
        let traced = run_pass(&corpus, half, 0, true);
        let samples = traced.samples as f64;
        let frames = traced.frames_sent as f64;
        let per_sample = |stage: &str| traced.stages.nanos(stage) as f64 / samples;
        let l = &mut out.per_layer;
        l.set("decision.decide.ns_per_sample", per_sample("decide"));
        l.set(
            "interference_model.train.ns_per_sample",
            per_sample("model_train"),
        );
        l.set(
            "interference_model.samples_per_bin",
            mean(&traced.model_samples),
        );
        l.set("segments.extract.ns_per_sample", per_sample("extract"));
        l.set("receiver.sync.ns_per_sample", per_sample("sync"));
        l.set("viterbi.bits.ns_per_sample", per_sample("bits"));
        l.set(
            "receiver.unattributed.ns_per_sample",
            traced.log.busy_ns.saturating_sub(traced.stages.total()) as f64 / samples,
        );
        l.set(
            "receiver.signal_failures",
            traced.log.signal_failures as f64,
        );
        l.set(
            "session.self.ns_per_sample",
            traced.push_ns.saturating_sub(traced.log.busy_ns) as f64 / samples,
        );
        l.set(
            "session.decode_calls_per_frame",
            traced.log.calls as f64 / frames,
        );
        l.set(
            "session.false_alarms_per_frame",
            traced.false_alarms as f64 / frames,
        );
        l.set(
            "trace.overhead_pct",
            (plain.msps(&corpus) / traced.msps(&corpus) - 1.0) * 100.0,
        );
        // The rolling model's incremental refit runs on no declared workload.
        let update = per_sample("model_update");
        out.note(format!("interference_model.update.ns_per_sample={update}"));
        out.correct = plain.correct && traced.correct;
        out.attempted = (plain.frames_sent + traced.frames_sent) as u64;
        out.failed = plain.faults + plain.log.faults + traced.faults + traced.log.faults;
    }
    Ok(out)
}
