//! `link_interfered`: batch decode of a seeded interfered corpus on one thread.
//!
//! The decoder is `CpRecycleReceiver::decode_frame_session` over one `PerFrame`
//! `RxStream`, as the campaign workers drive it, with the SIGNAL field decoded
//! over the air. A closed loop: the next frame is handed over when the previous
//! decode returns.

use crate::corpus::{self, LinkFrame, PAYLOAD_LEN};
use crate::probe::{hd_quantile, mean, StageTotals};
use crate::{Args, Outcome};
use cprecycle::{
    CpRecycleConfig, CpRecycleReceiver, DecisionStage, FixedSphereMlDecoder, ModelPersistence,
    RxStream, SegmentScratch,
};
use obs::InMemoryRecorder;
use ofdmphy::chanest::ChannelEstimate;
use ofdmphy::params::OfdmParams;
use ofdmphy::preamble;
use ofdmphy::rx::{FrameInfo, RxFrame};
use ofdmphy::PhyError;
use std::time::{Duration, Instant};

/// Frames per corpus cell (16 cells): one pass is 160 frames.
const PER_CELL: usize = 10;

/// Cyclic passes over the corpus.
#[derive(Default)]
struct Pass {
    /// Frames decoded (corpus indices, wrapping).
    frames: usize,
    samples: usize,
    /// Wall time inside decode calls.
    busy_ns: u64,
    /// Fastest decode of each corpus frame (`u64::MAX` if never decoded).
    best_ns: Vec<u64>,
    signal_failures: u64,
    faults: u64,
    /// Recovery verdict per corpus frame, from the first decode of each.
    first_pass: Vec<Option<bool>>,
    correct: bool,
    stages: StageTotals,
    candidates: Vec<f64>,
    model_samples: Vec<f64>,
}

impl Pass {
    /// Decode rate in Msps over the frames decoded, each at its fastest decode.
    fn msps(&self, corpus: &[LinkFrame]) -> f64 {
        let (samples, nanos) = corpus
            .iter()
            .zip(&self.best_ns)
            .filter(|(_, &ns)| ns != u64::MAX)
            .fold((0usize, 0u64), |(s, n), (f, ns)| {
                (s + f.received.len(), n + ns)
            });
        samples as f64 / nanos as f64 * 1e3
    }

    /// Each decoded frame's fastest decode, in milliseconds.
    fn frame_ms(&self) -> Vec<f64> {
        self.best_ns
            .iter()
            .filter(|&&ns| ns != u64::MAX)
            .map(|&ns| ns as f64 / 1e6)
            .collect()
    }
}

fn receiver() -> CpRecycleReceiver {
    CpRecycleReceiver::new(OfdmParams::ieee80211ag(), CpRecycleConfig::default())
}

/// Whether a decode recovered the frame; a wrong FCS-passing payload clears
/// `correct`.
fn verdict(out: &ofdmphy::Result<RxFrame>, frame: &LinkFrame, correct: &mut bool) -> bool {
    match out {
        Ok(rx) if rx.crc_ok => {
            if rx.payload.as_deref() != Some(&frame.payload[..]) || rx.info.mcs != frame.mcs {
                *correct = false;
            }
            true
        }
        _ => false,
    }
}

/// Decodes the corpus cyclically for `budget`, and at least `min_frames` frames.
fn run_pass(
    rx: &CpRecycleReceiver,
    corpus: &[LinkFrame],
    budget: Duration,
    min_frames: usize,
    traced: bool,
) -> Pass {
    let mut stream = RxStream::new(ModelPersistence::PerFrame);
    let mut pass = Pass {
        best_ns: vec![u64::MAX; corpus.len()],
        first_pass: vec![None; corpus.len()],
        correct: true,
        ..Default::default()
    };
    let recorder = InMemoryRecorder::default();
    let started = Instant::now();
    while pass.frames < min_frames || started.elapsed() < budget {
        let idx = pass.frames % corpus.len();
        let frame = &corpus[idx];
        stream.begin_frame();
        let t = Instant::now();
        let out = if traced {
            rx.decode_frame_session_observed(&frame.received, 0, None, None, &mut stream, &recorder)
        } else {
            rx.decode_frame_session(&frame.received, 0, None, None, &mut stream)
        };
        let nanos = t.elapsed().as_nanos() as u64;
        pass.busy_ns += nanos;
        pass.best_ns[idx] = pass.best_ns[idx].min(nanos);
        pass.frames += 1;
        pass.samples += frame.received.len();
        match &out {
            Err(PhyError::DecodeFailure(_)) => pass.signal_failures += 1,
            Err(PhyError::InsufficientSamples { .. }) | Ok(_) => {}
            Err(_) => pass.faults += 1,
        }
        let ok = verdict(&out, frame, &mut pass.correct);
        // Decoding is deterministic: a repeat decode must reach the same verdict.
        match pass.first_pass[idx] {
            None => pass.first_pass[idx] = Some(ok),
            Some(first) if first != ok => pass.correct = false,
            Some(_) => {}
        }
        if traced {
            if let Some(model) = stream.model() {
                let bins = rx.engine().params().data_bins();
                let total: usize = bins.iter().map(|&b| model.num_samples(b)).sum();
                pass.model_samples.push(total as f64 / bins.len() as f64);
                if let Some(c) = candidates_per_bin(rx, &stream, frame) {
                    pass.candidates.push(c);
                }
            }
        }
    }
    if traced {
        pass.stages = StageTotals::from_snapshot(Some(recorder.snapshot_now()));
    }
    pass
}

/// Mean sphere search-space size per data bin over the frame's DATA symbols,
/// scored against the model the frame's own decode left in `stream`
/// (`FixedSphereMlDecoder::mean_search_space`).
fn candidates_per_bin(rx: &CpRecycleReceiver, stream: &RxStream, frame: &LinkFrame) -> Option<f64> {
    let DecisionStage::Sphere {
        radius_min_distances,
    } = rx.config().decision
    else {
        return None;
    };
    let model = stream.model()?;
    let engine = rx.engine();
    let params = engine.params();
    let sym_len = params.symbol_len();
    let ltf_start = preamble::ltf_start_offset(params);
    let signal_start = preamble::preamble_len(params);
    let estimate =
        ChannelEstimate::from_ltf(engine, &frame.received[ltf_start..signal_start]).ok()?;
    let info = FrameInfo {
        mcs: frame.mcs,
        psdu_len: PAYLOAD_LEN + 4,
    };
    let decoder = FixedSphereMlDecoder::new(model, frame.mcs.modulation, radius_min_distances);
    let bins = params.data_bins();
    let mut scratch = SegmentScratch::new();
    let mut sum = 0.0;
    let symbols = info.num_data_symbols(params);
    for s in 0..symbols {
        let start = signal_start + (1 + s) * sym_len;
        let segments = cprecycle::segments::extract_segments_precise(
            engine,
            &frame.received[start..start + sym_len],
            &estimate,
            rx.effective_segments(),
            rx.config().extraction,
            rx.config().precision,
            &mut scratch,
        )
        .ok()?;
        sum += decoder.mean_search_space(&segments, &bins, &mut scratch.decision);
    }
    Some(sum / symbols as f64)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let per_cell = if args.smoke { 1 } else { PER_CELL };
    let mut setups = Vec::new();
    let mut corpus = Vec::new();
    let mut rx = receiver();
    for _ in 0..args.setup_reps() {
        let t = Instant::now();
        corpus = corpus::link_corpus(args.seed, per_cell).map_err(|e| e.to_string())?;
        rx = receiver();
        setups.push(t.elapsed().as_secs_f64());
    }
    // Warm-up: one frame of every cell, untimed (lattice tables, scratch sizing).
    let warm = corpus.len().min(corpus::link_cells().len());
    run_pass(&rx, &corpus[..warm], Duration::ZERO, warm, false);

    let mut out = Outcome::new(&setups);
    if !args.trace {
        // At least two passes, so every frame's time is a best of two or more.
        let pass = run_pass(&rx, &corpus, args.budget(), 2 * corpus.len(), false);
        let first_recovered = pass.first_pass.iter().filter(|v| **v == Some(true)).count();
        let corpus_samples: usize = corpus.iter().map(|f| f.received.len()).sum();
        let frame_ms = pass.frame_ms();
        let msps = pass.msps(&corpus);
        let e = &mut out.end_to_end;
        e.set("decode_msps", msps);
        e.set("server_msps_peak", msps);
        // Payload bits recovered per captured sample, at the decode rate.
        let bits = (first_recovered * PAYLOAD_LEN * 8) as f64;
        e.set("goodput_mbps", msps * bits / corpus_samples as f64);
        e.set("psr", first_recovered as f64 / corpus.len() as f64);
        e.set("frame_ms_p50", hd_quantile(&frame_ms, 0.5));
        e.set("frame_ms_p95", hd_quantile(&frame_ms, 0.95));
        out.correct = pass.correct;
        out.attempted = pass.frames as u64;
        out.failed = pass.faults;
        out.note(format!(
            "corpus={} frames in {} cells, decoded={} frames, recovered_first_pass={}",
            corpus.len(),
            corpus::link_cells().len(),
            pass.frames,
            first_recovered
        ));
    } else {
        let half = args.budget() / 2;
        let plain = run_pass(&rx, &corpus, half, 0, false);
        let traced = run_pass(&rx, &corpus, half, 0, true);
        let samples = traced.samples as f64;
        let per_sample = |stage: &str| traced.stages.nanos(stage) as f64 / samples;
        let l = &mut out.per_layer;
        l.set("decision.decide.ns_per_sample", per_sample("decide"));
        l.set("decision.candidates_per_bin", mean(&traced.candidates));
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
        l.set("session.decode_calls_per_frame", 1.0);
        l.set("receiver.signal_failures", traced.signal_failures as f64);
        l.set(
            "receiver.unattributed.ns_per_sample",
            traced.busy_ns.saturating_sub(traced.stages.total()) as f64 / samples,
        );
        l.set(
            "trace.overhead_pct",
            (plain.msps(&corpus) / traced.msps(&corpus) - 1.0) * 100.0,
        );
        out.correct = plain.correct && traced.correct;
        out.attempted = (plain.frames + traced.frames) as u64;
        out.failed = plain.faults + traced.faults;
    }
    Ok(out)
}
