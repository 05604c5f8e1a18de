//! Bursty-traffic streaming campaigns: back-to-back frames at random gaps decoded
//! through [`RxSession`]s, at campaign scale.
//!
//! The link campaigns ([`crate::link`]) isolate the decision math with genie timing —
//! one frame, known start, known MCS. This module exercises the part of the receive
//! chain the paper's deployment story actually depends on: a *stream* of frames at
//! random gaps, detected by the incremental synchroniser, SIGNAL fields decoded over
//! the air, and (optionally) the interference model rolled forward across frames via
//! [`ModelPersistence::Rolling`] — PR 4's incremental dirty-bin
//! `InterferenceModel::update()` exercised by the engine at campaign scale.
//!
//! A *stream trial* builds `frames_per_trial` victim frames with distinct random
//! payloads, lays them out with random inter-frame gaps, renders one interference
//! scenario over the whole capture, and pushes the result chunk-by-chunk through one
//! session per arm. Per-frame recovery is counted **in order**: a frame counts as
//! recovered only if its payload is decoded after every earlier recovered frame (a
//! receiver cannot reorder a radio stream). The trial reports
//! `success = all frames recovered` (the aggregate PSR) and
//! `metric = recovered fraction` (whose campaign mean is the per-frame PSR).
//!
//! Power-normalisation note: the scenario's SIR/SNR are referenced to the average
//! power of the whole bursty capture (gaps included), so the effective per-frame SIR
//! is slightly harsher than the nominal figure by the duty-cycle factor; grids keep
//! gaps small relative to frames so the two stay within ~1 dB.

use crate::link::Scenario;
use crate::Result;
use cprecycle::{
    CpRecycleConfig, CpRecycleReceiver, ModelPersistence, RxEvent, RxSession, SessionConfig,
};
use cprecycle_engine::{
    run_campaign, CampaignConfig, CampaignPoint, CampaignResult, EngineError, RunOptions,
    TrialOutcome, TrialRecord,
};
use ofdmphy::convcode::CodeRate;
use ofdmphy::frame::{Mcs, Transmitter};
use ofdmphy::modulation::Modulation;
use ofdmphy::params::OfdmParams;
use ofdmphy::rx::{FrameInfo, StandardReceiver};
use rand::rngs::StdRng;
use rand::Rng;
use rfdsp::Complex;
use std::collections::HashMap;

/// One receiver arm of a stream campaign: which receiver decodes the stream, and —
/// for CPRecycle — how its interference model persists across the stream's frames.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamArm {
    /// The conventional receiver behind a session.
    Standard,
    /// The CPRecycle receiver behind a session.
    CpRecycle {
        /// Receiver configuration (decision stage, `P`, estimator backend, …).
        config: CpRecycleConfig,
        /// Cross-frame model persistence ([`ModelPersistence::Rolling`] is the first
        /// real consumer of the incremental model update).
        persistence: ModelPersistence,
    },
}

impl StreamArm {
    /// A CPRecycle arm with the default configuration and the given persistence.
    pub fn cprecycle(persistence: ModelPersistence) -> Self {
        StreamArm::CpRecycle {
            config: CpRecycleConfig::default(),
            persistence,
        }
    }

    /// Label used in reports and campaign tallies; names the receiver, decoder and —
    /// for model-scoring CPRecycle arms — the persistence policy.
    pub fn label(&self) -> String {
        match self {
            StreamArm::Standard => "Standard".into(),
            StreamArm::CpRecycle {
                config,
                persistence,
            } => {
                if config.decision.needs_interference_model() {
                    format!(
                        "CPRecycle({}, P={}, {}, {})",
                        config.decision.label(),
                        config.num_segments,
                        config.model.label(),
                        persistence.label()
                    )
                } else {
                    format!(
                        "CPRecycle({}, P={})",
                        config.decision.label(),
                        config.num_segments
                    )
                }
            }
        }
    }
}

/// One operating point of a stream campaign.
#[derive(Debug, Clone)]
pub struct StreamPoint {
    /// Display label for reports.
    pub label: String,
    /// OFDM numerology of the victim link.
    pub params: OfdmParams,
    /// Victim modulation and code rate (frames advertise it in their SIGNAL field —
    /// sessions decode over the air, there is no genie metadata).
    pub mcs: Mcs,
    /// Interference environment, rendered over the whole bursty capture.
    pub scenario: Scenario,
    /// Receiver arms; each trial streams the same capture through every one.
    pub arms: Vec<StreamArm>,
    /// Victim payload length in bytes.
    pub payload_len: usize,
    /// Number of back-to-back frames per trial (≥ 1; the bursty grids use ≥ 3).
    pub frames_per_trial: usize,
    /// Inclusive range of the random noise gap (in samples) before each frame.
    pub gap_range: (usize, usize),
    /// Chunk size (in samples) the capture is pushed with.
    pub chunk_len: usize,
    /// Session detection threshold (see [`SessionConfig::detection_threshold`]).
    pub detection_threshold: f64,
}

impl StreamPoint {
    /// A point at the paper's default numerology: QPSK 1/2, 3 frames of 400 bytes per
    /// trial, gaps of 120–400 samples, 480-sample chunks, threshold 0.45 (asynchronous
    /// interference inflates the Schmidl–Cox energy normaliser, so the batch default
    /// of 0.8 would refuse to detect exactly the frames CPRecycle can save; 0.45
    /// measured best across the grid's SIR range with the session's false-alarm
    /// handling absorbing the extra fires).
    pub fn new(label: impl Into<String>, scenario: Scenario, arms: Vec<StreamArm>) -> Self {
        StreamPoint {
            label: label.into(),
            params: OfdmParams::ieee80211ag(),
            mcs: Mcs::new(Modulation::Qpsk, CodeRate::Half),
            scenario,
            arms,
            payload_len: 400,
            frames_per_trial: 3,
            gap_range: (120, 400),
            chunk_len: 480,
            detection_threshold: 0.45,
        }
    }

    /// Sets the payload length.
    pub fn payload(mut self, payload_len: usize) -> Self {
        self.payload_len = payload_len;
        self
    }

    /// Sets the number of frames per trial.
    pub fn frames(mut self, frames_per_trial: usize) -> Self {
        self.frames_per_trial = frames_per_trial;
        self
    }
}

impl CampaignPoint for StreamPoint {
    /// Like [`crate::link::LinkPoint`], the key encodes every outcome-relevant
    /// parameter (including the arm set with its persistence policies, the burst
    /// geometry and the chunking) but not the display label.
    fn key(&self) -> String {
        format!(
            "stream;fft={};cp={};rate={};mcs={:?};scenario={:?};arms={:?};payload={};frames={};gaps={:?};chunk={};thr={}",
            self.params.fft_size,
            self.params.cp_len,
            self.params.sample_rate_hz,
            self.mcs,
            self.scenario,
            self.arms,
            self.payload_len,
            self.frames_per_trial,
            self.gap_range,
            self.chunk_len,
            self.detection_threshold,
        )
    }

    fn label(&self) -> String {
        self.label.clone()
    }

    fn arm_labels(&self) -> Vec<String> {
        self.arms.iter().map(|a| a.label()).collect()
    }
}

/// Worker-local state: transmitters per grid point. Sessions are deliberately *not*
/// cached across trials — a trial's outcome must depend only on its seed-tree RNG,
/// never on which trials the same worker ran before (rolling model state would leak
/// across trials and break the serial≡parallel determinism contract).
#[derive(Default)]
pub struct StreamWorker {
    transmitters: HashMap<String, Transmitter>,
}

impl StreamWorker {
    /// An empty worker cache.
    pub fn new() -> Self {
        StreamWorker::default()
    }
}

/// Builds one bursty victim capture: `frames` frames with distinct random payloads,
/// each preceded by a random gap drawn from `gap_range` (inclusive), plus a trailing
/// pad so the last frame's fine sync and decode never wait on a flush. Returns the
/// payloads (for recovery accounting) and the composite victim samples.
pub fn build_burst(
    tx: &Transmitter,
    mcs: Mcs,
    payload_len: usize,
    frames: usize,
    gap_range: (usize, usize),
    rng: &mut StdRng,
) -> Result<(Vec<Vec<u8>>, Vec<Complex>)> {
    let (lo, hi) = gap_range;
    let mut payloads: Vec<Vec<u8>> = Vec::with_capacity(frames);
    let mut victim: Vec<Complex> = Vec::new();
    victim.extend(std::iter::repeat_n(Complex::zero(), rng.gen_range(lo..=hi)));
    for i in 0..frames {
        let payload: Vec<u8> = (0..payload_len).map(|_| rng.gen()).collect();
        let scramble_seed = rng.gen_range(1..=127u8);
        let frame = tx.build_frame(&payload, mcs, scramble_seed)?;
        payloads.push(payload);
        victim.extend_from_slice(&frame.samples);
        if i + 1 < frames {
            victim.extend(std::iter::repeat_n(Complex::zero(), rng.gen_range(lo..=hi)));
        }
    }
    victim.extend(std::iter::repeat_n(Complex::zero(), hi.max(256)));
    Ok((payloads, victim))
}

/// Counts in-order payload recoveries against the expected burst. A decoded frame is
/// credited against the earliest not-yet-matched expected frame at or after the last
/// match (a receiver cannot reorder a radio stream), so losing one frame mid-burst
/// does not zero credit for the frames recovered after it.
pub fn count_in_order_recoveries(
    events: impl IntoIterator<Item = RxEvent>,
    expected: &[Vec<u8>],
) -> usize {
    let mut recovered = 0usize;
    let mut next = 0usize;
    for event in events {
        if next >= expected.len() {
            break;
        }
        if let RxEvent::FrameDecoded { frame, .. } = event {
            if let Some(payload) = frame.payload.as_deref() {
                if let Some(hit) =
                    (next..expected.len()).find(|&i| expected[i].as_slice() == payload)
                {
                    recovered += 1;
                    next = hit + 1;
                }
            }
        }
    }
    recovered
}

/// Executes one stream trial: build the burst, render the scenario, stream it through
/// one fresh session per arm. Public so trials can be replayed in isolation.
pub fn run_stream_trial(
    worker: &mut StreamWorker,
    point: &StreamPoint,
    rng: &mut StdRng,
) -> Result<TrialRecord> {
    let tx = worker
        .transmitters
        .entry(point.key())
        .or_insert_with(|| Transmitter::new(point.params.clone()));

    let (payloads, victim) = build_burst(
        tx,
        point.mcs,
        point.payload_len,
        point.frames_per_trial,
        point.gap_range,
        rng,
    )?;

    let output = point.scenario.render(rng, &point.params, &victim)?;

    let mut arms = Vec::with_capacity(point.arms.len());
    for arm in &point.arms {
        let recovered = match arm {
            StreamArm::Standard => stream_capture(
                StandardReceiver::new(point.params.clone()),
                point,
                ModelPersistence::PerFrame,
                &output.received,
                &payloads,
            )?,
            StreamArm::CpRecycle {
                config,
                persistence,
            } => stream_capture(
                CpRecycleReceiver::new(point.params.clone(), *config),
                point,
                *persistence,
                &output.received,
                &payloads,
            )?,
        };
        let fraction = recovered as f64 / point.frames_per_trial as f64;
        arms.push(TrialOutcome::new(
            recovered == point.frames_per_trial,
            fraction,
        ));
    }
    Ok(TrialRecord { arms })
}

/// Streams one capture through a fresh session and counts in-order payload matches.
fn stream_capture<R: cprecycle::FrameReceiver>(
    receiver: R,
    point: &StreamPoint,
    persistence: ModelPersistence,
    capture: &[Complex],
    expected: &[Vec<u8>],
) -> Result<usize> {
    // A receiver knows its network's longest legitimate frame; capping there turns
    // parity-fluke SIGNAL lengths (detections on the *interferer's* preambles leak
    // through the channel filter) into false alarms instead of head-of-line stalls.
    let longest_frame = FrameInfo {
        mcs: point.mcs,
        psdu_len: point.payload_len + 4,
    }
    .frame_sample_len(&point.params);
    let mut session = RxSession::with_config(
        receiver,
        SessionConfig {
            persistence,
            detection_threshold: point.detection_threshold,
            correct_cfo: false,
            max_frame_samples: Some(longest_frame + 512),
        },
    );
    for chunk in capture.chunks(point.chunk_len.max(1)) {
        session.push(chunk)?;
    }
    session.flush()?;
    Ok(count_in_order_recoveries(session.drain_events(), expected))
}

/// Runs a stream campaign over `points` with the engine.
pub fn run_stream_campaign(
    config: &CampaignConfig,
    points: &[StreamPoint],
    options: &RunOptions<'_>,
) -> std::result::Result<CampaignResult, EngineError> {
    run_campaign(
        config,
        points,
        StreamWorker::new,
        |worker, point, _point_idx, _trial_idx, rng| run_stream_trial(worker, point, rng),
        options,
    )
}

/// Replays one stream trial of a point in isolation, reproducing exactly what the
/// campaign executor computed for `(master_seed, point, trial_idx)`.
pub fn replay_stream_trial(
    master_seed: u64,
    point: &StreamPoint,
    trial_idx: usize,
) -> Result<TrialRecord> {
    let mut worker = StreamWorker::new();
    let mut rng = cprecycle_engine::trial_rng(master_seed, &point.key(), trial_idx as u64);
    run_stream_trial(&mut worker, point, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_point(arms: Vec<StreamArm>) -> StreamPoint {
        StreamPoint::new("clean", Scenario::Clean { snr_db: 28.0 }, arms)
            .payload(60)
            .frames(3)
    }

    #[test]
    fn arm_labels_name_receiver_and_persistence() {
        assert_eq!(StreamArm::Standard.label(), "Standard");
        let rolling = StreamArm::cprecycle(ModelPersistence::Rolling).label();
        assert!(rolling.contains("Rolling"), "{rolling}");
        assert!(rolling.contains("Sphere"), "{rolling}");
        let per_frame = StreamArm::cprecycle(ModelPersistence::PerFrame).label();
        assert!(per_frame.contains("PerFrame"), "{per_frame}");
    }

    #[test]
    fn persistence_is_part_of_the_point_key() {
        let a = clean_point(vec![StreamArm::cprecycle(ModelPersistence::PerFrame)]);
        let b = clean_point(vec![StreamArm::cprecycle(ModelPersistence::Rolling)]);
        assert_ne!(a.key(), b.key(), "persistence must affect point identity");
        // Burst geometry is part of the identity too.
        let c = clean_point(vec![StreamArm::Standard]).frames(5);
        let d = clean_point(vec![StreamArm::Standard]);
        assert_ne!(c.key(), d.key());
        // Labels are not.
        let mut e = clean_point(vec![StreamArm::Standard]);
        e.label = "renamed".into();
        assert_eq!(e.key(), d.key());
    }

    #[test]
    fn clean_burst_recovers_every_frame_for_every_arm() {
        // The end-to-end acceptance shape: a bursty campaign (3 back-to-back frames
        // per trial) through the engine, with per-frame PSR reported per arm.
        let point = clean_point(vec![
            StreamArm::Standard,
            StreamArm::cprecycle(ModelPersistence::PerFrame),
            StreamArm::cprecycle(ModelPersistence::Rolling),
        ]);
        let result = run_stream_campaign(
            &CampaignConfig::new("stream-clean", 0xFEED).trials(3),
            std::slice::from_ref(&point),
            &RunOptions::default(),
        )
        .unwrap();
        for arm in &result.points[0].arms {
            assert_eq!(arm.success_percent(), 100.0, "{}", arm.label);
            assert_eq!(arm.metric_mean(), 1.0, "{}", arm.label);
        }
    }

    #[test]
    fn serial_and_parallel_stream_campaigns_are_bit_identical() {
        // Sessions are rebuilt per trial, so rolling model state cannot leak across
        // trials and the engine's determinism contract holds through the whole
        // streaming chain.
        let points = vec![
            clean_point(vec![
                StreamArm::Standard,
                StreamArm::cprecycle(ModelPersistence::Rolling),
            ]),
            StreamPoint::new(
                "cci",
                Scenario::Cci(crate::interference::CciScenario {
                    sir_db: 15.0,
                    ..Default::default()
                }),
                vec![StreamArm::cprecycle(ModelPersistence::Rolling)],
            )
            .payload(60),
        ];
        let serial = run_stream_campaign(
            &CampaignConfig::new("stream-det", 0xBEEF)
                .trials(3)
                .threads(1),
            &points,
            &RunOptions::default(),
        )
        .unwrap();
        let parallel = run_stream_campaign(
            &CampaignConfig::new("stream-det", 0xBEEF)
                .trials(3)
                .threads(4),
            &points,
            &RunOptions::default(),
        )
        .unwrap();
        assert_eq!(serial.deterministic_view(), parallel.deterministic_view());
    }

    #[test]
    fn replaying_a_stream_trial_reproduces_its_outcome() {
        let point = clean_point(vec![StreamArm::cprecycle(ModelPersistence::Rolling)]);
        let seed = 0xABCD;
        let trials = 3;
        let campaign = run_stream_campaign(
            &CampaignConfig::new("stream-replay", seed).trials(trials),
            std::slice::from_ref(&point),
            &RunOptions::default(),
        )
        .unwrap();
        let mut successes = 0usize;
        let mut metric_sum = 0.0f64;
        for t in 0..trials {
            let record = replay_stream_trial(seed, &point, t).unwrap();
            if record.arms[0].success {
                successes += 1;
            }
            metric_sum += record.arms[0].metric;
        }
        let arm = &campaign.points[0].arms[0];
        assert_eq!(arm.successes, successes);
        assert_eq!(arm.metric_sum.to_bits(), metric_sum.to_bits());
    }
}
