//! Packet-level link simulation: grid points, trial execution and packet-success-rate
//! measurement on top of the `cprecycle-engine` campaign engine.
//!
//! A *link trial* builds one victim frame, renders one interference scenario around it
//! and decodes the captured waveform with every receiver under test (the point's
//! *arms*). The paper's packet-success-rate figures average 2000 such trials per
//! operating point; here an operating point is a [`LinkPoint`] and whole figures run
//! as one parallel campaign over their full grid (see `crate::figures`).
//!
//! Determinism and replay: a trial's randomness comes exclusively from the engine's
//! seed tree, so any `(master seed, point, trial index)` triple can be re-executed in
//! isolation with [`replay_link_trial`] — the debugging workflow for "why did packet
//! 1372 of the −20 dB point fail?".

use crate::interference::{AciScenario, CciScenario, ScenarioOutput};
use crate::Result;
use cprecycle::{
    CpRecycleConfig, CpRecycleReceiver, DecisionStage, ModelBackend, ModelPersistence, RxStream,
};
use cprecycle_engine::{
    run_campaign, CampaignConfig, CampaignPoint, CampaignResult, EngineError, RunOptions,
    TrialOutcome, TrialRecord,
};
use obs::{NoopRecorder, Recorder};
use ofdmphy::frame::{Mcs, Transmitter, TxFrame};
use ofdmphy::params::OfdmParams;
use ofdmphy::rx::{FrameInfo, FrameReceiver, StandardReceiver};
use rand::rngs::StdRng;
use rand::Rng;
use rfdsp::Complex;
use std::collections::HashMap;

/// The receivers the experiments compare.
///
/// The decoder is part of the CPRecycle configuration
/// ([`CpRecycleConfig::decision`]): the naive Eq. 3 decoder, the genie-aided Oracle
/// and the standard-window decision are [`DecisionStage`]s of the same receiver, so a
/// single campaign sweeps decoders alongside SNR and `P`, and the decoder lands in
/// the engine's point keys and arm labels.
#[derive(Debug, Clone, PartialEq)]
pub enum ReceiverKind {
    /// The conventional CP-discarding receiver ("Without CPRecycle").
    Standard,
    /// The CPRecycle receiver with its configured decision stage.
    CpRecycle(CpRecycleConfig),
}

impl ReceiverKind {
    /// A CPRecycle receiver with the default configuration but the given decoder —
    /// the arm constructor decoder-sweep grids use.
    pub fn with_decision(decision: DecisionStage) -> Self {
        ReceiverKind::CpRecycle(CpRecycleConfig::with_decision(decision))
    }

    /// A CPRecycle receiver with the default configuration but the given
    /// interference-estimator backend — the arm constructor the `models` sweep uses.
    pub fn with_model(model: ModelBackend) -> Self {
        ReceiverKind::CpRecycle(CpRecycleConfig::with_model(model))
    }

    /// Short label used in result series; names the decoder — and, when the decision
    /// stage scores with the interference model, the estimator backend — so reports
    /// and `campaign list`/`replay` show exactly what each arm ran.
    pub fn label(&self) -> String {
        match self {
            ReceiverKind::Standard => "Standard".into(),
            ReceiverKind::CpRecycle(c) => {
                if c.decision.needs_interference_model() {
                    format!(
                        "CPRecycle({}, P={}, {})",
                        c.decision.label(),
                        c.num_segments,
                        c.model.label()
                    )
                } else {
                    format!("CPRecycle({}, P={})", c.decision.label(), c.num_segments)
                }
            }
        }
    }
}

/// The interference environment of a link run.
#[derive(Debug, Clone)]
pub enum Scenario {
    /// No interference (baseline sanity).
    Clean {
        /// Receiver SNR in dB.
        snr_db: f64,
    },
    /// Adjacent-channel interference.
    Aci(AciScenario),
    /// Co-channel interference.
    Cci(CciScenario),
}

impl Scenario {
    pub(crate) fn render<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        params: &OfdmParams,
        victim: &[Complex],
    ) -> Result<ScenarioOutput> {
        match self {
            Scenario::Clean { snr_db } => {
                let p = rfdsp::power::signal_power(victim)?;
                let noise_variance = p / rfdsp::power::db_to_lin(*snr_db);
                let mut received = victim.to_vec();
                let mut gauss = rfdsp::noise::GaussianSource::new();
                gauss.add_awgn(rng, &mut received, noise_variance);
                Ok(ScenarioOutput {
                    received,
                    interference_only: vec![Complex::zero(); victim.len()],
                    noise_variance,
                })
            }
            Scenario::Aci(s) => s.render(rng, params, victim),
            Scenario::Cci(s) => s.render(rng, params, victim),
        }
    }
}

/// Configuration of a Monte-Carlo packet-success-rate measurement (compatibility
/// shape; the engine-level equivalent is [`CampaignConfig`]).
#[derive(Debug, Clone)]
pub struct MonteCarloConfig {
    /// Number of packets per operating point (the paper uses 2000; tests use far fewer).
    pub packets: usize,
    /// Victim payload length in bytes (the paper uses 400-byte packets).
    pub payload_len: usize,
    /// Master seed of the engine's deterministic seed tree.
    pub seed: u64,
}

impl Default for MonteCarloConfig {
    fn default() -> Self {
        MonteCarloConfig {
            packets: 50,
            payload_len: 400,
            seed: 0xC0FFEE,
        }
    }
}

/// One operating point of a link campaign: a numerology + modulation + interference
/// scenario, decoded by a set of receivers (the point's arms).
#[derive(Debug, Clone)]
pub struct LinkPoint {
    /// Display label for reports ("SIR −20 dB", "guard 5 MHz", …).
    pub label: String,
    /// OFDM numerology of the victim link.
    pub params: OfdmParams,
    /// Victim modulation and code rate.
    pub mcs: Mcs,
    /// Interference environment.
    pub scenario: Scenario,
    /// Receivers under test; each trial decodes the same capture with every one.
    pub receivers: Vec<ReceiverKind>,
    /// Victim payload length in bytes.
    pub payload_len: usize,
}

impl LinkPoint {
    /// A point at the paper's default numerology with a 400-byte payload.
    pub fn new(
        label: impl Into<String>,
        mcs: Mcs,
        scenario: Scenario,
        receivers: Vec<ReceiverKind>,
    ) -> Self {
        LinkPoint {
            label: label.into(),
            params: OfdmParams::ieee80211ag(),
            mcs,
            scenario,
            receivers,
            payload_len: 400,
        }
    }

    /// Sets the payload length.
    pub fn payload(mut self, payload_len: usize) -> Self {
        self.payload_len = payload_len;
        self
    }
}

impl CampaignPoint for LinkPoint {
    /// The key encodes every outcome-relevant parameter (numerology, modulation,
    /// scenario, receiver set, payload length) but *not* the display label or grid
    /// position, so checkpoints survive relabeling and grid extension.
    fn key(&self) -> String {
        format!(
            "fft={};cp={};rate={};mcs={:?};scenario={:?};receivers={:?};payload={}",
            self.params.fft_size,
            self.params.cp_len,
            self.params.sample_rate_hz,
            self.mcs,
            self.scenario,
            self.receivers,
            self.payload_len,
        )
    }

    fn label(&self) -> String {
        self.label.clone()
    }

    fn arm_labels(&self) -> Vec<String> {
        self.receivers.iter().map(|r| r.label()).collect()
    }
}

/// A receiver constructed once per worker and reused across every trial that worker
/// claims, together with its per-arm stream state. The stream carries the hot-path
/// caches (sliding-DFT plan, decision scratch) *and* the cross-frame model slot of
/// the streaming API — link trials run with [`ModelPersistence::PerFrame`], which
/// retrains per frame and is bit-for-bit the old per-trial behaviour.
enum PreparedReceiver {
    Standard(Box<StandardReceiver>),
    CpRecycle(Box<(CpRecycleReceiver, RxStream)>),
}

impl PreparedReceiver {
    fn build(kind: &ReceiverKind, params: &OfdmParams) -> Self {
        match kind {
            ReceiverKind::Standard => {
                PreparedReceiver::Standard(Box::new(StandardReceiver::new(params.clone())))
            }
            ReceiverKind::CpRecycle(config) => PreparedReceiver::CpRecycle(Box::new((
                CpRecycleReceiver::new(params.clone(), *config),
                RxStream::new(ModelPersistence::PerFrame),
            ))),
        }
    }
}

/// Everything a worker needs to execute trials of one grid point.
struct PreparedPoint {
    tx: Transmitter,
    receivers: Vec<PreparedReceiver>,
}

impl PreparedPoint {
    fn build(point: &LinkPoint) -> Self {
        PreparedPoint {
            tx: Transmitter::new(point.params.clone()),
            receivers: point
                .receivers
                .iter()
                .map(|kind| PreparedReceiver::build(kind, &point.params))
                .collect(),
        }
    }
}

/// Worker-local state of a link campaign: prepared transmitters and receivers per
/// grid point, built lazily the first time a worker claims a trial of that point.
#[derive(Default)]
pub struct LinkWorker {
    prepared: HashMap<String, PreparedPoint>,
}

impl LinkWorker {
    /// An empty worker cache.
    pub fn new() -> Self {
        LinkWorker::default()
    }
}

/// Executes one link trial: build a frame, render the scenario, decode with every arm.
///
/// This is the closure body the engine executes — public so [`replay_link_trial`] and
/// the `campaign` CLI can re-run a single trial outside the executor.
pub fn run_link_trial(
    worker: &mut LinkWorker,
    point: &LinkPoint,
    rng: &mut StdRng,
) -> Result<TrialRecord> {
    run_link_trial_observed(worker, point, rng, &NoopRecorder)
}

/// [`run_link_trial`] with stage timing reported into `obs`: the receive chain's
/// per-stage spans (`sync`, `model_train`, `extract`, `decide`, `bits`, keyed by
/// decision stage / estimator backend) land in the recorder while the decode stays
/// bit-identical to the unobserved path.
pub fn run_link_trial_observed<O: Recorder>(
    worker: &mut LinkWorker,
    point: &LinkPoint,
    rng: &mut StdRng,
    obs: &O,
) -> Result<TrialRecord> {
    let prepared = worker
        .prepared
        .entry(point.key())
        .or_insert_with(|| PreparedPoint::build(point));
    let payload: Vec<u8> = (0..point.payload_len).map(|_| rng.gen()).collect();
    let scramble_seed = rng.gen_range(1..=127u8);
    let frame = prepared
        .tx
        .build_frame(&payload, point.mcs, scramble_seed)?;
    let output = point.scenario.render(rng, &point.params, &frame.samples)?;
    let mut arms = Vec::with_capacity(prepared.receivers.len());
    for receiver in prepared.receivers.iter_mut() {
        let outcome = decode_prepared_observed(receiver, &frame, &output, obs)?;
        arms.push(TrialOutcome::new(
            outcome.success,
            outcome.symbol_error_rate,
        ));
    }
    Ok(TrialRecord { arms })
}

/// Runs a link campaign over `points` with the engine.
///
/// When [`RunOptions::recorder`] is set it is threaded through to the receive chain,
/// so the campaign's metrics snapshot carries per-stage decode timing alongside the
/// executor's per-trial spans and worker gauges.
pub fn run_link_campaign(
    config: &CampaignConfig,
    points: &[LinkPoint],
    options: &RunOptions<'_>,
) -> std::result::Result<CampaignResult, EngineError> {
    run_campaign(
        config,
        points,
        LinkWorker::new,
        |worker, point, _point_idx, _trial_idx, rng| match options.recorder {
            Some(rec) => run_link_trial_observed(worker, point, rng, &rec),
            None => run_link_trial(worker, point, rng),
        },
        options,
    )
}

/// Replays one trial of a point in isolation, reproducing exactly what the campaign
/// executor computed for `(master_seed, point, trial_idx)`.
pub fn replay_link_trial(
    master_seed: u64,
    point: &LinkPoint,
    trial_idx: usize,
) -> Result<TrialRecord> {
    let mut worker = LinkWorker::new();
    let mut rng = cprecycle_engine::trial_rng(master_seed, &point.key(), trial_idx as u64);
    run_link_trial(&mut worker, point, &mut rng)
}

fn engine_error_to_phy(e: EngineError) -> ofdmphy::PhyError {
    ofdmphy::PhyError::DecodeFailure(e.to_string())
}

/// Outcome of decoding one packet with one receiver.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PacketOutcome {
    /// Whether the FCS check passed.
    success: bool,
    /// Uncoded subcarrier decision error rate against the transmitted ground truth.
    symbol_error_rate: f64,
}

/// Decodes one captured packet with a prepared receiver. `output.interference_only`
/// is read only by the [`DecisionStage::Oracle`] stage; other receivers ignore it.
fn decode_prepared_observed<O: Recorder>(
    receiver: &mut PreparedReceiver,
    frame: &TxFrame,
    output: &ScenarioOutput,
    obs: &O,
) -> Result<PacketOutcome> {
    let info = FrameInfo {
        mcs: frame.mcs,
        psdu_len: frame.psdu.len(),
    };
    let out = match receiver {
        PreparedReceiver::Standard(rx) => {
            rx.decode_stream_observed(&mut (), &output.received, 0, Some(info), obs)?
        }
        PreparedReceiver::CpRecycle(boxed) => {
            let (rx, stream) = boxed.as_mut();
            stream.begin_frame();
            rx.decode_frame_session_observed(
                &output.received,
                0,
                Some(info),
                Some(&output.interference_only),
                stream,
                obs,
            )?
        }
    };
    Ok(PacketOutcome {
        success: out.crc_ok,
        symbol_error_rate: symbol_error_rate(
            &out.equalized_symbols,
            &frame.data_subcarrier_values,
            frame.mcs,
        ),
    })
}

/// Uncoded subcarrier decision error rate against the transmitted ground truth.
pub fn symbol_error_rate(decisions: &[Vec<Complex>], truth: &[Vec<Complex>], mcs: Mcs) -> f64 {
    let mut errors = 0usize;
    let mut total = 0usize;
    for (rx_sym, tx_sym) in decisions.iter().zip(truth) {
        for (rx_val, tx_val) in rx_sym.iter().zip(tx_sym) {
            let decided = mcs.modulation.nearest_point(*rx_val).0;
            if (decided - *tx_val).norm() > 1e-9 {
                errors += 1;
            }
            total += 1;
        }
    }
    if total == 0 {
        0.0
    } else {
        errors as f64 / total as f64
    }
}

/// Runs a Monte-Carlo packet-success-rate measurement: `config.packets` victim frames
/// are generated, each rendered through `scenario` and decoded by every receiver in
/// `receivers`. Returns the packet success rate (in percent, as the paper plots it)
/// per receiver, in the same order.
///
/// This is the single-point convenience wrapper around [`run_link_campaign`]; trials
/// are distributed over worker threads and every trial derives a deterministic RNG
/// from the engine's seed tree, so results do not depend on scheduling.
pub fn packet_success_rate(
    params: &OfdmParams,
    mcs: Mcs,
    scenario: &Scenario,
    receivers: &[ReceiverKind],
    config: &MonteCarloConfig,
) -> Result<Vec<f64>> {
    packet_success_rate_inner(params, mcs, scenario, receivers, config, None)
}

/// [`packet_success_rate`] with telemetry: the engine's per-trial spans and the
/// receive chain's per-stage decode timing are reported into `recorder`, without
/// changing any measured rate (instrumentation never touches the seed tree).
pub fn packet_success_rate_observed(
    params: &OfdmParams,
    mcs: Mcs,
    scenario: &Scenario,
    receivers: &[ReceiverKind],
    config: &MonteCarloConfig,
    recorder: &(dyn Recorder + Sync),
) -> Result<Vec<f64>> {
    packet_success_rate_inner(params, mcs, scenario, receivers, config, Some(recorder))
}

fn packet_success_rate_inner(
    params: &OfdmParams,
    mcs: Mcs,
    scenario: &Scenario,
    receivers: &[ReceiverKind],
    config: &MonteCarloConfig,
    recorder: Option<&(dyn Recorder + Sync)>,
) -> Result<Vec<f64>> {
    let point = LinkPoint {
        label: "packet_success_rate".into(),
        params: params.clone(),
        mcs,
        scenario: scenario.clone(),
        receivers: receivers.to_vec(),
        payload_len: config.payload_len,
    };
    let campaign = CampaignConfig::new("packet_success_rate", config.seed).trials(config.packets);
    let options = RunOptions {
        recorder,
        ..Default::default()
    };
    let result = run_link_campaign(&campaign, &[point], &options).map_err(engine_error_to_phy)?;
    Ok(result.points[0]
        .arms
        .iter()
        .map(|arm| arm.success_percent())
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofdmphy::convcode::CodeRate;
    use ofdmphy::modulation::Modulation;

    fn mcs() -> Mcs {
        Mcs::new(Modulation::Qpsk, CodeRate::Half)
    }

    fn small_config() -> MonteCarloConfig {
        MonteCarloConfig {
            packets: 6,
            payload_len: 60,
            seed: 42,
        }
    }

    #[test]
    fn receiver_labels_name_the_decoder() {
        assert_eq!(ReceiverKind::Standard.label(), "Standard");
        let sphere = ReceiverKind::CpRecycle(CpRecycleConfig::default()).label();
        assert!(sphere.contains("P=16"), "{sphere}");
        assert!(sphere.contains("Sphere"), "{sphere}");
        assert!(ReceiverKind::with_decision(DecisionStage::Naive)
            .label()
            .contains("Naive"));
        assert!(ReceiverKind::with_decision(DecisionStage::Oracle)
            .label()
            .contains("Oracle"));
        assert!(ReceiverKind::with_decision(DecisionStage::Standard)
            .label()
            .contains("CPRecycle(Standard"));
    }

    #[test]
    fn receiver_labels_name_the_estimator_backend() {
        // Model-scoring arms name their backend…
        assert!(ReceiverKind::CpRecycle(CpRecycleConfig::default())
            .label()
            .contains("ExactKde"));
        assert!(ReceiverKind::with_model(ModelBackend::Gaussian)
            .label()
            .contains("Gaussian"));
        // …while stages that never train a model do not advertise one.
        assert!(!ReceiverKind::with_decision(DecisionStage::Naive)
            .label()
            .contains("Kde"));
    }

    #[test]
    fn estimator_backend_is_part_of_the_point_key() {
        let a = LinkPoint::new(
            "models",
            mcs(),
            Scenario::Clean { snr_db: 30.0 },
            vec![ReceiverKind::with_model(ModelBackend::ExactKde)],
        );
        let b = LinkPoint::new(
            "models",
            mcs(),
            Scenario::Clean { snr_db: 30.0 },
            vec![ReceiverKind::with_model(ModelBackend::Gaussian)],
        );
        assert_ne!(a.key(), b.key(), "backend must affect point identity");
    }

    #[test]
    fn decoder_choice_is_part_of_the_point_key() {
        // Two points differing only in the decision stage must be distinct
        // experiments: the decoder is swept through the engine like any other
        // parameter.
        let a = LinkPoint::new(
            "decoders",
            mcs(),
            Scenario::Clean { snr_db: 30.0 },
            vec![ReceiverKind::with_decision(DecisionStage::Naive)],
        );
        let b = LinkPoint::new(
            "decoders",
            mcs(),
            Scenario::Clean { snr_db: 30.0 },
            vec![ReceiverKind::with_decision(DecisionStage::Oracle)],
        );
        assert_ne!(
            a.key(),
            b.key(),
            "decision stage must affect point identity"
        );
    }

    #[test]
    fn default_config_debug_and_point_key_are_pinned() {
        // Every campaign trial seed derives from the point key
        // (`trial_rng(seed, key, i)`), and so does the corpus of the repo's
        // benchmark (perfbench's `link_corpus`). The key embeds the receivers'
        // `Debug` output, so any change that shows up in `CpRecycleConfig`'s
        // `Debug` — a new field, a renamed variant — re-seeds every campaign and the
        // benchmark corpus. Pin both strings byte for byte so that cannot happen
        // silently.
        assert_eq!(
            format!("{:?}", CpRecycleConfig::default()),
            "CpRecycleConfig { num_segments: 16, bandwidth_amplitude: None, \
             bandwidth_phase: None, data_driven_bandwidth: true, \
             decision: Sphere { radius_min_distances: 2.0 }, isi_free_samples: None, \
             min_bandwidth_amplitude: 0.05, min_bandwidth_phase: 0.2, extraction: Sliding, \
             model: ExactKde }"
        );
        let point = LinkPoint::new(
            "clean",
            mcs(),
            Scenario::Clean { snr_db: 30.0 },
            vec![ReceiverKind::CpRecycle(CpRecycleConfig::default())],
        );
        assert_eq!(
            point.key(),
            "fft=64;cp=16;rate=20000000;mcs=Mcs { modulation: Qpsk, code_rate: Half };\
             scenario=Clean { snr_db: 30.0 };receivers=[CpRecycle(CpRecycleConfig { \
             num_segments: 16, bandwidth_amplitude: None, bandwidth_phase: None, \
             data_driven_bandwidth: true, decision: Sphere { radius_min_distances: 2.0 }, \
             isi_free_samples: None, min_bandwidth_amplitude: 0.05, \
             min_bandwidth_phase: 0.2, extraction: Sliding, model: ExactKde })];payload=400"
        );
    }

    #[test]
    fn point_keys_encode_parameters_but_not_labels() {
        let a = LinkPoint::new(
            "A",
            mcs(),
            Scenario::Clean { snr_db: 30.0 },
            vec![ReceiverKind::Standard],
        );
        let b = LinkPoint::new(
            "B",
            mcs(),
            Scenario::Clean { snr_db: 30.0 },
            vec![ReceiverKind::Standard],
        );
        assert_eq!(a.key(), b.key(), "labels must not affect identity");
        let c = LinkPoint::new(
            "A",
            mcs(),
            Scenario::Clean { snr_db: 20.0 },
            vec![ReceiverKind::Standard],
        );
        assert_ne!(a.key(), c.key(), "scenario parameters must affect identity");
        let d = LinkPoint {
            payload_len: 100,
            ..a.clone()
        };
        assert_ne!(a.key(), d.key(), "payload length must affect identity");
    }

    #[test]
    fn clean_channel_every_receiver_achieves_full_psr() {
        let params = OfdmParams::ieee80211ag();
        let receivers = vec![
            ReceiverKind::Standard,
            ReceiverKind::CpRecycle(CpRecycleConfig::default()),
            ReceiverKind::CpRecycle(
                CpRecycleConfig::builder()
                    .num_segments(8)
                    .decision(DecisionStage::Naive)
                    .build(),
            ),
            ReceiverKind::CpRecycle(
                CpRecycleConfig::builder()
                    .num_segments(8)
                    .decision(DecisionStage::Oracle)
                    .build(),
            ),
        ];
        let psr = packet_success_rate(
            &params,
            mcs(),
            &Scenario::Clean { snr_db: 30.0 },
            &receivers,
            &small_config(),
        )
        .unwrap();
        assert_eq!(psr.len(), 4);
        for (p, r) in psr.iter().zip(&receivers) {
            assert_eq!(*p, 100.0, "{}", r.label());
        }
    }

    #[test]
    fn strong_cochannel_interference_breaks_the_standard_receiver() {
        let params = OfdmParams::ieee80211ag();
        let scenario = Scenario::Cci(CciScenario {
            sir_db: -10.0,
            ..Default::default()
        });
        let psr = packet_success_rate(
            &params,
            mcs(),
            &scenario,
            &[ReceiverKind::Standard],
            &small_config(),
        )
        .unwrap();
        assert_eq!(psr[0], 0.0);
    }

    #[test]
    fn cprecycle_outperforms_standard_under_adjacent_channel_interference() {
        // The headline packet-level comparison on the ACI scenario with a small guard
        // band and strong interferer: the standard receiver loses most packets while
        // CPRecycle recovers a clear majority.
        let params = OfdmParams::ieee80211ag();
        let scenario = Scenario::Aci(AciScenario {
            sir_db: -14.0,
            channel_offset_hz: Some(15e6),
            ..Default::default()
        });
        let receivers = vec![
            ReceiverKind::Standard,
            ReceiverKind::CpRecycle(CpRecycleConfig::default()),
        ];
        let config = MonteCarloConfig {
            packets: 10,
            payload_len: 60,
            seed: 7,
        };
        let psr = packet_success_rate(&params, mcs(), &scenario, &receivers, &config).unwrap();
        // The simulated link shows a consistent but smaller SIR shift than the paper's
        // over-the-air testbed (see the README's reproduction notes); at this operating point CPRecycle
        // recovers a clear majority of packets while the standard receiver is already
        // losing a large fraction.
        assert!(
            psr[1] >= psr[0] + 10.0,
            "CPRecycle PSR {} should clearly exceed standard PSR {}",
            psr[1],
            psr[0]
        );
        assert!(psr[1] >= 70.0, "CPRecycle PSR {} too low", psr[1]);
    }

    #[test]
    fn f32_kernels_track_f64_psr_at_the_aci_operating_point() {
        // Whole-frame pin of the f32 sliding-DFT kernels: at the Fig. 14 operating
        // point (QPSK 1/2, adjacent-channel interferer at +15 MHz, P = 16), a
        // receiver sliding its segments in f32 must land within one packet of the
        // f64 reference. The slide's per-observation error is far below the
        // constellation's decision distances, so decisions should not flip at all.
        // This is the only end-to-end check on `KernelPrecision::F32`.
        use cprecycle::KernelPrecision;
        let params = OfdmParams::ieee80211ag();
        let scenario = Scenario::Aci(AciScenario {
            sir_db: -12.0,
            channel_offset_hz: Some(15e6),
            ..Default::default()
        });
        let qpsk_half = Mcs {
            modulation: Modulation::Qpsk,
            code_rate: CodeRate::Half,
        };
        let base = CpRecycleConfig::builder().num_segments(16);
        let receivers = vec![
            ReceiverKind::CpRecycle(base.build()),
            ReceiverKind::CpRecycle(base.precision(KernelPrecision::F32).build()),
        ];
        let config = MonteCarloConfig {
            packets: 10,
            payload_len: 60,
            seed: 11,
        };
        let psr = packet_success_rate(&params, qpsk_half, &scenario, &receivers, &config).unwrap();
        assert!(
            psr[0] > 50.0,
            "operating point should be decodable in f64, got PSR {}",
            psr[0]
        );
        assert!(
            (psr[0] - psr[1]).abs() <= 10.0 + 1e-12,
            "f32 PSR {} strayed from f64 PSR {}",
            psr[1],
            psr[0]
        );
    }

    #[test]
    fn oracle_upper_bounds_the_naive_decoder_under_aci() {
        let params = OfdmParams::ieee80211ag();
        let scenario = Scenario::Aci(AciScenario {
            sir_db: -20.0,
            channel_offset_hz: Some(15e6),
            ..Default::default()
        });
        let receivers = vec![
            ReceiverKind::with_decision(DecisionStage::Naive),
            ReceiverKind::with_decision(DecisionStage::Oracle),
        ];
        let config = MonteCarloConfig {
            packets: 6,
            payload_len: 60,
            seed: 11,
        };
        let psr = packet_success_rate(&params, mcs(), &scenario, &receivers, &config).unwrap();
        assert!(
            psr[1] >= psr[0],
            "Oracle PSR {} must be at least the naive PSR {}",
            psr[1],
            psr[0]
        );
    }

    #[test]
    fn serial_and_parallel_link_campaigns_are_bit_identical() {
        // The engine determinism contract, exercised through the full PHY stack: the
        // same master seed must produce identical tallies whether trials run on one
        // worker or several.
        let points = vec![
            LinkPoint::new(
                "clean",
                mcs(),
                Scenario::Clean { snr_db: 12.0 },
                vec![
                    ReceiverKind::Standard,
                    ReceiverKind::CpRecycle(CpRecycleConfig::default()),
                ],
            )
            .payload(40),
            LinkPoint::new(
                "aci",
                mcs(),
                Scenario::Aci(AciScenario {
                    sir_db: -14.0,
                    channel_offset_hz: Some(15e6),
                    ..Default::default()
                }),
                vec![
                    ReceiverKind::Standard,
                    ReceiverKind::CpRecycle(CpRecycleConfig::default()),
                ],
            )
            .payload(40),
        ];
        let serial = run_link_campaign(
            &CampaignConfig::new("determinism", 0xFEED)
                .trials(4)
                .threads(1),
            &points,
            &RunOptions::default(),
        )
        .unwrap();
        let parallel = run_link_campaign(
            &CampaignConfig::new("determinism", 0xFEED)
                .trials(4)
                .threads(4),
            &points,
            &RunOptions::default(),
        )
        .unwrap();
        assert_eq!(serial.deterministic_view(), parallel.deterministic_view());
        // And a meaningful result came out: the clean point decodes everything.
        assert_eq!(serial.points[0].arms[0].successes, 4);
    }

    #[test]
    fn observed_campaign_matches_plain_and_records_stage_timing() {
        use obs::Recorder as _;
        let params = OfdmParams::ieee80211ag();
        let receivers = vec![
            ReceiverKind::Standard,
            ReceiverKind::CpRecycle(CpRecycleConfig::default()),
        ];
        let config = small_config();
        let scenario = Scenario::Clean { snr_db: 30.0 };
        let plain = packet_success_rate(&params, mcs(), &scenario, &receivers, &config).unwrap();
        let rec = obs::InMemoryRecorder::new(64);
        let observed =
            packet_success_rate_observed(&params, mcs(), &scenario, &receivers, &config, &rec)
                .unwrap();
        assert_eq!(plain, observed, "instrumentation must not change outcomes");
        let snap = rec.snapshot().unwrap();
        assert_eq!(snap.counter("trials_completed"), config.packets as u64);
        // The executor's per-trial span and the receive chain's per-stage spans,
        // keyed by decision stage, all landed in one recorder.
        assert!(snap.stage("trial", "").is_some());
        assert!(snap.stage("sync", "Standard").is_some());
        assert!(snap.stage("sync", "Sphere").is_some());
        assert!(snap.stage("decide", "Sphere").is_some());
        assert!(snap.stage("model_train", "ExactKde").is_some());
    }

    #[test]
    fn replaying_a_single_trial_reproduces_its_recorded_outcome() {
        let point = LinkPoint::new(
            "replay",
            mcs(),
            Scenario::Clean { snr_db: 6.0 },
            vec![ReceiverKind::Standard],
        )
        .payload(40);
        let seed = 0xBEEF;
        let trials = 5;
        let campaign = run_link_campaign(
            &CampaignConfig::new("replay", seed)
                .trials(trials)
                .threads(2),
            std::slice::from_ref(&point),
            &RunOptions::default(),
        )
        .unwrap();
        // Replay every trial individually and reduce in trial order: the sums must be
        // bit-identical to the campaign tally.
        let mut successes = 0usize;
        let mut metric_sum = 0.0f64;
        for t in 0..trials {
            let record = replay_link_trial(seed, &point, t).unwrap();
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
