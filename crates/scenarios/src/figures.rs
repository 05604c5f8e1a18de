//! Per-figure experiment drivers.
//!
//! One function per table/figure of the paper's evaluation. Every driver returns an
//! [`ExperimentResult`] whose series correspond to the curves in the original figure;
//! the `cprecycle-bench` binaries print them, and the README's reproduction notes compare
//! them with the paper.
//!
//! Every Monte-Carlo figure builds its full grid of [`LinkPoint`]s — scenario ×
//! receiver × modulation × SINR — and submits it to the `cprecycle-engine` campaign
//! engine as **one** campaign, so the whole grid parallelises across workers instead
//! of running operating points serially. The grid builders are public (see
//! [`figure_grid`]) so the `campaign` CLI can run, checkpoint and resume the same
//! grids the figure binaries use.
//!
//! All drivers accept a [`FigureScale`] so unit tests can run them with a handful of
//! packets and a coarse sweep while the figure binaries use a dense grid and more
//! packets. Absolute values will not match the authors' over-the-air testbed; the
//! qualitative shape (who wins, roughly by how much, where the cliffs sit) is the
//! reproduction target.

use crate::interference::{AciScenario, AciSide, CciScenario};
use crate::link::{run_link_campaign, LinkPoint, ReceiverKind, Scenario};
use crate::neighbors::{run_neighbor_campaign, BuildingModel};
use crate::report::{ExperimentResult, Series};
use crate::Result;
use cprecycle::interference_model::InterferenceModel;
use cprecycle::oracle;
use cprecycle::segments::{
    extract_segments, extract_segments_with, interference_power_per_segment,
    interference_power_per_segment_with, SegmentExtraction, SegmentScratch,
};
use cprecycle::{CpRecycleConfig, DecisionStage, ModelBackend};
use cprecycle_engine::{CampaignConfig, CampaignResult};
use ofdmphy::chanest::ChannelEstimate;
use ofdmphy::convcode::CodeRate;
use ofdmphy::frame::{Mcs, Transmitter};
use ofdmphy::modulation::Modulation;
use ofdmphy::ofdm::OfdmEngine;
use ofdmphy::params::{cp_table, OfdmParams};
use ofdmphy::preamble;
use rand::SeedableRng;
use rfdsp::kde::{BandwidthSelector, KernelDensity1d};
use rfdsp::power::lin_to_db;
use rfdsp::stats::EmpiricalCdf;

/// How much work a figure driver should do.
#[derive(Debug, Clone, Copy)]
pub struct FigureScale {
    /// Packets per Monte-Carlo operating point.
    pub packets: usize,
    /// Victim payload length in bytes.
    pub payload_len: usize,
    /// Base random seed.
    pub seed: u64,
    /// Use a coarse sweep grid (tests) instead of the paper-density grid (benches).
    pub coarse: bool,
}

impl FigureScale {
    /// The scale used by the figure-regeneration binaries (slower, denser).
    pub fn full() -> Self {
        FigureScale {
            packets: 60,
            payload_len: 400,
            seed: 0xC0FFEE,
            coarse: false,
        }
    }

    /// A minimal scale for unit/integration tests.
    pub fn smoke() -> Self {
        FigureScale {
            packets: 4,
            payload_len: 60,
            seed: 0xC0FFEE,
            coarse: true,
        }
    }

    /// The engine-level campaign configuration for a figure grid.
    pub fn campaign(&self, name: &str) -> CampaignConfig {
        CampaignConfig::new(name, self.seed).trials(self.packets)
    }
}

fn params() -> OfdmParams {
    OfdmParams::ieee80211ag()
}

fn paper_mcs_labels() -> Vec<(Mcs, &'static str)> {
    vec![
        (Mcs::new(Modulation::Qpsk, CodeRate::Half), "QPSK 1/2"),
        (Mcs::new(Modulation::Qam16, CodeRate::Half), "16-QAM 1/2"),
        (
            Mcs::new(Modulation::Qam64, CodeRate::TwoThirds),
            "64-QAM 2/3",
        ),
    ]
}

fn engine_error(e: cprecycle_engine::EngineError) -> ofdmphy::PhyError {
    ofdmphy::PhyError::DecodeFailure(e.to_string())
}

/// Runs a figure's grid as one engine campaign.
fn run_grid(name: &str, scale: &FigureScale, points: &[LinkPoint]) -> Result<CampaignResult> {
    run_link_campaign(
        &scale.campaign(name),
        points,
        &crate::telemetry::run_options(),
    )
    .map_err(engine_error)
}

/// Success rates (in percent) of every arm of grid point `idx`.
fn arm_percents(result: &CampaignResult, idx: usize) -> Vec<f64> {
    result.points[idx]
        .arms
        .iter()
        .map(|arm| arm.success_percent())
        .collect()
}

// ---------------------------------------------------------------------------
// Grid builders (shared by the figure drivers and the `campaign` CLI)
// ---------------------------------------------------------------------------

fn psr_vs_sir_grid(
    scale: &FigureScale,
    sirs: &[f64],
    scenario_for: impl Fn(f64) -> Scenario,
) -> Vec<LinkPoint> {
    let receivers = vec![
        ReceiverKind::Standard,
        ReceiverKind::CpRecycle(CpRecycleConfig::default()),
    ];
    let mut points = Vec::new();
    for (mcs, label) in paper_mcs_labels() {
        for sir in sirs {
            points.push(
                LinkPoint::new(
                    format!("{label} @ SIR {sir} dB"),
                    mcs,
                    scenario_for(*sir),
                    receivers.clone(),
                )
                .payload(scale.payload_len),
            );
        }
    }
    points
}

fn fig5_sirs() -> [f64; 3] {
    [-10.0, -20.0, -30.0]
}

fn fig5_guards(scale: &FigureScale) -> Vec<f64> {
    if scale.coarse {
        vec![0.0, 10.0]
    } else {
        vec![0.0, 2.5, 5.0, 7.5, 10.0, 12.5, 15.0, 20.0]
    }
}

fn fig5_grid(scale: &FigureScale) -> Vec<LinkPoint> {
    let mcs = Mcs::new(Modulation::Qpsk, CodeRate::ThreeQuarters);
    let receivers = vec![
        ReceiverKind::Standard,
        ReceiverKind::with_decision(DecisionStage::Naive),
        ReceiverKind::with_decision(DecisionStage::Oracle),
    ];
    let mut points = Vec::new();
    for sir in fig5_sirs() {
        for guard in fig5_guards(scale) {
            points.push(
                LinkPoint::new(
                    format!("SIR {sir} dB, guard {guard} MHz"),
                    mcs,
                    Scenario::Aci(AciScenario {
                        sir_db: sir,
                        guard_band_hz: guard * 1e6,
                        oversample: if guard > 18.0 { 8 } else { 4 },
                        ..Default::default()
                    }),
                    receivers.clone(),
                )
                .payload(scale.payload_len),
            );
        }
    }
    points
}

fn fig8_sirs(scale: &FigureScale) -> Vec<f64> {
    if scale.coarse {
        vec![-20.0, 0.0]
    } else {
        vec![-40.0, -30.0, -20.0, -10.0, 0.0, 10.0]
    }
}

fn fig8_grid(scale: &FigureScale) -> Vec<LinkPoint> {
    psr_vs_sir_grid(scale, &fig8_sirs(scale), |sir| {
        Scenario::Aci(AciScenario {
            sir_db: sir,
            channel_offset_hz: Some(15e6),
            ..Default::default()
        })
    })
}

fn fig9_grid(scale: &FigureScale) -> Vec<LinkPoint> {
    psr_vs_sir_grid(scale, &fig8_sirs(scale), |sir| {
        Scenario::Aci(AciScenario {
            sir_db: sir,
            side: AciSide::BothSides,
            channel_offset_hz: Some(15e6),
            ..Default::default()
        })
    })
}

fn fig10_guards(scale: &FigureScale) -> Vec<f64> {
    if scale.coarse {
        vec![0.0, 15.0]
    } else {
        vec![0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0]
    }
}

fn fig10_grid(scale: &FigureScale) -> Vec<LinkPoint> {
    let mcs = Mcs::new(Modulation::Qam16, CodeRate::Half);
    let receivers = vec![
        ReceiverKind::Standard,
        ReceiverKind::CpRecycle(CpRecycleConfig::default()),
    ];
    let mut points = Vec::new();
    for sir in [-10.0, -20.0, -30.0] {
        for guard in fig10_guards(scale) {
            points.push(
                LinkPoint::new(
                    format!("SIR {sir} dB, guard {guard} MHz"),
                    mcs,
                    Scenario::Aci(AciScenario {
                        sir_db: sir,
                        guard_band_hz: guard * 1e6,
                        oversample: if guard > 18.0 { 8 } else { 4 },
                        ..Default::default()
                    }),
                    receivers.clone(),
                )
                .payload(scale.payload_len),
            );
        }
    }
    points
}

fn fig11_sirs(scale: &FigureScale) -> Vec<f64> {
    if scale.coarse {
        vec![0.0, 20.0]
    } else {
        vec![-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 30.0, 40.0]
    }
}

fn fig11_grid(scale: &FigureScale) -> Vec<LinkPoint> {
    psr_vs_sir_grid(scale, &fig11_sirs(scale), |sir| {
        Scenario::Cci(CciScenario {
            sir_db: sir,
            ..Default::default()
        })
    })
}

fn fig12_grid(scale: &FigureScale) -> Vec<LinkPoint> {
    psr_vs_sir_grid(scale, &fig11_sirs(scale), |sir| {
        Scenario::Cci(CciScenario {
            sir_db: sir,
            num_interferers: 2,
            ..Default::default()
        })
    })
}

fn fig14_segment_counts(scale: &FigureScale) -> Vec<usize> {
    if scale.coarse {
        vec![1, 8, 16]
    } else {
        vec![1, 2, 4, 6, 8, 10, 12, 14, 16]
    }
}

fn fig14_grid(scale: &FigureScale) -> Vec<LinkPoint> {
    let mcs = Mcs::new(Modulation::Qam16, CodeRate::Half);
    let mut points = Vec::new();
    for sir in [-10.0, -20.0, -30.0] {
        for p in fig14_segment_counts(scale) {
            points.push(
                LinkPoint::new(
                    format!("SIR {sir} dB, P={p}"),
                    mcs,
                    Scenario::Aci(AciScenario {
                        sir_db: sir,
                        ..Default::default()
                    }),
                    vec![ReceiverKind::CpRecycle(CpRecycleConfig::with_segments(p))],
                )
                .payload(scale.payload_len),
            );
        }
    }
    points
}

fn ablate_sphere_radii() -> [f64; 5] {
    [0.5, 1.0, 2.0, 4.0, 8.0]
}

fn ablate_sphere_grid(scale: &FigureScale) -> Vec<LinkPoint> {
    let mcs = Mcs::new(Modulation::Qam64, CodeRate::TwoThirds);
    ablate_sphere_radii()
        .iter()
        .map(|r| {
            LinkPoint::new(
                format!("radius {r}"),
                mcs,
                Scenario::Aci(AciScenario {
                    sir_db: -10.0,
                    ..Default::default()
                }),
                vec![ReceiverKind::CpRecycle(
                    CpRecycleConfig::builder()
                        .decision(DecisionStage::Sphere {
                            radius_min_distances: *r,
                        })
                        .build(),
                )],
            )
            .payload(scale.payload_len)
        })
        .collect()
}

/// The decoder-comparison sweep: every decision stage as an arm of the same ACI grid,
/// so a fig. 8/9-style "which decoder wins where" comparison is **one** engine run —
/// the decoder is part of the campaign point key like SIR or `P`.
fn decoder_sweep_grid(scale: &FigureScale) -> Vec<LinkPoint> {
    let mcs = Mcs::new(Modulation::Qpsk, CodeRate::Half);
    let receivers = vec![
        ReceiverKind::Standard,
        ReceiverKind::with_decision(DecisionStage::Standard),
        ReceiverKind::with_decision(DecisionStage::Naive),
        ReceiverKind::with_decision(DecisionStage::Oracle),
        ReceiverKind::with_decision(DecisionStage::default()),
    ];
    fig8_sirs(scale)
        .iter()
        .map(|sir| {
            LinkPoint::new(
                format!("SIR {sir} dB"),
                mcs,
                Scenario::Aci(AciScenario {
                    sir_db: *sir,
                    channel_offset_hz: Some(15e6),
                    ..Default::default()
                }),
                receivers.clone(),
            )
            .payload(scale.payload_len)
        })
        .collect()
}

/// The estimator-backend sweep: every interference-model backend (exact KDE,
/// parametric Gaussian) as an arm of the same ACI grid at the Fig. 14
/// reproduction operating point (QPSK 1/2, overlapping channel 15 MHz away,
/// `P = 16`), plus the standard receiver as the floor — "which density model is
/// accurate enough, and what does the cheap one cost in BER" as **one** engine run.
/// The backend is part of every campaign point key, exactly like the decoder.
fn models_sirs(scale: &FigureScale) -> Vec<f64> {
    if scale.coarse {
        vec![-14.0]
    } else {
        vec![-30.0, -20.0, -14.0, -10.0, 0.0, 10.0]
    }
}

fn models_grid(scale: &FigureScale) -> Vec<LinkPoint> {
    let mcs = Mcs::new(Modulation::Qpsk, CodeRate::Half);
    let receivers = vec![
        ReceiverKind::Standard,
        ReceiverKind::with_model(ModelBackend::ExactKde),
        ReceiverKind::with_model(ModelBackend::Gaussian),
    ];
    models_sirs(scale)
        .iter()
        .map(|sir| {
            LinkPoint::new(
                format!("SIR {sir} dB"),
                mcs,
                Scenario::Aci(AciScenario {
                    sir_db: *sir,
                    channel_offset_hz: Some(15e6),
                    ..Default::default()
                }),
                receivers.clone(),
            )
            .payload(scale.payload_len)
        })
        .collect()
}

fn ablate_kernel_sirs(scale: &FigureScale) -> Vec<f64> {
    if scale.coarse {
        vec![-10.0]
    } else {
        vec![-20.0, -10.0, 0.0]
    }
}

fn ablate_kernel_grid(scale: &FigureScale) -> Vec<LinkPoint> {
    let mcs = Mcs::new(Modulation::Qam16, CodeRate::Half);
    // An enormous phase bandwidth makes the phase kernel uninformative, isolating the
    // contribution of the amplitude axis.
    let amplitude_only = CpRecycleConfig::builder()
        .bandwidth_phase(Some(1.0e6))
        .build();
    ablate_kernel_sirs(scale)
        .iter()
        .map(|sir| {
            LinkPoint::new(
                format!("SIR {sir} dB"),
                mcs,
                Scenario::Aci(AciScenario {
                    sir_db: *sir,
                    ..Default::default()
                }),
                vec![
                    ReceiverKind::CpRecycle(CpRecycleConfig::default()),
                    ReceiverKind::CpRecycle(amplitude_only),
                ],
            )
            .payload(scale.payload_len)
        })
        .collect()
}

/// The Monte-Carlo grid of a named figure, for the `campaign` CLI. Returns `None` for
/// names that are not packet-level campaigns (Table 1 and the capture diagnostics).
pub fn figure_grid(name: &str, scale: &FigureScale) -> Option<Vec<LinkPoint>> {
    match name {
        "fig5" => Some(fig5_grid(scale)),
        "fig8" => Some(fig8_grid(scale)),
        "fig9" => Some(fig9_grid(scale)),
        "fig10" => Some(fig10_grid(scale)),
        "fig11" => Some(fig11_grid(scale)),
        "fig12" => Some(fig12_grid(scale)),
        "fig14" => Some(fig14_grid(scale)),
        "decoders" => Some(decoder_sweep_grid(scale)),
        "models" => Some(models_grid(scale)),
        "ablate_sphere" => Some(ablate_sphere_grid(scale)),
        "ablate_kernel" => Some(ablate_kernel_grid(scale)),
        _ => None,
    }
}

/// Names accepted by [`figure_grid`].
pub const CAMPAIGN_FIGURES: &[&str] = &[
    "fig5",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig14",
    "decoders",
    "models",
    "ablate_sphere",
    "ablate_kernel",
];

// ---------------------------------------------------------------------------
// Figure drivers
// ---------------------------------------------------------------------------

/// Table 1: cyclic-prefix size and duration across 802.11 standards.
pub fn table1() -> ExperimentResult {
    let rows = cp_table();
    let x: Vec<f64> = rows.iter().map(|r| r.bandwidth_mhz).collect();
    ExperimentResult {
        id: "Table 1".into(),
        description: "Cyclic prefix in 802.11 standards (long GI, samples and µs; short GI in companion series)".into(),
        x_label: "Bandwidth (MHz)".into(),
        y_label: "CP samples / duration (µs)".into(),
        series: vec![
            Series::new("FFT size", x.clone(), rows.iter().map(|r| r.fft_size as f64).collect()),
            Series::new("CP (long GI, samples)", x.clone(), rows.iter().map(|r| r.cp_long as f64).collect()),
            Series::new(
                "CP (short GI, samples)",
                x.clone(),
                rows.iter()
                    .map(|r| r.cp_short.map(|v| v as f64).unwrap_or(f64::NAN))
                    .collect(),
            ),
            Series::new("Duration (long GI, µs)", x.clone(), rows.iter().map(|r| r.duration_long_us).collect()),
            Series::new(
                "Duration (short GI, µs)",
                x,
                rows.iter()
                    .map(|r| r.duration_short_us.unwrap_or(f64::NAN))
                    .collect(),
            ),
        ],
    }
}

/// Shared helper: render one ACI capture and return (engine, channel estimate,
/// scenario output, frame).
fn one_aci_capture(
    sir_db: f64,
    guard_band_hz: f64,
    seed: u64,
) -> Result<(
    OfdmEngine,
    ChannelEstimate,
    crate::interference::ScenarioOutput,
    ofdmphy::frame::TxFrame,
)> {
    let params = params();
    let tx = Transmitter::new(params.clone());
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let frame = tx.build_frame(
        &vec![0xA5; 400],
        Mcs::new(Modulation::Qam16, CodeRate::Half),
        0x5D,
    )?;
    let scenario = AciScenario {
        sir_db,
        guard_band_hz,
        ..Default::default()
    };
    let output = scenario.render(&mut rng, &params, &frame.samples)?;
    let ltf_start = preamble::ltf_start_offset(&params);
    let preamble_len = preamble::preamble_len(&params);
    let engine = OfdmEngine::new(params);
    let estimate = ChannelEstimate::from_ltf(&engine, &output.received[ltf_start..preamble_len])?;
    Ok((engine, estimate, output, frame))
}

/// Figure 4a: interference power per subcarrier for the standard receiver's FFT window
/// versus the oracle's best window per subcarrier (ACI, −20 dB SIR).
pub fn fig4a(scale: &FigureScale) -> Result<ExperimentResult> {
    let (engine, _est, output, frame) = one_aci_capture(-20.0, 1.25e6, scale.seed)?;
    let params = engine.params().clone();
    let sym_len = params.symbol_len();
    let data_start = preamble::preamble_len(&params) + sym_len;
    // Average interference power over a few data symbols.
    let num_symbols = frame
        .num_data_symbols
        .min(if scale.coarse { 4 } else { 16 });
    let mut standard_acc = vec![0.0f64; params.fft_size];
    let mut oracle_acc = vec![0.0f64; params.fft_size];
    let mut scratch = SegmentScratch::new();
    for s in 0..num_symbols {
        let start = data_start + s * sym_len;
        let powers = interference_power_per_segment_with(
            &engine,
            &output.interference_only[start..start + sym_len],
            17,
            SegmentExtraction::Sliding,
            &mut scratch,
        )?;
        let selection = oracle::select_best_segments(&powers);
        for bin in 0..params.fft_size {
            standard_acc[bin] += selection.standard_interference[bin];
            oracle_acc[bin] += selection.min_interference[bin];
        }
    }
    let occupied = params.occupied_bins();
    let x: Vec<f64> = occupied.iter().map(|b| *b as f64).collect();
    let to_db = |acc: &[f64]| -> Vec<f64> {
        occupied
            .iter()
            .map(|b| lin_to_db(acc[*b].max(1e-30) / num_symbols as f64))
            .collect()
    };
    Ok(ExperimentResult {
        id: "Figure 4a".into(),
        description: "Per-subcarrier interference power: standard FFT window vs oracle best segment (ACI, SIR −20 dB)".into(),
        x_label: "Subcarrier (FFT bin)".into(),
        y_label: "Interference power (dB)".into(),
        series: vec![
            Series::new("Standard receiver", x.clone(), to_db(&standard_acc)),
            Series::new("Oracle receiver", x, to_db(&oracle_acc)),
        ],
    })
}

/// Figure 4b: interference power versus FFT segment index at one band-edge subcarrier,
/// for SIR −10 / −20 / −30 dB.
pub fn fig4b(scale: &FigureScale) -> Result<ExperimentResult> {
    let mut series = Vec::new();
    for (i, sir) in [-10.0, -20.0, -30.0].iter().enumerate() {
        let (engine, _est, output, _frame) = one_aci_capture(*sir, 1.25e6, scale.seed + i as u64)?;
        let params = engine.params().clone();
        let sym_len = params.symbol_len();
        let data_start = preamble::preamble_len(&params) + sym_len;
        let powers = interference_power_per_segment(
            &engine,
            &output.interference_only[data_start..data_start + sym_len],
            17,
        )?;
        // A data subcarrier a few bins inside the band edge facing the interferer: the
        // outermost bin is saturated by direct leakage in every window, the variation
        // the paper highlights shows up a little further in. The bin-major layout
        // hands the per-segment series of that bin out as one contiguous slice.
        let bin = 22usize;
        let bin_series = powers.bin_powers(bin);
        let max_p = bin_series
            .iter()
            .cloned()
            .fold(f64::MIN, f64::max)
            .max(1e-30);
        let x: Vec<f64> = (1..=powers.num_segments()).map(|j| j as f64).collect();
        let y: Vec<f64> = bin_series
            .iter()
            .map(|p| lin_to_db(p.max(1e-30) / max_p))
            .collect();
        series.push(Series::new(format!("SIR {sir} dB"), x, y));
    }
    Ok(ExperimentResult {
        id: "Figure 4b".into(),
        description: "Normalised interference power vs FFT segment index at a band-edge subcarrier"
            .into(),
        x_label: "FFT segment index".into(),
        y_label: "Interference power (dB, normalised to worst segment)".into(),
        series,
    })
}

/// Figure 4c: constellation scatter of one BPSK subcarrier over five FFT segments.
pub fn fig4c(scale: &FigureScale) -> Result<ExperimentResult> {
    let (engine, estimate, output, frame) = one_aci_capture(-15.0, 1.25e6, scale.seed)?;
    let params = engine.params().clone();
    let sym_len = params.symbol_len();
    let data_start = preamble::preamble_len(&params) + sym_len;
    let segments = extract_segments(
        &engine,
        &output.received[data_start..data_start + sym_len],
        &estimate,
        5,
    )?;
    let data_bins = params.data_bins();
    let bin = data_bins[40];
    let observations = segments.bin_observations(bin);
    let tx_value = frame.data_subcarrier_values[0][40];
    Ok(ExperimentResult {
        id: "Figure 4c".into(),
        description: "Received signal of one subcarrier in 5 FFT segments around the transmitted lattice point".into(),
        x_label: "In-phase".into(),
        y_label: "Quadrature".into(),
        series: vec![
            Series::new(
                "Received (per segment)",
                observations.iter().map(|o| o.re).collect(),
                observations.iter().map(|o| o.im).collect(),
            ),
            Series::new("Transmitted lattice point", vec![tx_value.re], vec![tx_value.im]),
        ],
    })
}

/// Figure 5: packet success rate vs guard band for the Standard receiver, the naive
/// decoder and the Oracle, at SIR −10 / −20 / −30 dB (QPSK 3/4, single ACI interferer).
pub fn fig5(scale: &FigureScale) -> Result<ExperimentResult> {
    let guards = fig5_guards(scale);
    let points = fig5_grid(scale);
    let result = run_grid("fig5", scale, &points)?;
    // Arm labels come from the recorded tallies, so they can never drift from the
    // receiver set fig5_grid actually ran.
    let arm_labels: Vec<String> = result.points[0]
        .arms
        .iter()
        .map(|a| a.label.clone())
        .collect();
    let mut series: Vec<Series> = Vec::new();
    for (si, sir) in fig5_sirs().iter().enumerate() {
        let mut per_receiver: Vec<Vec<f64>> = vec![Vec::new(); arm_labels.len()];
        for gi in 0..guards.len() {
            let psr = arm_percents(&result, si * guards.len() + gi);
            for (dst, v) in per_receiver.iter_mut().zip(&psr) {
                dst.push(*v);
            }
        }
        for (label, ys) in arm_labels.iter().zip(per_receiver) {
            series.push(Series::new(
                format!("{label} @ SIR {sir} dB"),
                guards.clone(),
                ys,
            ));
        }
    }
    Ok(ExperimentResult {
        id: "Figure 5".into(),
        description:
            "PSR vs guard band for Standard / Naive / Oracle (QPSK 3/4, single ACI interferer)"
                .into(),
        x_label: "Guard band (MHz)".into(),
        y_label: "Packet success rate (%)".into(),
        series,
    })
}

/// Figure 6a: kernel density estimates of one sample set at three bandwidths.
pub fn fig6a() -> ExperimentResult {
    // A bimodal sample set similar in spirit to the paper's illustration.
    let samples = vec![
        -4.0, -3.5, -3.2, 0.0, 0.3, 0.5, 0.8, 1.0, 1.2, 5.5, 6.0, 6.2,
    ];
    let mut series = Vec::new();
    for bw in [1.0, 2.0, 3.0] {
        let kde = KernelDensity1d::new(&samples, BandwidthSelector::Fixed(bw))
            .expect("non-empty samples");
        let grid = kde.eval_grid(-10.0, 12.0, 221);
        series.push(Series::new(
            format!("Bandwidth = {bw}"),
            grid.iter().map(|(x, _)| *x).collect(),
            grid.iter().map(|(_, d)| *d).collect(),
        ));
    }
    series.push(Series::new(
        "Sample data",
        samples.clone(),
        vec![0.0; samples.len()],
    ));
    ExperimentResult {
        id: "Figure 6a".into(),
        description: "Kernel density estimation of a sample set with varying bandwidth".into(),
        x_label: "Sample value".into(),
        y_label: "Density".into(),
        series,
    }
}

/// Figure 6b: CDF of amplitude deviations observed in data symbols versus the CDF
/// predicted by the preamble-trained density, for SIR −10 / −20 / −30 dB.
pub fn fig6b(scale: &FigureScale) -> Result<ExperimentResult> {
    let mut series = Vec::new();
    for (i, sir) in [-10.0, -20.0, -30.0].iter().enumerate() {
        let (engine, estimate, output, frame) =
            one_aci_capture(*sir, 1.25e6, scale.seed + 10 + i as u64)?;
        let params = engine.params().clone();
        let sym_len = params.symbol_len();
        let config = CpRecycleConfig::default();

        // Train the model from the LTF exactly as the receiver does: the LTF is
        // re-framed as two symbols whose prefixes are genuinely cyclic.
        let reference = preamble::ltf_bins(&params);
        let ltf_start = preamble::ltf_start_offset(&params);
        let c = params.cp_len;
        let f = params.fft_size;
        let mut scratch = SegmentScratch::new();
        let seg1 = extract_segments_with(
            &engine,
            &output.received[ltf_start + c..ltf_start + c + sym_len],
            &estimate,
            16,
            SegmentExtraction::Sliding,
            &mut scratch,
        )?;
        let seg2 = extract_segments_with(
            &engine,
            &output.received[ltf_start + c + f..ltf_start + c + f + sym_len],
            &estimate,
            16,
            SegmentExtraction::Sliding,
            &mut scratch,
        )?;
        let model = InterferenceModel::train(
            &engine,
            &[seg1, seg2],
            &[reference.clone(), reference],
            config,
        )?;

        // Collect data-symbol amplitude deviations on one band-edge subcarrier.
        let data_start = preamble::preamble_len(&params) + sym_len;
        let data_bins = params.data_bins();
        let bin = *data_bins.last().expect("data bins exist");
        let bin_col = data_bins.len() - 1;
        let mut deviations = Vec::new();
        let symbols = frame
            .num_data_symbols
            .min(if scale.coarse { 6 } else { 20 });
        for s in 0..symbols {
            let start = data_start + s * sym_len;
            let segments = extract_segments_with(
                &engine,
                &output.received[start..start + sym_len],
                &estimate,
                16,
                SegmentExtraction::Sliding,
                &mut scratch,
            )?;
            let tx_value = frame.data_subcarrier_values[s][bin_col];
            for obs in segments.bin_observations(bin) {
                deviations.push((*obs - tx_value).norm());
            }
        }
        let data_cdf = EmpiricalCdf::new(&deviations)?;
        let curve = data_cdf.curve();
        series.push(Series::new(
            format!("Data-symbol samples, SIR {sir} dB"),
            curve
                .iter()
                .map(|(x, _)| lin_to_db((x * x).max(1e-30)))
                .collect(),
            curve.iter().map(|(_, p)| *p).collect(),
        ));
        // Model-predicted CDF from the preamble-trained deviation samples.
        let model_cdf = EmpiricalCdf::new(model.samples_amplitude(bin))?;
        let curve = model_cdf.curve();
        series.push(Series::new(
            format!("Preamble-trained density, SIR {sir} dB"),
            curve
                .iter()
                .map(|(x, _)| lin_to_db((x * x).max(1e-30)))
                .collect(),
            curve.iter().map(|(_, p)| *p).collect(),
        ));
    }
    Ok(ExperimentResult {
        id: "Figure 6b".into(),
        description:
            "CDF of interference amplitude: data-symbol observations vs preamble-trained model"
                .into(),
        x_label: "Interference power (dB)".into(),
        y_label: "CDF".into(),
        series,
    })
}

fn psr_vs_sir(
    id: &str,
    description: &str,
    scale: &FigureScale,
    sirs: &[f64],
    points: Vec<LinkPoint>,
) -> Result<ExperimentResult> {
    let result = run_grid(id, scale, &points)?;
    let mut series = Vec::new();
    for (mi, (_mcs, label)) in paper_mcs_labels().iter().enumerate() {
        let mut without = Vec::new();
        let mut with = Vec::new();
        for si in 0..sirs.len() {
            let psr = arm_percents(&result, mi * sirs.len() + si);
            without.push(psr[0]);
            with.push(psr[1]);
        }
        series.push(Series::new(
            format!("{label}, without CPRecycle"),
            sirs.to_vec(),
            without,
        ));
        series.push(Series::new(
            format!("{label}, with CPRecycle"),
            sirs.to_vec(),
            with,
        ));
    }
    Ok(ExperimentResult {
        id: id.into(),
        description: description.into(),
        x_label: "Signal to interference ratio (dB)".into(),
        y_label: "Packet success rate (%)".into(),
        series,
    })
}

/// Figure 8: PSR vs SIR with a single adjacent-channel interferer, for the three paper
/// MCS modes, with and without CPRecycle.
pub fn fig8(scale: &FigureScale) -> Result<ExperimentResult> {
    psr_vs_sir(
        "Figure 8",
        "PSR vs SIR, single adjacent-channel interferer (overlapping 802.11 channel, 15 MHz away)",
        scale,
        &fig8_sirs(scale),
        fig8_grid(scale),
    )
}

/// Figure 9: PSR vs SIR with two adjacent-channel interferers (one on each side).
pub fn fig9(scale: &FigureScale) -> Result<ExperimentResult> {
    psr_vs_sir(
        "Figure 9",
        "PSR vs SIR, two adjacent-channel interferers (overlapping channels on both sides)",
        scale,
        &fig8_sirs(scale),
        fig9_grid(scale),
    )
}

/// Figure 10: PSR vs guard band (16-QAM 1/2), SIR −10 / −20 / −30 dB, with and without
/// CPRecycle.
pub fn fig10(scale: &FigureScale) -> Result<ExperimentResult> {
    let guards = fig10_guards(scale);
    let points = fig10_grid(scale);
    let result = run_grid("fig10", scale, &points)?;
    let mut series = Vec::new();
    for (si, sir) in [-10.0, -20.0, -30.0].iter().enumerate() {
        let mut without = Vec::new();
        let mut with = Vec::new();
        for gi in 0..guards.len() {
            let psr = arm_percents(&result, si * guards.len() + gi);
            without.push(psr[0]);
            with.push(psr[1]);
        }
        series.push(Series::new(
            format!("SIR {sir} dB, without CPRecycle"),
            guards.clone(),
            without,
        ));
        series.push(Series::new(
            format!("SIR {sir} dB, with CPRecycle"),
            guards.clone(),
            with,
        ));
    }
    Ok(ExperimentResult {
        id: "Figure 10".into(),
        description: "PSR vs guard band with an adjacent legacy transmitter (16-QAM 1/2)".into(),
        x_label: "Guard band (MHz)".into(),
        y_label: "Packet success rate (%)".into(),
        series,
    })
}

/// Figure 11: PSR vs SIR with a single co-channel interferer.
pub fn fig11(scale: &FigureScale) -> Result<ExperimentResult> {
    psr_vs_sir(
        "Figure 11",
        "PSR vs SIR, single co-channel interferer",
        scale,
        &fig11_sirs(scale),
        fig11_grid(scale),
    )
}

/// Figure 12: PSR vs SIR with two co-channel interferers.
pub fn fig12(scale: &FigureScale) -> Result<ExperimentResult> {
    psr_vs_sir(
        "Figure 12",
        "PSR vs SIR, two co-channel interferers",
        scale,
        &fig11_sirs(scale),
        fig12_grid(scale),
    )
}

/// Figure 13: CDF of the number of interfering neighbors in the office building, with
/// and without CPRecycle.
///
/// Runs as an engine campaign over independent building realizations (the trial
/// stream) whose per-AP neighbor counts are pooled through the tallies' auxiliary
/// sample streams — so even the non-packet figure checkpoints and parallelises like
/// every other campaign.
pub fn fig13(scale: &FigureScale) -> ExperimentResult {
    let realizations = if scale.coarse { 2 } else { 16 };
    let config = CampaignConfig::new("fig13", scale.seed).trials(realizations);
    let result = run_neighbor_campaign(
        &config,
        &BuildingModel::default(),
        &crate::telemetry::run_options(),
    )
    .expect("neighbor trials are infallible");
    let counts = crate::neighbors::counts_from_campaign(&result.points[0]);
    let std_curve = counts.standard_cdf();
    let cp_curve = counts.cprecycle_cdf();
    ExperimentResult {
        id: "Figure 13".into(),
        description: "CDF of interfering neighbors per AP in a 5-floor, 40-AP office".into(),
        x_label: "Number of interfering neighbors".into(),
        y_label: "CDF".into(),
        series: vec![
            Series::new(
                "Standard receiver",
                std_curve.iter().map(|(x, _)| *x).collect(),
                std_curve.iter().map(|(_, y)| *y).collect(),
            ),
            Series::new(
                "CPRecycle",
                cp_curve.iter().map(|(x, _)| *x).collect(),
                cp_curve.iter().map(|(_, y)| *y).collect(),
            ),
        ],
    }
}

/// Figure 14: PSR vs number of FFT segments (as % of the CP), ACI scenario, 16-QAM, for
/// SIR −10 / −20 / −30 dB.
pub fn fig14(scale: &FigureScale) -> Result<ExperimentResult> {
    let params = params();
    let segment_counts = fig14_segment_counts(scale);
    let points = fig14_grid(scale);
    let result = run_grid("fig14", scale, &points)?;
    let mut series = Vec::new();
    for (si, sir) in [-10.0, -20.0, -30.0].iter().enumerate() {
        let psrs: Vec<f64> = (0..segment_counts.len())
            .map(|pi| arm_percents(&result, si * segment_counts.len() + pi)[0])
            .collect();
        series.push(Series::new(
            format!("SIR {sir} dB"),
            segment_counts
                .iter()
                .map(|p| 100.0 * *p as f64 / params.cp_len as f64)
                .collect(),
            psrs,
        ));
    }
    Ok(ExperimentResult {
        id: "Figure 14".into(),
        description: "PSR vs number of FFT segments (% of CP), ACI, 16-QAM 1/2".into(),
        x_label: "Number of FFT segments (% of CP)".into(),
        y_label: "Packet success rate (%)".into(),
        series,
    })
}

/// Decoder comparison: packet success rate of every decision stage — conventional
/// receiver, standard-window stage, naive Eq. 3, genie Oracle and the sphere ML
/// decoder — versus SIR under single-interferer ACI, as one engine campaign.
pub fn decoder_comparison(scale: &FigureScale) -> Result<ExperimentResult> {
    let sirs = fig8_sirs(scale);
    let points = decoder_sweep_grid(scale);
    let result = run_grid("decoders", scale, &points)?;
    let arm_labels: Vec<String> = result.points[0]
        .arms
        .iter()
        .map(|a| a.label.clone())
        .collect();
    let mut per_receiver: Vec<Vec<f64>> = vec![Vec::new(); arm_labels.len()];
    for si in 0..sirs.len() {
        let psr = arm_percents(&result, si);
        for (dst, v) in per_receiver.iter_mut().zip(&psr) {
            dst.push(*v);
        }
    }
    Ok(ExperimentResult {
        id: "Decoder comparison".into(),
        description:
            "PSR vs SIR for every subcarrier-decision stage (QPSK 1/2, single ACI interferer)"
                .into(),
        x_label: "Signal to interference ratio (dB)".into(),
        y_label: "Packet success rate (%)".into(),
        series: arm_labels
            .into_iter()
            .zip(per_receiver)
            .map(|(label, ys)| Series::new(label, sirs.clone(), ys))
            .collect(),
    })
}

/// Estimator-backend comparison: packet success rate of every interference-model
/// backend — exact KDE (reference), parametric Gaussian — plus the standard
/// receiver, versus SIR under single-interferer ACI at the Fig. 14 reproduction
/// operating point, as one engine campaign.
///
/// The reproduction claim this backs: the Gaussian arm exposes what the
/// non-parametric density buys over a two-moment fit.
pub fn model_comparison(scale: &FigureScale) -> Result<ExperimentResult> {
    let sirs = models_sirs(scale);
    let points = models_grid(scale);
    let result = run_grid("models", scale, &points)?;
    let arm_labels: Vec<String> = result.points[0]
        .arms
        .iter()
        .map(|a| a.label.clone())
        .collect();
    let mut per_receiver: Vec<Vec<f64>> = vec![Vec::new(); arm_labels.len()];
    for si in 0..sirs.len() {
        let psr = arm_percents(&result, si);
        for (dst, v) in per_receiver.iter_mut().zip(&psr) {
            dst.push(*v);
        }
    }
    Ok(ExperimentResult {
        id: "Estimator comparison".into(),
        description:
            "PSR vs SIR for every interference-estimator backend (QPSK 1/2, single ACI interferer)"
                .into(),
        x_label: "Signal to interference ratio (dB)".into(),
        y_label: "Packet success rate (%)".into(),
        series: arm_labels
            .into_iter()
            .zip(per_receiver)
            .map(|(label, ys)| Series::new(label, sirs.clone(), ys))
            .collect(),
    })
}

/// Ablation: sphere radius vs PSR and mean search-space size (design choice of §4.2).
pub fn ablate_sphere_radius(scale: &FigureScale) -> Result<ExperimentResult> {
    let radii = ablate_sphere_radii();
    let points = ablate_sphere_grid(scale);
    let result = run_grid("ablate_sphere", scale, &points)?;
    let psrs: Vec<f64> = (0..radii.len())
        .map(|i| arm_percents(&result, i)[0])
        .collect();
    Ok(ExperimentResult {
        id: "Ablation: sphere radius".into(),
        description: "PSR vs fixed-sphere radius (64-QAM 2/3, ACI, SIR −10 dB)".into(),
        x_label: "Sphere radius (multiples of min distance)".into(),
        y_label: "Packet success rate (%)".into(),
        series: vec![Series::new("CPRecycle", radii.to_vec(), psrs)],
    })
}

/// Ablation: product (amplitude, phase) kernel vs amplitude-only kernel.
pub fn ablate_kernel(scale: &FigureScale) -> Result<ExperimentResult> {
    let sirs = ablate_kernel_sirs(scale);
    let points = ablate_kernel_grid(scale);
    let result = run_grid("ablate_kernel", scale, &points)?;
    let mut product = Vec::new();
    let mut amp_only = Vec::new();
    for i in 0..sirs.len() {
        let psr = arm_percents(&result, i);
        product.push(psr[0]);
        amp_only.push(psr[1]);
    }
    Ok(ExperimentResult {
        id: "Ablation: kernel".into(),
        description: "Bivariate product kernel vs amplitude-only kernel (16-QAM, ACI)".into(),
        x_label: "Signal to interference ratio (dB)".into(),
        y_label: "Packet success rate (%)".into(),
        series: vec![
            Series::new("Product (amplitude, phase) kernel", sirs.clone(), product),
            Series::new("Amplitude-only kernel", sirs, amp_only),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_four_standards_and_five_series() {
        let t = table1();
        assert_eq!(t.series.len(), 5);
        for s in &t.series {
            assert_eq!(s.x.len(), 4);
        }
        // 802.11a/g row: 64-point FFT, 16-sample CP, 0.8 µs.
        assert_eq!(t.series[0].y[0], 64.0);
        assert_eq!(t.series[1].y[0], 16.0);
        assert!((t.series[3].y[0] - 0.8).abs() < 1e-9);
    }

    #[test]
    fn fig4a_oracle_sees_less_interference_than_standard() {
        let r = fig4a(&FigureScale::smoke()).unwrap();
        assert_eq!(r.series.len(), 2);
        let standard_mean: f64 = r.series[0].y.iter().sum::<f64>() / r.series[0].y.len() as f64;
        let oracle_mean: f64 = r.series[1].y.iter().sum::<f64>() / r.series[1].y.len() as f64;
        assert!(
            standard_mean > oracle_mean + 3.0,
            "oracle should reduce interference: standard {standard_mean} dB, oracle {oracle_mean} dB"
        );
    }

    #[test]
    fn fig4b_interference_varies_across_segments() {
        let r = fig4b(&FigureScale::smoke()).unwrap();
        assert_eq!(r.series.len(), 3);
        for s in &r.series {
            assert_eq!(s.x.len(), 17);
            let max = s.y.iter().cloned().fold(f64::MIN, f64::max);
            let min = s.y.iter().cloned().fold(f64::MAX, f64::min);
            assert!(
                (max - 0.0).abs() < 1e-9,
                "normalised maximum should be 0 dB"
            );
            assert!(
                max - min > 2.0,
                "expected per-segment variation, got {} dB",
                max - min
            );
        }
    }

    #[test]
    fn fig4c_has_five_scatter_points_and_a_reference() {
        let r = fig4c(&FigureScale::smoke()).unwrap();
        assert_eq!(r.series[0].x.len(), 5);
        assert_eq!(r.series[1].x.len(), 1);
    }

    #[test]
    fn fig6a_narrow_bandwidth_has_higher_peak() {
        let r = fig6a();
        let peak = |s: &Series| s.y.iter().cloned().fold(f64::MIN, f64::max);
        assert!(peak(&r.series[0]) > peak(&r.series[2]));
        assert_eq!(r.series.len(), 4);
    }

    #[test]
    fn fig6b_produces_paired_series_per_sir() {
        let r = fig6b(&FigureScale::smoke()).unwrap();
        assert_eq!(r.series.len(), 6);
        for s in &r.series {
            assert!(!s.x.is_empty());
            // CDF values are within [0, 1].
            assert!(s.y.iter().all(|v| (0.0..=1.0).contains(v)));
        }
    }

    #[test]
    fn fig13_cprecycle_cdf_dominates_standard() {
        let r = fig13(&FigureScale::smoke());
        assert_eq!(r.series.len(), 2);
        // At any neighbor count the CPRecycle CDF is at least the standard CDF
        // (stochastic dominance): compare the medians as a robust summary.
        let median = |s: &Series| {
            let idx = s.y.iter().position(|v| *v >= 0.5).unwrap_or(0);
            s.x[idx]
        };
        assert!(median(&r.series[1]) <= median(&r.series[0]));
    }

    #[test]
    fn decoder_comparison_sweeps_all_stages_in_one_campaign() {
        let r = decoder_comparison(&FigureScale::smoke()).unwrap();
        assert_eq!(r.series.len(), 5, "one series per decision-stage arm");
        let labels: Vec<&str> = r.series.iter().map(|s| s.label.as_str()).collect();
        for needle in ["Standard", "Naive", "Oracle", "Sphere"] {
            assert!(
                labels.iter().any(|l| l.contains(needle)),
                "missing {needle} arm in {labels:?}"
            );
        }
        // Every series covers the whole SIR sweep.
        for s in &r.series {
            assert_eq!(s.x.len(), fig8_sirs(&FigureScale::smoke()).len());
        }
    }

    #[test]
    fn model_comparison_sweeps_all_backends_in_one_campaign() {
        let r = model_comparison(&FigureScale::smoke()).unwrap();
        assert_eq!(r.series.len(), 3, "one series per estimator arm + standard");
        let labels: Vec<&str> = r.series.iter().map(|s| s.label.as_str()).collect();
        for needle in ["Standard", "ExactKde", "Gaussian"] {
            assert!(
                labels.iter().any(|l| l.contains(needle)),
                "missing {needle} arm in {labels:?}"
            );
        }
        for s in &r.series {
            assert_eq!(s.x.len(), models_sirs(&FigureScale::smoke()).len());
        }
    }

    #[test]
    fn figure_grids_are_registered_and_nonempty() {
        let scale = FigureScale::smoke();
        for name in CAMPAIGN_FIGURES {
            let grid = figure_grid(name, &scale).unwrap_or_else(|| panic!("{name} missing"));
            assert!(!grid.is_empty(), "{name}");
            // Labels are set and payloads follow the scale.
            for point in &grid {
                assert!(!point.label.is_empty());
                assert_eq!(point.payload_len, scale.payload_len);
            }
        }
        assert!(figure_grid("table1", &scale).is_none());
    }

    #[test]
    fn table_rendering_of_a_figure_result_is_nonempty() {
        let r = table1();
        let text = r.to_table();
        assert!(text.contains("Table 1"));
        assert!(!r.to_json().is_empty());
    }
}
