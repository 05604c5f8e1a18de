//! The experiment registry: every table and figure of the paper's evaluation, plus
//! the decoder, estimator, streaming and ablation sweeps, named once in [`FIGURES`].
//!
//! An entry is either a [`Experiment::Campaign`] — a grid submitted to the
//! `cprecycle-engine` campaign engine as **one** campaign, so the whole grid
//! parallelises across workers, checkpoints and resumes, plus a pure render that
//! reshapes the campaign's tallies into the figure's series — or a
//! [`Experiment::Direct`] computation with no trials (Table 1 and the single-capture
//! diagnostics). [`regenerate`] runs any entry and returns the
//! [`ExperimentResult`] whose series correspond to the curves in the original figure;
//! the `campaign` CLI in `cprecycle-bench` prints it, and the README's reproduction
//! notes compare it with the paper.
//!
//! Every entry takes a [`FigureScale`] so unit tests can run it with a handful of
//! packets and a coarse sweep while the CLI defaults to a dense grid and more
//! packets. Absolute values will not match the authors' over-the-air testbed; the
//! qualitative shape (who wins, roughly by how much, where the cliffs sit) is the
//! reproduction target.

use crate::interference::{AciScenario, AciSide, CciScenario};
use crate::link::{run_link_campaign, LinkPoint, ReceiverKind, Scenario};
use crate::neighbors::{counts_from_campaign, run_neighbor_campaign, BuildingModel, NeighborPoint};
use crate::report::{ExperimentResult, Series};
use crate::stream::{run_stream_campaign, StreamArm, StreamPoint};
use crate::Result;
use cprecycle::oracle;
use cprecycle::segments::{
    extract_segments, extract_segments_with, interference_power_per_segment,
    interference_power_per_segment_with, SegmentExtraction, SegmentScratch,
};
use cprecycle::{
    CpRecycleConfig, CpRecycleReceiver, DecisionStage, ModelBackend, ModelPersistence,
};
use cprecycle_engine::{CampaignConfig, CampaignPoint, CampaignResult, RunOptions};
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

/// How much work an experiment should do.
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
    /// The paper-density scale (slower, denser) the CLI runs by default.
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
}

// ---------------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------------

/// One registered experiment.
pub struct Figure {
    /// Registry name; campaign entries also run under it as the campaign name, so a
    /// checkpoint names the entry that resumes it.
    pub name: &'static str,
    /// How the experiment produces its result.
    pub experiment: Experiment,
}

/// The two kinds of registry entry.
pub enum Experiment {
    /// A Monte-Carlo campaign: checkpointable, resumable and — for link and stream
    /// grids — replayable trial by trial.
    Campaign {
        /// The grid the campaign runs.
        grid: Grid,
        /// Reshapes the campaign's tallies into the figure's series (pure: a
        /// reloaded checkpoint renders exactly like a fresh run).
        render: fn(&FigureScale, &CampaignResult) -> ExperimentResult,
    },
    /// A direct computation with no trials.
    Direct(fn(&FigureScale) -> Result<ExperimentResult>),
}

/// The grid of a campaign entry.
#[derive(Clone, Copy)]
pub enum Grid {
    /// Packet-level link trials ([`crate::link`]).
    Link(fn(&FigureScale) -> Vec<LinkPoint>),
    /// Bursty streaming sessions ([`crate::stream`]).
    Stream(fn(&FigureScale) -> Vec<StreamPoint>),
    /// The Fig. 13 office-building survey: one point whose trials are independent
    /// building realizations ([`crate::neighbors`]).
    Neighbors,
}

impl Grid {
    /// The campaign configuration of entry `name` at `scale`: its seed, and
    /// `scale.packets` trials per point (building realizations for the survey).
    pub fn config(&self, name: &str, scale: &FigureScale) -> CampaignConfig {
        let trials = match self {
            Grid::Neighbors if scale.coarse => 2,
            Grid::Neighbors => 16,
            _ => scale.packets,
        };
        CampaignConfig::new(name, scale.seed).trials(trials)
    }

    /// The grid's points at `scale`, for listing and for matching checkpoint keys.
    pub fn points(&self, scale: &FigureScale) -> Vec<Box<dyn CampaignPoint>> {
        fn boxed<P: CampaignPoint + 'static>(points: Vec<P>) -> Vec<Box<dyn CampaignPoint>> {
            points.into_iter().map(|p| Box::new(p) as _).collect()
        }
        match self {
            Grid::Link(grid) => boxed(grid(scale)),
            Grid::Stream(grid) => boxed(grid(scale)),
            Grid::Neighbors => boxed(vec![NeighborPoint {
                model: BuildingModel::default(),
            }]),
        }
    }

    /// Runs the grid at `scale` as one engine campaign.
    pub fn run(
        &self,
        config: &CampaignConfig,
        scale: &FigureScale,
        options: &RunOptions<'_>,
    ) -> Result<CampaignResult> {
        match self {
            Grid::Link(grid) => run_link_campaign(config, &grid(scale), options),
            Grid::Stream(grid) => run_stream_campaign(config, &grid(scale), options),
            Grid::Neighbors => run_neighbor_campaign(config, &BuildingModel::default(), options),
        }
        .map_err(|e| ofdmphy::PhyError::DecodeFailure(e.to_string()))
    }
}

const fn campaign(
    name: &'static str,
    grid: Grid,
    render: fn(&FigureScale, &CampaignResult) -> ExperimentResult,
) -> Figure {
    Figure {
        name,
        experiment: Experiment::Campaign { grid, render },
    }
}

const fn direct(name: &'static str, run: fn(&FigureScale) -> Result<ExperimentResult>) -> Figure {
    Figure {
        name,
        experiment: Experiment::Direct(run),
    }
}

/// Every experiment, in the order the CLI lists them.
pub const FIGURES: &[Figure] = &[
    direct("table1", table1),
    direct("fig4a", fig4a),
    direct("fig4b", fig4b),
    direct("fig4c", fig4c),
    campaign("fig5", Grid::Link(fig5_grid), render_fig5),
    direct("fig6a", fig6a),
    direct("fig6b", fig6b),
    campaign("fig8", Grid::Link(fig8_grid), render_fig8),
    campaign("fig9", Grid::Link(fig9_grid), render_fig9),
    campaign("fig10", Grid::Link(fig10_grid), render_fig10),
    campaign("fig11", Grid::Link(fig11_grid), render_fig11),
    campaign("fig12", Grid::Link(fig12_grid), render_fig12),
    campaign("fig13", Grid::Neighbors, render_fig13),
    campaign("fig14", Grid::Link(fig14_grid), render_fig14),
    campaign("decoders", Grid::Link(decoders_grid), render_decoders),
    campaign("models", Grid::Link(models_grid), render_models),
    campaign(
        "ablate_sphere",
        Grid::Link(ablate_sphere_grid),
        render_ablate_sphere,
    ),
    campaign(
        "ablate_kernel",
        Grid::Link(ablate_kernel_grid),
        render_ablate_kernel,
    ),
    campaign("fig_stream", Grid::Stream(stream_grid), render_fig_stream),
];

/// The registry entry called `name`.
pub fn figure(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// Runs the entry called `name` at `scale` with default engine options and renders
/// its result.
pub fn regenerate(name: &str, scale: &FigureScale) -> Result<ExperimentResult> {
    let figure = figure(name).ok_or_else(|| ofdmphy::PhyError::InvalidParameter {
        name: "name",
        reason: format!("no experiment named `{name}`"),
    })?;
    match &figure.experiment {
        Experiment::Direct(run) => run(scale),
        Experiment::Campaign { grid, render } => {
            let config = grid.config(name, scale);
            Ok(render(
                scale,
                &grid.run(&config, scale, &RunOptions::default())?,
            ))
        }
    }
}

// ---------------------------------------------------------------------------
// Campaign grids
// ---------------------------------------------------------------------------

fn params() -> OfdmParams {
    OfdmParams::ieee80211ag()
}

fn paper_mcs_labels() -> [(Mcs, &'static str); 3] {
    [
        (Mcs::new(Modulation::Qpsk, CodeRate::Half), "QPSK 1/2"),
        (Mcs::new(Modulation::Qam16, CodeRate::Half), "16-QAM 1/2"),
        (
            Mcs::new(Modulation::Qam64, CodeRate::TwoThirds),
            "64-QAM 2/3",
        ),
    ]
}

/// The SIRs of the guard-band and segment-count sweeps (Figs. 5, 10 and 14).
const ACI_SIRS: [f64; 3] = [-10.0, -20.0, -30.0];

fn standard_and_cprecycle() -> Vec<ReceiverKind> {
    vec![
        ReceiverKind::Standard,
        ReceiverKind::CpRecycle(CpRecycleConfig::default()),
    ]
}

/// The Figs. 8/9/11/12 shape: every paper MCS × every SIR, Standard vs CPRecycle.
fn psr_vs_sir_grid(
    scale: &FigureScale,
    sirs: &[f64],
    scenario_for: impl Fn(f64) -> Scenario,
) -> Vec<LinkPoint> {
    let mut points = Vec::new();
    for (mcs, label) in paper_mcs_labels() {
        for sir in sirs {
            points.push(
                LinkPoint::new(
                    format!("{label} @ SIR {sir} dB"),
                    mcs,
                    scenario_for(*sir),
                    standard_and_cprecycle(),
                )
                .payload(scale.payload_len),
            );
        }
    }
    points
}

/// The Figs. 5/10 shape: every [`ACI_SIRS`] SIR × every guard band, single ACI
/// interferer (oversampled 8× once the guard pushes it past the 4× band).
fn guard_band_grid(
    scale: &FigureScale,
    mcs: Mcs,
    guards: &[f64],
    receivers: Vec<ReceiverKind>,
) -> Vec<LinkPoint> {
    let mut points = Vec::new();
    for sir in ACI_SIRS {
        for guard in guards {
            points.push(
                LinkPoint::new(
                    format!("SIR {sir} dB, guard {guard} MHz"),
                    mcs,
                    Scenario::Aci(AciScenario {
                        sir_db: sir,
                        guard_band_hz: guard * 1e6,
                        oversample: if *guard > 18.0 { 8 } else { 4 },
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

/// QPSK 1/2 under one ACI interferer on the overlapping channel 15 MHz away, one
/// point per SIR — the arm sweeps (decoders, estimators) run on this shape.
fn overlapping_aci_grid(
    scale: &FigureScale,
    sirs: &[f64],
    receivers: Vec<ReceiverKind>,
) -> Vec<LinkPoint> {
    sirs.iter()
        .map(|sir| {
            LinkPoint::new(
                format!("SIR {sir} dB"),
                Mcs::new(Modulation::Qpsk, CodeRate::Half),
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

fn fig5_guards(scale: &FigureScale) -> Vec<f64> {
    if scale.coarse {
        vec![0.0, 10.0]
    } else {
        vec![0.0, 2.5, 5.0, 7.5, 10.0, 12.5, 15.0, 20.0]
    }
}

fn fig5_grid(scale: &FigureScale) -> Vec<LinkPoint> {
    guard_band_grid(
        scale,
        Mcs::new(Modulation::Qpsk, CodeRate::ThreeQuarters),
        &fig5_guards(scale),
        vec![
            ReceiverKind::Standard,
            ReceiverKind::with_decision(DecisionStage::Naive),
            ReceiverKind::with_decision(DecisionStage::Oracle),
        ],
    )
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
    guard_band_grid(
        scale,
        Mcs::new(Modulation::Qam16, CodeRate::Half),
        &fig10_guards(scale),
        standard_and_cprecycle(),
    )
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
    for sir in ACI_SIRS {
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

/// The decoder-comparison sweep: every decision stage as an arm of the same ACI grid,
/// so a fig. 8/9-style "which decoder wins where" comparison is **one** engine run —
/// the decoder is part of the campaign point key like SIR or `P`.
fn decoders_grid(scale: &FigureScale) -> Vec<LinkPoint> {
    overlapping_aci_grid(
        scale,
        &fig8_sirs(scale),
        vec![
            ReceiverKind::Standard,
            ReceiverKind::with_decision(DecisionStage::Standard),
            ReceiverKind::with_decision(DecisionStage::Naive),
            ReceiverKind::with_decision(DecisionStage::Oracle),
            ReceiverKind::with_decision(DecisionStage::default()),
        ],
    )
}

fn models_sirs(scale: &FigureScale) -> Vec<f64> {
    if scale.coarse {
        vec![-14.0]
    } else {
        vec![-30.0, -20.0, -14.0, -10.0, 0.0, 10.0]
    }
}

/// The estimator-backend sweep: every interference-model backend (exact KDE,
/// parametric Gaussian) as an arm of the same ACI grid at the Fig. 14
/// reproduction operating point (QPSK 1/2, overlapping channel 15 MHz away,
/// `P = 16`), plus the standard receiver as the floor — "which density model is
/// accurate enough, and what does the cheap one cost in BER" as **one** engine run.
/// The backend is part of every campaign point key, exactly like the decoder.
fn models_grid(scale: &FigureScale) -> Vec<LinkPoint> {
    overlapping_aci_grid(
        scale,
        &models_sirs(scale),
        vec![
            ReceiverKind::Standard,
            ReceiverKind::with_model(ModelBackend::ExactKde),
            ReceiverKind::with_model(ModelBackend::Gaussian),
        ],
    )
}

const ABLATE_SPHERE_RADII: [f64; 5] = [0.5, 1.0, 2.0, 4.0, 8.0];

fn ablate_sphere_grid(scale: &FigureScale) -> Vec<LinkPoint> {
    let mcs = Mcs::new(Modulation::Qam64, CodeRate::TwoThirds);
    ABLATE_SPHERE_RADII
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

fn stream_sirs(scale: &FigureScale) -> Vec<f64> {
    if scale.coarse {
        vec![-8.0]
    } else {
        vec![-20.0, -14.0, -8.0, -2.0, 4.0]
    }
}

/// The bursty-traffic grid: ≥ 3 back-to-back frames per trial under single-interferer
/// ACI (the fig. 8 overlapping-channel geometry), decoded by the standard receiver
/// and by CPRecycle under both persistence policies — so one engine run sweeps the
/// streaming receive chain and the cross-frame model together.
fn stream_grid(scale: &FigureScale) -> Vec<StreamPoint> {
    let arms = vec![
        StreamArm::Standard,
        StreamArm::cprecycle(ModelPersistence::PerFrame),
        StreamArm::cprecycle(ModelPersistence::Rolling),
    ];
    stream_sirs(scale)
        .iter()
        .map(|sir| {
            StreamPoint::new(
                format!("SIR {sir} dB"),
                Scenario::Aci(AciScenario {
                    sir_db: *sir,
                    channel_offset_hz: Some(15e6),
                    ..Default::default()
                }),
                arms.clone(),
            )
            .payload(scale.payload_len)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Campaign renders
// ---------------------------------------------------------------------------

/// The reshape every link figure shares: grid point `g * xs.len() + i` holds x value
/// `xs[i]` of group `g`, and every (group, arm) pair becomes one packet-success-rate
/// series named `name(g, arm index, arm label)`, group-major.
fn psr_series(
    result: &CampaignResult,
    xs: &[f64],
    name: impl Fn(usize, usize, &str) -> String,
) -> Vec<Series> {
    let mut series = Vec::new();
    for (g, group) in result.points.chunks(xs.len()).enumerate() {
        for (a, arm) in group[0].arms.iter().enumerate() {
            let ys = group.iter().map(|p| p.arms[a].success_percent()).collect();
            series.push(Series::new(name(g, a, &arm.label), xs.to_vec(), ys));
        }
    }
    series
}

/// A packet-success-rate figure.
fn psr_figure(id: &str, description: &str, x_label: &str, series: Vec<Series>) -> ExperimentResult {
    ExperimentResult {
        id: id.into(),
        description: description.into(),
        x_label: x_label.into(),
        y_label: "Packet success rate (%)".into(),
        series,
    }
}

const SIR_AXIS: &str = "Signal to interference ratio (dB)";
const GUARD_AXIS: &str = "Guard band (MHz)";

/// "`group`, without CPRecycle" for arm 0 and "`group`, with CPRecycle" for arm 1.
fn with_without(group: &str, arm: usize) -> String {
    let with = if arm == 0 { "without" } else { "with" };
    format!("{group}, {with} CPRecycle")
}

/// The Figs. 8/9/11/12 render: one without/with pair per paper MCS.
fn psr_vs_sir(
    id: &str,
    description: &str,
    sirs: &[f64],
    result: &CampaignResult,
) -> ExperimentResult {
    let mcs = paper_mcs_labels();
    let series = psr_series(result, sirs, |g, a, _| with_without(mcs[g].1, a));
    psr_figure(id, description, SIR_AXIS, series)
}

/// Figure 5: packet success rate vs guard band for the Standard receiver, the naive
/// decoder and the Oracle, at SIR −10 / −20 / −30 dB (QPSK 3/4, single ACI interferer).
fn render_fig5(scale: &FigureScale, result: &CampaignResult) -> ExperimentResult {
    // Arm labels come from the recorded tallies, so they can never drift from the
    // receiver set fig5_grid actually ran.
    let series = psr_series(result, &fig5_guards(scale), |g, _, label| {
        format!("{label} @ SIR {} dB", ACI_SIRS[g])
    });
    psr_figure(
        "Figure 5",
        "PSR vs guard band for Standard / Naive / Oracle (QPSK 3/4, single ACI interferer)",
        GUARD_AXIS,
        series,
    )
}

/// Figure 8: PSR vs SIR with a single adjacent-channel interferer, for the three paper
/// MCS modes, with and without CPRecycle.
fn render_fig8(scale: &FigureScale, result: &CampaignResult) -> ExperimentResult {
    psr_vs_sir(
        "Figure 8",
        "PSR vs SIR, single adjacent-channel interferer (overlapping 802.11 channel, 15 MHz away)",
        &fig8_sirs(scale),
        result,
    )
}

/// Figure 9: PSR vs SIR with two adjacent-channel interferers (one on each side).
fn render_fig9(scale: &FigureScale, result: &CampaignResult) -> ExperimentResult {
    psr_vs_sir(
        "Figure 9",
        "PSR vs SIR, two adjacent-channel interferers (overlapping channels on both sides)",
        &fig8_sirs(scale),
        result,
    )
}

/// Figure 10: PSR vs guard band (16-QAM 1/2), SIR −10 / −20 / −30 dB, with and without
/// CPRecycle.
fn render_fig10(scale: &FigureScale, result: &CampaignResult) -> ExperimentResult {
    let series = psr_series(result, &fig10_guards(scale), |g, a, _| {
        with_without(&format!("SIR {} dB", ACI_SIRS[g]), a)
    });
    psr_figure(
        "Figure 10",
        "PSR vs guard band with an adjacent legacy transmitter (16-QAM 1/2)",
        GUARD_AXIS,
        series,
    )
}

/// Figure 11: PSR vs SIR with a single co-channel interferer.
fn render_fig11(scale: &FigureScale, result: &CampaignResult) -> ExperimentResult {
    psr_vs_sir(
        "Figure 11",
        "PSR vs SIR, single co-channel interferer",
        &fig11_sirs(scale),
        result,
    )
}

/// Figure 12: PSR vs SIR with two co-channel interferers.
fn render_fig12(scale: &FigureScale, result: &CampaignResult) -> ExperimentResult {
    psr_vs_sir(
        "Figure 12",
        "PSR vs SIR, two co-channel interferers",
        &fig11_sirs(scale),
        result,
    )
}

/// Figure 13: CDF of the number of interfering neighbors in the office building, with
/// and without CPRecycle, pooled over the campaign's building realizations (the
/// tallies' auxiliary sample streams carry the per-AP counts).
fn render_fig13(_scale: &FigureScale, result: &CampaignResult) -> ExperimentResult {
    let counts = counts_from_campaign(&result.points[0]);
    let cdf_series = |label: &str, curve: Vec<(f64, f64)>| {
        Series::new(
            label,
            curve.iter().map(|(x, _)| *x).collect(),
            curve.iter().map(|(_, y)| *y).collect(),
        )
    };
    ExperimentResult {
        id: "Figure 13".into(),
        description: "CDF of interfering neighbors per AP in a 5-floor, 40-AP office".into(),
        x_label: "Number of interfering neighbors".into(),
        y_label: "CDF".into(),
        series: vec![
            cdf_series("Standard receiver", counts.standard_cdf()),
            cdf_series("CPRecycle", counts.cprecycle_cdf()),
        ],
    }
}

/// Figure 14: PSR vs number of FFT segments (as % of the CP), ACI scenario, 16-QAM, for
/// SIR −10 / −20 / −30 dB.
fn render_fig14(scale: &FigureScale, result: &CampaignResult) -> ExperimentResult {
    let cp_len = params().cp_len as f64;
    let percent_of_cp: Vec<f64> = fig14_segment_counts(scale)
        .iter()
        .map(|p| 100.0 * *p as f64 / cp_len)
        .collect();
    let series = psr_series(result, &percent_of_cp, |g, _, _| {
        format!("SIR {} dB", ACI_SIRS[g])
    });
    psr_figure(
        "Figure 14",
        "PSR vs number of FFT segments (% of CP), ACI, 16-QAM 1/2",
        "Number of FFT segments (% of CP)",
        series,
    )
}

/// Decoder comparison: packet success rate of every decision stage — conventional
/// receiver, standard-window stage, naive Eq. 3, genie Oracle and the sphere ML
/// decoder — versus SIR under single-interferer ACI.
fn render_decoders(scale: &FigureScale, result: &CampaignResult) -> ExperimentResult {
    psr_figure(
        "Decoder comparison",
        "PSR vs SIR for every subcarrier-decision stage (QPSK 1/2, single ACI interferer)",
        SIR_AXIS,
        psr_series(result, &fig8_sirs(scale), |_, _, label| label.into()),
    )
}

/// Estimator-backend comparison: packet success rate of every interference-model
/// backend — exact KDE (reference), parametric Gaussian — plus the standard
/// receiver, versus SIR under single-interferer ACI at the Fig. 14 reproduction
/// operating point. The Gaussian arm exposes what the non-parametric density buys
/// over a two-moment fit.
fn render_models(scale: &FigureScale, result: &CampaignResult) -> ExperimentResult {
    psr_figure(
        "Estimator comparison",
        "PSR vs SIR for every interference-estimator backend (QPSK 1/2, single ACI interferer)",
        SIR_AXIS,
        psr_series(result, &models_sirs(scale), |_, _, label| label.into()),
    )
}

/// Ablation: sphere radius vs PSR (design choice of §4.2).
fn render_ablate_sphere(_scale: &FigureScale, result: &CampaignResult) -> ExperimentResult {
    psr_figure(
        "Ablation: sphere radius",
        "PSR vs fixed-sphere radius (64-QAM 2/3, ACI, SIR −10 dB)",
        "Sphere radius (multiples of min distance)",
        psr_series(result, &ABLATE_SPHERE_RADII, |_, _, _| "CPRecycle".into()),
    )
}

/// Ablation: product (amplitude, phase) kernel vs amplitude-only kernel.
fn render_ablate_kernel(scale: &FigureScale, result: &CampaignResult) -> ExperimentResult {
    let names = ["Product (amplitude, phase) kernel", "Amplitude-only kernel"];
    psr_figure(
        "Ablation: kernel",
        "Bivariate product kernel vs amplitude-only kernel (16-QAM, ACI)",
        SIR_AXIS,
        psr_series(result, &ablate_kernel_sirs(scale), |_, a, _| {
            names[a].into()
        }),
    )
}

/// Streaming-receiver comparison: per-frame (the mean recovered fraction) and
/// aggregate (all frames recovered) packet success rates versus SIR for every
/// stream arm.
fn render_fig_stream(scale: &FigureScale, result: &CampaignResult) -> ExperimentResult {
    let sirs = stream_sirs(scale);
    let mut series = Vec::new();
    for (a, arm) in result.points[0].arms.iter().enumerate() {
        series.push(Series::new(
            format!("{} — per-frame PSR", arm.label),
            sirs.clone(),
            result
                .points
                .iter()
                .map(|p| 100.0 * p.arms[a].metric_mean())
                .collect(),
        ));
        series.push(Series::new(
            format!("{} — all-frames PSR", arm.label),
            sirs.clone(),
            result
                .points
                .iter()
                .map(|p| p.arms[a].success_percent())
                .collect(),
        ));
    }
    psr_figure(
        "Streaming sessions",
        "Per-frame and aggregate PSR vs SIR for bursty traffic (3 frames/trial, \
         random gaps, single ACI interferer, over-the-air sync + SIGNAL decode)",
        SIR_AXIS,
        series,
    )
}

// ---------------------------------------------------------------------------
// Direct experiments
// ---------------------------------------------------------------------------

/// Table 1: cyclic-prefix size and duration across 802.11 standards.
fn table1(_scale: &FigureScale) -> Result<ExperimentResult> {
    let rows = cp_table();
    let x: Vec<f64> = rows.iter().map(|r| r.bandwidth_mhz).collect();
    Ok(ExperimentResult {
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
    })
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
fn fig4a(scale: &FigureScale) -> Result<ExperimentResult> {
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
fn fig4b(scale: &FigureScale) -> Result<ExperimentResult> {
    let mut series = Vec::new();
    for (i, sir) in ACI_SIRS.iter().enumerate() {
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
fn fig4c(scale: &FigureScale) -> Result<ExperimentResult> {
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

/// Figure 6a: kernel density estimates of one sample set at three bandwidths.
fn fig6a(_scale: &FigureScale) -> Result<ExperimentResult> {
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
    Ok(ExperimentResult {
        id: "Figure 6a".into(),
        description: "Kernel density estimation of a sample set with varying bandwidth".into(),
        x_label: "Sample value".into(),
        y_label: "Density".into(),
        series,
    })
}

/// Figure 6b: CDF of amplitude deviations observed in data symbols versus the CDF
/// predicted by the preamble-trained density, for SIR −10 / −20 / −30 dB.
fn fig6b(scale: &FigureScale) -> Result<ExperimentResult> {
    let mut series = Vec::new();
    for (i, sir) in ACI_SIRS.iter().enumerate() {
        let (engine, estimate, output, frame) =
            one_aci_capture(*sir, 1.25e6, scale.seed + 10 + i as u64)?;
        let params = engine.params().clone();
        let sym_len = params.symbol_len();

        // The model a default receiver trains from this frame's LTF, through the
        // receiver's own preamble framing.
        let receiver = CpRecycleReceiver::new(params.clone(), CpRecycleConfig::default());
        let num_segments = receiver.effective_segments();
        let mut scratch = SegmentScratch::new();
        let model = receiver.train_model(
            &output.received,
            preamble::ltf_start_offset(&params),
            &estimate,
            num_segments,
            &mut scratch,
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
                num_segments,
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

#[cfg(test)]
mod tests {
    use super::*;
    use cprecycle_engine::{load_campaign, save_campaign};
    use obs::InMemoryRecorder;

    fn smoke(name: &str) -> ExperimentResult {
        regenerate(name, &FigureScale::smoke()).unwrap()
    }

    #[test]
    fn table1_has_four_standards_and_five_series() {
        let t = smoke("table1");
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
        let r = smoke("fig4a");
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
        let r = smoke("fig4b");
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
        let r = smoke("fig4c");
        assert_eq!(r.series[0].x.len(), 5);
        assert_eq!(r.series[1].x.len(), 1);
    }

    #[test]
    fn fig6a_narrow_bandwidth_has_higher_peak() {
        let r = smoke("fig6a");
        let peak = |s: &Series| s.y.iter().cloned().fold(f64::MIN, f64::max);
        assert!(peak(&r.series[0]) > peak(&r.series[2]));
        assert_eq!(r.series.len(), 4);
    }

    #[test]
    fn fig6b_produces_paired_series_per_sir() {
        let r = smoke("fig6b");
        assert_eq!(r.series.len(), 6);
        for s in &r.series {
            assert!(!s.x.is_empty());
            // CDF values are within [0, 1].
            assert!(s.y.iter().all(|v| (0.0..=1.0).contains(v)));
        }
    }

    #[test]
    fn fig13_cprecycle_cdf_dominates_standard() {
        let r = smoke("fig13");
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
        let r = smoke("decoders");
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
        let r = smoke("models");
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
        assert_eq!(FIGURES.len(), 19);
        let mut campaigns = 0;
        for (i, entry) in FIGURES.iter().enumerate() {
            assert!(
                FIGURES[..i].iter().all(|other| other.name != entry.name),
                "{} registered twice",
                entry.name
            );
            let Experiment::Campaign { grid, .. } = &entry.experiment else {
                continue;
            };
            campaigns += 1;
            let points = grid.points(&scale);
            assert!(!points.is_empty(), "{}", entry.name);
            // Labels are set and payloads follow the scale.
            for point in &points {
                assert!(!point.label().is_empty());
                assert!(!point.arm_labels().is_empty());
            }
            let payloads: Vec<usize> = match grid {
                Grid::Link(grid) => grid(&scale).iter().map(|p| p.payload_len).collect(),
                Grid::Stream(grid) => grid(&scale).iter().map(|p| p.payload_len).collect(),
                Grid::Neighbors => Vec::new(),
            };
            assert!(
                payloads.iter().all(|p| *p == scale.payload_len),
                "{}",
                entry.name
            );
        }
        assert_eq!(campaigns, 13);
        assert!(matches!(
            figure("table1").map(|f| &f.experiment),
            Some(Experiment::Direct(_))
        ));
        assert!(figure("no-such-figure").is_none());
        assert!(regenerate("no-such-figure", &scale).is_err());
    }

    #[test]
    fn every_campaign_renders_from_its_checkpoint_and_resumes_without_recomputing() {
        let scale = FigureScale::smoke();
        for entry in FIGURES {
            let Experiment::Campaign { grid, render } = &entry.experiment else {
                continue;
            };
            let name = entry.name;
            let path = std::env::temp_dir().join(format!(
                "cprecycle-figures-test-{}-{name}.json",
                std::process::id()
            ));
            let sink = |snapshot: &CampaignResult| save_campaign(snapshot, &path).unwrap();
            let config = grid.config(name, &scale);
            let options = RunOptions {
                on_point_complete: Some(&sink),
                ..Default::default()
            };
            let result = grid.run(&config, &scale, &options).unwrap();
            let saved = load_campaign(&path).unwrap();
            std::fs::remove_file(&path).ok();
            assert_eq!(saved.name, name, "the campaign name is the registry name");
            assert_eq!(
                saved.deterministic_view(),
                result.deterministic_view(),
                "{name}: the last checkpoint holds every point"
            );
            assert_eq!(render(&scale, &saved), smoke(name), "{name}");

            // Resuming a complete checkpoint copies every point: no trial runs and no
            // point completes again.
            let recorder = InMemoryRecorder::default();
            let completions = std::sync::atomic::AtomicUsize::new(0);
            let count = |_: &CampaignResult| {
                completions.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            };
            let resumed = grid
                .run(
                    &config,
                    &scale,
                    &RunOptions {
                        resume_from: Some(&saved),
                        on_point_complete: Some(&count),
                        recorder: Some(&recorder),
                        ..Default::default()
                    },
                )
                .unwrap();
            assert_eq!(completions.into_inner(), 0, "{name}");
            assert_eq!(
                recorder.snapshot_now().counter("trials_completed"),
                0,
                "{name}"
            );
            assert_eq!(resumed.deterministic_view(), saved.deterministic_view());
        }
    }

    #[test]
    fn table_rendering_of_a_figure_result_is_nonempty() {
        let r = smoke("table1");
        let text = r.to_table();
        assert!(text.contains("Table 1"));
        assert!(!r.to_json().is_empty());
    }
}
