//! Configuration of the CPRecycle receiver.

use crate::interference_model::ModelBackend;
use crate::segments::SegmentExtraction;
use rfdsp::kde::BandwidthSelector;

/// Which decoder runs the subcarrier-decision stage (paper §3–§4): the receiver
/// pipeline — sync → extract → **decide** → bit pipeline — is identical for every
/// variant; only the per-bin rule that [`decide_symbol`] runs on every symbol changes.
///
/// Because the stage is part of [`CpRecycleConfig`], it flows into the campaign
/// engine's point keys: one campaign sweeps decoders alongside SNR and `P`, and
/// `campaign list`/`replay` print which decoder each arm ran.
///
/// ```
/// use cprecycle::{CpRecycleConfig, CpRecycleReceiver, DecisionStage};
/// use ofdmphy::params::OfdmParams;
///
/// // The default is the paper's fixed-sphere ML decoder at R = 2 minimum distances…
/// let sphere = CpRecycleConfig::default();
/// assert!(matches!(
///     sphere.decision,
///     DecisionStage::Sphere { radius_min_distances } if radius_min_distances == 2.0
/// ));
///
/// // …and any other stage is one builder call away: the same receiver, frame layout
/// // and bit pipeline, with the naive Eq. 3 decoder (or `Oracle`, or `Standard`)
/// // slotted into the decision stage.
/// let naive = CpRecycleConfig::builder()
///     .decision(DecisionStage::Naive)
///     .build();
/// let rx = CpRecycleReceiver::new(OfdmParams::ieee80211ag(), naive);
/// assert_eq!(rx.config().decision.label(), "Naive");
/// ```
///
/// [`decide_symbol`]: crate::decision::decide_symbol
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DecisionStage {
    /// Fixed-sphere ML over all `P` observations, scored by the preamble-trained
    /// interference model (§4.2, Eq. 5) — the paper's receiver and the default.
    Sphere {
        /// Sphere radius `R` in units of the constellation's minimum distance.
        radius_min_distances: f64,
    },
    /// Minimum average Euclidean distance over all `P` observations (§3.3, Eq. 3 —
    /// the ShiftFFT strawman).
    Naive,
    /// Genie-aided best-segment selection from the interference-only waveform (§3.2;
    /// [`crate::oracle::least_interfered`]). Requires the interference-only
    /// capture, passed as the `interference_only` argument of
    /// [`CpRecycleReceiver::decode_frame_session`].
    ///
    /// [`CpRecycleReceiver::decode_frame_session`]: crate::receiver::CpRecycleReceiver::decode_frame_session
    Oracle,
    /// Nearest lattice point on the standard FFT window only — the conventional
    /// receiver's decision, as an explicit arm for decoder sweeps.
    Standard,
}

impl Default for DecisionStage {
    fn default() -> Self {
        DecisionStage::Sphere {
            radius_min_distances: 2.0,
        }
    }
}

impl DecisionStage {
    /// Short human-readable name ("Sphere(R=2)", "Naive", …), used in campaign arm
    /// labels and reports.
    pub fn label(&self) -> String {
        match self {
            DecisionStage::Sphere {
                radius_min_distances,
            } => format!("Sphere(R={radius_min_distances})"),
            DecisionStage::Naive => "Naive".into(),
            DecisionStage::Oracle => "Oracle".into(),
            DecisionStage::Standard => "Standard".into(),
        }
    }

    /// Static stage-family name ("Sphere", "Naive", …) without the tuning
    /// parameters [`label`](Self::label) appends — the allocation-free key the
    /// observability layer uses for its stage spans.
    pub fn kind_label(&self) -> &'static str {
        match self {
            DecisionStage::Sphere { .. } => "Sphere",
            DecisionStage::Naive => "Naive",
            DecisionStage::Oracle => "Oracle",
            DecisionStage::Standard => "Standard",
        }
    }

    /// Whether this stage scores candidates with the preamble-trained interference
    /// model (and the receiver therefore needs to train one).
    pub fn needs_interference_model(&self) -> bool {
        matches!(self, DecisionStage::Sphere { .. })
    }

    /// Whether this stage needs the genie interference-only capture.
    pub fn needs_genie(&self) -> bool {
        matches!(self, DecisionStage::Oracle)
    }
}

/// Floating-point width of the sliding-DFT slide updates.
///
/// [`F64`](Self::F64) is the reference — the slide's scalar counterpart runs in
/// `f64`, and the vectorized `f64` path is pinned to it bit-for-bit (or ≤ 1e-9
/// where operation order changes). [`F32`](Self::F32) halves the memory traffic of
/// the slide and doubles its SIMD lane count; its error is bounded by property
/// tests (per-bin spectra within `1e-3`) and a whole-frame decision-equivalence
/// test at the Fig. 14 operating point. Precision affects only the slide —
/// seeding FFTs, model fitting and every density query stay `f64` under either
/// setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelPrecision {
    /// Full-width kernels — the reference and the default.
    #[default]
    F64,
    /// Half-width sliding-DFT slides.
    F32,
}

impl KernelPrecision {
    /// Short name used in campaign arm labels and reports.
    pub fn label(&self) -> &'static str {
        match self {
            KernelPrecision::F64 => "F64",
            KernelPrecision::F32 => "F32",
        }
    }
}

/// Tuning knobs of the CPRecycle receiver (the paper's `B_a`, `B_φ`, `R` and `P`
/// parameters from Algorithm 1, plus the bandwidth-selection strategy of §4.1).
///
/// The struct is `#[non_exhaustive]`: fields keep being added as the receiver grows
/// (the extraction kernel in PR 2, the decision stage in PR 3, the estimator backend
/// in PR 4), and every addition used to break every external struct-literal
/// construction site. Downstream crates construct configurations through
/// [`CpRecycleConfig::builder`] (or the `with_*` one-field conveniences), which stay
/// source-compatible across field additions:
///
/// ```
/// use cprecycle::{CpRecycleConfig, DecisionStage};
///
/// let config = CpRecycleConfig::builder()
///     .num_segments(8)
///     .decision(DecisionStage::Naive)
///     .build();
/// assert_eq!(config.num_segments, 8);
/// assert_eq!(config.decision, DecisionStage::Naive);
/// // Untouched knobs keep their defaults.
/// assert_eq!(config.model, CpRecycleConfig::default().model);
/// ```
#[derive(Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct CpRecycleConfig {
    /// Maximum number of FFT segments `P` to use per symbol. The effective number is
    /// `min(num_segments, ISI-free samples + 1)`; tuning this down trades interference
    /// mitigation for computation (paper Fig. 14) and `1` degrades gracefully to the
    /// standard receiver.
    pub num_segments: usize,
    /// Amplitude-axis kernel bandwidth `B_a`. `None` selects it from the preamble data
    /// (Silverman / leave-one-out, depending on `data_driven_bandwidth`).
    pub bandwidth_amplitude: Option<f64>,
    /// Phase-axis kernel bandwidth `B_φ`. `None` selects it from the preamble data.
    pub bandwidth_phase: Option<f64>,
    /// Use the data-driven (leave-one-out) bandwidth selection the paper recommends when
    /// at least two preambles are available; otherwise Silverman's rule is used.
    pub data_driven_bandwidth: bool,
    /// The subcarrier-decision stage the receiver dispatches per symbol: the paper's
    /// fixed-sphere ML decoder (with its radius `R`), the naive Eq. 3 decoder, the
    /// genie-aided Oracle or the conventional standard-window decision.
    pub decision: DecisionStage,
    /// Assumed ISI-free samples in the CP when the receiver is told rather than
    /// detecting it (e.g. from a long-term delay-spread estimate). `None` means "use the
    /// whole CP", the correct choice for the indoor delay spreads the paper targets.
    pub isi_free_samples: Option<usize>,
    /// Lower bound on the amplitude-axis kernel bandwidth. Protects the model against
    /// degenerate densities when the preamble happens to be almost interference-free
    /// (all deviations ≈ 0): without a floor the KDE collapses to a spike and every
    /// data-symbol likelihood underflows. Expressed in units of the unit-power
    /// constellation scale.
    pub min_bandwidth_amplitude: f64,
    /// Lower bound on the phase-axis kernel bandwidth, in radians (see
    /// `min_bandwidth_amplitude` for the rationale; the phase of a near-zero error
    /// vector is numerically meaningless, so an un-floored phase bandwidth is even more
    /// fragile).
    pub min_bandwidth_phase: f64,
    /// Which kernel extracts the per-symbol FFT segments: the `O(F)`-per-segment
    /// sliding DFT (default) or the direct per-segment FFT reference implementation.
    /// The two agree to ≤ 1e-9 (property-tested); the switch exists for validation and
    /// A/B timing.
    pub extraction: SegmentExtraction,
    /// Which density family the receiver fits to each bin from the preamble
    /// ([`BinDensity`](crate::interference_model::BinDensity)): the paper's exact
    /// per-sample kernel sum (default, the reference) or the cheap parametric
    /// Gaussian fit. Like the decision stage, the backend is part of every
    /// campaign point key, so estimator sweeps are ordinary grid dimensions.
    pub model: ModelBackend,
    /// Floating-point width of the sliding-DFT slides, the only kernels it
    /// selects. [`KernelPrecision::F64`] is the reference and the default;
    /// [`KernelPrecision::F32`] trades ≤ 1e-3 per-bin spectrum error for roughly
    /// double the SIMD throughput on the slide.
    pub precision: KernelPrecision,
}

// Hand-written so the default `precision: F64` is *omitted*: campaign point keys
// embed this Debug representation (`scenarios::LinkPoint::key`), and the derived
// form would silently re-key — and re-seed — every existing F64 campaign the
// moment the field was added. Only a non-default `F32` shows up, as a new key
// dimension should. Keep the field order in sync with the struct.
impl std::fmt::Debug for CpRecycleConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("CpRecycleConfig");
        s.field("num_segments", &self.num_segments)
            .field("bandwidth_amplitude", &self.bandwidth_amplitude)
            .field("bandwidth_phase", &self.bandwidth_phase)
            .field("data_driven_bandwidth", &self.data_driven_bandwidth)
            .field("decision", &self.decision)
            .field("isi_free_samples", &self.isi_free_samples)
            .field("min_bandwidth_amplitude", &self.min_bandwidth_amplitude)
            .field("min_bandwidth_phase", &self.min_bandwidth_phase)
            .field("extraction", &self.extraction)
            .field("model", &self.model);
        if self.precision != KernelPrecision::F64 {
            s.field("precision", &self.precision);
        }
        s.finish()
    }
}

impl Default for CpRecycleConfig {
    fn default() -> Self {
        CpRecycleConfig {
            num_segments: 16,
            bandwidth_amplitude: None,
            bandwidth_phase: None,
            data_driven_bandwidth: true,
            decision: DecisionStage::default(),
            isi_free_samples: None,
            min_bandwidth_amplitude: 0.05,
            min_bandwidth_phase: 0.2,
            extraction: SegmentExtraction::default(),
            model: ModelBackend::default(),
            precision: KernelPrecision::default(),
        }
    }
}

impl CpRecycleConfig {
    /// A builder starting from the default configuration — the construction path for
    /// code outside this crate (the struct is `#[non_exhaustive]`, so struct literals
    /// don't compose across field additions).
    pub fn builder() -> CpRecycleConfigBuilder {
        CpRecycleConfigBuilder::new()
    }

    /// A configuration with a fixed number of segments (used by the Fig. 14 sweep).
    pub fn with_segments(num_segments: usize) -> Self {
        CpRecycleConfig {
            num_segments,
            ..Default::default()
        }
    }

    /// A configuration with an explicit decision stage (used by the decoder sweeps).
    pub fn with_decision(decision: DecisionStage) -> Self {
        CpRecycleConfig {
            decision,
            ..Default::default()
        }
    }

    /// A configuration with an explicit interference-estimator backend (used by the
    /// `models` campaign sweep).
    pub fn with_model(model: ModelBackend) -> Self {
        CpRecycleConfig {
            model,
            ..Default::default()
        }
    }

    /// The bandwidth-selection strategy implied by this configuration for one axis.
    pub fn bandwidth_selector(&self, fixed: Option<f64>) -> BandwidthSelector {
        match fixed {
            Some(b) => BandwidthSelector::Fixed(b),
            None if self.data_driven_bandwidth => BandwidthSelector::LeaveOneOut,
            None => BandwidthSelector::Silverman,
        }
    }
}

/// Builder for [`CpRecycleConfig`]: each method overrides one knob, everything else
/// keeps its default. Unlike struct literals with functional update, the builder keeps
/// compiling (and keeps meaning the same thing) when new fields are added to the
/// config — see the PR 3/PR 4 churn the `#[non_exhaustive]` note on the struct
/// describes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CpRecycleConfigBuilder {
    config: CpRecycleConfig,
}

impl CpRecycleConfigBuilder {
    /// A builder holding the default configuration.
    pub fn new() -> Self {
        CpRecycleConfigBuilder::default()
    }

    /// Sets the maximum number of FFT segments `P`.
    pub fn num_segments(mut self, num_segments: usize) -> Self {
        self.config.num_segments = num_segments;
        self
    }

    /// Fixes the amplitude-axis kernel bandwidth `B_a` (`None` = select from data).
    pub fn bandwidth_amplitude(mut self, bandwidth: Option<f64>) -> Self {
        self.config.bandwidth_amplitude = bandwidth;
        self
    }

    /// Fixes the phase-axis kernel bandwidth `B_φ` (`None` = select from data).
    pub fn bandwidth_phase(mut self, bandwidth: Option<f64>) -> Self {
        self.config.bandwidth_phase = bandwidth;
        self
    }

    /// Enables/disables data-driven (leave-one-out) bandwidth selection.
    pub fn data_driven_bandwidth(mut self, data_driven: bool) -> Self {
        self.config.data_driven_bandwidth = data_driven;
        self
    }

    /// Sets the subcarrier-decision stage.
    pub fn decision(mut self, decision: DecisionStage) -> Self {
        self.config.decision = decision;
        self
    }

    /// Tells the receiver how many ISI-free CP samples to assume (`None` = whole CP).
    pub fn isi_free_samples(mut self, isi_free_samples: Option<usize>) -> Self {
        self.config.isi_free_samples = isi_free_samples;
        self
    }

    /// Sets the amplitude-axis bandwidth floor.
    pub fn min_bandwidth_amplitude(mut self, floor: f64) -> Self {
        self.config.min_bandwidth_amplitude = floor;
        self
    }

    /// Sets the phase-axis bandwidth floor (radians).
    pub fn min_bandwidth_phase(mut self, floor: f64) -> Self {
        self.config.min_bandwidth_phase = floor;
        self
    }

    /// Selects the segment-extraction kernel.
    pub fn extraction(mut self, extraction: SegmentExtraction) -> Self {
        self.config.extraction = extraction;
        self
    }

    /// Selects the interference-estimator backend.
    pub fn model(mut self, model: ModelBackend) -> Self {
        self.config.model = model;
        self
    }

    /// Selects the floating-point width of the vectorized inner kernels.
    pub fn precision(mut self, precision: KernelPrecision) -> Self {
        self.config.precision = precision;
        self
    }

    /// Finishes the build.
    pub fn build(self) -> CpRecycleConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_uses_whole_cp_and_data_driven_bandwidths() {
        let c = CpRecycleConfig::default();
        assert_eq!(c.num_segments, 16);
        assert_eq!(c.extraction, SegmentExtraction::Sliding);
        assert!(c.data_driven_bandwidth);
        assert!(c.isi_free_samples.is_none());
        assert_eq!(c.bandwidth_selector(None), BandwidthSelector::LeaveOneOut);
        assert_eq!(
            c.bandwidth_selector(Some(0.3)),
            BandwidthSelector::Fixed(0.3)
        );
    }

    #[test]
    fn with_segments_overrides_only_p() {
        let c = CpRecycleConfig::with_segments(4);
        assert_eq!(c.num_segments, 4);
        assert_eq!(c.decision, CpRecycleConfig::default().decision);
    }

    #[test]
    fn with_decision_overrides_only_the_stage() {
        let c = CpRecycleConfig::with_decision(DecisionStage::Oracle);
        assert_eq!(c.decision, DecisionStage::Oracle);
        assert_eq!(c.num_segments, CpRecycleConfig::default().num_segments);
    }

    #[test]
    fn with_model_overrides_only_the_backend() {
        assert_eq!(CpRecycleConfig::default().model, ModelBackend::ExactKde);
        let c = CpRecycleConfig::with_model(ModelBackend::Gaussian);
        assert_eq!(c.model, ModelBackend::Gaussian);
        assert_eq!(c.decision, CpRecycleConfig::default().decision);
        assert_eq!(c.num_segments, CpRecycleConfig::default().num_segments);
    }

    #[test]
    fn decision_stage_labels_and_requirements() {
        assert_eq!(DecisionStage::default().label(), "Sphere(R=2)");
        assert_eq!(
            DecisionStage::Sphere {
                radius_min_distances: 0.5
            }
            .label(),
            "Sphere(R=0.5)"
        );
        assert_eq!(DecisionStage::Naive.label(), "Naive");
        assert_eq!(DecisionStage::Oracle.label(), "Oracle");
        assert_eq!(DecisionStage::Standard.label(), "Standard");
        assert_eq!(DecisionStage::default().kind_label(), "Sphere");
        assert_eq!(DecisionStage::Naive.kind_label(), "Naive");
        assert_eq!(DecisionStage::Oracle.kind_label(), "Oracle");
        assert_eq!(DecisionStage::Standard.kind_label(), "Standard");
        assert!(DecisionStage::default().needs_interference_model());
        assert!(!DecisionStage::Naive.needs_interference_model());
        assert!(DecisionStage::Oracle.needs_genie());
        assert!(!DecisionStage::Standard.needs_genie());
    }

    #[test]
    fn builder_overrides_compose_and_default_to_default() {
        assert_eq!(
            CpRecycleConfig::builder().build(),
            CpRecycleConfig::default()
        );
        let c = CpRecycleConfig::builder()
            .num_segments(4)
            .bandwidth_amplitude(Some(0.3))
            .bandwidth_phase(Some(0.7))
            .data_driven_bandwidth(false)
            .decision(DecisionStage::Oracle)
            .isi_free_samples(Some(9))
            .min_bandwidth_amplitude(0.01)
            .min_bandwidth_phase(0.02)
            .extraction(SegmentExtraction::Direct)
            .model(ModelBackend::Gaussian)
            .build();
        assert_eq!(c.num_segments, 4);
        assert_eq!(c.bandwidth_amplitude, Some(0.3));
        assert_eq!(c.bandwidth_phase, Some(0.7));
        assert!(!c.data_driven_bandwidth);
        assert_eq!(c.decision, DecisionStage::Oracle);
        assert_eq!(c.isi_free_samples, Some(9));
        assert_eq!(c.min_bandwidth_amplitude, 0.01);
        assert_eq!(c.min_bandwidth_phase, 0.02);
        assert_eq!(c.extraction, SegmentExtraction::Direct);
        assert_eq!(c.model, ModelBackend::Gaussian);
        // The builder agrees with the one-field conveniences.
        assert_eq!(
            CpRecycleConfig::builder().num_segments(7).build(),
            CpRecycleConfig::with_segments(7)
        );
        assert_eq!(
            CpRecycleConfig::builder()
                .decision(DecisionStage::Naive)
                .build(),
            CpRecycleConfig::with_decision(DecisionStage::Naive)
        );
    }

    #[test]
    fn precision_defaults_to_f64_and_stays_out_of_the_default_key() {
        let c = CpRecycleConfig::default();
        assert_eq!(c.precision, KernelPrecision::F64);
        assert_eq!(KernelPrecision::F64.label(), "F64");
        assert_eq!(KernelPrecision::F32.label(), "F32");
        // The Debug form — embedded in campaign point keys — must not change for
        // F64 configs when the precision field is at its default…
        let key = format!("{c:?}");
        assert!(
            !key.contains("precision"),
            "default key must omit precision: {key}"
        );
        assert!(key.starts_with("CpRecycleConfig {"));
        assert!(key.contains("model: ExactKde"));
        // …and an explicit F32 must show up as a new key dimension.
        let f32_cfg = CpRecycleConfig::builder()
            .precision(KernelPrecision::F32)
            .build();
        assert!(format!("{f32_cfg:?}").contains("precision: F32"));
        assert_eq!(
            CpRecycleConfig::builder()
                .precision(KernelPrecision::F64)
                .build(),
            CpRecycleConfig::default()
        );
    }

    #[test]
    fn silverman_when_data_driven_disabled() {
        let c = CpRecycleConfig {
            data_driven_bandwidth: false,
            ..Default::default()
        };
        assert_eq!(c.bandwidth_selector(None), BandwidthSelector::Silverman);
    }
}
