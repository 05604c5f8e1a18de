//! The per-subcarrier interference model (paper §4.1, Eq. 4).
//!
//! During the known preamble symbols the receiver observes, for every subcarrier `f`
//! and every ISI-free FFT segment `j`, the deviation of the equalised observation from
//! the known transmitted value:
//!
//! ```text
//! R_A^j[f] = A(X̂_s^j[f] − X_s[f])      (amplitude of the error vector)
//! R_φ^j[f] = Φ(X̂_s^j[f] − X_s[f])      (phase of the error vector)
//! ```
//!
//! Pooling those samples over segments and preamble symbols, a bivariate Gaussian
//! *product* kernel density estimate models the joint (amplitude, phase) deviation per
//! subcarrier. Because the deviations are expressed *relative to* the transmitted
//! lattice point, the model learnt on BPSK preamble symbols transfers to any data
//! modulation (the paper's "facilitate this" paragraph), and because the model is
//! per-subcarrier it adapts to the frequency-selective structure of adjacent-channel
//! interference.
//!
//! [`CpRecycleConfig::model`] picks the density family each bin is fitted with
//! ([`BinDensity`]): the exact Eq. 4 kernel sum (the reference) or a parametric
//! bivariate Gaussian (related work replaces the density model wholesale; this is
//! the smallest such replacement). The sphere decoder asks the model for batches of
//! log-likelihoods, per-query upper bounds and a lower bound on a slice's sum.

use crate::config::CpRecycleConfig;
use crate::segments::SymbolSegments;
use crate::Result;
use ofdmphy::ofdm::OfdmEngine;
use ofdmphy::PhyError;
use rfdsp::kde::{select_bandwidth_scratch, ProductKde2d};
use rfdsp::stats::BivariateGaussian;
use rfdsp::Complex;

/// Amplitude/phase deviation of an observation from a reference lattice point
/// (the paper's `A(·)` and `Φ(·)` of the error vector).
///
/// The phase of a numerically-zero error vector (amplitude below `1e-9` on the
/// unit-power constellation scale) is pure floating-point noise, so it is pinned
/// to `0` — otherwise a clean-channel model would train on rounding garbage and
/// its decisions would depend on which extraction kernel produced the rounding.
///
/// The polar conversion is [`rfdsp::lanes::polar`] (`sqrt` and a polynomial
/// `atan2`). The sphere decoder splits the same per-element formulas in two —
/// [`deviation_amplitude`] for every query, [`deviation_phases`] only for the
/// queries it ends up needing phases of — so training and scoring deviations
/// agree bit for bit.
#[inline]
pub fn deviation(observed: Complex, reference: Complex) -> (f64, f64) {
    let err = observed - reference;
    let (amplitude, phase) = rfdsp::lanes::polar(err.re, err.im);
    if amplitude < ZERO_DEVIATION {
        (amplitude, 0.0)
    } else {
        (amplitude, phase)
    }
}

/// Error-vector amplitude below which [`deviation`] pins the phase to `0`.
const ZERO_DEVIATION: f64 = 1e-9;

/// [`deviation`]'s amplitude of the error vector `re + i·im`: the magnitude half
/// of [`rfdsp::lanes::polar`], the same expression, so bit-identical.
#[inline(always)]
pub fn deviation_amplitude(re: f64, im: f64) -> f64 {
    (re * re + im * im).sqrt()
}

/// [`deviation`]'s phases over whole planes: on entry `phase` holds the error
/// vectors' imaginary parts, `re` their real parts and `amp` their
/// [`deviation_amplitude`]s; on return `phase` holds their phases, converted
/// lane-parallel by [`rfdsp::simd::atan2_planes`] and pinned exactly as
/// [`deviation`] pins, bit-identical to per-element calls.
///
/// # Panics
///
/// Panics if the planes have different lengths.
pub fn deviation_phases(re: &[f64], amp: &[f64], phase: &mut [f64]) {
    assert_eq!(amp.len(), phase.len(), "deviation planes must match");
    rfdsp::simd::atan2_planes(phase, re);
    for (a, p) in amp.iter().zip(phase.iter_mut()) {
        if *a < ZERO_DEVIATION {
            *p = 0.0;
        }
    }
}

/// Which density family the receiver fits to each bin's deviation samples — a
/// field of [`CpRecycleConfig`], so campaigns sweep it alongside SNR, `P` and the
/// decision stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ModelBackend {
    /// The paper's exact per-sample kernel sum (Eq. 4) — the reference backend and
    /// the default.
    #[default]
    ExactKde,
    /// Parametric per-bin bivariate Gaussian fit.
    Gaussian,
}

impl ModelBackend {
    /// Short name used in campaign arm labels and reports.
    pub fn label(&self) -> &'static str {
        match self {
            ModelBackend::ExactKde => "ExactKde",
            ModelBackend::Gaussian => "Gaussian",
        }
    }
}

/// The fitted density of one FFT bin, of the family [`CpRecycleConfig::model`]
/// selects.
///
/// Contract shared by every variant (pinned by the `estimator_equivalence`
/// property tests):
///
/// * answers are finite and strictly ordered in the far tail, so distant lattice
///   candidates never tie;
/// * [`log_eval_batch`](Self::log_eval_batch) agrees with
///   [`log_eval`](Self::log_eval) to ≤ 1e-9 per query (bit for bit for
///   `Gaussian`), and each answer depends only on its own query, never on how
///   queries are batched;
/// * every batch answer is ≤ its [`upper_bounds`](Self::upper_bounds) entry,
///   which is ≤ its [`amplitude_upper_bounds`](Self::amplitude_upper_bounds)
///   entry, which is ≤ [`ceiling`](Self::ceiling), rounding included — the
///   sphere decoder prunes and certifies against them;
/// * the in-order sum of a query slice's batch answers is ≥
///   [`sum_lower_bound`](Self::sum_lower_bound), which is ≥
///   [`one_sample_sum_lower_bound`](Self::one_sample_sum_lower_bound), and a
///   finite lower bound means every answer is finite;
/// * queries are allocation-free, and the plane queries panic on mismatched
///   lengths.
#[derive(Debug, Clone)]
pub enum BinDensity {
    /// The exact Eq. 4 kernel sum, `O(P·N_p)` per query.
    Exact(ProductKde2d),
    /// A bivariate Gaussian: far cheaper to fit and query than any KDE, but blind
    /// to the multi-modal deviation structure bursty interference produces.
    Gaussian(BivariateGaussian),
}

impl BinDensity {
    /// Fits a density of `config.model`'s family to one bin's deviation samples.
    /// The KDE selects per-axis bandwidths with the configured selector (or takes
    /// the fixed ones), floored at `min_bandwidth_*`; the Gaussian floors its
    /// standard deviations at the same values.
    pub fn fit(amplitudes: &[f64], phases: &[f64], config: &CpRecycleConfig) -> Result<Self> {
        let mut density = None;
        Self::refit(&mut density, amplitudes, phases, config, &mut Vec::new())?;
        Ok(density.expect("refit fills the slot"))
    }

    /// [`fit`](Self::fit) into `slot` with a caller-owned bandwidth scratch. An
    /// exact KDE already in the slot is refit in place, reusing its sample
    /// buffers, so a refit allocates only when the bin's sample count outgrows
    /// them.
    fn refit(
        slot: &mut Option<Self>,
        amplitudes: &[f64],
        phases: &[f64],
        config: &CpRecycleConfig,
        scratch: &mut Vec<f64>,
    ) -> Result<()> {
        let (min_a, min_p) = (config.min_bandwidth_amplitude, config.min_bandwidth_phase);
        match config.model {
            ModelBackend::ExactKde => {
                let selector_a = config.bandwidth_selector(config.bandwidth_amplitude);
                let selector_p = config.bandwidth_selector(config.bandwidth_phase);
                let ba = select_bandwidth_scratch(amplitudes, selector_a, scratch)?.max(min_a);
                let bp = select_bandwidth_scratch(phases, selector_p, scratch)?.max(min_p);
                match slot {
                    Some(BinDensity::Exact(kde)) => kde.refit_axes(amplitudes, phases, ba, bp)?,
                    slot => {
                        *slot = Some(BinDensity::Exact(ProductKde2d::from_axes(
                            amplitudes, phases, ba, bp,
                        )?))
                    }
                }
            }
            ModelBackend::Gaussian => {
                *slot = Some(BinDensity::Gaussian(BivariateGaussian::fit(
                    amplitudes, phases, min_a, min_p,
                )?))
            }
        }
        Ok(())
    }

    /// Log-likelihood of one (amplitude, phase) deviation — [`deviation`]'s
    /// convention — under this density.
    pub fn log_eval(&self, amplitude: f64, phase: f64) -> f64 {
        match self {
            BinDensity::Exact(kde) => kde.log_eval(amplitude, phase),
            BinDensity::Gaussian(g) => g.log_pdf(amplitude, phase),
        }
    }

    /// Scores a whole plane of deviations, writing `out[i]` for query
    /// `(amplitudes[i], phases[i])`. The exact KDE runs its lane-parallel kernel.
    ///
    /// # Panics
    ///
    /// Panics if the query planes or the output have mismatched lengths.
    pub fn log_eval_batch(&self, amplitudes: &[f64], phases: &[f64], out: &mut [f64]) {
        check_planes(amplitudes, phases, Some(out));
        match self {
            BinDensity::Exact(kde) => kde.log_eval_batch(amplitudes, phases, out),
            BinDensity::Gaussian(g) => {
                for ((a, p), o) in amplitudes.iter().zip(phases).zip(out.iter_mut()) {
                    *o = g.log_pdf(*a, *p);
                }
            }
        }
    }

    /// An upper bound on every batch answer (NaN answers to NaN queries aside).
    pub fn ceiling(&self) -> f64 {
        match self {
            BinDensity::Exact(kde) => kde.log_eval_ceiling(),
            BinDensity::Gaussian(g) => g.log_pdf_ceiling(),
        }
    }

    /// Writes, for each query, an upper bound on its batch answer, at most the
    /// [`ceiling`](Self::ceiling): the exact KDE bounds by the distance to its
    /// whitened sample box, the Gaussian by its ceiling.
    ///
    /// # Panics
    ///
    /// Panics if the query planes or the output have mismatched lengths.
    pub fn upper_bounds(&self, amplitudes: &[f64], phases: &[f64], bounds: &mut [f64]) {
        check_planes(amplitudes, phases, Some(bounds));
        match self {
            BinDensity::Exact(kde) => kde.log_eval_upper_bounds(amplitudes, phases, bounds),
            BinDensity::Gaussian(_) => bounds.fill(self.ceiling()),
        }
    }

    /// Writes, for each query amplitude, an upper bound on the batch answer of
    /// any query with that amplitude and a finite phase: at least the query's
    /// [`upper_bounds`](Self::upper_bounds) entry and at most the
    /// [`ceiling`](Self::ceiling). The exact KDE bounds by the amplitude's
    /// distance to its whitened sample box's amplitude interval, the Gaussian by
    /// its ceiling.
    ///
    /// # Panics
    ///
    /// Panics if `amplitudes` and `bounds` have different lengths.
    pub fn amplitude_upper_bounds(&self, amplitudes: &[f64], bounds: &mut [f64]) {
        check_planes(amplitudes, amplitudes, Some(bounds));
        match self {
            BinDensity::Exact(kde) => kde.log_eval_amplitude_upper_bounds(amplitudes, bounds),
            BinDensity::Gaussian(_) => bounds.fill(self.ceiling()),
        }
    }

    /// A cheaper lower bound than [`sum_lower_bound`](Self::sum_lower_bound),
    /// never above it: the exact KDE keeps one sample (the first query's
    /// nearest, in the kernel's whitened metric) for every query. `−∞` for the
    /// Gaussian.
    ///
    /// # Panics
    ///
    /// Panics if the query planes have different lengths.
    pub fn one_sample_sum_lower_bound(&self, amplitudes: &[f64], phases: &[f64]) -> f64 {
        check_planes(amplitudes, phases, None);
        match self {
            BinDensity::Exact(kde) => kde.log_eval_sum_lower_bound_one_sample(amplitudes, phases),
            BinDensity::Gaussian(_) => f64::NEG_INFINITY,
        }
    }

    /// A lower bound on the in-order sum of a query slice's batch answers; `−∞`
    /// means "cannot certify", which is all the Gaussian offers.
    ///
    /// # Panics
    ///
    /// Panics if the query planes have different lengths.
    pub fn sum_lower_bound(&self, amplitudes: &[f64], phases: &[f64]) -> f64 {
        check_planes(amplitudes, phases, None);
        match self {
            BinDensity::Exact(kde) => kde.log_eval_sum_lower_bound(amplitudes, phases),
            BinDensity::Gaussian(_) => f64::NEG_INFINITY,
        }
    }
}

/// Log-likelihood of a deviation on a bin with no fitted density (e.g. a bin that
/// carried nothing during the preamble): a Gaussian-like penalty on the deviation
/// amplitude, so the ML decoder always has a usable metric. It never exceeds
/// [`FALLBACK_CEILING`].
#[inline]
fn fallback_log_likelihood(amplitude: f64) -> f64 {
    -0.5 * amplitude * amplitude
}

/// The ceiling of [`fallback_log_likelihood`], and so the upper bound of every
/// unfitted-bin query.
const FALLBACK_CEILING: f64 = 0.0;

/// Panics unless the query planes, and the output if there is one, have equal
/// lengths.
fn check_planes(amplitudes: &[f64], phases: &[f64], out: Option<&[f64]>) {
    assert_eq!(
        amplitudes.len(),
        phases.len(),
        "query planes must have equal lengths"
    );
    if let Some(out) = out {
        assert_eq!(
            amplitudes.len(),
            out.len(),
            "output must match the query count"
        );
    }
}

/// The (amplitude, phase) deviation samples of one FFT bin, stored as two parallel
/// axis vectors so bandwidth selection and the parametric fit read each axis as a
/// slice without collecting temporaries.
#[derive(Debug, Clone, Default)]
struct BinSamples {
    amp: Vec<f64>,
    phase: Vec<f64>,
}

impl BinSamples {
    fn push(&mut self, amplitude: f64, phase: f64) {
        self.amp.push(amplitude);
        self.phase.push(phase);
    }
}

/// A trained per-subcarrier interference model: one optional [`BinDensity`] per
/// FFT bin, of the family [`CpRecycleConfig::model`] selects, fitted to the
/// deviation samples the model collects from the preamble symbols. Bins without a
/// density answer with a Gaussian-like distance penalty on the deviation
/// amplitude.
#[derive(Debug, Clone)]
pub struct InterferenceModel {
    /// The fitted density of each bin; `None` until the bin receives samples.
    densities: Vec<Option<BinDensity>>,
    /// Raw deviation samples per bin, kept so the model can be updated when further
    /// preambles arrive and so diagnostics (paper Fig. 6b) can compare samples against
    /// the fitted density.
    samples: Vec<BinSamples>,
    /// Which bins received samples since the last refit (flags + the dense list
    /// the refit walks).
    dirty: Vec<bool>,
    dirty_bins: Vec<usize>,
    /// Bandwidth-selection sort scratch, reused across bins and refits.
    scratch: Vec<f64>,
    config: CpRecycleConfig,
    /// Number of preamble symbols absorbed so far (`N_p`).
    num_preambles: usize,
}

impl InterferenceModel {
    /// Creates an empty (untrained) model for an FFT of `fft_size` bins.
    pub fn new(fft_size: usize, config: CpRecycleConfig) -> Self {
        InterferenceModel {
            densities: vec![None; fft_size],
            samples: vec![BinSamples::default(); fft_size],
            dirty: vec![false; fft_size],
            dirty_bins: Vec::new(),
            scratch: Vec::new(),
            config,
            num_preambles: 0,
        }
    }

    /// Trains a model from the segments of one or more known preamble symbols.
    ///
    /// * `preamble_segments` — the extracted segments of each preamble symbol.
    /// * `references` — the known transmitted frequency-domain values of each preamble
    ///   symbol (same FFT-bin indexing as the segments).
    pub fn train(
        engine: &OfdmEngine,
        preamble_segments: &[SymbolSegments],
        references: &[Vec<Complex>],
        config: CpRecycleConfig,
    ) -> Result<Self> {
        if preamble_segments.len() != references.len() {
            return Err(PhyError::LengthMismatch {
                expected: preamble_segments.len(),
                actual: references.len(),
            });
        }
        if preamble_segments.is_empty() {
            return Err(PhyError::invalid(
                "preamble_segments",
                "at least one preamble symbol is required",
            ));
        }
        let mut model = InterferenceModel::new(engine.params().fft_size, config);
        for (segments, reference) in preamble_segments.iter().zip(references) {
            model.absorb_preamble(engine, segments, reference)?;
        }
        model.refit_dirty()?;
        Ok(model)
    }

    /// Adds the deviation samples of one more known preamble (or pilot-bearing) symbol
    /// and refits the per-subcarrier densities — the "constantly updated when subsequent
    /// preambles are received" behaviour of §4.3.
    ///
    /// The refit is **incremental**: only the bins that actually received samples from
    /// this preamble (the dirty bins) are refitted; every other bin's density is left
    /// untouched. Because a refit always uses a bin's full sample set, the result is
    /// identical to batch-training on all preambles (property-tested in
    /// `estimator_equivalence`).
    pub fn update(
        &mut self,
        engine: &OfdmEngine,
        segments: &SymbolSegments,
        reference: &[Complex],
    ) -> Result<()> {
        self.absorb_preamble(engine, segments, reference)?;
        self.refit_dirty()
    }

    /// [`update`](Self::update) for several preamble symbols at once (all sharing one
    /// reference): absorbs every segment set, then refits the dirty bins **once**.
    /// The streaming receiver's rolling persistence feeds both LTF symbols of each
    /// frame through this — two separate `update` calls would re-fit the same dirty
    /// bins twice for an identical result (a refit always uses a bin's full sample
    /// set, so batching changes cost, not output).
    pub fn update_preambles(
        &mut self,
        engine: &OfdmEngine,
        preamble_segments: &[SymbolSegments],
        reference: &[Complex],
    ) -> Result<()> {
        for segments in preamble_segments {
            self.absorb_preamble(engine, segments, reference)?;
        }
        self.refit_dirty()
    }

    fn absorb_preamble(
        &mut self,
        engine: &OfdmEngine,
        segments: &SymbolSegments,
        reference: &[Complex],
    ) -> Result<()> {
        let fft_size = engine.params().fft_size;
        if reference.len() != fft_size {
            return Err(PhyError::LengthMismatch {
                expected: fft_size,
                actual: reference.len(),
            });
        }
        for bin in engine.params().occupied_bins() {
            if reference[bin].norm_sqr() == 0.0 {
                continue;
            }
            // Bin-major storage makes this the contiguous, allocation-free access
            // pattern: all `P` observations of one bin in a single slice.
            for obs in segments.bin_observations(bin) {
                let (a, p) = deviation(*obs, reference[bin]);
                self.samples[bin].push(a, p);
            }
            if !self.dirty[bin] {
                self.dirty[bin] = true;
                self.dirty_bins.push(bin);
            }
        }
        self.num_preambles += 1;
        Ok(())
    }

    /// Refits exactly the bins that received samples since the last refit, then
    /// clears the dirty set.
    fn refit_dirty(&mut self) -> Result<()> {
        for &bin in &self.dirty_bins {
            let s = &self.samples[bin];
            if !s.amp.is_empty() {
                BinDensity::refit(
                    &mut self.densities[bin],
                    &s.amp,
                    &s.phase,
                    &self.config,
                    &mut self.scratch,
                )?;
            }
        }
        for &bin in &self.dirty_bins {
            self.dirty[bin] = false;
        }
        self.dirty_bins.clear();
        Ok(())
    }

    /// Number of preamble symbols absorbed (`N_p`).
    pub fn num_preambles(&self) -> usize {
        self.num_preambles
    }

    /// The fitted density of a bin, if any (diagnostics and tests).
    pub fn density(&self, bin: usize) -> Option<&BinDensity> {
        self.densities.get(bin).and_then(Option::as_ref)
    }

    /// Whether a model exists for the given bin.
    pub fn has_model(&self, bin: usize) -> bool {
        self.density(bin).is_some()
    }

    /// Number of deviation samples collected for a bin.
    pub fn num_samples(&self, bin: usize) -> usize {
        self.samples[bin].amp.len()
    }

    /// The amplitude deviations collected for a bin (used by the Fig. 6b diagnostic).
    pub fn samples_amplitude(&self, bin: usize) -> &[f64] {
        &self.samples[bin].amp
    }

    /// Log-likelihood of observing `observed` on `bin` given that lattice point
    /// `candidate` was transmitted — `ln P(X̂^j | X)` of Eq. 5 for one segment.
    pub fn log_likelihood(&self, bin: usize, observed: Complex, candidate: Complex) -> f64 {
        let (a, p) = deviation(observed, candidate);
        match self.density(bin) {
            Some(d) => d.log_eval(a, p),
            None => fallback_log_likelihood(a),
        }
    }

    /// Scores a whole plane of precomputed (amplitude, phase) deviations against
    /// `bin`'s density in one call — the sphere decoder's batched hot path (see
    /// [`BinDensity::log_eval_batch`]).
    ///
    /// # Panics
    ///
    /// Panics if the query planes or the output have mismatched lengths.
    pub fn log_likelihood_batch(
        &self,
        bin: usize,
        amplitudes: &[f64],
        phases: &[f64],
        log_likes: &mut [f64],
    ) {
        match self.density(bin) {
            Some(d) => d.log_eval_batch(amplitudes, phases, log_likes),
            None => {
                check_planes(amplitudes, phases, Some(log_likes));
                for (a, o) in amplitudes.iter().zip(log_likes.iter_mut()) {
                    *o = fallback_log_likelihood(*a);
                }
            }
        }
    }

    /// Per-query upper bounds on the
    /// [`log_likelihood_batch`](Self::log_likelihood_batch) answers for `bin` — the
    /// sphere decoder's pruning bounds (see [`BinDensity::upper_bounds`]).
    ///
    /// # Panics
    ///
    /// Panics if the query planes or the output have mismatched lengths.
    pub fn log_likelihood_upper_bounds(
        &self,
        bin: usize,
        amplitudes: &[f64],
        phases: &[f64],
        bounds: &mut [f64],
    ) {
        match self.density(bin) {
            Some(d) => d.upper_bounds(amplitudes, phases, bounds),
            None => {
                check_planes(amplitudes, phases, Some(bounds));
                bounds.fill(FALLBACK_CEILING);
            }
        }
    }

    /// Amplitude-only upper bounds on the
    /// [`log_likelihood_batch`](Self::log_likelihood_batch) answers for `bin`,
    /// never below [`log_likelihood_upper_bounds`](Self::log_likelihood_upper_bounds)
    /// — the sphere decoder's first-stage bounds, which need no phase (see
    /// [`BinDensity::amplitude_upper_bounds`]). Unfitted bins get the fallback's
    /// ceiling.
    ///
    /// # Panics
    ///
    /// Panics if `amplitudes` and `bounds` have different lengths.
    pub fn log_likelihood_amplitude_upper_bounds(
        &self,
        bin: usize,
        amplitudes: &[f64],
        bounds: &mut [f64],
    ) {
        match self.density(bin) {
            Some(d) => d.amplitude_upper_bounds(amplitudes, bounds),
            None => {
                check_planes(amplitudes, amplitudes, Some(bounds));
                bounds.fill(FALLBACK_CEILING);
            }
        }
    }

    /// A cheaper lower bound on the in-order sum of the
    /// [`log_likelihood_batch`](Self::log_likelihood_batch) answers to a query
    /// slice, never above
    /// [`log_likelihood_sum_lower_bound`](Self::log_likelihood_sum_lower_bound)'s
    /// — the sphere decoder's first certificate attempt (see
    /// [`BinDensity::one_sample_sum_lower_bound`]). `−∞` on unfitted bins.
    ///
    /// # Panics
    ///
    /// Panics if the query planes have different lengths.
    pub fn log_likelihood_one_sample_sum_lower_bound(
        &self,
        bin: usize,
        amplitudes: &[f64],
        phases: &[f64],
    ) -> f64 {
        match self.density(bin) {
            Some(d) => d.one_sample_sum_lower_bound(amplitudes, phases),
            None => {
                check_planes(amplitudes, phases, None);
                f64::NEG_INFINITY
            }
        }
    }

    /// A lower bound on the in-order sum of the
    /// [`log_likelihood_batch`](Self::log_likelihood_batch) answers to a query
    /// slice — the sphere decoder's certificate (see
    /// [`BinDensity::sum_lower_bound`]).
    ///
    /// # Panics
    ///
    /// Panics if the query planes have different lengths.
    pub fn log_likelihood_sum_lower_bound(
        &self,
        bin: usize,
        amplitudes: &[f64],
        phases: &[f64],
    ) -> f64 {
        match self.density(bin) {
            Some(d) => d.sum_lower_bound(amplitudes, phases),
            None => {
                check_planes(amplitudes, phases, None);
                f64::NEG_INFINITY
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segments::extract_segments;
    use ofdmphy::chanest::ChannelEstimate;
    use ofdmphy::params::OfdmParams;
    use ofdmphy::preamble;
    use rand::SeedableRng;
    use wirelesschan::mixer::{combine, InterfererSpec};

    fn engine() -> OfdmEngine {
        OfdmEngine::new(OfdmParams::ieee80211ag())
    }

    /// Builds the two LTF symbols (with their long guard) as "preamble symbols" in the
    /// per-symbol framing the segment extractor expects: we treat the second half of the
    /// LTF as two consecutive 80-sample symbols whose CP is genuinely cyclic.
    fn ltf_preamble_symbols(_e: &OfdmEngine, samples: &[Complex]) -> Vec<Vec<Complex>> {
        // LTF layout: 32-sample GI2 + 64 (sym1) + 64 (sym2). Treat sym1 with the last 16
        // samples of GI2 as its CP, and sym2 with the last 16 samples of sym1 as its CP.
        let sym1 = samples[16..96].to_vec();
        let sym2 = samples[80..160].to_vec();
        vec![sym1, sym2]
    }

    #[test]
    fn deviation_of_exact_observation_is_zero_amplitude() {
        let x = Complex::new(0.7, -0.7);
        let (a, _) = deviation(x, x);
        assert!(a < 1e-15);
        let (a2, p2) = deviation(x + Complex::new(0.1, 0.0), x);
        assert!((a2 - 0.1).abs() < 1e-12);
        assert!(p2.abs() < 1e-12);
    }

    #[test]
    fn deviation_amplitudes_and_phase_planes_are_bit_identical_to_scalar_deviation() {
        // 11 pairs: not a lane multiple, so the remainder path runs too. Every
        // quadrant, both axes and a sub-threshold error (pinned phase) occur.
        let reference = Complex::new(0.316, -0.948);
        let errs = [
            (0.3, 0.2),
            (-0.7, 0.05),
            (-0.2, -1.3),
            (0.9, -0.4),
            (0.0, 0.6),
            (-0.45, 0.0),
            (1e-12, -3e-12),
            (0.0, 0.0),
            (2.5, 2.5),
            (-3.1, 0.8),
            (0.01, -0.0),
        ];
        let observed: Vec<Complex> = errs
            .iter()
            .map(|&(re, im)| reference + Complex::new(re, im))
            .collect();
        let re: Vec<f64> = observed.iter().map(|o| (*o - reference).re).collect();
        let mut phase: Vec<f64> = observed.iter().map(|o| (*o - reference).im).collect();
        let amp: Vec<f64> = re
            .iter()
            .zip(&phase)
            .map(|(&x, &y)| deviation_amplitude(x, y))
            .collect();
        deviation_phases(&re, &amp, &mut phase);
        for (k, o) in observed.iter().enumerate() {
            let (a, p) = deviation(*o, reference);
            assert_eq!(amp[k].to_bits(), a.to_bits(), "amplitude {k}");
            assert_eq!(phase[k].to_bits(), p.to_bits(), "phase {k}");
        }
    }

    #[test]
    fn clean_preamble_trains_tight_model() {
        let e = engine();
        let ltf = preamble::generate_ltf(e.params());
        let est = ChannelEstimate::from_ltf(&e, &ltf).unwrap();
        let reference = preamble::ltf_bins(e.params());
        let symbols = ltf_preamble_symbols(&e, &ltf);
        let segs: Vec<_> = symbols
            .iter()
            .map(|s| extract_segments(&e, s, &est, 17).unwrap())
            .collect();
        let model = InterferenceModel::train(
            &e,
            &segs,
            &vec![reference.clone(); 2],
            CpRecycleConfig::default(),
        )
        .unwrap();
        assert_eq!(model.num_preambles(), 2);
        // Every occupied non-DC bin has a model with 2 × 17 samples.
        for bin in e.params().occupied_bins() {
            assert!(model.has_model(bin), "bin {bin}");
            assert_eq!(model.num_samples(bin), 34);
        }
        // With no interference the deviations are ~0, so an observation right on the
        // lattice point is far more likely than one a full symbol away.
        let bin = e.params().data_bins()[10];
        let candidate = Complex::new(1.0, 0.0);
        let near = model.log_likelihood(bin, candidate, candidate);
        let far = model.log_likelihood(bin, candidate + Complex::new(1.0, 1.0), candidate);
        assert!(near > far + 1.0, "near {near} far {far}");
    }

    #[test]
    fn interference_widens_the_learned_density() {
        let e = engine();
        let ltf = preamble::generate_ltf(e.params());
        let reference = preamble::ltf_bins(e.params());

        // Clean model.
        let est_clean = ChannelEstimate::from_ltf(&e, &ltf).unwrap();
        let clean_syms = ltf_preamble_symbols(&e, &ltf);
        let clean_segs: Vec<_> = clean_syms
            .iter()
            .map(|s| extract_segments(&e, s, &est_clean, 17).unwrap())
            .collect();
        let clean = InterferenceModel::train(
            &e,
            &clean_segs,
            &vec![reference.clone(); 2],
            CpRecycleConfig::default(),
        )
        .unwrap();

        // Interfered model: add a strong asynchronous interferer over the LTF.
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut g = rfdsp::noise::GaussianSource::new();
        let intf_wave = g.complex_vector(&mut rng, 640, 1.0);
        let spec = InterfererSpec::new(intf_wave, 0.15, 21.7, -10.0);
        let combined = combine(&ltf, &[spec]).unwrap();
        let est_intf = ChannelEstimate::from_ltf(&e, &combined.composite).unwrap();
        let intf_syms = ltf_preamble_symbols(&e, &combined.composite);
        let intf_segs: Vec<_> = intf_syms
            .iter()
            .map(|s| extract_segments(&e, s, &est_intf, 17).unwrap())
            .collect();
        let interfered = InterferenceModel::train(
            &e,
            &intf_segs,
            &vec![reference.clone(); 2],
            CpRecycleConfig::default(),
        )
        .unwrap();

        // The interfered model must have learned larger amplitude deviations.
        let bin = e.params().data_bins()[5];
        let clean_mean: f64 =
            clean.samples_amplitude(bin).iter().sum::<f64>() / clean.num_samples(bin) as f64;
        let intf_mean: f64 = interfered.samples_amplitude(bin).iter().sum::<f64>()
            / interfered.num_samples(bin) as f64;
        assert!(
            intf_mean > 3.0 * clean_mean,
            "clean {clean_mean}, interfered {intf_mean}"
        );
    }

    #[test]
    fn update_adds_preambles() {
        let e = engine();
        let ltf = preamble::generate_ltf(e.params());
        let est = ChannelEstimate::from_ltf(&e, &ltf).unwrap();
        let reference = preamble::ltf_bins(e.params());
        let symbols = ltf_preamble_symbols(&e, &ltf);
        let segs: Vec<_> = symbols
            .iter()
            .map(|s| extract_segments(&e, s, &est, 9).unwrap())
            .collect();
        let mut model = InterferenceModel::train(
            &e,
            &segs[..1],
            std::slice::from_ref(&reference),
            CpRecycleConfig::default(),
        )
        .unwrap();
        assert_eq!(model.num_preambles(), 1);
        model.update(&e, &segs[1], &reference).unwrap();
        assert_eq!(model.num_preambles(), 2);
        let bin = e.params().data_bins()[0];
        assert_eq!(model.num_samples(bin), 18);
    }

    #[test]
    fn train_validation() {
        let e = engine();
        assert!(InterferenceModel::train(&e, &[], &[], CpRecycleConfig::default()).is_err());
        let ltf = preamble::generate_ltf(e.params());
        let est = ChannelEstimate::identity(64);
        let segs = extract_segments(&e, &ltf[16..96], &est, 5).unwrap();
        // Mismatched reference count.
        assert!(InterferenceModel::train(
            &e,
            std::slice::from_ref(&segs),
            &[],
            CpRecycleConfig::default()
        )
        .is_err());
        // Wrong reference length.
        assert!(InterferenceModel::train(
            &e,
            &[segs],
            &[vec![Complex::one(); 10]],
            CpRecycleConfig::default()
        )
        .is_err());
    }

    #[test]
    fn fallback_metric_for_unmodelled_bins() {
        let model = InterferenceModel::new(64, CpRecycleConfig::default());
        assert!(!model.has_model(5));
        let near = model.log_likelihood(5, Complex::one(), Complex::one());
        let far = model.log_likelihood(5, Complex::new(3.0, 0.0), Complex::one());
        assert!(near > far);
    }

    #[test]
    fn fixed_bandwidths_are_respected() {
        let e = engine();
        let ltf = preamble::generate_ltf(e.params());
        let est = ChannelEstimate::from_ltf(&e, &ltf).unwrap();
        let reference = preamble::ltf_bins(e.params());
        let segs = extract_segments(&e, &ltf[16..96], &est, 9).unwrap();
        let config = CpRecycleConfig {
            bandwidth_amplitude: Some(0.25),
            bandwidth_phase: Some(0.5),
            ..Default::default()
        };
        let model = InterferenceModel::train(&e, &[segs], &[reference], config).unwrap();
        let bin = e.params().data_bins()[3];
        let kde = exact(&model, bin);
        assert!((kde.bandwidth_amplitude() - 0.25).abs() < 1e-12);
        assert!((kde.bandwidth_phase() - 0.5).abs() < 1e-12);
    }

    const BACKENDS: [ModelBackend; 2] = [ModelBackend::ExactKde, ModelBackend::Gaussian];

    /// Samples on bins 2..12 of an `fft_size`-bin model, `per_bin` each.
    fn synthetic_samples(fft_size: usize, per_bin: usize) -> Vec<BinSamples> {
        let mut samples = vec![BinSamples::default(); fft_size];
        for (bin, s) in samples.iter_mut().enumerate().take(12).skip(2) {
            for j in 0..per_bin {
                let a = 0.1 + 0.05 * ((bin * 7 + j * 3) % 11) as f64;
                let p = -1.0 + 0.2 * ((bin * 5 + j) % 10) as f64;
                s.push(a, p);
            }
        }
        samples
    }

    /// A model fitted to `samples`, every non-empty bin refit as dirty.
    fn model_with(samples: &[BinSamples], config: CpRecycleConfig) -> InterferenceModel {
        let mut model = InterferenceModel::new(samples.len(), config);
        model.samples = samples.to_vec();
        model.dirty_bins = (0..samples.len())
            .filter(|&bin| !samples[bin].amp.is_empty())
            .collect();
        model.refit_dirty().unwrap();
        model
    }

    fn exact(model: &InterferenceModel, bin: usize) -> &ProductKde2d {
        match model.density(bin) {
            Some(BinDensity::Exact(kde)) => kde,
            other => panic!("bin {bin}: expected an exact KDE, got {other:?}"),
        }
    }

    #[test]
    fn backend_labels() {
        assert_eq!(ModelBackend::ExactKde.label(), "ExactKde");
        assert_eq!(ModelBackend::Gaussian.label(), "Gaussian");
        assert_eq!(ModelBackend::default(), ModelBackend::ExactKde);
    }

    #[test]
    fn bin_samples_push_and_axes() {
        let mut s = BinSamples::default();
        assert!(s.amp.is_empty());
        s.push(0.5, -0.2);
        s.push(0.7, 0.1);
        assert_eq!(s.amp, [0.5, 0.7]);
        assert_eq!(s.phase, [-0.2, 0.1]);
    }

    #[test]
    fn every_backend_trains_and_scores() {
        let samples = synthetic_samples(64, 10);
        for backend in BACKENDS {
            let config = CpRecycleConfig::with_model(backend);
            assert!(!InterferenceModel::new(64, config).has_model(5));
            let model = model_with(&samples, config);
            let family = match model.density(5) {
                Some(BinDensity::Exact(_)) => ModelBackend::ExactKde,
                Some(BinDensity::Gaussian(_)) => ModelBackend::Gaussian,
                None => panic!("{backend:?}: bin 5 unfitted"),
            };
            assert_eq!(family, backend);
            assert!(
                !model.has_model(40),
                "{backend:?}: empty bin stays unmodelled"
            );
            // Scoring prefers the transmitted point over a distant one.
            let obs = Complex::new(1.1, 0.1);
            let near = model.log_likelihood(5, obs, Complex::new(1.0, 0.0));
            let far = model.log_likelihood(5, obs, Complex::new(-3.0, 0.0));
            assert!(near.is_finite() && far.is_finite(), "{backend:?}");
            assert!(near > far, "{backend:?}: near {near}, far {far}");
        }
    }

    #[test]
    fn batched_scoring_matches_scalar_for_every_backend() {
        let samples = synthetic_samples(64, 12);
        // Deviation queries spanning the fitted support and its tails, with a length
        // that leaves an unaligned lane remainder.
        let amps: Vec<f64> = (0..13).map(|i| 0.05 + 0.11 * i as f64).collect();
        let phases: Vec<f64> = (0..13).map(|i| -1.4 + 0.23 * i as f64).collect();
        let mut batch = vec![0.0; amps.len()];
        for backend in BACKENDS {
            let model = model_with(&samples, CpRecycleConfig::with_model(backend));
            // Trained bin: batch must agree with the scalar query path.
            model.log_likelihood_batch(5, &amps, &phases, &mut batch);
            let density = model.density(5).unwrap();
            for (i, (&a, &p)) in amps.iter().zip(&phases).enumerate() {
                let scalar = density.log_eval(a, p);
                assert!(
                    (batch[i] - scalar).abs() < 1e-9,
                    "{backend:?} query {i}: batch {} vs scalar {scalar}",
                    batch[i]
                );
            }
            // Unfitted bin: bit-for-bit the shared fallback penalty.
            model.log_likelihood_batch(40, &amps, &phases, &mut batch);
            for (i, &a) in amps.iter().enumerate() {
                assert_eq!(
                    batch[i].to_bits(),
                    fallback_log_likelihood(a).to_bits(),
                    "{backend:?} fallback query {i}"
                );
            }
        }
    }

    #[test]
    fn batch_scoring_rejects_mismatched_output() {
        // Every plane query panics on a short phase plane or a short output, on
        // fitted and unfitted bins alike, for every backend.
        let samples = synthetic_samples(8, 6);
        let planes: [(&[f64], &[f64], usize); 2] = [
            (&[0.1, 0.2], &[0.0], 2),      // short phases
            (&[0.1, 0.2], &[0.0, 0.3], 1), // short output
        ];
        fn panics(query: impl FnOnce()) -> bool {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(query)).is_err()
        }
        for backend in BACKENDS {
            let model = model_with(&samples, CpRecycleConfig::with_model(backend));
            for (bin, fitted) in [(5, true), (0, false)] {
                assert_eq!(model.has_model(bin), fitted);
                for (amps, phases, outputs) in planes {
                    let case = format!("{backend:?} bin {bin} {amps:?}/{phases:?}");
                    let out = || vec![0.0; outputs];
                    assert!(
                        panics(|| model.log_likelihood_batch(bin, amps, phases, &mut out())),
                        "batch: {case}"
                    );
                    assert!(
                        panics(|| model.log_likelihood_upper_bounds(bin, amps, phases, &mut out())),
                        "upper bounds: {case}"
                    );
                    // The lower bound has no output: only short phases are wrong.
                    if phases.len() != amps.len() {
                        assert!(
                            panics(|| {
                                model.log_likelihood_sum_lower_bound(bin, amps, phases);
                            }),
                            "lower bound: {case}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn dirty_bin_update_refits_only_the_listed_bins() {
        let samples = synthetic_samples(64, 8);
        let mut model = model_with(&samples, CpRecycleConfig::default());
        let before_len = exact(&model, 3).len();
        // New samples land on bin 5 only; bin 3 is not in the dirty list.
        model.samples[5].push(0.9, 0.4);
        model.dirty_bins.push(5);
        model.refit_dirty().unwrap();
        assert_eq!(exact(&model, 3).len(), before_len);
        assert_eq!(exact(&model, 5).len(), 9);
    }
}
