//! FFT-segment extraction (paper §3.1).
//!
//! For one received OFDM symbol of `C + F` samples there are `P` ISI-free FFT windows
//! ("segments"): the window that starts right after the CP (the standard receiver's
//! choice) and the `P − 1` windows that start progressively earlier inside the CP.
//! After the deterministic phase-ramp correction of Eq. 2 every segment carries the same
//! desired-signal component (Proposition 3.1), but a different interference component —
//! the redundancy CPRecycle exploits.
//!
//! # The sliding-DFT kernel
//!
//! Adjacent segment windows differ by exactly one sample, so computing `P` direct FFTs
//! wastes a factor of `log₂ F`: this module seeds the earliest window with one FFT and
//! derives each later segment by an `O(F)` sliding-DFT update
//! ([`rfdsp::sliding::SlidingDft`]). The slide twiddle `e^{+i2πk/F}` cancels exactly
//! against the shrinking Eq. 2 phase ramp, so in the *corrected* domain the recurrence
//! collapses to a fused multiply-add per bin:
//!
//! ```text
//! X̃_{w+1}[f] = X̃_w[f] + (x[w+F] − x[w]) · e^{+i2πf(C−w)/F}       (phase ramp folded in)
//! Ẋ_{w+1}[f] = Ẋ_w[f] + (x[w+F] − x[w]) · e^{+i2πf(C−w)/F} / Ĥ[f] (equalization folded in)
//! ```
//!
//! where the per-bin factor `e^{+i2πf(C−w)/F}/Ĥ[f]` itself advances by one precomputed
//! twiddle per slide. The direct per-segment FFT — one FFT, phase correction and
//! equalization per window — is the test oracle: the unit tests below and the
//! `segment_equivalence` integration test assert the two agree to ≤ 1e-9 (the latter
//! for every valid `P`).
//!
//! # Storage
//!
//! [`SymbolSegments`] stores the `P × F` observations in one flat, **bin-major** buffer
//! so [`SymbolSegments::bin_observations`] — the access pattern of every decoder — is
//! an allocation-free contiguous slice.

use crate::config::KernelPrecision;
use crate::Result;
use ofdmphy::chanest::ChannelEstimate;
use ofdmphy::ofdm::OfdmEngine;
use ofdmphy::PhyError;
use rfdsp::lanes::LANES;
use rfdsp::sliding::SlidingDft;
use rfdsp::Complex;

/// The segment-extraction kernel: the sliding DFT is the only one.
///
/// A one-value type kept because the frozen benchmark harness reads
/// `CpRecycleConfig::extraction`; ROADMAP item 1 deletes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SegmentExtraction {
    /// One seed FFT for the earliest window, then an `O(F)` one-sample slide per
    /// further segment with the Eq. 2 phase ramp and the equalization folded into the
    /// update.
    #[default]
    Sliding,
}

/// The per-segment, per-bin observations extracted from one OFDM symbol.
///
/// Storage is a single flat, bin-major buffer: the `P` observations of one FFT bin —
/// the redundant copies every decoder consumes together — are contiguous, so
/// [`bin_observations`](Self::bin_observations) is a zero-copy slice view.
#[derive(Debug, Clone)]
pub struct SymbolSegments {
    num_segments: usize,
    fft_size: usize,
    /// `values[bin * num_segments + segment]`: equalised frequency-domain value of
    /// every FFT bin for each of the `P` segments. Segment `P − 1` is the standard
    /// receiver's window; segment `0` starts the earliest inside the cyclic prefix.
    values: Vec<Complex>,
}

impl SymbolSegments {
    /// Builds segments from segment-major rows (`rows[segment][bin]`), transposing
    /// into the flat bin-major layout. Intended for tests, benches and synthetic
    /// observation sets; the extraction kernels write the flat buffer directly.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or the rows have unequal lengths.
    pub fn from_rows(rows: Vec<Vec<Complex>>) -> Self {
        let (num_segments, fft_size, values) = bin_major(&rows);
        SymbolSegments {
            num_segments,
            fft_size,
            values,
        }
    }

    /// Number of segments `P`.
    #[inline]
    pub fn num_segments(&self) -> usize {
        self.num_segments
    }

    /// Number of FFT bins `F`.
    #[inline]
    pub fn fft_size(&self) -> usize {
        self.fft_size
    }

    /// The observations of one FFT bin across all segments — the `P` redundant copies
    /// the decoders work with — as an allocation-free contiguous slice. Segment order
    /// matches [`value`](Self::value): index `P − 1` is the standard window.
    #[inline]
    pub fn bin_observations(&self, bin: usize) -> &[Complex] {
        &self.values[bin * self.num_segments..(bin + 1) * self.num_segments]
    }

    /// The observation of one `(segment, bin)` pair.
    #[inline]
    pub fn value(&self, segment: usize, bin: usize) -> Complex {
        self.values[bin * self.num_segments + segment]
    }

    /// The standard receiver's view (the last segment), gathered across bins.
    pub fn standard(&self) -> Vec<Complex> {
        (0..self.fft_size)
            .map(|bin| self.value(self.num_segments - 1, bin))
            .collect()
    }
}

/// Transposes segment-major rows (`rows[segment][bin]`) into the flat bin-major
/// layout, returning `(P, F, values)`.
///
/// # Panics
///
/// Panics if `rows` is empty or the rows have unequal lengths.
fn bin_major<T: Copy + Default>(rows: &[Vec<T>]) -> (usize, usize, Vec<T>) {
    let num_segments = rows.len();
    assert!(num_segments > 0, "at least one segment row is required");
    let fft_size = rows[0].len();
    assert!(
        rows.iter().all(|r| r.len() == fft_size),
        "all segment rows must have the same length"
    );
    let mut values = vec![T::default(); num_segments * fft_size];
    for (j, row) in rows.iter().enumerate() {
        for (bin, v) in row.iter().enumerate() {
            values[bin * num_segments + j] = *v;
        }
    }
    (num_segments, fft_size, values)
}

/// Per-segment, per-bin interference power in the same flat **bin-major** layout as
/// [`SymbolSegments`]: the `P` powers of one FFT bin are contiguous, so
/// [`bin_powers`](Self::bin_powers) — the Oracle's access pattern — is an
/// allocation-free slice. Produced by [`interference_power_per_segment`] on an
/// interference-only waveform.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentPowers {
    num_segments: usize,
    fft_size: usize,
    /// `values[bin * num_segments + segment]`; segment `P − 1` is the standard window.
    values: Vec<f64>,
}

impl SegmentPowers {
    /// Builds powers from segment-major rows (`rows[segment][bin]`), transposing into
    /// the flat bin-major layout. Intended for tests and synthetic inputs.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or the rows have unequal lengths.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Self {
        let (num_segments, fft_size, values) = bin_major(&rows);
        SegmentPowers {
            num_segments,
            fft_size,
            values,
        }
    }

    /// Number of segments `P`.
    #[inline]
    pub fn num_segments(&self) -> usize {
        self.num_segments
    }

    /// Number of FFT bins `F`.
    #[inline]
    pub fn fft_size(&self) -> usize {
        self.fft_size
    }

    /// The interference powers of one FFT bin across all segments, as an
    /// allocation-free contiguous slice (segment `P − 1` last).
    #[inline]
    pub fn bin_powers(&self, bin: usize) -> &[f64] {
        &self.values[bin * self.num_segments..(bin + 1) * self.num_segments]
    }

    /// The power of one `(segment, bin)` pair.
    #[inline]
    pub fn value(&self, segment: usize, bin: usize) -> f64 {
        self.values[bin * self.num_segments + segment]
    }
}

/// Reusable scratch state for segment extraction: the [`SlidingDft`] plan and the
/// per-symbol working buffers.
///
/// Construct one per worker (or per frame) and thread it through
/// [`extract_segments_with`], or reuse an [`RxStream`] (which owns one) across
/// [`CpRecycleReceiver::decode_frame_session`] calls, so the twiddle tables are
/// built once and the working buffers never reallocate; the campaign engine's
/// worker-local state is the natural home (`cprecycle-scenarios` keeps one stream
/// inside each prepared receiver).
///
/// [`RxStream`]: crate::receiver::RxStream
/// [`CpRecycleReceiver::decode_frame_session`]: crate::receiver::CpRecycleReceiver::decode_frame_session
#[derive(Debug, Clone, Default)]
pub struct SegmentScratch {
    /// Lazily (re)built when the FFT size changes.
    sliding: Option<SlidingDft>,
    /// Running corrected-and-equalised spectrum of the current window.
    spectrum: Vec<Complex>,
    /// Per-bin fused factor `e^{+i2πk·shift/F} / Ĥ[k]` of the current window.
    ramp: Vec<Complex>,
    /// Decision-stage buffers (candidate indices, the sphere decoder's deviation and
    /// log-likelihood planes) and sphere search counters, threaded by the receiver
    /// into [`decide_symbol`] so the whole extract → decide path is allocation-free
    /// after warm-up.
    ///
    /// [`decide_symbol`]: crate::decision::decide_symbol
    pub decision: crate::decision::DecoderScratch,
}

impl SegmentScratch {
    /// An empty scratch; buffers and the sliding plan are sized on first use.
    pub fn new() -> Self {
        SegmentScratch::default()
    }

    /// Ensures the plan and buffers match `fft_size`, then hands out split borrows.
    fn ensure(&mut self, fft_size: usize) -> (&SlidingDft, &mut [Complex], &mut [Complex]) {
        if self.sliding.as_ref().map(SlidingDft::len) != Some(fft_size) {
            self.sliding = Some(SlidingDft::new(fft_size));
        }
        self.spectrum.resize(fft_size, Complex::zero());
        self.ramp.resize(fft_size, Complex::zero());
        (
            self.sliding.as_ref().expect("plan just ensured"),
            &mut self.spectrum,
            &mut self.ramp,
        )
    }
}

fn validate_num_segments(engine: &OfdmEngine, num_segments: usize) -> Result<()> {
    let c = engine.params().cp_len;
    if num_segments == 0 || num_segments > c + 1 {
        return Err(PhyError::invalid(
            "num_segments",
            format!("must be between 1 and CP length + 1 ({})", c + 1),
        ));
    }
    Ok(())
}

fn validate_symbol_len(engine: &OfdmEngine, symbol_samples: &[Complex]) -> Result<()> {
    let needed = engine.params().symbol_len();
    if symbol_samples.len() < needed {
        return Err(PhyError::InsufficientSamples {
            needed,
            available: symbol_samples.len(),
        });
    }
    Ok(())
}

/// Extracts `num_segments` equalised FFT segments from one received OFDM symbol with
/// a throwaway scratch.
///
/// * `symbol_samples` — the `C + F` samples of the symbol (CP included).
/// * `estimate` — the per-packet channel estimate (shared across segments: all ISI-free
///   windows see the same channel, paper Eq. 1).
/// * `num_segments` — `P`; must be between 1 and `C + 1`.
///
/// Segment `j` (0-based) uses the FFT window starting at sample `C − (P − 1) + j`, so
/// the last segment is the standard window starting at `C`.
///
/// Hot paths should keep a [`SegmentScratch`] and call [`extract_segments_with`], which
/// reuses the sliding plan and working buffers across symbols.
pub fn extract_segments(
    engine: &OfdmEngine,
    symbol_samples: &[Complex],
    estimate: &ChannelEstimate,
    num_segments: usize,
) -> Result<SymbolSegments> {
    let mut scratch = SegmentScratch::new();
    extract_segments_with(engine, symbol_samples, estimate, num_segments, &mut scratch)
}

/// Extracts `num_segments` equalised FFT segments with reusable scratch — the
/// hot-path entry point (see [`extract_segments`] for the parameter contract): one
/// seed FFT, then `P − 1` fused `O(F)` sliding updates.
pub fn extract_segments_with(
    engine: &OfdmEngine,
    symbol_samples: &[Complex],
    estimate: &ChannelEstimate,
    num_segments: usize,
    scratch: &mut SegmentScratch,
) -> Result<SymbolSegments> {
    validate_num_segments(engine, num_segments)?;
    validate_symbol_len(engine, symbol_samples)?;
    let params = engine.params();
    let f = params.fft_size;
    let c = params.cp_len;
    if estimate.h.len() != f {
        return Err(PhyError::LengthMismatch {
            expected: f,
            actual: estimate.h.len(),
        });
    }
    let p = num_segments;
    let s0 = c - (p - 1);
    let (sliding, spectrum, ramp) = scratch.ensure(f);

    // Seed: FFT of the earliest window, then fold phase ramp + equalizer into it.
    spectrum.copy_from_slice(&symbol_samples[s0..s0 + f]);
    sliding
        .plan()
        .fft_in_place(spectrum)
        .expect("scratch buffer sized to plan");
    let initial_shift = p - 1;
    if initial_shift == 0 {
        // P = 1: the standard window has no phase ramp, so the fused factor is just
        // the equalizer. Branching here skips F `cis` calls per symbol.
        for (k, r) in ramp.iter_mut().enumerate() {
            *r = estimate.inverse_gain(k);
        }
    } else {
        for (k, r) in ramp.iter_mut().enumerate() {
            let theta = 2.0 * std::f64::consts::PI * (k * initial_shift) as f64 / f as f64;
            *r = Complex::cis(theta) * estimate.inverse_gain(k);
        }
    }
    let mut values = vec![Complex::zero(); p * f];
    for k in 0..f {
        spectrum[k] *= ramp[k];
        values[k * p] = spectrum[k];
    }

    // Slides: advancing the window start by one sample shrinks the Eq. 2 cyclic shift
    // by one, so the slide twiddle cancels against the ramp step — the corrected,
    // equalised spectrum advances by a single multiply-add per bin, and the fused
    // per-bin factor steps down by one precomputed twiddle.
    fused_slides_f64(
        symbol_samples,
        s0,
        f,
        p,
        spectrum,
        ramp,
        sliding.retreat_twiddles(),
        &mut values,
    );
    Ok(SymbolSegments {
        num_segments: p,
        fft_size: f,
        values,
    })
}

/// [`extract_segments_with`] with two one-value selectors, which it ignores. Kept
/// because the frozen benchmark harness calls it; ROADMAP item 1 deletes it.
#[doc(hidden)]
pub fn extract_segments_precise(
    engine: &OfdmEngine,
    symbol_samples: &[Complex],
    estimate: &ChannelEstimate,
    num_segments: usize,
    _method: SegmentExtraction,
    _precision: KernelPrecision,
    scratch: &mut SegmentScratch,
) -> Result<SymbolSegments> {
    extract_segments_with(engine, symbol_samples, estimate, num_segments, scratch)
}

/// The `P − 1` fused slide updates in f64, restructured into `LANES`-wide chunks so
/// LLVM emits packed arithmetic. The chunked body and the scalar remainder perform
/// the *same* elementwise operations in the same order as the plain recurrence
/// (`spectrum[k] += delta * ramp[k]; ramp[k] *= retreat[k]`, expanded into the
/// complex-multiply formula rustc generates for [`Complex`]), so the restructure is
/// bit-for-bit — pinned by `lane_restructure_matches_the_scalar_recurrence` below.
#[allow(clippy::too_many_arguments)]
fn fused_slides_f64(
    symbol_samples: &[Complex],
    s0: usize,
    f: usize,
    p: usize,
    spectrum: &mut [Complex],
    ramp: &mut [Complex],
    retreat: &[Complex],
    values: &mut [Complex],
) {
    let main = f - f % LANES;
    for j in 1..p {
        let w = s0 + j - 1;
        let delta = symbol_samples[w + f] - symbol_samples[w];
        let (dr, di) = (delta.re, delta.im);
        for k0 in (0..main).step_by(LANES) {
            let mut sr = [0.0f64; LANES];
            let mut si = [0.0f64; LANES];
            let mut nr = [0.0f64; LANES];
            let mut ni = [0.0f64; LANES];
            for l in 0..LANES {
                let r = ramp[k0 + l];
                let t = retreat[k0 + l];
                sr[l] = spectrum[k0 + l].re + (dr * r.re - di * r.im);
                si[l] = spectrum[k0 + l].im + (dr * r.im + di * r.re);
                nr[l] = r.re * t.re - r.im * t.im;
                ni[l] = r.re * t.im + r.im * t.re;
            }
            for l in 0..LANES {
                let s = Complex::new(sr[l], si[l]);
                spectrum[k0 + l] = s;
                values[(k0 + l) * p + j] = s;
                ramp[k0 + l] = Complex::new(nr[l], ni[l]);
            }
        }
        for k in main..f {
            spectrum[k] += delta * ramp[k];
            values[k * p + j] = spectrum[k];
            ramp[k] *= retreat[k];
        }
    }
}

/// Measures the interference power per segment and per bin by demodulating an
/// *interference-only* waveform with the same segment windows (no equalisation — raw
/// received interference power). Used by the Oracle receiver and by the Fig. 4a/4b
/// diagnostics, where the paper obtains the same quantity "by muting the sender".
/// Returns the powers in the flat bin-major [`SegmentPowers`] layout.
pub fn interference_power_per_segment(
    engine: &OfdmEngine,
    interference_symbol: &[Complex],
    num_segments: usize,
) -> Result<SegmentPowers> {
    let mut scratch = SegmentScratch::new();
    interference_power_per_segment_with(engine, interference_symbol, num_segments, &mut scratch)
}

/// [`interference_power_per_segment`] with reusable scratch — the hot-path entry
/// point used by the Oracle arm of the link campaigns.
pub fn interference_power_per_segment_with(
    engine: &OfdmEngine,
    interference_symbol: &[Complex],
    num_segments: usize,
    scratch: &mut SegmentScratch,
) -> Result<SegmentPowers> {
    validate_num_segments(engine, num_segments)?;
    validate_symbol_len(engine, interference_symbol)?;
    let params = engine.params();
    let f = params.fft_size;
    let c = params.cp_len;
    let p = num_segments;
    let mut values = vec![0.0f64; p * f];
    let s0 = c - (p - 1);
    let (sliding, spectrum, _) = scratch.ensure(f);
    // Phase corrections are unit-magnitude, so powers need only the raw sliding
    // spectrum of each window.
    spectrum.copy_from_slice(&interference_symbol[s0..s0 + f]);
    sliding
        .plan()
        .fft_in_place(spectrum)
        .expect("scratch buffer sized to plan");
    for j in 0..p {
        if j > 0 {
            let w = s0 + j - 1;
            sliding
                .slide(spectrum, interference_symbol[w], interference_symbol[w + f])
                .expect("scratch buffer sized to plan");
        }
        for (bin, b) in spectrum.iter().enumerate() {
            values[bin * p + j] = b.norm_sqr();
        }
    }
    Ok(SegmentPowers {
        num_segments: p,
        fft_size: f,
        values,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofdmphy::frame::pilot_values;
    use ofdmphy::modulation::Modulation;
    use ofdmphy::params::OfdmParams;
    use rand::{Rng, SeedableRng};
    use wirelesschan::mixer::{combine, InterfererSpec};
    use wirelesschan::multipath::{FadingKind, MultipathChannel, PowerDelayProfile};

    fn engine() -> OfdmEngine {
        OfdmEngine::new(OfdmParams::ieee80211ag())
    }

    fn random_symbol(engine: &OfdmEngine, seed: u64) -> (Vec<Complex>, Vec<Complex>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let m = Modulation::Qam16;
        let data: Vec<Complex> = (0..48)
            .map(|_| {
                let bits: Vec<u8> = (0..4).map(|_| rng.gen_range(0..2)).collect();
                m.map(&bits).unwrap()
            })
            .collect();
        let time = engine.modulate(&data, &pilot_values(1.0)).unwrap();
        (time, data)
    }

    #[test]
    fn clean_channel_all_segments_identical() {
        let e = engine();
        let (time, data) = random_symbol(&e, 1);
        let est = ChannelEstimate::identity(64);
        let segs = extract_segments(&e, &time, &est, 17).unwrap();
        assert_eq!(segs.num_segments(), 17);
        assert_eq!(segs.fft_size(), 64);
        let reference = segs.standard();
        for j in 0..segs.num_segments() {
            for (k, r) in reference.iter().enumerate() {
                assert!((segs.value(j, k) - *r).norm() < 1e-9, "bin {k}");
            }
        }
        // And they match the transmitted data on the data bins.
        let data_bins = e.params().data_bins();
        for (i, bin) in data_bins.iter().enumerate() {
            assert!((reference[*bin] - data[i]).norm() < 1e-9);
        }
    }

    /// One direct, phase-corrected FFT per segment window, as `rows[segment][bin]`.
    fn direct_windows(engine: &OfdmEngine, symbol: &[Complex], p: usize) -> Vec<Vec<Complex>> {
        let c = engine.params().cp_len;
        (0..p)
            .map(|j| engine.demodulate_window(symbol, c - (p - 1) + j).unwrap())
            .collect()
    }

    #[test]
    fn sliding_and_direct_kernels_agree() {
        let e = engine();
        let (time, _) = random_symbol(&e, 11);
        // A non-trivial channel so the equalization path is exercised too.
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let pdp = PowerDelayProfile::exponential(3, 1.0).unwrap();
        let chan = MultipathChannel::realize(&pdp, FadingKind::Rayleigh, &mut rng);
        let est = ChannelEstimate {
            h: chan.frequency_response(64),
        };
        let mut scratch = SegmentScratch::new();
        for p in [1usize, 2, 5, 16, 17] {
            let sliding = extract_segments_with(&e, &time, &est, p, &mut scratch).unwrap();
            let direct = SymbolSegments::from_rows(
                direct_windows(&e, &time, p)
                    .iter()
                    .map(|bins| est.equalize(bins).unwrap())
                    .collect(),
            );
            for bin in 0..64 {
                let a = sliding.bin_observations(bin);
                let b = direct.bin_observations(bin);
                for j in 0..p {
                    assert!(
                        (a[j] - b[j]).norm() < 1e-9,
                        "P {p}, segment {j}, bin {bin}: {} vs {}",
                        a[j],
                        b[j]
                    );
                }
            }
        }
    }

    #[test]
    fn lane_restructure_matches_the_scalar_recurrence() {
        // The chunked f64 slide kernel must be bit-for-bit identical to the plain
        // scalar recurrence it replaced, for lengths that exercise both the chunked
        // body and the remainder (f = 13 leaves a 1-element tail at LANES = 4).
        let mut rng = rand::rngs::StdRng::seed_from_u64(44);
        let mut c = || Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5);
        for f in [4usize, 7, 13, 64] {
            let p = 5usize;
            let s0 = 4usize;
            let samples: Vec<Complex> = (0..s0 + f + p).map(|_| c()).collect();
            let retreat: Vec<Complex> = (0..f).map(|_| c()).collect();
            let spectrum0: Vec<Complex> = (0..f).map(|_| c()).collect();
            let ramp0: Vec<Complex> = (0..f).map(|_| c()).collect();

            let mut spec_ref = spectrum0.clone();
            let mut ramp_ref = ramp0.clone();
            let mut values_ref = vec![Complex::zero(); p * f];
            for j in 1..p {
                let w = s0 + j - 1;
                let delta = samples[w + f] - samples[w];
                for k in 0..f {
                    spec_ref[k] += delta * ramp_ref[k];
                    values_ref[k * p + j] = spec_ref[k];
                    ramp_ref[k] *= retreat[k];
                }
            }

            let mut spec = spectrum0.clone();
            let mut ramp = ramp0.clone();
            let mut values = vec![Complex::zero(); p * f];
            fused_slides_f64(
                &samples,
                s0,
                f,
                p,
                &mut spec,
                &mut ramp,
                &retreat,
                &mut values,
            );

            for k in 0..f {
                assert_eq!(
                    spec[k].re.to_bits(),
                    spec_ref[k].re.to_bits(),
                    "f {f} bin {k}"
                );
                assert_eq!(
                    spec[k].im.to_bits(),
                    spec_ref[k].im.to_bits(),
                    "f {f} bin {k}"
                );
                assert_eq!(
                    ramp[k].re.to_bits(),
                    ramp_ref[k].re.to_bits(),
                    "f {f} bin {k}"
                );
                assert_eq!(
                    ramp[k].im.to_bits(),
                    ramp_ref[k].im.to_bits(),
                    "f {f} bin {k}"
                );
                for j in 0..p {
                    let (a, b) = (values[k * p + j], values_ref[k * p + j]);
                    assert_eq!(a.re.to_bits(), b.re.to_bits(), "f {f} bin {k} seg {j}");
                    assert_eq!(a.im.to_bits(), b.im.to_bits(), "f {f} bin {k} seg {j}");
                }
            }
        }
    }

    #[test]
    fn scratch_adapts_to_fft_size_changes() {
        // One scratch reused across numerologies must resize its plan and buffers.
        let e64 = engine();
        let mut roles = vec![ofdmphy::params::SubcarrierRole::Null; 128];
        for k in 1..=26usize {
            roles[k] = ofdmphy::params::SubcarrierRole::Data;
            roles[128 - k] = ofdmphy::params::SubcarrierRole::Data;
        }
        let params128 = OfdmParams::new(128, 32, 40e6, roles).unwrap();
        let e128 = OfdmEngine::new(params128);
        let (t64, _) = random_symbol(&e64, 21);
        let t128: Vec<Complex> = (0..e128.params().symbol_len())
            .map(|t| Complex::cis(0.11 * t as f64))
            .collect();
        let mut scratch = SegmentScratch::new();
        for _ in 0..2 {
            let s64 =
                extract_segments_with(&e64, &t64, &ChannelEstimate::identity(64), 5, &mut scratch)
                    .unwrap();
            assert_eq!(s64.fft_size(), 64);
            let s128 = extract_segments_with(
                &e128,
                &t128,
                &ChannelEstimate::identity(128),
                9,
                &mut scratch,
            )
            .unwrap();
            assert_eq!(s128.fft_size(), 128);
        }
    }

    #[test]
    fn bin_observations_collects_across_segments() {
        let e = engine();
        let (time, _) = random_symbol(&e, 2);
        let est = ChannelEstimate::identity(64);
        let segs = extract_segments(&e, &time, &est, 5).unwrap();
        let obs = segs.bin_observations(7);
        assert_eq!(obs.len(), 5);
        for o in obs {
            assert!((*o - segs.value(0, 7)).norm() < 1e-9);
        }
    }

    #[test]
    fn from_rows_round_trips_the_layout() {
        let rows = vec![
            vec![Complex::new(1.0, 0.0), Complex::new(2.0, 0.0)],
            vec![Complex::new(3.0, 0.0), Complex::new(4.0, 0.0)],
            vec![Complex::new(5.0, 0.0), Complex::new(6.0, 0.0)],
        ];
        let segs = SymbolSegments::from_rows(rows.clone());
        assert_eq!(segs.num_segments(), 3);
        assert_eq!(segs.fft_size(), 2);
        for (j, row) in rows.iter().enumerate() {
            for (bin, v) in row.iter().enumerate() {
                assert_eq!(segs.value(j, bin), *v);
            }
        }
        assert_eq!(segs.bin_observations(1).len(), 3);
        assert_eq!(segs.bin_observations(1)[2], Complex::new(6.0, 0.0));
        assert_eq!(segs.standard(), rows[2]);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn from_rows_rejects_ragged_input() {
        let _ = SymbolSegments::from_rows(vec![vec![Complex::zero(); 4], vec![Complex::zero(); 3]]);
    }

    #[test]
    fn segment_powers_from_rows_round_trips_the_layout() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let powers = SegmentPowers::from_rows(rows.clone());
        assert_eq!(powers.num_segments(), 3);
        assert_eq!(powers.fft_size(), 2);
        for (j, row) in rows.iter().enumerate() {
            for (bin, v) in row.iter().enumerate() {
                assert_eq!(powers.value(j, bin), *v);
            }
        }
        assert_eq!(powers.bin_powers(0), &[1.0, 3.0, 5.0]);
        assert_eq!(powers.bin_powers(1), &[2.0, 4.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn segment_powers_reject_empty_rows() {
        let _ = SegmentPowers::from_rows(Vec::new());
    }

    #[test]
    fn multipath_within_isi_free_region_keeps_segments_equal() {
        // With a short multipath channel, only the first few CP samples are corrupted by
        // ISI; segments restricted to the ISI-free region must still agree after
        // equalisation.
        let e = engine();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let pdp = PowerDelayProfile::exponential(4, 1.0).unwrap();
        let chan = MultipathChannel::realize(&pdp, FadingKind::Rayleigh, &mut rng);
        let (time, _) = random_symbol(&e, 4);
        // Prepend the previous symbol so ISI comes from real data, not silence.
        let (prev, _) = random_symbol(&e, 5);
        let mut stream = prev.clone();
        stream.extend_from_slice(&time);
        let faded = chan.apply(&stream);
        let this_symbol = &faded[80..160];
        let est = ChannelEstimate {
            h: chan.frequency_response(64),
        };
        // Max excess delay is 3 samples → segments using window starts ≥ 3 are ISI-free:
        // that is P = 16 + 1 − 3 = 14 segments.
        let segs = extract_segments(&e, this_symbol, &est, 14).unwrap();
        let reference = segs.standard();
        for j in 0..segs.num_segments() {
            for &bin in &e.params().data_bins() {
                assert!(
                    (segs.value(j, bin) - reference[bin]).norm() < 1e-6,
                    "segment {j}, bin {bin}"
                );
            }
        }
    }

    #[test]
    fn asynchronous_interference_varies_across_segments() {
        // The central empirical observation of the paper (Fig. 4b): a non-symbol-aligned
        // interferer contributes very different power to different segments.
        let e = engine();
        let (time, _) = random_symbol(&e, 6);
        // Interferer: another OFDM waveform, delayed by more than the CP and frequency
        // shifted (adjacent channel).
        let (intf_a, _) = random_symbol(&e, 7);
        let (intf_b, _) = random_symbol(&e, 8);
        let mut intf = intf_a;
        intf.extend(intf_b);
        let spec = InterfererSpec::new(intf, 0.3, 23.4, -10.0);
        let combined = combine(&time, &[spec]).unwrap();
        let powers = interference_power_per_segment(&e, &combined.interference[0], 17).unwrap();
        assert_eq!(powers.num_segments(), 17);
        assert_eq!(powers.fft_size(), 64);
        // Look at one occupied bin near the band edge and check the spread across
        // segments is non-trivial. The bin-major layout hands the per-segment series
        // of one bin out as a contiguous slice.
        let bin = 20usize;
        let series = powers.bin_powers(bin);
        let max = series.iter().cloned().fold(f64::MIN, f64::max);
        let min = series.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max > 0.0);
        assert!(
            max / min.max(1e-12) > 2.0,
            "interference should vary across segments: min {min}, max {max}"
        );
    }

    #[test]
    fn interference_power_kernels_agree() {
        let e = engine();
        let (wave, _) = random_symbol(&e, 15);
        let mut scratch = SegmentScratch::new();
        for p in [1usize, 4, 17] {
            let sliding = interference_power_per_segment_with(&e, &wave, p, &mut scratch).unwrap();
            let direct = SegmentPowers::from_rows(
                direct_windows(&e, &wave, p)
                    .iter()
                    .map(|bins| bins.iter().map(|b| b.norm_sqr()).collect())
                    .collect(),
            );
            assert_eq!(sliding.num_segments(), p);
            for bin in 0..64 {
                let a = sliding.bin_powers(bin);
                let b = direct.bin_powers(bin);
                for j in 0..p {
                    assert!(
                        (a[j] - b[j]).abs() < 1e-9 * (1.0 + a[j].max(b[j])),
                        "P {p}, segment {j}, bin {bin}: {} vs {}",
                        a[j],
                        b[j]
                    );
                }
            }
        }
    }

    #[test]
    fn invalid_segment_counts_are_rejected() {
        let e = engine();
        let (time, _) = random_symbol(&e, 9);
        let est = ChannelEstimate::identity(64);
        assert!(extract_segments(&e, &time, &est, 0).is_err());
        assert!(extract_segments(&e, &time, &est, 18).is_err());
        assert!(interference_power_per_segment(&e, &time, 0).is_err());
        assert!(interference_power_per_segment(&e, &time, 18).is_err());
        // Truncated symbols and mismatched estimates are rejected too.
        let mut scratch = SegmentScratch::new();
        assert!(extract_segments_with(&e, &time[..40], &est, 4, &mut scratch).is_err());
        assert!(interference_power_per_segment_with(&e, &time[..40], 4, &mut scratch).is_err());
        let short_est = ChannelEstimate::identity(32);
        assert!(extract_segments_with(&e, &time, &short_est, 4, &mut scratch).is_err());
    }
}
