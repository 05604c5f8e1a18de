//! Sliding discrete Fourier transform.
//!
//! When consecutive analysis windows differ by exactly one sample — the CPRecycle
//! segment-extraction setting (paper §3.1), and more generally any hopping-window
//! spectral monitor with hop size 1 — recomputing a full FFT per window wastes a factor
//! of `log₂ N`: the DFT of the shifted window is a rank-1 update of the previous one,
//!
//! ```text
//! X_{t+1}[k] = (X_t[k] − x[t] + x[t+N]) · e^{+i2πk/N}
//! ```
//!
//! so all `N` bins advance in `O(N)` operations per one-sample slide instead of
//! `O(N log N)` per window. [`SlidingDft`] packages the recurrence as a reusable plan:
//! an embedded [`FftPlan`] seeds the first window, and precomputed per-bin twiddle
//! tables drive the slides. The recurrence is numerically benign over the window counts
//! OFDM receivers care about (tens of slides): every factor has unit magnitude, so
//! errors grow additively, not geometrically — the tests below bound the drift.

use crate::complex::Complex;
use crate::error::DspError;
use crate::fft::FftPlan;
use crate::Result;

/// A reusable sliding-DFT plan for one power-of-two window length.
///
/// The plan owns the per-bin slide twiddles `e^{±i2πk/N}` and an [`FftPlan`] for
/// seeding the first window, so any number of sliding traversals can run without
/// further trigonometric work.
///
/// ```
/// use rfdsp::sliding::SlidingDft;
/// use rfdsp::Complex;
///
/// let n = 8;
/// let plan = SlidingDft::new(n);
/// let x: Vec<Complex> = (0..n + 3).map(|t| Complex::new(t as f64, -(t as f64))).collect();
///
/// // Seed with the first window, then slide three times.
/// let mut spectrum = plan.plan().fft(&x[..n]);
/// for t in 0..3 {
///     plan.slide(&mut spectrum, x[t], x[t + n]).unwrap();
/// }
/// // The slid spectrum equals a fresh FFT of the final window.
/// let fresh = plan.plan().fft(&x[3..3 + n]);
/// for (a, b) in spectrum.iter().zip(&fresh) {
///     assert!((*a - *b).norm() < 1e-9);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct SlidingDft {
    plan: FftPlan,
    /// `e^{+i2πk/N}` per bin: the factor applied when the window advances one sample.
    advance: Vec<Complex>,
    /// `e^{−i2πk/N}` per bin: the conjugate table, used by callers that maintain a
    /// per-bin phase ramp shrinking as the window advances (CPRecycle Eq. 2).
    retreat: Vec<Complex>,
    /// Split-plane `f32` copies of `advance` for the reduced-precision slide kernel.
    advance_re32: Vec<f32>,
    advance_im32: Vec<f32>,
    /// Split-plane `f32` copies of `retreat` for reduced-precision ramp maintenance.
    retreat_re32: Vec<f32>,
    retreat_im32: Vec<f32>,
}

impl SlidingDft {
    /// Creates a plan for windows of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or not a power of two (the seed FFT's constraint).
    pub fn new(n: usize) -> Self {
        let plan = FftPlan::new(n);
        let mut advance = Vec::with_capacity(n);
        let mut retreat = Vec::with_capacity(n);
        for k in 0..n {
            let theta = 2.0 * std::f64::consts::PI * k as f64 / n as f64;
            advance.push(Complex::cis(theta));
            retreat.push(Complex::cis(-theta));
        }
        let advance_re32 = advance.iter().map(|w| w.re as f32).collect();
        let advance_im32 = advance.iter().map(|w| w.im as f32).collect();
        let retreat_re32 = retreat.iter().map(|w| w.re as f32).collect();
        let retreat_im32 = retreat.iter().map(|w| w.im as f32).collect();
        SlidingDft {
            plan,
            advance,
            retreat,
            advance_re32,
            advance_im32,
            retreat_re32,
            retreat_im32,
        }
    }

    /// Window length this plan was built for.
    #[inline]
    pub fn len(&self) -> usize {
        self.plan.len()
    }

    /// Returns `true` if the plan length is zero (never the case for a constructed
    /// plan, provided for API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.plan.is_empty()
    }

    /// The embedded FFT plan, for seeding the first window.
    #[inline]
    pub fn plan(&self) -> &FftPlan {
        &self.plan
    }

    /// The per-bin advance twiddles `e^{+i2πk/N}` applied by [`slide`](Self::slide).
    #[inline]
    pub fn advance_twiddles(&self) -> &[Complex] {
        &self.advance
    }

    /// The per-bin conjugate twiddles `e^{−i2πk/N}` — the step a caller-maintained
    /// phase ramp takes when the window advances one sample (each bin's residual cyclic
    /// shift shrinks by one sample).
    #[inline]
    pub fn retreat_twiddles(&self) -> &[Complex] {
        &self.retreat
    }

    /// Split-plane `f32` view of the retreat twiddles, for callers maintaining a
    /// reduced-precision phase ramp (`(re, im)` planes).
    #[inline]
    pub fn retreat_twiddles_f32(&self) -> (&[f32], &[f32]) {
        (&self.retreat_re32, &self.retreat_im32)
    }

    /// Advances `spectrum` from the DFT of window `x[t..t+N]` to the DFT of window
    /// `x[t+1..t+N+1]` in `O(N)`: `outgoing` is `x[t]` (the sample leaving the window)
    /// and `incoming` is `x[t+N]` (the sample entering it).
    ///
    /// The per-bin update runs lane-parallel (autovectorized chunks, or the
    /// runtime-detected AVX2 kernel on capable x86-64) and is bit-for-bit identical
    /// to the scalar recurrence — see [`crate::simd::slide_update`].
    pub fn slide(
        &self,
        spectrum: &mut [Complex],
        outgoing: Complex,
        incoming: Complex,
    ) -> Result<()> {
        if spectrum.len() != self.len() {
            return Err(DspError::LengthMismatch {
                expected: self.len(),
                actual: spectrum.len(),
            });
        }
        let delta = incoming - outgoing;
        crate::simd::slide_update(spectrum, delta, &self.advance);
        Ok(())
    }

    /// The reduced-precision slide kernel: the same rank-1 update as
    /// [`slide`](Self::slide), over **split `f32` re/im planes** — the
    /// `KernelPrecision::F32` variant of the sliding DFT. The f64 path remains the
    /// reference; tolerance against it is pinned by `tests/simd_equivalence.rs`.
    ///
    /// `outgoing`/`incoming` are `(re, im)` pairs of the samples leaving/entering the
    /// window.
    pub fn slide_f32(
        &self,
        spectrum_re: &mut [f32],
        spectrum_im: &mut [f32],
        outgoing: (f32, f32),
        incoming: (f32, f32),
    ) -> Result<()> {
        if spectrum_re.len() != self.len() || spectrum_im.len() != self.len() {
            return Err(DspError::LengthMismatch {
                expected: self.len(),
                actual: spectrum_re.len().min(spectrum_im.len()),
            });
        }
        let dre = incoming.0 - outgoing.0;
        let dim = incoming.1 - outgoing.1;
        use crate::lanes::LANES;
        let n = self.len();
        let main = n - n % LANES;
        for c in (0..main).step_by(LANES) {
            let mut ar = [0.0f32; LANES];
            let mut ai = [0.0f32; LANES];
            for l in 0..LANES {
                ar[l] = spectrum_re[c + l] + dre;
                ai[l] = spectrum_im[c + l] + dim;
            }
            for l in 0..LANES {
                let wr = self.advance_re32[c + l];
                let wi = self.advance_im32[c + l];
                spectrum_re[c + l] = ar[l] * wr - ai[l] * wi;
                spectrum_im[c + l] = ar[l] * wi + ai[l] * wr;
            }
        }
        for k in main..n {
            let ar = spectrum_re[k] + dre;
            let ai = spectrum_im[k] + dim;
            let wr = self.advance_re32[k];
            let wi = self.advance_im32[k];
            spectrum_re[k] = ar * wr - ai * wi;
            spectrum_im[k] = ar * wi + ai * wr;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::GaussianSource;
    use rand::SeedableRng;

    fn random_signal(len: usize, seed: u64) -> Vec<Complex> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut gauss = GaussianSource::new();
        (0..len)
            .map(|_| gauss.complex_sample(&mut rng, 1.0))
            .collect()
    }

    #[test]
    fn one_slide_matches_fresh_fft() {
        for n in [2usize, 8, 64, 128] {
            let plan = SlidingDft::new(n);
            let x = random_signal(n + 1, n as u64);
            let mut spectrum = plan.plan().fft(&x[..n]);
            plan.slide(&mut spectrum, x[0], x[n]).unwrap();
            let fresh = plan.plan().fft(&x[1..n + 1]);
            for (k, (a, b)) in spectrum.iter().zip(&fresh).enumerate() {
                assert!((*a - *b).norm() < 1e-9, "n {n}, bin {k}");
            }
        }
    }

    #[test]
    fn many_slides_stay_close_to_direct_ffts() {
        // CPRecycle slides up to C times per symbol (16 for 802.11a/g, 128 for the
        // 160 MHz long guard interval); check error stays far below the 1e-9
        // agreement budget over a much longer traversal.
        let n = 64;
        let slides = 1024;
        let plan = SlidingDft::new(n);
        let x = random_signal(n + slides, 7);
        let mut spectrum = plan.plan().fft(&x[..n]);
        for t in 0..slides {
            plan.slide(&mut spectrum, x[t], x[t + n]).unwrap();
        }
        let fresh = plan.plan().fft(&x[slides..slides + n]);
        for (k, (a, b)) in spectrum.iter().zip(&fresh).enumerate() {
            assert!((*a - *b).norm() < 1e-10, "bin {k} drifted: {a} vs {b}");
        }
    }

    #[test]
    fn twiddle_tables_are_consistent() {
        let n = 16;
        let plan = SlidingDft::new(n);
        assert_eq!(plan.len(), n);
        assert!(!plan.is_empty());
        assert_eq!(plan.advance_twiddles().len(), n);
        assert_eq!(plan.retreat_twiddles().len(), n);
        for k in 0..n {
            let product = plan.advance_twiddles()[k] * plan.retreat_twiddles()[k];
            assert!((product - Complex::one()).norm() < 1e-12, "bin {k}");
            assert!((plan.advance_twiddles()[k].norm() - 1.0).abs() < 1e-12);
        }
        assert_eq!(plan.advance_twiddles()[0], Complex::one());
    }

    #[test]
    fn f32_slide_tracks_the_f64_reference() {
        let n = 64;
        let slides = 16; // one 802.11a/g CP worth of slides
        let plan = SlidingDft::new(n);
        let x = random_signal(n + slides, 42);
        let mut spectrum = plan.plan().fft(&x[..n]);
        let mut re32: Vec<f32> = spectrum.iter().map(|s| s.re as f32).collect();
        let mut im32: Vec<f32> = spectrum.iter().map(|s| s.im as f32).collect();
        for t in 0..slides {
            plan.slide(&mut spectrum, x[t], x[t + n]).unwrap();
            plan.slide_f32(
                &mut re32,
                &mut im32,
                (x[t].re as f32, x[t].im as f32),
                (x[t + n].re as f32, x[t + n].im as f32),
            )
            .unwrap();
        }
        // f32 has ~1e-7 relative precision; over 16 additive slides the drift stays
        // well inside 1e-4 on unit-power signals.
        for k in 0..n {
            let err = ((re32[k] as f64 - spectrum[k].re).powi(2)
                + (im32[k] as f64 - spectrum[k].im).powi(2))
            .sqrt();
            assert!(err < 1e-4, "bin {k}: err {err}");
        }
    }

    #[test]
    fn f32_slide_rejects_wrong_lengths() {
        let plan = SlidingDft::new(8);
        let mut re = vec![0.0f32; 4];
        let mut im = vec![0.0f32; 8];
        assert!(plan
            .slide_f32(&mut re, &mut im, (0.0, 0.0), (0.0, 0.0))
            .is_err());
        let (rre, rim) = plan.retreat_twiddles_f32();
        assert_eq!(rre.len(), 8);
        assert_eq!(rim.len(), 8);
    }

    #[test]
    fn wrong_spectrum_length_is_error() {
        let plan = SlidingDft::new(8);
        let mut short = vec![Complex::zero(); 4];
        assert_eq!(
            plan.slide(&mut short, Complex::zero(), Complex::zero()),
            Err(DspError::LengthMismatch {
                expected: 8,
                actual: 4
            })
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        let _ = SlidingDft::new(12);
    }
}
