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
        let retreat_re32 = retreat.iter().map(|w| w.re as f32).collect();
        let retreat_im32 = retreat.iter().map(|w| w.im as f32).collect();
        SlidingDft {
            plan,
            advance,
            retreat,
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
        let (rre, rim) = plan.retreat_twiddles_f32();
        assert_eq!(rre.len(), n);
        assert_eq!(rim.len(), n);
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
