//! Discrete Fourier transforms.
//!
//! OFDM modulation and demodulation reduce to repeated fixed-size FFTs (64 points for
//! 802.11a/g, up to 512 for 802.11ac, 2048 for LTE). [`FftPlan`] precomputes the
//! bit-reversal permutation and twiddle factors for one transform length and can then be
//! applied to any number of buffers without further allocation of trigonometric tables.
//!
//! Conventions (matching the paper's Eq. 1 and standard OFDM practice):
//!
//! * Forward FFT: `X[k] = Σ_t x[t]·e^{−i2πkt/N}` (no scaling).
//! * Inverse FFT: `x[t] = (1/N)·Σ_k X[k]·e^{+i2πkt/N}` (scaled by `1/N`).
//!
//! A direct `O(N²)` DFT is provided for odd or otherwise non-power-of-two lengths; it is
//! used only in tests and diagnostics, never on the per-symbol hot path.

use crate::complex::Complex;
use crate::error::DspError;
use crate::Result;

/// A reusable FFT plan for one power-of-two transform length.
///
/// The plan owns the twiddle-factor table and the bit-reversal permutation, so repeated
/// transforms only allocate their output buffer (or nothing at all when the in-place
/// entry points are used).
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    /// Twiddles for the forward transform: `e^{-i2πk/N}` for `k = 0..N/2`.
    twiddles_fwd: Vec<Complex>,
    /// Twiddles for the inverse transform: `e^{+i2πk/N}` for `k = 0..N/2`.
    twiddles_inv: Vec<Complex>,
    /// Bit-reversal permutation indices.
    bitrev: Vec<usize>,
}

impl FftPlan {
    /// Creates a plan for transforms of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or not a power of two. Use [`dft`] for arbitrary lengths.
    pub fn new(n: usize) -> Self {
        assert!(
            n > 0 && n.is_power_of_two(),
            "FFT length must be a power of two, got {n}"
        );
        let half = n / 2;
        let mut twiddles_fwd = Vec::with_capacity(half.max(1));
        let mut twiddles_inv = Vec::with_capacity(half.max(1));
        for k in 0..half.max(1) {
            let theta = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
            twiddles_fwd.push(Complex::cis(theta));
            twiddles_inv.push(Complex::cis(-theta));
        }
        let bits = n.trailing_zeros();
        let bitrev = if bits == 0 {
            vec![0]
        } else {
            (0..n)
                .map(|i| (i.reverse_bits() >> (usize::BITS - bits)) & (n - 1))
                .collect()
        };
        FftPlan {
            n,
            twiddles_fwd,
            twiddles_inv,
            bitrev,
        }
    }

    /// Transform length this plan was built for.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if the plan length is zero (never the case for a constructed plan,
    /// provided for API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// In-place forward FFT. `buf.len()` must equal the plan length.
    pub fn fft_in_place(&self, buf: &mut [Complex]) -> Result<()> {
        self.check_len(buf)?;
        self.transform(buf, false);
        Ok(())
    }

    /// In-place inverse FFT (includes the `1/N` scaling). `buf.len()` must equal the
    /// plan length.
    pub fn ifft_in_place(&self, buf: &mut [Complex]) -> Result<()> {
        self.check_len(buf)?;
        self.transform(buf, true);
        let scale = 1.0 / self.n as f64;
        for x in buf.iter_mut() {
            *x = x.scale(scale);
        }
        Ok(())
    }

    /// Forward FFT returning a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from the plan length (this is a programming
    /// error in fixed-size OFDM code; the in-place variants return a `Result` instead).
    pub fn fft(&self, input: &[Complex]) -> Vec<Complex> {
        let mut buf = input.to_vec();
        self.fft_in_place(&mut buf)
            .expect("fft: input length must match plan length");
        buf
    }

    /// Inverse FFT returning a new vector (includes the `1/N` scaling).
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from the plan length.
    pub fn ifft(&self, input: &[Complex]) -> Vec<Complex> {
        let mut buf = input.to_vec();
        self.ifft_in_place(&mut buf)
            .expect("ifft: input length must match plan length");
        buf
    }

    fn check_len(&self, buf: &[Complex]) -> Result<()> {
        if buf.len() != self.n {
            Err(DspError::LengthMismatch {
                expected: self.n,
                actual: buf.len(),
            })
        } else {
            Ok(())
        }
    }

    /// Iterative radix-2 decimation-in-time butterfly network.
    fn transform(&self, buf: &mut [Complex], inverse: bool) {
        let n = self.n;
        if n <= 1 {
            return;
        }
        // Bit-reversal permutation.
        for i in 0..n {
            let j = self.bitrev[i];
            if i < j {
                buf.swap(i, j);
            }
        }
        let twiddles = if inverse {
            &self.twiddles_inv
        } else {
            &self.twiddles_fwd
        };
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let step = n / len;
            let mut start = 0;
            while start < n {
                for k in 0..half {
                    let w = twiddles[k * step];
                    let a = buf[start + k];
                    let b = buf[start + k + half] * w;
                    buf[start + k] = a + b;
                    buf[start + k + half] = a - b;
                }
                start += len;
            }
            len <<= 1;
        }
    }
}

/// Direct `O(N²)` forward DFT for arbitrary lengths.
///
/// Used for validation and for the occasional odd-length diagnostic transform; OFDM hot
/// paths always use [`FftPlan`].
pub fn dft(input: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    let mut out = vec![Complex::zero(); n];
    for (k, o) in out.iter_mut().enumerate() {
        let mut acc = Complex::zero();
        for (t, x) in input.iter().enumerate() {
            let theta = -2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64;
            acc += *x * Complex::cis(theta);
        }
        *o = acc;
    }
    out
}

/// Direct `O(N²)` inverse DFT for arbitrary lengths (includes `1/N` scaling).
pub fn idft(input: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    let mut out = vec![Complex::zero(); n];
    for (t, o) in out.iter_mut().enumerate() {
        let mut acc = Complex::zero();
        for (k, x) in input.iter().enumerate() {
            let theta = 2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64;
            acc += *x * Complex::cis(theta);
        }
        *o = acc.scale(1.0 / n as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::GaussianSource;
    use rand::SeedableRng;

    fn assert_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((*x - *y).norm() < tol, "mismatch: {x} vs {y} (tol {tol})");
        }
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let n = 16;
        let plan = FftPlan::new(n);
        let mut x = vec![Complex::zero(); n];
        x[0] = Complex::one();
        let spec = plan.fft(&x);
        for s in spec {
            assert!((s - Complex::one()).norm() < 1e-12);
        }
    }

    #[test]
    fn single_tone_lands_on_one_bin() {
        let n = 64;
        let plan = FftPlan::new(n);
        for bin in [0usize, 1, 5, 31, 32, 63] {
            let x: Vec<Complex> = (0..n)
                .map(|t| {
                    Complex::cis(2.0 * std::f64::consts::PI * bin as f64 * t as f64 / n as f64)
                })
                .collect();
            let spec = plan.fft(&x);
            for (k, s) in spec.iter().enumerate() {
                if k == bin {
                    assert!((s.norm() - n as f64).abs() < 1e-9);
                } else {
                    assert!(s.norm() < 1e-9, "leakage at bin {k} for tone {bin}");
                }
            }
        }
    }

    #[test]
    fn fft_ifft_roundtrip_random() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut gauss = GaussianSource::new();
        for n in [2usize, 4, 8, 64, 128, 256] {
            let plan = FftPlan::new(n);
            let x: Vec<Complex> = (0..n)
                .map(|_| gauss.complex_sample(&mut rng, 1.0))
                .collect();
            let y = plan.ifft(&plan.fft(&x));
            assert_close(&x, &y, 1e-9);
        }
    }

    #[test]
    fn matches_direct_dft() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut gauss = GaussianSource::new();
        let n = 32;
        let plan = FftPlan::new(n);
        let x: Vec<Complex> = (0..n)
            .map(|_| gauss.complex_sample(&mut rng, 1.0))
            .collect();
        assert_close(&plan.fft(&x), &dft(&x), 1e-9);
        assert_close(&plan.ifft(&x), &idft(&x), 1e-9);
    }

    #[test]
    fn dft_idft_roundtrip_non_power_of_two() {
        let n = 12;
        let x: Vec<Complex> = (0..n)
            .map(|t| Complex::new(t as f64, -(t as f64) / 3.0))
            .collect();
        let y = idft(&dft(&x));
        assert_close(&x, &y, 1e-9);
    }

    #[test]
    fn parseval_energy_conserved() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut gauss = GaussianSource::new();
        let n = 128;
        let plan = FftPlan::new(n);
        let x: Vec<Complex> = (0..n)
            .map(|_| gauss.complex_sample(&mut rng, 1.0))
            .collect();
        let spec = plan.fft(&x);
        let et: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let ef: f64 = spec.iter().map(|v| v.norm_sqr()).sum::<f64>() / n as f64;
        assert!((et - ef).abs() < 1e-9 * et.max(1.0));
    }

    #[test]
    fn linearity() {
        let n = 16;
        let plan = FftPlan::new(n);
        let a: Vec<Complex> = (0..n).map(|t| Complex::new(t as f64, 0.0)).collect();
        let b: Vec<Complex> = (0..n).map(|t| Complex::new(0.0, (n - t) as f64)).collect();
        let sum: Vec<Complex> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        let fa = plan.fft(&a);
        let fb = plan.fft(&b);
        let fs = plan.fft(&sum);
        let fab: Vec<Complex> = fa.iter().zip(&fb).map(|(x, y)| *x + *y).collect();
        assert_close(&fs, &fab, 1e-9);
    }

    #[test]
    fn circular_time_shift_is_phase_ramp() {
        // The property CPRecycle Proposition 3.1 relies on: a cyclic shift in time is a
        // per-bin phase rotation in frequency.
        let n = 64;
        let shift = 5usize;
        let plan = FftPlan::new(n);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut gauss = GaussianSource::new();
        let x: Vec<Complex> = (0..n)
            .map(|_| gauss.complex_sample(&mut rng, 1.0))
            .collect();
        let shifted: Vec<Complex> = (0..n).map(|t| x[(t + shift) % n]).collect();
        let fx = plan.fft(&x);
        let fs = plan.fft(&shifted);
        for k in 0..n {
            let expected =
                fx[k] * Complex::cis(2.0 * std::f64::consts::PI * (k * shift) as f64 / n as f64);
            assert!((fs[k] - expected).norm() < 1e-9);
        }
    }

    #[test]
    fn in_place_wrong_length_is_error() {
        let plan = FftPlan::new(8);
        let mut buf = vec![Complex::zero(); 4];
        assert_eq!(
            plan.fft_in_place(&mut buf),
            Err(DspError::LengthMismatch {
                expected: 8,
                actual: 4
            })
        );
        assert_eq!(
            plan.ifft_in_place(&mut buf),
            Err(DspError::LengthMismatch {
                expected: 8,
                actual: 4
            })
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_plan_panics() {
        let _ = FftPlan::new(12);
    }

    #[test]
    fn length_one_plan_is_identity() {
        let plan = FftPlan::new(1);
        let x = vec![Complex::new(3.0, -2.0)];
        assert_eq!(plan.fft(&x), x);
        assert_eq!(plan.ifft(&x), x);
    }

    #[test]
    fn plan_len_reporting() {
        let plan = FftPlan::new(64);
        assert_eq!(plan.len(), 64);
        assert!(!plan.is_empty());
    }
}
