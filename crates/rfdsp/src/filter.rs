//! FIR filter design and application.
//!
//! The channel simulator uses these filters to shape interferer spectra (transmit
//! spectral masks) and to model the imperfect front-end filtering the paper cites as one
//! cause of adjacent-channel leakage. Filters are designed with the windowed-sinc method
//! and applied by direct convolution (filter lengths here are a few tens of taps, so an
//! FFT-based convolution would not pay off).

use crate::complex::Complex;
use crate::error::DspError;
use crate::window;
use crate::Result;

/// A finite-impulse-response filter described by its real tap coefficients.
#[derive(Debug, Clone, PartialEq)]
pub struct FirFilter {
    taps: Vec<f64>,
}

impl FirFilter {
    /// Creates a filter directly from tap coefficients.
    pub fn from_taps(taps: Vec<f64>) -> Result<Self> {
        if taps.is_empty() {
            return Err(DspError::EmptyInput);
        }
        Ok(FirFilter { taps })
    }

    /// Designs a low-pass filter with the windowed-sinc method.
    ///
    /// * `num_taps` — filter length (odd lengths give exact linear phase with an
    ///   integer group delay; even lengths are accepted).
    /// * `cutoff` — normalised cutoff frequency in cycles/sample, in `(0, 0.5)`.
    /// * `win` — window applied to the ideal sinc response (e.g. [`window::hamming`]).
    pub fn lowpass(num_taps: usize, cutoff: f64, win: &[f64]) -> Result<Self> {
        if num_taps == 0 {
            return Err(DspError::invalid("num_taps", "must be at least 1"));
        }
        if !(0.0 < cutoff && cutoff < 0.5) {
            return Err(DspError::invalid(
                "cutoff",
                "must lie in (0, 0.5) cycles/sample",
            ));
        }
        if win.len() != num_taps {
            return Err(DspError::LengthMismatch {
                expected: num_taps,
                actual: win.len(),
            });
        }
        let center = (num_taps as f64 - 1.0) / 2.0;
        let mut taps: Vec<f64> = (0..num_taps)
            .map(|k| {
                let t = k as f64 - center;
                let sinc = if t.abs() < 1e-12 {
                    2.0 * cutoff
                } else {
                    (2.0 * std::f64::consts::PI * cutoff * t).sin() / (std::f64::consts::PI * t)
                };
                sinc * win[k]
            })
            .collect();
        // Normalise to unit DC gain.
        let dc: f64 = taps.iter().sum();
        for t in taps.iter_mut() {
            *t /= dc;
        }
        Ok(FirFilter { taps })
    }

    /// Convenience constructor: Hamming-windowed low-pass.
    pub fn lowpass_hamming(num_taps: usize, cutoff: f64) -> Result<Self> {
        Self::lowpass(num_taps, cutoff, &window::hamming(num_taps))
    }

    /// Convenience constructor: Kaiser-windowed low-pass with shape parameter `beta`.
    pub fn lowpass_kaiser(num_taps: usize, cutoff: f64, beta: f64) -> Result<Self> {
        Self::lowpass(num_taps, cutoff, &window::kaiser(num_taps, beta))
    }

    /// The filter's tap coefficients.
    pub fn taps(&self) -> &[f64] {
        &self.taps
    }

    /// Number of taps.
    pub fn len(&self) -> usize {
        self.taps.len()
    }

    /// True if the filter has no taps (never the case for a constructed filter).
    pub fn is_empty(&self) -> bool {
        self.taps.is_empty()
    }

    /// Filters a complex signal, returning an output of the same length
    /// ("same" convolution: the output is aligned with the input, i.e. the group delay
    /// is compensated by truncation at both ends, zero-padding at the edges).
    pub fn filter_same(&self, x: &[Complex]) -> Vec<Complex> {
        let full = self.filter_full(x);
        let delay = (self.taps.len() - 1) / 2;
        full[delay..delay + x.len()].to_vec()
    }

    /// Full convolution: output length is `x.len() + taps.len() − 1`.
    pub fn filter_full(&self, x: &[Complex]) -> Vec<Complex> {
        let n = x.len();
        let m = self.taps.len();
        if n == 0 {
            return Vec::new();
        }
        let mut y = vec![Complex::zero(); n + m - 1];
        for (i, &xi) in x.iter().enumerate() {
            for (j, &tj) in self.taps.iter().enumerate() {
                y[i + j] += xi.scale(tj);
            }
        }
        y
    }
}

/// Applies a complex frequency shift `x[t]·e^{i2π·freq·t}` (frequency in cycles/sample).
///
/// This is how the adjacent-channel interferer is moved to its channel offset relative
/// to the receiver's centre frequency before being added to the received waveform.
pub fn frequency_shift(x: &[Complex], freq: f64) -> Vec<Complex> {
    x.iter()
        .enumerate()
        .map(|(t, v)| *v * Complex::cis(2.0 * std::f64::consts::PI * freq * t as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::signal_power;

    #[test]
    fn from_taps_rejects_empty() {
        assert!(FirFilter::from_taps(vec![]).is_err());
        assert!(FirFilter::from_taps(vec![1.0]).is_ok());
    }

    #[test]
    fn lowpass_design_validation() {
        assert!(FirFilter::lowpass_hamming(0, 0.25).is_err());
        assert!(FirFilter::lowpass_hamming(31, 0.0).is_err());
        assert!(FirFilter::lowpass_hamming(31, 0.5).is_err());
        assert!(FirFilter::lowpass(31, 0.25, &[1.0; 30]).is_err());
        assert!(FirFilter::lowpass_hamming(31, 0.25).is_ok());
    }

    #[test]
    fn lowpass_has_unit_dc_gain() {
        let f = FirFilter::lowpass_hamming(41, 0.2).unwrap();
        let dc: f64 = f.taps().iter().sum();
        assert!((dc - 1.0).abs() < 1e-12);
        assert_eq!(f.len(), 41);
        assert!(!f.is_empty());
    }

    #[test]
    fn lowpass_taps_are_symmetric() {
        let f = FirFilter::lowpass_kaiser(33, 0.15, 8.0).unwrap();
        let t = f.taps();
        for i in 0..t.len() / 2 {
            assert!((t[i] - t[t.len() - 1 - i]).abs() < 1e-12);
        }
    }

    #[test]
    fn lowpass_passes_dc_and_attenuates_high_frequency() {
        let f = FirFilter::lowpass_hamming(63, 0.1).unwrap();
        let n = 512;
        let dc = vec![Complex::one(); n];
        let hf: Vec<Complex> = (0..n)
            .map(|t| Complex::cis(2.0 * std::f64::consts::PI * 0.4 * t as f64))
            .collect();
        let out_dc = f.filter_same(&dc);
        let out_hf = f.filter_same(&hf);
        // Ignore edge transients.
        let p_dc = signal_power(&out_dc[100..n - 100]).unwrap();
        let p_hf = signal_power(&out_hf[100..n - 100]).unwrap();
        assert!(p_dc > 0.99);
        assert!(p_hf < 1e-4, "stop-band power {p_hf}");
    }

    #[test]
    fn frequency_response_matches_behavior() {
        let f = FirFilter::lowpass_hamming(63, 0.1).unwrap();
        // |H(f)| in dB at `freq` cycles/sample, from the taps' DTFT.
        let gain_db = |freq: f64| {
            let mut h = Complex::zero();
            for (n, &t) in f.taps().iter().enumerate() {
                h += Complex::cis(-2.0 * std::f64::consts::PI * freq * n as f64).scale(t);
            }
            20.0 * h.norm().max(1e-30).log10()
        };
        assert!(gain_db(0.0) > -0.1);
        assert!(gain_db(0.4) < -40.0);
    }

    #[test]
    fn full_convolution_length_and_identity() {
        let ident = FirFilter::from_taps(vec![1.0]).unwrap();
        let x: Vec<Complex> = (0..10).map(|i| Complex::new(i as f64, 0.0)).collect();
        assert_eq!(ident.filter_full(&x), x);
        assert_eq!(ident.filter_same(&x), x);
        let f = FirFilter::from_taps(vec![0.5, 0.5]).unwrap();
        assert_eq!(f.filter_full(&x).len(), 11);
        assert!(f.filter_full(&[]).is_empty());
    }

    #[test]
    fn moving_average_smooths_impulse() {
        let f = FirFilter::from_taps(vec![0.25; 4]).unwrap();
        let mut x = vec![Complex::zero(); 8];
        x[3] = Complex::new(4.0, 0.0);
        let y = f.filter_full(&x);
        let expected_ones = &y[3..7];
        for v in expected_ones {
            assert!((v.re - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn frequency_shift_moves_tone() {
        let n = 256;
        let tone: Vec<Complex> = (0..n)
            .map(|t| Complex::cis(2.0 * std::f64::consts::PI * 0.1 * t as f64))
            .collect();
        let shifted = frequency_shift(&tone, 0.2);
        // The shifted tone should now sit at 0.3 cycles/sample.
        for (t, v) in shifted.iter().enumerate() {
            let expected = Complex::cis(2.0 * std::f64::consts::PI * 0.3 * t as f64);
            assert!((*v - expected).norm() < 1e-9);
        }
    }

    #[test]
    fn frequency_shift_preserves_power() {
        let x: Vec<Complex> = (0..128).map(|t| Complex::new(t as f64, 1.0)).collect();
        let y = frequency_shift(&x, 0.37);
        assert!((signal_power(&x).unwrap() - signal_power(&y).unwrap()).abs() < 1e-9);
    }
}
