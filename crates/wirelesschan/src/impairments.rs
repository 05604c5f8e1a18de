//! Oscillator impairments: carrier frequency offset and Wiener phase noise.
//!
//! The paper's §3.3 lists phase noise as one of the reasons a naive Euclidean-distance
//! decoder fails, and §4.1 motivates decoupling amplitude and phase deviations in the
//! interference model. These impairments let scenarios stress exactly that behaviour.

use crate::{ChannelError, Result};
use rand::Rng;
use rfdsp::noise::GaussianSource;
use rfdsp::Complex;

/// Applies a carrier frequency offset of `cfo_hz` at `sample_rate_hz` to a signal,
/// starting from phase zero.
///
/// A CFO of `f` rotates sample `t` by `e^{i2π·f·t/fs}`. Residual CFO after coarse
/// correction is what the 802.11 pilot tracking loop removes.
pub fn apply_cfo(signal: &mut [Complex], cfo_hz: f64, sample_rate_hz: f64) -> Result<()> {
    if sample_rate_hz <= 0.0 {
        return Err(ChannelError::invalid("sample_rate_hz", "must be positive"));
    }
    let step = 2.0 * std::f64::consts::PI * cfo_hz / sample_rate_hz;
    for (t, s) in signal.iter_mut().enumerate() {
        *s *= Complex::cis(step * t as f64);
    }
    Ok(())
}

/// Wiener (random-walk) phase-noise process.
///
/// Each sample's phase increment is drawn from `N(0, 2π·linewidth/fs)`, the standard
/// Lorentzian-linewidth oscillator model; the accumulated phase multiplies the signal.
#[derive(Debug, Clone)]
pub struct WienerPhaseNoise {
    /// Oscillator 3-dB linewidth in Hz.
    linewidth_hz: f64,
    /// Sample rate in Hz.
    sample_rate_hz: f64,
}

impl WienerPhaseNoise {
    /// Creates a phase-noise process with the given linewidth and sample rate.
    pub fn new(linewidth_hz: f64, sample_rate_hz: f64) -> Result<Self> {
        if linewidth_hz < 0.0 {
            return Err(ChannelError::invalid(
                "linewidth_hz",
                "must be non-negative",
            ));
        }
        if sample_rate_hz <= 0.0 {
            return Err(ChannelError::invalid("sample_rate_hz", "must be positive"));
        }
        Ok(WienerPhaseNoise {
            linewidth_hz,
            sample_rate_hz,
        })
    }

    /// Applies one realisation of the phase-noise process to `signal` in place and
    /// returns the final accumulated phase (useful for chaining across packets).
    pub fn apply<R: Rng + ?Sized>(&self, rng: &mut R, signal: &mut [Complex]) -> f64 {
        let mut gauss = GaussianSource::new();
        let sigma = (2.0 * std::f64::consts::PI * self.linewidth_hz / self.sample_rate_hz).sqrt();
        let mut phase = 0.0;
        for s in signal.iter_mut() {
            phase += gauss.sample(rng, 0.0, sigma);
            *s *= Complex::cis(phase);
        }
        phase
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn cfo_rotates_constant_signal() {
        let mut sig = vec![Complex::one(); 100];
        apply_cfo(&mut sig, 1000.0, 20_000_000.0).unwrap();
        // After t samples phase = 2π·1000·t/20e6.
        let expected = Complex::cis(2.0 * std::f64::consts::PI * 1000.0 * 50.0 / 20e6);
        assert!((sig[50] - expected).norm() < 1e-12);
        assert_eq!(sig[0], Complex::one());
    }

    #[test]
    fn cfo_validation() {
        let mut sig = vec![Complex::one(); 4];
        assert!(apply_cfo(&mut sig, 100.0, 0.0).is_err());
        assert!(apply_cfo(&mut sig, 100.0, -5.0).is_err());
    }

    #[test]
    fn zero_cfo_is_identity() {
        let orig: Vec<Complex> = (0..32).map(|t| Complex::new(t as f64, -1.0)).collect();
        let mut sig = orig.clone();
        apply_cfo(&mut sig, 0.0, 20e6).unwrap();
        for (a, b) in sig.iter().zip(&orig) {
            assert!((*a - *b).norm() < 1e-12);
        }
    }

    #[test]
    fn phase_noise_preserves_magnitude() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let pn = WienerPhaseNoise::new(1000.0, 20e6).unwrap();
        let mut sig = vec![Complex::new(2.0, 0.0); 256];
        pn.apply(&mut rng, &mut sig);
        for s in &sig {
            assert!((s.norm() - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn phase_noise_variance_grows_with_linewidth() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let narrow = WienerPhaseNoise::new(10.0, 20e6).unwrap();
        let wide = WienerPhaseNoise::new(100_000.0, 20e6).unwrap();
        let mut a = vec![Complex::one(); 2000];
        let mut b = vec![Complex::one(); 2000];
        narrow.apply(&mut rng, &mut a);
        wide.apply(&mut rng, &mut b);
        let drift = |v: &[Complex]| v.last().unwrap().arg().abs();
        // Not strictly monotone per-realisation, but with these linewidths the wide
        // oscillator drifts orders of magnitude more.
        assert!(drift(&b) > drift(&a));
    }

    #[test]
    fn phase_noise_validation() {
        assert!(WienerPhaseNoise::new(-1.0, 20e6).is_err());
        assert!(WienerPhaseNoise::new(100.0, 0.0).is_err());
    }

    #[test]
    fn zero_linewidth_leaves_signal_unchanged() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let pn = WienerPhaseNoise::new(0.0, 20e6).unwrap();
        let orig: Vec<Complex> = (0..64).map(|t| Complex::cis(0.2 * t as f64)).collect();
        let mut sig = orig.clone();
        pn.apply(&mut rng, &mut sig);
        for (a, b) in sig.iter().zip(&orig) {
            assert!((*a - *b).norm() < 1e-12);
        }
    }
}
