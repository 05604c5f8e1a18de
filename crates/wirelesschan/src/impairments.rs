//! Oscillator impairments: carrier frequency offset.

use crate::{ChannelError, Result};
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
