//! Window functions.
//!
//! Windows are used in two places in the reproduction: Hann windows inside the Welch
//! PSD estimator, and Kaiser/Hamming windows for windowed-sinc FIR design in
//! [`crate::filter`] (transmit spectral-mask filters for the adjacent-channel-leakage
//! model). All functions return a `Vec<f64>` of the requested length; a length of zero
//! yields an empty vector and a length of one yields `[1.0]`, matching common DSP
//! library conventions.

use std::f64::consts::PI;

/// Hann window, `w[k] = 0.5 − 0.5·cos(2πk/(N−1))`.
pub fn hann(n: usize) -> Vec<f64> {
    generalized_cosine(n, &[0.5, 0.5])
}

/// Hamming window, `w[k] = 0.54 − 0.46·cos(2πk/(N−1))`.
pub fn hamming(n: usize) -> Vec<f64> {
    generalized_cosine(n, &[0.54, 0.46])
}

/// Kaiser window with shape parameter `beta`.
///
/// Larger `beta` trades main-lobe width for side-lobe suppression; `beta ≈ 8.6` gives
/// roughly 90 dB of stop-band attenuation when used for FIR design.
pub fn kaiser(n: usize, beta: f64) -> Vec<f64> {
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return vec![1.0];
    }
    let denom = bessel_i0(beta);
    let m = (n - 1) as f64;
    (0..n)
        .map(|k| {
            let r = 2.0 * k as f64 / m - 1.0;
            bessel_i0(beta * (1.0 - r * r).max(0.0).sqrt()) / denom
        })
        .collect()
}

/// Modified Bessel function of the first kind, order zero, via its power series.
///
/// Accurate to better than 1e-12 for the argument range used by Kaiser windows
/// (|x| ≲ 30).
pub fn bessel_i0(x: f64) -> f64 {
    let mut sum = 1.0;
    let mut term = 1.0;
    let half_x = x / 2.0;
    for k in 1..50 {
        term *= (half_x / k as f64) * (half_x / k as f64);
        sum += term;
        if term < 1e-16 * sum {
            break;
        }
    }
    sum
}

fn generalized_cosine(n: usize, coeffs: &[f64; 2]) -> Vec<f64> {
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return vec![1.0];
    }
    (0..n)
        .map(|k| coeffs[0] - coeffs[1] * (2.0 * PI * k as f64 / (n - 1) as f64).cos())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_lengths() {
        for f in [hann, hamming] {
            assert!(f(0).is_empty());
            assert_eq!(f(1), vec![1.0]);
        }
        assert!(kaiser(0, 5.0).is_empty());
        assert_eq!(kaiser(1, 5.0), vec![1.0]);
    }

    #[test]
    fn hann_endpoints_and_peak() {
        let w = hann(65);
        assert!(w[0].abs() < 1e-12);
        assert!(w[64].abs() < 1e-12);
        assert!((w[32] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hamming_endpoints() {
        let w = hamming(65);
        assert!((w[0] - 0.08).abs() < 1e-12);
        assert!((w[32] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn windows_are_symmetric() {
        for w in [hann(64), hamming(64), kaiser(64, 8.6)] {
            for i in 0..w.len() / 2 {
                assert!(
                    (w[i] - w[w.len() - 1 - i]).abs() < 1e-12,
                    "asymmetry at {i}"
                );
            }
        }
    }

    #[test]
    fn kaiser_beta_zero_is_rectangular() {
        let w = kaiser(16, 0.0);
        for v in w {
            assert!((v - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn kaiser_peak_at_center() {
        let w = kaiser(65, 8.6);
        assert!((w[32] - 1.0).abs() < 1e-12);
        assert!(w[0] < 0.01);
    }

    #[test]
    fn bessel_i0_reference_values() {
        // Reference values from Abramowitz & Stegun.
        assert!((bessel_i0(0.0) - 1.0).abs() < 1e-14);
        assert!((bessel_i0(1.0) - 1.2660658777520084).abs() < 1e-12);
        assert!((bessel_i0(2.0) - 2.2795853023360673).abs() < 1e-12);
        assert!((bessel_i0(5.0) - 27.239871823604442).abs() < 1e-9);
    }

    #[test]
    fn window_values_bounded() {
        for w in [hann(33), hamming(33), kaiser(33, 5.0)] {
            for v in w {
                assert!((-1e-12..=1.0 + 1e-12).contains(&v));
            }
        }
    }
}
