//! Power and decibel helpers plus a Welch periodogram.
//!
//! Every experiment in the paper is parameterised in decibels (SNR, SIR, interference
//! power per subcarrier, spectrum masks), so these conversions are centralised here and
//! used by the channel simulator to scale signals to exact SNR/SIR targets.

use crate::complex::Complex;
use crate::error::DspError;
use crate::fft::FftPlan;
use crate::window;
use crate::Result;

/// Converts a linear power ratio to decibels. Returns `-inf` for zero input.
#[inline]
pub fn lin_to_db(p: f64) -> f64 {
    10.0 * p.log10()
}

/// Converts decibels to a linear power ratio.
#[inline]
pub fn db_to_lin(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Average power (mean squared magnitude) of a complex signal.
pub fn signal_power(x: &[Complex]) -> Result<f64> {
    if x.is_empty() {
        return Err(DspError::EmptyInput);
    }
    Ok(x.iter().map(|v| v.norm_sqr()).sum::<f64>() / x.len() as f64)
}

/// Returns the linear gain that must be applied to `interferer` so that
/// `signal_power(signal) / signal_power(scaled interferer)` equals `sir_db`.
///
/// The scenario builders use this to place interferers at exact SIR operating points,
/// which is how the paper's x-axes (Figs. 8–12) are swept.
pub fn gain_for_sir(signal: &[Complex], interferer: &[Complex], sir_db: f64) -> Result<f64> {
    let ps = signal_power(signal)?;
    let pi = signal_power(interferer)?;
    if pi == 0.0 {
        return Err(DspError::invalid("interferer", "zero-power interferer"));
    }
    let target_pi = ps / db_to_lin(sir_db);
    Ok((target_pi / pi).sqrt())
}

/// Welch-averaged periodogram power spectral density estimate.
///
/// The signal is split into 50 %-overlapping Hann-windowed segments of length
/// `segment_len` (a power of two); the magnitude-squared FFTs are averaged. Output is a
/// vector of `segment_len` linear-power values ordered like FFT bins (DC first). Tests
/// use it to observe spectra: transmit-mask leakage and channel-select rejection.
pub fn welch_psd(x: &[Complex], segment_len: usize) -> Result<Vec<f64>> {
    if x.is_empty() {
        return Err(DspError::EmptyInput);
    }
    if !segment_len.is_power_of_two() || segment_len == 0 {
        return Err(DspError::UnsupportedLength(segment_len));
    }
    if x.len() < segment_len {
        return Err(DspError::LengthMismatch {
            expected: segment_len,
            actual: x.len(),
        });
    }
    let plan = FftPlan::new(segment_len);
    let win = window::hann(segment_len);
    // Normalisation chosen so that Σ_k PSD[k] equals the mean signal power
    // (Parseval-consistent; white noise of variance σ² integrates to σ²).
    let win_sum_sq: f64 = win.iter().map(|w| w * w).sum();
    let hop = segment_len / 2;
    let mut acc = vec![0.0; segment_len];
    let mut count = 0usize;
    let mut start = 0usize;
    let mut buf = vec![Complex::zero(); segment_len];
    while start + segment_len <= x.len() {
        for (i, b) in buf.iter_mut().enumerate() {
            *b = x[start + i].scale(win[i]);
        }
        plan.fft_in_place(&mut buf)?;
        for (a, b) in acc.iter_mut().zip(&buf) {
            *a += b.norm_sqr();
        }
        count += 1;
        start += hop;
    }
    let norm = 1.0 / (count as f64 * segment_len as f64 * win_sum_sq);
    for a in acc.iter_mut() {
        *a *= norm;
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::GaussianSource;
    use rand::SeedableRng;

    #[test]
    fn db_roundtrip() {
        for db in [-30.0, -10.0, 0.0, 3.0, 20.0] {
            assert!((lin_to_db(db_to_lin(db)) - db).abs() < 1e-12);
        }
        assert!((db_to_lin(3.0) - 1.9952623149688795).abs() < 1e-12);
        assert_eq!(db_to_lin(0.0), 1.0);
    }

    #[test]
    fn power_and_energy() {
        let x = vec![Complex::new(2.0, 0.0); 8];
        assert_eq!(signal_power(&x).unwrap(), 4.0);
        assert!(signal_power(&[]).is_err());
    }

    #[test]
    fn gain_for_sir_places_interferer_correctly() {
        let sig = vec![Complex::new(1.0, 0.0); 100];
        let intf = vec![Complex::new(0.5, 0.5); 100];
        for sir in [-20.0, -10.0, 0.0, 10.0] {
            let g = gain_for_sir(&sig, &intf, sir).unwrap();
            let scaled: Vec<Complex> = intf.iter().map(|x| x.scale(g)).collect();
            let measured = lin_to_db(signal_power(&sig).unwrap() / signal_power(&scaled).unwrap());
            assert!(
                (measured - sir).abs() < 1e-9,
                "sir {sir} measured {measured}"
            );
        }
        assert!(gain_for_sir(&sig, &[Complex::zero(); 4], 0.0).is_err());
    }

    #[test]
    fn welch_psd_of_white_noise_is_flat() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut g = GaussianSource::new();
        let x = g.complex_vector(&mut rng, 16384, 1.0);
        let psd = welch_psd(&x, 64).unwrap();
        let avg: f64 = psd.iter().sum::<f64>() / psd.len() as f64;
        // Total power of unit-variance noise should be ~1 when summed over bins/segment.
        let total: f64 = psd.iter().sum();
        assert!((total - 1.0).abs() < 0.15, "total {total}");
        for p in &psd {
            assert!(
                *p > 0.2 * avg && *p < 5.0 * avg,
                "non-flat PSD bin {p} vs avg {avg}"
            );
        }
    }

    #[test]
    fn welch_psd_of_tone_peaks_at_tone_bin() {
        let n = 4096;
        let seg = 128;
        let bin = 10usize; // relative to segment length
        let x: Vec<Complex> = (0..n)
            .map(|t| Complex::cis(2.0 * std::f64::consts::PI * bin as f64 * t as f64 / seg as f64))
            .collect();
        let psd = welch_psd(&x, seg).unwrap();
        let peak = psd
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(peak, bin);
    }

    #[test]
    fn welch_psd_error_cases() {
        let x = vec![Complex::one(); 32];
        assert!(welch_psd(&[], 16).is_err());
        assert!(welch_psd(&x, 12).is_err());
        assert!(welch_psd(&x, 64).is_err());
        assert!(welch_psd(&x, 16).is_ok());
    }
}
