//! Transmitter front-end nonidealities.
//!
//! Adjacent-channel interference in the paper arises because a real transmitter "leaks
//! part of its power into the adjacent channels … due to imperfect filters at the
//! transmitters or due to intermodulation of signals" (§2.1). Two models reproduce
//! those mechanisms at baseband:
//!
//! * [`RappPa`] — the Rapp solid-state power-amplifier model. Driving an OFDM signal
//!   (high PAPR) close to saturation produces the spectral regrowth that spills energy
//!   into neighbouring channels.
//! * [`IqImbalance`] — gain/phase mismatch between the I and Q mixer arms, producing an
//!   image component.
//!
//! A composite [`TxFrontend`] applies both plus an optional transmit low-pass filter
//! (the "imperfect filter" knob: fewer taps → more out-of-band energy).

use crate::{ChannelError, Result};
use rfdsp::filter::FirFilter;
use rfdsp::Complex;

/// Rapp model of a solid-state power amplifier.
///
/// The AM/AM characteristic is `g(a) = a / (1 + (a/A_sat)^{2p})^{1/(2p)}`; the model has
/// no AM/PM conversion. Small `p` gives a soft knee (more distortion products), large
/// `p` approaches an ideal clipper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RappPa {
    /// Saturation amplitude `A_sat` (output amplitude asymptote).
    saturation_amplitude: f64,
    /// Knee smoothness factor `p` (typically 1–3 for real PAs).
    smoothness: f64,
}

impl RappPa {
    /// Creates a Rapp PA model.
    pub fn new(saturation_amplitude: f64, smoothness: f64) -> Result<Self> {
        if saturation_amplitude <= 0.0 {
            return Err(ChannelError::invalid(
                "saturation_amplitude",
                "must be positive",
            ));
        }
        if smoothness <= 0.0 {
            return Err(ChannelError::invalid("smoothness", "must be positive"));
        }
        Ok(RappPa {
            saturation_amplitude,
            smoothness,
        })
    }

    /// Creates a PA whose saturation point sits `backoff_db` above the RMS amplitude of
    /// a unit-power signal. Small back-off (e.g. 3 dB) produces significant spectral
    /// regrowth; large back-off (e.g. 12 dB) is nearly linear.
    pub fn with_backoff_db(backoff_db: f64, smoothness: f64) -> Result<Self> {
        let a_sat = 10f64.powf(backoff_db / 20.0);
        RappPa::new(a_sat, smoothness)
    }

    /// The AM/AM transfer function applied to one amplitude.
    #[inline]
    pub fn am_am(&self, amplitude: f64) -> f64 {
        let ratio = amplitude / self.saturation_amplitude;
        amplitude / (1.0 + ratio.powf(2.0 * self.smoothness)).powf(1.0 / (2.0 * self.smoothness))
    }

    /// Applies the PA to a signal in place.
    pub fn apply(&self, signal: &mut [Complex]) {
        for s in signal.iter_mut() {
            let a = s.norm();
            if a > 0.0 {
                let g = self.am_am(a) / a;
                *s = s.scale(g);
            }
        }
    }
}

/// Gain and phase imbalance between the I and Q arms of a quadrature modulator.
///
/// The impaired output is `y = μ·x + ν·conj(x)` with
/// `μ = (1 + g·e^{iφ})/2`, `ν = (1 − g·e^{iφ})/2`, producing an image-frequency
/// component `ν/μ` below the desired signal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IqImbalance {
    mu: Complex,
    nu: Complex,
}

impl IqImbalance {
    /// Creates an IQ imbalance with amplitude mismatch `gain_db` and phase mismatch
    /// `phase_deg` between the arms. `(0.0, 0.0)` is a perfect front end.
    pub fn new(gain_db: f64, phase_deg: f64) -> Self {
        let g = 10f64.powf(gain_db / 20.0);
        let phi = phase_deg.to_radians();
        let ge = Complex::from_polar(g, phi);
        let mu = (Complex::one() + ge).scale(0.5);
        let nu = (Complex::one() - ge).scale(0.5);
        IqImbalance { mu, nu }
    }

    /// Applies the imbalance to a signal in place.
    pub fn apply(&self, signal: &mut [Complex]) {
        for s in signal.iter_mut() {
            *s = self.mu * *s + self.nu * s.conj();
        }
    }
}

/// A composite transmit front end: optional transmit filter, PA, IQ imbalance.
#[derive(Debug, Clone)]
pub struct TxFrontend {
    /// Optional transmit pulse-shaping / mask filter. `None` models a transmitter whose
    /// filtering is ideal enough to be ignored at this sample rate.
    pub tx_filter: Option<FirFilter>,
    /// Optional PA nonlinearity.
    pub pa: Option<RappPa>,
    /// Optional IQ imbalance.
    pub iq: Option<IqImbalance>,
}

impl TxFrontend {
    /// A "leaky" front end representative of low-cost consumer hardware: a short
    /// (weakly selective) transmit filter, a PA at 4 dB back-off and a 25 dB image
    /// rejection — the configuration used to generate adjacent-channel leakage in the
    /// reproduction's ACI scenarios.
    pub fn consumer_grade() -> Self {
        TxFrontend {
            tx_filter: Some(
                FirFilter::lowpass_hamming(11, 0.45).expect("static parameters are valid"),
            ),
            pa: Some(RappPa::with_backoff_db(4.0, 2.0).expect("static parameters are valid")),
            iq: Some(IqImbalance::new(0.5, 2.0)),
        }
    }

    /// Applies the front end to a transmit waveform, returning the impaired waveform.
    ///
    /// The PA back-off is interpreted relative to the waveform's own RMS amplitude (the
    /// drive level), so the same front end produces the same relative distortion
    /// regardless of the absolute digital scale of the baseband samples.
    pub fn apply(&self, signal: &[Complex]) -> Vec<Complex> {
        let mut out = match &self.tx_filter {
            Some(f) => f.filter_same(signal),
            None => signal.to_vec(),
        };
        if let Some(pa) = &self.pa {
            let rms =
                (out.iter().map(|s| s.norm_sqr()).sum::<f64>() / out.len().max(1) as f64).sqrt();
            if rms > 0.0 {
                for s in out.iter_mut() {
                    *s = s.scale(1.0 / rms);
                }
                pa.apply(&mut out);
                for s in out.iter_mut() {
                    *s = s.scale(rms);
                }
            }
        }
        if let Some(iq) = &self.iq {
            iq.apply(&mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rfdsp::noise::GaussianSource;
    use rfdsp::power::{signal_power, welch_psd};

    #[test]
    fn rapp_validation() {
        assert!(RappPa::new(0.0, 2.0).is_err());
        assert!(RappPa::new(1.0, 0.0).is_err());
        assert!(RappPa::new(1.0, 2.0).is_ok());
    }

    #[test]
    fn rapp_is_linear_for_small_signals() {
        let pa = RappPa::new(1.0, 2.0).unwrap();
        for a in [0.001, 0.01, 0.05] {
            assert!((pa.am_am(a) - a).abs() / a < 0.01);
        }
    }

    #[test]
    fn rapp_saturates_large_signals() {
        let pa = RappPa::new(1.0, 2.0).unwrap();
        assert!(pa.am_am(10.0) < 1.05);
        assert!(pa.am_am(100.0) < 1.01);
        // Monotone increasing.
        let mut prev = 0.0;
        for i in 1..100 {
            let g = pa.am_am(i as f64 * 0.1);
            assert!(g >= prev);
            prev = g;
        }
    }

    #[test]
    fn rapp_apply_preserves_phase() {
        let pa = RappPa::new(1.0, 2.0).unwrap();
        let mut sig = vec![Complex::from_polar(3.0, 1.1)];
        pa.apply(&mut sig);
        assert!((sig[0].arg() - 1.1).abs() < 1e-12);
        assert!(sig[0].norm() < 3.0);
    }

    #[test]
    fn rapp_causes_spectral_regrowth() {
        // A band-limited Gaussian signal through a heavily driven PA gains out-of-band
        // power — the ACI mechanism from the paper.
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut g = GaussianSource::new();
        let raw = g.complex_vector(&mut rng, 8192, 1.0);
        let lp = FirFilter::lowpass_hamming(63, 0.1).unwrap();
        let band_limited = lp.filter_same(&raw);
        let mut amplified = band_limited.clone();
        RappPa::with_backoff_db(1.0, 2.0)
            .unwrap()
            .apply(&mut amplified);

        let oob_power = |x: &[Complex]| {
            let psd = welch_psd(x, 128).unwrap();
            // Out-of-band: bins corresponding to |f| > 0.25 cycles/sample.
            let oob: f64 = psd[32..96].iter().sum();
            let total: f64 = psd.iter().sum();
            oob / total
        };
        let before = oob_power(&band_limited);
        let after = oob_power(&amplified);
        assert!(
            after > 3.0 * before,
            "regrowth: before {before}, after {after}"
        );
    }

    /// Image rejection ratio in dB (power of the desired over the image component).
    fn image_rejection_db(iq: &IqImbalance) -> f64 {
        10.0 * (iq.mu.norm_sqr() / iq.nu.norm_sqr().max(1e-300)).log10()
    }

    #[test]
    fn iq_imbalance_perfect_case() {
        let iq = IqImbalance::new(0.0, 0.0);
        assert!(image_rejection_db(&iq) > 200.0);
        let mut sig = vec![Complex::new(1.0, 2.0)];
        iq.apply(&mut sig);
        assert!((sig[0] - Complex::new(1.0, 2.0)).norm() < 1e-12);
    }

    #[test]
    fn iq_imbalance_creates_image() {
        let iq = IqImbalance::new(1.0, 5.0);
        let irr = image_rejection_db(&iq);
        assert!(irr > 10.0 && irr < 40.0, "irr {irr}");
        // A positive-frequency tone gains a negative-frequency (conjugate) component.
        let n = 256;
        let tone: Vec<Complex> = (0..n)
            .map(|t| Complex::cis(2.0 * std::f64::consts::PI * 0.1 * t as f64))
            .collect();
        let mut impaired = tone.clone();
        iq.apply(&mut impaired);
        let image: Vec<Complex> = impaired
            .iter()
            .zip(&tone)
            .map(|(y, x)| *y - *x * Complex::cis(0.0))
            .collect();
        assert!(signal_power(&image).unwrap() > 1e-6);
    }

    #[test]
    fn ideal_frontend_is_transparent() {
        let fe = TxFrontend {
            tx_filter: None,
            pa: None,
            iq: None,
        };
        let sig: Vec<Complex> = (0..64).map(|t| Complex::cis(0.3 * t as f64)).collect();
        let out = fe.apply(&sig);
        for (a, b) in out.iter().zip(&sig) {
            assert!((*a - *b).norm() < 1e-12);
        }
    }

    #[test]
    fn consumer_grade_frontend_distorts() {
        let fe = TxFrontend::consumer_grade();
        let sig: Vec<Complex> = (0..256)
            .map(|t| Complex::cis(0.05 * t as f64).scale(1.5))
            .collect();
        let out = fe.apply(&sig);
        assert_eq!(out.len(), sig.len());
        let diff: Vec<Complex> = out.iter().zip(&sig).map(|(a, b)| *a - *b).collect();
        assert!(signal_power(&diff).unwrap() > 1e-4);
    }
}
