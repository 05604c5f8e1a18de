//! Channel estimation and equalisation.
//!
//! The receiver forms a least-squares channel estimate from the two long training
//! symbols (average of `Y_ltf / X_ltf` per occupied subcarrier), equalises every data
//! symbol by dividing by the estimate, and removes the residual common phase error
//! tracked from the four pilot subcarriers. CPRecycle uses the *same* estimate for all
//! of its FFT segments — the ISI-free windows all see the same channel, which is why a
//! single per-packet estimate suffices (paper Eq. 1 divides every segment by `Ĥ`).

use crate::frame::pilot_values;
use crate::ofdm::OfdmEngine;
use crate::params::SubcarrierRole;
use crate::preamble;
use crate::{PhyError, Result};
use rfdsp::Complex;

/// A per-subcarrier channel estimate.
#[derive(Debug, Clone)]
pub struct ChannelEstimate {
    /// Estimated complex channel gain per FFT bin (unoccupied bins hold 1 so division
    /// is always safe; they carry no data).
    pub h: Vec<Complex>,
}

impl ChannelEstimate {
    /// An all-ones (identity) estimate, useful for tests and for the AWGN-only case.
    pub fn identity(fft_size: usize) -> Self {
        ChannelEstimate {
            h: vec![Complex::one(); fft_size],
        }
    }

    /// Estimates the channel from the 160-sample long training field.
    ///
    /// Both long training symbols are demodulated with the standard FFT window, averaged
    /// and divided by the known LTF sequence.
    pub fn from_ltf(engine: &OfdmEngine, ltf_samples: &[Complex]) -> Result<Self> {
        let params = engine.params();
        let f = params.fft_size;
        let gi2 = 2 * params.cp_len;
        let needed = gi2 + 2 * f;
        if ltf_samples.len() < needed {
            return Err(PhyError::InsufficientSamples {
                needed,
                available: ltf_samples.len(),
            });
        }
        let reference = preamble::ltf_bins(params);
        let plan = rfdsp::fft::FftPlan::new(f);
        let sym1 = plan.fft(&ltf_samples[gi2..gi2 + f]);
        let sym2 = plan.fft(&ltf_samples[gi2 + f..gi2 + 2 * f]);
        let mut h = vec![Complex::one(); f];
        for k in 0..f {
            if params.roles[k] == SubcarrierRole::Null || reference[k].norm_sqr() == 0.0 {
                continue;
            }
            let avg = (sym1[k] + sym2[k]).scale(0.5);
            h[k] = avg / reference[k];
        }
        Ok(ChannelEstimate { h })
    }

    /// Equalises a demodulated symbol (divides every bin by the channel estimate).
    pub fn equalize(&self, bins: &[Complex]) -> Result<Vec<Complex>> {
        if bins.len() != self.h.len() {
            return Err(PhyError::LengthMismatch {
                expected: self.h.len(),
                actual: bins.len(),
            });
        }
        Ok(bins
            .iter()
            .zip(&self.h)
            .map(|(y, h)| if h.norm_sqr() < 1e-12 { *y } else { *y / *h })
            .collect())
    }

    /// The multiplicative per-bin equalizer matching [`equalize`](Self::equalize):
    /// `1/ĥ` where the estimate is usable, `1` where it is degenerate (so degenerate
    /// bins pass through unchanged, exactly as `equalize` leaves them). Receivers that
    /// fold equalization into a fused per-bin factor (the sliding-DFT segment kernel)
    /// use this instead of dividing per observation.
    #[inline]
    pub fn inverse_gain(&self, bin: usize) -> Complex {
        let h = self.h[bin];
        if h.norm_sqr() < 1e-12 {
            Complex::one()
        } else {
            Complex::one() / h
        }
    }
}

/// Estimates the common phase error of one equalised symbol from its pilot subcarriers
/// and the known pilot polarity, returning the unit-magnitude correction factor to
/// multiply every subcarrier by.
pub fn common_phase_correction(
    engine: &OfdmEngine,
    equalized_bins: &[Complex],
    pilot_polarity: f64,
) -> Result<Complex> {
    let rx_pilots = engine.extract_pilots(equalized_bins)?;
    let reference = pilot_values(pilot_polarity);
    let mut acc = Complex::zero();
    for (rx, re) in rx_pilots.iter().zip(&reference) {
        acc += *rx * re.conj();
    }
    if acc.norm_sqr() == 0.0 {
        return Ok(Complex::one());
    }
    // The correction rotates the received pilots back onto the reference.
    Ok(Complex::cis(-acc.arg()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convcode::CodeRate;
    use crate::frame::{pilot_values, Mcs, Transmitter};
    use crate::modulation::Modulation;
    use crate::params::OfdmParams;
    use rand::SeedableRng;
    use wirelesschan::multipath::{FadingKind, MultipathChannel, PowerDelayProfile};

    fn engine() -> OfdmEngine {
        OfdmEngine::new(OfdmParams::ieee80211ag())
    }

    #[test]
    fn identity_estimate_is_transparent() {
        let est = ChannelEstimate::identity(64);
        let bins: Vec<Complex> = (0..64).map(|k| Complex::new(k as f64, -1.0)).collect();
        let eq = est.equalize(&bins).unwrap();
        for (a, b) in eq.iter().zip(&bins) {
            assert!((*a - *b).norm() < 1e-12);
        }
        assert!(est.equalize(&bins[..10]).is_err());
    }

    #[test]
    fn ltf_estimate_of_clean_channel_is_unity() {
        let e = engine();
        let ltf = preamble::generate_ltf(e.params());
        let est = ChannelEstimate::from_ltf(&e, &ltf).unwrap();
        for k in e.params().occupied_bins() {
            assert!((est.h[k] - Complex::one()).norm() < 1e-9, "bin {k}");
        }
        assert!(ChannelEstimate::from_ltf(&e, &ltf[..100]).is_err());
    }

    #[test]
    fn ltf_estimate_recovers_multipath_channel() {
        let e = engine();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let pdp = PowerDelayProfile::exponential(4, 1.5).unwrap();
        let chan = MultipathChannel::realize(&pdp, FadingKind::Rayleigh, &mut rng);
        // Prepend the STF so the convolution transient does not land in the LTF.
        let tx = Transmitter::new(OfdmParams::ieee80211ag());
        let frame = tx
            .build_frame(&[0u8; 20], Mcs::new(Modulation::Qpsk, CodeRate::Half), 0x5D)
            .unwrap();
        let rx = chan.apply(&frame.samples);
        let est = ChannelEstimate::from_ltf(&e, &rx[160..320]).unwrap();
        let truth = chan.frequency_response(64);
        for k in e.params().occupied_bins() {
            assert!(
                (est.h[k] - truth[k]).norm() < 1e-6,
                "bin {k}: est {} truth {}",
                est.h[k],
                truth[k]
            );
        }
    }

    #[test]
    fn equalization_inverts_the_channel() {
        let e = engine();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let pdp = PowerDelayProfile::exponential(3, 1.0).unwrap();
        let chan = MultipathChannel::realize(&pdp, FadingKind::Rayleigh, &mut rng);
        let truth = chan.frequency_response(64);
        let est = ChannelEstimate { h: truth.clone() };
        // A symbol whose bins are the channel response itself equalises to all ones.
        let eq = est.equalize(&truth).unwrap();
        for k in e.params().occupied_bins() {
            assert!((eq[k] - Complex::one()).norm() < 1e-9);
        }
    }

    #[test]
    fn common_phase_correction_recovers_rotation() {
        let e = engine();
        for polarity in [1.0, -1.0] {
            for phase in [-0.4f64, 0.0, 0.3, 1.0] {
                // Build a symbol whose pilots are the reference rotated by `phase`.
                let data = vec![Complex::one(); 48];
                let rotated_pilots: Vec<Complex> = pilot_values(polarity)
                    .iter()
                    .map(|p| *p * Complex::cis(phase))
                    .collect();
                let bins = e.assemble_bins(&data, &rotated_pilots).unwrap();
                let corr = common_phase_correction(&e, &bins, polarity).unwrap();
                assert!(
                    (corr - Complex::cis(-phase)).norm() < 1e-9,
                    "polarity {polarity} phase {phase}"
                );
            }
        }
    }

    #[test]
    fn common_phase_correction_of_zero_pilots_is_identity() {
        let e = engine();
        let bins = vec![Complex::zero(); 64];
        let corr = common_phase_correction(&e, &bins, 1.0).unwrap();
        assert_eq!(corr, Complex::one());
    }
}
