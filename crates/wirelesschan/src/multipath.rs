//! Tapped-delay-line multipath channels with indoor power-delay profiles.
//!
//! The entire premise of CPRecycle is that indoor delay spreads (tens to a few hundred
//! nanoseconds) are far smaller than the cyclic prefix the standards provision
//! (0.8 µs in 802.11a/g, ~4.7 µs in LTE), leaving `P = CP − delay_spread` ISI-free
//! samples. The models here let scenarios dial in exactly that relationship:
//!
//! * [`PowerDelayProfile`] — a set of (delay, average power) taps. Constructors cover
//!   a single-tap (flat) channel, an exponentially decaying profile with a chosen RMS
//!   delay spread, and the sample-spaced profile used by the experiments.
//! * [`MultipathChannel`] — a realisation of a PDP with Rayleigh or Rician tap fading,
//!   applied to a signal by direct convolution. The channel impulse response is frozen
//!   for the duration of a packet (block fading), matching the paper's per-packet
//!   channel estimation from the preamble.

use crate::{ChannelError, Result};
use rand::Rng;
use rfdsp::noise::GaussianSource;
use rfdsp::Complex;

/// Statistical distribution of each channel tap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FadingKind {
    /// Taps are fixed at the PDP amplitude with zero phase — deterministic, used for
    /// unit tests and for isolating interference effects from fading.
    Static,
    /// Each tap is a zero-mean circularly-symmetric complex Gaussian (Rayleigh
    /// magnitude) with variance equal to the PDP tap power.
    Rayleigh,
    /// First tap has a deterministic line-of-sight component with the given K-factor
    /// (linear power ratio of LOS to scattered power); remaining taps are Rayleigh.
    Rician {
        /// Ratio of line-of-sight power to scattered power (linear, not dB).
        k_factor: f64,
    },
}

/// A power-delay profile: average tap powers at integer sample delays.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerDelayProfile {
    /// `(delay_in_samples, linear_average_power)` pairs, sorted by delay.
    taps: Vec<(usize, f64)>,
}

impl PowerDelayProfile {
    /// Creates a profile from explicit `(delay, power)` taps. Powers are normalised so
    /// the total channel power is 1 (the channel neither amplifies nor attenuates on
    /// average; large-scale loss is handled by [`crate::pathloss`]).
    pub fn from_taps(mut taps: Vec<(usize, f64)>) -> Result<Self> {
        if taps.is_empty() {
            return Err(ChannelError::EmptyInput);
        }
        if taps.iter().any(|(_, p)| *p < 0.0) {
            return Err(ChannelError::invalid(
                "taps",
                "tap powers must be non-negative",
            ));
        }
        let total: f64 = taps.iter().map(|(_, p)| p).sum();
        if total <= 0.0 {
            return Err(ChannelError::invalid(
                "taps",
                "total tap power must be positive",
            ));
        }
        for t in taps.iter_mut() {
            t.1 /= total;
        }
        taps.sort_by_key(|t| t.0);
        Ok(PowerDelayProfile { taps })
    }

    /// A single-tap (frequency-flat) profile.
    pub fn flat() -> Self {
        PowerDelayProfile {
            taps: vec![(0, 1.0)],
        }
    }

    /// An exponentially decaying profile with `num_taps` sample-spaced taps and an RMS
    /// delay spread of `rms_delay_spread_samples` samples.
    ///
    /// For 802.11a/g at 20 MHz one sample is 50 ns, so typical indoor delay spreads of
    /// 30–150 ns correspond to roughly 0.6–3 samples — comfortably inside the 16-sample
    /// cyclic prefix, which is exactly the over-provisioning CPRecycle recycles.
    pub fn exponential(num_taps: usize, rms_delay_spread_samples: f64) -> Result<Self> {
        if num_taps == 0 {
            return Err(ChannelError::invalid("num_taps", "must be at least 1"));
        }
        if rms_delay_spread_samples < 0.0 {
            return Err(ChannelError::invalid(
                "rms_delay_spread_samples",
                "must be non-negative",
            ));
        }
        if num_taps == 1 || rms_delay_spread_samples < 1e-9 {
            return Ok(PowerDelayProfile::flat());
        }
        let taps = (0..num_taps)
            .map(|d| (d, (-(d as f64) / rms_delay_spread_samples).exp()))
            .collect();
        PowerDelayProfile::from_taps(taps)
    }

    /// The `(delay, power)` taps (normalised to unit total power).
    pub fn taps(&self) -> &[(usize, f64)] {
        &self.taps
    }

    /// Largest tap delay in samples — the quantity that must stay below the CP length
    /// for an ISI-free region to exist.
    pub fn max_delay(&self) -> usize {
        self.taps.last().map(|t| t.0).unwrap_or(0)
    }
}

/// A concrete multipath channel realisation (complex impulse response).
#[derive(Debug, Clone)]
pub struct MultipathChannel {
    /// Complex impulse response, indexed by sample delay.
    impulse_response: Vec<Complex>,
}

impl MultipathChannel {
    /// Draws a channel realisation from `pdp` with the given fading statistics.
    pub fn realize<R: Rng + ?Sized>(
        pdp: &PowerDelayProfile,
        fading: FadingKind,
        rng: &mut R,
    ) -> Self {
        let mut gauss = GaussianSource::new();
        let len = pdp.max_delay() + 1;
        let mut ir = vec![Complex::zero(); len];
        for (i, (delay, power)) in pdp.taps().iter().enumerate() {
            let tap = match fading {
                FadingKind::Static => Complex::new(power.sqrt(), 0.0),
                FadingKind::Rayleigh => gauss.complex_sample(rng, *power),
                FadingKind::Rician { k_factor } => {
                    if i == 0 {
                        let los_power = power * k_factor / (1.0 + k_factor);
                        let scatter_power = power / (1.0 + k_factor);
                        Complex::new(los_power.sqrt(), 0.0)
                            + gauss.complex_sample(rng, scatter_power)
                    } else {
                        gauss.complex_sample(rng, *power)
                    }
                }
            };
            ir[*delay] += tap;
        }
        MultipathChannel {
            impulse_response: ir,
        }
    }

    /// An identity (single unit tap) channel.
    pub fn identity() -> Self {
        MultipathChannel {
            impulse_response: vec![Complex::one()],
        }
    }

    /// The channel impulse response.
    pub fn impulse_response(&self) -> &[Complex] {
        &self.impulse_response
    }

    /// Number of taps (maximum excess delay + 1).
    pub fn num_taps(&self) -> usize {
        self.impulse_response.len()
    }

    /// Applies the channel to a signal by linear convolution, truncated to the input
    /// length (the tail that would spill past the end is dropped, as a receiver's
    /// acquisition window would).
    pub fn apply(&self, x: &[Complex]) -> Vec<Complex> {
        let n = x.len();
        let mut y = vec![Complex::zero(); n];
        for (d, h) in self.impulse_response.iter().enumerate() {
            if h.norm_sqr() == 0.0 {
                continue;
            }
            for i in d..n {
                y[i] += x[i - d] * *h;
            }
        }
        y
    }

    /// Frequency response of the channel over `fft_size` bins (what a per-subcarrier
    /// equalizer estimates from the preamble).
    pub fn frequency_response(&self, fft_size: usize) -> Vec<Complex> {
        (0..fft_size)
            .map(|k| {
                let mut h = Complex::zero();
                for (d, tap) in self.impulse_response.iter().enumerate() {
                    h += *tap
                        * Complex::cis(
                            -2.0 * std::f64::consts::PI * k as f64 * d as f64 / fft_size as f64,
                        );
                }
                h
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rfdsp::power::signal_power;

    #[test]
    fn pdp_from_taps_normalises_power() {
        let pdp = PowerDelayProfile::from_taps(vec![(0, 2.0), (3, 1.0), (1, 1.0)]).unwrap();
        let total: f64 = pdp.taps().iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Sorted by delay.
        assert_eq!(pdp.taps()[0].0, 0);
        assert_eq!(pdp.taps()[1].0, 1);
        assert_eq!(pdp.taps()[2].0, 3);
        assert_eq!(pdp.max_delay(), 3);
    }

    #[test]
    fn pdp_validation() {
        assert!(PowerDelayProfile::from_taps(vec![]).is_err());
        assert!(PowerDelayProfile::from_taps(vec![(0, -1.0)]).is_err());
        assert!(PowerDelayProfile::from_taps(vec![(0, 0.0)]).is_err());
        assert!(PowerDelayProfile::exponential(0, 1.0).is_err());
        assert!(PowerDelayProfile::exponential(4, -1.0).is_err());
    }

    #[test]
    fn flat_profile_has_zero_delay_spread() {
        let pdp = PowerDelayProfile::flat();
        assert_eq!(pdp.max_delay(), 0);
        assert_eq!(PowerDelayProfile::exponential(1, 5.0).unwrap(), pdp);
        assert_eq!(PowerDelayProfile::exponential(8, 0.0).unwrap(), pdp);
    }

    #[test]
    fn exponential_profile_decays() {
        let pdp = PowerDelayProfile::exponential(8, 2.0).unwrap();
        let taps = pdp.taps();
        for w in taps.windows(2) {
            assert!(w[0].1 > w[1].1);
        }
    }

    #[test]
    fn static_channel_preserves_power_on_average() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let pdp = PowerDelayProfile::exponential(4, 1.5).unwrap();
        let ch = MultipathChannel::realize(&pdp, FadingKind::Static, &mut rng);
        let x: Vec<Complex> = (0..2048).map(|t| Complex::cis(0.13 * t as f64)).collect();
        let y = ch.apply(&x);
        let px = signal_power(&x).unwrap();
        let py = signal_power(&y[16..]).unwrap();
        // Static taps are real sqrt powers; at this tone frequency they add nearly
        // coherently, so allow up to the coherent-gain bound (Σ√p)² ≈ 3.6.
        assert!(py > 0.2 * px && py < 4.0 * px, "px {px} py {py}");
    }

    #[test]
    fn rayleigh_channel_power_is_unity_on_average() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let pdp = PowerDelayProfile::exponential(5, 2.0).unwrap();
        let mut acc = 0.0;
        let trials = 2000;
        for _ in 0..trials {
            let ch = MultipathChannel::realize(&pdp, FadingKind::Rayleigh, &mut rng);
            acc += ch
                .impulse_response()
                .iter()
                .map(|h| h.norm_sqr())
                .sum::<f64>();
        }
        let avg = acc / trials as f64;
        assert!((avg - 1.0).abs() < 0.05, "avg channel power {avg}");
    }

    #[test]
    fn rician_k_factor_concentrates_first_tap() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let pdp = PowerDelayProfile::exponential(3, 1.0).unwrap();
        let mut strong_los = 0.0;
        let trials = 1000;
        for _ in 0..trials {
            let ch =
                MultipathChannel::realize(&pdp, FadingKind::Rician { k_factor: 20.0 }, &mut rng);
            strong_los += ch.impulse_response()[0].re;
        }
        // With K=20 the LOS component dominates, so the mean real part is clearly positive.
        assert!(strong_los / trials as f64 > 0.5);
    }

    #[test]
    fn identity_channel_is_transparent() {
        let ch = MultipathChannel::identity();
        let x: Vec<Complex> = (0..32).map(|i| Complex::new(i as f64, 1.0)).collect();
        assert_eq!(ch.apply(&x), x);
        assert_eq!(ch.num_taps(), 1);
    }

    #[test]
    fn from_impulse_response_and_delay() {
        let ch = MultipathChannel {
            impulse_response: vec![Complex::zero(), Complex::zero(), Complex::one()],
        };
        let mut x = vec![Complex::zero(); 8];
        x[0] = Complex::new(1.0, 0.0);
        let y = ch.apply(&x);
        assert_eq!(y[2], Complex::one());
        assert_eq!(y[0], Complex::zero());
    }

    #[test]
    fn frequency_response_of_identity_is_flat() {
        let ch = MultipathChannel::identity();
        for h in ch.frequency_response(64) {
            assert!((h - Complex::one()).norm() < 1e-12);
        }
    }

    #[test]
    fn frequency_response_of_two_tap_channel_has_notches() {
        // h = [1, 1] has nulls at odd multiples of half the sample rate.
        let ch = MultipathChannel {
            impulse_response: vec![Complex::one(), Complex::one()],
        };
        let h = ch.frequency_response(64);
        assert!((h[0].norm() - 2.0).abs() < 1e-12);
        assert!(h[32].norm() < 1e-12);
    }
}
