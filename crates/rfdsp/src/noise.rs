//! Gaussian and complex-AWGN sample generation.
//!
//! All noise in the reproduction is generated through [`GaussianSource`], a Box–Muller
//! transform driven by a caller-supplied [`rand::Rng`]. Keeping the RNG external means
//! every experiment is reproducible from a single seed, and the channel/receiver crates
//! never own hidden global randomness.

use crate::complex::Complex;
use rand::Rng;

/// A Box–Muller Gaussian sample generator with one-sample caching.
///
/// The Box–Muller transform produces samples in pairs; the second sample is cached so
/// consecutive calls are cheap and no entropy is wasted.
#[derive(Debug, Clone, Default)]
pub struct GaussianSource {
    cached: Option<f64>,
}

impl GaussianSource {
    /// Creates a new source with an empty cache.
    pub fn new() -> Self {
        GaussianSource { cached: None }
    }

    /// Draws one sample from `N(0, 1)`.
    pub fn standard<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        if let Some(v) = self.cached.take() {
            return v;
        }
        // Box–Muller: u1 in (0, 1], u2 in [0, 1)
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.cached = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Draws one sample from `N(mean, std_dev²)`.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard(rng)
    }

    /// Draws one circularly-symmetric complex Gaussian sample with total variance
    /// `variance` (i.e. each of the real and imaginary parts has variance `variance/2`).
    ///
    /// This is the standard model for complex AWGN: `E[|n|²] = variance`.
    pub fn complex_sample<R: Rng + ?Sized>(&mut self, rng: &mut R, variance: f64) -> Complex {
        let s = (variance / 2.0).sqrt();
        Complex::new(s * self.standard(rng), s * self.standard(rng))
    }

    /// Fills a vector with `n` circularly-symmetric complex Gaussian samples of total
    /// variance `variance`.
    pub fn complex_vector<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        n: usize,
        variance: f64,
    ) -> Vec<Complex> {
        (0..n).map(|_| self.complex_sample(rng, variance)).collect()
    }

    /// Adds complex AWGN of total variance `variance` to `signal` in place.
    pub fn add_awgn<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        signal: &mut [Complex],
        variance: f64,
    ) {
        for s in signal.iter_mut() {
            *s += self.complex_sample(rng, variance);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;
    use rand::SeedableRng;

    #[test]
    fn standard_normal_moments() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut g = GaussianSource::new();
        let xs: Vec<f64> = (0..200_000).map(|_| g.standard(&mut rng)).collect();
        let mean = stats::mean(&xs).unwrap();
        let var = stats::variance(&xs).unwrap();
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn scaled_normal_moments() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut g = GaussianSource::new();
        let xs: Vec<f64> = (0..100_000).map(|_| g.sample(&mut rng, 3.0, 2.0)).collect();
        assert!((stats::mean(&xs).unwrap() - 3.0).abs() < 0.05);
        assert!((stats::variance(&xs).unwrap() - 4.0).abs() < 0.1);
    }

    #[test]
    fn complex_noise_has_requested_power() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut g = GaussianSource::new();
        for var in [0.1, 1.0, 10.0] {
            let xs = g.complex_vector(&mut rng, 100_000, var);
            let p: f64 = xs.iter().map(|x| x.norm_sqr()).sum::<f64>() / xs.len() as f64;
            assert!((p - var).abs() / var < 0.05, "power {p} vs {var}");
        }
    }

    #[test]
    fn complex_noise_components_uncorrelated() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut g = GaussianSource::new();
        let xs = g.complex_vector(&mut rng, 100_000, 1.0);
        let re: Vec<f64> = xs.iter().map(|x| x.re).collect();
        let im: Vec<f64> = xs.iter().map(|x| x.im).collect();
        let corr = stats::pearson_correlation(&re, &im).unwrap();
        assert!(corr.abs() < 0.02, "correlation {corr}");
    }

    #[test]
    fn add_awgn_changes_signal_by_expected_power() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut g = GaussianSource::new();
        let clean = vec![Complex::new(1.0, 0.0); 50_000];
        let mut noisy = clean.clone();
        g.add_awgn(&mut rng, &mut noisy, 0.25);
        let err_power: f64 = noisy
            .iter()
            .zip(&clean)
            .map(|(a, b)| (*a - *b).norm_sqr())
            .sum::<f64>()
            / clean.len() as f64;
        assert!((err_power - 0.25).abs() < 0.02);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = GaussianSource::new();
        let mut b = GaussianSource::new();
        let mut rng_a = rand::rngs::StdRng::seed_from_u64(99);
        let mut rng_b = rand::rngs::StdRng::seed_from_u64(99);
        for _ in 0..100 {
            assert_eq!(a.standard(&mut rng_a), b.standard(&mut rng_b));
        }
    }
}
