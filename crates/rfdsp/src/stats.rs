//! Descriptive statistics, empirical distributions and correlation.
//!
//! These helpers back three quite different consumers:
//!
//! * the **experiment harness** (packet-success-rate aggregation, CDF plots such as the
//!   paper's Fig. 6b and Fig. 13),
//! * the **ISI-free-region detector** (normalised correlation between the cyclic prefix
//!   and the symbol tail, paper §6),
//! * the **kernel density machinery** (sample standard deviation / IQR feed the
//!   bandwidth selectors in [`crate::kde`]).

use crate::complex::Complex;
use crate::error::DspError;
use crate::Result;

/// Arithmetic mean of a slice. Errors on empty input.
pub fn mean(xs: &[f64]) -> Result<f64> {
    if xs.is_empty() {
        return Err(DspError::EmptyInput);
    }
    Ok(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Population variance (`1/N` normalisation). Errors on empty input.
pub fn variance(xs: &[f64]) -> Result<f64> {
    let m = mean(xs)?;
    Ok(xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64)
}

/// Sample variance (`1/(N−1)` normalisation). Errors unless at least two samples are given.
pub fn sample_variance(xs: &[f64]) -> Result<f64> {
    if xs.len() < 2 {
        return Err(DspError::invalid(
            "xs",
            "sample variance needs at least 2 samples",
        ));
    }
    let m = mean(xs)?;
    Ok(xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64)
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> Result<f64> {
    Ok(variance(xs)?.sqrt())
}

/// Sample standard deviation (`1/(N−1)`), the quantity Silverman's bandwidth rule uses.
pub fn sample_std_dev(xs: &[f64]) -> Result<f64> {
    Ok(sample_variance(xs)?.sqrt())
}

/// Linear-interpolation percentile, `p` in `[0, 100]`.
pub fn percentile(xs: &[f64], p: f64) -> Result<f64> {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    percentile_of_sorted(&sorted, p)
}

/// [`percentile`] over **already-sorted** input — the allocation-free variant hot
/// paths use with a caller-owned sort scratch (see `kde::select_bandwidth_scratch`).
pub fn percentile_of_sorted(sorted: &[f64], p: f64) -> Result<f64> {
    if sorted.is_empty() {
        return Err(DspError::EmptyInput);
    }
    if !(0.0..=100.0).contains(&p) {
        return Err(DspError::invalid("p", "percentile must be in [0, 100]"));
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        Ok(sorted[lo])
    } else {
        let frac = rank - lo as f64;
        Ok(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

/// Interquartile range (75th − 25th percentile), used by robust bandwidth selection.
pub fn iqr(xs: &[f64]) -> Result<f64> {
    Ok(percentile(xs, 75.0)? - percentile(xs, 25.0)?)
}

/// [`iqr`] over **already-sorted** input (allocation-free).
pub fn iqr_of_sorted(sorted: &[f64]) -> Result<f64> {
    Ok(percentile_of_sorted(sorted, 75.0)? - percentile_of_sorted(sorted, 25.0)?)
}

/// Minimum of a slice. Errors on empty input.
pub fn min(xs: &[f64]) -> Result<f64> {
    xs.iter()
        .copied()
        .fold(None, |acc: Option<f64>, x| {
            Some(acc.map_or(x, |a| a.min(x)))
        })
        .ok_or(DspError::EmptyInput)
}

/// Maximum of a slice. Errors on empty input.
pub fn max(xs: &[f64]) -> Result<f64> {
    xs.iter()
        .copied()
        .fold(None, |acc: Option<f64>, x| {
            Some(acc.map_or(x, |a| a.max(x)))
        })
        .ok_or(DspError::EmptyInput)
}

/// Pearson correlation coefficient between two equally-long slices.
pub fn pearson_correlation(xs: &[f64], ys: &[f64]) -> Result<f64> {
    if xs.len() != ys.len() {
        return Err(DspError::LengthMismatch {
            expected: xs.len(),
            actual: ys.len(),
        });
    }
    if xs.is_empty() {
        return Err(DspError::EmptyInput);
    }
    let mx = mean(xs)?;
    let my = mean(ys)?;
    let mut num = 0.0;
    let mut dx = 0.0;
    let mut dy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        num += (x - mx) * (y - my);
        dx += (x - mx) * (x - mx);
        dy += (y - my) * (y - my);
    }
    let denom = (dx * dy).sqrt();
    if denom == 0.0 {
        Ok(0.0)
    } else {
        Ok(num / denom)
    }
}

/// Normalised complex cross-correlation magnitude between two windows,
/// `|Σ a·conj(b)| / sqrt(Σ|a|²·Σ|b|²)`, in `[0, 1]`.
///
/// This is the statistic the ISI-free-region detectors in the paper's §6 references
/// compute between the cyclic prefix and the corresponding symbol tail.
pub fn normalized_cross_correlation(a: &[Complex], b: &[Complex]) -> Result<f64> {
    if a.len() != b.len() {
        return Err(DspError::LengthMismatch {
            expected: a.len(),
            actual: b.len(),
        });
    }
    if a.is_empty() {
        return Err(DspError::EmptyInput);
    }
    let mut num = Complex::zero();
    let mut pa = 0.0;
    let mut pb = 0.0;
    for (x, y) in a.iter().zip(b) {
        num += *x * y.conj();
        pa += x.norm_sqr();
        pb += y.norm_sqr();
    }
    let denom = (pa * pb).sqrt();
    if denom == 0.0 {
        Ok(0.0)
    } else {
        Ok(num.norm() / denom)
    }
}

/// An empirical cumulative distribution function built from a sample set.
///
/// Evaluation uses the standard step definition `F(x) = #{samples ≤ x} / N`.
#[derive(Debug, Clone)]
pub struct EmpiricalCdf {
    sorted: Vec<f64>,
}

impl EmpiricalCdf {
    /// Builds a CDF from the given samples. Errors on empty input.
    pub fn new(samples: &[f64]) -> Result<Self> {
        if samples.is_empty() {
            return Err(DspError::EmptyInput);
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in CDF input"));
        Ok(EmpiricalCdf { sorted })
    }

    /// Fraction of samples less than or equal to `x`.
    pub fn eval(&self, x: f64) -> f64 {
        // partition_point returns the count of elements <= x given the sorted order.
        let count = self.sorted.partition_point(|v| *v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Inverse CDF (quantile function) for `q` in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        let idx = ((q * self.sorted.len() as f64).ceil() as usize).saturating_sub(1);
        self.sorted[idx.min(self.sorted.len() - 1)]
    }

    /// Number of underlying samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF was built from an empty sample set (never true after `new`).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Returns `(x, F(x))` pairs over the sample support — the series plotted in the
    /// paper's CDF figures.
    pub fn curve(&self) -> Vec<(f64, f64)> {
        self.sorted
            .iter()
            .enumerate()
            .map(|(i, x)| (*x, (i + 1) as f64 / self.sorted.len() as f64))
            .collect()
    }
}

/// Centroid (arithmetic mean) of a set of complex points — the sphere-decoder centre in
/// the paper's §4.2.
pub fn centroid(xs: &[Complex]) -> Result<Complex> {
    if xs.is_empty() {
        return Err(DspError::EmptyInput);
    }
    Ok(xs.iter().copied().sum::<Complex>() / xs.len() as f64)
}

/// A bivariate Gaussian fit `N(μ, Σ)` with a full 2×2 covariance — the cheap
/// parametric alternative to the product KDE in the interference-estimator sweep
/// (the `Gaussian` model backend): two means, two variances and one correlation
/// instead of `P·N_p` kernel samples per subcarrier.
///
/// The fit is regularised for the degenerate inputs a nearly interference-free
/// preamble produces: per-axis standard deviations are floored (`min_std_x/y`, the
/// same role as the KDE bandwidth floors) and the correlation is clamped to ±0.99 so
/// the covariance stays invertible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BivariateGaussian {
    mean_x: f64,
    mean_y: f64,
    /// Inverse-covariance entries (symmetric): `[xx, xy, yy]`.
    inv: [f64; 3],
    /// `−ln(2π√|Σ|)`, the log-pdf normalisation constant.
    log_norm: f64,
}

impl BivariateGaussian {
    /// Fits the Gaussian to paired samples, flooring the per-axis standard
    /// deviations at `min_std_x` / `min_std_y` (both must be positive).
    pub fn fit(xs: &[f64], ys: &[f64], min_std_x: f64, min_std_y: f64) -> Result<Self> {
        if xs.is_empty() {
            return Err(DspError::EmptyInput);
        }
        if xs.len() != ys.len() {
            return Err(DspError::invalid("ys", "axis sample counts must match"));
        }
        if min_std_x <= 0.0 || min_std_y <= 0.0 {
            return Err(DspError::invalid("min_std", "floors must be positive"));
        }
        let n = xs.len() as f64;
        let mean_x = xs.iter().sum::<f64>() / n;
        let mean_y = ys.iter().sum::<f64>() / n;
        let mut var_x = 0.0;
        let mut var_y = 0.0;
        let mut cov = 0.0;
        for (x, y) in xs.iter().zip(ys) {
            let dx = x - mean_x;
            let dy = y - mean_y;
            var_x += dx * dx;
            var_y += dy * dy;
            cov += dx * dy;
        }
        var_x = (var_x / n).max(min_std_x * min_std_x);
        var_y = (var_y / n).max(min_std_y * min_std_y);
        cov /= n;
        // Clamp the correlation so |Σ| stays safely positive.
        let max_cov = 0.99 * (var_x * var_y).sqrt();
        cov = cov.clamp(-max_cov, max_cov);
        let det = var_x * var_y - cov * cov;
        let inv_det = 1.0 / det;
        Ok(BivariateGaussian {
            mean_x,
            mean_y,
            inv: [var_y * inv_det, -cov * inv_det, var_x * inv_det],
            log_norm: -(2.0 * std::f64::consts::PI).ln() - 0.5 * det.ln(),
        })
    }

    /// The fitted mean vector `(μ_x, μ_y)`.
    pub fn mean(&self) -> (f64, f64) {
        (self.mean_x, self.mean_y)
    }

    /// Log of the true (normalised) probability density at `(x, y)`.
    pub fn log_pdf(&self, x: f64, y: f64) -> f64 {
        let dx = x - self.mean_x;
        let dy = y - self.mean_y;
        let quad = self.inv[0] * dx * dx + 2.0 * self.inv[1] * dx * dy + self.inv[2] * dy * dy;
        self.log_norm - 0.5 * quad
    }

    /// An upper bound on every value [`log_pdf`](Self::log_pdf) can return: the
    /// log peak density `−ln(2π√|Σ|)` plus rounding slack. The fit clamps the
    /// correlation to `|ρ| ≤ 0.99`, so the quadratic form stays non-negative in
    /// floating point.
    pub fn log_pdf_ceiling(&self) -> f64 {
        self.log_norm + 16.0 * f64::EPSILON * (1.0 + self.log_norm.abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_basic() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs).unwrap(), 2.5);
        assert_eq!(variance(&xs).unwrap(), 1.25);
        assert!((sample_variance(&xs).unwrap() - 5.0 / 3.0).abs() < 1e-12);
        assert!((std_dev(&xs).unwrap() - 1.25f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_error() {
        assert_eq!(mean(&[]), Err(DspError::EmptyInput));
        assert_eq!(percentile(&[], 50.0), Err(DspError::EmptyInput));
        assert_eq!(min(&[]), Err(DspError::EmptyInput));
        assert_eq!(max(&[]), Err(DspError::EmptyInput));
        assert!(centroid(&[]).is_err());
        assert!(EmpiricalCdf::new(&[]).is_err());
    }

    #[test]
    fn median_and_percentiles() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&xs, 50.0).unwrap(), 3.0);
        assert_eq!(percentile(&xs, 0.0).unwrap(), 1.0);
        assert_eq!(percentile(&xs, 100.0).unwrap(), 5.0);
        let even = [1.0, 2.0, 3.0, 4.0];
        // Even length: the average of the two middle elements.
        assert_eq!(percentile(&even, 50.0).unwrap(), 2.5);
        assert!(percentile(&xs, 101.0).is_err());
    }

    #[test]
    fn iqr_of_uniform_grid() {
        let xs: Vec<f64> = (0..101).map(|i| i as f64).collect();
        assert!((iqr(&xs).unwrap() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn sorted_variants_match_the_allocating_ones() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for p in [0.0, 17.0, 50.0, 75.0, 100.0] {
            assert_eq!(
                percentile(&xs, p).unwrap(),
                percentile_of_sorted(&sorted, p).unwrap()
            );
        }
        assert_eq!(iqr(&xs).unwrap(), iqr_of_sorted(&sorted).unwrap());
        assert!(percentile_of_sorted(&[], 50.0).is_err());
        assert!(percentile_of_sorted(&sorted, -1.0).is_err());
    }

    #[test]
    fn bivariate_gaussian_fit_recovers_moments() {
        // A tilted cloud: y correlated with x.
        let xs: Vec<f64> = (0..200).map(|i| (i as f64 / 200.0) * 4.0 - 2.0).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| 0.5 * x + (x * 37.0).sin() * 0.3)
            .collect();
        let g = BivariateGaussian::fit(&xs, &ys, 1e-3, 1e-3).unwrap();
        let (mx, my) = g.mean();
        assert!(mx.abs() < 0.05, "mean_x {mx}");
        assert!(my.abs() < 0.05, "mean_y {my}");
        // Density peaks at the mean and follows the correlation ridge: a point on the
        // ridge (y = x/2) is more likely than one the same distance off it.
        assert!(g.log_pdf(mx, my) > g.log_pdf(1.0, 0.5));
        assert!(g.log_pdf(1.0, 0.5) > g.log_pdf(1.0, -0.5));
    }

    #[test]
    fn bivariate_gaussian_handles_degenerate_samples() {
        // All samples identical: variances collapse to the floors, the density stays
        // finite and decreasing with distance.
        let xs = [0.2; 8];
        let ys = [-0.1; 8];
        let g = BivariateGaussian::fit(&xs, &ys, 0.05, 0.2).unwrap();
        let near = g.log_pdf(0.2, -0.1);
        let far = g.log_pdf(2.0, 1.0);
        assert!(near.is_finite() && far.is_finite());
        assert!(near > far);
        // Perfectly correlated samples: the clamp keeps Σ invertible.
        let xs2: Vec<f64> = (0..16).map(|i| i as f64 * 0.1).collect();
        let ys2: Vec<f64> = xs2.iter().map(|x| 2.0 * x).collect();
        let g2 = BivariateGaussian::fit(&xs2, &ys2, 1e-6, 1e-6).unwrap();
        assert!(g2.log_pdf(0.5, 1.0).is_finite());
        // Validation.
        assert!(BivariateGaussian::fit(&[], &[], 0.1, 0.1).is_err());
        assert!(BivariateGaussian::fit(&[1.0], &[], 0.1, 0.1).is_err());
        assert!(BivariateGaussian::fit(&[1.0], &[1.0], 0.0, 0.1).is_err());
    }

    #[test]
    fn min_max() {
        let xs = [3.0, -1.0, 7.5, 0.0];
        assert_eq!(min(&xs).unwrap(), -1.0);
        assert_eq!(max(&xs).unwrap(), 7.5);
    }

    #[test]
    fn correlation_of_linear_relation() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + 1.0).collect();
        let neg: Vec<f64> = xs.iter().map(|x| -2.0 * x).collect();
        assert!((pearson_correlation(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        assert!((pearson_correlation(&xs, &neg).unwrap() + 1.0).abs() < 1e-12);
        let constant = vec![2.0; 50];
        assert_eq!(pearson_correlation(&xs, &constant).unwrap(), 0.0);
    }

    #[test]
    fn correlation_length_mismatch() {
        assert!(pearson_correlation(&[1.0, 2.0], &[1.0]).is_err());
    }

    #[test]
    fn cross_correlation_of_identical_windows_is_one() {
        let a: Vec<Complex> = (0..16)
            .map(|i| Complex::new(i as f64, -(i as f64)))
            .collect();
        assert!((normalized_cross_correlation(&a, &a).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cross_correlation_of_orthogonal_windows_is_zero() {
        let a = vec![Complex::new(1.0, 0.0), Complex::new(1.0, 0.0)];
        let b = vec![Complex::new(1.0, 0.0), Complex::new(-1.0, 0.0)];
        assert!(normalized_cross_correlation(&a, &b).unwrap() < 1e-12);
    }

    #[test]
    fn cross_correlation_error_cases() {
        let a = vec![Complex::new(1.0, 0.0)];
        assert!(normalized_cross_correlation(&a, &[]).is_err());
        assert!(normalized_cross_correlation(&[], &[]).is_err());
        let z = vec![Complex::zero(); 4];
        assert_eq!(normalized_cross_correlation(&z, &z).unwrap(), 0.0);
    }

    #[test]
    fn empirical_cdf_step_values() {
        let cdf = EmpiricalCdf::new(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(cdf.eval(0.5), 0.0);
        assert_eq!(cdf.eval(1.0), 0.25);
        assert_eq!(cdf.eval(2.5), 0.5);
        assert_eq!(cdf.eval(4.0), 1.0);
        assert_eq!(cdf.eval(10.0), 1.0);
        assert_eq!(cdf.len(), 4);
        assert!(!cdf.is_empty());
    }

    #[test]
    fn empirical_cdf_quantiles() {
        let cdf = EmpiricalCdf::new(&[10.0, 20.0, 30.0, 40.0, 50.0]).unwrap();
        assert_eq!(cdf.quantile(0.0), 10.0);
        assert_eq!(cdf.quantile(0.5), 30.0);
        assert_eq!(cdf.quantile(1.0), 50.0);
        let curve = cdf.curve();
        assert_eq!(curve.len(), 5);
        assert_eq!(curve[4], (50.0, 1.0));
    }

    #[test]
    fn mean_power_and_centroid() {
        let xs = [
            Complex::new(1.0, 0.0),
            Complex::new(0.0, 1.0),
            Complex::new(-1.0, 0.0),
            Complex::new(0.0, -1.0),
        ];
        let c = centroid(&xs).unwrap();
        assert!(c.norm() < 1e-12);
    }
}
