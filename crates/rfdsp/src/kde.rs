//! Gaussian kernel density estimation.
//!
//! The heart of the CPRecycle interference model (paper §4.1, Eq. 4) is a **bivariate
//! Gaussian product kernel density estimate** over the amplitude deviation and phase
//! deviation of each FFT-segment observation from the transmitted lattice point:
//!
//! ```text
//! f(a, φ) = 1/(P·Np) · Σ_j  K_a((a − R_A^j)/B_a) · K_φ((φ − R_φ^j)/B_φ)
//! ```
//!
//! This module provides the generic machinery — univariate and bivariate product KDEs,
//! Silverman's rule-of-thumb and a data-driven (leave-one-out maximum-likelihood grid
//! search) bandwidth selector — while the `cprecycle` crate layers the per-subcarrier
//! interference-model bookkeeping on top.
//!
//! The kernels follow the paper's definition `K(u) = (1/2π)·e^{−u²/2}` (an unnormalised
//! Gaussian shape shared by both axes; the overall scaling cancels in the ML decoder's
//! `argmax`, and the likelihood comparisons only require values proportional to a
//! density).

use crate::error::DspError;
use crate::stats;
use crate::Result;

/// Strategy used to pick the kernel bandwidth(s).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BandwidthSelector {
    /// A fixed, caller-supplied bandwidth.
    Fixed(f64),
    /// Silverman's rule of thumb `1.06·min(σ̂, IQR/1.34)·n^{−1/5}` — a good default for
    /// unimodal data and the fallback when only one preamble is available.
    Silverman,
    /// Data-driven selection by leave-one-out log-likelihood over a multiplicative grid
    /// around the Silverman bandwidth. This is what the paper means by "the data driven
    /// approach … possible in the presence of at least two preambles".
    LeaveOneOut,
}

/// Gaussian kernel shape used throughout: `K(u) = (1/2π)·e^{−u²/2}`.
#[inline]
pub fn gaussian_kernel(u: f64) -> f64 {
    (1.0 / (2.0 * std::f64::consts::PI)) * (-0.5 * u * u).exp()
}

/// Silverman's rule-of-thumb bandwidth for a univariate sample.
///
/// Returns a small positive floor when the sample is degenerate (all values equal),
/// so that the resulting KDE is still evaluable.
///
/// `scratch` is a caller-owned sort buffer, so repeated selection (one call per
/// subcarrier per refit) performs no allocation once the scratch has grown to the
/// largest sample count.
pub fn silverman_bandwidth_scratch(samples: &[f64], scratch: &mut Vec<f64>) -> Result<f64> {
    if samples.is_empty() {
        return Err(DspError::EmptyInput);
    }
    if samples.len() == 1 {
        return Ok(1.0);
    }
    let sigma = stats::sample_std_dev(samples)?;
    scratch.clear();
    scratch.extend_from_slice(samples);
    // Unstable sort: in-place (a stable sort allocates a merge buffer, which would
    // defeat the scratch), and equal keys are interchangeable for percentiles.
    scratch.sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN in bandwidth input"));
    let iqr = stats::iqr_of_sorted(scratch)?;
    let spread = if iqr > 0.0 {
        sigma.min(iqr / 1.34)
    } else {
        sigma
    };
    let n = samples.len() as f64;
    let bw = 1.06 * spread * n.powf(-0.2);
    Ok(if bw > 1e-9 { bw } else { 1e-3 })
}

/// The leave-one-out grid: multiplicative factors around the Silverman pilot
/// bandwidth, in scoring order (a tie goes to the earlier factor).
const LOO_FACTORS: [f64; 9] = [0.25, 0.4, 0.6, 0.8, 1.0, 1.3, 1.7, 2.2, 3.0];

/// Floor under each leave-one-out density before its `ln`.
const LOO_DENSITY_FLOOR: f64 = 1e-300;

/// `gaussian_kernel`'s 1/2π and the leave-one-out mean's 1/((n−1)·B), applied
/// once per likelihood.
#[inline]
fn loo_norm(n: usize, bw: f64) -> f64 {
    1.0 / (2.0 * std::f64::consts::PI * (n - 1) as f64 * bw)
}

/// Leave-one-out log-likelihood of a univariate Gaussian KDE with bandwidth `bw`.
///
/// The `n(n−1)` leave-one-out kernels are symmetric, so each pair is evaluated
/// once, lane-parallel with the polynomial `exp` ([`crate::simd::loo_kernel_sums`]).
/// `scratch` is the workspace: `n` per-sample kernel sums followed by the `n`
/// samples whitened by `1/(√2·bw)` (hence `2·n` entries).
///
/// This is the score the leave-one-out selector maximises; since the screen of
/// [`select_bandwidth_scratch`] it runs only for the grid factors the screen
/// cannot separate.
fn loo_log_likelihood(samples: &[f64], bw: f64, scratch: &mut Vec<f64>) -> f64 {
    let n = samples.len();
    scratch.clear();
    scratch.resize(2 * n, 0.0);
    let (dens, scaled) = scratch.split_at_mut(n);
    let c = std::f64::consts::FRAC_1_SQRT_2 / bw;
    for (y, x) in scaled.iter_mut().zip(samples) {
        *y = x * c;
    }
    crate::simd::loo_kernel_sums(scaled, dens);
    let norm = loo_norm(n, bw);
    dens.iter()
        .map(|d| (d * norm).max(LOO_DENSITY_FLOOR).ln())
        .sum()
}

/// One grid factor's screened leave-one-out log-likelihood: the exact
/// [`loo_log_likelihood`] lies within `delta` of `ll`. `delta` is `∞` (and `ll`
/// meaningless) where the bound's premises fail.
#[derive(Clone, Copy)]
struct Screened {
    ll: f64,
    delta: f64,
}

impl Screened {
    const UNKNOWN: Screened = Screened {
        ll: f64::NAN,
        delta: f64::INFINITY,
    };
}

/// Absolute bound on one kernel term the screen and the exact path may disagree
/// on across the `exp` underflow cut: both arguments are then within
/// `ΔE ≤ 1e-3` of [`crate::lanes::EXP_UNDERFLOW`], so each term is at most
/// `exp(EXP_UNDERFLOW + 1e-3)·(1 + 1e-7) < 2.3e-308`.
const UNDERFLOW_TERM: f64 = 1e-307;

/// Screened leave-one-out log-likelihoods of all [`LOO_FACTORS`] at once, each
/// with a proven bound on its distance from [`loo_log_likelihood`]'s `f64`.
///
/// One pass of [`crate::simd::loo_screen_sums`] over the `n(n−1)/2` pairs of the
/// samples whitened by the pilot bandwidth produces every factor's kernel sums
/// with [`crate::lanes::exp_screen`]. `Σ_i ln(dens_i·norm)` is then taken as the
/// sum of the densities' exponent fields, one `ln` of their mantissa product and
/// `n·ln(norm)`, so a factor costs two `ln`s instead of `n`. `scratch` holds the
/// `n` whitened samples followed by `SCREEN_LANES·n` lane-interleaved sums.
///
/// **The bound.** With `u = 2⁻⁵³`, `Y` the largest `|x|/(√2·bw)` and `U` a
/// pair's exact whitened distance, both paths round the pair's kernel exponent to
/// within `ΔE = 4u·(216·Y + 7290)` of `U²` wherever either kernel is nonzero
/// (`|U| ≤ 26.7`), so with [`crate::lanes::EXP_SCREEN_REL_ERR`] `ρ` each screened
/// kernel is within `ρ + ΔE + 8ε` relative of the exact one, up to
/// [`UNDERFLOW_TERM`] across the underflow cut. Summing nonnegative terms in any
/// order adds `γ_n = n·u/(1 − n·u)` per side, so every density, and hence every
/// `ln` term, is within `λ = 1.02·(ρ + ΔE + 2γ_n + 2n·A/d_min + 16ε)` relative,
/// where `A` = [`UNDERFLOW_TERM`] and `d_min` is the smallest unfloored
/// density. The densities the exact path floors at [`LOO_DENSITY_FLOOR`] are
/// recognised (a factor 2 either side of it, far beyond `λ`) and contribute the
/// same constant. The result is
/// `δ = 1.01·n·λ + 16·(n + 8)·ε·(n·(800 + |ln norm|) + 1)`, the second term
/// covering the rounding of the `ln`s, the products and both sums.
///
/// Premises, each of which leaves that factor `UNKNOWN` when it fails: finite
/// whitened samples, a normal bandwidth and norm with `n·norm ≤ 1e300` (no
/// density overflows), `Y ≤ 1e290`, `λ ≤ 1e-3`, and no density near the floor.
fn loo_screen(samples: &[f64], base: f64, scratch: &mut Vec<f64>) -> [Screened; 9] {
    use crate::simd::{loo_screen_sums, SCREEN_LANES};
    let n = samples.len();
    let nf = n as f64;
    scratch.clear();
    scratch.resize((1 + SCREEN_LANES) * n, 0.0);
    let (z, dens) = scratch.split_at_mut(n);
    let c0 = std::f64::consts::FRAC_1_SQRT_2 / base;
    for (z, x) in z.iter_mut().zip(samples) {
        *z = x * c0;
    }
    if !z.iter().all(|z| z.is_finite()) {
        return [Screened::UNKNOWN; 9];
    }
    let z_max = z.iter().fold(0.0f64, |m, z| m.max(z.abs()));

    // Per lane: the squared whitening ratio to the pilot and the norm, exactly
    // as `loo_log_likelihood` forms `c` and `norm`; the padding lanes repeat
    // the last factor.
    let mut ratio = [0.0f64; SCREEN_LANES];
    let mut norm = [0.0f64; SCREEN_LANES];
    for l in 0..SCREEN_LANES {
        let bw = base * LOO_FACTORS[l.min(LOO_FACTORS.len() - 1)];
        ratio[l] = (std::f64::consts::FRAC_1_SQRT_2 / bw) / c0;
        norm[l] = loo_norm(n, bw);
    }
    let neg_w = ratio.map(|r| -(r * r));
    loo_screen_sums(z, &neg_w, dens);

    // Σ ln over the unfloored densities as exponent fields plus a mantissa
    // product (renormalised every 512 rows, so it cannot overflow), and a count
    // of the floored ones.
    const MANTISSA: u64 = (1 << 52) - 1;
    const ONE: u64 = 1023 << 52;
    const EXP_BIAS: f64 = 4_503_599_627_371_519.0; // 2^52 + 1023
    let exponent = |bits: u64| f64::from_bits((bits >> 52) | 0x4330_0000_0000_0000) - EXP_BIAS;
    let mut mantissas = [1.0f64; SCREEN_LANES];
    let mut exponents = [0.0f64; SCREEN_LANES];
    let mut floored = [0.0f64; SCREEN_LANES];
    let mut near_floor = [false; SCREEN_LANES];
    let mut open_min = [f64::INFINITY; SCREEN_LANES];
    let underflow = nf * UNDERFLOW_TERM;
    for (i, row) in dens.chunks_exact(SCREEN_LANES).enumerate() {
        for l in 0..SCREEN_LANES {
            let d = row[l];
            let open = d * norm[l] >= 2.0 * LOO_DENSITY_FLOOR;
            let shut = (d + underflow) * norm[l] <= 0.5 * LOO_DENSITY_FLOOR;
            near_floor[l] |= !(open || shut);
            let bits = d.to_bits();
            mantissas[l] *= if open {
                f64::from_bits(bits & MANTISSA | ONE)
            } else {
                1.0
            };
            exponents[l] += if open { exponent(bits) } else { 0.0 };
            floored[l] += if shut { 1.0 } else { 0.0 };
            open_min[l] = open_min[l].min(if open { d } else { f64::INFINITY });
        }
        if i % 512 == 511 {
            for (m, e) in mantissas.iter_mut().zip(&mut exponents) {
                *e += exponent(m.to_bits());
                *m = f64::from_bits(m.to_bits() & MANTISSA | ONE);
            }
        }
    }

    let u = f64::EPSILON / 2.0;
    let gamma = nf * u / (1.0 - nf * u);
    let ln_floor = LOO_DENSITY_FLOOR.ln();
    std::array::from_fn(|l| {
        let y = z_max * ratio[l] * (1.0 + 1e-6);
        let d_e = 4.0 * u * (216.0 * y + 7290.0);
        let lambda = 1.02
            * (crate::lanes::EXP_SCREEN_REL_ERR
                + d_e
                + 2.0 * gamma
                + 2.0 * underflow / open_min[l]
                + 16.0 * f64::EPSILON);
        let ln_norm = norm[l].ln();
        let ll = exponents[l] * std::f64::consts::LN_2
            + mantissas[l].ln()
            + (nf - floored[l]) * ln_norm
            + floored[l] * ln_floor;
        let delta = 1.01 * nf * lambda
            + 16.0 * (nf + 8.0) * f64::EPSILON * (nf * (800.0 + ln_norm.abs()) + 1.0);
        let sound = norm[l].is_normal()
            && nf * norm[l] <= 1e300
            && ratio[l].is_normal()
            && y <= 1e290
            && (0.0..=1e-3).contains(&lambda)
            && !near_floor[l]
            && ll.is_finite();
        if sound {
            Screened { ll, delta }
        } else {
            Screened::UNKNOWN
        }
    })
}

/// Leave-one-out selection over the 9-factor grid, returning the bandwidth and how
/// many factors it had to score exactly (`0` when the screen certified the
/// answer). [`select_bandwidth_scratch`]'s `LeaveOneOut` arm; public only so
/// tests can see which path ran.
///
/// The screen (`loo_screen`) bounds every factor's exact score to
/// `[ll − δ, ll + δ]`. Let `floor` be the largest lower bound. A factor whose
/// upper bound is below `floor` scores strictly less than the factor that set
/// `floor`, so it cannot be (or tie) the maximum; every other factor — including
/// every `UNKNOWN` one — is a contender. A lone contender is returned as is;
/// otherwise the contenders are scored exactly, in grid order with a strict `>`,
/// which picks the same first maximiser as scoring the whole grid. Either way
/// the answer is bit-identical to scoring every factor.
#[doc(hidden)]
pub fn select_leave_one_out(samples: &[f64], scratch: &mut Vec<f64>) -> Result<(f64, usize)> {
    let base = silverman_bandwidth_scratch(samples, scratch)?;
    if samples.len() < 3 {
        return Ok((base, 0));
    }
    let screened = loo_screen(samples, base, scratch);
    let floor = screened
        .iter()
        .map(|s| s.ll - s.delta)
        .fold(f64::NEG_INFINITY, |m, lo| if lo > m { lo } else { m });
    let contends = |s: &Screened| s.delta == f64::INFINITY || s.ll + s.delta >= floor;
    let contenders = screened.iter().filter(|s| contends(s)).count();
    if contenders == 1 {
        let k = screened.iter().position(contends).expect("one contender");
        return Ok((base * LOO_FACTORS[k], 0));
    }
    let mut best = base;
    let mut best_ll = f64::NEG_INFINITY;
    for (f, s) in LOO_FACTORS.iter().zip(&screened) {
        if contends(s) {
            let bw = base * f;
            let ll = loo_log_likelihood(samples, bw, scratch);
            if ll > best_ll {
                best_ll = ll;
                best = bw;
            }
        }
    }
    Ok((best, contenders))
}

/// Selects a bandwidth for `samples` according to `selector`.
pub fn select_bandwidth(samples: &[f64], selector: BandwidthSelector) -> Result<f64> {
    let mut scratch = Vec::new();
    select_bandwidth_scratch(samples, selector, &mut scratch)
}

/// [`select_bandwidth`] with a caller-owned scratch: the allocation-free variant
/// the per-subcarrier refit loop of the interference model uses. The scratch
/// holds the Silverman sort of [`silverman_bandwidth_scratch`]; for
/// `LeaveOneOut` it then holds the screen's `n` pilot-whitened samples and
/// `12·n` lane-interleaved kernel sums (one lane per grid factor), and, for any
/// factor the screen cannot settle, `loo_log_likelihood`'s `2·n` entries. It
/// stops growing once it has held `13·n` entries for the largest `n`.
///
/// `LeaveOneOut` scores 9 factors of the Silverman bandwidth over the `n(n−1)/2`
/// sample pairs, which dominates a model refit: one fused screening pass scores
/// all 9 with a cheap `exp` and a proven error bound, and only factors the bound
/// cannot rule out are rescored exactly (see [`select_leave_one_out`]), so the
/// result is bit-identical to scoring every factor exactly.
pub fn select_bandwidth_scratch(
    samples: &[f64],
    selector: BandwidthSelector,
    scratch: &mut Vec<f64>,
) -> Result<f64> {
    match selector {
        BandwidthSelector::Fixed(bw) => {
            if bw > 0.0 {
                Ok(bw)
            } else {
                Err(DspError::invalid("bandwidth", "must be positive"))
            }
        }
        BandwidthSelector::Silverman => silverman_bandwidth_scratch(samples, scratch),
        BandwidthSelector::LeaveOneOut => select_leave_one_out(samples, scratch).map(|(bw, _)| bw),
    }
}

/// A univariate Gaussian kernel density estimate.
#[derive(Debug, Clone)]
pub struct KernelDensity1d {
    samples: Vec<f64>,
    bandwidth: f64,
}

impl KernelDensity1d {
    /// Builds a KDE over `samples` using the given bandwidth selection strategy.
    pub fn new(samples: &[f64], selector: BandwidthSelector) -> Result<Self> {
        if samples.is_empty() {
            return Err(DspError::EmptyInput);
        }
        let bandwidth = select_bandwidth(samples, selector)?;
        Ok(KernelDensity1d {
            samples: samples.to_vec(),
            bandwidth,
        })
    }

    /// The bandwidth in use.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// Number of samples backing the estimate.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the KDE holds no samples (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Evaluates the (unnormalised-kernel) density at `x`.
    ///
    /// The value is `1/(n·B) · Σ K((x − xᵢ)/B)` with `K` the paper's `(1/2π)e^{−u²/2}`
    /// kernel, so it is proportional to a true probability density; ratios and argmax
    /// comparisons between evaluations are exact.
    pub fn eval(&self, x: f64) -> f64 {
        let b = self.bandwidth;
        let sum: f64 = self
            .samples
            .iter()
            .map(|s| gaussian_kernel((x - s) / b))
            .sum();
        sum / (self.samples.len() as f64 * b)
    }

    /// Evaluates the density on a regular grid of `n` points spanning `[lo, hi]`.
    pub fn eval_grid(&self, lo: f64, hi: f64, n: usize) -> Vec<(f64, f64)> {
        if n == 0 {
            return Vec::new();
        }
        if n == 1 {
            return vec![(lo, self.eval(lo))];
        }
        (0..n)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (n - 1) as f64;
                (x, self.eval(x))
            })
            .collect()
    }
}

/// A bivariate **product-kernel** Gaussian KDE over (amplitude, phase) pairs, exactly as
/// in the paper's Eq. 4: each sample contributes `K_a(Δa/B_a)·K_φ(Δφ/B_φ)` and the two
/// bandwidths are selected independently, which is what lets CPRecycle weight amplitude
/// and phase errors separately.
///
/// Samples are stored as two parallel axis vectors, so a refit from per-axis
/// slices ([`refit_axes`](Self::refit_axes)) copies them in place instead of
/// collecting temporaries.
#[derive(Debug, Clone)]
pub struct ProductKde2d {
    /// The `n` amplitude samples followed by the same samples divided by `√2·B_a`:
    /// the whitened coordinates the lane kernels of [`crate::simd`] take. The
    /// whitened half is recomputed whenever samples or bandwidths change, and
    /// shares the raw half's allocation.
    amps: Vec<f64>,
    /// The phase samples, laid out like `amps`.
    phases: Vec<f64>,
    bw_a: f64,
    bw_p: f64,
    /// Per-axis whitening factors `1/(√2·B)`: in whitened coordinates the kernel
    /// exponent `−½·((Δa/B_a)² + (Δφ/B_φ)²)` is `−(Δa'² + Δφ'²)`.
    whitening: (f64, f64),
    /// `ln(n·B_a·B_φ·4π²)`, the log normalisation every batched query subtracts.
    /// Both are recomputed with the whitened half, so a batched query pays no
    /// per-call division or `ln`.
    log_norm: f64,
    /// The whitened samples' bounding box `[min_a, max_a, min_φ, max_φ]`, the
    /// support [`log_eval_upper_bounds`](Self::log_eval_upper_bounds) measures
    /// query distances to. Recomputed with the whitened half.
    white_box: [f64; 4],
}

impl ProductKde2d {
    /// Builds a product KDE from per-axis sample slices with explicit bandwidths (the
    /// paper's `B_a`, `B_φ`; [`select_bandwidth`] picks one per axis) — the layout the
    /// interference model's split-axis sample store keeps.
    pub fn from_axes(amps: &[f64], phases: &[f64], bw_a: f64, bw_p: f64) -> Result<Self> {
        let mut kde = ProductKde2d {
            amps: Vec::new(),
            phases: Vec::new(),
            bw_a: 1.0,
            bw_p: 1.0,
            whitening: (1.0, 1.0),
            log_norm: 0.0,
            white_box: [0.0; 4],
        };
        kde.refit_axes(amps, phases, bw_a, bw_p)?;
        Ok(kde)
    }

    /// Replaces the sample set and bandwidths in place, reusing the existing buffers —
    /// the per-bin refit path, allocation-free once the buffers have grown to the
    /// largest sample count seen.
    pub fn refit_axes(&mut self, amps: &[f64], phases: &[f64], bw_a: f64, bw_p: f64) -> Result<()> {
        if amps.is_empty() {
            return Err(DspError::EmptyInput);
        }
        if amps.len() != phases.len() {
            return Err(DspError::invalid("phases", "axis sample counts must match"));
        }
        if bw_a <= 0.0 || bw_p <= 0.0 {
            return Err(DspError::invalid(
                "bandwidth",
                "bandwidths must be positive",
            ));
        }
        self.amps.clear();
        self.amps.extend_from_slice(amps);
        self.phases.clear();
        self.phases.extend_from_slice(phases);
        self.bw_a = bw_a;
        self.bw_p = bw_p;
        self.whiten();
        Ok(())
    }

    /// Appends the whitened half to axis buffers that hold only the raw samples, and
    /// refreshes the whitening factors, the log normalisation and the whitened
    /// bounding box.
    fn whiten(&mut self) {
        self.log_norm = (self.amps.len() as f64 * self.bw_a * self.bw_p * TWO_PI_SQ).ln();
        self.whitening = (
            std::f64::consts::FRAC_1_SQRT_2 / self.bw_a,
            std::f64::consts::FRAC_1_SQRT_2 / self.bw_p,
        );
        let (ca, cp) = self.whitening;
        for (axis, c) in [(&mut self.amps, ca), (&mut self.phases, cp)] {
            let n = axis.len();
            axis.extend_from_within(..n);
            for x in &mut axis[n..] {
                *x *= c;
            }
        }
        let range = |xs: &[f64]| {
            xs.iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                    (lo.min(x), hi.max(x))
                })
        };
        let (white_a, white_p) = self.whitened();
        let ((min_a, max_a), (min_p, max_p)) = (range(white_a), range(white_p));
        self.white_box = [min_a, max_a, min_p, max_p];
    }

    /// The whitened sample coordinates `(amplitudes, phases)`.
    fn whitened(&self) -> (&[f64], &[f64]) {
        let n = self.len();
        (&self.amps[n..], &self.phases[n..])
    }

    /// Amplitude-axis bandwidth `B_a`.
    pub fn bandwidth_amplitude(&self) -> f64 {
        self.bw_a
    }

    /// Phase-axis bandwidth `B_φ`.
    pub fn bandwidth_phase(&self) -> f64 {
        self.bw_p
    }

    /// Number of samples backing the estimate.
    pub fn len(&self) -> usize {
        self.amps.len() / 2
    }

    /// Whether the KDE holds no samples (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.amps.is_empty()
    }

    /// The amplitude coordinates of the backing samples.
    pub fn amplitudes(&self) -> &[f64] {
        &self.amps[..self.len()]
    }

    /// The phase coordinates of the backing samples.
    pub fn phases(&self) -> &[f64] {
        &self.phases[..self.len()]
    }

    /// Evaluates the joint density at `(amplitude, phase)` (Eq. 4 of the paper) in the
    /// linear domain. The receiver only queries [`log_eval`](Self::log_eval) and its
    /// batched forms; this is the plain kernel sum they are tested against.
    pub fn eval(&self, amplitude: f64, phase: f64) -> f64 {
        let mut sum = 0.0;
        for (sa, sp) in self.amplitudes().iter().zip(self.phases()) {
            sum += gaussian_kernel((amplitude - sa) / self.bw_a)
                * gaussian_kernel((phase - sp) / self.bw_p);
        }
        sum / (self.len() as f64 * self.bw_a * self.bw_p)
    }

    /// Natural logarithm of [`ProductKde2d::eval`] with exact, **strictly ordered**
    /// far tails: a linear-domain sum underflows to the same hard floor for every
    /// candidate more than ~38 bandwidths from the data, which erases the ML ordering
    /// between distant lattice points.
    ///
    /// In-support queries (the overwhelming majority of sphere-decoder calls) take a
    /// single linear-domain pass; only when that sum underflows does the evaluation
    /// fall back to a two-pass log-sum-exp, which keeps the Gaussian tail exact down
    /// to exponents of about `−1e308`.
    pub fn log_eval(&self, amplitude: f64, phase: f64) -> f64 {
        let inv_a = 1.0 / self.bw_a;
        let inv_p = 1.0 / self.bw_p;
        let norm = self.len() as f64 * self.bw_a * self.bw_p * TWO_PI_SQ;
        let mut sum = 0.0;
        for (sa, sp) in self.amplitudes().iter().zip(self.phases()) {
            let ua = (amplitude - sa) * inv_a;
            let up = (phase - sp) * inv_p;
            sum += (-0.5 * (ua * ua + up * up)).exp();
        }
        if sum > 1e-290 {
            return sum.ln() - norm.ln();
        }
        // Tail fallback: log-sum-exp over the kernel exponents.
        let mut max_e = f64::NEG_INFINITY;
        for (sa, sp) in self.amplitudes().iter().zip(self.phases()) {
            let ua = (amplitude - sa) * inv_a;
            let up = (phase - sp) * inv_p;
            let e = -0.5 * (ua * ua + up * up);
            if e > max_e {
                max_e = e;
            }
        }
        let mut scaled = 0.0;
        for (sa, sp) in self.amplitudes().iter().zip(self.phases()) {
            let ua = (amplitude - sa) * inv_a;
            let up = (phase - sp) * inv_p;
            scaled += (-0.5 * (ua * ua + up * up) - max_e).exp();
        }
        max_e + scaled.ln() - norm.ln()
    }

    /// Batched [`log_eval`](Self::log_eval) over split query planes: `out[q]` is the
    /// log density at `(amplitudes[q], phases[q])`.
    ///
    /// This is the sphere decoder's hot path (every lattice candidate × every segment
    /// observation of a bin in one call), so each query runs the same linear-domain
    /// fast path as the scalar reference but **lane-parallel**: kernel exponents are
    /// computed from the whitened samples (stored per fit, so the per-kernel
    /// bandwidth scaling is gone) in `LANES`-wide chunks and fed through the
    /// branch-free polynomial [`crate::lanes::exp_approx`] — `f64::exp` is an
    /// opaque libm call LLVM never vectorizes. The kernel-sum loop lives in
    /// [`crate::simd::kde_kernel_sum`], which dispatches at runtime to an
    /// AVX2-compiled copy of the identical safe Rust (4 `f64` lanes per
    /// instruction) and otherwise to the baseline-compiled autovectorized copy, so
    /// a generic build still uses the full vector width of the machine it lands on.
    ///
    /// Queries whose linear sum underflows (candidates ~38+ bandwidths from every
    /// sample) take the same lane-parallel route in the log domain: a max-shifted
    /// log-sum-exp over the same exponents ([`crate::simd::kde_log_sum_exp`]),
    /// finite and strictly ordered however far out the query lies. That branch is
    /// not rare — on an interfered link it is several percent of all sphere
    /// queries — so it must not fall back to the scalar libm reference.
    ///
    /// Relative to the scalar [`log_eval`](Self::log_eval) reference the result
    /// differs only by the ~1 ulp `exp` polynomial, the rounding of the whitened
    /// exponents and the lane summation order;
    /// agreement within `1e-9` (far tails included) is property-tested in
    /// `tests/simd_equivalence.rs`.
    ///
    /// # Panics
    ///
    /// Panics if the query slices and `out` have different lengths.
    pub fn log_eval_batch(&self, amplitudes: &[f64], phases: &[f64], out: &mut [f64]) {
        assert_eq!(
            amplitudes.len(),
            phases.len(),
            "query planes must have equal lengths"
        );
        assert_eq!(
            amplitudes.len(),
            out.len(),
            "output must match the query count"
        );
        let (ca, cp) = self.whitening;
        let (white_a, white_p) = self.whitened();
        let log_norm = self.log_norm;
        for ((&a, &p), o) in amplitudes.iter().zip(phases).zip(out.iter_mut()) {
            let (a, p) = (a * ca, p * cp);
            let sum = crate::simd::kde_kernel_sum(a, p, white_a, white_p);
            *o = if sum > 1e-290 {
                sum.ln() - log_norm
            } else {
                crate::simd::kde_log_sum_exp(a, p, white_a, white_p) - log_norm
            };
        }
    }

    /// An upper bound on every value [`log_eval`](Self::log_eval) and
    /// [`log_eval_batch`](Self::log_eval_batch) can return: `ln n − ln(n·B_a·B_φ·4π²)`,
    /// the log density if every kernel peaked at once, plus rounding slack.
    ///
    /// Every kernel term is an exponential of a non-positive exponent, so it is at
    /// most 1 (`exp_approx` included), and the log-sum-exp tail path shifts by the
    /// largest exponent (≤ 0) before summing the same bounded terms. The slack
    /// covers the summation's `n·ε` relative growth and the rounding of the `ln`
    /// and the subtraction. The sphere decoder prunes candidates against this
    /// bound, so it must never be below a value the batch path returns.
    pub fn log_eval_ceiling(&self) -> f64 {
        let peak = (self.len() as f64).ln() - self.log_norm;
        peak + self.log_slack()
    }

    /// Rounding slack for a bound `ln n − log_norm ± x` on a batched answer,
    /// where `x ≥ 0` is the magnitude of the kernel exponent the bound is built
    /// from: this plus [`SLACK_ULPS`]`·x`. It covers, with a 64× margin: the
    /// polynomial `exp`'s ~1 ulp relative error and the `n`-term kernel sum's
    /// `n·ε` relative growth, both of which become absolute errors after the
    /// `ln`; the `ln`'s own rounding, relative to its result (at most `x + ln n`
    /// in magnitude); and the roundings of the subtraction of `log_norm` and of
    /// the bound's own arithmetic.
    fn log_slack(&self) -> f64 {
        let n = self.len() as f64;
        SLACK_ULPS * (n + n.ln() + self.log_norm.abs() + 1.0)
    }

    /// Per-query upper bounds on [`log_eval_batch`](Self::log_eval_batch):
    /// `bounds[q]` is at least the answer to `(amplitudes[q], phases[q])`, and at
    /// most [`log_eval_ceiling`](Self::log_eval_ceiling). No `exp` is evaluated.
    ///
    /// Let `d²` be the whitened query's squared distance to the whitened samples'
    /// bounding box. Every kernel exponent `e_j = −((a − A_j)² + (φ − Φ_j)²)` is
    /// at most `−d²` — in floating point too, since rounding is monotone: for a
    /// query beyond the box's upper amplitude edge, `fl(a − A_j) ≥ fl(a − max_a)
    /// ≥ 0`, below the lower edge the mirror image, and squares and the sum keep
    /// the order. So the linear kernel sum is at most `n·e^{−d²}` (each polynomial
    /// `exp` term within ~1 ulp of its true value), the log-sum-exp tail path's
    /// shift is at most `−d²` and its shifted sum at most `n`, and the answer is
    /// at most `ln n − d² − log_norm`, plus a rounding slack of
    /// `64·ε·(n + ln n + |log_norm| + 1 + d²)` for the polynomial `exp`, the sum,
    /// the `ln` and the subtractions (the ceiling's slack at `d² = 0`).
    /// Queries inside the box get the ceiling, and so do queries with an
    /// infinite coordinate or one whose whitened square overflows (their answers
    /// are `−∞` or NaN). A NaN coordinate is measured as if it sat inside the
    /// box, so a query NaN in both coordinates gets the ceiling too; a NaN query
    /// answers NaN, which no bound orders.
    ///
    /// # Panics
    ///
    /// Panics if the query slices and `bounds` have different lengths.
    pub fn log_eval_upper_bounds(&self, amplitudes: &[f64], phases: &[f64], bounds: &mut [f64]) {
        assert_eq!(
            amplitudes.len(),
            phases.len(),
            "query planes must have equal lengths"
        );
        assert_eq!(
            amplitudes.len(),
            bounds.len(),
            "output must match the query count"
        );
        let (ca, cp) = self.whitening;
        let [min_a, max_a, min_p, max_p] = self.white_box;
        // `ln n − log_norm` plus the slack: the bound at `d² = 0`.
        let ceiling = self.log_eval_ceiling();
        for ((&a, &p), b) in amplitudes.iter().zip(phases).zip(bounds.iter_mut()) {
            // The batch path's whitened query, rounded identically.
            let da = box_gap(a * ca, min_a, max_a);
            let dp = box_gap(p * cp, min_p, max_p);
            let d2 = da * da + dp * dp;
            let bound = ceiling - d2 + SLACK_ULPS * d2;
            // `<` rather than `min`: a NaN bound (an infinite query) falls to the
            // ceiling.
            *b = if bound < ceiling { bound } else { ceiling };
        }
    }

    /// Amplitude-only per-query upper bounds on
    /// [`log_eval_batch`](Self::log_eval_batch): `bounds[q]` is at least the
    /// answer to `(amplitudes[q], φ)` for every finite phase `φ`, at least the
    /// [`log_eval_upper_bounds`](Self::log_eval_upper_bounds) entry of any such
    /// query, and at most [`log_eval_ceiling`](Self::log_eval_ceiling). No phase
    /// is read, so a caller can bound a query before it has paid for its `atan2`.
    ///
    /// This is the tight bound with the phase gap taken as `0`: `d² = da²`, the
    /// whitened amplitude's squared distance to the sample box's amplitude
    /// interval. Every kernel exponent is `−(ua² + uφ²) ≤ −ua² ≤ −da²`, in
    /// floating point too (adding `uφ² ≥ 0` and the box argument of
    /// [`log_eval_upper_bounds`](Self::log_eval_upper_bounds) are both monotone
    /// under rounding), so that bound's argument holds with `da²` in place of
    /// `d²`. The slack is twice the tight bound's per-unit slack: with the same
    /// `ceiling − d² + slack·d²` arithmetic, rounding could otherwise lift the
    /// tight bound a unit in the last place above this one when `da² ≤ d² ≤
    /// 2·da²`, and above `2·da²` the gap `d² − da²` dwarfs both slacks. A NaN or
    /// infinite amplitude, or one whose whitened square overflows, gets the
    /// ceiling.
    ///
    /// # Panics
    ///
    /// Panics if `amplitudes` and `bounds` have different lengths.
    pub fn log_eval_amplitude_upper_bounds(&self, amplitudes: &[f64], bounds: &mut [f64]) {
        assert_eq!(
            amplitudes.len(),
            bounds.len(),
            "output must match the query count"
        );
        let ca = self.whitening.0;
        let [min_a, max_a, _, _] = self.white_box;
        let ceiling = self.log_eval_ceiling();
        for (&a, b) in amplitudes.iter().zip(bounds.iter_mut()) {
            let da = box_gap(a * ca, min_a, max_a);
            let d2 = da * da;
            let bound = ceiling - d2 + AMPLITUDE_SLACK_ULPS * d2;
            *b = if bound < ceiling { bound } else { ceiling };
        }
    }

    /// A lower bound on the in-order sum of the [`log_eval_batch`](Self::log_eval_batch)
    /// answers to the given queries, or `−∞` if a query is not finite.
    ///
    /// A kernel sum is at least its largest term, so each answer is at least
    /// `max_j e_j − log_norm` ([`crate::simd::kde_max_exponent`], the exponent loop
    /// without the `exp`). On the log-sum-exp tail path this holds exactly: the
    /// shift is that same `max_j e_j`, and the shifted sum includes `exp(0) = 1`,
    /// so its `ln` is non-negative. On the linear path (which `max_j e_j` below
    /// the polynomial `exp`'s underflow clamp never takes) it holds up to a
    /// rounding slack of `64·ε·(n + ln n + |log_norm| + 1 + |max_j e_j|)`, which
    /// each query's bound gives away. The `P` per-query bounds are summed in
    /// order and lowered by `1e-9` times the sum of their magnitudes, which
    /// covers the rounding of both the bounds' sum and the answers' in-order
    /// sum (`≈ P·ε` relative each, for any `P` below about two million). A query
    /// whose exponents are all `−∞` or NaN (its whitened coordinates overflow)
    /// also gives `−∞`, so a finite bound certifies that every answer is finite.
    ///
    /// # Panics
    ///
    /// Panics if the query slices have different lengths.
    pub fn log_eval_sum_lower_bound(&self, amplitudes: &[f64], phases: &[f64]) -> f64 {
        assert_eq!(
            amplitudes.len(),
            phases.len(),
            "query planes must have equal lengths"
        );
        let (ca, cp) = self.whitening;
        let (white_a, white_p) = self.whitened();
        let floor = self.log_norm + self.log_slack();
        let mut sum = 0.0;
        let mut magnitude = 0.0;
        for (&a, &p) in amplitudes.iter().zip(phases) {
            if !(a.is_finite() && p.is_finite()) {
                return f64::NEG_INFINITY;
            }
            let max_e = crate::simd::kde_max_exponent(a * ca, p * cp, white_a, white_p);
            if !max_e.is_finite() {
                return f64::NEG_INFINITY;
            }
            let bound = max_e - floor - SLACK_ULPS * max_e.abs();
            sum += bound;
            magnitude += bound.abs();
        }
        sum - SUM_SLACK * magnitude
    }

    /// A cheaper lower bound on the in-order sum of the
    /// [`log_eval_batch`](Self::log_eval_batch) answers, at most
    /// [`log_eval_sum_lower_bound`](Self::log_eval_sum_lower_bound)'s: it keeps
    /// one sample, the one whose kernel exponent is largest for the first
    /// query, and bounds every query by its exponent to that sample alone —
    /// `n + P` exponents instead of `n·P`. It is `−∞` for a non-finite query and
    /// for a query whose exponent to the kept sample is not finite.
    ///
    /// A kernel sum is at least any one of its terms, so the argument of
    /// [`log_eval_sum_lower_bound`](Self::log_eval_sum_lower_bound) holds with
    /// any sample's exponent in place of the largest. Each exponent is rounded
    /// exactly as [`crate::simd::kde_max_exponent`] rounds it, so it is at most
    /// that query's largest exponent, and the per-query bound `e − floor −
    /// slack·|e|` is non-decreasing in `e` under rounding (for `e ≤ 0` both
    /// terms move the same way), as is the in-order sum. The sum's slack is
    /// taken on `2·|e| + |floor|` per query rather than on the bound's own
    /// magnitude: that is at least the full bound's per-query magnitude, so the
    /// subtracted slack is at least the full bound's and the result never
    /// exceeds it.
    ///
    /// # Panics
    ///
    /// Panics if the query slices have different lengths.
    pub fn log_eval_sum_lower_bound_one_sample(&self, amplitudes: &[f64], phases: &[f64]) -> f64 {
        assert_eq!(
            amplitudes.len(),
            phases.len(),
            "query planes must have equal lengths"
        );
        let (ca, cp) = self.whitening;
        let (white_a, white_p) = self.whitened();
        let (Some(&a0), Some(&p0)) = (amplitudes.first(), phases.first()) else {
            return 0.0;
        };
        let (a0, p0) = (a0 * ca, p0 * cp);
        let mut kept = None;
        let mut best = f64::NEG_INFINITY;
        for (&sa, &sp) in white_a.iter().zip(white_p) {
            let e = crate::simd::kernel_exponent(a0, p0, sa, sp);
            if e > best {
                best = e;
                kept = Some((sa, sp));
            }
        }
        let Some((sa, sp)) = kept else {
            return f64::NEG_INFINITY;
        };
        let floor = self.log_norm + self.log_slack();
        let mut sum = 0.0;
        let mut magnitude = 0.0;
        for (&a, &p) in amplitudes.iter().zip(phases) {
            if !(a.is_finite() && p.is_finite()) {
                return f64::NEG_INFINITY;
            }
            let e = crate::simd::kernel_exponent(a * ca, p * cp, sa, sp);
            if !e.is_finite() {
                return f64::NEG_INFINITY;
            }
            sum += e - floor - SLACK_ULPS * e.abs();
            magnitude += 2.0 * e.abs() + floor.abs();
        }
        sum - SUM_SLACK * magnitude
    }
}

/// `4π²`, the product-kernel normalisation (`1/2π` per axis).
const TWO_PI_SQ: f64 = 4.0 * std::f64::consts::PI * std::f64::consts::PI;

/// Rounding slack per unit of log magnitude in the KDE's log-domain bounds
/// (see [`ProductKde2d::log_eval_ceiling`]): 64 ulps.
const SLACK_ULPS: f64 = 64.0 * f64::EPSILON;

/// [`ProductKde2d::log_eval_amplitude_upper_bounds`]'s slack per unit of log
/// magnitude: twice [`SLACK_ULPS`], so that bound is never below the tight one.
const AMPLITUDE_SLACK_ULPS: f64 = 2.0 * SLACK_ULPS;

/// Relative slack, in units of the summed magnitudes, that
/// [`ProductKde2d::log_eval_sum_lower_bound`] gives away for summing `P` terms.
/// An in-order `P`-term sum is off by at most `≈ P·ε` relative to the
/// magnitudes, once for the bounds and once for the answers; `1e-9` covers both
/// for any `P` below about two million (the sphere decoder's pruning slack is
/// sized the same way).
const SUM_SLACK: f64 = 1e-9;

/// Distance from `x` to the interval `[lo, hi]`, computed the way the kernel
/// exponent computes `x − sample`, so it rounds no further from zero than any
/// `x − sample` with `sample` inside the interval.
#[inline(always)]
fn box_gap(x: f64, lo: f64, hi: f64) -> f64 {
    if x > hi {
        x - hi
    } else if x < lo {
        lo - x
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::GaussianSource;
    use rand::SeedableRng;

    /// A product KDE over `(amplitude, phase)` pairs with explicit bandwidths.
    fn kde2d(samples: &[(f64, f64)], bw_a: f64, bw_p: f64) -> Result<ProductKde2d> {
        let (amps, phases): (Vec<f64>, Vec<f64>) = samples.iter().copied().unzip();
        ProductKde2d::from_axes(&amps, &phases, bw_a, bw_p)
    }

    /// [`kde2d`] with each axis's bandwidth picked by `selector`.
    fn kde2d_selected(samples: &[(f64, f64)], selector: BandwidthSelector) -> ProductKde2d {
        let (amps, phases): (Vec<f64>, Vec<f64>) = samples.iter().copied().unzip();
        let bw_a = select_bandwidth(&amps, selector).unwrap();
        let bw_p = select_bandwidth(&phases, selector).unwrap();
        ProductKde2d::from_axes(&amps, &phases, bw_a, bw_p).unwrap()
    }

    #[test]
    fn gaussian_kernel_shape() {
        assert!((gaussian_kernel(0.0) - 1.0 / (2.0 * std::f64::consts::PI)).abs() < 1e-15);
        assert!(gaussian_kernel(1.0) < gaussian_kernel(0.0));
        assert!((gaussian_kernel(2.0) - gaussian_kernel(-2.0)).abs() < 1e-15);
    }

    #[test]
    fn silverman_bandwidth_scales_with_spread() {
        let narrow: Vec<f64> = (0..100).map(|i| i as f64 * 0.01).collect();
        let wide: Vec<f64> = (0..100).map(|i| i as f64 * 1.0).collect();
        let silverman = |x: &[f64]| select_bandwidth(x, BandwidthSelector::Silverman);
        let bn = silverman(&narrow).unwrap();
        let bw = silverman(&wide).unwrap();
        assert!(bw > bn * 50.0, "narrow {bn}, wide {bw}");
        assert!(silverman(&[]).is_err());
        assert_eq!(silverman(&[1.0]).unwrap(), 1.0);
        // Degenerate data still yields a usable positive bandwidth.
        assert!(silverman(&[2.0; 10]).unwrap() > 0.0);
    }

    #[test]
    fn bandwidth_selector_fixed_validation() {
        assert!(select_bandwidth(&[1.0, 2.0], BandwidthSelector::Fixed(0.0)).is_err());
        assert_eq!(
            select_bandwidth(&[1.0, 2.0], BandwidthSelector::Fixed(0.7)).unwrap(),
            0.7
        );
    }

    #[test]
    fn leave_one_out_close_to_silverman_for_gaussian_data() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let mut g = GaussianSource::new();
        let xs: Vec<f64> = (0..200).map(|_| g.sample(&mut rng, 0.0, 1.0)).collect();
        let s = select_bandwidth(&xs, BandwidthSelector::Silverman).unwrap();
        let l = select_bandwidth(&xs, BandwidthSelector::LeaveOneOut).unwrap();
        // For Gaussian data the LOO-selected bandwidth should be within the searched
        // factor range of the Silverman pilot.
        assert!(l >= 0.25 * s - 1e-12 && l <= 3.0 * s + 1e-12);
    }

    #[test]
    fn kde1d_integrates_to_one() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut g = GaussianSource::new();
        let xs: Vec<f64> = (0..300).map(|_| g.sample(&mut rng, 1.0, 0.5)).collect();
        let kde = KernelDensity1d::new(&xs, BandwidthSelector::Silverman).unwrap();
        // Numerically integrate over a wide interval; the kernel in the paper is
        // (1/2π)e^{-u²/2}, i.e. 1/sqrt(2π) times smaller than a true Gaussian pdf, so
        // the KDE integrates to 1/sqrt(2π) ≈ 0.3989.
        let grid = kde.eval_grid(-4.0, 6.0, 4001);
        let dx = 10.0 / 4000.0;
        let integral: f64 = grid.iter().map(|(_, d)| d * dx).sum();
        let expected = 1.0 / (2.0 * std::f64::consts::PI).sqrt();
        assert!((integral - expected).abs() < 0.01, "integral {integral}");
    }

    #[test]
    fn kde1d_peaks_near_data_mode() {
        let xs = vec![0.9, 1.0, 1.05, 1.1, 0.95, 1.02, 5.0];
        let kde = KernelDensity1d::new(&xs, BandwidthSelector::Silverman).unwrap();
        assert!(kde.eval(1.0) > kde.eval(3.0));
        assert!(
            kde.eval(1.0) > kde.eval(5.0),
            "single outlier should not dominate"
        );
        assert_eq!(kde.len(), 7);
        assert!(!kde.is_empty());
    }

    #[test]
    fn kde1d_bandwidth_controls_smoothness() {
        // Mirrors the paper's Fig. 6a: larger bandwidths over-smooth (lower peak).
        let xs = vec![-2.0, -1.8, 0.0, 0.1, 0.2, 3.0, 3.1];
        let narrow = KernelDensity1d::new(&xs, BandwidthSelector::Fixed(0.3)).unwrap();
        let wide = KernelDensity1d::new(&xs, BandwidthSelector::Fixed(3.0)).unwrap();
        assert!(narrow.eval(0.1) > wide.eval(0.1));
    }

    #[test]
    fn kde1d_grid_edges() {
        let kde = KernelDensity1d::new(&[0.0, 1.0], BandwidthSelector::Fixed(1.0)).unwrap();
        assert!(kde.eval_grid(0.0, 1.0, 0).is_empty());
        assert_eq!(kde.eval_grid(0.5, 1.0, 1).len(), 1);
        let g = kde.eval_grid(-1.0, 2.0, 11);
        assert_eq!(g.len(), 11);
        assert_eq!(g[0].0, -1.0);
        assert_eq!(g[10].0, 2.0);
    }

    #[test]
    fn product_kde_requires_samples_and_positive_bandwidths() {
        assert!(ProductKde2d::from_axes(&[], &[], 1.0, 1.0).is_err());
        assert!(ProductKde2d::from_axes(&[0.0], &[0.0, 1.0], 1.0, 1.0).is_err());
        assert!(kde2d(&[(0.0, 0.0)], 0.0, 1.0).is_err());
        assert!(kde2d(&[(0.0, 0.0)], 1.0, -1.0).is_err());
    }

    #[test]
    fn product_kde_peaks_at_sample_cluster() {
        let samples = vec![(0.1, 0.0), (0.12, 0.05), (0.09, -0.02), (0.11, 0.01)];
        let kde = kde2d_selected(&samples, BandwidthSelector::Silverman);
        assert!(kde.eval(0.1, 0.0) > kde.eval(1.0, 1.0));
        assert!(
            kde.eval(0.1, 0.0) > kde.eval(0.1, 2.0),
            "phase axis matters"
        );
        assert!(
            kde.eval(0.1, 0.0) > kde.eval(2.0, 0.0),
            "amplitude axis matters"
        );
    }

    #[test]
    fn product_kde_log_eval_is_finite_far_from_data() {
        let kde = kde2d(&[(0.0, 0.0)], 0.05, 0.05).unwrap();
        let ll = kde.log_eval(100.0, 100.0);
        assert!(ll.is_finite());
        assert!(ll < kde.log_eval(0.0, 0.0));
    }

    #[test]
    fn log_eval_keeps_far_tails_strictly_ordered() {
        // Regression for the old `max(1e-300).ln()` clamp: every candidate more than
        // ~38 bandwidths out used to collapse to the same −690.78 floor, erasing the
        // ML ordering between distant lattice points. The log-sum-exp form keeps the
        // Gaussian tail strictly decreasing.
        let kde = kde2d(&[(0.0, 0.0), (0.1, 0.2)], 0.05, 0.05).unwrap();
        let near = kde.log_eval(5.0, 0.0);
        let far = kde.log_eval(10.0, 0.0);
        let farther = kde.log_eval(20.0, 0.0);
        assert!(near > far, "near {near} far {far}");
        assert!(far > farther, "far {far} farther {farther}");
        assert!(farther.is_finite());
        // All three are deep below the old clamp.
        assert!(near < -690.0);
        // Within the support, log-sum-exp agrees with the linear-domain log.
        let ll = kde.log_eval(0.07, 0.1);
        assert!((ll - kde.eval(0.07, 0.1).ln()).abs() < 1e-12);
    }

    #[test]
    fn product_kde_batch_matches_scalar_log_eval() {
        // 13 samples: not a multiple of the lane width, so the remainder path runs.
        let samples: Vec<(f64, f64)> = (0..13)
            .map(|i| (0.1 + 0.03 * i as f64, 0.2 * ((i * 3) % 7) as f64 - 0.5))
            .collect();
        let kde = kde2d(&samples, 0.08, 0.3).unwrap();
        let amps: Vec<f64> = (0..9).map(|q| 0.02 + 0.07 * q as f64).collect();
        let phases: Vec<f64> = (0..9).map(|q| -0.8 + 0.2 * q as f64).collect();
        let mut out = vec![0.0; 9];
        kde.log_eval_batch(&amps, &phases, &mut out);
        for q in 0..9 {
            let want = kde.log_eval(amps[q], phases[q]);
            assert!(
                (out[q] - want).abs() < 1e-9,
                "query {q}: batch {} vs scalar {want}",
                out[q]
            );
        }
        // Far-tail queries run the lane-parallel log-sum-exp: within the batch
        // budget of the scalar fallback, and strictly ordered in distance.
        let mut tail = [0.0; 2];
        kde.log_eval_batch(&[50.0, 55.0], &[0.0, 0.0], &mut tail);
        for (q, a) in [50.0, 55.0].iter().enumerate() {
            let want = kde.log_eval(*a, 0.0);
            let tol = 1e-9 * (1.0 + want.abs());
            assert!(
                (tail[q] - want).abs() <= tol,
                "tail query {q}: batch {} vs scalar {want}",
                tail[q]
            );
        }
        assert!(tail[1] < tail[0], "tails must stay strictly ordered");
    }

    #[test]
    fn product_kde_bounds_bracket_the_batch_answers() {
        let samples: Vec<(f64, f64)> = (0..9)
            .map(|i| (0.1 + 0.02 * i as f64, 0.1 * i as f64 - 0.4))
            .collect();
        let kde = kde2d(&samples, 0.05, 0.2).unwrap();
        // On a sample, inside the box, just outside it, and far out.
        let amps = [0.14, 0.2, 0.5, 3.0];
        let phases = [-0.2, 0.0, 0.0, 2.0];
        let mut out = [0.0; 4];
        let mut upper = [0.0; 4];
        kde.log_eval_batch(&amps, &phases, &mut out);
        kde.log_eval_upper_bounds(&amps, &phases, &mut upper);
        let ceiling = kde.log_eval_ceiling();
        assert_eq!(
            upper[..2],
            [ceiling; 2],
            "inside the box the bound is the ceiling"
        );
        assert!(upper[2] < ceiling && upper[3] < upper[2]);
        for q in 0..4 {
            assert!(
                out[q] <= upper[q],
                "query {q}: {} above {}",
                out[q],
                upper[q]
            );
            let floor = kde.log_eval_sum_lower_bound(&amps[q..=q], &phases[q..=q]);
            assert!(floor <= out[q] && out[q] - floor < (samples.len() as f64).ln() + 1e-6);
        }
        let floor = kde.log_eval_sum_lower_bound(&amps, &phases);
        assert!(floor.is_finite() && floor <= out.iter().sum::<f64>());
        assert_eq!(
            kde.log_eval_sum_lower_bound(&[0.1, f64::NAN], &[0.0, 0.0]),
            f64::NEG_INFINITY
        );
        // The amplitude-only bounds: the ceiling inside the amplitude interval,
        // never below the tight bounds, and within rounding slack of the tight
        // bound where the phase gap is 0.
        let mut amplitude_only = [0.0; 4];
        kde.log_eval_amplitude_upper_bounds(&amps, &mut amplitude_only);
        assert_eq!(amplitude_only[..2], [ceiling; 2]);
        let mut tight = [0.0];
        kde.log_eval_upper_bounds(&amps[2..3], &[0.2], &mut tight);
        assert!(tight[0] < ceiling && tight[0] <= amplitude_only[2]);
        assert!(amplitude_only[2] - tight[0] < 1e-12);
        for q in 0..4 {
            assert!(upper[q] <= amplitude_only[q] && amplitude_only[q] <= ceiling);
        }
        // The one-sample floor: below the full floor, finite, `−∞` on NaN.
        let one = kde.log_eval_sum_lower_bound_one_sample(&amps, &phases);
        assert!(one.is_finite() && one <= floor, "{one} vs {floor}");
        assert_eq!(
            kde.log_eval_sum_lower_bound_one_sample(&[0.1, f64::NAN], &[0.0, 0.0]),
            f64::NEG_INFINITY
        );
    }

    #[test]
    #[should_panic(expected = "must match the query count")]
    fn product_kde_batch_validates_output_length() {
        let kde = kde2d(&[(0.0, 0.0)], 0.1, 0.1).unwrap();
        let mut out = [0.0; 1];
        kde.log_eval_batch(&[0.0, 1.0], &[0.0, 0.0], &mut out);
    }

    #[test]
    fn product_kde_separates_amplitude_and_phase_scales() {
        // Samples with large amplitude spread and tiny phase spread: the selected
        // bandwidths should reflect the difference, which is the reason the paper uses a
        // product kernel instead of a single Euclidean kernel.
        let samples: Vec<(f64, f64)> = (0..50)
            .map(|i| (i as f64 * 0.2, (i % 3) as f64 * 0.001))
            .collect();
        let kde = kde2d_selected(&samples, BandwidthSelector::Silverman);
        assert!(kde.bandwidth_amplitude() > 10.0 * kde.bandwidth_phase());
    }
}
