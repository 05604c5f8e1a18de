//! Bit-identity pins for the certified leave-one-out bandwidth selector.
//!
//! `select_bandwidth(.., LeaveOneOut)` screens all 9 grid factors in one pass with
//! a cheap `exp` and a proven error bound, and scores exactly only the factors the
//! bound cannot rule out. Its answer must be the `f64`, bit for bit, that scoring
//! every factor exactly returns. [`todays_loo_select`] is that exhaustive selector,
//! copied verbatim (the exact per-factor score included) as the oracle.
//!
//! The inputs cover Gaussian, two-cluster, uniform and heavy-tailed sets,
//! all-equal and duplicated values, scales from 1e-150 to 1e150, `±∞` entries, and
//! constructed near-ties: sets bisected onto the boundary where the exhaustive
//! argmax switches between two factors, so two exact scores agree to rounding.
//! Those are the inputs a screen without its bound gets wrong.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfdsp::kde::{
    select_bandwidth, select_leave_one_out, silverman_bandwidth_scratch, BandwidthSelector,
};
use rfdsp::simd::loo_kernel_sums;
use rfdsp::Result;

const FACTORS: [f64; 9] = [0.25, 0.4, 0.6, 0.8, 1.0, 1.3, 1.7, 2.2, 3.0];

/// The exact leave-one-out score, verbatim.
fn todays_loo_log_likelihood(samples: &[f64], bw: f64, scratch: &mut Vec<f64>) -> f64 {
    let n = samples.len();
    scratch.clear();
    scratch.resize(2 * n, 0.0);
    let (dens, scaled) = scratch.split_at_mut(n);
    let c = std::f64::consts::FRAC_1_SQRT_2 / bw;
    for (y, x) in scaled.iter_mut().zip(samples) {
        *y = x * c;
    }
    loo_kernel_sums(scaled, dens);
    // `gaussian_kernel`'s 1/2π and the LOO mean's 1/((n−1)·B), applied once.
    let norm = 1.0 / (2.0 * std::f64::consts::PI * (n - 1) as f64 * bw);
    dens.iter().map(|d| (d * norm).max(1e-300).ln()).sum()
}

/// The exhaustive selector, verbatim: every factor scored exactly, strict `>`.
/// Also returns the index of the winning factor (`None` for the pilot itself).
fn todays_loo_select(samples: &[f64]) -> Result<(f64, Option<usize>)> {
    let mut scratch = Vec::new();
    let base = silverman_bandwidth_scratch(samples, &mut scratch)?;
    if samples.len() < 3 {
        return Ok((base, None));
    }
    let mut best = base;
    let mut best_k = None;
    let mut best_ll = f64::NEG_INFINITY;
    for (k, f) in FACTORS.into_iter().enumerate() {
        let bw = base * f;
        let ll = todays_loo_log_likelihood(samples, bw, &mut scratch);
        if ll > best_ll {
            best_ll = ll;
            best = bw;
            best_k = Some(k);
        }
    }
    Ok((best, best_k))
}

/// Sample families, by index.
const KINDS: usize = 8;

fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// `n` samples of family `kind` at magnitude `scale`.
fn family(kind: usize, n: usize, scale: f64, rng: &mut StdRng) -> Vec<f64> {
    let mut xs: Vec<f64> = match kind {
        0 => (0..n).map(|_| gaussian(rng)).collect(),
        // Two clusters, like an interferer that is on for part of a preamble.
        1 => {
            let gap = rng.gen_range(2.0..12.0);
            let share = rng.gen_range(0.1..0.9);
            (0..n)
                .map(|_| {
                    let far = rng.gen_bool(share);
                    0.3 * gaussian(rng) + if far { gap } else { 0.0 }
                })
                .collect()
        }
        2 => (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        // Cauchy: occasional samples thousands of scales out.
        3 => (0..n)
            .map(|_| (std::f64::consts::PI * (rng.gen::<f64>() - 0.5)).tan())
            .collect(),
        4 => vec![rng.gen_range(-3.0..3.0); n],
        // Few distinct values, each repeated.
        5 => {
            let distinct = rng.gen_range(1..=n.div_ceil(3));
            let values: Vec<f64> = (0..distinct).map(|_| gaussian(rng)).collect();
            (0..n).map(|_| values[rng.gen_range(0..distinct)]).collect()
        }
        // Gaussian with one or two infinite entries.
        6 => {
            let mut xs: Vec<f64> = (0..n).map(|_| gaussian(rng)).collect();
            xs[rng.gen_range(0..n)] = f64::INFINITY;
            if rng.gen_bool(0.5) {
                xs[rng.gen_range(0..n)] = f64::NEG_INFINITY;
            }
            return xs;
        }
        // Amplitude-deviation-like: nonnegative, offset from zero.
        _ => (0..n).map(|_| (1.0 + 0.2 * gaussian(rng)).abs()).collect(),
    };
    for x in &mut xs {
        *x *= scale;
    }
    xs
}

/// Runs both selectors and asserts bit-identity; returns how many factors the
/// certified selector scored exactly.
fn check(samples: &[f64]) -> usize {
    let want = todays_loo_select(samples).map(|(bw, _)| bw);
    let got = select_bandwidth(samples, BandwidthSelector::LeaveOneOut);
    let mut scratch = Vec::new();
    let traced = select_leave_one_out(samples, &mut scratch);
    match (want, got, traced) {
        (Ok(want), Ok(got), Ok((traced, exact))) => {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{got} vs {want} on {samples:?}"
            );
            assert_eq!(traced.to_bits(), want.to_bits());
            exact
        }
        (Err(want), Err(got), Err(_)) => {
            assert_eq!(got, want);
            0
        }
        (want, got, _) => panic!("{got:?} vs {want:?} on {samples:?}"),
    }
}

/// A set of `n` samples lying on a boundary where the exhaustive argmax switches
/// factor: two exact scores are equal to within rounding there. Mixes two random
/// sets as `a + s·b` and bisects `s` between two points whose argmax differs.
/// Returns the two sets that straddle the boundary, or none if the scan of `s`
/// never switched.
fn near_ties(n: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    let a: Vec<f64> = (0..n).map(|_| gaussian(rng)).collect();
    let b: Vec<f64> = (0..n)
        .map(|i| if i % 3 == 0 { 4.0 } else { 0.0 } + 0.5 * gaussian(rng))
        .collect();
    let at = |s: f64| -> Vec<f64> { a.iter().zip(&b).map(|(a, b)| a + s * b).collect() };
    let winner = |s: f64| todays_loo_select(&at(s)).unwrap().1;
    let mut out = Vec::new();
    let (mut s0, mut k0) = (0.0, winner(0.0));
    for step in 1..=24 {
        let s1 = step as f64 / 8.0;
        let k1 = winner(s1);
        if k1 != k0 {
            let (mut lo, mut hi) = (s0, s1);
            for _ in 0..56 {
                let mid = 0.5 * (lo + hi);
                if mid <= lo || mid >= hi {
                    break;
                }
                if winner(mid) == k0 {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            out.push(at(lo));
            out.push(at(hi));
        }
        (s0, k0) = (s1, k1);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every family, size and scale: the certified selector returns the
    /// exhaustive selector's bandwidth bit for bit.
    #[test]
    fn certified_loo_is_bit_identical_to_todays(
        kind in 0usize..KINDS,
        n in 3usize..=80,
        scale_exp in -150i32..=150,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // A third of the cases at the production sample count, and half at unit
        // scale, where the bound is tightest.
        let n = if seed % 3 == 0 { 32 } else { n };
        let scale = if seed % 2 == 0 { 1.0 } else { 10f64.powi(scale_exp) };
        check(&family(kind, n, scale, &mut rng));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Constructed near-ties: at least one of each straddling pair makes the
    /// screen defer to exact scoring, and both stay bit-identical.
    #[test]
    fn certified_loo_is_bit_identical_on_near_ties(
        n in 3usize..=80,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = if seed % 2 == 0 { 32 } else { n };
        for samples in near_ties(n, &mut rng) {
            check(&samples);
        }
    }
}

/// Both paths run: smooth sets are certified without exact scoring, near-ties
/// fall back to exact scoring of the contenders, and non-finite input falls back
/// to exact scoring of every factor.
#[test]
fn certificate_and_fallback_paths_both_run() {
    let mut rng = StdRng::seed_from_u64(0x1007);
    let (mut smooth, mut smooth_fallbacks) = (0usize, 0usize);
    for n in (3..=80).chain([32; 10]) {
        for kind in 0..KINDS {
            for scale in [1.0, 1e-150, 1e-20, 1e20, 1e150] {
                let exact = check(&family(kind, n, scale, &mut rng));
                match kind {
                    // ±∞ breaks the bound's premises: every factor is exact.
                    6 => assert_eq!(exact, 9, "non-finite input must fall back in full"),
                    0 | 1 | 2 | 7 => {
                        smooth += 1;
                        smooth_fallbacks += usize::from(exact > 0);
                    }
                    _ => {}
                }
            }
        }
    }
    assert!(
        smooth_fallbacks * 100 < smooth,
        "{smooth_fallbacks} of {smooth} smooth sets fell back"
    );
    let (mut ties, mut partial) = (0usize, 0usize);
    for n in [5, 32, 32, 57] {
        for samples in near_ties(n, &mut rng) {
            let exact = check(&samples);
            ties += 1;
            partial += usize::from((2..9).contains(&exact));
        }
    }
    assert!(
        ties > 0 && partial > 0,
        "{partial} of {ties} near-ties scored contenders exactly"
    );
}
