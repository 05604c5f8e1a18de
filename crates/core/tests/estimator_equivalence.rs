//! Property tests for the pluggable interference-estimator subsystem (the tentpole
//! invariants of the estimator refactor):
//!
//! * `GridKde` tracks `ExactKde`: over random sample sets, bandwidths and query
//!   points inside the grid, the precomputed log-likelihood agrees with the exact
//!   kernel sum to a tolerance that scales with how deep into the tails the query
//!   sits (the decisive region near the density peak is tight; valleys between
//!   well-separated modes — where curvature can exceed the grid resolution — are
//!   proportionally looser, exactly the regions the ML argmax never hinges on);
//! * the far tail is finite and **strictly ordered** for both backends, so distant
//!   lattice candidates never tie (the old linear-domain floor collapsed them);
//! * incremental `update()` (dirty-bin refit after each preamble) produces a model
//!   **bit-for-bit identical** to batch `train()` on the same preambles, for every
//!   backend;
//! * no batched answer ever exceeds the backend's per-bin
//!   `log_likelihood_ceiling`, nor its per-query `log_likelihood_upper_bounds`
//!   entry (which is itself within the ceiling), and no slice's in-order answer
//!   sum falls below `log_likelihood_sum_lower_bound` — the bounds the sphere
//!   decoder prunes and certifies with.

use cprecycle::estimator::{
    BinSamples, EstimatorState, ExactKdeEstimator, GridKdeEstimator, InterferenceEstimator,
    ModelBackend,
};
use cprecycle::segments::{extract_segments, SymbolSegments};
use cprecycle::{CpRecycleConfig, InterferenceModel, KernelPrecision};
use ofdmphy::ofdm::OfdmEngine;
use ofdmphy::params::OfdmParams;
use ofdmphy::preamble;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rfdsp::kde::{GridKde2d, GridSpec, ProductKde2d};
use rfdsp::Complex;

fn engine() -> OfdmEngine {
    OfdmEngine::new(OfdmParams::ieee80211ag())
}

/// Synthetic preamble segment sets with per-bin interference of varying strength.
fn synthetic_preambles(seed: u64, num_preambles: usize, p: usize) -> Vec<SymbolSegments> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let e = engine();
    let reference = preamble::ltf_bins(e.params());
    (0..num_preambles)
        .map(|_| {
            let rows: Vec<Vec<Complex>> = (0..p)
                .map(|_| {
                    reference
                        .iter()
                        .map(|r| {
                            if r.norm_sqr() == 0.0 {
                                Complex::zero()
                            } else {
                                *r + Complex::from_polar(
                                    rng.gen_range(0.0..1.5),
                                    rng.gen_range(-3.1..3.1),
                                )
                            }
                        })
                        .collect()
                })
                .collect();
            SymbolSegments::from_rows(rows)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Grid-vs-exact agreement over random samples, bandwidths and query points.
    #[test]
    fn grid_matches_exact_within_tolerance(
        seed in any::<u64>(),
        n in 4usize..48,
        bw_a in 0.05f64..0.4,
        bw_p in 0.2f64..1.0,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let samples: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.gen_range(0.0..2.0), rng.gen_range(-3.1f64..3.1)))
            .collect();
        let kde = ProductKde2d::with_bandwidths(&samples, bw_a, bw_p).unwrap();
        let spec = GridSpec {
            points_per_bandwidth: 6.0,
            max_points_per_axis: 512,
            margin_bandwidths: 4.0,
        };
        let grid = GridKde2d::build(&kde, &spec).unwrap();
        // The decisive region: the exact log density at the best-covered sample.
        let peak = samples
            .iter()
            .map(|(a, p)| kde.log_eval(*a, *p))
            .fold(f64::NEG_INFINITY, f64::max);
        for _ in 0..32 {
            let a = rng.gen_range(0.0..2.0);
            let p = rng.gen_range(-3.1f64..3.1);
            let exact = kde.log_eval(a, p);
            let approx = grid.log_eval(a, p);
            // Tight near the peak, proportionally looser deep in the tails where the
            // log density is dominated by a single distant kernel and the argmax
            // never looks.
            let tol = 0.05 + 0.05 * (peak - exact).max(0.0);
            prop_assert!(
                (exact - approx).abs() <= tol,
                "query ({a}, {p}): exact {exact}, grid {approx}, tol {tol}"
            );
        }
    }

    /// Far-tail queries stay finite and strictly ordered for both backends.
    #[test]
    fn far_tails_stay_strictly_ordered(seed in any::<u64>(), n in 1usize..24) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let samples: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.gen_range(0.0..1.0), rng.gen_range(-3.0f64..3.0)))
            .collect();
        let kde = ProductKde2d::with_bandwidths(&samples, 0.05, 0.2).unwrap();
        let grid = GridKde2d::build(&kde, &GridSpec::default()).unwrap();
        let mut prev_exact = f64::INFINITY;
        let mut prev_grid = f64::INFINITY;
        for k in 0..20 {
            let a = 2.0 + k as f64 * 1.5;
            let exact = kde.log_eval(a, 0.5);
            let approx = grid.log_eval(a, 0.5);
            prop_assert!(exact.is_finite() && approx.is_finite());
            prop_assert!(exact < prev_exact, "exact tail must strictly decrease");
            prop_assert!(approx < prev_grid, "grid tail must strictly decrease");
            prev_exact = exact;
            prev_grid = approx;
        }
    }

    /// Incremental dirty-bin updates reproduce batch training bit-for-bit.
    #[test]
    fn incremental_update_equals_batch_training(
        seed in any::<u64>(),
        num_preambles in 2usize..5,
        p in 2usize..17,
    ) {
        let e = engine();
        let reference = preamble::ltf_bins(e.params());
        let preambles = synthetic_preambles(seed, num_preambles, p);
        let references = vec![reference.clone(); num_preambles];
        for backend in [
            ModelBackend::ExactKde,
            ModelBackend::GridKde,
            ModelBackend::Gaussian,
        ] {
            let config = CpRecycleConfig::with_model(backend);
            let batch = InterferenceModel::train(&e, &preambles, &references, config).unwrap();
            let mut incremental =
                InterferenceModel::train(&e, &preambles[..1], &references[..1], config).unwrap();
            for pre in &preambles[1..] {
                incremental.update(&e, pre, &reference).unwrap();
            }
            prop_assert_eq!(batch.num_preambles(), incremental.num_preambles());
            // Every occupied bin scores identically, bit for bit, across a spread of
            // (observation, candidate) queries.
            for bin in e.params().data_bins() {
                prop_assert_eq!(batch.num_samples(bin), incremental.num_samples(bin));
                for k in 0..6 {
                    let obs = Complex::new(1.0 + 0.4 * k as f64, 0.2 * k as f64 - 0.5);
                    let cand = Complex::new(if k % 2 == 0 { 1.0 } else { -1.0 }, 0.0);
                    let b = batch.log_likelihood(bin, obs, cand);
                    let i = incremental.log_likelihood(bin, obs, cand);
                    prop_assert_eq!(
                        b.to_bits(),
                        i.to_bits(),
                        "backend {:?} bin {} query {}: batch {} vs incremental {}",
                        backend, bin, k, b, i
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every batched answer is at or below its per-query upper bound, which is at
    /// or below the bin's ceiling, and the lower bound of every query slice is at
    /// or below the in-order sum of its answers — for every backend and kernel
    /// precision and for unfitted bins. Queries sit on the samples themselves
    /// (where the density peaks), around them, far out in the tails (the exact
    /// backend's log-sum-exp path, the grid's tail continuation) and across the
    /// polynomial `exp`'s underflow clamp. A degenerate bin whose samples all
    /// coincide fits at the `min_bandwidth_*` floors, the narrowest and tallest
    /// density the configuration allows; a single-sample bin has a kernel sum of
    /// one term, where the lower bound is tightest. Non-finite queries, and
    /// finite ones whose kernel exponents overflow, get no lower bound (`−∞`) and
    /// an upper bound within the ceiling.
    #[test]
    fn batch_answers_never_exceed_the_ceiling(
        seed in any::<u64>(),
        n in 1usize..40,
        spread in 0.0f64..2.0,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (fitted, degenerate, unfitted, single) = (3usize, 4usize, 5usize, 6usize);
        let mut samples = vec![BinSamples::default(); 8];
        let (da, dp) = (rng.gen_range(0.0..1.5), rng.gen_range(-3.0f64..3.0));
        for _ in 0..n {
            samples[fitted].push(
                rng.gen_range(0.0..0.1 + spread),
                rng.gen_range(-3.1f64..3.1) * spread.min(1.0),
            );
            samples[degenerate].push(da, dp);
        }
        // Queries: every sample point, jittered neighbours, and far tails.
        let mut amps = Vec::new();
        let mut phases = Vec::new();
        for bin in [fitted, degenerate] {
            amps.extend_from_slice(samples[bin].amplitudes());
            phases.extend_from_slice(samples[bin].phases());
        }
        for _ in 0..24 {
            amps.push(rng.gen_range(0.0..3.0));
            phases.push(rng.gen_range(-3.2f64..3.2));
            amps.push(rng.gen_range(40.0..1e4));
            phases.push(rng.gen_range(-3.2f64..3.2));
        }
        amps.push(0.0);
        phases.push(0.0);
        // The single-sample bin's point, then for each fitted bin its samples'
        // close neighbours and amplitudes whose whitened squared distance to the
        // outermost sample spans 600..800: the linear kernel sum's underflow
        // switch (≈ 667) and the `exp` clamp (≈ 708).
        let (sa, sp) = (rng.gen_range(0.0..1.5), rng.gen_range(-3.0f64..3.0));
        samples[single].push(sa, sp);
        amps.push(sa);
        phases.push(sp);
        let mut exact = ExactKdeEstimator::new(8);
        exact.train(&samples, &CpRecycleConfig::default()).unwrap();
        for bin in [fitted, degenerate, single] {
            for (&a, &p) in samples[bin].amplitudes().iter().zip(samples[bin].phases()) {
                amps.push(a + rng.gen_range(-0.05..0.05));
                phases.push(p + rng.gen_range(-0.1..0.1));
            }
            let kde = exact.kde(bin).unwrap();
            let (edge_a, edge_p) = kde
                .amplitudes()
                .iter()
                .zip(kde.phases())
                .fold((f64::NEG_INFINITY, 0.0), |m, (&a, &p)| if a > m.0 { (a, p) } else { m });
            for _ in 0..8 {
                let distance = rng.gen_range(600.0f64..800.0).sqrt();
                amps.push(edge_a + distance * std::f64::consts::SQRT_2 * kde.bandwidth_amplitude());
                phases.push(edge_p);
            }
        }
        let mut out = vec![0.0; amps.len()];
        let mut upper = vec![0.0; amps.len()];
        // Non-finite queries, and a finite one whose whitened square overflows.
        let unscorable = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e200];
        for (backend, precision) in [
            (ModelBackend::ExactKde, KernelPrecision::F64),
            (ModelBackend::GridKde, KernelPrecision::F64),
            (ModelBackend::GridKde, KernelPrecision::F32),
            (ModelBackend::Gaussian, KernelPrecision::F64),
        ] {
            let config = CpRecycleConfig::builder()
                .model(backend)
                .precision(precision)
                .build();
            let mut est = EstimatorState::with_precision(backend, 8, precision);
            est.train(&samples, &config).unwrap();
            prop_assert!(!est.has_model(unfitted));
            // (A single sample has no spread to select from and fits bandwidth 1.)
            if let (EstimatorState::Exact(exact), true) = (&est, n >= 2) {
                let kde = exact.kde(degenerate).unwrap();
                prop_assert_eq!(kde.bandwidth_amplitude(), config.min_bandwidth_amplitude);
                prop_assert_eq!(kde.bandwidth_phase(), config.min_bandwidth_phase);
            }
            for bin in [fitted, degenerate, unfitted, single] {
                let ceiling = est.log_likelihood_ceiling(bin);
                prop_assert!(ceiling.is_finite(), "{:?} bin {}: ceiling {}", backend, bin, ceiling);
                est.log_likelihood_batch(bin, &amps, &phases, &mut out);
                est.log_likelihood_upper_bounds(bin, &amps, &phases, &mut upper);
                for (q, (v, u)) in out.iter().zip(&upper).enumerate() {
                    prop_assert!(
                        *v <= ceiling,
                        "{:?}/{:?} bin {} query ({}, {}): {} above ceiling {}",
                        backend, precision, bin, amps[q], phases[q], v, ceiling
                    );
                    prop_assert!(
                        *v <= *u && *u <= ceiling,
                        "{:?}/{:?} bin {} query ({}, {}): answer {} bound {} ceiling {}",
                        backend, precision, bin, amps[q], phases[q], v, u, ceiling
                    );
                }
                // Slices of one, two and sixteen queries, in the decoder's
                // candidate-major order.
                for len in [1usize, 2, 16] {
                    for ((a, p), v) in amps.chunks(len).zip(phases.chunks(len)).zip(out.chunks(len)) {
                        let floor = est.log_likelihood_sum_lower_bound(bin, a, p);
                        let score: f64 = v.iter().sum();
                        prop_assert!(
                            floor <= score,
                            "{:?}/{:?} bin {} queries {:?}/{:?}: lower bound {} above score {}",
                            backend, precision, bin, a, p, floor, score
                        );
                        // The exact backend bounds every finite fitted slice.
                        if backend == ModelBackend::ExactKde && bin != unfitted {
                            prop_assert!(floor.is_finite(), "bin {}: {:?}/{:?}", bin, a, p);
                        }
                    }
                }
                for bad in unscorable {
                    for (a, p) in [(bad, 0.3), (0.3, bad)] {
                        let qa = [0.1, a, 0.2];
                        let qp = [0.0, p, -0.4];
                        prop_assert_eq!(
                            est.log_likelihood_sum_lower_bound(bin, &qa, &qp),
                            f64::NEG_INFINITY,
                            "{:?} bin {} query ({}, {})", backend, bin, a, p
                        );
                        let mut bounds = [0.0; 3];
                        est.log_likelihood_upper_bounds(bin, &qa, &qp, &mut bounds);
                        prop_assert!(bounds.iter().all(|b| *b <= ceiling), "{:?}", bounds);
                    }
                }
            }
        }
    }
}

/// The ceiling is tight where it matters: a query on a degenerate bin's single
/// point reaches it up to the rounding slack, so pruning against it loses nothing.
#[test]
fn exact_ceiling_is_reached_at_a_degenerate_peak() {
    let mut samples = vec![BinSamples::default(); 4];
    for _ in 0..34 {
        samples[2].push(0.4, -1.0);
    }
    let config = CpRecycleConfig::default();
    let mut est = ExactKdeEstimator::new(4);
    est.train(&samples, &config).unwrap();
    let ceiling = est.log_likelihood_ceiling(2);
    let mut out = [0.0];
    est.log_likelihood_batch(2, &[0.4], &[-1.0], &mut out);
    assert!(out[0] <= ceiling);
    assert!(
        ceiling - out[0] < 1e-9,
        "peak {} vs ceiling {ceiling}",
        out[0]
    );
    assert_eq!(
        est.log_likelihood_ceiling(3),
        0.0,
        "unfitted bins bound the fallback"
    );
}

/// Dirty-bin tracking at the estimator level: updating with a preamble that only
/// covers some bins refits exactly those bins.
#[test]
fn update_refits_only_bins_that_received_samples() {
    let e = engine();
    let mut reference = preamble::ltf_bins(e.params());
    let preambles = synthetic_preambles(7, 1, 9);
    let refs = vec![reference.clone()];
    let config = CpRecycleConfig::default();
    let mut model = InterferenceModel::train(&e, &preambles[..1], &refs, config).unwrap();

    // Second preamble carries nothing on half the data bins (reference zeroed), so
    // those bins must keep their exact pre-update densities.
    let data_bins = e.params().data_bins();
    let (covered, skipped) = data_bins.split_at(data_bins.len() / 2);
    for &bin in skipped {
        reference[bin] = Complex::zero();
    }
    let before: Vec<f64> = skipped
        .iter()
        .map(|&bin| model.log_likelihood(bin, Complex::new(1.3, 0.2), Complex::one()))
        .collect();
    let next = synthetic_preambles(8, 1, 9);
    model.update(&e, &next[0], &reference).unwrap();
    for (&bin, &b) in skipped.iter().zip(&before) {
        assert_eq!(
            model.num_samples(bin),
            9,
            "skipped bin {bin} absorbed samples"
        );
        let after = model.log_likelihood(bin, Complex::new(1.3, 0.2), Complex::one());
        assert_eq!(b.to_bits(), after.to_bits(), "skipped bin {bin} was refit");
    }
    for &bin in covered {
        assert_eq!(
            model.num_samples(bin),
            18,
            "covered bin {bin} missed samples"
        );
    }
}

/// The trait's default `train` and the backends' direct use agree with the model path
/// on real extracted segments (the receiver's LTF framing).
#[test]
fn backends_agree_with_model_dispatch_on_real_segments() {
    use ofdmphy::chanest::ChannelEstimate;
    let e = engine();
    let ltf = preamble::generate_ltf(e.params());
    let est = ChannelEstimate::from_ltf(&e, &ltf).unwrap();
    let reference = preamble::ltf_bins(e.params());
    let segs = extract_segments(&e, &ltf[16..96], &est, 9).unwrap();
    let config = CpRecycleConfig::default();
    let model = InterferenceModel::train(
        &e,
        std::slice::from_ref(&segs),
        std::slice::from_ref(&reference),
        config,
    )
    .unwrap();
    assert_eq!(model.backend(), ModelBackend::ExactKde);

    // Rebuild the same fit through the standalone backends.
    let mut exact = ExactKdeEstimator::new(64);
    let mut grid = GridKdeEstimator::new(64);
    let mut samples = vec![cprecycle::estimator::BinSamples::default(); 64];
    for bin in e.params().occupied_bins() {
        if reference[bin].norm_sqr() == 0.0 {
            continue;
        }
        for obs in segs.bin_observations(bin) {
            let (a, p) = cprecycle::interference_model::deviation(*obs, reference[bin]);
            samples[bin].push(a, p);
        }
    }
    exact.train(&samples, &config).unwrap();
    grid.train(&samples, &config).unwrap();
    let bin = e.params().data_bins()[7];
    let obs = Complex::new(0.9, 0.1);
    let cand = Complex::one();
    assert_eq!(
        model.log_likelihood(bin, obs, cand).to_bits(),
        exact.log_likelihood(bin, obs, cand).to_bits(),
        "standalone exact backend must match the model dispatch"
    );
    let g = grid.log_likelihood(bin, obs, cand);
    assert!((g - exact.log_likelihood(bin, obs, cand)).abs() < 0.1);
    // EstimatorState::new builds the same backends the enum dispatch uses.
    assert!(matches!(
        EstimatorState::new(ModelBackend::GridKde, 64),
        EstimatorState::Grid(_)
    ));
}
