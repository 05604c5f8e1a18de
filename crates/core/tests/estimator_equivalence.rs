//! Property tests for the per-bin interference densities ([`BinDensity`]) and the
//! model that fits and queries them:
//!
//! * the far tail is finite and **strictly ordered** for both backends, so distant
//!   lattice candidates never tie (the old linear-domain floor collapsed them);
//! * incremental `update()` (dirty-bin refit after each preamble) produces a model
//!   **bit-for-bit identical** to batch `train()` on the same preambles, for every
//!   backend: scalar and batch answers, upper bounds and slice lower bounds alike;
//! * no batched answer ever exceeds the density's `ceiling`, nor its per-query
//!   `upper_bounds` entry, which is itself within the `amplitude_upper_bounds`
//!   entry, which is within the ceiling; and no slice's in-order answer sum falls
//!   below `sum_lower_bound`, which is itself at least `one_sample_sum_lower_bound`
//!   — the bounds the sphere decoder prunes and certifies with.

use cprecycle::interference_model::deviation;
use cprecycle::segments::{extract_segments, SymbolSegments};
use cprecycle::{BinDensity, CpRecycleConfig, InterferenceModel, ModelBackend};
use ofdmphy::ofdm::OfdmEngine;
use ofdmphy::params::OfdmParams;
use ofdmphy::preamble;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rfdsp::kde::ProductKde2d;
use rfdsp::stats::BivariateGaussian;
use rfdsp::Complex;

fn engine() -> OfdmEngine {
    OfdmEngine::new(OfdmParams::ieee80211ag())
}

/// One bin's (amplitude, phase) deviation samples.
#[derive(Debug, Clone, Default)]
struct Samples {
    amps: Vec<f64>,
    phases: Vec<f64>,
}

impl Samples {
    fn push(&mut self, amplitude: f64, phase: f64) {
        self.amps.push(amplitude);
        self.phases.push(phase);
    }

    fn fit(&self, config: &CpRecycleConfig) -> BinDensity {
        BinDensity::fit(&self.amps, &self.phases, config).unwrap()
    }
}

/// Every density family.
const BACKENDS: [ModelBackend; 2] = [ModelBackend::ExactKde, ModelBackend::Gaussian];

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

    /// Far-tail queries stay finite and strictly ordered for both backends.
    #[test]
    fn far_tails_stay_strictly_ordered(seed in any::<u64>(), n in 1usize..24) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let samples: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.gen_range(0.0..1.0), rng.gen_range(-3.0f64..3.0)))
            .collect();
        let (amps, phases): (Vec<f64>, Vec<f64>) = samples.iter().copied().unzip();
        let kde = ProductKde2d::from_axes(&amps, &phases, 0.05, 0.2).unwrap();
        let gaussian = BivariateGaussian::fit(&amps, &phases, 0.05, 0.2).unwrap();
        // At the mean phase the Gaussian's log-pdf falls with the square of the
        // amplitude's distance from the mean, so walking outward from the mean
        // must decrease it strictly.
        let (mean_a, mean_p) = gaussian.mean();
        let mut prev_exact = f64::INFINITY;
        let mut prev_gaussian = gaussian.log_pdf(mean_a, mean_p);
        for k in 0..20 {
            let a = 2.0 + k as f64 * 1.5;
            let exact = kde.log_eval(a, 0.5);
            let g = gaussian.log_pdf(mean_a + a, mean_p);
            prop_assert!(exact.is_finite() && g.is_finite());
            prop_assert!(exact < prev_exact, "exact tail must strictly decrease");
            prop_assert!(g < prev_gaussian, "Gaussian tail must strictly decrease");
            prev_exact = exact;
            prev_gaussian = g;
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
        for backend in BACKENDS {
            let config = CpRecycleConfig::with_model(backend);
            let batch = InterferenceModel::train(&e, &preambles, &references, config).unwrap();
            let mut incremental =
                InterferenceModel::train(&e, &preambles[..1], &references[..1], config).unwrap();
            for pre in &preambles[1..] {
                incremental.update(&e, pre, &reference).unwrap();
            }
            prop_assert_eq!(batch.num_preambles(), incremental.num_preambles());
            // Every occupied bin scores identically, bit for bit, across a spread of
            // (observation, candidate) queries — one at a time and as the sphere
            // decoder's deviation planes, whose upper bounds and slice lower bounds
            // must match too.
            let queries: Vec<(Complex, Complex)> = (0..6)
                .map(|k| {
                    let obs = Complex::new(1.0 + 0.4 * k as f64, 0.2 * k as f64 - 0.5);
                    let cand = Complex::new(if k % 2 == 0 { 1.0 } else { -1.0 }, 0.0);
                    (obs, cand)
                })
                .collect();
            let (amps, phases): (Vec<f64>, Vec<f64>) = queries
                .iter()
                .map(|&(obs, cand)| deviation(obs, cand))
                .unzip();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for bin in e.params().data_bins() {
                prop_assert_eq!(batch.num_samples(bin), incremental.num_samples(bin));
                for (k, &(obs, cand)) in queries.iter().enumerate() {
                    let b = batch.log_likelihood(bin, obs, cand);
                    let i = incremental.log_likelihood(bin, obs, cand);
                    prop_assert_eq!(
                        b.to_bits(),
                        i.to_bits(),
                        "backend {:?} bin {} query {}: batch {} vs incremental {}",
                        backend, bin, k, b, i
                    );
                }
                let [mut b, mut i] = [vec![0.0; amps.len()], vec![0.0; amps.len()]];
                batch.log_likelihood_batch(bin, &amps, &phases, &mut b);
                incremental.log_likelihood_batch(bin, &amps, &phases, &mut i);
                prop_assert_eq!(bits(&b), bits(&i), "{:?} bin {} batch", backend, bin);
                batch.log_likelihood_upper_bounds(bin, &amps, &phases, &mut b);
                incremental.log_likelihood_upper_bounds(bin, &amps, &phases, &mut i);
                prop_assert_eq!(bits(&b), bits(&i), "{:?} bin {} upper", backend, bin);
                for len in [1usize, 2, 6] {
                    for (a, p) in amps.chunks(len).zip(phases.chunks(len)) {
                        let b = batch.log_likelihood_sum_lower_bound(bin, a, p);
                        let i = incremental.log_likelihood_sum_lower_bound(bin, a, p);
                        prop_assert_eq!(
                            b.to_bits(),
                            i.to_bits(),
                            "{:?} bin {} lower bound of {:?}/{:?}", backend, bin, a, p
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every batched answer is at or below its per-query upper bound, which is at
    /// or below the bin's ceiling, and the lower bound of every query slice is at
    /// or below the in-order sum of its answers — for every backend and for
    /// unfitted bins. Queries sit on the samples themselves (where the density
    /// peaks), around them, far out in the tails (the exact backend's
    /// log-sum-exp path) and across the
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
        let mut samples = vec![Samples::default(); 8];
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
            amps.extend_from_slice(&samples[bin].amps);
            phases.extend_from_slice(&samples[bin].phases);
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
        for bin in [fitted, degenerate, single] {
            for (&a, &p) in samples[bin].amps.iter().zip(&samples[bin].phases) {
                amps.push(a + rng.gen_range(-0.05..0.05));
                phases.push(p + rng.gen_range(-0.1..0.1));
            }
            let exact = samples[bin].fit(&CpRecycleConfig::default());
            let BinDensity::Exact(kde) = &exact else {
                unreachable!("the default config fits exact KDEs")
            };
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
        // New draws, after every earlier one: for each fitted bin, queries at an
        // amplitude inside its samples' range but a phase beyond them (the
        // amplitude-only bound stays at the ceiling while the tight one falls),
        // and just beyond the amplitude range at a sample's phase (the two
        // bounds meet up to their slacks).
        for bin in [fitted, degenerate, single] {
            let (lo, hi) = samples[bin]
                .amps
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &a| (lo.min(a), hi.max(a)));
            let top = samples[bin].phases.iter().fold(f64::NEG_INFINITY, |m, &p| m.max(p));
            for _ in 0..4 {
                amps.push(lo + (hi - lo) * rng.gen_range(0.0..=1.0));
                phases.push(top + rng.gen_range(0.5..6.0));
                amps.push(hi + rng.gen_range(0.01..2.0));
                phases.push(samples[bin].phases[rng.gen_range(0..samples[bin].phases.len())]);
            }
        }
        let mut out = vec![0.0; amps.len()];
        let mut upper = vec![0.0; amps.len()];
        let mut amplitude_upper = vec![0.0; amps.len()];
        // Non-finite queries, and a finite one whose whitened square overflows.
        let unscorable = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e200];
        for backend in BACKENDS {
            let config = CpRecycleConfig::with_model(backend);
            // Fitted bins are queried through their density, the unfitted bin
            // through a model that never saw a sample.
            let densities: Vec<Option<BinDensity>> = (0..8)
                .map(|bin| (!samples[bin].amps.is_empty()).then(|| samples[bin].fit(&config)))
                .collect();
            let model = InterferenceModel::new(8, config);
            prop_assert!(!model.has_model(unfitted));
            // (A single sample has no spread to select from and fits bandwidth 1.)
            if let (Some(BinDensity::Exact(kde)), true) = (&densities[degenerate], n >= 2) {
                prop_assert_eq!(kde.bandwidth_amplitude(), config.min_bandwidth_amplitude);
                prop_assert_eq!(kde.bandwidth_phase(), config.min_bandwidth_phase);
            }
            for bin in [fitted, degenerate, unfitted, single] {
                let density = densities[bin].as_ref();
                let batch = |a: &[f64], p: &[f64], out: &mut [f64]| match density {
                    Some(d) => d.log_eval_batch(a, p, out),
                    None => model.log_likelihood_batch(bin, a, p, out),
                };
                let upper_bounds = |a: &[f64], p: &[f64], out: &mut [f64]| match density {
                    Some(d) => d.upper_bounds(a, p, out),
                    None => model.log_likelihood_upper_bounds(bin, a, p, out),
                };
                let lower_bound = |a: &[f64], p: &[f64]| match density {
                    Some(d) => d.sum_lower_bound(a, p),
                    None => model.log_likelihood_sum_lower_bound(bin, a, p),
                };
                let amplitude_bounds = |a: &[f64], out: &mut [f64]| match density {
                    Some(d) => d.amplitude_upper_bounds(a, out),
                    None => model.log_likelihood_amplitude_upper_bounds(bin, a, out),
                };
                let one_sample_bound = |a: &[f64], p: &[f64]| match density {
                    Some(d) => d.one_sample_sum_lower_bound(a, p),
                    None => model.log_likelihood_one_sample_sum_lower_bound(bin, a, p),
                };
                // The unfitted bin's penalty −½a² peaks at 0.
                let ceiling = density.map_or(0.0, BinDensity::ceiling);
                prop_assert!(ceiling.is_finite(), "{:?} bin {}: ceiling {}", backend, bin, ceiling);
                batch(&amps, &phases, &mut out);
                upper_bounds(&amps, &phases, &mut upper);
                for (q, (v, u)) in out.iter().zip(&upper).enumerate() {
                    prop_assert!(
                        *v <= ceiling,
                        "{:?} bin {} query ({}, {}): {} above ceiling {}",
                        backend, bin, amps[q], phases[q], v, ceiling
                    );
                    prop_assert!(
                        *v <= *u && *u <= ceiling,
                        "{:?} bin {} query ({}, {}): answer {} bound {} ceiling {}",
                        backend, bin, amps[q], phases[q], v, u, ceiling
                    );
                }
                // Slices of one, two and sixteen queries, in the decoder's
                // candidate-major order.
                for len in [1usize, 2, 16] {
                    for ((a, p), v) in amps.chunks(len).zip(phases.chunks(len)).zip(out.chunks(len)) {
                        let floor = lower_bound(a, p);
                        let score: f64 = v.iter().sum();
                        prop_assert!(
                            floor <= score,
                            "{:?} bin {} queries {:?}/{:?}: lower bound {} above score {}",
                            backend, bin, a, p, floor, score
                        );
                        // The exact backend bounds every finite fitted slice.
                        if backend == ModelBackend::ExactKde && bin != unfitted {
                            prop_assert!(floor.is_finite(), "bin {}: {:?}/{:?}", bin, a, p);
                        }
                        let one = one_sample_bound(a, p);
                        prop_assert!(
                            one <= floor,
                            "{:?} bin {} queries {:?}/{:?}: one-sample bound {} above {}",
                            backend, bin, a, p, one, floor
                        );
                    }
                }
                for bad in unscorable {
                    for (a, p) in [(bad, 0.3), (0.3, bad)] {
                        let qa = [0.1, a, 0.2];
                        let qp = [0.0, p, -0.4];
                        prop_assert_eq!(
                            lower_bound(&qa, &qp),
                            f64::NEG_INFINITY,
                            "{:?} bin {} query ({}, {})", backend, bin, a, p
                        );
                        let mut bounds = [0.0; 3];
                        upper_bounds(&qa, &qp, &mut bounds);
                        prop_assert!(bounds.iter().all(|b| *b <= ceiling), "{:?}", bounds);
                        // An infinite or overflowing coordinate, or a NaN query
                        // (an error vector with a NaN part has a NaN amplitude
                        // and phase), gets the ceiling as its tight bound, and an
                        // unscorable amplitude gets it as its amplitude-only
                        // bound; the one-sample bound is −∞.
                        if !bad.is_nan() {
                            prop_assert_eq!(bounds[1], ceiling, "{:?} bin {} tight ({}, {})", backend, bin, a, p);
                        }
                        upper_bounds(&[bad], &[bad], &mut bounds[..1]);
                        prop_assert_eq!(bounds[0], ceiling, "{:?} bin {} tight ({}, {})", backend, bin, bad, bad);
                        amplitude_bounds(&qa, &mut bounds);
                        prop_assert!(bounds.iter().all(|b| *b <= ceiling), "{:?}", bounds);
                        if a.to_bits() == bad.to_bits() {
                            prop_assert_eq!(bounds[1], ceiling, "{:?} bin {} amplitude {}", backend, bin, a);
                        }
                        prop_assert_eq!(
                            one_sample_bound(&qa, &qp),
                            f64::NEG_INFINITY,
                            "{:?} bin {} one-sample ({}, {})", backend, bin, a, p
                        );
                    }
                }
                // Per query: answer ≤ tight bound ≤ amplitude-only bound ≤ ceiling.
                amplitude_bounds(&amps, &mut amplitude_upper);
                for (q, (u, w)) in upper.iter().zip(&amplitude_upper).enumerate() {
                    prop_assert!(
                        out[q] <= *u && *u <= *w && *w <= ceiling,
                        "{:?} bin {} query ({}, {}): answer {} tight {} amplitude-only {} ceiling {}",
                        backend, bin, amps[q], phases[q], out[q], u, w, ceiling
                    );
                }
            }
        }
    }
}

/// The ceiling is tight where it matters: a query on a degenerate bin's single
/// point reaches it up to the rounding slack, so pruning against it loses nothing.
#[test]
fn exact_ceiling_is_reached_at_a_degenerate_peak() {
    let mut samples = Samples::default();
    for _ in 0..34 {
        samples.push(0.4, -1.0);
    }
    let config = CpRecycleConfig::default();
    let density = samples.fit(&config);
    let ceiling = density.ceiling();
    let mut out = [0.0];
    density.log_eval_batch(&[0.4], &[-1.0], &mut out);
    assert!(out[0] <= ceiling);
    assert!(
        ceiling - out[0] < 1e-9,
        "peak {} vs ceiling {ceiling}",
        out[0]
    );
    let mut bounds = [f64::NAN; 3];
    InterferenceModel::new(4, config).log_likelihood_upper_bounds(
        3,
        &[0.0, 0.4, 50.0],
        &[0.0, -1.0, 3.0],
        &mut bounds,
    );
    assert_eq!(bounds, [0.0; 3], "unfitted bins bound the fallback");
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

/// Densities fitted directly agree with the model path on real extracted segments
/// (the receiver's LTF framing).
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
    let bin = e.params().data_bins()[7];
    assert!(matches!(model.density(bin), Some(BinDensity::Exact(_))));

    // Rebuild the same fit from the bin's own deviations.
    let mut samples = Samples::default();
    for obs in segs.bin_observations(bin) {
        let (a, p) = deviation(*obs, reference[bin]);
        samples.push(a, p);
    }
    let exact = samples.fit(&config);
    let gaussian_config = CpRecycleConfig::with_model(ModelBackend::Gaussian);
    let gaussian = samples.fit(&gaussian_config);
    let obs = Complex::new(0.9, 0.1);
    let cand = Complex::one();
    let (a, p) = deviation(obs, cand);
    assert_eq!(
        model.log_likelihood(bin, obs, cand).to_bits(),
        exact.log_eval(a, p).to_bits(),
        "a directly fitted exact density must match the model's"
    );
    // The model fits the family its config selects.
    let gaussian_model = InterferenceModel::train(
        &e,
        std::slice::from_ref(&segs),
        std::slice::from_ref(&reference),
        gaussian_config,
    )
    .unwrap();
    assert!(matches!(
        gaussian_model.density(bin),
        Some(BinDensity::Gaussian(_))
    ));
    assert_eq!(
        gaussian_model.log_likelihood(bin, obs, cand).to_bits(),
        gaussian.log_eval(a, p).to_bits(),
        "a directly fitted Gaussian must match the model's"
    );
}
