//! Property tests for the decision-stage refactor (the tentpole invariant of the
//! `SubcarrierDecoder` port): across random observation sets, every modulation and
//! every valid segment count `P ∈ {1..C+1}`, the trait-based decoders must agree
//! **bit-for-bit** with the pre-refactor implementations (reproduced here verbatim as
//! reference code), the sphere path must never reallocate its candidate buffers after
//! warm-up, and a `DecisionStage::Standard` receiver must match a `P = 1` sphere
//! receiver frame-for-frame.
//!
//! The sphere decoder's branch-and-bound search is pinned separately against
//! [`exhaustive_sphere_decode`], the batch scorer that scores every candidate in
//! full: same decisions for every backend, on near-ties and on non-finite input.

use cprecycle::decision::{
    DecoderScratch, NaiveCentroidDecoder, StandardNearestDecoder, SubcarrierDecoder,
};
use cprecycle::interference_model::deviation_planes;
use cprecycle::segments::SymbolSegments;
use cprecycle::{
    CpRecycleConfig, CpRecycleReceiver, DecisionStage, FixedSphereMlDecoder, InterferenceModel,
    KernelPrecision, ModelBackend, RxStream,
};
use ofdmphy::frame::{Mcs, Transmitter};
use ofdmphy::modulation::Modulation;
use ofdmphy::ofdm::OfdmEngine;
use ofdmphy::params::OfdmParams;
use ofdmphy::rx::ModelPersistence;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rfdsp::stats::centroid;
use rfdsp::Complex;
use wirelesschan::awgn::AwgnChannel;

const ALL_MODULATIONS: [Modulation; 5] = [
    Modulation::Bpsk,
    Modulation::Qpsk,
    Modulation::Qam16,
    Modulation::Qam64,
    Modulation::Qam256,
];

/// The pre-refactor sphere decoder (`FixedSphereMlDecoder::decode_subcarrier` before
/// the trait port), reproduced verbatim: per-call candidate `Vec` with cloned
/// `(point, bits)` pairs, nearest-point fallback, max-log-likelihood scan.
fn reference_sphere_decode(
    model: &InterferenceModel,
    modulation: Modulation,
    radius_min_distances: f64,
    bin: usize,
    observations: &[Complex],
) -> (Complex, Vec<u8>) {
    let radius = radius_min_distances.max(0.0) * modulation.min_distance();
    let constellation = modulation.constellation();
    let center = centroid(observations).unwrap_or(Complex::zero());
    let inside: Vec<(Complex, Vec<u8>)> = constellation
        .iter()
        .filter(|(p, _)| (*p - center).norm() <= radius)
        .cloned()
        .collect();
    let candidates = if inside.is_empty() {
        let (p, bits) = modulation.nearest_point(center);
        vec![(p, bits)]
    } else {
        inside
    };
    let mut best = candidates[0].clone();
    let mut best_score = f64::NEG_INFINITY;
    for (point, bits) in candidates {
        let score: f64 = observations
            .iter()
            .map(|obs| model.log_likelihood(bin, *obs, point))
            .sum();
        if score > best_score {
            best_score = score;
            best = (point, bits);
        }
    }
    best
}

/// The sphere decoder before branch-and-bound pruning, reproduced verbatim: every
/// candidate × observation error vector in one candidate-major plane, one polar
/// conversion, one `log_likelihood_batch` call, an in-order sum per candidate and the
/// first strict maximum (so ties and all-non-finite scores keep the lowest index).
/// Returns the decided lattice index.
fn exhaustive_sphere_decode(
    decoder: &FixedSphereMlDecoder<'_>,
    model: &InterferenceModel,
    bin: usize,
    observations: &[Complex],
) -> u16 {
    let mut scratch = DecoderScratch::new();
    let candidates = decoder.candidates(observations, &mut scratch).to_vec();
    let lattice = decoder.modulation().lattice();
    let p = observations.len();
    let mut amp = Vec::with_capacity(candidates.len() * p);
    let mut phase = Vec::with_capacity(candidates.len() * p);
    for &index in &candidates {
        let point = lattice.point(index);
        for obs in observations {
            let err = *obs - point;
            amp.push(err.re);
            phase.push(err.im);
        }
    }
    deviation_planes(&mut amp, &mut phase);
    let mut log_likes = vec![0.0; amp.len()];
    model.log_likelihood_batch(bin, &amp, &phase, &mut log_likes);
    let mut best = 0usize;
    let mut best_score = f64::NEG_INFINITY;
    for (k, chunk) in log_likes.chunks_exact(p).enumerate() {
        let score: f64 = chunk.iter().sum();
        if score > best_score {
            best_score = score;
            best = k;
        }
    }
    candidates[best]
}

/// The pre-refactor naive decoder (`naive::decode_subcarrier`), reproduced verbatim.
fn reference_naive_decode(observations: &[Complex], modulation: Modulation) -> (Complex, Vec<u8>) {
    let mut best_point = Complex::zero();
    let mut best_bits = Vec::new();
    let mut best_metric = f64::INFINITY;
    for (point, bits) in modulation.constellation() {
        let metric: f64 = observations.iter().map(|o| (*o - point).norm()).sum();
        if metric < best_metric {
            best_metric = metric;
            best_point = point;
            best_bits = bits;
        }
    }
    (best_point, best_bits)
}

/// Random observation clusters: a transmitted lattice point plus noise, with a
/// fraction of segments hit by a strong interference vector — the shape the decoders
/// actually see, spanning both the "sphere around the cluster" and the empty-sphere
/// fallback regimes.
fn random_observations<R: Rng>(rng: &mut R, modulation: Modulation, p: usize) -> Vec<Complex> {
    let points = modulation.points();
    let tx = points[rng.gen_range(0..points.len())];
    (0..p)
        .map(|_| {
            let noise = Complex::new(rng.gen_range(-0.1..0.1), rng.gen_range(-0.1..0.1));
            let interference = if rng.gen_range(0..3) == 0 {
                Complex::from_polar(rng.gen_range(0.0..4.0), rng.gen_range(-3.1..3.1))
            } else {
                Complex::zero()
            };
            tx + noise + interference
        })
        .collect()
}

/// A model trained on synthetic per-bin deviation samples so the KDE scoring path
/// (not just the untrained fallback) is exercised.
fn trained_model(engine: &OfdmEngine, seed: u64) -> InterferenceModel {
    trained_model_with(engine, seed, CpRecycleConfig::default())
}

/// [`trained_model`] under an explicit configuration (backend, precision).
fn trained_model_with(
    engine: &OfdmEngine,
    seed: u64,
    config: CpRecycleConfig,
) -> InterferenceModel {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let reference: Vec<Complex> = (0..64)
        .map(|bin| {
            if engine.params().occupied_bins().contains(&bin) {
                Complex::new(1.0, 0.0)
            } else {
                Complex::zero()
            }
        })
        .collect();
    let rows: Vec<Vec<Complex>> = (0..6)
        .map(|_| {
            reference
                .iter()
                .map(|r| {
                    if r.norm_sqr() == 0.0 {
                        Complex::zero()
                    } else {
                        *r + Complex::from_polar(rng.gen_range(0.0..2.0), rng.gen_range(-3.1..3.1))
                    }
                })
                .collect()
        })
        .collect();
    InterferenceModel::train(
        engine,
        &[SymbolSegments::from_rows(rows)],
        &[reference],
        config,
    )
    .expect("synthetic training succeeds")
}

/// Every scoring backend the sphere decoder can run against, the reduced-precision
/// grid kernel included.
fn every_backend() -> [CpRecycleConfig; 4] {
    [
        CpRecycleConfig::with_model(ModelBackend::ExactKde),
        CpRecycleConfig::with_model(ModelBackend::GridKde),
        CpRecycleConfig::builder()
            .model(ModelBackend::GridKde)
            .precision(KernelPrecision::F32)
            .build(),
        CpRecycleConfig::with_model(ModelBackend::Gaussian),
    ]
}

/// Asserts the pruned decoder and the exhaustive oracle decide the same lattice
/// index for `observations`.
fn assert_matches_exhaustive(
    decoder: &FixedSphereMlDecoder<'_>,
    model: &InterferenceModel,
    bin: usize,
    observations: &[Complex],
    scratch: &mut DecoderScratch,
    context: &str,
) {
    let pruned = decoder.decide(bin, observations, scratch);
    let exhaustive = exhaustive_sphere_decode(decoder, model, bin, observations);
    assert_eq!(
        pruned.index, exhaustive,
        "{context}: observations {observations:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Trait-based sphere decisions are bit-for-bit the pre-refactor decisions for
    /// every modulation and every valid `P ∈ {1..C+1}`, through both the trained-KDE
    /// and the empty-sphere/fallback paths.
    #[test]
    fn sphere_trait_matches_reference_bit_for_bit(seed in any::<u64>(), radius in 0.0f64..4.0) {
        let engine = OfdmEngine::new(OfdmParams::ieee80211ag());
        let model = trained_model(&engine, seed);
        let bin = engine.params().data_bins()[10];
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xD1CE);
        let mut scratch = DecoderScratch::new();
        for modulation in ALL_MODULATIONS {
            let decoder = FixedSphereMlDecoder::new(&model, modulation, radius);
            for p in 1..=engine.params().cp_len + 1 {
                let obs = random_observations(&mut rng, modulation, p);
                let decided = decoder.decide(bin, &obs, &mut scratch);
                let (ref_point, ref_bits) =
                    reference_sphere_decode(&model, modulation, radius, bin, &obs);
                prop_assert_eq!(
                    decided.value, ref_point,
                    "{:?} P {} radius {}", modulation, p, radius
                );
                prop_assert_eq!(decided.bits(modulation), &ref_bits[..]);
            }
        }
    }

    /// Trait-based naive decisions are bit-for-bit the pre-refactor
    /// `naive::decode_subcarrier` decisions.
    #[test]
    fn naive_trait_matches_reference_bit_for_bit(seed in any::<u64>()) {
        let params = OfdmParams::ieee80211ag();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut scratch = DecoderScratch::new();
        for modulation in ALL_MODULATIONS {
            let decoder = NaiveCentroidDecoder::new(modulation);
            for p in 1..=params.cp_len + 1 {
                let obs = random_observations(&mut rng, modulation, p);
                let decided = decoder.decide(0, &obs, &mut scratch);
                let (ref_point, ref_bits) = reference_naive_decode(&obs, modulation);
                prop_assert_eq!(decided.value, ref_point, "{:?} P {}", modulation, p);
                prop_assert_eq!(decided.bits(modulation), &ref_bits[..]);
            }
        }
    }

    /// Trait-based standard-window decisions are bit-for-bit
    /// `Modulation::nearest_point` on the last segment (the conventional receiver's
    /// decision).
    #[test]
    fn standard_trait_matches_nearest_point_bit_for_bit(seed in any::<u64>()) {
        let params = OfdmParams::ieee80211ag();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut scratch = DecoderScratch::new();
        for modulation in ALL_MODULATIONS {
            let decoder = StandardNearestDecoder::new(modulation);
            for p in 1..=params.cp_len + 1 {
                let obs = random_observations(&mut rng, modulation, p);
                let decided = decoder.decide(0, &obs, &mut scratch);
                let (ref_point, ref_bits) = modulation.nearest_point(*obs.last().unwrap());
                prop_assert_eq!(decided.value, ref_point, "{:?} P {}", modulation, p);
                prop_assert_eq!(decided.bits(modulation), &ref_bits[..]);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Branch-and-bound decisions are bit-for-bit the exhaustive scan's for every
    /// backend, every modulation and every `P ∈ 1..=17`, on a trained bin and on an
    /// unfitted (fallback) bin.
    #[test]
    fn pruned_sphere_matches_exhaustive_bit_for_bit(seed in any::<u64>(), radius in 0.0f64..4.0) {
        let engine = OfdmEngine::new(OfdmParams::ieee80211ag());
        let trained_bin = engine.params().data_bins()[10];
        // DC carries nothing in the preamble, so it has no fitted density.
        let unfitted_bin = 0;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xB0B);
        let mut scratch = DecoderScratch::new();
        for config in every_backend() {
            let model = trained_model_with(&engine, seed, config);
            prop_assert!(!model.has_model(unfitted_bin));
            for modulation in ALL_MODULATIONS {
                let decoder = FixedSphereMlDecoder::new(&model, modulation, radius);
                for p in 1..=17 {
                    for bin in [trained_bin, unfitted_bin] {
                        let obs = random_observations(&mut rng, modulation, p);
                        let context = format!("{config:?} {modulation:?} P {p} bin {bin}");
                        assert_matches_exhaustive(&decoder, &model, bin, &obs, &mut scratch, &context);
                    }
                }
            }
        }
    }

    /// Observations on (or a rounding error off) the midpoint between two lattice
    /// points make candidates tie or nearly tie; the lowest index must still win
    /// exactly as in the exhaustive scan.
    #[test]
    fn near_ties_resolve_like_the_exhaustive_scan(seed in any::<u64>(), jitter in 0u32..3) {
        let engine = OfdmEngine::new(OfdmParams::ieee80211ag());
        let bins = [engine.params().data_bins()[3], 0];
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut scratch = DecoderScratch::new();
        for config in every_backend() {
            let model = trained_model_with(&engine, seed, config);
            for modulation in ALL_MODULATIONS {
                let points = modulation.points();
                let decoder = FixedSphereMlDecoder::new(&model, modulation, 2.0);
                for p in [1usize, 2, 5, 16] {
                    let a = points[rng.gen_range(0..points.len())];
                    let b = points[rng.gen_range(0..points.len())];
                    let mid = (a + b) * 0.5;
                    // Nudge by a few ulps so ties sit on either side of exact.
                    let nudge = f64::EPSILON * jitter as f64;
                    let obs: Vec<Complex> = (0..p)
                        .map(|j| mid + Complex::new(nudge * (j % 2) as f64, -nudge))
                        .collect();
                    for bin in bins {
                        let context = format!("{config:?} {modulation:?} P {p} bin {bin}");
                        assert_matches_exhaustive(&decoder, &model, bin, &obs, &mut scratch, &context);
                    }
                }
            }
        }
    }
}

/// On an unfitted bin the score is the symmetric distance penalty, so an
/// observation exactly midway between the two BPSK points is an exact tie and the
/// lower lattice index must win.
#[test]
fn exact_tie_goes_to_the_lowest_lattice_index() {
    let model = InterferenceModel::new(64, CpRecycleConfig::default());
    let decoder = FixedSphereMlDecoder::new(&model, Modulation::Bpsk, 4.0);
    let mut scratch = DecoderScratch::new();
    for p in 1..=17 {
        let obs = vec![Complex::zero(); p];
        assert_eq!(decoder.candidates(&obs, &mut scratch).len(), 2);
        let decided = decoder.decide(5, &obs, &mut scratch);
        assert_eq!(decided.index, 0, "P {p}");
        assert_eq!(exhaustive_sphere_decode(&decoder, &model, 5, &obs), 0);
    }
}

/// NaN, ±Inf and finite-but-overflowing observations: the pruned decoder must agree
/// with the exhaustive scan, which falls back to the first candidate when no score
/// beats −∞.
#[test]
fn non_finite_observations_decide_like_the_exhaustive_scan() {
    let engine = OfdmEngine::new(OfdmParams::ieee80211ag());
    let bins = [engine.params().data_bins()[7], 0];
    let one = Complex::new(0.7, -0.3);
    let huge = 1e300;
    let cases: Vec<Vec<Complex>> = vec![
        vec![Complex::new(f64::NAN, 0.0), one, one],
        vec![one, Complex::new(0.0, f64::NAN), one, one, one],
        vec![Complex::new(f64::INFINITY, 0.0), one],
        vec![
            Complex::new(f64::NEG_INFINITY, 1.0),
            one,
            one,
            one,
            one,
            one,
        ],
        vec![
            Complex::new(0.2, f64::INFINITY),
            Complex::new(0.2, f64::NEG_INFINITY),
        ],
        // Cancelling huge values: a finite centroid (so the sphere is populated)
        // but deviations whose scores overflow to −∞ or NaN for every candidate.
        vec![Complex::new(huge, 0.0), Complex::new(-huge, 0.0)],
        vec![
            one,
            Complex::new(huge, huge),
            Complex::new(-huge, -huge),
            one,
            one,
            one,
            one,
        ],
    ];
    let mut scratch = DecoderScratch::new();
    for config in every_backend() {
        let model = trained_model_with(&engine, 0xABC, config);
        for modulation in ALL_MODULATIONS {
            let decoder = FixedSphereMlDecoder::new(&model, modulation, 3.0);
            for (case, obs) in cases.iter().enumerate() {
                for bin in bins {
                    let context = format!("{config:?} {modulation:?} case {case} bin {bin}");
                    assert_matches_exhaustive(&decoder, &model, bin, obs, &mut scratch, &context);
                }
            }
        }
    }
}

/// Regression for the old per-candidate allocation bug: across a 1000-symbol sphere
/// decode (including empty-sphere fallbacks), the candidate buffer must warm up once
/// and never reallocate again.
#[test]
fn sphere_candidate_buffer_never_reallocates_across_1000_symbols() {
    let engine = OfdmEngine::new(OfdmParams::ieee80211ag());
    let model = InterferenceModel::new(64, CpRecycleConfig::default());
    let modulation = Modulation::Qam16;
    let decoder = FixedSphereMlDecoder::new(&model, modulation, 1.0);
    let data_bins = engine.params().data_bins();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED);
    let mut scratch = DecoderScratch::new();

    // Warm-up symbol: sizes the buffers to the full lattice.
    let warmup = symbol_for(&mut rng, modulation, 4);
    decoder.decide_symbol(&warmup, &data_bins, &mut scratch);
    let capacity = scratch.candidate_capacity();
    assert!(
        capacity >= modulation.num_points(),
        "warm-up must reserve the full lattice, got {capacity}"
    );

    for _ in 0..999 {
        let segments = symbol_for(&mut rng, modulation, 4);
        let decided = decoder.decide_symbol(&segments, &data_bins, &mut scratch);
        assert_eq!(decided.len(), data_bins.len());
        assert_eq!(
            scratch.candidate_capacity(),
            capacity,
            "candidate buffer reallocated mid-campaign"
        );
    }
}

fn symbol_for(rng: &mut rand::rngs::StdRng, modulation: Modulation, p: usize) -> SymbolSegments {
    let rows: Vec<Vec<Complex>> = (0..p)
        .map(|_| {
            (0..64)
                .map(|_| {
                    // A mix of tight clusters and far-out observations so both the
                    // populated-sphere and the nearest-point fallback paths run.
                    let points = modulation.points();
                    let tx = points[rng.gen_range(0..points.len())];
                    let offset = if rng.gen_range(0..8) == 0 {
                        Complex::new(10.0, 10.0)
                    } else {
                        Complex::new(rng.gen_range(-0.2..0.2), rng.gen_range(-0.2..0.2))
                    };
                    tx + offset
                })
                .collect()
        })
        .collect();
    SymbolSegments::from_rows(rows)
}

/// `DecisionStage::Standard` is the conventional decision; with one segment the sphere
/// stage sees a single observation whose centroid is the observation itself, so the
/// two receivers must decode identical frames (same PSDU, same FCS verdict) across
/// noisy captures — the decision-stage counterpart of the `P = 1` ≡ standard-receiver
/// regression in `segment_equivalence.rs`.
#[test]
fn standard_stage_matches_single_segment_sphere_decode() {
    let params = OfdmParams::ieee80211ag();
    let tx = Transmitter::new(params.clone());
    let standard_rx = CpRecycleReceiver::new(
        params.clone(),
        CpRecycleConfig::with_decision(DecisionStage::Standard),
    );
    let sphere_p1_rx =
        CpRecycleReceiver::new(params, CpRecycleConfig::builder().num_segments(1).build());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xFACE);
    let mut awgn = AwgnChannel::new();
    let mut stream = RxStream::new(ModelPersistence::PerFrame);
    for (trial, mcs) in Mcs::paper_set().iter().take(3).enumerate() {
        let payload: Vec<u8> = (0..100).map(|_| rng.gen()).collect();
        let frame = tx.build_frame(&payload, *mcs, 0x5D).unwrap();
        let mut noisy = frame.samples.clone();
        awgn.add_noise_snr(&mut rng, &mut noisy, 22.0).unwrap();
        let a = standard_rx
            .decode_frame_session(&noisy, 0, None, None, &mut stream)
            .unwrap();
        let b = sphere_p1_rx
            .decode_frame_session(&noisy, 0, None, None, &mut stream)
            .unwrap();
        assert_eq!(a.psdu, b.psdu, "trial {trial}: PSDU diverged");
        assert_eq!(a.crc_ok, b.crc_ok, "trial {trial}");
        assert_eq!(a.payload, b.payload, "trial {trial}");
    }
}
