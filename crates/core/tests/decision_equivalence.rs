//! Property tests for the decision stage: across random observation sets, every
//! modulation and every valid segment count `P ∈ {1..C+1}`, the `DecisionStage`
//! rules that `decision::decide_symbol` runs must agree **bit-for-bit** with the
//! original per-rule implementations (reproduced here verbatim as reference code),
//! the sphere path must never reallocate its candidate buffers after warm-up, and a
//! `DecisionStage::Standard` receiver must match a `P = 1` sphere receiver
//! frame-for-frame.
//!
//! The sphere decoder's branch-and-bound search is pinned separately against
//! [`exhaustive_sphere_decode`], the batch scorer that scores every candidate in
//! full: same decisions for every backend, on near-ties and on non-finite input,
//! and on a clustered model where the certificate (the nearest candidate returned
//! unscored) actually fires. Its work is pinned against [`todays_sphere_decode`],
//! the one-stage decoder the two-stage certificate replaced: same decisions and
//! the same candidates, queries scored and certified bins, bin for bin.

use cprecycle::decision::{decide_symbol, DecoderScratch, SearchCounts};
use cprecycle::interference_model::deviation;
use cprecycle::segments::{SegmentPowers, SymbolSegments};
use cprecycle::{
    CpRecycleConfig, CpRecycleReceiver, DecisionStage, FixedSphereMlDecoder, InterferenceModel,
    ModelBackend, RxStream,
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

/// The original sphere decoder (`FixedSphereMlDecoder::decode_subcarrier` before
/// lattice indices), reproduced verbatim: per-call candidate `Vec` with cloned
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
/// candidate × observation deviation in one candidate-major plane (converted per
/// element by `deviation`, bit-identical to the lane-parallel planes it used), one
/// `log_likelihood_batch` call, an in-order sum per candidate and the
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
            let (a, ph) = deviation(*obs, point);
            amp.push(a);
            phase.push(ph);
        }
    }
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

/// The sphere decoder before its two-stage certificate, reproduced verbatim as
/// the oracle for decisions *and* work counters: `hypot` candidate enumeration,
/// every deviation converted up front, tight per-query bounds and their suffix
/// sums, the certificate from the full kernel floor, then the branch-and-bound
/// search. `radius` is absolute ([`FixedSphereMlDecoder::radius`]). Returns the
/// decided lattice index and the counts the decoder adds to its scratch.
fn todays_sphere_decode(
    model: &InterferenceModel,
    modulation: Modulation,
    radius: f64,
    bin: usize,
    observations: &[Complex],
) -> (u16, SearchCounts) {
    const PRUNE_BLOCK: usize = 2;
    const PRUNE_SLACK: f64 = 1e-9;
    let lattice = modulation.lattice();
    let mut counts = SearchCounts::default();
    let center = centroid(observations).unwrap_or(Complex::zero());
    let mut candidates: Vec<u16> = Vec::new();
    let mut nearest = 0;
    let mut nearest_distance = f64::INFINITY;
    for (i, point) in lattice.points().iter().enumerate() {
        let distance = (*point - center).norm();
        if distance <= radius {
            if distance < nearest_distance {
                nearest_distance = distance;
                nearest = candidates.len();
            }
            candidates.push(i as u16);
        }
    }
    if candidates.is_empty() {
        candidates.push(lattice.nearest_index(center));
    }
    let n = candidates.len();
    counts.candidates += n as u64;
    if n == 1 {
        return (candidates[0], counts);
    }
    let p = observations.len();
    let mut dev_amp = Vec::new();
    let mut dev_phase = Vec::new();
    for &index in &candidates {
        let point = lattice.point(index);
        for obs in observations {
            let (a, ph) = deviation(*obs, point);
            dev_amp.push(a);
            dev_phase.push(ph);
        }
    }
    let len = n * p;
    let mut bound_sums = vec![0.0; len];
    let mut bound_mags = vec![0.0; len];
    model.log_likelihood_upper_bounds(bin, &dev_amp, &dev_phase, &mut bound_sums);
    for k in 0..n {
        let (mut sum, mut magnitude) = (0.0, 0.0);
        let range = k * p..(k + 1) * p;
        for (b, m) in bound_sums[range.clone()]
            .iter_mut()
            .zip(&mut bound_mags[range])
            .rev()
        {
            magnitude += b.abs();
            sum += *b;
            (*b, *m) = (sum, magnitude);
        }
    }
    let bound = |k: usize, done: usize, partial: f64, magnitude: f64| {
        partial + bound_sums[k * p + done] + PRUNE_SLACK * (magnitude + bound_mags[k * p + done])
    };
    let beats_challengers = |score: f64| {
        (0..n)
            .filter(|&k| k != nearest)
            .all(|k| score > bound(k, 0, 0.0, 0.0))
    };
    if p > 0 && beats_challengers(bound_sums[nearest * p]) {
        let queries = nearest * p..(nearest + 1) * p;
        let floor = model.log_likelihood_sum_lower_bound(
            bin,
            &dev_amp[queries.clone()],
            &dev_phase[queries],
        );
        if floor > f64::NEG_INFINITY && beats_challengers(floor) {
            counts.certified += 1;
            return (candidates[nearest], counts);
        }
    }
    let mut log_likes = vec![0.0; p];
    let mut best = 0usize;
    let mut best_score = f64::NEG_INFINITY;
    let order = std::iter::once(nearest).chain((0..n).filter(|&k| k != nearest));
    for (rank, k) in order.enumerate() {
        let amp = &dev_amp[k * p..(k + 1) * p];
        let phase = &dev_phase[k * p..(k + 1) * p];
        let block = if rank == 0 { p } else { PRUNE_BLOCK };
        let mut partial = 0.0;
        let mut magnitude = 0.0;
        let mut done = 0;
        while done < p {
            if bound(k, done, partial, magnitude) < best_score {
                break;
            }
            let end = (done + block).min(p);
            model.log_likelihood_batch(
                bin,
                &amp[done..end],
                &phase[done..end],
                &mut log_likes[done..end],
            );
            counts.queries_scored += (end - done) as u64;
            for v in &log_likes[done..end] {
                partial += v;
                magnitude += v.abs();
            }
            done = end;
        }
        if done < p {
            continue;
        }
        let score: f64 = log_likes.iter().sum();
        if score > best_score || (score == best_score && k < best) {
            best_score = score;
            best = k;
        }
    }
    (candidates[best], counts)
}

/// Asserts the decoder decides `observations` as [`todays_sphere_decode`] does and
/// adds exactly its counts to `scratch`; returns those counts.
fn assert_matches_todays_decoder(
    decoder: &FixedSphereMlDecoder<'_>,
    model: &InterferenceModel,
    bin: usize,
    observations: &[Complex],
    scratch: &mut DecoderScratch,
    context: &str,
) -> SearchCounts {
    scratch.take_search_counts();
    let decided = decoder.decide(bin, observations, scratch);
    let counts = scratch.take_search_counts();
    let want = todays_sphere_decode(
        model,
        decoder.modulation(),
        decoder.radius(),
        bin,
        observations,
    );
    assert_eq!(
        (decided, counts),
        want,
        "{context}: observations {observations:?}"
    );
    counts
}

/// The original naive decoder (`naive::decode_subcarrier`), reproduced verbatim.
/// When no metric beats `+∞` (non-finite observations) it answers its zero
/// initialiser with no bits, not a lattice point.
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

/// The Oracle rule as the original per-symbol Oracle decoder computed it,
/// reproduced verbatim: the first minimum of the bin's genie `powers`, clamped to
/// the observation count, mapped to the nearest lattice point.
fn reference_oracle_decode(
    observations: &[Complex],
    powers: &[f64],
    modulation: Modulation,
) -> (Complex, Vec<u8>) {
    let mut best = 0usize;
    let mut min_power = f64::INFINITY;
    for (j, &p) in powers.iter().enumerate() {
        if p < min_power {
            min_power = p;
            best = j;
        }
    }
    modulation.nearest_point(observations[best.min(observations.len() - 1)])
}

/// Decides one bin whose segment observations are `observations` under a
/// model-free `stage` (the Oracle reads `powers`, one per segment), through the
/// receiver's `decide_symbol` dispatch; returns the decided point and its bits.
fn decide_bin(
    stage: DecisionStage,
    modulation: Modulation,
    powers: Option<&[f64]>,
    observations: &[Complex],
    scratch: &mut DecoderScratch,
) -> (Complex, Vec<u8>) {
    let segments = SymbolSegments::from_rows(observations.iter().map(|o| vec![*o]).collect());
    let powers = powers.map(|p| SegmentPowers::from_rows(p.iter().map(|p| vec![*p]).collect()));
    let decided = decide_symbol(
        stage,
        modulation,
        None,
        powers.as_ref(),
        &segments,
        &[0],
        scratch,
    );
    (decided[0], modulation.demap_hard_all(&decided))
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

/// [`trained_model`] under an explicit configuration.
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

/// A model with the two clusters of the paper's §3.3 example on every occupied
/// bin: three clean segments (noise below 0.02, both components positive) and
/// three hit by an amplitude-≈3 interference vector at phase ≈ π/2. The samples'
/// bounding box spans phases 0..≈1.7 only, so a challenger whose clean
/// deviations point elsewhere (one to the right of or above the transmitted
/// point) is bounded far below the nearest candidate, and when every challenger
/// is, the certificate fires.
fn clustered_model_with(
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
        .map(|row| {
            reference
                .iter()
                .map(|r| {
                    if r.norm_sqr() == 0.0 {
                        Complex::zero()
                    } else {
                        *r + clustered_error(&mut rng, row >= 3)
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

/// One error vector of [`clustered_model_with`]'s two clusters: small positive
/// noise, plus the amplitude-≈3 interference vector when `interfered`.
fn clustered_error<R: Rng>(rng: &mut R, interfered: bool) -> Complex {
    let noise = Complex::new(rng.gen_range(0.0..0.02), rng.gen_range(0.0..0.02));
    if interfered {
        noise + Complex::from_polar(rng.gen_range(2.9..3.1), rng.gen_range(1.5..1.7))
    } else {
        noise
    }
}

/// Observations drawn from [`clustered_model_with`]'s clusters around a random
/// lattice point: a third of the segments interfered.
fn clustered_observations<R: Rng>(rng: &mut R, modulation: Modulation, p: usize) -> Vec<Complex> {
    let points = modulation.points();
    let tx = points[rng.gen_range(0..points.len())];
    (0..p)
        .map(|_| {
            let interfered = rng.gen_range(0..3) == 0;
            tx + clustered_error(rng, interfered)
        })
        .collect()
}

/// Every scoring backend the sphere decoder can run against.
fn every_backend() -> [CpRecycleConfig; 2] {
    [
        CpRecycleConfig::with_model(ModelBackend::ExactKde),
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
        pruned, exhaustive,
        "{context}: observations {observations:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Sphere decisions are bit-for-bit the original decisions for
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
                    modulation.lattice().point(decided), ref_point,
                    "{:?} P {} radius {}", modulation, p, radius
                );
                prop_assert_eq!(modulation.lattice().bits_of(decided), &ref_bits[..]);
            }
        }
    }

    /// Naive-rule decisions are bit-for-bit the original
    /// `naive::decode_subcarrier` decisions.
    #[test]
    fn naive_trait_matches_reference_bit_for_bit(seed in any::<u64>()) {
        let params = OfdmParams::ieee80211ag();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut scratch = DecoderScratch::new();
        for modulation in ALL_MODULATIONS {
            for p in 1..=params.cp_len + 1 {
                let obs = random_observations(&mut rng, modulation, p);
                let (point, bits) =
                    decide_bin(DecisionStage::Naive, modulation, None, &obs, &mut scratch);
                let (ref_point, ref_bits) = reference_naive_decode(&obs, modulation);
                prop_assert_eq!(point, ref_point, "{:?} P {}", modulation, p);
                prop_assert_eq!(bits, ref_bits);
            }
        }
    }

    /// Standard-window decisions are bit-for-bit
    /// `Modulation::nearest_point` on the last segment (the conventional receiver's
    /// decision).
    #[test]
    fn standard_trait_matches_nearest_point_bit_for_bit(seed in any::<u64>()) {
        let params = OfdmParams::ieee80211ag();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut scratch = DecoderScratch::new();
        for modulation in ALL_MODULATIONS {
            for p in 1..=params.cp_len + 1 {
                let obs = random_observations(&mut rng, modulation, p);
                let (point, bits) =
                    decide_bin(DecisionStage::Standard, modulation, None, &obs, &mut scratch);
                let (ref_point, ref_bits) = modulation.nearest_point(*obs.last().unwrap());
                prop_assert_eq!(point, ref_point, "{:?} P {}", modulation, p);
                prop_assert_eq!(bits, ref_bits);
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

    /// The certificate's decisions are the exhaustive scan's: on a clustered model
    /// with observations from its clusters, for every backend, modulation and
    /// `P ∈ 1..=17`, and the certificate fires on some of those bins.
    #[test]
    fn certified_sphere_matches_exhaustive_bit_for_bit(seed in any::<u64>(), radius in 0.5f64..4.0) {
        let engine = OfdmEngine::new(OfdmParams::ieee80211ag());
        let bin = engine.params().data_bins()[10];
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xC1A5);
        let mut scratch = DecoderScratch::new();
        let mut certified = 0;
        for config in every_backend() {
            let model = clustered_model_with(&engine, seed, config);
            for modulation in ALL_MODULATIONS {
                let decoder = FixedSphereMlDecoder::new(&model, modulation, radius);
                for p in 1..=17 {
                    let obs = clustered_observations(&mut rng, modulation, p);
                    let context = format!("{config:?} {modulation:?} P {p} radius {radius}");
                    assert_matches_exhaustive(&decoder, &model, bin, &obs, &mut scratch, &context);
                    certified += scratch.take_search_counts().certified;
                }
            }
        }
        prop_assert!(certified > 0, "no bin certified");
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Decisions and all three search counters are the pre-two-stage decoder's,
    /// for every backend, modulation and `P ∈ 1..=17`, on trained and unfitted
    /// bins of a trained model (random observations) and of a clustered model
    /// (observations from its clusters, where the certificate fires).
    #[test]
    fn sphere_decisions_and_counts_match_todays_decoder(seed in any::<u64>(), radius in 1.0f64..4.0) {
        let engine = OfdmEngine::new(OfdmParams::ieee80211ag());
        let bins = [engine.params().data_bins()[10], 0];
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5EA);
        let mut scratch = DecoderScratch::new();
        let mut totals = SearchCounts::default();
        for config in every_backend() {
            for clustered in [false, true] {
                let model = if clustered {
                    clustered_model_with(&engine, seed, config)
                } else {
                    trained_model_with(&engine, seed, config)
                };
                for modulation in ALL_MODULATIONS {
                    let decoder = FixedSphereMlDecoder::new(&model, modulation, radius);
                    for p in 1..=17 {
                        for bin in bins {
                            let obs = if clustered {
                                clustered_observations(&mut rng, modulation, p)
                            } else {
                                random_observations(&mut rng, modulation, p)
                            };
                            let context = format!(
                                "{config:?} clustered {clustered} {modulation:?} P {p} bin {bin} radius {radius}"
                            );
                            let counts = assert_matches_todays_decoder(
                                &decoder, &model, bin, &obs, &mut scratch, &context,
                            );
                            totals.candidates += counts.candidates;
                            totals.queries_scored += counts.queries_scored;
                            totals.certified += counts.certified;
                        }
                    }
                }
            }
        }
        prop_assert!(totals.queries_scored > 0, "no bin searched: {:?}", totals);
        prop_assert!(totals.certified > 0, "no bin certified: {:?}", totals);
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
        assert_eq!(decided, 0, "P {p}");
        assert_eq!(exhaustive_sphere_decode(&decoder, &model, 5, &obs), 0);
    }
}

/// NaN, ±Inf and finite-but-overflowing observations: the pruned decoder must agree
/// with the exhaustive scan, which falls back to the first candidate when no score
/// beats −∞, and never certifies a bin. The model-free rules must decide the same
/// sets without panicking, as their verbatim references do.
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
    for modulation in ALL_MODULATIONS {
        let lattice = modulation.lattice();
        for (case, obs) in cases.iter().enumerate() {
            let context = format!("{modulation:?} case {case}");
            let naive = decide_bin(DecisionStage::Naive, modulation, None, obs, &mut scratch);
            let (ref_point, ref_bits) = reference_naive_decode(obs, modulation);
            if ref_bits.is_empty() {
                // Every metric is NaN or +∞: the reference keeps its non-lattice
                // zero initialiser, the rule its first lattice point.
                assert_eq!(naive.0, lattice.point(0), "{context}: naive");
            } else {
                assert_eq!(naive, (ref_point, ref_bits), "{context}: naive");
            }
            let standard = decide_bin(DecisionStage::Standard, modulation, None, obs, &mut scratch);
            let reference = modulation.nearest_point(*obs.last().unwrap());
            assert_eq!(standard, reference, "{context}: standard");
            // The genie quietest on each segment in turn, then a NaN power table.
            let p = obs.len();
            let mut tables: Vec<Vec<f64>> = (0..p)
                .map(|j| (0..p).map(|k| if k == j { 0.1 } else { 1.0 }).collect())
                .collect();
            tables.push(vec![f64::NAN; p]);
            for powers in &tables {
                let oracle = decide_bin(
                    DecisionStage::Oracle,
                    modulation,
                    Some(powers.as_slice()),
                    obs,
                    &mut scratch,
                );
                let reference = reference_oracle_decode(obs, powers, modulation);
                assert_eq!(oracle, reference, "{context}: oracle, powers {powers:?}");
            }
        }
    }
    for (model_of, extra_cases) in [
        (trained_model_with as fn(_, _, _) -> _, vec![]),
        (clustered_model_with, nearest_only_non_finite_cases()),
    ] {
        for config in every_backend() {
            let model = model_of(&engine, 0xABC, config);
            for modulation in ALL_MODULATIONS {
                let decoder = FixedSphereMlDecoder::new(&model, modulation, 3.0);
                for (case, obs) in cases.iter().chain(&extra_cases).enumerate() {
                    for bin in bins {
                        let context = format!("{config:?} {modulation:?} case {case} bin {bin}");
                        assert_matches_exhaustive(
                            &decoder,
                            &model,
                            bin,
                            obs,
                            &mut scratch,
                            &context,
                        );
                        let counts = scratch.take_search_counts();
                        assert_eq!(counts.certified, 0, "{context}: certified");
                        assert_matches_todays_decoder(
                            &decoder,
                            &model,
                            bin,
                            obs,
                            &mut scratch,
                            &context,
                        );
                    }
                }
            }
        }
    }
}

/// Clean observations of the constellation's bottom-left corner plus one
/// cancelling pair of huge observations. Every challenger lies right of or above
/// the corner, outside [`clustered_model_with`]'s sample box, so the clean
/// queries alone would certify the nearest candidate; the pair's queries do not
/// score, so every score is NaN and the exhaustive scan answers the first
/// candidate. At `1e300` the pair's deviation amplitudes overflow to `+∞`; at
/// `1e154` they stay finite but their kernel exponents overflow to `−∞`. Only
/// the nearest candidate's lower bound (`−∞` either way) stands between the
/// certificate and a wrong answer: the challengers' overflowing queries fall
/// back to their finite ceilings.
fn nearest_only_non_finite_cases() -> Vec<Vec<Complex>> {
    let mut cases = Vec::new();
    for huge in [1e300, 1e154] {
        for m in ALL_MODULATIONS {
            let corner = m
                .points()
                .into_iter()
                .min_by(|a, b| (a.re + a.im).total_cmp(&(b.re + b.im)))
                .unwrap();
            let mut obs = vec![corner + Complex::new(0.01, 0.01); 14];
            obs.extend([Complex::new(huge, 0.0), Complex::new(-huge, 0.0)]);
            cases.push(obs);
        }
    }
    cases
}

/// Regression for the old per-candidate allocation bug: across a 1000-symbol sphere
/// decode (including empty-sphere fallbacks), the candidate buffer must warm up once
/// and never reallocate again.
#[test]
fn sphere_candidate_buffer_never_reallocates_across_1000_symbols() {
    let engine = OfdmEngine::new(OfdmParams::ieee80211ag());
    let model = InterferenceModel::new(64, CpRecycleConfig::default());
    let modulation = Modulation::Qam16;
    let stage = DecisionStage::Sphere {
        radius_min_distances: 1.0,
    };
    let data_bins = engine.params().data_bins();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED);
    let mut scratch = DecoderScratch::new();

    // Warm-up symbol: sizes the buffers to the full lattice.
    let warmup = symbol_for(&mut rng, modulation, 4);
    decide_symbol(
        stage,
        modulation,
        Some(&model),
        None,
        &warmup,
        &data_bins,
        &mut scratch,
    );
    let capacity = scratch.candidate_capacity();
    assert!(
        capacity >= modulation.num_points(),
        "warm-up must reserve the full lattice, got {capacity}"
    );

    for _ in 0..999 {
        let segments = symbol_for(&mut rng, modulation, 4);
        let decided = decide_symbol(
            stage,
            modulation,
            Some(&model),
            None,
            &segments,
            &data_bins,
            &mut scratch,
        );
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
