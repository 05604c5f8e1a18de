//! Decision-stage cost: every `DecisionStage` rule (sphere ML, naive, Oracle,
//! standard-window) run by `decision::decide_symbol` on one full symbol (48 data subcarriers) across
//! Modulation × `P` — the scaling the paper's §6 discusses and the justification for
//! the fixed sphere.
//!
//! `sphere_exhaustive` scores every sphere candidate against every observation in
//! one batch — the sphere decoder before branch-and-bound pruning — on the same
//! inputs as `sphere`, so the pair reports what pruning saves. `sphere_clustered`
//! and `sphere_clustered_exhaustive` are the same pair on a model whose
//! deviations sit in one tight cluster, where the nearest candidate is mostly
//! certified without scoring a query. The measured figures are recorded in the
//! README "decision stage" table.

use cprecycle::decision::{decide_symbol, DecoderScratch};
use cprecycle::interference_model::{deviation_amplitude, deviation_phases, InterferenceModel};
use cprecycle::segments::{SegmentPowers, SymbolSegments};
use cprecycle::{CpRecycleConfig, DecisionStage, FixedSphereMlDecoder};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ofdmphy::modulation::Modulation;
use ofdmphy::ofdm::OfdmEngine;
use ofdmphy::params::OfdmParams;
use rand::{Rng, SeedableRng};
use rfdsp::Complex;

const RADIUS: f64 = 2.0;

const SPHERE: DecisionStage = DecisionStage::Sphere {
    radius_min_distances: RADIUS,
};

/// Trains an interference model on synthetic preamble segments covering every
/// occupied bin (moderate per-segment interference, like a busy ACI capture).
fn trained_model(engine: &OfdmEngine, num_segments: usize) -> InterferenceModel {
    model_with_deviations(engine, num_segments, 0.5)
}

/// Trains an interference model whose per-segment deviations have random phases
/// and amplitudes below `spread`.
fn model_with_deviations(
    engine: &OfdmEngine,
    num_segments: usize,
    spread: f64,
) -> InterferenceModel {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let reference: Vec<Complex> = (0..64)
        .map(|bin| {
            if engine.params().occupied_bins().contains(&bin) {
                Complex::new(1.0, 0.0)
            } else {
                Complex::zero()
            }
        })
        .collect();
    let rows: Vec<Vec<Complex>> = (0..num_segments)
        .map(|_| {
            reference
                .iter()
                .map(|r| {
                    if r.norm_sqr() == 0.0 {
                        Complex::zero()
                    } else {
                        *r + Complex::from_polar(
                            rng.gen_range(0.0..spread),
                            rng.gen_range(-3.1..3.1),
                        )
                    }
                })
                .collect()
        })
        .collect();
    InterferenceModel::train(
        engine,
        &[SymbolSegments::from_rows(rows)],
        &[reference],
        CpRecycleConfig::default(),
    )
    .expect("training on synthetic preamble succeeds")
}

/// The deviation spread of the clustered model: a bin whose preamble saw little
/// interference, as most bins of the interfered benchmark link are.
const CLUSTER_SPREAD: f64 = 0.05;

/// One symbol's observations: per bin, a random lattice point plus per-segment noise.
fn symbol_segments(modulation: Modulation, p: usize, seed: u64) -> SymbolSegments {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let points = modulation.points();
    let tx: Vec<Complex> = (0..64)
        .map(|_| points[rng.gen_range(0..points.len())])
        .collect();
    let rows: Vec<Vec<Complex>> = (0..p)
        .map(|j| {
            tx.iter()
                .map(|t| *t + Complex::from_polar(0.1, j as f64 * 0.7 + rng.gen_range(0.0..0.3)))
                .collect()
        })
        .collect();
    SymbolSegments::from_rows(rows)
}

/// One symbol's observations from the clustered model: per bin, a random lattice
/// point plus a deviation drawn like the model's samples.
fn clustered_segments(modulation: Modulation, p: usize, seed: u64) -> SymbolSegments {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let points = modulation.points();
    let tx: Vec<Complex> = (0..64)
        .map(|_| points[rng.gen_range(0..points.len())])
        .collect();
    let rows: Vec<Vec<Complex>> = (0..p)
        .map(|_| {
            tx.iter()
                .map(|t| {
                    *t + Complex::from_polar(
                        rng.gen_range(0.0..CLUSTER_SPREAD),
                        rng.gen_range(-3.1..3.1),
                    )
                })
                .collect()
        })
        .collect();
    SymbolSegments::from_rows(rows)
}

/// Reusable buffers for [`exhaustive_decode_symbol`], so the baseline allocates no
/// more per symbol than the pruned decoder it is compared against.
#[derive(Default)]
struct ExhaustivePlanes {
    scratch: DecoderScratch,
    re: Vec<f64>,
    amp: Vec<f64>,
    phase: Vec<f64>,
    log_likes: Vec<f64>,
}

/// The sphere decoder without pruning: every candidate × observation deviation in
/// one candidate-major plane, one batched model query, an in-order sum per
/// candidate and the first strict maximum.
fn exhaustive_decode_symbol(
    decoder: &FixedSphereMlDecoder<'_>,
    model: &InterferenceModel,
    segments: &SymbolSegments,
    bins: &[usize],
    planes: &mut ExhaustivePlanes,
) -> Vec<Complex> {
    let lattice = decoder.modulation().lattice();
    bins.iter()
        .map(|&bin| {
            let observations = segments.bin_observations(bin);
            let p = observations.len();
            let candidates = decoder.candidates(observations, &mut planes.scratch);
            planes.re.clear();
            planes.amp.clear();
            planes.phase.clear();
            for &index in candidates {
                let point = lattice.point(index);
                for obs in observations {
                    let err = *obs - point;
                    planes.re.push(err.re);
                    planes.amp.push(deviation_amplitude(err.re, err.im));
                    planes.phase.push(err.im);
                }
            }
            deviation_phases(&planes.re, &planes.amp, &mut planes.phase);
            planes.log_likes.clear();
            planes.log_likes.resize(planes.amp.len(), 0.0);
            model.log_likelihood_batch(bin, &planes.amp, &planes.phase, &mut planes.log_likes);
            let mut best = 0usize;
            let mut best_score = f64::NEG_INFINITY;
            for (k, chunk) in planes.log_likes.chunks_exact(p).enumerate() {
                let score: f64 = chunk.iter().sum();
                if score > best_score {
                    best_score = score;
                    best = k;
                }
            }
            lattice.point(candidates[best])
        })
        .collect()
}

fn bench_decision(c: &mut Criterion) {
    let engine = OfdmEngine::new(OfdmParams::ieee80211ag());
    let data_bins = engine.params().data_bins();
    let mut group = c.benchmark_group("decision_stage");
    group.sample_size(30);
    for modulation in [Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64] {
        for p in [4usize, 16] {
            let model = trained_model(&engine, p);
            let segments = symbol_segments(modulation, p, 5 + p as u64);
            // Genie powers for the Oracle arm: random per-(segment, bin) interference.
            let mut rng = rand::rngs::StdRng::seed_from_u64(31);
            let powers = SegmentPowers::from_rows(
                (0..p)
                    .map(|_| (0..64).map(|_| rng.gen_range(0.0..2.0)).collect())
                    .collect(),
            );
            let mut scratch = DecoderScratch::new();
            // Every arm runs through the receiver's dispatch; each rule reads only
            // its own input (the model or the genie powers).
            let decide = |stage: DecisionStage,
                          model: &InterferenceModel,
                          segs: &SymbolSegments,
                          scratch: &mut DecoderScratch| {
                decide_symbol(
                    stage,
                    modulation,
                    Some(model),
                    Some(&powers),
                    segs,
                    &data_bins,
                    scratch,
                )
            };

            let sphere = FixedSphereMlDecoder::new(&model, modulation, RADIUS);
            group.bench_with_input(
                BenchmarkId::new(format!("sphere_{}", modulation.name()), p),
                &segments,
                |b, segs| {
                    b.iter(|| decide(SPHERE, &model, segs, &mut scratch));
                },
            );

            let mut planes = ExhaustivePlanes::default();
            // Same inputs, same decisions: the pair differs only in work done.
            assert_eq!(
                decide(SPHERE, &model, &segments, &mut scratch),
                exhaustive_decode_symbol(&sphere, &model, &segments, &data_bins, &mut planes),
                "pruned and exhaustive sphere decisions diverged"
            );
            group.bench_with_input(
                BenchmarkId::new(format!("sphere_exhaustive_{}", modulation.name()), p),
                &segments,
                |b, segs| {
                    b.iter(|| {
                        exhaustive_decode_symbol(&sphere, &model, segs, &data_bins, &mut planes)
                    });
                },
            );

            let clustered_model = model_with_deviations(&engine, p, CLUSTER_SPREAD);
            let clustered = FixedSphereMlDecoder::new(&clustered_model, modulation, RADIUS);
            let clustered_segs = clustered_segments(modulation, p, 7 + p as u64);
            scratch.take_search_counts();
            assert_eq!(
                decide(SPHERE, &clustered_model, &clustered_segs, &mut scratch),
                exhaustive_decode_symbol(
                    &clustered,
                    &clustered_model,
                    &clustered_segs,
                    &data_bins,
                    &mut planes
                ),
                "certified and exhaustive sphere decisions diverged"
            );
            assert!(
                scratch.take_search_counts().certified > 0,
                "the clustered arm never took the certified path"
            );
            group.bench_with_input(
                BenchmarkId::new(format!("sphere_clustered_{}", modulation.name()), p),
                &clustered_segs,
                |b, segs| {
                    b.iter(|| decide(SPHERE, &clustered_model, segs, &mut scratch));
                },
            );
            group.bench_with_input(
                BenchmarkId::new(
                    format!("sphere_clustered_exhaustive_{}", modulation.name()),
                    p,
                ),
                &clustered_segs,
                |b, segs| {
                    b.iter(|| {
                        exhaustive_decode_symbol(
                            &clustered,
                            &clustered_model,
                            segs,
                            &data_bins,
                            &mut planes,
                        )
                    });
                },
            );

            for (name, stage) in [
                ("naive", DecisionStage::Naive),
                ("oracle", DecisionStage::Oracle),
                ("standard", DecisionStage::Standard),
            ] {
                group.bench_with_input(
                    BenchmarkId::new(format!("{name}_{}", modulation.name()), p),
                    &segments,
                    |b, segs| {
                        b.iter(|| decide(stage, &model, segs, &mut scratch));
                    },
                );
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_decision);
criterion_main!(benches);
