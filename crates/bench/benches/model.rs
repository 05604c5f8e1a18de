//! Interference-estimator cost: every [`ModelBackend`] — the exact Eq. 4 kernel sum
//! and the parametric Gaussian — across `P` (segments per preamble symbol) and
//! `N_p` (preamble symbols), for both halves of the estimator's life:
//!
//! * `query/…` — one `log_likelihood_batch` call over a bin's deviation plane of
//!   4 lattice candidates × `P` segment observations, the call the sphere decoder
//!   makes per bin (each exact query is an `O(P·N_p)` kernel sum);
//! * `train/…` — fitting the model from `N_p` synthetic preamble symbols;
//! * `update/…` — absorbing one further preamble with the incremental dirty-bin
//!   refit.
//!
//! The README "Performance" section records a run of this table.

use cprecycle::interference_model::deviation;
use cprecycle::segments::SymbolSegments;
use cprecycle::{CpRecycleConfig, InterferenceModel, ModelBackend};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ofdmphy::ofdm::OfdmEngine;
use ofdmphy::params::OfdmParams;
use ofdmphy::preamble;
use rand::{Rng, SeedableRng};
use rfdsp::Complex;

const BACKENDS: [ModelBackend; 2] = [ModelBackend::ExactKde, ModelBackend::Gaussian];

/// The deviation planes of one bin's sphere search: `P` observations around the
/// first QPSK point, each against all four QPSK candidates (about the mean sphere
/// size on an interfered link), candidate-major like the decoder's planes.
fn query_planes(p: usize) -> (Vec<f64>, Vec<f64>) {
    let s = std::f64::consts::FRAC_1_SQRT_2;
    let candidates = [(s, s), (-s, s), (-s, -s), (s, -s)].map(|(re, im)| Complex::new(re, im));
    let observations: Vec<Complex> = (0..p)
        .map(|j| candidates[0] + Complex::from_polar(0.1 + 0.05 * j as f64, 0.7 * j as f64))
        .collect();
    candidates
        .iter()
        .flat_map(|&cand| observations.iter().map(move |&obs| deviation(obs, cand)))
        .unzip()
}

/// Synthetic preamble symbols: per occupied bin, per segment, the reference value
/// plus a moderate random interference vector (a busy ACI capture).
fn preambles(engine: &OfdmEngine, p: usize, np: usize, seed: u64) -> Vec<SymbolSegments> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let reference = preamble::ltf_bins(engine.params());
    (0..np)
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
                                    rng.gen_range(0.0..0.8),
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

fn trained(engine: &OfdmEngine, backend: ModelBackend, p: usize, np: usize) -> InterferenceModel {
    let reference = preamble::ltf_bins(engine.params());
    InterferenceModel::train(
        engine,
        &preambles(engine, p, np, 11),
        &vec![reference; np],
        CpRecycleConfig::with_model(backend),
    )
    .expect("training on synthetic preambles succeeds")
}

fn bench_model(c: &mut Criterion) {
    let engine = OfdmEngine::new(OfdmParams::ieee80211ag());
    let reference = preamble::ltf_bins(engine.params());
    let bin = engine.params().data_bins()[10];

    let mut group = c.benchmark_group("model");
    group.sample_size(30);

    // Query cost: one batched call over a bin's candidates × P deviation plane.
    for (p, np) in [(4, 2), (16, 1), (16, 2), (16, 4)] {
        let (amps, phases) = query_planes(p);
        let mut out = vec![0.0; amps.len()];
        for backend in BACKENDS {
            let model = trained(&engine, backend, p, np);
            group.bench_with_input(
                BenchmarkId::new(format!("query/{}", backend.label()), format!("P{p}xNp{np}")),
                &model,
                |b, model| {
                    b.iter(|| {
                        model.log_likelihood_batch(black_box(bin), &amps, &phases, &mut out);
                        black_box(out[0])
                    })
                },
            );
        }
    }

    // Fit cost: batch training and the incremental dirty-bin update.
    let p = 16;
    let np = 2;
    let train_set = preambles(&engine, p, np, 11);
    let train_refs = vec![reference.clone(); np];
    let extra = preambles(&engine, p, 1, 13).remove(0);
    for backend in BACKENDS {
        let config = CpRecycleConfig::with_model(backend);
        group.bench_function(format!("train/{}/P{p}xNp{np}", backend.label()), |b| {
            b.iter(|| InterferenceModel::train(&engine, &train_set, &train_refs, config).unwrap())
        });
        let base = InterferenceModel::train(&engine, &train_set, &train_refs, config).unwrap();
        // Each iteration clones the base model (the compat harness has no
        // iter_batched), so compare `update` numbers across backends rather than
        // against `train`.
        group.bench_function(format!("update/{}/P{p}xNp{np}", backend.label()), |b| {
            b.iter(|| {
                let mut model = base.clone();
                model.update(&engine, &extra, &reference).unwrap();
                model
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_model);
criterion_main!(benches);
