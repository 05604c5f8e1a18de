//! Interference-estimator cost: every [`ModelBackend`] — the exact Eq. 4 kernel sum,
//! the precomputed log-likelihood grid, the parametric Gaussian — across `P`
//! (segments per preamble symbol) and `N_p` (preamble symbols), for both halves of
//! the estimator's life:
//!
//! * `query/…` — one `log_likelihood(bin, observed, candidate)` call, the operation
//!   the sphere decoder performs per candidate × per segment × per bin (the
//!   `O(P·N_p)` term the grid backend turns into an O(1) lookup);
//! * `train/…` — fitting the model from `N_p` synthetic preamble symbols (where the
//!   grid backend pays its precomputation);
//! * `update/…` — absorbing one further preamble with the incremental dirty-bin
//!   refit.
//!
//! The README "Performance" table records the measured exact-vs-grid query speedup.

use cprecycle::estimator::ModelBackend;
use cprecycle::segments::SymbolSegments;
use cprecycle::{CpRecycleConfig, InterferenceModel};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ofdmphy::ofdm::OfdmEngine;
use ofdmphy::params::OfdmParams;
use ofdmphy::preamble;
use rand::{Rng, SeedableRng};
use rfdsp::Complex;

const BACKENDS: [ModelBackend; 3] = [
    ModelBackend::ExactKde,
    ModelBackend::GridKde,
    ModelBackend::Gaussian,
];

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

    // Query cost: the acceptance target is GridKde ≥ 5× faster than ExactKde per
    // log_likelihood call at P = 16, N_p ≥ 2.
    for (p, np) in [(4, 2), (16, 1), (16, 2), (16, 4)] {
        for backend in BACKENDS {
            let model = trained(&engine, backend, p, np);
            let obs = Complex::new(1.2, 0.3);
            let cand = Complex::new(1.0, 0.0);
            group.bench_with_input(
                BenchmarkId::new(format!("query/{}", backend.label()), format!("P{p}xNp{np}")),
                &model,
                |b, model| {
                    b.iter(|| model.log_likelihood(black_box(bin), black_box(obs), black_box(cand)))
                },
            );
        }
    }

    // Fit cost: batch training (the grid backend's precomputation lives here) and
    // the incremental dirty-bin update.
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
