//! Kernel-density-estimation cost: training (bandwidth selection) and evaluation of the
//! bivariate product kernel, as a function of the number of preamble samples
//! (`P × N_p`) — the `O(P · N_p · f)` term in the paper's complexity discussion (§6).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rfdsp::kde::{select_bandwidth, BandwidthSelector, ProductKde2d};

/// `n` (amplitude, phase) samples, split into the two axes.
fn samples(n: usize) -> (Vec<f64>, Vec<f64>) {
    (0..n)
        .map(|i| {
            let x = i as f64 / n as f64;
            (0.3 * (x * 12.7).sin().abs(), 3.0 * (x * 5.1).cos())
        })
        .unzip()
}

/// `n` samples shaped like an interfered bin's deviations: most near zero, a
/// third displaced by an interferer to amplitude ≈ 3 at phase ≈ π/2, so each
/// axis is two-cluster (deterministic jitter stands in for noise).
fn clustered_samples(n: usize) -> (Vec<f64>, Vec<f64>) {
    (0..n)
        .map(|i| {
            let jitter = ((i * 7919) % 101) as f64 / 101.0 - 0.5;
            if i % 3 == 0 {
                (3.0 + 0.1 * jitter, 1.6 + 0.08 * jitter)
            } else {
                (0.04 * (jitter + 0.5), 2.5 * jitter)
            }
        })
        .unzip()
}

/// A product KDE over `(amps, phases)` with each axis's bandwidth picked by
/// `selector`: what the interference model's per-bin fit does.
fn fit(amps: &[f64], phases: &[f64], selector: BandwidthSelector) -> ProductKde2d {
    let bw_a = select_bandwidth(amps, selector).unwrap();
    let bw_p = select_bandwidth(phases, selector).unwrap();
    ProductKde2d::from_axes(amps, phases, bw_a, bw_p).unwrap()
}

fn bench_kde(c: &mut Criterion) {
    let mut group = c.benchmark_group("kde");
    group.sample_size(30);
    for n in [16usize, 32, 80] {
        let (amps, phases) = samples(n);
        group.bench_with_input(BenchmarkId::new("train_loo", n), &n, |b, _| {
            b.iter(|| fit(&amps, &phases, BandwidthSelector::LeaveOneOut));
        });
        if n == 32 {
            let (amps, phases) = clustered_samples(n);
            group.bench_with_input(BenchmarkId::new("train_loo_clustered", n), &n, |b, _| {
                b.iter(|| fit(&amps, &phases, BandwidthSelector::LeaveOneOut));
            });
        }
        let kde = fit(&amps, &phases, BandwidthSelector::Silverman);
        group.bench_with_input(BenchmarkId::new("eval", n), &kde, |b, kde| {
            b.iter(|| kde.log_eval(0.21, -0.4));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kde);
criterion_main!(benches);
