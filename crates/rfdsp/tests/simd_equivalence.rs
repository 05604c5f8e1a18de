//! Property-based equivalence pins for the lane-parallel kernels (PR 8).
//!
//! Every vectorized hot kernel in this crate is pinned against its scalar
//! reference across randomized lane counts, window sizes and unaligned tail
//! lengths:
//!
//! * **bit-for-bit** where the restructure preserves elementwise operation order —
//!   the sliding-DFT update (both the autovectorized chunk path and the
//!   runtime-dispatched AVX2 path, which deliberately avoids FMA) and the KDE's
//!   largest kernel exponent (a lane max is exact);
//! * **≤ 1e-9** where the batch path substitutes the polynomial `exp` for libm in
//!   the exact-KDE log-sum (operation order differs, so exact equality is not the
//!   contract).
//!
//! The reduced-precision (`f32`) extraction's budget is pinned where it runs, in
//! `cprecycle`'s `segments` tests.

use proptest::prelude::*;
use rfdsp::kde::{select_bandwidth, BandwidthSelector, ProductKde2d};
use rfdsp::simd::{kde_max_exponent, slide_update, slide_update_lanes};
use rfdsp::sliding::SlidingDft;
use rfdsp::Complex;

/// `(amplitude, phase)` samples split into axes, with each axis's leave-one-out
/// bandwidth: the inputs `ProductKde2d::from_axes` takes.
fn loo_axes(samples: &[(f64, f64)]) -> (Vec<f64>, Vec<f64>, f64, f64) {
    let (amps, phases): (Vec<f64>, Vec<f64>) = samples.iter().copied().unzip();
    let bw = |axis: &[f64]| select_bandwidth(axis, BandwidthSelector::LeaveOneOut).unwrap();
    let (bw_a, bw_p) = (bw(&amps), bw(&phases));
    (amps, phases, bw_a, bw_p)
}

fn complexes(
    len: impl Into<proptest::collection::SizeRange>,
) -> impl Strategy<Value = Vec<Complex>> {
    prop::collection::vec(
        (-2.0f64..2.0, -2.0f64..2.0).prop_map(|(re, im)| Complex::new(re, im)),
        len,
    )
}

/// The scalar slide recurrence both SIMD paths must reproduce exactly.
fn slide_reference(spectrum: &mut [Complex], delta: Complex, twiddles: &[Complex]) {
    for (s, w) in spectrum.iter_mut().zip(twiddles) {
        *s = (*s + delta) * *w;
    }
}

fn assert_bits_eq(a: &[Complex], b: &[Complex], what: &str) {
    for (k, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.re.to_bits(), y.re.to_bits(), "{what}: bin {k} (re)");
        assert_eq!(x.im.to_bits(), y.im.to_bits(), "{what}: bin {k} (im)");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The runtime-dispatched slide update (AVX2 where available) is bit-for-bit
    /// identical to the scalar recurrence for every length, including the odd tails
    /// neither the 4-lane chunks nor the 2-wide AVX2 loop cover.
    #[test]
    fn dispatched_slide_update_is_bit_identical(
        spectrum in complexes(0..130usize),
        twiddle_seed in complexes(130..=130usize),
        dre in -2.0f64..2.0,
        dim in -2.0f64..2.0,
    ) {
        let delta = Complex::new(dre, dim);
        let twiddles = &twiddle_seed[..spectrum.len()];
        let mut fast = spectrum.clone();
        let mut slow = spectrum;
        slide_update(&mut fast, delta, twiddles);
        slide_reference(&mut slow, delta, twiddles);
        assert_bits_eq(&fast, &slow, "slide_update dispatch");
    }

    /// The portable chunked path on its own (exercised explicitly so non-AVX2
    /// behaviour is pinned even when the dispatcher would pick AVX2).
    #[test]
    fn lane_slide_update_is_bit_identical(
        spectrum in complexes(0..100usize),
        twiddle_seed in complexes(100..=100usize),
        dre in -2.0f64..2.0,
        dim in -2.0f64..2.0,
    ) {
        let delta = Complex::new(dre, dim);
        let twiddles = &twiddle_seed[..spectrum.len()];
        let mut fast = spectrum.clone();
        let mut slow = spectrum;
        slide_update_lanes(&mut fast, delta, twiddles);
        slide_reference(&mut slow, delta, twiddles);
        assert_bits_eq(&fast, &slow, "slide_update_lanes");
    }

    /// Chained slides through `SlidingDft` stay bit-identical to the scalar
    /// recurrence across window sizes and slide counts.
    #[test]
    fn chained_sliding_dft_is_bit_identical(
        size_idx in 0usize..4,
        samples in complexes(40..200usize),
    ) {
        let n = [4usize, 16, 64, 128][size_idx];
        prop_assume!(samples.len() > n);
        let dft = SlidingDft::new(n);
        let mut fast = vec![Complex::zero(); n];
        let mut slow = fast.clone();
        for t in 0..samples.len() - n {
            dft.slide(&mut fast, samples[t], samples[t + n]).unwrap();
            let delta = samples[t + n] - samples[t];
            slide_reference(&mut slow, delta, dft.advance_twiddles());
        }
        assert_bits_eq(&fast, &slow, "chained slides");
    }

    /// The exact-KDE batch scorer agrees with per-query scalar evaluation to 1e-9
    /// for any query count (chunked body + remainder) — in support with
    /// leave-one-out bandwidths, and in the far tail: fixed small bandwidths and
    /// queries at least 40 bandwidths from every sample, where every linear-domain
    /// sum underflows and the lane-parallel log-sum-exp answers. Far-tail scores
    /// must also fall strictly with distance (the ML ordering between distant
    /// lattice points).
    #[test]
    fn product_kde_batch_matches_scalar(
        samples in prop::collection::vec((0.05f64..3.0, -3.1f64..3.1), 8..48),
        queries in prop::collection::vec((0.0f64..3.5, -3.1f64..3.1), 1..23),
        tail_bw in (0.005f64..0.05, 0.005f64..0.05),
        tail_phase in -3.1f64..3.1,
        tail_steps in prop::collection::vec(0.5f64..30.0, 1..23),
    ) {
        let (sample_amps, sample_phases, loo_a, loo_p) = loo_axes(&samples);
        let kde = ProductKde2d::from_axes(&sample_amps, &sample_phases, loo_a, loo_p).unwrap();
        let amps: Vec<f64> = queries.iter().map(|q| q.0).collect();
        let phases: Vec<f64> = queries.iter().map(|q| q.1).collect();
        let mut batch = vec![0.0; queries.len()];
        kde.log_eval_batch(&amps, &phases, &mut batch);
        for ((a, p), got) in queries.iter().zip(&batch) {
            let want = kde.log_eval(*a, *p);
            let tol = 1e-9 * (1.0 + want.abs());
            prop_assert!((got - want).abs() <= tol, "query ({a}, {p}): {got} vs {want}");
        }

        let (bw_a, bw_p) = tail_bw;
        let tail = ProductKde2d::from_axes(&sample_amps, &sample_phases, bw_a, bw_p).unwrap();
        // Amplitudes from 40 bandwidths beyond the largest sample outward, in
        // strictly increasing steps of at least half a bandwidth.
        let edge = samples.iter().map(|s| s.0).fold(f64::NEG_INFINITY, f64::max);
        let mut dist = 40.0;
        let mut amps = Vec::new();
        for step in &tail_steps {
            amps.push(edge + dist * bw_a);
            dist += step;
        }
        let phases = vec![tail_phase; amps.len()];
        let mut batch = vec![0.0; amps.len()];
        tail.log_eval_batch(&amps, &phases, &mut batch);
        for (k, (a, got)) in amps.iter().zip(&batch).enumerate() {
            prop_assert!(tail.eval(*a, tail_phase) == 0.0, "query {k} is not in the far tail");
            let want = tail.log_eval(*a, tail_phase);
            let tol = 1e-9 * (1.0 + want.abs());
            prop_assert!((got - want).abs() <= tol, "tail query {k} ({a}): {got} vs {want}");
            if k > 0 {
                prop_assert!(*got < batch[k - 1], "tail not strictly decreasing at {k}: {got} vs {}", batch[k - 1]);
            }
        }
    }

    /// The runtime-dispatched largest kernel exponent (AVX2 where available) is
    /// bit-for-bit the scalar running maximum of the same exponents, for any
    /// sample count (lane chunks + remainder) and for queries on, near and far
    /// from the samples. A lane max is exact, so this is `==`, not a tolerance.
    #[test]
    fn kde_max_exponent_is_bit_identical(
        samples in prop::collection::vec((-40.0f64..40.0, -40.0f64..40.0), 0..37),
        queries in prop::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 1..9),
    ) {
        let amps: Vec<f64> = samples.iter().map(|s| s.0).collect();
        let phases: Vec<f64> = samples.iter().map(|s| s.1).collect();
        let on_samples = samples.iter().take(2).copied();
        for (a, p) in queries.into_iter().chain(on_samples) {
            let want = amps.iter().zip(&phases).fold(f64::NEG_INFINITY, |m, (sa, sp)| {
                let (ua, up) = (a - sa, p - sp);
                let e = -(ua * ua + up * up);
                if e > m { e } else { m }
            });
            let got = kde_max_exponent(a, p, &amps, &phases);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "query ({}, {}): {} vs {}", a, p, got, want);
        }
    }
}
