//! The fixed-sphere maximum-likelihood decoder (paper §4.2, Eq. 5).
//!
//! For each data subcarrier the decoder receives `P` segment observations. It:
//!
//! 1. computes their **centroid** (average of real and imaginary parts),
//! 2. restricts the search to lattice points within a **fixed sphere** of radius `R`
//!    around the centroid (falling back to the nearest lattice point when the sphere is
//!    empty, so the decoder never fails outright),
//! 3. scores the candidates by the sum over segments of the log-likelihood from the
//!    per-subcarrier interference model (the product of Eq. 5 in log domain) and picks
//!    the maximum.
//!
//! Step 3 is exact, and scores as few queries as it can prove it needs. A lone
//! candidate is returned unscored. Otherwise the model bounds every query from
//! above ([`log_likelihood_upper_bounds`], at most the per-bin ceiling) and the
//! candidate nearest the centroid's whole score from below
//! ([`log_likelihood_sum_lower_bound`]), neither of which scores a query. If
//! that lower bound is finite and strictly above every other candidate's summed
//! upper bounds plus slack, the nearest candidate is the unique maximum and is
//! returned unscored: the *certificate*. Otherwise the nearest candidate is
//! scored in full, and every other candidate is checked before each block of a
//! few observations and abandoned as soon as its partial sum plus the upper
//! bounds of its unscored observations cannot reach the best score so far.
//! Per-query log-likelihoods do not depend on how queries are batched, a
//! survivor's score is the same in-order sum the exhaustive scan computes, and
//! ties go to the lowest lattice index, so the decision is bit-for-bit that of
//! scoring every candidate (pinned by the `decision_equivalence` property tests
//! against an exhaustive oracle).
//!
//! [`crate::decision::decide_symbol`] runs the decoder per bin for
//! [`DecisionStage::Sphere`]. It works over the cached [`Modulation::lattice`]
//! table: candidates are `u16` lattice indices accumulated in the shared
//! [`DecoderScratch`], so the whole search — enumeration, scoring, argmax —
//! performs **zero heap allocations** after the scratch has warmed up.
//!
//! [`DecisionStage::Sphere`]: crate::config::DecisionStage::Sphere
//!
//! [`log_likelihood_upper_bounds`]: InterferenceModel::log_likelihood_upper_bounds
//! [`log_likelihood_sum_lower_bound`]: InterferenceModel::log_likelihood_sum_lower_bound

use crate::decision::DecoderScratch;
use crate::interference_model::{deviation_planes, InterferenceModel};
use crate::segments::SymbolSegments;
use ofdmphy::modulation::{Lattice, Modulation};
use rfdsp::stats::centroid;
use rfdsp::Complex;

/// Observations scored per step before a challenger's bound is re-checked. Most
/// challengers are abandoned at the first check: on `link_interfered` (P = 16)
/// blocks of 1, 2 and 4 scored 4.9, 5.5 and 6.9 queries per candidate, and 1 bought
/// no throughput over 2 once the extra per-call overhead was paid.
const PRUNE_BLOCK: usize = 2;

/// Relative slack on the pruning and certificate bounds, in units of the
/// magnitudes summed so far plus those of the unscored observations' upper
/// bounds. It must cover the rounding of a `P`-term sum (`≈ 2·P·ε` relative) and
/// of the bound itself; `1e-9` does so for any `P` below about two million while
/// loosening the bound by a negligible amount.
const PRUNE_SLACK: f64 = 1e-9;

/// The fixed-sphere ML decoder for one modulation order, bound to the interference
/// model trained from the current frame's preamble.
#[derive(Debug, Clone, Copy)]
pub struct FixedSphereMlDecoder<'m> {
    model: &'m InterferenceModel,
    modulation: Modulation,
    /// Sphere radius in absolute constellation units.
    radius: f64,
    lattice: &'static Lattice,
}

impl<'m> FixedSphereMlDecoder<'m> {
    /// Creates a decoder for `modulation` with sphere radius expressed as a multiple of
    /// the constellation's minimum distance (the paper's `R`, made scale-free so one
    /// setting works across modulations). Construction is cheap — the lattice table is
    /// process-wide and the model is borrowed — so the receiver builds one per frame.
    pub fn new(
        model: &'m InterferenceModel,
        modulation: Modulation,
        radius_min_distances: f64,
    ) -> Self {
        let radius = radius_min_distances.max(0.0) * modulation.min_distance();
        FixedSphereMlDecoder {
            model,
            modulation,
            radius,
            lattice: modulation.lattice(),
        }
    }

    /// The modulation whose lattice this decoder decides over.
    pub fn modulation(&self) -> Modulation {
        self.modulation
    }

    /// The absolute sphere radius in constellation units.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Enumerates the candidate lattice indices within the sphere centred at the
    /// centroid of `observations` (paper Fig. 6c) into the scratch buffer and returns
    /// them. Falls back to the single nearest lattice point when the sphere is empty.
    pub fn candidates<'s>(
        &self,
        observations: &[Complex],
        scratch: &'s mut DecoderScratch,
    ) -> &'s [u16] {
        self.enumerate_candidates(observations, scratch);
        &scratch.candidates
    }

    /// Fills `scratch.candidates` (ascending lattice index) and returns the position
    /// of the candidate nearest the centroid (the first one on a distance tie).
    fn enumerate_candidates(
        &self,
        observations: &[Complex],
        scratch: &mut DecoderScratch,
    ) -> usize {
        scratch.prepare(self.modulation);
        let center = centroid(observations).unwrap_or(Complex::zero());
        let mut nearest = 0;
        let mut nearest_distance = f64::INFINITY;
        for (i, point) in self.lattice.points().iter().enumerate() {
            let distance = (*point - center).norm();
            if distance <= self.radius {
                if distance < nearest_distance {
                    nearest_distance = distance;
                    nearest = scratch.candidates.len();
                }
                scratch.candidates.push(i as u16);
            }
        }
        if scratch.candidates.is_empty() {
            scratch.candidates.push(self.lattice.nearest_index(center));
        }
        nearest
    }

    /// Average number of lattice points inside the sphere over the given subcarriers —
    /// a complexity diagnostic (the quantity the fixed sphere is meant to keep small).
    pub fn mean_search_space(
        &self,
        segments: &SymbolSegments,
        bins: &[usize],
        scratch: &mut DecoderScratch,
    ) -> f64 {
        if bins.is_empty() {
            return 0.0;
        }
        let total: usize = bins
            .iter()
            .map(|&bin| {
                self.candidates(segments.bin_observations(bin), scratch)
                    .len()
            })
            .sum();
        total as f64 / bins.len() as f64
    }

    /// Decides one subcarrier from its `P` segment observations (bin-major, never
    /// empty) and returns the lattice index of the maximum-likelihood candidate;
    /// `bin` selects the interference model's per-subcarrier density.
    pub fn decide(
        &self,
        bin: usize,
        observations: &[Complex],
        scratch: &mut DecoderScratch,
    ) -> u16 {
        let nearest = self.enumerate_candidates(observations, scratch);
        let n = scratch.candidates.len();
        scratch.search.candidates += n as u64;
        if n == 1 {
            return scratch.candidates[0];
        }
        // Every candidate/observation error vector goes into the candidate-major
        // planes and is converted to an (amplitude, phase) deviation in one
        // lane-parallel pass — cheap next to a model query, so converting the
        // queries pruning later skips costs little and saves a call per block.
        let p = observations.len();
        scratch.dev_amp.clear();
        scratch.dev_phase.clear();
        for &index in &scratch.candidates {
            let point = self.lattice.point(index);
            for obs in observations {
                let err = *obs - point;
                scratch.dev_amp.push(err.re);
                scratch.dev_phase.push(err.im);
            }
        }
        deviation_planes(&mut scratch.dev_amp, &mut scratch.dev_phase);
        // Every query's upper bound, then each candidate's suffix sums of the
        // bounds and of their magnitudes: `bound_sums[k·P + q]` bounds what
        // candidate `k` can still add from observation `q` on.
        let len = n * p;
        scratch.bound_sums.clear();
        scratch.bound_sums.resize(len, 0.0);
        scratch.bound_mags.clear();
        scratch.bound_mags.resize(len, 0.0);
        self.model.log_likelihood_upper_bounds(
            bin,
            &scratch.dev_amp,
            &scratch.dev_phase,
            &mut scratch.bound_sums,
        );
        for k in 0..n {
            let (mut sum, mut magnitude) = (0.0, 0.0);
            let range = k * p..(k + 1) * p;
            for (b, m) in scratch.bound_sums[range.clone()]
                .iter_mut()
                .zip(&mut scratch.bound_mags[range])
                .rev()
            {
                magnitude += b.abs();
                sum += *b;
                (*b, *m) = (sum, magnitude);
            }
        }
        // The most candidate `k` can still score after `done` observations whose
        // answers sum to `partial` (magnitudes `magnitude`), rounding included.
        let bound = |k: usize, done: usize, partial: f64, magnitude: f64| {
            partial
                + scratch.bound_sums[k * p + done]
                + PRUNE_SLACK * (magnitude + scratch.bound_mags[k * p + done])
        };
        // The certificate: the nearest candidate's score is at least `floor`, so
        // if every challenger's bound falls strictly below it the nearest
        // candidate is the unique maximum, the exhaustive scan's answer. The
        // floor cannot exceed the nearest candidate's own summed upper bounds
        // (beyond rounding), so it is only computed when those already beat
        // every challenger, which spares its exponent pass in bins that cannot
        // certify.
        let beats_challengers = |score: f64| {
            (0..n)
                .filter(|&k| k != nearest)
                .all(|k| score > bound(k, 0, 0.0, 0.0))
        };
        if p > 0 && beats_challengers(scratch.bound_sums[nearest * p]) {
            let queries = nearest * p..(nearest + 1) * p;
            let floor = self.model.log_likelihood_sum_lower_bound(
                bin,
                &scratch.dev_amp[queries.clone()],
                &scratch.dev_phase[queries],
            );
            if floor > f64::NEG_INFINITY && beats_challengers(floor) {
                scratch.search.certified += 1;
                return scratch.candidates[nearest];
            }
        }
        scratch.log_likes.clear();
        scratch.log_likes.resize(p, 0.0);
        // The best score so far and its candidate position. Position 0 with −∞ is
        // the exhaustive scan's answer when no score beats −∞ (NaN/±Inf input).
        let mut best = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        let order = std::iter::once(nearest).chain((0..n).filter(|&k| k != nearest));
        for (rank, k) in order.enumerate() {
            let amp = &scratch.dev_amp[k * p..(k + 1) * p];
            let phase = &scratch.dev_phase[k * p..(k + 1) * p];
            // The first (nearest) candidate sets the bar in one batch; challengers
            // are checked before each block, their first included, and dropped
            // once they provably cannot beat it. Nothing is below the first
            // candidate's −∞ bar, and only a strict bound prunes, so a challenger
            // that could tie is always scored in full.
            let block = if rank == 0 { p } else { PRUNE_BLOCK };
            let mut partial = 0.0;
            let mut magnitude = 0.0;
            let mut done = 0;
            while done < p {
                if bound(k, done, partial, magnitude) < best_score {
                    break;
                }
                let end = (done + block).min(p);
                self.model.log_likelihood_batch(
                    bin,
                    &amp[done..end],
                    &phase[done..end],
                    &mut scratch.log_likes[done..end],
                );
                scratch.search.queries_scored += (end - done) as u64;
                for v in &scratch.log_likes[done..end] {
                    partial += v;
                    magnitude += v.abs();
                }
                done = end;
            }
            if done < p {
                continue;
            }
            // The exhaustive scan's in-order sum, so the score is bit-identical.
            let score: f64 = scratch.log_likes.iter().sum();
            // Candidates are in ascending lattice order, so the lower position wins a
            // tie — the exhaustive first-strict-maximum rule.
            if score > best_score || (score == best_score && k < best) {
                best_score = score;
                best = k;
            }
        }
        scratch.candidates[best]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CpRecycleConfig;
    use rand::{Rng, SeedableRng};

    fn scratch() -> DecoderScratch {
        DecoderScratch::new()
    }

    /// A model whose bin `bin` was trained on one preamble symbol with reference
    /// `+1` there and one segment per entry of `interference`, each observing
    /// `+1 + interference[j]` plus noise below `0.02`.
    fn model_trained_on(interference: &[Complex], seed: u64) -> (InterferenceModel, usize) {
        use ofdmphy::ofdm::OfdmEngine;
        use ofdmphy::params::OfdmParams;

        let engine = OfdmEngine::new(OfdmParams::ieee80211ag());
        let bin = engine.params().data_bins()[10];
        let reference_value = Complex::new(1.0, 0.0);
        let mut reference = vec![Complex::zero(); 64];
        reference[bin] = reference_value;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let rows = interference
            .iter()
            .map(|i| {
                let mut seg = vec![Complex::zero(); 64];
                let noise = Complex::new(rng.gen::<f64>() * 0.02, rng.gen::<f64>() * 0.02);
                seg[bin] = reference_value + *i + noise;
                seg
            })
            .collect();
        let model = InterferenceModel::train(
            &engine,
            &[SymbolSegments::from_rows(rows)],
            &[reference],
            CpRecycleConfig::default(),
        )
        .unwrap();
        (model, bin)
    }

    #[test]
    fn sphere_radius_scales_with_modulation() {
        let model = InterferenceModel::new(64, CpRecycleConfig::default());
        let qpsk = FixedSphereMlDecoder::new(&model, Modulation::Qpsk, 1.5);
        let qam64 = FixedSphereMlDecoder::new(&model, Modulation::Qam64, 1.5);
        assert!(qpsk.radius() > qam64.radius());
        assert_eq!(qpsk.modulation(), Modulation::Qpsk);
    }

    #[test]
    fn candidates_within_sphere_only() {
        let model = InterferenceModel::new(64, CpRecycleConfig::default());
        let dec = FixedSphereMlDecoder::new(&model, Modulation::Qam16, 1.0);
        // Observations clustered near one corner point.
        let corner = Modulation::Qam16
            .points()
            .into_iter()
            .max_by(|a, b| a.norm().partial_cmp(&b.norm()).unwrap())
            .unwrap();
        let obs = vec![corner; 4];
        let mut s = scratch();
        let cands = dec.candidates(&obs, &mut s);
        // All candidates lie within R of the corner, so the search space is much smaller
        // than the full 16-point constellation.
        assert!(!cands.is_empty());
        assert!(cands.len() <= 4, "sphere too large: {}", cands.len());
        let lattice = Modulation::Qam16.lattice();
        for &i in cands {
            assert!((lattice.point(i) - corner).norm() <= dec.radius() + 1e-12);
        }
    }

    #[test]
    fn search_counts_record_candidates_and_pruned_queries() {
        use crate::decision::SearchCounts;
        // Untrained model: the fallback penalty's ceiling is 0, and every
        // challenger is at least one minimum distance from a tight cluster, so it
        // falls behind for good after its first block.
        let model = InterferenceModel::new(64, CpRecycleConfig::default());
        let dec = FixedSphereMlDecoder::new(&model, Modulation::Qam16, 2.0);
        let mut s = scratch();
        let point = Modulation::Qam16.points()[5];
        let obs = vec![point + Complex::new(0.02, -0.01); 16];
        let n = dec.candidates(&obs, &mut s).len() as u64;
        assert!(n > 1);
        assert_eq!(s.take_search_counts(), SearchCounts::default());
        let decided = dec.decide(1, &obs, &mut s);
        assert_eq!(Modulation::Qam16.lattice().point(decided), point);
        let counts = s.take_search_counts();
        assert_eq!(counts.candidates, n);
        assert_eq!(counts.queries_scored, 16 + (n - 1) * PRUNE_BLOCK as u64);
        assert_eq!(s.take_search_counts(), SearchCounts::default());

        // A lone candidate is returned without scoring anything.
        let narrow = FixedSphereMlDecoder::new(&model, Modulation::Qam16, 0.01);
        narrow.decide(1, &[Complex::new(10.0, 10.0); 4], &mut s);
        let counts = s.take_search_counts();
        assert_eq!((counts.candidates, counts.queries_scored), (1, 0));

        // A model trained on a clean channel: its samples sit within 0.03 of
        // zero deviation, so every challenger's deviations lie far outside the
        // samples' box and the nearest candidate is certified unscored.
        let (trained, bin) = model_trained_on(&[Complex::zero(); 8], 11);
        let dec = FixedSphereMlDecoder::new(&trained, Modulation::Qam16, 2.0);
        let decided = dec.decide(bin, &obs, &mut s);
        assert_eq!(Modulation::Qam16.lattice().point(decided), point);
        let counts = s.take_search_counts();
        assert_eq!(
            counts,
            SearchCounts {
                candidates: n,
                queries_scored: 0,
                certified: 1,
            }
        );
    }

    #[test]
    fn empty_sphere_falls_back_to_nearest_point() {
        let model = InterferenceModel::new(64, CpRecycleConfig::default());
        let dec = FixedSphereMlDecoder::new(&model, Modulation::Qpsk, 0.01);
        // Centroid far away from every lattice point.
        let obs = vec![Complex::new(10.0, 10.0); 3];
        let mut s = scratch();
        let cands = dec.candidates(&obs, &mut s).to_vec();
        assert_eq!(cands.len(), 1);
        let nearest = Modulation::Qpsk.nearest_point(Complex::new(10.0, 10.0)).0;
        assert!((Modulation::Qpsk.lattice().point(cands[0]) - nearest).norm() < 1e-12);
    }

    #[test]
    fn fallback_model_decodes_by_distance() {
        // With no trained model the log-likelihood falls back to a distance penalty, so
        // the decoder behaves like a robust nearest-point decision on the centroid.
        let model = InterferenceModel::new(64, CpRecycleConfig::default());
        let dec = FixedSphereMlDecoder::new(&model, Modulation::Qpsk, 2.0);
        let mut s = scratch();
        let lattice = Modulation::Qpsk.lattice();
        for (point, bits) in Modulation::Qpsk.constellation() {
            let obs = vec![point, point, point + Complex::new(0.05, -0.02)];
            let decided = dec.decide(1, &obs, &mut s);
            assert!((lattice.point(decided) - point).norm() < 1e-12);
            assert_eq!(lattice.bits_of(decided), &bits[..]);
        }
    }

    #[test]
    fn corrupted_segments_do_not_fool_the_ml_decoder() {
        // The scenario where the naive decoder fails (§3.3): the transmitted BPSK point
        // is +1; two segments observe it cleanly and three are hit by an interference
        // vector of amplitude ≈ 3.1. The interference model — trained on a preamble that
        // experienced the same per-segment interference statistics — has density mass at
        // deviation amplitudes ≈ 0 and ≈ 3.1 but not at ≈ 2 (the distance to the wrong
        // lattice point), so the ML decoder keeps the correct decision while the naive
        // average-distance decoder flips.
        //
        // Synthetic preamble segments: 5 segments, two clean, three interfered with an
        // amplitude-≈3.1 error vector at assorted phases.
        let (model, bin) = model_trained_on(
            &[
                Complex::zero(),
                Complex::zero(),
                Complex::from_polar(3.1, 2.8),
                Complex::from_polar(3.15, -3.0),
                Complex::from_polar(3.05, 3.05),
            ],
            7,
        );

        // Data-symbol observations with the same structure, transmitted point = +1:
        // three segments pushed to ≈ −2.1 (error amplitude ≈ 3.1), two clean.
        let obs = vec![
            Complex::new(1.02, 0.01),
            Complex::new(0.99, -0.02),
            Complex::new(-2.1, 0.15),
            Complex::new(-2.05, -0.1),
            Complex::new(-2.12, 0.05),
        ];
        let dec = FixedSphereMlDecoder::new(&model, Modulation::Bpsk, 6.0);
        let mut s = scratch();
        let lattice = Modulation::Bpsk.lattice();
        let decided = lattice.point(dec.decide(bin, &obs, &mut s));
        assert!(
            (decided - Complex::new(1.0, 0.0)).norm() < 1e-9,
            "ML decoder should resist the corrupted majority, got {decided}"
        );
        // The naive decoder is fooled on the same input (cross-check of the paper's
        // motivating example).
        let naive = lattice.point(crate::decision::naive_index(lattice, &obs));
        assert!((naive - Complex::new(-1.0, 0.0)).norm() < 1e-9);
    }

    #[test]
    fn decode_symbol_and_search_space() {
        use crate::config::DecisionStage;
        use crate::decision::decide_symbol;
        let model = InterferenceModel::new(64, CpRecycleConfig::default());
        let dec = FixedSphereMlDecoder::new(&model, Modulation::Qam16, 1.0);
        let points = Modulation::Qam16.points();
        // Three segments whose bin `i + 1` all observe constellation point `i`.
        let row: Vec<Complex> = (0..64)
            .map(|bin| {
                if (1..=8).contains(&bin) {
                    points[bin - 1]
                } else {
                    Complex::zero()
                }
            })
            .collect();
        let segments = SymbolSegments::from_rows(vec![row.clone(), row.clone(), row]);
        let bins: Vec<usize> = (1..=8).collect();
        let mut s = scratch();
        let stage = DecisionStage::Sphere {
            radius_min_distances: 1.0,
        };
        let decided = decide_symbol(
            stage,
            Modulation::Qam16,
            Some(&model),
            None,
            &segments,
            &bins,
            &mut s,
        );
        assert_eq!(decided.len(), 8);
        for (d, p) in decided.iter().zip(points.iter().take(8)) {
            assert!((*d - *p).norm() < 1e-12);
        }
        let mean_space = dec.mean_search_space(&segments, &bins, &mut s);
        assert!((1.0..16.0).contains(&mean_space));
        assert_eq!(dec.mean_search_space(&segments, &[], &mut s), 0.0);
    }
}
