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
//! Step 2's sphere is decided from squared distances; a `hypot` is paid only
//! within a rounding band of the radius or of the nearest candidate's distance,
//! so the candidates and the nearest one are exactly those of comparing norms.
//!
//! Step 3 is exact, and scores as few queries as it can prove it needs. A lone
//! candidate is returned unscored. Otherwise every candidate/observation error
//! vector is written once with its amplitude, and two stages try to prove the
//! candidate nearest the centroid the unique maximum without scoring a query —
//! the *certificate* — before searching:
//!
//! * **Stage 1** bounds every query from above by its amplitude alone
//!   ([`log_likelihood_amplitude_upper_bounds`], the phase gap taken as 0, so
//!   no `atan2` is needed). Only if the nearest candidate's summed bounds beat
//!   every other candidate's does it convert the nearest candidate's phases and
//!   bound its score from below: first from the one kernel sample nearest its
//!   first observation ([`log_likelihood_one_sample_sum_lower_bound`]), then
//!   from all of them ([`log_likelihood_sum_lower_bound`]). A lower bound that
//!   is finite and strictly above every challenger's summed upper bounds plus
//!   slack and a `1e-12` relative margin certifies.
//! * **Stage 2**, only where stage 1 did not certify, converts the remaining
//!   phases in one lane-parallel pass, bounds every query with its phase too
//!   ([`log_likelihood_upper_bounds`], never above the amplitude-only bound) and
//!   tries the certificate again with those tighter bounds and the full lower
//!   bound (stage 1's, if it computed one). Otherwise the nearest candidate is
//!   scored in full, and every other candidate is checked before each block of
//!   a few observations and abandoned as soon as its partial sum plus the upper
//!   bounds of its unscored observations cannot reach the best score so far.
//!
//! Every bin stage 1 certifies, stage 2 would certify too: its challenger
//! bounds are no larger per query, the full lower bound is no smaller than the
//! one-sample bound, and the margin covers the sums' rounding. So which bins
//! are certified, and how many queries are scored, do not depend on stage 1 —
//! it only makes the certificate cheaper (pinned bin for bin against the
//! one-stage decoder in `decision_equivalence`).
//!
//! Per-query log-likelihoods do not depend on how queries are batched, a
//! survivor's score is the same in-order sum the exhaustive scan computes, and
//! ties go to the lowest lattice index, so the decision is bit-for-bit that of
//! scoring every candidate (pinned by the `decision_equivalence` property tests
//! against an exhaustive oracle).
//!
//! [`crate::decision::decide_symbol`] runs the decoder per bin for
//! [`DecisionStage::Sphere`]. It works over the cached [`Modulation::lattice`]
//! table: candidates are `u16` lattice indices accumulated in the shared
//! [`DecoderScratch`], so the whole search — enumeration, both stages' planes
//! and bounds, scoring, argmax — performs **zero heap allocations** after the
//! scratch has warmed up (pinned in `model_alloc`).
//!
//! [`DecisionStage::Sphere`]: crate::config::DecisionStage::Sphere
//!
//! [`log_likelihood_upper_bounds`]: InterferenceModel::log_likelihood_upper_bounds
//! [`log_likelihood_amplitude_upper_bounds`]: InterferenceModel::log_likelihood_amplitude_upper_bounds
//! [`log_likelihood_sum_lower_bound`]: InterferenceModel::log_likelihood_sum_lower_bound
//! [`log_likelihood_one_sample_sum_lower_bound`]: InterferenceModel::log_likelihood_one_sample_sum_lower_bound

use crate::decision::DecoderScratch;
use crate::interference_model::{deviation_amplitude, deviation_phases, InterferenceModel};
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

/// The extra margin the first stage's certificate demands over each
/// challenger's summed amplitude-only bound, in units of that bound's summed
/// magnitudes. The second stage's tight bounds are no larger per query, but
/// their `P`-term sums round differently (`≈ 2·P·ε` relative); `1e-12` covers
/// that for any `P` below about a thousand, so every bin the first stage
/// certifies, the second stage would certify too.
const STAGE1_MARGIN: f64 = 1e-12;

/// Relative half-width of the band around a squared distance inside which the
/// candidate enumeration compares `Complex::norm`s (libm `hypot`) instead. A
/// squared distance `re² + im²` is within a few units in the last place of the
/// square of its `hypot`, so outside the band the two orders agree, and the band
/// is far narrower than any gap between lattice distances that is not a tie.
const NORM_BAND: f64 = 1e-12;

/// Absolute floor of that band: squared distances this small may have lost
/// their relative accuracy to underflow, so they are compared by norm.
const NORM_FLOOR: f64 = 1e-290;

/// The fixed-sphere ML decoder for one modulation order, bound to the interference
/// model trained from the current frame's preamble.
#[derive(Debug, Clone, Copy)]
pub struct FixedSphereMlDecoder<'m> {
    model: &'m InterferenceModel,
    modulation: Modulation,
    /// Sphere radius in absolute constellation units.
    radius: f64,
    /// Squared distances below this are inside the sphere and above
    /// `outside_above` outside it, without a `hypot`: `radius²` shrunk and
    /// grown by [`NORM_BAND`]. A radius outside `1e-100..=1e100` gets `−∞` and
    /// `+∞`, so every lattice point is classified by its norm.
    inside_below: f64,
    outside_above: f64,
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
        let (inside_below, outside_above) = if (1e-100..=1e100).contains(&radius) {
            let squared = radius * radius;
            (squared * (1.0 - NORM_BAND), squared * (1.0 + NORM_BAND))
        } else {
            (f64::NEG_INFINITY, f64::INFINITY)
        };
        FixedSphereMlDecoder {
            model,
            modulation,
            radius,
            inside_below,
            outside_above,
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
    ///
    /// Membership is `offset.norm() <= radius` and "nearest" the first strict
    /// minimum of `offset.norm()`, exactly; both are decided from squared
    /// distances, and a `hypot` is paid only within [`NORM_BAND`] of the radius
    /// or of the nearest candidate's squared distance, where rounding could make
    /// the two disagree.
    fn enumerate_candidates(
        &self,
        observations: &[Complex],
        scratch: &mut DecoderScratch,
    ) -> usize {
        scratch.prepare(self.modulation);
        let center = centroid(observations).unwrap_or(Complex::zero());
        let mut nearest = 0;
        // The nearest candidate's offset from the centroid and squared distance.
        let mut best: Option<(Complex, f64)> = None;
        for (i, point) in self.lattice.points().iter().enumerate() {
            let offset = *point - center;
            let squared = offset.re * offset.re + offset.im * offset.im;
            let inside = if squared < self.inside_below {
                true
            } else if squared > self.outside_above {
                false
            } else {
                offset.norm() <= self.radius
            };
            if !inside {
                continue;
            }
            if strictly_nearer(offset, squared, best) {
                best = Some((offset, squared));
                nearest = scratch.candidates.len();
            }
            scratch.candidates.push(i as u16);
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
        // planes once, with its amplitude; phases wait until a stage needs them.
        let p = observations.len();
        let len = n * p;
        for plane in [
            &mut scratch.dev_re,
            &mut scratch.dev_amp,
            &mut scratch.dev_phase,
            &mut scratch.bound_sums,
            &mut scratch.bound_mags,
        ] {
            plane.clear();
            plane.resize(len, 0.0);
        }
        for (k, &index) in scratch.candidates.iter().enumerate() {
            let point = self.lattice.point(index);
            let range = k * p..(k + 1) * p;
            for (((obs, re), im), amp) in observations
                .iter()
                .zip(&mut scratch.dev_re[range.clone()])
                .zip(&mut scratch.dev_phase[range.clone()])
                .zip(&mut scratch.dev_amp[range])
            {
                let err = *obs - point;
                (*re, *im, *amp) = (err.re, err.im, deviation_amplitude(err.re, err.im));
            }
        }
        let queries = nearest * p..(nearest + 1) * p;
        // Stage 1, the cheap certificate: amplitude-only bounds for every query
        // and, only if the nearest candidate's summed bounds already beat every
        // challenger's, its phases and a lower bound on its score — first from
        // one kernel sample, then from all of them. A floor above every
        // challenger's bound by the stage's margin proves the nearest candidate
        // the unique maximum, and the second stage would prove it too.
        self.model.log_likelihood_amplitude_upper_bounds(
            bin,
            &scratch.dev_amp,
            &mut scratch.bound_sums,
        );
        suffix_sums(&mut scratch.bound_sums, &mut scratch.bound_mags, p);
        let beats = |scratch: &DecoderScratch, score: f64, margin: f64| {
            score > f64::NEG_INFINITY
                && beats_challengers(
                    &scratch.bound_sums,
                    &scratch.bound_mags,
                    p,
                    nearest,
                    score,
                    margin,
                )
        };
        let mut nearest_phased = false;
        let mut full_floor = None;
        if p > 0 && beats(scratch, scratch.bound_sums[nearest * p], 0.0) {
            deviation_phases(
                &scratch.dev_re[queries.clone()],
                &scratch.dev_amp[queries.clone()],
                &mut scratch.dev_phase[queries.clone()],
            );
            nearest_phased = true;
            let (amp, phase) = (
                &scratch.dev_amp[queries.clone()],
                &scratch.dev_phase[queries.clone()],
            );
            let one_sample = self
                .model
                .log_likelihood_one_sample_sum_lower_bound(bin, amp, phase);
            if beats(scratch, one_sample, STAGE1_MARGIN) {
                scratch.search.certified += 1;
                return scratch.candidates[nearest];
            }
            let floor = self.model.log_likelihood_sum_lower_bound(bin, amp, phase);
            if beats(scratch, floor, STAGE1_MARGIN) {
                scratch.search.certified += 1;
                return scratch.candidates[nearest];
            }
            full_floor = Some(floor);
        }
        // Stage 2: the remaining phases in one lane-parallel pass, then every
        // query's tight upper bound and each candidate's suffix sums of the
        // bounds and of their magnitudes: `bound_sums[k·P + q]` bounds what
        // candidate `k` can still add from observation `q` on.
        let rest = if nearest_phased {
            [0..nearest * p, queries.end..len]
        } else {
            [0..len, len..len]
        };
        for range in rest {
            deviation_phases(
                &scratch.dev_re[range.clone()],
                &scratch.dev_amp[range.clone()],
                &mut scratch.dev_phase[range],
            );
        }
        self.model.log_likelihood_upper_bounds(
            bin,
            &scratch.dev_amp,
            &scratch.dev_phase,
            &mut scratch.bound_sums,
        );
        suffix_sums(&mut scratch.bound_sums, &mut scratch.bound_mags, p);
        // The certificate: the nearest candidate's score is at least the floor, so
        // if every challenger's bound falls strictly below it the nearest
        // candidate is the unique maximum, the exhaustive scan's answer. The
        // floor cannot exceed the nearest candidate's own summed upper bounds
        // (beyond rounding), so it is only used when those already beat every
        // challenger; the first stage's floor is reused if it was computed.
        if p > 0 && beats(scratch, scratch.bound_sums[nearest * p], 0.0) {
            let floor = full_floor.unwrap_or_else(|| {
                self.model.log_likelihood_sum_lower_bound(
                    bin,
                    &scratch.dev_amp[queries.clone()],
                    &scratch.dev_phase[queries.clone()],
                )
            });
            if beats(scratch, floor, 0.0) {
                scratch.search.certified += 1;
                return scratch.candidates[nearest];
            }
        }
        // The most candidate `k` can still score after `done` observations whose
        // answers sum to `partial` (magnitudes `magnitude`), rounding included.
        let bound =
            |scratch: &DecoderScratch, k: usize, done: usize, partial: f64, magnitude: f64| {
                partial
                    + scratch.bound_sums[k * p + done]
                    + PRUNE_SLACK * (magnitude + scratch.bound_mags[k * p + done])
            };
        scratch.log_likes.clear();
        scratch.log_likes.resize(p, 0.0);
        // The best score so far and its candidate position. Position 0 with −∞ is
        // the exhaustive scan's answer when no score beats −∞ (NaN/±Inf input).
        let mut best = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        let order = std::iter::once(nearest).chain((0..n).filter(|&k| k != nearest));
        for (rank, k) in order.enumerate() {
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
                if bound(scratch, k, done, partial, magnitude) < best_score {
                    break;
                }
                let end = (done + block).min(p);
                let queries = k * p + done..k * p + end;
                self.model.log_likelihood_batch(
                    bin,
                    &scratch.dev_amp[queries.clone()],
                    &scratch.dev_phase[queries],
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

/// Whether a candidate at `offset` from the centroid (squared distance
/// `squared`) is strictly nearer than the nearest so far, `best`, exactly as
/// comparing their `Complex::norm`s decides: the squared distances decide
/// unless they lie within [`NORM_BAND`] of each other (or below
/// [`NORM_FLOOR`]), where only the norms can. Before any candidate the
/// comparison is against `+∞`, which any finite distance wins.
fn strictly_nearer(offset: Complex, squared: f64, best: Option<(Complex, f64)>) -> bool {
    let Some((best_offset, best_squared)) = best else {
        return squared.is_finite() || offset.norm() < f64::INFINITY;
    };
    if best_squared.is_finite() {
        if squared < best_squared * (1.0 - NORM_BAND) - NORM_FLOOR {
            return true;
        }
        if squared > best_squared * (1.0 + NORM_BAND) + NORM_FLOOR {
            return false;
        }
    }
    offset.norm() < best_offset.norm()
}

/// Turns the per-query bounds in `sums` (candidate-major, `P` per candidate)
/// into each candidate's suffix sums in place, and writes the suffix sums of
/// their magnitudes into `mags`.
fn suffix_sums(sums: &mut [f64], mags: &mut [f64], p: usize) {
    if p == 0 {
        return;
    }
    for (sums, mags) in sums.chunks_exact_mut(p).zip(mags.chunks_exact_mut(p)) {
        let (mut sum, mut magnitude) = (0.0, 0.0);
        for (b, m) in sums.iter_mut().zip(mags).rev() {
            magnitude += b.abs();
            sum += *b;
            (*b, *m) = (sum, magnitude);
        }
    }
}

/// Whether `score` lies strictly above every challenger's (every candidate
/// but `nearest`) summed bound over all `P` observations, slack included — and,
/// if `margin` is positive, above it by `margin` times the bound's summed
/// magnitudes as well.
fn beats_challengers(
    sums: &[f64],
    mags: &[f64],
    p: usize,
    nearest: usize,
    score: f64,
    margin: f64,
) -> bool {
    (0..sums.len() / p).filter(|&k| k != nearest).all(|k| {
        let bound = sums[k * p] + PRUNE_SLACK * mags[k * p];
        score
            > if margin > 0.0 {
                bound + margin * mags[k * p]
            } else {
                bound
            }
    })
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

    /// The `hypot` enumeration the squared-distance one must reproduce: every
    /// lattice point with `norm() <= radius` in index order, the position of the
    /// first strict minimum norm, and the nearest-point fallback.
    fn norm_reference(dec: &FixedSphereMlDecoder<'_>, center: Complex) -> (Vec<u16>, usize) {
        let lattice = dec.modulation().lattice();
        let mut candidates = Vec::new();
        let mut nearest = 0;
        let mut nearest_distance = f64::INFINITY;
        for (i, point) in lattice.points().iter().enumerate() {
            let distance = (*point - center).norm();
            if distance <= dec.radius() {
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
        (candidates, nearest)
    }

    #[test]
    fn enumeration_matches_the_norm_reference_at_the_radius_and_on_ties() {
        use std::f64::consts::PI;
        let model = InterferenceModel::new(64, CpRecycleConfig::default());
        let mut s = scratch();
        let nudged = |x: f64, ulps: i32| {
            (0..ulps.abs()).fold(x, |x, _| if ulps > 0 { x.next_up() } else { x.next_down() })
        };
        let (mut banded, mut reordered) = (0, 0);
        for modulation in [
            Modulation::Bpsk,
            Modulation::Qpsk,
            Modulation::Qam16,
            Modulation::Qam64,
            Modulation::Qam256,
        ] {
            let points = modulation.points();
            let step = (points.len() / 8).max(1);
            for multiple in [0.5, 1.0, 2.0, 3.0] {
                let dec = FixedSphereMlDecoder::new(&model, modulation, multiple);
                let radius = dec.radius();
                let mut centers = Vec::new();
                for &point in points.iter().step_by(step) {
                    // Exactly the radius from a lattice point in assorted
                    // directions, then 1–2 ulps inside and outside on either axis.
                    for k in 0..12 {
                        let on = point + Complex::from_polar(radius, PI * k as f64 / 6.0 + 0.1);
                        for ulps in -2..=2 {
                            centers.push(Complex::new(nudged(on.re, ulps), on.im));
                            centers.push(Complex::new(on.re, nudged(on.im, ulps)));
                        }
                    }
                    // Equidistant from two neighbouring lattice points: on their
                    // bisector near the midpoint, where both are the nearest
                    // candidates, and at the radius from both.
                    let other = points
                        .iter()
                        .filter(|q| **q != point)
                        .min_by(|a, b| (**a - point).norm().total_cmp(&(**b - point).norm()))
                        .copied()
                        .unwrap_or(point);
                    let mid = (point + other).scale(0.5);
                    let half = (other - point).norm() / 2.0;
                    let along = (other - point).scale(1.0 / (2.0 * half.max(f64::MIN_POSITIVE)));
                    let normal = Complex::new(-along.im, along.re);
                    let reach = (radius * radius - half * half).max(0.0).sqrt();
                    for t in [0.0, 0.05 * half, -0.3 * half, reach, -reach] {
                        let c = mid + normal.scale(t);
                        for (re_ulps, im_ulps) in
                            [(0, 0), (1, 0), (-1, 0), (0, 2), (2, -1), (-2, 1)]
                        {
                            centers
                                .push(Complex::new(nudged(c.re, re_ulps), nudged(c.im, im_ulps)));
                        }
                    }
                }
                for center in centers {
                    let nearest = dec.enumerate_candidates(&[center], &mut s);
                    let (want, want_nearest) = norm_reference(&dec, center);
                    let context = format!("{modulation:?} ×{multiple} center {center:?}");
                    assert_eq!(s.candidates, want, "{context}: candidates");
                    assert_eq!(nearest, want_nearest, "{context}: nearest");
                    let squared: Vec<f64> = want
                        .iter()
                        .map(|&i| modulation.lattice().point(i) - center)
                        .map(|o| o.re * o.re + o.im * o.im)
                        .collect();
                    banded += squared
                        .iter()
                        .filter(|d| (dec.inside_below..=dec.outside_above).contains(*d))
                        .count();
                    // Where the first strict minimum of the squared distances is
                    // not the nearest by norm, only the near-tie fallback is right.
                    let by_squared = (0..squared.len()).fold(0, |best, k| {
                        if squared[k] < squared[best] {
                            k
                        } else {
                            best
                        }
                    });
                    reordered += usize::from(want.len() > 1 && by_squared != want_nearest);
                }
            }
        }
        assert!(banded > 0, "no centroid landed in the rounding band");
        assert!(
            reordered > 0,
            "no near-tie that squared distances order differently"
        );
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
