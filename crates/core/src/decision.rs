//! The subcarrier-decision stage: one per-symbol loop over four per-bin rules.
//!
//! The paper's receivers differ *only* in how they map a subcarrier's `P` segment
//! observations to a lattice point — the fixed-sphere ML search of §4.2 (Eq. 5), the
//! naive average-distance rule of §3.3 (Eq. 3), the genie-aided Oracle of §3.2 and
//! the conventional single-window nearest-point decision. [`DecisionStage`] names the
//! rule and [`decide_symbol`] runs it: one `match` picks the per-bin rule, then one
//! statically dispatched loop decides every bin from the bin-major observation slices
//! of [`SymbolSegments`] as a `u16` index into the cached [`Modulation::lattice`]
//! table (no per-candidate bit-vector clones). All rules share one
//! [`DecoderScratch`], so candidate enumeration is allocation-free after warm-up.
//!
//! A new rule (soft-decision, learned equalizer) is a new [`DecisionStage`] arm. The
//! sphere search itself lives in [`crate::sphere_ml`] and the Oracle's segment
//! selection in [`crate::oracle`]; this module holds the dispatch, the naive rule and
//! the scratch.

use crate::config::DecisionStage;
use crate::interference_model::InterferenceModel;
use crate::oracle::least_interfered;
use crate::segments::{SegmentPowers, SymbolSegments};
use crate::sphere_ml::FixedSphereMlDecoder;
use ofdmphy::modulation::{Lattice, Modulation};
use rfdsp::Complex;

/// Reusable decision buffers — the candidate lattice-index buffer and the sphere
/// decoder's scoring planes — plus the sphere search's work counters.
///
/// Construct one per worker (the receiver threads the one inside
/// [`crate::segments::SegmentScratch`]) and pass it to every [`decide_symbol`] call;
/// after the first symbol of a given modulation the buffers are at full lattice
/// capacity and never reallocate — the regression test in
/// `crates/core/tests/decision_equivalence.rs` pins this across a 1000-symbol decode.
#[derive(Debug, Clone, Default)]
pub struct DecoderScratch {
    /// Candidate lattice indices of the current subcarrier.
    pub(crate) candidates: Vec<u16>,
    /// Candidate-major error-vector real parts (`candidates.len() × P` entries):
    /// the sphere decoder writes every candidate/observation error vector once
    /// and converts phases from these only when it needs them.
    pub(crate) dev_re: Vec<f64>,
    /// Deviation amplitudes, parallel to `dev_re` — every query's, written
    /// with the error vectors; the sphere decoder scores slices of them, one
    /// candidate or one pruning block at a time.
    pub(crate) dev_amp: Vec<f64>,
    /// Deviation phases, parallel to `dev_re`: the error vectors' imaginary
    /// parts, converted in place to phases for the nearest candidate first and
    /// for the others only if the cheap certificate fails.
    pub(crate) dev_phase: Vec<f64>,
    /// The current candidate's per-observation log-likelihoods (`P` entries, in
    /// observation order); a candidate that survives pruning sums them into its
    /// score.
    pub(crate) log_likes: Vec<f64>,
    /// Per-query upper bounds on the model's answers, parallel to `dev_amp`
    /// (amplitude-only in the first stage, tight in the second), turned in
    /// place into each candidate's suffix sums: entry `k·P + q` bounds the sum
    /// of candidate `k`'s answers to observations `q..P`.
    pub(crate) bound_sums: Vec<f64>,
    /// Suffix sums of the bounds' magnitudes, parallel to `bound_sums` — the
    /// scale of the pruning slack.
    pub(crate) bound_mags: Vec<f64>,
    /// Work done by the sphere search since the last
    /// [`take_search_counts`](Self::take_search_counts).
    pub(crate) search: SearchCounts,
}

/// How much work the sphere search did: plain counters the sphere decoder bumps on
/// every subcarrier, so a trace can tell a smaller search space from cheaper
/// scoring. The receiver flushes them once per `decide` span, as the
/// `sphere_candidates`, `sphere_queries_scored` and `sphere_certified` counters,
/// when its recorder is enabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchCounts {
    /// Lattice candidates enumerated inside the sphere (the nearest-point fallback
    /// counts as one).
    pub candidates: u64,
    /// (candidate, observation) log-likelihood queries actually evaluated; an
    /// exhaustive scan would evaluate `candidates × P` of them.
    pub queries_scored: u64,
    /// Multi-candidate bins decided by the certificate alone: the nearest
    /// candidate's lower bound beat every challenger's upper bound, so no query
    /// was scored.
    pub certified: u64,
}

impl DecoderScratch {
    /// An empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        DecoderScratch::default()
    }

    /// Clears the buffers and reserves the worst case (the full lattice of
    /// `modulation`) so subsequent pushes cannot reallocate.
    pub(crate) fn prepare(&mut self, modulation: Modulation) {
        let n = modulation.num_points();
        self.candidates.clear();
        self.candidates.reserve(n);
    }

    /// Returns the sphere search counters accumulated since the last call and
    /// resets them.
    pub fn take_search_counts(&mut self) -> SearchCounts {
        std::mem::take(&mut self.search)
    }

    /// Current capacity of the candidate buffer — a diagnostic for the
    /// zero-reallocation regression test.
    pub fn candidate_capacity(&self) -> usize {
        self.candidates.capacity()
    }
}

/// Decides one symbol's data subcarriers under `stage`: every FFT bin in `bins` is
/// decided from its observation slice ([`SymbolSegments::bin_observations`], never
/// empty, segment `P − 1` last — the standard receiver's window), and the decided
/// constellation values come back in `bins` order, ready for the shared `ofdmphy`
/// bit pipeline.
///
/// `model` is read only by the `Sphere` rule (the interference model trained from
/// the frame's preamble) and `genie_powers` only by the `Oracle` rule (this symbol's
/// per-segment interference powers, measured from the interference-only waveform).
/// Decisions are deterministic and, given a warmed-up `scratch`, the only allocation
/// is the returned vector.
///
/// # Panics
///
/// If `stage` is `Sphere` and `model` is `None`, or `Oracle` and `genie_powers` is
/// `None`.
pub fn decide_symbol(
    stage: DecisionStage,
    modulation: Modulation,
    model: Option<&InterferenceModel>,
    genie_powers: Option<&SegmentPowers>,
    segments: &SymbolSegments,
    bins: &[usize],
    scratch: &mut DecoderScratch,
) -> Vec<Complex> {
    let lattice = modulation.lattice();
    match stage {
        DecisionStage::Sphere {
            radius_min_distances,
        } => {
            let model = model.expect("the sphere rule scores with a trained model");
            let sphere = FixedSphereMlDecoder::new(model, modulation, radius_min_distances);
            decide_bins(lattice, segments, bins, scratch, |bin, obs, scratch| {
                sphere.decide(bin, obs, scratch)
            })
        }
        DecisionStage::Naive => decide_bins(lattice, segments, bins, scratch, |_, obs, _| {
            naive_index(lattice, obs)
        }),
        DecisionStage::Standard => decide_bins(lattice, segments, bins, scratch, |_, obs, _| {
            lattice.nearest_index(*obs.last().expect("at least one segment observation"))
        }),
        DecisionStage::Oracle => {
            let powers = genie_powers.expect("the Oracle rule selects by genie powers");
            decide_bins(lattice, segments, bins, scratch, |bin, obs, _| {
                // A power table with more segments than the observation set (a
                // truncated extraction) clamps to the last available segment.
                let (segment, _) = least_interfered(powers.bin_powers(bin));
                lattice.nearest_index(obs[segment.min(obs.len() - 1)])
            })
        }
    }
}

/// The one per-symbol loop: `rule` maps a bin and its observations to a lattice
/// index, monomorphised per [`DecisionStage`] arm.
fn decide_bins(
    lattice: &Lattice,
    segments: &SymbolSegments,
    bins: &[usize],
    scratch: &mut DecoderScratch,
    rule: impl Fn(usize, &[Complex], &mut DecoderScratch) -> u16,
) -> Vec<Complex> {
    bins.iter()
        .map(|&bin| lattice.point(rule(bin, segments.bin_observations(bin), scratch)))
        .collect()
}

/// The naive multi-segment rule (paper §3.3, Eq. 3) — the authors' earlier ShiftFFT
/// approach and the strawman CPRecycle improves upon: the index of the lattice point
/// with the minimum *average Euclidean distance* to the `P` segment observations, the
/// first minimum on ties,
///
/// ```text
/// l* = argmin_{l ∈ L} Σ_j |X̂_j − l|
/// ```
///
/// The paper identifies three weaknesses (sensitivity of the arithmetic mean to
/// outliers, the assumption that clean observations sit exactly on the lattice point,
/// and ignoring phase structure); the tests below reproduce the outlier failure mode
/// that motivates the KDE + ML design.
pub(crate) fn naive_index(lattice: &Lattice, observations: &[Complex]) -> u16 {
    let mut best = 0u16;
    let mut best_metric = f64::INFINITY;
    for (i, point) in lattice.points().iter().enumerate() {
        let metric: f64 = observations.iter().map(|o| (*o - *point).norm()).sum();
        if metric < best_metric {
            best_metric = metric;
            best = i as u16;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch() -> DecoderScratch {
        DecoderScratch::new()
    }

    /// Decides one bin whose `P` observations are `observations`, under `stage`.
    fn decide_one(
        stage: DecisionStage,
        modulation: Modulation,
        powers: Option<&SegmentPowers>,
        observations: &[Complex],
    ) -> Complex {
        let rows = observations.iter().map(|o| vec![*o]).collect();
        let segments = SymbolSegments::from_rows(rows);
        decide_symbol(
            stage,
            modulation,
            None,
            powers,
            &segments,
            &[0],
            &mut scratch(),
        )[0]
    }

    #[test]
    fn naive_decodes_clean_observations() {
        for m in [Modulation::Bpsk, Modulation::Qpsk, Modulation::Qam16] {
            let lattice = m.lattice();
            for (i, (point, bits)) in m.constellation().into_iter().enumerate() {
                let obs = vec![point; 5];
                let decided = naive_index(lattice, &obs);
                assert_eq!(decided, i as u16);
                assert!((lattice.point(decided) - point).norm() < 1e-12);
                assert_eq!(lattice.bits_of(decided), &bits[..]);
                assert_eq!(decide_one(DecisionStage::Naive, m, None, &obs), point);
            }
        }
    }

    #[test]
    fn naive_averages_out_moderate_noise() {
        let m = Modulation::Qpsk;
        let target = m.points()[2];
        // Small, zero-mean perturbations around the target.
        let obs: Vec<Complex> = [
            Complex::new(0.1, 0.05),
            Complex::new(-0.1, -0.05),
            Complex::new(0.05, -0.1),
            Complex::new(-0.05, 0.1),
            Complex::new(0.0, 0.0),
        ]
        .iter()
        .map(|d| target + *d)
        .collect();
        let decided = m.lattice().point(naive_index(m.lattice(), &obs));
        assert!((decided - target).norm() < 1e-12);
    }

    #[test]
    fn strong_interference_on_most_segments_breaks_the_naive_decoder() {
        // Reproduces the failure mode of paper §3.3 / Fig. 4c: the transmitted BPSK
        // point is +1, two segments observe it cleanly, but three segments are hit by a
        // strong interference vector that drags the observation past the decision
        // boundary. The average-distance metric is dominated by the corrupted majority
        // and flips the decision — even though the clean segments (plus knowledge of
        // the interference statistics) would identify +1, which is what the CPRecycle
        // ML decoder does in `sphere_ml::tests`.
        let true_point = Complex::new(1.0, 0.0);
        let obs = vec![
            Complex::new(1.02, 0.01),
            Complex::new(0.99, -0.02),
            Complex::new(-2.1, 0.15), // +1 plus an interference vector of amplitude ≈ 3.1
            Complex::new(-2.05, -0.1),
            Complex::new(-2.12, 0.05),
        ];
        let decided = decide_one(DecisionStage::Naive, Modulation::Bpsk, None, &obs);
        assert!(
            (decided - true_point).norm() > 1.0,
            "expected the naive decoder to be fooled, got {decided}"
        );
    }

    #[test]
    fn naive_decide_symbol_maps_each_subcarrier() {
        let m = Modulation::Qam16;
        let points = m.points();
        // Three identical segments over an 8-bin toy FFT, one constellation point per
        // bin.
        let row: Vec<Complex> = points.iter().take(8).copied().collect();
        let segments = SymbolSegments::from_rows(vec![row.clone(), row.clone(), row]);
        let bins: Vec<usize> = (0..8).collect();
        let stage = DecisionStage::Naive;
        let decided = decide_symbol(stage, m, None, None, &segments, &bins, &mut scratch());
        assert_eq!(decided.len(), 8);
        for (d, p) in decided.iter().zip(points.iter().take(8)) {
            assert!((*d - *p).norm() < 1e-12);
        }
    }

    #[test]
    fn standard_decoder_uses_only_the_last_segment() {
        // Early segments point at −1, the standard window at +1: the standard decision
        // must follow the last segment alone.
        let obs = vec![
            Complex::new(-1.0, 0.0),
            Complex::new(-1.0, 0.0),
            Complex::new(0.9, 0.1),
        ];
        let decided = decide_one(DecisionStage::Standard, Modulation::Bpsk, None, &obs);
        assert!((decided - Complex::new(1.0, 0.0)).norm() < 1e-12);
    }

    #[test]
    fn oracle_decoder_picks_the_least_interfered_segment() {
        let m = Modulation::Bpsk;
        // Two segments over a 4-bin toy FFT: segment 0 is clean, segment 1 is heavily
        // corrupted on bins 0..2.
        let clean = vec![
            Complex::new(1.0, 0.0),
            Complex::new(-1.0, 0.0),
            Complex::new(1.0, 0.0),
            Complex::new(-1.0, 0.0),
        ];
        let corrupted = vec![
            Complex::new(-2.0, 0.5),
            Complex::new(2.0, -0.5),
            Complex::new(-2.0, 0.0),
            Complex::new(-1.0, 0.0),
        ];
        let segments = SymbolSegments::from_rows(vec![clean.clone(), corrupted]);
        // Genie powers: segment 0 quiet on bins 0..2, segment 1 quiet on bin 3.
        let powers =
            SegmentPowers::from_rows(vec![vec![0.1, 0.1, 0.1, 5.0], vec![4.0, 4.0, 4.0, 0.2]]);
        assert_eq!(least_interfered(powers.bin_powers(0)).0, 0);
        assert_eq!(least_interfered(powers.bin_powers(3)).0, 1);
        let decided = decide_symbol(
            DecisionStage::Oracle,
            m,
            None,
            Some(&powers),
            &segments,
            &[0, 1, 2, 3],
            &mut scratch(),
        );
        for (d, c) in decided.iter().zip(&clean) {
            assert!((*d - *c).norm() < 1e-12);
        }
    }

    #[test]
    fn oracle_decoder_clamps_the_selection_to_available_segments() {
        // A power table with more segments than the observation set (e.g. a truncated
        // extraction) must not index out of bounds: the selection clamps to the last
        // available segment.
        let powers = SegmentPowers::from_rows(vec![vec![5.0], vec![0.1]]);
        assert_eq!(least_interfered(powers.bin_powers(0)).0, 1);
        let obs = [Complex::new(1.0, 0.0)];
        let decided = decide_one(DecisionStage::Oracle, Modulation::Bpsk, Some(&powers), &obs);
        assert!((decided - Complex::new(1.0, 0.0)).norm() < 1e-12);
    }
}
