//! The subcarrier-decision stage: one trait, four decoders.
//!
//! The paper's receivers differ *only* in how they map a subcarrier's `P` segment
//! observations to a lattice point — the fixed-sphere ML search of §4.2 (Eq. 5), the
//! naive average-distance decoder of §3.3 (Eq. 3), the genie-aided Oracle of §3.2 and
//! the conventional single-window nearest-point decision. [`SubcarrierDecoder`] makes
//! that stage a first-class extension point: every decoder consumes the bin-major
//! observation slices of [`SymbolSegments`], emits `u16` lattice indices into the
//! cached [`Modulation::lattice`] table (no per-candidate bit-vector clones), and
//! shares one [`DecoderScratch`] so candidate enumeration is allocation-free after
//! warm-up.
//!
//! Which decoder runs is selected by [`crate::config::DecisionStage`] and dispatched
//! by [`crate::receiver::CpRecycleReceiver`]; future receivers (soft-decision,
//! learned equalizers) slot in by implementing the trait.
//!
//! The sphere decoder itself lives in [`crate::sphere_ml`]; this module holds the
//! trait, the scratch and the three lattice-geometry decoders.

use crate::segments::{SegmentPowers, SymbolSegments};
use ofdmphy::modulation::{Lattice, Modulation};
use rfdsp::Complex;

/// One decided lattice point: its index into [`Modulation::lattice`] plus the
/// constellation value. The index is the stable identity (the bits of index `i` are
/// `i` itself, MSB first), so downstream stages can recover bits without cloning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatticePoint {
    /// Index into the modulation's lattice table.
    pub index: u16,
    /// The constellation value at that index.
    pub value: Complex,
}

impl LatticePoint {
    /// The bits this point encodes under `modulation`, borrowed from the cached
    /// lattice table.
    pub fn bits(self, modulation: Modulation) -> &'static [u8] {
        modulation.lattice().bits_of(self.index)
    }
}

/// Reusable decision buffers — the candidate lattice-index buffer and the sphere
/// decoder's scoring planes — plus the sphere search's work counters.
///
/// Construct one per worker (the receiver threads the one inside
/// [`crate::segments::SegmentScratch`]) and pass it to every
/// [`SubcarrierDecoder::decide`] call; after the first symbol of a given modulation
/// the buffers are at full lattice capacity and never reallocate — the regression
/// test in `crates/core/tests/decision_equivalence.rs` pins this across a
/// 1000-symbol decode.
#[derive(Debug, Clone, Default)]
pub struct DecoderScratch {
    /// Candidate lattice indices of the current subcarrier.
    pub(crate) candidates: Vec<u16>,
    /// Candidate-major deviation amplitudes (`candidates.len() × P` entries) — the
    /// sphere decoder hoists every candidate/observation error vector here (real
    /// part, converted in place to the amplitude) and scores slices of it, one
    /// candidate or one pruning block at a time.
    pub(crate) dev_amp: Vec<f64>,
    /// Deviation phases (imaginary part before conversion), parallel to `dev_amp`.
    pub(crate) dev_phase: Vec<f64>,
    /// The current candidate's per-observation log-likelihoods (`P` entries, in
    /// observation order); a candidate that survives pruning sums them into its
    /// score.
    pub(crate) log_likes: Vec<f64>,
    /// Per-query upper bounds on the model's answers, parallel to `dev_amp`,
    /// turned in place into each candidate's suffix sums: entry `k·P + q` bounds
    /// the sum of candidate `k`'s answers to observations `q..P`.
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

/// A subcarrier-decision stage: maps the `P` segment observations of one FFT bin to a
/// lattice point of its modulation.
///
/// Contract shared by all implementations:
///
/// * `observations` is the bin-major slice [`SymbolSegments::bin_observations`]
///   (segment `P − 1` last — the standard receiver's window) and is never empty;
/// * `bin` is the FFT bin index, for decoders with per-subcarrier state (the sphere
///   decoder's interference model, the Oracle's power table);
/// * decisions are deterministic and allocation-free given a warmed-up scratch.
pub trait SubcarrierDecoder {
    /// The modulation whose lattice this decoder decides over.
    fn modulation(&self) -> Modulation;

    /// Decides one subcarrier from its `P` segment observations.
    fn decide(
        &self,
        bin: usize,
        observations: &[Complex],
        scratch: &mut DecoderScratch,
    ) -> LatticePoint;

    /// Decides a whole symbol: every FFT bin in `bins` (increasing order) is decided
    /// from its contiguous observation slice; the decided constellation values are
    /// returned in the same order, ready for the shared `ofdmphy` bit pipeline.
    fn decide_symbol(
        &self,
        segments: &SymbolSegments,
        bins: &[usize],
        scratch: &mut DecoderScratch,
    ) -> Vec<Complex> {
        let mut out = Vec::with_capacity(bins.len());
        self.decide_symbol_into(segments, bins, scratch, &mut out);
        out
    }

    /// [`decide_symbol`](Self::decide_symbol) into a caller-owned buffer (cleared
    /// first) — the fully allocation-free batched path.
    fn decide_symbol_into(
        &self,
        segments: &SymbolSegments,
        bins: &[usize],
        scratch: &mut DecoderScratch,
        out: &mut Vec<Complex>,
    ) {
        out.clear();
        out.reserve(bins.len());
        for &bin in bins {
            out.push(
                self.decide(bin, segments.bin_observations(bin), scratch)
                    .value,
            );
        }
    }
}

/// The naive multi-segment decoder (paper §3.3, Eq. 3) — the authors' earlier
/// ShiftFFT approach and the strawman CPRecycle improves upon.
///
/// For each subcarrier it picks the lattice point with the minimum *average Euclidean
/// distance* to the `P` segment observations:
///
/// ```text
/// l* = argmin_{l ∈ L} Σ_j |X̂_j − l|
/// ```
///
/// The paper identifies three weaknesses (sensitivity of the arithmetic mean to
/// outliers, the assumption that clean observations sit exactly on the lattice point,
/// and ignoring phase structure); the tests below reproduce the outlier failure mode
/// that motivates the KDE + ML design.
#[derive(Debug, Clone, Copy)]
pub struct NaiveCentroidDecoder {
    modulation: Modulation,
    lattice: &'static Lattice,
}

impl NaiveCentroidDecoder {
    /// Creates a naive decoder for `modulation`.
    pub fn new(modulation: Modulation) -> Self {
        NaiveCentroidDecoder {
            modulation,
            lattice: modulation.lattice(),
        }
    }
}

impl SubcarrierDecoder for NaiveCentroidDecoder {
    fn modulation(&self) -> Modulation {
        self.modulation
    }

    fn decide(
        &self,
        _bin: usize,
        observations: &[Complex],
        _scratch: &mut DecoderScratch,
    ) -> LatticePoint {
        let mut best = 0u16;
        let mut best_metric = f64::INFINITY;
        for (i, point) in self.lattice.points().iter().enumerate() {
            let metric: f64 = observations.iter().map(|o| (*o - *point).norm()).sum();
            if metric < best_metric {
                best_metric = metric;
                best = i as u16;
            }
        }
        LatticePoint {
            index: best,
            value: self.lattice.point(best),
        }
    }
}

/// The conventional receiver's decision: nearest lattice point on the standard FFT
/// window (the last segment), ignoring the other `P − 1` observations. This is what a
/// CP-discarding receiver computes, made available as a [`SubcarrierDecoder`] so the
/// receiver sweep can include it as an arm and so `P = 1` configurations have an
/// explicit non-ML reference.
#[derive(Debug, Clone, Copy)]
pub struct StandardNearestDecoder {
    modulation: Modulation,
    lattice: &'static Lattice,
}

impl StandardNearestDecoder {
    /// Creates a standard-window decoder for `modulation`.
    pub fn new(modulation: Modulation) -> Self {
        StandardNearestDecoder {
            modulation,
            lattice: modulation.lattice(),
        }
    }
}

impl SubcarrierDecoder for StandardNearestDecoder {
    fn modulation(&self) -> Modulation {
        self.modulation
    }

    fn decide(
        &self,
        _bin: usize,
        observations: &[Complex],
        _scratch: &mut DecoderScratch,
    ) -> LatticePoint {
        let standard = *observations
            .last()
            .expect("at least one segment observation");
        let index = self.lattice.nearest_index(standard);
        LatticePoint {
            index,
            value: self.lattice.point(index),
        }
    }
}

/// The Oracle segment selector (paper §3.2): with perfect knowledge of the
/// per-segment interference power (a [`SegmentPowers`] measured from the
/// interference-only waveform), each subcarrier takes the observation of its
/// least-interfered segment and maps it to the nearest lattice point.
///
/// Impractical — the whole point of CPRecycle is to approach it without the genie —
/// but it upper-bounds the achievable gain and generates Fig. 4a / Fig. 5. Bind a
/// fresh decoder per symbol: it only borrows that symbol's power table, so
/// construction is free of allocation.
#[derive(Debug, Clone, Copy)]
pub struct OracleSegmentDecoder<'p> {
    modulation: Modulation,
    lattice: &'static Lattice,
    powers: &'p SegmentPowers,
}

impl<'p> OracleSegmentDecoder<'p> {
    /// Creates an Oracle decoder over the interference powers of one symbol.
    pub fn new(modulation: Modulation, powers: &'p SegmentPowers) -> Self {
        OracleSegmentDecoder {
            modulation,
            lattice: modulation.lattice(),
            powers,
        }
    }

    /// The genie-selected (minimum-interference) segment of one bin; the first
    /// minimum wins on ties, matching [`crate::oracle::select_best_segments`].
    pub fn best_segment(&self, bin: usize) -> usize {
        let mut best = 0usize;
        let mut min_power = f64::INFINITY;
        for (j, &p) in self.powers.bin_powers(bin).iter().enumerate() {
            if p < min_power {
                min_power = p;
                best = j;
            }
        }
        best
    }
}

impl SubcarrierDecoder for OracleSegmentDecoder<'_> {
    fn modulation(&self) -> Modulation {
        self.modulation
    }

    fn decide(
        &self,
        bin: usize,
        observations: &[Complex],
        _scratch: &mut DecoderScratch,
    ) -> LatticePoint {
        let segment = self.best_segment(bin).min(observations.len() - 1);
        let index = self.lattice.nearest_index(observations[segment]);
        LatticePoint {
            index,
            value: self.lattice.point(index),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segments::SymbolSegments;

    fn scratch() -> DecoderScratch {
        DecoderScratch::new()
    }

    #[test]
    fn naive_decodes_clean_observations() {
        for m in [Modulation::Bpsk, Modulation::Qpsk, Modulation::Qam16] {
            let dec = NaiveCentroidDecoder::new(m);
            assert_eq!(dec.modulation(), m);
            let mut s = scratch();
            for (i, (point, bits)) in m.constellation().into_iter().enumerate() {
                let obs = vec![point; 5];
                let decided = dec.decide(0, &obs, &mut s);
                assert_eq!(decided.index, i as u16);
                assert!((decided.value - point).norm() < 1e-12);
                assert_eq!(decided.bits(m), &bits[..]);
            }
        }
    }

    #[test]
    fn naive_averages_out_moderate_noise() {
        let m = Modulation::Qpsk;
        let dec = NaiveCentroidDecoder::new(m);
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
        let decided = dec.decide(0, &obs, &mut scratch());
        assert!((decided.value - target).norm() < 1e-12);
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
        let dec = NaiveCentroidDecoder::new(Modulation::Bpsk);
        let true_point = Complex::new(1.0, 0.0);
        let obs = vec![
            Complex::new(1.02, 0.01),
            Complex::new(0.99, -0.02),
            Complex::new(-2.1, 0.15), // +1 plus an interference vector of amplitude ≈ 3.1
            Complex::new(-2.05, -0.1),
            Complex::new(-2.12, 0.05),
        ];
        let decided = dec.decide(0, &obs, &mut scratch());
        assert!(
            (decided.value - true_point).norm() > 1.0,
            "expected the naive decoder to be fooled, got {}",
            decided.value
        );
    }

    #[test]
    fn naive_decide_symbol_maps_each_subcarrier() {
        let m = Modulation::Qam16;
        let dec = NaiveCentroidDecoder::new(m);
        let points = m.points();
        // Three identical segments over an 8-bin toy FFT, one constellation point per
        // bin.
        let row: Vec<Complex> = points.iter().take(8).copied().collect();
        let segments = SymbolSegments::from_rows(vec![row.clone(), row.clone(), row]);
        let bins: Vec<usize> = (0..8).collect();
        let decided = dec.decide_symbol(&segments, &bins, &mut scratch());
        assert_eq!(decided.len(), 8);
        for (d, p) in decided.iter().zip(points.iter().take(8)) {
            assert!((*d - *p).norm() < 1e-12);
        }
    }

    #[test]
    fn standard_decoder_uses_only_the_last_segment() {
        let m = Modulation::Bpsk;
        let dec = StandardNearestDecoder::new(m);
        assert_eq!(dec.modulation(), m);
        // Early segments point at −1, the standard window at +1: the standard decision
        // must follow the last segment alone.
        let obs = vec![
            Complex::new(-1.0, 0.0),
            Complex::new(-1.0, 0.0),
            Complex::new(0.9, 0.1),
        ];
        let decided = dec.decide(0, &obs, &mut scratch());
        assert!((decided.value - Complex::new(1.0, 0.0)).norm() < 1e-12);
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
        let dec = OracleSegmentDecoder::new(m, &powers);
        assert_eq!(dec.modulation(), m);
        assert_eq!(dec.best_segment(0), 0);
        assert_eq!(dec.best_segment(3), 1);
        let decided = dec.decide_symbol(&segments, &[0, 1, 2, 3], &mut scratch());
        for (d, c) in decided.iter().zip(&clean) {
            assert!((*d - *c).norm() < 1e-12);
        }
    }

    #[test]
    fn oracle_decoder_clamps_the_selection_to_available_segments() {
        // A power table with more segments than the observation set (e.g. a truncated
        // extraction) must not index out of bounds: the selection clamps to the last
        // available segment.
        let m = Modulation::Bpsk;
        let segments = SymbolSegments::from_rows(vec![vec![Complex::new(1.0, 0.0)]]);
        let powers = SegmentPowers::from_rows(vec![vec![5.0], vec![0.1]]);
        let dec = OracleSegmentDecoder::new(m, &powers);
        assert_eq!(dec.best_segment(0), 1);
        let decided = dec.decide(0, segments.bin_observations(0), &mut scratch());
        assert!((decided.value - Complex::new(1.0, 0.0)).norm() < 1e-12);
    }

    #[test]
    fn decide_symbol_into_reuses_the_output_buffer() {
        let m = Modulation::Qpsk;
        let dec = NaiveCentroidDecoder::new(m);
        let row: Vec<Complex> = m.points().into_iter().cycle().take(8).collect();
        let segments = SymbolSegments::from_rows(vec![row.clone(), row]);
        let bins: Vec<usize> = (0..8).collect();
        let mut s = scratch();
        let mut out = Vec::new();
        dec.decide_symbol_into(&segments, &bins, &mut s, &mut out);
        assert_eq!(out.len(), 8);
        let capacity = out.capacity();
        let first = out.clone();
        dec.decide_symbol_into(&segments, &bins, &mut s, &mut out);
        assert_eq!(out, first);
        assert_eq!(
            out.capacity(),
            capacity,
            "output buffer must not reallocate"
        );
    }
}
