//! Oracle segment selection (paper §3.2).
//!
//! The Oracle assumes perfect knowledge of the interference: for every subcarrier it
//! inspects the interference-only waveform (obtainable in the paper's testbed by muting
//! the sender, and in this reproduction directly from the scenario mixer), picks the FFT
//! segment with the minimum interference power, and decodes that segment's observation
//! with a plain nearest-lattice-point decision. Both the decision rule
//! ([`DecisionStage::Oracle`], run by [`crate::decision::decide_symbol`]) and the
//! selection *diagnostics* here — the per-bin best-segment/power summary behind
//! Fig. 4a — pick the segment with [`least_interfered`].
//!
//! [`DecisionStage::Oracle`]: crate::config::DecisionStage::Oracle

use crate::segments::SegmentPowers;

/// Per-subcarrier best-segment choice made by the Oracle.
#[derive(Debug, Clone)]
pub struct OracleSelection {
    /// For every FFT bin, the segment index with minimum interference power.
    pub best_segment: Vec<usize>,
    /// The corresponding minimum interference power per bin (linear).
    pub min_interference: Vec<f64>,
    /// The interference power per bin that the standard receiver (last segment) sees,
    /// for the Fig. 4a comparison.
    pub standard_interference: Vec<f64>,
}

/// Summarises, per FFT bin, the segment with the lowest interference power.
///
/// `powers` is produced by [`crate::segments::interference_power_per_segment`] on the
/// interference-only waveform; its bin-major layout makes each bin's scan a contiguous
/// slice. Ties go to the first minimum, as in [`least_interfered`].
pub fn select_best_segments(powers: &SegmentPowers) -> OracleSelection {
    let bins = 0..powers.fft_size();
    let (best_segment, min_interference) = bins
        .clone()
        .map(|bin| least_interfered(powers.bin_powers(bin)))
        .unzip();
    let standard_interference = bins
        .map(|bin| powers.value(powers.num_segments() - 1, bin))
        .collect();
    OracleSelection {
        best_segment,
        min_interference,
        standard_interference,
    }
}

/// The least-interfered segment of one bin and its power, given the bin's
/// per-segment interference `powers` in segment order. The first minimum wins on
/// ties, and a bin whose powers are all NaN or `+∞` answers segment 0 at `+∞`.
pub fn least_interfered(powers: &[f64]) -> (usize, f64) {
    let mut best = (0, f64::INFINITY);
    for (j, &p) in powers.iter().enumerate() {
        if p < best.1 {
            best = (j, p);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_the_minimum_interference_segment_per_bin() {
        // 3 segments × 5 bins with a known minimum pattern. Bin 4 is an equal-power
        // tie between segments 0 and 2: the first minimum wins, not the standard
        // window's.
        let powers = SegmentPowers::from_rows(vec![
            vec![1.0, 5.0, 0.1, 2.0, 0.3],
            vec![0.5, 0.2, 3.0, 2.0, 0.9],
            vec![2.0, 1.0, 1.0, 0.4, 0.3],
        ]);
        let sel = select_best_segments(&powers);
        assert_eq!(sel.best_segment, vec![1, 1, 0, 2, 0]);
        assert_eq!(sel.min_interference, vec![0.5, 0.2, 0.1, 0.4, 0.3]);
        assert_eq!(sel.standard_interference, vec![2.0, 1.0, 1.0, 0.4, 0.3]);
    }
}
