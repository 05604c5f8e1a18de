//! The IEEE 802.11a/g block interleaver.
//!
//! Coded bits within one OFDM symbol are permuted twice: the first permutation ensures
//! adjacent coded bits are mapped onto non-adjacent subcarriers; the second ensures
//! adjacent coded bits alternate between more and less significant constellation bits.
//! Interleaving is what converts a burst of subcarrier-localised interference (the ACI
//! case) into scattered bit errors the Viterbi decoder can correct — so it matters for
//! reproducing the shape of the paper's packet-success-rate curves.

use crate::{PhyError, Result};

/// The per-symbol interleaver for a given number of coded bits per OFDM symbol
/// (`n_cbps`) and coded bits per subcarrier (`n_bpsc`).
#[derive(Debug, Clone)]
pub struct Interleaver {
    n_cbps: usize,
    /// `permutation[k]` gives the post-interleaving index of input bit `k`.
    permutation: Vec<usize>,
    /// Inverse permutation for deinterleaving.
    inverse: Vec<usize>,
}

impl Interleaver {
    /// Creates the interleaver for `n_cbps` coded bits per symbol and `n_bpsc` coded
    /// bits per subcarrier (1, 2, 4, 6 or 8).
    pub fn new(n_cbps: usize, n_bpsc: usize) -> Result<Self> {
        if n_bpsc == 0 || n_cbps == 0 || !n_cbps.is_multiple_of(n_bpsc) {
            return Err(PhyError::invalid(
                "n_cbps",
                "must be a positive multiple of n_bpsc",
            ));
        }
        if !n_cbps.is_multiple_of(16) {
            return Err(PhyError::invalid(
                "n_cbps",
                "802.11 interleaver requires a multiple of 16 coded bits per symbol",
            ));
        }
        let s = (n_bpsc / 2).max(1);
        let mut permutation = vec![0usize; n_cbps];
        for (k, slot) in permutation.iter_mut().enumerate() {
            // First permutation.
            let i = (n_cbps / 16) * (k % 16) + k / 16;
            // Second permutation.
            let j = s * (i / s) + (i + n_cbps - (16 * i) / n_cbps) % s;
            *slot = j;
        }
        let mut inverse = vec![0usize; n_cbps];
        for (k, &j) in permutation.iter().enumerate() {
            inverse[j] = k;
        }
        Ok(Interleaver {
            n_cbps,
            permutation,
            inverse,
        })
    }

    /// Interleaves one symbol's worth of coded bits.
    pub fn interleave(&self, bits: &[u8]) -> Result<Vec<u8>> {
        self.permute(bits, &self.permutation)
    }

    /// Deinterleaves one symbol's worth of coded bits.
    pub fn deinterleave(&self, bits: &[u8]) -> Result<Vec<u8>> {
        self.permute(bits, &self.inverse)
    }

    /// Interleaves a multi-symbol stream (length must be a multiple of the block size).
    pub fn interleave_stream(&self, bits: &[u8]) -> Result<Vec<u8>> {
        if !bits.len().is_multiple_of(self.n_cbps) {
            return Err(PhyError::invalid(
                "bits",
                format!(
                    "stream length {} is not a multiple of the block size {}",
                    bits.len(),
                    self.n_cbps
                ),
            ));
        }
        let mut out = Vec::with_capacity(bits.len());
        for chunk in bits.chunks(self.n_cbps) {
            out.extend(self.interleave(chunk)?);
        }
        Ok(out)
    }

    fn permute(&self, bits: &[u8], map: &[usize]) -> Result<Vec<u8>> {
        if bits.len() != self.n_cbps {
            return Err(PhyError::LengthMismatch {
                expected: self.n_cbps,
                actual: bits.len(),
            });
        }
        let mut out = vec![0u8; self.n_cbps];
        for (k, &b) in bits.iter().enumerate() {
            out[map[k]] = b;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn construction_validation() {
        assert!(Interleaver::new(0, 1).is_err());
        assert!(Interleaver::new(48, 0).is_err());
        assert!(Interleaver::new(50, 2).is_err());
        assert!(Interleaver::new(49, 7).is_err());
        assert!(Interleaver::new(48, 1).is_ok());
        assert!(Interleaver::new(96, 2).is_ok());
        assert!(Interleaver::new(192, 4).is_ok());
        assert!(Interleaver::new(288, 6).is_ok());
    }

    #[test]
    fn permutation_is_a_bijection() {
        for (n_cbps, n_bpsc) in [(48, 1), (96, 2), (192, 4), (288, 6)] {
            let il = Interleaver::new(n_cbps, n_bpsc).unwrap();
            let mut seen = vec![false; n_cbps];
            for k in 0..n_cbps {
                let j = il.permutation[k];
                assert!(!seen[j], "duplicate target {j}");
                seen[j] = true;
            }
            assert!(seen.iter().all(|s| *s));
        }
    }

    #[test]
    fn interleave_deinterleave_roundtrip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for (n_cbps, n_bpsc) in [(48, 1), (96, 2), (192, 4), (288, 6)] {
            let il = Interleaver::new(n_cbps, n_bpsc).unwrap();
            let bits: Vec<u8> = (0..n_cbps).map(|_| rng.gen_range(0..2)).collect();
            let restored = il.deinterleave(&il.interleave(&bits).unwrap()).unwrap();
            assert_eq!(restored, bits);
        }
    }

    #[test]
    fn stream_roundtrip_multiple_symbols() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let il = Interleaver::new(192, 4).unwrap();
        let bits: Vec<u8> = (0..192 * 5).map(|_| rng.gen_range(0..2)).collect();
        let interleaved = il.interleave_stream(&bits).unwrap();
        let restored: Vec<u8> = interleaved
            .chunks(192)
            .flat_map(|block| il.deinterleave(block).unwrap())
            .collect();
        assert_eq!(restored, bits);
        assert!(il.interleave_stream(&bits[..100]).is_err());
    }

    #[test]
    fn wrong_block_length_is_rejected() {
        let il = Interleaver::new(48, 1).unwrap();
        assert!(il.interleave(&[0u8; 47]).is_err());
        assert!(il.deinterleave(&[0u8; 49]).is_err());
    }

    #[test]
    fn interleaving_actually_permutes() {
        let il = Interleaver::new(96, 2).unwrap();
        let mut bits = vec![0u8; 96];
        bits[0] = 1;
        bits[1] = 1;
        let interleaved = il.interleave(&bits).unwrap();
        assert_ne!(interleaved, bits);
        assert_eq!(interleaved.iter().filter(|b| **b == 1).count(), 2);
    }

    #[test]
    fn adjacent_coded_bits_are_spread_across_subcarriers() {
        // Adjacent input bits must land on different subcarriers — the property that
        // protects against subcarrier-localised interference.
        let n_bpsc = 4;
        let il = Interleaver::new(192, n_bpsc).unwrap();
        for k in 0..191 {
            let sc_a = il.permutation[k] / n_bpsc;
            let sc_b = il.permutation[k + 1] / n_bpsc;
            assert_ne!(
                sc_a,
                sc_b,
                "adjacent coded bits {k},{} on same subcarrier",
                k + 1
            );
        }
    }

    #[test]
    fn known_vector_bpsk_first_permutation() {
        // For BPSK (s = 1) the interleaver reduces to the first permutation:
        // i = (Ncbps/16)(k mod 16) + floor(k/16). For Ncbps = 48: k=0→0, k=1→3, k=2→6,
        // k=16→1, k=17→4.
        let il = Interleaver::new(48, 1).unwrap();
        assert_eq!(il.permutation[0], 0);
        assert_eq!(il.permutation[1], 3);
        assert_eq!(il.permutation[2], 6);
        assert_eq!(il.permutation[16], 1);
        assert_eq!(il.permutation[17], 4);
        assert_eq!(il.permutation[47], 47);
    }
}
