//! The IEEE 802.11 convolutional encoder and puncturing patterns.
//!
//! The mother code is the industry-standard rate-1/2, constraint-length-7 code with
//! generator polynomials `g0 = 133₈` and `g1 = 171₈`. Rates 2/3 and 3/4 are obtained by
//! puncturing. Decoding lives in [`crate::viterbi`].

use crate::{PhyError, Result};

/// Generator polynomial `g0 = 133₈` (binary 1011011).
pub const G0: u8 = 0o133;
/// Generator polynomial `g1 = 171₈` (binary 1111001).
pub const G1: u8 = 0o171;
/// Number of trellis states (2^(K−1)).
pub const NUM_STATES: usize = 64;

/// Coding rates defined by 802.11a/g.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodeRate {
    /// The unpunctured rate-1/2 mother code.
    Half,
    /// Rate 2/3 (puncture pattern period 4 coded bits, 1 punctured).
    TwoThirds,
    /// Rate 3/4 (puncture pattern period 6 coded bits, 2 punctured).
    ThreeQuarters,
}

impl CodeRate {
    /// The rate as a fraction `(numerator, denominator)` of information bits per coded
    /// bit.
    pub fn as_fraction(self) -> (usize, usize) {
        match self {
            CodeRate::Half => (1, 2),
            CodeRate::TwoThirds => (2, 3),
            CodeRate::ThreeQuarters => (3, 4),
        }
    }

    /// Human-readable name ("1/2", "2/3", "3/4").
    pub fn name(self) -> &'static str {
        match self {
            CodeRate::Half => "1/2",
            CodeRate::TwoThirds => "2/3",
            CodeRate::ThreeQuarters => "3/4",
        }
    }

    /// The puncturing pattern applied to the rate-1/2 coded stream: `true` = transmit,
    /// `false` = puncture. The pattern is indexed over consecutive coded bits
    /// (A0 B0 A1 B1 …) and repeats.
    pub fn puncture_pattern(self) -> &'static [bool] {
        match self {
            CodeRate::Half => &[true, true],
            // 802.11: rate 2/3 keeps A0 B0 A1 and drops B1.
            CodeRate::TwoThirds => &[true, true, true, false],
            // 802.11: rate 3/4 keeps A0 B0 A1 B2 and drops B1 A2.
            CodeRate::ThreeQuarters => &[true, true, true, false, false, true],
        }
    }
}

/// Encodes `data` with the rate-1/2 mother code (no tail bits are appended — callers
/// append the 802.11 six zero tail bits themselves so the trellis terminates).
pub fn encode_rate_half(data: &[u8]) -> Result<Vec<u8>> {
    if data.iter().any(|b| *b > 1) {
        return Err(PhyError::invalid("data", "bit values must be 0 or 1"));
    }
    let mut state: u8 = 0; // shift register of the 6 most recent bits
    let mut out = Vec::with_capacity(data.len() * 2);
    for &bit in data {
        let reg = ((bit << 6) | state) as u32;
        out.push(parity(reg & G0 as u32));
        out.push(parity(reg & G1 as u32));
        state = ((reg >> 1) & 0x3F) as u8;
    }
    Ok(out)
}

/// Encodes and punctures to the requested rate.
pub fn encode(data: &[u8], rate: CodeRate) -> Result<Vec<u8>> {
    let coded = encode_rate_half(data)?;
    Ok(puncture(&coded, rate))
}

/// Applies the puncturing pattern to a rate-1/2 coded stream.
pub fn puncture(coded: &[u8], rate: CodeRate) -> Vec<u8> {
    let pattern = rate.puncture_pattern();
    coded
        .iter()
        .enumerate()
        .filter(|(i, _)| pattern[i % pattern.len()])
        .map(|(_, b)| *b)
        .collect()
}

/// Re-inserts erasures (represented as `None`) where bits were punctured, recovering a
/// stream aligned with the rate-1/2 trellis, into a caller-owned buffer (cleared
/// first) so the Viterbi hot path can thread its reusable scratch through. The output
/// length is the original coded length implied by `punctured.len()` and the pattern.
pub fn depuncture_into(punctured: &[u8], rate: CodeRate, out: &mut Vec<Option<u8>>) {
    let pattern = rate.puncture_pattern();
    out.clear();
    out.reserve(punctured.len() * 2);
    let mut it = punctured.iter();
    'outer: loop {
        for &keep in pattern {
            if keep {
                match it.next() {
                    Some(&b) => out.push(Some(b)),
                    None => break 'outer,
                }
            } else {
                out.push(None);
            }
        }
    }
    // Trim trailing erasures that were emitted past the last real coded bit (they would
    // add a phantom trellis step and hence a phantom decoded bit), but keep enough of
    // them that the stream ends on a whole (A, B) pair — the Viterbi decoder needs the
    // full final pair, otherwise the last information bit would be dropped.
    if let Some(last_real) = out.iter().rposition(|s| s.is_some()) {
        out.truncate(last_real + 1);
    }
    if out.len() % 2 == 1 {
        out.push(None);
    }
}

#[inline]
fn parity(x: u32) -> u8 {
    (x.count_ones() & 1) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_fractions() {
        assert_eq!(CodeRate::Half.as_fraction(), (1, 2));
        assert_eq!(CodeRate::TwoThirds.as_fraction(), (2, 3));
        assert_eq!(CodeRate::ThreeQuarters.as_fraction(), (3, 4));
        assert_eq!(CodeRate::Half.name(), "1/2");
    }

    #[test]
    fn encoder_doubles_length() {
        let data = vec![1, 0, 1, 1, 0, 0, 1, 0];
        let coded = encode_rate_half(&data).unwrap();
        assert_eq!(coded.len(), 16);
    }

    #[test]
    fn encoder_rejects_non_bits() {
        assert!(encode_rate_half(&[0, 1, 2]).is_err());
        assert!(encode(&[3], CodeRate::Half).is_err());
    }

    #[test]
    fn encoder_impulse_response_matches_generators() {
        // A single 1 followed by zeros produces the generator polynomial taps read from
        // the current-input tap downwards: g0 = 133₈ = 1011011₂, g1 = 171₈ = 1111001₂.
        let mut data = vec![0u8; 7];
        data[0] = 1;
        let coded = encode_rate_half(&data).unwrap();
        let g0_bits: Vec<u8> = (0..7).map(|i| coded[2 * i]).collect();
        let g1_bits: Vec<u8> = (0..7).map(|i| coded[2 * i + 1]).collect();
        let expect = |g: u8| -> Vec<u8> { (0..7).map(|i| (g >> (6 - i)) & 1).collect() };
        assert_eq!(g0_bits, expect(G0));
        assert_eq!(g1_bits, expect(G1));
    }

    #[test]
    fn encoder_is_linear() {
        // The code is linear over GF(2): encode(a XOR b) = encode(a) XOR encode(b).
        let a: Vec<u8> = (0..32).map(|i| (i % 3 == 0) as u8).collect();
        let b: Vec<u8> = (0..32).map(|i| (i % 5 == 0) as u8).collect();
        let axb: Vec<u8> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
        let ca = encode_rate_half(&a).unwrap();
        let cb = encode_rate_half(&b).unwrap();
        let cab = encode_rate_half(&axb).unwrap();
        let cxor: Vec<u8> = ca.iter().zip(&cb).map(|(x, y)| x ^ y).collect();
        assert_eq!(cab, cxor);
    }

    #[test]
    fn puncture_lengths_match_rates() {
        let data = vec![1u8; 36];
        let half = encode(&data, CodeRate::Half).unwrap();
        let two_thirds = encode(&data, CodeRate::TwoThirds).unwrap();
        let three_quarters = encode(&data, CodeRate::ThreeQuarters).unwrap();
        assert_eq!(half.len(), 72);
        assert_eq!(two_thirds.len(), 54);
        assert_eq!(three_quarters.len(), 48);
    }

    #[test]
    fn depuncture_restores_alignment() {
        let data: Vec<u8> = (0..24).map(|i| (i % 7 == 0) as u8).collect();
        for rate in [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters] {
            let coded = encode_rate_half(&data).unwrap();
            let punctured = puncture(&coded, rate);
            let mut restored = Vec::new();
            depuncture_into(&punctured, rate, &mut restored);
            // Every surviving position must match the original coded bit.
            let mut count = 0;
            for (i, slot) in restored.iter().enumerate() {
                if let Some(b) = slot {
                    assert_eq!(*b, coded[i], "rate {rate:?} position {i}");
                    count += 1;
                }
            }
            assert_eq!(count, punctured.len());
        }
    }

    #[test]
    fn depuncture_of_half_rate_has_no_erasures() {
        let punctured = vec![1u8, 0, 1, 1];
        let mut restored = vec![None; 9];
        depuncture_into(&punctured, CodeRate::Half, &mut restored);
        assert_eq!(restored.len(), 4);
        assert!(restored.iter().all(|s| s.is_some()));
    }
}
