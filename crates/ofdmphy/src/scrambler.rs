//! The IEEE 802.11 self-synchronising scrambler.
//!
//! Data bits are XOR-ed with the output of the length-127 PRBS generated by
//! `x⁷ + x⁴ + 1`. Scrambling before coding whitens the payload so the transmitted
//! spectrum does not depend on payload content; the descrambler is the same operation
//! with the same initial state.

/// The 802.11 scrambler / descrambler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scrambler {
    state: u8, // 7-bit LFSR state, never zero
}

impl Scrambler {
    /// Creates a scrambler with the given 7-bit initial state (1..=127). The 802.11
    /// standard chooses a pseudo-random nonzero initial state per frame; the SERVICE
    /// field's first 7 zero bits let the receiver recover it.
    pub fn new(initial_state: u8) -> Self {
        let state = if initial_state & 0x7F == 0 {
            0x7F
        } else {
            initial_state & 0x7F
        };
        Scrambler { state }
    }

    /// The canonical all-ones initial state used widely in reference implementations.
    pub fn default_state() -> Self {
        Scrambler::new(0x7F)
    }

    /// Produces the next PRBS bit and advances the LFSR.
    pub fn next_bit(&mut self) -> u8 {
        let b = ((self.state >> 6) ^ (self.state >> 3)) & 1;
        self.state = ((self.state << 1) | b) & 0x7F;
        b
    }

    /// Scrambles (or descrambles — the operation is an involution given the same
    /// starting state) a bit slice in place.
    pub fn scramble_in_place(&mut self, bits: &mut [u8]) {
        for bit in bits.iter_mut() {
            *bit ^= self.next_bit();
        }
    }

    /// Recovers the transmitter's initial scrambler state from the first 7 descrambled
    /// SERVICE bits, which the standard defines to be zero before scrambling: the
    /// received scrambled bits therefore *are* the PRBS output, from which the state can
    /// be run backwards. Returns the state to use for descrambling the whole frame.
    pub fn state_from_service_bits(scrambled_service: &[u8]) -> Option<Scrambler> {
        if scrambled_service.len() < 7 {
            return None;
        }
        // Brute-force over the 127 possible states; the frame is long enough that this
        // tiny search is irrelevant to performance and it keeps the logic obviously
        // correct.
        (1u8..=0x7F).find_map(|candidate| {
            let mut s = Scrambler::new(candidate);
            let matches = (0..7).all(|i| s.next_bit() == scrambled_service[i]);
            if matches {
                Some(Scrambler::new(candidate))
            } else {
                None
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scramble_descramble_roundtrip() {
        let bits: Vec<u8> = (0..1000).map(|i| ((i * 7) % 3 == 0) as u8).collect();
        let mut tx = Scrambler::new(0x5D);
        let mut scrambled = bits.clone();
        tx.scramble_in_place(&mut scrambled);
        assert_ne!(scrambled, bits);
        let mut rx = Scrambler::new(0x5D);
        rx.scramble_in_place(&mut scrambled);
        assert_eq!(scrambled, bits);
    }

    #[test]
    fn prbs_has_period_127() {
        let mut s = Scrambler::new(0x7F);
        let seq: Vec<u8> = (0..254).map(|_| s.next_bit()).collect();
        assert_eq!(&seq[..127], &seq[127..]);
        // Within one period the sequence is balanced: 64 ones, 63 zeros.
        let ones: usize = seq[..127].iter().map(|b| *b as usize).sum();
        assert_eq!(ones, 64);
    }

    #[test]
    fn reference_prbs_prefix_for_all_ones_seed() {
        // First 16 output bits for the all-ones seed, a widely published reference
        // (e.g. IEEE 802.11 Annex G): 0000 1110 1111 0010.
        let mut s = Scrambler::default_state();
        let seq: Vec<u8> = (0..16).map(|_| s.next_bit()).collect();
        assert_eq!(seq, vec![0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 1, 0, 0, 1, 0]);
    }

    #[test]
    fn zero_state_is_coerced_to_nonzero() {
        let mut s = Scrambler::new(0);
        // Must not get stuck emitting zeros forever.
        let any_one = (0..127).any(|_| s.next_bit() == 1);
        assert!(any_one);
    }

    #[test]
    fn state_recovery_from_service_bits() {
        for seed in [0x01u8, 0x2A, 0x55, 0x7F] {
            let mut tx = Scrambler::new(seed);
            // SERVICE field: first 7 bits are zero before scrambling.
            let mut service = vec![0u8; 16];
            tx.scramble_in_place(&mut service);
            let rx = Scrambler::state_from_service_bits(&service).expect("state found");
            assert_eq!(rx, Scrambler::new(seed));
        }
        assert!(Scrambler::state_from_service_bits(&[0, 1]).is_none());
    }

    #[test]
    fn different_seeds_give_different_sequences() {
        let mut a = Scrambler::new(0x11);
        let mut b = Scrambler::new(0x12);
        let sa: Vec<u8> = (0..64).map(|_| a.next_bit()).collect();
        let sb: Vec<u8> = (0..64).map(|_| b.next_bit()).collect();
        assert_ne!(sa, sb);
    }
}
