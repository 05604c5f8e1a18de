//! Property-based tests of the 802.11a/g PHY building blocks.

use ofdmphy::convcode::{encode, CodeRate};
use ofdmphy::crc::{append_fcs, check_fcs};
use ofdmphy::interleaver::Interleaver;
use ofdmphy::modulation::Modulation;
use ofdmphy::scrambler::Scrambler;
use ofdmphy::viterbi::ViterbiDecoder;
use proptest::prelude::*;

fn bits(len: impl Into<proptest::collection::SizeRange>) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..2, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Scrambling is an involution: applying it twice with the same seed is identity.
    #[test]
    fn scrambler_involution(data in bits(1..512), seed in 1u8..=127) {
        let mut a = Scrambler::new(seed);
        let mut b = Scrambler::new(seed);
        let mut twice = data.clone();
        a.scramble_in_place(&mut twice);
        b.scramble_in_place(&mut twice);
        prop_assert_eq!(twice, data);
    }

    /// Encode → Viterbi-decode recovers the message at every 802.11 code rate.
    #[test]
    fn conv_code_roundtrip(mut data in bits(8..300), rate_idx in 0usize..3) {
        let rate = [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters][rate_idx];
        data.extend_from_slice(&[0; 6]); // tail to terminate the trellis
        let coded = encode(&data, rate).unwrap();
        let decoder = ViterbiDecoder::new();
        let decoded = decoder.decode(&coded, rate).unwrap();
        prop_assert_eq!(decoded, data);
    }

    /// The interleaver is a bijection: deinterleave(interleave(x)) == x.
    #[test]
    fn interleaver_bijection(seed_bits in bits(288..=288), n_bpsc_idx in 0usize..4) {
        let n_bpsc = [1usize, 2, 4, 6][n_bpsc_idx];
        let n_cbps = 48 * n_bpsc;
        let il = Interleaver::new(n_cbps, n_bpsc).unwrap();
        let block = &seed_bits[..n_cbps];
        let restored = il.deinterleave(&il.interleave(block).unwrap()).unwrap();
        prop_assert_eq!(restored, block.to_vec());
    }

    /// Constellation mapping followed by hard demapping recovers the bits for every
    /// modulation order.
    #[test]
    fn map_demap_roundtrip(data in bits(24..240), m_idx in 0usize..5) {
        let m = [Modulation::Bpsk, Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64, Modulation::Qam256][m_idx];
        let n = m.bits_per_symbol();
        let usable = &data[..(data.len() / n) * n];
        prop_assume!(!usable.is_empty());
        let symbols = m.map_bits(usable).unwrap();
        prop_assert_eq!(m.demap_hard_all(&symbols), usable.to_vec());
    }

    /// The FCS accepts the original frame and rejects any single corrupted byte.
    #[test]
    fn crc_detects_single_byte_corruption(payload in prop::collection::vec(any::<u8>(), 1..256),
                                          idx in any::<prop::sample::Index>(),
                                          flip in 1u8..=255) {
        let frame = append_fcs(&payload);
        prop_assert!(check_fcs(&frame).is_some());
        let mut corrupted = frame.clone();
        let pos = idx.index(corrupted.len());
        corrupted[pos] ^= flip;
        prop_assert!(check_fcs(&corrupted).is_none());
    }
}
