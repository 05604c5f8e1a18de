//! Modulation-and-coding schemes and full PPDU (frame) assembly.
//!
//! This is the 802.11a/g transmitter: SERVICE + PSDU + tail + pad bits are scrambled,
//! convolutionally encoded, punctured, interleaved, constellation-mapped, combined with
//! pilots and OFDM-modulated; a BPSK-1/2 SIGNAL symbol and the STF/LTF preamble are
//! prepended. The returned [`TxFrame`] also keeps the transmitted frequency-domain
//! ground truth per data symbol, which the Oracle receiver and the interference-power
//! figures (paper Fig. 4a/4b) need.

use crate::convcode::{self, CodeRate};
use crate::crc;
use crate::interleaver::Interleaver;
use crate::modulation::Modulation;
use crate::ofdm::OfdmEngine;
use crate::params::OfdmParams;
use crate::preamble;
use crate::scrambler::Scrambler;
use crate::{PhyError, Result};
use rfdsp::Complex;

/// A modulation-and-coding scheme of the 802.11a/g rate set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mcs {
    /// Subcarrier modulation.
    pub modulation: Modulation,
    /// Convolutional code rate.
    pub code_rate: CodeRate,
}

impl Mcs {
    /// The eight mandatory/optional 802.11a/g rates, ordered by data rate.
    pub fn all_80211ag() -> Vec<Mcs> {
        vec![
            Mcs::new(Modulation::Bpsk, CodeRate::Half),
            Mcs::new(Modulation::Bpsk, CodeRate::ThreeQuarters),
            Mcs::new(Modulation::Qpsk, CodeRate::Half),
            Mcs::new(Modulation::Qpsk, CodeRate::ThreeQuarters),
            Mcs::new(Modulation::Qam16, CodeRate::Half),
            Mcs::new(Modulation::Qam16, CodeRate::ThreeQuarters),
            Mcs::new(Modulation::Qam64, CodeRate::TwoThirds),
            Mcs::new(Modulation::Qam64, CodeRate::ThreeQuarters),
        ]
    }

    /// Creates an MCS.
    pub const fn new(modulation: Modulation, code_rate: CodeRate) -> Self {
        Mcs {
            modulation,
            code_rate,
        }
    }

    /// The three MCS modes evaluated in the paper: QPSK 1/2 (12 Mbps), 16-QAM 1/2
    /// (24 Mbps) and 64-QAM 2/3 (36 Mbps).
    pub fn paper_set() -> Vec<Mcs> {
        vec![
            Mcs::new(Modulation::Qpsk, CodeRate::Half),
            Mcs::new(Modulation::Qam16, CodeRate::Half),
            Mcs::new(Modulation::Qam64, CodeRate::TwoThirds),
        ]
    }

    /// Coded bits per subcarrier.
    pub fn n_bpsc(&self) -> usize {
        self.modulation.bits_per_symbol()
    }

    /// Coded bits per OFDM symbol (48 data subcarriers in 802.11a/g).
    pub fn n_cbps(&self, params: &OfdmParams) -> usize {
        params.num_data_subcarriers() * self.n_bpsc()
    }

    /// Data (information) bits per OFDM symbol.
    pub fn n_dbps(&self, params: &OfdmParams) -> usize {
        let (num, den) = self.code_rate.as_fraction();
        self.n_cbps(params) * num / den
    }

    /// The 4-bit RATE field of the SIGNAL symbol for this MCS (802.11a Table 17-6).
    pub fn rate_bits(&self) -> [u8; 4] {
        match (self.modulation, self.code_rate) {
            (Modulation::Bpsk, CodeRate::Half) => [1, 1, 0, 1],
            (Modulation::Bpsk, CodeRate::ThreeQuarters) => [1, 1, 1, 1],
            (Modulation::Qpsk, CodeRate::Half) => [0, 1, 0, 1],
            (Modulation::Qpsk, CodeRate::ThreeQuarters) => [0, 1, 1, 1],
            (Modulation::Qam16, CodeRate::Half) => [1, 0, 0, 1],
            (Modulation::Qam16, CodeRate::ThreeQuarters) => [1, 0, 1, 1],
            (Modulation::Qam64, CodeRate::TwoThirds) => [0, 0, 0, 1],
            (Modulation::Qam64, CodeRate::ThreeQuarters) => [0, 0, 1, 1],
            _ => [0, 0, 0, 0],
        }
    }

    /// Parses the 4-bit RATE field back into an MCS.
    pub fn from_rate_bits(bits: &[u8]) -> Option<Mcs> {
        Mcs::all_80211ag()
            .into_iter()
            .find(|m| m.rate_bits() == [bits[0], bits[1], bits[2], bits[3]])
    }

    /// Short human-readable label, e.g. "16-QAM 1/2".
    pub fn label(&self) -> String {
        format!("{} {}", self.modulation.name(), self.code_rate.name())
    }
}

/// Number of SERVICE bits prepended to the PSDU (all zero before scrambling).
pub const SERVICE_BITS: usize = 16;
/// Number of tail bits appended to terminate the convolutional code.
pub const TAIL_BITS: usize = 6;

/// The pilot polarity sequence `p_0 … p_{126}` of 802.11a/g, generated by the scrambler
/// PRBS with the all-ones seed (0 → +1, 1 → −1).
pub fn pilot_polarity_sequence() -> Vec<f64> {
    let mut s = Scrambler::default_state();
    (0..127)
        .map(|_| if s.next_bit() == 0 { 1.0 } else { -1.0 })
        .collect()
}

/// The four pilot values (bins +7, +21, −21, −7 in increasing-bin order: 7, 21, 43, 57)
/// for polarity `p`: the base pattern is (1, 1, −1, 1) on subcarriers (7, 21, −21, −7).
pub fn pilot_values(polarity: f64) -> Vec<Complex> {
    // In increasing FFT-bin order the pilots are bins 7 (+7), 21 (+21), 43 (−21), 57 (−7)
    // with base amplitudes +1, +1, −1, +1.
    vec![
        Complex::new(polarity, 0.0),
        Complex::new(polarity, 0.0),
        Complex::new(-polarity, 0.0),
        Complex::new(polarity, 0.0),
    ]
}

/// A fully assembled PPDU ready for the channel, plus the ground truth needed by
/// oracle-style analyses.
#[derive(Debug, Clone)]
pub struct TxFrame {
    /// Baseband samples of the whole PPDU (preamble, SIGNAL, DATA symbols).
    pub samples: Vec<Complex>,
    /// The PSDU (payload + FCS) carried by the frame.
    pub psdu: Vec<u8>,
    /// MCS used for the DATA symbols.
    pub mcs: Mcs,
    /// Scrambler seed used by the transmitter.
    pub scrambler_seed: u8,
    /// Number of DATA OFDM symbols.
    pub num_data_symbols: usize,
    /// Sample offset of the SIGNAL symbol within `samples`.
    pub signal_start: usize,
    /// Sample offset of the first DATA symbol within `samples`.
    pub data_start: usize,
    /// Transmitted frequency-domain values on the 48 data subcarriers, per DATA symbol
    /// (ground truth for oracle analyses).
    pub data_subcarrier_values: Vec<Vec<Complex>>,
}

impl TxFrame {
    /// Total frame duration in samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the frame contains no samples (never the case for a built frame).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

/// The 802.11a/g OFDM transmitter.
#[derive(Debug, Clone)]
pub struct Transmitter {
    engine: OfdmEngine,
}

impl Transmitter {
    /// Creates a transmitter for the given numerology (normally
    /// [`OfdmParams::ieee80211ag`]).
    pub fn new(params: OfdmParams) -> Self {
        Transmitter {
            engine: OfdmEngine::new(params),
        }
    }

    /// The numerology in use.
    pub fn params(&self) -> &OfdmParams {
        self.engine.params()
    }

    /// Access to the underlying OFDM engine (shared with receivers in tests).
    pub fn engine(&self) -> &OfdmEngine {
        &self.engine
    }

    /// Builds a complete PPDU carrying `payload` (an FCS is appended automatically) at
    /// the given MCS, using `scrambler_seed` as the transmitter's initial scrambler
    /// state (1..=127).
    pub fn build_frame(&self, payload: &[u8], mcs: Mcs, scrambler_seed: u8) -> Result<TxFrame> {
        let params = self.engine.params();
        let psdu = crc::append_fcs(payload);
        if psdu.len() > 4095 {
            return Err(PhyError::invalid(
                "payload",
                "PSDU longer than 4095 bytes cannot be signalled",
            ));
        }
        let n_dbps = mcs.n_dbps(params);
        let n_cbps = mcs.n_cbps(params);
        let payload_bits = SERVICE_BITS + 8 * psdu.len() + TAIL_BITS;
        let num_data_symbols = payload_bits.div_ceil(n_dbps);
        let total_bits = num_data_symbols * n_dbps;

        // --- DATA field bit assembly ---------------------------------------------
        let mut bits = vec![0u8; total_bits];
        for (i, byte) in psdu.iter().enumerate() {
            for b in 0..8 {
                bits[SERVICE_BITS + 8 * i + b] = (byte >> b) & 1; // LSB first
            }
        }
        // Scramble everything, then force the tail bits back to zero so the encoder
        // terminates (this is exactly what the standard prescribes).
        let mut scrambler = Scrambler::new(scrambler_seed);
        scrambler.scramble_in_place(&mut bits);
        let tail_start = SERVICE_BITS + 8 * psdu.len();
        for b in &mut bits[tail_start..tail_start + TAIL_BITS] {
            *b = 0;
        }

        // --- Encode, interleave, map ----------------------------------------------
        let coded = convcode::encode(&bits, mcs.code_rate)?;
        debug_assert_eq!(coded.len(), num_data_symbols * n_cbps);
        let interleaver = Interleaver::new(n_cbps, mcs.n_bpsc())?;
        let interleaved = interleaver.interleave_stream(&coded)?;

        let polarity = pilot_polarity_sequence();
        let mut samples = preamble::generate_preamble(params);
        let signal_start = samples.len();

        // --- SIGNAL symbol ----------------------------------------------------------
        let signal_bits = build_signal_bits(mcs, psdu.len())?;
        let signal_coded = convcode::encode(&signal_bits, CodeRate::Half)?;
        let signal_interleaver = Interleaver::new(params.num_data_subcarriers(), 1)?;
        let signal_interleaved = signal_interleaver.interleave(&signal_coded)?;
        let signal_symbols = Modulation::Bpsk.map_bits(&signal_interleaved)?;
        let signal_time = self
            .engine
            .modulate(&signal_symbols, &pilot_values(polarity[0]))?;
        samples.extend(signal_time);
        let data_start = samples.len();

        // --- DATA symbols -----------------------------------------------------------
        let mut data_subcarrier_values = Vec::with_capacity(num_data_symbols);
        for (sym_idx, chunk) in interleaved.chunks(n_cbps).enumerate() {
            let constellation_points = mcs.modulation.map_bits(chunk)?;
            let p = polarity[(sym_idx + 1) % polarity.len()];
            let time = self
                .engine
                .modulate(&constellation_points, &pilot_values(p))?;
            samples.extend(time);
            data_subcarrier_values.push(constellation_points);
        }

        Ok(TxFrame {
            samples,
            psdu,
            mcs,
            scrambler_seed,
            num_data_symbols,
            signal_start,
            data_start,
            data_subcarrier_values,
        })
    }
}

/// Builds the 24 SIGNAL-field bits: RATE(4) | reserved(1) | LENGTH(12, LSB first) |
/// even parity(1) | tail(6).
pub fn build_signal_bits(mcs: Mcs, psdu_len: usize) -> Result<Vec<u8>> {
    if psdu_len > 4095 {
        return Err(PhyError::invalid("psdu_len", "exceeds 12-bit LENGTH field"));
    }
    let mut bits = Vec::with_capacity(24);
    bits.extend_from_slice(&mcs.rate_bits());
    bits.push(0); // reserved
    for b in 0..12 {
        bits.push(((psdu_len >> b) & 1) as u8);
    }
    let parity: u8 = bits.iter().sum::<u8>() & 1;
    bits.push(parity);
    bits.extend_from_slice(&[0; 6]);
    Ok(bits)
}

/// Parses SIGNAL-field bits back into `(mcs, psdu_len)`, verifying the parity bit and
/// tail.
pub fn parse_signal_bits(bits: &[u8]) -> Result<(Mcs, usize)> {
    if bits.len() != 24 {
        return Err(PhyError::LengthMismatch {
            expected: 24,
            actual: bits.len(),
        });
    }
    let parity: u8 = bits[..17].iter().sum::<u8>() & 1;
    if parity != bits[17] {
        return Err(PhyError::DecodeFailure("SIGNAL parity check failed".into()));
    }
    let mcs = Mcs::from_rate_bits(&bits[..4])
        .ok_or_else(|| PhyError::DecodeFailure("unknown RATE field".into()))?;
    let mut len = 0usize;
    for b in 0..12 {
        len |= (bits[5 + b] as usize) << b;
    }
    Ok((mcs, len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> OfdmParams {
        OfdmParams::ieee80211ag()
    }

    #[test]
    fn mcs_bit_counts_match_standard() {
        let p = params();
        let qpsk_half = Mcs::new(Modulation::Qpsk, CodeRate::Half);
        assert_eq!(qpsk_half.n_bpsc(), 2);
        assert_eq!(qpsk_half.n_cbps(&p), 96);
        assert_eq!(qpsk_half.n_dbps(&p), 48);

        let qam64_23 = Mcs::new(Modulation::Qam64, CodeRate::TwoThirds);
        assert_eq!(qam64_23.n_cbps(&p), 288);
        assert_eq!(qam64_23.n_dbps(&p), 192);
    }

    #[test]
    fn all_rates_have_distinct_rate_bits() {
        let all = Mcs::all_80211ag();
        assert_eq!(all.len(), 8);
        for i in 0..all.len() {
            for j in i + 1..all.len() {
                assert_ne!(all[i].rate_bits(), all[j].rate_bits());
            }
            assert_eq!(Mcs::from_rate_bits(&all[i].rate_bits()), Some(all[i]));
        }
        assert_eq!(Mcs::from_rate_bits(&[0, 0, 0, 0]), None);
    }

    #[test]
    fn paper_set_is_the_three_evaluated_modes() {
        let set = Mcs::paper_set();
        assert_eq!(set.len(), 3);
        assert_eq!(set[0].label(), "QPSK 1/2");
        assert_eq!(set[1].label(), "16-QAM 1/2");
        assert_eq!(set[2].label(), "64-QAM 2/3");
    }

    #[test]
    fn pilot_polarity_starts_with_standard_prefix() {
        let p = pilot_polarity_sequence();
        assert_eq!(p.len(), 127);
        // First 16 values of the standard sequence.
        let expected = [
            1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, 1.0, -1.0, -1.0, -1.0, -1.0, 1.0, 1.0, -1.0, 1.0,
        ];
        assert_eq!(&p[..16], &expected);
    }

    #[test]
    fn pilot_values_follow_polarity() {
        let plus = pilot_values(1.0);
        let minus = pilot_values(-1.0);
        assert_eq!(plus.len(), 4);
        assert_eq!(plus[2], Complex::new(-1.0, 0.0));
        for (a, b) in plus.iter().zip(&minus) {
            assert!((*a + *b).norm() < 1e-12);
        }
    }

    #[test]
    fn signal_bits_roundtrip() {
        for mcs in Mcs::all_80211ag() {
            for len in [1usize, 100, 400, 4095] {
                let bits = build_signal_bits(mcs, len).unwrap();
                assert_eq!(bits.len(), 24);
                let (m, l) = parse_signal_bits(&bits).unwrap();
                assert_eq!(m, mcs);
                assert_eq!(l, len);
            }
        }
        assert!(build_signal_bits(Mcs::new(Modulation::Qpsk, CodeRate::Half), 5000).is_err());
    }

    #[test]
    fn signal_parity_detects_corruption() {
        let bits = build_signal_bits(Mcs::new(Modulation::Qam16, CodeRate::Half), 400).unwrap();
        let mut corrupted = bits.clone();
        corrupted[6] ^= 1;
        assert!(parse_signal_bits(&corrupted).is_err());
        assert!(parse_signal_bits(&bits[..20]).is_err());
    }

    #[test]
    fn frame_structure_and_lengths() {
        let tx = Transmitter::new(params());
        let mcs = Mcs::new(Modulation::Qpsk, CodeRate::Half);
        let frame = tx.build_frame(&[0xAA; 100], mcs, 0x5D).unwrap();
        // PSDU = payload + 4-byte FCS.
        assert_eq!(frame.psdu.len(), 104);
        // 16 + 8·104 + 6 = 854 bits / 48 dbps = 17.8 → 18 symbols.
        assert_eq!(frame.num_data_symbols, 18);
        assert_eq!(frame.signal_start, 320);
        assert_eq!(frame.data_start, 400);
        assert_eq!(frame.len(), 320 + 80 + 18 * 80);
        assert!(!frame.is_empty());
        assert_eq!(frame.data_subcarrier_values.len(), 18);
        assert_eq!(frame.data_subcarrier_values[0].len(), 48);
    }

    #[test]
    fn oversized_payload_is_rejected() {
        let tx = Transmitter::new(params());
        let mcs = Mcs::new(Modulation::Qam64, CodeRate::ThreeQuarters);
        assert!(tx.build_frame(&[0u8; 4100], mcs, 1).is_err());
    }

    #[test]
    fn frame_power_is_reasonable() {
        // Data symbols carry 52 unit-power subcarriers over a 64-point IFFT: average
        // sample power 52/64 ≈ 0.81 of the subcarrier power normalisation.
        let tx = Transmitter::new(params());
        let mcs = Mcs::new(Modulation::Qam16, CodeRate::Half);
        let frame = tx.build_frame(&[0x42; 200], mcs, 0x31).unwrap();
        let p = rfdsp::power::signal_power(&frame.samples[frame.data_start..]).unwrap();
        assert!(
            (p - 52.0 / 64.0 / 64.0).abs() / (52.0 / 64.0 / 64.0) < 0.2,
            "power {p}"
        );
    }

    #[test]
    fn different_payloads_give_different_waveforms() {
        let tx = Transmitter::new(params());
        let mcs = Mcs::new(Modulation::Qpsk, CodeRate::Half);
        let a = tx.build_frame(&[0x00; 50], mcs, 0x5D).unwrap();
        let b = tx.build_frame(&[0xFF; 50], mcs, 0x5D).unwrap();
        assert_eq!(a.len(), b.len());
        let diff: f64 = a
            .samples
            .iter()
            .zip(&b.samples)
            .map(|(x, y)| (*x - *y).norm_sqr())
            .sum();
        assert!(diff > 1e-3);
        // Preambles are identical.
        for t in 0..320 {
            assert!((a.samples[t] - b.samples[t]).norm() < 1e-12);
        }
    }
}
