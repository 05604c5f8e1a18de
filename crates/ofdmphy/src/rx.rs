//! The standard OFDM receiver — the paper's baseline.
//!
//! It does exactly what a conventional 802.11a/g receiver does: discard the cyclic
//! prefix (take the FFT window that starts right after it), equalise with the LTF
//! channel estimate, correct the common phase error from the pilots, hard-demap,
//! deinterleave, Viterbi-decode, descramble and check the FCS.
//!
//! The bit-level back end ([`decode_psdu_from_symbols`]) is deliberately independent of
//! *how* the per-subcarrier decisions were produced so the CPRecycle receiver can reuse
//! it unchanged: CPRecycle only replaces the subcarrier-decision stage.

use crate::chanest::{common_phase_correction, ChannelEstimate};
use crate::convcode::CodeRate;
use crate::crc;
use crate::frame::{parse_signal_bits, pilot_polarity_sequence, Mcs, SERVICE_BITS, TAIL_BITS};
use crate::interleaver::Interleaver;
use crate::modulation::Modulation;
use crate::ofdm::OfdmEngine;
use crate::params::OfdmParams;
use crate::preamble;
use crate::scrambler::Scrambler;
use crate::viterbi::ViterbiDecoder;
use crate::{PhyError, Result};
use obs::{NoopRecorder, Recorder, Span, StageTimer};
use rfdsp::Complex;

/// Frame metadata either decoded from the SIGNAL field or supplied by the caller
/// (genie-aided mode used by controlled experiments, where sync/SIGNAL failures would
/// otherwise confound the packet-success-rate comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameInfo {
    /// The MCS of the DATA symbols.
    pub mcs: Mcs,
    /// PSDU length in bytes (including the FCS).
    pub psdu_len: usize,
}

impl FrameInfo {
    /// Number of DATA OFDM symbols this frame carries.
    pub fn num_data_symbols(&self, params: &OfdmParams) -> usize {
        let payload_bits = SERVICE_BITS + 8 * self.psdu_len + TAIL_BITS;
        payload_bits.div_ceil(self.mcs.n_dbps(params))
    }

    /// Total frame length in samples: preamble + SIGNAL + DATA symbols. Streaming
    /// sessions use this to know where a decoded frame ends and detection of the next
    /// one should resume.
    pub fn frame_sample_len(&self, params: &OfdmParams) -> usize {
        preamble::preamble_len(params) + (1 + self.num_data_symbols(params)) * params.symbol_len()
    }
}

/// How a streaming receiver session treats its interference model across frames
/// (paper §4.3: "the interference model is constantly updated when subsequent
/// preambles are received").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ModelPersistence {
    /// Retrain the model from scratch on every frame's preamble — each decode is
    /// bit-for-bit identical to a batch
    /// [`decode_frame`](StandardReceiver::decode_frame)-style call, the mode the
    /// equivalence properties pin.
    #[default]
    PerFrame,
    /// Keep the model across frames and feed each new frame's LTF segments through the
    /// incremental dirty-bin `InterferenceModel::update()`: the density sharpens as
    /// preambles accumulate (`N_p` grows by 2 per frame) instead of resetting.
    /// Receivers without an interference model ignore this knob.
    Rolling,
}

impl ModelPersistence {
    /// Short label used in campaign arm labels and reports.
    pub fn label(&self) -> &'static str {
        match self {
            ModelPersistence::PerFrame => "PerFrame",
            ModelPersistence::Rolling => "Rolling",
        }
    }
}

/// A frame-level receiver that can decode frames out of a sample stream while
/// carrying per-stream state across frames.
///
/// Both [`StandardReceiver`] and `cprecycle::CpRecycleReceiver` implement this trait;
/// `cprecycle::session::RxSession` is generic over it, so one streaming session type
/// serves the whole receiver family. The per-stream state ([`FrameReceiver::Stream`])
/// holds whatever the receiver wants to persist between frames of one stream —
/// scratch buffers, and for CPRecycle the interference model under
/// [`ModelPersistence::Rolling`].
pub trait FrameReceiver {
    /// Per-stream state threaded through every decode of one session (constructed
    /// via [`new_stream`](Self::new_stream), so it may need receiver context).
    type Stream;

    /// The numerology this receiver was built for.
    fn params(&self) -> &OfdmParams;

    /// Fresh per-stream state honouring the session's persistence policy.
    fn new_stream(&self, persistence: ModelPersistence) -> Self::Stream;

    /// Marks the start of a newly detected frame, before the first decode attempt.
    ///
    /// Sessions call this exactly once per detection; receivers with cross-frame
    /// model state use it to make a retried decode of the *same* frame idempotent
    /// (a partial buffer raises `InsufficientSamples` and the session retries with
    /// more samples — the rolling model must absorb the frame's preamble once, not
    /// once per retry).
    fn begin_frame(&self, _stream: &mut Self::Stream) {}

    /// Decodes a frame starting at `frame_start` of `samples`, threading the stream
    /// state and emitting stage timings into `obs` — the one decode every receiver
    /// implements. `info: None` decodes the SIGNAL field (the over-the-air mode
    /// sessions use); an insufficient buffer must surface as
    /// [`PhyError::InsufficientSamples`] with an accurate `needed`, which is the
    /// contract sessions use to wait for exactly the right amount of further samples.
    /// Implementations must guarantee the decode result is bit-for-bit independent
    /// of the recorder (the observability layer's core invariant, pinned by the
    /// `obs_equivalence` tests).
    fn decode_stream_observed<O: Recorder>(
        &self,
        stream: &mut Self::Stream,
        samples: &[Complex],
        frame_start: usize,
        info: Option<FrameInfo>,
        obs: &O,
    ) -> Result<RxFrame>;

    /// [`decode_stream_observed`](Self::decode_stream_observed) with the no-op
    /// recorder.
    fn decode_stream(
        &self,
        stream: &mut Self::Stream,
        samples: &[Complex],
        frame_start: usize,
        info: Option<FrameInfo>,
    ) -> Result<RxFrame> {
        self.decode_stream_observed(stream, samples, frame_start, info, &NoopRecorder)
    }
}

/// Result of decoding one frame.
#[derive(Debug, Clone)]
pub struct RxFrame {
    /// Frame metadata (decoded or supplied).
    pub info: FrameInfo,
    /// The decoded PSDU bytes (payload + FCS), regardless of CRC outcome.
    pub psdu: Vec<u8>,
    /// Whether the FCS check passed — the packet-success criterion of every figure.
    pub crc_ok: bool,
    /// The payload without the FCS, present only when the CRC passed.
    pub payload: Option<Vec<u8>>,
    /// Equalised data-subcarrier values per DATA symbol (48 values each), useful for
    /// EVM analysis and for the interference-power diagnostics.
    pub equalized_symbols: Vec<Vec<Complex>>,
}

/// The standard (CP-discarding) OFDM receiver.
#[derive(Debug, Clone)]
pub struct StandardReceiver {
    engine: OfdmEngine,
    viterbi: ViterbiDecoder,
}

impl StandardReceiver {
    /// Creates a receiver for the given numerology.
    pub fn new(params: OfdmParams) -> Self {
        StandardReceiver {
            engine: OfdmEngine::new(params),
            viterbi: ViterbiDecoder::new(),
        }
    }

    /// Access to the OFDM engine (shared by diagnostics).
    pub fn engine(&self) -> &OfdmEngine {
        &self.engine
    }

    /// Decodes a frame that starts at sample `frame_start` of `samples`.
    ///
    /// If `info` is `None` the SIGNAL field is decoded to obtain the MCS and length;
    /// otherwise the supplied values are used (and the SIGNAL symbol is skipped), which
    /// is how the controlled experiments isolate DATA-symbol errors.
    pub fn decode_frame(
        &self,
        samples: &[Complex],
        frame_start: usize,
        info: Option<FrameInfo>,
    ) -> Result<RxFrame> {
        self.decode_frame_observed(samples, frame_start, info, &NoopRecorder)
    }

    /// [`decode_frame`](Self::decode_frame) with stage timings emitted into
    /// `obs` under the spans `("sync", "Standard")`, `("decide", "Standard")`
    /// (the per-symbol demodulate/equalise/CPE chain — the standard receiver's
    /// whole subcarrier-decision stage) and `("bits", "Standard")`. With a
    /// [`NoopRecorder`] this monomorphises to exactly the uninstrumented code.
    pub fn decode_frame_observed<O: Recorder>(
        &self,
        samples: &[Complex],
        frame_start: usize,
        info: Option<FrameInfo>,
        obs: &O,
    ) -> Result<RxFrame> {
        let params = self.engine.params();
        let preamble_len = preamble::preamble_len(params);
        let sym_len = params.symbol_len();
        let ltf_start = frame_start + preamble::ltf_start_offset(params);
        let signal_start = frame_start + preamble_len;
        let data_start = signal_start + sym_len;
        if samples.len() < data_start + sym_len {
            return Err(PhyError::InsufficientSamples {
                needed: data_start + sym_len,
                available: samples.len(),
            });
        }

        // Channel estimation from the LTF, plus SIGNAL decoding when the
        // caller supplied no metadata — together the frame-acquisition stage.
        let timer = StageTimer::start(obs, Span::new("sync", "Standard"));
        let estimate = ChannelEstimate::from_ltf(&self.engine, &samples[ltf_start..signal_start])?;
        let polarity = pilot_polarity_sequence();

        // Frame metadata.
        let info = match info {
            Some(i) => i,
            None => {
                self.decode_signal(&samples[signal_start..signal_start + sym_len], &estimate)?
            }
        };
        timer.finish(obs);

        // DATA symbols.
        let num_symbols = info.num_data_symbols(params);
        let needed = data_start + num_symbols * sym_len;
        if samples.len() < needed {
            return Err(PhyError::InsufficientSamples {
                needed,
                available: samples.len(),
            });
        }

        let mut equalized_symbols = Vec::with_capacity(num_symbols);
        for s in 0..num_symbols {
            let timer = StageTimer::start(obs, Span::new("decide", "Standard"));
            let start = data_start + s * sym_len;
            let bins = self
                .engine
                .demodulate_standard(&samples[start..start + sym_len])?;
            let eq = estimate.equalize(&bins)?;
            let p = polarity[(s + 1) % polarity.len()];
            let cpe = common_phase_correction(&self.engine, &eq, p)?;
            let corrected: Vec<Complex> = eq.iter().map(|v| *v * cpe).collect();
            equalized_symbols.push(self.engine.extract_data(&corrected)?);
            timer.finish(obs);
        }

        let timer = StageTimer::start(obs, Span::new("bits", "Standard"));
        let (psdu, crc_ok) =
            decode_psdu_from_symbols(&self.viterbi, params, &equalized_symbols, info)?;
        timer.finish(obs);
        let payload = if crc_ok {
            Some(psdu[..psdu.len() - 4].to_vec())
        } else {
            None
        };
        Ok(RxFrame {
            info,
            psdu,
            crc_ok,
            payload,
            equalized_symbols,
        })
    }

    /// Decodes the SIGNAL symbol into frame metadata.
    fn decode_signal(
        &self,
        symbol_samples: &[Complex],
        estimate: &ChannelEstimate,
    ) -> Result<FrameInfo> {
        let params = self.engine.params();
        let bins = self.engine.demodulate_standard(symbol_samples)?;
        let eq = estimate.equalize(&bins)?;
        let polarity = pilot_polarity_sequence();
        let cpe = common_phase_correction(&self.engine, &eq, polarity[0])?;
        let corrected: Vec<Complex> = eq.iter().map(|v| *v * cpe).collect();
        let data = self.engine.extract_data(&corrected)?;
        let bits = Modulation::Bpsk.demap_hard_all(&data);
        let interleaver = Interleaver::new(params.num_data_subcarriers(), 1)?;
        let deinterleaved = interleaver.deinterleave(&bits)?;
        let decoded = self.viterbi.decode(&deinterleaved, CodeRate::Half)?;
        let (mcs, psdu_len) = parse_signal_bits(&decoded)?;
        if psdu_len == 0 {
            return Err(PhyError::DecodeFailure("SIGNAL length of zero".into()));
        }
        Ok(FrameInfo { mcs, psdu_len })
    }
}

impl FrameReceiver for StandardReceiver {
    /// The standard receiver keeps no cross-frame state.
    type Stream = ();

    fn params(&self) -> &OfdmParams {
        self.engine.params()
    }

    fn new_stream(&self, _persistence: ModelPersistence) -> Self::Stream {}

    fn decode_stream_observed<O: Recorder>(
        &self,
        _stream: &mut Self::Stream,
        samples: &[Complex],
        frame_start: usize,
        info: Option<FrameInfo>,
        obs: &O,
    ) -> Result<RxFrame> {
        self.decode_frame_observed(samples, frame_start, info, obs)
    }
}

/// Decodes the PSDU from per-symbol subcarrier decisions.
///
/// `symbols` holds, per DATA OFDM symbol, the 48 (equalised) data-subcarrier values in
/// increasing bin order. Every value is hard-demapped; the resulting coded bits are
/// deinterleaved, Viterbi-decoded, descrambled and the PSDU bytes extracted. Returns
/// the PSDU and whether its FCS checks out.
///
/// The CPRecycle receiver calls this with its sphere-ML decisions substituted for the
/// equalised values, so the entire bit pipeline is shared between receivers.
pub fn decode_psdu_from_symbols(
    viterbi: &ViterbiDecoder,
    params: &OfdmParams,
    symbols: &[Vec<Complex>],
    info: FrameInfo,
) -> Result<(Vec<u8>, bool)> {
    let n_cbps = info.mcs.n_cbps(params);
    let num_symbols = info.num_data_symbols(params);
    if symbols.len() < num_symbols {
        return Err(PhyError::InsufficientSamples {
            needed: num_symbols,
            available: symbols.len(),
        });
    }
    let interleaver = Interleaver::new(n_cbps, info.mcs.n_bpsc())?;
    let mut coded_bits = Vec::with_capacity(num_symbols * n_cbps);
    for sym in symbols.iter().take(num_symbols) {
        if sym.len() != params.num_data_subcarriers() {
            return Err(PhyError::LengthMismatch {
                expected: params.num_data_subcarriers(),
                actual: sym.len(),
            });
        }
        let bits = info.mcs.modulation.demap_hard_all(sym);
        coded_bits.extend(interleaver.deinterleave(&bits)?);
    }
    let decoded = viterbi.decode(&coded_bits, info.mcs.code_rate)?;

    // Descramble: recover the transmitter's scrambler state from the 7 known-zero
    // SERVICE bits, then descramble the whole DATA field.
    let mut descrambled = decoded.clone();
    if let Some(mut scrambler) =
        Scrambler::state_from_service_bits(&decoded[..7.min(decoded.len())])
    {
        scrambler.scramble_in_place(&mut descrambled);
    }

    // Extract the PSDU bytes (LSB-first within each byte).
    let mut psdu = vec![0u8; info.psdu_len];
    for (i, byte) in psdu.iter_mut().enumerate() {
        for b in 0..8 {
            let idx = SERVICE_BITS + 8 * i + b;
            if idx < descrambled.len() && descrambled[idx] == 1 {
                *byte |= 1 << b;
            }
        }
    }
    let crc_ok = crc::check_fcs(&psdu).is_some();
    Ok((psdu, crc_ok))
}

/// Error-vector-magnitude (RMS, in dB relative to unit signal power) of equalised
/// subcarrier decisions against the nearest constellation points — a handy diagnostic
/// for comparing receivers below the packet-error cliff.
///
/// Takes one flat slice of decisions (EVM is layout-independent), matching the flat
/// bin-major storage the rest of the pipeline uses; callers with per-symbol rows
/// flatten with [`flatten_symbols`] or score symbol-by-symbol.
pub fn evm_db(decisions: &[Complex], modulation: Modulation) -> f64 {
    if decisions.is_empty() {
        return f64::NEG_INFINITY;
    }
    let mut acc = 0.0;
    for v in decisions {
        let (nearest, _) = modulation.nearest_point(*v);
        acc += (*v - nearest).norm_sqr();
    }
    10.0 * (acc / decisions.len() as f64).max(1e-30).log10()
}

/// Flattens per-symbol decision rows (e.g. [`RxFrame::equalized_symbols`]) into the
/// single contiguous slice [`evm_db`] consumes.
pub fn flatten_symbols(symbols: &[Vec<Complex>]) -> Vec<Complex> {
    symbols.iter().flatten().copied().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Transmitter;
    use rand::{Rng, SeedableRng};
    use wirelesschan::awgn::AwgnChannel;
    use wirelesschan::multipath::{FadingKind, MultipathChannel, PowerDelayProfile};

    fn setup() -> (Transmitter, StandardReceiver) {
        (
            Transmitter::new(OfdmParams::ieee80211ag()),
            StandardReceiver::new(OfdmParams::ieee80211ag()),
        )
    }

    fn random_payload(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen()).collect()
    }

    #[test]
    fn clean_channel_roundtrip_all_mcs() {
        let (tx, rx) = setup();
        let payload = random_payload(200, 1);
        for mcs in Mcs::all_80211ag() {
            let frame = tx.build_frame(&payload, mcs, 0x5D).unwrap();
            let decoded = rx.decode_frame(&frame.samples, 0, None).unwrap();
            assert!(decoded.crc_ok, "{}", mcs.label());
            assert_eq!(
                decoded.payload.as_deref(),
                Some(&payload[..]),
                "{}",
                mcs.label()
            );
            assert_eq!(decoded.info.mcs, mcs);
            assert_eq!(decoded.info.psdu_len, payload.len() + 4);
        }
    }

    #[test]
    fn genie_info_path_matches_signal_path() {
        let (tx, rx) = setup();
        let payload = random_payload(100, 2);
        let mcs = Mcs::new(Modulation::Qam16, CodeRate::Half);
        let frame = tx.build_frame(&payload, mcs, 0x2B).unwrap();
        let info = FrameInfo {
            mcs,
            psdu_len: payload.len() + 4,
        };
        let a = rx.decode_frame(&frame.samples, 0, Some(info)).unwrap();
        let b = rx.decode_frame(&frame.samples, 0, None).unwrap();
        assert!(a.crc_ok && b.crc_ok);
        assert_eq!(a.psdu, b.psdu);
    }

    #[test]
    fn decodes_through_awgn_at_high_snr() {
        let (tx, rx) = setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut chan = AwgnChannel::new();
        let payload = random_payload(150, 4);
        for mcs in Mcs::paper_set() {
            let frame = tx.build_frame(&payload, mcs, 0x45).unwrap();
            let mut noisy = frame.samples.clone();
            chan.add_noise_snr(&mut rng, &mut noisy, 35.0).unwrap();
            let decoded = rx.decode_frame(&noisy, 0, None).unwrap();
            assert!(decoded.crc_ok, "{}", mcs.label());
            assert_eq!(decoded.payload.as_deref(), Some(&payload[..]));
        }
    }

    #[test]
    fn decodes_through_multipath_within_cp() {
        let (tx, rx) = setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let payload = random_payload(120, 6);
        let pdp = PowerDelayProfile::exponential(6, 2.0).unwrap();
        let mcs = Mcs::new(Modulation::Qam16, CodeRate::Half);
        let mut successes = 0;
        let trials = 10;
        for _ in 0..trials {
            let chan = MultipathChannel::realize(&pdp, FadingKind::Rayleigh, &mut rng);
            let frame = tx.build_frame(&payload, mcs, 0x11).unwrap();
            let faded = chan.apply(&frame.samples);
            let decoded = rx.decode_frame(&faded, 0, None).unwrap();
            if decoded.crc_ok {
                successes += 1;
            }
        }
        // Rayleigh fading occasionally wipes out subcarriers entirely (deep fade across
        // a coded block), but most realisations must decode.
        assert!(successes >= 7, "only {successes}/{trials} packets decoded");
    }

    #[test]
    fn heavy_noise_fails_crc_not_panics() {
        let (tx, rx) = setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut chan = AwgnChannel::new();
        let payload = random_payload(80, 8);
        let mcs = Mcs::new(Modulation::Qam64, CodeRate::TwoThirds);
        let frame = tx.build_frame(&payload, mcs, 0x5D).unwrap();
        let mut noisy = frame.samples.clone();
        chan.add_noise_snr(&mut rng, &mut noisy, -5.0).unwrap();
        let info = FrameInfo {
            mcs,
            psdu_len: payload.len() + 4,
        };
        let decoded = rx.decode_frame(&noisy, 0, Some(info)).unwrap();
        assert!(!decoded.crc_ok);
        assert!(decoded.payload.is_none());
    }

    #[test]
    fn frame_offset_is_respected() {
        let (tx, rx) = setup();
        let payload = random_payload(60, 9);
        let mcs = Mcs::new(Modulation::Qpsk, CodeRate::Half);
        let frame = tx.build_frame(&payload, mcs, 0x33).unwrap();
        let mut padded = vec![Complex::zero(); 500];
        padded.extend_from_slice(&frame.samples);
        let decoded = rx.decode_frame(&padded, 500, None).unwrap();
        assert!(decoded.crc_ok);
        assert_eq!(decoded.payload.as_deref(), Some(&payload[..]));
    }

    #[test]
    fn truncated_capture_is_an_error() {
        let (tx, rx) = setup();
        let payload = random_payload(60, 10);
        let mcs = Mcs::new(Modulation::Qpsk, CodeRate::Half);
        let frame = tx.build_frame(&payload, mcs, 0x33).unwrap();
        let short = &frame.samples[..400];
        assert!(rx.decode_frame(short, 0, None).is_err());
        // Enough for SIGNAL but not for all data symbols.
        let partial = &frame.samples[..600];
        assert!(rx.decode_frame(partial, 0, None).is_err());
    }

    #[test]
    fn evm_reflects_noise_level() {
        let (tx, rx) = setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut chan = AwgnChannel::new();
        let payload = random_payload(100, 12);
        let mcs = Mcs::new(Modulation::Qam16, CodeRate::Half);
        let frame = tx.build_frame(&payload, mcs, 0x5D).unwrap();
        let info = FrameInfo {
            mcs,
            psdu_len: payload.len() + 4,
        };
        let mut low_noise = frame.samples.clone();
        chan.add_noise_snr(&mut rng, &mut low_noise, 30.0).unwrap();
        let mut high_noise = frame.samples.clone();
        chan.add_noise_snr(&mut rng, &mut high_noise, 10.0).unwrap();
        let a = rx.decode_frame(&low_noise, 0, Some(info)).unwrap();
        let b = rx.decode_frame(&high_noise, 0, Some(info)).unwrap();
        let evm_low = evm_db(&flatten_symbols(&a.equalized_symbols), mcs.modulation);
        let evm_high = evm_db(&flatten_symbols(&b.equalized_symbols), mcs.modulation);
        assert!(evm_low < evm_high - 5.0, "low {evm_low} high {evm_high}");
        assert_eq!(evm_db(&[], Modulation::Qpsk), f64::NEG_INFINITY);
        // Flattening preserves per-value order within and across symbols.
        let rows = vec![vec![Complex::one()], vec![Complex::zero(), Complex::one()]];
        assert_eq!(
            flatten_symbols(&rows),
            vec![Complex::one(), Complex::zero(), Complex::one()]
        );
    }

    #[test]
    fn frame_info_length_matches_built_frames() {
        let params = OfdmParams::ieee80211ag();
        let tx = Transmitter::new(params.clone());
        for (len, mcs) in [
            (60usize, Mcs::new(Modulation::Qpsk, CodeRate::Half)),
            (400, Mcs::new(Modulation::Qam16, CodeRate::Half)),
            (123, Mcs::new(Modulation::Qam64, CodeRate::TwoThirds)),
        ] {
            let payload = random_payload(len, len as u64);
            let frame = tx.build_frame(&payload, mcs, 0x5D).unwrap();
            let info = FrameInfo {
                mcs,
                psdu_len: payload.len() + 4,
            };
            assert_eq!(info.frame_sample_len(&params), frame.samples.len(), "{len}");
            assert_eq!(info.num_data_symbols(&params), frame.num_data_symbols);
        }
    }

    #[test]
    // The standard receiver's stream state is deliberately `()` — the binding is the
    // point of the test.
    #[allow(clippy::let_unit_value)]
    fn standard_receiver_implements_frame_receiver() {
        let (tx, rx) = setup();
        let payload = random_payload(80, 21);
        let mcs = Mcs::new(Modulation::Qpsk, CodeRate::Half);
        let frame = tx.build_frame(&payload, mcs, 0x5D).unwrap();
        let mut stream = rx.new_stream(ModelPersistence::Rolling);
        rx.begin_frame(&mut stream);
        let via_trait =
            FrameReceiver::decode_stream(&rx, &mut stream, &frame.samples, 0, None).unwrap();
        let direct = rx.decode_frame(&frame.samples, 0, None).unwrap();
        assert_eq!(via_trait.psdu, direct.psdu);
        assert!(via_trait.crc_ok);
        assert_eq!(FrameReceiver::params(&rx).fft_size, 64);
        assert_eq!(ModelPersistence::PerFrame.label(), "PerFrame");
        assert_eq!(ModelPersistence::Rolling.label(), "Rolling");
        assert_eq!(ModelPersistence::default(), ModelPersistence::PerFrame);
    }

    #[test]
    fn decode_psdu_rejects_malformed_symbol_lists() {
        let params = OfdmParams::ieee80211ag();
        let viterbi = ViterbiDecoder::new();
        let info = FrameInfo {
            mcs: Mcs::new(Modulation::Qpsk, CodeRate::Half),
            psdu_len: 50,
        };
        assert!(decode_psdu_from_symbols(&viterbi, &params, &[], info).is_err());
        let bad = vec![vec![Complex::one(); 40]; 20];
        assert!(decode_psdu_from_symbols(&viterbi, &params, &bad, info).is_err());
    }
}
