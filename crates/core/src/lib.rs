//! # cprecycle — the CPRecycle receiver (CoNEXT 2016)
//!
//! CPRecycle recycles the over-provisioned cyclic prefix of OFDM symbols for
//! interference mitigation. Instead of discarding the CP, the receiver:
//!
//! 1. extracts `P` FFT windows ("segments") per symbol from the ISI-free part of the CP
//!    ([`segments`]), relying on the fact that the desired signal is identical in every
//!    segment up to a correctable phase ramp (Proposition 3.1) while interference from
//!    non-symbol-aligned transmitters varies by tens of dB across segments;
//! 2. learns a per-subcarrier, non-parametric interference model from the known
//!    preamble symbols — a bivariate Gaussian *product* kernel density over the
//!    amplitude and phase deviations of each segment observation from the known
//!    transmitted value ([`interference_model`], paper Eq. 4);
//! 3. decodes every data subcarrier with a fixed-sphere maximum-likelihood detector:
//!    candidate lattice points within radius `R` of the centroid of the `P`
//!    observations, scored by the product of KDE likelihoods across segments
//!    ([`sphere_ml`], paper Eq. 5).
//!
//! The subcarrier-decision rule is one [`config::DecisionStage`] arm — the sphere ML
//! detector, the naive average-distance baseline (Eq. 3, the authors' earlier
//! ShiftFFT), the genie-aided Oracle segment selector or the conventional
//! standard-window decision — and [`decision::decide_symbol`] runs the selected rule
//! over the cached lattice-index tables of `ofdmphy::modulation` for the frame-level
//! receiver ([`receiver`]). The per-bin density behind the sphere decoder is
//! equally selectable ([`interference_model::BinDensity`]): the exact Eq. 4 kernel
//! sum or a parametric Gaussian fit, chosen by
//! [`config::CpRecycleConfig::model`]. The crate also provides Oracle selection
//! diagnostics ([`oracle`]) and ISI-free-region detection ([`isi_free`]).
//!
//! For continuous reception, [`session::RxSession`] wraps any
//! [`FrameReceiver`] — push arbitrary-length sample chunks, drain decoded-frame
//! events; detection resumes across chunk boundaries and the interference model can
//! persist across frames ([`ModelPersistence`]). For many concurrent streams,
//! [`server::RxServer`] multiplexes N sessions over a fixed worker pool — bounded
//! per-session ingress queues with explicit backpressure, and per-session outputs
//! bit-identical to standalone sessions for any scheduling.
//!
//! ## Quick example
//!
//! ```
//! use cprecycle::{CpRecycleConfig, CpRecycleReceiver};
//! use ofdmphy::frame::{Mcs, Transmitter};
//! use ofdmphy::modulation::Modulation;
//! use ofdmphy::convcode::CodeRate;
//! use ofdmphy::params::OfdmParams;
//! use ofdmphy::rx::FrameInfo;
//!
//! let params = OfdmParams::ieee80211ag();
//! let tx = Transmitter::new(params.clone());
//! let mcs = Mcs::new(Modulation::Qpsk, CodeRate::Half);
//! let frame = tx.build_frame(b"hello cyclic prefix", mcs, 0x5D).unwrap();
//!
//! let rx = CpRecycleReceiver::new(params, CpRecycleConfig::default());
//! let info = FrameInfo { mcs, psdu_len: frame.psdu.len() };
//! let decoded = rx.decode_frame(&frame.samples, 0, Some(info)).unwrap();
//! assert!(decoded.crc_ok);
//! assert_eq!(decoded.payload.as_deref(), Some(&b"hello cyclic prefix"[..]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod decision;
pub mod interference_model;
pub mod isi_free;
pub mod oracle;
pub mod receiver;
pub mod segments;
pub mod server;
pub mod session;
pub mod sphere_ml;

pub use config::{CpRecycleConfig, CpRecycleConfigBuilder, DecisionStage, KernelPrecision};
pub use decision::{DecoderScratch, SearchCounts};
pub use interference_model::{BinDensity, InterferenceModel, ModelBackend};
pub use receiver::{CpRecycleReceiver, RxStream};
pub use segments::{SegmentExtraction, SegmentPowers, SegmentScratch, SymbolSegments};
pub use server::{PushError, RxServer, ServerConfig, SessionHandle};
pub use session::{RxEvent, RxSession, SessionConfig, SessionCounters};
// The streaming-receiver contract lives next to `StandardReceiver` in `ofdmphy`;
// re-exported here because sessions are this crate's API surface.
pub use ofdmphy::rx::{FrameReceiver, ModelPersistence};
pub use sphere_ml::FixedSphereMlDecoder;

/// Convenience alias: the crate reuses the PHY error type since every failure mode is a
/// PHY-level one.
pub type Result<T> = std::result::Result<T, ofdmphy::PhyError>;
