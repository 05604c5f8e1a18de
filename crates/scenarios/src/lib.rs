//! # cprecycle-scenarios — experiment harness for the CPRecycle reproduction
//!
//! The paper evaluates CPRecycle over the air with USRPs and an off-the-shelf 802.11g
//! access point. This crate rebuilds each of those experiments as a reproducible
//! Monte-Carlo simulation:
//!
//! * [`wideband`] — oversampled composite-signal machinery: interferers on adjacent or
//!   partially-overlapping channels are rendered at 4–8× the victim's sample rate, so
//!   their spectra genuinely sit outside the victim band, and the victim receiver
//!   applies a channel-select filter and decimates — exactly the path by which
//!   adjacent-channel energy leaks into a real receiver.
//! * [`interference`] — scenario builders for adjacent-channel interference (single and
//!   dual interferer, configurable guard band) and co-channel interference.
//! * [`link`] — packet-level link trials on top of the `cprecycle-engine` campaign
//!   engine: a [`link::LinkPoint`] is one operating point (numerology × modulation ×
//!   scenario × receiver set), one trial builds a frame, renders the scenario and
//!   decodes with every receiver under test (Standard, CPRecycle, Naive, Oracle), and
//!   whole grids run as parallel, checkpointable, deterministically replayable
//!   campaigns.
//! * [`figures`] — the experiment registry: every table and figure of the paper, plus
//!   the decoder, estimator, streaming and ablation sweeps, named once in
//!   [`figures::FIGURES`]. A Monte-Carlo entry submits its full grid to the engine as
//!   one campaign and renders the tallies into serialisable result series; the
//!   `campaign` CLI in `cprecycle-bench` runs, checkpoints, resumes and prints them
//!   (the README's reproduction notes compare them with the paper).
//! * [`stream`] — bursty-traffic streaming campaigns: back-to-back frames at random
//!   gaps decoded through `cprecycle::session::RxSession` (incremental sync,
//!   over-the-air SIGNAL decode, cross-frame model persistence), with per-frame and
//!   aggregate packet success rates.
//! * [`neighbors`] — the synthetic office-building model behind Fig. 13.
//! * [`report`] — plain-text rendering of result series.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod interference;
pub mod link;
pub mod neighbors;
pub mod report;
pub mod stream;
pub mod wideband;

/// Convenience alias reusing the PHY error type.
pub type Result<T> = std::result::Result<T, ofdmphy::PhyError>;
