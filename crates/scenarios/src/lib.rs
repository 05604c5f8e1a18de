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
//! * [`figures`] — one driver per table/figure of the paper; every Monte-Carlo figure
//!   submits its full grid to the engine as one campaign (see
//!   [`figures::figure_grid`]) and returns serialisable result series that the
//!   `cprecycle-bench` binaries print (the README's reproduction notes compare them
//!   with the paper).
//! * [`stream`] — bursty-traffic streaming campaigns: back-to-back frames at random
//!   gaps decoded through `cprecycle::session::RxSession` (incremental sync,
//!   over-the-air SIGNAL decode, cross-frame model persistence), with per-frame and
//!   aggregate packet success rates.
//! * [`neighbors`] — the synthetic office-building model behind Fig. 13.
//! * [`report`] — plain-text rendering of result series.
//! * [`telemetry`] — an opt-in process-wide recorder the figure campaigns report
//!   into, so the `cprecycle-bench` binaries can dump metrics snapshots without
//!   changing any driver signature.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod interference;
pub mod link;
pub mod neighbors;
pub mod report;
pub mod stream;
pub mod telemetry;
pub mod wideband;

/// Convenience alias reusing the PHY error type.
pub type Result<T> = std::result::Result<T, ofdmphy::PhyError>;
