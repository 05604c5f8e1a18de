//! # cprecycle-repro — reproduction of *CPRecycle* (CoNEXT 2016)
//!
//! This is the umbrella crate of the workspace: it re-exports the individual crates so
//! downstream users (and the examples and integration tests in this repository) can
//! depend on a single package.
//!
//! * [`rfdsp`] — DSP substrate (complex numbers, FFT, filters, statistics, KDE).
//! * [`wirelesschan`] — baseband channel simulator (AWGN, multipath, CFO, phase noise,
//!   PA nonlinearity, path loss).
//! * [`ofdmphy`] — the IEEE 802.11a/g OFDM PHY (transmitter, standard receiver).
//! * [`cprecycle`] — the paper's contribution: the CPRecycle receiver, its
//!   per-subcarrier kernel-density interference model (one exact-KDE, grid or
//!   Gaussian density per bin) and fixed-sphere ML decoder, plus the Naive and
//!   Oracle baselines.
//! * [`engine`] — the deterministic parallel Monte-Carlo campaign engine.
//! * [`scenarios`] — the experiment harness reproducing every table and figure.
//! * [`obs`] — zero-overhead instrumentation: stage timers, counters, metrics
//!   snapshots and a bounded event trace, wired through receivers, sessions and the
//!   campaign engine.
//!
//! See the repository README for a walk-through and the reproduction notes, and
//! `docs/ARCHITECTURE.md` for the paper-section → module map and the system inventory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cprecycle;
pub use cprecycle_engine as engine;
pub use cprecycle_scenarios as scenarios;
pub use obs;
pub use ofdmphy;
pub use rfdsp;
pub use wirelesschan;

/// The paper this repository reproduces.
pub const PAPER: &str =
    "CPRecycle: Recycling Cyclic Prefix for Versatile Interference Mitigation in OFDM based Wireless Systems, CoNEXT 2016";

#[cfg(test)]
mod tests {
    #[test]
    fn re_exports_are_wired() {
        let params = crate::ofdmphy::params::OfdmParams::ieee80211ag();
        assert_eq!(params.cp_len, 16);
        assert!(crate::PAPER.contains("CPRecycle"));
    }
}
