//! # wirelesschan — baseband wireless channel simulator
//!
//! The CPRecycle paper evaluates its receiver over the air with USRPs in an office
//! building. This crate replaces that RF path with a discrete-time baseband simulation
//! of every impairment the paper's argument depends on:
//!
//! * [`awgn`] — additive white Gaussian noise at a target SNR.
//! * [`multipath`] — tapped-delay-line multipath with indoor power-delay profiles
//!   (nanosecond-scale delay spreads, per the measurement studies the paper cites) and
//!   Rayleigh or Rician tap fading.
//! * [`impairments`] — carrier frequency offset.
//! * [`frontend`] — transmitter front-end nonidealities: Rapp-model power-amplifier
//!   nonlinearity (the spectral regrowth responsible for adjacent-channel leakage) and
//!   IQ imbalance.
//! * [`pathloss`] — log-distance path loss with shadowing plus floor/wall penetration
//!   losses, used by the office-building neighbor model (paper Fig. 13).
//! * [`mixer`] — the scenario glue: frequency-shift an interferer to its channel
//!   offset, delay it by an arbitrary (fractional) timing offset, scale it to an exact
//!   SIR and add it to the signal of interest.
//!
//! Everything is deterministic given a caller-supplied RNG, so experiments are
//! reproducible from a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod awgn;
pub mod error;
pub mod frontend;
pub mod impairments;
pub mod mixer;
pub mod multipath;
pub mod pathloss;

pub use error::ChannelError;

/// Convenience alias for results returned by fallible channel operations.
pub type Result<T> = std::result::Result<T, ChannelError>;
