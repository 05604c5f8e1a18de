//! # rfdsp — DSP substrate for the CPRecycle reproduction
//!
//! This crate implements, from scratch, every digital-signal-processing primitive the
//! CPRecycle reproduction needs:
//!
//! * [`Complex`] — a small, `Copy`, `f64`-based complex number type with the full set of
//!   arithmetic operators and the polar/exponential helpers baseband code relies on.
//! * [`fft`] — an iterative radix-2 decimation-in-time FFT with a reusable [`fft::FftPlan`]
//!   (precomputed twiddles and bit-reversal table) plus a direct DFT fallback for
//!   non-power-of-two lengths.
//! * [`sliding`] — a sliding-DFT plan ([`sliding::SlidingDft`]) that advances all `N`
//!   bins of a window's spectrum in `O(N)` per one-sample shift, the kernel behind
//!   CPRecycle's segment extraction (`P` windows per symbol that differ by one sample).
//! * [`window`] — Hann, Hamming and Kaiser window functions.
//! * [`filter`] — FIR filter design (windowed-sinc low-pass / band-pass) and streaming
//!   convolution, used by the channel simulator to model transmit spectral masks.
//! * [`stats`] — descriptive statistics, empirical CDFs and correlation,
//!   used both by the experiment harness and by the ISI-free-region detector.
//! * [`kde`] — Gaussian kernel density estimation (univariate and bivariate product
//!   kernels) with Silverman and data-driven bandwidth selection. The CPRecycle
//!   interference model (paper Eq. 4) is a thin specialisation of these primitives.
//! * [`power`] — dB conversions, signal power, SNR/SIR scaling helpers and a Welch
//!   periodogram estimator the tests observe spectra with.
//! * [`noise`] — seedable complex AWGN and Gaussian sample generators (Box–Muller).
//! * [`resample`] — integer up/down sampling and fractional-delay (windowed-sinc)
//!   interpolation used to give interferers sub-sample timing offsets.
//!
//! The crate is deliberately synchronous and allocation-conscious: hot paths (FFT,
//! filtering) operate on caller-provided or plan-owned buffers, and all randomness is
//! injected through [`rand::Rng`] so simulations are reproducible from a seed.
//!
//! ## Quick example
//!
//! ```
//! use rfdsp::{Complex, fft::FftPlan};
//!
//! // A single complex tone lands on exactly one FFT bin.
//! let n = 64;
//! let plan = FftPlan::new(n);
//! let tone: Vec<Complex> = (0..n)
//!     .map(|t| Complex::from_polar(1.0, 2.0 * std::f64::consts::PI * 5.0 * t as f64 / n as f64))
//!     .collect();
//! let spectrum = plan.fft(&tone);
//! let peak = spectrum
//!     .iter()
//!     .enumerate()
//!     .max_by(|a, b| a.1.norm().partial_cmp(&b.1.norm()).unwrap())
//!     .unwrap()
//!     .0;
//! assert_eq!(peak, 5);
//! ```

// `deny` rather than `forbid`: the one explicitly-audited exception is the
// runtime-detected AVX2 kernel in [`simd`], which opts in with a scoped
// `#[allow(unsafe_code)]` on the intrinsics function alone.
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod complex;
pub mod error;
pub mod fft;
pub mod filter;
pub mod kde;
pub mod lanes;
pub mod noise;
pub mod power;
pub mod resample;
pub mod simd;
pub mod sliding;
pub mod stats;
pub mod window;

pub use complex::Complex;
pub use error::DspError;

/// Convenience alias for results returned by fallible rfdsp operations.
pub type Result<T> = std::result::Result<T, DspError>;
