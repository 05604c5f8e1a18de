//! The concurrency facade: every lock, condvar and thread the engine's
//! [`crate::pool`] and the receiver server (`cprecycle::server`) use is
//! imported through this module, never from `std` directly.
//!
//! In a normal build the re-exports resolve to `std` (zero-cost — they are
//! the very same types). Under `--cfg cprecycle_conc` they resolve to the
//! [`conc`] model checker's instrumented shims instead, so the *same source*
//! of [`crate::pool::WorkerPool`] and of `RxServer` runs under exhaustive
//! bounded-interleaving exploration in the model-check suites
//! (`tests/conc_models.rs` here, `crates/core/tests/conc_server.rs`).
//!
//! Three deliberate exceptions stay on `std` unconditionally:
//!
//! * [`Arc`] — pure reference counting with no schedule-relevant behaviour;
//!   instrumenting it would only bloat the state space.
//! * `std::thread::scope` (used by [`crate::pool::run_claiming`]) — scoped
//!   spawns are not modeled; `run_claiming` is exercised by the engine's
//!   deterministic-replay tests instead of the model suites.
//! * `std::sync::atomic` — `run_claiming`'s claim cursor and stop flag, the
//!   only atomics, live on those scoped threads, and `conc` models no atomics.
//!
//! Checked builds are driven as
//! `RUSTFLAGS="--cfg cprecycle_conc" cargo test -p cprecycle-engine --test conc_models`
//! and `RUSTFLAGS="--cfg cprecycle_conc" cargo test --release -p cprecycle --test conc_server`
//! (see `.github/workflows/ci.yml`, job `model-check`).

pub use std::sync::Arc;

#[cfg(not(cprecycle_conc))]
pub use std::sync::{Condvar, Mutex, MutexGuard};

#[cfg(cprecycle_conc)]
pub use conc::sync::{Condvar, Mutex, MutexGuard};

/// Thread spawn/join (std or `conc` instrumented).
pub mod thread {
    #[cfg(not(cprecycle_conc))]
    pub use std::thread::{Builder, JoinHandle};

    #[cfg(cprecycle_conc)]
    pub use conc::thread::{Builder, JoinHandle};
}
