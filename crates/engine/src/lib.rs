//! # cprecycle-engine — parallel Monte-Carlo campaign engine with deterministic replay
//!
//! Every figure and table of the CPRecycle evaluation is a *campaign*: a grid of
//! operating points (scenario × receiver × modulation × SINR), each measured by a few
//! hundred to a few thousand independent packet-level Monte-Carlo trials. This crate
//! turns that shape into a first-class subsystem:
//!
//! * [`spec`] — the campaign description: a [`CampaignConfig`] (master seed, trials
//!   per point, worker count) over a caller-defined grid of [`CampaignPoint`]s;
//! * [`seed`] — the deterministic seed tree. Every `(master seed, point key, trial
//!   index)` triple maps to an independent child RNG, so serial and parallel runs
//!   produce **bit-identical aggregates** and any single trial can be
//!   [replayed](seed::trial_rng) in isolation for debugging;
//! * [`exec`] — the parallel executor: a shared work queue over all `(point, trial)`
//!   pairs, claimed trial-by-trial by worker threads so imbalanced grids still load
//!   every core, with **worker-local state** (FFT plans, constructed receivers,
//!   sliding-DFT segment-extraction scratch) built once per worker instead of once
//!   per trial;
//! * [`pool`] — the reusable worker-pool primitives under [`exec`]: the claiming
//!   loop ([`pool::run_claiming`]) the executor runs on, and a standing
//!   [`pool::WorkerPool`] for open-ended workloads (the multi-session receiver
//!   server in `cprecycle::server`), one mutex-guarded injector queue;
//! * [`sync`] — the concurrency facade the pool and the receiver server import
//!   their locks, condvars and thread handles through: `std` in normal builds,
//!   the `conc` model-checker shims under `--cfg cprecycle_conc`, so the
//!   model-check suites explore the *same* source exhaustively;
//! * [`tally`] — per-point packet-success tallies with Wilson confidence intervals,
//!   auxiliary metric means and sample streams, plus timing;
//! * [`checkpoint`] — JSON persistence of a finished or half-finished campaign:
//!   resume skips completed points, and appending new grid points to a spec reruns
//!   only the new ones;
//! * [`report`] — plain-text and JSON rendering of campaign results.
//!
//! The engine is deliberately generic: it knows nothing about OFDM. The experiment
//! harness (`cprecycle-scenarios`) supplies the grid point type and the trial closure;
//! the `campaign` CLI drives it, one registry entry at a time.
//!
//! ## Determinism contract
//!
//! For a fixed [`CampaignConfig::master_seed`] the per-point tallies — success counts,
//! metric sums (reduced in trial-index order), and auxiliary sample streams — are
//! identical for any worker count, including fully serial execution. Timing fields are
//! explicitly *outside* the contract. The contract is enforced by tests in this crate
//! and exercised end-to-end by `cprecycle-scenarios`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod exec;
pub mod metrics;
pub mod pool;
pub mod report;
pub mod seed;
pub mod spec;
pub mod sync;
pub mod tally;

pub use checkpoint::{load_campaign, save_campaign};
pub use exec::{run_campaign, EngineError, ProgressOptions, RunOptions};
pub use metrics::campaign_snapshot;
pub use pool::{run_claiming, WorkerPool};
pub use seed::trial_rng;
pub use spec::{CampaignConfig, CampaignPoint};
pub use tally::{ArmTally, CampaignResult, PointResult, TrialOutcome, TrialRecord};
