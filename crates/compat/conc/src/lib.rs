//! `conc` — an offline, dependency-free, loom-style deterministic model
//! checker for the workspace's hand-rolled concurrency.
//!
//! The crate provides drop-in shims for the `std` sync vocabulary the engine
//! and the receiver server use — [`sync`] (`Mutex`/`Condvar`) and [`thread`]
//! (`spawn`/`join`) — plus a [`Builder`] that runs a closure under
//! **exhaustive bounded exploration**: every instrumented operation is a
//! scheduler yield point, a DFS enumerates thread interleavings, sound
//! state-fingerprint pruning collapses isomorphic branches, and any failure
//! (assertion panic, deadlock, runaway loop) is reported with the exact choice
//! schedule that reaches it, replayable via [`Builder::replay`].
//!
//! Outside a model run the shims pass straight through to `std`, so one
//! source tree serves production and checking (the engine swaps its
//! `engine::sync` facade onto this crate under `cfg(cprecycle_conc)`).
//!
//! # Example
//!
//! ```
//! use conc::{model, sync::Mutex};
//! use std::sync::Arc;
//!
//! model(|| {
//!     let counter = Arc::new(Mutex::new(0));
//!     let handles: Vec<_> = (0..2)
//!         .map(|_| {
//!             let counter = Arc::clone(&counter);
//!             conc::thread::spawn(move || {
//!                 *counter.lock().unwrap() += 1;
//!             })
//!         })
//!         .collect();
//!     for h in handles {
//!         h.join().unwrap();
//!     }
//!     assert_eq!(*counter.lock().unwrap(), 2);
//! });
//! ```
//!
//! # What the model does and does not cover
//!
//! Covered exhaustively (at the configured bounds): all interleavings at
//! instrumented operations, mutex/condvar blocking semantics (including
//! lost-wakeup deadlocks), spawn/join edges, and runaway loops (the per-run
//! op budget).
//!
//! Not covered: atomics and weak memory. Memory is sequentially consistent,
//! which is exact for code that shares state only through the shims, and the
//! checked code has no atomics (the engine's only atomics drive
//! `std::thread::scope` workers, which are not modeled either). Condvars
//! have no spurious wakeups, so a caller relying on one for progress
//! deadlocks here first.
//!
//! A failure ends the run and unwinds every other model thread. A model
//! thread that waits on a condvar while unwinding — a destructor draining a
//! server that is still alive, say — is abandoned: its OS thread stays parked
//! and is never joined, and the failure is reported with the panic it was
//! unwinding.

#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

mod exec;

pub mod sync;
pub mod thread;

use std::sync::Arc;

pub use exec::{current_schedule, Failure, FailureKind, Report};

use exec::BuilderCfg;

/// Configures and runs a model-checking exploration.
///
/// Defaults: unbounded preemptions, 500 000 schedules, 50 000 ops per
/// schedule, visited-state pruning on.
#[derive(Clone, Debug, Default)]
pub struct Builder {
    cfg: BuilderCfg,
}

impl Builder {
    /// A builder with the default bounds.
    pub fn new() -> Builder {
        Builder::default()
    }

    /// Bounds *involuntary* context switches per schedule (voluntary blocking
    /// never counts). Most real concurrency bugs manifest within 2–3
    /// preemptions; a small bound keeps exploration fast while `None`
    /// (default) is exhaustive.
    pub fn max_preemptions(mut self, n: u32) -> Builder {
        self.cfg.max_preemptions = Some(n);
        self
    }

    /// Caps the number of schedules explored; hitting the cap yields
    /// [`Report::complete`]` == false` rather than an error.
    pub fn max_schedules(mut self, n: u64) -> Builder {
        self.cfg.max_schedules = n;
        self
    }

    /// Caps instrumented ops in a single schedule; exceeding it is reported
    /// as a [`FailureKind::OpLimit`] failure (an unbounded loop).
    pub fn max_ops(mut self, n: u64) -> Builder {
        self.cfg.max_ops = n;
        self
    }

    /// Toggles sound visited-state pruning (on by default; turning it off is
    /// only useful for debugging the checker itself).
    pub fn prune_visited(mut self, on: bool) -> Builder {
        self.cfg.prune_visited = on;
        self
    }

    /// Explores every schedule of `f` (within bounds). `f` is run once per
    /// schedule and must be deterministic apart from the instrumented ops.
    /// Returns the exploration [`Report`], or the first [`Failure`] with its
    /// replayable schedule.
    pub fn check<F>(&self, f: F) -> Result<Report, Failure>
    where
        F: Fn() + Send + Sync + 'static,
    {
        exec::explore(self.cfg.clone(), Arc::new(f), Vec::new(), false)
    }

    /// Re-runs exactly one schedule (as printed in a [`Failure`]) — for
    /// debugging a failure with prints/debuggers, and for pinning known-hairy
    /// interleavings as fast regression tests. The builder must have the
    /// preemption bound the failing check had: a spent budget makes no choice,
    /// so the same schedule means a different run under another bound.
    pub fn replay<F>(&self, schedule: &[u32], f: F) -> Result<Report, Failure>
    where
        F: Fn() + Send + Sync + 'static,
    {
        exec::explore(self.cfg.clone(), Arc::new(f), schedule.to_vec(), true)
    }
}

/// Checks `f` under the default bounds, panicking on any failure (with the
/// failing schedule in the message) and on incomplete exploration. The usual
/// entry point for model tests.
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    match Builder::new().check(f) {
        Err(failure) => panic!("{failure}"),
        Ok(report) => assert!(
            report.complete,
            "model exploration hit the schedule cap before completing: {report:?}"
        ),
    }
}
