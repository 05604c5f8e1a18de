//! The experiment CLI, the benchmark [`ledger`] and the Criterion diagnostics.
//!
//! The crate builds two binaries. `campaign` is the one front end of the experiment
//! registry in `cprecycle-scenarios` (`figures::FIGURES`): it lists every table and
//! figure of the paper, runs one — checkpointing Monte-Carlo campaigns as it goes —
//! and prints it as an aligned text table (pass `--json` for machine-readable
//! output), and it resumes, inspects and replays campaign checkpoints. Pass
//! `--smoke` to run a fast, coarse version of an experiment; the default is the full
//! scale the README's reproduction notes discuss. `check_perfbench` records and gates
//! the benchmark ledger. The Criterion benches are ungated diagnostics.

#![forbid(unsafe_code)]

pub mod ledger;
