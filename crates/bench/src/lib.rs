//! Shared plumbing for the figure-regeneration binaries, and the benchmark [`ledger`].
//!
//! Every binary in this crate regenerates one table or figure of the paper by calling
//! the corresponding driver in `cprecycle-scenarios` and printing the result as an
//! aligned text table (pass `--json` for machine-readable output). Pass `--smoke` to
//! run a fast, coarse version of the experiment; the default is the full scale the
//! README's reproduction notes discuss. The Criterion benches are ungated diagnostics.

#![forbid(unsafe_code)]

pub mod ledger;

use cprecycle_scenarios::figures::FigureScale;
use cprecycle_scenarios::report::ExperimentResult;
use cprecycle_scenarios::telemetry;
use std::path::PathBuf;

/// Command-line options shared by all figure binaries.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FigureCli {
    /// Run the coarse/fast version of the experiment.
    pub smoke: bool,
    /// Emit JSON instead of a text table.
    pub json: bool,
    /// Also write a metrics snapshot (campaign stage timing, trial throughput) to
    /// this path as cpjson.
    pub metrics: Option<PathBuf>,
}

impl FigureCli {
    /// Parses the options from `std::env::args` (unknown arguments are ignored so the
    /// binaries stay forgiving when driven from scripts).
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        let metrics = args
            .iter()
            .position(|a| a == "--metrics")
            .and_then(|i| args.get(i + 1))
            .map(PathBuf::from);
        FigureCli {
            smoke: args.iter().any(|a| a == "--smoke"),
            json: args.iter().any(|a| a == "--json"),
            metrics,
        }
    }

    /// The figure scale implied by the options.
    pub fn scale(&self) -> FigureScale {
        if self.smoke {
            FigureScale::smoke()
        } else {
            FigureScale::full()
        }
    }

    /// Prints an experiment result in the selected format.
    pub fn emit(&self, result: &ExperimentResult) {
        if self.json {
            println!("{}", result.to_json());
        } else {
            print!("{}", result.to_table());
        }
    }

    /// Writes the process-wide telemetry snapshot to the `--metrics` path, when one
    /// was requested and `telemetry::install` ran before the driver.
    pub fn emit_metrics(&self) {
        let Some(path) = &self.metrics else { return };
        let Some(snapshot) = telemetry::snapshot() else {
            return;
        };
        match std::fs::write(path, snapshot.to_json_string()) {
            Ok(()) => eprintln!("metrics snapshot written to {}", path.display()),
            Err(e) => eprintln!("warning: metrics write failed: {e}"),
        }
    }
}

/// Runs one figure driver and prints it, converting errors into a readable message and
/// a non-zero exit code. With `--metrics FILE` the driver's campaigns report into the
/// process-wide telemetry recorder and the snapshot lands in FILE as cpjson.
pub fn run_figure<F>(f: F)
where
    F: FnOnce(&FigureScale) -> cprecycle_scenarios::Result<ExperimentResult>,
{
    let cli = FigureCli::from_args();
    if cli.metrics.is_some() {
        telemetry::install();
    }
    match f(&cli.scale()) {
        Ok(result) => {
            cli.emit(&result);
            cli.emit_metrics();
        }
        Err(e) => {
            eprintln!("experiment failed: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_cli_is_full_scale_table_output() {
        let cli = FigureCli::default();
        assert_eq!(cli.scale().packets, FigureScale::full().packets);
        let cli = FigureCli {
            smoke: true,
            json: true,
            ..Default::default()
        };
        assert_eq!(cli.scale().packets, FigureScale::smoke().packets);
    }

    #[test]
    fn emit_table_and_json_do_not_panic() {
        let result = cprecycle_scenarios::figures::table1();
        FigureCli {
            smoke: true,
            json: false,
            ..Default::default()
        }
        .emit(&result);
        FigureCli {
            smoke: true,
            json: true,
            ..Default::default()
        }
        .emit(&result);
    }
}
