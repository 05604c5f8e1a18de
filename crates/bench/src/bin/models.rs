//! Regenerates the interference-estimator sweep: every model backend (exact KDE /
//! parametric Gaussian) plus the standard receiver vs SIR as one engine campaign.
//! Pass `--smoke` for a fast coarse run, `--json` for JSON output.

fn main() {
    cprecycle_bench::run_figure(cprecycle_scenarios::figures::model_comparison);
}
