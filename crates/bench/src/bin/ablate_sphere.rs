//! Regenerates the sphere-radius ablation: PSR and search-space size vs the fixed-sphere
//! radius of §4.2. Pass `--smoke` for a fast coarse run, `--json` for JSON output.

fn main() {
    cprecycle_bench::run_figure(cprecycle_scenarios::figures::ablate_sphere_radius);
}
