//! Regenerates the kernel ablation: the product (amplitude, phase) kernel of §4.1 vs an
//! amplitude-only kernel. Pass `--smoke` for a fast coarse run, `--json` for JSON output.

fn main() {
    cprecycle_bench::run_figure(cprecycle_scenarios::figures::ablate_kernel);
}
