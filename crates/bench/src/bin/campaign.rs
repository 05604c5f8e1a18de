//! `campaign` — the command-line front end of the experiment registry
//! (`cprecycle_scenarios::figures::FIGURES`).
//!
//! ```text
//! campaign list                         # every registered table and figure
//! campaign run fig8 --out fig8.json     # run with incremental checkpointing, print Fig. 8
//! campaign run fig8 --smoke --trials 8  # coarse grid, 8 trials/point
//! campaign run table1 --json            # direct entries print without a checkpoint
//! campaign resume fig8.json             # finish a half-done campaign, print the figure
//! campaign inspect fig8.json            # per-point tallies with Wilson intervals
//! campaign replay fig8 3 17             # re-run trial 17 of grid point 3 alone
//! ```
//!
//! `run` executes a campaign entry through `cprecycle-engine`, writing the checkpoint
//! after every completed point, so a killed run loses at most one point of work, and
//! prints the rendered figure (`--json` for the result series as JSON). `resume`
//! reloads the checkpoint, finds its entry by the campaign name, reruns only the
//! missing points (the seed tree makes the result bit-identical to an uninterrupted
//! run) and rewrites the file.

use cprecycle_engine::{
    campaign_snapshot, load_campaign, report, save_campaign, CampaignPoint, CampaignResult,
    ProgressOptions, RunOptions, TrialRecord,
};
use cprecycle_scenarios::figures::{figure, Experiment, Figure, FigureScale, Grid, FIGURES};
use cprecycle_scenarios::link::replay_link_trial;
use cprecycle_scenarios::report::ExperimentResult;
use cprecycle_scenarios::stream::replay_stream_trial;
use obs::{InMemoryRecorder, MetricsSnapshot, Recorder};
use std::path::{Path, PathBuf};
use std::process::exit;

#[derive(Default)]
struct Options {
    smoke: bool,
    json: bool,
    quiet: bool,
    trials: Option<usize>,
    threads: Option<usize>,
    seed: Option<u64>,
    out: Option<PathBuf>,
    metrics: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Options {
    let mut options = Options::default();
    while let Some(arg) = args.next() {
        let mut take = |name: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} requires a value");
                exit(2);
            })
        };
        match arg.as_str() {
            "--smoke" => options.smoke = true,
            "--json" => options.json = true,
            "--quiet" => options.quiet = true,
            "--trials" => options.trials = Some(parse_num(&take("--trials"))),
            "--threads" => options.threads = Some(parse_num(&take("--threads"))),
            "--seed" => {
                let text = take("--seed");
                options.seed = Some(parse_seed(&text).unwrap_or_else(|| {
                    eprintln!("invalid seed `{text}`");
                    exit(2);
                }));
            }
            "--out" => options.out = Some(PathBuf::from(take("--out"))),
            "--metrics" => options.metrics = Some(PathBuf::from(take("--metrics"))),
            "--help" | "-h" => {
                usage();
                exit(0);
            }
            other => options.positional.push(other.to_string()),
        }
    }
    options
}

fn parse_num(text: &str) -> usize {
    text.parse().unwrap_or_else(|_| {
        eprintln!("invalid number `{text}`");
        exit(2);
    })
}

/// A master seed in decimal or `0x` hexadecimal — the form `inspect` prints it in.
fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn usage() {
    eprintln!(
        "usage: campaign <command> [options]\n\
         \n\
         commands:\n\
         \x20 list                       list the registered tables and figures\n\
         \x20 run <name>                 run an entry and print its figure\n\
         \x20 resume <checkpoint.json>   finish an interrupted run (entry taken from the checkpoint)\n\
         \x20 inspect <checkpoint.json>  print a checkpoint's per-point tallies\n\
         \x20 replay <name> <point> <trial>  re-run one trial of a link or stream grid\n\
         \n\
         options:\n\
         \x20 --smoke          coarse grid + small trial count (default: paper scale)\n\
         \x20 --json           JSON output instead of a text table\n\
         \x20 --quiet          suppress the periodic progress line on stderr\n\
         \x20 --trials N       trials per grid point (default: figure scale)\n\
         \x20 --threads N      worker threads (default: all cores)\n\
         \x20 --seed S         master seed, decimal or 0x-hex (default: the figure seed)\n\
         \x20 --out FILE       checkpoint file (default: campaign-<name>.json for run)\n\
         \x20 --metrics FILE   also write a metrics snapshot (stage timing, trial\n\
         \x20                  throughput, worker gauges) as cpjson"
    );
}

fn scale_for(options: &Options) -> FigureScale {
    let mut scale = if options.smoke {
        FigureScale::smoke()
    } else {
        FigureScale::full()
    };
    if let Some(seed) = options.seed {
        scale.seed = seed;
    }
    scale
}

fn lookup(name: &str) -> &'static Figure {
    figure(name).unwrap_or_else(|| {
        let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        eprintln!(
            "unknown experiment `{name}`; available: {}",
            names.join(", ")
        );
        exit(2);
    })
}

/// The grid and render of a campaign entry; direct entries write no checkpoint, so
/// there is nothing to `what` for them.
fn campaign_of(
    figure: &Figure,
    what: &str,
) -> (Grid, fn(&FigureScale, &CampaignResult) -> ExperimentResult) {
    match figure.experiment {
        Experiment::Campaign { grid, render } => (grid, render),
        Experiment::Direct(_) => {
            eprintln!(
                "`{}` is a direct experiment with no trials and no checkpoint: \
                 there is nothing to {what}",
                figure.name
            );
            exit(2);
        }
    }
}

fn emit(result: &ExperimentResult, json: bool) {
    if json {
        println!("{}", result.to_json());
    } else {
        print!("{}", result.to_table());
    }
}

fn write_metrics(path: &Path, snapshot: MetricsSnapshot) {
    match std::fs::write(path, snapshot.to_json_string()) {
        Ok(()) => eprintln!("metrics snapshot written to {}", path.display()),
        Err(e) => eprintln!("warning: metrics write failed: {e}"),
    }
}

fn run_with_checkpoints(
    figure: &Figure,
    options: &Options,
    resume_from: Option<CampaignResult>,
    out: PathBuf,
) {
    let (grid, render) = campaign_of(figure, "run");
    let scale = scale_for(options);
    let mut config = grid
        .config(figure.name, &scale)
        .threads(options.threads.unwrap_or(0));
    if let Some(trials) = options.trials {
        config = config.trials(trials);
    }
    let sink_path = out.clone();
    let sink = move |snapshot: &CampaignResult| {
        if let Err(e) = save_campaign(snapshot, &sink_path) {
            eprintln!("warning: checkpoint write failed: {e}");
        }
    };
    // One recorder feeds the whole run: the executor's per-trial spans and worker
    // gauges plus (for link grids) the receive chain's per-stage decode timing.
    let recorder = options
        .metrics
        .as_ref()
        .map(|_| InMemoryRecorder::default());
    let run_options = RunOptions {
        resume_from: resume_from.as_ref(),
        on_point_complete: Some(&sink),
        progress: (!options.quiet).then(ProgressOptions::default),
        recorder: recorder.as_ref().map(|r| r as &(dyn Recorder + Sync)),
    };
    match grid.run(&config, &scale, &run_options) {
        Ok(result) => {
            if let Err(e) = save_campaign(&result, &out) {
                eprintln!("warning: final checkpoint write failed: {e}");
            }
            emit(&render(&scale, &result), options.json);
            eprintln!("checkpoint written to {}", out.display());
            if let Some(path) = &options.metrics {
                let recorder = recorder.as_ref().map(|r| r as &dyn Recorder);
                write_metrics(path, campaign_snapshot(&result, recorder));
            }
        }
        Err(e) => {
            eprintln!("campaign failed: {e}");
            exit(1);
        }
    }
}

fn load_or_exit(path: &Path) -> CampaignResult {
    load_campaign(path).unwrap_or_else(|e| {
        eprintln!("cannot load checkpoint: {e}");
        exit(1);
    })
}

/// Re-runs trial `trial_idx` of grid point `point_idx` alone, twice, and prints each
/// arm's outcome: the second run shows the replay is self-contained.
fn replay<P: CampaignPoint>(
    points: &[P],
    replay_trial: fn(u64, &P, usize) -> cprecycle_scenarios::Result<TrialRecord>,
    metric: &str,
    seed: u64,
    point_idx: usize,
    trial_idx: usize,
) {
    let Some(point) = points.get(point_idx) else {
        eprintln!(
            "point index {point_idx} out of range (grid has {} points)",
            points.len()
        );
        exit(2);
    };
    println!(
        "replaying trial {trial_idx} of point {point_idx}: {}",
        point.label()
    );
    println!("  key: {}", point.key());
    match replay_trial(seed, point, trial_idx) {
        Ok(record) => {
            for (arm, outcome) in point.arm_labels().iter().zip(&record.arms) {
                println!(
                    "  {arm:<24} success={} {metric}={:.4}",
                    outcome.success, outcome.metric
                );
            }
            let again = replay_trial(seed, point, trial_idx).expect("replay is deterministic");
            assert_eq!(again, record);
            println!("  (verified: second replay is bit-identical)");
        }
        Err(e) => {
            eprintln!("replay failed: {e}");
            exit(1);
        }
    }
}

fn main() {
    let options = parse_args(std::env::args().skip(1));
    let Some(command) = options.positional.first().cloned() else {
        usage();
        exit(2);
    };
    let argument = |what: &str| -> String {
        options.positional.get(1).cloned().unwrap_or_else(|| {
            eprintln!("{command} requires {what}");
            exit(2);
        })
    };
    match command.as_str() {
        "list" => {
            println!("registered experiments (run with `campaign run <name>`):");
            let scale = scale_for(&options);
            for figure in FIGURES {
                let name = figure.name;
                let Experiment::Campaign { grid, .. } = &figure.experiment else {
                    println!("  {name:<14} direct (no trials, no checkpoint)");
                    continue;
                };
                let points = grid.points(&scale);
                let arms: usize = points.iter().map(|p| p.arm_labels().len()).sum();
                // The arm set of the grid (deduplicated labels): the receiver and its
                // decision stage are part of every point key, so this names exactly
                // what the campaign sweeps.
                let mut labels: Vec<String> = Vec::new();
                for label in points.iter().flat_map(|p| p.arm_labels()) {
                    if !labels.contains(&label) {
                        labels.push(label);
                    }
                }
                let trials = options
                    .trials
                    .unwrap_or(grid.config(name, &scale).trials_per_point);
                println!(
                    "  {name:<14} {:>3} points, {arms:>3} arms, {trials} trials/point at this scale",
                    points.len(),
                );
                println!("  {:<14} arms: {}", "", labels.join(" | "));
            }
        }
        "run" => {
            let name = argument("an experiment name");
            let figure = lookup(&name);
            if let Experiment::Direct(run) = figure.experiment {
                match run(&scale_for(&options)) {
                    Ok(result) => emit(&result, options.json),
                    Err(e) => {
                        eprintln!("experiment failed: {e}");
                        exit(1);
                    }
                }
                if let Some(path) = &options.metrics {
                    write_metrics(path, InMemoryRecorder::default().snapshot_now());
                }
                return;
            }
            let out = options
                .out
                .clone()
                .unwrap_or_else(|| PathBuf::from(format!("campaign-{name}.json")));
            run_with_checkpoints(figure, &options, None, out);
        }
        "resume" => {
            let path = PathBuf::from(argument("a checkpoint path"));
            let prior = load_or_exit(&path);
            let figure = lookup(&prior.name);
            let (grid, _) = campaign_of(figure, "resume");
            let done = prior.points.iter().filter(|p| p.complete).count();
            eprintln!(
                "resuming campaign `{}`: {done}/{} points already complete",
                prior.name,
                prior.points.len()
            );
            // The checkpoint records the master seed and trial count it was produced
            // with; reuse them so recorded points stay valid.
            let mut options = options;
            options.seed = Some(prior.master_seed);
            options.trials = Some(prior.trials_per_point);
            // The grid scale is not recorded in the checkpoint, and a scale mismatch
            // means no point key matches — the run would silently recompute everything.
            // Detect which scale the recorded keys came from and resume with it.
            if !options.smoke {
                let matches = |scale: &FigureScale| {
                    let grid = grid.points(scale);
                    prior
                        .points
                        .iter()
                        .filter(|p| p.complete && grid.iter().any(|g| g.key() == p.key))
                        .count()
                };
                let full_scale = scale_for(&options);
                if done > 0 && matches(&full_scale) == 0 && matches(&FigureScale::smoke()) > 0 {
                    eprintln!(
                        "note: recorded points match the --smoke grid, not the full grid; \
                         resuming at smoke scale"
                    );
                    options.smoke = true;
                }
            }
            run_with_checkpoints(figure, &options, Some(prior), path);
        }
        "inspect" => {
            let result = load_or_exit(Path::new(&argument("a checkpoint path")));
            if options.json {
                println!("{}", report::render_json(&result));
            } else {
                print!("{}", report::render_text(&result));
            }
        }
        "replay" => {
            let (Some(name), Some(point_idx), Some(trial_idx)) = (
                options.positional.get(1),
                options.positional.get(2),
                options.positional.get(3),
            ) else {
                eprintln!("replay requires: <name> <point index> <trial index>");
                exit(2);
            };
            let (grid, _) = campaign_of(lookup(name), "replay");
            let scale = scale_for(&options);
            let (point_idx, trial_idx) = (parse_num(point_idx), parse_num(trial_idx));
            match grid {
                Grid::Link(grid) => replay(
                    &grid(&scale),
                    replay_link_trial,
                    "symbol_error_rate",
                    scale.seed,
                    point_idx,
                    trial_idx,
                ),
                Grid::Stream(grid) => replay(
                    &grid(&scale),
                    replay_stream_trial,
                    "recovered_fraction",
                    scale.seed,
                    point_idx,
                    trial_idx,
                ),
                Grid::Neighbors => {
                    eprintln!(
                        "`{name}` trials are building realizations with no receiver to \
                         replay; replay takes a link or stream grid"
                    );
                    exit(2);
                }
            }
        }
        other => {
            eprintln!("unknown command `{other}`");
            usage();
            exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{parse_args, parse_seed, scale_for};
    use cprecycle_scenarios::figures::FigureScale;

    fn options(args: &[&str]) -> super::Options {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn scale_is_full_by_default_and_smoke_on_request() {
        let full = scale_for(&options(&["run", "fig8"]));
        assert_eq!(full.packets, FigureScale::full().packets);
        assert!(!full.coarse);
        let smoke = options(&["run", "fig8", "--smoke", "--json", "--seed", "0x2a"]);
        assert!(smoke.json);
        assert_eq!(smoke.positional, ["run", "fig8"]);
        let scale = scale_for(&smoke);
        assert_eq!(scale.packets, FigureScale::smoke().packets);
        assert!(scale.coarse);
        assert_eq!(scale.seed, 42);
    }

    #[test]
    fn seed_parses_in_the_notation_reports_print() {
        let printed = format!("{:#x}", 0xC0FFEE_u64);
        assert_eq!(printed, "0xc0ffee");
        assert_eq!(parse_seed(&printed), Some(0xC0FFEE));
        assert_eq!(parse_seed("0XC0FFEE"), Some(0xC0FFEE));
        assert_eq!(parse_seed("12648430"), Some(0xC0FFEE));
        assert_eq!(parse_seed("0x"), None);
        assert_eq!(parse_seed("c0ffee"), None);
        assert_eq!(parse_seed("-1"), None);
    }
}
