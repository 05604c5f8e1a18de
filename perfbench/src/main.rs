//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <link_interfered|stream_rolling|server_fanin>
//!           --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Renders a seeded corpus through `scenarios`, drives it through the public
//! receiver, session and server APIs for `--seconds`, checks the decoded
//! payloads, and prints one JSON object as the last line of stdout:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the metrics
//! are the end-to-end ones (measured untraced); with `--trace 1` they are the
//! per-layer ones, from a run split between an untraced and a traced half.
//! `--smoke` shrinks every corpus to a few frames for the self-test.

mod corpus;
mod link;
mod probe;
mod server;
mod stream;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics, as `(name, unit)`; every workload reports all of them.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("decode_msps", "Msps"),
    ("goodput_mbps", "Mbit/s"),
    ("psr", "ratio"),
    ("frame_ms_p50", "ms"),
    ("frame_ms_p95", "ms"),
    ("server_msps_peak", "Msps"),
];

/// Per-layer metrics, as `(name, unit)`. A layer a workload never enters reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("decision.decide.ns_per_sample", "ns"),
    ("decision.candidates_per_bin", "count"),
    ("interference_model.train.ns_per_sample", "ns"),
    ("interference_model.samples_per_bin", "count"),
    ("segments.extract.ns_per_sample", "ns"),
    ("receiver.sync.ns_per_sample", "ns"),
    ("viterbi.bits.ns_per_sample", "ns"),
    ("receiver.unattributed.ns_per_sample", "ns"),
    ("receiver.signal_failures", "count"),
    ("session.self.ns_per_sample", "ns"),
    ("session.decode_calls_per_frame", "ratio"),
    ("session.false_alarms_per_frame", "ratio"),
    ("server.push.ns_per_chunk_p50", "ns"),
    ("server.push_decode_ms_p50", "ms"),
    ("server.push_decode_ms_p99", "ms"),
    ("server.service.ns_per_sample", "ns"),
    ("server.ring_full_rejections", "count"),
    ("server.pool_steals", "count"),
    ("server.chunk_pool_misses", "count"),
    ("server.queue_depth_max", "count"),
    ("loadgen.lag_ms_max", "ms"),
    ("trace.overhead_pct", "%"),
];

/// The seed later gain claims are checked on, never used while tuning a change.
const HELDOUT_SEED: u64 = 20_161_212;

const WORKLOADS: &[&str] = &["link_interfered", "stream_rolling", "server_fanin"];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            smoke: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            if flag == "--smoke" {
                args.smoke = true;
                continue;
            }
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                // Negative seeds wrap, so any integer the caller picks is valid.
                "--seed" => args.seed = value.parse::<i128>().map_err(|_| bad())? as u64,
                "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}",
                WORKLOADS.join(", ")
            ));
        }
        if !args.seconds.is_finite() || args.seconds <= 0.0 {
            return Err("--seconds must be a positive number".into());
        }
        Ok(args)
    }

    /// How long the measured phase runs.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// How many times set-up is repeated (its median is `setup_s`).
    pub fn setup_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            5
        }
    }
}

/// Named metric values.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }
}

/// What a workload run reports.
pub struct Outcome {
    pub correct: bool,
    /// Frames the run attempted to decode.
    pub attempted: u64,
    /// Operations that failed as program faults (errors other than a frame lost
    /// to interference, which `psr` counts).
    pub failed: u64,
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    notes: Vec<String>,
}

impl Outcome {
    /// An outcome whose `setup_s` is the median of the set-up repetitions.
    pub fn new(setups: &[f64]) -> Self {
        let mut end_to_end = Metrics::default();
        end_to_end.set("setup_s", probe::quantile(setups, 0.5));
        let reps: Vec<String> = setups.iter().map(|s| format!("{s:.4}")).collect();
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            end_to_end,
            per_layer: Metrics::default(),
            notes: vec![format!("setup_reps_s=[{}]", reps.join(", "))],
        }
    }

    /// A human-readable line printed (as a `#` comment) before the result.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

fn json_metrics(spec: &[(&str, &str)], values: &Metrics, required: bool) -> Result<String, String> {
    let mut fields = Vec::with_capacity(spec.len());
    for (name, unit) in spec {
        let value = match values.0.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => return Err(format!("metric {name} is not finite: {v}")),
            None if required => return Err(format!("metric {name} was not measured")),
            None => 0.0,
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!("{{{}}}", fields.join(", ")))
}

fn run() -> Result<String, String> {
    let args = Args::parse()?;
    let mut out = match args.workload.as_str() {
        "link_interfered" => link::run(&args)?,
        "stream_rolling" => stream::run(&args)?,
        _ => server::run(&args)?,
    };
    out.end_to_end.set("peak_rss_mb", probe::peak_rss_mb());
    println!(
        "# perfbench workload={} seed={} heldout_seed={HELDOUT_SEED} seconds={} trace={} smoke={} nproc={} avx2={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        args.smoke,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        rfdsp::simd::avx2_available(),
    );
    for line in &out.notes {
        println!("# {line}");
    }
    let metrics = if args.trace {
        json_metrics(PER_LAYER, &out.per_layer, false)?
    } else {
        json_metrics(END_TO_END, &out.end_to_end, true)?
    };
    if !out.correct {
        // A failed check reports the failure, not numbers.
        println!(
            "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
            out.attempted, out.failed
        );
        return Err("decoded output failed the correctness check".into());
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        out.attempted, out.failed
    ))
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
