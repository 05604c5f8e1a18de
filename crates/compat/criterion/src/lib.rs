//! Offline drop-in subset of the [`criterion`](https://crates.io/crates/criterion)
//! benchmark harness.
//!
//! The build environment has no crates.io access, so this crate reimplements the small
//! part of the criterion API the workspace's benches use: benchmark groups,
//! `bench_function` / `bench_with_input`, [`BenchmarkId`], the `criterion_group!` /
//! `criterion_main!` macros and [`black_box`].
//!
//! Measurement strategy: each benchmark is auto-calibrated so one sample takes roughly
//! [`TARGET_SAMPLE_NANOS`], then `sample_size` samples are collected (bounded by a
//! per-benchmark time budget) and the median, minimum and maximum per-iteration times
//! are printed. No plots, no statistics beyond that — enough for regression eyeballing
//! and for CI smoke runs, not for publication-grade statistics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Target wall-clock duration of one sample (batch of iterations).
pub const TARGET_SAMPLE_NANOS: u64 = 20_000_000;

/// Hard per-benchmark time budget, so whole suites stay fast.
pub const BENCH_BUDGET: Duration = Duration::from_secs(3);

/// Prevents the optimizer from deleting a value or the computation producing it.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Identifier of one benchmark within a group, e.g. `cprecycle/16`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id with a function name and a parameter, rendered as `name/param`.
    pub fn new(name: impl Display, param: impl Display) -> Self {
        BenchmarkId {
            id: format!("{name}/{param}"),
        }
    }

    /// An id consisting of a parameter only.
    pub fn from_parameter(param: impl Display) -> Self {
        BenchmarkId {
            id: param.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

/// The timing driver handed to benchmark closures.
pub struct Bencher {
    iters_per_sample: u64,
    samples: usize,
    /// Smoke mode (upstream criterion's `--test` flag): run the closure once to prove
    /// it executes, skip calibration and measurement entirely.
    test_mode: bool,
    /// Median/min/max nanoseconds per iteration, filled by `iter`.
    result: Option<(f64, f64, f64)>,
}

impl Bencher {
    /// Runs `f` repeatedly and records per-iteration timing.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        if self.test_mode {
            black_box(f());
            return;
        }
        // Calibration: find an iteration count that makes one sample ~TARGET_SAMPLE_NANOS.
        let mut iters = 1u64;
        let per_iter_estimate = loop {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = start.elapsed().as_nanos() as u64;
            if elapsed > 1_000_000 || iters >= 1 << 20 {
                break (elapsed.max(1)) as f64 / iters as f64;
            }
            iters *= 4;
        };
        let iters_per_sample =
            ((TARGET_SAMPLE_NANOS as f64 / per_iter_estimate).ceil() as u64).clamp(1, 1 << 24);
        self.iters_per_sample = iters_per_sample;

        let budget_start = Instant::now();
        let mut per_iter: Vec<f64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(f());
            }
            let nanos = start.elapsed().as_nanos() as f64;
            per_iter.push(nanos / iters_per_sample as f64);
            if budget_start.elapsed() > BENCH_BUDGET {
                break;
            }
        }
        per_iter.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
        let median = per_iter[per_iter.len() / 2];
        let min = per_iter[0];
        let max = *per_iter.last().expect("at least one sample");
        self.result = Some((median, min, max));
    }
}

fn format_nanos(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// A named set of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    criterion: &'a mut Criterion,
}

impl<'a> BenchmarkGroup<'a> {
    /// Sets the number of samples collected per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    fn run_one(&mut self, id: &str, f: &mut dyn FnMut(&mut Bencher)) {
        let test_mode = self.criterion.test_mode;
        let mut bencher = Bencher {
            iters_per_sample: 1,
            samples: self.sample_size,
            test_mode,
            result: None,
        };
        f(&mut bencher);
        if test_mode {
            println!("{}/{}: test passed (1 iteration, --test)", self.name, id);
            return;
        }
        match bencher.result {
            Some((median, min, max)) => {
                println!(
                    "{:<40} time: [{} {} {}]  ({} iters/sample)",
                    format!("{}/{}", self.name, id),
                    format_nanos(min),
                    format_nanos(median),
                    format_nanos(max),
                    bencher.iters_per_sample,
                );
            }
            None => println!("{}/{}: closure never called iter()", self.name, id),
        }
    }

    /// Benchmarks a closure.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Display,
        mut f: F,
    ) -> &mut Self {
        self.run_one(&id.to_string(), &mut f);
        self
    }

    /// Benchmarks a closure that receives a borrowed input.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        self.run_one(&id.to_string(), &mut |b| f(b, input));
        self
    }

    /// Ends the group (upstream criterion computes group statistics here; this
    /// implementation prints per-benchmark lines eagerly, so it is a no-op).
    pub fn finish(self) {}
}

/// The benchmark harness entry point.
///
/// `Default` reads the process arguments: `--test` (upstream criterion's smoke flag,
/// `cargo bench -- --test`) switches every benchmark to a single untimed iteration so
/// CI can prove bench code still runs without paying for measurement.
pub struct Criterion {
    test_mode: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            test_mode: std::env::args().any(|a| a == "--test"),
        }
    }
}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 10,
            criterion: self,
        }
    }

    /// Benchmarks a single closure outside a group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl Display, f: F) -> &mut Self {
        let name = id.to_string();
        let mut group = self.benchmark_group(name.clone());
        group.bench_function("-", f);
        group.finish();
        self
    }
}

/// Declares a benchmark group function, mirroring criterion's macro of the same name.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the benchmark binary's `main`, mirroring criterion's macro of the same name.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_measures_and_prints() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("smoke");
        group.sample_size(2);
        group.bench_function("add", |b| b.iter(|| black_box(1u64) + black_box(2u64)));
        group.bench_with_input(BenchmarkId::new("sum", 8), &8usize, |b, n| {
            b.iter(|| (0..*n).sum::<usize>())
        });
        group.finish();
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("f", 3).to_string(), "f/3");
        assert_eq!(BenchmarkId::from_parameter("x").to_string(), "x");
    }

    #[test]
    fn test_mode_runs_each_benchmark_once() {
        let mut c = Criterion { test_mode: true };
        let mut calls = 0usize;
        let mut group = c.benchmark_group("smoke");
        group.bench_function("counted", |b| {
            b.iter(|| {
                calls += 1;
            })
        });
        group.finish();
        assert_eq!(calls, 1, "--test must run the closure exactly once");
    }
}
