//! Bench-side instrumentation: everything here observes the program from the
//! outside, through its public traits, without adding spans inside it.
//!
//! * [`Timed`] wraps any [`FrameReceiver`] and clocks each `decode_stream` call.
//! * [`BenchRecorder`] is the [`Recorder`] sessions report into: in an untraced
//!   run `enabled()` stays `false` (the receiver's stage timers stay off) and it
//!   only stamps the instant each `frame_decoded` trace event fires; in a traced
//!   run it also forwards the receiver's existing stage spans into an
//!   [`InMemoryRecorder`].
//! * [`StageTotals`] folds those spans into per-stage nanosecond totals.

use obs::{InMemoryRecorder, MetricsSnapshot, Recorder, Span, TraceEvent};
use ofdmphy::params::OfdmParams;
use ofdmphy::rx::{FrameInfo, FrameReceiver, ModelPersistence, RxFrame};
use ofdmphy::PhyError;
use rfdsp::Complex;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// What a [`Timed`] receiver saw: one entry per `decode_stream` call.
#[derive(Debug, Clone, Default)]
pub struct DecodeLog {
    /// `decode_stream` calls, whatever their outcome.
    pub calls: u64,
    /// Wall time spent inside those calls.
    pub busy_ns: u64,
    /// `(PSDU hash, duration)` of each call that returned a frame (FCS pass or
    /// fail); the hash identifies a frame across repeated decodes.
    pub frames: Vec<(u64, u64)>,
    /// Calls whose SIGNAL field (or anything after it) failed to decode.
    pub signal_failures: u64,
    /// Calls that failed for a reason other than a lost frame — a program fault.
    pub faults: u64,
}

impl DecodeLog {
    fn record(&mut self, nanos: u64, outcome: &ofdmphy::Result<RxFrame>) {
        self.calls += 1;
        self.busy_ns += nanos;
        match outcome {
            Ok(frame) => self.frames.push((fnv1a(&frame.psdu), nanos)),
            Err(PhyError::DecodeFailure(_)) => self.signal_failures += 1,
            // A partial buffer: the session waits for more samples and retries.
            Err(PhyError::InsufficientSamples { .. }) => {}
            Err(_) => self.faults += 1,
        }
    }

    /// Folds another log into this one.
    pub fn merge(&mut self, other: &DecodeLog) {
        self.calls += other.calls;
        self.busy_ns += other.busy_ns;
        self.frames.extend_from_slice(&other.frames);
        self.signal_failures += other.signal_failures;
        self.faults += other.faults;
    }
}

/// A [`FrameReceiver`] that forwards to `inner` and clocks every decode call.
#[derive(Debug)]
pub struct Timed<R> {
    inner: R,
    log: Mutex<DecodeLog>,
}

impl<R> Timed<R> {
    pub fn new(inner: R) -> Self {
        Timed {
            inner,
            log: Mutex::new(DecodeLog::default()),
        }
    }

    /// Takes the log accumulated so far, leaving an empty one.
    pub fn take_log(&self) -> DecodeLog {
        std::mem::take(&mut *self.log.lock().expect("decode log poisoned"))
    }
}

impl<R: FrameReceiver> FrameReceiver for Timed<R> {
    type Stream = R::Stream;

    fn params(&self) -> &OfdmParams {
        self.inner.params()
    }

    fn new_stream(&self, persistence: ModelPersistence) -> R::Stream {
        self.inner.new_stream(persistence)
    }

    fn begin_frame(&self, stream: &mut R::Stream) {
        self.inner.begin_frame(stream)
    }

    fn decode_stream(
        &self,
        stream: &mut R::Stream,
        samples: &[Complex],
        frame_start: usize,
        info: Option<FrameInfo>,
    ) -> ofdmphy::Result<RxFrame> {
        self.decode_stream_observed(stream, samples, frame_start, info, &obs::NoopRecorder)
    }

    fn decode_stream_observed<O: Recorder>(
        &self,
        stream: &mut R::Stream,
        samples: &[Complex],
        frame_start: usize,
        info: Option<FrameInfo>,
        obs: &O,
    ) -> ofdmphy::Result<RxFrame> {
        let started = Instant::now();
        let outcome = self
            .inner
            .decode_stream_observed(stream, samples, frame_start, info, obs);
        let nanos = started.elapsed().as_nanos() as u64;
        self.log
            .lock()
            .expect("decode log poisoned")
            .record(nanos, &outcome);
        outcome
    }
}

/// The recorder every benchmarked session reports into.
#[derive(Debug, Default)]
pub struct BenchRecorder {
    /// Stage spans and counters, present only in a traced run.
    stages: Option<InMemoryRecorder>,
    /// Every `frame_decoded` event: stream-absolute frame start, FCS verdict,
    /// and the instant it fired.
    decoded: Mutex<Vec<(u64, bool, Instant)>>,
}

impl BenchRecorder {
    pub fn new(traced: bool) -> Self {
        BenchRecorder {
            stages: traced.then(InMemoryRecorder::default),
            decoded: Mutex::new(Vec::new()),
        }
    }

    /// Takes the decode stamps recorded so far, oldest first.
    pub fn take_decoded(&self) -> Vec<(u64, bool, Instant)> {
        std::mem::take(&mut *self.decoded.lock().expect("stamps poisoned"))
    }
}

impl Recorder for BenchRecorder {
    fn enabled(&self) -> bool {
        self.stages.is_some()
    }

    fn counter(&self, name: &'static str, delta: u64) {
        if let Some(stages) = &self.stages {
            stages.counter(name, delta);
        }
    }

    fn stage_nanos(&self, span: Span, nanos: u64) {
        if let Some(stages) = &self.stages {
            stages.stage_nanos(span, nanos);
        }
    }

    fn trace(&self, event: TraceEvent) {
        if event.kind == "frame_decoded" {
            let now = Instant::now();
            self.decoded
                .lock()
                .expect("stamps poisoned")
                .push((event.at, event.value != 0, now));
        }
    }

    fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.stages.as_ref().and_then(|s| s.snapshot())
    }
}

/// Total nanoseconds per receiver stage (`sync`, `model_train`, `model_update`,
/// `extract`, `decide`, `bits`), summed over the span keys.
#[derive(Debug, Clone, Default)]
pub struct StageTotals(BTreeMap<String, u64>);

impl StageTotals {
    pub fn from_snapshot(snapshot: Option<MetricsSnapshot>) -> Self {
        let mut totals = StageTotals::default();
        for stage in snapshot.map(|s| s.stages).unwrap_or_default() {
            *totals.0.entry(stage.stage).or_insert(0) += stage.histogram.sum();
        }
        totals
    }

    pub fn merge(&mut self, other: &StageTotals) {
        for (stage, nanos) in &other.0 {
            *self.0.entry(stage.clone()).or_insert(0) += nanos;
        }
    }

    pub fn nanos(&self, stage: &str) -> u64 {
        self.0.get(stage).copied().unwrap_or(0)
    }

    /// Sum over every stage.
    pub fn total(&self) -> u64 {
        self.0.values().sum()
    }
}

/// The `q`-quantile (0–1) of `values` by linear interpolation between order
/// statistics; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The `q`-quantile of `values` by the Harrell–Davis estimator: a weighted mean of
/// all order statistics, with Beta(q(n+1), (1−q)(n+1)) weights. Unlike a single
/// order statistic it does not jump when `q` falls in the gap between two modes
/// of a mixed workload (QPSK and 16-QAM frames cost ~2× apart). 0 for an empty
/// slice.
pub fn hd_quantile(values: &[f64], q: f64) -> f64 {
    let n = values.len();
    if n < 2 {
        return values.first().copied().unwrap_or(0.0);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let a = q * (n + 1) as f64;
    let b = (1.0 - q) * (n + 1) as f64;
    let mut prev = 0.0;
    let mut sum = 0.0;
    for (i, v) in sorted.iter().enumerate() {
        let cdf = beta_cdf((i + 1) as f64 / n as f64, a, b);
        sum += (cdf - prev) * v;
        prev = cdf;
    }
    sum
}

/// Regularized incomplete beta function I_x(a, b) (continued fraction, as in
/// Numerical Recipes' `betai`).
fn beta_cdf(x: f64, a: f64, b: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_fraction(x, a, b) / a
    } else {
        1.0 - front * beta_fraction(1.0 - x, b, a) / b
    }
}

fn beta_fraction(x: f64, a: f64, b: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let (qab, qap, qam) = (a + b, a + 1.0, a - 1.0);
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=10_000 {
        let m = m as f64;
        let m2 = 2.0 * m;
        for aa in [
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ] {
            d = 1.0 + aa * d;
            if d.abs() < TINY {
                d = TINY;
            }
            c = 1.0 + aa / c;
            if c.abs() < TINY {
                c = TINY;
            }
            d = 1.0 / d;
            h *= d * c;
        }
        if (d * c - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// ln Γ(x) for x > 0 (Lanczos, g = 7, 9 terms).
fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let t = x + 7.5;
    let series = G[1..]
        .iter()
        .enumerate()
        .fold(G[0], |acc, (i, g)| acc + g / (x + (i + 1) as f64));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

/// FNV-1a hash of a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325, |h, b| {
        (h ^ *b as u64).wrapping_mul(0x100000001b3)
    })
}

/// The fastest duration seen per key, in milliseconds, for work that repeats.
/// Other load on the machine only ever slows a run down, so the best of a few
/// repeats is the frame's own cost.
pub fn best_ms_by_key(samples: &[(u64, u64)]) -> Vec<f64> {
    let mut best: BTreeMap<u64, u64> = BTreeMap::new();
    for &(key, nanos) in samples {
        let slot = best.entry(key).or_insert(u64::MAX);
        *slot = (*slot).min(nanos);
    }
    best.values().map(|&n| n as f64 / 1e6).collect()
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Time this process's threads whose name starts with `prefix` (the server's
/// `rx-pool-<n>` workers) have been runnable so far — on a CPU or waiting in a
/// run queue — in nanoseconds, from `/proc/self/task/*/schedstat`. Runnable
/// time is wall time minus parked time, the same clock the stage spans read.
pub fn thread_runnable_nanos(prefix: &str) -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    let mut total = 0;
    for task in tasks.flatten() {
        let dir = task.path();
        let name = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if !name.trim_end().starts_with(prefix) {
            continue;
        }
        let stat = std::fs::read_to_string(dir.join("schedstat")).unwrap_or_default();
        // Fields: on-CPU ns, run-queue wait ns, timeslices.
        total += stat
            .split_whitespace()
            .take(2)
            .filter_map(|ns| ns.parse::<u64>().ok())
            .sum::<u64>();
    }
    total
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harrell_davis_matches_plain_quantiles_on_smooth_data() {
        let values: Vec<f64> = (0..=100).map(f64::from).collect();
        assert!((hd_quantile(&values, 0.5) - 50.0).abs() < 1e-6);
        assert!((hd_quantile(&values, 0.95) - 95.0).abs() < 0.5);
        assert_eq!(hd_quantile(&[], 0.5), 0.0);
        assert_eq!(hd_quantile(&[3.0], 0.99), 3.0);
    }

    #[test]
    fn harrell_davis_median_sits_between_two_equal_modes() {
        // 50 cheap and 50 dear frames: a plain median jumps between the modes
        // as one frame moves; the Harrell–Davis median stays near their middle.
        let mut values = vec![1.0; 50];
        values.extend(vec![2.0; 50]);
        let median = hd_quantile(&values, 0.5);
        assert!((median - 1.5).abs() < 1e-9, "{median}");
        values[50] = 1.0;
        assert!((hd_quantile(&values, 0.5) - median).abs() < 0.1);
    }

    #[test]
    fn best_of_repeats_keeps_each_keys_fastest_run() {
        let ms = best_ms_by_key(&[(7, 3_000_000), (1, 2_000_000), (7, 1_000_000)]);
        assert_eq!(ms, vec![2.0, 1.0]);
    }
}
