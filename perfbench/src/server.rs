//! `server_fanin`: `RxServer<StandardReceiver>` with 2 workers and 64 sessions,
//! fed by one generator thread.
//!
//! Each round pushes one whole station capture into every session, chunk by
//! chunk and round-robin across sessions; 8 distinct captures are shared by the
//! 64 sessions. Phase A is a closed loop (blocking `push`, then `drain`), run as
//! a few trials whose best rate is the peak. Phase B is an open loop at a fixed
//! offered rate, run as a few segments: each chunk has a due time, and
//! push→decode latency runs from the due time of a frame's last chunk to the
//! instant its `frame_decoded` event fires.

use crate::corpus::{self, Capture, PAYLOAD_LEN, SERVER_FRAMES};
use crate::probe::{
    best_ms_by_key, fnv1a, hd_quantile, quantile, thread_runnable_nanos, BenchRecorder, DecodeLog,
    StageTotals, Timed,
};
use crate::{Args, Outcome};
use cprecycle::{RxEvent, RxServer, RxSession, ServerConfig, SessionConfig, SessionHandle};
use obs::Recorder;
use ofdmphy::params::OfdmParams;
use ofdmphy::rx::StandardReceiver;
use std::time::{Duration, Instant};

const SESSIONS: usize = 64;
const WORKERS: usize = 2;
const DISTINCT_CAPTURES: usize = 8;
const CHUNK: usize = 480;
/// Phase B offered aggregate rate, samples/s: about a quarter of the
/// closed-loop peak of a 2-core x86-64 VM (11–16 Msps), frozen so runs compare.
/// Near half the peak, queueing made the latency percentiles swing by ±40 %
/// between runs as the VM's speed drifted.
const OPEN_LOOP_RATE: f64 = 3e6;
/// Share of the measured time given to the closed-loop phase A.
const PHASE_A_SHARE: f64 = 0.4;
/// Closed-loop trials in phase A; the best trial's rate is the peak.
const PHASE_A_TRIALS: usize = 8;
/// Open-loop segments in phase B; each latency percentile is the best segment's.
const PHASE_B_SEGMENTS: usize = 6;

type Rx = Timed<StandardReceiver>;
type Handle = SessionHandle<Rx, BenchRecorder>;

/// One decoded frame, reduced to what the checks compare.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Decoded {
    frame_start: usize,
    crc_ok: bool,
    psdu_hash: u64,
}

fn session_config() -> SessionConfig {
    SessionConfig::default()
}

/// The server under test plus the generator's view of it.
struct Fleet {
    server: RxServer<Rx, BenchRecorder>,
    handles: Vec<Handle>,
    /// Capture rounds pushed into every session so far.
    rounds: usize,
    /// Decoded frames per session, in stream order.
    decoded: Vec<Vec<Decoded>>,
}

impl Fleet {
    fn new(traced: bool) -> Fleet {
        let params = OfdmParams::ieee80211ag();
        let server = RxServer::new(ServerConfig {
            threads: WORKERS,
            ..Default::default()
        });
        let handles = (0..SESSIONS)
            .map(|_| {
                server.add_session_with_recorder(
                    Timed::new(StandardReceiver::new(params.clone())),
                    session_config(),
                    BenchRecorder::new(traced),
                )
            })
            .collect();
        Fleet {
            server,
            handles,
            rounds: 0,
            decoded: vec![Vec::new(); SESSIONS],
        }
    }

    /// Moves session `s`'s queued events out, keeping its decoded frames. The
    /// generator calls it after each session's last chunk of a round, so frames
    /// never pile up and no single pause drains all 64 sessions.
    fn collect_session(&mut self, s: usize) {
        for event in self.handles[s].drain_events() {
            if let RxEvent::FrameDecoded { frame, frame_start } = event {
                self.decoded[s].push(Decoded {
                    frame_start,
                    crc_ok: frame.crc_ok,
                    psdu_hash: fnv1a(&frame.psdu),
                });
            }
        }
    }

    fn collect_events(&mut self) {
        for s in 0..SESSIONS {
            self.collect_session(s);
        }
    }

    fn take_logs(&self) -> DecodeLog {
        let mut log = DecodeLog::default();
        for handle in &self.handles {
            log.merge(&handle.with_session(|s| s.receiver().take_log()));
        }
        log
    }

    fn queue_depth(&self) -> usize {
        self.handles.iter().map(|h| h.queue_depth()).sum()
    }
}

/// The chunks of one round, in push order: `(session, start, end)`.
fn round_order(captures: &[Capture]) -> Vec<(usize, usize, usize)> {
    let longest = captures.iter().map(|c| c.samples.len()).max().unwrap_or(0);
    let mut order = Vec::new();
    for start in (0..longest).step_by(CHUNK) {
        for s in 0..SESSIONS {
            let len = captures[s % DISTINCT_CAPTURES].samples.len();
            if start < len {
                order.push((s, start, (start + CHUNK).min(len)));
            }
        }
    }
    order
}

/// What one half-run (untraced or traced) measured.
#[derive(Default)]
struct Run {
    samples_a: usize,
    /// Aggregate samples/s of each closed-loop trial, drain included.
    trial_rates: Vec<f64>,
    frames_sent: usize,
    recovered: usize,
    recovered_a: usize,
    correct: bool,
    faults: u64,
    log_a: DecodeLog,
    log_all: DecodeLog,
    /// push→decode latencies (ms) of FCS-passing frames, per phase-B segment.
    push_decode_ms: Vec<Vec<f64>>,
    lag_ms_max: f64,
    push_ns: Vec<f64>,
    worker_busy_ns_a: u64,
    queue_depth_max: usize,
    stages: StageTotals,
    samples_total: usize,
    counters: (u64, u64, u64),
    rounds: usize,
}

impl Run {
    /// Closed-loop aggregate rate in Msps: the best trial. Other load on the
    /// machine only ever slows a trial down.
    fn peak_msps(&self) -> f64 {
        self.trial_rates.iter().copied().fold(0.0, f64::max) / 1e6
    }

    /// The `q`-quantile of push→decode latency in the best phase-B segment.
    fn push_decode_ms(&self, q: f64) -> f64 {
        self.push_decode_ms
            .iter()
            .filter(|seg| !seg.is_empty())
            .map(|seg| hd_quantile(seg, q))
            .fold(f64::INFINITY, f64::min)
    }
}

fn run_half(captures: &[Capture], budget: Duration, traced: bool) -> Run {
    let mut fleet = Fleet::new(traced);
    let order = round_order(captures);
    let round_samples: usize = (0..SESSIONS)
        .map(|s| captures[s % DISTINCT_CAPTURES].samples.len())
        .sum();
    let mut run = Run {
        correct: true,
        ..Default::default()
    };

    // Phase A: closed-loop trials, each pushing whole rounds and then draining.
    let trial_budget = budget.mul_f64(PHASE_A_SHARE / PHASE_A_TRIALS as f64);
    let busy_before = thread_runnable_nanos("rx-pool-");
    for _ in 0..PHASE_A_TRIALS {
        let started = Instant::now();
        let first_round = fleet.rounds;
        while fleet.rounds == first_round || started.elapsed() < trial_budget {
            for (i, &(s, lo, hi)) in order.iter().enumerate() {
                let capture = &captures[s % DISTINCT_CAPTURES];
                let t = Instant::now();
                if fleet.handles[s].push(&capture.samples[lo..hi]).is_err() {
                    run.faults += 1;
                }
                if traced {
                    run.push_ns.push(t.elapsed().as_nanos() as f64);
                    if i % SESSIONS == 0 {
                        run.queue_depth_max = run.queue_depth_max.max(fleet.queue_depth());
                    }
                }
                if hi == capture.samples.len() {
                    fleet.collect_session(s);
                }
            }
            fleet.rounds += 1;
        }
        fleet.server.drain();
        let samples = (fleet.rounds - first_round) * round_samples;
        run.trial_rates
            .push(samples as f64 / started.elapsed().as_secs_f64());
    }
    run.worker_busy_ns_a = thread_runnable_nanos("rx-pool-").saturating_sub(busy_before);
    run.samples_a = fleet.rounds * round_samples;
    let rounds_a = fleet.rounds;
    fleet.collect_events();
    run.log_a = fleet.take_logs();

    // Phase B: open-loop segments at OPEN_LOOP_RATE; `due[s]` lists, per
    // session, each chunk's stream-absolute start, due time and segment.
    let segment_secs = budget.mul_f64(1.0 - PHASE_A_SHARE).as_secs_f64() / PHASE_B_SEGMENTS as f64;
    let mut due: Vec<Vec<(usize, Instant, usize)>> = vec![Vec::new(); SESSIONS];
    for segment in 0..PHASE_B_SEGMENTS {
        let origin = Instant::now();
        let mut offered = 0usize;
        let first_round = fleet.rounds;
        while fleet.rounds == first_round || (offered as f64 / OPEN_LOOP_RATE) < segment_secs {
            for &(s, lo, hi) in &order {
                let at = origin + Duration::from_secs_f64(offered as f64 / OPEN_LOOP_RATE);
                offered += hi - lo;
                let now = Instant::now();
                if now < at {
                    std::thread::sleep(at - now);
                }
                let lag = Instant::now().saturating_duration_since(at);
                run.lag_ms_max = run.lag_ms_max.max(lag.as_secs_f64() * 1e3);
                let capture = &captures[s % DISTINCT_CAPTURES];
                due[s].push((fleet.rounds * capture.samples.len() + lo, at, segment));
                if fleet.handles[s].push(&capture.samples[lo..hi]).is_err() {
                    run.faults += 1;
                }
                if hi == capture.samples.len() {
                    fleet.collect_session(s);
                }
            }
            fleet.rounds += 1;
        }
        fleet.server.drain();
    }
    fleet.collect_events();
    run.rounds = fleet.rounds;
    run.samples_total = fleet.rounds * round_samples;

    // push→decode latency of the phase-B frames that passed their FCS.
    run.push_decode_ms = vec![Vec::new(); PHASE_B_SEGMENTS];
    for (s, handle) in fleet.handles.iter().enumerate() {
        let capture = &captures[s % DISTINCT_CAPTURES];
        for (at, crc_ok, decoded_at) in handle.with_session(|x| x.recorder().take_decoded()) {
            let at = at as usize;
            let Some(sent) = sent_frame(capture, at) else {
                continue;
            };
            let last = at + sent.len - 1;
            let idx = due[s].partition_point(|(start, _, _)| *start <= last);
            if crc_ok && idx > 0 {
                let (_, due_at, segment) = due[s][idx - 1];
                let ms = decoded_at.saturating_duration_since(due_at).as_secs_f64() * 1e3;
                run.push_decode_ms[segment].push(ms);
            }
        }
    }

    check(captures, &fleet, rounds_a, &mut run);
    run.log_all = run.log_a.clone();
    run.log_all.merge(&fleet.take_logs());
    if traced {
        for handle in &fleet.handles {
            let snapshot = handle.with_session(|x| x.recorder().snapshot());
            run.stages.merge(&StageTotals::from_snapshot(snapshot));
        }
        let snap = fleet.server.metrics_snapshot();
        run.counters = (
            snap.counter("ring_full_rejections"),
            snap.counter("pool_steals"),
            snap.counter("chunk_pool_misses"),
        );
    }
    for handle in &fleet.handles {
        if handle.take_error().is_some() {
            run.faults += 1;
        }
    }
    fleet.server.shutdown();
    run
}

/// The sent frame a detection at stream index `at` belongs to.
fn sent_frame(capture: &Capture, at: usize) -> Option<&corpus::SentFrame> {
    let offset = at % capture.samples.len();
    capture
        .frames
        .iter()
        .find(|f| f.start.abs_diff(offset) <= 64)
}

/// Checks every session: each FCS-passing payload is the one sent at that
/// position, and the decoded sequence equals a standalone `RxSession` fed the
/// same chunks (server ≡ standalone). Also counts recoveries.
fn check(captures: &[Capture], fleet: &Fleet, rounds_a: usize, run: &mut Run) {
    let standalone = standalone_replays(captures, fleet.rounds);
    for (s, decoded) in fleet.decoded.iter().enumerate() {
        let capture = &captures[s % DISTINCT_CAPTURES];
        if *decoded != standalone[s % DISTINCT_CAPTURES] {
            run.correct = false;
        }
        for d in decoded.iter().filter(|d| d.crc_ok) {
            let sent = sent_frame(capture, d.frame_start);
            if sent.is_none_or(|f| fnv1a(&ofdmphy::crc::append_fcs(&f.payload)) != d.psdu_hash) {
                run.correct = false;
                continue;
            }
            run.recovered += 1;
            if d.frame_start / capture.samples.len() < rounds_a {
                run.recovered_a += 1;
            }
        }
    }
    run.frames_sent = SESSIONS * fleet.rounds * SERVER_FRAMES;
}

/// Decoded frames of a standalone session fed `rounds` repetitions of each
/// distinct capture in the server's chunking; two threads.
fn standalone_replays(captures: &[Capture], rounds: usize) -> Vec<Vec<Decoded>> {
    let replay = |capture: &Capture| -> Vec<Decoded> {
        let params = OfdmParams::ieee80211ag();
        let mut session = RxSession::with_config(StandardReceiver::new(params), session_config());
        let mut decoded = Vec::new();
        for _ in 0..rounds {
            for chunk in capture.samples.chunks(CHUNK) {
                session.push(chunk).expect("standalone session push");
                for event in session.drain_events() {
                    if let RxEvent::FrameDecoded { frame, frame_start } = event {
                        decoded.push(Decoded {
                            frame_start,
                            crc_ok: frame.crc_ok,
                            psdu_hash: fnv1a(&frame.psdu),
                        });
                    }
                }
            }
        }
        decoded
    };
    let (even, odd): (Vec<_>, Vec<_>) = captures[..DISTINCT_CAPTURES]
        .iter()
        .enumerate()
        .partition(|(i, _)| i % 2 == 0);
    let (a, b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| even.iter().map(|(_, c)| replay(c)).collect::<Vec<_>>());
        let b = odd.iter().map(|(_, c)| replay(c)).collect::<Vec<_>>();
        (a.join().expect("replay thread"), b)
    });
    a.into_iter().zip(b).flat_map(|(x, y)| [x, y]).collect()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut captures = Vec::new();
    for _ in 0..args.setup_reps() {
        let t = Instant::now();
        captures =
            corpus::server_captures(args.seed, DISTINCT_CAPTURES).map_err(|e| e.to_string())?;
        let fleet = Fleet::new(false);
        setups.push(t.elapsed().as_secs_f64());
        fleet.server.shutdown();
    }
    let mut out = Outcome::new(&setups);
    if !args.trace {
        let run = run_half(&captures, args.budget(), false);
        let peak = run.peak_msps();
        // Each distinct frame (8 captures × 4) at its fastest decode.
        let frame_ms = best_ms_by_key(&run.log_a.frames);
        let e = &mut out.end_to_end;
        e.set("server_msps_peak", peak);
        e.set("decode_msps", peak / WORKERS as f64);
        // Payload bits recovered per pushed sample in phase A, at the peak rate.
        let bits = (run.recovered_a * PAYLOAD_LEN * 8) as f64;
        e.set("goodput_mbps", peak * bits / run.samples_a as f64);
        e.set("psr", run.recovered as f64 / run.frames_sent as f64);
        e.set("frame_ms_p50", hd_quantile(&frame_ms, 0.5));
        e.set("frame_ms_p95", hd_quantile(&frame_ms, 0.95));
        out.correct = run.correct;
        out.attempted = run.frames_sent as u64;
        out.failed = run.faults + run.log_all.faults;
        let rates: Vec<String> = run
            .trial_rates
            .iter()
            .map(|r| format!("{:.2}", r / 1e6))
            .collect();
        let open_loop_frames: usize = run.push_decode_ms.iter().map(Vec::len).sum();
        out.note(format!(
            "sessions={SESSIONS} workers={WORKERS} captures={DISTINCT_CAPTURES} rounds={} closed_loop_trials_msps=[{}] open_loop_rate_msps={} open_loop_frames={open_loop_frames} push_decode_ms_p50={} push_decode_ms_p99={} lag_ms_max={:.3}",
            run.rounds,
            rates.join(", "),
            OPEN_LOOP_RATE / 1e6,
            run.push_decode_ms(0.5),
            run.push_decode_ms(0.99),
            run.lag_ms_max
        ));
    } else {
        let half = args.budget() / 2;
        let plain = run_half(&captures, half, false);
        let traced = run_half(&captures, half, true);
        let samples = traced.samples_total as f64;
        let per_sample = |stage: &str| traced.stages.nanos(stage) as f64 / samples;
        let l = &mut out.per_layer;
        l.set("decision.decide.ns_per_sample", per_sample("decide"));
        l.set("receiver.sync.ns_per_sample", per_sample("sync"));
        l.set("viterbi.bits.ns_per_sample", per_sample("bits"));
        l.set(
            "receiver.unattributed.ns_per_sample",
            traced.log_all.busy_ns.saturating_sub(traced.stages.total()) as f64 / samples,
        );
        l.set(
            "receiver.signal_failures",
            traced.log_all.signal_failures as f64,
        );
        l.set(
            "session.self.ns_per_sample",
            traced.worker_busy_ns_a.saturating_sub(traced.log_a.busy_ns) as f64
                / traced.samples_a as f64,
        );
        l.set(
            "session.decode_calls_per_frame",
            traced.log_all.calls as f64 / traced.frames_sent as f64,
        );
        l.set(
            "server.push.ns_per_chunk_p50",
            quantile(&traced.push_ns, 0.5),
        );
        l.set("server.push_decode_ms_p50", traced.push_decode_ms(0.5));
        l.set("server.push_decode_ms_p99", traced.push_decode_ms(0.99));
        l.set(
            "server.service.ns_per_sample",
            traced.worker_busy_ns_a as f64 / traced.samples_a as f64,
        );
        l.set("server.ring_full_rejections", traced.counters.0 as f64);
        l.set("server.pool_steals", traced.counters.1 as f64);
        l.set("server.chunk_pool_misses", traced.counters.2 as f64);
        l.set("server.queue_depth_max", traced.queue_depth_max as f64);
        l.set("loadgen.lag_ms_max", traced.lag_ms_max);
        l.set(
            "trace.overhead_pct",
            (plain.peak_msps() / traced.peak_msps() - 1.0) * 100.0,
        );
        out.correct = plain.correct && traced.correct;
        out.attempted = (plain.frames_sent + traced.frames_sent) as u64;
        out.failed = plain.faults + plain.log_all.faults + traced.faults + traced.log_all.faults;
    }
    Ok(out)
}
