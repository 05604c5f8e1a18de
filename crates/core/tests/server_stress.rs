//! Stress/soak test for the multi-session server, behind `--ignored` (CI runs it
//! with a short `CPRECYCLE_SOAK_SECS`; locally `cargo test -p cprecycle --test
//! server_stress --release -- --ignored` soaks for ~30 s by default).
//!
//! 64 concurrent sessions — a mix of standard receivers and CPRecycle receivers
//! with rolling interference models — are fed their own bursty captures over and
//! over in randomized chunk sizes until the deadline. The assertions:
//!
//! * **zero sync-state corruption**: every session's final counters are equal to a
//!   golden standalone replay of exactly the chunks it was fed (the chunk plan is
//!   derived from a per-session seed, so the replay regenerates it instead of
//!   recording gigabytes);
//! * **no unbounded memory growth**: a counting global allocator bounds the
//!   process-wide allocations per pushed sample (events are drained as the soak
//!   runs, like a real consumer would). The ceiling is a smoke bound — orders of
//!   magnitude above the legitimate per-frame allocations, but low enough that a
//!   leak of queued chunks, undrained events or an untrimmed carry-over buffer
//!   blows through it.

use cprecycle::server::{RxServer, ServerConfig};
use cprecycle::session::{RxSession, SessionConfig, SessionCounters};
use cprecycle::{CpRecycleConfig, CpRecycleReceiver};
use obs::Recorder;
use ofdmphy::convcode::CodeRate;
use ofdmphy::frame::{Mcs, Transmitter};
use ofdmphy::modulation::Modulation;
use ofdmphy::params::OfdmParams;
use ofdmphy::rx::{FrameInfo, FrameReceiver, ModelPersistence, RxFrame, StandardReceiver};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfdsp::Complex;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use wirelesschan::awgn::AwgnChannel;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// The test binary only counts; all real work is delegated to the system allocator.
// SAFETY: every method below delegates the actual (de)allocation to `System`
// verbatim — same layout, same pointer — so `System`'s GlobalAlloc guarantees
// carry over; the only addition is a Relaxed counter bump with no effect on
// memory management.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: forwarded to `System` with the caller's layout unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: forwarded to `System`; `ptr`/`layout` came from `alloc` above.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: forwarded to `System` with the caller's arguments unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: forwarded to `System` with the caller's layout unchanged.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

const SESSIONS: usize = 64;
/// Every 8th session runs the CPRecycle receiver with a rolling model; the rest run
/// the standard receiver so the soak exercises scheduling breadth, not just decode
/// throughput.
const CPRECYCLE_EVERY: usize = 8;
/// Upper bound on capture repetitions per session, so the golden serial replay
/// stays tractable even on very fast machines.
const MAX_ROUNDS: usize = 200;

fn soak_duration() -> Duration {
    let secs = std::env::var("CPRECYCLE_SOAK_SECS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(30);
    Duration::from_secs(secs)
}

fn params() -> OfdmParams {
    OfdmParams::ieee80211ag()
}

/// One session's repeating capture: lead noise, two frames with gaps, trailing pad.
fn station_capture(seed: u64) -> Vec<Complex> {
    let tx = Transmitter::new(params());
    let mcs = Mcs::new(Modulation::Qpsk, CodeRate::Half);
    let mut rng = StdRng::seed_from_u64(seed);
    let payloads: Vec<Vec<u8>> = (0..2)
        .map(|_| (0..40).map(|_| rng.gen()).collect())
        .collect();
    let built: Vec<_> = payloads
        .iter()
        .enumerate()
        .map(|(i, p)| tx.build_frame(p, mcs, 0x40 + i as u8).unwrap())
        .collect();
    let power = rfdsp::power::signal_power(&built[0].samples).unwrap();
    let noise_var = power / rfdsp::power::db_to_lin(28.0);
    let mut g = rfdsp::noise::GaussianSource::new();
    let lead = rng.gen_range(250..450);
    let mut capture = g.complex_vector(&mut rng, lead, noise_var);
    for frame in &built {
        capture.extend_from_slice(&frame.samples);
        let gap = rng.gen_range(150..350);
        capture.extend(g.complex_vector(&mut rng, gap, noise_var));
    }
    capture.extend(g.complex_vector(&mut rng, 300, noise_var));
    let mut chan = AwgnChannel::new();
    chan.add_noise_variance(&mut rng, &mut capture, noise_var)
        .unwrap();
    capture
}

/// Yields the chunk boundaries for one pass over a capture — shared by the soak
/// feed and the golden replay, so both see byte-identical chunk sequences.
fn chunk_spans(rng: &mut StdRng, len: usize) -> Vec<(usize, usize)> {
    const MIX: [usize; 5] = [16, 64, 160, 480, 1024];
    let mut spans = Vec::new();
    let mut at = 0;
    while at < len {
        let want = MIX[rng.gen_range(0..MIX.len())];
        let end = (at + want).min(len);
        spans.push((at, end));
        at = end;
    }
    spans
}

fn config_for_kind(cprecycle: bool) -> SessionConfig {
    if cprecycle {
        SessionConfig {
            persistence: ModelPersistence::Rolling,
            ..Default::default()
        }
    } else {
        SessionConfig::default()
    }
}

fn session_config(id: usize) -> SessionConfig {
    config_for_kind(id.is_multiple_of(CPRECYCLE_EVERY))
}

/// Either in-tree receiver behind one enum, so the soak can mix both families in a
/// single server (which is generic over one receiver type).
enum SoakReceiver {
    Standard(Box<StandardReceiver>),
    CpRecycle(Box<CpRecycleReceiver>),
}

enum SoakStream {
    Standard(<StandardReceiver as FrameReceiver>::Stream),
    CpRecycle(Box<<CpRecycleReceiver as FrameReceiver>::Stream>),
}

impl SoakReceiver {
    fn for_kind(cprecycle: bool) -> Self {
        if cprecycle {
            SoakReceiver::CpRecycle(Box::new(CpRecycleReceiver::new(
                params(),
                CpRecycleConfig::default(),
            )))
        } else {
            SoakReceiver::Standard(Box::new(StandardReceiver::new(params())))
        }
    }

    fn for_session(id: usize) -> Self {
        Self::for_kind(id.is_multiple_of(CPRECYCLE_EVERY))
    }
}

impl FrameReceiver for SoakReceiver {
    type Stream = SoakStream;

    fn params(&self) -> &OfdmParams {
        match self {
            SoakReceiver::Standard(r) => r.params(),
            SoakReceiver::CpRecycle(r) => r.params(),
        }
    }

    fn new_stream(&self, persistence: ModelPersistence) -> Self::Stream {
        match self {
            SoakReceiver::Standard(r) => {
                r.new_stream(persistence);
                SoakStream::Standard(())
            }
            SoakReceiver::CpRecycle(r) => {
                SoakStream::CpRecycle(Box::new(r.new_stream(persistence)))
            }
        }
    }

    fn begin_frame(&self, stream: &mut Self::Stream) {
        match (self, stream) {
            (SoakReceiver::Standard(r), SoakStream::Standard(s)) => r.begin_frame(s),
            (SoakReceiver::CpRecycle(r), SoakStream::CpRecycle(s)) => r.begin_frame(s),
            _ => unreachable!("stream built by a different receiver family"),
        }
    }

    fn decode_stream_observed<O: Recorder>(
        &self,
        stream: &mut Self::Stream,
        samples: &[Complex],
        frame_start: usize,
        info: Option<FrameInfo>,
        obs: &O,
    ) -> ofdmphy::Result<RxFrame> {
        match (self, stream) {
            (SoakReceiver::Standard(r), SoakStream::Standard(s)) => {
                r.decode_stream_observed(s, samples, frame_start, info, obs)
            }
            (SoakReceiver::CpRecycle(r), SoakStream::CpRecycle(s)) => {
                r.decode_stream_observed(s, samples, frame_start, info, obs)
            }
            _ => unreachable!("stream built by a different receiver family"),
        }
    }
}

#[test]
#[ignore = "soak test: run explicitly (CPRECYCLE_SOAK_SECS tunes the duration)"]
fn soak_64_sessions_no_corruption_no_unbounded_memory() {
    let duration = soak_duration();
    let captures: Vec<Vec<Complex>> = (0..SESSIONS)
        .map(|s| station_capture(0xC0FFEE + s as u64))
        .collect();

    // A small ingress bound keeps the driver paced to the receivers: the slow
    // CPRecycle sessions backpressure the feed instead of building a minutes-deep
    // backlog that shutdown (and the golden replay) would then have to chew through.
    let server: RxServer<SoakReceiver> = RxServer::new(ServerConfig {
        queue_capacity: 8,
        ..Default::default()
    });
    let handles: Vec<_> = (0..SESSIONS)
        .map(|s| server.add_session(SoakReceiver::for_session(s), session_config(s)))
        .collect();
    let mut chunk_rngs: Vec<StdRng> = (0..SESSIONS)
        .map(|s| StdRng::seed_from_u64(0xCAFE + s as u64))
        .collect();

    let alloc_base = allocations();
    let start = Instant::now();
    let mut rounds = vec![0usize; SESSIONS];
    let mut events_seen = vec![0usize; SESSIONS];
    let mut samples_fed = 0u64;
    // Round-robin: one full capture pass per session per round, randomized chunks.
    'soak: while start.elapsed() < duration {
        let mut fed_any = false;
        for s in 0..SESSIONS {
            if rounds[s] >= MAX_ROUNDS {
                continue;
            }
            fed_any = true;
            for (lo, hi) in chunk_spans(&mut chunk_rngs[s], captures[s].len()) {
                handles[s].push(&captures[s][lo..hi]).unwrap();
                samples_fed += (hi - lo) as u64;
            }
            rounds[s] += 1;
            // Drain as a real consumer would; holding events for the whole soak
            // would itself be unbounded growth.
            events_seen[s] += handles[s].drain_events().len();
        }
        if !fed_any {
            break 'soak;
        }
    }
    server.shutdown();
    for (s, h) in handles.iter().enumerate() {
        events_seen[s] += h.drain_events().len();
    }
    let alloc_spent = allocations() - alloc_base;

    // --- no unbounded memory growth -------------------------------------------
    let per_sample = alloc_spent as f64 / samples_fed as f64;
    assert!(
        per_sample < 8.0,
        "{alloc_spent} allocations over {samples_fed} samples ({per_sample:.2}/sample) — \
         queued chunks, events or carry-over buffers are accumulating"
    );

    // --- zero sync-state corruption: golden standalone replay ------------------
    for s in 0..SESSIONS {
        assert!(
            handles[s].take_error().is_none(),
            "session {s} hit a fatal error"
        );
        let soaked: SessionCounters = handles[s].counters();
        let mut golden = RxSession::with_config(SoakReceiver::for_session(s), session_config(s));
        let mut rng = StdRng::seed_from_u64(0xCAFE + s as u64);
        for _ in 0..rounds[s] {
            for (lo, hi) in chunk_spans(&mut rng, captures[s].len()) {
                golden.push(&captures[s][lo..hi]).unwrap();
            }
        }
        golden.flush().unwrap();
        assert_eq!(
            soaked,
            golden.counters(),
            "session {s}: counters diverged from the golden replay after {} rounds",
            rounds[s]
        );
        // Every queued event was delivered exactly once across the rolling drains.
        let golden_events = golden.drain_events().len();
        assert_eq!(
            events_seen[s], golden_events,
            "session {s}: delivered event count"
        );
        // The soak decoded real frames (2 per round when every frame survives).
        assert!(
            soaked.frames_decoded >= rounds[s],
            "session {s}: only {} frames decoded over {} rounds",
            soaked.frames_decoded,
            rounds[s]
        );
    }
    eprintln!(
        "soak: {} sessions, {:?}, {} samples, {} allocations ({:.3}/sample), rounds {:?}..{:?}",
        SESSIONS,
        start.elapsed(),
        samples_fed,
        alloc_spent,
        per_sample,
        rounds.iter().min().unwrap(),
        rounds.iter().max().unwrap()
    );
}

// --- 10k-session soak --------------------------------------------------------
//
// The scale test behind the shared injector and per-session queues: ten thousand
// concurrent sessions, bursty seeded chunk generators, a hard wall-clock
// deadline, and three independent oracles — golden counter replay (determinism),
// a per-sample allocation ceiling (no unbounded memory), and the merged
// metrics snapshot (the ingress-path counters actually moved).
//
// Golden replay at this scale works because sessions are grouped into a small
// number of (capture, receiver-kind) combos: every session in a combo sees a
// byte-identical chunk sequence (the span RNG is seeded by the combo, not the
// session), so one serial replay per combo pins all ~10k sessions.

const BIG_SESSIONS: usize = 10_000;
/// Distinct captures; session `s` replays capture `s % BIG_UNIQUE`.
const BIG_UNIQUE: usize = 16;
/// Every 128th session runs the CPRecycle receiver with a rolling model.
const BIG_CPRECYCLE_EVERY: usize = 128;
/// Hard cap on rounds so the golden replay stays tractable on fast machines.
const BIG_MAX_ROUNDS: usize = 40;

fn big_is_cprecycle(s: usize) -> bool {
    s.is_multiple_of(BIG_CPRECYCLE_EVERY)
}

/// A shorter station capture for the 10k soak: lead noise, ONE frame, trailing
/// pad — small enough that a full round over 10k sessions fits the CI deadline.
fn short_capture(seed: u64) -> Vec<Complex> {
    let tx = Transmitter::new(params());
    let mcs = Mcs::new(Modulation::Qpsk, CodeRate::Half);
    let mut rng = StdRng::seed_from_u64(seed);
    let payload: Vec<u8> = (0..24).map(|_| rng.gen()).collect();
    let frame = tx.build_frame(&payload, mcs, 0x70).unwrap();
    let power = rfdsp::power::signal_power(&frame.samples).unwrap();
    let noise_var = power / rfdsp::power::db_to_lin(28.0);
    let mut g = rfdsp::noise::GaussianSource::new();
    let lead = rng.gen_range(150..300);
    let mut capture = g.complex_vector(&mut rng, lead, noise_var);
    capture.extend_from_slice(&frame.samples);
    capture.extend(g.complex_vector(&mut rng, 200, noise_var));
    let mut chan = AwgnChannel::new();
    chan.add_noise_variance(&mut rng, &mut capture, noise_var)
        .unwrap();
    capture
}

#[test]
#[ignore = "10k-session soak: run explicitly (CPRECYCLE_SOAK_SECS tunes the deadline)"]
fn soak_10k_sessions_golden_replay_and_metrics() {
    let deadline = soak_duration();
    let captures: Vec<Vec<Complex>> = (0..BIG_UNIQUE)
        .map(|u| short_capture(0xB16B00 + u as u64))
        .collect();

    let server: RxServer<SoakReceiver> = RxServer::new(ServerConfig {
        queue_capacity: 4,
        ..Default::default()
    });
    let handles: Vec<_> = (0..BIG_SESSIONS)
        .map(|s| {
            server.add_session(
                SoakReceiver::for_kind(big_is_cprecycle(s)),
                config_for_kind(big_is_cprecycle(s)),
            )
        })
        .collect();
    // The span RNG is seeded by the *combo*, so every session of a combo pushes a
    // byte-identical chunk sequence and one golden replay covers them all.
    let mut chunk_rngs: Vec<StdRng> = (0..BIG_SESSIONS)
        .map(|s| StdRng::seed_from_u64(0xFEED + (s % BIG_UNIQUE) as u64))
        .collect();

    let alloc_base = allocations();
    let start = Instant::now();
    let mut rounds_done = 0usize;
    let mut events_seen = vec![0usize; BIG_SESSIONS];
    let mut samples_fed = 0u64;
    let mut chunks_fed = 0u64;
    // Deadline checked *between* rounds: every session completes the same number
    // of rounds, which is what makes the per-combo golden replay exact.
    while rounds_done < BIG_MAX_ROUNDS {
        for s in 0..BIG_SESSIONS {
            let capture = &captures[s % BIG_UNIQUE];
            for (lo, hi) in chunk_spans(&mut chunk_rngs[s], capture.len()) {
                handles[s].push(&capture[lo..hi]).unwrap();
                samples_fed += (hi - lo) as u64;
                chunks_fed += 1;
            }
            events_seen[s] += handles[s].drain_events().len();
        }
        rounds_done += 1;
        if start.elapsed() >= deadline {
            break;
        }
    }
    server.shutdown();
    for (s, h) in handles.iter().enumerate() {
        events_seen[s] += h.drain_events().len();
    }
    let alloc_spent = allocations() - alloc_base;

    // --- no unbounded memory growth -------------------------------------------
    let per_sample = alloc_spent as f64 / samples_fed as f64;
    assert!(
        per_sample < 8.0,
        "{alloc_spent} allocations over {samples_fed} samples ({per_sample:.2}/sample) — \
         queued chunks, events or carry-over buffers are accumulating"
    );

    // --- ingress-path counters moved and landed in the merged snapshot ----------
    let snap = server.metrics_snapshot();
    assert!(
        snap.counters.contains_key("ring_full_rejections"),
        "merged snapshot missing the ingress counter ring_full_rejections"
    );
    assert_eq!(
        snap.gauge("queue_depth"),
        Some(0.0),
        "no chunk outlives shutdown"
    );
    assert_eq!(snap.gauge("sessions_active"), Some(0.0));
    let serviced = snap
        .stages
        .iter()
        .find(|st| st.stage == "push_decode")
        .map_or(0, |st| st.histogram.count());
    assert_eq!(
        serviced, chunks_fed,
        "every accepted chunk was serviced exactly once"
    );
    assert_eq!(snap.counter("samples_pushed"), samples_fed);
    let p50 = snap
        .gauge("push_decode_p50_ns")
        .expect("aggregate p50 gauge");
    let p95 = snap
        .gauge("push_decode_p95_ns")
        .expect("aggregate p95 gauge");
    let p99 = snap
        .gauge("push_decode_p99_ns")
        .expect("aggregate p99 gauge");
    assert!(
        p50 <= p95 && p95 <= p99,
        "latency percentiles out of order: p50={p50} p95={p95} p99={p99}"
    );

    // --- zero sync-state corruption: golden replay, one per combo ---------------
    let mut golden: std::collections::HashMap<(usize, bool), (SessionCounters, usize)> =
        std::collections::HashMap::new();
    for s in 0..BIG_SESSIONS {
        let combo = (s % BIG_UNIQUE, big_is_cprecycle(s));
        let (want_counters, want_events) = golden.entry(combo).or_insert_with(|| {
            let mut session =
                RxSession::with_config(SoakReceiver::for_kind(combo.1), config_for_kind(combo.1));
            let mut rng = StdRng::seed_from_u64(0xFEED + combo.0 as u64);
            for _ in 0..rounds_done {
                for (lo, hi) in chunk_spans(&mut rng, captures[combo.0].len()) {
                    session.push(&captures[combo.0][lo..hi]).unwrap();
                }
            }
            session.flush().unwrap();
            let events = session.drain_events().len();
            (session.counters(), events)
        });
        assert!(
            handles[s].take_error().is_none(),
            "session {s} hit a fatal error"
        );
        let soaked = handles[s].counters();
        assert_eq!(
            &soaked, want_counters,
            "session {s} (combo {combo:?}): counters diverged from the golden replay \
             after {rounds_done} rounds"
        );
        assert_eq!(
            events_seen[s], *want_events,
            "session {s} (combo {combo:?}): delivered event count"
        );
        assert!(
            soaked.frames_decoded >= rounds_done,
            "session {s}: only {} frames decoded over {rounds_done} rounds",
            soaked.frames_decoded
        );
    }
    eprintln!(
        "10k soak: {} sessions, {} combos, {} rounds, {:?}, {} samples, \
         {} allocations ({:.3}/sample), full-queue pushes {}",
        BIG_SESSIONS,
        golden.len(),
        rounds_done,
        start.elapsed(),
        samples_fed,
        alloc_spent,
        per_sample,
        snap.counter("ring_full_rejections"),
    );
}
