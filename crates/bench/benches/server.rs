//! Multi-session server throughput: one bursty capture per session, pushed through
//! [`RxServer`] across a sessions × worker-threads × chunk-size grid.
//!
//! The quantity of interest is *aggregate* ingested samples/s: every iteration
//! pushes the whole capture into every session (round-robin chunk interleaving, the
//! access-point shape the `scenarios::stations` driver models), so
//!
//! ```text
//! aggregate Msps = sessions × capture_len / median_ns × 1000
//! ```
//!
//! with `capture_len` printed at startup (the README "Performance" table records
//! the derived figures). The scaling story CI's `BENCH_server.json` tracks: at a
//! fixed session count, `t4` over `t1` shows how much of the per-session decode
//! work the pool actually parallelises; along the session axis (up to 256
//! sessions) it shows aggregate throughput holding as streams multiply. The
//! standard receiver sweeps the full grid (its decode is cheap enough that
//! scheduling overhead is visible); one CPRecycle cell pins the decode-bound
//! regime where the pool pays off most.
//!
//! Besides the harness's `measured` records, `--json` gains two companion record
//! kinds from this bench: `samples` (per-cell ingest size, so the checker can
//! derive aggregate Msps) and `latency` (the server's aggregate push→decode
//! p50/p95/p99 from its metrics snapshot). `check_server_bench` consumes all
//! three to gate the scaling trajectory.

use cprecycle::{CpRecycleConfig, CpRecycleReceiver, RxServer, ServerConfig, SessionConfig};
use cprecycle_scenarios::stream::build_burst;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ofdmphy::convcode::CodeRate;
use ofdmphy::frame::{Mcs, Transmitter};
use ofdmphy::modulation::Modulation;
use ofdmphy::params::OfdmParams;
use ofdmphy::rx::{FrameReceiver, StandardReceiver};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rfdsp::Complex;
use std::io::Write;
use std::path::PathBuf;

/// The `--json <path>` argument the criterion harness also honours: this bench
/// appends its own companion records (per-cell ingest size, latency percentiles)
/// next to the harness's `measured` records, so `check_server_bench` can derive
/// aggregate Msps and gate the latency distribution from one file.
fn json_path() -> Option<PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
}

fn append_json(path: &Option<PathBuf>, line: &str) {
    let Some(path) = path else { return };
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| writeln!(f, "{line}"));
    if let Err(e) = written {
        eprintln!(
            "warning: could not append bench JSON to {}: {e}",
            path.display()
        );
    }
}

/// Emits the per-cell ingest size: `samples_per_iter / median_ns × 1000` is the
/// cell's aggregate Msps.
fn record_samples(path: &Option<PathBuf>, id: &str, samples_per_iter: usize) {
    append_json(
        path,
        &format!(
            "{{\"group\":\"server\",\"id\":\"{id}\",\"mode\":\"samples\",\
             \"samples_per_iter\":{samples_per_iter}}}"
        ),
    );
}

/// Emits the push→decode latency percentiles a server accumulated over its cells
/// (from the aggregate `push_decode_p*_ns` gauges of the metrics snapshot).
fn record_latency<R>(path: &Option<PathBuf>, id: &str, server: &RxServer<R>)
where
    R: FrameReceiver + Send + 'static,
    R::Stream: Send,
{
    let snap = server.metrics_snapshot();
    let (Some(p50), Some(p95), Some(p99)) = (
        snap.gauge("push_decode_p50_ns"),
        snap.gauge("push_decode_p95_ns"),
        snap.gauge("push_decode_p99_ns"),
    ) else {
        eprintln!("warning: no push_decode latency gauges for {id}");
        return;
    };
    append_json(
        path,
        &format!(
            "{{\"group\":\"server\",\"id\":\"latency/{id}\",\"mode\":\"latency\",\
             \"p50_ns\":{p50},\"p95_ns\":{p95},\"p99_ns\":{p99}}}"
        ),
    );
}

/// A bursty two-frame capture at 28 dB SNR (the equivalence suites' operating
/// point: clean enough that every frame decodes, noisy enough that detection is
/// honest work).
fn station_capture(seed: u64, frames: usize, payload_len: usize) -> Vec<Complex> {
    let params = OfdmParams::ieee80211ag();
    let tx = Transmitter::new(params);
    let mcs = Mcs::new(Modulation::Qpsk, CodeRate::Half);
    let mut rng = StdRng::seed_from_u64(seed);
    let (_payloads, victim) =
        build_burst(&tx, mcs, payload_len, frames, (120, 400), &mut rng).unwrap();
    let power = rfdsp::power::signal_power(&victim).unwrap();
    let noise_var = power / rfdsp::power::db_to_lin(28.0);
    let mut g = rfdsp::noise::GaussianSource::new();
    let noise = g.complex_vector(&mut rng, victim.len(), noise_var);
    victim
        .iter()
        .zip(noise)
        .map(|(v, n)| Complex::new(v.re + n.re, v.im + n.im))
        .collect()
}

/// Pushes the capture into every session round-robin in `chunk`-sample pieces,
/// barriers on the pool, and drains. Returns the total event count (kept live so
/// the decode work cannot be optimised away).
fn feed_all<R>(
    server: &RxServer<R>,
    handles: &[cprecycle::SessionHandle<R>],
    capture: &[Complex],
    chunk: usize,
) -> usize
where
    R: FrameReceiver + Send + 'static,
    R::Stream: Send,
{
    let mut start = 0;
    while start < capture.len() {
        let end = (start + chunk).min(capture.len());
        for handle in handles {
            handle.push(&capture[start..end]).unwrap();
        }
        start = end;
    }
    server.drain();
    handles.iter().map(|h| h.drain_events().len()).sum()
}

fn bench_server(c: &mut Criterion) {
    let params = OfdmParams::ieee80211ag();
    let capture = station_capture(7, 2, 400);
    eprintln!(
        "server bench: {} samples/session/iteration (aggregate Msps = sessions x {} / median_ns x 1000)",
        capture.len(),
        capture.len()
    );

    let mut group = c.benchmark_group("server");
    group.sample_size(10);

    // Standard receiver: sessions × threads × chunk grid. Servers stand across
    // iterations (sessions return to hunting after each burst), matching a
    // long-running access point's steady state. The high-session cells (64, 256)
    // run the realtime chunk size only — they exist to show aggregate throughput
    // holding as streams multiply, not to re-sweep the chunk axis.
    let json = json_path();
    for sessions in [1usize, 4, 8, 64, 256] {
        let chunks: &[usize] = if sessions >= 64 { &[480] } else { &[480, 4096] };
        for threads in [1usize, 4] {
            let server: RxServer<StandardReceiver> = RxServer::new(ServerConfig {
                threads,
                queue_capacity: 64,
            });
            let handles: Vec<_> = (0..sessions)
                .map(|_| {
                    server.add_session(
                        StandardReceiver::new(params.clone()),
                        SessionConfig::default(),
                    )
                })
                .collect();
            for &chunk in chunks {
                group.bench_with_input(
                    BenchmarkId::new(format!("std/s{sessions}xt{threads}"), chunk),
                    &chunk,
                    |b, &chunk| {
                        b.iter(|| {
                            let events = feed_all(&server, &handles, &capture, chunk);
                            assert!(events >= sessions);
                            events
                        });
                    },
                );
                record_samples(
                    &json,
                    &format!("std/s{sessions}xt{threads}/{chunk}"),
                    sessions * capture.len(),
                );
            }
            record_latency(&json, &format!("std/s{sessions}xt{threads}"), &server);
            server.shutdown();
        }
    }

    // CPRecycle: the decode-bound regime (sphere ML dominates, ~ms per frame), where
    // worker threads buy near-linear aggregate scaling. One cell keeps the smoke
    // job affordable; shorter payloads bound the per-iteration decode cost.
    let cp_capture = station_capture(11, 1, 120);
    eprintln!(
        "server bench: cprecycle cells ingest {} samples/session/iteration",
        cp_capture.len()
    );
    for threads in [1usize, 4] {
        let sessions = 4usize;
        let server: RxServer<CpRecycleReceiver> = RxServer::new(ServerConfig {
            threads,
            queue_capacity: 64,
        });
        let handles: Vec<_> = (0..sessions)
            .map(|_| {
                server.add_session(
                    CpRecycleReceiver::new(params.clone(), CpRecycleConfig::default()),
                    SessionConfig::default(),
                )
            })
            .collect();
        group.bench_with_input(
            BenchmarkId::new(format!("cprecycle/s{sessions}xt{threads}"), 480usize),
            &480usize,
            |b, &chunk| {
                b.iter(|| {
                    let events = feed_all(&server, &handles, &cp_capture, chunk);
                    assert!(events >= sessions);
                    events
                });
            },
        );
        record_samples(
            &json,
            &format!("cprecycle/s{sessions}xt{threads}/480"),
            sessions * cp_capture.len(),
        );
        record_latency(&json, &format!("cprecycle/s{sessions}xt{threads}"), &server);
        server.shutdown();
    }
    group.finish();
}

criterion_group!(benches, bench_server);
criterion_main!(benches);
