//! Recorder overhead: the zero-overhead claim of `crates/obs`, measured.
//!
//! Three layers:
//! * raw recorder primitives — a `NoopRecorder` counter/stage call against the
//!   `InMemoryRecorder` equivalents (the former should be nanoseconds-free, the
//!   latter a mutex-protected map update);
//! * a full CPRecycle frame decode through the no-op path, the `decode_frame`
//!   convenience wrapper (which is the no-op path spelled differently) and the
//!   in-memory recorder — the end-to-end cost of instrumentation on the hot loop.

use cprecycle::{CpRecycleConfig, CpRecycleReceiver, RxStream};
use criterion::{criterion_group, criterion_main, Criterion};
use obs::{InMemoryRecorder, NoopRecorder, Recorder, Span, StageTimer};
use ofdmphy::convcode::CodeRate;
use ofdmphy::frame::{Mcs, Transmitter};
use ofdmphy::modulation::Modulation;
use ofdmphy::params::OfdmParams;
use ofdmphy::rx::{FrameInfo, ModelPersistence};

fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_primitives");
    let noop = NoopRecorder;
    let live = InMemoryRecorder::default();
    group.bench_function("noop_counter_and_timer", |b| {
        b.iter(|| {
            noop.counter("frames", 1);
            let timer = StageTimer::start(&noop, Span::new("decide", "Sphere"));
            timer.finish(&noop);
        });
    });
    group.bench_function("inmemory_counter_and_timer", |b| {
        b.iter(|| {
            live.counter("frames", 1);
            let timer = StageTimer::start(&live, Span::new("decide", "Sphere"));
            timer.finish(&live);
        });
    });
    group.finish();
}

fn bench_instrumented_decode(c: &mut Criterion) {
    let params = OfdmParams::ieee80211ag();
    let tx = Transmitter::new(params.clone());
    let mcs = Mcs::new(Modulation::Qam16, CodeRate::Half);
    let payload = vec![0x5A; 400];
    let frame = tx.build_frame(&payload, mcs, 0x5D).unwrap();
    let info = FrameInfo {
        mcs,
        psdu_len: payload.len() + 4,
    };
    let rx = CpRecycleReceiver::new(params, CpRecycleConfig::default());

    let mut stream = RxStream::new(ModelPersistence::PerFrame);
    let mut group = c.benchmark_group("obs_decode");
    group.sample_size(10);
    group.bench_function("uninstrumented", |b| {
        b.iter(|| rx.decode_frame(&frame.samples, 0, Some(info)).unwrap());
    });
    group.bench_function("noop_recorder", |b| {
        b.iter(|| {
            rx.decode_frame_session_observed(
                &frame.samples,
                0,
                Some(info),
                None,
                &mut stream,
                &NoopRecorder,
            )
            .unwrap()
        });
    });
    let live = InMemoryRecorder::new(0);
    group.bench_function("inmemory_recorder", |b| {
        b.iter(|| {
            rx.decode_frame_session_observed(
                &frame.samples,
                0,
                Some(info),
                None,
                &mut stream,
                &live,
            )
            .unwrap()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_primitives, bench_instrumented_decode);
criterion_main!(benches);
