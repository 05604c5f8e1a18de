//! Segment-extraction throughput: the sliding-DFT kernel across segment counts `P`
//! (paper §3.1 / §6). The direct per-segment FFT is the test oracle in
//! `crates/core/tests/segment_equivalence.rs` and has no bench row.

use cprecycle::segments::{extract_segments_with, SegmentScratch};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ofdmphy::chanest::ChannelEstimate;
use ofdmphy::frame::pilot_values;
use ofdmphy::modulation::Modulation;
use ofdmphy::ofdm::OfdmEngine;
use ofdmphy::params::OfdmParams;
use rand::{Rng, SeedableRng};
use rfdsp::Complex;
use wirelesschan::multipath::{FadingKind, MultipathChannel, PowerDelayProfile};

fn symbol_and_estimate(engine: &OfdmEngine, seed: u64) -> (Vec<Complex>, ChannelEstimate) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let m = Modulation::Qam16;
    let data: Vec<Complex> = (0..engine.params().num_data_subcarriers())
        .map(|_| {
            let bits: Vec<u8> = (0..4).map(|_| rng.gen_range(0..2)).collect();
            m.map(&bits).unwrap()
        })
        .collect();
    let symbol = engine.modulate(&data, &pilot_values(1.0)).unwrap();
    let pdp = PowerDelayProfile::exponential(4, 1.5).unwrap();
    let chan = MultipathChannel::realize(&pdp, FadingKind::Rayleigh, &mut rng);
    let estimate = ChannelEstimate {
        h: chan.frequency_response(engine.params().fft_size),
    };
    (symbol, estimate)
}

fn bench_segments(c: &mut Criterion) {
    let engine = OfdmEngine::new(OfdmParams::ieee80211ag());
    let (symbol, estimate) = symbol_and_estimate(&engine, 1);
    let mut group = c.benchmark_group("extract_segments");
    group.sample_size(20);
    let mut scratch = SegmentScratch::new();
    for p in [1usize, 4, 8, 16] {
        group.bench_with_input(BenchmarkId::new("sliding", p), &p, |b, &p| {
            b.iter(|| extract_segments_with(&engine, &symbol, &estimate, p, &mut scratch).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_segments);
criterion_main!(benches);
