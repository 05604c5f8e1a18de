//! Seeded, replayable corpora for the three workloads.
//!
//! Every frame or capture is a pure function of `(seed, cell key, index)` through
//! [`cprecycle_engine::trial_rng`]. The link and stream cells use the
//! `scenarios` point keys and consume the RNG in exactly the order
//! `scenarios::link::run_link_trial` and `scenarios::stream::run_stream_trial` do,
//! so frame `i` of a link cell is trial `i` of that `LinkPoint` and burst `b` of
//! the stream corpus is trial `b` of that `StreamPoint`: any input the benchmark
//! decoded can be regenerated with the campaign tooling.

use cprecycle::{CpRecycleConfig, ModelPersistence};
use cprecycle_engine::{trial_rng, CampaignPoint};
use cprecycle_scenarios::interference::{AciScenario, CciScenario};
use cprecycle_scenarios::link::{LinkPoint, ReceiverKind, Scenario};
use cprecycle_scenarios::stream::{build_burst, StreamArm, StreamPoint};
use ofdmphy::convcode::CodeRate;
use ofdmphy::frame::{Mcs, Transmitter};
use ofdmphy::modulation::Modulation;
use ofdmphy::params::OfdmParams;
use rand::rngs::StdRng;
use rand::Rng;
use rfdsp::noise::GaussianSource;
use rfdsp::power::{db_to_lin, signal_power};
use rfdsp::Complex;

/// Victim payload length of every workload, in bytes.
pub const PAYLOAD_LEN: usize = 400;

pub fn qpsk() -> Mcs {
    Mcs::new(Modulation::Qpsk, CodeRate::Half)
}

pub fn qam16() -> Mcs {
    Mcs::new(Modulation::Qam16, CodeRate::Half)
}

/// Received waveform plus AWGN at `snr_db` relative to the victim's own power
/// (the clean scenario of `scenarios::link`).
fn add_noise(rng: &mut StdRng, victim: &[Complex], snr_db: f64) -> ofdmphy::Result<Vec<Complex>> {
    let noise_variance = signal_power(victim)? / db_to_lin(snr_db);
    let mut received = victim.to_vec();
    GaussianSource::new().add_awgn(rng, &mut received, noise_variance);
    Ok(received)
}

fn render(
    scenario: &Scenario,
    rng: &mut StdRng,
    params: &OfdmParams,
    victim: &[Complex],
) -> ofdmphy::Result<Vec<Complex>> {
    Ok(match scenario {
        Scenario::Clean { snr_db } => add_noise(rng, victim, *snr_db)?,
        Scenario::Aci(s) => s.render(rng, params, victim)?.received,
        Scenario::Cci(s) => s.render(rng, params, victim)?.received,
    })
}

/// One captured frame of the `link_interfered` corpus.
pub struct LinkFrame {
    pub mcs: Mcs,
    pub payload: Vec<u8>,
    /// What the receiver captures; the frame starts at sample 0.
    pub received: Vec<Complex>,
}

/// The `link_interfered` cells: clean at 30 dB SNR, the Fig. 8 adjacent
/// interferer 15 MHz away at SIR −20/−15/−10/−5/0 dB and the Fig. 11 co-channel
/// interferer at SIR 10/15 dB, each for QPSK 1/2 and 16-QAM 1/2.
pub fn link_cells() -> Vec<LinkPoint> {
    let mut scenarios = vec![("clean", Scenario::Clean { snr_db: 30.0 })];
    for sir in [-20.0, -15.0, -10.0, -5.0, 0.0] {
        let aci = AciScenario {
            sir_db: sir,
            channel_offset_hz: Some(15e6),
            ..Default::default()
        };
        scenarios.push(("aci", Scenario::Aci(aci)));
    }
    for sir in [10.0, 15.0] {
        let cci = CciScenario {
            sir_db: sir,
            ..Default::default()
        };
        scenarios.push(("cci", Scenario::Cci(cci)));
    }
    let receivers = vec![ReceiverKind::CpRecycle(CpRecycleConfig::default())];
    let mut cells = Vec::new();
    for (label, scenario) in scenarios {
        for mcs in [qpsk(), qam16()] {
            cells.push(LinkPoint::new(
                label,
                mcs,
                scenario.clone(),
                receivers.clone(),
            ));
        }
    }
    cells
}

/// Renders `per_cell` frames of every cell, interleaved cell by cell so that any
/// prefix of the corpus holds a balanced mix.
pub fn link_corpus(seed: u64, per_cell: usize) -> ofdmphy::Result<Vec<LinkFrame>> {
    let cells = link_cells();
    let keys: Vec<String> = cells.iter().map(|c| c.key()).collect();
    let tx = Transmitter::new(OfdmParams::ieee80211ag());
    let mut corpus = Vec::with_capacity(cells.len() * per_cell);
    for i in 0..per_cell {
        for (point, key) in cells.iter().zip(&keys) {
            // Same RNG consumption as `run_link_trial`: payload, scrambler seed,
            // then the scenario render.
            let mut rng = trial_rng(seed, key, i as u64);
            let payload: Vec<u8> = (0..point.payload_len).map(|_| rng.gen()).collect();
            let scramble_seed = rng.gen_range(1..=127u8);
            let frame = tx.build_frame(&payload, point.mcs, scramble_seed)?;
            let received = render(&point.scenario, &mut rng, &point.params, &frame.samples)?;
            corpus.push(LinkFrame {
                mcs: point.mcs,
                payload,
                received,
            });
        }
    }
    Ok(corpus)
}

/// One bursty capture of the `stream_rolling` corpus.
pub struct Burst {
    pub payloads: Vec<Vec<u8>>,
    pub samples: Vec<Complex>,
}

/// The `stream_rolling` point: 8-frame QPSK 1/2 bursts under the 15 MHz adjacent
/// interferer at −10 dB, streamed in 480-sample chunks at threshold 0.45 into a
/// Rolling CPRecycle session.
pub fn stream_point() -> StreamPoint {
    let aci = AciScenario {
        sir_db: -10.0,
        channel_offset_hz: Some(15e6),
        ..Default::default()
    };
    StreamPoint::new(
        "stream_rolling",
        Scenario::Aci(aci),
        vec![StreamArm::cprecycle(ModelPersistence::Rolling)],
    )
    .payload(PAYLOAD_LEN)
    .frames(8)
}

/// Renders `bursts` captures of [`stream_point`].
pub fn stream_corpus(seed: u64, bursts: usize) -> ofdmphy::Result<Vec<Burst>> {
    let point = stream_point();
    let key = point.key();
    let tx = Transmitter::new(point.params.clone());
    (0..bursts)
        .map(|b| {
            // Same RNG consumption as `run_stream_trial`: the burst, then the render.
            let mut rng = trial_rng(seed, &key, b as u64);
            let (payloads, victim) = build_burst(
                &tx,
                point.mcs,
                point.payload_len,
                point.frames_per_trial,
                point.gap_range,
                &mut rng,
            )?;
            let samples = render(&point.scenario, &mut rng, &point.params, &victim)?;
            Ok(Burst { payloads, samples })
        })
        .collect()
}

/// One frame inside a server capture.
pub struct SentFrame {
    /// Capture-relative index of the frame's first STF sample.
    pub start: usize,
    /// Frame length in samples.
    pub len: usize,
    pub payload: Vec<u8>,
}

/// One station capture of the `server_fanin` corpus.
pub struct Capture {
    pub frames: Vec<SentFrame>,
    pub samples: Vec<Complex>,
}

/// Seed-tree key of the `server_fanin` captures; encodes every parameter that
/// shapes the waveform.
pub const SERVER_KEY: &str =
    "perfbench;server_fanin;frames=4;payload=400;mcs=QPSK12/QAM16-12 alternating;gaps=120..=400;snr=25";

/// Frames per server capture.
pub const SERVER_FRAMES: usize = 4;

/// Renders `count` distinct station captures: four 400-byte frames each,
/// alternating QPSK 1/2 and 16-QAM 1/2, behind random 120–400-sample gaps, at
/// 25 dB SNR.
pub fn server_captures(seed: u64, count: usize) -> ofdmphy::Result<Vec<Capture>> {
    let tx = Transmitter::new(OfdmParams::ieee80211ag());
    (0..count)
        .map(|c| {
            let mut rng = trial_rng(seed, SERVER_KEY, c as u64);
            let mut victim = Vec::new();
            let mut frames = Vec::with_capacity(SERVER_FRAMES);
            for k in 0..SERVER_FRAMES {
                victim.extend(std::iter::repeat_n(
                    Complex::zero(),
                    rng.gen_range(120..=400),
                ));
                let mcs = if (c + k) % 2 == 0 { qpsk() } else { qam16() };
                let payload: Vec<u8> = (0..PAYLOAD_LEN).map(|_| rng.gen()).collect();
                let scramble_seed = rng.gen_range(1..=127u8);
                let frame = tx.build_frame(&payload, mcs, scramble_seed)?;
                frames.push(SentFrame {
                    start: victim.len(),
                    len: frame.samples.len(),
                    payload,
                });
                victim.extend_from_slice(&frame.samples);
            }
            victim.extend(std::iter::repeat_n(Complex::zero(), 400));
            let samples = add_noise(&mut rng, &victim, 25.0)?;
            Ok(Capture { frames, samples })
        })
        .collect()
}
