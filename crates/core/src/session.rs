//! Streaming receiver sessions: chunked sample ingestion over any [`FrameReceiver`].
//!
//! The paper's receiver (§4.3, Algorithm 1) is an online radio pipeline — frames
//! arrive as a continuous sample stream, and the §4.1 interference model is meant to
//! be *updated* as new preambles arrive. [`RxSession`] is that pipeline's top-level
//! API: callers [`push`](RxSession::push) arbitrary-length sample chunks and drain
//! [`RxEvent`]s; the session owns everything per-stream — the incremental
//! Schmidl–Cox detector state ([`ofdmphy::sync::CoarseDetector`]), a carry-over
//! buffer so detection and decoding resume correctly across chunk boundaries, and
//! the receiver's cross-frame state ([`crate::RxStream`]: extraction/decision
//! scratch plus the [`ModelPersistence`]-governed interference model).
//!
//! ```text
//!                 push(&[Complex]) chunks, any length ≥ 0
//!                          │
//!                          ▼
//!        ┌──────────── carry-over buffer (absolute indices) ───────────┐
//!        │                                                             │
//!   Hunting ──plateau──▶ Refining ──SyncResult──▶ Decoding ──────────┐ │
//!   (CoarseDetector,     (wait for LTF search     (wait for exactly  │ │
//!    O(1)/sample,         window + fine-CFO        `needed` samples, │ │
//!    trims buffer)        span, then refine)       then decode)      │ │
//!        ▲                                                           │ │
//!        └──────── FrameDecoded / FalseAlarm: resume hunting ◀───────┘ │
//!        └─────────────────────────────────────────────────────────────┘
//! ```
//!
//! Chunk-boundary invariants (the properties `tests/session_equivalence.rs` pins):
//!
//! * the incremental detector performs the same floating-point operations in the
//!   same order as the whole-buffer sweep, so the coarse detection is bit-identical
//!   for every chunking of the same capture;
//! * fine sync only runs once the buffer holds the coarse start plus
//!   [`Synchronizer::refine_lookahead`] samples, so the refined [`SyncResult`] is
//!   bit-identical to a whole-capture [`Synchronizer::detect`];
//! * a decode is only attempted when the buffer can satisfy the receiver's exact
//!   `InsufficientSamples::needed` count, and the final successful decode call sees
//!   the same sample values as a batch `decode_frame` at the same start — so the
//!   decoded frame (PSDU, FCS verdict, every subcarrier decision) is **bit-for-bit**
//!   the batch result, for every chunk size.

use crate::Result;
use obs::{MetricsSnapshot, NoopRecorder, Recorder, TraceEvent};
use ofdmphy::preamble;
use ofdmphy::rx::{FrameReceiver, ModelPersistence, RxFrame};
use ofdmphy::sync::{CoarseDetection, CoarseDetector, SyncResult, Synchronizer};
use ofdmphy::PhyError;
use rfdsp::Complex;
use std::collections::VecDeque;

/// Configuration of one streaming session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionConfig {
    /// How the receiver's interference model persists across the stream's frames
    /// (ignored by receivers without a model). [`ModelPersistence::PerFrame`] (the
    /// default) retrains per frame and keeps streamed decodes bit-for-bit identical
    /// to batch decodes; [`ModelPersistence::Rolling`] feeds every decoded frame's
    /// LTF segments through the incremental `InterferenceModel::update`.
    pub persistence: ModelPersistence,
    /// Detection threshold on the normalised STF autocorrelation. Defaults to
    /// [`Synchronizer::DEFAULT_THRESHOLD`]; lower it to keep detecting under strong
    /// asynchronous interference, which inflates the energy normaliser (the bursty
    /// stream campaigns run at 0.45).
    pub detection_threshold: f64,
    /// Estimate and remove the carrier frequency offset before decoding each frame.
    /// Off by default: the controlled experiments are CFO-free and the
    /// session≡batch equivalence property compares against uncorrected batch
    /// decodes; enable for captures from unsynchronised radios.
    pub correct_cfo: bool,
    /// Sanity cap on the sample length a detected frame may claim. A detection on a
    /// foreign or corrupted preamble sometimes yields a SIGNAL field that passes its
    /// parity check with a garbage length; without a cap the session head-of-line
    /// blocks waiting for (up to ~110 k) samples of a frame that does not exist. A
    /// detection whose implied length exceeds the cap becomes an
    /// [`RxEvent::FalseAlarm`]. `None` (the default) disables the check; bursty
    /// campaigns set it a little above their longest legitimate frame — a receiver
    /// knows its network's maximum frame duration.
    pub max_frame_samples: Option<usize>,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            persistence: ModelPersistence::PerFrame,
            detection_threshold: Synchronizer::DEFAULT_THRESHOLD,
            correct_cfo: false,
            max_frame_samples: None,
        }
    }
}

/// An event produced by an [`RxSession`]. All sample indices are absolute positions
/// in the stream (index 0 = first sample ever pushed).
#[derive(Debug, Clone)]
pub enum RxEvent {
    /// A frame preamble was detected and synchronised; decoding is under way.
    /// `sync.frame_start` is stream-absolute.
    FrameDetected {
        /// The timing/CFO estimate of the detection.
        sync: SyncResult,
    },
    /// A detected frame was fully decoded (the FCS may still have failed — check
    /// [`RxFrame::crc_ok`], which is what the campaigns count).
    FrameDecoded {
        /// The decoded frame.
        frame: Box<RxFrame>,
        /// Stream-absolute index of the frame's first STF sample.
        frame_start: usize,
    },
    /// A detection did not lead to a decodable frame (the SIGNAL field failed to
    /// parse — a noise spike or a colliding transmission); hunting resumed just past
    /// the false plateau.
    FalseAlarm {
        /// Stream-absolute index of the abandoned coarse detection.
        at: usize,
    },
    /// The stream was flushed while a detected frame was still incomplete.
    SyncLost {
        /// Stream-absolute index of the frame (or coarse detection) that was lost.
        at: usize,
    },
}

/// Health counters an [`RxSession`] maintains as events flow, so callers can
/// read stream health without draining (or retaining) the event queue. Each
/// counter is incremented exactly when the corresponding [`RxEvent`] is
/// queued, so the tallies always agree with the drained event stream (a
/// property `tests/obs_equivalence.rs` pins).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionCounters {
    /// Preamble detections that reached fine sync ([`RxEvent::FrameDetected`]).
    pub frames_detected: usize,
    /// Frames fully decoded, FCS pass or fail ([`RxEvent::FrameDecoded`]).
    pub frames_decoded: usize,
    /// Decoded frames whose FCS checked out.
    pub fcs_passes: usize,
    /// Decoded frames whose FCS failed (corrupt frames and phantoms).
    pub fcs_failures: usize,
    /// Detections abandoned without a decodable frame ([`RxEvent::FalseAlarm`]).
    pub false_alarms: usize,
    /// Frames lost to a stream flush mid-decode ([`RxEvent::SyncLost`]).
    pub sync_losses: usize,
    /// Decoded frames whose preamble the rolling interference model absorbed
    /// (FCS-passing frames of a [`ModelPersistence::Rolling`] session).
    pub model_absorbs: usize,
    /// Decoded frames the rolling model refused to learn from (FCS failures —
    /// the phantom-poisoning guard). Zero under [`ModelPersistence::PerFrame`].
    pub model_rejects: usize,
}

/// Where the session is in its per-frame state machine.
#[derive(Debug, Clone)]
enum State {
    /// Scanning for an STF plateau with the incremental detector.
    Hunting,
    /// Coarse detection fired; waiting for the fine-sync lookahead to be buffered.
    Refining(CoarseDetection),
    /// Fine sync done; waiting for (exactly) enough samples to decode the frame.
    Decoding {
        sync: SyncResult,
        /// Coarse-detection start, for false-alarm resume.
        coarse: usize,
        /// Stream-absolute sample count the next decode attempt needs (grows as the
        /// receiver reports `InsufficientSamples` for later pipeline stages).
        needed: usize,
    },
}

/// A streaming receiver session over any [`FrameReceiver`].
///
/// The streaming quickstart (mirrored in the README): build a couple of frames with
/// noise gaps, push the capture in arbitrary chunks, drain the decoded frames.
///
/// ```
/// use cprecycle::session::{RxEvent, RxSession};
/// use cprecycle::{CpRecycleConfig, CpRecycleReceiver};
/// use ofdmphy::convcode::CodeRate;
/// use ofdmphy::frame::{Mcs, Transmitter};
/// use ofdmphy::modulation::Modulation;
/// use ofdmphy::params::OfdmParams;
/// use rfdsp::Complex;
///
/// let params = OfdmParams::ieee80211ag();
/// let tx = Transmitter::new(params.clone());
/// let mcs = Mcs::new(Modulation::Qpsk, CodeRate::Half);
///
/// // A bursty capture: noise, frame, gap, frame, noise.
/// let mut capture = vec![Complex::zero(); 400];
/// capture.extend(tx.build_frame(b"first frame", mcs, 0x5D).unwrap().samples);
/// capture.extend(vec![Complex::zero(); 250]);
/// capture.extend(tx.build_frame(b"second frame", mcs, 0x2B).unwrap().samples);
/// capture.extend(vec![Complex::zero(); 400]);
///
/// // Stream it through a session in 480-sample chunks.
/// let rx = CpRecycleReceiver::new(params, CpRecycleConfig::default());
/// let mut session = RxSession::new(rx);
/// for chunk in capture.chunks(480) {
///     session.push(chunk).unwrap();
/// }
/// session.flush().unwrap();
///
/// let payloads: Vec<Vec<u8>> = session
///     .drain_events()
///     .into_iter()
///     .filter_map(|e| match e {
///         RxEvent::FrameDecoded { frame, .. } => frame.payload.clone(),
///         _ => None,
///     })
///     .collect();
/// assert_eq!(payloads, vec![b"first frame".to_vec(), b"second frame".to_vec()]);
/// ```
#[derive(Debug)]
pub struct RxSession<R: FrameReceiver, O: Recorder = NoopRecorder> {
    receiver: R,
    sync: Synchronizer,
    config: SessionConfig,
    stream: R::Stream,
    /// Carry-over samples; `buffer[i]` is stream-absolute sample `base + i`.
    buffer: Vec<Complex>,
    /// Stream-absolute index of `buffer[0]`.
    base: usize,
    /// Total samples pushed so far (stream-absolute end of the buffer).
    end: usize,
    detector: CoarseDetector,
    state: State,
    events: VecDeque<RxEvent>,
    counters: SessionCounters,
    obs: O,
}

impl<R: FrameReceiver> RxSession<R> {
    /// A session with the default [`SessionConfig`] and no instrumentation.
    pub fn new(receiver: R) -> Self {
        Self::with_config(receiver, SessionConfig::default())
    }

    /// A session with an explicit configuration and no instrumentation.
    pub fn with_config(receiver: R, config: SessionConfig) -> Self {
        Self::with_recorder(receiver, config, NoopRecorder)
    }
}

impl<R: FrameReceiver, O: Recorder> RxSession<R, O> {
    /// A session whose receive chain emits stage timings into `obs` and whose
    /// [`RxEvent`] flow is mirrored into the recorder's trace ring. Pass a
    /// [`NoopRecorder`] (or use [`RxSession::new`]) for the uninstrumented
    /// pipeline — decodes are bit-for-bit identical either way.
    pub fn with_recorder(receiver: R, config: SessionConfig, obs: O) -> Self {
        let params = receiver.params().clone();
        let sync = Synchronizer::with_threshold(params, config.detection_threshold);
        let stream = receiver.new_stream(config.persistence);
        let detector = sync.coarse_detector(0);
        RxSession {
            receiver,
            sync,
            config,
            stream,
            buffer: Vec::new(),
            base: 0,
            end: 0,
            detector,
            state: State::Hunting,
            events: VecDeque::new(),
            counters: SessionCounters::default(),
            obs,
        }
    }

    /// The recorder this session reports into.
    pub fn recorder(&self) -> &O {
        &self.obs
    }

    /// The receiver driving this session.
    pub fn receiver(&self) -> &R {
        &self.receiver
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The receiver's per-stream state (e.g. `cprecycle::RxStream`, whose rolling
    /// interference model diagnostics can be inspected between pushes).
    pub fn stream(&self) -> &R::Stream {
        &self.stream
    }

    /// Total number of samples pushed so far.
    pub fn samples_pushed(&self) -> usize {
        self.end
    }

    /// Number of frames decoded so far (counting FCS failures).
    pub fn frames_decoded(&self) -> usize {
        self.counters.frames_decoded
    }

    /// Number of preamble detections that reached fine sync so far.
    pub fn frames_detected(&self) -> usize {
        self.counters.frames_detected
    }

    /// Number of detections abandoned as false alarms so far.
    pub fn false_alarms(&self) -> usize {
        self.counters.false_alarms
    }

    /// Number of frames lost to a mid-decode flush so far.
    pub fn sync_losses(&self) -> usize {
        self.counters.sync_losses
    }

    /// Number of decoded frames whose FCS failed so far.
    pub fn fcs_failures(&self) -> usize {
        self.counters.fcs_failures
    }

    /// All health counters at once.
    pub fn counters(&self) -> SessionCounters {
        self.counters
    }

    /// Freezes this session's health into a [`MetricsSnapshot`]: the recorder's
    /// stage timings and trace (when one is attached) overlaid with the session
    /// counters. With a [`NoopRecorder`] the snapshot carries the counters only.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.obs.snapshot().unwrap_or_default();
        snap.add_counter("samples_pushed", self.end as u64);
        let c = &self.counters;
        snap.add_counter("frames_detected", c.frames_detected as u64);
        snap.add_counter("frames_decoded", c.frames_decoded as u64);
        snap.add_counter("fcs_passes", c.fcs_passes as u64);
        snap.add_counter("fcs_failures", c.fcs_failures as u64);
        snap.add_counter("false_alarms", c.false_alarms as u64);
        snap.add_counter("sync_losses", c.sync_losses as u64);
        snap.add_counter("session_model_absorbs", c.model_absorbs as u64);
        snap.add_counter("session_model_rejects", c.model_rejects as u64);
        snap
    }

    /// Queues an event for the caller, keeping the health counters in lockstep
    /// and mirroring the event into the recorder's structured trace.
    fn queue_event(&mut self, event: RxEvent) {
        match &event {
            RxEvent::FrameDetected { sync } => {
                self.counters.frames_detected += 1;
                self.obs.trace(TraceEvent::new(
                    "frame_detected",
                    sync.frame_start as u64,
                    0,
                ));
            }
            RxEvent::FrameDecoded { frame, frame_start } => {
                self.counters.frames_decoded += 1;
                let rolling = self.config.persistence == ModelPersistence::Rolling;
                if frame.crc_ok {
                    self.counters.fcs_passes += 1;
                    if rolling {
                        self.counters.model_absorbs += 1;
                    }
                } else {
                    self.counters.fcs_failures += 1;
                    if rolling {
                        self.counters.model_rejects += 1;
                    }
                }
                self.obs.trace(TraceEvent::new(
                    "frame_decoded",
                    *frame_start as u64,
                    frame.crc_ok as i64,
                ));
            }
            RxEvent::FalseAlarm { at } => {
                self.counters.false_alarms += 1;
                self.obs
                    .trace(TraceEvent::new("false_alarm", *at as u64, 0));
            }
            RxEvent::SyncLost { at } => {
                self.counters.sync_losses += 1;
                self.obs.trace(TraceEvent::new("sync_lost", *at as u64, 0));
            }
        }
        self.events.push_back(event);
    }

    /// Next queued event, if any.
    pub fn poll_event(&mut self) -> Option<RxEvent> {
        self.events.pop_front()
    }

    /// Drains every queued event.
    pub fn drain_events(&mut self) -> Vec<RxEvent> {
        self.events.drain(..).collect()
    }

    /// Ingests one chunk of samples (any length, including empty) and advances the
    /// state machine as far as the buffered stream allows, queueing events.
    ///
    /// Errors are *fatal* misconfigurations (e.g. a decision stage that needs a genie
    /// waveform no stream can carry); recoverable conditions — short buffers,
    /// unparseable SIGNAL fields — are handled internally as waiting or
    /// [`RxEvent::FalseAlarm`].
    pub fn push(&mut self, chunk: &[Complex]) -> Result<()> {
        self.buffer.extend_from_slice(chunk);
        self.end += chunk.len();
        self.advance(false)
    }

    /// Declares the end of the stream: runs the state machine best-effort on what is
    /// buffered (a frame whose tail never arrived becomes [`RxEvent::SyncLost`]) and
    /// resets to hunting at the stream end, so a later `push` starts a fresh scan.
    ///
    /// End-of-stream semantics, pinned by `flush_*` regression tests:
    ///
    /// * **Partially buffered frame** (any length short of the decode's `needed`
    ///   watermark, including one shorter than [`SessionConfig::max_frame_samples`]):
    ///   exactly one [`RxEvent::SyncLost`] is queued for the pending detection —
    ///   a truncated frame is a loss, never a [`RxEvent::FalseAlarm`]. A coarse
    ///   detection still awaiting fine sync (even one whose preamble never fully
    ///   arrived) is reported the same way, at its coarse start.
    /// * **Completable work first**: anything the buffered samples *can* finish —
    ///   frames wholly buffered but not yet decoded because a previous decode was
    ///   pending — decodes normally before the loss is assessed.
    /// * **Idempotence**: `flush` resets to hunting at the stream end, so a second
    ///   `flush` (with no intervening [`push`](Self::push)) queues nothing, and
    ///   [`drain_events`](Self::drain_events) after it returns empty — callers may
    ///   treat `flush(); drain_events()` as an idempotent end-of-stream step.
    /// * **Reusability**: the session survives its stream's end; later pushes scan
    ///   fresh samples with the same cross-frame state (a Rolling model keeps what
    ///   it learned).
    pub fn flush(&mut self) -> Result<()> {
        self.advance(true)?;
        match &self.state {
            State::Hunting => {}
            State::Refining(d) => {
                let at = d.start;
                self.queue_event(RxEvent::SyncLost { at });
            }
            State::Decoding { sync, .. } => {
                let at = sync.frame_start;
                self.queue_event(RxEvent::SyncLost { at });
            }
        }
        self.resume_hunting_at(self.end);
        Ok(())
    }

    /// Restarts plateau hunting at stream-absolute position `at` and drops buffered
    /// samples that can no longer matter.
    fn resume_hunting_at(&mut self, at: usize) {
        let at = at.max(self.base).min(self.end);
        self.detector = self.sync.coarse_detector(at);
        self.state = State::Hunting;
        self.discard_before(at);
    }

    /// Drops buffer contents before stream-absolute index `cut`.
    fn discard_before(&mut self, cut: usize) {
        let cut = cut.max(self.base).min(self.end);
        let rel = cut - self.base;
        if rel > 0 {
            self.buffer.drain(..rel);
            self.base = cut;
        }
    }

    /// Runs the state machine until it needs more samples.
    fn advance(&mut self, flushing: bool) -> Result<()> {
        loop {
            match self.state.clone() {
                State::Hunting => {
                    let mut fired = None;
                    while self.detector.position() < self.end {
                        let rel = self.detector.position() - self.base;
                        if let Some(d) = self.detector.push(self.buffer[rel]) {
                            fired = Some(d);
                            break;
                        }
                    }
                    match fired {
                        Some(d) => {
                            self.state = State::Refining(d);
                            // Fine timing may place the frame start slightly before
                            // the coarse plateau (the LTF search spans ±24); keep a
                            // little history behind it.
                            self.discard_before(d.start.saturating_sub(32));
                        }
                        None => {
                            // Steady-state hunting: only the detector's lookback can
                            // still matter.
                            self.discard_before(self.end.saturating_sub(
                                self.detector.lookback() + self.sync.refine_lookahead(),
                            ));
                            return Ok(());
                        }
                    }
                }
                State::Refining(d) => {
                    let have_lookahead = self.end >= d.start + self.sync.refine_lookahead();
                    if !have_lookahead && !flushing {
                        return Ok(());
                    }
                    let params = self.receiver.params();
                    let min_len = preamble::preamble_len(params) + params.symbol_len();
                    if flushing && self.end < d.start + min_len {
                        // Not even a whole preamble arrived; flush() reports the loss.
                        return Ok(());
                    }
                    let rel = CoarseDetection {
                        start: d.start - self.base,
                        metric: d.metric,
                    };
                    let refined = self.sync.refine(&self.buffer, rel)?;
                    let sync = SyncResult {
                        frame_start: refined.frame_start + self.base,
                        ..refined
                    };
                    self.queue_event(RxEvent::FrameDetected { sync });
                    self.receiver.begin_frame(&mut self.stream);
                    self.state = State::Decoding {
                        sync,
                        coarse: d.start,
                        needed: sync.frame_start,
                    };
                }
                State::Decoding {
                    sync,
                    coarse,
                    needed,
                } => {
                    if self.end < needed && !flushing {
                        return Ok(());
                    }
                    match self.try_decode(&sync) {
                        Ok(frame) => {
                            let params = self.receiver.params();
                            let frame_len = frame.info.frame_sample_len(params);
                            let crc_ok = frame.crc_ok;
                            self.queue_event(RxEvent::FrameDecoded {
                                frame: Box::new(frame),
                                frame_start: sync.frame_start,
                            });
                            if crc_ok {
                                self.resume_hunting_at(sync.frame_start + frame_len);
                            } else {
                                // An FCS failure can be a genuinely corrupt frame —
                                // or a *phantom*: a false detection whose SIGNAL
                                // field happened to parse. Trusting a phantom's
                                // claimed length would swallow the real frame hiding
                                // behind it, so resume just past this detection's
                                // own STF instead.
                                let resume = self.resume_past_stf(sync.frame_start);
                                self.resume_hunting_at(resume);
                            }
                        }
                        Err(PhyError::InsufficientSamples { needed: n, .. }) => {
                            // `n` is relative to the buffer slice handed to the
                            // receiver; translate to a stream-absolute watermark.
                            let needed_abs = self.base + n;
                            if self
                                .config
                                .max_frame_samples
                                .is_some_and(|cap| needed_abs - sync.frame_start > cap)
                            {
                                // The SIGNAL field claimed an implausibly long frame
                                // (a parity fluke on a foreign/corrupt preamble):
                                // treat as a false alarm instead of head-of-line
                                // blocking the stream on samples that never come.
                                self.queue_event(RxEvent::FalseAlarm { at: coarse });
                                let resume = self.resume_past_stf(coarse);
                                self.resume_hunting_at(resume);
                                continue;
                            }
                            if flushing || needed_abs <= self.end {
                                // The stream ended (flush() reports the loss), or the
                                // receiver asked for samples we already have — the
                                // latter would loop forever, so surface it.
                                if !flushing {
                                    return Err(PhyError::InsufficientSamples {
                                        needed: n,
                                        available: self.end - self.base,
                                    });
                                }
                                return Ok(());
                            }
                            self.state = State::Decoding {
                                sync,
                                coarse,
                                needed: needed_abs,
                            };
                            return Ok(());
                        }
                        Err(PhyError::DecodeFailure(_)) => {
                            // The SIGNAL field did not parse: a false plateau or a
                            // colliding transmission. Resume scanning past this
                            // detection's plateau.
                            self.queue_event(RxEvent::FalseAlarm { at: coarse });
                            let resume = self.resume_past_stf(coarse);
                            self.resume_hunting_at(resume);
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
        }
    }

    /// Where hunting resumes after abandoning a detection anchored at `anchor` (the
    /// coarse start of a false alarm, or the refined frame start of a CRC-failed
    /// possibly-phantom frame): past that detection's own STF plateau. Resuming any
    /// closer would re-fire on the same ~`stf_len` plateau and re-run fine sync plus
    /// a (model-training) decode attempt once per small hop — several-fold wasted
    /// work per leaked interferer preamble. A *distinct* later frame's STF is
    /// untouched by the skip; a preamble overlapping the abandoned one was a
    /// collision this detection could not have recovered anyway.
    fn resume_past_stf(&self, anchor: usize) -> usize {
        let params = self.receiver.params();
        anchor + preamble::stf_len(params) - preamble::stf_period(params)
    }

    /// One decode attempt of the frame at `sync` against the current buffer.
    fn try_decode(&mut self, sync: &SyncResult) -> Result<RxFrame> {
        let rel_start = sync.frame_start - self.base;
        if self.config.correct_cfo && sync.cfo_hz != 0.0 {
            // Rotate a copy of the frame's samples so the correction's phase
            // reference is the frame start, then decode at offset 0 and translate
            // any `needed` count back to buffer coordinates. The copy spans the
            // buffered tail and is redone per retry — acceptable while CFO
            // correction is an opt-in for real captures; cache the rotated prefix
            // if this ever sits on a hot path.
            let mut corrected = self.buffer[rel_start..].to_vec();
            self.sync.correct_cfo(&mut corrected, sync.cfo_hz);
            self.receiver
                .decode_stream_observed(&mut self.stream, &corrected, 0, None, &self.obs)
                .map_err(|e| match e {
                    PhyError::InsufficientSamples { needed, available } => {
                        PhyError::InsufficientSamples {
                            needed: needed + rel_start,
                            available: available + rel_start,
                        }
                    }
                    other => other,
                })
        } else {
            self.receiver.decode_stream_observed(
                &mut self.stream,
                &self.buffer,
                rel_start,
                None,
                &self.obs,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CpRecycleConfig, CpRecycleReceiver};
    use ofdmphy::convcode::CodeRate;
    use ofdmphy::frame::{Mcs, Transmitter};
    use ofdmphy::modulation::Modulation;
    use ofdmphy::params::OfdmParams;
    use ofdmphy::rx::StandardReceiver;
    use rand::SeedableRng;
    use wirelesschan::awgn::AwgnChannel;
    use wirelesschan::impairments::apply_cfo;

    fn mcs() -> Mcs {
        Mcs::new(Modulation::Qpsk, CodeRate::Half)
    }

    fn noisy_capture(
        payloads: &[&[u8]],
        gaps: &[usize],
        snr_db: f64,
        seed: u64,
    ) -> (Vec<Complex>, Vec<usize>) {
        let params = OfdmParams::ieee80211ag();
        let tx = Transmitter::new(params);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut g = rfdsp::noise::GaussianSource::new();
        let mut frames = Vec::new();
        for (i, p) in payloads.iter().enumerate() {
            frames.push(tx.build_frame(p, mcs(), 0x5D - i as u8).unwrap());
        }
        let power = rfdsp::power::signal_power(&frames[0].samples).unwrap();
        let noise_var = power / rfdsp::power::db_to_lin(snr_db);
        let mut capture = g.complex_vector(&mut rng, gaps[0], noise_var);
        let mut starts = Vec::new();
        for (frame, gap) in frames.iter().zip(gaps[1..].iter()) {
            starts.push(capture.len());
            capture.extend_from_slice(&frame.samples);
            capture.extend(g.complex_vector(&mut rng, *gap, noise_var));
        }
        let mut chan = AwgnChannel::new();
        chan.add_noise_variance(&mut rng, &mut capture, noise_var)
            .unwrap();
        (capture, starts)
    }

    fn decoded_payloads(events: &[RxEvent]) -> Vec<Vec<u8>> {
        events
            .iter()
            .filter_map(|e| match e {
                RxEvent::FrameDecoded { frame, .. } => frame.payload.clone(),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn single_frame_is_decoded_for_any_chunk_size() {
        let (capture, _) = noisy_capture(&[&[0xA5; 80]], &[400, 300], 28.0, 1);
        for chunk in [1usize, 7, 64, 480, capture.len()] {
            let rx = CpRecycleReceiver::new(OfdmParams::ieee80211ag(), CpRecycleConfig::default());
            let mut session = RxSession::new(rx);
            for c in capture.chunks(chunk) {
                session.push(c).unwrap();
            }
            let events = session.drain_events();
            assert_eq!(
                decoded_payloads(&events),
                vec![vec![0xA5u8; 80]],
                "chunk {chunk}"
            );
            assert_eq!(session.frames_decoded(), 1);
        }
    }

    #[test]
    fn multi_frame_capture_recovers_all_frames_in_order() {
        let payloads: Vec<Vec<u8>> = (0..3u8).map(|i| vec![i.wrapping_mul(37) + 1; 60]).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
        let (capture, starts) = noisy_capture(&refs, &[350, 220, 140, 260], 28.0, 2);
        for chunk in [7usize, 480] {
            let rx = CpRecycleReceiver::new(OfdmParams::ieee80211ag(), CpRecycleConfig::default());
            let mut session = RxSession::new(rx);
            for c in capture.chunks(chunk) {
                session.push(c).unwrap();
            }
            session.flush().unwrap();
            let events = session.drain_events();
            assert_eq!(decoded_payloads(&events), payloads, "chunk {chunk}");
            // Detections land within CP tolerance of the true starts, in order.
            let detected: Vec<usize> = events
                .iter()
                .filter_map(|e| match e {
                    RxEvent::FrameDetected { sync } => Some(sync.frame_start),
                    _ => None,
                })
                .collect();
            assert_eq!(detected.len(), 3);
            for (d, s) in detected.iter().zip(&starts) {
                assert!(
                    (*d as isize - *s as isize).abs() <= 8,
                    "detected {d}, true {s}"
                );
            }
        }
    }

    #[test]
    fn standard_receiver_sessions_work_too() {
        let (capture, _) = noisy_capture(&[&[0x42; 60]], &[500, 250], 28.0, 3);
        let rx = StandardReceiver::new(OfdmParams::ieee80211ag());
        let mut session = RxSession::new(rx);
        for c in capture.chunks(333) {
            session.push(c).unwrap();
        }
        assert_eq!(
            decoded_payloads(&session.drain_events()),
            vec![vec![0x42u8; 60]]
        );
    }

    /// Overwrites the SIGNAL symbol of the frame at `frame_start` with a clean one
    /// that announces a zero-length PSDU: RATE and parity stay valid, so only the
    /// receivers' LENGTH check can reject it.
    fn claim_zero_length(capture: &mut [Complex], frame_start: usize) {
        use ofdmphy::frame::{build_signal_bits, pilot_polarity_sequence, pilot_values};
        let params = OfdmParams::ieee80211ag();
        let bits = build_signal_bits(mcs(), 0).unwrap();
        let coded = ofdmphy::convcode::encode(&bits, CodeRate::Half).unwrap();
        let interleaver = ofdmphy::interleaver::Interleaver::new(48, 1).unwrap();
        let data = Modulation::Bpsk
            .map_bits(&interleaver.interleave(&coded).unwrap())
            .unwrap();
        let pilots = pilot_values(pilot_polarity_sequence()[0]);
        let engine = ofdmphy::ofdm::OfdmEngine::new(params.clone());
        let symbol = engine.modulate(&data, &pilots).unwrap();
        let at = frame_start + preamble::preamble_len(&params);
        capture[at..at + symbol.len()].copy_from_slice(&symbol);
    }

    #[test]
    fn zero_length_signal_is_a_false_alarm_and_hunting_resumes() {
        let (mut capture, starts) =
            noisy_capture(&[&[0x11; 60], &[0x22; 60]], &[400, 300, 300], 28.0, 12);
        claim_zero_length(&mut capture, starts[0]);
        fn events_of<R: FrameReceiver>(rx: R, capture: &[Complex]) -> Vec<RxEvent> {
            let mut session = RxSession::new(rx);
            for c in capture.chunks(500) {
                session.push(c).unwrap();
            }
            session.flush().unwrap();
            session.drain_events()
        }
        let params = OfdmParams::ieee80211ag();
        let standard = events_of(StandardReceiver::new(params.clone()), &capture);
        let cprecycle = events_of(
            CpRecycleReceiver::new(params, CpRecycleConfig::default()),
            &capture,
        );
        for (name, events) in [("Standard", standard), ("CPRecycle", cprecycle)] {
            assert!(
                events
                    .iter()
                    .any(|e| matches!(e, RxEvent::FalseAlarm { at } if *at < starts[1])),
                "{name}: no false alarm for the zero-length SIGNAL: {events:?}"
            );
            // Hunting resumed: the frame behind it still decodes.
            assert_eq!(decoded_payloads(&events), vec![vec![0x22u8; 60]], "{name}");
        }
    }

    #[test]
    fn noise_only_stream_stays_silent_and_flush_is_clean() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut g = rfdsp::noise::GaussianSource::new();
        let noise = g.complex_vector(&mut rng, 4000, 1.0);
        let rx = CpRecycleReceiver::new(OfdmParams::ieee80211ag(), CpRecycleConfig::default());
        let mut session = RxSession::new(rx);
        for c in noise.chunks(256) {
            session.push(c).unwrap();
        }
        session.flush().unwrap();
        assert!(session.drain_events().is_empty());
        // The carry-over buffer stays bounded while hunting.
        assert!(session.buffer.len() < 1024);
    }

    #[test]
    fn flush_mid_frame_reports_sync_lost() {
        let (capture, starts) = noisy_capture(&[&[0x5A; 120]], &[300, 200], 30.0, 5);
        // Cut the capture in the middle of the frame's DATA symbols.
        let cut = starts[0] + 700;
        let rx = CpRecycleReceiver::new(OfdmParams::ieee80211ag(), CpRecycleConfig::default());
        let mut session = RxSession::new(rx);
        session.push(&capture[..cut]).unwrap();
        session.flush().unwrap();
        let events = session.drain_events();
        assert!(events
            .iter()
            .any(|e| matches!(e, RxEvent::FrameDetected { .. })));
        assert!(events.iter().any(|e| matches!(e, RxEvent::SyncLost { .. })));
        assert!(!events
            .iter()
            .any(|e| matches!(e, RxEvent::FrameDecoded { .. })));
        // The session remains usable: stream the full capture afterwards.
        session.push(&capture).unwrap();
        session.flush().unwrap();
        assert_eq!(decoded_payloads(&session.drain_events()).len(), 1);
    }

    #[test]
    fn flush_is_idempotent_and_drain_after_flush_returns_empty() {
        let (capture, starts) = noisy_capture(&[&[0x11; 80]], &[300, 200], 30.0, 11);
        let rx = CpRecycleReceiver::new(OfdmParams::ieee80211ag(), CpRecycleConfig::default());
        let mut session = RxSession::new(rx);
        // Truncate mid-frame so flush has a loss to report.
        session.push(&capture[..starts[0] + 600]).unwrap();
        session.flush().unwrap();
        let first = session.drain_events();
        assert_eq!(
            first
                .iter()
                .filter(|e| matches!(e, RxEvent::SyncLost { .. }))
                .count(),
            1,
            "exactly one SyncLost for the one pending detection"
        );
        let counters = session.counters();
        // Repeated flushes with no new samples queue nothing and move no counter.
        for _ in 0..3 {
            session.flush().unwrap();
            assert!(session.drain_events().is_empty());
            assert_eq!(session.counters(), counters);
        }
    }

    #[test]
    fn flush_of_partial_frame_below_length_cap_is_sync_lost_not_false_alarm() {
        // A frame well under `max_frame_samples` whose tail never arrives: the cap
        // logic (which turns implausibly long claims into FalseAlarm) must not
        // misfire — a plausible-but-truncated frame is a SyncLost.
        let (capture, starts) = noisy_capture(&[&[0x33; 80]], &[300, 200], 30.0, 12);
        let frame_len = capture.len() - 300 - 200;
        let rx = CpRecycleReceiver::new(OfdmParams::ieee80211ag(), CpRecycleConfig::default());
        let mut session = RxSession::with_config(
            rx,
            SessionConfig {
                max_frame_samples: Some(frame_len + 512),
                ..Default::default()
            },
        );
        session.push(&capture[..starts[0] + 900]).unwrap();
        session.flush().unwrap();
        let events = session.drain_events();
        assert!(events.iter().any(|e| matches!(e, RxEvent::SyncLost { .. })));
        assert!(!events
            .iter()
            .any(|e| matches!(e, RxEvent::FalseAlarm { .. })));
        assert_eq!(session.counters().sync_losses, 1);
        assert_eq!(session.counters().false_alarms, 0);
    }

    #[test]
    fn flush_with_partial_preamble_reports_loss_at_coarse_start() {
        // End the stream while fine sync is still waiting for its lookahead: the
        // coarse detection (state `Refining`) is reported lost at its own start.
        let (capture, starts) = noisy_capture(&[&[0x44; 80]], &[300, 200], 30.0, 13);
        let params = OfdmParams::ieee80211ag();
        let cut = starts[0] + preamble::preamble_len(&params) - 8;
        let rx = CpRecycleReceiver::new(params, CpRecycleConfig::default());
        let mut session = RxSession::new(rx);
        session.push(&capture[..cut]).unwrap();
        session.flush().unwrap();
        let events = session.drain_events();
        let lost: Vec<usize> = events
            .iter()
            .filter_map(|e| match e {
                RxEvent::SyncLost { at } => Some(*at),
                _ => None,
            })
            .collect();
        assert_eq!(lost.len(), 1);
        assert!(
            (lost[0] as isize - starts[0] as isize).abs() <= 32,
            "loss at {} vs true start {}",
            lost[0],
            starts[0]
        );
        assert!(!events
            .iter()
            .any(|e| matches!(e, RxEvent::FrameDecoded { .. })));
    }

    #[test]
    fn flush_decodes_a_wholly_buffered_frame_before_assessing_loss() {
        // The entire frame is buffered when flush runs: it must decode, not be
        // reported lost, and the session must end back in hunting.
        let (capture, _) = noisy_capture(&[&[0x55; 80]], &[300, 4], 30.0, 14);
        let rx = CpRecycleReceiver::new(OfdmParams::ieee80211ag(), CpRecycleConfig::default());
        let mut session = RxSession::new(rx);
        session.push(&capture).unwrap();
        session.flush().unwrap();
        let events = session.drain_events();
        assert_eq!(decoded_payloads(&events), vec![vec![0x55u8; 80]]);
        assert!(!events.iter().any(|e| matches!(e, RxEvent::SyncLost { .. })));
    }

    #[test]
    fn cfo_correction_recovers_an_offset_frame() {
        let params = OfdmParams::ieee80211ag();
        let tx = Transmitter::new(params.clone());
        let payload = vec![0x77u8; 60];
        let frame = tx.build_frame(&payload, mcs(), 0x5D).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut g = rfdsp::noise::GaussianSource::new();
        let power = rfdsp::power::signal_power(&frame.samples).unwrap();
        let noise_var = power / rfdsp::power::db_to_lin(30.0);
        let mut body = frame.samples.clone();
        apply_cfo(&mut body, 80_000.0, 20e6).unwrap();
        let mut capture = g.complex_vector(&mut rng, 400, noise_var);
        capture.extend(body);
        capture.extend(g.complex_vector(&mut rng, 300, noise_var));
        let mut chan = AwgnChannel::new();
        chan.add_noise_variance(&mut rng, &mut capture, noise_var)
            .unwrap();

        let rx = CpRecycleReceiver::new(params, CpRecycleConfig::default());
        let mut session = RxSession::with_config(
            rx,
            SessionConfig {
                correct_cfo: true,
                ..Default::default()
            },
        );
        for c in capture.chunks(480) {
            session.push(c).unwrap();
        }
        session.flush().unwrap();
        let payloads = decoded_payloads(&session.drain_events());
        assert_eq!(payloads, vec![payload]);
    }

    #[test]
    fn rolling_session_grows_the_model_across_frames() {
        let payloads: Vec<Vec<u8>> = (0..3u8).map(|i| vec![i + 1; 60]).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
        let (capture, _) = noisy_capture(&refs, &[400, 200, 200, 200], 28.0, 7);
        let rx = CpRecycleReceiver::new(OfdmParams::ieee80211ag(), CpRecycleConfig::default());
        let mut session = RxSession::with_config(
            rx,
            SessionConfig {
                persistence: ModelPersistence::Rolling,
                ..Default::default()
            },
        );
        for c in capture.chunks(480) {
            session.push(c).unwrap();
        }
        session.flush().unwrap();
        assert_eq!(decoded_payloads(&session.drain_events()), payloads);
        // Three frames × two LTF symbols each accumulated into one model.
        assert_eq!(session.stream().model().unwrap().num_preambles(), 6);
    }
}
