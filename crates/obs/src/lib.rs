//! Zero-overhead observability layer for the CPRecycle workspace.
//!
//! The crate is dependency-free (it only uses [`cpjson`] for serialisation,
//! itself dependency-free) and follows the compat-crate philosophy: a small,
//! deterministic subset of what a production metrics library would offer,
//! tailored to what the receiver and campaign engine actually need.
//!
//! # Design
//!
//! Everything funnels through the [`Recorder`] trait. Instrumented code is
//! generic over `R: Recorder` and the default implementation of every trait
//! method is an empty `#[inline]` body, so when the caller passes
//! [`NoopRecorder`] the monomorphised code contains no instrumentation at
//! all — no branches, no clock reads, no atomic traffic. The only live
//! implementation, [`InMemoryRecorder`], aggregates into plain maps behind a
//! mutex and can be shared across campaign worker threads.
//!
//! Stage timings are captured with [`StageTimer`], which consults
//! [`Recorder::enabled`] *before* touching the monotonic clock: with a no-op
//! recorder `Instant::now()` is never called. Timings aggregate into
//! fixed-size [`Log2Histogram`]s (65 buckets, one per power of two), so
//! recording is O(1) and allocation-free regardless of how many samples
//! arrive. Discrete happenings (frame detected, sync lost, …) go into a
//! bounded [`TraceRing`] that overwrites its oldest entry when full and
//! counts what it dropped.
//!
//! A cold-path [`MetricsSnapshot`] freezes the recorder state into a plain
//! value that serialises through `cpjson`, which is how `campaign run
//! --metrics <path>` exports telemetry for every registered experiment.
//!
//! # Example
//!
//! ```
//! use obs::{InMemoryRecorder, Recorder, Span, StageTimer};
//!
//! let rec = InMemoryRecorder::new(64);
//! rec.counter("frames_decoded", 1);
//! let t = StageTimer::start(&rec, Span::new("decide", "Sphere"));
//! // ... do work ...
//! t.finish(&rec);
//! let snap = rec.snapshot().unwrap();
//! assert_eq!(snap.counter("frames_decoded"), 1);
//! ```

#![forbid(unsafe_code)]

mod histogram;
mod memory;
mod recorder;
mod snapshot;
mod trace;

pub use histogram::Log2Histogram;
pub use memory::InMemoryRecorder;
pub use recorder::{NoopRecorder, Recorder, Span, StageTimer};
pub use snapshot::{MetricsSnapshot, StageSnapshot};
pub use trace::{TraceEvent, TraceRing};
