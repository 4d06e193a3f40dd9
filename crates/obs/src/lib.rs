//! # hetsim-obs: span-level run tracing
//!
//! The campaign engine knows *what* every HetCore design computed (the
//! Fig 7/8/14 counter sets), but not *where wall-clock goes* inside a
//! campaign. This crate adds that visibility without perturbing any
//! result:
//!
//! * a [`Clock`] abstraction ([`MonotonicClock`] for real runs,
//!   [`ManualClock`] for deterministic tests) so callers never scatter
//!   `Instant::now()`;
//! * a [`TraceRecorder`] collecting [`TraceEvent`]s — completed spans
//!   and instants — from any thread, with per-thread track assignment;
//! * a line-oriented JSONL log ([`TraceRecorder::to_jsonl`] /
//!   [`parse_jsonl`]) written by `repro --trace-out`;
//! * a Chrome trace-event exporter ([`chrome_trace`]) whose output
//!   loads in Perfetto / `chrome://tracing`;
//! * structural trace validation ([`validate_events`]) used by
//!   `repro check --trace-in`: spans must end at or after they start,
//!   spans on one track must nest properly, and every `job-finished`
//!   instant of a batch with a cache must have a matching
//!   `cache-lookup` span, while a batch without one records no cache
//!   spans.
//!
//! Tracing is strictly observational: recording is off unless a
//! recorder is attached, and even then only stderr/side files are
//! touched — headline stdout stays byte-identical.

#![warn(missing_docs)]

mod chrome;
mod clock;
pub mod profile;
mod recorder;
mod validate;

pub use chrome::chrome_trace;
pub use clock::{Clock, ManualClock, MonotonicClock};
pub use profile::{CycleProfile, Observations, ProfileRow, PROFILE_SCHEMA};
pub use recorder::{ArgValue, EventKind, SpanGuard, TraceEvent, TraceRecorder};
pub use validate::{parse_jsonl, validate_events};
