//! # hetsim-runner: the campaign-execution engine
//!
//! Every paper artifact is produced by a *campaign* — a design ×
//! application sweep whose individual simulations are independent and
//! pure. This crate turns a campaign into a batch of [`Job`]s and runs
//! them on a work-stealing thread pool with a content-addressed result
//! cache, so:
//!
//! * sweeps use every core (`--jobs` / `available_parallelism`),
//! * re-running a figure is near-free (in-process memo store, plus an
//!   optional on-disk cache of append-only segments shared across
//!   processes), and
//! * callers observe structured progress ([`ProgressSink`]) and
//!   throughput/cache metrics ([`RunnerStats`]).
//!
//! ## Determinism contract
//!
//! Parallel execution is **bit-identical** to serial execution:
//!
//! 1. every job is a pure function of its spec — each simulation seeds
//!    its own RNG from the job's config, and never reads shared mutable
//!    state;
//! 2. results are merged by submission index, not completion order;
//! 3. a cache hit returns the exact value a fresh simulation would
//!    produce, because the [`JobKey`] hashes the *full* canonical
//!    config (design, app profile content, instruction budget, seed,
//!    core count — see [`JobKey::of`]).
//!
//! Under that contract, `Runner::serial()` and a 64-worker runner
//! produce the same `Vec<T>` for the same batch, byte for byte.
//!
//! The crate is deliberately independent of the simulators: jobs carry
//! closures, outcomes are any `Serialize + Deserialize + Clone + Send`
//! type, and the sim-seconds metric comes from the [`SimMetrics`] trait
//! the outcome types implement. Each job also returns its
//! [`hetsim_obs::Observations`]; the cache stores them in the outcome's
//! record and the runner folds them, so a warm or sharded campaign
//! reports the same observations as a cold one. This is the layer future scaling work
//! (sharding, serving, larger sweeps) plugs into.

#![warn(missing_docs)]

mod cache;
mod dashboard;
mod job;
mod pool;
mod progress;
mod runner;
mod shard;
mod sinks;
mod timing;

pub use cache::{write_atomic, CacheLayer, CacheStats, ResultCache};
pub use dashboard::DashboardSink;
pub use job::{config_object, Job, JobKey};
pub use pool::{run_batch, Task};
pub use progress::{
    design_of, NullSink, ProgressEvent, ProgressSink, Provenance, RunnerStats, StderrSink,
};
pub use runner::Runner;
pub use shard::{
    fragment_path, manifest_path, partition, supervise, trace_path, ShardEventSink, ShardManifest,
    ShardPolicy, ShardRun, WorkerEvent, SHARD_SCHEMA,
};
pub use sinks::{MultiSink, TraceEventSink};
pub use timing::RunnerTiming;

/// Outcome types that can report how much simulated time they cover.
///
/// Used for the runner's throughput metric (simulated seconds per
/// wall-clock second). The default of `0.0` simply mutes the metric
/// for outcome types without a natural notion of simulated time.
pub trait SimMetrics {
    /// Simulated seconds this outcome represents.
    fn sim_seconds(&self) -> f64 {
        0.0
    }

    /// Flat `(name, value)` counter pairs summarizing this outcome,
    /// carried on every [`ProgressEvent::JobFinished`] so sinks can
    /// stream per-job telemetry without knowing the outcome type.
    /// Names should be stable, dotted paths (e.g. `"core.cycles"`).
    /// The default (empty) simply mutes per-job counters.
    fn counters(&self) -> Vec<(String, u64)> {
        Vec::new()
    }
}
