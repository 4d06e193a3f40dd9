//! # hetsim-runner: the campaign-execution engine
//!
//! Every paper artifact is produced by a *campaign* — a design ×
//! application sweep whose individual simulations are independent and
//! pure. This crate turns a campaign into a batch of [`Job`]s and runs
//! them on a work-stealing thread pool with an optional content-addressed
//! result cache, so:
//!
//! * sweeps use every core (`--jobs` / `available_parallelism`),
//! * re-running a figure is near-free with a cache directory (an
//!   on-disk cache of append-only segments that concurrent processes
//!   can share; without one, every job runs), and
//! * callers read throughput/cache metrics ([`RunnerStats`]), follow
//!   a batch as `[runner]` lines on stderr ([`Runner::narrating`]) and,
//!   with a [`hetsim_obs::TraceRecorder`] attached, as a trace of
//!   every batch.
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
//!    core count — see [`KeyWriter`]).
//!
//! Under that contract, `Runner::serial()` and a 64-worker runner
//! produce the same `Vec<T>` for the same batch, byte for byte.
//!
//! The crate is deliberately independent of the simulators: jobs carry
//! closures, outcomes are any `Serialize + Deserialize + Send`
//! type, and the sim-seconds metric comes from the [`SimMetrics`] trait
//! the outcome types implement. Each job also returns its
//! [`hetsim_obs::Observations`]; the cache stores them in the outcome's
//! record and the runner folds them, so a warm campaign reports the
//! same observations as a cold one.

#![warn(missing_docs)]

mod cache;
mod job;
mod pool;
mod progress;
mod runner;

pub use cache::{write_atomic, CacheStats, ResultCache};
pub use job::{Job, JobKey, KeyWriter};
pub use pool::{run_batch, Task};
pub use progress::{narrate, Provenance, RunnerStats};
pub use runner::Runner;

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
}
