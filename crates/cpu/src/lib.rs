//! Cycle-level out-of-order CPU core and multicore models.
//!
//! This crate reproduces the CPU side of the paper's evaluation platform
//! (Multi2Sim's x86 OoO model, Table III): a 4-wide out-of-order core with
//! a 160-entry ROB, 64-entry issue queue, 48-entry load-store queue,
//! 128/80 INT/FP rename registers, a tournament branch predictor with BTB
//! and RAS, and a functional-unit pool whose latencies depend on the device
//! technology each unit is built in — the essence of HetCore.
//!
//! * [`stats`] — pipeline event counters consumed by the power model.
//! * [`fu`] — functional-unit pool with per-class latency/issue interval,
//!   including per-ALU timing for the dual-speed ALU cluster.
//! * [`config`] — [`config::CoreConfig`], every Table III knob. The
//!   predictor's are a `hetsim_trace::predictor::PredictorConfig`: the
//!   trace store walks the predictor once per stream.
//! * [`core`] — the cycle loop: dispatch from the trace store's packed
//!   records, issue/execute/commit with mispredict flushes and dual-speed
//!   ALU steering (Section IV-C2).
//! * [`multicore`] — Amdahl-faithful multicore runs for AdvHet-2X.
//!
//! # Example
//!
//! ```
//! use hetsim_cpu::{config::CoreConfig, core::Core};
//! use hetsim_trace::{apps, TraceGenerator};
//!
//! let cfg = CoreConfig::default(); // the paper's BaseCMOS core
//! let profile = apps::profile("lu").expect("known app");
//! let mut core = Core::new(cfg, 0);
//! let result = core.run(TraceGenerator::new(&profile, 7), 20_000);
//! assert_eq!(result.stats.committed, 20_000);
//! assert!(result.ipc() > 0.5, "LU should extract ILP");
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod core;
pub mod fu;
pub mod multicore;
pub mod profile;
pub mod stats;

pub use config::CoreConfig;
pub use core::{Core, RunResult};
pub use profile::CoreProfile;
pub use stats::CoreStats;
