//! Synthetic instruction traces standing in for SPLASH-2 / PARSEC binaries.
//!
//! The paper evaluates HetCore by running SPLASH-2 and PARSEC applications
//! under the Multi2Sim simulator. This reproduction cannot ship those
//! binaries or a full x86 functional front-end, so each application is
//! replaced by a *deterministic, seeded synthetic instruction stream* whose
//! statistical profile captures exactly the workload properties the HetCore
//! evaluation is sensitive to:
//!
//! * the instruction-class mix (FP add/mul/div, integer ALU/mul/div, loads,
//!   stores, branches) — drives FPU/ALU/TFET-pipelining sensitivity;
//! * the register dependency-distance distribution — drives ILP, i.e. how
//!   well deeper TFET pipelines stay filled;
//! * working-set size and spatial/temporal locality — drives DL1/L2/L3 hit
//!   rates, i.e. sensitivity to the TFET cache latencies and the asymmetric
//!   DL1;
//! * branch-history behaviour — drives the misprediction rate, i.e. how
//!   much the deeper TFET ALU pipeline amplifies the flush penalty;
//! * a parallel fraction — drives multicore scaling for AdvHet-2X.
//!
//! Modules:
//!
//! * [`isa`] — the micro-op model consumed by the CPU simulator.
//! * [`profile`] — [`profile::WorkloadProfile`], the statistical knobs.
//! * [`apps`] — the 14 named application profiles (10 SPLASH-2 + 4 PARSEC).
//! * [`addr`] — the memory address-stream generator.
//! * [`branch`] — per-site branch outcome generation.
//! * [`stream`] — the deterministic trace generator.
//! * [`predictor`] — the Table III tournament predictor the core trains
//!   at dispatch.
//! * [`cache`] — the trace store: packed records read in place, with
//!   each stream's branch outcomes walked once per predictor config, kept
//!   while a pin or a trace holds the stream.
//!
//! # Example
//!
//! ```
//! use hetsim_trace::{apps, stream::TraceGenerator};
//!
//! let profile = apps::profile("fft").expect("fft is a known app");
//! let trace: Vec<_> = TraceGenerator::new(&profile, 42).take(1000).collect();
//! assert_eq!(trace.len(), 1000);
//! // Determinism: the same seed yields the same trace.
//! let again: Vec<_> = TraceGenerator::new(&profile, 42).take(1000).collect();
//! assert_eq!(trace, again);
//! ```

#![warn(missing_docs)]

pub mod addr;
pub mod apps;
pub mod branch;
pub mod cache;
pub mod fuzz;
pub mod isa;
pub mod predictor;
pub mod profile;
pub mod stream;

pub use isa::{Inst, OpClass};
pub use profile::WorkloadProfile;
pub use stream::TraceGenerator;
