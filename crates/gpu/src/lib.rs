//! Cycle-level SIMT GPU model after AMD Southern Islands.
//!
//! This crate reproduces the GPU side of the paper's evaluation platform
//! (Multi2Sim's Southern Islands model, Table III): 8 compute units of 16
//! execution units each at 1 GHz, 64-thread wavefronts issued over four
//! lane cycles, a 256-register-per-thread vector register file (1-cycle
//! CMOS / 2-cycle TFET access), pipelined SIMD FMA units (3-cycle CMOS /
//! 6-cycle TFET), and the AdvHet register-file cache (6 entries per
//! thread, caching *writes only*, 1-cycle access — Section IV-C3).
//!
//! GPU workloads are synthetic kernels standing in for the AMD APP SDK
//! suite (the substitution mirrors the CPU side, see DESIGN.md): each
//! kernel is a deterministic instruction sequence — all wavefronts execute
//! the same code, as in real SIMT — characterized by its VALU/memory/LDS
//! mix, dependency density, register reuse behaviour and memory miss rate.
//!
//! * [`config`] — [`config::GpuConfig`], every Table III GPU knob.
//! * [`kernel`] — the kernel instruction model and generator.
//! * [`kernels`] — the named AMD-APP-SDK-flavored kernel profiles.
//! * [`rfcache`] — the write-allocate register-file cache.
//! * [`partitioned`] — the partitioned-RF alternative from related work
//!   (fast CMOS partition + slow TFET partition, Section VIII).
//! * [`schedule`] — the future-work compiler latency-hiding pass.
//! * [`cu`] — one compute unit: the per-launch kernel decode, scoreboard,
//!   round-robin issue.
//! * [`gpu`] — the whole GPU: wavefront distribution over CUs.
//! * [`stats`] — event counters for the GPUWattch-like energy model.
//! * [`profile`] — per-CU cycle attribution, residency and skip counts.
//!
//! # Example
//!
//! ```
//! use hetsim_gpu::{config::GpuConfig, gpu::Gpu, kernels};
//!
//! let kernel = kernels::profile("matmul").expect("known kernel");
//! let result = Gpu::new(GpuConfig::default()).run(&kernel, 77);
//! assert!(result.stats.cycles > 0);
//! assert!(result.stats.wavefront_insts > 0);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod cu;
pub mod gpu;
pub mod kernel;
pub mod kernels;
pub mod partitioned;
pub mod profile;
pub mod rfcache;
pub mod schedule;
pub mod stats;

pub use config::GpuConfig;
pub use gpu::{Gpu, GpuRunResult};
pub use kernel::KernelProfile;
pub use profile::CuProfile;
pub use stats::GpuStats;
