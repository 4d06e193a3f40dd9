//! # HetCore: TFET-CMOS hetero-device CPUs and GPUs
//!
//! A reproduction of *HetCore: TFET-CMOS Hetero-Device Architecture for
//! CPUs and GPUs* (Gopireddy, Skarlatos, Zhu, Torrellas — ISCA 2018).
//!
//! HetCore integrates Tunneling-FET (TFET) units and CMOS units inside a
//! single core: TFET devices switch ~2x slower but consume ~4-8x less
//! power at their optimal voltage, so HetCore builds the high-power,
//! pipelinable, latency-tolerant units (FPUs, ALUs, DL1/L2/L3 caches; on a
//! GPU the SIMD FMAs and the vector register file) in TFET, keeps the rest
//! in CMOS, powers the two groups from separate rails, and clocks
//! everything at one frequency by pipelining TFET units twice as deep.
//! *AdvHet* then recovers most of the lost performance with an asymmetric
//! DL1 (one CMOS way in front of the TFET ways), a dual-speed ALU cluster
//! with consumer-aware steering, a larger ROB/FP-RF, and (GPU) a register
//! file cache.
//!
//! This crate is the top of the reproduction stack: it defines every
//! configuration of the paper's Table IV, runs them on the synthetic
//! SPLASH-2/PARSEC and AMD-APP-SDK workloads, applies the McPAT/GPUWattch-
//! like energy model, and regenerates every table and figure of the
//! paper's evaluation (Tables I-IV, Figures 1-3 and 7-14).
//!
//! * [`config`] — named CPU/GPU design points (Table IV), resolved at an
//!   operating point.
//! * [`experiment`] — running a resolved point on a workload; time +
//!   energy.
//! * [`campaign`] — content-addressed jobs, keyed on what they simulate.
//! * [`report`] — tables (text/CSV/JSON) in the shape of the paper's figures.
//! * [`suite`] — one entry point per paper table/figure.
//! * [`telemetry`] — the machine-readable `--stats-out` counter dump.
//! * [`regression`] — cross-run diffing of those dumps against pinned
//!   baselines (`repro diff` / `repro baseline` / `repro ci-gate`).
//!
//! Campaigns execute on the `hetsim-runner` engine: a work-stealing
//! thread pool plus a content-addressed result cache, with parallel
//! runs bit-identical to serial ones (see `hetsim_runner`'s crate
//! docs for the determinism contract).
//!
//! # Quickstart
//!
//! ```
//! use hetcore::config::CpuDesign;
//! use hetcore::experiment::run_cpu;
//! use hetsim_trace::apps;
//!
//! let app = apps::profile("lu").expect("known app");
//! let base = run_cpu(CpuDesign::BaseCmos, &app, 42, 20_000);
//! let adv = run_cpu(CpuDesign::AdvHet, &app, 42, 20_000);
//! // AdvHet trades a little time for a lot of energy.
//! assert!(adv.seconds >= base.seconds);
//! assert!(adv.energy.total_j() < base.energy.total_j());
//! ```

#![warn(missing_docs)]

pub mod bench;
pub mod campaign;
pub mod check;
pub mod config;
pub mod experiment;
pub mod explore;
pub mod migration;
pub mod regression;
pub mod report;
pub mod suite;
pub mod telemetry;

pub use campaign::{
    cpu_job, cpu_job_key, gpu_job, gpu_job_key, Fingerprinted, GpuLaunch, CPU_SCHEMA, GPU_SCHEMA,
};
pub use config::{CpuDesign, CpuPoint, GpuDesign, GpuPoint, OperatingPoint};
pub use experiment::{
    run_cpu, run_cpu_multicore, run_gpu, run_gpu_scheduled, CpuOutcome, CpuRun, GpuOutcome, GpuRun,
};
pub use explore::{explore, DesignSpace, ExploreConfig, ExploreResult, EXPLORE_SCHEMA};
pub use migration::{iso_area_comparison, run_migration_cmp, MigrationConfig};
pub use regression::{diff_dumps, DiffPolicy, DiffReport, DumpDoc};
pub use report::Report;
pub use suite::Experiment;
pub use telemetry::StatsDump;
