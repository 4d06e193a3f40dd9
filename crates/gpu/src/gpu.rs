//! The whole GPU: wavefront distribution across compute units.
//!
//! The launch's wavefronts are distributed round-robin over the configured
//! compute units; CUs execute independently (per-CU LDS and register
//! files; the synthetic kernels' memory behaviour is folded into per-access
//! latencies). Total time is the slowest CU. Doubling the CU count at a
//! fixed launch size — the AdvHet-2X experiment — halves each CU's share.

use hetsim_check::Checker;

use crate::config::GpuConfig;
use crate::cu::{run_cu, DecodedKernel};
use crate::kernel::KernelProfile;
use crate::profile::CuProfile;
use crate::stats::{validate_gpu_stats, GpuStats};

/// Result of a GPU kernel launch.
#[derive(Debug, Clone)]
pub struct GpuRunResult {
    /// Aggregated counters (cycles = slowest CU).
    pub stats: GpuStats,
    /// The clock the GPU ran at (Hz).
    pub clock_hz: f64,
    /// Compute units that participated.
    pub compute_units: u32,
    /// Per-CU top-down cycle attribution (one entry per CU, in CU
    /// order). Each entry's classes sum to that CU's own cycle count.
    pub profiles: Vec<CuProfile>,
}

impl GpuRunResult {
    /// Wall-clock seconds of the launch.
    pub fn seconds(&self) -> f64 {
        self.stats.cycles as f64 / self.clock_hz
    }
}

/// The GPU model.
#[derive(Debug, Clone)]
pub struct Gpu {
    cfg: GpuConfig,
}

impl Gpu {
    /// Builds a GPU.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: GpuConfig) -> Self {
        cfg.validate().expect("valid GPU config");
        Gpu { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Launches `kernel` (deterministically from `seed`) and runs it to
    /// completion.
    pub fn run(&self, kernel: &KernelProfile, seed: u64) -> GpuRunResult {
        let insts = kernel.generate(seed);
        self.run_insts(kernel, &insts, seed)
    }

    /// Validates a finished launch: the generic [`validate_gpu_stats`]
    /// identities, total launch work (`insts_per_wavefront x wavefronts`),
    /// the per-CU issue-throughput cycle bound, and that structures absent
    /// from this configuration left their counters at zero.
    pub fn validate_launch(
        &self,
        kernel: &KernelProfile,
        result: &GpuRunResult,
        checker: &mut Checker,
    ) {
        validate_gpu_stats(&result.stats, checker);
        checker.scoped("gpu", |c| {
            let s = &result.stats;
            c.eq_u64(
                "gpu.launch_work",
                ("wavefront_insts", s.wavefront_insts),
                (
                    "insts_per_wavefront * wavefronts",
                    u64::from(kernel.insts_per_wavefront) * u64::from(kernel.wavefronts),
                ),
            );
            // One wavefront instruction per CU per cycle; round-robin
            // distribution means the slowest CU issues at least the mean.
            c.ge_u64(
                "gpu.issue_throughput_bound",
                ("cycles", s.cycles),
                (
                    "wavefront_insts / compute_units",
                    s.wavefront_insts
                        .div_ceil(u64::from(result.compute_units.max(1))),
                ),
            );
            if self.cfg.rf_cache.is_none() {
                c.eq_u64(
                    "gpu.rfc_absent",
                    (
                        "rf_cache accesses + hits + misses",
                        s.rf_cache_accesses + s.rf_cache_hits + s.rf_cache_misses,
                    ),
                    ("0", 0),
                );
            }
            if self.cfg.rf_partition.is_none() {
                c.eq_u64(
                    "gpu.partition_absent",
                    ("rf_fast_accesses", s.rf_fast_accesses),
                    ("0", 0),
                );
            }
            // Top-down attribution conservation, per CU: every cycle is
            // charged to exactly one class, and the slowest CU's cycles
            // are the launch's cycles.
            let mut slowest = 0u64;
            for (cu, p) in result.profiles.iter().enumerate() {
                c.eq_u64(
                    "gpu.profile_class_conservation",
                    (&format!("cu{cu} class_cycles"), p.classes.total()),
                    (&format!("cu{cu} profile_cycles"), p.cycles),
                );
                slowest = slowest.max(p.cycles);
            }
            if !result.profiles.is_empty() {
                c.eq_u64(
                    "gpu.profile_cycles_match",
                    ("slowest cu profile_cycles", slowest),
                    ("cycles", s.cycles),
                );
            }
        });
    }

    /// Runs `insts`, the instructions `kernel.generate(seed)` returned
    /// or a [`crate::schedule`] of them, as [`Gpu::run`] does. Callers
    /// that launch one kernel on several GPUs generate it once.
    pub fn run_insts(
        &self,
        kernel: &KernelProfile,
        insts: &[crate::kernel::GpuInst],
        seed: u64,
    ) -> GpuRunResult {
        // Decoded once: every CU runs the same stream.
        let decoded = DecodedKernel::new(&self.cfg, kernel, insts);
        let cus = self.cfg.compute_units;
        // Round-robin wavefront distribution.
        let base = kernel.wavefronts / cus;
        let extra = kernel.wavefronts % cus;
        let mut stats = GpuStats::default();
        let mut profiles = Vec::with_capacity(cus as usize);
        for cu in 0..cus {
            let waves = base + u32::from(cu < extra);
            let (cu_stats, cu_profile) = run_cu(
                &decoded,
                waves,
                seed.wrapping_add(0x9E37 * u64::from(cu) + 1),
            );
            stats.merge(&cu_stats);
            profiles.push(cu_profile);
        }
        GpuRunResult {
            stats,
            clock_hz: self.cfg.clock_hz,
            compute_units: cus,
            profiles,
        }
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use crate::kernels;

    #[test]
    fn full_launch_completes_all_work() {
        let k = kernels::profile("reduction").expect("known");
        let r = Gpu::new(GpuConfig::default()).run(&k, 9);
        assert_eq!(
            r.stats.wavefront_insts,
            u64::from(k.insts_per_wavefront) * u64::from(k.wavefronts)
        );
    }

    #[test]
    fn doubling_cus_speeds_up_the_launch() {
        let k = kernels::profile("matmul").expect("known");
        let eight = Gpu::new(GpuConfig::default()).run(&k, 9);
        let mut cfg = GpuConfig::default();
        cfg.compute_units = 16;
        let sixteen = Gpu::new(cfg).run(&k, 9);
        let speedup = eight.seconds() / sixteen.seconds();
        assert!(
            (1.4..2.2).contains(&speedup),
            "16 CUs should approach 2x over 8: {speedup:.2}x"
        );
    }

    #[test]
    fn half_clock_doubles_seconds() {
        let k = kernels::profile("dct").expect("known");
        let base = Gpu::new(GpuConfig::default()).run(&k, 9);
        let mut cfg = GpuConfig::default();
        cfg.clock_hz = 0.5e9;
        let slow = Gpu::new(cfg).run(&k, 9);
        let ratio = slow.seconds() / base.seconds();
        assert!((1.9..2.1).contains(&ratio), "seconds ratio {ratio}");
    }

    #[test]
    fn checked_launch_is_clean() {
        for name in ["matmul", "reduction", "dct"] {
            let k = kernels::profile(name).expect("known");
            let gpu = Gpu::new(GpuConfig::default());
            let r = gpu.run(&k, 9);
            let mut checker = Checker::new();
            gpu.validate_launch(&k, &r, &mut checker);
            assert!(
                checker.is_clean(),
                "{name}: invariants must hold: {:?}",
                checker.violations()
            );
        }
    }

    #[test]
    fn validate_launch_flags_corrupted_counters() {
        let k = kernels::profile("matmul").expect("known");
        let gpu = Gpu::new(GpuConfig::default());
        let mut r = gpu.run(&k, 9);
        r.stats.valu_insts += 1; // breaks op conservation and lane math
        let mut checker = hetsim_check::Checker::new();
        gpu.validate_launch(&k, &r, &mut checker);
        assert!(checker
            .violations()
            .iter()
            .any(|v| v.invariant == "gpu.op_conservation"));
        assert!(checker
            .violations()
            .iter()
            .any(|v| v.invariant == "gpu.fma_lanes"));
    }

    #[test]
    fn deterministic_across_runs() {
        let k = kernels::profile("sobel").expect("known");
        let gpu = Gpu::new(GpuConfig::default());
        let a = gpu.run(&k, 4);
        let b = gpu.run(&k, 4);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn tfet_gpu_is_slower_but_not_2x_with_occupancy() {
        // BaseHet GPU: TFET FMA (6) + TFET RF (2), no RF cache, same clock.
        let k = kernels::profile("binomialoption").expect("known");
        let mut cmos = GpuConfig::default();
        cmos.rf_cache = None;
        let mut het = cmos.clone();
        het.fma_latency = 6;
        het.rf_latency = 2;
        let base = Gpu::new(cmos).run(&k, 5);
        let slow = Gpu::new(het).run(&k, 5);
        let ratio = slow.seconds() / base.seconds();
        assert!(ratio > 1.02, "TFET units must cost something: {ratio:.3}");
        assert!(ratio < 1.9, "occupancy must hide most of it: {ratio:.3}");
    }
}
