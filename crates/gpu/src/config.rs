//! GPU configuration (paper Table III, GPU rows).

/// Vector registers per thread (AMD Southern Islands).
pub const VREGS_PER_THREAD: u32 = 256;

/// Threads per wavefront.
pub const WAVEFRONT_THREADS: u32 = 64;

pub use crate::partitioned::PartitionedRfConfig;

/// Register-file cache configuration (Section IV-C3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RfCacheConfig {
    /// Entries per thread (6 in the paper).
    pub entries: u32,
    /// Access latency in cycles (1 in the paper).
    pub latency: u32,
}

impl Default for RfCacheConfig {
    fn default() -> Self {
        RfCacheConfig {
            entries: 6,
            latency: 1,
        }
    }
}

/// Full configuration of the GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Compute units (8 baseline, 16 for AdvHet-2X).
    pub compute_units: u32,
    /// SIMD lanes (execution units) per CU.
    pub lanes_per_cu: u32,
    /// Maximum resident wavefronts per CU. Architecturally Southern
    /// Islands allows 10 per SIMD, but register/LDS pressure limits real
    /// AMD APP SDK kernels to a handful — which is what leaves latency
    /// exposed enough for the paper's BaseHet GPU to lose 28%.
    pub waves_per_cu: u32,
    /// Core clock (Hz): 1 GHz baseline, 0.5 GHz for BaseTFET.
    pub clock_hz: f64,
    /// FMA pipeline latency: 3 (CMOS) or 6 (TFET); pipelined, issue every
    /// cycle.
    pub fma_latency: u32,
    /// Main vector-RF access latency: 1 (CMOS) or 2 (TFET).
    pub rf_latency: u32,
    /// Register-file cache, if present (AdvHet and — for fairness — the
    /// paper's GPU BaseCMOS).
    pub rf_cache: Option<RfCacheConfig>,
    /// Partitioned register file, if present (the Section VIII
    /// alternative; mutually exclusive with `rf_cache`).
    pub rf_partition: Option<PartitionedRfConfig>,
    /// LDS access latency.
    pub lds_latency: u32,
    /// Global-memory latency on an on-chip hit (cycles).
    pub mem_hit_latency: u32,
    /// Global-memory latency on a miss to DRAM (cycles).
    pub mem_miss_latency: u32,
}

impl Default for GpuConfig {
    /// The paper's GPU BaseCMOS: 8 CUs, 16 EUs, 1 GHz, CMOS latencies,
    /// register-file cache included for fairness (Table IV).
    fn default() -> Self {
        GpuConfig {
            compute_units: 8,
            lanes_per_cu: 16,
            waves_per_cu: 3,
            clock_hz: 1.0e9,
            fma_latency: 3,
            rf_latency: 1,
            rf_cache: Some(RfCacheConfig::default()),
            rf_partition: None,
            lds_latency: 4,
            mem_hit_latency: 28,
            mem_miss_latency: 250,
        }
    }
}

impl GpuConfig {
    /// Cycles a wavefront occupies a SIMD: 64 threads over 16 lanes.
    pub fn issue_cycles_per_wavefront(&self) -> u32 {
        WAVEFRONT_THREADS / self.lanes_per_cu
    }

    /// Validates structural parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid parameter.
    pub fn validate(&self) -> Result<(), String> {
        if self.compute_units == 0 || self.lanes_per_cu == 0 || self.waves_per_cu == 0 {
            return Err("GPU dimensions must be positive".into());
        }
        if !WAVEFRONT_THREADS.is_multiple_of(self.lanes_per_cu) {
            return Err(format!(
                "{} lanes must divide the 64-thread wavefront",
                self.lanes_per_cu
            ));
        }
        if self.clock_hz <= 0.0 {
            return Err(format!("clock must be positive: {}", self.clock_hz));
        }
        if self.fma_latency == 0 || self.rf_latency == 0 {
            return Err("latencies must be at least one cycle".into());
        }
        if self.rf_cache.is_some() && self.rf_partition.is_some() {
            return Err("rf_cache and rf_partition are mutually exclusive".into());
        }
        if self.rf_cache.is_some_and(|c| c.entries == 0) {
            return Err("the RF cache needs at least one entry".into());
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_iii() {
        let c = GpuConfig::default();
        assert_eq!(c.compute_units, 8);
        assert_eq!(c.lanes_per_cu, 16);
        assert_eq!(c.clock_hz, 1.0e9);
        assert_eq!(c.fma_latency, 3);
        assert_eq!(c.rf_latency, 1);
        assert_eq!(
            c.rf_cache,
            Some(RfCacheConfig {
                entries: 6,
                latency: 1
            })
        );
        c.validate().expect("default validates");
    }

    #[test]
    fn wavefront_issues_over_four_cycles() {
        assert_eq!(GpuConfig::default().issue_cycles_per_wavefront(), 4);
    }

    #[test]
    fn validation_rejects_bad_lane_count() {
        let mut c = GpuConfig::default();
        c.lanes_per_cu = 24;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_an_empty_rf_cache() {
        let mut c = GpuConfig::default();
        c.rf_cache = Some(RfCacheConfig {
            entries: 0,
            latency: 1,
        });
        let err = c.validate().expect_err("zero RF-cache entries");
        assert!(err.contains("at least one entry"), "{err}");
    }
}
