//! Core configuration — every knob of the paper's Table III.

use hetsim_mem::cache::CacheConfig;
use hetsim_mem::hierarchy::{DataCacheSpec, HierarchyConfig};
use hetsim_trace::predictor::PredictorConfig;

use crate::fu::FuPoolConfig;

/// Dual-speed ALU steering policy (paper Section IV-C2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SteeringPolicy {
    /// No steering: all ALUs are equivalent (homogeneous cluster).
    None,
    /// Generation-Time-Gap steering: an instruction whose consumer appears
    /// within `window` upcoming instructions is steered to the fast (CMOS)
    /// ALU; everything else goes to the slow (TFET) cluster. The paper sets
    /// the window to the issue width.
    DualSpeed {
        /// Lookahead window in instructions.
        window: u32,
    },
}

impl SteeringPolicy {
    /// How far past the dispatched record steering peeks, in
    /// instructions (0 when no steering). A run of `n` committed
    /// instructions reads fewer than `warmup + n + lookahead_window() + 1`
    /// records of its trace, which callers use to bound trace-store
    /// requests.
    pub fn lookahead_window(self) -> u64 {
        match self {
            SteeringPolicy::None => 0,
            SteeringPolicy::DualSpeed { window } => u64::from(window),
        }
    }
}

/// Full configuration of one out-of-order core.
#[derive(Debug, Clone)]
pub struct CoreConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: u32,
    /// Instructions dispatched/issued/committed per cycle.
    pub issue_width: u32,
    /// Reorder-buffer entries (160 baseline; 192 in the Enh designs).
    pub rob_entries: u32,
    /// Issue-queue entries.
    pub iq_entries: u32,
    /// Load-store-queue entries.
    pub lsq_entries: u32,
    /// Integer rename registers.
    pub int_regs: u32,
    /// FP rename registers (80 baseline; 128 in the Enh designs).
    pub fp_regs: u32,
    /// Front-end depth: the fetch-to-dispatch refill delay paid after a
    /// branch misprediction (the front end stays CMOS in every design).
    pub frontend_delay: u32,
    /// Core clock (Hz).
    pub clock_hz: f64,
    /// Functional-unit pool timings.
    pub fus: FuPoolConfig,
    /// ALU steering policy.
    pub steering: SteeringPolicy,
    /// Memory-hierarchy geometry/latencies.
    pub memory: MemoryConfig,
    /// Branch predictor sizing.
    pub predictor: PredictorConfig,
}

/// Cache latencies/geometries for the four Table III levels.
#[derive(Debug, Clone)]
pub struct MemoryConfig {
    /// IL1 round trip (2 cycles in every design — IL1 stays CMOS).
    pub il1_latency: u32,
    /// DL1 organization.
    pub dl1: Dl1Config,
    /// L2 round trip (8 CMOS / 12 TFET).
    pub l2_latency: u32,
    /// L3 round trip (32 CMOS / 40 TFET).
    pub l3_latency: u32,
}

/// DL1 organization options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dl1Config {
    /// Conventional 32 KB 8-way DL1 with the given round trip
    /// (2 CMOS / 4 TFET).
    Plain {
        /// Round-trip latency in cycles.
        latency: u32,
    },
    /// Asymmetric DL1: 4 KB 1-way fast partition (1 cycle) + 28 KB 7-way
    /// slow partition (`slow_extra` additional cycles; 4 for TFET ways,
    /// 2 for the all-CMOS Enh variant).
    Asymmetric {
        /// Extra cycles past the fast probe for a slow-partition hit.
        slow_extra: u32,
    },
}

impl MemoryConfig {
    /// The all-CMOS memory latencies of BaseCMOS.
    pub fn cmos() -> Self {
        MemoryConfig {
            il1_latency: 2,
            dl1: Dl1Config::Plain { latency: 2 },
            l2_latency: 8,
            l3_latency: 32,
        }
    }

    /// The TFET cache latencies of BaseHet (DL1/L2/L3 in TFET).
    pub fn tfet() -> Self {
        MemoryConfig {
            il1_latency: 2,
            dl1: Dl1Config::Plain { latency: 4 },
            l2_latency: 12,
            l3_latency: 40,
        }
    }

    /// AdvHet: asymmetric DL1 (1-cycle CMOS way + 4-extra-cycle TFET ways)
    /// over TFET L2/L3.
    pub fn advhet() -> Self {
        MemoryConfig {
            il1_latency: 2,
            dl1: Dl1Config::Asymmetric { slow_extra: 4 },
            l2_latency: 12,
            l3_latency: 40,
        }
    }

    /// Lowers to the `hetsim-mem` hierarchy configuration.
    pub fn to_hierarchy(&self, clock_hz: f64) -> HierarchyConfig {
        let dl1 = match self.dl1 {
            Dl1Config::Plain { latency } => {
                DataCacheSpec::Plain(CacheConfig::new(32 * 1024, 8, 64, latency))
            }
            Dl1Config::Asymmetric { slow_extra } => DataCacheSpec::Asymmetric {
                fast: CacheConfig::new(4 * 1024, 1, 64, 1),
                slow: CacheConfig::new(28 * 1024, 7, 64, slow_extra),
            },
        };
        HierarchyConfig {
            il1: CacheConfig::new(32 * 1024, 2, 64, self.il1_latency),
            dl1,
            l2: CacheConfig::new(256 * 1024, 8, 64, self.l2_latency),
            l3: CacheConfig::new(2 * 1024 * 1024, 16, 64, self.l3_latency),
            clock_hz,
        }
    }
}

impl Default for CoreConfig {
    /// The paper's BaseCMOS core (Table III at 2 GHz).
    fn default() -> Self {
        CoreConfig {
            fetch_width: 4,
            issue_width: 4,
            rob_entries: 160,
            iq_entries: 64,
            lsq_entries: 48,
            int_regs: 128,
            fp_regs: 80,
            frontend_delay: 10,
            clock_hz: 2.0e9,
            fus: FuPoolConfig::cmos(),
            steering: SteeringPolicy::None,
            memory: MemoryConfig::cmos(),
            predictor: PredictorConfig::default(),
        }
    }
}

impl CoreConfig {
    /// Validates structural parameters, the functional-unit pool
    /// ([`FuPoolConfig::validate`]) and the branch predictor
    /// ([`PredictorConfig::validate`]): a config that passes builds a
    /// [`crate::core::Core`] without panicking.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid parameter.
    pub fn validate(&self) -> Result<(), String> {
        if self.fetch_width == 0 || self.issue_width == 0 {
            return Err("widths must be positive".into());
        }
        if self.rob_entries < self.issue_width {
            return Err("ROB must hold at least one issue group".into());
        }
        if self.iq_entries == 0 || self.lsq_entries == 0 {
            return Err("queues must be non-empty".into());
        }
        if self.int_regs < 32 || self.fp_regs < 32 {
            return Err("need at least the architectural register count".into());
        }
        if self.clock_hz <= 0.0 {
            return Err(format!("clock must be positive: {}", self.clock_hz));
        }
        self.fus.validate()?;
        self.predictor.validate()
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;

    #[test]
    fn default_is_table_iii() {
        let c = CoreConfig::default();
        assert_eq!(c.issue_width, 4);
        assert_eq!(c.rob_entries, 160);
        assert_eq!(c.iq_entries, 64);
        assert_eq!(c.lsq_entries, 48);
        assert_eq!(c.int_regs, 128);
        assert_eq!(c.fp_regs, 80);
        assert_eq!(c.clock_hz, 2.0e9);
        c.validate().expect("default validates");
    }

    #[test]
    fn memory_latency_presets() {
        let cmos = MemoryConfig::cmos();
        assert_eq!(cmos.dl1, Dl1Config::Plain { latency: 2 });
        assert_eq!(cmos.l2_latency, 8);
        assert_eq!(cmos.l3_latency, 32);
        let tfet = MemoryConfig::tfet();
        assert_eq!(tfet.dl1, Dl1Config::Plain { latency: 4 });
        assert_eq!(tfet.l2_latency, 12);
        assert_eq!(tfet.l3_latency, 40);
    }

    #[test]
    fn hierarchy_lowering_builds() {
        let h = MemoryConfig::advhet().to_hierarchy(2.0e9);
        match h.dl1 {
            DataCacheSpec::Asymmetric { fast, slow } => {
                assert_eq!(fast.size_bytes, 4 * 1024);
                assert_eq!(slow.size_bytes, 28 * 1024);
            }
            DataCacheSpec::Plain(_) => panic!("advhet DL1 must be asymmetric"),
        }
    }

    #[test]
    fn validation_rejects_zero_clock() {
        let mut c = CoreConfig::default();
        c.clock_hz = 0.0;
        assert!(c.validate().is_err());
    }

    /// The error for a config changed by `edit` names `field`.
    fn rejected(edit: impl FnOnce(&mut CoreConfig), field: &str) {
        let mut c = CoreConfig::default();
        edit(&mut c);
        let err = c.validate().expect_err(field);
        assert!(err.contains(field), "{err}");
    }

    #[test]
    fn validation_rejects_a_local_history_wider_than_its_register() {
        rejected(
            |c| c.predictor.local_history_bits = 16,
            "predictor.local_history_bits",
        );
    }

    #[test]
    fn validation_rejects_an_oversized_global_history() {
        rejected(
            |c| c.predictor.global_history_bits = 64,
            "predictor.global_history_bits",
        );
    }

    #[test]
    fn validation_rejects_a_zero_way_btb() {
        rejected(|c| c.predictor.btb_ways = 0, "predictor.btb_ways");
    }

    #[test]
    fn validation_rejects_a_btb_that_splits_into_uneven_sets() {
        rejected(|c| c.predictor.btb_ways = 3, "predictor.btb_ways");
    }

    #[test]
    fn validation_rejects_a_non_power_of_two_local_table() {
        rejected(
            |c| c.predictor.local_entries = 1000,
            "predictor.local_entries",
        );
    }

    #[test]
    fn validation_rejects_a_non_power_of_two_btb() {
        rejected(|c| c.predictor.btb_entries = 2000, "predictor.btb_entries");
    }

    #[test]
    fn validation_rejects_an_empty_alu_cluster() {
        rejected(|c| c.fus.alus.clear(), "fus.alus");
    }

    #[test]
    fn validation_rejects_an_empty_muldiv_pool() {
        rejected(|c| c.fus.int_muldiv_units = 0, "fus.int_muldiv_units");
    }

    #[test]
    fn validation_rejects_an_empty_fpu_pool() {
        rejected(|c| c.fus.fpu_units = 0, "fus.fpu_units");
    }

    #[test]
    fn validation_rejects_an_empty_lsu_pool() {
        rejected(|c| c.fus.lsu_units = 0, "fus.lsu_units");
    }

    #[test]
    fn validation_rejects_more_units_than_a_pool_indexes() {
        rejected(|c| c.fus.lsu_units = 65, "fus.lsu_units");
    }

    #[test]
    fn validation_rejects_a_zero_issue_interval() {
        rejected(
            |c| c.fus.alus[2].issue_interval = 0,
            "fus.alus[2].issue_interval",
        );
        rejected(
            |c| c.fus.fp_div.issue_interval = 0,
            "fus.fp_div.issue_interval",
        );
    }

    #[test]
    fn validation_rejects_a_zero_latency() {
        rejected(|c| c.fus.int_mul.latency = 0, "fus.int_mul.latency");
    }
}
