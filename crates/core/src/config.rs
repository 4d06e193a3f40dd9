//! The named design points of the paper's Table IV.
//!
//! Each design bundles a timing configuration (for the cycle-level
//! simulators) with a device assignment (for the energy model). The
//! mapping follows Table IV row by row; see each variant's documentation.
//!
//! A design at an operating point resolves in one place:
//! [`CpuDesign::resolve`] yields the [`CpuPoint`] (core configuration
//! plus energy model) that a job simulates and its key hashes, and
//! [`GpuDesign::resolve`] the [`GpuPoint`].

use hetsim_cpu::config::{CoreConfig, Dl1Config, MemoryConfig, SteeringPolicy};
use hetsim_cpu::fu::FuPoolConfig;
use hetsim_device::dvfs::DvfsController;
use hetsim_gpu::config::{GpuConfig, PartitionedRfConfig, RfCacheConfig};
use hetsim_power::account::CpuEnergyModel;
use hetsim_power::assignment::{DeviceAssignment, VoltageFactors};
use serde::{Deserialize, Serialize};

/// The larger ROB of the Enh designs (160 -> 192).
pub const ENH_ROB: u32 = 192;
/// The larger FP register file of the Enh designs (80 -> 128).
pub const ENH_FP_REGS: u32 = 128;

/// A CPU operating point: the clock of the BaseCMOS core (every design
/// keeps its clock relative to it, so BaseTFET runs at half) and the
/// rail voltage factors its energy model prices at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// BaseCMOS core clock (Hz).
    pub hz: f64,
    /// Rail voltage factors, relative to the nominal rails.
    pub volts: VoltageFactors,
}

impl OperatingPoint {
    /// Table III: 2 GHz at the nominal rails.
    pub fn nominal() -> Self {
        OperatingPoint {
            hz: 2.0e9,
            volts: VoltageFactors::default(),
        }
    }

    /// The DVFS point at `hz`: both rails at the lowest voltages that
    /// reach it, relative to the nominal rails. `None` when a rail
    /// cannot reach `hz`.
    pub fn dvfs(hz: f64) -> Option<Self> {
        let dvfs = DvfsController::new();
        let nominal = dvfs.nominal();
        let p = dvfs.operating_point(hz)?;
        Some(OperatingPoint {
            hz,
            volts: VoltageFactors::from_voltages(
                p.v_cmos,
                nominal.v_cmos,
                p.v_tfet,
                nominal.v_tfet,
            ),
        })
    }
}

/// A CPU design resolved at an operating point: the configuration the
/// core simulator runs and the energy model that prices the run. A CPU
/// job key hashes all of it.
#[derive(Debug, Clone)]
pub struct CpuPoint {
    /// The Table IV design.
    pub design: CpuDesign,
    /// The resolved core configuration.
    pub config: CoreConfig,
    /// The resolved energy model.
    pub model: CpuEnergyModel,
}

/// A GPU design resolved for simulation: the configuration the GPU
/// model runs and the device assignment its energy model prices. A GPU
/// job key hashes all of it.
#[derive(Debug, Clone)]
pub struct GpuPoint {
    /// The design.
    pub design: GpuDesign,
    /// The resolved GPU configuration.
    pub config: GpuConfig,
    /// The resolved device assignment.
    pub assignment: DeviceAssignment,
}

/// CPU design points (Table IV, upper half).
///
/// # Example
///
/// ```
/// use hetcore::config::CpuDesign;
///
/// // Every design lowers to a simulatable core and a priced energy model.
/// for design in CpuDesign::ALL {
///     let cfg = design.core_config();
///     cfg.validate().expect("Table IV designs are valid");
///     let _model = design.energy_model();
/// }
/// assert_eq!(CpuDesign::AdvHet.name(), "AdvHet");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CpuDesign {
    /// All-CMOS core: the baseline everything is normalized to.
    BaseCmos,
    /// BaseCMOS + larger ROB (192) & FP-RF (128) + all-CMOS asymmetric DL1
    /// (1 cycle for 1 way, 3 cycles for the rest).
    BaseCmosEnh,
    /// All-TFET core at half the clock (1 GHz).
    BaseTfet,
    /// BaseCMOS with FPUs, ALUs, DL1, L2 and L3 in TFET.
    BaseHet,
    /// BaseHet + larger ROB & FP-RF + dual-speed ALU (3 TFET + 1 CMOS) +
    /// asymmetric DL1 (1 CMOS way, rest TFET).
    AdvHet,
    /// BaseCMOS + larger ROB & FP-RF + only the L3 in TFET.
    BaseL3,
    /// BaseCMOS with FPUs & ALUs built from 100% high-V_t transistors
    /// (Int A/M/D 2/3/6 cycles, FP A/M/D 3/6/12 cycles).
    BaseHighVt,
    /// BaseHet but with all ALUs in CMOS.
    BaseHetFastAlu,
    /// BaseHet + larger ROB & FP-RF.
    BaseHetEnh,
    /// BaseHet-Enh + the dual-speed ALU cluster (no asymmetric DL1 yet).
    BaseHetSplit,
}

impl CpuDesign {
    /// All ten CPU designs, in Table IV order.
    pub const ALL: [CpuDesign; 10] = [
        CpuDesign::BaseCmos,
        CpuDesign::BaseCmosEnh,
        CpuDesign::BaseTfet,
        CpuDesign::BaseHet,
        CpuDesign::AdvHet,
        CpuDesign::BaseL3,
        CpuDesign::BaseHighVt,
        CpuDesign::BaseHetFastAlu,
        CpuDesign::BaseHetEnh,
        CpuDesign::BaseHetSplit,
    ];

    /// The paper's name for the design.
    pub fn name(self) -> &'static str {
        match self {
            CpuDesign::BaseCmos => "BaseCMOS",
            CpuDesign::BaseCmosEnh => "BaseCMOS-Enh",
            CpuDesign::BaseTfet => "BaseTFET",
            CpuDesign::BaseHet => "BaseHet",
            CpuDesign::AdvHet => "AdvHet",
            CpuDesign::BaseL3 => "BaseL3",
            CpuDesign::BaseHighVt => "BaseHighVt",
            CpuDesign::BaseHetFastAlu => "BaseHet-FastALU",
            CpuDesign::BaseHetEnh => "BaseHet-Enh",
            CpuDesign::BaseHetSplit => "BaseHet-Split",
        }
    }

    /// Resolves the design at `op`: its Table IV configuration at the
    /// point's clock (relative clocks kept) with `rob` overriding the ROB
    /// depth, and its energy model at the point's rails.
    pub fn resolve(self, op: OperatingPoint, rob: Option<u32>) -> CpuPoint {
        let mut config = self.core_config();
        config.clock_hz = op.hz * (config.clock_hz / 2.0e9); // keep relative clocks
        if let Some(rob) = rob {
            config.rob_entries = rob;
        }
        CpuPoint {
            design: self,
            config,
            model: self.energy_model().with_voltages(op.volts),
        }
    }

    /// The timing configuration for the cycle-level core model.
    pub fn core_config(self) -> CoreConfig {
        let mut cfg = CoreConfig::default(); // BaseCMOS / Table III
        match self {
            CpuDesign::BaseCmos => {}
            CpuDesign::BaseCmosEnh => {
                cfg.rob_entries = ENH_ROB;
                cfg.fp_regs = ENH_FP_REGS;
                // All-CMOS asymmetric DL1: 1-cycle fast way, 3-cycle rest.
                cfg.memory.dl1 = Dl1Config::Asymmetric { slow_extra: 2 };
            }
            CpuDesign::BaseTfet => {
                // Same microarchitecture, half the clock. Per-unit cycle
                // counts stay at their CMOS values: an all-TFET pipeline
                // needs no deeper pipelining relative to its own clock.
                cfg.clock_hz = 1.0e9;
            }
            CpuDesign::BaseHet => {
                cfg.fus = FuPoolConfig::tfet();
                cfg.memory = MemoryConfig::tfet();
            }
            CpuDesign::AdvHet => {
                cfg.fus = FuPoolConfig::dual_speed();
                cfg.memory = MemoryConfig::advhet();
                cfg.rob_entries = ENH_ROB;
                cfg.fp_regs = ENH_FP_REGS;
                cfg.steering = SteeringPolicy::DualSpeed {
                    window: cfg.issue_width,
                };
            }
            CpuDesign::BaseL3 => {
                cfg.rob_entries = ENH_ROB;
                cfg.fp_regs = ENH_FP_REGS;
                cfg.memory.l3_latency = 40;
            }
            CpuDesign::BaseHighVt => {
                cfg.fus = FuPoolConfig::high_vt();
            }
            CpuDesign::BaseHetFastAlu => {
                cfg.fus = FuPoolConfig::tfet_fast_alu();
                cfg.memory = MemoryConfig::tfet();
            }
            CpuDesign::BaseHetEnh => {
                cfg.fus = FuPoolConfig::tfet();
                cfg.memory = MemoryConfig::tfet();
                cfg.rob_entries = ENH_ROB;
                cfg.fp_regs = ENH_FP_REGS;
            }
            CpuDesign::BaseHetSplit => {
                cfg.fus = FuPoolConfig::dual_speed();
                cfg.memory = MemoryConfig::tfet();
                cfg.rob_entries = ENH_ROB;
                cfg.fp_regs = ENH_FP_REGS;
                cfg.steering = SteeringPolicy::DualSpeed {
                    window: cfg.issue_width,
                };
            }
        }
        cfg
    }

    /// The energy model for this design.
    pub fn energy_model(self) -> CpuEnergyModel {
        match self {
            CpuDesign::BaseCmos => CpuEnergyModel::new(DeviceAssignment::all_cmos()),
            CpuDesign::BaseCmosEnh => CpuEnergyModel::new(DeviceAssignment::all_cmos())
                .with_structure(ENH_ROB, ENH_FP_REGS),
            CpuDesign::BaseTfet => CpuEnergyModel::new(DeviceAssignment::all_tfet()),
            CpuDesign::BaseHet => CpuEnergyModel::new(DeviceAssignment::hetcore_cpu(false)),
            CpuDesign::AdvHet => CpuEnergyModel::new(DeviceAssignment::hetcore_cpu(true))
                .with_dual_speed_alu()
                .with_structure(ENH_ROB, ENH_FP_REGS),
            CpuDesign::BaseL3 => CpuEnergyModel::new(DeviceAssignment::l3_only())
                .with_structure(ENH_ROB, ENH_FP_REGS),
            CpuDesign::BaseHighVt => CpuEnergyModel::new(DeviceAssignment::high_vt_fus()),
            CpuDesign::BaseHetFastAlu => CpuEnergyModel::new(DeviceAssignment::hetcore_fast_alu()),
            CpuDesign::BaseHetEnh => CpuEnergyModel::new(DeviceAssignment::hetcore_cpu(false))
                .with_structure(ENH_ROB, ENH_FP_REGS),
            CpuDesign::BaseHetSplit => CpuEnergyModel::new(DeviceAssignment::hetcore_cpu(false))
                .with_dual_speed_alu()
                .with_structure(ENH_ROB, ENH_FP_REGS),
        }
    }
}

/// GPU design points (Table IV, lower half). `AdvHet2x` is the
/// fixed-power-budget design of Section VII-B1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum GpuDesign {
    /// All-CMOS GPU *with* the register-file cache (added for fairness).
    BaseCmos,
    /// All-TFET GPU at half the clock.
    BaseTfet,
    /// BaseCMOS with the SIMD FPUs and vector RF in TFET (no RF cache).
    BaseHet,
    /// BaseHet + the register-file cache.
    AdvHet,
    /// AdvHet with 16 compute units (same chip power as 8-CU BaseCMOS).
    AdvHet2x,
    /// The Section VIII alternative to the RF cache: a partitioned vector
    /// RF with a fast CMOS partition and a slow TFET partition (after
    /// Abdel-Majeed et al.'s Pilot Register File). Not part of the paper's
    /// Table IV sweep; provided as the extension the paper sketches.
    AdvHetPartitionedRf,
}

impl GpuDesign {
    /// The four Table IV designs plus the 2X point.
    pub const ALL: [GpuDesign; 5] = [
        GpuDesign::BaseCmos,
        GpuDesign::BaseTfet,
        GpuDesign::BaseHet,
        GpuDesign::AdvHet,
        GpuDesign::AdvHet2x,
    ];

    /// The paper's name for the design.
    pub fn name(self) -> &'static str {
        match self {
            GpuDesign::BaseCmos => "BaseCMOS",
            GpuDesign::BaseTfet => "BaseTFET",
            GpuDesign::BaseHet => "BaseHet",
            GpuDesign::AdvHet => "AdvHet",
            GpuDesign::AdvHet2x => "AdvHet-2X",
            GpuDesign::AdvHetPartitionedRf => "AdvHet-PartRF",
        }
    }

    /// Resolves the design: GPU designs run at one operating point, so
    /// this is the Table IV configuration and device assignment.
    pub fn resolve(self) -> GpuPoint {
        GpuPoint {
            design: self,
            config: self.gpu_config(),
            assignment: self.assignment(),
        }
    }

    /// The timing configuration for the GPU model.
    pub fn gpu_config(self) -> GpuConfig {
        let mut cfg = GpuConfig::default(); // BaseCMOS incl. RF cache
        match self {
            GpuDesign::BaseCmos => {}
            GpuDesign::BaseTfet => {
                cfg.clock_hz = 0.5e9;
                cfg.rf_cache = None;
                // DRAM nanoseconds are clock-independent: at half the
                // clock a miss costs half the cycles.
                cfg.mem_miss_latency = 125;
            }
            GpuDesign::BaseHet => {
                cfg.fma_latency = 6;
                cfg.rf_latency = 2;
                cfg.rf_cache = None;
            }
            GpuDesign::AdvHet => {
                cfg.fma_latency = 6;
                cfg.rf_latency = 2;
                cfg.rf_cache = Some(RfCacheConfig::default());
            }
            GpuDesign::AdvHet2x => {
                cfg.fma_latency = 6;
                cfg.rf_latency = 2;
                cfg.rf_cache = Some(RfCacheConfig::default());
                cfg.compute_units = 16;
            }
            GpuDesign::AdvHetPartitionedRf => {
                cfg.fma_latency = 6;
                cfg.rf_latency = 2;
                cfg.rf_cache = None;
                cfg.rf_partition = Some(PartitionedRfConfig::default());
            }
        }
        cfg
    }

    /// The device assignment for the energy model.
    pub fn assignment(self) -> DeviceAssignment {
        match self {
            GpuDesign::BaseCmos => DeviceAssignment::all_cmos(),
            GpuDesign::BaseTfet => DeviceAssignment::all_tfet(),
            GpuDesign::BaseHet
            | GpuDesign::AdvHet
            | GpuDesign::AdvHet2x
            | GpuDesign::AdvHetPartitionedRf => DeviceAssignment::hetcore_gpu(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim_power::assignment::UnitImpl;
    use hetsim_power::units::CpuUnit;

    #[test]
    fn ten_cpu_designs_with_unique_names() {
        let mut names: Vec<_> = CpuDesign::ALL.iter().map(|d| d.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 10);
    }

    #[test]
    fn all_cpu_configs_validate() {
        for d in CpuDesign::ALL {
            d.core_config()
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", d.name()));
        }
    }

    #[test]
    fn basetfet_runs_at_half_clock() {
        assert_eq!(CpuDesign::BaseTfet.core_config().clock_hz, 1.0e9);
        assert_eq!(CpuDesign::BaseCmos.core_config().clock_hz, 2.0e9);
    }

    #[test]
    fn advhet_has_all_four_optimizations() {
        let cfg = CpuDesign::AdvHet.core_config();
        assert_eq!(cfg.rob_entries, 192);
        assert_eq!(cfg.fp_regs, 128);
        assert!(cfg.fus.has_dual_speed_alus());
        assert!(matches!(
            cfg.memory.dl1,
            Dl1Config::Asymmetric { slow_extra: 4 }
        ));
        assert!(matches!(
            cfg.steering,
            SteeringPolicy::DualSpeed { window: 4 }
        ));
    }

    #[test]
    fn basecmos_enh_matches_table_iv() {
        let cfg = CpuDesign::BaseCmosEnh.core_config();
        assert_eq!(cfg.rob_entries, 192);
        // 1 cycle fast way + 2 extra = 3 cycles for the rest.
        assert!(matches!(
            cfg.memory.dl1,
            Dl1Config::Asymmetric { slow_extra: 2 }
        ));
        assert!(!cfg.fus.has_dual_speed_alus());
    }

    #[test]
    fn basel3_only_slows_l3() {
        let cfg = CpuDesign::BaseL3.core_config();
        assert_eq!(cfg.memory.l3_latency, 40);
        assert_eq!(cfg.memory.l2_latency, 8);
        assert!(matches!(cfg.memory.dl1, Dl1Config::Plain { latency: 2 }));
        let m = CpuDesign::BaseL3.energy_model();
        assert_eq!(m.assignment().cpu_impl(CpuUnit::L3), UnitImpl::Tfet);
        assert_eq!(m.assignment().cpu_impl(CpuUnit::L2), UnitImpl::Cmos);
    }

    #[test]
    fn gpu_designs_match_table_iv() {
        assert!(
            GpuDesign::BaseCmos.gpu_config().rf_cache.is_some(),
            "fairness RF cache"
        );
        assert!(GpuDesign::BaseHet.gpu_config().rf_cache.is_none());
        assert!(GpuDesign::AdvHet.gpu_config().rf_cache.is_some());
        assert_eq!(GpuDesign::BaseTfet.gpu_config().clock_hz, 0.5e9);
        assert_eq!(GpuDesign::AdvHet2x.gpu_config().compute_units, 16);
        assert_eq!(GpuDesign::BaseHet.gpu_config().fma_latency, 6);
    }
}
