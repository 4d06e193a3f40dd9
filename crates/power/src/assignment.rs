//! Unit-to-device assignments and the resulting energy scalings.
//!
//! Each unit of a HetCore design is built in one of three implementations;
//! the assignment scales the baseline CMOS energies from [`crate::mcpat`]:
//!
//! * **CMOS** — the dual-V_t baseline (factor 1 on both energy terms).
//! * **All-high-V_t CMOS** (the BaseHighVt study): same dynamic energy as
//!   regular CMOS (Section III-B), 10x lower leakage (Table IV notes).
//! * **TFET** — conservatively 4x lower dynamic energy (Section V-B) and
//!   10x lower leakage (Section VI).
//!
//! Voltage factors for DVFS and process-variation guardbands are applied
//! per rail on top of the implementation factors.

use hetsim_device::scaling::PowerAssumption;

use crate::units::{CpuUnit, GpuUnit};

/// The device implementation of one unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum UnitImpl {
    /// Dual-V_t Si-CMOS (the baseline).
    #[default]
    Cmos,
    /// 100% high-V_t Si-CMOS: baseline dynamic, 10x lower leakage, slower.
    HighVt,
    /// HetJTFET at V_TFET.
    Tfet,
}

impl UnitImpl {
    /// Dynamic-energy factor vs. the CMOS baseline.
    pub fn dynamic_factor(self, assumption: PowerAssumption) -> f64 {
        match self {
            UnitImpl::Cmos => 1.0,
            // High-Vt transistors consume about the same dynamic energy as
            // regular-Vt (Section III-B).
            UnitImpl::HighVt => 1.0,
            UnitImpl::Tfet => 1.0 / assumption.dynamic_energy_ratio(),
        }
    }

    /// Leakage-power factor vs. the CMOS baseline.
    pub fn leakage_factor(self, assumption: PowerAssumption) -> f64 {
        match self {
            UnitImpl::Cmos => 1.0,
            UnitImpl::HighVt => 0.1,
            UnitImpl::Tfet => 1.0 / assumption.leakage_power_ratio(),
        }
    }
}

/// Per-rail voltage factors for DVFS / guardbands, relative to the nominal
/// operating point (V_CMOS = 0.73 V, V_TFET = 0.44 V).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltageFactors {
    /// `(V_CMOS / V_CMOS_nominal)^2` — dynamic-energy factor for CMOS
    /// units.
    pub cmos_dynamic: f64,
    /// `(V_TFET / V_TFET_nominal)^2`.
    pub tfet_dynamic: f64,
    /// Linear leakage-power factor for CMOS units.
    pub cmos_leakage: f64,
    /// Linear leakage-power factor for TFET units.
    pub tfet_leakage: f64,
}

impl Default for VoltageFactors {
    fn default() -> Self {
        VoltageFactors {
            cmos_dynamic: 1.0,
            tfet_dynamic: 1.0,
            cmos_leakage: 1.0,
            tfet_leakage: 1.0,
        }
    }
}

impl VoltageFactors {
    /// Factors for supplies moved from nominal `v0` to `v`, per rail:
    /// CV^2 on dynamic energy, linear on leakage power.
    pub fn from_voltages(v_cmos: f64, v_cmos0: f64, v_tfet: f64, v_tfet0: f64) -> Self {
        VoltageFactors {
            cmos_dynamic: (v_cmos / v_cmos0).powi(2),
            tfet_dynamic: (v_tfet / v_tfet0).powi(2),
            cmos_leakage: v_cmos / v_cmos0,
            tfet_leakage: v_tfet / v_tfet0,
        }
    }
}

/// A complete device assignment for a CPU design.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceAssignment {
    cpu: Vec<(CpuUnit, UnitImpl)>,
    gpu: Vec<(GpuUnit, UnitImpl)>,
    /// The TFET power assumption (conservative 4x by default).
    pub assumption: PowerAssumption,
    /// Voltage factors relative to nominal.
    pub voltages: VoltageFactors,
}

impl DeviceAssignment {
    fn uniform(imp: UnitImpl) -> Self {
        DeviceAssignment {
            cpu: CpuUnit::ALL.iter().map(|&u| (u, imp)).collect(),
            gpu: GpuUnit::ALL.iter().map(|&u| (u, imp)).collect(),
            assumption: PowerAssumption::Conservative,
            voltages: VoltageFactors::default(),
        }
    }

    /// Everything in dual-V_t CMOS (BaseCMOS).
    pub fn all_cmos() -> Self {
        DeviceAssignment::uniform(UnitImpl::Cmos)
    }

    /// Everything in TFET (BaseTFET). The paper gives BaseTFET the full 8x
    /// dynamic-*power* advantage at half the clock (Section VI), which is a
    /// 4x dynamic-*energy* factor per operation — the same per-event factor
    /// as Table I's ALU energy ratio. Leakage power is 10x lower but
    /// integrates over the ~2x longer runtime.
    pub fn all_tfet() -> Self {
        DeviceAssignment::uniform(UnitImpl::Tfet)
    }

    /// The BaseHet/AdvHet CPU assignment (Table II): FPUs, ALUs, DL1, L2,
    /// L3 in TFET; `asymmetric_dl1` keeps the 4 KB fast way in CMOS and is
    /// set for AdvHet.
    pub fn hetcore_cpu(asymmetric_dl1: bool) -> Self {
        let mut a = DeviceAssignment::all_cmos();
        for (u, imp) in a.cpu.iter_mut() {
            if u.tfet_in_basehet() {
                *imp = UnitImpl::Tfet;
            }
        }
        // The fast way exists only in the asymmetric design and is CMOS;
        // mark it TFET-irrelevant either way (it stays CMOS).
        let _ = asymmetric_dl1;
        a
    }

    /// BaseL3: only the L3 in TFET (Table IV).
    pub fn l3_only() -> Self {
        let mut a = DeviceAssignment::all_cmos();
        a.set_cpu(CpuUnit::L3, UnitImpl::Tfet);
        a
    }

    /// BaseHighVt: FPUs and ALUs in 100% high-V_t CMOS (Table IV).
    pub fn high_vt_fus() -> Self {
        let mut a = DeviceAssignment::all_cmos();
        a.set_cpu(CpuUnit::Fpu, UnitImpl::HighVt);
        a.set_cpu(CpuUnit::Alu, UnitImpl::HighVt);
        a.set_cpu(CpuUnit::IntMulDiv, UnitImpl::HighVt);
        a
    }

    /// BaseHet-FastALU: like HetCore but with all ALUs in CMOS.
    pub fn hetcore_fast_alu() -> Self {
        let mut a = DeviceAssignment::hetcore_cpu(false);
        a.set_cpu(CpuUnit::Alu, UnitImpl::Cmos);
        a
    }

    /// The GPU BaseHet/AdvHet assignment (Table II): SIMD FPUs and the
    /// vector RF in TFET.
    pub fn hetcore_gpu() -> Self {
        let mut a = DeviceAssignment::all_cmos();
        for (u, imp) in a.gpu.iter_mut() {
            if u.tfet_in_basehet() {
                *imp = UnitImpl::Tfet;
            }
        }
        a
    }

    /// Overrides one CPU unit's implementation.
    pub fn set_cpu(&mut self, unit: CpuUnit, imp: UnitImpl) -> &mut Self {
        for (u, i) in self.cpu.iter_mut() {
            if *u == unit {
                *i = imp;
            }
        }
        self
    }

    /// The implementation of a CPU unit.
    pub fn cpu_impl(&self, unit: CpuUnit) -> UnitImpl {
        self.cpu
            .iter()
            .find(|(u, _)| *u == unit)
            .map(|(_, i)| *i)
            .expect("every CPU unit is assigned")
    }

    /// The implementation of a GPU unit.
    pub fn gpu_impl(&self, unit: GpuUnit) -> UnitImpl {
        self.gpu
            .iter()
            .find(|(u, _)| *u == unit)
            .map(|(_, i)| *i)
            .expect("every GPU unit is assigned")
    }

    /// Combined dynamic-energy factor for a CPU unit (implementation x
    /// rail voltage).
    pub fn cpu_dynamic_factor(&self, unit: CpuUnit) -> f64 {
        let imp = self.cpu_impl(unit);
        let volt = match imp {
            UnitImpl::Tfet => self.voltages.tfet_dynamic,
            _ => self.voltages.cmos_dynamic,
        };
        imp.dynamic_factor(self.assumption) * volt
    }

    /// Combined leakage-power factor for a CPU unit.
    pub fn cpu_leakage_factor(&self, unit: CpuUnit) -> f64 {
        let imp = self.cpu_impl(unit);
        let volt = match imp {
            UnitImpl::Tfet => self.voltages.tfet_leakage,
            _ => self.voltages.cmos_leakage,
        };
        imp.leakage_factor(self.assumption) * volt
    }

    /// Combined dynamic-energy factor for a GPU unit.
    pub fn gpu_dynamic_factor(&self, unit: GpuUnit) -> f64 {
        let imp = self.gpu_impl(unit);
        let volt = match imp {
            UnitImpl::Tfet => self.voltages.tfet_dynamic,
            _ => self.voltages.cmos_dynamic,
        };
        imp.dynamic_factor(self.assumption) * volt
    }

    /// Combined leakage-power factor for a GPU unit.
    pub fn gpu_leakage_factor(&self, unit: GpuUnit) -> f64 {
        let imp = self.gpu_impl(unit);
        let volt = match imp {
            UnitImpl::Tfet => self.voltages.tfet_leakage,
            _ => self.voltages.cmos_leakage,
        };
        imp.leakage_factor(self.assumption) * volt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basecmos_factors_are_unity() {
        let a = DeviceAssignment::all_cmos();
        for u in CpuUnit::ALL {
            assert_eq!(a.cpu_dynamic_factor(u), 1.0);
            assert_eq!(a.cpu_leakage_factor(u), 1.0);
        }
    }

    #[test]
    fn hetcore_moves_table_ii_units() {
        let a = DeviceAssignment::hetcore_cpu(true);
        assert_eq!(a.cpu_impl(CpuUnit::Fpu), UnitImpl::Tfet);
        assert_eq!(a.cpu_impl(CpuUnit::Alu), UnitImpl::Tfet);
        assert_eq!(a.cpu_impl(CpuUnit::Dl1), UnitImpl::Tfet);
        assert_eq!(a.cpu_impl(CpuUnit::L2), UnitImpl::Tfet);
        assert_eq!(a.cpu_impl(CpuUnit::L3), UnitImpl::Tfet);
        assert_eq!(a.cpu_impl(CpuUnit::Fetch), UnitImpl::Cmos);
        assert_eq!(a.cpu_impl(CpuUnit::Dl1Fast), UnitImpl::Cmos);
        assert_eq!(a.cpu_impl(CpuUnit::IntRf), UnitImpl::Cmos);
    }

    #[test]
    fn tfet_units_use_conservative_4x_dynamic() {
        let a = DeviceAssignment::hetcore_cpu(false);
        assert!((a.cpu_dynamic_factor(CpuUnit::Fpu) - 0.25).abs() < 1e-12);
        assert!((a.cpu_leakage_factor(CpuUnit::Fpu) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn basetfet_uses_4x_energy_factor() {
        let a = DeviceAssignment::all_tfet();
        assert!((a.cpu_dynamic_factor(CpuUnit::Fpu) - 0.25).abs() < 1e-12);
        assert_eq!(
            a.cpu_impl(CpuUnit::Fetch),
            UnitImpl::Tfet,
            "everything is TFET"
        );
    }

    #[test]
    fn high_vt_keeps_dynamic_cuts_leakage() {
        let a = DeviceAssignment::high_vt_fus();
        assert_eq!(a.cpu_dynamic_factor(CpuUnit::Alu), 1.0);
        assert!((a.cpu_leakage_factor(CpuUnit::Alu) - 0.1).abs() < 1e-12);
        assert_eq!(a.cpu_leakage_factor(CpuUnit::L2), 1.0);
    }

    #[test]
    fn voltage_factors_apply_to_the_right_rail() {
        let mut a = DeviceAssignment::hetcore_cpu(false);
        a.voltages = VoltageFactors::from_voltages(0.85, 0.73, 0.53, 0.44);
        // A CMOS unit scales by (0.85/0.73)^2 only.
        let f = a.cpu_dynamic_factor(CpuUnit::Fetch);
        assert!((f - (0.85f64 / 0.73).powi(2)).abs() < 1e-12);
        // A TFET unit scales by 1/4 x (0.53/0.44)^2.
        let t = a.cpu_dynamic_factor(CpuUnit::Fpu);
        assert!((t - 0.25 * (0.53f64 / 0.44).powi(2)).abs() < 1e-12);
    }

    #[test]
    fn gpu_assignment_moves_fma_and_rf() {
        let a = DeviceAssignment::hetcore_gpu();
        assert_eq!(a.gpu_impl(GpuUnit::SimdFma), UnitImpl::Tfet);
        assert_eq!(a.gpu_impl(GpuUnit::VectorRf), UnitImpl::Tfet);
        assert_eq!(a.gpu_impl(GpuUnit::RfCache), UnitImpl::Cmos);
        assert_eq!(a.gpu_impl(GpuUnit::MemPipe), UnitImpl::Cmos);
    }
}
