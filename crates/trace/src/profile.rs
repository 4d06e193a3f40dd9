//! Statistical workload profiles.
//!
//! A [`WorkloadProfile`] is the complete parameterization of one synthetic
//! application: everything the trace generator samples from. Profiles for
//! the paper's applications live in [`crate::apps`].

use crate::branch::MAX_SITES;
use crate::stream::THREAD_ADDRESS_STRIDE;

/// Instruction-class mix. Weights are relative; they are normalized by the
/// generator, but by convention the named profiles sum to 1.0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstMix {
    /// Simple integer ALU ops.
    pub int_alu: f64,
    /// Integer multiplies.
    pub int_mul: f64,
    /// Integer divides.
    pub int_div: f64,
    /// FP adds.
    pub fp_add: f64,
    /// FP multiplies.
    pub fp_mul: f64,
    /// FP divides.
    pub fp_div: f64,
    /// Loads.
    pub load: f64,
    /// Stores.
    pub store: f64,
    /// Conditional branches.
    pub branch: f64,
}

impl InstMix {
    /// Sum of all weights.
    pub fn total(&self) -> f64 {
        self.int_alu
            + self.int_mul
            + self.int_div
            + self.fp_add
            + self.fp_mul
            + self.fp_div
            + self.load
            + self.store
            + self.branch
    }

    /// Fraction of floating-point operations.
    pub fn fp_fraction(&self) -> f64 {
        (self.fp_add + self.fp_mul + self.fp_div) / self.total()
    }

    /// Validates that every weight is finite and non-negative and the total
    /// is positive.
    pub fn validate(&self) -> Result<(), String> {
        let parts = [
            ("int_alu", self.int_alu),
            ("int_mul", self.int_mul),
            ("int_div", self.int_div),
            ("fp_add", self.fp_add),
            ("fp_mul", self.fp_mul),
            ("fp_div", self.fp_div),
            ("load", self.load),
            ("store", self.store),
            ("branch", self.branch),
        ];
        for (name, w) in parts {
            if !w.is_finite() || w < 0.0 {
                return Err(format!("instruction mix weight {name} is invalid: {w}"));
            }
        }
        if self.total() <= 0.0 {
            return Err("instruction mix total must be positive".to_string());
        }
        Ok(())
    }
}

/// Memory-behaviour knobs for the address generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryBehavior {
    /// Working-set size in bytes; random accesses fall within it.
    pub working_set_bytes: u64,
    /// Probability that an access continues a sequential (unit-stride)
    /// stream — models spatial locality and prefetch-friendly scans.
    pub spatial: f64,
    /// Probability that a (non-sequential) access hits a small hot region —
    /// models stack/temporally hot data.
    pub temporal: f64,
    /// Size of the hot region in bytes.
    pub hot_region_bytes: u64,
}

impl MemoryBehavior {
    /// Validates ranges. A working set fits in one thread's address
    /// space, [`THREAD_ADDRESS_STRIDE`] bytes, so the threads of a
    /// multicore run touch disjoint addresses.
    pub fn validate(&self) -> Result<(), String> {
        if self.working_set_bytes == 0 {
            return Err("working set must be non-empty".to_string());
        }
        if self.working_set_bytes > THREAD_ADDRESS_STRIDE {
            return Err(format!(
                "working set ({}) must fit in a thread's {THREAD_ADDRESS_STRIDE}-byte address space",
                self.working_set_bytes
            ));
        }
        if self.hot_region_bytes == 0 || self.hot_region_bytes > self.working_set_bytes {
            return Err(format!(
                "hot region ({}) must be non-empty and within the working set ({})",
                self.hot_region_bytes, self.working_set_bytes
            ));
        }
        for (name, p) in [("spatial", self.spatial), ("temporal", self.temporal)] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} locality must be in [0,1]: {p}"));
            }
        }
        Ok(())
    }
}

/// Branch-behaviour knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BranchBehavior {
    /// Number of static branch sites cycled through by the trace.
    pub sites: u32,
    /// Probability that a data-dependent branch follows its per-site
    /// dominant direction (a real predictor will approach this accuracy
    /// from below on such branches).
    pub bias: f64,
    /// Fraction of branch instances that are loop back-edges with period
    /// `loop_period` (predictable by local history except at loop exits).
    pub loop_fraction: f64,
    /// Loop trip count for back-edge branches.
    pub loop_period: u32,
}

impl BranchBehavior {
    /// Validates ranges. At most [`MAX_SITES`] sites, so that no site's
    /// pc is a call's or a return's.
    pub fn validate(&self) -> Result<(), String> {
        if self.sites == 0 {
            return Err("need at least one branch site".to_string());
        }
        if self.sites > MAX_SITES {
            return Err(format!(
                "{} branch sites exceed the {MAX_SITES} below the call and return pcs",
                self.sites
            ));
        }
        if !(0.5..=1.0).contains(&self.bias) {
            return Err(format!(
                "bias is a dominant-direction probability in [0.5,1]: {}",
                self.bias
            ));
        }
        if !(0.0..=1.0).contains(&self.loop_fraction) {
            return Err(format!(
                "loop fraction must be in [0,1]: {}",
                self.loop_fraction
            ));
        }
        if self.loop_period < 2 {
            return Err("loop period must be at least 2".to_string());
        }
        Ok(())
    }
}

/// The full statistical description of one synthetic application.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Application name (e.g. `"fft"`).
    pub name: &'static str,
    /// Benchmark suite the application comes from (e.g. `"SPLASH-2"`).
    pub suite: &'static str,
    /// Instruction-class mix.
    pub mix: InstMix,
    /// Mean register dependency distance (geometric distribution); larger
    /// means more ILP.
    pub mean_dep_distance: f64,
    /// Memory behaviour.
    pub memory: MemoryBehavior,
    /// Branch behaviour.
    pub branches: BranchBehavior,
    /// Parallelizable fraction of the work (Amdahl), used by multicore runs.
    pub parallel_fraction: f64,
    /// Default dynamic instruction count for full experiment runs.
    pub default_length: u64,
}

impl WorkloadProfile {
    /// Validates every field; returns a description of the first problem.
    ///
    /// # Errors
    ///
    /// Returns `Err` if any weight, probability or size is out of range.
    pub fn validate(&self) -> Result<(), String> {
        self.mix.validate()?;
        self.memory.validate()?;
        self.branches.validate()?;
        if self.mean_dep_distance < 1.0 || self.mean_dep_distance.is_nan() {
            return Err(format!(
                "mean dependency distance must be >= 1: {}",
                self.mean_dep_distance
            ));
        }
        if !(0.0..=1.0).contains(&self.parallel_fraction) {
            return Err(format!(
                "parallel fraction must be in [0,1]: {}",
                self.parallel_fraction
            ));
        }
        if self.default_length == 0 {
            return Err("default length must be positive".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sane_profile() -> WorkloadProfile {
        WorkloadProfile {
            name: "test",
            suite: "unit",
            mix: InstMix {
                int_alu: 0.35,
                int_mul: 0.02,
                int_div: 0.01,
                fp_add: 0.10,
                fp_mul: 0.10,
                fp_div: 0.01,
                load: 0.22,
                store: 0.09,
                branch: 0.10,
            },
            mean_dep_distance: 5.0,
            memory: MemoryBehavior {
                working_set_bytes: 1 << 20,
                spatial: 0.6,
                temporal: 0.3,
                hot_region_bytes: 4096,
            },
            branches: BranchBehavior {
                sites: 64,
                bias: 0.95,
                loop_fraction: 0.4,
                loop_period: 16,
            },
            parallel_fraction: 0.95,
            default_length: 100_000,
        }
    }

    #[test]
    fn sane_profile_validates() {
        sane_profile().validate().expect("profile should be valid");
    }

    #[test]
    fn mix_total_and_fp_fraction() {
        let p = sane_profile();
        assert!((p.mix.total() - 1.0).abs() < 1e-12);
        assert!((p.mix.fp_fraction() - 0.21).abs() < 1e-12);
    }

    #[test]
    fn rejects_negative_weight() {
        let mut p = sane_profile();
        p.mix.fp_add = -0.1;
        assert!(p.validate().is_err());
    }

    #[test]
    fn rejects_oversized_hot_region() {
        let mut p = sane_profile();
        p.memory.hot_region_bytes = p.memory.working_set_bytes * 2;
        assert!(p.validate().is_err());
    }

    #[test]
    fn rejects_a_working_set_past_the_thread_address_stride() {
        let mut p = sane_profile();
        p.memory.working_set_bytes = THREAD_ADDRESS_STRIDE;
        p.validate()
            .expect("a whole thread's address space is valid");
        p.memory.working_set_bytes += 1;
        let err = p
            .validate()
            .expect_err("one byte more reaches the next thread");
        assert!(err.contains("address space"), "{err}");
    }

    #[test]
    fn rejects_branch_sites_that_reach_the_call_pcs() {
        let mut p = sane_profile();
        p.branches.sites = 3584;
        p.validate().expect("site pcs below the call pcs are valid");
        p.branches.sites += 1;
        let err = p
            .validate()
            .expect_err("site 3584's pc is the first call pc");
        assert!(err.contains("branch sites"), "{err}");
    }

    #[test]
    fn rejects_low_bias() {
        let mut p = sane_profile();
        p.branches.bias = 0.3;
        assert!(p.validate().is_err());
    }

    #[test]
    fn rejects_sub_unit_dep_distance() {
        let mut p = sane_profile();
        p.mean_dep_distance = 0.5;
        assert!(p.validate().is_err());
    }
}
