//! Compiler latency-hiding pass (the paper's future work, Section IV-C4:
//! "One could also customize the GPU compiler to hide some of the
//! additional FPU latency. We leave the analysis of these techniques to
//! future work.").
//!
//! A simple list-scheduling pass over the kernel's instruction sequence:
//! for every instruction that consumes its immediate predecessor's result,
//! the scheduler tries to hoist a nearby *independent* instruction in
//! between. On a wavefront pipeline that issues one instruction per four
//! lane-cycles, a single intervening instruction covers four-plus cycles
//! of the producer's latency — which is precisely how production GPU
//! compilers hide deep pipeline latencies.

use crate::kernel::GpuInst;

/// Result of scheduling: the reordered kernel and what the pass did.
#[derive(Debug, Clone)]
pub struct Scheduled {
    /// The reordered instruction sequence.
    pub insts: Vec<GpuInst>,
    /// Dependent pairs the pass managed to separate.
    pub separated: u64,
    /// Dependent pairs that had no independent filler in the window.
    pub unseparated: u64,
}

/// Schedules `kernel` with a lookahead of `window` instructions.
///
/// # Example
///
/// ```
/// use hetsim_gpu::{kernels, schedule::schedule_kernel};
///
/// let kernel = kernels::profile("dct").expect("known kernel").generate(1);
/// let scheduled = schedule_kernel(&kernel, 4);
/// assert_eq!(scheduled.insts.len(), kernel.len());
/// assert!(scheduled.separated > 0);
/// ```
///
/// The transformation preserves the multiset of instructions. A separated
/// consumer no longer stalls on its predecessor at issue (the intervening
/// instruction's issue occupancy covers the dependence), which the model
/// expresses by clearing its `dep_on_prev` flag; the hoisted filler keeps
/// its own dependence semantics (it is only hoisted when independent).
///
/// # Panics
///
/// Panics if `window` is zero.
pub fn schedule_kernel(kernel: &[GpuInst], window: usize) -> Scheduled {
    assert!(window > 0, "need a lookahead window");
    let mut insts: Vec<GpuInst> = kernel.to_vec();
    let mut separated = 0;
    let mut unseparated = 0;

    let mut i = 1;
    while i < insts.len() {
        if !insts[i].dep_on_prev {
            i += 1;
            continue;
        }
        // Find an independent instruction within the window to hoist in
        // front of the dependent one. An instruction is hoistable if it
        // does not consume its own predecessor's result (it is not
        // `dep_on_prev`) — moving it cannot violate its input dependence
        // because it moves *earlier* only past instructions it does not
        // depend on, and `dep_on_prev` is the model's only ordering edge.
        let limit = (i + window).min(insts.len() - 1);
        let mut hoisted = false;
        for j in (i + 1)..=limit {
            if !insts[j].dep_on_prev {
                let filler = insts.remove(j);
                insts.insert(i, filler);
                // The consumer now sits at i+1 with the filler before it:
                // its producer is two slots back, covered by the filler's
                // issue occupancy.
                insts[i + 1].dep_on_prev = false;
                separated += 1;
                hoisted = true;
                break;
            }
        }
        if !hoisted {
            unseparated += 1;
        }
        i += 1;
    }

    Scheduled {
        insts,
        separated,
        unseparated,
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use crate::cu::{run_cu, DecodedKernel};
    use crate::kernels;

    fn kernel() -> (crate::kernel::KernelProfile, Vec<GpuInst>) {
        let p = kernels::profile("binomialoption").expect("known kernel");
        let insts = p.generate(3);
        (p, insts)
    }

    #[test]
    fn instruction_multiset_is_preserved() {
        let (_, insts) = kernel();
        let scheduled = schedule_kernel(&insts, 4);
        assert_eq!(scheduled.insts.len(), insts.len());
        let count = |v: &[GpuInst], op| v.iter().filter(|i| i.op == op).count();
        for op in [
            crate::kernel::GpuOp::Valu,
            crate::kernel::GpuOp::Mem,
            crate::kernel::GpuOp::Lds,
        ] {
            assert_eq!(count(&scheduled.insts, op), count(&insts, op));
        }
    }

    #[test]
    fn dependence_density_falls() {
        let (_, insts) = kernel();
        let dep = |v: &[GpuInst]| v.iter().filter(|i| i.dep_on_prev).count();
        let before = dep(&insts);
        let scheduled = schedule_kernel(&insts, 4);
        let after = dep(&scheduled.insts);
        assert!(
            after < before,
            "scheduling must separate pairs: {before} -> {after}"
        );
        assert!(scheduled.separated > 0);
    }

    #[test]
    fn scheduling_recovers_tfet_fpu_latency() {
        // The future-work claim: a latency-hiding compiler pass speeds up
        // the TFET GPU on dependency-dense kernels.
        let (profile, insts) = kernel();
        let mut tfet = GpuConfig::default();
        tfet.fma_latency = 6;
        tfet.rf_latency = 2;
        tfet.rf_cache = None;
        let raw = run_cu(&DecodedKernel::new(&tfet, &profile, &insts), 3, 1).0;
        let scheduled = schedule_kernel(&insts, 6);
        let tuned = run_cu(&DecodedKernel::new(&tfet, &profile, &scheduled.insts), 3, 1).0;
        assert!(
            tuned.cycles < raw.cycles,
            "scheduled kernel should run faster: {} vs {}",
            tuned.cycles,
            raw.cycles
        );
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_panics() {
        let (_, insts) = kernel();
        let _ = schedule_kernel(&insts, 0);
    }
}
