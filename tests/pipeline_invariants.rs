//! Cross-crate invariants: event conservation between the trace, the
//! pipeline, the memory system and the power model.

use hetcore_repro::hetcore::config::CpuDesign;
use hetcore_repro::hetsim_cpu::core::{Core, RunResult};
use hetcore_repro::hetsim_power::account::CpuEnergyModel;
use hetcore_repro::hetsim_power::assignment::DeviceAssignment;
use hetcore_repro::hetsim_trace::cache::{self, CachedTrace};
use hetcore_repro::hetsim_trace::{apps, stream::TraceGenerator, Inst};
use proptest::prelude::*;

const INSTS: u64 = 50_000;

/// Every committed instruction is exactly one of the operation classes,
/// and memory traffic equals the executed loads + stores.
#[test]
fn event_counts_are_conserved_for_every_design() {
    let app = apps::profile("fmm").expect("known app");
    for design in CpuDesign::ALL {
        let mut core = Core::new(design.core_config(), 0);
        let r = core.run(TraceGenerator::new(&app, 9), INSTS);
        let s = &r.stats;
        assert_eq!(s.committed, INSTS, "{}", design.name());
        let by_class = s.alu_ops()
            + s.int_mul_ops
            + s.int_div_ops
            + s.fpu_ops()
            + s.loads
            + s.stores
            + s.branches;
        assert_eq!(
            by_class,
            s.committed,
            "{}: class counts must partition",
            design.name()
        );
        assert_eq!(
            s.issues,
            s.committed,
            "{}: every inst issues once",
            design.name()
        );
        assert_eq!(
            s.loads + s.stores,
            r.mem.dl1_accesses(),
            "{}: every memory op reaches the DL1 exactly once",
            design.name()
        );
        assert!(s.mispredicts <= s.branches, "{}", design.name());
    }
}

/// The energy breakdown's parts always sum to the total, and every part is
/// non-negative; ED and ED^2 relate by the delay factor.
#[test]
fn energy_accounting_identities() {
    let app = apps::profile("water-sp").expect("known app");
    for design in [CpuDesign::BaseCmos, CpuDesign::BaseHet, CpuDesign::AdvHet] {
        let mut core = Core::new(design.core_config(), 0);
        let r = core.run(TraceGenerator::new(&app, 11), INSTS);
        let seconds = r.seconds();
        let e = design.energy_model().energy(&r.stats, &r.mem, seconds);
        let parts = e.core_dynamic_j
            + e.core_leakage_j
            + e.l2_dynamic_j
            + e.l2_leakage_j
            + e.l3_dynamic_j
            + e.l3_leakage_j;
        assert!((parts - e.total_j()).abs() < 1e-18, "{}", design.name());
        assert!(e.dynamic_j() > 0.0 && e.leakage_j() > 0.0);
        assert!((e.ed2(seconds) / e.ed(seconds) - seconds).abs() / seconds < 1e-12);
    }
}

/// The whole stack is deterministic: identical seeds produce bit-identical
/// statistics and energies.
#[test]
fn full_stack_determinism() {
    let app = apps::profile("radix").expect("known app");
    let run = || {
        let mut core = Core::new(CpuDesign::AdvHet.core_config(), 0);
        let r = core.run(TraceGenerator::new(&app, 5), INSTS);
        let e = CpuDesign::AdvHet
            .energy_model()
            .energy(&r.stats, &r.mem, r.seconds());
        (r.stats, r.mem, e.total_j())
    };
    let (s1, m1, e1) = run();
    let (s2, m2, e2) = run();
    assert_eq!(s1, s2);
    assert_eq!(m1, m2);
    assert_eq!(e1.to_bits(), e2.to_bits());
}

/// Dynamic energy depends only on events; leakage only on time. Scaling
/// runtime at fixed events moves exactly the leakage terms.
#[test]
fn leakage_scales_with_time_dynamic_does_not() {
    let app = apps::profile("dct-placeholder-not-used");
    assert!(app.is_none(), "guard: unknown names return None");

    let app = apps::profile("cholesky").expect("known app");
    let mut core = Core::new(CpuDesign::BaseCmos.core_config(), 0);
    let r = core.run(TraceGenerator::new(&app, 3), INSTS);
    let model = CpuEnergyModel::new(DeviceAssignment::all_cmos());
    let e1 = model.energy(&r.stats, &r.mem, 1.0e-5);
    let e2 = model.energy(&r.stats, &r.mem, 2.0e-5);
    assert!((e1.dynamic_j() - e2.dynamic_j()).abs() < 1e-18);
    assert!((e2.leakage_j() / e1.leakage_j() - 2.0).abs() < 1e-9);
}

/// Warmed runs measure exactly the requested region: the measured
/// committed count excludes the warmup instructions.
#[test]
fn warmup_region_is_excluded_from_measurement() {
    let app = apps::profile("lu").expect("known app");
    let mut core = Core::new(CpuDesign::BaseCmos.core_config(), 0);
    let r = core.run_warmed(TraceGenerator::new(&app, 3), 20_000, 30_000);
    assert_eq!(r.stats.committed, 30_000);
    // A cold run of the same region has at least as many DRAM accesses.
    let mut cold_core = Core::new(CpuDesign::BaseCmos.core_config(), 0);
    let cold = cold_core.run(TraceGenerator::new(&app, 3), 50_000);
    assert!(cold.mem.dram_accesses >= r.mem.dram_accesses);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A stored stream, an unstored generator and a list of the same
    /// records dispatch to the same run on a steering design: one
    /// dispatch path, whatever the trace's source.
    #[test]
    fn every_trace_source_dispatches_to_the_same_run(idx in 0usize..14, seed in any::<u64>()) {
        let app = &apps::all()[idx];
        let cfg = CpuDesign::AdvHet.core_config();
        let (warmup, n) = (3_000, 12_000);
        let bound = warmup + n + cfg.steering.lookahead_window() + 1;
        let run = |trace: CachedTrace| -> RunResult {
            Core::new(cfg.clone(), 0).run_warmed(trace, warmup, n)
        };
        let stored = run(cache::replay(app, seed, 0, bound));
        let listed: Vec<Inst> = TraceGenerator::new(app, seed).take(bound as usize).collect();
        for other in [run(TraceGenerator::new(app, seed).into()), run(listed.into())] {
            prop_assert_eq!(other.stats, stored.stats);
            prop_assert_eq!(other.mem, stored.mem);
            prop_assert_eq!(&other.profile, &stored.profile);
        }
        prop_assert!(stored.stats.alu_fast_ops > 0, "{} steers", app.name);
    }
}
