//! Integration tests for the beyond-Table-IV experiments: the Section VIII
//! comparisons and the future-work techniques.

use hetcore_repro::hetcore::config::GpuDesign;
use hetcore_repro::hetcore::experiment::{run_gpu, run_gpu_scheduled};
use hetcore_repro::hetcore::migration::{run_migration_cmp, MigrationConfig};
use hetcore_repro::hetcore::suite::{Extension, Suite};
use hetcore_repro::hetsim_device::area;
use hetcore_repro::hetsim_gpu::kernels;
use hetcore_repro::hetsim_runner::Runner;
use hetcore_repro::hetsim_trace::apps;

/// The migration CMP uses (at most) the silicon of the AdvHet chip it is
/// compared against, and AdvHet still wins both axes on a parallel app.
#[test]
fn migration_comparison_is_iso_area_and_advhet_wins() {
    let advhet_chip = area::chip(4, area::hetcore_core());
    let migration_chip = area::chip(2, area::cmos_core()) + area::chip(2, area::tfet_core());
    assert!(
        migration_chip <= advhet_chip,
        "the baseline gets the area benefit"
    );

    let app = apps::profile("fft").expect("known app");
    let (adv, mig) = hetcore_repro::hetcore::migration::iso_area_comparison(&app, 3, 120_000);
    assert!(adv.seconds < mig.seconds);
    assert!(adv.energy.total_j() < mig.energy.total_j());
}

/// Migration-interval granularity: more frequent barriers cost more time
/// (more migrations), never less.
#[test]
fn finer_barrier_intervals_cost_migration_time() {
    let app = apps::profile("lu").expect("known app");
    let coarse = MigrationConfig {
        interval_insts: 50_000,
        ..MigrationConfig::default()
    };
    let fine = MigrationConfig {
        interval_insts: 5_000,
        ..MigrationConfig::default()
    };
    let c = run_migration_cmp(&coarse, &app, 3, 200_000);
    let f = run_migration_cmp(&fine, &app, 3, 200_000);
    assert!(f.intervals > c.intervals);
    assert!(f.seconds >= c.seconds);
}

/// The partitioned RF recovers BaseHet's RF-latency loss across the whole
/// kernel suite (mean), as the Section VIII adaptation predicts.
#[test]
fn partitioned_rf_recovers_across_the_suite() {
    let mut het = 0.0;
    let mut part = 0.0;
    for kernel in kernels::all().into_iter().take(6) {
        het += run_gpu(GpuDesign::BaseHet, &kernel, 5).seconds;
        part += run_gpu(GpuDesign::AdvHetPartitionedRf, &kernel, 5).seconds;
    }
    assert!(
        part < het,
        "partitioned RF mean time {part} vs BaseHet {het}"
    );
}

/// Compiler scheduling shrinks the hetero design's *relative* slowdown
/// (scheduling helps both designs, but the deep TFET pipelines more).
#[test]
fn scheduling_shrinks_the_relative_hetero_gap() {
    let mut raw_gap = 0.0;
    let mut sched_gap = 0.0;
    for kernel in ["binomialoption", "dct", "urng"] {
        let k = kernels::profile(kernel).expect("known kernel");
        raw_gap += run_gpu(GpuDesign::BaseHet, &k, 7).seconds
            / run_gpu(GpuDesign::BaseCmos, &k, 7).seconds;
        sched_gap += run_gpu_scheduled(GpuDesign::BaseHet, &k, 7, 6).seconds
            / run_gpu_scheduled(GpuDesign::BaseCmos, &k, 7, 6).seconds;
    }
    assert!(
        sched_gap < raw_gap,
        "scheduled gap {sched_gap} vs raw {raw_gap}"
    );
}

/// The extension registry round-trips CLI names and stays disjoint from
/// the paper-figure registry.
#[test]
fn extension_registry_is_well_formed() {
    for e in Extension::ALL {
        assert_eq!(Extension::from_cli_name(e.cli_name()), Some(e));
        assert!(
            hetcore_repro::hetcore::suite::Experiment::from_cli_name(e.cli_name()).is_none(),
            "extension names must not collide with figure names"
        );
    }
    // The suite's extension reports are well-formed at a quick budget.
    let s = Suite {
        insts_per_app: 30_000,
        seed: 3,
    };
    let m = s.ext_migration_from(&Runner::serial().run(s.ext_migration_jobs()));
    assert_eq!(m.rows.len(), 15, "14 apps + mean");
    assert!(m.mean_of("migration time").expect("column exists") > 1.0);
}
