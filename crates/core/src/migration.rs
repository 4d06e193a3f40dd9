//! The related-work baseline: a heterogeneous CMP of *whole* CMOS cores
//! and *whole* TFET cores with barrier-aware thread migration
//! (paper Section VIII, citing Swaminathan et al., ISLPED'11).
//!
//! Prior work places device heterogeneity *between* cores: some cores are
//! all-CMOS (fast, hungry), some all-TFET (slow, frugal), and threads
//! migrate between them. In barrier-synchronized programs the scheduler
//! rotates threads across the fast and slow cores within each barrier
//! interval so that all threads arrive at the barrier together — no core
//! idles, and every thread gets the same fast/slow time share.
//!
//! The paper states: "We performed an iso-area comparison with such
//! barrier-aware thread migration scheme. It can be shown that AdvHet
//! provides, on average, higher performance while consuming lower energy.
//! This is because the threads on the TFET cores slow down the program,
//! while the threads on the CMOS cores consume more power than in AdvHet."
//! This module reproduces that comparison.
//!
//! # Model
//!
//! Per-core behaviour comes from real simulations: a representative chunk
//! of the application runs on a warmed BaseCMOS core and on a warmed
//! BaseTFET core ([`crate::experiment::CpuRun::Core`] jobs), yielding each
//! core type's rate (instructions/second) and active power.
//! The barrier-aware rotation is then work-conserving: with `n_f` fast
//! cores of rate `r_f` and `n_s` slow cores of rate `r_s`, aggregate
//! throughput is `n_f*r_f + n_s*r_s` and every thread finishes each
//! interval simultaneously. Each rotation charges a migration penalty
//! (context transfer + cold-cache refill).

use hetsim_power::account::EnergyBreakdown;
use hetsim_trace::WorkloadProfile;

use crate::config::CpuDesign;
use crate::experiment::{run_cpu, run_cpu_multicore, CpuOutcome};

/// Configuration of the migration CMP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationConfig {
    /// All-CMOS cores (2 GHz).
    pub cmos_cores: u32,
    /// All-TFET cores (1 GHz).
    pub tfet_cores: u32,
    /// Instructions between barriers (one migration opportunity each).
    pub interval_insts: u64,
    /// Cycles (at the CMOS clock) lost per thread per migration: context
    /// transfer plus cold-cache refill on the destination core.
    pub migration_penalty_cycles: u64,
}

impl Default for MigrationConfig {
    /// The iso-area counterpart of a 4-core AdvHet chip: TFET and CMOS
    /// cores have essentially equal area (Section III-F), so 2 + 2 cores
    /// match 4 AdvHet cores. AdvHet additionally pays its ~5% dual-rail
    /// area, so the migration CMP gets the slight area benefit — the
    /// conservative direction for a comparison AdvHet then wins.
    fn default() -> Self {
        MigrationConfig {
            cmos_cores: 2,
            tfet_cores: 2,
            interval_insts: 20_000,
            migration_penalty_cycles: 3_000,
        }
    }
}

impl MigrationConfig {
    /// Instructions of each characterisation run: one barrier interval,
    /// and at least 20K.
    pub fn chunk_insts(&self) -> u64 {
        self.interval_insts.max(20_000)
    }
}

/// Outcome of running an application on the migration CMP.
#[derive(Debug, Clone)]
pub struct MigrationOutcome {
    /// End-to-end execution time (s).
    pub seconds: f64,
    /// Chip energy.
    pub energy: EnergyBreakdown,
    /// Number of barrier intervals (and hence migrations per thread).
    pub intervals: u64,
}

impl MigrationOutcome {
    /// Energy-delay-squared product (J.s^2).
    pub fn ed2(&self) -> f64 {
        self.energy.ed2(self.seconds)
    }
}

/// Per-core-type characterization from a real chunk simulation.
struct CoreRate {
    /// Instructions per second.
    rate: f64,
    /// Active power (W).
    power_w: f64,
    /// Idle (leakage) power (W).
    idle_w: f64,
    /// Energy model scaled per second of activity (for the breakdown).
    energy_per_s: EnergyBreakdown,
}

/// Characterizes `design` from its `chunk`-instruction run.
fn characterize(design: CpuDesign, run: &CpuOutcome, chunk: u64) -> CoreRate {
    CoreRate {
        rate: chunk as f64 / run.seconds,
        power_w: run.energy.total_j() / run.seconds,
        idle_w: design.energy_model().idle_energy(1.0).total_j(),
        energy_per_s: scaled(&run.energy, 1.0 / run.seconds),
    }
}

/// Every component of `bd` scaled by `s`.
fn scaled(bd: &EnergyBreakdown, s: f64) -> EnergyBreakdown {
    let mut e = *bd;
    e.core_dynamic_j *= s;
    e.core_leakage_j *= s;
    e.l2_dynamic_j *= s;
    e.l2_leakage_j *= s;
    e.l3_dynamic_j *= s;
    e.l3_leakage_j *= s;
    e.dram_j *= s;
    e
}

/// Runs `total_insts` of `profile` on the migration CMP.
///
/// # Example
///
/// ```
/// use hetcore::migration::{run_migration_cmp, MigrationConfig};
/// use hetsim_trace::apps;
///
/// let app = apps::profile("lu").expect("known app");
/// let out = run_migration_cmp(&MigrationConfig::default(), &app, 7, 60_000);
/// assert!(out.seconds > 0.0);
/// assert!(out.intervals > 0);
/// ```
///
/// # Panics
///
/// Panics if the configuration has no cores or the profile is invalid.
pub fn run_migration_cmp(
    cfg: &MigrationConfig,
    profile: &WorkloadProfile,
    seed: u64,
    total_insts: u64,
) -> MigrationOutcome {
    let chunk = cfg.chunk_insts();
    let fast = run_cpu(CpuDesign::BaseCmos, profile, seed, chunk);
    let slow = run_cpu(CpuDesign::BaseTfet, profile, seed, chunk);
    migration_cmp(cfg, profile, total_insts, &fast, &slow)
}

/// The migration CMP's outcome on `total_insts` of `profile`, from its
/// two characterisation runs: [`MigrationConfig::chunk_insts`]
/// instructions on one warmed BaseCMOS core (`fast`) and on one warmed
/// BaseTFET core (`slow`).
///
/// # Panics
///
/// Panics if the configuration has no cores or the profile is invalid.
pub fn migration_cmp(
    cfg: &MigrationConfig,
    profile: &WorkloadProfile,
    total_insts: u64,
    fast: &CpuOutcome,
    slow: &CpuOutcome,
) -> MigrationOutcome {
    assert!(
        cfg.cmos_cores + cfg.tfet_cores > 0,
        "need at least one core"
    );
    profile.validate().expect("valid profile");

    let chunk = cfg.chunk_insts();
    let fast = characterize(CpuDesign::BaseCmos, fast, chunk);
    let slow = characterize(CpuDesign::BaseTfet, slow, chunk);

    let n_f = f64::from(cfg.cmos_cores);
    let n_s = f64::from(cfg.tfet_cores);
    let threads = n_f + n_s;

    // Serial phase: runs on one CMOS core, everything else idles.
    let serial_insts = (total_insts as f64 * (1.0 - profile.parallel_fraction)).round();
    let parallel_insts = total_insts as f64 - serial_insts;
    let t_serial = serial_insts / fast.rate;

    // Parallel phase: barrier-aware rotation is work-conserving, so the
    // aggregate throughput is the sum of the cores' rates and all threads
    // finish together.
    let throughput = n_f * fast.rate + n_s * slow.rate;
    let mut t_parallel = parallel_insts / throughput;

    // Migration penalties: each thread migrates once per interval; the
    // penalty is paid in wall-clock at the CMOS clock.
    let per_thread = parallel_insts / threads;
    let intervals = (per_thread / cfg.interval_insts as f64).ceil().max(0.0) as u64;
    let penalty_s = intervals as f64 * cfg.migration_penalty_cycles as f64 / 2.0e9;
    t_parallel += penalty_s;

    // Energy: all cores are busy for the whole parallel phase (that is the
    // point of the rotation); during the serial phase the fast core is
    // active and the rest leak.
    let mut energy = EnergyBreakdown::default();
    // Serial: one fast core active; (n_f - 1) fast + n_s slow cores idle.
    energy.merge(&scaled(&fast.energy_per_s, t_serial));
    let idle_w = (n_f - 1.0) * fast.idle_w + n_s * slow.idle_w;
    energy.core_leakage_j += idle_w * t_serial;
    // Parallel: every core active at its characterized power.
    energy.merge(&scaled(&fast.energy_per_s, n_f * t_parallel));
    energy.merge(&scaled(&slow.energy_per_s, n_s * t_parallel));
    // Migration energy: charge the transferred state as extra L2 traffic —
    // folded, conservatively small, into core dynamic.
    energy.core_dynamic_j += intervals as f64 * threads * 0.5e-9 * fast.power_w;

    MigrationOutcome {
        seconds: t_serial + t_parallel,
        energy,
        intervals,
    }
}

/// The Section VIII iso-area comparison: a 4-core AdvHet chip vs. the
/// 2 CMOS + 2 TFET migration CMP on the same application.
pub fn iso_area_comparison(
    profile: &WorkloadProfile,
    seed: u64,
    total_insts: u64,
) -> (CpuOutcome, MigrationOutcome) {
    let advhet = run_cpu_multicore(CpuDesign::AdvHet, 4, profile, seed, total_insts);
    let migration = run_migration_cmp(&MigrationConfig::default(), profile, seed, total_insts);
    (advhet, migration)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim_trace::apps;

    const N: u64 = 160_000;

    #[test]
    fn advhet_beats_migration_on_both_axes() {
        // The paper's Section VIII claim, on average across apps: AdvHet is
        // faster AND consumes less energy than the iso-area migration CMP.
        let mut adv_t = 0.0;
        let mut mig_t = 0.0;
        let mut adv_e = 0.0;
        let mut mig_e = 0.0;
        for app_name in ["lu", "fft", "barnes", "streamcluster"] {
            let app = apps::profile(app_name).expect("known app");
            let (adv, mig) = iso_area_comparison(&app, 11, N);
            adv_t += adv.seconds;
            mig_t += mig.seconds;
            adv_e += adv.energy.total_j();
            mig_e += mig.energy.total_j();
        }
        assert!(adv_t < mig_t, "AdvHet time {adv_t} vs migration {mig_t}");
        assert!(adv_e < mig_e, "AdvHet energy {adv_e} vs migration {mig_e}");
    }

    #[test]
    fn migration_cmp_sits_between_all_cmos_and_all_tfet_chips() {
        let app = apps::profile("fmm").expect("known app");
        let base = run_cpu_multicore(CpuDesign::BaseCmos, 4, &app, 5, N);
        let tfet = run_cpu_multicore(CpuDesign::BaseTfet, 4, &app, 5, N);
        let mig = run_migration_cmp(&MigrationConfig::default(), &app, 5, N);
        assert!(mig.seconds > base.seconds, "slower than an all-CMOS chip");
        assert!(mig.seconds < tfet.seconds, "faster than an all-TFET chip");
        assert!(
            mig.energy.total_j() < base.energy.total_j(),
            "cheaper than all-CMOS"
        );
        assert!(
            mig.energy.total_j() > tfet.energy.total_j(),
            "dearer than all-TFET"
        );
    }

    #[test]
    fn migration_penalty_costs_time() {
        let app = apps::profile("lu").expect("known app");
        let cheap = MigrationConfig {
            migration_penalty_cycles: 0,
            ..MigrationConfig::default()
        };
        let dear = MigrationConfig {
            migration_penalty_cycles: 50_000,
            ..MigrationConfig::default()
        };
        let a = run_migration_cmp(&cheap, &app, 5, N);
        let b = run_migration_cmp(&dear, &app, 5, N);
        assert!(b.seconds > a.seconds);
        assert_eq!(a.intervals, b.intervals);
    }

    #[test]
    fn more_fast_cores_shift_the_tradeoff() {
        let app = apps::profile("radix").expect("known app");
        let frugal = MigrationConfig {
            cmos_cores: 1,
            tfet_cores: 3,
            ..Default::default()
        };
        let hungry = MigrationConfig {
            cmos_cores: 3,
            tfet_cores: 1,
            ..Default::default()
        };
        let f = run_migration_cmp(&frugal, &app, 5, N);
        let h = run_migration_cmp(&hungry, &app, 5, N);
        assert!(h.seconds < f.seconds, "more CMOS cores run faster");
        assert!(
            h.energy.total_j() > f.energy.total_j(),
            "and burn more energy"
        );
    }
}
