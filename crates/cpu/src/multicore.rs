//! Multicore execution model for the fixed-power-budget comparison.
//!
//! The paper's AdvHet-2X study (Section VII-A1) runs 8 AdvHet cores against
//! 4 BaseCMOS cores at equal chip power. The synthetic workloads model
//! parallelism Amdahl-style: a profile's `parallel_fraction` of the dynamic
//! instructions splits evenly across cores (SPLASH-2-style data-parallel
//! phases, disjoint per-thread working sets), and the remainder runs
//! serially on core 0 while the other cores idle (leaking but not
//! switching).
//!
//! Total time is therefore `T_serial + max_i T_parallel_i`, and the energy
//! model charges active energy per phase plus idle leakage for the cores
//! that sit out the serial phase.

use hetsim_check::{CheckConfig, Checker, Violation};
use hetsim_mem::stats::MemStats;
use hetsim_trace::stream::THREAD_ADDRESS_STRIDE;
use hetsim_trace::WorkloadProfile;

use crate::config::CoreConfig;
use crate::core::{validate_run, Core, RunResult};
use crate::stats::CoreStats;

/// Result of a multicore run.
#[derive(Debug, Clone)]
pub struct MulticoreResult {
    /// Number of cores.
    pub cores: u32,
    /// The serial phase on core 0 (`None` if the workload is fully
    /// parallel).
    pub serial: Option<RunResult>,
    /// Per-core parallel-phase results.
    pub parallel: Vec<RunResult>,
    /// Core clock (Hz).
    pub clock_hz: f64,
}

impl MulticoreResult {
    /// Seconds of the serial phase.
    pub fn serial_seconds(&self) -> f64 {
        self.serial.as_ref().map_or(0.0, RunResult::seconds)
    }

    /// Seconds of the parallel phase (the slowest core).
    pub fn parallel_seconds(&self) -> f64 {
        self.parallel
            .iter()
            .map(RunResult::seconds)
            .fold(0.0, f64::max)
    }

    /// End-to-end execution time.
    pub fn total_seconds(&self) -> f64 {
        self.serial_seconds() + self.parallel_seconds()
    }

    /// Total committed instructions across phases and cores.
    pub fn total_committed(&self) -> u64 {
        self.serial.as_ref().map_or(0, |r| r.stats.committed)
            + self.parallel.iter().map(|r| r.stats.committed).sum::<u64>()
    }

    /// The chip-level counters: every phase's cores merged, with
    /// `cycles` set to the serial phase plus the slowest parallel core.
    /// Phases run back to back, so merging alone, which takes the max
    /// across phases, would lose the serial span.
    pub fn chip_counters(&self) -> (CoreStats, MemStats) {
        let mut stats = CoreStats::default();
        let mut mem = MemStats::default();
        for r in self.serial.iter().chain(&self.parallel) {
            stats.merge(&r.stats);
            mem.merge(&r.mem);
        }
        let serial = self.serial.as_ref().map_or(0, |r| r.stats.cycles);
        let parallel = self
            .parallel
            .iter()
            .map(|r| r.stats.cycles)
            .fold(0, u64::max);
        stats.cycles = serial + parallel;
        (stats, mem)
    }
}

/// Runs one thread's phase: `n` instructions of thread `thread`'s
/// stream of `profile` (seed `seed`) on a core of `cfg`, with the
/// core's in-flight checks per `check`. A warm run first fills the
/// caches with the thread's working set and retires a warm-up window of
/// `(n / 4).min(25_000)` instructions before the measured `n`; a cold
/// run starts empty and measures from the first instruction. Returns
/// the run together with the core's violations.
pub fn run_thread(
    cfg: &CoreConfig,
    profile: &WorkloadProfile,
    seed: u64,
    thread: u32,
    n: u64,
    warm: bool,
    check: CheckConfig,
) -> (RunResult, Vec<Violation>) {
    let mut core = Core::new(cfg.clone(), thread).with_checks(check);
    let mut warmup = 0;
    if warm {
        let base = u64::from(thread) * THREAD_ADDRESS_STRIDE;
        core.prewarm(base, profile.memory.working_set_bytes);
        warmup = (n / 4).min(25_000);
    }
    // Design sweeps rerun the same (profile, seed) streams, so read them
    // from the trace store. A run of `n` committed instructions reads
    // fewer than `warmup + n + steering window + 1` records of the stream
    // (the steering peek reads `window` records past the last dispatch).
    let pull_bound = warmup + n + cfg.steering.lookahead_window() + 1;
    let trace = hetsim_trace::cache::replay(profile, seed, thread, pull_bound);
    let result = core.run_warmed(trace, warmup, n);
    (result, core.take_violations())
}

/// Runs `total_insts` dynamic instructions of `profile` on `cores` cores.
///
/// # Panics
///
/// Panics if `cores` is zero or the profile is invalid.
pub fn run_multicore(
    core_cfg: &CoreConfig,
    cores: u32,
    profile: &WorkloadProfile,
    seed: u64,
    total_insts: u64,
) -> MulticoreResult {
    run_multicore_checked(
        core_cfg,
        cores,
        profile,
        seed,
        total_insts,
        CheckConfig::OFF,
    )
    .0
}

/// Like [`run_multicore`], but with the invariant layer enabled per
/// `check`: each core runs its in-flight occupancy/ordering checks, and
/// the finished result is validated against the post-run conservation
/// relations ([`validate_multicore`]). Returns the result together with
/// every violation observed (empty when `check` is off or all checks
/// hold).
///
/// # Panics
///
/// Panics if `cores` is zero or the profile is invalid.
pub fn run_multicore_checked(
    core_cfg: &CoreConfig,
    cores: u32,
    profile: &WorkloadProfile,
    seed: u64,
    total_insts: u64,
    check: CheckConfig,
) -> (MulticoreResult, Vec<Violation>) {
    assert!(cores >= 1, "need at least one core");
    profile.validate().expect("valid profile");

    let serial_insts = (total_insts as f64 * (1.0 - profile.parallel_fraction)).round() as u64;
    let parallel_insts = total_insts - serial_insts;
    let per_core = parallel_insts / u64::from(cores);

    let mut checker = Checker::new();
    let serial = (serial_insts > 0).then(|| {
        let (r, violations) = run_thread(core_cfg, profile, seed, 0, serial_insts, true, check);
        checker.scoped("serial", |c| c.absorb(violations));
        r
    });
    let parallel = (0..cores)
        .filter(|_| per_core > 0)
        .map(|t| {
            let parallel_seed = seed.wrapping_add(1);
            let (r, violations) =
                run_thread(core_cfg, profile, parallel_seed, t, per_core, true, check);
            checker.scoped("parallel", |c| c.absorb(violations));
            r
        })
        .collect();

    let result = MulticoreResult {
        cores,
        serial,
        parallel,
        clock_hz: core_cfg.clock_hz,
    };
    if check.enabled() {
        validate_multicore(core_cfg, total_insts, &result, &mut checker);
    }
    (result, checker.into_violations())
}

/// Validates a finished [`MulticoreResult`] against the work-conservation
/// relations: committed instructions never exceed the request, at most
/// the per-core integer-division remainder is lost, the parallel phase is
/// all-or-nothing, and every phase result satisfies the single-core
/// post-run relations ([`validate_run`]).
pub fn validate_multicore(
    cfg: &CoreConfig,
    total_insts: u64,
    result: &MulticoreResult,
    checker: &mut Checker,
) {
    checker.scoped("multicore", |c| {
        let total = result.total_committed();
        c.le_u64(
            "cpu.multicore_work_bound",
            ("total committed", total),
            ("requested insts", total_insts),
        );
        c.check(
            "cpu.multicore_work_loss",
            format!("< {} (cores)", result.cores),
            total_insts - total.min(total_insts) < u64::from(result.cores),
            total_insts - total.min(total_insts),
        );
        c.check(
            "cpu.parallel_all_or_nothing",
            format!("0 or {} phase results", result.cores),
            result.parallel.is_empty() || result.parallel.len() == result.cores as usize,
            result.parallel.len(),
        );
        if let Some(serial) = &result.serial {
            c.scoped("serial", |c| validate_run(cfg, serial, 1, c));
        }
        for (t, r) in result.parallel.iter().enumerate() {
            c.scoped(format!("parallel{t}"), |c| validate_run(cfg, r, 1, c));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim_trace::apps;

    const N: u64 = 40_000;

    #[test]
    fn more_cores_run_faster() {
        let profile = apps::profile("fft").expect("known");
        let cfg = CoreConfig::default();
        let one = run_multicore(&cfg, 1, &profile, 11, N);
        let four = run_multicore(&cfg, 4, &profile, 11, N);
        let eight = run_multicore(&cfg, 8, &profile, 11, N);
        assert!(four.total_seconds() < one.total_seconds());
        assert!(eight.total_seconds() < four.total_seconds());
    }

    #[test]
    fn scaling_respects_amdahl() {
        let profile = apps::profile("canneal").expect("known"); // f = 0.90
        let cfg = CoreConfig::default();
        let one = run_multicore(&cfg, 1, &profile, 12, N);
        let eight = run_multicore(&cfg, 8, &profile, 12, N);
        let speedup = one.total_seconds() / eight.total_seconds();
        let amdahl_limit = 1.0 / (1.0 - profile.parallel_fraction);
        assert!(
            speedup < amdahl_limit,
            "speedup {speedup} cannot beat the Amdahl limit {amdahl_limit}"
        );
        assert!(
            speedup > 2.0,
            "8 cores at f=0.9 should exceed 2x: {speedup}"
        );
    }

    #[test]
    fn work_is_conserved() {
        let profile = apps::profile("lu").expect("known");
        let cfg = CoreConfig::default();
        let r = run_multicore(&cfg, 4, &profile, 13, N);
        // Committed work equals the requested total up to the per-core
        // integer division remainder.
        let total = r.total_committed();
        assert!(total <= N);
        assert!(
            N - total < u64::from(r.cores),
            "lost more than rounding: {total}/{N}"
        );
    }

    #[test]
    fn checked_run_is_clean_and_matches_unchecked() {
        let profile = apps::profile("fft").expect("known");
        let cfg = CoreConfig::default();
        let (checked, violations) =
            run_multicore_checked(&cfg, 4, &profile, 11, N, CheckConfig::ON);
        assert!(
            violations.is_empty(),
            "invariants must hold on a healthy run: {violations:?}"
        );
        // Checking must not perturb the simulation itself.
        let plain = run_multicore(&cfg, 4, &profile, 11, N);
        assert_eq!(checked.total_committed(), plain.total_committed());
        assert_eq!(checked.total_seconds(), plain.total_seconds());
    }

    #[test]
    fn validate_multicore_flags_fabricated_work() {
        let profile = apps::profile("fft").expect("known");
        let cfg = CoreConfig::default();
        let mut r = run_multicore(&cfg, 2, &profile, 15, 20_000);
        // Fabricate committed work beyond the request.
        r.parallel[0].stats.committed += 50_000;
        let mut checker = Checker::new();
        validate_multicore(&cfg, 20_000, &r, &mut checker);
        assert!(checker
            .violations()
            .iter()
            .any(|v| v.invariant == "cpu.multicore_work_bound"));
    }

    #[test]
    fn fully_serial_profile_has_no_parallel_phase() {
        let mut profile = apps::profile("lu").expect("known");
        profile.parallel_fraction = 0.0;
        let cfg = CoreConfig::default();
        let r = run_multicore(&cfg, 4, &profile, 14, 10_000);
        assert!(r.serial.is_some());
        assert!(r.parallel.is_empty());
        assert!(r.parallel_seconds() == 0.0);
    }
}
