//! Running a design point on a workload: time + energy.
//!
//! CPU experiments run the paper's 4-core chip (the baseline) or the
//! 8-core AdvHet-2X chip: the workload's instructions split across cores
//! Amdahl-style (see `hetsim_cpu::multicore`), idle cores leak during the
//! serial phase, and all cores leak for the full duration of the parallel
//! phase. GPU experiments launch one synthetic kernel over the configured
//! compute units.
//!
//! Every simulation runs a resolved point ([`CpuPoint`] / [`GpuPoint`])
//! in one run shape ([`CpuRun`] / [`GpuRun`]) and returns its outcome
//! with its [`Observations`]: one attribution row per core or CU, and
//! the event-driven step's skip counts. The `run_*` functions resolve a
//! Table IV design at its nominal point, call those, and keep the
//! outcome.

use hetsim_check::CheckConfig;
use hetsim_cpu::multicore::{self, run_multicore, run_thread, MulticoreResult};
use hetsim_cpu::stats::CoreStats;
use hetsim_cpu::CoreProfile;
use hetsim_gpu::gpu::Gpu;
use hetsim_gpu::kernel::GpuInst;
use hetsim_gpu::schedule::schedule_kernel;
use hetsim_gpu::stats::GpuStats;
use hetsim_gpu::KernelProfile;
use hetsim_mem::stats::MemStats;
use hetsim_obs::{Observations, ProfileRow};
use hetsim_power::account::{EnergyBreakdown, GpuActivity, GpuEnergy, GpuEnergyModel};
use hetsim_runner::SimMetrics;
use hetsim_trace::cache::{self, Pin};
use hetsim_trace::WorkloadProfile;
use serde::{Deserialize, Serialize};

use crate::config::{CpuDesign, CpuPoint, GpuDesign, GpuPoint, OperatingPoint};

/// Outcome of one CPU experiment (single- or multi-core).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuOutcome {
    /// The design that ran.
    pub design: CpuDesign,
    /// Application name.
    pub app: String,
    /// End-to-end execution time (s).
    pub seconds: f64,
    /// Chip energy breakdown.
    pub energy: EnergyBreakdown,
    /// Number of cores on the chip.
    pub cores: u32,
    /// Instructions committed across all cores/phases.
    pub committed: u64,
    /// Chip-level pipeline counters: all phases and cores merged
    /// (`cycles` is the end-to-end cycle count, serial + parallel).
    pub stats: CoreStats,
    /// Chip-level memory-system counters, merged across cores/phases.
    pub mem: MemStats,
}

impl CpuOutcome {
    /// Energy-delay product (J.s).
    pub fn ed(&self) -> f64 {
        self.energy.ed(self.seconds)
    }

    /// Energy-delay-squared product (J.s^2).
    pub fn ed2(&self) -> f64 {
        self.energy.ed2(self.seconds)
    }

    /// Average chip power (W).
    pub fn power_w(&self) -> f64 {
        self.energy.total_j() / self.seconds
    }
}

impl SimMetrics for CpuOutcome {
    fn sim_seconds(&self) -> f64 {
        self.seconds
    }
}

impl SimMetrics for GpuOutcome {
    fn sim_seconds(&self) -> f64 {
        self.seconds
    }
}

/// How a CPU job runs its resolved point: the run shape its key hashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuRun {
    /// A warmed `cores`-core chip: the workload split across the cores
    /// Amdahl-style (the paper's chip-level experiment).
    Chip {
        /// Cores on the chip.
        cores: u32,
    },
    /// One warmed core: prewarmed caches and a warm-up window before the
    /// measured instructions.
    Core,
    /// One cold core: no prewarm and no warm-up window (Figure 14).
    ColdCore,
}

impl CpuRun {
    /// Simulates `insts` instructions of `app` on `point` in this shape,
    /// priced by the point's energy model.
    pub fn simulate(
        self,
        point: &CpuPoint,
        app: &WorkloadProfile,
        seed: u64,
        insts: u64,
    ) -> (CpuOutcome, Observations) {
        let warm = match self {
            CpuRun::Chip { cores } => return simulate_chip(point, cores, app, seed, insts),
            CpuRun::Core => true,
            CpuRun::ColdCore => false,
        };
        let (result, _) = run_thread(&point.config, app, seed, 0, insts, warm, CheckConfig::OFF);
        let mut observations = Observations::default();
        observe_core(&mut observations, point.design, 0, &result.profile);
        let seconds = result.seconds();
        let outcome = CpuOutcome {
            design: point.design,
            app: app.name.to_string(),
            seconds,
            energy: point.model.energy(&result.stats, &result.mem, seconds),
            cores: 1,
            committed: result.stats.committed,
            stats: result.stats,
            mem: result.mem,
        };
        (outcome, observations)
    }

    /// Pins on the streams [`CpuRun::simulate`] of `app` seeded `seed`
    /// reads in this shape.
    pub fn pins(self, app: &WorkloadProfile, seed: u64) -> Vec<Pin> {
        match self {
            CpuRun::Chip { .. } => multicore::pins(app, seed).into(),
            CpuRun::Core | CpuRun::ColdCore => vec![cache::pin(app, seed)],
        }
    }
}

/// Runs `design` on a single warmed core (used by unit tests and the
/// quickstart; the paper's figures use [`run_cpu_multicore`] with 4
/// cores).
pub fn run_cpu(design: CpuDesign, app: &WorkloadProfile, seed: u64, insts: u64) -> CpuOutcome {
    let point = design.resolve(OperatingPoint::nominal(), None);
    CpuRun::Core.simulate(&point, app, seed, insts).0
}

/// Runs `design` as a `cores`-core chip on `app` (the paper's chip-level
/// experiment). `total_insts` is split across cores per the profile's
/// parallel fraction.
pub fn run_cpu_multicore(
    design: CpuDesign,
    cores: u32,
    app: &WorkloadProfile,
    seed: u64,
    total_insts: u64,
) -> CpuOutcome {
    let point = design.resolve(OperatingPoint::nominal(), None);
    CpuRun::Chip { cores }
        .simulate(&point, app, seed, total_insts)
        .0
}

/// A warmed `cores`-core chip.
fn simulate_chip(
    point: &CpuPoint,
    cores: u32,
    app: &WorkloadProfile,
    seed: u64,
    total_insts: u64,
) -> (CpuOutcome, Observations) {
    let (design, model) = (point.design, &point.model);
    let mc: MulticoreResult = run_multicore(&point.config, cores, app, seed, total_insts);
    // The serial phase runs on core 0, so its attribution folds into
    // the same unit row as core 0's parallel phase.
    let mut observations = Observations::default();
    if let Some(serial) = &mc.serial {
        observe_core(&mut observations, design, 0, &serial.profile);
    }
    for (t, r) in mc.parallel.iter().enumerate() {
        observe_core(&mut observations, design, t, &r.profile);
    }

    let mut energy = EnergyBreakdown::default();
    // Serial phase: core 0 active, the rest leaking.
    let t_serial = mc.serial_seconds();
    if let Some(serial) = &mc.serial {
        energy.merge(&model.energy(&serial.stats, &serial.mem, t_serial));
        for _ in 1..cores {
            energy.merge(&model.idle_energy(t_serial));
        }
    }
    // Parallel phase: every core is powered until the slowest finishes.
    let t_parallel = mc.parallel_seconds();
    for r in &mc.parallel {
        energy.merge(&model.energy(&r.stats, &r.mem, t_parallel));
    }

    let (stats, mem) = mc.chip_counters();
    let outcome = CpuOutcome {
        design,
        app: app.name.to_string(),
        seconds: mc.total_seconds(),
        energy,
        cores,
        committed: mc.total_committed(),
        stats,
        mem,
    };
    (outcome, observations)
}

/// Outcome of one GPU experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuOutcome {
    /// The design that ran.
    pub design: GpuDesign,
    /// Kernel name.
    pub kernel: String,
    /// Execution time (s).
    pub seconds: f64,
    /// Energy result.
    pub energy: GpuEnergy,
    /// Compute units powered.
    pub compute_units: u32,
    /// GPU event counters for the run.
    pub stats: GpuStats,
}

impl GpuOutcome {
    /// Energy-delay-squared product (J.s^2).
    pub fn ed2(&self) -> f64 {
        self.energy.ed2(self.seconds)
    }

    /// Average power (W).
    pub fn power_w(&self) -> f64 {
        self.energy.total_j() / self.seconds
    }
}

/// How a GPU job launches its kernel: the run shape its key hashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuRun {
    /// The kernel as generated.
    Plain,
    /// The kernel after the latency-hiding compiler pass (the paper's
    /// future-work optimization) with a `window`-instruction lookahead.
    Scheduled {
        /// Scheduler lookahead (instructions).
        window: usize,
    },
}

impl GpuRun {
    /// Launches `kernel` on `point` in this shape, priced by the point's
    /// device assignment. `insts` is what `kernel.generate(seed)`
    /// returns.
    pub fn simulate(
        self,
        point: &GpuPoint,
        kernel: &KernelProfile,
        insts: &[GpuInst],
        seed: u64,
    ) -> (GpuOutcome, Observations) {
        let gpu = Gpu::new(point.config.clone());
        let result = match self {
            GpuRun::Plain => gpu.run_insts(kernel, insts, seed),
            GpuRun::Scheduled { window } => {
                let scheduled = schedule_kernel(insts, window);
                gpu.run_insts(kernel, &scheduled.insts, seed)
            }
        };
        let mut observations = Observations::default();
        for (cu, p) in result.profiles.iter().enumerate() {
            let mut row = ProfileRow::new(point.design.name(), format!("cu{cu}"));
            row.classes = p.classes;
            row.cycles = p.cycles;
            row.add_histogram("residency", &p.residency);
            observations.profile.merge_row(row);
            observations.skipped_cycles += p.skipped_cycles;
            observations.wakeup_jumps += p.wakeup_jumps;
        }
        (price_gpu_run(point, kernel, result), observations)
    }
}

/// Runs a GPU design on one kernel.
pub fn run_gpu(design: GpuDesign, kernel: &KernelProfile, seed: u64) -> GpuOutcome {
    let insts = kernel.generate(seed);
    GpuRun::Plain
        .simulate(&design.resolve(), kernel, &insts, seed)
        .0
}

/// Runs a GPU design on one kernel *after* the latency-hiding compiler
/// pass (`window` is the scheduler lookahead).
pub fn run_gpu_scheduled(
    design: GpuDesign,
    kernel: &KernelProfile,
    seed: u64,
    window: usize,
) -> GpuOutcome {
    let insts = kernel.generate(seed);
    GpuRun::Scheduled { window }
        .simulate(&design.resolve(), kernel, &insts, seed)
        .0
}

fn price_gpu_run(
    point: &GpuPoint,
    kernel: &KernelProfile,
    result: hetsim_gpu::GpuRunResult,
) -> GpuOutcome {
    let design = point.design;
    let seconds = result.seconds();
    let s = &result.stats;
    let activity = GpuActivity {
        wavefront_insts: s.wavefront_insts,
        thread_fma_ops: s.thread_fma_ops,
        vector_rf_accesses: s.vector_rf_accesses,
        rf_cache_accesses: s.rf_cache_accesses,
        rf_fast_accesses: s.rf_fast_accesses,
        lds_accesses: s.lds_accesses,
        mem_insts: s.mem_insts,
        dram_accesses: s.dram_accesses,
        compute_units: result.compute_units,
        seconds,
    };
    let energy = GpuEnergyModel::new(point.assignment.clone()).energy(&activity);
    GpuOutcome {
        design,
        kernel: kernel.name.to_string(),
        seconds,
        energy,
        compute_units: result.compute_units,
        stats: result.stats,
    }
}

/// Folds one core run's attribution into `observations` as unit
/// `core{core}` of `design`, with its skip counts.
fn observe_core(observations: &mut Observations, design: CpuDesign, core: usize, p: &CoreProfile) {
    let mut row = ProfileRow::new(design.name(), format!("core{core}"));
    row.classes = p.classes;
    row.cycles = p.cycles;
    row.add_histogram("rob", &p.rob);
    row.add_histogram("iq", &p.iq);
    row.add_histogram("lsq", &p.lsq);
    row.add_histogram("mem_hit_latency", &p.mem_hit_latency);
    row.add_histogram("mem_miss_latency", &p.mem_miss_latency);
    observations.profile.merge_row(row);
    observations.skipped_cycles += p.skipped_cycles;
    observations.wakeup_jumps += p.wakeup_jumps;
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim_gpu::kernels;
    use hetsim_trace::apps;

    const N: u64 = 20_000;

    #[test]
    fn cpu_design_time_ordering_holds() {
        // Paper Figure 7 ordering: BaseCMOS < AdvHet < BaseHet < BaseTFET.
        let app = apps::profile("lu").expect("known");
        let t = |d| run_cpu(d, &app, 3, N).seconds;
        let base = t(CpuDesign::BaseCmos);
        let adv = t(CpuDesign::AdvHet);
        let het = t(CpuDesign::BaseHet);
        let tfet = t(CpuDesign::BaseTfet);
        assert!(base < adv, "BaseCMOS {base} < AdvHet {adv}");
        assert!(adv < het, "AdvHet {adv} < BaseHet {het}");
        assert!(het < tfet, "BaseHet {het} < BaseTFET {tfet}");
    }

    #[test]
    fn cpu_design_energy_ordering_holds() {
        // Paper Figure 8 ordering: BaseTFET < AdvHet < BaseHet < BaseCMOS.
        let app = apps::profile("fft").expect("known");
        let e = |d| run_cpu(d, &app, 3, N).energy.total_j();
        let base = e(CpuDesign::BaseCmos);
        let adv = e(CpuDesign::AdvHet);
        let het = e(CpuDesign::BaseHet);
        let tfet = e(CpuDesign::BaseTfet);
        assert!(tfet < adv, "BaseTFET {tfet} < AdvHet {adv}");
        assert!(adv < het, "AdvHet {adv} < BaseHet {het}");
        assert!(het < base, "BaseHet {het} < BaseCMOS {base}");
    }

    #[test]
    fn advhet_2x_beats_basecmos_on_parallel_work() {
        let app = apps::profile("fft").expect("known");
        let base = run_cpu_multicore(CpuDesign::BaseCmos, 4, &app, 5, 4 * N);
        let twox = run_cpu_multicore(CpuDesign::AdvHet, 8, &app, 5, 4 * N);
        assert!(
            twox.seconds < base.seconds,
            "8 AdvHet cores {} should beat 4 BaseCMOS cores {}",
            twox.seconds,
            base.seconds
        );
        assert!(twox.energy.total_j() < base.energy.total_j());
    }

    #[test]
    fn advhet_power_is_about_half_of_basecmos() {
        // The premise of the 2X experiment (Section VII-A1).
        let app = apps::profile("water-nsq").expect("known");
        let base = run_cpu_multicore(CpuDesign::BaseCmos, 4, &app, 7, 4 * N);
        let adv = run_cpu_multicore(CpuDesign::AdvHet, 4, &app, 7, 4 * N);
        let ratio = adv.power_w() / base.power_w();
        assert!(
            (0.35..0.75).contains(&ratio),
            "AdvHet/BaseCMOS power ratio {ratio}"
        );
    }

    #[test]
    fn gpu_orderings_hold() {
        let kernel = kernels::profile("matmul").expect("known");
        let base = run_gpu(GpuDesign::BaseCmos, &kernel, 3);
        let het = run_gpu(GpuDesign::BaseHet, &kernel, 3);
        let adv = run_gpu(GpuDesign::AdvHet, &kernel, 3);
        let tfet = run_gpu(GpuDesign::BaseTfet, &kernel, 3);
        // Figure 10: BaseCMOS < AdvHet <= BaseHet < BaseTFET.
        assert!(base.seconds < adv.seconds);
        assert!(adv.seconds <= het.seconds);
        assert!(het.seconds < tfet.seconds);
        // Figure 11: BaseTFET < AdvHet/BaseHet < BaseCMOS.
        assert!(tfet.energy.total_j() < adv.energy.total_j());
        assert!(adv.energy.total_j() < base.energy.total_j());
    }

    #[test]
    fn gpu_2x_wins_under_power_budget() {
        let kernel = kernels::profile("floydwarshall").expect("known");
        let base = run_gpu(GpuDesign::BaseCmos, &kernel, 4);
        let twox = run_gpu(GpuDesign::AdvHet2x, &kernel, 4);
        assert!(
            twox.seconds < base.seconds,
            "{} vs {}",
            twox.seconds,
            base.seconds
        );
        assert!(twox.ed2() < base.ed2());
    }

    #[test]
    fn partitioned_rf_is_competitive_with_the_rf_cache() {
        // The Section VIII note: the partitioned RF "can readily be
        // adapted to AdvHet". It should land in the same band as the RF
        // cache — much better than bare BaseHet on time.
        let kernel = kernels::profile("binomialoption").expect("known");
        let het = run_gpu(GpuDesign::BaseHet, &kernel, 3);
        let adv = run_gpu(GpuDesign::AdvHet, &kernel, 3);
        let part = run_gpu(GpuDesign::AdvHetPartitionedRf, &kernel, 3);
        assert!(
            part.seconds < het.seconds,
            "partitioned RF must recover time"
        );
        assert!(
            part.seconds < adv.seconds * 1.10,
            "and stay within ~10% of the RF cache: {} vs {}",
            part.seconds,
            adv.seconds
        );
        assert!(part.energy.total_j() < het.energy.total_j() * 1.05);
    }

    #[test]
    fn compiler_scheduling_recovers_gpu_time() {
        // The future-work claim of Section IV-C4.
        let kernel = kernels::profile("binomialoption").expect("known");
        let raw = run_gpu(GpuDesign::BaseHet, &kernel, 3);
        let tuned = run_gpu_scheduled(GpuDesign::BaseHet, &kernel, 3, 6);
        assert!(
            tuned.seconds < raw.seconds,
            "scheduling should help: {} vs {}",
            tuned.seconds,
            raw.seconds
        );
    }

    #[test]
    fn multicore_energy_includes_idle_leakage() {
        let mut app = apps::profile("lu").expect("known");
        app.parallel_fraction = 0.5; // long serial phase
        let one = run_cpu_multicore(CpuDesign::BaseCmos, 1, &app, 9, N);
        let four = run_cpu_multicore(CpuDesign::BaseCmos, 4, &app, 9, N);
        // Four cores burn more energy than one on the same work (idle
        // leakage during the serial phase + parallel-phase overheads).
        assert!(four.energy.total_j() > one.energy.total_j());
    }
}
