//! The pinned scenario menu behind `repro bench`.
//!
//! `hetsim_bench` holds the generic measurement machinery (warmup +
//! repeat loop, `BENCH_*.json` schema, noise-aware compare); this
//! module holds the HetCore-specific part: *what* gets measured. The
//! menu is pinned — fixed scenarios on fixed seeds and fixed
//! instruction budgets — so two dumps from different builds measure
//! the same work and their insts/sec ratios mean something.
//!
//! The menu spans both end-to-end campaigns and per-subsystem
//! microbenches:
//!
//! * `fig7-cpu-campaign` — the full CPU design x application sweep
//!   (the figure 7/8/9/13 workload);
//! * `fig10-gpu-campaign` — the full GPU design x kernel sweep
//!   (figures 10/11/12);
//! * `fig14-dvfs` — the DVFS / process-variation evaluation: its jobs,
//!   then the report that prices them;
//! * `explore-frontier` — the `repro explore` adaptive search over the
//!   fig7 design space at the golden's pinned budget, pinning the
//!   wave-loop + Pareto machinery on top of the multicore simulations;
//! * `micro-cpu-step` — one single-core CPU simulation;
//! * `micro-gpu-step` — one GPU kernel simulation;
//! * `micro-mem-hierarchy` — raw cache-hierarchy accesses, no core;
//! * `micro-power-dvfs` — energy-model + DVFS operating-point
//!   evaluations over one sample run's counters (the sample is
//!   simulated in set-up, outside the timed region);
//! * `micro-event-queue` — a memory-bound run on the slowest core,
//!   stressing the timing wheel and the dead-cycle skip machinery.
//!
//! Campaign scenarios run on a fresh `Runner::new(jobs)` per repeat,
//! which has no cache, so every repeat simulates every job, and no
//! `--cache-dir` state a machine has can reach a measurement. Their jobs
//! hold the trace streams they read only until they have run, so
//! `fig7-cpu-campaign`, `fig14-dvfs` and `explore-frontier` generate
//! their streams in every repeat, as a user's run does. The single-core
//! scenarios `micro-cpu-step` and `micro-event-queue` pin their stream in
//! set-up, so every repeat replays it stored and times the step alone.

use hetsim_bench::{measure, BenchDump, HostInfo, Measurement, ScenarioResult};
use hetsim_device::dvfs::DvfsController;
use hetsim_mem::hierarchy::Hierarchy;
use hetsim_obs::{Clock, MonotonicClock};
use hetsim_power::assignment::VoltageFactors;
use hetsim_runner::{narrate, Runner};
use hetsim_trace::{apps, cache};

use crate::config::{CpuDesign, GpuDesign};
use crate::experiment::{run_cpu, run_gpu, CpuOutcome};
use crate::suite::Suite;

/// Default per-scenario instruction budget of a full `repro bench`.
pub const FULL_INSTS: u64 = 300_000;
/// Budget of the `--quick` profile (CI smoke runs).
pub const QUICK_INSTS: u64 = 60_000;
/// Default discarded warmup iterations per scenario.
pub const DEFAULT_WARMUP: u32 = 1;
/// Default timed repeats per scenario.
pub const DEFAULT_REPEATS: u32 = 3;

/// The pinned scenario names, menu order. Compare joins dumps on these
/// names, so renaming one orphans its perf trajectory — add, don't
/// rename.
pub const SCENARIOS: [&str; 9] = [
    "fig7-cpu-campaign",
    "fig10-gpu-campaign",
    "fig14-dvfs",
    "explore-frontier",
    "micro-cpu-step",
    "micro-gpu-step",
    "micro-mem-hierarchy",
    "micro-power-dvfs",
    "micro-event-queue",
];

/// One `repro bench` run's configuration.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Per-application instruction budget of the CPU-driven scenarios
    /// (the GPU campaign's work is fixed by its kernel profiles).
    pub insts: u64,
    /// Trace-generator seed every scenario runs on.
    pub seed: u64,
    /// Discarded warmup iterations per scenario.
    pub warmup: u32,
    /// Timed repeats per scenario.
    pub repeats: u32,
    /// Worker threads for the campaign scenarios.
    pub jobs: usize,
    /// Whether this is the `--quick` profile (recorded in the dump:
    /// quick and full dumps are not comparable).
    pub quick: bool,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            insts: FULL_INSTS,
            seed: 42,
            warmup: DEFAULT_WARMUP,
            repeats: DEFAULT_REPEATS,
            jobs: 1,
            quick: false,
        }
    }
}

impl BenchConfig {
    /// The `--quick` profile: reduced budget, same menu.
    pub fn quick() -> Self {
        BenchConfig {
            insts: QUICK_INSTS,
            quick: true,
            ..BenchConfig::default()
        }
    }

    fn suite(&self) -> Suite {
        Suite {
            insts_per_app: self.insts,
            seed: self.seed,
        }
    }
}

/// The full CPU campaign; returns total committed instructions.
fn run_fig7(cfg: &BenchConfig) -> u64 {
    let campaign = cfg.suite().cpu_campaign_with(&Runner::new(cfg.jobs));
    campaign
        .outcomes
        .iter()
        .flatten()
        .map(|o| o.committed)
        .sum()
}

/// The full GPU campaign; returns total wavefront instructions.
fn run_fig10(cfg: &BenchConfig) -> u64 {
    let campaign = cfg.suite().gpu_campaign_with(&Runner::new(cfg.jobs));
    campaign
        .outcomes
        .iter()
        .flatten()
        .map(|o| o.stats.wavefront_insts)
        .sum()
}

/// The Figure 14 DVFS / process-variation evaluation: its 36 cold-core
/// jobs on a serial runner (as `Suite::fig14` runs them), then the
/// report that prices them. Returns the instructions those jobs commit.
fn run_fig14(cfg: &BenchConfig) -> u64 {
    let suite = cfg.suite();
    let outcomes = Runner::serial().run(suite.fig14_jobs());
    std::hint::black_box(suite.fig14_from(&outcomes));
    outcomes.iter().map(|o| o.committed).sum()
}

/// The `repro explore` adaptive search at the golden's pinned budget,
/// on the search's own runner without a cache directory (an exploration
/// benchmark must time the search + simulation, never warm-cache
/// lookups). The instruction budget is a quarter of the per-app budget:
/// the search evaluates 12 candidates x 4 apps = 48 multicore jobs, so
/// the quarter keeps this scenario within the same wall-clock band as
/// the campaign scenarios.
/// Returns total committed instructions across all evaluations.
fn run_explore_frontier(cfg: &BenchConfig) -> u64 {
    let space = crate::explore::DesignSpace::fig7();
    let ecfg = crate::explore::ExploreConfig {
        budget: 12,
        seed: cfg.seed,
        insts: (cfg.insts / 4).max(1),
        jobs: cfg.jobs,
        ..crate::explore::ExploreConfig::default()
    };
    let result = crate::explore::explore(&space, &ecfg).expect("pinned space is valid");
    result.total_committed()
}

/// One warmed single core of `design` on `app`. Set-up pins the app's
/// stream, so only the first run generates it. The body returns
/// committed instructions.
fn single_core<'a>(
    cfg: &'a BenchConfig,
    design: CpuDesign,
    app: &str,
) -> Box<dyn FnMut() -> u64 + 'a> {
    let app = apps::profile(app).expect("pinned app exists");
    let pin = cache::pin(&app, cfg.seed);
    Box::new(move || {
        let _pin = &pin;
        run_cpu(design, &app, cfg.seed, cfg.insts).committed
    })
}

/// One GPU kernel simulation; returns wavefront instructions.
fn run_micro_gpu(cfg: &BenchConfig) -> u64 {
    let kernel = hetsim_gpu::kernels::profile("matmul").expect("pinned kernel exists");
    run_gpu(GpuDesign::AdvHet, &kernel, cfg.seed)
        .stats
        .wavefront_insts
}

/// Raw hierarchy traffic: `insts` accesses cycling fetch/load/store
/// over a working set larger than the L1s, no core model in the way.
/// The latency sum is routed through `black_box` so the loop cannot be
/// optimized away. Returns the access count.
fn run_micro_mem(cfg: &BenchConfig) -> u64 {
    let core_cfg = CpuDesign::BaseCmos.core_config();
    let mut h = Hierarchy::new(core_cfg.memory.to_hierarchy(core_cfg.clock_hz));
    h.prewarm(0, 1 << 20);
    let mut latency: u64 = 0;
    // A seed-dependent odd stride walks 1 MiB: hits and misses at
    // every level, deterministic per seed.
    let stride = 64 + (cfg.seed | 1);
    for i in 0..cfg.insts {
        let addr = i.wrapping_mul(stride) & 0xF_FFFF;
        latency += match i % 3 {
            0 => h.fetch(addr) as u64,
            1 => h.load(addr).latency as u64,
            _ => h.store(addr).latency as u64,
        };
    }
    std::hint::black_box(latency);
    cfg.insts
}

/// The real run whose counters `micro-power-dvfs` evaluates: set-up,
/// simulated once before timing starts.
fn power_sample(cfg: &BenchConfig) -> CpuOutcome {
    let app = apps::profile("lu").expect("pinned app exists");
    run_cpu(CpuDesign::AdvHet, &app, cfg.seed, cfg.insts.min(20_000))
}

/// Pure accounting throughput: energy-model evaluations over `sample`'s
/// counters at alternating DVFS operating points. Returns the
/// evaluation count.
fn run_micro_power(cfg: &BenchConfig, sample: &CpuOutcome) -> u64 {
    let dvfs = DvfsController::new();
    let nominal = dvfs.nominal();
    let points = [1.5e9, 2.0e9, 2.5e9];
    let evals = (cfg.insts / 64).max(1);
    let mut total_j = 0.0;
    for i in 0..evals {
        let hz = points[(i % points.len() as u64) as usize];
        let volts = match dvfs.operating_point(hz) {
            Some(p) => {
                VoltageFactors::from_voltages(p.v_cmos, nominal.v_cmos, p.v_tfet, nominal.v_tfet)
            }
            None => VoltageFactors::default(),
        };
        let model = CpuDesign::AdvHet.energy_model().with_voltages(volts);
        total_j += model
            .energy(&sample.stats, &sample.mem, sample.seconds)
            .total_j();
    }
    std::hint::black_box(total_j);
    evals
}

/// Sets up one scenario and returns its body, which does the timed work
/// once and returns the instructions it simulated. Set-up runs here,
/// before timing starts. Panics on an unknown name (the menu is
/// [`SCENARIOS`]).
fn scenario<'a>(name: &str, cfg: &'a BenchConfig) -> Box<dyn FnMut() -> u64 + 'a> {
    match name {
        "fig7-cpu-campaign" => Box::new(|| run_fig7(cfg)),
        "fig10-gpu-campaign" => Box::new(|| run_fig10(cfg)),
        "fig14-dvfs" => Box::new(|| run_fig14(cfg)),
        "explore-frontier" => Box::new(|| run_explore_frontier(cfg)),
        "micro-cpu-step" => single_core(cfg, CpuDesign::AdvHet, "fft"),
        "micro-gpu-step" => Box::new(|| run_micro_gpu(cfg)),
        "micro-mem-hierarchy" => Box::new(|| run_micro_mem(cfg)),
        "micro-power-dvfs" => {
            let sample = power_sample(cfg);
            Box::new(move || run_micro_power(cfg, &sample))
        }
        // Event-queue stress: the paper's most memory-bound application
        // on the all-TFET core (the slowest clock and deepest relative
        // miss latencies), so the pipeline spends most cycles stalled and
        // throughput is dominated by the timing wheel and the dead-cycle
        // skip machinery rather than by dispatch/commit work.
        "micro-event-queue" => single_core(cfg, CpuDesign::BaseTfet, "canneal"),
        other => panic!("unknown bench scenario `{other}`"),
    }
}

/// Measures every pinned scenario under `cfg` against `clock` and
/// assembles the dump. Scenario order is [`SCENARIOS`] order; progress
/// is narrated on stderr (one line per scenario), keeping stdout free
/// for the dump/report the CLI prints.
pub fn run_bench_with_clock(clock: &dyn Clock, cfg: &BenchConfig) -> BenchDump {
    let mut scenarios = Vec::with_capacity(SCENARIOS.len());
    for name in SCENARIOS {
        narrate(&format!(
            "[bench] {name} ({} warmup + {} repeat(s))...",
            cfg.warmup,
            cfg.repeats.max(1)
        ));
        let m: Measurement = measure(clock, cfg.warmup, cfg.repeats, scenario(name, cfg));
        let r = ScenarioResult::new(name, &m);
        narrate(&format!(
            "[bench] {name}: {} insts, median {} us, {:.0} insts/s{}",
            r.insts,
            r.wall_us,
            r.insts_per_sec,
            if r.timing.noisy { " (noisy)" } else { "" }
        ));
        scenarios.push(r);
    }
    BenchDump {
        schema: hetsim_bench::BENCH_SCHEMA.to_string(),
        quick: cfg.quick,
        insts: cfg.insts,
        seed: cfg.seed,
        warmup: cfg.warmup,
        repeats: cfg.repeats.max(1),
        host: HostInfo::detect(),
        scenarios,
    }
}

/// [`run_bench_with_clock`] on the real monotonic clock — the entry
/// point `repro bench` uses.
pub fn run_bench(cfg: &BenchConfig) -> BenchDump {
    run_bench_with_clock(&MonotonicClock::new(), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smallest config that still drives every scenario through
    /// real work: unit tests must stay fast.
    fn tiny() -> BenchConfig {
        BenchConfig {
            insts: 1_000,
            seed: 7,
            warmup: 0,
            repeats: 1,
            jobs: 1,
            quick: true,
        }
    }

    #[test]
    fn menu_names_are_unique_and_nonempty() {
        let mut seen: Vec<&str> = Vec::new();
        for name in SCENARIOS {
            assert!(!name.is_empty());
            assert!(!seen.contains(&name), "duplicate scenario `{name}`");
            seen.push(name);
        }
    }

    #[test]
    fn every_scenario_simulates_work_and_the_dump_validates() {
        let dump = run_bench(&tiny());
        dump.validate().expect("dump is structurally valid");
        assert_eq!(
            dump.scenarios
                .iter()
                .map(|s| s.name.as_str())
                .collect::<Vec<_>>(),
            SCENARIOS.to_vec(),
            "dump preserves menu order"
        );
        for s in &dump.scenarios {
            assert!(s.insts > 0, "{}: zero instructions simulated", s.name);
        }
        assert!(dump.quick);
        assert_eq!((dump.insts, dump.seed), (1_000, 7));
    }

    #[test]
    fn scenario_insts_are_deterministic_across_runs() {
        let cfg = tiny();
        let a = run_bench(&cfg);
        let b = run_bench(&cfg);
        for (x, y) in a.scenarios.iter().zip(&b.scenarios) {
            assert_eq!(x.insts, y.insts, "{}: insts must be pinned", x.name);
        }
    }

    #[test]
    fn quick_profile_uses_the_reduced_budget() {
        let cfg = BenchConfig::quick();
        assert!(cfg.quick);
        assert_eq!(cfg.insts, QUICK_INSTS);
        const { assert!(QUICK_INSTS < FULL_INSTS) };
    }
}
