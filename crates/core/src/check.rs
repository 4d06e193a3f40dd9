//! Chip-level invariant validation and the metamorphic fuzz rounds behind
//! `repro check`.
//!
//! Three layers, from cheapest to deepest:
//!
//! 1. [`validate_cpu_outcome`] / [`validate_gpu_outcome`] — re-run the
//!    per-run accounting invariants (`hetsim_cpu::core::validate_run`,
//!    `hetsim_gpu::stats::validate_gpu_stats`, the power validators)
//!    against a finished experiment outcome.
//! 2. [`validate_dump`] — reconstruct counter structs from a telemetry
//!    [`StatsDump`](crate::telemetry::StatsDump) value tree and validate
//!    the *serialized* numbers, so a bug anywhere between the simulator
//!    and the JSON (merge, telemetry keys, campaign aggregation) is
//!    caught at the artifact boundary.
//!
//!    [`validate_outputs`] runs both on what one run produced: every
//!    outcome of its plan's CPU and GPU batches (the campaigns, Figure 14
//!    and the extensions alike), then its dump. `repro` calls it after
//!    every run, so no command reports a result that breaks them. The
//!    [`PERTURB_ENV`] hook injects an off-by-one into one named counter
//!    of a copy of every outcome and of every dump column, proving
//!    end-to-end that a corrupted result yields a named violation and a
//!    non-zero exit.
//! 3. [`fuzz_round`] — sample a random-but-legal workload/kernel from a
//!    seed ([`hetsim_trace::fuzz`]) and assert *metamorphic* relations
//!    that need no oracle: more requested instructions never commit
//!    fewer; splitting a job batch across runner calls (and worker
//!    counts) never changes any outcome; halving the clock never shrinks
//!    wall-clock time and never adds cycles; GPU counters are
//!    clock-invariant; doubling a launch doubles its work.

use hetsim_check::{CheckConfig, Checker};
use hetsim_cpu::core::{validate_run, RunResult};
use hetsim_cpu::multicore::{pins, run_multicore, run_multicore_checked};
use hetsim_cpu::stats::CoreStats;
use hetsim_gpu::gpu::Gpu;
use hetsim_gpu::stats::{validate_gpu_stats, GpuStats};
use hetsim_gpu::KernelProfile;
use hetsim_mem::stats::MemStats;
use hetsim_power::account::{validate_energy_breakdown, validate_gpu_energy};
use hetsim_runner::Runner;
use hetsim_trace::fuzz;
use serde::value::Value;

use crate::campaign::{cpu_job, Fingerprinted};
use crate::config::{CpuDesign, GpuDesign, OperatingPoint};
use crate::experiment::{CpuOutcome, CpuRun, GpuOutcome};
use crate::suite::Outcomes;

/// Environment variable holding a counter-perturbation spec for
/// [`validate_outputs`]: a dotted counter name rooted at `core.`, `mem.`
/// or `gpu.` (e.g. `core.issues`, `mem.l2.hits`, `gpu.valu_insts`). When
/// set, the named counter is bumped by one in a copy of every outcome
/// and in every reconstructed design column before validation — a
/// test-only fault injector proving the check layer actually fires on
/// corrupted results. Reports and dumps are never perturbed.
pub const PERTURB_ENV: &str = "HETSIM_CHECK_PERTURB";

/// Reads the perturbation spec from the environment (tests and the CI
/// fault-injection job set it; normal runs leave it unset).
pub fn perturbation_from_env() -> Option<String> {
    std::env::var(PERTURB_ENV).ok().filter(|s| !s.is_empty())
}

/// Per-run slack multiplier for window-tolerant bounds: an outcome merges
/// the serial phase plus one parallel phase per core, so at most
/// `cores + 1` measurement windows contribute in-flight slack.
fn outcome_slack_runs(cores: u32) -> u64 {
    u64::from(cores) + 1
}

/// Validates one finished CPU experiment outcome: committed-count
/// consistency, the full `validate_run` accounting relations over the
/// merged chip counters, and the energy-breakdown invariants.
pub fn validate_cpu_outcome(outcome: &CpuOutcome, checker: &mut Checker) {
    let cfg = outcome.design.core_config();
    checker.scoped(format!("{}/{}", outcome.design.name(), outcome.app), |c| {
        c.eq_u64(
            "chip.outcome_committed_consistent",
            ("outcome.committed", outcome.committed),
            ("stats.committed", outcome.stats.committed),
        );
        c.ge_f64("chip.seconds_positive", ("seconds", outcome.seconds), 0.0);
        if outcome.committed > 0 {
            c.check(
                "chip.time_advances",
                "seconds > 0 when work committed",
                outcome.seconds > 0.0,
                format!("seconds={}", outcome.seconds),
            );
        }
        let result = RunResult {
            stats: outcome.stats,
            mem: outcome.mem,
            clock_hz: cfg.clock_hz,
            profile: Default::default(),
        };
        validate_run(&cfg, &result, outcome_slack_runs(outcome.cores), c);
        validate_energy_breakdown(&outcome.energy, c);
    });
}

/// Validates one finished GPU experiment outcome: the wavefront
/// accounting identities plus the GPU energy invariants.
pub fn validate_gpu_outcome(outcome: &GpuOutcome, checker: &mut Checker) {
    checker.scoped(
        format!("{}/{}", outcome.design.name(), outcome.kernel),
        |c| {
            validate_gpu_stats(&outcome.stats, c);
            validate_gpu_energy(&outcome.energy, c);
            c.ge_f64("chip.seconds_positive", ("seconds", outcome.seconds), 0.0);
        },
    );
}

/// Looks up the design whose telemetry column is `name`. The synthetic
/// `AdvHet-2X` column reuses the `AdvHet` configuration on more cores.
fn design_for_column(name: &str) -> Option<CpuDesign> {
    if name == "AdvHet-2X" {
        return Some(CpuDesign::AdvHet);
    }
    CpuDesign::ALL.iter().copied().find(|d| d.name() == name)
}

/// Rebuilds a counter struct from a flat `{dotted-name: count}` telemetry
/// object via the struct's `set`. Unknown keys and non-integer values are
/// reported as violations — they mean the dump schema and the simulator's
/// counter declarations have drifted apart.
fn rebuild(object: &Value, set: &mut dyn FnMut(&str, u64) -> bool, checker: &mut Checker) {
    let Some(entries) = object.as_object() else {
        checker.check(
            "dump.counter_object",
            "a JSON object of counters",
            false,
            format!("{object:?}"),
        );
        return;
    };
    for (name, value) in entries {
        match value.as_u64() {
            Some(v) => checker.check(
                "dump.known_counter",
                format!("declared counter {name}"),
                set(name, v),
                "no such counter in the simulator",
            ),
            None => checker.check(
                "dump.integer_counter",
                format!("non-negative integer for {name}"),
                false,
                format!("{value:?}"),
            ),
        }
    }
}

/// Applies the [`PERTURB_ENV`] spec to one design column's reconstructed
/// counters, returning whether the spec named a real counter.
fn apply_perturbation(
    spec: &str,
    core: Option<&mut CoreStats>,
    mem: Option<&mut MemStats>,
    gpu: Option<&mut GpuStats>,
) -> bool {
    if let (Some(name), Some(s)) = (spec.strip_prefix("core."), core) {
        let bumped = s.get(name).map_or(0, |v| v + 1);
        return s.set(name, bumped);
    }
    if let (Some(name), Some(s)) = (spec.strip_prefix("mem."), mem) {
        let bumped = s.get(name).map_or(0, |v| v + 1);
        return s.set(name, bumped);
    }
    if let (Some(name), Some(s)) = (spec.strip_prefix("gpu."), gpu) {
        let bumped = s.get(name).map_or(0, |v| v + 1);
        return s.set(name, bumped);
    }
    false
}

/// Validates a telemetry dump value tree (the `repro --stats-out` /
/// baseline artifact): every CPU design column's merged pipeline + memory
/// counters must satisfy the run-accounting relations, and every GPU
/// column the wavefront identities.
///
/// `apps` is the number of per-app outcomes merged into each column (used
/// to scale the in-flight-slack bounds); `cores` the largest core count
/// in the campaign. `perturb` optionally injects an off-by-one first
/// (see [`PERTURB_ENV`]); the result says whether it named a counter of
/// some column.
pub fn validate_dump(
    dump: &Value,
    apps: u64,
    cores: u32,
    perturb: Option<&str>,
    checker: &mut Checker,
) -> bool {
    let mut perturb_applied = false;
    checker.scoped("dump", |c| {
        if let Some(designs) = dump
            .get("cpu")
            .and_then(|cpu| cpu.get("designs"))
            .and_then(Value::as_object)
        {
            for (name, column) in designs {
                c.scoped(format!("cpu/{name}"), |c| {
                    let Some(design) = design_for_column(name) else {
                        c.check(
                            "dump.known_design",
                            "a known CPU design column",
                            false,
                            name.clone(),
                        );
                        return;
                    };
                    let mut stats = CoreStats::default();
                    let mut mem = MemStats::default();
                    if let Some(core) = column.get("core") {
                        rebuild(core, &mut |n, v| stats.set(n, v), c);
                    }
                    if let Some(m) = column.get("mem") {
                        rebuild(m, &mut |n, v| mem.set(n, v), c);
                    }
                    if let Some(spec) = perturb {
                        perturb_applied |=
                            apply_perturbation(spec, Some(&mut stats), Some(&mut mem), None);
                    }
                    let cfg = design.core_config();
                    let result = RunResult {
                        stats,
                        mem,
                        clock_hz: cfg.clock_hz,
                        profile: Default::default(),
                    };
                    // A column merges `apps` outcomes, each of which
                    // merges up to `cores + 1` measurement windows.
                    let slack = apps.max(1) * outcome_slack_runs(cores);
                    validate_run(&cfg, &result, slack, c);
                });
            }
        }
        if let Some(designs) = dump
            .get("gpu")
            .and_then(|gpu| gpu.get("designs"))
            .and_then(Value::as_object)
        {
            for (name, column) in designs {
                c.scoped(format!("gpu/{name}"), |c| {
                    let mut stats = GpuStats::default();
                    if let Some(g) = column.get("gpu") {
                        rebuild(g, &mut |n, v| stats.set(n, v), c);
                    }
                    if let Some(spec) = perturb {
                        perturb_applied |= apply_perturbation(spec, None, None, Some(&mut stats));
                    }
                    validate_gpu_stats(&stats, c);
                });
            }
        }
    });
    perturb_applied
}

/// Validates what one run produced: every outcome of its plan's CPU and
/// GPU batches, once each, under `outcomes/cpu[i]` or `outcomes/gpu[i]`
/// (`i` is the job's index in its batch), then its telemetry `dump`.
///
/// `perturb` (see [`PERTURB_ENV`]) bumps its counter in a copy of each
/// outcome and in each dump column; a spec that names no counter of any
/// of them is itself a violation, so a mistyped spec cannot pass blind.
pub fn validate_outputs(
    outcomes: &Outcomes,
    dump: &Value,
    perturb: Option<&str>,
    checker: &mut Checker,
) {
    let mut applied = false;
    checker.scoped("outcomes", |c| {
        for (i, outcome) in outcomes.cpu.iter().enumerate() {
            let mut outcome = outcome.clone();
            if let Some(spec) = perturb {
                let (core, mem) = (Some(&mut outcome.stats), Some(&mut outcome.mem));
                applied |= apply_perturbation(spec, core, mem, None);
            }
            c.scoped(format!("cpu[{i}]"), |c| validate_cpu_outcome(&outcome, c));
        }
        for (i, outcome) in outcomes.gpu.iter().enumerate() {
            let mut outcome = outcome.clone();
            if let Some(spec) = perturb {
                applied |= apply_perturbation(spec, None, None, Some(&mut outcome.stats));
            }
            c.scoped(format!("gpu[{i}]"), |c| validate_gpu_outcome(&outcome, c));
        }
    });
    // Dump columns exist for the campaigns only, each merging one outcome
    // per application; the batch's largest chip bounds their slack.
    let apps = hetsim_trace::apps::all().len() as u64;
    let cores = outcomes.cpu.iter().map(|o| o.cores).max().unwrap_or(1);
    applied |= validate_dump(dump, apps, cores, perturb, checker);
    if let Some(spec) = perturb {
        checker.scoped(PERTURB_ENV, |c| {
            c.check(
                "check.perturbation_applied",
                format!("perturbation spec {spec} names a real counter"),
                applied,
                "matched no counter of any outcome or dump column",
            );
        });
    }
}

/// One metamorphic fuzz round: a seeded random CPU workload and GPU
/// kernel, run through a design rotated by the seed, asserting the
/// oracle-free relations listed in the module docs. All violations land
/// in `checker` under a `fuzz[seed]` scope; `insts` bounds the CPU run
/// length (the GPU side is bounded by the sampled launch).
pub fn fuzz_round(seed: u64, insts: u64, checker: &mut Checker) {
    checker.scoped(format!("fuzz[{seed}]"), |c| {
        fuzz_cpu_round(seed, insts, c);
        fuzz_gpu_round(seed, c);
    });
}

fn fuzz_cpu_round(seed: u64, insts: u64, c: &mut Checker) {
    let design = CpuDesign::ALL[(seed as usize) % CpuDesign::ALL.len()];
    let app = fuzz::workload(seed);
    let point = Fingerprinted::new(design.resolve(OperatingPoint::nominal(), None));
    let cfg = &point.config;
    // Every run of the round reads the app's streams: generate them once.
    let _pins = pins(&app, seed);
    c.scoped(format!("cpu/{}", design.name()), |c| {
        // Invariant-checked run: every accounting relation must hold on
        // a workload far outside the calibrated application set.
        let (base, violations) = run_multicore_checked(cfg, 2, &app, seed, insts, CheckConfig::ON);
        c.absorb(violations);

        // Work monotonicity: requesting more instructions never commits
        // fewer, and never fabricates more than requested.
        let doubled = run_multicore(cfg, 2, &app, seed, insts * 2);
        c.ge_u64(
            "fuzz.insts_monotone",
            ("committed(2N)", doubled.total_committed()),
            ("committed(N)", base.total_committed()),
        );
        c.le_u64(
            "fuzz.no_fabricated_work",
            ("committed(N)", base.total_committed()),
            ("requested N", insts),
        );

        // Split/merge + worker-count invariance: the same two jobs run
        // as one parallel batch or as two serial single-job batches must
        // produce identical outcomes (the runner merges results in
        // submission order, independent of workers or batching).
        let run = CpuRun::Chip { cores: 2 };
        let workloads = [app.clone(), fuzz::workload(seed ^ 0x5EED_CAFE)].map(Fingerprinted::new);
        let jobs = || {
            workloads
                .iter()
                .map(|w| cpu_job(&point, run, w, seed, insts))
                .collect::<Vec<_>>()
        };
        let batched: Vec<CpuOutcome> = Runner::new(4).run(jobs());
        let split: Vec<CpuOutcome> = jobs()
            .into_iter()
            .flat_map(|job| Runner::serial().run(vec![job]))
            .collect();
        c.check(
            "fuzz.split_merge_invariance",
            "parallel batch == serially split batches",
            batched == split,
            format!(
                "committed {:?} vs {:?}",
                batched.iter().map(|o| o.committed).collect::<Vec<_>>(),
                split.iter().map(|o| o.committed).collect::<Vec<_>>()
            ),
        );

        // DVFS relations: at half clock the same trace takes at least as
        // long in seconds (the clock only slows things down) and no more
        // cycles (seconds-pinned DRAM latency costs fewer cycles).
        let half_clock = OperatingPoint {
            hz: 1.0e9,
            ..OperatingPoint::nominal()
        };
        let half_cfg = design.resolve(half_clock, None).config;
        let half = run_multicore(&half_cfg, 2, &app, seed, insts);
        c.check(
            "fuzz.dvfs_seconds_monotone",
            "seconds(half clock) >= seconds(base)",
            half.total_seconds() >= base.total_seconds() * (1.0 - 1e-12),
            format!(
                "half={} base={}",
                half.total_seconds(),
                base.total_seconds()
            ),
        );
        c.le_u64(
            "fuzz.dvfs_cycles_monotone",
            ("cycles(half clock)", half.chip_counters().0.cycles),
            ("cycles(base)", base.chip_counters().0.cycles),
        );
    });
}

fn fuzz_gpu_round(seed: u64, c: &mut Checker) {
    let design = GpuDesign::ALL[(seed as usize) % GpuDesign::ALL.len()];
    let mix = fuzz::kernel_mix(seed);
    let kernel = KernelProfile {
        name: Box::leak(format!("fuzz-{seed:016x}").into_boxed_str()),
        insts_per_wavefront: mix.insts_per_wavefront,
        wavefronts: mix.wavefronts,
        valu_frac: mix.valu_frac,
        mem_frac: mix.mem_frac,
        lds_frac: mix.lds_frac,
        dep_prob: mix.dep_prob,
        reg_reuse: mix.reg_reuse,
        mem_miss_rate: mix.mem_miss_rate,
    };
    c.scoped(format!("gpu/{}", design.name()), |c| {
        c.check(
            "fuzz.kernel_legal",
            "fuzzed kernel passes KernelProfile::validate",
            kernel.validate().is_ok(),
            format!("{:?}", kernel.validate()),
        );
        let cfg = design.gpu_config();
        let gpu = Gpu::new(cfg.clone());
        let base = gpu.run(&kernel, seed);
        gpu.validate_launch(&kernel, &base, c);

        // Clock invariance: the GPU clock prices time, never counters.
        let mut half_cfg = cfg.clone();
        half_cfg.clock_hz /= 2.0;
        let half = Gpu::new(half_cfg).run(&kernel, seed);
        c.check(
            "fuzz.gpu_clock_counter_invariance",
            "identical counters at half clock",
            half.stats == base.stats,
            format!("cycles {} vs {}", half.stats.cycles, base.stats.cycles),
        );
        c.close_f64(
            "fuzz.gpu_clock_seconds_scale",
            ("seconds(half clock)", half.seconds()),
            ("2 * seconds(base)", 2.0 * base.seconds()),
            1e-12,
        );

        // Launch scaling: doubling the wavefront count exactly doubles
        // the launch's work and never shrinks its cycle count.
        let mut doubled_kernel = kernel;
        doubled_kernel.wavefronts *= 2;
        let doubled = gpu.run(&doubled_kernel, seed);
        c.eq_u64(
            "fuzz.gpu_work_scales",
            (
                "wavefront_insts(2x wavefronts)",
                doubled.stats.wavefront_insts,
            ),
            ("2 * wavefront_insts", 2 * base.stats.wavefront_insts),
        );
        c.ge_u64(
            "fuzz.gpu_cycles_monotone",
            ("cycles(2x wavefronts)", doubled.stats.cycles),
            ("cycles", base.stats.cycles),
        );
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_cpu_multicore, run_gpu};
    use hetsim_gpu::kernels;
    use hetsim_trace::apps;

    #[test]
    fn real_outcomes_validate_clean() {
        let app = apps::profile("fft").expect("known");
        let mut checker = Checker::new();
        for design in [CpuDesign::BaseCmos, CpuDesign::AdvHet] {
            let outcome = run_cpu_multicore(design, 4, &app, 7, 8_000);
            validate_cpu_outcome(&outcome, &mut checker);
        }
        let kernel = kernels::profile("matmul").expect("known");
        for design in [GpuDesign::BaseCmos, GpuDesign::AdvHet] {
            validate_gpu_outcome(&run_gpu(design, &kernel, 7), &mut checker);
        }
        assert!(checker.is_clean(), "{:?}", checker.violations());
        assert!(checker.checks_run() > 50);
    }

    #[test]
    fn corrupted_outcome_is_flagged() {
        let app = apps::profile("lu").expect("known");
        let mut outcome = run_cpu_multicore(CpuDesign::BaseCmos, 4, &app, 7, 8_000);
        outcome.committed += 1;
        let mut checker = Checker::new();
        validate_cpu_outcome(&outcome, &mut checker);
        assert!(checker
            .violations()
            .iter()
            .any(|v| v.invariant == "chip.outcome_committed_consistent"));
    }

    #[test]
    fn a_corrupted_fig14_outcome_is_found_among_a_plans_outcomes() {
        let suite = crate::suite::Suite {
            insts_per_app: 4_000,
            seed: 7,
        };
        let plan = suite.plan(&[crate::suite::Experiment::Fig14], &[]);
        let mut outcomes = plan.run(|b| Runner::serial().run(b), |b| Runner::serial().run(b));
        let dump = Value::Object(Vec::new());
        let mut clean = Checker::new();
        validate_outputs(&outcomes, &dump, None, &mut clean);
        assert!(clean.is_clean(), "{:?}", clean.violations());
        assert!(
            clean.checks_run() > 36 * 10,
            "every Figure 14 outcome is checked"
        );

        outcomes.cpu[17].stats.issues += 1;
        let mut checker = Checker::new();
        validate_outputs(&outcomes, &dump, None, &mut checker);
        let found = checker.violations().iter().any(|v| {
            v.invariant == "cpu.issue_class_conservation" && v.path.starts_with("outcomes/cpu[17]/")
        });
        assert!(found, "{:?}", checker.violations());
    }

    #[test]
    fn fuzz_rounds_are_clean_across_seeds() {
        let mut checker = Checker::new();
        for seed in 0..4 {
            fuzz_round(seed, 2_000, &mut checker);
        }
        assert!(checker.is_clean(), "{:?}", checker.violations());
    }

    #[test]
    fn perturbed_dump_yields_named_violation() {
        let app = apps::profile("fft").expect("known");
        let outcome = run_cpu_multicore(CpuDesign::BaseCmos, 4, &app, 7, 8_000);
        let dump = Value::Object(vec![(
            "cpu".into(),
            Value::Object(vec![(
                "designs".into(),
                Value::Object(vec![(
                    "BaseCMOS".into(),
                    Value::Object(vec![
                        (
                            "core".into(),
                            Value::Object(
                                outcome
                                    .stats
                                    .iter()
                                    .map(|(n, v)| (n, Value::UInt(v)))
                                    .collect(),
                            ),
                        ),
                        (
                            "mem".into(),
                            Value::Object(
                                outcome
                                    .mem
                                    .iter()
                                    .map(|(n, v)| (n, Value::UInt(v)))
                                    .collect(),
                            ),
                        ),
                    ]),
                )]),
            )]),
        )]);
        let mut clean = Checker::new();
        validate_dump(&dump, 1, 4, None, &mut clean);
        assert!(clean.is_clean(), "{:?}", clean.violations());

        let mut checker = Checker::new();
        validate_dump(&dump, 1, 4, Some("core.issues"), &mut checker);
        assert!(
            checker
                .violations()
                .iter()
                .any(|v| v.invariant == "cpu.issue_class_conservation"),
            "perturbing core.issues must break an accounting identity: {:?}",
            checker.violations()
        );
        assert!(!checker.is_clean());
    }

    #[test]
    fn unknown_dump_counter_is_flagged() {
        let dump = Value::Object(vec![(
            "cpu".into(),
            Value::Object(vec![(
                "designs".into(),
                Value::Object(vec![(
                    "BaseCMOS".into(),
                    Value::Object(vec![(
                        "core".into(),
                        Value::Object(vec![("no_such_counter".into(), Value::UInt(1))]),
                    )]),
                )]),
            )]),
        )]);
        let mut checker = Checker::new();
        validate_dump(&dump, 1, 4, None, &mut checker);
        assert!(checker
            .violations()
            .iter()
            .any(|v| v.invariant == "dump.known_counter"));
    }
}
