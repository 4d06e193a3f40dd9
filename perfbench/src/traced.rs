//! The traced pass: an untraced pass's campaign, run through each layer's
//! public functions with a timer around every call into a layer.
//!
//! A CPU job makes the calls of `hetcore::run_cpu_multicore`, a GPU job
//! those of `hetcore::run_gpu`, and a batch those of
//! `hetsim_runner::Runner::run` (probe every key, run the misses on
//! `run_batch`, store each outcome), each with the same arguments. The
//! traced outcomes are digested like an untraced pass's, so `run.py`
//! checks that the instrumentation changed no simulated counter.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use hetcore::suite::{Suite, BASELINE_CORES, TWOX_CORES};
use hetcore::{CpuDesign, CpuOutcome, GpuDesign, GpuOutcome, Report};
use hetsim_cpu::core::{Core, RunResult};
use hetsim_cpu::multicore::MulticoreResult;
use hetsim_cpu::CoreStats;
use hetsim_device::dvfs::DvfsController;
use hetsim_device::variation::{CMOS_GUARDBAND_V, TFET_GUARDBAND_V};
use hetsim_gpu::{Gpu, KernelProfile};
use hetsim_mem::{Hierarchy, MemStats};
use hetsim_power::assignment::VoltageFactors;
use hetsim_power::{EnergyBreakdown, GpuActivity, GpuEnergyModel};
use hetsim_runner::{run_batch, JobKey, ResultCache, Task};
use hetsim_trace::cache::CachedTrace;
use hetsim_trace::stream::THREAD_ADDRESS_STRIDE;
use hetsim_trace::{apps, OpClass, TraceGenerator, WorkloadProfile};
use serde::value::Value;
use serde::{Deserialize, Serialize};

use crate::{
    all_reports, cpu_campaign, cpu_reports, digest, gpu_campaign, gpu_reports, render, suite_at,
    Args, PassRecord, Workload, WORKERS,
};

/// Declares the per-layer totals once: the struct, how two are summed,
/// and the metric name each field is reported under.
macro_rules! layers {
    ($($field:ident: $ty:ty => $name:literal,)*) => {
        /// Host time (`_s` fields, seconds) and work counts per layer.
        #[derive(Debug, Default, Clone, Copy)]
        pub(crate) struct Layers {
            $($field: $ty,)*
        }

        impl Layers {
            fn absorb(&mut self, other: &Layers) {
                $(self.$field += other.$field;)*
            }

            fn raw_metrics(&self) -> Vec<(String, Value)> {
                vec![$(($name.to_string(), self.$field.to_value()),)*]
            }
        }
    };
}

layers! {
    trace_gen_s: f64 => "trace.gen_s",
    trace_generated: u64 => "trace.insts_generated",
    trace_replayed: u64 => "trace.insts_replayed",
    trace_distinct: u64 => "trace.insts_distinct",
    cpu_new_s: f64 => "cpu.new_s",
    cpu_step_s: f64 => "cpu.step_s",
    cpu_simulated: u64 => "cpu.simulated_insts",
    cpu_committed: u64 => "cpu.committed",
    cpu_cycles: u64 => "cpu.cycles",
    mem_prewarm_s: f64 => "mem.prewarm_s",
    mem_accesses: u64 => "mem.accesses",
    mem_l1_misses: u64 => "mem.l1_misses",
    mem_llc_misses: u64 => "mem.llc_misses",
    gpu_step_s: f64 => "gpu.step_s",
    gpu_wavefront_insts: u64 => "gpu.wavefront_insts",
    gpu_cycles: u64 => "gpu.cycles",
    power_eval_s: f64 => "power.eval_s",
    power_evals: u64 => "power.evals",
    runner_read_s: f64 => "runner.read_s",
    runner_write_s: f64 => "runner.write_s",
    runner_cache_hits: u64 => "runner.cache_hits",
    runner_jobs_executed: u64 => "runner.jobs_executed",
    runner_bytes_written: u64 => "runner.bytes_written",
    runner_entries_written: u64 => "runner.entries_written",
    runner_pool_idle_s: f64 => "runner.pool_idle_s",
    core_jobs_build_s: f64 => "core.jobs_build_s",
    core_report_s: f64 => "core.report_s",
    core_fig14_s: f64 => "core.fig14_s",
}

impl Layers {
    /// The raw totals plus the per-unit rates derived from them (0 where
    /// a layer did no work).
    fn metrics(&self) -> Value {
        let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
        let mut metrics = self.raw_metrics();
        for (name, value) in [
            (
                "trace.gen_ns_per_inst",
                per(self.trace_gen_s * 1e9, self.trace_generated),
            ),
            (
                "trace.replay_ratio",
                per(self.trace_replayed as f64, self.trace_generated),
            ),
            (
                "cpu.ns_per_inst",
                per(self.cpu_step_s * 1e9, self.cpu_simulated),
            ),
            (
                "gpu.ns_per_wave_inst",
                per(self.gpu_step_s * 1e9, self.gpu_wavefront_insts),
            ),
            (
                "runner.bytes_per_entry",
                per(
                    self.runner_bytes_written as f64,
                    self.runner_entries_written,
                ),
            ),
        ] {
            metrics.push((name.to_string(), Value::Float(value)));
        }
        Value::Object(metrics)
    }

    /// Counts one finished core run that simulated `simulated` instructions.
    fn count_run(&mut self, r: &RunResult, simulated: u64) {
        self.cpu_simulated += simulated;
        self.cpu_committed += r.stats.committed;
        self.cpu_cycles += r.stats.cycles;
        let dl1 = r.mem.dl1_accesses();
        self.mem_accesses += dl1;
        self.mem_l1_misses += dl1.saturating_sub(r.mem.dl1_fast.hits + r.mem.dl1_slow.hits);
        self.mem_llc_misses += r.mem.l3.misses;
    }

    /// Times one energy-model evaluation.
    fn power<T>(&mut self, eval: impl FnOnce() -> T) -> T {
        self.power_evals += 1;
        timed(&mut self.power_eval_s, eval)
    }
}

/// Runs `f`, adding its wall time (seconds) to `acc`.
fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *acc += start.elapsed().as_secs_f64();
    out
}

/// A trace stream: `(app, seed, thread)`, as the trace memo keys it.
type StreamKey = (&'static str, u64, u32);

thread_local! {
    /// How far the trace memo has materialized each stream on this
    /// thread. Like the memo itself it is thread-local, so it dies with
    /// each batch's worker threads just as the memo does. It mirrors the
    /// memo exactly while no request exceeds the memo's per-stream bound
    /// (8M instructions) or its 64M-instruction budget; every request here
    /// is under 0.5M and a whole campaign under 15M.
    static MATERIALIZED: RefCell<HashMap<StreamKey, u64>> = RefCell::new(HashMap::new());
}

/// The longest prefix of each stream any thread requested: what the pass
/// would generate if its threads shared one memo. Unlike the generated
/// count it does not depend on which worker ran which job.
static DISTINCT: Mutex<BTreeMap<StreamKey, u64>> = Mutex::new(BTreeMap::new());

/// `hetsim_trace::cache::replay`, timed, counting the instructions it had
/// to generate and the prefix it served.
fn replay(
    l: &mut Layers,
    app: &WorkloadProfile,
    seed: u64,
    thread: u32,
    min_len: u64,
) -> CachedTrace {
    let trace = timed(&mut l.trace_gen_s, || {
        hetsim_trace::cache::replay(app, seed, thread, min_len)
    });
    let key = (app.name, seed, thread);
    let before = MATERIALIZED.with(|m| {
        let mut m = m.borrow_mut();
        let len = m.entry(key).or_insert(0);
        let before = *len;
        *len = before.max(min_len);
        before
    });
    let mut distinct = DISTINCT.lock().expect("no pass thread panicked");
    let longest = distinct.entry(key).or_insert(0);
    *longest = (*longest).max(min_len);
    l.trace_generated += min_len.saturating_sub(before);
    l.trace_replayed += min_len;
    trace
}

/// Instructions in the distinct stream prefixes this process requested.
fn distinct_stream_insts() -> u64 {
    DISTINCT
        .lock()
        .expect("no pass thread panicked")
        .values()
        .sum()
}

/// `hetcore::run_cpu_multicore`, call for call.
fn cpu_job(
    design: CpuDesign,
    cores: u32,
    app: &WorkloadProfile,
    seed: u64,
    total_insts: u64,
    l: &mut Layers,
) -> CpuOutcome {
    let cfg = design.core_config();
    let model = design.energy_model();
    app.validate().expect("valid profile");
    let serial_insts = (total_insts as f64 * (1.0 - app.parallel_fraction)).round() as u64;
    let per_core = (total_insts - serial_insts) / u64::from(cores);

    // One phase on one core: `hetsim_cpu::multicore::run_multicore`.
    let phase = |core_id: u32, seed: u64, n: u64, l: &mut Layers| {
        let warmup = (n / 4).min(25_000);
        let mut core = timed(&mut l.cpu_new_s, || Core::new(cfg.clone(), core_id));
        timed(&mut l.mem_prewarm_s, || {
            core.prewarm(
                u64::from(core_id) * THREAD_ADDRESS_STRIDE,
                app.memory.working_set_bytes,
            )
        });
        let pull_bound = warmup + n + cfg.steering.lookahead_window() + 1;
        let trace = replay(l, app, seed, core_id, pull_bound);
        let r = timed(&mut l.cpu_step_s, || core.run_warmed(trace, warmup, n));
        l.count_run(&r, warmup + n);
        r
    };
    let serial = (serial_insts > 0).then(|| phase(0, seed, serial_insts, l));
    let mut parallel = Vec::new();
    if per_core > 0 {
        for t in 0..cores {
            parallel.push(phase(t, seed.wrapping_add(1), per_core, l));
        }
    }
    let mc = MulticoreResult {
        cores,
        serial,
        parallel,
        clock_hz: cfg.clock_hz,
    };

    let mut energy = EnergyBreakdown::default();
    let t_serial = mc.serial_seconds();
    if let Some(serial) = &mc.serial {
        energy.merge(&l.power(|| model.energy(&serial.stats, &serial.mem, t_serial)));
        for _ in 1..cores {
            energy.merge(&l.power(|| model.idle_energy(t_serial)));
        }
    }
    let t_parallel = mc.parallel_seconds();
    for r in &mc.parallel {
        energy.merge(&l.power(|| model.energy(&r.stats, &r.mem, t_parallel)));
    }

    let mut stats = CoreStats::default();
    let mut mem = MemStats::default();
    let mut serial_cycles = 0;
    if let Some(serial) = &mc.serial {
        stats.merge(&serial.stats);
        mem.merge(&serial.mem);
        serial_cycles = serial.stats.cycles;
    }
    let mut parallel_cycles = 0;
    for r in &mc.parallel {
        stats.merge(&r.stats);
        mem.merge(&r.mem);
        parallel_cycles = parallel_cycles.max(r.stats.cycles);
    }
    stats.cycles = serial_cycles + parallel_cycles;

    CpuOutcome {
        design,
        app: app.name.to_string(),
        seconds: mc.total_seconds(),
        energy,
        cores,
        committed: mc.total_committed(),
        stats,
        mem,
    }
}

/// `hetcore::run_gpu`, call for call.
fn gpu_job(design: GpuDesign, kernel: &KernelProfile, seed: u64, l: &mut Layers) -> GpuOutcome {
    let result = timed(&mut l.gpu_step_s, || {
        Gpu::new(design.gpu_config()).run(kernel, seed)
    });
    l.gpu_wavefront_insts += result.stats.wavefront_insts;
    l.gpu_cycles += result.stats.cycles;
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
    let energy = l.power(|| GpuEnergyModel::new(design.assignment()).energy(&activity));
    GpuOutcome {
        design,
        kernel: kernel.name.to_string(),
        seconds,
        energy,
        compute_units: result.compute_units,
        stats: result.stats,
    }
}

/// A campaign job whose run charges its layer time to the `Layers` given.
type TracedJob<T> = Box<dyn FnOnce(&mut Layers) -> T + Send>;

/// The CPU campaign's jobs: keys (and their hashing cost) from
/// `Suite::cpu_campaign_jobs`, runs from [`cpu_job`].
fn cpu_jobs(suite: &Suite) -> Vec<(JobKey, TracedJob<CpuOutcome>)> {
    let (seed, insts) = (suite.seed, suite.insts_per_app);
    let mut points = Vec::new();
    for app in apps::all() {
        for design in CpuDesign::ALL {
            points.push((design, BASELINE_CORES, app.clone()));
        }
        points.push((CpuDesign::AdvHet, TWOX_CORES, app));
    }
    let jobs = suite.cpu_campaign_jobs();
    assert_eq!(jobs.len(), points.len(), "CPU campaign size");
    jobs.into_iter()
        .zip(points)
        .map(|(job, (design, cores, app))| {
            assert_eq!(
                job.label,
                format!("cpu/{}/{}x{}", app.name, design.name(), cores),
                "traced jobs follow the campaign's submission order"
            );
            let run: TracedJob<CpuOutcome> =
                Box::new(move |l| cpu_job(design, cores, &app, seed, insts, l));
            (job.key, run)
        })
        .collect()
}

/// The GPU campaign's jobs: keys from `Suite::gpu_campaign_jobs`, runs
/// from [`gpu_job`].
fn gpu_jobs(suite: &Suite) -> Vec<(JobKey, TracedJob<GpuOutcome>)> {
    let seed = suite.seed;
    let points: Vec<_> = hetsim_gpu::kernels::all()
        .into_iter()
        .flat_map(|kernel| GpuDesign::ALL.map(|design| (design, kernel.clone())))
        .collect();
    let jobs = suite.gpu_campaign_jobs();
    assert_eq!(jobs.len(), points.len(), "GPU campaign size");
    jobs.into_iter()
        .zip(points)
        .map(|(job, (design, kernel))| {
            assert_eq!(
                job.label,
                format!("gpu/{}/{}", kernel.name, design.name()),
                "traced jobs follow the campaign's submission order"
            );
            let run: TracedJob<GpuOutcome> = Box::new(move |l| gpu_job(design, &kernel, seed, l));
            (job.key, run)
        })
        .collect()
}

/// `Runner::run` without progress events: probe every key in submission
/// order, run the misses on the runner's pool, store each outcome.
fn run_jobs<T>(cache: &ResultCache<T>, jobs: Vec<(JobKey, TracedJob<T>)>, l: &mut Layers) -> Vec<T>
where
    T: Clone + Send + Serialize + Deserialize,
{
    let mut slots = Vec::with_capacity(jobs.len());
    let mut misses = Vec::new();
    for (index, (key, run)) in jobs.into_iter().enumerate() {
        let hit = timed(&mut l.runner_read_s, || cache.get(key));
        match hit {
            Some(_) => l.runner_cache_hits += 1,
            None => misses.push((index, key, run)),
        }
        slots.push(hit);
    }
    l.runner_jobs_executed += misses.len() as u64;
    // `run_batch` runs a single task inline and clamps workers to tasks.
    let workers = if misses.len() <= 1 {
        1
    } else {
        WORKERS.min(misses.len())
    };
    let tasks: Vec<Task<'_, (usize, T, Layers, f64)>> = misses
        .into_iter()
        .map(|(index, key, run)| {
            Box::new(move || {
                let start = Instant::now();
                let mut job = Layers::default();
                let value = run(&mut job);
                timed(&mut job.runner_write_s, || cache.put(key, &value));
                let busy = start.elapsed().as_secs_f64();
                let written = cache
                    .path_of(key)
                    .and_then(|path| std::fs::metadata(path).ok());
                if let Some(meta) = written {
                    job.runner_bytes_written += meta.len();
                    job.runner_entries_written += 1;
                }
                (index, value, job, busy)
            }) as Task<'_, _>
        })
        .collect();
    let batch_start = Instant::now();
    let done = run_batch(WORKERS, tasks);
    let batch_wall = batch_start.elapsed().as_secs_f64();
    let mut busy_total = 0.0;
    for (index, value, job, busy) in done {
        slots[index] = Some(value);
        l.absorb(&job);
        busy_total += busy;
    }
    if busy_total > 0.0 {
        l.runner_pool_idle_s += workers as f64 * batch_wall - busy_total;
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every job answered"))
        .collect()
}

/// `Suite::fig14`, call for call.
fn fig14(suite: &Suite, l: &mut Layers) -> Report {
    let dvfs = DvfsController::new();
    let nominal = dvfs.nominal();
    let factors_for = |hz: f64| {
        let p = dvfs.operating_point(hz).expect("reachable DVFS point");
        VoltageFactors::from_voltages(p.v_cmos, nominal.v_cmos, p.v_tfet, nominal.v_tfet)
    };
    let points = [
        ("BaseFreq-2GHz", 2.0e9, VoltageFactors::default()),
        ("BoostFreq-2.5GHz", 2.5e9, factors_for(2.5e9)),
        ("SlowFreq-1.5GHz", 1.5e9, factors_for(1.5e9)),
        (
            "ProcessVar-2GHz",
            2.0e9,
            VoltageFactors::from_voltages(
                nominal.v_cmos + CMOS_GUARDBAND_V,
                nominal.v_cmos,
                nominal.v_tfet + TFET_GUARDBAND_V,
                nominal.v_tfet,
            ),
        ),
    ];
    let mut r = Report::new(
        "Figure 14: DVFS & process variation — energy normalized to BaseCMOS@2GHz",
        vec!["BaseCMOS".into(), "AdvHet".into()],
    );
    let insts = suite.insts_per_app / 4;
    let profiles: Vec<_> = ["fft", "lu", "radix", "canneal", "blackscholes", "water-nsq"]
        .iter()
        .map(|name| apps::profile(name).expect("known app"))
        .collect();
    let mut baseline = None;
    for (label, hz, volts) in points {
        let mut totals = [0.0f64; 2];
        for (d, design) in [CpuDesign::BaseCmos, CpuDesign::AdvHet]
            .into_iter()
            .enumerate()
        {
            let mut cfg = design.core_config();
            cfg.clock_hz = hz * (cfg.clock_hz / 2.0e9);
            let pull_bound = insts + cfg.steering.lookahead_window() + 1;
            let model = design.energy_model().with_voltages(volts);
            for app in &profiles {
                let mut core = timed(&mut l.cpu_new_s, || Core::new(cfg.clone(), 0));
                let trace = replay(l, app, suite.seed, 0, pull_bound);
                let result = timed(&mut l.cpu_step_s, || core.run(trace, insts));
                l.count_run(&result, insts);
                let e = l.power(|| model.energy(&result.stats, &result.mem, result.seconds()));
                totals[d] += e.total_j();
            }
        }
        let base = *baseline.get_or_insert(totals[0]);
        r.push_row(label, vec![totals[0] / base, totals[1] / base]);
    }
    r
}

fn open_cache<T: Clone + Serialize + Deserialize>(dir: &Path) -> Result<ResultCache<T>, String> {
    ResultCache::on_disk(dir)
        .map_err(|e| format!("cannot open cache directory {}: {e}", dir.display()))
}

/// One traced pass of `args.workload`.
pub(crate) fn pass(args: &Args) -> Result<Value, String> {
    let mut rec = PassRecord::starting_in(&args.dir)?;
    let mut l = Layers::default();
    let suite = suite_at(args.seed);
    match args.workload {
        Workload::CpuFigs => {
            let cache = open_cache(&args.dir)?;
            let jobs = timed(&mut l.core_jobs_build_s, || cpu_jobs(&suite));
            rec.start_timing();
            let cpu = cpu_campaign(run_jobs(&cache, jobs, &mut l));
            let text = timed(&mut l.core_report_s, || render(&cpu_reports(&suite, &cpu)));
            rec.report_digests.push(digest(&text));
            rec.add_cpu(&cpu);
        }
        Workload::GpuFigs => {
            let batches: Vec<_> = timed(&mut l.core_jobs_build_s, || {
                args.gpu_seeds
                    .iter()
                    .map(|&seed| (suite_at(seed), gpu_jobs(&suite_at(seed))))
                    .collect()
            });
            rec.start_timing();
            for (suite, jobs) in batches {
                let gpu = gpu_campaign(run_jobs(&open_cache(&args.dir)?, jobs, &mut l));
                let text = timed(&mut l.core_report_s, || render(&gpu_reports(&suite, &gpu)));
                rec.report_digests.push(digest(&text));
                rec.add_gpu(&gpu);
            }
        }
        Workload::WarmRerender => {
            let (cpu_cache, gpu_cache) = (open_cache(&args.dir)?, open_cache(&args.dir)?);
            let (cpu, gpu) = timed(&mut l.core_jobs_build_s, || {
                (cpu_jobs(&suite), gpu_jobs(&suite))
            });
            rec.start_timing();
            let cpu = cpu_campaign(run_jobs(&cpu_cache, cpu, &mut l));
            let gpu = gpu_campaign(run_jobs(&gpu_cache, gpu, &mut l));
            let start = Instant::now();
            let fig14 = fig14(&suite, &mut l);
            l.core_fig14_s += start.elapsed().as_secs_f64();
            let text = timed(&mut l.core_report_s, || {
                render(&all_reports(&suite, &cpu, &gpu, fig14))
            });
            rec.report_digests.push(digest(&text));
            rec.add_jobs(&cpu.outcomes);
            rec.add_jobs(&gpu.outcomes);
            rec.sim_insts = l.cpu_committed;
        }
    }
    l.trace_distinct = distinct_stream_insts();
    rec.jobs_executed = l.runner_jobs_executed;
    rec.disk_reads = l.runner_cache_hits;
    Ok(rec.into_value(vec![("layers".to_string(), l.metrics())]))
}

/// Host nanoseconds per data access of the memory hierarchy alone: the
/// load/store address streams of canneal (the memory-bound tail of
/// `cpu-figs`) and fft, replayed straight into a BaseTFET core's
/// `Hierarchy`, each prewarmed as in a campaign run. Reports the median of
/// five replays per stream.
pub(crate) fn membench(seed: u64) -> Value {
    const INSTS: usize = 1_000_000;
    const REPEATS: usize = 5;
    let cfg = CpuDesign::BaseTfet.core_config();
    let (mut seconds, mut accesses) = (0.0, 0u64);
    for name in ["canneal", "fft"] {
        let app = apps::profile(name).expect("known app");
        let stream: Vec<(u64, bool)> = TraceGenerator::for_thread(&app, seed, 0)
            .take(INSTS)
            .filter_map(|inst| inst.addr.map(|addr| (addr, inst.op == OpClass::Store)))
            .collect();
        let mut samples: Vec<f64> = (0..REPEATS)
            .map(|_| {
                let mut h = Hierarchy::new(cfg.memory.to_hierarchy(cfg.clock_hz));
                h.prewarm(0, app.memory.working_set_bytes);
                let start = Instant::now();
                for &(addr, store) in &stream {
                    std::hint::black_box(if store { h.store(addr) } else { h.load(addr) });
                }
                start.elapsed().as_secs_f64()
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        seconds += samples[REPEATS / 2];
        accesses += stream.len() as u64;
    }
    Value::Object(vec![
        (
            "mem.ns_per_access".to_string(),
            Value::Float(seconds * 1e9 / accesses as f64),
        ),
        ("mem.replay_accesses".to_string(), Value::UInt(accesses)),
    ])
}
