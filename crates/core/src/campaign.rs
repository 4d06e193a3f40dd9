//! Campaign jobs: content-addressed units of CPU/GPU simulation.
//!
//! Every simulation the suite performs — the campaigns, Figure 14, the
//! extensions and the design-space search — is a [`Job`] whose
//! [`JobKey`] hashes what it simulates:
//!
//! * a **schema tag** ([`CPU_SCHEMA`] / [`GPU_SCHEMA`]) separating the
//!   CPU and GPU key spaces — bump it whenever the simulators or the
//!   outcome layout change incompatibly, and stale on-disk caches
//!   retire themselves;
//! * the **resolved point** — the design with the configuration and
//!   energy model (or device assignment) it resolves to at its
//!   operating point (see [`crate::config`]), so editing a design's
//!   `CoreConfig`, `GpuConfig` or energy model retires exactly that
//!   design's entries;
//! * the **run shape** ([`CpuRun`] / [`GpuRun`]);
//! * the **workload profile content**, so editing an app's instruction
//!   mix or miss rates invalidates its entries though its name stays;
//! * the **seed** and, for CPU jobs, the **instruction budget**.
//!
//! Points and profiles enter a key as [`Fingerprinted`] values: the hash
//! of their `Debug` rendering, taken once per value however many jobs
//! share it. Wall-clock, worker count and progress options never feed a
//! key.
//!
//! A key hashes the compact JSON of these fields,
//! `{"schema":…,"point":"<32 hex>","run":"<Debug text>","profile":"<32 hex>","seed":N[,"insts":N]}`,
//! which [`KeyWriter`] streams into the hash with no value tree and no
//! string: 0.3–0.5 µs a key on a 2-vCPU Xeon VM, against 1.6–1.8 µs to
//! build and print the same object as a `Value` tree. The bytes are the
//! ones that tree prints, so caches filled before keys were streamed
//! still answer.

use std::fmt::Debug;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use hetsim_gpu::kernel::GpuInst;
use hetsim_gpu::KernelProfile;
use hetsim_obs::TraceRecorder;
use hetsim_runner::{Job, JobKey, KeyWriter};
use hetsim_trace::WorkloadProfile;

use crate::config::{CpuPoint, GpuPoint};
use crate::experiment::{CpuOutcome, CpuRun, GpuOutcome, GpuRun};

/// Cache-key schema tag for CPU jobs. Bump on incompatible changes to
/// the CPU simulator, energy model or [`CpuOutcome`] layout.
/// (`v2`: outcomes gained chip-level `stats`/`mem` counter sets;
/// `v3`: no layout change, the `step_equivalence` golden gained its
/// per-CU issue-step section; `v4`: no layout change, explore prices a
/// candidate for the ROB it simulates, which moved the frontier golden.)
pub const CPU_SCHEMA: &str = "cpu-v4";
/// Cache-key schema tag for GPU jobs. Bump on incompatible changes to
/// the GPU simulator, energy model or [`GpuOutcome`] layout.
/// (`v2`: outcomes gained the run's `stats` counter set; `v3`: no
/// layout change, the `step_equivalence` golden gained its per-CU
/// issue-step section; `v4`: no layout change, bumped with `cpu-v4`
/// when the frontier golden moved.)
pub const GPU_SCHEMA: &str = "gpu-v4";

/// A job input together with its fingerprint: the hash of its `Debug`
/// rendering (every field, floats in round-trip form), streamed as it
/// is formatted. Jobs share the value, and keys hash the 32-digit
/// fingerprint instead of the value.
#[derive(Debug, Clone)]
pub struct Fingerprinted<T> {
    value: Arc<T>,
    print: JobKey,
}

impl<T: Debug> Fingerprinted<T> {
    /// Fingerprints `value`.
    pub fn new(value: T) -> Self {
        let print = JobKey::from_text(format_args!("{value:?}"));
        Fingerprinted {
            value: Arc::new(value),
            print,
        }
    }

    /// The fingerprint.
    pub fn print(&self) -> JobKey {
        self.print
    }
}

impl<T> Deref for Fingerprinted<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

/// The key of a CPU simulation: `run` of `insts` instructions of `app`
/// on `point`, seeded with `seed`.
pub fn cpu_job_key(
    point: &Fingerprinted<CpuPoint>,
    run: CpuRun,
    app: &Fingerprinted<WorkloadProfile>,
    seed: u64,
    insts: u64,
) -> JobKey {
    let (point, app) = (point.print(), app.print());
    job_key(CPU_SCHEMA, point, &run, app, seed, Some(insts))
}

/// A runnable, cacheable CPU simulation ([`CpuRun::simulate`]),
/// labelled `cpu/{app}/{design}` plus its run shape. It holds the pins of
/// its run ([`CpuRun::pins`]) until it has run or hit the cache.
pub fn cpu_job(
    point: &Fingerprinted<CpuPoint>,
    run: CpuRun,
    app: &Fingerprinted<WorkloadProfile>,
    seed: u64,
    insts: u64,
) -> Job<CpuOutcome> {
    let key = cpu_job_key(point, run, app, seed, insts);
    let shape = match run {
        CpuRun::Chip { cores } => format!("x{cores}"),
        CpuRun::Core => "-core".to_string(),
        CpuRun::ColdCore => format!("@{}GHz", point.config.clock_hz / 1e9),
    };
    let label = format!("cpu/{}/{}{shape}", app.name, point.design.name());
    let pins = run.pins(app, seed);
    let (point, app) = (point.clone(), app.clone());
    Job::new(key, label, move || {
        let _pins = pins;
        run.simulate(&point, &app, seed, insts)
    })
}

/// The key of a GPU simulation: `run` of `kernel` on `point`, seeded
/// with `seed`.
pub fn gpu_job_key(
    point: &Fingerprinted<GpuPoint>,
    run: GpuRun,
    kernel: &Fingerprinted<KernelProfile>,
    seed: u64,
) -> JobKey {
    job_key(GPU_SCHEMA, point.print(), &run, kernel.print(), seed, None)
}

/// One kernel launched with one seed, shared by the GPU jobs that
/// launch it on different points: the first of them to run generates
/// its instructions, and each drops its handle when it has run or hit
/// the cache, so the instructions live only while such a job is
/// pending.
pub struct GpuLaunch {
    kernel: Fingerprinted<KernelProfile>,
    seed: u64,
    insts: OnceLock<Vec<GpuInst>>,
    /// How many times this launch generated its kernel.
    #[cfg(test)]
    generated: std::sync::atomic::AtomicUsize,
}

impl GpuLaunch {
    /// `kernel` launched with `seed`; nothing is generated yet.
    pub fn new(kernel: Fingerprinted<KernelProfile>, seed: u64) -> Arc<Self> {
        let launch = Arc::new(GpuLaunch {
            kernel,
            seed,
            insts: OnceLock::new(),
            #[cfg(test)]
            generated: Default::default(),
        });
        #[cfg(test)]
        tests::launched(&launch);
        launch
    }

    /// The kernel's instructions, generated by the first call.
    fn insts(&self) -> &[GpuInst] {
        self.insts.get_or_init(|| {
            #[cfg(test)]
            self.generated
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.kernel.generate(self.seed)
        })
    }
}

/// A runnable, cacheable GPU simulation ([`GpuRun::simulate`]) of
/// `launch` on `point`, labelled `gpu/{kernel}/{design}` (plus `-sched`
/// when scheduled). It holds the launch until it has run or hit the
/// cache.
pub fn gpu_job(
    point: &Fingerprinted<GpuPoint>,
    run: GpuRun,
    launch: &Arc<GpuLaunch>,
) -> Job<GpuOutcome> {
    let key = gpu_job_key(point, run, &launch.kernel, launch.seed);
    let sched = if run == GpuRun::Plain { "" } else { "-sched" };
    let label = format!("gpu/{}/{}{sched}", launch.kernel.name, point.design.name());
    let (point, launch) = (point.clone(), Arc::clone(launch));
    Job::new(key, label, move || {
        run.simulate(&point, &launch.kernel, launch.insts(), launch.seed)
    })
}

/// The key of a job's fields, streamed in the order the module doc gives.
fn job_key(
    schema: &str,
    point: JobKey,
    run: &dyn Debug,
    profile: JobKey,
    seed: u64,
    insts: Option<u64>,
) -> JobKey {
    let fields = KeyWriter::new()
        .text("schema", schema)
        .text("point", point)
        .text("run", format_args!("{run:?}"))
        .text("profile", profile)
        .uint("seed", seed);
    let key = match insts {
        Some(insts) => fields.uint("insts", insts),
        None => fields,
    }
    .finish();
    #[cfg(test)]
    tests::derived(key, schema, point, run, profile, seed, insts);
    key
}

/// Runs `f` inside a campaign-level span (`cat: "campaign"`) on
/// `recorder`; with no recorder it is exactly `f()`. This is the
/// outermost scope of a run trace — it contains every batch the
/// campaign submits to its runner, so a trace viewer shows
/// `cpu-campaign`/`gpu-campaign` as the top-level lanes.
pub fn traced_campaign<T>(
    recorder: Option<&TraceRecorder>,
    name: &str,
    f: impl FnOnce() -> T,
) -> T {
    match recorder {
        Some(recorder) => {
            let _span = recorder.span(name, "campaign");
            f()
        }
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CpuDesign, GpuDesign, OperatingPoint};
    use crate::experiment::run_cpu_multicore;
    use crate::explore::{explore, DesignSpace, ExploreConfig};
    use crate::suite::{Experiment, Extension, Suite};
    use hetsim_power::assignment::VoltageFactors;
    use hetsim_runner::Runner;
    use hetsim_trace::apps;
    use serde::value::Value;
    use serde::Serialize;
    use std::cell::RefCell;
    use std::collections::HashSet;
    use std::sync::atomic::Ordering;
    use std::sync::Weak;

    thread_local! {
        /// Each key this thread derived, beside the `Value`-tree key of
        /// the same fields.
        static DERIVED: RefCell<Vec<(JobKey, JobKey)>> = const { RefCell::new(Vec::new()) };
    }

    /// Records a streamed `key` with the key of its fields derived the
    /// way keys were before they were streamed: a `Value` object,
    /// serialized, then hashed.
    pub(super) fn derived(
        key: JobKey,
        schema: &str,
        point: JobKey,
        run: &dyn Debug,
        profile: JobKey,
        seed: u64,
        insts: Option<u64>,
    ) {
        let mut fields = vec![
            ("schema".to_string(), Value::Str(schema.into())),
            ("point".to_string(), Value::Str(point.hex())),
            ("run".to_string(), Value::Str(format!("{run:?}"))),
            ("profile".to_string(), Value::Str(profile.hex())),
            ("seed".to_string(), seed.to_value()),
        ];
        fields.extend(insts.map(|n| ("insts".to_string(), n.to_value())));
        let tree = JobKey::of(&Value::Object(fields));
        DERIVED.with(|d| d.borrow_mut().push((key, tree)));
    }

    /// Takes the keys this thread derived since the last call.
    fn take_derived() -> Vec<(JobKey, JobKey)> {
        DERIVED.with(|d| std::mem::take(&mut *d.borrow_mut()))
    }

    thread_local! {
        /// Each launch this thread created.
        static LAUNCHED: RefCell<Vec<Weak<GpuLaunch>>> = const { RefCell::new(Vec::new()) };
    }

    /// Records a new launch.
    pub(super) fn launched(launch: &Arc<GpuLaunch>) {
        LAUNCHED.with(|l| l.borrow_mut().push(Arc::downgrade(launch)));
    }

    #[test]
    fn a_kernel_row_generates_its_kernel_once_and_only_while_pending() {
        LAUNCHED.with(|l| l.borrow_mut().clear());
        let mut jobs = Suite::default().gpu_campaign_jobs();
        let launches = LAUNCHED.with(|l| std::mem::take(&mut *l.borrow_mut()));
        let row = GpuDesign::ALL.len();
        assert_eq!((jobs.len(), launches.len()), (20 * row, 20));
        for launch in &launches {
            let launch = launch.upgrade().expect("pending jobs hold their launch");
            assert!(
                launch.insts.get().is_none(),
                "building jobs generates no kernel"
            );
            assert_eq!(
                Arc::strong_count(&launch),
                1 + row,
                "a row's jobs share one launch"
            );
        }
        let first = launches[0]
            .upgrade()
            .expect("pending jobs hold their launch");
        jobs.truncate(row);
        assert!(
            launches[1].upgrade().is_none(),
            "dropped jobs release their launch"
        );
        Runner::new(2).run(jobs);
        assert_eq!(first.generated.load(Ordering::Relaxed), 1, "generated once");
        assert_eq!(Arc::strong_count(&first), 1, "the row's jobs released it");
        drop(first);
        assert!(launches[0].upgrade().is_none(), "the launch is gone");
    }

    #[test]
    fn streamed_keys_equal_value_tree_keys() {
        take_derived();
        let plan = Suite::default().plan(&Experiment::ALL, &Extension::ALL);
        let planned = take_derived();
        let keys: HashSet<_> = planned.iter().map(|&(key, _)| key).collect();
        assert_eq!(plan.cpu.len() + plan.gpu.len(), 218 + 160);
        for job in plan.cpu.iter().map(|j| (j.key, &j.label)) {
            assert!(keys.contains(&job.0), "{} was keyed elsewhere", job.1);
        }
        for job in plan.gpu.iter().map(|j| (j.key, &j.label)) {
            assert!(keys.contains(&job.0), "{} was keyed elsewhere", job.1);
        }

        let mut space = DesignSpace::fig7();
        space.apps = vec!["radix".to_string(), "lu".to_string()];
        let cfg = ExploreConfig {
            budget: 4,
            seed: 7,
            insts: 2_000,
            ..ExploreConfig::default()
        };
        let search = explore(&space, &cfg).expect("valid search");
        let explored = take_derived();
        assert_eq!(explored.len(), search.evaluated.len() * 2);

        for (streamed, tree) in planned.into_iter().chain(explored) {
            assert_eq!(streamed, tree);
        }
    }

    #[test]
    fn campaign_keys_are_pinned() {
        // Read from the `Value`-tree derivation before keys were
        // streamed: a change here retires every cached entry.
        let suite = Suite::default();
        assert_eq!((suite.seed, suite.insts_per_app), (42, 300_000));
        let cpu = suite.cpu_campaign_jobs();
        let cpu = cpu.iter().find(|j| j.label == "cpu/barnes/BaseCMOSx4");
        let cpu = cpu.expect("a campaign cell").key;
        assert_eq!(cpu.hex(), "f1e8a490a9b014efef49d23665d4771f");
        let gpu = suite.gpu_campaign_jobs();
        let gpu = gpu.iter().find(|j| j.label == "gpu/matmul/BaseCMOS");
        let gpu = gpu.expect("a campaign cell").key;
        assert_eq!(gpu.hex(), "817f4a98f2bba5ddd679d8d4456b52f5");
    }

    fn nominal(design: CpuDesign) -> CpuPoint {
        design.resolve(OperatingPoint::nominal(), None)
    }

    fn key(point: CpuPoint, run: CpuRun, app: &WorkloadProfile, seed: u64, insts: u64) -> JobKey {
        let (point, app) = (Fingerprinted::new(point), Fingerprinted::new(app.clone()));
        cpu_job_key(&point, run, &app, seed, insts)
    }

    #[test]
    fn cpu_keys_cover_every_config_axis() {
        let app = apps::profile("lu").expect("known");
        let chip = CpuRun::Chip { cores: 4 };
        let base = key(nominal(CpuDesign::AdvHet), chip, &app, 42, 300_000);
        let differs = |point: CpuPoint, run, app: &WorkloadProfile, seed, insts, axis: &str| {
            assert_ne!(base, key(point, run, app, seed, insts), "{axis}");
        };
        let advhet = || nominal(CpuDesign::AdvHet);
        differs(
            nominal(CpuDesign::BaseHet),
            chip,
            &app,
            42,
            300_000,
            "design",
        );
        differs(
            advhet(),
            CpuRun::Chip { cores: 8 },
            &app,
            42,
            300_000,
            "cores",
        );
        differs(advhet(), CpuRun::Core, &app, 42, 300_000, "run shape");
        differs(advhet(), chip, &app, 43, 300_000, "seed");
        differs(advhet(), chip, &app, 42, 300_001, "insts");
        let other = apps::profile("fft").expect("known");
        differs(advhet(), chip, &other, 42, 300_000, "app");
        let mut slow_l2 = advhet();
        slow_l2.config.memory.l2_latency += 1;
        differs(slow_l2, chip, &app, 42, 300_000, "core config");
        let op = OperatingPoint {
            hz: 2.5e9,
            ..OperatingPoint::nominal()
        };
        let boosted = CpuDesign::AdvHet.resolve(op, None);
        differs(boosted, chip, &app, 42, 300_000, "clock");
        let mut hot = advhet();
        hot.model = hot
            .model
            .with_voltages(VoltageFactors::from_voltages(0.8, 0.73, 0.5, 0.44));
        differs(hot, chip, &app, 42, 300_000, "energy model");
    }

    #[test]
    fn profile_content_feeds_the_cpu_key() {
        let app = apps::profile("lu").expect("known");
        let mut edited = app.clone();
        edited.parallel_fraction *= 0.5;
        let run = CpuRun::Chip { cores: 4 };
        assert_ne!(
            key(nominal(CpuDesign::AdvHet), run, &app, 42, 300_000),
            key(nominal(CpuDesign::AdvHet), run, &edited, 42, 300_000),
            "editing a profile must invalidate its cache entries"
        );
    }

    /// The CPU campaign's keys, built like `Suite::cpu_campaign_jobs`
    /// from the Table IV points after `edit`, with each key's column.
    fn campaign_keys(edit: impl Fn(&mut CpuPoint)) -> Vec<(JobKey, String)> {
        let suite = Suite::default();
        let points: Vec<_> = CpuDesign::ALL
            .into_iter()
            .map(|design| {
                let mut point = nominal(design);
                edit(&mut point);
                Fingerprinted::new(point)
            })
            .collect();
        let cells: Vec<_> = points
            .iter()
            .map(|p| (p, 4))
            .chain([(&points[4], 8)])
            .collect();
        let mut keys = Vec::new();
        for app in apps::all().into_iter().map(Fingerprinted::new) {
            for &(point, cores) in &cells {
                let run = CpuRun::Chip { cores };
                let key = cpu_job_key(point, run, &app, suite.seed, suite.insts_per_app);
                keys.push((key, format!("{}x{cores}", point.design.name())));
            }
        }
        keys
    }

    /// The columns of the keys that differ between `a` and `b`.
    fn changed_columns(a: &[(JobKey, String)], b: &[(JobKey, String)]) -> Vec<String> {
        a.iter()
            .zip(b)
            .filter(|(x, y)| x.0 != y.0)
            .map(|(x, _)| x.1.clone())
            .collect()
    }

    #[test]
    fn campaign_keys_follow_the_resolved_config() {
        let base = campaign_keys(|_| {});
        let suite: Vec<_> = Suite::default()
            .cpu_campaign_jobs()
            .into_iter()
            .map(|job| job.key)
            .collect();
        assert_eq!(suite.len(), 154);
        assert_eq!(
            base.iter().map(|k| k.0).collect::<Vec<_>>(),
            suite,
            "the campaign keys its jobs from the resolved points"
        );
        let edited = campaign_keys(|p| {
            if p.design == CpuDesign::BaseL3 {
                assert_eq!(p.config.memory.l3_latency, 40);
                p.config.memory.l3_latency = 80;
            }
        });
        assert_eq!(changed_columns(&base, &edited), vec!["BaseL3x4"; 14]);
    }

    #[test]
    fn campaign_keys_follow_the_energy_model() {
        let base = campaign_keys(|_| {});
        let edited = campaign_keys(|p| {
            if p.design == CpuDesign::BaseHet {
                let rails = VoltageFactors::from_voltages(0.8, 0.73, 0.5, 0.44);
                p.model = p.model.clone().with_voltages(rails);
            }
        });
        assert_eq!(changed_columns(&base, &edited), vec!["BaseHetx4"; 14]);
    }

    #[test]
    fn gpu_keys_cover_every_config_axis() {
        let kernel = Fingerprinted::new(hetsim_gpu::kernels::profile("matmul").expect("known"));
        let point = |d: GpuDesign| Fingerprinted::new(d.resolve());
        let plain = GpuRun::Plain;
        let base = gpu_job_key(&point(GpuDesign::AdvHet), plain, &kernel, 42);
        let other = gpu_job_key(&point(GpuDesign::BaseHet), plain, &kernel, 42);
        assert_ne!(base, other, "design");
        let seed = gpu_job_key(&point(GpuDesign::AdvHet), plain, &kernel, 43);
        assert_ne!(base, seed, "seed");
        let scheduled = GpuRun::Scheduled { window: 6 };
        let run = gpu_job_key(&point(GpuDesign::AdvHet), scheduled, &kernel, 42);
        assert_ne!(base, run, "run shape");
        let mut edited = (*kernel).clone();
        edited.mem_miss_rate += 0.01;
        let content = gpu_job_key(
            &point(GpuDesign::AdvHet),
            plain,
            &Fingerprinted::new(edited),
            42,
        );
        assert_ne!(base, content, "kernel content");
    }

    #[test]
    fn gpu_campaign_keys_follow_the_gpu_config() {
        let suite = Suite::default();
        let keys = |rf_latency: u32| {
            let points: Vec<_> = GpuDesign::ALL
                .into_iter()
                .map(|d| {
                    let mut p = d.resolve();
                    if d == GpuDesign::AdvHet {
                        p.config.rf_latency = rf_latency;
                    }
                    Fingerprinted::new(p)
                })
                .collect();
            let mut keys = Vec::new();
            for kernel in hetsim_gpu::kernels::all()
                .into_iter()
                .map(Fingerprinted::new)
            {
                for p in &points {
                    let key = gpu_job_key(p, GpuRun::Plain, &kernel, suite.seed);
                    keys.push((key, p.design.name().to_string()));
                }
            }
            keys
        };
        let base = keys(GpuDesign::AdvHet.gpu_config().rf_latency);
        let campaign: Vec<_> = suite
            .gpu_campaign_jobs()
            .into_iter()
            .map(|j| j.key)
            .collect();
        assert_eq!(base.iter().map(|k| k.0).collect::<Vec<_>>(), campaign);
        assert_eq!(changed_columns(&base, &keys(3)), vec!["AdvHet"; 20]);
    }

    #[test]
    fn cpu_and_gpu_key_spaces_are_disjoint_by_schema() {
        // Not a collision proof, just the schema-tag convention check:
        // the two kinds of key config always differ in their first field.
        assert_ne!(CPU_SCHEMA, GPU_SCHEMA);
    }

    #[test]
    fn jobs_run_the_real_experiment() {
        let app = apps::profile("lu").expect("known");
        let point = Fingerprinted::new(nominal(CpuDesign::BaseCmos));
        let run = CpuRun::Chip { cores: 1 };
        let job = cpu_job(&point, run, &Fingerprinted::new(app.clone()), 3, 5_000);
        let direct = run_cpu_multicore(CpuDesign::BaseCmos, 1, &app, 3, 5_000);
        assert_eq!((job.run)().0, direct);
    }

    #[test]
    fn traced_campaign_wraps_the_scope_in_one_span() {
        assert_eq!(traced_campaign(None, "cpu-campaign", || 7), 7);

        let clock = std::sync::Arc::new(hetsim_obs::ManualClock::new());
        let recorder = TraceRecorder::new(clock.clone());
        let out = traced_campaign(Some(&recorder), "cpu-campaign", || {
            clock.advance(40);
            "done"
        });
        assert_eq!(out, "done");
        let events = recorder.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "cpu-campaign");
        assert_eq!(events[0].cat, "campaign");
        assert_eq!(
            events[0].kind,
            hetsim_obs::EventKind::Span {
                start_us: 0,
                end_us: 40
            }
        );
    }
}
