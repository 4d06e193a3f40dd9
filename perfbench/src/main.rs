//! One measured process of the HetCore benchmark.
//!
//! `perfbench/run.py` times each pass from outside as a fresh process, so
//! every pass starts from what a user's `repro` invocation starts from: an
//! empty trace memo and an empty runner in-memory cache. This binary does
//! the work of one pass through the simulator's public API and prints one
//! JSON object on stdout: the output digests `run.py` checks, the work
//! done, and (for traced passes) the per-layer totals.
//!
//! ```text
//! perfbench pass     --workload W --seed S [--gpu-seeds S1,S2,...] --dir CACHE
//! perfbench traced   --workload W --seed S [--gpu-seeds S1,S2,...] --dir CACHE
//! perfbench setup    --workload W --seed S [--gpu-seeds S1,S2,...] --dir CACHE
//! perfbench populate --seed S --dir CACHE
//! perfbench membench --seed S
//! ```
//!
//! Workloads: `cpu-figs` (cold CPU campaign, Figs 7/8/9/13), `gpu-figs`
//! (cold GPU campaign per `--gpu-seeds` entry, Figs 10/11/12) and
//! `warm-rerender` (`repro all` against a cache `populate` filled).

mod traced;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

use hetcore::suite::{CpuCampaign, GpuCampaign, Suite};
use hetcore::{CpuDesign, CpuOutcome, GpuDesign, GpuOutcome, Report};
use hetsim_runner::Runner;
use serde::value::Value;
use serde::Serialize;

/// Campaign workers: `repro --jobs 2`, the bench host's core count.
const WORKERS: usize = 2;

/// What one process runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// An untraced workload pass.
    Pass,
    /// The same pass with a timer around every layer call.
    Traced,
    /// An untraced pass that stops where its first campaign batch would
    /// start: one more set-up sample, milliseconds long.
    Setup,
    /// Fills a cache directory the way a cold `repro all` does.
    Populate,
    /// Replays two workloads' address streams straight into the memory
    /// hierarchy.
    Membench,
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    CpuFigs,
    GpuFigs,
    WarmRerender,
}

impl Workload {
    fn from_name(name: &str) -> Option<Workload> {
        match name {
            "cpu-figs" => Some(Workload::CpuFigs),
            "gpu-figs" => Some(Workload::GpuFigs),
            "warm-rerender" => Some(Workload::WarmRerender),
            _ => None,
        }
    }
}

/// Checked command-line arguments.
#[derive(Debug)]
struct Args {
    mode: Mode,
    workload: Workload,
    seed: u64,
    gpu_seeds: Vec<u64>,
    dir: PathBuf,
}

const USAGE: &str =
    "usage: perfbench pass|traced|setup --workload cpu-figs|gpu-figs|warm-rerender \
     --seed S [--gpu-seeds S1,S2,...] --dir CACHE\n       \
     perfbench populate --seed S --dir CACHE\n       perfbench membench --seed S";

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mode = match argv.next().as_deref() {
            Some("pass") => Mode::Pass,
            Some("traced") => Mode::Traced,
            Some("setup") => Mode::Setup,
            Some("populate") => Mode::Populate,
            Some("membench") => Mode::Membench,
            other => return Err(format!("unknown mode {other:?}")),
        };
        let (mut workload, mut seed, mut gpu_seeds, mut dir) = (None, None, Vec::new(), None);
        while let Some(flag) = argv.next() {
            let value = argv
                .next()
                .ok_or_else(|| format!("{flag} expects a value"))?;
            let int = |v: &str| {
                v.parse::<u64>()
                    .map_err(|_| format!("{flag} expects an integer, got '{v}'"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::from_name(&value)
                            .ok_or_else(|| format!("unknown workload '{value}'"))?,
                    )
                }
                "--seed" => seed = Some(int(&value)?),
                "--gpu-seeds" => {
                    gpu_seeds = value.split(',').map(int).collect::<Result<_, _>>()?;
                }
                "--dir" => dir = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag '{flag}'")),
            }
        }
        let workload = match mode {
            Mode::Pass | Mode::Traced | Mode::Setup => workload.ok_or("--workload is required")?,
            // `populate` fills the cache that `warm-rerender` reads.
            Mode::Populate | Mode::Membench => Workload::WarmRerender,
        };
        if workload == Workload::GpuFigs && gpu_seeds.is_empty() {
            return Err("gpu-figs needs --gpu-seeds".into());
        }
        let dir = match mode {
            Mode::Membench => PathBuf::new(),
            _ => dir.ok_or("--dir is required")?,
        };
        Ok(Args {
            mode,
            workload,
            seed: seed.ok_or("--seed is required")?,
            gpu_seeds,
            dir,
        })
    }
}

/// The suite at the `repro` default budget (300K insts per application)
/// with campaign seed `seed`.
fn suite_at(seed: u64) -> Suite {
    Suite {
        seed,
        ..Suite::default()
    }
}

/// What a pass reports for `run.py` to check and time.
#[derive(Debug, Default)]
struct PassRecord {
    /// Wall-clock time when the first campaign batch was submitted; the
    /// end of set-up.
    first_job_unix_s: f64,
    /// Entries in the cache directory when the process started (a cold
    /// pass must see 0).
    cache_entries_at_start: u64,
    /// Campaign jobs simulated (a warm pass must execute 0).
    jobs_executed: u64,
    /// Campaign results loaded from the on-disk cache.
    disk_reads: u64,
    /// One digest per campaign job, in submission order.
    job_digests: Vec<String>,
    /// One digest per rendered report batch.
    report_digests: Vec<String>,
    /// Simulated instructions: committed CPU instructions, or wavefront
    /// instructions for the GPU campaign.
    sim_insts: u64,
}

impl PassRecord {
    fn starting_in(dir: &Path) -> Result<PassRecord, String> {
        Ok(PassRecord {
            cache_entries_at_start: count_entries(dir)?,
            ..PassRecord::default()
        })
    }

    fn start_timing(&mut self) {
        self.first_job_unix_s = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .expect("system clock is after the epoch")
            .as_secs_f64();
    }

    fn add_jobs<T: Serialize>(&mut self, outcomes: &[Vec<T>]) {
        self.job_digests
            .extend(outcomes.iter().flatten().map(|o| digest(&json(o))));
    }

    fn add_cpu(&mut self, campaign: &CpuCampaign) {
        self.add_jobs(&campaign.outcomes);
        self.sim_insts += campaign
            .outcomes
            .iter()
            .flatten()
            .map(|o| o.committed)
            .sum::<u64>();
    }

    fn add_gpu(&mut self, campaign: &GpuCampaign) {
        self.add_jobs(&campaign.outcomes);
        self.sim_insts += campaign
            .outcomes
            .iter()
            .flatten()
            .map(|o| o.stats.wavefront_insts)
            .sum::<u64>();
    }

    fn add_runner<T>(&mut self, runner: &Runner<T>)
    where
        T: Clone + Send + Serialize + serde::Deserialize + hetsim_runner::SimMetrics,
    {
        let stats = runner.total_stats();
        self.jobs_executed += stats.executed;
        self.disk_reads += stats.cache.disk_hits;
    }

    fn into_value(self, extra: Vec<(String, Value)>) -> Value {
        let strings = |v: Vec<String>| Value::Array(v.into_iter().map(Value::Str).collect());
        let mut entries = vec![
            (
                "first_job_unix_s".to_string(),
                Value::Float(self.first_job_unix_s),
            ),
            (
                "cache_entries_at_start".to_string(),
                Value::UInt(self.cache_entries_at_start),
            ),
            ("jobs_executed".to_string(), Value::UInt(self.jobs_executed)),
            ("disk_reads".to_string(), Value::UInt(self.disk_reads)),
            ("sim_insts".to_string(), Value::UInt(self.sim_insts)),
            ("job_digests".to_string(), strings(self.job_digests)),
            ("report_digests".to_string(), strings(self.report_digests)),
        ];
        entries.extend(extra);
        Value::Object(entries)
    }
}

fn count_entries(dir: &Path) -> Result<u64, String> {
    match std::fs::read_dir(dir) {
        Ok(entries) => Ok(entries.count() as u64),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
        Err(e) => Err(format!("cannot list {}: {e}", dir.display())),
    }
}

/// FNV-1a over `text`, as 16 hex digits: enough to notice any drift in a
/// deterministic simulator's output.
fn digest(text: &str) -> String {
    let hash = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    format!("{hash:016x}")
}

fn json<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("outcomes serialize")
}

fn open_runner<T>(dir: &Path) -> Result<Runner<T>, String>
where
    T: Clone + Send + Serialize + serde::Deserialize + hetsim_runner::SimMetrics,
{
    Runner::new(WORKERS)
        .with_cache_dir(dir)
        .map_err(|e| format!("cannot open cache directory {}: {e}", dir.display()))
}

/// Groups campaign results (submission order) by application, as
/// `Suite::cpu_campaign_with` does.
fn cpu_campaign(results: Vec<CpuOutcome>) -> CpuCampaign {
    let apps = hetsim_trace::apps::all();
    let mut results = results.into_iter();
    CpuCampaign {
        outcomes: apps
            .iter()
            .map(|_| results.by_ref().take(CpuDesign::ALL.len() + 1).collect())
            .collect(),
        app_names: apps.iter().map(|a| a.name).collect(),
    }
}

/// Groups campaign results (submission order) by kernel, as
/// `Suite::gpu_campaign_with` does.
fn gpu_campaign(results: Vec<GpuOutcome>) -> GpuCampaign {
    let kernels = hetsim_gpu::kernels::all();
    let mut results = results.into_iter();
    GpuCampaign {
        outcomes: kernels
            .iter()
            .map(|_| results.by_ref().take(GpuDesign::ALL.len()).collect())
            .collect(),
        kernel_names: kernels.iter().map(|k| k.name).collect(),
    }
}

/// The CPU campaign's figures, as `repro fig7 fig8 fig9 fig13` lists them.
fn cpu_reports(suite: &Suite, cpu: &CpuCampaign) -> Vec<Report> {
    vec![
        suite.fig7(cpu),
        suite.fig8(cpu),
        suite.fig8_breakdown(cpu),
        suite.fig9(cpu),
        suite.fig13(cpu),
    ]
}

/// The GPU campaign's figures, as `repro fig10 fig11 fig12` lists them.
fn gpu_reports(suite: &Suite, gpu: &GpuCampaign) -> Vec<Report> {
    vec![suite.fig10(gpu), suite.fig11(gpu), suite.fig12(gpu)]
}

/// Every report of `repro all`, in its order; `fig14` is passed in so a
/// traced pass can supply its instrumented copy.
fn all_reports(suite: &Suite, cpu: &CpuCampaign, gpu: &GpuCampaign, fig14: Report) -> Vec<Report> {
    let mut reports = vec![suite.table1(), suite.fig1(), suite.fig2(), suite.fig3()];
    let cpu_figs = cpu_reports(suite, cpu);
    let (before_fig10, fig13) = cpu_figs.split_at(4);
    reports.extend_from_slice(before_fig10);
    reports.extend(gpu_reports(suite, gpu));
    reports.extend_from_slice(fig13);
    reports.push(fig14);
    reports
}

/// Renders reports as `repro` prints them in its default table format.
fn render(reports: &[Report]) -> String {
    reports.iter().map(|r| format!("{r}\n")).collect()
}

/// Committed instructions of `Suite::fig14`: 4 operating points x 2
/// designs x 6 applications x a quarter of the per-app budget. A traced
/// pass measures the same count.
fn fig14_committed(suite: &Suite) -> u64 {
    4 * 2 * 6 * (suite.insts_per_app / 4)
}

/// One untraced pass: exactly the public calls `repro` makes. A `setup`
/// process returns where the first campaign batch would start.
fn pass(args: &Args) -> Result<Value, String> {
    let mut rec = PassRecord::starting_in(&args.dir)?;
    let suite = suite_at(args.seed);
    match args.workload {
        Workload::CpuFigs => {
            let runner = open_runner(&args.dir)?;
            let jobs = suite.cpu_campaign_jobs();
            rec.start_timing();
            if args.mode == Mode::Setup {
                return Ok(rec.into_value(Vec::new()));
            }
            let cpu = cpu_campaign(runner.run(jobs));
            rec.report_digests
                .push(digest(&render(&cpu_reports(&suite, &cpu))));
            rec.add_runner(&runner);
            rec.add_cpu(&cpu);
        }
        Workload::GpuFigs => {
            let batches: Vec<_> = args
                .gpu_seeds
                .iter()
                .map(|&seed| (suite_at(seed), suite_at(seed).gpu_campaign_jobs()))
                .collect();
            rec.start_timing();
            if args.mode == Mode::Setup {
                return Ok(rec.into_value(Vec::new()));
            }
            for (suite, jobs) in batches {
                // One runner per seed, as one `repro` invocation per seed.
                let runner = open_runner(&args.dir)?;
                let gpu = gpu_campaign(runner.run(jobs));
                rec.report_digests
                    .push(digest(&render(&gpu_reports(&suite, &gpu))));
                rec.add_runner(&runner);
                rec.add_gpu(&gpu);
            }
        }
        Workload::WarmRerender => {
            let cpu_runner = open_runner(&args.dir)?;
            let gpu_runner = open_runner(&args.dir)?;
            let (cpu_jobs, gpu_jobs) = (suite.cpu_campaign_jobs(), suite.gpu_campaign_jobs());
            rec.start_timing();
            if args.mode == Mode::Setup {
                return Ok(rec.into_value(Vec::new()));
            }
            let cpu = cpu_campaign(cpu_runner.run(cpu_jobs));
            let gpu = gpu_campaign(gpu_runner.run(gpu_jobs));
            rec.report_digests.push(digest(&render(&all_reports(
                &suite,
                &cpu,
                &gpu,
                suite.fig14(),
            ))));
            rec.add_runner(&cpu_runner);
            rec.add_runner(&gpu_runner);
            rec.add_jobs(&cpu.outcomes);
            rec.add_jobs(&gpu.outcomes);
            rec.sim_insts = fig14_committed(&suite);
        }
    }
    Ok(rec.into_value(Vec::new()))
}

/// Fills `--dir` the way a cold `repro all --cache-dir` does: both
/// campaigns, one runner each, sharing the directory.
fn populate(args: &Args) -> Result<Value, String> {
    let suite = suite_at(args.seed);
    suite.cpu_campaign_with(&open_runner(&args.dir)?);
    suite.gpu_campaign_with(&open_runner(&args.dir)?);
    Ok(Value::Object(vec![(
        "entries".to_string(),
        Value::UInt(count_entries(&args.dir)?),
    )]))
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.mode {
        Mode::Pass | Mode::Setup => pass(&args),
        Mode::Traced => traced::pass(&args),
        Mode::Populate => populate(&args),
        Mode::Membench => Ok(traced::membench(args.seed)),
    };
    match result {
        Ok(value) => {
            println!("{}", json(&value));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
