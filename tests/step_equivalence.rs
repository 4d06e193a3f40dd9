//! Old-vs-new equivalence goldens for the simulator-core rewrite.
//!
//! The event-driven, struct-of-arrays core must be *counter-exact*
//! against the cycle-by-cycle implementation it replaced — not just on
//! headline IPC, but on every `counters!` field of `CoreStats`,
//! `MemStats`, and `GpuStats`. These tests drive the seeded
//! `hetsim_trace::fuzz` workload generators (mixes far outside the 14
//! calibrated applications: div-heavy, branch-heavy, tiny and huge
//! working sets) through the multicore CPU path and the GPU launch path,
//! and compare the full counter sets against goldens recorded from the
//! pre-rewrite implementation.
//!
//! Regenerate (only when intentionally changing simulator *semantics*,
//! or to add a section on the build before a refactor — never to absorb
//! a pure-performance refactor) with:
//!
//! ```sh
//! STEP_EQUIV_BLESS=1 cargo test --release --offline step_equivalence
//! ```

use std::fmt::Write as _;

use hetcore_repro::hetcore::config::{CpuDesign, GpuDesign};
use hetcore_repro::hetsim_cpu::core::RunResult;
use hetcore_repro::hetsim_cpu::multicore::{run_multicore, MulticoreResult};
use hetcore_repro::hetsim_gpu::kernel::KernelProfile;
use hetcore_repro::hetsim_gpu::schedule::schedule_kernel;
use hetcore_repro::hetsim_gpu::{Gpu, GpuRunResult};
use hetcore_repro::hetsim_trace::fuzz;

/// Fuzz seeds pinned into the golden. Each seed runs on a different
/// design (rotating through the menu), so the golden spans CMOS/TFET
/// functional units, the asymmetric DL1, and dual-speed ALU steering.
const SEEDS: [u64; 6] = [1, 2, 3, 5, 8, 13];

/// Instructions per CPU run: enough to fill the ROB many times over,
/// trigger every structural stall, and reach DRAM on big working sets.
const CPU_INSTS: u64 = 24_000;

/// Fuzz seed of the per-design section: one workload run on every CPU
/// design, so each FU pool and steering policy of Table IV is pinned.
const DESIGN_SEED: u64 = 55;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/goldens/step_equivalence.txt"
);

fn bless_requested() -> bool {
    std::env::var("STEP_EQUIV_BLESS").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// The phases of a multicore run, named as the golden names them:
/// `serial` (when the workload has one), then `parallel{t}` per core.
fn phases(result: &MulticoreResult) -> impl Iterator<Item = (String, &RunResult)> {
    let serial = result.serial.iter().map(|r| ("serial".to_string(), r));
    let parallel = result.parallel.iter().enumerate();
    serial.chain(parallel.map(|(t, r)| (format!("parallel{t}"), r)))
}

/// Renders every counter of one CPU phase result as stable text lines.
fn dump_cpu_phase(out: &mut String, prefix: &str, r: &RunResult) {
    for (name, value) in r.stats.iter() {
        writeln!(out, "{prefix} core.{name}={value}").expect("write to string");
    }
    for (name, value) in r.mem.iter() {
        writeln!(out, "{prefix} mem.{name}={value}").expect("write to string");
    }
}

/// The full golden text: CPU multicore runs (serial + parallel phases)
/// and GPU launches over the fuzzed workloads. Each GPU seed then adds
/// three launches with per-CU cycle classes: the design's plain launch,
/// a partitioned-RF launch, and a launch scheduled with a 4-instruction
/// lookahead window. The next section runs one workload on every CPU
/// design (plus AdvHet on 8 cores) with each phase's cycle classes. The
/// last repeats every GPU launch with each CU's skip counts and
/// residency histogram.
fn render_current() -> String {
    let mut out = String::new();
    for (i, &seed) in SEEDS.iter().enumerate() {
        let design = CpuDesign::ALL[i % CpuDesign::ALL.len()];
        let profile = fuzz::workload(seed);
        let result = run_multicore(&design.core_config(), 2, &profile, seed, CPU_INSTS);
        for (phase, r) in phases(&result) {
            let prefix = format!("cpu seed={seed} design={} phase={phase}", design.name());
            dump_cpu_phase(&mut out, &prefix, r);
        }
    }
    let mut launches = Vec::new();
    for (i, &seed) in SEEDS.iter().enumerate() {
        let design = GpuDesign::ALL[i % GpuDesign::ALL.len()];
        let mix = fuzz::kernel_mix(seed);
        let kernel = KernelProfile {
            name: "step-equivalence",
            insts_per_wavefront: mix.insts_per_wavefront,
            wavefronts: mix.wavefronts,
            valu_frac: mix.valu_frac,
            mem_frac: mix.mem_frac,
            lds_frac: mix.lds_frac,
            dep_prob: mix.dep_prob,
            reg_reuse: mix.reg_reuse,
            mem_miss_rate: mix.mem_miss_rate,
        };
        let result = Gpu::new(design.gpu_config()).run(&kernel, seed);
        for (name, value) in result.stats.iter() {
            writeln!(
                out,
                "gpu seed={seed} design={} {name}={value}",
                design.name()
            )
            .expect("write to string");
        }
        launches.push((seed, design, "run", result));
        let partitioned = GpuDesign::AdvHetPartitionedRf;
        let result = Gpu::new(partitioned.gpu_config()).run(&kernel, seed);
        launches.push((seed, partitioned, "run", result));
        let scheduled = schedule_kernel(&kernel.generate(seed), 4);
        let result = Gpu::new(design.gpu_config()).run_insts(&kernel, &scheduled.insts, seed);
        launches.push((seed, design, "scheduled4", result));
    }
    for (seed, design, launch, result) in &launches {
        dump_gpu_launch(&mut out, *seed, *design, launch, result);
    }
    let profile = fuzz::workload(DESIGN_SEED);
    let runs = CpuDesign::ALL
        .iter()
        .map(|&d| (d, 2))
        .chain([(CpuDesign::AdvHet, 8)]);
    for (design, cores) in runs {
        let result = run_multicore(
            &design.core_config(),
            cores,
            &profile,
            DESIGN_SEED,
            CPU_INSTS,
        );
        for (phase, r) in phases(&result) {
            let prefix = format!(
                "cpu-design seed={DESIGN_SEED} design={} cores={cores} phase={phase}",
                design.name()
            );
            dump_cpu_phase(&mut out, &prefix, r);
            writeln!(out, "{prefix} profile.cycles={}", r.profile.cycles).expect("write to string");
            for (class, cycles) in r.profile.classes.iter() {
                writeln!(out, "{prefix} class.{}={cycles}", class.name()).expect("write to string");
            }
        }
    }
    for (seed, design, launch, result) in &launches {
        dump_cu_step(&mut out, *seed, *design, launch, result);
    }
    out
}

/// Renders one GPU launch's counters and every CU's top-down cycle
/// classes as stable text lines.
fn dump_gpu_launch(out: &mut String, seed: u64, design: GpuDesign, launch: &str, r: &GpuRunResult) {
    let prefix = format!(
        "gpu-launch seed={seed} design={} launch={launch}",
        design.name()
    );
    for (name, value) in r.stats.iter() {
        writeln!(out, "{prefix} {name}={value}").expect("write to string");
    }
    for (cu, p) in r.profiles.iter().enumerate() {
        writeln!(out, "{prefix} cu={cu} cycles={}", p.cycles).expect("write to string");
        for (class, cycles) in p.classes.iter() {
            writeln!(out, "{prefix} cu={cu} class.{}={cycles}", class.name())
                .expect("write to string");
        }
    }
}

/// Renders what one GPU launch's issue step saw on every CU beyond its
/// cycle classes: the next-event skip counts and the wave-residency
/// histogram (count, sum, max and every bucket).
fn dump_cu_step(out: &mut String, seed: u64, design: GpuDesign, launch: &str, r: &GpuRunResult) {
    let prefix = format!(
        "gpu-cu-step seed={seed} design={} launch={launch}",
        design.name()
    );
    for (cu, p) in r.profiles.iter().enumerate() {
        let h = &p.residency;
        let buckets: Vec<String> = h.bucket_counts().iter().map(u64::to_string).collect();
        for (name, value) in [
            ("skipped_cycles", p.skipped_cycles.to_string()),
            ("wakeup_jumps", p.wakeup_jumps.to_string()),
            ("residency.count", h.count().to_string()),
            ("residency.sum", h.sum().to_string()),
            ("residency.max", h.max().to_string()),
            ("residency.buckets", buckets.join(",")),
        ] {
            writeln!(out, "{prefix} cu={cu} {name}={value}").expect("write to string");
        }
    }
}

#[test]
fn fuzzed_workload_counters_match_pre_rewrite_goldens() {
    let current = render_current();
    if bless_requested() {
        std::fs::write(GOLDEN, &current).expect("write golden");
        eprintln!("blessed {} lines into {GOLDEN}", current.lines().count());
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("golden missing: run once with STEP_EQUIV_BLESS=1 on the reference build");
    if golden == current {
        return;
    }
    // Report the first few diverging lines, not a 2000-line dump.
    let mut diffs = golden
        .lines()
        .zip(current.lines())
        .filter(|(g, c)| g != c)
        .take(10)
        .map(|(g, c)| format!("  golden:  {g}\n  current: {c}"))
        .collect::<Vec<_>>();
    if golden.lines().count() != current.lines().count() {
        diffs.push(format!(
            "  line count: golden {} vs current {}",
            golden.lines().count(),
            current.lines().count()
        ));
    }
    panic!(
        "simulator counters diverged from the pre-rewrite goldens ({} first diffs):\n{}",
        diffs.len(),
        diffs.join("\n")
    );
}

/// The golden must cover both phases of the Amdahl model, both
/// simulators, the per-CU GPU launch section (partitioned-RF and
/// scheduled launches included), the per-design CPU section and the
/// per-CU issue-step section — guards against a generator change
/// silently emptying it.
#[test]
fn golden_spans_every_section() {
    // While blessing, check what is being written: the file on disk may
    // still be the previous golden, which lacks a newly added section.
    let golden = if bless_requested() {
        render_current()
    } else {
        std::fs::read_to_string(GOLDEN).expect("golden present")
    };
    for needle in [
        "phase=serial",
        "phase=parallel0",
        "phase=parallel1",
        "gpu seed=",
        "gpu-launch seed=",
        "design=AdvHet-PartRF launch=run cu=0 class.retire=",
        "launch=scheduled4 cu=0 cycles=",
        "cpu-design seed=55 design=AdvHet cores=8 phase=parallel7 class.issue-bound=",
        "gpu-cu-step seed=13 design=AdvHet-PartRF launch=run cu=0 residency.buckets=",
        "launch=scheduled4 cu=0 skipped_cycles=",
    ] {
        assert!(
            golden.contains(needle),
            "golden lost its `{needle}` section"
        );
    }
}
