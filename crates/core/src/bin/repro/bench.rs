//! `repro bench` — measure the pinned scenario menu and write/compare
//! `BENCH_*.json` perf dumps (see `hetcore::bench` and `hetsim_bench`).
//! Without `--compare`, runs fresh and prints the per-scenario table
//! (or the dump itself with `--format json`). `--compare BASE.json`
//! runs fresh and diffs against the baseline; with a positional
//! `CANDIDATE.json` it diffs the two files without running anything.
//! Exits non-zero when any scenario regressed past the noise-aware
//! tolerance; `--ratchet` applies the wide cross-machine CI tolerance.
//! `--trend` prints the trajectory across the checked-in dumps.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use hetcore::bench::{run_bench, BenchConfig};
use hetsim_bench::{compare, BenchDump, ComparePolicy};
use hetsim_runner::narrate;
use hetsim_stats::diff::{align, Side};
use serde::value::Value;

use crate::args::{
    Args, COMPARE, INSTS, OUT, QUICK, RATCHET, REL_TOL, REPEATS, SEED, TREND, WARMUP,
};
use crate::exec::{self, pretty, verdict};
use crate::CliError;

pub fn run(mut args: Args) -> Result<ExitCode, CliError> {
    let mut positionals = std::mem::take(&mut args.positionals).into_iter();
    let candidate = positionals.next().map(PathBuf::from);
    for extra in positionals {
        args.error(format!("unexpected argument '{extra}'"));
    }
    if candidate.is_some() {
        if !args.has(&COMPARE) {
            args.error("a positional CANDIDATE.json requires --compare BASELINE.json");
        }
        args.reject_measuring("comparing two existing dumps runs nothing", &[]);
    }
    if args.has(&RATCHET) && args.has(&REL_TOL) {
        args.error("--ratchet pins the CI tolerance; it cannot be combined with --rel-tol");
    }
    if args.has(&TREND) {
        args.reject_measuring(
            "--trend reads the existing BENCH_*.json dumps and runs nothing",
            &[&COMPARE, &REL_TOL, &RATCHET],
        );
    }
    args.valid()?;
    if args.has(&TREND) {
        return trend(args.format());
    }

    let mut policy = match args.has(&RATCHET) {
        true => ComparePolicy::CI_RATCHET,
        false => ComparePolicy::default(),
    };
    if let Some(t) = args.num(&REL_TOL) {
        policy.rel_tol = t;
    }

    // Pure file diff: both dumps already exist.
    if let (Some(base_path), Some(cand_path)) = (args.path(&COMPARE), &candidate) {
        let base = load_bench_dump(&base_path)?;
        let cand = load_bench_dump(cand_path)?;
        return Ok(compare_dumps(&base, &cand, &policy)?);
    }

    // Measure fresh. An explicit budget wins over --quick wherever it
    // appears.
    let base = match args.has(&QUICK) {
        true => BenchConfig::quick(),
        false => BenchConfig::default(),
    };
    let cfg = BenchConfig {
        insts: args.num(&INSTS).unwrap_or(base.insts),
        seed: args.num(&SEED).unwrap_or(base.seed),
        warmup: args.num(&WARMUP).unwrap_or(base.warmup),
        repeats: args.num(&REPEATS).unwrap_or(base.repeats),
        jobs: args.jobs(),
        ..base
    };
    // A dump that cannot be written fails the run before it measures.
    let out = args.path(&OUT);
    if let Some(path) = &out {
        exec::writable(path)?;
    }
    let dump = run_bench(&cfg);

    if let Some(path) = out {
        exec::write(&path, &dump.to_json())?;
        narrate(&format!("wrote bench dump to {}", path.display()));
    }
    if let Some(base_path) = args.path(&COMPARE) {
        let base = load_bench_dump(&base_path)?;
        return Ok(compare_dumps(&base, &dump, &policy)?);
    }
    exec::print(&match args.format() {
        "json" => dump.to_json(),
        _ => bench_table(&dump),
    })?;
    Ok(ExitCode::SUCCESS)
}

pub fn load_bench_dump(path: &Path) -> Result<BenchDump, String> {
    BenchDump::from_json(&exec::read(path)?).map_err(|e| format!("{}: {e}", path.display()))
}

/// Diffs two dumps under `policy` and prints the verdict. Two dumps are
/// ratchet-comparable only when they measured the same pinned work:
/// same profile, same budget, same seed. Host differences are fine
/// (that is what the tolerances absorb); workload differences make the
/// insts/sec ratio meaningless.
fn compare_dumps(
    base: &BenchDump,
    cand: &BenchDump,
    policy: &ComparePolicy,
) -> Result<ExitCode, String> {
    if base.quick != cand.quick || base.insts != cand.insts || base.seed != cand.seed {
        return Err(format!(
            "dumps measured different work (baseline: insts {} seed {} quick {}; \
             candidate: insts {} seed {} quick {}) — rerun with matching \
             --insts/--seed/--quick",
            base.insts, base.seed, base.quick, cand.insts, cand.seed, cand.quick
        ));
    }
    let report = compare(base, cand, policy);
    exec::print(&report.render())?;
    Ok(verdict(report.passed()))
}

/// Renders a fresh bench run as a short stdout table (stderr already
/// narrated the per-scenario progress).
fn bench_table(dump: &BenchDump) -> String {
    let mut out = format!(
        "bench: {} scenario(s), --insts {}, seed {}, {} warmup + {} repeat(s){}\n",
        dump.scenarios.len(),
        dump.insts,
        dump.seed,
        dump.warmup,
        dump.repeats,
        if dump.quick { " (quick)" } else { "" }
    );
    out += &format!(
        "{:<22} {:>12} {:>12} {:>14}  spread\n",
        "scenario", "insts", "median_us", "insts/sec"
    );
    for s in &dump.scenarios {
        out += &format!(
            "{:<22} {:>12} {:>12} {:>14.0}  {:.3}{}\n",
            s.name,
            s.insts,
            s.wall_us,
            s.insts_per_sec,
            s.timing.rel_spread,
            if s.timing.noisy { " (noisy)" } else { "" }
        );
    }
    out
}

/// `repro bench --trend` — the perf trajectory across every pinned
/// `BENCH_*.json` dump in the current directory, ordered by the
/// numeric suffix (the order they were recorded in). One row per
/// scenario, one column per dump, insts/sec throughout, and a final
/// latest/first ratio column.
fn trend(format: &str) -> Result<ExitCode, CliError> {
    let entries =
        std::fs::read_dir(".").map_err(|e| format!("cannot read the current directory: {e}"))?;
    let mut files: Vec<(u64, String)> = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let number = name
            .strip_prefix("BENCH_")
            .and_then(|s| s.strip_suffix(".json"));
        if let Some(n) = number.and_then(|s| s.parse().ok()) {
            files.push((n, name));
        }
    }
    files.sort();
    if files.is_empty() {
        return Err("no BENCH_*.json dumps in the current directory"
            .to_string()
            .into());
    }
    let dumps: Vec<(String, BenchDump)> = files
        .into_iter()
        .map(|(_, name)| Ok((name.clone(), load_bench_dump(Path::new(&name))?)))
        .collect::<Result<_, String>>()?;
    // Dumps pin the same workload across the sequence; if one diverged
    // (a budget change), the ratios still render but mean less.
    let uniform = dumps
        .windows(2)
        .all(|w| w[0].1.insts == w[1].1.insts && w[0].1.seed == w[1].1.seed);
    if !uniform {
        narrate(
            "warning: dumps measured different work (--insts/--seed differ); \
             ratios are indicative only",
        );
    }
    if format == "json" {
        let dump_value = |(file, d): &(String, BenchDump)| {
            let rates = d
                .scenarios
                .iter()
                .map(|s| (s.name.clone(), Value::Float(s.insts_per_sec)));
            Value::Object(vec![
                ("file".into(), Value::Str(file.clone())),
                ("insts".into(), Value::UInt(d.insts)),
                ("seed".into(), Value::UInt(d.seed)),
                ("scenarios".into(), Value::Object(rates.collect())),
            ])
        };
        let doc = Value::Object(vec![
            ("schema".into(), Value::Str("hetsim-bench-trend-v1".into())),
            (
                "dumps".into(),
                Value::Array(dumps.iter().map(dump_value).collect()),
            ),
        ]);
        exec::print(&(pretty(&doc) + "\n"))?;
        return Ok(ExitCode::SUCCESS);
    }

    // One row per scenario with one cell per dump, joined by folding
    // `align` over the sequence: rows keep the order in which their
    // scenarios first appear.
    let mut rows: Vec<(String, Vec<Option<f64>>)> = Vec::new();
    for (seen, (_, dump)) in dumps.iter().enumerate() {
        let column = dump.scenarios.iter();
        let column = column.map(|s| (s.name.clone(), vec![Some(s.insts_per_sec)]));
        let joined = align(std::mem::take(&mut rows), column).into_iter();
        rows = joined
            .map(|(name, side)| match side {
                Side::Both(cells, rate) => (name, [cells, rate].concat()),
                Side::Baseline(cells) => (name, [cells, vec![None]].concat()),
                Side::Candidate(rate) => (name, [vec![None; seen], rate].concat()),
            })
            .collect();
    }

    let mut out = format!(
        "bench trend: {} pinned dump(s) ({} .. {}), insts/sec\n",
        dumps.len(),
        dumps.first().expect("nonempty").0,
        dumps.last().expect("nonempty").0
    );
    out += &format!("{:<22}", "scenario");
    for (file, _) in &dumps {
        out += &format!(" {file:>14}");
    }
    out += &format!(" {:>14}\n", "latest/first");
    for (name, cells) in &rows {
        out += &format!("{name:<22}");
        for cell in cells {
            out += &match cell {
                Some(r) => format!(" {r:>14.0}"),
                None => format!(" {:>14}", "-"),
            };
        }
        let rates: Vec<f64> = cells.iter().flatten().copied().collect();
        out += &match (rates.first(), rates.last()) {
            (Some(&f), Some(&l)) if f > 0.0 => format!(" {:>13.2}x\n", l / f),
            _ => format!(" {:>14}\n", "-"),
        };
    }
    exec::print(&out)?;
    Ok(ExitCode::SUCCESS)
}
