//! `repro ci-gate --baseline DIR` — replay every baseline in a
//! directory at its recorded configuration and diff the fresh run
//! against it (the CI job).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use hetcore::explore::{explore, DesignSpace, ExploreConfig};
use hetcore::regression::{diff_dumps, DiffPolicy, DiffReport, DumpDoc};
use hetcore::suite::Suite;
use hetsim_runner::narrate;

use crate::args::{Args, Progress, BASELINE, CACHE_DIR};
use crate::bench::load_bench_dump;
use crate::exec::{self, execute, resolve_target, verdict};
use crate::CliError;

pub fn run(mut args: Args) -> Result<ExitCode, CliError> {
    args.valid()?;
    let dir = args.path(&BASELINE).expect("required");
    let jobs = args.jobs();
    let cache_dir = args.path(&CACHE_DIR);
    let policy = crate::diff::policy(&args);

    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("cannot read baseline directory {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!(
            "no *.json baselines in {} (generate them with `repro baseline {}`)",
            dir.display(),
            dir.display()
        )
        .into());
    }

    let mut failed = false;
    for file in &files {
        let name = file.file_stem().map_or_else(
            || file.display().to_string(),
            |s| s.to_string_lossy().into_owned(),
        );
        let base_doc = match DumpDoc::load(file) {
            Ok(d) => d,
            // The bench ratchet lives in the same directory but is
            // gated by `repro bench --ratchet`, not by replay.
            Err(_) if load_bench_dump(file).is_ok() => {
                narrate(&format!(
                    "[ci-gate] {name}: bench dump, skipped (gated by `repro bench`)"
                ));
                continue;
            }
            Err(e) => {
                narrate(&format!("error: {e}"));
                failed = true;
                continue;
            }
        };
        // Frontier dumps carry their own schema tag and replay through
        // the exploration engine instead of the campaign path.
        let replayed = if base_doc.tags.iter().any(|(p, _)| p == "schema.explore") {
            replay_frontier(&name, &base_doc, jobs, &cache_dir, &policy)
                .map_err(|e| format!("{}: {e}", file.display()))
        } else {
            replay_campaign(
                &name,
                file,
                &base_doc,
                jobs,
                &cache_dir,
                args.progress(),
                &policy,
            )
        };
        match replayed {
            Ok(report) => {
                exec::print(&format!("[{name}] {}", report.to_table()))?;
                failed |= !report.is_clean();
            }
            Err(e) => {
                narrate(&format!("error: {e}"));
                failed = true;
            }
        }
    }
    Ok(verdict(!failed))
}

/// Replays the experiments a campaign baseline's `run` section records
/// and diffs the fresh dump against it under `policy`.
fn replay_campaign(
    name: &str,
    file: &Path,
    base_doc: &DumpDoc,
    jobs: usize,
    cache_dir: &Option<PathBuf>,
    progress: Progress,
    policy: &DiffPolicy,
) -> Result<DiffReport, String> {
    let Some(run) = &base_doc.run else {
        return Err(format!(
            "{} has no `run` section; regenerate it with `repro baseline`",
            file.display()
        ));
    };
    let mut requested = Vec::new();
    let mut extensions = Vec::new();
    for word in &run.experiments {
        let (r, x) = resolve_target(word).map_err(|e| format!("{}: {e}", file.display()))?;
        requested.extend(r);
        extensions.extend(x);
    }
    let suite = Suite {
        insts_per_app: run.insts,
        seed: run.seed,
    };
    narrate(&format!(
        "[ci-gate] {name}: replaying {} at --insts {}",
        run.experiments.join(" "),
        run.insts
    ));
    let execution = execute(
        &suite,
        &requested,
        &extensions,
        jobs,
        cache_dir.as_deref(),
        progress,
        None,
    )?;
    let cand_doc = DumpDoc::parse(&execution.dump.to_json())
        .map_err(|e| format!("fresh run produced an unparsable dump: {e}"))?;
    Ok(diff_dumps(base_doc, &cand_doc, policy))
}

/// Replays the exploration a frontier baseline records (its `explore`
/// section names the space, budget, seed and insts) and diffs the fresh
/// dump against it under `policy`. The replay always runs the built-in
/// space — a baseline recorded under `--sweep` overrides diffs against
/// different `explore.axes.*` tags, which is exactly the "regenerate
/// the baseline" signal the gate exists to raise.
fn replay_frontier(
    name: &str,
    base_doc: &DumpDoc,
    jobs: usize,
    cache_dir: &Option<PathBuf>,
    policy: &DiffPolicy,
) -> Result<DiffReport, String> {
    match base_doc
        .tags
        .iter()
        .find(|(path, _)| path == "explore.space")
    {
        Some((_, space)) if space == "fig7" => {}
        Some((_, space)) => return Err(format!("unknown design space '{space}'")),
        None => return Err("frontier dump has no `explore.space`; regenerate it".into()),
    }
    let field = |name: &str| {
        let path = format!("explore.{name}");
        let found = base_doc.counters.iter().find(|(p, _)| *p == path);
        found
            .map(|(_, n)| *n)
            .ok_or_else(|| format!("`explore` section has no integer `{name}`"))
    };
    let cfg = ExploreConfig {
        budget: field("budget")? as usize,
        seed: field("seed")?,
        insts: field("insts")?,
        jobs,
        cache_dir: cache_dir.clone(),
    };
    narrate(&format!(
        "[ci-gate] {name}: replaying explore --budget {} --seed {} --insts {}",
        cfg.budget, cfg.seed, cfg.insts
    ));
    let result = explore(&DesignSpace::fig7(), &cfg)?;
    let cand_doc = DumpDoc::parse(&result.to_json())
        .map_err(|e| format!("fresh exploration produced an unparsable dump: {e}"))?;
    Ok(diff_dumps(base_doc, &cand_doc, policy))
}
