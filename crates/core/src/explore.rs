//! Design-space exploration: budget-capped Pareto-frontier search.
//!
//! The paper evaluates ~10 hand-picked design points (Table IV). This
//! module searches the space those points were picked *from*: the
//! cartesian grid of device assignment (the Table IV designs), core
//! count, DVFS V_dd operating point, and ROB depth, evaluated over a
//! pinned application subset and ranked by the Pareto frontier of
//! (time, energy, ED²) — see [`hetsim_stats::pareto`] for the order.
//!
//! The engine is built from the pieces earlier PRs proved out, so the
//! expensive part (simulation) is entirely reused machinery:
//!
//! * every candidate evaluation is a batch of content-addressed CPU
//!   [`Job`]s in the campaign's key space (see [`crate::campaign`]): a
//!   candidate resolves to a [`CpuPoint`] like
//!   any design, so repeated searches — a warm rerun, a widened budget,
//!   an overlapping sweep — only simulate points never seen before, and
//!   a candidate that is a campaign cell reuses its cache entry;
//! * each wave's batch runs on one runner of `--jobs` workers, and
//!   results merge by submission index, so the worker count is
//!   invisible in the output;
//! * the search itself is **structural**: wave 0 is a deterministic
//!   stride sample of the grid, every later wave evaluates the
//!   ±1-step axis neighbors of the current frontier (adaptive
//!   refinement near the frontier), in canonical grid order, and when
//!   refinement dries up with budget to spare the remainder sweeps the
//!   unseen cells in grid order, until the `--budget` evaluation cap
//!   is spent or the grid is exhausted. No randomness enters candidate
//!   selection — `--seed` only
//!   seeds the simulated workloads — so the same seed + budget produces
//!   a byte-identical frontier dump, which is what makes the engine
//!   testable and CI-gateable.

use std::collections::HashSet;
use std::path::PathBuf;

use hetsim_cpu::multicore;
use hetsim_device::dvfs::DvfsController;
use hetsim_runner::{Job, Runner};
use hetsim_stats::pareto;
use hetsim_trace::{apps, WorkloadProfile};
use serde::value::Value;
use serde::Serialize;

use crate::campaign::{cpu_job, Fingerprinted};
use crate::config::{CpuDesign, CpuPoint, OperatingPoint};
use crate::experiment::{CpuOutcome, CpuRun};
use crate::report::Report;

/// Format tag of the frontier dump (`schema.explore`). It names the
/// dump's layout; job keys live in the CPU key space.
pub const EXPLORE_SCHEMA: &str = "explore-cpu-v1";

/// Default evaluation budget (candidates, not jobs).
pub const DEFAULT_BUDGET: usize = 16;

/// Default dynamic instructions per application per candidate.
pub const DEFAULT_EXPLORE_INSTS: u64 = 20_000;

/// The axis names of every design space, in canonical order. Sweep
/// specs (`--sweep AXIS=V1,V2,...`) must name one of these.
pub const AXES: [&str; 4] = ["design", "cores", "vdd", "rob"];

/// One cell of the design grid, materialized from its axis coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Device assignment (Table IV design).
    pub design: CpuDesign,
    /// Chip core count.
    pub cores: u32,
    /// DVFS operating point, named by its core frequency in GHz.
    pub vdd_ghz: f64,
    /// Reorder-buffer depth override.
    pub rob: u32,
}

impl Candidate {
    /// The candidate's design resolved at its DVFS point (clock and
    /// rails) with its ROB depth.
    ///
    /// # Panics
    ///
    /// Panics if the V_dd point is unreachable ([`DesignSpace::validate`]
    /// rejects such spaces).
    pub fn point(&self) -> CpuPoint {
        let op = OperatingPoint::dvfs(self.vdd_ghz * 1e9)
            .expect("space validated before jobs are built");
        self.design.resolve(op, Some(self.rob))
    }

    /// Stable human label, e.g. `AdvHet/8c/2.5GHz/rob192`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}c/{}GHz/rob{}",
            self.design.name(),
            self.cores,
            self.vdd_ghz,
            self.rob
        )
    }
}

/// A searchable design space: one value list per axis plus the
/// application subset candidates are evaluated on.
///
/// Axis value lists are kept sorted and deduplicated (Table IV order
/// for designs, ascending for the numeric axes), so the grid — and
/// with it the whole search — is a canonical function of the value
/// *sets*, not of the order a sweep spec happened to list them in.
#[derive(Debug, Clone)]
pub struct DesignSpace {
    /// Space name (`fig7` is the only built-in space today).
    pub name: String,
    /// Device-assignment axis.
    pub designs: Vec<CpuDesign>,
    /// Core-count axis.
    pub cores: Vec<u32>,
    /// V_dd axis, as DVFS core frequencies in GHz.
    pub vdd_ghz: Vec<f64>,
    /// ROB-depth axis.
    pub robs: Vec<u32>,
    /// Applications each candidate is evaluated on (objectives sum
    /// across them).
    pub apps: Vec<String>,
}

impl DesignSpace {
    /// The built-in space around the paper's Figure 7 campaign: all ten
    /// Table IV designs × {2, 4, 8} cores × the Figure 14 DVFS points
    /// × baseline/Enh ROB depths, evaluated on a four-app subset (two
    /// FP SPLASH-2 kernels, the integer-only radix, one PARSEC app) —
    /// 180 grid cells, far more than any sane budget, which is the
    /// point: the frontier search has room to steer.
    pub fn fig7() -> DesignSpace {
        DesignSpace {
            name: "fig7".to_string(),
            designs: CpuDesign::ALL.to_vec(),
            cores: vec![2, 4, 8],
            vdd_ghz: vec![1.5, 2.0, 2.5],
            robs: vec![160, 192],
            apps: vec![
                "fft".to_string(),
                "lu".to_string(),
                "radix".to_string(),
                "canneal".to_string(),
            ],
        }
    }

    /// Applies one `--sweep AXIS=V1[,V2...]` spec, replacing that
    /// axis's value list.
    ///
    /// # Errors
    ///
    /// Returns an actionable message for a malformed spec, an unknown
    /// axis name, an empty value list, or an unparsable value. Range
    /// checks that need the whole space (DVFS reachability, ROB vs.
    /// issue width) live in [`DesignSpace::validate`].
    pub fn apply_sweep(&mut self, spec: &str) -> Result<(), String> {
        let Some((axis, values)) = spec.split_once('=') else {
            return Err(format!("--sweep expects AXIS=V1[,V2,...], got '{spec}'"));
        };
        if values.is_empty() {
            return Err(format!("--sweep {axis}= lists no values"));
        }
        let values: Vec<&str> = values.split(',').collect();
        match axis {
            "design" => {
                let mut designs = Vec::new();
                for v in &values {
                    match CpuDesign::ALL.iter().find(|d| d.name() == *v) {
                        Some(d) => designs.push(*d),
                        None => {
                            return Err(format!(
                                "--sweep design value '{v}' is not a Table IV design \
                                 (designs: {})",
                                CpuDesign::ALL
                                    .iter()
                                    .map(|d| d.name())
                                    .collect::<Vec<_>>()
                                    .join(", ")
                            ))
                        }
                    }
                }
                designs.sort_unstable();
                designs.dedup();
                self.designs = designs;
            }
            "cores" => {
                let mut cores = Vec::new();
                for v in &values {
                    match v.parse::<u32>() {
                        Ok(n) if n >= 1 => cores.push(n),
                        _ => return Err(format!("--sweep cores expects integers >= 1, got '{v}'")),
                    }
                }
                cores.sort_unstable();
                cores.dedup();
                self.cores = cores;
            }
            "vdd" => {
                let mut ghz = Vec::new();
                for v in &values {
                    match v.parse::<f64>() {
                        Ok(g) if g > 0.0 && g.is_finite() => ghz.push(g),
                        _ => {
                            return Err(format!(
                                "--sweep vdd expects frequencies in GHz > 0, got '{v}'"
                            ))
                        }
                    }
                }
                ghz.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                ghz.dedup();
                self.vdd_ghz = ghz;
            }
            "rob" => {
                let mut robs = Vec::new();
                for v in &values {
                    match v.parse::<u32>() {
                        Ok(n) if n >= 1 => robs.push(n),
                        _ => return Err(format!("--sweep rob expects integers >= 1, got '{v}'")),
                    }
                }
                robs.sort_unstable();
                robs.dedup();
                self.robs = robs;
            }
            other => {
                return Err(format!(
                    "--sweep axis '{other}' is not in the {} design space (axes: {})",
                    self.name,
                    AXES.join(", ")
                ))
            }
        }
        Ok(())
    }

    /// Checks the cross-axis constraints a sweep spec cannot see on its
    /// own: every app must exist, every V_dd point must be reachable on
    /// both rails, and every (design, ROB) pair must still be a valid
    /// core configuration.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as an actionable message.
    pub fn validate(&self) -> Result<(), String> {
        let dvfs = DvfsController::new();
        for app in &self.apps {
            if apps::profile(app).is_none() {
                return Err(format!(
                    "unknown application '{app}' in the {} space",
                    self.name
                ));
            }
        }
        for &ghz in &self.vdd_ghz {
            if dvfs.operating_point(ghz * 1e9).is_none() {
                return Err(format!(
                    "--sweep vdd {ghz} GHz is not a reachable DVFS operating point \
                     (max {:.2} GHz)",
                    dvfs.max_frequency() / 1e9
                ));
            }
        }
        for &design in &self.designs {
            for &rob in &self.robs {
                let point = design.resolve(OperatingPoint::nominal(), Some(rob));
                point.config.validate().map_err(|e| {
                    format!("--sweep rob {rob} is invalid for {}: {e}", design.name())
                })?;
            }
        }
        Ok(())
    }

    /// Axis sizes in canonical order (design, cores, vdd, rob).
    fn dims(&self) -> [usize; 4] {
        [
            self.designs.len(),
            self.cores.len(),
            self.vdd_ghz.len(),
            self.robs.len(),
        ]
    }

    /// Number of grid cells.
    pub fn grid_size(&self) -> usize {
        self.dims().iter().product()
    }

    /// The coordinates of flat grid index `i` (design slowest-varying).
    fn coords_of(&self, i: usize) -> [usize; 4] {
        let [_, c, v, r] = self.dims();
        [i / (c * v * r), (i / (v * r)) % c, (i / r) % v, i % r]
    }

    /// Materializes the candidate at `coords`.
    fn candidate(&self, coords: [usize; 4]) -> Candidate {
        Candidate {
            design: self.designs[coords[0]],
            cores: self.cores[coords[1]],
            vdd_ghz: self.vdd_ghz[coords[2]],
            rob: self.robs[coords[3]],
        }
    }
}

/// Everything one search run needs besides the space itself.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Evaluation cap: candidates (not jobs) the search may evaluate.
    pub budget: usize,
    /// Base RNG seed for the simulated workloads (candidate selection
    /// uses no randomness).
    pub seed: u64,
    /// Dynamic instructions per application per candidate.
    pub insts: u64,
    /// Worker threads of the search's runner.
    pub jobs: usize,
    /// On-disk result cache (none when `None`: every candidate runs).
    pub cache_dir: Option<PathBuf>,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            budget: DEFAULT_BUDGET,
            seed: 42,
            insts: DEFAULT_EXPLORE_INSTS,
            jobs: 1,
            cache_dir: None,
        }
    }
}

/// One evaluated grid cell with its aggregate objectives (sums over the
/// space's application subset; all minimized).
#[derive(Debug, Clone)]
pub struct EvaluatedPoint {
    /// The design evaluated.
    pub candidate: Candidate,
    /// Total execution time (s).
    pub time_s: f64,
    /// Total chip energy (J).
    pub energy_j: f64,
    /// Energy-delay-squared product of the aggregates (J·s²).
    pub ed2: f64,
    /// Instructions committed across all apps (exact-match anchor for
    /// the regression gate's counter lane).
    pub committed: u64,
}

impl EvaluatedPoint {
    /// The minimized objective vector, in dump order.
    pub fn objectives(&self) -> Vec<f64> {
        vec![self.time_s, self.energy_j, self.ed2]
    }
}

/// Deterministic runner counters summed across every wave.
///
/// Unlike the full [`hetsim_runner::RunnerStats`] (which is declared
/// nondeterministic because it carries wall time and cache-layer
/// provenance), these three totals are pure functions of the search and
/// the disk-cache state, so they can live in a byte-compared dump: two
/// cold runs agree exactly, and a warm rerun differs only here — which
/// the regression gate's `runner.*` exemption already absorbs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExploreCounters {
    /// Jobs submitted (candidates × apps).
    pub jobs: u64,
    /// Jobs actually simulated (cache misses).
    pub executed: u64,
    /// Jobs answered from cache.
    pub cache_hits: u64,
}

/// The outcome of one search: every evaluated point (in evaluation
/// order), the frontier as indices into that list, and the provenance
/// needed to replay the search exactly.
#[derive(Debug, Clone)]
pub struct ExploreResult {
    /// The (possibly swept) space that was searched.
    pub space: DesignSpace,
    /// The evaluation cap the search ran under.
    pub budget: usize,
    /// Workload seed.
    pub seed: u64,
    /// Instructions per application per candidate.
    pub insts: u64,
    /// Grid cells in the space.
    pub grid: usize,
    /// Every evaluated point, in evaluation order.
    pub evaluated: Vec<EvaluatedPoint>,
    /// Frontier membership: indices into `evaluated`, sorted by
    /// ascending time (then energy, then ED²).
    pub frontier: Vec<usize>,
    /// Deterministic runner totals.
    pub runner: ExploreCounters,
}

/// The jobs evaluating candidate `c`: its resolved point as a warmed
/// `c.cores`-core chip on each of `apps`, in order.
fn candidate_jobs(
    c: &Candidate,
    apps: &[Fingerprinted<WorkloadProfile>],
    seed: u64,
    insts: u64,
) -> Vec<Job<CpuOutcome>> {
    let point = Fingerprinted::new(c.point());
    let run = CpuRun::Chip { cores: c.cores };
    let job = |app| cpu_job(&point, run, app, seed, insts);
    apps.iter().map(job).collect()
}

/// Runs the search. See the module docs for the algorithm; in short:
/// stride-sample half the budget across the grid, repeatedly evaluate
/// the unevaluated ±1-step axis neighbors of the current frontier, and
/// spend any refinement-left-over budget sweeping unseen cells in grid
/// order, until the budget is spent or the grid is exhausted.
///
/// # Errors
///
/// Returns an actionable message for an invalid space or an unusable
/// cache directory. The budget bound is the caller's contract (the CLI
/// validates it): it must be ≥ 1.
pub fn explore(space: &DesignSpace, cfg: &ExploreConfig) -> Result<ExploreResult, String> {
    assert!(cfg.budget >= 1, "budget must be >= 1");
    space.validate()?;
    let apps: Vec<_> = space
        .apps
        .iter()
        .map(|a| Fingerprinted::new(apps::profile(a).expect("space validated")))
        .collect();
    // Every wave replays these apps' streams: generate them once.
    let _pins: Vec<_> = apps
        .iter()
        .flat_map(|app| multicore::pins(app, cfg.seed))
        .collect();

    // One runner for the whole search: its stats and observations
    // accumulate across waves. Each grid cell is evaluated once, so a
    // runner without a cache directory runs each job once.
    let mut runner = Runner::new(cfg.jobs);
    if let Some(dir) = &cfg.cache_dir {
        runner = runner
            .with_cache_dir(dir)
            .map_err(|e| format!("cannot open cache directory {}: {e}", dir.display()))?;
    }

    let grid = space.grid_size();
    let budget = cfg.budget.min(grid);
    let mut seen: HashSet<[usize; 4]> = HashSet::new();
    let mut coords_order: Vec<[usize; 4]> = Vec::new();
    let mut evaluated: Vec<EvaluatedPoint> = Vec::new();

    // Wave 0: a deterministic stride sample spreads roughly half the
    // budget across the whole grid so refinement has gradients to
    // follow; the remainder is spent walking toward the frontier.
    let sample = budget.div_ceil(2).min(grid);
    let mut wave: Vec<[usize; 4]> = (0..sample)
        .map(|i| space.coords_of(i * grid / sample))
        .collect();

    loop {
        wave.retain(|c| !seen.contains(c));
        wave.truncate(budget - evaluated.len());
        if wave.is_empty() {
            break;
        }
        let outcomes = evaluate_wave(space, cfg, &apps, &runner, &wave);
        for (coords, point) in wave.iter().zip(outcomes) {
            seen.insert(*coords);
            coords_order.push(*coords);
            evaluated.push(point);
        }
        if evaluated.len() >= budget {
            break;
        }
        // Adaptive refinement: enqueue the unevaluated ±1-step axis
        // neighbors of the current frontier, in canonical grid order.
        let objectives: Vec<Vec<f64>> = evaluated.iter().map(EvaluatedPoint::objectives).collect();
        let mut frontier_coords: Vec<[usize; 4]> = pareto::frontier_indices(&objectives)
            .into_iter()
            .map(|i| coords_order[i])
            .collect();
        frontier_coords.sort_unstable();
        let dims = space.dims();
        let mut queued: HashSet<[usize; 4]> = HashSet::new();
        wave = Vec::new();
        for fc in frontier_coords {
            for axis in 0..4 {
                for step in [-1isize, 1] {
                    let pos = fc[axis] as isize + step;
                    if pos < 0 || pos as usize >= dims[axis] {
                        continue;
                    }
                    let mut n = fc;
                    n[axis] = pos as usize;
                    if !seen.contains(&n) && queued.insert(n) {
                        wave.push(n);
                    }
                }
            }
        }
        // Refinement can dry up with budget to spare: every neighbor of
        // the frontier already seen, but unseen cells left in dominated
        // basins no frontier walk reaches. The budget is the cap the
        // search is entitled to spend, so fall back to the canonical
        // sweep over whatever is still unseen.
        if wave.is_empty() {
            wave = (0..grid)
                .map(|i| space.coords_of(i))
                .filter(|c| !seen.contains(c))
                .take(budget - evaluated.len())
                .collect();
        }
    }

    // Final frontier, sorted canonically by objectives (coords break
    // exact ties, though the simulators never produce any in practice).
    let objectives: Vec<Vec<f64>> = evaluated.iter().map(EvaluatedPoint::objectives).collect();
    let mut frontier = pareto::frontier_indices(&objectives);
    frontier.sort_by(|&a, &b| {
        let (pa, pb) = (&evaluated[a], &evaluated[b]);
        (pa.time_s, pa.energy_j, pa.ed2)
            .partial_cmp(&(pb.time_s, pb.energy_j, pb.ed2))
            .expect("NaN objectives are rejected by the frontier computation")
            .then_with(|| coords_order[a].cmp(&coords_order[b]))
    });

    let totals = runner.total_stats();
    let runner = ExploreCounters {
        jobs: totals.jobs,
        executed: totals.executed,
        cache_hits: totals.cache_hits,
    };

    Ok(ExploreResult {
        space: space.clone(),
        budget: cfg.budget,
        seed: cfg.seed,
        insts: cfg.insts,
        grid,
        evaluated,
        frontier,
        runner,
    })
}

/// Evaluates one wave of candidates: builds the (candidate × app) job
/// batch, runs it on `runner`, and folds each candidate's per-app
/// outcomes into its aggregate objectives.
fn evaluate_wave(
    space: &DesignSpace,
    cfg: &ExploreConfig,
    apps: &[Fingerprinted<WorkloadProfile>],
    runner: &Runner<CpuOutcome>,
    wave: &[[usize; 4]],
) -> Vec<EvaluatedPoint> {
    let jobs = wave
        .iter()
        .flat_map(|&coords| candidate_jobs(&space.candidate(coords), apps, cfg.seed, cfg.insts))
        .collect();
    let outcomes = runner.run(jobs);
    wave.iter()
        .zip(outcomes.chunks(apps.len()))
        .map(|(&coords, outcomes)| {
            let mut time_s = 0.0;
            let mut energy_j = 0.0;
            let mut committed = 0;
            for outcome in outcomes {
                time_s += outcome.seconds;
                energy_j += outcome.energy.total_j();
                committed += outcome.committed;
            }
            EvaluatedPoint {
                candidate: space.candidate(coords),
                time_s,
                energy_j,
                ed2: energy_j * time_s * time_s,
                committed,
            }
        })
        .collect()
}

impl ExploreResult {
    /// Instructions committed across every evaluated candidate (the
    /// bench scenario's throughput numerator).
    pub fn total_committed(&self) -> u64 {
        self.evaluated.iter().map(|p| p.committed).sum()
    }

    /// The frontier as a paper-shaped [`Report`]: one row per frontier
    /// point, columns in objective order. Rendered in µs/µJ/fJ·s² so
    /// the fixed-precision table stays legible at simulation-scale
    /// budgets (the dump keeps plain SI units).
    pub fn frontier_report(&self) -> Report {
        let mut report = Report::new(
            format!(
                "Pareto frontier: {} space, {} of {} candidates evaluated (budget {})",
                self.space.name,
                self.evaluated.len(),
                self.grid,
                self.budget
            ),
            vec!["time_us".into(), "energy_uJ".into(), "ed2_fJs2".into()],
        );
        for &i in &self.frontier {
            let p = &self.evaluated[i];
            report.push_row(
                p.candidate.label(),
                vec![p.time_s * 1e6, p.energy_j * 1e6, p.ed2 * 1e15],
            );
        }
        report
    }

    /// Serializes the frontier dump as pretty-printed JSON. The layout
    /// is fixed — `schema`, `explore` (search provenance), `frontier`,
    /// `evaluated`, `runner` — so two runs of the same search produce
    /// byte-identical text except, on a warm cache, the `runner`
    /// section the diff policy already exempts.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.to_value()).expect("value trees always serialize")
    }
}

fn point_value(p: &EvaluatedPoint) -> Value {
    Value::Object(vec![
        (
            "design".into(),
            Value::Str(p.candidate.design.name().into()),
        ),
        ("cores".into(), p.candidate.cores.to_value()),
        ("vdd_ghz".into(), p.candidate.vdd_ghz.to_value()),
        ("rob".into(), p.candidate.rob.to_value()),
        ("committed".into(), p.committed.to_value()),
        ("time_s".into(), p.time_s.to_value()),
        ("energy_j".into(), p.energy_j.to_value()),
        ("ed2".into(), p.ed2.to_value()),
    ])
}

impl Serialize for ExploreResult {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            (
                "schema".into(),
                Value::Object(vec![("explore".into(), Value::Str(EXPLORE_SCHEMA.into()))]),
            ),
            (
                "explore".into(),
                Value::Object(vec![
                    ("space".into(), Value::Str(self.space.name.clone())),
                    ("budget".into(), (self.budget as u64).to_value()),
                    ("seed".into(), self.seed.to_value()),
                    ("insts".into(), self.insts.to_value()),
                    (
                        "apps".into(),
                        Value::Array(
                            self.space
                                .apps
                                .iter()
                                .map(|a| Value::Str(a.clone()))
                                .collect(),
                        ),
                    ),
                    (
                        "axes".into(),
                        Value::Object(vec![
                            (
                                "design".into(),
                                Value::Array(
                                    self.space
                                        .designs
                                        .iter()
                                        .map(|d| Value::Str(d.name().into()))
                                        .collect(),
                                ),
                            ),
                            (
                                "cores".into(),
                                Value::Array(
                                    self.space.cores.iter().map(|c| c.to_value()).collect(),
                                ),
                            ),
                            (
                                "vdd_ghz".into(),
                                Value::Array(
                                    self.space.vdd_ghz.iter().map(|g| g.to_value()).collect(),
                                ),
                            ),
                            (
                                "rob".into(),
                                Value::Array(
                                    self.space.robs.iter().map(|r| r.to_value()).collect(),
                                ),
                            ),
                        ]),
                    ),
                    ("grid".into(), (self.grid as u64).to_value()),
                    (
                        "evaluations".into(),
                        (self.evaluated.len() as u64).to_value(),
                    ),
                ]),
            ),
            (
                "frontier".into(),
                Value::Array(
                    self.frontier
                        .iter()
                        .map(|&i| point_value(&self.evaluated[i]))
                        .collect(),
                ),
            ),
            (
                "evaluated".into(),
                Value::Array(self.evaluated.iter().map(point_value).collect()),
            ),
            (
                "runner".into(),
                Value::Object(vec![
                    ("jobs".into(), self.runner.jobs.to_value()),
                    ("executed".into(), self.runner.executed.to_value()),
                    ("cache_hits".into(), self.runner.cache_hits.to_value()),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_space() -> DesignSpace {
        let mut space = DesignSpace::fig7();
        space.apps = vec!["radix".to_string()];
        space
            .apply_sweep("design=BaseCMOS,AdvHet")
            .expect("valid sweep");
        space.apply_sweep("cores=2").expect("valid sweep");
        space.apply_sweep("vdd=2.0").expect("valid sweep");
        space.apply_sweep("rob=160,192").expect("valid sweep");
        space
    }

    fn quick_cfg(budget: usize) -> ExploreConfig {
        ExploreConfig {
            budget,
            seed: 7,
            insts: 2_000,
            jobs: 2,
            ..ExploreConfig::default()
        }
    }

    #[test]
    fn fig7_space_shape_is_pinned() {
        let space = DesignSpace::fig7();
        assert_eq!(space.grid_size(), 10 * 3 * 3 * 2);
        assert_eq!(space.apps, ["fft", "lu", "radix", "canneal"]);
        space.validate().expect("built-in space is valid");
    }

    #[test]
    fn coords_round_trip_the_whole_grid() {
        let space = DesignSpace::fig7();
        let dims = space.dims();
        let mut seen = HashSet::new();
        for i in 0..space.grid_size() {
            let c = space.coords_of(i);
            for (axis, &pos) in c.iter().enumerate() {
                assert!(pos < dims[axis], "cell {i} axis {axis} in range");
            }
            assert!(seen.insert(c), "cell {i} is distinct");
        }
    }

    #[test]
    fn sweeps_canonicalize_and_reject_unknowns() {
        let mut space = DesignSpace::fig7();
        space.apply_sweep("cores=8,2,8").expect("valid");
        assert_eq!(space.cores, [2, 8], "sorted and deduplicated");
        space.apply_sweep("design=AdvHet,BaseCMOS").expect("valid");
        assert_eq!(space.designs, [CpuDesign::BaseCmos, CpuDesign::AdvHet]);
        let err = space.apply_sweep("depth=5").expect_err("unknown axis");
        assert!(err.contains("axes: design, cores, vdd, rob"), "{err}");
        let err = space.apply_sweep("cores=many").expect_err("bad value");
        assert!(err.contains("'many'"), "{err}");
        let err = space.apply_sweep("cores").expect_err("no values");
        assert!(err.contains("AXIS=V1"), "{err}");
    }

    #[test]
    fn validate_rejects_unreachable_vdd_and_absurd_rob() {
        let mut space = DesignSpace::fig7();
        space.apply_sweep("vdd=9.75").expect("parses");
        let err = space.validate().expect_err("unreachable point");
        assert!(err.contains("9.75"), "{err}");

        let mut space = DesignSpace::fig7();
        space.apply_sweep("rob=1").expect("parses");
        let err = space.validate().expect_err("ROB below issue width");
        assert!(err.contains("rob 1"), "{err}");
    }

    #[test]
    fn search_is_deterministic_and_respects_the_budget() {
        let space = tiny_space();
        let a = explore(&space, &quick_cfg(3)).expect("search runs");
        let b = explore(&space, &quick_cfg(3)).expect("search runs");
        assert!(a.evaluated.len() <= 3);
        assert!(!a.frontier.is_empty());
        assert_eq!(a.to_json(), b.to_json(), "same seed+budget, same bytes");
    }

    #[test]
    fn budget_larger_than_grid_evaluates_everything_once() {
        let space = tiny_space();
        let result = explore(&space, &quick_cfg(100)).expect("search runs");
        assert_eq!(result.evaluated.len(), space.grid_size());
        assert_eq!(result.runner.jobs, result.runner.executed);
    }

    #[test]
    fn frontier_points_are_mutually_non_dominating() {
        let space = tiny_space();
        let result = explore(&space, &quick_cfg(4)).expect("search runs");
        for &a in &result.frontier {
            for &b in &result.frontier {
                if a != b {
                    assert!(!pareto::dominates(
                        &result.evaluated[a].objectives(),
                        &result.evaluated[b].objectives()
                    ));
                }
            }
        }
    }

    #[test]
    fn explore_keys_follow_profile_content() {
        let candidate = tiny_space().candidate([0, 0, 0, 0]);
        let lu = apps::profile("lu").expect("known app");
        let mut edited = lu.clone();
        edited.parallel_fraction *= 0.5;
        let keys = |app: &WorkloadProfile| {
            let apps = [Fingerprinted::new(app.clone())];
            candidate_jobs(&candidate, &apps, 7, 2_000)[0].key
        };
        assert_ne!(keys(&lu), keys(&edited), "same app name, new content");
    }

    #[test]
    fn a_candidate_at_a_campaign_cell_shares_its_key() {
        // BaseCMOS, 4 cores, 2 GHz at the nominal rails, Table III ROB:
        // the campaign's BaseCMOS cell, so the search reuses its entry.
        let candidate = Candidate {
            design: CpuDesign::BaseCmos,
            cores: 4,
            vdd_ghz: 2.0,
            rob: 160,
        };
        let suite = crate::suite::Suite::default();
        let apps = [Fingerprinted::new(apps::all().remove(0))];
        let jobs = candidate_jobs(&candidate, &apps, suite.seed, suite.insts_per_app);
        assert_eq!(jobs[0].key, suite.cpu_campaign_jobs()[0].key);
    }

    #[test]
    fn a_candidate_is_priced_for_the_rob_it_simulates() {
        let point = |rob| {
            let candidate = Candidate {
                design: CpuDesign::BaseCmos,
                cores: 4,
                vdd_ghz: 2.0,
                rob,
            };
            candidate.point()
        };
        let nominal = CpuDesign::BaseCmos.resolve(OperatingPoint::nominal(), None);
        let deep = point(192);
        assert_eq!(deep.config.rob_entries, 192);
        assert_eq!(
            format!("{:?}", deep.model),
            format!("{:?}", nominal.model.clone().with_structure(192, 80)),
            "a 192-entry ROB is priced as one"
        );
        assert_eq!(
            format!("{:?}", point(160).model),
            format!("{:?}", nominal.model),
            "the Table III ROB keeps the campaign cell's model"
        );
    }

    #[test]
    fn job_count_is_invisible_in_the_dump() {
        let space = tiny_space();
        let two = explore(&space, &quick_cfg(4)).expect("search runs");
        for jobs in [1, 3] {
            let cfg = ExploreConfig {
                jobs,
                ..quick_cfg(4)
            };
            let other = explore(&space, &cfg).expect("search runs");
            assert_eq!(two.to_json(), other.to_json(), "--jobs {jobs}");
        }
    }
}
