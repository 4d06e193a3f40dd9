//! The full experiment suite: one entry point per paper table/figure.
//!
//! [`Suite`] holds the run parameters (instruction budget per application,
//! seed); each `table*`/`fig*` method regenerates the corresponding
//! artifact as a [`Report`]. CPU figures 7/8/9/13 share one *campaign* (the
//! full design x application sweep) so the expensive simulations run once;
//! GPU figures 10/11/12 share another.
//!
//! Every simulated artifact declares its jobs (`*_jobs`) and renders from
//! their outcomes (`fig*`, `*_from`). A [`Plan`] gathers what a run's
//! targets declare into one CPU and one GPU batch, deduplicated by key,
//! so a simulation two artifacts share runs once.

use std::collections::HashMap;

use hetsim_device::activity::figure2_series;
use hetsim_device::dvfs::DvfsController;
use hetsim_device::iv::IvCurve;
use hetsim_device::tech::Technology;
use hetsim_device::variation::{CMOS_GUARDBAND_V, TFET_GUARDBAND_V};
use hetsim_device::vf::VfCurve;
use hetsim_power::assignment::VoltageFactors;
use hetsim_runner::{Job, JobKey, Runner};
use hetsim_trace::{apps, WorkloadProfile};

use crate::campaign::{cpu_job, gpu_job, Fingerprinted, GpuLaunch};
use crate::config::{CpuDesign, CpuPoint, GpuDesign, OperatingPoint};
use crate::experiment::{CpuOutcome, CpuRun, GpuOutcome, GpuRun};
use crate::migration::{migration_cmp, MigrationConfig};
use crate::report::{normalize, Report};

/// A labeled metric extractor over a value type.
type MetricRow<T> = (&'static str, fn(&T) -> f64);

/// The paper's baseline chip: 4 CPU cores (Section VI).
pub const BASELINE_CORES: u32 = 4;
/// The AdvHet-2X chip: 8 cores at the BaseCMOS power budget.
pub const TWOX_CORES: u32 = 8;

/// Extension experiments beyond the paper's own tables/figures: the
/// Section VIII comparisons and the future-work techniques, implemented.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Extension {
    /// Iso-area comparison vs. the barrier-aware thread-migration CMP.
    Migration,
    /// Partitioned vector RF vs. the RF cache on the GPU.
    PartitionedRf,
    /// Compiler latency-hiding scheduling on the GPU.
    Scheduling,
}

impl Extension {
    /// Every extension.
    pub const ALL: [Extension; 3] = [
        Extension::Migration,
        Extension::PartitionedRf,
        Extension::Scheduling,
    ];

    /// CLI name.
    pub fn cli_name(self) -> &'static str {
        match self {
            Extension::Migration => "ext-migration",
            Extension::PartitionedRf => "ext-partrf",
            Extension::Scheduling => "ext-sched",
        }
    }

    /// Parses a CLI name.
    pub fn from_cli_name(s: &str) -> Option<Extension> {
        Extension::ALL.into_iter().find(|e| e.cli_name() == s)
    }
}

/// Experiment identifiers, one per paper table/figure reproduced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Experiment {
    /// Table I: device characteristics at 15 nm.
    Table1,
    /// Figure 1: Id-Vg of N-HetJTFET vs. N-MOSFET.
    Fig1,
    /// Figure 2: ALU power vs. activity factor.
    Fig2,
    /// Figure 3: V_dd-frequency curves.
    Fig3,
    /// Figure 7: CPU execution time, normalized to BaseCMOS.
    Fig7,
    /// Figure 8: CPU energy, normalized to BaseCMOS.
    Fig8,
    /// Figure 9: CPU ED^2, normalized to BaseCMOS.
    Fig9,
    /// Figure 10: GPU execution time, normalized to BaseCMOS.
    Fig10,
    /// Figure 11: GPU energy, normalized to BaseCMOS.
    Fig11,
    /// Figure 12: GPU ED^2, normalized to BaseCMOS.
    Fig12,
    /// Figure 13: sensitivity analysis across the alternative CPU designs.
    Fig13,
    /// Figure 14: DVFS and process-variation impact on energy.
    Fig14,
}

impl Experiment {
    /// Every experiment, in paper order.
    pub const ALL: [Experiment; 12] = [
        Experiment::Table1,
        Experiment::Fig1,
        Experiment::Fig2,
        Experiment::Fig3,
        Experiment::Fig7,
        Experiment::Fig8,
        Experiment::Fig9,
        Experiment::Fig10,
        Experiment::Fig11,
        Experiment::Fig12,
        Experiment::Fig13,
        Experiment::Fig14,
    ];

    /// CLI name (`table1`, `fig7`, ...).
    pub fn cli_name(self) -> &'static str {
        match self {
            Experiment::Table1 => "table1",
            Experiment::Fig1 => "fig1",
            Experiment::Fig2 => "fig2",
            Experiment::Fig3 => "fig3",
            Experiment::Fig7 => "fig7",
            Experiment::Fig8 => "fig8",
            Experiment::Fig9 => "fig9",
            Experiment::Fig10 => "fig10",
            Experiment::Fig11 => "fig11",
            Experiment::Fig12 => "fig12",
            Experiment::Fig13 => "fig13",
            Experiment::Fig14 => "fig14",
        }
    }

    /// Parses a CLI name.
    pub fn from_cli_name(s: &str) -> Option<Experiment> {
        Experiment::ALL.into_iter().find(|e| e.cli_name() == s)
    }
}

/// Run parameters for the suite.
#[derive(Debug, Clone, Copy)]
pub struct Suite {
    /// Dynamic instructions per CPU application (split across the chip's
    /// cores).
    pub insts_per_app: u64,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for Suite {
    fn default() -> Self {
        Suite {
            insts_per_app: 300_000,
            seed: 42,
        }
    }
}

/// All CPU outcomes of the design x application sweep.
#[derive(Debug, Clone)]
pub struct CpuCampaign {
    /// `outcomes[app_idx][design_idx]`, designs in [`CpuDesign::ALL`]
    /// order, then the AdvHet-2X chip last.
    pub outcomes: Vec<Vec<CpuOutcome>>,
    /// Application names, row order.
    pub app_names: Vec<&'static str>,
}

impl CpuCampaign {
    /// Groups the campaign's outcomes (submission order) by application.
    fn from_outcomes(outcomes: Vec<CpuOutcome>) -> CpuCampaign {
        let app_names: Vec<_> = apps::all().iter().map(|a| a.name).collect();
        let outcomes = rows(outcomes, CpuDesign::ALL.len() + 1, app_names.len());
        CpuCampaign {
            outcomes,
            app_names,
        }
    }
}

/// `n` rows of `width` outcomes each, in submission order.
fn rows<T>(outcomes: Vec<T>, width: usize, n: usize) -> Vec<Vec<T>> {
    let mut outcomes = outcomes.into_iter();
    (0..n)
        .map(|_| outcomes.by_ref().take(width).collect())
        .collect()
}

/// Column labels of the CPU campaign: the ten designs plus AdvHet-2X.
pub fn cpu_campaign_columns() -> Vec<String> {
    CpuDesign::ALL
        .iter()
        .map(|d| d.name().to_string())
        .chain(std::iter::once("AdvHet-2X".to_string()))
        .collect()
}

/// All GPU outcomes of the design x kernel sweep.
#[derive(Debug, Clone)]
pub struct GpuCampaign {
    /// `outcomes[kernel_idx][design_idx]` in [`GpuDesign::ALL`] order.
    pub outcomes: Vec<Vec<GpuOutcome>>,
    /// Kernel names, row order.
    pub kernel_names: Vec<&'static str>,
}

impl GpuCampaign {
    /// Groups the campaign's outcomes (submission order) by kernel.
    fn from_outcomes(outcomes: Vec<GpuOutcome>) -> GpuCampaign {
        let kernel_names: Vec<_> = hetsim_gpu::kernels::all().iter().map(|k| k.name).collect();
        let outcomes = rows(outcomes, GpuDesign::ALL.len(), kernel_names.len());
        GpuCampaign {
            outcomes,
            kernel_names,
        }
    }
}

impl Suite {
    // ---------------------------------------------------------------
    // Device-level artifacts (Tables/Figures from Sections II-III).
    // ---------------------------------------------------------------

    /// Table I: characteristics of the four technologies at 15 nm.
    pub fn table1(&self) -> Report {
        let mut r = Report::new(
            "Table I: CMOS and TFET technologies at 15nm",
            Technology::ALL.iter().map(|t| t.to_string()).collect(),
        );
        let rows: [MetricRow<hetsim_device::DeviceParams>; 9] = [
            ("Supply voltage (V)", |p| p.supply_voltage_v),
            ("Switching delay (ps)", |p| p.switching_delay_ps),
            ("Interconnect delay (ps)", |p| p.interconnect_delay_ps),
            ("32b ALU delay (ps)", |p| p.alu32_delay_ps),
            ("Switching energy (aJ)", |p| p.switching_energy_aj),
            ("Interconnect energy (aJ)", |p| p.interconnect_energy_aj),
            ("32b ALU dyn energy (fJ)", |p| p.alu32_dynamic_energy_fj),
            ("32b ALU leakage (uW)", |p| p.alu32_leakage_uw),
            ("ALU power density (W/cm2)", |p| p.alu_power_density_w_cm2),
        ];
        for (label, f) in rows {
            r.push_row(
                label,
                Technology::ALL.iter().map(|t| f(&t.params())).collect(),
            );
        }
        r
    }

    /// Figure 1: Id-Vg curves of N-HetJTFET vs. N-MOSFET.
    pub fn fig1(&self) -> Report {
        let mut r = Report::new(
            "Figure 1: Id-Vg (uA/um) of N-HetJTFET vs N-MOSFET",
            vec!["HetJTFET".into(), "MOSFET".into()],
        );
        let tfet = IvCurve::n_hetjtfet();
        let mos = IvCurve::n_mosfet();
        for i in 0..=16 {
            let vg = 0.05 * i as f64;
            r.push_row(
                format!("Vg={vg:.2}V"),
                vec![tfet.drain_current(vg), mos.drain_current(vg)],
            );
        }
        r
    }

    /// Figure 2: total ALU power vs. activity factor.
    pub fn fig2(&self) -> Report {
        let mut r = Report::new(
            "Figure 2: ALU power (uW) vs activity factor",
            vec!["Si-CMOS".into(), "HetJTFET".into(), "ratio".into()],
        );
        for p in figure2_series(1e-4, 13) {
            r.push_row(
                format!("af={:.4}", p.af),
                vec![p.cmos_w * 1e6, p.tfet_w * 1e6, p.ratio],
            );
        }
        r
    }

    /// Figure 3: V_dd-frequency curves.
    pub fn fig3(&self) -> Report {
        let mut r = Report::new(
            "Figure 3: Vdd-frequency curves (GHz)",
            vec!["Si-CMOS".into(), "HetJTFET".into()],
        );
        let cmos = VfCurve::for_technology(Technology::SiCmos);
        let tfet = VfCurve::for_technology(Technology::HetJTfet);
        for i in 0..=13 {
            let v = 0.20 + 0.05 * i as f64;
            r.push_row(
                format!("Vdd={v:.2}V"),
                vec![cmos.frequency_at(v) / 1e9, tfet.frequency_at(v) / 1e9],
            );
        }
        r
    }

    // ---------------------------------------------------------------
    // CPU evaluation (Figures 7-9, 13).
    // ---------------------------------------------------------------

    /// Runs the full CPU campaign serially (see [`Suite::cpu_campaign_with`]).
    pub fn cpu_campaign(&self) -> CpuCampaign {
        self.cpu_campaign_with(&Runner::serial())
    }

    /// The CPU campaign's job batch in canonical submission order —
    /// every Table IV design on every application as a 4-core chip,
    /// plus the 8-core AdvHet-2X chip, row-major (app, then design).
    ///
    /// Exposed separately from [`Suite::cpu_campaign_with`] so a run
    /// plan can merge the batch with other studies' jobs.
    pub fn cpu_campaign_jobs(&self) -> Vec<Job<CpuOutcome>> {
        let points: Vec<_> = CpuDesign::ALL.into_iter().map(nominal).collect();
        let advhet = &points[design_index(CpuDesign::AdvHet)];
        let mut jobs = Vec::with_capacity(apps::all().len() * (points.len() + 1));
        for app in apps::all().into_iter().map(Fingerprinted::new) {
            for point in &points {
                jobs.push(self.chip_job(point, BASELINE_CORES, &app));
            }
            jobs.push(self.chip_job(advhet, TWOX_CORES, &app));
        }
        jobs
    }

    /// A warmed `cores`-core chip of `point` on `app`: a campaign cell.
    fn chip_job(
        &self,
        point: &Fingerprinted<CpuPoint>,
        cores: u32,
        app: &Fingerprinted<WorkloadProfile>,
    ) -> Job<CpuOutcome> {
        let run = CpuRun::Chip { cores };
        cpu_job(point, run, app, self.seed, self.insts_per_app)
    }

    /// Runs the full CPU campaign — every Table IV design on every
    /// application as a 4-core chip, plus the 8-core AdvHet-2X chip —
    /// as one job batch on `runner`.
    ///
    /// Jobs are submitted in row-major (app, then design) order and the
    /// runner merges results by submission index, so the campaign is
    /// identical for any worker count.
    pub fn cpu_campaign_with(&self, runner: &Runner<CpuOutcome>) -> CpuCampaign {
        CpuCampaign::from_outcomes(runner.run(self.cpu_campaign_jobs()))
    }

    /// The Figure 7/8/9 design columns (subset of the campaign).
    fn fig789_designs() -> Vec<(usize, String)> {
        // Campaign indices of: BaseCMOS, BaseCMOS-Enh, BaseTFET, BaseHet,
        // AdvHet, AdvHet-2X.
        let order = [
            CpuDesign::BaseCmos,
            CpuDesign::BaseCmosEnh,
            CpuDesign::BaseTfet,
            CpuDesign::BaseHet,
            CpuDesign::AdvHet,
        ];
        let mut cols: Vec<(usize, String)> = order
            .iter()
            .map(|d| {
                let idx = CpuDesign::ALL
                    .iter()
                    .position(|x| x == d)
                    .expect("design in ALL");
                (idx, d.name().to_string())
            })
            .collect();
        cols.push((CpuDesign::ALL.len(), "AdvHet-2X".to_string()));
        cols
    }

    fn cpu_metric_report(
        &self,
        campaign: &CpuCampaign,
        title: &str,
        metric: impl Fn(&CpuOutcome) -> f64,
    ) -> Report {
        let cols = Self::fig789_designs();
        let mut r = Report::new(
            title,
            cols.iter()
                .map(|(_, name)| name.clone())
                .collect::<Vec<_>>(),
        );
        let base_idx = 0; // BaseCMOS is the first column
        for (app, row) in campaign.app_names.iter().zip(&campaign.outcomes) {
            let values: Vec<f64> = cols.iter().map(|(i, _)| metric(&row[*i])).collect();
            r.push_row(*app, normalize(&values, base_idx));
        }
        r.push_mean();
        r
    }

    /// Figure 7: execution time, normalized to BaseCMOS.
    pub fn fig7(&self, campaign: &CpuCampaign) -> Report {
        self.cpu_metric_report(
            campaign,
            "Figure 7: CPU execution time (normalized to BaseCMOS)",
            |o| o.seconds,
        )
    }

    /// Figure 8: energy, normalized to BaseCMOS.
    pub fn fig8(&self, campaign: &CpuCampaign) -> Report {
        self.cpu_metric_report(
            campaign,
            "Figure 8: CPU energy (normalized to BaseCMOS)",
            |o| o.energy.total_j(),
        )
    }

    /// Figure 8's breakdown detail: mean dynamic/leakage shares per bucket
    /// for each design (the stacking inside the paper's bars).
    pub fn fig8_breakdown(&self, campaign: &CpuCampaign) -> Report {
        let cols = Self::fig789_designs();
        let mut r = Report::new(
            "Figure 8 (breakdown): mean energy by component, normalized to BaseCMOS total",
            cols.iter().map(|(_, n)| n.clone()).collect::<Vec<_>>(),
        );
        let parts: [MetricRow<hetsim_power::EnergyBreakdown>; 6] = [
            ("core dynamic", |e| e.core_dynamic_j),
            ("core leakage", |e| e.core_leakage_j),
            ("L2 dynamic", |e| e.l2_dynamic_j),
            ("L2 leakage", |e| e.l2_leakage_j),
            ("L3 dynamic", |e| e.l3_dynamic_j),
            ("L3 leakage", |e| e.l3_leakage_j),
        ];
        for (label, f) in parts {
            let mut values = vec![0.0; cols.len()];
            for row in &campaign.outcomes {
                let base_total = row[0].energy.total_j();
                for (k, (i, _)) in cols.iter().enumerate() {
                    values[k] += f(&row[*i].energy) / base_total;
                }
            }
            for v in &mut values {
                *v /= campaign.outcomes.len() as f64;
            }
            r.push_row(label, values);
        }
        r
    }

    /// Figure 9: ED^2, normalized to BaseCMOS.
    pub fn fig9(&self, campaign: &CpuCampaign) -> Report {
        self.cpu_metric_report(
            campaign,
            "Figure 9: CPU ED^2 (normalized to BaseCMOS)",
            CpuOutcome::ed2,
        )
    }

    /// Figure 13: mean time/energy/ED/ED^2 of the alternative designs.
    pub fn fig13(&self, campaign: &CpuCampaign) -> Report {
        let designs = [
            CpuDesign::BaseCmos,
            CpuDesign::BaseL3,
            CpuDesign::BaseHighVt,
            CpuDesign::BaseHetFastAlu,
            CpuDesign::BaseHet,
            CpuDesign::BaseHetEnh,
            CpuDesign::BaseHetSplit,
            CpuDesign::AdvHet,
        ];
        let mut r = Report::new(
            "Figure 13: sensitivity analysis (means, normalized to BaseCMOS)",
            designs
                .iter()
                .map(|d| d.name().to_string())
                .collect::<Vec<_>>(),
        );
        let metrics: [MetricRow<CpuOutcome>; 4] = [
            ("time", |o| o.seconds),
            ("energy", |o| o.energy.total_j()),
            ("ED", |o| o.ed()),
            ("ED^2", |o| o.ed2()),
        ];
        for (label, metric) in metrics {
            let mut values = vec![0.0; designs.len()];
            for row in &campaign.outcomes {
                let base = metric(&row[0]);
                for (k, d) in designs.iter().enumerate() {
                    let idx = CpuDesign::ALL.iter().position(|x| x == d).expect("in ALL");
                    values[k] += metric(&row[idx]) / base;
                }
            }
            for v in &mut values {
                *v /= campaign.outcomes.len() as f64;
            }
            r.push_row(label, values);
        }
        r
    }

    // ---------------------------------------------------------------
    // GPU evaluation (Figures 10-12).
    // ---------------------------------------------------------------

    /// Runs the full GPU campaign serially (see [`Suite::gpu_campaign_with`]).
    pub fn gpu_campaign(&self) -> GpuCampaign {
        self.gpu_campaign_with(&Runner::serial())
    }

    /// The GPU campaign's job batch in canonical submission order
    /// (kernel-major) — the GPU counterpart of
    /// [`Suite::cpu_campaign_jobs`].
    pub fn gpu_campaign_jobs(&self) -> Vec<Job<GpuOutcome>> {
        self.gpu_grid(&GpuDesign::ALL.map(|d| (d, GpuRun::Plain)))
    }

    /// Every kernel launched in each `(design, run)` cell, kernel-major.
    /// A kernel's row of jobs shares one [`GpuLaunch`], so each kernel
    /// is generated once, by the first of its jobs to run.
    fn gpu_grid(&self, cells: &[(GpuDesign, GpuRun)]) -> Vec<Job<GpuOutcome>> {
        let points: Vec<_> = cells
            .iter()
            .map(|&(d, run)| (Fingerprinted::new(d.resolve()), run))
            .collect();
        let mut jobs = Vec::new();
        for kernel in hetsim_gpu::kernels::all()
            .into_iter()
            .map(Fingerprinted::new)
        {
            let launch = GpuLaunch::new(kernel, self.seed);
            for (point, run) in &points {
                jobs.push(gpu_job(point, *run, &launch));
            }
        }
        jobs
    }

    /// Runs the full GPU campaign — every design on every kernel — as
    /// one job batch on `runner` (submission order: kernel-major).
    pub fn gpu_campaign_with(&self, runner: &Runner<GpuOutcome>) -> GpuCampaign {
        GpuCampaign::from_outcomes(runner.run(self.gpu_campaign_jobs()))
    }

    fn gpu_metric_report(
        &self,
        campaign: &GpuCampaign,
        title: &str,
        metric: impl Fn(&GpuOutcome) -> f64,
    ) -> Report {
        let mut r = Report::new(
            title,
            GpuDesign::ALL
                .iter()
                .map(|d| d.name().to_string())
                .collect::<Vec<_>>(),
        );
        for (kernel, row) in campaign.kernel_names.iter().zip(&campaign.outcomes) {
            let values: Vec<f64> = row.iter().map(&metric).collect();
            r.push_row(*kernel, normalize(&values, 0));
        }
        r.push_mean();
        r
    }

    /// Figure 10: GPU execution time, normalized to BaseCMOS.
    pub fn fig10(&self, campaign: &GpuCampaign) -> Report {
        self.gpu_metric_report(
            campaign,
            "Figure 10: GPU execution time (normalized to BaseCMOS)",
            |o| o.seconds,
        )
    }

    /// Figure 11: GPU energy, normalized to BaseCMOS.
    pub fn fig11(&self, campaign: &GpuCampaign) -> Report {
        self.gpu_metric_report(
            campaign,
            "Figure 11: GPU energy (normalized to BaseCMOS)",
            |o| o.energy.total_j(),
        )
    }

    /// Figure 12: GPU ED^2, normalized to BaseCMOS.
    pub fn fig12(&self, campaign: &GpuCampaign) -> Report {
        self.gpu_metric_report(
            campaign,
            "Figure 12: GPU ED^2 (normalized to BaseCMOS)",
            GpuOutcome::ed2,
        )
    }

    // ---------------------------------------------------------------
    // DVFS and process variation (Figure 14).
    // ---------------------------------------------------------------

    /// Figure 14: energy of BaseCMOS and AdvHet at 1.5/2/2.5 GHz and under
    /// process-variation guardbands, normalized to BaseCMOS at 2 GHz
    /// (jobs run serially).
    pub fn fig14(&self) -> Report {
        self.fig14_from(&Runner::serial().run(self.fig14_jobs()))
    }

    /// Figure 14's jobs: one cold core per design on a representative
    /// app subset (to bound runtime) at 2, 2.5 and 1.5 GHz, ordered
    /// clock, design, app. They run at the nominal rails: the report
    /// prices each operating point's rails, so the process-variation
    /// point reuses the 2 GHz runs.
    pub fn fig14_jobs(&self) -> Vec<Job<CpuOutcome>> {
        let apps: Vec<_> = FIG14_APPS
            .iter()
            .map(|name| Fingerprinted::new(apps::profile(name).expect("known app")))
            .collect();
        let (insts, mut jobs) = (self.insts_per_app / 4, Vec::new());
        for hz in FIG14_CLOCKS {
            for design in FIG14_DESIGNS {
                let op = OperatingPoint {
                    hz,
                    ..OperatingPoint::nominal()
                };
                let point = Fingerprinted::new(design.resolve(op, None));
                for app in &apps {
                    jobs.push(cpu_job(&point, CpuRun::ColdCore, app, self.seed, insts));
                }
            }
        }
        jobs
    }

    /// Renders Figure 14 from the outcomes of [`Suite::fig14_jobs`]:
    /// each (operating point, design) cell prices its clock's runs with
    /// the design's energy model at the point's rails.
    pub fn fig14_from(&self, outcomes: &[CpuOutcome]) -> Report {
        let nominal = DvfsController::new().nominal();
        let dvfs = |hz| {
            OperatingPoint::dvfs(hz)
                .expect("reachable DVFS point")
                .volts
        };
        let guardbanded = VoltageFactors::from_voltages(
            nominal.v_cmos + CMOS_GUARDBAND_V,
            nominal.v_cmos,
            nominal.v_tfet + TFET_GUARDBAND_V,
            nominal.v_tfet,
        );
        // (label, index into FIG14_CLOCKS, rails)
        let points = [
            ("BaseFreq-2GHz", 0, VoltageFactors::default()),
            ("BoostFreq-2.5GHz", 1, dvfs(2.5e9)),
            ("SlowFreq-1.5GHz", 2, dvfs(1.5e9)),
            ("ProcessVar-2GHz", 0, guardbanded),
        ];
        let mut r = Report::new(
            "Figure 14: DVFS & process variation — energy normalized to BaseCMOS@2GHz",
            vec!["BaseCMOS".into(), "AdvHet".into()],
        );
        let per_clock: Vec<_> = outcomes
            .chunks(FIG14_DESIGNS.len() * FIG14_APPS.len())
            .collect();
        let mut baseline = None;
        for (label, clock, volts) in points {
            let mut totals = [0.0f64; 2];
            for (d, runs) in per_clock[clock].chunks(FIG14_APPS.len()).enumerate() {
                let model = FIG14_DESIGNS[d].energy_model().with_voltages(volts);
                for o in runs {
                    totals[d] += model.energy(&o.stats, &o.mem, o.seconds).total_j();
                }
            }
            let base = *baseline.get_or_insert(totals[0]);
            r.push_row(label, vec![totals[0] / base, totals[1] / base]);
        }
        r
    }

    // ---------------------------------------------------------------
    // Extensions: each declares its jobs and renders from their
    // outcomes, in declaration order.
    // ---------------------------------------------------------------

    /// The migration comparison's jobs, per application: the 4-core
    /// AdvHet chip (a CPU campaign cell) and the migration model's two
    /// characterisation runs on one warmed BaseCMOS and one warmed
    /// BaseTFET core.
    pub fn ext_migration_jobs(&self) -> Vec<Job<CpuOutcome>> {
        let advhet = nominal(CpuDesign::AdvHet);
        let cores = [nominal(CpuDesign::BaseCmos), nominal(CpuDesign::BaseTfet)];
        let chunk = MigrationConfig::default().chunk_insts();
        let mut jobs = Vec::new();
        for app in apps::all().into_iter().map(Fingerprinted::new) {
            jobs.push(self.chip_job(&advhet, BASELINE_CORES, &app));
            for point in &cores {
                jobs.push(cpu_job(point, CpuRun::Core, &app, self.seed, chunk));
            }
        }
        jobs
    }

    /// Extension: the Section VIII iso-area comparison against the
    /// thread-migration CMP, per application.
    pub fn ext_migration_from(&self, outcomes: &[CpuOutcome]) -> Report {
        let mut r = Report::new(
            "Extension (Section VIII): 4-core AdvHet vs 2 CMOS + 2 TFET migration CMP (normalized to AdvHet)",
            vec!["AdvHet time".into(), "migration time".into(), "AdvHet E".into(), "migration E".into()],
        );
        for (app, runs) in apps::all().iter().zip(outcomes.chunks(3)) {
            let (adv, fast, slow) = (&runs[0], &runs[1], &runs[2]);
            let mig = migration_cmp(
                &MigrationConfig::default(),
                app,
                self.insts_per_app,
                fast,
                slow,
            );
            let (time, energy) = (
                mig.seconds / adv.seconds,
                mig.energy.total_j() / adv.energy.total_j(),
            );
            r.push_row(app.name, vec![1.0, time, 1.0, energy]);
        }
        r.push_mean();
        r
    }

    /// The RF-organization comparison's jobs: BaseCMOS, BaseHet, AdvHet
    /// and AdvHet-PartRF on every kernel.
    pub fn ext_partitioned_rf_jobs(&self) -> Vec<Job<GpuOutcome>> {
        use GpuDesign::*;
        self.gpu_grid(&[BaseCmos, BaseHet, AdvHet, AdvHetPartitionedRf].map(|d| (d, GpuRun::Plain)))
    }

    /// Extension: partitioned RF vs. RF cache on the GPU, per kernel,
    /// normalized to BaseCMOS.
    pub fn ext_partitioned_rf_from(&self, outcomes: &[GpuOutcome]) -> Report {
        let mut r = Report::new(
            "Extension (Section VIII): GPU RF organizations (time, normalized to BaseCMOS)",
            vec![
                "BaseHet".into(),
                "AdvHet (RF cache)".into(),
                "AdvHet (part. RF)".into(),
            ],
        );
        for (kernel, runs) in hetsim_gpu::kernels::all().iter().zip(outcomes.chunks(4)) {
            let base = runs[0].seconds;
            r.push_row(
                kernel.name,
                runs[1..].iter().map(|o| o.seconds / base).collect(),
            );
        }
        r.push_mean();
        r
    }

    /// The scheduling study's jobs: BaseCMOS and BaseHet on every kernel,
    /// raw and then scheduled with a 6-instruction window.
    pub fn ext_scheduling_jobs(&self) -> Vec<Job<GpuOutcome>> {
        let (raw, scheduled) = (GpuRun::Plain, GpuRun::Scheduled { window: 6 });
        self.gpu_grid(&[
            (GpuDesign::BaseCmos, raw),
            (GpuDesign::BaseHet, raw),
            (GpuDesign::BaseCmos, scheduled),
            (GpuDesign::BaseHet, scheduled),
        ])
    }

    /// Extension: the future-work compiler scheduling pass — BaseHet's
    /// slowdown vs. BaseCMOS with and without scheduling applied to both.
    pub fn ext_scheduling_from(&self, outcomes: &[GpuOutcome]) -> Report {
        let mut r = Report::new(
            "Extension (future work, IV-C4): BaseHet slowdown with compiler scheduling",
            vec!["raw slowdown".into(), "scheduled slowdown".into()],
        );
        for (kernel, runs) in hetsim_gpu::kernels::all().iter().zip(outcomes.chunks(4)) {
            let slowdown = |base: &GpuOutcome, het: &GpuOutcome| het.seconds / base.seconds;
            let values = vec![slowdown(&runs[0], &runs[1]), slowdown(&runs[2], &runs[3])];
            r.push_row(kernel.name, values);
        }
        r.push_mean();
        r
    }

    // ---------------------------------------------------------------
    // Runs: what a set of targets simulates, and what it renders.
    // ---------------------------------------------------------------

    /// The plan of a run of `requested` and `extensions`: every job they
    /// declare, in one CPU and one GPU batch.
    pub fn plan(&self, requested: &[Experiment], extensions: &[Extension]) -> Plan {
        use Experiment::*;
        let studies = requested.iter().filter_map(|e| match e {
            Table1 | Fig1 | Fig2 | Fig3 => None,
            Fig7 | Fig8 | Fig9 | Fig13 => Some(Study::CpuCampaign),
            Fig10 | Fig11 | Fig12 => Some(Study::GpuCampaign),
            Fig14 => Some(Study::Fig14),
        });
        let studies = studies.chain(extensions.iter().map(|&x| Study::Extension(x)));
        let mut plan = Plan {
            cpu: Vec::new(),
            gpu: Vec::new(),
            slots: Vec::new(),
            targets: (requested.to_vec(), extensions.to_vec()),
        };
        let (mut cpu_keys, mut gpu_keys) = (HashMap::new(), HashMap::new());
        for study in studies {
            if plan.slots.iter().any(|(s, _)| *s == study) {
                continue;
            }
            let (cpu, gpu) = (&mut plan.cpu, &mut plan.gpu);
            let slots = match study {
                Study::CpuCampaign => add_unique(cpu, &mut cpu_keys, self.cpu_campaign_jobs()),
                Study::GpuCampaign => add_unique(gpu, &mut gpu_keys, self.gpu_campaign_jobs()),
                Study::Fig14 => add_unique(cpu, &mut cpu_keys, self.fig14_jobs()),
                Study::Extension(x) => match x {
                    Extension::Migration => {
                        add_unique(cpu, &mut cpu_keys, self.ext_migration_jobs())
                    }
                    Extension::PartitionedRf => {
                        add_unique(gpu, &mut gpu_keys, self.ext_partitioned_rf_jobs())
                    }
                    Extension::Scheduling => {
                        add_unique(gpu, &mut gpu_keys, self.ext_scheduling_jobs())
                    }
                },
            };
            plan.slots.push((study, slots));
        }
        plan
    }

    /// Renders the planned targets from `outcomes`, in request order
    /// (Figure 8 is followed by its breakdown).
    pub fn reports(&self, outcomes: &Outcomes) -> Vec<Report> {
        let (requested, extensions) = &outcomes.targets;
        let (cpu, gpu) = (outcomes.cpu_campaign(), outcomes.gpu_campaign());
        let cpu = || cpu.as_ref().expect("the plan ran the CPU campaign");
        let gpu = || gpu.as_ref().expect("the plan ran the GPU campaign");
        let mut reports = Vec::new();
        for e in requested {
            reports.push(match e {
                Experiment::Table1 => self.table1(),
                Experiment::Fig1 => self.fig1(),
                Experiment::Fig2 => self.fig2(),
                Experiment::Fig3 => self.fig3(),
                Experiment::Fig7 => self.fig7(cpu()),
                Experiment::Fig8 => self.fig8(cpu()),
                Experiment::Fig9 => self.fig9(cpu()),
                Experiment::Fig10 => self.fig10(gpu()),
                Experiment::Fig11 => self.fig11(gpu()),
                Experiment::Fig12 => self.fig12(gpu()),
                Experiment::Fig13 => self.fig13(cpu()),
                Experiment::Fig14 => self.fig14_from(&outcomes.cpu(Study::Fig14)),
            });
            if *e == Experiment::Fig8 {
                // The stacked-bar detail of Figure 8.
                reports.push(self.fig8_breakdown(cpu()));
            }
        }
        for &x in extensions {
            let study = Study::Extension(x);
            reports.push(match x {
                Extension::Migration => self.ext_migration_from(&outcomes.cpu(study)),
                Extension::PartitionedRf => self.ext_partitioned_rf_from(&outcomes.gpu(study)),
                Extension::Scheduling => self.ext_scheduling_from(&outcomes.gpu(study)),
            });
        }
        reports
    }
}

/// The clocks Figure 14 simulates (BaseCMOS clock; AdvHet keeps its
/// relative clock). Its four operating points price these runs.
const FIG14_CLOCKS: [f64; 3] = [2.0e9, 2.5e9, 1.5e9];
const FIG14_DESIGNS: [CpuDesign; 2] = [CpuDesign::BaseCmos, CpuDesign::AdvHet];
const FIG14_APPS: [&str; 6] = ["fft", "lu", "radix", "canneal", "blackscholes", "water-nsq"];

/// A Table IV design at its nominal point, fingerprinted.
fn nominal(design: CpuDesign) -> Fingerprinted<CpuPoint> {
    Fingerprinted::new(design.resolve(OperatingPoint::nominal(), None))
}

fn design_index(design: CpuDesign) -> usize {
    CpuDesign::ALL
        .iter()
        .position(|d| *d == design)
        .expect("in ALL")
}

/// A set of simulations reports render from: a campaign shared by
/// several figures, Figure 14, or one extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Study {
    CpuCampaign,
    GpuCampaign,
    Fig14,
    Extension(Extension),
}

/// Appends the jobs whose keys `batch` lacks (the first declaration of a
/// key wins) and returns every job's slot in `batch`.
fn add_unique<T>(
    batch: &mut Vec<Job<T>>,
    slots: &mut HashMap<JobKey, usize>,
    jobs: Vec<Job<T>>,
) -> Vec<usize> {
    let mut add = |job: Job<T>| {
        *slots.entry(job.key).or_insert_with(|| {
            batch.push(job);
            batch.len() - 1
        })
    };
    jobs.into_iter().map(&mut add).collect()
}

/// The simulations a run needs: one CPU and one GPU batch, each the
/// key-deduplicated union of the jobs the run's targets declare, in
/// first-declaration order. [`Plan::run`] runs them.
pub struct Plan {
    /// The CPU batch.
    pub cpu: Vec<Job<CpuOutcome>>,
    /// The GPU batch.
    pub gpu: Vec<Job<GpuOutcome>>,
    /// Each study's jobs, as slots in its simulator's batch.
    slots: Vec<(Study, Vec<usize>)>,
    /// The experiments and extensions the plan renders.
    targets: (Vec<Experiment>, Vec<Extension>),
}

impl Plan {
    /// Runs the CPU batch with `cpu` and the GPU batch with `gpu`; each
    /// returns outcomes in submission order.
    pub fn run(
        self,
        cpu: impl FnOnce(Vec<Job<CpuOutcome>>) -> Vec<CpuOutcome>,
        gpu: impl FnOnce(Vec<Job<GpuOutcome>>) -> Vec<GpuOutcome>,
    ) -> Outcomes {
        let (cpu, gpu) = (cpu(self.cpu), gpu(self.gpu));
        Outcomes {
            cpu,
            gpu,
            slots: self.slots,
            targets: self.targets,
        }
    }
}

/// A plan's outcomes, which [`Suite::reports`] renders from.
pub struct Outcomes {
    /// The CPU batch's outcomes, one per job, in submission order.
    pub(crate) cpu: Vec<CpuOutcome>,
    /// The GPU batch's outcomes, one per job, in submission order.
    pub(crate) gpu: Vec<GpuOutcome>,
    slots: Vec<(Study, Vec<usize>)>,
    targets: (Vec<Experiment>, Vec<Extension>),
}

impl Outcomes {
    /// `study`'s outcomes in `batch`, in the order it declared its jobs.
    fn of<T: Clone>(&self, study: Study, batch: &[T]) -> Vec<T> {
        let slots = self.slots.iter().find(|(s, _)| *s == study);
        slots.map_or(Vec::new(), |(_, slots)| {
            slots.iter().map(|&i| batch[i].clone()).collect()
        })
    }

    fn cpu(&self, study: Study) -> Vec<CpuOutcome> {
        self.of(study, &self.cpu)
    }

    fn gpu(&self, study: Study) -> Vec<GpuOutcome> {
        self.of(study, &self.gpu)
    }

    /// The CPU campaign, when the plan ran it.
    pub fn cpu_campaign(&self) -> Option<CpuCampaign> {
        let outcomes = self.cpu(Study::CpuCampaign);
        (!outcomes.is_empty()).then(|| CpuCampaign::from_outcomes(outcomes))
    }

    /// The GPU campaign, when the plan ran it.
    pub fn gpu_campaign(&self) -> Option<GpuCampaign> {
        let outcomes = self.gpu(Study::GpuCampaign);
        (!outcomes.is_empty()).then(|| GpuCampaign::from_outcomes(outcomes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Suite {
        Suite {
            insts_per_app: 20_000,
            seed: 7,
        }
    }

    #[test]
    fn table1_has_nine_rows_and_four_columns() {
        let t = quick().table1();
        assert_eq!(t.rows.len(), 9);
        assert_eq!(t.columns.len(), 4);
        // Spot-check a Table I value: HetJTFET supply voltage.
        assert_eq!(t.rows[0].1[1], 0.40);
    }

    #[test]
    fn fig1_tfet_wins_low_mosfet_wins_high() {
        let f = quick().fig1();
        let low = &f.rows[8].1; // Vg = 0.40
        assert!(low[0] > low[1], "TFET leads at 0.4 V");
        let high = &f.rows[16].1; // Vg = 0.80
        assert!(high[1] > high[0], "MOSFET leads at 0.8 V");
    }

    #[test]
    fn fig3_reproduces_anchor_points() {
        let f = quick().fig3();
        // Row for 0.40 V: TFET = 1 GHz.
        let row = f
            .rows
            .iter()
            .find(|(l, _)| l == "Vdd=0.40V")
            .expect("row exists");
        assert!((row.1[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn fig14_shapes() {
        let f = quick().fig14();
        // AdvHet saves energy at every operating point.
        for (label, vals) in &f.rows {
            assert!(
                vals[1] < vals[0],
                "{label}: AdvHet {} vs BaseCMOS {}",
                vals[1],
                vals[0]
            );
        }
        // Guardbands raise energy for both designs.
        let nominal = &f.rows[0].1;
        let guard = &f.rows[3].1;
        assert!(guard[0] > nominal[0]);
        assert!(guard[1] > nominal[1]);
    }

    #[test]
    fn experiment_cli_names_roundtrip() {
        for e in Experiment::ALL {
            assert_eq!(Experiment::from_cli_name(e.cli_name()), Some(e));
        }
        assert_eq!(Experiment::from_cli_name("fig99"), None);
    }
}
