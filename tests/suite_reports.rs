//! Integration tests for the experiment suite: every report is
//! well-formed and shows the paper's qualitative shapes at a quick budget.

use hetcore_repro::hetcore::suite::{cpu_campaign_columns, Experiment, Suite};
use hetcore_repro::hetcore::CpuDesign;

fn quick() -> Suite {
    Suite {
        insts_per_app: 40_000,
        seed: 7,
    }
}

#[test]
fn device_reports_are_well_formed() {
    let s = quick();
    let t1 = s.table1();
    assert_eq!(t1.columns.len(), 4);
    assert_eq!(t1.rows.len(), 9);
    let f1 = s.fig1();
    assert_eq!(
        f1.columns,
        vec!["HetJTFET".to_string(), "MOSFET".to_string()]
    );
    let f2 = s.fig2();
    assert_eq!(f2.columns.len(), 3);
    let f3 = s.fig3();
    assert!(f3.rows.iter().all(|(_, v)| v.len() == 2));
}

#[test]
fn cpu_campaign_covers_all_designs_and_apps() {
    let s = quick();
    let c = s.cpu_campaign();
    assert_eq!(c.app_names.len(), 14);
    assert_eq!(cpu_campaign_columns().len(), 11, "10 designs + AdvHet-2X");
    for row in &c.outcomes {
        assert_eq!(row.len(), 11);
        for o in row {
            assert!(o.seconds > 0.0);
            assert!(o.energy.total_j() > 0.0);
        }
    }

    // Figures 7-9 share the campaign and are normalized to BaseCMOS = 1.
    let f7 = s.fig7(&c);
    let f8 = s.fig8(&c);
    let f9 = s.fig9(&c);
    for f in [&f7, &f8, &f9] {
        assert_eq!(f.rows.len(), 15, "14 apps + mean");
        for (label, vals) in &f.rows {
            assert!(
                (vals[0] - 1.0).abs() < 1e-12,
                "{label}: BaseCMOS column is 1"
            );
        }
    }

    // Headline shapes on the mean row.
    let t_mean = f7.mean_row().expect("mean exists");
    assert!(t_mean[2] > 1.6, "BaseTFET mean time {}", t_mean[2]); // col 2 = BaseTFET
    assert!(t_mean[4] < t_mean[3], "AdvHet faster than BaseHet");
    let e_mean = f8.mean_row().expect("mean exists");
    assert!(e_mean[2] < 0.35, "BaseTFET mean energy {}", e_mean[2]);
    assert!(e_mean[4] < 0.8, "AdvHet saves energy: {}", e_mean[4]);
    let ed2_mean = f9.mean_row().expect("mean exists");
    assert!(ed2_mean[5] < ed2_mean[0], "AdvHet-2X has the best ED^2");

    // Figure 13 has the four metric rows over eight designs.
    let f13 = s.fig13(&c);
    assert_eq!(f13.rows.len(), 4);
    assert_eq!(f13.columns.len(), 8);

    // The Figure 8 breakdown's six components sum to each design's total.
    let fb = s.fig8_breakdown(&c);
    assert_eq!(fb.rows.len(), 6);
    let total: f64 = fb.rows.iter().map(|(_, v)| v[0]).sum();
    assert!(
        (total - 1.0).abs() < 1e-9,
        "BaseCMOS components sum to 1, got {total}"
    );
}

#[test]
fn power_budget_premise_holds() {
    // Section VII-A1: "an AdvHet core consumes half the power of a
    // BaseCMOS one. Hence, under the same power budget, we can power twice
    // as many AdvHet cores." Bands are generous.
    let s = quick();
    let c = s.cpu_campaign();
    // A campaign column's chip power over the 4-core BaseCMOS chip's
    // (column 0), averaged over the applications.
    let mean_share = |column: usize| {
        let shares = c
            .outcomes
            .iter()
            .map(|row| row[column].power_w() / row[0].power_w());
        shares.sum::<f64>() / c.outcomes.len() as f64
    };
    let advhet = CpuDesign::ALL.iter().position(|d| *d == CpuDesign::AdvHet);
    let advhet4 = mean_share(advhet.expect("AdvHet in ALL"));
    let twox8 = mean_share(CpuDesign::ALL.len());
    assert!(
        (0.35..0.7).contains(&advhet4),
        "AdvHet power share {advhet4}"
    );
    assert!(
        (0.7..1.3).contains(&twox8),
        "8-core 2X chip sits near the budget: {twox8}"
    );
}

#[test]
fn gpu_campaign_and_figures() {
    let s = quick();
    let c = s.gpu_campaign();
    assert_eq!(c.kernel_names.len(), 20);
    let f10 = s.fig10(&c);
    let f11 = s.fig11(&c);
    let f12 = s.fig12(&c);
    for f in [&f10, &f11, &f12] {
        assert_eq!(f.rows.len(), 21, "20 kernels + mean");
        assert_eq!(f.columns.len(), 5);
    }
    let t = f10.mean_row().expect("mean");
    assert!(t[1] > 1.3, "GPU BaseTFET mean time {}", t[1]);
    assert!(t[4] < 1.0, "AdvHet-2X mean time {}", t[4]);
    let e = f11.mean_row().expect("mean");
    assert!(e[1] < 0.35, "GPU BaseTFET mean energy {}", e[1]);
    let ed2 = f12.mean_row().expect("mean");
    assert!(ed2[4] < 0.6, "GPU AdvHet-2X ED^2 {}", ed2[4]);
}

#[test]
fn fig14_shapes_hold() {
    let s = quick();
    let f = s.fig14();
    assert_eq!(f.rows.len(), 4);
    // AdvHet saves energy at every operating point; guardbands cost both.
    for (label, vals) in &f.rows {
        assert!(vals[1] < vals[0], "{label}");
    }
    assert!(
        f.rows[3].1[0] > f.rows[0].1[0],
        "variation raises BaseCMOS energy"
    );
    assert!(
        f.rows[3].1[1] > f.rows[0].1[1],
        "variation raises AdvHet energy"
    );
    // Boost costs energy; slowdown saves it (per unit of baseline).
    assert!(f.rows[1].1[0] > f.rows[0].1[0]);
}

#[test]
fn experiment_registry_is_complete() {
    assert_eq!(Experiment::ALL.len(), 12);
    for e in Experiment::ALL {
        assert_eq!(Experiment::from_cli_name(e.cli_name()), Some(e));
    }
}
