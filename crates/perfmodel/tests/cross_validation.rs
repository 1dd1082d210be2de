//! Cross-validation: the closed-form model must agree with the discrete-event
//! measurement of the actual protocol engine on the synthetic harness.
//!
//! This is the strongest evidence the analytic Table 2 / Figure 4 generators
//! describe the real mechanism rather than a convenient idealization. Every
//! measurement is a `SyntheticSoc::session()` halted at a transition
//! boundary, the run `table2` and `figure4` measure.

use predpkt_channel::Side;
use predpkt_core::{CoEmuConfig, ModePolicy};
use predpkt_perfmodel::{AnalyticRow, ModelParams};
use predpkt_sim::CostCategory;
use predpkt_workloads::SyntheticSoc;

fn measure(p: f64, config: CoEmuConfig, cycles: u64) -> predpkt_core::PerfReport {
    let soc = match config.policy {
        ModePolicy::ForcedSla => SyntheticSoc::sla(p, 0xabcd),
        _ => SyntheticSoc::als(p, 0xabcd),
    };
    let mut session = soc.session().config(config).build().unwrap();
    session.run_until_committed(cycles).unwrap();
    session.report()
}

/// Relative error helper.
fn rel(measured: f64, modeled: f64) -> f64 {
    (measured - modeled).abs() / modeled.max(1e-30)
}

#[test]
fn fixed_depth_model_matches_des_across_accuracies() {
    let config = CoEmuConfig::paper_defaults().policy(ModePolicy::ForcedAls);
    let params = ModelParams::from_config(&config, Side::Accelerator);
    for &p in &[1.0, 0.99, 0.9, 0.7, 0.4, 0.1] {
        let report = measure(p, config, 30_000);
        let row = AnalyticRow::at(&params, p);
        let e = rel(report.performance_cps(), row.performance);
        assert!(
            e < 0.08,
            "p={p}: DES {} vs model {} ({:.1}% off)",
            report.performance_cps(),
            row.performance,
            e * 100.0
        );
        // Row-level agreement for the dominant buckets.
        assert!(
            rel(report.per_cycle(CostCategory::Accelerator), row.t_acc) < 0.10,
            "p={p}: Tacc DES {} vs model {}",
            report.per_cycle(CostCategory::Accelerator),
            row.t_acc
        );
        assert!(
            rel(report.per_cycle(CostCategory::Channel), row.t_channel) < 0.15,
            "p={p}: Tch DES {} vs model {}",
            report.per_cycle(CostCategory::Channel),
            row.t_channel
        );
    }
}

#[test]
fn adaptive_model_matches_des() {
    let config = CoEmuConfig::paper_defaults()
        .policy(ModePolicy::ForcedAls)
        .adaptive(true);
    let params = ModelParams::from_config(&config, Side::Accelerator);
    for &p in &[1.0, 0.9, 0.5, 0.1] {
        let report = measure(p, config, 30_000);
        let row = AnalyticRow::at_adaptive(&params, p);
        let e = rel(report.performance_cps(), row.performance);
        assert!(
            e < 0.15,
            "p={p}: adaptive DES {} vs model {} ({:.1}% off)",
            report.performance_cps(),
            row.performance,
            e * 100.0
        );
    }
}

#[test]
fn sla_model_matches_des() {
    let config = CoEmuConfig::paper_defaults().policy(ModePolicy::ForcedSla);
    let params = ModelParams::from_config(&config, Side::Simulator);
    for &p in &[1.0, 0.9, 0.7] {
        let report = measure(p, config, 20_000);
        let row = AnalyticRow::at(&params, p);
        let e = rel(report.performance_cps(), row.performance);
        assert!(
            e < 0.08,
            "p={p}: SLA DES {} vs model {} ({:.1}% off)",
            report.performance_cps(),
            row.performance,
            e * 100.0
        );
    }
}

#[test]
fn conventional_model_matches_des() {
    let config = CoEmuConfig::paper_defaults().policy(ModePolicy::Conservative);
    let params = ModelParams::from_config(&config, Side::Accelerator);
    let report = measure(1.0, config, 3_000);
    assert!(rel(report.performance_cps(), params.conventional_perf()) < 0.03);
}
