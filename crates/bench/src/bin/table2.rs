//! E2 — regenerates the paper's **Table 2** (Performance of ALS).
//!
//! Prints, for each accuracy column: the paper's published row, the closed-form
//! model, and the discrete-event measurement of the actual protocol engine —
//! for the paper-faithful fixed-depth mechanism and for the adaptive-depth
//! mechanism (the `predpkt_perfmodel::model` module docs state the
//! difference).
//!
//! Run: `cargo run -p predpkt-bench --release --bin table2 [cycles]`

use predpkt_bench::{cycles_arg, fmt_kcps, fmt_sci, print_row, run_synthetic};
use predpkt_channel::Side;
use predpkt_core::{CoEmuConfig, ModePolicy, PerfReport};
use predpkt_perfmodel::{AnalyticRow, ModelParams, PAPER_TABLE2};
use predpkt_sim::CostCategory;

/// How a row formats one column.
type Cell = fn(&AnalyticRow) -> String;

/// The seven rows of every block.
const ROWS: [(&str, Cell); 7] = [
    ("Tsim.", |c| fmt_sci(c.t_sim)),
    ("Tacc.", |c| fmt_sci(c.t_acc)),
    ("Tstore", |c| fmt_sci(c.t_store)),
    ("Trest.", |c| fmt_sci(c.t_restore)),
    ("Tch.", |c| fmt_sci(c.t_channel)),
    ("Perform.", |c| fmt_kcps(c.performance)),
    ("Ratio", |c| format!("{:.2}", c.ratio)),
];

fn print_block(name: &str, columns: &[AnalyticRow]) {
    println!("\n-- {name} --");
    for (label, cell) in ROWS {
        print_row(label, &columns.iter().map(cell).collect::<Vec<_>>());
    }
}

/// A discrete-event measurement at accuracy `p`, in the table's column shape.
fn measured(p: f64, report: &PerfReport, baseline: f64) -> AnalyticRow {
    AnalyticRow {
        accuracy: p,
        t_sim: report.per_cycle(CostCategory::Simulator),
        t_acc: report.per_cycle(CostCategory::Accelerator),
        t_store: report.per_cycle(CostCategory::StateStore),
        t_restore: report.per_cycle(CostCategory::StateRestore),
        t_channel: report.per_cycle(CostCategory::Channel),
        performance: report.performance_cps(),
        ratio: report.ratio_vs(baseline),
    }
}

fn main() {
    let cycles = cycles_arg(60_000);
    let accuracies = PAPER_TABLE2.map(|c| c.accuracy);

    println!("== Table 2: Performance of ALS ==");
    println!("(sim 1,000 kcycles/s, acc 10 Mcycles/s, LOB 64, 1,000 rollback vars, iPROVE PCI)\n");
    print_row("Prob.", &accuracies.map(|p| format!("{p:.3}")));
    print_block("paper (published)", &PAPER_TABLE2);

    let fixed = CoEmuConfig::paper_defaults().policy(ModePolicy::ForcedAls);
    let adaptive = fixed.adaptive(true);
    let params = ModelParams::from_config(&fixed, Side::Accelerator);
    let baseline = params.conventional_perf();
    print_block(
        "analytic, fixed depth",
        &accuracies.map(|p| AnalyticRow::at(&params, p)),
    );
    print_block(
        "analytic, adaptive",
        &accuracies.map(|p| AnalyticRow::at_adaptive(&params, p)),
    );

    for (name, config) in [
        ("measured (DES), fixed depth", fixed),
        ("measured (DES), adaptive", adaptive),
    ] {
        let reports = accuracies.map(|p| run_synthetic(p, config, cycles));
        let columns: Vec<_> = accuracies
            .iter()
            .zip(&reports)
            .map(|(&p, report)| measured(p, report, baseline))
            .collect();
        print_block(
            &format!("{name}, {cycles} committed cycles per point"),
            &columns,
        );
        print_row(
            "observed p",
            &reports
                .iter()
                .map(|r| {
                    r.observed_accuracy()
                        .map_or("-".to_string(), |a| format!("{a:.3}"))
                })
                .collect::<Vec<_>>(),
        );
    }

    println!(
        "\nconventional baseline: {} (paper: 38.9k)  |  E5 abstract claim: \
         gain at p=1.0 = {:.0}% (paper: ~1500%)",
        fmt_kcps(baseline),
        (AnalyticRow::at(&params, 1.0).ratio - 1.0) * 100.0
    );
}
