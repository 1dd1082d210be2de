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
use predpkt_core::{CoEmuConfig, ModePolicy};
use predpkt_perfmodel::{AnalyticRow, ModelParams};
use predpkt_sim::CostCategory;

const ACCURACIES: [f64; 8] = [1.0, 0.99, 0.96, 0.9, 0.8, 0.6, 0.3, 0.1];

/// Paper Table 2 rows, transcribed.
const PAPER_T_ACC: [f64; 8] = [
    1.0e-7, 1.6e-7, 2.9e-7, 4.9e-7, 8.1e-7, 1.5e-6, 2.4e-6, 3.0e-6,
];
const PAPER_T_STORE: [f64; 8] = [
    4.69e-10, 7.6e-10, 1.6e-9, 3.3e-9, 6.2e-9, 1.2e-8, 2.1e-8, 2.7e-8,
];
const PAPER_T_REST: [f64; 8] = [0.0, 2.9e-10, 1.2e-9, 2.9e-9, 5.7e-9, 1.2e-8, 2.0e-8, 2.6e-8];
const PAPER_T_CH: [f64; 8] = [
    4.3e-7, 6.8e-7, 1.5e-6, 2.9e-6, 5.4e-6, 1.1e-5, 1.8e-5, 2.3e-5,
];
const PAPER_PERF: [f64; 8] = [652e3, 543e3, 363e3, 226e3, 138e3, 76.7e3, 46.1e3, 36.7e3];
const PAPER_RATIO: [f64; 8] = [16.75, 13.97, 9.33, 5.80, 3.56, 1.91, 1.19, 0.94];

fn main() {
    let cycles = cycles_arg(60_000);

    println!("== Table 2: Performance of ALS ==");
    println!("(sim 1,000 kcycles/s, acc 10 Mcycles/s, LOB 64, 1,000 rollback vars, iPROVE PCI)\n");

    let header: Vec<String> = ACCURACIES.iter().map(|p| format!("{p:.3}")).collect();
    print_row("Prob.", &header);

    // --- Paper rows ----------------------------------------------------------
    println!("\n-- paper (published) --");
    print_row("Tsim.", ACCURACIES.map(|_| fmt_sci(1.0e-6)).as_ref());
    print_row("Tacc.", PAPER_T_ACC.map(fmt_sci).as_ref());
    print_row("Tstore", PAPER_T_STORE.map(fmt_sci).as_ref());
    print_row("Trest.", PAPER_T_REST.map(fmt_sci).as_ref());
    print_row("Tch.", PAPER_T_CH.map(fmt_sci).as_ref());
    print_row("Perform.", PAPER_PERF.map(fmt_kcps).as_ref());
    print_row("Ratio", PAPER_RATIO.map(|r| format!("{r:.2}")).as_ref());

    let fixed = CoEmuConfig::paper_defaults().policy(ModePolicy::ForcedAls);
    let adaptive = fixed.adaptive(true);
    let params = ModelParams::from_config(&fixed, Side::Accelerator);
    let baseline = params.conventional_perf();

    // --- Closed-form model ----------------------------------------------------
    for (name, is_adaptive) in [
        ("analytic, fixed depth", false),
        ("analytic, adaptive", true),
    ] {
        println!("\n-- {name} --");
        let rows: Vec<AnalyticRow> = ACCURACIES
            .iter()
            .map(|&p| {
                if is_adaptive {
                    AnalyticRow::at_adaptive(&params, p)
                } else {
                    AnalyticRow::at(&params, p)
                }
            })
            .collect();
        print_row(
            "Tsim.",
            &rows.iter().map(|r| fmt_sci(r.t_sim)).collect::<Vec<_>>(),
        );
        print_row(
            "Tacc.",
            &rows.iter().map(|r| fmt_sci(r.t_acc)).collect::<Vec<_>>(),
        );
        print_row(
            "Tstore",
            &rows.iter().map(|r| fmt_sci(r.t_store)).collect::<Vec<_>>(),
        );
        print_row(
            "Trest.",
            &rows
                .iter()
                .map(|r| fmt_sci(r.t_restore))
                .collect::<Vec<_>>(),
        );
        print_row(
            "Tch.",
            &rows
                .iter()
                .map(|r| fmt_sci(r.t_channel))
                .collect::<Vec<_>>(),
        );
        print_row(
            "Perform.",
            &rows
                .iter()
                .map(|r| fmt_kcps(r.performance))
                .collect::<Vec<_>>(),
        );
        print_row(
            "Ratio",
            &rows
                .iter()
                .map(|r| format!("{:.2}", r.ratio))
                .collect::<Vec<_>>(),
        );
    }

    // --- Discrete-event measurement -------------------------------------------
    for (name, config) in [
        ("measured (DES), fixed depth", fixed),
        ("measured (DES), adaptive", adaptive),
    ] {
        println!("\n-- {name}, {cycles} committed cycles per point --");
        let reports: Vec<_> = ACCURACIES
            .iter()
            .map(|&p| run_synthetic(p, config, cycles))
            .collect();
        print_row(
            "Tsim.",
            &reports
                .iter()
                .map(|r| fmt_sci(r.per_cycle(CostCategory::Simulator)))
                .collect::<Vec<_>>(),
        );
        print_row(
            "Tacc.",
            &reports
                .iter()
                .map(|r| fmt_sci(r.per_cycle(CostCategory::Accelerator)))
                .collect::<Vec<_>>(),
        );
        print_row(
            "Tstore",
            &reports
                .iter()
                .map(|r| fmt_sci(r.per_cycle(CostCategory::StateStore)))
                .collect::<Vec<_>>(),
        );
        print_row(
            "Trest.",
            &reports
                .iter()
                .map(|r| fmt_sci(r.per_cycle(CostCategory::StateRestore)))
                .collect::<Vec<_>>(),
        );
        print_row(
            "Tch.",
            &reports
                .iter()
                .map(|r| fmt_sci(r.per_cycle(CostCategory::Channel)))
                .collect::<Vec<_>>(),
        );
        print_row(
            "Perform.",
            &reports
                .iter()
                .map(|r| fmt_kcps(r.performance_cps()))
                .collect::<Vec<_>>(),
        );
        print_row(
            "Ratio",
            &reports
                .iter()
                .map(|r| format!("{:.2}", r.ratio_vs(baseline)))
                .collect::<Vec<_>>(),
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
