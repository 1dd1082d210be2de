//! Accuracy × traffic sweep: every predictor suite against every zoo
//! workload on several transport backends.
//!
//! The paper's premise is that prediction accuracy drives channel traffic;
//! this bin makes that relationship a standing artifact. For each cell of
//! the suite × workload × backend matrix it reports the observed prediction
//! hit rate, the billed channel traffic in words, and wall-clock time.
//! The words column is fully deterministic (it depends only on the protocol
//! event stream, which conformance pins across backends); the wall column is
//! context only — host speed is read from `benchmark/`. That the
//! sequence-learning suites move fewer words than last-value on the hotspot
//! mesh is a test (`tests/workspace_integration.rs`).
//!
//! Run: `cargo run -p predpkt-bench --release --bin accuracy_sweep [cycles]`

use std::time::Instant;

use predpkt_bench::{bench_opts, cycles_arg};
use predpkt_core::{
    CoEmuConfig, EmuSession, ModePolicy, ShmOptions, SocBlueprint, TransportSelect,
};
use predpkt_predict::{AdaptiveSuite, LastValueSuite, MarkovSuite, PaperSuite};
use predpkt_workloads::{
    descriptor_ring_soc, figure2_soc, mesh_hotspot_soc, MeshConfig, RingConfig,
};

const SUITES: &[&str] = &["paper", "lastvalue", "markov", "adaptive"];

fn workloads() -> Vec<(&'static str, SocBlueprint)> {
    vec![
        ("mesh-hotspot", mesh_hotspot_soc(MeshConfig::default())),
        ("desc-ring", descriptor_ring_soc(RingConfig::default())),
        ("figure2", figure2_soc(42)),
    ]
}

fn backends() -> Vec<(&'static str, TransportSelect)> {
    vec![
        ("queue", TransportSelect::Queue),
        ("threaded", TransportSelect::Threaded(bench_opts())),
        (
            "shm",
            TransportSelect::Shm(ShmOptions::default().threaded(bench_opts())),
        ),
    ]
}

fn config() -> CoEmuConfig {
    CoEmuConfig::paper_defaults()
        .policy(ModePolicy::Auto)
        .rollback_vars(None)
}

/// One cell: build with the named suite, run, return (hit rate, words, wall).
fn run_cell(
    suite: &str,
    blueprint: &SocBlueprint,
    backend: TransportSelect,
    cycles: u64,
) -> (f64, u64, f64) {
    let builder = EmuSession::from_blueprint(blueprint)
        .config(config())
        .transport(backend);
    let builder = match suite {
        "paper" => builder.predictors(PaperSuite),
        "lastvalue" => builder.predictors(LastValueSuite),
        "markov" => builder.predictors(MarkovSuite),
        "adaptive" => builder.predictors(AdaptiveSuite::default()),
        other => unreachable!("unknown suite {other}"),
    };
    let mut session = builder.build().expect("session builds");
    let t0 = Instant::now();
    session.run_until_committed(cycles).expect("run completes");
    let wall = t0.elapsed();
    let report = session.report();
    (
        report.observed_accuracy().unwrap_or(f64::NAN),
        session.channel_stats().total_words(),
        wall.as_secs_f64() * 1e6,
    )
}

fn main() {
    let cycles = cycles_arg(1600);
    let workloads = workloads();
    let backends = backends();

    println!("== Accuracy × traffic sweep: suite × workload × backend ==");
    println!("({cycles} committed cycles per cell)\n");
    println!(
        "{:>10} {:>14} {:>9} {:>9} {:>12} {:>10}",
        "suite", "workload", "backend", "hit", "words", "wall"
    );

    for (wname, blueprint) in &workloads {
        for (bname, backend) in &backends {
            for suite in SUITES {
                let (hit, words, wall_us) = run_cell(suite, blueprint, *backend, cycles);
                println!(
                    "{:>10} {:>14} {:>9} {:>9} {:>12} {:>9.0}µs",
                    suite,
                    wname,
                    bname,
                    if hit.is_finite() {
                        format!("{:.3}", hit)
                    } else {
                        "-".into()
                    },
                    words,
                    wall_us
                );
            }
        }
    }
}
