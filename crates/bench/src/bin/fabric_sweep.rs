//! E11 — fabric scaling: one co-emulation spread over N domains on a routed
//! full-mesh link fabric.
//!
//! Sweeps the domain count over mpsc mesh links (the `Threaded` backend,
//! N·(N−1)/2 links, every domain stepped on the calling thread) and reports
//! wall time, per-domain committed
//! cycles, and aggregate channel traffic — the cost curve of going from the
//! paper's two domains to a wider fabric. It asserts nothing: that a mesh
//! commits the same on every backend, per domain and per edge, is the
//! conformance matrix's (`crates/core/tests/fabric_equivalence.rs`).
//!
//! Run: `cargo run -p predpkt-bench --release --bin fabric_sweep [cycles]`

use std::time::Instant;

use predpkt_bench::{bench_opts, cycles_arg};
use predpkt_core::{
    AhbDomainModel, CoEmuConfig, EmuSession, ModePolicy, SocBlueprint, TransportSelect,
};
use predpkt_workloads::figure2_soc;

/// Domain counts swept (the full mesh grows quadratically in links: 1, 6,
/// 28, 120).
const SWEEP: [usize; 4] = [2, 4, 8, 16];

fn config() -> CoEmuConfig {
    CoEmuConfig::paper_defaults()
        .policy(ModePolicy::Auto)
        .rollback_vars(None)
}

/// One fabric run: build, run to `cycles`, return (wall, session).
fn run_fabric(
    blueprint: &SocBlueprint,
    domains: usize,
    link: TransportSelect,
    cycles: u64,
) -> (std::time::Duration, EmuSession<AhbDomainModel>) {
    let mut session = EmuSession::from_blueprint(blueprint)
        .domains(domains)
        .config(config())
        .transport(link)
        .build()
        .expect("fabric session builds");
    let t0 = Instant::now();
    session
        .run_until_committed(cycles)
        .expect("fabric run completes");
    (t0.elapsed(), session)
}

fn main() {
    let cycles = cycles_arg(400);

    println!("== Fabric sweep: N-domain co-emulation over mpsc mesh links ==");
    println!("({cycles} committed cycles per run, full mesh, all domains on one thread)\n");
    println!(
        "{:>4} {:>6} {:>12} {:>14} {:>14}",
        "n", "links", "wall", "words/domain", "wall/link"
    );
    for n in SWEEP {
        let blueprint = figure2_soc(0);
        // One untimed warmup run per shape absorbs first-touch costs
        // (thread spawn paths, allocator growth) before the timed run.
        let _ = run_fabric(
            &blueprint,
            n,
            TransportSelect::Threaded(bench_opts()),
            cycles.min(60),
        );
        let (wall, session) = run_fabric(
            &blueprint,
            n,
            TransportSelect::Threaded(bench_opts()),
            cycles,
        );
        let links = n * (n - 1) / 2;
        let total_words = session.channel_stats().total_words();
        let words_per_domain = total_words / n as u64;
        println!(
            "{:>4} {:>6} {:>12.2?} {:>14} {:>14.2?}",
            n,
            links,
            wall,
            words_per_domain,
            wall / links as u32,
        );
    }
    println!(
        "\nEvery domain halts at the same transition boundary regardless of N;\n\
         the sweep measures fabric overhead, not protocol divergence."
    );
}
