//! E11 — fabric scaling: one co-emulation spread over N domains on a routed
//! full-mesh link fabric.
//!
//! Sweeps the domain count over mpsc mesh links (the `Threaded` backend,
//! N·(N−1)/2 links, every domain stepped on the calling thread) and reports
//! wall time, per-domain committed
//! cycles, and aggregate channel traffic — the cost curve of going from the
//! paper's two domains to a wider fabric. Before the timed sweep, a
//! bit-identity probe checks that a 3-domain session over shared-memory
//! rings commits exactly what it commits over the queue backend — whose
//! 3-domain links are mpsc pairs, a different medium — per domain and per
//! edge.
//!
//! Run: `cargo run -p predpkt-bench --release --bin fabric_sweep [cycles]`

use std::time::Instant;

use predpkt_bench::{bench_opts, cycles_arg};
use predpkt_core::{
    AhbDomainModel, CoEmuConfig, EmuSession, ModePolicy, ShmOptions, SocBlueprint, TransportSelect,
};
use predpkt_workloads::figure2_soc;

/// Domain counts swept (the full mesh grows quadratically in links: 1, 6,
/// 28, 120).
const SWEEP: [usize; 4] = [2, 4, 8, 16];
const PROBE_CYCLES: u64 = 120;
const PROBE_DOMAINS: usize = 3;

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

/// Per-domain and per-edge results of a probe run, for bit-identity
/// comparison across runners.
fn probe_fingerprint(session: &EmuSession<AhbDomainModel>, blueprint: &SocBlueprint) -> Vec<u64> {
    let placement = blueprint.placement();
    let mut out = Vec::new();
    for d in 0..session.domains() {
        out.push(session.domain_committed(d));
        out.push(session.domain_ledger(d).total().as_picos());
        out.push(session.domain_channel_stats(d).total_words());
    }
    for e in 0..session.edges().len() {
        out.push(
            session
                .edge_trace(e, |s, a| placement.merge_records(s, a))
                .hash(),
        );
    }
    out
}

/// The bit-identity probe: a 3-domain session over shm rings against the
/// queue baseline. (`Threaded` would not do: past two domains it builds the
/// very mpsc mesh `Queue` builds, and the probe could never fail.)
fn probe_bit_identity() -> bool {
    let blueprint = figure2_soc(0);
    let (_, baseline) = run_fabric(
        &blueprint,
        PROBE_DOMAINS,
        TransportSelect::Queue,
        PROBE_CYCLES,
    );
    let (_, rings) = run_fabric(
        &blueprint,
        PROBE_DOMAINS,
        TransportSelect::Shm(ShmOptions::default().threaded(bench_opts())),
        PROBE_CYCLES,
    );
    let identical =
        probe_fingerprint(&baseline, &blueprint) == probe_fingerprint(&rings, &blueprint);
    println!(
        "  bit-identity fabric n={PROBE_DOMAINS} {}",
        if identical {
            "ok"
        } else {
            "DIVERGED (conformance bug!)"
        }
    );
    identical
}

fn main() {
    let cycles = cycles_arg(400);

    println!("== Fabric sweep: N-domain co-emulation over mpsc mesh links ==");
    println!("({cycles} committed cycles per run, full mesh, all domains on one thread)\n");
    let identical = probe_bit_identity();

    println!(
        "\n{:>4} {:>6} {:>12} {:>14} {:>14}",
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

    assert!(identical, "shm fabric diverged from queue baseline");
}
