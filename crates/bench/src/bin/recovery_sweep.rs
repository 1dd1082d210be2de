//! E8 — retransmission overhead vs. fault rate: what an unreliable link
//! really costs under the paper's channel model.
//!
//! Runs the Fig. 2-shaped SoC over `Reliable{Lossy}` across a drop-rate sweep
//! (plus truncation and duplication rows) and reports the recovery work and
//! the billed channel traffic relative to the clean `QueueTransport` run —
//! the same accounting the transport-equivalence suite proves is protocol-
//! invisible.
//!
//! Run: `cargo run -p predpkt-bench --release --bin recovery_sweep [cycles]`

use predpkt_bench::{cycles_arg, fig2_soc};
use predpkt_channel::FaultSpec;
use predpkt_core::{
    CoEmuConfig, EmuSession, ModePolicy, PerfReport, ReliableInner, TransportSelect,
};

const SEED: u64 = 0x5eed_2025;
const DROP_RATES: [f64; 6] = [0.0, 0.02, 0.05, 0.1, 0.2, 0.3];

fn run(backend: TransportSelect, cycles: u64) -> PerfReport {
    let blueprint = fig2_soc();
    let config = CoEmuConfig::paper_defaults()
        .policy(ModePolicy::Auto)
        .rollback_vars(None)
        .carry(true)
        .adaptive(true);
    let mut session = EmuSession::from_blueprint(&blueprint)
        .config(config)
        .transport(backend)
        .build()
        .expect("session builds");
    session
        .run_until_committed(cycles)
        .expect("reliable session survives");
    session.report()
}

struct Row {
    label: String,
    retransmits: u64,
    acks: u64,
    dups: u64,
    crc_rejects: u64,
    reorder_drops: u64,
    overhead_words: u64,
    billed_words: u64,
    overhead_ratio: f64,
}

fn row(label: String, report: &PerfReport, clean_words: u64) -> Row {
    let r = report.recovery().copied().unwrap_or_default();
    Row {
        label,
        retransmits: r.retransmits,
        acks: r.acks_sent,
        dups: r.duplicates_suppressed,
        crc_rejects: r.crc_rejects,
        reorder_drops: r.out_of_order_drops,
        overhead_words: r.overhead_words,
        billed_words: report.billed_words(),
        overhead_ratio: report.billed_words() as f64 / clean_words as f64,
    }
}

fn main() {
    let cycles = cycles_arg(400);

    let clean = run(TransportSelect::Queue, cycles);
    let clean_words = clean.billed_words();
    println!("== Recovery overhead vs. fault rate ==");
    println!(
        "(Fig.2-shaped SoC, {cycles} cycles, seed {SEED:#x}; clean queue run bills {clean_words} words)\n"
    );
    println!(
        "{:>16} {:>10} {:>8} {:>8} {:>8} {:>8} {:>10} {:>10} {:>8}",
        "fault", "retrans", "acks", "dups", "crcrej", "reord", "ovh words", "billed", "x clean"
    );

    let mut rows = Vec::new();
    for rate in DROP_RATES {
        let report = run(
            TransportSelect::Reliable {
                inner: ReliableInner::Lossy(FaultSpec::drops(SEED, rate)),
                window: 8,
                retry_budget: 16,
            },
            cycles,
        );
        rows.push(row(format!("drop {rate:.2}"), &report, clean_words));
    }
    for (label, spec) in [
        ("trunc 0.10", FaultSpec::truncations(SEED, 0.1)),
        ("dup 0.20", FaultSpec::duplicates(SEED, 0.2)),
        (
            "mixed",
            FaultSpec {
                drop_rate: 0.1,
                truncate_rate: 0.08,
                duplicate_rate: 0.1,
                ..FaultSpec::none(SEED)
            },
        ),
    ] {
        let report = run(
            TransportSelect::Reliable {
                inner: ReliableInner::Lossy(spec),
                window: 8,
                retry_budget: 16,
            },
            cycles,
        );
        rows.push(row(label.to_string(), &report, clean_words));
    }

    for r in &rows {
        println!(
            "{:>16} {:>10} {:>8} {:>8} {:>8} {:>8} {:>10} {:>10} {:>8.3}",
            r.label,
            r.retransmits,
            r.acks,
            r.dups,
            r.crc_rejects,
            r.reorder_drops,
            r.overhead_words,
            r.billed_words,
            r.overhead_ratio
        );
    }

    println!(
        "\nthe reliability layer keeps every run bit-identical to the clean one; the\n\
         columns above are the price — billed through the same iPROVE PCI cost model\n\
         the paper uses, so Table-2-style figures stay honest on unreliable links."
    );
}
