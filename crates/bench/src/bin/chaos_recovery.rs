//! E12 — chaos recovery: sessions killed at seeded points, healed by the
//! farm's open-loop re-admission.
//!
//! Every session admitted here is doomed on purpose: its first incarnation
//! runs over a transport armed with a seeded *terminal* fault —
//! `disconnect_after` (the link dies and says so) or `hang_after` (frames
//! are swallowed while the link looks alive) — at a per-session cut point.
//! The farm's [`ReadmitPolicy`] then does the healing: the death (failure or
//! eviction) carries the latest boundary checkpoint out, the respawn closure
//! builds a clean transport, and the session resumes from its cut. The bin
//! asserts every healed session commits **bit-identically** to an
//! uninterrupted direct run — billed words included — and reports what the
//! chaos cost: heals, backoff wall, and the recovered-session word count
//! (bit-stable by construction — a change means the protocol stream moved,
//! not the runner).
//!
//! Run: `cargo run -p predpkt-bench --release --bin chaos_recovery [sessions]`

use std::time::{Duration, Instant};

use predpkt_bench::{bench_opts, cycles_arg};
use predpkt_channel::FaultSpec;
use predpkt_core::{
    AhbDomainModel, CoEmuConfig, EmuSession, ModePolicy, ShmOptions, TcpOptions, TransportSelect,
};
use predpkt_farm::{FarmConfig, ReadmitPolicy, SessionFarm};
use predpkt_workloads::figure2_soc;

const SEED: u64 = 0xc4a0_5bad;
/// Committed-cycle target per session — fixed, so the recovered word count
/// depends only on the session count.
const CYCLES: u64 = 120;
const WORKERS: usize = 4;
/// Kill cuts rotate over frame indices that land well inside the run at
/// `CYCLES` (the Fig.2 SoC sends a few dozen physical frames per side).
const CUTS: [u64; 4] = [3, 5, 7, 9];

/// One chaos cell: a transport medium × a terminal-fault flavour.
#[derive(Clone, Copy)]
struct Cell {
    label: &'static str,
    shm: bool,
    hang: bool,
}

const CELLS: [Cell; 4] = [
    Cell {
        label: "tcp+disconnect",
        shm: false,
        hang: false,
    },
    Cell {
        label: "shm+disconnect",
        shm: true,
        hang: false,
    },
    Cell {
        label: "tcp+hang",
        shm: false,
        hang: true,
    },
    Cell {
        label: "shm+hang",
        shm: true,
        hang: true,
    },
];

fn config() -> CoEmuConfig {
    CoEmuConfig::paper_defaults()
        .policy(ModePolicy::Auto)
        .rollback_vars(None)
}

/// What the bit-identity check compares between a healed run and the
/// uninterrupted direct run of the same seed.
#[derive(PartialEq, Debug)]
struct Fingerprint {
    trace_hash: u64,
    committed: u64,
    billed_words: u64,
    virtual_time_ps: u64,
}

fn fingerprint(session: &EmuSession<AhbDomainModel>, seed: u64) -> Fingerprint {
    let blueprint = figure2_soc(seed);
    let placement = blueprint.placement();
    Fingerprint {
        trace_hash: session
            .merged_trace(|s, a| placement.merge_records(s, a))
            .hash(),
        committed: session.committed_cycles(),
        billed_words: session.report().billed_words(),
        virtual_time_ps: session.ledger().total().as_picos(),
    }
}

fn direct_baseline(seed: u64) -> Fingerprint {
    let mut session = EmuSession::from_blueprint(&figure2_soc(seed))
        .config(config())
        .build()
        .expect("baseline builds");
    session
        .run_until_committed(CYCLES)
        .expect("baseline completes");
    fingerprint(&session, seed)
}

struct CellRow {
    label: &'static str,
    sessions: usize,
    readmitted: u64,
    gave_up: u64,
    backoff: Duration,
    wall: Duration,
    recovered_words: u64,
    identical: bool,
}

/// Runs one chaos cell: `sessions` doomed-first-incarnation sessions through
/// a healing farm, every heal verified against its direct baseline.
fn run_cell(cell: Cell, sessions: usize, baselines: &[Fingerprint]) -> CellRow {
    let farm = SessionFarm::new(
        FarmConfig::new()
            .workers(WORKERS)
            .slice_steps(64)
            .park_slice(Duration::from_micros(200))
            .deadlock_timeout(Duration::from_millis(300))
            .checkpoint_evictions(true)
            .keep_sessions(true)
            .readmit(
                ReadmitPolicy::new()
                    .max_retries(3)
                    .base_delay(Duration::from_millis(1)),
            ),
    )
    .expect("farm builds");

    let t0 = Instant::now();
    let mut ids = Vec::new();
    for i in 0..sessions {
        let seed = i as u64;
        let cut = CUTS[i % CUTS.len()];
        let fault_seed = SEED ^ seed;
        let mut incarnation = 0u32;
        let id = farm
            .submit_healable(move || {
                incarnation += 1;
                // Only the first incarnation is doomed; every respawn gets a
                // clean link — re-arming the same terminal plan would march
                // the resumed frame cursor straight back into the same cut.
                let doomed = incarnation == 1;
                let spec = if cell.hang {
                    FaultSpec::hang_after(fault_seed, cut)
                } else {
                    FaultSpec::disconnect_after(fault_seed, cut)
                };
                let transport = if cell.shm {
                    let opts = ShmOptions::default().threaded(bench_opts());
                    let opts = if doomed { opts.fault(spec) } else { opts };
                    TransportSelect::Shm(opts)
                } else {
                    let opts = TcpOptions::default().threaded(bench_opts());
                    let opts = if doomed { opts.fault(spec) } else { opts };
                    TransportSelect::Tcp(opts)
                };
                Ok(EmuSession::from_blueprint(&figure2_soc(seed))
                    .config(config())
                    .transport(transport)
                    .build()?
                    .into_sliced(CYCLES))
            })
            .expect("healable admitted");
        ids.push((seed, id));
    }
    let report = farm.join();
    let wall = t0.elapsed();

    let mut recovered_words = 0u64;
    let mut identical = true;
    for (seed, id) in ids {
        let result = report.result(id).expect("session reported");
        assert!(
            result.outcome.is_completed(),
            "{}: session seed {seed} did not heal: {}",
            cell.label,
            result.outcome
        );
        let session = result.session.as_ref().expect("keep_sessions retains it");
        let got = fingerprint(session, seed);
        identical &= got == baselines[seed as usize];
        recovered_words += got.billed_words;
    }
    assert!(
        report.stats.readmitted >= sessions as u64,
        "{}: every session was doomed, so every session must have healed \
         at least once: {}",
        cell.label,
        report.stats
    );

    CellRow {
        label: cell.label,
        sessions,
        readmitted: report.stats.readmitted,
        gave_up: report.stats.gave_up,
        backoff: report.stats.backoff,
        wall,
        recovered_words,
        identical,
    }
}

fn main() {
    // The positional argument counts *sessions per cell* here, not cycles.
    let sessions = cycles_arg(6) as usize;

    println!("== Chaos recovery: doomed sessions healed by farm re-admission ==");
    println!(
        "({sessions} sessions per cell, {CYCLES} committed cycles each, kill \
         cuts {CUTS:?}, seed {SEED:#x})\n"
    );

    let baselines: Vec<Fingerprint> = (0..sessions as u64).map(direct_baseline).collect();

    let mut identical = true;
    println!(
        "{:>16} {:>8} {:>10} {:>8} {:>11} {:>11} {:>12} {:>9}",
        "fault", "sessions", "readmitted", "gave_up", "backoff", "wall", "recov words", "identical"
    );
    for cell in CELLS {
        let row = run_cell(cell, sessions, &baselines);
        println!(
            "{:>16} {:>8} {:>10} {:>8} {:>11} {:>11} {:>12} {:>9}",
            row.label,
            row.sessions,
            row.readmitted,
            row.gave_up,
            format!("{:.1?}", row.backoff),
            format!("{:.1?}", row.wall),
            row.recovered_words,
            if row.identical { "ok" } else { "DIVERGED" }
        );
        identical &= row.identical;
    }

    println!(
        "\nevery session above was killed mid-run by a seeded terminal fault and\n\
         resumed from its latest boundary checkpoint on a fresh link; the healed\n\
         commits are bit-identical to uninterrupted runs, so the recovered word\n\
         count is deterministic."
    );

    assert!(identical, "a healed run diverged from its direct baseline");
}
