//! The first rows of the work ledger, pinned: how much work a session asks
//! of each layer per 1 000 committed cycles, read from the counters the
//! session already keeps (`PerfReport`, `CwStats`, `ChannelStats`).
//!
//! A host-time claim is work × unit cost. These rows fix the work side for
//! the LOB and the channel, so a change that moves only unit cost (a faster
//! codec, a cheaper tick) leaves them exactly where they are, and one that
//! moves the work shows up here by name. Per session, over the queue for
//! 2 000 cycles:
//!
//! * **flushed** — LOB entries the leaders flushed: every predicted cycle
//!   and every head cycle rides a burst;
//! * **reached** — entries the laggers reached (`PaperPath::L`): each is
//!   checked and ticked, and an entry after a failed prediction is never
//!   decoded, so this is also what the laggers decode;
//! * **words** and **accesses** — what the channel billed;
//! * **rollbacks** — transitions the leaders rolled back;
//! * **ticks** — half-bus ticks on both sides: predicted, head, replayed
//!   and conservative cycles and the entries the laggers reached. Over the
//!   committed cycles this is `benchmark/`'s `ahb.ticks_per_cycle`.
//!
//! Fig. 2 also runs over the loopback socket and the shm ring: the seven
//! counts must equal the queue row's, and the endpoints' `BatchStats` pin
//! what the medium cost in frames, writes, reads and empty reads.

use predpkt_channel::BatchStats;
use predpkt_core::{
    CoEmuConfig, EmuSession, ModePolicy, PaperPath, PerfReport, ShmOptions, TcpOptions,
    TransportSelect,
};
use predpkt_predict::AdaptiveSuite;
use predpkt_workloads::{figure2_soc, mesh_hotspot_soc, MeshConfig, SyntheticModel, SyntheticSoc};

const CYCLES: u64 = 2_000;

/// One row of the ledger, in raw counts over the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Row {
    committed: u64,
    flushed: u64,
    reached: u64,
    words: u64,
    accesses: u64,
    rollbacks: u64,
    ticks: u64,
}

impl Row {
    fn of(report: &PerfReport) -> Row {
        let sides = [report.sim_stats(), report.acc_stats()];
        Row {
            committed: report.committed_cycles(),
            flushed: sides
                .iter()
                .map(|s| s.predicted_cycles + s.head_cycles)
                .sum(),
            reached: sides.iter().map(|s| s.path(PaperPath::L)).sum(),
            words: report.channel().total_words(),
            accesses: report.channel().total_accesses(),
            rollbacks: sides.iter().map(|s| s.rollbacks).sum(),
            ticks: sides
                .iter()
                .map(|s| {
                    s.predicted_cycles
                        + s.head_cycles
                        + s.replayed_cycles
                        + s.conservative_cycles
                        + s.path(PaperPath::L)
                })
                .sum(),
        }
    }

    fn per_kcycle(&self, count: u64) -> f64 {
        count as f64 * 1_000.0 / self.committed as f64
    }
}

/// Runs `session` for [`CYCLES`] and prints its row per 1 000 committed
/// cycles (`--nocapture`).
fn row<M: predpkt_core::DomainModel + Send + 'static>(
    name: &str,
    session: &mut EmuSession<M>,
) -> Row {
    session
        .run_until_committed(CYCLES)
        .expect("the session runs");
    let row = Row::of(&session.report());
    println!(
        "{name}: per 1 000 committed cycles ({} committed): flushed {:.1}, \
         reached {:.1}, words {:.1}, accesses {:.1}, rollbacks {:.1}, ticks {:.1}",
        row.committed,
        row.per_kcycle(row.flushed),
        row.per_kcycle(row.reached),
        row.per_kcycle(row.words),
        row.per_kcycle(row.accesses),
        row.per_kcycle(row.rollbacks),
        row.per_kcycle(row.ticks),
    );
    row
}

/// The configuration `benchmark/` runs its AHB workloads in.
fn bench_config() -> CoEmuConfig {
    CoEmuConfig::paper_defaults()
        .policy(ModePolicy::Auto)
        .rollback_vars(None)
        .carry(true)
        .adaptive(true)
}

/// What `benchmark/` runs as `synth-p60-queue` and `synth-p100-queue`.
fn synthetic(accuracy: f64) -> EmuSession<SyntheticModel> {
    SyntheticSoc::als(accuracy, 7)
        .session()
        .config(CoEmuConfig::paper_defaults().policy(ModePolicy::ForcedAls))
        .transport(TransportSelect::Queue)
        .build()
        .expect("the synthetic session builds")
}

#[test]
fn the_synthetic_pair_at_p_0_6_is_pinned() {
    let row = row(
        "SyntheticSoc::als(0.6, 7) / queue / paper config",
        &mut synthetic(0.6),
    );
    assert_eq!(
        row,
        Row {
            committed: 2006,
            flushed: 50688,
            reached: 2006,
            words: 60990,
            accesses: 1586,
            rollbacks: 792,
            ticks: 54700,
        }
    );
}

#[test]
fn the_synthetic_pair_at_p_1_0_is_pinned() {
    let row = row(
        "SyntheticSoc::als(1.0, 7) / queue / paper config",
        &mut synthetic(1.0),
    );
    assert_eq!(
        row,
        Row {
            committed: 2048,
            flushed: 2048,
            reached: 2048,
            words: 2374,
            accesses: 66,
            rollbacks: 0,
            ticks: 4096,
        }
    );
}

/// Fig. 2's row over every medium.
const FIGURE2: Row = Row {
    committed: 2000,
    flushed: 2826,
    reached: 2000,
    words: 27035,
    accesses: 978,
    rollbacks: 274,
    ticks: 5667,
};

/// What `benchmark/` runs as `soc-queue`, `soc-tcp` and `soc-shm`.
fn figure2(name: &str, transport: TransportSelect) -> (Row, Option<BatchStats>) {
    let mut session = EmuSession::from_blueprint(&figure2_soc(7))
        .config(bench_config())
        .transport(transport)
        .build()
        .expect("the Fig. 2 session builds");
    let row = row(name, &mut session);
    let io = session.batch_stats();
    println!("{name}: {io:?}");
    (row, io)
}

#[test]
fn the_figure2_soc_is_pinned() {
    let (row, io) = figure2(
        "figure2_soc(7) / queue / bench config",
        TransportSelect::Queue,
    );
    assert_eq!(row, FIGURE2);
    assert_eq!(io, None, "the queue has no physical medium");
}

#[test]
fn the_figure2_soc_over_tcp_is_pinned() {
    let (row, io) = figure2(
        "figure2_soc(7) / tcp / bench config",
        TransportSelect::Tcp(TcpOptions::default()),
    );
    assert_eq!(row, FIGURE2);
    assert_eq!(
        io,
        Some(BatchStats {
            frames: 978,
            physical_writes: 719,
            physical_reads: 723,
            empty_reads: 4,
        })
    );
}

#[test]
fn the_figure2_soc_over_shm_is_pinned() {
    let (row, io) = figure2(
        "figure2_soc(7) / shm / bench config",
        TransportSelect::Shm(ShmOptions::default()),
    );
    assert_eq!(row, FIGURE2);
    assert_eq!(
        io,
        Some(BatchStats {
            frames: 978,
            physical_writes: 721,
            physical_reads: 725,
            empty_reads: 4,
        })
    );
}

#[test]
fn the_hotspot_mesh_is_pinned() {
    // What `benchmark/` runs as `mesh-adaptive-queue`.
    let mut session = EmuSession::from_blueprint(&mesh_hotspot_soc(MeshConfig {
        seed: 7,
        ..MeshConfig::default()
    }))
    .config(bench_config())
    .predictors(AdaptiveSuite::default())
    .transport(TransportSelect::Queue)
    .build()
    .expect("the mesh session builds");
    let row = row(
        "mesh_hotspot_soc(7) / queue / adaptive / bench config",
        &mut session,
    );
    assert_eq!(
        row,
        Row {
            committed: 2056,
            flushed: 2473,
            reached: 2056,
            words: 14899,
            accesses: 728,
            rollbacks: 213,
            ticks: 5020,
        }
    );
}
