//! N-domain fabric conformance: every fabric backend commits exactly what
//! the queue-fabric baseline commits, per domain and per edge,
//! for N ∈ {2, 3, 8} — and the N = 2 fabric degenerates bit-for-bit to the
//! two-domain session it generalizes.
//!
//! The comparison is the transport-conformance property lifted to the
//! fabric: per-domain committed cycles, merged virtual-time ledgers, and
//! channel statistics, plus per-edge merged-trace hashes, must be identical
//! across queue / threaded / TCP / shm / reliable link backends. A seeded
//! fault sweep additionally pins the reliable fabric's repaired results to
//! the clean baseline.

mod common;

use common::conformance::{
    conformant_backends, shm_opts, tcp_opts, test_opts, workload_config, workload_matrix, Workload,
};
use common::figure2_soc;
use predpkt_channel::{ChannelStats, FaultSpec, Side};
use predpkt_core::{
    CheckpointError, EmuSession, FabricSession, ReliableInner, SessionError, SocBlueprint,
    TransportSelect,
};
use predpkt_sim::VirtualTime;

/// Everything one domain of a fabric run exposes.
#[derive(Debug, PartialEq, Eq)]
struct DomainObserved {
    committed: u64,
    channel: ChannelStats,
    ledger_total: VirtualTime,
}

/// Everything a fabric conformance run compares.
#[derive(Debug, PartialEq, Eq)]
struct FabricObserved {
    committed: u64,
    domains: Vec<DomainObserved>,
    edge_hashes: Vec<u64>,
    ledger_total: VirtualTime,
}

/// Every fabric link backend, with its stable name. The queue baseline is
/// first; the real-link fault-injecting variants appear in their fault-free
/// configuration (their seeded fault sweep has its own test), while the
/// in-process reliable-over-lossy row carries a live seeded plan — it is
/// stepped co-operatively, so its repairs are deterministic and must land on
/// the clean baseline like everything else.
fn fabric_backends() -> Vec<(&'static str, TransportSelect)> {
    vec![
        ("queue", TransportSelect::Queue),
        ("lossy", TransportSelect::Lossy(FaultSpec::none(1))),
        ("threaded", TransportSelect::Threaded(test_opts())),
        ("tcp", TransportSelect::Tcp(tcp_opts())),
        ("shm", TransportSelect::Shm(shm_opts())),
        ("shm+file", TransportSelect::Shm(shm_opts().file_backed())),
        (
            "reliable+queue",
            TransportSelect::reliable(ReliableInner::Queue),
        ),
        (
            "reliable+lossy",
            TransportSelect::reliable(ReliableInner::Lossy(FaultSpec::drops(29, 0.1))),
        ),
        (
            "reliable+threaded",
            TransportSelect::reliable(ReliableInner::Threaded(test_opts())),
        ),
        (
            "reliable+tcp",
            TransportSelect::reliable(ReliableInner::Tcp(tcp_opts())),
        ),
        (
            "reliable+shm",
            TransportSelect::reliable(ReliableInner::Shm(shm_opts())),
        ),
    ]
}

fn observe_fabric(session: &FabricSession, blueprint: &SocBlueprint) -> FabricObserved {
    let placement = blueprint.placement();
    let domains = (0..session.domains())
        .map(|d| DomainObserved {
            committed: session.domain_committed(d),
            channel: session.domain_channel_stats(d),
            ledger_total: session.domain_ledger(d).total(),
        })
        .collect();
    let edge_hashes = (0..session.edges().len())
        .map(|e| {
            session
                .edge_trace(e, |s, a| placement.merge_records(s, a))
                .hash()
        })
        .collect();
    FabricObserved {
        committed: session.committed_cycles(),
        domains,
        edge_hashes,
        ledger_total: session.ledger().total(),
    }
}

fn run_fabric(n: usize, link: TransportSelect, workload: &Workload) -> FabricObserved {
    let blueprint = figure2_soc();
    let mut session = FabricSession::from_blueprint(&blueprint, n)
        .config(workload_config(workload))
        .link(link)
        .build()
        .expect("fabric session builds");
    session
        .run_until_committed(workload.cycles)
        .expect("fabric session completes");
    observe_fabric(&session, &blueprint)
}

/// The whole-matrix conformance sweep for an `n`-domain fabric.
fn assert_fabric_conformance(n: usize) {
    for workload in workload_matrix() {
        let baseline = run_fabric(n, TransportSelect::Queue, &workload);
        assert_eq!(
            baseline.domains.len(),
            n,
            "{}: baseline reports every domain",
            workload.name
        );
        assert_eq!(
            baseline.edge_hashes.len(),
            n * (n - 1) / 2,
            "{}: full mesh has one edge per domain pair",
            workload.name
        );
        for d in &baseline.domains {
            assert!(
                d.committed >= workload.cycles,
                "{}: every domain reaches the target",
                workload.name
            );
        }
        for (name, link) in fabric_backends().into_iter().skip(1) {
            let observed = run_fabric(n, link, &workload);
            assert_eq!(
                baseline, observed,
                "{}/{name}: n={n} fabric diverged from the queue-fabric baseline",
                workload.name
            );
        }
    }
}

#[test]
fn two_domain_fabric_conforms_across_backends() {
    assert_fabric_conformance(2);
}

#[test]
fn three_domain_fabric_conforms_across_backends() {
    assert_fabric_conformance(3);
}

/// The wide sweep: 8 domains, 28 links, 7 ports per domain, all 56 stepped
/// on the test's thread.
/// Expensive, so ignored by default; CI's slow-tests job runs it.
#[test]
#[ignore = "wide fabric sweep; run with --ignored (CI slow-tests does)"]
fn eight_domain_fabric_conforms_across_backends() {
    assert_fabric_conformance(8);
}

/// Per-edge seeded faults under the reliable layer repair to results
/// bit-identical to the clean queue baseline (the two-domain fault-recovery
/// property, lifted to the fabric).
#[test]
fn faulted_reliable_fabric_matches_clean_baseline() {
    let workload = workload_matrix().remove(0);
    for n in [2usize, 3] {
        let baseline = run_fabric(n, TransportSelect::Queue, &workload);
        for seed in [11u64, 97] {
            let faulted = TransportSelect::reliable(ReliableInner::Tcp(
                tcp_opts().fault(FaultSpec::drops(seed, 0.15)),
            ));
            let observed = run_fabric(n, faulted, &workload);
            assert_eq!(
                baseline, observed,
                "n={n} seed={seed}: faulted reliable fabric diverged from clean baseline"
            );
        }
    }
}

/// With N = 2 the fabric is one edge — and must commit exactly what today's
/// two-domain session commits: same trace, same boundary, same channel
/// statistics, same virtual time. This pins the generalization to the code
/// it replaces.
#[test]
fn two_domain_fabric_degenerates_to_emu_session() {
    let blueprint = figure2_soc();
    let placement = blueprint.placement();
    for workload in workload_matrix() {
        let mut emu = EmuSession::from_blueprint(&blueprint)
            .config(workload_config(&workload))
            .transport(TransportSelect::Threaded(test_opts()))
            .build()
            .expect("two-domain session builds");
        emu.run_until_committed(workload.cycles)
            .expect("two-domain session completes");

        for (name, link) in fabric_backends() {
            let fabric = run_fabric(2, link, &workload);
            let ctx = |what: &str| format!("{}/{name}: {what}", workload.name);
            assert_eq!(
                emu.merged_trace(|s, a| placement.merge_records(s, a))
                    .hash(),
                fabric.edge_hashes[0],
                "{}",
                ctx("fabric edge trace diverged from the two-domain session")
            );
            assert_eq!(
                emu.committed_cycles(),
                fabric.committed,
                "{}",
                ctx("fabric stopped at a different boundary")
            );
            let mut fabric_channel = fabric.domains[0].channel.clone();
            fabric_channel.merge(&fabric.domains[1].channel);
            assert_eq!(
                emu.channel_stats(),
                fabric_channel,
                "{}",
                ctx("fabric channel statistics diverged")
            );
            assert_eq!(
                emu.ledger().total(),
                fabric.ledger_total,
                "{}",
                ctx("fabric virtual time diverged")
            );
        }
    }
}

/// One link description names both runners: for every `TransportSelect`
/// shape the fabric's backend name is the session's behind a `"fabric+"`
/// prefix, and the name a checkpoint is stamped with is exactly what
/// `restore` matches on — a cut restores into any session reporting the same
/// name and is rejected as a `BackendMismatch` by every other.
#[test]
fn backend_names_agree_between_session_and_fabric_and_gate_restore() {
    let blueprint = figure2_soc();
    let session = |select: TransportSelect| {
        EmuSession::from_blueprint(&blueprint)
            .transport(select)
            .build()
            .expect("two-domain session builds")
    };
    let checkpoints: Vec<_> = conformant_backends()
        .into_iter()
        .map(|(name, select)| {
            let mut emu = session(select);
            let fabric = FabricSession::from_blueprint(&blueprint, 2)
                .link(select)
                .build()
                .expect("fabric session builds");
            assert_eq!(
                format!("fabric+{}", emu.backend()),
                fabric.backend(),
                "{name}: session and fabric name the same link differently"
            );
            emu.run_until_committed(40).expect("session completes");
            let ckpt = emu.checkpoint().expect("halted at a boundary");
            assert_eq!(ckpt.backend(), emu.backend(), "{name}: stamped name");
            ckpt
        })
        .collect();
    for (name, select) in conformant_backends() {
        for ckpt in &checkpoints {
            let mut twin = session(select);
            match twin.restore(ckpt) {
                Ok(()) => assert_eq!(ckpt.backend(), twin.backend(), "{name}"),
                Err(CheckpointError::BackendMismatch { expected, found }) => {
                    assert_ne!(ckpt.backend(), twin.backend(), "{name}");
                    assert_eq!(expected, twin.backend(), "{name}");
                    assert_eq!(found, ckpt.backend(), "{name}");
                }
                Err(other) => panic!("{name}: unexpected restore error {other}"),
            }
        }
    }
}

/// Domain roles are fixed by edge direction: on every edge the
/// lower-numbered domain leads (`Side::Simulator`). Spot-check the exported
/// edge list agrees.
#[test]
fn fabric_edges_fix_roles_by_domain_order() {
    let blueprint = figure2_soc();
    let session = FabricSession::from_blueprint(&blueprint, 3)
        .build()
        .expect("fabric session builds");
    let edges = session.edges();
    assert_eq!(edges.len(), 3);
    for edge in edges {
        assert!(edge.a() < edge.b());
        assert_eq!(edge.role_of(edge.a()), Side::Simulator);
        assert_eq!(edge.role_of(edge.b()), Side::Accelerator);
    }
}

/// A fabric needs at least two domains; fewer is a configuration error, not
/// a panic.
#[test]
fn fabric_rejects_fewer_than_two_domains() {
    let blueprint = figure2_soc();
    for n in [0usize, 1] {
        match FabricSession::from_blueprint(&blueprint, n).build() {
            Err(SessionError::Config(e)) => {
                assert!(
                    e.to_string().contains("at least two domains"),
                    "unexpected config error: {e}"
                );
            }
            other => panic!("n={n}: expected a config error, got {other:?}"),
        }
    }
}
