//! N-domain conformance: a session of N ∈ {2, 3, 8} domains commits on every
//! backend exactly what it commits over the queue, per domain and per edge.
//!
//! The comparison is the transport-conformance property lifted to a mesh, on
//! the shared harness: per-edge merged-trace hashes, the halt boundary, the
//! merged virtual-time ledger and channel statistics, plus per-domain
//! committed cycles, ledgers and channel statistics, must be identical across
//! queue / threaded / TCP / shm / reliable link backends. A seeded fault
//! sweep additionally pins the reliable layer's repaired results to the clean
//! baseline.

mod common;

use common::conformance::{
    assert_matches_baseline, baseline, build_session, conformant_backends, run_workload, tcp_opts,
    test_opts, workload_matrix,
};
use common::figure2_soc;
use predpkt_channel::{FaultSpec, Side};
use predpkt_core::{CheckpointError, EmuSession, ReliableInner, SessionError, TransportSelect};

/// [`conformant_backends`] with a live seeded plan under the in-process
/// reliable row: its one thread polls every link end, so its repairs are
/// deterministic and must land on the clean baseline like everything else.
/// (The socket and ring rows stay fault-free; their seeded sweep has its own
/// test.)
fn mesh_backends() -> Vec<(&'static str, TransportSelect)> {
    let live = TransportSelect::reliable(ReliableInner::Lossy(FaultSpec::drops(29, 0.1)));
    conformant_backends()
        .into_iter()
        .map(|(name, select)| {
            (
                name,
                if name == "reliable+lossy" {
                    live
                } else {
                    select
                },
            )
        })
        .collect()
}

/// The whole-matrix conformance sweep for an `n`-domain session.
fn assert_mesh_conformance(n: usize) {
    for workload in workload_matrix() {
        let workload = workload.at(n);
        let base = baseline(&workload);
        assert_eq!(base.domains.len(), n, "{}: every domain", workload.name);
        assert_eq!(
            base.edge_hashes.len(),
            n * (n - 1) / 2,
            "{}: full mesh has one edge per domain pair",
            workload.name
        );
        for (committed, ..) in &base.domains {
            assert!(
                *committed >= workload.cycles,
                "{}: every domain reaches the target",
                workload.name
            );
        }
        // Per-domain reads split a session by link end. Two domains over an
        // in-process queue share one channel and one ledger, so there either
        // domain reads the whole session and the split reference is the mpsc
        // backend's; past two domains every backend has ends of its own.
        let split = run_workload(TransportSelect::Threaded(test_opts()), &workload);
        for (name, backend) in mesh_backends() {
            let observed = run_workload(backend, &workload);
            assert_matches_baseline(&workload, name, &base, &observed);
            let in_process = ["queue", "lossy", "reliable+queue", "reliable+lossy"];
            let shared = n == 2 && in_process.contains(&name);
            let reference = if shared { &base } else { &split };
            assert_eq!(
                reference.domains, observed.domains,
                "{}/{name}: n={n} per-domain reads diverged",
                workload.name
            );
        }
    }
}

#[test]
fn two_domain_fabric_conforms_across_backends() {
    assert_mesh_conformance(2);
}

#[test]
fn three_domain_fabric_conforms_across_backends() {
    assert_mesh_conformance(3);
}

/// The wide sweep: 8 domains, 28 links, 7 ports per domain, all 56 stepped
/// on the test's thread.
/// Expensive, so ignored by default; CI's slow-tests job runs it.
#[test]
#[ignore = "wide fabric sweep; run with --ignored (CI slow-tests does)"]
fn eight_domain_fabric_conforms_across_backends() {
    assert_mesh_conformance(8);
}

/// Per-edge seeded faults under the reliable layer repair to results
/// bit-identical to the clean queue baseline (the two-domain fault-recovery
/// property, lifted to the mesh).
#[test]
fn faulted_reliable_fabric_matches_clean_baseline() {
    for n in [2usize, 3] {
        let workload = workload_matrix().remove(0).at(n);
        let base = baseline(&workload);
        let split = run_workload(TransportSelect::Threaded(test_opts()), &workload);
        for seed in [11u64, 97] {
            let faulted = TransportSelect::reliable(ReliableInner::Tcp(
                tcp_opts().fault(FaultSpec::drops(seed, 0.15)),
            ));
            let observed = run_workload(faulted, &workload);
            let name = format!("n={n} seed={seed}");
            assert_matches_baseline(&workload, &name, &base, &observed);
            assert_eq!(split.domains, observed.domains, "{name}: per-domain reads");
        }
    }
}

/// One link description names every width: for every `TransportSelect`
/// shape a session's backend name past two domains is its two-domain name
/// behind a `"fabric+"` prefix, and the name a checkpoint is stamped with is
/// exactly what `restore` matches on — a cut restores into any session
/// reporting the same name and is rejected as a `BackendMismatch` by every
/// other.
#[test]
fn backend_names_agree_between_session_and_fabric_and_gate_restore() {
    let blueprint = figure2_soc();
    let session = |domains: usize, select: TransportSelect| {
        EmuSession::from_blueprint(&blueprint)
            .domains(domains)
            .transport(select)
            .build()
            .expect("session builds")
    };
    let checkpoints: Vec<_> = conformant_backends()
        .into_iter()
        .map(|(name, select)| {
            let mut emu = session(2, select);
            assert_eq!(
                format!("fabric+{}", emu.backend()),
                session(3, select).backend(),
                "{name}: two and three domains name the same link differently"
            );
            emu.run_until_committed(40).expect("session completes");
            let ckpt = emu.checkpoint().expect("halted at a boundary");
            assert_eq!(ckpt.backend(), emu.backend(), "{name}: stamped name");
            ckpt
        })
        .collect();
    for (name, select) in conformant_backends() {
        for ckpt in &checkpoints {
            let mut twin = session(2, select);
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
    let session = build_session(TransportSelect::Queue, &workload_matrix().remove(0).at(3));
    let edges = session.edges();
    assert_eq!(edges.len(), 3);
    for edge in edges {
        assert!(edge.a() < edge.b());
        assert_eq!(edge.role_of(edge.a()), Side::Simulator);
        assert_eq!(edge.role_of(edge.b()), Side::Accelerator);
    }
}

/// A session needs at least two domains; fewer is a configuration error, not
/// a panic.
#[test]
fn fabric_rejects_fewer_than_two_domains() {
    let blueprint = figure2_soc();
    for n in [0usize, 1] {
        match EmuSession::from_blueprint(&blueprint).domains(n).build() {
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
