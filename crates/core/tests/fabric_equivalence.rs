//! N-domain conformance: a session of N ∈ {3, 8} domains commits on every
//! backend exactly what it commits over the queue, per edge and per domain —
//! the two-domain matrix (`transport_equivalence.rs`) lifted to a full mesh
//! on the shared harness (`common/conformance.rs`). Seeded fault sweeps pin
//! the reliable layer's repaired meshes to the clean baseline.

mod common;

use common::conformance::{
    backends, build_session, for_each_cell, named, workload_for, workload_matrix, Perturbation,
};
use common::figure2_soc;
use predpkt_channel::{FaultSpec, Side};
use predpkt_core::{CheckpointError, EmuSession, ModePolicy, SessionError, TransportSelect};

/// Every row over every matrix workload at `n` domains, plus a live seeded
/// plan under the in-process reliable row, whose repairs are deterministic.
fn assert_mesh_conformance(n: usize) {
    for_each_cell(&workload_matrix(), &[n], &backends(), Perturbation::None);
    let live = Perturbation::Faults(FaultSpec::drops(29, 0.1));
    for_each_cell(&workload_matrix(), &[n], &named(&["reliable+lossy"]), live);
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

/// Per-edge seeded drops on real sockets under the reliable layer repair to
/// the clean baseline, at two domains and over a mesh.
#[test]
fn faulted_reliable_fabric_matches_clean_baseline() {
    let workload = [workload_for(ModePolicy::Auto)];
    for seed in [11u64, 97] {
        let faults = Perturbation::Faults(FaultSpec::drops(seed, 0.15));
        for_each_cell(&workload, &[2, 3], &named(&["reliable+tcp"]), faults);
    }
}

/// One link description names every width: for every row a session's
/// backend name past two domains is its two-domain name behind a `"fabric+"`
/// prefix, and the name a checkpoint is stamped with is exactly what
/// `restore` matches on — a cut restores into any session reporting the same
/// name and is rejected as a `BackendMismatch` by every other.
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
    let checkpoints: Vec<_> = backends()
        .into_iter()
        .map(|b| {
            let mut emu = session(2, b.select());
            assert_eq!(
                format!("fabric+{}", emu.backend()),
                session(3, b.select()).backend(),
                "{}: two and three domains name the same link differently",
                b.name
            );
            emu.run_until_committed(40).expect("session completes");
            let ckpt = emu.checkpoint().expect("halted at a boundary");
            assert_eq!(ckpt.backend(), emu.backend(), "{}: stamped name", b.name);
            ckpt
        })
        .collect();
    for b in backends() {
        for ckpt in &checkpoints {
            let mut twin = session(2, b.select());
            let name = b.name;
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
/// lower-numbered domain leads (`Side::Simulator`).
#[test]
fn fabric_edges_fix_roles_by_domain_order() {
    let session = build_session(
        TransportSelect::Queue,
        &workload_for(ModePolicy::Auto).at(3),
    );
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
