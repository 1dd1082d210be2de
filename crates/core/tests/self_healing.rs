//! Self-healing acceptance: a session whose transport dies mid-run resumes
//! from its latest auto-checkpoint onto a **fresh** transport and commits
//! results bit-identical to a run that never failed.
//!
//! The kill is a seeded terminal fault ([`FaultSpec::disconnect_after`]):
//! the link severs at an exact frame count, the session discovers the loss
//! and fails typed — [`SimError::Deadlock`] on bare transports,
//! [`SimError::RetryBudgetExhausted`] (with the new `peer_gone` cause on the
//! polled path) under the reliable layer — and
//! [`EmuSession::resume_from`] rebuilds it on a clean transport of the same
//! shape. Cut points are derived from the baseline's own traffic volume, so
//! the sweep tracks the workload instead of hard-coding frame counts.
//!
//! Every kill is a `KillAndHeal` cell of the conformance matrix
//! (`common/conformance.rs`). The default tests kill each backend at two
//! cuts, the early one after at least one auto-checkpoint boundary; the
//! `#[ignore]`d sweep kills at a ladder of frame counts spanning the whole
//! run — every checkpoint boundary falls between two ladder rungs — across
//! every severable backend. CI's slow-tests lane runs the ignored sweep.

mod common;

use common::conformance::{
    backend, baseline, build_session, for_each_cell, named, workload_for, Heal, Observed,
    Perturbation, CHECKPOINT_EVERY,
};
use predpkt_channel::FaultSpec;
use predpkt_core::{ModePolicy, SliceStatus, TransportSelect};

/// Every backend that can sever its link: the in-process fault injector,
/// the socket and ring paths, and the reliable layer over an in-process and
/// a socket link.
const SEVERABLE: [&str; 5] = ["lossy", "tcp", "shm", "reliable+lossy", "reliable+tcp"];

/// Cut points derived from the baseline's own traffic volume: one early
/// (a boundary or two in), one mid-run. `total_accesses` counts protocol
/// sends, a lower bound on frames actually crossing any backend's link.
fn default_cuts(straight: &Observed) -> [u64; 2] {
    let frames = straight.commit.channel.total_accesses().max(8);
    [frames / 6, frames / 2]
}

/// Kills every row of `rows` at each of `cuts`, and asserts every row
/// resumed from a checkpoint past cycle zero at least `resumes` times.
fn kill_and_heal(n: usize, rows: &[&str], cuts: &[u64], resumes: usize) -> Vec<Heal> {
    let (workload, rows) = ([workload_for(ModePolicy::Auto)], named(rows));
    let heals: Vec<Vec<Heal>> = cuts
        .iter()
        .map(|&cut| for_each_cell(&workload, &[n], &rows, Perturbation::KillAndHeal(cut)))
        .map(|cells| cells.into_iter().map(|(_, o)| o.heal.unwrap()).collect())
        .collect();
    for (r, row) in rows.iter().enumerate() {
        let row_heals = heals.iter().map(|at_cut| at_cut[r]);
        let boundaries: Vec<u64> = row_heals
            .filter_map(|heal| match heal {
                Heal::Resumed { boundary } => Some(boundary),
                _ => None,
            })
            .collect();
        let name = row.name;
        assert!(!boundaries.contains(&0), "{name}/n={n}: resumed from zero");
        assert!(
            boundaries.len() >= resumes,
            "{name}/n={n}: resumed {boundaries:?} of {cuts:?} — the resume path \
             was not exercised"
        );
    }
    heals.concat()
}

/// The tentpole acceptance: on every severable backend, a session killed
/// mid-run by a severed link resumes from its latest checkpoint onto a fresh
/// transport and commits the clean queue baseline bit-identically.
#[test]
fn severed_link_heals_bit_identically_on_every_backend() {
    let auto = workload_for(ModePolicy::Auto);
    let heals = kill_and_heal(2, &SEVERABLE, &default_cuts(&baseline(&auto)), 1);
    assert!(
        !heals.contains(&Heal::Unharmed),
        "a cut came too late: {heals:?}"
    );
    // A three-domain mesh heals the same way: every link of it is doomed
    // (per-edge plans off one spec), the first to sever kills the run, and
    // `resume_from` rebuilds all three edges on fresh links under the cut.
    // A sixth of the mesh's traffic is half of one edge's.
    let cut = default_cuts(&baseline(&auto.at(3)))[0];
    kill_and_heal(3, &["reliable+tcp", "reliable+shm"], &[cut], 1);
}

/// A kill before the first checkpoint boundary leaves nothing to resume:
/// the wreck reports its typed death, and a cold restart on a fresh
/// transport still reaches the baseline.
#[test]
fn kill_before_first_boundary_cold_restarts() {
    // One frame: dead before the protocol can commit anything.
    assert_eq!(kill_and_heal(2, &["lossy"], &[1], 0), [Heal::ColdRestart]);
}

/// Resuming onto a transport of a *different* shape is rejected before any
/// state is touched — the checkpoint's backend name must match.
#[test]
fn resume_onto_mismatched_backend_is_rejected() {
    let workload = workload_for(ModePolicy::Auto);
    let lossy = backend("lossy").with_fault(FaultSpec::disconnect_after(1, u64::MAX));
    let mut sliced = build_session(lossy.select(), &workload).into_sliced(16);
    sliced.set_auto_checkpoint(true);
    sliced.set_checkpoint_interval(CHECKPOINT_EVERY);
    while !matches!(sliced.run_slice(256).expect("short run"), SliceStatus::Done) {}
    let ckpt = sliced
        .take_latest_checkpoint()
        .expect("boundary checkpoint stashed");
    let err = sliced
        .into_session()
        .resume_from(&ckpt, TransportSelect::Queue)
        .expect_err("a lossy cut cannot restore into a queue session");
    assert!(
        err.to_string().contains("backend"),
        "mismatch names the backend: {err}"
    );
}

/// The full sweep (CI slow-tests): a ladder of kill points spanning the
/// whole run — every auto-checkpoint boundary falls between two rungs — on
/// every severable backend. Each wreck heals bit-identically; the resume
/// path must fire many times per backend.
#[test]
#[ignore = "minutes-long sweep; run by the CI slow-tests lane"]
fn kill_at_every_boundary_sweep() {
    let workload = workload_for(ModePolicy::Auto);
    let frames = baseline(&workload).commit.channel.total_accesses().max(16);
    // Rung spacing under half the traffic of a checkpoint interval: with
    // ~`frames / (cycles / CHECKPOINT_EVERY)` frames per interval, this
    // ladder brackets every boundary the run commits.
    let step = (frames * CHECKPOINT_EVERY / workload.cycles.max(1) / 2).max(1);
    let cuts: Vec<u64> = (1..frames).step_by(step as usize).collect();
    kill_and_heal(2, &SEVERABLE, &cuts, 4);
}
