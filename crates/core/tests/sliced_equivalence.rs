//! Sliced scheduling conformance: driving a session to completion through
//! [`SlicedSession::run_slice`](predpkt_core::SlicedSession::run_slice) —
//! any slice budget, with readiness-waited parking on `Idle` — commits
//! exactly what one uninterrupted `run_until_committed` commits, on every
//! backend (the `Slice` perturbation of `common/conformance.rs`).
//!
//! This is the property the session farm stands on: a scheduler may preempt,
//! park and resume sessions at slice granularity without changing traces,
//! channel statistics or ledgers. The farm's stress suite re-checks it
//! through the worker pool; this suite pins the mechanism in isolation.

mod common;

use common::conformance::{
    assert_same_commit, backends, baseline, build_session, for_each_cell, named, observe,
    workload_config, workload_for, workload_matrix, Commit, Perturbation,
};
use common::figure2_soc;
use predpkt_channel::{PollReady, Readiness};
use predpkt_core::{CoEmulator, ModePolicy, SliceStatus, TransportSelect};

/// Every backend, every workload, a mid-sized slice budget.
#[test]
fn sliced_runs_match_queue_baseline_across_backends() {
    for_each_cell(
        &workload_matrix(),
        &[2],
        &backends(),
        Perturbation::Slice(64),
    );
}

/// The slice budget is scheduling policy, not semantics: pathological
/// budgets (single-round slices, one giant slice) commit the same results,
/// over two domains and a three-domain mesh.
///
/// And the budget counts the same thing everywhere, because one loop runs
/// every backend: a round is a round whether the ports share one channel
/// (`queue`, and a bare [`CoEmulator`]) or have one each (`threaded`, whose
/// mpsc medium is as prompt as the queue), so those runs take the same number
/// of slices and emit the same observer events in the same order.
#[test]
fn slice_budget_does_not_change_committed_results() {
    let workload = workload_for(ModePolicy::Auto);
    let rows = named(&["queue", "threaded", "shm"]);
    for n in [2, 3] {
        for steps in [1, 7, 1 << 20] {
            let cells = for_each_cell(&[workload], &[n], &rows, Perturbation::Slice(steps));
            let (queue, threaded) = (&cells[0].1, &cells[1].1);
            // Up to one more round where the ends are per side: the halting
            // port's last message leaves its batching outbox in the next
            // round's linger.
            assert!(
                threaded.slices.abs_diff(queue.slices) <= 1,
                "n={n} budget {steps}: queue {} slices, threaded {}",
                queue.slices,
                threaded.slices
            );
            assert!(
                queue.events == threaded.events,
                "n={n} budget {steps}: observer events differ"
            );
            if n == 2 {
                assert_bare_coemulator_slices_alike(steps, queue.slices);
            }
        }
    }
}

/// A bare [`CoEmulator`] driven by `run_slice` takes the queue session's
/// slice count and commits its baseline.
fn assert_bare_coemulator_slices_alike(steps: u32, queue_slices: usize) {
    let workload = workload_for(ModePolicy::Auto);
    let blueprint = figure2_soc();
    let (sim, acc) = blueprint.build_pair().expect("Fig. 2 builds");
    let mut bare = CoEmulator::new(sim, acc, workload_config(&workload));
    let mut slices = 1;
    while bare.run_slice(workload.cycles, steps).expect("runs") != SliceStatus::Done {
        slices += 1;
    }
    assert_eq!(
        slices, queue_slices,
        "budget {steps}: a bare co-emulator's slices"
    );
    let placement = blueprint.placement();
    let trace = bare.merged_trace(|s, a| placement.merge_records(s, a));
    let commit = Commit {
        edge_hashes: vec![trace.hash()],
        committed: bare.committed_cycles(),
        channel: bare.channel_stats().clone(),
        ledger_total: bare.ledger().total(),
        sim_rollbacks: bare.sim_stats().rollbacks,
        acc_flushes: bare.acc_stats().flushes,
    };
    assert_eq!(baseline(&workload).commit, commit, "budget {steps}: bare");
}

/// `Done` is sticky: re-slicing a finished session is a no-op, and the
/// session unwraps with its results intact.
#[test]
fn done_is_idempotent() {
    let workload = workload_for(ModePolicy::Auto);
    let mut sliced = build_session(TransportSelect::Queue, &workload).into_sliced(workload.cycles);
    while sliced.run_slice(64).expect("runs") != SliceStatus::Done {}
    for _ in 0..3 {
        assert_eq!(sliced.run_slice(16).expect("still ok"), SliceStatus::Done);
    }
    let observed = observe(&sliced.into_session());
    assert_same_commit("sliced+idempotent", &baseline(&workload), &observed);
}

/// A sliced session over a shared medium is always `Ready` (its whole
/// medium is in-object), so a scheduler never parks it.
#[test]
fn queue_backed_sessions_never_report_idle_readiness() {
    let workload = workload_for(ModePolicy::Auto);
    for backend in backends().into_iter().filter(|b| b.shares_medium) {
        let mut sliced = build_session(backend.select(), &workload).into_sliced(workload.cycles);
        loop {
            let name = backend.name;
            assert_eq!(
                sliced.readiness(),
                Readiness::Ready,
                "{name}: a shared medium is always schedulable"
            );
            match sliced.run_slice(32).expect("run ok") {
                SliceStatus::Done => break,
                SliceStatus::Working => {}
                SliceStatus::Idle => panic!("{name}: a shared-medium session reported Idle"),
            }
        }
    }
}
