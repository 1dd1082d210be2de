//! Transport equivalence over the conformance matrix (`common/conformance.rs`):
//! at two domains every backend — the deterministic queue, the fault-free
//! lossy wrapper, the mpsc endpoints, TCP sockets, shared-memory rings (heap
//! and `/dev/shm` file), and the ack-and-retransmit layer over each — commits
//! bit-identically to the queue baseline, and the reliable layer over the
//! in-process lossy medium repairs a live seeded plan onto it. Sessions halt
//! at transition boundaries, so the stop point is a protocol event rather
//! than a scheduling artifact.
//!
//! The cross-cutting checks that ride on it live here too: reproducibility,
//! predictor-suite neutrality, and observer consistency.

use predpkt_channel::FaultSpec;
use predpkt_core::{EmuObserver, EventCounters, ModePolicy};

mod common;
use common::conformance::{
    auto_400, backends, baseline, build_session_with, for_each_cell, named, workload_for,
    workload_matrix, Perturbation, Suite,
};

/// Every row of the table over `policy`'s workload, plus the live seeded
/// plan under `reliable+lossy`: one thread polls its every link end, so its
/// repairs are deterministic and land on the baseline like everything else.
fn all_backends_agree(policy: ModePolicy) {
    let workload = [workload_for(policy)];
    for_each_cell(&workload, &[2], &backends(), Perturbation::None);
    let live = Perturbation::Faults(FaultSpec::drops(29, 0.1));
    for_each_cell(&workload, &[2], &named(&["reliable+lossy"]), live);
}

#[test]
fn all_backends_agree_under_auto() {
    all_backends_agree(ModePolicy::Auto);
}

#[test]
fn all_backends_agree_under_forced_als() {
    all_backends_agree(ModePolicy::ForcedAls);
}

#[test]
fn all_backends_agree_under_conservative() {
    all_backends_agree(ModePolicy::Conservative);
}

#[test]
fn workload_matrix_covers_every_policy() {
    // The matrix is only as strong as its workloads: a new policy variant
    // must not silently dodge it.
    let matrix = workload_matrix();
    for policy in [
        ModePolicy::Auto,
        ModePolicy::ForcedAls,
        ModePolicy::Conservative,
    ] {
        assert!(
            matrix.iter().any(|w| w.policy == policy),
            "workload matrix is missing {policy:?}"
        );
    }
}

/// Two runs of one backend both commit the baseline, so they commit the same.
fn runs_are_reproducible(rows: &[&str]) {
    let twice: Vec<&str> = rows.iter().flat_map(|r| [*r, *r]).collect();
    for_each_cell(&[auto_400()], &[2], &named(&twice), Perturbation::None);
}

#[test]
fn threaded_runs_are_reproducible() {
    runs_are_reproducible(&["threaded"]);
}

#[test]
fn tcp_runs_are_reproducible() {
    // Kernel scheduling and arbitrary read chunking must not leak into the
    // committed results.
    runs_are_reproducible(&["tcp"]);
}

#[test]
fn shm_runs_are_reproducible() {
    // Nor may chunked publication, wrap-around reassembly, or spin-then-park
    // scheduling — in either backing form.
    runs_are_reproducible(&["shm", "shm+file"]);
}

/// The naive last-value suite commits the golden trace like the paper suite
/// (`baseline` checks both), but pays for it in accuracy: it cannot follow
/// bursts, and the Fig. 2 SoC is burst-heavy.
#[test]
fn custom_predictor_suite_changes_accuracy_never_correctness() {
    let workload = workload_for(ModePolicy::ForcedAls);
    let accuracy = |suite| {
        let report = &baseline(&workload.with(suite)).report;
        report.observed_accuracy().expect("predictions checked")
    };
    let (paper, naive) = (accuracy(Suite::Paper), accuracy(Suite::LastValue));
    assert!(naive < paper, "naive {naive} should trail paper {paper}");
}

/// The adaptive suite races candidates online, switches mid-run, and bills
/// each switch as channel traffic. None of that may depend on the transport:
/// over every backend it commits its own queue baseline bit-identically —
/// channel statistics included, so the switch billing is deterministic.
#[test]
fn adaptive_suite_is_bit_identical_across_all_backends() {
    let workload = workload_for(ModePolicy::Auto).with(Suite::Adaptive);
    for_each_cell(&[workload], &[2], &backends(), Perturbation::None);
}

/// Suite choice changes accuracy and traffic, never the committed trace or
/// the halt boundary: rollback repairs every misprediction.
#[test]
fn every_suite_commits_the_paper_suite_trace() {
    let workload = workload_for(ModePolicy::Auto);
    let commit = |suite| {
        let commit = &baseline(&workload.with(suite)).commit;
        (commit.edge_hashes.clone(), commit.committed)
    };
    for suite in [Suite::Markov, Suite::Adaptive] {
        assert_eq!(commit(Suite::Paper), commit(suite), "{suite:?}");
    }
}

/// One observer hears every port: at three domains the counts are the
/// role-merged wrapper statistics of all six.
#[test]
fn observer_counts_match_wrapper_statistics_across_backends() {
    let rows = named(&["queue", "threaded", "tcp", "shm"]);
    for (n, row) in [2, 3]
        .into_iter()
        .flat_map(|n| rows.iter().map(move |row| (n, row)))
    {
        let counters = EventCounters::new();
        let observer: Box<dyn EmuObserver> = Box::new(counters.clone());
        let mut session = build_session_with(row.select(), &auto_400().at(n), Some(observer));
        session.run_until_committed(400).expect("no deadlock");
        let (events, report) = (counters.snapshot(), session.report());
        let (sim, acc, channel) = (report.sim_stats(), report.acc_stats(), report.channel());
        let (ports, name) = (2 * session.edges().len() as u64, session.backend());
        assert_eq!(events.handshakes, ports, "{name}: one handshake per port");
        assert_eq!(events.lob_flushes, sim.flushes + acc.flushes, "{name}");
        assert_eq!(events.rollbacks, sim.rollbacks + acc.rollbacks, "{name}");
        assert_eq!(events.channel_sends, channel.total_accesses(), "{name}");
        assert_eq!(events.words_sent, channel.total_words(), "{name}");
        assert!(events.transitions > 0, "{name}");
    }
}
