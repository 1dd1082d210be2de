//! Transport equivalence, driven by the cross-transport conformance harness
//! (`common/conformance.rs`): the same blueprint and seed must produce
//! bit-identical committed traces, identical channel statistics, and
//! identical virtual-time ledgers over **every** transport backend — the
//! deterministic queue, the fault-free lossy wrapper, the mpsc endpoint
//! transport, the TCP socket transport, the shared-memory ring transport
//! (heap-shared and `/dev/shm` file-backed), and the ack-and-retransmit
//! reliable layer over each of them. Sessions halt at transition
//! boundaries, so the
//! stop point is a protocol event rather than a scheduling artifact, which is
//! what makes this a meaningful (and stable) assertion.
//!
//! Per-variant behaviours that are *not* conformance (seeded fault recovery,
//! retry-budget exhaustion) live in `fault_recovery.rs`; this suite owns the
//! "every backend is protocol-invisible" property plus the cross-cutting
//! checks that ride on it (reproducibility, predictor-suite neutrality,
//! observer consistency).

use predpkt_core::{CoEmuConfig, EmuSession, EventCounters, ModePolicy, TransportSelect};
use predpkt_predict::{AdaptiveSuite, LastValueSuite, MarkovSuite};

mod common;
use common::conformance::{
    assert_matches_baseline, assert_workload_conformance, conformant_backends, run_workload,
    run_workload_with_suite, shm_opts, tcp_opts, test_opts, workload_for, workload_matrix,
    Workload,
};
use common::figure2_soc;

#[test]
fn all_backends_agree_under_auto() {
    assert_workload_conformance(&workload_for(ModePolicy::Auto));
}

#[test]
fn all_backends_agree_under_forced_als() {
    assert_workload_conformance(&workload_for(ModePolicy::ForcedAls));
}

#[test]
fn all_backends_agree_under_conservative() {
    assert_workload_conformance(&workload_for(ModePolicy::Conservative));
}

#[test]
fn workload_matrix_covers_every_policy() {
    // The conformance matrix is only as strong as its workloads: every mode
    // policy the protocol distinguishes must appear, so a new policy variant
    // can't silently dodge the suite.
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

#[test]
fn threaded_runs_are_reproducible() {
    let w = Workload {
        name: "auto-repro",
        policy: ModePolicy::Auto,
        cycles: 400,
        domains: 2,
    };
    let a = run_workload(TransportSelect::Threaded(test_opts()), &w);
    let b = run_workload(TransportSelect::Threaded(test_opts()), &w);
    assert_eq!(a.trace_hash, b.trace_hash);
    assert_eq!(a.channel, b.channel);
    assert_eq!(a.ledger_total, b.ledger_total);
}

#[test]
fn tcp_runs_are_reproducible() {
    // Real sockets add kernel scheduling and arbitrary read chunking; none of
    // it may leak into the committed results.
    let w = Workload {
        name: "auto-repro",
        policy: ModePolicy::Auto,
        cycles: 400,
        domains: 2,
    };
    let a = run_workload(TransportSelect::Tcp(tcp_opts()), &w);
    let b = run_workload(TransportSelect::Tcp(tcp_opts()), &w);
    assert_eq!(a.trace_hash, b.trace_hash);
    assert_eq!(a.channel, b.channel);
    assert_eq!(a.ledger_total, b.ledger_total);
}

#[test]
fn shm_runs_are_reproducible() {
    // The ring adds chunked publication, wrap-around reassembly, and
    // spin-then-park scheduling; none of it may leak into the committed
    // results — in either backing form.
    let w = Workload {
        name: "auto-repro",
        policy: ModePolicy::Auto,
        cycles: 400,
        domains: 2,
    };
    for backend in [
        TransportSelect::Shm(shm_opts()),
        TransportSelect::Shm(shm_opts().file_backed()),
    ] {
        let a = run_workload(backend, &w);
        let b = run_workload(backend, &w);
        assert_eq!(a.trace_hash, b.trace_hash);
        assert_eq!(a.channel, b.channel);
        assert_eq!(a.ledger_total, b.ledger_total);
    }
}

#[test]
fn custom_predictor_suite_changes_accuracy_never_correctness() {
    let blueprint = figure2_soc();
    let cycles = 500u64;
    let config = CoEmuConfig::paper_defaults()
        .policy(ModePolicy::ForcedAls)
        .rollback_vars(None);

    let run = |use_naive: bool| {
        let builder = EmuSession::from_blueprint(&blueprint).config(config);
        let builder = if use_naive {
            builder.predictors(LastValueSuite)
        } else {
            builder
        };
        let mut session = builder.build().expect("session builds");
        session.run_until_committed(cycles).expect("no deadlock");
        let placement = blueprint.placement();
        let mut trace = session.merged_trace(|s, a| placement.merge_records(s, a));
        trace.truncate_to_len(cycles as usize);
        let report = session.report();
        (
            trace.hash(),
            report.observed_accuracy().expect("predictions checked"),
        )
    };

    let (paper_hash, paper_accuracy) = run(false);
    let (naive_hash, naive_accuracy) = run(true);
    // Rollback repairs every misprediction: traces are identical...
    assert_eq!(
        paper_hash, naive_hash,
        "suite choice must never change behaviour"
    );
    // ...but the naive suite pays for it in accuracy (it cannot follow
    // bursts, and the Fig. 2 SoC is burst-heavy).
    assert!(
        naive_accuracy < paper_accuracy,
        "naive {naive_accuracy} should trail paper {paper_accuracy}"
    );
}

/// The adaptive suite races candidate strategies online, switches mid-run,
/// and bills each switch as channel traffic. None of that may depend on the
/// transport underneath: a session using [`AdaptiveSuite`] must commit
/// bit-identically across every backend — same trace, same boundary, same
/// channel statistics (so the switch billing itself is deterministic), same
/// rollback/flush counts.
#[test]
fn adaptive_suite_is_bit_identical_across_all_backends() {
    let workload = workload_for(ModePolicy::Auto);
    let base = run_workload_with_suite(TransportSelect::Queue, &workload, AdaptiveSuite::default());
    for (name, backend) in conformant_backends() {
        let observed = run_workload_with_suite(backend, &workload, AdaptiveSuite::default());
        assert_matches_baseline(&workload, &format!("adaptive/{name}"), &base, &observed);
    }
}

/// Suite choice changes accuracy and traffic, never the committed trace: the
/// context/Markov and adaptive suites must reproduce the paper suite's
/// committed history exactly (rollback repairs every misprediction), even
/// though each pays a different traffic bill for it.
#[test]
fn every_suite_commits_the_paper_suite_trace() {
    let workload = workload_for(ModePolicy::Auto);
    let paper = run_workload(TransportSelect::Queue, &workload);
    let markov = run_workload_with_suite(TransportSelect::Queue, &workload, MarkovSuite);
    let adaptive =
        run_workload_with_suite(TransportSelect::Queue, &workload, AdaptiveSuite::default());
    for (name, observed) in [("markov", &markov), ("adaptive", &adaptive)] {
        assert_eq!(
            paper.trace_hash, observed.trace_hash,
            "{name}: suite choice must never change committed history"
        );
        assert_eq!(
            paper.committed, observed.committed,
            "{name}: suite choice must never move the halt boundary"
        );
    }
}

/// One observer hears every port: at three domains the counts are the
/// role-merged wrapper statistics of all six.
#[test]
fn observer_counts_match_wrapper_statistics_across_backends() {
    let backends = [
        TransportSelect::Queue,
        TransportSelect::Threaded(test_opts()),
        TransportSelect::Tcp(tcp_opts()),
        TransportSelect::Shm(shm_opts()),
    ];
    for (domains, backend) in [2, 3].into_iter().flat_map(|n| backends.map(|b| (n, b))) {
        let blueprint = figure2_soc();
        let config = CoEmuConfig::paper_defaults()
            .policy(ModePolicy::Auto)
            .rollback_vars(None);
        let counters = EventCounters::new();
        let mut session = EmuSession::from_blueprint(&blueprint)
            .domains(domains)
            .config(config)
            .transport(backend)
            .observer(Box::new(counters.clone()))
            .build()
            .expect("session builds");
        session.run_until_committed(400).expect("no deadlock");
        let events = counters.snapshot();
        let report = session.report();

        let ports = 2 * session.edges().len() as u64;
        assert_eq!(events.handshakes, ports, "one handshake per port");
        assert_eq!(
            events.lob_flushes,
            report.sim_stats().flushes + report.acc_stats().flushes,
            "{}",
            session.backend()
        );
        assert_eq!(
            events.rollbacks,
            report.sim_stats().rollbacks + report.acc_stats().rollbacks,
            "{}",
            session.backend()
        );
        assert_eq!(
            events.channel_sends,
            report.channel().total_accesses(),
            "{}",
            session.backend()
        );
        assert_eq!(
            events.words_sent,
            report.channel().total_words(),
            "{}",
            session.backend()
        );
        assert!(events.transitions > 0);
    }
}
