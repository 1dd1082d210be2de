//! Seeded fault-recovery sweeps: a session over the ack-and-retransmit
//! layer on top of a fault-injecting medium — in-process, a localhost
//! socket, or a shared-memory ring — must commit **bit-identical traces,
//! channel statistics, virtual-time ledgers, and committed cycles** to the
//! clean queue baseline, while `RecoveryStats` shows the repairs of every
//! injected kind and the cost model bills strictly more wire words than the
//! clean run (the `Faults` perturbation of `common/conformance.rs`). A retry
//! budget too small for the fault rate must surface a typed
//! `SimError::RetryBudgetExhausted` carrying the failing seed, never a hang.

use predpkt_channel::FaultSpec;
use predpkt_core::{ReliableInner, TransportSelect};
use predpkt_sim::SimError;

mod common;
use common::conformance::{auto_400, build_session, for_each_cell, named, Perturbation};

const SEEDS: [u64; 3] = [0xa11ce, 0xb0b5eed, 0xcafe42];
const LOSSY: &[&str] = &["reliable+lossy"];

/// Runs `rows` under `spec` at every seed of `seeds`.
fn sweep(rows: &[&str], seeds: &[u64], spec: impl Fn(u64) -> FaultSpec) {
    for &seed in seeds {
        let faults = Perturbation::Faults(spec(seed));
        for_each_cell(&[auto_400()], &[2], &named(rows), faults);
    }
}

/// Drops, truncations and duplicates at once.
fn mixed(seed: u64) -> FaultSpec {
    FaultSpec {
        drop_rate: 0.1,
        truncate_rate: 0.08,
        duplicate_rate: 0.1,
        ..FaultSpec::none(seed)
    }
}

#[test]
fn seeded_drop_sweep_commits_bit_identical_results() {
    sweep(LOSSY, &SEEDS, |seed| FaultSpec::drops(seed, 0.15));
}

#[test]
fn seeded_truncation_sweep_commits_bit_identical_results() {
    sweep(LOSSY, &SEEDS, |seed| FaultSpec::truncations(seed, 0.15));
}

#[test]
fn seeded_duplicate_sweep_commits_bit_identical_results() {
    sweep(LOSSY, &SEEDS, |seed| FaultSpec::duplicates(seed, 0.2));
}

#[test]
fn mixed_fault_storm_commits_bit_identical_results() {
    sweep(LOSSY, &SEEDS, mixed);
}

/// The same invariants with the faults firing on a *real TCP socket pair*.
#[test]
fn seeded_fault_sweep_over_localhost_socket_commits_bit_identical_results() {
    sweep(&["reliable+tcp"], &SEEDS, mixed);
}

/// The same invariants with the faults firing on the *shared-memory ring
/// path*: the per-side lossy wrappers around each ring endpoint drop,
/// truncate and duplicate, and the per-side reliability layers heal them.
#[test]
fn seeded_fault_sweep_over_shared_memory_ring_commits_bit_identical_results() {
    sweep(&["reliable+shm"], &SEEDS, mixed);
}

/// `Reliable{Tcp over lossy}` and `Reliable{Lossy}` are different physical
/// links under one reliability layer: both commit the baseline and both
/// repair the drops, though their counters differ (the per-side socket
/// instances draw from decorrelated fault streams).
#[test]
fn socket_recovery_billing_matches_in_process_invariants() {
    let rows = ["reliable+lossy", "reliable+tcp"];
    sweep(&rows, &SEEDS[..1], |seed| FaultSpec::drops(seed, 0.15));
}

/// A clean queue under the reliable layer commits the baseline and bills
/// only headers and acks (the clean-link invariants of every reliable row).
#[test]
fn reliable_over_clean_queue_matches_baseline_with_ack_overhead_only() {
    let row = named(&["reliable+queue"]);
    for_each_cell(&[auto_400()], &[2], &row, Perturbation::None);
}

/// `Reliable{Lossy}` under `spec` with a small window and retry budget, run
/// toward 2 000 cycles.
fn starve(spec: FaultSpec, window: usize, retry_budget: u32) -> Result<(), SimError> {
    let inner = ReliableInner::Lossy(spec);
    let select = TransportSelect::Reliable {
        inner,
        window,
        retry_budget,
    };
    build_session(select, &auto_400()).run_until_committed(2_000)
}

#[test]
fn exhausted_retry_budget_surfaces_typed_error_with_seed() {
    let seed = 0x5eed_dead;
    match starve(FaultSpec::drops(seed, 1.0), 4, 2) {
        Err(SimError::RetryBudgetExhausted {
            seed: reported,
            retries,
            ..
        }) => {
            assert_eq!(reported, seed, "the failing seed must be reported");
            assert_eq!(retries, 2, "the configured budget was spent");
        }
        other => panic!("expected RetryBudgetExhausted, got {other:?}"),
    }
    // The error's rendering carries the seed for replay.
    let err = SimError::RetryBudgetExhausted {
        seed,
        seq: 0,
        retries: 2,
        cycle: 0,
        idle_picos: 0,
        peer_gone: false,
    };
    assert!(err.to_string().contains(&seed.to_string()), "{err}");
}

#[test]
fn moderate_faults_with_small_budget_fail_typed_not_hang() {
    // A budget of 1 cannot absorb a 60% drop rate for long: the session must
    // end with the typed error — never hang.
    let seed = 0x1bad_cafe;
    match starve(FaultSpec::drops(seed, 0.6), 8, 1) {
        Err(SimError::RetryBudgetExhausted { seed: s, .. }) => assert_eq!(s, seed),
        other => panic!("expected typed exhaustion, got {other:?}"),
    }
}

/// Wider multi-seed, multi-rate sweep — slow, so it is `#[ignore]`d from the
/// default `cargo test` and run by the CI slow-tests job via `-- --ignored`.
#[test]
#[ignore = "multi-seed recovery sweep; run with --ignored"]
fn wide_seeded_recovery_sweep() {
    let seeds = [1u64, 2, 3, 0xdead, 0xbeef, 0x1234_5678];
    sweep(LOSSY, &seeds, |seed| FaultSpec::drops(seed, 0.25));
    sweep(LOSSY, &seeds, |seed| FaultSpec::truncations(seed, 0.25));
    sweep(LOSSY, &seeds, |seed| FaultSpec::duplicates(seed, 0.35));
    sweep(LOSSY, &seeds, |seed| FaultSpec {
        drop_rate: 0.15,
        truncate_rate: 0.12,
        duplicate_rate: 0.15,
        ..FaultSpec::none(seed)
    });
    sweep(&["reliable+tcp", "reliable+shm"], &seeds, mixed);
}
