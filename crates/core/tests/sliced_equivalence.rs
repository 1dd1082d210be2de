//! Sliced scheduling conformance: driving a session to completion through
//! [`SlicedSession::run_slice`] — any slice budget, with readiness-waited
//! parking on `Idle` — commits exactly what one uninterrupted
//! `run_until_committed` call commits, for every transport backend.
//!
//! This is the property the session farm stands on: a scheduler is free to
//! preempt, park, and resume sessions at slice granularity without ever
//! changing traces, channel statistics, or ledgers. The farm's own stress
//! suite (`crates/farm/tests/farm_stress.rs`) re-checks it end-to-end through
//! the worker pool; this suite pins the core mechanism in isolation, per
//! backend and per slice budget, where a regression is easiest to localize.

mod common;

use std::time::{Duration, Instant};

use common::conformance::{
    assert_matches_baseline, baseline, conformant_backends, observe, workload_config,
    workload_matrix, Observed, Workload,
};
use common::figure2_soc;
use predpkt_channel::{PollReady, PollSet};
use predpkt_core::{
    CoEmulator, EmuObserver, EmuSession, EventLog, SliceStatus, SlicedSession, TransportSelect,
};

/// Drives `sliced` to `Done`, parking on the readiness poll-set whenever the
/// slice reports `Idle` — the same wait discipline the farm's poller uses,
/// over a single session. Returns how many slices the run took.
fn drive<M>(sliced: &mut SlicedSession<M>, slice_steps: u32) -> usize
where
    M: predpkt_core::DomainModel + Send + 'static,
{
    let poll = PollSet::syscall_probes();
    let deadline = Instant::now() + Duration::from_secs(60);
    for slices in 1.. {
        match sliced.run_slice(slice_steps).expect("sliced run completes") {
            SliceStatus::Done => return slices,
            SliceStatus::Working => {}
            SliceStatus::Idle => {
                let mut sources = [&mut *sliced];
                poll.wait_any(&mut sources, Duration::from_millis(2));
            }
        }
        assert!(
            Instant::now() < deadline,
            "sliced {} run wedged mid-flight",
            sliced.backend()
        );
    }
    unreachable!("the loop returns at `Done`")
}

/// Runs `workload` over `backend` in slices of `slice_steps` rounds.
fn run_workload_sliced(
    backend: TransportSelect,
    workload: &Workload,
    slice_steps: u32,
) -> Observed {
    run_workload_sliced_observed(backend, workload, slice_steps, None).0
}

/// [`run_workload_sliced`] with an optional observer on the session; also
/// returns how many slices the run took.
fn run_workload_sliced_observed(
    backend: TransportSelect,
    workload: &Workload,
    slice_steps: u32,
    observer: Option<Box<dyn EmuObserver>>,
) -> (Observed, usize) {
    let blueprint = figure2_soc();
    let mut builder = EmuSession::from_blueprint(&blueprint)
        .domains(workload.domains)
        .config(workload_config(workload))
        .transport(backend);
    if let Some(observer) = observer {
        builder = builder.observer(observer);
    }
    let mut sliced = builder
        .build()
        .expect("session builds")
        .into_sliced(workload.cycles);
    let slices = drive(&mut sliced, slice_steps);
    (observe(&sliced.into_session(), &blueprint), slices)
}

/// Every backend, every workload, a mid-sized slice budget: sliced == direct.
#[test]
fn sliced_runs_match_queue_baseline_across_backends() {
    for workload in workload_matrix() {
        let expect = baseline(&workload);
        for (name, backend) in conformant_backends() {
            let observed = run_workload_sliced(backend, &workload, 64);
            assert_matches_baseline(&workload, &format!("sliced+{name}"), &expect, &observed);
        }
    }
}

/// The slice budget is scheduling policy, not semantics: pathological budgets
/// (single-round slices, one giant slice) commit the same results.
///
/// And the budget counts the same thing everywhere, because one loop runs
/// every backend: a round is a round whether the two ports share one channel
/// (`queue`, and a bare [`CoEmulator`]) or have one each (`threaded`, whose
/// mpsc medium is as prompt as the queue), so those runs take the same number
/// of slices and emit the same observer events in the same order — the whole
/// stream, which is more than each domain's own.
///
/// A three-domain mesh takes the same budgets: six ports a round instead of
/// two, the same committed results.
#[test]
fn slice_budget_does_not_change_committed_results() {
    for (domains, slice_steps) in [2, 3]
        .into_iter()
        .flat_map(|n| [1, 7, 1 << 20].map(|s| (n, s)))
    {
        let workload = workload_matrix().remove(0).at(domains);
        let expect = baseline(&workload);
        let mut schedules = Vec::new();
        for (name, backend) in [
            ("queue", TransportSelect::Queue),
            (
                "threaded",
                TransportSelect::Threaded(common::conformance::test_opts()),
            ),
            ("shm", TransportSelect::Shm(common::conformance::shm_opts())),
        ] {
            let log = EventLog::new();
            let observer: Box<dyn EmuObserver> = Box::new(log.clone());
            let (observed, slices) =
                run_workload_sliced_observed(backend, &workload, slice_steps, Some(observer));
            let name = format!("n={domains} sliced[{slice_steps}]+{name}");
            assert_matches_baseline(&workload, &name, &expect, &observed);
            if domains > 2 {
                // Every backend splits a mesh by link end alike.
                assert_eq!(expect.domains, observed.domains, "{name}: per domain");
            }
            schedules.push((name, slices, log.events()));
        }
        let (queue, threaded) = (&schedules[0], &schedules[1]);
        // Up to one more round where the ends are per side: the halting
        // port's last message leaves its batching outbox in the next round's
        // linger.
        assert!(
            threaded.1.abs_diff(queue.1) <= 1,
            "{}: {} slices, {}: {}",
            queue.0,
            queue.1,
            threaded.0,
            threaded.1
        );
        assert!(
            queue.2 == threaded.2,
            "{} vs {}: observer events differ",
            queue.0,
            threaded.0
        );
        if domains > 2 {
            continue; // a bare co-emulator is two domains
        }

        let blueprint = figure2_soc();
        let (sim, acc) = blueprint.build_pair().expect("Fig. 2 builds");
        let mut bare = CoEmulator::new(sim, acc, workload_config(&workload));
        let mut slices = 1;
        while bare.run_slice(workload.cycles, slice_steps).expect("runs") != SliceStatus::Done {
            slices += 1;
        }
        let name = format!("sliced[{slice_steps}]+coemulator");
        assert_eq!(slices, queue.1, "{name}: slices");
        assert_eq!(bare.committed_cycles(), expect.committed, "{name}");
        let placement = blueprint.placement();
        let trace = bare.merged_trace(|s, a| placement.merge_records(s, a));
        assert_eq!(trace.hash(), expect.trace_hash, "{name}: trace");
        assert_eq!(*bare.channel_stats(), expect.channel, "{name}: channel");
        assert_eq!(bare.ledger().total(), expect.ledger_total, "{name}: ledger");
    }
}

/// `Done` is sticky: re-slicing a finished session is a no-op, and the
/// session unwraps with its results intact.
#[test]
fn done_is_idempotent() {
    let workload = workload_matrix().remove(0);
    let blueprint = figure2_soc();
    let session = EmuSession::from_blueprint(&blueprint)
        .config(workload_config(&workload))
        .transport(TransportSelect::Queue)
        .build()
        .expect("session builds");
    let mut sliced = session.into_sliced(workload.cycles);
    drive(&mut sliced, 64);
    for _ in 0..3 {
        assert_eq!(sliced.run_slice(16).expect("still ok"), SliceStatus::Done);
    }
    assert!(sliced.committed_cycles() >= workload.cycles);
    let expect = baseline(&workload);
    let observed = observe(&sliced.into_session(), &blueprint);
    assert_matches_baseline(&workload, "sliced+idempotent", &expect, &observed);
}

/// A queue-backed sliced session is always `Ready` (its whole medium is
/// in-object), so a scheduler never parks it.
#[test]
fn queue_backed_sessions_never_report_idle_readiness() {
    let workload = workload_matrix().remove(0);
    let blueprint = figure2_soc();
    let session = EmuSession::from_blueprint(&blueprint)
        .config(workload_config(&workload))
        .transport(TransportSelect::Queue)
        .build()
        .expect("session builds");
    let mut sliced = session.into_sliced(workload.cycles);
    loop {
        assert_eq!(
            sliced.readiness(),
            predpkt_channel::Readiness::Ready,
            "queue-backed sessions are always schedulable"
        );
        match sliced.run_slice(32).expect("run ok") {
            SliceStatus::Done => break,
            SliceStatus::Working => {}
            SliceStatus::Idle => panic!("queue-backed session reported Idle"),
        }
    }
}
