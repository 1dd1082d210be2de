//! Farm stress suite: scheduling at scale must never change what a session
//! commits, and one bad session must never take the pool down with it.
//!
//! * A thousand mixed-transport sessions multiplexed over four workers commit
//!   bit-identically to direct (unfarmed) runs of the same sessions — the
//!   conformance ledger checks, through the farm.
//! * A wedged peer (every frame dropped on the socket path) is evicted after
//!   the deadlock window while normal sessions keep completing.
//! * Saturation is a typed refusal, cancellation lands, and a panicking
//!   session is contained to its own result.
//! * Churning many socket-backed sessions through a small pool keeps file
//!   descriptors and thread counts bounded: sessions never spawn threads.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use predpkt_channel::{ChannelStats, FaultSpec};
use predpkt_core::{
    AhbDomainModel, CoEmuConfig, EmuSession, ModePolicy, ShmOptions, TcpOptions, ThreadedOpts,
    TransportSelect,
};
use predpkt_farm::{FarmConfig, FarmError, ReadmitPolicy, SessionFarm, SessionOutcome};
use predpkt_sim::{SimError, VirtualTime};
use predpkt_workloads::figure2_soc;

const CYCLES: u64 = 120;

fn config() -> CoEmuConfig {
    CoEmuConfig::paper_defaults()
        .policy(ModePolicy::Auto)
        .rollback_vars(None)
}

/// Fine-grained polling knobs (matching the core conformance suite) so
/// blocked-domain wakeups stay snappy on loaded CI hosts.
fn snappy() -> ThreadedOpts {
    ThreadedOpts {
        poll_interval: Duration::from_micros(500),
        deadlock_timeout: Duration::from_secs(10),
    }
}

/// The mixed-transport rotation the ISSUE asks for: queue, shm, tcp.
fn transport_for(i: usize) -> TransportSelect {
    match i % 3 {
        0 => TransportSelect::Queue,
        1 => TransportSelect::Shm(ShmOptions::default().threaded(snappy())),
        _ => TransportSelect::Tcp(TcpOptions::default().threaded(snappy())),
    }
}

/// The conformance ledger fields a farm run is compared on.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Every edge's merged-trace hash (one edge, at two domains).
    edge_hashes: Vec<u64>,
    committed: u64,
    channel: ChannelStats,
    ledger_total: VirtualTime,
    billed_words: u64,
}

fn observe(session: &EmuSession<AhbDomainModel>, seed: u64) -> Observed {
    let blueprint = figure2_soc(seed);
    let placement = blueprint.placement();
    let edge_hash = |e| {
        let trace = session.edge_trace(e, |s, a| placement.merge_records(s, a));
        trace.hash()
    };
    Observed {
        edge_hashes: (0..session.edges().len()).map(edge_hash).collect(),
        committed: session.committed_cycles(),
        channel: session.channel_stats(),
        ledger_total: session.ledger().total(),
        billed_words: session.report().billed_words(),
    }
}

/// The direct (unfarmed) baseline for one seed, over the deterministic queue
/// transport — what *every* transport must commit, farm or no farm.
fn direct_baseline(seed: u64) -> Observed {
    direct_mesh_baseline(seed, 2)
}

/// [`direct_baseline`] for a session of `domains` domains.
fn direct_mesh_baseline(seed: u64, domains: usize) -> Observed {
    let mut session = EmuSession::from_blueprint(&figure2_soc(seed))
        .domains(domains)
        .config(config())
        .transport(TransportSelect::Queue)
        .build()
        .expect("baseline builds");
    session
        .run_until_committed(CYCLES)
        .expect("baseline completes");
    observe(&session, seed)
}

#[cfg(target_os = "linux")]
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .map(|d| d.count())
        .unwrap_or(usize::MAX)
}

#[cfg(target_os = "linux")]
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(usize::MAX)
}

/// Spin until the farm has no outstanding sessions (bounded by `limit`).
fn drain(farm: &SessionFarm<AhbDomainModel>, limit: Duration) {
    let deadline = Instant::now() + limit;
    while farm.outstanding() > 0 {
        assert!(
            Instant::now() < deadline,
            "farm failed to drain in {limit:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The tentpole property end-to-end: one thousand sessions, three transports,
/// four workers, and every single one commits exactly what its direct run
/// commits.
#[test]
fn thousand_mixed_sessions_match_direct_runs() {
    const SESSIONS: usize = 999;
    const SEEDS: u64 = 16;
    let baselines: Vec<Observed> = (0..SEEDS).map(direct_baseline).collect();

    let farm = SessionFarm::new(
        FarmConfig::new()
            .workers(4)
            .capacity(SESSIONS)
            .slice_steps(64)
            .keep_sessions(true),
    )
    .expect("farm builds");
    let mut seed_of = HashMap::new();
    // One of the thousand is a three-domain mesh (over the ring): to the farm
    // a session like any other.
    const MESH: usize = 1;
    for i in 0..SESSIONS {
        let seed = i as u64 % SEEDS;
        let transport = transport_for(i);
        let domains = if i == MESH { 3 } else { 2 };
        let id = farm
            .submit(move || {
                Ok(EmuSession::from_blueprint(&figure2_soc(seed))
                    .domains(domains)
                    .config(config())
                    .transport(transport)
                    .build()?
                    .into_sliced(CYCLES))
            })
            .expect("capacity covers every session");
        seed_of.insert(id, seed);
    }
    let report = farm.join();

    assert_eq!(report.stats.submitted, SESSIONS as u64);
    assert_eq!(
        report.stats.completed, SESSIONS as u64,
        "every session completes: {}",
        report.stats
    );
    assert_eq!(report.results.len(), SESSIONS);
    for result in &report.results {
        assert!(
            result.outcome.is_completed(),
            "session {} ended {}",
            result.id,
            result.outcome
        );
        let seed = seed_of[&result.id];
        let session = result.session.as_ref().expect("keep_sessions retains it");
        let mesh = (session.domains() > 2).then(|| direct_mesh_baseline(seed, 3));
        assert_eq!(
            mesh.as_ref().unwrap_or(&baselines[seed as usize]),
            &observe(session, seed),
            "session {} (seed {seed}) diverged from its direct run",
            result.id
        );
    }
    let meshes = report.results.iter().filter(|r| {
        let session = r.session.as_ref().expect("keep_sessions retains it");
        session.domains() == 3 && session.backend() == "fabric+shm"
    });
    assert_eq!(meshes.count(), 1, "the mesh ran in the farm");
    assert!(report.stats.sessions_per_sec > 0.0);
    let p50 = report
        .stats
        .p50_latency
        .expect("completed sessions have a p50");
    let p99 = report
        .stats
        .p99_latency
        .expect("completed sessions have a p99");
    assert!(p99 >= p50);
    assert!(report.stats.pool_occupancy > 0.0 && report.stats.pool_occupancy <= 1.0);
}

/// A farm drained without a single completed session has *no* latency
/// percentiles — the stats must say so explicitly (`None`, rendered as JSON
/// null by the bench emitter) instead of faking a zero or dividing into a
/// NaN.
#[test]
fn empty_farm_reports_absent_percentiles_not_nan() {
    let farm: SessionFarm<predpkt_core::AhbDomainModel> =
        SessionFarm::new(FarmConfig::new().workers(2)).expect("farm builds");
    let report = farm.join();
    assert_eq!(report.stats.submitted, 0);
    assert_eq!(report.stats.completed, 0);
    assert_eq!(report.stats.p50_latency, None);
    assert_eq!(report.stats.p99_latency, None);
    assert!(
        report.stats.sessions_per_sec.is_finite(),
        "throughput over zero sessions must stay finite"
    );
    assert!(
        report.stats.pool_occupancy.is_finite(),
        "occupancy over an idle pool must stay finite"
    );
    // The roll-up must also render without panicking or printing NaN.
    let rendered = report.stats.to_string();
    assert!(
        rendered.contains("n/a"),
        "absent percentiles render as n/a: {rendered}"
    );
    assert!(
        !rendered.contains("NaN"),
        "stats must never display NaN: {rendered}"
    );
}

/// A peer that drops every frame wedges its session, not the pool: the farm
/// parks it, evicts it after the deadlock window, and the normal sessions
/// sharing the pool all complete.
#[test]
fn wedged_peer_is_evicted_and_does_not_stall_the_pool() {
    let farm = SessionFarm::new(
        FarmConfig::new()
            .workers(2)
            .slice_steps(64)
            .park_slice(Duration::from_micros(200))
            .deadlock_timeout(Duration::from_millis(300)),
    )
    .expect("farm builds");
    let wedged = farm
        .submit(move || {
            Ok(EmuSession::from_blueprint(&figure2_soc(7))
                .config(config())
                .transport(TransportSelect::Tcp(
                    TcpOptions::default()
                        .threaded(snappy())
                        .fault(FaultSpec::drops(42, 1.0)),
                ))
                .build()?
                .into_sliced(CYCLES))
        })
        .expect("wedged session admitted");
    let mut normal = Vec::new();
    for i in 0..20 {
        let seed = i as u64;
        let transport = transport_for(i);
        let id = farm
            .submit(move || {
                Ok(EmuSession::from_blueprint(&figure2_soc(seed))
                    .config(config())
                    .transport(transport)
                    .build()?
                    .into_sliced(CYCLES))
            })
            .expect("normal session admitted");
        normal.push(id);
    }
    let report = farm.join();
    let wedged_result = report.result(wedged).expect("wedged session reported");
    assert!(
        matches!(wedged_result.outcome, SessionOutcome::Evicted { .. }),
        "wedged session should be evicted, ended {}",
        wedged_result.outcome
    );
    for id in normal {
        let r = report.result(id).expect("normal session reported");
        assert!(
            r.outcome.is_completed(),
            "session {id} stalled behind the wedged peer: {}",
            r.outcome
        );
    }
    assert_eq!(report.stats.evicted, 1);
    assert_eq!(report.stats.completed, 20);
    assert!(report.stats.parked_events > 0, "the wedge must have parked");
}

/// Admission control: a full farm refuses with the typed `Saturated` error
/// (the caller sheds or retries — nothing queues unbounded), and a cancelled
/// session reports `Cancelled` without running.
#[test]
fn saturation_is_typed_and_cancellation_lands() {
    let farm: SessionFarm<AhbDomainModel> = SessionFarm::new(
        FarmConfig::new()
            .workers(1)
            .capacity(4)
            .start_paused(true)
            .keep_sessions(true),
    )
    .expect("farm builds");
    let mut ids = Vec::new();
    for i in 0..4 {
        let seed = i as u64;
        ids.push(
            farm.submit(move || {
                Ok(EmuSession::from_blueprint(&figure2_soc(seed))
                    .config(config())
                    .build()?
                    .into_sliced(CYCLES))
            })
            .expect("within capacity"),
        );
    }
    let refused = farm.submit(|| {
        Ok(EmuSession::from_blueprint(&figure2_soc(0))
            .config(config())
            .build()?
            .into_sliced(CYCLES))
    });
    match refused {
        Err(FarmError::Saturated { capacity }) => assert_eq!(capacity, 4),
        other => panic!("expected Saturated, got {other:?}"),
    }
    farm.cancel(ids[2]);
    farm.resume();
    let report = farm.join();
    let cancelled = report.result(ids[2]).expect("cancelled session reported");
    assert!(
        matches!(cancelled.outcome, SessionOutcome::Cancelled),
        "cancel before scheduling must land, ended {}",
        cancelled.outcome
    );
    assert!(
        cancelled.session.is_none(),
        "a session cancelled before its first slice was never built"
    );
    for &id in &[ids[0], ids[1], ids[3]] {
        assert!(report.result(id).expect("reported").outcome.is_completed());
    }
    assert_eq!(report.stats.cancelled, 1);
    assert_eq!(report.stats.completed, 3);
}

/// A panicking session (here: the build closure itself) is contained — its
/// result says `Panicked`, its worker survives, every other session runs.
#[test]
fn a_panicking_session_is_contained_to_its_result() {
    let farm = SessionFarm::new(FarmConfig::new().workers(2)).expect("farm builds");
    let bomb = farm
        .submit(|| -> Result<_, predpkt_core::SessionError> {
            panic!("session bomb");
        })
        .expect("admitted");
    let mut normal = Vec::new();
    for i in 0..8 {
        let seed = i as u64;
        normal.push(
            farm.submit(move || {
                Ok(EmuSession::from_blueprint(&figure2_soc(seed))
                    .config(config())
                    .build()?
                    .into_sliced(CYCLES))
            })
            .expect("admitted"),
        );
    }
    let report = farm.join();
    match &report.result(bomb).expect("reported").outcome {
        SessionOutcome::Panicked(msg) => assert!(msg.contains("session bomb")),
        other => panic!("expected Panicked, got {other}"),
    }
    for id in normal {
        assert!(report.result(id).expect("reported").outcome.is_completed());
    }
    assert_eq!(report.stats.panicked, 1);
    assert_eq!(report.stats.completed, 8);
}

/// Cancelling sessions mid-run (not merely mid-queue) frees their slots
/// without disturbing the survivors.
#[test]
fn mid_run_cancellation_does_not_stall_others() {
    let farm = SessionFarm::new(FarmConfig::new().workers(2).slice_steps(4)).expect("farm builds");
    let mut ids = Vec::new();
    for i in 0..10 {
        let seed = i as u64;
        let transport = transport_for(i);
        ids.push(
            farm.submit(move || {
                Ok(EmuSession::from_blueprint(&figure2_soc(seed))
                    .config(config())
                    .transport(transport)
                    .build()?
                    .into_sliced(600))
            })
            .expect("admitted"),
        );
    }
    std::thread::sleep(Duration::from_millis(5));
    for &id in ids.iter().step_by(2) {
        farm.cancel(id);
    }
    let report = farm.join();
    for (i, &id) in ids.iter().enumerate() {
        let r = report.result(id).expect("reported");
        if i % 2 == 0 {
            assert!(
                matches!(
                    r.outcome,
                    SessionOutcome::Cancelled | SessionOutcome::Completed
                ),
                "session {id}: cancel raced completion but must not fail: {}",
                r.outcome
            );
        } else {
            assert!(r.outcome.is_completed(), "session {id} ended {}", r.outcome);
        }
    }
    assert_eq!(report.stats.failed, 0);
    assert_eq!(report.stats.evicted, 0);
}

/// The resource story: churning 64 socket/ring sessions through a two-worker
/// farm leaves file descriptors flat and never grows the thread count —
/// sessions cost sockets while alive and *zero threads ever*.
#[cfg(target_os = "linux")]
#[test]
fn churn_keeps_fds_and_threads_bounded() {
    let fds_before = open_fds();
    let threads_before = thread_count();
    let farm = SessionFarm::new(FarmConfig::new().workers(2).capacity(8)).expect("farm builds");
    let mut max_threads = 0;
    for wave in 0..8 {
        for i in 0..8 {
            let seed = (wave * 8 + i) as u64;
            let transport = if i % 2 == 0 {
                TransportSelect::Tcp(TcpOptions::default().threaded(snappy()))
            } else {
                TransportSelect::Shm(ShmOptions::default().threaded(snappy()).file_backed())
            };
            farm.submit(move || {
                Ok(EmuSession::from_blueprint(&figure2_soc(seed))
                    .config(config())
                    .transport(transport)
                    .build()?
                    .into_sliced(40))
            })
            .expect("wave fits capacity");
        }
        drain(&farm, Duration::from_secs(30));
        max_threads = max_threads.max(thread_count());
    }
    let report = farm.join();
    assert_eq!(report.stats.completed, 64);

    // Two farm workers plus slack for the test harness's own sibling test
    // threads; 64 thread-per-session runs would have needed 128.
    assert!(
        max_threads <= threads_before + 2 + 8,
        "thread count grew with session count: {threads_before} -> {max_threads}"
    );
    let fds_after = open_fds();
    assert!(
        fds_after <= fds_before + 8,
        "descriptor churn leaked: {fds_before} -> {fds_after}"
    );
}

/// Satellite fix: a session that *fails* (not merely wedges) carries its
/// last boundary cut out in [`SessionOutcome::Failed`], exactly like an
/// eviction does — a transport that died mid-run loses nothing past the
/// latest checkpoint. The cut restores into a clean twin that lands on the
/// straight-through baseline.
#[test]
fn failed_session_carries_its_last_cut() {
    const SEED: u64 = 5;
    // Frames before the link severs — far enough in that boundaries have
    // passed, early enough that the session cannot finish.
    const CUT: u64 = 8;
    let farm: SessionFarm<AhbDomainModel> = SessionFarm::new(
        FarmConfig::new()
            .workers(1)
            .slice_steps(64)
            .checkpoint_evictions(true),
    )
    .expect("farm builds");
    let id = farm
        .submit(move || {
            Ok(EmuSession::from_blueprint(&figure2_soc(SEED))
                .config(config())
                .transport(TransportSelect::Tcp(
                    TcpOptions::default()
                        .threaded(snappy())
                        .fault(FaultSpec::disconnect_after(9, CUT)),
                ))
                .build()?
                .into_sliced(CYCLES))
        })
        .expect("admitted");
    let report = farm.join();
    let result = report.result(id).expect("reported");
    let SessionOutcome::Failed {
        error,
        checkpoint: Some(ckpt),
    } = &result.outcome
    else {
        panic!(
            "expected a checkpoint-carrying failure, got {}",
            result.outcome
        );
    };
    assert!(
        matches!(error, SimError::Deadlock { .. }),
        "a severed bare link dies of starvation: {error}"
    );
    assert!(
        ckpt.committed_cycles() > 0 && ckpt.committed_cycles() < CYCLES,
        "the kill must land mid-run for this test to mean anything \
         (committed {} of {CYCLES}); retune CUT",
        ckpt.committed_cycles()
    );
    assert_eq!(report.stats.failed, 1);

    let mut twin = EmuSession::from_blueprint(&figure2_soc(SEED))
        .config(config())
        .transport(TransportSelect::Tcp(
            TcpOptions::default().threaded(snappy()),
        ))
        .build()
        .expect("twin builds");
    twin.restore(ckpt.as_ref())
        .expect("checkpoint restores into the twin");
    twin.run_until_committed(CYCLES).expect("twin completes");
    assert_eq!(observe(&twin, SEED), direct_baseline(SEED));
}

/// The self-healing tentpole, failure path: a healable session whose socket
/// link severs mid-run is auto-readmitted — rebuilt on a fresh transport
/// after its backoff, resumed from its last cut — and completes
/// bit-identically to its direct run, while a dozen live sessions sharing
/// the pool are untouched. The death never shows in the final outcomes;
/// only the `readmitted` counter records the heal.
#[test]
fn severed_link_session_heals_in_place_without_stalling_live_sessions() {
    const SEED: u64 = 5;
    const CUT: u64 = 8;
    let farm = SessionFarm::new(
        FarmConfig::new()
            .workers(2)
            .slice_steps(64)
            .park_slice(Duration::from_micros(200))
            .deadlock_timeout(Duration::from_millis(300))
            .checkpoint_evictions(true)
            .keep_sessions(true)
            .readmit(
                ReadmitPolicy::new()
                    .max_retries(3)
                    .base_delay(Duration::from_millis(1)),
            ),
    )
    .expect("farm builds");
    let mut incarnation = 0u32;
    let healable = farm
        .submit_healable(move || {
            incarnation += 1;
            // First incarnation is doomed; every respawn gets a clean link.
            let opts = TcpOptions::default().threaded(snappy());
            let opts = if incarnation == 1 {
                opts.fault(FaultSpec::disconnect_after(9, CUT))
            } else {
                opts
            };
            Ok(EmuSession::from_blueprint(&figure2_soc(SEED))
                .config(config())
                .transport(TransportSelect::Tcp(opts))
                .build()?
                .into_sliced(CYCLES))
        })
        .expect("healable admitted");
    let mut live = Vec::new();
    for i in 0..12 {
        let seed = i as u64;
        let transport = transport_for(i);
        live.push(
            farm.submit(move || {
                Ok(EmuSession::from_blueprint(&figure2_soc(seed))
                    .config(config())
                    .transport(transport)
                    .build()?
                    .into_sliced(CYCLES))
            })
            .expect("live session admitted"),
        );
    }
    let report = farm.join();
    let healed = report.result(healable).expect("healable reported");
    assert!(
        healed.outcome.is_completed(),
        "the healed session must complete, ended {}",
        healed.outcome
    );
    let session = healed.session.as_ref().expect("keep_sessions retains it");
    assert_eq!(
        observe(session, SEED),
        direct_baseline(SEED),
        "the healed run diverged from its direct run"
    );
    assert_eq!(
        report.stats.readmitted, 1,
        "exactly one heal: {}",
        report.stats
    );
    assert_eq!(report.stats.gave_up, 0);
    assert_eq!(report.stats.failed, 0, "the death was healed, not recorded");
    assert!(report.stats.backoff >= Duration::from_millis(1));
    for (i, id) in live.into_iter().enumerate() {
        let r = report.result(id).expect("live session reported");
        assert!(
            r.outcome.is_completed(),
            "live session {id} was perturbed by the heal: {}",
            r.outcome
        );
        let seed = i as u64;
        let session = r.session.as_ref().expect("keep_sessions retains it");
        assert_eq!(
            observe(session, seed),
            direct_baseline(seed),
            "live session {id} (seed {seed}) diverged"
        );
    }
}

/// The self-healing tentpole, eviction path: a link that *hangs* (frames
/// swallowed, link looks alive) wedges its session into the parked set; the
/// eviction sweep pulls it with its cut, the re-admission policy heals it on
/// a fresh link, and the final outcomes show a completed session — zero
/// evictions — with the heal visible only in the counters.
#[test]
fn wedged_link_session_heals_through_the_eviction_path() {
    const SEED: u64 = 11;
    const CUT: u64 = 8;
    let farm = SessionFarm::new(
        FarmConfig::new()
            .workers(2)
            .slice_steps(64)
            .park_slice(Duration::from_micros(200))
            .deadlock_timeout(Duration::from_millis(300))
            .checkpoint_evictions(true)
            .keep_sessions(true)
            .readmit(
                ReadmitPolicy::new()
                    .max_retries(3)
                    .base_delay(Duration::from_millis(1)),
            ),
    )
    .expect("farm builds");
    // Two domains, and a three-domain mesh in the same pool: every one of its
    // links hangs, the cut spans all three edges, and the re-admission
    // rebuilds the whole mesh under it.
    let healables = [2usize, 3].map(|domains| {
        let mut incarnation = 0u32;
        let id = farm.submit_healable(move || {
            incarnation += 1;
            let opts = TcpOptions::default().threaded(snappy());
            let opts = if incarnation == 1 {
                opts.fault(FaultSpec::hang_after(13, CUT))
            } else {
                opts
            };
            Ok(EmuSession::from_blueprint(&figure2_soc(SEED))
                .domains(domains)
                .config(config())
                .transport(TransportSelect::Tcp(opts))
                .build()?
                .into_sliced(CYCLES))
        });
        (domains, id.expect("healable admitted"))
    });
    let report = farm.join();
    for (domains, healable) in healables {
        let healed = report.result(healable).expect("healable reported");
        assert!(
            healed.outcome.is_completed(),
            "n={domains}: the healed session must complete, ended {}",
            healed.outcome
        );
        let session = healed.session.as_ref().expect("keep_sessions retains it");
        assert_eq!(session.domains(), domains);
        assert_eq!(
            observe(session, SEED),
            direct_mesh_baseline(SEED, domains),
            "n={domains}: the healed run diverged from its direct run"
        );
    }
    assert_eq!(
        report.stats.readmitted, 2,
        "one heal each: {}",
        report.stats
    );
    assert_eq!(
        report.stats.evicted, 0,
        "the evictions were healed, not recorded"
    );
    assert!(
        report.stats.parked_events > 0,
        "the hung links must have parked before evicting"
    );
}

/// The retry budget is a hard bound and giving up is never silent: a session
/// whose every incarnation severs immediately burns its budget, lands as a
/// final `Failed` outcome, and the roll-up counts both the heals attempted
/// and the surrender.
#[test]
fn exhausted_heal_budget_is_counted_never_silent() {
    let farm: SessionFarm<AhbDomainModel> = SessionFarm::new(
        FarmConfig::new()
            .workers(1)
            .slice_steps(64)
            .checkpoint_evictions(true)
            .readmit(
                ReadmitPolicy::new()
                    .max_retries(2)
                    .base_delay(Duration::from_micros(100)),
            ),
    )
    .expect("farm builds");
    let id = farm
        .submit_healable(move || {
            // Doomed every time: the link dies on the first frame.
            Ok(EmuSession::from_blueprint(&figure2_soc(3))
                .config(config())
                .transport(TransportSelect::Tcp(
                    TcpOptions::default()
                        .threaded(snappy())
                        .fault(FaultSpec::disconnect_after(7, 1)),
                ))
                .build()?
                .into_sliced(CYCLES))
        })
        .expect("admitted");
    let report = farm.join();
    let result = report.result(id).expect("reported");
    assert!(
        matches!(result.outcome, SessionOutcome::Failed { .. }),
        "the surrendered session keeps its real outcome, got {}",
        result.outcome
    );
    assert_eq!(report.stats.readmitted, 2, "budget spent: {}", report.stats);
    assert_eq!(
        report.stats.gave_up, 1,
        "surrender counted: {}",
        report.stats
    );
    assert_eq!(report.stats.failed, 1);
    assert_eq!(report.stats.completed, 0);
}

/// A healable session needs a policy to heal under: a farm built without
/// [`FarmConfig::readmit`] refuses `submit_healable` with a typed error.
#[test]
fn submit_healable_without_a_policy_is_refused() {
    let farm: SessionFarm<AhbDomainModel> =
        SessionFarm::new(FarmConfig::new().workers(1)).expect("farm builds");
    let refused = farm.submit_healable(
        || -> Result<predpkt_farm::SlicedSession<AhbDomainModel>, predpkt_core::SessionError> {
            unreachable!("never scheduled")
        },
    );
    match refused {
        Err(FarmError::Config(e)) => assert!(
            e.to_string().contains("readmit"),
            "the refusal names the missing knob: {e}"
        ),
        other => panic!("expected Config refusal, got {other:?}"),
    }
    farm.join();
}

/// Checkpoint-carrying eviction, end to end: a session that commits a clean
/// prefix and then wedges (a rare seeded drop on the plain socket path —
/// no reliability layer, so the first lost frame is fatal) is evicted
/// *with* its last consistent cut. Restoring that cut into a clean twin
/// and running to the target commits exactly what a straight clean run
/// commits — the evicted work is carried forward, not lost.
#[test]
fn eviction_checkpoint_readmits_into_a_twin() {
    const SEED: u64 = 3;
    // Chosen so the first seeded drop lands mid-run: the session wedges
    // with a clean committed prefix behind it (the fault stream is a pure
    // function of this seed, so the wedge point is stable).
    const FAULT_SEED: u64 = 10;
    const DROP_RATE: f64 = 0.02;

    let farm: SessionFarm<AhbDomainModel> = SessionFarm::new(
        FarmConfig::new()
            .workers(1)
            .slice_steps(8)
            .park_slice(Duration::from_micros(200))
            .deadlock_timeout(Duration::from_millis(300))
            .checkpoint_evictions(true),
    )
    .expect("farm builds");
    let id = farm
        .submit(move || {
            Ok(EmuSession::from_blueprint(&figure2_soc(SEED))
                .config(config())
                .transport(TransportSelect::Tcp(
                    TcpOptions::default()
                        .threaded(snappy())
                        .fault(FaultSpec::drops(FAULT_SEED, DROP_RATE)),
                ))
                .build()?
                .into_sliced(CYCLES))
        })
        .expect("admitted");
    let report = farm.join();
    let result = report.result(id).expect("reported");
    let SessionOutcome::Evicted {
        checkpoint: Some(ckpt),
    } = &result.outcome
    else {
        panic!(
            "expected a checkpoint-carrying eviction, got {}",
            result.outcome
        );
    };
    assert!(
        ckpt.committed_cycles() > 0 && ckpt.committed_cycles() < CYCLES,
        "the wedge must land mid-run for this test to mean anything \
         (committed {} of {CYCLES}); retune the fault seed/rate",
        ckpt.committed_cycles()
    );
    assert_eq!(report.stats.evicted, 1);

    // Re-admit the cut into a clean twin on the same (fault-free) backend.
    // Everything the wedged run committed before its first drop was clean,
    // so the twin must land exactly on the straight-through baseline.
    let mut twin = EmuSession::from_blueprint(&figure2_soc(SEED))
        .config(config())
        .transport(TransportSelect::Tcp(
            TcpOptions::default().threaded(snappy()),
        ))
        .build()
        .expect("twin builds");
    twin.restore(ckpt.as_ref())
        .expect("checkpoint restores into the twin");
    assert_eq!(twin.committed_cycles(), ckpt.committed_cycles());
    twin.run_until_committed(CYCLES).expect("twin completes");
    assert_eq!(observe(&twin, SEED), direct_baseline(SEED));
}
