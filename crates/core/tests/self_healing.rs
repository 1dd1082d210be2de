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
//! The default tests kill each backend once, early enough that at least one
//! auto-checkpoint boundary has passed; the `#[ignore]`d sweep kills at a
//! ladder of frame counts spanning the whole run — every checkpoint
//! boundary falls between two ladder rungs — across every disconnectable
//! backend. CI's slow-tests lane runs the ignored sweep.

mod common;

use common::conformance::{
    assert_matches_baseline, baseline, build_session, observe, shm_opts, tcp_opts, workload_for,
    Observed, Workload,
};
use common::figure2_soc;
use predpkt_channel::FaultSpec;
use predpkt_core::{ModePolicy, ReliableInner, SessionCheckpoint, SliceStatus, TransportSelect};
use predpkt_sim::SimError;

/// Seed for every terminal-fault plan in this suite (rates stay zero; the
/// plan is transparent until the cut fires, so committed results can be
/// compared against the clean queue baseline bit for bit).
const SEED: u64 = 0x5e1f_4ea1;

/// Committed cycles between auto-checkpoint cuts — small, so even an early
/// kill usually has a boundary behind it.
const CHECKPOINT_EVERY: u64 = 8;

/// Every backend that can sever its link: the coop fault injector, the
/// socket and ring paths (per-side injectors over real media), and the
/// reliable layer over both a coop and a socket link.
const BACKENDS: [&str; 5] = ["lossy", "tcp", "shm", "reliable+lossy", "reliable+tcp"];

/// A `TransportSelect` for `name` whose link severs after `cut` frames.
fn doomed(name: &str, cut: u64) -> TransportSelect {
    let spec = FaultSpec::disconnect_after(SEED, cut);
    match name {
        "lossy" => TransportSelect::Lossy(spec),
        "tcp" => TransportSelect::Tcp(tcp_opts().fault(spec)),
        "shm" => TransportSelect::Shm(shm_opts().fault(spec)),
        "reliable+lossy" => TransportSelect::reliable(ReliableInner::Lossy(spec)),
        "reliable+tcp" => TransportSelect::reliable(ReliableInner::Tcp(tcp_opts().fault(spec))),
        "reliable+shm" => TransportSelect::reliable(ReliableInner::Shm(shm_opts().fault(spec))),
        other => panic!("unknown self-healing backend {other}"),
    }
}

/// A *fresh, clean* `TransportSelect` of the same shape as [`doomed`]`(name)`
/// — what the healed session is rebuilt on. The fault plan is inert
/// (`FaultSpec::none`), so the backend name matches and the link never dies
/// again.
fn fresh(name: &str) -> TransportSelect {
    let spec = FaultSpec::none(SEED);
    match name {
        "lossy" => TransportSelect::Lossy(spec),
        "tcp" => TransportSelect::Tcp(tcp_opts()),
        "shm" => TransportSelect::Shm(shm_opts()),
        "reliable+lossy" => TransportSelect::reliable(ReliableInner::Lossy(spec)),
        "reliable+tcp" => TransportSelect::reliable(ReliableInner::Tcp(tcp_opts())),
        "reliable+shm" => TransportSelect::reliable(ReliableInner::Shm(shm_opts())),
        other => panic!("unknown self-healing backend {other}"),
    }
}

/// How a kill-and-heal run ended.
#[derive(Debug, PartialEq, Eq)]
enum HealPath {
    /// The link died and the session resumed from its latest checkpoint at
    /// this committed boundary.
    Resumed { boundary: u64 },
    /// The link died before the first checkpoint boundary: nothing to
    /// resume, the run restarted from cycle zero on a fresh transport.
    ColdRestart,
    /// The cut landed beyond the run's traffic — the session finished
    /// before the link could die.
    Unharmed,
}

/// Runs `workload` over `name` with the link doomed to sever after `cut`
/// frames, heals the wreck (resume from the latest auto-checkpoint onto a
/// fresh transport, or cold-restart if no boundary passed), drives the
/// healed session to the original target, and captures what it committed.
fn kill_and_heal(name: &str, cut: u64, workload: &Workload) -> (Observed, HealPath) {
    let blueprint = figure2_soc();
    let mut sliced = build_session(doomed(name, cut), workload).into_sliced(workload.cycles);
    sliced.set_auto_checkpoint(true);
    sliced.set_checkpoint_interval(CHECKPOINT_EVERY);
    let failure = loop {
        // The sliced driver fails fast on a dead medium (no deadlock
        // timeout to wait out); `Idle` on a live link only means frames are
        // still in flight inside the medium.
        match sliced.run_slice(256) {
            Ok(SliceStatus::Done) => break None,
            Ok(_) => continue,
            Err(e) => break Some(e),
        }
    };
    let Some(err) = failure else {
        let session = sliced.into_session();
        return (observe(&session, &blueprint), HealPath::Unharmed);
    };
    // The kill must surface as the typed death for this backend family:
    // starvation-detected deadlock on bare links, an abandoned frame under
    // the reliable layer.
    match &err {
        SimError::Deadlock { .. } if !name.starts_with("reliable") => {}
        SimError::RetryBudgetExhausted { .. } if name.starts_with("reliable") => {}
        other => panic!("{name}/cut={cut}: unexpected failure {other:?}"),
    }
    let checkpoint = sliced.take_latest_checkpoint();
    let dead = sliced.into_session();
    match checkpoint {
        Some(ckpt) => {
            // Round-trip through bytes: nothing but the blob needs to
            // survive the dead session's teardown.
            let ckpt = SessionCheckpoint::from_bytes(&ckpt.to_bytes()).expect("blob round-trips");
            let boundary = ckpt.committed_cycles();
            let mut healed = dead
                .resume_from(&ckpt, fresh(name))
                .expect("resume onto a fresh transport");
            assert_eq!(
                healed.committed_cycles(),
                boundary,
                "{name}/cut={cut}: healed session stands at the checkpoint boundary"
            );
            healed
                .run_until_committed(workload.cycles)
                .expect("healed run completes");
            (observe(&healed, &blueprint), HealPath::Resumed { boundary })
        }
        None => {
            drop(dead);
            let mut restarted = build_session(fresh(name), workload);
            restarted
                .run_until_committed(workload.cycles)
                .expect("restarted run completes");
            (observe(&restarted, &blueprint), HealPath::ColdRestart)
        }
    }
}

/// Cut points derived from the baseline's own traffic volume: one early
/// (a boundary or two in), one mid-run. `total_accesses` counts protocol
/// sends, a lower bound on frames actually crossing any backend's link.
fn default_cuts(straight: &Observed) -> [u64; 2] {
    let frames = straight.channel.total_accesses().max(8);
    [frames / 6, frames / 2]
}

/// The tentpole acceptance: on every disconnectable backend, a session
/// killed mid-run by a severed link resumes from its latest checkpoint onto
/// a fresh transport and commits bit-identical results to the clean queue
/// baseline.
#[test]
fn severed_link_heals_bit_identically_on_every_backend() {
    let workload = workload_for(ModePolicy::Auto);
    let straight = baseline(&workload);
    for name in BACKENDS {
        let mut resumed = 0;
        for cut in default_cuts(&straight) {
            let (observed, path) = kill_and_heal(name, cut, &workload);
            assert_matches_baseline(&workload, name, &straight, &observed);
            assert_ne!(
                path,
                HealPath::Unharmed,
                "{name}/cut={cut}: the kill never fired — cut point too late"
            );
            if let HealPath::Resumed { boundary } = path {
                assert!(boundary > 0, "{name}/cut={cut}: resumed from cycle zero?");
                resumed += 1;
            }
        }
        assert!(
            resumed > 0,
            "{name}: no cut point left a checkpoint behind — the resume path \
             was never exercised"
        );
    }
    // A three-domain mesh heals the same way: every link of it is doomed
    // (per-edge plans off one spec), the first to sever kills the run, and
    // `resume_from` rebuilds all three edges on fresh links under the cut.
    let mesh = workload.at(3);
    let straight = baseline(&mesh);
    for name in ["reliable+tcp", "reliable+shm"] {
        // A sixth of the mesh's traffic is half of one edge's.
        let cut = default_cuts(&straight)[0];
        let (observed, path) = kill_and_heal(name, cut, &mesh);
        assert_matches_baseline(&mesh, name, &straight, &observed);
        assert!(
            matches!(path, HealPath::Resumed { boundary } if boundary > 0),
            "{name}/n=3/cut={cut}: {path:?}"
        );
    }
}

/// A kill before the first checkpoint boundary leaves nothing to resume:
/// the wreck reports its typed death, and a cold restart on a fresh
/// transport still reaches the baseline.
#[test]
fn kill_before_first_boundary_cold_restarts() {
    let workload = workload_for(ModePolicy::Auto);
    let straight = baseline(&workload);
    // One frame: dead before the protocol can commit anything.
    let (observed, path) = kill_and_heal("lossy", 1, &workload);
    assert_eq!(
        path,
        HealPath::ColdRestart,
        "no boundary can precede frame 1"
    );
    assert_matches_baseline(&workload, "lossy/cut=1", &straight, &observed);
}

/// Resuming onto a transport of a *different* shape is rejected before any
/// state is touched — the checkpoint's backend name must match.
#[test]
fn resume_onto_mismatched_backend_is_rejected() {
    let workload = workload_for(ModePolicy::Auto);
    let mut sliced = build_session(doomed("lossy", u64::MAX), &workload).into_sliced(16);
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
/// every disconnectable backend. Each wreck heals bit-identically; the
/// resume path must fire many times per backend.
#[test]
#[ignore = "minutes-long sweep; run by the CI slow-tests lane"]
fn kill_at_every_boundary_sweep() {
    let workload = workload_for(ModePolicy::Auto);
    let straight = baseline(&workload);
    let frames = straight.channel.total_accesses().max(16);
    // Rung spacing under half the traffic of a checkpoint interval: with
    // ~`frames / (cycles / CHECKPOINT_EVERY)` frames per interval, this
    // ladder brackets every boundary the run commits.
    let step = (frames * CHECKPOINT_EVERY / workload.cycles.max(1) / 2).max(1);
    for name in BACKENDS {
        let mut resumed = 0;
        let mut cut = 1;
        while cut < frames {
            let (observed, path) = kill_and_heal(name, cut, &workload);
            assert_matches_baseline(&workload, name, &straight, &observed);
            if matches!(path, HealPath::Resumed { .. }) {
                resumed += 1;
            }
            cut += step;
        }
        assert!(
            resumed >= 4,
            "{name}: the sweep resumed only {resumed} times — checkpoint \
             cadence or kill plan is broken"
        );
    }
}
