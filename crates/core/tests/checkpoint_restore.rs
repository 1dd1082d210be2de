//! Whole-session checkpoint/restore: the acceptance matrix.
//!
//! The core property: checkpointing a session at a committed boundary,
//! serializing the checkpoint to bytes, restoring it into a *freshly built*
//! session of the same shape, and running on commits results bit-identical to
//! never having stopped — merged trace, halt boundary, protocol channel
//! statistics, virtual-time ledger, and wrapper counters all match the
//! straight-through queue baseline, for every transport backend the session
//! layer offers, including mid-run checkpoints under seeded faults.
//!
//! The failure half: corrupt or truncated blobs are rejected with typed
//! errors naming the damaged component, a checkpoint restored into a session
//! of the wrong shape poisons it (every subsequent step refuses with
//! [`SimError::StatePoisoned`]) until a well-shaped restore heals it, and a
//! checkpoint from one backend never restores into another.

mod common;

use common::conformance::{
    backend, backends, build_session, for_each_cell, named, workload_config, workload_for,
    Perturbation, Suite,
};
use common::{figure2_soc, figure2_soc_seeded};
use predpkt_channel::tcp::{encode_frame_into, read_frame};
use predpkt_channel::{crc32, FaultSpec, Packet, PacketTag};
use predpkt_core::{
    CheckpointError, CoEmuConfig, EmuSession, ModePolicy, SessionCheckpoint, Side, SliceStatus,
    SocBlueprint, TransportSelect,
};
use predpkt_sim::{SimError, SnapshotError};

/// The tentpole acceptance: restore-then-run is bit-identical to
/// run-straight-through on every backend, at two domains and over a
/// three-domain mesh (one cut of all three edges). Reliable rows with a
/// deterministic clock serialize their windows and clock in the cut, so the
/// restored run repairs nothing on a clean link.
#[test]
fn restore_then_run_matches_straight_through_on_every_backend() {
    let workload = [workload_for(ModePolicy::Auto)];
    for_each_cell(&workload, &[2, 3], &backends(), Perturbation::CutAndRestore);
}

/// FNV-1a-64 over a blob's bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The blob is what crosses the wire on eviction and migration, and it is
/// deterministic for a fixed cut — so it is pinned exactly, per layout (one
/// shared channel and ledger under `channel` / `ledger`; one per side under
/// `channel.sim` … `ledger.acc`): by size at a short cut, and by content at
/// a longer one for the backends whose blob is a function of the committed
/// cut alone — the shared queue is in the blob, bare or under an inactive
/// fault plan, and an mpsc end adds nothing to it. The reliable backends are
/// left out on purpose: their retransmission clock counts fruitless polls,
/// which a schedule may change without changing what is committed. Any
/// other drift is a real format or state change: update the numbers on
/// purpose, in the PR that explains why.
#[test]
fn checkpoint_blob_size_is_pinned_per_engine_layout() {
    let checkpoint_at = |name: &str, config: CoEmuConfig, cycles: u64| {
        let mut session = EmuSession::from_blueprint(&figure2_soc_seeded(11))
            .config(config)
            .transport(backend(name).select())
            .build()
            .expect("session builds");
        session
            .run_until_committed(cycles)
            .expect("run reaches the cut");
        session.checkpoint().expect("checkpoint at the boundary")
    };
    let short = CoEmuConfig::paper_defaults()
        .policy(ModePolicy::Auto)
        .rollback_vars(None);
    for (name, bytes) in [("queue", 46_644), ("tcp", 46_904)] {
        let ckpt = checkpoint_at(name, short, 200);
        assert_eq!(ckpt.committed_cycles(), 203, "{name}: the halt boundary");
        assert_eq!(ckpt.to_bytes().len(), bytes, "{name}: blob bytes");
    }
    let long = workload_config(&workload_for(ModePolicy::Auto));
    for (name, bytes, hash) in [
        ("queue", 113_804, 0xeeed_60b8_b990_6427_u64),
        ("lossy", 113_852, 0x1141_eb1f_7545_a1ca),
        ("threaded", 113_972, 0xd091_6bb8_69e4_a81a),
    ] {
        let ckpt = checkpoint_at(name, long, 700);
        assert_eq!(ckpt.committed_cycles(), 701, "{name}: the halt boundary");
        let blob = ckpt.to_bytes();
        assert_eq!(blob.len(), bytes, "{name}: blob bytes");
        assert_eq!(fnv1a(&blob), hash, "{name}: blob content (FNV-1a)");
    }
}

/// Adaptive predictor state is part of the cut: a session racing candidate
/// strategies — scoreboards, shadow candidates, learned context tables, and
/// any un-billed switch words — checkpoints mid-run and restores into a
/// fresh session bit-identically to never having stopped. A restored twin
/// that re-learned from scratch (or forgot a pending switch bill) would
/// diverge in channel statistics even though rollback keeps traces equal.
#[test]
fn adaptive_suite_checkpoint_restores_predictor_state() {
    let adaptive = [workload_for(ModePolicy::Auto).with(Suite::Adaptive)];
    let queue = named(&["queue"]);
    for_each_cell(&adaptive, &[2], &queue, Perturbation::CutAndRestore);
}

/// Mid-run checkpoints under seeded faults: the lossy transport's RNG cursor
/// and the reliability layer's windows are part of the cut, so the restored
/// run replays the *same* fault plan and the *same* repairs — recovery
/// counters and fault counters included.
#[test]
fn mid_run_checkpoint_under_seeded_faults_is_bit_identical() {
    let workload = [workload_for(ModePolicy::Auto)];
    for spec in [
        FaultSpec::drops(7, 0.15),
        FaultSpec::truncations(11, 0.15),
        FaultSpec::duplicates(13, 0.2),
    ] {
        let faulted = [backend("reliable+lossy").with_fault(spec)];
        for_each_cell(&workload, &[2], &faulted, Perturbation::CutAndRestore);
    }
}

/// Truncated and bit-flipped blobs are rejected with typed errors naming the
/// damage, before any session state is touched.
#[test]
fn corrupt_blobs_are_rejected_typed() {
    let workload = workload_for(ModePolicy::Auto);
    let mut session = build_session(TransportSelect::Queue, &workload);
    session.run_until_committed(100).expect("run completes");
    let bytes = session.checkpoint().expect("checkpoint").to_bytes();

    // Truncation anywhere in the stream is a typed parse failure.
    for cut in [0, 3, bytes.len() / 2, bytes.len() - 5] {
        let err = SessionCheckpoint::from_bytes(&bytes[..cut])
            .expect_err("truncated blob must be rejected");
        assert!(
            matches!(err, CheckpointError::Malformed { .. }),
            "truncation at {cut} bytes: got {err:?}"
        );
    }

    // A bit flip in the final section's CRC seal names that section. The
    // cooperative section table ends with the ledger.
    let mut flipped = bytes.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x01;
    let err = SessionCheckpoint::from_bytes(&flipped).expect_err("damaged CRC must be rejected");
    assert_eq!(
        err,
        CheckpointError::CrcMismatch {
            section: "ledger".to_string()
        }
    );

    // The session the checkpoint came from is untouched by all of the above.
    assert!(session.at_checkpoint_boundary());
    session.run_until_committed(150).expect("still runs");

    // Resealed blobs whose wrapper words no session can run on are refused
    // at that word and poison the target until a good restore: carried
    // next-cycle actuals that fail the peer-vector gate (a master's flags
    // word with bits past HPROT set), and a run-ahead depth of 0 or past
    // the LOB. Each used to restore, then panic or never commit again.
    let lob_depth = workload_config(&workload).lob_depth as u64;
    let (ckpt, side, actuals_at) = (100..3_000)
        .step_by(37)
        .find_map(|cut| {
            session
                .run_until_committed(cut)
                .expect("run reaches the cut");
            let ckpt = session.checkpoint().expect("checkpoint");
            ["sim", "acc"].into_iter().find_map(|side| {
                let words = section_words(&ckpt.to_bytes(), &format!("wrapper.{side}"));
                carried_at(&words, side, ckpt.committed_cycles()).map(|at| (ckpt.clone(), side, at))
            })
        })
        .expect("some cut carries next-cycle actuals");
    let label = format!("wrapper.{side}");
    let bytes = ckpt.to_bytes();
    let depth_at = section_words(&bytes, &label).len() - 17;
    for (at, bad) in [
        (actuals_at, u64::from(u32::MAX)),
        (depth_at, 0),
        (depth_at, lob_depth + 1),
    ] {
        let hostile = edit_section(&bytes, &label, |words| words[at] = bad);
        let mut target = build_session(TransportSelect::Queue, &workload);
        let err = target.restore(&hostile).expect_err("hostile cut refused");
        assert_eq!(
            err,
            CheckpointError::Snapshot {
                section: label.clone(),
                source: SnapshotError::Corrupt { at }
            },
            "word {at} = {bad}"
        );
        assert!(matches!(
            target.run_until_committed(ckpt.committed_cycles() + 50),
            Err(SimError::StatePoisoned(_))
        ));
        target.restore(&ckpt).expect("the good cut heals");
        target
            .run_until_committed(ckpt.committed_cycles() + 50)
            .expect("healed session runs");
    }
}

/// If `frame` opens section `label`: its payload without the seal, and
/// where in it the section's word pairs start.
fn section_frame(frame: &Packet, label: &str) -> Option<(Vec<u32>, usize)> {
    let payload = frame.payload().split_last()?.1.to_vec();
    let len = *payload.first()? as usize;
    let head = 1 + len.div_ceil(4);
    let bytes: Vec<u8> = payload
        .get(1..head)?
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .collect();
    (bytes.get(..len)? == label.as_bytes()).then_some((payload, head + 2))
}

/// The words of section `label` (one frame) of `blob`.
fn section_words(blob: &[u8], label: &str) -> Vec<u64> {
    let mut cursor = blob;
    while !cursor.is_empty() {
        let frame = read_frame(&mut cursor).expect("the blob's own frames");
        if let Some((payload, data)) = section_frame(&frame, label) {
            let pairs = payload[data..].chunks_exact(2);
            return pairs
                .map(|p| u64::from(p[0]) | u64::from(p[1]) << 32)
                .collect();
        }
    }
    panic!("no section {label}");
}

/// `blob` with `edit` applied to the words of its section `label`, resealed
/// so that only the wrapper, not the codec, can refuse it.
fn edit_section(blob: &[u8], label: &str, edit: impl FnOnce(&mut Vec<u64>)) -> SessionCheckpoint {
    let mut words = section_words(blob, label);
    edit(&mut words);
    let (mut cursor, mut out) = (blob, Vec::new());
    while !cursor.is_empty() {
        let mut frame = read_frame(&mut cursor).expect("the blob's own frames");
        if let Some((mut payload, data)) = section_frame(&frame, label) {
            payload.truncate(data);
            payload.extend(words.iter().flat_map(|&w| [w as u32, (w >> 32) as u32]));
            payload.push(crc32(&payload));
            frame = Packet::new(PacketTag::Checkpoint, payload);
        }
        encode_frame_into(&mut out, &frame);
    }
    SessionCheckpoint::from_bytes(&out).expect("a resealed blob parses")
}

/// Where the next-cycle actuals a `side` wrapper section carries start, if
/// it carries any. The section ends with the carry flag, the cycle and the
/// length-prefixed actuals (when carried), the run-ahead depth and the 16
/// statistics words.
fn carried_at(words: &[u64], side: &str, committed: u64) -> Option<usize> {
    let peer = if side == "sim" {
        Side::Accelerator
    } else {
        Side::Simulator
    };
    let width = figure2_soc().placement().local_width(peer);
    let start = words.len() - 17 - width;
    (words[start - 3..start] == [1, committed, width as u64]).then_some(start)
}

/// A minimal SoC with a different shape than Fig. 2 — its wrapper state
/// vectors have different widths, so a Fig. 2 checkpoint cannot restore into
/// it.
fn tiny_soc() -> SocBlueprint {
    use predpkt_ahb::masters::{CpuMaster, CpuProfile};
    use predpkt_ahb::slaves::MemorySlave;
    SocBlueprint::new()
        .master(Side::Simulator, || {
            Box::new(CpuMaster::new(0x5eed, CpuProfile::default()))
        })
        .slave(Side::Accelerator, 0x0000_0000, 0x1000, || {
            Box::new(MemorySlave::new(0x1000, 0))
        })
}

/// A checkpoint restored into a session of the wrong shape fails with a typed
/// error naming the component, poisons the session (stepping refuses with
/// `StatePoisoned` instead of running on half-restored state), and a
/// well-shaped restore heals it.
#[test]
fn shape_mismatch_poisons_until_a_good_restore() {
    let workload = workload_for(ModePolicy::Auto);
    let mut donor = build_session(TransportSelect::Queue, &workload);
    donor.run_until_committed(100).expect("donor run completes");
    let foreign = donor.checkpoint().expect("donor checkpoint");

    let mut victim = EmuSession::from_blueprint(&tiny_soc())
        .config(workload_config(&workload))
        .build()
        .expect("tiny session builds");
    victim.run_until_committed(50).expect("victim runs clean");
    let own = victim.checkpoint().expect("victim checkpoint");

    let err = victim
        .restore(&foreign)
        .expect_err("wrong-shape restore must fail");
    let section = match &err {
        CheckpointError::Snapshot { section, .. } => section.clone(),
        other => panic!("expected a component-naming snapshot error, got {other:?}"),
    };
    assert!(
        !section.is_empty(),
        "the failure names the component that rejected its words"
    );

    // Half-restored state must not run.
    let step = victim
        .run_until_committed(60)
        .expect_err("poisoned session refuses to step");
    assert!(
        matches!(step, SimError::StatePoisoned(_)),
        "got {step:?} instead of StatePoisoned"
    );
    // And must not checkpoint (the cut would capture the inconsistency).
    assert!(matches!(
        victim.checkpoint(),
        Err(CheckpointError::Poisoned(_))
    ));

    // A successful restore of its own checkpoint heals the session.
    victim.restore(&own).expect("well-shaped restore heals");
    victim.run_until_committed(60).expect("healed session runs");

    // The backend name does not carry the domain count, and the cut of a
    // wider mesh holds every label a narrower one asks for (its edge 2 joins
    // other domains): only an exact section table restores. Refused either
    // way round before anything changes, so the target still steps.
    let cut_of = |domains: usize| {
        let mut session = build_session(TransportSelect::Queue, &workload.at(domains));
        session.run_until_committed(40).expect("mesh runs");
        (session.checkpoint().expect("mesh checkpoint"), session)
    };
    let (narrow_cut, mut narrow) = cut_of(3);
    let (wide_cut, mut wide) = cut_of(4);
    assert_eq!(narrow_cut.backend(), wide_cut.backend());
    assert_eq!(
        (narrow_cut.sections().count(), wide_cut.sections().count()),
        (18, 36)
    );
    assert_eq!(
        narrow.restore(&wide_cut),
        Err(CheckpointError::UnexpectedSection {
            section: "edge3.wrapper.sim".to_string()
        })
    );
    assert_eq!(
        wide.restore(&narrow_cut),
        Err(CheckpointError::MissingSection {
            section: "edge3.wrapper.sim".to_string()
        })
    );
    narrow
        .run_until_committed(80)
        .expect("refused, not touched");
    wide.run_until_committed(80).expect("refused, not touched");

    // A section that fails part-way poisons the whole mesh.
    let mut mesh = EmuSession::from_blueprint(&tiny_soc())
        .domains(3)
        .config(workload_config(&workload))
        .build()
        .expect("tiny mesh builds");
    mesh.run_until_committed(50).expect("tiny mesh runs");
    let own = mesh.checkpoint().expect("tiny mesh checkpoint");
    assert!(matches!(
        mesh.restore(&narrow_cut),
        Err(CheckpointError::Snapshot { .. })
    ));
    assert!(matches!(
        mesh.run_until_committed(60),
        Err(SimError::StatePoisoned(_))
    ));
    mesh.restore(&own).expect("well-shaped restore heals");
    mesh.run_until_committed(60).expect("healed mesh runs");
}

/// Backends serialize different channel word streams, so a checkpoint only
/// restores into a session running the same backend — rejected up front,
/// before any state is touched.
#[test]
fn backend_mismatch_is_rejected_before_any_state_changes() {
    let workload = workload_for(ModePolicy::Auto);
    let mut queue = build_session(TransportSelect::Queue, &workload);
    queue.run_until_committed(100).expect("queue run completes");
    let ckpt = queue.checkpoint().expect("queue checkpoint");

    let mut reliable = build_session(backend("reliable+queue").select(), &workload);
    reliable.run_until_committed(40).expect("reliable run");
    let before = reliable.committed_cycles();
    let err = reliable
        .restore(&ckpt)
        .expect_err("cross-backend restore must fail");
    assert_eq!(
        err,
        CheckpointError::BackendMismatch {
            expected: "reliable+queue".to_string(),
            found: "queue".to_string()
        }
    );
    assert_eq!(
        reliable.committed_cycles(),
        before,
        "the rejected restore touched nothing"
    );
    reliable
        .run_until_committed(80)
        .expect("session still runs");
}

/// The sliced runner's opt-in auto-checkpoint: after slices that cross a
/// committed boundary, the latest cut is stashed for harvest — the farm's
/// eviction path rides on exactly this.
#[test]
fn sliced_auto_checkpoint_stashes_the_latest_boundary() {
    let workload = workload_for(ModePolicy::Auto);
    let mut sliced = build_session(TransportSelect::Queue, &workload).into_sliced(200);
    assert!(!sliced.auto_checkpoint(), "off by default");
    sliced.set_auto_checkpoint(true);
    loop {
        match sliced.run_slice(64).expect("slice runs") {
            SliceStatus::Done => break,
            SliceStatus::Working | SliceStatus::Idle => continue,
        }
    }
    let ckpt = sliced
        .take_latest_checkpoint()
        .expect("auto-checkpoint stashed a cut");
    assert_eq!(ckpt.committed_cycles(), sliced.committed_cycles());
    assert!(
        sliced.take_latest_checkpoint().is_none(),
        "take hands the stash over exactly once"
    );

    // The stashed cut restores like any other.
    let mut fresh = build_session(TransportSelect::Queue, &workload);
    fresh.restore(&ckpt).expect("stashed cut restores");
    assert_eq!(fresh.committed_cycles(), ckpt.committed_cycles());
}

/// A checkpoint mid-transition is refused: the cut is only defined at a
/// committed boundary — of every edge, in a mesh.
#[test]
fn checkpoint_off_boundary_is_refused() {
    'domains: for domains in [2, 3] {
        let workload = workload_for(ModePolicy::Auto).at(domains);
        let mut sliced = build_session(TransportSelect::Queue, &workload).into_sliced(500);
        // Step one scheduling round at a time until the session leaves the
        // boundary mid-transition, then demand a checkpoint.
        for _ in 0..10_000 {
            if !sliced.session().at_checkpoint_boundary() {
                let err = sliced.checkpoint().expect_err("mid-transition cut refused");
                assert_eq!(err, CheckpointError::NotAtBoundary);
                continue 'domains;
            }
            if matches!(sliced.run_slice(1).expect("slice runs"), SliceStatus::Done) {
                break;
            }
        }
        panic!("n={domains}: the run never left a checkpoint boundary mid-transition");
    }
}
