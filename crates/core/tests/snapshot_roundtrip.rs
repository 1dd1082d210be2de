//! Shared seeded round-trip harness over the workspace's `Snapshot` impls.
//!
//! One law, checked for every snapshottable component the workspace exports:
//! saving a *seeded* instance (one driven through representative activity,
//! not a freshly constructed one), restoring the words into a *fresh*
//! instance, and saving again must reproduce the original state vector
//! exactly — and a truncated vector must be rejected with a typed
//! [`SnapshotError`], after which the good vector still restores cleanly
//! (a failed restore never bricks the component). Components with
//! variable-length state take a third leg, the one a rollback exercises: the
//! saved words restored over a *dirty* instance — seeded too, but driven
//! differently, so its queues, lists and tables have other sizes and
//! contents — must leave nothing of the dirty state behind.
//!
//! Every impl also takes the rollback path's law: a mark bills what a save
//! stores, and a rewind to it returns the saved state. The domain models and
//! the two journaled slaves take it after driving cycles that write their
//! stores (and, under the adaptive suite, their context tables), since only
//! then does a rewind have a log to undo.
//!
//! The aggregate impls pull their members in recursively: the
//! [`AhbDomainModel`] case covers the bus, fabric, arbiter, master/slave
//! engines, signal codecs, and the paper predictor suite in one vector; the
//! reliable-transport case covers windows, clocks, and recovery counters.
//! `SyntheticModel` (the one impl living above this crate in the dependency
//! order) has the same harness applied in its own crate's tests.

mod common;

use common::{figure2_soc, mesh_soc};
use predpkt_ahb::masters::{DmaMaster, TrafficGenMaster};
use predpkt_ahb::signals::{AddrPhase, Hburst, Hresp, Hsize, Htrans, MasterId, SlaveId, SlaveView};
use predpkt_ahb::slaves::{MemorySlave, PeripheralSlave, SplitSlave};
use predpkt_ahb::{AhbMaster, AhbSlave};
use predpkt_channel::{
    ChannelCostModel, ChannelStats, CostedChannel, FaultSpec, LossyTransport, Packet, PacketTag,
    QueueTransport, ReliableConfig, ReliableTransport, ShmTransport, TcpTransport,
    ThreadedTransport, Transport,
};
use predpkt_core::{AhbDomainModel, CwStats, DomainModel, Side, SocBlueprint, TickKind};
use predpkt_predict::{
    AdaptiveConfig, AdaptiveMasterPredictor, AdaptiveSlavePredictor, AdaptiveSuite, BurstFollower,
    ContextMasterPredictor, ContextSlavePredictor, ContextTable, LastValueMasterPredictor,
    LastValuePredictor, LastValueSlavePredictor, MasterPredictor, MasterSignals,
    PaperMasterPredictor, PaperSlavePredictor, PaperSuite, PredictorSuite, SlavePredictor,
    SlaveSignals, WaitPredictor,
};
use predpkt_sim::{
    mark_into, restore_from_vec, rewind_from_vec, save_to_vec, CostCategory, Snapshot,
    SnapshotError, SplitMix64, StateReader, StateVec, StateWriter, TimeLedger, Trace, VirtualTime,
};

/// The law: seeded → save → restore-into-fresh → save is a fixed point, a
/// mark bills what the save stored and rewinds to it, a truncated vector is
/// rejected typed, and the rejection is recoverable.
fn assert_roundtrip<T: Snapshot + ?Sized>(name: &str, seeded: &T, fresh: &mut T) {
    let saved = save_to_vec(seeded);
    assert_eq!(
        seeded.saved_len(),
        saved.len(),
        "{name}: saved_len must count what a save writes"
    );
    restore_from_vec(fresh, &saved)
        .unwrap_or_else(|e| panic!("{name}: restore into a fresh instance failed: {e}"));
    let resaved = save_to_vec(fresh);
    assert_eq!(
        saved, resaved,
        "{name}: save → restore → save is not a fixed point"
    );

    let mut marked = StateVec::new();
    mark_into(fresh, &mut marked);
    assert_eq!(
        marked.billed_len(),
        saved.len(),
        "{name}: a mark must bill what a save stores"
    );
    rewind_from_vec(fresh, &marked);
    assert_eq!(
        save_to_vec(fresh),
        saved,
        "{name}: a rewind to an untouched mark moved the state"
    );

    if saved.is_empty() {
        return; // Nothing to truncate (the endpoint no-op impls).
    }
    let truncated = StateVec::from(saved.words()[..saved.len() - 1].to_vec());
    restore_from_vec(fresh, &truncated)
        .expect_err(&format!("{name}: a truncated vector must be rejected"));
    // The failed restore may have left `fresh` in any state, but never an
    // unrestorable one: the good words must still land.
    restore_from_vec(fresh, &saved)
        .unwrap_or_else(|e| panic!("{name}: restore after a rejected vector failed: {e}"));
    assert_eq!(
        save_to_vec(fresh),
        saved,
        "{name}: the recovery restore lost state"
    );
}

/// [`assert_roundtrip`] plus the rollback leg: restoring over `dirty`, a
/// second seeded instance in another state, reproduces the saved vector.
/// Restores reuse the target's allocations, so this is what catches a site
/// that appends to, or keeps the tail of, what was there.
fn assert_roundtrip_over_dirty<T: Snapshot + ?Sized>(
    name: &str,
    seeded: &T,
    fresh: &mut T,
    dirty: &mut T,
) {
    assert_roundtrip(name, seeded, fresh);
    let saved = save_to_vec(seeded);
    assert_ne!(
        save_to_vec(dirty),
        saved,
        "{name}: the dirty instance must not already hold the seeded state"
    );
    restore_from_vec(dirty, &saved)
        .unwrap_or_else(|e| panic!("{name}: restore over a dirty instance failed: {e}"));
    assert_eq!(
        save_to_vec(dirty),
        saved,
        "{name}: restoring over a dirty instance left some of its state behind"
    );
}

/// [`assert_roundtrip_over_dirty`] for a domain model, whose latched outputs
/// are derived state no vector carries: after every restore — into the fresh
/// model, and over the dirty one and whatever it had latched — the model
/// presents the donor's outputs for the upcoming cycle.
fn assert_model_roundtrip_over_dirty(
    name: &str,
    seeded: &AhbDomainModel,
    fresh: &mut AhbDomainModel,
    dirty: &mut AhbDomainModel,
) {
    assert_roundtrip_over_dirty(name, seeded, fresh, dirty);
    for (target, restored) in [("fresh", fresh), ("dirty", dirty)] {
        assert_eq!(
            restored.local_outputs(),
            seeded.local_outputs(),
            "{name}: the {target} target does not present the restored components' outputs"
        );
    }
}

#[test]
fn sim_components_roundtrip() {
    let mut rng = SplitMix64::new(0x5eed_cafe);
    for _ in 0..17 {
        rng.next_u64();
    }
    assert_roundtrip("SplitMix64", &rng, &mut SplitMix64::new(0));

    let mut trace = Trace::new();
    for i in 0..32u64 {
        trace.record(vec![i, i.wrapping_mul(0x9e37_79b9), i ^ 0xff]);
    }
    let mut longer = Trace::new();
    for i in 0..50u64 {
        longer.record(vec![i; (i % 5) as usize]);
    }
    assert_roundtrip_over_dirty("Trace", &trace, &mut Trace::new(), &mut longer);

    let mut ledger = TimeLedger::new();
    ledger.charge(CostCategory::Simulator, VirtualTime::from_nanos(1_234));
    ledger.charge(CostCategory::Channel, VirtualTime::from_micros(56));
    ledger.charge(CostCategory::StateRestore, VirtualTime::from_nanos(789));
    assert_roundtrip("TimeLedger", &ledger, &mut TimeLedger::new());
}

/// Drives representative traffic through a transport: a burst of tagged
/// packets each way, some left queued in flight.
fn seed_transport<T: Transport>(t: &mut T) {
    for i in 0..6u32 {
        t.send(
            Side::Simulator,
            Packet::new(PacketTag::CycleOutputs, vec![i, i + 100]),
        );
        t.send(
            Side::Accelerator,
            Packet::new(PacketTag::ReportSuccess, vec![i ^ 0xabcd]),
        );
    }
    // Drain a few so cursors sit mid-stream, leaving the rest in flight.
    for _ in 0..3 {
        t.recv(Side::Accelerator);
        t.recv(Side::Simulator);
    }
}

#[test]
fn channel_components_roundtrip() {
    let packet = Packet::new(PacketTag::Burst, vec![1, 2, 3, 0xdead_beef]);
    assert_roundtrip(
        "Packet",
        &packet,
        &mut Packet::new(PacketTag::Handshake, vec![]),
    );

    let mut stats = ChannelStats::new();
    stats.record(
        Side::Simulator.outbound(),
        40,
        VirtualTime::from_nanos(2_000),
    );
    stats.record(
        Side::Accelerator.outbound(),
        7,
        VirtualTime::from_nanos(530),
    );
    assert_roundtrip("ChannelStats", &stats, &mut ChannelStats::new());

    let mut queue = QueueTransport::new();
    seed_transport(&mut queue);
    assert_roundtrip("QueueTransport", &queue, &mut QueueTransport::new());

    let mut costed = CostedChannel::new(ChannelCostModel::iprove_pci());
    costed.send(
        Side::Simulator,
        Packet::new(PacketTag::CycleOutputs, vec![9, 8, 7]),
    );
    costed.send(
        Side::Accelerator,
        Packet::new(PacketTag::ReportSuccess, vec![6]),
    );
    costed.recv(Side::Accelerator);
    assert_roundtrip(
        "CostedChannel<QueueTransport>",
        &costed,
        &mut CostedChannel::new(ChannelCostModel::iprove_pci()),
    );

    // The lossy wrapper's RNG cursor and fault counters are part of the cut —
    // a restored transport continues the same fault plan.
    let spec = FaultSpec::drops(0xfa57, 0.25);
    let mut lossy = LossyTransport::new(QueueTransport::new(), spec);
    seed_transport(&mut lossy);
    assert_roundtrip(
        "LossyTransport<QueueTransport>",
        &lossy,
        &mut LossyTransport::new(QueueTransport::new(), spec),
    );

    let reliable_fresh = || {
        ReliableTransport::new(
            QueueTransport::new(),
            ReliableConfig::default(),
            ChannelCostModel::iprove_pci(),
        )
    };
    let mut reliable = reliable_fresh();
    seed_transport(&mut reliable);
    assert_roundtrip(
        "ReliableTransport<QueueTransport>",
        &reliable,
        &mut reliable_fresh(),
    );

    // The endpoint impls are deliberate no-ops: their medium lives outside
    // the process image, so a checkpoint carries zero words for them.
    let (threaded, _peer) = ThreadedTransport::pair();
    assert!(save_to_vec(&threaded).is_empty());
    let mut fresh = ThreadedTransport::pair().0;
    assert_roundtrip("ThreadedEndpoint", &threaded, &mut fresh);

    let (shm, _peer) = ShmTransport::pair();
    assert!(save_to_vec(&shm).is_empty());
    let mut fresh = ShmTransport::pair().0;
    assert_roundtrip("ShmEndpoint", &shm, &mut fresh);

    let (tcp, _peer) = TcpTransport::loopback_pair().expect("loopback pair");
    assert!(save_to_vec(&tcp).is_empty());
    let (mut fresh, _fresh_peer) = TcpTransport::loopback_pair().expect("loopback pair");
    assert_roundtrip("TcpEndpoint", &tcp, &mut fresh);
}

#[test]
fn predictor_components_roundtrip() {
    let mut last = LastValuePredictor::new(3);
    for v in [17, 17, 92, 4] {
        last.observe(v);
    }
    assert_roundtrip("LastValuePredictor", &last, &mut LastValuePredictor::new(0));

    let mut follower = BurstFollower::new();
    let mut sig = MasterSignals::default();
    for i in 0..8u32 {
        sig.wdata = i * 3;
        follower.observe(&sig, i % 2 == 0);
        follower.predict_and_advance();
    }
    assert_roundtrip("BurstFollower", &follower, &mut BurstFollower::new());

    let mut wait = WaitPredictor::new();
    for i in 0..10 {
        wait.observe(i % 3 == 0, i % 4 != 0);
        wait.predict_and_advance();
    }
    assert_roundtrip("WaitPredictor", &wait, &mut WaitPredictor::new());

    let mut paper_master = PaperMasterPredictor::new();
    let mut sig = MasterSignals::default();
    for i in 0..12u32 {
        sig.wdata = i.wrapping_mul(7);
        sig.busreq = i % 3 != 0;
        paper_master.observe(&sig, i % 2 == 0);
        paper_master.predict();
    }
    assert_roundtrip(
        "PaperMasterPredictor",
        &paper_master,
        &mut PaperMasterPredictor::new(),
    );

    let mut paper_slave = PaperSlavePredictor::new();
    let mut ssig = SlaveSignals::idle();
    for i in 0..12u32 {
        ssig.rdata = i.wrapping_mul(13);
        ssig.ready = i % 3 != 2;
        paper_slave.observe(&ssig, (i % 2 == 0).then_some(i % 4 == 0));
        paper_slave.begin_phase(i % 4 == 0);
        paper_slave.predict(i % 2 == 0);
    }
    assert_roundtrip(
        "PaperSlavePredictor",
        &paper_slave,
        &mut PaperSlavePredictor::new(),
    );

    let mut lv_master = LastValueMasterPredictor::new();
    let mut sig = MasterSignals::default();
    for i in 0..6u32 {
        sig.wdata = i + 1;
        lv_master.observe(&sig, true);
        lv_master.predict();
    }
    assert_roundtrip(
        "LastValueMasterPredictor",
        &lv_master,
        &mut LastValueMasterPredictor::new(),
    );

    let mut lv_slave = LastValueSlavePredictor::new();
    let mut ssig = SlaveSignals::idle();
    for i in 0..6u32 {
        ssig.rdata = i + 42;
        lv_slave.observe(&ssig, Some(true));
        lv_slave.predict(true);
    }
    assert_roundtrip(
        "LastValueSlavePredictor",
        &lv_slave,
        &mut LastValueSlavePredictor::new(),
    );
}

/// The context/Markov and adaptive predictors: their state vectors carry
/// learned tables, speculative-timeline cursors, shadow candidates, and the
/// scoreboard's pending switch billing — all of which must survive the cut.
#[test]
fn adaptive_predictor_components_roundtrip() {
    let mut table = ContextTable::new();
    let mut rng = SplitMix64::new(0xc0_17ab1e);
    for i in 0..200u32 {
        // Mix of reinforced entries (learned to full confidence), contested
        // slots (conf decay), and one-shot noise.
        let key = rng.below(96);
        table.observe(key, (key as u32).wrapping_mul(5) + (i % 7 == 0) as u32);
    }
    let mut other_table = ContextTable::new();
    for key in 0..300u64 {
        other_table.observe(key * 7, key as u32 ^ 0x55);
    }
    assert_roundtrip_over_dirty(
        "ContextTable",
        &table,
        &mut ContextTable::new(),
        &mut other_table,
    );

    // Drive the master through a repeating gapped single-transfer stream so
    // the phase machine, stride history, and run counters are all mid-flight
    // at the cut.
    // The dirty instances of this test see the same kind of stream with
    // another length and stride, so tables, histories and cursors all differ.
    let gapped_stream = |p: &mut dyn MasterPredictor, periods: u32, stride: u32| {
        for period in 0..periods {
            for cycle in 0..9u32 {
                let mut sig = MasterSignals::idle();
                sig.busreq = (2..5).contains(&cycle);
                if cycle == 4 {
                    sig.addr = 0x100 + period * stride;
                    sig.trans = predpkt_predict::Htrans::Nonseq;
                    sig.write = true;
                    sig.wdata = period;
                }
                p.observe(&sig, cycle == 4);
                p.predict();
            }
        }
    };
    let mut ctx_master = ContextMasterPredictor::new();
    gapped_stream(&mut ctx_master, 5, 0x20);
    let mut dirty_master = ContextMasterPredictor::new();
    gapped_stream(&mut dirty_master, 13, 0x44);
    assert_roundtrip_over_dirty(
        "ContextMasterPredictor",
        &ctx_master,
        &mut ContextMasterPredictor::new(),
        &mut dirty_master,
    );

    let wait_stream = |p: &mut dyn SlavePredictor, cycles: u32, wait_every: u32| {
        let mut ssig = SlaveSignals::idle();
        for i in 0..cycles {
            ssig.ready = i % wait_every != 1;
            ssig.rdata = i.wrapping_mul(31);
            ssig.irq = i % 8 == 7;
            p.observe(&ssig, (i % 2 == 0).then_some(i % 4 == 0));
            p.begin_phase(i % 4 == 0);
            p.predict(i % 2 == 0);
        }
    };
    let mut ctx_slave = ContextSlavePredictor::new();
    wait_stream(&mut ctx_slave, 40, 3);
    let mut dirty_slave = ContextSlavePredictor::new();
    wait_stream(&mut dirty_slave, 97, 5);
    assert_roundtrip_over_dirty(
        "ContextSlavePredictor",
        &ctx_slave,
        &mut ContextSlavePredictor::new(),
        &mut dirty_slave,
    );

    // A twitchy config so the scoreboard actually switches (and banks pending
    // control words) within the short seeding run.
    let cfg = AdaptiveConfig {
        window: 16,
        margin: 1,
        cooldown: 2,
        switch_words: 2,
    };
    let mut ad_master = AdaptiveMasterPredictor::new(cfg);
    for i in 0..48u32 {
        let mut sig = MasterSignals::idle();
        sig.busreq = i % 4 < 2;
        if i % 4 == 1 {
            sig.addr = 0x40 * (i / 4);
            sig.trans = predpkt_predict::Htrans::Nonseq;
        }
        ad_master.observe(&sig, i % 4 == 1);
        ad_master.predict();
    }
    let mut dirty_master = AdaptiveMasterPredictor::new(cfg);
    gapped_stream(&mut dirty_master, 13, 0x44);
    assert_roundtrip_over_dirty(
        "AdaptiveMasterPredictor",
        &ad_master,
        &mut AdaptiveMasterPredictor::new(cfg),
        &mut dirty_master,
    );
    // Un-drained switch billing is part of the cut: the restored twin must
    // bill the same words the donor owed.
    let mut restored = AdaptiveMasterPredictor::new(cfg);
    restore_from_vec(&mut restored, &save_to_vec(&ad_master)).unwrap();
    assert_eq!(
        restored.take_control_words(),
        ad_master.take_control_words(),
        "pending switch billing must survive restore"
    );

    let mut ad_slave = AdaptiveSlavePredictor::new(cfg);
    let mut ssig = SlaveSignals::idle();
    for i in 0..48u32 {
        ssig.ready = i % 5 != 0;
        ssig.rdata = 0x5a5a_0000 | i;
        ssig.irq = i % 6 < 3;
        ad_slave.observe(&ssig, (i % 2 == 0).then_some(i % 8 == 0));
        ad_slave.begin_phase(i % 8 == 0);
        ad_slave.predict(i % 2 == 1);
    }
    let mut dirty_slave = AdaptiveSlavePredictor::new(cfg);
    wait_stream(&mut dirty_slave, 97, 5);
    assert_roundtrip_over_dirty(
        "AdaptiveSlavePredictor",
        &ad_slave,
        &mut AdaptiveSlavePredictor::new(cfg),
        &mut dirty_slave,
    );
}

/// Builds a pair and runs it in lockstep conservative execution: each domain
/// ticks on the other's actual outputs, training predictors and advancing
/// every engine.
fn driven_pair(
    blueprint: &SocBlueprint,
    suite: &dyn PredictorSuite,
    cycles: usize,
) -> (AhbDomainModel, AhbDomainModel) {
    let (mut sim, mut acc) = blueprint.build_pair_with(suite).expect("pair builds");
    for _ in 0..cycles {
        step_pair(&mut sim, &mut acc);
    }
    (sim, acc)
}

/// One cycle of lockstep conservative execution.
fn step_pair(sim: &mut AhbDomainModel, acc: &mut AhbDomainModel) {
    let sim_out = sim.local_outputs();
    let acc_out = acc.local_outputs();
    sim.tick(&acc_out, TickKind::Actual);
    acc.tick(&sim_out, TickKind::Actual);
}

/// The big aggregate: one seeded [`AhbDomainModel`] vector covers the bus
/// fabric, arbiter, every master/slave engine, the signal codecs, the
/// committed trace, and the paper predictor suite, recursively.
#[test]
fn domain_models_roundtrip() {
    let blueprint = figure2_soc();
    let (mut sim, mut acc) = driven_pair(&blueprint, &PaperSuite, 64);
    assert!(sim.cycle() > 0 && acc.cycle() > 0);

    let (mut fresh_sim, mut fresh_acc) = blueprint.build_pair().expect("pair builds");
    let (mut dirty_sim, mut dirty_acc) = driven_pair(&blueprint, &PaperSuite, 211);
    assert_model_roundtrip_over_dirty(
        "AhbDomainModel (simulator)",
        &sim,
        &mut fresh_sim,
        &mut dirty_sim,
    );
    assert_model_roundtrip_over_dirty(
        "AhbDomainModel (accelerator)",
        &acc,
        &mut fresh_acc,
        &mut dirty_acc,
    );

    // The model's own Snapshot is the *rollback* cut, which deliberately
    // excludes the committed trace (rollback must never rewrite committed
    // history; whole-session checkpoints carry the trace separately through
    // the wrapper). Hand the trace over explicitly before comparing onward
    // behavior.
    *fresh_sim.trace_mut() = sim.trace().clone();

    // The restored replica is behaviorally identical, not just byte-equal:
    // running both onward in lockstep commits the same trace.
    for _ in 0..32 {
        let a = sim.local_outputs();
        let b = fresh_sim.local_outputs();
        assert_eq!(a, b, "restored model diverged");
        let acc_out = acc.local_outputs();
        sim.tick(&acc_out, TickKind::Actual);
        fresh_sim.tick(&acc_out, TickKind::Actual);
        acc.tick(&a, TickKind::Actual);
    }
    assert_eq!(sim.trace().hash(), fresh_sim.trace().hash());
}

/// The rollback case at full size: every component whose state has a
/// variable length (FIFO levels, split jobs in flight, accumulated results,
/// burst payloads, DMA chunks) sits in one SoC under the adaptive suite, and
/// cuts taken at unrelated moments are restored over each other in both
/// directions — shorter over longer and longer over shorter. The Fig. 2 SoC
/// under the paper suite takes the same walk.
#[test]
fn domain_models_restore_over_each_other() {
    let socs: [(&str, SocBlueprint, &dyn PredictorSuite); 2] = [
        ("mesh", mesh_soc(), &AdaptiveSuite::default()),
        ("fig. 2", figure2_soc(), &PaperSuite),
    ];
    let cuts = [7, 23, 41, 64, 90, 133, 211, 340];
    for (soc, blueprint, suite) in socs {
        let mut lengths = std::collections::BTreeSet::new();
        for &seeded_at in &cuts {
            let (sim, acc) = driven_pair(&blueprint, suite, seeded_at);
            lengths.insert((save_to_vec(&sim).len(), save_to_vec(&acc).len()));
            for &dirty_at in cuts.iter().filter(|&&at| at != seeded_at) {
                let (mut fresh_sim, mut fresh_acc) =
                    blueprint.build_pair_with(suite).expect("pair builds");
                let (mut dirty_sim, mut dirty_acc) = driven_pair(&blueprint, suite, dirty_at);
                let name = format!("{soc}, cut at {seeded_at} over cut at {dirty_at}");
                assert_model_roundtrip_over_dirty(
                    &format!("simulator, {name}"),
                    &sim,
                    &mut fresh_sim,
                    &mut dirty_sim,
                );
                assert_model_roundtrip_over_dirty(
                    &format!("accelerator, {name}"),
                    &acc,
                    &mut fresh_acc,
                    &mut dirty_acc,
                );
            }
        }
        assert!(
            lengths.len() > cuts.len() / 2,
            "{soc}: the cuts must differ in size for the dirty leg to mean anything: {lengths:?}"
        );
    }
}

/// The saved words of every journaled store (memory or split slave) in
/// `model`, in slave order.
fn journaled_stores(model: &AhbDomainModel) -> Vec<StateVec> {
    (0..16)
        .map(SlaveId)
        .filter_map(|id| {
            let memory = model.slave_as::<MemorySlave>(id).map(save_to_vec);
            memory.or_else(|| model.slave_as::<SplitSlave>(id).map(save_to_vec))
        })
        .collect()
}

/// The results every traffic generator in `model` holds, summed.
fn generator_results(model: &AhbDomainModel) -> usize {
    (0..16)
        .filter_map(|id| model.master_as::<TrafficGenMaster>(MasterId(id)))
        .map(|generator| generator.results().len())
        .sum()
}

/// The rollback path a leader takes: both domain models marked at a cut,
/// driven `k` cycles — the DMA, the CPU and the split jobs writing the
/// journaled stores, the adaptive suite's Markov candidates their context
/// tables, a traffic generator adding results (Fig. 2's looping one in its
/// first pass, the mesh's seven-op script) — and rewound, save what they
/// saved at the cut and present the outputs they presented there.
#[test]
fn domain_models_rewind_to_their_mark() {
    let socs: [(&str, SocBlueprint, &dyn PredictorSuite); 3] = [
        ("fig. 2", figure2_soc(), &PaperSuite),
        ("mesh", mesh_soc(), &PaperSuite),
        ("mesh, adaptive", mesh_soc(), &AdaptiveSuite::default()),
    ];
    for (soc, blueprint, suite) in socs {
        let mut dirtied = 0;
        let mut grown = 0;
        // Fig. 2's generator completes its first two operations at cycles
        // 659 and 675, so only the last cut's window reaches them.
        for cut in [7, 64, 211, 600, 650] {
            for k in [1, 7, 40] {
                let (mut sim, mut acc) = driven_pair(&blueprint, suite, cut);
                let saved = [save_to_vec(&sim), save_to_vec(&acc)];
                let outputs = [sim.local_outputs(), acc.local_outputs()];
                let stores = [journaled_stores(&sim), journaled_stores(&acc)];
                let results = generator_results(&sim) + generator_results(&acc);
                let mut marks = [StateVec::new(), StateVec::new()];
                mark_into(&mut sim, &mut marks[0]);
                mark_into(&mut acc, &mut marks[1]);
                for _ in 0..k {
                    step_pair(&mut sim, &mut acc);
                }
                if [journaled_stores(&sim), journaled_stores(&acc)] != stores {
                    dirtied += 1;
                }
                if generator_results(&sim) + generator_results(&acc) > results {
                    grown += 1;
                }
                rewind_from_vec(&mut sim, &marks[0]);
                rewind_from_vec(&mut acc, &marks[1]);
                let name = format!("{soc}, {k} cycles after a mark at {cut}");
                assert_eq!([save_to_vec(&sim), save_to_vec(&acc)], saved, "{name}");
                assert_eq!(
                    [sim.local_outputs(), acc.local_outputs()],
                    outputs,
                    "{name}"
                );
            }
        }
        assert!(
            dirtied >= 3,
            "{soc}: too few windows wrote a journaled store ({dirtied})"
        );
        assert!(grown >= 1, "{soc}: no window added a generator result");
    }
}

/// What a mark copies: registers and proxies, not the journaled stores,
/// which it bills in full, nor the local signal slots or a traffic
/// generator's results, which it declares. On the Fig. 2 simulator side
/// those stores are its two 1 024-word memories; on the mesh under the
/// adaptive suite, also the 768-word context table of every remote
/// component's Markov candidate, on both sides. The rollback leg's host cost
/// is read from these counts (the benchmark's traced spans time decorators
/// that roll back by full copy).
#[test]
fn a_mark_copies_the_registers_and_bills_the_memories() {
    let (fig2_sim, fig2_acc) = driven_pair(&figure2_soc(), &PaperSuite, 400);
    let (mesh_sim, mesh_acc) = driven_pair(&mesh_soc(), &AdaptiveSuite::default(), 400);
    // (model, words a mark may copy, words it bills)
    let cases = [
        ("fig. 2, simulator", fig2_sim, 65, 2_122),
        ("fig. 2, accelerator", fig2_acc, 104, 112),
        ("mesh, adaptive, simulator", mesh_sim, 212, 4_328),
        ("mesh, adaptive, accelerator", mesh_acc, 247, 2_683),
    ];
    let mut marked = StateVec::new();
    for (name, mut model, copied, billed) in cases {
        let saved = save_to_vec(&model);
        mark_into(&mut model, &mut marked);
        println!(
            "{name}: a mark copies {} of {} billed words",
            marked.len(),
            marked.billed_len()
        );
        assert!(
            marked.len() <= copied,
            "{name}: the mark copied {} words",
            marked.len()
        );
        assert_eq!(marked.billed_len(), saved.len(), "{name}");
        assert_eq!(saved.len(), billed, "{name}");
    }
}

/// Master 1's word writes through a lone slave, one after another (retried
/// after a SPLIT once HSPLIT releases it) with an idle edge after each, until
/// at least one has completed and `cycles` clock edges have passed.
fn drive_writes(slave: &mut dyn AhbSlave, cycles: usize, rng: &mut SplitMix64) {
    let mut elapsed = 0;
    let mut tick = |slave: &mut dyn AhbSlave, view: SlaveView| {
        slave.tick(&view);
        elapsed += 1;
        elapsed
    };
    loop {
        let phase = AddrPhase {
            master: MasterId(1),
            slave: Some(SlaveId(0)),
            trans: Htrans::Nonseq,
            addr: (rng.below(0x40) as u32) * 4,
            write: true,
            size: Hsize::Word,
            burst: Hburst::Single,
        };
        let wdata = rng.next_u64() as u32;
        loop {
            let address = SlaveView {
                addr_phase: Some(phase),
                ..SlaveView::quiet()
            };
            tick(slave, address);
            let resp = loop {
                let out = slave.outputs();
                let data = SlaveView {
                    dp_active: true,
                    dp: Some(phase),
                    hready: out.ready,
                    wdata,
                    ..SlaveView::quiet()
                };
                tick(slave, data);
                if out.ready {
                    break out.resp;
                }
            };
            if resp != Hresp::Split {
                break;
            }
            while slave.outputs().split_unmask & 0b10 == 0 {
                tick(slave, SlaveView::quiet());
            }
        }
        if tick(slave, SlaveView::quiet()) >= cycles {
            return;
        }
    }
}

/// The journaled slaves alone: a rewind undoes `k` cycles of writes, and a
/// released mark keeps none of its log — rewinding to it afterwards restores
/// the registers it copied and undoes no store write.
#[test]
fn journaled_slaves_rewind_and_release() {
    let mut rng = SplitMix64::new(0x10c_0ff5);
    for k in [1, 7, 40] {
        let slaves: [(&str, Box<dyn AhbSlave>); 2] = [
            (
                "MemorySlave",
                Box::new(MemorySlave::with_waits(0x100, 2, 1)),
            ),
            ("SplitSlave", Box::new(SplitSlave::new(0x100, 9))),
        ];
        for (name, mut slave) in slaves {
            drive_writes(slave.as_mut(), 30, &mut rng);
            let saved = save_to_vec(&slave);
            let mut mark = StateVec::new();
            mark_into(&mut slave, &mut mark);
            assert_eq!(mark.billed_len(), saved.len(), "{name}");
            assert!(
                mark.len() < saved.len() / 4,
                "{name}: the store is not copied"
            );
            drive_writes(slave.as_mut(), k, &mut rng);
            assert_ne!(
                save_to_vec(&slave),
                saved,
                "{name}: {k} cycles wrote nothing"
            );
            rewind_from_vec(&mut slave, &mark);
            assert_eq!(
                save_to_vec(&slave),
                saved,
                "{name}: rewind after {k} cycles"
            );

            mark_into(&mut slave, &mut mark);
            slave.release();
            drive_writes(slave.as_mut(), k, &mut rng);
            let written = save_to_vec(&slave).words()[..=0x40].to_vec();
            rewind_from_vec(&mut slave, &mark);
            assert_eq!(
                save_to_vec(&slave).words()[..=0x40],
                written,
                "{name}: a write after release was logged"
            );
        }
    }
}

/// Where [`labeled`] opens its section.
const SECTION_START: usize = 5;

/// `saved` laid out as a checkpoint lays a model out — behind other words,
/// under the label `acc.model` — with the word at absolute index
/// `damaged.0`, if any, replaced by `damaged.1`.
fn labeled(saved: &StateVec, damaged: Option<(usize, u64)>) -> StateVec {
    let mut state = StateVec::new();
    let mut w = StateWriter::new(&mut state);
    w.slice(&[0; 4]).section("acc.model");
    for (i, &word) in saved.words().iter().enumerate() {
        w.word(match damaged {
            Some((at, bad)) if at == SECTION_START + i => bad,
            _ => word,
        });
    }
    state
}

/// Walks the fabric's words of a [`labeled`] model with a data phase in
/// flight — the arbiter (grant, split mask, optional burst tracker), the
/// default-slave flag, then the phase — to the absolute indices of the
/// phase's master, its slave and its HTRANS.
fn data_phase_words(state: &StateVec) -> (usize, usize, usize) {
    let mut r = StateReader::new(state);
    r.slice().unwrap();
    assert_eq!(r.position(), SECTION_START);
    r.usize().unwrap();
    r.u32().unwrap();
    if r.bool().unwrap() {
        r.u32().unwrap();
        r.u32().unwrap();
    }
    r.bool().unwrap();
    assert!(r.bool().unwrap(), "the cut was chosen with a data phase");
    let master = r.position();
    r.usize().unwrap();
    assert!(r.bool().unwrap(), "the cut was chosen with a decoded slave");
    let slave = r.position();
    r.usize().unwrap();
    (master, slave, r.position())
}

/// Restoring `state` into `target` fails as corrupt at `at` under the
/// section's label.
fn assert_corrupt_in_section(target: &mut AhbDomainModel, state: &StateVec, at: usize) {
    let mut r = StateReader::new(state);
    r.slice().unwrap();
    let err = target
        .restore(&mut r)
        .expect_err("a word the model cannot take is rejected");
    assert_eq!(
        err,
        SnapshotError::InSection {
            section: "acc.model",
            offset: at - SECTION_START,
            source: Box::new(SnapshotError::Corrupt { at }),
        }
    );
}

/// A word outside a signal's encoding is reported at its own index under its
/// section's label, wherever in the vector the component's words lie.
#[test]
fn corrupt_signal_word_names_its_index_and_section() {
    let blueprint = figure2_soc();
    let (_, acc) = (1..200)
        .map(|cycles| driven_pair(&blueprint, &PaperSuite, cycles))
        .find(|(_, acc)| matches!(acc.fabric().data_phase(), Some(dp) if dp.slave.is_some()))
        .expect("some cut has a data phase in flight");
    let saved = save_to_vec(&acc);
    let (_, _, htrans) = data_phase_words(&labeled(&saved, None));
    let hsize = htrans + 3; // HTRANS, HADDR, HWRITE, HSIZE

    for at in [htrans, hsize] {
        let (_, mut target) = blueprint.build_pair().expect("pair builds");
        assert_corrupt_in_section(&mut target, &labeled(&saved, Some((at, 0xffff))), at);
    }
}

/// Where `component`'s saved words lie among `model`'s, as an absolute
/// index into the [`labeled`] vector.
fn start_in(model: &StateVec, component: &StateVec) -> usize {
    let mut hits = model
        .words()
        .windows(component.len())
        .enumerate()
        .filter(|(_, window)| *window == component.words());
    let (at, _) = hits
        .next()
        .expect("the component's words are in the model's");
    assert!(hits.next().is_none(), "and only once");
    SECTION_START + at
}

/// For each `(at, bad)`: `donor`'s words with word `at` replaced by `bad` are
/// refused by `target` as corrupt at `at`, and `target` then still takes the
/// good words and presents the donor's outputs.
fn assert_each_refused(
    target: &mut AhbDomainModel,
    donor: &AhbDomainModel,
    cases: &[(usize, u64)],
) {
    let saved = save_to_vec(donor);
    for &(at, bad) in cases {
        assert_corrupt_in_section(target, &labeled(&saved, Some((at, bad))), at);
        let good = labeled(&saved, None);
        let mut r = StateReader::new(&good);
        r.slice().unwrap();
        target
            .restore(&mut r)
            .expect("the good vector restores after a refused one");
        assert_eq!(save_to_vec(target), saved);
        assert_eq!(target.local_outputs(), donor.local_outputs());
    }
}

/// Well-encoded words that describe state no component can be in at a clock
/// edge — and on which its `outputs()` would index out of a payload or
/// panic, now inside `restore`, where the model latches them — are refused
/// at their own index like any other corrupt word: a beat counter past the
/// operation's payload, an operation of no beats, a slave with a transfer
/// accepted and no response planned, a data phase owned by or aimed at a
/// component the bus does not have, a backing store of another size than
/// its slave was built with (refused at the length prefix, before anything
/// is copied), a split job for a master HSPLIT has no bit for, and a split
/// slave's master mask wider than HSPLIT. The refusing model still takes the
/// good vector.
#[test]
fn state_a_component_cannot_drive_is_refused_at_its_word() {
    let blueprint = figure2_soc();
    let generator = |acc: &AhbDomainModel| -> TrafficGenMaster {
        acc.master_as::<TrafficGenMaster>(MasterId(2))
            .expect("M2 is the accelerator's traffic generator")
            .clone()
    };
    // The generator has the lowest priority and starves until the DMA
    // engine's descriptors are done, several hundred cycles in.
    let (mut sim, mut acc) = blueprint.build_pair().expect("pair builds");
    while !(generator(&acc).outputs().trans.is_active()
        && matches!(acc.fabric().data_phase(), Some(dp) if dp.slave.is_some()))
    {
        assert!(
            acc.cycle() < 2_000,
            "the generator never drove an address phase behind a data phase"
        );
        step_pair(&mut sim, &mut acc);
    }
    let saved = save_to_vec(&acc);
    let words = saved.words();
    let start_of = |component: &StateVec| start_in(&saved, component);
    let word = |at: usize| words[at - SECTION_START];

    // The generator saves its script cursor and idle count, then its engine:
    // operation present, write, size, burst, the addresses (prefixed), the
    // write data (prefixed), lock, prot, state, address beat.
    let generator_words = save_to_vec(&generator(&acc));
    let generator_at = start_of(&generator_words);
    let engine = generator_at + 2;
    let beats_at = engine + 4;
    let wdata_at = beats_at + 1 + word(beats_at) as usize;
    let addr_beat_at = wdata_at + 1 + word(wdata_at) as usize + 3;
    // The accelerator's one slave follows its last master. The peripheral
    // saves four registers and its mailbox (prefixed), then its engine,
    // state code first.
    let peripheral_at = generator_at + generator_words.len();
    let peripheral = acc
        .slave_as::<PeripheralSlave>(SlaveId(2))
        .expect("S2 is the accelerator's peripheral");
    let peripheral_words = save_to_vec(peripheral);
    assert_eq!(
        words[peripheral_at - SECTION_START..][..peripheral_words.len()],
        *peripheral_words.words()
    );
    let mailbox_at = peripheral_at + 4;
    let slave_state_at = mailbox_at + 1 + word(mailbox_at) as usize;
    let (dp_master_at, dp_slave_at, _) = data_phase_words(&labeled(&saved, None));

    let (mut sim_target, mut acc_target) = blueprint.build_pair().expect("pair builds");
    assert_each_refused(
        &mut acc_target,
        &acc,
        &[
            (addr_beat_at, word(beats_at)),
            (beats_at, 0),
            (slave_state_at, 1),
            (dp_master_at, 3),
            (dp_slave_at, 3),
        ],
    );

    // The simulator's two 1 024-word memories, with a store of no words, one
    // word short and one word long.
    let sim_saved = save_to_vec(&sim);
    let mut memory_cases = Vec::new();
    for id in [SlaveId(0), SlaveId(1)] {
        let memory = sim
            .slave_as::<MemorySlave>(id)
            .expect("S0 and S1 are the simulator's memories");
        let prefix_at = start_in(&sim_saved, &save_to_vec(memory));
        memory_cases.extend([(prefix_at, 0), (prefix_at, 1_023), (prefix_at, 1_025)]);
    }
    assert_each_refused(&mut sim_target, &sim, &memory_cases);

    // Forty cycles in, the DMA engine is mid-copy: its moved count (after
    // the job index) at or past the job's 24 words. Its traffic generator
    // follows it, then the peripheral, whose timer has no period, so any
    // count (after the control, pending and period words) but 0 is one the
    // timer never reaches.
    let (mut sim, mut acc) = blueprint.build_pair().expect("pair builds");
    for _ in 0..40 {
        step_pair(&mut sim, &mut acc);
    }
    let dma = acc
        .master_as::<DmaMaster>(MasterId(1))
        .expect("M1 is the accelerator's DMA engine");
    assert!(!dma.done(), "the DMA engine is still copying");
    let dma_words = save_to_vec(dma);
    let dma_at = start_in(&save_to_vec(&acc), &dma_words);
    let count_at = dma_at + dma_words.len() + save_to_vec(&generator(&acc)).len() + 3;
    assert_each_refused(
        &mut acc_target,
        &acc,
        &[
            (dma_at + 1, 24),
            (dma_at + 1, 100),
            (count_at, 1),
            (count_at, u64::from(u32::MAX)),
        ],
    );

    // The mesh's 64-word split slave with a job in flight. It saves its
    // store (prefixed), the job count, each job's master, cycles left and
    // armed flag, then the ready and pulse masks.
    let mesh = mesh_soc();
    let split_words = |acc: &AhbDomainModel| {
        let split = acc.slave_as::<SplitSlave>(SlaveId(1));
        save_to_vec(split.expect("S1 is the mesh's split slave"))
    };
    let (mut sim, mut acc) = mesh.build_pair().expect("pair builds");
    while split_words(&acc).words()[65] == 0 {
        assert!(acc.cycle() < 2_000, "the split slave never took a job");
        step_pair(&mut sim, &mut acc);
    }
    let split = split_words(&acc);
    let store_at = start_in(&save_to_vec(&acc), &split);
    let job_master_at = store_at + 66;
    let ready_at = job_master_at + 3 * split.words()[65] as usize;
    let (_, mut target) = mesh.build_pair().expect("pair builds");
    assert_each_refused(
        &mut target,
        &acc,
        &[
            (store_at, 0),
            (store_at, 65),
            (job_master_at, 16),
            (job_master_at, 40),
            (ready_at, 0x1_0000),
            (ready_at + 1, 0x1_0000),
        ],
    );
}

#[test]
fn wrapper_stats_roundtrip() {
    let stats = CwStats {
        transitions: 41,
        clean_transitions: 30,
        rollbacks: 11,
        predicted_cycles: 400,
        replayed_cycles: 55,
        head_cycles: 11,
        conservative_cycles: 23,
        ..CwStats::default()
    };
    assert_roundtrip("CwStats", &stats, &mut CwStats::default());
}
