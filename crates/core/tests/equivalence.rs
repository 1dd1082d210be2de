//! The core correctness property: a split co-emulation commits exactly the
//! same bus behaviour as a monolithic golden simulation — for every operating
//! mode, because laggers only tick on verified values and leaders roll back
//! mispredicted speculation.

use predpkt_ahb::engine::BusOp;
use predpkt_ahb::masters::{CpuMaster, CpuProfile, DmaDescriptor, DmaMaster, TrafficGenMaster};
use predpkt_ahb::signals::Hsize;
use predpkt_ahb::slaves::{FifoSlave, MemorySlave, PeripheralSlave, SplitSlave};
use predpkt_core::{CoEmuConfig, CoEmulator, ModePolicy, Side, SocBlueprint};

mod common;
use common::figure2_soc;

/// Runs the golden bus for `cycles` and returns its trace.
fn golden_trace(blueprint: &SocBlueprint, cycles: u64) -> predpkt_sim::Trace {
    let mut bus = blueprint.build_golden().unwrap();
    bus.run(cycles);
    assert!(
        bus.violations().is_empty(),
        "golden run must be protocol-clean: {:?}",
        bus.violations()
    );
    bus.trace().clone()
}

fn coemu_trace(
    blueprint: &SocBlueprint,
    policy: ModePolicy,
    cycles: u64,
) -> (predpkt_sim::Trace, predpkt_core::PerfReport) {
    let config = CoEmuConfig::paper_defaults()
        .policy(policy)
        .rollback_vars(None);
    let mut coemu = CoEmulator::from_blueprint(blueprint, config).unwrap();
    coemu.run_until_committed(cycles).unwrap();
    let placement = blueprint.placement();
    let mut trace = coemu.merged_trace(|s, a| placement.merge_records(s, a));
    // The co-emulation may overshoot the target; compare the prefix.
    trace.truncate_to_len(cycles as usize);
    (trace, coemu.report())
}

/// Compares the merged co-emulation trace against golden, pinpointing the
/// first divergent cycle on failure.
fn assert_equivalent(blueprint: &SocBlueprint, policy: ModePolicy, cycles: u64) {
    let golden = golden_trace(blueprint, cycles);
    let (trace, report) = coemu_trace(blueprint, policy, cycles);
    assert_eq!(trace.len(), cycles as usize);
    if trace.hash() != golden.hash() {
        let at = golden.first_divergence(&trace);
        panic!(
            "trace divergence under {policy:?} at cycle {at:?}:\n golden: {:?}\n coemu:  {:?}\n report: {report}",
            at.and_then(|i| golden.get(i)),
            at.and_then(|i| trace.get(i)),
        );
    }
}

#[test]
fn conservative_matches_golden() {
    assert_equivalent(&figure2_soc(), ModePolicy::Conservative, 600);
}

#[test]
fn forced_als_matches_golden() {
    assert_equivalent(&figure2_soc(), ModePolicy::ForcedAls, 600);
}

#[test]
fn forced_sla_matches_golden() {
    assert_equivalent(&figure2_soc(), ModePolicy::ForcedSla, 600);
}

#[test]
fn auto_mode_matches_golden() {
    assert_equivalent(&figure2_soc(), ModePolicy::Auto, 600);
}

#[test]
fn optimistic_uses_fewer_channel_accesses_than_conservative() {
    let blueprint = figure2_soc();
    let (_, conservative) = coemu_trace(&blueprint, ModePolicy::Conservative, 500);
    let (_, auto) = coemu_trace(&blueprint, ModePolicy::Auto, 500);
    assert!(
        (conservative.accesses_per_cycle() - 2.0).abs() < 0.1,
        "conventional needs ~2 accesses/cycle, got {}",
        conservative.accesses_per_cycle()
    );
    assert!(
        auto.accesses_per_cycle() < conservative.accesses_per_cycle() * 0.7,
        "optimistic must amortize accesses: {} vs {}",
        auto.accesses_per_cycle(),
        conservative.accesses_per_cycle()
    );
}

#[test]
fn split_slave_under_optimism_matches_golden() {
    // SPLIT responses and HSPLIT unmask pulses cross the domain boundary.
    let blueprint = SocBlueprint::new()
        .master(Side::Accelerator, || {
            Box::new(
                TrafficGenMaster::from_ops(vec![
                    BusOp::write_single(0x1004, 0x11),
                    BusOp::read_single(0x1004),
                ])
                .looping()
                .with_idle_gap(3),
            )
        })
        .master(Side::Simulator, || {
            Box::new(CpuMaster::new(77, CpuProfile::default()))
        })
        .slave(Side::Simulator, 0x0000, 0x1000, || {
            Box::new(MemorySlave::new(0x1000, 0))
        })
        .slave(Side::Accelerator, 0x1000, 0x1000, || {
            Box::new(SplitSlave::new(0x100, 5))
        });
    assert_equivalent(&blueprint, ModePolicy::Auto, 500);
}

#[test]
fn fifo_producer_consumer_matches_golden() {
    let blueprint = SocBlueprint::new()
        .master(Side::Simulator, || {
            Box::new(
                TrafficGenMaster::from_ops(vec![BusOp::read_incr(0x1000, Hsize::Word, 4)])
                    .looping()
                    .with_idle_gap(2),
            )
        })
        .slave(Side::Simulator, 0x0000, 0x1000, || {
            Box::new(MemorySlave::new(0x1000, 0))
        })
        .slave(Side::Accelerator, 0x1000, 0x1000, || {
            Box::new(FifoSlave::new(8, 3, 0))
        });
    assert_equivalent(&blueprint, ModePolicy::Auto, 400);
}

#[test]
fn irq_crossing_domains_matches_golden() {
    // Timer peripheral on the accelerator side interrupts; the CPU on the
    // simulator side sees the IRQ line through the exchanged vector.
    let blueprint = SocBlueprint::new()
        .master(Side::Simulator, || {
            Box::new(
                TrafficGenMaster::from_ops(vec![
                    BusOp::write_single(0x1008, 16),   // timer period
                    BusOp::write_single(0x1000, 0b11), // enable timer + IRQ
                    BusOp::read_single(0x1004),        // poll status
                ])
                .looping()
                .with_idle_gap(9),
            )
        })
        .slave(Side::Simulator, 0x0000, 0x1000, || {
            Box::new(MemorySlave::new(0x1000, 0))
        })
        .slave(Side::Accelerator, 0x1000, 0x1000, || {
            Box::new(PeripheralSlave::new(0))
        });
    assert_equivalent(&blueprint, ModePolicy::Auto, 500);
}

#[test]
fn dma_moves_correct_data_across_domains() {
    // End-to-end data integrity: DMA on the accelerator side copies between a
    // simulator-side source and an accelerator-side destination.
    let blueprint = SocBlueprint::new()
        .master(Side::Accelerator, || {
            Box::new(DmaMaster::new(vec![DmaDescriptor::new(0x0, 0x1000, 16)]))
        })
        .slave(Side::Simulator, 0x0000, 0x1000, || {
            let mut m = MemorySlave::new(0x1000, 0);
            for i in 0..16 {
                m.poke_word(4 * i, 0xc0de_0000 + i);
            }
            Box::new(m)
        })
        .slave(Side::Accelerator, 0x1000, 0x1000, || {
            Box::new(MemorySlave::new(0x1000, 0))
        });

    let config = CoEmuConfig::paper_defaults()
        .policy(ModePolicy::Auto)
        .rollback_vars(None);
    let mut coemu = CoEmulator::from_blueprint(&blueprint, config).unwrap();
    coemu.run_until_committed(600).unwrap();
    let dst: &MemorySlave = coemu
        .acc_model()
        .slave_as(predpkt_ahb::SlaveId(1))
        .expect("destination memory");
    for i in 0..16u32 {
        assert_eq!(dst.peek_word(4 * i), 0xc0de_0000 + i, "word {i}");
    }
}

#[test]
fn equivalence_holds_for_every_flag_combination() {
    // carry-actuals and adaptive-depth change performance, never behaviour.
    let blueprint = figure2_soc();
    let golden = golden_trace(&blueprint, 400);
    for carry in [false, true] {
        for adaptive in [false, true] {
            let config = CoEmuConfig::paper_defaults()
                .policy(ModePolicy::Auto)
                .rollback_vars(None)
                .carry(carry)
                .adaptive(adaptive);
            let mut coemu = CoEmulator::from_blueprint(&blueprint, config).unwrap();
            coemu.run_until_committed(400).unwrap();
            let placement = blueprint.placement();
            let mut trace = coemu.merged_trace(|s, a| placement.merge_records(s, a));
            trace.truncate_to_len(400);
            assert_eq!(
                trace.hash(),
                golden.hash(),
                "divergence with carry={carry} adaptive={adaptive}"
            );
        }
    }
}

#[test]
fn rollbacks_occur_and_are_repaired() {
    // The Fig. 2 SoC under forced ALS must hit mispredictions (CPU traffic on
    // the simulator side is irregular) yet still match golden — already proven
    // above; here we assert the machinery actually exercised rollback.
    let blueprint = figure2_soc();
    let (_, report) = coemu_trace(&blueprint, ModePolicy::ForcedAls, 600);
    assert!(
        report.sim_stats().rollbacks + report.acc_stats().rollbacks > 0,
        "expected at least one rollback: {report}"
    );
    assert!(report.observed_accuracy().is_some());
}

/// The billing unit is the state vector's length: with `rollback_vars(None)`
/// every store and restore charges `per_var × state.len()`. A snapshot path
/// that wrote other words — packed, skipped, reordered — would still commit
/// the right trace and would silently change the model-time statistics, so
/// the totals of one long run are pinned to the picosecond.
#[test]
fn snapshot_billing_is_pinned() {
    use predpkt_sim::CostCategory;
    let blueprint = figure2_soc();
    let config = CoEmuConfig::paper_defaults()
        .policy(ModePolicy::Auto)
        .rollback_vars(None);
    let mut coemu = CoEmulator::from_blueprint(&blueprint, config).unwrap();
    coemu.run_until_committed(6_000).unwrap();
    let report = coemu.report();
    let picos = |category| coemu.ledger().get(category).as_picos();
    assert_eq!(
        (
            report.sim_stats().transitions + report.acc_stats().transitions,
            report.sim_stats().rollbacks + report.acc_stats().rollbacks,
            picos(CostCategory::StateStore),
            picos(CostCategory::StateRestore),
        ),
        (1_091, 1_029, 13_597_885_400, 13_576_149_040),
        "transitions, rollbacks, Tstore and Trest of 6 000 Fig. 2 cycles"
    );
}
