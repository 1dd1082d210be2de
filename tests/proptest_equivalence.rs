//! Randomized equivalence: random SoC configurations, random placements,
//! random traffic — the split co-emulation must always commit the golden
//! trace, under every operating mode and every transport backend.
//!
//! This is the paper's correctness claim fuzzed: "they are synchronized only
//! when it is inevitable for cycle accurate behavior" — i.e. never at the cost
//! of cycle accuracy. The generator is a seeded SplitMix64, so every case is
//! reproducible from its case index alone (no external fuzzing framework).

use predpkt::ahb::engine::BusOp;
use predpkt::ahb::masters::{CpuMaster, CpuProfile, DmaDescriptor, DmaMaster, TrafficGenMaster};
use predpkt::ahb::signals::{Hburst, Hsize};
use predpkt::ahb::slaves::{FifoSlave, MemorySlave, PeripheralSlave};
use predpkt::prelude::*;

use predpkt::sim::SplitMix64 as Rng;

/// A generated SoC description.
#[derive(Debug, Clone)]
struct SocSpec {
    masters: Vec<(MasterKind, bool)>, // (component, on_accelerator)
    slaves: Vec<(SlaveKind, bool)>,
    cycles: u64,
}

#[derive(Debug, Clone, Copy)]
enum MasterKind {
    Cpu { seed: u64 },
    Dma { words: u32 },
    Gen { burst: u8, gap: u8 },
}

#[derive(Debug, Clone, Copy)]
enum SlaveKind {
    Mem { wait: u8 },
    Periph,
    Fifo { period: u8 },
}

fn master_kind(rng: &mut Rng) -> MasterKind {
    match rng.below(3) {
        0 => MasterKind::Cpu {
            seed: rng.next_u64() | 1,
        },
        1 => MasterKind::Dma {
            words: 1 + rng.below(39) as u32,
        },
        _ => MasterKind::Gen {
            burst: rng.below(3) as u8,
            gap: rng.below(9) as u8,
        },
    }
}

fn slave_kind(rng: &mut Rng) -> SlaveKind {
    match rng.below(3) {
        0 => SlaveKind::Mem {
            wait: rng.below(4) as u8,
        },
        1 => SlaveKind::Periph,
        _ => SlaveKind::Fifo {
            period: 1 + rng.below(4) as u8,
        },
    }
}

fn soc_spec(rng: &mut Rng) -> SocSpec {
    let masters = (0..1 + rng.below(3))
        .map(|_| (master_kind(rng), rng.flip()))
        .collect();
    let slaves = (0..1 + rng.below(3))
        .map(|_| (slave_kind(rng), rng.flip()))
        .collect();
    SocSpec {
        masters,
        slaves,
        cycles: 100 + rng.below(300),
    }
}

fn build_blueprint(spec: &SocSpec) -> SocBlueprint {
    let mut bp = SocBlueprint::new();
    for &(kind, on_acc) in &spec.masters {
        let side = if on_acc {
            Side::Accelerator
        } else {
            Side::Simulator
        };
        bp = match kind {
            MasterKind::Cpu { seed } => bp.master(side, move || {
                Box::new(CpuMaster::new(seed, CpuProfile::default()))
            }),
            MasterKind::Dma { words } => bp.master(side, move || {
                Box::new(DmaMaster::new(vec![DmaDescriptor::new(0x0, 0x1000, words)]))
            }),
            MasterKind::Gen { burst, gap } => bp.master(side, move || {
                let op = match burst {
                    0 => BusOp::write_single(0x40, 0xaa),
                    1 => BusOp::read_burst(0x80, Hsize::Word, Hburst::Incr4),
                    _ => BusOp::read_burst(0x38, Hsize::Word, Hburst::Wrap4),
                };
                Box::new(
                    TrafficGenMaster::from_ops(vec![op])
                        .looping()
                        .with_idle_gap(gap as u32),
                )
            }),
        };
    }
    for (j, &(kind, on_acc)) in spec.slaves.iter().enumerate() {
        let side = if on_acc {
            Side::Accelerator
        } else {
            Side::Simulator
        };
        let base = 0x1000 * j as u32;
        bp = match kind {
            SlaveKind::Mem { wait } => bp.slave(side, base, 0x1000, move || {
                Box::new(MemorySlave::with_waits(0x1000, wait as u32, 0))
            }),
            SlaveKind::Periph => bp.slave(side, base, 0x1000, || Box::new(PeripheralSlave::new(1))),
            SlaveKind::Fifo { period } => bp.slave(side, base, 0x1000, move || {
                Box::new(FifoSlave::new(8, period as u32, 2))
            }),
        };
    }
    bp
}

fn assert_case_commits_golden(case: u64, backends: &[TransportSelect]) {
    let mut rng = Rng::new(0x70_57_e5_70 ^ case.wrapping_mul(0x1234_5678_9abc_def1));
    let spec = soc_spec(&mut rng);
    let blueprint = build_blueprint(&spec);

    // Golden reference (checker on).
    let mut golden = blueprint.build_golden().expect("golden builds");
    golden.run(spec.cycles);
    assert!(
        golden.violations().is_empty(),
        "case {case}: {:?}",
        golden.violations()
    );

    for policy in [
        ModePolicy::Conservative,
        ModePolicy::Auto,
        ModePolicy::ForcedAls,
    ] {
        for &backend in backends {
            let config = CoEmuConfig::paper_defaults()
                .policy(policy)
                .rollback_vars(None)
                .carry(true)
                .adaptive(true);
            let mut session = EmuSession::from_blueprint(&blueprint)
                .config(config)
                .transport(backend)
                .build()
                .expect("session builds");
            session
                .run_until_committed(spec.cycles)
                .expect("no deadlock");
            let placement = blueprint.placement();
            let mut merged = session.merged_trace(|s, a| placement.merge_records(s, a));
            merged.truncate_to_len(spec.cycles as usize);
            if merged.hash() != golden.trace().hash() {
                let at = golden.trace().first_divergence(&merged);
                panic!(
                    "case {case}: divergence under {policy:?}/{} at cycle {at:?} (spec {spec:?})",
                    session.backend(),
                );
            }
        }
    }
}

#[test]
fn random_socs_commit_golden_traces() {
    for case in 0..24 {
        assert_case_commits_golden(case, &[TransportSelect::Queue]);
    }
}

#[test]
fn random_socs_commit_golden_traces_across_backends() {
    // A smaller sample through the fault-free lossy and mpsc-endpoint backends:
    // the committed trace must not depend on the transport at all.
    for case in 0..6 {
        assert_case_commits_golden(
            case,
            &[
                TransportSelect::Lossy(predpkt::channel::FaultSpec::none(case)),
                TransportSelect::Threaded(ThreadedOpts::default()),
            ],
        );
    }
}
