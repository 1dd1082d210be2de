//! Shared fixtures for the integration suites.

pub mod conformance;

use predpkt_ahb::engine::BusOp;
use predpkt_ahb::masters::{CpuMaster, CpuProfile, DmaDescriptor, DmaMaster, TrafficGenMaster};
use predpkt_ahb::signals::{Hburst, Hsize};
use predpkt_ahb::slaves::{MemorySlave, PeripheralSlave};
use predpkt_core::{Side, SocBlueprint};

/// The paper's Fig. 2 shape (see `equivalence.rs`): traffic irregular enough
/// to exercise predictions, rollbacks, bursts, and conservative fallbacks, so
/// every protocol packet kind crosses the channel. Both the
/// transport-equivalence and the fault-recovery suites compare runs of this
/// one blueprint, which is what makes their bit-identical assertions
/// meaningful.
pub fn figure2_soc() -> SocBlueprint {
    figure2_soc_seeded(0xbeef)
}

/// [`figure2_soc`] with a chosen CPU seed: what
/// `predpkt_workloads::figure2_soc(seed)` builds for an odd `seed` (that
/// crate depends on this one, so the suites cannot call it).
#[allow(dead_code)] // only the checkpoint size pin varies the seed
pub fn figure2_soc_seeded(cpu_seed: u64) -> SocBlueprint {
    SocBlueprint::new()
        .master(Side::Simulator, move || {
            Box::new(CpuMaster::new(cpu_seed, CpuProfile::default()))
        })
        .master(Side::Accelerator, || {
            Box::new(DmaMaster::new(vec![
                DmaDescriptor::new(0x0000_0100, 0x0000_1100, 24),
                DmaDescriptor::new(0x0000_1200, 0x0000_0200, 12),
            ]))
        })
        .master(Side::Accelerator, || {
            Box::new(
                TrafficGenMaster::from_ops(vec![
                    BusOp::read_burst(0x0000_0040, Hsize::Word, Hburst::Wrap8),
                    BusOp::write_single(0x0000_2004, 0xabcd),
                ])
                .looping()
                .with_idle_gap(11),
            )
        })
        .slave(Side::Simulator, 0x0000_0000, 0x1000, || {
            Box::new(MemorySlave::new(0x1000, 0))
        })
        .slave(Side::Simulator, 0x0000_1000, 0x1000, || {
            Box::new(MemorySlave::with_waits(0x1000, 2, 1))
        })
        .slave(Side::Accelerator, 0x0000_2000, 0x1000, || {
            Box::new(PeripheralSlave::new(1))
        })
}
