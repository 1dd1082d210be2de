//! Shared fixtures for the integration suites.

pub mod conformance;

use predpkt_ahb::engine::BusOp;
use predpkt_ahb::masters::{CpuMaster, CpuProfile, DmaDescriptor, DmaMaster, TrafficGenMaster};
use predpkt_ahb::signals::{Hburst, Hsize};
use predpkt_ahb::slaves::{FifoSlave, MemorySlave, PeripheralSlave, SplitSlave};
use predpkt_core::{Side, SocBlueprint};

/// The paper's Fig. 2 shape ([`predpkt_workloads::figure2_soc`] at CPU seed
/// `0xbeef`): traffic irregular enough to exercise predictions, rollbacks,
/// bursts, and conservative fallbacks, so every protocol packet kind crosses
/// the channel. The golden-bus equivalence suite and every cell of the
/// conformance matrix run this one blueprint, which is what makes their
/// bit-identical assertions meaningful.
pub fn figure2_soc() -> SocBlueprint {
    figure2_soc_seeded(0xbeef)
}

/// [`figure2_soc`] with a chosen (odd) CPU seed.
#[allow(unused_imports)] // only the checkpoint and latch pins vary the seed
pub use predpkt_workloads::figure2_soc as figure2_soc_seeded;

/// Every component whose state has a variable length in one SoC, with a
/// journaled store on each side. The CPU's data region is the split slave,
/// so jobs are in flight at most cuts, often several at once with the other
/// two masters'.
#[allow(dead_code)] // only the snapshot and latch pins run the mesh
pub fn mesh_soc() -> SocBlueprint {
    SocBlueprint::new()
        .master(Side::Simulator, || {
            Box::new(CpuMaster::new(0x51de, CpuProfile::default()))
        })
        .master(Side::Accelerator, || {
            Box::new(TrafficGenMaster::from_ops(vec![
                BusOp::read_incr(0x2000, Hsize::Word, 4),
                BusOp::read_single(0x1004),
                BusOp::write_burst(0x2000, Hsize::Word, Hburst::Incr4, vec![1, 2, 3, 4]),
                BusOp::read_burst(0x0040, Hsize::Word, Hburst::Wrap8),
                BusOp::write_single(0x3008, 0xabcd),
                BusOp::read_incr(0x2000, Hsize::Word, 6),
                BusOp::read_single(0x3008),
            ]))
        })
        .master(Side::Accelerator, || {
            Box::new(DmaMaster::new(vec![
                DmaDescriptor::new(0x0100, 0x1010, 24),
                DmaDescriptor::new(0x1010, 0x0200, 12),
            ]))
        })
        .slave(Side::Simulator, 0x0000, 0x1000, || {
            Box::new(MemorySlave::new(0x1000, 0))
        })
        .slave(Side::Accelerator, 0x1000, 0x1000, || {
            Box::new(SplitSlave::new(0x100, 9))
        })
        .slave(Side::Accelerator, 0x2000, 0x1000, || {
            Box::new(FifoSlave::new(8, 3, 5))
        })
        .slave(Side::Simulator, 0x3000, 0x1000, || {
            Box::new(PeripheralSlave::new(1))
        })
}
