//! # predpkt-ahb — cycle-accurate AMBA AHB substrate
//!
//! The paper splits an AHB-based SoC between a software simulator and a hardware
//! accelerator. This crate is the bus substrate both sides share: signal types,
//! the burst address sequencer, a static-priority arbiter with SPLIT masking and
//! lock support, an address decoder, master/slave traits with reusable protocol
//! engines, a library of masters (traffic generator, DMA, CPU) and slaves
//! (memory, peripheral with IRQ, SPLIT-capable, producer–consumer FIFO, default),
//! a monolithic golden [`AhbBus`], a protocol [`checker`], and transaction
//! extraction from traces.
//!
//! ## The Moore-machine contract
//!
//! Every component is a **Moore machine**: [`AhbMaster::outputs`] /
//! [`AhbSlave::outputs`] are pure functions of state latched at the previous
//! clock edge, and `tick` advances that state given the full bus view of the
//! cycle. Consequently all cross-component signal values for cycle *N* exist
//! before any component evaluates cycle *N* — which is exactly the property the
//! paper needs to split the bus into two half-bus models with no combinational
//! half-loop (problem definition #1, §3). The [`fabric::Fabric`] (arbiter +
//! decoder + pipeline registers) is replicated in both domains and stays
//! bit-identical because it sees identical inputs.
//!
//! ## Example
//!
//! ```
//! use predpkt_ahb::bus::AhbBus;
//! use predpkt_ahb::engine::BusOp;
//! use predpkt_ahb::masters::TrafficGenMaster;
//! use predpkt_ahb::slaves::MemorySlave;
//!
//! let mut bus = AhbBus::builder()
//!     .master(TrafficGenMaster::from_ops(vec![
//!         BusOp::write_single(0x0000_0010, 0xdead_beef),
//!         BusOp::read_single(0x0000_0010),
//!     ]))
//!     .slave(MemorySlave::new(0x1000, 0), 0x0000_0000, 0x1000)
//!     .build()
//!     .unwrap();
//! for _ in 0..32 {
//!     bus.tick();
//! }
//! assert_eq!(bus.trace().len(), 32);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod burst;
pub mod bus;
pub mod checker;
pub mod engine;
pub mod fabric;
pub mod masters;
pub mod record;
pub mod signals;
pub mod slaves;
pub mod txn;

pub use bus::{AhbBus, AhbBusBuilder, BusConfigError};
pub use fabric::{CycleView, Fabric};
pub use signals::{
    AddrPhase, Hburst, Hresp, Hsize, Htrans, MasterId, MasterSignals, MasterView, SlaveId,
    SlaveSignals, SlaveView,
};

use predpkt_sim::Snapshot;
use std::any::Any;

/// A bus master: drives requests, addresses, control and write data.
///
/// Implementors are Moore machines (see the crate docs) and must be
/// [`Snapshot`]-able so they can live in a rollback-capable leader domain, and
/// `Send` so a session farm can move a session, domain models included,
/// between its worker threads.
pub trait AhbMaster: Snapshot + Any + Send {
    /// The signal values this master drives during the current cycle
    /// (pure function of state latched at the previous edge).
    fn outputs(&self) -> MasterSignals;

    /// Advances one clock edge given everything the master port sees.
    fn tick(&mut self, view: &MasterView);

    /// `true` once the master has no further work (used by tests and examples
    /// to terminate runs; the bus itself never requires it).
    fn done(&self) -> bool {
        false
    }

    /// Upcast for concrete-type inspection (see [`AhbBus::master_as`]).
    fn as_any(&self) -> &dyn Any;
}

/// A bus slave: responds to selected transfers with ready/response/read data.
///
/// Implementors are Moore machines and must be [`Snapshot`]-able, and `Send`
/// for the same reason as [`AhbMaster`].
pub trait AhbSlave: Snapshot + Any + Send {
    /// The signal values this slave drives during the current cycle.
    fn outputs(&self) -> SlaveSignals;

    /// Advances one clock edge given everything the slave port sees.
    fn tick(&mut self, view: &SlaveView);

    /// Upcast for concrete-type inspection (see [`AhbBus::slave_as`]).
    fn as_any(&self) -> &dyn Any;
}

/// Helpers shared by the crate's unit tests.
#[cfg(test)]
pub(crate) mod test_util {
    use predpkt_sim::{restore_from_vec, save_to_vec, Snapshot, SnapshotError, StateVec};

    /// `good`'s saved words with word `at` replaced by `bad` are refused as
    /// corrupt at `at` — not taken and left to panic in the next `outputs` or
    /// `view` — and the refusing component still restores the good words.
    pub(crate) fn assert_refused_at<C>(good: &C, at: usize, bad: u64)
    where
        C: Snapshot + Clone + PartialEq + std::fmt::Debug,
    {
        let saved = save_to_vec(good);
        let mut words = saved.words().to_vec();
        words[at] = bad;
        let mut target = good.clone();
        assert_eq!(
            restore_from_vec(&mut target, &StateVec::from(words)),
            Err(SnapshotError::Corrupt { at }),
            "word {at} = {bad}"
        );
        restore_from_vec(&mut target, &saved).expect("the good words still restore");
        assert_eq!(&target, good);
    }
}
