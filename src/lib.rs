//! # predpkt — prediction-packetizing hardware/software co-emulation
//!
//! A Rust reproduction of *"A Prediction Packetizing Scheme for Reducing
//! Channel Traffic in Transaction-Level Hardware/Software Co-Emulation"*
//! (Lee, Chung, Ahn, Lee, Kyung — DATE 2005): optimistic simulator–accelerator
//! synchronization built on **prediction and rollback**, applied to an AMBA AHB
//! SoC split between a transaction-level simulator domain and an RTL
//! accelerator domain.
//!
//! This crate re-exports the whole workspace:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`sim`] | virtual time, cost ledger, snapshot/rollback, traces |
//! | [`ahb`] | cycle-accurate AHB bus substrate (masters, slaves, arbiter, checker) |
//! | [`channel`] | the channel model (iPROVE PCI constants) and the transport backends |
//! | [`predict`] | LOB, delta packetizer, predictors, pluggable predictor suites |
//! | [`core`] | half-bus models, channel wrappers, co-emulation sessions |
//! | [`perfmodel`] | closed-form Table 2 / Figure 4 expectations |
//! | [`workloads`] | Fig. 2 SoCs, scenario blueprints, the controlled-accuracy harness |
//!
//! ## Quickstart
//!
//! An [`EmuSession`](crate::core::EmuSession) composes a blueprint, a
//! configuration, a transport backend, a predictor suite, and observers:
//!
//! ```
//! use predpkt::prelude::*;
//!
//! // Split the paper's Fig. 2 SoC across the two domains and co-emulate it
//! // with dynamic leader election, counting protocol events as we go.
//! let blueprint = predpkt::workloads::figure2_soc(42);
//! let counters = EventCounters::new();
//! let mut session = EmuSession::from_blueprint(&blueprint)
//!     .config(CoEmuConfig::paper_defaults().policy(ModePolicy::Auto).rollback_vars(None))
//!     .observer(Box::new(counters.clone()))
//!     .build()?;
//! session.run_until_committed(2_000)?;
//!
//! let report = session.report();
//! assert!(report.accesses_per_cycle() < 2.0, "fewer channel accesses than lockstep");
//! assert!(counters.snapshot().lob_flushes > 0, "the LOB actually flushed");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The same session runs over per-side mpsc endpoints
//! (`TransportSelect::Threaded`), a fault-injecting transport
//! (`TransportSelect::Lossy`), a real TCP socket pair
//! (`TransportSelect::Tcp`), or a shared-memory ring pair
//! (`TransportSelect::Shm` — multi-process co-emulation on one host) by
//! changing one builder call — committed traces are bit-identical across
//! backends. Custom prediction strategies plug in through
//! [`predict::PredictorSuite`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use predpkt_ahb as ahb;
pub use predpkt_channel as channel;
pub use predpkt_core as core;
pub use predpkt_farm as farm;
pub use predpkt_perfmodel as perfmodel;
pub use predpkt_predict as predict;
pub use predpkt_sim as sim;
pub use predpkt_workloads as workloads;

/// The names most programs need.
pub mod prelude {
    pub use predpkt_ahb::{AhbBus, AhbMaster, AhbSlave, MasterId, SlaveId};
    pub use predpkt_channel::{ChannelCostModel, FaultSpec, Side};
    pub use predpkt_core::{
        CoEmuConfig, CoEmulator, DomainModel, EmuObserver, EmuSession, EventCounters, EventLog,
        ModePolicy, PerfReport, SocBlueprint, ThreadedOpts, TransportSelect,
    };
    pub use predpkt_perfmodel::{AnalyticRow, ModelParams};
    pub use predpkt_predict::{LastValueSuite, PaperSuite, PredictorSuite};
    pub use predpkt_sim::{CostCategory, Frequency, VirtualTime};
}
