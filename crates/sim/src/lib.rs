//! # predpkt-sim — cycle-based simulation kernel
//!
//! The substrate every other `predpkt` crate stands on. It provides the pieces a
//! hardware/software co-emulation needs *besides* the bus protocol itself:
//!
//! * [`VirtualTime`] / [`Frequency`] — exact integer virtual time in picoseconds,
//!   so performance accounting is deterministic and reproducible across hosts.
//! * [`TimeLedger`] — per-category cost accounting mirroring the paper's
//!   Table 2 rows (`Tsim`, `Tacc`, `Tstore`, `Trestore`, `Tch`).
//! * [`Snapshot`] / [`StateVec`] — the rollback framework: any component can be
//!   checkpointed into a flat word vector and restored bit-exactly, which is what
//!   the leader domain does before each optimistic run-ahead; a [`Journaled`]
//!   store rolls back by undo log, paying per word written instead of per
//!   word held; [`declare_state!`] builds a component's `Snapshot` from one
//!   list of its state fields.
//! * [`Trace`] — an append-only, hashable, *rollback-aware* record of per-cycle
//!   values used to prove that optimistic execution commits exactly the same bus
//!   behaviour as a monolithic golden simulation.
//!
//! # Example
//!
//! ```
//! use predpkt_sim::{Frequency, TimeLedger, CostCategory, VirtualTime};
//!
//! let sim = Frequency::from_kcycles_per_sec(1_000); // 1,000 kcycles/sec
//! let mut ledger = TimeLedger::new();
//! for _ in 0..64 {
//!     ledger.charge(CostCategory::Simulator, sim.cycle_time());
//! }
//! assert_eq!(ledger.total(), VirtualTime::from_micros(64));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod declare;
mod error;
mod journal;
mod ledger;
mod rng;
mod snapshot;
mod stats;
mod time;
mod trace;

#[doc(hidden)]
pub use declare::check as __check;
#[doc(hidden)]
pub use declare::marked_array as __marked_array;
#[doc(hidden)]
pub use declare::packed_len as __packed_len;
pub use declare::{Codec, Each, GrowOnly, List, Own, Present, Sequence, Verdict};
pub use error::SimError;
pub use journal::Journaled;
pub use ledger::{CostCategory, LedgerReport, TimeLedger};
pub use rng::{splitmix64_mix, SplitMix64};
pub use snapshot::{
    mark_into, restore_from_vec, rewind_from_vec, save_into, save_to_vec, Snapshot, SnapshotError,
    StateReader, StateVec, StateWriter,
};
pub use stats::{Counter, RunningStats};
pub use time::{CycleCount, Frequency, VirtualTime};
pub use trace::{fnv1a64, Trace, TraceMark};
