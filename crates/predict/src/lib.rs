//! # predpkt-predict — prediction machinery
//!
//! The building blocks of the paper's "prediction packetizing" scheme:
//!
//! * [`Lob`] — the **Leader Output Buffer**: per-cycle records of the leader's
//!   own outputs plus the prediction it used, buffered during run-ahead and
//!   flushed as one burst. Its depth bounds the number of predictions per
//!   transition (the paper evaluates depths 8 and 64). The entries lie end
//!   to end in one buffer, read through [`LobEntries`]; a received flush is
//!   a [`LobBlock`], decoded one entry at a time as the lagger reaches it.
//! * [`encode_block`] / [`decode_block`] — the packetizer: consecutive cycles
//!   differ in few signals, so entries are encoded as change-mask + changed
//!   words, shrinking flush payloads (the paper's dynamic packetizing
//!   decision #3). A block carries every mask ahead of the changed words, so
//!   [`DeltaBlock`] checks it whole in one popcount sweep and then decodes
//!   only the entries that are read. [`encode_flat_into`] is the same encoder
//!   over entries laid end to end in a caller-kept buffer, which is how
//!   [`LobEntries`] flushes.
//! * Predictors for each signal class of the paper's §3 analysis:
//!   [`BurstFollower`] (address/control: linear within a burst),
//!   [`WaitPredictor`] (slave responses: producer–consumer wait patterns),
//!   [`LastValuePredictor`] (arbitration requests, interrupts: change rarely).
//! * [`PredictorSuite`] — the strategy layer: a suite is a factory of
//!   per-component [`MasterPredictor`]/[`SlavePredictor`] objects, so a
//!   session can swap the paper's wiring ([`PaperSuite`]) for alternatives
//!   ([`LastValueSuite`], or user-defined suites) without touching the
//!   protocol engine.
//!
//! All predictors implement [`Snapshot`](predpkt_sim::Snapshot): predictor
//! state is part of the leader's rollback state, so a rolled-back leader also
//! rolls back what it has learned during the failed speculation.
//!
//! ## Quickstart: writing a custom suite
//!
//! A suite is a factory of per-component predictor objects. Implement the
//! three-method [`PredictorSuite`] trait and hand it to the session builder
//! (`BlueprintSessionBuilder::predictors`); verification + rollback guarantee
//! that a bad strategy costs performance, never fidelity:
//!
//! ```
//! use predpkt_predict::{
//!     LastValueSlavePredictor, MasterPredictor, MasterSignals, PaperMasterPredictor,
//!     PredictorSuite, SlavePredictor,
//! };
//!
//! /// Paper-style masters, but slaves degraded to last-value.
//! struct MixedSuite;
//!
//! impl PredictorSuite for MixedSuite {
//!     fn master_predictor(&self, _index: usize) -> Box<dyn MasterPredictor> {
//!         Box::new(PaperMasterPredictor::new())
//!     }
//!     fn slave_predictor(&self, _index: usize) -> Box<dyn SlavePredictor> {
//!         Box::new(LastValueSlavePredictor::new())
//!     }
//!     fn name(&self) -> &'static str {
//!         "mixed"
//!     }
//! }
//! ```
//!
//! A custom predictor implements [`MasterPredictor`] or [`SlavePredictor`]
//! plus [`Snapshot`](predpkt_sim::Snapshot) (its state rolls back with the
//! leader). `observe` trains on actual signals; `predict` advances the
//! predictor along the speculative timeline. Keep both views of the same
//! timeline consistent: a verified speculation is *not* re-observed.
//!
//! ## Adaptive switching and how it is billed
//!
//! [`AdaptiveSuite`] races paper/last-value/markov candidates in lockstep and
//! forwards `predict` to the current scoreboard leader (see
//! [`AdaptiveConfig`] for the hysteresis/cooldown knobs). Switching is free
//! for correctness — the lagger verifies the predicted *vector*, not the
//! strategy — but on real co-emulation hardware the domains must agree on a
//! strategy epoch, which costs a small control message. The accounting path
//! keeps reported traffic honest without touching the wire format:
//!
//! 1. each switch accrues [`AdaptiveConfig::switch_words`] pending words in
//!    the predictor,
//! 2. the session drains them at flush time via
//!    [`MasterPredictor::take_control_words`] /
//!    [`SlavePredictor::take_control_words`] (default `0`, so static suites
//!    are unaffected),
//! 3. the channel bills them at the per-word rate as *piggybacked* burst
//!    payload: words and virtual time are recorded, but no extra channel
//!    access (they ride the burst that is being flushed anyway).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod adaptive;
mod context;
mod delta;
mod lob;
mod predictors;
mod suite;

pub use adaptive::{
    AdaptiveConfig, AdaptiveMasterPredictor, AdaptiveSlavePredictor, AdaptiveSuite,
};
pub use context::{ContextMasterPredictor, ContextSlavePredictor, ContextTable, MarkovSuite};
pub use delta::{decode_block, encode_block, encode_flat_into, DeltaBlock, DeltaDecodeError};
pub use lob::{Lob, LobBlock, LobEntries, LobEntry, LobFullError};
pub use predictors::{BurstFollower, LastValuePredictor, WaitPredictor};
pub use suite::{
    LastValueMasterPredictor, LastValueSlavePredictor, LastValueSuite, MasterPredictor,
    PaperMasterPredictor, PaperSlavePredictor, PaperSuite, PredictorSuite, SlavePredictor,
};

// Re-exported so downstream code can name the paper concepts from one place
// (`Htrans` because custom predictors mark speculative issues with it).
pub use predpkt_ahb::signals::{Htrans, MasterSignals, SlaveSignals};

/// Convenience alias used throughout the protocol: one cycle's packed signal
/// words.
pub type SignalWords = Vec<u32>;
