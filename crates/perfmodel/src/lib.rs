//! # predpkt-perfmodel — closed-form performance model
//!
//! Exact expectations of the prediction-packetizing protocol implemented in
//! `predpkt-core`, as functions of prediction accuracy `p`, LOB depth `L`,
//! domain speeds, channel constants, and rollback-variable count — the same
//! axes as the paper's Table 2 and Figure 4.
//!
//! ## Transition algebra
//!
//! A transition makes `L` predictions, each independently correct with
//! probability `p`. With `q = p^L` the success probability and
//! `J` the (1-based) position of the first failure:
//!
//! * committed progress  = `head + q·L + Σ_{j=1..L} j·p^(j-1)·(1-p)`
//! * leader cycles       = `head + L + Σ_{j=1..L} j·p^(j-1)·(1-p)` (run-ahead + roll-forth)
//! * lagger cycles       = progress (laggers tick each committed cycle once)
//! * channel             = 2 accesses (flush + report) + payload
//! * stores = 1, restores = `1 − q`
//!
//! `head = 1` when the head-carry refinement is enabled (reports carry
//! next-cycle outputs so each transition opens with a guaranteed-correct
//! cycle), `0` for paper-faithful accounting.
//!
//! Every row of the model is cross-validated against the discrete-event
//! measurement in the integration suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod model;
mod sweep;

pub use model::{AnalyticRow, ModelParams, TransitionStats};
pub use sweep::{
    break_even_accuracy, figure4_series, Figure4Point, PAPER_ACCURACY_GRID, PAPER_TABLE2,
};
