//! Shared fixtures for the integration suites.

pub mod conformance;

use predpkt_core::SocBlueprint;

/// The paper's Fig. 2 shape (see `equivalence.rs`): traffic irregular enough
/// to exercise predictions, rollbacks, bursts, and conservative fallbacks, so
/// every protocol packet kind crosses the channel. Both the
/// transport-equivalence and the fault-recovery suites compare runs of this
/// one blueprint, which is what makes their bit-identical assertions
/// meaningful.
pub fn figure2_soc() -> SocBlueprint {
    figure2_soc_seeded(0xbeef)
}

/// [`figure2_soc`] with a chosen (odd) CPU seed.
#[allow(unused_imports)] // only the checkpoint and latch pins vary the seed
pub use predpkt_workloads::figure2_soc as figure2_soc_seeded;
