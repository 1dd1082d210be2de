//! The edges of the MSABS rule for a granted master's address phase.
//!
//! A lagger compares the prediction of its granted master's HADDR, HWRITE,
//! HSIZE and HBURST with the actual values only while that master drives
//! NONSEQ or SEQ: under IDLE or BUSY no decoder, data-phase register, burst
//! tracker or slave reads them. HTRANS itself is always compared: the
//! arbiter keeps a burst on BUSY and drops it on IDLE, and only NONSEQ and
//! SEQ open a data phase. HPROT is never compared: no leader-side component
//! reads it.
//!
//! Each case sets up a fresh split pair whose only master, the granted
//! default master, sits on the accelerator (the lagger) and drives a fixed
//! address phase, and asks both lagger entry points — `verify_prediction`
//! and the fused `verify_and_tick` — for a verdict on one prediction. A
//! debug build also runs the shadow oracle behind every prediction the
//! exemption lets through.

use predpkt_ahb::signals::{Hburst, Hsize, Htrans, MasterSignals, MasterView};
use predpkt_ahb::slaves::MemorySlave;
use predpkt_ahb::AhbMaster;
use predpkt_core::{DomainModel, Side, SocBlueprint};
use predpkt_predict::PaperSuite;
use predpkt_sim::{Bundle, Snapshot, SnapshotError, StateReader, StateWriter};

/// A master that drives the same outputs every cycle.
struct Driving(MasterSignals);

impl Snapshot for Driving {
    fn save(&self, w: &mut StateWriter<'_>) {
        self.0.save(w);
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.0.restore(r)
    }
}

impl AhbMaster for Driving {
    fn outputs(&self) -> MasterSignals {
        self.0
    }

    fn tick(&mut self, _: &MasterView) {}

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// A requesting master's address phase of kind `trans` at `addr`.
fn phase(trans: Htrans, addr: u32) -> MasterSignals {
    MasterSignals {
        busreq: true,
        trans,
        addr,
        size: Hsize::Word,
        burst: Hburst::Incr4,
        ..MasterSignals::default()
    }
}

/// `actual` with every address and control field changed, the address to
/// one another slave decodes.
fn other_control(actual: MasterSignals) -> MasterSignals {
    MasterSignals {
        addr: actual.addr ^ 0x1000,
        write: !actual.write,
        size: Hsize::Half,
        burst: Hburst::Wrap8,
        prot: 0x3,
        ..actual
    }
}

/// The verdict of both lagger entry points on `predicted` when the granted
/// master actually drives `actual`. Panics if they disagree.
fn verdict(actual: MasterSignals, predicted: MasterSignals) -> bool {
    let (leader, mut lagger) = SocBlueprint::new()
        .master(Side::Accelerator, move || Box::new(Driving(actual)))
        .slave(Side::Simulator, 0x0000, 0x1000, || {
            Box::new(MemorySlave::new(0x1000, 0))
        })
        .slave(Side::Accelerator, 0x1000, 0x1000, || {
            Box::new(MemorySlave::new(0x1000, 0))
        })
        .build_pair_with(&PaperSuite)
        .expect("the pair builds");
    assert_eq!(
        lagger.fabric().arbiter().granted().0,
        0,
        "master 0 is granted"
    );
    let leader_words = leader.local_outputs();
    let mut predicted_words = lagger.local_outputs();
    predicted.pack_into(&mut predicted_words[..MasterSignals::WORDS]);
    let checked = lagger.verify_prediction(&leader_words, &predicted_words);
    let mut before = Vec::new();
    let fused = lagger.verify_and_tick(&leader_words, &predicted_words, &mut before);
    assert_eq!(
        checked, fused,
        "verify_prediction and verify_and_tick disagree on {predicted:?} against {actual:?}"
    );
    assert_eq!(
        before.is_empty(),
        fused,
        "a failed check hands back the actual outputs, a verified one nothing"
    );
    fused
}

#[test]
fn address_and_control_are_free_under_idle_and_busy() {
    for trans in [Htrans::Idle, Htrans::Busy] {
        let actual = phase(trans, 0x0040);
        assert!(
            verdict(actual, other_control(actual)),
            "{trans:?}: only address and control differ"
        );
    }
}

#[test]
fn htrans_is_always_compared() {
    for (actual, predicted) in [
        (Htrans::Idle, Htrans::Nonseq),
        (Htrans::Nonseq, Htrans::Idle),
        (Htrans::Idle, Htrans::Busy),
        (Htrans::Busy, Htrans::Idle),
    ] {
        let actual_phase = phase(actual, 0x0040);
        assert!(
            !verdict(actual_phase, phase(predicted, 0x0040)),
            "{actual:?} predicted as {predicted:?}"
        );
    }
}

#[test]
fn the_address_of_nonseq_and_seq_is_compared() {
    for trans in [Htrans::Nonseq, Htrans::Seq] {
        let actual = phase(trans, 0x0040);
        assert!(
            !verdict(actual, phase(trans, 0x0044)),
            "{trans:?}: the predicted address differs"
        );
        assert!(
            !verdict(actual, other_control(actual)),
            "{trans:?}: address and control differ"
        );
        assert!(verdict(actual, actual), "{trans:?}: an exact prediction");
    }
}

#[test]
fn hprot_is_never_compared() {
    for trans in [Htrans::Nonseq, Htrans::Seq] {
        let actual = phase(trans, 0x0040);
        let predicted = MasterSignals {
            prot: actual.prot ^ 0xf,
            ..actual
        };
        assert!(verdict(actual, predicted), "{trans:?}: only HPROT differs");
    }
}
