//! Explicit always-ERROR slave.
//!
//! The [`Fabric`](crate::fabric::Fabric) already answers unmapped addresses with
//! a built-in two-cycle ERROR; this component exists for designs that want an
//! explicit error region in the address map (e.g. to trap firmware bugs at a
//! known slave index) and for protocol tests.

use crate::engine::{PlannedResponse, SlaveEngine};
use crate::signals::{Hresp, SlaveSignals, SlaveView};
use crate::AhbSlave;
use predpkt_sim::declare_state;

/// A slave that answers every transfer with a two-cycle ERROR.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DefaultSlave {
    engine: SlaveEngine,
    errors: u64,
}

impl DefaultSlave {
    /// Creates the slave.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of transfers rejected so far.
    pub fn errors(&self) -> u64 {
        self.errors
    }
}

impl AhbSlave for DefaultSlave {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn outputs(&self) -> SlaveSignals {
        self.engine.outputs()
    }

    fn tick(&mut self, view: &SlaveView) {
        let events = self.engine.tick(view);
        if events.completed.is_some() {
            self.errors += 1;
        }
        if events.accepted.is_some() {
            self.engine
                .plan(PlannedResponse::error_class(0, Hresp::Error));
        }
    }
}

declare_state! {
    impl DefaultSlave {
        engine,
        errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signals::{AddrPhase, Hburst, Hsize, Htrans, MasterId, SlaveId};

    #[test]
    fn always_errors_in_two_cycles() {
        let mut s = DefaultSlave::new();
        let p = AddrPhase {
            master: MasterId(0),
            slave: Some(SlaveId(0)),
            trans: Htrans::Nonseq,
            addr: 0x123 & !3,
            write: false,
            size: Hsize::Word,
            burst: Hburst::Single,
        };
        s.tick(&SlaveView {
            addr_phase: Some(p),
            ..SlaveView::quiet()
        });
        let o1 = s.outputs();
        assert!(!o1.ready);
        assert_eq!(o1.resp, Hresp::Error);
        s.tick(&SlaveView {
            dp_active: true,
            hready: false,
            ..SlaveView::quiet()
        });
        let o2 = s.outputs();
        assert!(o2.ready);
        assert_eq!(o2.resp, Hresp::Error);
        s.tick(&SlaveView {
            dp_active: true,
            ..SlaveView::quiet()
        });
        assert_eq!(s.errors(), 1);
    }
}
