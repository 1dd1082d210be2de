//! Scripted traffic generator.

use crate::engine::{BusOp, MasterEngine, OpResult};
use crate::signals::{MasterSignals, MasterView};
use crate::AhbMaster;
use predpkt_sim::{declare_state, GrowOnly};

/// A master that executes a fixed list of operations, optionally separated by
/// idle gaps and optionally looping forever.
///
/// # Example
///
/// ```
/// use predpkt_ahb::engine::BusOp;
/// use predpkt_ahb::masters::TrafficGenMaster;
/// use predpkt_ahb::AhbMaster;
///
/// let m = TrafficGenMaster::from_ops(vec![
///     BusOp::write_single(0x100, 1),
///     BusOp::read_single(0x100),
/// ])
/// .with_idle_gap(3);
/// assert!(!m.done());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficGenMaster {
    script: Vec<BusOp>,
    next_op: usize,
    idle_gap: u32,
    idle_left: u32,
    looping: bool,
    engine: MasterEngine,
    results: Vec<OpResult>,
}

impl TrafficGenMaster {
    /// Creates a generator that runs `script` once.
    pub fn from_ops(script: Vec<BusOp>) -> Self {
        TrafficGenMaster {
            script,
            next_op: 0,
            idle_gap: 0,
            idle_left: 0,
            looping: false,
            engine: MasterEngine::new(),
            results: Vec::new(),
        }
    }

    /// Inserts `cycles` idle cycles between operations.
    pub fn with_idle_gap(mut self, cycles: u32) -> Self {
        self.idle_gap = cycles;
        self
    }

    /// Restarts the script from the top forever (results stop accumulating
    /// after the first pass to bound memory).
    pub fn looping(mut self) -> Self {
        self.looping = true;
        self
    }

    /// Inserts BUSY stimulus cycles inside bursts (protocol testing).
    pub fn with_busy_beats(mut self, n: u32) -> Self {
        self.engine = std::mem::take(&mut self.engine).with_busy_beats(n);
        self
    }

    /// Results of completed operations (first pass only when looping).
    pub fn results(&self) -> &[OpResult] {
        &self.results
    }
}

impl AhbMaster for TrafficGenMaster {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn outputs(&self) -> MasterSignals {
        self.engine.outputs()
    }

    fn tick(&mut self, view: &MasterView) {
        self.engine.tick(view);
        if let Some(res) = self.engine.take_result() {
            if self.results.len() < self.script.len() {
                self.results.push(res);
            }
            self.idle_left = self.idle_gap;
        }
        if !self.engine.busy() {
            if self.idle_left > 0 {
                self.idle_left -= 1;
            } else if self.next_op < self.script.len() {
                let op = self.script[self.next_op].clone();
                self.next_op += 1;
                if self.looping && self.next_op == self.script.len() {
                    self.next_op = 0;
                }
                self.engine.submit(op);
            }
        }
    }

    fn done(&self) -> bool {
        !self.looping && self.next_op >= self.script.len() && !self.engine.busy()
    }
}

// The script is static configuration. Results only accumulate, so a
// rollback truncates them to their length at the mark.
declare_state! {
    impl TrafficGenMaster {
        next_op,
        idle_left,
        engine,
        results: GrowOnly,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predpkt_sim::{restore_from_vec, save_to_vec};

    #[test]
    fn runs_script_in_order() {
        let mut m = TrafficGenMaster::from_ops(vec![
            BusOp::write_single(0x0, 0xa),
            BusOp::write_single(0x4, 0xb),
        ]);
        // Drive with an always-granted, always-ready view until done.
        let mut cycles = 0;
        let mut dp_mine = false;
        while !m.done() {
            cycles += 1;
            assert!(cycles < 100, "traffic gen stuck");
            let out = m.outputs();
            m.tick(&MasterView {
                granted: true,
                dp_mine,
                ..MasterView::quiet()
            });
            dp_mine = out.trans.is_active(); // the accepted phase owns the next data phase
        }
        assert_eq!(m.results().len(), 2);
        assert_eq!(m.results()[0].addr, 0x0);
        assert_eq!(m.results()[1].addr, 0x4);
    }

    #[test]
    fn idle_gap_inserts_idle_cycles() {
        let mut m = TrafficGenMaster::from_ops(vec![
            BusOp::write_single(0x0, 1),
            BusOp::write_single(0x4, 2),
        ])
        .with_idle_gap(2);
        let mut idle_after_first = 0;
        let mut saw_first = false;
        let mut dp_mine = false;
        for _ in 0..50 {
            if m.done() {
                break;
            }
            if m.results().len() == 1 {
                saw_first = true;
            }
            let out = m.outputs();
            if saw_first && !out.busreq {
                idle_after_first += 1;
            }
            m.tick(&MasterView {
                granted: true,
                dp_mine,
                ..MasterView::quiet()
            });
            dp_mine = out.trans.is_active();
        }
        assert!(
            idle_after_first >= 2,
            "idle gap honoured ({idle_after_first})"
        );
    }

    #[test]
    fn looping_never_finishes() {
        let mut m = TrafficGenMaster::from_ops(vec![BusOp::read_single(0x0)]).looping();
        let mut dp_mine = false;
        for _ in 0..64 {
            assert!(!m.done());
            let out = m.outputs();
            m.tick(&MasterView {
                granted: true,
                dp_mine,
                rdata: 5,
                ..MasterView::quiet()
            });
            dp_mine = out.trans.is_active();
        }
        // Results bounded by script length.
        assert_eq!(m.results().len(), 1);
    }

    #[test]
    fn snapshot_roundtrip_mid_script() {
        let mut m =
            TrafficGenMaster::from_ops(vec![BusOp::write_single(0x0, 1), BusOp::read_single(0x0)]);
        let mut dp_mine = false;
        for _ in 0..3 {
            let out = m.outputs();
            m.tick(&MasterView {
                granted: true,
                dp_mine,
                ..MasterView::quiet()
            });
            dp_mine = out.trans.is_active();
        }
        let state = save_to_vec(&m);
        let mut copy =
            TrafficGenMaster::from_ops(vec![BusOp::write_single(0x0, 1), BusOp::read_single(0x0)]);
        restore_from_vec(&mut copy, &state).unwrap();
        assert_eq!(copy, m);
    }
}
