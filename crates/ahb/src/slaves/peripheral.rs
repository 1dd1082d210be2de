//! Register-file peripheral with a timer and an interrupt line.
//!
//! Interrupts are the paper's canonical example of a non-bus signal crossing
//! the domain boundary ("interrupt signal to be one of the most common
//! examples, it should be treated the same as elements of MSABS and should be a
//! subject of prediction, too", §3). This peripheral raises its IRQ
//! periodically so co-emulation tests exercise exactly that path.

use crate::engine::{PlannedResponse, SlaveEngine};
use crate::signals::{SlaveSignals, SlaveView};
use crate::AhbSlave;
use predpkt_sim::{Snapshot, SnapshotError, StateReader, StateWriter};

/// Control register offset: bit 0 = timer enable, bit 1 = IRQ enable.
pub const REG_CTRL: u32 = 0x00;
/// Status register offset: bit 0 = IRQ pending (write 1 to clear).
pub const REG_STATUS: u32 = 0x04;
/// Timer period register offset (cycles per IRQ).
pub const REG_TIMER_PERIOD: u32 = 0x08;
/// Timer current-count register offset (read-only).
pub const REG_TIMER_COUNT: u32 = 0x0c;
/// Data-port register offset: writes push into a mailbox, reads pop.
pub const REG_DATA: u32 = 0x10;

const CTRL_TIMER_EN: u32 = 0b01;
const CTRL_IRQ_EN: u32 = 0b10;
const MAILBOX_CAP: usize = 16;

/// A memory-mapped peripheral: control/status registers, a periodic timer that
/// raises the IRQ line, and a 16-entry mailbox data port.
///
/// All accesses complete with a fixed number of wait states (configurable),
/// making its responses predictable in the paper's sense; the IRQ line is the
/// signal the last-value interrupt predictor has to track.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeripheralSlave {
    ctrl: u32,
    irq_pending: bool,
    period: u32,
    count: u32,
    mailbox: Vec<u32>,
    wait_states: u32,
    engine: SlaveEngine,
}

impl PeripheralSlave {
    /// Creates a peripheral whose accesses cost `wait_states` wait states.
    pub fn new(wait_states: u32) -> Self {
        PeripheralSlave {
            ctrl: 0,
            irq_pending: false,
            period: 0,
            count: 0,
            mailbox: Vec::new(),
            wait_states,
            engine: SlaveEngine::new(),
        }
    }

    /// Direct register read (test access).
    pub fn peek(&self, offset: u32) -> u32 {
        match offset & 0x1c {
            REG_CTRL => self.ctrl,
            REG_STATUS => self.irq_pending as u32,
            REG_TIMER_PERIOD => self.period,
            REG_TIMER_COUNT => self.count,
            REG_DATA => self.mailbox.first().copied().unwrap_or(0),
            _ => 0,
        }
    }

    /// `true` while the IRQ line is asserted.
    pub fn irq_asserted(&self) -> bool {
        self.irq_pending && self.ctrl & CTRL_IRQ_EN != 0
    }

    /// Number of words waiting in the mailbox.
    pub fn mailbox_len(&self) -> usize {
        self.mailbox.len()
    }

    fn register_read(&mut self, offset: u32) -> u32 {
        match offset & 0x1c {
            REG_CTRL => self.ctrl,
            REG_STATUS => self.irq_pending as u32,
            REG_TIMER_PERIOD => self.period,
            REG_TIMER_COUNT => self.count,
            REG_DATA => {
                if self.mailbox.is_empty() {
                    0
                } else {
                    self.mailbox.remove(0)
                }
            }
            _ => 0,
        }
    }

    fn register_write(&mut self, offset: u32, value: u32) {
        match offset & 0x1c {
            REG_CTRL => self.ctrl = value & 0b11,
            REG_STATUS if value & 1 != 0 => {
                self.irq_pending = false;
            }
            REG_TIMER_PERIOD => {
                self.period = value;
                self.count = 0;
            }
            REG_DATA if self.mailbox.len() < MAILBOX_CAP => {
                self.mailbox.push(value);
            }
            _ => {}
        }
    }
}

impl AhbSlave for PeripheralSlave {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn outputs(&self) -> SlaveSignals {
        let mut sig = self.engine.outputs();
        sig.irq = self.irq_asserted();
        sig
    }

    fn tick(&mut self, view: &SlaveView) {
        // Timer runs every cycle regardless of bus activity.
        if self.ctrl & CTRL_TIMER_EN != 0 && self.period > 0 {
            self.count += 1;
            if self.count >= self.period {
                self.count = 0;
                self.irq_pending = true;
            }
        }

        let events = self.engine.tick(view);
        if let Some(done) = events.completed {
            if let Some(wdata) = done.wdata {
                self.register_write(done.phase.addr, wdata);
            }
        }
        if let Some(phase) = events.accepted {
            let rdata = if phase.write {
                0
            } else {
                self.register_read(phase.addr)
            };
            self.engine
                .plan(PlannedResponse::okay(self.wait_states, rdata));
        }
    }
}

impl Snapshot for PeripheralSlave {
    fn save(&self, w: &mut StateWriter<'_>) {
        w.u32(self.ctrl)
            .bool(self.irq_pending)
            .u32(self.period)
            .u32(self.count)
            .slice_u32(&self.mailbox);
        self.engine.save(w);
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.ctrl = r.u32()?;
        self.irq_pending = r.bool()?;
        self.period = r.u32()?;
        self.count = r.u32()?;
        r.slice_u32_into(&mut self.mailbox)?;
        self.engine.restore(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signals::{AddrPhase, Hburst, Hsize, Htrans, MasterId, SlaveId};
    use predpkt_sim::{restore_from_vec, save_to_vec};

    fn phase(write: bool, addr: u32) -> AddrPhase {
        AddrPhase {
            master: MasterId(0),
            slave: Some(SlaveId(0)),
            trans: Htrans::Nonseq,
            addr,
            write,
            size: Hsize::Word,
            burst: Hburst::Single,
        }
    }

    fn bus_write(p: &mut PeripheralSlave, addr: u32, value: u32) {
        let ph = phase(true, addr);
        p.tick(&SlaveView {
            addr_phase: Some(ph),
            ..SlaveView::quiet()
        });
        loop {
            let ready = p.outputs().ready;
            p.tick(&SlaveView {
                dp_active: true,
                dp: Some(ph),
                hready: ready,
                wdata: value,
                ..SlaveView::quiet()
            });
            if ready {
                break;
            }
        }
    }

    fn bus_read(p: &mut PeripheralSlave, addr: u32) -> u32 {
        let ph = phase(false, addr);
        p.tick(&SlaveView {
            addr_phase: Some(ph),
            ..SlaveView::quiet()
        });
        loop {
            let out = p.outputs();
            p.tick(&SlaveView {
                dp_active: true,
                dp: Some(ph),
                hready: out.ready,
                ..SlaveView::quiet()
            });
            if out.ready {
                return out.rdata;
            }
        }
    }

    #[test]
    fn register_access_roundtrip() {
        let mut p = PeripheralSlave::new(1);
        bus_write(&mut p, REG_TIMER_PERIOD, 100);
        assert_eq!(bus_read(&mut p, REG_TIMER_PERIOD), 100);
        bus_write(&mut p, REG_CTRL, 0b11);
        assert_eq!(bus_read(&mut p, REG_CTRL), 0b11);
    }

    #[test]
    fn timer_raises_irq_and_status_clears_it() {
        let mut p = PeripheralSlave::new(0);
        bus_write(&mut p, REG_TIMER_PERIOD, 8);
        bus_write(&mut p, REG_CTRL, 0b11);
        // Idle-tick until the IRQ fires.
        let mut fired_at = None;
        for cycle in 0..32 {
            if p.irq_asserted() {
                fired_at = Some(cycle);
                break;
            }
            p.tick(&SlaveView::quiet());
        }
        assert!(fired_at.is_some(), "timer IRQ fired");
        assert!(p.outputs().irq);
        // Write-1-to-clear.
        bus_write(&mut p, REG_STATUS, 1);
        assert!(!p.irq_asserted());
    }

    #[test]
    fn irq_masked_without_enable() {
        let mut p = PeripheralSlave::new(0);
        bus_write(&mut p, REG_TIMER_PERIOD, 4);
        bus_write(&mut p, REG_CTRL, CTRL_TIMER_EN); // timer on, IRQ off
        for _ in 0..10 {
            p.tick(&SlaveView::quiet());
        }
        assert!(p.peek(REG_STATUS) == 1, "pending set internally");
        assert!(!p.irq_asserted(), "line masked");
    }

    #[test]
    fn mailbox_fifo_order_and_capacity() {
        let mut p = PeripheralSlave::new(0);
        for i in 0..20 {
            bus_write(&mut p, REG_DATA, 100 + i);
        }
        assert_eq!(p.mailbox_len(), MAILBOX_CAP, "overflow dropped");
        assert_eq!(bus_read(&mut p, REG_DATA), 100);
        assert_eq!(bus_read(&mut p, REG_DATA), 101);
        assert_eq!(p.mailbox_len(), MAILBOX_CAP - 2);
    }

    #[test]
    fn empty_mailbox_reads_zero() {
        let mut p = PeripheralSlave::new(0);
        assert_eq!(bus_read(&mut p, REG_DATA), 0);
    }

    #[test]
    fn snapshot_roundtrip_preserves_timer_state() {
        let mut p = PeripheralSlave::new(2);
        bus_write(&mut p, REG_TIMER_PERIOD, 50);
        bus_write(&mut p, REG_CTRL, 0b11);
        for _ in 0..17 {
            p.tick(&SlaveView::quiet());
        }
        let state = save_to_vec(&p);
        let mut copy = PeripheralSlave::new(2);
        restore_from_vec(&mut copy, &state).unwrap();
        assert_eq!(copy, p);
    }
}
