//! The monolithic golden bus.
//!
//! [`AhbBus`] owns every master, slave and the fabric and evaluates them in
//! lockstep — the single-domain reference against which the split co-emulation
//! of `predpkt-core` must be bit-identical. Each [`tick`](AhbBus::tick) records
//! the full MSABS signal vector into a [`Trace`], so equivalence is a trace
//! comparison.

use crate::checker::{ProtocolChecker, Violation};
use crate::fabric::{Arbiter, CycleView, DecodeMapError, Decoder, Fabric, Region};
use crate::record;
use crate::signals::{MasterId, MasterSignals, SlaveId, SlaveSignals};
use crate::{AhbMaster, AhbSlave};
use predpkt_sim::{declare_state, Each, Trace};
use std::fmt;

/// Packs one cycle's canonical trace record into `out`, replacing its
/// contents: every master's packed signals, then every slave's.
///
/// Both the golden bus and the split co-emulation use this encoding, so traces
/// compare directly.
fn pack_cycle_words(masters: &[MasterSignals], slaves: &[SlaveSignals], out: &mut Vec<u32>) {
    out.clear();
    for chunk in record::every(masters.len(), slaves.len()) {
        out.resize(chunk.words().end, 0);
        chunk.port.pack(masters, slaves, &mut out[chunk.words()]);
    }
}

/// Packs one cycle's Moore outputs into a canonical trace record (the owned
/// form of what [`AhbBus::tick`] records).
pub fn pack_cycle_record(masters: &[MasterSignals], slaves: &[SlaveSignals]) -> Vec<u64> {
    let mut words = Vec::new();
    pack_cycle_words(masters, slaves, &mut words);
    words.into_iter().map(u64::from).collect()
}

/// Bus construction failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BusConfigError {
    /// No master was added.
    NoMasters,
    /// More than 16 masters or slaves (HSPLIT/IRQ vectors are 16 bits).
    TooManyComponents {
        /// The offending count.
        count: usize,
    },
    /// Address-map problem.
    AddressMap(DecodeMapError),
    /// The default master index is out of range.
    BadDefaultMaster {
        /// The requested index.
        index: usize,
    },
}

impl fmt::Display for BusConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusConfigError::NoMasters => write!(f, "bus needs at least one master"),
            BusConfigError::TooManyComponents { count } => {
                write!(f, "at most 16 masters and 16 slaves supported, got {count}")
            }
            BusConfigError::AddressMap(e) => write!(f, "address map: {e}"),
            BusConfigError::BadDefaultMaster { index } => {
                write!(f, "default master {index} out of range")
            }
        }
    }
}

impl std::error::Error for BusConfigError {}

impl From<DecodeMapError> for BusConfigError {
    fn from(e: DecodeMapError) -> Self {
        BusConfigError::AddressMap(e)
    }
}

/// Builder for [`AhbBus`].
#[derive(Default)]
pub struct AhbBusBuilder {
    masters: Vec<Box<dyn AhbMaster>>,
    slaves: Vec<Box<dyn AhbSlave>>,
    regions: Vec<Region>,
    default_master: usize,
    check_protocol: bool,
}

impl AhbBusBuilder {
    /// Adds a master; priority follows insertion order (first = highest).
    pub fn master(self, m: impl AhbMaster + 'static) -> Self {
        self.master_boxed(Box::new(m))
    }

    /// Adds an already-boxed master (factory-driven construction).
    pub fn master_boxed(mut self, m: Box<dyn AhbMaster>) -> Self {
        self.masters.push(m);
        self
    }

    /// Adds a slave mapped at `[base, base+size)`.
    pub fn slave(self, s: impl AhbSlave + 'static, base: u32, size: u32) -> Self {
        self.slave_boxed(Box::new(s), base, size)
    }

    /// Adds an already-boxed slave (factory-driven construction).
    pub fn slave_boxed(mut self, s: Box<dyn AhbSlave>, base: u32, size: u32) -> Self {
        let id = SlaveId(self.slaves.len());
        self.slaves.push(s);
        self.regions.push(Region {
            base,
            size,
            slave: id,
        });
        self
    }

    /// Selects the default master (granted when nobody requests); defaults to 0.
    pub fn default_master(mut self, index: usize) -> Self {
        self.default_master = index;
        self
    }

    /// Enables the protocol checker (violations collected per cycle).
    pub fn check_protocol(mut self) -> Self {
        self.check_protocol = true;
        self
    }

    /// Builds the bus.
    ///
    /// # Errors
    ///
    /// Returns a [`BusConfigError`] for an empty master list, too many
    /// components, a broken address map, or an out-of-range default master.
    pub fn build(self) -> Result<AhbBus, BusConfigError> {
        if self.masters.is_empty() {
            return Err(BusConfigError::NoMasters);
        }
        if self.masters.len() > 16 {
            return Err(BusConfigError::TooManyComponents {
                count: self.masters.len(),
            });
        }
        if self.slaves.len() > 16 {
            return Err(BusConfigError::TooManyComponents {
                count: self.slaves.len(),
            });
        }
        if self.default_master >= self.masters.len() {
            return Err(BusConfigError::BadDefaultMaster {
                index: self.default_master,
            });
        }
        let decoder = Decoder::new(self.regions)?;
        let arbiter = Arbiter::new(self.masters.len(), MasterId(self.default_master));
        Ok(AhbBus {
            m_out: Vec::with_capacity(self.masters.len()),
            s_out: Vec::with_capacity(self.slaves.len()),
            record: Vec::new(),
            masters: self.masters,
            slaves: self.slaves,
            fabric: Fabric::new(arbiter, decoder),
            trace: Trace::new(),
            checker: self.check_protocol.then(ProtocolChecker::new),
            cycle: 0,
        })
    }
}

/// A complete single-domain AHB system evaluated cycle by cycle.
///
/// # Example
///
/// ```
/// use predpkt_ahb::bus::AhbBus;
/// use predpkt_ahb::engine::BusOp;
/// use predpkt_ahb::masters::TrafficGenMaster;
/// use predpkt_ahb::slaves::MemorySlave;
///
/// let mut bus = AhbBus::builder()
///     .master(TrafficGenMaster::from_ops(vec![BusOp::write_single(0x40, 7)]))
///     .slave(MemorySlave::new(0x1000, 0), 0x0, 0x1000)
///     .build()?;
/// bus.run(16);
/// let mem: &MemorySlave = bus.slave_as(predpkt_ahb::SlaveId(0)).unwrap();
/// assert_eq!(mem.peek_word(0x40), 7);
/// # Ok::<(), predpkt_ahb::BusConfigError>(())
/// ```
pub struct AhbBus {
    masters: Vec<Box<dyn AhbMaster>>,
    slaves: Vec<Box<dyn AhbSlave>>,
    /// Every master's Moore outputs for the cycle being evaluated, refilled
    /// in place by `tick`. Scratch, not state.
    m_out: Vec<MasterSignals>,
    /// Every slave's Moore outputs, as `m_out`.
    s_out: Vec<SlaveSignals>,
    /// The cycle's packed trace record, as `m_out`.
    record: Vec<u32>,
    fabric: Fabric,
    trace: Trace,
    checker: Option<ProtocolChecker>,
    cycle: u64,
}

impl AhbBus {
    /// Starts building a bus.
    pub fn builder() -> AhbBusBuilder {
        AhbBusBuilder::default()
    }

    /// Evaluates one clock cycle, returning the derived view.
    pub fn tick(&mut self) -> CycleView {
        self.m_out.clear();
        self.m_out.extend(self.masters.iter().map(|m| m.outputs()));
        self.s_out.clear();
        self.s_out.extend(self.slaves.iter().map(|s| s.outputs()));
        let (m_out, s_out) = (&self.m_out, &self.s_out);
        let view = self.fabric.view(m_out, s_out);

        if let Some(checker) = &mut self.checker {
            checker.check(self.cycle, &view, m_out, s_out);
        }
        pack_cycle_words(m_out, s_out, &mut self.record);
        self.trace
            .record_words(self.record.iter().map(|&w| u64::from(w)));

        for (i, m) in self.masters.iter_mut().enumerate() {
            m.tick(&self.fabric.master_view(&view, MasterId(i)));
        }
        for (j, s) in self.slaves.iter_mut().enumerate() {
            s.tick(&self.fabric.slave_view(&view, SlaveId(j)));
        }
        self.fabric.tick(&view, m_out, s_out);
        self.cycle += 1;
        view
    }

    /// Runs `cycles` clock cycles.
    pub fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.tick();
        }
    }

    /// Runs until every master reports [`done`](AhbMaster::done) and the bus is
    /// quiescent, or `max_cycles` elapse. Returns the cycles consumed.
    pub fn run_until_done(&mut self, max_cycles: u64) -> u64 {
        let start = self.cycle;
        while self.cycle - start < max_cycles {
            if self.masters.iter().all(|m| m.done()) && self.fabric.data_phase().is_none() {
                break;
            }
            self.tick();
        }
        self.cycle - start
    }

    /// The current cycle number.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The recorded trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The fabric (arbiter/decoder/data-phase inspection).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Protocol violations collected so far (empty without
    /// [`check_protocol`](AhbBusBuilder::check_protocol)).
    pub fn violations(&self) -> &[Violation] {
        self.checker.as_ref().map_or(&[], |c| c.violations())
    }

    /// Number of masters.
    pub fn num_masters(&self) -> usize {
        self.masters.len()
    }

    /// Number of slaves.
    pub fn num_slaves(&self) -> usize {
        self.slaves.len()
    }

    /// Downcasts a master to its concrete type.
    pub fn master_as<T: AhbMaster>(&self, id: MasterId) -> Option<&T> {
        self.masters.get(id.0)?.as_any().downcast_ref::<T>()
    }

    /// Downcasts a slave to its concrete type.
    pub fn slave_as<T: AhbSlave>(&self, id: SlaveId) -> Option<&T> {
        self.slaves.get(id.0)?.as_any().downcast_ref::<T>()
    }
}

declare_state! {
    impl AhbBus {
        fabric,
        cycle,
        masters: Each,
        slaves: Each,
    }
}

impl fmt::Debug for AhbBus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AhbBus")
            .field("masters", &self.masters.len())
            .field("slaves", &self.slaves.len())
            .field("cycle", &self.cycle)
            .field("trace_len", &self.trace.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::BusOp;
    use crate::masters::{CpuMaster, CpuProfile, DmaDescriptor, DmaMaster, TrafficGenMaster};
    use crate::signals::{Hburst, Hsize};
    use crate::slaves::{FifoSlave, MemorySlave, PeripheralSlave, SplitSlave};

    fn two_slave_bus(master: impl AhbMaster + 'static) -> AhbBus {
        AhbBus::builder()
            .master(master)
            .slave(MemorySlave::new(0x1000, 0), 0x0000, 0x1000)
            .slave(MemorySlave::with_waits(0x1000, 2, 1), 0x1000, 0x1000)
            .check_protocol()
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validation() {
        assert!(matches!(
            AhbBus::builder().build(),
            Err(BusConfigError::NoMasters)
        ));
        let err = AhbBus::builder()
            .master(TrafficGenMaster::from_ops(vec![]))
            .default_master(5)
            .build();
        assert!(matches!(
            err,
            Err(BusConfigError::BadDefaultMaster { index: 5 })
        ));
        let err = AhbBus::builder()
            .master(TrafficGenMaster::from_ops(vec![]))
            .slave(MemorySlave::new(0x100, 0), 0x0, 0x100)
            .slave(MemorySlave::new(0x100, 0), 0x80, 0x100)
            .build();
        assert!(matches!(err, Err(BusConfigError::AddressMap(_))));
    }

    #[test]
    fn write_then_read_roundtrip_through_bus() {
        let gen = TrafficGenMaster::from_ops(vec![
            BusOp::write_single(0x20, 0xfeed_f00d),
            BusOp::read_single(0x20),
        ]);
        let mut bus = two_slave_bus(gen);
        let used = bus.run_until_done(200);
        assert!(used < 200, "finished in {used} cycles");
        let gen: &TrafficGenMaster = bus.master_as(MasterId(0)).unwrap();
        assert_eq!(gen.results().len(), 2);
        assert_eq!(gen.results()[1].rdata, vec![0xfeed_f00d]);
        assert!(bus.violations().is_empty(), "{:?}", bus.violations());
    }

    #[test]
    fn burst_write_lands_in_memory() {
        let gen = TrafficGenMaster::from_ops(vec![BusOp::write_burst(
            0x100,
            Hsize::Word,
            Hburst::Incr8,
            (0..8).collect(),
        )]);
        let mut bus = two_slave_bus(gen);
        bus.run_until_done(200);
        let mem: &MemorySlave = bus.slave_as(SlaveId(0)).unwrap();
        for i in 0..8u32 {
            assert_eq!(mem.peek_word(0x100 + 4 * i), i);
        }
        assert!(bus.violations().is_empty(), "{:?}", bus.violations());
    }

    #[test]
    fn wrap_burst_reads_container() {
        let gen =
            TrafficGenMaster::from_ops(vec![BusOp::read_burst(0x38, Hsize::Word, Hburst::Wrap4)]);
        let mut bus = AhbBus::builder()
            .master(gen)
            .slave(
                {
                    let mut m = MemorySlave::new(0x100, 0);
                    for i in 0..16 {
                        m.poke_word(0x30 + 4 * i, 0x1000 + i);
                    }
                    m
                },
                0x0,
                0x100,
            )
            .check_protocol()
            .build()
            .unwrap();
        bus.run_until_done(100);
        let gen: &TrafficGenMaster = bus.master_as(MasterId(0)).unwrap();
        assert_eq!(gen.results()[0].rdata, vec![0x1002, 0x1003, 0x1000, 0x1001]);
        assert!(bus.violations().is_empty(), "{:?}", bus.violations());
    }

    #[test]
    fn wait_state_slave_slows_but_completes() {
        let gen = TrafficGenMaster::from_ops(vec![
            BusOp::write_single(0x1000, 1), // slave 1: 2 first waits
            BusOp::read_single(0x1000),
        ]);
        let mut bus = two_slave_bus(gen);
        let cycles = bus.run_until_done(200);
        assert!(cycles > 8, "wait states cost cycles");
        let gen: &TrafficGenMaster = bus.master_as(MasterId(0)).unwrap();
        assert_eq!(gen.results()[1].rdata, vec![1]);
        assert!(bus.violations().is_empty(), "{:?}", bus.violations());
    }

    #[test]
    fn unmapped_access_errors() {
        let gen = TrafficGenMaster::from_ops(vec![BusOp::write_single(0x8000_0000, 1)]);
        let mut bus = two_slave_bus(gen);
        bus.run_until_done(100);
        let gen: &TrafficGenMaster = bus.master_as(MasterId(0)).unwrap();
        assert!(gen.results()[0].error, "default slave errors");
        assert!(bus.violations().is_empty(), "{:?}", bus.violations());
    }

    #[test]
    fn two_masters_arbitrate_by_priority() {
        let fast = TrafficGenMaster::from_ops(vec![BusOp::write_burst(
            0x0,
            Hsize::Word,
            Hburst::Incr4,
            vec![1, 2, 3, 4],
        )]);
        let slow = TrafficGenMaster::from_ops(vec![BusOp::write_burst(
            0x100,
            Hsize::Word,
            Hburst::Incr4,
            vec![5, 6, 7, 8],
        )]);
        let mut bus = AhbBus::builder()
            .master(fast)
            .master(slow)
            .slave(MemorySlave::new(0x1000, 0), 0x0, 0x1000)
            .check_protocol()
            .build()
            .unwrap();
        bus.run_until_done(300);
        let mem: &MemorySlave = bus.slave_as(SlaveId(0)).unwrap();
        assert_eq!(mem.peek_word(0x0), 1);
        assert_eq!(mem.peek_word(0x100), 5);
        assert!(bus.violations().is_empty(), "{:?}", bus.violations());
    }

    #[test]
    fn dma_copies_between_slaves() {
        let dma = DmaMaster::new(vec![DmaDescriptor::new(0x0, 0x1000, 24)]);
        let mut bus = AhbBus::builder()
            .master(dma)
            .slave(
                {
                    let mut m = MemorySlave::new(0x1000, 0);
                    for i in 0..24 {
                        m.poke_word(4 * i, 0xa000 + i);
                    }
                    m
                },
                0x0,
                0x1000,
            )
            .slave(MemorySlave::with_waits(0x1000, 1, 0), 0x1000, 0x1000)
            .check_protocol()
            .build()
            .unwrap();
        let cycles = bus.run_until_done(1000);
        assert!(cycles < 1000);
        let dst: &MemorySlave = bus.slave_as(SlaveId(1)).unwrap();
        for i in 0..24u32 {
            assert_eq!(dst.peek_word(4 * i), 0xa000 + i, "word {i}");
        }
        assert!(bus.violations().is_empty(), "{:?}", bus.violations());
    }

    #[test]
    fn split_slave_full_protocol_on_bus() {
        let gen = TrafficGenMaster::from_ops(vec![
            BusOp::write_single(0x2000, 0x77),
            BusOp::read_single(0x2000),
        ]);
        let mut bus = AhbBus::builder()
            .master(gen)
            // A second master keeps the bus busy while master 0 is split.
            .master(TrafficGenMaster::from_ops(vec![BusOp::write_single(0x0, 9)]).looping())
            .slave(MemorySlave::new(0x1000, 0), 0x0, 0x1000)
            .slave(SplitSlave::new(0x100, 6), 0x2000, 0x100)
            .check_protocol()
            .build()
            .unwrap();
        bus.run(400);
        let gen: &TrafficGenMaster = bus.master_as(MasterId(0)).unwrap();
        assert_eq!(
            gen.results().len(),
            2,
            "split transfers eventually complete"
        );
        assert!(!gen.results()[0].error);
        assert_eq!(gen.results()[1].rdata, vec![0x77]);
        let split: &SplitSlave = bus.slave_as(SlaveId(1)).unwrap();
        assert!(split.splits_issued() >= 2);
        assert!(bus.violations().is_empty(), "{:?}", bus.violations());
    }

    #[test]
    fn mixed_soc_runs_clean_under_checker() {
        // The paper's Figure 2 shape: 3 masters, 3 slaves.
        let cpu = CpuMaster::new(42, CpuProfile::default());
        let dma = DmaMaster::new(vec![DmaDescriptor::new(0x0, 0x1100, 40)]);
        let gen =
            TrafficGenMaster::from_ops(vec![BusOp::read_burst(0x2000, Hsize::Word, Hburst::Wrap8)])
                .looping()
                .with_idle_gap(7);
        let mut bus = AhbBus::builder()
            .master(cpu)
            .master(dma)
            .master(gen)
            .slave(MemorySlave::new(0x2000, 0), 0x0, 0x2000)
            .slave(MemorySlave::with_waits(0x1000, 2, 1), 0x2000, 0x1000)
            .slave(FifoSlave::new(8, 3, 2), 0x3000, 0x100)
            .check_protocol()
            .build()
            .unwrap();
        bus.run(2000);
        assert!(bus.violations().is_empty(), "{:?}", bus.violations());
    }

    #[test]
    fn peripheral_irq_visible_on_bus() {
        let gen = TrafficGenMaster::from_ops(vec![
            BusOp::write_single(0x1008, 16),   // period
            BusOp::write_single(0x1000, 0b11), // enable
        ]);
        let mut bus = AhbBus::builder()
            .master(gen)
            .slave(MemorySlave::new(0x1000, 0), 0x0, 0x1000)
            .slave(PeripheralSlave::new(0), 0x1000, 0x100)
            .build()
            .unwrap();
        let mut irq_seen = false;
        for _ in 0..100 {
            let view = bus.tick();
            if view.irq & 0b10 != 0 {
                irq_seen = true;
                break;
            }
        }
        assert!(irq_seen, "timer IRQ reached the bus view");
    }

    #[test]
    fn snapshot_roundtrip_replays_identically() {
        let cpu = CpuMaster::new(1234, CpuProfile::default());
        let mut bus = AhbBus::builder()
            .master(cpu)
            .slave(MemorySlave::new(0x2000, 1), 0x0, 0x2000)
            .build()
            .unwrap();
        bus.run(100);
        let state = predpkt_sim::save_to_vec(&bus);
        let hash_at_snap = bus.trace().hash();

        // Continue the original 50 cycles.
        bus.run(50);
        let final_hash = bus.trace().hash();

        // Restore a fresh copy and replay the same 50 cycles.
        let mut copy = AhbBus::builder()
            .master(CpuMaster::new(1234, CpuProfile::default()))
            .slave(MemorySlave::new(0x2000, 1), 0x0, 0x2000)
            .build()
            .unwrap();
        predpkt_sim::restore_from_vec(&mut copy, &state).unwrap();
        assert_eq!(copy.cycle(), 100);
        copy.run(50);
        // Compare the last 50 records of both traces.
        let a: Vec<_> = bus.trace().iter().skip(100).collect();
        let b: Vec<_> = copy.trace().iter().collect();
        assert_eq!(a, b, "restored bus replays bit-identically");
        assert_ne!(hash_at_snap, final_hash);
    }

    #[test]
    fn busy_stimulus_passes_checker() {
        let gen = TrafficGenMaster::from_ops(vec![BusOp::write_burst(
            0x0,
            Hsize::Word,
            Hburst::Incr4,
            vec![1, 2, 3, 4],
        )])
        .with_busy_beats(2);
        let mut bus = two_slave_bus(gen);
        bus.run_until_done(200);
        let mem: &MemorySlave = bus.slave_as(SlaveId(0)).unwrap();
        assert_eq!(mem.peek_word(0xc), 4);
        assert!(bus.violations().is_empty(), "{:?}", bus.violations());
    }
}
