//! SoC blueprints: placements plus component factories.
//!
//! Splitting a bus per the paper requires the *same* SoC to exist three times:
//! once as a monolithic golden reference and once per verification domain. A
//! [`SocBlueprint`] stores component *factories* so each build gets fresh,
//! identical state, and a [`Placement`] mapping every component to its domain
//! (§4, Fig. 2: components keep their bus indices; only residency differs).

use crate::ahb_model::AhbDomainModel;
use predpkt_ahb::bus::{AhbBus, BusConfigError};
use predpkt_ahb::fabric::{Arbiter, Decoder, Fabric, Region};
use predpkt_ahb::record::{self, Port};
use predpkt_ahb::signals::{MasterId, SlaveId};
use predpkt_ahb::{AhbMaster, AhbSlave};
use predpkt_channel::Side;
use predpkt_predict::{PaperSuite, PredictorSuite};

/// Factory producing one bus master.
pub type MasterFactory = Box<dyn Fn() -> Box<dyn AhbMaster>>;
/// Factory producing one bus slave.
pub type SlaveFactory = Box<dyn Fn() -> Box<dyn AhbSlave>>;

/// Which domain hosts each component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// Domain per master index.
    pub masters: Vec<Side>,
    /// Domain per slave index.
    pub slaves: Vec<Side>,
}

impl Placement {
    /// Packed output width (words) of the components living on `side`: the
    /// width of their part of the cycle record, each component as wide as
    /// its bundle's declaration
    /// ([`MasterSignals`](predpkt_ahb::signals::MasterSignals) or
    /// [`SlaveSignals`](predpkt_ahb::signals::SlaveSignals)) packs it.
    pub fn local_width(&self, side: Side) -> usize {
        let here = |&d: &Side| d == side;
        record::width(record::chunks(
            self.masters.iter().map(here),
            self.slaves.iter().map(here),
        ))
    }

    /// `true` if at least one component lives on each side.
    pub fn is_split(&self) -> bool {
        let any = |side: Side| self.masters.contains(&side) || self.slaves.contains(&side);
        any(Side::Simulator) && any(Side::Accelerator)
    }

    /// Interleaves two per-domain local-output records into the golden trace
    /// layout (all masters ascending, then all slaves ascending — the
    /// [`pack_cycle_record`](predpkt_ahb::bus::pack_cycle_record) encoding).
    ///
    /// # Panics
    ///
    /// Panics if the record widths disagree with the placement.
    pub fn merge_records(&self, sim: &[u64], acc: &[u64]) -> Vec<u64> {
        let mut out = Vec::with_capacity(sim.len() + acc.len());
        let (mut sim, mut acc) = (sim, acc);
        for chunk in record::every(self.masters.len(), self.slaves.len()) {
            let side = match chunk.port {
                Port::Master(i) => self.masters[i],
                Port::Slave(j) => self.slaves[j],
            };
            let src = match side {
                Side::Simulator => &mut sim,
                Side::Accelerator => &mut acc,
            };
            let (run, rest) = src.split_at(chunk.port.width());
            out.extend_from_slice(run);
            *src = rest;
        }
        assert!(sim.is_empty() && acc.is_empty(), "record width mismatch");
        out
    }
}

/// A reproducible SoC description: factories, address map, placements.
///
/// See the crate-level example.
#[derive(Default)]
pub struct SocBlueprint {
    masters: Vec<(MasterFactory, Side)>,
    slaves: Vec<(SlaveFactory, u32, u32, Side)>,
    default_master: usize,
}

impl SocBlueprint {
    /// Creates an empty blueprint.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a master on `side` (priority = insertion order).
    pub fn master(
        mut self,
        side: Side,
        factory: impl Fn() -> Box<dyn AhbMaster> + 'static,
    ) -> Self {
        self.masters.push((Box::new(factory), side));
        self
    }

    /// Adds a slave on `side`, mapped at `[base, base+size)`.
    pub fn slave(
        mut self,
        side: Side,
        base: u32,
        size: u32,
        factory: impl Fn() -> Box<dyn AhbSlave> + 'static,
    ) -> Self {
        self.slaves.push((Box::new(factory), base, size, side));
        self
    }

    /// Selects the default master (index into insertion order).
    pub fn default_master(mut self, index: usize) -> Self {
        self.default_master = index;
        self
    }

    /// The placement table.
    pub fn placement(&self) -> Placement {
        Placement {
            masters: self.masters.iter().map(|(_, d)| *d).collect(),
            slaves: self.slaves.iter().map(|(_, _, _, d)| *d).collect(),
        }
    }

    /// Number of masters.
    pub fn num_masters(&self) -> usize {
        self.masters.len()
    }

    /// Number of slaves.
    pub fn num_slaves(&self) -> usize {
        self.slaves.len()
    }

    fn regions(&self) -> Vec<Region> {
        self.slaves
            .iter()
            .enumerate()
            .map(|(j, (_, base, size, _))| Region {
                base: *base,
                size: *size,
                slave: SlaveId(j),
            })
            .collect()
    }

    fn fresh_fabric(&self) -> Result<Fabric, BusConfigError> {
        // The golden bus refuses these too; a domain would panic on them.
        for count in [self.masters.len(), self.slaves.len()] {
            if count > 16 {
                return Err(BusConfigError::TooManyComponents { count });
            }
        }
        let decoder = Decoder::new(self.regions())?;
        let arbiter = Arbiter::new(self.masters.len().max(1), MasterId(self.default_master));
        Ok(Fabric::new(arbiter, decoder))
    }

    /// Builds the monolithic golden bus (protocol checker enabled).
    ///
    /// # Errors
    ///
    /// Propagates [`BusConfigError`] from the bus builder.
    pub fn build_golden(&self) -> Result<AhbBus, BusConfigError> {
        let mut b = AhbBus::builder()
            .default_master(self.default_master)
            .check_protocol();
        for (f, _) in &self.masters {
            b = b.master_boxed(f());
        }
        for (f, base, size, _) in &self.slaves {
            b = b.slave_boxed(f(), *base, *size);
        }
        b.build()
    }

    /// Builds one verification domain, taking remote-component predictors from
    /// `suite`.
    ///
    /// # Errors
    ///
    /// Propagates [`BusConfigError`] for broken address maps.
    pub fn build_domain_with(
        &self,
        side: Side,
        suite: &dyn PredictorSuite,
    ) -> Result<AhbDomainModel, BusConfigError> {
        let placement = self.placement();
        let masters = self
            .masters
            .iter()
            .map(|(f, d)| (*d == side).then(f))
            .collect();
        let slaves = self
            .slaves
            .iter()
            .map(|(f, _, _, d)| (*d == side).then(f))
            .collect();
        Ok(AhbDomainModel::new(
            side,
            placement,
            masters,
            slaves,
            self.fresh_fabric()?,
            suite,
        ))
    }

    /// Builds both domains with the paper's predictor wiring.
    ///
    /// # Errors
    ///
    /// Propagates [`BusConfigError`].
    pub fn build_pair(&self) -> Result<(AhbDomainModel, AhbDomainModel), BusConfigError> {
        self.build_pair_with(&PaperSuite)
    }

    /// Builds both domains, taking predictors from `suite`.
    ///
    /// # Errors
    ///
    /// Propagates [`BusConfigError`].
    pub fn build_pair_with(
        &self,
        suite: &dyn PredictorSuite,
    ) -> Result<(AhbDomainModel, AhbDomainModel), BusConfigError> {
        Ok((
            self.build_domain_with(Side::Simulator, suite)?,
            self.build_domain_with(Side::Accelerator, suite)?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DomainModel;
    use predpkt_ahb::engine::BusOp;
    use predpkt_ahb::masters::TrafficGenMaster;
    use predpkt_ahb::slaves::MemorySlave;

    fn blueprint() -> SocBlueprint {
        SocBlueprint::new()
            .master(Side::Accelerator, || {
                Box::new(TrafficGenMaster::from_ops(vec![BusOp::write_single(
                    0x0, 1,
                )]))
            })
            .master(Side::Simulator, || {
                Box::new(TrafficGenMaster::from_ops(vec![BusOp::read_single(0x4)]))
            })
            .slave(Side::Simulator, 0x0, 0x1000, || {
                Box::new(MemorySlave::new(0x1000, 0))
            })
            .slave(Side::Accelerator, 0x1000, 0x1000, || {
                Box::new(MemorySlave::new(0x1000, 1))
            })
    }

    #[test]
    fn placement_widths() {
        let p = blueprint().placement();
        assert_eq!(p.local_width(Side::Simulator), 3 + 2);
        assert_eq!(p.local_width(Side::Accelerator), 3 + 2);
        assert!(p.is_split());
    }

    #[test]
    fn domains_mirror_widths() {
        let (sim, acc) = blueprint().build_pair().unwrap();
        assert_eq!(sim.local_width(), acc.remote_width());
        assert_eq!(acc.local_width(), sim.remote_width());
        assert_eq!(sim.side(), Side::Simulator);
        assert_eq!(acc.side(), Side::Accelerator);
    }

    #[test]
    fn golden_builds() {
        let bus = blueprint().build_golden().unwrap();
        assert_eq!(bus.num_masters(), 2);
        assert_eq!(bus.num_slaves(), 2);
    }

    #[test]
    fn unsplit_placement_detected() {
        let p = Placement {
            masters: vec![Side::Simulator],
            slaves: vec![Side::Simulator],
        };
        assert!(!p.is_split());
    }

    #[test]
    fn oversized_blueprints_are_refused_for_domains_as_for_the_golden_bus() {
        let mut wide = blueprint();
        for j in 2..17u32 {
            wide = wide.slave(Side::Accelerator, j * 0x1000, 0x1000, || {
                Box::new(MemorySlave::new(0x1000, 0))
            });
        }
        let too_many = BusConfigError::TooManyComponents { count: 17 };
        assert_eq!(wide.build_golden().err(), Some(too_many.clone()));
        assert_eq!(wide.build_pair().err(), Some(too_many));
    }
}
