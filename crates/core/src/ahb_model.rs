//! The AHB half-bus domain model (HBMS / HBMA with channel-wrapper mimicry).
//!
//! An [`AhbDomainModel`] holds the components placed in its domain, a full
//! replica of the bus fabric (arbiter + decoder — the paper removes their
//! outputs from the exchanged signal set because both replicas deduce them from
//! the same inputs), and *proxy slots* for the remote components carrying the
//! most recent exchanged or predicted signal values.
//!
//! ## The MSABS active projection
//!
//! Prediction checking compares signal vectors only in positions that can
//! influence the leader domain's state (the paper's *minimal set of active bus
//! signals*, §3): arbitration requests always; address/control only for the
//! granted master; write data only when it crosses into the leader domain; read
//! data only when a leader-side master consumes it; the data-phase slave's
//! ready/response; HSPLIT and IRQ always. Inactive positions are free — a
//! mispredicted idle address bus costs nothing.
//!
//! ## Latched outputs
//!
//! Every component is a Moore machine, so its outputs for the upcoming cycle
//! are fixed from the clock edge that ended the last one. The model keeps one
//! pair of full signal vectors — a local slot holds its component's outputs, a
//! remote slot the proxy value — and the local slots' packed words, refreshed
//! by one `latch()` at the places component state changes: the end of
//! [`AhbDomainModel::new`], of [`tick`](DomainModel::tick) and of a successful
//! [`restore`](Snapshot::restore) or [`rewind`](Snapshot::rewind). Nothing
//! else can mutate a component ([`master_as`](AhbDomainModel::master_as) and
//! [`slave_as`](AhbDomainModel::slave_as) lend `&T`, and the component traits
//! have no mutable upcast), so between edges `local_outputs_into`, the trace
//! record, `verify_prediction` and `tick` read the slots and dispatch nothing:
//! `outputs()` runs once per component per cycle. A debug build checks the
//! slots against a fresh `outputs()` at the top of every `tick`.
//!
//! The latched values are derived state and are never part of a snapshot:
//! `save` writes the idle value for every local slot (where the proxy vectors
//! of earlier versions always held idle) and the proxy for every remote slot,
//! so the rollback-variable count and every checkpoint byte are unchanged.

use crate::blueprint::Placement;
use crate::model::{DomainModel, TickKind};
use predpkt_ahb::fabric::{CycleView, Fabric};
use predpkt_ahb::signals::{MasterId, MasterSignals, SlaveId, SlaveSignals};
use predpkt_ahb::{AhbMaster, AhbSlave};
use predpkt_channel::Side;
use predpkt_predict::{MasterPredictor, PredictorSuite, SlavePredictor};
use predpkt_sim::{Snapshot, SnapshotError, StateReader, StateWriter, Trace, TraceMark};

/// One verification domain of a split AHB SoC. See the module docs.
pub struct AhbDomainModel {
    side: Side,
    placement: Placement,
    masters: Vec<Option<Box<dyn AhbMaster>>>,
    slaves: Vec<Option<Box<dyn AhbSlave>>>,
    fabric: Fabric,
    /// The upcoming cycle's full master vector in the leading `masters.len()`
    /// slots: the latched outputs of a local master, the proxy value (last
    /// exchanged or predicted) of a remote one. See "Latched outputs".
    full_m: [MasterSignals; MAX_COMPONENTS],
    /// The full slave vector, as `full_m`.
    full_s: [SlaveSignals; MAX_COMPONENTS],
    /// The local slots packed in canonical order (masters ascending, then
    /// slaves): the cycle's LOB words and its trace record.
    packed: Vec<u32>,
    /// Width of the peer's packed outputs.
    remote_width: usize,
    m_pred: Vec<Option<Box<dyn MasterPredictor>>>,
    s_pred: Vec<Option<Box<dyn SlavePredictor>>>,
    trace: Trace,
    cycle: u64,
}

/// The bus carries at most this many masters and this many slaves (HSPLIT
/// and the IRQ vector are 16 bits), so one cycle's full signal vectors fit
/// two fixed arrays.
const MAX_COMPONENTS: usize = 16;

/// Splits the first `N` words off `words`.
fn take_chunk<const N: usize>(words: &mut &[u32]) -> Option<[u32; N]> {
    let chunk = words.get(..N)?.try_into().ok()?;
    *words = &words[N..];
    Some(chunk)
}

/// Walks a peer's packed outputs (`words`: its masters ascending, then its
/// slaves), handing each component's chunk and bus index to `master` /
/// `slave`, which say whether the chunk was well formed. Returns whether
/// every chunk was and `words` had exactly the peer's width.
fn walk_remote(
    placement: &Placement,
    side: Side,
    words: &[u32],
    mut master: impl FnMut(usize, &[u32; 3]) -> bool,
    mut slave: impl FnMut(usize, &[u32; 2]) -> bool,
) -> bool {
    let mut ok = true;
    let mut rest = words;
    for (i, &domain) in placement.masters.iter().enumerate() {
        if domain == side {
            continue;
        }
        let Some(chunk) = take_chunk::<3>(&mut rest) else {
            return false;
        };
        ok &= master(i, &chunk);
    }
    for (j, &domain) in placement.slaves.iter().enumerate() {
        if domain == side {
            continue;
        }
        let Some(chunk) = take_chunk::<2>(&mut rest) else {
            return false;
        };
        ok &= slave(j, &chunk);
    }
    ok && rest.is_empty()
}

/// Unpacks a peer's packed outputs over the slots of `m` and `s` that
/// `placement` puts on the peer's side. A malformed chunk leaves its slot as
/// it was; returns what [`walk_remote`] returns.
fn unpack_remote(
    placement: &Placement,
    side: Side,
    words: &[u32],
    m: &mut [MasterSignals],
    s: &mut [SlaveSignals],
) -> bool {
    walk_remote(
        placement,
        side,
        words,
        |i, chunk| MasterSignals::unpack(chunk).map(|sig| m[i] = sig).is_some(),
        |j, chunk| SlaveSignals::unpack(chunk).map(|sig| s[j] = sig).is_some(),
    )
}

impl AhbDomainModel {
    /// Assembles a domain. Component slots must be `Some` exactly where
    /// `placement` assigns this `side`; predictors for the remote slots are
    /// requested from `suite`.
    ///
    /// # Panics
    ///
    /// Panics if a slot contradicts the placement.
    pub(crate) fn new(
        side: Side,
        placement: Placement,
        masters: Vec<Option<Box<dyn AhbMaster>>>,
        slaves: Vec<Option<Box<dyn AhbSlave>>>,
        fabric: Fabric,
        suite: &dyn PredictorSuite,
    ) -> Self {
        assert_eq!(masters.len(), placement.masters.len());
        assert_eq!(slaves.len(), placement.slaves.len());
        assert!(
            masters.len() <= MAX_COMPONENTS && slaves.len() <= MAX_COMPONENTS,
            "at most {MAX_COMPONENTS} masters and {MAX_COMPONENTS} slaves"
        );
        for (i, m) in masters.iter().enumerate() {
            assert_eq!(
                m.is_some(),
                placement.masters[i] == side,
                "master {i} placement mismatch"
            );
        }
        for (j, s) in slaves.iter().enumerate() {
            assert_eq!(
                s.is_some(),
                placement.slaves[j] == side,
                "slave {j} placement mismatch"
            );
        }
        let m_pred = placement
            .masters
            .iter()
            .enumerate()
            .map(|(i, &d)| (d != side).then(|| suite.master_predictor(i)))
            .collect();
        let s_pred = placement
            .slaves
            .iter()
            .enumerate()
            .map(|(j, &d)| (d != side).then(|| suite.slave_predictor(j)))
            .collect();
        let mut model = AhbDomainModel {
            side,
            full_m: [MasterSignals::idle(); MAX_COMPONENTS],
            full_s: [SlaveSignals::idle(); MAX_COMPONENTS],
            packed: Vec::with_capacity(placement.local_width(side)),
            remote_width: placement.local_width(side.peer()),
            masters,
            slaves,
            placement,
            fabric,
            m_pred,
            s_pred,
            trace: Trace::new(),
            cycle: 0,
        };
        model.latch();
        model
    }

    /// Latches every local component's Moore outputs for the upcoming cycle
    /// into its slot and repacks them. Runs wherever component state can have
    /// changed (see "Latched outputs" in the module docs) and nowhere else.
    fn latch(&mut self) {
        self.packed.clear();
        for (slot, c) in self.full_m.iter_mut().zip(&self.masters) {
            if let Some(c) = c {
                *slot = c.outputs();
                self.packed.extend_from_slice(&slot.pack());
            }
        }
        for (slot, c) in self.full_s.iter_mut().zip(&self.slaves) {
            if let Some(c) = c {
                *slot = c.outputs();
                self.packed.extend_from_slice(&slot.pack());
            }
        }
    }

    /// Whether every local slot and the packed words are what a fresh
    /// `outputs()` / `pack()` of the component would give — the invariant
    /// `latch` maintains, asked by `tick`'s debug assertion.
    fn latch_is_current(&self) -> bool {
        let mut rest = &self.packed[..];
        let masters = self.masters.iter().zip(&self.full_m).all(|(c, slot)| {
            c.as_ref().map_or(true, |c| {
                c.outputs() == *slot && take_chunk(&mut rest) == Some(slot.pack())
            })
        });
        let slaves = self.slaves.iter().zip(&self.full_s).all(|(c, slot)| {
            c.as_ref().map_or(true, |c| {
                c.outputs() == *slot && take_chunk(&mut rest) == Some(slot.pack())
            })
        });
        masters && slaves && rest.is_empty()
    }

    /// `true` where the MSABS active projections (see the module docs) of
    /// this domain's actual outputs — the local slots of `full_m` / `full_s`
    /// — and of `predicted`, a packed prediction of them, agree under `view`.
    /// Which positions are active depends on `view` alone, so the two
    /// projections are compared position by position and never built. A
    /// malformed prediction matches nothing.
    fn projection_matches(
        &self,
        full_m: &[MasterSignals],
        full_s: &[SlaveSignals],
        predicted: &[u32],
        view: &CycleView,
        leader: Side,
    ) -> bool {
        let mut rest = predicted;
        for (i, a) in full_m.iter().enumerate() {
            if self.placement.masters[i] != self.side {
                continue;
            }
            let Some(p) = take_chunk::<3>(&mut rest).and_then(|c| MasterSignals::unpack(&c)) else {
                return false;
            };
            // Arbitration requests: always active.
            if (a.busreq, a.lock) != (p.busreq, p.lock) {
                return false;
            }
            // Address/control: only for the granted master (HPROT travels as
            // four bits).
            if view.grant == MasterId(i)
                && (a.trans, a.addr, a.write, a.size, a.burst, a.prot & 0xf)
                    != (p.trans, p.addr, p.write, p.size, p.burst, p.prot)
            {
                return false;
            }
            // Write data: only when this master's write data phase must be
            // visible to the leader domain (slave local to the leader).
            let wdata_visible = matches!(&view.dp, Some(dp) if dp.write
                && dp.master == MasterId(i)
                && matches!(dp.slave, Some(s) if self.placement.slaves[s.0] == leader));
            if wdata_visible && a.wdata != p.wdata {
                return false;
            }
        }
        for (j, a) in full_s.iter().enumerate() {
            if self.placement.slaves[j] != self.side {
                continue;
            }
            let Some(p) = take_chunk::<2>(&mut rest).and_then(|c| SlaveSignals::unpack(&c)) else {
                return false;
            };
            // HSPLIT and IRQ: always active.
            if (a.split_unmask, a.irq) != (p.split_unmask, p.irq) {
                return false;
            }
            // Ready/response: only for the data-phase slave.
            if let Some(dp) = view.dp.as_ref().filter(|dp| dp.slave == Some(SlaveId(j))) {
                if (a.ready, a.resp) != (p.ready, p.resp) {
                    return false;
                }
                // Read data: only when a leader-side master consumes it.
                if !dp.write && self.placement.masters[dp.master.0] == leader && a.rdata != p.rdata
                {
                    return false;
                }
            }
        }
        true
    }

    /// Downcast access to a local master.
    pub fn master_as<T: AhbMaster>(&self, id: MasterId) -> Option<&T> {
        self.masters
            .get(id.0)?
            .as_ref()?
            .as_any()
            .downcast_ref::<T>()
    }

    /// Downcast access to a local slave.
    pub fn slave_as<T: AhbSlave>(&self, id: SlaveId) -> Option<&T> {
        self.slaves
            .get(id.0)?
            .as_ref()?
            .as_any()
            .downcast_ref::<T>()
    }

    /// The fabric replica (tests assert replica agreement).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }
}

impl DomainModel for AhbDomainModel {
    fn side(&self) -> Side {
        self.side
    }

    fn cycle(&self) -> u64 {
        self.cycle
    }

    fn local_width(&self) -> usize {
        self.packed.len()
    }

    fn remote_width(&self) -> usize {
        self.remote_width
    }

    fn local_outputs(&self) -> Vec<u32> {
        self.packed.clone()
    }

    /// Canonical order: masters ascending, then slaves ascending.
    fn local_outputs_into(&self, out: &mut Vec<u32>) {
        out.extend_from_slice(&self.packed);
    }

    fn needs_sync(&self) -> bool {
        // §3 data rule: the upcoming cycle needs inbound lagger→leader data.
        match self.fabric.data_phase() {
            Some(dp) if dp.write => {
                let master_remote = self.placement.masters[dp.master.0] != self.side;
                let slave_local =
                    matches!(dp.slave, Some(s) if self.placement.slaves[s.0] == self.side);
                master_remote && slave_local
            }
            Some(dp) => {
                let slave_remote =
                    matches!(dp.slave, Some(s) if self.placement.slaves[s.0] != self.side);
                let master_local = self.placement.masters[dp.master.0] == self.side;
                slave_remote && master_local
            }
            None => false,
        }
    }

    fn elect_leader(&self) -> Side {
        // The data-flow source leads (§3): the writing master's domain, or the
        // read slave's domain; quiet buses default to the accelerator (ALS).
        match self.fabric.data_phase() {
            Some(dp) if dp.write => self.placement.masters[dp.master.0],
            Some(dp) => match dp.slave {
                Some(s) => self.placement.slaves[s.0],
                None => Side::Accelerator,
            },
            None => Side::Accelerator,
        }
    }

    fn predict_remote(&mut self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.remote_width());
        self.predict_remote_into(&mut out);
        out
    }

    fn predict_remote_into(&mut self, out: &mut Vec<u32>) {
        // Predict each remote component's signals, updating proxy slots so the
        // subsequent tick sees them.
        let dp_slave = self.fabric.data_phase().and_then(|dp| dp.slave);
        for (proxy, pred) in self.full_m.iter_mut().zip(&mut self.m_pred) {
            if let Some(p) = pred {
                *proxy = p.predict();
                out.extend_from_slice(&proxy.pack());
            }
        }
        for (j, (proxy, pred)) in self.full_s.iter_mut().zip(&mut self.s_pred).enumerate() {
            if let Some(p) = pred {
                *proxy = p.predict(dp_slave == Some(SlaveId(j)));
                out.extend_from_slice(&proxy.pack());
            }
        }
    }

    fn check_remote(&self, remote: &[u32]) -> bool {
        walk_remote(
            &self.placement,
            self.side,
            remote,
            |_, chunk| MasterSignals::unpack(chunk).is_some(),
            |_, chunk| SlaveSignals::unpack(chunk).is_some(),
        )
    }

    fn take_control_words(&mut self) -> u64 {
        let mut words = 0u64;
        for p in self.m_pred.iter_mut().flatten() {
            words += p.take_control_words() as u64;
        }
        for p in self.s_pred.iter_mut().flatten() {
            words += p.take_control_words() as u64;
        }
        words
    }

    fn tick(&mut self, remote: &[u32], kind: TickKind) {
        debug_assert!(
            self.latch_is_current(),
            "a component changed state since the last latch"
        );
        let well_formed = unpack_remote(
            &self.placement,
            self.side,
            remote,
            &mut self.full_m,
            &mut self.full_s,
        );
        assert!(
            well_formed,
            "malformed remote signals: the wrapper passes peer vectors through check_remote first"
        );
        let full_m = &self.full_m[..self.masters.len()];
        let full_s = &self.full_s[..self.slaves.len()];
        let view = self.fabric.view(full_m, full_s);

        if kind == TickKind::Actual {
            // Train predictors on the observed remote values.
            for (i, pred) in self.m_pred.iter_mut().enumerate() {
                if let Some(p) = pred {
                    let accepted = view.grant == MasterId(i) && view.hready;
                    p.observe(&full_m[i], accepted);
                }
            }
            for (j, pred) in self.s_pred.iter_mut().enumerate() {
                if let Some(p) = pred {
                    let dp_first = view.dp.as_ref().and_then(|dp| {
                        (dp.slave == Some(SlaveId(j)))
                            .then(|| dp.trans == predpkt_ahb::signals::Htrans::Nonseq)
                    });
                    p.observe(&full_s[j], dp_first);
                }
            }
        }

        // Record the committed local outputs before state changes.
        self.trace
            .record_words(self.packed.iter().map(|&w| u64::from(w)));

        for (i, slot) in self.masters.iter_mut().enumerate() {
            if let Some(c) = slot {
                c.tick(&self.fabric.master_view(&view, MasterId(i)));
            }
        }
        for (j, slot) in self.slaves.iter_mut().enumerate() {
            if let Some(c) = slot {
                c.tick(&self.fabric.slave_view(&view, SlaveId(j)));
            }
        }
        self.fabric.tick(&view, full_m, full_s);

        // Prime wait predictors: an accepted address phase at a remote slave
        // opens a data phase there next cycle.
        if view.hready && view.addr_phase.trans.is_active() {
            if let Some(s) = view.addr_phase.slave {
                if let Some(p) = &mut self.s_pred[s.0] {
                    p.begin_phase(view.addr_phase.trans == predpkt_ahb::signals::Htrans::Nonseq);
                }
            }
        }
        self.cycle += 1;
        self.latch();
    }

    fn verify_prediction(&self, leader_outputs: &[u32], predicted_me: &[u32]) -> bool {
        // Build the cycle view from actual values: our own latched outputs,
        // and the leader's over a copy of the proxies. The wrapper checked
        // `leader_outputs`; for a caller that did not, a malformed chunk
        // leaves the proxy value in its slot.
        let (mut full_m, mut full_s) = (self.full_m, self.full_s);
        unpack_remote(
            &self.placement,
            self.side,
            leader_outputs,
            &mut full_m,
            &mut full_s,
        );
        let full_m = &full_m[..self.masters.len()];
        let full_s = &full_s[..self.slaves.len()];
        let view = self.fabric.view(full_m, full_s);
        self.projection_matches(full_m, full_s, predicted_me, &view, self.side.peer())
    }

    fn trace(&self) -> &Trace {
        &self.trace
    }

    fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }

    fn trace_mark(&self) -> TraceMark {
        self.trace.mark()
    }

    fn trace_truncate(&mut self, mark: TraceMark) {
        self.trace.truncate(mark);
    }
}

/// The state layout, shared by both paths: the fabric replica and the cycle,
/// then the local components, then the proxy slots, then the predictors.
/// `save` / `restore` move the components and predictors in full; `mark` /
/// `rewind` / `release` forward to them, so a journaled memory or context
/// table copies only what it logged. Both reading legs latch.
impl AhbDomainModel {
    fn save_fabric(&self, w: &mut StateWriter<'_>) {
        self.fabric.save(w);
        w.word(self.cycle);
    }

    fn restore_fabric(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.fabric.restore(r)?;
        self.cycle = r.word()?;
        Ok(())
    }

    fn save_proxies(&self, w: &mut StateWriter<'_>) {
        // A local slot is derived state and is written as idle; see
        // "Latched outputs".
        for (sig, c) in self.full_m.iter().zip(&self.masters) {
            c.as_ref().map_or(*sig, |_| MasterSignals::idle()).save(w);
        }
        for (sig, c) in self.full_s.iter().zip(&self.slaves) {
            c.as_ref().map_or(*sig, |_| SlaveSignals::idle()).save(w);
        }
    }

    fn restore_proxies(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        for sig in &mut self.full_m[..self.masters.len()] {
            sig.restore(r)?;
        }
        for sig in &mut self.full_s[..self.slaves.len()] {
            sig.restore(r)?;
        }
        Ok(())
    }
}

impl Snapshot for AhbDomainModel {
    fn save(&self, w: &mut StateWriter<'_>) {
        self.save_fabric(w);
        for m in self.masters.iter().flatten() {
            m.save(w);
        }
        for s in self.slaves.iter().flatten() {
            s.save(w);
        }
        self.save_proxies(w);
        for p in self.m_pred.iter().flatten() {
            p.save(w);
        }
        for p in self.s_pred.iter().flatten() {
            p.save(w);
        }
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.restore_fabric(r)?;
        for m in self.masters.iter_mut().flatten() {
            m.restore(r)?;
        }
        for s in self.slaves.iter_mut().flatten() {
            s.restore(r)?;
        }
        self.restore_proxies(r)?;
        for p in self.m_pred.iter_mut().flatten() {
            p.restore(r)?;
        }
        for p in self.s_pred.iter_mut().flatten() {
            p.restore(r)?;
        }
        self.latch();
        Ok(())
    }

    fn mark(&mut self, w: &mut StateWriter<'_>) {
        self.save_fabric(w);
        for m in self.masters.iter_mut().flatten() {
            m.mark(w);
        }
        for s in self.slaves.iter_mut().flatten() {
            s.mark(w);
        }
        self.save_proxies(w);
        for p in self.m_pred.iter_mut().flatten() {
            p.mark(w);
        }
        for p in self.s_pred.iter_mut().flatten() {
            p.mark(w);
        }
    }

    fn rewind(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.restore_fabric(r)?;
        for m in self.masters.iter_mut().flatten() {
            m.rewind(r)?;
        }
        for s in self.slaves.iter_mut().flatten() {
            s.rewind(r)?;
        }
        self.restore_proxies(r)?;
        for p in self.m_pred.iter_mut().flatten() {
            p.rewind(r)?;
        }
        for p in self.s_pred.iter_mut().flatten() {
            p.rewind(r)?;
        }
        self.latch();
        Ok(())
    }

    fn release(&mut self) {
        for m in self.masters.iter_mut().flatten() {
            m.release();
        }
        for s in self.slaves.iter_mut().flatten() {
            s.release();
        }
        for p in self.m_pred.iter_mut().flatten() {
            p.release();
        }
        for p in self.s_pred.iter_mut().flatten() {
            p.release();
        }
    }
}

impl std::fmt::Debug for AhbDomainModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AhbDomainModel")
            .field("side", &self.side)
            .field("cycle", &self.cycle)
            .field("masters", &self.masters.len())
            .field("slaves", &self.slaves.len())
            .finish()
    }
}
