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
//! signals*, §3): arbitration requests always; the granted master's HTRANS
//! always, and its HADDR, HWRITE, HSIZE and HBURST only while it drives NONSEQ
//! or SEQ; write data only when it crosses into the leader domain; read data
//! only when a leader-side master consumes it; the data-phase slave's
//! ready/response; HSPLIT and IRQ always. Inactive positions are free — a
//! mispredicted idle address bus costs nothing: under IDLE or BUSY no decoder,
//! data-phase register, burst tracker or slave reads HADDR, HWRITE, HSIZE or
//! HBURST. HPROT is never compared: no leader-side component reads it at all
//! (the address phase the decoder routes, the data-phase register holds and
//! every `SlaveView` carries has no HPROT field, and the arbiter reads none).
//! A debug build checks every prediction those exemptions let through against
//! an oracle (`shadow_exemption`), which panics if the leader domain would
//! have seen a difference.
//!
//! ## Latched outputs
//!
//! Every component is a Moore machine, so its outputs for the upcoming cycle
//! are fixed from the clock edge that ended the last one. The model keeps one
//! pair of full signal vectors — a local slot holds its component's outputs, a
//! remote slot the proxy value — and the local slots' packed words, each slot
//! at a fixed offset, refreshed at the places component state changes. The
//! end of every [`tick`](DomainModel::tick) runs `latch()`, which calls
//! `outputs()` once per local component and repacks only the slots whose
//! value changed; the end of [`AhbDomainModel::new`] and of a successful
//! [`restore`](Snapshot::restore) or [`rewind`](Snapshot::rewind) runs
//! `relatch()`, which repacks every slot. Nothing else can mutate a
//! component ([`master_as`](AhbDomainModel::master_as) and
//! [`slave_as`](AhbDomainModel::slave_as) lend `&T`, and the component traits
//! have no mutable upcast), so between edges `local_outputs_into`, the trace
//! record, the lagger's check and `tick` read the slots and dispatch nothing:
//! `outputs()` runs once per component per cycle. A debug build checks the
//! slots against a fresh `outputs()` at the top of every tick.
//!
//! The proxies are kept packed too, in the peer's order: the words the peer
//! would send for them.
//! [`predict_remote_into`](DomainModel::predict_remote_into) packs the
//! prediction into them and takes it back as the peer's words would be
//! taken, so a proxy is what a pack/unpack round trip gives (each field
//! keeps the bits the [`MasterSignals`] or [`SlaveSignals`] declaration
//! gives it), and copies them into
//! the LOB entry; a tick unpacks only the peer chunks that differ from
//! them: a tick on the prediction just made unpacks nothing. Every run of
//! words — the local slots' in `packed`, the proxies' in `remote` — is a
//! walk of the cycle record ([`predpkt_ahb::record`]) over the components
//! on one side, fixed at construction. The lagger's
//! [`verify_and_tick`](DomainModel::verify_and_tick) takes the leader's
//! words once and checks the prediction and ticks on one `CycleView`.
//!
//! The latched values and the proxies' words are derived state and are
//! never part of a snapshot: `save` writes the idle value for every local
//! slot (where the proxy vectors of earlier versions always held idle) and
//! the proxy for every remote slot, so the rollback-variable count and every
//! checkpoint byte are unchanged, and `relatch()` rebuilds the proxies'
//! words from what a restore or rewind read. A mark copies the proxies
//! alone and only declares the local slots' idle words (see [`Slots`]).

use crate::blueprint::Placement;
use crate::model::{DomainModel, TickKind};
use predpkt_ahb::fabric::{CycleView, Fabric};
use predpkt_ahb::record::{self, Chunk, Port};
use predpkt_ahb::signals::{MasterId, MasterSignals, SlaveId, SlaveSignals};
use predpkt_ahb::{AhbMaster, AhbSlave};
use predpkt_channel::Side;
use predpkt_predict::{MasterPredictor, PredictorSuite, SlavePredictor};
use predpkt_sim::{
    declare_state, Bundle, Present, Snapshot, SnapshotError, StateReader, StateWriter, Trace,
    TraceMark,
};
use std::ops::{Deref, DerefMut};

/// One verification domain of a split AHB SoC. See the module docs.
pub struct AhbDomainModel {
    side: Side,
    placement: Placement,
    masters: Vec<Option<Box<dyn AhbMaster>>>,
    slaves: Vec<Option<Box<dyn AhbSlave>>>,
    fabric: Fabric,
    /// The upcoming cycle's full master vector: the latched outputs of a
    /// local master, the proxy value (last exchanged or predicted) of a
    /// remote one. See "Latched outputs".
    full_m: Slots<MasterSignals>,
    /// The full slave vector, as `full_m`.
    full_s: Slots<SlaveSignals>,
    /// The local slots packed in canonical order (masters ascending, then
    /// slaves), each at a fixed offset: the cycle's LOB words and its trace
    /// record.
    packed: Vec<u32>,
    /// Where each local component's run sits in `packed`.
    locals: Vec<Chunk>,
    /// The proxies packed as the peer packs its outputs, kept equal to what
    /// the remote slots hold: a peer chunk equal to its run here is not
    /// unpacked again. Derived state, rebuilt by every restore and rewind.
    remote: Vec<u32>,
    /// Where each remote component's run sits in `remote`.
    remotes: Vec<Chunk>,
    m_pred: Vec<Option<Box<dyn MasterPredictor>>>,
    s_pred: Vec<Option<Box<dyn SlavePredictor>>>,
    trace: Trace,
    cycle: u64,
}

/// The bus carries at most this many masters and this many slaves (HSPLIT
/// and the IRQ vector are 16 bits), so one cycle's full signal vectors fit
/// two fixed arrays.
const MAX_COMPONENTS: usize = 16;

/// One cycle's full signal vector for the masters or for the slaves, one
/// slot per component in bus order: a local component's latched outputs, a
/// remote one's proxy. Only the proxies are rollback state: a local slot is
/// saved as the idle value, and what a restore reads into it stands until
/// the model relatches. A mark copies the proxies only and declares the
/// local slots' idle words, which a rewind skips: the relatch after it
/// overwrites every local slot.
#[derive(Clone, Copy)]
struct Slots<S> {
    sig: [S; MAX_COMPONENTS],
    len: usize,
    /// Bit `i` set: slot `i` is local.
    local: u16,
}

impl<S: Copy + Default> Slots<S> {
    /// Idle slots, one per entry of `local`, which says whether the
    /// component in that slot is hosted here.
    fn new(local: impl ExactSizeIterator<Item = bool>) -> Self {
        Slots {
            sig: [S::default(); MAX_COMPONENTS],
            len: local.len(),
            local: local
                .enumerate()
                .fold(0, |mask, (i, here)| mask | (u16::from(here) << i)),
        }
    }
}

impl<S> Deref for Slots<S> {
    type Target = [S];

    fn deref(&self) -> &[S] {
        &self.sig[..self.len]
    }
}

impl<S> DerefMut for Slots<S> {
    fn deref_mut(&mut self) -> &mut [S] {
        &mut self.sig[..self.len]
    }
}

impl<S: Snapshot + Copy + Default> Snapshot for Slots<S> {
    fn save(&self, w: &mut StateWriter<'_>) {
        for (i, sig) in self.iter().enumerate() {
            if self.local >> i & 1 == 0 {
                sig.save(w);
            } else {
                S::default().save(w);
            }
        }
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.iter_mut().try_for_each(|sig| sig.restore(r))
    }

    fn mark(&mut self, w: &mut StateWriter<'_>) {
        let idle = S::default().saved_len();
        let local = self.local;
        for (i, sig) in self.iter_mut().enumerate() {
            if local >> i & 1 == 0 {
                sig.mark(w);
            } else {
                w.journaled(idle);
            }
        }
    }

    fn rewind(&mut self, r: &mut StateReader<'_>) {
        let local = self.local;
        for (i, sig) in self.iter_mut().enumerate() {
            if local >> i & 1 == 0 {
                sig.rewind(r);
            }
        }
    }
}

/// Stores `sig`, a local component's fresh outputs, in `slot` and packs it
/// into its run `c` of `packed`, unless `all` is clear and the slot already holds it: the
/// value a call just returned is compared field by field, not reloaded
/// whole, unless it changed.
fn latch<S: Bundle + Copy + PartialEq>(
    slot: &mut S,
    sig: S,
    c: Chunk,
    packed: &mut [u32],
    all: bool,
) {
    if all || *slot != sig {
        *slot = sig;
        sig.pack_into(&mut packed[c.words()]);
    }
}

/// The component in a slot the walk says is filled.
fn hosted<C: ?Sized>(slot: &Option<Box<C>>) -> &C {
    slot.as_deref().expect("the walk visits the filled slots")
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
        let locals: Vec<Chunk> = record::chunks(
            masters.iter().map(Option::is_some),
            slaves.iter().map(Option::is_some),
        )
        .collect();
        let remotes: Vec<Chunk> = record::chunks(
            masters.iter().map(Option::is_none),
            slaves.iter().map(Option::is_none),
        )
        .collect();
        let mut model = AhbDomainModel {
            side,
            full_m: Slots::new(masters.iter().map(Option::is_some)),
            full_s: Slots::new(slaves.iter().map(Option::is_some)),
            packed: vec![0; record::width(locals.iter().copied())],
            locals,
            remote: vec![0; record::width(remotes.iter().copied())],
            remotes,
            masters,
            slaves,
            placement,
            fabric,
            m_pred,
            s_pred,
            trace: Trace::new(),
            cycle: 0,
        };
        model.relatch();
        model
    }

    /// Latches every local component's Moore outputs for the upcoming cycle
    /// into its slot and repacks those that changed. Runs at the end of
    /// every tick (see "Latched outputs" in the module docs) and nowhere
    /// else.
    fn latch(&mut self) {
        self.latch_slots(false);
    }

    /// [`latch`](Self::latch), repacking every local slot, and repacks the
    /// proxies: where nothing packed what the slots hold — at construction,
    /// and after a restore or rewind, which read the saved idle values into
    /// the local slots and the saved proxies into the remote ones.
    fn relatch(&mut self) {
        self.latch_slots(true);
        for c in &self.remotes {
            c.port
                .pack(&self.full_m, &self.full_s, &mut self.remote[c.words()]);
        }
    }

    /// Latches the local slots, packing those that changed, or all of them
    /// if `all` is set (see [`latch`]).
    fn latch_slots(&mut self, all: bool) {
        for &c in &self.locals {
            match c.port {
                Port::Master(i) => {
                    let sig = hosted(&self.masters[i]).outputs();
                    latch(&mut self.full_m[i], sig, c, &mut self.packed, all);
                }
                Port::Slave(j) => {
                    let sig = hosted(&self.slaves[j]).outputs();
                    latch(&mut self.full_s[j], sig, c, &mut self.packed, all);
                }
            }
        }
    }

    /// Whether every local slot and the packed words are what a fresh
    /// `outputs()` / `pack()` of the component would give — the invariant
    /// `latch` maintains, asked by `tick`'s debug assertion.
    fn latch_is_current(&self) -> bool {
        self.locals.iter().all(|c| {
            let words = &self.packed[c.words()];
            match c.port {
                Port::Master(i) => {
                    let slot = self.full_m[i];
                    hosted(&self.masters[i]).outputs() == slot && words == slot.pack()
                }
                Port::Slave(j) => {
                    let slot = self.full_s[j];
                    hosted(&self.slaves[j]).outputs() == slot && words == slot.pack()
                }
            }
        })
    }

    /// Takes `words`, a peer's words for the remote component at `c`, into
    /// the proxy's run of `remote` and its slot, unpacking them only if
    /// they differ from that run. Returns `false`, leaving both as they
    /// were, if they do not unpack.
    fn take(&mut self, c: Chunk, words: &[u32]) -> bool {
        let held = &mut self.remote[c.words()];
        if held == words {
            return true;
        }
        if !c.port.unpack(words, &mut self.full_m, &mut self.full_s) {
            return false;
        }
        held.copy_from_slice(words);
        true
    }

    /// The upcoming cycle's view, with `remote`, the peer's packed outputs
    /// for it, taken into the proxy slots: only the chunks that differ from
    /// the proxies' words are unpacked, so a tick on the prediction just
    /// made unpacks nothing.
    fn cycle_view(&mut self, remote: &[u32]) -> CycleView {
        debug_assert!(
            self.latch_is_current(),
            "a component changed state since the last latch"
        );
        if remote != self.remote {
            let well_formed = remote.len() == self.remote.len()
                && (0..self.remotes.len()).all(|k| {
                    let c = self.remotes[k];
                    self.take(c, &remote[c.words()])
                });
            assert!(
                well_formed,
                "malformed remote signals: the wrapper passes peer vectors through check_remote first"
            );
        }
        self.fabric.view(&self.full_m, &self.full_s)
    }

    /// Advances one cycle on `view`, built by [`cycle_view`](Self::cycle_view)
    /// from the slots as they are.
    fn advance(&mut self, view: &CycleView, kind: TickKind) {
        let full_m = &self.full_m[..];
        let full_s = &self.full_s[..];
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
                c.tick(&self.fabric.master_view(view, MasterId(i)));
            }
        }
        for (j, slot) in self.slaves.iter_mut().enumerate() {
            if let Some(c) = slot {
                c.tick(&self.fabric.slave_view(view, SlaveId(j)));
            }
        }
        self.fabric.tick(view, full_m, full_s);

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

    /// `true` where the MSABS active projections (see the module docs) of
    /// this domain's actual outputs — the local slots of `full_m` / `full_s`
    /// — and of `predicted`, a packed prediction of them, agree under `view`.
    /// Which positions are active depends on `view` and the actual HTRANS
    /// alone, so the two projections are compared position by position and
    /// never built: a granted master's HADDR, HWRITE, HSIZE and HBURST
    /// count only while it drives NONSEQ or SEQ, its HTRANS always, and its
    /// HPROT never, since nothing in the leader domain reads HPROT. A
    /// malformed prediction matches nothing.
    fn projection_matches(
        &self,
        full_m: &[MasterSignals],
        full_s: &[SlaveSignals],
        predicted: &[u32],
        view: &CycleView,
        leader: Side,
    ) -> bool {
        let verified = self.projections_agree(full_m, full_s, predicted, view, leader);
        #[cfg(debug_assertions)]
        if verified {
            self.shadow_exemption(full_m, full_s, predicted, view, leader);
        }
        verified
    }

    /// The rule of [`projection_matches`](Self::projection_matches).
    fn projections_agree(
        &self,
        full_m: &[MasterSignals],
        full_s: &[SlaveSignals],
        predicted: &[u32],
        view: &CycleView,
        leader: Side,
    ) -> bool {
        // Our packed outputs agree with themselves in every position.
        if predicted == self.packed {
            return true;
        }
        for c in &self.locals {
            let Some(words) = predicted.get(c.words()) else {
                return false;
            };
            // Both sides as the wire carries them.
            match c.port {
                Port::Master(i) => {
                    let Some(p) = <MasterSignals as Bundle>::unpack(words) else {
                        return false;
                    };
                    let a = full_m[i].normalized();
                    // Arbitration requests: always active.
                    if (a.busreq, a.lock) != (p.busreq, p.lock) {
                        return false;
                    }
                    // The granted master's HTRANS: always active. Its
                    // address and control: only for a NONSEQ or SEQ
                    // transfer. Its HPROT: never read, so never active.
                    if view.grant == MasterId(i)
                        && (a.trans != p.trans
                            || a.trans.is_active()
                                && (a.addr, a.write, a.size, a.burst)
                                    != (p.addr, p.write, p.size, p.burst))
                    {
                        return false;
                    }
                    // Write data: only when this master's write data phase
                    // must be visible to the leader domain (slave local to
                    // the leader).
                    let wdata_visible = matches!(&view.dp, Some(dp) if dp.write
                        && dp.master == MasterId(i)
                        && matches!(dp.slave, Some(s) if self.placement.slaves[s.0] == leader));
                    if wdata_visible && a.wdata != p.wdata {
                        return false;
                    }
                }
                Port::Slave(j) => {
                    let Some(p) = <SlaveSignals as Bundle>::unpack(words) else {
                        return false;
                    };
                    let a = full_s[j].normalized();
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
                        if !dp.write
                            && self.placement.masters[dp.master.0] == leader
                            && a.rdata != p.rdata
                        {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }

    /// Checks a verified prediction that the field-by-field rule, which
    /// compared a granted master's HTRANS, HADDR, HWRITE, HSIZE, HBURST and
    /// HPROT whatever it drove, would have refused. The oracle runs the
    /// cycle twice on the actual vectors, once with the granted master's
    /// actual outputs and once with its prediction, and requires the
    /// fabric's next state and the view of every component in the leader
    /// domain to be equal; every other slot holds its actual value, so a
    /// difference is the exemption's. Panics, naming the cycle, the master
    /// and the fields, if the leader domain would have seen one.
    #[cfg(debug_assertions)]
    fn shadow_exemption(
        &self,
        full_m: &[MasterSignals],
        full_s: &[SlaveSignals],
        predicted: &[u32],
        view: &CycleView,
        leader: Side,
    ) {
        let granted = view.grant;
        let Some(c) = self
            .locals
            .iter()
            .find(|c| c.port == Port::Master(granted.0))
        else {
            return;
        };
        let p = <MasterSignals as Bundle>::unpack(&predicted[c.words()])
            .expect("a verified prediction unpacks");
        let a = full_m[granted.0].normalized();
        let fields = [
            ("HTRANS", a.trans != p.trans),
            ("HADDR", a.addr != p.addr),
            ("HWRITE", a.write != p.write),
            ("HSIZE", a.size != p.size),
            ("HBURST", a.burst != p.burst),
            ("HPROT", a.prot != p.prot),
        ];
        if !fields.iter().any(|&(_, differs)| differs) {
            return;
        }
        let run = |granted_outputs: MasterSignals| {
            let mut m = [MasterSignals::default(); MAX_COMPONENTS];
            m[..full_m.len()].copy_from_slice(full_m);
            m[granted.0] = granted_outputs;
            let m = &m[..full_m.len()];
            let view = self.fabric.view(m, full_s);
            (view, self.fabric.ticked(&view, m, full_s))
        };
        let (actual, actual_next) = run(a);
        let (predicted, predicted_next) = run(p);
        let leader_master = (0..full_m.len()).find(|&k| {
            self.placement.masters[k] == leader
                && self.fabric.master_view(&actual, MasterId(k))
                    != self.fabric.master_view(&predicted, MasterId(k))
        });
        let leader_slave = (0..full_s.len()).find(|&k| {
            self.placement.slaves[k] == leader
                && self.fabric.slave_view(&actual, SlaveId(k))
                    != self.fabric.slave_view(&predicted, SlaveId(k))
        });
        let seen = if actual_next != predicted_next {
            "the fabric's next state".to_string()
        } else if let Some(k) = leader_master {
            format!("master {k}'s MasterView")
        } else if let Some(k) = leader_slave {
            format!("slave {k}'s SlaveView")
        } else {
            return;
        };
        let fields: Vec<&str> = fields
            .iter()
            .filter_map(|&(name, differs)| differs.then_some(name))
            .collect();
        panic!(
            "MSABS shadow: cycle {}: granted master {} drives {:?}, and its prediction \
             differs from the actual in {}, which changes {seen}: the IDLE/BUSY exemption \
             let through a prediction the leader domain reads",
            self.cycle,
            granted.0,
            a.trans,
            fields.join("/"),
        );
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
        self.remote.len()
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
        // Predict each remote component's signals, updating the proxies and
        // their words so the subsequent tick sees them. A prediction is
        // compared with its proxy first, as in `latch_slots`; one that
        // differs is packed and taken as the peer's words are, so the proxy
        // holds what the wire would carry.
        let dp_slave = self.fabric.data_phase().and_then(|dp| dp.slave);
        for k in 0..self.remotes.len() {
            let c = self.remotes[k];
            let taken = match c.port {
                Port::Master(i) => {
                    let p = self.m_pred[i]
                        .as_mut()
                        .expect("a remote master's predictor");
                    let sig = p.predict();
                    sig == self.full_m[i] || self.take(c, &sig.pack())
                }
                Port::Slave(j) => {
                    let p = self.s_pred[j].as_mut().expect("a remote slave's predictor");
                    let sig = p.predict(dp_slave == Some(SlaveId(j)));
                    sig == self.full_s[j] || self.take(c, &sig.pack())
                }
            };
            assert!(taken, "a bundle unpacks its own packing");
        }
        out.extend_from_slice(&self.remote);
    }

    fn check_remote(&self, remote: &[u32]) -> bool {
        remote.len() == self.remote.len()
            && self
                .remotes
                .iter()
                .all(|c| c.port.unpacks(&remote[c.words()]))
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
        let view = self.cycle_view(remote);
        self.advance(&view, kind);
    }

    /// One unpack of `leader_outputs` and one `CycleView` serve both the
    /// check and the tick.
    fn verify_and_tick(
        &mut self,
        leader_outputs: &[u32],
        predicted_me: &[u32],
        before: &mut Vec<u32>,
    ) -> bool {
        let view = self.cycle_view(leader_outputs);
        let leader = self.side.peer();
        let verified =
            self.projection_matches(&self.full_m, &self.full_s, predicted_me, &view, leader);
        if !verified {
            before.clear();
            before.extend_from_slice(&self.packed);
        }
        self.advance(&view, TickKind::Actual);
        verified
    }

    fn verify_prediction(&self, leader_outputs: &[u32], predicted_me: &[u32]) -> bool {
        // Build the cycle view from actual values: our own latched outputs,
        // and the leader's over a copy of the proxies. The wrapper checked
        // `leader_outputs`; for a caller that did not, a malformed chunk
        // leaves the proxy value in its slot.
        let (mut full_m, mut full_s) = (self.full_m, self.full_s);
        for c in &self.remotes {
            if let Some(words) = leader_outputs.get(c.words()) {
                c.port.unpack(words, &mut full_m, &mut full_s);
            }
        }
        let view = self.fabric.view(&full_m, &full_s);
        self.projection_matches(&full_m, &full_s, predicted_me, &view, self.side.peer())
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

// The fabric replica and the cycle, then the local components, then the
// proxy slots, then the predictors. The components and predictors roll back
// by their own `mark` / `rewind` / `release`, so a journaled memory or
// context table copies only what it logged. Both reading legs relatch.
declare_state! {
    impl AhbDomainModel {
        fabric,
        cycle,
        masters: Present,
        slaves: Present,
        full_m,
        full_s,
        m_pred: Present,
        s_pred: Present,
    } then relatch
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
