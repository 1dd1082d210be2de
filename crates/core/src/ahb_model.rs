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
//! [`predict_remote_into`](DomainModel::predict_remote_into) writes them with
//! the prediction (HPROT masked to the four bits the wire carries, so a
//! proxy is what a pack/unpack round trip would give) and copies them into
//! the LOB entry, and a tick unpacks only the peer chunks that differ from
//! them: a tick on the prediction just made unpacks nothing. The lagger's
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
use predpkt_ahb::signals::{MasterId, MasterSignals, SlaveId, SlaveSignals};
use predpkt_ahb::{AhbMaster, AhbSlave};
use predpkt_channel::Side;
use predpkt_predict::{MasterPredictor, PredictorSuite, SlavePredictor};
use predpkt_sim::{
    declare_state, Present, Snapshot, SnapshotError, StateReader, StateWriter, Trace, TraceMark,
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
    /// The proxies packed as the peer packs its outputs, kept equal to what
    /// the remote slots hold: a peer chunk equal to its run here is not
    /// unpacked again. Derived state, rebuilt by every restore and rewind.
    remote: Vec<u32>,
    /// Where the peer's slaves start in `remote`.
    remote_slaves_at: usize,
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

/// Takes `chunk`, a peer's words for one component, into `proxy`, unpacking
/// them only if they differ from `held`, the proxy's words. Returns `false`,
/// leaving both as they were, if they do not unpack.
fn take<S, const W: usize>(
    proxy: &mut S,
    held: &mut [u32],
    chunk: &[u32; W],
    unpack: fn(&[u32; W]) -> Option<S>,
) -> bool {
    if held == chunk {
        return true;
    }
    let Some(sig) = unpack(chunk) else {
        return false;
    };
    *proxy = sig;
    held.copy_from_slice(chunk);
    true
}

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
            full_m: Slots::new(masters.iter().map(Option::is_some)),
            full_s: Slots::new(slaves.iter().map(Option::is_some)),
            packed: vec![0; placement.local_width(side)],
            remote: vec![0; placement.local_width(side.peer())],
            remote_slaves_at: 3 * placement.masters.iter().filter(|&&d| d != side).count(),
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
        let mut at = 0;
        for (sig, &domain) in self.full_m.iter().zip(&self.placement.masters) {
            if domain != self.side {
                self.remote[at..at + 3].copy_from_slice(&sig.pack());
                at += 3;
            }
        }
        for (sig, &domain) in self.full_s.iter().zip(&self.placement.slaves) {
            if domain != self.side {
                self.remote[at..at + 2].copy_from_slice(&sig.pack());
                at += 2;
            }
        }
    }

    /// Latches the local slots, packing those that changed, or all of them
    /// if `all` is set. A component's outputs are compared before they are
    /// copied: a value a call just returned is read field by field, not
    /// reloaded whole, unless it changed.
    fn latch_slots(&mut self, all: bool) {
        let mut at = 0;
        for (slot, c) in self.full_m.iter_mut().zip(&self.masters) {
            if let Some(c) = c {
                let sig = c.outputs();
                if all || *slot != sig {
                    *slot = sig;
                    self.packed[at..at + 3].copy_from_slice(&sig.pack());
                }
                at += 3;
            }
        }
        for (slot, c) in self.full_s.iter_mut().zip(&self.slaves) {
            if let Some(c) = c {
                let sig = c.outputs();
                if all || *slot != sig {
                    *slot = sig;
                    self.packed[at..at + 2].copy_from_slice(&sig.pack());
                }
                at += 2;
            }
        }
    }

    /// Whether every local slot and the packed words are what a fresh
    /// `outputs()` / `pack()` of the component would give — the invariant
    /// `latch` maintains, asked by `tick`'s debug assertion.
    fn latch_is_current(&self) -> bool {
        let mut rest = &self.packed[..];
        let masters = self
            .masters
            .iter()
            .zip(self.full_m.iter())
            .all(|(c, slot)| {
                c.as_ref().map_or(true, |c| {
                    c.outputs() == *slot && take_chunk(&mut rest) == Some(slot.pack())
                })
            });
        let slaves = self.slaves.iter().zip(self.full_s.iter()).all(|(c, slot)| {
            c.as_ref().map_or(true, |c| {
                c.outputs() == *slot && take_chunk(&mut rest) == Some(slot.pack())
            })
        });
        masters && slaves && rest.is_empty()
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
            let (m, s) = (&mut self.full_m, &mut self.full_s);
            let (m_held, s_held) = self.remote.split_at_mut(self.remote_slaves_at);
            let (mut m_held, mut s_held) = (m_held.chunks_exact_mut(3), s_held.chunks_exact_mut(2));
            let well_formed = walk_remote(
                &self.placement,
                self.side,
                remote,
                |i, chunk| {
                    let held = m_held.next().expect("a run per remote master");
                    take(&mut m[i], held, chunk, MasterSignals::unpack)
                },
                |j, chunk| {
                    let held = s_held.next().expect("a run per remote slave");
                    take(&mut s[j], held, chunk, SlaveSignals::unpack)
                },
            );
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
        // Our packed outputs agree with themselves in every position.
        if predicted == self.packed {
            return true;
        }
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
        // compared with its slot before it is copied, as in `latch_slots`.
        let dp_slave = self.fabric.data_phase().and_then(|dp| dp.slave);
        let mut at = 0;
        for (proxy, pred) in self.full_m.iter_mut().zip(&mut self.m_pred) {
            if let Some(p) = pred {
                let mut sig = p.predict();
                // HPROT travels as four bits: the proxy holds what the peer
                // would have sent.
                sig.prot &= 0xf;
                if *proxy != sig {
                    *proxy = sig;
                    self.remote[at..at + 3].copy_from_slice(&sig.pack());
                }
                at += 3;
            }
        }
        for (j, (proxy, pred)) in self.full_s.iter_mut().zip(&mut self.s_pred).enumerate() {
            if let Some(p) = pred {
                let sig = p.predict(dp_slave == Some(SlaveId(j)));
                if *proxy != sig {
                    *proxy = sig;
                    self.remote[at..at + 2].copy_from_slice(&sig.pack());
                }
                at += 2;
            }
        }
        out.extend_from_slice(&self.remote);
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
