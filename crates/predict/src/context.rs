//! Order-k context (Markov) predictors.
//!
//! The paper's predictors are *structural*: they exploit one AHB invariant
//! each (bursts are linear, waits are producer–consumer, arbitration is
//! sticky). Workloads with **repeating request patterns** — NoC-style mesh
//! traffic walking a fixed route set, descriptor rings, streaming pipelines —
//! have a second invariant the structural predictors miss: the *sequence of
//! requests itself* repeats. The predictors here learn that sequence as an
//! order-k Markov model over address strides and request/wait/IRQ run
//! lengths.
//!
//! All learned state lives in a [`ContextTable`]: a bounded, direct-mapped
//! table (tag + saturating confidence counter per slot) with **deterministic
//! eviction** — a slot is reclaimed only when its confidence decays to zero,
//! so the same observation stream always produces the same table. Bounded
//! memory and determinism are load-bearing: predictor state is part of the
//! leader's rollback snapshot and of whole-session checkpoints. Only
//! observations write the table, so it rolls back by journal; the rest of a
//! predictor is a small `Copy` timeline.

use crate::predictors::{BurstFollower, LastValuePredictor};
use crate::suite::{MasterPredictor, PredictorSuite, SlavePredictor};
use predpkt_ahb::signals::{Hresp, Htrans, MasterSignals, SlaveSignals};
use predpkt_sim::{Journaled, Snapshot, SnapshotError, StateReader, StateWriter};

/// Context order: predictions condition on this many recent history items.
const HISTORY: usize = 3;

/// Table slots (power of two). 256 slots × 3 words bounds a predictor's
/// learned state at 3 KiB regardless of run length.
const TABLE_SLOTS: usize = 256;

/// Confidence ceiling for a table slot: all ones (see `ContextTable::restore`).
const CONF_MAX: u32 = 3;
const _: () = assert!(CONF_MAX.wrapping_add(1).is_power_of_two());

// Key salts: one learned quantity per salt, all sharing one table.
const SALT_QUIET: u32 = 1;
const SALT_REQ: u32 = 2;
const SALT_BUSY: u32 = 3;
const SALT_STRIDE: u32 = 4;
const SALT_WAIT: u32 = 5;
const SALT_IRQ: u32 = 6;

/// FNV-1a over a salt and the context words: the deterministic key hash.
fn context_key(salt: u32, context: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &w in std::iter::once(&salt).chain(context.iter()) {
        h ^= w as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A bounded context → value table with deterministic eviction.
///
/// Direct-mapped: a 64-bit key selects one slot (low bits) and carries a tag
/// (high bits). Each slot holds a value and a saturating confidence counter;
/// observations of a different key or value decay the confidence, and the
/// slot is evicted (retagged) exactly when confidence reaches zero. No
/// randomness, no clocks: the same observation sequence always yields the
/// same table, which keeps rollback and checkpoint/restore bit-exact.
///
/// The three columns (tags, values, confidences) are [`Journaled`] stores,
/// so the table rolls back by undo log: a [`mark`](Snapshot::mark) copies
/// none of its 768 words and bills all of them (with the three length
/// prefixes), and a [`rewind`](Snapshot::rewind) costs the slots written
/// since. [`save`](Snapshot::save) / [`restore`](Snapshot::restore) move the
/// three length-prefixed columns in full.
///
/// # Example
///
/// ```
/// use predpkt_predict::ContextTable;
/// let mut t = ContextTable::new();
/// t.observe(42, 7);
/// assert_eq!(t.predict(42), Some(7));
/// assert_eq!(t.predict(43), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContextTable {
    tags: Journaled,
    values: Journaled,
    conf: Journaled,
}

impl Default for ContextTable {
    fn default() -> Self {
        Self::new()
    }
}

impl ContextTable {
    /// Creates an empty table of `TABLE_SLOTS` slots.
    pub fn new() -> Self {
        ContextTable {
            tags: Journaled::new(TABLE_SLOTS),
            values: Journaled::new(TABLE_SLOTS),
            conf: Journaled::new(TABLE_SLOTS),
        }
    }

    fn slot(&self, key: u64) -> (usize, u32) {
        ((key as usize) & (TABLE_SLOTS - 1), (key >> 32) as u32)
    }

    /// Trains the table: `key` was followed by `value`.
    pub fn observe(&mut self, key: u64, value: u32) {
        let (i, tag) = self.slot(key);
        let conf = self.conf[i];
        if conf > 0 && self.tags[i] == tag {
            if self.values[i] == value {
                self.conf.set(i, (conf + 1).min(CONF_MAX));
            } else if conf == 1 {
                // Decayed to zero and re-learned at once.
                self.values.set(i, value);
            } else {
                self.conf.set(i, conf - 1);
            }
        } else if conf == 0 {
            self.tags.set(i, tag);
            self.values.set(i, value);
            self.conf.set(i, 1);
        } else {
            self.conf.set(i, conf - 1);
        }
    }

    /// The learned value for `key`, if a confident slot holds one.
    pub fn predict(&self, key: u64) -> Option<u32> {
        let (i, tag) = self.slot(key);
        (self.conf[i] > 0 && self.tags[i] == tag).then(|| self.values[i])
    }

    /// Like [`predict`](ContextTable::predict), but only answers from slots
    /// reinforced at least twice. Acting on single-observation evidence costs
    /// a rollback when wrong, so the predictors use this for anything that
    /// *initiates* speculation (issue timing, strides, edges) and fall back
    /// to last-value-like behaviour until the pattern has actually repeated.
    pub fn predict_confident(&self, key: u64) -> Option<u32> {
        let (i, tag) = self.slot(key);
        (self.conf[i] >= 2 && self.tags[i] == tag).then(|| self.values[i])
    }
}

impl Snapshot for ContextTable {
    fn save(&self, w: &mut StateWriter<'_>) {
        self.tags.save(w);
        self.values.save(w);
        self.conf.save(w);
    }

    /// Refuses a column of another size than `TABLE_SLOTS` at its length
    /// prefix, and a confidence above `CONF_MAX` (which `observe` never
    /// makes) at its word.
    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.tags.restore(r)?;
        self.values.restore(r)?;
        let conf_at = r.position() + 1;
        self.conf.restore(r)?;
        // CONF_MAX is all ones, so a confidence above it sets a higher bit
        // of the column's OR: one branch-free pass on the restore path.
        if self.conf.iter().fold(0, |bits, &c| bits | c) > CONF_MAX {
            let i = self.conf.iter().position(|&c| c > CONF_MAX);
            return Err(r.corrupt_at(conf_at + i.expect("a slot set the high bits")));
        }
        Ok(())
    }

    fn mark(&mut self, w: &mut StateWriter<'_>) {
        self.tags.mark(w);
        self.values.mark(w);
        self.conf.mark(w);
    }

    fn rewind(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.tags.rewind(r)?;
        self.values.rewind(r)?;
        self.conf.rewind(r)
    }

    fn release(&mut self) {
        self.tags.release();
        self.values.release();
        self.conf.release();
    }
}

/// Restores a fixed array that [`StateWriter::slice_u32`] saved: the length
/// word must announce exactly `N` entries, which are read into place.
pub(crate) fn restore_array<const N: usize>(
    r: &mut StateReader<'_>,
    out: &mut [u32; N],
) -> Result<(), SnapshotError> {
    let at = r.position();
    if r.usize()? != N {
        return Err(r.corrupt_at(at));
    }
    for slot in out {
        *slot = r.u32()?;
    }
    Ok(())
}

/// Request-cycle phase of the master being modelled (see
/// [`ContextMasterPredictor`]).
const PH_QUIET: u32 = 0;
const PH_REQ: u32 = 1;
const PH_ACTIVE: u32 = 2;

/// Order-k Markov predictor for a remote master's request stream.
///
/// Models the master as a repeating **request cycle** — quiet (no bus
/// request), requesting (HBUSREQ up, waiting for grant), active (first beat
/// issued through last busy cycle) — and learns, keyed by the last
/// `HISTORY` address strides:
///
/// * the *stride* to the next first-beat address (`A_{n+1} − A_n`),
/// * the *quiet length* (cycles with HBUSREQ low before the next request),
/// * the *request length* (cycles from HBUSREQ rising to the NONSEQ beat),
/// * the *busy length* (cycles HBUSREQ stays high from the NONSEQ beat).
///
/// Inside a burst it defers to a [`BurstFollower`] (the paper's structural
/// predictor is exact there); the Markov layer takes over *between* requests,
/// exactly where last-value and the paper suite both predict a quiet bus and
/// eat a rollback per request. The same state machine advances on observed
/// actuals and on its own predictions, so a verified speculation leaves the
/// predictor consistent without re-observation.
///
/// Everything but the learned [`ContextTable`] is one small `Copy` timeline,
/// and `predict` only reads the table: [`peek`](Self::peek) predicts on a
/// copy of the timeline, and a rollback mark copies the timeline and
/// journals the table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContextMasterPredictor {
    table: ContextTable,
    timeline: MasterTimeline,
}

/// The state of a [`ContextMasterPredictor`] beside its table, in save order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MasterTimeline {
    follower: BurstFollower,
    lock: LastValuePredictor,
    wdata: LastValuePredictor,
    /// Last `HISTORY` first-beat strides, oldest first.
    hist: [u32; HISTORY],
    /// Address of the last first beat (observed or predicted).
    last_addr: u32,
    /// Signal template of the last first beat (size/burst/write/prot/lock).
    proto: MasterSignals,
    /// Request-cycle phase of the modelled timeline.
    phase: u32,
    /// Consecutive cycles spent in `phase` so far.
    run: u32,
}

impl Default for ContextMasterPredictor {
    fn default() -> Self {
        Self::new()
    }
}

impl ContextMasterPredictor {
    /// Creates an untrained predictor (predicts a quiet master).
    pub fn new() -> Self {
        ContextMasterPredictor {
            table: ContextTable::new(),
            timeline: MasterTimeline {
                follower: BurstFollower::new(),
                lock: LastValuePredictor::new(0),
                wdata: LastValuePredictor::new(0),
                hist: [0; HISTORY],
                last_addr: 0,
                proto: MasterSignals::idle(),
                phase: PH_QUIET,
                run: 0,
            },
        }
    }

    /// What [`predict`](MasterPredictor::predict) would return, leaving the
    /// predictor as it is: `self.clone().predict()` without the clone. It
    /// allocates nothing, because a prediction only reads the table.
    pub fn peek(&self) -> MasterSignals {
        let mut timeline = self.timeline;
        timeline.predict(&self.table)
    }
}

impl MasterTimeline {
    fn key(&self, salt: u32) -> u64 {
        context_key(salt, &self.hist)
    }

    fn push_stride(&mut self, stride: u32) {
        self.hist.rotate_left(1);
        self.hist[HISTORY - 1] = stride;
    }

    /// An idle bundle carrying the slow-moving overlay layers.
    fn idle_sig(&self, busreq: bool) -> MasterSignals {
        MasterSignals {
            busreq,
            lock: self.lock.predict() != 0,
            wdata: self.wdata.predict(),
            prot: self.proto.prot,
            ..MasterSignals::idle()
        }
    }

    fn observe(&mut self, table: &mut ContextTable, actual: &MasterSignals, accepted: bool) {
        self.lock.observe(actual.lock as u32);
        self.wdata.observe(actual.wdata);
        self.follower.observe(actual, accepted);
        if accepted && actual.trans == Htrans::Nonseq {
            let stride = actual.addr.wrapping_sub(self.last_addr);
            table.observe(self.key(SALT_STRIDE), stride);
            if self.phase == PH_REQ {
                table.observe(self.key(SALT_REQ), self.run);
            }
            self.push_stride(stride);
            self.last_addr = actual.addr;
            self.proto = *actual;
            self.phase = PH_ACTIVE;
            self.run = 1;
        } else if actual.busreq {
            if self.phase == PH_QUIET {
                if self.run > 0 {
                    table.observe(self.key(SALT_QUIET), self.run);
                }
                self.phase = PH_REQ;
                self.run = 1;
            } else {
                self.run += 1;
            }
        } else if self.phase == PH_QUIET {
            self.run += 1;
        } else {
            if self.phase == PH_ACTIVE {
                table.observe(self.key(SALT_BUSY), self.run);
            }
            self.phase = PH_QUIET;
            self.run = 1;
        }
    }

    fn predict(&mut self, table: &ContextTable) -> MasterSignals {
        // Inside a burst the structural follower is exact: let it drive.
        let cont = self.follower.predict_and_advance();
        if cont.trans == Htrans::Seq {
            self.phase = PH_ACTIVE;
            self.run += 1;
            return MasterSignals {
                busreq: true,
                lock: self.lock.predict() != 0,
                wdata: self.wdata.predict(),
                ..cont
            };
        }
        match self.phase {
            PH_ACTIVE => match table.predict_confident(self.key(SALT_BUSY)) {
                Some(busy) if self.run >= busy => {
                    self.phase = PH_QUIET;
                    self.run = 1;
                    self.idle_sig(false)
                }
                _ => {
                    self.run += 1;
                    self.idle_sig(true)
                }
            },
            PH_QUIET => match table.predict_confident(self.key(SALT_QUIET)) {
                Some(quiet) if self.run >= quiet => {
                    self.phase = PH_REQ;
                    self.run = 1;
                    self.idle_sig(true)
                }
                _ => {
                    self.run += 1;
                    self.idle_sig(false)
                }
            },
            _ => {
                let due = matches!(
                    table.predict_confident(self.key(SALT_REQ)),
                    Some(req) if self.run >= req
                );
                match table.predict_confident(self.key(SALT_STRIDE)) {
                    Some(stride) if due => {
                        // Issue the predicted first beat and advance the
                        // modelled timeline exactly as an observation would.
                        let addr = self.last_addr.wrapping_add(stride);
                        let sig = MasterSignals {
                            addr,
                            trans: Htrans::Nonseq,
                            busreq: true,
                            lock: self.lock.predict() != 0,
                            wdata: self.wdata.predict(),
                            ..self.proto
                        };
                        self.push_stride(stride);
                        self.last_addr = addr;
                        self.phase = PH_ACTIVE;
                        self.run = 1;
                        self.follower.observe(&sig, true);
                        sig
                    }
                    _ => {
                        self.run += 1;
                        self.idle_sig(true)
                    }
                }
            }
        }
    }
}

impl MasterPredictor for ContextMasterPredictor {
    fn observe(&mut self, actual: &MasterSignals, accepted: bool) {
        self.timeline.observe(&mut self.table, actual, accepted);
    }

    fn predict(&mut self) -> MasterSignals {
        self.timeline.predict(&self.table)
    }
}

impl Snapshot for MasterTimeline {
    fn save(&self, w: &mut StateWriter<'_>) {
        self.follower.save(w);
        self.lock.save(w);
        self.wdata.save(w);
        w.slice_u32(&self.hist);
        w.u32(self.last_addr);
        self.proto.save(w);
        w.u32(self.phase).u32(self.run);
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.follower.restore(r)?;
        self.lock.restore(r)?;
        self.wdata.restore(r)?;
        restore_array(r, &mut self.hist)?;
        self.last_addr = r.u32()?;
        self.proto.restore(r)?;
        self.phase = r.u32()?;
        self.run = r.u32()?;
        Ok(())
    }
}

/// The table, then the timeline; a mark journals the table and copies the
/// timeline.
impl Snapshot for ContextMasterPredictor {
    fn save(&self, w: &mut StateWriter<'_>) {
        self.table.save(w);
        self.timeline.save(w);
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.table.restore(r)?;
        self.timeline.restore(r)
    }

    fn mark(&mut self, w: &mut StateWriter<'_>) {
        self.table.mark(w);
        self.timeline.save(w);
    }

    fn rewind(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.table.rewind(r)?;
        self.timeline.restore(r)
    }

    fn release(&mut self) {
        self.table.release();
    }
}

/// Order-k Markov predictor for a remote slave's wait and IRQ patterns.
///
/// * **Waits**: like [`WaitPredictor`](crate::WaitPredictor), but the learned
///   wait count is keyed by the last `HISTORY` wait-run lengths plus
///   the first-beat flag, so alternating or position-dependent wait patterns
///   (FIFO drain cadences, refresh stalls) are predicted instead of averaged.
/// * **IRQ**: learns the dwell time of each interrupt level and predicts the
///   *edge*, where the last-value layer is structurally one period late on
///   every pulse.
/// * Read data stays last-value (the paper's §3 verdict: data cannot be
///   effectively predicted), responses are predicted OKAY, and the SPLIT
///   mask is kept quiet (one-shot pulses are never worth predicting).
///
/// As in [`ContextMasterPredictor`], everything but the table is one `Copy`
/// timeline: [`peek`](Self::peek) predicts on a copy of it, and a rollback
/// mark copies it and journals the table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContextSlavePredictor {
    table: ContextTable,
    timeline: SlaveTimeline,
}

/// The state of a [`ContextSlavePredictor`] beside its table, in save order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SlaveTimeline {
    rdata: LastValuePredictor,
    /// Last `HISTORY` wait-run lengths, oldest first.
    whist: [u32; HISTORY],
    /// Wait cycles observed so far in the live actual data phase.
    observing: u32,
    /// Wait cycles predicted to remain for the current speculative phase.
    countdown: u32,
    /// Modelled IRQ level.
    irq_level: bool,
    /// Consecutive cycles the modelled IRQ has held `irq_level`.
    irq_run: u32,
}

impl Default for ContextSlavePredictor {
    fn default() -> Self {
        Self::new()
    }
}

impl ContextSlavePredictor {
    /// Creates an untrained predictor (predicts a ready, quiet slave).
    pub fn new() -> Self {
        ContextSlavePredictor {
            table: ContextTable::new(),
            timeline: SlaveTimeline {
                rdata: LastValuePredictor::new(0),
                whist: [0; HISTORY],
                observing: 0,
                countdown: 0,
                irq_level: false,
                irq_run: 0,
            },
        }
    }

    /// What [`predict`](SlavePredictor::predict) would return, leaving the
    /// predictor as it is: `self.clone().predict(in_data_phase)` without the
    /// clone. It allocates nothing, because a prediction only reads the
    /// table.
    pub fn peek(&self, in_data_phase: bool) -> SlaveSignals {
        let mut timeline = self.timeline;
        timeline.predict(&self.table, in_data_phase)
    }
}

impl SlaveTimeline {
    fn wait_key(&self, first_beat: bool) -> u64 {
        let mut ctx = [0u32; HISTORY + 1];
        ctx[..HISTORY].copy_from_slice(&self.whist);
        ctx[HISTORY] = first_beat as u32;
        context_key(SALT_WAIT, &ctx)
    }

    fn irq_key(&self, level: bool) -> u64 {
        context_key(SALT_IRQ, &[level as u32])
    }

    fn push_wait(&mut self, run: u32) {
        self.whist.rotate_left(1);
        self.whist[HISTORY - 1] = run;
    }

    /// Advances the modelled IRQ one cycle, returning the level to predict.
    fn irq_advance(&mut self, table: &ContextTable) -> bool {
        if let Some(dwell) = table.predict_confident(self.irq_key(self.irq_level)) {
            if self.irq_run >= dwell {
                self.irq_level = !self.irq_level;
                self.irq_run = 1;
                return self.irq_level;
            }
        }
        self.irq_run += 1;
        self.irq_level
    }

    fn observe(
        &mut self,
        table: &mut ContextTable,
        actual: &SlaveSignals,
        data_phase_first: Option<bool>,
    ) {
        self.rdata.observe(actual.rdata);
        if let Some(first_beat) = data_phase_first {
            if actual.ready {
                table.observe(self.wait_key(first_beat), self.observing);
                self.push_wait(self.observing);
                self.observing = 0;
            } else {
                self.observing += 1;
            }
        }
        if actual.irq == self.irq_level {
            self.irq_run += 1;
        } else {
            if self.irq_run > 0 {
                table.observe(self.irq_key(self.irq_level), self.irq_run);
            }
            self.irq_level = actual.irq;
            self.irq_run = 1;
        }
    }

    fn predict(&mut self, table: &ContextTable, in_data_phase: bool) -> SlaveSignals {
        let ready = if in_data_phase && self.countdown > 0 {
            self.countdown -= 1;
            false
        } else {
            true
        };
        SlaveSignals {
            ready,
            resp: Hresp::Okay,
            rdata: self.rdata.predict(),
            split_unmask: 0,
            irq: self.irq_advance(table),
        }
    }
}

impl SlavePredictor for ContextSlavePredictor {
    fn observe(&mut self, actual: &SlaveSignals, data_phase_first: Option<bool>) {
        self.timeline
            .observe(&mut self.table, actual, data_phase_first);
    }

    fn begin_phase(&mut self, first_beat: bool) {
        let key = self.timeline.wait_key(first_beat);
        self.timeline.countdown = self.table.predict(key).unwrap_or(0);
    }

    fn predict(&mut self, in_data_phase: bool) -> SlaveSignals {
        self.timeline.predict(&self.table, in_data_phase)
    }
}

impl Snapshot for SlaveTimeline {
    fn save(&self, w: &mut StateWriter<'_>) {
        self.rdata.save(w);
        w.slice_u32(&self.whist);
        w.u32(self.observing)
            .u32(self.countdown)
            .bool(self.irq_level)
            .u32(self.irq_run);
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.rdata.restore(r)?;
        restore_array(r, &mut self.whist)?;
        self.observing = r.u32()?;
        self.countdown = r.u32()?;
        self.irq_level = r.bool()?;
        self.irq_run = r.u32()?;
        Ok(())
    }
}

/// The table, then the timeline; a mark journals the table and copies the
/// timeline.
impl Snapshot for ContextSlavePredictor {
    fn save(&self, w: &mut StateWriter<'_>) {
        self.table.save(w);
        self.timeline.save(w);
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.table.restore(r)?;
        self.timeline.restore(r)
    }

    fn mark(&mut self, w: &mut StateWriter<'_>) {
        self.table.mark(w);
        self.timeline.save(w);
    }

    fn rewind(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.table.rewind(r)?;
        self.timeline.restore(r)
    }

    fn release(&mut self) {
        self.table.release();
    }
}

/// The Markov suite: [`ContextMasterPredictor`] + [`ContextSlavePredictor`]
/// for every remote component — the sequence-learning counterpart to the
/// structural [`PaperSuite`](crate::PaperSuite).
#[derive(Debug, Clone, Copy, Default)]
pub struct MarkovSuite;

impl PredictorSuite for MarkovSuite {
    fn master_predictor(&self, _index: usize) -> Box<dyn MasterPredictor> {
        Box::new(ContextMasterPredictor::new())
    }

    fn slave_predictor(&self, _index: usize) -> Box<dyn SlavePredictor> {
        Box::new(ContextSlavePredictor::new())
    }

    fn name(&self) -> &'static str {
        "markov"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predpkt_ahb::signals::{Hburst, Hsize};
    use predpkt_sim::{mark_into, restore_from_vec, rewind_from_vec, save_to_vec, StateVec};

    #[test]
    fn table_learns_and_evicts_deterministically() {
        let mut t = ContextTable::new();
        t.observe(10, 5);
        assert_eq!(t.predict(10), Some(5));
        // Reinforce, then contradict: confidence decays before eviction.
        t.observe(10, 5);
        t.observe(10, 9);
        assert_eq!(t.predict(10), Some(5), "one contradiction only decays");
        t.observe(10, 9);
        t.observe(10, 9);
        assert_eq!(t.predict(10), Some(9), "sustained contradiction evicts");
        // Two equal tables stay equal under the same stream.
        let mut a = ContextTable::new();
        let mut b = ContextTable::new();
        for i in 0..1000u64 {
            a.observe(i % 13, (i % 7) as u32);
            b.observe(i % 13, (i % 7) as u32);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn table_snapshot_roundtrip() {
        let mut t = ContextTable::new();
        for i in 0..500u64 {
            t.observe(i.wrapping_mul(0x9e37), (i % 11) as u32);
        }
        let state = save_to_vec(&t);
        let mut copy = ContextTable::new();
        restore_from_vec(&mut copy, &state).unwrap();
        assert_eq!(copy, t);
    }

    #[test]
    fn table_rolls_back_by_journal_and_refuses_a_confidence_it_cannot_make() {
        let mut t = ContextTable::new();
        for i in 0..300u64 {
            t.observe(i.wrapping_mul(0x9e37), (i % 5) as u32);
        }
        let saved = save_to_vec(&t);
        let mut mark = StateVec::new();
        mark_into(&mut t, &mut mark);
        assert_eq!((mark.len(), mark.billed_len()), (0, saved.len()));
        for i in 0..40u64 {
            t.observe(i * 3, 9);
        }
        assert_ne!(save_to_vec(&t), saved);
        rewind_from_vec(&mut t, &mark).unwrap();
        assert_eq!(save_to_vec(&t), saved);

        // Slot 17 of the confidence column, behind two prefixed columns and
        // its own prefix.
        let at = 2 * (TABLE_SLOTS + 1) + 1 + 17;
        let mut words = saved.words().to_vec();
        words[at] = u64::from(CONF_MAX) + 1;
        let mut copy = ContextTable::new();
        assert_eq!(
            restore_from_vec(&mut copy, &StateVec::from(words)),
            Err(SnapshotError::Corrupt { at })
        );
        restore_from_vec(&mut copy, &saved).unwrap();
        assert_eq!(copy, t);
    }

    fn nonseq(addr: u32) -> MasterSignals {
        MasterSignals {
            busreq: true,
            trans: Htrans::Nonseq,
            addr,
            size: Hsize::Word,
            burst: Hburst::Single,
            ..MasterSignals::idle()
        }
    }

    /// One period of a scripted master: `quiet` idle cycles, one request
    /// cycle, one accepted NONSEQ at `addr`, one busy tail cycle.
    fn feed_period(p: &mut ContextMasterPredictor, quiet: u32, addr: u32) {
        for _ in 0..quiet {
            p.observe(&MasterSignals::idle(), true);
        }
        p.observe(
            &MasterSignals {
                busreq: true,
                ..MasterSignals::idle()
            },
            true,
        );
        p.observe(&nonseq(addr), true);
        p.observe(
            &MasterSignals {
                busreq: true,
                ..MasterSignals::idle()
            },
            true,
        );
    }

    #[test]
    fn master_learns_gapped_single_stream() {
        // A looping single-word walker with a constant stride and gap: the
        // shape where last-value and the paper suite miss every request.
        let mut p = ContextMasterPredictor::new();
        let mut addr = 0x100;
        for _ in 0..6 {
            feed_period(&mut p, 3, addr);
            addr += 0x10;
        }
        // Replay one period speculatively: quiet, quiet, quiet, request,
        // then the NONSEQ at the next stride.
        let mut got_issue = None;
        for cycle in 0..8 {
            let sig = p.predict();
            if sig.trans == Htrans::Nonseq {
                got_issue = Some((cycle, sig.addr));
                break;
            }
        }
        let (cycle, issued_addr) = got_issue.expect("a request must be predicted");
        assert_eq!(
            issued_addr, addr,
            "stride context predicts the next address"
        );
        assert!(
            (3..=6).contains(&cycle),
            "request timing follows the learned gap (got cycle {cycle})"
        );
    }

    #[test]
    fn master_snapshot_roundtrip_mid_stream() {
        let mut p = ContextMasterPredictor::new();
        for i in 0..5 {
            feed_period(&mut p, 2, 0x40 * i);
        }
        p.predict();
        let state = save_to_vec(&p);
        let mut copy = ContextMasterPredictor::new();
        restore_from_vec(&mut copy, &state).unwrap();
        assert_eq!(copy, p);
        assert_eq!(copy.predict(), p.predict());
    }

    #[test]
    fn slave_learns_irq_period() {
        let mut p = ContextSlavePredictor::new();
        let pulse = |level: bool| SlaveSignals {
            irq: level,
            ..SlaveSignals::idle()
        };
        // 7 low, 1 high, repeated.
        for _ in 0..5 {
            for _ in 0..7 {
                p.observe(&pulse(false), None);
            }
            p.observe(&pulse(true), None);
        }
        // Predict forward from the last observed high pulse: 7 low cycles
        // (indices 0..=6), then the edge exactly on the learned period.
        let mut first_high = None;
        for cycle in 0..10 {
            if p.predict(false).irq {
                first_high = Some(cycle);
                break;
            }
        }
        assert_eq!(first_high, Some(7), "edge predicted at the learned dwell");
    }

    #[test]
    fn slave_contextual_waits_beat_averaging() {
        let mut p = ContextSlavePredictor::new();
        let ready = |r: bool| SlaveSignals {
            ready: r,
            ..SlaveSignals::idle()
        };
        // Alternating 2-wait / 0-wait first beats (a FIFO drain cadence).
        for _ in 0..8 {
            p.observe(&ready(false), Some(true));
            p.observe(&ready(false), Some(true));
            p.observe(&ready(true), Some(true));
            p.observe(&ready(true), Some(true));
        }
        // After a 0-wait phase the context predicts a 2-wait phase.
        p.begin_phase(true);
        assert!(!p.predict(true).ready);
        assert!(!p.predict(true).ready);
        assert!(p.predict(true).ready);
    }

    #[test]
    fn slave_snapshot_roundtrip() {
        let mut p = ContextSlavePredictor::new();
        for i in 0..20u32 {
            p.observe(
                &SlaveSignals {
                    ready: i % 3 != 0,
                    irq: i % 5 == 0,
                    rdata: i,
                    ..SlaveSignals::idle()
                },
                Some(i % 2 == 0),
            );
        }
        p.begin_phase(true);
        let state = save_to_vec(&p);
        let mut copy = ContextSlavePredictor::new();
        restore_from_vec(&mut copy, &state).unwrap();
        assert_eq!(copy, p);
    }

    #[test]
    fn markov_suite_name_and_factories() {
        assert_eq!(MarkovSuite.name(), "markov");
        let _m = MarkovSuite.master_predictor(0);
        let _s = MarkovSuite.slave_predictor(1);
    }
}
