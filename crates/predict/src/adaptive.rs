//! Online strategy selection: predictors that race candidate strategies and
//! switch to the winner mid-run.
//!
//! No single suite wins everywhere: the structural [`PaperSuite`] is exact
//! inside bursts, the Markov predictors win on repeating request sequences,
//! and last-value is unbeatable on a truly quiet component. The adaptive
//! predictors here run all three candidates **in lockstep** — every candidate
//! trains on every actual — score them with shadow predictions, and forward
//! `predict` to whichever candidate is currently most accurate. A shadow is
//! taken without advancing its candidate: the Markov candidate peeks (its
//! timeline is copied, its table only read), the two small ones predict on a
//! clone, so scoring allocates nothing.
//!
//! Switching strategy is *free for correctness* (the lagger verifies the
//! predicted vector it received, not the strategy that produced it) but not
//! free on real co-emulation hardware: the domains must agree on a strategy
//! epoch, which costs a small control message. To keep reported traffic
//! honest, every switch accrues [`AdaptiveConfig::switch_words`] control
//! words, which the session drains via
//! [`MasterPredictor::take_control_words`] and bills through the channel cost
//! model as piggybacked burst payload. See the crate quickstart for the
//! billing path.
//!
//! [`PaperSuite`]: crate::PaperSuite

use crate::context::{ContextMasterPredictor, ContextSlavePredictor};
use crate::suite::{
    LastValueMasterPredictor, LastValueSlavePredictor, MasterPredictor, PaperMasterPredictor,
    PaperSlavePredictor, PredictorSuite, SlavePredictor,
};
use predpkt_ahb::signals::{MasterSignals, SlaveSignals};
use predpkt_sim::{declare_state, Each, Snapshot};

/// Number of candidate strategies raced by each adaptive predictor.
const CANDIDATES: usize = 3;

/// Tuning knobs for the adaptive predictors.
///
/// The defaults favour stability: a challenger must out-hit the incumbent by
/// a clear margin, and after a switch the choice is frozen for a cooldown so
/// two near-tied strategies cannot thrash (each switch costs control words).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveConfig {
    /// Scoring window: when the sample count reaches this, all hit counters
    /// halve (exponential decay — old evidence fades, the race stays live).
    pub window: u32,
    /// Hysteresis: a challenger switches in only when it leads the incumbent
    /// by at least this many hits within the window.
    pub margin: u32,
    /// Minimum observations between switches.
    pub cooldown: u32,
    /// Control words billed per strategy switch.
    pub switch_words: u32,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            window: 128,
            margin: 8,
            cooldown: 64,
            switch_words: 2,
        }
    }
}

/// Shared scoreboard: the candidates' shadow predictions of the next actual
/// (signal bundles of type `S`), and lockstep hit counters with decay,
/// hysteresis and cooldown. Pure bookkeeping, deterministic by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Scoreboard<S> {
    cfg: AdaptiveConfig,
    /// Each candidate's prediction for the next actual.
    shadow: [S; CANDIDATES],
    /// `false` until the first observation has taken shadows.
    shadow_valid: bool,
    hits: [u32; CANDIDATES],
    samples: u32,
    active: u32,
    cooldown: u32,
    pending_words: u32,
    switches: u64,
}

impl<S: Copy> Scoreboard<S> {
    fn new(cfg: AdaptiveConfig, idle: S) -> Self {
        Scoreboard {
            cfg,
            shadow: [idle; CANDIDATES],
            shadow_valid: false,
            hits: [0; CANDIDATES],
            samples: 0,
            active: 0,
            cooldown: 0,
            pending_words: 0,
            switches: 0,
        }
    }

    /// Scores the shadows against the actual now observed, if any were
    /// taken: `hit(s)` says whether shadow `s` matched it.
    fn score(&mut self, hit: impl Fn(&S) -> bool) {
        if !self.shadow_valid {
            return;
        }
        for (h, s) in self.hits.iter_mut().zip(&self.shadow) {
            *h += hit(s) as u32;
        }
        self.samples += 1;
        if self.samples >= self.cfg.window {
            for h in &mut self.hits {
                *h /= 2;
            }
            self.samples /= 2;
        }
        self.cooldown = self.cooldown.saturating_sub(1);
    }

    /// Records the candidates' predictions for the next actual.
    fn set_shadows(&mut self, shadow: [S; CANDIDATES]) {
        self.shadow = shadow;
        self.shadow_valid = true;
    }

    /// Possibly switches the active candidate; called from `predict` only, so
    /// a lagger (which observes but never predicts) never accrues switches.
    /// The bill saturates: its words drain at each flush, and nothing bounds
    /// how many switches a restored board owes before the next one.
    fn maybe_switch(&mut self) {
        if self.cooldown > 0 {
            return;
        }
        let mut best = 0usize;
        for i in 1..CANDIDATES {
            if self.hits[i] > self.hits[best] {
                best = i;
            }
        }
        if best as u32 != self.active
            && self.hits[best] >= self.hits[self.active as usize] + self.cfg.margin
        {
            self.active = best as u32;
            self.switches = self.switches.saturating_add(1);
            self.pending_words = self.pending_words.saturating_add(self.cfg.switch_words);
            self.cooldown = self.cfg.cooldown;
        }
    }

    fn take_control_words(&mut self) -> u32 {
        std::mem::take(&mut self.pending_words)
    }
}

// The shadows, their flag, then the counters.
declare_state! {
    impl<S: Snapshot> Scoreboard<S> {
        shadow: Each,
        shadow_valid,
        hits,
        samples => Scoreboard::scored,
        active => |b, _| (b.active as usize) < CANDIDATES,
        cooldown,
        pending_words,
        switches,
    }
}

impl<S> Scoreboard<S> {
    /// A board scoring can build: `score` halves at the window, so `samples`
    /// (its first word at `at`) stays below it, or at 0 for a window of 0,
    /// and a candidate hits at most once per sample, so a hit count above the
    /// samples is refused at its own word, among the hits just before.
    fn scored(&self, at: usize) -> Result<(), usize> {
        if self.samples >= self.cfg.window.max(1) {
            return Err(at);
        }
        match self.hits.iter().position(|&h| h > self.samples) {
            Some(i) => Err(at - CANDIDATES + i),
            None => Ok(()),
        }
    }
}

/// A master prediction "hits" when it gets the consequential fields right:
/// arbitration request, whether an active phase is driven, and — when one is
/// — its address and type. Data/sideband mismatches are cheaper (they rarely
/// decide a rollback alone) and are deliberately not scored.
fn master_hit(predicted: &MasterSignals, actual: &MasterSignals) -> bool {
    predicted.busreq == actual.busreq
        && predicted.trans.is_active() == actual.trans.is_active()
        && (!actual.trans.is_active()
            || (predicted.addr == actual.addr && predicted.trans == actual.trans))
}

/// A slave prediction "hits" when HREADY and the interrupt level are right —
/// the two signals whose mispredictions force rollbacks in practice.
fn slave_hit(predicted: &SlaveSignals, actual: &SlaveSignals) -> bool {
    predicted.ready == actual.ready && predicted.irq == actual.irq
}

/// Adaptive master predictor: races [`PaperMasterPredictor`],
/// [`LastValueMasterPredictor`] and [`ContextMasterPredictor`], forwarding
/// `predict` to the current leader of the scoreboard.
///
/// Scoring uses **shadow predictions**: after each observation, every
/// candidate's prediction for the next cycle is taken without advancing the
/// candidate and stored; the next actual is compared against those shadows.
/// The paper and last-value candidates hold no heap state and predict on a
/// clone; the Markov candidate [`peek`](ContextMasterPredictor::peek)s, which
/// predicts on a copy of its timeline and reads its table in place. Either way
/// the candidates' internal timelines (burst trackers, run counters) are
/// untouched by scoring, so each candidate behaves exactly as it would
/// running alone.
///
/// A rollback mark copies the paper and last-value candidates and the
/// scoreboard, and marks the Markov candidate, whose table is journaled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdaptiveMasterPredictor {
    paper: PaperMasterPredictor,
    naive: LastValueMasterPredictor,
    markov: ContextMasterPredictor,
    board: Scoreboard<MasterSignals>,
}

impl Default for AdaptiveMasterPredictor {
    fn default() -> Self {
        Self::new(AdaptiveConfig::default())
    }
}

impl AdaptiveMasterPredictor {
    /// Creates the predictor; the paper suite starts as the incumbent.
    pub fn new(cfg: AdaptiveConfig) -> Self {
        AdaptiveMasterPredictor {
            paper: PaperMasterPredictor::new(),
            naive: LastValueMasterPredictor::new(),
            markov: ContextMasterPredictor::new(),
            board: Scoreboard::new(cfg, MasterSignals::idle()),
        }
    }

    /// Index of the currently active candidate strategy
    /// (0 = paper, 1 = last-value, 2 = markov).
    pub fn active_strategy(&self) -> u32 {
        self.board.active
    }

    /// Total strategy switches so far.
    pub fn switches(&self) -> u64 {
        self.board.switches
    }
}

impl MasterPredictor for AdaptiveMasterPredictor {
    fn observe(&mut self, actual: &MasterSignals, accepted: bool) {
        self.board.score(|s| master_hit(s, actual));
        self.paper.observe(actual, accepted);
        self.naive.observe(actual, accepted);
        self.markov.observe(actual, accepted);
        self.board.set_shadows([
            self.paper.clone().predict(),
            self.naive.clone().predict(),
            self.markov.peek(),
        ]);
    }

    fn predict(&mut self) -> MasterSignals {
        self.board.maybe_switch();
        // The speculative timeline belongs to the active candidate alone; the
        // others stand still and re-sync from actuals after the flush.
        match self.board.active {
            0 => self.paper.predict(),
            1 => self.naive.predict(),
            _ => self.markov.predict(),
        }
    }

    fn take_control_words(&mut self) -> u32 {
        self.board.take_control_words()
    }
}

// The three candidates, then the scoreboard.
declare_state! {
    impl AdaptiveMasterPredictor {
        paper,
        naive,
        markov,
        board,
    }
}

/// Adaptive slave predictor: races [`PaperSlavePredictor`],
/// [`LastValueSlavePredictor`] and [`ContextSlavePredictor`] with the same
/// shadow-prediction scoreboard and rollback split as
/// [`AdaptiveMasterPredictor`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdaptiveSlavePredictor {
    paper: PaperSlavePredictor,
    naive: LastValueSlavePredictor,
    markov: ContextSlavePredictor,
    board: Scoreboard<SlaveSignals>,
}

impl Default for AdaptiveSlavePredictor {
    fn default() -> Self {
        Self::new(AdaptiveConfig::default())
    }
}

impl AdaptiveSlavePredictor {
    /// Creates the predictor; the paper suite starts as the incumbent.
    pub fn new(cfg: AdaptiveConfig) -> Self {
        AdaptiveSlavePredictor {
            paper: PaperSlavePredictor::new(),
            naive: LastValueSlavePredictor::new(),
            markov: ContextSlavePredictor::new(),
            board: Scoreboard::new(cfg, SlaveSignals::idle()),
        }
    }

    /// Index of the currently active candidate strategy
    /// (0 = paper, 1 = last-value, 2 = markov).
    pub fn active_strategy(&self) -> u32 {
        self.board.active
    }

    /// Total strategy switches so far.
    pub fn switches(&self) -> u64 {
        self.board.switches
    }
}

impl SlavePredictor for AdaptiveSlavePredictor {
    fn observe(&mut self, actual: &SlaveSignals, data_phase_first: Option<bool>) {
        self.board.score(|s| slave_hit(s, actual));
        self.paper.observe(actual, data_phase_first);
        self.naive.observe(actual, data_phase_first);
        self.markov.observe(actual, data_phase_first);
        let in_dp = data_phase_first.is_some();
        self.board.set_shadows([
            self.paper.clone().predict(in_dp),
            self.naive.clone().predict(in_dp),
            self.markov.peek(in_dp),
        ]);
    }

    fn begin_phase(&mut self, first_beat: bool) {
        self.paper.begin_phase(first_beat);
        self.naive.begin_phase(first_beat);
        self.markov.begin_phase(first_beat);
    }

    fn predict(&mut self, in_data_phase: bool) -> SlaveSignals {
        self.board.maybe_switch();
        match self.board.active {
            0 => self.paper.predict(in_data_phase),
            1 => self.naive.predict(in_data_phase),
            _ => self.markov.predict(in_data_phase),
        }
    }

    fn take_control_words(&mut self) -> u32 {
        self.board.take_control_words()
    }
}

declare_state! {
    impl AdaptiveSlavePredictor {
        paper,
        naive,
        markov,
        board,
    }
}

/// The adaptive suite: every remote component gets an adaptive predictor
/// racing paper/last-value/markov strategies with this configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdaptiveSuite {
    /// Tuning shared by every predictor the suite creates.
    pub cfg: AdaptiveConfig,
}

impl PredictorSuite for AdaptiveSuite {
    fn master_predictor(&self, _index: usize) -> Box<dyn MasterPredictor> {
        Box::new(AdaptiveMasterPredictor::new(self.cfg))
    }

    fn slave_predictor(&self, _index: usize) -> Box<dyn SlavePredictor> {
        Box::new(AdaptiveSlavePredictor::new(self.cfg))
    }

    fn name(&self) -> &'static str {
        "adaptive"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predpkt_ahb::signals::Htrans;
    use predpkt_sim::{restore_from_vec, save_to_vec, SnapshotError, StateVec};

    /// A switch-friendly config for short unit-test streams.
    fn fast_cfg() -> AdaptiveConfig {
        AdaptiveConfig {
            window: 64,
            margin: 4,
            cooldown: 8,
            switch_words: 2,
        }
    }

    #[test]
    fn adaptive_master_switches_and_bills_on_predictable_stream() {
        // A gapped single-word walker: markov learns it, paper/last-value
        // miss every request edge, so the scoreboard must flip to markov.
        let mut p = AdaptiveMasterPredictor::new(fast_cfg());
        let mut addr = 0x1000u32;
        for _ in 0..40 {
            for _ in 0..3 {
                p.observe(&MasterSignals::idle(), true);
            }
            p.observe(
                &MasterSignals {
                    busreq: true,
                    ..MasterSignals::idle()
                },
                true,
            );
            p.observe(
                &MasterSignals {
                    busreq: true,
                    trans: Htrans::Nonseq,
                    addr,
                    ..MasterSignals::idle()
                },
                true,
            );
            p.observe(
                &MasterSignals {
                    busreq: true,
                    ..MasterSignals::idle()
                },
                true,
            );
            addr = addr.wrapping_add(0x20);
            p.predict(); // give the scoreboard a switch opportunity
        }
        assert_eq!(p.active_strategy(), 2, "markov must win this stream");
        assert!(p.switches() >= 1);
        let billed = p.take_control_words();
        assert_eq!(billed as u64, p.switches() * fast_cfg().switch_words as u64);
        assert_eq!(p.take_control_words(), 0, "drain is one-shot");
    }

    #[test]
    fn adaptive_slave_scores_in_lockstep() {
        let mut p = AdaptiveSlavePredictor::new(fast_cfg());
        for i in 0..30u32 {
            p.observe(
                &SlaveSignals {
                    ready: i % 2 == 0,
                    ..SlaveSignals::idle()
                },
                Some(i % 4 == 0),
            );
        }
        // All candidates were scored the same number of times.
        assert!(p.board.samples > 0);
        assert!(p.board.hits.iter().all(|&h| h <= p.board.samples));
    }

    /// Both predictors after 50 scored observations, with a prediction (a
    /// switch opportunity) every sixth.
    fn driven() -> (AdaptiveMasterPredictor, AdaptiveSlavePredictor) {
        let mut m = AdaptiveMasterPredictor::new(fast_cfg());
        let mut s = AdaptiveSlavePredictor::new(fast_cfg());
        for i in 0..50u32 {
            m.observe(
                &MasterSignals {
                    busreq: i % 3 != 0,
                    trans: if i % 5 == 0 {
                        Htrans::Nonseq
                    } else {
                        Htrans::Idle
                    },
                    addr: i * 4,
                    ..MasterSignals::idle()
                },
                true,
            );
            s.observe(
                &SlaveSignals {
                    ready: i % 4 != 0,
                    irq: i % 7 == 0,
                    rdata: i,
                    ..SlaveSignals::idle()
                },
                Some(i % 2 == 0),
            );
            if i % 6 == 0 {
                m.predict();
                s.predict(true);
            }
        }
        (m, s)
    }

    #[test]
    fn adaptive_predictors_snapshot_roundtrip() {
        let (mut m, mut s) = driven();
        let mw = save_to_vec(&m);
        let sw = save_to_vec(&s);
        let mut m2 = AdaptiveMasterPredictor::new(fast_cfg());
        let mut s2 = AdaptiveSlavePredictor::new(fast_cfg());
        restore_from_vec(&mut m2, &mw).unwrap();
        restore_from_vec(&mut s2, &sw).unwrap();
        assert_eq!(m2, m);
        assert_eq!(s2, s);
        assert_eq!(m2.predict(), m.predict());
        assert_eq!(s2.predict(false), s.predict(false));
    }

    /// `donor`'s saved words with one scoreboard word replaced are refused as
    /// corrupt at that word, for a sample count at or past the window and a
    /// hit count above the samples (the words on which `score` overflowed);
    /// `target` then still takes the good words.
    fn assert_impossible_boards_refused<P>(donor: &P, target: &mut P)
    where
        P: Snapshot + PartialEq + std::fmt::Debug,
    {
        let saved = save_to_vec(donor);
        // The board ends the vector: hits (length-prefixed), samples,
        // active, cooldown, pending words, switches.
        let hits = saved.len() - 8;
        let samples_at = hits + 3;
        let samples = saved.words()[samples_at];
        assert!(samples > 0, "the donor has scored");
        let max = u64::from(u32::MAX);
        let window = u64::from(fast_cfg().window);
        for (at, bad) in [
            (hits, max),
            (hits + 2, samples + 1),
            (samples_at, max),
            (samples_at, window),
        ] {
            let mut words = saved.words().to_vec();
            words[at] = bad;
            assert_eq!(
                restore_from_vec(target, &StateVec::from(words)),
                Err(SnapshotError::Corrupt { at }),
                "word {at} = {bad}"
            );
            restore_from_vec(target, &saved).expect("the good words restore");
            assert_eq!(target, donor);
        }
    }

    #[test]
    fn a_board_scoring_cannot_build_is_refused() {
        let (m, s) = driven();
        assert_impossible_boards_refused(&m, &mut AdaptiveMasterPredictor::new(fast_cfg()));
        assert_impossible_boards_refused(&s, &mut AdaptiveSlavePredictor::new(fast_cfg()));
    }

    /// `donor`'s words with a board that owes all the words and switches it
    /// can count and has a switch due: hits `[0, 10, 0]` over 10 samples,
    /// the paper candidate active, no cooldown.
    fn owing_board<P: Snapshot>(donor: &P) -> StateVec {
        let mut words = save_to_vec(donor).words().to_vec();
        // The board ends the vector: hits (after their length word),
        // samples, active, cooldown, pending words, switches.
        let hits = words.len() - 8;
        let owed = [0, 10, 0, 10, 0, 0, u64::from(u32::MAX), u64::MAX];
        words[hits..].copy_from_slice(&owed);
        StateVec::from(words)
    }

    /// The bill drains only at a flush, so a restored board may owe any
    /// count: the switch it makes next saturates the bill instead of
    /// overflowing it.
    #[test]
    fn a_switch_saturates_the_bill_of_a_restored_board() {
        let (m, s) = driven();
        let mut master = AdaptiveMasterPredictor::new(fast_cfg());
        restore_from_vec(&mut master, &owing_board(&m)).expect("the board restores");
        master.predict();
        let mut slave = AdaptiveSlavePredictor::new(fast_cfg());
        restore_from_vec(&mut slave, &owing_board(&s)).expect("the board restores");
        slave.predict(false);
        assert_eq!((master.active_strategy(), master.switches()), (1, u64::MAX));
        assert_eq!(master.take_control_words(), u32::MAX);
        assert_eq!((slave.active_strategy(), slave.switches()), (1, u64::MAX));
        assert_eq!(slave.take_control_words(), u32::MAX);
    }

    #[test]
    fn scoreboard_respects_hysteresis_and_cooldown() {
        let mut b = Scoreboard::new(fast_cfg(), MasterSignals::idle());
        // Candidate 2 leads but below the margin: no switch.
        b.hits = [2, 0, 5];
        b.maybe_switch();
        assert_eq!(b.active, 0);
        // Above the margin: switch, bill, enter cooldown.
        b.hits = [2, 0, 7];
        b.maybe_switch();
        assert_eq!(b.active, 2);
        assert_eq!(b.pending_words, fast_cfg().switch_words);
        // During cooldown nothing moves, even with a huge lead.
        b.hits = [20, 0, 0];
        b.maybe_switch();
        assert_eq!(b.active, 2);
    }

    #[test]
    fn suite_name_and_factories() {
        let suite = AdaptiveSuite::default();
        assert_eq!(suite.name(), "adaptive");
        let _m = suite.master_predictor(0);
        let _s = suite.slave_predictor(0);
    }
}
