//! Per-direction channel statistics.

use crate::cost::Direction;
use predpkt_sim::VirtualTime;
use std::fmt;

/// Counts accesses, payload words and accumulated virtual time per direction.
///
/// The headline metric of the paper is *channel accesses per target cycle*:
/// conventional co-emulation needs two per cycle, the optimistic scheme
/// amortizes two across an entire transition. [`ChannelStats::total_accesses`]
/// divided by committed cycles gives that figure directly.
///
/// # Example
///
/// ```
/// use predpkt_channel::{ChannelStats, Direction};
/// use predpkt_sim::VirtualTime;
/// let mut stats = ChannelStats::new();
/// stats.record(Direction::SimToAcc, 64, VirtualTime::from_micros(15));
/// assert_eq!(stats.accesses(Direction::SimToAcc), 1);
/// assert_eq!(stats.total_words(), 64);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Forward direction first.
    dirs: [DirStats; 2],
}

/// One direction's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct DirStats {
    accesses: u64,
    words: u64,
    time: VirtualTime,
}

// Six words: per direction, forward first, accesses, words and virtual time
// (picoseconds).
predpkt_sim::declare_state! { impl DirStats { accesses, words, time } }
predpkt_sim::declare_state! { impl ChannelStats { dirs: predpkt_sim::Each } }

impl ChannelStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one access of `words` payload words costing `cost`.
    pub fn record(&mut self, direction: Direction, words: u64, cost: VirtualTime) {
        let dir = &mut self.dirs[direction.index()];
        dir.accesses += 1;
        dir.words += words;
        dir.time += cost;
    }

    /// Records `words` of *piggybacked* payload costing `cost` — control
    /// words riding an access that is already being billed (e.g. adaptive
    /// strategy epochs appended to a burst flush). Words and time accrue,
    /// the access count does not.
    pub fn record_piggyback(&mut self, direction: Direction, words: u64, cost: VirtualTime) {
        let dir = &mut self.dirs[direction.index()];
        dir.words += words;
        dir.time += cost;
    }

    /// Accesses performed in `direction`.
    pub fn accesses(&self, direction: Direction) -> u64 {
        self.dirs[direction.index()].accesses
    }

    /// Payload words moved in `direction`.
    pub fn words(&self, direction: Direction) -> u64 {
        self.dirs[direction.index()].words
    }

    /// Virtual time spent in `direction`.
    pub fn time(&self, direction: Direction) -> VirtualTime {
        self.dirs[direction.index()].time
    }

    /// Accesses summed over both directions.
    pub fn total_accesses(&self) -> u64 {
        self.dirs.iter().map(|d| d.accesses).sum()
    }

    /// Words summed over both directions.
    pub fn total_words(&self) -> u64 {
        self.dirs.iter().map(|d| d.words).sum()
    }

    /// Virtual time summed over both directions.
    pub fn total_time(&self) -> VirtualTime {
        self.dirs.iter().map(|d| d.time).sum()
    }

    /// Mean payload words per access across both directions
    /// (`None` before the first access).
    pub fn mean_words_per_access(&self) -> Option<f64> {
        let n = self.total_accesses();
        (n > 0).then(|| self.total_words() as f64 / n as f64)
    }

    /// Resets all counters.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Merges another statistics block into this one.
    pub fn merge(&mut self, other: &ChannelStats) {
        for (mine, theirs) in self.dirs.iter_mut().zip(&other.dirs) {
            mine.accesses += theirs.accesses;
            mine.words += theirs.words;
            mine.time += theirs.time;
        }
    }
}

impl fmt::Display for ChannelStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "accesses={} (fwd {}, rev {}), words={}, time={}",
            self.total_accesses(),
            self.accesses(Direction::SimToAcc),
            self.accesses(Direction::AccToSim),
            self.total_words(),
            self.total_time()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_on_creation() {
        let s = ChannelStats::new();
        assert_eq!(s.total_accesses(), 0);
        assert_eq!(s.total_words(), 0);
        assert_eq!(s.total_time(), VirtualTime::ZERO);
        assert_eq!(s.mean_words_per_access(), None);
    }

    #[test]
    fn records_per_direction() {
        let mut s = ChannelStats::new();
        s.record(Direction::SimToAcc, 10, VirtualTime::from_nanos(100));
        s.record(Direction::SimToAcc, 20, VirtualTime::from_nanos(200));
        s.record(Direction::AccToSim, 5, VirtualTime::from_nanos(50));
        assert_eq!(s.accesses(Direction::SimToAcc), 2);
        assert_eq!(s.accesses(Direction::AccToSim), 1);
        assert_eq!(s.words(Direction::SimToAcc), 30);
        assert_eq!(s.words(Direction::AccToSim), 5);
        assert_eq!(s.time(Direction::SimToAcc), VirtualTime::from_nanos(300));
        assert_eq!(s.total_accesses(), 3);
        assert_eq!(s.total_words(), 35);
        assert_eq!(s.total_time(), VirtualTime::from_nanos(350));
        assert!((s.mean_words_per_access().unwrap() - 35.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn piggyback_accrues_words_and_time_only() {
        let mut s = ChannelStats::new();
        s.record(Direction::SimToAcc, 10, VirtualTime::from_nanos(100));
        s.record_piggyback(Direction::SimToAcc, 3, VirtualTime::from_nanos(30));
        assert_eq!(s.accesses(Direction::SimToAcc), 1);
        assert_eq!(s.words(Direction::SimToAcc), 13);
        assert_eq!(s.time(Direction::SimToAcc), VirtualTime::from_nanos(130));
    }

    #[test]
    fn reset_and_merge() {
        let mut a = ChannelStats::new();
        a.record(Direction::SimToAcc, 1, VirtualTime::from_nanos(1));
        let mut b = ChannelStats::new();
        b.record(Direction::AccToSim, 2, VirtualTime::from_nanos(2));
        a.merge(&b);
        assert_eq!(a.total_accesses(), 2);
        assert_eq!(a.total_words(), 3);
        a.reset();
        assert_eq!(a, ChannelStats::new());
    }

    #[test]
    fn display_mentions_both_directions() {
        let mut s = ChannelStats::new();
        s.record(Direction::AccToSim, 4, VirtualTime::from_nanos(4));
        let text = s.to_string();
        assert!(text.contains("accesses=1"));
        assert!(text.contains("words=4"));
    }
}
