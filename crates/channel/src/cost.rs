//! Channel cost model: layered startup overhead + direction-dependent payload.

use predpkt_sim::VirtualTime;
use std::fmt;

/// The two ends of the co-emulation channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Side {
    /// The software simulator domain (transaction-level models).
    Simulator,
    /// The hardware accelerator domain (RTL models).
    Accelerator,
}

impl Side {
    /// The opposite end.
    pub fn peer(self) -> Side {
        match self {
            Side::Simulator => Side::Accelerator,
            Side::Accelerator => Side::Simulator,
        }
    }

    /// The direction of a transfer *sent from* this side.
    pub fn outbound(self) -> Direction {
        match self {
            Side::Simulator => Direction::SimToAcc,
            Side::Accelerator => Direction::AccToSim,
        }
    }
}

impl fmt::Display for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Side::Simulator => f.write_str("simulator"),
            Side::Accelerator => f.write_str("accelerator"),
        }
    }
}

/// Transfer direction over the channel.
///
/// The paper measured asymmetric payload rates: writes toward the accelerator
/// stream at 49.95 ns/word, reads back at 75.73 ns/word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Direction {
    /// Simulator → accelerator (the paper's 49.95 ns/word direction).
    #[default]
    SimToAcc,
    /// Accelerator → simulator (the paper's 75.73 ns/word direction).
    AccToSim,
}

impl Direction {
    /// Both directions, forward first.
    pub const BOTH: [Direction; 2] = [Direction::SimToAcc, Direction::AccToSim];

    pub(crate) fn index(self) -> usize {
        match self {
            Direction::SimToAcc => 0,
            Direction::AccToSim => 1,
        }
    }

    /// The direction's checkpoint word: its index.
    fn encode(self) -> u32 {
        self.index() as u32
    }

    /// The direction a checkpoint word names, if any.
    fn decode(word: u32) -> Option<Direction> {
        Direction::BOTH.get(word as usize).copied()
    }
}

predpkt_sim::declare_state! { impl Direction: word(encode, decode) }

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::SimToAcc => f.write_str("sim->acc"),
            Direction::AccToSim => f.write_str("acc->sim"),
        }
    }
}

/// Startup overhead decomposed into the paper's three layers
/// ("layers of API, device driver, and physical media each with static startup
/// overhead", §1.2).
///
/// # Example
///
/// ```
/// use predpkt_channel::LayeredStartup;
/// use predpkt_sim::VirtualTime;
/// let layers = LayeredStartup::iprove_pci();
/// assert_eq!(layers.total(), VirtualTime::from_nanos(12_200));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayeredStartup {
    /// User-space API call overhead.
    pub api: VirtualTime,
    /// Kernel device-driver overhead (syscall, DMA setup).
    pub driver: VirtualTime,
    /// Physical-medium transaction setup (PCI bus acquisition).
    pub physical: VirtualTime,
}

impl LayeredStartup {
    /// The iPROVE PCI breakdown. The paper reports only the 12.2 µs total; the
    /// split (1.2 / 8.0 / 3.0 µs) is a representative decomposition for a 33 MHz
    /// PCI target behind an ioctl-style driver and sums exactly to the total.
    pub fn iprove_pci() -> Self {
        LayeredStartup {
            api: VirtualTime::from_nanos(1_200),
            driver: VirtualTime::from_nanos(8_000),
            physical: VirtualTime::from_nanos(3_000),
        }
    }

    /// Sum of all three layers: the per-access startup overhead.
    pub fn total(self) -> VirtualTime {
        self.api + self.driver + self.physical
    }
}

/// Virtual-time cost model of one channel access.
///
/// An access transferring `n` words in direction `d` costs
/// `startup + n * per_word(d)`.
///
/// # Example
///
/// ```
/// use predpkt_channel::{ChannelCostModel, Direction};
/// let pci = ChannelCostModel::iprove_pci();
/// let burst = pci.access_cost(Direction::AccToSim, 64);
/// assert_eq!(burst.as_picos(), 12_200_000 + 64 * 75_730);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelCostModel {
    startup: VirtualTime,
    per_word: [VirtualTime; 2],
}

impl ChannelCostModel {
    /// Creates a model from a flat startup overhead and per-direction word costs.
    pub fn new(
        startup: VirtualTime,
        per_word_sim_to_acc: VirtualTime,
        per_word_acc_to_sim: VirtualTime,
    ) -> Self {
        ChannelCostModel {
            startup,
            per_word: [per_word_sim_to_acc, per_word_acc_to_sim],
        }
    }

    /// Creates a model whose startup is the sum of [`LayeredStartup`] components.
    pub fn from_layers(
        layers: LayeredStartup,
        per_word_sim_to_acc: VirtualTime,
        per_word_acc_to_sim: VirtualTime,
    ) -> Self {
        Self::new(layers.total(), per_word_sim_to_acc, per_word_acc_to_sim)
    }

    /// The paper's measured iPROVE PCI channel: 12.2 µs startup, 49.95 ns/word
    /// simulator→accelerator, 75.73 ns/word accelerator→simulator
    /// (Pentium-4 2.8 GHz host, 32-bit PCI at 33 MHz).
    pub fn iprove_pci() -> Self {
        Self::from_layers(
            LayeredStartup::iprove_pci(),
            VirtualTime::from_picos(49_950),
            VirtualTime::from_picos(75_730),
        )
    }

    /// An idealized channel with zero startup overhead (ablation baseline: with
    /// no startup cost the optimistic scheme has nothing to amortize).
    pub fn zero_startup_like_iprove() -> Self {
        Self::new(
            VirtualTime::ZERO,
            VirtualTime::from_picos(49_950),
            VirtualTime::from_picos(75_730),
        )
    }

    /// Returns a copy with a different startup overhead (ablation A3).
    pub fn with_startup(mut self, startup: VirtualTime) -> Self {
        self.startup = startup;
        self
    }

    /// The per-access startup overhead.
    pub fn startup(&self) -> VirtualTime {
        self.startup
    }

    /// The per-word payload cost in `direction`.
    pub fn per_word(&self, direction: Direction) -> VirtualTime {
        self.per_word[direction.index()]
    }

    /// The full cost of one access moving `words` payload words.
    pub fn access_cost(&self, direction: Direction, words: u64) -> VirtualTime {
        self.startup + self.per_word(direction) * words
    }

    /// Payload efficiency of an access: payload time / total time, in `[0, 1]`.
    ///
    /// This is the §1.2 observation quantified: short transfers waste the channel.
    pub fn efficiency(&self, direction: Direction, words: u64) -> f64 {
        let payload = (self.per_word(direction) * words).as_secs_f64();
        let total = self.access_cost(direction, words).as_secs_f64();
        if total == 0.0 {
            1.0
        } else {
            payload / total
        }
    }

    /// Effective throughput of an access in words/second.
    pub fn throughput_words_per_sec(&self, direction: Direction, words: u64) -> f64 {
        if words == 0 {
            return 0.0;
        }
        words as f64 / self.access_cost(direction, words).as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn side_peer_and_outbound() {
        assert_eq!(Side::Simulator.peer(), Side::Accelerator);
        assert_eq!(Side::Accelerator.peer(), Side::Simulator);
        assert_eq!(Side::Simulator.outbound(), Direction::SimToAcc);
        assert_eq!(Side::Accelerator.outbound(), Direction::AccToSim);
        assert_eq!(Side::Simulator.to_string(), "simulator");
        assert_eq!(Direction::AccToSim.to_string(), "acc->sim");
    }

    #[test]
    fn iprove_constants_match_paper() {
        let m = ChannelCostModel::iprove_pci();
        assert_eq!(m.startup(), VirtualTime::from_nanos(12_200));
        assert_eq!(
            m.per_word(Direction::SimToAcc),
            VirtualTime::from_picos(49_950)
        );
        assert_eq!(
            m.per_word(Direction::AccToSim),
            VirtualTime::from_picos(75_730)
        );
    }

    #[test]
    fn layered_startup_sums_to_total() {
        assert_eq!(
            LayeredStartup::iprove_pci().total(),
            ChannelCostModel::iprove_pci().startup()
        );
    }

    #[test]
    fn access_cost_is_affine_in_words() {
        let m = ChannelCostModel::iprove_pci();
        let zero = m.access_cost(Direction::SimToAcc, 0);
        assert_eq!(zero, m.startup());
        let one = m.access_cost(Direction::SimToAcc, 1);
        let hundred = m.access_cost(Direction::SimToAcc, 100);
        assert_eq!(hundred - zero, (one - zero) * 100);
    }

    #[test]
    fn efficiency_grows_with_burst_size() {
        let m = ChannelCostModel::iprove_pci();
        let mut last = -1.0;
        for words in [1u64, 4, 16, 64, 256, 1024, 4096] {
            let e = m.efficiency(Direction::SimToAcc, words);
            assert!(e > last, "efficiency must increase with size");
            assert!((0.0..=1.0).contains(&e));
            last = e;
        }
        // At 5 words (a typical per-cycle SoC exchange, per the paper) the channel
        // is dreadfully inefficient: > 97% of the time is startup overhead.
        assert!(m.efficiency(Direction::SimToAcc, 5) < 0.03);
    }

    #[test]
    fn zero_startup_is_fully_efficient() {
        let m = ChannelCostModel::zero_startup_like_iprove();
        assert_eq!(m.efficiency(Direction::AccToSim, 1), 1.0);
    }

    #[test]
    fn with_startup_overrides() {
        let m = ChannelCostModel::iprove_pci().with_startup(VirtualTime::from_micros(100));
        assert_eq!(m.startup(), VirtualTime::from_micros(100));
        assert_eq!(
            m.per_word(Direction::SimToAcc),
            VirtualTime::from_picos(49_950)
        );
    }

    #[test]
    fn throughput_saturates_at_line_rate() {
        let m = ChannelCostModel::iprove_pci();
        assert_eq!(m.throughput_words_per_sec(Direction::SimToAcc, 0), 0.0);
        let line_rate = 1.0 / 49.95e-9;
        let big = m.throughput_words_per_sec(Direction::SimToAcc, 1_000_000);
        assert!(big < line_rate);
        assert!(big > line_rate * 0.99);
        let small = m.throughput_words_per_sec(Direction::SimToAcc, 1);
        assert!(small < line_rate * 0.01);
    }
}
