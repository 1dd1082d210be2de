//! Per-category virtual-time cost accounting.
//!
//! The paper evaluates the optimistic scheme by decomposing the time spent per
//! target clock cycle into five buckets (Table 2): simulator execution, accelerator
//! execution, leader state store, leader state restore, and channel access. The
//! [`TimeLedger`] accumulates exactly those buckets; [`LedgerReport`] normalizes
//! them per committed cycle and inverts the sum into a performance figure, which is
//! precisely how the paper computes its `Perform.` row
//! (`1 / (Tsim + Tacc + Tstore + Trest + Tch)`).

use crate::time::VirtualTime;
use std::fmt;

/// The cost buckets of the paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CostCategory {
    /// Time spent by the software simulator executing target cycles (`Tsim.`).
    Simulator,
    /// Time spent by the hardware accelerator executing target cycles (`Tacc.`).
    Accelerator,
    /// Time spent storing leader state for possible rollback (`Tstore`).
    StateStore,
    /// Time spent restoring leader state on a rollback (`Trestore`).
    StateRestore,
    /// Time spent accessing the simulator–accelerator channel (`Tch.`).
    Channel,
}

impl CostCategory {
    /// All categories in the paper's row order.
    pub const ALL: [CostCategory; 5] = [
        CostCategory::Simulator,
        CostCategory::Accelerator,
        CostCategory::StateStore,
        CostCategory::StateRestore,
        CostCategory::Channel,
    ];

    fn index(self) -> usize {
        match self {
            CostCategory::Simulator => 0,
            CostCategory::Accelerator => 1,
            CostCategory::StateStore => 2,
            CostCategory::StateRestore => 3,
            CostCategory::Channel => 4,
        }
    }

    /// The paper's row label for this bucket.
    pub fn label(self) -> &'static str {
        match self {
            CostCategory::Simulator => "Tsim.",
            CostCategory::Accelerator => "Tacc.",
            CostCategory::StateStore => "Tstore",
            CostCategory::StateRestore => "Trest.",
            CostCategory::Channel => "Tch.",
        }
    }
}

impl fmt::Display for CostCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Accumulates virtual time per [`CostCategory`].
///
/// The co-emulation model is serialized (the paper's performance arithmetic sums
/// the buckets), so the ledger's [`total`](TimeLedger::total) *is* the elapsed
/// virtual wall time of the co-emulation.
///
/// # Example
///
/// ```
/// use predpkt_sim::{CostCategory, TimeLedger, VirtualTime};
/// let mut ledger = TimeLedger::new();
/// ledger.charge(CostCategory::Channel, VirtualTime::from_nanos(12_200));
/// ledger.charge(CostCategory::Simulator, VirtualTime::from_micros(1));
/// assert_eq!(ledger.get(CostCategory::Channel), VirtualTime::from_nanos(12_200));
/// assert_eq!(ledger.total(), VirtualTime::from_picos(13_200_000));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimeLedger {
    buckets: [VirtualTime; 5],
}

impl TimeLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `cost` to `category`.
    pub fn charge(&mut self, category: CostCategory, cost: VirtualTime) {
        self.buckets[category.index()] += cost;
    }

    /// The accumulated time in one bucket.
    pub fn get(&self, category: CostCategory) -> VirtualTime {
        self.buckets[category.index()]
    }

    /// The sum over all buckets (the serialized virtual wall time).
    pub fn total(&self) -> VirtualTime {
        self.buckets.iter().copied().sum()
    }

    /// Resets every bucket to zero.
    pub fn reset(&mut self) {
        self.buckets = Default::default();
    }

    /// Merges another ledger into this one, bucket by bucket.
    pub fn merge(&mut self, other: &TimeLedger) {
        for c in CostCategory::ALL {
            self.charge(c, other.get(c));
        }
    }

    /// Produces a per-cycle report over `committed_cycles` target cycles.
    ///
    /// # Panics
    ///
    /// Panics if `committed_cycles` is zero.
    pub fn report(&self, committed_cycles: u64) -> LedgerReport {
        assert!(
            committed_cycles > 0,
            "report requires at least one committed cycle"
        );
        LedgerReport {
            ledger: self.clone(),
            committed_cycles,
        }
    }
}

// One word per Table 2 bucket, in [`CostCategory::ALL`] order.
crate::declare_state! { impl TimeLedger { buckets: crate::Each } }

/// Per-committed-cycle view of a [`TimeLedger`]: the paper's Table 2 columns.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerReport {
    ledger: TimeLedger,
    committed_cycles: u64,
}

impl LedgerReport {
    /// Seconds spent in `category` per committed target cycle.
    pub fn per_cycle(&self, category: CostCategory) -> f64 {
        self.ledger.get(category).as_secs_f64() / self.committed_cycles as f64
    }

    /// Total seconds per committed target cycle.
    pub fn total_per_cycle(&self) -> f64 {
        self.ledger.total().as_secs_f64() / self.committed_cycles as f64
    }

    /// Emulation performance in target cycles per second
    /// (`1 / (Tsim + Tacc + Tstore + Trest + Tch)`, the paper's `Perform.` row).
    pub fn performance_cps(&self) -> f64 {
        1.0 / self.total_per_cycle()
    }

    /// The number of committed target cycles the report is normalized over.
    pub fn committed_cycles(&self) -> u64 {
        self.committed_cycles
    }

    /// The underlying raw ledger.
    pub fn ledger(&self) -> &TimeLedger {
        &self.ledger
    }
}

impl fmt::Display for LedgerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in CostCategory::ALL {
            writeln!(f, "{:<8} {:.3e} s/cycle", c.label(), self.per_cycle(c))?;
        }
        write!(f, "Perform. {:.1} cycles/sec", self.performance_cps())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ledger_is_zero() {
        let ledger = TimeLedger::new();
        assert_eq!(ledger.total(), VirtualTime::ZERO);
        for c in CostCategory::ALL {
            assert_eq!(ledger.get(c), VirtualTime::ZERO);
        }
    }

    #[test]
    fn charges_accumulate_per_bucket() {
        let mut ledger = TimeLedger::new();
        ledger.charge(CostCategory::Simulator, VirtualTime::from_nanos(10));
        ledger.charge(CostCategory::Simulator, VirtualTime::from_nanos(5));
        ledger.charge(CostCategory::Channel, VirtualTime::from_nanos(7));
        assert_eq!(
            ledger.get(CostCategory::Simulator),
            VirtualTime::from_nanos(15)
        );
        assert_eq!(
            ledger.get(CostCategory::Channel),
            VirtualTime::from_nanos(7)
        );
        assert_eq!(ledger.get(CostCategory::Accelerator), VirtualTime::ZERO);
        assert_eq!(ledger.total(), VirtualTime::from_nanos(22));
    }

    #[test]
    fn reset_clears() {
        let mut ledger = TimeLedger::new();
        ledger.charge(CostCategory::StateStore, VirtualTime::from_nanos(30));
        ledger.reset();
        assert_eq!(ledger.total(), VirtualTime::ZERO);
    }

    #[test]
    fn merge_adds_bucketwise() {
        let mut a = TimeLedger::new();
        a.charge(CostCategory::Simulator, VirtualTime::from_nanos(1));
        let mut b = TimeLedger::new();
        b.charge(CostCategory::Simulator, VirtualTime::from_nanos(2));
        b.charge(CostCategory::StateRestore, VirtualTime::from_nanos(4));
        a.merge(&b);
        assert_eq!(a.get(CostCategory::Simulator), VirtualTime::from_nanos(3));
        assert_eq!(
            a.get(CostCategory::StateRestore),
            VirtualTime::from_nanos(4)
        );
    }

    #[test]
    fn report_normalizes_per_cycle() {
        let mut ledger = TimeLedger::new();
        // 64 simulator cycles at 1 us each.
        ledger.charge(CostCategory::Simulator, VirtualTime::from_micros(64));
        let report = ledger.report(64);
        assert!((report.per_cycle(CostCategory::Simulator) - 1e-6).abs() < 1e-15);
        assert!((report.performance_cps() - 1e6).abs() < 1.0);
    }

    #[test]
    fn report_reproduces_paper_conventional_arithmetic() {
        // Conventional method, simulator at 1,000 kcycles/s: per cycle the paper
        // implies Tsim=1us, Tacc=0.1us, Tch = 2 accesses + ~3 words. The paper
        // quotes 38.9 kcycles/s.
        let mut ledger = TimeLedger::new();
        let cycles = 1_000u64;
        for _ in 0..cycles {
            ledger.charge(CostCategory::Simulator, VirtualTime::from_micros(1));
            ledger.charge(CostCategory::Accelerator, VirtualTime::from_nanos(100));
            // two startups + 2 words forward + 1 word back
            ledger.charge(
                CostCategory::Channel,
                VirtualTime::from_nanos(12_200) * 2
                    + VirtualTime::from_picos(49_950) * 2
                    + VirtualTime::from_picos(75_730),
            );
        }
        let perf = ledger.report(cycles).performance_cps();
        assert!((perf - 38_900.0).abs() < 200.0, "perf = {perf}");
    }

    #[test]
    #[should_panic(expected = "at least one committed cycle")]
    fn report_rejects_zero_cycles() {
        let _ = TimeLedger::new().report(0);
    }

    #[test]
    fn display_contains_all_rows() {
        let mut ledger = TimeLedger::new();
        ledger.charge(CostCategory::Channel, VirtualTime::from_micros(1));
        let text = ledger.report(1).to_string();
        for c in CostCategory::ALL {
            assert!(text.contains(c.label()), "missing {c}");
        }
        assert!(text.contains("Perform."));
    }
}
