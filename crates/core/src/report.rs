//! Performance reports in the paper's Table 2 format.

use crate::wrapper::CwStats;
use predpkt_channel::{BatchStats, ChannelStats, RecoveryStats};
use predpkt_sim::{CostCategory, LedgerReport, TimeLedger, VirtualTime};
use std::fmt;

/// Everything measured about one co-emulation run, normalized per committed
/// target cycle — the paper's Table 2 rows plus protocol statistics, (for
/// reliable-backend runs) the channel-recovery bill, and (for
/// physically-batching backends) the frame-coalescing efficiency.
#[derive(Debug, Clone)]
pub struct PerfReport {
    ledger: LedgerReport,
    channel: ChannelStats,
    sim: CwStats,
    acc: CwStats,
    recovery: Option<RecoveryStats>,
    batch: Option<BatchStats>,
}

impl PerfReport {
    pub(crate) fn new(
        ledger: TimeLedger,
        committed_cycles: u64,
        channel: ChannelStats,
        sim: CwStats,
        acc: CwStats,
    ) -> Self {
        PerfReport {
            ledger: ledger.report(committed_cycles),
            channel,
            sim,
            acc,
            recovery: None,
            batch: None,
        }
    }

    /// Attaches the recovery bill of a reliable-backend run.
    pub(crate) fn with_recovery(mut self, recovery: RecoveryStats) -> Self {
        self.recovery = Some(recovery);
        self
    }

    /// Attaches the frame-coalescing counters of a batching backend.
    pub(crate) fn with_batch(mut self, batch: BatchStats) -> Self {
        self.batch = Some(batch);
        self
    }

    /// Seconds per committed cycle in one Table 2 bucket.
    pub fn per_cycle(&self, category: CostCategory) -> f64 {
        self.ledger.per_cycle(category)
    }

    /// Emulation performance in target cycles per second (`Perform.`).
    pub fn performance_cps(&self) -> f64 {
        self.ledger.performance_cps()
    }

    /// The paper's `Ratio` row: performance relative to a baseline (cycles/s).
    pub fn ratio_vs(&self, baseline_cps: f64) -> f64 {
        self.performance_cps() / baseline_cps
    }

    /// Committed target cycles.
    pub fn committed_cycles(&self) -> u64 {
        self.ledger.committed_cycles()
    }

    /// Channel accesses per committed cycle (conventional co-emulation needs
    /// 2.0; the optimistic scheme amortizes 2 per transition).
    pub fn accesses_per_cycle(&self) -> f64 {
        self.channel.total_accesses() as f64 / self.committed_cycles() as f64
    }

    /// Channel statistics.
    pub fn channel(&self) -> &ChannelStats {
        &self.channel
    }

    /// Simulator-side wrapper statistics.
    pub fn sim_stats(&self) -> &CwStats {
        &self.sim
    }

    /// Accelerator-side wrapper statistics.
    pub fn acc_stats(&self) -> &CwStats {
        &self.acc
    }

    /// Prediction accuracy observed across both wrappers, if any prediction was
    /// checked.
    pub fn observed_accuracy(&self) -> Option<f64> {
        let checked = self.sim.checked_predictions + self.acc.checked_predictions;
        let failed = self.sim.failed_predictions + self.acc.failed_predictions;
        (checked > 0).then(|| 1.0 - failed as f64 / checked as f64)
    }

    /// Rollbacks per committed cycle.
    pub fn rollback_rate(&self) -> f64 {
        (self.sim.rollbacks + self.acc.rollbacks) as f64 / self.committed_cycles() as f64
    }

    /// The channel-recovery bill, when the run used a reliable backend.
    pub fn recovery(&self) -> Option<&RecoveryStats> {
        self.recovery.as_ref()
    }

    /// Frame-coalescing counters, when the run used a physically-batching
    /// backend (TCP, shared-memory ring): how many logical frames rode how
    /// many physical writes.
    pub fn batch(&self) -> Option<&BatchStats> {
        self.batch.as_ref()
    }

    /// Fraction of reliability-layer acknowledgements that rode data frames
    /// for free, when the run used a reliable backend.
    pub fn ack_piggyback_ratio(&self) -> Option<f64> {
        self.recovery.as_ref().and_then(|r| r.ack_piggyback_ratio())
    }

    /// Total wire words actually billed: the protocol's channel words plus
    /// any reliability-layer overhead (headers, acks, retransmissions). On a
    /// faulty link this strictly exceeds [`ChannelStats::total_words`] of a
    /// clean run — the true traffic cost the paper's model cares about.
    pub fn billed_words(&self) -> u64 {
        self.channel.total_words() + self.recovery.map_or(0, |r| r.overhead_words)
    }

    /// Total virtual channel time billed: protocol accesses plus recovery
    /// overhead under the same [`ChannelCostModel`](predpkt_channel::ChannelCostModel).
    pub fn billed_channel_time(&self) -> VirtualTime {
        self.channel.total_time() + self.recovery.map_or(VirtualTime::ZERO, |r| r.overhead_time)
    }
}

impl fmt::Display for PerfReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.ledger)?;
        writeln!(f, "channel: {}", self.channel)?;
        writeln!(
            f,
            "accesses/cycle: {:.4}, committed cycles: {}",
            self.accesses_per_cycle(),
            self.committed_cycles()
        )?;
        if let Some(acc) = self.observed_accuracy() {
            writeln!(f, "observed prediction accuracy: {acc:.4}")?;
        }
        if let Some(r) = &self.recovery {
            writeln!(
                f,
                "recovery: {} retransmits, {} acks ({} piggybacked), {} dups suppressed, \
                 {} crc rejects, {} reorder drops; overhead {} words / {} \
                 (billed total {} words)",
                r.retransmits,
                r.acks_sent,
                r.acks_piggybacked,
                r.duplicates_suppressed,
                r.crc_rejects,
                r.out_of_order_drops,
                r.overhead_words,
                r.overhead_time,
                self.billed_words()
            )?;
        }
        if let Some(b) = &self.batch {
            writeln!(
                f,
                "batching: {} frames over {} physical writes ({:.2} frames/write)",
                b.frames,
                b.physical_writes,
                b.frames_per_write().unwrap_or(0.0)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predpkt_sim::VirtualTime;

    fn report_with(sim_us: u64, cycles: u64) -> PerfReport {
        let mut ledger = TimeLedger::new();
        ledger.charge(CostCategory::Simulator, VirtualTime::from_micros(sim_us));
        PerfReport::new(
            ledger,
            cycles,
            ChannelStats::new(),
            CwStats::default(),
            CwStats::default(),
        )
    }

    #[test]
    fn performance_is_inverse_of_per_cycle_total() {
        let r = report_with(100, 100);
        assert!((r.per_cycle(CostCategory::Simulator) - 1e-6).abs() < 1e-15);
        assert!((r.performance_cps() - 1e6).abs() < 1.0);
        assert!((r.ratio_vs(38_900.0) - 1e6 / 38_900.0).abs() < 1e-6);
    }

    #[test]
    fn no_predictions_no_accuracy() {
        let r = report_with(1, 1);
        assert_eq!(r.observed_accuracy(), None);
        assert_eq!(r.rollback_rate(), 0.0);
        assert_eq!(r.accesses_per_cycle(), 0.0);
    }

    #[test]
    fn display_contains_rows() {
        let text = report_with(10, 10).to_string();
        assert!(text.contains("Tsim."));
        assert!(text.contains("accesses/cycle"));
    }
}
