//! The closed-form model.
//!
//! ## Deviation from the paper: fixed-depth vs adaptive run-ahead
//!
//! Read literally, the paper's leader always runs ahead a full LOB; that
//! fixed-depth mechanism ([`AnalyticRow::at`], `CoEmuConfig::adaptive_depth`
//! off) throws away up to a whole LOB of speculative cycles on every early
//! misprediction, which moves the ALS break-even up to p ≈ 0.35 and leaves
//! the low-accuracy columns of Table 2 well below the published figures
//! (hence the ±25 % per-point shape tolerance in the tests). The
//! adaptive-depth mechanism ([`AnalyticRow::at_adaptive`]: ramp toward the
//! LOB cap on clean transitions, shrink to the observed run length on
//! failures) stays within a few percent of the conventional baseline even
//! at p = 0.1, like the paper's Table 2 (ratio 0.94), so both are modelled
//! and measured side by side.

use predpkt_channel::{ChannelCostModel, Direction, Side};
use predpkt_core::CoEmuConfig;

/// Model inputs, derivable from a [`CoEmuConfig`] plus payload calibration.
#[derive(Debug, Clone, Copy)]
pub struct ModelParams {
    /// Simulator speed in cycles/second.
    pub sim_cps: f64,
    /// Accelerator speed in cycles/second.
    pub acc_cps: f64,
    /// LOB depth (predictions per transition).
    pub lob_depth: u32,
    /// Channel cost model.
    pub channel: ChannelCostModel,
    /// Which side leads (ALS = accelerator, SLA = simulator).
    pub leader: Side,
    /// Rollback variables (store/restore cost basis).
    pub rollback_vars: u64,
    /// Store/restore seconds per variable on the simulator side.
    pub sim_store_per_var: f64,
    /// Store/restore seconds per variable on the accelerator side.
    pub acc_store_per_var: f64,
    /// Head-carry refinement on (see crate docs).
    pub carry_actuals: bool,
    /// Mean wire words per LOB entry after delta packetizing (calibrated; the
    /// synthetic harness measures ≈1.3 for its payload shape).
    pub words_per_entry: f64,
    /// Fixed wire words per flush (tag + header + first entry + leader_next).
    pub flush_fixed_words: f64,
    /// Wire words per report (tag + next outputs).
    pub report_words: f64,
    /// Wire words per conventional-cycle message, simulator→accelerator.
    pub conv_fwd_words: f64,
    /// Wire words per conventional-cycle message, accelerator→simulator.
    pub conv_rev_words: f64,
}

impl ModelParams {
    /// Builds parameters from a co-emulation config with the synthetic
    /// harness's measured payload calibration.
    pub fn from_config(config: &CoEmuConfig, leader: Side) -> Self {
        ModelParams {
            sim_cps: config.sim_speed.cycles_per_sec() as f64,
            acc_cps: config.acc_speed.cycles_per_sec() as f64,
            lob_depth: config.lob_depth as u32,
            channel: config.channel,
            leader,
            rollback_vars: config.rollback_vars_override.unwrap_or(1_000) as u64,
            sim_store_per_var: config.sim_store_per_var.as_secs_f64(),
            acc_store_per_var: config.acc_store_per_var.as_secs_f64(),
            carry_actuals: config.carry_actuals,
            // Calibration for the synthetic harness payloads (sim 2 words,
            // acc 1 word): ~1 mask word per entry plus occasional value words.
            words_per_entry: 1.3,
            flush_fixed_words: 8.0,
            report_words: 3.0,
            conv_fwd_words: 3.0, // tag + 2 payload words
            conv_rev_words: 2.0, // tag + 1 payload word
        }
    }

    fn leader_cycle_secs(&self) -> f64 {
        match self.leader {
            Side::Simulator => 1.0 / self.sim_cps,
            Side::Accelerator => 1.0 / self.acc_cps,
        }
    }

    fn lagger_cycle_secs(&self) -> f64 {
        match self.leader {
            Side::Simulator => 1.0 / self.acc_cps,
            Side::Accelerator => 1.0 / self.sim_cps,
        }
    }

    fn store_secs(&self) -> f64 {
        let per_var = match self.leader {
            Side::Simulator => self.sim_store_per_var,
            Side::Accelerator => self.acc_store_per_var,
        };
        per_var * self.rollback_vars as f64
    }

    /// Seconds for one conventional (conservative) cycle.
    pub fn conventional_cycle_secs(&self) -> f64 {
        let fwd = self
            .channel
            .access_cost(Direction::SimToAcc, self.conv_fwd_words.round() as u64)
            .as_secs_f64();
        let rev = self
            .channel
            .access_cost(Direction::AccToSim, self.conv_rev_words.round() as u64)
            .as_secs_f64();
        1.0 / self.sim_cps + 1.0 / self.acc_cps + fwd + rev
    }

    /// Conventional-method performance in cycles/second (the paper's 38.9 k /
    /// 28.8 k baselines).
    pub fn conventional_perf(&self) -> f64 {
        1.0 / self.conventional_cycle_secs()
    }
}

/// Expectations for one transition at accuracy `p`.
#[derive(Debug, Clone, Copy)]
pub struct TransitionStats {
    /// Probability every prediction succeeds (`p^L`).
    pub success_prob: f64,
    /// Expected committed cycles per transition.
    pub progress: f64,
    /// Expected leader cycles executed (speculation + roll-forth + head).
    pub leader_cycles: f64,
    /// Expected lagger cycles executed.
    pub lagger_cycles: f64,
    /// Expected restores per transition (`1 − p^L`).
    pub restores: f64,
    /// Expected predictions consumed by the lagger before stopping.
    pub checked: f64,
}

impl TransitionStats {
    /// Computes the expectations at accuracy `p` for `lob_depth` predictions.
    pub fn at(p: f64, lob_depth: u32, carry_actuals: bool) -> Self {
        assert!((0.0..=1.0).contains(&p), "accuracy must be a probability");
        let l = lob_depth;
        let q = p.powi(l as i32);
        // E[J · 1{fail}] = Σ_{j=1..L} j p^(j-1) (1-p)  (position of first failure)
        let mut e_fail_pos = 0.0;
        for j in 1..=l {
            e_fail_pos += j as f64 * p.powi(j as i32 - 1) * (1.0 - p);
        }
        let head = if carry_actuals { 1.0 } else { 0.0 };
        let progress = head + q * l as f64 + e_fail_pos;
        let leader_cycles = head + l as f64 + e_fail_pos;
        TransitionStats {
            success_prob: q,
            progress,
            leader_cycles,
            lagger_cycles: progress,
            restores: 1.0 - q,
            // The lagger checks min(J, L) predictions.
            checked: q * l as f64 + e_fail_pos,
        }
    }
}

impl TransitionStats {
    /// Expectations under *adaptive* run-ahead depth: the stationary mixture of
    /// [`TransitionStats::at`] over the depth Markov chain (double on success
    /// up to `cap`, jump to the observed failure position on failure).
    pub fn at_adaptive(p: f64, cap: u32, min_depth: u32, carry_actuals: bool) -> (Self, f64) {
        assert!((0.0..=1.0).contains(&p), "accuracy must be a probability");
        let cap = cap.max(1) as usize;
        let min_depth = (min_depth.max(1) as usize).min(cap);
        // Power-iterate the stationary distribution over depths 1..=cap.
        let mut dist = vec![0.0f64; cap + 1];
        dist[min_depth] = 1.0;
        for _ in 0..400 {
            let mut next = vec![0.0f64; cap + 1];
            for (d, &mass) in dist.iter().enumerate().skip(1) {
                if mass == 0.0 {
                    continue;
                }
                let q = p.powi(d as i32);
                next[(d * 2).min(cap)] += mass * q;
                // Failure at position j (1-based): next depth = clamp(j).
                for j in 1..=d {
                    let pj = p.powi(j as i32 - 1) * (1.0 - p);
                    next[j.clamp(min_depth, cap)] += mass * pj;
                }
            }
            dist = next;
        }
        // Blend the per-depth transition expectations by stationary weight.
        let mut progress = 0.0;
        let mut leader = 0.0;
        let mut restores = 0.0;
        let mut checked = 0.0;
        let mut success = 0.0;
        let mut mean_depth = 0.0;
        for (d, &mass) in dist.iter().enumerate().skip(1) {
            if mass == 0.0 {
                continue;
            }
            let t = TransitionStats::at(p, d as u32, carry_actuals);
            progress += mass * t.progress;
            leader += mass * t.leader_cycles;
            restores += mass * t.restores;
            checked += mass * t.checked;
            success += mass * t.success_prob;
            mean_depth += mass * d as f64;
        }
        (
            TransitionStats {
                success_prob: success,
                progress,
                leader_cycles: leader,
                lagger_cycles: progress,
                restores,
                checked,
            },
            mean_depth,
        )
    }
}

/// One Table 2 column: the per-cycle cost rows and performance — modelled
/// by [`at`](Self::at) or [`at_adaptive`](Self::at_adaptive), or as the
/// paper published it ([`PAPER_TABLE2`](crate::PAPER_TABLE2)).
#[derive(Debug, Clone, Copy)]
pub struct AnalyticRow {
    /// Prediction accuracy.
    pub accuracy: f64,
    /// Simulator seconds per committed cycle (`Tsim.`).
    pub t_sim: f64,
    /// Accelerator seconds per committed cycle (`Tacc.`).
    pub t_acc: f64,
    /// Store seconds per committed cycle (`Tstore`).
    pub t_store: f64,
    /// Restore seconds per committed cycle (`Trest.`).
    pub t_restore: f64,
    /// Channel seconds per committed cycle (`Tch.`).
    pub t_channel: f64,
    /// Performance in cycles/second (`Perform.`).
    pub performance: f64,
    /// Ratio over the conventional baseline (`Ratio`).
    pub ratio: f64,
}

impl AnalyticRow {
    /// Evaluates the model at accuracy `p` with a fixed full-depth run-ahead.
    pub fn at(params: &ModelParams, p: f64) -> Self {
        let t = TransitionStats::at(p, params.lob_depth, params.carry_actuals);
        Self::from_stats(params, p, t, params.lob_depth as f64)
    }

    /// Evaluates the model at accuracy `p` under adaptive run-ahead depth.
    pub fn at_adaptive(params: &ModelParams, p: f64) -> Self {
        let (t, mean_depth) =
            TransitionStats::at_adaptive(p, params.lob_depth, 2, params.carry_actuals);
        Self::from_stats(params, p, t, mean_depth)
    }

    fn from_stats(params: &ModelParams, p: f64, t: TransitionStats, depth: f64) -> Self {
        // Per-transition channel time: one flush burst + one report.
        let entries = (if params.carry_actuals { 1.0 } else { 0.0 }) + depth;
        let flush_words = params.flush_fixed_words + entries * params.words_per_entry;
        let (flush_dir, report_dir) = match params.leader {
            Side::Accelerator => (Direction::AccToSim, Direction::SimToAcc),
            Side::Simulator => (Direction::SimToAcc, Direction::AccToSim),
        };
        let flush = params.channel.startup().as_secs_f64()
            + params.channel.per_word(flush_dir).as_secs_f64() * flush_words;
        let report = params.channel.startup().as_secs_f64()
            + params.channel.per_word(report_dir).as_secs_f64() * params.report_words;
        let channel_per_transition = flush + report;

        let leader_time = t.leader_cycles * params.leader_cycle_secs();
        let lagger_time = t.lagger_cycles * params.lagger_cycle_secs();
        let store_time = params.store_secs();
        let restore_time = t.restores * params.store_secs();

        let (sim_time, acc_time) = match params.leader {
            Side::Accelerator => (lagger_time, leader_time),
            Side::Simulator => (leader_time, lagger_time),
        };

        let per_cycle = |x: f64| x / t.progress;
        let t_sim = per_cycle(sim_time);
        let t_acc = per_cycle(acc_time);
        let t_store = per_cycle(store_time);
        let t_restore = per_cycle(restore_time);
        let t_channel = per_cycle(channel_per_transition);
        let total = t_sim + t_acc + t_store + t_restore + t_channel;
        let performance = 1.0 / total;
        AnalyticRow {
            accuracy: p,
            t_sim,
            t_acc,
            t_store,
            t_restore,
            t_channel,
            performance,
            ratio: performance * params.conventional_cycle_secs(),
        }
    }

    /// Sum of the five cost rows (seconds per cycle).
    pub fn total(&self) -> f64 {
        self.t_sim + self.t_acc + self.t_store + self.t_restore + self.t_channel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PAPER_TABLE2;

    fn paper_als() -> ModelParams {
        ModelParams::from_config(&CoEmuConfig::paper_defaults(), Side::Accelerator)
    }

    #[test]
    fn transition_stats_at_perfect_accuracy() {
        let t = TransitionStats::at(1.0, 64, false);
        assert_eq!(t.success_prob, 1.0);
        assert_eq!(t.progress, 64.0);
        assert_eq!(t.leader_cycles, 64.0);
        assert_eq!(t.restores, 0.0);
        let t = TransitionStats::at(1.0, 64, true);
        assert_eq!(t.progress, 65.0);
    }

    #[test]
    fn transition_stats_at_zero_accuracy() {
        let t = TransitionStats::at(0.0, 64, false);
        assert_eq!(t.success_prob, 0.0);
        assert!(
            (t.progress - 1.0).abs() < 1e-12,
            "first prediction always fails"
        );
        assert!((t.leader_cycles - 65.0).abs() < 1e-12);
        assert_eq!(t.restores, 1.0);
    }

    #[test]
    fn expected_failure_position_matches_geometric() {
        // For small (1-p) the truncated mean ≈ 1/(1-p).
        let t = TransitionStats::at(0.5, 64, false);
        assert!((t.progress - 2.0).abs() < 1e-9, "E[min(Geom(1/2), 64)] = 2");
    }

    #[test]
    fn conventional_matches_paper_baselines() {
        let m = paper_als();
        assert!(
            (m.conventional_perf() - 38_900.0).abs() < 400.0,
            "{}",
            m.conventional_perf()
        );
        let slow = ModelParams {
            sim_cps: 100_000.0,
            ..paper_als()
        };
        assert!(
            (slow.conventional_perf() - 28_800.0).abs() < 300.0,
            "{}",
            slow.conventional_perf()
        );
    }

    #[test]
    fn perfect_accuracy_row_matches_paper() {
        let row = AnalyticRow::at(&paper_als(), 1.0);
        let paper = PAPER_TABLE2[0];
        assert_eq!(paper.accuracy, 1.0);
        let rel = |ours: f64, theirs: f64| (ours - theirs).abs() / theirs;
        assert!(rel(row.t_sim, paper.t_sim) < 0.01, "Tsim {}", row.t_sim);
        assert!(rel(row.t_acc, paper.t_acc) < 0.01, "Tacc {}", row.t_acc);
        assert!(
            rel(row.t_store, paper.t_store) < 0.02,
            "Tstore {}",
            row.t_store
        );
        assert!(row.t_restore == paper.t_restore);
        assert!(
            rel(row.t_channel, paper.t_channel) < 0.15,
            "Tch {}",
            row.t_channel
        );
        assert!(
            rel(row.performance, paper.performance) < 0.04,
            "perf {}",
            row.performance
        );
        assert!((row.ratio - paper.ratio).abs() < 0.8, "ratio {}", row.ratio);
    }

    #[test]
    fn rows_degrade_monotonically() {
        let m = paper_als();
        let mut last = f64::INFINITY;
        for &p in &[1.0, 0.99, 0.96, 0.9, 0.8, 0.6, 0.3, 0.1] {
            let row = AnalyticRow::at(&m, p);
            assert!(row.performance < last);
            assert!((1.0 / row.total() - row.performance).abs() < 1.0);
            last = row.performance;
        }
    }

    #[test]
    fn paper_table2_shape_within_tolerance() {
        let m = paper_als();
        for paper in PAPER_TABLE2 {
            let (p, paper_perf) = (paper.accuracy, paper.performance);
            let row = AnalyticRow::at(&m, p);
            let rel = (row.performance - paper_perf) / paper_perf;
            // Our mechanism differs in known ways (see the module docs'
            // "Deviation from the paper"); the shape tolerance is ±25% per
            // point.
            assert!(
                rel.abs() < 0.25,
                "p={p}: model {} vs paper {paper_perf} ({:+.1}%)",
                row.performance,
                rel * 100.0
            );
        }
    }

    #[test]
    fn carry_actuals_helps_low_accuracy() {
        let faithful = paper_als();
        let refined = ModelParams {
            carry_actuals: true,
            ..faithful
        };
        let low_f = AnalyticRow::at(&faithful, 0.1).performance;
        let low_r = AnalyticRow::at(&refined, 0.1).performance;
        assert!(low_r > low_f * 1.3, "{low_r} vs {low_f}");
        // And it is nearly free at high accuracy.
        let hi_f = AnalyticRow::at(&faithful, 1.0).performance;
        let hi_r = AnalyticRow::at(&refined, 1.0).performance;
        assert!((hi_r - hi_f).abs() / hi_f < 0.02);
    }

    #[test]
    fn sla_leader_bills_simulator() {
        let m = ModelParams::from_config(&CoEmuConfig::paper_defaults(), Side::Simulator);
        let row = AnalyticRow::at(&m, 0.8);
        // With the simulator leading, its redundant speculation work shows up
        // in Tsim (> 1 us/cycle), while the accelerator only follows.
        assert!(row.t_sim > 1.1e-6, "Tsim {}", row.t_sim);
        assert!(row.t_acc < 1.6e-7, "Tacc {}", row.t_acc);
    }

    #[test]
    fn sla_max_gains_match_paper() {
        // Paper §6: SLA max gain 15.34 (sim=1000k) and 3.25 (sim=100k).
        let m = ModelParams::from_config(&CoEmuConfig::paper_defaults(), Side::Simulator);
        let r1000 = AnalyticRow::at(&m, 1.0);
        assert!((r1000.ratio - 15.34).abs() < 2.0, "ratio {}", r1000.ratio);
        let slow = ModelParams {
            sim_cps: 100_000.0,
            ..m
        };
        let r100 = AnalyticRow::at(&slow, 1.0);
        assert!((r100.ratio - 3.25).abs() < 0.4, "ratio {}", r100.ratio);
    }
}
