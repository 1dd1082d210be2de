//! Accuracy sweeps and break-even search (Figure 4, SLA break-evens).

use crate::model::{AnalyticRow, ModelParams};

/// The paper's Figure 4 accuracy grid.
pub const PAPER_ACCURACY_GRID: [f64; 13] = [
    1.0, 0.995, 0.99, 0.96, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1,
];

/// The paper's published Table 2 (Performance of ALS: simulator 1,000
/// kcycles/s, accelerator 10 Mcycles/s, LOB 64, 1,000 rollback variables,
/// iPROVE PCI channel), transcribed one column per accuracy. `Tsim.` is
/// 1.0e-6 in every column.
pub const PAPER_TABLE2: [AnalyticRow; 8] = [
    published(1.0, 1.0e-7, 4.69e-10, 0.0, 4.3e-7, 652e3, 16.75),
    published(0.99, 1.6e-7, 7.6e-10, 2.9e-10, 6.8e-7, 543e3, 13.97),
    published(0.96, 2.9e-7, 1.6e-9, 1.2e-9, 1.5e-6, 363e3, 9.33),
    published(0.9, 4.9e-7, 3.3e-9, 2.9e-9, 2.9e-6, 226e3, 5.80),
    published(0.8, 8.1e-7, 6.2e-9, 5.7e-9, 5.4e-6, 138e3, 3.56),
    published(0.6, 1.5e-6, 1.2e-8, 1.2e-8, 1.1e-5, 76.7e3, 1.91),
    published(0.3, 2.4e-6, 2.1e-8, 2.0e-8, 1.8e-5, 46.1e3, 1.19),
    published(0.1, 3.0e-6, 2.7e-8, 2.6e-8, 2.3e-5, 36.7e3, 0.94),
];

const fn published(
    accuracy: f64,
    t_acc: f64,
    t_store: f64,
    t_restore: f64,
    t_channel: f64,
    performance: f64,
    ratio: f64,
) -> AnalyticRow {
    AnalyticRow {
        accuracy,
        t_sim: 1.0e-6,
        t_acc,
        t_store,
        t_restore,
        t_channel,
        performance,
        ratio,
    }
}

/// One point of a Figure 4 series.
#[derive(Debug, Clone, Copy)]
pub struct Figure4Point {
    /// Prediction accuracy.
    pub accuracy: f64,
    /// Performance in cycles/second.
    pub performance: f64,
}

/// Evaluates one Figure 4 series over the paper's accuracy grid.
pub fn figure4_series(params: &ModelParams) -> Vec<Figure4Point> {
    PAPER_ACCURACY_GRID
        .iter()
        .map(|&p| Figure4Point {
            accuracy: p,
            performance: AnalyticRow::at(params, p).performance,
        })
        .collect()
}

/// Finds the accuracy at which the optimistic scheme matches the conventional
/// method (the paper's break-even points), by bisection on `p`.
///
/// Returns `None` if the scheme beats the baseline over the whole `[lo, hi]`
/// range (or never does).
pub fn break_even_accuracy(params: &ModelParams, lo: f64, hi: f64) -> Option<f64> {
    let baseline = params.conventional_perf();
    let gain = |p: f64| AnalyticRow::at(params, p).performance - baseline;
    let (mut lo, mut hi) = (lo, hi);
    let (glo, ghi) = (gain(lo), gain(hi));
    if glo.signum() == ghi.signum() {
        return None;
    }
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if gain(mid).signum() == glo.signum() {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(0.5 * (lo + hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use predpkt_channel::Side;
    use predpkt_core::CoEmuConfig;

    fn als(sim_kcps: u64, lob: usize) -> ModelParams {
        let config = CoEmuConfig::paper_defaults()
            .sim_speed(predpkt_sim::Frequency::from_kcycles_per_sec(sim_kcps))
            .try_lob_depth(lob)
            .expect("depth is non-zero");
        ModelParams::from_config(&config, Side::Accelerator)
    }

    fn sla(sim_kcps: u64) -> ModelParams {
        let config = CoEmuConfig::paper_defaults()
            .sim_speed(predpkt_sim::Frequency::from_kcycles_per_sec(sim_kcps));
        ModelParams::from_config(&config, Side::Simulator)
    }

    #[test]
    fn figure4_series_has_grid_shape() {
        let series = figure4_series(&als(1_000, 64));
        assert_eq!(series.len(), PAPER_ACCURACY_GRID.len());
        assert!(series[0].performance > series.last().unwrap().performance);
    }

    #[test]
    fn figure4_lob_inversion() {
        // The paper's Figure 4 signature: deep LOBs win at high accuracy, lose
        // at low accuracy.
        let deep = als(1_000, 64);
        let shallow = als(1_000, 8);
        let hi_deep = AnalyticRow::at(&deep, 1.0).performance;
        let hi_shallow = AnalyticRow::at(&shallow, 1.0).performance;
        assert!(hi_deep > hi_shallow * 1.5, "{hi_deep} vs {hi_shallow}");
        let lo_deep = AnalyticRow::at(&deep, 0.3).performance;
        let lo_shallow = AnalyticRow::at(&shallow, 0.3).performance;
        assert!(lo_shallow > lo_deep, "{lo_shallow} vs {lo_deep}");
    }

    #[test]
    fn faster_simulator_gains_more() {
        // "The bigger the simulator performance gets, we get the more
        // performance gain from the proposed method" (§6).
        let fast = als(1_000, 64);
        let slow = als(100, 64);
        let fast_ratio = AnalyticRow::at(&fast, 1.0).ratio;
        let slow_ratio = AnalyticRow::at(&slow, 1.0).ratio;
        assert!(fast_ratio > slow_ratio * 1.5);
    }

    #[test]
    fn sla_break_evens_match_paper() {
        // Paper §6: SLA break-even at 98% (sim=100k) and 70% (sim=1000k).
        let be_100 = break_even_accuracy(&sla(100), 0.5, 1.0).expect("crossing exists");
        assert!(
            (0.93..=0.995).contains(&be_100),
            "sim=100k break-even {be_100} (paper: 0.98)"
        );
        let be_1000 = break_even_accuracy(&sla(1_000), 0.3, 1.0).expect("crossing exists");
        assert!(
            (0.6..=0.8).contains(&be_1000),
            "sim=1000k break-even {be_1000} (paper: 0.70)"
        );
    }

    #[test]
    fn als_break_even_fixed_depth() {
        // A fixed full-depth run-ahead wastes 64 speculative cycles per early
        // failure, moving the ALS break-even up to p ≈ 0.35 (the deviation
        // documented in the `predpkt_perfmodel::model` module docs).
        let be = break_even_accuracy(&als(1_000, 64), 0.01, 0.9).expect("crossing exists");
        assert!(
            (0.25..=0.45).contains(&be),
            "ALS fixed-depth break-even {be}"
        );
    }

    #[test]
    fn als_break_even_adaptive_matches_paper() {
        // With adaptive run-ahead the scheme stays within a few percent of the
        // conventional baseline at p = 0.1, like the paper's Table 2
        // (ratio 0.94 at p = 0.1).
        let m = als(1_000, 64);
        let row = AnalyticRow::at_adaptive(&m, 0.1);
        let ratio = row.performance / m.conventional_perf();
        assert!(
            (0.80..=1.1).contains(&ratio),
            "adaptive ALS ratio at p=0.1: {ratio} (paper: 0.94)"
        );
        // And high-accuracy performance is preserved.
        let hi = AnalyticRow::at_adaptive(&m, 1.0);
        assert!(hi.performance > 600_000.0, "{}", hi.performance);
    }

    #[test]
    fn adaptive_depth_tracks_achievable_run_length() {
        let (_, depth_low) = crate::TransitionStats::at_adaptive(0.1, 64, 2, false);
        let (_, depth_high) = crate::TransitionStats::at_adaptive(0.999, 64, 2, false);
        assert!(depth_low < 4.0, "low accuracy shrinks depth: {depth_low}");
        assert!(depth_high > 50.0, "high accuracy ramps depth: {depth_high}");
    }

    #[test]
    fn no_crossing_returns_none() {
        // With the head-carry refinement the ALS scheme can dominate everywhere.
        let mut m = als(1_000, 64);
        m.carry_actuals = true;
        assert!(break_even_accuracy(&m, 0.3, 1.0).is_none());
    }
}
