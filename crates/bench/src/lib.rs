//! # predpkt-bench — the paper's Table 2 and Figure 4
//!
//! Shared plumbing for the two regeneration binaries in `src/bin/`: `table2`
//! (the paper's Table 2, published beside modelled and measured) and
//! `figure4` (performance vs accuracy for the four LOB/simulator-speed
//! series). Each takes one optional positional `[cycles]` and prints; neither
//! asserts anything. The paper's in-text numbers (conventional baselines, SLA
//! gains and break-evens) are pinned by `predpkt-perfmodel` and
//! `predpkt-workloads` tests, and host speed is read from the repo's one
//! benchmark, `benchmark/` (see `BENCHMARK.json`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use predpkt_core::{CoEmuConfig, ModePolicy, PerfReport};
use predpkt_workloads::SyntheticSoc;
use std::fmt::Write;

/// The committed-cycle count a bin runs: its one optional positional
/// argument, else `default`. Anything that is not a positive count (a
/// leftover flag, a second argument, `0`, which no report can be made of)
/// ends the process with a usage line instead of being silently ignored.
pub fn cycles_arg(default: u64) -> u64 {
    parse_cycles(std::env::args().skip(1), default).unwrap_or_else(|e| {
        eprintln!("usage: [cycles] — {e}");
        std::process::exit(2)
    })
}

fn parse_cycles(mut args: impl Iterator<Item = String>, default: u64) -> Result<u64, String> {
    let Some(first) = args.next() else {
        return Ok(default);
    };
    if let Some(extra) = args.next() {
        return Err(format!("unexpected second argument {extra:?}"));
    }
    match first.parse() {
        Ok(0) | Err(_) => Err(format!("{first:?} is not a positive count")),
        Ok(count) => Ok(count),
    }
}

/// Runs the synthetic harness at accuracy `p` under `config` for `cycles`
/// committed cycles and returns the report.
pub fn run_synthetic(p: f64, config: CoEmuConfig, cycles: u64) -> PerfReport {
    let soc = match config.policy {
        ModePolicy::ForcedSla => SyntheticSoc::sla(p, 0x5eed),
        _ => SyntheticSoc::als(p, 0x5eed),
    };
    let mut session = soc
        .session()
        .config(config)
        .build()
        .expect("synthetic session always builds");
    session
        .run_until_committed(cycles)
        .expect("synthetic run cannot deadlock");
    session.report()
}

/// Formats a cycles/second figure the way the paper does (e.g. `652k`).
pub fn fmt_kcps(cps: f64) -> String {
    if cps >= 1e6 {
        format!("{:.2}M", cps / 1e6)
    } else {
        format!("{:.1}k", cps / 1e3)
    }
}

/// Formats seconds-per-cycle in the paper's scientific notation (e.g. `1.0e-6`).
pub fn fmt_sci(secs: f64) -> String {
    if secs == 0.0 {
        "0".to_string()
    } else {
        format!("{secs:.1e}")
    }
}

/// Prints a fixed-width table row.
pub fn print_row(label: &str, cells: &[String]) {
    print!("{label:<22}");
    for c in cells {
        print!("{c:>11}");
    }
    println!();
}

/// Renders a crude ASCII chart of (x, y) series on a log-y scale — enough to
/// eyeball the Figure 4 shape in a terminal. Every point lands on one of the
/// `height` rows, the largest on the top one and the smallest on the bottom.
pub fn ascii_chart(title: &str, xs: &[f64], series: &[(&str, Vec<f64>)], height: usize) -> String {
    let mut out = format!("\n{title}\n");
    let all: Vec<f64> = series
        .iter()
        .flat_map(|(_, ys)| ys.iter().copied())
        .collect();
    let (lo, hi) = all.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &v| {
        (lo.min(v), hi.max(v))
    });
    let (llo, lhi) = (lo.ln(), hi.ln());
    let marks = ['A', 'B', 'C', 'D', 'E', 'F'];
    for row in (0..height).rev() {
        let y = (llo + (lhi - llo) * (row as f64 + 0.5) / height as f64).exp();
        let mut line = vec![' '; xs.len() * 6];
        for (si, (_, ys)) in series.iter().enumerate() {
            for (xi, &v) in ys.iter().enumerate() {
                let level = ((v.ln() - llo) / (lhi - llo) * height as f64) as usize;
                if level.min(height - 1) == row {
                    line[xi * 6 + 3] = marks[si % marks.len()];
                }
            }
        }
        let _ = writeln!(
            out,
            "{:>9} |{}",
            fmt_kcps(y),
            line.iter().collect::<String>()
        );
    }
    let _ = write!(out, "{:>9}  ", "p =");
    for &x in xs {
        let _ = write!(out, "{x:>6.3}");
    }
    out.push('\n');
    for (si, (name, _)) in series.iter().enumerate() {
        let _ = writeln!(out, "          {} = {}", marks[si % marks.len()], name);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_kcps(38_900.0), "38.9k");
        assert_eq!(fmt_kcps(1_500_000.0), "1.50M");
        assert_eq!(fmt_sci(0.0), "0");
        assert_eq!(fmt_sci(1.0e-6), "1.0e-6");
    }

    #[test]
    fn cycles_arg_is_one_optional_count() {
        let parse = |args: &[&str]| parse_cycles(args.iter().map(|a| a.to_string()), 1000);
        assert_eq!(parse(&[]), Ok(1000));
        assert_eq!(parse(&["42"]), Ok(42));
        assert!(parse(&["--fast"]).is_err());
        assert!(parse(&["0"]).is_err());
        assert!(parse(&["42", "7"]).is_err());
    }

    #[test]
    fn every_series_plots_its_extremes() {
        let xs = [1.0, 0.995, 0.5, 0.1];
        let series = [
            ("top", vec![632_800.0, 572_000.0, 52_000.0, 29_600.0]),
            ("bottom", vec![94_500.0, 93_000.0, 35_400.0, 23_400.0]),
        ];
        let chart = ascii_chart("t", &xs, &series, 16);
        let lines: Vec<&str> = chart.lines().collect();
        let rows = &lines[2..18];
        let mark_at = |row: &str, xi: usize| row.chars().nth(11 + xi * 6 + 3);
        assert_eq!(mark_at(rows[0], 0), Some('A'), "the maximum tops the chart");
        assert_eq!(mark_at(rows[15], 3), Some('B'), "the minimum ends it");
        for (mark, (_, ys)) in ['A', 'B'].into_iter().zip(&series) {
            let extreme = |pick: fn(f64, f64) -> f64| {
                let v = ys.iter().copied().reduce(pick).unwrap();
                ys.iter().position(|&y| y == v).unwrap()
            };
            for xi in [extreme(f64::max), extreme(f64::min)] {
                assert!(
                    rows.iter().any(|row| mark_at(row, xi) == Some(mark)),
                    "{mark} lost its point at x = {}:\n{chart}",
                    xs[xi]
                );
            }
        }
        assert!(
            lines[18].ends_with(" 1.000 0.995 0.500 0.100"),
            "{}",
            lines[18]
        );
    }

    #[test]
    fn synthetic_runner_works() {
        let report = run_synthetic(1.0, CoEmuConfig::paper_defaults(), 2_000);
        assert!(report.performance_cps() > 500_000.0);
    }
}
