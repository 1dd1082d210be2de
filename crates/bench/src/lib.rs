//! # predpkt-bench — evaluation harness
//!
//! Shared plumbing for the table/figure regeneration binaries (see
//! `src/bin/`): each takes one optional positional `[cycles]`, prints a
//! table and asserts its own bit-identity/ordering checks. Nothing parses
//! their output and none of them is a speed measurement — host speed is read
//! from the repo's one benchmark, `benchmark/` (see `BENCHMARK.json`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use predpkt_ahb::engine::BusOp;
use predpkt_ahb::masters::{DmaDescriptor, DmaMaster, TrafficGenMaster};
use predpkt_ahb::slaves::{MemorySlave, PeripheralSlave};
use predpkt_core::{CoEmuConfig, ModePolicy, PerfReport, Side, SocBlueprint, ThreadedOpts};
use predpkt_workloads::SyntheticSoc;
use std::time::Duration;

/// The committed-cycle count a bin runs: its one optional positional
/// argument, else `default`. Anything that is not a count (a leftover flag,
/// a second argument) ends the process with a usage line instead of being
/// silently ignored.
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
    first
        .parse()
        .map_err(|_| format!("{first:?} is not a count"))
}

/// The Fig. 2-shaped SoC the recovery sweep runs: a DMA master and a
/// looping traffic generator on the accelerator side against a memory slave
/// on the simulator side and a peripheral on the accelerator side.
pub fn fig2_soc() -> SocBlueprint {
    SocBlueprint::new()
        .master(Side::Accelerator, || {
            Box::new(DmaMaster::new(vec![
                DmaDescriptor::new(0x0000_0100, 0x0000_1100, 24),
                DmaDescriptor::new(0x0000_1200, 0x0000_0200, 12),
            ]))
        })
        .master(Side::Accelerator, || {
            Box::new(
                TrafficGenMaster::from_ops(vec![BusOp::write_single(0x0000_2004, 0xabcd)])
                    .looping()
                    .with_idle_gap(7),
            )
        })
        .slave(Side::Simulator, 0x0000_0000, 0x2000, || {
            Box::new(MemorySlave::new(0x2000, 0))
        })
        .slave(Side::Accelerator, 0x0000_2000, 0x1000, || {
            Box::new(PeripheralSlave::new(1))
        })
}

/// A fine idle-wait slice, so a wait on a quiet link end doesn't dominate
/// the figure.
pub fn bench_opts() -> ThreadedOpts {
    ThreadedOpts {
        poll_interval: Duration::from_micros(200),
        deadlock_timeout: Duration::from_secs(10),
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
/// eyeball the Figure 4 shape in a terminal.
pub fn ascii_chart(title: &str, xs: &[f64], series: &[(&str, Vec<f64>)], height: usize) {
    println!("\n{title}");
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
        let mut line = vec![' '; xs.len() * 5];
        for (si, (_, ys)) in series.iter().enumerate() {
            for (xi, &v) in ys.iter().enumerate() {
                let level = ((v.ln() - llo) / (lhi - llo) * height as f64) as usize;
                if level == row {
                    line[xi * 5 + 2] = marks[si % marks.len()];
                }
            }
        }
        println!("{:>9} |{}", fmt_kcps(y), line.iter().collect::<String>());
    }
    print!("{:>9}  ", "p =");
    for &x in xs {
        print!("{x:>5.2}");
    }
    println!();
    for (si, (name, _)) in series.iter().enumerate() {
        println!("          {} = {}", marks[si % marks.len()], name);
    }
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
        assert!(parse(&["42", "7"]).is_err());
    }

    #[test]
    fn synthetic_runner_works() {
        let report = run_synthetic(1.0, CoEmuConfig::paper_defaults(), 2_000);
        assert!(report.performance_cps() > 500_000.0);
    }
}
