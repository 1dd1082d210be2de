//! The repository's benchmark: host kcycles/s, channel traffic and farm
//! latency on seven named workloads, with a per-layer trace.
//!
//! Two ways to run it (see `README.md` beside this crate):
//!
//! * **one workload** — `--workload <name> --seed <n> --seconds <s> --trace
//!   <0|1>`: measures that workload and prints, as the last line of standard
//!   output, one JSON object with `correct`, `attempted`, `failed` and
//!   `metrics` — the end-to-end metrics with `--trace 0`, the per-layer ones
//!   with `--trace 1`;
//! * **all workloads** — no `--workload`: runs every workload in turn, checks
//!   every output and prints every metric by name with its unit; `--traced`
//!   adds the per-layer run, `--out` writes the report as JSON, and
//!   `--repeat-check` runs the set twice and compares the two.
//!
//! Any failed correctness check makes the command exit non-zero.

mod farm;
mod layers;
mod metrics;
mod procfs;
mod reference;
mod session;
mod stats;
mod timed;
mod trace;
mod workloads;

use metrics::{Better, END_TO_END, RUN_SECONDS};
use session::{Plan, RunArgs};
use stats::{json_number, json_string, write_metrics, RunResult};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{
    AhbSubject, Kind, Soc, Spec, Suite, SynthSubject, MESH_VARIANTS, SOC_CYCLES, SOC_VARIANTS,
    WORKLOADS,
};

const USAGE: &str = "\
usage: predpkt-benchmark [options]
  --workload <name>   run one workload and print the result line (default: all)
  --seed <u64>        seed the inputs are generated from (default 1)
  --seconds <s>       seconds each run measures for (default: run_seconds)
  --trace <0|1>       0: end-to-end metrics, 1: per-layer metrics (one workload)
  --traced            all workloads: add the per-layer run
  --repeat-check      all workloads: run the set twice, compare against the bounds
  --out <path>        all workloads: write the report as JSON
  --spans <path>      write the last traced rep's spans as JSON lines
  --pin <cpus|none>   re-execute under `taskset -c <cpus>` when it exists
                      (default: the highest-numbered CPU this process may use)
  --sabotage          corrupt the expected hashes (the gate must trip)
  --print-benchmark-json  print BENCHMARK.json as the tables define it";

#[derive(Debug)]
struct Cli {
    workload: Option<String>,
    run: RunArgs,
    traced: bool,
    repeat_check: bool,
    out: Option<PathBuf>,
    pin: Option<String>,
    print_benchmark_json: bool,
}

fn parse(args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        run: RunArgs {
            seed: 1,
            seconds: RUN_SECONDS as f64,
            sabotage: false,
            spans_out: None,
        },
        traced: false,
        repeat_check: false,
        out: None,
        pin: None,
        print_benchmark_json: false,
    };
    let mut args = args;
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                cli.run.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {seconds}: must be in (0, 600]"));
                }
                cli.run.seconds = seconds;
            }
            "--trace" => {
                cli.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: must be 0 or 1")),
                }
            }
            "--traced" => cli.traced = true,
            "--repeat-check" => cli.repeat_check = true,
            "--out" => cli.out = Some(PathBuf::from(value("a path")?)),
            "--spans" => cli.run.spans_out = Some(PathBuf::from(value("a path")?)),
            "--pin" => cli.pin = Some(value("a cpu list")?),
            "--sabotage" => cli.run.sabotage = true,
            "--print-benchmark-json" => cli.print_benchmark_json = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if let Some(name) = &cli.workload {
        if workloads::find(name).is_none() {
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {name}; one of {}",
                names.join(", ")
            ));
        }
        if cli.repeat_check || cli.out.is_some() {
            return Err("--repeat-check and --out apply to the all-workloads run".to_string());
        }
    }
    Ok(cli)
}

/// Marks a process already re-executed under `taskset`.
const PIN_GUARD: &str = "PREDPKT_BENCHMARK_PINNED";

/// Re-executes under `taskset -c <cpus>`; runs on unpinned when `taskset` is
/// absent.
///
/// By default the whole benchmark runs on **one** CPU. On the reference box —
/// a two-vCPU virtual machine — a thread that wakes a thread on the other,
/// halted, vCPU pays a latency that flips between two regimes lasting
/// minutes: `soc-tcp` read 40 or 115 kcycles/s and the farm's closed batch 75
/// or 200 sessions/s depending on the minute, while both stayed put on one
/// CPU. A regression gate needs the code's cost, not the hypervisor's mood.
fn pin_or_continue(cpus: &str) -> Option<ExitCode> {
    if cpus == "none" || std::env::var_os(PIN_GUARD).is_some() {
        return None;
    }
    let exe = std::env::current_exe().ok()?;
    match std::process::Command::new("taskset")
        .arg("-c")
        .arg(cpus)
        .arg(exe)
        .args(std::env::args_os().skip(1))
        .env(PIN_GUARD, cpus)
        .status()
    {
        Ok(status) => Some(ExitCode::from(
            status.code().unwrap_or(1).clamp(0, 255) as u8
        )),
        Err(e) => {
            eprintln!("--pin {cpus}: taskset unavailable ({e}); running unpinned");
            None
        }
    }
}

/// The suite the mesh is compared against in `predict.adaptive_vs_paper_wall_x`.
type Twin<'a> = Option<&'a dyn Fn(u64) -> Result<std::time::Duration, String>>;

fn run_sessions<S: workloads::Subject>(
    subject: &S,
    plan: &Plan,
    args: &RunArgs,
    traced: bool,
    twin: Twin<'_>,
) -> RunResult {
    if traced {
        session::trace_layers(subject, plan, args, twin)
    } else {
        session::run(subject, plan, args)
    }
}

/// Runs one workload, end to end or traced.
fn run_workload(spec: &Spec, args: &RunArgs, traced: bool) -> RunResult {
    let queue = workloads::Backend::Queue;
    let mut result = match spec.kind {
        Kind::Soc(backend) => {
            let subject = AhbSubject {
                soc: Soc::Figure2,
                suite: Suite::Paper,
            };
            let plan = Plan {
                cycles: SOC_CYCLES,
                variants: SOC_VARIANTS,
                backend,
                paper: None,
            };
            run_sessions(&subject, &plan, args, traced, None)
        }
        Kind::Mesh => {
            let subject = AhbSubject {
                soc: Soc::MeshHotspot,
                suite: Suite::Adaptive,
            };
            let plan = Plan {
                cycles: SOC_CYCLES,
                variants: MESH_VARIANTS,
                backend: queue,
                paper: None,
            };
            let paper = AhbSubject {
                suite: Suite::Paper,
                ..subject
            };
            let twin = |seed| session::run_wall(&paper, &plan, seed);
            run_sessions(&subject, &plan, args, traced, Some(&twin))
        }
        Kind::Synth {
            p,
            cycles,
            variants,
            paper_kcps,
        } => {
            let plan = Plan {
                cycles,
                variants,
                backend: queue,
                paper: Some((p, paper_kcps)),
            };
            run_sessions(&SynthSubject { p }, &plan, args, traced, None)
        }
        Kind::Farm if traced => farm::trace_layers(args),
        Kind::Farm => farm::run(args),
    };
    result.sanitize();
    for error in &result.errors {
        eprintln!("{}: FAILED: {error}", spec.name);
    }
    result
}

/// Share of attempted reps or sessions that failed, in percent.
fn ops_failed_pct(result: &RunResult) -> f64 {
    result.failed as f64 * 100.0 / result.attempted.max(1) as f64
}

/// One pass over every workload: (spec, end-to-end result, traced result).
type Set = Vec<(&'static Spec, RunResult, Option<RunResult>)>;

fn run_set(cli: &Cli) -> Set {
    WORKLOADS
        .iter()
        .map(|spec| {
            eprintln!("== {} ==", spec.name);
            let end_to_end = run_workload(spec, &cli.run, false);
            let traced = cli.traced.then(|| run_workload(spec, &cli.run, true));
            print_workload(spec, &end_to_end, traced.as_ref());
            (spec, end_to_end, traced)
        })
        .collect()
}

fn print_workload(spec: &Spec, end_to_end: &RunResult, traced: Option<&RunResult>) {
    println!("{}: {}", spec.name, spec.why);
    for (result, which) in [(Some(end_to_end), "end-to-end run"), (traced, "traced run")] {
        let Some(result) = result else { continue };
        for (name, metric) in &result.metrics {
            println!("  {name:<44} {:>16.4} {}", metric.value, metric.unit);
        }
        println!(
            "  {:<44} {:>16.4} % ({} of {} failed, {which})",
            "ops_failed_pct",
            ops_failed_pct(result),
            result.failed,
            result.attempted
        );
    }
}

fn set_is_correct(set: &Set) -> bool {
    set.iter()
        .all(|(_, e, t)| e.correct() && t.as_ref().map_or(true, RunResult::correct))
}

fn git_commit() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match git(&["rev-parse", "HEAD"]) {
        Some(head) => {
            let dirty = git(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
            format!("{head}{}", if dirty { "+uncommitted" } else { "" })
        }
        None => "unknown (not a git checkout)".to_string(),
    }
}

/// The report `--out` writes (and `baseline.json` holds).
fn report_json(cli: &Cli, set: &Set) -> String {
    let mut out = String::from("{\n  \"benchmark\": \"predpkt\",\n  \"claim\": null,\n");
    let nproc = procfs::online_cpus();
    let pinned = std::env::var(PIN_GUARD).ok();
    let _ = writeln!(
        out,
        "  \"host\": {{\"commit\": {}, \"nproc\": {nproc}, \"kernel\": {}, \"pinned\": {}, \
         \"seed\": {}, \"seconds\": {}}},",
        json_string(&git_commit()),
        json_string(&procfs::kernel()),
        pinned.as_deref().map_or("null".to_string(), json_string),
        cli.run.seed,
        json_number(cli.run.seconds),
    );
    out.push_str("  \"workloads\": {\n");
    for (i, (spec, end_to_end, traced)) in set.iter().enumerate() {
        let _ = write!(
            out,
            "    \"{}\": {{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \
             \"ops_failed_pct\": {}, \"end_to_end\": ",
            spec.name,
            end_to_end.correct() && traced.as_ref().map_or(true, RunResult::correct),
            end_to_end.attempted,
            end_to_end.failed,
            json_number(ops_failed_pct(end_to_end)),
        );
        write_metrics(&mut out, &end_to_end.metrics);
        if let Some(traced) = traced {
            out.push_str(", \"per_layer\": ");
            write_metrics(&mut out, &traced.metrics);
        }
        out.push_str(if i + 1 < set.len() { "},\n" } else { "}\n" });
    }
    out.push_str("  }\n}\n");
    out
}

/// `--repeat-check`: compares two sets of the same build. Returns whether
/// every end-to-end gap stayed within its bound; the model-time metrics must
/// match to the last digit, since the seed is the same.
fn repeat_check(first: &Set, second: &Set) -> bool {
    const EXACT: [&str; 3] = [
        "model_kcps",
        "channel_words_per_kcycle",
        "channel_accesses_per_kcycle",
    ];
    let mut within = true;
    println!("\nrepeat check: second set against the first");
    println!(
        "{:<22} {:<30} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "first", "second", "gap", "bound"
    );
    for ((spec, a, _), (_, b, _)) in first.iter().zip(second) {
        for metric in END_TO_END {
            let (Some(x), Some(y)) = (a.metrics.get(metric.name), b.metrics.get(metric.name))
            else {
                println!("{:<22} {:<30} missing", spec.name, metric.name);
                within = false;
                continue;
            };
            let exact = EXACT.contains(&metric.name);
            // Positive when the second set is worse.
            let worse = match metric.better {
                Better::Higher => (x.value - y.value) / x.value,
                Better::Lower => (y.value - x.value) / x.value,
            };
            let ok = if exact {
                x.value == y.value
            } else {
                worse <= metric.bound
            };
            within &= ok;
            println!(
                "{:<22} {:<30} {:>14.4} {:>14.4} {:>+7.1}% {:>6.0}%{}",
                spec.name,
                metric.name,
                x.value,
                y.value,
                worse * 100.0,
                if exact { 0.0 } else { metric.bound * 100.0 },
                if ok { "" } else { "  EXCEEDED" }
            );
        }
    }
    within
}

fn main() -> ExitCode {
    let cli = match parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    if cli.print_benchmark_json {
        print!("{}", metrics::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let cpus = cli.pin.clone().or_else(procfs::last_allowed_cpu);
    if let Some(code) = cpus.as_deref().and_then(pin_or_continue) {
        return code;
    }

    if let Some(name) = &cli.workload {
        let spec = workloads::find(name).expect("parse checked the name");
        let result = run_workload(spec, &cli.run, cli.traced);
        println!("{}", result.to_json_line());
        return if result.correct() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let first = run_set(&cli);
    let mut ok = set_is_correct(&first);
    if cli.repeat_check {
        let second = run_set(&cli);
        ok &= set_is_correct(&second);
        ok &= repeat_check(&first, &second);
    }
    if let Some(path) = &cli.out {
        if let Err(e) = std::fs::write(path, report_json(&cli, &first)) {
            eprintln!("writing {}: {e}", path.display());
            ok = false;
        }
    }
    println!(
        "\n{}",
        if ok {
            "every check passed"
        } else {
            "FAILED: see the messages above"
        }
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn driver_arguments_parse() {
        let cli = cli(&[
            "--workload",
            "soc-tcp",
            "--seed",
            "42",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(cli.workload.as_deref(), Some("soc-tcp"));
        assert_eq!((cli.run.seed, cli.run.seconds, cli.traced), (42, 3.0, true));
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--seconds", "inf"],
            &["--trace", "2"],
            &["--frobnicate"],
            &["--seed"],
            &["--workload", "soc-queue", "--repeat-check"],
        ] {
            assert!(cli(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn failed_share_counts_against_attempts() {
        let mut result = RunResult {
            attempted: 8,
            ..RunResult::default()
        };
        assert_eq!(ops_failed_pct(&result), 0.0);
        result.fail("one".to_string());
        assert_eq!(ops_failed_pct(&result), 12.5);
    }

    #[test]
    fn repeat_check_needs_exact_model_time_and_bounded_host_time() {
        let set = |host: f64, words: f64| -> Set {
            let mut result = RunResult::default();
            for metric in END_TO_END {
                result.put(metric.name, 100.0);
            }
            result.put("host_kcps", host);
            result.put("channel_words_per_kcycle", words);
            vec![(&WORKLOADS[0], result, None)]
        };
        assert!(
            repeat_check(&set(100.0, 50.0), &set(80.0, 50.0)),
            "20 % slower is within 25 %"
        );
        assert!(
            repeat_check(&set(100.0, 50.0), &set(150.0, 50.0)),
            "faster is never worse"
        );
        assert!(
            !repeat_check(&set(100.0, 50.0), &set(70.0, 50.0)),
            "30 % slower is not"
        );
        assert!(
            !repeat_check(&set(100.0, 50.0), &set(100.0, 50.5)),
            "words must repeat exactly"
        );
    }
}
