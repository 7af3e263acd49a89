//! Command line of `wowbench`.
//!
//! ```text
//! wowbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, one result line
//! wowbench [--seed n] [--seconds s]      every workload in turn, tracing off
//! wowbench --layers [...]                every workload with --trace 1: per-layer numbers, ladders
//! wowbench --selfcheck [...]             every workload twice (A1 B1 C1 D1 A2 B2 C2 D2), compared
//! --smoke                                1 s phases on a tenth of the data
//! ```
//!
//! The modes that run several workloads start one child process per run —
//! exactly what the driver does — so no run inherits another's allocator
//! state, peak memory or process-wide counters.

use std::process::{Command, ExitCode, Stdio};
use wowbench::report::{RunResult, END_TO_END};
use wowbench::workload::{Workload, WORKLOADS};
use wowbench::{run, RunArgs, RUN_SECONDS};

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    layers: bool,
    selfcheck: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
        layers: false,
        selfcheck: false,
    };
    let mut seconds_given = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => cli.smoke = true,
            "--layers" => cli.layers = true,
            "--selfcheck" => cli.selfcheck = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    if cli.smoke && !seconds_given {
        cli.seconds = 1.0;
    }
    Ok(cli)
}

/// Run one workload in a child process and read its result line back.
fn child(cli: &Cli, workload: Workload, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if cli.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result = stdout
        .lines()
        .last()
        .and_then(RunResult::parse)
        .ok_or_else(|| format!("{}: no result line", workload.name()))?;
    match out.status.success() && result.correct {
        true => Ok(result),
        false => Err(format!(
            "{}: {} of {} failed",
            workload.name(),
            result.failed,
            result.attempted
        )),
    }
}

fn all_workloads(cli: &Cli, trace: bool) -> Result<(), String> {
    for w in WORKLOADS {
        let r = child(cli, w, trace)?;
        println!(
            "{{\"workload\": \"{}\", \"result\": {}}}",
            w.name(),
            r.to_json()
        );
    }
    Ok(())
}

/// A/A: the full set twice, interleaved, and every end-to-end metric of the
/// second set against the first. Fails if any differs by more than its
/// bound (as a share of the mean of the two).
fn selfcheck(cli: &Cli) -> Result<(), String> {
    let mut sets = Vec::new();
    for _ in 0..2 {
        let mut set = Vec::new();
        for w in WORKLOADS {
            set.push(child(cli, w, false)?);
        }
        sets.push(set);
    }
    let mut worst: Option<String> = None;
    println!(
        "{:<16} {:<12} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for (i, w) in WORKLOADS.into_iter().enumerate() {
        for m in &END_TO_END {
            let a = sets[0][i].get(m.name).unwrap_or(0.0);
            let b = sets[1][i].get(m.name).unwrap_or(0.0);
            let diff = (a - b).abs() / ((a + b) / 2.0);
            let over = diff.is_nan() || diff > m.bound;
            println!(
                "{:<16} {:<12} {a:>14.3} {b:>14.3} {:>7.2}% {:>6.0}%{}",
                w.name(),
                m.name,
                100.0 * diff,
                100.0 * m.bound,
                if over { "  OVER" } else { "" }
            );
            if over {
                worst.get_or_insert(format!(
                    "{} {} differs by {:.1}%",
                    w.name(),
                    m.name,
                    100.0 * diff
                ));
            }
        }
    }
    worst.map_or(Ok(()), Err)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&args).and_then(|cli| match cli.workload {
        Some(workload) if !cli.layers && !cli.selfcheck => {
            let result = run(&RunArgs {
                workload,
                seed: cli.seed,
                seconds: cli.seconds,
                trace: cli.trace,
                small: cli.smoke,
            })?;
            println!("{}", result.to_json());
            match result.correct {
                true => Ok(()),
                false => Err(format!("{} of {} failed", result.failed, result.attempted)),
            }
        }
        Some(_) => Err("--layers and --selfcheck run every workload; drop --workload".into()),
        None if cli.selfcheck => selfcheck(&cli),
        None => all_workloads(&cli, cli.layers || cli.trace),
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("wowbench: {why}");
            ExitCode::FAILURE
        }
    }
}
