//! End to end: every workload at `--smoke` size, untraced and traced, and
//! the agreement between what is printed and what `BENCHMARK.json` declares.

use std::path::PathBuf;
use std::process::Command;
use wowbench::report::{RunResult, END_TO_END, PER_LAYER};
use wowbench::workload::WORKLOADS;

/// The benchmark resolves `benchmark/target/tmp` and `benchmark/out`
/// against the directory it is run from: the repository root.
fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
        .to_path_buf()
}

fn run(workload: &str, trace: &str) -> (String, RunResult) {
    let out = Command::new(env!("CARGO_BIN_EXE_wowbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--trace",
            trace,
            "--smoke",
        ])
        .current_dir(repo_root())
        .output()
        .expect("wowbench starts");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = stdout.lines().last().expect("a result line").to_string();
    let result = RunResult::parse(&line).expect("the last line is the result");
    (line, result)
}

fn printed_once(line: &str, name: &str) -> bool {
    line.matches(&format!("\"{name}\": {{\"value\": ")).count() == 1
}

#[test]
fn every_declared_metric_is_printed_once_per_workload_and_nothing_fails() {
    for w in WORKLOADS {
        let (line, r) = run(w.name(), "0");
        assert!(r.correct && r.failed == 0 && r.attempted > 0, "{line}");
        assert_eq!(r.metrics.len(), END_TO_END.len(), "{line}");
        for m in &END_TO_END {
            assert!(printed_once(&line, m.name), "{} on {}", m.name, w.name());
            let (_, value, unit) = r.metrics.iter().find(|x| x.0 == m.name).expect("printed");
            assert_eq!(unit, m.unit);
            assert!(*value > 0.0, "{} is {value} on {}", m.name, w.name());
        }

        let (line, r) = run(w.name(), "1");
        assert!(r.correct && r.failed == 0, "{line}");
        assert_eq!(r.metrics.len(), PER_LAYER.len(), "{line}");
        for (name, unit, _) in PER_LAYER {
            assert!(printed_once(&line, name), "{name} on {}", w.name());
            let (_, value, got_unit) = r.metrics.iter().find(|x| x.0 == name).expect("printed");
            assert_eq!(got_unit, unit);
            // A share that is one minus a ratio of two noisy timings may dip
            // below zero at smoke size; everything else is a magnitude.
            assert!(value.is_finite(), "{name} is {value}");
            assert!(*value >= 0.0 || name.contains("share"), "{name} is {value}");
        }
        assert_eq!(r.get("failed_share"), Some(0.0));
        let trace = repo_root().join(format!("benchmark/out/trace-{}.jsonl", w.name()));
        let spans = std::fs::read_to_string(&trace).expect("the trace file is written");
        assert!(spans.lines().any(|l| l.contains("\"src\":\"bench\"")));
        assert!(spans.lines().any(|l| l.contains("\"src\":\"server\"")));
        assert!(spans.lines().any(|l| l.contains("\"src\":\"selftime\"")));
    }
}

#[test]
fn benchmark_json_declares_what_the_code_prints() {
    let json = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    for w in WORKLOADS {
        assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\": \"", w.name())));
    }
    for m in &END_TO_END {
        let declared = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
            m.name, m.unit, m.better, m.bound
        );
        assert!(json.contains(&declared), "{declared}");
    }
    for (name, unit, better) in PER_LAYER {
        let declared =
            format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
        assert!(json.contains(&declared), "{declared}");
    }
    let names = json.matches("{\"name\": ").count();
    assert_eq!(names, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
    let seconds = format!("\"run_seconds\": {}", wowbench::RUN_SECONDS);
    assert!(json.contains(&seconds), "{seconds}");
    assert!(json.contains("\"paths\": [\"benchmark\"]"));
}
