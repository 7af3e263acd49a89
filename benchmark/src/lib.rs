//! `wowbench` — the clerk's-eye benchmark of Windows on the World.
//!
//! One run drives one workload against an in-process `wow_net::Server` on
//! loopback through `wow_net::Client`, closed loop, checks every screenful
//! against a model, and prints one result line. See `README.md` for what is
//! measured and why.

pub mod clerk;
pub mod gen;
pub mod layers;
pub mod model;
pub mod report;
pub mod setup;
pub mod stats;
pub mod workload;

use clerk::Kind;
use layers::{Metrics, Prober};
use report::{RunResult, END_TO_END, PER_LAYER};
use stats::{summarize, Summary};
use std::time::{Duration, Instant};
use workload::{of_kind, ops, Phase, Running, Until, Workload};

/// How long one run measures unless `--seconds` says otherwise; the same
/// number `BENCHMARK.json` gives the driver.
pub const RUN_SECONDS: f64 = 12.0;

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// A tenth of the data (`--smoke`).
    pub small: bool,
}

/// `VmHWM` of this process, in MB.
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// One line per metric on stderr, with the sample count the result line
/// has no room for.
fn explain(name: &str, value: f64, unit: &str, note: &str) {
    eprintln!("  {name:<36} {value:>16.4} {unit:<6} {note}");
}

fn note_of(s: &Summary) -> String {
    match s.p95_resolved {
        true => format!("n={}", s.n),
        false => format!(
            "n={} (p95 unresolved: fewer than ten samples beyond it)",
            s.n
        ),
    }
}

/// Everything checked in a run, and what failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn phase(&mut self, phase: &mut Phase) {
        self.attempted += phase.attempted;
        self.failed += phase.failed;
        self.failures.append(&mut phase.failures);
    }

    fn checks(&mut self, checks: Vec<Result<(), String>>) {
        self.attempted += checks.len() as u64;
        for why in checks.into_iter().filter_map(Result::err) {
            self.failed += 1;
            self.failures.push(why);
        }
    }
}

/// Run one workload once and report it. `Err` is a failure to run at all;
/// an oracle failure is a result with `correct: false`.
pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    setup::pin_environment();
    let scratch = setup::Scratch::create().map_err(|e| format!("scratch directory: {e}"))?;
    eprintln!("{}", setup::header(args.seed, args.seconds, scratch.root()));
    let size = match args.small {
        true => args.workload.size().tenth(),
        false => args.workload.size(),
    };
    eprintln!(
        "workload={} trace={} students={} enrollments={}",
        args.workload.name(),
        args.trace as u8,
        size.students,
        size.enrollments
    );

    let t = Instant::now();
    let mut running = Running::set_up(args.workload, args.seed, size, &scratch)?;
    let setup = t.elapsed();
    let measured = Duration::from_secs_f64(args.seconds);
    let mut metrics: Vec<(String, f64, String)> = Vec::new();
    let mut tally = Tally::default();

    if !args.trace {
        let mut phase = running.phase(Until::Elapsed(measured), false);
        tally.phase(&mut phase);
        tally.checks(running.finish().checks);
        let all = summarize(&ops(&phase.samples));
        let values = [
            setup.as_secs_f64(),
            phase.ops_per_s,
            us(all.p50_ns),
            us(all.p95_ns),
            rss_peak_mb(),
        ];
        for (m, value) in END_TO_END.iter().zip(values) {
            let note = match m.name.starts_with("op") {
                true => note_of(&all),
                false => String::new(),
            };
            explain(m.name, value, m.unit, &note);
            metrics.push((m.name.into(), value, m.unit.into()));
        }
    } else {
        let mut m = Metrics::new();
        // Untraced half: what the clerk sees per kind of operation, and the
        // counts.
        let before = layers::gauges(running.admin())?;
        let mut plain = running.phase(Until::Elapsed(measured / 2), false);
        let after = layers::gauges(running.admin())?;
        tally.phase(&mut plain);
        let n_ops = ops(&plain.samples).len();
        layers::count_metrics(&before, &after, n_ops, &mut m);
        let mut notes = std::collections::BTreeMap::new();
        for (kind, p50, p95) in [
            (Kind::Open, "open_p50_us", "open_p95_us"),
            (Kind::Page, "page_p50_us", "page_p95_us"),
            (Kind::Commit, "commit_p50_us", "commit_p95_us"),
            (Kind::Push, "push_p50_us", "push_p95_us"),
        ] {
            let s = summarize(&of_kind(&plain.samples, kind, None));
            m.insert(p50, us(s.p50_ns));
            m.insert(p95, us(s.p95_ns));
            notes.insert(p50, note_of(&s));
            notes.insert(p95, note_of(&s));
        }
        let open_students = summarize(&of_kind(
            &plain.samples,
            Kind::Open,
            Some(model::View::Students),
        ));

        let mut prober = Prober::new(args.seed, 1 << 60);
        let addr = running.addr();
        layers::wire_probes(&mut prober, running.admin(), addr);

        // Traced half: the program's tracer on, the benchmark's own spans
        // around every client call, sampled requests fetched back.
        wow_obs::tracer().set_enabled(true);
        let mut traced = running.phase(Until::Elapsed(measured / 2), true);
        wow_obs::tracer().set_enabled(false);
        tally.phase(&mut traced);
        m.insert(
            "obs.trace_overhead_ratio",
            if traced.ops_per_s > 0.0 {
                plain.ops_per_s / traced.ops_per_s
            } else {
                0.0
            },
        );
        m.insert(
            "obs.commit_unattributed_share",
            layers::unattributed_share(&traced.fetched, Kind::Commit),
        );
        m.insert(
            "obs.open_unattributed_share",
            layers::unattributed_share(&traced.fetched, Kind::Open),
        );

        let workload::Finished {
            mut world,
            data,
            checks,
            recovery,
        } = running.finish();
        tally.checks(checks);
        layers::read_probes(&mut prober, &mut world, &data);
        // The in-memory world the commit probes edit: this workload's own
        // when it is one of size S, else one built for the purpose.
        let reuse = args.workload == Workload::EditFanoutMem;
        let mut built;
        let (mem, durable) = if reuse {
            (&mut world, None)
        } else {
            let probe_size = if args.small {
                gen::SIZE_S.tenth()
            } else {
                gen::SIZE_S
            };
            built = setup::build_world(&gen::Dataset::new(args.seed, probe_size), None)
                .map_err(|e| e.to_string())?;
            (&mut built, args.workload.durable().then_some(&mut world))
        };
        layers::write_probes(&mut prober, mem, durable, recovery, &data, &scratch)?;
        m.append(&mut prober.out);

        let get = |m: &Metrics, k: &str| m.get(k).copied().unwrap_or(0.0);
        let share = |inner: f64, outer: f64| {
            if outer > 0.0 {
                1.0 - inner / outer
            } else {
                0.0
            }
        };
        m.insert(
            "net.wire_share_open",
            share(get(&m, "core.open_us"), us(open_students.p50_ns)),
        );
        // The in-process commit probe has the eight watcher windows of
        // `edit_fanout_mem`; against any other workload's commit it would
        // compare two different amounts of work.
        m.insert(
            "net.wire_share_commit",
            match reuse {
                true => share(get(&m, "core.commit_fanout_us"), get(&m, "commit_p50_us")),
                false => 0.0,
            },
        );
        m.insert(
            "failed_share",
            tally.failed as f64 / tally.attempted.max(1) as f64,
        );

        eprint!(
            "{}",
            layers::ladders(args.workload.name(), &m, us(open_students.p50_ns))
        );
        let mut spans = traced.spans;
        spans.append(&mut prober.spans());
        match layers::write_trace_file(args.workload.name(), &spans, &traced.fetched) {
            Ok(path) => eprintln!(
                "{} spans ({} dropped), {} fetched traces -> {}",
                spans.len(),
                traced.spans_dropped,
                traced.fetched.len(),
                path.display()
            ),
            Err(e) => return Err(format!("trace file: {e}")),
        }
        for (name, unit, _) in PER_LAYER {
            let value = get(&m, name);
            explain(
                name,
                value,
                unit,
                notes.get(name).map_or("", |s| s.as_str()),
            );
            metrics.push((name.into(), value, unit.into()));
        }
    }

    for why in &tally.failures {
        eprintln!("FAILED: {why}");
    }
    Ok(RunResult {
        correct: tally.failed == 0,
        attempted: tally.attempted.max(1),
        failed: tally.failed,
        metrics,
    })
}
