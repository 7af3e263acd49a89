//! # wow-bench
//!
//! The evaluation harness: one function per table/figure of the
//! (reconstructed) evaluation, each returning a structured result that the
//! `repro` binary renders and `EXPERIMENTS.md` records. These are shape
//! tables — who wins, by how much, where the crossover lies — not
//! regression gates: end-to-end latency is measured by `wowbench`
//! (`benchmark/`, declared in `BENCHMARK.json`).
//!
//! See `DESIGN.md` for the experiment index and `EXPERIMENTS.md` for
//! paper-vs-measured notes.

pub mod experiments;
pub mod table;

pub use table::{render_table, Table};

use std::time::{Duration, Instant};

/// Time one invocation.
pub fn time_once<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let start = Instant::now();
    let out = f();
    (start.elapsed(), out)
}

/// Median wall time of `reps` invocations (reps ≥ 1).
pub fn time_median<R>(reps: usize, mut f: impl FnMut() -> R) -> Duration {
    assert!(reps >= 1);
    let mut times: Vec<Duration> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed()
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}

/// Pretty-print a duration with an adaptive unit.
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.1} µs", ns as f64 / 1_000.0)
    } else if ns < 10_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2} s", ns as f64 / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_constant_work_is_positive() {
        let d = time_median(5, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(d.as_nanos() > 0);
    }

    #[test]
    fn duration_formatting_units() {
        assert!(fmt_duration(Duration::from_nanos(500)).ends_with("ns"));
        assert!(fmt_duration(Duration::from_micros(50)).ends_with("µs"));
        assert!(fmt_duration(Duration::from_millis(50)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(50)).ends_with(" s"));
    }
}
