//! `repro` — regenerate every table and figure of the evaluation.
//!
//! ```text
//! cargo run -p wow-bench --bin repro --release             # everything
//! cargo run -p wow-bench --bin repro --release -- table2   # one experiment
//! cargo run -p wow-bench --bin repro --release -- --smoke  # tiny sizes
//! cargo run -p wow-bench --bin repro --release -- --explain # annotated plan demo
//! ```
//!
//! Each experiment asserts its own invariants and prints one table; the
//! shapes are recorded in `EXPERIMENTS.md`. `--explain` prints an
//! `EXPLAIN ANALYZE` annotated plan for a representative query and exits.
//! End-to-end latency is measured by `wowbench` (see `BENCHMARK.json`).

use wow_bench::experiments::{self, Scale};
use wow_bench::render_table;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--smoke") {
        Scale::Smoke
    } else {
        Scale::Full
    };
    if args.iter().any(|a| a == "--explain") {
        println!("EXPLAIN ANALYZE demo (student world, filter + sort + limit):\n");
        println!("{}", experiments::explain_analyze_demo(scale));
        return;
    }
    let filter: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    println!("Windows on the World — evaluation reproduction (scale: {scale:?})");
    println!("(reconstructed experiments; see DESIGN.md for the paper-text mismatch note)\n");
    let mut ran = 0;
    for (key, f) in experiments::ALL {
        if !filter.is_empty() && !filter.iter().any(|w| w.as_str() == *key) {
            continue;
        }
        println!("{}", render_table(&f(scale)));
        ran += 1;
    }
    if ran == 0 {
        eprintln!("no experiment matched; known keys: table1..table10, table2b, figure1..figure6");
        std::process::exit(2);
    }
}
