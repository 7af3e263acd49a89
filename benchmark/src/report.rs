//! The metric names, units and bounds — the same ones `BENCHMARK.json`
//! declares (a test holds the two together) — and the result line.

/// An end-to-end metric: measured at the clerk's side of the wire with
/// tracing off, on every workload, and gated.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.2,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p95_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "rss_peak_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
    },
];

/// `(name, unit, better)` of every per-layer metric, printed by `--trace 1`
/// on every workload (0 where the workload does not exercise it). Never
/// gated.
pub const PER_LAYER: [(&str, &str, &str); 59] = [
    // what the clerk sees, per kind of operation (untraced half of the run)
    ("open_p50_us", "us", "lower"),
    ("open_p95_us", "us", "lower"),
    ("page_p50_us", "us", "lower"),
    ("page_p95_us", "us", "lower"),
    ("commit_p50_us", "us", "lower"),
    ("commit_p95_us", "us", "lower"),
    ("push_p50_us", "us", "lower"),
    ("push_p95_us", "us", "lower"),
    ("failed_share", "ratio", "lower"),
    ("storage.wal_append_us", "us", "lower"),
    ("storage.wal_fsync_us", "us", "lower"),
    ("storage.wal_bytes_per_commit", "count", "lower"),
    ("storage.wal_flushes_per_commit", "count", "lower"),
    ("storage.checkpoint_ms", "ms", "lower"),
    ("storage.recovery_ms", "ms", "lower"),
    ("storage.pool_hit_rate", "ratio", "higher"),
    ("storage.pool_evictions_per_op", "count", "lower"),
    ("rel.index_page_us", "us", "lower"),
    ("rel.get_row_us", "us", "lower"),
    ("rel.quel_select_us", "us", "lower"),
    ("rel.join_page_us", "us", "lower"),
    ("rel.rows_scanned_per_op", "count", "lower"),
    ("rel.index_probes_per_op", "count", "lower"),
    ("rel.txn_update_us", "us", "lower"),
    ("rel.txn_update_durable_us", "us", "lower"),
    ("views.expand_us", "us", "lower"),
    ("views.updatable_us", "us", "lower"),
    ("views.delta_us", "us", "lower"),
    ("forms.compile_us", "us", "lower"),
    ("tui.render_us", "us", "lower"),
    ("tui.cells_per_frame", "count", "lower"),
    ("core.open_us", "us", "lower"),
    ("core.page_us", "us", "lower"),
    ("core.close_us", "us", "lower"),
    ("core.commit_nowatch_us", "us", "lower"),
    ("core.commit_fanout_us", "us", "lower"),
    ("core.commit_join_watch_us", "us", "lower"),
    ("core.propagate_share", "ratio", "lower"),
    ("core.delta_refreshes_per_commit", "count", "higher"),
    ("core.full_refreshes_per_commit", "count", "lower"),
    ("core.delta_rows_per_commit", "count", "lower"),
    ("core.lock_denials_per_op", "count", "lower"),
    ("net.ping_rtt_us", "us", "lower"),
    ("net.screen_rtt_us", "us", "lower"),
    ("net.screenful_of_us", "us", "lower"),
    ("net.encode_screenful_us", "us", "lower"),
    ("net.decode_screenful_us", "us", "lower"),
    ("net.request_codec_us", "us", "lower"),
    ("net.bytes_per_screenful", "count", "lower"),
    ("net.connect_ms", "ms", "lower"),
    ("net.pushes_per_commit", "count", "lower"),
    ("net.coalesced_per_commit", "count", "lower"),
    ("net.wire_share_open", "ratio", "lower"),
    ("net.wire_share_commit", "ratio", "lower"),
    ("par.tasks_per_commit", "count", "lower"),
    ("par.serial_share", "ratio", "lower"),
    ("obs.trace_overhead_ratio", "ratio", "lower"),
    ("obs.commit_unattributed_share", "ratio", "lower"),
    ("obs.open_unattributed_share", "ratio", "lower"),
];

/// What one run found.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    /// The last line of standard output: one JSON object with exactly the
    /// keys `correct`, `attempted`, `failed` and `metrics`. Values keep all
    /// their digits.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Read a result line back (`--selfcheck`, the all-workloads modes and
    /// the smoke test compare child runs). Understands exactly what
    /// [`RunResult::to_json`] writes.
    pub fn parse(line: &str) -> Option<RunResult> {
        let line = line.trim();
        let after = |key: &str| -> Option<&str> {
            let at = line.find(key)? + key.len();
            Some(&line[at..])
        };
        let word = |s: &str| -> String {
            s.chars()
                .take_while(|c| !matches!(c, ',' | '}' | ' '))
                .collect()
        };
        let correct = word(after("\"correct\": ")?).parse().ok()?;
        let attempted = word(after("\"attempted\": ")?).parse().ok()?;
        let failed = word(after("\"failed\": ")?).parse().ok()?;
        let mut metrics = Vec::new();
        let mut rest = after("\"metrics\": {")?;
        while let Some(open) = rest.find('"') {
            let name_end = open + 1 + rest[open + 1..].find('"')?;
            let name = rest[open + 1..name_end].to_string();
            rest = &rest[name_end..];
            let v = &rest[rest.find("\"value\": ")? + 9..];
            let value = word(v).parse().ok()?;
            let u = &v[v.find("\"unit\": \"")? + 9..];
            let unit = u[..u.find('"')?].to_string();
            metrics.push((name, value, unit));
            rest = &u[u.find('}')?..];
        }
        Some(RunResult {
            correct,
            attempted,
            failed,
            metrics,
        })
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let r = RunResult {
            correct: true,
            attempted: 1234,
            failed: 0,
            metrics: vec![
                ("setup_s".into(), 4.812_345_678, "s".into()),
                ("ops_per_s".into(), 81.25, "1/s".into()),
                ("net.wire_share_open".into(), 0.0, "ratio".into()),
                ("tiny".into(), 1.5e-7, "us".into()),
            ],
        };
        let line = r.to_json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1234, \"failed\": 0, "));
        assert_eq!(RunResult::parse(&line), Some(r.clone()));
        assert_eq!(r.get("ops_per_s"), Some(81.25));
        assert_eq!(RunResult::parse("cargo said something else"), None);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        let ok = |s: &str, extra: &str| {
            s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for n in &names {
            assert!(n.len() <= 64 && ok(n, "_.-"), "{n}");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.1))
        {
            assert!(unit.len() <= 16 && ok(unit, "_/%.-"), "{unit}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }
}
