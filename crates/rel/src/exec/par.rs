//! Parallel execution primitives: partitioned base-table scans and
//! partitioned hash-join builds.
//!
//! Both primitives are *order-preserving*: chunk results are gathered in
//! chunk order, and chunks are contiguous page (or row) ranges, so the
//! output is row-for-row identical to the serial path no matter how many
//! workers ran or how the ranges interleaved in time. Worker threads never
//! touch the caller's `Database` — each chunk runs against a
//! [`Database::read_replica`] sharing the same page store, and replica
//! scan counters are merged back after the gather so `ExecCounters` agree
//! with a serial run.
//!
//! Small inputs stay serial: below [`PAR_SCAN_MIN_ROWS`] /
//! [`PAR_JOIN_BUILD_MIN_ROWS`] the scatter cost (replica clone + thread
//! spawn, ~10–50µs) exceeds the win, so thresholds keep point queries and
//! small windows on the exact serial code path.

use crate::catalog::TableId;
use crate::db::{Database, ExecCounters};
use crate::error::RelResult;
use crate::eval::compile::Program;
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::HashMap;
use wow_obs::Op;
use wow_par::stats::{decision, Layer};

/// Minimum table rows before a sequential scan is partitioned.
pub const PAR_SCAN_MIN_ROWS: u64 = 4096;

/// Minimum build-side rows before a hash-join build is partitioned.
pub const PAR_JOIN_BUILD_MIN_ROWS: usize = 4096;

/// Minimum heap pages per scan chunk (a chunk below ~4 pages is all
/// scatter overhead).
const MIN_PAGES_PER_CHUNK: usize = 4;

/// Minimum rows per key-encoding chunk in a parallel join build.
const MIN_ROWS_PER_CHUNK: usize = 1024;

/// Should this scan run on the parallel path? Callers gate on workers,
/// table size, and the absence of a pushed-down stop hint (an early-stop
/// scan reads less than any partitioning would).
pub fn scan_goes_parallel(db: &Database, table: TableId, stop_hint: Option<usize>) -> bool {
    let parallel =
        db.workers() > 1 && stop_hint.is_none() && db.row_count(table) >= PAR_SCAN_MIN_ROWS;
    decision(Layer::Scan, parallel);
    parallel
}

/// Scan every page of `table`, filtering by the compiled `pred`, with page
/// ranges fanned out across the worker pool. Output order (and content) is
/// identical to the serial page-chain walk: each chunk runs through the
/// same arena reader and batch kernels as the serial vectorized scan
/// (`stream::filter_pages_vectorized`).
pub fn parallel_scan(
    db: &mut Database,
    table: TableId,
    pred: Option<&Program>,
) -> RelResult<Vec<Tuple>> {
    let pages = db.table_page_count(table)?;
    let mut span = wow_obs::span(Op::ParScatter);
    let shared: &Database = db;
    let chunks: Vec<RelResult<(Vec<Tuple>, ExecCounters)>> =
        shared.par.map_chunks(pages, MIN_PAGES_PER_CHUNK, |range| {
            let mut replica = shared.read_replica();
            let out = super::stream::filter_pages_vectorized(&mut replica, table, range, pred)?;
            Ok((out, replica.counters()))
        });
    span.arg(chunks.len() as u64);
    let mut tuples = Vec::new();
    let mut merged = ExecCounters::default();
    for chunk in chunks {
        let (rows, c) = chunk?;
        tuples.extend(rows);
        merged.rows_scanned += c.rows_scanned;
        merged.batches += c.batches;
        merged.sel_in += c.sel_in;
        merged.sel_out += c.sel_out;
    }
    span.finish();
    db.merge_counters(merged);
    Ok(tuples)
}

/// A hash-join build table, partitioned by key hash so both the build and
/// the probe can address one partition at a time. A serial build uses a
/// single partition; the partition function is deterministic (FNV-1a over
/// the encoded key bytes), so partition counts only affect layout, never
/// join results.
pub struct JoinTable {
    parts: Vec<HashMap<Vec<u8>, Vec<usize>>>,
}

impl JoinTable {
    /// An empty table (streams that never build).
    pub fn empty() -> JoinTable {
        JoinTable {
            parts: vec![HashMap::new()],
        }
    }

    /// Total number of distinct keys.
    pub fn is_empty(&self) -> bool {
        self.parts.iter().all(|m| m.is_empty())
    }

    /// Look up the match list (build-side row indices, ascending) for an
    /// encoded key.
    pub fn get(&self, key: &[u8]) -> Option<&Vec<usize>> {
        let p = if self.parts.len() == 1 {
            0
        } else {
            (fnv1a(key) % self.parts.len() as u64) as usize
        };
        self.parts[p].get(key)
    }
}

/// Build a [`JoinTable`] over `rows`, keyed on `key_cols`. Rows with any
/// NULL key column never enter the table (SQL join semantics). The build
/// parallelizes in two phases — key encoding over row chunks, then map
/// construction over partitions — when the input is large enough.
pub fn build_join_table(db: &Database, rows: &[Tuple], key_cols: &[usize]) -> JoinTable {
    let parallel = db.workers() > 1 && rows.len() >= PAR_JOIN_BUILD_MIN_ROWS;
    decision(Layer::JoinBuild, parallel);
    if !parallel {
        let mut map: HashMap<Vec<u8>, Vec<usize>> = HashMap::with_capacity(rows.len());
        for (i, key) in encode_keys(rows, key_cols, 0..rows.len()) {
            map.entry(key).or_default().push(i);
        }
        return JoinTable { parts: vec![map] };
    }
    let mut span = wow_obs::span(Op::ParScatter);
    // Phase 1: encode keys in parallel over contiguous row chunks,
    // gathered in chunk order so index `i` stays aligned with `rows[i]`.
    let encoded: Vec<(usize, Vec<u8>)> = db
        .par
        .map_chunks(rows.len(), MIN_ROWS_PER_CHUNK, |range| {
            encode_keys(rows, key_cols, range)
        })
        .into_iter()
        .flatten()
        .collect();
    // Phase 2: each worker owns one partition and inserts only the keys
    // hashing to it, scanning the encoded list in order so every match
    // list stays ascending — exactly what a serial build produces.
    let nparts = db.workers();
    let hashes: Vec<u64> = encoded.iter().map(|(_, k)| fnv1a(k)).collect();
    let parts = db.par.map((0..nparts).collect(), |_, p| {
        let mut map: HashMap<Vec<u8>, Vec<usize>> = HashMap::new();
        for (e, &h) in encoded.iter().zip(&hashes) {
            if h % nparts as u64 == p as u64 {
                map.entry(e.1.clone()).or_default().push(e.0);
            }
        }
        map
    });
    span.arg(encoded.len() as u64);
    span.finish();
    JoinTable { parts }
}

/// Encode the non-NULL composite keys of `rows[range]` as
/// `(row index, key bytes)` pairs in row order.
fn encode_keys(
    rows: &[Tuple],
    key_cols: &[usize],
    range: std::ops::Range<usize>,
) -> Vec<(usize, Vec<u8>)> {
    let mut out = Vec::with_capacity(range.len());
    'row: for i in range {
        let mut key_vals = Vec::with_capacity(key_cols.len());
        for &k in key_cols {
            let v = &rows[i].values[k];
            if v.is_null() {
                continue 'row;
            }
            key_vals.push(v.clone());
        }
        out.push((i, Value::encode_composite(&key_vals)));
    }
    out
}

/// FNV-1a over key bytes: a fixed hash (unlike `RandomState`) so build
/// and probe — and every worker — partition identically.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::compile::compile;
    use crate::expr::Expr;
    use crate::schema::{Column, Schema};
    use crate::types::DataType;

    fn demo_db(rows: usize, workers: usize) -> (Database, TableId) {
        let mut db = Database::in_memory();
        db.set_workers(workers);
        let schema = Schema::new(vec![
            Column::not_null("id", DataType::Int),
            Column::new("val", DataType::Text),
        ]);
        let id = db.create_table("t", schema, &["id"]).unwrap();
        for i in 0..rows {
            db.insert(
                "t",
                vec![Value::Int(i as i64), Value::Text(format!("row-{i:06}"))],
            )
            .unwrap();
        }
        (db, id)
    }

    #[test]
    fn parallel_scan_matches_serial_order() {
        let (mut db, t) = demo_db(10_000, 4);
        let par = parallel_scan(&mut db, t, None).unwrap();
        let serial: Vec<Tuple> = db
            .scan_table_raw(t)
            .unwrap()
            .into_iter()
            .map(|(_, t)| t)
            .collect();
        assert_eq!(par.len(), 10_000);
        assert_eq!(par, serial, "parallel scan must preserve heap order");
    }

    #[test]
    fn parallel_scan_applies_predicates() {
        let (mut db, t) = demo_db(5_000, 3);
        let pred = Expr::Binary {
            op: crate::expr::BinOp::Lt,
            left: Box::new(Expr::Column(0)),
            right: Box::new(Expr::Literal(Value::Int(100))),
        };
        let par = parallel_scan(&mut db, t, Some(&compile(&pred).unwrap())).unwrap();
        assert_eq!(par.len(), 100);
        assert!(par
            .iter()
            .enumerate()
            .all(|(i, t)| t.values[0] == Value::Int(i as i64)));
    }

    #[test]
    fn parallel_scan_merges_scan_counters() {
        let (mut db, t) = demo_db(3_000, 4);
        db.reset_counters();
        parallel_scan(&mut db, t, None).unwrap();
        assert_eq!(db.counters().rows_scanned, 3_000);
    }

    #[test]
    fn join_table_parallel_matches_serial() {
        let rows: Vec<Tuple> = (0..6_000)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int(i % 97),
                    if i % 13 == 0 {
                        Value::Null
                    } else {
                        Value::Int(i)
                    },
                ])
            })
            .collect();
        let mut serial_db = Database::in_memory();
        serial_db.set_workers(1);
        let mut par_db = Database::in_memory();
        par_db.set_workers(4);
        let serial = build_join_table(&serial_db, &rows, &[0, 1]);
        let par = build_join_table(&par_db, &rows, &[0, 1]);
        assert_eq!(serial.parts.len(), 1);
        assert!(par.parts.len() > 1);
        for (key, matches) in &serial.parts[0] {
            assert_eq!(par.get(key), Some(matches), "key {key:?} differs");
        }
        let serial_keys: usize = serial.parts.iter().map(|m| m.len()).sum();
        let par_keys: usize = par.parts.iter().map(|m| m.len()).sum();
        assert_eq!(serial_keys, par_keys);
    }

    #[test]
    fn scan_threshold_keeps_small_tables_serial() {
        let (db, t) = demo_db(100, 4);
        assert!(!scan_goes_parallel(&db, t, None));
        assert!(!scan_goes_parallel(&db, t, Some(10)));
        let (big, t2) = demo_db(5_000, 4);
        assert!(scan_goes_parallel(&big, t2, None));
        assert!(!scan_goes_parallel(&big, t2, Some(16)), "stop hint wins");
        let (mut one, t3) = demo_db(5_000, 4);
        one.set_workers(1);
        assert!(!scan_goes_parallel(&one, t3, None));
    }
}
