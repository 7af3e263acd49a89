//! The experiments: one function per table/figure.
//!
//! Every function takes a [`Scale`]: `Smoke` keeps `cargo test` fast,
//! `Full` is what the `repro` binary and `EXPERIMENTS.md` use.

use crate::table::Table;
use crate::{fmt_duration, time_median, time_once};
use std::time::{Duration, Instant};
use wow_core::browse::BrowseCursor;
use wow_core::config::WorldConfig;
use wow_core::locks::LockMode;
use wow_core::window_mgr::WindowStyle;
use wow_core::world::{CursorStrategy, World};
use wow_forms::compiler::compile_form_all_writable;
use wow_forms::qbf::form_predicate;
use wow_rel::db::Database;
use wow_rel::exec::{execute, execute_materializing, KeyBound, PhysicalPlan};
use wow_rel::expr::{BinOp, Expr};
use wow_rel::quel::ast::SortKey;
use wow_rel::schema::{Column, Schema};
use wow_rel::types::DataType;
use wow_rel::value::Value;
use wow_storage::wal::Wal;
use wow_tui::geom::{Rect, Size};
use wow_views::expand::{run_view_query, ViewQuery};
use wow_views::updatable::analyze;
use wow_workload::netload::NetLoadReport;
use wow_workload::rng::DetRng;
use wow_workload::suppliers::{self, SuppliersConfig};

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny sizes for `cargo test`.
    Smoke,
    /// The sizes recorded in `EXPERIMENTS.md`.
    Full,
}

impl Scale {
    fn pick<T>(self, smoke: T, full: T) -> T {
        match self {
            Scale::Smoke => smoke,
            Scale::Full => full,
        }
    }
}

// ---------------------------------------------------------------------------
// Table 1 — form compilation cost vs schema width
// ---------------------------------------------------------------------------

/// Table 1: compiling the default form from a schema of k attributes.
pub fn table1_form_compile(scale: Scale) -> Table {
    let mut t = Table::new(
        "Table 1",
        "default-form compilation time vs schema width",
        &["attributes", "compile time", "ns/attribute"],
        "linear in attribute count; well under 1 ms at 64 attributes",
    );
    let reps = scale.pick(50, 2000);
    for &k in &[2usize, 4, 8, 16, 32, 64] {
        let schema = Schema::new(
            (0..k)
                .map(|i| {
                    let ty = match i % 4 {
                        0 => DataType::Text,
                        1 => DataType::Int,
                        2 => DataType::Float,
                        _ => DataType::Date,
                    };
                    Column::new(format!("attr_{i}_name"), ty)
                })
                .collect(),
        );
        let d = time_median(reps, || {
            std::hint::black_box(compile_form_all_writable("f", "F", &schema))
        });
        t.push(vec![
            k.to_string(),
            fmt_duration(d),
            format!("{}", d.as_nanos() as usize / k),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Table 2 — browse latency: incremental vs materialize-and-sort
// ---------------------------------------------------------------------------

fn student_world(n: usize) -> World {
    let mut world = World::new(WorldConfig::default());
    world
        .db_mut()
        .run(
            "CREATE TABLE student (sid INT KEY, sname TEXT NOT NULL, year INT, gpa FLOAT)
             RANGE OF s IS student",
        )
        .unwrap();
    let mut rng = DetRng::new(42);
    for sid in 0..n {
        world
            .db_mut()
            .insert(
                "student",
                vec![
                    Value::Int(sid as i64),
                    Value::text(format!("student-{sid:07}")),
                    Value::Int(rng.range_i64(1, 4)),
                    Value::Float((rng.unit_f64() * 4.0 * 100.0).round() / 100.0),
                ],
            )
            .unwrap();
    }
    world
        .define_view(
            "students",
            "RANGE OF s IS student RETRIEVE (s.sid, s.sname, s.year, s.gpa)",
        )
        .unwrap();
    world
}

/// Table 2: open-window and page-forward latency, incremental (index
/// cursor) vs materialize-and-sort, as the base relation grows.
pub fn table2_browse(scale: Scale) -> Table {
    let mut t = Table::new(
        "Table 2",
        "browse latency vs base cardinality (page = 16 rows)",
        &[
            "rows",
            "open (indexed)",
            "page (indexed)",
            "open (materialize+sort)",
            "page (materialized)",
        ],
        "indexed open/page stay flat as N grows; materialize cost grows with N",
    );
    let sizes: Vec<usize> = scale.pick(vec![500, 2_000], vec![1_000, 10_000, 100_000]);
    for n in sizes {
        let mut world = student_world(n);
        let upd = analyze(world.db(), world.views(), "students").unwrap();
        // Incremental.
        let (open_ix, mut cursor) =
            time_once(|| BrowseCursor::keyed(world.db_mut(), upd.clone(), 16, None).unwrap());
        let page_ix = {
            let mut total = Duration::ZERO;
            let pages = 8;
            for _ in 0..pages {
                let (d, _) = time_once(|| cursor.next_page(world.db_mut()).unwrap());
                total += d;
            }
            total / 8
        };
        // Materialize-and-sort baseline.
        let (open_mat, mut mat) = time_once(|| {
            let query = ViewQuery {
                sort: vec![SortKey {
                    column: "sid".into(),
                    ascending: true,
                }],
                ..Default::default()
            };
            let (db, vc) = world.db_and_views();
            BrowseCursor::materialized(db, vc, "students", query, Some(&upd), 16).unwrap()
        });
        let page_mat = time_median(8, || mat.next_page(world.db_mut()).unwrap());
        t.push(vec![
            n.to_string(),
            fmt_duration(open_ix),
            fmt_duration(page_ix),
            fmt_duration(open_mat),
            fmt_duration(page_mat),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Table 2b — limit pushdown: LIMIT 16 queries, streaming vs materializing
// ---------------------------------------------------------------------------

/// Table 2b: `RETRIEVE ... LIMIT 16` over a growing relation, run by the
/// streaming executor (the scan stops as soon as the limit quota fills) vs
/// the materializing reference (scans everything, then truncates).
pub fn table2b_limit_pushdown(scale: Scale) -> Table {
    let mut t = Table::new(
        "Table 2b",
        "browse-open latency with LIMIT 16 vs base cardinality",
        &[
            "rows",
            "streaming",
            "materializing",
            "speedup",
            "rows scanned (stream/mat)",
        ],
        "streaming cost is flat in N; materializing grows with N",
    );
    let sizes: Vec<usize> = scale.pick(vec![2_000, 8_000], vec![10_000, 100_000]);
    for n in sizes {
        let mut db = Database::in_memory();
        db.run("CREATE TABLE big (id INT KEY, v INT, pad TEXT) RANGE OF g IS big")
            .unwrap();
        for id in 0..n {
            db.insert(
                "big",
                vec![
                    Value::Int(id as i64),
                    Value::Int((id % 97) as i64),
                    Value::text(format!("{id:0100}")),
                ],
            )
            .unwrap();
        }
        let stmt = wow_rel::quel::ast::RetrieveStmt {
            unique: false,
            targets: vec![
                wow_rel::quel::ast::Target::Expr {
                    name: None,
                    expr: Expr::ColumnRef("g.id".into()),
                },
                wow_rel::quel::ast::Target::Expr {
                    name: None,
                    expr: Expr::ColumnRef("g.v".into()),
                },
            ],
            where_: None,
            group_by: vec![],
            sort_by: vec![],
            limit: Some((0, 16)),
        };
        let block = wow_rel::plan::build_query_block(&db, &stmt).unwrap();
        let plan = wow_rel::plan::optimize(&db, &block).unwrap();
        // Work counters: the streaming path must not scan the whole table.
        db.reset_counters();
        let streamed = execute(&mut db, &plan).unwrap();
        let scanned_stream = db.counters().rows_scanned;
        db.reset_counters();
        let materialized = execute_materializing(&mut db, &plan).unwrap();
        let scanned_mat = db.counters().rows_scanned;
        assert_eq!(streamed.tuples, materialized.tuples, "paths agree");
        assert_eq!(streamed.tuples.len(), 16);
        assert!(
            scanned_stream < n as u64 && scanned_mat >= n as u64,
            "limit pushdown must stop the scan early ({scanned_stream} vs {scanned_mat})"
        );
        // Wall-clock comparison.
        let reps = scale.pick(3, 5);
        let d_stream = time_median(reps, || execute(&mut db, &plan).unwrap());
        let d_mat = time_median(reps, || execute_materializing(&mut db, &plan).unwrap());
        let speedup = d_mat.as_secs_f64() / d_stream.as_secs_f64().max(1e-12);
        if scale == Scale::Full && n >= 100_000 {
            assert!(
                speedup >= 5.0,
                "LIMIT 16 over {n} rows: expected ≥5× from pushdown, got {speedup:.1}×"
            );
        }
        t.push(vec![
            n.to_string(),
            fmt_duration(d_stream),
            fmt_duration(d_mat),
            format!("{speedup:.1}×"),
            format!("{scanned_stream}/{scanned_mat}"),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Table 3 — update through a view vs direct base update
// ---------------------------------------------------------------------------

/// Table 3: per-row cost of updating through an updatable view vs updating
/// the base table directly.
pub fn table3_view_update(scale: Scale) -> Table {
    let mut t = Table::new(
        "Table 3",
        "update-through-view overhead (single-relation, key-preserving view)",
        &["path", "updates", "total", "µs/update", "ratio"],
        "through-view adds a small constant factor (< 2×)",
    );
    let n = scale.pick(200, 2_000);
    let cfg = SuppliersConfig {
        suppliers: n,
        parts: 10,
        shipments: 10,
        seed: 7,
    };
    let mut world = suppliers::build_world(WorldConfig::default(), &cfg);
    let upd = analyze(world.db(), world.views(), "suppliers").unwrap();
    let rows = wow_views::translate::view_rows_with_rids(world.db_mut(), &upd).unwrap();
    assert_eq!(rows.len(), n);
    // Warm-up pass so neither timed loop pays the cold-cache cost.
    for (rid, row) in &rows {
        world
            .db_mut()
            .update_rid("supplier", *rid, row.values.clone())
            .unwrap();
    }
    // Direct base updates.
    let (direct, _) = time_once(|| {
        for (i, (rid, row)) in rows.iter().enumerate() {
            // The suppliers view projects every base column in base order,
            // so the view row doubles as the base row here.
            let mut vals = row.values.clone();
            vals[3] = Value::Int(50 + i as i64 % 10);
            world.db_mut().update_rid("supplier", *rid, vals).unwrap();
        }
    });
    // Through-view updates (same field, different values so rows dirty).
    let (through, _) = time_once(|| {
        for (i, (rid, _)) in rows.iter().enumerate() {
            let row = wow_views::translate::update_through_view(
                world.db_mut(),
                &upd,
                *rid,
                &[(3, Value::Int(60 + i as i64 % 10))],
                wow_views::translate::CheckOption::Checked,
            )
            .unwrap()
            .expect("row exists");
            world.db_mut().update_rid("supplier", *rid, row).unwrap();
        }
    });
    let us = |d: Duration| d.as_micros() as f64 / n as f64;
    t.push(vec![
        "direct base update".into(),
        n.to_string(),
        fmt_duration(direct),
        format!("{:.1}", us(direct)),
        "1.00×".into(),
    ]);
    t.push(vec![
        "through view".into(),
        n.to_string(),
        fmt_duration(through),
        format!("{:.1}", us(through)),
        format!("{:.2}×", through.as_secs_f64() / direct.as_secs_f64()),
    ]);
    t
}

// ---------------------------------------------------------------------------
// Table 4 — query-by-form vs hand-written QUEL
// ---------------------------------------------------------------------------

/// Table 4: a QBF entry against the equivalent hand-written QUEL.
pub fn table4_qbf(scale: Scale) -> Table {
    let mut t = Table::new(
        "Table 4",
        "query-by-form vs hand-written QUEL (same answers, same plans)",
        &["query", "rows", "QBF synth", "QBF total", "QUEL total"],
        "synthesis cost is negligible; totals match because the plans match",
    );
    let cfg = SuppliersConfig {
        suppliers: scale.pick(200, 2_000),
        parts: 50,
        shipments: scale.pick(500, 5_000),
        seed: 11,
    };
    let mut world = suppliers::build_world(WorldConfig::default(), &cfg);
    let schema = wow_views::expand::view_schema(world.db(), world.views(), "suppliers").unwrap();
    let spec = compile_form_all_writable("suppliers", "Suppliers", &schema);
    let cases: Vec<(&str, Vec<&str>, String)> = vec![
        (
            "city equality",
            vec!["", "", "london", ""],
            r#"RETRIEVE (s.sno, s.sname, s.city, s.status) WHERE s.city = "london""#.into(),
        ),
        (
            "status range",
            vec!["", "", "", "20..30"],
            "RETRIEVE (s.sno, s.sname, s.city, s.status) WHERE s.status >= 20 AND s.status <= 30"
                .into(),
        ),
        (
            "pattern + comparison",
            vec!["", "supplier-00*", "", ">15"],
            r#"RETRIEVE (s.sno, s.sname, s.city, s.status) WHERE s.sname LIKE "supplier-00*" AND s.status > 15"#
                .into(),
        ),
    ];
    let reps = scale.pick(3, 15);
    for (label, entries, quel) in cases {
        let entries: Vec<String> = entries.iter().map(|s| s.to_string()).collect();
        let synth = time_median(reps.max(10) * 20, || {
            std::hint::black_box(form_predicate(&spec, &entries).unwrap())
        });
        let pred = form_predicate(&spec, &entries).unwrap();
        let qbf_total = time_median(reps, || {
            let q = ViewQuery {
                pred: pred.clone(),
                ..Default::default()
            };
            let (db, vc) = world.db_and_views();
            run_view_query(db, vc, "suppliers", &q).unwrap()
        });
        let quel_total = time_median(reps, || world.db_mut().run(&quel).unwrap());
        // Answers must agree.
        let q = ViewQuery {
            pred: pred.clone(),
            ..Default::default()
        };
        let (db, vc) = world.db_and_views();
        let a = run_view_query(db, vc, "suppliers", &q).unwrap();
        let b = world.db_mut().run(&quel).unwrap();
        assert_eq!(a.len(), b.len(), "QBF and QUEL disagree for {label}");
        t.push(vec![
            label.to_string(),
            a.len().to_string(),
            fmt_duration(synth),
            fmt_duration(qbf_total),
            fmt_duration(quel_total),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Figure 1 — redraw cost vs number of windows
// ---------------------------------------------------------------------------

/// Figure 1: cells written per localized update, damage-tracked vs full
/// repaint, as windows accumulate.
pub fn figure1_redraw(scale: Scale) -> Table {
    let mut t = Table::new(
        "Figure 1",
        "screen update cost vs open windows (one field edited)",
        &[
            "windows",
            "damage cells",
            "full-repaint cells",
            "damage time",
            "repaint time",
        ],
        "damage cost tracks the edit (flat); full repaint tracks the screen",
    );
    let counts: Vec<usize> = scale.pick(vec![1, 4], vec![1, 2, 4, 8, 16]);
    for wcount in counts {
        let mut world = suppliers::build_world(
            WorldConfig {
                screen: Size::new(160, 48),
                ..WorldConfig::default()
            },
            &SuppliersConfig {
                suppliers: 50,
                parts: 20,
                shipments: 100,
                seed: 21,
            },
        );
        let s = world.open_session();
        let mut wins = Vec::new();
        for i in 0..wcount {
            let rect = Rect::new((i as i32 % 4) * 38, (i as i32 / 4) * 11, 38, 11);
            wins.push(world.open_window(s, "suppliers", Some(rect)).unwrap());
        }
        world.render(); // prime
                        // One localized change: bump the status text of the first window.
        let mut toggle = false;
        let reps = scale.pick(5, 50);
        let mut damage_cells = 0u64;
        let damage_time = time_median(reps, || {
            toggle = !toggle;
            world.set_status(wins[0], if toggle { "edited A" } else { "edited B" });
            let patches = world.render();
            damage_cells = patches.len() as u64;
            patches.len()
        });
        // Full-repaint baseline over the same scene.
        let screen = world.config().screen;
        let repaint_time = time_median(reps, || {
            let snap = world.render_snapshot();
            std::hint::black_box(snap.len())
        });
        let full_cells = screen.area() as u64;
        t.push(vec![
            wcount.to_string(),
            damage_cells.to_string(),
            full_cells.to_string(),
            fmt_duration(damage_time),
            fmt_duration(repaint_time),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Figure 2 — join-view browse vs selectivity; hash join vs nested loop
// ---------------------------------------------------------------------------

/// Figure 2: querying a two-relation join view while a qty filter sweeps
/// selectivity; the expanded plan's hash join against a forced
/// nested-loop baseline.
pub fn figure2_join_view(scale: Scale) -> Table {
    let mut t = Table::new(
        "Figure 2",
        "join-view query time vs selectivity (hash join vs nested loop)",
        &["selectivity", "rows", "hash join", "nested loop", "speedup"],
        "hash join wins throughout and the gap grows with input size",
    );
    let cfg = SuppliersConfig {
        suppliers: scale.pick(100, 400),
        parts: 50,
        shipments: scale.pick(1_000, 20_000),
        seed: 31,
    };
    let mut world = suppliers::build_world(WorldConfig::default(), &cfg);
    let sels: Vec<f64> = scale.pick(vec![0.05, 0.5], vec![0.001, 0.01, 0.05, 0.2, 0.5]);
    let reps = scale.pick(3, 9);
    for sel in sels {
        let threshold = (1000.0 * sel).max(1.0) as i64;
        let pred = Expr::Binary {
            op: BinOp::Lt,
            left: Box::new(Expr::ColumnRef("qty".into())),
            right: Box::new(Expr::Literal(Value::Int(threshold))),
        };
        let query = ViewQuery {
            pred: Some(pred),
            ..Default::default()
        };
        let hash = time_median(reps, || {
            let (db, vc) = world.db_and_views();
            run_view_query(db, vc, "shipment_detail", &query).unwrap()
        });
        let (db, vc) = world.db_and_views();
        let rows = run_view_query(db, vc, "shipment_detail", &query)
            .unwrap()
            .len();
        // Forced nested-loop baseline over the same expansion.
        let nl_plan = nested_loop_detail_plan(world.db_mut(), threshold);
        let nl = time_median(reps, || execute(world.db_mut(), &nl_plan).unwrap());
        t.push(vec![
            format!("{sel}"),
            rows.to_string(),
            fmt_duration(hash),
            fmt_duration(nl),
            format!("{:.1}×", nl.as_secs_f64() / hash.as_secs_f64().max(1e-12)),
        ]);
    }
    t
}

/// Hand-built nested-loop plan equivalent to the expanded
/// `shipment_detail WHERE qty < threshold` query.
fn nested_loop_detail_plan(db: &mut Database, threshold: i64) -> PhysicalPlan {
    let supplier = db
        .catalog()
        .table("supplier")
        .unwrap()
        .schema
        .qualified("s");
    let shipment = db
        .catalog()
        .table("shipment")
        .unwrap()
        .schema
        .qualified("sp");
    let joined = Schema::join(&supplier, "l", &shipment, "r");
    let join_pred = Expr::Binary {
        op: BinOp::Eq,
        left: Box::new(Expr::ColumnRef("s.sno".into())),
        right: Box::new(Expr::ColumnRef("sp.sno".into())),
    }
    .resolve(&joined)
    .unwrap();
    let qty_pred = Expr::Binary {
        op: BinOp::Lt,
        left: Box::new(Expr::ColumnRef("sp.qty".into())),
        right: Box::new(Expr::Literal(Value::Int(threshold))),
    }
    .resolve(&shipment)
    .unwrap();
    let exprs = vec![
        Expr::ColumnRef("s.sname".into()).resolve(&joined).unwrap(),
        Expr::ColumnRef("sp.pno".into()).resolve(&joined).unwrap(),
        Expr::ColumnRef("sp.qty".into()).resolve(&joined).unwrap(),
    ];
    PhysicalPlan::Project {
        input: Box::new(PhysicalPlan::NestedLoopJoin {
            left: Box::new(PhysicalPlan::SeqScan {
                table: "supplier".into(),
                alias: "s".into(),
                pred: None,
            }),
            right: Box::new(PhysicalPlan::SeqScan {
                table: "shipment".into(),
                alias: "sp".into(),
                pred: Some(qty_pred),
            }),
            pred: Some(join_pred),
        }),
        exprs,
        names: vec!["sname".into(), "pno".into(), "qty".into()],
    }
}

// ---------------------------------------------------------------------------
// Figure 3 — index scan vs sequential scan crossover
// ---------------------------------------------------------------------------

/// Figure 3: selectivity sweep of `v < threshold` against a sequential
/// scan and a secondary-index range scan.
pub fn figure3_scan_crossover(scale: Scale) -> Table {
    let mut t = Table::new(
        "Figure 3",
        "access-path crossover: index range scan vs sequential scan",
        &["selectivity", "rows", "index scan", "seq scan", "winner"],
        "index wins at low selectivity; sequential wins past a few percent",
    );
    let n = scale.pick(2_000, 50_000);
    let mut db = Database::in_memory();
    db.run(
        "CREATE TABLE nums (k INT KEY, v INT NOT NULL, pad TEXT)
         CREATE INDEX nums_v ON nums (v)
         RANGE OF x IS nums",
    )
    .unwrap();
    let mut rng = DetRng::new(77);
    let pad = "x".repeat(40);
    for k in 0..n {
        db.insert(
            "nums",
            vec![
                Value::Int(k as i64),
                Value::Int(rng.below(n as u64) as i64),
                Value::text(pad.clone()),
            ],
        )
        .unwrap();
    }
    let sels: Vec<f64> = scale.pick(
        vec![0.001, 0.3],
        vec![0.0001, 0.001, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0],
    );
    let reps = scale.pick(3, 7);
    for sel in sels {
        let threshold = (n as f64 * sel).max(1.0) as i64;
        let schema = db.catalog().table("nums").unwrap().schema.qualified("x");
        let pred = Expr::Binary {
            op: BinOp::Lt,
            left: Box::new(Expr::ColumnRef("x.v".into())),
            right: Box::new(Expr::Literal(Value::Int(threshold))),
        }
        .resolve(&schema)
        .unwrap();
        let seq = PhysicalPlan::SeqScan {
            table: "nums".into(),
            alias: "x".into(),
            pred: Some(pred),
        };
        let index = PhysicalPlan::IndexRange {
            table: "nums".into(),
            alias: "x".into(),
            index: "nums_v".into(),
            lower: None,
            upper: Some(KeyBound {
                values: vec![Value::Int(threshold)],
                inclusive: false,
            }),
            residual: None,
        };
        let d_index = time_median(reps, || execute(&mut db, &index).unwrap());
        let d_seq = time_median(reps, || execute(&mut db, &seq).unwrap());
        let rows = execute(&mut db, &seq).unwrap().len();
        t.push(vec![
            format!("{sel}"),
            rows.to_string(),
            fmt_duration(d_index),
            fmt_duration(d_seq),
            if d_index < d_seq { "index" } else { "seq" }.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Figure 4 — propagation latency: delta refresh vs full re-query
// ---------------------------------------------------------------------------

/// Figure 4: one commit against a growing base, watched by an indexed
/// selection window, a forced-materialized whole-table window, and a keyed
/// join window. With delta propagation the commit pushes a typed delta
/// through the view algebra and patches the screenfuls in place; the
/// baseline refreshes every dependent window fully — a keyed page for the
/// join window, the whole extension for the materialized one.
pub fn figure4_propagate(scale: Scale) -> Table {
    let mut t = Table::new(
        "Figure 4",
        "commit propagation: delta refresh vs full re-query, growing base",
        &[
            "base rows",
            "delta commit",
            "full commit",
            "speedup",
            "delta refreshes/commit",
            "delta rows/commit",
        ],
        "delta refresh stays flat as the base grows; full re-query is linear",
    );
    let sizes: Vec<usize> = scale.pick(vec![200, 400], vec![1_000, 10_000, 100_000]);
    let reps = scale.pick(3, 9);
    for n in sizes {
        // (median commit time, delta refreshes, delta rows) per mode.
        let mut per_mode: Vec<(Duration, u64, u64)> = Vec::new();
        for delta_on in [true, false] {
            let mut world = suppliers::build_world(
                WorldConfig {
                    screen: Size::new(200, 60),
                    delta_propagation: delta_on,
                    ..WorldConfig::default()
                },
                &SuppliersConfig {
                    suppliers: n,
                    parts: (n / 2).max(50),
                    shipments: n * 2,
                    seed: 41,
                },
            );
            // A sentinel supplier with no shipments. The commits rewrite
            // its `status`, a column `shipment_detail` does not read, so
            // the join watcher is skipped without a probe or a query.
            let sentinel = vec![
                Value::Int(n as i64),
                Value::text("supplier-bench"),
                Value::text("london"),
                Value::Int(10),
            ];
            let s = world.open_session();
            let rid = world.apply_insert(s, "supplier", sentinel.clone()).unwrap();
            world.open_window(s, "london_suppliers", None).unwrap();
            world
                .open_window_using(
                    s,
                    "suppliers",
                    None,
                    WindowStyle::Form,
                    CursorStrategy::Materialized,
                )
                .unwrap();
            world.open_window(s, "shipment_detail", None).unwrap();
            // Warm up: derive the dependency sets and delta plans once.
            let status_row = |status: i64| {
                let mut row = sentinel.clone();
                row[3] = Value::Int(status);
                row
            };
            world
                .apply_update(s, "supplier", rid, status_row(11))
                .unwrap();
            let warm_rebuilds = world.dep_index().rebuilds();
            // Measure only the warm phase: snapshot the counters and diff
            // afterwards instead of zeroing the world's lifetime stats.
            let base = world.stats.snapshot();
            let mut status = 11;
            let d = time_median(reps, || {
                status += 1;
                world
                    .apply_update(s, "supplier", rid, status_row(status))
                    .unwrap();
            });
            let warm = world.stats.since(&base);
            assert_eq!(
                world.dep_index().rebuilds() - warm_rebuilds,
                0,
                "warm propagation must not recompute dependency sets"
            );
            if delta_on {
                assert_eq!(
                    warm.full_refreshes, 0,
                    "warm deltable windows must never fall back to re-query"
                );
                assert_eq!(
                    warm.delta_refreshes,
                    2 * reps as u64,
                    "the selection and materialized watchers refresh via deltas"
                );
            } else {
                assert_eq!(warm.delta_refreshes, 0);
                assert_eq!(
                    warm.full_refreshes,
                    3 * reps as u64,
                    "the baseline re-runs every dependent window"
                );
            }
            per_mode.push((d, warm.delta_refreshes, warm.delta_rows));
        }
        let (d_delta, refreshes, rows) = per_mode[0];
        let (d_full, _, _) = per_mode[1];
        let speedup = d_full.as_secs_f64() / d_delta.as_secs_f64().max(1e-9);
        t.push(vec![
            n.to_string(),
            fmt_duration(d_delta),
            fmt_duration(d_full),
            format!("{speedup:.1}x"),
            format!("{:.0}", refreshes as f64 / reps as f64),
            format!("{:.0}", rows as f64 / reps as f64),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Figure 5 — parallel scaling: scan and join build
// ---------------------------------------------------------------------------

/// Figure 5: wall-clock scaling of the two parallelized layers as the
/// worker count grows — a predicated full-table scan through the streaming
/// executor and a hash-join build over the same rows. Workers are pinned
/// per row with [`Database::set_workers`] (the documented env bypass), so
/// the sweep is deterministic even under a `WOW_WORKERS` CI matrix. The
/// workers=1 row *is* the pre-existing serial code path: every parallel
/// gate requires `workers > 1`.
pub fn figure5_parallel_scaling(scale: Scale) -> Table {
    let mut t = Table::new(
        "Figure 5",
        "parallel scaling: scan / join build vs worker count",
        &["workers", "scan", "scan ×", "join build", "join ×"],
        "speedups need real cores: flat on one CPU, ≥2× scan at 4 workers otherwise",
    );
    let scan_rows = scale.pick(6_000, 100_000);
    let reps = scale.pick(3, 7);

    // Scan + join share one table; the plan is built once so every worker
    // count executes the identical operator tree.
    let mut db = Database::in_memory();
    db.run("CREATE TABLE wide (id INT KEY, grp INT, pad TEXT) RANGE OF a IS wide")
        .unwrap();
    let pad = "y".repeat(40);
    for i in 0..scan_rows {
        db.insert(
            "wide",
            vec![
                Value::Int(i as i64),
                Value::Int((i % 53) as i64),
                Value::text(pad.clone()),
            ],
        )
        .unwrap();
    }
    let stmt = wow_rel::quel::ast::RetrieveStmt {
        unique: false,
        targets: vec![wow_rel::quel::ast::Target::Expr {
            name: None,
            expr: Expr::ColumnRef("a.id".into()),
        }],
        where_: Some(Expr::Binary {
            op: BinOp::Ge,
            left: Box::new(Expr::ColumnRef("a.grp".into())),
            right: Box::new(Expr::Literal(Value::Int(0))),
        }),
        group_by: vec![],
        sort_by: vec![],
        limit: None,
    };
    let block = wow_rel::plan::build_query_block(&db, &stmt).unwrap();
    let plan = wow_rel::plan::optimize(&db, &block).unwrap();
    let wide_id = db.catalog().table("wide").unwrap().id;
    let build_rows: Vec<wow_rel::tuple::Tuple> = db
        .scan_table_raw(wide_id)
        .unwrap()
        .into_iter()
        .map(|(_, tup)| tup)
        .collect();

    let mut serial_scan = Duration::ZERO;
    let mut serial_join = Duration::ZERO;
    let mut speedups: Vec<(usize, f64)> = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        db.set_workers(workers);
        let rows_out = execute(&mut db, &plan).unwrap().len();
        assert_eq!(
            rows_out, scan_rows,
            "scan output must not depend on workers"
        );
        let d_scan = time_median(reps, || execute(&mut db, &plan).unwrap());
        let d_join = time_median(reps, || {
            std::hint::black_box(wow_rel::exec::par::build_join_table(&db, &build_rows, &[1]))
        });
        if workers == 1 {
            (serial_scan, serial_join) = (d_scan, d_join);
        }
        let sx = serial_scan.as_secs_f64() / d_scan.as_secs_f64().max(1e-12);
        let jx = serial_join.as_secs_f64() / d_join.as_secs_f64().max(1e-12);
        speedups.push((workers, sx));
        t.push(vec![
            workers.to_string(),
            fmt_duration(d_scan),
            format!("{sx:.2}×"),
            fmt_duration(d_join),
            format!("{jx:.2}×"),
        ]);
    }
    // The scaling target only holds when the machine has cores to scale
    // onto; a single-CPU runner measures overhead, not parallelism.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if scale == Scale::Full && cores >= 4 {
        let &(_, sx) = speedups
            .iter()
            .find(|(w, _)| *w == 4)
            .expect("4-worker row");
        assert!(
            sx >= 2.0,
            "100k-row scan at 4 workers: want ≥2×, got {sx:.2}×"
        );
    }
    t
}

// ---------------------------------------------------------------------------
// Figure 6 — vectorized batch execution vs row-at-a-time
// ---------------------------------------------------------------------------

/// Build the Figure 6 table: `v` is uniform in `0..n` (so a `v < k`
/// predicate has selectivity `k/n`) and unindexed (so the planner always
/// picks a sequential scan with the predicate pushed down); `pad` is a
/// 100-byte text field standing in for the description-sized columns of a
/// typical form record — the row-at-a-time reference decodes (and
/// allocates) it for every row, the vectorized scan only for rows that
/// survive the filter.
fn figure6_world(n: usize) -> Database {
    let mut db = Database::in_memory();
    db.set_workers(1); // isolate vectorization from parallel scan effects
    db.run("CREATE TABLE reading (id INT KEY, v INT NOT NULL, pad TEXT) RANGE OF a IS reading")
        .unwrap();
    let mut rng = DetRng::new(66);
    let pad = "p".repeat(100);
    for i in 0..n {
        db.insert(
            "reading",
            vec![
                Value::Int(i as i64),
                Value::Int(rng.below(n as u64) as i64),
                Value::text(pad.clone()),
            ],
        )
        .unwrap();
    }
    db
}

/// `RETRIEVE (a.id) WHERE a.v < threshold`, planned.
fn figure6_plan(db: &Database, threshold: i64) -> PhysicalPlan {
    let stmt = wow_rel::quel::ast::RetrieveStmt {
        unique: false,
        targets: vec![wow_rel::quel::ast::Target::Expr {
            name: None,
            expr: Expr::ColumnRef("a.id".into()),
        }],
        where_: Some(Expr::Binary {
            op: BinOp::Lt,
            left: Box::new(Expr::ColumnRef("a.v".into())),
            right: Box::new(Expr::Literal(Value::Int(threshold))),
        }),
        group_by: vec![],
        sort_by: vec![],
        limit: None,
    };
    let block = wow_rel::plan::build_query_block(db, &stmt).unwrap();
    wow_rel::plan::optimize(db, &block).unwrap()
}

/// Time one plan row-at-a-time ([`execute_materializing`], which decodes
/// and interprets every row) and vectorized ([`execute`]):
/// `(row-at-a-time, vectorized, rows out)`.
///
/// The two are timed in *interleaved pairs* and each side reports its
/// minimum over the reps. Two back-to-back `time_median` blocks would let
/// machine-load drift between the blocks masquerade as an engine
/// difference; interleaving exposes both to the same drift, and the
/// per-side minimum is the usual noise-floor estimate of intrinsic cost on
/// a shared machine.
fn figure6_run(db: &mut Database, plan: &PhysicalPlan, reps: usize) -> (Duration, Duration, usize) {
    let mut d_row = Duration::MAX;
    let mut d_vec = Duration::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(execute_materializing(db, plan).unwrap());
        d_row = d_row.min(start.elapsed());
        let start = Instant::now();
        std::hint::black_box(execute(db, plan).unwrap());
        d_vec = d_vec.min(start.elapsed());
    }
    let out = execute(db, plan).unwrap().len();
    assert_eq!(out, execute_materializing(db, plan).unwrap().len());
    (d_row, d_vec, out)
}

/// Figure 6: the same filtered scans row-at-a-time (the materializing
/// reference interpreter) and through the vectorized batch executor,
/// across selectivity and cardinality. The last row is the honest
/// anti-sweet-spot shape: a tiny table, with little to amortize batch
/// setup over. (Early stop under a `LIMIT` is Table 2b's subject.)
pub fn figure6_vectorized(scale: Scale) -> Table {
    let mut t = Table::new(
        "Figure 6",
        "vectorized batch execution vs row-at-a-time: filtered scans",
        &[
            "rows",
            "selectivity",
            "row-at-a-time",
            "vectorized",
            "speedup",
            "rows out",
        ],
        "≥2× on selective 100k-row scans; narrows on tiny tables",
    );
    let sizes: Vec<usize> = scale.pick(vec![2_000], vec![10_000, 100_000]);
    let sels: Vec<f64> = scale.pick(vec![0.01, 0.5], vec![0.01, 0.1, 0.5, 0.9]);
    let reps = scale.pick(3, 7);
    for &n in &sizes {
        let mut db = figure6_world(n);
        for &sel in &sels {
            let threshold = ((n as f64 * sel) as i64).max(1);
            let plan = figure6_plan(&db, threshold);
            let (mut d_row, mut d_vec, out) = figure6_run(&mut db, &plan, reps);
            let mut speedup = d_row.as_secs_f64() / d_vec.as_secs_f64().max(1e-12);
            if scale == Scale::Full && n >= 100_000 && sel <= 0.01 {
                if speedup < 2.0 {
                    // One re-measure before declaring a regression: a
                    // single noisy draw on a shared box should not fail
                    // the build. The per-side minimum across both runs
                    // is the same noise-floor estimate figure6_run uses.
                    let (r2, v2, _) = figure6_run(&mut db, &plan, 2 * reps);
                    d_row = d_row.min(r2);
                    d_vec = d_vec.min(v2);
                    speedup = d_row.as_secs_f64() / d_vec.as_secs_f64().max(1e-12);
                }
                assert!(
                    speedup >= 2.0,
                    "selective scan over {n} rows: want ≥2× from vectorization, got {speedup:.2}×"
                );
            }
            t.push(vec![
                n.to_string(),
                format!("{sel}"),
                fmt_duration(d_row),
                fmt_duration(d_vec),
                format!("{speedup:.2}×"),
                out.to_string(),
            ]);
        }
    }
    // Honest losing shape: a table too small to amortize batch setup.
    let n = 64;
    let mut db = figure6_world(n);
    let plan = figure6_plan(&db, n as i64 / 2);
    let (d_row, d_vec, out) = figure6_run(&mut db, &plan, reps);
    let speedup = d_row.as_secs_f64() / d_vec.as_secs_f64().max(1e-12);
    t.push(vec![
        format!("{n} (tiny)"),
        "0.5".into(),
        fmt_duration(d_row),
        fmt_duration(d_vec),
        format!("{speedup:.2}×"),
        out.to_string(),
    ]);
    t
}

// ---------------------------------------------------------------------------
// Table 5 — locking ablation
// ---------------------------------------------------------------------------

/// Table 5: read-modify-write races with and without the lock manager.
pub fn table5_locking(scale: Scale) -> Table {
    let mut t = Table::new(
        "Table 5",
        "lock manager ablation: racing read-modify-write increments",
        &[
            "configuration",
            "increments",
            "final value",
            "lost updates",
            "time",
        ],
        "locking loses nothing at modest overhead; the unsafe baseline loses updates",
    );
    let rounds = scale.pick(200, 2_000);
    for locking in [true, false] {
        let mut world = suppliers::build_world(
            WorldConfig {
                locking,
                ..WorldConfig::default()
            },
            &SuppliersConfig {
                suppliers: 3,
                parts: 3,
                shipments: 3,
                seed: 51,
            },
        );
        let a = world.open_session();
        let b = world.open_session();
        let info = world.db().catalog().table("shipment").unwrap().clone();
        let (rid, row) = world.db_mut().scan_table_raw(info.id).unwrap()[0].clone();
        let start_qty = match row.values[3] {
            Value::Int(q) => q,
            _ => unreachable!(),
        };
        // Interleaved read-modify-write: each round, both sessions read the
        // quantity, then both write their increment. With locking, the
        // second reader is denied until the first writer releases, so its
        // read happens after — no lost update. Without locking the classic
        // race loses one of the two increments every round.
        let (d, lost) = time_once(|| {
            let mut lost = 0u64;
            for _ in 0..rounds {
                let before = read_qty(&mut world, info.id, rid);
                // Session A: lock, read, write, unlock.
                let a_read = if world.try_lock(a, "shipment", LockMode::Exclusive) {
                    read_qty(&mut world, info.id, rid)
                } else {
                    before // denied: retry by reading stale (never happens: A goes first)
                };
                // Session B: tries to lock while A holds it.
                let b_granted = world.try_lock(b, "shipment", LockMode::Exclusive);
                let b_read_early = read_qty(&mut world, info.id, rid);
                // A writes and releases.
                write_qty(&mut world, rid, a_read + 1);
                world.release_locks(a);
                // B proceeds: if it was granted the lock concurrently (only
                // possible when locking is off), it uses its *early* read —
                // the lost-update interleaving. Denied B retries correctly.
                let b_read = if b_granted {
                    b_read_early
                } else {
                    assert!(world.try_lock(b, "shipment", LockMode::Exclusive));
                    read_qty(&mut world, info.id, rid)
                };
                write_qty(&mut world, rid, b_read + 1);
                world.release_locks(b);
                let after = read_qty(&mut world, info.id, rid);
                lost += (2 - (after - before)) as u64;
            }
            lost
        });
        let final_qty = read_qty(&mut world, info.id, rid);
        let expected = start_qty + 2 * rounds as i64;
        if locking {
            assert_eq!(final_qty, expected, "locking must lose nothing");
        }
        t.push(vec![
            if locking {
                "strict 2PL"
            } else {
                "no locking (unsafe)"
            }
            .into(),
            (2 * rounds).to_string(),
            format!("{final_qty} (want {expected})"),
            lost.to_string(),
            fmt_duration(d),
        ]);
    }
    t
}

fn read_qty(world: &mut World, table: wow_rel::catalog::TableId, rid: wow_storage::Rid) -> i64 {
    match world.db_mut().get_row(table, rid).unwrap().unwrap().values[3] {
        Value::Int(q) => q,
        _ => unreachable!(),
    }
}

fn write_qty(world: &mut World, rid: wow_storage::Rid, qty: i64) {
    let info = world.db().catalog().table("shipment").unwrap().clone();
    let mut row = world.db_mut().get_row(info.id, rid).unwrap().unwrap();
    row.values[3] = Value::Int(qty);
    world
        .db_mut()
        .update_rid("shipment", rid, row.values)
        .unwrap();
}

// ---------------------------------------------------------------------------
// Table 6 — WAL overhead and recovery
// ---------------------------------------------------------------------------

/// Table 6: insert throughput with/without the WAL, plus replay.
pub fn table6_wal(scale: Scale) -> Table {
    let mut t = Table::new(
        "Table 6",
        "write-ahead logging: overhead and recovery replay",
        &["configuration", "rows", "time", "µs/row"],
        "WAL adds bounded overhead; replay reconstructs exactly the committed rows",
    );
    let n = scale.pick(500, 10_000);
    let make_db = |wal: bool| {
        let mut db = Database::in_memory();
        if wal {
            db.attach_wal(Wal::in_memory());
        }
        db.create_table(
            "t",
            Schema::new(vec![
                Column::not_null("k", DataType::Int),
                Column::new("payload", DataType::Text),
            ]),
            &["k"],
        )
        .unwrap();
        db
    };
    let insert_all = |db: &mut Database| {
        for k in 0..n {
            db.insert(
                "t",
                vec![Value::Int(k as i64), Value::text(format!("row-{k:08}"))],
            )
            .unwrap();
        }
    };
    let mut plain = make_db(false);
    let (d_plain, _) = time_once(|| insert_all(&mut plain));
    let mut walled = make_db(true);
    let (d_wal, _) = time_once(|| insert_all(&mut walled));
    let mut wal = walled.take_wal().unwrap();
    // Replay starts from an *empty* database: since the WAL carries DDL,
    // the log itself recreates the table before the row inserts land.
    let mut recovered = Database::in_memory();
    let (d_replay, applied) = time_once(|| recovered.replay_wal(&mut wal).unwrap());
    assert_eq!(applied, n as u64 + 1, "n inserts + the CREATE TABLE");
    let tid = recovered.catalog().table("t").unwrap().id;
    assert_eq!(recovered.row_count(tid), n as u64);
    let us = |d: Duration| format!("{:.1}", d.as_micros() as f64 / n as f64);
    t.push(vec![
        "no WAL".into(),
        n.to_string(),
        fmt_duration(d_plain),
        us(d_plain),
    ]);
    t.push(vec![
        "WAL enabled".into(),
        n.to_string(),
        fmt_duration(d_wal),
        us(d_wal),
    ]);
    t.push(vec![
        "recovery replay".into(),
        n.to_string(),
        fmt_duration(d_replay),
        us(d_replay),
    ]);
    t
}

// ---------------------------------------------------------------------------
// Table 7 (ablation) — query modification vs view materialization
// ---------------------------------------------------------------------------

/// Table 7: answering a restricted query over a view by expansion (query
/// modification) vs by materializing the whole view and filtering the copy.
pub fn table7_expansion(scale: Scale) -> Table {
    let mut t = Table::new(
        "Table 7",
        "view access: query modification vs materialize-then-filter",
        &[
            "base rows",
            "result rows",
            "expansion",
            "materialization",
            "ratio",
        ],
        "expansion cost tracks the result; materialization pays for the whole view",
    );
    let sizes: Vec<usize> = scale.pick(vec![500], vec![1_000, 10_000, 50_000]);
    for n in sizes {
        let mut world = suppliers::build_world(
            WorldConfig::default(),
            &SuppliersConfig {
                suppliers: n,
                parts: 10,
                shipments: 10,
                seed: 71,
            },
        );
        // A selective restriction: one specific supplier number. Expansion
        // folds it into the plan (index probe on the pk); materialization
        // must construct all n rows first.
        let q = ViewQuery {
            pred: Some(Expr::Binary {
                op: BinOp::Eq,
                left: Box::new(Expr::ColumnRef("sno".into())),
                right: Box::new(Expr::Literal(Value::Int((n / 2) as i64))),
            }),
            ..Default::default()
        };
        let reps = scale.pick(3, 9);
        let exp = time_median(reps, || {
            let (db, vc) = world.db_and_views();
            run_view_query(db, vc, "suppliers", &q).unwrap()
        });
        let mat = time_median(reps, || {
            let (db, vc) = world.db_and_views();
            wow_views::expand::query_via_materialization(db, vc, "suppliers", &q).unwrap()
        });
        let (db, vc) = world.db_and_views();
        let rows = run_view_query(db, vc, "suppliers", &q).unwrap();
        let (db, vc) = world.db_and_views();
        let check = wow_views::expand::query_via_materialization(db, vc, "suppliers", &q).unwrap();
        assert_eq!(rows.tuples, check.tuples, "both strategies agree");
        t.push(vec![
            n.to_string(),
            rows.len().to_string(),
            fmt_duration(exp),
            fmt_duration(mat),
            format!("{:.1}×", mat.as_secs_f64() / exp.as_secs_f64().max(1e-12)),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Table 8 — instrumentation overhead: traced vs untraced hot paths
// ---------------------------------------------------------------------------

/// Table 8: the cost of the span tracer on the three hottest interactive
/// paths — window open, page forward, through-window commit with delta
/// propagation — measured with runtime tracing off and on.
pub fn table8_overhead(scale: Scale) -> Table {
    let mut t = Table::new(
        "Table 8",
        "instrumentation overhead: traced vs untraced hot paths",
        &["hot path", "untraced", "traced", "overhead"],
        "runtime tracing adds <5% to every hot path",
    );
    let n = scale.pick(300, 20_000);
    let reps = scale.pick(5, 60);
    // One world, both configurations interleaved over several rounds, with
    // the per-configuration minimum of the medians kept: separate worlds
    // (or one-shot ordering) let allocator and page-cache drift swamp the
    // ~200 ns a span actually costs.
    let mut world = student_world(n);
    let s = world.open_session();
    // A second window so commits exercise delta propagation.
    let _watcher = world.open_window(s, "students", None).unwrap();
    let editor = world.open_window(s, "students", None).unwrap();
    let pager = world.open_window(s, "students", None).unwrap();
    // [path][untraced, traced]
    let mut results = [[Duration::MAX; 2]; 3];
    let mut year = 10i64;
    for round in 0..scale.pick(2, 8) {
        // Alternate which configuration goes first so warm-up drift within
        // a round cannot systematically favour either side.
        let order = if round % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for traced in order {
            let ti = traced as usize;
            wow_obs::tracer().set_enabled(traced);
            let d = time_median(reps, || {
                let win = world.open_window(s, "students", None).unwrap();
                world.close_window(win).unwrap();
            });
            results[0][ti] = results[0][ti].min(d);
            let d = time_median(reps, || {
                if !world.browse_next_page(pager).unwrap() {
                    while world.browse_prev_page(pager).unwrap() {}
                }
            });
            results[1][ti] = results[1][ti].min(d);
            let d = time_median(reps, || {
                world.enter_edit(editor).unwrap();
                year += 1;
                world
                    .window_mut(editor)
                    .unwrap()
                    .form
                    .set_text(2, &(year % 90).to_string());
                world.commit(editor).unwrap();
            });
            results[2][ti] = results[2][ti].min(d);
        }
    }
    wow_obs::tracer().set_enabled(false);
    for (i, name) in ["browse open", "page forward", "delta commit"]
        .iter()
        .enumerate()
    {
        let [untraced, traced] = results[i];
        let overhead = (traced.as_secs_f64() / untraced.as_secs_f64().max(1e-12) - 1.0) * 100.0;
        t.push(vec![
            name.to_string(),
            fmt_duration(untraced),
            fmt_duration(traced),
            format!("{overhead:+.1}%"),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Table 9 — window server: request and commit→push latency vs clients
// ---------------------------------------------------------------------------

/// Table 9: the `wow-net` window server under a concurrent TCP clerk load.
///
/// For each client count the server gets a fresh student world; one client
/// is a watcher measuring commit→push delivery, one is an editor stamping
/// marker commits, and the rest replay deterministic browse scripts. The
/// interesting column is commit→push p95: the time from a commit's `Ack`
/// until another connection holds the refreshed screenful.
pub fn table9_net(scale: Scale) -> Table {
    let mut t = Table::new(
        "Table 9",
        "window server: request and commit→push latency vs connected clients",
        &[
            "clients", "requests", "req p50", "req p95", "req p99", "push p50", "push p95",
            "pushes",
        ],
        "commit→push delivery stays in the low milliseconds as clients grow",
    );
    let n = scale.pick(200, 2_000);
    let counts: &[usize] = scale.pick(&[2, 4][..], &[1, 8, 64][..]);
    for &clients in counts {
        let server = wow_net::Server::start(
            student_world(n),
            "127.0.0.1:0",
            wow_net::ServerConfig::default(),
        )
        .expect("bench server must bind a loopback port");
        let cfg = wow_workload::netload::NetLoadConfig {
            clients,
            ops_per_client: scale.pick(6, 40),
            commits: scale.pick(6, 30),
            view: "students".into(),
            edit_field: 2, // `year`: an integer column on the first screenful
            commit_gap_ms: 2,
            seed: 7 + clients as u64,
        };
        let report =
            wow_workload::netload::run(server.local_addr(), &cfg).expect("net load run failed");
        server.shutdown();
        let ns = |v: u64| fmt_duration(Duration::from_nanos(v));
        let req = |p: f64| ns(NetLoadReport::percentile(report.request_ns.clone(), p));
        let push = |p: f64| ns(NetLoadReport::percentile(report.commit_push_ns.clone(), p));
        t.push(vec![
            clients.to_string(),
            report.requests.to_string(),
            req(50.0),
            req(95.0),
            req(99.0),
            push(50.0),
            push(95.0),
            report.pushes.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Table 10 — the durability ladder: commit cost vs crash protection
// ---------------------------------------------------------------------------

/// Table 10: transactional insert cost at each rung of the durability
/// ladder — no WAL, in-memory WAL, file-backed WAL without fsync, and
/// file-backed WAL with an fsync on every commit — plus the cost of crash
/// recovery (reopening the durable directory and replaying the log).
///
/// Each rung runs the same workload: `n` transactions of one insert each
/// against a keyed two-column table.
pub fn table10_durability(scale: Scale) -> Table {
    use wow_storage::wal::SyncPolicy;
    let mut t = Table::new(
        "Table 10",
        "durability ladder: commit cost from no WAL to fsync-per-commit",
        &["configuration", "commits", "total", "per commit"],
        "the fsync, not the logging, is the price of durable commits; recovery replays the committed prefix",
    );
    let n: usize = scale.pick(30, 300);
    let schema = || {
        Schema::new(vec![
            Column::not_null("k", DataType::Int),
            Column::new("payload", DataType::Text),
        ])
    };
    let run_txns = |db: &mut Database| {
        for k in 0..n {
            db.begin().unwrap();
            db.insert(
                "t",
                vec![Value::Int(k as i64), Value::text(format!("row-{k:08}"))],
            )
            .unwrap();
            db.commit().unwrap();
        }
    };
    let per = |d: Duration| fmt_duration(Duration::from_nanos((d.as_nanos() / n as u128) as u64));
    let mut push = |label: &str, d: Duration| {
        t.push(vec![label.into(), n.to_string(), fmt_duration(d), per(d)]);
    };

    // Rung 0: no WAL at all.
    let mut plain = Database::in_memory();
    plain.create_table("t", schema(), &["k"]).unwrap();
    let (d_plain, _) = time_once(|| run_txns(&mut plain));
    push("no WAL", d_plain);

    // Rung 1: logging on, but the log is a memory buffer.
    let mut mem = Database::in_memory();
    mem.attach_wal(Wal::in_memory());
    mem.create_table("t", schema(), &["k"]).unwrap();
    let (d_mem, _) = time_once(|| run_txns(&mut mem));
    push("in-memory WAL", d_mem);

    // Rungs 2 and 3 share a durable directory setup; a closure keeps the
    // plumbing (open, disable auto-checkpoints, pin the fsync policy so
    // `WOW_FSYNC` can't skew the bench) in one place.
    let durable_dir = |tag: &str| {
        let dir =
            std::env::temp_dir().join(format!("wow-bench-durable-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };
    let open_with_policy = |dir: &std::path::Path, policy: SyncPolicy| {
        let mut db = Database::open_durable(dir).unwrap();
        db.set_checkpoint_every(0);
        let mut wal = db.take_wal().unwrap();
        wal.set_sync_policy(policy);
        db.attach_wal(wal);
        db.create_table("t", schema(), &["k"]).unwrap();
        db
    };

    // Rung 2: the log is a real file, but commits never fsync — fast, and
    // crash-safe against process death (the OS page cache survives a
    // `kill -9`), though not against power loss.
    let lazy_dir = durable_dir("lazy");
    let mut lazy = open_with_policy(&lazy_dir, SyncPolicy::Never);
    let (d_lazy, _) = time_once(|| run_txns(&mut lazy));
    push("file WAL, fsync never", d_lazy);

    // Crash recovery: drop the handle with no checkpoint (the moral
    // equivalent of `kill -9`) and time the reopen, which replays every
    // committed transaction from the log.
    drop(lazy);
    let (d_recover, recovered) = time_once(|| Database::open_durable(&lazy_dir).unwrap());
    let report = recovered.recovery_report().unwrap();
    assert_eq!(report.replayed_ops as usize, n + 1, "n inserts + the DDL");
    let tid = recovered.catalog().table("t").unwrap().id;
    assert_eq!(recovered.row_count(tid), n as u64);
    drop(recovered);
    push("crash recovery (reopen + replay)", d_recover);
    let _ = std::fs::remove_dir_all(&lazy_dir);

    // Rung 3, last row by contract: every commit pays a real fsync.
    let sync_dir = durable_dir("sync");
    let mut sync = open_with_policy(&sync_dir, SyncPolicy::Commit);
    let (d_sync, _) = time_once(|| run_txns(&mut sync));
    push("file WAL, fsync on commit", d_sync);
    drop(sync);
    let _ = std::fs::remove_dir_all(&sync_dir);

    t
}

/// The annotated plan behind `repro --explain`: one representative
/// filter/sort/limit query run through `EXPLAIN ANALYZE`.
pub fn explain_analyze_demo(scale: Scale) -> String {
    let n = scale.pick(500, 20_000);
    let mut world = student_world(n);
    let rows = world
        .db_mut()
        .run(
            "EXPLAIN ANALYZE RETRIEVE (s.sname, s.gpa) \
             WHERE s.year = 2 AND s.gpa > 2.0 SORT BY s.gpa LIMIT 10",
        )
        .unwrap();
    rows.tuples
        .iter()
        .map(|t| t.values[0].to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

/// One experiment: builds its world at a scale, asserts its invariants,
/// and returns its table.
pub type Experiment = fn(Scale) -> Table;

/// Every experiment, in report order, keyed by the name `repro` accepts.
pub const ALL: &[(&str, Experiment)] = &[
    ("table1", table1_form_compile),
    ("table2", table2_browse),
    ("table2b", table2b_limit_pushdown),
    ("table3", table3_view_update),
    ("table4", table4_qbf),
    ("figure1", figure1_redraw),
    ("figure2", figure2_join_view),
    ("figure3", figure3_scan_crossover),
    ("figure4", figure4_propagate),
    ("figure5", figure5_parallel_scaling),
    ("figure6", figure6_vectorized),
    ("table5", table5_locking),
    ("table6", table6_wal),
    ("table7", table7_expansion),
    ("table8", table8_overhead),
    ("table9", table9_net),
    ("table10", table10_durability),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_runs_at_smoke_scale() {
        for (_, experiment) in ALL {
            let table = experiment(Scale::Smoke);
            assert!(!table.rows.is_empty(), "{} produced no rows", table.id);
            // Render must not panic and must carry the id.
            let text = crate::render_table(&table);
            assert!(text.contains(&table.id));
        }
    }
}
