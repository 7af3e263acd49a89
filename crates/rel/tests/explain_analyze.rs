//! EXPLAIN ANALYZE profile shapes: the per-operator statistics must agree
//! with what actually flowed through the pipeline — pre-order indices
//! across a fused scan chain, `rows_in` derived from both join children,
//! drop-flushed stats under a satisfied limit, and one `exec_op` span per
//! operator when tracing — and profiling never changes a plan's results.
//! Generated plans are held to the same reference in `exec_equivalence`.

use wow_rel::db::Database;
use wow_rel::exec::{execute_analyzed, execute_materializing, PhysicalPlan};
use wow_rel::expr::{BinOp, Expr};
use wow_rel::plan::{build_query_block, optimize};
use wow_rel::quel::{parse_program, Statement};
use wow_rel::value::Value;

/// Ten rows `(i, i % 4, red|blue)` for the profile-shape tests.
fn ten_rows() -> Database {
    let mut db = Database::in_memory();
    db.run("CREATE TABLE t (id INT KEY, x INT, tag TEXT) RANGE OF a IS t RANGE OF b IS t")
        .unwrap();
    for i in 0..10 {
        let tag = if i % 2 == 0 { "red" } else { "blue" };
        db.insert(
            "t",
            vec![Value::Int(i), Value::Int(i % 4), Value::text(tag)],
        )
        .unwrap();
    }
    db
}

#[test]
fn analyzed_rows_match_execution() {
    let db = ten_rows();
    for src in [
        r#"RETRIEVE (a.x, a.tag) WHERE a.x >= 1 AND a.tag LIKE "r*""#,
        "RETRIEVE UNIQUE (a.x) SORT BY a.x",
        "RETRIEVE (a.id, b.tag) WHERE a.x = b.x AND b.id < 3 SORT BY a.id",
        "RETRIEVE (a.id) SORT BY a.id DESC LIMIT 3 OFFSET 2",
        "RETRIEVE (a.id) WHERE 12 / a.x > 2",
    ] {
        let Statement::Retrieve(stmt) = parse_program(src).unwrap().pop().unwrap() else {
            panic!("not a RETRIEVE: {src}");
        };
        let plan = optimize(&db, &build_query_block(&db, &stmt).unwrap()).unwrap();
        let want = execute_materializing(&mut db.read_replica(), &plan);
        // x = 0 on ids 0, 4 and 8, so only the division fails.
        assert_eq!(want.is_err(), src.contains(" / "), "{src}");
        for batch in [1, 3, 1024] {
            let mut run_db = db.read_replica();
            run_db.set_batch_size(batch);
            match (&want, execute_analyzed(&mut run_db, &plan)) {
                (Ok(want), Ok((got, profile))) => {
                    assert_eq!(want.tuples, got.tuples, "{src} at batch {batch}");
                    assert_eq!(profile.root().rows_out, got.len() as u64, "{src}");
                }
                (Err(_), Err(_)) => {}
                (want, got) => panic!(
                    "{src} at batch {batch}: reference ok={}, analyzed ok={}",
                    want.is_ok(),
                    got.is_ok()
                ),
            }
        }
    }
}

#[test]
fn join_profile_derives_rows_in_from_both_children() {
    let mut db = ten_rows().read_replica();
    let scan = |alias: &str| PhysicalPlan::SeqScan {
        table: "t".into(),
        alias: alias.into(),
        pred: None,
    };
    let plan = PhysicalPlan::NestedLoopJoin {
        left: Box::new(scan("a")),
        right: Box::new(scan("b")),
        pred: None,
    };
    let (rows, profile) = execute_analyzed(&mut db, &plan).unwrap();
    assert_eq!(rows.tuples.len(), 100, "10x10 cross product");
    assert_eq!(profile.nodes[0].rows_out, 100);
    assert_eq!(profile.nodes[1].rows_out, 10);
    assert_eq!(profile.nodes[2].rows_out, 10);
    let rendered = profile.render(&plan);
    assert!(
        rendered.lines().next().unwrap().contains("rows_in=20"),
        "join rows_in sums both children: {rendered}"
    );
}

#[test]
fn limit_pushdown_flushes_unexhausted_operators() {
    let mut db = ten_rows().read_replica();
    let plan = PhysicalPlan::Limit {
        input: Box::new(PhysicalPlan::SeqScan {
            table: "t".into(),
            alias: "a".into(),
            pred: None,
        }),
        offset: 0,
        count: Some(3),
    };
    let (rows, profile) = execute_analyzed(&mut db, &plan).unwrap();
    assert_eq!(rows.tuples.len(), 3);
    assert_eq!(profile.nodes[0].rows_out, 3, "limit emits its quota");
    // The limit's stop hint sizes the scan's only batch to its quota, and
    // the scan is never pulled to exhaustion (the limit stopped pulling),
    // so its stats arrive via the drop flush rather than the end-of-stream
    // flush.
    assert_eq!(profile.nodes[1].rows_out, 3);
    assert_eq!(profile.nodes[1].batches, 1);
}

#[test]
fn fused_scan_chain_keeps_preorder_indices() {
    let mut db = ten_rows().read_replica();
    db.set_batch_size(4);
    let schema = db.catalog().table("t").unwrap().schema.qualified("a");
    let pred = Expr::Binary {
        op: BinOp::Lt,
        left: Box::new(Expr::ColumnRef("a.x".into())),
        right: Box::new(Expr::Literal(Value::Int(2))),
    }
    .resolve(&schema)
    .unwrap();
    // Project(Filter(SeqScan)) fuses into the batch pipeline; indices must
    // still follow plan pre-order: Project=0, Filter=1, SeqScan=2.
    let plan = PhysicalPlan::Project {
        input: Box::new(PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::SeqScan {
                table: "t".into(),
                alias: "a".into(),
                pred: None,
            }),
            pred,
        }),
        exprs: vec![Expr::Column(0)],
        names: vec!["id".into()],
    };
    let (rows, profile) = execute_analyzed(&mut db, &plan).unwrap();
    // x cycles 0,1,2,3; x < 2 keeps x=0 (3 rows) and x=1 (3 rows).
    assert_eq!(rows.tuples.len(), 6);
    assert_eq!(profile.nodes[0].rows_out, 6, "project");
    assert_eq!(profile.nodes[1].rows_out, 6, "filter");
    assert_eq!(profile.nodes[2].rows_out, 10, "scan emits all rows");
    assert!(profile.nodes[2].batches >= 3, "batch size 4 over 10 rows");
}

#[test]
fn aggregate_profile_counts_the_chain_it_folds() {
    // The aggregate folds its fused chain's batches itself, evaluating the
    // chain's projection; that Project node still reports its rows.
    let mut db = ten_rows().read_replica();
    db.set_batch_size(4);
    let Statement::Retrieve(stmt) =
        parse_program("RETRIEVE (a.tag, n = COUNT(*), s = SUM(a.x)) WHERE a.x >= 1 GROUP BY a.tag")
            .unwrap()
            .pop()
            .unwrap()
    else {
        unreachable!()
    };
    let plan = optimize(&db, &build_query_block(&db, &stmt).unwrap()).unwrap();
    let (rows, profile) = execute_analyzed(&mut db, &plan).unwrap();
    assert_eq!(rows.tuples.len(), 2, "red and blue");
    let rendered = profile.render(&plan);
    let lines: Vec<&str> = rendered.lines().collect();
    assert_eq!(lines.len(), plan.node_count());
    // Project ∘ Aggregate ∘ Project ∘ SeqScan: x >= 1 keeps 7 of 10 rows.
    assert!(lines[1].starts_with("  Aggregate"), "{rendered}");
    assert_eq!(profile.nodes[1].rows_out, 2, "aggregate");
    assert_eq!(profile.nodes[2].rows_out, 7, "folded project");
    assert!(profile.nodes[2].batches >= 2, "batch size 4: {rendered}");
    assert_eq!(profile.nodes[3].rows_out, 7, "scan");
    assert!(lines[1].contains("rows_in=7"), "{rendered}");
}

#[test]
fn traced_run_mirrors_operator_tree() {
    let mut db = ten_rows().read_replica();
    let schema = db.catalog().table("t").unwrap().schema.qualified("a");
    let pred = Expr::Binary {
        op: BinOp::Ge,
        left: Box::new(Expr::ColumnRef("a.x".into())),
        right: Box::new(Expr::Literal(Value::Int(1))),
    }
    .resolve(&schema)
    .unwrap();
    let plan = PhysicalPlan::Sort {
        input: Box::new(PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::SeqScan {
                table: "t".into(),
                alias: "a".into(),
                pred: None,
            }),
            pred,
        }),
        keys: vec![(1, true)],
    };
    let t = wow_obs::tracer();
    let ctx = wow_obs::TraceContext::mint();
    t.set_enabled(true);
    let result = {
        let _g = wow_obs::install_context(Some(ctx));
        execute_analyzed(&mut db, &plan)
    };
    let spans = t.trace_spans(ctx.trace_id);
    t.set_enabled(false);
    let (rows, profile) = result.unwrap();
    let execs: Vec<_> = spans
        .iter()
        .filter(|s| s.op == wow_obs::Op::ExecOp)
        .collect();
    assert_eq!(
        execs.len(),
        plan.node_count(),
        "one exec_op span per operator"
    );
    let query = spans
        .iter()
        .find(|s| s.op == wow_obs::Op::QueryExec)
        .expect("query_exec span recorded in the same trace");
    assert!(
        execs.iter().any(|s| s.parent_id == query.span_id),
        "the root operator parents to the query_exec span"
    );
    for e in &execs {
        assert!(
            spans.iter().any(|s| s.span_id == e.parent_id),
            "every exec_op parent resolves within the trace"
        );
    }
    // The span args carry rows_out, mirroring the profile.
    let root_rows = profile.root().rows_out;
    assert_eq!(rows.tuples.len() as u64, root_rows);
    assert!(execs.iter().any(|s| s.arg == root_rows));
}
