//! End-to-end view tests: expansion, updatability, update translation,
//! dependency tracking.

use wow_rel::db::Database;
use wow_rel::expr::Expr;
use wow_rel::quel::ast::SortKey;
use wow_rel::value::Value;
use wow_views::expand::{query_via_materialization, run_view_query, view_schema, ViewQuery};
use wow_views::translate::{
    insert_through_view, update_through_view, view_rows_with_rids, CheckOption,
};
use wow_views::updatable::{analyze, why_not};
use wow_views::{deps, ViewCatalog, ViewDef, ViewError};

fn world() -> (Database, ViewCatalog) {
    let mut db = Database::in_memory();
    db.run(
        r#"
        CREATE TABLE emp (name TEXT KEY, dept TEXT, salary INT, mgr TEXT)
        CREATE TABLE dept (dname TEXT KEY, floor INT)
        RANGE OF e IS emp
        APPEND TO dept (dname = "toy", floor = 1)
        APPEND TO dept (dname = "shoe", floor = 2)
        APPEND TO dept (dname = "candy", floor = 1)
    "#,
    )
    .unwrap();
    for (n, d, s, m) in [
        ("alice", "toy", 120, "erin"),
        ("bob", "shoe", 90, "erin"),
        ("carol", "toy", 150, "alice"),
        ("dave", "candy", 70, "erin"),
        ("erin", "shoe", 200, ""),
    ] {
        db.run(&format!(
            r#"APPEND TO emp (name = "{n}", dept = "{d}", salary = {s}, mgr = "{m}")"#
        ))
        .unwrap();
    }
    let mut vc = ViewCatalog::new();
    vc.register(
        ViewDef::parse(
            "toy_emps",
            r#"RANGE OF e IS emp RETRIEVE (e.name, e.salary) WHERE e.dept = "toy""#,
        )
        .unwrap(),
    )
    .unwrap();
    vc.register(
        ViewDef::parse(
            "emp_floor",
            "RANGE OF e IS emp RANGE OF d IS dept
             RETRIEVE (e.name, e.dept, d.floor) WHERE e.dept = d.dname",
        )
        .unwrap(),
    )
    .unwrap();
    vc.register(
        ViewDef::parse(
            "rich_toy_emps",
            "RANGE OF t IS toy_emps RETRIEVE (t.name, t.salary) WHERE t.salary > 130",
        )
        .unwrap(),
    )
    .unwrap();
    vc.register(
        ViewDef::parse(
            "dept_payroll",
            "RANGE OF e IS emp RETRIEVE (e.dept, total = SUM(e.salary)) GROUP BY e.dept",
        )
        .unwrap(),
    )
    .unwrap();
    (db, vc)
}

#[test]
fn simple_view_rows() {
    let (mut db, vc) = world();
    let rows = run_view_query(&mut db, &vc, "toy_emps", &ViewQuery::default()).unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows.schema.columns[0].name, "name");
    assert_eq!(rows.schema.columns[1].name, "salary");
}

#[test]
fn view_query_with_pred_sort_limit() {
    let (mut db, vc) = world();
    let q = ViewQuery {
        pred: Some(Expr::Binary {
            op: wow_rel::expr::BinOp::Gt,
            left: Box::new(Expr::ColumnRef("salary".into())),
            right: Box::new(Expr::Literal(Value::Int(100))),
        }),
        sort: vec![SortKey {
            column: "salary".into(),
            ascending: false,
        }],
        limit: Some((0, 1)),
    };
    let rows = run_view_query(&mut db, &vc, "toy_emps", &q).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows.tuples[0].values[0], Value::text("carol"));
}

#[test]
fn join_view_expands() {
    let (mut db, vc) = world();
    let rows = run_view_query(
        &mut db,
        &vc,
        "emp_floor",
        &ViewQuery {
            sort: vec![SortKey {
                column: "name".into(),
                ascending: true,
            }],
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(rows.len(), 5);
    // alice works in toy on floor 1.
    assert_eq!(rows.tuples[0].values[0], Value::text("alice"));
    assert_eq!(rows.tuples[0].values[2], Value::Int(1));
}

#[test]
fn nested_view_expansion_conjoins_predicates() {
    let (mut db, vc) = world();
    let rows = run_view_query(&mut db, &vc, "rich_toy_emps", &ViewQuery::default()).unwrap();
    // toy dept AND salary > 130 → carol only.
    assert_eq!(rows.len(), 1);
    assert_eq!(rows.tuples[0].values[0], Value::text("carol"));
}

#[test]
fn aggregate_view_materializes() {
    let (mut db, vc) = world();
    let rows = run_view_query(
        &mut db,
        &vc,
        "dept_payroll",
        &ViewQuery {
            sort: vec![SortKey {
                column: "dept".into(),
                ascending: true,
            }],
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(rows.len(), 3);
    assert_eq!(rows.tuples[2].values[0], Value::text("toy"));
    assert_eq!(rows.tuples[2].values[1], Value::Int(270));
    // Restrictions on aggregate views are rejected, not silently wrong.
    let q = ViewQuery {
        pred: Some(Expr::col_eq("dept", Value::text("toy"))),
        ..Default::default()
    };
    assert!(run_view_query(&mut db, &vc, "dept_payroll", &q).is_err());
}

#[test]
fn expansion_matches_materialization() {
    let (mut db, vc) = world();
    for view in ["toy_emps", "emp_floor", "rich_toy_emps"] {
        let q = ViewQuery {
            sort: vec![SortKey {
                column: "name".into(),
                ascending: true,
            }],
            ..Default::default()
        };
        let a = run_view_query(&mut db, &vc, view, &q).unwrap();
        let b = query_via_materialization(&mut db, &vc, view, &q).unwrap();
        assert_eq!(a.tuples, b.tuples, "view {view}");
    }
}

#[test]
fn view_schema_shape() {
    let (db, vc) = world();
    let s = view_schema(&db, &vc, "emp_floor").unwrap();
    assert_eq!(s.len(), 3);
    assert_eq!(s.columns[2].name, "floor");
    assert_eq!(s.columns[2].ty, wow_rel::types::DataType::Int);
}

#[test]
fn updatability_rules() {
    let (db, vc) = world();
    assert!(analyze(&db, &vc, "toy_emps").is_ok());
    assert!(
        analyze(&db, &vc, "rich_toy_emps").is_ok(),
        "nested but single-table"
    );
    let join_reasons = why_not(&db, &vc, "emp_floor");
    assert!(
        join_reasons.iter().any(|r| r.contains("2 base relations")),
        "{join_reasons:?}"
    );
    let agg_reasons = why_not(&db, &vc, "dept_payroll");
    assert!(agg_reasons.iter().any(|r| r.contains("aggregates")));
}

#[test]
fn key_preservation_required() {
    let (db, mut vc) = world();
    vc.register(ViewDef::parse("salaries_only", "RANGE OF e IS emp RETRIEVE (e.salary)").unwrap())
        .unwrap();
    let reasons = why_not(&db, &vc, "salaries_only");
    assert!(
        reasons.iter().any(|r| r.contains("key column name")),
        "{reasons:?}"
    );
}

#[test]
fn update_through_view_rewrites_base() {
    let (mut db, vc) = world();
    let upd = analyze(&db, &vc, "toy_emps").unwrap();
    let rows = view_rows_with_rids(&mut db, &upd).unwrap();
    assert_eq!(rows.len(), 2);
    let (rid, tuple) = rows
        .iter()
        .find(|(_, t)| t.values[0] == Value::text("alice"))
        .unwrap();
    assert_eq!(tuple.values[1], Value::Int(120));
    // Raise alice's salary through the view.
    let row = update_through_view(
        &mut db,
        &upd,
        *rid,
        &[(1, Value::Int(130))],
        CheckOption::Checked,
    )
    .unwrap()
    .unwrap();
    assert!(db.update_rid("emp", *rid, row).unwrap());
    let base = db
        .run(r#"RANGE OF e IS emp RETRIEVE (e.salary) WHERE e.name = "alice""#)
        .unwrap();
    assert_eq!(base.tuples[0].values[0], Value::Int(130));
    // Other base columns (dept, mgr) untouched.
    let base = db
        .run(r#"RETRIEVE (e.dept, e.mgr) WHERE e.name = "alice""#)
        .unwrap();
    assert_eq!(base.tuples[0].values[0], Value::text("toy"));
    assert_eq!(base.tuples[0].values[1], Value::text("erin"));
}

#[test]
fn escape_check_blocks_vanishing_rows() {
    let (mut db, mut vc) = world();
    vc.register(
        ViewDef::parse(
            "well_paid",
            "RANGE OF e IS emp RETRIEVE (e.name, e.salary) WHERE e.salary >= 100",
        )
        .unwrap(),
    )
    .unwrap();
    let upd = analyze(&db, &vc, "well_paid").unwrap();
    let rows = view_rows_with_rids(&mut db, &upd).unwrap();
    let (rid, _) = rows
        .iter()
        .find(|(_, t)| t.values[0] == Value::text("alice"))
        .unwrap();
    // Dropping salary below 100 would remove the row from the view.
    let err = update_through_view(
        &mut db,
        &upd,
        *rid,
        &[(1, Value::Int(50))],
        CheckOption::Checked,
    )
    .unwrap_err();
    assert!(matches!(err, ViewError::EscapesView { .. }));
    // Unchecked mode allows it.
    let row = update_through_view(
        &mut db,
        &upd,
        *rid,
        &[(1, Value::Int(50))],
        CheckOption::Unchecked,
    )
    .unwrap()
    .unwrap();
    assert!(db.update_rid("emp", *rid, row).unwrap());
    let rows = view_rows_with_rids(&mut db, &upd).unwrap();
    assert!(rows
        .iter()
        .all(|(_, t)| t.values[0] != Value::text("alice")));
}

#[test]
fn insert_through_view_then_delete_the_row() {
    let (mut db, vc) = world();
    let upd = analyze(&db, &vc, "toy_emps").unwrap();
    // Inserting through toy_emps fails the membership check (dept is not
    // projected, so it would be NULL ≠ "toy").
    let err = insert_through_view(
        &db,
        &upd,
        &[Value::text("zed"), Value::Int(80)],
        CheckOption::Checked,
    )
    .unwrap_err();
    assert!(matches!(err, ViewError::EscapesView { .. }));
    // Unchecked, it inserts with NULL dept.
    let row = insert_through_view(
        &db,
        &upd,
        &[Value::text("zed"), Value::Int(80)],
        CheckOption::Unchecked,
    )
    .unwrap();
    let rid = db.insert("emp", row).unwrap();
    let rows = db.run(r#"RETRIEVE (e.dept) WHERE e.name = "zed""#).unwrap();
    assert!(rows.tuples[0].values[0].is_null());
    assert!(db.delete_rid("emp", rid).unwrap());
    let rows = db.run(r#"RETRIEVE (e.name) WHERE e.name = "zed""#).unwrap();
    assert!(rows.is_empty());
}

#[test]
fn full_row_view_permits_checked_inserts() {
    let (mut db, mut vc) = world();
    vc.register(
        ViewDef::parse(
            "all_emps",
            "RANGE OF e IS emp RETRIEVE (e.name, e.dept, e.salary, e.mgr)",
        )
        .unwrap(),
    )
    .unwrap();
    let upd = analyze(&db, &vc, "all_emps").unwrap();
    let row = insert_through_view(
        &db,
        &upd,
        &[
            Value::text("frank"),
            Value::text("toy"),
            Value::Int(95),
            Value::text("alice"),
        ],
        CheckOption::Checked,
    )
    .unwrap();
    let rid = db.insert("emp", row).unwrap();
    assert!(rid.is_valid());
    let rows = view_rows_with_rids(&mut db, &upd).unwrap();
    assert_eq!(rows.len(), 6);
}

#[test]
fn computed_columns_are_read_only() {
    let (mut db, mut vc) = world();
    vc.register(
        ViewDef::parse(
            "pay_annual",
            "RANGE OF e IS emp RETRIEVE (e.name, annual = e.salary * 12)",
        )
        .unwrap(),
    )
    .unwrap();
    let upd = analyze(&db, &vc, "pay_annual").unwrap();
    assert!(upd.is_writable(0));
    assert!(!upd.is_writable(1));
    let rows = view_rows_with_rids(&mut db, &upd).unwrap();
    let (rid, t) = &rows[0];
    assert_eq!(
        t.values[1],
        Value::Int(match &t.values[1] {
            Value::Int(i) => *i,
            _ => panic!(),
        })
    );
    let err = update_through_view(
        &mut db,
        &upd,
        *rid,
        &[(1, Value::Int(0))],
        CheckOption::Checked,
    )
    .unwrap_err();
    assert!(matches!(err, ViewError::NotWritable { .. }));
}

#[test]
fn dependency_graph() {
    let (db, vc) = world();
    let t = deps::base_tables(&db, &vc, "rich_toy_emps").unwrap();
    assert_eq!(t.into_iter().collect::<Vec<_>>(), vec!["emp"]);
    let t = deps::base_tables(&db, &vc, "emp_floor").unwrap();
    assert_eq!(t.len(), 2);
    let mut index = deps::DepIndex::new();
    let mut readers = |table: &str| -> Vec<String> {
        let reads = |v: &String| index.reads(&db, &vc, v, table).unwrap();
        vc.names().into_iter().filter(reads).collect()
    };
    let emp = ["dept_payroll", "emp_floor", "rich_toy_emps", "toy_emps"];
    assert_eq!(readers("emp"), emp);
    assert_eq!(readers("dept"), ["emp_floor"]);
}

#[test]
fn stale_rid_update_returns_false() {
    let (mut db, vc) = world();
    let upd = analyze(&db, &vc, "toy_emps").unwrap();
    let rows = view_rows_with_rids(&mut db, &upd).unwrap();
    let (rid, _) = rows[0];
    db.delete_rid("emp", rid).unwrap();
    assert!(update_through_view(
        &mut db,
        &upd,
        rid,
        &[(1, Value::Int(1))],
        CheckOption::Checked
    )
    .unwrap()
    .is_none());
}
