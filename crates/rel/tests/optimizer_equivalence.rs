//! Optimizer correctness: randomly generated queries must produce exactly
//! the same multiset of rows through the optimizer as through a brute-force
//! reference evaluator (cross join + filter + project, no indexes, no join
//! reordering, no pushdown).
//!
//! The schema mixes `INT` and `FLOAT` indexed columns compared with literals
//! of either numeric type, and gives `tb` a composite key beside a
//! single-column index on its first key column, so the access paths that
//! build index keys from literals are all exercised.

use proptest::prelude::*;
use wow_rel::db::Database;
use wow_rel::eval::{eval, eval_pred};
use wow_rel::expr::{BinOp, Expr};
use wow_rel::plan::{build_query_block, optimize};
use wow_rel::quel::ast::{RetrieveStmt, SortKey, Target};
use wow_rel::schema::Schema;
use wow_rel::tuple::Tuple;
use wow_rel::value::Value;

/// Build a small, fully indexed world with deterministic data.
fn world(rows_a: &[(i64, i64, &str, f64)], rows_b: &[(i64, i64)]) -> Database {
    let mut db = Database::in_memory();
    db.run(
        "CREATE TABLE ta (id INT KEY, x INT, tag TEXT, g FLOAT)
         CREATE TABLE tb (id INT KEY, x INT KEY)
         CREATE INDEX ta_x ON ta (x)
         CREATE INDEX ta_g ON ta (g)
         CREATE INDEX tb_x ON tb (x) USING HASH
         CREATE INDEX tb_id ON tb (id)
         RANGE OF a IS ta
         RANGE OF b IS tb",
    )
    .unwrap();
    for (id, x, tag, g) in rows_a {
        db.insert(
            "ta",
            vec![
                Value::Int(*id),
                Value::Int(*x),
                Value::text(*tag),
                Value::Float(*g),
            ],
        )
        .unwrap();
    }
    for (id, x) in rows_b {
        db.insert("tb", vec![Value::Int(*id), Value::Int(*x)])
            .unwrap();
    }
    db
}

/// The reference evaluator: cross-join every used range, filter with the
/// whole WHERE, project the targets. No optimizer code involved.
fn brute_force(db: &mut Database, stmt: &RetrieveStmt, uses_b: bool) -> Vec<Tuple> {
    let ta = db.catalog().table("ta").unwrap().clone();
    let tb = db.catalog().table("tb").unwrap().clone();
    let schema_a = ta.schema.qualified("a");
    let schema_b = tb.schema.qualified("b");
    let rows_a: Vec<Tuple> = db
        .scan_table_raw(ta.id)
        .unwrap()
        .into_iter()
        .map(|(_, t)| t)
        .collect();
    let rows_b: Vec<Tuple> = db
        .scan_table_raw(tb.id)
        .unwrap()
        .into_iter()
        .map(|(_, t)| t)
        .collect();
    let (joined_schema, joined_rows): (Schema, Vec<Tuple>) = if uses_b {
        let schema = Schema::join(&schema_a, "l", &schema_b, "r");
        let mut rows = Vec::new();
        for a in &rows_a {
            for b in &rows_b {
                rows.push(a.concat(b));
            }
        }
        (schema, rows)
    } else {
        (schema_a, rows_a)
    };
    let pred = stmt
        .where_
        .clone()
        .map(|w| w.resolve(&joined_schema).unwrap());
    let targets: Vec<Expr> = stmt
        .targets
        .iter()
        .map(|t| match t {
            Target::Expr { expr, .. } => expr.clone().resolve(&joined_schema).unwrap(),
            Target::Agg { .. } => unreachable!("no aggregates in this generator"),
        })
        .collect();
    let mut out = Vec::new();
    for row in joined_rows {
        let keep = match &pred {
            Some(p) => eval_pred(p, &row).unwrap(),
            None => true,
        };
        if !keep {
            continue;
        }
        let vals: Vec<Value> = targets.iter().map(|t| eval(t, &row).unwrap()).collect();
        out.push(Tuple::new(vals));
    }
    out
}

fn canon(mut rows: Vec<Tuple>) -> Vec<String> {
    let mut out: Vec<String> = rows.drain(..).map(|t| t.to_string()).collect();
    out.sort();
    out
}

/// One conjunct over the generated schema.
#[derive(Debug, Clone)]
enum Conj {
    AXCmp(BinOp, Value),
    AGCmp(BinOp, Value),
    ATagEq(String),
    ATagLike(String),
    BXCmp(BinOp, i64),
    BIdCmp(BinOp, Value),
    JoinAxBx,
    JoinAidBid,
    AXIsNullTest(bool),
}

impl Conj {
    fn to_expr(&self) -> Expr {
        let col = |n: &str| Box::new(Expr::ColumnRef(n.to_string()));
        let lit = |v: Value| Box::new(Expr::Literal(v));
        match self {
            Conj::AXCmp(op, v) => Expr::Binary {
                op: *op,
                left: col("a.x"),
                right: lit(v.clone()),
            },
            Conj::AGCmp(op, v) => Expr::Binary {
                op: *op,
                left: col("a.g"),
                right: lit(v.clone()),
            },
            Conj::ATagEq(s) => Expr::Binary {
                op: BinOp::Eq,
                left: col("a.tag"),
                right: lit(Value::text(s.clone())),
            },
            Conj::ATagLike(p) => Expr::Like {
                expr: col("a.tag"),
                pattern: p.clone(),
            },
            Conj::BXCmp(op, v) => Expr::Binary {
                op: *op,
                left: col("b.x"),
                right: lit(Value::Int(*v)),
            },
            Conj::BIdCmp(op, v) => Expr::Binary {
                op: *op,
                left: col("b.id"),
                right: lit(v.clone()),
            },
            Conj::JoinAxBx => Expr::Binary {
                op: BinOp::Eq,
                left: col("a.x"),
                right: col("b.x"),
            },
            Conj::JoinAidBid => Expr::Binary {
                op: BinOp::Eq,
                left: col("a.id"),
                right: col("b.id"),
            },
            Conj::AXIsNullTest(negated) => {
                let test = Expr::IsNull(col("a.x"));
                if *negated {
                    Expr::Unary {
                        op: wow_rel::expr::UnOp::Not,
                        expr: Box::new(test),
                    }
                } else {
                    test
                }
            }
        }
    }

    fn uses_b(&self) -> bool {
        matches!(
            self,
            Conj::BXCmp(..) | Conj::BIdCmp(..) | Conj::JoinAxBx | Conj::JoinAidBid
        )
    }
}

/// A numeric literal of either type: an `INT`, or a `FLOAT` that is
/// integral or halfway between two integers.
fn num_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-2i64..8).prop_map(Value::Int),
        (-4i64..16).prop_map(|h| Value::Float(h as f64 / 2.0)),
    ]
}

fn conj_strategy() -> impl Strategy<Value = Conj> {
    let cmp = prop_oneof![
        Just(BinOp::Eq),
        Just(BinOp::Ne),
        Just(BinOp::Lt),
        Just(BinOp::Le),
        Just(BinOp::Gt),
        Just(BinOp::Ge),
    ];
    // Comparisons with a numeric literal are weighted up: they are what
    // the index access paths turn into keys.
    prop_oneof![
        3 => (cmp.clone(), num_strategy()).prop_map(|(op, v)| Conj::AXCmp(op, v)),
        3 => (cmp.clone(), num_strategy()).prop_map(|(op, v)| Conj::AGCmp(op, v)),
        1 => prop_oneof![Just("red"), Just("blue"), Just("green")]
            .prop_map(|s| Conj::ATagEq(s.to_string())),
        1 => prop_oneof![Just("r*"), Just("*e"), Just("b?ue"), Just("*")]
            .prop_map(|p| Conj::ATagLike(p.to_string())),
        1 => (cmp.clone(), -2i64..8).prop_map(|(op, v)| Conj::BXCmp(op, v)),
        2 => (cmp, num_strategy()).prop_map(|(op, v)| Conj::BIdCmp(op, v)),
        1 => Just(Conj::JoinAxBx),
        1 => Just(Conj::JoinAidBid),
        1 => any::<bool>().prop_map(Conj::AXIsNullTest),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]
    #[test]
    fn optimized_plans_match_brute_force(
        conjs in proptest::collection::vec(conj_strategy(), 0..4),
        rows_a in proptest::collection::vec(
            (
                (-2i64..8),
                prop_oneof![Just("red"), Just("blue"), Just("green")],
                (-4i64..16),
            ),
            0..12,
        ),
        rows_b in proptest::collection::vec(-2i64..8, 0..10),
        project_b in any::<bool>(),
    ) {
        let rows_a: Vec<(i64, i64, &str, f64)> = rows_a
            .iter()
            .enumerate()
            .map(|(i, (x, tag, h))| (i as i64, *x, *tag, *h as f64 / 2.0))
            .collect();
        let rows_b: Vec<(i64, i64)> = rows_b
            .iter()
            .enumerate()
            .map(|(i, x)| (i as i64, *x))
            .collect();
        let mut db = world(&rows_a, &rows_b);

        // Build the statement.
        let uses_b_in_where = conjs.iter().any(Conj::uses_b);
        let uses_b = uses_b_in_where || project_b;
        let mut targets = vec![
            Target::Expr { name: None, expr: Expr::ColumnRef("a.id".into()) },
            Target::Expr { name: None, expr: Expr::ColumnRef("a.x".into()) },
            Target::Expr { name: None, expr: Expr::ColumnRef("a.tag".into()) },
            Target::Expr { name: None, expr: Expr::ColumnRef("a.g".into()) },
        ];
        if project_b {
            targets.push(Target::Expr { name: None, expr: Expr::ColumnRef("b.x".into()) });
        }
        let where_ = if conjs.is_empty() {
            None
        } else {
            Some(Expr::conjunction(conjs.iter().map(Conj::to_expr).collect()))
        };
        let stmt = RetrieveStmt {
            unique: false,
            targets,
            where_,
            group_by: vec![],
            sort_by: vec![SortKey { column: "a.id".into(), ascending: true }],
            limit: None,
        };

        // The reference answer (ignore its row order; we compare multisets).
        let expect = canon(brute_force(&mut db, &stmt, uses_b));

        // The optimizer's answer.
        let block = build_query_block(&db, &stmt).unwrap();
        let plan = optimize(&db, &block).unwrap();
        let got = wow_rel::exec::execute(&mut db, &plan).unwrap();
        prop_assert_eq!(canon(got.tuples), expect, "plan:\n{}", plan.explain());
    }
}
