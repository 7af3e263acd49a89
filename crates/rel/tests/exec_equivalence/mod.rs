//! Executor equivalence: the one property every way of running a plan is
//! held to, and the one reference it is held against. For each generated
//! query, [`execute`] and [`execute_analyzed`] must return exactly the rows
//! of [`execute_materializing`] — the materialize-everything reference — in
//! the same order, under a random batch size (1–300) and worker count.
//!
//! This module is shared by the proptests that drive it, one per world
//! (both worlds have the same schema: `ta (id, x, tag)` with an index on
//! `x`, `tb (id, x)` with an index on `x` declared `USING HASH`, an alias for
//! a B+tree, and range variables `a` and `b`):
//!
//! * `streaming_equivalence.rs` — a small world built per case: `ta` holds
//!   0–40 rows (one case in four: 0–600) with NULLs in `x`, `tb` holds 0–10
//!   rows; workers 1–8.
//! * `par_equivalence.rs` — a shared big world whose tables hold
//!   [`BIG_ROWS`] rows each, above `PAR_SCAN_MIN_ROWS` and
//!   `PAR_JOIN_BUILD_MIN_ROWS`, so at 2–8 workers the parallel scan and the
//!   parallel hash-join build fire. Queries there that read `b` join on
//!   `a.id = b.id` (a cross product or an `a.x = b.x` join would run to
//!   10⁵–10⁷ rows). The same file drives `par::parallel_scan` directly on
//!   small worlds (the chunking check below).
//!
//! What is checked, case by case:
//!
//! * **Rows and order**: joins (nested-loop and hash), index and sequential
//!   scans, sort, distinct, limit/offset, and aggregates (global or
//!   `GROUP BY a.tag`; `COUNT(*)`, and `COUNT`, `SUM`, `AVG`, `MIN`, `MAX`
//!   of `a.x`), with WHERE conjunctions of comparisons, arithmetic,
//!   `k / a.x` (an error where `x = 0`), LIKE, IS NULL, and OR — over
//!   NULLs. Batch sizes of 1–300 make a group span batches.
//! * **Errors**: a run errors exactly when the reference does — except
//!   where the streaming engine legitimately never reads the failing row:
//!   below a satisfied LIMIT, or on the probe side of a join whose build
//!   side came out empty (so an empty join result may succeed where the
//!   reference failed). See [`reads_everything`].
//! * **Counters**: `rows_scanned`, `join_rows` and `index_probes` equal the
//!   reference's whenever the run reads everything (same exceptions).
//! * **Profile**: `execute_analyzed`'s root `rows_out` equals the rows
//!   returned, it has one node per plan node, and every rendered line is
//!   annotated with actuals.
//! * **Chunking**: `par::parallel_scan` is called directly on a small
//!   world's `ta` — 0 to 600 rows, so zero chunks, one short chunk and
//!   more workers than pages all occur — with a query's `a`-only
//!   conjuncts as its predicate, and must match the reference scan in
//!   rows, order, error verdict and `rows_scanned`.

// Each test binary that includes this module uses only part of it.
#![allow(dead_code)]

use proptest::prelude::*;
use std::cell::RefCell;
use wow_rel::db::Database;
use wow_rel::eval::compile::compile;
use wow_rel::exec::{execute, execute_analyzed, execute_materializing, par, AggFunc, PhysicalPlan};
use wow_rel::expr::{BinOp, Expr, UnOp};
use wow_rel::plan::{build_query_block, optimize};
use wow_rel::quel::ast::{RetrieveStmt, SortKey, Target};
use wow_rel::value::Value;

/// Rows in each table of the shared big world.
const BIG_ROWS: i64 = 5_000;

pub fn world(rows_a: &[(Option<i64>, &str)], rows_b: &[Option<i64>]) -> Database {
    let mut db = Database::in_memory();
    db.run(
        "CREATE TABLE ta (id INT KEY, x INT, tag TEXT)
         CREATE TABLE tb (id INT KEY, x INT)
         CREATE INDEX ta_x ON ta (x)
         CREATE INDEX tb_x ON tb (x) USING HASH
         RANGE OF a IS ta
         RANGE OF b IS tb",
    )
    .unwrap();
    let int = |x: &Option<i64>| x.map(Value::Int).unwrap_or(Value::Null);
    for (id, (x, tag)) in rows_a.iter().enumerate() {
        db.insert("ta", vec![Value::Int(id as i64), int(x), Value::text(*tag)])
            .unwrap();
    }
    for (id, x) in rows_b.iter().enumerate() {
        db.insert("tb", vec![Value::Int(id as i64), int(x)])
            .unwrap();
    }
    db
}

fn big_world() -> Database {
    let tags: Vec<String> = (0..17).map(|i| format!("v{i:02}")).collect();
    let rows_a: Vec<(Option<i64>, &str)> = (0..BIG_ROWS)
        .map(|i| {
            let x = (i % 31 != 0).then_some(i % 53 - 2);
            (x, tags[(i % 17) as usize].as_str())
        })
        .collect();
    let rows_b: Vec<Option<i64>> = (0..BIG_ROWS).map(|i| Some(i % 47)).collect();
    world(&rows_a, &rows_b)
}

thread_local! {
    /// The big world is built once per test thread; cases run on replicas.
    static BIG: RefCell<Option<Database>> = const { RefCell::new(None) };
}

/// One WHERE conjunct.
#[derive(Debug, Clone)]
enum Conj {
    /// `a.x op v`
    XCmp(BinOp, i64),
    /// `(a.x arith k) op v`
    XArithCmp(BinOp, i64, BinOp, i64),
    /// `k / a.x > v` — errors on rows where `x = 0`, so the error paths of
    /// the reference, the batch kernels' AND-narrowing and the parallel
    /// chunks line up.
    DivCmp(i64, i64),
    /// `a.tag LIKE pattern`
    TagLike(&'static str),
    /// `a.x IS NULL`, or its negation
    XIsNull(bool),
    /// `b.x op v`
    BXCmp(BinOp, i64),
    /// `a.x = b.x`
    JoinX,
    /// `a.id = b.id`
    JoinId,
    /// `lhs OR rhs`
    Or(Box<Conj>, Box<Conj>),
}

impl Conj {
    fn to_expr(&self) -> Expr {
        let col = |n: &str| Box::new(Expr::ColumnRef(n.into()));
        let lit = |v: i64| Box::new(Expr::Literal(Value::Int(v)));
        let bin = |op, left, right| Expr::Binary { op, left, right };
        match self {
            Conj::XCmp(op, v) => bin(*op, col("a.x"), lit(*v)),
            Conj::XArithCmp(aop, k, cop, v) => {
                bin(*cop, Box::new(bin(*aop, col("a.x"), lit(*k))), lit(*v))
            }
            Conj::DivCmp(k, v) => bin(
                BinOp::Gt,
                Box::new(bin(BinOp::Div, lit(*k), col("a.x"))),
                lit(*v),
            ),
            Conj::TagLike(p) => Expr::Like {
                expr: col("a.tag"),
                pattern: p.to_string(),
            },
            Conj::XIsNull(negated) => {
                let isnull = Expr::IsNull(col("a.x"));
                if *negated {
                    Expr::Unary {
                        op: UnOp::Not,
                        expr: Box::new(isnull),
                    }
                } else {
                    isnull
                }
            }
            Conj::BXCmp(op, v) => bin(*op, col("b.x"), lit(*v)),
            Conj::JoinX => bin(BinOp::Eq, col("a.x"), col("b.x")),
            Conj::JoinId => bin(BinOp::Eq, col("a.id"), col("b.id")),
            Conj::Or(l, r) => bin(BinOp::Or, Box::new(l.to_expr()), Box::new(r.to_expr())),
        }
    }

    /// Whether the conjunct reads `b`.
    fn reads_b(&self) -> bool {
        match self {
            Conj::BXCmp(..) | Conj::JoinX | Conj::JoinId => true,
            Conj::Or(l, r) => l.reads_b() || r.reads_b(),
            _ => false,
        }
    }
}

fn cmp_strategy() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Eq),
        Just(BinOp::Ne),
        Just(BinOp::Lt),
        Just(BinOp::Le),
        Just(BinOp::Gt),
        Just(BinOp::Ge),
    ]
}

/// A single-table restriction on `a` or `b`.
fn filter_leaf() -> impl Strategy<Value = Conj> {
    let arith = prop_oneof![
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::Mod),
    ];
    prop_oneof![
        (cmp_strategy(), -2i64..8).prop_map(|(op, v)| Conj::XCmp(op, v)),
        (arith, -3i64..4, cmp_strategy(), -4i64..8)
            .prop_map(|(a, k, c, v)| Conj::XArithCmp(a, k, c, v)),
        ((-20i64..20), (-4i64..4)).prop_map(|(k, v)| Conj::DivCmp(k, v)),
        prop_oneof![Just("v*"), Just("*2"), Just("v?"), Just("red")].prop_map(Conj::TagLike),
        any::<bool>().prop_map(Conj::XIsNull),
        (cmp_strategy(), -2i64..8).prop_map(|(op, v)| Conj::BXCmp(op, v)),
    ]
}

fn conj_strategy() -> impl Strategy<Value = Conj> {
    prop_oneof![
        6 => filter_leaf(),
        2 => (filter_leaf(), filter_leaf()).prop_map(|(l, r)| Conj::Or(Box::new(l), Box::new(r))),
        1 => Just(Conj::JoinX),
        1 => Just(Conj::JoinId),
    ]
}

/// The aggregates a query may compute: `COUNT(*)`, then `COUNT`, `SUM`,
/// `AVG`, `MIN` and `MAX` over `a.x` (which holds NULLs).
const AGGS: [(&str, AggFunc, bool); 6] = [
    ("n", AggFunc::Count, false),
    ("nx", AggFunc::Count, true),
    ("sx", AggFunc::Sum, true),
    ("ax", AggFunc::Avg, true),
    ("lo", AggFunc::Min, true),
    ("hi", AggFunc::Max, true),
];

/// An aggregate query's shape.
#[derive(Debug, Clone, Copy)]
struct Agg {
    /// `GROUP BY a.tag` (and retrieve `a.tag`), else one global group.
    grouped: bool,
    /// Which of [`AGGS`] to compute, one bit each (never 0).
    which: usize,
}

/// A generated query, instantiated per world by [`Query::stmt`].
#[derive(Debug)]
pub struct Query {
    conjs: Vec<Conj>,
    /// Also project `a.x + a.id`.
    project_expr: bool,
    /// Also project `b.x`.
    project_b: bool,
    unique: bool,
    sorted: bool,
    limit: Option<(usize, usize)>,
    /// Aggregate instead of projecting; the projection flags then do not
    /// apply, and a sort is by the group column.
    agg: Option<Agg>,
}

impl Query {
    fn stmt(&self, big: bool) -> RetrieveStmt {
        let target = |name: Option<&str>, expr: Expr| Target::Expr {
            name: name.map(str::to_string),
            expr,
        };
        let col = |n: &str| Expr::ColumnRef(n.into());
        if let Some(agg) = self.agg {
            return self.agg_stmt(agg, big);
        }
        let mut targets = vec![target(None, col("a.x")), target(None, col("a.tag"))];
        if self.project_expr {
            let sum = Expr::Binary {
                op: BinOp::Add,
                left: Box::new(col("a.x")),
                right: Box::new(col("a.id")),
            };
            targets.push(target(Some("xx"), sum));
        }
        if self.project_b {
            targets.push(target(None, col("b.x")));
        }
        RetrieveStmt {
            unique: self.unique,
            targets,
            where_: self.where_(big),
            group_by: vec![],
            sort_by: self.sort_by("a.x"),
            limit: self.limit,
        }
    }

    fn agg_stmt(&self, agg: Agg, big: bool) -> RetrieveStmt {
        let mut targets = Vec::new();
        if agg.grouped {
            targets.push(Target::Expr {
                name: None,
                expr: Expr::ColumnRef("a.tag".into()),
            });
        }
        for (i, (name, func, of_x)) in AGGS.into_iter().enumerate() {
            if agg.which & (1 << i) != 0 {
                targets.push(Target::Agg {
                    name: Some(name.into()),
                    func,
                    arg: of_x.then(|| Expr::ColumnRef("a.x".into())),
                });
            }
        }
        RetrieveStmt {
            unique: self.unique,
            targets,
            where_: self.where_(big),
            group_by: if agg.grouped {
                vec!["a.tag".into()]
            } else {
                vec![]
            },
            sort_by: if agg.grouped {
                self.sort_by("a.tag")
            } else {
                vec![]
            },
            limit: self.limit,
        }
    }

    /// The WHERE clause; in the big world a query that reads `b` joins on
    /// `a.id = b.id`.
    fn where_(&self, big: bool) -> Option<Expr> {
        let mut conjs: Vec<Conj> = self.conjs.clone();
        if big {
            conjs.retain(|c| !matches!(c, Conj::JoinX));
            let project_b = self.project_b && self.agg.is_none();
            if project_b || conjs.iter().any(Conj::reads_b) {
                conjs.push(Conj::JoinId);
            }
        }
        (!conjs.is_empty()).then(|| Expr::conjunction(conjs.iter().map(Conj::to_expr).collect()))
    }

    fn sort_by(&self, column: &str) -> Vec<SortKey> {
        if self.sorted {
            vec![SortKey {
                column: column.into(),
                ascending: true,
            }]
        } else {
            vec![]
        }
    }

    /// The conjunction of the conjuncts that read only `a`, if any.
    pub fn a_pred(&self) -> Option<Expr> {
        let parts: Vec<Expr> = self
            .conjs
            .iter()
            .filter(|c| !c.reads_b())
            .map(Conj::to_expr)
            .collect();
        (!parts.is_empty()).then(|| Expr::conjunction(parts))
    }
}

/// Whether a streaming run of `plan` that returned `rows_out` rows must
/// have read everything the reference read. A satisfied LIMIT stops
/// pulling, and a join whose build side is empty never pulls its probe
/// side — which, with two tables and no LIMIT, an empty result betrays.
fn reads_everything(plan: &PhysicalPlan, rows_out: usize) -> bool {
    fn walk(p: &PhysicalPlan, limit: &mut bool, join: &mut bool) {
        match p {
            PhysicalPlan::Limit { input, .. } => {
                *limit = true;
                walk(input, limit, join);
            }
            PhysicalPlan::NestedLoopJoin { left, right, .. }
            | PhysicalPlan::HashJoin { left, right, .. } => {
                *join = true;
                walk(left, limit, join);
                walk(right, limit, join);
            }
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Aggregate { input, .. }
            | PhysicalPlan::Distinct { input } => walk(input, limit, join),
            PhysicalPlan::SeqScan { .. }
            | PhysicalPlan::IndexScanEq { .. }
            | PhysicalPlan::IndexRange { .. } => {}
        }
    }
    let (mut limit, mut join) = (false, false);
    walk(plan, &mut limit, &mut join);
    !limit && (!join || rows_out > 0)
}

/// Run `plan` through [`execute`] and [`execute_analyzed`] on replicas of
/// `db` set to `batch` rows per batch and `workers` workers, holding both
/// to the reference.
pub fn check_plan(
    db: &Database,
    plan: &PhysicalPlan,
    batch: usize,
    workers: usize,
) -> Result<(), TestCaseError> {
    let mut ref_db = db.read_replica();
    let reference = execute_materializing(&mut ref_db, plan);
    let want_counters = ref_db.counters();
    for analyzed in [false, true] {
        let mut run_db = db.read_replica();
        run_db.set_batch_size(batch);
        run_db.set_workers(workers);
        let run = if analyzed {
            execute_analyzed(&mut run_db, plan).map(|(rows, profile)| (rows, Some(profile)))
        } else {
            execute(&mut run_db, plan).map(|rows| (rows, None))
        };
        let ctx = format!(
            "analyzed={analyzed} batch={batch} workers={workers}; plan:\n{}",
            plan.explain()
        );
        match (&reference, run) {
            (Ok(want), Ok((got, profile))) => {
                prop_assert_eq!(
                    &want.tuples,
                    &got.tuples,
                    "rows differ (order matters), {}",
                    ctx
                );
                prop_assert_eq!(want.schema.len(), got.schema.len());
                if reads_everything(plan, got.len()) {
                    let c = run_db.counters();
                    prop_assert_eq!(
                        c.rows_scanned,
                        want_counters.rows_scanned,
                        "rows_scanned, {}",
                        ctx
                    );
                    prop_assert_eq!(c.join_rows, want_counters.join_rows, "join_rows, {}", ctx);
                    prop_assert_eq!(
                        c.index_probes,
                        want_counters.index_probes,
                        "index_probes, {}",
                        ctx
                    );
                }
                if let Some(profile) = profile {
                    prop_assert_eq!(
                        profile.root().rows_out,
                        got.len() as u64,
                        "root rows_out, {}",
                        ctx
                    );
                    prop_assert_eq!(profile.nodes.len(), plan.node_count());
                    let rendered = profile.render(plan);
                    prop_assert_eq!(rendered.lines().count(), plan.node_count());
                    for line in rendered.lines() {
                        prop_assert!(
                            line.contains("(actual") && line.contains("rows="),
                            "unannotated render line: {}",
                            line
                        );
                    }
                }
            }
            (Err(_), Err(_)) => {}
            (Err(e), Ok((got, _))) => prop_assert!(
                !reads_everything(plan, got.len()),
                "reference failed ({}) but the run returned {} rows, {}",
                e,
                got.len(),
                ctx
            ),
            (Ok(want), Err(e)) => prop_assert!(
                false,
                "run failed ({}) but the reference returned {} rows, {}",
                e,
                want.len(),
                ctx
            ),
        }
    }
    Ok(())
}

/// Call the partitioned scan directly on `ta` with `pred` and hold it to
/// the reference scan: the small world's `ta` is far below the threshold
/// at which plans partition, so this is where its chunking is exercised.
pub fn check_parallel_scan(
    db: &Database,
    pred: Option<Expr>,
    batch: usize,
    workers: usize,
) -> Result<(), TestCaseError> {
    let schema = db.catalog().table("ta").unwrap().schema.qualified("a");
    let pred = pred.map(|p| p.resolve(&schema).unwrap());
    let scan = PhysicalPlan::SeqScan {
        table: "ta".into(),
        alias: "a".into(),
        pred: pred.clone(),
    };
    let mut ref_db = db.read_replica();
    let reference = execute_materializing(&mut ref_db, &scan).map(|rows| rows.tuples);
    let mut par_db = db.read_replica();
    par_db.set_batch_size(batch);
    par_db.set_workers(workers);
    let program = pred.as_ref().map(|p| compile(p).unwrap());
    let table = db.catalog().table("ta").unwrap().id;
    let got = par::parallel_scan(&mut par_db, table, program.as_ref());
    match (reference, got) {
        (Ok(want), Ok(got)) => {
            prop_assert_eq!(
                want,
                got,
                "rows differ at batch={} workers={}",
                batch,
                workers
            );
            prop_assert_eq!(
                par_db.counters().rows_scanned,
                ref_db.counters().rows_scanned,
                "scan counters differ"
            );
        }
        (Err(_), Err(_)) => {}
        (want, got) => prop_assert!(
            false,
            "one scan failed, the other did not: reference={:?} parallel={:?}",
            want.map(|r| r.len()),
            got.map(|r| r.len())
        ),
    }
    Ok(())
}

fn row_a() -> impl Strategy<Value = (Option<i64>, &'static str)> {
    (
        prop_oneof![4 => (-2i64..8).prop_map(Some), 1 => Just(None)],
        prop_oneof![Just("v00"), Just("v12"), Just("red"), Just("")],
    )
}

/// `ta` rows for a small world, with up to `max` rows.
pub fn rows_a(max: usize) -> impl Strategy<Value = Vec<(Option<i64>, &'static str)>> {
    proptest::collection::vec(row_a(), 0..max)
}

/// `tb` rows for a small world.
pub fn rows_b() -> impl Strategy<Value = Vec<Option<i64>>> {
    proptest::collection::vec(
        prop_oneof![4 => (-2i64..8).prop_map(Some), 1 => Just(None)],
        0..10,
    )
}

/// Small batches split pages and limits; large ones span them.
pub fn batch_size() -> impl Strategy<Value = usize> {
    prop_oneof![1 => 1usize..8, 2 => 1usize..301]
}

/// A query of 0–3 conjuncts with optional projections, UNIQUE, sort and
/// limit/offset; one in three aggregates instead of projecting, globally
/// or grouped by `a.tag`.
pub fn query() -> impl Strategy<Value = Query> {
    let rare = || prop_oneof![2 => Just(false), 1 => Just(true)];
    let shape = (
        proptest::collection::vec(conj_strategy(), 0..4),
        any::<bool>(),
        any::<bool>(),
    );
    let limit = prop_oneof![2 => Just(None), 1 => ((0usize..6), (0usize..20)).prop_map(Some)];
    let agg = prop_oneof![
        2 => Just(None),
        1 => (any::<bool>(), 1usize..64).prop_map(|(grouped, which)| Some(Agg { grouped, which })),
    ];
    (shape, (rare(), rare(), limit), agg).prop_map(
        |((conjs, project_expr, project_b), (unique, sorted, limit), agg)| Query {
            conjs,
            project_expr,
            project_b,
            unique,
            sorted,
            limit,
            agg,
        },
    )
}

/// Plan `query` for `db`, the big world if `big`.
pub fn plan(db: &Database, query: &Query, big: bool) -> PhysicalPlan {
    let block = build_query_block(db, &query.stmt(big)).unwrap();
    optimize(db, &block).unwrap()
}

/// Run `f` on this thread's big world, building it on first use.
pub fn with_big_world<R>(f: impl FnOnce(&Database) -> R) -> R {
    BIG.with(|cell| f(cell.borrow_mut().get_or_insert_with(big_world)))
}
