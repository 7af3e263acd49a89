//! Physical query plans and their execution.
//!
//! Plans are trees of [`PhysicalPlan`] nodes produced by the optimizer
//! ([`crate::plan`]). [`execute`] compiles a plan into the pull-based
//! [`stream`] operator tree and drains it, so limits stop pulling (and
//! scanning) as soon as their quota is met; `wow-core` drives the same
//! operator trees incrementally to page join views. The original
//! materialize-everything recursion survives as [`execute_materializing`] —
//! the semantic reference the streaming path is property-tested against,
//! and the baseline the Table 2b experiment measures limit pushdown over.
//!
//! Operators:
//!
//! * scans: sequential with optional pushed-down predicate, index equality,
//!   index range (this module, streaming in [`stream`]);
//! * [`Filter`](PhysicalPlan::Filter), [`Project`](PhysicalPlan::Project),
//!   [`Limit`](PhysicalPlan::Limit) (this module and [`stream`]);
//! * joins — [`join`]: nested-loop (the 1983 baseline) and hash (the
//!   comparison point Figure 2 sweeps);
//! * [`sort`] (a pipeline breaker in the streaming path) and [`aggregate`],
//!   which folds rows into its groups as they arrive and never holds its
//!   input.

pub mod aggregate;
pub mod analyze;
pub mod join;
pub mod par;
pub mod sort;
pub mod stream;

pub use aggregate::{AggFunc, AggSpec};
pub use analyze::{NodeStats, PlanProfile};
pub use stream::{build_operator, Operator, TupleBlock, BLOCK_CAP};

use crate::db::Database;
use crate::error::RelResult;
use crate::eval::{eval, eval_pred};
use crate::expr::Expr;
use crate::schema::{Column, Schema};
use crate::tuple::Tuple;
use crate::value::Value;

/// A materialized result: schema plus tuples.
#[derive(Debug, Clone, PartialEq)]
pub struct Rows {
    /// Column names/types of the result.
    pub schema: Schema,
    /// The tuples.
    pub tuples: Vec<Tuple>,
}

impl Rows {
    /// An empty result with the given schema.
    pub fn empty(schema: Schema) -> Rows {
        Rows {
            schema,
            tuples: Vec::new(),
        }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Render as simple aligned text (used by examples and the repro tool).
    pub fn to_table_string(&self) -> String {
        let headers: Vec<&str> = self
            .schema
            .columns
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        let cells: Vec<Vec<String>> = self
            .tuples
            .iter()
            .map(|t| t.values.iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &cells {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        for (i, h) in headers.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", h, w = widths[i]));
        }
        out.push('\n');
        for (i, _) in headers.iter().enumerate() {
            out.push_str(&format!("{}  ", "-".repeat(widths[i])));
        }
        out.push('\n');
        for row in &cells {
            for (i, c) in row.iter().enumerate() {
                out.push_str(&format!("{:<w$}  ", c, w = widths[i]));
            }
            out.push('\n');
        }
        out
    }
}

/// An inclusive/exclusive bound on the leading index column.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyBound {
    /// Values for the index's leading column(s).
    pub values: Vec<Value>,
    /// Whether the bound itself is included.
    pub inclusive: bool,
}

/// A physical plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalPlan {
    /// Full scan of a table, with an optional pushed-down predicate
    /// (resolved against the alias-qualified table schema).
    SeqScan {
        /// Table name.
        table: String,
        /// Range-variable alias qualifying the output columns.
        alias: String,
        /// Residual predicate applied during the scan.
        pred: Option<Expr>,
    },
    /// Equality probe of an index.
    IndexScanEq {
        /// Table name.
        table: String,
        /// Alias for output columns.
        alias: String,
        /// Index name.
        index: String,
        /// Key values (the index's full column list).
        key: Vec<Value>,
        /// Residual predicate applied to fetched rows.
        residual: Option<Expr>,
    },
    /// Ordered range scan of a B+tree index (also used for full ordered
    /// scans when both bounds are `None`).
    IndexRange {
        /// Table name.
        table: String,
        /// Alias for output columns.
        alias: String,
        /// Index name (must be a B+tree).
        index: String,
        /// Lower bound on the leading column.
        lower: Option<KeyBound>,
        /// Upper bound on the leading column.
        upper: Option<KeyBound>,
        /// Residual predicate applied to fetched rows.
        residual: Option<Expr>,
    },
    /// Filter rows by a predicate.
    Filter {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Predicate (resolved against the input schema).
        pred: Expr,
    },
    /// Compute output expressions.
    Project {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Output expressions (resolved against the input schema).
        exprs: Vec<Expr>,
        /// Output column names.
        names: Vec<String>,
    },
    /// Nested-loop join with an arbitrary predicate.
    NestedLoopJoin {
        /// Left (outer) input.
        left: Box<PhysicalPlan>,
        /// Right (inner) input.
        right: Box<PhysicalPlan>,
        /// Join predicate over the concatenated schema (`None` = cross).
        pred: Option<Expr>,
    },
    /// Hash equi-join.
    HashJoin {
        /// Left (probe) input.
        left: Box<PhysicalPlan>,
        /// Right (build) input.
        right: Box<PhysicalPlan>,
        /// Key columns in the left schema.
        left_keys: Vec<usize>,
        /// Key columns in the right schema.
        right_keys: Vec<usize>,
        /// Residual predicate over the concatenated schema.
        residual: Option<Expr>,
    },
    /// Sort by columns.
    Sort {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// `(column, ascending)` sort keys, most significant first.
        keys: Vec<(usize, bool)>,
    },
    /// Group and aggregate.
    Aggregate {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Grouping columns (empty = a single global group).
        group_by: Vec<usize>,
        /// Aggregates to compute.
        aggs: Vec<AggSpec>,
    },
    /// Offset/limit.
    Limit {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Rows to skip.
        offset: usize,
        /// Max rows to emit (`None` = unlimited).
        count: Option<usize>,
    },
    /// Drop duplicate rows, keeping first occurrences (order-preserving,
    /// so a sort below survives). `RETRIEVE UNIQUE`.
    Distinct {
        /// Input plan.
        input: Box<PhysicalPlan>,
    },
}

impl PhysicalPlan {
    /// The schema of this plan's output.
    pub fn output_schema(&self, db: &Database) -> RelResult<Schema> {
        match self {
            PhysicalPlan::SeqScan { table, alias, .. }
            | PhysicalPlan::IndexScanEq { table, alias, .. }
            | PhysicalPlan::IndexRange { table, alias, .. } => {
                Ok(db.catalog().table(table)?.schema.qualified(alias))
            }
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Limit { input, .. }
            | PhysicalPlan::Distinct { input } => input.output_schema(db),
            PhysicalPlan::Sort { input, .. } => input.output_schema(db),
            PhysicalPlan::Project {
                input,
                exprs,
                names,
            } => {
                let in_schema = input.output_schema(db)?;
                let mut columns = Vec::with_capacity(exprs.len());
                for (e, n) in exprs.iter().zip(names) {
                    columns.push(Column {
                        name: n.clone(),
                        ty: crate::bind::column_type(e, &in_schema)?,
                        nullable: true,
                    });
                }
                Ok(Schema::new(columns))
            }
            PhysicalPlan::NestedLoopJoin { left, right, .. }
            | PhysicalPlan::HashJoin { left, right, .. } => {
                let l = left.output_schema(db)?;
                let r = right.output_schema(db)?;
                // Children are already alias-qualified; aliases here are moot.
                Ok(Schema::join(&l, "l", &r, "r"))
            }
            PhysicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let in_schema = input.output_schema(db)?;
                let mut columns = Vec::with_capacity(group_by.len() + aggs.len());
                for &g in group_by {
                    columns.push(in_schema.column(g).clone());
                }
                for a in aggs {
                    columns.push(Column {
                        name: a.name.clone(),
                        ty: a.output_type(&in_schema),
                        nullable: true,
                    });
                }
                Ok(Schema::new(columns))
            }
        }
    }

    /// Total number of operator nodes (used by plan tests).
    pub fn node_count(&self) -> usize {
        1 + match self {
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Aggregate { input, .. }
            | PhysicalPlan::Limit { input, .. }
            | PhysicalPlan::Distinct { input } => input.node_count(),
            PhysicalPlan::NestedLoopJoin { left, right, .. }
            | PhysicalPlan::HashJoin { left, right, .. } => left.node_count() + right.node_count(),
            _ => 0,
        }
    }

    /// Pretty multi-line plan rendering (EXPLAIN output).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        match self {
            PhysicalPlan::SeqScan { table, alias, pred } => {
                out.push_str(&format!("{pad}SeqScan {table} AS {alias}"));
                if let Some(p) = pred {
                    out.push_str(&format!(" WHERE {p}"));
                }
                out.push('\n');
            }
            PhysicalPlan::IndexScanEq {
                table,
                alias,
                index,
                key,
                residual,
            } => {
                out.push_str(&format!(
                    "{pad}IndexScanEq {table} AS {alias} USING {index} KEY {key:?}"
                ));
                if let Some(p) = residual {
                    out.push_str(&format!(" WHERE {p}"));
                }
                out.push('\n');
            }
            PhysicalPlan::IndexRange {
                table,
                alias,
                index,
                lower,
                upper,
                residual,
            } => {
                out.push_str(&format!(
                    "{pad}IndexRange {table} AS {alias} USING {index} [{lower:?}, {upper:?}]"
                ));
                if let Some(p) = residual {
                    out.push_str(&format!(" WHERE {p}"));
                }
                out.push('\n');
            }
            PhysicalPlan::Filter { input, pred } => {
                out.push_str(&format!("{pad}Filter {pred}\n"));
                input.explain_into(out, depth + 1);
            }
            PhysicalPlan::Project { input, names, .. } => {
                out.push_str(&format!("{pad}Project {}\n", names.join(", ")));
                input.explain_into(out, depth + 1);
            }
            PhysicalPlan::NestedLoopJoin { left, right, pred } => {
                out.push_str(&format!(
                    "{pad}NestedLoopJoin{}\n",
                    pred.as_ref()
                        .map(|p| format!(" ON {p}"))
                        .unwrap_or_default()
                ));
                left.explain_into(out, depth + 1);
                right.explain_into(out, depth + 1);
            }
            PhysicalPlan::HashJoin {
                left,
                right,
                left_keys,
                right_keys,
                ..
            } => {
                out.push_str(&format!("{pad}HashJoin L{left_keys:?} = R{right_keys:?}\n"));
                left.explain_into(out, depth + 1);
                right.explain_into(out, depth + 1);
            }
            PhysicalPlan::Sort { input, keys } => {
                out.push_str(&format!("{pad}Sort {keys:?}\n"));
                input.explain_into(out, depth + 1);
            }
            PhysicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let names: Vec<&str> = aggs.iter().map(|a| a.name.as_str()).collect();
                out.push_str(&format!(
                    "{pad}Aggregate BY {group_by:?} COMPUTE {}\n",
                    names.join(", ")
                ));
                input.explain_into(out, depth + 1);
            }
            PhysicalPlan::Limit {
                input,
                offset,
                count,
            } => {
                out.push_str(&format!("{pad}Limit offset={offset} count={count:?}\n"));
                input.explain_into(out, depth + 1);
            }
            PhysicalPlan::Distinct { input } => {
                out.push_str(&format!("{pad}Distinct\n"));
                input.explain_into(out, depth + 1);
            }
        }
    }
}

/// Execute a physical plan to completion.
///
/// Compiles the plan into a [`stream`] operator tree and collects the
/// blocks, so limit pushdown and scan readahead apply even to callers that
/// want a fully materialized [`Rows`].
pub fn execute(db: &mut Database, plan: &PhysicalPlan) -> RelResult<Rows> {
    let mut span = wow_obs::span(wow_obs::Op::QueryExec);
    let schema = plan.output_schema(db)?;
    let mut op = stream::build_operator(db, plan, None)?;
    let mut tuples = Vec::new();
    while let Some(block) = op.next_block(db)? {
        tuples.extend(block.tuples);
    }
    span.arg(tuples.len() as u64);
    Ok(Rows { schema, tuples })
}

/// Execute a physical plan to completion while profiling every operator
/// (EXPLAIN ANALYZE).
///
/// Identical semantics to [`execute`], plus a [`PlanProfile`] with one
/// [`NodeStats`] per plan node in [`PhysicalPlan::explain`] pre-order —
/// render it with [`PlanProfile::render`]. When the tracer is recording,
/// the same instrumentation also emits one `exec_op` span per operator,
/// linked into the surrounding trace.
pub fn execute_analyzed(db: &mut Database, plan: &PhysicalPlan) -> RelResult<(Rows, PlanProfile)> {
    let mut span = wow_obs::span(wow_obs::Op::QueryExec);
    let schema = plan.output_schema(db)?;
    let sink = std::rc::Rc::new(std::cell::RefCell::new(vec![
        NodeStats::default();
        plan.node_count()
    ]));
    let mut op = stream::build_profiled(db, plan, None, sink.clone())?;
    let mut tuples = Vec::new();
    while let Some(block) = op.next_block(db)? {
        tuples.extend(block.tuples);
    }
    // Operators above a satisfied limit flush at exhaustion; everything
    // below flushes on drop.
    drop(op);
    span.arg(tuples.len() as u64);
    let nodes = sink.borrow().clone();
    Ok((Rows { schema, tuples }, PlanProfile { nodes }))
}

/// Execute a physical plan by materializing every operator's full output —
/// the pre-streaming semantics. Kept as the reference implementation for
/// equivalence tests and as the comparison baseline for the limit-pushdown
/// experiment (Table 2b).
pub fn execute_materializing(db: &mut Database, plan: &PhysicalPlan) -> RelResult<Rows> {
    match plan {
        PhysicalPlan::SeqScan { .. }
        | PhysicalPlan::IndexScanEq { .. }
        | PhysicalPlan::IndexRange { .. } => Ok(Rows {
            schema: plan.output_schema(db)?,
            tuples: scan_rows(db, plan)?.into_iter().map(|(_, t)| t).collect(),
        }),
        PhysicalPlan::Filter { input, pred } => {
            let mut rows = execute_materializing(db, input)?;
            let mut err = None;
            rows.tuples.retain(|t| match eval_pred(pred, t) {
                Ok(keep) => keep,
                Err(e) => {
                    err = Some(e);
                    false
                }
            });
            if let Some(e) = err {
                return Err(e);
            }
            Ok(rows)
        }
        PhysicalPlan::Project {
            input,
            exprs,
            names,
        } => {
            let schema = plan.output_schema(db)?;
            let rows = execute_materializing(db, input)?;
            let mut tuples = Vec::with_capacity(rows.tuples.len());
            for t in &rows.tuples {
                let mut vals = Vec::with_capacity(exprs.len());
                for e in exprs {
                    vals.push(eval(e, t)?);
                }
                tuples.push(Tuple::new(vals));
            }
            let _ = names;
            Ok(Rows { schema, tuples })
        }
        PhysicalPlan::NestedLoopJoin { left, right, pred } => {
            let schema = plan.output_schema(db)?;
            let l = execute_materializing(db, left)?;
            let r = execute_materializing(db, right)?;
            join::nested_loop(db, schema, &l, &r, pred.as_ref())
        }
        PhysicalPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            residual,
        } => {
            let schema = plan.output_schema(db)?;
            let l = execute_materializing(db, left)?;
            let r = execute_materializing(db, right)?;
            join::hash_join(db, schema, &l, &r, left_keys, right_keys, residual.as_ref())
        }
        PhysicalPlan::Sort { input, keys } => {
            let mut rows = execute_materializing(db, input)?;
            sort::sort_rows(&mut rows.tuples, keys);
            Ok(rows)
        }
        PhysicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let schema = plan.output_schema(db)?;
            let rows = execute_materializing(db, input)?;
            aggregate::aggregate(schema, &rows, group_by, aggs)
        }
        PhysicalPlan::Limit {
            input,
            offset,
            count,
        } => {
            let mut rows = execute_materializing(db, input)?;
            let start = (*offset).min(rows.tuples.len());
            let end = match count {
                Some(c) => (start + c).min(rows.tuples.len()),
                None => rows.tuples.len(),
            };
            rows.tuples = rows.tuples[start..end].to_vec();
            Ok(rows)
        }
        PhysicalPlan::Distinct { input } => {
            let mut rows = execute_materializing(db, input)?;
            let mut seen = std::collections::HashSet::new();
            rows.tuples
                .retain(|t| seen.insert(Value::encode_composite(&t.values)));
            Ok(rows)
        }
    }
}

/// The `(rid, row)` pairs a scan leaf (`SeqScan`, `IndexScanEq` or
/// `IndexRange`) selects, all collected before the caller sees one — so a
/// statement that writes the rows it finds (`REPLACE`, `DELETE`) cannot
/// find a row again after moving it.
pub(crate) fn scan_rows(
    db: &mut Database,
    plan: &PhysicalPlan,
) -> RelResult<Vec<(wow_storage::Rid, Tuple)>> {
    let (table, pred, rids) = match plan {
        PhysicalPlan::SeqScan { table, pred, .. } => (table, pred, None),
        PhysicalPlan::IndexScanEq {
            table,
            index,
            key,
            residual,
            ..
        } => (table, residual, Some(db.index_lookup(index, key)?)),
        PhysicalPlan::IndexRange {
            table,
            index,
            lower,
            upper,
            residual,
            ..
        } => (
            table,
            residual,
            Some(range_rids(db, index, lower.as_ref(), upper.as_ref())?),
        ),
        other => unreachable!("scan_rows() called on {}", other.explain()),
    };
    let table_id = db.catalog().table(table)?.id;
    let rows = match rids {
        None => db.scan_table_raw(table_id)?,
        Some(rids) => {
            let mut rows = Vec::with_capacity(rids.len());
            for rid in rids {
                if let Some(t) = db.get_row(table_id, rid)? {
                    rows.push((rid, t));
                }
            }
            rows
        }
    };
    let Some(p) = pred else {
        return Ok(rows);
    };
    let mut out = Vec::with_capacity(rows.len());
    for (rid, t) in rows {
        if eval_pred(p, &t)? {
            out.push((rid, t));
        }
    }
    Ok(out)
}

/// Collect the rids of an index range scan in key order (shared by the
/// materializing and streaming range-scan operators).
pub(crate) fn range_rids(
    db: &mut Database,
    index: &str,
    lower: Option<&KeyBound>,
    upper: Option<&KeyBound>,
) -> RelResult<Vec<wow_storage::Rid>> {
    let mut rids = Vec::new();
    db.index_walk(index, lower, upper, None, |_, rid| {
        rids.push(rid);
        true
    })?;
    Ok(rids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;
    use crate::schema::{Column, Schema};
    use crate::types::DataType;
    use crate::value::Value;

    fn db_with_data() -> Database {
        let mut db = Database::in_memory();
        db.create_table(
            "emp",
            Schema::new(vec![
                Column::not_null("name", DataType::Text),
                Column::new("dept", DataType::Text),
                Column::new("salary", DataType::Int),
            ]),
            &["name"],
        )
        .unwrap();
        db.create_index("emp_dept", "emp", "dept", false).unwrap();
        db.create_index("emp_salary", "emp", "salary", false)
            .unwrap();
        for (n, d, s) in [
            ("alice", "toy", 120),
            ("bob", "shoe", 90),
            ("carol", "toy", 150),
            ("dave", "candy", 70),
            ("erin", "shoe", 110),
        ] {
            db.insert("emp", vec![Value::text(n), Value::text(d), Value::Int(s)])
                .unwrap();
        }
        db
    }

    fn resolved(db: &Database, alias: &str, e: Expr) -> Expr {
        let schema = db.catalog().table("emp").unwrap().schema.qualified(alias);
        e.resolve(&schema).unwrap()
    }

    #[test]
    fn seq_scan_all_and_filtered() {
        let mut db = db_with_data();
        let plan = PhysicalPlan::SeqScan {
            table: "emp".into(),
            alias: "e".into(),
            pred: None,
        };
        let rows = execute(&mut db, &plan).unwrap();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows.schema.columns[0].name, "e.name");

        let pred = resolved(&db, "e", Expr::col_eq("e.dept", Value::text("toy")));
        let plan = PhysicalPlan::SeqScan {
            table: "emp".into(),
            alias: "e".into(),
            pred: Some(pred),
        };
        assert_eq!(execute(&mut db, &plan).unwrap().len(), 2);
    }

    #[test]
    fn index_eq_scan_matches_seq_scan() {
        let mut db = db_with_data();
        let plan = PhysicalPlan::IndexScanEq {
            table: "emp".into(),
            alias: "e".into(),
            index: "emp_dept".into(),
            key: vec![Value::text("shoe")],
            residual: None,
        };
        let rows = execute(&mut db, &plan).unwrap();
        assert_eq!(rows.len(), 2);
        let names: Vec<String> = rows
            .tuples
            .iter()
            .map(|t| t.values[0].to_string())
            .collect();
        assert!(names.contains(&"bob".to_string()));
        assert!(names.contains(&"erin".to_string()));
    }

    #[test]
    fn index_range_bounds() {
        let mut db = db_with_data();
        let mk =
            |lower: Option<(i64, bool)>, upper: Option<(i64, bool)>| PhysicalPlan::IndexRange {
                table: "emp".into(),
                alias: "e".into(),
                index: "emp_salary".into(),
                lower: lower.map(|(v, inclusive)| KeyBound {
                    values: vec![Value::Int(v)],
                    inclusive,
                }),
                upper: upper.map(|(v, inclusive)| KeyBound {
                    values: vec![Value::Int(v)],
                    inclusive,
                }),
                residual: None,
            };
        // salary >= 110 → alice(120), carol(150), erin(110)
        let rows = execute(&mut db, &mk(Some((110, true)), None)).unwrap();
        assert_eq!(rows.len(), 3);
        // salary > 110 → alice, carol
        let rows = execute(&mut db, &mk(Some((110, false)), None)).unwrap();
        assert_eq!(rows.len(), 2);
        // 90 <= salary <= 120 → bob, erin, alice
        let rows = execute(&mut db, &mk(Some((90, true)), Some((120, true)))).unwrap();
        assert_eq!(rows.len(), 3);
        // 90 < salary < 120 → erin
        let rows = execute(&mut db, &mk(Some((90, false)), Some((120, false)))).unwrap();
        assert_eq!(rows.len(), 1);
        // Unbounded both ways → everything, in salary order.
        let rows = execute(&mut db, &mk(None, None)).unwrap();
        let sals: Vec<i64> = rows
            .tuples
            .iter()
            .map(|t| match t.values[2] {
                Value::Int(i) => i,
                _ => panic!(),
            })
            .collect();
        assert_eq!(sals, vec![70, 90, 110, 120, 150]);
    }

    #[test]
    fn project_computes_expressions() {
        let mut db = db_with_data();
        let schema = db.catalog().table("emp").unwrap().schema.qualified("e");
        let raise = Expr::Binary {
            op: BinOp::Mul,
            left: Box::new(Expr::ColumnRef("e.salary".into())),
            right: Box::new(Expr::Literal(Value::Int(2))),
        }
        .resolve(&schema)
        .unwrap();
        let plan = PhysicalPlan::Project {
            input: Box::new(PhysicalPlan::SeqScan {
                table: "emp".into(),
                alias: "e".into(),
                pred: None,
            }),
            exprs: vec![Expr::Column(0), raise],
            names: vec!["name".into(), "double_salary".into()],
        };
        let rows = execute(&mut db, &plan).unwrap();
        assert_eq!(rows.schema.columns[1].name, "double_salary");
        assert_eq!(rows.schema.columns[1].ty, DataType::Int);
        let alice = rows
            .tuples
            .iter()
            .find(|t| t.values[0] == Value::text("alice"))
            .unwrap();
        assert_eq!(alice.values[1], Value::Int(240));
    }

    #[test]
    fn limit_and_offset() {
        let mut db = db_with_data();
        let base = PhysicalPlan::Sort {
            input: Box::new(PhysicalPlan::SeqScan {
                table: "emp".into(),
                alias: "e".into(),
                pred: None,
            }),
            keys: vec![(2, true)],
        };
        let plan = PhysicalPlan::Limit {
            input: Box::new(base.clone()),
            offset: 1,
            count: Some(2),
        };
        let rows = execute(&mut db, &plan).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows.tuples[0].values[2], Value::Int(90));
        // Offset past the end.
        let plan = PhysicalPlan::Limit {
            input: Box::new(base),
            offset: 100,
            count: Some(2),
        };
        assert_eq!(execute(&mut db, &plan).unwrap().len(), 0);
    }

    #[test]
    fn explain_renders_tree() {
        let plan = PhysicalPlan::Limit {
            input: Box::new(PhysicalPlan::SeqScan {
                table: "emp".into(),
                alias: "e".into(),
                pred: None,
            }),
            offset: 0,
            count: Some(1),
        };
        let text = plan.explain();
        assert!(text.contains("Limit"));
        assert!(text.contains("SeqScan emp AS e"));
        assert_eq!(plan.node_count(), 2);
    }

    #[test]
    fn to_table_string_aligns() {
        let mut db = db_with_data();
        let plan = PhysicalPlan::SeqScan {
            table: "emp".into(),
            alias: "e".into(),
            pred: None,
        };
        let rows = execute(&mut db, &plan).unwrap();
        let s = rows.to_table_string();
        assert!(s.lines().count() >= 7);
        assert!(s.contains("e.name"));
    }
}
