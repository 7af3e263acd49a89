//! Query modification: expanding queries over views into queries over base
//! tables (Stonebraker's 1975 INGRES algorithm, the one the 1983 system sat
//! on).
//!
//! Expansion substitutes each reference to a view column with the view's
//! defining expression, conjoins the view's restriction into the query, and
//! replaces the view's range with the view's own (renamed) ranges. Nested
//! views flatten recursively.
//!
//! The alternative — materializing the view and querying the copy — is also
//! implemented ([`query_via_materialization`]) as the ablation baseline for
//! the Figure 2 benchmark.

use crate::catalog::{ViewCatalog, MAX_NESTING};
use crate::def::ViewDef;
use crate::error::{ViewError, ViewResult};
use std::collections::{BTreeMap, HashSet};
use wow_rel::db::Database;
use wow_rel::error::RelError;
use wow_rel::exec::{execute, Rows};
use wow_rel::expr::Expr;
use wow_rel::plan::logical::{QueryBlock, ScanSpec};
use wow_rel::plan::optimize;
use wow_rel::quel::ast::{RetrieveStmt, SortKey, Target};
use wow_rel::schema::Schema;

/// The result of expansion: ranges over base tables only, plus the
/// rewritten statement.
#[derive(Debug, Clone)]
pub struct Expanded {
    /// `(var, base_table)` pairs.
    pub ranges: Vec<(String, String)>,
    /// The rewritten statement.
    pub stmt: RetrieveStmt,
}

/// Rename the range-variable prefixes of every column reference in `expr`.
pub fn rename_vars(expr: &Expr, map: &BTreeMap<String, String>) -> Expr {
    match expr {
        Expr::ColumnRef(n) => {
            if let Some((var, col)) = n.split_once('.') {
                if let Some(new) = map.get(var) {
                    return Expr::ColumnRef(format!("{new}.{col}"));
                }
            }
            Expr::ColumnRef(n.clone())
        }
        Expr::Column(i) => Expr::Column(*i),
        Expr::Literal(v) => Expr::Literal(v.clone()),
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(rename_vars(left, map)),
            right: Box::new(rename_vars(right, map)),
        },
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(rename_vars(expr, map)),
        },
        Expr::Like { expr, pattern } => Expr::Like {
            expr: Box::new(rename_vars(expr, map)),
            pattern: pattern.clone(),
        },
        Expr::IsNull(e) => Expr::IsNull(Box::new(rename_vars(e, map))),
    }
}

/// Replace references `var.col` by the view's defining expression for
/// `col`. Unknown columns error.
fn substitute(expr: &Expr, var: &str, defs: &BTreeMap<String, Expr>) -> ViewResult<Expr> {
    Ok(match expr {
        Expr::ColumnRef(n) => {
            if let Some((v, col)) = n.split_once('.') {
                if v == var {
                    return defs
                        .get(col)
                        .cloned()
                        .ok_or_else(|| ViewError::Rel(RelError::NoSuchColumn(n.clone())));
                }
            }
            Expr::ColumnRef(n.clone())
        }
        Expr::Column(i) => Expr::Column(*i),
        Expr::Literal(v) => Expr::Literal(v.clone()),
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(substitute(left, var, defs)?),
            right: Box::new(substitute(right, var, defs)?),
        },
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(substitute(expr, var, defs)?),
        },
        Expr::Like { expr, pattern } => Expr::Like {
            expr: Box::new(substitute(expr, var, defs)?),
            pattern: pattern.clone(),
        },
        Expr::IsNull(e) => Expr::IsNull(Box::new(substitute(e, var, defs)?)),
    })
}

/// Substitute a *name* (used by GROUP BY / SORT BY): only allowed when the
/// view column is itself a plain base column.
fn substitute_name(name: &str, var: &str, defs: &BTreeMap<String, Expr>) -> ViewResult<String> {
    if let Some((v, col)) = name.split_once('.') {
        if v == var {
            return match defs.get(col) {
                Some(Expr::ColumnRef(base)) => Ok(base.clone()),
                Some(other) => Err(ViewError::Rel(RelError::Unsupported(format!(
                    "cannot group/sort by computed view column {name} = {other}"
                )))),
                None => Err(ViewError::Rel(RelError::NoSuchColumn(name.to_string()))),
            };
        }
    }
    Ok(name.to_string())
}

/// Expand a statement whose ranges may name views, producing ranges over
/// base tables only. The *outer* statement may aggregate; views referenced
/// as ranges must be aggregate-free (aggregate views cannot be flattened by
/// substitution — materialize them instead).
pub fn expand(
    db: &Database,
    vc: &ViewCatalog,
    ranges: &[(String, String)],
    stmt: &RetrieveStmt,
) -> ViewResult<Expanded> {
    expand_depth(db, vc, ranges, stmt, 0)
}

fn expand_depth(
    db: &Database,
    vc: &ViewCatalog,
    ranges: &[(String, String)],
    stmt: &RetrieveStmt,
    depth: usize,
) -> ViewResult<Expanded> {
    if depth > MAX_NESTING {
        return Err(ViewError::TooDeep(MAX_NESTING));
    }
    let mut out_ranges: Vec<(String, String)> = Vec::new();
    let mut stmt = stmt.clone();
    let mut used: HashSet<String> = ranges.iter().map(|(v, _)| v.clone()).collect();
    for (var, name) in ranges {
        if db.catalog().has_table(name) {
            out_ranges.push((var.clone(), name.clone()));
            continue;
        }
        let view = vc.get(name)?;
        if view.has_aggregates() {
            return Err(ViewError::Rel(RelError::Unsupported(format!(
                "aggregate view {name} cannot be expanded; materialize it instead"
            ))));
        }
        // Recursively flatten the view body first.
        let inner = expand_depth(db, vc, &view.ranges, &view.stmt, depth + 1)?;
        // Fresh names for the view's ranges.
        let mut rename: BTreeMap<String, String> = BTreeMap::new();
        for (ivar, _) in &inner.ranges {
            let mut candidate = format!("{var}_{ivar}");
            let mut n = 0;
            while used.contains(&candidate) {
                n += 1;
                candidate = format!("{var}_{ivar}{n}");
            }
            used.insert(candidate.clone());
            rename.insert(ivar.clone(), candidate);
        }
        for (ivar, itable) in &inner.ranges {
            out_ranges.push((rename[ivar].clone(), itable.clone()));
        }
        // Build the substitution map: view column → renamed defining expr.
        let cols = view.column_names();
        let mut defs: BTreeMap<String, Expr> = BTreeMap::new();
        for (col, target) in cols.iter().zip(&inner.stmt.targets) {
            let Target::Expr { expr, .. } = target else {
                unreachable!("aggregate views rejected above");
            };
            defs.insert(col.clone(), rename_vars(expr, &rename));
        }
        // Rewrite the outer statement.
        let mut new_targets = Vec::with_capacity(stmt.targets.len());
        for t in &stmt.targets {
            new_targets.push(match t {
                Target::Expr { name, expr } => Target::Expr {
                    name: name.clone(),
                    expr: substitute(expr, var, &defs)?,
                },
                Target::Agg { name, func, arg } => Target::Agg {
                    name: name.clone(),
                    func: *func,
                    arg: match arg {
                        Some(a) => Some(substitute(a, var, &defs)?),
                        None => None,
                    },
                },
            });
        }
        stmt.targets = new_targets;
        stmt.where_ = match stmt.where_.take() {
            Some(w) => Some(substitute(&w, var, &defs)?),
            None => None,
        };
        let mut gb = Vec::with_capacity(stmt.group_by.len());
        for g in &stmt.group_by {
            gb.push(substitute_name(g, var, &defs)?);
        }
        stmt.group_by = gb;
        let mut sb = Vec::with_capacity(stmt.sort_by.len());
        for k in &stmt.sort_by {
            sb.push(SortKey {
                column: substitute_name(&k.column, var, &defs)?,
                ascending: k.ascending,
            });
        }
        stmt.sort_by = sb;
        // Conjoin the view's restriction (renamed).
        if let Some(vw) = &inner.stmt.where_ {
            let renamed = rename_vars(vw, &rename);
            stmt.where_ = Some(match stmt.where_.take() {
                Some(w) => Expr::and(w, renamed),
                None => renamed,
            });
        }
        // View body ordering/limit is ignored: views are sets.
    }
    Ok(Expanded {
        ranges: out_ranges,
        stmt,
    })
}

/// A declarative query against one view (used by browse and the benches).
#[derive(Debug, Clone, Default)]
pub struct ViewQuery {
    /// Extra restriction, referencing view columns by bare name.
    pub pred: Option<Expr>,
    /// Ordering, by bare view-column name.
    pub sort: Vec<SortKey>,
    /// `(offset, count)`.
    pub limit: Option<(usize, usize)>,
}

/// Qualify bare view-column references with a range variable.
fn qualify_refs(expr: &Expr, var: &str, cols: &[String]) -> Expr {
    match expr {
        Expr::ColumnRef(n) if !n.contains('.') && cols.iter().any(|c| c == n) => {
            Expr::ColumnRef(format!("{var}.{n}"))
        }
        Expr::ColumnRef(n) => Expr::ColumnRef(n.clone()),
        Expr::Column(i) => Expr::Column(*i),
        Expr::Literal(v) => Expr::Literal(v.clone()),
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(qualify_refs(left, var, cols)),
            right: Box::new(qualify_refs(right, var, cols)),
        },
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(qualify_refs(expr, var, cols)),
        },
        Expr::Like { expr, pattern } => Expr::Like {
            expr: Box::new(qualify_refs(expr, var, cols)),
            pattern: pattern.clone(),
        },
        Expr::IsNull(e) => Expr::IsNull(Box::new(qualify_refs(e, var, cols))),
    }
}

/// Build the expanded, optimizable query block for `SELECT * FROM view`
/// with optional extra restriction / ordering / limit.
pub fn view_query_block(
    db: &Database,
    vc: &ViewCatalog,
    view_name: &str,
    query: &ViewQuery,
) -> ViewResult<QueryBlock> {
    let view = vc.get(view_name)?;
    let cols = view.column_names();
    if view.has_aggregates() {
        // Top-level aggregate view: expand only its ranges; extra
        // predicates would be HAVING, which the block can't express.
        if query.pred.is_some() {
            return Err(ViewError::Rel(RelError::Unsupported(
                "restrictions on aggregate views are not supported; filter client-side".into(),
            )));
        }
        let inner = expand(db, vc, &view.ranges, &view.stmt)?;
        let mut stmt = inner.stmt;
        if !query.sort.is_empty() {
            stmt.sort_by = query.sort.clone();
        }
        stmt.limit = query.limit.or(stmt.limit);
        return block_from(db, &inner.ranges, &stmt);
    }
    // Wrap the view as the single range `v` and expand.
    let var = "v";
    let targets: Vec<Target> = cols
        .iter()
        .map(|c| Target::Expr {
            name: Some(c.clone()),
            expr: Expr::ColumnRef(format!("{var}.{c}")),
        })
        .collect();
    let stmt = RetrieveStmt {
        unique: false,
        targets,
        where_: query.pred.as_ref().map(|p| qualify_refs(p, var, &cols)),
        group_by: Vec::new(),
        sort_by: query
            .sort
            .iter()
            .map(|k| SortKey {
                // Bare names are output-column names; the optimizer resolves
                // them against the projection.
                column: k.column.clone(),
                ascending: k.ascending,
            })
            .collect(),
        limit: query.limit,
    };
    let expanded = expand(db, vc, &[(var.to_string(), view_name.to_string())], &stmt)?;
    block_from(db, &expanded.ranges, &expanded.stmt)
}

fn block_from(
    db: &Database,
    ranges: &[(String, String)],
    stmt: &RetrieveStmt,
) -> ViewResult<QueryBlock> {
    let _ = db;
    let scans = ranges
        .iter()
        .map(|(v, t)| ScanSpec {
            alias: v.clone(),
            table: t.clone(),
        })
        .collect();
    let conjuncts = match &stmt.where_ {
        Some(w) => w.clone().split_conjuncts(),
        None => Vec::new(),
    };
    Ok(QueryBlock {
        unique: stmt.unique,
        scans,
        conjuncts,
        targets: stmt.targets.clone(),
        group_by: stmt.group_by.clone(),
        sort_by: stmt.sort_by.clone(),
        limit: stmt.limit,
    })
}

/// Execute a view query through expansion (the system's normal path).
pub fn run_view_query(
    db: &mut Database,
    vc: &ViewCatalog,
    view_name: &str,
    query: &ViewQuery,
) -> ViewResult<Rows> {
    let block = view_query_block(db, vc, view_name, query)?;
    let plan = optimize(db, &block)?;
    Ok(execute(db, &plan)?)
}

/// The output schema of a view.
pub fn view_schema(db: &Database, vc: &ViewCatalog, view_name: &str) -> ViewResult<Schema> {
    let block = view_query_block(db, vc, view_name, &ViewQuery::default())?;
    let plan = optimize(db, &block)?;
    Ok(plan.output_schema(db)?)
}

/// Ablation baseline: materialize the whole view, then filter/sort/limit
/// the copy in memory. Same answers as [`run_view_query`], different cost
/// profile — Figure 2's comparison point.
pub fn query_via_materialization(
    db: &mut Database,
    vc: &ViewCatalog,
    view_name: &str,
    query: &ViewQuery,
) -> ViewResult<Rows> {
    let mut rows = run_view_query(db, vc, view_name, &ViewQuery::default())?;
    if let Some(pred) = &query.pred {
        let resolved =
            wow_rel::bind::bind_pred(pred.clone(), &rows.schema)?.resolve(&rows.schema)?;
        let mut err = None;
        rows.tuples
            .retain(|t| match wow_rel::eval::eval_pred(&resolved, t) {
                Ok(k) => k,
                Err(e) => {
                    err = Some(e);
                    false
                }
            });
        if let Some(e) = err {
            return Err(e.into());
        }
    }
    if !query.sort.is_empty() {
        let keys: Vec<(usize, bool)> = query
            .sort
            .iter()
            .map(|k| Ok((rows.schema.resolve(&k.column)?, k.ascending)))
            .collect::<Result<_, RelError>>()?;
        wow_rel::exec::sort::sort_rows(&mut rows.tuples, &keys);
    }
    if let Some((offset, count)) = query.limit {
        let start = offset.min(rows.tuples.len());
        let end = (start + count).min(rows.tuples.len());
        rows.tuples = rows.tuples[start..end].to_vec();
    }
    Ok(rows)
}

/// Expand a view definition fully (exposed for the view analysis, the
/// delta analysis and tests).
pub fn expand_view(db: &Database, vc: &ViewCatalog, def: &ViewDef) -> ViewResult<Expanded> {
    expand(db, vc, &def.ranges, &def.stmt)
}
