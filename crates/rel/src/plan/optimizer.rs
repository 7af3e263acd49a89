//! Rule-and-statistics optimizer: query block → physical plan.
//!
//! Decisions made here, in order:
//!
//! 1. **Conjunct classification** — each WHERE conjunct is scan-local
//!    (mentions ≤ 1 range variable), a join edge (`a.x = b.y`), or residual.
//! 2. **Access-path selection** — an equality conjunct on a column with a
//!    single-column index becomes an index probe; range conjuncts on such a
//!    column become an index range scan *when estimated selectivity is low
//!    enough*; everything else is a sequential scan with the conjuncts as a
//!    pushed-down predicate. A conjunct reaches an index only when its
//!    constant has the column's declared type, which the binder gives
//!    every constant that converts to it exactly.
//! 3. **Greedy join ordering** — start from the cheapest scan, repeatedly
//!    join the cheapest connected relation (hash join on equi edges,
//!    nested-loop otherwise).
//! 4. Aggregation, projection, sorting, and limiting are layered on top.

use super::logical::QueryBlock;
use super::planner::default_target_name;
use crate::bind;
use crate::db::Database;
use crate::error::{RelError, RelResult};
use crate::exec::{AggSpec, KeyBound, PhysicalPlan};
use crate::expr::{BinOp, Expr};
use crate::quel::ast::Target;
use crate::schema::Schema;
use crate::stats::{TableStats, DEFAULT_RANGE_SELECTIVITY};
use crate::value::Value;
use std::cmp::Ordering;

/// Range selectivity above which a sequential scan beats an index range
/// scan (random fetches per match vs one pass); the classical few-percent
/// rule, made explicit so the ablation bench can reference it.
pub const INDEX_RANGE_MAX_SELECTIVITY: f64 = 0.15;

/// Bind a query block ([`crate::bind`]) and optimize it into an executable
/// plan.
pub fn optimize(db: &Database, block: &QueryBlock) -> RelResult<PhysicalPlan> {
    // -- 0. bind ----------------------------------------------------------------
    let scope = bind::scope(db, &block.scans)?;
    let targets: Vec<Target> = block
        .targets
        .iter()
        .map(|t| bind::bind_target(t.clone(), &scope))
        .collect::<RelResult<_>>()?;

    // -- 1. classify conjuncts ------------------------------------------------
    let mut local: Vec<Vec<Expr>> = vec![Vec::new(); block.scans.len()];
    let mut edges: Vec<JoinEdge> = Vec::new();
    let mut residual: Vec<Expr> = Vec::new();
    for conj in &block.conjuncts {
        let conj = bind::bind_pred(conj.clone(), &scope)?;
        let vars = conj.range_vars();
        match vars.len() {
            0 => {
                // Constant or unqualified-reference conjunct: keep it as a
                // residual filter over the joined row.
                residual.push(conj);
            }
            1 => match block.scans.iter().position(|s| s.alias == vars[0]) {
                Some(i) => local[i].push(conj),
                None => residual.push(conj),
            },
            2 => {
                if let Some(edge) = as_join_edge(&conj, block) {
                    edges.push(edge);
                } else {
                    residual.push(conj);
                }
            }
            _ => residual.push(conj),
        }
    }

    // -- 2. access paths -------------------------------------------------------
    let mut parts: Vec<PlanPart> = Vec::with_capacity(block.scans.len());
    for (i, scan) in block.scans.iter().enumerate() {
        parts.push(build_access_path(
            db,
            &scan.table,
            &scan.alias,
            std::mem::take(&mut local[i]),
        )?);
    }

    // -- 3. greedy join order ---------------------------------------------------
    let mut current = {
        // Cheapest part first.
        let (mi, _) = parts
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.est_rows.total_cmp(&b.est_rows))
            .ok_or_else(|| RelError::Unsupported("query touches no relations".into()))?;
        parts.swap_remove(mi)
    };
    while !parts.is_empty() {
        // Prefer a connected relation; among candidates pick the cheapest.
        let connected: Vec<usize> = parts
            .iter()
            .enumerate()
            .filter(|(_, p)| {
                edges.iter().any(|e| {
                    (current.aliases.contains(&e.left_var) && p.aliases.contains(&e.right_var))
                        || (current.aliases.contains(&e.right_var)
                            && p.aliases.contains(&e.left_var))
                })
            })
            .map(|(i, _)| i)
            .collect();
        let pick_from: Vec<usize> = if connected.is_empty() {
            (0..parts.len()).collect()
        } else {
            connected
        };
        let &next_i = pick_from
            .iter()
            .min_by(|&&a, &&b| parts[a].est_rows.total_cmp(&parts[b].est_rows))
            .expect("non-empty");
        let right = parts.swap_remove(next_i);
        current = join_parts(db, current, right, &mut edges)?;
        // Apply any residual conjuncts that are now fully bound.
        current = apply_ready_residuals(db, current, &mut residual)?;
    }
    current = apply_ready_residuals(db, current, &mut residual)?;
    if let Some(leftover) = residual.first() {
        // A conjunct that still doesn't resolve references an unknown name.
        let mut names = Vec::new();
        leftover.column_names(&mut names);
        return Err(RelError::NoSuchColumn(
            names.first().cloned().unwrap_or_default(),
        ));
    }

    let joined_schema = current.schema.clone();
    let mut plan = current.plan;

    // -- 4. aggregation ------------------------------------------------------------
    let mut out_schema;
    if block.has_aggregates() {
        // Pre-projection: group columns first, then aggregate arguments.
        let mut pre_exprs: Vec<Expr> = Vec::new();
        let mut pre_names: Vec<String> = Vec::new();
        for g in &block.group_by {
            pre_exprs.push(Expr::ColumnRef(g.clone()).resolve(&joined_schema)?);
            pre_names.push(g.clone());
        }
        let mut aggs: Vec<AggSpec> = Vec::new();
        for t in &targets {
            if let Target::Agg { name, func, arg } = t {
                let input = match arg {
                    None => None,
                    Some(a) => {
                        let idx = pre_exprs.len();
                        pre_exprs.push(a.clone().resolve(&joined_schema)?);
                        pre_names.push(format!("__agg_arg_{idx}"));
                        Some(idx)
                    }
                };
                aggs.push(AggSpec {
                    func: *func,
                    input,
                    name: name
                        .clone()
                        .unwrap_or_else(|| func.keyword().to_lowercase()),
                });
            }
        }
        // Every non-aggregate target must be a grouping column.
        for t in &targets {
            if let Target::Expr { expr, .. } = t {
                let ref_name = match expr {
                    Expr::ColumnRef(n) => n.clone(),
                    other => {
                        return Err(RelError::Unsupported(format!(
                            "non-aggregate target `{other}` must be a GROUP BY column"
                        )))
                    }
                };
                if !block.group_by.contains(&ref_name) {
                    return Err(RelError::Unsupported(format!(
                        "target `{ref_name}` is not in GROUP BY"
                    )));
                }
            }
        }
        plan = PhysicalPlan::Project {
            input: Box::new(plan),
            exprs: pre_exprs,
            names: pre_names,
        };
        plan = PhysicalPlan::Aggregate {
            input: Box::new(plan),
            group_by: (0..block.group_by.len()).collect(),
            aggs,
        };
        // Final projection: targets in output order, with output names.
        let agg_out = plan.output_schema(db)?;
        let mut exprs = Vec::with_capacity(targets.len());
        let mut names = Vec::with_capacity(targets.len());
        for t in &targets {
            match t {
                Target::Expr { name, expr } => {
                    let rn = default_target_name(expr);
                    exprs.push(Expr::ColumnRef(rn.clone()).resolve(&agg_out)?);
                    names.push(name.clone().unwrap_or(rn));
                }
                Target::Agg { name, func, .. } => {
                    let out_name = name
                        .clone()
                        .unwrap_or_else(|| func.keyword().to_lowercase());
                    exprs.push(Expr::ColumnRef(out_name.clone()).resolve(&agg_out)?);
                    names.push(out_name);
                }
            }
        }
        plan = PhysicalPlan::Project {
            input: Box::new(plan),
            exprs,
            names,
        };
        if block.unique {
            plan = PhysicalPlan::Distinct {
                input: Box::new(plan),
            };
        }
        out_schema = plan.output_schema(db)?;
    } else {
        let mut exprs = Vec::with_capacity(targets.len());
        let mut names = Vec::with_capacity(targets.len());
        for t in targets {
            let Target::Expr { name, expr } = t else {
                unreachable!("no aggregates in this branch");
            };
            names.push(name.unwrap_or_else(|| default_target_name(&expr)));
            exprs.push(expr.resolve(&joined_schema)?);
        }
        // Sort keys that reference *input* columns force the sort below the
        // projection.
        let sort_in_input = !block.sort_by.is_empty()
            && block
                .sort_by
                .iter()
                .any(|k| joined_schema.index_of(&k.column).is_some() && !names.contains(&k.column));
        if sort_in_input {
            let keys = resolve_sort_keys(&block.sort_by, &joined_schema)?;
            plan = PhysicalPlan::Sort {
                input: Box::new(plan),
                keys,
            };
        }
        plan = PhysicalPlan::Project {
            input: Box::new(plan),
            exprs,
            names,
        };
        if block.unique {
            // Distinct preserves first-occurrence order, so it composes with
            // a sort on either side of the projection.
            plan = PhysicalPlan::Distinct {
                input: Box::new(plan),
            };
        }
        out_schema = plan.output_schema(db)?;
        if sort_in_input {
            // Sorting already happened below the projection.
            return Ok(apply_limit(plan, block));
        }
    }

    // -- 5. sort over the output schema ---------------------------------------
    if !block.sort_by.is_empty() {
        let keys = resolve_sort_keys(&block.sort_by, &out_schema)?;
        plan = PhysicalPlan::Sort {
            input: Box::new(plan),
            keys,
        };
        out_schema = plan.output_schema(db)?;
    }
    let _ = &out_schema;
    Ok(apply_limit(plan, block))
}

fn apply_limit(plan: PhysicalPlan, block: &QueryBlock) -> PhysicalPlan {
    match block.limit {
        Some((offset, count)) => push_limit_down(PhysicalPlan::Limit {
            input: Box::new(plan),
            offset,
            count: Some(count),
        }),
        None => plan,
    }
}

/// Push a `Limit` below cardinality-preserving operators (projection and
/// nested limits), so the streaming executor's stop hint starts as deep as
/// possible and the materializing path never computes projected expressions
/// for rows the limit would drop anyway.
pub fn push_limit_down(plan: PhysicalPlan) -> PhysicalPlan {
    let PhysicalPlan::Limit {
        input,
        offset,
        count,
    } = plan
    else {
        return plan;
    };
    match *input {
        // Projection is 1:1: Limit ∘ Project ≡ Project ∘ Limit.
        PhysicalPlan::Project {
            input,
            exprs,
            names,
        } => PhysicalPlan::Project {
            input: Box::new(push_limit_down(PhysicalPlan::Limit {
                input,
                offset,
                count,
            })),
            exprs,
            names,
        },
        // Adjacent limits compose: skip both offsets, keep the tighter count.
        PhysicalPlan::Limit {
            input,
            offset: inner_off,
            count: inner_cnt,
        } => {
            let count = match (count, inner_cnt) {
                (Some(c), Some(ic)) => Some(c.min(ic.saturating_sub(offset))),
                (Some(c), None) => Some(c),
                (None, Some(ic)) => Some(ic.saturating_sub(offset)),
                (None, None) => None,
            };
            push_limit_down(PhysicalPlan::Limit {
                input,
                offset: offset + inner_off,
                count,
            })
        }
        other => PhysicalPlan::Limit {
            input: Box::new(other),
            offset,
            count,
        },
    }
}

fn resolve_sort_keys(
    keys: &[crate::quel::ast::SortKey],
    schema: &Schema,
) -> RelResult<Vec<(usize, bool)>> {
    keys.iter()
        .map(|k| Ok((schema.resolve(&k.column)?, k.ascending)))
        .collect()
}

/// An equi-join edge `left_var.left_col = right_var.right_col`.
#[derive(Debug, Clone)]
struct JoinEdge {
    left_var: String,
    left_col: String,
    right_var: String,
    right_col: String,
}

fn as_join_edge(conj: &Expr, block: &QueryBlock) -> Option<JoinEdge> {
    let Expr::Binary {
        op: BinOp::Eq,
        left,
        right,
    } = conj
    else {
        return None;
    };
    let (Expr::ColumnRef(l), Expr::ColumnRef(r)) = (left.as_ref(), right.as_ref()) else {
        return None;
    };
    let (lv, _) = l.split_once('.')?;
    let (rv, _) = r.split_once('.')?;
    if lv == rv {
        return None;
    }
    // Both vars must be actual scans of this block.
    if !block.scans.iter().any(|s| s.alias == lv) || !block.scans.iter().any(|s| s.alias == rv) {
        return None;
    }
    Some(JoinEdge {
        left_var: lv.to_string(),
        left_col: l.clone(),
        right_var: rv.to_string(),
        right_col: r.clone(),
    })
}

/// A partial plan with its bookkeeping.
pub(crate) struct PlanPart {
    pub(crate) plan: PhysicalPlan,
    schema: Schema,
    aliases: Vec<String>,
    est_rows: f64,
}

/// A `col op const` pattern extracted from a conjunct.
struct ColConst {
    col_name: String,
    op: BinOp,
    value: Value,
}

fn as_col_const(conj: &Expr) -> Option<ColConst> {
    let Expr::Binary { op, left, right } = conj else {
        return None;
    };
    if !op.is_comparison() {
        return None;
    }
    match (left.as_ref(), right.as_ref()) {
        (Expr::ColumnRef(c), Expr::Literal(v)) if !v.is_null() => Some(ColConst {
            col_name: c.clone(),
            op: *op,
            value: v.clone(),
        }),
        (Expr::Literal(v), Expr::ColumnRef(c)) if !v.is_null() => Some(ColConst {
            col_name: c.clone(),
            op: op.flipped(),
            value: v.clone(),
        }),
        _ => None,
    }
}

/// A `col op const` conjunct an index can answer: the column's position
/// and the constant, a value of the column's declared type.
struct Sarg {
    col: usize,
    op: BinOp,
    key: Value,
}

/// `conj` as a [`Sarg`] over `schema`, or `None` when it must stay in the
/// residual. Index keys compare encoded bytes, and `Int` and `Float` encode
/// differently though they compare equal, so a constant of another type
/// than the column's (a float with a fraction against an `INT` column: the
/// binder converts every other one) would miss rows.
fn as_sarg(conj: &Expr, schema: &Schema) -> Option<Sarg> {
    let cc = as_col_const(conj)?;
    let col = schema.index_of(&cc.col_name)?;
    (cc.value.data_type() == Some(schema.columns[col].ty)).then_some(Sarg {
        col,
        op: cc.op,
        key: cc.value,
    })
}

/// Choose the access path for one scan given its local (bound)
/// conjuncts. `REPLACE` and `DELETE` find their rows through it too.
pub(crate) fn build_access_path(
    db: &Database,
    table: &str,
    alias: &str,
    conjuncts: Vec<Expr>,
) -> RelResult<PlanPart> {
    let info = db.catalog().table(table)?.clone();
    let schema = info.schema.qualified(alias);
    let stats = db_stats(db, &info);
    let base_rows = stats.rows.max(1) as f64;

    // An equality on an indexed column is a probe.
    let eq_pick = conjuncts.iter().enumerate().find_map(|(ci, conj)| {
        let sarg = as_sarg(conj, &schema).filter(|s| s.op == BinOp::Eq)?;
        let idx = db.catalog().index_on_column(info.id, sarg.col)?;
        Some((ci, sarg.col, idx.name.clone(), sarg.key))
    });
    if let Some((ci, col, index, value)) = eq_pick {
        let residual = residual_pred(&conjuncts, &[ci], &schema)?;
        let est = base_rows * stats.eq_selectivity(col);
        return Ok(PlanPart {
            plan: PhysicalPlan::IndexScanEq {
                table: table.to_string(),
                alias: alias.to_string(),
                index,
                key: vec![value],
                residual,
            },
            schema,
            aliases: vec![alias.to_string()],
            est_rows: est.max(1.0),
        });
    }

    // Range candidate: the bounds on the first indexed column that has any.
    let range_pick = (0..schema.len()).find_map(|col| {
        let idx = db.catalog().index_on_column(info.id, col)?;
        let (lower, upper, used) = key_range(&conjuncts, &schema, col);
        (lower.is_some() || upper.is_some()).then(|| (idx.name.clone(), lower, upper, used))
    });
    if let Some((index, lower, upper, used)) = range_pick {
        // Estimate selectivity; fall back to a seq scan when the range is
        // too wide to be worth random fetches.
        let sel = if lower.is_some() && upper.is_some() {
            // Two-sided ranges are assumed independent one-sided cuts — the
            // System R default in the absence of histograms.
            DEFAULT_RANGE_SELECTIVITY * DEFAULT_RANGE_SELECTIVITY
        } else {
            DEFAULT_RANGE_SELECTIVITY
        };
        if sel <= INDEX_RANGE_MAX_SELECTIVITY || base_rows < 256.0 {
            let residual = residual_pred(&conjuncts, &used, &schema)?;
            let est = (base_rows * sel).max(1.0);
            return Ok(PlanPart {
                plan: PhysicalPlan::IndexRange {
                    table: table.to_string(),
                    alias: alias.to_string(),
                    index,
                    lower,
                    upper,
                    residual,
                },
                schema,
                aliases: vec![alias.to_string()],
                est_rows: est,
            });
        }
    }

    // Sequential scan with everything pushed down. Order the conjuncts
    // most-selective-first so the AND short-circuit (and the vectorized
    // selection-vector narrowing) discards rows on the cheapest test.
    let conjuncts = order_conjuncts(conjuncts, &schema, &stats);
    let pred = residual_pred(&conjuncts, &[], &schema)?;
    let est = if conjuncts.is_empty() {
        base_rows
    } else {
        (base_rows * 0.25f64.powi(conjuncts.len() as i32)).max(1.0)
    };
    Ok(PlanPart {
        plan: PhysicalPlan::SeqScan {
            table: table.to_string(),
            alias: alias.to_string(),
            pred,
        },
        schema,
        aliases: vec![alias.to_string()],
        est_rows: est,
    })
}

/// Order a pushed-down conjunction by estimated selectivity, ascending.
///
/// Only `col op const` comparisons are reordered — they cannot raise an
/// evaluation error, so hoisting one past another conjunct never surfaces
/// an error that left-to-right short-circuiting would have skipped (it can
/// only skip more work). Everything else keeps its written order, after
/// the estimable prefix. The sort is stable, so equal estimates also keep
/// written order.
fn order_conjuncts(conjuncts: Vec<Expr>, schema: &Schema, stats: &TableStats) -> Vec<Expr> {
    if conjuncts.len() < 2 {
        return conjuncts;
    }
    let mut estimable: Vec<(f64, Expr)> = Vec::new();
    let mut rest: Vec<Expr> = Vec::new();
    for conj in conjuncts {
        match conjunct_selectivity(&conj, schema, stats) {
            Some(sel) => estimable.push((sel, conj)),
            None => rest.push(conj),
        }
    }
    estimable.sort_by(|(a, _), (b, _)| a.total_cmp(b));
    let mut out: Vec<Expr> = estimable.into_iter().map(|(_, e)| e).collect();
    out.extend(rest);
    out
}

/// Estimated selectivity of a single `col op const` conjunct, or `None`
/// when the shape carries no estimate (and may error, so must not move).
fn conjunct_selectivity(conj: &Expr, schema: &Schema, stats: &TableStats) -> Option<f64> {
    let cc = as_col_const(conj)?;
    let col = schema.index_of(&cc.col_name)?;
    Some(match cc.op {
        BinOp::Eq => stats.eq_selectivity(col),
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => DEFAULT_RANGE_SELECTIVITY,
        // `<>` keeps almost everything.
        BinOp::Ne => 1.0 - stats.eq_selectivity(col),
        _ => return None,
    })
}

/// The key range that the bound `col op const` conjuncts on column `col`
/// of `schema` allow: the tightest lower and upper bound (an equality is
/// both) and the positions of the conjuncts that the range consumes. At
/// equal values the exclusive bound is the tighter one. Index range scans
/// and a browse window's seek take their bounds from here.
pub fn key_range(
    conjuncts: &[Expr],
    schema: &Schema,
    col: usize,
) -> (Option<KeyBound>, Option<KeyBound>, Vec<usize>) {
    let (mut lower, mut upper, mut used) = (None, None, Vec::new());
    for (ci, conj) in conjuncts.iter().enumerate() {
        let Some(sarg) = as_sarg(conj, schema).filter(|s| s.col == col) else {
            continue;
        };
        let bound = |inclusive| KeyBound {
            values: vec![sarg.key.clone()],
            inclusive,
        };
        let (lo, hi) = match sarg.op {
            BinOp::Gt | BinOp::Ge => (Some(bound(sarg.op == BinOp::Ge)), None),
            BinOp::Lt | BinOp::Le => (None, Some(bound(sarg.op == BinOp::Le))),
            BinOp::Eq => (Some(bound(true)), Some(bound(true))),
            _ => continue,
        };
        tighten(&mut lower, lo, Ordering::Greater);
        tighten(&mut upper, hi, Ordering::Less);
        used.push(ci);
    }
    (lower, upper, used)
}

/// Keep the bound that cuts further in direction `tighter`; at equal
/// values an exclusive bound cuts further than an inclusive one.
fn tighten(bound: &mut Option<KeyBound>, cand: Option<KeyBound>, tighter: Ordering) {
    let Some(cand) = cand else { return };
    let cuts = bound
        .as_ref()
        .is_none_or(|b| match cand.values[0].total_cmp(&b.values[0]) {
            Ordering::Equal => b.inclusive && !cand.inclusive,
            ord => ord == tighter,
        });
    if cuts {
        *bound = Some(cand);
    }
}

/// Conjuncts not consumed by the access path, folded and resolved.
fn residual_pred(
    conjuncts: &[Expr],
    consumed: &[usize],
    schema: &Schema,
) -> RelResult<Option<Expr>> {
    let rest: Vec<Expr> = conjuncts
        .iter()
        .enumerate()
        .filter(|(i, _)| !consumed.contains(i))
        .map(|(_, e)| e.clone())
        .collect();
    if rest.is_empty() {
        return Ok(None);
    }
    Ok(Some(Expr::conjunction(rest).resolve(schema)?))
}

fn db_stats(db: &Database, info: &crate::catalog::TableInfo) -> TableStats {
    db.table_stats(info.id)
}

/// Join two plan parts, consuming the edges that connect them.
fn join_parts(
    _db: &Database,
    left: PlanPart,
    right: PlanPart,
    edges: &mut Vec<JoinEdge>,
) -> RelResult<PlanPart> {
    let joined_schema = Schema::join(&left.schema, "l", &right.schema, "r");
    // Find all edges connecting left ↔ right.
    let mut left_keys = Vec::new();
    let mut right_keys = Vec::new();
    let mut consumed = Vec::new();
    for (i, e) in edges.iter().enumerate() {
        let (l_ref, r_ref) =
            if left.aliases.contains(&e.left_var) && right.aliases.contains(&e.right_var) {
                (&e.left_col, &e.right_col)
            } else if left.aliases.contains(&e.right_var) && right.aliases.contains(&e.left_var) {
                (&e.right_col, &e.left_col)
            } else {
                continue;
            };
        let li = left.schema.resolve(l_ref)?;
        let ri = right.schema.resolve(r_ref)?;
        left_keys.push(li);
        right_keys.push(ri);
        consumed.push(i);
    }
    let mut est = left.est_rows * right.est_rows;
    let plan = if left_keys.is_empty() {
        // No equi edge: cross join (any non-equi relation between the two
        // sides lives in the residual list and is applied right after).
        PhysicalPlan::NestedLoopJoin {
            left: Box::new(left.plan),
            right: Box::new(right.plan),
            pred: None,
        }
    } else {
        est *= 0.1f64.powi(left_keys.len() as i32).max(1e-9);
        PhysicalPlan::HashJoin {
            left: Box::new(left.plan),
            right: Box::new(right.plan),
            left_keys,
            right_keys,
            residual: None,
        }
    };
    for i in consumed.into_iter().rev() {
        edges.remove(i);
    }
    let mut aliases = left.aliases;
    aliases.extend(right.aliases);
    Ok(PlanPart {
        plan,
        schema: joined_schema,
        aliases,
        est_rows: est.max(1.0),
    })
}

/// Attach residual conjuncts whose names now all resolve.
fn apply_ready_residuals(
    _db: &Database,
    mut part: PlanPart,
    residual: &mut Vec<Expr>,
) -> RelResult<PlanPart> {
    let mut ready = Vec::new();
    let mut keep = Vec::new();
    for conj in residual.drain(..) {
        let mut names = Vec::new();
        conj.column_names(&mut names);
        if names.iter().all(|n| part.schema.index_of(n).is_some()) {
            ready.push(conj);
        } else {
            keep.push(conj);
        }
    }
    *residual = keep;
    if !ready.is_empty() {
        part.est_rows = (part.est_rows * 0.25f64.powi(ready.len() as i32)).max(1.0);
        let pred = Expr::conjunction(ready).resolve(&part.schema)?;
        part.plan = PhysicalPlan::Filter {
            input: Box::new(part.plan),
            pred,
        };
    }
    Ok(part)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan() -> PhysicalPlan {
        PhysicalPlan::SeqScan {
            table: "t".into(),
            alias: "t".into(),
            pred: None,
        }
    }

    #[test]
    fn seq_scan_conjuncts_order_most_selective_first() {
        use crate::schema::Column;
        use crate::types::DataType;
        use std::collections::HashMap;
        let schema = Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
        ]);
        let stats = TableStats {
            rows: 1000,
            distinct: HashMap::from([(0, 1000u64)]),
        };
        let col = |n: &str| Box::new(Expr::ColumnRef(n.into()));
        let lit = |v: i64| Box::new(Expr::Literal(Value::Int(v)));
        let eq_a = Expr::Binary {
            op: BinOp::Eq,
            left: col("a"),
            right: lit(1),
        };
        let range_b = Expr::Binary {
            op: BinOp::Lt,
            left: col("b"),
            right: lit(5),
        };
        // Column-to-column comparison: no estimate, must keep its slot at
        // the back regardless of where it was written.
        let opaque = Expr::Binary {
            op: BinOp::Gt,
            left: col("a"),
            right: col("b"),
        };
        let ordered = order_conjuncts(
            vec![opaque.clone(), range_b.clone(), eq_a.clone()],
            &schema,
            &stats,
        );
        assert_eq!(ordered, vec![eq_a, range_b, opaque]);
    }

    #[test]
    fn limit_pushes_below_project() {
        let plan = PhysicalPlan::Limit {
            input: Box::new(PhysicalPlan::Project {
                input: Box::new(scan()),
                exprs: vec![Expr::Column(0)],
                names: vec!["a".into()],
            }),
            offset: 2,
            count: Some(5),
        };
        let pushed = push_limit_down(plan);
        let PhysicalPlan::Project { input, .. } = pushed else {
            panic!("expected Project on top, got {pushed:?}");
        };
        assert_eq!(
            *input,
            PhysicalPlan::Limit {
                input: Box::new(scan()),
                offset: 2,
                count: Some(5),
            }
        );
    }

    #[test]
    fn limit_does_not_push_below_sort() {
        let plan = PhysicalPlan::Limit {
            input: Box::new(PhysicalPlan::Sort {
                input: Box::new(scan()),
                keys: vec![(0, true)],
            }),
            offset: 0,
            count: Some(3),
        };
        assert_eq!(push_limit_down(plan.clone()), plan);
    }

    #[test]
    fn adjacent_limits_compose() {
        // inner keeps rows [1, 1+10), outer takes [3, 3+4) of those
        // → rows [4, 8) of the scan: offset 4, count min(4, 10-3) = 4.
        let plan = PhysicalPlan::Limit {
            input: Box::new(PhysicalPlan::Limit {
                input: Box::new(scan()),
                offset: 1,
                count: Some(10),
            }),
            offset: 3,
            count: Some(4),
        };
        assert_eq!(
            push_limit_down(plan),
            PhysicalPlan::Limit {
                input: Box::new(scan()),
                offset: 4,
                count: Some(4),
            }
        );
    }
}
