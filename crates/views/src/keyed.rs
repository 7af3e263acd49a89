//! Keyed access: which read-only views a window can page by key.
//!
//! A select–project–equijoin view is *keyed* when one of its ranges, the
//! **driving** range, has a primary-key index and every other range has
//! its whole primary key equated to columns of ranges bound before it.
//! Each driving row then joins with at most one row of every other range —
//! the functional dependency from the join key that *Incremental
//! Relational Lenses* asks of a join — so the driving key is a key of the
//! view. A page is a walk of the driving index with one primary-key probe
//! per other range per row, and the view's one documented order is
//! driving-key order.
//!
//! A single-table view over a keyed table is the zero-probe case: it
//! drives with no other range, so a view the updatability analysis refuses
//! (computed targets, the key left out) still pages by its table's key.
//! Aggregates, DISTINCT, grouping, joins with a range whose key is not
//! equated and views over a table with no primary-key index are not keyed;
//! a window holds their whole extension instead. The analysis is a pure
//! function of the bound definition.

use crate::catalog::ViewCatalog;
use crate::error::{ViewError, ViewResult};
use crate::expand::expand_view;
use wow_rel::bind::column_type;
use wow_rel::catalog::{IndexInfo, TableInfo};
use wow_rel::db::Database;
use wow_rel::error::RelError;
use wow_rel::expr::{BinOp, Expr};
use wow_rel::quel::ast::Target;
use wow_rel::schema::{Column, Schema};

/// One inner range, read by a primary-key lookup per driving row.
#[derive(Debug, Clone)]
pub struct KeyProbe {
    /// The probed table.
    pub table: String,
    /// Its primary-key index.
    pub index: String,
    /// Positions in the joined row of the probe key's values, in the
    /// index's column order.
    pub cols: Vec<usize>,
}

/// How a keyed view is read. The joined row is the driving row followed by
/// the row each probe finds, in probe order; `pred` and `targets` are
/// resolved over it.
#[derive(Debug, Clone)]
pub struct Keyed {
    /// The driving table.
    pub table: String,
    /// Its primary-key index: pages walk it in key order.
    pub index: String,
    /// The other ranges, in the order they are probed.
    pub probes: Vec<KeyProbe>,
    /// The view's restriction minus the key equalities the probes satisfy.
    pub pred: Option<Expr>,
    /// The view's target expressions.
    pub targets: Vec<Expr>,
    /// The view's output schema (bare column names).
    pub schema: Schema,
}

/// Decide whether view `view_name` is keyed. `Ok(None)` means the view is
/// readable but not by key.
pub fn analyze_keyed(
    db: &Database,
    vc: &ViewCatalog,
    view_name: &str,
) -> ViewResult<Option<Keyed>> {
    let def = vc.get(view_name)?;
    if def.has_aggregates() {
        return Ok(None);
    }
    let expanded = match expand_view(db, vc, def) {
        Ok(e) => e,
        Err(ViewError::Rel(RelError::Unsupported(_))) => return Ok(None),
        Err(e) => return Err(e),
    };
    let stmt = &expanded.stmt;
    if stmt.unique || !stmt.group_by.is_empty() {
        return Ok(None);
    }
    let conjuncts = match &stmt.where_ {
        Some(w) => w.clone().split_conjuncts(),
        None => Vec::new(),
    };
    let ranges = &expanded.ranges;
    for driving in 0..ranges.len() {
        let Some((info, index)) = primary_index(db, &ranges[driving].1) else {
            continue;
        };
        // Bind ranges one at a time, each through a key equated to columns
        // already bound, until every range is bound or none can be.
        let mut schema = info.schema.qualified(&ranges[driving].0);
        let mut bound = vec![driving];
        let mut used = vec![false; conjuncts.len()];
        let mut probes = Vec::new();
        while bound.len() < ranges.len() {
            let next = (0..ranges.len())
                .filter(|r| !bound.contains(r))
                .find_map(|r| {
                    let (alias, table) = &ranges[r];
                    let (inner, index) = primary_index(db, table)?;
                    let (cols, took) =
                        key_equalities(&conjuncts, &used, &schema, alias, &inner, &index)?;
                    Some((
                        r,
                        inner,
                        KeyProbe {
                            table: table.clone(),
                            index: index.name,
                            cols,
                        },
                        took,
                    ))
                });
            let Some((r, inner, probe, took)) = next else {
                break;
            };
            took.into_iter().for_each(|i| used[i] = true);
            schema
                .columns
                .extend(inner.schema.qualified(&ranges[r].0).columns);
            probes.push(probe);
            bound.push(r);
        }
        if bound.len() < ranges.len() {
            continue;
        }
        let residual = conjuncts
            .iter()
            .zip(&used)
            .filter(|(_, used)| !**used)
            .map(|(c, _)| c.clone())
            .reduce(Expr::and);
        let names = def.column_names();
        let mut targets = Vec::with_capacity(names.len());
        let mut columns = Vec::with_capacity(names.len());
        for (name, t) in names.into_iter().zip(&stmt.targets) {
            let Target::Expr { expr, .. } = t else {
                unreachable!("aggregates rejected above");
            };
            let ty = column_type(expr, &schema)?;
            columns.push(Column {
                name,
                ty,
                nullable: true,
            });
            targets.push(expr.clone().resolve(&schema)?);
        }
        return Ok(Some(Keyed {
            table: info.name,
            index: index.name,
            probes,
            pred: residual.map(|p| p.resolve(&schema)).transpose()?,
            targets,
            schema: Schema::new(columns),
        }));
    }
    Ok(None)
}

/// A table with a key and its unique `pk_<table>` index over that key.
fn primary_index(db: &Database, table: &str) -> Option<(TableInfo, IndexInfo)> {
    let info = db.catalog().table(table).ok()?;
    let index = db.catalog().index(&format!("pk_{table}")).ok()?;
    let keyed = !info.key.is_empty() && index.unique && index.columns == info.key;
    keyed.then(|| (info.clone(), index.clone()))
}

/// For each column of `alias`'s primary key, in index order, an unused
/// conjunct `alias.k = c` with `c` a bound column of the same type: the
/// positions of those `c`s and the conjuncts taken, or `None` when some
/// key column has none.
fn key_equalities(
    conjuncts: &[Expr],
    used: &[bool],
    bound: &Schema,
    alias: &str,
    info: &TableInfo,
    index: &IndexInfo,
) -> Option<(Vec<usize>, Vec<usize>)> {
    let mut cols = Vec::with_capacity(index.columns.len());
    let mut took: Vec<usize> = Vec::with_capacity(index.columns.len());
    for &k in &index.columns {
        let key = info.schema.column(k);
        let want = format!("{alias}.{}", key.name);
        let (i, col) = conjuncts.iter().enumerate().find_map(|(i, c)| {
            let Expr::Binary {
                op: BinOp::Eq,
                left,
                right,
            } = c
            else {
                return None;
            };
            let (Expr::ColumnRef(a), Expr::ColumnRef(b)) = (left.as_ref(), right.as_ref()) else {
                return None;
            };
            let other = if *a == want {
                b
            } else if *b == want {
                a
            } else {
                return None;
            };
            let col = bound.columns.iter().position(|c| c.name == *other)?;
            let fresh = !used[i] && !took.contains(&i);
            (fresh && bound.column(col).ty == key.ty).then_some((i, col))
        })?;
        cols.push(col);
        took.push(i);
    }
    Some((cols, took))
}
