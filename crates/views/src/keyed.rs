//! The view analysis: how a window reads a view, and whether it writes.
//!
//! A select–project–equijoin view is *keyed* when one of its ranges, the
//! **driving** range, is a table with a primary key and every other range
//! has its whole primary key equated to columns of ranges bound before it.
//! Each driving row then joins with at most one row of every other range —
//! the functional dependency from the join key that *Incremental
//! Relational Lenses* asks of a join — so the driving key is a key of the
//! view. A page walks the driving table's primary-key index with one
//! primary-key probe per other range per row, in driving-key order, the
//! view's one documented order. Aggregates, DISTINCT, grouping, joins with
//! a range whose key is not equated and views over a table with no
//! primary-key index are not read by key: a window holds their extension.
//!
//! A keyed view **writes** ([`Writes`]) when the classical (1983-era) rules
//! hold: no aggregates, exactly one base relation after expansion (no
//! probes), and the table's **key preserved** — every key column projected
//! — so a view row is one base row; computed columns are display-only.
//! Otherwise the analysis returns the rules broken, which a read-only
//! window shows. A single-table view the rules refuse is still keyed (the
//! zero-probe case), and one they allow is keyed even where it is not read
//! by key. The analysis is a pure function of the bound definition and
//! expands it once.
//!
//! [`Keyed::view_row`] is the one place a driving row becomes a view row:
//! a page runs it on each driving row it walks, a Snapshot over an
//! updatable view on each base row, and [`crate::delta`] on each written
//! image of a driving row.

use crate::catalog::ViewCatalog;
use crate::def::ViewDef;
use crate::error::ViewResult;
use crate::expand::{expand_view, Expanded};
use wow_rel::bind::column_type;
use wow_rel::catalog::{IndexInfo, TableInfo};
use wow_rel::db::Database;
use wow_rel::eval::{eval, eval_pred};
use wow_rel::expr::{BinOp, Expr};
use wow_rel::quel::ast::Target;
use wow_rel::schema::{Column, Schema};
use wow_rel::tuple::Tuple;
use wow_rel::value::Value;

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

/// How a keyed view is read and, when it is updatable, written. The joined
/// row is the driving row followed by the row each probe finds, in probe
/// order; `pred` and `targets` are resolved over it.
#[derive(Debug, Clone)]
pub struct Keyed {
    /// The view's name.
    pub view: String,
    /// The driving table.
    pub table: String,
    /// Its primary-key columns, in the index's order: the view's key.
    pub key: Vec<usize>,
    /// Its primary-key index, which pages walk in key order; `None` when
    /// the table's key has no `pk_<table>` index (then only a view that
    /// writes is keyed, and its windows hold a Snapshot).
    pub index: Option<String>,
    /// The other ranges, in the order they are probed.
    pub probes: Vec<KeyProbe>,
    /// The view's restriction minus the key equalities the probes satisfy.
    pub pred: Option<Expr>,
    /// The view's target expressions.
    pub targets: Vec<Expr>,
    /// The view's output schema (bare column names). A column that writes
    /// a base column is as nullable as that column; every other column is
    /// nullable.
    pub schema: Schema,
    /// Present exactly when the classical rules hold.
    pub writes: Option<Writes>,
}

/// The proof that a keyed view is updatable: a view row is one base row
/// of the driving table, which `pred` and `targets` read.
#[derive(Debug, Clone)]
pub struct Writes {
    /// For each view column: the base column it projects, or `None` for a
    /// computed column.
    pub column_map: Vec<Option<usize>>,
}

impl Keyed {
    /// Whether view column `view_col` can be written.
    pub fn is_writable(&self, view_col: usize) -> bool {
        let writes = self.writes.as_ref();
        writes.is_some_and(|w| w.column_map.get(view_col).copied().flatten().is_some())
    }

    /// The view row driving row `row` makes: `row` joined with the row
    /// each probe finds, kept when `pred` holds, projected through
    /// `targets`. `None` when a probe value is NULL, a probe finds nothing
    /// (an inner join) or `pred` fails.
    pub fn view_row(&self, db: &mut Database, mut row: Tuple) -> ViewResult<Option<Tuple>> {
        for probe in &self.probes {
            let key: Vec<Value> = probe.cols.iter().map(|&c| row.values[c].clone()).collect();
            if key.iter().any(Value::is_null) {
                return Ok(None);
            }
            let Some(&rid) = db.index_lookup(&probe.index, &key)?.first() else {
                return Ok(None);
            };
            let table = db.catalog().table(&probe.table)?.id;
            let Some(inner) = db.get_row(table, rid)? else {
                return Ok(None);
            };
            row.values.extend(inner.values);
        }
        if let Some(p) = &self.pred {
            if !eval_pred(p, &row)? {
                return Ok(None);
            }
        }
        let vals = self.targets.iter().map(|t| eval(t, &row));
        Ok(Some(Tuple::new(vals.collect::<Result<_, _>>()?)))
    }
}

/// Analyze view `view_name`: the keyed view to read (`None` when the view
/// is readable but not by key) and the classical rules it breaks, empty
/// exactly when the keyed view carries [`Writes`].
pub fn analyze_keyed(
    db: &Database,
    vc: &ViewCatalog,
    view_name: &str,
) -> ViewResult<(Option<Keyed>, Vec<String>)> {
    let def = vc.get(view_name)?;
    if def.has_aggregates() {
        return Ok((None, vec!["computes aggregates".to_string()]));
    }
    analyze_expanded(db, def, &expand_view(db, vc, def)?)
}

/// [`analyze_keyed`] over a view `def` the caller has expanded and found
/// to compute no aggregates.
pub(crate) fn analyze_expanded(
    db: &Database,
    def: &ViewDef,
    expanded: &Expanded,
) -> ViewResult<(Option<Keyed>, Vec<String>)> {
    let stmt = &expanded.stmt;
    let conjuncts = match &stmt.where_ {
        Some(w) => w.clone().split_conjuncts(),
        None => Vec::new(),
    };
    let ranges = &expanded.ranges;
    for driving in 0..ranges.len() {
        let Some((info, index)) = primary_key(db, &ranges[driving].1) else {
            continue;
        };
        // Only a single table drives without an index: it can still write.
        if index.is_none() && ranges.len() > 1 {
            continue;
        }
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
                    let (inner, index) = primary_key(db, table)?;
                    let index = index?;
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
        let mut keyed = Keyed {
            view: def.name.clone(),
            table: info.name.clone(),
            key: info.key.clone(),
            index: index.map(|i| i.name),
            probes,
            pred: residual.map(|p| p.resolve(&schema)).transpose()?,
            targets,
            schema: Schema::new(columns),
            writes: None,
        };
        let refused = check_writes(&mut keyed, &info);
        // DISTINCT and grouping merge rows a key walk would show apart,
        // unless the key is projected and keeps them apart.
        let walks = keyed.index.is_some() && !stmt.unique && stmt.group_by.is_empty();
        let keyed = (keyed.writes.is_some() || walks).then_some(keyed);
        return Ok((keyed, refused));
    }
    let refused = match ranges.as_slice() {
        [(_, table)] => format!("base table {table} has no primary key"),
        _ => format!(
            "ranges over {} base relations (must be exactly 1)",
            ranges.len()
        ),
    };
    Ok((None, vec![refused]))
}

/// Rules 2–4 over a keyed view whose driving table is `info` (a keyed view
/// computes no aggregates): the rules it breaks, or none, and then its
/// writes, with each written column as nullable as its base column.
fn check_writes(keyed: &mut Keyed, info: &TableInfo) -> Vec<String> {
    if !keyed.probes.is_empty() {
        let n = keyed.probes.len() + 1;
        return vec![format!(
            "ranges over {n} base relations (must be exactly 1)"
        )];
    }
    let column_map: Vec<Option<usize>> = (keyed.targets.iter())
        .map(|t| match t {
            Expr::Column(c) => Some(*c),
            _ => None,
        })
        .collect();
    let unprojected: Vec<String> = (info.key.iter())
        .filter(|k| !column_map.contains(&Some(**k)))
        .map(|&k| {
            let name = &info.schema.column(k).name;
            format!("key column {name} of {} is not projected", info.name)
        })
        .collect();
    if unprojected.is_empty() {
        for (col, base) in keyed.schema.columns.iter_mut().zip(&column_map) {
            col.nullable = base.is_none_or(|b| info.schema.column(b).nullable);
        }
        keyed.writes = Some(Writes { column_map });
    }
    unprojected
}

/// A table with a key, and its unique `pk_<table>` index over that key
/// when it has one.
fn primary_key(db: &Database, table: &str) -> Option<(TableInfo, Option<IndexInfo>)> {
    let info = db.catalog().table(table).ok()?;
    if info.key.is_empty() {
        return None;
    }
    let index = db.catalog().index(&format!("pk_{table}")).ok();
    let index = index.filter(|i| i.unique && i.columns == info.key);
    Some((info.clone(), index.cloned()))
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
