//! Incremental view maintenance: pushing base-table write deltas through
//! the view's [`Keyed`].
//!
//! Under the driving-key dependency [`crate::keyed`] checks, each driving
//! row makes at most one view row, keyed by the driving key. A write to the
//! driving table (one no probe reads) changes exactly the view rows its
//! images make, so the view delta is each written image pushed through
//! [`Keyed::view_row`], the same probes, restriction and targets a page
//! runs:
//!
//! * **Selection** is the restriction on the old and the new image: (pass,
//!   pass) → updated, (pass, fail) → deleted, (fail, pass) → inserted,
//!   (fail, fail) → nothing.
//! * **Projection** is the targets; every row carries its driving key,
//!   and its base rid when the view has no probes.
//! * **Join** is the probes: one primary-key lookup per other range, at
//!   most [`PROBED_DELTA_CAP`] written rows at a time.
//!
//! An update that changes none of the columns the view reads of the
//! written table changes nothing, whatever the view; its windows are
//! skipped. Every other write — to a probed table, or under a view with no
//! `Keyed` (aggregates, DISTINCT, grouping, unkeyed joins, tables without
//! a key) — has no delta here: the window re-reads, which for a keyed
//! window is one page.
//!
//! The per-(view, table) [`DeltaPlan`] is cached in
//! [`crate::deps::DepIndex`] alongside the dependency map, under the same
//! generation invalidation.

use crate::catalog::ViewCatalog;
use crate::error::{ViewError, ViewResult};
use crate::expand::expand_view;
use crate::keyed::{analyze_expanded, Keyed};
use wow_rel::db::Database;
use wow_rel::delta::{key_bytes, BaseDelta};
use wow_rel::error::RelError;
use wow_rel::quel::ast::Target;
use wow_rel::schema::Schema;
use wow_rel::tuple::Tuple;
use wow_storage::Rid;

/// Largest base delta pushed through a view's probes; a bigger write
/// re-reads instead (the refresh is amortized over that many rows).
pub const PROBED_DELTA_CAP: usize = 64;

/// One view-shaped delta row, identified by the driving key behind it.
#[derive(Debug, Clone)]
pub struct DeltaRow {
    /// Base rid behind the view row (views with no probes only).
    pub rid: Option<Rid>,
    /// Primary-key index key bytes of the driving row — the sort key of
    /// Index pages.
    pub key: Vec<u8>,
    /// The view-shaped tuple.
    pub row: Tuple,
}

/// A base-table delta translated into view rows.
#[derive(Debug, Clone, Default)]
pub struct ViewDelta {
    /// View rows that appeared.
    pub inserted: Vec<DeltaRow>,
    /// View rows that vanished.
    pub deleted: Vec<DeltaRow>,
    /// View rows patched in place: `(old, new)`.
    pub updated: Vec<(DeltaRow, DeltaRow)>,
}

impl ViewDelta {
    /// No visible change.
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty() && self.deleted.is_empty() && self.updated.is_empty()
    }

    /// Number of delta rows (updates count once).
    pub fn len(&self) -> usize {
        self.inserted.len() + self.deleted.len() + self.updated.len()
    }
}

/// How writes to one base table move through one view.
#[derive(Debug, Clone)]
pub struct DeltaPlan {
    /// The written table's columns the expanded view references, and its
    /// key: an update that changes none of them changes nothing.
    pub reads: Vec<usize>,
    /// What a write that does change one of them does to the view.
    pub maintain: Maintain,
}

/// The view delta of a write to a column the view reads.
#[derive(Debug, Clone)]
pub enum Maintain {
    /// The view does not read the table.
    Unaffected,
    /// The table drives the keyed view and no probe reads it: walk each
    /// written image through the `Keyed`.
    Walk(Box<Keyed>),
    /// No delta; the window re-reads. The string says why.
    Refresh(&'static str),
}

/// Plan how writes to `table` move through `view`: the columns the
/// expanded view reads of it, and the view's `Keyed` when `table` drives
/// it. Cache the result ([`crate::deps::DepIndex`] does, keyed by catalog
/// generations).
pub fn plan(db: &Database, vc: &ViewCatalog, view: &str, table: &str) -> ViewResult<DeltaPlan> {
    let info = db.catalog().table(table)?;
    let def = vc.get(view)?;
    let expanded = match expand_view(db, vc, def) {
        Ok(e) => e,
        // A view that cannot be expanded cannot be delta-maintained either;
        // the refresh path owns reporting whatever is wrong with it.
        Err(ViewError::Rel(RelError::Unsupported(_))) => {
            return Ok(DeltaPlan {
                reads: (0..info.schema.len()).collect(),
                maintain: Maintain::Refresh("not expandable"),
            })
        }
        Err(e) => return Err(e),
    };
    if expanded.ranges.iter().all(|(_, t)| t != table) {
        return Ok(DeltaPlan {
            reads: Vec::new(),
            maintain: Maintain::Unaffected,
        });
    }
    // Every column the expanded ranges bring into scope, qualified by its
    // range, and which column of `table` it is, if any.
    let mut scope = Schema::default();
    let mut of_table: Vec<Option<usize>> = Vec::new();
    for (alias, t) in &expanded.ranges {
        let schema = &db.catalog().table(t)?.schema;
        of_table.extend((0..schema.len()).map(|c| (t == table).then_some(c)));
        scope.columns.extend(schema.qualified(alias).columns);
    }
    let stmt = &expanded.stmt;
    let mut names: Vec<String> = stmt.group_by.clone();
    names.extend(stmt.sort_by.iter().map(|k| k.column.clone()));
    let exprs = stmt.targets.iter().filter_map(|t| match t {
        Target::Expr { expr, .. } => Some(expr),
        Target::Agg { arg, .. } => arg.as_ref(),
    });
    for e in exprs.chain(&stmt.where_) {
        e.column_names(&mut names);
    }
    // A name resolves as the view's binding resolves it, bare names
    // included. A sort key may instead name an output column, whose target
    // is read already; any other name is taken to read the whole table.
    let outputs = def.column_names();
    let mut reads = info.key.clone();
    for name in &names {
        match scope.index_of(name) {
            Some(i) => reads.extend(of_table[i]),
            None if outputs.contains(name) => {}
            None => reads.extend(0..info.schema.len()),
        }
    }
    reads.sort_unstable();
    reads.dedup();
    let keyed = if def.has_aggregates() {
        None
    } else {
        analyze_expanded(db, def, &expanded)?.0
    };
    let maintain = match keyed {
        Some(k) if k.table == table && k.probes.iter().all(|p| p.table != table) => {
            Maintain::Walk(Box::new(k))
        }
        Some(_) => Maintain::Refresh("a probed table"),
        None => Maintain::Refresh("not keyed"),
    };
    Ok(DeltaPlan { reads, maintain })
}

/// Translate a base delta into view rows under `plan`. An update that
/// changes no column the view reads is dropped; a delta left empty is an
/// empty view delta, whatever the plan. Otherwise `None` — the window
/// re-reads — unless the plan walks a `Keyed` and the delta is small
/// enough to probe.
pub fn compute_view_delta(
    db: &mut Database,
    plan: &DeltaPlan,
    delta: &BaseDelta,
) -> ViewResult<Option<ViewDelta>> {
    let changes = |old: &Tuple, new: &Tuple| {
        (plan.reads.iter()).any(|&c| old.values.get(c) != new.values.get(c))
    };
    let updated: Vec<_> = (delta.updated.iter())
        .filter(|(_, old, new)| changes(old, new))
        .collect();
    let mut out = ViewDelta::default();
    if delta.inserted.is_empty() && delta.deleted.is_empty() && updated.is_empty() {
        return Ok(Some(out));
    }
    let keyed = match &plan.maintain {
        Maintain::Unaffected => return Ok(Some(out)),
        Maintain::Refresh(_) => return Ok(None),
        Maintain::Walk(k) if !k.probes.is_empty() && delta.len() > PROBED_DELTA_CAP => {
            return Ok(None)
        }
        Maintain::Walk(k) => k,
    };
    let mut walk = |rid: Rid, row: &Tuple| -> ViewResult<Option<DeltaRow>> {
        let key = key_bytes(&keyed.key, row).expect("a keyed table has a key");
        Ok(keyed.view_row(db, row.clone())?.map(|row| DeltaRow {
            rid: keyed.probes.is_empty().then_some(rid),
            key,
            row,
        }))
    };
    for (rid, row) in &delta.inserted {
        out.inserted.extend(walk(*rid, row)?);
    }
    for (rid, row) in &delta.deleted {
        out.deleted.extend(walk(*rid, row)?);
    }
    for (rid, old, new) in updated {
        match (walk(*rid, old)?, walk(*rid, new)?) {
            (Some(old), Some(new)) => out.updated.push((old, new)),
            (Some(old), None) => out.deleted.push(old),
            (None, Some(new)) => out.inserted.push(new),
            (None, None) => {}
        }
    }
    Ok(Some(out))
}
