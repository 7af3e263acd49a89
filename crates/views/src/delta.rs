//! Incremental view maintenance: pushing base-table write deltas through
//! the view algebra.
//!
//! The classic delta rules, specialized to this system's view language
//! (select–project–join over base relations, after [`crate::expand`]
//! flattening):
//!
//! * **Selection** filters the delta: a written row enters/leaves the view
//!   according to the view predicate evaluated on its old and new images.
//! * **Projection / rename** rewrites the delta through the view's target
//!   expressions.
//! * **Join** probes the *other* side: the written relation's range
//!   variable is bound to each delta row (turning its column references
//!   into literals), leaving a residual query over the remaining relations
//!   whose equality conjuncts the optimizer satisfies with index probes.
//!   Existence probes on `wow-storage`'s B+tree indexes short-circuit
//!   the common case where a written row joins with nothing.
//! * **Aggregates, DISTINCT, grouping, self-joins** are not deltable here;
//!   [`DeltaPlan::NonDeltable`] tells the caller to fall back to a full
//!   refresh.
//!
//! The per-(view, table) analysis is cached in [`crate::deps::DepIndex`]
//! alongside the dependency map, under the same generation invalidation.

use crate::catalog::ViewCatalog;
use crate::error::{ViewError, ViewResult};
use crate::expand::expand_view;
use std::collections::BTreeMap;
use wow_rel::db::Database;
use wow_rel::delta::{bind_var, key_bytes, BaseDelta};
use wow_rel::error::RelError;
use wow_rel::eval::{eval, eval_pred};
use wow_rel::expr::{BinOp, Expr};
use wow_rel::plan::logical::{QueryBlock, ScanSpec};
use wow_rel::plan::optimize;
use wow_rel::quel::ast::{RetrieveStmt, Target};
use wow_rel::tuple::Tuple;
use wow_storage::Rid;

/// Largest base delta a join view will probe row-by-row; bigger writes fall
/// back to a full refresh (the refresh is amortized over that many rows
/// anyway).
pub const JOIN_DELTA_CAP: usize = 64;

/// Largest view delta worth materializing for a join view before a full
/// refresh is cheaper for the window to swallow.
pub const JOIN_ROWS_CAP: usize = 256;

/// One view-shaped delta row. `rid`/`key` identify the base row behind it
/// for single-relation views (what updatable browse cursors patch by);
/// join-view rows carry neither.
#[derive(Debug, Clone)]
pub struct DeltaRow {
    /// Base rid behind the view row (single-relation views only).
    pub rid: Option<Rid>,
    /// Primary-key index key bytes of the base row (single-relation views
    /// over keyed tables only) — the sort key of `pk_<table>` cursors.
    pub key: Option<Vec<u8>>,
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

/// Selection + projection over the written table itself.
#[derive(Debug, Clone)]
pub struct SinglePlan {
    /// The written base table.
    pub table: String,
    /// Its range variable in the expanded view.
    pub alias: String,
    /// The view's restriction (alias-qualified, unresolved).
    pub pred: Option<Expr>,
    /// The view's target expressions (alias-qualified, unresolved).
    pub targets: Vec<Expr>,
    /// Primary-key column indexes of the base table (empty = no key).
    pub key_cols: Vec<usize>,
}

/// An equality link from the written table to an indexed column of another
/// relation in the join — the existence-probe fast path.
#[derive(Debug, Clone)]
pub struct ProbeSpec {
    /// Column of the written table whose value keys the probe.
    pub col: usize,
    /// Index on the other relation's join column.
    pub index: String,
}

/// Join view reading the written table exactly once.
#[derive(Debug, Clone)]
pub struct JoinPlan {
    /// The written base table.
    pub table: String,
    /// Its range variable in the expanded view.
    pub var: String,
    /// Every range of the expanded view (including `var`).
    pub ranges: Vec<(String, String)>,
    /// The expanded statement (targets/where over base variables).
    pub stmt: RetrieveStmt,
    /// Index existence probes derivable from equality conjuncts.
    pub probes: Vec<ProbeSpec>,
}

/// How (whether) a view's extension can be maintained incrementally under
/// writes to one base table.
#[derive(Debug, Clone)]
pub enum DeltaPlan {
    /// The view does not read the table; writes to it change nothing.
    Unaffected,
    /// Single-relation view: selection filters the delta, projection
    /// rewrites it.
    Single(SinglePlan),
    /// Join view: bind the written variable, run the residual.
    Join(JoinPlan),
    /// Not deltable (aggregates, DISTINCT, grouping, self-joins); callers
    /// fall back to a full refresh. The string names the rule that failed.
    NonDeltable(&'static str),
}

/// Analyze how writes to `table` move through `view`. Pure analysis over
/// the expanded definition — cache the result ([`crate::deps::DepIndex`]
/// does, keyed by catalog generations).
pub fn analyze_delta(
    db: &Database,
    vc: &ViewCatalog,
    view: &str,
    table: &str,
) -> ViewResult<DeltaPlan> {
    let def = vc.get(view)?;
    if def.has_aggregates() {
        return Ok(DeltaPlan::NonDeltable("aggregates"));
    }
    let expanded = match expand_view(db, vc, def) {
        Ok(e) => e,
        // A view that cannot be expanded cannot be delta-maintained either;
        // the full-refresh path owns reporting whatever is wrong with it.
        Err(ViewError::Rel(RelError::Unsupported(_))) => {
            return Ok(DeltaPlan::NonDeltable("not expandable"))
        }
        Err(e) => return Err(e),
    };
    if expanded.stmt.unique {
        return Ok(DeltaPlan::NonDeltable("DISTINCT"));
    }
    if !expanded.stmt.group_by.is_empty() {
        return Ok(DeltaPlan::NonDeltable("grouping"));
    }
    let mut over_table = expanded.ranges.iter().filter(|(_, t)| t == table);
    let Some((var, _)) = over_table.next() else {
        return Ok(DeltaPlan::Unaffected);
    };
    if over_table.next().is_some() {
        return Ok(DeltaPlan::NonDeltable("self-join"));
    }
    let var = var.clone();
    let targets: Vec<Expr> = expanded
        .stmt
        .targets
        .iter()
        .map(|t| match t {
            Target::Expr { expr, .. } => expr.clone(),
            Target::Agg { .. } => unreachable!("aggregates rejected above"),
        })
        .collect();
    if expanded.ranges.len() == 1 {
        let key_cols = db.catalog().table(table)?.key.clone();
        return Ok(DeltaPlan::Single(SinglePlan {
            table: table.to_string(),
            alias: var,
            pred: expanded.stmt.where_.clone(),
            targets,
            key_cols,
        }));
    }
    let probes = find_probes(db, &expanded.ranges, &var, table, &expanded.stmt.where_)?;
    Ok(DeltaPlan::Join(JoinPlan {
        table: table.to_string(),
        var,
        ranges: expanded.ranges.clone(),
        stmt: expanded.stmt,
        probes,
    }))
}

/// Derive existence probes from equality conjuncts `var.a = other.b` where
/// `other`'s relation has an index on exactly `b`.
fn find_probes(
    db: &Database,
    ranges: &[(String, String)],
    var: &str,
    table: &str,
    where_: &Option<Expr>,
) -> ViewResult<Vec<ProbeSpec>> {
    let Some(w) = where_ else {
        return Ok(Vec::new());
    };
    let var_of = |name: &str| -> Option<(String, String)> {
        let (v, col) = name.split_once('.')?;
        Some((v.to_string(), col.to_string()))
    };
    let schema = &db.catalog().table(table)?.schema;
    let mut probes = Vec::new();
    for conj in w.clone().split_conjuncts() {
        let Expr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } = &conj
        else {
            continue;
        };
        let (Expr::ColumnRef(a), Expr::ColumnRef(b)) = (left.as_ref(), right.as_ref()) else {
            continue;
        };
        let (Some((va, ca)), Some((vb, cb))) = (var_of(a), var_of(b)) else {
            continue;
        };
        // Orient so `var` is on the left.
        let (written_col, other_var, other_col) = if va == var && vb != var {
            (ca, vb, cb)
        } else if vb == var && va != var {
            (cb, va, ca)
        } else {
            continue;
        };
        let Some((_, other_table)) = ranges.iter().find(|(v, _)| *v == other_var) else {
            continue;
        };
        let Some(index) = db.index_on(other_table, &other_col) else {
            continue;
        };
        let Ok(col) = schema.resolve(&written_col) else {
            continue;
        };
        probes.push(ProbeSpec { col, index });
    }
    Ok(probes)
}

/// Translate a base delta into view rows under `plan`. Returns `None` when
/// the translation would cost more than the full refresh it replaces (only
/// join plans give up, and only on oversized deltas).
pub fn compute_view_delta(
    db: &mut Database,
    plan: &DeltaPlan,
    delta: &BaseDelta,
) -> ViewResult<Option<ViewDelta>> {
    match plan {
        DeltaPlan::Unaffected => Ok(Some(ViewDelta::default())),
        DeltaPlan::NonDeltable(_) => Ok(None),
        DeltaPlan::Single(p) => single_delta(db, p, delta).map(Some),
        DeltaPlan::Join(p) => join_delta(db, p, delta),
    }
}

fn single_delta(db: &mut Database, p: &SinglePlan, delta: &BaseDelta) -> ViewResult<ViewDelta> {
    let info = db.catalog().table(&p.table)?.clone();
    let schema = info.schema.qualified(&p.alias);
    let pred = match &p.pred {
        Some(e) => Some(e.clone().resolve(&schema)?),
        None => None,
    };
    let targets: Vec<Expr> = p
        .targets
        .iter()
        .map(|e| e.clone().resolve(&schema))
        .collect::<Result<_, _>>()?;
    let passes = |row: &Tuple| -> ViewResult<bool> {
        Ok(match &pred {
            Some(e) => eval_pred(e, row)?,
            None => true,
        })
    };
    let project = |rid: Rid, row: &Tuple| -> ViewResult<DeltaRow> {
        let mut vals = Vec::with_capacity(targets.len());
        for t in &targets {
            vals.push(eval(t, row)?);
        }
        Ok(DeltaRow {
            rid: Some(rid),
            key: key_bytes(&p.key_cols, row),
            row: Tuple::new(vals),
        })
    };
    let mut out = ViewDelta::default();
    for (rid, row) in &delta.inserted {
        if passes(row)? {
            out.inserted.push(project(*rid, row)?);
        }
    }
    for (rid, row) in &delta.deleted {
        if passes(row)? {
            out.deleted.push(project(*rid, row)?);
        }
    }
    for (rid, old, new) in &delta.updated {
        match (passes(old)?, passes(new)?) {
            (true, true) => out.updated.push((project(*rid, old)?, project(*rid, new)?)),
            (true, false) => out.deleted.push(project(*rid, old)?),
            (false, true) => out.inserted.push(project(*rid, new)?),
            (false, false) => {}
        }
    }
    Ok(out)
}

fn join_delta(db: &mut Database, p: &JoinPlan, delta: &BaseDelta) -> ViewResult<Option<ViewDelta>> {
    if delta.len() > JOIN_DELTA_CAP {
        return Ok(None);
    }
    let info = db.catalog().table(&p.table)?.clone();
    let schema = info.schema.qualified(&p.var);
    let mut out = ViewDelta::default();
    let wrap = |tuples: Vec<Tuple>| {
        tuples.into_iter().map(|row| DeltaRow {
            rid: None,
            key: None,
            row,
        })
    };
    for (_, row) in &delta.inserted {
        out.inserted
            .extend(wrap(residual_rows(db, p, &schema, row)?));
    }
    for (_, row) in &delta.deleted {
        out.deleted
            .extend(wrap(residual_rows(db, p, &schema, row)?));
    }
    for (_, old, new) in &delta.updated {
        // Join rows carry no identity; an update is a delete of the old
        // image's contributions plus an insert of the new image's.
        out.deleted
            .extend(wrap(residual_rows(db, p, &schema, old)?));
        out.inserted
            .extend(wrap(residual_rows(db, p, &schema, new)?));
    }
    if out.len() > JOIN_ROWS_CAP {
        return Ok(None);
    }
    Ok(Some(out))
}

/// The view rows one image of a written base row contributes: bind the
/// written variable to the row, then run the residual query over the other
/// relations. Probes short-circuit rows that join with nothing.
fn residual_rows(
    db: &mut Database,
    p: &JoinPlan,
    schema: &wow_rel::schema::Schema,
    row: &Tuple,
) -> ViewResult<Vec<Tuple>> {
    for probe in &p.probes {
        let v = &row.values[probe.col];
        // An equality conjunct over NULL matches nothing; an absent index
        // key means nothing joins.
        if v.is_null() || !db.index_probe_exists(&probe.index, std::slice::from_ref(v))? {
            return Ok(Vec::new());
        }
    }
    let targets: Vec<Target> = p
        .stmt
        .targets
        .iter()
        .map(|t| match t {
            Target::Expr { name, expr } => Target::Expr {
                name: name.clone(),
                expr: bind_var(expr, schema, row),
            },
            Target::Agg { .. } => unreachable!("aggregate views are not join-deltable"),
        })
        .collect();
    let conjuncts = match &p.stmt.where_ {
        Some(w) => bind_var(w, schema, row).split_conjuncts(),
        None => Vec::new(),
    };
    let scans: Vec<ScanSpec> = p
        .ranges
        .iter()
        .filter(|(v, _)| *v != p.var)
        .map(|(v, t)| ScanSpec {
            alias: v.clone(),
            table: t.clone(),
        })
        .collect();
    let block = QueryBlock {
        unique: false,
        scans,
        conjuncts,
        targets,
        group_by: Vec::new(),
        sort_by: Vec::new(),
        limit: None,
    };
    let plan = optimize(db, &block)?;
    Ok(wow_rel::exec::execute(db, &plan)?.tuples)
}

/// A per-propagation memo of view deltas: propagation computes each view's
/// delta once even when several windows share the view.
#[derive(Debug, Default)]
pub struct DeltaMemo {
    computed: BTreeMap<String, Option<ViewDelta>>,
}

impl DeltaMemo {
    /// Fresh memo (one per propagation pass).
    pub fn new() -> DeltaMemo {
        DeltaMemo::default()
    }

    /// The view's delta under `plan`, computed at most once. `None` means
    /// "fall back to a full refresh".
    pub fn get_or_compute(
        &mut self,
        db: &mut Database,
        view: &str,
        plan: &DeltaPlan,
        delta: &BaseDelta,
    ) -> ViewResult<&Option<ViewDelta>> {
        if !self.computed.contains_key(view) {
            let vd = compute_view_delta(db, plan, delta)?;
            self.computed.insert(view.to_string(), vd);
        }
        Ok(&self.computed[view])
    }
}
