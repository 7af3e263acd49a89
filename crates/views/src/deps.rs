//! The view → base-table dependency graph.
//!
//! After a window commits an update to a base table, the window manager
//! must refresh every other window whose view *could* see the change.
//! These helpers compute that reachability.
//!
//! [`base_tables`] walks the definitions on every call. Propagation asks
//! once per open window per commit, so the hot path instead goes through
//! [`DepIndex`], which memoizes the whole view → base-table map and
//! invalidates it by comparing catalog generations (bumped on table and
//! view DDL respectively) — zero recomputation while the schema is stable.

use crate::catalog::ViewCatalog;
use crate::delta::DeltaPlan;
use crate::error::ViewResult;
use std::collections::{BTreeMap, BTreeSet};
use wow_rel::db::Database;

/// The set of base tables a view (transitively) reads.
pub fn base_tables(
    db: &Database,
    vc: &ViewCatalog,
    view_name: &str,
) -> ViewResult<BTreeSet<String>> {
    let mut out = BTreeSet::new();
    collect(db, vc, view_name, &mut out)?;
    Ok(out)
}

fn collect(
    db: &Database,
    vc: &ViewCatalog,
    name: &str,
    out: &mut BTreeSet<String>,
) -> ViewResult<()> {
    let def = vc.get(name)?;
    for (_, t) in &def.ranges {
        if db.catalog().has_table(t) {
            out.insert(t.clone());
        } else {
            collect(db, vc, t, out)?;
        }
    }
    Ok(())
}

/// A cached view → base-table dependency map.
///
/// Built lazily from the two catalogs and kept until either changes shape:
/// the table-set generation of [`wow_rel::catalog::Catalog`] or the view
/// generation of [`ViewCatalog`]. Reads on the warm path are pure map
/// lookups; `rebuilds()` counts how often the cache was (re)derived, which
/// the Figure 4 bench asserts stays at one across a whole propagation run.
#[derive(Debug, Default)]
pub struct DepIndex {
    /// view name → base tables it transitively reads.
    cache: BTreeMap<String, BTreeSet<String>>,
    /// (view, table) → how writes to the table move through the view.
    /// Derived lazily per pair; cleared with the dependency map.
    plans: BTreeMap<(String, String), DeltaPlan>,
    /// Generations the cache was built against.
    table_gen: u64,
    view_gen: u64,
    /// Whether the cache has been built at least once (generations start at
    /// 0 in both catalogs, so a flag is needed to force the first build).
    built: bool,
    rebuilds: u64,
}

impl DepIndex {
    /// An empty (cold) index.
    pub fn new() -> DepIndex {
        DepIndex::default()
    }

    /// How many times the cache has been derived from scratch.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Whether the cache matches the current catalog generations.
    pub fn is_fresh(&self, db: &Database, vc: &ViewCatalog) -> bool {
        self.built
            && self.table_gen == db.catalog().generation()
            && self.view_gen == vc.generation()
    }

    fn ensure(&mut self, db: &Database, vc: &ViewCatalog) -> ViewResult<()> {
        if self.is_fresh(db, vc) {
            return Ok(());
        }
        self.cache.clear();
        self.plans.clear();
        for name in vc.names() {
            let tables = base_tables(db, vc, &name)?;
            self.cache.insert(name, tables);
        }
        self.table_gen = db.catalog().generation();
        self.view_gen = vc.generation();
        self.built = true;
        self.rebuilds += 1;
        Ok(())
    }

    /// The base tables `view` transitively reads (cached).
    pub fn base_tables(
        &mut self,
        db: &Database,
        vc: &ViewCatalog,
        view: &str,
    ) -> ViewResult<&BTreeSet<String>> {
        self.ensure(db, vc)?;
        self.cache
            .get(view)
            .ok_or_else(|| crate::error::ViewError::NoSuchView(view.to_string()))
    }

    /// Whether `view` (transitively) reads `table` (cached).
    pub fn reads(
        &mut self,
        db: &Database,
        vc: &ViewCatalog,
        view: &str,
        table: &str,
    ) -> ViewResult<bool> {
        Ok(self.base_tables(db, vc, view)?.contains(table))
    }

    /// The delta plan for pushing writes on `table` through `view`, cached
    /// per (view, table) pair under the same generation invalidation as the
    /// dependency map.
    pub fn delta_plan(
        &mut self,
        db: &Database,
        vc: &ViewCatalog,
        view: &str,
        table: &str,
    ) -> ViewResult<&DeltaPlan> {
        self.ensure(db, vc)?;
        let key = (view.to_string(), table.to_string());
        if !self.plans.contains_key(&key) {
            let plan = crate::delta::plan(db, vc, view, table)?;
            self.plans.insert(key.clone(), plan);
        }
        Ok(&self.plans[&key])
    }
}
