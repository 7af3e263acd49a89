//! # wow-views
//!
//! The view layer of *Windows on the World*: every window displays a form
//! bound to a **view** — a stored relational query. This crate provides:
//!
//! * [`def`] — view definitions: a named target list over declared ranges
//!   with an optional restriction, i.e. a stored `RETRIEVE`.
//! * [`catalog`] — the view catalog, with cycle-safe registration.
//! * [`expand`] — **query modification** (Stonebraker 1975): rewriting a
//!   query over views into a query over base tables by substituting target
//!   expressions and conjoining view predicates. Views nest.
//! * [`keyed`] — the one view analysis: whether a view is keyed (a
//!   driving range's primary key, with every other range reached through
//!   its own primary key, so a window pages the view by key instead of
//!   re-running it), and whether it writes — the classical rules: a single
//!   base relation, no aggregates, real columns, and **the key preserved**.
//! * [`updatable`] — the writes-or-refusal view of that analysis.
//! * [`translate`] — translating window edits (update/insert/delete on view
//!   rows) into base-table DML, including the "row escapes the view" check.
//! * [`deps`] — the dependency graph from views to base tables, used by the
//!   window manager to decide which windows to refresh after a commit.
//! * [`delta`] — incremental view maintenance: per (view, table), the
//!   columns the view reads and, when the table drives the view, its
//!   `Keyed` ([`delta::DeltaPlan`]); each written image of a driving row
//!   walks through the same probes, restriction and targets a page runs,
//!   giving the view-row deltas windows apply in place.

pub mod catalog;
pub mod def;
pub mod delta;
pub mod deps;
pub mod error;
pub mod expand;
pub mod keyed;
pub mod translate;
pub mod updatable;

pub use catalog::ViewCatalog;
pub use def::ViewDef;
pub use deps::DepIndex;
pub use error::{ViewError, ViewResult};
