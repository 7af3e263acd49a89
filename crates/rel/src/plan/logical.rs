//! The logical query representation: a single select-project-join block.

use crate::expr::Expr;
use crate::quel::ast::{SortKey, Target};

/// One scan required by the query: a range variable bound to a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanSpec {
    /// Range-variable alias (qualifies output column names).
    pub alias: String,
    /// Table name.
    pub table: String,
}

/// A normalized query block (the unit the optimizer works on).
///
/// All expressions still carry *named* column references and literals as
/// written; the optimizer binds them ([`crate::bind`]) and resolves them
/// once operator positions are fixed.
#[derive(Debug, Clone, Default)]
pub struct QueryBlock {
    /// Drop duplicate output rows (`RETRIEVE UNIQUE`).
    pub unique: bool,
    /// The scans, in declaration order.
    pub scans: Vec<ScanSpec>,
    /// Top-level AND conjuncts of the WHERE clause.
    pub conjuncts: Vec<Expr>,
    /// Output targets, in output order.
    pub targets: Vec<Target>,
    /// Grouping column references (names).
    pub group_by: Vec<String>,
    /// Sort keys (by output or input column name).
    pub sort_by: Vec<SortKey>,
    /// `(offset, count)`.
    pub limit: Option<(usize, usize)>,
}

impl QueryBlock {
    /// Whether the block computes aggregates.
    pub fn has_aggregates(&self) -> bool {
        self.targets.iter().any(Target::is_agg)
    }
}
