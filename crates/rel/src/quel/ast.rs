//! Abstract syntax for the QUEL dialect.

use crate::exec::AggFunc;
use crate::expr::Expr;
use crate::types::DataType;

/// A column definition in `CREATE TABLE`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Data type.
    pub ty: DataType,
    /// `NOT NULL` (implied by `KEY`).
    pub not_null: bool,
    /// `KEY`: part of the primary key.
    pub key: bool,
}

/// One entry of a `RETRIEVE` target list.
#[derive(Debug, Clone, PartialEq)]
pub enum Target {
    /// A scalar expression, optionally named (`pay = e.salary * 12`).
    Expr {
        /// Output name (defaults to the expression's source text shape).
        name: Option<String>,
        /// The expression.
        expr: Expr,
    },
    /// An aggregate (`total = SUM(e.salary)`, `n = COUNT(*)`).
    Agg {
        /// Output name.
        name: Option<String>,
        /// The function.
        func: AggFunc,
        /// The argument (`None` = `*`).
        arg: Option<Expr>,
    },
}

impl Target {
    /// Whether this target is an aggregate.
    pub fn is_agg(&self) -> bool {
        matches!(self, Target::Agg { .. })
    }
}

/// A `SORT BY` key.
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    /// Column reference (output name or input column).
    pub column: String,
    /// Ascending?
    pub ascending: bool,
}

/// A `RETRIEVE` statement.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RetrieveStmt {
    /// `RETRIEVE UNIQUE`: drop duplicate output rows.
    pub unique: bool,
    /// Target list.
    pub targets: Vec<Target>,
    /// `WHERE` predicate.
    pub where_: Option<Expr>,
    /// `GROUP BY` column references.
    pub group_by: Vec<String>,
    /// `SORT BY` keys.
    pub sort_by: Vec<SortKey>,
    /// `LIMIT count [OFFSET n]`.
    pub limit: Option<(usize, usize)>,
}

impl RetrieveStmt {
    /// Whether any target is an aggregate.
    pub fn has_aggregates(&self) -> bool {
        self.targets.iter().any(Target::is_agg)
    }
}

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE name (col TYPE [KEY] [NOT NULL], ...)`
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        columns: Vec<ColumnDef>,
    },
    /// `CREATE [UNIQUE] INDEX name ON table (column) [USING BTREE|HASH]`.
    /// Every index is a B+tree; `USING HASH` is an accepted alias.
    CreateIndex {
        /// Index name.
        name: String,
        /// Table name.
        table: String,
        /// Column name.
        column: String,
        /// Uniqueness.
        unique: bool,
    },
    /// `DROP TABLE name`
    DropTable(String),
    /// `DROP INDEX name`
    DropIndex(String),
    /// `RANGE OF var IS table`
    RangeOf {
        /// Range variable.
        var: String,
        /// Table name.
        table: String,
    },
    /// `RETRIEVE (...) ...`
    Retrieve(RetrieveStmt),
    /// `EXPLAIN RETRIEVE (...) ...` — returns the physical plan as text.
    Explain(RetrieveStmt),
    /// `EXPLAIN ANALYZE RETRIEVE (...) ...` — executes the query and
    /// returns the plan annotated with per-operator row counts, batch
    /// counts, and wall time.
    ExplainAnalyze(RetrieveStmt),
    /// `APPEND TO table (col = expr, ...)`
    Append {
        /// Table name.
        table: String,
        /// Column assignments (expressions must be constant).
        assigns: Vec<(String, Expr)>,
    },
    /// `REPLACE var (col = expr, ...) [WHERE pred]`
    Replace {
        /// Range variable of the target table.
        var: String,
        /// Column assignments (may reference the row via the range var).
        assigns: Vec<(String, Expr)>,
        /// Restriction.
        where_: Option<Expr>,
    },
    /// `DELETE var [WHERE pred]`
    Delete {
        /// Range variable of the target table.
        var: String,
        /// Restriction.
        where_: Option<Expr>,
    },
    /// `BEGIN`
    Begin,
    /// `COMMIT`
    Commit,
    /// `ABORT`
    Abort,
    /// `ANALYZE table`
    Analyze(String),
}

impl Statement {
    /// Whether running the statement can change stored rows: a window on
    /// any table may then show stale data.
    pub fn changes_rows(&self) -> bool {
        matches!(
            self,
            Statement::Append { .. }
                | Statement::Replace { .. }
                | Statement::Delete { .. }
                | Statement::Abort
                | Statement::DropTable(_)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn retrieve_aggregate_detection() {
        let plain = RetrieveStmt {
            targets: vec![Target::Expr {
                name: None,
                expr: Expr::Literal(Value::Int(1)),
            }],
            ..Default::default()
        };
        assert!(!plain.has_aggregates());
        let agg = RetrieveStmt {
            targets: vec![Target::Agg {
                name: Some("n".into()),
                func: AggFunc::Count,
                arg: None,
            }],
            ..Default::default()
        };
        assert!(agg.has_aggregates());
    }
}
