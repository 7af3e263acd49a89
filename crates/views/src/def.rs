//! View definitions.

use crate::catalog::ViewCatalog;
use crate::error::{ViewError, ViewResult};
use crate::expand::view_schema;
use wow_rel::bind::{bind_pred, bind_target};
use wow_rel::db::Database;
use wow_rel::quel::ast::{RetrieveStmt, Statement, Target};
use wow_rel::quel::parse_program;
use wow_rel::schema::Schema;
use wow_rel::RelError;

/// A named, stored query: the "view" each window looks through.
///
/// A view carries its own range declarations, so its definition is
/// self-contained and does not depend on session `RANGE OF` state:
///
/// ```text
/// ranges: [("e", "emp")]
/// stmt:   RETRIEVE (e.name, e.salary) WHERE e.dept = "toy"
/// ```
///
/// A range may name a base table *or another view* — expansion flattens the
/// nesting.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewDef {
    /// View name.
    pub name: String,
    /// Range declarations `(variable, table-or-view)`.
    pub ranges: Vec<(String, String)>,
    /// The body (targets + WHERE + ordering defaults for browsing).
    pub stmt: RetrieveStmt,
}

impl ViewDef {
    /// Parse a definition of the form
    /// `RANGE OF e IS emp ... RETRIEVE (...) WHERE ...`.
    ///
    /// The trailing `RETRIEVE` is the body; everything before it must be
    /// `RANGE OF` declarations.
    pub fn parse(name: &str, src: &str) -> ViewResult<ViewDef> {
        let stmts = parse_program(src)?;
        let mut ranges = Vec::new();
        let mut body = None;
        for s in stmts {
            match s {
                Statement::RangeOf { var, table } => ranges.push((var, table)),
                Statement::Retrieve(r) => {
                    if body.is_some() {
                        return Err(ViewError::Rel(RelError::Unsupported(
                            "a view has exactly one RETRIEVE body".into(),
                        )));
                    }
                    body = Some(r);
                }
                other => {
                    return Err(ViewError::Rel(RelError::Unsupported(format!(
                        "statement not allowed in a view definition: {other:?}"
                    ))))
                }
            }
        }
        let stmt = body.ok_or_else(|| {
            ViewError::Rel(RelError::Unsupported(
                "view definition needs a RETRIEVE body".into(),
            ))
        })?;
        Ok(ViewDef {
            name: name.to_string(),
            ranges,
            stmt,
        })
    }

    /// Bind the body against its ranges ([`wow_rel::bind`]): each range's
    /// columns are a table's or an earlier view's, so a mistyped literal or
    /// an incomparable pair is refused now, at definition time, and every
    /// literal is stored as a value of the column it meets. Query
    /// modification, delta maintenance and the check option all read the
    /// bound body.
    pub fn bind(mut self, db: &Database, vc: &ViewCatalog) -> ViewResult<ViewDef> {
        let mut scope = Schema::default();
        for (var, name) in &self.ranges {
            let columns = match db.catalog().table(name) {
                Ok(info) => info.schema.clone(),
                Err(_) => view_schema(db, vc, name)?,
            };
            scope.columns.extend(columns.qualified(var).columns);
        }
        self.stmt.where_ = match self.stmt.where_ {
            Some(w) => Some(bind_pred(w, &scope)?),
            None => None,
        };
        self.stmt.targets = std::mem::take(&mut self.stmt.targets)
            .into_iter()
            .map(|t| bind_target(t, &scope))
            .collect::<Result<_, _>>()?;
        Ok(self)
    }

    /// The output column names of the view, in order.
    pub fn column_names(&self) -> Vec<String> {
        self.stmt
            .targets
            .iter()
            .map(|t| match t {
                Target::Expr { name, expr } => name.clone().unwrap_or_else(|| default_name(expr)),
                Target::Agg { name, func, .. } => name
                    .clone()
                    .unwrap_or_else(|| func.keyword().to_lowercase()),
            })
            .collect()
    }

    /// Whether the body computes aggregates.
    pub fn has_aggregates(&self) -> bool {
        self.stmt.has_aggregates()
    }

    /// Whether every range names an existing base table in `db` (views are
    /// checked by the catalog instead).
    pub fn ranges_resolve(&self, db: &Database, view_exists: impl Fn(&str) -> bool) -> bool {
        self.ranges
            .iter()
            .all(|(_, t)| db.catalog().has_table(t) || view_exists(t))
    }
}

/// Default view-column name: the bare column part of a reference
/// (`e.salary` → `salary`) so view schemas read like base schemas; computed
/// targets should be named explicitly and otherwise fall back to their
/// printed form.
fn default_name(expr: &wow_rel::expr::Expr) -> String {
    match expr {
        wow_rel::expr::Expr::ColumnRef(n) => n
            .split_once('.')
            .map(|(_, bare)| bare.to_string())
            .unwrap_or_else(|| n.clone()),
        other => other.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_view() {
        let v = ViewDef::parse(
            "toy_emps",
            r#"RANGE OF e IS emp RETRIEVE (e.name, pay = e.salary) WHERE e.dept = "toy""#,
        )
        .unwrap();
        assert_eq!(v.ranges, vec![("e".to_string(), "emp".to_string())]);
        assert_eq!(v.column_names(), vec!["name", "pay"]);
        assert!(!v.has_aggregates());
    }

    #[test]
    fn parse_join_view() {
        let v = ViewDef::parse(
            "emp_dept",
            "RANGE OF e IS emp RANGE OF d IS dept
             RETRIEVE (e.name, d.dname) WHERE e.dept_id = d.id",
        )
        .unwrap();
        assert_eq!(v.ranges.len(), 2);
    }

    #[test]
    fn aggregate_views_flagged() {
        let v = ViewDef::parse(
            "dept_totals",
            "RANGE OF e IS emp RETRIEVE (e.dept, total = SUM(e.salary)) GROUP BY e.dept",
        )
        .unwrap();
        assert!(v.has_aggregates());
        assert_eq!(v.column_names(), vec!["dept", "total"]);
    }

    #[test]
    fn rejects_multiple_bodies_and_ddl() {
        assert!(ViewDef::parse("v", "RETRIEVE (x) RETRIEVE (y)").is_err());
        assert!(ViewDef::parse("v", "CREATE TABLE t (a INT)").is_err());
        assert!(ViewDef::parse("v", "RANGE OF e IS emp").is_err());
    }

    #[test]
    fn unnamed_computed_target_gets_expression_name() {
        let v = ViewDef::parse("v", "RANGE OF e IS emp RETRIEVE (e.salary * 2)").unwrap();
        assert_eq!(v.column_names(), vec!["(e.salary * 2)"]);
    }
}
