//! The binder: every expression is typed once, between parse and plan.
//!
//! The parser leaves literals as they were written; binding decides what
//! each one means against the columns it meets. It runs over every
//! expression the system evaluates — every query block at the start of
//! [`crate::plan::optimize`], `REPLACE`/`DELETE` qualifications and every
//! assignment list in [`crate::db::Database::run`], view definitions when
//! they are defined, and query-by-form restrictions — and it does four
//! things:
//!
//! * it types every node ([`type_of`]);
//! * it coerces each literal compared with, or assigned to, a typed operand
//!   to that operand's type by one rule: APPEND's [`Value::coerce_to`] (an
//!   `INT` widens to `FLOAT`, `"YYYY-MM-DD"` text narrows to `DATE`), plus
//!   an exact `FLOAT`→`INT` narrowing. A float with a fractional part stays
//!   a float: it still compares numerically, but is never an index key of
//!   an `INT` column;
//! * it refuses incomparable pairs, non-numeric arithmetic, non-boolean
//!   logic and `SUM`/`AVG` over non-numeric input with a
//!   [`RelError::TypeMismatch`] naming both sides;
//! * it leaves a well-typed expression exactly as it was.
//!
//! Evaluation then never meets a type it must reject: the run-time kernels
//! keep only their arithmetic errors, and [`Value::compare`] asserts (in
//! debug builds) that whatever reaches it was bound.

use crate::error::{RelError, RelResult};
use crate::exec::AggFunc;
use crate::expr::{BinOp, Expr, UnOp};
use crate::plan::logical::ScanSpec;
use crate::quel::ast::Target;
use crate::schema::Schema;
use crate::types::DataType;
use crate::value::Value;

/// The column type of a bare `NULL` target, which has no type of its own:
/// `TEXT`, SQL's rule for an untyped literal.
const UNTYPED_NULL: DataType = DataType::Text;

/// Floats of at most this magnitude convert to `INT` without rounding.
const EXACT_INT_LIMIT: f64 = (1u64 << 53) as f64;

/// Bind a scalar expression against `scope`. Column references stay named
/// (or positional) — resolution is the planner's job.
pub fn bind(mut expr: Expr, scope: &Schema) -> RelResult<Expr> {
    coerce_literals(&mut expr, scope)?;
    type_of(&expr, scope)?;
    Ok(expr)
}

/// Bind a qualification: as [`bind`], and it must be `BOOL`.
pub fn bind_pred(mut expr: Expr, scope: &Schema) -> RelResult<Expr> {
    coerce_literals(&mut expr, scope)?;
    let t = type_of(&expr, scope)?;
    fits(t, &expr, "BOOL qualification", |t| t == DataType::Bool)?;
    Ok(expr)
}

/// Bind one target: its expression, or an aggregate's argument (`SUM` and
/// `AVG` take numbers).
pub fn bind_target(target: Target, scope: &Schema) -> RelResult<Target> {
    Ok(match target {
        Target::Expr { name, expr } => Target::Expr {
            name,
            expr: bind(expr, scope)?,
        },
        Target::Agg { name, func, arg } => {
            let arg = arg.map(|a| bind(a, scope)).transpose()?;
            if let (AggFunc::Sum | AggFunc::Avg, Some(a)) = (func, &arg) {
                let what = format!("numeric {} argument", func.keyword());
                fits(type_of(a, scope)?, a, &what, DataType::is_numeric)?;
            }
            Target::Agg { name, func, arg }
        }
    })
}

/// The columns a query block's scans bring into scope, qualified by their
/// range variables: what its conjuncts and targets are bound against.
pub fn scope(db: &crate::db::Database, scans: &[ScanSpec]) -> RelResult<Schema> {
    let mut scope = Schema::default();
    for scan in scans {
        let table = &db.catalog().table(&scan.table)?.schema;
        scope.columns.extend(table.qualified(&scan.alias).columns);
    }
    Ok(scope)
}

/// Bind the assignment list of an `APPEND` or `REPLACE` to `table`, whose
/// rows `scope` names: a literal is coerced to its column's type, and every
/// value must then have that type (an `INT` widens to a `FLOAT` column).
/// Returns `(column, expression)` pairs with the expressions resolved
/// against `scope`.
pub fn bind_assigns(
    assigns: &[(String, Expr)],
    table: &Schema,
    scope: &Schema,
) -> RelResult<Vec<(usize, Expr)>> {
    let mut out = Vec::with_capacity(assigns.len());
    for (col, expr) in assigns {
        let i = table.resolve(col)?;
        let ty = table.column(i).ty;
        let target = Expr::ColumnRef(col.clone());
        let mut expr = bind(expr.clone(), scope)?;
        if let Expr::Literal(v) = &mut expr {
            *v = coerce_literal(std::mem::replace(v, Value::Null), ty, &target)?;
        }
        if let Some(t) = type_of(&expr, scope)? {
            if t != ty && !(t == DataType::Int && ty == DataType::Float) {
                return Err(mismatch(ty, &target, Some(t), &expr));
            }
        }
        out.push((i, expr.resolve(scope)?));
    }
    Ok(out)
}

/// The type of a bound expression; `None` for an untyped `NULL`. Refuses
/// any node whose operands do not fit it.
pub fn type_of(expr: &Expr, scope: &Schema) -> RelResult<Option<DataType>> {
    Ok(match expr {
        Expr::Column(i) => Some(
            scope
                .columns
                .get(*i)
                .ok_or_else(|| RelError::NoSuchColumn(format!("#{i}")))?
                .ty,
        ),
        Expr::ColumnRef(n) => Some(scope.column(scope.resolve(n)?).ty),
        Expr::Literal(v) => v.data_type(),
        Expr::Binary { op, left, right } => {
            let l = type_of(left, scope)?;
            let r = type_of(right, scope)?;
            match op {
                BinOp::And | BinOp::Or => {
                    fits(l, left, "BOOL operand", |t| t == DataType::Bool)?;
                    fits(r, right, "BOOL operand", |t| t == DataType::Bool)?;
                    Some(DataType::Bool)
                }
                op if op.is_comparison() => {
                    if let (Some(a), Some(b)) = (l, r) {
                        if !a.comparable_with(b) {
                            return Err(mismatch(a, left, Some(b), right));
                        }
                    }
                    Some(DataType::Bool)
                }
                _ => {
                    fits(l, left, "numeric operand", DataType::is_numeric)?;
                    fits(r, right, "numeric operand", DataType::is_numeric)?;
                    match (l, r) {
                        (Some(DataType::Int), Some(DataType::Int)) => Some(DataType::Int),
                        (None, t) | (t, None) => t,
                        _ => Some(DataType::Float),
                    }
                }
            }
        }
        Expr::Unary {
            op: UnOp::Not,
            expr,
        } => {
            fits(type_of(expr, scope)?, expr, "BOOL operand of NOT", |t| {
                t == DataType::Bool
            })?;
            Some(DataType::Bool)
        }
        Expr::Unary {
            op: UnOp::Neg,
            expr,
        } => fits(
            type_of(expr, scope)?,
            expr,
            "numeric operand of -",
            DataType::is_numeric,
        )?,
        Expr::Like { expr, .. } => {
            fits(type_of(expr, scope)?, expr, "TEXT operand of LIKE", |t| {
                t == DataType::Text
            })?;
            Some(DataType::Bool)
        }
        Expr::IsNull(e) => {
            type_of(e, scope)?;
            Some(DataType::Bool)
        }
    })
}

/// The column type a projected expression gets.
pub fn column_type(expr: &Expr, scope: &Schema) -> RelResult<DataType> {
    Ok(type_of(expr, scope)?.unwrap_or(UNTYPED_NULL))
}

/// `t`, the type of `expr`, which must satisfy `ok` unless it is an
/// untyped `NULL`.
fn fits(
    t: Option<DataType>,
    expr: &Expr,
    wanted: &str,
    ok: impl Fn(DataType) -> bool,
) -> RelResult<Option<DataType>> {
    match t {
        Some(t) if !ok(t) => Err(RelError::TypeMismatch {
            expected: wanted.to_string(),
            got: format!("{t} {expr}"),
        }),
        t => Ok(t),
    }
}

/// Coerce the literal side of every comparison whose other side is typed
/// and not itself a literal.
fn coerce_literals(expr: &mut Expr, scope: &Schema) -> RelResult<()> {
    match expr {
        Expr::Binary { op, left, right } => {
            coerce_literals(left, scope)?;
            coerce_literals(right, scope)?;
            if op.is_comparison() {
                let (lit, other) = match (left.as_mut(), right.as_mut()) {
                    (Expr::Literal(_), Expr::Literal(_)) => return Ok(()),
                    (Expr::Literal(v), other) | (other, Expr::Literal(v)) => (v, other),
                    _ => return Ok(()),
                };
                if let Some(ty) = type_of(other, scope)? {
                    let v = std::mem::replace(lit, Value::Null);
                    *lit = coerce_literal(v, ty, other)?;
                }
            }
        }
        Expr::Unary { expr, .. } | Expr::Like { expr, .. } | Expr::IsNull(expr) => {
            coerce_literals(expr, scope)?
        }
        Expr::Column(_) | Expr::ColumnRef(_) | Expr::Literal(_) => {}
    }
    Ok(())
}

/// The one coercion rule: `v` as a value of `ty`, the type of `other`.
fn coerce_literal(v: Value, ty: DataType, other: &Expr) -> RelResult<Value> {
    if let (Value::Float(f), DataType::Int) = (&v, ty) {
        let exact = f.fract() == 0.0 && f.abs() < EXACT_INT_LIMIT;
        return Ok(if exact { Value::Int(*f as i64) } else { v });
    }
    let (vt, lit) = (v.data_type(), Expr::Literal(v.clone()));
    v.coerce_to(ty).map_err(|_| mismatch(ty, other, vt, &lit))
}

/// A type mismatch naming both sides.
fn mismatch(a: DataType, left: &Expr, b: Option<DataType>, right: &Expr) -> RelError {
    RelError::TypeMismatch {
        expected: format!("{a} to match {left}"),
        got: match b {
            Some(b) => format!("{b} {right}"),
            None => right.to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::types::parse_date;

    fn scope() -> Schema {
        Schema::new(vec![
            Column::new("e.n", DataType::Int),
            Column::new("e.g", DataType::Float),
            Column::new("e.day", DataType::Date),
            Column::new("e.name", DataType::Text),
            Column::new("e.ok", DataType::Bool),
        ])
    }

    fn cmp(op: BinOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    fn col(n: &str) -> Expr {
        Expr::ColumnRef(format!("e.{n}"))
    }

    fn lit(v: Value) -> Expr {
        Expr::Literal(v)
    }

    #[test]
    fn literals_take_the_type_of_the_column_they_meet() {
        let day = Value::Date(parse_date("1983-05-23").unwrap());
        for (written, bound) in [
            (
                cmp(BinOp::Eq, col("n"), lit(Value::Float(4.0))),
                cmp(BinOp::Eq, col("n"), lit(Value::Int(4))),
            ),
            (
                cmp(BinOp::Lt, col("g"), lit(Value::Int(4))),
                cmp(BinOp::Lt, col("g"), lit(Value::Float(4.0))),
            ),
            (
                cmp(BinOp::Eq, col("n"), lit(Value::Float(4.5))),
                cmp(BinOp::Eq, col("n"), lit(Value::Float(4.5))),
            ),
            (
                cmp(BinOp::Ge, lit(Value::text("1983-05-23")), col("day")),
                cmp(BinOp::Ge, lit(day.clone()), col("day")),
            ),
            (
                cmp(BinOp::Eq, col("day"), lit(Value::Null)),
                cmp(BinOp::Eq, col("day"), lit(Value::Null)),
            ),
        ] {
            assert_eq!(bind_pred(written, &scope()).unwrap(), bound);
        }
    }

    #[test]
    fn types_follow_the_operands() {
        let s = scope();
        let add = |l, r| cmp(BinOp::Add, l, r);
        assert_eq!(
            type_of(&add(col("n"), lit(Value::Int(1))), &s).unwrap(),
            Some(DataType::Int)
        );
        assert_eq!(
            type_of(&add(col("n"), col("g")), &s).unwrap(),
            Some(DataType::Float)
        );
        assert_eq!(
            type_of(&add(lit(Value::Null), col("n")), &s).unwrap(),
            Some(DataType::Int)
        );
        assert_eq!(type_of(&lit(Value::Null), &s).unwrap(), None);
        assert_eq!(column_type(&lit(Value::Null), &s).unwrap(), DataType::Text);
        assert_eq!(type_of(&Expr::Column(2), &s).unwrap(), Some(DataType::Date));
    }

    #[test]
    fn mistyped_nodes_are_refused_naming_both_sides() {
        let s = scope();
        let refused = |e: Expr| match bind_pred(e, &s) {
            Err(RelError::TypeMismatch { expected, got }) => format!("{expected} / {got}"),
            other => panic!("{other:?}"),
        };
        assert_eq!(
            refused(cmp(BinOp::Gt, col("name"), lit(Value::Int(1)))),
            "TEXT to match e.name / INT 1"
        );
        assert!(refused(cmp(BinOp::Eq, col("n"), lit(Value::text("1")))).contains("e.n"));
        assert!(
            refused(cmp(BinOp::Eq, col("day"), lit(Value::text("1983-13-45"))))
                .contains("1983-13-45")
        );
        assert!(refused(cmp(BinOp::Eq, col("n"), col("day"))).contains("e.day"));
        assert!(refused(cmp(BinOp::And, col("n"), col("ok"))).contains("e.n"));
        assert!(refused(col("n")).contains("BOOL qualification"));
        refused(Expr::Like {
            expr: Box::new(col("n")),
            pattern: "*".into(),
        });
        refused(cmp(
            BinOp::Eq,
            cmp(BinOp::Sub, col("day"), lit(Value::Int(1))),
            col("day"),
        ));
    }

    #[test]
    fn assignments_fit_their_column() {
        let table = Schema::new(vec![
            Column::new("n", DataType::Int),
            Column::new("g", DataType::Float),
            Column::new("day", DataType::Date),
        ]);
        let s = table.qualified("e");
        let assign = |c: &str, e: Expr| bind_assigns(&[(c.to_string(), e)], &table, &s);
        let day = assign("day", lit(Value::text("1983-05-23"))).unwrap();
        assert_eq!(
            day,
            [(2, lit(Value::Date(parse_date("1983-05-23").unwrap())))]
        );
        assert_eq!(assign("g", col("n")).unwrap(), [(1, Expr::Column(0))]);
        assert!(assign("n", col("g")).is_err());
        assert!(assign("n", lit(Value::text("x"))).is_err());
        assert_eq!(
            assign("n", lit(Value::Float(4.0))).unwrap(),
            [(0, lit(Value::Int(4)))]
        );
        assert!(assign("n", lit(Value::Float(4.5))).is_err());
        assert!(assign("n", lit(Value::Null)).is_ok());
    }
}
