//! Expression evaluation with SQL-style three-valued logic.
//!
//! Two evaluators share the kernels in this module:
//!
//! * [`eval`] — the row-at-a-time tree-walking interpreter (the reference
//!   semantics);
//! * [`compile`] — a one-time compiler to flat programs run over column
//!   batches with selection vectors (the vectorized hot path).

pub mod compile;

use crate::error::{RelError, RelResult};
use crate::expr::{glob_match, BinOp, Expr, UnOp};
use crate::tuple::Tuple;
use crate::value::Value;
use std::cmp::Ordering;

/// Evaluate an expression against a tuple.
///
/// Comparisons involving NULL yield NULL; `AND`/`OR` follow Kleene logic
/// (`NULL AND false = false`, `NULL OR true = true`).
pub fn eval(expr: &Expr, tuple: &Tuple) -> RelResult<Value> {
    match expr {
        Expr::Column(i) => tuple
            .values
            .get(*i)
            .cloned()
            .ok_or_else(|| RelError::NoSuchColumn(format!("#{i}"))),
        Expr::ColumnRef(n) => Err(RelError::NoSuchColumn(format!("unresolved: {n}"))),
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Binary { op, left, right } => {
            let l = eval(left, tuple)?;
            // Short-circuit AND/OR before evaluating the right side.
            match op {
                BinOp::And => {
                    return match truth(&l) {
                        Some(false) => Ok(Value::Bool(false)),
                        l_truth => {
                            let r = eval(right, tuple)?;
                            Ok(match (l_truth, truth(&r)) {
                                (_, Some(false)) => Value::Bool(false),
                                (Some(true), Some(true)) => Value::Bool(true),
                                _ => Value::Null,
                            })
                        }
                    };
                }
                BinOp::Or => {
                    return match truth(&l) {
                        Some(true) => Ok(Value::Bool(true)),
                        l_truth => {
                            let r = eval(right, tuple)?;
                            Ok(match (l_truth, truth(&r)) {
                                (_, Some(true)) => Value::Bool(true),
                                (Some(false), Some(false)) => Value::Bool(false),
                                _ => Value::Null,
                            })
                        }
                    };
                }
                _ => {}
            }
            let r = eval(right, tuple)?;
            if op.is_comparison() {
                return Ok(compare_op(*op, &l, &r));
            }
            arithmetic(*op, &l, &r)
        }
        Expr::Unary { op, expr } => {
            let v = eval(expr, tuple)?;
            match op {
                UnOp::Not => Ok(match truth(&v) {
                    None => Value::Null,
                    Some(b) => Value::Bool(!b),
                }),
                UnOp::Neg => negate(&v),
            }
        }
        Expr::Like { expr, pattern } => Ok(like(pattern, &eval(expr, tuple)?)),
        Expr::IsNull(e) => Ok(Value::Bool(eval(e, tuple)?.is_null())),
    }
}

/// Evaluate a predicate: NULL counts as not-satisfied.
pub fn eval_pred(expr: &Expr, tuple: &Tuple) -> RelResult<bool> {
    Ok(truth(&eval(expr, tuple)?).unwrap_or(false))
}

/// Truth value of a result (`None` = unknown: NULL, the only non-boolean
/// value the binder lets reach a logical position).
pub(crate) fn truth(v: &Value) -> Option<bool> {
    match v {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

/// Checked numeric negation; NULL stays NULL (the binder admits no other
/// operand).
pub(crate) fn negate(v: &Value) -> RelResult<Value> {
    match v {
        Value::Int(i) => i
            .checked_neg()
            .map(Value::Int)
            .ok_or(RelError::Arithmetic("overflow")),
        Value::Float(f) => Ok(Value::Float(-f)),
        _ => Ok(Value::Null),
    }
}

/// Glob match of a text value; NULL stays NULL (the binder admits no other
/// operand).
pub(crate) fn like(pattern: &str, v: &Value) -> Value {
    match v {
        Value::Text(s) => Value::Bool(glob_match(pattern, s)),
        _ => Value::Null,
    }
}

/// One comparison, by reference — the kernel shared by the interpreter and
/// the batch evaluator. NULL on either side yields NULL.
pub(crate) fn compare_op(op: BinOp, l: &Value, r: &Value) -> Value {
    match l.compare(r) {
        None => Value::Null,
        Some(ord) => Value::Bool(match op {
            BinOp::Eq => ord == Ordering::Equal,
            BinOp::Ne => ord != Ordering::Equal,
            BinOp::Lt => ord == Ordering::Less,
            BinOp::Le => ord != Ordering::Greater,
            BinOp::Gt => ord == Ordering::Greater,
            BinOp::Ge => ord != Ordering::Less,
            _ => unreachable!("compare_op() called with {op:?}"),
        }),
    }
}

/// Checked arithmetic. Int op Int stays exact; anything involving a float
/// is float; a NULL operand (the only non-numeric one the binder admits)
/// gives NULL.
pub(crate) fn arithmetic(op: BinOp, l: &Value, r: &Value) -> RelResult<Value> {
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        let (a, b) = (*a, *b);
        return match op {
            BinOp::Add => a
                .checked_add(b)
                .map(Value::Int)
                .ok_or(RelError::Arithmetic("overflow")),
            BinOp::Sub => a
                .checked_sub(b)
                .map(Value::Int)
                .ok_or(RelError::Arithmetic("overflow")),
            BinOp::Mul => a
                .checked_mul(b)
                .map(Value::Int)
                .ok_or(RelError::Arithmetic("overflow")),
            BinOp::Div => {
                if b == 0 {
                    Err(RelError::Arithmetic("division by zero"))
                } else {
                    Ok(Value::Int(a / b))
                }
            }
            BinOp::Mod => {
                if b == 0 {
                    Err(RelError::Arithmetic("division by zero"))
                } else {
                    Ok(Value::Int(a % b))
                }
            }
            _ => unreachable!("arithmetic() called with {op:?}"),
        };
    }
    let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
        return Ok(Value::Null);
    };
    let out = match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => {
            if b == 0.0 {
                return Err(RelError::Arithmetic("division by zero"));
            }
            a / b
        }
        BinOp::Mod => {
            if b == 0.0 {
                return Err(RelError::Arithmetic("division by zero"));
            }
            a % b
        }
        _ => unreachable!(),
    };
    Ok(Value::Float(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(values: Vec<Value>) -> Tuple {
        Tuple::new(values)
    }

    fn lit(v: Value) -> Expr {
        Expr::Literal(v)
    }

    fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    #[test]
    fn comparisons() {
        let empty = t(vec![]);
        assert_eq!(
            eval(
                &bin(BinOp::Lt, lit(Value::Int(1)), lit(Value::Int(2))),
                &empty
            )
            .unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval(
                &bin(BinOp::Ge, lit(Value::text("b")), lit(Value::text("a"))),
                &empty
            )
            .unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval(
                &bin(BinOp::Eq, lit(Value::Int(2)), lit(Value::Float(2.0))),
                &empty
            )
            .unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn null_comparisons_are_null() {
        let empty = t(vec![]);
        let e = bin(BinOp::Eq, lit(Value::Null), lit(Value::Int(1)));
        assert_eq!(eval(&e, &empty).unwrap(), Value::Null);
        assert!(!eval_pred(&e, &empty).unwrap());
    }

    #[test]
    fn kleene_and_or() {
        let empty = t(vec![]);
        let null = lit(Value::Null);
        let tru = lit(Value::Bool(true));
        let fal = lit(Value::Bool(false));
        assert_eq!(
            eval(&bin(BinOp::And, null.clone(), fal.clone()), &empty).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            eval(&bin(BinOp::And, null.clone(), tru.clone()), &empty).unwrap(),
            Value::Null
        );
        assert_eq!(
            eval(&bin(BinOp::Or, null.clone(), tru.clone()), &empty).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval(&bin(BinOp::Or, null.clone(), fal), &empty).unwrap(),
            Value::Null
        );
        assert_eq!(
            eval(&bin(BinOp::Or, null.clone(), null), &empty).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn short_circuit_skips_rhs_errors() {
        // false AND (1/0) must not error.
        let empty = t(vec![]);
        let div0 = bin(BinOp::Div, lit(Value::Int(1)), lit(Value::Int(0)));
        let e = bin(BinOp::And, lit(Value::Bool(false)), div0.clone());
        assert_eq!(eval(&e, &empty).unwrap(), Value::Bool(false));
        let e = bin(BinOp::Or, lit(Value::Bool(true)), div0);
        assert_eq!(eval(&e, &empty).unwrap(), Value::Bool(true));
    }

    #[test]
    fn arithmetic_int_and_float() {
        let empty = t(vec![]);
        assert_eq!(
            eval(
                &bin(BinOp::Add, lit(Value::Int(2)), lit(Value::Int(3))),
                &empty
            )
            .unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            eval(
                &bin(BinOp::Div, lit(Value::Int(7)), lit(Value::Int(2))),
                &empty
            )
            .unwrap(),
            Value::Int(3),
            "integer division truncates"
        );
        assert_eq!(
            eval(
                &bin(BinOp::Mul, lit(Value::Float(1.5)), lit(Value::Int(4))),
                &empty
            )
            .unwrap(),
            Value::Float(6.0)
        );
        assert_eq!(
            eval(
                &bin(BinOp::Mod, lit(Value::Int(7)), lit(Value::Int(3))),
                &empty
            )
            .unwrap(),
            Value::Int(1)
        );
    }

    #[test]
    fn arithmetic_errors() {
        let empty = t(vec![]);
        assert!(matches!(
            eval(
                &bin(BinOp::Div, lit(Value::Int(1)), lit(Value::Int(0))),
                &empty
            ),
            Err(RelError::Arithmetic(_))
        ));
        assert!(matches!(
            eval(
                &bin(BinOp::Add, lit(Value::Int(i64::MAX)), lit(Value::Int(1))),
                &empty
            ),
            Err(RelError::Arithmetic(_))
        ));
    }

    #[test]
    fn null_arithmetic_propagates() {
        let empty = t(vec![]);
        assert_eq!(
            eval(
                &bin(BinOp::Add, lit(Value::Null), lit(Value::Int(1))),
                &empty
            )
            .unwrap(),
            Value::Null
        );
    }

    #[test]
    fn unary_ops() {
        let empty = t(vec![]);
        assert_eq!(
            eval(
                &Expr::Unary {
                    op: UnOp::Neg,
                    expr: Box::new(lit(Value::Int(5)))
                },
                &empty
            )
            .unwrap(),
            Value::Int(-5)
        );
        assert_eq!(
            eval(
                &Expr::Unary {
                    op: UnOp::Not,
                    expr: Box::new(lit(Value::Bool(true)))
                },
                &empty
            )
            .unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            eval(
                &Expr::Unary {
                    op: UnOp::Not,
                    expr: Box::new(lit(Value::Null))
                },
                &empty
            )
            .unwrap(),
            Value::Null
        );
    }

    #[test]
    fn like_and_is_null() {
        let row = t(vec![Value::text("anderson"), Value::Null]);
        let e = Expr::Like {
            expr: Box::new(Expr::Column(0)),
            pattern: "*son".into(),
        };
        assert_eq!(eval(&e, &row).unwrap(), Value::Bool(true));
        let e = Expr::IsNull(Box::new(Expr::Column(1)));
        assert_eq!(eval(&e, &row).unwrap(), Value::Bool(true));
        let e = Expr::IsNull(Box::new(Expr::Column(0)));
        assert_eq!(eval(&e, &row).unwrap(), Value::Bool(false));
        // LIKE over NULL is NULL.
        let e = Expr::Like {
            expr: Box::new(Expr::Column(1)),
            pattern: "*".into(),
        };
        assert_eq!(eval(&e, &row).unwrap(), Value::Null);
    }

    #[test]
    fn column_access_and_errors() {
        let row = t(vec![Value::Int(9)]);
        assert_eq!(eval(&Expr::Column(0), &row).unwrap(), Value::Int(9));
        assert!(eval(&Expr::Column(5), &row).is_err());
        assert!(eval(&Expr::ColumnRef("x".into()), &row).is_err());
    }
}
