//! Optimizer correctness: randomly generated queries must produce exactly
//! the same multiset of rows through the binder and the optimizer as
//! through a typed reference evaluator of this file's own (cross join,
//! filter, project; no indexes, no join reordering, no pushdown, and none
//! of the engine's comparison or evaluation code).
//!
//! `ta` has a column of each of the five types, each indexed, and every
//! generated comparison pairs one of them with a literal of any type (or
//! with another column). The reference coerces the literal to the column's
//! type by the binder's rule and compares typed values itself, or expects
//! the query to be refused with a type mismatch. `tb` has a composite key beside a single-column
//! index on its first key column, so the access paths that build index
//! keys from literals are all exercised.

use proptest::prelude::*;
use std::cmp::Ordering;
use wow_rel::db::Database;
use wow_rel::expr::{glob_match, BinOp, Expr, UnOp};
use wow_rel::plan::{build_query_block, optimize};
use wow_rel::quel::ast::{RetrieveStmt, SortKey, Target};
use wow_rel::tuple::Tuple;
use wow_rel::types::{parse_date, DataType};
use wow_rel::value::Value;
use wow_rel::RelError;

/// One `ta` row: `(x, tag, g, day, ok)`; `id` is its position.
type RowA = (i64, &'static str, f64, i32, bool);

/// Day 0 of the generated dates: 1983-05-20.
fn date(offset: i32) -> Value {
    Value::Date(parse_date("1983-05-20").unwrap() + offset)
}

/// Build a small, fully indexed world with deterministic data.
fn world(rows_a: &[RowA], rows_b: &[(i64, i64)]) -> Database {
    let mut db = Database::in_memory();
    db.run(
        "CREATE TABLE ta (id INT KEY, x INT, tag TEXT, g FLOAT, day DATE, ok BOOL)
         CREATE TABLE tb (id INT KEY, x INT KEY)
         CREATE INDEX ta_x ON ta (x)
         CREATE INDEX ta_tag ON ta (tag)
         CREATE INDEX ta_g ON ta (g)
         CREATE INDEX ta_day ON ta (day)
         CREATE INDEX ta_ok ON ta (ok)
         CREATE INDEX tb_x ON tb (x) USING HASH
         CREATE INDEX tb_id ON tb (id)
         RANGE OF a IS ta
         RANGE OF b IS tb",
    )
    .unwrap();
    for (id, (x, tag, g, day, ok)) in rows_a.iter().enumerate() {
        db.insert(
            "ta",
            vec![
                Value::Int(id as i64),
                Value::Int(*x),
                Value::text(*tag),
                Value::Float(*g),
                date(*day),
                Value::Bool(*ok),
            ],
        )
        .unwrap();
    }
    for (id, x) in rows_b {
        db.insert("tb", vec![Value::Int(*id), Value::Int(*x)])
            .unwrap();
    }
    db
}

/// A typed column of `ta`.
#[derive(Debug, Clone, Copy)]
enum ACol {
    X,
    Tag,
    G,
    Day,
    Ok,
}

impl ACol {
    fn name(self) -> &'static str {
        match self {
            ACol::X => "a.x",
            ACol::Tag => "a.tag",
            ACol::G => "a.g",
            ACol::Day => "a.day",
            ACol::Ok => "a.ok",
        }
    }

    fn ty(self) -> DataType {
        match self {
            ACol::X => DataType::Int,
            ACol::Tag => DataType::Text,
            ACol::G => DataType::Float,
            ACol::Day => DataType::Date,
            ACol::Ok => DataType::Bool,
        }
    }

    fn value(self, row: &RowA) -> Value {
        match self {
            ACol::X => Value::Int(row.0),
            ACol::Tag => Value::text(row.1),
            ACol::G => Value::Float(row.2),
            ACol::Day => date(row.3),
            ACol::Ok => Value::Bool(row.4),
        }
    }
}

/// The binder's coercion rule, restated: the literal as a value of the
/// column's type, a float with a fraction kept as a float against an `INT`
/// column, or `None` when the pair is refused.
fn coerce(lit: &Value, ty: DataType) -> Option<Value> {
    Some(match (lit, ty) {
        (Value::Int(i), DataType::Float) => Value::Float(*i as f64),
        (Value::Float(f), DataType::Int) if f.fract() == 0.0 => Value::Int(*f as i64),
        (Value::Float(f), DataType::Int) => Value::Float(*f),
        (Value::Text(s), DataType::Date) => Value::Date(parse_date(s)?),
        (v, ty) if v.data_type() == Some(ty) => v.clone(),
        _ => return None,
    })
}

/// Order two values of one type, or two numbers; `None` for NULL.
fn order(a: &Value, b: &Value) -> Option<Ordering> {
    Some(match (a, b) {
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::Text(x), Value::Text(y)) => x.cmp(y),
        (Value::Date(x), Value::Date(y)) => x.cmp(y),
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        (Value::Null, _) | (_, Value::Null) => return None,
        (x, y) => {
            let num = |v: &Value| match v {
                Value::Int(i) => *i as f64,
                Value::Float(f) => *f,
                other => panic!("reference compared {other:?} as a number"),
            };
            num(x).partial_cmp(&num(y)).unwrap()
        }
    })
}

fn holds(op: BinOp, ord: Option<Ordering>) -> bool {
    let Some(ord) = ord else { return false };
    match op {
        BinOp::Eq => ord == Ordering::Equal,
        BinOp::Ne => ord != Ordering::Equal,
        BinOp::Lt => ord == Ordering::Less,
        BinOp::Le => ord != Ordering::Greater,
        BinOp::Gt => ord == Ordering::Greater,
        BinOp::Ge => ord != Ordering::Less,
        other => panic!("not a comparison: {other:?}"),
    }
}

/// One conjunct over the generated schema.
#[derive(Debug, Clone)]
enum Conj {
    /// `a.col op literal`, the literal of any type.
    ACmp(ACol, BinOp, Value),
    /// The same with the literal written first.
    ACmpFlipped(ACol, BinOp, Value),
    /// `a.col op a.col`, the two columns of any types.
    AColCol(ACol, BinOp, ACol),
    ATagLike(String),
    BXCmp(BinOp, i64),
    BIdCmp(BinOp, Value),
    /// Two bounds on one column with one literal of its type, `a.col op1
    /// v AND a.col op2 v`: an inclusive and an exclusive bound on the
    /// same side, in either order.
    ABoundPair(ACol, BinOp, BinOp, Value),
    JoinAxBx,
    JoinAidBid,
    AXIsNullTest(bool),
}

impl Conj {
    fn to_expr(&self) -> Expr {
        let col = |n: &str| Box::new(Expr::ColumnRef(n.to_string()));
        let lit = |v: &Value| Box::new(Expr::Literal(v.clone()));
        let cmp = |op, left, right| Expr::Binary { op, left, right };
        match self {
            Conj::ACmp(c, op, v) => cmp(*op, col(c.name()), lit(v)),
            Conj::ACmpFlipped(c, op, v) => cmp(op.flipped(), lit(v), col(c.name())),
            Conj::AColCol(l, op, r) => cmp(*op, col(l.name()), col(r.name())),
            Conj::ATagLike(p) => Expr::Like {
                expr: col("a.tag"),
                pattern: p.clone(),
            },
            Conj::BXCmp(op, v) => cmp(*op, col("b.x"), lit(&Value::Int(*v))),
            Conj::BIdCmp(op, v) => cmp(*op, col("b.id"), lit(v)),
            Conj::ABoundPair(c, op1, op2, v) => Expr::and(
                cmp(*op1, col(c.name()), lit(v)),
                cmp(*op2, col(c.name()), lit(v)),
            ),
            Conj::JoinAxBx => cmp(BinOp::Eq, col("a.x"), col("b.x")),
            Conj::JoinAidBid => cmp(BinOp::Eq, col("a.id"), col("b.id")),
            Conj::AXIsNullTest(negated) => {
                let test = Expr::IsNull(col("a.x"));
                if *negated {
                    Expr::Unary {
                        op: UnOp::Not,
                        expr: Box::new(test),
                    }
                } else {
                    test
                }
            }
        }
    }

    fn uses_b(&self) -> bool {
        matches!(
            self,
            Conj::BXCmp(..) | Conj::BIdCmp(..) | Conj::JoinAxBx | Conj::JoinAidBid
        )
    }

    /// The literal as the binder must type it, or `None` when the
    /// conjunct must be refused.
    fn bound_literal(&self) -> Option<Option<Value>> {
        match self {
            Conj::ACmp(c, _, v) | Conj::ACmpFlipped(c, _, v) | Conj::ABoundPair(c, _, _, v) => {
                Some(coerce(v, c.ty()))
            }
            Conj::BIdCmp(_, v) => Some(coerce(v, DataType::Int)),
            _ => None,
        }
    }

    /// Whether the binder must refuse the conjunct: a literal that does not
    /// fit its column, or two columns of incomparable types.
    fn refused(&self) -> bool {
        match self {
            Conj::AColCol(l, _, r) => {
                let numeric = |c: &ACol| matches!(c.ty(), DataType::Int | DataType::Float);
                l.ty() != r.ty() && !(numeric(l) && numeric(r))
            }
            other => other.bound_literal() == Some(None),
        }
    }

    /// Whether the conjunct is true of the joined row `(a, b)`.
    fn holds(&self, a: (usize, &RowA), b: Option<(usize, i64)>) -> bool {
        let (id, row) = a;
        let b = || b.expect("conjunct over b needs a b row");
        let lit = || self.bound_literal().unwrap().unwrap();
        match self {
            Conj::ACmp(c, op, _) | Conj::ACmpFlipped(c, op, _) => {
                holds(*op, order(&c.value(row), &lit()))
            }
            Conj::ABoundPair(c, op1, op2, _) => {
                let ord = order(&c.value(row), &lit());
                holds(*op1, ord) && holds(*op2, ord)
            }
            Conj::AColCol(l, op, r) => holds(*op, order(&l.value(row), &r.value(row))),
            Conj::ATagLike(p) => glob_match(p, row.1),
            Conj::BXCmp(op, v) => holds(*op, order(&Value::Int(b().1), &Value::Int(*v))),
            Conj::BIdCmp(op, _) => holds(*op, order(&Value::Int(b().0 as i64), &lit())),
            Conj::JoinAxBx => row.0 == b().1,
            Conj::JoinAidBid => id == b().0,
            // `x` is never NULL in the generated data.
            Conj::AXIsNullTest(negated) => *negated,
        }
    }
}

/// The typed reference: every `(a, b)` pair the conjuncts hold for,
/// projected to `a.id, a.x, a.tag, a.g, a.day, a.ok` and `b.x` when `b`
/// is in play.
fn reference(conjs: &[Conj], rows_a: &[RowA], rows_b: &[(i64, i64)], uses_b: bool) -> Vec<String> {
    let bs: Vec<Option<(usize, i64)>> = if uses_b {
        rows_b
            .iter()
            .map(|&(id, x)| Some((id as usize, x)))
            .collect()
    } else {
        vec![None]
    };
    let mut out = Vec::new();
    for (id, row) in rows_a.iter().enumerate() {
        for &b in &bs {
            if !conjs.iter().all(|c| c.holds((id, row), b)) {
                continue;
            }
            let mut vals = vec![Value::Int(id as i64)];
            for col in [ACol::X, ACol::Tag, ACol::G, ACol::Day, ACol::Ok] {
                vals.push(col.value(row));
            }
            if let Some((_, x)) = b {
                vals.push(Value::Int(x));
            }
            out.push(Tuple::new(vals));
        }
    }
    canon(out)
}

fn canon(rows: Vec<Tuple>) -> Vec<String> {
    let mut out: Vec<String> = rows.into_iter().map(|t| t.to_string()).collect();
    out.sort();
    out
}

/// A literal of type `ty`, picked by `seed` (non-negative).
fn literal(ty: DataType, seed: i64) -> Value {
    match ty {
        DataType::Int => Value::Int(seed % 10 - 2),
        // Integral or halfway between two integers.
        DataType::Float => Value::Float((seed % 20 - 4) as f64 / 2.0),
        DataType::Text => {
            let words = ["red", "blue", "green", "1983-05-22", "1983-05-2x"];
            Value::text(words[seed as usize % words.len()])
        }
        DataType::Bool => Value::Bool(seed % 2 == 0),
        DataType::Date => date((seed % 9) as i32 - 1),
    }
}

const TYPES: [DataType; 5] = [
    DataType::Int,
    DataType::Float,
    DataType::Text,
    DataType::Bool,
    DataType::Date,
];

fn cmp_op() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Eq),
        Just(BinOp::Ne),
        Just(BinOp::Lt),
        Just(BinOp::Le),
        Just(BinOp::Gt),
        Just(BinOp::Ge),
    ]
}

/// An inclusive and an exclusive bound on the same side, in either order.
fn bound_pair() -> impl Strategy<Value = (BinOp, BinOp)> {
    prop_oneof![
        Just((BinOp::Ge, BinOp::Gt)),
        Just((BinOp::Gt, BinOp::Ge)),
        Just((BinOp::Le, BinOp::Lt)),
        Just((BinOp::Lt, BinOp::Le)),
    ]
}

fn a_col() -> impl Strategy<Value = ACol> {
    prop_oneof![
        Just(ACol::X),
        Just(ACol::Tag),
        Just(ACol::G),
        Just(ACol::Day),
        Just(ACol::Ok),
    ]
}

/// `a.col op literal`: the literal usually fits the column (its own type,
/// the other numeric type, or date text against a date), and is of any of
/// the five types otherwise.
fn a_cmp() -> impl Strategy<Value = (ACol, BinOp, Value)> {
    (a_col(), cmp_op(), (0..4u8, 0..5usize), 0..360i64).prop_map(|(c, op, (pick, other), seed)| {
        let ty = match (pick, c.ty()) {
            (0, _) => TYPES[other],
            (1, DataType::Int) => DataType::Float,
            (1, DataType::Float) => DataType::Int,
            (1, DataType::Date) => DataType::Text,
            (_, ty) => ty,
        };
        (c, op, literal(ty, seed))
    })
}

fn conj_strategy() -> impl Strategy<Value = Conj> {
    let numeric = (any::<bool>(), 0..20i64)
        .prop_map(|(int, seed)| literal(if int { DataType::Int } else { DataType::Float }, seed));
    prop_oneof![
        6 => a_cmp().prop_map(|(c, op, v)| Conj::ACmp(c, op, v)),
        2 => a_cmp().prop_map(|(c, op, v)| Conj::ACmpFlipped(c, op, v)),
        1 => (a_col(), cmp_op(), a_col()).prop_map(|(l, op, r)| Conj::AColCol(l, op, r)),
        2 => (a_col(), bound_pair(), 0..360i64)
            .prop_map(|(c, (op1, op2), seed)| Conj::ABoundPair(c, op1, op2, literal(c.ty(), seed))),
        1 => prop_oneof![Just("r*"), Just("*e"), Just("b?ue"), Just("*")]
            .prop_map(|p| Conj::ATagLike(p.to_string())),
        1 => (cmp_op(), -2i64..8).prop_map(|(op, v)| Conj::BXCmp(op, v)),
        2 => (cmp_op(), numeric).prop_map(|(op, v)| Conj::BIdCmp(op, v)),
        1 => Just(Conj::JoinAxBx),
        1 => Just(Conj::JoinAidBid),
        1 => any::<bool>().prop_map(Conj::AXIsNullTest),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]
    #[test]
    fn optimized_plans_match_brute_force(
        conjs in proptest::collection::vec(conj_strategy(), 0..4),
        rows_a in proptest::collection::vec(
            (
                (-2i64..8),
                prop_oneof![Just("red"), Just("blue"), Just("green")],
                (-4i64..16),
                ((0i32..6), any::<bool>()),
            ),
            0..12,
        ),
        rows_b in proptest::collection::vec(-2i64..8, 0..10),
        project_b in any::<bool>(),
    ) {
        let rows_a: Vec<RowA> = rows_a
            .iter()
            .map(|&(x, tag, h, (day, ok))| (x, tag, h as f64 / 2.0, day, ok))
            .collect();
        let rows_b: Vec<(i64, i64)> = rows_b
            .iter()
            .enumerate()
            .map(|(i, x)| (i as i64, *x))
            .collect();
        let mut db = world(&rows_a, &rows_b);

        // Build the statement.
        let uses_b = project_b || conjs.iter().any(Conj::uses_b);
        let mut targets: Vec<Target> = ["a.id", "a.x", "a.tag", "a.g", "a.day", "a.ok"]
            .iter()
            .map(|n| Target::Expr { name: None, expr: Expr::ColumnRef(n.to_string()) })
            .collect();
        if uses_b {
            targets.push(Target::Expr { name: None, expr: Expr::ColumnRef("b.x".into()) });
        }
        let where_ = if conjs.is_empty() {
            None
        } else {
            Some(Expr::conjunction(conjs.iter().map(Conj::to_expr).collect()))
        };
        let stmt = RetrieveStmt {
            unique: false,
            targets,
            where_,
            group_by: vec![],
            sort_by: vec![SortKey { column: "a.id".into(), ascending: true }],
            limit: None,
        };

        // The binder and the optimizer's answer.
        let block = build_query_block(&db, &stmt).unwrap();
        let refused = conjs.iter().any(Conj::refused);
        match optimize(&db, &block) {
            Err(RelError::TypeMismatch { .. }) if refused => {}
            Err(e) => prop_assert!(false, "unexpected error: {e}"),
            Ok(plan) => {
                prop_assert!(!refused, "a mistyped literal was not refused:\n{}", plan.explain());
                let got = wow_rel::exec::execute(&mut db, &plan).unwrap();
                let expect = reference(&conjs, &rows_a, &rows_b, uses_b);
                prop_assert_eq!(canon(got.tuples), expect, "plan:\n{}", plan.explain());
            }
        }
    }
}
