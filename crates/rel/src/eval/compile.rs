//! One-time compilation of resolved expressions into flat programs
//! evaluated over column batches with selection vectors.
//!
//! The row interpreter in [`super`] walks the `Expr` tree once per row,
//! cloning a [`Value`] for every column and literal it touches. For a scan
//! that is the dominant cost once pages are cached. This module compiles a
//! resolved expression **once per query** into a [`Program`]: a flat,
//! post-order array of instructions whose operands name table columns,
//! interned constants, or the registers of earlier instructions. Evaluation
//! then runs each instruction as a tight kernel loop over the rows named by
//! a **selection vector** — values are read by reference (no per-row
//! allocation), and results land in preallocated per-instruction registers
//! that are reused from batch to batch.
//!
//! Short-circuiting is vectorized, not abandoned: an `AND` evaluates its
//! right subtree only over the rows where the left side was not already
//! false (the selection vector *narrows*), and an `OR` only where the left
//! side was not already true. This preserves the interpreter's semantics
//! exactly — including which rows can surface evaluation errors — while
//! turning `a AND b AND c` into a pipeline of ever-narrower kernel passes.
//!
//! Kleene three-valued logic, checked arithmetic, negation and `LIKE`
//! all delegate to the same kernels as the row interpreter (`compare_op`,
//! `arithmetic`, `negate`, `like`, `truth` in the parent module), so the
//! two evaluators cannot drift apart.

use super::{arithmetic, compare_op, like, negate, truth};
use crate::error::{RelError, RelResult};
use crate::expr::{BinOp, Expr, UnOp};
use crate::value::Value;

/// A column-oriented batch of rows flowing between vectorized operators.
///
/// `cols[c]` holds column `c` for all `len` rows; `sel` names the rows that
/// are live, in ascending order. Operators narrow `sel` rather than moving
/// rows. A column vector may be left empty when no program in the pipeline
/// reads it (late materialization), and a materialized column is only
/// guaranteed meaningful at the rows in `sel` at the time it was filled.
#[derive(Debug, Default)]
pub struct Batch {
    /// Column-major values, indexed `cols[column][row]`.
    pub cols: Vec<Vec<Value>>,
    /// Number of rows in the batch.
    pub len: usize,
    /// Live row indexes, ascending.
    pub sel: Vec<u32>,
}

impl Batch {
    /// The identity selection `0..n`.
    pub fn identity_sel(n: usize) -> Vec<u32> {
        (0..n as u32).collect()
    }
}

/// Where an instruction operand's per-row value comes from.
#[derive(Debug, Clone, Copy)]
enum Operand {
    /// A batch column.
    Col(u32),
    /// An interned literal (one shared value, never cloned per row).
    Const(u32),
    /// The register of an earlier instruction.
    Reg(u32),
}

/// The kernel an instruction runs. Comparison and arithmetic reuse the
/// row interpreter's scalar kernels over borrowed values.
#[derive(Debug, Clone)]
enum Kernel {
    /// A comparison ([`compare_op`]).
    Cmp(BinOp),
    /// Checked arithmetic ([`arithmetic`]).
    Arith(BinOp),
    /// Kleene AND; the right subtree runs over a narrowed selection.
    And,
    /// Kleene OR; the right subtree runs over a narrowed selection.
    Or,
    /// Kleene NOT.
    Not,
    /// Checked numeric negation.
    Neg,
    /// Glob match against a fixed pattern.
    Like(String),
    /// NULL test (never NULL itself).
    IsNull,
}

/// One instruction: a kernel over one or two operands, writing the register
/// that shares its index. Unary kernels ignore `rhs`.
#[derive(Debug, Clone)]
struct Instr {
    kernel: Kernel,
    lhs: Operand,
    rhs: Operand,
}

/// A compiled expression: flat post-order instructions plus the interned
/// constants they reference. Build once per query with [`compile`], then
/// evaluate per batch with [`Program::eval`] or [`Program::filter`].
#[derive(Debug, Clone)]
pub struct Program {
    instrs: Vec<Instr>,
    consts: Vec<Value>,
    /// Where the expression's result lives after evaluation.
    root: Operand,
    /// Every table column the program reads, sorted ascending.
    cols: Vec<usize>,
}

/// Reusable per-operator evaluation state: one value register per
/// instruction (resized to the batch length on demand, reused across
/// batches) and a pool of scratch selection vectors for narrowed subtrees.
#[derive(Debug, Default)]
pub struct Scratch {
    regs: Vec<Vec<Value>>,
    sel_pool: Vec<Vec<u32>>,
}

/// Compile a resolved expression. Fails with the interpreter's
/// [`RelError::NoSuchColumn`] when the expression is not resolved (an
/// [`Expr::ColumnRef`], which the planner never emits) — at build time,
/// before any row is read.
pub fn compile(expr: &Expr) -> RelResult<Program> {
    let mut p = Program {
        instrs: Vec::new(),
        consts: Vec::new(),
        root: Operand::Const(0),
        cols: Vec::new(),
    };
    p.root = p.compile_expr(expr)?;
    if let Operand::Col(c) = p.root {
        p.note_col(c);
    }
    p.cols.sort_unstable();
    p.cols.dedup();
    Ok(p)
}

impl Program {
    fn note_col(&mut self, c: u32) {
        self.cols.push(c as usize);
    }

    fn push(&mut self, kernel: Kernel, lhs: Operand, rhs: Operand) -> Operand {
        for op in [lhs, rhs] {
            if let Operand::Col(c) = op {
                self.note_col(c);
            }
        }
        self.instrs.push(Instr { kernel, lhs, rhs });
        Operand::Reg((self.instrs.len() - 1) as u32)
    }

    fn compile_expr(&mut self, e: &Expr) -> RelResult<Operand> {
        Ok(match e {
            Expr::Column(i) => Operand::Col(
                u32::try_from(*i).map_err(|_| RelError::NoSuchColumn(format!("#{i}")))?,
            ),
            Expr::ColumnRef(n) => {
                return Err(RelError::NoSuchColumn(format!("unresolved: {n}")));
            }
            Expr::Literal(v) => {
                self.consts.push(v.clone());
                Operand::Const((self.consts.len() - 1) as u32)
            }
            Expr::Binary { op, left, right } => {
                let l = self.compile_expr(left)?;
                let r = self.compile_expr(right)?;
                let kernel = match op {
                    BinOp::And => Kernel::And,
                    BinOp::Or => Kernel::Or,
                    op if op.is_comparison() => Kernel::Cmp(*op),
                    op => Kernel::Arith(*op),
                };
                self.push(kernel, l, r)
            }
            Expr::Unary { op, expr } => {
                let s = self.compile_expr(expr)?;
                let kernel = match op {
                    UnOp::Not => Kernel::Not,
                    UnOp::Neg => Kernel::Neg,
                };
                self.push(kernel, s, s)
            }
            Expr::Like { expr, pattern } => {
                let s = self.compile_expr(expr)?;
                self.push(Kernel::Like(pattern.clone()), s, s)
            }
            Expr::IsNull(e) => {
                let s = self.compile_expr(e)?;
                self.push(Kernel::IsNull, s, s)
            }
        })
    }

    /// Every table column the program reads, sorted ascending. The scan
    /// uses this to decode only what a query touches.
    pub fn columns(&self) -> &[usize] {
        &self.cols
    }

    /// Evaluate over the rows in `batch.sel`. Results are readable via
    /// [`Program::result`] / [`Program::take_result`] until the scratch is
    /// reused.
    pub fn eval(&self, batch: &Batch, scratch: &mut Scratch) -> RelResult<()> {
        self.eval_cols(&batch.cols, batch.len, &batch.sel, scratch)
    }

    /// Evaluate as a predicate over `batch.sel` and narrow the selection to
    /// the rows where the result is `true` (NULL counts as not-satisfied,
    /// matching [`super::eval_pred`]).
    pub fn filter(&self, batch: &mut Batch, scratch: &mut Scratch) -> RelResult<()> {
        self.eval_cols(&batch.cols, batch.len, &batch.sel, scratch)?;
        let Batch { cols, sel, .. } = batch;
        sel.retain(|&r| truth(self.read(self.root, cols, &scratch.regs, r as usize)) == Some(true));
        Ok(())
    }

    /// The result for `row` after [`Program::eval`], by reference.
    pub fn result<'v>(&'v self, batch: &'v Batch, scratch: &'v Scratch, row: usize) -> &'v Value {
        self.read(self.root, &batch.cols, &scratch.regs, row)
    }

    /// Move the result for `row` out (registers give their value up;
    /// columns and constants are cloned). Used to gather projection output.
    pub fn take_result(&self, batch: &Batch, scratch: &mut Scratch, row: usize) -> Value {
        match self.root {
            Operand::Reg(r) => std::mem::replace(&mut scratch.regs[r as usize][row], Value::Null),
            Operand::Col(c) => batch.cols[c as usize][row].clone(),
            Operand::Const(k) => self.consts[k as usize].clone(),
        }
    }

    fn eval_cols(
        &self,
        cols: &[Vec<Value>],
        n: usize,
        sel: &[u32],
        scratch: &mut Scratch,
    ) -> RelResult<()> {
        if scratch.regs.len() < self.instrs.len() {
            scratch.regs.resize_with(self.instrs.len(), Vec::new);
        }
        if let Operand::Reg(r) = self.root {
            self.eval_instr(r as usize, cols, n, sel, scratch)?;
        }
        Ok(())
    }

    /// Resolve an operand to its value for `row`. Registers must already
    /// have been evaluated for `row`'s selection.
    fn read<'v>(
        &'v self,
        op: Operand,
        cols: &'v [Vec<Value>],
        regs: &'v [Vec<Value>],
        row: usize,
    ) -> &'v Value {
        match op {
            Operand::Col(c) => &cols[c as usize][row],
            Operand::Const(k) => &self.consts[k as usize],
            Operand::Reg(r) => &regs[r as usize][row],
        }
    }

    /// Evaluate an operand's subtree (a no-op for columns and constants).
    fn prep(
        &self,
        op: Operand,
        cols: &[Vec<Value>],
        n: usize,
        sel: &[u32],
        scratch: &mut Scratch,
    ) -> RelResult<()> {
        match op {
            Operand::Reg(r) => self.eval_instr(r as usize, cols, n, sel, scratch),
            _ => Ok(()),
        }
    }

    /// Run instruction `idx` over `sel`, filling its register at those rows.
    fn eval_instr(
        &self,
        idx: usize,
        cols: &[Vec<Value>],
        n: usize,
        sel: &[u32],
        scratch: &mut Scratch,
    ) -> RelResult<()> {
        let instr = &self.instrs[idx];
        // Logic kernels drive their right subtree over a narrowed selection
        // — the vectorized form of short-circuiting.
        if let Kernel::And | Kernel::Or = instr.kernel {
            let skip = match instr.kernel {
                Kernel::And => Some(false),
                _ => Some(true),
            };
            self.prep(instr.lhs, cols, n, sel, scratch)?;
            let mut rhs_sel = scratch.sel_pool.pop().unwrap_or_default();
            rhs_sel.clear();
            for &r in sel {
                if truth(self.read(instr.lhs, cols, &scratch.regs, r as usize)) != skip {
                    rhs_sel.push(r);
                }
            }
            let res = self.prep(instr.rhs, cols, n, &rhs_sel, scratch);
            scratch.sel_pool.push(rhs_sel);
            res?;
            let mut out = std::mem::take(&mut scratch.regs[idx]);
            if out.len() < n {
                out.resize(n, Value::Null);
            }
            let is_and = matches!(instr.kernel, Kernel::And);
            for &r in sel {
                let i = r as usize;
                let lt = truth(self.read(instr.lhs, cols, &scratch.regs, i));
                out[i] = if lt == skip {
                    Value::Bool(!is_and)
                } else {
                    // The right register was filled for exactly these rows.
                    let rt = truth(self.read(instr.rhs, cols, &scratch.regs, i));
                    match (is_and, lt, rt) {
                        (true, _, Some(false)) => Value::Bool(false),
                        (true, Some(true), Some(true)) => Value::Bool(true),
                        (false, _, Some(true)) => Value::Bool(true),
                        (false, Some(false), Some(false)) => Value::Bool(false),
                        _ => Value::Null,
                    }
                };
            }
            scratch.regs[idx] = out;
            return Ok(());
        }

        self.prep(instr.lhs, cols, n, sel, scratch)?;
        if matches!(instr.kernel, Kernel::Cmp(_) | Kernel::Arith(_)) {
            self.prep(instr.rhs, cols, n, sel, scratch)?;
        }
        let mut out = std::mem::take(&mut scratch.regs[idx]);
        if out.len() < n {
            out.resize(n, Value::Null);
        }
        let regs = &scratch.regs;
        for &r in sel {
            let i = r as usize;
            let l = self.read(instr.lhs, cols, regs, i);
            out[i] = match &instr.kernel {
                Kernel::Cmp(op) => compare_op(*op, l, self.read(instr.rhs, cols, regs, i)),
                Kernel::Arith(op) => arithmetic(*op, l, self.read(instr.rhs, cols, regs, i))?,
                Kernel::Not => match truth(l) {
                    None => Value::Null,
                    Some(b) => Value::Bool(!b),
                },
                Kernel::Neg => negate(l)?,
                Kernel::Like(pattern) => like(pattern, l),
                Kernel::IsNull => Value::Bool(l.is_null()),
                Kernel::And | Kernel::Or => unreachable!("handled above"),
            };
        }
        scratch.regs[idx] = out;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::{eval, eval_pred};
    use super::*;
    use crate::tuple::Tuple;

    fn lit(v: Value) -> Expr {
        Expr::Literal(v)
    }

    fn col(i: usize) -> Expr {
        Expr::Column(i)
    }

    fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    /// Column-major batch from row-major literals, all rows selected.
    fn batch(rows: &[Vec<Value>]) -> Batch {
        let ncols = rows.first().map_or(0, Vec::len);
        let mut cols = vec![Vec::with_capacity(rows.len()); ncols];
        for row in rows {
            for (c, v) in row.iter().enumerate() {
                cols[c].push(v.clone());
            }
        }
        Batch {
            cols,
            len: rows.len(),
            sel: Batch::identity_sel(rows.len()),
        }
    }

    /// The cross-check at the heart of the design: for every row, the
    /// program's result must equal the row interpreter's.
    fn assert_matches_interpreter(expr: &Expr, rows: &[Vec<Value>]) {
        let b = batch(rows);
        let prog = compile(expr).expect("compilable");
        let mut scratch = Scratch::default();
        prog.eval(&b, &mut scratch).expect("vectorized eval");
        for (i, row) in rows.iter().enumerate() {
            let want = eval(expr, &Tuple::new(row.clone())).expect("row eval");
            assert_eq!(
                prog.result(&b, &scratch, i),
                &want,
                "row {i} diverged for {expr:?}"
            );
        }
    }

    #[test]
    fn comparisons_arithmetic_and_nulls_match_interpreter() {
        let rows: Vec<Vec<Value>> = vec![
            vec![Value::Int(1), Value::text("anderson"), Value::Float(1.5)],
            vec![Value::Int(-3), Value::text("kim"), Value::Float(-0.5)],
            vec![Value::Null, Value::Null, Value::Null],
            vec![Value::Int(7), Value::text(""), Value::Float(7.0)],
        ];
        let exprs = [
            bin(BinOp::Lt, col(0), lit(Value::Int(2))),
            bin(BinOp::Eq, col(0), col(2)),
            bin(BinOp::Ge, col(1), lit(Value::text("b"))),
            bin(BinOp::Add, col(0), lit(Value::Int(10))),
            bin(BinOp::Mul, col(2), col(0)),
            Expr::Unary {
                op: UnOp::Neg,
                expr: Box::new(col(0)),
            },
            Expr::Unary {
                op: UnOp::Not,
                expr: Box::new(bin(BinOp::Gt, col(0), lit(Value::Int(0)))),
            },
            Expr::Like {
                expr: Box::new(col(1)),
                pattern: "*son".into(),
            },
            Expr::IsNull(Box::new(col(1))),
            bin(
                BinOp::And,
                bin(BinOp::Gt, col(0), lit(Value::Int(0))),
                bin(BinOp::Lt, col(2), lit(Value::Float(2.0))),
            ),
            bin(
                BinOp::Or,
                Expr::IsNull(Box::new(col(0))),
                bin(BinOp::Ne, col(0), lit(Value::Int(7))),
            ),
        ];
        for e in &exprs {
            assert_matches_interpreter(e, &rows);
        }
    }

    #[test]
    fn kleene_truth_table_matches_interpreter() {
        let operands = [Value::Null, Value::Bool(true), Value::Bool(false)];
        let row = vec![vec![Value::Int(0)]];
        for op in [BinOp::And, BinOp::Or] {
            for l in &operands {
                for r in &operands {
                    let e = bin(op, lit(l.clone()), lit(r.clone()));
                    assert_matches_interpreter(&e, &row);
                }
            }
        }
    }

    #[test]
    fn filter_narrows_to_true_rows_only() {
        // x > 0 — NULL is not-satisfied, like eval_pred.
        let rows = vec![
            vec![Value::Int(5)],
            vec![Value::Null],
            vec![Value::Int(-2)],
            vec![Value::Int(1)],
        ];
        let e = bin(BinOp::Gt, col(0), lit(Value::Int(0)));
        let mut b = batch(&rows);
        let prog = compile(&e).unwrap();
        prog.filter(&mut b, &mut Scratch::default()).unwrap();
        assert_eq!(b.sel, vec![0, 3]);
        for (i, row) in rows.iter().enumerate() {
            let want = eval_pred(&e, &Tuple::new(row.clone())).unwrap();
            assert_eq!(b.sel.contains(&(i as u32)), want);
        }
    }

    #[test]
    fn and_narrowing_skips_rhs_errors() {
        // x <> 0 AND 10 / x > 1: the division never runs where x = 0.
        let rows = vec![
            vec![Value::Int(5)],
            vec![Value::Int(0)],
            vec![Value::Int(20)],
        ];
        let e = bin(
            BinOp::And,
            bin(BinOp::Ne, col(0), lit(Value::Int(0))),
            bin(
                BinOp::Gt,
                bin(BinOp::Div, lit(Value::Int(10)), col(0)),
                lit(Value::Int(1)),
            ),
        );
        let mut b = batch(&rows);
        let prog = compile(&e).unwrap();
        prog.filter(&mut b, &mut Scratch::default()).unwrap();
        assert_eq!(b.sel, vec![0]);

        // true OR (1/0) never runs the division either.
        let e = bin(
            BinOp::Or,
            lit(Value::Bool(true)),
            bin(BinOp::Div, lit(Value::Int(1)), lit(Value::Int(0))),
        );
        assert_matches_interpreter(&e, &rows);
    }

    #[test]
    fn errors_surface_like_the_interpreter() {
        let rows = vec![vec![Value::Int(1)], vec![Value::Int(0)]];
        // Unguarded division by a zero column errors in both evaluators.
        let e = bin(BinOp::Div, lit(Value::Int(1)), col(0));
        let b = batch(&rows);
        let prog = compile(&e).unwrap();
        let err = prog.eval(&b, &mut Scratch::default());
        assert!(matches!(err, Err(RelError::Arithmetic(_))));
    }

    #[test]
    fn unresolved_column_refs_do_not_compile() {
        assert!(matches!(
            compile(&Expr::ColumnRef("x".into())),
            Err(RelError::NoSuchColumn(_))
        ));
        let e = bin(BinOp::Eq, Expr::ColumnRef("x".into()), lit(Value::Int(1)));
        assert!(compile(&e).is_err());
    }

    #[test]
    fn columns_lists_referenced_columns_sorted() {
        let e = bin(
            BinOp::And,
            bin(BinOp::Eq, col(3), col(1)),
            bin(BinOp::Gt, col(1), lit(Value::Int(0))),
        );
        assert_eq!(compile(&e).unwrap().columns(), &[1, 3]);
        assert_eq!(compile(&col(2)).unwrap().columns(), &[2]);
        assert!(compile(&lit(Value::Int(1))).unwrap().columns().is_empty());
    }

    #[test]
    fn take_result_gathers_projection_output() {
        let rows = vec![
            vec![Value::Int(1), Value::text("a")],
            vec![Value::Int(2), Value::text("b")],
        ];
        let b = batch(&rows);
        let mut scratch = Scratch::default();
        // Computed expression root (register).
        let prog = compile(&bin(BinOp::Add, col(0), lit(Value::Int(10)))).unwrap();
        prog.eval(&b, &mut scratch).unwrap();
        assert_eq!(prog.take_result(&b, &mut scratch, 1), Value::Int(12));
        // Bare column root and bare literal root.
        let prog = compile(&col(1)).unwrap();
        prog.eval(&b, &mut scratch).unwrap();
        assert_eq!(prog.take_result(&b, &mut scratch, 0), Value::text("a"));
        let prog = compile(&lit(Value::Int(9))).unwrap();
        prog.eval(&b, &mut scratch).unwrap();
        assert_eq!(prog.take_result(&b, &mut scratch, 1), Value::Int(9));
    }

    #[test]
    fn registers_are_reused_across_batches() {
        let e = bin(BinOp::Gt, col(0), lit(Value::Int(0)));
        let prog = compile(&e).unwrap();
        let mut scratch = Scratch::default();
        let mut b = batch(&[vec![Value::Int(1)], vec![Value::Int(-1)]]);
        prog.filter(&mut b, &mut scratch).unwrap();
        assert_eq!(b.sel, vec![0]);
        // Second, larger batch through the same scratch.
        let mut b = batch(&[
            vec![Value::Int(-1)],
            vec![Value::Int(2)],
            vec![Value::Int(3)],
        ]);
        prog.filter(&mut b, &mut scratch).unwrap();
        assert_eq!(b.sel, vec![1, 2]);
    }
}
