//! Recursive-descent parser for the QUEL dialect.

use super::ast::{ColumnDef, RetrieveStmt, SortKey, Statement, Target};
use super::lexer::{tokenize, Token, TokenKind};
use crate::error::{RelError, RelResult};
use crate::exec::AggFunc;
use crate::expr::{BinOp, Expr, UnOp};
use crate::types::DataType;
use crate::value::Value;

/// Parse a program: one or more statements.
pub fn parse_program(src: &str) -> RelResult<Vec<Statement>> {
    let tokens = tokenize(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut out = Vec::new();
    while !p.at_eof() {
        out.push(p.statement()?);
    }
    if out.is_empty() {
        return Err(RelError::Parse {
            pos: 0,
            message: "empty program".into(),
        });
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek().kind, TokenKind::Eof)
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if !matches!(t.kind, TokenKind::Eof) {
            self.pos += 1;
        }
        t
    }

    fn error(&self, message: impl Into<String>) -> RelError {
        RelError::Parse {
            pos: self.peek().pos,
            message: message.into(),
        }
    }

    /// Is the current token the given keyword (case-insensitive)?
    fn at_kw(&self, kw: &str) -> bool {
        matches!(&self.peek().kind, TokenKind::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    /// Consume the keyword if present.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    /// Require a keyword.
    fn expect_kw(&mut self, kw: &str) -> RelResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.error(format!(
                "expected `{kw}`, found {}",
                self.peek().kind.describe()
            )))
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if &self.peek().kind == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> RelResult<()> {
        if self.eat(&kind) {
            Ok(())
        } else {
            Err(self.error(format!(
                "expected {}, found {}",
                kind.describe(),
                self.peek().kind.describe()
            )))
        }
    }

    /// Require any identifier (returns it verbatim).
    fn ident(&mut self) -> RelResult<String> {
        match &self.peek().kind {
            TokenKind::Ident(s) => {
                let s = s.clone();
                self.bump();
                Ok(s)
            }
            other => Err(self.error(format!("expected identifier, found {}", other.describe()))),
        }
    }

    // -- Statements -----------------------------------------------------------

    fn statement(&mut self) -> RelResult<Statement> {
        if self.at_kw("CREATE") {
            return self.create();
        }
        if self.eat_kw("DROP") {
            if self.eat_kw("TABLE") {
                return Ok(Statement::DropTable(self.ident()?));
            }
            self.expect_kw("INDEX")?;
            return Ok(Statement::DropIndex(self.ident()?));
        }
        if self.eat_kw("RANGE") {
            self.expect_kw("OF")?;
            let var = self.ident()?;
            self.expect_kw("IS")?;
            let table = self.ident()?;
            return Ok(Statement::RangeOf { var, table });
        }
        if self.eat_kw("RETRIEVE") {
            return Ok(Statement::Retrieve(self.retrieve_body()?));
        }
        if self.eat_kw("EXPLAIN") {
            let analyze = self.eat_kw("ANALYZE");
            self.expect_kw("RETRIEVE")?;
            let body = self.retrieve_body()?;
            return Ok(if analyze {
                Statement::ExplainAnalyze(body)
            } else {
                Statement::Explain(body)
            });
        }
        if self.eat_kw("APPEND") {
            self.expect_kw("TO")?;
            let table = self.ident()?;
            let assigns = self.assign_list()?;
            return Ok(Statement::Append { table, assigns });
        }
        if self.eat_kw("REPLACE") {
            let var = self.ident()?;
            let assigns = self.assign_list()?;
            let where_ = self.opt_where()?;
            return Ok(Statement::Replace {
                var,
                assigns,
                where_,
            });
        }
        if self.eat_kw("DELETE") {
            let var = self.ident()?;
            let where_ = self.opt_where()?;
            return Ok(Statement::Delete { var, where_ });
        }
        if self.eat_kw("BEGIN") {
            return Ok(Statement::Begin);
        }
        if self.eat_kw("COMMIT") {
            return Ok(Statement::Commit);
        }
        if self.eat_kw("ABORT") {
            return Ok(Statement::Abort);
        }
        if self.eat_kw("ANALYZE") {
            return Ok(Statement::Analyze(self.ident()?));
        }
        Err(self.error(format!(
            "expected a statement keyword, found {}",
            self.peek().kind.describe()
        )))
    }

    fn create(&mut self) -> RelResult<Statement> {
        self.expect_kw("CREATE")?;
        if self.eat_kw("TABLE") {
            let name = self.ident()?;
            self.expect(TokenKind::LParen)?;
            let mut columns = Vec::new();
            loop {
                let col_name = self.ident()?;
                let ty_word = self.ident()?;
                let ty = DataType::from_keyword(&ty_word)
                    .ok_or_else(|| self.error(format!("unknown type `{ty_word}`")))?;
                let mut def = ColumnDef {
                    name: col_name,
                    ty,
                    not_null: false,
                    key: false,
                };
                loop {
                    if self.eat_kw("KEY") {
                        def.key = true;
                        def.not_null = true;
                    } else if self.eat_kw("NOT") {
                        self.expect_kw("NULL")?;
                        def.not_null = true;
                    } else {
                        break;
                    }
                }
                columns.push(def);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(TokenKind::RParen)?;
            return Ok(Statement::CreateTable { name, columns });
        }
        let unique = self.eat_kw("UNIQUE");
        self.expect_kw("INDEX")?;
        let name = self.ident()?;
        self.expect_kw("ON")?;
        let table = self.ident()?;
        self.expect(TokenKind::LParen)?;
        let column = self.ident()?;
        self.expect(TokenKind::RParen)?;
        // Every index is a B+tree. `USING HASH` is accepted as an alias so
        // older schema scripts still load; any other method is an error.
        if self.eat_kw("USING") {
            let word = self.ident()?;
            if !matches!(word.to_ascii_uppercase().as_str(), "BTREE" | "HASH") {
                return Err(self.error(format!("unknown index method `{word}`")));
            }
        }
        Ok(Statement::CreateIndex {
            name,
            table,
            column,
            unique,
        })
    }

    fn retrieve_body(&mut self) -> RelResult<RetrieveStmt> {
        let unique = self.eat_kw("UNIQUE");
        self.expect(TokenKind::LParen)?;
        let mut targets = Vec::new();
        loop {
            targets.push(self.target()?);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(TokenKind::RParen)?;
        let where_ = self.opt_where()?;
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                group_by.push(self.column_ref()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let mut sort_by = Vec::new();
        if self.eat_kw("SORT") {
            self.expect_kw("BY")?;
            loop {
                let column = self.column_ref()?;
                let ascending = if self.eat_kw("DESC") {
                    false
                } else {
                    self.eat_kw("ASC");
                    true
                };
                sort_by.push(SortKey { column, ascending });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let mut limit = None;
        if self.eat_kw("LIMIT") {
            let count = self.usize_literal()?;
            let offset = if self.eat_kw("OFFSET") {
                self.usize_literal()?
            } else {
                0
            };
            limit = Some((offset, count));
        }
        Ok(RetrieveStmt {
            unique,
            targets,
            where_,
            group_by,
            sort_by,
            limit,
        })
    }

    fn usize_literal(&mut self) -> RelResult<usize> {
        match self.peek().kind {
            TokenKind::Int(i) if i >= 0 => {
                self.bump();
                Ok(i as usize)
            }
            _ => Err(self.error("expected a non-negative integer")),
        }
    }

    /// A dotted or bare column reference.
    fn column_ref(&mut self) -> RelResult<String> {
        let first = self.ident()?;
        if self.eat(&TokenKind::Dot) {
            let second = self.ident()?;
            Ok(format!("{first}.{second}"))
        } else {
            Ok(first)
        }
    }

    fn target(&mut self) -> RelResult<Target> {
        // Lookahead for `name = ...` (an output label) vs a bare expression.
        // A label is ident `=` not followed by another `=`; expressions never
        // start with `ident =` because `=` is not a prefix operator.
        let mut name = None;
        if let TokenKind::Ident(label) = &self.peek().kind {
            let label = label.clone();
            if matches!(
                self.tokens.get(self.pos + 1).map(|t| &t.kind),
                Some(TokenKind::Eq)
            ) && !is_keyword(&label)
            {
                self.bump();
                self.bump();
                name = Some(label);
            }
        }
        // Aggregate?
        if let TokenKind::Ident(word) = &self.peek().kind {
            if let Some(func) = AggFunc::from_keyword(word) {
                if matches!(
                    self.tokens.get(self.pos + 1).map(|t| &t.kind),
                    Some(TokenKind::LParen)
                ) {
                    self.bump();
                    self.bump();
                    let arg = if self.eat(&TokenKind::Star) {
                        None
                    } else {
                        Some(self.expr()?)
                    };
                    self.expect(TokenKind::RParen)?;
                    return Ok(Target::Agg { name, func, arg });
                }
            }
        }
        let expr = self.expr()?;
        Ok(Target::Expr { name, expr })
    }

    fn assign_list(&mut self) -> RelResult<Vec<(String, Expr)>> {
        self.expect(TokenKind::LParen)?;
        let mut out = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect(TokenKind::Eq)?;
            let e = self.expr()?;
            out.push((col, e));
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(TokenKind::RParen)?;
        Ok(out)
    }

    fn opt_where(&mut self) -> RelResult<Option<Expr>> {
        if self.eat_kw("WHERE") {
            Ok(Some(self.expr()?))
        } else {
            Ok(None)
        }
    }

    // -- Expressions ------------------------------------------------------------

    /// expr := or
    pub(crate) fn expr(&mut self) -> RelResult<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> RelResult<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_kw("OR") {
            let right = self.and_expr()?;
            left = Expr::Binary {
                op: BinOp::Or,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> RelResult<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_kw("AND") {
            let right = self.not_expr()?;
            left = Expr::Binary {
                op: BinOp::And,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> RelResult<Expr> {
        if self.eat_kw("NOT") {
            let inner = self.not_expr()?;
            return Ok(Expr::Unary {
                op: UnOp::Not,
                expr: Box::new(inner),
            });
        }
        self.comparison()
    }

    fn comparison(&mut self) -> RelResult<Expr> {
        let left = self.additive()?;
        // IS [NOT] NULL
        if self.eat_kw("IS") {
            let negate = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            let test = Expr::IsNull(Box::new(left));
            return Ok(if negate {
                Expr::Unary {
                    op: UnOp::Not,
                    expr: Box::new(test),
                }
            } else {
                test
            });
        }
        // LIKE "pattern"
        if self.eat_kw("LIKE") {
            let pattern = match &self.peek().kind {
                TokenKind::Str(s) => {
                    let s = s.clone();
                    self.bump();
                    s
                }
                other => {
                    return Err(self.error(format!(
                        "LIKE requires a string pattern, found {}",
                        other.describe()
                    )))
                }
            };
            return Ok(Expr::Like {
                expr: Box::new(left),
                pattern,
            });
        }
        let op = match self.peek().kind {
            TokenKind::Eq => BinOp::Eq,
            TokenKind::Ne => BinOp::Ne,
            TokenKind::Lt => BinOp::Lt,
            TokenKind::Le => BinOp::Le,
            TokenKind::Gt => BinOp::Gt,
            TokenKind::Ge => BinOp::Ge,
            _ => return Ok(left),
        };
        self.bump();
        let right = self.additive()?;
        Ok(Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        })
    }

    fn additive(&mut self) -> RelResult<Expr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek().kind {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => return Ok(left),
            };
            self.bump();
            let right = self.multiplicative()?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
    }

    fn multiplicative(&mut self) -> RelResult<Expr> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek().kind {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Percent => BinOp::Mod,
                _ => return Ok(left),
            };
            self.bump();
            let right = self.unary()?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
    }

    fn unary(&mut self) -> RelResult<Expr> {
        if self.eat(&TokenKind::Minus) {
            let inner = self.unary()?;
            return Ok(Expr::Unary {
                op: UnOp::Neg,
                expr: Box::new(inner),
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> RelResult<Expr> {
        match &self.peek().kind {
            TokenKind::Int(i) => {
                let v = *i;
                self.bump();
                Ok(Expr::Literal(Value::Int(v)))
            }
            TokenKind::Float(f) => {
                let v = *f;
                self.bump();
                Ok(Expr::Literal(Value::Float(v)))
            }
            TokenKind::Str(s) => {
                let v = s.clone();
                self.bump();
                Ok(Expr::Literal(Value::Text(v)))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(word) => {
                let upper = word.to_ascii_uppercase();
                match upper.as_str() {
                    "NULL" => {
                        self.bump();
                        Ok(Expr::Literal(Value::Null))
                    }
                    "TRUE" => {
                        self.bump();
                        Ok(Expr::Literal(Value::Bool(true)))
                    }
                    "FALSE" => {
                        self.bump();
                        Ok(Expr::Literal(Value::Bool(false)))
                    }
                    "DATE" => {
                        // DATE "YYYY-MM-DD" literal.
                        self.bump();
                        match &self.peek().kind {
                            TokenKind::Str(s) => {
                                let days = crate::types::parse_date(s).ok_or_else(|| {
                                    self.error(format!("bad date literal \"{s}\""))
                                })?;
                                self.bump();
                                Ok(Expr::Literal(Value::Date(days)))
                            }
                            other => Err(self.error(format!(
                                "DATE requires a string literal, found {}",
                                other.describe()
                            ))),
                        }
                    }
                    _ => Ok(Expr::ColumnRef(self.column_ref()?)),
                }
            }
            other => Err(self.error(format!(
                "expected an expression, found {}",
                other.describe()
            ))),
        }
    }
}

/// Words that cannot be used as output labels in a target list.
fn is_keyword(word: &str) -> bool {
    matches!(
        word.to_ascii_uppercase().as_str(),
        "WHERE"
            | "GROUP"
            | "SORT"
            | "BY"
            | "LIMIT"
            | "OFFSET"
            | "AND"
            | "OR"
            | "NOT"
            | "NULL"
            | "TRUE"
            | "FALSE"
            | "IS"
            | "LIKE"
            | "DATE"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(src: &str) -> Statement {
        let mut stmts = parse_program(src).unwrap();
        assert_eq!(stmts.len(), 1, "expected a single statement");
        stmts.pop().unwrap()
    }

    #[test]
    fn create_table() {
        let s = one("CREATE TABLE emp (name TEXT KEY, dept TEXT, salary INT NOT NULL)");
        match s {
            Statement::CreateTable { name, columns } => {
                assert_eq!(name, "emp");
                assert_eq!(columns.len(), 3);
                assert!(columns[0].key && columns[0].not_null);
                assert!(!columns[1].not_null);
                assert!(columns[2].not_null && !columns[2].key);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn create_index_variants() {
        match one("CREATE UNIQUE INDEX i ON t (c) USING HASH") {
            Statement::CreateIndex { unique, .. } => assert!(unique),
            other => panic!("{other:?}"),
        }
        for src in [
            "CREATE INDEX i ON t (c)",
            "CREATE INDEX i ON t (c) USING btree",
        ] {
            match one(src) {
                Statement::CreateIndex { unique, .. } => assert!(!unique),
                other => panic!("{other:?}"),
            }
        }
        assert!(parse_program("CREATE INDEX i ON t (c) USING GIST").is_err());
    }

    #[test]
    fn range_and_retrieve() {
        let stmts =
            parse_program("RANGE OF e IS emp RETRIEVE (e.name, e.salary) WHERE e.salary > 100")
                .unwrap();
        assert_eq!(stmts.len(), 2);
        assert!(
            matches!(&stmts[0], Statement::RangeOf { var, table } if var == "e" && table == "emp")
        );
        match &stmts[1] {
            Statement::Retrieve(r) => {
                assert_eq!(r.targets.len(), 2);
                assert!(r.where_.is_some());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn named_targets_and_aggregates() {
        let s = one("RETRIEVE (e.dept, total = SUM(e.salary), n = COUNT(*)) GROUP BY e.dept");
        match s {
            Statement::Retrieve(r) => {
                assert!(matches!(&r.targets[0], Target::Expr { name: None, .. }));
                assert!(matches!(
                    &r.targets[1],
                    Target::Agg { name: Some(n), func: AggFunc::Sum, arg: Some(_) } if n == "total"
                ));
                assert!(matches!(
                    &r.targets[2],
                    Target::Agg { name: Some(n), func: AggFunc::Count, arg: None } if n == "n"
                ));
                assert_eq!(r.group_by, vec!["e.dept"]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sort_and_limit() {
        let s = one("RETRIEVE (e.name) SORT BY e.salary DESC, e.name LIMIT 10 OFFSET 20");
        match s {
            Statement::Retrieve(r) => {
                assert_eq!(r.sort_by.len(), 2);
                assert!(!r.sort_by[0].ascending);
                assert!(r.sort_by[1].ascending);
                assert_eq!(r.limit, Some((20, 10)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn append_replace_delete() {
        match one(r#"APPEND TO emp (name = "x", salary = 5)"#) {
            Statement::Append { table, assigns } => {
                assert_eq!(table, "emp");
                assert_eq!(assigns.len(), 2);
            }
            other => panic!("{other:?}"),
        }
        match one(r#"REPLACE e (salary = e.salary * 2) WHERE e.dept = "toy""#) {
            Statement::Replace {
                var,
                assigns,
                where_,
            } => {
                assert_eq!(var, "e");
                assert_eq!(assigns.len(), 1);
                assert!(where_.is_some());
            }
            other => panic!("{other:?}"),
        }
        match one("DELETE e") {
            Statement::Delete { var, where_ } => {
                assert_eq!(var, "e");
                assert!(where_.is_none());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn expression_precedence() {
        let s = one("RETRIEVE (x = 1 + 2 * 3)");
        match s {
            Statement::Retrieve(r) => match &r.targets[0] {
                Target::Expr { expr, .. } => {
                    assert_eq!(expr.to_string(), "(1 + (2 * 3))");
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn logical_precedence_and_parens() {
        let s = one(r#"RETRIEVE (e.x) WHERE e.a = 1 OR e.b = 2 AND e.c = 3"#);
        match s {
            Statement::Retrieve(r) => {
                assert_eq!(
                    r.where_.unwrap().to_string(),
                    "((e.a = 1) OR ((e.b = 2) AND (e.c = 3)))"
                );
            }
            other => panic!("{other:?}"),
        }
        let s = one(r#"RETRIEVE (e.x) WHERE (e.a = 1 OR e.b = 2) AND e.c = 3"#);
        match s {
            Statement::Retrieve(r) => {
                assert_eq!(
                    r.where_.unwrap().to_string(),
                    "(((e.a = 1) OR (e.b = 2)) AND (e.c = 3))"
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn is_null_like_and_not() {
        let s =
            one(r#"RETRIEVE (e.x) WHERE e.mgr IS NOT NULL AND e.name LIKE "Sm*" AND NOT e.flag"#);
        match s {
            Statement::Retrieve(r) => {
                let text = r.where_.unwrap().to_string();
                assert!(text.contains("IS NULL"));
                assert!(text.contains("LIKE \"Sm*\""));
                assert!(text.contains("(NOT e.flag)"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn date_literals() {
        let s = one(r#"RETRIEVE (e.x) WHERE e.hired >= DATE "1983-05-23""#);
        match s {
            Statement::Retrieve(r) => {
                let text = r.where_.unwrap().to_string();
                assert!(text.contains("1983-05-23"));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_program(r#"RETRIEVE (x = DATE "bogus")"#).is_err());
    }

    #[test]
    fn txn_statements() {
        assert!(matches!(one("BEGIN"), Statement::Begin));
        assert!(matches!(one("COMMIT"), Statement::Commit));
        assert!(matches!(one("ABORT"), Statement::Abort));
        assert!(matches!(one("ANALYZE emp"), Statement::Analyze(t) if t == "emp"));
    }

    #[test]
    fn explain() {
        assert!(matches!(
            one("EXPLAIN RETRIEVE (e.x)"),
            Statement::Explain(_)
        ));
    }

    #[test]
    fn explain_analyze() {
        assert!(matches!(
            one("EXPLAIN ANALYZE RETRIEVE (e.x)"),
            Statement::ExplainAnalyze(_)
        ));
        // `ANALYZE` alone still names the statistics statement.
        assert!(matches!(one("ANALYZE emp"), Statement::Analyze(t) if t == "emp"));
    }

    #[test]
    fn negative_numbers_and_unary_minus() {
        let s = one("RETRIEVE (x = -5, y = -(1 + 2))");
        match s {
            Statement::Retrieve(r) => {
                assert_eq!(r.targets.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_errors_have_positions() {
        match parse_program("RETRIEVE e.name") {
            Err(RelError::Parse { message, .. }) => {
                assert!(message.contains("expected `(`"), "{message}");
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_program("").is_err());
        assert!(parse_program("FLY TO emp").is_err());
        assert!(parse_program("CREATE TABLE t (c BLOB)").is_err());
    }

    #[test]
    fn multi_statement_program() {
        let stmts = parse_program(
            r#"
            CREATE TABLE emp (name TEXT KEY, salary INT)
            APPEND TO emp (name = "a", salary = 1)  -- seed row
            RANGE OF e IS emp
            RETRIEVE (e.name)
            "#,
        )
        .unwrap();
        assert_eq!(stmts.len(), 4);
    }
}
