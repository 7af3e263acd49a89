//! A QUEL-like query language.
//!
//! *Windows on the World* predates SQL's dominance; the INGRES lineage
//! spoke QUEL, so this engine does too (with a few pragmatic extensions,
//! documented in the parser):
//!
//! ```text
//! RANGE OF e IS emp
//! RETRIEVE (e.name, pay = e.salary * 12) WHERE e.dept = "toy" SORT BY e.name
//! APPEND TO emp (name = "alice", dept = "toy", salary = 120)
//! REPLACE e (salary = e.salary + 10) WHERE e.dept = "shoe"
//! DELETE e WHERE e.salary < 50
//! ```
//!
//! Plus the DDL/transaction statements an embedded engine needs:
//! `CREATE TABLE`, `CREATE [UNIQUE] INDEX ... [USING BTREE|HASH]` (every
//! index is a B+tree; `HASH` is an accepted alias),
//! `DROP TABLE/INDEX`, `BEGIN`/`COMMIT`/`ABORT`, `ANALYZE`, and
//! `EXPLAIN RETRIEVE ...`.

pub mod ast;
pub mod lexer;
pub mod parser;

pub use ast::{ColumnDef, RetrieveStmt, SortKey, Statement, Target};
pub use parser::parse_program;
