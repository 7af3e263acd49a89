//! # wow-rel
//!
//! The relational database engine underneath *Windows on the World*.
//!
//! The 1983 system was built over an INGRES-class DBMS; this crate is that
//! substrate, built from scratch on `wow-storage`:
//!
//! * [`types`] / [`value`] — the type system and runtime values, including
//!   order-preserving key encodings and row serialization.
//! * [`schema`] / [`mod@tuple`] — relation schemas and tuples.
//! * [`expr`] / [`eval`] — scalar expressions with SQL-style three-valued
//!   logic, `LIKE`-style pattern matching, and arithmetic.
//! * [`bind`] — the binder: types every expression and coerces its
//!   literals once, between parse and plan.
//! * [`catalog`] — tables, indexes, and their storage roots.
//! * [`db`] — the [`db::Database`] facade tying storage, catalog, WAL and
//!   transactions together.
//! * [`dml`] — insert/update/delete with index maintenance and undo.
//! * [`delta`] — typed write deltas ([`delta::BaseDelta`]) and the binding
//!   helpers incremental view maintenance pushes through view algebra.
//! * [`exec`] — physical operators: scans, filters, joins, sort, aggregate.
//! * [`plan`] — logical plans, the planner, and a rule-based optimizer
//!   (predicate pushdown, index selection, greedy join ordering).
//! * [`quel`] — a QUEL-like query language (`RANGE OF`, `RETRIEVE`,
//!   `APPEND`, `REPLACE`, `DELETE`), the era-appropriate choice.
//! * [`stats`] — table statistics feeding the optimizer.
//!
//! ## Quick tour
//!
//! ```
//! use wow_rel::db::Database;
//! use wow_rel::value::Value;
//!
//! let mut db = Database::in_memory();
//! db.run("CREATE TABLE emp (name TEXT KEY, dept TEXT, salary INT)").unwrap();
//! db.run("APPEND TO emp (name = \"alice\", dept = \"toy\", salary = 120)").unwrap();
//! db.run("APPEND TO emp (name = \"bob\", dept = \"shoe\", salary = 90)").unwrap();
//! let rows = db.run("RANGE OF e IS emp RETRIEVE (e.name) WHERE e.salary > 100").unwrap();
//! assert_eq!(rows.tuples[0].values[0], Value::text("alice"));
//! ```

pub mod bind;
pub mod catalog;
pub mod db;
pub mod delta;
pub mod dml;
pub mod durable;
pub mod error;
pub mod eval;
pub mod exec;
pub mod expr;
pub mod plan;
pub mod quel;
pub mod schema;
pub mod stats;
pub mod tuple;
pub mod types;
pub mod value;

pub use error::{RelError, RelResult};
