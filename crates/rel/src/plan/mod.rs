//! Query planning: from parsed `RETRIEVE` statements to physical plans.
//!
//! The pipeline follows the System R shape the 1983 substrate would have
//! used:
//!
//! 1. [`planner`] normalizes a `RETRIEVE` into a [`logical::QueryBlock`] —
//!    the set of scans (one per range variable used), the WHERE conjuncts,
//!    and the output specification.
//! 2. [`optimizer`] binds the block ([`crate::bind`]: every literal typed
//!    against its column, mistyped expressions refused), then classifies
//!    conjuncts (scan-local, join edge, residual),
//!    chooses access paths (sequential, index equality, index range),
//!    orders joins greedily by estimated cardinality, and emits a
//!    [`crate::exec::PhysicalPlan`].

pub mod logical;
pub mod optimizer;
pub mod planner;

pub use logical::QueryBlock;
pub use optimizer::optimize;
pub use planner::build_query_block;
