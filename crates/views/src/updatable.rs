//! Which views a window can write through.
//!
//! The writes-or-refusal view of the one view analysis,
//! [`analyze_keyed`]: a view is updatable when it is keyed and its
//! [`Keyed`] carries [`Writes`](crate::keyed::Writes); otherwise the
//! analysis's list of violated rules is the refusal.

use crate::catalog::ViewCatalog;
use crate::error::{ViewError, ViewResult};
use crate::keyed::{analyze_keyed, Keyed};
use wow_rel::db::Database;

/// Analyze a view. `Ok` carries the keyed view with its writes; a view
/// that exists but violates the rules yields [`ViewError::NotUpdatable`]
/// with reasons.
pub fn analyze(db: &Database, vc: &ViewCatalog, view_name: &str) -> ViewResult<Keyed> {
    match analyze_keyed(db, vc, view_name)? {
        (Some(keyed), _) if keyed.writes.is_some() => Ok(keyed),
        (_, reasons) => Err(ViewError::NotUpdatable {
            view: view_name.to_string(),
            reasons,
        }),
    }
}

/// Convenience: the reasons a view is *not* updatable (empty = updatable).
pub fn why_not(db: &Database, vc: &ViewCatalog, view_name: &str) -> Vec<String> {
    match analyze(db, vc, view_name) {
        Ok(_) => Vec::new(),
        Err(ViewError::NotUpdatable { reasons, .. }) => reasons,
        Err(other) => vec![other.to_string()],
    }
}
