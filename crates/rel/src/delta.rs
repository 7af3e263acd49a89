//! Typed write deltas: the unit of incremental view maintenance.
//!
//! Every committed write is captured as a [`BaseDelta`] — the inserted,
//! deleted, and updated tuples of one base table, each with its rid. The
//! view layer pushes each written image through the view's keyed walk
//! (the restriction filters it, the targets project it, the primary-key
//! probes join it) instead of re-running whole view queries after each
//! commit.

use crate::tuple::Tuple;
use crate::value::Value;
use wow_storage::Rid;

/// The delta of one write (or one small batch of writes) to a base table.
#[derive(Debug, Clone, Default)]
pub struct BaseDelta {
    /// The written base table.
    pub table: String,
    /// Rows that now exist and did not before.
    pub inserted: Vec<(Rid, Tuple)>,
    /// Rows that existed and no longer do (rid is the old rid).
    pub deleted: Vec<(Rid, Tuple)>,
    /// Rows changed in place: `(rid, old, new)`.
    pub updated: Vec<(Rid, Tuple, Tuple)>,
}

impl BaseDelta {
    /// An empty delta for `table`.
    pub fn new(table: impl Into<String>) -> BaseDelta {
        BaseDelta {
            table: table.into(),
            ..BaseDelta::default()
        }
    }

    /// A single-row insert delta.
    pub fn insert(table: impl Into<String>, rid: Rid, row: Tuple) -> BaseDelta {
        let mut d = BaseDelta::new(table);
        d.inserted.push((rid, row));
        d
    }

    /// A single-row delete delta.
    pub fn delete(table: impl Into<String>, rid: Rid, old: Tuple) -> BaseDelta {
        let mut d = BaseDelta::new(table);
        d.deleted.push((rid, old));
        d
    }

    /// A single-row update delta.
    pub fn update(table: impl Into<String>, rid: Rid, old: Tuple, new: Tuple) -> BaseDelta {
        let mut d = BaseDelta::new(table);
        d.updated.push((rid, old, new));
        d
    }

    /// Whether the delta carries no rows at all.
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty() && self.deleted.is_empty() && self.updated.is_empty()
    }

    /// Total number of delta rows (updates count once).
    pub fn len(&self) -> usize {
        self.inserted.len() + self.deleted.len() + self.updated.len()
    }
}

/// The primary-key index key bytes of `row` under `key_cols`, or `None`
/// when the table has no declared key. Matches the encoding `pk_<table>`
/// B+tree indexes store, so browse cursors can place delta rows by key.
pub fn key_bytes(key_cols: &[usize], row: &Tuple) -> Option<Vec<u8>> {
    if key_cols.is_empty() {
        return None;
    }
    let vals: Vec<Value> = key_cols.iter().map(|&i| row.values[i].clone()).collect();
    Some(Value::encode_composite(&vals))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_constructors_and_len() {
        let rid = Rid::new(wow_storage::page::PageId(1), 0);
        let t = Tuple::new(vec![Value::Int(1)]);
        let d = BaseDelta::update("supplier", rid, t.clone(), t.clone());
        assert_eq!(d.len(), 1);
        assert!(!d.is_empty());
        assert!(BaseDelta::new("supplier").is_empty());
        assert_eq!(BaseDelta::insert("s", rid, t.clone()).inserted.len(), 1);
        assert_eq!(BaseDelta::delete("s", rid, t).deleted.len(), 1);
    }

    #[test]
    fn key_bytes_orders_like_the_index() {
        let a = Tuple::new(vec![Value::Int(1), Value::text("x")]);
        let b = Tuple::new(vec![Value::Int(2), Value::text("a")]);
        let ka = key_bytes(&[0], &a).unwrap();
        let kb = key_bytes(&[0], &b).unwrap();
        assert!(ka < kb);
        assert!(key_bytes(&[], &a).is_none());
    }
}
