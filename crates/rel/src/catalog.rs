//! The catalog: tables, indexes, and where they live in storage.

use crate::error::{RelError, RelResult};
use crate::schema::Schema;
use std::collections::BTreeMap;
use wow_storage::PageId;

/// Identifier of a table (also used in WAL records).
pub type TableId = u32;

/// Catalog entry for an index. Every index is a B+tree, so one index
/// answers equality probes, range scans and ordered browsing alike.
#[derive(Debug, Clone)]
pub struct IndexInfo {
    /// Index name (unique across the database).
    pub name: String,
    /// Owning table.
    pub table: TableId,
    /// Indexed column positions (in table schema order).
    pub columns: Vec<usize>,
    /// Whether the key must be unique.
    pub unique: bool,
    /// Meta page of the index's B+tree.
    pub meta: PageId,
}

/// Catalog entry for a table.
#[derive(Debug, Clone)]
pub struct TableInfo {
    /// Table id (stable; used in the WAL).
    pub id: TableId,
    /// Table name.
    pub name: String,
    /// Schema.
    pub schema: Schema,
    /// Meta page of the heap file.
    pub heap_meta: PageId,
    /// Primary-key column positions (may be empty).
    pub key: Vec<usize>,
    /// Names of indexes on this table.
    pub indexes: Vec<String>,
}

/// The database catalog.
///
/// Held in memory and rebuilt by the embedding application on startup (the
/// WAL protects data, not DDL — the same division INGRES-era systems drew
/// between the schema file and the database).
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    tables: BTreeMap<String, TableInfo>,
    ids: BTreeMap<TableId, String>,
    indexes: BTreeMap<String, IndexInfo>,
    next_id: TableId,
    /// Bumped on every change to the *table set* (create/drop). Layers that
    /// cache facts derived from table existence — e.g. the view dependency
    /// index — compare generations instead of re-deriving per use.
    generation: u64,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Generation of the table set; changes exactly when a table is
    /// created or dropped.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Register a table; returns its new id.
    pub fn add_table(
        &mut self,
        name: &str,
        schema: Schema,
        heap_meta: PageId,
        key: Vec<usize>,
    ) -> RelResult<TableId> {
        if self.tables.contains_key(name) {
            return Err(RelError::AlreadyExists(name.to_string()));
        }
        let id = self.next_id;
        self.next_id += 1;
        self.tables.insert(
            name.to_string(),
            TableInfo {
                id,
                name: name.to_string(),
                schema,
                heap_meta,
                key,
                indexes: Vec::new(),
            },
        );
        self.ids.insert(id, name.to_string());
        self.generation += 1;
        Ok(id)
    }

    /// Register a table under an explicit id (checkpoint restore and WAL
    /// replay, where ids recorded on disk must be honored verbatim).
    /// Advances the id allocator past `id` so later tables never collide.
    pub fn add_table_with_id(
        &mut self,
        name: &str,
        id: TableId,
        schema: Schema,
        heap_meta: PageId,
        key: Vec<usize>,
    ) -> RelResult<TableId> {
        if self.tables.contains_key(name) || self.ids.contains_key(&id) {
            return Err(RelError::AlreadyExists(name.to_string()));
        }
        self.next_id = self.next_id.max(id + 1);
        self.tables.insert(
            name.to_string(),
            TableInfo {
                id,
                name: name.to_string(),
                schema,
                heap_meta,
                key,
                indexes: Vec::new(),
            },
        );
        self.ids.insert(id, name.to_string());
        self.generation += 1;
        Ok(id)
    }

    /// The next id the allocator would hand out (serialized by checkpoints
    /// so dropped-table ids stay retired across restarts).
    pub fn next_table_id(&self) -> TableId {
        self.next_id
    }

    /// Restore the id allocator's high-water mark (only ever moves forward).
    pub fn set_next_table_id(&mut self, next: TableId) {
        self.next_id = self.next_id.max(next);
    }

    /// Remove a table and all its index entries; returns the removed infos.
    pub fn remove_table(&mut self, name: &str) -> RelResult<(TableInfo, Vec<IndexInfo>)> {
        let info = self
            .tables
            .remove(name)
            .ok_or_else(|| RelError::NoSuchTable(name.to_string()))?;
        self.ids.remove(&info.id);
        let mut dropped = Vec::new();
        for idx_name in &info.indexes {
            if let Some(idx) = self.indexes.remove(idx_name) {
                dropped.push(idx);
            }
        }
        self.generation += 1;
        Ok((info, dropped))
    }

    /// Look up a table by name.
    pub fn table(&self, name: &str) -> RelResult<&TableInfo> {
        self.tables
            .get(name)
            .ok_or_else(|| RelError::NoSuchTable(name.to_string()))
    }

    /// Look up a table by id.
    pub fn table_by_id(&self, id: TableId) -> RelResult<&TableInfo> {
        self.ids
            .get(&id)
            .and_then(|n| self.tables.get(n))
            .ok_or_else(|| RelError::NoSuchTable(format!("#{id}")))
    }

    /// Whether a table exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// All table names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    /// Register an index on a table.
    pub fn add_index(
        &mut self,
        name: &str,
        table: &str,
        columns: Vec<usize>,
        unique: bool,
        meta: PageId,
    ) -> RelResult<()> {
        if self.indexes.contains_key(name) {
            return Err(RelError::AlreadyExists(name.to_string()));
        }
        let table_id = self.table(table)?.id;
        self.indexes.insert(
            name.to_string(),
            IndexInfo {
                name: name.to_string(),
                table: table_id,
                columns,
                unique,
                meta,
            },
        );
        self.tables
            .get_mut(table)
            .expect("checked above")
            .indexes
            .push(name.to_string());
        Ok(())
    }

    /// Remove an index entry.
    pub fn remove_index(&mut self, name: &str) -> RelResult<IndexInfo> {
        let info = self
            .indexes
            .remove(name)
            .ok_or_else(|| RelError::NoSuchIndex(name.to_string()))?;
        if let Some(tname) = self.ids.get(&info.table) {
            if let Some(t) = self.tables.get_mut(tname) {
                t.indexes.retain(|n| n != name);
            }
        }
        Ok(info)
    }

    /// Look up an index by name.
    pub fn index(&self, name: &str) -> RelResult<&IndexInfo> {
        self.indexes
            .get(name)
            .ok_or_else(|| RelError::NoSuchIndex(name.to_string()))
    }

    /// All indexes on a table.
    pub fn indexes_on(&self, table: TableId) -> Vec<&IndexInfo> {
        self.indexes.values().filter(|i| i.table == table).collect()
    }

    /// Find an index whose key is exactly the single column `column` (used
    /// for access-path selection), preferring a unique one. A composite
    /// index is never returned: its key cannot be built from one value.
    pub fn index_on_column(&self, table: TableId, column: usize) -> Option<&IndexInfo> {
        self.indexes
            .values()
            .filter(|i| i.table == table && i.columns == [column])
            .min_by_key(|i| !i.unique)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::types::DataType;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::not_null("id", DataType::Int),
            Column::new("name", DataType::Text),
        ])
    }

    #[test]
    fn add_and_lookup_table() {
        let mut c = Catalog::new();
        let id = c.add_table("emp", schema(), PageId(1), vec![0]).unwrap();
        assert_eq!(c.table("emp").unwrap().id, id);
        assert_eq!(c.table_by_id(id).unwrap().name, "emp");
        assert!(c.has_table("emp"));
        assert!(matches!(c.table("dept"), Err(RelError::NoSuchTable(_))));
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut c = Catalog::new();
        c.add_table("emp", schema(), PageId(1), vec![]).unwrap();
        assert!(matches!(
            c.add_table("emp", schema(), PageId(2), vec![]),
            Err(RelError::AlreadyExists(_))
        ));
    }

    #[test]
    fn index_lifecycle() {
        let mut c = Catalog::new();
        let tid = c.add_table("emp", schema(), PageId(1), vec![0]).unwrap();
        c.add_index("emp_name", "emp", vec![1], false, PageId(5))
            .unwrap();
        assert_eq!(c.index("emp_name").unwrap().table, tid);
        assert_eq!(c.indexes_on(tid).len(), 1);
        assert_eq!(c.table("emp").unwrap().indexes, vec!["emp_name"]);
        let dropped = c.remove_index("emp_name").unwrap();
        assert_eq!(dropped.meta, PageId(5));
        assert!(c.table("emp").unwrap().indexes.is_empty());
        assert!(c.index("emp_name").is_err());
    }

    #[test]
    fn remove_table_drops_its_indexes() {
        let mut c = Catalog::new();
        c.add_table("emp", schema(), PageId(1), vec![0]).unwrap();
        c.add_index("i1", "emp", vec![0], true, PageId(2)).unwrap();
        c.add_index("i2", "emp", vec![1], false, PageId(3)).unwrap();
        let (_, dropped) = c.remove_table("emp").unwrap();
        assert_eq!(dropped.len(), 2);
        assert!(c.index("i1").is_err());
    }

    #[test]
    fn index_on_column_prefers_unique() {
        let mut c = Catalog::new();
        let tid = c.add_table("emp", schema(), PageId(1), vec![0]).unwrap();
        c.add_index("plain", "emp", vec![0], false, PageId(2))
            .unwrap();
        c.add_index("uniq", "emp", vec![0], true, PageId(3))
            .unwrap();
        assert_eq!(c.index_on_column(tid, 0).unwrap().name, "uniq");
        assert!(c.index_on_column(tid, 1).is_none());
    }

    #[test]
    fn index_on_column_skips_composite_keys() {
        // A unique composite key on (id, name) must not hide the plain
        // single-column index on id: only the latter can be probed with
        // one value.
        let mut c = Catalog::new();
        let tid = c.add_table("emp", schema(), PageId(1), vec![0, 1]).unwrap();
        c.add_index("pk_emp", "emp", vec![0, 1], true, PageId(2))
            .unwrap();
        assert!(c.index_on_column(tid, 0).is_none());
        c.add_index("emp_id", "emp", vec![0], false, PageId(3))
            .unwrap();
        assert_eq!(c.index_on_column(tid, 0).unwrap().name, "emp_id");
    }

    #[test]
    fn ids_are_distinct_and_stable() {
        let mut c = Catalog::new();
        let a = c.add_table("a", schema(), PageId(1), vec![]).unwrap();
        let b = c.add_table("b", schema(), PageId(2), vec![]).unwrap();
        assert_ne!(a, b);
        c.remove_table("a").unwrap();
        let d = c.add_table("d", schema(), PageId(3), vec![]).unwrap();
        assert_ne!(d, b, "ids are never reused");
    }
}
