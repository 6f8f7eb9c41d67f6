//! The table catalog: name → latched [`Table`] mapping with dense ids.
//!
//! Each table sits inside its own [`RwLock`] cell — the *per-table latch*
//! of the engine's latch hierarchy (catalog read-write latch above, lock
//! manager below; see `docs/ARCHITECTURE.md`). Structural operations
//! (`create_table`, `create_index`, vacuum) take `&mut self`, which the
//! engine only has while holding the catalog latch exclusively, so they
//! can reach tables through [`RwLock::get_mut`] without touching the
//! per-table latches at all — one reason the hierarchy cannot deadlock.

use crate::error::{Result, StorageError};
use crate::schema::{IndexDef, TableSchema};
use crate::table::Table;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// All tables in a database, each behind its own latch cell.
#[derive(Debug)]
pub struct Catalog {
    tables: BTreeMap<String, RwLock<Table>>,
    next_id: u32,
    /// Bumped by every structural change (new table, new index): the
    /// validity stamp of prepared statements' bound layouts. Starts in a
    /// range of its own per catalog, so a statement prepared against one
    /// database is never taken for bound when run on another.
    version: u64,
}

impl Default for Catalog {
    fn default() -> Self {
        // A label: it orders nothing and publishes nothing.
        static CATALOGS: AtomicU64 = AtomicU64::new(0);
        Catalog {
            tables: BTreeMap::new(),
            next_id: 0,
            version: CATALOGS.fetch_add(1, Ordering::Relaxed) << 32,
        }
    }
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Creates a table from a validated schema.
    ///
    /// # Errors
    ///
    /// [`StorageError::AlreadyExists`] if the name is taken.
    pub fn create_table(&mut self, schema: TableSchema) -> Result<()> {
        let name = schema.name().to_owned();
        if self.tables.contains_key(&name) {
            return Err(StorageError::AlreadyExists(name));
        }
        let id = self.next_id;
        self.next_id += 1;
        let mut table = Table::new(schema.clone(), id);
        // Columns declared UNIQUE get an implicit single-column unique
        // index, as in Postgres.
        for col in schema.columns() {
            if col.unique && col.name != schema.primary_key() {
                table.create_index(IndexDef {
                    name: format!("{}_{}_key", schema.name(), col.name),
                    columns: vec![col.name.clone()],
                    unique: true,
                })?;
            }
        }
        self.tables.insert(name, RwLock::new(table));
        self.version += 1;
        Ok(())
    }

    /// Creates a secondary index on `table`.
    ///
    /// # Errors
    ///
    /// Unknown-table or index errors from [`Table::create_index`].
    pub fn create_index(&mut self, table: &str, def: IndexDef) -> Result<()> {
        self.table_mut(table)?.create_index(def)?;
        self.version += 1;
        Ok(())
    }

    /// The catalog's structural version: changes with every successful
    /// DDL. Prepared statements stamp what they resolved against the
    /// catalog (column positions, output names) with it.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The latch cell for `name` together with the catalog's own copy of
    /// the name (which outlives any statement-scoped string).
    pub(crate) fn latch_entry(&self, name: &str) -> Result<(&str, &RwLock<Table>)> {
        self.tables
            .get_key_value(name)
            .map(|(n, t)| (n.as_str(), t))
            .ok_or_else(|| StorageError::UnknownTable(name.to_owned()))
    }

    /// The latch cell for `name`. Callers latch it in canonical (sorted
    /// name) order relative to any other table latches they hold.
    pub fn latch(&self, name: &str) -> Result<&RwLock<Table>> {
        self.tables
            .get(name)
            .ok_or_else(|| StorageError::UnknownTable(name.to_owned()))
    }

    /// Mutable table lookup, bypassing the per-table latch. Sound only
    /// because `&mut self` implies the catalog latch is held exclusively,
    /// which excludes every per-table latch holder.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables
            .get_mut(name)
            .map(RwLock::get_mut)
            .ok_or_else(|| StorageError::UnknownTable(name.to_owned()))
    }

    /// Whether `name` exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Table names in deterministic (sorted) order.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    /// Total rows across all tables (diagnostics). Latches each table
    /// briefly in sorted order.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(|t| t.read().len()).sum()
    }

    /// Iterates over the latch cells in sorted-name order.
    pub fn latches(&self) -> impl Iterator<Item = (&str, &RwLock<Table>)> {
        self.tables.iter().map(|(n, t)| (n.as_str(), t))
    }

    /// Mutable iteration over all tables (vacuum; requires the catalog
    /// latch held exclusively, see [`Catalog::table_mut`]).
    pub fn tables_mut(&mut self) -> impl Iterator<Item = &mut Table> {
        self.tables.values_mut().map(RwLock::get_mut)
    }

    /// Named mutable iteration, for building an exclusive-mode table set
    /// (same soundness argument as [`Catalog::table_mut`]).
    pub fn tables_mut_named(&mut self) -> impl Iterator<Item = (&str, &mut Table)> {
        self.tables
            .iter_mut()
            .map(|(n, t)| (n.as_str(), t.get_mut()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema(name: &str) -> TableSchema {
        TableSchema::builder(name).pk("id").build().unwrap()
    }

    #[test]
    fn create_and_lookup() {
        let mut c = Catalog::new();
        c.create_table(schema("a")).unwrap();
        c.create_table(schema("b")).unwrap();
        assert!(c.has_table("a"));
        assert_eq!(c.latch("a").unwrap().read().id(), 0);
        assert_eq!(c.latch("b").unwrap().read().id(), 1);
        assert_eq!(c.table_names(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut c = Catalog::new();
        c.create_table(schema("a")).unwrap();
        assert!(matches!(
            c.create_table(schema("a")),
            Err(StorageError::AlreadyExists(_))
        ));
    }

    #[test]
    fn unknown_table_error() {
        let c = Catalog::new();
        assert!(matches!(
            c.latch("ghost"),
            Err(StorageError::UnknownTable(_))
        ));
    }

    #[test]
    fn latch_cells_are_independent() {
        let mut c = Catalog::new();
        c.create_table(schema("a")).unwrap();
        c.create_table(schema("b")).unwrap();
        let _wa = c.latch("a").unwrap().write();
        // A writer on `a` must not block any access to `b`.
        let rb = c.latch("b").unwrap().try_read();
        assert!(rb.is_some(), "disjoint tables share no latch");
    }
}
