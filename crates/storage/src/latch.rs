//! Statement-scoped table latching: the middle level of the engine's
//! latch hierarchy.
//!
//! The hierarchy is: **catalog read-write latch** (one per database; DDL
//! and vacuum take it exclusively, every statement takes it shared) →
//! **per-table latches** (one [`parking_lot::RwLock`] cell per table,
//! owned by [`Catalog`]) → the lock manager's logical 2PL locks. A
//! statement computes the set of tables it can touch ([`LatchPlan`]),
//! then acquires their latches in canonical (sorted table-name) order
//! into a [`TableSet`], which is the only way executor code reaches a
//! [`Table`]. Statements on disjoint tables therefore never contend,
//! while a reader and a writer of the same table exclude each other for
//! the statement's duration — exactly the protection the old whole-engine
//! mutex provided, minus the false sharing.
//!
//! Deadlock freedom: every thread acquires in the fixed order *catalog
//! latch → table latches (sorted by name) → epoch mutex*, never the
//! reverse, and never blocks on a lock-manager lock while holding any
//! latch. Exclusive catalog holders ([`TableSet::exclusive`]) reach
//! tables through `&mut Catalog` and take no table latches at all.

use crate::catalog::Catalog;
use crate::error::{Result, StorageError};
use crate::lockmgr::LatchCounters;
use crate::query::Statement;
use crate::table::Table;
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::BTreeSet;

/// The tables a statement may touch, split by access mode. Computed
/// before execution from the statement shape alone — FROM/JOIN tables
/// for reads, the target table plus its foreign-key parents for writes —
/// so the latch set is complete before the first row is read.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub(crate) struct LatchPlan {
    /// Tables latched shared.
    pub read: BTreeSet<String>,
    /// Tables latched exclusive (wins over `read` on overlap).
    pub write: BTreeSet<String>,
}

impl LatchPlan {
    /// A plan writing exactly `tables`.
    pub fn writes<I: IntoIterator<Item = String>>(tables: I) -> Self {
        LatchPlan {
            read: BTreeSet::new(),
            write: tables.into_iter().collect(),
        }
    }

    /// The latch set for one write statement. Verifies every named table
    /// exists (the same [`StorageError::UnknownTable`] a statement would
    /// raise) and collects write targets' foreign-key parents, which
    /// constraint probes read during execution. Takes only brief
    /// one-at-a-time read latches to inspect schemas.
    pub fn for_statement(
        catalog: &Catalog,
        stmt: &Statement,
        counters: &LatchCounters,
    ) -> Result<LatchPlan> {
        let mut plan = LatchPlan::default();
        match stmt {
            Statement::Insert(ins) => {
                plan.write.insert(ins.table.clone());
                collect_fk_parents(catalog, &ins.table, &mut plan.read, counters)?;
            }
            Statement::Update(upd) => {
                plan.write.insert(upd.table.clone());
                collect_fk_parents(catalog, &upd.table, &mut plan.read, counters)?;
            }
            Statement::Delete(del) => {
                plan.write.insert(del.table.clone());
                catalog.latch(&del.table)?;
            }
            // Reads latch their prepared table list
            // ([`TableSet::latch_reads`]); DDL runs under the exclusive
            // catalog latch; transaction control never reaches statement
            // execution.
            Statement::Select(_)
            | Statement::Explain(_)
            | Statement::CreateTable(_)
            | Statement::CreateIndex { .. }
            | Statement::Begin
            | Statement::Commit
            | Statement::Rollback => {}
        }
        // Write mode covers read access; drop shadowed read entries so
        // each table is latched exactly once.
        plan.read = &plan.read - &plan.write;
        Ok(plan)
    }
}

/// Adds `table`'s foreign-key parent tables to `read` (the write latch
/// on `table` itself covers self-referential keys).
fn collect_fk_parents(
    catalog: &Catalog,
    table: &str,
    read: &mut BTreeSet<String>,
    counters: &LatchCounters,
) -> Result<()> {
    let guard = read_counted(catalog.latch(table)?, counters);
    for fk in guard.schema().foreign_keys() {
        if fk.ref_table != table {
            read.insert(fk.ref_table.clone());
        }
    }
    Ok(())
}

/// Acquires a table read latch, counting a wait if it blocks.
pub(crate) fn read_counted<'a>(
    cell: &'a RwLock<Table>,
    counters: &LatchCounters,
) -> RwLockReadGuard<'a, Table> {
    match cell.try_read() {
        Some(g) => g,
        None => {
            counters.note_table_read_wait();
            cell.read()
        }
    }
}

/// Acquires a table write latch, counting a wait if it blocks.
fn write_counted<'a>(
    cell: &'a RwLock<Table>,
    counters: &LatchCounters,
) -> RwLockWriteGuard<'a, Table> {
    match cell.try_write() {
        Some(g) => g,
        None => {
            counters.note_table_write_wait();
            cell.write()
        }
    }
}

enum Slot<'a> {
    Read(RwLockReadGuard<'a, Table>),
    Write(RwLockWriteGuard<'a, Table>),
    /// Direct borrow under the exclusive catalog latch (no table latch
    /// needed: catalog exclusivity already excludes every latch holder).
    Mut(&'a mut Table),
}

/// The latched tables one statement (or commit) executes against — the
/// executor's only window onto table data. Construction acquires the
/// latches; drop releases them. Lookup mirrors the old `Catalog` API
/// (`table` / `table_mut`) so executor code reads the same either way.
pub(crate) struct TableSet<'a> {
    /// Sorted by name; names borrow the catalog's keys, so building a
    /// set allocates nothing per table.
    slots: Vec<(&'a str, Slot<'a>)>,
    /// [`Catalog::version`] of the catalog the set was latched from —
    /// what prepared statements stamp their bound layouts with.
    catalog_version: u64,
}

impl<'a> TableSet<'a> {
    /// Latches `plan`'s tables in canonical (sorted-name) order — the
    /// global acquisition order that makes cross-statement deadlock
    /// impossible. The caller holds the catalog latch shared.
    pub fn latch(
        catalog: &'a Catalog,
        plan: &LatchPlan,
        counters: &LatchCounters,
    ) -> Result<TableSet<'a>> {
        let mut slots = Vec::with_capacity(plan.write.len() + plan.read.len());
        // BTreeSet union iterates in sorted order.
        for name in plan.write.union(&plan.read) {
            let (name, cell) = catalog.latch_entry(name)?;
            let slot = if plan.write.contains(name) {
                Slot::Write(write_counted(cell, counters))
            } else {
                Slot::Read(read_counted(cell, counters))
            };
            slots.push((name, slot));
        }
        Ok(TableSet {
            slots,
            catalog_version: catalog.version(),
        })
    }

    /// Read-latches `tables` — already sorted and deduplicated, as a
    /// prepared SELECT keeps its FROM/JOIN set — in that (canonical)
    /// order.
    pub fn latch_reads(
        catalog: &'a Catalog,
        tables: &[String],
        counters: &LatchCounters,
    ) -> Result<TableSet<'a>> {
        debug_assert!(tables.windows(2).all(|w| w[0] < w[1]));
        let mut slots = Vec::with_capacity(tables.len());
        for name in tables {
            let (name, cell) = catalog.latch_entry(name)?;
            slots.push((name, Slot::Read(read_counted(cell, counters))));
        }
        Ok(TableSet {
            slots,
            catalog_version: catalog.version(),
        })
    }

    /// Every table as a [`Slot::Mut`] borrow — the exclusive-mode view
    /// used under the catalog write latch (DDL-adjacent statements,
    /// trigger-firing commits).
    pub fn exclusive(catalog: &'a mut Catalog) -> TableSet<'a> {
        let catalog_version = catalog.version();
        TableSet {
            slots: catalog
                .tables_mut_named()
                .map(|(n, t)| (n, Slot::Mut(t)))
                .collect(),
            catalog_version,
        }
    }

    /// The structural version of the catalog these tables belong to.
    pub fn catalog_version(&self) -> u64 {
        self.catalog_version
    }

    /// Shared lookup.
    pub fn table(&self, name: &str) -> Result<&Table> {
        match self.slots.binary_search_by(|(n, _)| (*n).cmp(name)) {
            Ok(i) => Ok(match &self.slots[i].1 {
                Slot::Read(g) => g,
                Slot::Write(g) => g,
                Slot::Mut(t) => t,
            }),
            Err(_) => Err(StorageError::UnknownTable(name.to_owned())),
        }
    }

    /// Exclusive lookup; requires the table to be write-latched (a
    /// read-only slot here means the [`LatchPlan`] missed a write target
    /// — an engine bug, surfaced loudly instead of racing).
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        match self.slots.binary_search_by(|(n, _)| (*n).cmp(name)) {
            Ok(i) => match &mut self.slots[i].1 {
                Slot::Write(g) => Ok(g),
                Slot::Mut(t) => Ok(t),
                Slot::Read(_) => Err(StorageError::Unsupported(format!(
                    "internal: table '{name}' latched shared but written"
                ))),
            },
            Err(_) => Err(StorageError::UnknownTable(name.to_owned())),
        }
    }

    /// Latched table names in sorted order (diagnostics).
    #[cfg(test)]
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.slots.iter().map(|(n, _)| *n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableSchema;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        for name in ["a", "b", "c"] {
            c.create_table(TableSchema::builder(name).pk("id").build().unwrap())
                .unwrap();
        }
        c
    }

    #[test]
    fn latch_read_and_write_slots() {
        let c = catalog();
        let counters = LatchCounters::default();
        let plan = LatchPlan {
            read: BTreeSet::from(["a".to_owned()]),
            write: BTreeSet::from(["b".to_owned()]),
        };
        let mut set = TableSet::latch(&c, &plan, &counters).unwrap();
        assert!(set.table("a").is_ok());
        assert!(set.table("b").is_ok());
        assert!(set.table_mut("b").is_ok());
        assert!(set.table_mut("a").is_err(), "read slot refuses writes");
        assert!(set.table("c").is_err(), "unlatched table is invisible");
        // While held: `a` still admits readers, `b` admits nothing.
        assert!(c.latch("a").unwrap().try_read().is_some());
        assert!(c.latch("b").unwrap().try_read().is_none());
        drop(set);
        assert!(c.latch("b").unwrap().try_write().is_some());
    }

    #[test]
    fn exclusive_covers_all_tables() {
        let mut c = catalog();
        let mut set = TableSet::exclusive(&mut c);
        for name in ["a", "b", "c"] {
            assert!(set.table_mut(name).is_ok());
        }
        assert_eq!(set.names().collect::<Vec<_>>(), vec!["a", "b", "c"]);
    }

    #[test]
    fn write_shadow_drops_duplicate_read() {
        let c = catalog();
        let counters = LatchCounters::default();
        let stmt = crate::sql::parse("DELETE FROM a WHERE id = 1").unwrap();
        let plan = LatchPlan::for_statement(&c, &stmt, &counters).unwrap();
        assert!(plan.write.contains("a"));
        assert!(plan.read.is_empty());
    }

    #[test]
    fn unknown_table_fails_planning() {
        let c = catalog();
        let counters = LatchCounters::default();
        let stmt = crate::sql::parse("DELETE FROM ghost").unwrap();
        assert!(matches!(
            LatchPlan::for_statement(&c, &stmt, &counters),
            Err(StorageError::UnknownTable(_))
        ));
        assert!(matches!(
            TableSet::latch_reads(&c, &["ghost".to_owned()], &counters),
            Err(StorageError::UnknownTable(_))
        ));
    }
}
