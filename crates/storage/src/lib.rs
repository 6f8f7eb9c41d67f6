//! # genie-storage
//!
//! An embedded relational engine standing in for PostgreSQL in the
//! CacheGenie reproduction. It provides exactly the database surface the
//! paper's middleware depends on:
//!
//! * typed tables with primary keys, unique/secondary B-tree indexes, and
//!   foreign-key checks ([`TableSchema`], [`Table`]);
//! * a SQL-subset parser and a planner/executor covering the query shapes
//!   a Django-style ORM emits — point lookups, index scans, inner/left
//!   joins, aggregates, `ORDER BY ... LIMIT` ([`sql`], [`Select`]) —
//!   costed from banded row and key counts, so a kept plan survives
//!   every write that moves no band ([`Table::band_stamp`]), and with
//!   scan-shaped plans executed vectorized (~1024-row batches over a
//!   compiled predicate);
//! * **row-level AFTER triggers** fired synchronously inside write
//!   statements — the primitive CacheGenie uses to keep the cache
//!   consistent ([`Trigger`], [`TriggerCtx`]);
//! * thread-scoped transactions with undo-log rollback: **MVCC snapshot
//!   reads** (readers never block and never deadlock; see
//!   [`Table::visible`] and `docs/ISOLATION.md`) and one write rule,
//!   first-updater-wins: a write that meets another transaction's
//!   version of its row fails with [`StorageError::WriteConflict`], and
//!   writers never wait for each other inside a transaction
//!   ([`Database::transaction`], [`Database::begin_concurrent`]); all of
//!   it runs under a sharded latch hierarchy — catalog read-write latch
//!   over per-table latches — so statements on disjoint tables never
//!   serialize ([`Database::latch_stats`], `docs/ARCHITECTURE.md`);
//! * a buffer-pool *model* that classifies page touches as hits or misses
//!   and emits a per-statement [`CostReport`], which the benchmark harness
//!   prices into simulated time ([`BufferPool`]).
//!
//! # Example
//!
//! ```
//! use genie_storage::{Database, Trigger, TriggerEvent, Value};
//! use std::sync::{Arc, atomic::{AtomicU64, Ordering}};
//!
//! # fn main() -> Result<(), genie_storage::StorageError> {
//! let db = Database::default();
//! db.execute_sql("CREATE TABLE wall (post_id INT PRIMARY KEY, user_id INT NOT NULL)", &[])?;
//!
//! // A trigger that counts inserts — CacheGenie installs triggers like
//! // this to push cache updates.
//! let fired = Arc::new(AtomicU64::new(0));
//! let fired2 = Arc::clone(&fired);
//! db.create_trigger(Trigger::new(
//!     "count_inserts",
//!     "wall",
//!     TriggerEvent::Insert,
//!     move |_ctx: &mut genie_storage::TriggerCtx<'_>| {
//!         fired2.fetch_add(1, Ordering::SeqCst);
//!         Ok(())
//!     },
//! ))?;
//!
//! db.execute_sql("INSERT INTO wall VALUES (1, 42)", &[])?;
//! assert_eq!(fired.load(Ordering::SeqCst), 1);
//! # Ok(())
//! # }
//! ```

pub mod bufferpool;
pub mod catalog;
mod coalesce;
pub mod cost;
pub mod db;
pub mod error;
pub mod exec;
pub mod expr;
pub(crate) mod latch;
pub mod plan;
pub mod prepared;
pub mod query;
pub mod row;
pub mod schema;
pub mod sql;
pub mod table;
pub mod trigger;
pub mod value;
pub mod wal;

pub use bufferpool::{BufferPool, PageId, PoolStats};
pub use cost::CostReport;
pub use db::{
    CommitHook, ConcurrentTxn, Database, DbConfig, DbStats, DeferredPublish, ExecOutcome,
    LockStats, TxnHandle, TxnId, VersionStats,
};
pub use error::{Result, StorageError};
pub use expr::{ArithOp, CmpOp, ColumnRef, Expr};
pub use latch::LatchStats;
pub use plan::{AccessPath, Bound, JoinPlan, Plan, QueryPlan};
pub use prepared::PreparedSelect;
pub use query::{
    AggFunc, Delete, Insert, Join, JoinKind, OrderKey, QueryResult, Select, SelectItem, Statement,
    TableRef, Update,
};
pub use row::{Row, RowId};
pub use schema::{ColumnDef, ForeignKeyDef, IndexDef, TableSchema, TableSchemaBuilder};
pub use table::{Snapshot, Table};
pub use trigger::{Trigger, TriggerBody, TriggerCtx, TriggerEvent, TriggerManager};
pub use value::{Value, ValueType};
pub use wal::{CheckpointStats, RecoveryReport, WalConfig, WalStats};
