//! The public database facade.
//!
//! [`Database`] is a cheaply clonable handle (an `Arc` around the engine
//! state) exposing statement execution, DDL, triggers, and transactions.
//! Every call returns an [`ExecOutcome`] carrying both the logical result
//! and the physical [`CostReport`], which the benchmark harness prices into
//! simulated time.
//!
//! This file holds the facade — `Database`, the latched `Engine` core and
//! the `EngineShared` state outside the latches — with the statement API
//! and the statistics. The rest of the engine sits in submodules, along the write
//! path's seams:
//!
//! * `db/txn.rs` — open transactions, BEGIN and ROLLBACK, and the
//!   [`ConcurrentTxn`] / [`TxnHandle`] guards;
//! * `db/commit.rs` — the one commit path, shared by COMMIT and every
//!   autocommitted write: the fire predicate, the latch escalation, the
//!   latched commit step (trigger bracket, epoch stamp, redo record,
//!   vacuum cadence) and the post-latch epilogue;
//! * `db/recovery.rs` — durable open, log replay, checkpoints and
//!   [`Database::content_digest`].
//!
//! # Concurrency model (latch hierarchy + MVCC + one write rule)
//!
//! The engine protects physical structures with short-duration
//! **latches** and takes no transaction-duration locks at all: readers
//! read snapshots, and writers meet each other only at the
//! first-updater-wins gate (see `docs/ISOLATION.md` for the isolation
//! model and `docs/ARCHITECTURE.md` for the latch hierarchy):
//!
//! * Latches form a three-level hierarchy: a **catalog read-write
//!   latch** (DDL, vacuum and trigger-firing commits take it
//!   exclusively; every other statement takes it shared), **per-table
//!   latches** acquired in canonical sorted-name order from the
//!   statement's planned table set ([`crate::catalog::Catalog`]), and an
//!   **epoch mutex** serializing commit-epoch allocation. Statements on
//!   disjoint tables execute fully in parallel. Every thread acquires
//!   strictly downward in that order and never waits for another
//!   transaction while holding any latch, so the hierarchy cannot
//!   deadlock.
//! * **Reads are lock-free snapshot reads.** Every transaction pins the
//!   current commit epoch at `BEGIN`; every autocommit statement pins
//!   the latest committed epoch *after* latching its tables. Scans and
//!   probes resolve row versions against that snapshot
//!   ([`crate::Table::visible`]), so readers never wait behind writer
//!   transactions and can never deadlock.
//! * **One write rule: first-updater-wins.** A write that meets a
//!   version of its row the writer's snapshot cannot see — another
//!   transaction's uncommitted write, or a commit after the snapshot —
//!   fails the statement with [`StorageError::WriteConflict`] at once;
//!   a transaction's statement never waits, so writers cannot deadlock.
//!   An autocommitted write has no snapshot to keep: having undone its
//!   own effects, it waits until some transaction finishes and retries
//!   at the latest epoch. It holds nothing while it waits, so no wait
//!   cycle can form.
//! * Transactions are **thread-scoped**: `BEGIN` binds a transaction to
//!   the calling thread, and subsequent statements from that thread join
//!   it, so N threads drive N concurrent transactions through one shared
//!   [`Database`] handle (see [`Database::begin_concurrent`], whose guard
//!   cannot leave its thread).
//! * **One commit path.** An autocommitted write is a one-statement
//!   transaction: it and COMMIT write-latch exactly the tables written
//!   (the whole catalog when a trigger fires), fire the coalesced
//!   triggers against the *commit-point snapshot* (latest committed
//!   state plus the commit's own writes — never another transaction's
//!   in-flight rows), stamp every written version with the new commit
//!   epoch under the epoch mutex, publish the epoch, and only then —
//!   after releasing the latches — run the [`CommitHook`]'s deferred
//!   cache publication; the hook orders per-key publication by commit
//!   order, so two committing writers can never interleave physical cache
//!   operations on one key.
//! * Old row versions are reclaimed by [`Database::vacuum`] (also run
//!   inline every few hundred commits, after the committing statement
//!   has dropped all latches): only versions invisible to the
//!   oldest live snapshot are pruned, so a long-running reader pins the
//!   horizon instead of ever seeing a row disappear.
//! * **Durability is optional** and changes the commit path's tail: a
//!   database opened with [`Database::create_durable`] /
//!   [`Database::open_with_recovery`] serializes each writing commit's
//!   net row changes into a redo record, enqueues it on the group-commit
//!   log writer *under the epoch mutex* (so log order equals epoch
//!   order), stamps its versions, and only **publishes** the epoch to
//!   readers after the record is durable — the log's prefix-durability
//!   guarantee means no reader can ever observe a commit a crash could
//!   still lose, and the deferred cache publication runs strictly after
//!   durability. See `docs/DURABILITY.md` for the log format, the
//!   checkpoint/truncation protocol, and the recovery invariants.

mod commit;
mod recovery;
mod txn;

pub use txn::{ConcurrentTxn, TxnHandle, TxnId};

use crate::bufferpool::{BufferPool, PoolStats};
use crate::catalog::Catalog;
use crate::cost::CostReport;
use crate::error::{Result, StorageError};
use crate::exec::{self, ExecView, WriteEffect};
use crate::latch::{LatchCounters, LatchPlan, LatchStats, TableSet};
use crate::prepared::{PreparedSelect, StatementCache};
use crate::query::{QueryResult, Select, Statement};
use crate::schema::{IndexDef, TableSchema};
use crate::table::Snapshot;
use crate::trigger::{Trigger, TriggerManager};
use crate::value::Value;
use crate::wal::{self, Wal};
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, PoisonError};
use txn::TxnTable;

/// Deferred cache-publication step returned by [`CommitHook::commit_apply`].
/// The engine runs it after releasing its latches (but before booking
/// the commit as finished), so slow external effects never serialize
/// unrelated statements. It returns the cache operations it
/// performed for the commit's [`CostReport::trigger_cache_ops`]; the
/// engine drops it unrun when the commit fails after sealing.
pub type DeferredPublish = Option<Box<dyn FnOnce() -> u64 + Send>>;

/// Observer of the commit-time effect pipeline. Registered by middleware
/// (CacheGenie) that turns trigger work into external cache effects: the
/// engine brackets commit-time trigger firing with these callbacks so the
/// middleware can buffer effects and publish them atomically — committed
/// transactions publish exactly once, aborted ones publish nothing.
pub trait CommitHook: Send + Sync {
    /// Called before commit-time triggers fire. Effects produced by
    /// trigger bodies until the matching [`CommitHook::commit_apply`] /
    /// [`CommitHook::abort_apply`] should be buffered, not published.
    fn begin_apply(&self);

    /// Called after every commit-time trigger fired successfully, still
    /// under the commit's latches. The hook seals the buffered effects,
    /// may rewrite `cost`'s cache-op counters to the physical (coalesced)
    /// numbers (`txn_commit` distinguishes a transaction's COMMIT from
    /// a single autocommitted statement, which keeps its per-statement
    /// accounting), and returns the deferred publication step the engine
    /// runs once the latches are released. Returning an error aborts the
    /// transaction — the hook must have discarded its buffer before
    /// returning it.
    ///
    /// # Errors
    ///
    /// Any error (e.g. a strict-mode lock timeout) aborts the commit.
    fn commit_apply(&self, cost: &mut CostReport, txn_commit: bool) -> Result<DeferredPublish>;

    /// Called when the transaction aborts after `begin_apply` (a trigger
    /// body failed). The hook discards the buffered effects.
    fn abort_apply(&self);
}

/// Tuning knobs for a [`Database`].
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// Buffer-pool capacity in bytes (the paper's DB machine has 2 GB for
    /// a 10 GB dataset; scaled-down experiments shrink both).
    /// Pages are [`BufferPool::DEFAULT_PAGE_BYTES`] each.
    pub buffer_pool_bytes: usize,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            buffer_pool_bytes: 64 * 1024 * 1024,
        }
    }
}

/// Aggregate engine statistics since the last reset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbStats {
    /// Statements executed (all kinds).
    pub statements: u64,
    /// SELECTs executed.
    pub selects: u64,
    /// Write statements executed.
    pub writes: u64,
    /// Trigger bodies fired.
    pub triggers_fired: u64,
    /// Transactions committed.
    pub commits: u64,
    /// Transactions rolled back.
    pub rollbacks: u64,
}

/// Write-write waits since the last reset (see [`Database::lock_stats`]).
/// The engine has no lock manager; the two fields survive for the
/// benchmark ledger, which reports them (ROADMAP item 2 drops both).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockStats {
    /// Autocommitted writes that met another transaction's unfinished
    /// version of their row and waited for a writer to finish.
    pub waits: u64,
    /// Always 0: writers never wait inside a transaction, so no wait
    /// cycle can form.
    pub deadlocks: u64,
}

/// Lock-free engine counters. Statements on disjoint tables run fully in
/// parallel, so bookkeeping cannot live behind any latch — each counter
/// is an independent atomic, snapshotted into [`DbStats`] on demand.
#[derive(Debug, Default)]
struct DbCounters {
    statements: AtomicU64,
    selects: AtomicU64,
    writes: AtomicU64,
    triggers_fired: AtomicU64,
    commits: AtomicU64,
    rollbacks: AtomicU64,
}

impl DbCounters {
    fn snapshot(&self) -> DbStats {
        DbStats {
            statements: self.statements.load(Ordering::Relaxed),
            selects: self.selects.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            triggers_fired: self.triggers_fired.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
            rollbacks: self.rollbacks.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        self.statements.store(0, Ordering::Relaxed);
        self.selects.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
        self.triggers_fired.store(0, Ordering::Relaxed);
        self.commits.store(0, Ordering::Relaxed);
        self.rollbacks.store(0, Ordering::Relaxed);
    }
}

/// Retained MVCC version state (see [`Database::version_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VersionStats {
    /// Superseded committed versions still reachable by some snapshot
    /// (or awaiting vacuum).
    pub history_versions: u64,
    /// Heap rows carrying explicit version metadata (uncommitted writes
    /// plus committed rows vacuum has not yet settled).
    pub versioned_rows: u64,
}

/// Result + physical cost of one statement.
#[derive(Debug, Clone, Default)]
pub struct ExecOutcome {
    /// Logical result (rows or affected count).
    pub result: QueryResult,
    /// Physical work performed, including trigger work.
    pub cost: CostReport,
}

/// The latched engine core: catalog (tables behind per-table latch
/// cells), buffer pool (internally synchronized), triggers and the
/// commit hook (read-mostly registries behind their own `RwLock`s), and
/// the engine-wide counters. The catalog `RwLock` is the root of the
/// latch hierarchy — see the module docs.
struct Engine {
    catalog: RwLock<Catalog>,
    pool: BufferPool,
    triggers: RwLock<TriggerManager>,
    commit_hook: RwLock<Option<Arc<dyn CommitHook>>>,
    counters: DbCounters,
    /// Latch contention counters (see [`Database::latch_stats`]). The
    /// concurrency audit asserts zero table-latch waits for workloads on
    /// disjoint tables.
    latches: LatchCounters,
    /// Serializes commit-epoch allocation: two commits on disjoint
    /// tables hold no common table latch, so without this mutex both
    /// could stamp their versions at the same epoch. Taken strictly
    /// below every other latch, held only for the stamp-and-publish
    /// instant.
    epoch_mutex: Mutex<()>,
    /// Prepared form of every SELECT that arrived as a bare statement.
    statements: StatementCache,
}

impl Engine {
    /// Shared catalog latch, counting a wait if it blocks (a DDL or
    /// vacuum holds it exclusively).
    fn catalog_read(&self) -> RwLockReadGuard<'_, Catalog> {
        match self.catalog.try_read() {
            Some(g) => g,
            None => {
                self.latches.note_catalog_read_wait();
                self.catalog.read()
            }
        }
    }

    /// Exclusive catalog latch, counting a wait if it blocks.
    fn catalog_write(&self) -> RwLockWriteGuard<'_, Catalog> {
        match self.catalog.try_write() {
            Some(g) => g,
            None => {
                self.latches.note_catalog_write_wait();
                self.catalog.write()
            }
        }
    }
}

/// State shared outside the latches: the thread-keyed transaction map,
/// the epochs and the finished-transaction count. Taking these leaf
/// mutexes while holding a latch is allowed; the reverse order (blocking
/// on a latch while holding one of them) is not, and no code path does
/// it.
struct EngineShared {
    txns: TxnTable,
    next_tid: AtomicU64,
    /// BEGIN/COMMIT/ROLLBACK statements executed — counted outside the
    /// latches so transaction control never serializes behind an
    /// unrelated statement just to bump a counter. Folded into
    /// [`DbStats::statements`] by [`Database::stats`].
    ctrl_statements: AtomicU64,
    /// Latest **published** committed epoch. Read lock-free by BEGIN and
    /// autocommit statements. Without a durable log it is bumped under
    /// the epoch mutex right after the commit stamps its versions —
    /// while the commit still write-latches every table it touched — so
    /// a snapshot at epoch E always sees a fully stamped state on any
    /// table it latches. With a log it lags [`EngineShared::next_epoch`]:
    /// each committer publishes its own epoch (`fetch_max`) only once
    /// its redo record is durable, so a snapshot can never include a
    /// commit a crash could still lose.
    commit_epoch: AtomicU64,
    /// Highest **allocated** (stamped) epoch. Epochs are allocated and
    /// stamped under the epoch mutex; publication into
    /// [`EngineShared::commit_epoch`] may trail by the log's group-commit
    /// latency. Equal to `commit_epoch` whenever the log is idle (or
    /// absent).
    next_epoch: AtomicU64,
    /// The durable redo log; `None` for a purely in-memory database.
    wal: Option<Arc<Wal>>,
    /// Refcounted epochs of open transactions' snapshots; the minimum is
    /// the vacuum horizon. Autocommit statements hold the shared catalog
    /// latch for their whole execution (which vacuum needs exclusively),
    /// so they never register.
    live_snaps: Mutex<BTreeMap<u64, u64>>,
    /// Write commits since the last inline vacuum sweep.
    commits_since_vacuum: AtomicU64,
    /// Transactions finished: committed (epoch published, cache
    /// publication run) or rolled back. An autocommitted write that met
    /// a conflicting writer waits on `finished_cv` until this moves past
    /// the count it read before its attempt.
    finished: std::sync::Mutex<u64>,
    finished_cv: Condvar,
    /// Autocommitted writes that waited (see [`LockStats::waits`]).
    write_waits: AtomicU64,
}

impl EngineShared {
    fn alloc_tid(&self) -> TxnId {
        self.next_tid.fetch_add(1, Ordering::Relaxed)
    }

    /// The count of finished transactions.
    fn finished(&self) -> u64 {
        *self.finished.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Books one finished transaction and wakes every waiting write.
    fn note_finished(&self) {
        *self.finished.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        self.finished_cv.notify_all();
    }

    /// Parks until a transaction finishes after the count `seen` was
    /// read.
    fn await_finished(&self, seen: u64) {
        let finished = self.finished.lock().unwrap_or_else(PoisonError::into_inner);
        let _finished = self
            .finished_cv
            .wait_while(finished, |n| *n == seen)
            .unwrap_or_else(PoisonError::into_inner);
    }
}

/// The table a write statement targets, if it is a write.
fn write_target(stmt: &Statement) -> Option<&str> {
    match stmt {
        Statement::Insert(i) => Some(&i.table),
        Statement::Update(u) => Some(&u.table),
        Statement::Delete(d) => Some(&d.table),
        _ => None,
    }
}

/// An embedded relational database with row-level triggers.
///
/// Cloning shares the underlying engine. Statements from different
/// threads interleave under table latches and snapshot isolation (see
/// the module docs); a single thread sees strictly serial behaviour.
///
/// # Example
///
/// ```
/// use genie_storage::{Database, TableSchema, ColumnDef, ValueType, Statement, Insert, Select, Expr, row, Value};
///
/// # fn main() -> Result<(), genie_storage::StorageError> {
/// let db = Database::default();
/// db.create_table(
///     TableSchema::builder("users")
///         .pk("id")
///         .column(ColumnDef::new("name", ValueType::Text).not_null())
///         .build()?,
/// )?;
/// db.execute_sql("INSERT INTO users (id, name) VALUES (1, 'alice')", &[])?;
/// let out = db.execute_sql("SELECT name FROM users WHERE id = $1", &[Value::Int(1)])?;
/// assert_eq!(out.result.rows[0].get(0), &Value::Text("alice".into()));
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Database {
    engine: Arc<Engine>,
    shared: Arc<EngineShared>,
}

impl Default for Database {
    fn default() -> Self {
        Database::new(DbConfig::default())
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let catalog = self.engine.catalog_read();
        f.debug_struct("Database")
            .field("tables", &catalog.table_names())
            .field("triggers", &self.engine.triggers.read().len())
            .finish()
    }
}

impl Database {
    /// Creates an in-memory database with the given configuration (no
    /// durability; see [`Database::create_durable`]).
    pub fn new(config: DbConfig) -> Self {
        Database::build(config, None)
    }

    fn build(config: DbConfig, wal: Option<Arc<Wal>>) -> Self {
        Database {
            engine: Arc::new(Engine {
                catalog: RwLock::new(Catalog::new()),
                pool: BufferPool::new(config.buffer_pool_bytes, BufferPool::DEFAULT_PAGE_BYTES),
                triggers: RwLock::new(TriggerManager::new()),
                commit_hook: RwLock::new(None),
                counters: DbCounters::default(),
                latches: LatchCounters::default(),
                epoch_mutex: Mutex::new(()),
                statements: StatementCache::default(),
            }),
            shared: Arc::new(EngineShared {
                txns: TxnTable::new(),
                next_tid: AtomicU64::new(1),
                ctrl_statements: AtomicU64::new(0),
                commit_epoch: AtomicU64::new(0),
                next_epoch: AtomicU64::new(0),
                wal,
                live_snaps: Mutex::new(BTreeMap::new()),
                commits_since_vacuum: AtomicU64::new(0),
                finished: std::sync::Mutex::new(0),
                finished_cv: Condvar::new(),
                write_waits: AtomicU64::new(0),
            }),
        }
    }

    // ----- DDL -----

    /// Creates a table. DDL takes the exclusive catalog latch, waiting
    /// out every in-flight statement and excluded by none afterwards —
    /// safe to run concurrently with traffic on other tables. On a
    /// durable database the schema is logged (and synced) before this
    /// returns, still under the latch, so no commit record can ever
    /// precede the record of the table it writes to.
    ///
    /// # Errors
    ///
    /// [`StorageError::AlreadyExists`] for duplicate names;
    /// [`StorageError::Wal`] if the log rejects the append (fail-stop).
    pub fn create_table(&self, schema: TableSchema) -> Result<()> {
        self.run_ddl(Ddl::Table(schema), false).map(|_| ())
    }

    /// Creates a secondary index (exclusive catalog latch, like all DDL;
    /// logged before returning on a durable database).
    ///
    /// # Errors
    ///
    /// See [`crate::Table::create_index`]; [`StorageError::Wal`] if the
    /// log rejects the append (fail-stop).
    pub fn create_index(&self, table: &str, def: IndexDef) -> Result<()> {
        self.run_ddl(Ddl::Index(table, def), false).map(|_| ())
    }

    /// The one DDL path, behind the `create_*` methods and the `CREATE`
    /// statements: apply the change and enqueue its log record under the
    /// exclusive catalog latch, then wait for the record to be durable.
    /// A `statement` counts toward [`DbStats::statements`]; a method call
    /// does not.
    fn run_ddl(&self, ddl: Ddl<'_>, statement: bool) -> Result<ExecOutcome> {
        if statement {
            self.engine
                .counters
                .statements
                .fetch_add(1, Ordering::Relaxed);
        }
        let wal = self.shared.wal.as_ref();
        let ticket = {
            let mut catalog = self.engine.catalog_write();
            let record = match ddl {
                Ddl::Table(schema) => {
                    let record = wal.map(|_| wal::encode_create_table(&schema));
                    catalog.create_table(schema)?;
                    record
                }
                Ddl::Index(table, def) => {
                    let record = wal.map(|_| wal::encode_create_index(table, &def));
                    catalog.create_index(table, def)?;
                    record
                }
            };
            match (wal, record) {
                (Some(w), Some(r)) => Some(w.enqueue(r, 0)?),
                _ => None,
            }
        };
        let mut out = ExecOutcome::default();
        if let Some(t) = ticket {
            out.cost.wal_syncs += self.wait_ticket(&t)?;
            out.cost.wal_bytes += t.bytes;
        }
        Ok(out)
    }

    /// Registers a trigger.
    ///
    /// # Errors
    ///
    /// [`StorageError::AlreadyExists`] on duplicate trigger names.
    pub fn create_trigger(&self, trigger: Trigger) -> Result<()> {
        self.engine.triggers.write().register(trigger)
    }

    /// Drops a trigger by name; returns whether it existed.
    pub fn drop_trigger(&self, name: &str) -> bool {
        self.engine.triggers.write().drop_trigger(name)
    }

    /// Removes every trigger.
    pub fn clear_triggers(&self) {
        self.engine.triggers.write().clear();
    }

    /// Globally enables or disables trigger firing (Experiment 5 measures
    /// the workload with triggers off).
    pub fn set_triggers_enabled(&self, enabled: bool) {
        self.engine.triggers.write().set_enabled(enabled);
    }

    /// Number of registered triggers.
    pub fn trigger_count(&self) -> usize {
        self.engine.triggers.read().len()
    }

    /// Registers the commit-time effect hook (CacheGenie's cache-batch
    /// pipeline). Replaces any previous hook.
    pub fn set_commit_hook(&self, hook: Arc<dyn CommitHook>) {
        *self.engine.commit_hook.write() = Some(hook);
    }

    /// True while the **calling thread** has an explicit transaction
    /// open. Middleware uses this to defer cache publication (reads
    /// bypass the cache so uncommitted data never becomes visible to
    /// other clients); other threads' transactions do not affect the
    /// answer.
    pub fn in_transaction(&self) -> bool {
        self.shared.txns.has(std::thread::current().id())
    }

    /// Total lines of generated trigger source attached to registered
    /// triggers (the paper's §5.2 metric).
    pub fn trigger_source_lines(&self) -> usize {
        self.engine.triggers.read().generated_source_lines()
    }

    /// Latch contention counters since the last [`Database::reset_stats`].
    pub fn latch_stats(&self) -> LatchStats {
        self.engine.latches.snapshot()
    }

    // ----- statements -----

    /// Executes any statement with positional parameters (`$1` = index 0).
    ///
    /// Statements join the calling thread's open transaction if one
    /// exists; otherwise they autocommit (triggers fired immediately; a
    /// write that meets another transaction's unfinished version of its
    /// row waits for a writer to finish and retries).
    ///
    /// # Errors
    ///
    /// All engine errors; a failing trigger aborts the whole statement and
    /// (when autocommitted) rolls back its row changes. Inside a
    /// transaction, [`StorageError::WriteConflict`] means another writer
    /// got to a row first — roll the transaction back and retry it.
    pub fn execute(&self, stmt: &Statement, params: &[Value]) -> Result<ExecOutcome> {
        let thread = std::thread::current().id();
        match stmt {
            Statement::Begin => {
                self.shared.ctrl_statements.fetch_add(1, Ordering::Relaxed);
                self.begin_txn()?;
                Ok(ExecOutcome::default())
            }
            Statement::Commit => {
                self.shared.ctrl_statements.fetch_add(1, Ordering::Relaxed);
                let cost = self.commit_txn_for(thread, None)?;
                Ok(ExecOutcome {
                    result: QueryResult::default(),
                    cost,
                })
            }
            Statement::Rollback => {
                self.shared.ctrl_statements.fetch_add(1, Ordering::Relaxed);
                self.rollback_txn_for(thread, None)?;
                Ok(ExecOutcome::default())
            }
            Statement::CreateTable(schema) => self.run_ddl(Ddl::Table(schema.clone()), true),
            Statement::CreateIndex { table, def } => {
                self.run_ddl(Ddl::Index(table, def.clone()), true)
            }
            Statement::Select(select) => self.select(select, params),
            Statement::Explain(select) => {
                let plan = self.explain(select, params)?;
                self.engine
                    .counters
                    .statements
                    .fetch_add(1, Ordering::Relaxed);
                let rows = plan
                    .lines()
                    .into_iter()
                    .map(|l| crate::row::Row::new(vec![Value::Text(l)]))
                    .collect();
                Ok(ExecOutcome {
                    result: QueryResult {
                        columns: ["QUERY PLAN".to_owned()].into(),
                        rows,
                        rows_affected: 0,
                    },
                    cost: CostReport::new(),
                })
            }
            Statement::Insert(_) | Statement::Update(_) | Statement::Delete(_) => {
                self.run_write(stmt, params)
            }
        }
    }

    /// Parses and executes SQL text.
    ///
    /// # Errors
    ///
    /// [`StorageError::Parse`] for malformed SQL plus all execution errors.
    pub fn execute_sql(&self, sql: &str, params: &[Value]) -> Result<ExecOutcome> {
        let stmt = crate::sql::parse(sql)?;
        self.execute(&stmt, params)
    }

    /// Runs a SELECT: [`Database::prepare`] + [`Database::execute_prepared`].
    ///
    /// # Errors
    ///
    /// Same as [`Database::execute`].
    pub fn select(&self, select: &Select, params: &[Value]) -> Result<ExecOutcome> {
        self.execute_prepared(&self.prepare(select), params)
    }

    /// The prepared form of `select`, from the engine's statement cache —
    /// the same handle for every structurally identical statement, so
    /// everything that depends on the statement's shape alone (latch set,
    /// bound layouts and expressions, and while the data allows it the
    /// plan) is computed once. Callers that run one statement many times
    /// keep the handle and skip even the cache lookup. See
    /// [`crate::prepared`].
    pub fn prepare(&self, select: &Select) -> PreparedSelect {
        self.engine.statements.get(select)
    }

    /// Statements currently held by the statement cache (bounded; see
    /// [`crate::prepared`]).
    pub fn statement_cache_len(&self) -> usize {
        self.engine.statements.len()
    }

    /// Executes a prepared SELECT with positional parameters — the one
    /// way a SELECT runs. Joins the calling thread's open transaction if
    /// one exists (reading its pinned snapshot plus its own writes);
    /// otherwise reads the latest committed epoch. Takes no locks and,
    /// while no transaction is open on the engine, no mutex.
    ///
    /// # Errors
    ///
    /// Unknown tables and columns, expression evaluation errors.
    pub fn execute_prepared(
        &self,
        prepared: &PreparedSelect,
        params: &[Value],
    ) -> Result<ExecOutcome> {
        let slot = self.checkout_txn();
        let txn = slot.state.as_ref();
        let engine = &*self.engine;
        let catalog = engine.catalog_read();
        let tables = TableSet::latch_reads(&catalog, prepared.tables(), &engine.latches)?;
        engine.counters.statements.fetch_add(1, Ordering::Relaxed);
        engine.counters.selects.fetch_add(1, Ordering::Relaxed);
        // Autocommit reads the latest committed epoch, loaded *after*
        // latching so the epoch's versions are fully visible on every
        // latched table.
        let snap = match txn {
            Some(t) => Snapshot {
                epoch: t.snap,
                writer: Some(t.tid),
            },
            None => Snapshot {
                epoch: self.shared.commit_epoch.load(Ordering::Acquire),
                writer: None,
            },
        };
        let mut cost = CostReport::new();
        let result = exec::run_prepared(&tables, &engine.pool, prepared, params, &mut cost, &snap)?;
        Ok(ExecOutcome { result, cost })
    }

    /// Runs `f` inside a transaction on the calling thread, committing on
    /// `Ok` and rolling back on `Err`. The transaction reads a snapshot
    /// pinned at entry (plus its own writes); writers elsewhere neither
    /// block its reads nor leak in-flight rows into them. Its writes
    /// never wait: a row another transaction got to first fails the
    /// statement with [`StorageError::WriteConflict`].
    ///
    /// # Example
    ///
    /// ```
    /// use genie_storage::{Database, StorageError, Value};
    ///
    /// # fn main() -> Result<(), StorageError> {
    /// let db = Database::default();
    /// db.execute_sql("CREATE TABLE acct (id INT PRIMARY KEY, bal INT)", &[])?;
    /// db.execute_sql("INSERT INTO acct VALUES (1, 100), (2, 100)", &[])?;
    /// db.transaction(|t| {
    ///     t.execute_sql("UPDATE acct SET bal = bal - 10 WHERE id = 1", &[])?;
    ///     t.execute_sql("UPDATE acct SET bal = bal + 10 WHERE id = 2", &[])?;
    ///     Ok(())
    /// })?;
    /// // An error rolls everything back:
    /// let r: Result<(), _> = db.transaction(|t| {
    ///     t.execute_sql("UPDATE acct SET bal = 0 WHERE id = 1", &[])?;
    ///     Err(StorageError::Eval("boom".into()))
    /// });
    /// assert!(r.is_err());
    /// let out = db.execute_sql("SELECT bal FROM acct WHERE id = 1", &[])?;
    /// assert_eq!(out.result.rows[0].get(0), &Value::Int(90));
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns `f`'s error after rollback, or any commit-time error.
    /// [`StorageError::WriteConflict`] means the transaction lost a race
    /// — retry it on a fresh snapshot.
    pub fn transaction<T>(&self, f: impl FnOnce(&mut TxnHandle<'_>) -> Result<T>) -> Result<T> {
        // The guard rolls back when dropped — also when `f` panics, so
        // the transaction's uncommitted versions never outlive it
        // (autocommitted writes waiting on them have no timeout).
        let txn = self.begin_concurrent()?;
        let result = f(&mut TxnHandle::new(self));
        match result {
            Ok(v) => txn.commit().map(|_| v),
            Err(e) => {
                txn.rollback()?;
                Err(e)
            }
        }
    }

    /// Opens an explicit transaction bound to the calling thread and
    /// returns a guard for it — the multi-writer API: clone the
    /// [`Database`] into N threads and give each its own concurrent
    /// transaction. Dropping the guard without committing rolls back.
    ///
    /// # Example
    ///
    /// ```
    /// use genie_storage::{Database, Value};
    ///
    /// # fn main() -> Result<(), genie_storage::StorageError> {
    /// let db = Database::default();
    /// db.execute_sql("CREATE TABLE t (id INT PRIMARY KEY, n INT)", &[])?;
    /// let mut txn = db.begin_concurrent()?;
    /// txn.execute_sql("INSERT INTO t VALUES (1, 10)", &[])?;
    /// txn.commit()?;
    /// assert_eq!(db.row_count("t")?, 1);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// [`StorageError::TransactionAborted`] if this thread already has a
    /// transaction open.
    pub fn begin_concurrent(&self) -> Result<ConcurrentTxn> {
        let tid = self.begin_txn()?;
        Ok(ConcurrentTxn::new(self.clone(), tid))
    }

    // ----- introspection -----

    /// EXPLAIN: returns the whole-query [`QueryPlan`](crate::plan::QueryPlan)
    /// the planner would choose for `select` — the FROM table's access
    /// path, each join's probe key, ORDER BY / LIMIT handling — without
    /// executing anything. `params` fills `$n` holes referenced by the
    /// predicate (pass the same vector you would execute with).
    ///
    /// # Errors
    ///
    /// [`StorageError::UnknownTable`] for an unknown FROM/JOIN table, plus
    /// any predicate-evaluation error (e.g. a missing parameter).
    pub fn explain(&self, select: &Select, params: &[Value]) -> Result<crate::plan::QueryPlan> {
        self.explain_prepared(&self.prepare(select), params)
    }

    /// [`Database::explain`] for a statement the caller holds prepared:
    /// the plan [`Database::execute_prepared`] would run for `params`.
    ///
    /// # Errors
    ///
    /// Same as [`Database::explain`].
    pub fn explain_prepared(
        &self,
        prepared: &PreparedSelect,
        params: &[Value],
    ) -> Result<crate::plan::QueryPlan> {
        let engine = &*self.engine;
        let catalog = engine.catalog_read();
        let tables = TableSet::latch_reads(&catalog, prepared.tables(), &engine.latches)?;
        prepared.explain(&tables, params)
    }

    /// Parses `sql` (a SELECT, or an `EXPLAIN SELECT`) and explains it.
    ///
    /// # Errors
    ///
    /// Parse errors, non-SELECT statements, and the errors of
    /// [`Database::explain`].
    pub fn explain_sql(&self, sql: &str, params: &[Value]) -> Result<crate::plan::QueryPlan> {
        match crate::sql::parse(sql)? {
            Statement::Select(sel) | Statement::Explain(sel) => self.explain(&sel, params),
            other => Err(StorageError::Unsupported(format!(
                "EXPLAIN of non-SELECT statement {other:?}"
            ))),
        }
    }

    /// Engine statistics.
    pub fn stats(&self) -> DbStats {
        let mut stats = self.engine.counters.snapshot();
        stats.statements += self.shared.ctrl_statements.load(Ordering::Relaxed);
        stats
    }

    /// Write-write wait statistics (see [`LockStats`]).
    pub fn lock_stats(&self) -> LockStats {
        LockStats {
            waits: self.shared.write_waits.load(Ordering::Relaxed),
            deadlocks: 0,
        }
    }

    // ----- MVCC introspection & maintenance -----

    /// The latest committed epoch. Every write commit advances it by
    /// one; snapshots are pinned epochs. Middleware uses it to reason
    /// about fill freshness (a cache fill built from a read at epoch E
    /// is stale once a later commit touched its key — the lease
    /// protocol revokes it).
    pub fn commit_epoch(&self) -> u64 {
        self.shared.commit_epoch.load(Ordering::Acquire)
    }

    /// The oldest epoch a live transaction snapshot still reads at,
    /// if any transaction is open — the vacuum horizon pin.
    pub fn oldest_live_snapshot(&self) -> Option<u64> {
        self.shared.live_snaps.lock().keys().next().copied()
    }

    /// Reclaims row versions no live snapshot can see. Runs inline every
    /// few hundred commits too (after the triggering statement has
    /// dropped every latch); call it explicitly after bulk
    /// churn or in tests. Returns the number of versions pruned.
    ///
    /// Takes the exclusive catalog latch, so it waits out in-flight
    /// statements and reaches all tables without touching per-table
    /// latches. A long-running reader transaction pins the horizon:
    /// versions it can still see survive any number of vacuum calls.
    ///
    /// # Example
    ///
    /// ```
    /// use genie_storage::{Database, Value};
    ///
    /// # fn main() -> Result<(), genie_storage::StorageError> {
    /// let db = Database::default();
    /// db.execute_sql("CREATE TABLE t (id INT PRIMARY KEY, n INT)", &[])?;
    /// db.execute_sql("INSERT INTO t VALUES (1, 10)", &[])?;
    /// // Each committed update supersedes a version.
    /// db.execute_sql("UPDATE t SET n = 11 WHERE id = 1", &[])?;
    /// db.execute_sql("UPDATE t SET n = 12 WHERE id = 1", &[])?;
    /// assert!(db.version_stats().history_versions > 0);
    /// db.vacuum();
    /// // No snapshot is open, so all superseded versions are gone.
    /// assert_eq!(db.version_stats().history_versions, 0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn vacuum(&self) -> u64 {
        let mut catalog = self.engine.catalog_write();
        self.shared.commits_since_vacuum.store(0, Ordering::Relaxed);
        let horizon = self.vacuum_horizon();
        let mut pruned = 0;
        for table in catalog.tables_mut() {
            pruned += table.vacuum(horizon);
        }
        pruned
    }

    /// Point-in-time counts of retained version state (diagnostics,
    /// vacuum tests, and the MVCC benchmark).
    pub fn version_stats(&self) -> VersionStats {
        let catalog = self.engine.catalog_read();
        let mut v = VersionStats::default();
        for (_, cell) in catalog.latches() {
            let t = cell.read();
            v.history_versions += t.history_versions() as u64;
            v.versioned_rows += t.versioned_rows() as u64;
        }
        v
    }

    /// Buffer-pool statistics.
    pub fn pool_stats(&self) -> PoolStats {
        self.engine.pool.stats()
    }

    /// Resets engine, pool, wait, and latch statistics (between warm-up
    /// and measurement).
    pub fn reset_stats(&self) {
        self.engine.counters.reset();
        self.engine.pool.reset_stats();
        self.engine.latches.reset();
        self.shared.write_waits.store(0, Ordering::Relaxed);
        self.shared.ctrl_statements.store(0, Ordering::Relaxed);
    }

    /// Table names in deterministic order.
    pub fn table_names(&self) -> Vec<String> {
        self.engine.catalog_read().table_names()
    }

    /// Row count of `table`.
    ///
    /// # Errors
    ///
    /// [`StorageError::UnknownTable`] if absent.
    pub fn row_count(&self, table: &str) -> Result<usize> {
        let catalog = self.engine.catalog_read();
        let n = catalog.latch(table)?.read().len();
        Ok(n)
    }

    /// A clone of `table`'s schema.
    ///
    /// # Errors
    ///
    /// [`StorageError::UnknownTable`] if absent.
    pub fn schema(&self, table: &str) -> Result<TableSchema> {
        let catalog = self.engine.catalog_read();
        let schema = catalog.latch(table)?.read().schema().clone();
        Ok(schema)
    }

    // ----- write statements -----

    /// Executes one write statement: latches the statement's tables and
    /// runs it. Inside a transaction the undo records and row changes
    /// buffer in its `TxnState` until COMMIT, and a conflict fails the
    /// statement at once. An autocommitted write is a one-statement
    /// transaction: it commits right here, through the same commit step
    /// and epilogue as COMMIT (`db/commit.rs`). When it meets another
    /// transaction's unfinished version of its row, it has already
    /// undone its own effects; it waits until some transaction finishes
    /// after its attempt began, and retries at the latest epoch.
    fn run_write(&self, stmt: &Statement, params: &[Value]) -> Result<ExecOutcome> {
        let mut slot = self.checkout_txn();
        let mut txn = slot.state.as_mut();
        let autocommit = txn.is_none();
        let tid = match &txn {
            Some(t) => t.tid,
            None => self.shared.alloc_tid(),
        };
        let engine = &*self.engine;
        let fire = autocommit && self.fires(write_target(stmt));
        let plan = |catalog: &Catalog| LatchPlan::for_statement(catalog, stmt, &engine.latches);
        let mut waited = false;
        loop {
            let seen = self.shared.finished();
            let mut cost = CostReport::new();
            let mut affected = 0;
            let attempt = self.latched(None, fire, plan, |tables| {
                let snap = txn.as_deref().map(|t| t.snap);
                let effect = self.execute_write(tables, stmt, params, snap, tid, &mut cost)?;
                affected = effect.affected;
                match txn.as_deref_mut() {
                    Some(t) => {
                        t.undo.extend(effect.undo);
                        t.changes.extend(effect.changes);
                        Ok(None)
                    }
                    None => self
                        .commit_latched(
                            tables,
                            tid,
                            effect.undo,
                            &effect.changes,
                            &mut cost,
                            false,
                            fire,
                        )
                        .map(Some),
                }
            });
            let committed = match attempt {
                Err(StorageError::WriteConflict { row: true, .. }) if autocommit => {
                    // A poisoned log never publishes the commit in the
                    // way: report the fail-stop error instead of waiting.
                    if let Some(wal) = &self.shared.wal {
                        wal.check()?;
                    }
                    if !waited {
                        waited = true;
                        self.shared.write_waits.fetch_add(1, Ordering::Relaxed);
                    }
                    self.shared.await_finished(seen);
                    continue;
                }
                other => other?,
            };
            if let Some(done) = committed {
                self.finish_commit(done, &mut cost)?;
            }
            return Ok(ExecOutcome {
                result: QueryResult::affected(affected),
                cost,
            });
        }
    }

    /// Runs a write statement's body against its latched `tables`,
    /// reading at the transaction's pinned `snap` — or, autocommitted, at
    /// the latest committed epoch, loaded *after* latching so its
    /// versions are fully visible on every latched table. Constraint
    /// probes read the latest epoch either way (see [`ExecView`]).
    fn execute_write(
        &self,
        tables: &mut TableSet<'_>,
        stmt: &Statement,
        params: &[Value],
        snap: Option<u64>,
        tid: TxnId,
        cost: &mut CostReport,
    ) -> Result<WriteEffect> {
        let engine = &*self.engine;
        engine.counters.statements.fetch_add(1, Ordering::Relaxed);
        engine.counters.writes.fetch_add(1, Ordering::Relaxed);
        let latest = self.shared.commit_epoch.load(Ordering::Acquire);
        let view = ExecView {
            snap: Snapshot {
                epoch: snap.unwrap_or(latest),
                writer: Some(tid),
            },
            latest_epoch: latest,
        };
        let pool = &engine.pool;
        match stmt {
            Statement::Insert(ins) => exec::run_insert(tables, pool, ins, params, cost, &view),
            Statement::Update(upd) => exec::run_update(tables, pool, upd, params, cost, &view),
            Statement::Delete(del) => exec::run_delete(tables, pool, del, params, cost, &view),
            _ => unreachable!("execute() routes reads, DDL and transaction control elsewhere"),
        }
    }
}

/// A schema change, as [`Database::run_ddl`] takes it.
enum Ddl<'a> {
    Table(TableSchema),
    Index(&'a str, IndexDef),
}

/// Internal invariants that need access to engine private state: the
/// checkpoint's capture pin must hold the vacuum horizon exactly like a
/// live transaction snapshot does.
#[cfg(test)]
mod durability_internal_tests {
    use super::commit::VACUUM_COMMIT_INTERVAL;
    use super::*;

    #[test]
    fn pinned_capture_epoch_blocks_vacuum() {
        let db = Database::default();
        db.execute_sql("CREATE TABLE t (id INT PRIMARY KEY, n INT)", &[])
            .unwrap();
        db.execute_sql("INSERT INTO t VALUES (1, 0)", &[]).unwrap();
        // Pin the current epoch the way checkpoint_with does.
        let pin = {
            let _serialize = db.engine.epoch_mutex.lock();
            let c = db.shared.next_epoch.load(Ordering::Acquire);
            *db.shared.live_snaps.lock().entry(c).or_insert(0) += 1;
            c
        };
        // Churn far past the inline-vacuum cadence: the sweep runs but
        // must not prune the version the pinned capture still reads.
        for i in 1..(VACUUM_COMMIT_INTERVAL + 50) {
            db.execute_sql("UPDATE t SET n = $1 WHERE id = 1", &[Value::Int(i as i64)])
                .unwrap();
        }
        db.vacuum();
        assert!(
            db.version_stats().history_versions > 0,
            "vacuum outran a pinned capture epoch"
        );
        assert!(db.vacuum_horizon() <= pin, "horizon passed the pin");
        db.release_snapshot(pin);
        db.vacuum();
        assert_eq!(
            db.version_stats().history_versions,
            0,
            "released pin must unblock pruning"
        );
    }

    #[test]
    fn published_epoch_never_leads_allocated() {
        let db = Database::default();
        db.execute_sql("CREATE TABLE t (id INT PRIMARY KEY)", &[])
            .unwrap();
        for i in 0..10 {
            db.execute_sql("INSERT INTO t VALUES ($1)", &[Value::Int(i)])
                .unwrap();
            let published = db.shared.commit_epoch.load(Ordering::Acquire);
            let allocated = db.shared.next_epoch.load(Ordering::Acquire);
            assert!(published <= allocated);
            // In-memory databases publish immediately.
            assert_eq!(published, allocated);
        }
    }
}
