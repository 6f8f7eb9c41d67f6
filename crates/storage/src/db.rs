//! The public database facade.
//!
//! [`Database`] is a cheaply clonable handle (an `Arc` around the engine
//! state) exposing statement execution, DDL, triggers, and transactions.
//! Every call returns an [`ExecOutcome`] carrying both the logical result
//! and the physical [`CostReport`], which the benchmark harness prices into
//! simulated time.
//!
//! # Concurrency model (latch hierarchy + MVCC + 2PL writers)
//!
//! The engine distinguishes **latches** (short-duration protection of
//! physical structures) from **locks** (transaction-duration 2PL on
//! logical rows), and **readers from writers** (see `docs/ISOLATION.md`
//! for the isolation model and `docs/ARCHITECTURE.md` for the full
//! latch-vs-lock discussion):
//!
//! * Latches form a three-level hierarchy replacing the old single
//!   engine mutex: a **catalog read-write latch** (DDL and vacuum take
//!   it exclusively; every statement takes it shared), **per-table
//!   latches** acquired in canonical sorted-name order from the
//!   statement's planned table set ([`crate::catalog::Catalog`]), and an
//!   **epoch mutex** serializing commit-epoch allocation. Statements on
//!   disjoint tables execute fully in parallel; two statements touching
//!   the same table exclude each other exactly as the old mutex did.
//!   Every thread acquires strictly downward in that order and never
//!   blocks on a lock-manager lock while holding any latch, so the
//!   hierarchy cannot deadlock.
//! * **Reads are lock-free snapshot reads.** Every transaction pins the
//!   current commit epoch at `BEGIN`; every autocommit statement pins
//!   the latest committed epoch *after* latching its tables. Scans and
//!   probes resolve row versions against that snapshot
//!   ([`crate::Table::visible`]), so readers never take lock-manager
//!   locks, never wait behind writer transactions, and can never
//!   deadlock.
//! * **Writers keep strict 2PL**: write statements take table-level
//!   intent locks plus per-`(table, pk)` exclusive row locks (escalating
//!   to a table exclusive lock when the predicate does not pin primary
//!   keys). Deadlocks among writers are detected on a waits-for graph;
//!   the youngest cycle member aborts with [`StorageError::Deadlock`].
//!   Write-write version conflicts resolve first-updater-wins: touching
//!   a row whose newest committed version postdates the transaction's
//!   snapshot aborts with [`StorageError::WriteConflict`].
//! * Transactions are **thread-scoped**: `BEGIN` binds a transaction to
//!   the calling thread, and subsequent statements from that thread join
//!   it, so N threads drive N concurrent transactions through one shared
//!   [`Database`] handle (see [`Database::begin_concurrent`]).
//! * COMMIT write-latches exactly the tables the transaction touched,
//!   fires the transaction's coalesced triggers (when any match, under
//!   the exclusive catalog latch) against the *commit-point snapshot*
//!   (latest committed state plus the transaction's own writes — never
//!   another transaction's in-flight rows), stamps every written version
//!   with the new commit epoch under the epoch mutex, publishes the
//!   epoch, and only then — after releasing its latches — runs the
//!   [`CommitHook`]'s deferred cache publication; the hook serializes
//!   per-key publication so two committing writers can never interleave
//!   physical cache operations on one key.
//! * Old row versions are reclaimed by [`Database::vacuum`] (also run
//!   inline every few hundred commits, after the committing statement
//!   has dropped all latches and locks): only versions invisible to the
//!   oldest live snapshot are pruned, so a long-running reader pins the
//!   horizon instead of ever seeing a row disappear.
//! * **Durability is optional** and changes the commit pipeline's tail:
//!   a database opened with [`Database::create_durable`] /
//!   [`Database::open_with_recovery`] serializes each writing commit's
//!   net row changes into a redo record, enqueues it on the group-commit
//!   log writer *under the epoch mutex* (so log order equals epoch
//!   order), stamps its versions, and only **publishes** the epoch to
//!   readers after the record is durable — the log's prefix-durability
//!   guarantee means no reader can ever observe a commit a crash could
//!   still lose, and the deferred cache publication runs strictly after
//!   durability. See `docs/DURABILITY.md` for the log format, the
//!   checkpoint/truncation protocol, and the recovery invariants.

use crate::bufferpool::{BufferPool, PoolStats};
use crate::catalog::Catalog;
use crate::coalesce::coalesce_changes;
use crate::cost::CostReport;
use crate::error::{Result, StorageError};
use crate::exec::{self, ExecView, RowChange, UndoOp};
use crate::latch::{LatchPlan, TableSet};
use crate::lockmgr::{LatchCounters, LatchStats, LockManager, LockMode, LockStats, TxnId};
use crate::prepared::{PreparedSelect, StatementCache};
use crate::query::{QueryResult, Select, Statement};
use crate::row::RowId;
use crate::schema::{IndexDef, TableSchema};
use crate::table::Snapshot;
use crate::trigger::{Trigger, TriggerCtx, TriggerManager};
use crate::value::Value;
use crate::wal::{
    self, CheckpointImage, CheckpointStats, RecoveryReport, TableImage, Wal, WalConfig, WalStats,
    WalTicket,
};
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;

/// Inline vacuum cadence: after this many write commits the committing
/// statement sweeps all tables for versions older than the oldest live
/// snapshot (cheap when there is no history). Explicit
/// [`Database::vacuum`] calls are always available on top.
const VACUUM_COMMIT_INTERVAL: u64 = 256;

/// Deferred cache-publication step returned by [`CommitHook::commit_apply`].
/// The engine runs it after releasing its latches (but before releasing
/// the transaction's row locks), so slow external effects never
/// serialize unrelated statements.
pub type DeferredPublish = Option<Box<dyn FnOnce() + Send>>;

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
    pub buffer_pool_bytes: usize,
    /// Modelled page size in bytes.
    pub page_bytes: usize,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            buffer_pool_bytes: 64 * 1024 * 1024,
            page_bytes: BufferPool::DEFAULT_PAGE_BYTES,
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

/// Per-transaction state. Lives in the engine's thread-keyed transaction
/// map, so each writer thread buffers privately — nothing here is shared
/// between concurrent transactions.
struct TxnState {
    /// Lock-manager identity (monotonic; doubles as transaction age for
    /// youngest-victim deadlock resolution).
    tid: TxnId,
    /// Commit epoch pinned at BEGIN: every read in this transaction
    /// resolves row versions at this snapshot (plus its own writes),
    /// and writes first-updater-wins-check against it. Registered in
    /// [`EngineShared::live_snaps`] so vacuum never prunes a version
    /// this transaction can still see.
    snap: u64,
    /// Every lock target this transaction's statements requested
    /// (recorded before acquisition, so an aborted acquisition is still
    /// covered; deduplicated — statements revisit the same tables and
    /// rows). Commit/rollback release exactly these resources instead of
    /// sweeping every lock-manager shard.
    targets: BTreeSet<(String, Option<Value>)>,
    undo: Vec<UndoOp>,
    /// Row changes buffered for commit-time trigger firing, in statement
    /// order. Coalesced per (table, pk) when the transaction commits.
    changes: Vec<RowChange>,
    /// True once any statement modified rows; commit charges its single
    /// group WAL append only then (read-only transactions write nothing).
    wrote: bool,
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
    /// Worker threads for morsel-driven parallel scans (1 = serial; the
    /// setter keeps it at least 1).
    scan_workers: AtomicUsize,
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

/// The thread-keyed table of open transactions, with a count beside it
/// that statements read first: while no transaction is open anywhere —
/// the whole life of a read-only deployment — nobody touches the mutex.
///
/// `open` counts transactions begun and not yet ended, whether their
/// state sits in `states` or is checked out by a running statement of
/// the owner. Only the owner's own view of it matters (does *this*
/// thread have a transaction?), and a thread's own `BEGIN` precedes its
/// later statements in program order, so a zero read is never wrong for
/// the reader; the count publishes no data — the states stay behind the
/// mutex.
struct TxnTable {
    states: Mutex<HashMap<ThreadId, TxnState>>,
    open: AtomicUsize,
}

impl TxnTable {
    fn new() -> Self {
        TxnTable {
            states: Mutex::new(HashMap::new()),
            open: AtomicUsize::new(0),
        }
    }

    /// Whether `thread` has a transaction whose state is not checked out.
    fn has(&self, thread: ThreadId) -> bool {
        self.open.load(Ordering::SeqCst) != 0 && self.states.lock().contains_key(&thread)
    }

    /// Registers `thread`'s new transaction; `states` is the caller's
    /// guard (BEGIN holds it across its nesting check and snapshot pin).
    fn begin(&self, states: &mut HashMap<ThreadId, TxnState>, thread: ThreadId, state: TxnState) {
        states.insert(thread, state);
        self.open.fetch_add(1, Ordering::SeqCst);
    }

    /// Ends `thread`'s transaction (only if it is `tid`, when given),
    /// handing its state to the commit or rollback that called.
    fn end(&self, thread: ThreadId, tid: Option<TxnId>) -> Option<TxnState> {
        let mut states = self.states.lock();
        let open = states.get(&thread)?;
        if tid.is_some_and(|tid| open.tid != tid) {
            return None;
        }
        self.open.fetch_sub(1, Ordering::SeqCst);
        states.remove(&thread)
    }

    /// Takes `thread`'s state out for the duration of one statement.
    fn checkout(&self, thread: ThreadId) -> Option<TxnState> {
        if self.open.load(Ordering::SeqCst) == 0 {
            return None;
        }
        self.states.lock().remove(&thread)
    }

    /// Puts a checked-out state back.
    fn checkin(&self, thread: ThreadId, state: TxnState) {
        self.states.lock().insert(thread, state);
    }

    /// A checked-out transaction ended (its owner honoured a doom mark)
    /// instead of being put back.
    fn ended_checked_out(&self) {
        self.open.fetch_sub(1, Ordering::SeqCst);
    }
}

/// State shared outside the latches: the lock manager and the
/// thread-keyed transaction map. Taking these leaf mutexes while holding
/// a latch is allowed; the reverse order (blocking on a latch while
/// holding one of them) is not, and no code path does it.
struct EngineShared {
    locks: LockManager,
    txns: TxnTable,
    /// Transactions killed cross-thread (a [`ConcurrentTxn`] guard
    /// committed/rolled back/dropped on another thread while the owner
    /// thread had the state checked out for an in-flight statement).
    /// Keyed by owner thread, valued by the doomed tid so a stale mark
    /// can never kill a later transaction on the same thread; the owner
    /// rolls the transaction back when its statement completes.
    doomed: Mutex<HashMap<ThreadId, TxnId>>,
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
}

impl EngineShared {
    fn alloc_tid(&self) -> TxnId {
        self.next_tid.fetch_add(1, Ordering::Relaxed)
    }
}

/// One lock request a statement needs before executing.
type LockReq = (String, Option<Value>, LockMode);

/// The table a write statement targets, if it is a write.
fn write_target(stmt: &Statement) -> Option<&str> {
    match stmt {
        Statement::Insert(i) => Some(&i.table),
        Statement::Update(u) => Some(&u.table),
        Statement::Delete(d) => Some(&d.table),
        _ => None,
    }
}

/// The table an undo record belongs to.
fn undo_table(op: &UndoOp) -> &str {
    match op {
        UndoOp::Insert { table, .. }
        | UndoOp::Delete { table, .. }
        | UndoOp::Update { table, .. } => table,
    }
}

/// An embedded relational database with row-level triggers.
///
/// Cloning shares the underlying engine. Statements from different
/// threads interleave under two-phase row/table locking (see the module
/// docs); a single thread sees strictly serial behaviour.
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
                pool: BufferPool::new(config.buffer_pool_bytes, config.page_bytes),
                triggers: RwLock::new(TriggerManager::new()),
                commit_hook: RwLock::new(None),
                counters: DbCounters::default(),
                latches: LatchCounters::default(),
                epoch_mutex: Mutex::new(()),
                scan_workers: AtomicUsize::new(1),
                statements: StatementCache::default(),
            }),
            shared: Arc::new(EngineShared {
                locks: LockManager::new(),
                txns: TxnTable::new(),
                doomed: Mutex::new(HashMap::new()),
                next_tid: AtomicU64::new(1),
                ctrl_statements: AtomicU64::new(0),
                commit_epoch: AtomicU64::new(0),
                next_epoch: AtomicU64::new(0),
                wal,
                live_snaps: Mutex::new(BTreeMap::new()),
                commits_since_vacuum: AtomicU64::new(0),
            }),
        }
    }

    // ----- durable open / recovery -----

    /// Creates a **durable** database whose commits are backed by a
    /// write-ahead log in `dir` (created if absent). Every writing
    /// commit becomes durable — crash-safe — before it is reported
    /// committed or becomes visible to other snapshots.
    ///
    /// # Errors
    ///
    /// [`StorageError::Wal`] when `dir` already contains a log (an
    /// existing store must go through [`Database::open_with_recovery`],
    /// never be silently overwritten) or on log I/O failure.
    pub fn create_durable(
        dir: impl AsRef<Path>,
        config: DbConfig,
        wal_config: WalConfig,
    ) -> Result<Database> {
        let wal = Wal::create(dir.as_ref(), wal_config)?;
        Ok(Database::build(config, Some(Arc::new(wal))))
    }

    /// Opens the durable database in `dir`, running crash recovery with
    /// default configuration: replay the checkpoint image plus every
    /// durable committed record, discard a torn tail, and resume
    /// logging. An empty or absent `dir` is a valid fresh start.
    ///
    /// # Errors
    ///
    /// [`StorageError::Wal`] on log I/O failure or an unrecoverable
    /// (non-prefix) corruption.
    pub fn open_with_recovery(dir: impl AsRef<Path>) -> Result<Database> {
        Ok(Database::open_with(dir, DbConfig::default(), WalConfig::default())?.0)
    }

    /// [`Database::open_with_recovery`] with explicit configuration,
    /// also returning the [`RecoveryReport`] describing what replay did.
    ///
    /// # Errors
    ///
    /// [`StorageError::Wal`] on log I/O failure or an unrecoverable
    /// (non-prefix) corruption; replaying a valid log never fails.
    pub fn open_with(
        dir: impl AsRef<Path>,
        config: DbConfig,
        wal_config: WalConfig,
    ) -> Result<(Database, RecoveryReport)> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(|e| {
            StorageError::Wal(format!("create log directory {}: {e}", dir.display()))
        })?;
        let scan = wal::read_log(dir)?;
        // Make the torn-tail truncation durable *before* appending
        // anything new: a crash during recovery must replay to the same
        // prefix.
        wal::cleanup_log(&scan)?;
        let wal = Wal::resume(dir, wal_config, scan.next_segment)?;
        let db = Database::build(config, Some(Arc::new(wal)));
        let report = db.replay(scan)?;
        Ok((db, report))
    }

    /// Installs a recovered log scan into this freshly built (still
    /// unshared) database: the checkpoint image first, then every
    /// committed record in epoch order. Replay performs **no logging**
    /// — the surviving log already describes exactly this state, so
    /// recovery is idempotent across repeated crashes.
    fn replay(&self, scan: wal::LogScan) -> Result<RecoveryReport> {
        let mut report = RecoveryReport {
            segments_scanned: scan.segments_scanned,
            bytes_scanned: scan.bytes_scanned,
            truncated: scan
                .truncate
                .as_ref()
                .map(|t| (t.segment, t.offset, t.reason.clone())),
            ..RecoveryReport::default()
        };
        let mut catalog = self.engine.catalog_write();
        let mut cursor = 0u64;
        if let Some(image) = scan.checkpoint {
            cursor = image.epoch;
            report.checkpoint_epoch = image.epoch;
            for img in image.tables {
                let name = img.schema.name().to_owned();
                catalog.create_table(img.schema)?;
                for def in img.indexes {
                    match catalog.create_index(&name, def) {
                        // Implicit unique indexes were re-derived from
                        // the schema by create_table; skip them.
                        Ok(()) | Err(StorageError::AlreadyExists(_)) => {}
                        Err(e) => return Err(e),
                    }
                }
                let table = catalog.table_mut(&name)?;
                for row in img.rows {
                    table.recover_insert(row)?;
                }
            }
        }
        for rec in scan.records {
            match rec {
                // DDL may predate the checkpoint that captured its table
                // (the record lands in the post-rotation segment while
                // the capture still sees the table) — idempotent.
                wal::WalRecord::CreateTable(schema) => {
                    report.ddl_records += 1;
                    match catalog.create_table(schema) {
                        Ok(()) | Err(StorageError::AlreadyExists(_)) => {}
                        Err(e) => return Err(e),
                    }
                }
                wal::WalRecord::CreateIndex { table, def } => {
                    report.ddl_records += 1;
                    match catalog.create_index(&table, def) {
                        Ok(()) | Err(StorageError::AlreadyExists(_)) => {}
                        Err(e) => return Err(e),
                    }
                }
                wal::WalRecord::Commit { epoch, changes } => {
                    if epoch <= cursor {
                        // Folded into the checkpoint image already; the
                        // record survives in the post-rotation segment.
                        report.skipped_commits += 1;
                        continue;
                    }
                    if epoch != cursor + 1 {
                        // Records are enqueued in epoch order and the
                        // log is prefix-durable, so committed epochs are
                        // dense. A gap means the store is damaged.
                        return Err(StorageError::Wal(format!(
                            "commit-epoch gap in log: expected {}, found {epoch}",
                            cursor + 1
                        )));
                    }
                    // Two-phase redo: delete every pre-image, then
                    // insert every post-image. Within one committed
                    // record the pre-image pks are unique (they existed
                    // together before the commit) and so are the
                    // post-image pks — but interleaving them can trip
                    // spurious unique-violations (two rows swapping
                    // pks), so each phase runs to completion first.
                    for ch in &changes {
                        if let Some(old) = &ch.old {
                            catalog.table_mut(&ch.table)?.recover_delete(old)?;
                        }
                    }
                    for ch in &changes {
                        if let Some(new) = &ch.new {
                            catalog.table_mut(&ch.table)?.recover_insert(new.clone())?;
                        }
                    }
                    cursor = epoch;
                    report.replayed_commits += 1;
                }
            }
        }
        // Planner statistics accumulate deltas during replay; settle them
        // so the first post-recovery query plans like the pre-crash one.
        for name in catalog.table_names() {
            catalog.table_mut(&name)?.flush_stats();
        }
        drop(catalog);
        self.shared.commit_epoch.store(cursor, Ordering::Release);
        self.shared.next_epoch.store(cursor, Ordering::Release);
        report.recovered_epoch = cursor;
        Ok(report)
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
        let ticket = {
            let mut guard = self.engine.catalog_write();
            let payload = self
                .shared
                .wal
                .as_ref()
                .map(|_| wal::encode_create_table(&schema));
            guard.create_table(schema)?;
            match (&self.shared.wal, payload) {
                (Some(w), Some(p)) => Some(w.enqueue(p, 0)?),
                _ => None,
            }
        };
        match ticket {
            Some(t) => self.wait_ticket(&t).map(|_| ()),
            None => Ok(()),
        }
    }

    /// Creates a secondary index (exclusive catalog latch, like all DDL;
    /// logged before returning on a durable database).
    ///
    /// # Errors
    ///
    /// See [`crate::Table::create_index`]; [`StorageError::Wal`] if the
    /// log rejects the append (fail-stop).
    pub fn create_index(&self, table: &str, def: IndexDef) -> Result<()> {
        let ticket = {
            let mut guard = self.engine.catalog_write();
            guard.create_index(table, def.clone())?;
            match &self.shared.wal {
                Some(w) => Some(w.enqueue(wal::encode_create_index(table, &def), 0)?),
                None => None,
            }
        };
        match ticket {
            Some(t) => self.wait_ticket(&t).map(|_| ()),
            None => Ok(()),
        }
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

    // ----- execution tuning knobs -----

    /// Sets the number of worker threads morsel-driven parallel scans
    /// may use (1 = serial; values above 1 only engage on scans large
    /// enough to amortize thread startup).
    pub fn set_scan_workers(&self, workers: usize) {
        self.engine
            .scan_workers
            .store(workers.max(1), Ordering::Relaxed);
    }

    /// Latch contention counters since the last [`Database::reset_stats`].
    pub fn latch_stats(&self) -> LatchStats {
        self.engine.latches.snapshot()
    }

    // ----- statements -----

    /// Executes any statement with positional parameters (`$1` = index 0).
    ///
    /// Statements join the calling thread's open transaction if one
    /// exists; otherwise they autocommit (locks held for the statement
    /// only, triggers fired immediately).
    ///
    /// # Errors
    ///
    /// All engine errors; a failing trigger aborts the whole statement and
    /// (when autocommitted) rolls back its row changes.
    /// [`StorageError::Deadlock`] means this transaction was chosen as a
    /// deadlock victim — roll it back and retry it.
    pub fn execute(&self, stmt: &Statement, params: &[Value]) -> Result<ExecOutcome> {
        match stmt {
            Statement::Begin => {
                self.shared.ctrl_statements.fetch_add(1, Ordering::Relaxed);
                self.begin_txn()?;
                Ok(ExecOutcome::default())
            }
            Statement::Commit => {
                self.shared.ctrl_statements.fetch_add(1, Ordering::Relaxed);
                let cost = self.commit_txn()?;
                Ok(ExecOutcome {
                    result: QueryResult::default(),
                    cost,
                })
            }
            Statement::Rollback => {
                self.shared.ctrl_statements.fetch_add(1, Ordering::Relaxed);
                self.rollback_txn()?;
                Ok(ExecOutcome::default())
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
            other => self.run_statement(other, params),
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
    /// otherwise reads the latest committed epoch. Takes no
    /// lock-manager locks and, while no transaction is open on the
    /// engine, no mutex.
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
        let result = exec::run_prepared(
            &tables,
            &engine.pool,
            prepared,
            params,
            &mut cost,
            &snap,
            engine.scan_workers.load(Ordering::Relaxed),
        )?;
        Ok(ExecOutcome { result, cost })
    }

    /// Runs `f` inside a transaction on the calling thread, committing on
    /// `Ok` and rolling back on `Err`. The transaction reads a snapshot
    /// pinned at entry (plus its own writes); writers elsewhere neither
    /// block its reads nor leak in-flight rows into them, and its own
    /// writes hold 2PL row locks until commit or rollback.
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
    /// [`StorageError::Deadlock`] and [`StorageError::WriteConflict`]
    /// mean the transaction lost a race — retry it on a fresh snapshot.
    pub fn transaction<T>(&self, f: impl FnOnce(&mut TxnHandle<'_>) -> Result<T>) -> Result<T> {
        self.begin_txn()?;
        // A panicking closure must not leak the transaction's 2PL locks:
        // other threads would block on them forever (lock waits have no
        // timeout). Roll back on unwind.
        struct RollbackOnUnwind<'a> {
            db: &'a Database,
            armed: bool,
        }
        impl Drop for RollbackOnUnwind<'_> {
            fn drop(&mut self) {
                if self.armed {
                    let _ = self.db.rollback_txn();
                }
            }
        }
        let mut guard = RollbackOnUnwind {
            db: self,
            armed: true,
        };
        let result = {
            let mut handle = TxnHandle {
                db: self,
                cost: CostReport::new(),
            };
            f(&mut handle)
        };
        guard.armed = false;
        match result {
            Ok(v) => {
                self.commit_txn()?;
                Ok(v)
            }
            Err(e) => {
                self.rollback_txn()?;
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
        self.begin_txn()?;
        let thread = std::thread::current().id();
        let tid = self
            .shared
            .txns
            .states
            .lock()
            .get(&thread)
            .map(|t| t.tid)
            .expect("begin_txn just inserted");
        Ok(ConcurrentTxn {
            db: self.clone(),
            thread,
            tid,
            open: true,
        })
    }

    // ----- introspection -----

    /// EXPLAIN: returns the whole-query [`QueryPlan`](crate::plan::QueryPlan)
    /// the planner would choose for `select` — driving-table access path,
    /// join order and probe methods, ORDER BY / LIMIT handling — without
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

    /// Lock-manager statistics (immediate grants, waits, deadlocks).
    pub fn lock_stats(&self) -> LockStats {
        self.shared.locks.stats()
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
    /// dropped every latch and lock); call it explicitly after bulk
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

    // ----- durability -----

    /// True when commits are backed by a write-ahead log.
    pub fn is_durable(&self) -> bool {
        self.shared.wal.is_some()
    }

    /// Cumulative log-writer counters (records, bytes, syncs, leader
    /// batches, rotations, checkpoints), when the database is durable.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.shared.wal.as_ref().map(|w| w.stats())
    }

    /// Drains and syncs every enqueued log record (shutdown/test aid —
    /// commits already wait for their own records).
    ///
    /// # Errors
    ///
    /// [`StorageError::Wal`] once the log is poisoned.
    pub fn wal_flush(&self) -> Result<()> {
        if let Some(w) = &self.shared.wal {
            w.flush_all()?;
        }
        Ok(())
    }

    /// Takes a fuzzy checkpoint now, blocking if another is in flight:
    /// captures every table's committed state at a pinned epoch, writes
    /// it to the checkpoint file atomically, then truncates the log
    /// prefix the image makes redundant. Concurrent commits proceed
    /// throughout (the capture latches one table at a time).
    ///
    /// # Errors
    ///
    /// [`StorageError::Wal`] if the database has no durable log, or on
    /// snapshot/truncation I/O failure.
    pub fn checkpoint(&self) -> Result<CheckpointStats> {
        match self.checkpoint_with(true)? {
            Some(stats) => Ok(stats),
            None => unreachable!("a blocking checkpoint always claims the slot"),
        }
    }

    /// Runs an automatic fuzzy checkpoint when the log's commit budget
    /// is spent. Non-blocking: skips silently when another thread's
    /// checkpoint is in flight. A failed auto-checkpoint is swallowed —
    /// it leaves the previous checkpoint and the untruncated log in
    /// place, costing recovery time, never correctness (and an actual
    /// log poisoning resurfaces at the very next commit).
    fn maybe_auto_checkpoint(&self) {
        if let Some(w) = &self.shared.wal {
            if w.checkpoint_due() {
                let _ = self.checkpoint_with(false);
            }
        }
    }

    /// The checkpoint protocol. The ordering is what makes truncating
    /// the log safe:
    ///
    /// 1. **Rotate first.** Everything at or below the sealed segment is
    ///    on disk; every *later* enqueue lands in the new segment, which
    ///    truncation keeps.
    /// 2. **Pin the capture epoch `c = next_epoch` under the epoch
    ///    mutex.** Epoch allocation and log enqueue happen inside one
    ///    epoch-mutex section, so every commit whose record could live
    ///    in a sealed (about-to-be-deleted) segment has epoch `<= c` —
    ///    reading `c` without the mutex could miss a commit that is
    ///    flushed to an old segment but not yet visible in the counter,
    ///    and truncation would delete its only durable copy. The pin in
    ///    `live_snaps` keeps vacuum from pruning versions out from
    ///    under the capture.
    /// 3. **Fuzzy capture** at `Snapshot{c, None}`, one table read
    ///    latch at a time — commits keep flowing; each is either
    ///    `<= c` (inside the image) or `> c` (replayed from the
    ///    surviving log).
    /// 4. **Publish, then truncate.** The image replaces the checkpoint
    ///    file atomically (tmp + fsync + rename + dir fsync); only then
    ///    are sealed segments deleted.
    fn checkpoint_with(&self, blocking: bool) -> Result<Option<CheckpointStats>> {
        let Some(w) = self.shared.wal.clone() else {
            return Err(StorageError::Wal(
                "checkpoint requires a durable database (Database::create_durable)".into(),
            ));
        };
        let Some(_slot) = w.checkpoint_begin(blocking) else {
            return Ok(None);
        };
        let keep_from = w.rotate()?;
        let epoch = {
            let _serialize = self.engine.epoch_mutex.lock();
            let c = self.shared.next_epoch.load(Ordering::Acquire);
            *self.shared.live_snaps.lock().entry(c).or_insert(0) += 1;
            c
        };
        let result = self.capture_checkpoint(epoch, &w, keep_from);
        self.release_snapshot(epoch);
        result.map(Some)
    }

    /// Capture + publish + truncate (steps 3–4 above), with the capture
    /// epoch already pinned by the caller.
    fn capture_checkpoint(
        &self,
        epoch: u64,
        wal_handle: &Wal,
        keep_from: u64,
    ) -> Result<CheckpointStats> {
        let snap = Snapshot {
            epoch,
            writer: None,
        };
        let names = self.engine.catalog_read().table_names();
        let mut tables = Vec::with_capacity(names.len());
        let (mut total_rows, mut total_tables) = (0u64, 0u64);
        for name in names {
            // Re-take the shared catalog latch per table: the capture
            // never holds more than one table read latch (plus the
            // catalog latch) at a time, so it cannot participate in a
            // hold-and-wait cycle with committing writers.
            let catalog = self.engine.catalog_read();
            let Ok(cell) = catalog.latch(&name) else {
                continue;
            };
            let t = cell.read();
            let rows = t.snapshot_rows(&snap);
            total_tables += 1;
            total_rows += rows.len() as u64;
            tables.push(TableImage {
                schema: t.schema().clone(),
                indexes: t.indexes().iter().map(|i| i.def().clone()).collect(),
                rows,
            });
        }
        let image = CheckpointImage { epoch, tables };
        let bytes = wal::write_checkpoint(wal_handle.dir(), &image)?;
        let segments_deleted = wal_handle.delete_segments_below(keep_from)?;
        wal_handle.note_checkpoint();
        Ok(CheckpointStats {
            epoch,
            bytes,
            segments_deleted,
            tables: total_tables,
            rows: total_rows,
        })
    }

    /// An order-insensitive digest of the full **published** committed
    /// state: `commit_epoch`, every table's schema, its index
    /// definitions (sorted by name), and every visible row in
    /// primary-key order — FNV-1a over the log codec's canonical byte
    /// forms. Equal digests mean byte-identical committed states; the
    /// crash-recovery suite compares a recovered store against the
    /// pre-crash original's committed prefix.
    pub fn content_digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        fn mix(hash: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *hash ^= u64::from(b);
                *hash = hash.wrapping_mul(FNV_PRIME);
            }
        }
        let mut hash = FNV_OFFSET;
        let epoch = self.shared.commit_epoch.load(Ordering::Acquire);
        mix(&mut hash, &epoch.to_le_bytes());
        let snap = Snapshot {
            epoch,
            writer: None,
        };
        for name in self.engine.catalog_read().table_names() {
            let catalog = self.engine.catalog_read();
            let Ok(cell) = catalog.latch(&name) else {
                continue;
            };
            let t = cell.read();
            let mut buf = Vec::new();
            wal::put_schema(&mut buf, t.schema());
            let mut defs: Vec<&IndexDef> = t.indexes().iter().map(|i| i.def()).collect();
            defs.sort_by(|a, b| a.name.cmp(&b.name));
            for def in defs {
                wal::put_index_def(&mut buf, def);
            }
            for row in t.snapshot_rows(&snap) {
                wal::put_row(&mut buf, &row);
            }
            mix(&mut hash, &buf);
        }
        hash
    }

    /// Buffer-pool statistics.
    pub fn pool_stats(&self) -> PoolStats {
        self.engine.pool.stats()
    }

    /// Resets engine, pool, lock, and latch statistics (between warm-up
    /// and measurement).
    pub fn reset_stats(&self) {
        self.engine.counters.reset();
        self.engine.pool.reset_stats();
        self.engine.latches.reset();
        self.shared.locks.reset_stats();
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

    // ----- transaction control (thread-scoped) -----

    fn begin_txn(&self) -> Result<()> {
        let thread = std::thread::current().id();
        let mut txns = self.shared.txns.states.lock();
        if txns.contains_key(&thread) {
            return Err(StorageError::TransactionAborted(
                "nested transactions are not supported".into(),
            ));
        }
        // Pin the snapshot and register it as live: vacuum prunes only
        // below the minimum registered epoch, so everything this
        // transaction can see stays reachable until it ends. Register,
        // then re-check the epoch: a commit (and its inline vacuum) can
        // land between the lock-free epoch read and the registration,
        // in which case versions the stale epoch needs may already be
        // gone — moving the snapshot forward to the epoch that was
        // current *after* our registration became visible makes it safe
        // (a BEGIN may linearize anywhere within its call).
        let mut snap = self.shared.commit_epoch.load(Ordering::Acquire);
        loop {
            *self.shared.live_snaps.lock().entry(snap).or_insert(0) += 1;
            let now = self.shared.commit_epoch.load(Ordering::Acquire);
            if now == snap {
                break;
            }
            self.release_snapshot(snap);
            snap = now;
        }
        self.shared.txns.begin(
            &mut txns,
            thread,
            TxnState {
                tid: self.shared.alloc_tid(),
                snap,
                targets: BTreeSet::new(),
                undo: Vec::new(),
                changes: Vec::new(),
                wrote: false,
            },
        );
        Ok(())
    }

    /// Drops one reference to a pinned snapshot epoch (transaction end).
    fn release_snapshot(&self, epoch: u64) {
        let mut snaps = self.shared.live_snaps.lock();
        if let Some(n) = snaps.get_mut(&epoch) {
            *n -= 1;
            if *n == 0 {
                snaps.remove(&epoch);
            }
        }
    }

    fn commit_txn(&self) -> Result<CostReport> {
        self.commit_txn_for(std::thread::current().id(), None)
    }

    /// Commits `thread`'s transaction: write-latches the tables it
    /// touched (or the whole catalog when its triggers must fire),
    /// coalesces its buffered row changes, fires triggers once per net
    /// change inside the commit-hook bracket, stamps and publishes the
    /// commit epoch, then — latches released — publishes the hook's
    /// deferred cache effects and releases the transaction's locks (2PL
    /// shrinking phase). A failing trigger body or hook rejection aborts
    /// the whole transaction instead — undo applied, nothing published.
    ///
    /// With `tid`, commits only if the open transaction is still that
    /// one — the guard-facing variant, so a stale [`ConcurrentTxn`] can
    /// never commit a later, unrelated transaction on the same thread.
    fn commit_txn_for(&self, thread: ThreadId, tid: Option<TxnId>) -> Result<CostReport> {
        let TxnState {
            tid,
            snap,
            targets,
            undo,
            changes,
            wrote,
        } = {
            let txn = self
                .shared
                .txns
                .end(thread, tid)
                .ok_or(StorageError::NoTransaction)?;
            // Honor a cross-thread kill that raced an earlier statement:
            // the killer was promised a rollback, so the commit loses.
            let killed = self.shared.doomed.lock().get(&thread) == Some(&txn.tid);
            if killed {
                self.rollback_state(thread, txn)?;
                return Err(StorageError::TransactionAborted(
                    "transaction was rolled back from another thread".into(),
                ));
            }
            txn
        };
        let engine = &*self.engine;
        let mut cost = CostReport::new();
        // Decide up front whether any enabled trigger watches a changed
        // table; only then must the commit run under the exclusive
        // catalog latch (trigger queries may read arbitrary tables, and
        // the hook's effect batch must not interleave with another
        // firing commit). A trigger registered concurrently with this
        // commit does not apply to it — registration linearizes at the
        // registry lock, before or after this read.
        let fire = {
            let trg = engine.triggers.read();
            trg.is_enabled() && changes.iter().any(|c| trg.has_for_table(&c.table))
        };
        let result = if fire {
            let mut guard = engine.catalog_write();
            let mut tables = TableSet::exclusive(&mut guard);
            self.commit_latched(&mut tables, tid, undo, changes, wrote, &mut cost, fire)
        } else {
            let catalog = engine.catalog_read();
            let names: BTreeSet<&str> = undo
                .iter()
                .map(undo_table)
                .chain(changes.iter().map(|c| c.table.as_str()))
                .collect();
            let plan = LatchPlan::writes(names.into_iter().map(str::to_owned));
            TableSet::latch(&catalog, &plan, &engine.latches).and_then(|mut tables| {
                self.commit_latched(&mut tables, tid, undo, changes, wrote, &mut cost, false)
            })
        };
        match result {
            Ok((publish, ticket, vacuum_due)) => {
                self.release_snapshot(snap);
                if let Some(t) = &ticket {
                    match self.wait_ticket(t) {
                        Ok(syncs) => {
                            cost.wal_bytes += t.bytes;
                            cost.wal_syncs += syncs;
                        }
                        Err(e) => {
                            // The log poisoned mid-batch: this commit's
                            // durability is unknown and its epoch stays
                            // unpublished (invisible to every snapshot).
                            // Release the locks so other threads hit the
                            // same fail-stop error instead of hanging.
                            self.release_txn_locks(tid, &targets);
                            return Err(e);
                        }
                    }
                }
                if let Some(p) = publish {
                    p();
                }
                self.release_txn_locks(tid, &targets);
                if vacuum_due {
                    self.vacuum();
                }
                if ticket.is_some() {
                    self.maybe_auto_checkpoint();
                }
                Ok(cost)
            }
            Err(e) => {
                // commit_latched already applied the undo log; finish
                // the abort bookkeeping (mirrors rollback_state).
                {
                    let mut d = self.shared.doomed.lock();
                    if d.get(&thread) == Some(&tid) {
                        d.remove(&thread);
                    }
                }
                engine.counters.rollbacks.fetch_add(1, Ordering::Relaxed);
                self.release_snapshot(snap);
                self.release_txn_locks(tid, &targets);
                Err(e)
            }
        }
    }

    /// The latched portion of COMMIT, shared by the per-table and
    /// exclusive paths. Returns the deferred publication step and
    /// whether an inline vacuum is due (run by the caller after all
    /// latches drop — vacuum needs the exclusive catalog latch).
    #[allow(clippy::too_many_arguments)] // the full TxnState payload plus latch context
    fn commit_latched(
        &self,
        tables: &mut TableSet<'_>,
        tid: TxnId,
        undo: Vec<UndoOp>,
        changes: Vec<RowChange>,
        wrote: bool,
        cost: &mut CostReport,
        fire: bool,
    ) -> Result<(DeferredPublish, Option<WalTicket>, bool)> {
        let engine = &*self.engine;
        let mut publish: DeferredPublish = None;
        let changes = coalesce_changes(tables, changes);
        if !changes.is_empty() {
            // Commit-point snapshot: triggers see every committed state
            // plus this transaction's own (still uncommitted) writes —
            // never another transaction's in-flight rows. The commit is
            // the transaction's serialization point, so cache effects
            // computed here agree with the post-commit database. The
            // snapshot reads at `next_epoch`, not the published
            // `commit_epoch`: an earlier commit on these tables may be
            // stamped but still waiting on the log, and its rows are
            // committed state this commit must see (safe — this commit's
            // record can only become durable after that one, log order
            // being epoch order).
            let trigger_snap = Snapshot {
                epoch: self.shared.next_epoch.load(Ordering::Acquire),
                writer: Some(tid),
            };
            match self.run_commit_bracket(tables, &changes, cost, true, &trigger_snap, fire) {
                Ok(p) => publish = p,
                Err(e) => {
                    exec::apply_undo(tables, undo, tid)?;
                    return Err(StorageError::TransactionAborted(e.to_string()));
                }
            }
        }
        let mut vacuum_due = false;
        let mut ticket = None;
        if wrote {
            cost.wal_appends += 1;
            // Install every version this transaction wrote at the next
            // epoch — all while this commit still write-latches every
            // table it touched, so readers (who latch per statement)
            // see the flip atomically. Without a log the epoch is
            // published here too; with one, publication waits for the
            // redo record (enqueued inside stamp_commit) to be durable.
            let redo = self
                .shared
                .wal
                .as_ref()
                .map(|_| wal::encode_commit(&changes));
            match self.stamp_commit(tables, &undo, tid, redo) {
                Ok(t) => ticket = t,
                Err(e) => {
                    // The log rejected the append (fail-stop poison):
                    // nothing was stamped — abort cleanly. The sealed
                    // cache publication is dropped unpublished.
                    exec::apply_undo(tables, undo, tid)?;
                    return Err(StorageError::TransactionAborted(e.to_string()));
                }
            }
            vacuum_due = self.note_commit_for_vacuum();
        }
        flush_stats_for(tables, &changes);
        engine.counters.commits.fetch_add(1, Ordering::Relaxed);
        Ok((publish, ticket, vacuum_due))
    }

    /// Stamps every row version `tid` wrote (derived from its undo log)
    /// with the next commit epoch. On a durable database the redo
    /// record is enqueued **first**, while nothing is stamped yet — a
    /// rejected append is then a clean abort — and the caller publishes
    /// the epoch only after [`Database::wait_ticket`] reports the
    /// record durable. Without a log the epoch publishes immediately.
    /// The caller write-latches every touched table; the epoch mutex
    /// serializes epoch allocation (and log-append order) against
    /// commits on disjoint tables.
    fn stamp_commit(
        &self,
        tables: &mut TableSet<'_>,
        undo: &[UndoOp],
        tid: TxnId,
        redo: Option<Vec<u8>>,
    ) -> Result<Option<WalTicket>> {
        let _serialize = self.engine.epoch_mutex.lock();
        let epoch = self.shared.next_epoch.load(Ordering::Acquire) + 1;
        let ticket = match (&self.shared.wal, redo) {
            (Some(w), Some(mut payload)) => {
                wal::patch_epoch(&mut payload, epoch);
                // Pure memory (the enqueue never blocks on I/O); holding
                // the epoch mutex across it makes log order = epoch
                // order, which is what lets recovery treat any durable
                // prefix as a dense epoch prefix.
                Some(w.enqueue(payload, epoch)?)
            }
            _ => None,
        };
        let mut touched: BTreeMap<&str, Vec<RowId>> = BTreeMap::new();
        for op in undo {
            let (table, rid) = match op {
                UndoOp::Insert { table, rid } => (table.as_str(), *rid),
                UndoOp::Delete { table, rid, .. } => (table.as_str(), *rid),
                UndoOp::Update { table, rid, .. } => (table.as_str(), *rid),
            };
            touched.entry(table).or_default().push(rid);
        }
        for (table, mut rids) in touched {
            rids.sort_unstable();
            rids.dedup();
            if let Ok(t) = tables.table_mut(table) {
                t.commit_rows(rids, tid, epoch);
            }
        }
        self.shared.next_epoch.store(epoch, Ordering::Release);
        if ticket.is_none() {
            self.shared.commit_epoch.store(epoch, Ordering::Release);
        }
        Ok(ticket)
    }

    /// Parks on the log until `ticket`'s record is durable, then (for a
    /// commit record) publishes its epoch to readers. Returns the
    /// physical syncs this thread performed — `0` when it rode another
    /// leader's batch, the amortization group commit exists for.
    fn wait_ticket(&self, ticket: &WalTicket) -> Result<u64> {
        let wal = self.shared.wal.as_ref().expect("wal ticket without a log");
        let syncs = wal.wait_durable(ticket)?;
        if ticket.epoch > 0 {
            // fetch_max, not store: a later commit's waiter may already
            // have published past this epoch (group commit wakes a whole
            // batch at once). Log-prefix durability means every epoch up
            // to the maximum published one is durable.
            self.shared
                .commit_epoch
                .fetch_max(ticket.epoch, Ordering::AcqRel);
        }
        Ok(syncs)
    }

    /// Books one write commit toward the inline-vacuum cadence; true
    /// when the caller should run [`Database::vacuum`] after dropping
    /// its latches and locks.
    fn note_commit_for_vacuum(&self) -> bool {
        let n = self
            .shared
            .commits_since_vacuum
            .fetch_add(1, Ordering::Relaxed)
            + 1;
        if n < VACUUM_COMMIT_INTERVAL {
            return false;
        }
        self.shared.commits_since_vacuum.store(0, Ordering::Relaxed);
        true
    }

    /// The oldest epoch any live snapshot still reads at (the newest
    /// committed epoch when no transaction is open).
    fn vacuum_horizon(&self) -> u64 {
        let snaps = self.shared.live_snaps.lock();
        snaps
            .keys()
            .next()
            .copied()
            .unwrap_or_else(|| self.shared.commit_epoch.load(Ordering::Acquire))
    }

    /// 2PL shrinking phase: releases exactly the resources the
    /// transaction's statements requested (tracked in
    /// [`TxnState::targets`]) plus its wait-graph residue, instead of
    /// sweeping every lock-manager shard.
    fn release_txn_locks(&self, tid: TxnId, targets: &BTreeSet<(String, Option<Value>)>) {
        self.shared
            .locks
            .release_resources(tid, targets.iter().map(|(t, pk)| (t.as_str(), pk.as_ref())));
        self.shared.locks.clear_waiter(tid);
    }

    fn rollback_txn(&self) -> Result<()> {
        self.rollback_txn_for(std::thread::current().id())
    }

    fn rollback_txn_for(&self, thread: ThreadId) -> Result<()> {
        let txn = self
            .shared
            .txns
            .end(thread, None)
            .ok_or(StorageError::NoTransaction)?;
        self.rollback_state(thread, txn)
    }

    /// The one rollback sequence: applies the undo log under write
    /// latches on the written tables, books the rollback, releases the
    /// transaction's locks, and clears a matching cross-thread doom
    /// mark. Every abort path funnels here.
    fn rollback_state(&self, thread: ThreadId, txn: TxnState) -> Result<()> {
        {
            let mut d = self.shared.doomed.lock();
            if d.get(&thread) == Some(&txn.tid) {
                d.remove(&thread);
            }
        }
        let engine = &*self.engine;
        let undone = {
            let catalog = engine.catalog_read();
            let names: BTreeSet<&str> = txn.undo.iter().map(undo_table).collect();
            let plan = LatchPlan::writes(names.into_iter().map(str::to_owned));
            TableSet::latch(&catalog, &plan, &engine.latches)
                .and_then(|mut tables| exec::apply_undo(&mut tables, txn.undo, txn.tid))
        };
        engine.counters.rollbacks.fetch_add(1, Ordering::Relaxed);
        self.release_snapshot(txn.snap);
        self.release_txn_locks(txn.tid, &txn.targets);
        undone
    }

    /// Marks `tid` (owned by `thread`, currently checked out for an
    /// in-flight statement) for rollback by its owner; see
    /// [`EngineShared::doomed`]. No-op if the transaction meanwhile
    /// completed — tids are unique, so a stale mark can never kill a
    /// later transaction.
    fn doom_txn(&self, thread: ThreadId, tid: TxnId) {
        loop {
            // Fast path: the state is (back) in the map — take it down
            // directly.
            if self.rollback_named(thread, tid).is_ok() {
                return;
            }
            // Checked out (or already gone): leave the mark and
            // re-check. The owner's TxnSlot drop may have read the
            // doomed map *before* our insert and reinstated the state —
            // in that case retract the mark and retry the direct
            // rollback, so the transaction can never stay open with the
            // mark unseen.
            self.shared.doomed.lock().insert(thread, tid);
            let present = self
                .shared
                .txns
                .states
                .lock()
                .get(&thread)
                .is_some_and(|t| t.tid == tid);
            if !present {
                // Mark stands: either the owner will honor it at
                // statement completion, or the transaction is already
                // finished (unique tids make a stale mark inert).
                return;
            }
            let mut d = self.shared.doomed.lock();
            if d.get(&thread) == Some(&tid) {
                d.remove(&thread);
            }
            drop(d);
        }
    }

    /// Rolls back `thread`'s transaction only if it is still `tid`.
    fn rollback_named(&self, thread: ThreadId, tid: TxnId) -> Result<()> {
        let txn = self
            .shared
            .txns
            .end(thread, Some(tid))
            .ok_or(StorageError::NoTransaction)?;
        self.rollback_state(thread, txn)
    }

    // ----- statement execution -----

    /// Executes one write or DDL statement: plans its lock set, acquires
    /// it, latches the statement's tables, runs the statement body, then
    /// publishes deferred effects and releases statement-duration locks.
    /// The calling thread's transaction state rides along in a
    /// [`TxnSlot`].
    fn run_statement(&self, stmt: &Statement, params: &[Value]) -> Result<ExecOutcome> {
        let mut slot = self.checkout_txn();
        self.run_statement_locked(stmt, params, slot.state.as_mut())
    }

    /// Checks the calling thread's transaction state (if any) out of the
    /// transaction table for one statement.
    fn checkout_txn(&self) -> TxnSlot<'_> {
        let thread = std::thread::current().id();
        TxnSlot {
            db: self,
            thread,
            state: self.shared.txns.checkout(thread),
        }
    }

    /// Acquires a statement's lock requests for `tid`, recording them in
    /// the transaction first. Uncontended locks are granted under the
    /// shared catalog latch; on the first conflict the latch is released
    /// for the wait and re-taken afterwards.
    fn acquire_locks<'e>(
        &'e self,
        mut catalog: RwLockReadGuard<'e, Catalog>,
        tid: TxnId,
        reqs: &[LockReq],
        txn: Option<&mut TxnState>,
    ) -> Result<RwLockReadGuard<'e, Catalog>> {
        if let Some(t) = txn {
            // Record before acquiring: even an acquisition aborted by
            // deadlock leaves its partial grants covered at release.
            t.targets
                .extend(reqs.iter().map(|(tb, pk, _)| (tb.clone(), pk.clone())));
        }
        let blocked_from = reqs.iter().position(|(t, pk, m)| {
            self.shared
                .locks
                .try_acquire(tid, t, pk.as_ref(), *m)
                .is_none()
        });
        if let Some(first) = blocked_from {
            // Contended: never wait on a lock while holding any latch
            // (the lock holder may need our tables' latches to finish
            // its own commit). The granted prefix stays held; only the
            // remainder (still in canonical order) is acquired
            // blockingly, then the catalog latch is re-taken.
            drop(catalog);
            for (t, pk, m) in &reqs[first..] {
                // On failure, the caller's `AutoRelease` (autocommit)
                // frees the partial grants; a transaction keeps its
                // locks until its own rollback.
                self.shared.locks.acquire(tid, t, pk.as_ref(), *m)?;
            }
            catalog = self.engine.catalog_read();
        }
        Ok(catalog)
    }

    fn run_statement_locked(
        &self,
        stmt: &Statement,
        params: &[Value],
        mut txn: Option<&mut TxnState>,
    ) -> Result<ExecOutcome> {
        let autocommit = txn.is_none();
        let tid = match &txn {
            Some(t) => t.tid,
            None => self.shared.alloc_tid(),
        };
        let mut auto_release = AutoRelease {
            locks: &self.shared.locks,
            tid,
            armed: autocommit,
        };

        let engine = &*self.engine;
        let catalog = engine.catalog_read();
        let reqs = plan_locks(&catalog, stmt, params, &engine.latches)?;
        let catalog = self.acquire_locks(catalog, tid, &reqs, txn.as_deref_mut())?;

        // Escalate to the exclusive catalog latch when per-table
        // latching cannot carry the statement: DDL restructures the
        // catalog itself, and an autocommit write whose target
        // table has an enabled trigger fires that trigger immediately —
        // trigger queries may read arbitrary tables, and the commit
        // hook's effect batch must not interleave with another firing
        // statement.
        let exclusive = matches!(
            stmt,
            Statement::CreateTable(_) | Statement::CreateIndex { .. }
        ) || (autocommit && stmt.is_write() && {
            let trg = engine.triggers.read();
            trg.is_enabled() && write_target(stmt).is_some_and(|t| trg.has_for_table(t))
        });

        let result = if exclusive {
            drop(catalog);
            let mut guard = engine.catalog_write();
            match stmt {
                Statement::CreateTable(schema) => {
                    engine.counters.statements.fetch_add(1, Ordering::Relaxed);
                    guard.create_table(schema.clone()).and_then(|()| {
                        let ticket = match &self.shared.wal {
                            Some(w) => Some(w.enqueue(wal::encode_create_table(schema), 0)?),
                            None => None,
                        };
                        Ok((ExecOutcome::default(), None, false, ticket))
                    })
                }
                Statement::CreateIndex { table, def } => {
                    engine.counters.statements.fetch_add(1, Ordering::Relaxed);
                    guard.create_index(table, def.clone()).and_then(|()| {
                        let ticket = match &self.shared.wal {
                            Some(w) => Some(w.enqueue(wal::encode_create_index(table, def), 0)?),
                            None => None,
                        };
                        Ok((ExecOutcome::default(), None, false, ticket))
                    })
                }
                _ => {
                    let mut tables = TableSet::exclusive(&mut guard);
                    self.execute_body(&mut tables, stmt, params, txn, tid, true)
                }
            }
        } else {
            let r = LatchPlan::for_statement(&catalog, stmt, &engine.latches).and_then(|plan| {
                let mut tables = TableSet::latch(&catalog, &plan, &engine.latches)?;
                self.execute_body(&mut tables, stmt, params, txn, tid, false)
            });
            drop(catalog);
            r
        };

        match result {
            Ok((mut outcome, publish, vacuum_due, ticket)) => {
                if let Some(t) = &ticket {
                    // Durability wait, strictly after every latch above
                    // dropped — an fsync must never serialize unrelated
                    // statements. An error here fail-stops the statement
                    // (autocommit locks release via the drop guard).
                    let syncs = self.wait_ticket(t)?;
                    outcome.cost.wal_bytes += t.bytes;
                    outcome.cost.wal_syncs += syncs;
                }
                if let Some(p) = publish {
                    p();
                }
                if autocommit {
                    // The statement's lock set is known exactly: release
                    // just those resources instead of sweeping every
                    // shard.
                    auto_release.armed = false;
                    if !reqs.is_empty() {
                        self.shared.locks.release_resources(
                            tid,
                            reqs.iter().map(|(t, pk, _)| (t.as_str(), pk.as_ref())),
                        );
                    }
                }
                if vacuum_due {
                    self.vacuum();
                }
                if ticket.is_some() {
                    self.maybe_auto_checkpoint();
                }
                Ok(outcome)
            }
            Err(e) => Err(e),
        }
    }

    /// The latched portion of a write statement's execution, running
    /// against the statement's [`TableSet`]. Writes carry an [`ExecView`]
    /// pairing the transaction's pinned snapshot (or the latest committed
    /// epoch for autocommit — loaded *after* latching, so the epoch's
    /// versions are fully visible on every latched table) with the latest
    /// epoch for constraint probes. `fire` says whether autocommit
    /// triggers may fire here (true only on the exclusive-latch path).
    fn execute_body(
        &self,
        tables: &mut TableSet<'_>,
        stmt: &Statement,
        params: &[Value],
        txn: Option<&mut TxnState>,
        tid: TxnId,
        fire: bool,
    ) -> Result<(ExecOutcome, DeferredPublish, bool, Option<WalTicket>)> {
        let engine = &*self.engine;
        engine.counters.statements.fetch_add(1, Ordering::Relaxed);
        let latest = self.shared.commit_epoch.load(Ordering::Acquire);
        let view = ExecView {
            snap: Snapshot {
                epoch: txn.as_ref().map_or(latest, |t| t.snap),
                writer: Some(tid),
            },
            latest_epoch: latest,
        };
        let mut cost = CostReport::new();
        match stmt {
            Statement::Insert(ins) => {
                engine.counters.writes.fetch_add(1, Ordering::Relaxed);
                let effect = exec::run_insert(tables, &engine.pool, ins, params, &mut cost, &view)?;
                self.finish_write(tables, effect, &mut cost, txn, &view, fire)
            }
            Statement::Update(upd) => {
                engine.counters.writes.fetch_add(1, Ordering::Relaxed);
                let effect = exec::run_update(tables, &engine.pool, upd, params, &mut cost, &view)?;
                self.finish_write(tables, effect, &mut cost, txn, &view, fire)
            }
            Statement::Delete(del) => {
                engine.counters.writes.fetch_add(1, Ordering::Relaxed);
                let effect = exec::run_delete(tables, &engine.pool, del, params, &mut cost, &view)?;
                self.finish_write(tables, effect, &mut cost, txn, &view, fire)
            }
            Statement::CreateTable(_) | Statement::CreateIndex { .. } => {
                unreachable!("DDL runs under the exclusive catalog latch")
            }
            Statement::Select(_)
            | Statement::Explain(_)
            | Statement::Begin
            | Statement::Commit
            | Statement::Rollback => {
                unreachable!("reads and transaction control handled in execute()")
            }
        }
    }

    /// Completes a write statement. Inside a transaction the row changes
    /// and undo log buffer in [`TxnState`] — triggers fire (coalesced) at
    /// COMMIT, so an aborted transaction publishes no cache effects and
    /// the WAL sees one group append per transaction. Autocommit keeps the
    /// immediate path: the hook bracket runs now (with triggers firing
    /// when `fire` — the exclusive-latch path — otherwise provably no
    /// trigger matches), and the statement pays its own WAL append — but
    /// only when it actually changed rows; a write matching nothing
    /// appends nothing.
    fn finish_write(
        &self,
        tables: &mut TableSet<'_>,
        effect: exec::WriteEffect,
        cost: &mut CostReport,
        txn: Option<&mut TxnState>,
        view: &ExecView,
        fire: bool,
    ) -> Result<(ExecOutcome, DeferredPublish, bool, Option<WalTicket>)> {
        if let Some(txn) = txn {
            txn.undo.extend(effect.undo);
            txn.wrote |= !effect.changes.is_empty();
            txn.changes.extend(effect.changes);
            return Ok((
                ExecOutcome {
                    result: QueryResult::affected(effect.affected),
                    cost: *cost,
                },
                None,
                false,
                None,
            ));
        }
        // Autocommit: triggers fire now, against the latest committed
        // state plus this statement's own rows (the statement is its own
        // commit point). `next_epoch`, not `commit_epoch`: a stamped but
        // not-yet-durable commit on these tables is committed state this
        // statement must see (see commit_latched).
        let trigger_snap = Snapshot {
            epoch: self.shared.next_epoch.load(Ordering::Acquire),
            writer: view.snap.writer,
        };
        match self.run_commit_bracket(tables, &effect.changes, cost, false, &trigger_snap, fire) {
            Ok(publish) => {
                let mut vacuum_due = false;
                let mut ticket = None;
                if !effect.undo.is_empty() {
                    cost.wal_appends += 1; // the statement is its own commit point
                    let redo = self
                        .shared
                        .wal
                        .as_ref()
                        .map(|_| wal::encode_commit(&effect.changes));
                    match self.stamp_commit(tables, &effect.undo, view.tid(), redo) {
                        Ok(t) => ticket = t,
                        Err(e) => {
                            // Poisoned log: nothing stamped, roll the
                            // statement's rows back, publish nothing.
                            exec::apply_undo(tables, effect.undo, view.tid())?;
                            return Err(e);
                        }
                    }
                    vacuum_due = self.note_commit_for_vacuum();
                }
                flush_stats_for(tables, &effect.changes);
                Ok((
                    ExecOutcome {
                        result: QueryResult::affected(effect.affected),
                        cost: *cost,
                    },
                    publish,
                    vacuum_due,
                    ticket,
                ))
            }
            Err(e) => {
                // A failing trigger (or hook rejection) aborts the
                // statement: undo its row changes, publish nothing.
                exec::apply_undo(tables, effect.undo, view.tid())?;
                Err(e)
            }
        }
    }

    /// The commit-hook bracket shared by transaction COMMIT and
    /// autocommitted write statements: open the effect buffer, fire
    /// triggers over `changes` (when `fire`; per-table-latched commits
    /// run with `fire == false` because no enabled trigger matches any
    /// changed table, so the bracket is empty and interleaving with a
    /// concurrent firing commit is harmless), then either seal the
    /// buffered effects (returning the deferred publication step) or
    /// discard them on a trigger failure. The caller handles undo and
    /// error wrapping.
    fn run_commit_bracket(
        &self,
        tables: &TableSet<'_>,
        changes: &[RowChange],
        cost: &mut CostReport,
        txn_commit: bool,
        trigger_snap: &Snapshot,
        fire: bool,
    ) -> Result<DeferredPublish> {
        let hook = self.engine.commit_hook.read().clone();
        if let Some(h) = &hook {
            h.begin_apply();
        }
        let fired = if fire {
            self.fire_triggers(tables, changes, cost, trigger_snap)
        } else {
            Ok(())
        };
        match fired {
            Ok(()) => match &hook {
                Some(h) => h.commit_apply(cost, txn_commit),
                None => Ok(None),
            },
            Err(e) => {
                if let Some(h) = &hook {
                    h.abort_apply();
                }
                Err(e)
            }
        }
    }

    /// Fires commit-time triggers. Their queries read `trigger_snap`:
    /// the latest committed state plus the committing transaction's own
    /// writes — never another transaction's uncommitted rows. Runs only
    /// on the exclusive-latch path, where `tables` covers every table a
    /// trigger query might read; trigger queries run serially (no
    /// vectorized parallel scans inside a commit).
    fn fire_triggers(
        &self,
        tables: &TableSet<'_>,
        changes: &[RowChange],
        cost: &mut CostReport,
        trigger_snap: &Snapshot,
    ) -> Result<()> {
        let engine = &*self.engine;
        let triggers = engine.triggers.read();
        if changes.is_empty() || !triggers.is_enabled() {
            return Ok(());
        }
        for change in changes {
            let matching = triggers.matching(&change.table, change.event);
            for trigger in matching {
                engine
                    .counters
                    .triggers_fired
                    .fetch_add(1, Ordering::Relaxed);
                cost.triggers_fired += 1;
                let mut query_cost = CostReport::new();
                {
                    let pool = &engine.pool;
                    let mut query_fn = |prepared: &PreparedSelect, params: &[Value]| {
                        exec::run_prepared(
                            tables,
                            pool,
                            prepared,
                            params,
                            &mut query_cost,
                            trigger_snap,
                            1, // trigger-body queries already run inside a commit: serial
                        )
                    };
                    let mut ctx = TriggerCtx {
                        event: change.event,
                        table: &change.table,
                        old: change.old.as_ref(),
                        new: change.new.as_ref(),
                        query_fn: &mut query_fn,
                        statements: &engine.statements,
                        cost,
                    };
                    trigger
                        .body
                        .fire(&mut ctx)
                        .map_err(|e| StorageError::TriggerFailed {
                            trigger: trigger.name.clone(),
                            detail: e.to_string(),
                        })?;
                }
                // Work done by trigger-issued queries counts as trigger
                // work plus real page traffic.
                cost.trigger_rows_scanned += query_cost.rows_scanned;
                cost.index_probes += query_cost.index_probes;
                cost.page_hits += query_cost.page_hits;
                cost.page_misses += query_cost.page_misses;
                cost.page_writebacks += query_cost.page_writebacks;
            }
        }
        Ok(())
    }
}

/// The calling thread's [`TxnState`], *removed* from the transaction
/// table for one statement's duration — so a [`ConcurrentTxn::commit`] /
/// `rollback` racing an in-flight statement from another thread fails
/// cleanly with [`StorageError::NoTransaction`] instead of corrupting the
/// transaction mid-statement. Drop reinstates it on every exit — normal
/// return, error, or unwind — unless a cross-thread kill doomed the
/// transaction meanwhile, in which case it rolls the transaction back
/// instead of orphaning its locks.
struct TxnSlot<'a> {
    db: &'a Database,
    thread: ThreadId,
    state: Option<TxnState>,
}

impl Drop for TxnSlot<'_> {
    fn drop(&mut self) {
        let Some(state) = self.state.take() else {
            return;
        };
        let shared = &self.db.shared;
        let doomed = {
            let mut d = shared.doomed.lock();
            if d.get(&self.thread) == Some(&state.tid) {
                d.remove(&self.thread);
                true
            } else {
                false
            }
        };
        if doomed {
            shared.txns.ended_checked_out();
            let _ = self.db.rollback_state(self.thread, state);
        } else {
            shared.txns.checkin(self.thread, state);
        }
    }
}

/// Statement-duration (autocommit) locks must release on every exit,
/// including a panic unwinding out of the executor — leaked locks block
/// other threads forever.
struct AutoRelease<'a> {
    locks: &'a LockManager,
    tid: TxnId,
    armed: bool,
}

impl Drop for AutoRelease<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.locks.release_all(self.tid);
        }
    }
}

/// Plans the lock set a statement needs, in canonical order (table name,
/// then table-level before row-level, then row key): pk-targeted writes
/// take a table intent lock plus exclusive row locks; writes whose
/// predicate does not pin primary keys escalate to a table-level
/// exclusive lock. DDL relies on the exclusive catalog latch alone, and
/// SELECTs never come here (see [`Database::execute_prepared`]). Runs
/// under the shared catalog latch, taking brief counted per-table read
/// latches to extract primary keys.
fn plan_locks(
    catalog: &Catalog,
    stmt: &Statement,
    params: &[Value],
    counters: &LatchCounters,
) -> Result<Vec<LockReq>> {
    let mut reqs: Vec<LockReq> = Vec::new();
    match stmt {
        Statement::Insert(ins) => {
            let guard = crate::latch::read_counted(catalog.latch(&ins.table)?, counters);
            let table = &*guard;
            let schema = table.schema();
            let pk_pos = if ins.columns.is_empty() {
                Some(schema.primary_key_pos())
            } else {
                ins.columns.iter().position(|c| c == schema.primary_key())
            };
            let mut keys = Vec::with_capacity(ins.rows.len());
            let mut resolved = true;
            for row in &ins.rows {
                let key = pk_pos
                    .and_then(|p| row.get(p))
                    .and_then(|e| crate::plan::eval_const(e, params).ok())
                    .and_then(|v| crate::plan::coerce_for_column(table, schema.primary_key(), &v));
                match key {
                    Some(k) => keys.push(k),
                    None => {
                        resolved = false;
                        break;
                    }
                }
            }
            push_write_locks(
                &mut reqs,
                &ins.table,
                if resolved { Some(keys) } else { None },
            );
        }
        Statement::Update(upd) => {
            let guard = crate::latch::read_counted(catalog.latch(&upd.table)?, counters);
            let table = &*guard;
            let mut keys =
                crate::plan::pk_target_keys(table, &upd.table, upd.predicate.as_ref(), params)?;
            // An assignment to the pk column moves the row; lock the
            // destination key too (escalate when it is not constant).
            if let Some(ks) = &mut keys {
                let pk = table.schema().primary_key();
                for (col, e) in &upd.sets {
                    if col == pk {
                        match crate::plan::eval_const(e, params)
                            .ok()
                            .and_then(|v| crate::plan::coerce_for_column(table, pk, &v))
                        {
                            Some(v) => ks.push(v),
                            None => {
                                keys = None;
                                break;
                            }
                        }
                    }
                }
            }
            push_write_locks(&mut reqs, &upd.table, keys);
        }
        Statement::Delete(del) => {
            let guard = crate::latch::read_counted(catalog.latch(&del.table)?, counters);
            let table = &*guard;
            let keys =
                crate::plan::pk_target_keys(table, &del.table, del.predicate.as_ref(), params)?;
            push_write_locks(&mut reqs, &del.table, keys);
        }
        // DDL and transaction control use the latch; reads take no locks.
        Statement::Select(_)
        | Statement::Explain(_)
        | Statement::CreateTable(_)
        | Statement::CreateIndex { .. }
        | Statement::Begin
        | Statement::Commit
        | Statement::Rollback => {}
    }
    reqs.sort_by(|a, b| (&a.0, &a.1, a.2).cmp(&(&b.0, &b.1, b.2)));
    reqs.dedup();
    Ok(reqs)
}

fn push_write_locks(reqs: &mut Vec<LockReq>, table: &str, keys: Option<Vec<Value>>) {
    match keys {
        Some(keys) => {
            reqs.push((table.to_owned(), None, LockMode::IntentExclusive));
            for k in keys {
                reqs.push((table.to_owned(), Some(k), LockMode::Exclusive));
            }
        }
        None => reqs.push((table.to_owned(), None, LockMode::Exclusive)),
    }
}

/// Guard for one thread-scoped concurrent transaction (see
/// [`Database::begin_concurrent`]). All methods must be called on the
/// thread that opened it.
pub struct ConcurrentTxn {
    db: Database,
    thread: ThreadId,
    tid: TxnId,
    open: bool,
}

impl std::fmt::Debug for ConcurrentTxn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentTxn")
            .field("open", &self.open)
            .finish()
    }
}

impl ConcurrentTxn {
    fn check_thread(&self) -> Result<()> {
        if std::thread::current().id() != self.thread {
            return Err(StorageError::Unsupported(
                "ConcurrentTxn used from a thread other than its owner".into(),
            ));
        }
        Ok(())
    }

    /// Executes a statement inside this transaction.
    ///
    /// # Errors
    ///
    /// Engine errors; on [`StorageError::Deadlock`] call
    /// [`ConcurrentTxn::rollback`] and retry the whole transaction.
    pub fn execute(&mut self, stmt: &Statement, params: &[Value]) -> Result<ExecOutcome> {
        self.check_thread()?;
        self.db.execute(stmt, params)
    }

    /// Parses and executes SQL inside this transaction.
    ///
    /// # Errors
    ///
    /// Parse and engine errors.
    pub fn execute_sql(&mut self, sql: &str, params: &[Value]) -> Result<ExecOutcome> {
        self.check_thread()?;
        self.db.execute_sql(sql, params)
    }

    /// Commits; returns the commit-time cost (trigger firing, WAL).
    /// Works from any thread — the transaction's state is keyed by its
    /// owner thread, which this guard remembers.
    ///
    /// # Errors
    ///
    /// [`StorageError::TransactionAborted`] when a commit-time trigger or
    /// hook aborts the transaction (already rolled back).
    pub fn commit(mut self) -> Result<CostReport> {
        self.open = false;
        let r = self.db.commit_txn_for(self.thread, Some(self.tid));
        if matches!(r, Err(StorageError::NoTransaction)) {
            // Raced a statement in flight on the owner thread: the state
            // is checked out of the map. Doom the transaction so the
            // owner rolls it back (releasing its locks) when the
            // statement completes; the commit itself fails.
            self.db.doom_txn(self.thread, self.tid);
        }
        r
    }

    /// Rolls back explicitly (dropping the guard does the same). Works
    /// from any thread.
    ///
    /// # Errors
    ///
    /// Undo-application errors (engine corruption; should not happen).
    pub fn rollback(mut self) -> Result<()> {
        self.open = false;
        let r = self.db.rollback_named(self.thread, self.tid);
        if matches!(r, Err(StorageError::NoTransaction)) {
            self.db.doom_txn(self.thread, self.tid);
            return Ok(()); // the owner thread completes the rollback
        }
        r
    }
}

impl Drop for ConcurrentTxn {
    fn drop(&mut self) {
        if self.open {
            // Keyed by the owner thread, so a guard dropped on another
            // thread still rolls back — never leaking the transaction's
            // locks. If a statement holds the state checked out right
            // now, doom the transaction instead: the owner thread rolls
            // it back the moment the statement completes.
            if matches!(
                self.db.rollback_named(self.thread, self.tid),
                Err(StorageError::NoTransaction)
            ) {
                self.db.doom_txn(self.thread, self.tid);
            }
        }
    }
}

/// Handle passed to [`Database::transaction`] closures.
pub struct TxnHandle<'a> {
    db: &'a Database,
    cost: CostReport,
}

impl TxnHandle<'_> {
    /// Executes a statement inside the transaction.
    ///
    /// # Errors
    ///
    /// Engine errors; the caller's closure should propagate them so the
    /// transaction rolls back.
    pub fn execute(&mut self, stmt: &Statement, params: &[Value]) -> Result<QueryResult> {
        let out = self.db.execute(stmt, params)?;
        self.cost += out.cost;
        Ok(out.result)
    }

    /// Parses and executes SQL inside the transaction.
    ///
    /// # Errors
    ///
    /// Parse and engine errors.
    pub fn execute_sql(&mut self, sql: &str, params: &[Value]) -> Result<QueryResult> {
        let stmt = crate::sql::parse(sql)?;
        self.execute(&stmt, params)
    }

    /// Physical cost accumulated by this transaction so far.
    pub fn cost(&self) -> CostReport {
        self.cost
    }
}

impl std::fmt::Debug for TxnHandle<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxnHandle")
            .field("cost", &self.cost)
            .finish()
    }
}

/// Applies pending (statement/commit-batched) statistics deltas for
/// every table named in `changes`.
fn flush_stats_for(tables: &TableSet<'_>, changes: &[RowChange]) {
    let names: BTreeSet<&str> = changes.iter().map(|c| c.table.as_str()).collect();
    for t in names {
        if let Ok(table) = tables.table(t) {
            table.flush_stats();
        }
    }
}

/// Internal invariants that need access to engine private state: the
/// checkpoint's capture pin must hold the vacuum horizon exactly like a
/// live transaction snapshot does.
#[cfg(test)]
mod durability_internal_tests {
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
