//! Transactions: the thread-keyed table of open transactions, BEGIN and
//! ROLLBACK, and the guards applications hold — [`ConcurrentTxn`] and
//! the [`TxnHandle`] a [`Database::transaction`] closure receives. COMMIT
//! belongs to the commit path (`commit.rs`).

use super::{Database, ExecOutcome};
use crate::cost::CostReport;
use crate::error::{Result, StorageError};
use crate::exec::{self, RowChange, UndoOp};
use crate::latch::{LatchPlan, TableSet};
use crate::query::{QueryResult, Statement};
use crate::value::Value;
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::ThreadId;

/// Transaction identifier, allocated monotonically by the engine. It
/// names the writer of an uncommitted row version
/// ([`crate::Snapshot::writer`]).
pub type TxnId = u64;

/// Per-transaction state. Lives in the engine's thread-keyed transaction
/// map, so each writer thread buffers privately — nothing here is shared
/// between concurrent transactions.
pub(super) struct TxnState {
    /// The writer of this transaction's uncommitted versions.
    pub(super) tid: TxnId,
    /// Commit epoch pinned at BEGIN: every read in this transaction
    /// resolves row versions at this snapshot (plus its own writes),
    /// and writes first-updater-wins-check against it. Registered in
    /// `EngineShared::live_snaps` so vacuum never prunes a version this
    /// transaction can still see.
    pub(super) snap: u64,
    /// Undo records in statement order. Every written row pushes one
    /// beside its [`RowChange`], so the log is non-empty exactly when
    /// the transaction wrote — and only then does COMMIT stamp an epoch
    /// and append a redo record (read-only transactions write nothing).
    pub(super) undo: Vec<UndoOp>,
    /// Row changes buffered for commit-time trigger firing, in statement
    /// order. Coalesced per (table, pk) when the transaction commits.
    pub(super) changes: Vec<RowChange>,
}

/// Write latches on every table `undo` names — what a COMMIT or a
/// ROLLBACK needs (row changes never name a table their undo records
/// do not).
pub(super) fn written_tables(undo: &[UndoOp]) -> LatchPlan {
    let names: BTreeSet<&str> = undo
        .iter()
        .map(|op| match op {
            UndoOp::Insert { table, .. }
            | UndoOp::Delete { table, .. }
            | UndoOp::Update { table, .. } => table.as_str(),
        })
        .collect();
    LatchPlan::writes(names.into_iter().map(str::to_owned))
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
pub(super) struct TxnTable {
    states: Mutex<HashMap<ThreadId, TxnState>>,
    open: AtomicUsize,
}

impl TxnTable {
    pub(super) fn new() -> Self {
        TxnTable {
            states: Mutex::new(HashMap::new()),
            open: AtomicUsize::new(0),
        }
    }

    /// Whether `thread` has a transaction whose state is not checked out.
    pub(super) fn has(&self, thread: ThreadId) -> bool {
        self.open.load(Ordering::SeqCst) != 0 && self.states.lock().contains_key(&thread)
    }

    /// Ends `thread`'s transaction (only if it is `tid`, when given),
    /// handing its state to the commit or rollback that called.
    pub(super) fn end(&self, thread: ThreadId, tid: Option<TxnId>) -> Option<TxnState> {
        let mut states = self.states.lock();
        let open = states.get(&thread)?;
        if tid.is_some_and(|tid| open.tid != tid) {
            return None;
        }
        self.open.fetch_sub(1, Ordering::SeqCst);
        states.remove(&thread)
    }
}

/// The calling thread's [`TxnState`], taken out of the transaction table
/// for one statement, so the statement works on it without holding the
/// table's mutex. Drop puts it back on every exit — normal return,
/// error, or unwind.
pub(super) struct TxnSlot<'a> {
    txns: &'a TxnTable,
    thread: ThreadId,
    pub(super) state: Option<TxnState>,
}

impl Drop for TxnSlot<'_> {
    fn drop(&mut self) {
        if let Some(state) = self.state.take() {
            self.txns.states.lock().insert(self.thread, state);
        }
    }
}

impl Database {
    /// Checks the calling thread's transaction state (if any) out of the
    /// transaction table for one statement.
    pub(super) fn checkout_txn(&self) -> TxnSlot<'_> {
        let txns = &self.shared.txns;
        let thread = std::thread::current().id();
        let state = if txns.open.load(Ordering::SeqCst) == 0 {
            None
        } else {
            txns.states.lock().remove(&thread)
        };
        TxnSlot {
            txns,
            thread,
            state,
        }
    }

    /// BEGIN: opens a transaction bound to the calling thread and
    /// returns its id.
    pub(super) fn begin_txn(&self) -> Result<TxnId> {
        let thread = std::thread::current().id();
        let txns = &self.shared.txns;
        let mut states = txns.states.lock();
        if states.contains_key(&thread) {
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
        let tid = self.shared.alloc_tid();
        states.insert(
            thread,
            TxnState {
                tid,
                snap,
                undo: Vec::new(),
                changes: Vec::new(),
            },
        );
        txns.open.fetch_add(1, Ordering::SeqCst);
        Ok(tid)
    }

    /// Drops one reference to a pinned snapshot epoch (transaction end).
    pub(super) fn release_snapshot(&self, epoch: u64) {
        let mut snaps = self.shared.live_snaps.lock();
        if let Some(n) = snaps.get_mut(&epoch) {
            *n -= 1;
            if *n == 0 {
                snaps.remove(&epoch);
            }
        }
    }

    /// ROLLBACK of `thread`'s transaction — only if it is still `tid`,
    /// when given, so a stale [`ConcurrentTxn`] can never end a later
    /// transaction on its thread: applies the undo log under write
    /// latches on the written tables, books the rollback, releases the
    /// transaction's snapshot and wakes autocommitted writes waiting for
    /// a writer to finish.
    pub(super) fn rollback_txn_for(&self, thread: ThreadId, tid: Option<TxnId>) -> Result<()> {
        let txn = self
            .shared
            .txns
            .end(thread, tid)
            .ok_or(StorageError::NoTransaction)?;
        let engine = &*self.engine;
        let undone = {
            let catalog = engine.catalog_read();
            TableSet::latch(&catalog, &written_tables(&txn.undo), &engine.latches)
                .and_then(|mut tables| exec::apply_undo(&mut tables, txn.undo, txn.tid))
        };
        engine.counters.rollbacks.fetch_add(1, Ordering::Relaxed);
        self.release_snapshot(txn.snap);
        self.shared.note_finished();
        undone
    }
}

/// Guard for one concurrent transaction (see
/// [`Database::begin_concurrent`]). Dropping it without committing rolls
/// the transaction back.
///
/// The transaction belongs to the thread that opened it — that thread's
/// statements join it — so the guard is neither `Send` nor `Sync`, and
/// the compiler refuses to hand it to another thread:
///
/// ```compile_fail,E0277
/// let db = genie_storage::Database::default();
/// let txn = db.begin_concurrent().unwrap();
/// std::thread::spawn(move || drop(txn));
/// ```
pub struct ConcurrentTxn {
    db: Database,
    thread: ThreadId,
    tid: TxnId,
    open: bool,
    _thread_bound: PhantomData<*const ()>,
}

impl std::fmt::Debug for ConcurrentTxn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentTxn")
            .field("open", &self.open)
            .finish()
    }
}

impl ConcurrentTxn {
    /// The guard for transaction `tid`, just begun on the calling thread.
    pub(super) fn new(db: Database, tid: TxnId) -> Self {
        ConcurrentTxn {
            db,
            thread: std::thread::current().id(),
            tid,
            open: true,
            _thread_bound: PhantomData,
        }
    }

    /// Executes a statement inside this transaction.
    ///
    /// # Errors
    ///
    /// Engine errors; on [`StorageError::WriteConflict`] call
    /// [`ConcurrentTxn::rollback`] and retry the whole transaction.
    pub fn execute(&mut self, stmt: &Statement, params: &[Value]) -> Result<ExecOutcome> {
        self.db.execute(stmt, params)
    }

    /// Parses and executes SQL inside this transaction.
    ///
    /// # Errors
    ///
    /// Parse and engine errors.
    pub fn execute_sql(&mut self, sql: &str, params: &[Value]) -> Result<ExecOutcome> {
        self.db.execute_sql(sql, params)
    }

    /// Commits; returns the commit-time cost (trigger firing, WAL).
    ///
    /// # Errors
    ///
    /// [`StorageError::TransactionAborted`] when a commit-time trigger or
    /// hook aborts the transaction (already rolled back);
    /// [`StorageError::NoTransaction`] when a `COMMIT` or `ROLLBACK`
    /// statement already ended it.
    pub fn commit(mut self) -> Result<CostReport> {
        self.open = false;
        self.db.commit_txn_for(self.thread, Some(self.tid))
    }

    /// Rolls back explicitly (dropping the guard does the same).
    ///
    /// # Errors
    ///
    /// [`StorageError::NoTransaction`] when a `COMMIT` or `ROLLBACK`
    /// statement already ended the transaction; undo-application errors
    /// (engine corruption; should not happen).
    pub fn rollback(mut self) -> Result<()> {
        self.open = false;
        self.db.rollback_txn_for(self.thread, Some(self.tid))
    }
}

impl Drop for ConcurrentTxn {
    fn drop(&mut self) {
        if self.open {
            let _ = self.db.rollback_txn_for(self.thread, Some(self.tid));
        }
    }
}

/// Handle passed to [`Database::transaction`] closures.
pub struct TxnHandle<'a> {
    db: &'a Database,
    cost: CostReport,
}

impl<'a> TxnHandle<'a> {
    pub(super) fn new(db: &'a Database) -> Self {
        TxnHandle {
            db,
            cost: CostReport::new(),
        }
    }

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
