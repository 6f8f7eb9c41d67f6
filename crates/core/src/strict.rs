//! Strict transactional consistency over the cache — the §3.3 extension.
//!
//! The paper *describes* (but does not implement) full serializability:
//! the cache tracks `readers_k`/`writer_k` per key, transactions follow
//! two-phase locking on cache keys, deadlocks are broken by timeout, and
//! an aborting transaction removes the keys it wrote so subsequent reads
//! go to the database. This module implements that protocol on top of
//! [`genie_cache::KeyLockTable`].
//!
//! Blocking is cooperative (the benchmark driver runs in virtual time):
//! lock attempts retry up to a bound, and exhaustion maps to the paper's
//! timeout-based deadlock detection — the transaction aborts.

use crate::genie::{CacheGenie, EvalOutcome};
use genie_cache::{KeyLockTable, LockOutcome, TxnId};
use genie_storage::{Result, StorageError, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Terminal state of a strict transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnOutcome {
    /// All locks released after a successful commit.
    Committed,
    /// Locks released; written keys dropped from the cache.
    Aborted,
}

struct StrictShared {
    locks: KeyLockTable,
    next_tid: AtomicU64,
}

/// Issues strict transactions; share one manager per cache cluster.
#[derive(Clone)]
pub struct StrictTxnManager {
    shared: Arc<StrictShared>,
    /// Lock acquisition attempts before declaring deadlock-by-timeout.
    pub lock_attempts: usize,
}

impl Default for StrictTxnManager {
    fn default() -> Self {
        StrictTxnManager::new()
    }
}

impl std::fmt::Debug for StrictTxnManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StrictTxnManager")
            .field("lock_attempts", &self.lock_attempts)
            .finish()
    }
}

impl StrictTxnManager {
    /// Creates a manager with the default timeout budget.
    pub fn new() -> Self {
        StrictTxnManager {
            shared: Arc::new(StrictShared {
                locks: KeyLockTable::new(),
                next_tid: AtomicU64::new(1),
            }),
            lock_attempts: 3,
        }
    }

    /// Begins a transaction against `genie`'s cache.
    pub fn begin(&self, genie: &CacheGenie) -> StrictTxn {
        StrictTxn {
            tid: self.shared.next_tid.fetch_add(1, Ordering::Relaxed),
            shared: Arc::clone(&self.shared),
            genie: genie.clone(),
            lock_attempts: self.lock_attempts,
            written: Vec::new(),
            done: false,
        }
    }

    /// Keys currently locked (diagnostics).
    pub fn locked_keys(&self) -> usize {
        self.shared.locks.locked_keys()
    }

    /// Allocates a transaction id for the commit-time effect pipeline
    /// (the database side of the paper's §3.3 agreed-txn-id protocol).
    pub(crate) fn alloc_tid(&self) -> TxnId {
        self.shared.next_tid.fetch_add(1, Ordering::Relaxed)
    }

    /// Acquires a write lock for `tid` on `key` within the attempt
    /// budget; `false` means deadlock-by-timeout (the caller aborts).
    pub(crate) fn acquire_write(&self, tid: TxnId, key: &str) -> bool {
        for _ in 0..self.lock_attempts.max(1) {
            if self.shared.locks.try_write(tid, key) == LockOutcome::Granted {
                return true;
            }
        }
        false
    }

    /// Releases every lock `tid` holds (2PL shrinking phase).
    pub(crate) fn release(&self, tid: TxnId) {
        self.shared.locks.release_all(tid);
    }
}

/// One strict transaction. Reads acquire read locks on cache keys before
/// consulting the cache; writes must acquire write locks before the
/// database write whose triggers will touch those keys. Dropping without
/// committing aborts.
pub struct StrictTxn {
    tid: TxnId,
    shared: Arc<StrictShared>,
    genie: CacheGenie,
    lock_attempts: usize,
    written: Vec<String>,
    done: bool,
}

impl std::fmt::Debug for StrictTxn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StrictTxn")
            .field("tid", &self.tid)
            .field("written", &self.written.len())
            .finish()
    }
}

impl StrictTxn {
    /// The transaction id agreed between application and database (§3.3).
    pub fn tid(&self) -> TxnId {
        self.tid
    }

    /// Reads a cached object under a read lock.
    ///
    /// # Errors
    ///
    /// [`StorageError::LockTimeout`] when the lock cannot be acquired
    /// within the attempt budget (deadlock-by-timeout) — the caller should
    /// [`StrictTxn::abort`]. Also unknown-object and database errors.
    pub fn read(&mut self, object: &str, params: &[Value]) -> Result<EvalOutcome> {
        // Values no key holds (NULL) are read from the database, past the
        // cache: there is nothing to lock.
        if let Some(key) = self.genie.key_of(object, params)? {
            self.acquire(&key, false)?;
        }
        self.genie.evaluate(object, params)
    }

    /// Acquires a write lock on the cache key a database write is about
    /// to touch. Call before the write statement. A row whose key field
    /// is NULL is filed under a key nothing reads, so its write locks
    /// nothing.
    ///
    /// # Errors
    ///
    /// [`StorageError::LockTimeout`] on lock-budget exhaustion.
    pub fn write_lock(&mut self, object: &str, params: &[Value]) -> Result<()> {
        if let Some(key) = self.genie.key_of(object, params)? {
            self.acquire(&key, true)?;
            self.written.push(key);
        }
        Ok(())
    }

    /// Commits: releases every lock.
    pub fn commit(mut self) -> TxnOutcome {
        self.shared.locks.release_all(self.tid);
        self.done = true;
        TxnOutcome::Committed
    }

    /// Aborts: releases locks and removes written keys from the cache so
    /// the next reader refetches committed data from the database.
    pub fn abort(mut self) -> TxnOutcome {
        self.abort_inner();
        self.done = true;
        TxnOutcome::Aborted
    }

    fn abort_inner(&mut self) {
        let written = self.shared.locks.release_all(self.tid);
        let cache = self
            .genie
            .cluster()
            .handle(genie_cache::CacheOrigin::Application);
        for key in written.iter().chain(self.written.iter()) {
            cache.delete(key);
        }
        self.written.clear();
    }

    fn acquire(&self, key: &str, write: bool) -> Result<()> {
        for _ in 0..self.lock_attempts.max(1) {
            let outcome = if write {
                self.shared.locks.try_write(self.tid, key)
            } else {
                self.shared.locks.try_read(self.tid, key)
            };
            if outcome == LockOutcome::Granted {
                return Ok(());
            }
        }
        Err(StorageError::LockTimeout {
            table: key.to_owned(),
        })
    }
}

impl Drop for StrictTxn {
    fn drop(&mut self) {
        if !self.done {
            self.abort_inner();
        }
    }
}
