//! Lock planning for write statements: the 2PL lock set a statement
//! needs ([`plan_locks`]), its acquisition without ever waiting under a
//! latch ([`Database::acquire_locks`]), and the release of statement- and
//! transaction-duration locks.

use super::txn::TxnState;
use super::Database;
use crate::catalog::Catalog;
use crate::error::Result;
use crate::lockmgr::{LatchCounters, LockManager, LockMode, TxnId};
use crate::query::Statement;
use crate::value::Value;
use parking_lot::RwLockReadGuard;
use std::collections::BTreeSet;

/// One lock request a statement needs before executing.
pub(super) type LockReq = (String, Option<Value>, LockMode);

impl Database {
    /// Acquires a statement's lock requests for `tid`, recording them in
    /// the transaction first. Uncontended locks are granted under the
    /// shared catalog latch; on the first conflict the latch is released
    /// for the wait and re-taken afterwards.
    pub(super) fn acquire_locks<'e>(
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

    /// 2PL shrinking phase: releases exactly the resources the
    /// transaction's statements requested (tracked in
    /// [`TxnState::targets`]) plus its wait-graph residue, instead of
    /// sweeping every lock-manager shard.
    pub(super) fn release_txn_locks(
        &self,
        tid: TxnId,
        targets: &BTreeSet<(String, Option<Value>)>,
    ) {
        self.shared
            .locks
            .release_resources(tid, targets.iter().map(|(t, pk)| (t.as_str(), pk.as_ref())));
        self.shared.locks.clear_waiter(tid);
    }
}

/// Statement-duration (autocommit) locks: released exactly, by
/// [`AutoRelease::release`], when the statement commits — and wholesale
/// on every other exit, including a panic unwinding out of the executor,
/// because leaked locks block other threads forever.
pub(super) struct AutoRelease<'a> {
    pub(super) locks: &'a LockManager,
    pub(super) tid: TxnId,
    pub(super) armed: bool,
}

impl AutoRelease<'_> {
    /// Releases the statement's lock set `reqs` — known exactly, so just
    /// those resources rather than a sweep of every shard.
    pub(super) fn release(&mut self, reqs: &[LockReq]) {
        self.armed = false;
        self.locks.release_resources(
            self.tid,
            reqs.iter().map(|(t, pk, _)| (t.as_str(), pk.as_ref())),
        );
    }
}

impl Drop for AutoRelease<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.locks.release_all(self.tid);
        }
    }
}

/// Plans the lock set a write statement needs, in canonical order (table
/// name, then table-level before row-level, then row key): pk-targeted
/// writes take a table intent lock plus exclusive row locks; writes
/// whose predicate does not pin primary keys escalate to a table-level
/// exclusive lock. DDL relies on the exclusive catalog latch alone, and
/// SELECTs never come here (see [`Database::execute_prepared`]). Runs
/// under the shared catalog latch, taking brief counted per-table read
/// latches to extract primary keys.
pub(super) fn plan_locks(
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
