//! The one commit path. A transaction's COMMIT and an autocommitted
//! write — a one-statement transaction — end the same way:
//!
//! 1. [`Database::fires`] decides whether the commit fires triggers;
//!    [`Database::latched`] then takes the exclusive catalog latch if it
//!    does, and per-table write latches otherwise — the only place a
//!    write escalates;
//! 2. [`Database::commit_latched`], under those latches, fires the
//!    triggers over the commit's net row changes inside the commit-hook
//!    bracket, stamps the written versions at the next epoch (enqueueing
//!    the redo record on a durable database) and books the vacuum
//!    cadence;
//! 3. [`Database::finish_commit`], after every latch dropped, waits for
//!    the redo record, publishes the hook's deferred cache effects,
//!    wakes autocommitted writes waiting for a writer to finish and runs
//!    a due vacuum or checkpoint.
//!
//! The two callers differ only in what they hand over: COMMIT coalesces
//! its buffered changes first and wraps a failure in
//! [`StorageError::TransactionAborted`]; a write statement passes the
//! changes it just made and its error as it is.

use super::txn::{written_tables, TxnId, TxnState};
use super::{Database, DeferredPublish};
use crate::catalog::Catalog;
use crate::coalesce::coalesce_changes;
use crate::cost::CostReport;
use crate::error::{Result, StorageError};
use crate::exec::{self, RowChange, UndoOp};
use crate::latch::{LatchPlan, TableSet};
use crate::prepared::PreparedSelect;
use crate::row::RowId;
use crate::table::Snapshot;
use crate::trigger::TriggerCtx;
use crate::value::Value;
use crate::wal::{self, WalTicket};
use parking_lot::RwLockReadGuard;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::Ordering;
use std::thread::ThreadId;

/// Inline vacuum cadence: after this many write commits the committing
/// statement sweeps all tables for versions older than the oldest live
/// snapshot (cheap when there is no history). Explicit
/// [`Database::vacuum`] calls are always available on top.
pub(super) const VACUUM_COMMIT_INTERVAL: u64 = 256;

/// What the latched commit step leaves for the epilogue.
pub(super) struct Committed {
    /// The hook's deferred cache publication.
    publish: DeferredPublish,
    /// The redo record's place in the log, on a durable database.
    ticket: Option<WalTicket>,
    /// Whether this commit completed an inline-vacuum interval.
    vacuum_due: bool,
}

impl Database {
    /// Whether a commit writing `tables` fires triggers: some enabled
    /// trigger watches one of them. The one predicate that sends a
    /// commit to the exclusive catalog latch. A trigger registered
    /// concurrently with the commit does not apply to it — registration
    /// linearizes at the registry lock, before or after this read.
    pub(super) fn fires<'a>(&self, tables: impl IntoIterator<Item = &'a str>) -> bool {
        let triggers = self.engine.triggers.read();
        triggers.is_enabled() && tables.into_iter().any(|t| triggers.has_for_table(t))
    }

    /// Runs `body` under a write's latches. A commit that `fire`s takes
    /// the exclusive catalog latch: trigger queries may read arbitrary
    /// tables, and the hook's effect batch must not interleave with
    /// another firing commit. Everything else takes `plan`'s table
    /// latches (writes on the written tables) under the shared catalog
    /// latch — `held`, when the caller already has it.
    pub(super) fn latched<T>(
        &self,
        held: Option<RwLockReadGuard<'_, Catalog>>,
        fire: bool,
        plan: impl FnOnce(&Catalog) -> Result<LatchPlan>,
        body: impl FnOnce(&mut TableSet<'_>) -> Result<T>,
    ) -> Result<T> {
        let engine = &*self.engine;
        if fire {
            drop(held);
            let mut catalog = engine.catalog_write();
            return body(&mut TableSet::exclusive(&mut catalog));
        }
        let catalog = held.unwrap_or_else(|| engine.catalog_read());
        let plan = plan(&catalog)?;
        let mut tables = TableSet::latch(&catalog, &plan, &engine.latches)?;
        body(&mut tables)
    }

    /// COMMIT of `thread`'s transaction — only if it is still `tid`,
    /// when given, so a stale [`super::ConcurrentTxn`] can never commit a
    /// later transaction on its thread. Coalesces the buffered row
    /// changes to one net change per row and runs them through the
    /// commit path; a failing trigger body, hook or log aborts the whole
    /// transaction instead — undo applied, nothing published.
    pub(super) fn commit_txn_for(
        &self,
        thread: ThreadId,
        tid: Option<TxnId>,
    ) -> Result<CostReport> {
        let TxnState {
            tid,
            snap,
            undo,
            changes,
        } = self
            .shared
            .txns
            .end(thread, tid)
            .ok_or(StorageError::NoTransaction)?;
        let mut cost = CostReport::new();
        let fire = self.fires(changes.iter().map(|c| c.table.as_str()));
        let plan = written_tables(&undo);
        let committed = self.latched(
            None,
            fire,
            |_| Ok(plan),
            |tables| {
                let changes = coalesce_changes(tables, changes);
                self.commit_latched(tables, tid, undo, &changes, &mut cost, true, fire)
                    .map_err(|e| StorageError::TransactionAborted(e.to_string()))
            },
        );
        self.release_snapshot(snap);
        match committed {
            Ok(done) => self.finish_commit(done, &mut cost)?,
            Err(e) => {
                // The commit step already applied the undo log.
                self.engine
                    .counters
                    .rollbacks
                    .fetch_add(1, Ordering::Relaxed);
                self.shared.note_finished();
                return Err(e);
            }
        }
        Ok(cost)
    }

    /// The latched commit step. Fires triggers over the net `changes`
    /// inside the commit-hook bracket (`txn_commit` selects the hook's
    /// accounting and books a transaction commit), then — when `undo`
    /// shows rows were written — stamps them at the next epoch, after
    /// enqueueing their redo record on a durable database. A trigger,
    /// hook or log failure applies the undo log and returns the error;
    /// nothing is published. The caller holds write latches on every
    /// table `undo` names, and the whole catalog when `fire`.
    #[allow(clippy::too_many_arguments)] // one commit's payload plus latch context
    pub(super) fn commit_latched(
        &self,
        tables: &mut TableSet<'_>,
        tid: TxnId,
        undo: Vec<UndoOp>,
        changes: &[RowChange],
        cost: &mut CostReport,
        txn_commit: bool,
        fire: bool,
    ) -> Result<Committed> {
        let mut publish = None;
        if !changes.is_empty() {
            // Commit-point snapshot: triggers see every committed state
            // plus this commit's own (still uncommitted) writes — never
            // another transaction's in-flight rows. The commit is its
            // serialization point, so cache effects computed here agree
            // with the post-commit database. The snapshot reads at
            // `next_epoch`, not the published `commit_epoch`: an earlier
            // commit on these tables may be stamped but still waiting on
            // the log, and its rows are committed state this commit must
            // see (safe — this commit's record can only become durable
            // after that one, log order being epoch order).
            let trigger_snap = Snapshot {
                epoch: self.shared.next_epoch.load(Ordering::Acquire),
                writer: Some(tid),
            };
            match self.run_commit_bracket(tables, changes, cost, txn_commit, &trigger_snap, fire) {
                Ok(p) => publish = p,
                Err(e) => {
                    exec::apply_undo(tables, undo, tid)?;
                    return Err(e);
                }
            }
        }
        let mut ticket = None;
        let mut vacuum_due = false;
        if !undo.is_empty() {
            cost.wal_appends += 1;
            let redo = self
                .shared
                .wal
                .as_ref()
                .map(|_| wal::encode_commit(changes));
            match self.stamp_commit(tables, &undo, tid, redo) {
                Ok(t) => ticket = t,
                Err(e) => {
                    // The log rejected the append (fail-stop poison):
                    // nothing was stamped, and the sealed cache
                    // publication is dropped unpublished.
                    exec::apply_undo(tables, undo, tid)?;
                    return Err(e);
                }
            }
            vacuum_due = self.note_commit_for_vacuum();
        }
        flush_stats_for(tables, changes);
        if txn_commit {
            self.engine.counters.commits.fetch_add(1, Ordering::Relaxed);
        }
        Ok(Committed {
            publish,
            ticket,
            vacuum_due,
        })
    }

    /// The post-latch epilogue, run once every latch has dropped — an
    /// fsync or a cache publication must never serialize unrelated
    /// statements. Waits until the redo record is durable (publishing
    /// the epoch), runs the hook's deferred cache publication, books the
    /// commit as finished — waking autocommitted writes that wait for a
    /// conflicting writer — then runs a due inline vacuum and a due
    /// auto-checkpoint. A log failure still books the finish, so waiting
    /// writes wake to the same fail-stop error instead of hanging; the
    /// commit's epoch stays unpublished.
    pub(super) fn finish_commit(&self, done: Committed, cost: &mut CostReport) -> Result<()> {
        let durable = match &done.ticket {
            Some(t) => self.wait_ticket(t).map(|syncs| {
                cost.wal_bytes += t.bytes;
                cost.wal_syncs += syncs;
            }),
            None => Ok(()),
        };
        if let (Ok(()), Some(publish)) = (&durable, done.publish) {
            cost.trigger_cache_ops += publish();
        }
        self.shared.note_finished();
        durable?;
        if done.vacuum_due {
            self.vacuum();
        }
        if done.ticket.is_some() {
            self.maybe_auto_checkpoint();
        }
        Ok(())
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
    pub(super) fn wait_ticket(&self, ticket: &WalTicket) -> Result<u64> {
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
    /// its latches.
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
    pub(super) fn vacuum_horizon(&self) -> u64 {
        let snaps = self.shared.live_snaps.lock();
        snaps
            .keys()
            .next()
            .copied()
            .unwrap_or_else(|| self.shared.commit_epoch.load(Ordering::Acquire))
    }

    /// The commit-hook bracket: open the effect buffer, fire triggers
    /// over `changes` (when `fire`; a per-table-latched commit runs with
    /// `fire == false` because no enabled trigger matches any changed
    /// table, so the bracket is empty and interleaving with a concurrent
    /// firing commit is harmless), then either seal the buffered effects
    /// (returning the deferred publication step) or discard them on a
    /// trigger failure. The caller handles undo.
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
    /// trigger query might read.
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
