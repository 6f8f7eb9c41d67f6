//! Durability around the commit path: creating and reopening a durable
//! database (crash recovery replays the checkpoint image and the
//! committed log records), checkpoints — fuzzy captures of the committed
//! state that let the log be truncated — and the
//! [`Database::content_digest`] recovery is checked against. The log
//! itself is `crate::wal`; `docs/DURABILITY.md` has the protocol.

use super::{Database, DbConfig};
use crate::error::{Result, StorageError};
use crate::schema::IndexDef;
use crate::table::Snapshot;
use crate::wal::{
    self, CheckpointImage, CheckpointStats, RecoveryReport, TableImage, Wal, WalConfig, WalStats,
};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;

impl Database {
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
    pub(super) fn maybe_auto_checkpoint(&self) {
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
}
