//! Durable write-ahead logging: the append-only redo log, group commit,
//! fuzzy checkpoints, and the crash-recovery log scan.
//!
//! # Log format
//!
//! A durable database owns a directory containing numbered log
//! *segments* (`wal-00000001.log`, `wal-00000002.log`, …) plus at most
//! one checkpoint snapshot (`checkpoint.ckpt`). Segments are append-only
//! sequences of framed records:
//!
//! ```text
//! [len: u32 LE][crc32(payload): u32 LE][payload: len bytes]
//! ```
//!
//! The payload's first byte is the record kind: `1` = COMMIT (commit
//! epoch + the transaction's net coalesced row changes), `2` = CREATE
//! TABLE (full schema), `3` = CREATE INDEX. Everything is encoded with a
//! small self-contained binary codec (little-endian integers,
//! length-prefixed strings) — see [`WalRecord`].
//!
//! # Group commit
//!
//! Committers never write the log themselves. Under the engine's epoch
//! mutex they `Wal::enqueue` their sealed record (pure memory: frame +
//! checksum + queue push), then — after releasing every latch — park in
//! `Wal::wait_durable`. The first parked committer becomes the
//! *leader*: it drains the whole pending queue, writes the batch with a
//! single `write` + `fdatasync`, and wakes every member. N concurrent
//! committers therefore pay ~1 sync, not N.
//!
//! # Checkpoints and truncation
//!
//! A fuzzy checkpoint rotates to a fresh segment **first**, then reads
//! the checkpoint epoch `C` under the epoch mutex (so every record that
//! could have reached a sealed segment has epoch ≤ `C`), pins `C`
//! against vacuum, captures each table's rows visible at `C` one table
//! latch at a time, atomically replaces `checkpoint.ckpt`
//! (tmp + fsync + rename + dir fsync), and only then deletes the sealed
//! segments. A crash at any point leaves either the old checkpoint with
//! all segments or the new checkpoint with a strict suffix — never a
//! state recovery cannot replay.
//!
//! # Recovery
//!
//! `read_log` loads the checkpoint image and scans the segments in
//! order, stopping at the first torn or corrupt frame (short header,
//! implausible length, checksum mismatch, undecodable payload): that
//! point is the crash frontier, and `cleanup_log` truncates it plus
//! every later segment. `Database::open_with_recovery` then replays
//! COMMIT records in dense epoch order on top of the checkpoint image.
//! In-flight transactions never reach the log (only COMMIT serializes
//! changes), so they are discarded by construction.

use crate::error::{Result, StorageError};
use crate::exec::RowChange;
use crate::row::Row;
use crate::schema::{ColumnDef, IndexDef, TableSchema};
use crate::trigger::TriggerEvent;
use crate::value::{Value, ValueType};
use std::collections::VecDeque;
use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Bytes of frame header preceding every record payload.
const FRAME_HEADER: usize = 8;
/// Upper bound on a single record payload; anything larger in a length
/// prefix is treated as corruption.
const MAX_RECORD_BYTES: usize = 1 << 28;
/// Segment file name prefix/suffix: `wal-<seq:08>.log`.
const SEGMENT_PREFIX: &str = "wal-";
const SEGMENT_SUFFIX: &str = ".log";
/// Checkpoint snapshot file, atomically replaced via rename.
const CHECKPOINT_FILE: &str = "checkpoint.ckpt";
const CHECKPOINT_TMP: &str = "checkpoint.tmp";
/// Magic prefix of the checkpoint file.
const CHECKPOINT_MAGIC: &[u8; 8] = b"GWCKPT01";

// ---------------------------------------------------------------------------
// CRC32 (IEEE), table-driven
// ---------------------------------------------------------------------------

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = build_crc_table();

/// CRC-32 (IEEE 802.3 polynomial) over `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Binary codec
// ---------------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(0),
        Value::Int(i) => {
            buf.push(1);
            put_u64(buf, *i as u64);
        }
        Value::Float(f) => {
            buf.push(2);
            put_u64(buf, f.to_bits());
        }
        Value::Text(s) => {
            buf.push(3);
            put_str(buf, s);
        }
        Value::Bool(b) => {
            buf.push(4);
            buf.push(u8::from(*b));
        }
        Value::Timestamp(t) => {
            buf.push(5);
            put_u64(buf, *t as u64);
        }
    }
}

/// Encodes one row (arity + values). Also used by
/// `Database::content_digest` so digests and log bytes agree.
pub(crate) fn put_row(buf: &mut Vec<u8>, row: &Row) {
    put_u32(buf, row.arity() as u32);
    for v in row.values() {
        put_value(buf, v);
    }
}

fn value_type_tag(ty: ValueType) -> u8 {
    match ty {
        ValueType::Int => 0,
        ValueType::Float => 1,
        ValueType::Text => 2,
        ValueType::Bool => 3,
        ValueType::Timestamp => 4,
    }
}

/// Encodes a full table schema (columns, primary key, foreign keys,
/// page hint). Also used by `Database::content_digest`.
pub(crate) fn put_schema(buf: &mut Vec<u8>, schema: &TableSchema) {
    put_str(buf, schema.name());
    put_str(buf, schema.primary_key());
    put_u32(buf, schema.columns().len() as u32);
    for c in schema.columns() {
        put_str(buf, &c.name);
        buf.push(value_type_tag(c.ty));
        buf.push(u8::from(c.not_null));
        buf.push(u8::from(c.unique));
    }
    put_u32(buf, schema.foreign_keys().len() as u32);
    for fk in schema.foreign_keys() {
        put_str(buf, &fk.name);
        put_str(buf, &fk.column);
        put_str(buf, &fk.ref_table);
        put_str(buf, &fk.ref_column);
    }
    put_u64(buf, schema.rows_per_page_hint as u64);
}

/// Encodes an index definition. Also used by `Database::content_digest`.
pub(crate) fn put_index_def(buf: &mut Vec<u8>, def: &IndexDef) {
    put_str(buf, &def.name);
    put_u32(buf, def.columns.len() as u32);
    for c in &def.columns {
        put_str(buf, c);
    }
    buf.push(u8::from(def.unique));
}

fn event_tag(ev: TriggerEvent) -> u8 {
    match ev {
        TriggerEvent::Insert => 0,
        TriggerEvent::Update => 1,
        TriggerEvent::Delete => 2,
    }
}

fn put_opt_row(buf: &mut Vec<u8>, row: Option<&Row>) {
    match row {
        None => buf.push(0),
        Some(r) => {
            buf.push(1);
            put_row(buf, r);
        }
    }
}

/// Decode cursor over a record payload.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

fn bad(msg: impl std::fmt::Display) -> StorageError {
    StorageError::Wal(format!("log decode: {msg}"))
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cur { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(bad("payload ends early"));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn str_(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| bad("non-UTF-8 string"))
    }

    fn value(&mut self) -> Result<Value> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Int(self.u64()? as i64),
            2 => Value::Float(f64::from_bits(self.u64()?)),
            3 => Value::Text(self.str_()?),
            4 => Value::Bool(self.u8()? != 0),
            5 => Value::Timestamp(self.u64()? as i64),
            t => return Err(bad(format!("unknown value tag {t}"))),
        })
    }

    fn row(&mut self) -> Result<Row> {
        let n = self.u32()? as usize;
        // Every value takes at least its tag byte, so a corrupt arity
        // cannot size the row's allocation.
        if n > self.buf.len() - self.pos {
            return Err(bad("implausible row arity"));
        }
        Row::try_build(n, |vals| {
            for v in vals {
                *v = self.value()?;
            }
            Ok(())
        })
    }

    fn opt_row(&mut self) -> Result<Option<Row>> {
        Ok(match self.u8()? {
            0 => None,
            1 => Some(self.row()?),
            t => return Err(bad(format!("unknown option tag {t}"))),
        })
    }

    fn event(&mut self) -> Result<TriggerEvent> {
        Ok(match self.u8()? {
            0 => TriggerEvent::Insert,
            1 => TriggerEvent::Update,
            2 => TriggerEvent::Delete,
            t => return Err(bad(format!("unknown event tag {t}"))),
        })
    }

    fn value_type(&mut self) -> Result<ValueType> {
        Ok(match self.u8()? {
            0 => ValueType::Int,
            1 => ValueType::Float,
            2 => ValueType::Text,
            3 => ValueType::Bool,
            4 => ValueType::Timestamp,
            t => return Err(bad(format!("unknown type tag {t}"))),
        })
    }

    fn schema(&mut self) -> Result<TableSchema> {
        let name = self.str_()?;
        let pk = self.str_()?;
        let ncols = self.u32()? as usize;
        let mut b = TableSchema::builder(&name);
        for _ in 0..ncols {
            let cname = self.str_()?;
            let ty = self.value_type()?;
            let not_null = self.u8()? != 0;
            let unique = self.u8()? != 0;
            b = b.column(ColumnDef {
                name: cname,
                ty,
                not_null,
                unique,
            });
        }
        b = b.primary_key(pk);
        let nfks = self.u32()? as usize;
        let mut fk_names = Vec::with_capacity(nfks);
        for _ in 0..nfks {
            let fk_name = self.str_()?;
            let column = self.str_()?;
            let ref_table = self.str_()?;
            let ref_column = self.str_()?;
            fk_names.push(fk_name);
            b = b.foreign_key(column, ref_table, ref_column);
        }
        let hint = self.u64()? as usize;
        let schema = b.rows_per_page(hint).build()?;
        // The builder re-derives constraint names; every schema in this
        // system is builder-built, so they must round-trip exactly.
        for (fk, logged) in schema.foreign_keys().iter().zip(&fk_names) {
            if fk.name != *logged {
                return Err(bad(format!(
                    "foreign-key name {:?} does not round-trip (logged {logged:?})",
                    fk.name
                )));
            }
        }
        Ok(schema)
    }

    fn index_def(&mut self) -> Result<IndexDef> {
        let name = self.str_()?;
        let ncols = self.u32()? as usize;
        if ncols > MAX_RECORD_BYTES {
            return Err(bad("implausible index arity"));
        }
        let mut columns = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            columns.push(self.str_()?);
        }
        let unique = self.u8()? != 0;
        Ok(IndexDef {
            name,
            columns,
            unique,
        })
    }

    fn done(&self) -> Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(bad("trailing bytes after record"))
        }
    }
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// One decoded log record.
#[derive(Debug, Clone)]
pub enum WalRecord {
    /// A committed transaction: its epoch plus the net coalesced row
    /// changes (one per touched `(table, pk)`).
    Commit {
        /// Commit epoch stamped into the MVCC version chains.
        epoch: u64,
        /// Net redo set, in first-touch order.
        changes: Vec<RowChange>,
    },
    /// `CREATE TABLE` with the full validated schema.
    CreateTable(TableSchema),
    /// `CREATE INDEX` on an existing table.
    CreateIndex {
        /// Owning table.
        table: String,
        /// The index definition.
        def: IndexDef,
    },
}

/// Serializes a COMMIT record payload with an epoch **placeholder** —
/// the epoch is only known once the commit holds the epoch mutex, where
/// [`patch_epoch`] stamps it in. Encoding the (potentially large)
/// change set happens before any global serialization point.
pub(crate) fn encode_commit(changes: &[RowChange]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + changes.len() * 32);
    buf.push(1);
    put_u64(&mut buf, 0); // epoch placeholder, see patch_epoch
    put_u32(&mut buf, changes.len() as u32);
    for ch in changes {
        put_str(&mut buf, &ch.table);
        buf.push(event_tag(ch.event));
        put_opt_row(&mut buf, ch.old.as_ref());
        put_opt_row(&mut buf, ch.new.as_ref());
    }
    buf
}

/// Stamps the allocated commit epoch into a payload produced by
/// [`encode_commit`]. Must run before the payload is framed (the frame
/// checksum covers the epoch).
pub(crate) fn patch_epoch(payload: &mut [u8], epoch: u64) {
    payload[1..9].copy_from_slice(&epoch.to_le_bytes());
}

/// Serializes a CREATE TABLE record payload.
pub(crate) fn encode_create_table(schema: &TableSchema) -> Vec<u8> {
    let mut buf = Vec::with_capacity(128);
    buf.push(2);
    put_schema(&mut buf, schema);
    buf
}

/// Serializes a CREATE INDEX record payload.
pub(crate) fn encode_create_index(table: &str, def: &IndexDef) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    buf.push(3);
    put_str(&mut buf, table);
    put_index_def(&mut buf, def);
    buf
}

/// Decodes one record payload (the bytes covered by the frame CRC).
pub(crate) fn decode_record(payload: &[u8]) -> Result<WalRecord> {
    let mut c = Cur::new(payload);
    let rec = match c.u8()? {
        1 => {
            let epoch = c.u64()?;
            let n = c.u32()? as usize;
            if n > MAX_RECORD_BYTES {
                return Err(bad("implausible change count"));
            }
            let mut changes = Vec::with_capacity(n);
            for _ in 0..n {
                let table = c.str_()?;
                let event = c.event()?;
                let old = c.opt_row()?;
                let new = c.opt_row()?;
                changes.push(RowChange {
                    table,
                    event,
                    old,
                    new,
                });
            }
            WalRecord::Commit { epoch, changes }
        }
        2 => WalRecord::CreateTable(c.schema()?),
        3 => {
            let table = c.str_()?;
            let def = c.index_def()?;
            WalRecord::CreateIndex { table, def }
        }
        k => return Err(bad(format!("unknown record kind {k}"))),
    };
    c.done()?;
    Ok(rec)
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, crc32(payload));
    out.extend_from_slice(payload);
    out
}

// ---------------------------------------------------------------------------
// Configuration, tickets, stats
// ---------------------------------------------------------------------------

/// Tuning for a durable database's log writer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalConfig {
    /// Simulated device flush latency in microseconds, slept after every
    /// sync. In-memory page caches (tmpfs, dev laptops) make `fdatasync`
    /// nearly free, which would hide exactly the cost group commit
    /// amortizes; benches and the concurrency audit set this to a
    /// realistic device latency so committers actually overlap a sync.
    pub sync_delay_us: u64,
    /// Take an automatic fuzzy checkpoint every this many commits
    /// (`0` = manual checkpoints only).
    pub checkpoint_every: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            sync_delay_us: 0,
            checkpoint_every: 4096,
        }
    }
}

/// Handle for one enqueued record: redeemed via `Wal::wait_durable`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WalTicket {
    /// Queue sequence number (durable once `flushed_seq >= seq`).
    pub seq: u64,
    /// Commit epoch carried by the record (`0` for DDL records).
    pub epoch: u64,
    /// Framed bytes this record added to the log.
    pub bytes: u64,
}

/// Cumulative log-writer counters (see `Wal::stats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended (commits + DDL).
    pub records: u64,
    /// Framed bytes appended.
    pub bytes: u64,
    /// Physical sync operations performed.
    pub syncs: u64,
    /// Leader batches written (for group commit, `records / batches` is
    /// the achieved amortization).
    pub batches: u64,
    /// Segment rotations.
    pub rotations: u64,
    /// Checkpoints completed.
    pub checkpoints: u64,
    /// Sealed segments deleted by checkpoint truncation.
    pub segments_deleted: u64,
}

/// Result of one completed checkpoint (see `Database::checkpoint`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Epoch the snapshot captures; recovery replays only later epochs.
    pub epoch: u64,
    /// Bytes written to the checkpoint file.
    pub bytes: u64,
    /// Sealed log segments deleted after the snapshot landed.
    pub segments_deleted: u64,
    /// Tables captured.
    pub tables: u64,
    /// Total rows captured.
    pub rows: u64,
}

#[derive(Debug, Default)]
struct Counters {
    records: AtomicU64,
    bytes: AtomicU64,
    syncs: AtomicU64,
    batches: AtomicU64,
    rotations: AtomicU64,
    checkpoints: AtomicU64,
    segments_deleted: AtomicU64,
    commits_since_checkpoint: AtomicU64,
}

// ---------------------------------------------------------------------------
// The log writer
// ---------------------------------------------------------------------------

struct WalInner {
    /// The open segment. Shared so a leader writes through its own
    /// handle outside the mutex without a `dup`; `rotate` swaps in the
    /// next segment once no leader is in flight.
    file: Arc<File>,
    segment_seq: u64,
    /// Framed records awaiting the next leader, in seq order.
    pending: VecDeque<(u64, Vec<u8>)>,
    /// Next ticket seq to hand out (starts at 1).
    next_seq: u64,
    /// Every seq `<= flushed_seq` is durable.
    flushed_seq: u64,
    /// A leader is currently writing a batch outside the mutex.
    leader: bool,
    /// Set on the first I/O error; the log is fail-stop from then on.
    poisoned: Option<String>,
}

/// The append-only redo log attached to a durable `Database`.
///
/// All engine interaction goes through three calls: `Wal::enqueue`
/// (under the epoch mutex, no I/O), `Wal::wait_durable` (after latch
/// release; group-commit leader election happens here), and the
/// checkpoint protocol (`rotate` + checkpoint file + truncation).
pub struct Wal {
    dir: PathBuf,
    cfg: WalConfig,
    inner: Mutex<WalInner>,
    flushed_cv: Condvar,
    counters: Counters,
    /// Serializes checkpoints (auto checkpoints skip when contended).
    checkpoint_lock: Mutex<()>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("dir", &self.dir)
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

fn io_err(what: &str, path: &Path, e: &std::io::Error) -> StorageError {
    StorageError::Wal(format!("{what} {}: {e}", path.display()))
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("{SEGMENT_PREFIX}{seq:08}{SEGMENT_SUFFIX}"))
}

fn open_segment(dir: &Path, seq: u64) -> Result<File> {
    let path = segment_path(dir, seq);
    OpenOptions::new()
        .create_new(true)
        .append(true)
        .open(&path)
        .map_err(|e| io_err("create log segment", &path, &e))
}

fn sync_dir(dir: &Path) -> Result<()> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err("sync log directory", dir, &e))
}

/// Lists log segments in `dir`, sorted by sequence number.
fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(io_err("read log directory", dir, &e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| io_err("read log directory", dir, &e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name
            .strip_prefix(SEGMENT_PREFIX)
            .and_then(|s| s.strip_suffix(SEGMENT_SUFFIX))
        else {
            continue;
        };
        if let Ok(seq) = stem.parse::<u64>() {
            out.push((seq, entry.path()));
        }
    }
    out.sort_unstable();
    Ok(out)
}

impl Wal {
    /// Starts a **fresh** log in `dir` (created if absent).
    ///
    /// # Errors
    ///
    /// [`StorageError::Wal`] if `dir` already contains segments or a
    /// checkpoint — an existing log must go through recovery, never be
    /// silently overwritten.
    pub(crate) fn create(dir: &Path, cfg: WalConfig) -> Result<Wal> {
        fs::create_dir_all(dir).map_err(|e| io_err("create log directory", dir, &e))?;
        if !list_segments(dir)?.is_empty() || dir.join(CHECKPOINT_FILE).exists() {
            return Err(StorageError::Wal(format!(
                "directory {} already contains a write-ahead log; \
                 open it with Database::open_with_recovery",
                dir.display()
            )));
        }
        Wal::with_segment(dir.to_path_buf(), cfg, 1)
    }

    /// Resumes logging after recovery, appending to a brand-new segment
    /// `seq` (one past the highest segment the scan saw).
    pub(crate) fn resume(dir: &Path, cfg: WalConfig, seq: u64) -> Result<Wal> {
        fs::create_dir_all(dir).map_err(|e| io_err("create log directory", dir, &e))?;
        Wal::with_segment(dir.to_path_buf(), cfg, seq)
    }

    fn with_segment(dir: PathBuf, cfg: WalConfig, seq: u64) -> Result<Wal> {
        let file = open_segment(&dir, seq)?;
        sync_dir(&dir)?;
        Ok(Wal {
            dir,
            cfg,
            inner: Mutex::new(WalInner {
                file: Arc::new(file),
                segment_seq: seq,
                pending: VecDeque::new(),
                next_seq: 1,
                flushed_seq: 0,
                leader: false,
                poisoned: None,
            }),
            flushed_cv: Condvar::new(),
            counters: Counters::default(),
            checkpoint_lock: Mutex::new(()),
        })
    }

    /// The log directory.
    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// Queues a sealed record (framed + checksummed) for the next
    /// leader. Pure memory — called under the engine's epoch mutex, so
    /// it must never block on I/O. Records with `epoch > 0` count
    /// toward the automatic-checkpoint cadence.
    pub(crate) fn enqueue(&self, payload: Vec<u8>, epoch: u64) -> Result<WalTicket> {
        if payload.len() > MAX_RECORD_BYTES {
            return Err(StorageError::Wal(format!(
                "record payload of {} bytes exceeds the {MAX_RECORD_BYTES}-byte limit",
                payload.len()
            )));
        }
        let framed = frame(&payload);
        let bytes = framed.len() as u64;
        let mut inner = self.inner.lock().expect("wal mutex");
        if let Some(msg) = &inner.poisoned {
            return Err(StorageError::Wal(msg.clone()));
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.pending.push_back((seq, framed));
        self.counters.records.fetch_add(1, Ordering::Relaxed);
        self.counters.bytes.fetch_add(bytes, Ordering::Relaxed);
        if epoch > 0 {
            self.counters
                .commits_since_checkpoint
                .fetch_add(1, Ordering::Relaxed);
        }
        Ok(WalTicket { seq, epoch, bytes })
    }

    /// Parks until the ticket's record is durable, electing this thread
    /// as the batch leader when none is active. Returns the number of
    /// physical syncs this thread performed (0 when another leader
    /// flushed the record — the amortization group commit exists for).
    ///
    /// # Errors
    ///
    /// [`StorageError::Wal`] once the log is poisoned by an I/O error;
    /// the record may or may not be durable, and no later record will
    /// ever be.
    pub(crate) fn wait_durable(&self, ticket: &WalTicket) -> Result<u64> {
        let mut syncs = 0u64;
        let mut inner = self.inner.lock().expect("wal mutex");
        loop {
            if let Some(msg) = &inner.poisoned {
                return Err(StorageError::Wal(msg.clone()));
            }
            if inner.flushed_seq >= ticket.seq {
                return Ok(syncs);
            }
            if inner.leader {
                inner = self.flushed_cv.wait(inner).expect("wal cv");
                continue;
            }
            // Become the leader for the next batch.
            inner.leader = true;
            let batch: Vec<(u64, Vec<u8>)> = inner.pending.drain(..).collect();
            let Some(&(high, _)) = batch.last() else {
                // Unreachable: an unflushed ticket implies a pending
                // record whenever no leader is in flight.
                inner.leader = false;
                self.flushed_cv.notify_all();
                continue;
            };
            let file = Arc::clone(&inner.file);
            drop(inner);

            let mut buf = Vec::with_capacity(batch.iter().map(|(_, b)| b.len()).sum());
            for (_, b) in &batch {
                buf.extend_from_slice(b);
            }
            let io = (&*file).write_all(&buf).and_then(|()| file.sync_data());
            if self.cfg.sync_delay_us > 0 {
                std::thread::sleep(Duration::from_micros(self.cfg.sync_delay_us));
            }

            inner = self.inner.lock().expect("wal mutex");
            match io {
                Ok(()) => {
                    inner.flushed_seq = high;
                    inner.leader = false;
                    syncs += 1;
                    self.counters.syncs.fetch_add(1, Ordering::Relaxed);
                    self.counters.batches.fetch_add(1, Ordering::Relaxed);
                    self.flushed_cv.notify_all();
                }
                Err(e) => {
                    return Err(self.poison(inner, format!("append to log segment: {e}")));
                }
            }
        }
    }

    /// Poisons the log (fail-stop): every current and future caller
    /// gets the same error, and no commit after the failed batch will
    /// ever be reported durable.
    fn poison(&self, mut inner: MutexGuard<'_, WalInner>, msg: String) -> StorageError {
        inner.leader = false;
        inner.poisoned = Some(msg.clone());
        self.flushed_cv.notify_all();
        StorageError::Wal(msg)
    }

    /// Drains and syncs everything currently enqueued.
    pub(crate) fn flush_all(&self) -> Result<u64> {
        let seq = {
            let inner = self.inner.lock().expect("wal mutex");
            inner.next_seq - 1
        };
        self.wait_durable(&WalTicket {
            seq,
            epoch: 0,
            bytes: 0,
        })
    }

    /// Seals the current segment (sync) and switches appends to a fresh
    /// one. Waits out any in-flight leader so no write can land in the
    /// sealed segment afterwards. Returns the new segment's seq.
    pub(crate) fn rotate(&self) -> Result<u64> {
        let mut inner = self.inner.lock().expect("wal mutex");
        while inner.leader {
            inner = self.flushed_cv.wait(inner).expect("wal cv");
        }
        if let Some(msg) = &inner.poisoned {
            return Err(StorageError::Wal(msg.clone()));
        }
        if let Err(e) = inner.file.sync_data() {
            return Err(self.poison(inner, format!("sync segment before rotate: {e}")));
        }
        let seq = inner.segment_seq + 1;
        let file = match open_segment(&self.dir, seq) {
            Ok(f) => f,
            Err(e) => return Err(self.poison(inner, e.to_string())),
        };
        inner.file = Arc::new(file);
        inner.segment_seq = seq;
        drop(inner);
        sync_dir(&self.dir)?;
        self.counters.rotations.fetch_add(1, Ordering::Relaxed);
        Ok(seq)
    }

    /// Deletes every sealed segment with seq `< below` (checkpoint
    /// truncation). Returns how many were removed.
    pub(crate) fn delete_segments_below(&self, below: u64) -> Result<u64> {
        let mut deleted = 0u64;
        for (seq, path) in list_segments(&self.dir)? {
            if seq < below {
                fs::remove_file(&path).map_err(|e| io_err("delete sealed segment", &path, &e))?;
                deleted += 1;
            }
        }
        if deleted > 0 {
            sync_dir(&self.dir)?;
            self.counters
                .segments_deleted
                .fetch_add(deleted, Ordering::Relaxed);
        }
        Ok(deleted)
    }

    /// Whether the automatic-checkpoint commit budget is spent.
    pub(crate) fn checkpoint_due(&self) -> bool {
        self.cfg.checkpoint_every > 0
            && self
                .counters
                .commits_since_checkpoint
                .load(Ordering::Relaxed)
                >= self.cfg.checkpoint_every
    }

    /// Claims the checkpoint slot, resetting the auto-checkpoint budget.
    /// Non-blocking callers (the auto path) get `None` when another
    /// checkpoint is already running.
    pub(crate) fn checkpoint_begin(&self, blocking: bool) -> Option<MutexGuard<'_, ()>> {
        let guard = if blocking {
            Some(self.checkpoint_lock.lock().expect("checkpoint mutex"))
        } else {
            self.checkpoint_lock.try_lock().ok()
        };
        if guard.is_some() {
            self.counters
                .commits_since_checkpoint
                .store(0, Ordering::Relaxed);
        }
        guard
    }

    /// Marks a completed checkpoint in the counters.
    pub(crate) fn note_checkpoint(&self) {
        self.counters.checkpoints.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the cumulative log-writer counters.
    pub(crate) fn stats(&self) -> WalStats {
        WalStats {
            records: self.counters.records.load(Ordering::Relaxed),
            bytes: self.counters.bytes.load(Ordering::Relaxed),
            syncs: self.counters.syncs.load(Ordering::Relaxed),
            batches: self.counters.batches.load(Ordering::Relaxed),
            rotations: self.counters.rotations.load(Ordering::Relaxed),
            checkpoints: self.counters.checkpoints.load(Ordering::Relaxed),
            segments_deleted: self.counters.segments_deleted.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------------
// Checkpoint snapshot file
// ---------------------------------------------------------------------------

/// One table inside a checkpoint image.
#[derive(Debug, Clone)]
pub(crate) struct TableImage {
    /// Full schema (implicit unique indexes are re-derived from it).
    pub schema: TableSchema,
    /// Secondary indexes present at capture time.
    pub indexes: Vec<IndexDef>,
    /// Rows visible at the checkpoint epoch, in primary-key order.
    pub rows: Vec<Row>,
}

/// A decoded checkpoint snapshot: the database state at `epoch`.
#[derive(Debug, Clone)]
pub(crate) struct CheckpointImage {
    /// Every commit with epoch `<= epoch` is folded into the rows.
    pub epoch: u64,
    /// Captured tables, in catalog (sorted-name) order.
    pub tables: Vec<TableImage>,
}

/// Atomically replaces the checkpoint file in `dir` with `image`
/// (tmp + fsync + rename + dir fsync). Returns bytes written.
pub(crate) fn write_checkpoint(dir: &Path, image: &CheckpointImage) -> Result<u64> {
    let mut payload = Vec::with_capacity(4096);
    put_u64(&mut payload, image.epoch);
    put_u32(&mut payload, image.tables.len() as u32);
    for t in &image.tables {
        put_schema(&mut payload, &t.schema);
        put_u32(&mut payload, t.indexes.len() as u32);
        for def in &t.indexes {
            put_index_def(&mut payload, def);
        }
        put_u32(&mut payload, t.rows.len() as u32);
        for row in &t.rows {
            put_row(&mut payload, row);
        }
    }
    let mut bytes = Vec::with_capacity(CHECKPOINT_MAGIC.len() + FRAME_HEADER + payload.len());
    bytes.extend_from_slice(CHECKPOINT_MAGIC);
    bytes.extend_from_slice(&frame(&payload));

    let tmp = dir.join(CHECKPOINT_TMP);
    let path = dir.join(CHECKPOINT_FILE);
    let mut f = File::create(&tmp).map_err(|e| io_err("create checkpoint tmp", &tmp, &e))?;
    f.write_all(&bytes)
        .and_then(|()| f.sync_data())
        .map_err(|e| io_err("write checkpoint tmp", &tmp, &e))?;
    drop(f);
    fs::rename(&tmp, &path).map_err(|e| io_err("publish checkpoint", &path, &e))?;
    sync_dir(dir)?;
    Ok(bytes.len() as u64)
}

/// Loads the checkpoint file from `dir`, if one exists.
///
/// # Errors
///
/// A present-but-corrupt checkpoint is a hard error: the rename
/// protocol never leaves one behind, so corruption here means the
/// store itself is damaged and silent fallback would lose data.
pub(crate) fn read_checkpoint(dir: &Path) -> Result<Option<CheckpointImage>> {
    let path = dir.join(CHECKPOINT_FILE);
    let bytes = match fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err("read checkpoint", &path, &e)),
    };
    let rest = bytes
        .strip_prefix(CHECKPOINT_MAGIC.as_slice())
        .ok_or_else(|| bad("checkpoint magic mismatch"))?;
    if rest.len() < FRAME_HEADER {
        return Err(bad("checkpoint frame truncated"));
    }
    let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
    let crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
    let payload = rest
        .get(FRAME_HEADER..FRAME_HEADER + len)
        .ok_or_else(|| bad("checkpoint payload truncated"))?;
    if crc32(payload) != crc {
        return Err(bad("checkpoint checksum mismatch"));
    }
    let mut c = Cur::new(payload);
    let epoch = c.u64()?;
    let ntables = c.u32()? as usize;
    let mut tables = Vec::with_capacity(ntables);
    for _ in 0..ntables {
        let schema = c.schema()?;
        let nidx = c.u32()? as usize;
        let mut indexes = Vec::with_capacity(nidx);
        for _ in 0..nidx {
            indexes.push(c.index_def()?);
        }
        let nrows = c.u32()? as usize;
        let mut rows = Vec::with_capacity(nrows.min(1 << 20));
        for _ in 0..nrows {
            rows.push(c.row()?);
        }
        tables.push(TableImage {
            schema,
            indexes,
            rows,
        });
    }
    c.done()?;
    Ok(Some(CheckpointImage { epoch, tables }))
}

// ---------------------------------------------------------------------------
// Recovery scan
// ---------------------------------------------------------------------------

/// The first invalid byte of the log: the crash frontier.
#[derive(Debug, Clone)]
pub(crate) struct TornTail {
    /// Segment containing the torn/corrupt frame.
    pub segment: u64,
    /// That segment's path.
    pub path: PathBuf,
    /// Byte offset of the first invalid frame; the file is truncated
    /// here by `cleanup_log`.
    pub offset: u64,
    /// Human-readable corruption classification.
    pub reason: String,
    /// Later segments, unreachable past the frontier; deleted wholesale.
    pub drop_after: Vec<PathBuf>,
}

/// Everything `read_log` learned about a log directory.
#[derive(Debug)]
pub(crate) struct LogScan {
    /// Checkpoint image, when one exists.
    pub checkpoint: Option<CheckpointImage>,
    /// Valid records across all segments, in append order, stopping at
    /// the crash frontier.
    pub records: Vec<WalRecord>,
    /// The crash frontier, if the tail was torn or corrupt.
    pub truncate: Option<TornTail>,
    /// Segment seq the resumed log should append to (one past the
    /// highest existing segment).
    pub next_segment: u64,
    /// Segments visited.
    pub segments_scanned: u64,
    /// Bytes visited.
    pub bytes_scanned: u64,
}

fn parse_segment(bytes: &[u8]) -> (Vec<WalRecord>, Option<(u64, String)>) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    loop {
        if pos == bytes.len() {
            return (records, None);
        }
        if bytes.len() - pos < FRAME_HEADER {
            return (records, Some((pos as u64, "truncated frame header".into())));
        }
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
            as usize;
        if len == 0 || len > MAX_RECORD_BYTES {
            return (
                records,
                Some((pos as u64, format!("implausible record length {len}"))),
            );
        }
        if bytes.len() - pos - FRAME_HEADER < len {
            return (records, Some((pos as u64, "truncated record body".into())));
        }
        let crc = u32::from_le_bytes([
            bytes[pos + 4],
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
        ]);
        let payload = &bytes[pos + FRAME_HEADER..pos + FRAME_HEADER + len];
        if crc32(payload) != crc {
            return (records, Some((pos as u64, "checksum mismatch".into())));
        }
        match decode_record(payload) {
            Ok(r) => records.push(r),
            Err(e) => {
                return (
                    records,
                    Some((pos as u64, format!("undecodable record: {e}"))),
                )
            }
        }
        pos += FRAME_HEADER + len;
    }
}

/// Scans a log directory: checkpoint + every valid record up to the
/// crash frontier. Pure read — call `cleanup_log` to make the
/// truncation decision durable before resuming appends.
pub(crate) fn read_log(dir: &Path) -> Result<LogScan> {
    let checkpoint = read_checkpoint(dir)?;
    let segments = list_segments(dir)?;
    let mut scan = LogScan {
        checkpoint,
        records: Vec::new(),
        truncate: None,
        next_segment: segments.last().map_or(1, |(s, _)| s + 1),
        segments_scanned: 0,
        bytes_scanned: 0,
    };
    for (i, (seq, path)) in segments.iter().enumerate() {
        let bytes = fs::read(path).map_err(|e| io_err("read log segment", path, &e))?;
        scan.segments_scanned += 1;
        scan.bytes_scanned += bytes.len() as u64;
        let (records, stop) = parse_segment(&bytes);
        scan.records.extend(records);
        if let Some((offset, reason)) = stop {
            scan.truncate = Some(TornTail {
                segment: *seq,
                path: path.clone(),
                offset,
                reason,
                drop_after: segments[i + 1..].iter().map(|(_, p)| p.clone()).collect(),
            });
            break;
        }
    }
    Ok(scan)
}

/// Makes a scan's truncation decision durable: truncates the torn
/// segment at the crash frontier and deletes every later segment, so a
/// subsequent crash + re-recovery sees exactly the same prefix.
pub(crate) fn cleanup_log(scan: &LogScan) -> Result<()> {
    let Some(tail) = &scan.truncate else {
        return Ok(());
    };
    let f = OpenOptions::new()
        .write(true)
        .open(&tail.path)
        .map_err(|e| io_err("open torn segment", &tail.path, &e))?;
    f.set_len(tail.offset)
        .and_then(|()| f.sync_data())
        .map_err(|e| io_err("truncate torn segment", &tail.path, &e))?;
    for p in &tail.drop_after {
        fs::remove_file(p).map_err(|e| io_err("delete post-crash segment", p, &e))?;
    }
    if let Some(parent) = tail.path.parent() {
        sync_dir(parent)?;
    }
    Ok(())
}

/// What `Database::open_with_recovery` did to bring the store back.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Epoch of the checkpoint image recovery started from (0 = none).
    pub checkpoint_epoch: u64,
    /// COMMIT records replayed on top of the checkpoint.
    pub replayed_commits: u64,
    /// COMMIT records skipped because the checkpoint already covered
    /// their epoch.
    pub skipped_commits: u64,
    /// DDL records applied (idempotently).
    pub ddl_records: u64,
    /// The recovered `commit_epoch`: every commit `<=` this survived,
    /// nothing later ever existed.
    pub recovered_epoch: u64,
    /// Log segments scanned.
    pub segments_scanned: u64,
    /// Log bytes scanned.
    pub bytes_scanned: u64,
    /// Where the log was cut, when the tail was torn or corrupt:
    /// `(segment seq, byte offset, reason)`.
    pub truncated: Option<(u64, u64, String)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    static TMP_SEQ: AtomicU32 = AtomicU32::new(0);

    /// Process-unique scratch directory (removed by `Scratch::drop`).
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Scratch {
            let dir = std::env::temp_dir().join(format!(
                "genie-wal-{tag}-{}-{}",
                std::process::id(),
                TMP_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = fs::remove_dir_all(&dir);
            Scratch(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn sample_schema() -> TableSchema {
        TableSchema::builder("wall")
            .pk("post_id")
            .column(ColumnDef::new("user_id", ValueType::Int).not_null())
            .column(ColumnDef::new("slug", ValueType::Text).unique())
            .column(ColumnDef::new("score", ValueType::Float))
            .column(ColumnDef::new("hot", ValueType::Bool))
            .column(ColumnDef::new("at", ValueType::Timestamp).not_null())
            .foreign_key("user_id", "users", "id")
            .rows_per_page(32)
            .build()
            .unwrap()
    }

    fn sample_changes() -> Vec<RowChange> {
        let old = Row::new(vec![
            Value::Int(1),
            Value::Int(7),
            Value::Text("a".into()),
            Value::Float(1.5),
            Value::Bool(true),
            Value::Timestamp(99),
        ]);
        let new = Row::new(vec![
            Value::Int(1),
            Value::Int(7),
            Value::Text("b".into()),
            Value::Null,
            Value::Bool(false),
            Value::Timestamp(100),
        ]);
        vec![
            RowChange {
                table: "wall".into(),
                event: TriggerEvent::Insert,
                old: None,
                new: Some(new.clone()),
            },
            RowChange {
                table: "wall".into(),
                event: TriggerEvent::Update,
                old: Some(old.clone()),
                new: Some(new),
            },
            RowChange {
                table: "wall".into(),
                event: TriggerEvent::Delete,
                old: Some(old),
                new: None,
            },
        ]
    }

    #[test]
    fn crc32_matches_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn commit_record_roundtrips_through_codec() {
        let changes = sample_changes();
        let mut payload = encode_commit(&changes);
        patch_epoch(&mut payload, 42);
        match decode_record(&payload).unwrap() {
            WalRecord::Commit {
                epoch,
                changes: got,
            } => {
                assert_eq!(epoch, 42);
                assert_eq!(got.len(), changes.len());
                for (g, w) in got.iter().zip(&changes) {
                    assert_eq!(g.table, w.table);
                    assert_eq!(g.event, w.event);
                    assert_eq!(g.old, w.old);
                    assert_eq!(g.new, w.new);
                }
            }
            other => panic!("wrong record: {other:?}"),
        }
    }

    #[test]
    fn ddl_records_roundtrip_through_codec() {
        let schema = sample_schema();
        match decode_record(&encode_create_table(&schema)).unwrap() {
            WalRecord::CreateTable(got) => assert_eq!(got, schema),
            other => panic!("wrong record: {other:?}"),
        }
        let def = IndexDef {
            name: "wall_user".into(),
            columns: vec!["user_id".into(), "at".into()],
            unique: false,
        };
        match decode_record(&encode_create_index("wall", &def)).unwrap() {
            WalRecord::CreateIndex { table, def: got } => {
                assert_eq!(table, "wall");
                assert_eq!(got, def);
            }
            other => panic!("wrong record: {other:?}"),
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_record(&[]).is_err());
        assert!(decode_record(&[9, 1, 2, 3]).is_err());
        let mut payload = encode_commit(&sample_changes());
        patch_epoch(&mut payload, 1);
        payload.push(0); // trailing byte
        assert!(decode_record(&payload).is_err());
    }

    fn flush_records(wal: &Wal, payloads: &[Vec<u8>], epoch_base: u64) {
        for (i, p) in payloads.iter().enumerate() {
            let t = wal.enqueue(p.clone(), epoch_base + i as u64 + 1).unwrap();
            wal.wait_durable(&t).unwrap();
        }
    }

    fn commit_payload(epoch: u64) -> Vec<u8> {
        let mut p = encode_commit(&[]);
        patch_epoch(&mut p, epoch);
        p
    }

    #[test]
    fn scan_reads_back_appended_records_across_rotation() {
        let s = Scratch::new("scan");
        let wal = Wal::create(&s.0, WalConfig::default()).unwrap();
        flush_records(&wal, &[commit_payload(1), commit_payload(2)], 0);
        wal.rotate().unwrap();
        flush_records(&wal, &[commit_payload(3)], 2);

        let scan = read_log(&s.0).unwrap();
        assert!(scan.truncate.is_none());
        assert_eq!(scan.segments_scanned, 2);
        assert_eq!(scan.next_segment, 3);
        let epochs: Vec<u64> = scan
            .records
            .iter()
            .map(|r| match r {
                WalRecord::Commit { epoch, .. } => *epoch,
                other => panic!("wrong record: {other:?}"),
            })
            .collect();
        assert_eq!(epochs, vec![1, 2, 3]);
    }

    #[test]
    fn torn_tail_is_detected_and_cleanly_truncated() {
        let s = Scratch::new("torn");
        let wal = Wal::create(&s.0, WalConfig::default()).unwrap();
        flush_records(&wal, &[commit_payload(1), commit_payload(2)], 0);
        drop(wal);

        // Tear the tail mid-record: keep record 1 plus a few bytes.
        let seg = segment_path(&s.0, 1);
        let bytes = fs::read(&seg).unwrap();
        let first_len =
            FRAME_HEADER + u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        let f = OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len((first_len + 3) as u64).unwrap();
        drop(f);

        let scan = read_log(&s.0).unwrap();
        assert_eq!(scan.records.len(), 1);
        let tail = scan.truncate.as_ref().expect("torn tail detected");
        assert_eq!(tail.offset, first_len as u64);
        assert!(tail.reason.contains("truncated"));
        cleanup_log(&scan).unwrap();

        // After cleanup the log scans clean with the same prefix.
        let rescan = read_log(&s.0).unwrap();
        assert!(rescan.truncate.is_none());
        assert_eq!(rescan.records.len(), 1);
        assert_eq!(fs::metadata(&seg).unwrap().len(), first_len as u64);
    }

    #[test]
    fn corrupted_checksum_stops_the_scan_and_drops_later_segments() {
        let s = Scratch::new("crc");
        let wal = Wal::create(&s.0, WalConfig::default()).unwrap();
        flush_records(&wal, &[commit_payload(1), commit_payload(2)], 0);
        wal.rotate().unwrap();
        flush_records(&wal, &[commit_payload(3)], 2);
        drop(wal);

        // Flip one payload byte inside record 2 of segment 1.
        let seg = segment_path(&s.0, 1);
        let mut bytes = fs::read(&seg).unwrap();
        let first_len =
            FRAME_HEADER + u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        bytes[first_len + FRAME_HEADER] ^= 0xFF;
        fs::write(&seg, &bytes).unwrap();

        let scan = read_log(&s.0).unwrap();
        assert_eq!(scan.records.len(), 1, "scan stops at the corrupt frame");
        let tail = scan.truncate.as_ref().unwrap();
        assert!(tail.reason.contains("checksum"));
        assert_eq!(tail.drop_after.len(), 1, "segment 2 is unreachable");
        cleanup_log(&scan).unwrap();
        assert!(!segment_path(&s.0, 2).exists());
    }

    #[test]
    fn truncated_length_prefix_is_a_torn_tail() {
        let s = Scratch::new("lenpfx");
        let wal = Wal::create(&s.0, WalConfig::default()).unwrap();
        flush_records(&wal, &[commit_payload(1)], 0);
        drop(wal);
        let seg = segment_path(&s.0, 1);
        let mut bytes = fs::read(&seg).unwrap();
        bytes.extend_from_slice(&[0x10, 0x00, 0x00]); // 3 bytes of a length prefix
        fs::write(&seg, &bytes).unwrap();
        let scan = read_log(&s.0).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(scan.truncate.as_ref().unwrap().reason.contains("header"));
    }

    #[test]
    fn create_refuses_to_overwrite_an_existing_log() {
        let s = Scratch::new("exists");
        let wal = Wal::create(&s.0, WalConfig::default()).unwrap();
        drop(wal);
        let err = Wal::create(&s.0, WalConfig::default()).unwrap_err();
        assert!(err.to_string().contains("already contains"));
    }

    #[test]
    fn group_commit_batches_concurrent_committers() {
        let s = Scratch::new("group");
        let cfg = WalConfig {
            sync_delay_us: 500,
            ..WalConfig::default()
        };
        let wal = Arc::new(Wal::create(&s.0, cfg).unwrap());
        let threads = 8;
        let per_thread = 10;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || {
                    let mut syncs = 0;
                    for i in 0..per_thread {
                        let epoch = (t * per_thread + i + 1) as u64;
                        let ticket = wal.enqueue(commit_payload(epoch), epoch).unwrap();
                        syncs += wal.wait_durable(&ticket).unwrap();
                    }
                    syncs
                })
            })
            .collect();
        let total_syncs: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let stats = wal.stats();
        assert_eq!(stats.records, (threads * per_thread) as u64);
        assert_eq!(stats.syncs, total_syncs, "every sync is attributed");
        assert!(
            stats.syncs < stats.records,
            "8 contending writers must share at least one batch \
             ({} syncs for {} records)",
            stats.syncs,
            stats.records
        );
        // Every record is durable and scans back in order.
        let scan = read_log(&s.0).unwrap();
        assert!(scan.truncate.is_none());
        assert_eq!(scan.records.len(), threads * per_thread);
    }

    #[test]
    fn checkpoint_image_roundtrips_and_truncates_only_sealed_segments() {
        let s = Scratch::new("ckpt");
        let wal = Wal::create(&s.0, WalConfig::default()).unwrap();
        flush_records(&wal, &[commit_payload(1), commit_payload(2)], 0);

        // Checkpoint protocol: rotate first, then capture, then truncate.
        let new_seg = wal.rotate().unwrap();
        let image = CheckpointImage {
            epoch: 2,
            tables: vec![TableImage {
                schema: sample_schema(),
                indexes: vec![IndexDef {
                    name: "wall_user".into(),
                    columns: vec!["user_id".into()],
                    unique: false,
                }],
                rows: vec![Row::new(vec![
                    Value::Int(1),
                    Value::Int(7),
                    Value::Text("a".into()),
                    Value::Float(0.5),
                    Value::Bool(true),
                    Value::Timestamp(5),
                ])],
            }],
        };
        write_checkpoint(&s.0, &image).unwrap();
        let deleted = wal.delete_segments_below(new_seg).unwrap();
        assert_eq!(deleted, 1);

        // Records after the checkpoint land in the surviving segment.
        flush_records(&wal, &[commit_payload(3)], 2);

        let scan = read_log(&s.0).unwrap();
        let ck = scan.checkpoint.expect("checkpoint loaded");
        assert_eq!(ck.epoch, 2);
        assert_eq!(ck.tables.len(), 1);
        assert_eq!(ck.tables[0].schema, image.tables[0].schema);
        assert_eq!(ck.tables[0].indexes, image.tables[0].indexes);
        assert_eq!(ck.tables[0].rows, image.tables[0].rows);
        assert_eq!(
            scan.records.len(),
            1,
            "only the post-checkpoint record remains in the log"
        );
    }

    #[test]
    fn corrupt_checkpoint_is_a_hard_error() {
        let s = Scratch::new("badckpt");
        fs::create_dir_all(&s.0).unwrap();
        write_checkpoint(
            &s.0,
            &CheckpointImage {
                epoch: 1,
                tables: vec![],
            },
        )
        .unwrap();
        let path = s.0.join(CHECKPOINT_FILE);
        let mut bytes = fs::read(&path).unwrap();
        bytes[CHECKPOINT_MAGIC.len() + FRAME_HEADER] ^= 0xFF; // first payload byte
        fs::write(&path, &bytes).unwrap();
        assert!(read_checkpoint(&s.0).is_err());
    }

    #[test]
    fn auto_checkpoint_budget_counts_only_commits() {
        let s = Scratch::new("budget");
        let cfg = WalConfig {
            checkpoint_every: 2,
            ..WalConfig::default()
        };
        let wal = Wal::create(&s.0, cfg).unwrap();
        assert!(!wal.checkpoint_due());
        let t = wal
            .enqueue(encode_create_table(&sample_schema()), 0)
            .unwrap();
        wal.wait_durable(&t).unwrap();
        assert!(!wal.checkpoint_due(), "DDL does not spend the budget");
        flush_records(&wal, &[commit_payload(1), commit_payload(2)], 0);
        assert!(wal.checkpoint_due());
        let guard = wal.checkpoint_begin(false).expect("slot free");
        assert!(!wal.checkpoint_due(), "claiming the slot resets the budget");
        assert!(
            wal.checkpoint_begin(false).is_none(),
            "concurrent auto checkpoint skips"
        );
        drop(guard);
    }

    #[test]
    fn rotation_waits_for_inflight_leader_and_seals_the_segment() {
        let s = Scratch::new("rotseal");
        let cfg = WalConfig {
            sync_delay_us: 300,
            ..WalConfig::default()
        };
        let wal = Arc::new(Wal::create(&s.0, cfg).unwrap());
        let writer = {
            let wal = Arc::clone(&wal);
            std::thread::spawn(move || {
                for e in 1..=20u64 {
                    let t = wal.enqueue(commit_payload(e), e).unwrap();
                    wal.wait_durable(&t).unwrap();
                }
            })
        };
        for _ in 0..3 {
            wal.rotate().unwrap();
        }
        writer.join().unwrap();
        wal.flush_all().unwrap();
        let scan = read_log(&s.0).unwrap();
        assert!(scan.truncate.is_none(), "no record spans a rotation");
        assert_eq!(scan.records.len(), 20);
    }
}
