//! Heap tables with B-tree secondary indexes and multi-version rows.
//!
//! Rows are stored in a heap that is a slot vector: a row id is an index
//! into it, so resolving the row an index entry names is one array
//! access, not a search. Every table has an implicit unique index on its
//! primary key plus any number of secondary indexes. Both are B-trees
//! compact enough that the common entry costs no heap block of its own:
//! a secondary key of one or two columns is stored inline in the node
//! (`IndexKey`; longer keys fall back to a boxed slice), and a key's
//! *postings* — the row ids it names, in rid order — hold a single row
//! id inline and more as one sorted vector (`Postings`). A lookup reads
//! its row id from the same leaf where it found the key, and probes and
//! range bounds stay borrowed `&[Value]`, so a lookup allocates nothing.
//! One scan core reads both kinds of index ([`Table::index_scan`]):
//! equality on the leading key columns, then one probe per range over the
//! next one. All index maintenance happens inside the write methods, so
//! the executor can never leave an index stale.
//!
//! # Versioning (MVCC)
//!
//! The heap always holds the *newest* version of each row — committed,
//! or uncommitted by exactly one writer (the first-updater-wins gate
//! refuses a second writer of the row). The row's heap slot also carries its
//! version state, as an optional boxed `Versions`: the newest version's
//! begin epoch and, while uncommitted, its writer transaction, plus the
//! superseded committed versions, each valid over a half-open epoch
//! interval `[begin, end)` whose end stays pending (attributed to the
//! superseding writer) until that writer commits. A slot without a
//! `Versions` holds an ancient committed row (begin epoch 0), so a
//! settled row resolves with one slot read. Vacuum walks the heap's
//! list of slots carrying a `Versions` and drops the settled ones'.
//!
//! Index and pk entries are **append-only with respect to version
//! churn**: a versioned update/delete adds entries for the new image but
//! keeps the old image's entries so snapshot scans can still find the
//! old version. Every snapshot read therefore re-checks that the version
//! it resolved actually carries the key the entry promised (stale
//! entries filter out, and a row that moved between two keys of one scan
//! can never be returned twice). [`Table::vacuum`] physically removes
//! entries once no live snapshot can reach their version. The
//! *unversioned* write methods ([`Table::insert`], [`Table::update`],
//! [`Table::delete`]) keep exact physical maintenance and no history —
//! they exist for direct single-threaded table use and tests; the engine
//! itself always goes through the `*_txn` variants.

use crate::db::TxnId;
use crate::error::{Result, StorageError};
use crate::row::{Row, RowId};
use crate::schema::{IndexDef, TableSchema};
use crate::stats::ColumnStats;
use crate::value::Value;
use parking_lot::Mutex;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// A point-in-time read view: every read resolves the newest version
/// whose begin epoch is `<= epoch` and that was not yet superseded at
/// `epoch` — plus, when `writer` is set, that transaction's own
/// uncommitted writes. Obtained from the engine (transactions pin one at
/// BEGIN; autocommit statements use the latest committed epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// Commit epoch this snapshot reads at (inclusive).
    pub epoch: u64,
    /// Transaction whose uncommitted writes are visible (its own).
    pub writer: Option<TxnId>,
}

impl Snapshot {
    /// True when `self` may see the uncommitted writes of `tid`.
    fn owns(&self, tid: TxnId) -> bool {
        self.writer == Some(tid)
    }
}

/// A row id together with the version of it a snapshot resolved — what
/// the snapshot-aware lookups return, so each candidate row is resolved
/// exactly once per scan.
pub type RowRef<'a> = (RowId, &'a Row);

/// When a superseded version stopped being current.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VersionEnd {
    /// Superseded by a version that committed at this epoch (the
    /// interval is `[begin, end)` — snapshots at `end` or later no
    /// longer see it).
    At(u64),
    /// Superseded by this still-uncommitted transaction: every snapshot
    /// except that writer's own still sees this version.
    Pending(TxnId),
}

/// One superseded committed row image.
#[derive(Debug, Clone)]
struct OldVersion {
    /// Commit epoch at which this image became current.
    begin: u64,
    /// When (and by whom) it stopped being current.
    end: VersionEnd,
    row: Row,
}

/// A heap slot's version state. `Versions::default()` (begin 0, no
/// writer, no old versions) means the same as no `Versions` at all: a
/// row committed at epoch 0.
#[derive(Debug, Clone, Default)]
struct Versions {
    /// Commit epoch of the slot's row; meaningless while `writer` is set
    /// and 0 while the slot holds no row.
    begin: u64,
    /// The transaction whose uncommitted write the slot's row is.
    writer: Option<TxnId>,
    /// Superseded committed versions, oldest first.
    old: Vec<OldVersion>,
}

/// One row id's place in the heap: its newest image, if any, and its
/// version state until vacuum settles it.
#[derive(Debug, Clone, Default)]
struct Slot {
    row: Option<Row>,
    versions: Option<Box<Versions>>,
}

/// The slot of a row id the heap never allocated.
static EMPTY_SLOT: Slot = Slot {
    row: None,
    versions: None,
};

impl Slot {
    /// The version `snap` sees (see [`Table::visible`]).
    fn visible(&self, snap: &Snapshot) -> Option<&Row> {
        let Some(v) = self.versions.as_deref() else {
            return self.row.as_ref(); // settled committed row
        };
        let current = match v.writer {
            Some(w) => snap.owns(w),
            None => v.begin <= snap.epoch,
        };
        if current && self.row.is_some() {
            return self.row.as_ref();
        }
        // Newest version with begin <= snap decides: if it ended for
        // this snapshot, every older version ended even earlier.
        let old = v.old.iter().rev().find(|o| o.begin <= snap.epoch)?;
        let ended = match old.end {
            VersionEnd::At(e) => e <= snap.epoch,
            VersionEnd::Pending(t) => snap.owns(t),
        };
        (!ended).then_some(&old.row)
    }

    /// True when the slot's row is a version that transaction `tid`,
    /// reading at `snap`, did not see: another transaction's uncommitted
    /// write, or one committed after the snapshot.
    fn newer_than(&self, tid: TxnId, snap: &Snapshot) -> bool {
        self.versions.as_deref().is_some_and(|v| match v.writer {
            Some(w) => w != tid,
            None => v.begin > snap.epoch,
        })
    }

    /// The superseded versions the slot still holds, oldest first.
    fn old(&self) -> &[OldVersion] {
        self.versions.as_deref().map_or(&[], |v| &v.old)
    }
}

/// Pending statistics deltas applied in a batch once this many queue
/// entries accumulate (or earlier: at statement/commit boundaries via
/// [`Table::flush_stats`], and lazily whenever the planner reads a
/// selectivity). Bounds both queue memory and estimate staleness.
const STAT_EPOCH: usize = 256;

/// Per-column statistics plus the epoch queue of not-yet-applied row
/// deltas. Behind a mutex so planner reads (`&Table`) can refresh lazily;
/// uncontended in practice — the engine serializes on the database lock.
#[derive(Debug)]
struct TableStats {
    cols: Vec<ColumnStats>,
    /// (added?, row image). An insert queues `(true, row)`, a delete
    /// `(false, row)`, an update one of each.
    pending: Vec<(bool, Row)>,
}

impl TableStats {
    /// Queues one delta. An exact inverse still in the queue cancels
    /// instead — a transaction that inserts then rolls back (undo delete),
    /// or churns the same row, never touches the sketches at all.
    fn queue(&mut self, add: bool, row: &Row) {
        if let Some(i) = self
            .pending
            .iter()
            .rposition(|(a, r)| *a != add && r == row)
        {
            self.pending.remove(i);
            return;
        }
        self.pending.push((add, row.clone()));
        if self.pending.len() >= STAT_EPOCH {
            self.apply_pending();
        }
    }

    fn apply_pending(&mut self) {
        for (add, row) in self.pending.drain(..) {
            for (s, v) in self.cols.iter_mut().zip(row.values()) {
                if add {
                    s.add(v);
                } else {
                    s.remove(v);
                }
            }
        }
    }
}

/// A secondary-index key. Keys of one or two columns — every index of
/// the social schema — are stored inline in the B-tree node; longer keys
/// fall back to a boxed slice. It orders, compares and borrows as the
/// `[Value]` it holds, so probes and range bounds stay borrowed
/// `&[Value]`.
#[derive(Clone)]
pub(crate) enum IndexKey {
    One([Value; 1]),
    Two([Value; 2]),
    Wide(Box<[Value]>),
}

impl IndexKey {
    /// A copy of `key`, inline when it has one or two values.
    pub(crate) fn from_slice(key: &[Value]) -> Self {
        match key {
            [a] => IndexKey::One([a.clone()]),
            [a, b] => IndexKey::Two([a.clone(), b.clone()]),
            _ => IndexKey::Wide(key.into()),
        }
    }
}

impl std::ops::Deref for IndexKey {
    type Target = [Value];

    fn deref(&self) -> &[Value] {
        match self {
            IndexKey::One(k) => k,
            IndexKey::Two(k) => k,
            IndexKey::Wide(k) => k,
        }
    }
}

impl std::ops::DerefMut for IndexKey {
    fn deref_mut(&mut self) -> &mut [Value] {
        match self {
            IndexKey::One(k) => k,
            IndexKey::Two(k) => k,
            IndexKey::Wide(k) => k,
        }
    }
}

impl std::borrow::Borrow<[Value]> for IndexKey {
    fn borrow(&self) -> &[Value] {
        self
    }
}

impl PartialEq for IndexKey {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for IndexKey {}

impl PartialOrd for IndexKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IndexKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (**self).cmp(&**other)
    }
}

impl std::fmt::Debug for IndexKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// The row ids one index key names, in rid order: the common single row
/// inline, more as one sorted vector (never fewer than two — a removal
/// that leaves one collapses back). Row ids are never reused, so most
/// inserts land at the end and append.
#[derive(Debug, Clone)]
enum Postings {
    One(RowId),
    Many(Vec<RowId>),
}

impl Postings {
    fn as_slice(&self) -> &[RowId] {
        match self {
            Postings::One(rid) => std::slice::from_ref(rid),
            Postings::Many(rids) => rids,
        }
    }

    fn iter(&self) -> impl DoubleEndedIterator<Item = RowId> + '_ {
        self.as_slice().iter().copied()
    }

    fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Adds `rid` (a no-op when present).
    fn insert(&mut self, rid: RowId) {
        match self {
            Postings::One(r) if *r == rid => {}
            Postings::One(r) => {
                let r = *r;
                *self = Postings::Many(if r < rid { vec![r, rid] } else { vec![rid, r] });
            }
            Postings::Many(rids) => {
                if rids.last().is_some_and(|&last| last < rid) {
                    rids.push(rid);
                } else if let Err(at) = rids.binary_search(&rid) {
                    rids.insert(at, rid);
                }
            }
        }
    }

    /// Removes `rid`; true when no row id is left, so the key goes too.
    fn remove(&mut self, rid: RowId) -> bool {
        match self {
            Postings::One(r) => *r == rid,
            Postings::Many(rids) => {
                if let Ok(at) = rids.binary_search(&rid) {
                    rids.remove(at);
                }
                if let [only] = rids[..] {
                    *self = Postings::One(only);
                }
                false
            }
        }
    }
}

/// Adds `rid` under `key`.
fn posting_add<K: Ord>(map: &mut BTreeMap<K, Postings>, key: K, rid: RowId) {
    match map.entry(key) {
        Entry::Vacant(e) => {
            e.insert(Postings::One(rid));
        }
        Entry::Occupied(mut e) => e.get_mut().insert(rid),
    }
}

/// Removes `rid` from `key`'s postings, and the key with its last row id.
fn posting_remove<K, Q>(map: &mut BTreeMap<K, Postings>, key: &Q, rid: RowId)
where
    K: Ord + std::borrow::Borrow<Q>,
    Q: Ord + ?Sized,
{
    if map.get_mut(key).is_some_and(|p| p.remove(rid)) {
        map.remove(key);
    }
}

/// A live secondary index.
#[derive(Debug, Clone)]
pub struct Index {
    def: IndexDef,
    /// Column positions of the key, precomputed from the schema.
    key_pos: Vec<usize>,
    map: BTreeMap<IndexKey, Postings>,
}

impl Index {
    /// The index definition.
    pub fn def(&self) -> &IndexDef {
        &self.def
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }

    fn key_of(&self, row: &Row) -> IndexKey {
        match self.key_pos[..] {
            [a] => IndexKey::One([row.get(a).clone()]),
            [a, b] => IndexKey::Two([row.get(a).clone(), row.get(b).clone()]),
            _ => IndexKey::Wide(self.key_pos.iter().map(|&p| row.get(p).clone()).collect()),
        }
    }

    /// True when `row` carries `key` in this index's key columns.
    fn carries(&self, row: &Row, key: &[Value]) -> bool {
        self.key_pos
            .iter()
            .zip(key)
            .all(|(&p, kv)| row.get(p) == kv)
    }
}

/// One ordered map a scan walks — the primary key's or a secondary
/// index's — as `(key, postings)` entries with the key as a slice.
enum Entries<'a> {
    Pk(std::collections::btree_map::Range<'a, Value, Postings>),
    Index(std::collections::btree_map::Range<'a, IndexKey, Postings>),
}

impl<'a> Iterator for Entries<'a> {
    type Item = (&'a [Value], &'a Postings);

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            Entries::Pk(r) => r.next().map(|(k, p)| (std::slice::from_ref(k), p)),
            Entries::Index(r) => r.next().map(|(k, p)| (&**k, p)),
        }
    }
}

/// `prefix` extended by `v`, built in `buf` unless the prefix is empty.
fn extended<'a>(buf: &'a mut Vec<Value>, prefix: &'a [Value], v: &'a Value) -> &'a [Value] {
    if prefix.is_empty() {
        return std::slice::from_ref(v);
    }
    buf.clear();
    buf.extend_from_slice(prefix);
    buf.push(v.clone());
    buf
}

/// The newest image of every row, in a slot vector indexed by
/// `rid - base`. Row ids are allocated densely from the table's
/// `next_rid` and never reused, so a lookup is one bounds-checked array
/// index and iteration is in row-id order. A delete (or an undone
/// insert) frees its `Row` but keeps the 24-byte slot — the id stays
/// retired, and the slot keeps the old versions snapshots may still
/// read. `truncate` moves `base` up to `next_rid`, so the old ids leave
/// no slots behind.
#[derive(Debug, Clone, Default)]
struct Heap {
    /// Row id of `slots[0]`.
    base: u64,
    slots: Vec<Slot>,
    /// Occupied slots.
    live: usize,
    /// The row ids whose slots carry a `Versions`, each once, in no
    /// particular order.
    dirty: Vec<RowId>,
}

impl Heap {
    fn slot(&self, rid: RowId) -> &Slot {
        rid.0
            .checked_sub(self.base)
            .and_then(|i| self.slots.get(usize::try_from(i).ok()?))
            .unwrap_or(&EMPTY_SLOT)
    }

    /// The index of `rid`'s slot, allocating it (and any gap before it)
    /// if needed.
    fn slot_index(&mut self, rid: RowId) -> usize {
        if rid.0 < self.base {
            // Only the test-only `restore` reaches below `base`.
            let grow = (self.base - rid.0) as usize;
            self.slots
                .splice(0..0, std::iter::repeat_n(Slot::default(), grow));
            self.base = rid.0;
        }
        let i = (rid.0 - self.base) as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, Slot::default());
        }
        i
    }

    fn get(&self, rid: RowId) -> Option<&Row> {
        self.slot(rid).row.as_ref()
    }

    fn len(&self) -> usize {
        self.live
    }

    /// Stores `row` at `rid`, returning the image it replaced.
    fn insert(&mut self, rid: RowId, row: Row) -> Option<Row> {
        let i = self.slot_index(rid);
        let old = self.slots[i].row.replace(row);
        if old.is_none() {
            self.live += 1;
        }
        old
    }

    /// Empties `rid`'s slot (the slot itself stays), returning its row.
    /// A slot without a row carries no newest-version stamp, so the
    /// stamp resets; the old versions stay.
    fn remove(&mut self, rid: RowId) -> Option<Row> {
        let i = usize::try_from(rid.0.checked_sub(self.base)?).ok()?;
        let slot = self.slots.get_mut(i)?;
        let old = slot.row.take()?;
        if let Some(v) = slot.versions.as_deref_mut() {
            v.begin = 0;
            v.writer = None;
        }
        self.live -= 1;
        Some(old)
    }

    /// `rid`'s version state, if its slot carries one.
    fn versions_mut(&mut self, rid: RowId) -> Option<&mut Versions> {
        let i = usize::try_from(rid.0.checked_sub(self.base)?).ok()?;
        self.slots.get_mut(i)?.versions.as_deref_mut()
    }

    /// `rid`'s version state, created settled (and `rid` listed in
    /// `dirty`) when its slot carries none.
    fn versions_entry(&mut self, rid: RowId) -> &mut Versions {
        let i = self.slot_index(rid);
        let dirty = &mut self.dirty;
        self.slots[i].versions.get_or_insert_with(|| {
            dirty.push(rid);
            Box::default()
        })
    }

    /// The slots carrying a `Versions`, each once.
    fn unsettled(&self) -> impl Iterator<Item = (RowId, &Slot)> {
        self.dirty.iter().map(|&rid| (rid, self.slot(rid)))
    }

    /// Occupied slots in row-id order.
    fn iter(&self) -> impl Iterator<Item = (RowId, &Row)> {
        let base = self.base;
        (base..)
            .zip(&self.slots)
            .filter_map(|(rid, slot)| Some((RowId(rid), slot.row.as_ref()?)))
    }

    /// Drops every row and version; the next slot is `next_rid`.
    fn clear(&mut self, next_rid: u64) {
        self.slots = Vec::new();
        self.dirty = Vec::new();
        self.base = next_rid;
        self.live = 0;
    }
}

/// A heap table plus its indexes.
#[derive(Debug)]
pub struct Table {
    schema: TableSchema,
    /// Dense id assigned by the catalog; keys buffer-pool pages.
    id: u32,
    rows: Heap,
    next_rid: u64,
    /// Implicit unique index: pk value -> row ids that ever carried it,
    /// in rid order. Stale ids linger until [`Table::vacuum`] so older
    /// snapshots can still probe deleted or moved rows by primary key.
    ///
    /// The pk probes below rely on one invariant, not on the posting
    /// order: at most one version carrying a given pk is *live* (the
    /// heap), and at most one is *visible* to any one snapshot. Uniqueness
    /// checks and first-updater-wins enforce it. Each probe walks the
    /// postings newest rid first and stops at the first match, so which
    /// id it finds never depends on the order the ids were added in.
    pk_index: BTreeMap<Value, Postings>,
    indexes: Vec<Index>,
    /// Per-column statistics, parallel to the schema's column list. Row
    /// mutations queue deltas; the sketches/histograms refresh in epochs
    /// (queue overflow, statement/commit boundaries, planner reads)
    /// instead of on every row write.
    stats: Mutex<TableStats>,
    /// Bumped by every mutation the planner could observe (row count,
    /// index key sets, statistics): the validity stamp of cached plans.
    version: u64,
}

impl Clone for Table {
    fn clone(&self) -> Self {
        Table {
            schema: self.schema.clone(),
            id: self.id,
            rows: self.rows.clone(),
            next_rid: self.next_rid,
            pk_index: self.pk_index.clone(),
            indexes: self.indexes.clone(),
            stats: Mutex::new({
                let s = self.stats.lock();
                TableStats {
                    cols: s.cols.clone(),
                    pending: s.pending.clone(),
                }
            }),
            version: self.version,
        }
    }
}

impl Table {
    /// Creates an empty table with catalog id `id`.
    pub fn new(schema: TableSchema, id: u32) -> Self {
        let cols = schema
            .columns()
            .iter()
            .map(|c| ColumnStats::new(c.ty))
            .collect();
        Table {
            schema,
            id,
            rows: Heap::default(),
            next_rid: 0,
            pk_index: BTreeMap::new(),
            indexes: Vec::new(),
            stats: Mutex::new(TableStats {
                cols,
                pending: Vec::new(),
            }),
            version: 0,
        }
    }

    /// Every row that enters or leaves the heap passes through here (or
    /// [`Table::stats_remove`]), so these two carry the version bump for
    /// all row-level writes.
    fn stats_add(&mut self, row: &Row) {
        self.version += 1;
        self.stats.get_mut().queue(true, row);
    }

    fn stats_remove(&mut self, row: &Row) {
        self.version += 1;
        self.stats.get_mut().queue(false, row);
    }

    /// The table's write version: changes whenever anything the planner
    /// reads from this table may have changed — row count, index key
    /// sets (including vacuum's entry retirement), statistics, the index
    /// list. A plan built at version `v` is exactly what the planner
    /// would build again while the version is still `v`.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Applies every queued statistics delta now. The engine calls this at
    /// statement (autocommit) and commit boundaries, so estimates never
    /// lag committed data by more than one epoch. Takes `&self` — the
    /// queue lives behind its own mutex, so concurrent enqueuers (writer
    /// threads under their table latches) and lazy planner-side flushes
    /// never race.
    pub fn flush_stats(&self) {
        self.stats.lock().apply_pending();
    }

    /// Reads `column`'s statistics through `f`, refreshing queued deltas
    /// first (lazy epoch boundary), so the planner always sees numbers
    /// current as of the last mutation.
    pub fn with_column_stats<T>(
        &self,
        column: &str,
        f: impl FnOnce(&ColumnStats) -> T,
    ) -> Option<T> {
        let pos = self.schema.column_pos(column)?;
        let mut stats = self.stats.lock();
        if !stats.pending.is_empty() {
            stats.apply_pending();
        }
        stats.cols.get(pos).map(f)
    }

    /// Queued statistics deltas not yet folded into the estimators
    /// (diagnostics and tests).
    pub fn pending_stat_deltas(&self) -> usize {
        self.stats.lock().pending.len()
    }

    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// The catalog id (used for buffer-pool page keys).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.len() == 0
    }

    /// The heap page number a row lives on (model; see [`crate::bufferpool`]).
    pub fn page_of(&self, rid: RowId) -> u64 {
        rid.0 / self.schema.rows_per_page_hint as u64
    }

    /// Validates a row against the schema: arity, type compatibility
    /// (coercing where allowed), NOT NULL.
    ///
    /// # Errors
    ///
    /// Returns the specific constraint error; the row is not modified on
    /// failure.
    pub fn validate(&self, row: &Row) -> Result<Row> {
        if row.arity() != self.schema.arity() {
            return Err(StorageError::TypeMismatch {
                column: format!("{}(*)", self.schema.name()),
                expected: format!("{} columns", self.schema.arity()),
                got: format!("{} columns", row.arity()),
            });
        }
        Row::try_build(row.arity(), |out| {
            let columns = self.schema.columns().iter().zip(row.values());
            for (slot, (col, v)) in out.iter_mut().zip(columns) {
                if v.is_null() {
                    if col.not_null {
                        return Err(StorageError::NullViolation(format!(
                            "{}.{}",
                            self.schema.name(),
                            col.name
                        )));
                    }
                    continue;
                }
                *slot = v
                    .coerce_to(col.ty)
                    .ok_or_else(|| StorageError::TypeMismatch {
                        column: format!("{}.{}", self.schema.name(), col.name),
                        expected: col.ty.to_string(),
                        got: format!("{v}"),
                    })?;
            }
            Ok(())
        })
    }

    /// The live (heap-current) row id carrying `pk`, if any. Stale
    /// entries from version churn are skipped by re-checking the heap
    /// image actually has that key; at most one id can pass (see
    /// `pk_index`).
    fn live_pk(&self, pk: &Value) -> Option<RowId> {
        let pos = self.schema.primary_key_pos();
        self.pk_index
            .get(pk)?
            .iter()
            .rev()
            .find(|&rid| self.rows.get(rid).is_some_and(|r| r.get(pos) == pk))
    }

    /// True when a *live* row other than `exclude` carries `key` on the
    /// unique index `idx` — the uniqueness predicate under versioning,
    /// where entries may reference dead versions.
    fn live_unique_conflict(&self, idx: &Index, key: &[Value], exclude: Option<RowId>) -> bool {
        idx.map.get(key).is_some_and(|set| {
            set.iter().any(|r| {
                Some(r) != exclude && self.rows.get(r).is_some_and(|row| idx.carries(row, key))
            })
        })
    }

    fn pk_entry_add(&mut self, pk: &Value, rid: RowId) {
        if pk.is_null() {
            return;
        }
        posting_add(&mut self.pk_index, pk.clone(), rid);
    }

    fn pk_entry_remove(&mut self, pk: &Value, rid: RowId) {
        if pk.is_null() {
            return;
        }
        posting_remove(&mut self.pk_index, pk, rid);
    }

    fn index_entries_add(&mut self, rid: RowId, row: &Row) {
        for idx in &mut self.indexes {
            let key = idx.key_of(row);
            posting_add(&mut idx.map, key, rid);
        }
    }

    fn index_entries_remove(&mut self, rid: RowId, row: &Row) {
        for idx in &mut self.indexes {
            let key = idx.key_of(row);
            posting_remove(&mut idx.map, &key[..], rid);
        }
    }

    /// Shared pk/unique constraint gate for inserts.
    fn check_insert_constraints(&self, row: &Row) -> Result<()> {
        let pk = row.get(self.schema.primary_key_pos());
        if !pk.is_null() && self.live_pk(pk).is_some() {
            return Err(StorageError::UniqueViolation {
                index: format!("{}_pkey", self.schema.name()),
                key: pk.to_string(),
            });
        }
        self.check_unique_secondary(row, None)
    }

    /// Unique-secondary-index gate shared by the versioned and
    /// unversioned insert paths: a conflict exists only against *live*
    /// rows actually carrying the key.
    fn check_unique_secondary(&self, row: &Row, exclude: Option<RowId>) -> Result<()> {
        for idx in &self.indexes {
            if idx.def.unique {
                let key = idx.key_of(row);
                if !key.iter().any(Value::is_null) && self.live_unique_conflict(idx, &key, exclude)
                {
                    return Err(StorageError::UniqueViolation {
                        index: idx.def.name.clone(),
                        key: format!("{key:?}"),
                    });
                }
            }
        }
        Ok(())
    }

    /// The versioned half of the unique-secondary gate. It only ever
    /// raises the *retryable* [`StorageError::WriteConflict`] — genuine
    /// duplicates stay with the plain checks — for key collisions whose
    /// outcome depends on a concurrent transaction or snapshot:
    ///
    /// * a **live** row carrying the key that is newer than the snapshot:
    ///   another transaction's uncommitted write (it may roll back, so
    ///   aborting with a permanent `UniqueViolation` would be spurious)
    ///   or a commit after the snapshot (first-updater-wins, as for a
    ///   primary key);
    /// * a not-yet-vacuumed **version** carrying the key that is either
    ///   pending supersession/deletion by another transaction (whose
    ///   rollback would bring the key back alongside ours) or still
    ///   visible to this snapshot (a ghost a newer commit removed —
    ///   committing would put two rows with one unique key into our own
    ///   snapshot).
    ///
    /// Call it *before* the plain checks so races classify as
    /// retryable. `old` (an update's pre-image) skips indexes whose key
    /// did not change — the row already holds those keys legitimately.
    fn check_unique_secondary_versioned(
        &self,
        row: &Row,
        old: Option<&Row>,
        exclude: Option<RowId>,
        tid: TxnId,
        snap: &Snapshot,
    ) -> Result<()> {
        for idx in &self.indexes {
            if !idx.def.unique {
                continue;
            }
            let key = idx.key_of(row);
            if key.iter().any(Value::is_null) {
                continue;
            }
            if old.is_some_and(|o| idx.key_of(o) == key) {
                continue;
            }
            let Some(set) = idx.map.get(&key) else {
                continue;
            };
            for rid in set.iter() {
                if Some(rid) == exclude {
                    continue;
                }
                let conflict = StorageError::WriteConflict {
                    table: self.schema.name().to_owned(),
                    key: format!("{key:?}"),
                    row: false,
                };
                // Live image carrying the key, newer than the snapshot:
                // the collision is a race, not a duplicate — retry.
                let slot = self.rows.slot(rid);
                if slot.row.as_ref().is_some_and(|r| idx.carries(r, &key)) {
                    if slot.newer_than(tid, snap) {
                        return Err(conflict);
                    }
                    continue; // visible committed or own: the plain checks decide
                }
                for v in slot.old().iter().rev() {
                    if !idx.carries(&v.row, &key) {
                        continue;
                    }
                    let blocked = match v.end {
                        VersionEnd::Pending(t) => t != tid,
                        VersionEnd::At(e) => e > snap.epoch,
                    };
                    if blocked {
                        return Err(conflict);
                    }
                }
            }
        }
        Ok(())
    }

    /// Inserts a row, enforcing PK and unique-index constraints.
    ///
    /// Returns the new row's heap id. Unversioned: the row is visible to
    /// every snapshot (begin epoch 0); the engine uses
    /// [`Table::insert_txn`] instead.
    ///
    /// # Errors
    ///
    /// [`StorageError::UniqueViolation`] on a duplicate key; validation
    /// errors per [`Table::validate`].
    pub fn insert(&mut self, row: Row) -> Result<RowId> {
        let row = self.validate(&row)?;
        self.check_insert_constraints(&row)?;
        let rid = RowId(self.next_rid);
        self.next_rid += 1;
        let pk = row.get(self.schema.primary_key_pos()).clone();
        self.pk_entry_add(&pk, rid);
        self.index_entries_add(rid, &row);
        self.stats_add(&row);
        self.rows.insert(rid, row);
        Ok(rid)
    }

    /// Reinserts a row under a specific id (test/reseed path).
    ///
    /// Bypasses validation — the row was valid when it was first stored.
    #[cfg(test)]
    pub(crate) fn restore(&mut self, rid: RowId, row: Row) {
        let pk = row.get(self.schema.primary_key_pos()).clone();
        self.pk_entry_add(&pk, rid);
        self.index_entries_add(rid, &row);
        self.next_rid = self.next_rid.max(rid.0 + 1);
        self.stats_add(&row);
        self.rows.insert(rid, row);
    }

    /// Fetches the *newest* image of a row by heap id, committed or not.
    /// Snapshot readers use [`Table::visible`] instead.
    pub fn get(&self, rid: RowId) -> Option<&Row> {
        self.rows.get(rid)
    }

    /// Looks up the live (newest-version) row id by primary-key value.
    pub fn find_pk(&self, pk: &Value) -> Option<RowId> {
        self.live_pk(pk)
    }

    /// Replaces the row at `rid`, maintaining all indexes.
    ///
    /// Returns the previous row image.
    ///
    /// # Errors
    ///
    /// Validation and uniqueness errors as for insert; unknown `rid`
    /// reports an internal error via [`StorageError::Eval`].
    pub fn update(&mut self, rid: RowId, new_row: Row) -> Result<Row> {
        let new_row = self.validate(&new_row)?;
        let old_row = self
            .rows
            .get(rid)
            .cloned()
            .ok_or_else(|| StorageError::Eval(format!("update of missing row {rid}")))?;
        self.check_update_constraints(rid, &old_row, &new_row)?;
        // Constraints hold; apply exact physical index maintenance.
        let pk_pos = self.schema.primary_key_pos();
        let (old_pk, new_pk) = (old_row.get(pk_pos).clone(), new_row.get(pk_pos).clone());
        if old_pk != new_pk {
            self.pk_entry_remove(&old_pk, rid);
            self.pk_entry_add(&new_pk, rid);
        }
        self.reindex(rid, &old_row, &new_row);
        self.stats_remove(&old_row);
        self.stats_add(&new_row);
        self.rows.insert(rid, new_row);
        Ok(old_row)
    }

    /// Shared pk/unique constraint gate for updates (old image -> new).
    fn check_update_constraints(&self, rid: RowId, old_row: &Row, new_row: &Row) -> Result<()> {
        let pk_pos = self.schema.primary_key_pos();
        let (old_pk, new_pk) = (old_row.get(pk_pos), new_row.get(pk_pos));
        if old_pk != new_pk && !new_pk.is_null() {
            if let Some(other) = self.live_pk(new_pk) {
                if other != rid {
                    return Err(StorageError::UniqueViolation {
                        index: format!("{}_pkey", self.schema.name()),
                        key: new_pk.to_string(),
                    });
                }
            }
        }
        for idx in &self.indexes {
            if idx.def.unique {
                let new_key = idx.key_of(new_row);
                if new_key != idx.key_of(old_row)
                    && !new_key.iter().any(Value::is_null)
                    && self.live_unique_conflict(idx, &new_key, Some(rid))
                {
                    return Err(StorageError::UniqueViolation {
                        index: idx.def.name.clone(),
                        key: format!("{new_key:?}"),
                    });
                }
            }
        }
        Ok(())
    }

    /// Moves `rid`'s secondary-index entries from `old_row`'s keys to
    /// `new_row`'s (exact physical maintenance; no-op per index when the
    /// key did not change).
    fn reindex(&mut self, rid: RowId, old_row: &Row, new_row: &Row) {
        for idx in &mut self.indexes {
            let old_key = idx.key_of(old_row);
            let new_key = idx.key_of(new_row);
            if old_key != new_key {
                posting_remove(&mut idx.map, &old_key[..], rid);
                posting_add(&mut idx.map, new_key, rid);
            }
        }
    }

    /// Deletes the row at `rid`, returning its final image. Unversioned:
    /// the row vanishes for every snapshot; the engine uses
    /// [`Table::delete_txn`] instead.
    pub fn delete(&mut self, rid: RowId) -> Option<Row> {
        let row = self.rows.remove(rid)?;
        let pk = row.get(self.schema.primary_key_pos()).clone();
        self.pk_entry_remove(&pk, rid);
        self.index_entries_remove(rid, &row);
        self.stats_remove(&row);
        Some(row)
    }

    /// Iterates over `(RowId, &Row)` in heap order.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, &Row)> {
        self.rows.iter()
    }

    // ----- MVCC: snapshot reads -----

    /// Resolves the version of `rid` visible to `snap`: the heap image
    /// when it is the snapshot's own uncommitted write or committed at
    /// `snap.epoch` or earlier; otherwise the newest old version whose
    /// `[begin, end)` interval covers the snapshot. `None` when no
    /// version is visible (row did not exist yet, or was deleted before
    /// the snapshot). One slot read.
    pub fn visible(&self, rid: RowId, snap: &Snapshot) -> Option<&Row> {
        self.rows.slot(rid).visible(snap)
    }

    /// One-pass foreign-key probe: resolves `pk` against `snap` and
    /// reports whether a live heap row also carries it — the two facts
    /// the FK check needs, from a single walk of the key's entry list.
    /// Each fact has at most one witness (see `pk_index`), so the walk
    /// may stop at the first of each.
    pub fn fk_probe(&self, pk: &Value, snap: &Snapshot) -> (Option<RowId>, bool) {
        let pos = self.schema.primary_key_pos();
        let Some(rids) = self.pk_index.get(pk) else {
            return (None, false);
        };
        let mut visible = None;
        let mut live = false;
        for rid in rids.iter().rev() {
            if !live && self.rows.get(rid).is_some_and(|r| r.get(pos) == pk) {
                live = true;
            }
            if visible.is_none() && self.visible(rid, snap).is_some_and(|r| r.get(pos) == pk) {
                visible = Some(rid);
            }
            if live && visible.is_some() {
                break;
            }
        }
        (visible, live)
    }

    /// Snapshot-aware primary-key probe: the row id whose visible
    /// version carries `pk`, if any. The first visible match is the only
    /// one (see `pk_index`).
    pub fn find_pk_visible(&self, pk: &Value, snap: &Snapshot) -> Option<RowId> {
        let pos = self.schema.primary_key_pos();
        self.pk_index
            .get(pk)?
            .iter()
            .rev()
            .find(|&rid| self.visible(rid, snap).is_some_and(|r| r.get(pos) == pk))
    }

    /// Candidate row ids for a snapshot full scan, in heap (row-id)
    /// order: every slot holding a row or not-yet-vacuumed old versions
    /// (e.g. pending deletes older snapshots still see). May include ids
    /// with no visible version — callers resolve each through
    /// [`Table::visible`] anyway, so filtering here would pay the
    /// visibility predicate twice per row.
    pub fn scan_rids(&self) -> Vec<RowId> {
        let heap = &self.rows;
        (heap.base..)
            .zip(&heap.slots)
            .filter(|(_, slot)| slot.row.is_some() || !slot.old().is_empty())
            .map(|(rid, _)| RowId(rid))
            .collect()
    }

    /// Number of rows visible to `snap` (exact; the COUNT(*) pushdown's
    /// answer for an unfiltered count): the live-row count, corrected
    /// by resolving only the slots that carry version state.
    pub fn visible_len(&self, snap: &Snapshot) -> usize {
        let mut n = self.rows.len();
        for (_, slot) in self.rows.unsettled() {
            match (slot.row.is_some(), slot.visible(snap).is_some()) {
                (true, false) => n -= 1,
                (false, true) => n += 1,
                _ => {}
            }
        }
        n
    }

    // ----- durability: checkpoint capture and physical redo apply -----

    /// Clones every row visible to `snap`, sorted by primary key — the
    /// fuzzy-checkpoint capture. Sound under concurrent writers because
    /// MVCC visibility at a fixed epoch is stable: committed versions
    /// `<= snap.epoch` are immutable and `snap` owns no pending writes,
    /// so whatever interleaving the capture races with, each row
    /// resolves to the same image (the engine pins `snap.epoch` against
    /// vacuum for the capture's duration).
    pub fn snapshot_rows(&self, snap: &Snapshot) -> Vec<Row> {
        let pk_pos = self.schema.primary_key_pos();
        let mut rows: Vec<Row> = self
            .scan_rids()
            .into_iter()
            .filter_map(|rid| self.visible(rid, snap).cloned())
            .collect();
        rows.sort_by(|a, b| a.get(pk_pos).cmp(b.get(pk_pos)));
        rows
    }

    /// Physical redo apply (recovery): installs a logged post-image as
    /// an unversioned row (begin epoch 0 — visible to every snapshot,
    /// exactly right for state rebuilt below the recovered
    /// `commit_epoch`). Full index/statistics maintenance and
    /// constraint checks run; replay orders a record's deletes before
    /// its inserts, so constraints are evaluated against the record's
    /// *final* state and committed data always passes.
    pub(crate) fn recover_insert(&mut self, row: Row) -> Result<RowId> {
        self.insert(row)
    }

    /// Physical redo apply (recovery): removes the row whose primary
    /// key matches a logged pre-image. Pre-images come from a committed
    /// snapshot, so the key resolves to exactly one live row.
    ///
    /// # Errors
    ///
    /// [`StorageError::Wal`] when the row is missing — the log and the
    /// rebuilt state disagree, which recovery must not paper over.
    pub(crate) fn recover_delete(&mut self, old: &Row) -> Result<Row> {
        let pk = old.get(self.schema.primary_key_pos());
        let rid = self.find_pk(pk).ok_or_else(|| {
            StorageError::Wal(format!(
                "recovery: no live row with {} = {pk} in table {:?}",
                self.schema.primary_key(),
                self.schema.name()
            ))
        })?;
        self.delete(rid).ok_or_else(|| {
            StorageError::Wal(format!(
                "recovery: row {rid} vanished mid-replay in table {:?}",
                self.schema.name()
            ))
        })
    }

    // ----- MVCC: versioned writes (engine path) -----

    /// First-updater-wins gate for a versioned write against `rid`'s
    /// newest version: `Ok(true)` when the heap image is the writer's
    /// own uncommitted version (mutate in place), `Ok(false)` when it is
    /// committed and visible to the writer's snapshot (start a new
    /// version), [`StorageError::WriteConflict`] when a version the
    /// snapshot cannot see already superseded the one it read.
    fn write_gate(&self, rid: RowId, tid: TxnId, snap: &Snapshot) -> Result<bool> {
        let slot = self.rows.slot(rid);
        if slot.newer_than(tid, snap) {
            return Err(self.write_conflict(rid));
        }
        Ok(slot
            .versions
            .as_ref()
            .is_some_and(|v| v.writer == Some(tid)))
    }

    /// The conflict on the row or primary key a write claims, named by
    /// the key of `rid`'s newest image.
    fn write_conflict(&self, rid: RowId) -> StorageError {
        let pos = self.schema.primary_key_pos();
        let key = self
            .rows
            .get(rid)
            .map(|r| r.get(pos).to_string())
            .unwrap_or_else(|| format!("{rid}"));
        StorageError::WriteConflict {
            table: self.schema.name().to_owned(),
            key,
            row: true,
        }
    }

    /// Versioned insert by transaction `tid` reading at `snap`: the new
    /// row is uncommitted (visible only to `tid`) until
    /// [`Table::commit_rows`] stamps it.
    ///
    /// # Errors
    ///
    /// [`StorageError::WriteConflict`] when the primary key is held by a
    /// version newer than the snapshot (first-updater-wins);
    /// [`StorageError::UniqueViolation`] for genuine duplicates;
    /// validation errors per [`Table::validate`].
    pub fn insert_txn(&mut self, row: Row, tid: TxnId, snap: &Snapshot) -> Result<RowId> {
        let row = self.validate(&row)?;
        let pk = row.get(self.schema.primary_key_pos()).clone();
        if !pk.is_null() {
            if let Some(holder) = self.live_pk(&pk) {
                return Err(if self.rows.slot(holder).newer_than(tid, snap) {
                    self.write_conflict(holder)
                } else {
                    StorageError::UniqueViolation {
                        index: format!("{}_pkey", self.schema.name()),
                        key: pk.to_string(),
                    }
                });
            }
            // No live holder, but the key may still be *visible* to this
            // snapshot through a not-yet-vacuumed deleted version (the
            // delete committed after the snapshot). Inserting would put
            // two rows with one primary key into a single snapshot —
            // first-updater-wins instead.
            if let Some(ghost) = self.find_pk_visible(&pk, snap) {
                return Err(self.write_conflict(ghost));
            }
        }
        // Versioned gate first: races with uncommitted writers and
        // snapshot ghosts classify as retryable WriteConflict; genuine
        // duplicates then report UniqueViolation.
        self.check_unique_secondary_versioned(&row, None, None, tid, snap)?;
        self.check_unique_secondary(&row, None)?;
        let rid = RowId(self.next_rid);
        self.next_rid += 1;
        self.pk_entry_add(&pk, rid);
        self.index_entries_add(rid, &row);
        self.stats_add(&row);
        self.rows.insert(rid, row);
        self.rows.versions_entry(rid).writer = Some(tid);
        Ok(rid)
    }

    /// Versioned update: pushes the committed pre-image into history
    /// (end pending on `tid`) and installs the new image as `tid`'s
    /// uncommitted version; a second write by the same transaction
    /// mutates its own version in place. Returns the pre-image and
    /// whether a history version was pushed (the undo log needs it).
    ///
    /// # Errors
    ///
    /// [`StorageError::WriteConflict`] per the write gate;
    /// constraint/validation errors as for [`Table::update`].
    pub fn update_txn(
        &mut self,
        rid: RowId,
        new_row: Row,
        tid: TxnId,
        snap: &Snapshot,
    ) -> Result<(Row, bool)> {
        let new_row = self.validate(&new_row)?;
        let in_place = self.write_gate(rid, tid, snap)?;
        let old_row = match self.rows.get(rid) {
            Some(r) => r.clone(),
            // No newest image but the snapshot matched the row: a newer
            // committed transaction deleted it — first-updater-wins,
            // same as an update racing an update.
            None if !self.rows.slot(rid).old().is_empty() => return Err(self.write_conflict(rid)),
            None => return Err(StorageError::Eval(format!("update of missing row {rid}"))),
        };
        // Versioned gates first (retryable conflicts), then the plain
        // constraint checks (permanent violations).
        self.check_unique_secondary_versioned(&new_row, Some(&old_row), Some(rid), tid, snap)?;
        let pk_pos = self.schema.primary_key_pos();
        let new_pk = new_row.get(pk_pos).clone();
        // A pk move needs the same conflict classification as an
        // insert: a live holder that is another transaction's
        // uncommitted row (or newer than our snapshot) is a retryable
        // conflict, and the target key may still be visible to this
        // snapshot through a deleted version a newer transaction
        // committed (ghost).
        if new_pk != *old_row.get(pk_pos) && !new_pk.is_null() {
            if let Some(holder) = self.live_pk(&new_pk) {
                // A committed-and-visible holder falls through to
                // check_update_constraints' UniqueViolation.
                if holder != rid && self.rows.slot(holder).newer_than(tid, snap) {
                    return Err(self.write_conflict(holder));
                }
            } else if let Some(ghost) = self.find_pk_visible(&new_pk, snap) {
                if ghost != rid {
                    return Err(self.write_conflict(ghost));
                }
            }
        }
        self.check_update_constraints(rid, &old_row, &new_row)?;
        if in_place {
            // Own uncommitted image: nobody else can see it, so move its
            // entries physically — except keys a committed old
            // version still needs.
            self.retire_version_entries(rid, &old_row, false, Some(&new_row));
        } else {
            let v = self.rows.versions_entry(rid);
            v.old.push(OldVersion {
                begin: v.begin,
                end: VersionEnd::Pending(tid),
                row: old_row.clone(),
            });
            v.begin = 0;
            v.writer = Some(tid);
            // Old entries stay: they serve the old version until
            // vacuum. New entries are appended below.
        }
        self.pk_entry_add(&new_pk, rid);
        self.index_entries_add(rid, &new_row);
        self.stats_remove(&old_row);
        self.stats_add(&new_row);
        self.rows.insert(rid, new_row);
        Ok((old_row, !in_place))
    }

    /// Versioned delete: the committed image moves to history (end
    /// pending on `tid`) and stays visible to every other snapshot until
    /// the transaction commits; deleting the transaction's own
    /// uncommitted image removes it physically. Returns the image and
    /// whether a history version was pushed.
    ///
    /// # Errors
    ///
    /// [`StorageError::WriteConflict`] per the write gate.
    pub fn delete_txn(&mut self, rid: RowId, tid: TxnId, snap: &Snapshot) -> Result<(Row, bool)> {
        let in_place = self.write_gate(rid, tid, snap)?;
        let begin = self.rows.slot(rid).versions.as_ref().map_or(0, |v| v.begin);
        let row = match self.rows.remove(rid) {
            Some(r) => r,
            // Deleted by a newer committed transaction (see update_txn).
            None if !self.rows.slot(rid).old().is_empty() => return Err(self.write_conflict(rid)),
            None => return Err(StorageError::Eval(format!("delete of missing row {rid}"))),
        };
        self.stats_remove(&row);
        if in_place {
            self.retire_version_entries(rid, &row, false, None);
            Ok((row, false))
        } else {
            self.rows.versions_entry(rid).old.push(OldVersion {
                begin,
                end: VersionEnd::Pending(tid),
                row: row.clone(),
            });
            // pk and index entries stay for the old version.
            Ok((row, true))
        }
    }

    /// Commit stamping: every version `tid` wrote on these rows becomes
    /// committed at `epoch` — new images get `begin = epoch`, superseded
    /// images get `end = epoch`. Runs under this table's write latch (or
    /// the exclusive catalog latch), before the commit epoch is
    /// published, so the flip is atomic for readers of this table.
    pub fn commit_rows<I: IntoIterator<Item = RowId>>(&mut self, rids: I, tid: TxnId, epoch: u64) {
        for rid in rids {
            let Some(v) = self.rows.versions_mut(rid) else {
                continue;
            };
            if v.writer == Some(tid) {
                v.begin = epoch;
                v.writer = None;
            }
            for old in &mut v.old {
                if old.end == VersionEnd::Pending(tid) {
                    old.end = VersionEnd::At(epoch);
                }
            }
        }
    }

    /// Rolls back an uncommitted [`Table::insert_txn`]: the row never
    /// existed for anyone, so its entries are removed physically.
    pub(crate) fn undo_insert(&mut self, rid: RowId) {
        let Some(row) = self.rows.remove(rid) else {
            return;
        };
        self.stats_remove(&row);
        let pk = row.get(self.schema.primary_key_pos()).clone();
        self.pk_entry_remove(&pk, rid);
        self.index_entries_remove(rid, &row);
    }

    /// Rolls back an uncommitted [`Table::update_txn`]: restores the
    /// pre-image and (when the update pushed an old version) pops its
    /// stamp back into the slot.
    pub(crate) fn undo_update(&mut self, rid: RowId, before: Row, pushed: bool, tid: TxnId) {
        let replaced = self.rows.insert(rid, before.clone());
        if let Some(new_image) = &replaced {
            self.stats_remove(new_image);
        }
        self.stats_add(&before);
        if pushed {
            self.pop_pending_version(rid, tid);
        }
        if let Some(new_image) = replaced {
            self.retire_version_entries(rid, &new_image, false, Some(&before));
        }
        let pk = before.get(self.schema.primary_key_pos()).clone();
        self.pk_entry_add(&pk, rid);
        self.index_entries_add(rid, &before);
    }

    /// Rolls back an uncommitted [`Table::delete_txn`].
    pub(crate) fn undo_delete(&mut self, rid: RowId, row: Row, pushed: bool, tid: TxnId) {
        self.stats_add(&row);
        let pk = row.get(self.schema.primary_key_pos()).clone();
        self.pk_entry_add(&pk, rid);
        self.index_entries_add(rid, &row);
        self.rows.insert(rid, row);
        if pushed {
            self.pop_pending_version(rid, tid);
        } else {
            // `remove` reset the stamp; the row is `tid`'s again.
            self.rows.versions_entry(rid).writer = Some(tid);
        }
    }

    /// Pops the old version `tid` left pending on `rid` back into the
    /// slot's stamp (rollback of the superseding write).
    fn pop_pending_version(&mut self, rid: RowId, tid: TxnId) {
        let Some(v) = self.rows.versions_mut(rid) else {
            debug_assert!(false, "undo expected a pushed version for {rid}");
            return;
        };
        let Some(pos) = v
            .old
            .iter()
            .rposition(|o| o.end == VersionEnd::Pending(tid))
        else {
            debug_assert!(false, "undo expected a pending version for {rid}");
            return;
        };
        let popped = v.old.remove(pos);
        v.begin = popped.begin;
        v.writer = None;
    }

    /// Removes `gone`'s pk and index entries for `rid` — except keys
    /// that a retained old version, the current heap image (when
    /// `keep_heap`), or `also_keep` still carries, which snapshot
    /// readers still need to find.
    fn retire_version_entries(
        &mut self,
        rid: RowId,
        gone: &Row,
        keep_heap: bool,
        also_keep: Option<&Row>,
    ) {
        self.version += 1;
        let slot = self.rows.slot(rid);
        let old = slot.old();
        let heap = if keep_heap { slot.row.as_ref() } else { None };
        let also_keep = also_keep.or(heap);
        let pk_pos = self.schema.primary_key_pos();
        let gone_pk = gone.get(pk_pos).clone();
        let pk_kept = also_keep.is_some_and(|r| r.get(pk_pos) == &gone_pk)
            || old.iter().any(|v| v.row.get(pk_pos) == &gone_pk);
        // Decide every removal first (immutable borrows of the slot and
        // indexes), then apply (mutable) — and compare key columns in
        // place rather than materializing old row clones.
        let retired: Vec<Option<IndexKey>> = self
            .indexes
            .iter()
            .map(|idx| {
                let key = idx.key_of(gone);
                let kept = also_keep.is_some_and(|r| idx.carries(r, &key))
                    || old.iter().any(|v| idx.carries(&v.row, &key));
                (!kept).then_some(key)
            })
            .collect();
        if !pk_kept {
            self.pk_entry_remove(&gone_pk, rid);
        }
        for (idx, key) in self.indexes.iter_mut().zip(retired) {
            if let Some(key) = key {
                posting_remove(&mut idx.map, &key[..], rid);
            }
        }
    }

    // ----- MVCC: vacuum -----

    /// Prunes old versions no snapshot at or after `horizon` can see
    /// (their end epoch is `<= horizon`), removes the index/pk entries
    /// that served only those versions, and collapses settled slots back
    /// to the zero-cost state without a `Versions`. Uncommitted versions
    /// and versions still visible at the horizon are never touched.
    /// Returns the number of versions pruned.
    pub fn vacuum(&mut self, horizon: u64) -> u64 {
        let mut pruned = 0u64;
        for rid in std::mem::take(&mut self.rows.dirty) {
            let v = self
                .rows
                .versions_mut(rid)
                .expect("a dirty slot carries versions");
            let (dead, live): (Vec<OldVersion>, Vec<OldVersion>) = std::mem::take(&mut v.old)
                .into_iter()
                .partition(|o| matches!(o.end, VersionEnd::At(e) if e <= horizon));
            v.old = live;
            // A committed row at or below the horizon with no old
            // versions left is settled: the slot drops its `Versions`.
            let settled = v.writer.is_none() && v.begin <= horizon && v.old.is_empty();
            pruned += dead.len() as u64;
            for o in dead {
                self.retire_version_entries(rid, &o.row, true, None);
            }
            let i = self.rows.slot_index(rid);
            if settled {
                self.rows.slots[i].versions = None;
            } else {
                self.rows.dirty.push(rid);
            }
        }
        pruned
    }

    /// Superseded versions currently retained (diagnostics and tests).
    pub fn history_versions(&self) -> usize {
        self.rows
            .unsettled()
            .map(|(_, slot)| slot.old().len())
            .sum()
    }

    /// Heap rows carrying an explicit version stamp — uncommitted writes
    /// plus committed rows vacuum has not yet settled (diagnostics and
    /// tests).
    pub fn versioned_rows(&self) -> usize {
        self.rows
            .unsettled()
            .filter(|(_, slot)| {
                let v = slot.versions.as_deref();
                slot.row.is_some() && v.is_some_and(|v| v.writer.is_some() || v.begin > 0)
            })
            .count()
    }

    /// Creates a secondary index, backfilling existing rows.
    ///
    /// # Errors
    ///
    /// [`StorageError::AlreadyExists`] for a duplicate name; unknown
    /// columns report [`StorageError::UnknownColumn`]; a unique index over
    /// data that already contains duplicates reports
    /// [`StorageError::UniqueViolation`].
    pub fn create_index(&mut self, def: IndexDef) -> Result<()> {
        if self.indexes.iter().any(|i| i.def.name == def.name) {
            return Err(StorageError::AlreadyExists(def.name));
        }
        let key_pos: Vec<usize> = def
            .columns
            .iter()
            .map(|c| self.schema.require_column(c))
            .collect::<Result<_>>()?;
        let mut idx = Index {
            def,
            key_pos,
            map: BTreeMap::new(),
        };
        for (rid, row) in self.rows.iter() {
            let key = idx.key_of(row);
            if idx.def.unique && !key.iter().any(Value::is_null) && idx.map.contains_key(&key) {
                return Err(StorageError::UniqueViolation {
                    index: idx.def.name.clone(),
                    key: format!("{key:?}"),
                });
            }
            posting_add(&mut idx.map, key, rid);
        }
        // Backfill retained old versions too, so index scans by a
        // snapshot older than the newest images still find their rows
        // (dead versions never count toward uniqueness — every unique
        // check is liveness-aware; vacuum reclaims these entries with
        // their versions).
        for (rid, slot) in self.rows.unsettled() {
            for v in slot.old() {
                let key = idx.key_of(&v.row);
                posting_add(&mut idx.map, key, rid);
            }
        }
        self.indexes.push(idx);
        self.version += 1;
        Ok(())
    }

    /// The index whose key columns exactly match `columns`, if any.
    pub fn index_on(&self, columns: &[String]) -> Option<&Index> {
        self.indexes.iter().find(|i| i.def.columns == columns)
    }

    /// The index named `name`, if any.
    pub fn index_by_name(&self, name: &str) -> Option<&Index> {
        self.indexes.iter().find(|i| i.def.name == name)
    }

    /// The index whose key is a prefix of `columns` usable for an
    /// equality lookup on all its key columns.
    ///
    /// Fully deterministic: prefers the widest covering index, then the
    /// most selective (most distinct keys) — e.g. for
    /// `WHERE to_user_id = ? AND status = ?` the FK index beats the
    /// low-cardinality status index — and finally the lexicographically
    /// smallest index name, so equal-width equal-selectivity candidates
    /// never flip-flop between runs.
    pub fn best_index_for(&self, eq_columns: &[&str]) -> Option<&Index> {
        self.indexes
            .iter()
            .filter(|i| {
                i.def
                    .columns
                    .iter()
                    .all(|c| eq_columns.contains(&c.as_str()))
            })
            .max_by_key(|i| {
                (
                    i.def.columns.len(),
                    i.distinct_keys(),
                    std::cmp::Reverse(i.def.name.as_str()),
                )
            })
    }

    /// The postings under exactly `key` in the primary key (`idx` is
    /// `None`; a one-value key) or in `idx`.
    fn postings<'a>(&'a self, idx: Option<&'a Index>, key: &[Value]) -> Option<&'a Postings> {
        match idx {
            None => self.pk_index.get(&key[0]),
            Some(idx) => idx.map.get(key),
        }
    }

    /// The primary key's or `idx`'s entries from the first key `>= start`
    /// on, in key order.
    fn entries_from<'a>(&'a self, idx: Option<&'a Index>, start: &[Value]) -> Entries<'a> {
        use std::ops::Bound as B;
        match idx {
            None => {
                let lo = start.first().map_or(B::Unbounded, B::Included);
                Entries::Pk(self.pk_index.range::<Value, _>((lo, B::Unbounded)))
            }
            Some(idx) => Entries::Index(
                idx.map
                    .range::<[Value], _>((B::Included(start), B::Unbounded)),
            ),
        }
    }

    /// The one scan core, over the primary key (`idx` is `None`) or a
    /// secondary index: equality on the leading key columns (`eq`), then
    /// one probe per range over the next key column, ranges in key order.
    /// A probe that pins every key column is one map lookup; any other
    /// walks the map from its lower end. `keep(key, rid)` maps each entry
    /// to an output item or drops it; under a primary key it yields at
    /// most one item per key, the first match newest id first (see
    /// `pk_index`).
    ///
    /// Key blocks come back in key order, reversed when `reverse`; each
    /// key's row ids stay in rid (heap) order either way, which is the tie
    /// order the executor's stable sort produces — so ordered index scans
    /// and scan+sort return identical row sequences, with or without the
    /// index.
    fn index_scan_with<T>(
        &self,
        idx: Option<&Index>,
        eq: &[Value],
        ranges: &[(crate::plan::Bound, crate::plan::Bound)],
        reverse: bool,
        keep: &dyn Fn(&[Value], RowId) -> Option<T>,
    ) -> Vec<T> {
        use crate::plan::Bound;
        let width = idx.map_or(1, |idx| idx.key_pos.len());
        let p = eq.len();
        let mut out = Vec::new();
        // A reversed scan takes each block backwards, so one reversal at
        // the end flips the key order and restores rid order within keys.
        let block = |key: &[Value], rids: &Postings, out: &mut Vec<T>| {
            out.reserve(rids.len());
            if idx.is_none() {
                out.extend(rids.iter().rev().find_map(|rid| keep(key, rid)));
            } else if reverse {
                out.extend(rids.iter().rev().filter_map(|rid| keep(key, rid)));
            } else {
                out.extend(rids.iter().filter_map(|rid| keep(key, rid)));
            }
        };
        let mut buf = Vec::new();
        for range @ (from, to) in ranges {
            let point = crate::plan::point_value(range);
            if p == width || (p + 1 == width && point.is_some()) {
                let key = match point {
                    Some(v) if p < width => extended(&mut buf, eq, v),
                    _ => eq,
                };
                if let Some(rids) = self.postings(idx, key) {
                    block(key, rids, &mut out);
                }
                continue;
            }
            // Start at the first key >= eq + lower endpoint; keys sharing
            // the endpoint value but carrying longer suffixes sort after
            // the bare endpoint key, so this is the right start for an
            // excluded endpoint too (the equal run is skipped below).
            let start = match from.value() {
                Some(v) => extended(&mut buf, eq, v),
                None => eq,
            };
            for (key, rids) in self.entries_from(idx, start) {
                if key[..p] != *eq {
                    break;
                }
                let kv = &key[p];
                if matches!(from, Bound::Excluded(v) if kv == v) {
                    continue;
                }
                let past = match to {
                    Bound::Included(v) => kv > v,
                    Bound::Excluded(v) => kv >= v,
                    Bound::Unbounded => false,
                };
                if past {
                    break;
                }
                block(key, rids, &mut out);
            }
        }
        if reverse {
            out.reverse();
        }
        out
    }

    /// The scan core (`index_scan_with`) read at `snap`: each entry resolves to
    /// the version of its row `snap` sees, kept only when that version
    /// carries the entry's key. This drops stale entries (the version
    /// moved away from the key, or is invisible to the snapshot) and
    /// returns a row at most once per scan. The resolved row travels with
    /// the id: the consumer never resolves it again.
    pub fn index_scan(
        &self,
        idx: Option<&Index>,
        eq: &[Value],
        ranges: &[(crate::plan::Bound, crate::plan::Bound)],
        reverse: bool,
        snap: &Snapshot,
    ) -> Vec<RowRef<'_>> {
        let pk_pos = [self.schema.primary_key_pos()];
        let key_pos = idx.map_or(&pk_pos[..], |idx| &idx.key_pos);
        self.index_scan_with(idx, eq, ranges, reverse, &|key, rid| {
            self.visible(rid, snap)
                .filter(|r| key_pos.iter().zip(key).all(|(&p, kv)| r.get(p) == kv))
                .map(|r| (rid, r))
        })
    }

    /// All secondary indexes.
    pub fn indexes(&self) -> &[Index] {
        &self.indexes
    }

    /// Removes every row (used by tests and reseeding); indexes are kept
    /// but emptied, and row ids are *not* reused.
    pub fn truncate(&mut self) {
        self.version += 1;
        self.rows.clear(self.next_rid);
        self.pk_index.clear();
        for idx in &mut self.indexes {
            idx.map.clear();
        }
        let stats = self.stats.get_mut();
        stats.pending.clear();
        for s in &mut stats.cols {
            s.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::WHOLE_RANGE;
    use crate::row;
    use crate::schema::{ColumnDef, TableSchema};
    use crate::value::ValueType;

    /// Every entry under exactly `key` in `idx`, stale or not.
    fn lookup(t: &Table, idx: &Index, key: &[Value]) -> Vec<RowId> {
        t.index_scan_with(Some(idx), key, WHOLE_RANGE, false, &|_, rid| Some(rid))
    }

    fn users_table() -> Table {
        let schema = TableSchema::builder("users")
            .pk("id")
            .column(ColumnDef::new("name", ValueType::Text).not_null())
            .column(ColumnDef::new("email", ValueType::Text).unique())
            .column(ColumnDef::new("age", ValueType::Int))
            .build()
            .unwrap();
        let mut t = Table::new(schema, 1);
        t.create_index(IndexDef {
            name: "users_email".into(),
            columns: vec!["email".into()],
            unique: true,
        })
        .unwrap();
        t.create_index(IndexDef {
            name: "users_age".into(),
            columns: vec!["age".into()],
            unique: false,
        })
        .unwrap();
        t
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut t = users_table();
        let rid = t.insert(row![1i64, "alice", "a@x", 30i64]).unwrap();
        assert_eq!(t.get(rid).unwrap().get(1), &Value::Text("alice".into()));
        assert_eq!(t.len(), 1);
        assert_eq!(t.find_pk(&Value::Int(1)), Some(rid));
    }

    #[test]
    fn pk_duplicate_rejected() {
        let mut t = users_table();
        t.insert(row![1i64, "a", "a@x", 1i64]).unwrap();
        let err = t.insert(row![1i64, "b", "b@x", 2i64]).unwrap_err();
        assert!(matches!(err, StorageError::UniqueViolation { .. }));
        assert_eq!(t.len(), 1, "failed insert must not leave residue");
    }

    #[test]
    fn unique_index_rejected() {
        let mut t = users_table();
        t.insert(row![1i64, "a", "same@x", 1i64]).unwrap();
        let err = t.insert(row![2i64, "b", "same@x", 2i64]).unwrap_err();
        assert!(err.to_string().contains("users_email"));
    }

    #[test]
    fn unique_index_allows_nulls() {
        let mut t = users_table();
        t.insert(row![1i64, "a", Value::Null, 1i64]).unwrap();
        t.insert(row![2i64, "b", Value::Null, 2i64]).unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn not_null_enforced() {
        let mut t = users_table();
        let err = t.insert(row![1i64, Value::Null, "a@x", 1i64]).unwrap_err();
        assert!(matches!(err, StorageError::NullViolation(_)));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = users_table();
        let err = t.insert(row![1i64, "a"]).unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { .. }));
    }

    #[test]
    fn type_coercion_on_insert() {
        let schema = TableSchema::builder("m")
            .pk("id")
            .column(ColumnDef::new("score", ValueType::Float))
            .build()
            .unwrap();
        let mut t = Table::new(schema, 2);
        let rid = t.insert(row![1i64, 5i64]).unwrap();
        assert_eq!(t.get(rid).unwrap().get(1), &Value::Float(5.0));
    }

    #[test]
    fn update_maintains_indexes() {
        let mut t = users_table();
        let rid = t.insert(row![1i64, "a", "a@x", 30i64]).unwrap();
        t.insert(row![2i64, "b", "b@x", 30i64]).unwrap();
        let idx = t.index_on(&["age".to_string()]).unwrap();
        assert_eq!(lookup(&t, idx, &[Value::Int(30)]).len(), 2);
        let old = t.update(rid, row![1i64, "a", "a@x", 31i64]).unwrap();
        assert_eq!(old.get(3), &Value::Int(30));
        let idx = t.index_on(&["age".to_string()]).unwrap();
        assert_eq!(lookup(&t, idx, &[Value::Int(30)]).len(), 1);
        assert_eq!(lookup(&t, idx, &[Value::Int(31)]).len(), 1);
    }

    #[test]
    fn update_to_conflicting_unique_rejected_without_damage() {
        let mut t = users_table();
        let rid = t.insert(row![1i64, "a", "a@x", 1i64]).unwrap();
        t.insert(row![2i64, "b", "b@x", 2i64]).unwrap();
        let err = t.update(rid, row![1i64, "a", "b@x", 1i64]).unwrap_err();
        assert!(matches!(err, StorageError::UniqueViolation { .. }));
        // Old index entries intact.
        let idx = t.index_on(&["email".to_string()]).unwrap();
        assert_eq!(lookup(&t, idx, &[Value::Text("a@x".into())]).len(), 1);
    }

    #[test]
    fn update_pk_change() {
        let mut t = users_table();
        let rid = t.insert(row![1i64, "a", "a@x", 1i64]).unwrap();
        t.update(rid, row![9i64, "a", "a@x", 1i64]).unwrap();
        assert_eq!(t.find_pk(&Value::Int(9)), Some(rid));
        assert_eq!(t.find_pk(&Value::Int(1)), None);
    }

    #[test]
    fn delete_removes_everywhere() {
        let mut t = users_table();
        let rid = t.insert(row![1i64, "a", "a@x", 30i64]).unwrap();
        let row = t.delete(rid).unwrap();
        assert_eq!(row.get(0), &Value::Int(1));
        assert!(t.is_empty());
        assert_eq!(t.find_pk(&Value::Int(1)), None);
        let idx = t.index_on(&["age".to_string()]).unwrap();
        assert!(lookup(&t, idx, &[Value::Int(30)]).is_empty());
        assert!(t.delete(rid).is_none(), "double delete returns None");
    }

    #[test]
    fn restore_preserves_rid_and_indexes() {
        let mut t = users_table();
        let rid = t.insert(row![1i64, "a", "a@x", 30i64]).unwrap();
        let row = t.delete(rid).unwrap();
        t.restore(rid, row);
        assert_eq!(t.find_pk(&Value::Int(1)), Some(rid));
        let idx = t.index_on(&["age".to_string()]).unwrap();
        assert_eq!(lookup(&t, idx, &[Value::Int(30)]), vec![rid]);
    }

    #[test]
    fn create_index_backfills() {
        let mut t = users_table();
        t.insert(row![1i64, "a", "a@x", 10i64]).unwrap();
        t.insert(row![2i64, "b", "b@x", 10i64]).unwrap();
        t.create_index(IndexDef {
            name: "users_name".into(),
            columns: vec!["name".into()],
            unique: false,
        })
        .unwrap();
        let idx = t.index_on(&["name".to_string()]).unwrap();
        assert_eq!(lookup(&t, idx, &[Value::Text("a".into())]).len(), 1);
    }

    #[test]
    fn duplicate_index_name_rejected() {
        let mut t = users_table();
        let err = t
            .create_index(IndexDef {
                name: "users_email".into(),
                columns: vec!["name".into()],
                unique: false,
            })
            .unwrap_err();
        assert!(matches!(err, StorageError::AlreadyExists(_)));
    }

    #[test]
    fn unique_backfill_over_duplicates_fails() {
        let mut t = users_table();
        t.insert(row![1i64, "same", "a@x", 1i64]).unwrap();
        t.insert(row![2i64, "same", "b@x", 2i64]).unwrap();
        let err = t
            .create_index(IndexDef {
                name: "users_name_u".into(),
                columns: vec!["name".into()],
                unique: true,
            })
            .unwrap_err();
        assert!(matches!(err, StorageError::UniqueViolation { .. }));
    }

    #[test]
    fn best_index_prefers_widest_match() {
        let schema = TableSchema::builder("t")
            .pk("id")
            .column(ColumnDef::new("a", ValueType::Int))
            .column(ColumnDef::new("b", ValueType::Int))
            .build()
            .unwrap();
        let mut t = Table::new(schema, 3);
        t.create_index(IndexDef {
            name: "t_a".into(),
            columns: vec!["a".into()],
            unique: false,
        })
        .unwrap();
        t.create_index(IndexDef {
            name: "t_ab".into(),
            columns: vec!["a".into(), "b".into()],
            unique: false,
        })
        .unwrap();
        let best = t.best_index_for(&["a", "b"]).unwrap();
        assert_eq!(best.def().name, "t_ab");
        let only_a = t.best_index_for(&["a"]).unwrap();
        assert_eq!(only_a.def().name, "t_a");
        assert!(
            t.best_index_for(&["b"]).is_none()
                || t.best_index_for(&["b"]).unwrap().def().columns == vec!["b".to_string()]
        );
    }

    #[test]
    fn best_index_breaks_ties_by_selectivity() {
        let schema = TableSchema::builder("inv")
            .pk("id")
            .column(ColumnDef::new("to_user", ValueType::Int))
            .column(ColumnDef::new("status", ValueType::Int))
            .build()
            .unwrap();
        let mut t = Table::new(schema, 9);
        t.create_index(IndexDef {
            name: "inv_status".into(),
            columns: vec!["status".into()],
            unique: false,
        })
        .unwrap();
        t.create_index(IndexDef {
            name: "inv_to_user".into(),
            columns: vec!["to_user".into()],
            unique: false,
        })
        .unwrap();
        // Many users, two statuses: the user index is far more selective.
        for i in 0..100i64 {
            t.insert(row![i, i % 50, i % 2]).unwrap();
        }
        let best = t.best_index_for(&["to_user", "status"]).unwrap();
        assert_eq!(best.def().name, "inv_to_user");
    }

    #[test]
    fn best_index_tie_breaks_by_name() {
        let schema = TableSchema::builder("t")
            .pk("id")
            .column(ColumnDef::new("a", ValueType::Int))
            .column(ColumnDef::new("b", ValueType::Int))
            .build()
            .unwrap();
        let mut t = Table::new(schema, 7);
        // Two single-column indexes over columns with identical
        // cardinality: width and selectivity tie, so the name decides —
        // deterministically, regardless of creation order.
        t.create_index(IndexDef {
            name: "t_zz".into(),
            columns: vec!["a".into()],
            unique: false,
        })
        .unwrap();
        t.create_index(IndexDef {
            name: "t_aa".into(),
            columns: vec!["b".into()],
            unique: false,
        })
        .unwrap();
        for i in 0..10i64 {
            t.insert(row![i, i % 5, i % 5]).unwrap();
        }
        assert_eq!(t.best_index_for(&["a", "b"]).unwrap().def().name, "t_aa");

        // Same table with the indexes created in the opposite order
        // picks the same winner.
        let schema = TableSchema::builder("t")
            .pk("id")
            .column(ColumnDef::new("a", ValueType::Int))
            .column(ColumnDef::new("b", ValueType::Int))
            .build()
            .unwrap();
        let mut t2 = Table::new(schema, 8);
        t2.create_index(IndexDef {
            name: "t_aa".into(),
            columns: vec!["b".into()],
            unique: false,
        })
        .unwrap();
        t2.create_index(IndexDef {
            name: "t_zz".into(),
            columns: vec!["a".into()],
            unique: false,
        })
        .unwrap();
        for i in 0..10i64 {
            t2.insert(row![i, i % 5, i % 5]).unwrap();
        }
        assert_eq!(t2.best_index_for(&["a", "b"]).unwrap().def().name, "t_aa");
    }

    #[test]
    fn page_of_groups_rows() {
        let schema = TableSchema::builder("t")
            .pk("id")
            .rows_per_page(4)
            .build()
            .unwrap();
        let t = Table::new(schema, 4);
        assert_eq!(t.page_of(RowId(0)), 0);
        assert_eq!(t.page_of(RowId(3)), 0);
        assert_eq!(t.page_of(RowId(4)), 1);
    }

    fn snap(epoch: u64) -> Snapshot {
        Snapshot {
            epoch,
            writer: None,
        }
    }

    fn snap_w(epoch: u64, tid: u64) -> Snapshot {
        Snapshot {
            epoch,
            writer: Some(tid),
        }
    }

    #[test]
    fn versioned_update_serves_old_and_new_snapshots() {
        let mut t = users_table();
        let rid = t.insert(row![1i64, "a", "a@x", 30i64]).unwrap();
        // Txn 7 at snapshot epoch 0 updates the age; commit at epoch 1.
        let (before, pushed) = t
            .update_txn(rid, row![1i64, "a", "a@x", 31i64], 7, &snap_w(0, 7))
            .unwrap();
        assert_eq!(before.get(3), &Value::Int(30));
        assert!(pushed, "superseding a committed version pushes history");
        // Uncommitted: only the writer sees the new image.
        assert_eq!(t.visible(rid, &snap(0)).unwrap().get(3), &Value::Int(30));
        assert_eq!(
            t.visible(rid, &snap_w(0, 7)).unwrap().get(3),
            &Value::Int(31)
        );
        t.commit_rows([rid], 7, 1);
        // Old snapshot keeps the old version; new snapshot sees the new.
        assert_eq!(t.visible(rid, &snap(0)).unwrap().get(3), &Value::Int(30));
        assert_eq!(t.visible(rid, &snap(1)).unwrap().get(3), &Value::Int(31));
        // The stale age-30 index entry filters out per snapshot.
        let idx_name = "users_age".to_owned();
        let idx = t.index_by_name(&idx_name).unwrap();
        assert!(t
            .index_scan(Some(idx), &[Value::Int(30)], WHOLE_RANGE, false, &snap(1))
            .is_empty());
        let idx = t.index_by_name(&idx_name).unwrap();
        let hits = t.index_scan(Some(idx), &[Value::Int(30)], WHOLE_RANGE, false, &snap(0));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, rid);
        assert_eq!(hits[0].1.get(3), &Value::Int(30), "the snapshot's version");
    }

    #[test]
    fn versioned_delete_stays_visible_until_snapshot_passes() {
        let mut t = users_table();
        let rid = t.insert(row![1i64, "a", "a@x", 30i64]).unwrap();
        let (_, pushed) = t.delete_txn(rid, 9, &snap_w(0, 9)).unwrap();
        assert!(pushed);
        assert!(
            t.visible(rid, &snap_w(0, 9)).is_none(),
            "own delete visible"
        );
        assert!(t.visible(rid, &snap(0)).is_some(), "others still see it");
        t.commit_rows([rid], 9, 1);
        assert!(t.visible(rid, &snap(0)).is_some());
        assert!(t.visible(rid, &snap(1)).is_none());
        assert_eq!(t.visible_len(&snap(0)), 1);
        assert_eq!(t.visible_len(&snap(1)), 0);
        assert_eq!(t.find_pk_visible(&Value::Int(1), &snap(0)), Some(rid));
        assert_eq!(t.find_pk_visible(&Value::Int(1), &snap(1)), None);
    }

    #[test]
    fn write_gate_rejects_stale_snapshots() {
        let mut t = users_table();
        let rid = t.insert(row![1i64, "a", "a@x", 30i64]).unwrap();
        t.update_txn(rid, row![1i64, "a", "a@x", 31i64], 3, &snap_w(0, 3))
            .unwrap();
        t.commit_rows([rid], 3, 1);
        // Txn 4 still reads at epoch 0: first-updater-wins.
        let err = t
            .update_txn(rid, row![1i64, "a", "a@x", 32i64], 4, &snap_w(0, 4))
            .unwrap_err();
        assert!(matches!(err, StorageError::WriteConflict { .. }));
        let err = t.delete_txn(rid, 4, &snap_w(0, 4)).unwrap_err();
        assert!(matches!(err, StorageError::WriteConflict { .. }));
        // A fresh snapshot proceeds.
        t.update_txn(rid, row![1i64, "a", "a@x", 32i64], 4, &snap_w(1, 4))
            .unwrap();
    }

    #[test]
    fn vacuum_prunes_only_below_horizon_and_settles_meta() {
        let mut t = users_table();
        let rid = t.insert(row![1i64, "a", "a@x", 0i64]).unwrap();
        for e in 1..=4u64 {
            t.update_txn(
                rid,
                row![1i64, "a", "a@x", e as i64],
                100 + e,
                &snap_w(e - 1, 100 + e),
            )
            .unwrap();
            t.commit_rows([rid], 100 + e, e);
        }
        assert_eq!(t.history_versions(), 4);
        // Horizon 2: versions ending at or before epoch 2 die, the rest
        // stay (a snapshot at epoch 2 still needs the [2, 3) version).
        assert_eq!(t.vacuum(2), 2);
        assert_eq!(t.history_versions(), 2);
        assert_eq!(t.visible(rid, &snap(2)).unwrap().get(3), &Value::Int(2));
        assert_eq!(t.visible(rid, &snap(4)).unwrap().get(3), &Value::Int(4));
        // Horizon 4: everything settles, meta collapses to implicit.
        t.vacuum(4);
        assert_eq!(t.history_versions(), 0);
        assert_eq!(t.versioned_rows(), 0);
        assert_eq!(t.visible(rid, &snap(4)).unwrap().get(3), &Value::Int(4));
    }

    #[test]
    fn undo_restores_exact_version_state() {
        let mut t = users_table();
        let rid = t.insert(row![1i64, "a", "a@x", 30i64]).unwrap();
        let (before, pushed) = t
            .update_txn(rid, row![1i64, "a", "a@x", 31i64], 5, &snap_w(0, 5))
            .unwrap();
        t.undo_update(rid, before, pushed, 5);
        assert_eq!(t.history_versions(), 0, "pending version popped back");
        assert_eq!(t.versioned_rows(), 0, "meta restored to committed");
        assert_eq!(t.visible(rid, &snap(0)).unwrap().get(3), &Value::Int(30));
        // Delete + undo round-trips the same way.
        let (row, pushed) = t.delete_txn(rid, 6, &snap_w(0, 6)).unwrap();
        t.undo_delete(rid, row, pushed, 6);
        assert_eq!(t.visible(rid, &snap(0)).unwrap().get(0), &Value::Int(1));
        assert_eq!(t.find_pk(&Value::Int(1)), Some(rid));
        // Insert + undo leaves no trace at all.
        let rid2 = t
            .insert_txn(row![2i64, "b", "b@x", 9i64], 8, &snap_w(0, 8))
            .unwrap();
        t.undo_insert(rid2);
        assert!(t.get(rid2).is_none());
        assert_eq!(t.find_pk(&Value::Int(2)), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn truncate_clears_but_keeps_rid_monotone() {
        let mut t = users_table();
        t.insert(row![1i64, "a", "a@x", 1i64]).unwrap();
        t.truncate();
        assert!(t.is_empty());
        let rid = t.insert(row![1i64, "a", "a@x", 1i64]).unwrap();
        assert!(rid.0 >= 1, "row ids are not reused after truncate");
    }

    /// Differential test of the slot-vector heap: random write sequences
    /// drive a [`Table`] and a `BTreeMap<RowId, Row>` reference model
    /// side by side, and every read the heap serves must agree after
    /// every step.
    mod heap_model {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Op {
            /// Unversioned writes (no transaction open).
            Insert(i64, i64),
            Update(usize, i64),
            Delete(usize),
            /// Versioned writes; the first one opens a transaction.
            TxnInsert(i64, i64),
            TxnUpdate(usize, i64),
            TxnDelete(usize),
            Commit,
            Undo,
            /// Vacuum at a horizon between the oldest checked snapshot
            /// and the newest epoch.
            Vacuum(u64),
            Truncate,
            /// Restores a fresh row at a retired row id.
            Restore(usize, i64),
        }

        fn op() -> impl Strategy<Value = Op> {
            prop_oneof![
                (0..8i64, 0..4i64).prop_map(|(pk, v)| Op::Insert(pk, v)),
                (0..16usize, 0..4i64).prop_map(|(slot, v)| Op::Update(slot, v)),
                (0..16usize).prop_map(Op::Delete),
                (0..8i64, 0..4i64).prop_map(|(pk, v)| Op::TxnInsert(pk, v)),
                (0..16usize, 0..4i64).prop_map(|(slot, v)| Op::TxnUpdate(slot, v)),
                (0..16usize).prop_map(Op::TxnDelete),
                Just(Op::Commit),
                Just(Op::Undo),
                (0..4u64).prop_map(Op::Vacuum),
                Just(Op::Truncate),
                (0..16usize, 0..4i64).prop_map(|(slot, v)| Op::Restore(slot, v)),
            ]
        }

        enum UndoEntry {
            Insert(RowId),
            Update(RowId, Row, bool),
            Delete(RowId, Row, bool),
        }

        type Rows = BTreeMap<RowId, Row>;

        struct Model {
            /// Newest image of every row (what `get` and `iter` serve).
            heap: Rows,
            /// What a snapshot at each epoch sees; epochs below `floor`
            /// are no longer checked (vacuumed, or rewritten by an
            /// unversioned write every snapshot sees).
            views: Vec<Rows>,
            floor: u64,
            next_rid: u64,
            /// The open transaction's undo log.
            txn: Option<Vec<UndoEntry>>,
        }

        const TID: TxnId = 1;

        impl Model {
            fn now(&self) -> u64 {
                self.views.len() as u64 - 1
            }

            fn nth_row(&self, slot: usize) -> Option<(RowId, Row)> {
                let n = self.heap.len();
                (n > 0).then(|| {
                    let (rid, row) = self.heap.iter().nth(slot % n).unwrap();
                    (*rid, row.clone())
                })
            }

            fn pk_live(&self, pk: i64) -> bool {
                self.heap.values().any(|r| r.get(0) == &Value::Int(pk))
            }

            /// An unversioned write every snapshot sees at once.
            fn write_through(&mut self) {
                *self.views.last_mut().unwrap() = self.heap.clone();
                self.floor = self.now();
            }

            fn inserted(&mut self, rid: RowId, row: Row) {
                assert!(rid.0 >= self.next_rid, "row ids are never reused");
                self.next_rid = rid.0 + 1;
                self.heap.insert(rid, row);
            }
        }

        fn table() -> Table {
            let schema = TableSchema::builder("h")
                .pk("id")
                .column(ColumnDef::new("v", ValueType::Int))
                .build()
                .unwrap();
            let mut t = Table::new(schema, 1);
            t.create_index(IndexDef {
                name: "h_v".into(),
                columns: vec!["v".into()],
                unique: false,
            })
            .unwrap();
            t
        }

        fn apply(t: &mut Table, m: &mut Model, op: &Op) {
            let now = m.now();
            let own = snap_w(now, TID);
            if matches!(op, Op::TxnInsert(..) | Op::TxnUpdate(..) | Op::TxnDelete(_)) {
                m.txn.get_or_insert_with(Vec::new);
            }
            let idle = m.txn.is_none();
            match *op {
                Op::Insert(pk, v) if idle => {
                    let res = t.insert(row![pk, v]);
                    if m.pk_live(pk) {
                        assert!(matches!(res, Err(StorageError::UniqueViolation { .. })));
                    } else {
                        m.inserted(res.unwrap(), row![pk, v]);
                        m.write_through();
                    }
                }
                Op::Update(slot, v) if idle => {
                    if let Some((rid, old)) = m.nth_row(slot) {
                        let new = row![old.get(0).clone(), v];
                        assert_eq!(t.update(rid, new.clone()).unwrap(), old);
                        m.heap.insert(rid, new);
                        m.write_through();
                    }
                }
                Op::Delete(slot) if idle => {
                    if let Some((rid, old)) = m.nth_row(slot) {
                        assert_eq!(t.delete(rid), Some(old));
                        m.heap.remove(&rid);
                        m.write_through();
                    }
                }
                Op::TxnInsert(pk, v) => {
                    let res = t.insert_txn(row![pk, v], TID, &own);
                    if m.pk_live(pk) {
                        assert!(matches!(res, Err(StorageError::UniqueViolation { .. })));
                    } else {
                        let rid = res.unwrap();
                        m.inserted(rid, row![pk, v]);
                        m.txn.as_mut().unwrap().push(UndoEntry::Insert(rid));
                    }
                }
                Op::TxnUpdate(slot, v) => {
                    if let Some((rid, old)) = m.nth_row(slot) {
                        let new = row![old.get(0).clone(), v];
                        let (before, pushed) = t.update_txn(rid, new.clone(), TID, &own).unwrap();
                        assert_eq!(before, old);
                        m.heap.insert(rid, new);
                        let undo = UndoEntry::Update(rid, before, pushed);
                        m.txn.as_mut().unwrap().push(undo);
                    }
                }
                Op::TxnDelete(slot) => {
                    if let Some((rid, old)) = m.nth_row(slot) {
                        let (row, pushed) = t.delete_txn(rid, TID, &own).unwrap();
                        assert_eq!(row, old);
                        m.heap.remove(&rid);
                        let undo = UndoEntry::Delete(rid, row, pushed);
                        m.txn.as_mut().unwrap().push(undo);
                    }
                }
                Op::Commit => {
                    if let Some(log) = m.txn.take() {
                        let rids = log.iter().map(|u| match u {
                            UndoEntry::Insert(rid)
                            | UndoEntry::Update(rid, ..)
                            | UndoEntry::Delete(rid, ..) => *rid,
                        });
                        t.commit_rows(rids, TID, now + 1);
                        m.views.push(m.heap.clone());
                    }
                }
                Op::Undo => {
                    for entry in m.txn.take().into_iter().flatten().rev() {
                        match entry {
                            UndoEntry::Insert(rid) => t.undo_insert(rid),
                            UndoEntry::Update(rid, before, pushed) => {
                                t.undo_update(rid, before, pushed, TID)
                            }
                            UndoEntry::Delete(rid, row, pushed) => {
                                t.undo_delete(rid, row, pushed, TID)
                            }
                        }
                    }
                    m.heap = m.views[now as usize].clone();
                }
                Op::Vacuum(k) => {
                    let horizon = m.floor + k % (now - m.floor + 1);
                    t.vacuum(horizon);
                    m.floor = horizon;
                    if horizon == now && idle {
                        assert_eq!(t.versioned_rows(), 0, "settled at now");
                        assert_eq!(t.history_versions(), 0, "pruned at now");
                        assert!(t.rows.dirty.is_empty(), "no versions left at now");
                    }
                }
                Op::Truncate if idle => {
                    t.truncate();
                    m.heap.clear();
                    m.write_through();
                }
                Op::Restore(slot, v) if idle => {
                    let gaps: Vec<u64> = (0..m.next_rid)
                        .filter(|&r| !m.heap.contains_key(&RowId(r)))
                        .collect();
                    if !gaps.is_empty() {
                        let rid = RowId(gaps[slot % gaps.len()]);
                        // A primary key no live row carries.
                        let row = row![100 + rid.0 as i64, v];
                        t.restore(rid, row.clone());
                        m.heap.insert(rid, row);
                        m.write_through();
                    }
                }
                _ => {}
            }
        }

        fn check(t: &Table, m: &Model) {
            let heap: Vec<(RowId, Row)> = t.iter().map(|(r, row)| (r, row.clone())).collect();
            let model: Vec<(RowId, Row)> =
                m.heap.iter().map(|(r, row)| (*r, row.clone())).collect();
            assert_eq!(heap, model, "iter");
            assert_eq!(t.len(), m.heap.len(), "len");
            assert_eq!(t.is_empty(), m.heap.is_empty(), "is_empty");
            // The slots carrying versions are exactly the dirty list,
            // each once.
            let mut dirty = t.rows.dirty.clone();
            dirty.sort_unstable();
            let carrying: Vec<RowId> = (t.rows.base..)
                .zip(&t.rows.slots)
                .filter(|(_, slot)| slot.versions.is_some())
                .map(|(rid, _)| RowId(rid))
                .collect();
            assert_eq!(dirty, carrying, "dirty lists the slots with versions");
            let scan = t.scan_rids();
            assert!(scan.windows(2).all(|w| w[0] < w[1]), "scan_rids order");
            assert!(m.heap.keys().all(|r| scan.contains(r)), "scan_rids covers");
            for rid in (0..m.next_rid + 2).map(RowId) {
                assert_eq!(t.get(rid), m.heap.get(&rid), "get({rid})");
            }
            let mut snaps: Vec<(Snapshot, &Rows)> = (m.floor..=m.now())
                .map(|e| (snap(e), &m.views[e as usize]))
                .collect();
            if m.txn.is_some() {
                snaps.push((snap_w(m.now(), TID), &m.heap));
            }
            for (s, view) in snaps {
                for rid in (0..m.next_rid + 2).map(RowId) {
                    assert_eq!(t.visible(rid, &s), view.get(&rid), "visible({rid}, {s:?})");
                }
                let seen: Vec<RowId> = scan
                    .iter()
                    .copied()
                    .filter(|&r| t.visible(r, &s).is_some())
                    .collect();
                assert!(seen.iter().eq(view.keys()), "scan_rids at {s:?}");
                assert_eq!(t.visible_len(&s), view.len(), "visible_len at {s:?}");
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn slot_heap_matches_a_btreemap_model(
                ops in proptest::collection::vec(op(), 0..80)
            ) {
                let mut t = table();
                let mut m = Model {
                    heap: Rows::new(),
                    views: vec![Rows::new()],
                    floor: 0,
                    next_rid: 0,
                    txn: None,
                };
                for op in &ops {
                    apply(&mut t, &mut m, op);
                    check(&t, &m);
                }
            }
        }
    }

    /// Differential test of the compact index layout: random write
    /// sequences drive a [`Table`] with a one-column Int index, a
    /// two-column index, a three-column index (the boxed-slice key) and,
    /// once created mid-run, a Text index, and every
    /// index and pk read must agree with `BTreeMap<Vec<Value>,
    /// BTreeSet<RowId>>` models after every step — one model per checked
    /// snapshot for the snapshot reads, and one over the index's own
    /// entries for the newest-version reads.
    mod index_model {
        use super::*;
        use crate::plan::Bound as PB;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        #[derive(Debug, Clone)]
        enum Op {
            /// Unversioned writes (no transaction open). An update moves
            /// the row's keys, and its pk when the pk is `Some`.
            Insert(i64, i64, i64, usize),
            Update(usize, Option<i64>, i64, i64, usize),
            Delete(usize),
            /// Versioned writes; the first one opens a transaction.
            TxnInsert(i64, i64, i64, usize),
            TxnUpdate(usize, Option<i64>, i64, i64, usize),
            TxnDelete(usize),
            Commit,
            Undo,
            Vacuum(u64),
            Truncate,
            /// Creates the Text index over live rows and history.
            CreateTextIndex,
        }

        const TEXTS: [&str; 4] = ["", "m", "mm", "n"];

        fn op() -> impl Strategy<Value = Op> {
            let pk = 0..8i64;
            let k = 0..4i64;
            let s = 0..4usize;
            prop_oneof![
                (pk.clone(), k.clone(), k.clone(), s.clone())
                    .prop_map(|(p, a, b, s)| Op::Insert(p, a, b, s)),
                (
                    0..16usize,
                    proptest::option::of(pk.clone()),
                    k.clone(),
                    k.clone(),
                    s.clone()
                )
                    .prop_map(|(r, p, a, b, s)| Op::Update(r, p, a, b, s)),
                (0..16usize).prop_map(Op::Delete),
                (pk.clone(), k.clone(), k.clone(), s.clone())
                    .prop_map(|(p, a, b, s)| Op::TxnInsert(p, a, b, s)),
                (0..16usize, proptest::option::of(pk), k.clone(), k, s)
                    .prop_map(|(r, p, a, b, s)| Op::TxnUpdate(r, p, a, b, s)),
                (0..16usize).prop_map(Op::TxnDelete),
                Just(Op::Commit),
                Just(Op::Undo),
                (0..4u64).prop_map(Op::Vacuum),
                Just(Op::Truncate),
                Just(Op::CreateTextIndex),
            ]
        }

        fn image(pk: i64, a: i64, b: i64, s: usize) -> Row {
            row![pk, a, b, TEXTS[s]]
        }

        enum UndoEntry {
            Insert(RowId),
            Update(RowId, Row, bool),
            Delete(RowId, Row, bool),
        }

        type Rows = BTreeMap<RowId, Row>;
        type Entries = BTreeMap<Vec<Value>, BTreeSet<RowId>>;

        struct Model {
            /// Newest image of every row.
            heap: Rows,
            /// What a snapshot at each epoch sees; epochs below `floor`
            /// are no longer checked.
            views: Vec<Rows>,
            floor: u64,
            txn: Option<Vec<UndoEntry>>,
        }

        const TID: TxnId = 1;

        impl Model {
            fn now(&self) -> u64 {
                self.views.len() as u64 - 1
            }

            fn nth_row(&self, slot: usize) -> Option<(RowId, Row)> {
                let n = self.heap.len();
                (n > 0).then(|| {
                    let (rid, row) = self.heap.iter().nth(slot % n).unwrap();
                    (*rid, row.clone())
                })
            }

            /// The live row other than `except` carrying `pk`.
            fn pk_taken(&self, pk: &Value, except: Option<RowId>) -> bool {
                self.heap
                    .iter()
                    .any(|(rid, r)| Some(*rid) != except && r.get(0) == pk)
            }

            fn write_through(&mut self) {
                *self.views.last_mut().unwrap() = self.heap.clone();
                self.floor = self.now();
            }
        }

        fn table() -> Table {
            let schema = TableSchema::builder("ix")
                .pk("id")
                .column(ColumnDef::new("a", ValueType::Int))
                .column(ColumnDef::new("b", ValueType::Int))
                .column(ColumnDef::new("s", ValueType::Text))
                .build()
                .unwrap();
            let mut t = Table::new(schema, 1);
            let indexes = [
                ("ix_a", vec!["a"]),
                ("ix_ab", vec!["a", "b"]),
                ("ix_abs", vec!["a", "b", "s"]),
            ];
            for (name, cols) in indexes {
                t.create_index(IndexDef {
                    name: name.into(),
                    columns: cols.into_iter().map(String::from).collect(),
                    unique: false,
                })
                .unwrap();
            }
            t
        }

        /// The row with `slot`'s pk replaced when `pk` is set and the
        /// other columns from the op.
        fn moved(old: &Row, pk: Option<i64>, a: i64, b: i64, s: usize) -> Row {
            let pk = pk.unwrap_or_else(|| old.get(0).as_int().unwrap());
            image(pk, a, b, s)
        }

        fn apply(t: &mut Table, m: &mut Model, op: &Op) {
            let now = m.now();
            let own = snap_w(now, TID);
            if matches!(op, Op::TxnInsert(..) | Op::TxnUpdate(..) | Op::TxnDelete(_)) {
                m.txn.get_or_insert_with(Vec::new);
            }
            let idle = m.txn.is_none();
            match *op {
                Op::Insert(pk, a, b, s) if idle => {
                    let row = image(pk, a, b, s);
                    let res = t.insert(row.clone());
                    if m.pk_taken(row.get(0), None) {
                        assert!(matches!(res, Err(StorageError::UniqueViolation { .. })));
                    } else {
                        m.heap.insert(res.unwrap(), row);
                        m.write_through();
                    }
                }
                Op::Update(slot, pk, a, b, s) if idle => {
                    if let Some((rid, old)) = m.nth_row(slot) {
                        let new = moved(&old, pk, a, b, s);
                        let res = t.update(rid, new.clone());
                        if m.pk_taken(new.get(0), Some(rid)) {
                            assert!(matches!(res, Err(StorageError::UniqueViolation { .. })));
                        } else {
                            assert_eq!(res.unwrap(), old);
                            m.heap.insert(rid, new);
                            m.write_through();
                        }
                    }
                }
                Op::Delete(slot) if idle => {
                    if let Some((rid, old)) = m.nth_row(slot) {
                        assert_eq!(t.delete(rid), Some(old));
                        m.heap.remove(&rid);
                        m.write_through();
                    }
                }
                Op::TxnInsert(pk, a, b, s) => {
                    let row = image(pk, a, b, s);
                    let res = t.insert_txn(row.clone(), TID, &own);
                    if m.pk_taken(row.get(0), None) {
                        assert!(matches!(res, Err(StorageError::UniqueViolation { .. })));
                    } else {
                        let rid = res.unwrap();
                        m.heap.insert(rid, row);
                        m.txn.as_mut().unwrap().push(UndoEntry::Insert(rid));
                    }
                }
                Op::TxnUpdate(slot, pk, a, b, s) => {
                    if let Some((rid, old)) = m.nth_row(slot) {
                        let new = moved(&old, pk, a, b, s);
                        let res = t.update_txn(rid, new.clone(), TID, &own);
                        if m.pk_taken(new.get(0), Some(rid)) {
                            assert!(matches!(res, Err(StorageError::UniqueViolation { .. })));
                        } else {
                            let (before, pushed) = res.unwrap();
                            assert_eq!(before, old);
                            m.heap.insert(rid, new);
                            let undo = UndoEntry::Update(rid, before, pushed);
                            m.txn.as_mut().unwrap().push(undo);
                        }
                    }
                }
                Op::TxnDelete(slot) => {
                    if let Some((rid, old)) = m.nth_row(slot) {
                        let (row, pushed) = t.delete_txn(rid, TID, &own).unwrap();
                        assert_eq!(row, old);
                        m.heap.remove(&rid);
                        let undo = UndoEntry::Delete(rid, row, pushed);
                        m.txn.as_mut().unwrap().push(undo);
                    }
                }
                Op::Commit => {
                    if let Some(log) = m.txn.take() {
                        let rids = log.iter().map(|u| match u {
                            UndoEntry::Insert(rid)
                            | UndoEntry::Update(rid, ..)
                            | UndoEntry::Delete(rid, ..) => *rid,
                        });
                        t.commit_rows(rids, TID, now + 1);
                        m.views.push(m.heap.clone());
                    }
                }
                Op::Undo => {
                    for entry in m.txn.take().into_iter().flatten().rev() {
                        match entry {
                            UndoEntry::Insert(rid) => t.undo_insert(rid),
                            UndoEntry::Update(rid, before, pushed) => {
                                t.undo_update(rid, before, pushed, TID)
                            }
                            UndoEntry::Delete(rid, row, pushed) => {
                                t.undo_delete(rid, row, pushed, TID)
                            }
                        }
                    }
                    m.heap = m.views[now as usize].clone();
                }
                Op::Vacuum(k) => {
                    let horizon = m.floor + k % (now - m.floor + 1);
                    t.vacuum(horizon);
                    m.floor = horizon;
                }
                Op::Truncate if idle => {
                    t.truncate();
                    m.heap.clear();
                    m.write_through();
                }
                Op::CreateTextIndex if t.index_by_name("ix_s").is_none() => {
                    t.create_index(IndexDef {
                        name: "ix_s".into(),
                        columns: vec!["s".into()],
                        unique: false,
                    })
                    .unwrap();
                }
                _ => {}
            }
        }

        /// One index scan, in the shape the planner builds it.
        #[derive(Debug)]
        enum Scan {
            Lookup(Vec<Value>),
            Range(Vec<Value>, PB, PB, bool),
            Prefix(Vec<Value>, bool),
            Multi(Vec<Value>, bool),
            In(Vec<Value>, Vec<Value>, bool),
        }

        fn bounds(vals: &[Value]) -> Vec<(PB, PB)> {
            let (lo, hi) = (vals[1].clone(), vals[2].clone());
            vec![
                (PB::Unbounded, PB::Unbounded),
                (PB::Included(lo.clone()), PB::Included(hi.clone())),
                (PB::Excluded(lo.clone()), PB::Included(hi.clone())),
                (PB::Included(lo.clone()), PB::Excluded(hi.clone())),
                (PB::Excluded(lo.clone()), PB::Excluded(hi.clone())),
                (PB::Included(hi.clone()), PB::Included(lo.clone())),
                (PB::Unbounded, PB::Excluded(hi)),
                (PB::Excluded(lo), PB::Unbounded),
            ]
        }

        /// The values column `col` takes in the ops, and one it never
        /// takes, in storage order.
        fn domain(col: &str) -> (Vec<Value>, Value) {
            if col == "s" {
                let texts = TEXTS.iter().map(|&s| Value::Text(s.into())).collect();
                (texts, Value::Text("z".into()))
            } else {
                ((0..4).map(Value::Int).collect(), Value::Int(9))
            }
        }

        fn extended(prefix: &[Value], v: &Value) -> Vec<Value> {
            prefix.iter().chain([v]).cloned().collect()
        }

        /// The scans checked on each index, in both directions: on every
        /// proper key prefix of a few values, ranges, prefix scans and IN
        /// lists over the next column; multi-key lookups on the first
        /// column; and exact keys of the domain plus misses.
        fn scans(idx: &Index) -> Vec<Scan> {
            let doms: Vec<(Vec<Value>, Value)> =
                idx.def.columns.iter().map(|c| domain(c)).collect();
            let mut prefixes: Vec<Vec<Value>> = vec![Vec::new()];
            for depth in 1..doms.len() {
                let take = if depth == 1 { 4 } else { 2 };
                let longer: Vec<Vec<Value>> = prefixes
                    .iter()
                    .filter(|p| p.len() == depth - 1)
                    .take(take)
                    .flat_map(|p| doms[depth - 1].0.iter().take(take).map(|v| extended(p, v)))
                    .collect();
                prefixes.extend(longer);
            }
            let mut out = Vec::new();
            for rev in [false, true] {
                for p in &prefixes {
                    let (dom, miss) = &doms[p.len()];
                    for (from, to) in bounds(dom) {
                        out.push(Scan::Range(p.clone(), from, to, rev));
                    }
                    out.push(Scan::Prefix(p.clone(), rev));
                    out.push(Scan::In(
                        p.clone(),
                        vec![dom[0].clone(), dom[2].clone()],
                        rev,
                    ));
                    let with_miss = vec![dom[1].clone(), dom[3].clone(), miss.clone()];
                    out.push(Scan::In(p.clone(), with_miss, rev));
                }
                let (dom, miss) = &doms[0];
                out.push(Scan::Multi(vec![dom[0].clone(), dom[2].clone()], rev));
                let with_miss = vec![dom[1].clone(), dom[3].clone(), miss.clone()];
                out.push(Scan::Multi(with_miss, rev));
            }
            // Every key of the domain (two values of a third column),
            // and a miss in the last column.
            let mut keys: Vec<Vec<Value>> = vec![Vec::new()];
            for (depth, (dom, _)) in doms.iter().enumerate() {
                let take = if depth < 2 { dom.len() } else { 2 };
                keys = keys
                    .iter()
                    .flat_map(|k| dom.iter().take(take).map(|v| extended(k, v)))
                    .collect();
            }
            let (_, miss) = doms.last().unwrap();
            keys.push(extended(&keys[0][..doms.len() - 1], miss));
            out.extend(keys.into_iter().map(Scan::Lookup));
            out
        }

        fn within(v: &Value, from: &PB, to: &PB) -> bool {
            let lo = match from {
                PB::Unbounded => true,
                PB::Included(b) => v >= b,
                PB::Excluded(b) => v > b,
            };
            let hi = match to {
                PB::Unbounded => true,
                PB::Included(b) => v <= b,
                PB::Excluded(b) => v < b,
            };
            lo && hi
        }

        /// True when `scan` selects the index key `key`.
        fn hits(scan: &Scan, key: &[Value]) -> bool {
            match scan {
                Scan::Lookup(k) => key == &k[..],
                Scan::Range(p, from, to, _) => {
                    key.starts_with(p) && key.len() > p.len() && within(&key[p.len()], from, to)
                }
                Scan::Prefix(p, _) => key.starts_with(p),
                Scan::Multi(keys, _) => keys.contains(&key[0]),
                Scan::In(p, keys, _) => key.starts_with(p) && keys.contains(&key[p.len()]),
            }
        }

        /// What `scan` returns over `entries`: the matching keys in key
        /// order (reversed when asked), each key's row ids ascending.
        fn expected(entries: &Entries, scan: &Scan) -> Vec<RowId> {
            let reverse = match scan {
                Scan::Lookup(_) => false,
                Scan::Range(.., r) | Scan::Prefix(_, r) | Scan::Multi(_, r) | Scan::In(.., r) => *r,
            };
            let mut blocks: Vec<&BTreeSet<RowId>> = entries
                .iter()
                .filter(|(k, _)| hits(scan, k))
                .map(|(_, rids)| rids)
                .collect();
            if reverse {
                blocks.reverse();
            }
            blocks.into_iter().flatten().copied().collect()
        }

        fn points(keys: &[Value]) -> Vec<(PB, PB)> {
            keys.iter()
                .map(|k| (PB::Included(k.clone()), PB::Included(k.clone())))
                .collect()
        }

        /// `scan` as the scan core takes it: equality values, ranges over
        /// the next column, direction.
        fn args(scan: &Scan) -> (&[Value], Vec<(PB, PB)>, bool) {
            match scan {
                Scan::Lookup(k) => (k, WHOLE_RANGE.to_vec(), false),
                Scan::Range(p, f, to, r) => (p, vec![(f.clone(), to.clone())], *r),
                Scan::Prefix(p, r) => (p, WHOLE_RANGE.to_vec(), *r),
                Scan::Multi(keys, r) => (&[], points(keys), *r),
                Scan::In(p, keys, r) => (p, points(keys), *r),
            }
        }

        /// The index's own entries the scan selects, stale or not.
        fn run_raw(t: &Table, idx: &Index, scan: &Scan) -> Vec<RowId> {
            let (eq, ranges, rev) = args(scan);
            t.index_scan_with(Some(idx), eq, &ranges, rev, &|_, rid| Some(rid))
        }

        fn run_visible<'a>(
            t: &'a Table,
            idx: &Index,
            scan: &Scan,
            s: &Snapshot,
        ) -> Vec<RowRef<'a>> {
            let (eq, ranges, rev) = args(scan);
            t.index_scan(Some(idx), eq, &ranges, rev, s)
        }

        fn entries_of<'a>(
            idx: &Index,
            rows: impl IntoIterator<Item = (RowId, &'a Row)>,
        ) -> Entries {
            let mut out = Entries::new();
            for (rid, row) in rows {
                let key = idx.key_pos.iter().map(|&p| row.get(p).clone()).collect();
                out.entry(key).or_default().insert(rid);
            }
            out
        }

        fn contains_all(big: &Entries, small: &Entries) -> bool {
            small
                .iter()
                .all(|(k, rids)| big.get(k).is_some_and(|b| rids.is_subset(b)))
        }

        /// Every version the table still holds, newest images and old
        /// versions, read slot by slot.
        fn retained(t: &Table) -> Vec<(RowId, &Row)> {
            (t.rows.base..)
                .zip(&t.rows.slots)
                .flat_map(|(rid, slot)| {
                    let old = slot.old().iter().map(|v| &v.row);
                    slot.row.iter().chain(old).map(move |row| (RowId(rid), row))
                })
                .collect()
        }

        fn check(t: &Table, m: &Model) {
            let mut snaps: Vec<(Snapshot, &Rows)> = (m.floor..=m.now())
                .map(|e| (snap(e), &m.views[e as usize]))
                .collect();
            if m.txn.is_some() {
                snaps.push((snap_w(m.now(), TID), &m.heap));
            }
            let settled = t.history_versions() == 0;
            let retained = retained(t);
            for idx in t.indexes() {
                // The index's own entries: rid-ordered postings, none
                // empty, every live row's key present, and nothing a
                // retained version does not carry.
                let mut own = Entries::new();
                for (key, postings) in &idx.map {
                    let rids = postings.as_slice();
                    assert!(
                        !rids.is_empty(),
                        "{}: empty postings under {key:?}",
                        idx.def.name
                    );
                    assert!(
                        rids.windows(2).all(|w| w[0] < w[1]),
                        "{}: postings order",
                        idx.def.name
                    );
                    assert_eq!(key.len(), idx.key_pos.len());
                    own.insert(key.to_vec(), rids.iter().copied().collect());
                }
                let live = entries_of(idx, m.heap.iter().map(|(r, row)| (*r, row)));
                let held = entries_of(idx, retained.iter().copied());
                assert!(
                    contains_all(&own, &live),
                    "{}: a live entry is missing",
                    idx.def.name
                );
                assert!(
                    contains_all(&held, &own),
                    "{}: an entry no version carries",
                    idx.def.name
                );
                if settled {
                    assert_eq!(own, live, "{}: settled entries", idx.def.name);
                }
                assert_eq!(
                    idx.distinct_keys(),
                    own.len(),
                    "{}: distinct_keys",
                    idx.def.name
                );
                let scans = scans(idx);
                for scan in &scans {
                    assert_eq!(
                        run_raw(t, idx, scan),
                        expected(&own, scan),
                        "{}: {scan:?}",
                        idx.def.name
                    );
                }
                for (s, view) in &snaps {
                    let visible = entries_of(idx, view.iter().map(|(r, row)| (*r, row)));
                    for scan in &scans {
                        let got = run_visible(t, idx, scan, s);
                        let rids: Vec<RowId> = got.iter().map(|(rid, _)| *rid).collect();
                        assert_eq!(
                            rids,
                            expected(&visible, scan),
                            "{}: {scan:?} at {s:?}",
                            idx.def.name
                        );
                        for (rid, row) in got {
                            assert_eq!(
                                Some(row),
                                view.get(&rid),
                                "{}: resolved version",
                                idx.def.name
                            );
                        }
                    }
                }
            }
            // The pk index: same bracket, then every probe per snapshot.
            let pk_entries = |rows: &mut dyn Iterator<Item = (RowId, &Row)>| {
                let mut out: BTreeMap<Value, BTreeSet<RowId>> = BTreeMap::new();
                for (rid, row) in rows {
                    out.entry(row.get(0).clone()).or_default().insert(rid);
                }
                out
            };
            let own: BTreeMap<Value, BTreeSet<RowId>> = t
                .pk_index
                .iter()
                .map(|(pk, p)| (pk.clone(), p.iter().collect()))
                .collect();
            let live = pk_entries(&mut m.heap.iter().map(|(r, row)| (*r, row)));
            let held = pk_entries(&mut retained.iter().copied());
            for (pk, rids) in &live {
                assert!(
                    own.get(pk).is_some_and(|o| rids.is_subset(o)),
                    "pk {pk} missing"
                );
            }
            for (pk, rids) in &own {
                assert!(
                    held.get(pk).is_some_and(|h| rids.is_subset(h)),
                    "pk {pk} stale"
                );
            }
            if settled {
                assert_eq!(own, live, "settled pk entries");
            }
            let pk_bounds = bounds(&[Value::Int(0), Value::Int(2), Value::Int(5)]);
            let in_range = |rows: &Rows, from: &PB, to: &PB, rev: bool| {
                let mut hits: Vec<(Value, RowId)> = rows
                    .iter()
                    .filter(|(_, r)| within(r.get(0), from, to))
                    .map(|(rid, r)| (r.get(0).clone(), *rid))
                    .collect();
                hits.sort();
                if rev {
                    hits.reverse();
                }
                hits.into_iter().map(|(_, rid)| rid).collect::<Vec<_>>()
            };
            let holder = |rows: &Rows, pk: &Value| {
                rows.iter()
                    .find(|(_, r)| r.get(0) == pk)
                    .map(|(rid, _)| *rid)
            };
            for pk in (-1..9).map(Value::Int) {
                assert_eq!(t.find_pk(&pk), holder(&m.heap, &pk), "find_pk({pk})");
            }
            // The newest-version view keeps the id whose live row carries
            // the key.
            let live_pk = |pk: &[Value], rid: RowId| {
                t.rows
                    .get(rid)
                    .is_some_and(|r| r.get(0) == &pk[0])
                    .then_some(rid)
            };
            for (from, to) in &pk_bounds {
                for rev in [false, true] {
                    let want = in_range(&m.heap, from, to, rev);
                    let range = [(from.clone(), to.clone())];
                    assert_eq!(
                        t.index_scan_with(None, &[], &range, rev, &live_pk),
                        want,
                        "pk range {from:?}..{to:?}"
                    );
                }
            }
            let pk_keys: Vec<Value> = [-1, 2, 5, 7].into_iter().map(Value::Int).collect();
            let in_keys = |rows: &Rows, rev: bool| {
                let mut hits: Vec<RowId> =
                    pk_keys.iter().filter_map(|pk| holder(rows, pk)).collect();
                if rev {
                    hits.reverse();
                }
                hits
            };
            for (s, view) in &snaps {
                for pk in (-1..9).map(Value::Int) {
                    let want = holder(view, &pk);
                    assert_eq!(
                        t.find_pk_visible(&pk, s),
                        want,
                        "find_pk_visible({pk}, {s:?})"
                    );
                    let live = holder(&m.heap, &pk).is_some();
                    assert_eq!(t.fk_probe(&pk, s), (want, live), "fk_probe({pk}, {s:?})");
                    let got = t.index_scan(None, std::slice::from_ref(&pk), WHOLE_RANGE, false, s);
                    let got: Vec<RowId> = got.into_iter().map(|(rid, _)| rid).collect();
                    assert_eq!(got, Vec::from_iter(want), "pk point {pk} at {s:?}");
                }
                let rids = |rows: Vec<RowRef<'_>>| -> Vec<RowId> {
                    rows.into_iter().map(|(rid, _)| rid).collect()
                };
                for rev in [false, true] {
                    for (from, to) in &pk_bounds {
                        let range = [(from.clone(), to.clone())];
                        let got = rids(t.index_scan(None, &[], &range, rev, s));
                        assert_eq!(got, in_range(view, from, to, rev), "pk range at {s:?}");
                    }
                    let got = rids(t.index_scan(None, &[], &points(&pk_keys), rev, s));
                    assert_eq!(got, in_keys(view, rev), "pk keys at {s:?}");
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn compact_indexes_match_a_btreemap_model(
                ops in proptest::collection::vec(op(), 0..60)
            ) {
                let mut t = table();
                let mut m = Model {
                    heap: Rows::new(),
                    views: vec![Rows::new()],
                    floor: 0,
                    txn: None,
                };
                for op in &ops {
                    apply(&mut t, &mut m, op);
                    check(&t, &m);
                }
            }
        }
    }
}
