//! The sharded row/table lock manager behind multi-writer concurrency.
//!
//! Transactions follow strict two-phase locking over *logical* resources:
//! per-`(table, pk)` exclusive row locks for pk-targeted writes, and a
//! table-level lock beside them: intent-exclusive alongside row locks,
//! exclusive for non-pk-targeted writes. Readers take no locks (they read
//! MVCC snapshots). The engine's internal mutex remains only a short-duration
//! *latch* protecting the physical data structures; it is never held
//! while waiting for a lock here, so statement execution from many
//! threads interleaves at lock granularity.
//!
//! Conflicting requests block on the owning shard's condvar. Every
//! blocked request registers its waits-for edges in a global wait-for
//! graph; when an edge insertion closes a cycle, the *youngest* member of
//! the cycle (largest [`TxnId`] — transaction ids are allocated
//! monotonically, so the largest id has done the least work) is chosen as
//! the deadlock victim and its pending acquisition fails with
//! [`StorageError::Deadlock`]. The caller rolls the victim back; every
//! other cycle member proceeds.
//!
//! # Fair FIFO waiter queues
//!
//! Grants are *fair*: each resource keeps a FIFO queue of blocked
//! requests, and a new request — even a non-blocking `try_acquire` — is
//! refused while an earlier-queued request it conflicts with is still
//! waiting. Without the queue, a table-exclusive escalation could starve
//! forever behind an endless stream of mutually-compatible
//! intent-exclusive holders: each IX would be granted against holders
//! only, keeping the table busy so the X never got in. With the queue,
//! the X's arrival cuts the line — later IX requesters queue up behind
//! it, the in-flight IX holders drain, and the X proceeds. One
//! exception: a transaction that already holds any lock on the resource
//! jumps the queue (lock *upgrades* such as IntentExclusive → Exclusive
//! must not wait behind a queued stranger, which would manufacture
//! deadlocks); genuine upgrade deadlocks are still caught by the
//! wait-for graph, because blocked requests list earlier incompatible
//! waiters among their blockers.
//!
//! # Example
//!
//! ```
//! use genie_storage::lockmgr::{LockManager, LockMode};
//! use genie_storage::Value;
//!
//! let mgr = LockManager::new();
//! // Txn 1 write-locks row 7 of `wall_posts`; txn 2 can still lock row 8.
//! mgr.acquire(1, "wall_posts", Some(&Value::Int(7)), LockMode::Exclusive)
//!     .unwrap();
//! mgr.acquire(2, "wall_posts", Some(&Value::Int(8)), LockMode::Exclusive)
//!     .unwrap();
//! assert!(mgr.try_acquire(2, "wall_posts", Some(&Value::Int(7)), LockMode::Exclusive).is_none());
//! mgr.release_all(1);
//! assert!(mgr.try_acquire(2, "wall_posts", Some(&Value::Int(7)), LockMode::Exclusive).is_some());
//! mgr.release_all(2);
//! ```

use crate::error::{Result, StorageError};
use crate::value::Value;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Transaction identifier; allocated monotonically by the engine, so
/// ordering doubles as transaction age (larger = younger).
pub type TxnId = u64;

/// Number of independently-latched lock-table shards. Resources hash to
/// a shard by table name and pk, so unrelated hot rows do not contend on
/// one mutex.
const SHARDS: usize = 16;

/// Backstop poll interval while blocked: cross-shard victim
/// notifications are best-effort, so waiters re-check their state at
/// this cadence even without a wakeup.
const WAIT_TICK: Duration = Duration::from_millis(2);

/// Requested lock strength. Row-level requests (`pk = Some(..)`) only
/// ever use [`LockMode::Exclusive`]; table-level requests use both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockMode {
    /// Intent-exclusive: the holder writes individual rows (which it
    /// row-locks); compatible with other intent writers, conflicts with
    /// whole-table exclusive use.
    IntentExclusive,
    /// Exclusive: sole access (non-pk-targeted write statements).
    Exclusive,
}

impl LockMode {
    /// Compatibility matrix (`self` held vs `other` requested): intent
    /// writers share a table; everything else conflicts.
    fn compatible(self, other: LockMode) -> bool {
        self == LockMode::IntentExclusive && other == LockMode::IntentExclusive
    }
}

/// One lockable resource: a whole table (`pk == None`) or one row.
type Target = (String, Option<Value>);

#[derive(Default)]
struct Shard {
    /// Resource -> current holders. A transaction may hold several modes
    /// on one resource (e.g. `IntentExclusive` from a pk-targeted write
    /// plus `Exclusive` from a later whole-table write) — each is kept.
    holders: BTreeMap<Target, Vec<(TxnId, LockMode)>>,
    /// Resource -> blocked requests in arrival order (the fairness
    /// queue). Entries carry a globally increasing sequence number; a
    /// request conflicts with every earlier-queued incompatible entry,
    /// so a stream of compatible holders cannot starve a queued
    /// escalation.
    waiters: BTreeMap<Target, Vec<(u64, TxnId, LockMode)>>,
}

impl Shard {
    /// True when `tid` holds any mode on `target` (upgrade requests jump
    /// the fairness queue).
    fn holds_any(&self, target: &Target, tid: TxnId) -> bool {
        self.holders
            .get(target)
            .is_some_and(|hs| hs.iter().any(|(t, _)| *t == tid))
    }

    /// Other transactions queued before `before_seq` (or at all, when
    /// `None`) whose requested mode conflicts with `mode`.
    fn queued_blockers(
        &self,
        target: &Target,
        tid: TxnId,
        mode: LockMode,
        before_seq: Option<u64>,
    ) -> Vec<TxnId> {
        let mut out = Vec::new();
        if let Some(q) = self.waiters.get(target) {
            for (seq, t, m) in q {
                if before_seq.is_some_and(|s| *seq >= s) {
                    break; // queue is in seq order
                }
                if *t != tid && !m.compatible(mode) && !out.contains(t) {
                    out.push(*t);
                }
            }
        }
        out
    }

    fn dequeue(&mut self, target: &Target, seq: u64) {
        if let Some(q) = self.waiters.get_mut(target) {
            q.retain(|(s, _, _)| *s != seq);
            if q.is_empty() {
                self.waiters.remove(target);
            }
        }
    }
}

#[derive(Default)]
struct WaitGraph {
    /// waiter -> the holders it is blocked on (rebuilt every wait round).
    edges: HashMap<TxnId, BTreeSet<TxnId>>,
    /// Transactions chosen as deadlock victims; their pending
    /// acquisition fails on the next wakeup.
    victims: HashSet<TxnId>,
}

impl WaitGraph {
    /// True if `from` can reach `to` over waits-for edges.
    fn reaches(&self, from: TxnId, to: TxnId) -> bool {
        let mut stack = vec![from];
        let mut seen = HashSet::new();
        while let Some(t) = stack.pop() {
            if t == to {
                return true;
            }
            if !seen.insert(t) {
                continue;
            }
            if let Some(next) = self.edges.get(&t) {
                stack.extend(next.iter().copied());
            }
        }
        false
    }

    /// Collects the members of the cycle through `start` (assuming
    /// `reaches(h, start)` held for some already-inserted edge).
    fn cycle_members(&self, start: TxnId) -> Vec<TxnId> {
        // Every node on a path start -> ... -> start is a member; gather
        // nodes reachable from start that can reach start back.
        let mut reachable = HashSet::new();
        let mut stack = vec![start];
        while let Some(t) = stack.pop() {
            if !reachable.insert(t) {
                continue;
            }
            if let Some(next) = self.edges.get(&t) {
                stack.extend(next.iter().copied());
            }
        }
        reachable
            .into_iter()
            .filter(|&t| self.reaches(t, start))
            .collect()
    }
}

/// Point-in-time lock-manager counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockStats {
    /// Acquisitions granted without blocking.
    pub immediate_grants: u64,
    /// Acquisitions that blocked at least once before being granted.
    pub waits: u64,
    /// Deadlock victims aborted.
    pub deadlocks: u64,
}

/// Point-in-time *latch* counters — the physical-structure layer below
/// the logical locks above. The engine's latch hierarchy is a catalog
/// read-write latch over per-table read-write latches (see
/// `docs/ARCHITECTURE.md`); a "wait" here means an acquisition found the
/// latch held in a conflicting mode and had to block. Statements on
/// disjoint tables never conflict on table latches, which the
/// `concurrency_audit` disjoint-mix gate asserts as zero
/// `table_read_waits + table_write_waits`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatchStats {
    /// Catalog read-latch acquisitions that blocked (behind DDL, vacuum,
    /// or an escalated trigger-firing commit).
    pub catalog_read_waits: u64,
    /// Catalog write-latch acquisitions that blocked (DDL / vacuum /
    /// escalated commits waiting for statements to drain).
    pub catalog_write_waits: u64,
    /// Per-table read-latch acquisitions that blocked behind a writer.
    pub table_read_waits: u64,
    /// Per-table write-latch acquisitions that blocked.
    pub table_write_waits: u64,
}

impl LatchStats {
    /// Total blocked latch acquisitions across both levels.
    pub fn total_waits(&self) -> u64 {
        self.catalog_read_waits
            + self.catalog_write_waits
            + self.table_read_waits
            + self.table_write_waits
    }

    /// Blocked per-table latch acquisitions only — the disjoint-table
    /// scaling gate (catalog-level waits from vacuum or DDL are counted
    /// separately and do not indicate cross-table interference).
    pub fn table_waits(&self) -> u64 {
        self.table_read_waits + self.table_write_waits
    }
}

/// Live atomic counters behind [`LatchStats`]. Independent atomics so
/// the uncontended latch fast path (a single `try_read`/`try_write`)
/// never funnels through a statistics mutex.
#[derive(Debug, Default)]
pub struct LatchCounters {
    catalog_read_waits: AtomicU64,
    catalog_write_waits: AtomicU64,
    table_read_waits: AtomicU64,
    table_write_waits: AtomicU64,
}

impl LatchCounters {
    /// Records one blocked catalog read-latch acquisition.
    pub fn note_catalog_read_wait(&self) {
        self.catalog_read_waits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one blocked catalog write-latch acquisition.
    pub fn note_catalog_write_wait(&self) {
        self.catalog_write_waits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one blocked table read-latch acquisition.
    pub fn note_table_read_wait(&self) {
        self.table_read_waits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one blocked table write-latch acquisition.
    pub fn note_table_write_wait(&self) {
        self.table_write_waits.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the counters.
    pub fn snapshot(&self) -> LatchStats {
        LatchStats {
            catalog_read_waits: self.catalog_read_waits.load(Ordering::Relaxed),
            catalog_write_waits: self.catalog_write_waits.load(Ordering::Relaxed),
            table_read_waits: self.table_read_waits.load(Ordering::Relaxed),
            table_write_waits: self.table_write_waits.load(Ordering::Relaxed),
        }
    }

    /// Zeroes all counters (between warm-up and measurement).
    pub fn reset(&self) {
        self.catalog_read_waits.store(0, Ordering::Relaxed);
        self.catalog_write_waits.store(0, Ordering::Relaxed);
        self.table_read_waits.store(0, Ordering::Relaxed);
        self.table_write_waits.store(0, Ordering::Relaxed);
    }
}

/// The engine-wide lock manager. One instance per [`crate::Database`];
/// see the module docs for the protocol. Counters are independent
/// atomics so the grant fast path never funnels all shards through one
/// statistics mutex.
pub struct LockManager {
    shards: Vec<(Mutex<Shard>, Condvar)>,
    graph: Mutex<WaitGraph>,
    /// Arrival order for the per-resource fairness queues.
    next_seq: AtomicU64,
    immediate_grants: AtomicU64,
    waits: AtomicU64,
    deadlocks: AtomicU64,
}

impl Default for LockManager {
    fn default() -> Self {
        LockManager::new()
    }
}

impl std::fmt::Debug for LockManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockManager")
            .field("shards", &self.shards.len())
            .finish()
    }
}

/// Folds a resource into its shard index. `Value` carries floats, so it
/// cannot derive `Hash`; fold the discriminating bits manually.
fn shard_of(table: &str, pk: Option<&Value>) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |b: u64| {
        h ^= b;
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    for b in table.bytes() {
        mix(u64::from(b));
    }
    match pk {
        None => mix(0),
        Some(Value::Null) => mix(1),
        Some(Value::Int(i)) => mix(*i as u64 ^ 2),
        Some(Value::Float(f)) => mix(f.to_bits() ^ 3),
        Some(Value::Bool(b)) => mix(u64::from(*b) ^ 4),
        Some(Value::Timestamp(t)) => mix(*t as u64 ^ 5),
        Some(Value::Text(s)) => {
            for b in s.bytes() {
                mix(u64::from(b) ^ 6);
            }
        }
    }
    (h as usize) % SHARDS
}

impl LockManager {
    /// Creates an empty lock manager.
    pub fn new() -> Self {
        LockManager {
            shards: (0..SHARDS).map(|_| Default::default()).collect(),
            graph: Mutex::new(WaitGraph::default()),
            next_seq: AtomicU64::new(0),
            immediate_grants: AtomicU64::new(0),
            waits: AtomicU64::new(0),
            deadlocks: AtomicU64::new(0),
        }
    }

    /// Non-blocking acquisition: `Some(())` if granted immediately,
    /// `None` on conflict (nothing is recorded in the wait graph).
    /// Respects the fairness queue: a request that conflicts with an
    /// already-queued waiter is refused even when the current holders
    /// would admit it, so the fast path cannot starve a queued
    /// escalation. Upgrades (the transaction already holds a mode on
    /// the resource) check holders only.
    pub fn try_acquire(
        &self,
        tid: TxnId,
        table: &str,
        pk: Option<&Value>,
        mode: LockMode,
    ) -> Option<()> {
        let (shard, _) = &self.shards[shard_of(table, pk)];
        let mut s = shard.lock().unwrap();
        let target: Target = (table.to_owned(), pk.cloned());
        let fair =
            s.holds_any(&target, tid) || s.queued_blockers(&target, tid, mode, None).is_empty();
        if fair && Self::conflicts(&s, &target, tid, mode).is_empty() {
            Self::grant(&mut s, target, tid, mode);
            self.immediate_grants.fetch_add(1, Ordering::Relaxed);
            Some(())
        } else {
            None
        }
    }

    /// Blocking acquisition under deadlock detection and FIFO fairness:
    /// the first refusal enqueues the request on the resource's waiter
    /// queue, later conflicting requests wait behind it, and it is
    /// granted once neither the holders nor any *earlier-queued* waiter
    /// conflicts.
    ///
    /// # Errors
    ///
    /// [`StorageError::Deadlock`] when this transaction is chosen as the
    /// victim of a waits-for cycle. The caller must roll the transaction
    /// back (which releases its locks and unblocks the cycle).
    pub fn acquire(
        &self,
        tid: TxnId,
        table: &str,
        pk: Option<&Value>,
        mode: LockMode,
    ) -> Result<()> {
        let (shard, cv) = &self.shards[shard_of(table, pk)];
        let target: Target = (table.to_owned(), pk.cloned());
        let mut s = shard.lock().unwrap();
        let mut waited = false;
        // Sequence number of this request's queue entry, once blocked.
        let mut my_seq: Option<u64> = None;
        loop {
            let mut blockers = Self::conflicts(&s, &target, tid, mode);
            // Upgrades jump the queue (waiting behind a stranger while
            // holding a lock the stranger needs would manufacture
            // deadlocks); everything else also waits for earlier queued
            // incompatible requests.
            if !s.holds_any(&target, tid) {
                for t in s.queued_blockers(&target, tid, mode, my_seq) {
                    if !blockers.contains(&t) {
                        blockers.push(t);
                    }
                }
            }
            if blockers.is_empty() {
                if let Some(seq) = my_seq {
                    s.dequeue(&target, seq);
                }
                Self::grant(&mut s, target, tid, mode);
                let mut g = self.graph.lock().unwrap();
                g.edges.remove(&tid);
                // A victim mark that raced with the grant is void: the
                // cycle resolved without this transaction aborting.
                g.victims.remove(&tid);
                drop(g);
                drop(s);
                if waited {
                    self.waits.fetch_add(1, Ordering::Relaxed);
                    // Our queue entry may have been the only thing
                    // refusing requests that are compatible with the
                    // holders; let them re-check.
                    cv.notify_all();
                } else {
                    self.immediate_grants.fetch_add(1, Ordering::Relaxed);
                }
                return Ok(());
            }
            waited = true;
            if my_seq.is_none() && !s.holds_any(&target, tid) {
                let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
                s.waiters
                    .entry(target.clone())
                    .or_default()
                    .push((seq, tid, mode));
                my_seq = Some(seq);
            }
            // Record who we wait for and look for a cycle through us.
            {
                let mut g = self.graph.lock().unwrap();
                if g.victims.remove(&tid) {
                    g.edges.remove(&tid);
                    if let Some(seq) = my_seq {
                        s.dequeue(&target, seq);
                    }
                    drop(s);
                    self.deadlocks.fetch_add(1, Ordering::Relaxed);
                    // Our departure may unblock queued requests.
                    cv.notify_all();
                    return Err(StorageError::Deadlock {
                        table: table.to_owned(),
                    });
                }
                g.edges.insert(tid, blockers.iter().copied().collect());
                if blockers.iter().any(|&b| g.reaches(b, tid)) {
                    let victim = g
                        .cycle_members(tid)
                        .into_iter()
                        .max()
                        .expect("cycle is non-empty");
                    if victim == tid {
                        g.edges.remove(&tid);
                        if let Some(seq) = my_seq {
                            s.dequeue(&target, seq);
                        }
                        drop(s);
                        self.deadlocks.fetch_add(1, Ordering::Relaxed);
                        cv.notify_all();
                        return Err(StorageError::Deadlock {
                            table: table.to_owned(),
                        });
                    }
                    g.victims.insert(victim);
                    drop(g);
                    // The victim may be parked on any shard; poke all.
                    self.notify_all_shards();
                }
            }
            // Park until a release (or the poll backstop) and re-check.
            let (guard, _) = cv.wait_timeout(s, WAIT_TICK).unwrap();
            s = guard;
        }
    }

    /// Releases exactly the given resources for `tid`, notifying only
    /// the affected shards — the cheap path for statement-duration
    /// (autocommit) locks, whose exact set the engine knows. The
    /// wait-graph needs no cleanup: a transaction releasing was granted,
    /// which already removed its edges.
    pub fn release_resources<'a>(
        &self,
        tid: TxnId,
        targets: impl IntoIterator<Item = (&'a str, Option<&'a Value>)>,
    ) {
        let mut touched: BTreeSet<usize> = BTreeSet::new();
        for (table, pk) in targets {
            let idx = shard_of(table, pk);
            let target: Target = (table.to_owned(), pk.cloned());
            let mut s = self.shards[idx].0.lock().unwrap();
            if let Some(hs) = s.holders.get_mut(&target) {
                hs.retain(|(t, _)| *t != tid);
                if hs.is_empty() {
                    s.holders.remove(&target);
                }
            }
            touched.insert(idx);
        }
        for idx in touched {
            self.shards[idx].1.notify_all();
        }
    }

    /// Clears any wait-graph residue for `tid` (stale edges or a victim
    /// mark that raced a grant). O(1); pairs with
    /// [`LockManager::release_resources`] for transactions whose exact
    /// lock set the caller tracked.
    pub fn clear_waiter(&self, tid: TxnId) {
        let mut g = self.graph.lock().unwrap();
        g.edges.remove(&tid);
        g.victims.remove(&tid);
    }

    /// Releases every lock `tid` holds and clears its wait-graph state
    /// (the 2PL shrinking phase — called once, at commit or rollback).
    pub fn release_all(&self, tid: TxnId) {
        for (shard, _) in &self.shards {
            let mut s = shard.lock().unwrap();
            s.holders.retain(|_, hs| {
                hs.retain(|(t, _)| *t != tid);
                !hs.is_empty()
            });
        }
        let mut g = self.graph.lock().unwrap();
        g.edges.remove(&tid);
        g.victims.remove(&tid);
        drop(g);
        self.notify_all_shards();
    }

    /// Counters since construction (or the last [`LockManager::reset_stats`]).
    pub fn stats(&self) -> LockStats {
        LockStats {
            immediate_grants: self.immediate_grants.load(Ordering::Relaxed),
            waits: self.waits.load(Ordering::Relaxed),
            deadlocks: self.deadlocks.load(Ordering::Relaxed),
        }
    }

    /// Zeroes the counters.
    pub fn reset_stats(&self) {
        self.immediate_grants.store(0, Ordering::Relaxed);
        self.waits.store(0, Ordering::Relaxed);
        self.deadlocks.store(0, Ordering::Relaxed);
    }

    /// Number of resources currently locked (diagnostics).
    pub fn locked_resources(&self) -> usize {
        self.shards
            .iter()
            .map(|(s, _)| s.lock().unwrap().holders.len())
            .sum()
    }

    fn notify_all_shards(&self) {
        for (_, cv) in &self.shards {
            cv.notify_all();
        }
    }

    /// Other transactions holding `target` in a mode incompatible with
    /// `(tid, mode)`. A transaction never conflicts with itself, so lock
    /// upgrades (IntentExclusive -> Exclusive on one table) only wait for
    /// *other* holders.
    fn conflicts(s: &Shard, target: &Target, tid: TxnId, mode: LockMode) -> Vec<TxnId> {
        let mut out = Vec::new();
        if let Some(hs) = s.holders.get(target) {
            for (t, m) in hs {
                if *t != tid && !m.compatible(mode) && !out.contains(t) {
                    out.push(*t);
                }
            }
        }
        out
    }

    fn grant(s: &mut Shard, target: Target, tid: TxnId, mode: LockMode) {
        let hs = s.holders.entry(target).or_default();
        if !hs.iter().any(|(t, m)| *t == tid && *m == mode) {
            hs.push((tid, mode));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn row_locks_on_distinct_rows_do_not_conflict() {
        let m = LockManager::new();
        m.acquire(1, "t", Some(&Value::Int(1)), LockMode::Exclusive)
            .unwrap();
        m.acquire(2, "t", Some(&Value::Int(2)), LockMode::Exclusive)
            .unwrap();
        assert!(m
            .try_acquire(2, "t", Some(&Value::Int(1)), LockMode::Exclusive)
            .is_none());
        m.release_all(1);
        m.release_all(2);
        assert_eq!(m.locked_resources(), 0);
    }

    /// A table-exclusive request — a write that scans the table — waits
    /// for every intent writer to leave.
    #[test]
    fn intent_writers_share_a_table_but_scans_exclude_them() {
        let m = LockManager::new();
        m.acquire(1, "t", None, LockMode::IntentExclusive).unwrap();
        m.acquire(2, "t", None, LockMode::IntentExclusive).unwrap();
        assert!(m.try_acquire(3, "t", None, LockMode::Exclusive).is_none());
        m.release_all(1);
        assert!(m.try_acquire(3, "t", None, LockMode::Exclusive).is_none());
        m.release_all(2);
        assert!(m.try_acquire(3, "t", None, LockMode::Exclusive).is_some());
        m.release_all(3);
    }

    #[test]
    fn intent_writers_coexist() {
        let m = LockManager::new();
        m.acquire(1, "t", None, LockMode::IntentExclusive).unwrap();
        m.acquire(2, "t", None, LockMode::IntentExclusive).unwrap();
        assert!(m.try_acquire(3, "t", None, LockMode::Exclusive).is_none());
        m.release_all(1);
        m.release_all(2);
        m.release_all(3);
    }

    #[test]
    fn upgrade_does_not_self_conflict() {
        let m = LockManager::new();
        m.acquire(1, "t", None, LockMode::IntentExclusive).unwrap();
        // Same txn escalates to exclusive: no self-deadlock.
        m.acquire(1, "t", None, LockMode::Exclusive).unwrap();
        m.release_all(1);
    }

    #[test]
    fn blocking_acquire_wakes_on_release() {
        let m = Arc::new(LockManager::new());
        m.acquire(1, "t", Some(&Value::Int(7)), LockMode::Exclusive)
            .unwrap();
        let m2 = Arc::clone(&m);
        let h = std::thread::spawn(move || {
            m2.acquire(2, "t", Some(&Value::Int(7)), LockMode::Exclusive)
                .unwrap();
            m2.release_all(2);
        });
        std::thread::sleep(Duration::from_millis(5));
        m.release_all(1);
        h.join().unwrap();
        assert!(m.stats().waits >= 1);
    }

    #[test]
    fn deadlock_aborts_exactly_the_youngest_victim() {
        let m = Arc::new(LockManager::new());
        m.acquire(1, "t", Some(&Value::Int(1)), LockMode::Exclusive)
            .unwrap();
        m.acquire(2, "t", Some(&Value::Int(2)), LockMode::Exclusive)
            .unwrap();
        // Txn 2 (younger) wants row 1 — blocks behind txn 1.
        let m2 = Arc::clone(&m);
        let h = std::thread::spawn(move || {
            let r = m2.acquire(2, "t", Some(&Value::Int(1)), LockMode::Exclusive);
            if r.is_err() {
                m2.release_all(2);
            }
            r
        });
        std::thread::sleep(Duration::from_millis(5));
        // Txn 1 now wants row 2 — closes the cycle. Youngest (2) dies.
        let r1 = m.acquire(1, "t", Some(&Value::Int(2)), LockMode::Exclusive);
        let r2 = h.join().unwrap();
        assert!(r1.is_ok(), "older txn survives: {r1:?}");
        assert!(
            matches!(r2, Err(StorageError::Deadlock { .. })),
            "younger txn is the victim: {r2:?}"
        );
        m.release_all(1);
        assert_eq!(m.stats().deadlocks, 1);
        assert_eq!(m.locked_resources(), 0);
    }

    #[test]
    fn queued_escalation_cannot_be_starved_by_compatible_stream() {
        // Txn 1 holds IX. Txn 2 requests table-X and blocks (queued).
        // Without the fairness queue, txn 3's IX — compatible with txn
        // 1's IX — would be granted immediately, and an endless stream
        // of such IX holders would starve the X forever. With the
        // queue, txn 3 is refused while the X waits.
        let m = Arc::new(LockManager::new());
        m.acquire(1, "t", None, LockMode::IntentExclusive).unwrap();
        let m2 = Arc::clone(&m);
        let h = std::thread::spawn(move || {
            m2.acquire(2, "t", None, LockMode::Exclusive).unwrap();
            m2.release_all(2);
        });
        // Wait until the X request is queued.
        for _ in 0..1000 {
            let queued = m.shards.iter().any(|(s, _)| {
                s.lock()
                    .unwrap()
                    .waiters
                    .values()
                    .any(|q| q.iter().any(|(_, t, _)| *t == 2))
            });
            if queued {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        // The fast path must now refuse a compatible IX: it would jump
        // the queued X.
        assert!(
            m.try_acquire(3, "t", None, LockMode::IntentExclusive)
                .is_none(),
            "IX must queue behind the waiting X, not starve it"
        );
        // Upgrades by an existing holder still jump the queue.
        assert!(m
            .try_acquire(1, "t", None, LockMode::IntentExclusive)
            .is_some());
        m.release_all(1);
        h.join().unwrap();
        // Once the X drained, the IX stream proceeds again.
        assert!(m
            .try_acquire(3, "t", None, LockMode::IntentExclusive)
            .is_some());
        m.release_all(3);
        assert_eq!(m.locked_resources(), 0);
    }

    #[test]
    fn blocking_requests_are_granted_fifo() {
        // Holder IX; queue X (txn 2) then IX (txn 3). The later IX is
        // compatible with the holder but not with the queued X, so it
        // must not overtake it: txn 3 finishes only after txn 2 got (and
        // released) the lock.
        let m = Arc::new(LockManager::new());
        m.acquire(1, "t", None, LockMode::IntentExclusive).unwrap();
        let m2 = Arc::clone(&m);
        let x_order = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let xo2 = Arc::clone(&x_order);
        let h2 = std::thread::spawn(move || {
            m2.acquire(2, "t", None, LockMode::Exclusive).unwrap();
            xo2.store(2, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(5));
            m2.release_all(2);
        });
        // Ensure txn 2 is queued before txn 3 arrives.
        for _ in 0..1000 {
            let queued = m.shards.iter().any(|(s, _)| {
                s.lock()
                    .unwrap()
                    .waiters
                    .values()
                    .any(|q| q.iter().any(|(_, t, _)| *t == 2))
            });
            if queued {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let m3 = Arc::clone(&m);
        let xo3 = Arc::clone(&x_order);
        let h3 = std::thread::spawn(move || {
            m3.acquire(3, "t", None, LockMode::IntentExclusive).unwrap();
            let first = xo3.load(Ordering::SeqCst);
            m3.release_all(3);
            first
        });
        std::thread::sleep(Duration::from_millis(5));
        m.release_all(1); // X's turn first, then the IX
        h2.join().unwrap();
        let seen_by_ix = h3.join().unwrap();
        assert_eq!(seen_by_ix, 2, "the queued X ran before the later IX");
        assert_eq!(m.locked_resources(), 0);
    }

    #[test]
    fn stats_reset() {
        let m = LockManager::new();
        m.acquire(1, "t", None, LockMode::IntentExclusive).unwrap();
        assert_eq!(m.stats().immediate_grants, 1);
        m.reset_stats();
        assert_eq!(m.stats(), LockStats::default());
        m.release_all(1);
    }
}
