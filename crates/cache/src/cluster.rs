//! A cluster of cache servers behind consistent hashing.
//!
//! The paper stresses that CacheGenie maintains "a single logical cache
//! across many cache servers" (vs. SI-cache's per-app-server caches), with
//! clients and database triggers all addressing the same key space. This
//! module provides that: keys are placed on servers via a consistent-hash
//! ring with virtual nodes, and every handle — application or trigger —
//! sees the same data.

use crate::codec::{hash_key, Payload};
use crate::delta::{fold, Applied, Delta};
use crate::error::Result;
use crate::shard::{split_capacity, ShardedStore};
use crate::store::{CacheOrigin, CacheStore, StoreStats, ValueWithCas};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Virtual nodes per server on the consistent-hash ring.
const VNODES: usize = 64;

/// Cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of cache servers.
    pub servers: usize,
    /// Total memory budget in bytes, split across servers with the
    /// remainder distributed over the first servers so no byte is lost
    /// (the paper's Experiment 4 sweeps this from 64 MB to 512 MB).
    pub capacity_bytes: usize,
    /// Whether trigger-originated reads refresh LRU recency. Unmodified
    /// memcached bumps on every touch (`true`); §4 of the paper proposes a
    /// modified policy (`false`) which we expose for the ablation bench.
    pub bump_lru_on_trigger: bool,
    /// Lock stripes per server (rounded up to a power of two). With 1,
    /// a server is a single store behind one mutex.
    pub shards_per_server: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            servers: 1,
            capacity_bytes: 512 * 1024 * 1024,
            bump_lru_on_trigger: true,
            shards_per_server: 8,
        }
    }
}

/// Aggregated statistics across all servers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Summed per-server counters.
    pub store: StoreStats,
    /// Total bytes used across servers.
    pub bytes_used: usize,
    /// Total live items.
    pub items: usize,
    /// Servers currently marked dead.
    pub dead_nodes: usize,
}

/// Per-server statistics (for the per-node exp3 report).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Server index.
    pub index: usize,
    /// Whether the node is alive.
    pub alive: bool,
    /// The node's store counters (all shards summed).
    pub store: StoreStats,
    /// Bytes accounted on the node.
    pub bytes_used: usize,
    /// Live items on the node.
    pub items: usize,
}

impl ClusterStats {
    /// Hit ratio of get operations, or 1.0 with no traffic.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.store.hits + self.store.misses;
        if total == 0 {
            1.0
        } else {
            self.store.hits as f64 / total as f64
        }
    }
}

/// One cache server: a lock-striped store plus liveness.
struct ServerNode {
    store: ShardedStore,
    alive: AtomicBool,
}

struct ClusterInner {
    servers: Vec<ServerNode>,
    /// (ring position, server index), sorted by position.
    ring: Vec<(u64, usize)>,
    /// Logical "now" for TTL expiry; the benchmark driver advances this
    /// with simulated time. Zero means "no clock" (entries never expire
    /// unless a TTL of 0 is used).
    now: AtomicU64,
    bump_on_trigger: bool,
    /// The open effect batch, if any: the deltas trigger bodies record
    /// during one commit's firing ([`CacheCluster::record`]). Firing
    /// commits hold the engine's exclusive catalog latch, so one slot
    /// serves them all; [`CacheCluster::take_effect_batch`] hands the
    /// sealed batch out so its publication can overlap the next commit.
    batch: Mutex<Option<EffectBatch>>,
    /// Per-key fill leases and fences, sharded by key hash so fills on
    /// distinct keys never serialize on one mutex (see [`LeaseTable`]).
    leases: Vec<Mutex<LeaseTable>>,
    /// Global lease-token mint: tokens are unique and monotonic across
    /// every lease shard, so a token minted for one key can never
    /// validate a fill routed through another shard.
    next_lease: AtomicU64,
}

/// Number of lease-table shards (keys hash to one; ordering arguments
/// are per-key, so per-shard mutual exclusion suffices).
const LEASE_SHARDS: usize = 16;

/// One lease shard's keys. A read-through fill needs the key's lease
/// still outstanding and the key unfenced: any mutation revokes the
/// lease, and a batch that names a key fences it until the batch's
/// deltas on it are applied (or the batch is dropped), so a fill
/// computed from pre-commit database state can never land.
#[derive(Debug, Default)]
struct LeaseTable {
    /// key -> outstanding fill-lease token.
    outstanding: HashMap<String, u64>,
    /// key -> batches that named it and have not applied or dropped its
    /// deltas yet. A count: a later commit may name a key before an
    /// earlier one publishes.
    pending: HashMap<String, u32>,
}

/// The deltas one commit recorded: each named key with its deltas in
/// record order, keys in first-naming order.
#[derive(Debug, Default)]
struct EffectBatch {
    keys: Vec<(String, Vec<Delta>)>,
    /// key -> position in `keys`.
    index: HashMap<String, usize>,
    deltas: u64,
}

impl EffectBatch {
    /// The delta list of `key`, naming (and so fencing) the key the
    /// first time the batch meets it.
    fn named(&mut self, inner: &ClusterInner, key: &str) -> &mut Vec<Delta> {
        let at = match self.index.get(key) {
            Some(&at) => at,
            None => {
                inner.fence(key);
                self.index.insert(key.to_owned(), self.keys.len());
                self.keys.push((key.to_owned(), Vec::new()));
                self.keys.len() - 1
            }
        };
        &mut self.keys[at].1
    }

    fn record(&mut self, inner: &ClusterInner, key: &str, delta: Delta) {
        self.named(inner, key).push(delta);
        self.deltas += 1;
    }

    fn seal(self, inner: &Arc<ClusterInner>) -> PreparedEffectBatch {
        PreparedEffectBatch {
            inner: Arc::clone(inner),
            keys: self.keys,
            deltas: self.deltas,
        }
    }
}

/// What publishing (or discarding) an effect batch amounted to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EffectBatchSummary {
    /// Keys with deltas to apply — one node-side read-modify-write each.
    pub keys_flushed: u64,
    /// Deltas recorded (what a client applying them one by one sends).
    pub deltas: u64,
    /// How the deltas turned out; zero until the batch is published.
    pub applied: Applied,
}

impl EffectBatchSummary {
    /// Physical cache operations the batch performs.
    pub fn physical_ops(&self) -> u64 {
        self.keys_flushed
    }

    /// What the same effects would have cost applied one by one.
    pub fn naive_ops(&self) -> u64 {
        self.deltas
    }
}

/// A shared cache cluster handleable from any thread.
///
/// # Example
///
/// ```
/// use genie_cache::{CacheCluster, ClusterConfig, CacheOrigin, Payload};
///
/// # fn main() -> Result<(), genie_cache::CacheError> {
/// let cluster = CacheCluster::new(ClusterConfig { servers: 3, ..Default::default() });
/// let cache = cluster.handle(CacheOrigin::Application);
/// cache.set_payload("profile:42", &Payload::Count(7), None)?;
/// assert_eq!(cache.get_payload("profile:42")?.unwrap().as_count(), Some(7));
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct CacheCluster {
    inner: Arc<ClusterInner>,
}

impl std::fmt::Debug for CacheCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheCluster")
            .field("servers", &self.inner.servers.len())
            .finish()
    }
}

impl CacheCluster {
    /// Builds a cluster per `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.servers` is zero — a cluster with no placement
    /// targets cannot exist.
    pub fn new(config: ClusterConfig) -> Self {
        assert!(config.servers > 0, "cluster needs at least one server");
        // Remainder-preserving split: per-server budgets sum to exactly
        // the configured total.
        let caps = split_capacity(config.capacity_bytes, config.servers);
        let servers: Vec<ServerNode> = caps
            .into_iter()
            .map(|cap| ServerNode {
                store: ShardedStore::new(cap, config.shards_per_server),
                alive: AtomicBool::new(true),
            })
            .collect();
        let mut ring = Vec::with_capacity(config.servers * VNODES);
        for s in 0..config.servers {
            for v in 0..VNODES {
                ring.push((hash_key(&format!("server{s}#vnode{v}")), s));
            }
        }
        ring.sort_unstable();
        CacheCluster {
            inner: Arc::new(ClusterInner {
                servers,
                ring,
                now: AtomicU64::new(0),
                bump_on_trigger: config.bump_lru_on_trigger,
                batch: Mutex::new(None),
                leases: (0..LEASE_SHARDS)
                    .map(|_| Mutex::new(LeaseTable::default()))
                    .collect(),
                next_lease: AtomicU64::new(0),
            }),
        }
    }

    /// A handle for issuing operations as `origin`.
    pub fn handle(&self, origin: CacheOrigin) -> CacheHandle {
        let bump = match origin {
            CacheOrigin::Application => true,
            CacheOrigin::Trigger => self.inner.bump_on_trigger,
        };
        CacheHandle {
            inner: Arc::clone(&self.inner),
            bump,
            origin,
        }
    }

    /// Opens an effect batch: until the matching
    /// [`CacheCluster::take_effect_batch`] or
    /// [`CacheCluster::discard_effect_batch`], [`CacheCluster::record`]
    /// collects deltas instead of applying them. Replaces (and drops)
    /// any batch left open; callers bracket it under the engine's
    /// commit latch, so nesting cannot arise.
    pub fn begin_effect_batch(&self) {
        let left = self.inner.batch.lock().replace(EffectBatch::default());
        drop(left.map(|b| b.seal(&self.inner)));
    }

    /// Keys the open batch names, in first-naming order (the
    /// strict-consistency extension write-locks these before the flush).
    pub fn effect_batch_keys(&self) -> Vec<String> {
        self.inner
            .batch
            .lock()
            .as_ref()
            .map(|b| b.keys.iter().map(|(k, _)| k.clone()).collect())
            .unwrap_or_default()
    }

    /// Records `delta` on `key` in the open batch, naming the key on
    /// first touch: naming revokes the key's outstanding fill lease and
    /// fences it, so no fill lands until the batch's deltas on it are
    /// applied or dropped. Without an open batch the delta applies at
    /// once.
    pub fn record(&self, key: &str, delta: Delta) {
        let mut slot = self.inner.batch.lock();
        match slot.as_mut() {
            Some(batch) => batch.record(&self.inner, key, delta),
            None => {
                drop(slot);
                let mut one = EffectBatch::default();
                one.record(&self.inner, key, delta);
                one.seal(&self.inner).publish();
            }
        }
    }

    /// True if `key` currently holds a live entry. With a batch open the
    /// probe also names the key (see [`CacheCluster::record`]): a key
    /// found absent stays absent until the batch publishes, so a trigger
    /// may skip work for it.
    pub fn probe(&self, key: &str) -> bool {
        if let Some(batch) = self.inner.batch.lock().as_mut() {
            batch.named(&self.inner, key);
        }
        self.inner.with_store(key, |s, now| s.contains(key, now))
    }

    /// Applies the open batch immediately; a zero summary without one.
    /// Equivalent to [`CacheCluster::take_effect_batch`] +
    /// [`PreparedEffectBatch::publish`].
    pub fn commit_effect_batch(&self) -> EffectBatchSummary {
        match self.take_effect_batch() {
            Some(prepared) => prepared.publish(),
            None => EffectBatchSummary::default(),
        }
    }

    /// Seals and removes the open batch, handing it out: the commit
    /// pipeline takes it under the engine latch and publishes it after
    /// the latch is released, so publication never blocks the next
    /// transaction's trigger firing. Its keys stay fenced until then.
    pub fn take_effect_batch(&self) -> Option<PreparedEffectBatch> {
        let batch = self.inner.batch.lock().take()?;
        Some(batch.seal(&self.inner))
    }

    /// Drops the open batch without applying anything — the aborted
    /// transaction leaves the cache byte-identical — and lifts its
    /// fences. Returns what was discarded.
    pub fn discard_effect_batch(&self) -> EffectBatchSummary {
        match self.take_effect_batch() {
            Some(dropped) => dropped.summary(),
            None => EffectBatchSummary::default(),
        }
    }

    /// Issues a read-through fill lease for `key`: the caller is about to
    /// compute the key's value from the database and cache it with
    /// [`CacheHandle::fill`]. Any mutation of the key before the fill
    /// lands revokes the lease, so a fill computed from pre-mutation
    /// state can never overwrite fresher data (the classic stale-fill
    /// race under concurrent writers).
    pub fn lease(&self, key: &str) -> u64 {
        // Tokens come from one cluster-global monotonic counter, not a
        // per-shard one: they are unique across all lease shards, so a
        // token minted for a key in one shard can never accidentally
        // validate a fill for a key in another.
        let token = self.inner.next_lease.fetch_add(1, Ordering::Relaxed) + 1;
        self.inner
            .lease_shard(key)
            .lock()
            .outstanding
            .insert(key.to_owned(), token);
        token
    }

    /// Cancels a lease this caller took but can no longer complete (its
    /// database read failed) — only if `token` is still the outstanding
    /// one, so a newer reader's lease survives.
    pub fn cancel_lease(&self, key: &str, token: u64) {
        let mut leases = self.inner.lease_shard(key).lock();
        if leases.outstanding.get(key) == Some(&token) {
            leases.outstanding.remove(key);
        }
    }

    /// Outstanding (not yet revoked or consumed) fill leases.
    pub fn outstanding_leases(&self) -> usize {
        self.inner
            .leases
            .iter()
            .map(|s| s.lock().outstanding.len())
            .sum()
    }

    /// Advances the logical clock used for TTL expiry.
    pub fn set_now(&self, now: u64) {
        self.inner.now.store(now, Ordering::Relaxed);
    }

    /// Which server a key lands on (diagnostics and tests).
    pub fn server_for(&self, key: &str) -> usize {
        self.inner.server_for(key)
    }

    /// Number of servers.
    pub fn server_count(&self) -> usize {
        self.inner.servers.len()
    }

    /// Aggregated statistics.
    pub fn stats(&self) -> ClusterStats {
        let mut agg = ClusterStats::default();
        for node in &self.inner.servers {
            agg.store.merge(&node.store.stats());
            agg.bytes_used += node.store.bytes_used();
            agg.items += node.store.len();
            if !node.alive.load(Ordering::Relaxed) {
                agg.dead_nodes += 1;
            }
        }
        agg
    }

    /// Per-node statistics, in server-index order.
    pub fn per_server_stats(&self) -> Vec<ServerStats> {
        self.inner
            .servers
            .iter()
            .enumerate()
            .map(|(index, node)| ServerStats {
                index,
                alive: node.alive.load(Ordering::Relaxed),
                store: node.store.stats(),
                bytes_used: node.store.bytes_used(),
                items: node.store.len(),
            })
            .collect()
    }

    /// Zeroes all server counters (between warm-up and measurement).
    /// Keeps stored data.
    pub fn reset_stats(&self) {
        for node in &self.inner.servers {
            node.store.reset_stats();
        }
    }

    /// Empties every server.
    pub fn flush_all(&self) {
        for node in &self.inner.servers {
            node.store.flush_all();
        }
    }

    /// Total configured capacity across servers (sums to the exact
    /// [`ClusterConfig::capacity_bytes`] budget — no remainder lost).
    pub fn capacity_bytes(&self) -> usize {
        self.inner
            .servers
            .iter()
            .map(|n| n.store.capacity_bytes())
            .sum()
    }

    /// Marks a node dead: its memory is wiped (a real node crash loses
    /// RAM) and keys it owned rehash to ring successors as misses.
    /// Returns false if the node is already dead or is the last one
    /// alive.
    pub fn kill_node(&self, idx: usize) -> bool {
        let inner = &self.inner;
        if idx >= inner.servers.len() {
            return false;
        }
        let alive_elsewhere = inner
            .servers
            .iter()
            .enumerate()
            .any(|(i, n)| i != idx && n.alive.load(Ordering::Relaxed));
        if !alive_elsewhere {
            return false;
        }
        if !inner.servers[idx].alive.swap(false, Ordering::SeqCst) {
            return false;
        }
        inner.servers[idx].store.flush_all();
        true
    }

    /// Brings a dead node back: it rejoins the ring *cold* (its store is
    /// flushed — anything it held predates the failure), keys whose arc
    /// it owns rehash back to it as misses, and entries those keys left
    /// on interim successors are dropped so a later failover can never
    /// resurrect them stale. Returns false if the node was already alive.
    pub fn revive_node(&self, idx: usize) -> bool {
        let inner = &self.inner;
        if idx >= inner.servers.len() {
            return false;
        }
        if inner.servers[idx].alive.load(Ordering::Relaxed) {
            return false;
        }
        inner.servers[idx].store.flush_all();
        inner.servers[idx].alive.store(true, Ordering::SeqCst);
        inner.drop_rehashed_keys(idx);
        true
    }

    /// Whether a node is alive.
    pub fn is_alive(&self, idx: usize) -> bool {
        self.inner.alive(idx)
    }

    /// How many nodes are alive.
    pub fn alive_count(&self) -> usize {
        self.inner
            .servers
            .iter()
            .filter(|n| n.alive.load(Ordering::Relaxed))
            .count()
    }
}

/// A sealed effect batch removed from the cluster by
/// [`CacheCluster::take_effect_batch`], ready to publish. Its keys stay
/// fenced until published; dropping it unpublished (an aborted or
/// log-rejected commit) lifts the fences of every key it still holds.
pub struct PreparedEffectBatch {
    inner: Arc<ClusterInner>,
    /// Keys not yet applied, with their deltas, in first-naming order.
    keys: Vec<(String, Vec<Delta>)>,
    deltas: u64,
}

impl std::fmt::Debug for PreparedEffectBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedEffectBatch")
            .field("keys", &self.keys.len())
            .finish()
    }
}

impl PreparedEffectBatch {
    /// The keys this batch names, in first-naming order. The commit
    /// pipeline orders publication on these.
    pub fn keys(&self) -> Vec<String> {
        self.keys.iter().map(|(k, _)| k.clone()).collect()
    }

    /// True when the batch names no key (read-only or trigger-less
    /// commit).
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// What publishing will amount to, before the outcomes are known.
    pub fn summary(&self) -> EffectBatchSummary {
        EffectBatchSummary {
            keys_flushed: self.keys.iter().filter(|(_, d)| !d.is_empty()).count() as u64,
            deltas: self.deltas,
            applied: Applied::default(),
        }
    }

    /// Publishes: for each key, under its lease shard, reads the owner's
    /// copy once, folds the key's deltas over it in record order, writes
    /// it back once (or deletes the key), then lifts the key's fence.
    /// Callers publish batches touching one key in commit order, so each
    /// key's deltas land on the value its previous commit left.
    ///
    /// Ownership rule: keys a commit pipeline maintains belong to the
    /// pipeline — application code must reach them only through
    /// lease-checked fills ([`CacheHandle::fill`]); a plain application
    /// `set` between a commit and its publication would have the
    /// commit's deltas applied on top of it.
    pub fn publish(mut self) -> EffectBatchSummary {
        let mut summary = self.summary();
        // Back to front, so that a key leaves `keys` only as it is applied
        // and `Drop` lifts exactly the fences still held.
        self.keys.reverse();
        while let Some((key, deltas)) = self.keys.pop() {
            self.inner.apply(&key, deltas, &mut summary.applied);
        }
        summary
    }
}

impl Drop for PreparedEffectBatch {
    fn drop(&mut self) {
        for (key, _) in &self.keys {
            self.inner.lease_shard(key).lock().unfence(key);
        }
    }
}

impl LeaseTable {
    /// Lowers one batch's fence on `key` and revokes its fill lease: a
    /// lease taken while the key was fenced read the database before
    /// the batch's commit became visible.
    fn unfence(&mut self, key: &str) {
        self.outstanding.remove(key);
        if let Some(n) = self.pending.get_mut(key) {
            *n -= 1;
            if *n == 0 {
                self.pending.remove(key);
            }
        }
    }
}

impl ClusterInner {
    /// Names `key` for a batch: revokes its outstanding fill lease and
    /// raises its pending count, so [`CacheHandle::fill`] refuses it
    /// until the batch applies or drops its deltas.
    fn fence(&self, key: &str) {
        let mut shard = self.lease_shard(key).lock();
        shard.outstanding.remove(key);
        *shard.pending.entry(key.to_owned()).or_insert(0) += 1;
    }

    /// Applies one key's deltas where the value lives, atomically with
    /// respect to fills and other writers (all of them hold the key's
    /// lease shard): one untracked read of the owner's copy, the fold,
    /// one write or a delete, and the key's fence lifted. The rewritten
    /// value keeps the entry's remaining TTL.
    fn apply(&self, key: &str, deltas: Vec<Delta>, applied: &mut Applied) {
        let mut shard = self.lease_shard(key).lock();
        if !deltas.is_empty() {
            let current = self.with_store(key, |s, now| {
                s.read_for_update(key, now, self.bump_on_trigger)
            });
            let ttl = current.as_ref().and_then(|(_, ttl)| *ttl);
            match fold(current.map(|(data, _)| data), deltas, applied) {
                None => {}
                Some(Some(data)) => {
                    let fits = self
                        .with_store(key, |s, now| s.set(key, data, ttl, now))
                        .is_ok();
                    if !fits {
                        // Oversized: invalidate rather than leave staleness.
                        applied.invalidations += 1;
                        self.with_store(key, |s, _| s.delete(key));
                    }
                }
                Some(None) => {
                    self.with_store(key, |s, _| s.delete(key));
                }
            }
        }
        shard.unfence(key);
    }

    fn lease_shard(&self, key: &str) -> &Mutex<LeaseTable> {
        &self.leases[hash_key(key) as usize % LEASE_SHARDS]
    }

    fn now(&self) -> u64 {
        self.now.load(Ordering::Relaxed)
    }

    fn alive(&self, idx: usize) -> bool {
        self.servers[idx].alive.load(Ordering::Relaxed)
    }

    /// Index of the first ring position at or after `key`'s hash.
    fn ring_start(&self, key: &str) -> usize {
        let h = hash_key(key);
        match self.ring.binary_search_by(|(pos, _)| pos.cmp(&h)) {
            Ok(i) => i,
            Err(i) if i < self.ring.len() => i,
            Err(_) => 0,
        }
    }

    /// The alive server owning `key`'s arc: the ring successor, walking
    /// past dead nodes. With every node dead (prevented by `kill_node`)
    /// it falls back to the raw ring owner.
    fn server_for(&self, key: &str) -> usize {
        // One server owns every arc, and kill_node refuses to take the
        // last alive node down — skip the hash + ring walk entirely.
        if self.servers.len() == 1 {
            return 0;
        }
        let start = self.ring_start(key);
        let n = self.ring.len();
        for off in 0..n {
            let (_, s) = self.ring[(start + off) % n];
            if self.alive(s) {
                return s;
            }
        }
        self.ring[start].1
    }

    /// Runs `f` against the store shard of `key`'s alive ring owner.
    fn with_store<T>(&self, key: &str, f: impl FnOnce(&mut CacheStore, u64) -> T) -> T {
        let idx = self.server_for(key);
        let now = self.now();
        self.servers[idx].store.with(key, |s| f(s, now))
    }

    /// Runs the mutation `f` on `key`'s store shard. Every mutation
    /// holds the key's lease-shard mutex across the lease revocation
    /// and the store write, as fills do, so for any one key a fill and
    /// a mutation are ordered and a later mutation wins. Lock order is
    /// always lease shard -> store shard, never the reverse, so no
    /// deadlock is possible.
    fn mutate<T>(&self, key: &str, f: impl FnOnce(&mut CacheStore, u64) -> T) -> T {
        let mut shard = self.lease_shard(key).lock();
        shard.outstanding.remove(key);
        self.with_store(key, f)
    }

    /// After `revived` rejoins: every entry another server holds for a
    /// key whose arc now belongs to `revived` is unreachable via normal
    /// routing — drop it so a later failover cannot resurrect it stale.
    fn drop_rehashed_keys(&self, revived: usize) {
        for (i, node) in self.servers.iter().enumerate() {
            if i == revived || !node.alive.load(Ordering::Relaxed) {
                continue;
            }
            for key in node.store.keys() {
                if self.server_for(&key) == revived {
                    node.store.with(&key, |s| s.delete(&key));
                }
            }
        }
    }
}

/// A client handle bound to an origin (application or trigger).
#[derive(Clone)]
pub struct CacheHandle {
    inner: Arc<ClusterInner>,
    bump: bool,
    origin: CacheOrigin,
}

impl std::fmt::Debug for CacheHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheHandle")
            .field("bump", &self.bump)
            .field("origin", &self.origin)
            .finish()
    }
}

impl CacheHandle {
    /// Fetches raw bytes.
    pub fn get(&self, key: &str) -> Option<Bytes> {
        self.inner
            .with_store(key, |s, now| s.get_as(key, now, self.bump, self.origin))
    }

    /// Fetches raw bytes plus the CAS token (memcached `gets`).
    pub fn gets(&self, key: &str) -> Option<ValueWithCas> {
        self.inner
            .with_store(key, |s, now| s.gets_as(key, now, self.bump, self.origin))
    }

    /// Stores raw bytes.
    ///
    /// # Errors
    ///
    /// [`crate::CacheError::ValueTooLarge`] for oversized values.
    pub fn set(&self, key: &str, data: Bytes, ttl: Option<u64>) -> Result<()> {
        self.inner.mutate(key, |s, now| s.set(key, data, ttl, now))
    }

    /// Stores only if absent.
    ///
    /// # Errors
    ///
    /// [`crate::CacheError::AlreadyStored`] if present.
    pub fn add(&self, key: &str, data: Bytes, ttl: Option<u64>) -> Result<()> {
        self.inner.mutate(key, |s, now| s.add(key, data, ttl, now))
    }

    /// Compare-and-swap store.
    ///
    /// # Errors
    ///
    /// [`crate::CacheError::CasConflict`] when the token is stale.
    pub fn cas(&self, key: &str, data: Bytes, token: u64, ttl: Option<u64>) -> Result<()> {
        self.inner
            .mutate(key, |s, now| s.cas(key, data, token, ttl, now))
    }

    /// Deletes a key; returns whether it existed.
    pub fn delete(&self, key: &str) -> bool {
        self.inner.mutate(key, |s, _| s.delete(key))
    }

    /// Increments a count payload; `None` on miss.
    ///
    /// # Errors
    ///
    /// [`crate::CacheError::Codec`] if the entry is not a count.
    pub fn incr(&self, key: &str, delta: i64) -> Result<Option<i64>> {
        self.inner.mutate(key, |s, now| s.incr(key, delta, now))
    }

    /// True if the key currently holds a live entry.
    pub fn contains(&self, key: &str) -> bool {
        self.inner.with_store(key, |s, now| s.contains(key, now))
    }

    /// Fetches and decodes a typed payload.
    ///
    /// # Errors
    ///
    /// [`crate::CacheError::Codec`] if stored bytes do not decode.
    pub fn get_payload(&self, key: &str) -> Result<Option<Payload>> {
        match self.get(key) {
            Some(b) => Ok(Some(Payload::decode(&b)?)),
            None => Ok(None),
        }
    }

    /// Fetches a typed payload plus CAS token.
    ///
    /// # Errors
    ///
    /// [`crate::CacheError::Codec`] if stored bytes do not decode.
    pub fn gets_payload(&self, key: &str) -> Result<Option<(Payload, u64)>> {
        match self.gets(key) {
            Some(v) => Ok(Some((Payload::decode(&v.data)?, v.cas))),
            None => Ok(None),
        }
    }

    /// Encodes and stores a typed payload.
    ///
    /// # Errors
    ///
    /// [`crate::CacheError::ValueTooLarge`] for oversized values.
    pub fn set_payload(&self, key: &str, payload: &Payload, ttl: Option<u64>) -> Result<()> {
        self.set(key, payload.encode(), ttl)
    }

    /// Completes a read-through fill under `lease` (from
    /// [`CacheCluster::lease`]): stores `data` only if no mutation of the
    /// key revoked the lease since it was issued and no unpublished
    /// commit fences the key. Returns whether the fill landed — `false`
    /// means a concurrent writer committed fresher data and the stale
    /// fill was dropped.
    ///
    /// # Errors
    ///
    /// [`crate::CacheError::ValueTooLarge`] for oversized values (the
    /// lease is consumed either way).
    pub fn fill(&self, key: &str, data: Bytes, ttl: Option<u64>, lease: u64) -> Result<bool> {
        let mut leases = self.inner.lease_shard(key).lock();
        if leases.outstanding.get(key) != Some(&lease) {
            return Ok(false);
        }
        leases.outstanding.remove(key);
        if leases.pending.contains_key(key) {
            // A commit named the key and has not published: the
            // database read behind this fill may predate it.
            return Ok(false);
        }
        // The store write happens under the key's lease-shard lock: a
        // mutation of this key arriving later must first revoke (waiting
        // on the same shard), so its store write is ordered after this
        // fill and wins.
        self.inner
            .with_store(key, |s, now| s.set(key, data, ttl, now))?;
        Ok(true)
    }

    /// Encodes and [`CacheHandle::fill`]s a typed payload.
    ///
    /// # Errors
    ///
    /// Same as [`CacheHandle::fill`].
    pub fn fill_payload(
        &self,
        key: &str,
        payload: &Payload,
        ttl: Option<u64>,
        lease: u64,
    ) -> Result<bool> {
        self.fill(key, payload.encode(), ttl, lease)
    }

    /// Encodes and CAS-stores a typed payload.
    ///
    /// # Errors
    ///
    /// [`crate::CacheError::CasConflict`] when the token is stale.
    pub fn cas_payload(
        &self,
        key: &str,
        payload: &Payload,
        token: u64,
        ttl: Option<u64>,
    ) -> Result<()> {
        self.cas(key, payload.encode(), token, ttl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CacheError, Mutation};
    use genie_storage::row;

    fn cluster(servers: usize, capacity: usize) -> CacheCluster {
        CacheCluster::new(ClusterConfig {
            servers,
            capacity_bytes: capacity,
            ..Default::default()
        })
    }

    #[test]
    fn single_logical_cache_across_servers() {
        let c = cluster(4, 1024 * 1024);
        let app = c.handle(CacheOrigin::Application);
        let trig = c.handle(CacheOrigin::Trigger);
        for i in 0..100 {
            app.set_payload(&format!("k{i}"), &Payload::Count(i), None)
                .unwrap();
        }
        // Any handle sees every key, wherever it hashed to.
        for i in 0..100 {
            assert_eq!(
                trig.get_payload(&format!("k{i}"))
                    .unwrap()
                    .unwrap()
                    .as_count(),
                Some(i)
            );
        }
        assert_eq!(c.stats().items, 100);
    }

    #[test]
    fn keys_spread_over_servers() {
        let c = cluster(4, 1024 * 1024);
        let mut seen = [false; 4];
        for i in 0..200 {
            seen[c.server_for(&format!("key:{i}"))] = true;
        }
        assert!(seen.iter().all(|&s| s), "all servers should receive keys");
    }

    #[test]
    fn placement_is_deterministic() {
        let a = cluster(5, 1024 * 1024);
        let b = cluster(5, 1024 * 1024);
        for i in 0..50 {
            let k = format!("key:{i}");
            assert_eq!(a.server_for(&k), b.server_for(&k));
        }
    }

    #[test]
    fn consistent_hash_remaps_few_keys_on_grow() {
        let a = cluster(4, 1024 * 1024);
        let b = cluster(5, 1024 * 1024);
        let n = 1000;
        let moved = (0..n)
            .filter(|i| {
                let k = format!("key:{i}");
                a.server_for(&k) != b.server_for(&k)
            })
            .count();
        // Ideal is 1/5 = 20%; allow generous slack for hash variance but
        // rule out the ~80% a modulo scheme would move.
        assert!(
            moved < n / 2,
            "consistent hashing moved {moved}/{n} keys on server add"
        );
    }

    #[test]
    fn rows_payload_roundtrip_through_cluster() {
        let c = cluster(2, 1024 * 1024);
        let h = c.handle(CacheOrigin::Application);
        let rows = Payload::Rows(vec![row![1i64, "post one"], row![2i64, "post two"]]);
        h.set_payload("wall:1", &rows, None).unwrap();
        assert_eq!(h.get_payload("wall:1").unwrap().unwrap(), rows);
    }

    #[test]
    fn cas_through_cluster() {
        let c = cluster(3, 1024 * 1024);
        let h = c.handle(CacheOrigin::Application);
        h.set_payload("k", &Payload::Count(1), None).unwrap();
        let (_, token) = h.gets_payload("k").unwrap().unwrap();
        h.cas_payload("k", &Payload::Count(2), token, None).unwrap();
        assert!(matches!(
            h.cas_payload("k", &Payload::Count(3), token, None),
            Err(CacheError::CasConflict)
        ));
    }

    #[test]
    fn trigger_origin_respects_bump_config() {
        // bump_lru_on_trigger=false: trigger reads must not rescue keys.
        let c = CacheCluster::new(ClusterConfig {
            servers: 1,
            capacity_bytes: 230,
            bump_lru_on_trigger: false,
            // One stripe: all three keys share one eviction domain.
            shards_per_server: 1,
        });
        let app = c.handle(CacheOrigin::Application);
        let trig = c.handle(CacheOrigin::Trigger);
        app.set("a", Bytes::from(vec![0u8; 10]), None).unwrap();
        app.set("b", Bytes::from(vec![0u8; 10]), None).unwrap();
        app.set("c", Bytes::from(vec![0u8; 10]), None).unwrap();
        trig.get("a"); // does NOT bump
        app.set("d", Bytes::from(vec![0u8; 10]), None).unwrap();
        assert!(app.get("a").is_none(), "a stayed coldest and was evicted");
    }

    #[test]
    fn ttl_uses_cluster_clock() {
        let c = cluster(1, 1024 * 1024);
        let h = c.handle(CacheOrigin::Application);
        c.set_now(1_000);
        h.set("k", Bytes::from_static(b"v"), Some(500)).unwrap();
        c.set_now(1_400);
        assert!(h.get("k").is_some());
        c.set_now(1_500);
        assert!(h.get("k").is_none());
    }

    #[test]
    fn stats_aggregate_and_reset() {
        let c = cluster(2, 1024 * 1024);
        let h = c.handle(CacheOrigin::Application);
        h.set("a", Bytes::from_static(b"1"), None).unwrap();
        h.get("a");
        h.get("missing");
        let st = c.stats();
        assert_eq!(st.store.hits, 1);
        assert_eq!(st.store.misses, 1);
        assert!((st.hit_ratio() - 0.5).abs() < 1e-9);
        c.reset_stats();
        assert_eq!(c.stats().store.gets, 0);
        // Data survives a stats reset.
        assert!(h.get("a").is_some());
    }

    #[test]
    fn flush_all_empties_every_server() {
        let c = cluster(3, 1024 * 1024);
        let h = c.handle(CacheOrigin::Application);
        for i in 0..30 {
            h.set(&format!("k{i}"), Bytes::from_static(b"v"), None)
                .unwrap();
        }
        c.flush_all();
        assert_eq!(c.stats().items, 0);
    }

    #[test]
    fn incr_and_delete_through_cluster() {
        let c = cluster(2, 1024 * 1024);
        let h = c.handle(CacheOrigin::Application);
        h.set_payload("n", &Payload::Count(0), None).unwrap();
        assert_eq!(h.incr("n", 7).unwrap(), Some(7));
        assert!(h.delete("n"));
        assert_eq!(h.incr("n", 1).unwrap(), None);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_panics() {
        let _ = CacheCluster::new(ClusterConfig {
            servers: 0,
            ..Default::default()
        });
    }

    /// An edit appending `row` to a `Rows` list.
    fn append(row: genie_storage::Row) -> Delta {
        Delta::edit(false, move |l| {
            l.append(std::slice::from_ref(&row)).map(Mutation::Keep)
        })
    }

    fn rows_of(h: &CacheHandle, key: &str) -> Vec<i64> {
        let p = h.get_payload(key).unwrap().unwrap();
        p.as_rows()
            .unwrap()
            .iter()
            .map(|r| r.get(0).as_int().unwrap())
            .collect()
    }

    #[test]
    fn effect_batch_coalesces_same_key_to_one_store_op() {
        let c = cluster(2, 1024 * 1024);
        let app = c.handle(CacheOrigin::Application);
        app.set_payload("k", &Payload::Count(0), None).unwrap();
        c.reset_stats();
        c.begin_effect_batch();
        // Five recorded increments of the same key...
        for _ in 0..5 {
            c.record("k", Delta::Incr(1));
        }
        let summary = c.commit_effect_batch();
        // ...apply as ONE read-modify-write on the node, with no client
        // read at all.
        assert_eq!(summary.keys_flushed, 1);
        assert_eq!(summary.deltas, 5);
        assert_eq!(summary.applied.in_place, 5);
        assert!(summary.physical_ops() < summary.naive_ops());
        assert_eq!(c.stats().store.sets, 1);
        assert_eq!(c.stats().store.gets, 0, "apply counts no hit or miss");
        assert_eq!(
            app.get_payload("k").unwrap().unwrap().as_count(),
            Some(5),
            "recorded increments all landed"
        );
    }

    #[test]
    fn discarded_batch_publishes_nothing() {
        let c = cluster(1, 1024 * 1024);
        let app = c.handle(CacheOrigin::Application);
        app.set_payload("k", &Payload::Count(7), None).unwrap();
        c.begin_effect_batch();
        c.record("k", Delta::Incr(92));
        c.record("other", Delta::Delete);
        let summary = c.discard_effect_batch();
        assert_eq!(summary.keys_flushed, 2);
        assert_eq!(summary.deltas, 2);
        assert_eq!(summary.applied, Applied::default());
        assert_eq!(
            app.get_payload("k").unwrap().unwrap().as_count(),
            Some(7),
            "cache byte-identical after discard"
        );
    }

    /// Handle verbs of either origin go straight to the stores while a
    /// batch is open; only recorded deltas wait for publication.
    #[test]
    fn batch_only_intercepts_trigger_origin() {
        let c = cluster(1, 1024 * 1024);
        let app = c.handle(CacheOrigin::Application);
        let trig = c.handle(CacheOrigin::Trigger);
        c.begin_effect_batch();
        app.set_payload("a", &Payload::Count(1), None).unwrap();
        trig.set_payload("b", &Payload::Count(2), None).unwrap();
        assert_eq!(app.get_payload("a").unwrap().unwrap().as_count(), Some(1));
        assert_eq!(app.get_payload("b").unwrap().unwrap().as_count(), Some(2));
        c.record("a", Delta::Incr(1));
        assert_eq!(
            app.get_payload("a").unwrap().unwrap().as_count(),
            Some(1),
            "a recorded delta waits for publication"
        );
        let summary = c.commit_effect_batch();
        assert_eq!(summary.deltas, 1);
        assert_eq!(app.get_payload("a").unwrap().unwrap().as_count(), Some(2));
    }

    /// A key's deltas fold in record order: each sees what the ones
    /// before it wrote or deleted, and none is visible before publish.
    #[test]
    fn batch_reads_see_buffered_deletes_and_writes() {
        let c = cluster(1, 1024 * 1024);
        let app = c.handle(CacheOrigin::Application);
        app.set_payload("k", &Payload::Count(1), None).unwrap();
        app.set_payload("n", &Payload::Count(1), None).unwrap();
        app.set_payload("l", &Payload::Rows(vec![row![1i64]]), None)
            .unwrap();
        c.begin_effect_batch();
        c.record("k", Delta::Incr(2));
        c.record("k", Delta::Delete);
        c.record("k", Delta::Incr(5));
        c.record("n", Delta::Incr(2));
        c.record("n", Delta::Incr(5));
        c.record("l", append(row![2i64]));
        c.record("l", append(row![3i64]));
        assert!(app.contains("k"), "unpublished delete invisible");
        let summary = c.commit_effect_batch();
        assert!(
            app.get("k").is_none(),
            "the increment after the delete is a no-op"
        );
        assert_eq!(app.get_payload("n").unwrap().unwrap().as_count(), Some(8));
        assert_eq!(rows_of(&app, "l"), vec![1, 2, 3]);
        assert_eq!(
            summary.applied,
            Applied {
                in_place: 5,
                noops: 1,
                drops: 0,
                invalidations: 1,
                round_trips: 9,
            }
        );
    }

    #[test]
    fn batched_incr_preserves_remaining_ttl() {
        let c = cluster(1, 1024 * 1024);
        let app = c.handle(CacheOrigin::Application);
        c.set_now(1_000);
        app.set_payload("n", &Payload::Count(1), Some(500)).unwrap();
        c.begin_effect_batch();
        c.record("n", Delta::Incr(1));
        c.commit_effect_batch();
        c.set_now(1_400);
        assert_eq!(
            app.get_payload("n").unwrap().unwrap().as_count(),
            Some(2),
            "still alive before expiry"
        );
        c.set_now(1_501);
        assert!(
            app.get_payload("n").unwrap().is_none(),
            "the flushed counter kept the entry's original expiry"
        );
    }

    /// Commit A and then commit B record on one key, both seal before
    /// either publishes; publishing in commit order applies A's deltas
    /// and then B's on top — for a count and for a list.
    #[test]
    fn sealed_batches_apply_in_publish_order() {
        let c = cluster(1, 1024 * 1024);
        let app = c.handle(CacheOrigin::Application);
        app.set_payload("n", &Payload::Count(0), None).unwrap();
        app.set_payload("l", &Payload::Rows(vec![row![1i64]]), None)
            .unwrap();
        c.begin_effect_batch();
        c.record("n", Delta::Incr(1));
        c.record("l", append(row![2i64]));
        let a = c.take_effect_batch().unwrap();
        c.begin_effect_batch();
        c.record("n", Delta::Incr(10));
        c.record("l", append(row![3i64]));
        let b = c.take_effect_batch().unwrap();
        assert_eq!(app.get_payload("n").unwrap().unwrap().as_count(), Some(0));
        a.publish();
        assert_eq!(app.get_payload("n").unwrap().unwrap().as_count(), Some(1));
        assert_eq!(rows_of(&app, "l"), vec![1, 2]);
        b.publish();
        assert_eq!(app.get_payload("n").unwrap().unwrap().as_count(), Some(11));
        assert_eq!(rows_of(&app, "l"), vec![1, 2, 3]);
    }

    /// Naming a key revokes its lease, and a fill refuses the key while
    /// any unpublished batch names it — two here — and lands after.
    #[test]
    fn fill_of_a_pending_key_is_refused_until_apply() {
        let c = cluster(1, 1024 * 1024);
        let app = c.handle(CacheOrigin::Application);
        let early = c.lease("n");
        c.begin_effect_batch();
        c.record("n", Delta::Incr(1));
        let a = c.take_effect_batch().unwrap();
        c.begin_effect_batch();
        assert!(!c.probe("n"), "a probe miss still names the key");
        let b = c.take_effect_batch().unwrap();
        let fill = |lease| app.fill_payload("n", &Payload::Count(0), None, lease);
        assert!(!fill(early).unwrap(), "naming revoked the earlier lease");
        assert!(!fill(c.lease("n")).unwrap(), "fenced by two batches");
        let during = c.lease("n");
        a.publish();
        assert!(!fill(during).unwrap(), "publishing revoked the lease");
        assert!(!fill(c.lease("n")).unwrap(), "still fenced by b");
        b.publish();
        assert!(fill(c.lease("n")).unwrap(), "unfenced after the last apply");
        assert_eq!(c.outstanding_leases(), 0);
    }

    /// Why the fence exists: a fill whose database read already saw a
    /// commit, landing before that commit's deltas apply, would have
    /// them applied a second time.
    #[test]
    fn a_fill_cannot_land_between_commit_and_apply() {
        let c = cluster(1, 1024 * 1024);
        let app = c.handle(CacheOrigin::Application);
        c.begin_effect_batch();
        c.record("n", Delta::Incr(1)); // the commit: the count goes 0 -> 1
        let sealed = c.take_effect_batch().unwrap();
        // Its epoch is visible: a read-through computes the count as 1.
        let lease = c.lease("n");
        assert!(!app
            .fill_payload("n", &Payload::Count(1), None, lease)
            .unwrap());
        sealed.publish();
        assert!(app.get("n").is_none(), "and never a count of 2");
    }

    /// An aborted batch and a sealed one dropped unpublished both lift
    /// their fences.
    #[test]
    fn discard_and_unpublished_drop_clear_the_fence() {
        let c = cluster(1, 1024 * 1024);
        let app = c.handle(CacheOrigin::Application);
        let fill = |key| {
            app.fill_payload(key, &Payload::Count(0), None, c.lease(key))
                .unwrap()
        };
        c.begin_effect_batch();
        c.record("a", Delta::Incr(1));
        c.discard_effect_batch();
        assert!(fill("a"));
        c.begin_effect_batch();
        c.record("b", append(row![1i64]));
        c.probe("c");
        let sealed = c.take_effect_batch().unwrap();
        assert!(!fill("b") && !fill("c"));
        drop(sealed);
        assert!(fill("b") && fill("c"));
    }

    /// A delta recorded with no batch open applies at once.
    #[test]
    fn record_without_a_batch_applies_at_once() {
        let c = cluster(2, 1024 * 1024);
        let app = c.handle(CacheOrigin::Application);
        app.set_payload("n", &Payload::Count(3), None).unwrap();
        c.record("n", Delta::Incr(4));
        assert_eq!(app.get_payload("n").unwrap().unwrap().as_count(), Some(7));
        assert!(fill_lands(&c, "n"));
    }

    fn fill_lands(c: &CacheCluster, key: &str) -> bool {
        c.handle(CacheOrigin::Application)
            .fill_payload(key, &Payload::Count(0), None, c.lease(key))
            .unwrap()
    }

    /// Codec refusals and results the store will not take delete the
    /// key; a wrong-shape list is dropped.
    #[test]
    fn refused_and_oversized_results_delete_the_key() {
        let c = CacheCluster::new(ClusterConfig {
            servers: 1,
            ..Default::default()
        });
        let app = c.handle(CacheOrigin::Application);
        app.set_payload("count", &Payload::Rows(vec![]), None)
            .unwrap();
        app.set_payload("big", &Payload::Rows(vec![row![1i64]]), None)
            .unwrap();
        app.set_payload("shape", &Payload::Rows(vec![]), None)
            .unwrap();
        app.set("junk", Bytes::from_static(b"not a payload"), None)
            .unwrap();
        c.begin_effect_batch();
        c.record("count", Delta::Incr(1));
        // Past the 1 MiB item limit once appended.
        c.record("big", append(row![2i64, "x".repeat(1024 * 1024)]));
        c.record("shape", Delta::edit(true, |_| Ok(Mutation::Noop)));
        c.record("junk", append(row![1i64]));
        let summary = c.commit_effect_batch();
        for key in ["count", "big", "shape", "junk"] {
            assert!(app.get(key).is_none(), "{key} survived");
        }
        assert_eq!(summary.applied.drops, 1);
        assert_eq!(summary.applied.invalidations, 3);
    }

    #[test]
    fn cluster_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CacheCluster>();
        assert_send_sync::<CacheHandle>();
    }
}
