//! A cluster of cache servers behind consistent hashing.
//!
//! The paper stresses that CacheGenie maintains "a single logical cache
//! across many cache servers" (vs. SI-cache's per-app-server caches), with
//! clients and database triggers all addressing the same key space. This
//! module provides that: keys are placed on servers via a consistent-hash
//! ring with virtual nodes, and every handle — application or trigger —
//! sees the same data.

use crate::codec::{hash_key, Payload};
use crate::error::Result;
use crate::hotkey::{HotKeyConfig, HotKeyDetector};
use crate::replica::ReplicaTable;
use crate::shard::{split_capacity, ShardedStore};
use crate::store::{CacheOrigin, CacheStore, StoreStats, ValueWithCas};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of cache servers.
    pub servers: usize,
    /// Total memory budget in bytes, split across servers with the
    /// remainder distributed over the first servers so no byte is lost
    /// (the paper's Experiment 4 sweeps this from 64 MB to 512 MB).
    pub capacity_bytes: usize,
    /// Per-item size limit.
    pub item_limit_bytes: usize,
    /// Virtual nodes per server on the hash ring.
    pub vnodes: usize,
    /// Whether trigger-originated reads refresh LRU recency. Unmodified
    /// memcached bumps on every touch (`true`); §4 of the paper proposes a
    /// modified policy (`false`) which we expose for the ablation bench.
    pub bump_lru_on_trigger: bool,
    /// Lock stripes per server (rounded up to a power of two). With 1,
    /// a server is a single store behind one mutex.
    pub shards_per_server: usize,
    /// Copies of each hot key, counting the primary. `1` disables
    /// hot-key replication entirely.
    pub hot_key_replicas: usize,
    /// Estimated access count at which a key is promoted to replicated
    /// (fed to the count-min [`HotKeyDetector`]).
    pub hot_key_threshold: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            servers: 1,
            capacity_bytes: 512 * 1024 * 1024,
            item_limit_bytes: 1024 * 1024,
            vnodes: 64,
            bump_lru_on_trigger: true,
            shards_per_server: 8,
            hot_key_replicas: 1,
            hot_key_threshold: 64,
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
    /// Reads of replicated keys served by a non-primary copy.
    pub replica_reads: u64,
    /// Keys promoted to replicated by the hot-key detector.
    pub hot_key_promotions: u64,
    /// Keys currently holding a replica set.
    pub replicated_keys: usize,
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
    /// The active transactional effect batch, if any. While present,
    /// trigger-origin operations buffer here instead of hitting the
    /// stores; [`CacheCluster::commit_effect_batch`] publishes one final
    /// operation per touched key. Buffering is serialized by the engine
    /// latch (triggers fire one commit at a time), but *publication* may
    /// run concurrently with the next commit's buffering — which is why
    /// [`CacheCluster::take_effect_batch`] hands ownership out.
    batch: Mutex<Option<EffectBatch>>,
    /// Last *sealed but not yet published* pending op per key (see
    /// [`CacheCluster::take_effect_batch`]): batches are sealed under the
    /// engine latch in commit order, and published after it. A later
    /// commit's trigger reads must see the previous commit's sealed
    /// value — reading the store alone would lose updates (read-modify-
    /// write counts and lists computed from a stale base). Entries are
    /// removed after the store write they describe lands.
    in_flight: Mutex<HashMap<String, (u64, PendingOp)>>,
    /// Seal sequence source for `in_flight` entries.
    next_seal: AtomicU64,
    /// Outstanding read-through fill leases, sharded by key hash so
    /// fills on distinct keys never serialize on one mutex: key -> lease
    /// token. Any mutation of the key through a handle or a batch flush
    /// revokes the lease, so a racing fill computed from pre-commit
    /// database state is dropped instead of caching a stale value.
    leases: Vec<Mutex<LeaseTable>>,
    /// Global lease-token mint: tokens are unique and monotonic across
    /// every lease shard, so a token minted for one key can never
    /// validate a fill routed through another shard.
    next_lease: AtomicU64,
    /// Copies of each hot key, counting the primary (1 = off).
    replica_count: usize,
    /// Hot-key frequency sketch feeding promotion.
    hot: HotKeyDetector,
    /// key -> replica server set, primary first.
    replicas: ReplicaTable,
    /// Reads of replicated keys served by a non-primary copy.
    replica_reads: AtomicU64,
    /// Keys promoted to replicated.
    promotions: AtomicU64,
}

/// Number of lease-table shards (keys hash to one; ordering arguments
/// are per-key, so per-shard mutual exclusion suffices).
const LEASE_SHARDS: usize = 16;

#[derive(Debug, Default)]
struct LeaseTable {
    outstanding: HashMap<String, u64>,
}

/// CAS tokens handed out for buffered (not yet published) values. Kept in
/// a range real stores never reach so a stale store token can't
/// accidentally match a buffered entry.
const BATCH_TOKEN_BASE: u64 = 1 << 62;

/// CAS token for reads served from a *sealed* (in-flight) pending op.
/// Batch-context CAS against a first-touch key is accepted blindly (the
/// engine latch serializes commit-time writers), so the value only needs
/// to stay out of the real stores' range.
const SEALED_TOKEN: u64 = BATCH_TOKEN_BASE - 1;

#[derive(Debug, Clone)]
enum PendingOp {
    /// Publish these bytes at flush.
    Set { data: Bytes, ttl: Option<u64> },
    /// Remove the key at flush.
    Delete,
}

/// Per-transaction overlay over the cluster: trigger effects buffer here
/// during commit-time firing, reads see buffered state first, and the
/// flush publishes exactly one physical operation per touched key —
/// that's the per-cache-key coalescing of the commit pipeline, and the
/// reason an aborted transaction can publish nothing at all.
#[derive(Debug, Default)]
struct EffectBatch {
    /// Key -> pending final op, in first-touch order.
    entries: Vec<(String, PendingOp, u64)>,
    /// Reads that had to fall through to a real store.
    backend_reads: u64,
    /// Logical mutations buffered (what a per-statement pipeline would
    /// have sent to the cache one by one — the "naive" op count).
    buffered_mutations: u64,
    next_token: u64,
}

impl EffectBatch {
    fn entry(&self, key: &str) -> Option<(&PendingOp, u64)> {
        self.entries
            .iter()
            .find(|(k, _, _)| k == key)
            .map(|(_, op, t)| (op, *t))
    }

    fn put(&mut self, key: &str, op: PendingOp) -> u64 {
        self.buffered_mutations += 1;
        let token = BATCH_TOKEN_BASE + self.next_token;
        self.next_token += 1;
        match self.entries.iter_mut().find(|(k, _, _)| k == key) {
            Some(slot) => {
                slot.1 = op;
                slot.2 = token;
            }
            None => self.entries.push((key.to_owned(), op, token)),
        }
        token
    }
}

/// What publishing (or discarding) an effect batch amounted to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EffectBatchSummary {
    /// Distinct keys published — one physical cache op each.
    pub keys_flushed: u64,
    /// Reads served by a real store during the buffered phase.
    pub backend_reads: u64,
    /// Logical mutations buffered (the per-statement "naive" op count the
    /// coalescing saved against).
    pub buffered_mutations: u64,
}

impl EffectBatchSummary {
    /// Physical cache operations the transaction actually performed.
    pub fn physical_ops(&self) -> u64 {
        self.keys_flushed + self.backend_reads
    }

    /// What the same effects would have cost applied one by one.
    pub fn naive_ops(&self) -> u64 {
        self.buffered_mutations + self.backend_reads
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
    /// Panics if `config.servers` or `config.vnodes` is zero — a cluster
    /// with no placement targets cannot exist.
    pub fn new(config: ClusterConfig) -> Self {
        assert!(config.servers > 0, "cluster needs at least one server");
        assert!(config.vnodes > 0, "cluster needs at least one vnode");
        // Remainder-preserving split: per-server budgets sum to exactly
        // the configured total.
        let caps = split_capacity(config.capacity_bytes, config.servers);
        let servers: Vec<ServerNode> = caps
            .into_iter()
            .map(|cap| ServerNode {
                store: ShardedStore::new(cap, config.item_limit_bytes, config.shards_per_server),
                alive: AtomicBool::new(true),
            })
            .collect();
        let mut ring = Vec::with_capacity(config.servers * config.vnodes);
        for s in 0..config.servers {
            for v in 0..config.vnodes {
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
                in_flight: Mutex::new(HashMap::new()),
                next_seal: AtomicU64::new(0),
                leases: (0..LEASE_SHARDS)
                    .map(|_| Mutex::new(LeaseTable::default()))
                    .collect(),
                next_lease: AtomicU64::new(0),
                replica_count: config.hot_key_replicas.max(1),
                hot: HotKeyDetector::new(&HotKeyConfig {
                    threshold: config.hot_key_threshold,
                    ..HotKeyConfig::default()
                }),
                replicas: ReplicaTable::new(),
                replica_reads: AtomicU64::new(0),
                promotions: AtomicU64::new(0),
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

    /// Opens a transactional effect batch: until the matching
    /// [`CacheCluster::commit_effect_batch`] or
    /// [`CacheCluster::discard_effect_batch`], trigger-origin operations
    /// buffer in an overlay instead of touching the stores. Replaces any
    /// batch left open (callers bracket it under the engine's commit
    /// lock, so nesting cannot arise).
    pub fn begin_effect_batch(&self) {
        *self.inner.batch.lock() = Some(EffectBatch::default());
    }

    /// Keys the active batch would publish, in first-touch order (the
    /// strict-consistency extension write-locks these before the flush).
    pub fn effect_batch_keys(&self) -> Vec<String> {
        self.inner
            .batch
            .lock()
            .as_ref()
            .map(|b| b.entries.iter().map(|(k, _, _)| k.clone()).collect())
            .unwrap_or_default()
    }

    /// Publishes the active batch immediately: one physical set/delete
    /// per touched key, in first-touch order. A no-op (zero summary)
    /// without an open batch. Equivalent to
    /// [`CacheCluster::take_effect_batch`] + [`PreparedEffectBatch::publish`].
    pub fn commit_effect_batch(&self) -> EffectBatchSummary {
        match self.take_effect_batch() {
            Some(prepared) => prepared.publish(),
            None => EffectBatchSummary::default(),
        }
    }

    /// Seals and removes the active batch, handing ownership of its
    /// pending operations out — the commit pipeline takes the batch under
    /// the engine latch (fixing its contents and summary) and publishes
    /// it after the latch is released, so slow publication never blocks
    /// the next transaction's trigger firing.
    pub fn take_effect_batch(&self) -> Option<PreparedEffectBatch> {
        let batch = self.inner.batch.lock().take()?;
        // Seal: expose the pending ops to later commits' trigger reads
        // until the physical store writes land (publication may overlap
        // the next transaction's firing).
        let seal = self.inner.next_seal.fetch_add(1, Ordering::Relaxed) + 1;
        {
            let mut in_flight = self.inner.in_flight.lock();
            for (key, op, _) in &batch.entries {
                in_flight.insert(key.clone(), (seal, op.clone()));
            }
        }
        Some(PreparedEffectBatch {
            inner: Arc::clone(&self.inner),
            seal,
            entries: batch.entries,
            backend_reads: batch.backend_reads,
            buffered_mutations: batch.buffered_mutations,
        })
    }

    /// Drops the active batch without publishing anything — the aborted
    /// transaction leaves the cache byte-identical. Returns what was
    /// discarded.
    pub fn discard_effect_batch(&self) -> EffectBatchSummary {
        let Some(batch) = self.inner.batch.lock().take() else {
            return EffectBatchSummary::default();
        };
        EffectBatchSummary {
            keys_flushed: 0,
            backend_reads: batch.backend_reads,
            buffered_mutations: batch.buffered_mutations,
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
        agg.replica_reads = self.inner.replica_reads.load(Ordering::Relaxed);
        agg.hot_key_promotions = self.inner.promotions.load(Ordering::Relaxed);
        agg.replicated_keys = self.inner.replicas.len();
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
    /// Keeps stored data, the replica table, and the hot-key sketch:
    /// hotness learned during warm-up stays learned.
    pub fn reset_stats(&self) {
        for node in &self.inner.servers {
            node.store.reset_stats();
        }
        self.inner.replica_reads.store(0, Ordering::Relaxed);
        self.inner.promotions.store(0, Ordering::Relaxed);
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
    /// RAM), keys it owned rehash to ring successors as misses, and hot
    /// keys it carried are re-replicated from surviving copies. Returns
    /// false if the node is already dead or is the last one alive.
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
        inner.rebalance_replicas();
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
        inner.rebalance_replicas();
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

    /// The replica set for `key` (primary first), if it was promoted.
    pub fn replica_set(&self, key: &str) -> Option<Vec<usize>> {
        self.inner.replicas.get(key).map(|s| s.to_vec())
    }

    /// True when every *present* copy of `key` across its replica set
    /// holds byte-identical data (an evicted/missing copy is coherent:
    /// it refills on next read). Keys without a replica set are
    /// trivially coherent.
    pub fn replicas_coherent(&self, key: &str) -> bool {
        let Some(set) = self.inner.replicas.get(key) else {
            return true;
        };
        let now = self.inner.now.load(Ordering::Relaxed);
        let mut first: Option<Bytes> = None;
        for &m in set.iter() {
            if !self.inner.alive(m) {
                continue;
            }
            let copy = self.inner.servers[m]
                .store
                .with(key, |s| s.peek(key, now).map(|(d, _)| d));
            if let Some(d) = copy {
                match &first {
                    None => first = Some(d),
                    Some(f) if *f != d => return false,
                    Some(_) => {}
                }
            }
        }
        true
    }
}

/// A sealed effect batch removed from the cluster by
/// [`CacheCluster::take_effect_batch`], ready to publish. The summary is
/// fixed at take time, so accounting can settle under the engine latch
/// while the physical stores are touched after it drops.
pub struct PreparedEffectBatch {
    inner: Arc<ClusterInner>,
    /// This batch's `in_flight` seal sequence (entries are cleared after
    /// their store writes, unless a later seal already replaced them).
    seal: u64,
    entries: Vec<(String, PendingOp, u64)>,
    backend_reads: u64,
    buffered_mutations: u64,
}

impl std::fmt::Debug for PreparedEffectBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedEffectBatch")
            .field("keys", &self.entries.len())
            .finish()
    }
}

impl PreparedEffectBatch {
    /// The keys this batch will publish, in first-touch order. The
    /// commit pipeline locks these (sorted canonically) before the flush.
    pub fn keys(&self) -> Vec<String> {
        self.entries.iter().map(|(k, _, _)| k.clone()).collect()
    }

    /// True when nothing was buffered (read-only or trigger-less commit).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.backend_reads == 0 && self.buffered_mutations == 0
    }

    /// What publishing will amount to (known before it happens).
    pub fn summary(&self) -> EffectBatchSummary {
        EffectBatchSummary {
            keys_flushed: self.entries.len() as u64,
            backend_reads: self.backend_reads,
            buffered_mutations: self.buffered_mutations,
        }
    }

    /// Publishes: one physical set/delete per touched key, in first-touch
    /// order. Each key's fill lease is revoked *before* its store write,
    /// so a concurrent read-through fill computed from pre-commit state
    /// loses the race instead of resurrecting stale data.
    ///
    /// Ownership rule: keys a commit pipeline maintains belong to the
    /// pipeline — application code must reach them only through
    /// lease-checked fills ([`CacheHandle::fill`]) or CAS. A plain
    /// application `set`/`delete` landing in the seal-to-publish window
    /// would be overwritten by the sealed value (the engine's view of
    /// the latest commit); the shipped middleware respects this
    /// everywhere.
    pub fn publish(self) -> EffectBatchSummary {
        let summary = self.summary();
        for (key, op, _) in self.entries {
            // store_set/store_delete revoke the key's fill lease and
            // update *every* replica while holding the key's lease-shard
            // mutex — the publication is atomic per key with respect to
            // fills, other writers, and replica-set changes.
            match op {
                PendingOp::Set { data, ttl } => {
                    if self.inner.store_set(&key, data, ttl).is_err() {
                        // Mirror the trigger fallback: when a value cannot
                        // be stored, invalidate rather than leave staleness.
                        self.inner.store_delete(&key);
                    }
                }
                PendingOp::Delete => {
                    self.inner.store_delete(&key);
                }
            }
            // The store now holds this batch's value; retire the sealed
            // entry unless a later commit already replaced it.
            let mut in_flight = self.inner.in_flight.lock();
            if in_flight.get(&key).map(|(s, _)| *s) == Some(self.seal) {
                in_flight.remove(&key);
            }
        }
        summary
    }
}

impl ClusterInner {
    /// The latest sealed-but-unpublished pending op for `key`, if any —
    /// what commit-time trigger reads must observe instead of the store.
    fn sealed_pending(&self, key: &str) -> Option<PendingOp> {
        self.in_flight.lock().get(key).map(|(_, op)| op.clone())
    }

    /// Runs a trigger-origin fall-through store read; on a miss, revokes
    /// any outstanding fill lease for the key *atomically with the miss
    /// observation* (the read and the revocation share the key's
    /// lease-shard lock, which fills also hold across their
    /// validate-and-write). A trigger that finds the key absent makes no
    /// cache update for it, so a read-through fill computed from the
    /// pre-commit database must not be allowed to land afterwards —
    /// without this, the fill resurrects a stale value no later
    /// publication ever repairs.
    fn read_with_miss_revoke<T>(&self, key: &str, read: impl FnOnce() -> Option<T>) -> Option<T> {
        let mut shard = self.lease_shard(key).lock();
        let v = read();
        if v.is_none() {
            shard.outstanding.remove(key);
        }
        v
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

    /// The first `replica_count` distinct alive servers on `key`'s ring
    /// walk, primary first.
    fn replica_members(&self, key: &str) -> Vec<usize> {
        let start = self.ring_start(key);
        let n = self.ring.len();
        let mut out = Vec::with_capacity(self.replica_count);
        for off in 0..n {
            let (_, s) = self.ring[(start + off) % n];
            if self.alive(s) && !out.contains(&s) {
                out.push(s);
                if out.len() == self.replica_count {
                    break;
                }
            }
        }
        out
    }

    /// Every server a write to `key` must land on: the whole alive
    /// replica set for hot keys, else just the primary.
    fn write_targets(&self, key: &str) -> Vec<usize> {
        if let Some(set) = self.replicas.get(key) {
            let live: Vec<usize> = set.iter().copied().filter(|&s| self.alive(s)).collect();
            if !live.is_empty() {
                return live;
            }
        }
        vec![self.server_for(key)]
    }

    /// Which server serves a read of `key`: round-robin over alive
    /// replicas for hot keys, else the primary.
    fn read_server_for(&self, key: &str) -> usize {
        // With replication off the table is permanently empty; skip the
        // per-read lock + probe entirely (the common fast path).
        if self.replica_count > 1 {
            if let Some(set) = self.replicas.get(key) {
                let pick = self.replicas.pick(&set, |s| self.alive(s));
                if pick != set[0] {
                    self.replica_reads.fetch_add(1, Ordering::Relaxed);
                }
                return pick;
            }
        }
        self.server_for(key)
    }

    /// Runs `f` against `key`'s primary store shard (CAS-token reads and
    /// trigger fall-through reads need the authoritative copy).
    fn with_primary<T>(&self, key: &str, f: impl FnOnce(&mut CacheStore, u64) -> T) -> T {
        let idx = self.server_for(key);
        let now = self.now();
        self.servers[idx].store.with(key, |s| f(s, now))
    }

    /// Runs `f` against whichever store shard serves reads of `key`.
    fn with_read<T>(&self, key: &str, f: impl FnOnce(&mut CacheStore, u64) -> T) -> T {
        let idx = self.read_server_for(key);
        let now = self.now();
        self.servers[idx].store.with(key, |s| f(s, now))
    }

    // ----- multi-replica mutations -----
    //
    // Every mutation of a key holds the key's lease-shard mutex across
    // the lease revocation AND all replica store writes. Fills and the
    // promotion/rebalance copies hold the same mutex, so for any one
    // key, multi-copy updates are atomic with respect to each other:
    // no interleaving can leave two replicas with values from two
    // different writers. Lock order is always lease shard -> one store
    // shard at a time, never the reverse, so no deadlock is possible.

    /// Unconditional store of `data` on every replica of `key`.
    fn store_set(&self, key: &str, data: Bytes, ttl: Option<u64>) -> Result<()> {
        let mut shard = self.lease_shard(key).lock();
        shard.outstanding.remove(key);
        let now = self.now();
        let mut first: Option<Result<()>> = None;
        for idx in self.write_targets(key) {
            let r = self.servers[idx]
                .store
                .with(key, |s| s.set(key, data.clone(), ttl, now));
            if first.is_none() {
                first = Some(r);
            }
        }
        first.unwrap_or(Ok(()))
    }

    /// Deletes `key` from every replica; returns whether the primary
    /// copy existed.
    fn store_delete(&self, key: &str) -> bool {
        let mut shard = self.lease_shard(key).lock();
        shard.outstanding.remove(key);
        let mut first: Option<bool> = None;
        for idx in self.write_targets(key) {
            let r = self.servers[idx].store.with(key, |s| s.delete(key));
            if first.is_none() {
                first = Some(r);
            }
        }
        first.unwrap_or(false)
    }

    /// Add on the primary; on success the value is mirrored to the
    /// other replicas (plain set — add's only-if-absent contract is
    /// decided by the authoritative copy).
    fn store_add(&self, key: &str, data: Bytes, ttl: Option<u64>) -> Result<()> {
        let mut shard = self.lease_shard(key).lock();
        shard.outstanding.remove(key);
        let now = self.now();
        let targets = self.write_targets(key);
        let primary = targets[0];
        self.servers[primary]
            .store
            .with(key, |s| s.add(key, data.clone(), ttl, now))?;
        for &idx in &targets[1..] {
            let _ = self.servers[idx]
                .store
                .with(key, |s| s.set(key, data.clone(), ttl, now));
        }
        Ok(())
    }

    /// CAS on the primary; on success the new value is mirrored to the
    /// other replicas.
    fn store_cas(&self, key: &str, data: Bytes, token: u64, ttl: Option<u64>) -> Result<()> {
        let mut shard = self.lease_shard(key).lock();
        shard.outstanding.remove(key);
        let now = self.now();
        let targets = self.write_targets(key);
        let primary = targets[0];
        self.servers[primary]
            .store
            .with(key, |s| s.cas(key, data.clone(), token, ttl, now))?;
        for &idx in &targets[1..] {
            let _ = self.servers[idx]
                .store
                .with(key, |s| s.set(key, data.clone(), ttl, now));
        }
        Ok(())
    }

    /// Increment on the primary; the resulting count is mirrored to the
    /// other replicas with its remaining TTL.
    fn store_incr(&self, key: &str, delta: i64) -> Result<Option<i64>> {
        let mut shard = self.lease_shard(key).lock();
        shard.outstanding.remove(key);
        let now = self.now();
        let targets = self.write_targets(key);
        let primary = targets[0];
        let new = self.servers[primary]
            .store
            .with(key, |s| s.incr(key, delta, now))?;
        if let Some(n) = new {
            let ttl = self.servers[primary]
                .store
                .with(key, |s| s.peek(key, now).and_then(|(_, ttl)| ttl));
            let data = Payload::Count(n).encode();
            for &idx in &targets[1..] {
                let _ = self.servers[idx]
                    .store
                    .with(key, |s| s.set(key, data.clone(), ttl, now));
            }
        }
        Ok(new)
    }

    // ----- hot-key replication -----

    /// Feeds the hot-key sketch from an application read and promotes
    /// the key once it crosses the threshold.
    fn record_access(&self, key: &str) {
        if self.replica_count <= 1 {
            return;
        }
        if self.hot.record(key) && self.replicas.get(key).is_none() {
            self.promote(key);
        }
    }

    /// Installs a replica set for a newly hot key and copies its
    /// current value to the secondaries, atomically with respect to
    /// writers of the key (same lease-shard mutex).
    fn promote(&self, key: &str) {
        let _shard = self.lease_shard(key).lock();
        if self.replicas.get(key).is_some() {
            return;
        }
        let members = self.replica_members(key);
        if members.len() < 2 {
            return;
        }
        let now = self.now();
        let value = self.servers[members[0]]
            .store
            .with(key, |s| s.peek(key, now));
        if let Some((data, ttl)) = value {
            for &m in &members[1..] {
                let _ = self.servers[m]
                    .store
                    .with(key, |s| s.set(key, data.clone(), ttl, now));
            }
        }
        self.replicas.insert(key, members);
        self.promotions.fetch_add(1, Ordering::Relaxed);
    }

    /// Recomputes every hot key's replica set after a membership change,
    /// copying the surviving value onto new members and dropping copies
    /// from members that left the set. Runs per key under that key's
    /// lease-shard mutex, so it serializes with writers and fills.
    fn rebalance_replicas(&self) {
        for key in self.replicas.keys() {
            let _shard = self.lease_shard(&key).lock();
            let Some(old) = self.replicas.get(&key) else {
                continue;
            };
            let members = self.replica_members(&key);
            if members.len() < 2 {
                // Not enough alive nodes to replicate: demote. Stray
                // copies (if any) are on the sole alive node anyway.
                self.replicas.remove(&key);
                continue;
            }
            let now = self.now();
            // Any alive holder has a maintained (fresh) copy: writes go
            // to all alive members, and a revived node rejoins flushed.
            let mut value = None;
            for &m in old.iter().chain(members.iter()) {
                if !self.alive(m) {
                    continue;
                }
                if let Some(v) = self.servers[m].store.with(&key, |s| s.peek(&key, now)) {
                    value = Some(v);
                    break;
                }
            }
            if let Some((data, ttl)) = value {
                for &m in &members {
                    let missing = self.servers[m]
                        .store
                        .with(&key, |s| s.peek(&key, now).is_none());
                    if missing {
                        let _ = self.servers[m]
                            .store
                            .with(&key, |s| s.set(&key, data.clone(), ttl, now));
                    }
                }
            }
            // Members that left the set must not keep a copy a later
            // failover could serve stale.
            for &m in old.iter() {
                if self.alive(m) && !members.contains(&m) {
                    self.servers[m].store.with(&key, |s| {
                        s.delete(&key);
                    });
                }
            }
            self.replicas.insert(&key, members);
        }
    }

    /// After `revived` rejoins: every entry another server holds for a
    /// key whose arc now belongs to `revived` is unreachable via normal
    /// routing — drop it so a later failover cannot resurrect it stale.
    /// (Replica-set members keep their copies; the replica table routes
    /// to them explicitly and `rebalance_replicas` prunes those.)
    fn drop_rehashed_keys(&self, revived: usize) {
        for (i, node) in self.servers.iter().enumerate() {
            if i == revived || !node.alive.load(Ordering::Relaxed) {
                continue;
            }
            for key in node.store.keys() {
                if self.server_for(&key) != revived {
                    continue;
                }
                let kept_by_replica_set =
                    self.replicas.get(&key).is_some_and(|set| set.contains(&i));
                if !kept_by_replica_set {
                    node.store.with(&key, |s| {
                        s.delete(&key);
                    });
                }
            }
        }
    }
}

/// How a batched [`CacheHandle`] operation routed: resolved entirely
/// from the overlay (`Done`), or falling through to a real store with
/// optional carry-over context (`Fallthrough`).
enum Routed<T, F = ()> {
    Done(T),
    Fallthrough(F),
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
    /// Runs `f` against the active effect batch when this handle's
    /// operations are subject to buffering (trigger origin, batch open);
    /// otherwise returns `None` and the caller goes to the stores.
    fn with_batch<T>(&self, f: impl FnOnce(&mut EffectBatch) -> T) -> Option<T> {
        if self.origin != CacheOrigin::Trigger {
            return None;
        }
        let mut guard = self.inner.batch.lock();
        guard.as_mut().map(f)
    }

    /// Fetches raw bytes. Application-origin reads feed the hot-key
    /// sketch and may be served by any replica of a hot key;
    /// trigger-origin reads go through [`CacheHandle::gets`] so they
    /// observe batch overlays and sealed in-flight values.
    pub fn get(&self, key: &str) -> Option<Bytes> {
        if self.origin == CacheOrigin::Trigger {
            return self.gets(key).map(|v| v.data);
        }
        self.inner.record_access(key);
        self.inner
            .with_read(key, |s, now| s.get_as(key, now, self.bump, self.origin))
    }

    /// Fetches raw bytes plus the CAS token (memcached `gets`). During a
    /// transactional effect batch, trigger reads see their own buffered
    /// writes first and fall through to a real store otherwise.
    pub fn gets(&self, key: &str) -> Option<ValueWithCas> {
        let routed = self.with_batch(|b| match b.entry(key) {
            Some((PendingOp::Set { data, .. }, token)) => Routed::Done(Some(ValueWithCas {
                data: data.clone(),
                cas: token,
            })),
            Some((PendingOp::Delete, _)) => Routed::Done(None),
            None => {
                b.backend_reads += 1;
                Routed::Fallthrough(())
            }
        });
        match routed {
            Some(Routed::Done(v)) => v,
            Some(Routed::Fallthrough(())) => match self.inner.sealed_pending(key) {
                // A prior commit sealed this key but its store write is
                // still in flight: its value is the one to read.
                Some(PendingOp::Set { data, .. }) => Some(ValueWithCas {
                    data,
                    cas: SEALED_TOKEN,
                }),
                Some(PendingOp::Delete) => None,
                None => self.inner.read_with_miss_revoke(key, || {
                    self.inner
                        .with_primary(key, |s, now| s.gets_as(key, now, self.bump, self.origin))
                }),
            },
            // CAS tokens are per-store: a `gets` outside any batch reads
            // the primary so the token always validates there.
            None => self
                .inner
                .with_primary(key, |s, now| s.gets_as(key, now, self.bump, self.origin)),
        }
    }

    /// Stores raw bytes.
    ///
    /// # Errors
    ///
    /// [`crate::CacheError::ValueTooLarge`] for oversized values.
    pub fn set(&self, key: &str, data: Bytes, ttl: Option<u64>) -> Result<()> {
        if self
            .with_batch(|b| {
                b.put(
                    key,
                    PendingOp::Set {
                        data: data.clone(),
                        ttl,
                    },
                );
            })
            .is_some()
        {
            return Ok(());
        }
        self.inner.store_set(key, data, ttl)
    }

    /// Stores only if absent.
    ///
    /// # Errors
    ///
    /// [`crate::CacheError::AlreadyStored`] if present.
    pub fn add(&self, key: &str, data: Bytes, ttl: Option<u64>) -> Result<()> {
        let routed: Option<Routed<Result<()>, bool>> = self.with_batch(|b| match b.entry(key) {
            Some((PendingOp::Set { .. }, _)) => Routed::Done(Err(crate::CacheError::AlreadyStored)),
            Some((PendingOp::Delete, _)) => Routed::Fallthrough(true),
            None => {
                b.backend_reads += 1;
                Routed::Fallthrough(false)
            }
        });
        match routed {
            Some(Routed::Done(r)) => r,
            Some(Routed::Fallthrough(deleted)) => {
                let exists = match self.inner.sealed_pending(key) {
                    Some(PendingOp::Set { .. }) => true,
                    Some(PendingOp::Delete) => false,
                    None => self.inner.with_primary(key, |s, now| s.contains(key, now)),
                };
                if !deleted && exists {
                    return Err(crate::CacheError::AlreadyStored);
                }
                self.with_batch(|b| {
                    b.put(key, PendingOp::Set { data, ttl });
                });
                Ok(())
            }
            None => self.inner.store_add(key, data, ttl),
        }
    }

    /// Compare-and-swap store.
    ///
    /// During a transactional effect batch, a CAS against a buffered
    /// entry checks the buffered token; a CAS against a store-read token
    /// is accepted blindly — the engine's commit lock serializes every
    /// writer, so the token a trigger just read cannot have gone stale.
    ///
    /// # Errors
    ///
    /// [`crate::CacheError::CasConflict`] when the token is stale.
    pub fn cas(&self, key: &str, data: Bytes, token: u64, ttl: Option<u64>) -> Result<()> {
        let routed = self.with_batch(|b| {
            match b.entry(key) {
                Some((_, buffered_token)) if buffered_token != token => {
                    return Err(crate::CacheError::CasConflict);
                }
                _ => {}
            }
            b.put(
                key,
                PendingOp::Set {
                    data: data.clone(),
                    ttl,
                },
            );
            Ok(())
        });
        match routed {
            Some(r) => r,
            None => self.inner.store_cas(key, data, token, ttl),
        }
    }

    /// Deletes a key; returns whether it existed.
    pub fn delete(&self, key: &str) -> bool {
        let routed = self.with_batch(|b| match b.entry(key) {
            Some((PendingOp::Set { .. }, _)) => {
                b.put(key, PendingOp::Delete);
                Routed::Done(true)
            }
            Some((PendingOp::Delete, _)) => Routed::Done(false),
            None => {
                b.backend_reads += 1;
                Routed::Fallthrough(())
            }
        });
        match routed {
            Some(Routed::Done(existed)) => existed,
            Some(Routed::Fallthrough(())) => {
                let existed = match self.inner.sealed_pending(key) {
                    Some(PendingOp::Set { .. }) => true,
                    Some(PendingOp::Delete) => false,
                    None => self.inner.with_primary(key, |s, now| s.contains(key, now)),
                };
                self.with_batch(|b| {
                    b.put(key, PendingOp::Delete);
                });
                existed
            }
            None => self.inner.store_delete(key),
        }
    }

    /// Increments a count payload; `None` on miss.
    ///
    /// # Errors
    ///
    /// [`crate::CacheError::Codec`] if the entry is not a count.
    pub fn incr(&self, key: &str, delta: i64) -> Result<Option<i64>> {
        let routed = self.with_batch(|b| match b.entry(key) {
            Some((PendingOp::Set { data, ttl }, _)) => {
                let ttl = *ttl;
                let payload = match Payload::decode(data) {
                    Ok(p) => p,
                    Err(e) => return Routed::Done(Err(e)),
                };
                let Some(n) = payload.as_count() else {
                    return Routed::Done(Err(crate::CacheError::Codec(
                        "incr target is not a count".into(),
                    )));
                };
                let new = n + delta;
                b.put(
                    key,
                    PendingOp::Set {
                        data: Payload::Count(new).encode(),
                        ttl,
                    },
                );
                Routed::Done(Ok(Some(new)))
            }
            Some((PendingOp::Delete, _)) => Routed::Done(Ok(None)),
            None => {
                b.backend_reads += 1;
                Routed::Fallthrough(())
            }
        });
        match routed {
            Some(Routed::Done(r)) => r,
            Some(Routed::Fallthrough(())) => {
                let current = match self.inner.sealed_pending(key) {
                    Some(PendingOp::Set { data, ttl }) => Some((data, ttl)),
                    Some(PendingOp::Delete) => None,
                    None => self.inner.read_with_miss_revoke(key, || {
                        self.inner
                            .with_primary(key, |s, now| s.get_with_ttl(key, now, self.bump))
                    }),
                };
                let Some((data, ttl)) = current else {
                    return Ok(None);
                };
                let n = Payload::decode(&data)?
                    .as_count()
                    .ok_or_else(|| crate::CacheError::Codec("incr target is not a count".into()))?;
                let new = n + delta;
                self.with_batch(|b| {
                    b.put(
                        key,
                        PendingOp::Set {
                            data: Payload::Count(new).encode(),
                            ttl,
                        },
                    );
                });
                Ok(Some(new))
            }
            None => self.inner.store_incr(key, delta),
        }
    }

    /// True if the key currently holds a live entry.
    pub fn contains(&self, key: &str) -> bool {
        let routed = self.with_batch(|b| match b.entry(key) {
            Some((PendingOp::Set { .. }, _)) => Routed::Done(true),
            Some((PendingOp::Delete, _)) => Routed::Done(false),
            None => {
                b.backend_reads += 1;
                Routed::Fallthrough(())
            }
        });
        match routed {
            Some(Routed::Done(v)) => v,
            Some(Routed::Fallthrough(())) => match self.inner.sealed_pending(key) {
                Some(PendingOp::Set { .. }) => true,
                Some(PendingOp::Delete) => false,
                None => self
                    .inner
                    .read_with_miss_revoke(key, || {
                        self.inner
                            .with_primary(key, |s, now| s.contains(key, now))
                            .then_some(())
                    })
                    .is_some(),
            },
            None => self.inner.with_primary(key, |s, now| s.contains(key, now)),
        }
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
    /// key revoked the lease since it was issued. Returns whether the
    /// fill landed — `false` means a concurrent writer published fresher
    /// data and the stale fill was dropped.
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
        // The store writes happen under the key's lease-shard lock: a
        // mutation of this key arriving later must first revoke (waiting
        // on the same shard), so its store writes are ordered after this
        // fill and win. Hot keys fill every alive replica, so a replica
        // read after the fill cannot miss what the primary has.
        let now = self.inner.now();
        let mut first: Option<Result<()>> = None;
        for idx in self.inner.write_targets(key) {
            let r = self.inner.servers[idx]
                .store
                .with(key, |s| s.set(key, data.clone(), ttl, now));
            if first.is_none() {
                first = Some(r);
            }
        }
        first.unwrap_or(Ok(()))?;
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
    use crate::CacheError;
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
            item_limit_bytes: 1024,
            vnodes: 8,
            bump_lru_on_trigger: false,
            // One stripe: all three keys share one eviction domain.
            shards_per_server: 1,
            ..Default::default()
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

    #[test]
    fn effect_batch_coalesces_same_key_to_one_store_op() {
        let c = cluster(2, 1024 * 1024);
        let app = c.handle(CacheOrigin::Application);
        let trig = c.handle(CacheOrigin::Trigger);
        app.set_payload("k", &Payload::Count(0), None).unwrap();
        c.reset_stats();
        c.begin_effect_batch();
        // Five buffered mutations of the same key...
        for _ in 0..5 {
            let got = trig.gets("k").unwrap();
            let n = Payload::decode(&got.data).unwrap().as_count().unwrap();
            trig.cas("k", Payload::Count(n + 1).encode(), got.cas, None)
                .unwrap();
        }
        let summary = c.commit_effect_batch();
        // ...publish as ONE physical set; only the first gets hit a store.
        assert_eq!(summary.keys_flushed, 1);
        assert_eq!(summary.backend_reads, 1);
        assert_eq!(summary.buffered_mutations, 5);
        assert!(summary.physical_ops() < summary.naive_ops());
        assert_eq!(c.stats().store.sets, 1);
        assert_eq!(
            app.get_payload("k").unwrap().unwrap().as_count(),
            Some(5),
            "buffered increments all landed"
        );
    }

    #[test]
    fn discarded_batch_publishes_nothing() {
        let c = cluster(1, 1024 * 1024);
        let app = c.handle(CacheOrigin::Application);
        let trig = c.handle(CacheOrigin::Trigger);
        app.set_payload("k", &Payload::Count(7), None).unwrap();
        c.begin_effect_batch();
        let got = trig.gets("k").unwrap();
        trig.cas("k", Payload::Count(99).encode(), got.cas, None)
            .unwrap();
        trig.delete("other");
        let summary = c.discard_effect_batch();
        assert_eq!(summary.keys_flushed, 0);
        assert!(summary.buffered_mutations >= 2);
        assert_eq!(
            app.get_payload("k").unwrap().unwrap().as_count(),
            Some(7),
            "cache byte-identical after discard"
        );
    }

    #[test]
    fn batch_only_intercepts_trigger_origin() {
        let c = cluster(1, 1024 * 1024);
        let app = c.handle(CacheOrigin::Application);
        c.begin_effect_batch();
        app.set_payload("a", &Payload::Count(1), None).unwrap();
        assert_eq!(
            app.get_payload("a").unwrap().unwrap().as_count(),
            Some(1),
            "application writes go straight to the store"
        );
        let summary = c.commit_effect_batch();
        assert_eq!(summary.buffered_mutations, 0);
    }

    #[test]
    fn batch_reads_see_buffered_deletes_and_writes() {
        let c = cluster(1, 1024 * 1024);
        let app = c.handle(CacheOrigin::Application);
        let trig = c.handle(CacheOrigin::Trigger);
        app.set_payload("k", &Payload::Count(1), None).unwrap();
        c.begin_effect_batch();
        assert!(trig.contains("k"));
        trig.delete("k");
        assert!(!trig.contains("k"), "buffered delete visible to triggers");
        assert!(trig.gets("k").is_none());
        assert!(
            app.contains("k"),
            "unpublished delete invisible to the application"
        );
        trig.set("k", Payload::Count(5).encode(), None).unwrap();
        assert_eq!(trig.incr("k", 2).unwrap(), Some(7));
        c.commit_effect_batch();
        assert_eq!(app.get_payload("k").unwrap().unwrap().as_count(), Some(7));
    }

    #[test]
    fn batched_incr_preserves_remaining_ttl() {
        let c = cluster(1, 1024 * 1024);
        let app = c.handle(CacheOrigin::Application);
        let trig = c.handle(CacheOrigin::Trigger);
        c.set_now(1_000);
        app.set_payload("n", &Payload::Count(1), Some(500)).unwrap();
        c.begin_effect_batch();
        assert_eq!(trig.incr("n", 1).unwrap(), Some(2));
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

    #[test]
    fn batch_cas_conflicts_on_stale_buffered_token() {
        let c = cluster(1, 1024 * 1024);
        let trig = c.handle(CacheOrigin::Trigger);
        c.begin_effect_batch();
        trig.set("k", Payload::Count(1).encode(), None).unwrap();
        let t1 = trig.gets("k").unwrap().cas;
        trig.cas("k", Payload::Count(2).encode(), t1, None).unwrap();
        assert!(matches!(
            trig.cas("k", Payload::Count(3).encode(), t1, None),
            Err(CacheError::CasConflict)
        ));
        c.discard_effect_batch();
    }

    #[test]
    fn sealed_batch_visible_to_next_batch_reads_until_published() {
        // Commit A seals count=1 but has not published; commit B's
        // trigger read must see 1 (not the store's 0), or B's increment
        // would be computed from a stale base and lost.
        let c = cluster(1, 1024 * 1024);
        let app = c.handle(CacheOrigin::Application);
        let trig = c.handle(CacheOrigin::Trigger);
        app.set_payload("n", &Payload::Count(0), None).unwrap();
        c.begin_effect_batch();
        assert_eq!(trig.incr("n", 1).unwrap(), Some(1));
        let a = c.take_effect_batch().unwrap(); // sealed, unpublished
        c.begin_effect_batch();
        assert_eq!(
            trig.incr("n", 1).unwrap(),
            Some(2),
            "B reads A's sealed value, not the stale store"
        );
        let b = c.take_effect_batch().unwrap();
        a.publish();
        // Application reads hit the store (transient: B unpublished).
        assert_eq!(app.get_payload("n").unwrap().unwrap().as_count(), Some(1));
        b.publish();
        assert_eq!(app.get_payload("n").unwrap().unwrap().as_count(), Some(2));
    }

    #[test]
    fn cluster_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CacheCluster>();
        assert_send_sync::<CacheHandle>();
    }
}
