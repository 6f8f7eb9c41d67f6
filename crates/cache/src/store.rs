//! A single cache server shard: byte-accurate memory accounting, TTL
//! expiry, CAS, and CLOCK eviction — the feature set memcached 1.4.5
//! offers the paper, plus the read path the scale-out tier needs.
//!
//! Eviction is a CLOCK ring with one reference bit per entry. A GET only
//! sets the bit; it never touches the eviction structure, so concurrent
//! readers of a sharded store spend no time maintaining global recency
//! order and allocate nothing. Eviction sweeps the ring, clearing bits
//! until it finds an unreferenced victim (second-chance LRU
//! approximation).

use crate::error::{CacheError, Result};
use bytes::Bytes;
use std::collections::HashMap;

/// Per-item bookkeeping overhead we model (hash entry, LRU link, CAS).
const ITEM_OVERHEAD: usize = 60;

/// Who is touching the cache: the application read path or the
/// trigger/maintenance write path. Stats are split on this axis so
/// trigger-maintenance traffic can be quantified per node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOrigin {
    /// Application reads/writes (page serving).
    Application,
    /// Trigger-driven maintenance (cache update/invalidate code).
    Trigger,
}

/// Configuration of one cache server shard.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Memory budget in bytes; eviction keeps usage at or below this.
    pub capacity_bytes: usize,
    /// Per-item size limit (memcached defaults to 1 MiB).
    pub item_limit_bytes: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            capacity_bytes: 64 * 1024 * 1024,
            item_limit_bytes: 1024 * 1024,
        }
    }
}

/// Counters for one server since the last reset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// get/gets calls.
    pub gets: u64,
    /// get/gets that returned a value.
    pub hits: u64,
    /// get/gets that found nothing (or an expired entry).
    pub misses: u64,
    /// Hits from application-origin reads.
    pub app_hits: u64,
    /// Misses from application-origin reads.
    pub app_misses: u64,
    /// Hits from trigger-origin reads (maintenance fall-through).
    pub trigger_hits: u64,
    /// Misses from trigger-origin reads.
    pub trigger_misses: u64,
    /// set/add/cas stores that succeeded.
    pub sets: u64,
    /// delete calls that removed an entry.
    pub deletes: u64,
    /// Entries evicted for space.
    pub evictions: u64,
    /// cas attempts.
    pub cas_ops: u64,
    /// cas attempts that lost the race.
    pub cas_conflicts: u64,
    /// Entries dropped because their TTL lapsed.
    pub expired: u64,
}

impl StoreStats {
    /// Field-wise accumulation, for aggregating shards and servers.
    pub fn merge(&mut self, o: &StoreStats) {
        self.gets += o.gets;
        self.hits += o.hits;
        self.misses += o.misses;
        self.app_hits += o.app_hits;
        self.app_misses += o.app_misses;
        self.trigger_hits += o.trigger_hits;
        self.trigger_misses += o.trigger_misses;
        self.sets += o.sets;
        self.deletes += o.deletes;
        self.evictions += o.evictions;
        self.cas_ops += o.cas_ops;
        self.cas_conflicts += o.cas_conflicts;
        self.expired += o.expired;
    }
}

#[derive(Debug, Clone)]
struct Entry {
    data: Bytes,
    /// Index of this key in the ring vector.
    ring: usize,
    /// Second-chance reference bit, set by bumped GETs.
    referenced: bool,
    cas: u64,
    /// Absolute expiry instant (same unit as the caller's `now`), if any.
    expires_at: Option<u64>,
}

impl Entry {
    fn size(&self, key: &str) -> usize {
        key.len() + self.data.len() + ITEM_OVERHEAD
    }

    fn expired(&self, now: u64) -> bool {
        matches!(self.expires_at, Some(t) if now >= t)
    }
}

/// One cache server shard. Single-threaded by itself; the cluster wraps
/// each shard in its own lock (see [`crate::ShardedStore`]).
#[derive(Debug)]
pub struct CacheStore {
    config: StoreConfig,
    map: HashMap<String, Entry>,
    /// The CLOCK ring of live keys; `hand` is the sweep cursor.
    ring: Vec<String>,
    hand: usize,
    next_cas: u64,
    bytes: usize,
    stats: StoreStats,
}

/// Result of a `gets`: the value plus its CAS token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueWithCas {
    /// The stored bytes.
    pub data: Bytes,
    /// Token to pass back to [`CacheStore::cas`].
    pub cas: u64,
}

impl CacheStore {
    /// Creates a store with the given configuration.
    pub fn new(config: StoreConfig) -> Self {
        CacheStore {
            config,
            map: HashMap::new(),
            ring: Vec::new(),
            hand: 0,
            next_cas: 1,
            bytes: 0,
            stats: StoreStats::default(),
        }
    }

    /// Fetches `key`. `now` drives TTL expiry; `bump` controls whether the
    /// hit refreshes recency (the paper notes trigger touches bump LRU
    /// in unmodified memcached and suggests an opt-out).
    pub fn get(&mut self, key: &str, now: u64, bump: bool) -> Option<Bytes> {
        self.get_as(key, now, bump, CacheOrigin::Application)
    }

    /// [`CacheStore::get`] with an explicit traffic origin for stats.
    pub fn get_as(
        &mut self,
        key: &str,
        now: u64,
        bump: bool,
        origin: CacheOrigin,
    ) -> Option<Bytes> {
        self.gets_as(key, now, bump, origin).map(|v| v.data)
    }

    /// Reads `key` and its remaining TTL (`None` = no expiry) for an
    /// in-place update of the value: no hit or miss is counted, and
    /// `bump` sets the recency bit as a bumped get does.
    pub fn read_for_update(
        &mut self,
        key: &str,
        now: u64,
        bump: bool,
    ) -> Option<(Bytes, Option<u64>)> {
        match self.map.get_mut(key) {
            Some(e) if !e.expired(now) => {
                if bump {
                    e.referenced = true;
                }
                Some((e.data.clone(), e.expires_at.map(|t| t.saturating_sub(now))))
            }
            Some(_) => {
                self.expire(key);
                None
            }
            None => None,
        }
    }

    /// Like [`CacheStore::get`] but also returns the CAS token.
    pub fn gets(&mut self, key: &str, now: u64, bump: bool) -> Option<ValueWithCas> {
        self.gets_as(key, now, bump, CacheOrigin::Application)
    }

    /// [`CacheStore::gets`] with an explicit traffic origin for stats.
    pub fn gets_as(
        &mut self,
        key: &str,
        now: u64,
        bump: bool,
        origin: CacheOrigin,
    ) -> Option<ValueWithCas> {
        self.stats.gets += 1;
        // One probe: an expired entry is found, removed and missed.
        match self.map.get_mut(key) {
            Some(e) if !e.expired(now) => {
                let out = ValueWithCas {
                    data: e.data.clone(),
                    cas: e.cas,
                };
                if bump {
                    // A read only flips the reference bit — no write to
                    // the ring, no allocation.
                    e.referenced = true;
                }
                self.count_hit(origin);
                Some(out)
            }
            found => {
                if found.is_some() {
                    self.expire(key);
                }
                self.count_miss(origin);
                None
            }
        }
    }

    /// Stores `key`, replacing any existing value. `ttl` is a relative
    /// duration in the caller's time unit; `None` means no expiry.
    ///
    /// # Errors
    ///
    /// [`CacheError::ValueTooLarge`] if the value exceeds the item limit.
    pub fn set(&mut self, key: &str, data: Bytes, ttl: Option<u64>, now: u64) -> Result<()> {
        self.check_size(&data)?;
        self.remove_entry(key);
        self.insert_entry(key, data, ttl, now);
        self.stats.sets += 1;
        self.evict_to_capacity();
        Ok(())
    }

    /// Stores `key` only if absent (memcached `add`).
    ///
    /// # Errors
    ///
    /// [`CacheError::AlreadyStored`] if a live entry exists;
    /// [`CacheError::ValueTooLarge`] for oversized values.
    pub fn add(&mut self, key: &str, data: Bytes, ttl: Option<u64>, now: u64) -> Result<()> {
        self.check_size(&data)?;
        self.purge_if_expired(key, now);
        if self.map.contains_key(key) {
            return Err(CacheError::AlreadyStored);
        }
        self.insert_entry(key, data, ttl, now);
        self.stats.sets += 1;
        self.evict_to_capacity();
        Ok(())
    }

    /// Compare-and-swap: stores only if `token` still matches the entry's
    /// CAS value (memcached `cas`). A missing or replaced entry conflicts.
    ///
    /// # Errors
    ///
    /// [`CacheError::CasConflict`] if the token no longer matches;
    /// [`CacheError::ValueTooLarge`] for oversized values.
    pub fn cas(
        &mut self,
        key: &str,
        data: Bytes,
        token: u64,
        ttl: Option<u64>,
        now: u64,
    ) -> Result<()> {
        self.check_size(&data)?;
        self.stats.cas_ops += 1;
        self.purge_if_expired(key, now);
        match self.map.get(key) {
            Some(e) if e.cas == token => {
                self.remove_entry(key);
                self.insert_entry(key, data, ttl, now);
                self.stats.sets += 1;
                self.evict_to_capacity();
                Ok(())
            }
            _ => {
                self.stats.cas_conflicts += 1;
                Err(CacheError::CasConflict)
            }
        }
    }

    /// Deletes `key`; returns whether a live entry was removed.
    pub fn delete(&mut self, key: &str) -> bool {
        let existed = self.remove_entry(key);
        if existed {
            self.stats.deletes += 1;
        }
        existed
    }

    /// Atomically adds `delta` to a [`crate::Payload::Count`] entry,
    /// returning the new value, or `None` on a miss.
    ///
    /// # Errors
    ///
    /// [`CacheError::Codec`] if the entry is not a count payload.
    pub fn incr(&mut self, key: &str, delta: i64, now: u64) -> Result<Option<i64>> {
        self.purge_if_expired(key, now);
        let Some(e) = self.map.get(key) else {
            return Ok(None);
        };
        let payload = crate::Payload::decode(&e.data)?;
        let n = payload
            .as_count()
            .ok_or_else(|| CacheError::Codec("incr target is not a count".into()))?;
        let new = n + delta;
        let ttl_rest = e.expires_at.map(|t| t.saturating_sub(now));
        let token = e.cas;
        self.cas(
            key,
            crate::Payload::Count(new).encode(),
            token,
            ttl_rest,
            now,
        )?;
        Ok(Some(new))
    }

    /// True if a live (unexpired) entry exists; does not touch recency.
    pub fn contains(&mut self, key: &str, now: u64) -> bool {
        !self.purge_if_expired(key, now) && self.map.contains_key(key)
    }

    /// Removes everything (memcached `flush_all`).
    pub fn flush_all(&mut self) {
        self.map.clear();
        self.ring.clear();
        self.hand = 0;
        self.bytes = 0;
    }

    /// All live keys (cloned). Used by node rejoin to drop entries whose
    /// ownership moved back to the revived node.
    pub fn keys(&self) -> Vec<String> {
        self.map.keys().cloned().collect()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Zeroes counters without touching stored data.
    pub fn reset_stats(&mut self) {
        self.stats = StoreStats::default();
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Bytes currently accounted (values + keys + modelled overhead).
    pub fn bytes_used(&self) -> usize {
        self.bytes
    }

    /// The configured byte capacity.
    pub fn capacity_bytes(&self) -> usize {
        self.config.capacity_bytes
    }

    // ----- internals -----

    fn count_hit(&mut self, origin: CacheOrigin) {
        self.stats.hits += 1;
        match origin {
            CacheOrigin::Application => self.stats.app_hits += 1,
            CacheOrigin::Trigger => self.stats.trigger_hits += 1,
        }
    }

    fn count_miss(&mut self, origin: CacheOrigin) {
        self.stats.misses += 1;
        match origin {
            CacheOrigin::Application => self.stats.app_misses += 1,
            CacheOrigin::Trigger => self.stats.trigger_misses += 1,
        }
    }

    fn check_size(&self, data: &Bytes) -> Result<()> {
        if data.len() > self.config.item_limit_bytes {
            return Err(CacheError::ValueTooLarge {
                size: data.len(),
                limit: self.config.item_limit_bytes,
            });
        }
        Ok(())
    }

    /// Removes `key` if its TTL lapsed; returns true if it was expired.
    fn purge_if_expired(&mut self, key: &str, now: u64) -> bool {
        let expired = matches!(self.map.get(key), Some(e) if e.expired(now));
        if expired {
            self.expire(key);
        }
        expired
    }

    /// Drops `key`, whose TTL lapsed.
    fn expire(&mut self, key: &str) {
        self.remove_entry(key);
        self.stats.expired += 1;
    }

    fn insert_entry(&mut self, key: &str, data: Bytes, ttl: Option<u64>, now: u64) {
        let cas = self.next_cas;
        self.next_cas += 1;
        let entry = Entry {
            data,
            // New entries start unreferenced: a key inserted and never
            // read again is the first CLOCK victim, matching LRU for
            // the insert-then-bump test traces.
            ring: self.ring.len(),
            referenced: false,
            cas,
            expires_at: ttl.map(|d| now.saturating_add(d)),
        };
        self.bytes += entry.size(key);
        self.ring.push(key.to_owned());
        self.map.insert(key.to_owned(), entry);
    }

    fn remove_entry(&mut self, key: &str) -> bool {
        if let Some(e) = self.map.remove(key) {
            self.bytes -= e.size(key);
            // swap_remove keeps the ring dense; the entry that moved
            // into the hole needs its index patched.
            let idx = e.ring;
            self.ring.swap_remove(idx);
            if idx < self.ring.len() {
                let moved = self.ring[idx].clone();
                if let Some(m) = self.map.get_mut(&moved) {
                    m.ring = idx;
                }
            }
            if self.hand >= self.ring.len() {
                self.hand = 0;
            }
            true
        } else {
            false
        }
    }

    /// CLOCK sweep until usage is back under capacity.
    fn evict_to_capacity(&mut self) {
        while self.bytes > self.config.capacity_bytes {
            if self.ring.is_empty() {
                break;
            }
            let idx = self.hand % self.ring.len();
            let key = self.ring[idx].clone();
            let referenced = self
                .map
                .get_mut(&key)
                .map(|e| {
                    let r = e.referenced;
                    e.referenced = false;
                    r
                })
                .unwrap_or(false);
            if referenced {
                // Second chance: clear the bit and advance the hand.
                self.hand = (idx + 1) % self.ring.len();
            } else {
                // Victim. remove_entry swap-fills the hole, so the hand
                // stays put and examines the entry that moved in.
                self.remove_entry(&key);
                self.stats.evictions += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Payload;

    fn small_store(capacity: usize) -> CacheStore {
        CacheStore::new(StoreConfig {
            capacity_bytes: capacity,
            item_limit_bytes: 1024,
        })
    }

    fn bytes_of(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn set_get_roundtrip() {
        let mut s = small_store(10_000);
        s.set("k", bytes_of("v"), None, 0).unwrap();
        assert_eq!(s.get("k", 0, true).unwrap(), bytes_of("v"));
        assert_eq!(s.stats().hits, 1);
        assert!(s.get("nope", 0, true).is_none());
        assert_eq!(s.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_oldest_first() {
        // Each entry ~ key(2) + data(10) + 60 ≈ 72 bytes; room for ~3.
        let mut s = small_store(220);
        for i in 0..3 {
            s.set(&format!("k{i}"), Bytes::from(vec![0u8; 10]), None, 0)
                .unwrap();
        }
        // Touch k0 so k1 becomes coldest.
        s.get("k0", 0, true);
        s.set("k3", Bytes::from(vec![0u8; 10]), None, 0).unwrap();
        assert!(s.get("k0", 0, true).is_some(), "k0 was touched, survives");
        assert!(s.get("k1", 0, true).is_none(), "k1 was coldest, evicted");
        assert!(s.stats().evictions >= 1);
        assert!(s.bytes_used() <= s.capacity_bytes());
    }

    #[test]
    fn no_bump_get_leaves_lru_order() {
        let mut s = small_store(220);
        for i in 0..3 {
            s.set(&format!("k{i}"), Bytes::from(vec![0u8; 10]), None, 0)
                .unwrap();
        }
        // Touch k0 WITHOUT bump: k0 stays coldest and is evicted next.
        s.get("k0", 0, false);
        s.set("k3", Bytes::from(vec![0u8; 10]), None, 0).unwrap();
        assert!(s.get("k0", 0, false).is_none(), "k0 not bumped, evicted");
        assert!(s.get("k1", 0, false).is_some());
    }

    #[test]
    fn clock_second_chance_survives_full_sweep() {
        // All entries referenced: the first eviction pass clears every
        // bit, the second pass evicts the entry under the hand — the
        // sweep must terminate and free space.
        let mut s = small_store(220);
        for i in 0..3 {
            s.set(&format!("k{i}"), Bytes::from(vec![0u8; 10]), None, 0)
                .unwrap();
            s.get(&format!("k{i}"), 0, true);
        }
        s.set("k3", Bytes::from(vec![0u8; 10]), None, 0).unwrap();
        assert!(s.bytes_used() <= s.capacity_bytes());
        assert_eq!(s.len(), 3);
        assert!(s.stats().evictions >= 1);
    }

    #[test]
    fn ttl_expiry() {
        let mut s = small_store(10_000);
        s.set("k", bytes_of("v"), Some(100), 1000).unwrap();
        assert!(s.get("k", 1050, true).is_some());
        assert!(s.get("k", 1100, true).is_none(), "expired exactly at ttl");
        assert_eq!(s.stats().expired, 1);
        assert!(!s.contains("k", 1100));
    }

    #[test]
    fn add_only_when_absent() {
        let mut s = small_store(10_000);
        s.add("k", bytes_of("a"), None, 0).unwrap();
        assert!(matches!(
            s.add("k", bytes_of("b"), None, 0),
            Err(CacheError::AlreadyStored)
        ));
        // After expiry, add succeeds again.
        s.set("e", bytes_of("x"), Some(10), 0).unwrap();
        s.add("e", bytes_of("y"), None, 20).unwrap();
        assert_eq!(s.get("e", 20, true).unwrap(), bytes_of("y"));
    }

    #[test]
    fn cas_happy_path_and_conflict() {
        let mut s = small_store(10_000);
        s.set("k", bytes_of("v1"), None, 0).unwrap();
        let v = s.gets("k", 0, true).unwrap();
        s.cas("k", bytes_of("v2"), v.cas, None, 0).unwrap();
        assert_eq!(s.get("k", 0, true).unwrap(), bytes_of("v2"));
        // Old token now conflicts.
        assert!(matches!(
            s.cas("k", bytes_of("v3"), v.cas, None, 0),
            Err(CacheError::CasConflict)
        ));
        assert_eq!(s.stats().cas_conflicts, 1);
    }

    #[test]
    fn cas_on_missing_key_conflicts() {
        let mut s = small_store(10_000);
        assert!(matches!(
            s.cas("ghost", bytes_of("v"), 1, None, 0),
            Err(CacheError::CasConflict)
        ));
    }

    #[test]
    fn cas_token_changes_on_every_store() {
        let mut s = small_store(10_000);
        s.set("k", bytes_of("a"), None, 0).unwrap();
        let t1 = s.gets("k", 0, true).unwrap().cas;
        s.set("k", bytes_of("b"), None, 0).unwrap();
        let t2 = s.gets("k", 0, true).unwrap().cas;
        assert_ne!(t1, t2);
    }

    #[test]
    fn delete_frees_bytes() {
        let mut s = small_store(10_000);
        s.set("k", Bytes::from(vec![0u8; 100]), None, 0).unwrap();
        let used = s.bytes_used();
        assert!(used > 100);
        assert!(s.delete("k"));
        assert_eq!(s.bytes_used(), 0);
        assert!(!s.delete("k"));
        assert_eq!(s.stats().deletes, 1);
    }

    #[test]
    fn incr_on_count_payload() {
        let mut s = small_store(10_000);
        s.set("n", Payload::Count(10).encode(), None, 0).unwrap();
        assert_eq!(s.incr("n", 5, 0).unwrap(), Some(15));
        assert_eq!(s.incr("n", -3, 0).unwrap(), Some(12));
        let got = Payload::decode(&s.get("n", 0, true).unwrap()).unwrap();
        assert_eq!(got, Payload::Count(12));
        assert_eq!(s.incr("missing", 1, 0).unwrap(), None);
    }

    #[test]
    fn incr_on_non_count_errors() {
        let mut s = small_store(10_000);
        s.set("r", Payload::Rows(vec![]).encode(), None, 0).unwrap();
        assert!(s.incr("r", 1, 0).is_err());
    }

    #[test]
    fn value_too_large_rejected() {
        let mut s = small_store(10_000);
        let err = s
            .set("k", Bytes::from(vec![0u8; 2048]), None, 0)
            .unwrap_err();
        assert!(matches!(err, CacheError::ValueTooLarge { .. }));
        assert!(s.is_empty());
    }

    #[test]
    fn flush_all_clears() {
        let mut s = small_store(10_000);
        s.set("a", bytes_of("1"), None, 0).unwrap();
        s.set("b", bytes_of("2"), None, 0).unwrap();
        s.flush_all();
        assert!(s.is_empty());
        assert_eq!(s.bytes_used(), 0);
        // The store keeps working after a flush.
        s.set("c", bytes_of("3"), None, 0).unwrap();
        assert!(s.get("c", 0, true).is_some());
    }

    #[test]
    fn overwrite_replaces_accounting() {
        let mut s = small_store(10_000);
        s.set("k", Bytes::from(vec![0u8; 100]), None, 0).unwrap();
        let big = s.bytes_used();
        s.set("k", Bytes::from(vec![0u8; 10]), None, 0).unwrap();
        assert!(s.bytes_used() < big);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn memory_bound_never_exceeded_under_churn() {
        let mut s = small_store(500);
        for i in 0..200 {
            s.set(
                &format!("key{i}"),
                Bytes::from(vec![0u8; (i % 40) as usize]),
                None,
                0,
            )
            .unwrap();
            assert!(
                s.bytes_used() <= s.capacity_bytes(),
                "iteration {i}: {} > {}",
                s.bytes_used(),
                s.capacity_bytes()
            );
        }
    }

    #[test]
    fn clock_ring_stays_consistent_under_churn() {
        // Interleave sets, deletes, and evictions; every surviving key
        // must still be readable (ring indices patched correctly).
        let mut s = small_store(600);
        for i in 0..300 {
            let k = format!("key{}", i % 23);
            match i % 5 {
                0..=2 => {
                    s.set(&k, Bytes::from(vec![0u8; (i % 30) as usize]), None, 0)
                        .unwrap();
                }
                3 => {
                    s.delete(&k);
                }
                _ => {
                    s.get(&k, 0, true);
                }
            }
        }
        for k in s.keys() {
            assert!(s.get(&k, 0, false).is_some(), "live key {k} readable");
        }
        assert!(s.bytes_used() <= s.capacity_bytes());
    }

    #[test]
    fn origin_split_stats() {
        let mut s = small_store(10_000);
        s.set("k", bytes_of("v"), None, 0).unwrap();
        s.get_as("k", 0, true, CacheOrigin::Application);
        s.get_as("k", 0, false, CacheOrigin::Trigger);
        s.get_as("miss", 0, true, CacheOrigin::Application);
        s.get_as("miss", 0, false, CacheOrigin::Trigger);
        let st = s.stats();
        assert_eq!(st.app_hits, 1);
        assert_eq!(st.trigger_hits, 1);
        assert_eq!(st.app_misses, 1);
        assert_eq!(st.trigger_misses, 1);
        assert_eq!(st.hits, st.app_hits + st.trigger_hits);
        assert_eq!(st.misses, st.app_misses + st.trigger_misses);
    }

    #[test]
    fn read_for_update_counts_no_hit_or_miss() {
        let mut s = small_store(10_000);
        s.set("k", bytes_of("v"), Some(100), 0).unwrap();
        let before = s.stats();
        assert_eq!(
            s.read_for_update("k", 0, false),
            Some((bytes_of("v"), Some(100)))
        );
        assert_eq!(s.read_for_update("k", 40, true).unwrap().1, Some(60));
        assert!(s.read_for_update("ghost", 0, false).is_none());
        assert_eq!(s.stats(), before);
        assert!(s.read_for_update("k", 100, false).is_none(), "expired");
    }

    #[test]
    fn expired_reads_count_once_and_release_their_bytes() {
        let mut s = small_store(10_000);
        s.set("stay", bytes_of("w"), None, 0).unwrap();
        let stay_bytes = s.bytes_used();
        s.set("k", bytes_of("v"), Some(100), 0).unwrap();
        let before = s.stats();
        assert!(s.gets("k", 100, true).is_none());
        let after = s.stats();
        assert_eq!(after.gets, before.gets + 1);
        assert_eq!(after.misses, before.misses + 1);
        assert_eq!(after.app_misses, before.app_misses + 1);
        assert_eq!(after.expired, before.expired + 1);
        assert_eq!(after.hits, before.hits);
        assert_eq!((s.len(), s.bytes_used()), (1, stay_bytes));
        assert!(s.gets("k", 100, true).is_none(), "gone, not expired again");
        assert_eq!(s.stats().expired, after.expired);

        s.set("k", bytes_of("v"), Some(100), 200).unwrap();
        let before = s.stats();
        assert!(s.read_for_update("k", 300, false).is_none());
        let after = s.stats();
        assert_eq!(after.expired, before.expired + 1);
        assert_eq!(
            (after.gets, after.hits, after.misses),
            (before.gets, before.hits, before.misses)
        );
        assert_eq!((s.len(), s.bytes_used()), (1, stay_bytes));
    }
}
