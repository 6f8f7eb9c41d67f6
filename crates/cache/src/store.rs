//! A single cache server shard: byte-accurate memory accounting, TTL
//! expiry, CAS, and CLOCK eviction — the feature set memcached 1.4.5
//! offers the paper, plus the read path the scale-out tier needs.
//!
//! Each cached item is one heap block, as memcached keeps an item in one
//! slab chunk: the key's length, the key and the value side by side in
//! one refcounted buffer (`Item`). The map is keyed by the item (looked
//! up through its key bytes), the CLOCK ring holds handles to the same
//! items, so the key is stored once, and a hit hands out a [`Bytes`] view
//! of the item's value part. What eviction accounts per item is modelled,
//! not measured: key + value + `ITEM_OVERHEAD`.
//!
//! Eviction is a CLOCK ring with one reference bit per entry. A GET only
//! sets the bit; it never touches the eviction structure, so concurrent
//! readers of a sharded store spend no time maintaining global recency
//! order and allocate nothing. Eviction sweeps the ring, clearing bits
//! until it finds an unreferenced victim (second-chance LRU
//! approximation).
//!
//! Every operation probes the map once for the key: an expired entry is
//! found, dropped and counted in that same probe.

use crate::error::{CacheError, Result};
use bytes::Bytes;
use std::borrow::Borrow;
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Range;

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

/// One cached item in one heap block: the key's length (LEB128, so any
/// key fits), the key, then the value. Clones share the block. Hashed
/// and compared by its key bytes, so the map finds it by `&[u8]`.
#[derive(Clone)]
struct Item(Bytes);

impl Item {
    /// Lays `key` and `value` out in `scratch`, then copies them into
    /// the item's block: one allocation.
    fn new(scratch: &mut Vec<u8>, key: &str, value: &[u8]) -> Item {
        scratch.clear();
        let mut n = key.len();
        while n >= 0x80 {
            scratch.push((n & 0x7f) as u8 | 0x80);
            n >>= 7;
        }
        scratch.push(n as u8);
        scratch.extend_from_slice(key.as_bytes());
        scratch.extend_from_slice(value);
        Item(Bytes::copy_from_slice(scratch))
    }

    /// Where the key lies in the block.
    fn key_span(&self) -> Range<usize> {
        let (mut len, mut shift, mut at) = (0usize, 0, 0);
        loop {
            let b = self.0[at];
            at += 1;
            len |= usize::from(b & 0x7f) << shift;
            if b < 0x80 {
                return at..at + len;
            }
            shift += 7;
        }
    }

    fn key(&self) -> &[u8] {
        &self.0[self.key_span()]
    }

    /// A view of the value: no copy.
    fn value(&self) -> Bytes {
        self.0.slice(self.key_span().end..)
    }

    /// Bytes accounted against capacity: key + value + modelled overhead.
    fn size(&self) -> usize {
        self.0.len() - self.key_span().start + ITEM_OVERHEAD
    }
}

impl Borrow<[u8]> for Item {
    fn borrow(&self) -> &[u8] {
        self.key()
    }
}

impl PartialEq for Item {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Item {}

impl Hash for Item {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

impl fmt::Debug for Item {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Item({:?})", String::from_utf8_lossy(self.key()))
    }
}

#[derive(Debug)]
struct Entry {
    /// Index of this item in the ring vector.
    ring: u32,
    /// Second-chance reference bit, set by bumped GETs (through a shared
    /// borrow, so a hit is one `get_key_value`).
    referenced: Cell<bool>,
    cas: u64,
    /// Absolute expiry instant (same unit as the caller's `now`), if any.
    expires_at: Option<u64>,
}

impl Entry {
    fn expired(&self, now: u64) -> bool {
        matches!(self.expires_at, Some(t) if now >= t)
    }
}

/// One cache server shard. Single-threaded by itself; the cluster wraps
/// each shard in its own lock (see [`crate::ShardedStore`]).
#[derive(Debug)]
pub struct CacheStore {
    config: StoreConfig,
    map: HashMap<Item, Entry>,
    /// The CLOCK ring of live items; `hand` is the sweep cursor.
    ring: Vec<Item>,
    hand: usize,
    next_cas: u64,
    bytes: usize,
    stats: StoreStats,
    /// Reused to lay out each new item before it is copied into its own
    /// block.
    scratch: Vec<u8>,
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
            scratch: Vec::new(),
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
        match self.map.get_key_value(key.as_bytes()) {
            Some((item, e)) if !e.expired(now) => {
                if bump {
                    e.referenced.set(true);
                }
                Some((item.value(), e.expires_at.map(|t| t.saturating_sub(now))))
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
        match self.map.get_key_value(key.as_bytes()) {
            Some((item, e)) if !e.expired(now) => {
                if bump {
                    // A read only flips the reference bit — no write to
                    // the ring, no allocation.
                    e.referenced.set(true);
                }
                let out = ValueWithCas {
                    data: item.value(),
                    cas: e.cas,
                };
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
        self.replace(key, &data, ttl, now);
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
        match self.map.get(key.as_bytes()) {
            Some(e) if !e.expired(now) => return Err(CacheError::AlreadyStored),
            Some(_) => self.expire(key),
            None => {}
        }
        self.store(key, &data, ttl, now);
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
        let matched = match self.map.get(key.as_bytes()) {
            Some(e) if e.expired(now) => {
                self.expire(key);
                false
            }
            found => found.is_some_and(|e| e.cas == token),
        };
        if !matched {
            self.stats.cas_conflicts += 1;
            return Err(CacheError::CasConflict);
        }
        self.replace(key, &data, ttl, now);
        Ok(())
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
    /// returning the new value, or `None` on a miss. Counted as the
    /// `cas` it amounts to.
    ///
    /// # Errors
    ///
    /// [`CacheError::Codec`] if the entry is not a count payload;
    /// [`CacheError::ValueTooLarge`] if the item limit cannot hold one.
    pub fn incr(&mut self, key: &str, delta: i64, now: u64) -> Result<Option<i64>> {
        let (new, ttl_rest) = match self.map.get_key_value(key.as_bytes()) {
            None => return Ok(None),
            Some((_, e)) if e.expired(now) => {
                self.expire(key);
                return Ok(None);
            }
            Some((item, e)) => {
                let n = crate::Payload::decode(&item.value())?
                    .as_count()
                    .ok_or_else(|| CacheError::Codec("incr target is not a count".into()))?;
                (n + delta, e.expires_at.map(|t| t.saturating_sub(now)))
            }
        };
        let data = crate::Payload::Count(new).encode();
        self.check_size(&data)?;
        self.stats.cas_ops += 1;
        self.replace(key, &data, ttl_rest, now);
        Ok(Some(new))
    }

    /// True if a live (unexpired) entry exists; does not touch recency.
    pub fn contains(&mut self, key: &str, now: u64) -> bool {
        match self.map.get(key.as_bytes()) {
            Some(e) if e.expired(now) => {
                self.expire(key);
                false
            }
            found => found.is_some(),
        }
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
        self.map
            .keys()
            .map(|item| String::from_utf8_lossy(item.key()).into_owned())
            .collect()
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

    /// Drops `key`, whose TTL lapsed.
    fn expire(&mut self, key: &str) {
        self.remove_entry(key);
        self.stats.expired += 1;
    }

    /// Stores `key` over whatever entry it has: a successful set or cas.
    fn replace(&mut self, key: &str, data: &[u8], ttl: Option<u64>, now: u64) {
        self.remove_entry(key);
        self.store(key, data, ttl, now);
    }

    /// Stores `key`, known to be absent, and evicts down to capacity.
    fn store(&mut self, key: &str, data: &[u8], ttl: Option<u64>, now: u64) {
        let item = Item::new(&mut self.scratch, key, data);
        let cas = self.next_cas;
        self.next_cas += 1;
        let entry = Entry {
            // New entries start unreferenced: a key inserted and never
            // read again is the first CLOCK victim, matching LRU for
            // the insert-then-bump test traces.
            ring: u32::try_from(self.ring.len()).expect("a shard holds under 2^32 items"),
            referenced: Cell::new(false),
            cas,
            expires_at: ttl.map(|d| now.saturating_add(d)),
        };
        self.bytes += item.size();
        self.ring.push(item.clone());
        self.map.insert(item, entry);
        self.stats.sets += 1;
        self.evict_to_capacity();
    }

    fn remove_entry(&mut self, key: &str) -> bool {
        match self.map.remove_entry(key.as_bytes()) {
            Some((item, e)) => {
                self.unlink(&item, e.ring);
                true
            }
            None => false,
        }
    }

    /// Releases a removed item's bytes and its ring slot.
    fn unlink(&mut self, item: &Item, ring: u32) {
        self.bytes -= item.size();
        // swap_remove keeps the ring dense; the entry that moved into the
        // hole needs its index patched.
        let idx = ring as usize;
        self.ring.swap_remove(idx);
        if let Some(moved) = self.ring.get(idx) {
            if let Some(m) = self.map.get_mut(moved.key()) {
                m.ring = ring;
            }
        }
        if self.hand >= self.ring.len() {
            self.hand = 0;
        }
    }

    /// CLOCK sweep until usage is back under capacity.
    fn evict_to_capacity(&mut self) {
        while self.bytes > self.config.capacity_bytes {
            if self.ring.is_empty() {
                break;
            }
            let idx = self.hand % self.ring.len();
            let key = self.ring[idx].key();
            if self.map[key].referenced.replace(false) {
                // Second chance: clear the bit and advance the hand.
                self.hand = (idx + 1) % self.ring.len();
            } else {
                // Victim. unlink swap-fills the hole, so the hand stays
                // put and examines the entry that moved in.
                let (item, e) = self
                    .map
                    .remove_entry(key)
                    .expect("ring items are in the map");
                self.unlink(&item, e.ring);
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

        // The writes and `contains` find, drop and count an expired entry
        // in the same probe, and only once.
        let expire_then = |s: &mut CacheStore, op: &dyn Fn(&mut CacheStore)| {
            s.set("k", Payload::Count(1).encode(), Some(100), 400)
                .unwrap();
            let before = s.stats();
            op(s);
            let after = s.stats();
            assert_eq!(after.expired, before.expired + 1);
            (before, after)
        };
        let (before, after) = expire_then(&mut s, &|s| {
            assert!(!s.contains("k", 500));
            assert!(!s.contains("k", 500), "gone, not expired again");
        });
        assert_eq!(
            StoreStats {
                expired: before.expired,
                ..after
            },
            before
        );
        assert_eq!((s.len(), s.bytes_used()), (1, stay_bytes));

        let (before, after) = expire_then(&mut s, &|s| {
            assert_eq!(s.incr("k", 1, 500).unwrap(), None);
            assert_eq!(s.incr("k", 1, 500).unwrap(), None);
        });
        assert_eq!(
            StoreStats {
                expired: before.expired,
                ..after
            },
            before
        );
        assert_eq!((s.len(), s.bytes_used()), (1, stay_bytes));

        let (before, after) = expire_then(&mut s, &|s| {
            let token = s.gets("k", 499, false).unwrap().cas;
            assert_eq!(
                s.cas("k", bytes_of("w"), token, None, 500),
                Err(CacheError::CasConflict)
            );
            assert_eq!(
                s.cas("k", bytes_of("w"), token, None, 500),
                Err(CacheError::CasConflict)
            );
        });
        assert_eq!(
            (after.cas_ops, after.cas_conflicts),
            (before.cas_ops + 2, before.cas_conflicts + 2)
        );
        assert_eq!(after.sets, before.sets);
        assert_eq!((s.len(), s.bytes_used()), (1, stay_bytes));

        let (before, after) = expire_then(&mut s, &|s| {
            s.add("k", bytes_of("v"), None, 500).unwrap();
        });
        assert_eq!(after.sets, before.sets + 1);
        assert_eq!(
            (s.len(), s.bytes_used()),
            (2, stay_bytes + 2 + ITEM_OVERHEAD)
        );
        assert_eq!(s.get("k", 10_000, false).unwrap(), bytes_of("v"));
    }
}
