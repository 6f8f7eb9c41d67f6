//! Differential test of the cache store against a reference model.
//!
//! The model is the store as it was when each entry kept a `String` key
//! in the map, a second copy of it in the CLOCK ring, and its value as a
//! separate `Bytes`. The one-block store must be indistinguishable from
//! it: the same answers, and the same `len`, `bytes_used`, keys and
//! counters after every step, under random operations at a capacity
//! small enough that most stores evict.

use bytes::Bytes;
use genie_cache::{
    CacheError, CacheOrigin, CacheStore, Payload, Result, StoreConfig, StoreStats, ValueWithCas,
};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

/// Per-item bookkeeping overhead we model (hash entry, LRU link, CAS).
const ITEM_OVERHEAD: usize = 60;

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

/// The reference model: the `String`-keyed CLOCK store, as it was before
/// items became one block each.
#[derive(Debug)]
pub struct ModelStore {
    config: StoreConfig,
    map: HashMap<String, Entry>,
    /// The CLOCK ring of live keys; `hand` is the sweep cursor.
    ring: Vec<String>,
    hand: usize,
    next_cas: u64,
    bytes: usize,
    stats: StoreStats,
}

impl ModelStore {
    /// Creates a store with the given configuration.
    pub fn new(config: StoreConfig) -> Self {
        ModelStore {
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

    /// [`ModelStore::get`] with an explicit traffic origin for stats.
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

    /// Like [`ModelStore::get`] but also returns the CAS token.
    pub fn gets(&mut self, key: &str, now: u64, bump: bool) -> Option<ValueWithCas> {
        self.gets_as(key, now, bump, CacheOrigin::Application)
    }

    /// [`ModelStore::gets`] with an explicit traffic origin for stats.
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

    /// Atomically adds `delta` to a [`Payload::Count`] entry,
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
        let payload = Payload::decode(&e.data)?;
        let n = payload
            .as_count()
            .ok_or_else(|| CacheError::Codec("incr target is not a count".into()))?;
        let new = n + delta;
        let ttl_rest = e.expires_at.map(|t| t.saturating_sub(now));
        let token = e.cas;
        self.cas(key, Payload::Count(new).encode(), token, ttl_rest, now)?;
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

#[derive(Debug, Clone)]
enum Op {
    Set(String, usize, Option<u64>),
    SetCount(String, i64, Option<u64>),
    Add(String, usize, Option<u64>),
    /// Tries the last token a `gets` returned, plus an offset.
    Cas(String, usize, u64, Option<u64>),
    Delete(String),
    Get(String, bool),
    Gets(String, bool, bool),
    ReadForUpdate(String, bool),
    Incr(String, i64),
    Contains(String),
    Advance(u64),
}

/// Short keys collide often; repeated ones reach past 127 bytes, where
/// the one-block item's key length takes a second byte.
fn key() -> BoxedStrategy<String> {
    prop_oneof![
        "[a-f]{1,2}",
        "[a-f]{1,2}",
        "[a-b]{1,2}".prop_map(|k| k.repeat(70)),
    ]
    .boxed()
}

fn ttl() -> impl Strategy<Value = Option<u64>> {
    proptest::option::of(1u64..20)
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (key(), 0usize..130, ttl()).prop_map(|(k, n, t)| Op::Set(k, n, t)),
        (key(), -5i64..5, ttl()).prop_map(|(k, n, t)| Op::SetCount(k, n, t)),
        (key(), 0usize..130, ttl()).prop_map(|(k, n, t)| Op::Add(k, n, t)),
        (key(), 0usize..130, 0u64..2, ttl()).prop_map(|(k, n, o, t)| Op::Cas(k, n, o, t)),
        key().prop_map(Op::Delete),
        (key(), any::<bool>()).prop_map(|(k, b)| Op::Get(k, b)),
        (key(), any::<bool>(), any::<bool>()).prop_map(|(k, b, t)| Op::Gets(k, b, t)),
        (key(), any::<bool>()).prop_map(|(k, b)| Op::ReadForUpdate(k, b)),
        (key(), -3i64..4).prop_map(|(k, d)| Op::Incr(k, d)),
        key().prop_map(Op::Contains),
        (0u64..6).prop_map(Op::Advance),
    ]
}

/// Everything an operation can answer, in one comparable shape.
#[derive(Debug, PartialEq)]
enum Answer {
    Unit(Result<()>),
    Flag(bool),
    Value(Option<Bytes>),
    WithCas(Option<ValueWithCas>),
    ForUpdate(Option<(Bytes, Option<u64>)>),
    Count(Result<Option<i64>>),
    None,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn one_block_store_matches_the_string_keyed_model(
        capacity in 300usize..1200,
        ops in prop::collection::vec(op(), 1..200),
    ) {
        let config = StoreConfig { capacity_bytes: capacity, item_limit_bytes: 100 };
        let mut store = CacheStore::new(config.clone());
        let mut model = ModelStore::new(config);
        let (mut now, mut token) = (0u64, 0u64);
        for (step, op) in ops.iter().enumerate() {
            let value = |n: usize| Bytes::from(vec![step as u8; n]);
            let count = |n: i64| Payload::Count(n).encode();
            let (got, want) = match op.clone() {
                Op::Set(k, n, t) => (
                    Answer::Unit(store.set(&k, value(n), t, now)),
                    Answer::Unit(model.set(&k, value(n), t, now)),
                ),
                Op::SetCount(k, n, t) => (
                    Answer::Unit(store.set(&k, count(n), t, now)),
                    Answer::Unit(model.set(&k, count(n), t, now)),
                ),
                Op::Add(k, n, t) => (
                    Answer::Unit(store.add(&k, value(n), t, now)),
                    Answer::Unit(model.add(&k, value(n), t, now)),
                ),
                Op::Cas(k, n, offset, t) => (
                    Answer::Unit(store.cas(&k, value(n), token + offset, t, now)),
                    Answer::Unit(model.cas(&k, value(n), token + offset, t, now)),
                ),
                Op::Delete(k) => (Answer::Flag(store.delete(&k)), Answer::Flag(model.delete(&k))),
                Op::Get(k, bump) => (
                    Answer::Value(store.get(&k, now, bump)),
                    Answer::Value(model.get(&k, now, bump)),
                ),
                Op::Gets(k, bump, trigger) => {
                    let origin = if trigger { CacheOrigin::Trigger } else { CacheOrigin::Application };
                    let got = store.gets_as(&k, now, bump, origin);
                    if let Some(v) = &got {
                        token = v.cas;
                    }
                    (Answer::WithCas(got), Answer::WithCas(model.gets_as(&k, now, bump, origin)))
                }
                Op::ReadForUpdate(k, bump) => (
                    Answer::ForUpdate(store.read_for_update(&k, now, bump)),
                    Answer::ForUpdate(model.read_for_update(&k, now, bump)),
                ),
                Op::Incr(k, d) => (Answer::Count(store.incr(&k, d, now)), Answer::Count(model.incr(&k, d, now))),
                Op::Contains(k) => (Answer::Flag(store.contains(&k, now)), Answer::Flag(model.contains(&k, now))),
                Op::Advance(dt) => {
                    now += dt;
                    (Answer::None, Answer::None)
                }
            };
            prop_assert_eq!(&got, &want, "step {} {:?}", step, op);
            prop_assert_eq!(store.len(), model.len(), "len after step {}", step);
            prop_assert_eq!(store.bytes_used(), model.bytes_used(), "bytes after step {}", step);
            prop_assert_eq!(store.stats(), model.stats(), "stats after step {}", step);
            let keys: BTreeSet<String> = store.keys().into_iter().collect();
            let model_keys: BTreeSet<String> = model.keys().into_iter().collect();
            prop_assert_eq!(keys, model_keys, "keys after step {}", step);
        }
        store.flush_all();
        model.flush_all();
        prop_assert_eq!((store.len(), store.bytes_used()), (model.len(), model.bytes_used()));
    }
}
