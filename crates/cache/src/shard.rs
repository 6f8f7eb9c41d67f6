//! Lock-striped store: one cache server split into N independently
//! locked [`CacheStore`] shards so concurrent GETs to different keys
//! never serialize on a single server mutex.
//!
//! Striping is by the same `hash_key` the ring uses (different mixing:
//! the shard index comes from the upper bits so ring placement and
//! shard placement stay independent). Capacity is divided across
//! shards with [`split_capacity`], which never drops remainder bytes.

use crate::codec::hash_key;
use crate::store::{CacheStore, StoreConfig, StoreStats};
use parking_lot::Mutex;

/// Splits `total` bytes across `parts` buckets without losing the
/// remainder: the first `total % parts` buckets get one extra byte.
/// The bucket sizes always sum to exactly `total`.
pub fn split_capacity(total: usize, parts: usize) -> Vec<usize> {
    assert!(parts > 0, "split_capacity needs at least one bucket");
    let base = total / parts;
    let rem = total % parts;
    (0..parts)
        .map(|i| if i < rem { base + 1 } else { base })
        .collect()
}

/// One cache server as a set of lock-striped shards.
#[derive(Debug)]
pub struct ShardedStore {
    shards: Vec<Mutex<CacheStore>>,
    /// Bit mask for shard selection; shard count is a power of two.
    mask: u64,
}

impl ShardedStore {
    /// Builds a server of `shards` stripes (rounded up to a power of
    /// two) sharing `capacity_bytes` between them, each with memcached's
    /// default 1 MiB item limit.
    pub fn new(capacity_bytes: usize, shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        let caps = split_capacity(capacity_bytes, n);
        let shards = caps
            .into_iter()
            .map(|cap| {
                Mutex::new(CacheStore::new(StoreConfig {
                    capacity_bytes: cap,
                    ..StoreConfig::default()
                }))
            })
            .collect();
        ShardedStore {
            shards,
            mask: (n - 1) as u64,
        }
    }

    /// Number of stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The lock guarding `key`'s stripe. Callers lock it themselves so
    /// multi-step operations (lease validate + store write) can hold it
    /// across the sequence.
    pub fn shard_for(&self, key: &str) -> &Mutex<CacheStore> {
        // hash_key's low bits drive ring placement; use the upper half
        // for striping so the two partitions are uncorrelated.
        let h = hash_key(key) >> 32;
        &self.shards[(h & self.mask) as usize]
    }

    /// Runs `f` with `key`'s stripe locked.
    pub fn with<T>(&self, key: &str, f: impl FnOnce(&mut CacheStore) -> T) -> T {
        f(&mut self.shard_for(key).lock())
    }

    /// Aggregated counters across all stripes.
    pub fn stats(&self) -> StoreStats {
        let mut out = StoreStats::default();
        for s in &self.shards {
            out.merge(&s.lock().stats());
        }
        out
    }

    /// Zeroes counters on every stripe.
    pub fn reset_stats(&self) {
        for s in &self.shards {
            s.lock().reset_stats();
        }
    }

    /// Drops every entry on every stripe (node memory wipe).
    pub fn flush_all(&self) {
        for s in &self.shards {
            s.lock().flush_all();
        }
    }

    /// Total live entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True if no stripe holds anything.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().is_empty())
    }

    /// Total bytes accounted across stripes.
    pub fn bytes_used(&self) -> usize {
        self.shards.iter().map(|s| s.lock().bytes_used()).sum()
    }

    /// Total configured capacity (sums to the server's exact budget).
    pub fn capacity_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().capacity_bytes()).sum()
    }

    /// All live keys across stripes (cloned).
    pub fn keys(&self) -> Vec<String> {
        let mut out = Vec::new();
        for s in &self.shards {
            out.extend(s.lock().keys());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn split_capacity_sums_exactly() {
        for (total, parts) in [(1000, 3), (7, 16), (0, 4), (1024, 8), (999_999, 7)] {
            let caps = split_capacity(total, parts);
            assert_eq!(caps.len(), parts);
            assert_eq!(caps.iter().sum::<usize>(), total, "{total}/{parts}");
            // No bucket differs from another by more than one byte.
            let min = caps.iter().min().unwrap();
            let max = caps.iter().max().unwrap();
            assert!(max - min <= 1, "{total}/{parts}: uneven split {caps:?}");
        }
    }

    #[test]
    fn sharded_roundtrip_and_totals() {
        let s = ShardedStore::new(1_000_000, 8);
        assert_eq!(s.shard_count(), 8);
        assert_eq!(s.capacity_bytes(), 1_000_000);
        for i in 0..100 {
            let k = format!("key{i}");
            s.with(&k, |st| st.set(&k, Bytes::from(vec![0u8; 10]), None, 0))
                .unwrap();
        }
        assert_eq!(s.len(), 100);
        for i in 0..100 {
            let k = format!("key{i}");
            assert!(s.with(&k, |st| st.get(&k, 0, true)).is_some());
        }
        assert_eq!(s.stats().hits, 100);
        // Keys actually spread over multiple stripes.
        let occupied = (0..s.shard_count())
            .filter(|&i| !s.shards[i].lock().is_empty())
            .count();
        assert!(occupied > 1, "only {occupied} stripes used");
        s.flush_all();
        assert!(s.is_empty());
        assert_eq!(s.bytes_used(), 0);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let s = ShardedStore::new(1000, 5);
        assert_eq!(s.shard_count(), 8);
        let s1 = ShardedStore::new(1000, 0);
        assert_eq!(s1.shard_count(), 1);
    }
}
