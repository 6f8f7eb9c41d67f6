//! CacheGenie runtime statistics.

use std::sync::atomic::{AtomicU64, Ordering};

/// Shared atomic counters, updated by the interception path, by trigger
/// bodies, and by the commit pipeline's publication.
#[derive(Debug, Default)]
pub struct GenieStats {
    pub(crate) cache_hits: AtomicU64,
    pub(crate) cache_misses: AtomicU64,
    pub(crate) fills: AtomicU64,
    pub(crate) inplace_updates: AtomicU64,
    pub(crate) invalidations: AtomicU64,
    pub(crate) key_drops: AtomicU64,
    pub(crate) trigger_noops: AtomicU64,
    pub(crate) commit_batches: AtomicU64,
    pub(crate) commit_cache_ops: AtomicU64,
    pub(crate) commit_cache_ops_naive: AtomicU64,
    pub(crate) commit_aborts: AtomicU64,
    pub(crate) txn_bypasses: AtomicU64,
    pub(crate) fills_dropped: AtomicU64,
}

/// A point-in-time copy of [`GenieStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GenieStatsSnapshot {
    /// Intercepted queries answered from cache.
    pub cache_hits: u64,
    /// Intercepted queries that needed the database.
    pub cache_misses: u64,
    /// Read-through fills performed.
    pub fills: u64,
    /// Trigger deltas applied in place at publication.
    pub inplace_updates: u64,
    /// Trigger-driven key invalidations (Invalidate strategy, payload
    /// corruption, or class-specific fallbacks).
    pub invalidations: u64,
    /// Keys a trigger delta dropped (Top-K delete reserve exhausted, or
    /// a payload of the wrong shape).
    pub key_drops: u64,
    /// Always 0: trigger deltas are applied where the value lives, so no
    /// CAS can lose a race. Kept for readers of the counter set.
    pub cas_conflicts: u64,
    /// Trigger firings and deltas that found nothing cached to maintain.
    pub trigger_noops: u64,
    /// Transactions whose cache effects were published through the
    /// commit-time batch pipeline.
    pub commit_batches: u64,
    /// Physical cache operations those commits performed (coalesced: one
    /// node-side read-modify-write per key with recorded deltas).
    pub commit_cache_ops: u64,
    /// What the same effects would have cost applied per statement — the
    /// naive baseline the coalescing saves against.
    pub commit_cache_ops_naive: u64,
    /// Commit-time aborts (failed trigger bodies or strict-mode lock
    /// timeouts); their buffered effects were discarded unpublished.
    pub commit_aborts: u64,
    /// Cached-object reads served straight from the database because a
    /// transaction was open (no dirty fills, own writes visible).
    pub txn_bypasses: u64,
    /// Read-through fills dropped because a committing writer invalidated
    /// the fill lease first (the fill would have cached a stale value).
    pub fills_dropped: u64,
    /// Store-level hits from application-origin reads, summed across the
    /// cache cluster (filled in by [`crate::CacheGenie::stats`]).
    pub store_app_hits: u64,
    /// Store-level misses from application-origin reads.
    pub store_app_misses: u64,
    /// Store-level hits from trigger-origin reads (maintenance traffic).
    pub store_trigger_hits: u64,
    /// Store-level misses from trigger-origin reads.
    pub store_trigger_misses: u64,
}

impl GenieStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        GenieStats::default()
    }

    /// Copies the counters.
    pub fn snapshot(&self) -> GenieStatsSnapshot {
        GenieStatsSnapshot {
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            fills: self.fills.load(Ordering::Relaxed),
            inplace_updates: self.inplace_updates.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            key_drops: self.key_drops.load(Ordering::Relaxed),
            trigger_noops: self.trigger_noops.load(Ordering::Relaxed),
            commit_batches: self.commit_batches.load(Ordering::Relaxed),
            commit_cache_ops: self.commit_cache_ops.load(Ordering::Relaxed),
            commit_cache_ops_naive: self.commit_cache_ops_naive.load(Ordering::Relaxed),
            commit_aborts: self.commit_aborts.load(Ordering::Relaxed),
            txn_bypasses: self.txn_bypasses.load(Ordering::Relaxed),
            fills_dropped: self.fills_dropped.load(Ordering::Relaxed),
            // Store-level counters live in the cache cluster;
            // CacheGenie::stats() merges them in.
            ..GenieStatsSnapshot::default()
        }
    }

    /// Zeroes every counter.
    pub fn reset(&self) {
        for c in [
            &self.cache_hits,
            &self.cache_misses,
            &self.fills,
            &self.inplace_updates,
            &self.invalidations,
            &self.key_drops,
            &self.trigger_noops,
            &self.commit_batches,
            &self.commit_cache_ops,
            &self.commit_cache_ops_naive,
            &self.commit_aborts,
            &self.txn_bypasses,
            &self.fills_dropped,
        ] {
            c.store(0, Ordering::Relaxed);
        }
    }

    pub(crate) fn bump(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add(&self, counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Books the outcomes of a published effect batch.
    pub(crate) fn add_applied(&self, applied: &genie_cache::Applied) {
        self.add(&self.inplace_updates, applied.in_place);
        self.add(&self.trigger_noops, applied.noops);
        self.add(&self.key_drops, applied.drops);
        self.add(&self.invalidations, applied.invalidations);
    }
}

impl GenieStatsSnapshot {
    /// Cache operations the commit-time coalescing saved versus applying
    /// every buffered effect one by one.
    pub fn commit_ops_saved(&self) -> u64 {
        self.commit_cache_ops_naive
            .saturating_sub(self.commit_cache_ops)
    }

    /// Interception hit ratio, or 1.0 with no intercepted traffic.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            1.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_reset() {
        let s = GenieStats::new();
        s.bump(&s.cache_hits);
        s.bump(&s.cache_hits);
        s.bump(&s.cache_misses);
        let snap = s.snapshot();
        assert_eq!(snap.cache_hits, 2);
        assert_eq!(snap.cache_misses, 1);
        assert!((snap.hit_ratio() - 2.0 / 3.0).abs() < 1e-9);
        s.reset();
        assert_eq!(s.snapshot(), GenieStatsSnapshot::default());
        assert_eq!(s.snapshot().hit_ratio(), 1.0);
    }
}
