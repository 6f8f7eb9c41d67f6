//! Per-statement cost reports.
//!
//! The engine executes functionally (in memory, instantly) but records what
//! a disk-backed DBMS would have done: rows scanned, index probes, buffer
//! pool hits/misses, WAL appends, trigger work. The benchmark harness feeds
//! these reports to a cost model which converts them into simulated service
//! time on contended resources — this is how the reproduction recreates the
//! paper's "NoCache is CPU-bound, cached cases are disk-bound" dynamics
//! without 2011 hardware.

use std::ops::AddAssign;

/// What one statement cost, in physical-operation counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostReport {
    /// Rows visited by scans (sequential or via index postings).
    pub rows_scanned: u64,
    /// Rows produced to the client.
    pub rows_returned: u64,
    /// Rows inserted, updated, or deleted.
    pub rows_written: u64,
    /// B-tree probe operations (one per index lookup).
    pub index_probes: u64,
    /// Buffer-pool page hits (page already resident).
    pub page_hits: u64,
    /// Buffer-pool page misses (a disk read in a real system).
    pub page_misses: u64,
    /// Dirty pages written back on eviction (disk writes).
    pub page_writebacks: u64,
    /// WAL appends: one redo record per *writing* commit (one per write
    /// statement when autocommitted, one per transaction commit
    /// otherwise). Read-only commits and rolled-back transactions
    /// append nothing.
    pub wal_appends: u64,
    /// Framed bytes this commit's redo record added to the log —
    /// measured from the log writer, `0` without a durable log.
    pub wal_bytes: u64,
    /// Physical log syncs **this thread performed** while waiting for
    /// durability. Most committers ride a leader's batch and report
    /// `0`; a lone committer leads its own batch and reports `1`.
    /// Summed across threads this equals the log writer's sync count
    /// exactly.
    pub wal_syncs: u64,
    /// Number of trigger bodies fired.
    pub triggers_fired: u64,
    /// Cache operations performed from inside trigger bodies.
    pub trigger_cache_ops: u64,
    /// Remote cache connections opened from inside trigger bodies — the
    /// dominant trigger overhead in the paper's §5.3 microbenchmark.
    pub trigger_connections: u64,
    /// Rows the trigger bodies themselves scanned when they queried the DB.
    pub trigger_rows_scanned: u64,
    /// Sort operations (ORDER BY without a usable index).
    pub sorts: u64,
    /// Rows fed into sorts.
    pub sort_rows: u64,
}

impl CostReport {
    /// An empty report.
    pub fn new() -> Self {
        CostReport::default()
    }

    /// Total page traffic (hits + misses).
    pub fn page_touches(&self) -> u64 {
        self.page_hits + self.page_misses
    }

    /// True if the statement performed no physical work (e.g. served
    /// entirely from cache at a higher layer).
    pub fn is_empty(&self) -> bool {
        *self == CostReport::default()
    }
}

impl AddAssign for CostReport {
    fn add_assign(&mut self, rhs: CostReport) {
        self.rows_scanned += rhs.rows_scanned;
        self.rows_returned += rhs.rows_returned;
        self.rows_written += rhs.rows_written;
        self.index_probes += rhs.index_probes;
        self.page_hits += rhs.page_hits;
        self.page_misses += rhs.page_misses;
        self.page_writebacks += rhs.page_writebacks;
        self.wal_appends += rhs.wal_appends;
        self.wal_bytes += rhs.wal_bytes;
        self.wal_syncs += rhs.wal_syncs;
        self.triggers_fired += rhs.triggers_fired;
        self.trigger_cache_ops += rhs.trigger_cache_ops;
        self.trigger_connections += rhs.trigger_connections;
        self.trigger_rows_scanned += rhs.trigger_rows_scanned;
        self.sorts += rhs.sorts;
        self.sort_rows += rhs.sort_rows;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assign_accumulates() {
        let mut a = CostReport {
            rows_scanned: 2,
            page_misses: 1,
            ..Default::default()
        };
        a += CostReport {
            rows_scanned: 3,
            page_hits: 5,
            triggers_fired: 1,
            ..Default::default()
        };
        assert_eq!(a.rows_scanned, 5);
        assert_eq!(a.page_touches(), 6);
        assert_eq!(a.triggers_fired, 1);
    }

    #[test]
    fn default_is_empty() {
        assert!(CostReport::new().is_empty());
        let r = CostReport {
            wal_appends: 1,
            ..Default::default()
        };
        assert!(!r.is_empty());
    }
}
