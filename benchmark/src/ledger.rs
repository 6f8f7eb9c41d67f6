//! The counter half of the per-layer ledger: deltas of every layer's
//! public stats snapshot across the untraced run's timed section.
//! Reading a snapshot perturbs nothing, so these describe exactly the
//! run the end-to-end metrics came from.

use crate::drive::Drive;
use crate::stats::ratio;
use cachegenie_repro::cache::ClusterStats;
use cachegenie_repro::genie::GenieStatsSnapshot;
use cachegenie_repro::server::{Page, Server};
use cachegenie_repro::social::AppEnv;
use cachegenie_repro::storage::{DbStats, LatchStats, LockStats, WalStats};
use std::sync::atomic::Ordering;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value (pages, calls, spans).
    pub samples: u64,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str, samples: u64) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// Every layer's counters at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Counters {
    genie: GenieStatsSnapshot,
    cache: ClusterStats,
    db: DbStats,
    locks: LockStats,
    latches: LatchStats,
    /// Zero for an in-memory database.
    wal: WalStats,
}

impl Counters {
    /// Reads every public stats snapshot of the deployment.
    pub fn read(env: &AppEnv) -> Counters {
        Counters {
            genie: env.genie.stats(),
            cache: env.cluster.stats(),
            db: env.db.stats(),
            locks: env.db.lock_stats(),
            latches: env.db.latch_stats(),
            wal: env.db.wal_stats().unwrap_or_default(),
        }
    }

    /// WAL records appended so far.
    pub fn wal_records(&self) -> u64 {
        self.wal.records
    }
}

/// Mean of the server's own per-page latency histograms over every page
/// kind, in µs, and the pages behind it.
pub fn server_page_us(server: &Server) -> (f64, u64) {
    let (mut total_s, mut count) = (0.0, 0u64);
    for page in Page::all() {
        let s = server.metrics().page_summary(page);
        total_s += s.mean_s * s.count as f64;
        count += s.count;
    }
    (ratio(total_s * 1e6, count as f64), count)
}

/// Mean client-side latency over OK pages, µs.
pub fn client_mean_us(drive: &Drive) -> f64 {
    let lat = drive.latencies(false);
    ratio(lat.iter().sum::<u64>() as f64 / 1e3, lat.len() as f64)
}

/// The counter metrics of the timed section between `before` and `after`.
/// The server was started for this section, so its own counters need no
/// baseline.
pub fn counter_metrics(
    before: &Counters,
    after: &Counters,
    env: &AppEnv,
    server: &Server,
    drive: &Drive,
) -> Vec<Metric> {
    let pages = drive.ok();
    let write_pages = drive.ok_writes();
    let (p, wp) = (pages as f64, write_pages as f64);
    let d = |a: u64, b: u64| a.saturating_sub(b) as f64;

    let m = server.metrics();
    let (page_us, server_pages) = server_page_us(server);
    let shed = m.requests_shed.load(Ordering::Relaxed) + m.connections_shed.load(Ordering::Relaxed);

    let (g0, g1) = (&before.genie, &after.genie);
    let hits = d(g1.cache_hits, g0.cache_hits);
    let misses = d(g1.cache_misses, g0.cache_misses);
    let (c0, c1) = (&before.cache.store, &after.cache.store);
    let trigger_gets = d(
        c1.trigger_hits + c1.trigger_misses,
        c0.trigger_hits + c0.trigger_misses,
    );
    let (s0, s1) = (&before.db, &after.db);
    let (l0, l1) = (&before.latches, &after.latches);
    let (w0, w1) = (&before.wal, &after.wal);
    let wal_records = d(w1.records, w0.records);

    vec![
        metric(
            "server.requests",
            m.requests_total.load(Ordering::Relaxed) as f64,
            "count",
            drive.attempted,
        ),
        metric("server.shed", shed as f64, "count", drive.attempted),
        metric(
            "server.pool_exhausted",
            server.pool_snapshot().exhausted as f64,
            "count",
            drive.attempted,
        ),
        metric("server.page_us", page_us, "us", server_pages),
        metric(
            "server.wire_us",
            client_mean_us(drive) - page_us,
            "us",
            pages,
        ),
        metric(
            "social.queries_per_page",
            ratio(drive.sum(|c| c.queries) as f64, p),
            "1/page",
            pages,
        ),
        metric(
            "social.cache_hit_queries_per_page",
            ratio(drive.sum(|c| c.cache_hits) as f64, p),
            "1/page",
            pages,
        ),
        metric(
            "social.writes_per_page",
            ratio(drive.sum(|c| c.writes) as f64, p),
            "1/page",
            pages,
        ),
        metric(
            "core.hit_ratio",
            ratio(hits, hits + misses),
            "ratio",
            (hits + misses) as u64,
        ),
        metric("core.fills", d(g1.fills, g0.fills), "count", pages),
        metric(
            "core.fills_dropped",
            d(g1.fills_dropped, g0.fills_dropped),
            "count",
            pages,
        ),
        metric(
            "core.inplace_updates_per_write_page",
            ratio(d(g1.inplace_updates, g0.inplace_updates), wp),
            "1/page",
            write_pages,
        ),
        metric(
            "core.trigger_noops_per_write_page",
            ratio(d(g1.trigger_noops, g0.trigger_noops), wp),
            "1/page",
            write_pages,
        ),
        metric(
            "core.invalidations",
            d(g1.invalidations, g0.invalidations),
            "count",
            write_pages,
        ),
        metric(
            "core.cas_conflicts",
            d(g1.cas_conflicts, g0.cas_conflicts),
            "count",
            write_pages,
        ),
        metric(
            "core.commit_cache_ops_per_batch",
            ratio(
                d(g1.commit_cache_ops, g0.commit_cache_ops),
                d(g1.commit_batches, g0.commit_batches),
            ),
            "1/batch",
            d(g1.commit_batches, g0.commit_batches) as u64,
        ),
        metric(
            "core.txn_bypasses",
            d(g1.txn_bypasses, g0.txn_bypasses),
            "count",
            pages,
        ),
        metric(
            "cache.gets_per_page",
            ratio(d(c1.gets, c0.gets), p),
            "1/page",
            pages,
        ),
        metric(
            "cache.sets_per_page",
            ratio(d(c1.sets, c0.sets), p),
            "1/page",
            pages,
        ),
        metric(
            "cache.trigger_gets_per_write_page",
            ratio(trigger_gets, wp),
            "1/page",
            write_pages,
        ),
        metric(
            "cache.evictions",
            d(c1.evictions, c0.evictions),
            "count",
            pages,
        ),
        metric("cache.items_end", after.cache.items as f64, "count", 1),
        metric(
            "cache.bytes_used_end",
            after.cache.bytes_used as f64,
            "bytes",
            1,
        ),
        metric(
            "storage.statements_per_page",
            ratio(d(s1.statements, s0.statements), p),
            "1/page",
            pages,
        ),
        metric(
            "storage.selects_per_page",
            ratio(d(s1.selects, s0.selects), p),
            "1/page",
            pages,
        ),
        metric(
            "storage.triggers_fired_per_write_page",
            ratio(d(s1.triggers_fired, s0.triggers_fired), wp),
            "1/page",
            write_pages,
        ),
        metric("storage.commits", d(s1.commits, s0.commits), "count", pages),
        metric(
            "storage.rollbacks",
            d(s1.rollbacks, s0.rollbacks),
            "count",
            pages,
        ),
        metric(
            "storage.lock_waits",
            d(after.locks.waits, before.locks.waits),
            "count",
            pages,
        ),
        metric(
            "storage.deadlocks",
            d(after.locks.deadlocks, before.locks.deadlocks),
            "count",
            pages,
        ),
        metric(
            "storage.latch_waits",
            d(
                l1.catalog_read_waits + l1.table_read_waits + l1.table_write_waits,
                l0.catalog_read_waits + l0.table_read_waits + l0.table_write_waits,
            ),
            "count",
            pages,
        ),
        metric(
            "storage.catalog_write_waits",
            d(l1.catalog_write_waits, l0.catalog_write_waits),
            "count",
            pages,
        ),
        metric(
            "storage.history_versions_end",
            env.db.version_stats().history_versions as f64,
            "count",
            1,
        ),
        metric("storage.wal_records", wal_records, "count", pages),
        metric(
            "storage.wal_bytes_per_commit",
            ratio(d(w1.bytes, w0.bytes), wal_records),
            "bytes",
            wal_records as u64,
        ),
        metric(
            "storage.wal_syncs_per_commit",
            ratio(d(w1.syncs, w0.syncs), wal_records),
            "ratio",
            wal_records as u64,
        ),
        metric(
            "storage.wal_checkpoints",
            d(w1.checkpoints, w0.checkpoints),
            "count",
            wal_records as u64,
        ),
    ]
}
