//! Wall-clock multi-writer (and multi-reader) driver: N OS threads
//! hammer one shared deployment with the BatchPost transactional mix,
//! exercising the engine's row-lock concurrency (thread-scoped
//! transactions, 2PL, deadlock detection, first-updater-wins write
//! conflicts) and the commit pipeline's per-key flush ordering for real
//! — no virtual time, no activity scanning.
//!
//! With `reader_threads > 0` the driver additionally runs a
//! reader-heavy mixed scenario: dedicated threads open *read-only
//! transactions* that scan walls and users while the writers churn.
//! Under MVCC snapshot reads these readers take no locks at all, so
//! they must never deadlock and never observe a torn state — each
//! reader transaction re-runs its first query at the end and any
//! difference is counted as a `snapshot_violations` (must stay zero).
//!
//! Unlike [`crate::driver::run`] (which measures the paper's saturation
//! curves deterministically in simulated time), this driver measures the
//! *engine itself* under true interleaving: throughput is transactions
//! per wall-clock second, aborts are real deadlock victims, and the
//! post-run cross-check re-evaluates every touched cached object against
//! the database — any mismatch is a coherence violation in the commit
//! pipeline.

use genie_cache::ClusterConfig;
use genie_social::{build_app, build_app_on, AppConfig, SeedConfig};
use genie_storage::{Database, Result, StorageError, Value, WalConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Rows seeded into each `shard_<t>` scratch table for the
/// disjoint-table mix.
const SHARD_ROWS: i64 = 64;

/// Configuration for one multi-writer run.
#[derive(Debug, Clone)]
pub struct ConcurrencyConfig {
    /// Writer threads driving transactions concurrently.
    pub threads: usize,
    /// Transactions each thread issues.
    pub txns_per_thread: usize,
    /// Wall posts per BatchPost transaction.
    pub posts_per_txn: usize,
    /// Percentage of transactions that intentionally ROLLBACK.
    pub abort_pct: u32,
    /// Percentage of transactions that are two-user "poke" transactions
    /// (each updates two `users` rows in random order) instead of
    /// BatchPosts — the shape that manufactures genuine deadlock cycles.
    pub poke_pct: u32,
    /// Every Nth transaction is followed by an autocommit wall read
    /// (read/write interleaving through the cache); 0 disables.
    pub read_every: usize,
    /// Seed-data scale.
    pub seed: SeedConfig,
    /// RNG seed (per-thread streams derive from it).
    pub rng_seed: u64,
    /// Simulated application-server time (microseconds) spent between a
    /// transaction's statements — the round-trip window a real web stack
    /// has while its transaction is open; row locks overlap it across
    /// clients. 0 disables.
    pub think_us: u64,
    /// Dedicated reader threads running read-only transactions (wall +
    /// user scans with an intra-transaction repeat-read consistency
    /// check) for as long as the writers run. 0 disables.
    pub reader_threads: usize,
    /// SELECT statements per reader transaction (at least 2: the first
    /// query is re-run at the end as the snapshot-consistency check).
    pub reads_per_reader_txn: usize,
    /// Pin every writer thread to its own scratch table (`shard_<t>`,
    /// created and seeded before the measured phase) instead of the
    /// shared social mix. With per-table latching, disjoint writers
    /// share nothing above the catalog read latch, so the run must show
    /// **zero table-latch waits** — the latch-sharding gate. Ignores
    /// `poke_pct` / `abort_pct` / `read_every`.
    pub disjoint_tables: bool,
    /// Cache-cluster shape for the deployment (servers, shards per
    /// server). The default single-server shape keeps the legacy mixes
    /// unchanged; the cache-tier scenarios set multiple servers here.
    pub cluster: ClusterConfig,
    /// Percentage of interleaved cached reads aimed at a small fixed
    /// hot user set (users 1–4) instead of a uniform target — it
    /// concentrates traffic on a few keys, so a node kill that moves
    /// them is felt. 0 keeps the uniform legacy behaviour.
    pub hot_read_pct: u32,
    /// Kill one cache node when writer thread 0 is a third of the way
    /// through its transactions and revive it at two thirds — the
    /// failure/rejoin schedule. Requires `cluster.servers >= 2`; the
    /// post-run coherence sweep must still find zero violations.
    pub node_kill: bool,
    /// Run the deployment on a *durable* database: the write-ahead log
    /// lives in this directory (recreated from scratch at startup) and
    /// every commit in the mix pays for group-commit durability. `None`
    /// keeps the in-memory engine.
    pub wal_dir: Option<PathBuf>,
    /// Log-writer tuning for the durable run (ignored without
    /// `wal_dir`). Setting a small `checkpoint_every` makes fuzzy
    /// checkpoints fire concurrently with the writer mix.
    pub wal_config: WalConfig,
    /// Take a live crash image: when writer thread 0 is halfway through
    /// its transactions it copies the log directory here, byte-for-byte,
    /// while every other thread keeps committing — so the image's last
    /// frame is very possibly torn, exactly like a power cut. Requires
    /// `wal_dir`. The caller recovers from the copy and checks it.
    pub crash_copy_dir: Option<PathBuf>,
}

impl Default for ConcurrencyConfig {
    fn default() -> Self {
        ConcurrencyConfig {
            threads: 4,
            txns_per_thread: 200,
            posts_per_txn: 4,
            abort_pct: 10,
            poke_pct: 20,
            read_every: 5,
            seed: SeedConfig::tiny(),
            rng_seed: 42,
            think_us: 0,
            reader_threads: 0,
            reads_per_reader_txn: 4,
            disjoint_tables: false,
            cluster: ClusterConfig::default(),
            hot_read_pct: 0,
            node_kill: false,
            wal_dir: None,
            wal_config: WalConfig::default(),
            crash_copy_dir: None,
        }
    }
}

/// Outcome of one multi-writer run.
#[derive(Debug, Clone, Default)]
pub struct ConcurrencyResult {
    /// Writer threads used.
    pub threads: usize,
    /// Transactions that committed.
    pub committed: u64,
    /// Transactions that rolled back on purpose (the abort mix).
    pub rolled_back: u64,
    /// Transactions aborted as deadlock victims.
    pub deadlock_aborts: u64,
    /// Transactions aborted by strict-mode lock timeouts or commit-time
    /// rejections.
    pub lock_aborts: u64,
    /// Transactions aborted first-updater-wins: another writer committed
    /// a newer version of a row this transaction's snapshot had read.
    /// A correctness feature, not an error — the caller retries on a
    /// fresh snapshot (the 2PL baseline would instead have silently
    /// serialized these through lock waits).
    pub write_conflicts: u64,
    /// Any other error (must stay zero).
    pub errors: u64,
    /// Wall-clock duration of the measured phase.
    pub elapsed: Duration,
    /// Committed + intentionally-rolled-back transactions per second.
    pub throughput_txns_per_sec: f64,
    /// Cached-object instances cross-checked after the run.
    pub checked_objects: u64,
    /// Instances whose cache content disagreed with the database.
    pub coherence_violations: u64,
    /// Lock-manager deadlock count (should equal `deadlock_aborts`
    /// plus `read_deadlocks`).
    pub lock_stats_deadlocks: u64,
    /// Lock acquisitions that blocked at least once.
    pub lock_waits: u64,
    /// Interleaved autocommit reads aborted as deadlock victims (the
    /// statement fails and is simply skipped; nothing to roll back).
    /// Zero under MVCC snapshot reads — readers take no locks.
    pub read_deadlocks: u64,
    /// Interleaved autocommit reads failing with any other error (must
    /// stay zero).
    pub read_errors: u64,
    /// Read-only transactions the dedicated reader threads completed.
    pub read_txns: u64,
    /// SELECT statements those transactions issued.
    pub read_stmts: u64,
    /// Reader transactions whose repeated query returned a different
    /// answer inside one transaction — a broken snapshot. Must be zero.
    pub snapshot_violations: u64,
    /// Reader transactions per wall-clock second of the measured phase.
    pub read_txns_per_sec: f64,
    /// Engine latch acquisitions (catalog or table level) that blocked
    /// at least once during the run.
    pub latch_waits: u64,
    /// The table-level subset of `latch_waits`. A disjoint-table run
    /// must report **zero**: threads pinned to different tables never
    /// meet on a per-table latch.
    pub latch_table_waits: u64,
    /// Cache nodes killed mid-run by the failure schedule.
    pub node_kills: u64,
    /// Killed nodes revived mid-run.
    pub node_revives: u64,
    /// Redo records appended to the write-ahead log (durable runs only).
    pub wal_records: u64,
    /// Physical log syncs performed. Under group commit this is far
    /// smaller than `wal_records` — the amortization being measured.
    pub wal_syncs: u64,
    /// Leader batches written; `wal_records / wal_batches` is the
    /// achieved group-commit batch size.
    pub wal_batches: u64,
    /// Fuzzy checkpoints completed concurrently with the mix.
    pub wal_checkpoints: u64,
    /// True when the mid-run crash image landed in `crash_copy_dir`.
    pub crash_copy_taken: bool,
    /// Content digest of the quiescent post-run database — what a
    /// recovered crash image must reproduce (for the final, non-torn
    /// copy) and what `verify_coherence` already vouched for.
    pub content_digest: u64,
    /// Commit epoch of the quiescent post-run database.
    pub commit_epoch: u64,
    /// Per-operation-kind latency percentiles over the measured phase
    /// (wall-clock seconds, full sample sets — the closed-loop answer
    /// to "what did a transaction cost", not just aggregate
    /// throughput). Kinds with zero traffic are omitted.
    pub op_latencies: Vec<OpLatencySummary>,
}

/// Latency percentiles for one operation kind of the wall-clock mix,
/// computed from the full sample set after the run (the hot path only
/// appends to a per-thread `Vec`).
#[derive(Debug, Clone, Default)]
pub struct OpLatencySummary {
    /// Operation label (`batch_post`, `poke`, `disjoint`,
    /// `cached_read`, `reader_txn`).
    pub op: &'static str,
    /// Completed operations measured (any outcome).
    pub count: u64,
    /// Mean latency, seconds.
    pub mean_s: f64,
    /// Median, seconds.
    pub p50_s: f64,
    /// 95th percentile, seconds.
    pub p95_s: f64,
    /// 99th percentile, seconds.
    pub p99_s: f64,
    /// 99.9th percentile, seconds.
    pub p999_s: f64,
}

/// Operation labels, indexed by the sample tag used in the tallies.
const OP_LABELS: [&str; 5] = [
    "batch_post",
    "poke",
    "disjoint",
    "cached_read",
    "reader_txn",
];
const OP_BATCH_POST: usize = 0;
const OP_POKE: usize = 1;
const OP_DISJOINT: usize = 2;
const OP_CACHED_READ: usize = 3;
const OP_READER_TXN: usize = 4;

fn summarize_ops(samples: [Vec<f64>; 5]) -> Vec<OpLatencySummary> {
    let mut out = Vec::new();
    for (op, raw) in OP_LABELS.iter().zip(samples) {
        if raw.is_empty() {
            continue;
        }
        let mut p = genie_sim::Percentiles::new();
        for s in &raw {
            p.push(*s);
        }
        out.push(OpLatencySummary {
            op,
            count: p.len() as u64,
            mean_s: p.mean().unwrap_or(0.0),
            p50_s: p.percentile(50.0).unwrap_or(0.0),
            p95_s: p.percentile(95.0).unwrap_or(0.0),
            p99_s: p.percentile(99.0).unwrap_or(0.0),
            p999_s: p.percentile(99.9).unwrap_or(0.0),
        });
    }
    out
}

impl ConcurrencyResult {
    /// Transactions that terminated at all (any outcome).
    pub fn attempts(&self) -> u64 {
        self.committed
            + self.rolled_back
            + self.deadlock_aborts
            + self.lock_aborts
            + self.write_conflicts
            + self.errors
    }

    /// Fraction of attempts aborted by the engine's lock layer
    /// (deadlock victims + lock timeouts). First-updater-wins conflicts
    /// are tracked separately in [`ConcurrencyResult::conflict_rate`] —
    /// they are snapshot-isolation serialization failures, not lock
    /// thrashing.
    pub fn abort_rate(&self) -> f64 {
        let a = self.attempts();
        if a == 0 {
            0.0
        } else {
            (self.deadlock_aborts + self.lock_aborts) as f64 / a as f64
        }
    }

    /// Fraction of attempts aborted first-updater-wins.
    pub fn conflict_rate(&self) -> f64 {
        let a = self.attempts();
        if a == 0 {
            0.0
        } else {
            self.write_conflicts as f64 / a as f64
        }
    }
}

#[derive(Default)]
struct ThreadTally {
    committed: u64,
    rolled_back: u64,
    deadlock_aborts: u64,
    lock_aborts: u64,
    write_conflicts: u64,
    errors: u64,
    read_deadlocks: u64,
    read_errors: u64,
    node_kills: u64,
    node_revives: u64,
    crash_copy_taken: bool,
    /// `(op tag, seconds)` per completed operation; folded into
    /// [`OpLatencySummary`] rows after the join.
    latencies: Vec<(usize, f64)>,
}

/// Copies every file in `src` into `dst` (recreated), byte-for-byte.
/// Run against a *live* log directory this produces exactly what a
/// crash leaves behind: a prefix of the log, possibly cut mid-frame.
fn copy_live_dir(src: &std::path::Path, dst: &std::path::Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let p = entry?.path();
        if p.is_file() {
            std::fs::copy(&p, dst.join(p.file_name().unwrap()))?;
        }
    }
    Ok(())
}

#[derive(Default)]
struct ReaderTally {
    read_txns: u64,
    read_stmts: u64,
    snapshot_violations: u64,
    read_deadlocks: u64,
    read_errors: u64,
    latencies: Vec<f64>,
}

/// Runs one multi-writer configuration to completion and cross-checks
/// cache/database coherence afterwards.
///
/// # Errors
///
/// Deployment/seeding errors, and any database error from the post-run
/// coherence sweep. Per-transaction aborts are *counted*, not returned.
///
/// # Panics
///
/// Panics if a writer thread itself panics (engine invariant breakage).
pub fn run_concurrent(cfg: &ConcurrencyConfig) -> Result<ConcurrencyResult> {
    let app_cfg = AppConfig {
        seed: cfg.seed.clone(),
        strategy: Some(cachegenie::ConsistencyStrategy::UpdateInPlace),
        cluster: cfg.cluster.clone(),
        ..Default::default()
    };
    let env = match &cfg.wal_dir {
        Some(dir) => {
            let _ = std::fs::remove_dir_all(dir);
            let db = Database::create_durable(dir, app_cfg.db.clone(), cfg.wal_config)?;
            build_app_on(db, &app_cfg)?
        }
        None => build_app(&app_cfg)?,
    };
    assert!(
        cfg.crash_copy_dir.is_none() || cfg.wal_dir.is_some(),
        "crash_copy_dir needs wal_dir"
    );
    assert!(
        !cfg.node_kill || cfg.cluster.servers >= 2,
        "node_kill needs at least two cache servers"
    );
    let users = cfg.seed.users.max(2) as i64;
    let threads = cfg.threads.max(1);
    if cfg.disjoint_tables {
        // One scratch table per writer thread, seeded before the clock
        // starts. The measured phase then updates only `shard_<t>` from
        // thread `t`: per-table latches and row locks are provably
        // uncontended, so any table-latch wait is a sharding bug.
        for t in 0..threads {
            env.db.execute_sql(
                &format!("CREATE TABLE shard_{t} (id INT PRIMARY KEY, n INT NOT NULL)"),
                &[],
            )?;
            for id in 1..=SHARD_ROWS {
                env.db.execute_sql(
                    &format!("INSERT INTO shard_{t} (id, n) VALUES ($1, 0)"),
                    &[Value::Int(id)],
                )?;
            }
        }
    }
    // Readers share the start barrier so reads tallied against the
    // measured window cannot begin before the writers do.
    let barrier = Arc::new(Barrier::new(threads + cfg.reader_threads));
    let writers_done = Arc::new(std::sync::atomic::AtomicBool::new(false));

    // Dedicated readers: read-only transactions scanning walls and
    // users for as long as the writers run. Each transaction re-runs
    // its first query before COMMIT — under a pinned snapshot the
    // answer must be identical no matter how many writers committed in
    // between.
    let reader_handles: Vec<std::thread::JoinHandle<ReaderTally>> = (0..cfg.reader_threads)
        .map(|t| {
            let db = env.db.clone();
            let done = Arc::clone(&writers_done);
            let barrier = Arc::clone(&barrier);
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(cfg.rng_seed.wrapping_add(0x9d1d + t as u64));
                let mut tally = ReaderTally::default();
                barrier.wait();
                while !done.load(std::sync::atomic::Ordering::Relaxed) {
                    let wall = rng.gen_range(1..=users as usize) as i64;
                    let t0 = Instant::now();
                    match reader_txn(&db, wall, cfg.reads_per_reader_txn) {
                        Ok((stmts, consistent)) => {
                            tally.latencies.push(t0.elapsed().as_secs_f64());
                            tally.read_txns += 1;
                            tally.read_stmts += stmts;
                            if !consistent {
                                tally.snapshot_violations += 1;
                            }
                        }
                        Err(StorageError::Deadlock { .. }) => tally.read_deadlocks += 1,
                        Err(_) => tally.read_errors += 1,
                    }
                }
                tally
            })
        })
        .collect();

    let start = Instant::now();
    let handles: Vec<std::thread::JoinHandle<ThreadTally>> = (0..threads)
        .map(|t| {
            let app = env.app.clone();
            let db = env.db.clone();
            let cluster = env.genie.cluster().clone();
            let barrier = Arc::clone(&barrier);
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(cfg.rng_seed.wrapping_add(t as u64 * 6151));
                let mut tally = ThreadTally::default();
                barrier.wait();
                for i in 0..cfg.txns_per_thread {
                    // Deterministic failure schedule, driven by thread 0's
                    // own progress: node 1 dies a third of the way in and
                    // rejoins at two thirds, while every other thread keeps
                    // hammering the cluster through both transitions.
                    if cfg.node_kill && t == 0 {
                        if i == cfg.txns_per_thread / 3 && cluster.kill_node(1) {
                            tally.node_kills += 1;
                        }
                        if i == 2 * cfg.txns_per_thread / 3 && cluster.revive_node(1) {
                            tally.node_revives += 1;
                        }
                    }
                    // Mid-run crash image: copy the live log directory
                    // while every other thread keeps committing into it.
                    if t == 0 && i == cfg.txns_per_thread / 2 {
                        if let (Some(src), Some(dst)) = (&cfg.wal_dir, &cfg.crash_copy_dir) {
                            copy_live_dir(src, dst).expect("crash image copy failed");
                            tally.crash_copy_taken = true;
                        }
                    }
                    let wall = rng.gen_range(1..=users as usize) as i64;
                    let sender = rng.gen_range(1..=users as usize) as i64;
                    let think = || {
                        if cfg.think_us > 0 {
                            std::thread::sleep(Duration::from_micros(cfg.think_us));
                        } else {
                            std::thread::yield_now();
                        }
                    };
                    let txn_start = Instant::now();
                    let (op, outcome) = if cfg.disjoint_tables {
                        (
                            OP_DISJOINT,
                            disjoint_txn(&db, t, &mut rng, cfg.posts_per_txn, i as i64, &think),
                        )
                    } else if rng.gen_range(0..100u32) < cfg.poke_pct {
                        (OP_POKE, poke_pair(&db, wall, sender, i as i64, &think))
                    } else {
                        let abort = rng.gen_range(0..100u32) < cfg.abort_pct;
                        (
                            OP_BATCH_POST,
                            app.post_wall_batch_paced(
                                wall,
                                sender,
                                cfg.posts_per_txn,
                                abort,
                                &think,
                            )
                            .map(|_| !abort),
                        )
                    };
                    tally
                        .latencies
                        .push((op, txn_start.elapsed().as_secs_f64()));
                    match outcome {
                        Ok(true) => tally.committed += 1,
                        Ok(false) => tally.rolled_back += 1,
                        Err(StorageError::Deadlock { .. }) => tally.deadlock_aborts += 1,
                        Err(StorageError::WriteConflict { .. }) => tally.write_conflicts += 1,
                        Err(StorageError::TransactionAborted(_))
                        | Err(StorageError::LockTimeout { .. }) => tally.lock_aborts += 1,
                        Err(_) => tally.errors += 1,
                    }
                    if !cfg.disjoint_tables && cfg.read_every > 0 && i % cfg.read_every == 0 {
                        // Autocommit cached read interleaving with other
                        // threads' open transactions. A multi-table read
                        // can itself be chosen as a deadlock victim;
                        // anything else failing is a real bug, so tally
                        // instead of swallowing.
                        // Skewing the read target onto a tiny hot set
                        // concentrates traffic on those users' cached
                        // objects, the keys a node kill moves.
                        let target = if rng.gen_range(0..100u32) < cfg.hot_read_pct {
                            rng.gen_range(1..=4.min(users) as usize) as i64
                        } else {
                            sender
                        };
                        let read_start = Instant::now();
                        match app.lookup_bm(target) {
                            Ok(_) => tally
                                .latencies
                                .push((OP_CACHED_READ, read_start.elapsed().as_secs_f64())),
                            Err(StorageError::Deadlock { .. }) => tally.read_deadlocks += 1,
                            Err(_) => tally.read_errors += 1,
                        }
                    }
                }
                tally
            })
        })
        .collect();

    let mut result = ConcurrencyResult {
        threads,
        ..Default::default()
    };
    let mut op_samples: [Vec<f64>; 5] = Default::default();
    for h in handles {
        let t = h.join().expect("writer thread panicked");
        for (op, secs) in &t.latencies {
            op_samples[*op].push(*secs);
        }
        result.committed += t.committed;
        result.rolled_back += t.rolled_back;
        result.deadlock_aborts += t.deadlock_aborts;
        result.lock_aborts += t.lock_aborts;
        result.write_conflicts += t.write_conflicts;
        result.errors += t.errors;
        result.read_deadlocks += t.read_deadlocks;
        result.read_errors += t.read_errors;
        result.node_kills += t.node_kills;
        result.node_revives += t.node_revives;
        result.crash_copy_taken |= t.crash_copy_taken;
    }
    result.elapsed = start.elapsed();
    writers_done.store(true, std::sync::atomic::Ordering::Relaxed);
    for h in reader_handles {
        let t = h.join().expect("reader thread panicked");
        op_samples[OP_READER_TXN].extend_from_slice(&t.latencies);
        result.read_txns += t.read_txns;
        result.read_stmts += t.read_stmts;
        result.snapshot_violations += t.snapshot_violations;
        result.read_deadlocks += t.read_deadlocks;
        result.read_errors += t.read_errors;
    }
    let done = result.committed + result.rolled_back;
    result.throughput_txns_per_sec = if result.elapsed.as_secs_f64() > 0.0 {
        done as f64 / result.elapsed.as_secs_f64()
    } else {
        0.0
    };
    result.read_txns_per_sec = if result.elapsed.as_secs_f64() > 0.0 {
        result.read_txns as f64 / result.elapsed.as_secs_f64()
    } else {
        0.0
    };
    let locks = env.db.lock_stats();
    result.lock_stats_deadlocks = locks.deadlocks;
    result.lock_waits = locks.waits;
    let latches = env.db.latch_stats();
    result.latch_waits = latches.total_waits();
    result.latch_table_waits = latches.table_waits();
    // If the schedule killed a node and the revive point was never
    // reached (tiny txns_per_thread), bring it back before the sweep:
    // coherence is defined over the fully-alive cluster.
    if cfg.node_kill {
        let cluster = env.genie.cluster();
        for idx in 0..cfg.cluster.servers {
            if !cluster.is_alive(idx) && cluster.revive_node(idx) {
                result.node_revives += 1;
            }
        }
    }

    // Post-run cross-check on the quiescent system: every cached object
    // the mix can have touched, for every user.
    let per_user = [
        "latest_wall_posts",
        "wall_post_count",
        "user_by_id",
        "profile_by_user",
        "friends_of_user",
        "friend_count",
        "user_bookmark_count",
    ];
    for user in 1..=users {
        let params = [Value::Int(user)];
        for name in per_user {
            result.checked_objects += 1;
            if !env.genie.verify_coherence(name, &params)? {
                result.coherence_violations += 1;
            }
        }
    }
    if let Some(ws) = env.db.wal_stats() {
        result.wal_records = ws.records;
        result.wal_syncs = ws.syncs;
        result.wal_batches = ws.batches;
        result.wal_checkpoints = ws.checkpoints;
    }
    result.content_digest = env.db.content_digest();
    result.commit_epoch = env.db.commit_epoch();
    result.op_latencies = summarize_ops(op_samples);
    Ok(result)
}

/// A two-row "poke" transaction: updates both users' `last_login` in
/// caller-chosen order. Opposite-order pairs on different threads form
/// waits-for cycles — the deadlock-detection workload. On any error the
/// transaction is rolled back and the error returned for tallying.
fn poke_pair(
    db: &genie_storage::Database,
    a: i64,
    b: i64,
    seq: i64,
    pace: &dyn Fn(),
) -> Result<bool> {
    db.execute_sql("BEGIN", &[])?;
    let run = (|| {
        db.execute_sql(
            "UPDATE users SET last_login = $1 WHERE id = $2",
            &[Value::Timestamp(1_000_000 + seq), Value::Int(a)],
        )?;
        // Application work between the two statements: without this
        // window the lock-hold time is so short that cycles almost never
        // form and the deadlock detector sits idle.
        pace();
        db.execute_sql(
            "UPDATE users SET last_login = $1 WHERE id = $2",
            &[Value::Timestamp(1_000_000 + seq), Value::Int(b)],
        )?;
        Ok(())
    })();
    match run {
        Ok(()) => {
            db.execute_sql("COMMIT", &[])?;
            Ok(true)
        }
        Err(e) => {
            let _ = db.execute_sql("ROLLBACK", &[]);
            Err(e)
        }
    }
}

/// One disjoint-table transaction: `updates` single-row UPDATEs against
/// this thread's own `shard_<t>` table, with application think time
/// between statements. No other thread ever touches this table, so the
/// only shared structures on the hot path are the catalog read latch
/// and the commit epoch — the shape that isolates latch-sharding
/// scaling from row-lock contention. On any error the transaction is
/// rolled back and the error returned for tallying.
fn disjoint_txn(
    db: &genie_storage::Database,
    shard: usize,
    rng: &mut StdRng,
    updates: usize,
    seq: i64,
    pace: &dyn Fn(),
) -> Result<bool> {
    let sql = format!("UPDATE shard_{shard} SET n = $1 WHERE id = $2");
    db.execute_sql("BEGIN", &[])?;
    let run = (|| {
        for _ in 0..updates.max(1) {
            let id = rng.gen_range(1..=SHARD_ROWS);
            db.execute_sql(&sql, &[Value::Int(seq), Value::Int(id)])?;
            pace();
        }
        Ok(())
    })();
    match run {
        Ok(()) => {
            db.execute_sql("COMMIT", &[])?;
            Ok(true)
        }
        Err(e) => {
            let _ = db.execute_sql("ROLLBACK", &[]);
            Err(e)
        }
    }
}

/// One read-only analytics transaction: counts a wall's posts, pages
/// through users, then re-runs the first count before COMMIT. Returns
/// `(statements issued, snapshot consistent)` — under MVCC the repeated
/// count must be identical however many writers committed in between,
/// because both reads resolve against the transaction's pinned
/// snapshot. On any error the transaction is rolled back and the error
/// returned for tallying.
fn reader_txn(db: &genie_storage::Database, wall: i64, stmts: usize) -> Result<(u64, bool)> {
    db.execute_sql("BEGIN", &[])?;
    let run = (|| {
        let mut issued = 0u64;
        let count_sql = "SELECT COUNT(*) FROM wall_posts WHERE user_id = $1";
        let first = db.execute_sql(count_sql, &[Value::Int(wall)])?;
        issued += 1;
        for i in 0..stmts.saturating_sub(2) {
            db.execute_sql(
                "SELECT id, last_login FROM users WHERE id = $1",
                &[Value::Int(wall + i as i64)],
            )?;
            issued += 1;
        }
        let again = db.execute_sql(count_sql, &[Value::Int(wall)])?;
        issued += 1;
        Ok((issued, first.result.rows == again.result.rows))
    })();
    match run {
        Ok(r) => {
            db.execute_sql("COMMIT", &[])?;
            Ok(r)
        }
        Err(e) => {
            let _ = db.execute_sql("ROLLBACK", &[]);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_writers_complete_with_zero_violations() {
        let r = run_concurrent(&ConcurrencyConfig {
            threads: 4,
            txns_per_thread: 40,
            ..Default::default()
        })
        .unwrap();
        assert_eq!(r.errors, 0, "unexpected errors: {r:?}");
        assert!(r.committed > 0);
        assert_eq!(r.coherence_violations, 0, "stale cache entries: {r:?}");
        assert!(r.checked_objects > 0);
    }

    #[test]
    fn deadlocks_are_detected_not_hung() {
        let cfg = ConcurrencyConfig {
            threads: 4,
            txns_per_thread: 60,
            poke_pct: 100, // all two-row pokes: cycles guaranteed
            seed: SeedConfig {
                users: 4, // tiny key space maximizes collisions
                ..SeedConfig::tiny()
            },
            ..Default::default()
        };
        let r = run_concurrent(&cfg).unwrap();
        assert_eq!(r.errors, 0, "{r:?}");
        assert!(r.committed > 0, "progress despite contention: {r:?}");
        assert_eq!(r.coherence_violations, 0, "{r:?}");
        assert_eq!(
            r.deadlock_aborts + r.read_deadlocks,
            r.lock_stats_deadlocks,
            "every lock-manager victim surfaced as one aborted txn or read: {r:?}"
        );
    }

    #[test]
    fn disjoint_tables_show_zero_table_latch_waits() {
        let cfg = ConcurrencyConfig {
            threads: 4,
            txns_per_thread: 50,
            posts_per_txn: 3,
            think_us: 20,
            ..Default::default()
        };
        let r = run_concurrent(&ConcurrencyConfig {
            disjoint_tables: true,
            ..cfg
        })
        .unwrap();
        assert_eq!(r.errors, 0, "{r:?}");
        assert_eq!(r.committed, 4 * 50, "every disjoint txn commits: {r:?}");
        assert_eq!(
            r.latch_table_waits, 0,
            "threads pinned to disjoint tables must never meet on a table latch: {r:?}"
        );
        assert_eq!(r.lock_stats_deadlocks, 0, "{r:?}");
        assert_eq!(r.coherence_violations, 0, "{r:?}");
    }

    #[test]
    fn cache_mix_survives_node_kill_and_rejoin() {
        let cfg = ConcurrencyConfig {
            threads: 3,
            txns_per_thread: 60,
            read_every: 1, // cache-heavy: a cached read after every txn
            // Skewed onto users 1-4: traffic concentrates on the keys
            // the kill moves.
            hot_read_pct: 80,
            node_kill: true,
            cluster: ClusterConfig {
                servers: 4,
                ..Default::default()
            },
            ..Default::default()
        };
        let r = run_concurrent(&cfg).unwrap();
        assert_eq!(r.errors, 0, "{r:?}");
        assert_eq!(r.read_errors, 0, "{r:?}");
        assert_eq!(
            r.node_kills, 1,
            "schedule killed node 1 exactly once: {r:?}"
        );
        assert_eq!(r.node_revives, 1, "and revived it exactly once: {r:?}");
        assert_eq!(
            r.coherence_violations, 0,
            "kill/rejoin must not leave stale cache state: {r:?}"
        );
    }

    #[test]
    fn durable_mix_survives_a_mid_run_crash_image() {
        let base = std::env::temp_dir().join(format!("genie-conc-wal-{}", std::process::id()));
        let wal_dir = base.join("live");
        let copy_dir = base.join("crash");
        let cfg = ConcurrencyConfig {
            threads: 4,
            txns_per_thread: 60,
            wal_dir: Some(wal_dir.clone()),
            crash_copy_dir: Some(copy_dir.clone()),
            wal_config: WalConfig {
                checkpoint_every: 64, // fuzzy checkpoints fire mid-mix
                ..WalConfig::default()
            },
            ..Default::default()
        };
        let r = run_concurrent(&cfg).unwrap();
        assert_eq!(r.errors, 0, "{r:?}");
        assert_eq!(r.coherence_violations, 0, "{r:?}");
        assert!(r.crash_copy_taken, "{r:?}");
        assert!(r.wal_records > 0, "{r:?}");
        assert!(
            r.wal_syncs <= r.wal_records,
            "syncs cannot exceed records: {r:?}"
        );
        assert!(r.wal_checkpoints > 0, "auto-checkpoint never fired: {r:?}");

        // The torn mid-run image recovers to *some committed prefix*…
        let (torn, report) = Database::open_with(
            &copy_dir,
            genie_storage::DbConfig::default(),
            cfg.wal_config,
        )
        .unwrap();
        assert!(torn.commit_epoch() <= r.commit_epoch);
        assert!(report.recovered_epoch > 0, "image recovered nothing");
        drop(torn);
        // …and the final, quiescent directory recovers to the exact
        // post-run state the coherence sweep verified.
        let recovered = Database::open_with_recovery(&wal_dir).unwrap();
        assert_eq!(recovered.commit_epoch(), r.commit_epoch);
        assert_eq!(recovered.content_digest(), r.content_digest);
        drop(recovered);
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn snapshot_readers_never_block_never_deadlock_never_tear() {
        let cfg = ConcurrencyConfig {
            threads: 2,
            txns_per_thread: 60,
            reader_threads: 2,
            reads_per_reader_txn: 4,
            think_us: 50, // writers hold row locks across real time
            ..Default::default()
        };
        let r = run_concurrent(&cfg).unwrap();
        assert_eq!(r.errors, 0, "{r:?}");
        assert!(r.read_txns > 0, "readers made progress: {r:?}");
        assert_eq!(
            r.read_deadlocks, 0,
            "lock-free readers cannot deadlock: {r:?}"
        );
        assert_eq!(r.read_errors, 0, "{r:?}");
        assert_eq!(
            r.snapshot_violations, 0,
            "repeated reads inside one txn must agree: {r:?}"
        );
        assert_eq!(r.coherence_violations, 0, "{r:?}");
    }
}
