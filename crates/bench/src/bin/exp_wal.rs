//! Write-ahead log experiment: group-commit throughput, and
//! restart-recovery time vs log size.
//!
//! Two legs; `--check` gates the second:
//!
//! 1. **Commit throughput sweep**: 1/4/8 writer threads hammer disjoint
//!    tables with autocommit updates on a durable database whose log
//!    writer simulates a realistic device flush latency
//!    ([`SYNC_DELAY_US`] per physical sync — tmpfs would otherwise hide
//!    the very cost group commit amortizes). Reports commits/s and
//!    physical syncs per commit: a lone committer pays one flush per
//!    commit, concurrent committers share a leader's flush.
//! 2. **Recovery sweep**: logs of 1k / 5k / 10k commits are crash-copied
//!    with one in-flight transaction open, then recovered. The recovered
//!    database must match the live committed state exactly — same
//!    content digest, same commit epoch, zero in-flight leakage — and
//!    the per-commit replay cost must be visible in the timing series.
//!
//! ```text
//! cargo run --release -p genie-bench --bin exp_wal
//! cargo run --release -p genie-bench --bin exp_wal -- --check --quick
//! ```

use genie_bench::{write_result, BenchJson, TextTable};
use genie_storage::{Database, DbConfig, Value, WalConfig};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Simulated device flush latency (microseconds per physical sync).
/// Chosen near a datacenter SSD's fsync: large enough that sync count
/// dominates the commit path, small enough that a sweep stays fast.
const SYNC_DELAY_US: u64 = 150;

/// Rows per writer-thread shard table.
const SHARD_ROWS: i64 = 64;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("genie-exp-wal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One throughput cell: `threads` writers, `ops` autocommit updates
/// each against their own table. Returns `(commits/sec, syncs per
/// commit)` over the measured phase.
fn commit_throughput(threads: usize, ops: usize) -> (f64, f64) {
    let dir = scratch("group");
    let db = Database::create_durable(
        &dir,
        DbConfig::default(),
        WalConfig {
            sync_delay_us: SYNC_DELAY_US,
            checkpoint_every: 0,
        },
    )
    .expect("create durable db");
    for t in 0..threads {
        db.execute_sql(
            &format!("CREATE TABLE shard_{t} (id INT PRIMARY KEY, n INT NOT NULL)"),
            &[],
        )
        .unwrap();
        for id in 1..=SHARD_ROWS {
            db.execute_sql(
                &format!("INSERT INTO shard_{t} (id, n) VALUES ($1, 0)"),
                &[Value::Int(id)],
            )
            .unwrap();
        }
    }
    let barrier = Arc::new(Barrier::new(threads + 1));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let db = db.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let sql = format!("UPDATE shard_{t} SET n = $1 WHERE id = $2");
                barrier.wait();
                for i in 0..ops {
                    db.execute_sql(
                        &sql,
                        &[
                            Value::Int(i as i64),
                            Value::Int(1 + (i as i64 % SHARD_ROWS)),
                        ],
                    )
                    .unwrap();
                }
            })
        })
        .collect();
    let seeded = db.wal_stats().expect("durable db has wal stats");
    barrier.wait();
    let start = Instant::now();
    for h in handles {
        h.join().expect("writer thread panicked");
    }
    let elapsed = start.elapsed().as_secs_f64();
    let stats = db.wal_stats().expect("durable db has wal stats");
    assert!(
        stats.syncs <= stats.records,
        "more syncs than records: {stats:?}"
    );
    let commits = (threads * ops) as f64;
    let syncs = (stats.syncs - seeded.syncs) as f64;
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    (commits / elapsed.max(1e-9), syncs / commits)
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let p = entry.unwrap().path();
        if p.is_file() {
            std::fs::copy(&p, dst.join(p.file_name().unwrap())).unwrap();
        }
    }
}

/// One recovery cell: a log of `commits` single-row commits is
/// crash-copied with an in-flight transaction open, then recovered.
/// Returns `(recovery seconds, replayed commits)` and pushes any
/// correctness failure.
fn recovery_cell(commits: u64, failures: &mut Vec<String>) -> (f64, u64) {
    let dir = scratch(&format!("rec-{commits}"));
    let copy = scratch(&format!("rec-copy-{commits}"));
    let db = Database::create_durable(
        &dir,
        DbConfig::default(),
        WalConfig {
            sync_delay_us: 0,
            checkpoint_every: 0,
        },
    )
    .expect("create durable db");
    db.execute_sql("CREATE TABLE kv (k INT PRIMARY KEY, v INT NOT NULL)", &[])
        .unwrap();
    db.execute_sql("CREATE INDEX kv_v ON kv (v)", &[]).unwrap();
    for i in 0..commits as i64 {
        // Inserts grow the table; every 4th commit updates instead, so
        // replay exercises both paths.
        if i % 4 == 3 {
            // Row 0 is inserted by the first commit, so this always
            // hits: every commit in the log is effective and the
            // replayed count equals the log size.
            db.execute_sql("UPDATE kv SET v = $1 WHERE k = 0", &[Value::Int(i)])
                .unwrap();
        } else {
            db.execute_sql(
                "INSERT INTO kv VALUES ($1, $2)",
                &[Value::Int(i), Value::Int(i % 97)],
            )
            .unwrap();
        }
    }
    let digest = db.content_digest();
    let epoch = db.commit_epoch();
    // Crash with one transaction in flight: its writes are buffered,
    // never logged, and must not survive.
    let mut txn = db.begin_concurrent().expect("begin txn");
    txn.execute_sql("INSERT INTO kv VALUES (-1, -1)", &[])
        .unwrap();
    copy_dir(&dir, &copy);

    let start = Instant::now();
    let (recovered, report) = Database::open_with(&copy, DbConfig::default(), WalConfig::default())
        .expect("recovery failed");
    let secs = start.elapsed().as_secs_f64();
    if report.replayed_commits != commits {
        failures.push(format!(
            "{commits}-commit log: only {} commits replayed",
            report.replayed_commits
        ));
    }
    if recovered.commit_epoch() != epoch || recovered.content_digest() != digest {
        failures.push(format!(
            "{commits}-commit log: recovered (epoch {}, digest {:#x}) != live committed \
             (epoch {epoch}, digest {digest:#x})",
            recovered.commit_epoch(),
            recovered.content_digest()
        ));
    }
    let ghost = recovered
        .execute_sql("SELECT k FROM kv WHERE k = -1", &[])
        .unwrap();
    if !ghost.result.rows.is_empty() {
        failures.push(format!(
            "{commits}-commit log: in-flight transaction leaked into recovery"
        ));
    }
    drop(txn);
    drop(db);
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&copy);
    (secs, report.replayed_commits)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let quick = args.iter().any(|a| a == "--quick");
    let ops: usize = if quick { 600 } else { 2_000 };
    let mut failures: Vec<String> = Vec::new();
    let mut json = BenchJson::new("exp_wal");

    // Leg 1: group-commit throughput.
    println!("WAL group commit");
    println!("({ops} commits/thread, {SYNC_DELAY_US}us simulated flush latency)\n");
    let threads_sweep = [1usize, 4, 8];
    let mut table = TextTable::new(&["threads", "commits/s", "syncs/commit"]);
    let mut group_tp = Vec::new();
    let mut syncs_per_commit = Vec::new();
    // Best-of-3 per cell: the measured phase is sub-second and a noisy
    // neighbor perturbs the slowest rep far more than the best one.
    let reps = 3;
    for &t in &threads_sweep {
        let (tp, spc) = (0..reps)
            .map(|_| commit_throughput(t, ops))
            .max_by(|a, b| a.0.total_cmp(&b.0))
            .expect("at least one rep");
        table.row(vec![t.to_string(), format!("{tp:.0}"), format!("{spc:.2}")]);
        group_tp.push(tp);
        syncs_per_commit.push(spc);
    }
    println!("{}", table.render());

    // Leg 2: recovery time vs log size, with correctness gates inside
    // each cell. The 10k point is the acceptance bar: recovery must
    // replay a >=10k-commit log to the exact pre-crash committed state.
    let sizes: [u64; 3] = [1_000, 5_000, 10_000];
    let mut rec_table = TextTable::new(&["commits", "recovery ms", "replayed", "commits/ms"]);
    let mut rec_ms = Vec::new();
    let mut replayed = Vec::new();
    println!("Restart recovery vs log size (crash with one in-flight txn)\n");
    for &n in &sizes {
        let (secs, r) = recovery_cell(n, &mut failures);
        rec_table.row(vec![
            n.to_string(),
            format!("{:.1}", secs * 1e3),
            r.to_string(),
            format!("{:.0}", r as f64 / (secs * 1e3).max(1e-9)),
        ]);
        rec_ms.push(secs * 1e3);
        replayed.push(r);
    }
    println!("{}", rec_table.render());

    write_result(
        "exp_wal.csv",
        &format!("{}\n{}", table.to_csv(), rec_table.to_csv()),
    );
    json = json
        .int("ops_per_thread", ops as u64)
        .int("sync_delay_us", SYNC_DELAY_US)
        .ints(
            "threads",
            &threads_sweep.iter().map(|&t| t as u64).collect::<Vec<_>>(),
        )
        .nums("group_commit_commits_per_sec", &group_tp)
        .nums("syncs_per_commit", &syncs_per_commit)
        .ints("recovery_log_commits", &sizes)
        .nums("recovery_ms", &rec_ms)
        .ints("recovery_replayed_commits", &replayed);
    json.write();

    if check {
        if failures.is_empty() {
            println!("\nexp_wal: all checks passed");
        } else {
            eprintln!("\nexp_wal: {} failure(s):", failures.len());
            for f in &failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
    }
}
