//! Bulk transactions cost time linear in their rows.
//!
//! One transaction of N single-row inserts and one of 4N go through
//! COMMIT, ROLLBACK and (durably) a reopen that replays the committed
//! log. Each step is timed on its own — never the statement phase that
//! builds the transaction — as the minimum of three runs, and the
//! 4N/N ratio must stay under 8: linear work gives about 4, a per-row
//! scan over the transaction's earlier rows gives about 16.

use genie_storage::{sql, ConcurrentTxn, Database, DbConfig, Value, WalConfig};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Rows in the small transaction; the large one has four times as many.
const N: i64 = 1_000;
const RUNS: usize = 3;
/// Linear is ≈ 4, quadratic ≈ 16.
const MAX_RATIO: f64 = 8.0;

static TMP_SEQ: AtomicU32 = AtomicU32::new(0);
/// The tests time wall-clock work: run them one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// Process-unique scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "genie-bulk-txn-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        Scratch(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// A parent table and an indexed child table with a foreign key to it.
fn schema(db: &Database) {
    db.execute_sql(
        "CREATE TABLE users (id INT PRIMARY KEY, name TEXT NOT NULL)",
        &[],
    )
    .unwrap();
    db.execute_sql(
        "CREATE TABLE posts (id INT PRIMARY KEY, owner INT NOT NULL, body TEXT, \
         FOREIGN KEY (owner) REFERENCES users (id))",
        &[],
    )
    .unwrap();
    db.execute_sql("CREATE INDEX posts_owner ON posts (owner)", &[])
        .unwrap();
    for u in 0..16i64 {
        db.execute_sql(
            "INSERT INTO users VALUES ($1, $2)",
            &[Value::Int(u), Value::Text(format!("u{u}"))],
        )
        .unwrap();
    }
}

/// Opens a transaction holding `rows` single-row inserts into `posts`.
fn bulk(db: &Database, rows: i64) -> ConcurrentTxn {
    let insert = sql::parse("INSERT INTO posts VALUES ($1, $2, $3)").unwrap();
    let mut txn = db.begin_concurrent().unwrap();
    for i in 0..rows {
        txn.execute(
            &insert,
            &[
                Value::Int(i),
                Value::Int(i % 16),
                Value::Text(format!("post {i}")),
            ],
        )
        .unwrap();
    }
    txn
}

fn timed(f: impl FnOnce()) -> Duration {
    let t0 = Instant::now();
    f();
    t0.elapsed()
}

fn min_of(mut run: impl FnMut() -> Duration) -> Duration {
    (0..RUNS).map(|_| run()).min().unwrap()
}

fn assert_linear(step: &str, small: Duration, large: Duration) {
    let ratio = large.as_secs_f64() / small.as_secs_f64().max(1e-6);
    assert!(
        ratio < MAX_RATIO,
        "{step}: {N} rows took {small:?}, {} rows took {large:?} (ratio {ratio:.1}, limit {MAX_RATIO})",
        4 * N
    );
}

fn memory_commit(rows: i64) -> Duration {
    min_of(|| {
        let db = Database::default();
        schema(&db);
        let txn = bulk(&db, rows);
        let t = timed(|| {
            txn.commit().unwrap();
        });
        assert_eq!(db.row_count("posts").unwrap(), rows as usize);
        t
    })
}

fn memory_rollback(rows: i64) -> Duration {
    min_of(|| {
        let db = Database::default();
        schema(&db);
        let txn = bulk(&db, rows);
        let t = timed(|| txn.rollback().unwrap());
        assert_eq!(db.row_count("posts").unwrap(), 0);
        t
    })
}

/// Commits one `rows`-row transaction to a fresh durable database, then
/// times reopening it (recovery replays the commit record).
fn durable_reopen(rows: i64) -> Duration {
    let dir = Scratch::new();
    let wal = || WalConfig {
        checkpoint_every: 0,
        ..WalConfig::default()
    };
    {
        let db = Database::create_durable(dir.path(), DbConfig::default(), wal()).unwrap();
        schema(&db);
        bulk(&db, rows).commit().unwrap();
    }
    min_of(|| {
        let mut opened = None;
        let t = timed(|| {
            opened = Some(Database::open_with(dir.path(), DbConfig::default(), wal()).unwrap());
        });
        let (db, report) = opened.unwrap();
        assert_eq!(db.row_count("posts").unwrap(), rows as usize);
        assert!(report.replayed_commits > 0);
        t
    })
}

#[test]
fn bulk_commit_is_linear_in_rows() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    assert_linear("in-memory COMMIT", memory_commit(N), memory_commit(4 * N));
}

#[test]
fn bulk_rollback_is_linear_in_rows() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    assert_linear("ROLLBACK", memory_rollback(N), memory_rollback(4 * N));
}

#[test]
fn durable_reopen_of_a_bulk_commit_is_linear_in_rows() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    assert_linear("durable reopen", durable_reopen(N), durable_reopen(4 * N));
}
