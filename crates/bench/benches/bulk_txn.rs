//! Criterion bench: COMMIT of one bulk transaction of 1 k / 4 k / 16 k
//! single-row inserts (an indexed table with a foreign key), in memory
//! and on a durable database. Only the commit is on the clock; divide by
//! the row count for the per-row cost, which stays flat when commit is
//! linear in the transaction's rows (`storage/tests/bulk_txn.rs` gates
//! the ratio).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use genie_storage::{sql, Database, DbConfig, Value, WalConfig};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

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

/// Builds a fresh database holding one open `rows`-row transaction and
/// returns how long its COMMIT took.
fn commit_once(durable: bool, rows: i64) -> Duration {
    let dir = durable.then(|| {
        let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("genie-bulk-bench-{}-{seq}", std::process::id()))
    });
    let db = match &dir {
        Some(d) => Database::create_durable(d, DbConfig::default(), WalConfig::default()).unwrap(),
        None => Database::default(),
    };
    schema(&db);
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
    let t0 = Instant::now();
    txn.commit().unwrap();
    let took = t0.elapsed();
    drop(db);
    if let Some(d) = &dir {
        let _ = std::fs::remove_dir_all(d);
    }
    took
}

fn bench_bulk_commit(c: &mut Criterion) {
    let mut group = c.benchmark_group("bulk_txn_commit");
    for (mode, durable) in [("memory", false), ("durable", true)] {
        for rows in [1_000i64, 4_000, 16_000] {
            group.bench_with_input(BenchmarkId::new(mode, rows), &rows, |b, &rows| {
                b.iter_custom(|iters| (0..iters).map(|_| commit_once(durable, rows)).sum())
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_bulk_commit);
criterion_main!(benches);
