//! Latch-sharding under concurrent DDL: the exclusive catalog latch
//! (CREATE TABLE / CREATE INDEX) racing per-table readers and writers.
//!
//! The engine's latch hierarchy is catalog read-write latch → per-table
//! latches → lock manager. DDL takes the catalog latch exclusively and
//! reaches tables through `&mut Catalog`, so it must (a) wait out every
//! in-flight statement, including readers that only hold table latches
//! under the shared catalog latch, (b) never deadlock against them (the
//! acquisition order catalog → table is fixed and statements never block
//! on the lock manager while latched), and (c) leave every structure it
//! builds — new tables, new indexes — consistent with the writes that
//! raced it.

use genie_storage::{Database, DbConfig, Value};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

fn db_with_tables() -> Database {
    let db = Database::new(DbConfig::default());
    db.execute_sql(
        "CREATE TABLE scans (id INT PRIMARY KEY, grp INT NOT NULL, val INT NOT NULL)",
        &[],
    )
    .unwrap();
    db.execute_sql(
        "CREATE TABLE writes (id INT PRIMARY KEY, n INT NOT NULL)",
        &[],
    )
    .unwrap();
    db.execute_sql("BEGIN", &[]).unwrap();
    for id in 1..=2000i64 {
        db.execute_sql(
            "INSERT INTO scans (id, grp, val) VALUES ($1, $2, $3)",
            &[
                Value::Int(id),
                Value::Int(id % 7),
                Value::Int(id * 13 % 1000),
            ],
        )
        .unwrap();
    }
    for id in 1..=200i64 {
        db.execute_sql(
            "INSERT INTO writes (id, n) VALUES ($1, 0)",
            &[Value::Int(id)],
        )
        .unwrap();
    }
    db.execute_sql("COMMIT", &[]).unwrap();
    db
}

fn count_where_grp(db: &Database, grp: i64) -> i64 {
    let out = db
        .execute_sql(
            "SELECT COUNT(*) FROM scans WHERE grp = $1",
            &[Value::Int(grp)],
        )
        .unwrap();
    match out.result.rows[0].get(0) {
        Value::Int(n) => *n,
        v => panic!("COUNT(*) returned {v:?}"),
    }
}

/// CREATE TABLE and CREATE INDEX storms racing scans and writers on
/// *other* tables: everything must run to completion (no catalog↔table
/// latch deadlock), with zero statement errors on either side. The storm
/// keeps going until every worker has finished a round, so each worker
/// overlaps it by construction rather than by the scheduler's grace.
#[test]
fn ddl_races_scans_and_writers_on_other_tables() {
    const WORKERS: u64 = 4;
    let db = db_with_tables();
    let done = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(WORKERS as usize + 1));
    let scan_errors = Arc::new(AtomicU64::new(0));
    // Workers that have completed their first round.
    let started = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();

    // Two scanner threads: full-table aggregates over `scans`.
    for t in 0..2 {
        let db = db.clone();
        let done = Arc::clone(&done);
        let barrier = Arc::clone(&barrier);
        let errs = Arc::clone(&scan_errors);
        let started = Arc::clone(&started);
        handles.push(thread::spawn(move || {
            barrier.wait();
            let mut reads = 0u64;
            while !done.load(Ordering::Relaxed) {
                if db
                    .execute_sql(
                        "SELECT COUNT(*) FROM scans WHERE val < $1",
                        &[Value::Int(500 + t)],
                    )
                    .is_err()
                {
                    errs.fetch_add(1, Ordering::Relaxed);
                }
                reads += 1;
                if reads == 1 {
                    started.fetch_add(1, Ordering::Relaxed);
                }
            }
            reads
        }));
    }
    // Two writer threads: single-row updates on `writes`.
    for t in 0..2i64 {
        let db = db.clone();
        let done = Arc::clone(&done);
        let barrier = Arc::clone(&barrier);
        let errs = Arc::clone(&scan_errors);
        let started = Arc::clone(&started);
        handles.push(thread::spawn(move || {
            barrier.wait();
            let mut seq = 0i64;
            while !done.load(Ordering::Relaxed) {
                seq += 1;
                let id = 1 + (seq * 2 + t) % 200;
                if db
                    .execute_sql(
                        "UPDATE writes SET n = $1 WHERE id = $2",
                        &[Value::Int(seq), Value::Int(id)],
                    )
                    .is_err()
                {
                    errs.fetch_add(1, Ordering::Relaxed);
                }
                if seq == 1 {
                    started.fetch_add(1, Ordering::Relaxed);
                }
            }
            seq as u64
        }));
    }

    // DDL storm on this thread: new tables and new indexes, never
    // touching `scans`/`writes` rows. It runs at least 30 rounds and
    // ends only once every worker has completed one of its own.
    barrier.wait();
    let mut i = 0;
    while i < 30 || started.load(Ordering::Relaxed) < WORKERS {
        db.execute_sql(
            &format!("CREATE TABLE ddl_{i} (id INT PRIMARY KEY, v INT)"),
            &[],
        )
        .unwrap();
        db.execute_sql(
            &format!("INSERT INTO ddl_{i} (id, v) VALUES ($1, $2)"),
            &[Value::Int(1), Value::Int(i)],
        )
        .unwrap();
        db.execute_sql(&format!("CREATE INDEX ddl_{i}_v ON ddl_{i} (v)"), &[])
            .unwrap();
        i += 1;
    }
    done.store(true, Ordering::Relaxed);
    for h in handles {
        let rounds = h.join().expect("worker thread panicked");
        assert!(rounds >= 1, "every scan/writer thread ran during DDL");
    }
    assert_eq!(
        scan_errors.load(Ordering::Relaxed),
        0,
        "statements racing DDL must not fail"
    );
    // Every DDL product is durable and queryable afterwards.
    for i in 0..30 {
        let out = db
            .execute_sql(
                &format!("SELECT id FROM ddl_{i} WHERE v = $1"),
                &[Value::Int(i)],
            )
            .unwrap();
        assert_eq!(out.result.rows.len(), 1, "ddl_{i} lost its row");
    }
}

/// CREATE INDEX on a table writers are actively updating: the exclusive
/// catalog latch must wait out in-flight statements and build an index
/// that agrees with a full scan afterwards.
#[test]
fn index_built_under_concurrent_writers_is_consistent() {
    let db = db_with_tables();
    let done = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(3));
    let mut handles = Vec::new();
    for t in 0..2i64 {
        let db = db.clone();
        let done = Arc::clone(&done);
        let barrier = Arc::clone(&barrier);
        handles.push(thread::spawn(move || {
            barrier.wait();
            let mut seq = 0i64;
            while !done.load(Ordering::Relaxed) {
                seq += 1;
                let id = 1 + (seq * 2 + t) % 2000;
                db.execute_sql(
                    "UPDATE scans SET grp = $1 WHERE id = $2",
                    &[Value::Int(seq % 7), Value::Int(id)],
                )
                .unwrap();
            }
        }));
    }
    barrier.wait();
    // Let the writers interleave with the build on both sides.
    thread::sleep(std::time::Duration::from_millis(5));
    db.execute_sql("CREATE INDEX scans_grp ON scans (grp)", &[])
        .unwrap();
    thread::sleep(std::time::Duration::from_millis(5));
    done.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().expect("writer thread panicked");
    }
    // The index-backed point lookups must partition the table exactly.
    let total: i64 = (0..7).map(|g| count_where_grp(&db, g)).sum();
    assert_eq!(total, 2000, "index probes disagree with table contents");
}

/// The exclusive catalog latch excludes per-table readers correctly: a
/// burst of snapshot transactions that pin tables across statements
/// cannot be torn by DDL committing between their reads.
#[test]
fn ddl_between_snapshot_reads_does_not_tear() {
    let db = db_with_tables();
    let done = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(2));
    let reader_txns = Arc::new(AtomicU64::new(0));
    let reader = {
        let db = db.clone();
        let done = Arc::clone(&done);
        let barrier = Arc::clone(&barrier);
        let txns = Arc::clone(&reader_txns);
        thread::spawn(move || {
            barrier.wait();
            while !done.load(Ordering::Relaxed) {
                db.execute_sql("BEGIN", &[]).unwrap();
                let a = count_where_grp(&db, 3);
                std::thread::yield_now();
                let b = count_where_grp(&db, 3);
                db.execute_sql("COMMIT", &[]).unwrap();
                assert_eq!(a, b, "repeated read inside one txn disagreed across DDL");
                txns.fetch_add(1, Ordering::Relaxed);
            }
        })
    };
    barrier.wait();
    // Keep the DDL storm going until the reader has demonstrably
    // interleaved whole transactions with it.
    let mut i = 0;
    while reader_txns.load(Ordering::Relaxed) < 10 || i < 40 {
        db.execute_sql(
            &format!("CREATE TABLE snap_ddl_{i} (id INT PRIMARY KEY)"),
            &[],
        )
        .unwrap();
        i += 1;
        assert!(i < 100_000, "reader starved behind the DDL storm");
    }
    done.store(true, Ordering::Relaxed);
    reader.join().expect("reader thread panicked");
    assert!(reader_txns.load(Ordering::Relaxed) >= 10);
}
