//! Crash-injection tests for the write-ahead log and ARIES-lite restart
//! recovery.
//!
//! Every test follows the same shape: build a durable database, commit a
//! known history, then crash it — by dropping the handle (a clean crash:
//! commits are durable the moment they are reported), by copying the log
//! directory out from under a live database (an OS-level crash image), or
//! by corrupting the log bytes directly (torn tail, flipped checksum,
//! truncated frame header). Recovery must then reconstruct exactly the
//! committed prefix: every acknowledged commit present, every in-flight
//! transaction gone, indexes and the planner's banded counts consistent, and
//! `commit_epoch` equal to the prefix length.
//!
//! The crash matrix in `docs/DURABILITY.md` maps each failure mode to the
//! test covering it.

use genie_storage::{Database, DbConfig, StorageError, Value, WalConfig};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

static TMP_SEQ: AtomicU32 = AtomicU32::new(0);

/// Process-unique scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "genie-recovery-{tag}-{}-{}",
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

/// Log segment files in `dir`, sorted by name (= by sequence).
fn segments(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "log"))
        .collect();
    out.sort();
    out
}

/// Copies the log directory byte-for-byte — the moral equivalent of the
/// machine losing power and the disk surviving.
fn crash_copy(dir: &Path, tag: &str) -> Scratch {
    let copy = Scratch::new(tag);
    fs::create_dir_all(copy.path()).unwrap();
    for entry in fs::read_dir(dir).unwrap() {
        let p = entry.unwrap().path();
        fs::copy(&p, copy.path().join(p.file_name().unwrap())).unwrap();
    }
    copy
}

fn wal_cfg() -> WalConfig {
    WalConfig {
        checkpoint_every: 0, // tests checkpoint explicitly
        ..WalConfig::default()
    }
}

fn durable(dir: &Path) -> Database {
    Database::create_durable(dir, DbConfig::default(), wal_cfg()).unwrap()
}

/// A small schema with a secondary index and enough shape to exercise
/// insert/update/delete/pk-move redo.
fn seed(db: &Database, rows: i64) {
    db.execute_sql(
        "CREATE TABLE users (id INT PRIMARY KEY, name TEXT NOT NULL, karma INT)",
        &[],
    )
    .unwrap();
    db.execute_sql("CREATE INDEX users_karma ON users (karma)", &[])
        .unwrap();
    for i in 0..rows {
        db.execute_sql(
            "INSERT INTO users VALUES ($1, $2, $3)",
            &[
                Value::Int(i),
                Value::Text(format!("u{i}")),
                Value::Int(i % 7),
            ],
        )
        .unwrap();
    }
}

#[test]
fn fresh_or_absent_dir_is_a_valid_fresh_start() {
    let s = Scratch::new("fresh");
    let (db, report) = Database::open_with(s.path(), DbConfig::default(), wal_cfg()).unwrap();
    assert!(db.is_durable());
    assert_eq!(report.recovered_epoch, 0);
    assert_eq!(report.replayed_commits, 0);
    seed(&db, 5);
    let digest = db.content_digest();
    drop(db);
    let reopened = Database::open_with_recovery(s.path()).unwrap();
    assert_eq!(reopened.content_digest(), digest);
    assert_eq!(reopened.row_count("users").unwrap(), 5);
}

#[test]
fn create_durable_refuses_an_existing_log() {
    let s = Scratch::new("refuse");
    let db = durable(s.path());
    seed(&db, 1);
    drop(db);
    match Database::create_durable(s.path(), DbConfig::default(), wal_cfg()) {
        Err(StorageError::Wal(msg)) => assert!(msg.contains("open_with_recovery"), "{msg}"),
        other => panic!("expected Wal error, got {other:?}"),
    }
}

#[test]
fn clean_restart_replays_the_full_history() {
    let s = Scratch::new("clean");
    let db = durable(s.path());
    seed(&db, 50);
    // Mixed traffic: updates, deletes, a transaction, and a pk swap via
    // a temporary key (the redo record for it nets to a two-row move).
    db.execute_sql("UPDATE users SET karma = karma + 10 WHERE id < 20", &[])
        .unwrap();
    db.execute_sql("DELETE FROM users WHERE id >= 45", &[])
        .unwrap();
    db.transaction(|t| {
        t.execute_sql("UPDATE users SET id = 1000 WHERE id = 1", &[])?;
        t.execute_sql("UPDATE users SET id = 1 WHERE id = 2", &[])?;
        t.execute_sql("UPDATE users SET id = 2 WHERE id = 1000", &[])?;
        Ok(())
    })
    .unwrap();
    let digest = db.content_digest();
    let epoch = db.commit_epoch();
    drop(db);

    let (recovered, report) =
        Database::open_with(s.path(), DbConfig::default(), wal_cfg()).unwrap();
    assert_eq!(report.recovered_epoch, epoch);
    assert!(report.truncated.is_none(), "clean log, nothing to cut");
    assert_eq!(recovered.commit_epoch(), epoch);
    assert_eq!(recovered.content_digest(), digest, "byte-identical state");
    // The pk swap really swapped.
    let out = recovered
        .execute_sql("SELECT name FROM users WHERE id = 1", &[])
        .unwrap();
    assert_eq!(out.result.rows[0].get(0), &Value::Text("u2".into()));
}

#[test]
fn torn_tail_is_discarded_and_the_prefix_survives() {
    let s = Scratch::new("torn");
    let db = durable(s.path());
    seed(&db, 10);
    let digest = db.content_digest();
    let epoch = db.commit_epoch();
    drop(db);

    // A commit whose frame only partially reached the disk: valid
    // header, body cut short mid-payload.
    let seg = segments(s.path()).pop().unwrap();
    let mut bytes = fs::read(&seg).unwrap();
    bytes.extend_from_slice(&64u32.to_le_bytes()); // claims 64 payload bytes
    bytes.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
    bytes.extend_from_slice(&[0xAB; 20]); // ...delivers 20
    fs::write(&seg, &bytes).unwrap();

    let (recovered, report) =
        Database::open_with(s.path(), DbConfig::default(), wal_cfg()).unwrap();
    let (_, _, reason) = report.truncated.expect("tail must be detected");
    assert!(reason.contains("truncated"), "{reason}");
    assert_eq!(recovered.commit_epoch(), epoch);
    assert_eq!(recovered.content_digest(), digest);

    // The truncation is durable: recovering the directory again finds a
    // clean log and the identical state.
    drop(recovered);
    let (again, report2) = Database::open_with(s.path(), DbConfig::default(), wal_cfg()).unwrap();
    assert!(report2.truncated.is_none(), "cleanup already ran");
    assert_eq!(again.content_digest(), digest);
}

#[test]
fn corrupted_checksum_mid_log_cuts_there() {
    let s = Scratch::new("crc");
    let db = durable(s.path());
    seed(&db, 30);
    drop(db);

    // Flip one byte around the middle of the segment: every record
    // before the damaged frame replays, everything after is discarded
    // (the log cannot vouch for anything past unverifiable bytes).
    let seg = segments(s.path()).pop().unwrap();
    let mut bytes = fs::read(&seg).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    fs::write(&seg, &bytes).unwrap();

    let (recovered, report) =
        Database::open_with(s.path(), DbConfig::default(), wal_cfg()).unwrap();
    let (_, offset, _) = report.truncated.expect("corruption must be detected");
    assert!(offset as usize <= mid, "cut at or before the damaged frame");
    let epoch = recovered.commit_epoch();
    assert!(epoch > 0, "the undamaged prefix replays");
    assert!(
        epoch < 31,
        "records after the damage are gone (epoch {epoch})"
    );
    assert_eq!(
        recovered.row_count("users").unwrap() as u64,
        epoch,
        "exactly one surviving insert per surviving epoch"
    );
}

#[test]
fn truncated_length_prefix_is_a_torn_tail() {
    let s = Scratch::new("short");
    let db = durable(s.path());
    seed(&db, 8);
    let digest = db.content_digest();
    drop(db);

    // Cut the file mid-frame-header: 2 bytes of a 4-byte length field.
    let seg = segments(s.path()).pop().unwrap();
    let mut bytes = fs::read(&seg).unwrap();
    bytes.extend_from_slice(&[0x01, 0x00]);
    fs::write(&seg, &bytes).unwrap();

    let (recovered, report) =
        Database::open_with(s.path(), DbConfig::default(), wal_cfg()).unwrap();
    let (_, _, reason) = report.truncated.expect("short header must be detected");
    assert!(reason.contains("header"), "{reason}");
    assert_eq!(recovered.content_digest(), digest);
}

#[test]
fn in_flight_transactions_leave_no_trace() {
    let s = Scratch::new("inflight");
    let db = durable(s.path());
    seed(&db, 5);
    let committed_digest = db.content_digest();

    // An open transaction with buffered writes: nothing of it may reach
    // the log before COMMIT, so a crash image taken now must not know
    // the row.
    let mut txn = db.begin_concurrent().unwrap();
    txn.execute_sql("INSERT INTO users VALUES (99, 'ghost', 0)", &[])
        .unwrap();
    let copy = crash_copy(s.path(), "inflight-img");
    let (recovered, _) = Database::open_with(copy.path(), DbConfig::default(), wal_cfg()).unwrap();
    assert_eq!(recovered.content_digest(), committed_digest);
    let out = recovered
        .execute_sql("SELECT id FROM users WHERE id = 99", &[])
        .unwrap();
    assert!(out.result.rows.is_empty(), "in-flight row leaked");
    drop(txn);
}

#[test]
fn indexes_and_statistics_survive_recovery() {
    let s = Scratch::new("index");
    let db = durable(s.path());
    seed(&db, 40);
    drop(db);

    let recovered = Database::open_with_recovery(s.path()).unwrap();
    // The secondary index exists (a duplicate create collides)...
    match recovered.execute_sql("CREATE INDEX users_karma ON users (karma)", &[]) {
        Err(StorageError::AlreadyExists(_)) => {}
        other => panic!("index should have been recovered, got {other:?}"),
    }
    // ...the planner picks it up (replay rebuilt the counts it reads)...
    let plan = recovered
        .explain_sql("SELECT name FROM users WHERE karma = 3", &[])
        .unwrap();
    assert_eq!(
        plan.base.path.index_name(),
        Some("users_karma"),
        "index unused:\n{plan}"
    );
    // ...and it returns exactly the right rows.
    let out = recovered
        .execute_sql("SELECT id FROM users WHERE karma = 3 ORDER BY id", &[])
        .unwrap();
    let ids: Vec<i64> = out
        .result
        .rows
        .iter()
        .map(|r| match r.get(0) {
            Value::Int(i) => *i,
            other => panic!("unexpected {other:?}"),
        })
        .collect();
    let expect: Vec<i64> = (0..40).filter(|i| i % 7 == 3).collect();
    assert_eq!(ids, expect);
}

#[test]
fn checkpoint_truncates_and_recovery_starts_from_it() {
    let s = Scratch::new("ckpt");
    let db = durable(s.path());
    seed(&db, 20);
    let stats = db.checkpoint().unwrap();
    assert_eq!(stats.tables, 1);
    assert_eq!(stats.rows, 20);
    assert!(stats.segments_deleted >= 1, "the sealed prefix is gone");
    // Post-checkpoint traffic replays on top of the image.
    for i in 20..25 {
        db.execute_sql(
            "INSERT INTO users VALUES ($1, $2, $3)",
            &[
                Value::Int(i),
                Value::Text(format!("u{i}")),
                Value::Int(i % 7),
            ],
        )
        .unwrap();
    }
    let digest = db.content_digest();
    let epoch = db.commit_epoch();
    drop(db);

    let (recovered, report) =
        Database::open_with(s.path(), DbConfig::default(), wal_cfg()).unwrap();
    assert_eq!(report.checkpoint_epoch, stats.epoch);
    assert_eq!(report.replayed_commits, 5, "only the post-image commits");
    assert_eq!(recovered.commit_epoch(), epoch);
    assert_eq!(recovered.content_digest(), digest);
}

#[test]
fn checkpoint_never_loses_records_it_still_needs() {
    // Deterministic interleaving of commits and checkpoints, with a
    // crash image taken after every step: whatever the cut, the image
    // must recover to the state committed at that moment.
    let s = Scratch::new("ckpt-interleave");
    let db = durable(s.path());
    seed(&db, 4);
    for round in 0..6 {
        db.execute_sql(
            "UPDATE users SET karma = $1 WHERE id = $2",
            &[Value::Int(round * 100), Value::Int(round % 4)],
        )
        .unwrap();
        if round % 2 == 1 {
            db.checkpoint().unwrap();
        }
        let expect = db.content_digest();
        let copy = crash_copy(s.path(), "ckpt-step");
        let (recovered, _) =
            Database::open_with(copy.path(), DbConfig::default(), wal_cfg()).unwrap();
        assert_eq!(
            recovered.content_digest(),
            expect,
            "round {round}: checkpoint/truncation lost a needed record"
        );
    }
}

#[test]
fn read_only_commits_append_nothing() {
    let s = Scratch::new("readonly");
    let db = durable(s.path());
    seed(&db, 3);
    let before = db.wal_stats().unwrap();

    // Autocommit read.
    let out = db.execute_sql("SELECT * FROM users", &[]).unwrap();
    assert_eq!(out.cost.wal_appends, 0);
    assert_eq!(out.cost.wal_bytes, 0);
    assert_eq!(out.cost.wal_syncs, 0);
    // Read-only transaction.
    let mut txn = db.begin_concurrent().unwrap();
    txn.execute_sql("SELECT count(*) FROM users", &[]).unwrap();
    let cost = txn.commit().unwrap();
    assert_eq!(cost.wal_appends, 0);
    assert_eq!(cost.wal_bytes, 0);
    assert_eq!(cost.wal_syncs, 0);
    // A write statement that matches no rows commits nothing.
    let out = db
        .execute_sql("UPDATE users SET karma = 1 WHERE id = 12345", &[])
        .unwrap();
    assert_eq!(out.cost.wal_appends, 0);
    assert_eq!(out.cost.wal_bytes, 0);

    let after = db.wal_stats().unwrap();
    assert_eq!(after.records, before.records, "no record hit the log");
    assert_eq!(after.bytes, before.bytes);

    // And the measured counters are real: a writing commit reports the
    // same bytes the log writer accounted.
    let out = db
        .execute_sql("UPDATE users SET karma = 1 WHERE id = 1", &[])
        .unwrap();
    assert_eq!(out.cost.wal_appends, 1);
    assert!(out.cost.wal_bytes > 0);
    let final_stats = db.wal_stats().unwrap();
    assert_eq!(final_stats.bytes - after.bytes, out.cost.wal_bytes);
}

// ---------------------------------------------------------------------------
// Randomized crash points
// ---------------------------------------------------------------------------

/// One workload operation; epochs advance only on ops that change rows.
#[derive(Debug, Clone)]
enum Op {
    Insert(i64, i64),
    Update(i64, i64),
    Delete(i64),
}

fn apply(db: &Database, op: &Op) {
    // Constraint violations (duplicate insert) abort the statement
    // without consuming an epoch — identically on both databases.
    let r = match op {
        Op::Insert(pk, v) => db.execute_sql(
            "INSERT INTO kv VALUES ($1, $2)",
            &[Value::Int(*pk), Value::Int(*v)],
        ),
        Op::Update(pk, v) => db.execute_sql(
            "UPDATE kv SET v = $1 WHERE k = $2",
            &[Value::Int(*v), Value::Int(*pk)],
        ),
        Op::Delete(pk) => db.execute_sql("DELETE FROM kv WHERE k = $1", &[Value::Int(*pk)]),
    };
    match r {
        Ok(_) | Err(StorageError::UniqueViolation { .. }) => {}
        Err(e) => panic!("unexpected error applying {op:?}: {e}"),
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..16i64, 0..100i64).prop_map(|(k, v)| Op::Insert(k, v)),
        (0..16i64, 0..100i64).prop_map(|(k, v)| Op::Update(k, v)),
        (0..16i64).prop_map(Op::Delete),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cut the log at an arbitrary byte and recover: the result must be
    /// exactly the state after the first `recovered_epoch` effective
    /// ops — never a blend, never an in-flight fragment.
    #[test]
    fn recovery_is_a_prefix_of_committed_ops(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        cut_frac in 0.0f64..1.0,
    ) {
        let s = Scratch::new("prop");
        let db = durable(s.path());
        db.execute_sql("CREATE TABLE kv (k INT PRIMARY KEY, v INT)", &[]).unwrap();
        // Seal the DDL into a checkpoint so the byte cut below can only
        // land inside commit records, never mid-CREATE TABLE.
        db.checkpoint().unwrap();
        for op in &ops {
            apply(&db, op);
        }
        let full_epoch = db.commit_epoch();
        drop(db);

        // Crash: keep only a prefix of the single segment's bytes.
        let seg = segments(s.path()).pop().unwrap();
        let bytes = fs::read(&seg).unwrap();
        let keep = (bytes.len() as f64 * cut_frac) as usize;
        fs::write(&seg, &bytes[..keep]).unwrap();

        let (recovered, report) =
            Database::open_with(s.path(), DbConfig::default(), wal_cfg()).unwrap();
        let epoch = report.recovered_epoch;
        prop_assert!(epoch <= full_epoch);
        prop_assert_eq!(recovered.commit_epoch(), epoch);

        // Mirror: the same ops on an in-memory database, stopped once
        // its epoch reaches the recovered prefix. Ops beyond that point
        // either consumed later epochs (discarded by the cut) or
        // changed nothing.
        let mirror = Database::default();
        mirror.execute_sql("CREATE TABLE kv (k INT PRIMARY KEY, v INT)", &[]).unwrap();
        for op in &ops {
            if mirror.commit_epoch() >= epoch {
                break;
            }
            apply(&mirror, op);
        }
        prop_assert_eq!(mirror.commit_epoch(), epoch);
        prop_assert_eq!(
            recovered.content_digest(),
            mirror.content_digest(),
            "recovered state diverges from the committed prefix"
        );
    }
}
