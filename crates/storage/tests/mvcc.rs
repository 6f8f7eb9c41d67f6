//! MVCC snapshot-read tests: reader/writer non-blocking, snapshot
//! pinning across commits, first-updater-wins write conflicts, vacuum
//! horizon discipline, and read-only serializability under real OS
//! threads.

use genie_storage::{Database, Snapshot, StorageError, Value};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Barrier, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Counts threads that have completed a first round, so the threads they
/// race can wait for them: overlap by construction, not by scheduling.
#[derive(Default)]
struct FirstRounds {
    done: Mutex<usize>,
    cv: Condvar,
}

impl FirstRounds {
    /// Runs in [`Arrival`]'s `Drop`, so it must not panic; a count behind
    /// a poisoned lock is still a valid count.
    fn arrive(&self) {
        *self.done.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        self.cv.notify_all();
    }

    /// Parks until `n` threads have arrived.
    fn wait_for(&self, n: usize) {
        let _done = self
            .cv
            .wait_while(self.done.lock().unwrap(), |done| *done < n)
            .unwrap();
    }
}

/// Arrives at a [`FirstRounds`] when dropped: after the thread's first
/// round, or while it unwinds from a panic before one, so a failed
/// assertion fails the test instead of parking the threads waiting on it.
struct Arrival<'a>(&'a FirstRounds);

impl Drop for Arrival<'_> {
    fn drop(&mut self) {
        self.0.arrive();
    }
}

fn counters(n: i64) -> Database {
    let db = Database::default();
    db.execute_sql("CREATE TABLE c (id INT PRIMARY KEY, n INT NOT NULL)", &[])
        .unwrap();
    for id in 1..=n {
        db.execute_sql("INSERT INTO c VALUES ($1, 0)", &[Value::Int(id)])
            .unwrap();
    }
    db
}

fn read_n(db: &Database, id: i64) -> i64 {
    db.execute_sql("SELECT n FROM c WHERE id = $1", &[Value::Int(id)])
        .unwrap()
        .result
        .rows[0]
        .get(0)
        .as_int()
        .unwrap()
}

/// The headline property: a reader proceeds, with a correct answer,
/// while another thread's transaction holds an uncommitted write on the
/// same table. A reader taking a table lock would block behind the
/// writer until commit; under MVCC it resolves the committed version
/// immediately.
#[test]
fn readers_do_not_block_behind_open_writer_transactions() {
    let db = counters(2);
    let (writer_ready_tx, writer_ready) = mpsc::channel::<()>();
    let (release_tx, release) = mpsc::channel::<()>();
    let db_w = db.clone();
    let writer = std::thread::spawn(move || {
        db_w.execute_sql("BEGIN", &[]).unwrap();
        db_w.execute_sql("UPDATE c SET n = 99 WHERE id = 1", &[])
            .unwrap();
        writer_ready_tx.send(()).unwrap();
        release.recv().unwrap(); // hold the uncommitted row
        db_w.execute_sql("COMMIT", &[]).unwrap();
    });
    writer_ready.recv().unwrap();
    // The writer transaction is open with an uncommitted update. A
    // blocking reader would hang here forever; the snapshot reader
    // returns the committed value at once.
    assert_eq!(read_n(&db, 1), 0, "uncommitted write must be invisible");
    let waits_before = db.lock_stats().waits;
    release_tx.send(()).unwrap();
    writer.join().unwrap();
    assert_eq!(read_n(&db, 1), 99, "committed write becomes visible");
    assert_eq!(
        db.lock_stats().waits,
        waits_before,
        "the reader waited on nothing"
    );
}

/// A transaction's snapshot is pinned at BEGIN: commits landing after
/// it see none of their effects inside the transaction, all of them
/// after it ends.
#[test]
fn read_transaction_pins_its_snapshot_across_commits() {
    let db = counters(1);
    db.execute_sql("BEGIN", &[]).unwrap();
    assert_eq!(read_n(&db, 1), 0);
    // Another thread commits an update meanwhile.
    let db2 = db.clone();
    std::thread::spawn(move || {
        db2.execute_sql("UPDATE c SET n = 7 WHERE id = 1", &[])
            .unwrap();
    })
    .join()
    .unwrap();
    // Same transaction: still the old snapshot — repeatable reads.
    assert_eq!(read_n(&db, 1), 0);
    let count = db
        .execute_sql("SELECT COUNT(*) FROM c WHERE n = 7", &[])
        .unwrap()
        .result
        .rows[0]
        .get(0)
        .as_int()
        .unwrap();
    assert_eq!(count, 0, "COUNT pushdown honors the snapshot too");
    db.execute_sql("COMMIT", &[]).unwrap();
    assert_eq!(read_n(&db, 1), 7, "fresh snapshot after commit");
}

/// First-updater-wins: a transaction whose snapshot predates a
/// concurrent committed update aborts with WriteConflict when it
/// touches the same row — the lost update the check exists to prevent.
#[test]
fn write_conflict_aborts_the_second_updater() {
    let db = counters(1);
    db.execute_sql("BEGIN", &[]).unwrap();
    assert_eq!(read_n(&db, 1), 0); // snapshot taken
    let db2 = db.clone();
    std::thread::spawn(move || {
        db2.execute_sql("UPDATE c SET n = n + 10 WHERE id = 1", &[])
            .unwrap();
    })
    .join()
    .unwrap();
    let r = db.execute_sql("UPDATE c SET n = n + 1 WHERE id = 1", &[]);
    assert!(
        matches!(r, Err(StorageError::WriteConflict { .. })),
        "expected WriteConflict, got {r:?}"
    );
    db.execute_sql("ROLLBACK", &[]).unwrap();
    assert_eq!(read_n(&db, 1), 10, "only the first updater's write stands");
}

/// Deleted rows stay visible to older snapshots until they end; a pk
/// re-insert after a committed delete serves each snapshot its own row.
#[test]
fn delete_and_pk_reuse_respect_snapshots() {
    let db = counters(1);
    db.execute_sql("UPDATE c SET n = 1 WHERE id = 1", &[])
        .unwrap();
    // Old snapshot opens before the delete.
    db.execute_sql("BEGIN", &[]).unwrap();
    assert_eq!(read_n(&db, 1), 1);
    let db2 = db.clone();
    std::thread::spawn(move || {
        db2.execute_sql("DELETE FROM c WHERE id = 1", &[]).unwrap();
        db2.execute_sql("INSERT INTO c VALUES (1, 42)", &[])
            .unwrap();
    })
    .join()
    .unwrap();
    // The old snapshot still sees its version of pk 1.
    assert_eq!(read_n(&db, 1), 1);
    db.execute_sql("COMMIT", &[]).unwrap();
    assert_eq!(
        read_n(&db, 1),
        42,
        "new row visible after the snapshot ends"
    );
}

/// A foreign-key check must not accept a parent row another transaction
/// inserted but has not committed (it may roll back, leaving a dangling
/// reference).
#[test]
fn fk_checks_ignore_other_transactions_uncommitted_parents() {
    use genie_storage::{ColumnDef, TableSchema, ValueType};
    let db = Database::default();
    db.execute_sql("CREATE TABLE p (id INT PRIMARY KEY)", &[])
        .unwrap();
    db.create_table(
        TableSchema::builder("child")
            .pk("id")
            .column(ColumnDef::new("pid", ValueType::Int))
            .foreign_key("pid", "p", "id")
            .build()
            .unwrap(),
    )
    .unwrap();
    let (parent_pending_tx, parent_pending) = mpsc::channel::<()>();
    let (done_tx, done) = mpsc::channel::<()>();
    let db_w = db.clone();
    let writer = std::thread::spawn(move || {
        db_w.execute_sql("BEGIN", &[]).unwrap();
        db_w.execute_sql("INSERT INTO p VALUES (5)", &[]).unwrap();
        parent_pending_tx.send(()).unwrap();
        done.recv().unwrap();
        db_w.execute_sql("ROLLBACK", &[]).unwrap();
    });
    parent_pending.recv().unwrap();
    let r = db.execute_sql("INSERT INTO child VALUES (1, 5)", &[]);
    assert!(
        matches!(r, Err(StorageError::ForeignKeyViolation { .. })),
        "uncommitted parent must not satisfy the FK: {r:?}"
    );
    done_tx.send(()).unwrap();
    writer.join().unwrap();
}

/// Vacuum prunes only versions past the oldest live snapshot: a
/// long-running reader pins the horizon, and releasing it lets the
/// whole history go.
#[test]
fn vacuum_respects_the_oldest_live_snapshot() {
    let db = counters(1);
    // Reader pins the pre-churn snapshot from another thread (it stays
    // parked inside an open transaction).
    let db_r = db.clone();
    let (pinned_tx, pinned) = mpsc::channel::<()>();
    let (release_tx, release) = mpsc::channel::<()>();
    let reader = std::thread::spawn(move || {
        db_r.execute_sql("BEGIN", &[]).unwrap();
        assert_eq!(read_n(&db_r, 1), 0);
        pinned_tx.send(()).unwrap();
        release.recv().unwrap();
        // The pinned snapshot still resolves after heavy churn + vacuum.
        assert_eq!(read_n(&db_r, 1), 0);
        db_r.execute_sql("COMMIT", &[]).unwrap();
    });
    pinned.recv().unwrap();
    for i in 1..=10 {
        db.execute_sql("UPDATE c SET n = $1 WHERE id = 1", &[Value::Int(i)])
            .unwrap();
    }
    assert_eq!(db.version_stats().history_versions, 10);
    let pruned_while_pinned = db.vacuum();
    // Only versions wholly invisible to the pinned snapshot can go; the
    // version the reader still sees (and everything it needs) survives.
    assert!(
        db.version_stats().history_versions >= 1,
        "the pinned snapshot's version chain must survive: {:?}",
        db.version_stats()
    );
    assert_eq!(read_n(&db, 1), 10, "latest state unaffected by vacuum");
    release_tx.send(()).unwrap();
    reader.join().unwrap();
    let pruned_after = db.vacuum();
    assert_eq!(
        db.version_stats().history_versions,
        0,
        "with no live snapshot every superseded version is reclaimed"
    );
    assert!(pruned_while_pinned + pruned_after >= 10);
    assert_eq!(read_n(&db, 1), 10);
    // Settled rows collapse back to the implicit committed state.
    assert_eq!(db.version_stats().versioned_rows, 0);
}

/// Secondary-index scans resolve versions too: a row whose indexed
/// column moved must appear exactly once, under the key its visible
/// version carries.
#[test]
fn index_scans_resolve_versions_without_duplicates() {
    let db = Database::default();
    db.execute_sql("CREATE TABLE t (id INT PRIMARY KEY, grp INT NOT NULL)", &[])
        .unwrap();
    db.execute_sql("CREATE INDEX t_grp ON t (grp)", &[])
        .unwrap();
    db.execute_sql("INSERT INTO t VALUES (1, 10), (2, 10), (3, 20)", &[])
        .unwrap();
    db.execute_sql("BEGIN", &[]).unwrap();
    assert_eq!(
        db.execute_sql("SELECT id FROM t WHERE grp = 10", &[])
            .unwrap()
            .result
            .rows
            .len(),
        2
    );
    let db2 = db.clone();
    std::thread::spawn(move || {
        // Move row 1 from group 10 to group 20: both index keys now
        // carry entries for row 1 until vacuum.
        db2.execute_sql("UPDATE t SET grp = 20 WHERE id = 1", &[])
            .unwrap();
    })
    .join()
    .unwrap();
    // Old snapshot: still 2 rows in group 10, 1 in group 20.
    assert_eq!(
        db.execute_sql("SELECT id FROM t WHERE grp = 10", &[])
            .unwrap()
            .result
            .rows
            .len(),
        2
    );
    let g20: Vec<i64> = db
        .execute_sql("SELECT id FROM t WHERE grp IN (10, 20) ORDER BY id", &[])
        .unwrap()
        .result
        .rows
        .iter()
        .map(|r| r.get(0).as_int().unwrap())
        .collect();
    assert_eq!(g20, vec![1, 2, 3], "no duplicates from the stale entry");
    db.execute_sql("COMMIT", &[]).unwrap();
    // Fresh snapshot: the move is visible, still no duplicates.
    let all: Vec<i64> = db
        .execute_sql("SELECT id FROM t WHERE grp IN (10, 20) ORDER BY id", &[])
        .unwrap()
        .result
        .rows
        .iter()
        .map(|r| r.get(0).as_int().unwrap())
        .collect();
    assert_eq!(all, vec![1, 2, 3]);
    assert_eq!(
        db.execute_sql("SELECT id FROM t WHERE grp = 20", &[])
            .unwrap()
            .result
            .rows
            .len(),
        2
    );
}

/// `Snapshot` is part of the public API surface; pin one shape check so
/// downstream crates can rely on it.
#[test]
fn snapshot_type_is_exported() {
    let s = Snapshot {
        epoch: 3,
        writer: None,
    };
    assert_eq!(s.epoch, 3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Read-only serializability: each writer appends ITS OWN
    /// monotonically numbered rows, one committed transaction per row,
    /// while reader transactions concurrently take two reads each.
    /// Because a single writer's commits are ordered, any state some
    /// serial order of the committed transactions produces shows a
    /// *contiguous per-writer prefix*. Every reader transaction must
    /// observe (a) exactly such a prefix for every writer, (b) the
    /// identical answer when re-read inside the same transaction, and
    /// (c) monotonically non-decreasing totals across successive
    /// transactions. (A global contiguity check would be wrong: seq
    /// allocation across writers is not atomic with commit order.)
    #[test]
    fn snapshot_reads_equal_a_serial_prefix_of_committed_writers(
        writers in 1usize..4,
        per_writer in 3usize..12,
        readers in 1usize..3,
    ) {
        const BASE: i64 = 100_000;
        let db = Database::default();
        db.execute_sql("CREATE TABLE log (seq INT PRIMARY KEY)", &[]).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let barrier = Arc::new(Barrier::new(writers + readers));
        let first_rounds = Arc::new(FirstRounds::default());

        let writer_handles: Vec<_> = (0..writers).map(|w| {
            let db = db.clone();
            let barrier = Arc::clone(&barrier);
            let first_rounds = Arc::clone(&first_rounds);
            std::thread::spawn(move || {
                barrier.wait();
                for i in 1..=per_writer as i64 {
                    let seq = (w as i64 + 1) * BASE + i;
                    db.transaction(|t| {
                        t.execute_sql("INSERT INTO log VALUES ($1)", &[Value::Int(seq)])?;
                        Ok(())
                    }).unwrap();
                }
                // Writers finish only once every reader has completed a
                // round while they were still running.
                first_rounds.wait_for(readers);
            })
        }).collect();

        let reader_handles: Vec<_> = (0..readers).map(|_| {
            let db = db.clone();
            let stop = Arc::clone(&stop);
            let barrier = Arc::clone(&barrier);
            let first_rounds = Arc::clone(&first_rounds);
            std::thread::spawn(move || {
                barrier.wait();
                let mut arrival = Some(Arrival(&first_rounds));
                let mut last_total = 0i64;
                let mut checks = 0u64;
                let observe = |db: &Database| -> Vec<(i64, i64)> {
                    (0..writers).map(|w| {
                        let lo = (w as i64 + 1) * BASE;
                        let hi = lo + BASE;
                        let params = [Value::Int(lo), Value::Int(hi)];
                        let c = db.execute_sql(
                            "SELECT COUNT(*) FROM log WHERE seq > $1 AND seq < $2", &params)
                            .unwrap().result.rows[0].get(0).as_int().unwrap();
                        let m = db.execute_sql(
                            "SELECT MAX(seq) FROM log WHERE seq > $1 AND seq < $2", &params)
                            .unwrap().result.rows[0].get(0).as_int().unwrap_or(lo);
                        (c, m - lo)
                    }).collect()
                };
                while !stop.load(Ordering::Relaxed) {
                    db.execute_sql("BEGIN", &[]).unwrap();
                    let first = observe(&db);
                    std::thread::yield_now();
                    let second = observe(&db);
                    db.execute_sql("COMMIT", &[]).unwrap();
                    // (b) repeatable within the transaction.
                    assert_eq!(first, second, "snapshot changed mid-transaction");
                    // (a) a contiguous prefix per writer: max == count.
                    for (w, (c, m)) in first.iter().enumerate() {
                        assert_eq!(c, m, "writer {w}'s rows are not a committed prefix");
                    }
                    // (c) snapshots move forward across transactions.
                    let total: i64 = first.iter().map(|(c, _)| c).sum();
                    assert!(total >= last_total, "snapshot went backwards");
                    last_total = total;
                    checks += 1;
                    drop(arrival.take());
                }
                checks
            })
        }).collect();

        for h in writer_handles { h.join().unwrap(); }
        stop.store(true, Ordering::Relaxed);
        for h in reader_handles {
            prop_assert!(h.join().unwrap() >= 1, "every reader completed a round");
        }
        // Final state: the full serial history.
        let total = (writers * per_writer) as i64;
        let final_count = db.execute_sql("SELECT COUNT(*) FROM log", &[])
            .unwrap().result.rows[0].get(0).as_int().unwrap();
        prop_assert_eq!(final_count, total);
        // Readers are gone: vacuum reclaims everything.
        db.vacuum();
        prop_assert_eq!(db.version_stats().history_versions, 0);
    }
}

/// A statement that fails part-way (here: a duplicate key on the second
/// row of a multi-row INSERT) must undo the rows it already wrote —
/// leaked uncommitted versions would wedge their keys forever.
#[test]
fn failed_statement_undoes_its_partial_writes() {
    let db = counters(0);
    let r = db.execute_sql("INSERT INTO c VALUES (7, 1), (7, 2)", &[]);
    assert!(
        matches!(r, Err(StorageError::UniqueViolation { .. })),
        "{r:?}"
    );
    // The first (7, 1) row must be fully gone: a fresh insert of pk 7
    // succeeds (a leaked version would raise WriteConflict forever).
    db.execute_sql("INSERT INTO c VALUES (7, 3)", &[]).unwrap();
    assert_eq!(read_n(&db, 7), 3);
    db.vacuum();
    assert_eq!(db.version_stats().versioned_rows, 0);
    assert_eq!(db.version_stats().history_versions, 0);

    // Same property mid-UPDATE: rows 1 and 2 exist; a conflicting txn
    // supersedes row 2, then our snapshot updates both — row 1 is
    // applied first and must roll back when row 2 conflicts.
    let db = counters(2);
    db.execute_sql("BEGIN", &[]).unwrap();
    assert_eq!(read_n(&db, 1), 0); // pin snapshot
    let db2 = db.clone();
    std::thread::spawn(move || {
        db2.execute_sql("UPDATE c SET n = 50 WHERE id = 2", &[])
            .unwrap();
    })
    .join()
    .unwrap();
    let r = db.execute_sql("UPDATE c SET n = n + 1", &[]);
    assert!(
        matches!(r, Err(StorageError::WriteConflict { .. })),
        "{r:?}"
    );
    db.execute_sql("ROLLBACK", &[]).unwrap();
    assert_eq!(read_n(&db, 1), 0, "row 1's partial update rolled back");
    assert_eq!(read_n(&db, 2), 50, "the first updater's write stands");
    db.vacuum();
    assert_eq!(db.version_stats().versioned_rows, 0, "no leaked versions");
}

/// Writing a row that a newer committed transaction deleted is a
/// write conflict (retryable), not an internal error.
#[test]
fn write_to_committed_deleted_row_is_a_conflict_not_an_error() {
    let db = counters(2);
    db.execute_sql("BEGIN", &[]).unwrap();
    assert_eq!(read_n(&db, 1), 0); // snapshot sees both rows
    let db2 = db.clone();
    std::thread::spawn(move || {
        db2.execute_sql("DELETE FROM c WHERE id = 1", &[]).unwrap();
    })
    .join()
    .unwrap();
    let upd = db.execute_sql("UPDATE c SET n = 1 WHERE id = 1", &[]);
    assert!(
        matches!(upd, Err(StorageError::WriteConflict { .. })),
        "{upd:?}"
    );
    db.execute_sql("ROLLBACK", &[]).unwrap();
    db.execute_sql("BEGIN", &[]).unwrap();
    assert_eq!(read_n(&db, 2), 0);
    let db2 = db.clone();
    std::thread::spawn(move || {
        db2.execute_sql("DELETE FROM c WHERE id = 2", &[]).unwrap();
    })
    .join()
    .unwrap();
    let del = db.execute_sql("DELETE FROM c WHERE id = 2", &[]);
    assert!(
        matches!(del, Err(StorageError::WriteConflict { .. })),
        "{del:?}"
    );
    db.execute_sql("ROLLBACK", &[]).unwrap();
}

/// Re-inserting a primary key whose row was deleted by a transaction
/// that committed *after* this snapshot conflicts — otherwise one
/// snapshot would see two rows carrying the same key.
#[test]
fn pk_reinsert_over_snapshot_visible_ghost_conflicts() {
    let db = counters(1);
    db.execute_sql("BEGIN", &[]).unwrap();
    assert_eq!(read_n(&db, 1), 0); // snapshot still sees pk 1
    let db2 = db.clone();
    std::thread::spawn(move || {
        db2.execute_sql("DELETE FROM c WHERE id = 1", &[]).unwrap();
    })
    .join()
    .unwrap();
    let r = db.execute_sql("INSERT INTO c VALUES (1, 9)", &[]);
    assert!(
        matches!(r, Err(StorageError::WriteConflict { .. })),
        "{r:?}"
    );
    db.execute_sql("ROLLBACK", &[]).unwrap();
    // A fresh snapshot no longer sees the ghost: the insert lands.
    db.execute_sql("INSERT INTO c VALUES (1, 9)", &[]).unwrap();
    assert_eq!(read_n(&db, 1), 9);
    // And delete + re-insert of the same pk inside ONE transaction
    // still works (the transaction's own delete is not a ghost to it).
    db.execute_sql("BEGIN", &[]).unwrap();
    db.execute_sql("DELETE FROM c WHERE id = 1", &[]).unwrap();
    db.execute_sql("INSERT INTO c VALUES (1, 11)", &[]).unwrap();
    db.execute_sql("COMMIT", &[]).unwrap();
    assert_eq!(read_n(&db, 1), 11);
}

/// A unique secondary key held by a row under another transaction's
/// *uncommitted* delete is still blocked: the delete may roll back,
/// which would otherwise leave two committed rows sharing one unique
/// key. Once the delete commits and the snapshot is fresh, the key is
/// reusable.
#[test]
fn unique_key_blocked_while_owner_delete_is_pending() {
    let db = Database::default();
    db.execute_sql(
        "CREATE TABLE u (id INT PRIMARY KEY, email TEXT UNIQUE)",
        &[],
    )
    .unwrap();
    db.execute_sql("INSERT INTO u VALUES (1, 'k@x')", &[])
        .unwrap();
    let (pending_tx, pending) = mpsc::channel::<()>();
    let (verdict_tx, verdict) = mpsc::channel::<bool>();
    let db_w = db.clone();
    let deleter = std::thread::spawn(move || {
        db_w.execute_sql("BEGIN", &[]).unwrap();
        db_w.execute_sql("DELETE FROM u WHERE id = 1", &[]).unwrap();
        pending_tx.send(()).unwrap();
        // Roll back iff the racing insert was (correctly) refused.
        let refused = verdict.recv().unwrap();
        assert!(
            refused,
            "insert must not reuse a pending-deleted unique key"
        );
        db_w.execute_sql("ROLLBACK", &[]).unwrap();
    });
    pending.recv().unwrap();
    let r = db.execute_sql("INSERT INTO u VALUES (2, 'k@x')", &[]);
    let refused = matches!(r, Err(StorageError::WriteConflict { .. }));
    verdict_tx.send(refused).unwrap();
    deleter.join().unwrap();
    assert!(refused, "got {r:?}");
    // After the rollback the original row still owns the key — and a
    // *different* key inserts fine.
    db.execute_sql("INSERT INTO u VALUES (2, 'other@x')", &[])
        .unwrap();
    let dup = db.execute_sql("INSERT INTO u VALUES (3, 'k@x')", &[]);
    assert!(
        matches!(dup, Err(StorageError::UniqueViolation { .. })),
        "{dup:?}"
    );
}

/// A parent row under another transaction's uncommitted delete does not
/// satisfy a foreign key (the delete may commit, leaving the child
/// dangling) — and because the delete may equally roll back, the
/// refusal is a *retryable* WriteConflict, not a permanent violation.
/// After the delete rolls back, the retry inserts fine.
#[test]
fn fk_checks_reject_pending_deleted_parents() {
    use genie_storage::{ColumnDef, TableSchema, ValueType};
    let db = Database::default();
    db.execute_sql("CREATE TABLE p (id INT PRIMARY KEY)", &[])
        .unwrap();
    db.create_table(
        TableSchema::builder("child")
            .pk("id")
            .column(ColumnDef::new("pid", ValueType::Int))
            .foreign_key("pid", "p", "id")
            .build()
            .unwrap(),
    )
    .unwrap();
    db.execute_sql("INSERT INTO p VALUES (5)", &[]).unwrap();
    let (pending_tx, pending) = mpsc::channel::<()>();
    let (done_tx, done) = mpsc::channel::<()>();
    let db_w = db.clone();
    let deleter = std::thread::spawn(move || {
        db_w.execute_sql("BEGIN", &[]).unwrap();
        db_w.execute_sql("DELETE FROM p WHERE id = 5", &[]).unwrap();
        pending_tx.send(()).unwrap();
        done.recv().unwrap();
        db_w.execute_sql("ROLLBACK", &[]).unwrap();
    });
    pending.recv().unwrap();
    let r = db.execute_sql("INSERT INTO child VALUES (1, 5)", &[]);
    assert!(
        matches!(r, Err(StorageError::WriteConflict { .. })),
        "a parent under a pending delete must refuse retryably: {r:?}"
    );
    done_tx.send(()).unwrap();
    deleter.join().unwrap();
    db.execute_sql("INSERT INTO child VALUES (1, 5)", &[])
        .unwrap();
}

/// Moving a row onto a primary key whose deleted version is still
/// visible to this snapshot conflicts, exactly like an insert would —
/// otherwise the transaction's own scans would see two rows with one
/// key.
#[test]
fn pk_move_onto_snapshot_visible_ghost_conflicts() {
    let db = counters(2);
    db.execute_sql("BEGIN", &[]).unwrap();
    assert_eq!(read_n(&db, 2), 0); // snapshot sees pk 2
    let db2 = db.clone();
    std::thread::spawn(move || {
        db2.execute_sql("DELETE FROM c WHERE id = 2", &[]).unwrap();
    })
    .join()
    .unwrap();
    let r = db.execute_sql("UPDATE c SET id = 2 WHERE id = 1", &[]);
    assert!(
        matches!(r, Err(StorageError::WriteConflict { .. })),
        "{r:?}"
    );
    db.execute_sql("ROLLBACK", &[]).unwrap();
    // Fresh snapshot: the ghost is gone, the move lands.
    db.execute_sql("UPDATE c SET id = 2 WHERE id = 1", &[])
        .unwrap();
    assert_eq!(read_n(&db, 2), 0);
}

/// A unique-key collision with another transaction's *uncommitted* row
/// is a retryable WriteConflict, not a permanent UniqueViolation — the
/// holder may roll back, as it does here, after which the retry lands.
#[test]
fn unique_collision_with_uncommitted_row_is_retryable() {
    let db = Database::default();
    db.execute_sql(
        "CREATE TABLE u (id INT PRIMARY KEY, email TEXT UNIQUE)",
        &[],
    )
    .unwrap();
    let (pending_tx, pending) = mpsc::channel::<()>();
    let (done_tx, done) = mpsc::channel::<()>();
    let db_w = db.clone();
    let first = std::thread::spawn(move || {
        db_w.execute_sql("BEGIN", &[]).unwrap();
        db_w.execute_sql("INSERT INTO u VALUES (1, 'race@x')", &[])
            .unwrap();
        pending_tx.send(()).unwrap();
        done.recv().unwrap();
        db_w.execute_sql("ROLLBACK", &[]).unwrap();
    });
    pending.recv().unwrap();
    let r = db.execute_sql("INSERT INTO u VALUES (2, 'race@x')", &[]);
    assert!(
        matches!(r, Err(StorageError::WriteConflict { .. })),
        "collision with an uncommitted row must be retryable: {r:?}"
    );
    done_tx.send(()).unwrap();
    first.join().unwrap();
    // The holder rolled back: the retry succeeds.
    db.execute_sql("INSERT INTO u VALUES (2, 'race@x')", &[])
        .unwrap();
    // A committed duplicate is still a genuine UniqueViolation.
    let dup = db.execute_sql("INSERT INTO u VALUES (3, 'race@x')", &[]);
    assert!(
        matches!(dup, Err(StorageError::UniqueViolation { .. })),
        "{dup:?}"
    );
}

/// A parent whose primary key is being moved away by another
/// transaction's uncommitted UPDATE must not satisfy a foreign key —
/// that move may commit, orphaning the child.
#[test]
fn fk_checks_reject_parents_under_pending_pk_moves() {
    use genie_storage::{ColumnDef, TableSchema, ValueType};
    let db = Database::default();
    db.execute_sql("CREATE TABLE p (id INT PRIMARY KEY)", &[])
        .unwrap();
    db.create_table(
        TableSchema::builder("child")
            .pk("id")
            .column(ColumnDef::new("pid", ValueType::Int))
            .foreign_key("pid", "p", "id")
            .build()
            .unwrap(),
    )
    .unwrap();
    db.execute_sql("INSERT INTO p VALUES (1)", &[]).unwrap();
    let (pending_tx, pending) = mpsc::channel::<()>();
    let (done_tx, done) = mpsc::channel::<()>();
    let db_w = db.clone();
    let mover = std::thread::spawn(move || {
        db_w.execute_sql("BEGIN", &[]).unwrap();
        db_w.execute_sql("UPDATE p SET id = 2 WHERE id = 1", &[])
            .unwrap();
        pending_tx.send(()).unwrap();
        done.recv().unwrap();
        db_w.execute_sql("COMMIT", &[]).unwrap();
    });
    pending.recv().unwrap();
    let r = db.execute_sql("INSERT INTO child VALUES (1, 1)", &[]);
    assert!(
        matches!(r, Err(StorageError::WriteConflict { .. })),
        "a parent under a pending pk move must refuse retryably: {r:?}"
    );
    done_tx.send(()).unwrap();
    mover.join().unwrap();
    // The move committed: pk 1 is genuinely gone, pk 2 satisfies.
    let still_gone = db.execute_sql("INSERT INTO child VALUES (1, 1)", &[]);
    assert!(matches!(
        still_gone,
        Err(StorageError::ForeignKeyViolation { .. })
    ));
    db.execute_sql("INSERT INTO child VALUES (1, 2)", &[])
        .unwrap();
}

/// A pk move whose target key was taken by a transaction that
/// committed *after* this snapshot is a retryable WriteConflict (the
/// snapshot is stale); the retry on a fresh snapshot then reports the
/// genuine duplicate. (An *uncommitted* holder is a conflict too: the
/// gate refuses any key another transaction's unfinished write holds.)
#[test]
fn pk_move_onto_newer_committed_key_is_retryable() {
    let db = counters(1); // row pk=1 exists
    db.execute_sql("BEGIN", &[]).unwrap();
    assert_eq!(read_n(&db, 1), 0); // snapshot pinned before the insert
    let db2 = db.clone();
    std::thread::spawn(move || {
        db2.execute_sql("INSERT INTO c VALUES (2, 7)", &[]).unwrap();
    })
    .join()
    .unwrap();
    let r = db.execute_sql("UPDATE c SET id = 2 WHERE id = 1", &[]);
    assert!(
        matches!(r, Err(StorageError::WriteConflict { .. })),
        "a stale snapshot must retry, not report a permanent duplicate: {r:?}"
    );
    db.execute_sql("ROLLBACK", &[]).unwrap();
    // Fresh snapshot: the duplicate is genuine now.
    let dup = db.execute_sql("UPDATE c SET id = 2 WHERE id = 1", &[]);
    assert!(
        matches!(dup, Err(StorageError::UniqueViolation { .. })),
        "{dup:?}"
    );
}

/// The unique-secondary-key analogue: a key another session committed
/// after this snapshot is a retryable WriteConflict, whether an INSERT
/// or an UPDATE reaches for it. With a fresh snapshot both are genuine
/// duplicates.
#[test]
fn unique_key_taken_after_the_snapshot_is_retryable() {
    let db = Database::default();
    db.execute_sql(
        "CREATE TABLE u (id INT PRIMARY KEY, email TEXT UNIQUE)",
        &[],
    )
    .unwrap();
    db.execute_sql("INSERT INTO u VALUES (1, 'a@x')", &[])
        .unwrap();
    let statements = [
        "INSERT INTO u VALUES (3, 'race@x')",
        "UPDATE u SET email = 'race@x' WHERE id = 1",
    ];
    for sql in statements {
        db.execute_sql("BEGIN", &[]).unwrap();
        let seen = db.execute_sql("SELECT id FROM u", &[]).unwrap();
        assert_eq!(seen.result.rows.len(), 1); // snapshot pinned first
        let db2 = db.clone();
        std::thread::spawn(move || {
            db2.execute_sql("INSERT INTO u VALUES (2, 'race@x')", &[])
                .unwrap();
        })
        .join()
        .unwrap();
        let r = db.execute_sql(sql, &[]);
        assert!(
            matches!(r, Err(StorageError::WriteConflict { .. })),
            "{sql}: a stale snapshot must retry, not report a permanent duplicate: {r:?}"
        );
        db.execute_sql("ROLLBACK", &[]).unwrap();
        db.execute_sql("DELETE FROM u WHERE id = 2", &[]).unwrap();
    }
    db.execute_sql("INSERT INTO u VALUES (2, 'race@x')", &[])
        .unwrap();
    for sql in statements {
        let dup = db.execute_sql(sql, &[]);
        assert!(
            matches!(dup, Err(StorageError::UniqueViolation { .. })),
            "{sql}: {dup:?}"
        );
    }
}

/// An index created while an older snapshot is live also backfills the
/// retained history versions, so that snapshot's scans through the new
/// index agree with a full scan.
#[test]
fn index_created_mid_snapshot_serves_history_versions() {
    let db = counters(1);
    db.execute_sql("UPDATE c SET n = 30 WHERE id = 1", &[])
        .unwrap();
    db.execute_sql("BEGIN", &[]).unwrap();
    assert_eq!(read_n(&db, 1), 30); // snapshot pinned before the churn
    let db2 = db.clone();
    std::thread::spawn(move || {
        db2.execute_sql("UPDATE c SET n = 31 WHERE id = 1", &[])
            .unwrap();
        db2.execute_sql("CREATE INDEX c_n ON c (n)", &[]).unwrap();
    })
    .join()
    .unwrap();
    // The pinned snapshot still finds its version through the new index.
    let rows = db
        .execute_sql("SELECT id FROM c WHERE n = 30", &[])
        .unwrap()
        .result
        .rows;
    assert_eq!(rows.len(), 1, "history version reachable via the new index");
    let none = db
        .execute_sql("SELECT id FROM c WHERE n = 31", &[])
        .unwrap()
        .result
        .rows;
    assert!(
        none.is_empty(),
        "newer version invisible to the old snapshot"
    );
    db.execute_sql("COMMIT", &[]).unwrap();
    assert_eq!(
        db.execute_sql("SELECT id FROM c WHERE n = 31", &[])
            .unwrap()
            .result
            .rows
            .len(),
        1
    );
}

/// Autocommit statements read the latest committed epoch, so a
/// single-statement read after a commit always sees it (read-your-
/// committed-writes without any transaction).
#[test]
fn autocommit_reads_are_read_committed() {
    let db = counters(1);
    for i in 1..=5 {
        db.execute_sql("UPDATE c SET n = $1 WHERE id = 1", &[Value::Int(i)])
            .unwrap();
        assert_eq!(read_n(&db, 1), i);
    }
}

/// The inline vacuum keeps version history bounded without any explicit
/// vacuum call: enough committed churn triggers it.
#[test]
fn inline_vacuum_bounds_history_growth() {
    let db = counters(1);
    for i in 0..600i64 {
        db.execute_sql("UPDATE c SET n = $1 WHERE id = 1", &[Value::Int(i)])
            .unwrap();
    }
    // 600 updates = 600 superseded versions without vacuum; the inline
    // sweep (every 256 write commits) must have pruned most of them.
    assert!(
        db.version_stats().history_versions < 300,
        "inline vacuum did not run: {:?}",
        db.version_stats()
    );
    assert_eq!(read_n(&db, 1), 599);
}

/// Writers still exclude each other: of two concurrent transactions on
/// the same row, the second to write fails first-updater-wins, and the
/// loser's conflict abort leaves no trace.
#[test]
fn writer_writer_exclusion_still_holds() {
    let db = counters(1);
    let barrier = Arc::new(Barrier::new(2));
    let conflicts = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..2)
        .map(|_| {
            let db = db.clone();
            let barrier = Arc::clone(&barrier);
            let conflicts = Arc::clone(&conflicts);
            std::thread::spawn(move || {
                barrier.wait();
                for _ in 0..20 {
                    let r = db.transaction(|t| {
                        t.execute_sql("UPDATE c SET n = n + 1 WHERE id = 1", &[])?;
                        Ok(())
                    });
                    match r {
                        Ok(()) => {}
                        Err(StorageError::WriteConflict { .. }) => {
                            conflicts.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                    std::thread::sleep(Duration::from_micros(50));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let lost = conflicts.load(Ordering::Relaxed) as i64;
    assert_eq!(
        read_n(&db, 1),
        40 - lost,
        "every committed increment landed exactly once"
    );
}

/// Checkpoint and vacuum interplay: a long reader pins the vacuum
/// horizon while a fuzzy checkpoint captures and truncates the log.
/// Neither may break the other — the pinned snapshot must keep reading
/// its version after both run, the checkpoint must capture the *latest*
/// committed state regardless of the pin, and a crash image taken after
/// vacuum+checkpoint must recover to exactly the live state (truncation
/// never outran the records the image did not cover).
#[test]
fn checkpoint_and_vacuum_preserve_each_other() {
    use genie_storage::{DbConfig, WalConfig};
    let dir = std::env::temp_dir().join(format!("genie-mvcc-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Database::create_durable(&dir, DbConfig::default(), WalConfig::default()).unwrap();
    db.execute_sql("CREATE TABLE c (id INT PRIMARY KEY, n INT NOT NULL)", &[])
        .unwrap();
    db.execute_sql("INSERT INTO c VALUES (1, 0)", &[]).unwrap();

    // Reader pins the pre-churn snapshot from another thread.
    let db_r = db.clone();
    let (pinned_tx, pinned) = mpsc::channel::<()>();
    let (release_tx, release) = mpsc::channel::<()>();
    let reader = std::thread::spawn(move || {
        db_r.execute_sql("BEGIN", &[]).unwrap();
        assert_eq!(read_n(&db_r, 1), 0);
        pinned_tx.send(()).unwrap();
        release.recv().unwrap();
        assert_eq!(
            read_n(&db_r, 1),
            0,
            "pinned snapshot must survive vacuum + checkpoint"
        );
        db_r.execute_sql("COMMIT", &[]).unwrap();
    });
    pinned.recv().unwrap();

    for i in 1..=50 {
        db.execute_sql("UPDATE c SET n = $1 WHERE id = 1", &[Value::Int(i)])
            .unwrap();
    }
    db.vacuum();
    // The fuzzy checkpoint runs while the reader still pins history: it
    // captures the latest committed state, not the pinned one.
    let stats = db.checkpoint().unwrap();
    assert_eq!(stats.rows, 1);
    db.vacuum();
    assert!(
        db.version_stats().history_versions >= 1,
        "checkpoint/vacuum destroyed the pinned snapshot's chain: {:?}",
        db.version_stats()
    );

    release_tx.send(()).unwrap();
    reader.join().unwrap();
    db.vacuum();
    assert_eq!(read_n(&db, 1), 50);

    // Crash image after the dust settles: checkpoint image + log tail
    // reconstruct the live state bit-for-bit.
    let digest = db.content_digest();
    let copy = std::env::temp_dir().join(format!("genie-mvcc-ckpt-copy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&copy);
    std::fs::create_dir_all(&copy).unwrap();
    for entry in std::fs::read_dir(&dir).unwrap() {
        let p = entry.unwrap().path();
        std::fs::copy(&p, copy.join(p.file_name().unwrap())).unwrap();
    }
    let recovered = Database::open_with_recovery(&copy).unwrap();
    assert_eq!(recovered.content_digest(), digest);
    assert_eq!(recovered.commit_epoch(), db.commit_epoch());
    drop(recovered);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&copy);
}

/// How long a test waits for a statement that must not block before it
/// calls the statement stuck (a failed assertion, not a hang).
const PROMPT: Duration = Duration::from_secs(5);

/// Runs `sql` autocommitted — or, with `txn`, in its own transaction,
/// rolled back afterwards — on a new thread, and hands its outcome back
/// on a channel, so the caller can tell a statement that waits from one
/// that returns.
fn spawn_write(
    db: &Database,
    sql: &'static str,
    txn: bool,
) -> (
    mpsc::Receiver<Result<u64, StorageError>>,
    std::thread::JoinHandle<()>,
) {
    let db = db.clone();
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        if txn {
            db.execute_sql("BEGIN", &[]).unwrap();
        }
        let r = db.execute_sql(sql, &[]).map(|o| o.result.rows_affected);
        if txn {
            db.execute_sql("ROLLBACK", &[]).unwrap();
        }
        let _ = tx.send(r);
    });
    (rx, handle)
}

/// Writers never wait on each other inside a transaction: a second
/// transaction's UPDATE of a row an open transaction wrote fails with
/// `WriteConflict` at once instead of waiting for the holder to finish.
#[test]
fn second_transaction_writer_conflicts_without_waiting() {
    let db = counters(1);
    db.execute_sql("BEGIN", &[]).unwrap();
    db.execute_sql("UPDATE c SET n = 1 WHERE id = 1", &[])
        .unwrap();
    let (rx, handle) = spawn_write(&db, "UPDATE c SET n = 2 WHERE id = 1", true);
    let r = rx.recv_timeout(PROMPT);
    db.execute_sql("COMMIT", &[]).unwrap();
    handle.join().unwrap();
    assert!(
        matches!(r, Ok(Err(StorageError::WriteConflict { .. }))),
        "the second writer must fail at once, not wait: {r:?}"
    );
    assert_eq!(read_n(&db, 1), 1, "the holder's write stands");
}

/// An autocommitted UPDATE of a row an open transaction wrote waits for
/// that writer, then applies on top of whatever it left: the holder's
/// committed value, or — when the holder rolls back — the original.
#[test]
fn autocommit_writer_waits_then_applies_on_the_holders_outcome() {
    let db = counters(1);
    for (holder_commits, expected) in [(true, 11), (false, 12)] {
        let before = read_n(&db, 1);
        db.execute_sql("BEGIN", &[]).unwrap();
        db.execute_sql("UPDATE c SET n = n + 10 WHERE id = 1", &[])
            .unwrap();
        let waits = db.lock_stats().waits;
        let (rx, handle) = spawn_write(&db, "UPDATE c SET n = n + 1 WHERE id = 1", false);
        // The autocommitted writer parks behind the open holder.
        let deadline = std::time::Instant::now() + PROMPT;
        while db.lock_stats().waits == waits && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        let parked = db.lock_stats().waits == waits + 1;
        let early = rx.try_recv();
        let end = if holder_commits { "COMMIT" } else { "ROLLBACK" };
        db.execute_sql(end, &[]).unwrap();
        let r = rx.recv_timeout(PROMPT);
        handle.join().unwrap();
        assert!(parked, "the autocommitted write never waited");
        assert!(
            early.is_err(),
            "it returned before the holder ended: {early:?}"
        );
        assert!(matches!(r, Ok(Ok(1))), "{r:?}");
        assert_eq!(read_n(&db, 1), expected, "after {end} from n = {before}");
    }
}

/// An autocommitted UPDATE whose predicate does not pin primary keys
/// touches only the rows it matches: a different row of a table an open
/// transaction is writing is no conflict, so it does not wait.
#[test]
fn autocommit_non_pk_update_of_another_row_does_not_wait() {
    let db = counters(3);
    db.execute_sql("UPDATE c SET n = 2 WHERE id = 2", &[])
        .unwrap();
    db.execute_sql("BEGIN", &[]).unwrap();
    db.execute_sql("UPDATE c SET n = 5 WHERE id = 1", &[])
        .unwrap();
    let (rx, handle) = spawn_write(&db, "UPDATE c SET n = 20 WHERE n = 2", false);
    let r = rx.recv_timeout(PROMPT);
    db.execute_sql("COMMIT", &[]).unwrap();
    handle.join().unwrap();
    assert!(matches!(r, Ok(Ok(1))), "{r:?}");
    assert_eq!(read_n(&db, 1), 5);
    assert_eq!(read_n(&db, 2), 20);
    assert_eq!(db.lock_stats().waits, 0);
}
