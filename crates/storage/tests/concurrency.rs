//! Multi-writer engine tests: thread-scoped transactions, serializable
//! transfers and first-updater-wins between crossing writers under real
//! OS-thread interleavings.

use genie_storage::{Database, StorageError, Value};
use proptest::prelude::*;
use std::sync::mpsc;
use std::sync::{Arc, Barrier};

fn bank(accounts: i64, opening: i64) -> Database {
    let db = Database::default();
    db.execute_sql(
        "CREATE TABLE accounts (id INT PRIMARY KEY, bal INT NOT NULL)",
        &[],
    )
    .unwrap();
    db.execute_sql("CREATE TABLE audit (id INT PRIMARY KEY, who INT)", &[])
        .unwrap();
    for id in 1..=accounts {
        db.execute_sql(
            "INSERT INTO accounts VALUES ($1, $2)",
            &[Value::Int(id), Value::Int(opening)],
        )
        .unwrap();
    }
    db
}

fn balance(db: &Database, id: i64) -> i64 {
    db.execute_sql("SELECT bal FROM accounts WHERE id = $1", &[Value::Int(id)])
        .unwrap()
        .result
        .rows[0]
        .get(0)
        .as_int()
        .unwrap()
}

fn total(db: &Database, accounts: i64) -> i64 {
    (1..=accounts).map(|id| balance(db, id)).sum()
}

/// One transfer transaction; returns Ok(committed) or the abort error.
fn transfer(
    db: &Database,
    from: i64,
    to: i64,
    amount: i64,
    roll_back: bool,
) -> Result<bool, StorageError> {
    db.execute_sql("BEGIN", &[])?;
    let work = (|| {
        db.execute_sql(
            "UPDATE accounts SET bal = bal - $1 WHERE id = $2",
            &[Value::Int(amount), Value::Int(from)],
        )?;
        std::thread::yield_now();
        db.execute_sql(
            "UPDATE accounts SET bal = bal + $1 WHERE id = $2",
            &[Value::Int(amount), Value::Int(to)],
        )?;
        Ok(())
    })();
    match work {
        Ok(()) if roll_back => {
            db.execute_sql("ROLLBACK", &[])?;
            Ok(false)
        }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Serializability under concurrent random transfers: whatever the
    /// interleaving, the final state must equal SOME serial order of the
    /// committed transactions. For transfers that means (a) money is
    /// conserved, (b) each balance equals opening + committed inflow -
    /// committed outflow (per-account effects commute across any serial
    /// order), and (c) aborted/rolled-back transfers leave no trace.
    /// Without the write gate, lost updates would break (a) and (b).
    #[test]
    fn concurrent_transfers_are_serializable(
        threads in 2usize..5,
        txns in 5usize..25,
        accounts in 2i64..6,
        seed in any::<u64>(),
    ) {
        let opening = 1_000i64;
        let db = bank(accounts, opening);
        let barrier = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let db = db.clone();
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    // Cheap per-thread deterministic stream.
                    let mut state = seed ^ (t as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    let mut next = || {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state
                    };
                    // Per-account committed deltas this thread caused.
                    let mut deltas = vec![0i64; accounts as usize + 1];
                    for _ in 0..txns {
                        let from = (next() % accounts as u64) as i64 + 1;
                        let to = (next() % accounts as u64) as i64 + 1;
                        let amount = (next() % 7) as i64 + 1;
                        let roll_back = next() % 5 == 0;
                        match transfer(&db, from, to, amount, roll_back) {
                            Ok(true) => {
                                deltas[from as usize] -= amount;
                                deltas[to as usize] += amount;
                            }
                            Ok(false) => {}
                            // A first-updater-wins loser leaves no trace:
                            // another writer got to one of its rows first
                            // (without the conflict check the read-compute-
                            // write UPDATE would silently lose an update).
                            Err(StorageError::WriteConflict { .. }) => {}
                            Err(e) => panic!("unexpected engine error: {e}"),
                        }
                    }
                    deltas
                })
            })
            .collect();
        let mut committed = vec![0i64; accounts as usize + 1];
        for h in handles {
            for (i, d) in h.join().unwrap().into_iter().enumerate() {
                committed[i] += d;
            }
        }
        // (a) conservation.
        prop_assert_eq!(total(&db, accounts), opening * accounts);
        // (b) every balance equals its committed net flow.
        for id in 1..=accounts {
            prop_assert_eq!(
                balance(&db, id),
                opening + committed[id as usize],
                "account {} diverged from its committed history", id
            );
        }
    }
}

/// Two transactions cross: each writes one account, then reaches for
/// the other's. The first to reach fails with `WriteConflict` at once —
/// no wait, so no cycle — and rolls back; the other then takes the freed
/// row and commits. Exactly one of the pair fails, and its work vanishes.
#[test]
fn crossing_writers_one_conflicts_one_commits() {
    let db = bank(2, 100);
    let (t2_holds_b, main_sees) = mpsc::channel::<()>();
    let (main_done, t2_sees) = mpsc::channel::<()>();

    // T1: write account 1.
    db.execute_sql("BEGIN", &[]).unwrap();
    db.execute_sql("UPDATE accounts SET bal = bal - 10 WHERE id = 1", &[])
        .unwrap();

    let db2 = db.clone();
    let t2 = std::thread::spawn(move || {
        // T2: write account 2 and an audit row, then reach for account 1
        // once T1 has lost.
        db2.execute_sql("BEGIN", &[]).unwrap();
        db2.execute_sql("UPDATE accounts SET bal = bal - 99 WHERE id = 2", &[])
            .unwrap();
        db2.execute_sql("INSERT INTO audit VALUES (1, 2)", &[])
            .unwrap();
        t2_holds_b.send(()).unwrap();
        t2_sees.recv().unwrap();
        db2.execute_sql("UPDATE accounts SET bal = bal + 99 WHERE id = 1", &[])?;
        db2.execute_sql("COMMIT", &[]).map(|_| ())
    });

    main_sees.recv().unwrap();
    // T1 reaches for account 2, which T2 wrote: it fails without waiting.
    let r = db.execute_sql("UPDATE accounts SET bal = bal + 10 WHERE id = 2", &[]);
    db.execute_sql("ROLLBACK", &[]).unwrap();
    main_done.send(()).unwrap();
    let survivor = t2.join().unwrap();

    assert!(
        matches!(r, Err(StorageError::WriteConflict { .. })),
        "T1 must fail with WriteConflict: {r:?}"
    );
    assert!(survivor.is_ok(), "T2 must commit: {survivor:?}");
    assert_eq!(db.lock_stats().deadlocks, 0);
    // The survivor's transfer landed; the loser's work left no trace.
    assert_eq!(balance(&db, 1), 199);
    assert_eq!(balance(&db, 2), 1);
    assert_eq!(db.row_count("audit").unwrap(), 1, "survivor's insert kept");
}

/// A panicking `transaction` closure must roll back on unwind — a
/// leaked uncommitted version would make every later writer of the row
/// wait forever.
#[test]
fn panicking_transaction_closure_releases_locks() {
    let db = bank(1, 100);
    let db2 = db.clone();
    let panicked = std::thread::spawn(move || {
        let _ = db2.transaction::<()>(|t| {
            t.execute_sql("UPDATE accounts SET bal = 0 WHERE id = 1", &[])?;
            panic!("closure blew up mid-transaction");
        });
    })
    .join();
    assert!(panicked.is_err(), "the closure's panic propagates");
    // Rolled back: state restored, next writer proceeds.
    assert_eq!(balance(&db, 1), 100);
    db.execute_sql("UPDATE accounts SET bal = 5 WHERE id = 1", &[])
        .unwrap();
    assert_eq!(balance(&db, 1), 5);
    assert!(!db.in_transaction());
}

/// Transactions are thread-scoped: one thread's open transaction neither
/// blocks another thread's BEGIN nor leaks into its `in_transaction`.
#[test]
fn transactions_are_thread_scoped() {
    let db = bank(2, 100);
    db.execute_sql("BEGIN", &[]).unwrap();
    assert!(db.in_transaction());
    let db2 = db.clone();
    std::thread::spawn(move || {
        assert!(!db2.in_transaction(), "other thread sees no open txn");
        db2.execute_sql("BEGIN", &[]).unwrap();
        db2.execute_sql("UPDATE accounts SET bal = 0 WHERE id = 2", &[])
            .unwrap();
        db2.execute_sql("COMMIT", &[]).unwrap();
    })
    .join()
    .unwrap();
    db.execute_sql("COMMIT", &[]).unwrap();
    assert_eq!(balance(&db, 2), 0);
}

/// Snapshot scans never observe another transaction's in-flight rows: a reader thread racing a writer transaction sees the
/// table either entirely before or entirely after the commit.
#[test]
fn scans_never_observe_in_flight_writes() {
    let db = bank(2, 100);
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let db_r = db.clone();
    let stop_r = Arc::clone(&stop);
    let reader = std::thread::spawn(move || {
        let mut snapshots = 0u64;
        while !stop_r.load(std::sync::atomic::Ordering::Relaxed) {
            let out = db_r.execute_sql("SELECT bal FROM accounts", &[]).unwrap();
            let sum: i64 = out
                .result
                .rows
                .iter()
                .map(|r| r.get(0).as_int().unwrap())
                .sum();
            assert_eq!(sum, 200, "reader observed a half-applied transfer");
            snapshots += 1;
        }
        snapshots
    });
    for i in 0..200 {
        let (from, to) = if i % 2 == 0 { (1, 2) } else { (2, 1) };
        transfer(&db, from, to, 5, false).unwrap();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let snapshots = reader.join().unwrap();
    assert!(snapshots > 0, "reader made progress");
    assert_eq!(total(&db, 2), 200);
}
