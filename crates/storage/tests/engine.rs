//! End-to-end tests of the storage engine through the public [`Database`]
//! API: DDL, DML, joins, aggregates, triggers, transactions, cost reports.

use genie_storage::{
    row, ColumnDef, Database, DbConfig, Expr, Select, SelectItem, StorageError, TableRef,
    TableSchema, Trigger, TriggerEvent, Value, ValueType,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn social_db() -> Database {
    let db = Database::default();
    db.execute_sql(
        "CREATE TABLE users (id INT PRIMARY KEY, name TEXT NOT NULL)",
        &[],
    )
    .unwrap();
    db.execute_sql(
        "CREATE TABLE wall (post_id INT PRIMARY KEY, user_id INT NOT NULL, \
         content TEXT, sender_id INT, date_posted TIMESTAMP, \
         FOREIGN KEY (user_id) REFERENCES users (id))",
        &[],
    )
    .unwrap();
    db.execute_sql("CREATE INDEX wall_user ON wall (user_id)", &[])
        .unwrap();
    for i in 1..=5i64 {
        db.execute_sql(
            "INSERT INTO users VALUES ($1, $2)",
            &[Value::Int(i), Value::Text(format!("user{i}"))],
        )
        .unwrap();
    }
    db
}

fn post(db: &Database, post_id: i64, user_id: i64, sender: i64, ts: i64) {
    db.execute_sql(
        "INSERT INTO wall VALUES ($1, $2, $3, $4, $5)",
        &[
            Value::Int(post_id),
            Value::Int(user_id),
            Value::Text(format!("post {post_id}")),
            Value::Int(sender),
            Value::Timestamp(ts),
        ],
    )
    .unwrap();
}

#[test]
fn point_lookup_via_pk() {
    let db = social_db();
    let out = db
        .execute_sql("SELECT name FROM users WHERE id = $1", &[Value::Int(3)])
        .unwrap();
    assert_eq!(out.result.rows.len(), 1);
    assert_eq!(out.result.rows[0].get(0), &Value::Text("user3".into()));
    // PK probe, not a full scan: exactly one row visited.
    assert_eq!(out.cost.rows_scanned, 1);
    assert_eq!(out.cost.index_probes, 1);
}

#[test]
fn secondary_index_scan() {
    let db = social_db();
    for p in 0..10 {
        post(&db, p, 1 + (p % 2), 2, p);
    }
    let out = db
        .execute_sql("SELECT * FROM wall WHERE user_id = $1", &[Value::Int(1)])
        .unwrap();
    assert_eq!(out.result.rows.len(), 5);
    assert_eq!(out.cost.rows_scanned, 5, "index scan visits only matches");
    assert_eq!(out.cost.index_probes, 1);
}

#[test]
fn full_scan_when_no_index_applies() {
    let db = social_db();
    for p in 0..10 {
        post(&db, p, 1, 2, p);
    }
    let out = db
        .execute_sql("SELECT * FROM wall WHERE sender_id = 2", &[])
        .unwrap();
    assert_eq!(out.result.rows.len(), 10);
    assert_eq!(out.cost.rows_scanned, 10);
    assert_eq!(out.cost.index_probes, 0);
}

#[test]
fn top_k_query_shape() {
    let db = social_db();
    for p in 0..30 {
        post(&db, p, 1, 2, p * 10);
    }
    let out = db
        .execute_sql(
            "SELECT * FROM wall WHERE user_id = $1 ORDER BY date_posted DESC LIMIT 20",
            &[Value::Int(1)],
        )
        .unwrap();
    assert_eq!(out.result.rows.len(), 20);
    // Newest first.
    assert_eq!(out.result.rows[0].get(4), &Value::Timestamp(290));
    assert_eq!(out.result.rows[19].get(4), &Value::Timestamp(100));
    assert_eq!(out.cost.sorts, 1);
}

#[test]
fn join_wall_with_users() {
    let db = social_db();
    post(&db, 1, 2, 3, 100);
    post(&db, 2, 2, 4, 200);
    let sel = Select::star("wall")
        .join(
            TableRef::new("users"),
            Expr::qcol("users", "id").eq(Expr::qcol("wall", "sender_id")),
        )
        .filter(Expr::qcol("wall", "user_id").eq(Expr::Param(0)))
        .project(vec![
            SelectItem::Expr {
                expr: Expr::qcol("wall", "content"),
                alias: None,
            },
            SelectItem::Expr {
                expr: Expr::qcol("users", "name"),
                alias: Some("sender_name".into()),
            },
        ])
        .order("post_id", false);
    let out = db.select(&sel, &[Value::Int(2)]).unwrap();
    assert_eq!(*out.result.columns, ["content", "sender_name"]);
    assert_eq!(out.result.rows.len(), 2);
    assert_eq!(out.result.rows[0].get(1), &Value::Text("user3".into()));
    assert_eq!(out.result.rows[1].get(1), &Value::Text("user4".into()));
}

#[test]
fn join_on_primary_key_uses_pk_index() {
    let db = social_db();
    post(&db, 1, 2, 3, 100);
    // wall JOIN users ON users.id = wall.sender_id — the join key is the
    // users PK, so the executor must probe, not scan all users per row.
    let out = db
        .execute_sql(
            "SELECT * FROM wall JOIN users ON users.id = wall.sender_id",
            &[],
        )
        .unwrap();
    assert_eq!(out.result.rows.len(), 1);
    assert!(
        out.cost.rows_scanned <= 3,
        "PK join must not scan the users table: {:?}",
        out.cost
    );
    assert!(out.cost.index_probes >= 1);
}

#[test]
fn left_join_pads_nulls() {
    let db = Database::default();
    db.execute_sql("CREATE TABLE a (id INT PRIMARY KEY)", &[])
        .unwrap();
    db.execute_sql("CREATE TABLE b (id INT PRIMARY KEY, a_id INT)", &[])
        .unwrap();
    db.execute_sql("INSERT INTO a VALUES (1), (2)", &[])
        .unwrap();
    db.execute_sql("INSERT INTO b VALUES (10, 1)", &[]).unwrap();
    let out = db
        .execute_sql(
            "SELECT * FROM a LEFT JOIN b ON b.a_id = a.id ORDER BY a.id ASC",
            &[],
        )
        .unwrap();
    assert_eq!(out.result.rows.len(), 2);
    assert_eq!(out.result.rows[0].get(1), &Value::Int(10));
    assert!(out.result.rows[1].get(1).is_null());
    assert!(out.result.rows[1].get(2).is_null());
}

#[test]
fn count_and_group_by() {
    let db = social_db();
    for p in 0..9 {
        post(&db, p, 1 + (p % 3), 2, p);
    }
    let out = db
        .execute_sql(
            "SELECT COUNT(*) FROM wall WHERE user_id = $1",
            &[Value::Int(2)],
        )
        .unwrap();
    assert_eq!(out.result.scalar(), Some(&Value::Int(3)));

    let out = db
        .execute_sql(
            "SELECT user_id, COUNT(*) AS n FROM wall GROUP BY user_id",
            &[],
        )
        .unwrap();
    assert_eq!(out.result.rows.len(), 3);
    for row in &out.result.rows {
        assert_eq!(row.get(1), &Value::Int(3));
    }
}

#[test]
fn aggregate_functions() {
    let db = Database::default();
    db.execute_sql("CREATE TABLE m (id INT PRIMARY KEY, v FLOAT)", &[])
        .unwrap();
    for (i, v) in [1.0, 2.0, 3.0, 6.0].iter().enumerate() {
        db.execute_sql(
            "INSERT INTO m VALUES ($1, $2)",
            &[Value::Int(i as i64), Value::Float(*v)],
        )
        .unwrap();
    }
    let out = db
        .execute_sql(
            "SELECT SUM(v) AS s, AVG(v) AS a, MIN(v) AS lo, MAX(v) AS hi, COUNT(v) AS n FROM m",
            &[],
        )
        .unwrap();
    let r = &out.result.rows[0];
    assert_eq!(r.get(0), &Value::Float(12.0));
    assert_eq!(r.get(1), &Value::Float(3.0));
    assert_eq!(r.get(2), &Value::Float(1.0));
    assert_eq!(r.get(3), &Value::Float(6.0));
    assert_eq!(r.get(4), &Value::Int(4));
}

#[test]
fn aggregates_over_empty_input() {
    let db = Database::default();
    db.execute_sql("CREATE TABLE m (id INT PRIMARY KEY, v INT)", &[])
        .unwrap();
    let out = db
        .execute_sql(
            "SELECT COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo FROM m",
            &[],
        )
        .unwrap();
    let r = &out.result.rows[0];
    assert_eq!(r.get(0), &Value::Int(0));
    assert!(r.get(1).is_null());
    assert!(r.get(2).is_null());
}

#[test]
fn update_and_delete_with_predicates() {
    let db = social_db();
    for p in 0..4 {
        post(&db, p, 1, 2, p);
    }
    let out = db
        .execute_sql("UPDATE wall SET content = 'edited' WHERE post_id < 2", &[])
        .unwrap();
    assert_eq!(out.result.rows_affected, 2);
    let out = db
        .execute_sql("DELETE FROM wall WHERE post_id = 3", &[])
        .unwrap();
    assert_eq!(out.result.rows_affected, 1);
    let out = db
        .execute_sql("SELECT COUNT(*) FROM wall WHERE content = 'edited'", &[])
        .unwrap();
    assert_eq!(out.result.scalar(), Some(&Value::Int(2)));
    assert_eq!(db.row_count("wall").unwrap(), 3);
}

#[test]
fn foreign_key_enforced() {
    let db = social_db();
    let err = db
        .execute_sql("INSERT INTO wall VALUES (1, 999, 'x', 1, TS(0))", &[])
        .unwrap_err();
    assert!(matches!(err, StorageError::ForeignKeyViolation { .. }));
    // Null FK is allowed at the FK level (NOT NULL would catch separately).
    post(&db, 1, 2, 3, 0);
    let err = db
        .execute_sql("UPDATE wall SET user_id = 777 WHERE post_id = 1", &[])
        .unwrap_err();
    assert!(matches!(err, StorageError::ForeignKeyViolation { .. }));
}

#[test]
fn triggers_fire_per_row_with_images() {
    let db = social_db();
    let seen = Arc::new(AtomicU64::new(0));
    let s2 = Arc::clone(&seen);
    db.create_trigger(Trigger::new(
        "wall_ins",
        "wall",
        TriggerEvent::Insert,
        move |ctx: &mut genie_storage::TriggerCtx<'_>| {
            assert_eq!(ctx.event, TriggerEvent::Insert);
            assert!(ctx.old.is_none());
            let new = ctx.new.expect("insert has NEW");
            s2.fetch_add(new.get(1).as_int().unwrap() as u64, Ordering::SeqCst);
            Ok(())
        },
    ))
    .unwrap();
    post(&db, 1, 2, 3, 0);
    post(&db, 2, 5, 3, 0);
    assert_eq!(seen.load(Ordering::SeqCst), 7);
    assert_eq!(db.stats().triggers_fired, 2);
}

#[test]
fn update_trigger_sees_old_and_new() {
    let db = social_db();
    post(&db, 1, 2, 3, 10);
    let ok = Arc::new(AtomicU64::new(0));
    let ok2 = Arc::clone(&ok);
    db.create_trigger(Trigger::new(
        "wall_upd",
        "wall",
        TriggerEvent::Update,
        move |ctx: &mut genie_storage::TriggerCtx<'_>| {
            let old = ctx.old.unwrap();
            let new = ctx.new.unwrap();
            if old.get(4) == &Value::Timestamp(10) && new.get(4) == &Value::Timestamp(99) {
                ok2.fetch_add(1, Ordering::SeqCst);
            }
            Ok(())
        },
    ))
    .unwrap();
    db.execute_sql(
        "UPDATE wall SET date_posted = TS(99) WHERE post_id = 1",
        &[],
    )
    .unwrap();
    assert_eq!(ok.load(Ordering::SeqCst), 1);
}

#[test]
fn trigger_can_query_database() {
    let db = social_db();
    let count = Arc::new(AtomicU64::new(0));
    let c2 = Arc::clone(&count);
    db.create_trigger(Trigger::new(
        "wall_count",
        "wall",
        TriggerEvent::Insert,
        move |ctx: &mut genie_storage::TriggerCtx<'_>| {
            let sel = Select::star("wall").project(vec![SelectItem::count_star()]);
            let r = ctx.query(&sel, &[])?;
            c2.store(
                r.scalar().unwrap().as_int().unwrap() as u64,
                Ordering::SeqCst,
            );
            Ok(())
        },
    ))
    .unwrap();
    post(&db, 1, 2, 3, 0);
    post(&db, 2, 2, 3, 0);
    // AFTER semantics: the second trigger run sees both rows.
    assert_eq!(count.load(Ordering::SeqCst), 2);
}

#[test]
fn failing_trigger_aborts_statement() {
    let db = social_db();
    db.create_trigger(Trigger::new(
        "wall_fail",
        "wall",
        TriggerEvent::Insert,
        |_: &mut genie_storage::TriggerCtx<'_>| Err(StorageError::Eval("boom".into())),
    ))
    .unwrap();
    let err = db
        .execute_sql("INSERT INTO wall VALUES (1, 2, 'x', 3, TS(0))", &[])
        .unwrap_err();
    assert!(matches!(err, StorageError::TriggerFailed { .. }));
    // Statement rolled back: no row remains.
    assert_eq!(db.row_count("wall").unwrap(), 0);
}

#[test]
fn disabled_triggers_do_not_fire() {
    let db = social_db();
    let fired = Arc::new(AtomicU64::new(0));
    let f2 = Arc::clone(&fired);
    db.create_trigger(Trigger::new(
        "t",
        "wall",
        TriggerEvent::Insert,
        move |_: &mut genie_storage::TriggerCtx<'_>| {
            f2.fetch_add(1, Ordering::SeqCst);
            Ok(())
        },
    ))
    .unwrap();
    db.set_triggers_enabled(false);
    post(&db, 1, 2, 3, 0);
    assert_eq!(fired.load(Ordering::SeqCst), 0);
    db.set_triggers_enabled(true);
    post(&db, 2, 2, 3, 0);
    assert_eq!(fired.load(Ordering::SeqCst), 1);
}

#[test]
fn transaction_commit_and_rollback() {
    let db = social_db();
    // Committed transaction persists.
    db.transaction(|tx| {
        tx.execute_sql("INSERT INTO wall VALUES (1, 2, 'a', 3, TS(0))", &[])?;
        tx.execute_sql("INSERT INTO wall VALUES (2, 2, 'b', 3, TS(1))", &[])?;
        Ok(())
    })
    .unwrap();
    assert_eq!(db.row_count("wall").unwrap(), 2);

    // Failed transaction rolls everything back.
    let err = db.transaction(|tx| {
        tx.execute_sql("INSERT INTO wall VALUES (3, 2, 'c', 3, TS(2))", &[])?;
        tx.execute_sql("UPDATE wall SET content = 'zap' WHERE post_id = 1", &[])?;
        tx.execute_sql("DELETE FROM wall WHERE post_id = 2", &[])?;
        // Duplicate PK fails the transaction.
        tx.execute_sql("INSERT INTO wall VALUES (1, 2, 'dup', 3, TS(3))", &[])?;
        Ok(())
    });
    assert!(err.is_err());
    assert_eq!(db.row_count("wall").unwrap(), 2, "insert rolled back");
    let out = db
        .execute_sql("SELECT content FROM wall WHERE post_id = 1", &[])
        .unwrap();
    assert_eq!(
        out.result.rows[0].get(0),
        &Value::Text("a".into()),
        "update rolled back"
    );
    let out = db
        .execute_sql("SELECT COUNT(*) FROM wall WHERE post_id = 2", &[])
        .unwrap();
    assert_eq!(
        out.result.scalar(),
        Some(&Value::Int(1)),
        "delete rolled back"
    );
    assert_eq!(db.stats().rollbacks, 1);
    assert_eq!(db.stats().commits, 1);
}

#[test]
fn rollback_restores_index_consistency() {
    let db = social_db();
    post(&db, 1, 2, 3, 0);
    let _ = db.transaction(|tx| -> genie_storage::Result<()> {
        tx.execute_sql("UPDATE wall SET user_id = 5 WHERE post_id = 1", &[])?;
        Err(StorageError::Eval("force rollback".into()))
    });
    // Index on user_id must still find the row under the old key.
    let out = db
        .execute_sql("SELECT * FROM wall WHERE user_id = $1", &[Value::Int(2)])
        .unwrap();
    assert_eq!(out.result.rows.len(), 1);
    let out = db
        .execute_sql("SELECT * FROM wall WHERE user_id = $1", &[Value::Int(5)])
        .unwrap();
    assert_eq!(out.result.rows.len(), 0);
}

#[test]
fn sql_begin_commit_statements() {
    let db = social_db();
    db.execute_sql("BEGIN", &[]).unwrap();
    db.execute_sql("INSERT INTO wall VALUES (1, 2, 'x', 3, TS(0))", &[])
        .unwrap();
    db.execute_sql("COMMIT", &[]).unwrap();
    assert_eq!(db.row_count("wall").unwrap(), 1);
    db.execute_sql("BEGIN", &[]).unwrap();
    db.execute_sql("DELETE FROM wall", &[]).unwrap();
    db.execute_sql("ROLLBACK", &[]).unwrap();
    assert_eq!(db.row_count("wall").unwrap(), 1);
    assert!(matches!(
        db.execute_sql("COMMIT", &[]),
        Err(StorageError::NoTransaction)
    ));
}

#[test]
fn txn_triggers_fire_once_at_commit_coalesced() {
    let db = social_db();
    let fired = Arc::new(AtomicU64::new(0));
    let f2 = Arc::clone(&fired);
    db.create_trigger(Trigger::new(
        "wall_upd",
        "wall",
        TriggerEvent::Update,
        move |ctx: &mut genie_storage::TriggerCtx<'_>| {
            // The coalesced change carries the FIRST pre-image and the
            // LAST post-image of the whole transaction.
            assert_eq!(ctx.old.unwrap().get(4), &Value::Timestamp(0));
            assert_eq!(ctx.new.unwrap().get(4), &Value::Timestamp(30));
            f2.fetch_add(1, Ordering::SeqCst);
            Ok(())
        },
    ))
    .unwrap();
    post(&db, 1, 2, 3, 0);
    db.execute_sql("BEGIN", &[]).unwrap();
    for ts in [10i64, 20, 30] {
        db.execute_sql(
            "UPDATE wall SET date_posted = $1 WHERE post_id = 1",
            &[Value::Timestamp(ts)],
        )
        .unwrap();
        // Nothing fires per statement inside the transaction.
        assert_eq!(fired.load(Ordering::SeqCst), 0);
    }
    let out = db.execute_sql("COMMIT", &[]).unwrap();
    assert_eq!(fired.load(Ordering::SeqCst), 1, "three updates, one firing");
    assert_eq!(out.cost.triggers_fired, 1);
    assert_eq!(out.cost.wal_appends, 1, "one group WAL append");
}

#[test]
fn txn_rollback_fires_no_triggers() {
    let db = social_db();
    let fired = Arc::new(AtomicU64::new(0));
    let f2 = Arc::clone(&fired);
    for event in [
        TriggerEvent::Insert,
        TriggerEvent::Update,
        TriggerEvent::Delete,
    ] {
        let f3 = Arc::clone(&f2);
        db.create_trigger(Trigger::new(
            format!("t_{event}"),
            "wall",
            event,
            move |_: &mut genie_storage::TriggerCtx<'_>| {
                f3.fetch_add(1, Ordering::SeqCst);
                Ok(())
            },
        ))
        .unwrap();
    }
    post(&db, 1, 2, 3, 0);
    fired.store(0, Ordering::SeqCst);
    db.execute_sql("BEGIN", &[]).unwrap();
    db.execute_sql("INSERT INTO wall VALUES (2, 2, 'x', 3, TS(1))", &[])
        .unwrap();
    db.execute_sql("UPDATE wall SET content = 'y' WHERE post_id = 1", &[])
        .unwrap();
    db.execute_sql("DELETE FROM wall WHERE post_id = 1", &[])
        .unwrap();
    db.execute_sql("ROLLBACK", &[]).unwrap();
    assert_eq!(
        fired.load(Ordering::SeqCst),
        0,
        "aborted txn publishes nothing"
    );
    assert_eq!(db.row_count("wall").unwrap(), 1);
}

#[test]
fn txn_insert_then_delete_is_invisible_to_triggers() {
    let db = social_db();
    let fired = Arc::new(AtomicU64::new(0));
    let f2 = Arc::clone(&fired);
    for event in [TriggerEvent::Insert, TriggerEvent::Delete] {
        let f3 = Arc::clone(&f2);
        db.create_trigger(Trigger::new(
            format!("t_{event}"),
            "wall",
            event,
            move |_: &mut genie_storage::TriggerCtx<'_>| {
                f3.fetch_add(1, Ordering::SeqCst);
                Ok(())
            },
        ))
        .unwrap();
    }
    db.execute_sql("BEGIN", &[]).unwrap();
    db.execute_sql("INSERT INTO wall VALUES (9, 2, 'ghost', 3, TS(5))", &[])
        .unwrap();
    db.execute_sql("DELETE FROM wall WHERE post_id = 9", &[])
        .unwrap();
    let out = db.execute_sql("COMMIT", &[]).unwrap();
    assert_eq!(
        fired.load(Ordering::SeqCst),
        0,
        "a row never visible outside the txn fires no triggers"
    );
    assert_eq!(out.cost.triggers_fired, 0);
}

#[test]
fn txn_delete_survives_pk_reuse_by_moved_row() {
    // DELETE pk=1, move pk=2 onto pk=1, then touch it again: the original
    // row's Delete must still fire at commit (two histories share one pk).
    let db = social_db();
    post(&db, 1, 2, 3, 10);
    post(&db, 2, 2, 3, 20);
    let events = Arc::new(parking_lot_like_log());
    for event in [
        TriggerEvent::Insert,
        TriggerEvent::Update,
        TriggerEvent::Delete,
    ] {
        let log = Arc::clone(&events);
        db.create_trigger(Trigger::new(
            format!("log_{event}"),
            "wall",
            event,
            move |ctx: &mut genie_storage::TriggerCtx<'_>| {
                log.lock().unwrap().push(format!(
                    "{}({:?}->{:?})",
                    ctx.event,
                    ctx.old.map(|r| r.get(0).clone()),
                    ctx.new.map(|r| r.get(0).clone()),
                ));
                Ok(())
            },
        ))
        .unwrap();
    }
    db.execute_sql("BEGIN", &[]).unwrap();
    db.execute_sql("DELETE FROM wall WHERE post_id = 1", &[])
        .unwrap();
    db.execute_sql("UPDATE wall SET post_id = 1 WHERE post_id = 2", &[])
        .unwrap();
    db.execute_sql("UPDATE wall SET content = 'x' WHERE post_id = 1", &[])
        .unwrap();
    db.execute_sql("COMMIT", &[]).unwrap();
    let fired = events.lock().unwrap().clone();
    assert!(
        fired.iter().any(|e| e.starts_with("DELETE")),
        "original row's delete must publish: {fired:?}"
    );
    assert!(
        fired.iter().any(|e| e.starts_with("UPDATE")),
        "moved row's update must publish: {fired:?}"
    );
    assert_eq!(fired.len(), 2, "one net change per row history: {fired:?}");
}

fn parking_lot_like_log() -> std::sync::Mutex<Vec<String>> {
    std::sync::Mutex::new(Vec::new())
}

#[test]
fn failing_trigger_at_commit_aborts_whole_txn() {
    let db = social_db();
    db.create_trigger(Trigger::new(
        "boom",
        "wall",
        TriggerEvent::Insert,
        |_: &mut genie_storage::TriggerCtx<'_>| Err(StorageError::Eval("boom".into())),
    ))
    .unwrap();
    db.execute_sql("BEGIN", &[]).unwrap();
    db.execute_sql("INSERT INTO wall VALUES (1, 2, 'a', 3, TS(0))", &[])
        .unwrap();
    db.execute_sql("INSERT INTO wall VALUES (2, 2, 'b', 3, TS(1))", &[])
        .unwrap();
    let err = db.execute_sql("COMMIT", &[]).unwrap_err();
    assert!(matches!(err, StorageError::TransactionAborted(_)), "{err}");
    assert_eq!(db.row_count("wall").unwrap(), 0, "both inserts undone");
    assert_eq!(db.stats().rollbacks, 1);
    assert_eq!(db.stats().commits, 0);
    assert!(!db.in_transaction());
}

#[test]
fn read_only_txn_commit_charges_no_wal() {
    let db = social_db();
    db.execute_sql("BEGIN", &[]).unwrap();
    db.execute_sql("SELECT * FROM users", &[]).unwrap();
    let out = db.execute_sql("COMMIT", &[]).unwrap();
    assert_eq!(out.cost.wal_appends, 0, "read-only commit writes nothing");
    // A writing transaction pays exactly one group append.
    db.execute_sql("BEGIN", &[]).unwrap();
    post(&db, 1, 2, 3, 0);
    post(&db, 2, 2, 3, 1);
    let out = db.execute_sql("COMMIT", &[]).unwrap();
    assert_eq!(out.cost.wal_appends, 1);
}

#[test]
fn count_pushdown_answers_from_index_with_explain_marker() {
    let db = social_db();
    for i in 1..=8 {
        post(&db, i, 1 + i % 3, 3, i);
    }
    db.reset_stats();
    let out = db
        .execute_sql(
            "SELECT COUNT(*) FROM wall WHERE user_id = $1",
            &[Value::Int(2)],
        )
        .unwrap();
    let truth = db
        .execute_sql("SELECT * FROM wall WHERE user_id = $1", &[Value::Int(2)])
        .unwrap()
        .result
        .rows
        .len() as i64;
    assert_eq!(out.result.scalar(), Some(&Value::Int(truth)));
    assert_eq!(out.cost.rows_scanned, 0, "no heap rows visited");
    assert_eq!(out.cost.page_touches(), 0);
    let plan = db
        .explain_sql(
            "SELECT COUNT(*) FROM wall WHERE user_id = $1",
            &[Value::Int(2)],
        )
        .unwrap();
    assert!(plan.count_only);
    assert!(plan.shape().contains("count-only"), "{}", plan.shape());
    // A predicate the key does not absorb falls back to scanning.
    let plan = db
        .explain_sql(
            "SELECT COUNT(*) FROM wall WHERE user_id = $1 AND content = 'x'",
            &[Value::Int(2)],
        )
        .unwrap();
    assert!(!plan.count_only);
}

#[test]
fn top_k_bounded_heap_matches_full_sort() {
    let db = social_db();
    // date_posted has no index; ORDER BY date_posted DESC LIMIT k takes
    // the bounded top-k path.
    for i in 1..=40 {
        post(&db, i, 1 + i % 5, 3, (i * 7919) % 101);
    }
    let limited = db
        .execute_sql(
            "SELECT post_id, date_posted FROM wall ORDER BY date_posted DESC LIMIT 5",
            &[],
        )
        .unwrap();
    let full = db
        .execute_sql(
            "SELECT post_id, date_posted FROM wall ORDER BY date_posted DESC",
            &[],
        )
        .unwrap();
    assert_eq!(limited.result.rows, full.result.rows[..5].to_vec());
    assert_eq!(limited.cost.sorts, 1);
    assert!(
        limited.cost.sort_rows < full.cost.sort_rows,
        "bounded heap does less sort work: {} vs {}",
        limited.cost.sort_rows,
        full.cost.sort_rows
    );
    // OFFSET composes.
    let offset = db
        .execute_sql(
            "SELECT post_id FROM wall ORDER BY date_posted DESC LIMIT 3 OFFSET 2",
            &[],
        )
        .unwrap();
    let full_ids: Vec<_> = full.result.rows[2..5].iter().map(|r| r.get(0)).collect();
    let got_ids: Vec<_> = offset.result.rows.iter().map(|r| r.get(0)).collect();
    assert_eq!(got_ids, full_ids);
}

#[test]
fn stat_deltas_cancel_on_rollback() {
    let db = social_db();
    post(&db, 1, 2, 3, 0);
    let _ = db.transaction(|tx| -> genie_storage::Result<()> {
        for i in 10..30i64 {
            tx.execute_sql(
                "INSERT INTO wall VALUES ($1, 2, 'x', 3, TS(0))",
                &[Value::Int(i)],
            )?;
        }
        Err(StorageError::Eval("force rollback".into()))
    });
    // The rolled-back inserts and their undo deletes cancelled in the
    // pending queue; planning still sees the single committed row.
    let plan = db
        .explain_sql("SELECT * FROM wall WHERE user_id = $1", &[Value::Int(2)])
        .unwrap();
    assert!(plan.base.estimated_rows <= 1.5, "{plan:?}");
}

#[test]
fn buffer_pool_pressure_creates_misses() {
    // Tiny pool: 4 pages.
    let db = Database::new(DbConfig {
        buffer_pool_bytes: 4 * genie_storage::BufferPool::DEFAULT_PAGE_BYTES,
    });
    db.create_table(
        TableSchema::builder("t")
            .pk("id")
            .column(ColumnDef::new("v", ValueType::Int))
            .rows_per_page(1) // one row per page: maximal pressure
            .build()
            .unwrap(),
    )
    .unwrap();
    for i in 0..64i64 {
        db.execute(
            &genie_storage::Statement::Insert(genie_storage::Insert {
                table: "t".into(),
                columns: vec![],
                rows: vec![vec![Expr::lit(i), Expr::lit(i)]],
            }),
            &[],
        )
        .unwrap();
    }
    db.reset_stats();
    // COUNT(*) no longer proves pool pressure: the planner answers it
    // from table metadata without touching the heap. Scan real rows.
    let out = db.execute_sql("SELECT * FROM t", &[]).unwrap();
    assert_eq!(out.result.rows.len(), 64);
    assert!(
        out.cost.page_misses > 50,
        "sequential scan of 64 one-row pages through a 4-page pool must miss: {:?}",
        out.cost
    );
    // The pushdown itself: exact count, zero page traffic, zero scans.
    let out = db.execute_sql("SELECT COUNT(*) FROM t", &[]).unwrap();
    assert_eq!(out.result.scalar(), Some(&Value::Int(64)));
    assert_eq!(out.cost.page_touches(), 0);
    assert_eq!(out.cost.rows_scanned, 0);
}

#[test]
fn repeated_point_reads_hit_pool() {
    let db = social_db();
    post(&db, 1, 2, 3, 0);
    db.reset_stats();
    for _ in 0..10 {
        db.execute_sql("SELECT * FROM wall WHERE post_id = 1", &[])
            .unwrap();
    }
    let ps = db.pool_stats();
    assert!(ps.hits >= 9, "expected warm reads, got {ps:?}");
}

#[test]
fn unique_index_via_sql() {
    let db = Database::default();
    db.execute_sql("CREATE TABLE b (id INT PRIMARY KEY, url TEXT UNIQUE)", &[])
        .unwrap();
    db.execute_sql("INSERT INTO b VALUES (1, 'http://x')", &[])
        .unwrap();
    let err = db
        .execute_sql("INSERT INTO b VALUES (2, 'http://x')", &[])
        .unwrap_err();
    assert!(matches!(err, StorageError::UniqueViolation { .. }));
}

#[test]
fn create_index_unique_via_sql_then_enforced() {
    let db = Database::default();
    db.execute_sql("CREATE TABLE t (id INT PRIMARY KEY, k INT)", &[])
        .unwrap();
    db.execute_sql("CREATE UNIQUE INDEX t_k ON t (k)", &[])
        .unwrap();
    db.execute_sql("INSERT INTO t VALUES (1, 7)", &[]).unwrap();
    assert!(db.execute_sql("INSERT INTO t VALUES (2, 7)", &[]).is_err());
}

#[test]
fn in_list_and_like_filters() {
    let db = social_db();
    let out = db
        .execute_sql(
            "SELECT * FROM users WHERE id IN (1, 3, 5) ORDER BY id ASC",
            &[],
        )
        .unwrap();
    assert_eq!(out.result.rows.len(), 3);
    let out = db
        .execute_sql("SELECT * FROM users WHERE name LIKE 'user_'", &[])
        .unwrap();
    assert_eq!(out.result.rows.len(), 5);
    let out = db
        .execute_sql("SELECT * FROM users WHERE name LIKE 'user1%'", &[])
        .unwrap();
    assert_eq!(out.result.rows.len(), 1);
}

#[test]
fn offset_pagination() {
    let db = social_db();
    let out = db
        .execute_sql("SELECT id FROM users ORDER BY id ASC LIMIT 2 OFFSET 2", &[])
        .unwrap();
    assert_eq!(out.result.rows.len(), 2);
    assert_eq!(out.result.rows[0].get(0), &Value::Int(3));
}

#[test]
fn multi_row_insert() {
    let db = social_db();
    let out = db
        .execute_sql(
            "INSERT INTO wall VALUES (1, 1, 'a', 2, TS(0)), (2, 1, 'b', 2, TS(1)), (3, 1, 'c', 2, TS(2))",
            &[],
        )
        .unwrap();
    assert_eq!(out.result.rows_affected, 3);
}

#[test]
fn database_handle_is_cloneable_and_shared() {
    let db = social_db();
    let db2 = db.clone();
    post(&db, 1, 2, 3, 0);
    assert_eq!(db2.row_count("wall").unwrap(), 1);
}

#[test]
fn database_is_send_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Database>();
}

#[test]
fn order_by_null_sorts_first_asc() {
    let db = Database::default();
    db.execute_sql("CREATE TABLE t (id INT PRIMARY KEY, v INT)", &[])
        .unwrap();
    db.execute_sql("INSERT INTO t VALUES (1, 5), (2, NULL), (3, 1)", &[])
        .unwrap();
    let out = db
        .execute_sql("SELECT id FROM t ORDER BY v ASC", &[])
        .unwrap();
    let ids: Vec<i64> = out
        .result
        .rows
        .iter()
        .map(|r| r.get(0).as_int().unwrap())
        .collect();
    assert_eq!(ids, vec![2, 3, 1]);
}

#[test]
fn update_with_self_reference() {
    let db = Database::default();
    db.execute_sql("CREATE TABLE c (id INT PRIMARY KEY, n INT)", &[])
        .unwrap();
    db.execute_sql("INSERT INTO c VALUES (1, 10)", &[]).unwrap();
    db.execute_sql("UPDATE c SET n = n + 1 WHERE id = 1", &[])
        .unwrap();
    let out = db.execute_sql("SELECT n FROM c WHERE id = 1", &[]).unwrap();
    assert_eq!(out.result.rows[0].get(0), &Value::Int(11));
}

#[test]
fn row_macro_usable_downstream() {
    let r = row![1i64, "x", true];
    assert_eq!(r.arity(), 3);
}
