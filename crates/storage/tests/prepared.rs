//! Prepared statements: a kept plan is always the plan the planner would
//! choose afresh.
//!
//! A handle from [`Database::prepare`] keeps its plan across executions;
//! a handle made with [`PreparedSelect::new`] and used once has nothing
//! kept — its first execution binds and plans from scratch with exactly
//! the parameters given. Every test here runs a long-lived handle against
//! such fresh ones across the events that must invalidate what it keeps:
//! DDL, writes to the tables it reads, parameter vectors the plan cannot
//! be shared across, and concurrent DDL.

use genie_storage::prepared::SHAPE_CACHE_CAPACITY;
use genie_storage::{
    AccessPath, Bound, Database, DbConfig, ExecOutcome, PreparedSelect, QueryPlan, Select,
    Statement, Value,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

fn parse_select(sql: &str) -> Select {
    match genie_storage::sql::parse(sql).unwrap() {
        Statement::Select(s) => s,
        other => panic!("not a SELECT: {other:?}"),
    }
}

/// Executes and explains `kept` and a fresh handle of the same
/// statement; both must agree on rows, cost-relevant plan and result.
fn assert_as_fresh(db: &Database, kept: &PreparedSelect, params: &[Value]) -> QueryPlan {
    let fresh = PreparedSelect::new(kept.select().clone());
    let plan = db.explain_prepared(kept, params).unwrap();
    assert_eq!(
        plan,
        db.explain_prepared(&fresh, params).unwrap(),
        "kept plan differs from a fresh one for {params:?}"
    );
    let ExecOutcome { result, cost } = db.execute_prepared(kept, params).unwrap();
    let fresh = db
        .execute_prepared(&PreparedSelect::new(kept.select().clone()), params)
        .unwrap();
    assert_eq!(result, fresh.result);
    // The second execution finds the first one's pages in the pool; the
    // logical work must be the same.
    assert_eq!(cost.rows_scanned, fresh.cost.rows_scanned);
    assert_eq!(cost.index_probes, fresh.cost.index_probes);
    assert_eq!(cost.rows_returned, fresh.cost.rows_returned);
    assert_eq!(cost.sorts, fresh.cost.sorts);
    plan
}

fn events_db(rows: i64) -> Database {
    let db = Database::new(DbConfig::default());
    db.execute_sql(
        "CREATE TABLE events (id INT PRIMARY KEY, owner INT NOT NULL, kind INT NOT NULL, note TEXT)",
        &[],
    )
    .unwrap();
    for id in 1..=rows {
        insert_event(&db, id);
    }
    db
}

fn insert_event(db: &Database, id: i64) {
    db.execute_sql(
        "INSERT INTO events (id, owner, kind, note) VALUES ($1, $2, $3, $4)",
        &[
            Value::Int(id),
            Value::Int(id % 23),
            Value::Int(id % 5),
            Value::Text(format!("n{id}")),
        ],
    )
    .unwrap();
}

#[test]
fn create_index_after_first_execution_changes_the_next_plan() {
    let db = events_db(400);
    let kept = db.prepare(&parse_select("SELECT * FROM events WHERE owner = $1"));
    let before = assert_as_fresh(&db, &kept, &[Value::Int(7)]);
    assert_eq!(before.base.path, AccessPath::TableScan);

    db.execute_sql("CREATE INDEX events_owner ON events (owner)", &[])
        .unwrap();
    let after = assert_as_fresh(&db, &kept, &[Value::Int(7)]);
    assert_eq!(after.base.path.index_name(), Some("events_owner"));
    // Another parameter vector shares the new plan, keys rebound.
    let other = assert_as_fresh(&db, &kept, &[Value::Int(8)]);
    assert_eq!(
        other.base.path,
        AccessPath::IndexScan {
            index: Some("events_owner".into()),
            eq: vec![Value::Int(8)],
            ranges: vec![(Bound::Unbounded, Bound::Unbounded)],
        }
    );
}

#[test]
fn a_growing_table_flips_the_plan_exactly_when_the_fresh_planner_does() {
    let db = events_db(0);
    db.execute_sql("CREATE INDEX events_owner ON events (owner)", &[])
        .unwrap();
    db.execute_sql(
        "CREATE INDEX events_owner_kind ON events (owner, kind)",
        &[],
    )
    .unwrap();
    let shapes = [
        "SELECT * FROM events WHERE owner = $1",
        "SELECT * FROM events WHERE owner = $1 AND kind = $2",
        "SELECT COUNT(*) FROM events WHERE owner = $1",
        "SELECT * FROM events WHERE owner = $1 ORDER BY id DESC LIMIT 3",
    ];
    let kept: Vec<PreparedSelect> = shapes
        .iter()
        .map(|sql| db.prepare(&parse_select(sql)))
        .collect();
    let mut seen: Vec<Vec<String>> = vec![Vec::new(); shapes.len()];
    for id in 1..=120 {
        for (handle, shapes_seen) in kept.iter().zip(&mut seen) {
            let params = [Value::Int(id % 23), Value::Int(id % 5)];
            let shape = assert_as_fresh(&db, handle, &params).shape();
            if shapes_seen.last() != Some(&shape) {
                shapes_seen.push(shape);
            }
        }
        insert_event(&db, id);
    }
    // The comparison above is only worth something if plans did move.
    assert!(
        seen.iter().any(|s| s.len() > 1),
        "no shape ever changed its plan: {seen:?}"
    );
}

#[test]
fn deletes_and_vacuum_invalidate_like_inserts() {
    let db = events_db(300);
    db.execute_sql("CREATE INDEX events_owner ON events (owner)", &[])
        .unwrap();
    let kept = db.prepare(&parse_select("SELECT * FROM events WHERE owner = $1"));
    for round in 0..6 {
        assert_as_fresh(&db, &kept, &[Value::Int(round)]);
        db.execute_sql(
            "DELETE FROM events WHERE kind = $1 AND owner < 12",
            &[Value::Int(round % 5)],
        )
        .unwrap();
        assert_as_fresh(&db, &kept, &[Value::Int(round)]);
        db.vacuum();
        assert_as_fresh(&db, &kept, &[Value::Int(round)]);
    }
}

#[test]
fn parameter_vectors_the_plan_cannot_be_shared_across_plan_afresh() {
    let db = events_db(500);
    db.execute_sql("CREATE INDEX events_owner ON events (owner)", &[])
        .unwrap();
    let by_owner = db.prepare(&parse_select(
        "SELECT COUNT(*) FROM events WHERE owner = $1",
    ));
    let counted = assert_as_fresh(&db, &by_owner, &[Value::Int(3)]);
    assert!(counted.count_only);
    // NULL never matches: count pushdown is off for this call only.
    let null = assert_as_fresh(&db, &by_owner, &[Value::Null]);
    assert!(!null.count_only);
    // A text key cannot be coerced for the INT column: no index key.
    let text = assert_as_fresh(&db, &by_owner, &[Value::Text("x".into())]);
    assert_eq!(text.base.path, AccessPath::TableScan);
    assert!(assert_as_fresh(&db, &by_owner, &[Value::Int(4)]).count_only);
    // A missing parameter is the planner's error, every time.
    assert!(db.execute_prepared(&by_owner, &[]).is_err());
    assert!(db.execute_prepared(&by_owner, &[]).is_err());

    // Value-dependent shapes: ranges, IN lists, a column constrained twice.
    for sql in [
        "SELECT * FROM events WHERE id > $1 AND id <= $2",
        "SELECT * FROM events WHERE owner IN ($1, $2)",
        "SELECT COUNT(*) FROM events WHERE owner = $1 AND owner = $2",
        "SELECT COUNT(*) FROM events WHERE owner = $1 AND owner > $2",
        "SELECT * FROM events WHERE owner = $1 OR owner = $2",
    ] {
        let kept = db.prepare(&parse_select(sql));
        for (a, b) in [(3, 3), (3, 400), (400, 3), (0, 0), (7, 8)] {
            assert_as_fresh(&db, &kept, &[Value::Int(a), Value::Int(b)]);
        }
    }
}

#[test]
fn joins_share_plans_with_parameters_kept_symbolic() {
    let db = events_db(300);
    db.execute_sql(
        "CREATE TABLE owners (id INT PRIMARY KEY, name TEXT NOT NULL)",
        &[],
    )
    .unwrap();
    for id in 0..23i64 {
        db.execute_sql(
            "INSERT INTO owners (id, name) VALUES ($1, $2)",
            &[Value::Int(id), Value::Text(format!("o{id}"))],
        )
        .unwrap();
    }
    db.execute_sql("CREATE INDEX events_owner ON events (owner)", &[])
        .unwrap();
    for sql in [
        "SELECT * FROM events JOIN owners ON owners.id = events.owner WHERE events.kind = $1",
        "SELECT * FROM owners JOIN events ON events.owner = owners.id WHERE owners.id = $1",
        "SELECT events.note, owners.name FROM events JOIN owners ON owners.id = events.owner \
         WHERE events.owner = $1 ORDER BY events.id DESC LIMIT 4",
    ] {
        let kept = db.prepare(&parse_select(sql));
        for p in [1, 2, 3, 1, 22, 99] {
            assert_as_fresh(&db, &kept, &[Value::Int(p)]);
        }
        insert_event(
            &db,
            1000 + kept.select().joins.len() as i64 + sql.len() as i64,
        );
        assert_as_fresh(&db, &kept, &[Value::Int(2)]);
    }
}

#[test]
fn one_handle_on_two_threads_while_a_third_runs_ddl() {
    let db = events_db(600);
    let kept = db.prepare(&parse_select(
        "SELECT id, note FROM events WHERE owner = $1 ORDER BY id",
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let start = Arc::new(Barrier::new(3));
    let expected = |owner: i64| -> Vec<i64> { (1..=600).filter(|id| id % 23 == owner).collect() };

    std::thread::scope(|s| {
        let readers: Vec<_> = (0..2)
            .map(|t| {
                let (db, kept, stop, start) = (&db, &kept, &stop, &start);
                s.spawn(move || {
                    start.wait();
                    let mut runs = 0u64;
                    while !stop.load(Ordering::SeqCst) || runs < 200 {
                        let owner = (runs as i64 + t) % 23;
                        let out = db.execute_prepared(kept, &[Value::Int(owner)]).unwrap();
                        assert_eq!(*out.result.columns, ["id", "note"]);
                        let ids: Vec<i64> = out
                            .result
                            .rows
                            .iter()
                            .map(|r| {
                                assert_eq!(r.arity(), 2, "stale layout");
                                r.get(0).as_int().unwrap()
                            })
                            .collect();
                        assert_eq!(ids, expected(owner));
                        runs += 1;
                    }
                    runs
                })
            })
            .collect();
        // DDL that changes what the handle keeps: a new index on the
        // table it reads (new plan), new tables (new catalog version).
        start.wait();
        db.execute_sql("CREATE INDEX events_owner ON events (owner)", &[])
            .unwrap();
        for i in 0..40 {
            db.execute_sql(
                &format!("CREATE TABLE side_{i} (id INT PRIMARY KEY, v INT)"),
                &[],
            )
            .unwrap();
            db.execute_sql(&format!("CREATE INDEX side_{i}_v ON side_{i} (v)"), &[])
                .unwrap();
        }
        db.execute_sql("CREATE INDEX events_owner_id ON events (owner, id)", &[])
            .unwrap();
        stop.store(true, Ordering::SeqCst);
        for r in readers {
            assert!(r.join().expect("reader panicked") >= 200);
        }
    });
    let plan = db.explain_prepared(&kept, &[Value::Int(5)]).unwrap();
    assert_eq!(plan.base.path.index_name(), Some("events_owner_id"));
    assert!(plan.order_satisfied);
}

#[test]
fn statement_cache_stays_bounded_under_literal_inlined_sql() {
    let db = events_db(50);
    for i in 0..10_000i64 {
        let out = db
            .execute_sql(
                &format!("SELECT note FROM events WHERE id = {}", i % 60),
                &[],
            )
            .unwrap();
        assert_eq!(
            out.result.rows.len(),
            usize::from((1..=50).contains(&(i % 60)))
        );
        // Distinct statements, not just distinct parameters.
        db.execute_sql(&format!("SELECT {i} FROM events WHERE id = 1"), &[])
            .unwrap();
        assert!(db.statement_cache_len() <= SHAPE_CACHE_CAPACITY);
    }
    // Statements that differ in a literal's type are different statements.
    let int = db
        .execute_sql("SELECT 1 FROM events WHERE id = 1", &[])
        .unwrap();
    let float = db
        .execute_sql("SELECT 1.0 FROM events WHERE id = 1", &[])
        .unwrap();
    assert_eq!(int.result.rows[0].get(0).as_int(), Some(1));
    assert_eq!(float.result.rows[0].get(0).as_float(), Some(1.0));
    assert_eq!(float.result.rows[0].get(0).as_int(), None);
}

#[test]
fn reads_take_no_transaction_mutex_path_unless_a_transaction_is_open() {
    // Behavioural side of the lock-free transaction check: a thread's own
    // transaction is always seen by its statements, another thread's never.
    let db = events_db(10);
    let kept = db.prepare(&parse_select("SELECT COUNT(*) FROM events"));
    let count = |db: &Database| {
        db.execute_prepared(&kept, &[])
            .unwrap()
            .result
            .scalar()
            .and_then(Value::as_int)
            .unwrap()
    };
    assert!(!db.in_transaction());
    db.execute_sql("BEGIN", &[]).unwrap();
    assert!(db.in_transaction());
    insert_event(&db, 11);
    assert_eq!(count(&db), 11, "own writes are visible");
    std::thread::scope(|s| {
        s.spawn(|| {
            assert!(!db.in_transaction());
            assert_eq!(count(&db), 10, "another thread reads committed state");
        });
    });
    db.execute_sql("ROLLBACK", &[]).unwrap();
    assert!(!db.in_transaction());
    assert_eq!(count(&db), 10);
}

#[test]
fn a_handle_run_on_another_database_rebinds_there() {
    let narrow = events_db(20);
    let wide = Database::new(DbConfig::default());
    wide.execute_sql(
        "CREATE TABLE events (extra INT, id INT PRIMARY KEY, owner INT NOT NULL)",
        &[],
    )
    .unwrap();
    wide.execute_sql("INSERT INTO events VALUES (9, 1, 3)", &[])
        .unwrap();
    let kept = PreparedSelect::new(parse_select("SELECT owner FROM events WHERE id = $1"));
    for _ in 0..2 {
        for db in [&narrow, &wide] {
            let out = db.execute_prepared(&kept, &[Value::Int(1)]).unwrap();
            let expect = if std::ptr::eq(db, &narrow) { 1 } else { 3 };
            assert_eq!(out.result.scalar(), Some(&Value::Int(expect)));
        }
    }
}
