//! The morsel-parallel scan against the serial one: the same statements
//! at `set_scan_workers(1)` and `set_scan_workers(4)` must return the
//! same rows in the same order. The table is well past the engine's
//! parallel threshold (4096 candidate rows) and spans ten 1024-row
//! morsels, so four workers each claim several.

use genie_storage::{Database, ExecOutcome, Row, Value};

const ROWS: i64 = 10_000;

/// `scan_t(id, grp, val)`: `grp` has 100 distinct values (many ties),
/// `val` is spread over 0..1_000_000; neither is indexed.
fn build_db() -> Database {
    let db = Database::default();
    db.execute_sql(
        "CREATE TABLE scan_t (id INT PRIMARY KEY, grp INT NOT NULL, val INT NOT NULL)",
        &[],
    )
    .unwrap();
    let mut state: i64 = 88172645463325252;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state.rem_euclid(1_000_000)
    };
    db.execute_sql("BEGIN", &[]).unwrap();
    for id in 1..=ROWS {
        db.execute_sql(
            "INSERT INTO scan_t (id, grp, val) VALUES ($1, $2, $3)",
            &[Value::Int(id), Value::Int(next() % 100), Value::Int(next())],
        )
        .unwrap();
    }
    db.execute_sql("COMMIT", &[]).unwrap();
    db
}

fn run(db: &Database, workers: usize, sql: &str, params: &[Value]) -> ExecOutcome {
    db.set_scan_workers(workers);
    db.execute_sql(sql, params).unwrap()
}

/// Runs `sql` serially and with four workers; returns the (agreed) rows.
fn same_at_1_and_4(db: &Database, sql: &str, params: &[Value]) -> Vec<Row> {
    let serial = run(db, 1, sql, params);
    let parallel = run(db, 4, sql, params);
    assert_eq!(serial.result.columns, parallel.result.columns, "{sql}");
    assert_eq!(
        serial.result.rows, parallel.result.rows,
        "{sql}: rows or row order differ between 1 and 4 workers"
    );
    assert_eq!(
        serial.cost.rows_returned, parallel.cost.rows_returned,
        "{sql}"
    );
    serial.result.rows
}

#[test]
fn four_workers_return_what_one_worker_returns() {
    let db = build_db();

    // COUNT(*) with a residual predicate: per-worker survivor counts.
    let count = same_at_1_and_4(
        &db,
        "SELECT COUNT(*) FROM scan_t WHERE val < $1",
        &[Value::Int(500_000)],
    );
    let n = count[0].get(0).as_int().unwrap();
    assert!(
        (4_000..6_000).contains(&n),
        "about half the rows match: {n}"
    );

    // Filtered scan, no ORDER BY: survivors merge back in heap order.
    let rows = same_at_1_and_4(
        &db,
        "SELECT id, grp, val FROM scan_t WHERE val < $1",
        &[Value::Int(500_000)],
    );
    assert_eq!(rows.len() as i64, n, "scan and COUNT(*) agree");
    assert!(
        rows.windows(2).all(|w| w[0].get(0) < w[1].get(0)),
        "unordered scan returns heap (insertion) order"
    );

    // Top-k over a non-indexed column with many ties: per-worker
    // partials, merged by arrival rank so ties break as the serial scan
    // breaks them.
    let top = same_at_1_and_4(
        &db,
        "SELECT id, grp FROM scan_t WHERE val < $1 ORDER BY grp DESC LIMIT 25",
        &[Value::Int(500_000)],
    );
    assert_eq!(top.len(), 25);
    assert!(
        top.iter().all(|r| r.get(1) == top[0].get(1)),
        "the limit cuts inside one tie group, so arrival order decides"
    );
    assert!(
        top.windows(2).all(|w| w[0].get(0) < w[1].get(0)),
        "ties come out in heap order"
    );
}
