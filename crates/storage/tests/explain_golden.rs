//! EXPLAIN golden matrix: for every access-path shape the planner emits,
//! the EXPLAIN line, the executed `rows_scanned` / `index_probes` /
//! `rows_returned` and the result rows of one statement, compared
//! byte for byte with `tests/golden/explain_matrix.txt`.
//!
//! The table has a primary key, a one-column, a two-column and a unique
//! index, plus a nullable indexed column; the statements cover forward
//! and descending scans, count-only and counted `COUNT(*)`, all-NULL `IN`
//! lists, inverted ranges, NULL keys, raw float bounds on an Int column,
//! `BETWEEN v AND v`, parameters rebound into a kept plan, and joins
//! whose driving table is index-scanned.
//!
//! After an intended plan change, rewrite the file with
//! `UPDATE_GOLDEN=1 cargo test -p genie-storage --test explain_golden`
//! and review the diff.

use genie_storage::{Database, Value};
use std::fmt::Write as _;

const GOLDEN: &str = "tests/golden/explain_matrix.txt";

fn wall_db() -> Database {
    let db = Database::default();
    for sql in [
        "CREATE TABLE wall (post_id INT PRIMARY KEY, sender_id INT NOT NULL, \
         user_id INT NOT NULL, date_posted TIMESTAMP NOT NULL, status INT, \
         slug TEXT UNIQUE)",
        "CREATE INDEX wall_sender ON wall (sender_id)",
        "CREATE INDEX wall_user_date ON wall (user_id, date_posted)",
        "CREATE INDEX wall_status ON wall (status)",
        "CREATE TABLE users (id INT PRIMARY KEY, name TEXT NOT NULL)",
    ] {
        db.execute_sql(sql, &[]).unwrap();
    }
    for i in 0..60i64 {
        let status = if i % 4 == 0 {
            Value::Null
        } else {
            Value::Int(i % 3)
        };
        db.execute_sql(
            "INSERT INTO wall VALUES ($1, $2, $3, $4, $5, $6)",
            &[
                Value::Int(i),
                Value::Int(i % 7),
                Value::Int(i % 5),
                Value::Timestamp(1000 + i),
                status,
                Value::Text(format!("p{i}")),
            ],
        )
        .unwrap();
    }
    for i in 0..5i64 {
        db.execute_sql(
            "INSERT INTO users VALUES ($1, $2)",
            &[Value::Int(i), Value::Text(format!("u{i}"))],
        )
        .unwrap();
    }
    db
}

/// `(sql, params)`: one entry per matrix row.
fn statements() -> Vec<(&'static str, Vec<Value>)> {
    let ts = Value::Timestamp;
    vec![
        // Primary key: point, list, range.
        ("SELECT * FROM wall WHERE post_id = 7", vec![]),
        ("SELECT COUNT(*) FROM wall WHERE post_id = 7", vec![]),
        ("SELECT * FROM wall WHERE post_id = $1", vec![Value::Int(12)]),
        (
            "SELECT * FROM wall WHERE post_id IN (9, 3, 40, 3, 99)",
            vec![],
        ),
        (
            "SELECT * FROM wall WHERE post_id IN (9, 3, 40) ORDER BY post_id DESC",
            vec![],
        ),
        (
            "SELECT COUNT(*) FROM wall WHERE post_id IN (9, 3, 40, 99)",
            vec![],
        ),
        ("SELECT * FROM wall WHERE post_id IN (NULL, NULL)", vec![]),
        (
            "SELECT * FROM wall WHERE post_id >= 10 AND post_id < 14",
            vec![],
        ),
        (
            "SELECT * FROM wall WHERE post_id > 55 ORDER BY post_id DESC",
            vec![],
        ),
        (
            "SELECT COUNT(*) FROM wall WHERE post_id BETWEEN 5 AND 15",
            vec![],
        ),
        (
            "SELECT * FROM wall WHERE post_id > 40 AND post_id < 10",
            vec![],
        ),
        ("SELECT * FROM wall WHERE post_id < 2.5", vec![]),
        // One-column index: point, list, range, ordered full scan.
        ("SELECT * FROM wall WHERE sender_id = 3", vec![]),
        ("SELECT COUNT(*) FROM wall WHERE sender_id = 3", vec![]),
        ("SELECT * FROM wall WHERE sender_id = $1", vec![Value::Int(4)]),
        ("SELECT * FROM wall WHERE sender_id IN (5, 1, 1)", vec![]),
        (
            "SELECT * FROM wall WHERE sender_id = 6 OR sender_id = 2 ORDER BY sender_id DESC",
            vec![],
        ),
        ("SELECT COUNT(*) FROM wall WHERE sender_id IN (1, 5)", vec![]),
        ("SELECT * FROM wall WHERE sender_id IN (NULL)", vec![]),
        (
            "SELECT * FROM wall WHERE sender_id > 4 ORDER BY sender_id DESC",
            vec![],
        ),
        ("SELECT COUNT(*) FROM wall WHERE sender_id >= 5", vec![]),
        ("SELECT * FROM wall WHERE sender_id BETWEEN 3 AND 3", vec![]),
        ("SELECT * FROM wall ORDER BY sender_id LIMIT 5", vec![]),
        ("SELECT * FROM wall ORDER BY sender_id DESC LIMIT 4", vec![]),
        // Nullable column: NULL keys and an unbounded lower end.
        ("SELECT * FROM wall WHERE status = NULL", vec![]),
        ("SELECT COUNT(*) FROM wall WHERE status = NULL", vec![]),
        ("SELECT COUNT(*) FROM wall WHERE status < 2", vec![]),
        ("SELECT COUNT(*) FROM wall WHERE status >= 1", vec![]),
        // Two-column index: full key, prefix, prefix + range, prefix + IN.
        (
            "SELECT * FROM wall WHERE user_id = 2 AND date_posted = TS(1007)",
            vec![],
        ),
        (
            "SELECT * FROM wall WHERE user_id = 4 ORDER BY date_posted",
            vec![],
        ),
        (
            "SELECT * FROM wall WHERE user_id = $1 ORDER BY date_posted DESC LIMIT 3",
            vec![Value::Int(4)],
        ),
        ("SELECT COUNT(*) FROM wall WHERE user_id = 4", vec![]),
        (
            "SELECT * FROM wall WHERE user_id = 1 AND date_posted >= TS(1020) \
             AND date_posted < TS(1040)",
            vec![],
        ),
        (
            "SELECT * FROM wall WHERE user_id = 1 AND date_posted > TS(1020) \
             ORDER BY date_posted DESC",
            vec![],
        ),
        (
            "SELECT COUNT(*) FROM wall WHERE user_id = 1 AND date_posted > TS(1020)",
            vec![],
        ),
        (
            "SELECT * FROM wall WHERE user_id = 1 AND date_posted BETWEEN TS(1050) AND TS(1000)",
            vec![],
        ),
        ("SELECT * FROM wall WHERE user_id IN (3, 1)", vec![]),
        (
            "SELECT * FROM wall WHERE user_id = 2 AND date_posted IN (TS(1002), TS(1012), TS(1007))",
            vec![],
        ),
        (
            "SELECT * FROM wall WHERE user_id = $1 AND date_posted IN ($2, $3) \
             ORDER BY date_posted DESC",
            vec![Value::Int(2), ts(1022), ts(1012)],
        ),
        (
            "SELECT COUNT(*) FROM wall WHERE user_id = 2 AND date_posted IN (TS(1002), TS(1012))",
            vec![],
        ),
        (
            "SELECT * FROM wall WHERE user_id = 2 AND date_posted IN (NULL)",
            vec![],
        ),
        // Unique index.
        ("SELECT * FROM wall WHERE slug = 'p17'", vec![]),
        ("SELECT COUNT(*) FROM wall WHERE slug = 'p17'", vec![]),
        // No usable key.
        ("SELECT * FROM wall WHERE date_posted > TS(1055)", vec![]),
        ("SELECT COUNT(*) FROM wall", vec![]),
        // Joins driven by an index scan.
        (
            "SELECT w.post_id, u.name FROM wall AS w JOIN users AS u ON u.id = w.user_id \
             WHERE w.sender_id = 2 ORDER BY w.post_id",
            vec![],
        ),
        (
            "SELECT w.post_id, u.name FROM wall AS w JOIN users AS u ON u.id = w.user_id \
             WHERE w.user_id = 3 ORDER BY w.date_posted DESC LIMIT 4",
            vec![],
        ),
        (
            "SELECT u.name, w.post_id FROM users AS u JOIN wall AS w ON w.sender_id = u.id \
             WHERE u.id = 3",
            vec![],
        ),
    ]
}

/// The matrix as text. Statements with parameters run twice — once with
/// the listed values bumped by one, then with the listed values — so the
/// second run and its EXPLAIN read a plan kept from the first.
fn matrix() -> String {
    let db = wall_db();
    let mut out = String::new();
    for (sql, params) in statements() {
        if !params.is_empty() {
            let other: Vec<Value> = params
                .iter()
                .map(|v| match v {
                    Value::Int(i) => Value::Int(i + 1),
                    Value::Timestamp(t) => Value::Timestamp(t + 1),
                    v => v.clone(),
                })
                .collect();
            db.execute_sql(sql, &other)
                .unwrap_or_else(|e| panic!("{sql}: {e}"));
        }
        let plan = db
            .explain_sql(sql, &params)
            .unwrap_or_else(|e| panic!("{sql}: {e}"));
        let run = db
            .execute_sql(sql, &params)
            .unwrap_or_else(|e| panic!("{sql}: {e}"));
        let rows: Vec<String> = run.result.rows.iter().map(|r| r.to_string()).collect();
        writeln!(out, "-- {sql}").unwrap();
        if !params.is_empty() {
            let shown: Vec<String> = params.iter().map(|v| v.to_string()).collect();
            writeln!(out, "params: {}", shown.join(", ")).unwrap();
        }
        writeln!(out, "plan: {plan}").unwrap();
        writeln!(
            out,
            "cost: rows_scanned={} index_probes={} rows_returned={}",
            run.cost.rows_scanned, run.cost.index_probes, run.cost.rows_returned
        )
        .unwrap();
        writeln!(out, "rows: {}", rows.join(" ")).unwrap();
        out.push('\n');
    }
    out
}

#[test]
fn explain_matrix_matches_golden() {
    let got = matrix();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap();
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "{GOLDEN} line {} differs", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "{GOLDEN} length");
}
