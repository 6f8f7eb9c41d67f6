//! Property-based tests on the storage engine's core invariants.

use genie_storage::{
    ColumnDef, Database, Expr, IndexDef, Select, Statement, TableSchema, Value, ValueType,
};
use proptest::prelude::*;

fn fresh_db(indexed: bool) -> Database {
    let db = Database::default();
    db.create_table(
        TableSchema::builder("t")
            .pk("id")
            .column(ColumnDef::new("k", ValueType::Int))
            .column(ColumnDef::new("v", ValueType::Int))
            .build()
            .unwrap(),
    )
    .unwrap();
    if indexed {
        for (name, columns) in [("t_k", vec!["k"]), ("t_k_v", vec!["k", "v"])] {
            db.create_index(
                "t",
                IndexDef {
                    name: name.into(),
                    columns: columns.into_iter().map(String::from).collect(),
                    unique: false,
                },
            )
            .unwrap();
        }
    }
    db
}

/// Random sequences of inserts/updates/deletes applied identically to an
/// indexed and an unindexed table must answer `k = ?` queries identically:
/// secondary-index access is an optimization, never a semantic change.
#[derive(Debug, Clone)]
enum Op {
    Insert { id: i64, k: i64, v: i64 },
    Update { id: i64, k: i64 },
    Delete { id: i64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..40i64, 0..8i64, 0..16i64).prop_map(|(id, k, v)| Op::Insert { id, k, v }),
        (0..40i64, 0..8i64).prop_map(|(id, k)| Op::Update { id, k }),
        (0..40i64).prop_map(|id| Op::Delete { id }),
    ]
}

fn apply(db: &Database, op: &Op) {
    match op {
        Op::Insert { id, k, v } => {
            // Duplicate-PK inserts are expected to fail identically.
            let _ = db.execute_sql(
                "INSERT INTO t VALUES ($1, $2, $3)",
                &[Value::Int(*id), Value::Int(*k), Value::Int(*v)],
            );
        }
        Op::Update { id, k } => {
            db.execute_sql(
                "UPDATE t SET k = $2 WHERE id = $1",
                &[Value::Int(*id), Value::Int(*k)],
            )
            .unwrap();
        }
        Op::Delete { id } => {
            db.execute_sql("DELETE FROM t WHERE id = $1", &[Value::Int(*id)])
                .unwrap();
        }
    }
}

fn rows_for_k(db: &Database, k: i64) -> Vec<(i64, i64)> {
    let sel = Select::star("t")
        .filter(Expr::col("k").eq(Expr::Param(0)))
        .order("id", false);
    let out = db.select(&sel, &[Value::Int(k)]).unwrap();
    out.result
        .rows
        .iter()
        .map(|r| (r.get(0).as_int().unwrap(), r.get(2).as_int().unwrap()))
        .collect()
}

/// Rows `sql` returns as `(id, v)` pairs, in the order it returns them.
fn rows_in_order(db: &Database, sql: &str) -> Vec<(i64, i64)> {
    let out = db.execute_sql(sql, &[]).unwrap();
    out.result
        .rows
        .iter()
        .map(|r| (r.get(0).as_int().unwrap(), r.get(2).as_int().unwrap()))
        .collect()
}

/// Rows matching `sql` as `(id, v)` pairs sorted by id — the comparison
/// key for the planner-path consistency properties below.
fn rows_for_sql(db: &Database, sql: &str) -> Vec<(i64, i64)> {
    let mut rows = rows_in_order(db, sql);
    rows.sort_unstable();
    rows
}

fn count_for_sql(db: &Database, sql: &str) -> i64 {
    let out = db.execute_sql(sql, &[]).unwrap();
    out.result.scalar().unwrap().as_int().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn index_scan_equals_full_scan(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let indexed = fresh_db(true);
        let plain = fresh_db(false);
        for op in &ops {
            apply(&indexed, op);
            apply(&plain, op);
        }
        for k in 0..8 {
            prop_assert_eq!(rows_for_k(&indexed, k), rows_for_k(&plain, k));
        }
    }

    /// After any UPDATE/DELETE mix, every planner access path — equality,
    /// range, BETWEEN, IN, on the primary key, a one-column and a
    /// two-column index, forward and reversed — answers identically on an
    /// indexed and an unindexed table, and so does `COUNT(*)` with the
    /// same WHERE (count pushdown where the path absorbs it): secondary-
    /// index maintenance in `Table::update` / `Table::delete` must keep
    /// index postings exactly in sync with the heap the full scan reads.
    /// Ordered queries compare in order, ties included.
    #[test]
    fn planner_paths_survive_update_delete(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let indexed = fresh_db(true);
        let plain = fresh_db(false);
        for op in &ops {
            apply(&indexed, op);
            apply(&plain, op);
        }
        // (WHERE clause, ORDER BY / LIMIT tail).
        let queries = [
            ("k = 3", ""),
            ("k > 2", ""),
            ("k >= 1 AND k < 5", ""),
            ("k BETWEEN 2 AND 6", ""),
            ("k IN (0, 3, 7)", ""),
            ("k IN (0, 3, 7)", " ORDER BY k DESC"),
            ("k = 1 OR k = 4", ""),
            ("id BETWEEN 5 AND 25", ""),
            ("id BETWEEN 5 AND 25", " ORDER BY id DESC"),
            ("id IN (4, 17, 9, 33, 17)", ""),
            ("id IN (4, 17, 9, 33)", " ORDER BY id DESC"),
            ("k = 2 AND v IN (7)", ""),
            ("k = 2 AND v IN (2, 10)", ""),
            ("k = 2 AND v IN (2, 10)", " ORDER BY v DESC"),
            ("k = 3 AND v IN (1, 5, 9, 13)", " ORDER BY v DESC"),
            ("k = 5 AND v > 6", ""),
            ("k = 5 AND v > 6", " ORDER BY v DESC"),
            ("k = 1", " ORDER BY v DESC LIMIT 3"),
            ("k = 6", " ORDER BY v LIMIT 2"),
        ];
        for (pred, tail) in queries {
            let sql = format!("SELECT * FROM t WHERE {pred}{tail}");
            let (got, want) = if tail.is_empty() {
                (rows_for_sql(&indexed, &sql), rows_for_sql(&plain, &sql))
            } else {
                (rows_in_order(&indexed, &sql), rows_in_order(&plain, &sql))
            };
            prop_assert_eq!(got, want, "{} diverged between index scan and full scan", sql);
            let count = format!("SELECT COUNT(*) FROM t WHERE {pred}");
            prop_assert_eq!(
                count_for_sql(&indexed, &count),
                count_for_sql(&plain, &count),
                "{} diverged between index scan and full scan",
                count
            );
        }
    }

    #[test]
    fn count_star_equals_row_count(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let db = fresh_db(true);
        for op in &ops {
            apply(&db, op);
        }
        let out = db.execute_sql("SELECT COUNT(*) FROM t", &[]).unwrap();
        prop_assert_eq!(
            out.result.scalar().unwrap().as_int().unwrap() as usize,
            db.row_count("t").unwrap()
        );
    }

    #[test]
    fn rollback_is_identity(ops in prop::collection::vec(op_strategy(), 1..40)) {
        let db = fresh_db(true);
        // Seed with a deterministic prefix.
        for id in 0..10i64 {
            db.execute_sql(
                "INSERT INTO t VALUES ($1, $2, $3)",
                &[Value::Int(id), Value::Int(id % 4), Value::Int(id * 10)],
            ).unwrap();
        }
        let before: Vec<Vec<(i64, i64)>> = (0..8).map(|k| rows_for_k(&db, k)).collect();
        let _ = db.transaction(|tx| -> genie_storage::Result<()> {
            for op in &ops {
                match op {
                    Op::Insert { id, k, v } => {
                        let _ = tx.execute_sql(
                            "INSERT INTO t VALUES ($1, $2, $3)",
                            &[Value::Int(*id), Value::Int(*k), Value::Int(*v)],
                        );
                    }
                    Op::Update { id, k } => {
                        tx.execute_sql(
                            "UPDATE t SET k = $2 WHERE id = $1",
                            &[Value::Int(*id), Value::Int(*k)],
                        )?;
                    }
                    Op::Delete { id } => {
                        tx.execute_sql("DELETE FROM t WHERE id = $1", &[Value::Int(*id)])?;
                    }
                }
            }
            Err(genie_storage::StorageError::Eval("forced rollback".into()))
        });
        let after: Vec<Vec<(i64, i64)>> = (0..8).map(|k| rows_for_k(&db, k)).collect();
        prop_assert_eq!(before, after);
    }

    /// Rendering any parsed SELECT back to SQL and reparsing yields the
    /// same AST (canonical-text round trip).
    #[test]
    fn select_display_roundtrip(
        table in "[a-z]{1,6}",
        col in "[a-z]{1,6}",
        v in -1000..1000i64,
        lim in proptest::option::of(0u64..50),
        desc in any::<bool>(),
    ) {
        let mut sel = Select::star(&table).filter(Expr::col(&col).eq(Expr::lit(v)));
        if let Some(l) = lim {
            sel = sel.limit(l).order(&col, desc);
        }
        let text = sel.to_string();
        let reparsed = genie_storage::sql::parse(&text).unwrap();
        prop_assert_eq!(Statement::Select(sel), reparsed);
    }

    /// LIKE matching agrees with a reference regex-free implementation on
    /// simple prefix patterns.
    #[test]
    fn like_prefix_matches(prefix in "[a-z]{0,5}", rest in "[a-z]{0,5}") {
        let db = Database::default();
        db.execute_sql("CREATE TABLE s (id INT PRIMARY KEY, t TEXT)", &[]).unwrap();
        let full = format!("{prefix}{rest}");
        db.execute_sql(
            "INSERT INTO s VALUES (1, $1)",
            &[Value::Text(full.clone())],
        ).unwrap();
        let pattern = format!("{prefix}%");
        let out = db.execute_sql(
            &format!("SELECT * FROM s WHERE t LIKE '{pattern}'"),
            &[],
        ).unwrap();
        prop_assert_eq!(out.result.rows.len(), 1, "{} should match {}", pattern, full);
    }
}
