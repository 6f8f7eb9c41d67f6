//! Planner behaviour tests: which access path gets chosen, what it costs,
//! and that every path returns exactly what a full scan would.

use genie_storage::plan::{AccessPath, Bound};
use genie_storage::{ColumnDef, Database, Expr, IndexDef, Select, TableSchema, Value, ValueType};

/// A wall-like table: pk `post_id`, FK `user_id`, timestamp `date_posted`,
/// composite index (user_id, date_posted) plus a single-column status
/// index.
fn wall_db(rows: i64) -> Database {
    let db = Database::default();
    db.create_table(
        TableSchema::builder("wall")
            .pk("post_id")
            .column(ColumnDef::new("user_id", ValueType::Int).not_null())
            .column(ColumnDef::new("date_posted", ValueType::Timestamp).not_null())
            .column(ColumnDef::new("status", ValueType::Int).not_null())
            .build()
            .unwrap(),
    )
    .unwrap();
    db.create_index(
        "wall",
        IndexDef {
            name: "wall_user_date".into(),
            columns: vec!["user_id".into(), "date_posted".into()],
            unique: false,
        },
    )
    .unwrap();
    db.create_index(
        "wall",
        IndexDef {
            name: "wall_status".into(),
            columns: vec!["status".into()],
            unique: false,
        },
    )
    .unwrap();
    for i in 0..rows {
        db.execute_sql(
            "INSERT INTO wall VALUES ($1, $2, $3, $4)",
            &[
                Value::Int(i),
                Value::Int(i % 10),
                Value::Timestamp(1000 + i),
                Value::Int(i % 3),
            ],
        )
        .unwrap();
    }
    db
}

fn explain(db: &Database, sql: &str, params: &[Value]) -> genie_storage::QueryPlan {
    db.explain_sql(sql, params).unwrap()
}

#[test]
fn equality_on_pk_uses_pk_probe() {
    let db = wall_db(100);
    let plan = explain(&db, "SELECT * FROM wall WHERE post_id = 7", &[]);
    assert_eq!(
        plan.base.path,
        AccessPath::IndexScan {
            index: None,
            eq: vec![Value::Int(7)],
            ranges: vec![(Bound::Unbounded, Bound::Unbounded)],
        }
    );
}

#[test]
fn reversed_equality_extracts_too() {
    let db = wall_db(100);
    // `7 = post_id` must plan identically to `post_id = 7`.
    let plan = explain(&db, "SELECT * FROM wall WHERE 7 = post_id", &[]);
    assert_eq!(
        plan.base.path,
        AccessPath::IndexScan {
            index: None,
            eq: vec![Value::Int(7)],
            ranges: vec![(Bound::Unbounded, Bound::Unbounded)],
        }
    );
    let plan = explain(&db, "SELECT * FROM wall WHERE 3 > post_id", &[]);
    assert_eq!(
        plan.base.path,
        AccessPath::IndexScan {
            index: None,
            eq: vec![],
            ranges: vec![(Bound::Unbounded, Bound::Excluded(Value::Int(3)))],
        }
    );
}

#[test]
fn and_conjuncts_build_composite_index_key() {
    let db = wall_db(100);
    let plan = explain(
        &db,
        "SELECT * FROM wall WHERE user_id = $1 AND date_posted = TS(1005)",
        &[Value::Int(5)],
    );
    assert_eq!(
        plan.base.path,
        AccessPath::IndexScan {
            index: Some("wall_user_date".into()),
            eq: vec![Value::Int(5), Value::Timestamp(1005)],
            ranges: vec![(Bound::Unbounded, Bound::Unbounded)],
        }
    );
}

#[test]
fn range_bounds_merge_into_one_scan() {
    let db = wall_db(100);
    let plan = explain(
        &db,
        "SELECT * FROM wall WHERE user_id = 3 AND date_posted > TS(1010) AND date_posted <= TS(1050)",
        &[],
    );
    assert_eq!(
        plan.base.path,
        AccessPath::IndexScan {
            index: Some("wall_user_date".into()),
            eq: vec![Value::Int(3)],
            ranges: vec![(
                Bound::Excluded(Value::Timestamp(1010)),
                Bound::Included(Value::Timestamp(1050)),
            )],
        }
    );
    // Conflicting bounds keep the tightest pair.
    let plan = explain(
        &db,
        "SELECT * FROM wall WHERE user_id = 3 AND date_posted > TS(1000) AND date_posted >= TS(1020)",
        &[],
    );
    assert_eq!(
        plan.base.path,
        AccessPath::IndexScan {
            index: Some("wall_user_date".into()),
            eq: vec![Value::Int(3)],
            ranges: vec![(Bound::Included(Value::Timestamp(1020)), Bound::Unbounded)],
        }
    );
}

#[test]
fn between_desugars_to_range() {
    let db = wall_db(100);
    let plan = explain(
        &db,
        "SELECT * FROM wall WHERE user_id = 2 AND date_posted BETWEEN TS(1004) AND TS(1040)",
        &[],
    );
    assert_eq!(
        plan.base.path,
        AccessPath::IndexScan {
            index: Some("wall_user_date".into()),
            eq: vec![Value::Int(2)],
            ranges: vec![(
                Bound::Included(Value::Timestamp(1004)),
                Bound::Included(Value::Timestamp(1040)),
            )],
        }
    );
}

#[test]
fn prefix_equality_scans_composite_index() {
    let db = wall_db(100);
    let plan = explain(&db, "SELECT * FROM wall WHERE user_id = 4", &[]);
    assert_eq!(
        plan.base.path,
        AccessPath::IndexScan {
            index: Some("wall_user_date".into()),
            eq: vec![Value::Int(4)],
            ranges: vec![(Bound::Unbounded, Bound::Unbounded)],
        }
    );
}

#[test]
fn in_list_dedups_and_sorts_keys() {
    let db = wall_db(100);
    let plan = explain(
        &db,
        "SELECT * FROM wall WHERE status IN (2, 0, 2, $1, 0)",
        &[Value::Int(0)],
    );
    assert_eq!(
        plan.base.path,
        AccessPath::IndexScan {
            index: Some("wall_status".into()),
            eq: vec![],
            ranges: vec![
                (
                    Bound::Included(Value::Int(0)),
                    Bound::Included(Value::Int(0))
                ),
                (
                    Bound::Included(Value::Int(2)),
                    Bound::Included(Value::Int(2))
                ),
            ],
        }
    );
}

#[test]
fn or_equality_chain_plans_like_in() {
    let db = wall_db(100);
    let plan = explain(
        &db,
        "SELECT * FROM wall WHERE status = 2 OR status = 0",
        &[],
    );
    assert_eq!(
        plan.base.path,
        AccessPath::IndexScan {
            index: Some("wall_status".into()),
            eq: vec![],
            ranges: vec![
                (
                    Bound::Included(Value::Int(0)),
                    Bound::Included(Value::Int(0))
                ),
                (
                    Bound::Included(Value::Int(2)),
                    Bound::Included(Value::Int(2))
                ),
            ],
        }
    );
    // Mixed-column OR is not a multi-key lookup.
    let plan = explain(
        &db,
        "SELECT * FROM wall WHERE status = 2 OR user_id = 0",
        &[],
    );
    assert_eq!(plan.base.path, AccessPath::TableScan);
}

#[test]
fn pk_in_list_probes_instead_of_scanning() {
    let db = wall_db(100);
    let sql = "SELECT * FROM wall WHERE post_id IN (13, 5, 13, 40) ORDER BY post_id";
    let plan = explain(&db, sql, &[]);
    assert_eq!(
        plan.base.path,
        AccessPath::IndexScan {
            index: None,
            eq: vec![],
            ranges: vec![
                (
                    Bound::Included(Value::Int(5)),
                    Bound::Included(Value::Int(5))
                ),
                (
                    Bound::Included(Value::Int(13)),
                    Bound::Included(Value::Int(13))
                ),
                (
                    Bound::Included(Value::Int(40)),
                    Bound::Included(Value::Int(40))
                ),
            ],
        }
    );
    assert!(plan.order_satisfied, "sorted pk keys give pk order");
    let out = db.execute_sql(sql, &[]).unwrap();
    assert_eq!(out.cost.rows_scanned, 3);
    assert_eq!(out.cost.sorts, 0);
    let ids: Vec<i64> = out
        .result
        .rows
        .iter()
        .map(|r| r.get(0).as_int().unwrap())
        .collect();
    assert_eq!(ids, vec![5, 13, 40]);
}

#[test]
fn composite_index_wins_selectivity_ties() {
    // Single-column and composite indexes whose leading column has the
    // same cardinality tie on estimated rows; the wider matched key must
    // win deterministically.
    let db = Database::default();
    db.execute_sql(
        "CREATE TABLE inv (id INT PRIMARY KEY, to_user INT NOT NULL, status INT NOT NULL)",
        &[],
    )
    .unwrap();
    db.execute_sql("CREATE INDEX inv_user ON inv (to_user)", &[])
        .unwrap();
    db.execute_sql("CREATE INDEX inv_user_status ON inv (to_user, status)", &[])
        .unwrap();
    // All rows share status 0, so distinct(to_user) == distinct(to_user, status).
    for i in 0..60i64 {
        db.execute_sql(
            "INSERT INTO inv VALUES ($1, $2, 0)",
            &[Value::Int(i), Value::Int(i % 20)],
        )
        .unwrap();
    }
    let plan = explain(
        &db,
        "SELECT * FROM inv WHERE to_user = 3 AND status = 0",
        &[],
    );
    assert_eq!(
        plan.base.path,
        AccessPath::IndexScan {
            index: Some("inv_user_status".into()),
            eq: vec![Value::Int(3), Value::Int(0)],
            ranges: vec![(Bound::Unbounded, Bound::Unbounded)],
        }
    );
}

#[test]
fn non_indexable_predicates_fall_back_to_scan() {
    let db = wall_db(100);
    for sql in [
        "SELECT * FROM wall",
        "SELECT * FROM wall WHERE date_posted = TS(1010)", // not a leading index column
        "SELECT * FROM wall WHERE status <> 1",
        "SELECT * FROM wall WHERE status + 1 = 2",
        "SELECT * FROM wall WHERE user_id IS NULL",
    ] {
        let plan = explain(&db, sql, &[]);
        assert_eq!(plan.base.path, AccessPath::TableScan, "{sql}");
    }
}

#[test]
fn order_by_on_index_skips_sort() {
    let db = wall_db(100);
    let sel = "SELECT * FROM wall WHERE user_id = 3 ORDER BY date_posted DESC LIMIT 5";
    let plan = explain(&db, sel, &[]);
    assert!(plan.order_satisfied, "{plan}");
    assert!(plan.base.reverse);
    let out = db.execute_sql(sel, &[]).unwrap();
    assert_eq!(out.cost.sorts, 0, "index order must skip the sort");
    // Correct order: newest first.
    let ts: Vec<i64> = out
        .result
        .rows
        .iter()
        .map(|r| r.get(2).as_timestamp().unwrap())
        .collect();
    let mut sorted = ts.clone();
    sorted.sort_by(|a, b| b.cmp(a));
    assert_eq!(ts, sorted);
    assert_eq!(ts.len(), 5);

    // An order the index cannot produce still sorts.
    let out = db
        .execute_sql("SELECT * FROM wall WHERE user_id = 3 ORDER BY status", &[])
        .unwrap();
    assert_eq!(out.cost.sorts, 1);
}

#[test]
fn range_scan_reads_fewer_rows_than_full_scan() {
    let db = wall_db(200);
    let out = db
        .execute_sql(
            "SELECT * FROM wall WHERE user_id = 3 AND date_posted > TS(1100)",
            &[],
        )
        .unwrap();
    // user 3 owns 20 rows; about half are past TS(1100). A full scan
    // would report 200.
    assert!(
        out.cost.rows_scanned <= 20,
        "rows_scanned {} should be bounded by the index range",
        out.cost.rows_scanned
    );
    assert_eq!(out.cost.index_probes, 1);
    let full = db
        .execute_sql("SELECT * FROM wall WHERE status + 1 = 1", &[])
        .unwrap();
    assert_eq!(full.cost.rows_scanned, 200);
}

#[test]
fn every_path_matches_full_scan_semantics() {
    let db = wall_db(150);
    let queries = [
        "SELECT * FROM wall WHERE post_id = 14",
        "SELECT * FROM wall WHERE post_id BETWEEN 10 AND 30",
        "SELECT * FROM wall WHERE post_id >= 140",
        "SELECT * FROM wall WHERE user_id = 7",
        "SELECT * FROM wall WHERE user_id = 7 AND date_posted < TS(1100)",
        "SELECT * FROM wall WHERE status IN (0, 2)",
        "SELECT * FROM wall WHERE status = 0 OR status = 2",
        "SELECT * FROM wall WHERE user_id = 7 ORDER BY date_posted DESC",
        "SELECT * FROM wall WHERE user_id = 7 ORDER BY date_posted ASC LIMIT 3",
    ];
    for sql in queries {
        let planned = db.execute_sql(sql, &[]).unwrap();
        // Defeat the planner by hiding the predicate under a double
        // negation: conjunct extraction does not descend into NOT, and
        // NOT (NOT p) matches exactly the rows p does under three-valued
        // logic.
        let (pred_part, tail) = match sql.find(" ORDER BY") {
            Some(i) => sql.split_at(i),
            None => (sql, ""),
        };
        let scan_sql = format!(
            "{})){tail}",
            pred_part.replacen("WHERE ", "WHERE NOT (NOT (", 1)
        );
        let scanned = db.execute_sql(&scan_sql, &[]).unwrap();
        assert_eq!(
            db.explain_sql(&scan_sql, &[]).unwrap().base.path,
            AccessPath::TableScan,
            "{scan_sql}"
        );
        let key = |r: &genie_storage::Row| r.values().to_vec();
        let mut a = planned.result.rows.clone();
        let mut b = scanned.result.rows.clone();
        // Unordered queries may differ in row order between paths.
        if !sql.contains("ORDER BY") {
            a.sort_by_key(key);
            b.sort_by_key(key);
        }
        assert_eq!(a, b, "{sql}");
    }
}

#[test]
fn order_by_ties_with_limit_match_full_scan() {
    // Rows tying on the ORDER BY keys must come back in heap (insertion)
    // order whether or not an index exists — the stable sort's tie order
    // — so LIMIT selects the same rows either way. Exercises both the
    // trailing-index-column trap (index (u, d) ordering u-ties by d) and
    // reverse scans (DESC must not flip rid order within equal keys).
    let make = |indexed: bool| {
        let db = Database::default();
        db.execute_sql(
            "CREATE TABLE t (id INT PRIMARY KEY, u INT NOT NULL, d INT)",
            &[],
        )
        .unwrap();
        if indexed {
            db.execute_sql("CREATE INDEX t_u_d ON t (u, d)", &[])
                .unwrap();
            db.execute_sql("CREATE INDEX t_u ON t (u)", &[]).unwrap();
        }
        // Several rows share u = 2, one with d NULL (sorts first in the
        // index); heap order is id order.
        for (id, u, d) in [
            (14i64, 2i64, Value::Null),
            (15, 0, Value::Int(50)),
            (16, 2, Value::Int(9)),
            (17, 2, Value::Int(83)),
            (18, 0, Value::Int(1)),
            (19, 2, Value::Int(9)),
        ] {
            db.execute_sql(
                "INSERT INTO t VALUES ($1, $2, $3)",
                &[Value::Int(id), Value::Int(u), d],
            )
            .unwrap();
        }
        db
    };
    let with_idx = make(true);
    let without_idx = make(false);
    for sql in [
        "SELECT * FROM t WHERE u IN (0, 2) ORDER BY u DESC LIMIT 5",
        "SELECT * FROM t WHERE u IN (0, 2) ORDER BY u ASC LIMIT 3",
        "SELECT * FROM t WHERE u = 2 ORDER BY u LIMIT 2",
        "SELECT * FROM t WHERE u = 2 ORDER BY d DESC LIMIT 2",
        "SELECT * FROM t WHERE u >= 0 ORDER BY u LIMIT 4",
        "SELECT * FROM t WHERE u IN (0, 2)",
    ] {
        let a = with_idx.execute_sql(sql, &[]).unwrap().result.rows;
        let b = without_idx.execute_sql(sql, &[]).unwrap().result.rows;
        assert_eq!(a, b, "{sql} depends on index presence");
    }
}

#[test]
fn explain_displays_readably() {
    let db = wall_db(50);
    let plan = explain(
        &db,
        "SELECT * FROM wall WHERE user_id = 3 AND date_posted >= TS(1004) ORDER BY date_posted",
        &[],
    );
    let text = plan.to_string();
    assert!(text.contains("IndexRange"), "{text}");
    assert!(text.contains("wall_user_date"), "{text}");
    assert!(text.contains("ordered"), "{text}");
}

#[test]
fn empty_in_list_of_nulls_reads_nothing() {
    let db = wall_db(50);
    let out = db
        .execute_sql("SELECT * FROM wall WHERE status IN (NULL)", &[])
        .unwrap();
    assert!(out.result.rows.is_empty());
    assert_eq!(out.cost.rows_scanned, 0);
}

#[test]
fn inverted_range_is_empty_not_panicking() {
    let db = wall_db(50);
    let out = db
        .execute_sql(
            "SELECT * FROM wall WHERE post_id > 40 AND post_id < 10",
            &[],
        )
        .unwrap();
    assert!(out.result.rows.is_empty());
    let out = db
        .execute_sql(
            "SELECT * FROM wall WHERE user_id = 1 AND date_posted BETWEEN TS(1050) AND TS(1000)",
            &[],
        )
        .unwrap();
    assert!(out.result.rows.is_empty());
}

#[test]
fn float_bound_on_int_pk_still_ranges() {
    let db = wall_db(50);
    let out = db
        .execute_sql("SELECT * FROM wall WHERE post_id < 2.5", &[])
        .unwrap();
    assert_eq!(out.result.rows.len(), 3, "0, 1, 2 are below 2.5");
}

#[test]
fn unique_index_equality_is_point_lookup() {
    let db = Database::default();
    db.execute_sql(
        "CREATE TABLE users (id INT PRIMARY KEY, email TEXT UNIQUE)",
        &[],
    )
    .unwrap();
    for i in 0..20i64 {
        db.execute_sql(
            "INSERT INTO users VALUES ($1, $2)",
            &[Value::Int(i), Value::Text(format!("u{i}@x"))],
        )
        .unwrap();
    }
    let sel = Select::star("users").filter(Expr::col("email").eq(Expr::lit("u7@x")));
    let plan = db.explain(&sel, &[]).unwrap();
    assert_eq!(
        plan.base.path,
        AccessPath::IndexScan {
            index: Some("users_email_key".into()),
            eq: vec![Value::Text("u7@x".into())],
            ranges: vec![(Bound::Unbounded, Bound::Unbounded)],
        }
    );
    let out = db.select(&sel, &[]).unwrap();
    assert_eq!(out.result.rows.len(), 1);
    assert_eq!(out.cost.rows_scanned, 1);
}
