//! Whole-query planner tests: joins planned in statement order, probe
//! method choice, ORDER BY survival across single-row joins, LIMIT-aware
//! early termination, the `a = ? AND b IN (...)` multi-range path, and
//! prefix-count cost estimates — plus property tests that every planned
//! join returns row-sets identical to the index-free nested-loop
//! baseline.

use genie_storage::plan::{AccessPath, Bound};
use genie_storage::{
    ColumnDef, Database, Expr, IndexDef, Row, Select, TableRef, TableSchema, Value, ValueType,
};
use proptest::prelude::*;

/// authors (10 rows) and posts (300 rows, FK author_id, composite
/// (author_id, created) index).
fn blog_db(indexed: bool) -> Database {
    let db = Database::default();
    db.execute_sql("CREATE TABLE authors (id INT PRIMARY KEY, name TEXT)", &[])
        .unwrap();
    db.execute_sql(
        "CREATE TABLE posts (id INT PRIMARY KEY, author_id INT NOT NULL, \
         created TIMESTAMP NOT NULL, score INT NOT NULL)",
        &[],
    )
    .unwrap();
    if indexed {
        db.execute_sql(
            "CREATE INDEX posts_author_created ON posts (author_id, created)",
            &[],
        )
        .unwrap();
        db.execute_sql("CREATE INDEX posts_score ON posts (score)", &[])
            .unwrap();
    }
    for a in 0..10i64 {
        db.execute_sql(
            "INSERT INTO authors VALUES ($1, $2)",
            &[Value::Int(a), Value::Text(format!("a{a}"))],
        )
        .unwrap();
    }
    for p in 0..300i64 {
        db.execute_sql(
            "INSERT INTO posts VALUES ($1, $2, $3, $4)",
            &[
                Value::Int(p),
                Value::Int(p % 10),
                Value::Timestamp(1000 + p),
                Value::Int(p % 7),
            ],
        )
        .unwrap();
    }
    db
}

fn sorted_rows(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by_key(|r| r.values().to_vec());
    rows
}

#[test]
fn join_is_planned_in_statement_order() {
    let db = blog_db(true);
    // The WHERE pins posts.id, but the statement puts authors in FROM:
    // authors drives and posts is the joined step, as written.
    let sql = "SELECT * FROM authors JOIN posts ON posts.author_id = authors.id \
               WHERE posts.id = 5";
    let plan = db.explain_sql(sql, &[]).unwrap();
    assert_eq!(plan.base.table, "authors", "FROM drives: {plan}");
    assert_eq!(plan.base_binding, "authors", "{plan}");
    assert_eq!(plan.joins.len(), 1);
    assert_eq!(plan.joins[0].table, "posts", "{plan}");

    // The one row comes back with authors columns first.
    let out = db.execute_sql(sql, &[]).unwrap();
    assert_eq!(out.result.rows.len(), 1);
    let row = &out.result.rows[0];
    assert_eq!(row.get(0), &Value::Int(5), "authors.id of post 5's author");
    assert_eq!(row.get(2), &Value::Int(5), "posts.id");
    let base = blog_db(false).execute_sql(sql, &[]).unwrap();
    assert_eq!(out.result.rows, base.result.rows);
}

#[test]
fn join_order_costing_prefers_filtered_driving_table() {
    let db = blog_db(true);
    // Equality on posts.author_id (30 rows): posts, in FROM, drives
    // through its index, so the measured plan beats a cartesian scan, and
    // the join method must be an index or pk probe, never NestedScan.
    let sql = "SELECT * FROM posts JOIN authors ON authors.id = posts.author_id \
               WHERE posts.author_id = 3";
    let plan = db.explain_sql(sql, &[]).unwrap();
    for j in &plan.joins {
        assert_ne!(j.method.kind(), "NestedScan", "{plan}");
    }
    let out = db.execute_sql(sql, &[]).unwrap();
    assert_eq!(out.result.rows.len(), 30);
    assert!(
        out.cost.rows_scanned <= 61,
        "30 posts + 30 author probes + base, got {}",
        out.cost.rows_scanned
    );
}

#[test]
fn order_by_survives_single_row_join() {
    let db = blog_db(true);
    // Ordered index scan on posts + pk probe into authors: the pipeline
    // emits exactly one row per post in index order, so the sort is
    // skipped and rows come back newest-first.
    let sql = "SELECT * FROM posts JOIN authors ON authors.id = posts.author_id \
               WHERE posts.author_id = 4 ORDER BY posts.created DESC";
    let plan = db.explain_sql(sql, &[]).unwrap();
    assert!(plan.order_satisfied, "{plan}");
    assert!(plan.joins.iter().all(|j| j.single_row), "{plan}");
    let out = db.execute_sql(sql, &[]).unwrap();
    assert_eq!(out.cost.sorts, 0, "index order must skip the sort");
    let ts: Vec<i64> = out
        .result
        .rows
        .iter()
        .map(|r| r.get(2).as_timestamp().unwrap())
        .collect();
    let mut expect = ts.clone();
    expect.sort_by(|a, b| b.cmp(a));
    assert_eq!(ts, expect);
    assert_eq!(ts.len(), 30);
}

#[test]
fn order_does_not_survive_multi_row_join() {
    let db = blog_db(true);
    // Reverse join fanning out (one author row -> 30 posts): the base
    // order on authors cannot be claimed, so the executor sorts — and the
    // result matches the index-free baseline exactly.
    let sql = "SELECT * FROM authors JOIN posts ON posts.author_id = authors.id \
               WHERE posts.score = 3 ORDER BY posts.created ASC";
    let plan = db.explain_sql(sql, &[]).unwrap();
    assert!(!plan.order_satisfied, "{plan}");
    let a = db.execute_sql(sql, &[]).unwrap();
    assert_eq!(a.cost.sorts, 1);
    let b = blog_db(false).execute_sql(sql, &[]).unwrap();
    assert_eq!(a.result.rows, b.result.rows, "order must match baseline");
}

#[test]
fn top_k_ordered_scan_stops_after_k_rows() {
    let db = blog_db(true);
    // Author 2 owns 30 posts; LIMIT 5 with an order-satisfying plan must
    // stop the scan after 5 rows instead of materializing all 30 — the
    // CostReport counters are the proof.
    let sql = "SELECT * FROM posts WHERE author_id = 2 \
               ORDER BY created DESC LIMIT 5";
    let plan = db.explain_sql(sql, &[]).unwrap();
    assert!(plan.order_satisfied, "{plan}");
    assert_eq!(plan.fetch_limit, Some(5), "{plan}");
    let out = db.execute_sql(sql, &[]).unwrap();
    assert_eq!(out.result.rows.len(), 5);
    assert_eq!(
        out.cost.rows_scanned, 5,
        "ordered scan must terminate after LIMIT rows"
    );
    assert_eq!(out.cost.sorts, 0);
    // Same rows as the index-free engine (which scans everything).
    let base = blog_db(false).execute_sql(sql, &[]).unwrap();
    assert!(base.cost.rows_scanned >= 300);
    assert_eq!(out.result.rows, base.result.rows);
}

#[test]
fn top_k_early_stop_survives_single_row_joins() {
    let db = blog_db(true);
    // The join pipeline preserves order (pk probe), so the LIMIT still
    // bounds the base scan: 5 posts + 5 author probes.
    let sql = "SELECT * FROM posts JOIN authors ON authors.id = posts.author_id \
               WHERE posts.author_id = 2 ORDER BY posts.created DESC LIMIT 5";
    let plan = db.explain_sql(sql, &[]).unwrap();
    assert!(plan.order_satisfied, "{plan}");
    assert_eq!(plan.fetch_limit, Some(5), "{plan}");
    let out = db.execute_sql(sql, &[]).unwrap();
    assert_eq!(out.result.rows.len(), 5);
    assert_eq!(
        out.cost.rows_scanned, 10,
        "5 base rows + 5 joined rows, got {}",
        out.cost.rows_scanned
    );
    let base = blog_db(false).execute_sql(sql, &[]).unwrap();
    assert_eq!(out.result.rows, base.result.rows);
}

#[test]
fn unordered_limit_also_stops_early() {
    let db = blog_db(true);
    // No ORDER BY: any-k semantics still must match the heap-order
    // contract, but the scan may stop at k.
    let sql = "SELECT * FROM posts WHERE score = 3 LIMIT 4";
    let out = db.execute_sql(sql, &[]).unwrap();
    assert_eq!(out.result.rows.len(), 4);
    assert!(
        out.cost.rows_scanned <= 4,
        "unordered LIMIT must stop early, scanned {}",
        out.cost.rows_scanned
    );
    let base = blog_db(false).execute_sql(sql, &[]).unwrap();
    assert_eq!(out.result.rows, base.result.rows);
}

#[test]
fn eq_prefix_plus_in_uses_multi_range_scan() {
    let db = Database::default();
    db.execute_sql(
        "CREATE TABLE ev (id INT PRIMARY KEY, user_id INT NOT NULL, kind INT NOT NULL, \
         note TEXT)",
        &[],
    )
    .unwrap();
    db.execute_sql("CREATE INDEX ev_user_kind ON ev (user_id, kind)", &[])
        .unwrap();
    // 40 users x 20 rows, kinds cycling 0..9 within each user, so
    // `kind IN (1, 7)` keeps 4 of a user's 20 rows — the multi-range
    // scan must beat the bare user_id prefix scan.
    for i in 0..800i64 {
        db.execute_sql(
            "INSERT INTO ev VALUES ($1, $2, $3, $4)",
            &[
                Value::Int(i),
                Value::Int(i % 40),
                Value::Int((i / 40) % 10),
                Value::Text(format!("n{i}")),
            ],
        )
        .unwrap();
    }
    let sql = "SELECT * FROM ev WHERE user_id = 11 AND kind IN (1, 7)";
    let plan = db.explain_sql(sql, &[]).unwrap();
    assert_eq!(
        plan.base.path,
        AccessPath::IndexScan {
            index: Some("ev_user_kind".into()),
            eq: vec![Value::Int(11)],
            ranges: vec![
                (
                    Bound::Included(Value::Int(1)),
                    Bound::Included(Value::Int(1))
                ),
                (
                    Bound::Included(Value::Int(7)),
                    Bound::Included(Value::Int(7))
                ),
            ],
        },
        "{plan}"
    );
    let out = db.execute_sql(sql, &[]).unwrap();
    assert_eq!(out.result.rows.len(), 4);
    assert_eq!(
        out.cost.rows_scanned, 4,
        "multi-range scan reads only matching rows"
    );
    assert_eq!(out.cost.index_probes, 2, "one probe per IN key");

    // Order satisfaction: sorted IN keys + trailing coverage yields
    // (kind) order under the pinned user_id prefix.
    let sql = "SELECT * FROM ev WHERE user_id = 11 AND kind IN (7, 1) ORDER BY kind ASC";
    let plan = db.explain_sql(sql, &[]).unwrap();
    assert!(plan.order_satisfied, "{plan}");
    let out = db.execute_sql(sql, &[]).unwrap();
    assert_eq!(out.cost.sorts, 0);
    let kinds: Vec<i64> = out
        .result
        .rows
        .iter()
        .map(|r| r.get(2).as_int().unwrap())
        .collect();
    assert_eq!(kinds, vec![1, 1, 7, 7]);
}

#[test]
fn wide_in_list_falls_back_to_single_probe_prefix_scan() {
    // Same shape as above, but the IN list covers every kind: k probes
    // buy nothing over one prefix scan of the same 20-row block, so the
    // prefix path must stay in the running and win on cost.
    let db = Database::default();
    db.execute_sql(
        "CREATE TABLE ev (id INT PRIMARY KEY, user_id INT NOT NULL, kind INT NOT NULL)",
        &[],
    )
    .unwrap();
    db.execute_sql("CREATE INDEX ev_user_kind ON ev (user_id, kind)", &[])
        .unwrap();
    for i in 0..800i64 {
        db.execute_sql(
            "INSERT INTO ev VALUES ($1, $2, $3)",
            &[Value::Int(i), Value::Int(i % 40), Value::Int((i / 40) % 10)],
        )
        .unwrap();
    }
    let sql = "SELECT * FROM ev WHERE user_id = 11 AND kind IN (0,1,2,3,4,5,6,7,8,9)";
    let plan = db.explain_sql(sql, &[]).unwrap();
    assert_eq!(
        plan.base.path,
        AccessPath::IndexScan {
            index: Some("ev_user_kind".into()),
            eq: vec![Value::Int(11)],
            ranges: vec![(Bound::Unbounded, Bound::Unbounded)],
        },
        "{plan}"
    );
    let out = db.execute_sql(sql, &[]).unwrap();
    assert_eq!(out.result.rows.len(), 20);
    assert_eq!(out.cost.index_probes, 1, "one probe, not one per IN key");
}

#[test]
fn prefix_cardinality_uses_exact_prefix_counts_not_geometric_guess() {
    let db = Database::default();
    // Composite (a, b) index where a has 5 distinct values but b has 200:
    // the geometric guess for prefix `a` would be sqrt(1000) ~ 32 keys
    // (rows ~ 31); the index's exact prefix count knows it is 5 (rows
    // ~ 200, read through the bands as 1024 / 4).
    db.execute_sql(
        "CREATE TABLE g (id INT PRIMARY KEY, a INT NOT NULL, b INT NOT NULL)",
        &[],
    )
    .unwrap();
    db.execute_sql("CREATE INDEX g_ab ON g (a, b)", &[])
        .unwrap();
    for i in 0..1000i64 {
        db.execute_sql(
            "INSERT INTO g VALUES ($1, $2, $3)",
            &[Value::Int(i), Value::Int(i % 5), Value::Int(i % 200)],
        )
        .unwrap();
    }
    let plan = db.explain_sql("SELECT * FROM g WHERE a = 3", &[]).unwrap();
    assert_eq!(
        plan.base.path,
        AccessPath::IndexScan {
            index: Some("g_ab".into()),
            eq: vec![Value::Int(3)],
            ranges: vec![(Bound::Unbounded, Bound::Unbounded)],
        }
    );
    assert!(
        (150.0..=260.0).contains(&plan.base.estimated_rows),
        "prefix-count estimate ~200, got {}",
        plan.base.estimated_rows
    );
}

#[test]
fn explain_statement_returns_plan_rows() {
    let db = blog_db(true);
    let out = db
        .execute_sql(
            "EXPLAIN SELECT * FROM posts JOIN authors ON authors.id = posts.author_id \
             WHERE posts.author_id = 1 ORDER BY posts.created DESC LIMIT 3",
            &[],
        )
        .unwrap();
    assert_eq!(*out.result.columns, ["QUERY PLAN"]);
    let text: Vec<String> = out
        .result
        .rows
        .iter()
        .map(|r| r.get(0).to_string())
        .collect();
    let joined = text.join("\n");
    assert!(joined.contains("posts_author_created"), "{joined}");
    assert!(joined.contains("PkProbe(authors)"), "{joined}");
    assert!(joined.contains("ordered"), "{joined}");
    assert!(joined.contains("fetch_limit=3"), "{joined}");
    // EXPLAIN itself executes nothing.
    assert_eq!(out.cost.rows_scanned, 0);
}

#[test]
fn unqualified_ambiguous_where_pins_syntactic_resolution() {
    let db = blog_db(true);
    // `id` exists in both tables; the executor resolves it to authors
    // (syntactic first match), so `id = 5` must constrain the driving
    // authors scan, never posts — author 5's 30 posts must all come back.
    let sql = "SELECT * FROM authors JOIN posts ON posts.author_id = authors.id \
               WHERE id = 5";
    let plan = db.explain_sql(sql, &[]).unwrap();
    assert_eq!(
        plan.base.table, "authors",
        "ambiguous WHERE pins the syntactic order: {plan}"
    );
    let out = db.execute_sql(sql, &[]).unwrap();
    assert_eq!(out.result.rows.len(), 30);
    let base = blog_db(false).execute_sql(sql, &[]).unwrap();
    assert_eq!(sorted_rows(out.result.rows), sorted_rows(base.result.rows));
}

#[test]
fn unqualified_on_column_shared_with_left_table_is_not_a_probe_key() {
    // Both tables carry a column `k`; `ON k = l.id` resolves `k` to the
    // *left* table (executor first-match), so it is a left-side filter,
    // not an equi-join key — probing r's index on k would drop rows, and
    // results would depend on index presence.
    let make = |indexed: bool| {
        let db = Database::default();
        db.execute_sql("CREATE TABLE l (id INT PRIMARY KEY, k INT NOT NULL)", &[])
            .unwrap();
        db.execute_sql("CREATE TABLE r (rid INT PRIMARY KEY, k INT NOT NULL)", &[])
            .unwrap();
        if indexed {
            db.execute_sql("CREATE INDEX r_k ON r (k)", &[]).unwrap();
        }
        for (id, k) in [(1i64, 1i64), (2, 5), (3, 3)] {
            db.execute_sql(
                "INSERT INTO l VALUES ($1, $2)",
                &[Value::Int(id), Value::Int(k)],
            )
            .unwrap();
        }
        for (rid, k) in [(10i64, 1i64), (11, 2), (12, 3), (13, 9)] {
            db.execute_sql(
                "INSERT INTO r VALUES ($1, $2)",
                &[Value::Int(rid), Value::Int(k)],
            )
            .unwrap();
        }
        db
    };
    let sql = "SELECT * FROM l JOIN r ON k = l.id";
    let with_idx = make(true).execute_sql(sql, &[]).unwrap();
    let without_idx = make(false).execute_sql(sql, &[]).unwrap();
    // l.k = l.id holds for rows 1 and 3 -> each pairs with all 4 r rows.
    assert_eq!(with_idx.result.rows.len(), 8);
    assert_eq!(
        sorted_rows(with_idx.result.rows),
        sorted_rows(without_idx.result.rows),
        "index presence must never change join results"
    );
}

#[test]
fn left_joins_keep_syntactic_order_and_pad_nulls() {
    let db = blog_db(true);
    // An author with no posts in score band 99: LEFT JOIN must null-pad
    // every author, which only the written order (authors driving) does.
    let sql = "SELECT * FROM authors LEFT JOIN posts \
               ON posts.author_id = authors.id AND posts.score = 99";
    let plan = db.explain_sql(sql, &[]).unwrap();
    assert_eq!(plan.base.table, "authors", "the FROM table drives");
    let out = db.execute_sql(sql, &[]).unwrap();
    assert_eq!(out.result.rows.len(), 10, "one padded row per author");
    assert!(out.result.rows.iter().all(|r| r.get(2).is_null()));
    let base = blog_db(false).execute_sql(sql, &[]).unwrap();
    assert_eq!(sorted_rows(out.result.rows), sorted_rows(base.result.rows));
}

// ---------------------------------------------------------------------
// Property tests: every planned join/method returns the nested-loop rows.
// ---------------------------------------------------------------------

fn two_table_db(indexed: bool, users: &[(i64, i64)], items: &[(i64, i64, i64)]) -> Database {
    let db = Database::default();
    db.create_table(
        TableSchema::builder("u")
            .pk("id")
            .column(ColumnDef::new("grp", ValueType::Int))
            .build()
            .unwrap(),
    )
    .unwrap();
    db.create_table(
        TableSchema::builder("it")
            .pk("id")
            .column(ColumnDef::new("uid", ValueType::Int))
            .column(ColumnDef::new("v", ValueType::Int))
            .build()
            .unwrap(),
    )
    .unwrap();
    if indexed {
        db.create_index(
            "it",
            IndexDef {
                name: "it_uid".into(),
                columns: vec!["uid".into()],
                unique: false,
            },
        )
        .unwrap();
        db.create_index(
            "u",
            IndexDef {
                name: "u_grp".into(),
                columns: vec!["grp".into()],
                unique: false,
            },
        )
        .unwrap();
    }
    for (id, grp) in users {
        let _ = db.execute_sql(
            "INSERT INTO u VALUES ($1, $2)",
            &[Value::Int(*id), Value::Int(*grp)],
        );
    }
    for (id, uid, v) in items {
        let _ = db.execute_sql(
            "INSERT INTO it VALUES ($1, $2, $3)",
            &[Value::Int(*id), Value::Int(*uid), Value::Int(*v)],
        );
    }
    db
}

fn join_select(filter_grp: i64, filter_v: Option<i64>) -> (Select, Vec<Value>) {
    let mut sel = Select::star("u").join(
        TableRef::new("it"),
        Expr::qcol("it", "uid").eq(Expr::qcol("u", "id")),
    );
    let mut pred = Expr::qcol("u", "grp").eq(Expr::Param(0));
    let mut params = vec![Value::Int(filter_grp)];
    if let Some(v) = filter_v {
        params.push(Value::Int(v));
        pred = pred.and(Expr::qcol("it", "v").eq(Expr::Param(1)));
    }
    sel = sel.filter(pred);
    (sel, params)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The join is planned in statement order, and whatever probe method
    /// the planner picks, the row *set* must equal the index-free
    /// nested-loop baseline's. With `v`, the WHERE equality `it.v = $2`
    /// on the joined table is left to the residual filter.
    #[test]
    fn planned_joins_match_nested_loop_baseline(
        users in proptest::collection::vec((0..20i64, 0..4i64), 1..20),
        items in proptest::collection::vec((0..60i64, 0..25i64, 0..5i64), 0..60),
        grp in 0..4i64,
        v in proptest::option::of(0..5i64),
    ) {
        let fast = two_table_db(true, &users, &items);
        let slow = two_table_db(false, &users, &items);
        let (sel, params) = join_select(grp, v);
        let plan = fast.explain(&sel, &params).unwrap();
        prop_assert_eq!(&plan.base_binding, sel.from.binding_name());
        prop_assert_eq!(plan.joins.len(), sel.joins.len());
        for (step, join) in plan.joins.iter().zip(&sel.joins) {
            prop_assert_eq!(&step.binding, join.table.binding_name());
        }
        let a = fast.select(&sel, &params).unwrap();
        let b = slow.select(&sel, &params).unwrap();
        prop_assert_eq!(
            sorted_rows(a.result.rows),
            sorted_rows(b.result.rows),
            "planned join method changed the row set"
        );
    }

    /// Ordered joined queries return *sequences* identical to the
    /// baseline, with or without indexes (order survival must never
    /// change visible order, only skip the sort).
    #[test]
    fn ordered_joins_match_baseline_sequence(
        users in proptest::collection::vec((0..12i64, 0..3i64), 1..12),
        items in proptest::collection::vec((0..40i64, 0..15i64, 0..4i64), 0..40),
        uid in 0..12i64,
    ) {
        let fast = two_table_db(true, &users, &items);
        let slow = two_table_db(false, &users, &items);
        // it filtered by uid, ordered by v, pk-joined to u.
        let sql = "SELECT * FROM it JOIN u ON u.id = it.uid \
                   WHERE it.uid = $1 ORDER BY it.v ASC, it.id ASC LIMIT 7";
        let a = fast.execute_sql(sql, &[Value::Int(uid)]).unwrap();
        let b = slow.execute_sql(sql, &[Value::Int(uid)]).unwrap();
        prop_assert_eq!(a.result.rows, b.result.rows);
    }
}
