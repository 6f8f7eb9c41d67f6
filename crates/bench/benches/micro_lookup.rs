//! Criterion micro-bench: raw engine speed of database point lookups vs
//! cache gets (the real-time counterpart of the §5.3 modelled numbers),
//! of an index scan returning a wall's worth of rows, of resolving
//! scattered index entries to their heap rows (before and after vacuum
//! settles their version state), of descending an index
//! of many small keys (a probe, and the insert of a new key), and of
//! prepared `IN` lists on the primary key and under an equality prefix
//! of a composite index, and of serial full scans that no index serves
//! (a predicated `COUNT(*)` and a filtered top-k).

use criterion::{criterion_group, criterion_main, Criterion};
use genie_cache::{CacheCluster, CacheOrigin, ClusterConfig, Payload};
use genie_storage::{Database, DbConfig, Statement, Value};
use std::hint::black_box;

fn bench_lookups(c: &mut Criterion) {
    let db = Database::default();
    db.execute_sql("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)", &[])
        .unwrap();
    for i in 0..10_000i64 {
        db.execute_sql("INSERT INTO t VALUES ($1, 'value')", &[Value::Int(i)])
            .unwrap();
    }
    let cluster = CacheCluster::new(ClusterConfig::default());
    let cache = cluster.handle(CacheOrigin::Application);
    for i in 0..10_000i64 {
        cache
            .set_payload(
                &format!("t:{i}"),
                &Payload::Rows(vec![genie_storage::row![i, "value"]]),
                None,
            )
            .unwrap();
    }

    let mut group = c.benchmark_group("point_lookup");
    group.bench_function("db_pk_select", |b| {
        let mut i = 0i64;
        b.iter(|| {
            i = (i + 7) % 10_000;
            let out = db
                .execute_sql("SELECT * FROM t WHERE id = $1", &[Value::Int(i)])
                .unwrap();
            black_box(out.result.rows.len())
        })
    });
    group.bench_function("cache_get", |b| {
        let mut i = 0i64;
        b.iter(|| {
            i = (i + 7) % 10_000;
            black_box(cache.get_payload(&format!("t:{i}")).unwrap().is_some())
        })
    });
    group.finish();
}

/// `wall_posts`-shaped rows, one text column each.
const WALL_POSTS: i64 = 25_000;
/// Posts per sender: what one `sender_id` probe returns.
const POSTS_PER_SENDER: i64 = 84;

fn bench_index_scan(c: &mut Criterion) {
    let db = Database::default();
    db.execute_sql(
        "CREATE TABLE wall_posts (id INT PRIMARY KEY, user_id INT NOT NULL, \
         sender_id INT NOT NULL, content TEXT, date_posted TIMESTAMP NOT NULL)",
        &[],
    )
    .unwrap();
    db.execute_sql(
        "CREATE INDEX wall_posts_sender ON wall_posts (sender_id)",
        &[],
    )
    .unwrap();
    for id in 0..WALL_POSTS {
        db.execute_sql(
            "INSERT INTO wall_posts VALUES ($1, $2, $3, $4, $5)",
            &[
                Value::Int(id),
                Value::Int(id % 997),
                Value::Int(id / POSTS_PER_SENDER),
                Value::Text(format!("wall post {id}: hello there")),
                Value::Timestamp(1_000 + id),
            ],
        )
        .unwrap();
    }
    let senders = WALL_POSTS / POSTS_PER_SENDER;
    // Prepared once, as the ORM runs a page query.
    let Statement::Select(select) =
        genie_storage::sql::parse("SELECT * FROM wall_posts WHERE sender_id = $1").unwrap()
    else {
        unreachable!("a SELECT parses to a SELECT")
    };
    let by_sender = db.prepare(&select);

    let mut group = c.benchmark_group("index_scan");
    group.bench_function("wall_posts_by_sender_84_rows", |b| {
        let mut s = 0i64;
        b.iter(|| {
            s = (s + 7) % senders;
            let out = db.execute_prepared(&by_sender, &[Value::Int(s)]).unwrap();
            black_box(out.result.rows.len())
        })
    });
    group.finish();
}

/// `friendships`-shaped rows: enough that the heap is large and the rows
/// one key names lie far apart in it.
const FRIENDSHIPS: i64 = 100_000;
/// Distinct `friend_id` values; each names `FRIENDSHIPS / FRIENDS` rows.
const FRIENDS: i64 = 5_000;

fn bench_entry_resolution(c: &mut Criterion) {
    let db = Database::default();
    db.execute_sql(
        "CREATE TABLE friendships (id INT PRIMARY KEY, user_id INT NOT NULL, \
         friend_id INT NOT NULL, added TIMESTAMP NOT NULL)",
        &[],
    )
    .unwrap();
    db.execute_sql(
        "CREATE INDEX friendships_friend ON friendships (friend_id)",
        &[],
    )
    .unwrap();
    db.execute_sql("BEGIN", &[]).unwrap();
    for id in 0..FRIENDSHIPS {
        // Rows are inserted user by user, as the seed does; a friend's
        // rows are spread across the whole heap, one every FRIENDS ids.
        db.execute_sql(
            "INSERT INTO friendships VALUES ($1, $2, $3, $4)",
            &[
                Value::Int(id),
                Value::Int(id / (FRIENDSHIPS / FRIENDS)),
                Value::Int(id * 7_919 % FRIENDS),
                Value::Timestamp(1_000 + id),
            ],
        )
        .unwrap();
    }
    db.execute_sql("COMMIT", &[]).unwrap();
    let prepare = |sql: &str| {
        let Statement::Select(select) = genie_storage::sql::parse(sql).unwrap() else {
            unreachable!("a SELECT parses to a SELECT")
        };
        db.prepare(&select)
    };
    let rows = prepare("SELECT * FROM friendships WHERE friend_id = $1");
    let count = prepare("SELECT COUNT(*) FROM friendships WHERE friend_id = $1");

    let mut group = c.benchmark_group("entry_resolution");
    group.bench_function("friendships_by_friend_20_rows", |b| {
        let mut f = 0i64;
        b.iter(|| {
            f = (f + 7) % FRIENDS;
            let out = db.execute_prepared(&rows, &[Value::Int(f)]).unwrap();
            black_box(out.result.rows.len())
        })
    });
    group.bench_function("friendships_count_by_friend_20_rows", |b| {
        let mut f = 0i64;
        b.iter(|| {
            f = (f + 7) % FRIENDS;
            let out = db.execute_prepared(&count, &[Value::Int(f)]).unwrap();
            black_box(out.result.rows.len())
        })
    });
    // The cases above read rows the seed transaction left unsettled;
    // this one reads them after vacuum has settled every slot.
    db.vacuum();
    assert_eq!(db.version_stats().versioned_rows, 0);
    group.bench_function("settled_by_friend_20_rows", |b| {
        let mut f = 0i64;
        b.iter(|| {
            f = (f + 7) % FRIENDS;
            let out = db.execute_prepared(&rows, &[Value::Int(f)]).unwrap();
            black_box(out.result.rows.len())
        })
    });
    group.finish();
}

/// `friendships`-shaped rows for the descent bench: `USERS` keys of
/// `FRIENDS_PER_USER` rows each.
const USERS: i64 = 5_000;
const FRIENDS_PER_USER: i64 = 9;

fn bench_index_probe(c: &mut Criterion) {
    let db = Database::default();
    db.execute_sql(
        "CREATE TABLE friendships (id INT PRIMARY KEY, user_id INT NOT NULL, \
         friend_id INT NOT NULL, added TIMESTAMP NOT NULL)",
        &[],
    )
    .unwrap();
    db.execute_sql(
        "CREATE INDEX friendships_user ON friendships (user_id)",
        &[],
    )
    .unwrap();
    let insert = "INSERT INTO friendships VALUES ($1, $2, $3, $4)";
    let row = |id: i64, user: i64| {
        [
            Value::Int(id),
            Value::Int(user),
            Value::Int(id * 7_919 % USERS),
            Value::Timestamp(1_000 + id),
        ]
    };
    db.execute_sql("BEGIN", &[]).unwrap();
    for id in 0..USERS * FRIENDS_PER_USER {
        db.execute_sql(insert, &row(id, id / FRIENDS_PER_USER))
            .unwrap();
    }
    db.execute_sql("COMMIT", &[]).unwrap();
    let Statement::Select(select) =
        genie_storage::sql::parse("SELECT * FROM friendships WHERE user_id = $1").unwrap()
    else {
        unreachable!("a SELECT parses to a SELECT")
    };
    let by_user = db.prepare(&select);

    let mut group = c.benchmark_group("index_probe");
    group.bench_function("friendships_by_user_9_rows", |b| {
        // A stride coprime to USERS visits every key in scrambled order,
        // so consecutive probes descend to far-apart leaves.
        let mut u = 0i64;
        b.iter(|| {
            u = (u + 2_919) % USERS;
            let out = db.execute_prepared(&by_user, &[Value::Int(u)]).unwrap();
            black_box(out.result.rows.len())
        })
    });
    group.bench_function("friendships_insert_new_user", |b| {
        let mut id = USERS * FRIENDS_PER_USER;
        b.iter(|| {
            id += 1;
            let out = db.execute_sql(insert, &row(id, id)).unwrap();
            black_box(out.result.rows.len())
        })
    });
    group.finish();
}

/// Rows of the IN-list bench: `GROUPS` values of `a`, `PER_GROUP` values
/// of `b` under each.
const GROUPS: i64 = 1_000;
const PER_GROUP: i64 = 20;

fn bench_in_lists(c: &mut Criterion) {
    let db = Database::default();
    db.execute_sql(
        "CREATE TABLE pairs (id INT PRIMARY KEY, a INT NOT NULL, b INT NOT NULL, v TEXT)",
        &[],
    )
    .unwrap();
    db.execute_sql("CREATE INDEX pairs_a_b ON pairs (a, b)", &[])
        .unwrap();
    let rows = GROUPS * PER_GROUP;
    db.execute_sql("BEGIN", &[]).unwrap();
    for id in 0..rows {
        db.execute_sql(
            "INSERT INTO pairs VALUES ($1, $2, $3, 'value')",
            &[
                Value::Int(id),
                Value::Int(id / PER_GROUP),
                Value::Int(id % PER_GROUP),
            ],
        )
        .unwrap();
    }
    db.execute_sql("COMMIT", &[]).unwrap();
    let prepare = |sql: &str| {
        let Statement::Select(select) = genie_storage::sql::parse(sql).unwrap() else {
            unreachable!("a SELECT parses to a SELECT")
        };
        db.prepare(&select)
    };
    let by_ids = prepare("SELECT * FROM pairs WHERE id IN ($1, $2, $3, $4, $5)");
    let by_a_bs = prepare("SELECT * FROM pairs WHERE a = $1 AND b IN ($2, $3, $4)");

    let mut group = c.benchmark_group("in_list");
    group.bench_function("pk_in_5_keys", |b| {
        let mut i = 0i64;
        b.iter(|| {
            i = (i + 2_919) % rows;
            let keys: Vec<Value> = (0..5).map(|k| Value::Int((i + k * 977) % rows)).collect();
            let out = db.execute_prepared(&by_ids, &keys).unwrap();
            black_box(out.result.rows.len())
        })
    });
    group.bench_function("composite_eq_in_3_keys", |b| {
        let mut g = 0i64;
        b.iter(|| {
            g = (g + 7) % GROUPS;
            let params = [
                Value::Int(g),
                Value::Int(g % PER_GROUP),
                Value::Int((g + 5) % PER_GROUP),
                Value::Int((g + 11) % PER_GROUP),
            ];
            let out = db.execute_prepared(&by_a_bs, &params).unwrap();
            black_box(out.result.rows.len())
        })
    });
    group.finish();
}

/// Rows of the full-scan table: every query walks all of them.
const SCAN_ROWS: i64 = 60_000;

fn bench_full_scan(c: &mut Criterion) {
    let db = Database::new(DbConfig {
        buffer_pool_bytes: 8 * 1024 * 1024,
    });
    db.execute_sql(
        "CREATE TABLE scan_t (id INT PRIMARY KEY, grp INT NOT NULL, val INT NOT NULL)",
        &[],
    )
    .unwrap();
    // xorshift: `grp` has 100 values, `val` is spread over 0..1_000_000;
    // neither is indexed.
    let mut state: i64 = 88172645463325252;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state.rem_euclid(1_000_000)
    };
    for start in (1..=SCAN_ROWS).step_by(2_000) {
        db.execute_sql("BEGIN", &[]).unwrap();
        for id in start..(start + 2_000).min(SCAN_ROWS + 1) {
            db.execute_sql(
                "INSERT INTO scan_t (id, grp, val) VALUES ($1, $2, $3)",
                &[Value::Int(id), Value::Int(next() % 100), Value::Int(next())],
            )
            .unwrap();
        }
        db.execute_sql("COMMIT", &[]).unwrap();
    }
    let prepare = |sql: &str| {
        let Statement::Select(select) = genie_storage::sql::parse(sql).unwrap() else {
            unreachable!("a SELECT parses to a SELECT")
        };
        db.prepare(&select)
    };
    let count = prepare("SELECT COUNT(*) FROM scan_t WHERE val < $1");
    let topk = prepare("SELECT id, val FROM scan_t WHERE grp < $1 ORDER BY val DESC LIMIT 10");
    let half = [Value::Int(500_000)];
    let half_grps = [Value::Int(50)];
    let scanned = db.execute_prepared(&topk, &half_grps).unwrap();
    assert_eq!(scanned.result.rows.len(), 10);
    assert_eq!(scanned.cost.rows_scanned, SCAN_ROWS as u64);

    let mut group = c.benchmark_group("full_scan");
    group.bench_function("count_where_60k_rows", |b| {
        b.iter(|| {
            let out = db.execute_prepared(&count, &half).unwrap();
            black_box(out.result.rows[0].get(0).as_int())
        })
    });
    group.bench_function("topk_where_60k_rows", |b| {
        b.iter(|| {
            let out = db.execute_prepared(&topk, &half_grps).unwrap();
            black_box(out.result.rows.len())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_lookups,
    bench_index_scan,
    bench_entry_resolution,
    bench_index_probe,
    bench_in_lists,
    bench_full_scan
);
criterion_main!(benches);
