//! The commit-time effect pipeline under real multi-writer interleaving:
//! a write-conflict loser's buffered cache effects vanish byte-for-byte,
//! and
//! racing committers (plus racing read-through fills) can never leave
//! the cache disagreeing with the database.

use cachegenie::{CacheGenie, CacheableDef, GenieConfig, SortOrder};
use genie_cache::{CacheCluster, CacheOrigin, ClusterConfig};
use genie_orm::{FieldDef, ModelDef, ModelRegistry, OrmSession};
use genie_storage::{Database, StorageError, Value, ValueType};
use std::sync::mpsc;
use std::sync::Arc;

const K: usize = 3;

struct Env {
    db: Database,
    session: OrmSession,
    genie: CacheGenie,
    cluster: CacheCluster,
}

fn env() -> Env {
    let mut reg = ModelRegistry::new();
    reg.register(
        ModelDef::builder("User", "users")
            .field(FieldDef::new("username", ValueType::Text))
            .build(),
    )
    .unwrap();
    reg.register(
        ModelDef::builder("WallPost", "wall")
            .foreign_key("user_id", "User")
            .field(FieldDef::new("date_posted", ValueType::Timestamp).indexed())
            .build(),
    )
    .unwrap();
    let reg = Arc::new(reg);
    let db = Database::default();
    reg.sync(&db).unwrap();
    let session = OrmSession::new(db.clone(), Arc::clone(&reg));
    let cluster = CacheCluster::new(ClusterConfig::default());
    let genie = CacheGenie::new(db.clone(), cluster.clone(), reg, GenieConfig::default());
    genie.install(&session);
    for i in 1..=3i64 {
        session
            .create("User", &[("username", format!("u{i}").into())])
            .unwrap();
    }
    genie
        .cacheable(
            CacheableDef::top_k(
                "wall_topk",
                "WallPost",
                "date_posted",
                SortOrder::Descending,
                K,
            )
            .where_fields(&["user_id"])
            .reserve(2),
        )
        .unwrap();
    genie
        .cacheable(CacheableDef::count("wall_count", "WallPost").where_fields(&["user_id"]))
        .unwrap();
    Env {
        db,
        session,
        genie,
        cluster,
    }
}

fn post(e: &Env, user: i64, ts: i64) {
    e.session
        .create(
            "WallPost",
            &[
                ("user_id", Value::Int(user)),
                ("date_posted", Value::Timestamp(ts)),
            ],
        )
        .unwrap();
}

fn cache_bytes(e: &Env, object: &str, user: i64) -> Option<Vec<u8>> {
    let key = e.genie.key_for(object, &[Value::Int(user)]).unwrap();
    e.cluster
        .handle(CacheOrigin::Application)
        .get(&key)
        .map(|b| b.to_vec())
}

/// Two transactions cross on two `users` rows. The one that reaches for
/// the other's row first fails with `WriteConflict` — it had already
/// buffered wall-post cache effects, and its rollback must leave every
/// cache key byte-identical — while the other commits normally.
#[test]
fn crossing_loser_publishes_nothing_to_the_cache() {
    let e = env();
    post(&e, 2, 10);
    // Warm both objects for user 2 so a loser's flush would overwrite
    // real bytes, not fill an empty key.
    e.genie.evaluate("wall_topk", &[Value::Int(2)]).unwrap();
    e.genie.evaluate("wall_count", &[Value::Int(2)]).unwrap();
    let topk_before = cache_bytes(&e, "wall_topk", 2).expect("warmed");
    let count_before = cache_bytes(&e, "wall_count", 2).expect("warmed");
    let posts_before = e.db.row_count("wall").unwrap();

    let (t2_done, main_sees) = mpsc::channel::<()>();

    // T1 on the main thread: writes users row 1.
    e.db.execute_sql("BEGIN", &[]).unwrap();
    e.db.execute_sql("UPDATE users SET username = 'w' WHERE id = 1", &[])
        .unwrap();

    let db2 = e.db.clone();
    let session2 = e.session.clone();
    let t2 = std::thread::spawn(move || {
        // T2: buffers a wall post for user 2 (cache effects pending at
        // commit), writes users row 2, then reaches for row 1, which T1
        // wrote: it fails at once and rolls back.
        db2.execute_sql("BEGIN", &[]).unwrap();
        session2
            .create(
                "WallPost",
                &[
                    ("user_id", Value::Int(2)),
                    ("date_posted", Value::Timestamp(99)),
                ],
            )
            .unwrap();
        db2.execute_sql("UPDATE users SET username = 'x' WHERE id = 2", &[])
            .unwrap();
        let r = db2.execute_sql("UPDATE users SET username = 'x' WHERE id = 1", &[]);
        db2.execute_sql("ROLLBACK", &[]).unwrap();
        t2_done.send(()).unwrap();
        r
    });

    // T1 reaches for row 2 once the loser has rolled back, and commits.
    main_sees.recv().unwrap();
    let survivor =
        e.db.execute_sql("UPDATE users SET username = 'w' WHERE id = 2", &[])
            .and_then(|_| e.db.execute_sql("COMMIT", &[]));
    let loser = t2.join().unwrap();
    assert!(
        matches!(loser, Err(StorageError::WriteConflict { .. })),
        "T2 must fail with WriteConflict: {loser:?}"
    );
    assert!(survivor.is_ok(), "T1 must commit: {survivor:?}");
    assert_eq!(e.db.lock_stats().deadlocks, 0);
    let names =
        e.db.execute_sql("SELECT username FROM users WHERE id <= 2 ORDER BY id", &[])
            .unwrap();
    assert_eq!(
        names
            .result
            .rows
            .iter()
            .map(|r| r.get(0).clone())
            .collect::<Vec<_>>(),
        vec![Value::Text("w".into()), Value::Text("w".into())],
        "the survivor's writes landed"
    );
    assert_eq!(
        e.db.row_count("wall").unwrap(),
        posts_before,
        "insert undone"
    );
    assert_eq!(
        cache_bytes(&e, "wall_topk", 2).as_ref(),
        Some(&topk_before),
        "loser left the top-k cache byte-identical"
    );
    assert_eq!(
        cache_bytes(&e, "wall_count", 2).as_ref(),
        Some(&count_before),
        "loser left the count cache byte-identical"
    );
    assert!(e
        .genie
        .verify_coherence("wall_topk", &[Value::Int(2)])
        .unwrap());
    assert!(e
        .genie
        .verify_coherence("wall_count", &[Value::Int(2)])
        .unwrap());
}

/// Many writers committing into the same cache keys while readers race
/// read-through fills: after the dust settles, cache and database agree
/// on every object (flush-gate ordering + fill leases).
#[test]
fn racing_committers_and_fills_stay_coherent() {
    let e = env();
    let writers = 4;
    let per = 25;
    let barrier = Arc::new(std::sync::Barrier::new(writers + 1));
    let mut handles = Vec::new();
    for w in 0..writers {
        let session = e.session.clone();
        let db = e.db.clone();
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            for i in 0..per {
                db.execute_sql("BEGIN", &[]).unwrap();
                session
                    .create(
                        "WallPost",
                        &[
                            ("user_id", Value::Int(1)),
                            ("date_posted", Value::Timestamp((w * per + i) as i64)),
                        ],
                    )
                    .unwrap();
                db.execute_sql("COMMIT", &[]).unwrap();
            }
        }));
    }
    // A racing reader repeatedly serving (and on miss re-filling) the
    // same objects through the cache.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let genie_r = e.genie.clone();
    let stop_r = Arc::clone(&stop);
    let reader = std::thread::spawn(move || {
        while !stop_r.load(std::sync::atomic::Ordering::Relaxed) {
            let _ = genie_r.evaluate("wall_topk", &[Value::Int(1)]);
            let _ = genie_r.evaluate("wall_count", &[Value::Int(1)]);
        }
    });
    barrier.wait();
    for h in handles {
        h.join().unwrap();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    reader.join().unwrap();

    assert_eq!(e.db.row_count("wall").unwrap(), writers * per);
    assert!(
        e.genie
            .verify_coherence("wall_topk", &[Value::Int(1)])
            .unwrap(),
        "top-k cache diverged from the database"
    );
    assert!(
        e.genie
            .verify_coherence("wall_count", &[Value::Int(1)])
            .unwrap(),
        "count cache diverged from the database"
    );
}
