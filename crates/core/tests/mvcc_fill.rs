//! The read-through fill path under MVCC snapshot reads.
//!
//! Before MVCC, a fill's database read blocked behind any open writer
//! transaction on the table (table S vs IX), so "read an old value,
//! then a newer commit publishes, then the stale fill lands" could not
//! happen within one table. Snapshot reads remove the blocking — a fill
//! can now read *while* a writer transaction is open — so the fill-lease
//! protocol carries the whole guarantee:
//!
//! 1. the lease is taken **before** the database read, and
//! 2. a commit bumps the database epoch (under the engine latch)
//!    **before** its deferred cache publication runs, and every publish
//!    revokes outstanding leases on its keys (even on a read-miss).
//!
//! Therefore: publish after lease ⇒ the lease is revoked and the stale
//! fill drops; publish before lease ⇒ the read's snapshot already
//! includes the commit and the fill is fresh. Either way a fill built
//! from an old snapshot can never overwrite a newer publish. These
//! tests pin both orderings deterministically.
//!
//! On a durable database a third ordering exists: the lease is taken
//! *after* the commit fired its triggers but *before* its log sync made
//! the epoch visible. The commit's triggers named the key — fencing it
//! until publication — so that fill is refused even for a key the commit
//! found uncached.

use cachegenie::{CacheGenie, CacheableDef, GenieConfig};
use genie_cache::{CacheCluster, CacheOrigin, ClusterConfig, Payload};
use genie_orm::{FieldDef, ModelDef, ModelRegistry, OrmSession};
use genie_storage::wal::WalConfig;
use genie_storage::{Database, DbConfig, Value, ValueType};
use std::sync::mpsc;
use std::sync::Arc;

struct Env {
    db: Database,
    session: OrmSession,
    genie: CacheGenie,
    cluster: CacheCluster,
}

fn env() -> Env {
    env_on(Database::default())
}

fn env_on(db: Database) -> Env {
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
    reg.sync(&db).unwrap();
    let session = OrmSession::new(db.clone(), Arc::clone(&reg));
    let cluster = CacheCluster::new(ClusterConfig::default());
    let genie = CacheGenie::new(db.clone(), cluster.clone(), reg, GenieConfig::default());
    genie.install(&session);
    session
        .create("User", &[("username", "u1".into())])
        .unwrap();
    genie
        .cacheable(CacheableDef::count("wall_count", "WallPost").where_fields(&["user_id"]))
        .unwrap();
    genie
        .cacheable(CacheableDef::feature("wall_posts", "WallPost").where_fields(&["user_id"]))
        .unwrap();
    Env {
        db,
        session,
        genie,
        cluster,
    }
}

fn db_count(db: &Database) -> i64 {
    db.execute_sql("SELECT COUNT(*) FROM wall WHERE user_id = 1", &[])
        .unwrap()
        .result
        .rows[0]
        .get(0)
        .as_int()
        .unwrap()
}

/// Publish-after-lease: a fill whose database read ran at a snapshot
/// older than a concurrent commit is dropped by the revoked lease, and
/// the cache stays coherent with the database.
#[test]
fn stale_snapshot_fill_never_overwrites_a_newer_publish() {
    let e = env();
    let key = e.genie.key_for("wall_count", &[Value::Int(1)]).unwrap();
    let app = e.cluster.handle(CacheOrigin::Application);

    // Writer transaction opens and buffers a post — uncommitted.
    let (pending_tx, pending) = mpsc::channel::<()>();
    let (release_tx, release) = mpsc::channel::<()>();
    let db_w = e.db.clone();
    let sess_w = e.session.clone();
    let writer = std::thread::spawn(move || {
        db_w.execute_sql("BEGIN", &[]).unwrap();
        sess_w
            .create(
                "WallPost",
                &[
                    ("user_id", Value::Int(1)),
                    ("date_posted", Value::Timestamp(100)),
                ],
            )
            .unwrap();
        pending_tx.send(()).unwrap();
        release.recv().unwrap();
        db_w.execute_sql("COMMIT", &[]).unwrap(); // publishes cache effects
    });
    pending.recv().unwrap();

    // Read-through miss path, by hand so the interleaving is exact:
    // lease first, then the database read. Under MVCC the read does NOT
    // block behind the open writer — it sees the old snapshot (0).
    let lease = e.cluster.lease(&key);
    let epoch_at_read = e.db.commit_epoch();
    let stale = db_count(&e.db);
    assert_eq!(stale, 0, "snapshot read sees the pre-commit state");

    // The writer commits and publishes between our read and our fill.
    release_tx.send(()).unwrap();
    writer.join().unwrap();
    assert!(
        e.db.commit_epoch() > epoch_at_read,
        "the commit advanced the epoch before its publication"
    );

    // The stale fill must be dropped: the publish revoked the lease.
    let landed = app
        .fill_payload(&key, &Payload::Count(stale), None, lease)
        .unwrap();
    assert!(!landed, "a fill built from an old snapshot must not land");
    assert!(
        e.genie
            .verify_coherence("wall_count", &[Value::Int(1)])
            .unwrap(),
        "cache agrees with the database after the dropped fill"
    );

    // The normal read path now recomputes the fresh value.
    let out = e.genie.evaluate("wall_count", &[Value::Int(1)]).unwrap();
    assert_eq!(out.result.rows[0].get(0), &Value::Int(1));
}

/// Publish-before-lease: once the commit's epoch is visible, a
/// subsequent lease + read sees the committed state, so the fill is
/// fresh and lands.
#[test]
fn fill_after_publish_reads_the_new_epoch_and_lands() {
    let e = env();
    let key = e.genie.key_for("wall_count", &[Value::Int(1)]).unwrap();
    let app = e.cluster.handle(CacheOrigin::Application);

    e.session
        .create(
            "WallPost",
            &[
                ("user_id", Value::Int(1)),
                ("date_posted", Value::Timestamp(100)),
            ],
        )
        .unwrap();

    let lease = e.cluster.lease(&key);
    let fresh = db_count(&e.db);
    assert_eq!(
        fresh, 1,
        "the read's snapshot includes the publish's commit"
    );
    let landed = app
        .fill_payload(&key, &Payload::Count(fresh), None, lease)
        .unwrap();
    assert!(landed, "a fresh fill lands");
    assert!(e
        .genie
        .verify_coherence("wall_count", &[Value::Int(1)])
        .unwrap());
}

/// A durable database whose every log sync takes `sync_delay_us`.
fn durable_env(name: &str, sync_delay_us: u64) -> (Env, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("genie-mvcc-fill-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let wal = WalConfig {
        sync_delay_us,
        ..WalConfig::default()
    };
    let db = Database::create_durable(&dir, DbConfig::default(), wal).unwrap();
    (env_on(db), dir)
}

/// Fill-during-sync: a writer autocommits a post for a user whose
/// `object` key is not cached, and a read-through of that key runs while
/// the commit's log record syncs — after its triggers fired, before its
/// epoch is visible. The read's snapshot predates the post; the commit
/// fenced the key, so the fill is refused, and after the writer finishes
/// the cache agrees with the database.
fn fill_during_log_sync_is_refused(name: &str, object: &str) {
    let (e, dir) = durable_env(name, 400_000);
    let records = || e.db.wal_stats().unwrap().records;
    let before = records();
    let sess_w = e.session.clone();
    let writer = std::thread::spawn(move || {
        sess_w
            .create(
                "WallPost",
                &[
                    ("user_id", Value::Int(1)),
                    ("date_posted", Value::Timestamp(100)),
                ],
            )
            .unwrap();
    });
    // The record is enqueued under the commit's latch, after its
    // triggers fired; the epoch becomes visible only after the sync.
    while records() == before {
        std::thread::yield_now();
    }
    let epoch = e.db.commit_epoch();
    let read = e.genie.evaluate(object, &[Value::Int(1)]).unwrap();
    assert!(!read.from_cache);
    assert_eq!(
        e.genie.stats().fills_dropped,
        1,
        "the fence refused the fill"
    );
    assert_eq!(
        e.db.commit_epoch(),
        epoch,
        "the read ran inside the writer's log sync"
    );
    writer.join().unwrap();
    assert!(
        e.genie.verify_coherence(object, &[Value::Int(1)]).unwrap(),
        "a fill from the pre-commit snapshot was cached"
    );
    drop(e);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn count_fill_during_durable_commit_sync_is_refused() {
    fill_during_log_sync_is_refused("count", "wall_count");
}

#[test]
fn feature_fill_during_durable_commit_sync_is_refused() {
    fill_during_log_sync_is_refused("feature", "wall_posts");
}
