//! End-to-end tests of the CacheGenie middleware: declaration,
//! transparent interception, read-through fill, and trigger-based
//! consistency for all four cache classes and all three strategies.

use cachegenie::{
    CacheGenie, CacheableDef, ConsistencyStrategy, GenieConfig, SortOrder, StrictTxnManager,
    TxnOutcome,
};
use genie_cache::{CacheCluster, CacheOrigin, ClusterConfig, Payload};
use genie_orm::{FieldDef, ModelDef, ModelRegistry, OrmSession};
use genie_storage::{Database, StorageError, Value, ValueType};
use std::sync::Arc;

/// The paper's running example domain: users, profiles, wall posts,
/// friendships, group memberships.
fn registry() -> Arc<ModelRegistry> {
    let mut reg = ModelRegistry::new();
    reg.register(
        ModelDef::builder("User", "users")
            .field(FieldDef::new("username", ValueType::Text).not_null())
            .build(),
    )
    .unwrap();
    reg.register(
        ModelDef::builder("Profile", "profiles")
            .foreign_key("user_id", "User")
            .field(FieldDef::new("bio", ValueType::Text))
            .build(),
    )
    .unwrap();
    reg.register(
        ModelDef::builder("WallPost", "wall")
            .foreign_key("user_id", "User")
            .foreign_key("sender_id", "User")
            .field(FieldDef::new("content", ValueType::Text))
            .field(FieldDef::new("date_posted", ValueType::Timestamp).indexed())
            .build(),
    )
    .unwrap();
    reg.register(
        ModelDef::builder("Friendship", "friendships")
            .foreign_key("user_id", "User")
            .foreign_key("friend_id", "User")
            .build(),
    )
    .unwrap();
    reg.register(
        ModelDef::builder("Group", "groups")
            .field(FieldDef::new("title", ValueType::Text).not_null())
            .build(),
    )
    .unwrap();
    reg.register(
        ModelDef::builder("GroupMembership", "membership")
            .foreign_key("user_id", "User")
            .foreign_key("group_id", "Group")
            .build(),
    )
    .unwrap();
    Arc::new(reg)
}

struct Env {
    session: OrmSession,
    genie: CacheGenie,
}

fn env() -> Env {
    env_with(GenieConfig::default())
}

fn env_with(config: GenieConfig) -> Env {
    let reg = registry();
    let db = Database::default();
    reg.sync(&db).unwrap();
    let session = OrmSession::new(db.clone(), Arc::clone(&reg));
    let cluster = CacheCluster::new(ClusterConfig {
        servers: 2,
        ..Default::default()
    });
    let genie = CacheGenie::new(db, cluster, reg, config);
    genie.install(&session);
    for i in 1..=10i64 {
        session
            .create("User", &[("username", format!("user{i}").into())])
            .unwrap();
    }
    Env { session, genie }
}

fn profile_def() -> CacheableDef {
    CacheableDef::feature("cached_user_profile", "Profile").where_fields(&["user_id"])
}

#[test]
fn feature_query_hit_after_fill() {
    let e = env();
    e.genie.cacheable(profile_def()).unwrap();
    e.session
        .create(
            "Profile",
            &[("user_id", 1i64.into()), ("bio", "hello".into())],
        )
        .unwrap();
    let qs = e
        .session
        .objects("Profile")
        .unwrap()
        .filter_eq("user_id", 1i64);
    let miss = e.session.all(&qs).unwrap();
    assert!(!miss.from_cache);
    assert_eq!(miss.rows.len(), 1);
    let hit = e.session.all(&qs).unwrap();
    assert!(hit.from_cache);
    assert!(hit.db_cost.is_empty());
    assert_eq!(hit.rows[0].get("bio"), &Value::Text("hello".into()));
    let stats = e.genie.stats();
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.fills, 1);
}

#[test]
fn feature_update_in_place_keeps_serving_fresh_data_from_cache() {
    let e = env();
    e.genie.cacheable(profile_def()).unwrap();
    let id = e
        .session
        .create(
            "Profile",
            &[("user_id", 1i64.into()), ("bio", "old".into())],
        )
        .unwrap()
        .new_id
        .unwrap();
    let qs = e
        .session
        .objects("Profile")
        .unwrap()
        .filter_eq("user_id", 1i64);
    e.session.all(&qs).unwrap(); // fill

    // The paper's §3.2 example: an UPDATE refreshes the cached entry.
    e.session
        .update_by_id("Profile", id, &[("bio", "new".into())])
        .unwrap();
    let hit = e.session.all(&qs).unwrap();
    assert!(hit.from_cache, "update-in-place must not invalidate");
    assert_eq!(hit.rows[0].get("bio"), &Value::Text("new".into()));
    assert!(e.genie.stats().inplace_updates >= 1);
}

#[test]
fn per_key_precision_only_affected_entry_changes() {
    // The paper's contrast with template-based invalidation: updating
    // user 42's profile must leave user 43's cached entry untouched.
    let e = env();
    e.genie
        .cacheable(profile_def().strategy(ConsistencyStrategy::Invalidate))
        .unwrap();
    for (u, bio) in [(1i64, "a"), (2i64, "b")] {
        e.session
            .create("Profile", &[("user_id", u.into()), ("bio", bio.into())])
            .unwrap();
    }
    let qs1 = e
        .session
        .objects("Profile")
        .unwrap()
        .filter_eq("user_id", 1i64);
    let qs2 = e
        .session
        .objects("Profile")
        .unwrap()
        .filter_eq("user_id", 2i64);
    e.session.all(&qs1).unwrap();
    e.session.all(&qs2).unwrap();
    // Write touching user 1 only.
    e.session
        .update_by_id("Profile", 1, &[("bio", "a2".into())])
        .unwrap();
    let r2 = e.session.all(&qs2).unwrap();
    assert!(r2.from_cache, "user 2's entry must survive user 1's write");
    let r1 = e.session.all(&qs1).unwrap();
    assert!(!r1.from_cache, "user 1's entry was invalidated");
    assert_eq!(r1.rows[0].get("bio"), &Value::Text("a2".into()));
}

#[test]
fn invalidate_strategy_deletes_then_refills() {
    let e = env();
    e.genie
        .cacheable(profile_def().strategy(ConsistencyStrategy::Invalidate))
        .unwrap();
    let id = e
        .session
        .create("Profile", &[("user_id", 1i64.into()), ("bio", "x".into())])
        .unwrap()
        .new_id
        .unwrap();
    let qs = e
        .session
        .objects("Profile")
        .unwrap()
        .filter_eq("user_id", 1i64);
    e.session.all(&qs).unwrap();
    e.session
        .update_by_id("Profile", id, &[("bio", "y".into())])
        .unwrap();
    assert!(e.genie.stats().invalidations >= 1);
    let refill = e.session.all(&qs).unwrap();
    assert!(!refill.from_cache);
    assert_eq!(refill.rows[0].get("bio"), &Value::Text("y".into()));
    assert!(e.session.all(&qs).unwrap().from_cache);
}

#[test]
fn count_query_incremental_updates() {
    let e = env();
    e.genie
        .cacheable(CacheableDef::count("friend_count", "Friendship").where_fields(&["user_id"]))
        .unwrap();
    for f in 2..=4i64 {
        e.session
            .create(
                "Friendship",
                &[("user_id", 1i64.into()), ("friend_id", f.into())],
            )
            .unwrap();
    }
    let qs = e
        .session
        .objects("Friendship")
        .unwrap()
        .filter_eq("user_id", 1i64);
    let (n, out) = e.session.count(&qs).unwrap();
    assert_eq!(n, 3);
    assert!(!out.from_cache);
    // Insert: the cached count is bumped in place, not recomputed.
    let w = e
        .session
        .create(
            "Friendship",
            &[("user_id", 1i64.into()), ("friend_id", 5i64.into())],
        )
        .unwrap();
    assert!(w.db_cost.triggers_fired >= 1);
    let (n, out) = e.session.count(&qs).unwrap();
    assert_eq!(n, 4);
    assert!(out.from_cache);
    // Delete decrements.
    let fr = e
        .session
        .objects("Friendship")
        .unwrap()
        .filter_eq("user_id", 1i64)
        .filter_eq("friend_id", 5i64);
    let (victim, _) = e.session.get(&fr).unwrap();
    e.session
        .delete_by_id("Friendship", victim.unwrap().id())
        .unwrap();
    let (n, out) = e.session.count(&qs).unwrap();
    assert_eq!(n, 3);
    assert!(out.from_cache);
    assert!(e.genie.stats().inplace_updates >= 2);
}

#[test]
fn count_update_moving_key_adjusts_both_counts() {
    let e = env();
    e.genie
        .cacheable(CacheableDef::count("friend_count", "Friendship").where_fields(&["user_id"]))
        .unwrap();
    let fid = e
        .session
        .create(
            "Friendship",
            &[("user_id", 1i64.into()), ("friend_id", 9i64.into())],
        )
        .unwrap()
        .new_id
        .unwrap();
    e.session
        .create(
            "Friendship",
            &[("user_id", 2i64.into()), ("friend_id", 9i64.into())],
        )
        .unwrap();
    let qs1 = e
        .session
        .objects("Friendship")
        .unwrap()
        .filter_eq("user_id", 1i64);
    let qs2 = e
        .session
        .objects("Friendship")
        .unwrap()
        .filter_eq("user_id", 2i64);
    assert_eq!(e.session.count(&qs1).unwrap().0, 1);
    assert_eq!(e.session.count(&qs2).unwrap().0, 1);
    // Move the friendship from user 1 to user 2.
    e.session
        .update_by_id("Friendship", fid, &[("user_id", 2i64.into())])
        .unwrap();
    let (n1, o1) = e.session.count(&qs1).unwrap();
    let (n2, o2) = e.session.count(&qs2).unwrap();
    assert_eq!((n1, n2), (0, 2));
    assert!(
        o1.from_cache && o2.from_cache,
        "both counts updated in place"
    );
}

fn wall_def(k: usize) -> CacheableDef {
    CacheableDef::top_k(
        "latest_wall_posts",
        "WallPost",
        "date_posted",
        SortOrder::Descending,
        k,
    )
    .where_fields(&["user_id"])
    .reserve(2)
}

fn post(e: &Env, user: i64, ts: i64) -> i64 {
    e.session
        .create(
            "WallPost",
            &[
                ("user_id", user.into()),
                ("sender_id", 2i64.into()),
                ("content", format!("post@{ts}").into()),
                ("date_posted", Value::Timestamp(ts)),
            ],
        )
        .unwrap()
        .new_id
        .unwrap()
}

fn wall_qs(e: &Env, user: i64, k: u64) -> genie_orm::QuerySet {
    e.session
        .objects("WallPost")
        .unwrap()
        .filter_eq("user_id", user)
        .order_by("-date_posted")
        .limit(k)
}

#[test]
fn top_k_insert_updates_cached_list_in_place() {
    let e = env();
    e.genie.cacheable(wall_def(3)).unwrap();
    for ts in [10i64, 20, 30, 40] {
        post(&e, 1, ts);
    }
    let qs = wall_qs(&e, 1, 3);
    let fill = e.session.all(&qs).unwrap();
    assert!(!fill.from_cache);
    let ts_of = |rows: &[genie_orm::OrmRow]| -> Vec<i64> {
        rows.iter()
            .map(|r| r.get("date_posted").as_timestamp().unwrap())
            .collect()
    };
    assert_eq!(ts_of(&fill.rows), vec![40, 30, 20]);
    // New newest post: trigger inserts it at the head of the cached list.
    post(&e, 1, 50);
    let hit = e.session.all(&qs).unwrap();
    assert!(hit.from_cache, "insert must be absorbed in place");
    assert_eq!(ts_of(&hit.rows), vec![50, 40, 30]);
    // A middle post: lands at the right position.
    post(&e, 1, 45);
    let hit = e.session.all(&qs).unwrap();
    assert!(hit.from_cache);
    assert_eq!(ts_of(&hit.rows), vec![50, 45, 40]);
}

#[test]
fn top_k_deletes_consume_reserve_then_drop_key() {
    let e = env();
    e.genie.cacheable(wall_def(3)).unwrap(); // capacity 5
    let ids: Vec<i64> = (1..=8).map(|ts| post(&e, 1, ts * 10)).collect();
    let qs = wall_qs(&e, 1, 3);
    e.session.all(&qs).unwrap(); // cache holds ts 80,70,60,50,40 (incomplete)

    // Two deletes eat the reserve but keep >= k cached.
    e.session.delete_by_id("WallPost", ids[7]).unwrap(); // ts 80
    e.session.delete_by_id("WallPost", ids[6]).unwrap(); // ts 70
    let hit = e.session.all(&qs).unwrap();
    assert!(hit.from_cache, "reserve absorbs deletes");
    let ts: Vec<i64> = hit
        .rows
        .iter()
        .map(|r| r.get("date_posted").as_timestamp().unwrap())
        .collect();
    assert_eq!(ts, vec![60, 50, 40]);

    // Third delete leaves len < k with coverage incomplete: key dropped.
    e.session.delete_by_id("WallPost", ids[5]).unwrap(); // ts 60
    assert!(e.genie.stats().key_drops >= 1);
    let refill = e.session.all(&qs).unwrap();
    assert!(!refill.from_cache, "reserve exhausted forces recompute");
    let ts: Vec<i64> = refill
        .rows
        .iter()
        .map(|r| r.get("date_posted").as_timestamp().unwrap())
        .collect();
    assert_eq!(ts, vec![50, 40, 30]);
}

#[test]
fn top_k_complete_list_serves_short_results() {
    let e = env();
    e.genie.cacheable(wall_def(5)).unwrap();
    post(&e, 1, 10);
    post(&e, 1, 20);
    let qs = wall_qs(&e, 1, 5);
    let fill = e.session.all(&qs).unwrap();
    assert_eq!(fill.rows.len(), 2);
    // Deleting from a complete short list keeps serving from cache.
    let all = e
        .session
        .objects("WallPost")
        .unwrap()
        .filter_eq("user_id", 1i64);
    let rows = e.session.all(&all).unwrap();
    // (that read is not the cached template; it passes through)
    let first_id = rows.rows.iter().map(|r| r.id()).min().unwrap();
    e.session.delete_by_id("WallPost", first_id).unwrap();
    let hit = e.session.all(&qs).unwrap();
    assert!(hit.from_cache, "complete list survives below-k deletes");
    assert_eq!(hit.rows.len(), 1);
    // And a new post appends correctly to the complete list.
    post(&e, 1, 30);
    let hit = e.session.all(&qs).unwrap();
    assert!(hit.from_cache);
    assert_eq!(hit.rows.len(), 2);
    assert_eq!(hit.rows[0].get("date_posted").as_timestamp(), Some(30));
}

#[test]
fn top_k_update_repositions_row() {
    let e = env();
    e.genie.cacheable(wall_def(3)).unwrap();
    let id_old = post(&e, 1, 10);
    post(&e, 1, 20);
    post(&e, 1, 30);
    let qs = wall_qs(&e, 1, 3);
    e.session.all(&qs).unwrap();
    // Bump the oldest post to the top.
    e.session
        .update_by_id("WallPost", id_old, &[("date_posted", Value::Timestamp(99))])
        .unwrap();
    let hit = e.session.all(&qs).unwrap();
    assert!(hit.from_cache);
    let ids: Vec<i64> = hit.rows.iter().map(|r| r.id()).collect();
    assert_eq!(ids[0], id_old);
}

#[test]
fn link_query_served_and_maintained() {
    let e = env();
    e.genie
        .cacheable(
            CacheableDef::link("user_groups", "GroupMembership", "Group", "group_id", "id")
                .where_fields(&["user_id"]),
        )
        .unwrap();
    let g1 = e
        .session
        .create("Group", &[("title", "rustaceans".into())])
        .unwrap()
        .new_id
        .unwrap();
    let g2 = e
        .session
        .create("Group", &[("title", "cyclists".into())])
        .unwrap()
        .new_id
        .unwrap();
    e.session
        .create(
            "GroupMembership",
            &[("user_id", 1i64.into()), ("group_id", g1.into())],
        )
        .unwrap();

    let group_model = e.session.registry().model("Group").unwrap().clone();
    let qs = e
        .session
        .objects("GroupMembership")
        .unwrap()
        .join_on(&group_model, "group_id", "id")
        .filter_eq("user_id", 1i64);
    let fill = e.session.all(&qs).unwrap();
    assert!(!fill.from_cache);
    assert_eq!(fill.rows.len(), 1);
    assert_eq!(fill.rows[0].get("title"), &Value::Text("rustaceans".into()));

    // Joining a second group extends the cached list via the trigger.
    e.session
        .create(
            "GroupMembership",
            &[("user_id", 1i64.into()), ("group_id", g2.into())],
        )
        .unwrap();
    let hit = e.session.all(&qs).unwrap();
    assert!(hit.from_cache, "membership insert updated in place");
    assert_eq!(hit.rows.len(), 2);

    // Renaming a group rewrites the joined part in place (target-table
    // UPDATE trigger).
    e.session
        .update_by_id("Group", g1, &[("title", "crustaceans".into())])
        .unwrap();
    let hit = e.session.all(&qs).unwrap();
    assert!(hit.from_cache, "group rename updated in place");
    let titles: Vec<&Value> = hit.rows.iter().map(|r| r.get("title")).collect();
    assert!(
        titles.contains(&&Value::Text("crustaceans".into())),
        "{titles:?}"
    );

    // Leaving a group removes its row from the cached list.
    let m = e
        .session
        .objects("GroupMembership")
        .unwrap()
        .filter_eq("user_id", 1i64)
        .filter_eq("group_id", g1);
    let (row, _) = e.session.get(&m).unwrap();
    e.session
        .delete_by_id("GroupMembership", row.unwrap().id())
        .unwrap();
    let hit = e.session.all(&qs).unwrap();
    assert!(hit.from_cache);
    assert_eq!(hit.rows.len(), 1);
    assert_eq!(hit.rows[0].get("title"), &Value::Text("cyclists".into()));
}

#[test]
fn expire_strategy_has_no_triggers_and_times_out() {
    let e = env();
    let before = e.genie.trigger_count();
    e.genie
        .cacheable(profile_def().strategy(ConsistencyStrategy::Expire { ttl: 1_000 }))
        .unwrap();
    assert_eq!(
        e.genie.trigger_count(),
        before,
        "expire installs no triggers"
    );
    e.session
        .create("Profile", &[("user_id", 1i64.into()), ("bio", "x".into())])
        .unwrap();
    let qs = e
        .session
        .objects("Profile")
        .unwrap()
        .filter_eq("user_id", 1i64);
    e.session.all(&qs).unwrap();
    assert!(e.session.all(&qs).unwrap().from_cache);
    // Writes do NOT refresh the entry (that's the point of this mode)...
    e.session
        .update_by_id("Profile", 1, &[("bio", "stale?".into())])
        .unwrap();
    assert!(e.session.all(&qs).unwrap().from_cache, "stale until expiry");
    // ...until the TTL lapses on the cluster clock.
    e.genie.cluster().set_now(2_000);
    let refreshed = e.session.all(&qs).unwrap();
    assert!(!refreshed.from_cache);
    assert_eq!(refreshed.rows[0].get("bio"), &Value::Text("stale?".into()));
}

#[test]
fn manual_only_objects_do_not_intercept() {
    let e = env();
    e.genie.cacheable(profile_def().manual_only()).unwrap();
    e.session
        .create("Profile", &[("user_id", 1i64.into()), ("bio", "m".into())])
        .unwrap();
    let qs = e
        .session
        .objects("Profile")
        .unwrap()
        .filter_eq("user_id", 1i64);
    e.session.all(&qs).unwrap();
    let second = e.session.all(&qs).unwrap();
    assert!(!second.from_cache, "manual objects never intercept");
    // But explicit evaluate uses the cache.
    let first = e
        .genie
        .evaluate("cached_user_profile", &[Value::Int(1)])
        .unwrap();
    assert!(!first.from_cache);
    let again = e
        .genie
        .evaluate("cached_user_profile", &[Value::Int(1)])
        .unwrap();
    assert!(again.from_cache);
    assert_eq!(again.result.rows.len(), 1);
}

#[test]
fn non_matching_queries_pass_through() {
    let e = env();
    e.genie.cacheable(profile_def()).unwrap();
    // Different shape (no filter): passes through untouched, repeatedly.
    let qs = e.session.objects("Profile").unwrap();
    e.session.all(&qs).unwrap();
    let out = e.session.all(&qs).unwrap();
    assert!(!out.from_cache);
    assert_eq!(out.cache_ops, 0);
}

#[test]
fn own_writes_visible_immediately() {
    // §3.3: "the user sees the effects of her own writes immediately".
    let e = env();
    e.genie.cacheable(wall_def(3)).unwrap();
    let qs = wall_qs(&e, 1, 3);
    post(&e, 1, 10);
    e.session.all(&qs).unwrap();
    post(&e, 1, 20);
    let hit = e.session.all(&qs).unwrap();
    assert!(hit.from_cache);
    assert_eq!(hit.rows[0].get("date_posted").as_timestamp(), Some(20));
}

#[test]
fn duplicate_and_invalid_definitions_rejected() {
    let e = env();
    e.genie.cacheable(profile_def()).unwrap();
    assert!(matches!(
        e.genie.cacheable(profile_def()),
        Err(StorageError::AlreadyExists(_))
    ));
    assert!(e
        .genie
        .cacheable(CacheableDef::feature("bad:name", "Profile").where_fields(&["user_id"]))
        .is_err());
    assert!(e
        .genie
        .cacheable(CacheableDef::feature("no_fields", "Profile"))
        .is_err());
}

#[test]
fn effort_metrics_exposed() {
    let e = env();
    e.genie.cacheable(profile_def()).unwrap();
    e.genie.cacheable(wall_def(20)).unwrap();
    e.genie
        .cacheable(
            CacheableDef::link("user_groups", "GroupMembership", "Group", "group_id", "id")
                .where_fields(&["user_id"]),
        )
        .unwrap();
    assert_eq!(e.genie.object_count(), 3);
    // feature 3 + topk 3 + link 6 triggers
    assert_eq!(e.genie.trigger_count(), 12);
    let lines = e.genie.generated_trigger_lines();
    assert!(
        lines > 12 * 15,
        "generated listings should be substantial, got {lines}"
    );
    assert_eq!(
        e.genie.object_names(),
        vec!["cached_user_profile", "latest_wall_posts", "user_groups"]
    );
}

#[test]
fn reuse_connection_config_removes_connection_cost() {
    let run = |config: GenieConfig| -> u64 {
        let e = env_with(config);
        e.genie.cacheable(wall_def(3)).unwrap();
        e.session.all(&wall_qs(&e, 1, 3)).unwrap();
        let w = e
            .session
            .create(
                "WallPost",
                &[
                    ("user_id", 1i64.into()),
                    ("sender_id", 2i64.into()),
                    ("content", "x".into()),
                    ("date_posted", Value::Timestamp(1)),
                ],
            )
            .unwrap();
        w.db_cost.trigger_connections
    };
    assert!(run(GenieConfig::default()) >= 1);
    assert_eq!(
        run(GenieConfig {
            reuse_trigger_connections: true,
            ..Default::default()
        }),
        0
    );
}

#[test]
fn strict_txn_conflicts_and_abort_cleanup() {
    let e = env();
    e.genie.cacheable(profile_def().manual_only()).unwrap();
    e.session
        .create("Profile", &[("user_id", 1i64.into()), ("bio", "v1".into())])
        .unwrap();
    let mgr = StrictTxnManager::new();

    // Reader blocks writer on the same key.
    let mut t1 = mgr.begin(&e.genie);
    t1.read("cached_user_profile", &[Value::Int(1)]).unwrap();
    let mut t2 = mgr.begin(&e.genie);
    assert!(matches!(
        t2.write_lock("cached_user_profile", &[Value::Int(1)]),
        Err(StorageError::LockTimeout { .. })
    ));
    assert_eq!(t1.commit(), TxnOutcome::Committed);
    // After commit the writer proceeds.
    t2.write_lock("cached_user_profile", &[Value::Int(1)])
        .unwrap();

    // Abort removes written keys from the cache so readers refetch.
    let key_cached_before = e
        .genie
        .evaluate("cached_user_profile", &[Value::Int(1)])
        .unwrap();
    let _ = key_cached_before;
    assert_eq!(t2.abort(), TxnOutcome::Aborted);
    let after = e
        .genie
        .evaluate("cached_user_profile", &[Value::Int(1)])
        .unwrap();
    assert!(!after.from_cache, "aborted writer's key was dropped");
    assert_eq!(mgr.locked_keys(), 0);
}

#[test]
fn strict_txn_deadlock_resolved_by_abort() {
    let e = env();
    e.genie.cacheable(profile_def().manual_only()).unwrap();
    for u in [1i64, 2] {
        e.session
            .create("Profile", &[("user_id", u.into()), ("bio", "x".into())])
            .unwrap();
    }
    let mgr = StrictTxnManager::new();
    let mut t1 = mgr.begin(&e.genie);
    let mut t2 = mgr.begin(&e.genie);
    t1.read("cached_user_profile", &[Value::Int(1)]).unwrap();
    t2.read("cached_user_profile", &[Value::Int(2)]).unwrap();
    // Cross writes: both block — the paper's timeout aborts one.
    assert!(t1
        .write_lock("cached_user_profile", &[Value::Int(2)])
        .is_err());
    assert!(t2
        .write_lock("cached_user_profile", &[Value::Int(1)])
        .is_err());
    t2.abort();
    // With T2 gone, T1 acquires the lock.
    t1.write_lock("cached_user_profile", &[Value::Int(2)])
        .unwrap();
    t1.commit();
    assert_eq!(mgr.locked_keys(), 0);
}

#[test]
fn dropped_txn_releases_locks() {
    let e = env();
    e.genie.cacheable(profile_def().manual_only()).unwrap();
    e.session
        .create("Profile", &[("user_id", 1i64.into()), ("bio", "x".into())])
        .unwrap();
    let mgr = StrictTxnManager::new();
    {
        let mut t = mgr.begin(&e.genie);
        t.read("cached_user_profile", &[Value::Int(1)]).unwrap();
        // Dropped without commit: implicit abort.
    }
    assert_eq!(mgr.locked_keys(), 0);
}

// ---- prepared queries: what is resolved once must follow declarations
// and transactions ----

#[test]
fn object_declared_after_its_shape_ran_as_pass_starts_serving_it() {
    let e = env();
    e.session
        .create("Profile", &[("user_id", 1i64.into()), ("bio", "hi".into())])
        .unwrap();
    let qs = || {
        e.session
            .objects("Profile")
            .unwrap()
            .filter_eq("user_id", 1i64)
    };
    // No object matches yet: the shape resolves to "pass", repeatedly.
    for _ in 0..3 {
        let out = e.session.all(&qs()).unwrap();
        assert!(!out.from_cache);
        assert_eq!(out.cache_ops, 0, "not intercepted");
    }
    // An unrelated declaration must not make it cacheable either.
    e.genie
        .cacheable(CacheableDef::count("wall_count", "WallPost").where_fields(&["user_id"]))
        .unwrap();
    assert_eq!(e.session.all(&qs()).unwrap().cache_ops, 0);

    e.genie
        .cacheable(CacheableDef::feature("profile_by_user", "Profile").where_fields(&["user_id"]))
        .unwrap();
    let miss = e.session.all(&qs()).unwrap();
    assert!(
        !miss.from_cache && miss.cache_ops > 0,
        "fills on first read"
    );
    let hit = e.session.all(&qs()).unwrap();
    assert!(hit.from_cache);
    assert_eq!(hit.rows, miss.rows);
    // The count of the same filter is a different shape: still a pass.
    let (n, out) = e.session.count(&qs()).unwrap();
    assert_eq!((n, out.cache_ops), (1, 0));
}

#[test]
fn shape_first_run_inside_begin_bypasses_the_cache_then_and_is_served_after() {
    let e = env();
    e.genie
        .cacheable(CacheableDef::count("wall_count", "WallPost").where_fields(&["user_id"]))
        .unwrap();
    let db = e.session.database();
    let count = || {
        let qs = e
            .session
            .objects("WallPost")
            .unwrap()
            .filter_eq("user_id", 2i64);
        e.session.count(&qs).unwrap()
    };
    let post = |ts: i64| {
        e.session
            .create(
                "WallPost",
                &[
                    ("user_id", 2i64.into()),
                    ("sender_id", 3i64.into()),
                    ("content", "x".into()),
                    ("date_posted", Value::Timestamp(ts)),
                ],
            )
            .unwrap();
    };
    let bypasses = || e.genie.stats().txn_bypasses;

    // The shape's very first execution happens inside a transaction.
    db.execute_sql("BEGIN", &[]).unwrap();
    post(1);
    let (n, out) = count();
    assert_eq!(n, 1, "reads its own uncommitted write");
    assert!(!out.from_cache);
    assert_eq!(out.cache_ops, 0, "neither probed nor filled");
    assert_eq!(bypasses(), 1);
    db.execute_sql("ROLLBACK", &[]).unwrap();

    // Outside: the same prepared shape is served through the cache.
    let (n, miss) = count();
    assert_eq!(
        n, 0,
        "the rollback left nothing behind, in cache or database"
    );
    assert!(!miss.from_cache && miss.cache_ops > 0);
    assert!(count().1.from_cache);

    // And a later transaction on the now-cached shape still bypasses.
    db.execute_sql("BEGIN", &[]).unwrap();
    post(2);
    let (n, out) = count();
    assert_eq!((n, out.from_cache, out.cache_ops), (1, false, 0));
    assert_eq!(bypasses(), 2);
    db.execute_sql("COMMIT", &[]).unwrap();
    assert_eq!(count().0, 1);
    assert!(e
        .genie
        .verify_coherence("wall_count", &[Value::Int(2)])
        .unwrap());
}

#[test]
fn top_k_update_that_sinks_a_cached_row_below_the_list_leaves_no_stale_copy() {
    let e = env();
    e.genie.cacheable(wall_def(3)).unwrap(); // capacity 5
    let ids: Vec<i64> = (1..=8).map(|ts| post(&e, 1, ts * 10)).collect();
    let qs = wall_qs(&e, 1, 3);
    e.session.all(&qs).unwrap(); // cache holds ts 80,70,60,50,40 (incomplete)

    // The second-newest post is re-dated to below everything cached.
    e.session
        .update_by_id("WallPost", ids[6], &[("date_posted", Value::Timestamp(5))])
        .unwrap();
    let after = e.session.all(&qs).unwrap();
    let ts: Vec<i64> = after
        .rows
        .iter()
        .map(|r| r.get("date_posted").as_timestamp().unwrap())
        .collect();
    assert_eq!(ts, vec![80, 60, 50]);
    assert!(e
        .genie
        .verify_coherence("latest_wall_posts", &[Value::Int(1)])
        .unwrap());
}

/// Flips one bit of the bytes cached under `key`, `offset` bytes in
/// (the payload header is the first 13; frames follow).
fn corrupt_cached(e: &Env, key: &str, offset: usize) -> Vec<u8> {
    let cache = e.genie.cluster().handle(CacheOrigin::Application);
    let mut bytes = cache.get(key).expect("key is cached").to_vec();
    bytes[offset] ^= 0x04;
    cache.set(key, bytes.clone().into(), None).unwrap();
    bytes
}

/// A trigger's append copies the frames it does not change without
/// reading them — so it succeeds over a corrupt frame, re-stamps
/// nothing, and the next read still refuses the payload, drops the key
/// and recomputes from the database.
#[test]
fn append_over_a_corrupt_frame_is_refused_by_the_next_read() {
    let e = env();
    e.genie
        .cacheable(CacheableDef::feature("posts_of", "WallPost").where_fields(&["user_id"]))
        .unwrap();
    for ts in [10i64, 20, 30, 40] {
        post(&e, 1, ts);
    }
    let qs = e
        .session
        .objects("WallPost")
        .unwrap()
        .filter_eq("user_id", 1i64);
    assert_eq!(e.session.all(&qs).unwrap().rows.len(), 4);
    let key = e.genie.key_for("posts_of", &[Value::Int(1)]).unwrap();
    let bad = corrupt_cached(&e, &key, 13 + 40); // inside the second frame
    assert!(Payload::decode(&bad).is_err());

    let before = e.genie.stats();
    post(&e, 1, 50);
    let after = e.genie.stats();
    assert_eq!(after.inplace_updates, before.inplace_updates + 1);
    assert_eq!(after.invalidations, before.invalidations);
    let cache = e.genie.cluster().handle(CacheOrigin::Application);
    let spliced = cache.get(&key).expect("append kept the key");
    assert!(spliced.len() > bad.len());
    assert_eq!(
        spliced[13..bad.len()],
        bad[13..],
        "old frames copied verbatim"
    );
    assert!(Payload::decode(&spliced).is_err(), "not laundered");

    let refill = e.session.all(&qs).unwrap();
    assert!(!refill.from_cache, "corrupt payload is dropped, not served");
    assert_eq!(refill.rows.len(), 5);
    assert!(e.session.all(&qs).unwrap().from_cache);
    assert!(e
        .genie
        .verify_coherence("posts_of", &[Value::Int(1)])
        .unwrap());
}

/// A Top-K insert has to compare against cached rows; when one of those
/// fails its checksum the splice itself errors and the trigger deletes
/// the key.
#[test]
fn top_k_insert_that_must_read_a_corrupt_frame_deletes_the_key() {
    let e = env();
    e.genie.cacheable(wall_def(3)).unwrap();
    for ts in [10i64, 20, 30, 40] {
        post(&e, 1, ts);
    }
    let qs = wall_qs(&e, 1, 3);
    e.session.all(&qs).unwrap();
    let key = e
        .genie
        .key_for("latest_wall_posts", &[Value::Int(1)])
        .unwrap();
    corrupt_cached(&e, &key, 13 + 6); // inside the first frame

    let before = e.genie.stats();
    post(&e, 1, 35); // ranks below the corrupt head row
    let after = e.genie.stats();
    assert_eq!(after.invalidations, before.invalidations + 1);
    assert_eq!(after.inplace_updates, before.inplace_updates);
    let cache = e.genie.cluster().handle(CacheOrigin::Application);
    assert!(cache.get(&key).is_none(), "trigger deleted the key");
    let refill = e.session.all(&qs).unwrap();
    assert!(!refill.from_cache);
    let ts: Vec<i64> = refill
        .rows
        .iter()
        .map(|r| r.get("date_posted").as_timestamp().unwrap())
        .collect();
    assert_eq!(ts, vec![40, 35, 30]);
}
