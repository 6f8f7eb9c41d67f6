//! Differential test of the prepare-once read path.
//!
//! Two identical deployments run the same sequence of statements. On the
//! first, every query runs twice over: through the app's own page handle
//! ([`SocialApp::page_queries`]), and — for every distinct query set
//! behind those handles, as `all` and as `count` — through the session's
//! ad-hoc [`genie_orm::OrmSession::all`]/[`genie_orm::OrmSession::count`].
//! Both reach the engine statement's kept binding and — while the data
//! allows — kept plan. On the second, every statement runs on a
//! [`PreparedSelect`] made for that one call, so it is bound and planned
//! from scratch with exactly the call's parameters. Results, physical
//! cost (both buffer pools see the same page touches in the same order)
//! and reported plans must be equal, over 200 seeded users, with write
//! pages in between that invalidate what is kept. Each handle must also
//! be exactly the statement of the query set it is named for, so the
//! `*_qs` builders (and the copies of the uncached shapes elsewhere)
//! cannot drift from what the pages run.

use genie_orm::{QuerySet, ReadOutcome};
use genie_social::{build_app, AppConfig, AppEnv, SeedConfig, SocialApp};
use genie_storage::{PreparedSelect, QueryPlan, Select, Value};
use std::collections::BTreeMap;

const USERS: i64 = 200;

/// Builds a query set for a user.
type Build = fn(&SocialApp, i64) -> QuerySet;

/// A page handle's query set, and whether it runs as a `COUNT(*)`.
type Shape = (Build, bool);

fn objects(app: &SocialApp, model: &str) -> QuerySet {
    app.session().objects(model).unwrap()
}

/// The query set behind every page handle, by handle name.
fn shapes() -> BTreeMap<&'static str, Shape> {
    let shapes: [(&str, Shape); 23] = [
        ("user", (|a, u| a.user_qs(u).unwrap(), false)),
        ("profile", (|a, u| a.profile_qs(u).unwrap(), false)),
        ("friend_count", (|a, u| a.friends_qs(u).unwrap(), true)),
        (
            "pending_count",
            (|a, u| a.pending_invitations_qs(u).unwrap(), true),
        ),
        (
            "user_bookmarks",
            (|a, u| a.user_bookmarks_qs(u).unwrap(), false),
        ),
        ("friends", (|a, u| a.friends_qs(u).unwrap(), false)),
        (
            "friend_bookmarks",
            (|a, u| a.friend_bookmarks_qs(u).unwrap(), false),
        ),
        (
            "pending",
            (|a, u| a.pending_invitations_qs(u).unwrap(), false),
        ),
        ("wall", (|a, u| a.wall_qs(u).unwrap(), false)),
        ("user_groups", (|a, u| a.user_groups_qs(u).unwrap(), false)),
        (
            "sent_invitations",
            (
                |a, u| objects(a, "FriendshipInvitation").filter_eq("from_user_id", u),
                false,
            ),
        ),
        (
            "posts_by_sender",
            (
                |a, u| objects(a, "WallPost").filter_eq("sender_id", u),
                false,
            ),
        ),
        (
            "posts_by_sender_count",
            (
                |a, u| objects(a, "WallPost").filter_eq("sender_id", u),
                true,
            ),
        ),
        (
            "membership_check",
            (
                |a, u| {
                    objects(a, "GroupMembership")
                        .filter_eq("user_id", u)
                        .filter_eq("group_id", 1 + u % 3)
                },
                true,
            ),
        ),
        (
            "recent_instances",
            (
                |a, u| {
                    objects(a, "BookmarkInstance")
                        .filter_eq("user_id", u)
                        .order_by("-id")
                        .limit(3)
                },
                false,
            ),
        ),
        (
            "reverse_friendships",
            (
                |a, u| objects(a, "Friendship").filter_eq("friend_id", u),
                false,
            ),
        ),
        (
            "user_fields",
            (
                |a, u| {
                    objects(a, "User")
                        .filter_eq("id", u)
                        .values(&[("users", "username"), ("users", "last_login")])
                },
                false,
            ),
        ),
        (
            "profile_fields",
            (
                |a, u| {
                    objects(a, "Profile")
                        .filter_eq("user_id", u)
                        .values(&[("profiles", "location"), ("profiles", "website")])
                },
                false,
            ),
        ),
        (
            "instance_count",
            (
                |a, u| objects(a, "BookmarkInstance").filter_eq("user_id", u),
                true,
            ),
        ),
        (
            "wall_count",
            (|a, u| objects(a, "WallPost").filter_eq("user_id", u), true),
        ),
        (
            "bookmark_saves",
            (
                |a, u| objects(a, "BookmarkInstance").filter_eq("bookmark_id", 1 + u % 40),
                true,
            ),
        ),
        (
            "group_members",
            (
                |a, u| objects(a, "GroupMembership").filter_eq("group_id", 1 + u % 6),
                true,
            ),
        ),
        (
            "bookmark_by_url",
            (
                |a, u| {
                    objects(a, "Bookmark")
                        .filter_eq("url", format!("http://site{}.example/page", u % 40))
                },
                false,
            ),
        ),
    ];
    shapes.into_iter().collect()
}

/// Every distinct query set behind the page handles, once each (a handle
/// and its `COUNT(*)` twin share one).
fn query_sets(app: &SocialApp) -> Vec<(&'static str, Build)> {
    let mut seen = std::collections::BTreeSet::new();
    shapes()
        .into_iter()
        .filter(|(_, (build, _))| seen.insert(build(app, 1).compile().0.to_string()))
        .map(|(name, (build, _))| (name, build))
        .collect()
}

fn compile((build, count): Shape, app: &SocialApp, user: i64) -> (Select, Vec<Value>) {
    let qs = build(app, user);
    if count {
        qs.compile_count()
    } else {
        qs.compile()
    }
}

/// Checks a read on the kept deployment, and the plan it reported,
/// against `select` bound and planned from scratch on `fresh`.
fn assert_as_fresh(
    fresh: &AppEnv,
    (select, params): (Select, &[Value]),
    (kept_plan, kept): (QueryPlan, ReadOutcome),
    what: &str,
) {
    let once = PreparedSelect::new(select);
    assert_eq!(
        kept_plan,
        fresh.db.explain_prepared(&once, params).unwrap(),
        "plan: {what}"
    );
    let from_scratch = fresh.db.execute_prepared(&once, params).unwrap();
    let rows: Vec<_> = kept.rows.iter().map(|r| r.row().clone()).collect();
    assert_eq!(rows, from_scratch.result.rows, "rows: {what}");
    if let Some(first) = kept.rows.first() {
        assert_eq!(
            first.columns(),
            &from_scratch.result.columns[..],
            "columns: {what}"
        );
    }
    assert_eq!(kept.db_cost, from_scratch.cost, "cost: {what}");
}

fn deployment() -> AppEnv {
    build_app(&AppConfig {
        seed: SeedConfig {
            users: USERS as usize,
            unique_bookmarks: 40,
            groups: 6,
            ..SeedConfig::default()
        },
        // No cached objects: every read reaches the database on both
        // sides, so the two buffer pools stay in step.
        strategy: None,
        ..AppConfig::default()
    })
    .unwrap()
}

#[test]
fn each_page_handle_is_the_statement_of_its_query_set() {
    let env = deployment();
    let shapes = shapes();
    let handles = env.app.page_queries().unwrap();
    let names: Vec<&str> = handles.iter().map(|(name, _)| *name).collect();
    assert_eq!(names.len(), shapes.len(), "{names:?}");
    for (name, handle) in handles {
        let shape = *shapes
            .get(name)
            .unwrap_or_else(|| panic!("no query set for {name}"));
        let (select, _) = compile(shape, &env.app, 7);
        assert_eq!(handle.fingerprint(), select.to_string(), "{name}");
        assert_eq!(handle.select(), &select, "{name}");
    }
}

#[test]
fn kept_plans_equal_fresh_ones_for_every_app_shape() {
    let (kept, fresh) = (deployment(), deployment());
    let shapes = shapes();
    let query_sets = query_sets(&kept.app);
    assert_eq!(query_sets.len(), 20);
    let handles = kept.app.page_queries().unwrap();
    let session = kept.app.session();
    let mut compared = 0u64;
    for user in 1..=USERS {
        for (name, handle) in &handles {
            let (select, params) = compile(shapes[name], &kept.app, user);
            let plan = kept
                .db
                .explain_prepared(handle.statement(), &params)
                .unwrap();
            let read = session.run_prepared(handle, &params).unwrap();
            let what = format!("handle {name} user={user}");
            assert_as_fresh(&fresh, (select, &params), (plan, read), &what);
            compared += 1;
        }
        for (name, build) in &query_sets {
            for count in [false, true] {
                let qs = build(&kept.app, user);
                let (select, params) = if count {
                    qs.compile_count()
                } else {
                    qs.compile()
                };
                let plan = kept.db.explain(&select, &params).unwrap();
                let read = if count {
                    session.count(&qs).unwrap().1
                } else {
                    session.all(&qs).unwrap()
                };
                let what = format!("query set {name} count={count} user={user}");
                assert_as_fresh(&fresh, (select, &params), (plan, read), &what);
                compared += 1;
            }
        }
        // Writes between users invalidate kept plans on the tables they
        // touch; both deployments apply the same ones.
        if user % 7 == 0 {
            for env in [&kept, &fresh] {
                env.app
                    .create_bm(user, &format!("http://new.example/{user}"))
                    .unwrap();
                env.app.post_wall(user, 1 + user % USERS, "hello").unwrap();
                env.app.accept_fr(user, 1 + (user * 3) % USERS).unwrap();
            }
        }
    }
    assert_eq!(
        compared,
        USERS as u64 * (handles.len() + 2 * query_sets.len()) as u64
    );
    assert_eq!(
        kept.db.content_digest(),
        fresh.db.content_digest(),
        "the deployments diverged"
    );
}

#[test]
fn a_null_or_mistyped_filter_value_does_not_poison_the_shape() {
    let env = deployment();
    let session = env.app.session();
    let by_user = |v: Value| objects(&env.app, "Profile").filter_eq("user_id", v);
    assert_eq!(session.all(&by_user(Value::Int(3))).unwrap().rows.len(), 1);
    assert!(session.all(&by_user(Value::Null)).unwrap().rows.is_empty());
    assert!(session
        .all(&by_user(Value::Text("3".into())))
        .unwrap()
        .rows
        .is_empty());
    assert_eq!(session.count(&by_user(Value::Null)).unwrap().0, 0);
    assert_eq!(session.all(&by_user(Value::Int(4))).unwrap().rows.len(), 1);
    assert_eq!(session.count(&by_user(Value::Int(4))).unwrap().0, 1);
}
