//! Differential test of the prepare-once read path.
//!
//! Two identical deployments run the same sequence of statements. On the
//! first, every query set goes through the session: its shape's memoised
//! [`genie_orm::PreparedQuery`], the engine's kept binding and — while
//! the data allows — kept plan. On the second, every statement runs on a
//! [`PreparedSelect`] made for that one call, so it is bound and planned
//! from scratch with exactly the call's parameters. Results, physical
//! cost (both buffer pools see the same page touches in the same order)
//! and reported plans must be equal, for every statement shape the social
//! app issues, as `all` and as `count`, over 200 seeded users, with write
//! pages in between that invalidate what is kept.

use genie_orm::QuerySet;
use genie_social::{build_app, AppConfig, AppEnv, SeedConfig, SocialApp};
use genie_storage::{PreparedSelect, Value};

const USERS: i64 = 200;

type Shape = (&'static str, fn(&SocialApp, i64) -> QuerySet);

fn objects(app: &SocialApp, model: &str) -> QuerySet {
    app.session().objects(model).unwrap()
}

/// Every query-set shape `genie_social::app` builds.
fn shapes() -> Vec<Shape> {
    vec![
        ("user_by_id", |a, u| a.user_qs(u).unwrap()),
        ("profile_by_user", |a, u| a.profile_qs(u).unwrap()),
        ("friends_of_user", |a, u| a.friends_qs(u).unwrap()),
        ("pending_invitations", |a, u| {
            a.pending_invitations_qs(u).unwrap()
        }),
        ("user_bookmarks", |a, u| a.user_bookmarks_qs(u).unwrap()),
        ("friend_bookmarks", |a, u| a.friend_bookmarks_qs(u).unwrap()),
        ("latest_wall_posts", |a, u| a.wall_qs(u).unwrap()),
        ("user_groups", |a, u| a.user_groups_qs(u).unwrap()),
        ("sent_invitations", |a, u| {
            objects(a, "FriendshipInvitation").filter_eq("from_user_id", u)
        }),
        ("posts_by_sender", |a, u| {
            objects(a, "WallPost").filter_eq("sender_id", u)
        }),
        ("membership_check", |a, u| {
            objects(a, "GroupMembership")
                .filter_eq("user_id", u)
                .filter_eq("group_id", 1 + u % 3)
        }),
        ("recent_instances", |a, u| {
            objects(a, "BookmarkInstance")
                .filter_eq("user_id", u)
                .order_by("-id")
                .limit(3)
        }),
        ("reverse_friendships", |a, u| {
            objects(a, "Friendship").filter_eq("friend_id", u)
        }),
        ("user_fields", |a, u| {
            objects(a, "User")
                .filter_eq("id", u)
                .values(&[("users", "username"), ("users", "last_login")])
        }),
        ("profile_fields", |a, u| {
            objects(a, "Profile")
                .filter_eq("user_id", u)
                .values(&[("profiles", "location"), ("profiles", "website")])
        }),
        ("instances_of_user", |a, u| {
            objects(a, "BookmarkInstance").filter_eq("user_id", u)
        }),
        ("instances_of_bookmark", |a, u| {
            objects(a, "BookmarkInstance").filter_eq("bookmark_id", 1 + u % 40)
        }),
        ("wall_of_user", |a, u| {
            objects(a, "WallPost").filter_eq("user_id", u)
        }),
        ("members_of_group", |a, u| {
            objects(a, "GroupMembership").filter_eq("group_id", 1 + u % 6)
        }),
        ("bookmark_by_url", |a, u| {
            objects(a, "Bookmark").filter_eq("url", format!("http://site{}.example/page", u % 40))
        }),
    ]
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
fn kept_plans_equal_fresh_ones_for_every_app_shape() {
    let (kept, fresh) = (deployment(), deployment());
    let shapes = shapes();
    let mut compared = 0u64;
    for user in 1..=USERS {
        for (name, build) in &shapes {
            for count in [false, true] {
                let qs = build(&kept.app, user);
                let (select, params) = if count {
                    qs.compile_count()
                } else {
                    qs.compile()
                };
                let what = format!("{name} count={count} user={user}");

                let once = PreparedSelect::new(select.clone());
                assert_eq!(
                    kept.db.explain(&select, &params).unwrap(),
                    fresh.db.explain_prepared(&once, &params).unwrap(),
                    "plan: {what}"
                );

                let session = kept.app.session();
                let through_session = if count {
                    session.count(&qs).unwrap().1
                } else {
                    session.all(&qs).unwrap()
                };
                let from_scratch = fresh
                    .db
                    .execute_prepared(&PreparedSelect::new(select), &params)
                    .unwrap();
                let rows: Vec<_> = through_session
                    .rows
                    .iter()
                    .map(|r| r.row().clone())
                    .collect();
                assert_eq!(rows, from_scratch.result.rows, "rows: {what}");
                if let Some(first) = through_session.rows.first() {
                    assert_eq!(
                        first.columns(),
                        &from_scratch.result.columns[..],
                        "columns: {what}"
                    );
                }
                assert_eq!(through_session.db_cost, from_scratch.cost, "cost: {what}");
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
    assert_eq!(compared, USERS as u64 * shapes.len() as u64 * 2);
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
