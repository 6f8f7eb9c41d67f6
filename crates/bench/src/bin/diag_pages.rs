//! Diagnostic: per-page and per-query physical cost breakdown for the
//! social app's page loads (used to verify index selection and to
//! calibrate the cost model; not part of the paper's experiment set).

use genie_social::{build_app, AppConfig, SeedConfig};
use genie_storage::DbConfig;

fn main() {
    let env = build_app(&AppConfig {
        seed: SeedConfig {
            users: 120,
            unique_bookmarks: 150,
            ..SeedConfig::default()
        },
        db: DbConfig {
            buffer_pool_bytes: 640 * 1024,
        },
        strategy: None,
        ..Default::default()
    })
    .unwrap();
    let s = env.app.session();
    let u = 1i64;
    let queries: Vec<(&str, genie_orm::QuerySet)> = vec![
        ("user_by_id", env.app.user_qs(u).unwrap()),
        ("profile", env.app.profile_qs(u).unwrap()),
        ("friends", env.app.friends_qs(u).unwrap()),
        ("pending_inv", env.app.pending_invitations_qs(u).unwrap()),
        ("user_bookmarks", env.app.user_bookmarks_qs(u).unwrap()),
        ("friend_bookmarks", env.app.friend_bookmarks_qs(u).unwrap()),
        ("wall", env.app.wall_qs(u).unwrap()),
        (
            "sent_inv",
            s.objects("FriendshipInvitation")
                .unwrap()
                .filter_eq("from_user_id", u),
        ),
        (
            "wall_by_sender",
            s.objects("WallPost").unwrap().filter_eq("sender_id", u),
        ),
        (
            "friend_rev",
            s.objects("Friendship").unwrap().filter_eq("friend_id", u),
        ),
        (
            "bmi_recent",
            s.objects("BookmarkInstance")
                .unwrap()
                .filter_eq("user_id", u)
                .order_by("-id")
                .limit(3),
        ),
        (
            "user_values",
            s.objects("User")
                .unwrap()
                .filter_eq("id", u)
                .values(&[("users", "username"), ("users", "last_login")]),
        ),
    ];
    for (name, qs) in queries {
        let out = s.all(&qs).unwrap();
        println!(
            "{name:<18} rows_scanned={:<6} probes={:<3} rows={:<4}",
            out.db_cost.rows_scanned,
            out.db_cost.index_probes,
            out.rows.len()
        );
        let (sel, _) = qs.compile();
        if out.db_cost.index_probes == 0 {
            println!("   FULL SCAN: {sel}");
        }
    }
    // counts
    for (name, qs) in [
        ("cnt_pending", env.app.pending_invitations_qs(u).unwrap()),
        (
            "cnt_gm",
            s.objects("GroupMembership")
                .unwrap()
                .filter_eq("user_id", u)
                .filter_eq("group_id", 2i64),
        ),
        (
            "cnt_wall_sender",
            s.objects("WallPost").unwrap().filter_eq("sender_id", u),
        ),
    ] {
        let (_, out) = s.count(&qs).unwrap();
        println!(
            "{name:<18} rows_scanned={:<6} probes={:<3}",
            out.db_cost.rows_scanned, out.db_cost.index_probes
        );
    }
}
