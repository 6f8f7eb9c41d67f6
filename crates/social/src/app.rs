//! Page-load actions of the social application.
//!
//! The paper's workload exercises four user actions — **LookupBM** (own
//! bookmarks), **LookupFBM** (friends' bookmarks), **CreateBM** (save a
//! bookmark), **AcceptFR** (accept a friend invitation) — plus Login and
//! Logout pages. Each action issues the realistic mix of queries a real
//! page render does (page chrome: profile, friend count, pending
//! invitations; then action-specific queries), so read pages still issue
//! many queries and write pages issue several reads around their writes.
//!
//! Every query goes through the ORM session, where CacheGenie's
//! interceptor (when installed) serves the cacheable ones. The app
//! compiles each query shape once and a page binds only values.

use crate::models::invitation_status;
use genie_orm::{OrmSession, PreparedQuery, QuerySet, ReadOutcome, WriteOutcome};
use genie_storage::{CostReport, Result, StorageError, Value};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, OnceLock};

/// The parameters of the pending-invitation shapes for `user`.
fn pending(user: i64) -> [Value; 2] {
    [Value::Int(user), Value::Int(invitation_status::PENDING)]
}

/// Aggregated effects of rendering one page.
#[derive(Debug, Clone, Copy, Default)]
pub struct PageStats {
    /// Queries issued (reads + writes).
    pub queries: u64,
    /// Reads answered by the cache.
    pub cache_hit_queries: u64,
    /// Reads that consulted the cache at all (cacheable queries).
    pub intercepted_queries: u64,
    /// Cache operations performed by the read path.
    pub cache_ops: u64,
    /// Write statements executed.
    pub writes: u64,
    /// Total physical database cost (including trigger work).
    pub db_cost: CostReport,
}

impl PageStats {
    fn read(&mut self, out: &ReadOutcome) {
        self.queries += 1;
        self.cache_ops += out.cache_ops;
        if out.cache_ops > 0 {
            self.intercepted_queries += 1;
        }
        if out.from_cache {
            self.cache_hit_queries += 1;
        }
        self.db_cost += out.db_cost;
    }

    fn write(&mut self, out: &WriteOutcome) {
        self.queries += 1;
        self.writes += 1;
        self.db_cost += out.db_cost;
    }

    /// Merges another page's stats (used by session aggregation).
    pub fn merge(&mut self, other: &PageStats) {
        self.queries += other.queries;
        self.cache_hit_queries += other.cache_hit_queries;
        self.intercepted_queries += other.intercepted_queries;
        self.cache_ops += other.cache_ops;
        self.writes += other.writes;
        self.db_cost += other.db_cost;
    }
}

/// The application facade: one instance per deployment, cheap to clone.
#[derive(Clone)]
pub struct SocialApp {
    session: OrmSession,
    /// Logical timestamp source for writes when the caller does not
    /// provide one (monotone; no wall clock).
    clock: Arc<AtomicI64>,
    /// The page queries, compiled on first use and shared by clones.
    pages: Arc<OnceLock<Pages>>,
}

impl std::fmt::Debug for SocialApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocialApp").finish()
    }
}

/// Declares [`Pages`]: one handle per name, and `named()` listing them.
macro_rules! pages {
    ($($name:ident)*) => {
        /// Every query a page issues, compiled once: a page binds only
        /// values. Each handle is compiled from the builder its shape
        /// comes from, so the cached shapes are the `*_qs` builders' by
        /// construction.
        struct Pages {
            $($name: PreparedQuery,)*
        }

        impl Pages {
            fn named(&self) -> Vec<(&'static str, &PreparedQuery)> {
                vec![$((stringify!($name), &self.$name)),*]
            }
        }
    };
}

pages! {
    user profile friend_count pending_count sent_invitations posts_by_sender
    posts_by_sender_count membership_check recent_instances reverse_friendships user_fields
    profile_fields instance_count wall_count user_bookmarks bookmark_saves friends
    friend_bookmarks bookmark_by_url pending wall user_groups group_members
}

impl Pages {
    fn compile(app: &SocialApp) -> Result<Pages> {
        let s = &app.session;
        let all = |qs: QuerySet| s.prepare(&qs, false);
        let count = |qs: QuerySet| s.prepare(&qs, true);
        // Filter values are not part of a shape: 0 stands for each.
        let by =
            |model: &str, field: &str| Ok::<_, StorageError>(app.qs(model)?.filter_eq(field, 0i64));
        Ok(Pages {
            user: all(app.user_qs(0)?),
            profile: all(app.profile_qs(0)?),
            friend_count: count(app.friends_qs(0)?),
            pending_count: count(app.pending_invitations_qs(0)?),
            sent_invitations: all(by("FriendshipInvitation", "from_user_id")?),
            posts_by_sender: all(by("WallPost", "sender_id")?),
            posts_by_sender_count: count(by("WallPost", "sender_id")?),
            membership_check: count(by("GroupMembership", "user_id")?.filter_eq("group_id", 0i64)),
            recent_instances: all(by("BookmarkInstance", "user_id")?.order_by("-id").limit(3)),
            reverse_friendships: all(by("Friendship", "friend_id")?),
            user_fields: all(app
                .user_qs(0)?
                .values(&[("users", "username"), ("users", "last_login")])),
            profile_fields: all(app
                .profile_qs(0)?
                .values(&[("profiles", "location"), ("profiles", "website")])),
            instance_count: count(by("BookmarkInstance", "user_id")?),
            wall_count: count(by("WallPost", "user_id")?),
            user_bookmarks: all(app.user_bookmarks_qs(0)?),
            bookmark_saves: count(by("BookmarkInstance", "bookmark_id")?),
            friends: all(app.friends_qs(0)?),
            friend_bookmarks: all(app.friend_bookmarks_qs(0)?),
            bookmark_by_url: all(by("Bookmark", "url")?),
            pending: all(app.pending_invitations_qs(0)?),
            wall: all(app.wall_qs(0)?),
            user_groups: all(app.user_groups_qs(0)?),
            group_members: count(by("GroupMembership", "group_id")?),
        })
    }
}

impl SocialApp {
    /// Wraps an ORM session whose registry came from
    /// [`crate::models::build_registry`].
    pub fn new(session: OrmSession) -> Self {
        SocialApp {
            session,
            clock: Arc::new(AtomicI64::new(1_000_000)),
            pages: Arc::default(),
        }
    }

    /// The underlying session.
    pub fn session(&self) -> &OrmSession {
        &self.session
    }

    /// Next logical timestamp.
    pub fn next_ts(&self) -> i64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    fn pages(&self) -> Result<&Pages> {
        if let Some(pages) = self.pages.get() {
            return Ok(pages);
        }
        let pages = Pages::compile(self)?;
        Ok(self.pages.get_or_init(|| pages))
    }

    /// Every page query's handle, by name — for checks that the handles
    /// run what the builders build.
    ///
    /// # Errors
    ///
    /// Unknown models (the registry is not the social app's).
    pub fn page_queries(&self) -> Result<Vec<(&'static str, &PreparedQuery)>> {
        Ok(self.pages()?.named())
    }

    /// Runs one page query with `params` bound and books it on `stats`.
    fn read(
        &self,
        stats: &mut PageStats,
        query: &PreparedQuery,
        params: &[Value],
    ) -> Result<ReadOutcome> {
        let out = self.session.run_prepared(query, params)?;
        stats.read(&out);
        Ok(out)
    }

    // ---- query-set builders (shapes must match the cached objects) ----

    fn qs(&self, model: &str) -> Result<QuerySet> {
        self.session.objects(model)
    }

    /// `user_by_id` feature shape.
    pub fn user_qs(&self, user: i64) -> Result<QuerySet> {
        Ok(self.qs("User")?.filter_eq("id", user))
    }

    /// `profile_by_user` feature shape.
    pub fn profile_qs(&self, user: i64) -> Result<QuerySet> {
        Ok(self.qs("Profile")?.filter_eq("user_id", user))
    }

    /// `friends_of_user` feature shape.
    pub fn friends_qs(&self, user: i64) -> Result<QuerySet> {
        Ok(self.qs("Friendship")?.filter_eq("user_id", user))
    }

    /// `pending_invitations` feature shape.
    pub fn pending_invitations_qs(&self, user: i64) -> Result<QuerySet> {
        Ok(self
            .qs("FriendshipInvitation")?
            .filter_eq("to_user_id", user)
            .filter_eq("status", invitation_status::PENDING))
    }

    /// `user_bookmarks` link shape.
    pub fn user_bookmarks_qs(&self, user: i64) -> Result<QuerySet> {
        let bookmark = self.session.registry().model("Bookmark")?;
        Ok(self
            .qs("BookmarkInstance")?
            .join_on(bookmark, "bookmark_id", "id")
            .filter_eq("user_id", user))
    }

    /// `friend_bookmarks` link shape (join on a non-PK column pair).
    pub fn friend_bookmarks_qs(&self, user: i64) -> Result<QuerySet> {
        let bmi = self.session.registry().model("BookmarkInstance")?;
        Ok(self
            .qs("Friendship")?
            .join_on(bmi, "friend_id", "user_id")
            .filter_eq("user_id", user))
    }

    /// `latest_wall_posts` top-K shape.
    pub fn wall_qs(&self, user: i64) -> Result<QuerySet> {
        Ok(self
            .qs("WallPost")?
            .filter_eq("user_id", user)
            .order_by("-date_posted")
            .limit(20))
    }

    /// `user_groups` link shape.
    pub fn user_groups_qs(&self, user: i64) -> Result<QuerySet> {
        let group = self.session.registry().model("Group")?;
        Ok(self
            .qs("GroupMembership")?
            .join_on(group, "group_id", "id")
            .filter_eq("user_id", user))
    }

    // ---- page chrome shared by every page ----

    /// The queries every rendered page issues (current user, profile,
    /// friend count, pending-invitation badge), plus the page's share of
    /// queries CacheGenie does *not* cache. The paper stresses that such
    /// uncached queries (framework internals, one-off shapes) still hit
    /// the database and keep it the bottleneck — they are why the cached
    /// systems win by 2–2.5×, not by the raw memcached-vs-DB factor.
    fn chrome(&self, q: &Pages, user: i64, stats: &mut PageStats) -> Result<()> {
        let u = [Value::Int(user)];
        self.read(stats, &q.user, &u)?;
        self.read(stats, &q.profile, &u)?;
        self.read(stats, &q.friend_count, &u)?;
        self.read(stats, &q.pending_count, &pending(user))?;
        self.uncached_chrome(q, user, stats)
    }

    /// Framework-style queries with shapes no cached object matches:
    /// sent invitations, outgoing wall posts, a per-(user, group)
    /// membership check, and a recent-activity lookup.
    fn uncached_chrome(&self, q: &Pages, user: i64, stats: &mut PageStats) -> Result<()> {
        let u = [Value::Int(user)];
        self.read(stats, &q.sent_invitations, &u)?;
        self.read(stats, &q.posts_by_sender, &u)?;
        let group = Value::Int(1 + user % 3);
        self.read(stats, &q.membership_check, &[Value::Int(user), group])?;
        self.read(stats, &q.recent_instances, &u)?;
        // Reverse-direction friendship check (keyed on friend_id, which no
        // cached object covers).
        self.read(stats, &q.reverse_friendships, &u)?;
        // "People you may know" sidebar: a suggested peer's outgoing posts
        // and activity volume.
        let peer = [Value::Int(user % 17 + 1)];
        self.read(stats, &q.posts_by_sender, &peer)?;
        self.read(stats, &q.posts_by_sender_count, &peer)?;
        // Django-middleware-style per-request queries whose projections
        // differ from any cached template (projection changes the shape).
        self.read(stats, &q.user_fields, &u)?;
        self.read(stats, &q.profile_fields, &u)?;
        Ok(())
    }

    // ---- page loads ----

    /// Login page: chrome, a `last_login` write, and dashboard queries.
    ///
    /// # Errors
    ///
    /// Database errors.
    pub fn login(&self, user: i64) -> Result<PageStats> {
        let (q, mut stats) = (self.pages()?, PageStats::default());
        self.chrome(q, user, &mut stats)?;
        let ts = self.next_ts();
        stats.write(&self.session.update_by_id(
            "User",
            user,
            &[("last_login", Value::Timestamp(ts))],
        )?);
        let u = [Value::Int(user)];
        self.read(&mut stats, &q.instance_count, &u)?;
        self.read(&mut stats, &q.wall_count, &u)?;
        Ok(stats)
    }

    /// Logout page: lightweight.
    ///
    /// # Errors
    ///
    /// Database errors.
    pub fn logout(&self, user: i64) -> Result<PageStats> {
        let (q, mut stats) = (self.pages()?, PageStats::default());
        self.read(&mut stats, &q.user, &[Value::Int(user)])?;
        self.read(&mut stats, &q.pending_count, &pending(user))?;
        Ok(stats)
    }

    /// LookupBM: the user's own bookmarks plus per-bookmark save counts.
    ///
    /// # Errors
    ///
    /// Database errors.
    pub fn lookup_bm(&self, user: i64) -> Result<PageStats> {
        let (q, mut stats) = (self.pages()?, PageStats::default());
        self.chrome(q, user, &mut stats)?;
        let u = [Value::Int(user)];
        let list = self.read(&mut stats, &q.user_bookmarks, &u)?;
        self.read(&mut stats, &q.instance_count, &u)?;
        for b in list
            .rows
            .iter()
            .filter_map(|r| r.get("bookmark_id").as_int())
            .take(5)
        {
            self.read(&mut stats, &q.bookmark_saves, &[Value::Int(b)])?;
        }
        Ok(stats)
    }

    /// LookupFBM: bookmarks created by the user's friends — the paper's
    /// most expensive read page (a join).
    ///
    /// # Errors
    ///
    /// Database errors.
    pub fn lookup_fbm(&self, user: i64) -> Result<PageStats> {
        let (q, mut stats) = (self.pages()?, PageStats::default());
        self.chrome(q, user, &mut stats)?;
        let u = [Value::Int(user)];
        let friends = self.read(&mut stats, &q.friends, &u)?;
        self.read(&mut stats, &q.friend_bookmarks, &u)?;
        for f in friends
            .rows
            .iter()
            .filter_map(|r| r.get("friend_id").as_int())
            .take(5)
        {
            let friend = [Value::Int(f)];
            self.read(&mut stats, &q.profile, &friend)?;
            self.read(&mut stats, &q.instance_count, &friend)?;
        }
        Ok(stats)
    }

    /// CreateBM: save a bookmark (creating the unique [`crate::models`]
    /// `Bookmark` row if this URL is new), then re-render the list.
    ///
    /// # Errors
    ///
    /// Database errors.
    pub fn create_bm(&self, user: i64, url: &str) -> Result<PageStats> {
        let (q, mut stats) = (self.pages()?, PageStats::default());
        self.chrome(q, user, &mut stats)?;
        // Find-or-create the unique bookmark (not a cached pattern;
        // passes through).
        let existing = self.read(&mut stats, &q.bookmark_by_url, &[url.into()])?;
        let bookmark_id = match existing.rows.first() {
            Some(row) => row.id(),
            None => {
                let ts = self.next_ts();
                let w = self.session.create(
                    "Bookmark",
                    &[
                        ("url", url.into()),
                        ("description", format!("about {url}").into()),
                        ("added", Value::Timestamp(ts)),
                    ],
                )?;
                let id = w.new_id.expect("create returns id");
                stats.write(&w);
                id
            }
        };
        let ts = self.next_ts();
        let w = self.session.create(
            "BookmarkInstance",
            &[
                ("bookmark_id", bookmark_id.into()),
                ("user_id", user.into()),
                ("description", "saved".into()),
                ("saved", Value::Timestamp(ts)),
            ],
        )?;
        stats.write(&w);
        // Re-render: the user must see her own write immediately.
        let u = [Value::Int(user)];
        self.read(&mut stats, &q.user_bookmarks, &u)?;
        self.read(&mut stats, &q.instance_count, &u)?;
        Ok(stats)
    }

    /// AcceptFR: accept the oldest pending invitation (or, with none
    /// pending, send one to `fallback_peer` — the page stays a write).
    ///
    /// # Errors
    ///
    /// Database errors.
    pub fn accept_fr(&self, user: i64, fallback_peer: i64) -> Result<PageStats> {
        let (q, mut stats) = (self.pages()?, PageStats::default());
        self.chrome(q, user, &mut stats)?;
        let pending = self.read(&mut stats, &q.pending, &pending(user))?;
        let first = pending
            .rows
            .first()
            .map(|r| (r.id(), r.get("from_user_id").as_int().expect("fk is int")));
        match first {
            Some((invitation_id, from_user)) => {
                stats.write(&self.session.update_by_id(
                    "FriendshipInvitation",
                    invitation_id,
                    &[("status", invitation_status::ACCEPTED.into())],
                )?);
                let ts = self.next_ts();
                // Pinax stores friendships symmetrically.
                stats.write(&self.session.create(
                    "Friendship",
                    &[
                        ("user_id", user.into()),
                        ("friend_id", from_user.into()),
                        ("added", Value::Timestamp(ts)),
                    ],
                )?);
                stats.write(&self.session.create(
                    "Friendship",
                    &[
                        ("user_id", from_user.into()),
                        ("friend_id", user.into()),
                        ("added", Value::Timestamp(ts)),
                    ],
                )?);
            }
            None => {
                let to = if fallback_peer == user {
                    fallback_peer % 7 + 1
                } else {
                    fallback_peer
                };
                let ts = self.next_ts();
                stats.write(&self.session.create(
                    "FriendshipInvitation",
                    &[
                        ("from_user_id", user.into()),
                        ("to_user_id", to.into()),
                        ("status", invitation_status::PENDING.into()),
                        ("sent", Value::Timestamp(ts)),
                    ],
                )?);
            }
        }
        // Re-render the friends box.
        let u = [Value::Int(user)];
        self.read(&mut stats, &q.friends, &u)?;
        self.read(&mut stats, &q.friend_count, &u)?;
        Ok(stats)
    }

    /// Wall page: the paper's §3.2 Top-K example (latest 20 posts).
    ///
    /// # Errors
    ///
    /// Database errors.
    pub fn view_wall(&self, user: i64) -> Result<PageStats> {
        let (q, mut stats) = (self.pages()?, PageStats::default());
        self.chrome(q, user, &mut stats)?;
        let u = [Value::Int(user)];
        self.read(&mut stats, &q.wall, &u)?;
        self.read(&mut stats, &q.wall_count, &u)?;
        Ok(stats)
    }

    /// Posting on a wall.
    ///
    /// # Errors
    ///
    /// Database errors.
    pub fn post_wall(&self, wall_owner: i64, sender: i64, content: &str) -> Result<PageStats> {
        let (q, mut stats) = (self.pages()?, PageStats::default());
        let ts = self.next_ts();
        stats.write(&self.session.create(
            "WallPost",
            &[
                ("user_id", wall_owner.into()),
                ("sender_id", sender.into()),
                ("content", content.into()),
                ("date_posted", Value::Timestamp(ts)),
            ],
        )?);
        self.read(&mut stats, &q.wall, &[Value::Int(wall_owner)])?;
        Ok(stats)
    }

    /// Posting a burst of wall messages inside ONE database transaction
    /// (BEGIN … COMMIT / ROLLBACK). The posts' cache effects buffer in
    /// the commit-time effect pipeline: a commit publishes them as one
    /// coalesced batch (same wall key → one cache op), a rollback
    /// publishes nothing at all — CacheGenie's transactional guarantee.
    ///
    /// # Errors
    ///
    /// Database errors (the transaction is rolled back first).
    pub fn post_wall_batch(
        &self,
        wall_owner: i64,
        sender: i64,
        posts: usize,
        abort: bool,
    ) -> Result<PageStats> {
        self.post_wall_batch_paced(wall_owner, sender, posts, abort, &|| {})
    }

    /// [`SocialApp::post_wall_batch`] with a pacing callback invoked
    /// before each statement inside the transaction — the concurrency
    /// driver uses it to model the application-server round-trip time a
    /// real web stack spends between a transaction's statements (the
    /// window row-level locking overlaps and a global lock serializes).
    ///
    /// # Errors
    ///
    /// Same as [`SocialApp::post_wall_batch`].
    pub fn post_wall_batch_paced(
        &self,
        wall_owner: i64,
        sender: i64,
        posts: usize,
        abort: bool,
        pace: &dyn Fn(),
    ) -> Result<PageStats> {
        let (q, mut stats) = (self.pages()?, PageStats::default());
        let db = self.session.database();
        db.execute_sql("BEGIN", &[])?;
        for i in 0..posts.max(1) {
            pace();
            let ts = self.next_ts();
            let created = self.session.create(
                "WallPost",
                &[
                    ("user_id", wall_owner.into()),
                    ("sender_id", sender.into()),
                    ("content", format!("batch {i} from {sender}").into()),
                    ("date_posted", Value::Timestamp(ts)),
                ],
            );
            match created {
                Ok(w) => stats.write(&w),
                Err(e) => {
                    db.execute_sql("ROLLBACK", &[])?;
                    return Err(e);
                }
            }
        }
        if abort {
            db.execute_sql("ROLLBACK", &[])?;
        } else {
            // Commit-time work (coalesced trigger firing, the group WAL
            // append) is real page cost. A commit-time abort (strict-mode
            // lock timeout, failed trigger) already rolled back.
            let out = db.execute_sql("COMMIT", &[])?;
            stats.db_cost += out.cost;
        }
        // Re-render the wall: after COMMIT the burst is visible, after
        // ROLLBACK the pre-transaction wall is.
        self.read(&mut stats, &q.wall, &[Value::Int(wall_owner)])?;
        Ok(stats)
    }

    /// Group directory page.
    ///
    /// # Errors
    ///
    /// Database errors.
    pub fn view_groups(&self, user: i64) -> Result<PageStats> {
        let (q, mut stats) = (self.pages()?, PageStats::default());
        self.chrome(q, user, &mut stats)?;
        let memberships = self.read(&mut stats, &q.user_groups, &[Value::Int(user)])?;
        for g in memberships
            .rows
            .iter()
            .filter_map(|r| r.get("group_id").as_int())
            .take(5)
        {
            self.read(&mut stats, &q.group_members, &[Value::Int(g)])?;
        }
        Ok(stats)
    }
}
