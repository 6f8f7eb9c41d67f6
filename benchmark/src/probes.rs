//! Timed probes: single-threaded calls into one layer at a time, on the
//! end state of the untraced run, with inputs drawn from the workload's
//! own request stream. Each probe reports the median of its calls.

use crate::deploy::{fresh_dir, Live};
use crate::ledger::{metric, Metric};
use crate::stats::{median, ratio};
use crate::workloads::Req;
use crate::Res;
use cachegenie_repro::cache::{CacheOrigin, Payload};
use cachegenie_repro::orm::{QueryInterceptor, QuerySet};
use cachegenie_repro::server::{
    parse_request, Admission, RateLimiter, Response, ServeClient, Server, SessionPool,
};
use cachegenie_repro::social::SocialApp;
use cachegenie_repro::storage::{Select, Value};
use std::hint::black_box;
use std::io::Write;
use std::time::{Duration, Instant};

/// Calls per probe.
const CALLS: usize = 2000;
/// A probe whose calls are slow (a log sync each) stops after this long,
/// with however many calls it made.
const BUDGET: Duration = Duration::from_millis(1500);

/// Times `f` call by call: median µs and the calls made.
fn probe(f: impl FnMut(usize) -> Res<()>) -> Res<(f64, u64)> {
    probe_prepared(|_| Ok(()), f)
}

/// [`probe`] with an untimed `prepare` before each timed call — to put
/// the state a call needs in place where an earlier call (or an eviction
/// on the small-cache workload) may have changed it.
fn probe_prepared(
    mut prepare: impl FnMut(usize) -> Res<()>,
    mut f: impl FnMut(usize) -> Res<()>,
) -> Res<(f64, u64)> {
    let started = Instant::now();
    let mut us = Vec::with_capacity(CALLS);
    for i in 0..CALLS {
        prepare(i)?;
        let t = Instant::now();
        f(i)?;
        us.push(t.elapsed().as_nanos() as f64 / 1e3);
        if started.elapsed() > BUDGET && us.len() >= 50 {
            break;
        }
    }
    Ok((median(&us), us.len() as u64))
}

/// The four cached queries of the page chrome every page issues.
fn cached_chrome(app: &SocialApp, user: i64) -> Res<Vec<(Select, Vec<Value>)>> {
    Ok(vec![
        app.user_qs(user)?.compile(),
        app.profile_qs(user)?.compile(),
        app.friends_qs(user)?.compile_count(),
        app.pending_invitations_qs(user)?.compile_count(),
    ])
}

/// The nine uncached selects of the page chrome, rebuilt through the
/// public ORM API: shapes no cached object matches, so every page pays
/// them against the database.
fn uncached_chrome(app: &SocialApp, user: i64) -> Res<Vec<(Select, Vec<Value>)>> {
    let s = app.session();
    let peer = user % 17 + 1;
    Ok(vec![
        s.objects("FriendshipInvitation")?
            .filter_eq("from_user_id", user)
            .compile(),
        s.objects("WallPost")?
            .filter_eq("sender_id", user)
            .compile(),
        s.objects("GroupMembership")?
            .filter_eq("user_id", user)
            .filter_eq("group_id", 1 + user % 3)
            .compile_count(),
        s.objects("BookmarkInstance")?
            .filter_eq("user_id", user)
            .order_by("-id")
            .limit(3)
            .compile(),
        s.objects("Friendship")?
            .filter_eq("friend_id", user)
            .compile(),
        s.objects("WallPost")?
            .filter_eq("sender_id", peer)
            .compile(),
        s.objects("WallPost")?
            .filter_eq("sender_id", peer)
            .compile_count(),
        s.objects("User")?
            .filter_eq("id", user)
            .values(&[("users", "username"), ("users", "last_login")])
            .compile(),
        s.objects("Profile")?
            .filter_eq("user_id", user)
            .values(&[("profiles", "location"), ("profiles", "website")])
            .compile(),
    ])
}

/// The page query sets `orm.compile_us` compiles.
fn page_query_sets(app: &SocialApp, user: i64) -> Res<Vec<QuerySet>> {
    Ok(vec![
        app.user_qs(user)?,
        app.profile_qs(user)?,
        app.friends_qs(user)?,
        app.pending_invitations_qs(user)?,
        app.user_bookmarks_qs(user)?,
        app.friend_bookmarks_qs(user)?,
        app.wall_qs(user)?,
        app.user_groups_qs(user)?,
    ])
}

/// `storage.device_sync_us`: 100 × (write 512 B + `sync_data`) on the
/// filesystem the WAL lives on. Host context, not a program metric.
fn device_sync_us() -> Res<(f64, u64)> {
    let dir = fresh_dir("sync-probe")?;
    let mut file = std::fs::File::create(dir.join("probe.bin"))?;
    let block = [0x5au8; 512];
    let mut us = Vec::with_capacity(100);
    for _ in 0..100 {
        let t = Instant::now();
        file.write_all(&block)?;
        file.sync_data()?;
        us.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    Ok((median(&us), us.len() as u64))
}

/// `server.roundtrip_us`: a `HEALTH` exchange over a fresh connection to
/// the still-running server — wire, framing and dispatch with no page
/// behind it.
pub fn server_roundtrip(server: &Server) -> Res<Metric> {
    let mut client = ServeClient::connect(server.addr())?;
    let (us, n) = probe(|_| {
        black_box(client.health()?);
        Ok(())
    })?;
    let _ = client.quit();
    Ok(metric("server.roundtrip_us", us, "us", n))
}

/// Every in-process probe, on the deployment's end state (server already
/// shut down). `stream` supplies users and request frames.
pub fn in_process(live: &Live, stream: &[Req]) -> Res<Vec<Metric>> {
    let env = &live.env;
    let app = &env.app;
    let users: Vec<i64> = stream.iter().map(|r| r.user).collect();
    let user = |i: usize| users[i % users.len()];
    let mut out = Vec::new();

    // --- server: parse, encode, admission stack ---
    let lines: Vec<String> = stream.iter().take(CALLS).map(Req::line).collect();
    let (us, n) = probe(|i| {
        black_box(parse_request(black_box(&lines[i % lines.len()])).map_err(|e| e.reason)?);
        Ok(())
    })?;
    out.push(metric("server.parse_us", us, "us", n));
    let (us, n) = probe(|i| {
        let payload = format!(
            "page=lookup_bm user={} queries=19 cache_hits=10 writes=0\n",
            user(i)
        );
        black_box(Response::Ok(payload).encode());
        Ok(())
    })?;
    out.push(metric("server.encode_us", us, "us", n));
    let admission = Admission::new(0);
    let limiter = RateLimiter::new(0.0, 32.0);
    let pool = SessionPool::new(app, 2);
    let (us, n) = probe(|_| {
        let slot = admission.try_enter().ok_or("admission refused")?;
        if !limiter.allow("bench-0") {
            return Err("rate limiter refused".into());
        }
        let lease = pool.checkout().ok_or("session pool empty")?;
        black_box((&slot, &lease));
        Ok(())
    })?;
    out.push(metric("server.admit_us", us, "us", n));

    // --- orm: statement build ---
    let mut sets = Vec::new();
    for i in 0..64 {
        sets.extend(page_query_sets(app, user(i))?);
    }
    let (us, n) = probe(|i| {
        black_box(sets[i % sets.len()].compile());
        Ok(())
    })?;
    out.push(metric("orm.compile_us", us, "us", n));

    // --- core: try_serve on a present / an absent key ---
    let mut cached = Vec::new();
    for i in 0..(CALLS / 4) {
        cached.extend(cached_chrome(app, user(i))?);
    }
    let serve = |i: usize| {
        let (select, params) = &cached[i % cached.len()];
        black_box(env.genie.try_serve(select, params));
        Ok(())
    };
    // Present: an untimed call fills the key if it is not there.
    let (us, n) = probe_prepared(serve, serve)?;
    out.push(metric("core.hit_us", us, "us", n));
    let handle = env.cluster.handle(CacheOrigin::Application);
    let names = [
        "user_by_id",
        "profile_by_user",
        "friend_count",
        "pending_invitation_count",
    ];
    // Absent: the key is deleted first, so the call reads the database
    // and fills the cache.
    let (us, n) = probe_prepared(
        |i| {
            let i = i % cached.len();
            handle.delete(&env.genie.key_for(names[i % names.len()], &cached[i].1)?);
            Ok(())
        },
        serve,
    )?;
    out.push(metric("core.miss_us", us, "us", n));

    // --- cache: get and set of a profile-sized payload under the
    // benchmark's own keys ---
    let (select, params) = app.profile_qs(user(0))?.compile();
    let payload = Payload::Rows(env.db.select(&select, &params)?.result.rows);
    let keys: Vec<String> = (0..64).map(|i| format!("bench:probe:{i}")).collect();
    let (us, n) = probe(|i| {
        handle.set_payload(&keys[i % keys.len()], &payload, None)?;
        Ok(())
    })?;
    out.push(metric("cache.set_us", us, "us", n));
    let (us, n) = probe_prepared(
        |i| Ok(handle.set_payload(&keys[i % keys.len()], &payload, None)?),
        |i| {
            black_box(handle.get_payload(&keys[i % keys.len()])?);
            Ok(())
        },
    )?;
    out.push(metric("cache.get_us", us, "us", n));

    // --- storage: plan, select, insert + commit, the device ---
    let mut uncached = Vec::new();
    for i in 0..(CALLS / 9 + 1) {
        uncached.extend(uncached_chrome(app, user(i))?);
    }
    let (plan_us, n) = probe(|i| {
        let (select, params) = &uncached[i % uncached.len()];
        black_box(env.db.explain(select, params)?);
        Ok(())
    })?;
    out.push(metric("storage.plan_us", plan_us, "us", n));
    let (mut scanned, mut returned) = (0u64, 0u64);
    let (select_us, n) = probe(|i| {
        let (select, params) = &uncached[i % uncached.len()];
        let cost = env.db.select(select, params)?.cost;
        scanned += cost.rows_scanned;
        returned += cost.rows_returned;
        Ok(())
    })?;
    out.push(metric("storage.select_us", select_us, "us", n));
    out.push(metric("storage.exec_us", select_us - plan_us, "us", n));
    out.push(metric(
        "storage.rows_scanned_per_row_returned",
        ratio(scanned as f64, returned as f64),
        "ratio",
        returned,
    ));
    let (us, n) = probe(|i| {
        // Autocommit: trigger firing, commit, and on a durable database
        // the log append and sync.
        app.session().create(
            "WallPost",
            &[
                ("user_id", user(i).into()),
                ("sender_id", user(i).into()),
                ("content", "probe".into()),
                ("date_posted", Value::Timestamp(app.next_ts())),
            ],
        )?;
        Ok(())
    })?;
    out.push(metric("storage.insert_commit_us", us, "us", n));
    let (us, n) = device_sync_us()?;
    out.push(metric("storage.device_sync_us", us, "us", n));
    Ok(out)
}

/// `storage.checkpoint_ms`: one fuzzy checkpoint of the end state (0 on
/// an in-memory database). Runs after the recovery check so that replay
/// has a log tail to work on.
pub fn checkpoint(live: &Live) -> Res<Metric> {
    if live.wal_dir.is_none() {
        return Ok(metric("storage.checkpoint_ms", 0.0, "ms", 0));
    }
    let t = Instant::now();
    live.env.db.checkpoint()?;
    Ok(metric(
        "storage.checkpoint_ms",
        t.elapsed().as_secs_f64() * 1e3,
        "ms",
        1,
    ))
}
