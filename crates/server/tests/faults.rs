//! Fault injection: misbehaving clients, overload, and shutdown under
//! load. The server must degrade with clean retryable errors, never
//! panic, never wedge a worker, never leak a session, and leave the
//! cache coherent and the WAL recoverable.

use cachegenie::CacheGenie;
use genie_orm::{InterceptOutcome, PreparedQuery, QueryInterceptor};
use genie_server::{Page, Response, ServeClient, Server, ServerConfig};
use genie_social::{build_app, build_app_on, AppConfig, AppEnv, SeedConfig};
use genie_storage::{Database, QueryResult, Select, Value, WalConfig};
use std::io::ErrorKind;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cached objects the post-run coherence sweep checks, per user.
const SWEPT_OBJECTS: &[&str] = &[
    "latest_wall_posts",
    "wall_post_count",
    "user_by_id",
    "profile_by_user",
    "friends_of_user",
    "friend_count",
    "user_bookmark_count",
];

fn cached_env() -> AppEnv {
    build_app(&AppConfig {
        seed: SeedConfig::tiny(),
        strategy: Some(cachegenie::ConsistencyStrategy::UpdateInPlace),
        ..Default::default()
    })
    .expect("build cached app")
}

fn start(cfg: ServerConfig) -> (AppEnv, Server) {
    let env = cached_env();
    let server = Server::start(&env, cfg).expect("start server");
    (env, server)
}

fn sweep_coherence(env: &AppEnv) {
    let users = env.seeded.users as i64;
    for name in SWEPT_OBJECTS {
        for user in 1..=users {
            let ok = env
                .genie
                .verify_coherence(name, &[Value::Int(user)])
                .unwrap_or_else(|e| panic!("verify {name}({user}): {e}"));
            assert!(ok, "cache incoherent: {name}({user})");
        }
    }
}

fn is_disconnect(kind: ErrorKind) -> bool {
    matches!(
        kind,
        ErrorKind::UnexpectedEof
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::ConnectionRefused
            | ErrorKind::BrokenPipe
            | ErrorKind::WouldBlock
            | ErrorKind::TimedOut
    )
}

#[test]
fn client_disconnect_mid_request_leaves_server_healthy() {
    let (_env, server) = start(ServerConfig::default());
    for _ in 0..8 {
        let mut c = ServeClient::connect(server.addr()).unwrap();
        // Half a frame, then vanish.
        c.send_raw(b"PAGE wall ").unwrap();
        drop(c);
    }
    // Also: a full request whose response has nowhere to go.
    let mut c = ServeClient::connect(server.addr()).unwrap();
    c.send_raw(b"PAGE wall 1\n").unwrap();
    drop(c);
    std::thread::sleep(Duration::from_millis(100));
    let mut probe = ServeClient::connect(server.addr()).unwrap();
    let resp = probe.health().unwrap();
    assert!(matches!(resp, Response::Ok(p) if p.contains("status=ok")));
    let report = server.shutdown();
    assert_eq!(report.leaked_sessions, 0, "sessions leaked: {report:?}");
}

#[test]
fn slow_loris_is_cut_off_with_408() {
    let (_env, server) = start(ServerConfig {
        request_read_timeout: Duration::from_millis(100),
        read_tick: Duration::from_millis(10),
        ..ServerConfig::default()
    });
    let mut c = ServeClient::connect(server.addr()).unwrap();
    c.send_raw(b"PAGE wa").unwrap();
    let t0 = Instant::now();
    let resp = c.read_response().unwrap();
    assert!(
        matches!(resp, Response::Err { code: 408, .. }),
        "expected 408, got {resp:?}"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "timeout enforcement too slow: {:?}",
        t0.elapsed()
    );
    // Connection is closed after the timeout answer.
    let err = c.read_response().unwrap_err();
    assert!(is_disconnect(err.kind()), "got {err:?}");
    assert!(server.metrics().read_timeouts.load(Ordering::Relaxed) >= 1);
    // A well-behaved client is unaffected.
    let mut c2 = ServeClient::connect(server.addr()).unwrap();
    assert!(matches!(
        c2.page(Page::Wall, 1, None).unwrap(),
        Response::Ok(_)
    ));
    server.shutdown();
}

#[test]
fn idle_connections_are_reaped() {
    let (_env, server) = start(ServerConfig {
        idle_timeout: Duration::from_millis(100),
        read_tick: Duration::from_millis(10),
        ..ServerConfig::default()
    });
    let mut c = ServeClient::connect(server.addr()).unwrap();
    // Send nothing at all: the server closes us without a response.
    let err = c.read_response().unwrap_err();
    assert!(is_disconnect(err.kind()), "got {err:?}");
    server.shutdown();
}

#[test]
fn rate_limited_client_rejected_then_recovers() {
    let (_env, server) = start(ServerConfig {
        rate_per_sec: 20.0,
        rate_burst: 2.0,
        ..ServerConfig::default()
    });
    let mut c = ServeClient::connect(server.addr()).unwrap();
    assert!(matches!(c.hello("greedy").unwrap(), Response::Ok(_)));
    // Exhaust the burst; the limiter must answer 429 within a few
    // requests (the bucket holds 2 and refills at 20/s).
    let mut limited = false;
    for _ in 0..6 {
        match c.page(Page::Login, 1, None).unwrap() {
            Response::Ok(_) => {}
            Response::Err { code: 429, .. } => {
                limited = true;
                break;
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    assert!(limited, "burst was never limited");
    assert!(server.metrics().rate_limited.load(Ordering::Relaxed) >= 1);
    // Back off long enough for the bucket to refill, then recover.
    std::thread::sleep(Duration::from_millis(200));
    assert!(
        matches!(c.page(Page::Login, 1, None).unwrap(), Response::Ok(_)),
        "client did not recover after backoff"
    );
    // An independent principal was never affected.
    let mut c2 = ServeClient::connect(server.addr()).unwrap();
    assert!(matches!(c2.hello("patient").unwrap(), Response::Ok(_)));
    assert!(matches!(
        c2.page(Page::Login, 2, None).unwrap(),
        Response::Ok(_)
    ));
    server.shutdown();
}

#[test]
fn backlog_overflow_sheds_connections_retryably() {
    let (_env, server) = start(ServerConfig {
        workers: 1,
        backlog: 1,
        ..ServerConfig::default()
    });
    // Occupy the only worker with a live connection.
    let mut held = ServeClient::connect(server.addr()).unwrap();
    assert!(matches!(held.health().unwrap(), Response::Ok(_)));
    // Fill the single queue slot.
    let queued = ServeClient::connect(server.addr()).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    // The next connection must be refused with a retryable 503.
    let mut shed = ServeClient::connect(server.addr()).unwrap();
    let resp = shed.read_response().unwrap();
    match &resp {
        Response::Err { code: 503, .. } => assert!(resp.is_retryable()),
        other => panic!("expected shed 503, got {other:?}"),
    }
    assert!(server.metrics().connections_shed.load(Ordering::Relaxed) >= 1);
    // Freeing the worker drains the queue: the queued client is served.
    assert!(matches!(held.quit().unwrap(), Response::Ok(_)));
    let mut queued = queued;
    assert!(matches!(queued.health().unwrap(), Response::Ok(_)));
    server.shutdown();
}

#[test]
fn admission_control_sheds_excess_inflight_requests() {
    let (_env, server) = start(ServerConfig {
        workers: 4,
        max_inflight: 1,
        ..ServerConfig::default()
    });
    let addr = server.addr();
    let stop = Arc::new(AtomicBool::new(false));
    let saw_shed = Arc::new(AtomicBool::new(false));
    let threads: Vec<_> = (0..4)
        .map(|i| {
            let stop = Arc::clone(&stop);
            let saw_shed = Arc::clone(&saw_shed);
            std::thread::spawn(move || {
                let mut c = ServeClient::connect(addr).unwrap();
                let user = i + 1;
                while !stop.load(Ordering::Relaxed) {
                    match c.page(Page::Snapshot, user, Some(64)).unwrap() {
                        Response::Ok(_) => {}
                        Response::Err { code: 503, .. } => {
                            saw_shed.store(true, Ordering::Relaxed);
                        }
                        Response::Err { code: 409, .. } => {}
                        other => panic!("unexpected response: {other:?}"),
                    }
                }
            })
        })
        .collect();
    let t0 = Instant::now();
    while !saw_shed.load(Ordering::Relaxed) && t0.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(10));
    }
    stop.store(true, Ordering::Relaxed);
    for t in threads {
        t.join().unwrap();
    }
    assert!(
        saw_shed.load(Ordering::Relaxed),
        "4 concurrent clients against max_inflight=1 never shed"
    );
    assert!(server.metrics().requests_shed.load(Ordering::Relaxed) >= 1);
    let report = server.shutdown();
    assert_eq!(report.leaked_sessions, 0);
    assert_eq!(report.dropped_in_flight, 0);
}

/// Drives write-heavy load from `threads` clients until `stop` is set;
/// every thread tolerates retryable errors and disconnects (which are
/// exactly what shutdown produces) but panics on anything else.
fn spawn_load(
    addr: std::net::SocketAddr,
    threads: usize,
    stop: &Arc<AtomicBool>,
) -> Vec<std::thread::JoinHandle<u64>> {
    (0..threads)
        .map(|i| {
            let stop = Arc::clone(stop);
            std::thread::spawn(move || {
                let mut served = 0u64;
                let mut n = 0i64;
                'outer: while !stop.load(Ordering::Relaxed) {
                    let Ok(mut c) = ServeClient::connect(addr) else {
                        // Refused: the server is draining.
                        break;
                    };
                    loop {
                        if stop.load(Ordering::Relaxed) {
                            break 'outer;
                        }
                        n += 1;
                        // SeedConfig::tiny() creates 20 users; keep
                        // every id argument inside that population or
                        // foreign keys will (correctly) reject us.
                        let user = (i as i64 * 5 + n % 5) + 1;
                        let kinds = [
                            Page::PostWall,
                            Page::CreateBM,
                            Page::Wall,
                            Page::AcceptFR,
                            Page::Snapshot,
                        ];
                        let kind = kinds[(n as usize) % kinds.len()];
                        let arg = match kind {
                            // Bookmark URLs are unique: keep each
                            // thread in its own id space.
                            Page::CreateBM => Some(i as i64 * 1_000_000 + n),
                            Page::Snapshot => Some(4),
                            Page::PostWall | Page::AcceptFR => Some((user % 20) + 1),
                            _ => None,
                        };
                        match c.page(kind, user, arg) {
                            Ok(Response::Ok(_)) => served += 1,
                            Ok(Response::Err { code, reason }) => {
                                let retryable = genie_server::retryable(code);
                                assert!(retryable, "fatal error {code} {reason}");
                            }
                            Err(e) => {
                                assert!(is_disconnect(e.kind()), "hard error {e:?}");
                                break;
                            }
                        }
                    }
                }
                served
            })
        })
        .collect()
}

#[test]
fn shutdown_under_load_drains_and_leaves_cache_coherent() {
    let (env, server) = start(ServerConfig::default());
    let addr = server.addr();
    let stop = Arc::new(AtomicBool::new(false));
    let loaders = spawn_load(addr, 4, &stop);
    std::thread::sleep(Duration::from_millis(200));
    // Shut down while requests are in flight.
    let report = server.shutdown();
    stop.store(true, Ordering::Relaxed);
    let served: u64 = loaders.into_iter().map(|t| t.join().unwrap()).sum();
    assert!(served > 0, "load never got going");
    assert_eq!(report.dropped_in_flight, 0, "dropped requests: {report:?}");
    assert_eq!(report.leaked_sessions, 0, "leaked sessions: {report:?}");
    // Every cached object agrees with the database after the storm.
    sweep_coherence(&env);
}

#[test]
fn drain_command_refuses_new_connections() {
    let (_env, server) = start(ServerConfig::default());
    let mut c = ServeClient::connect(server.addr()).unwrap();
    let resp = c.admin("drain").unwrap();
    assert!(matches!(resp, Response::Ok(p) if p.contains("draining")));
    assert!(server.is_draining());
    // A new connection is refused: either an explicit retryable 503
    // from the acceptor, or a hard refusal once the listener is gone.
    match ServeClient::connect(server.addr()) {
        Ok(mut refused) => match refused.read_response() {
            Ok(resp) => {
                assert!(
                    matches!(resp, Response::Err { code: 503, .. }),
                    "got {resp:?}"
                );
            }
            Err(e) => assert!(is_disconnect(e.kind()), "got {e:?}"),
        },
        Err(e) => assert!(is_disconnect(e.kind()), "got {e:?}"),
    }
    let report = server.shutdown();
    assert_eq!(report.leaked_sessions, 0);
    assert_eq!(report.dropped_in_flight, 0);
}

#[test]
fn shutdown_under_load_flushes_a_recoverable_wal() {
    let dir = std::env::temp_dir().join(format!("genie-serve-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let app_cfg = AppConfig {
        seed: SeedConfig::tiny(),
        strategy: Some(cachegenie::ConsistencyStrategy::UpdateInPlace),
        ..Default::default()
    };
    let db = Database::create_durable(&dir, app_cfg.db.clone(), WalConfig::default()).unwrap();
    let env = build_app_on(db, &app_cfg).unwrap();
    let server = Server::start(&env, ServerConfig::default()).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let loaders = spawn_load(server.addr(), 3, &stop);
    std::thread::sleep(Duration::from_millis(200));
    let report = server.shutdown();
    stop.store(true, Ordering::Relaxed);
    let served: u64 = loaders.into_iter().map(|t| t.join().unwrap()).sum();
    assert!(served > 0, "load never got going");
    assert!(report.wal_flushed, "WAL was not flushed: {report:?}");
    assert_eq!(report.dropped_in_flight, 0);
    sweep_coherence(&env);
    // Recovery from the flushed log reproduces the exact same state.
    let digest = env.db.content_digest();
    drop(env);
    let recovered = Database::open_with_recovery(&dir).unwrap();
    assert_eq!(
        recovered.content_digest(),
        digest,
        "recovered state diverged from the drained server's state"
    );
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

/// CacheGenie, except that any query whose first parameter is `user`
/// panics — a page bug that strikes one user's requests.
struct PanicsFor {
    genie: CacheGenie,
    user: i64,
}

impl PanicsFor {
    fn check(&self, params: &[Value]) {
        if params.first() == Some(&Value::Int(self.user)) {
            panic!("injected page panic for user {}", self.user);
        }
    }
}

impl QueryInterceptor for PanicsFor {
    fn try_serve(&self, select: &Select, params: &[Value]) -> InterceptOutcome {
        self.check(params);
        self.genie.try_serve(select, params)
    }

    fn try_serve_prepared(&self, query: &PreparedQuery, params: &[Value]) -> InterceptOutcome {
        self.check(params);
        self.genie.try_serve_prepared(query, params)
    }

    fn fill(&self, fill_key: &str, result: &QueryResult) -> u64 {
        self.genie.fill(fill_key, result)
    }
}

#[test]
fn panicking_page_answers_500_and_keeps_its_worker() {
    const WORKERS: usize = 2;
    const POISON: i64 = 7;
    let cfg = ServerConfig {
        workers: WORKERS,
        ..ServerConfig::default()
    };
    let read_timeout = cfg.request_read_timeout;
    let (env, server) = start(cfg);
    env.app.session().set_interceptor(Arc::new(PanicsFor {
        genie: env.genie.clone(),
        user: POISON,
    }));
    // One connection per worker, all open at once, so every worker
    // serves a poisoned request.
    let mut poisoned: Vec<ServeClient> = (0..WORKERS)
        .map(|_| ServeClient::connect(server.addr()).unwrap())
        .collect();
    for c in &mut poisoned {
        assert!(matches!(c.health().unwrap(), Response::Ok(_)));
    }
    for c in &mut poisoned {
        match c.page(Page::Wall, POISON, None).unwrap() {
            Response::Err { code: 500, reason } => assert_eq!(reason, "internal:panic"),
            other => panic!("expected ERR 500 internal:panic, got {other:?}"),
        }
        // The connection survives its panicked request.
        assert!(matches!(
            c.page(Page::Wall, 1, None).unwrap(),
            Response::Ok(_)
        ));
    }
    for mut c in poisoned {
        assert!(matches!(c.quit().unwrap(), Response::Ok(_)));
    }
    // Every worker has panicked once; a fresh connection is still served.
    let mut fresh = ServeClient::connect(server.addr()).unwrap();
    fresh.set_read_timeout(read_timeout).unwrap();
    let t0 = Instant::now();
    assert!(matches!(
        fresh.page(Page::Wall, 2, None).unwrap(),
        Response::Ok(_)
    ));
    assert!(
        t0.elapsed() < read_timeout,
        "served after {:?}",
        t0.elapsed()
    );
    let metrics = match fresh.metrics().unwrap() {
        Response::Ok(text) => text,
        other => panic!("METRICS failed: {other:?}"),
    };
    assert!(
        metrics.contains(&format!("serve_requests_panicked {WORKERS}")),
        "{metrics}"
    );
    drop(fresh);
    let report = server.shutdown();
    assert_eq!(report.dropped_in_flight, 0, "{report:?}");
    assert_eq!(report.leaked_sessions, 0, "{report:?}");
}
