//! The front-end server: a pooled thread-per-connection loop over
//! loopback TCP with the production middleware stack layered on every
//! request.
//!
//! ## Architecture
//!
//! ```text
//! acceptor thread ──► bounded connection queue ──► worker threads (N)
//!      │ (full ⇒ ERR 503 shed, close)                 │ one connection at a time
//!      │ (draining ⇒ ERR 503 draining, close)         ▼
//!      ▼                                    per-request pipeline:
//!   TcpListener                             admission ► rate limit ► session
//!                                           checkout ► page execution ► metrics
//! ```
//!
//! Back-pressure is bounded at both layers: the accept queue holds at
//! most `backlog` connections (overflow is refused with a retryable
//! `503`, never queued unboundedly), and at most `max_inflight` page
//! requests execute concurrently (overflow likewise sheds). Graceful
//! shutdown flips the server to *draining*: the acceptor refuses new
//! connections, workers finish every request whose frame was read
//! (responding normally), idle and queued connections are closed with
//! a retryable error, and the WAL group-commit queue is flushed before
//! [`Server::shutdown`] returns its report.

use crate::metrics::ServerMetrics;
use crate::middleware::{Admission, InflightGuard, RateLimiter};
use crate::pool::{PoolSnapshot, SessionPool};
use crate::proto::{
    parse_request, AdminCmd, Page, Request, Response, BAD_REQUEST, INTERNAL, MAX_LINE, RETRY, SHED,
    TIMEOUT, TOO_LARGE,
};
use cachegenie::CacheGenie;
use genie_social::AppEnv;
use genie_storage::{Database, StorageError, Value};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

const STATE_RUNNING: u8 = 0;
const STATE_DRAINING: u8 = 1;

/// Wall posts per `batch_post` page transaction.
const BATCH_POSTS: usize = 4;

/// Tuning for one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads — the maximum concurrently-served connections.
    pub workers: usize,
    /// Bounded accept-queue depth; a connection arriving with the
    /// queue full is refused with `ERR 503 shed` instead of waiting.
    pub backlog: usize,
    /// Maximum concurrently-executing page requests (0 = unlimited).
    /// Requests over the limit get `ERR 503 shed`.
    pub max_inflight: usize,
    /// Sustained per-client request rate (tokens/second; 0 disables).
    pub rate_per_sec: f64,
    /// Token-bucket burst capacity.
    pub rate_burst: f64,
    /// Socket read-timeout granularity: how often a blocked worker
    /// wakes to check deadlines and the drain flag.
    pub read_tick: Duration,
    /// Close a connection with no request in flight after this long.
    pub idle_timeout: Duration,
    /// A request frame must complete within this budget once its first
    /// byte arrives — the slow-loris bound. Violations get `ERR 408`.
    pub request_read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            backlog: 16,
            max_inflight: 0,
            rate_per_sec: 0.0,
            rate_burst: 32.0,
            read_tick: Duration::from_millis(20),
            idle_timeout: Duration::from_secs(10),
            request_read_timeout: Duration::from_millis(500),
        }
    }
}

/// What a drained shutdown observed — the acceptance evidence for
/// "zero dropped in-flight requests, zero leaked sessions".
#[derive(Debug, Clone, Copy)]
pub struct ShutdownReport {
    /// Requests answered after draining began (their frames were
    /// already read, so they completed normally).
    pub drained_in_flight: u64,
    /// Requests whose frame was read but never answered. Must be 0.
    pub dropped_in_flight: u64,
    /// Sessions not returned to the pool. Must be 0.
    pub leaked_sessions: usize,
    /// Requests served over the server's lifetime.
    pub requests_total: u64,
    /// True when the WAL group-commit queue was drained and synced
    /// (always true for durable deployments, false for in-memory).
    pub wal_flushed: bool,
}

struct Shared {
    cfg: ServerConfig,
    db: Database,
    genie: CacheGenie,
    pool: SessionPool,
    metrics: ServerMetrics,
    limiter: RateLimiter,
    admission: Admission,
    state: AtomicU8,
    conn_seq: AtomicU64,
    requests_started: AtomicU64,
    requests_finished: AtomicU64,
}

impl Shared {
    fn draining(&self) -> bool {
        self.state.load(Ordering::Acquire) == STATE_DRAINING
    }

    fn begin_drain(&self) {
        self.state.store(STATE_DRAINING, Ordering::Release);
    }
}

/// A running server instance. Dropping it without calling
/// [`Server::shutdown`] aborts the threads ungracefully (tests should
/// always shut down).
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    sender: Option<SyncSender<TcpStream>>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.addr).finish()
    }
}

impl Server {
    /// Binds a loopback listener and starts the acceptor plus worker
    /// pool over the deployment's database/cache/app.
    ///
    /// # Errors
    ///
    /// Socket errors from binding the listener.
    pub fn start(env: &AppEnv, cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let workers_n = cfg.workers.max(1);
        let backlog = cfg.backlog.max(1);
        let shared = Arc::new(Shared {
            pool: SessionPool::new(&env.app, workers_n),
            limiter: RateLimiter::new(cfg.rate_per_sec, cfg.rate_burst),
            admission: Admission::new(cfg.max_inflight),
            metrics: ServerMetrics::default(),
            db: env.db.clone(),
            genie: env.genie.clone(),
            state: AtomicU8::new(STATE_RUNNING),
            conn_seq: AtomicU64::new(0),
            requests_started: AtomicU64::new(0),
            requests_finished: AtomicU64::new(0),
            cfg,
        });
        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(backlog);
        let rx = Arc::new(parking_lot::Mutex::new(rx));
        let workers = (0..workers_n)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &rx))
                    .expect("spawn worker")
            })
            .collect();
        let acceptor = {
            let shared = Arc::clone(&shared);
            let tx = tx.clone();
            std::thread::Builder::new()
                .name("serve-acceptor".to_owned())
                .spawn(move || acceptor_loop(&shared, &listener, &tx))
                .expect("spawn acceptor")
        };
        Ok(Server {
            shared,
            addr,
            sender: Some(tx),
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound loopback address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Server-side metrics (live).
    pub fn metrics(&self) -> &ServerMetrics {
        &self.shared.metrics
    }

    /// Takes one admission slot, as a page request would, and holds it
    /// until the guard drops; `None` when the gate is full. While it is
    /// held under `max_inflight = 1`, every page is refused with a
    /// retryable `503`, so a load generator can make shedding certain
    /// instead of a matter of timing.
    pub fn hold_admission_slot(&self) -> Option<InflightGuard> {
        self.shared.admission.try_enter()
    }

    /// Session-pool accounting (live).
    pub fn pool_snapshot(&self) -> PoolSnapshot {
        self.shared.pool.snapshot()
    }

    /// True once draining has begun (via [`Server::shutdown`] or
    /// `ADMIN drain`).
    pub fn is_draining(&self) -> bool {
        self.shared.draining()
    }

    /// The deployment's cache-consistency engine, for post-run
    /// coherence sweeps by audits and benches.
    pub fn genie(&self) -> &CacheGenie {
        &self.shared.genie
    }

    /// Graceful shutdown: refuse new connections, drain every request
    /// whose frame was read, close idle connections, flush the WAL,
    /// and report. Blocks until all threads have exited.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.shared.begin_drain();
        // Wake the acceptor out of its blocking accept; it sees the
        // drain flag, refuses this probe, and exits.
        if let Ok(s) = TcpStream::connect(self.addr) {
            drop(s);
        }
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        // Workers drain queued connections (refused politely), finish
        // in-flight requests, then observe the closed channel and exit.
        drop(self.sender.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        let wal_flushed = self.shared.db.is_durable() && self.shared.db.wal_flush().is_ok();
        let pool = self.shared.pool.snapshot();
        let started = self.shared.requests_started.load(Ordering::Relaxed);
        let finished = self.shared.requests_finished.load(Ordering::Relaxed);
        ShutdownReport {
            drained_in_flight: self
                .shared
                .metrics
                .drained_in_flight
                .load(Ordering::Relaxed),
            dropped_in_flight: started.saturating_sub(finished),
            leaked_sessions: pool.capacity - pool.idle,
            requests_total: finished,
            wal_flushed,
        }
    }
}

fn acceptor_loop(shared: &Shared, listener: &TcpListener, tx: &SyncSender<TcpStream>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.draining() {
                    return;
                }
                continue;
            }
        };
        if shared.draining() {
            refuse(
                shared,
                stream,
                "draining",
                &shared.metrics.connections_drained,
            );
            return;
        }
        match tx.try_send(stream) {
            Ok(()) => {
                shared
                    .metrics
                    .connections_accepted
                    .fetch_add(1, Ordering::Relaxed);
            }
            Err(TrySendError::Full(stream)) => {
                refuse(shared, stream, "shed", &shared.metrics.connections_shed);
            }
            Err(TrySendError::Disconnected(_)) => return,
        }
    }
}

/// Answers a refused connection with a retryable `503` and closes it.
fn refuse(_shared: &Shared, mut stream: TcpStream, reason: &str, counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = stream.write_all(
        &Response::Err {
            code: SHED,
            reason: reason.to_owned(),
        }
        .encode(),
    );
}

fn worker_loop(shared: &Shared, rx: &parking_lot::Mutex<Receiver<TcpStream>>) {
    loop {
        // Hold the receiver lock only while waiting, not while serving.
        let next = {
            let rx = rx.lock();
            rx.recv_timeout(shared.cfg.read_tick)
        };
        match next {
            Ok(stream) => {
                if shared.draining() {
                    // Queued before the drain began, never served: no
                    // frame of it is in flight, so refuse politely.
                    refuse(
                        shared,
                        stream,
                        "draining",
                        &shared.metrics.connections_drained,
                    );
                } else {
                    serve_conn(shared, stream);
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if shared.draining() {
                    // Keep draining the queue until the sender closes.
                    continue;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Per-connection protocol state.
struct ConnState {
    /// Rate-limit principal (set by `HELLO`, defaults per-connection).
    client: String,
}

/// Whether the connection survives the response.
#[derive(PartialEq)]
enum After {
    Keep,
    Close,
}

fn serve_conn(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.cfg.read_tick));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let seq = shared.conn_seq.fetch_add(1, Ordering::Relaxed);
    let mut conn = ConnState {
        client: format!("conn-{seq}"),
    };
    let mut buf: Vec<u8> = Vec::with_capacity(256);
    let mut chunk = [0u8; 1024];
    // When the current (incomplete) frame's first byte arrived.
    let mut frame_start: Option<Instant> = None;
    let mut idle_since = Instant::now();
    loop {
        // Serve every complete line already buffered (pipelining).
        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = buf.drain(..=pos).collect();
            frame_start = if buf.is_empty() {
                None
            } else {
                Some(Instant::now())
            };
            let draining_before = shared.draining();
            shared.requests_started.fetch_add(1, Ordering::Relaxed);
            let (resp, after) = handle_line(shared, &mut conn, &line[..line.len() - 1]);
            shared.metrics.record_status(resp.code());
            shared
                .metrics
                .requests_total
                .fetch_add(1, Ordering::Relaxed);
            if draining_before {
                shared
                    .metrics
                    .drained_in_flight
                    .fetch_add(1, Ordering::Relaxed);
            }
            let wrote = stream.write_all(&resp.encode());
            shared.requests_finished.fetch_add(1, Ordering::Relaxed);
            if wrote.is_err() || after == After::Close {
                return;
            }
            idle_since = Instant::now();
        }
        // An unbounded frame cannot be resynchronized: refuse, close.
        if buf.len() >= MAX_LINE {
            answer_and_count(shared, &mut stream, TOO_LARGE, "frame-too-large");
            return;
        }
        // Draining with no partial frame: nothing owed, close politely.
        if shared.draining() && frame_start.is_none() {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // peer closed (possibly mid-frame: nothing owed)
            Ok(n) => {
                if buf.is_empty() {
                    frame_start = Some(Instant::now());
                }
                buf.extend_from_slice(&chunk[..n]);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if let Some(t0) = frame_start {
                    if t0.elapsed() >= shared.cfg.request_read_timeout {
                        // Slow loris: a frame that will not finish.
                        shared.metrics.read_timeouts.fetch_add(1, Ordering::Relaxed);
                        answer_and_count(shared, &mut stream, TIMEOUT, "request-read-timeout");
                        return;
                    }
                } else if idle_since.elapsed() >= shared.cfg.idle_timeout {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Writes a terminal error response outside the normal request flow
/// (framing violations that close the connection).
fn answer_and_count(shared: &Shared, stream: &mut TcpStream, code: u16, reason: &str) {
    shared.metrics.record_status(code);
    let _ = stream.write_all(
        &Response::Err {
            code,
            reason: reason.to_owned(),
        }
        .encode(),
    );
}

fn handle_line(shared: &Shared, conn: &mut ConnState, raw: &[u8]) -> (Response, After) {
    let line = match std::str::from_utf8(raw) {
        Ok(s) => s.trim_end_matches('\r'),
        Err(_) => {
            return (
                Response::Err {
                    code: BAD_REQUEST,
                    reason: "non-utf8-frame".to_owned(),
                },
                After::Keep,
            )
        }
    };
    let req = match parse_request(line) {
        Ok(r) => r,
        Err(e) => return (Response::err(e), After::Keep),
    };
    match req {
        Request::Hello { client } => {
            conn.client = client;
            (
                Response::Ok(format!("hello {}\n", conn.client)),
                After::Keep,
            )
        }
        Request::Health => {
            let status = if shared.draining() { "draining" } else { "ok" };
            let pool = shared.pool.snapshot();
            (
                Response::Ok(format!(
                    "status={status} inflight={} pool_idle={} pool_capacity={} epoch={}\n",
                    shared.admission.inflight(),
                    pool.idle,
                    pool.capacity,
                    shared.db.commit_epoch(),
                )),
                After::Keep,
            )
        }
        Request::Metrics => (Response::Ok(shared.metrics.render()), After::Keep),
        Request::Admin(cmd) => handle_admin(shared, cmd),
        Request::Quit => (Response::Ok("bye\n".to_owned()), After::Close),
        Request::Page { kind, user, arg } => {
            (handle_page(shared, conn, kind, user, arg), After::Keep)
        }
    }
}

fn handle_admin(shared: &Shared, cmd: AdminCmd) -> (Response, After) {
    match cmd {
        AdminCmd::Stats => {
            let pool = shared.pool.snapshot();
            let m = &shared.metrics;
            (
                Response::Ok(format!(
                    "requests_total={} inflight={} pool_capacity={} pool_idle={} \
                     pool_checkouts={} rate_limited={} requests_shed={} connections_shed={} \
                     read_timeouts={} clients={}\n",
                    m.requests_total.load(Ordering::Relaxed),
                    shared.admission.inflight(),
                    pool.capacity,
                    pool.idle,
                    pool.checkouts,
                    m.rate_limited.load(Ordering::Relaxed),
                    m.requests_shed.load(Ordering::Relaxed),
                    m.connections_shed.load(Ordering::Relaxed),
                    m.read_timeouts.load(Ordering::Relaxed),
                    shared.limiter.clients(),
                )),
                After::Keep,
            )
        }
        AdminCmd::Flush => match shared.db.wal_flush() {
            Ok(()) => (Response::Ok("flushed\n".to_owned()), After::Keep),
            Err(e) => (
                Response::Err {
                    code: INTERNAL,
                    reason: format!("wal-flush:{e}"),
                },
                After::Keep,
            ),
        },
        AdminCmd::Checkpoint => {
            if !shared.db.is_durable() {
                return (
                    Response::Err {
                        code: BAD_REQUEST,
                        reason: "not-durable".to_owned(),
                    },
                    After::Keep,
                );
            }
            match shared.db.checkpoint() {
                Ok(stats) => (
                    Response::Ok(format!("checkpoint epoch={}\n", stats.epoch)),
                    After::Keep,
                ),
                Err(e) => (
                    Response::Err {
                        code: INTERNAL,
                        reason: format!("checkpoint:{e}"),
                    },
                    After::Keep,
                ),
            }
        }
        AdminCmd::Drain => {
            shared.begin_drain();
            (Response::Ok("draining\n".to_owned()), After::Keep)
        }
    }
}

fn handle_page(
    shared: &Shared,
    conn: &ConnState,
    kind: Page,
    user: i64,
    arg: Option<i64>,
) -> Response {
    // Middleware stack, outermost first: admission, then rate limit,
    // then the pooled session. Refusals execute nothing.
    let Some(_inflight) = shared.admission.try_enter() else {
        shared.metrics.requests_shed.fetch_add(1, Ordering::Relaxed);
        return Response::Err {
            code: SHED,
            reason: "overloaded".to_owned(),
        };
    };
    if !shared.limiter.allow(&conn.client) {
        shared.metrics.rate_limited.fetch_add(1, Ordering::Relaxed);
        return Response::Err {
            code: 429,
            reason: "rate-limited".to_owned(),
        };
    }
    let Some(session) = shared.pool.checkout() else {
        shared.metrics.requests_shed.fetch_add(1, Ordering::Relaxed);
        return Response::Err {
            code: SHED,
            reason: "no-session".to_owned(),
        };
    };
    let t0 = Instant::now();
    // A panicking page costs its request, not the worker: the lease and
    // admission slot return on unwind, and the worker answers and keeps
    // serving. What the closure can leave behind is `shared` (atomics
    // and non-poisoning locks) and an open transaction, handled below.
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        run_page(shared, &session, kind, user, arg)
    }));
    let nanos = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    shared.metrics.record_page(kind, nanos);
    let Ok(result) = result else {
        // A page that panicked between BEGIN and COMMIT would leave this
        // worker thread's transaction, and its locks, open.
        if shared.db.in_transaction() {
            let _ = shared.db.execute_sql("ROLLBACK", &[]);
        }
        shared
            .metrics
            .requests_panicked
            .fetch_add(1, Ordering::Relaxed);
        return Response::Err {
            code: INTERNAL,
            reason: "internal:panic".to_owned(),
        };
    };
    match result {
        Ok(payload) => Response::Ok(payload),
        Err(
            e @ (StorageError::Deadlock { .. }
            | StorageError::WriteConflict { .. }
            | StorageError::LockTimeout { .. }
            | StorageError::TransactionAborted(_)),
        ) => Response::Err {
            code: RETRY,
            reason: format!("serialization:{}", error_class(&e)),
        },
        Err(e) => Response::Err {
            code: INTERNAL,
            reason: format!("db:{e}"),
        },
    }
}

fn error_class(e: &StorageError) -> &'static str {
    match e {
        StorageError::Deadlock { .. } => "deadlock",
        StorageError::WriteConflict { .. } => "write-conflict",
        StorageError::LockTimeout { .. } => "lock-timeout",
        StorageError::TransactionAborted(_) => "aborted",
        _ => "other",
    }
}

fn run_page(
    shared: &Shared,
    session: &genie_social::SocialApp,
    kind: Page,
    user: i64,
    arg: Option<i64>,
) -> Result<String, StorageError> {
    let stats = match kind {
        Page::Login => session.login(user)?,
        Page::Logout => session.logout(user)?,
        Page::LookupBM => session.lookup_bm(user)?,
        Page::LookupFBM => session.lookup_fbm(user)?,
        Page::CreateBM => {
            let n = arg.unwrap_or(user);
            session.create_bm(user, &format!("http://bookmark.example/{n}"))?
        }
        Page::AcceptFR => session.accept_fr(user, arg.unwrap_or(user + 1))?,
        Page::Wall => session.view_wall(user)?,
        Page::PostWall => {
            let wall = arg.unwrap_or(user);
            session.post_wall(wall, user, &format!("post from {user}"))?
        }
        Page::BatchPost => {
            let wall = arg.unwrap_or(user);
            session.post_wall_batch(wall, user, BATCH_POSTS, false)?
        }
        Page::Groups => session.view_groups(user)?,
        Page::Snapshot => return run_snapshot_page(shared, user, arg),
    };
    Ok(format!(
        "page={} user={user} queries={} cache_hits={} writes={}\n",
        kind.name(),
        stats.queries,
        stats.cache_hit_queries,
        stats.writes
    ))
}

/// The protocol-level MVCC probe: a read-only transaction that counts
/// a wall, issues filler point reads, re-counts, and reports whether
/// the two counts agreed under the pinned snapshot. Any disagreement
/// is a server-side `snapshot_violations` tick — the concurrency
/// audit requires that counter to stay at zero.
fn run_snapshot_page(shared: &Shared, user: i64, arg: Option<i64>) -> Result<String, StorageError> {
    let db = &shared.db;
    let fillers = arg.unwrap_or(2).clamp(0, 64);
    db.execute_sql("BEGIN", &[])?;
    let run = (|| {
        let count_sql = "SELECT COUNT(*) FROM wall_posts WHERE user_id = $1";
        let first = db.execute_sql(count_sql, &[Value::Int(user)])?;
        for i in 0..fillers {
            db.execute_sql(
                "SELECT id, last_login FROM users WHERE id = $1",
                &[Value::Int(user + i)],
            )?;
        }
        let again = db.execute_sql(count_sql, &[Value::Int(user)])?;
        Ok(first.result.rows == again.result.rows)
    })();
    match run {
        Ok(consistent) => {
            db.execute_sql("COMMIT", &[])?;
            if !consistent {
                shared
                    .metrics
                    .snapshot_violations
                    .fetch_add(1, Ordering::Relaxed);
            }
            Ok(format!(
                "page=snapshot user={user} reads={} consistent={consistent}\n",
                fillers + 2
            ))
        }
        Err(e) => {
            let _ = db.execute_sql("ROLLBACK", &[]);
            Err(e)
        }
    }
}
