//! The over-the-wire closed-loop driver: real client threads speaking
//! the serve protocol to a [`genie_server::Server`] over loopback TCP,
//! with Zipf user popularity and optional pacing to a target aggregate
//! QPS. Latency here is end-to-end — frame encode, kernel round trip,
//! middleware, page execution, response decode — reported per page
//! kind as p50/p95/p99/p999 from full sample sets
//! ([`genie_sim::Percentiles`]), not throughput alone.

use crate::spec::PageMix;
use genie_server::{Page, Response, ServeClient, Server, ServerConfig, ShutdownReport};
use genie_sim::{Percentiles, Zipf};
use genie_social::{build_app, AppConfig, SeedConfig};
use genie_storage::{Result, StorageError, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{mpsc, Arc, RwLock};
use std::time::{Duration, Instant};

/// Configuration for one over-the-wire serving run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Client threads, one connection each (closed loop: a client has
    /// at most one request outstanding).
    pub clients: usize,
    /// Requests each client issues (excluding login/logout bookends).
    pub requests_per_client: usize,
    /// Aggregate request rate to pace to, across all clients; `0.0`
    /// runs unpaced (each client fires as soon as the previous response
    /// lands).
    pub target_qps: f64,
    /// Zipf exponent for user popularity over the seeded population
    /// (the paper drives its million-user workload at 2.0).
    pub zipf_a: f64,
    /// Action mix (reuses the Table 2 weights).
    pub mix: PageMix,
    /// Every Nth request per client is a `snapshot` MVCC probe instead
    /// of a mix page; 0 disables.
    pub snapshot_every: usize,
    /// `run_serve` holds the server's admission slot until every client
    /// has sent its first page, then releases it. Under
    /// `server.max_inflight = 1` each first page (the login) is refused
    /// with a retryable `503`: shedding happens by construction, not by
    /// clients happening to collide.
    pub shed_first_page: bool,
    /// Seed-data scale.
    pub seed: SeedConfig,
    /// Driver RNG seed.
    pub rng_seed: u64,
    /// Server tuning.
    pub server: ServerConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            clients: 4,
            requests_per_client: 100,
            target_qps: 0.0,
            zipf_a: 2.0,
            mix: PageMix {
                batch_post: 5,
                ..PageMix::default()
            },
            snapshot_every: 10,
            shed_first_page: false,
            seed: SeedConfig::tiny(),
            rng_seed: 7,
            server: ServerConfig::default(),
        }
    }
}

/// Latency summary for one page kind, from the full client-side sample
/// set.
#[derive(Debug, Clone)]
pub struct ServePageSummary {
    /// Wire name of the page kind.
    pub page: &'static str,
    /// Successful requests measured.
    pub count: u64,
    /// Mean end-to-end latency, seconds.
    pub mean_s: f64,
    /// Median, seconds.
    pub p50_s: f64,
    /// 95th percentile, seconds.
    pub p95_s: f64,
    /// 99th percentile, seconds.
    pub p99_s: f64,
    /// 99.9th percentile, seconds.
    pub p999_s: f64,
    /// Maximum, seconds.
    pub max_s: f64,
}

/// Everything one serving run produced.
#[derive(Debug, Clone, Default)]
pub struct ServeResult {
    /// Requests answered `OK`.
    pub requests_ok: u64,
    /// Requests answered with a retryable error (shed / rate limited /
    /// serialization), each followed by client-side backoff.
    pub requests_retryable: u64,
    /// Requests answered with a non-retryable error. Must stay zero.
    pub requests_failed: u64,
    /// Wall-clock measured window.
    pub elapsed: Duration,
    /// The pacing target the run was asked for (0 = unpaced).
    pub target_qps: f64,
    /// Successful requests per wall-clock second actually achieved.
    pub achieved_qps: f64,
    /// Per-page-kind latency summaries (kinds with zero traffic are
    /// omitted).
    pub per_page: Vec<ServePageSummary>,
    /// Server-side: page requests refused by admission control.
    pub requests_shed: u64,
    /// Server-side: requests refused by the rate limiter.
    pub rate_limited: u64,
    /// Server-side: `snapshot` probes that saw a torn repeat read.
    /// Must stay zero.
    pub snapshot_violations: u64,
    /// Cached-object instances cross-checked after the drain.
    pub checked_objects: u64,
    /// Instances whose cache disagreed with the database. Must stay
    /// zero.
    pub coherence_violations: u64,
    /// The drained shutdown's report.
    pub shutdown: Option<ShutdownReport>,
}

struct ClientTally {
    ok: u64,
    retryable: u64,
    failed: u64,
    latencies: Vec<(usize, f64)>,
}

fn io_err(e: std::io::Error) -> StorageError {
    StorageError::Unsupported(format!("serve i/o: {e}"))
}

fn pick_page(mix: &PageMix, roll: u32) -> Page {
    let mut acc = mix.lookup_bm;
    if roll < acc {
        return Page::LookupBM;
    }
    acc += mix.lookup_fbm;
    if roll < acc {
        return Page::LookupFBM;
    }
    acc += mix.create_bm;
    if roll < acc {
        return Page::CreateBM;
    }
    acc += mix.accept_fr;
    if roll < acc {
        return Page::AcceptFR;
    }
    Page::BatchPost
}

/// Builds a deployment, serves it over loopback, drives the closed-loop
/// Zipf workload against it, then drains the server and cross-checks
/// cache coherence.
///
/// # Errors
///
/// Deployment/seeding errors, socket-level failures (wrapped), and any
/// database error from the post-run coherence sweep. Per-request
/// retryable refusals are *counted*, not returned.
///
/// # Panics
///
/// Panics if a client thread itself panics (protocol invariant
/// breakage).
pub fn run_serve(cfg: &ServeConfig) -> Result<ServeResult> {
    let env = build_app(&AppConfig {
        seed: cfg.seed.clone(),
        strategy: Some(cachegenie::ConsistencyStrategy::UpdateInPlace),
        ..Default::default()
    })?;
    let server = Server::start(&env, cfg.server.clone()).map_err(io_err)?;
    let addr = server.addr();
    let users = env.seeded.users.max(2);
    let clients = cfg.clients.max(1);
    let per_client_interval = if cfg.target_qps > 0.0 {
        Duration::from_secs_f64(clients as f64 / cfg.target_qps)
    } else {
        Duration::ZERO
    };
    let mix_total = cfg.mix.total().max(1);
    // With `shed_first_page`, this thread holds the admission slot and
    // the write half of `released` until every client has reported its
    // first answer on `answered`. Each client hangs up once it has
    // reported, and one that dies hangs up unreported, so this thread
    // never waits on a client that is gone.
    let slot = if cfg.shed_first_page {
        server.hold_admission_slot()
    } else {
        None
    };
    let released = Arc::new(RwLock::new(()));
    let held = slot.as_ref().map(|_| released.write().expect("fresh lock"));
    let (answered, first_answers) = mpsc::channel::<()>();
    let start = Instant::now();
    let handles: Vec<std::thread::JoinHandle<std::io::Result<ClientTally>>> = (0..clients)
        .map(|t| {
            let cfg = cfg.clone();
            let answered = answered.clone();
            let released = Arc::clone(&released);
            std::thread::spawn(move || -> std::io::Result<ClientTally> {
                let mut rng = StdRng::seed_from_u64(cfg.rng_seed.wrapping_add(t as u64 * 7919));
                let zipf = Zipf::new(users, cfg.zipf_a.max(0.01));
                let mut c = ServeClient::connect(addr)?;
                c.hello(&format!("load-{t}"))?;
                let mut tally = ClientTally {
                    ok: 0,
                    retryable: 0,
                    failed: 0,
                    latencies: Vec::with_capacity(cfg.requests_per_client),
                };
                let t0 = Instant::now();
                // Session bookends: the latency table measures the mix,
                // login/logout just have to succeed.
                let me = (t % users) as i64 + 1;
                let login = c.page(Page::Login, me, None)?;
                if cfg.shed_first_page {
                    if let Response::Err { code, .. } = login {
                        assert!(genie_server::retryable(code), "fatal login error {code}");
                        tally.retryable += 1;
                    }
                    let _ = answered.send(());
                    drop(answered);
                    drop(released.read());
                }
                for n in 0..cfg.requests_per_client {
                    // Open-loop pacing to the aggregate target: each
                    // client owns every `clients`-th send slot.
                    if !per_client_interval.is_zero() {
                        let due = per_client_interval * n as u32;
                        let now = t0.elapsed();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                    }
                    let user = zipf.sample(&mut rng) as i64;
                    let kind = if cfg.snapshot_every > 0 && n % cfg.snapshot_every == 0 {
                        Page::Snapshot
                    } else {
                        pick_page(&cfg.mix, rng.gen_range(0..mix_total))
                    };
                    let arg = match kind {
                        // Unique URL space per client: bookmark URLs
                        // carry a unique index.
                        Page::CreateBM => Some((t * 10_000_000 + n) as i64),
                        Page::AcceptFR | Page::BatchPost | Page::PostWall => {
                            Some(user % users as i64 + 1)
                        }
                        Page::Snapshot => Some(4),
                        _ => None,
                    };
                    let sent = Instant::now();
                    match c.page(kind, user, arg)? {
                        Response::Ok(_) => {
                            tally.ok += 1;
                            tally
                                .latencies
                                .push((kind.index(), sent.elapsed().as_secs_f64()));
                        }
                        Response::Err { code, reason } => {
                            assert!(
                                genie_server::retryable(code),
                                "fatal serve error {code} {reason}"
                            );
                            tally.retryable += 1;
                            // Real clients back off on 429/503.
                            std::thread::sleep(Duration::from_millis(2));
                        }
                    }
                }
                c.page(Page::Logout, me, None)?;
                c.quit()?;
                Ok(tally)
            })
        })
        .collect();
    drop(answered);
    if held.is_some() {
        // Every client has been answered (or is gone): open the gate.
        for () in first_answers {}
        drop(slot);
        drop(held);
    }
    let mut result = ServeResult {
        target_qps: cfg.target_qps,
        ..Default::default()
    };
    let mut per_kind: Vec<Percentiles> =
        (0..Page::all().len()).map(|_| Percentiles::new()).collect();
    let mut maxes = vec![0.0f64; Page::all().len()];
    for h in handles {
        let tally = h.join().expect("client thread panicked").map_err(io_err)?;
        result.requests_ok += tally.ok;
        result.requests_retryable += tally.retryable;
        result.requests_failed += tally.failed;
        for (idx, secs) in tally.latencies {
            per_kind[idx].push(secs);
            if secs > maxes[idx] {
                maxes[idx] = secs;
            }
        }
    }
    result.elapsed = start.elapsed();
    result.achieved_qps = if result.elapsed.as_secs_f64() > 0.0 {
        result.requests_ok as f64 / result.elapsed.as_secs_f64()
    } else {
        0.0
    };
    for (kind, p) in Page::all().into_iter().zip(per_kind.iter_mut()) {
        if p.is_empty() {
            continue;
        }
        result.per_page.push(ServePageSummary {
            page: kind.name(),
            count: p.len() as u64,
            mean_s: p.mean().unwrap_or(0.0),
            p50_s: p.percentile(50.0).unwrap_or(0.0),
            p95_s: p.percentile(95.0).unwrap_or(0.0),
            p99_s: p.percentile(99.0).unwrap_or(0.0),
            p999_s: p.percentile(99.9).unwrap_or(0.0),
            max_s: maxes[kind.index()],
        });
    }
    result.requests_shed = server
        .metrics()
        .requests_shed
        .load(std::sync::atomic::Ordering::Relaxed)
        + server
            .metrics()
            .connections_shed
            .load(std::sync::atomic::Ordering::Relaxed);
    result.rate_limited = server
        .metrics()
        .rate_limited
        .load(std::sync::atomic::Ordering::Relaxed);
    result.snapshot_violations = server
        .metrics()
        .snapshot_violations
        .load(std::sync::atomic::Ordering::Relaxed);
    let report = server.shutdown();
    // The post-drain coherence sweep: every cached object the mix can
    // have touched, for every user.
    let per_user = [
        "latest_wall_posts",
        "wall_post_count",
        "user_by_id",
        "profile_by_user",
        "friends_of_user",
        "friend_count",
        "user_bookmark_count",
    ];
    for user in 1..=users as i64 {
        let params = [Value::Int(user)];
        for name in per_user {
            result.checked_objects += 1;
            if !env.genie.verify_coherence(name, &params)? {
                result.coherence_violations += 1;
            }
        }
    }
    result.shutdown = Some(report);
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_picker_covers_all_weights() {
        let mix = PageMix {
            lookup_bm: 50,
            lookup_fbm: 30,
            create_bm: 10,
            accept_fr: 5,
            batch_post: 5,
        };
        assert_eq!(pick_page(&mix, 0), Page::LookupBM);
        assert_eq!(pick_page(&mix, 49), Page::LookupBM);
        assert_eq!(pick_page(&mix, 50), Page::LookupFBM);
        assert_eq!(pick_page(&mix, 79), Page::LookupFBM);
        assert_eq!(pick_page(&mix, 80), Page::CreateBM);
        assert_eq!(pick_page(&mix, 89), Page::CreateBM);
        assert_eq!(pick_page(&mix, 90), Page::AcceptFR);
        assert_eq!(pick_page(&mix, 94), Page::AcceptFR);
        assert_eq!(pick_page(&mix, 95), Page::BatchPost);
        assert_eq!(pick_page(&mix, 99), Page::BatchPost);
    }

    #[test]
    fn serve_smoke_run_reports_percentiles_and_stays_coherent() {
        let result = run_serve(&ServeConfig {
            clients: 3,
            requests_per_client: 30,
            ..Default::default()
        })
        .unwrap();
        assert!(result.requests_ok > 0, "{result:?}");
        assert_eq!(result.requests_failed, 0, "{result:?}");
        assert_eq!(result.snapshot_violations, 0, "{result:?}");
        assert_eq!(result.coherence_violations, 0, "{result:?}");
        assert!(result.checked_objects > 0);
        assert!(!result.per_page.is_empty());
        for p in &result.per_page {
            assert!(p.count > 0);
            assert!(p.p50_s <= p.p99_s && p.p99_s <= p.p999_s, "{p:?}");
            assert!(p.p999_s <= p.max_s + 1e-9, "{p:?}");
        }
        let report = result.shutdown.unwrap();
        assert_eq!(report.dropped_in_flight, 0);
        assert_eq!(report.leaked_sessions, 0);
    }

    #[test]
    fn paced_run_respects_a_low_target_qps() {
        let result = run_serve(&ServeConfig {
            clients: 2,
            requests_per_client: 20,
            target_qps: 200.0,
            ..Default::default()
        })
        .unwrap();
        // 40 requests at 200/s is at least ~190 ms of pacing; unpaced
        // this workload finishes far faster.
        assert!(
            result.elapsed >= Duration::from_millis(150),
            "pacing ignored: {:?}",
            result.elapsed
        );
        assert_eq!(result.requests_failed, 0);
    }
}
