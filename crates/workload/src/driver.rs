//! The benchmark driver: closed-loop clients in virtual time.
//!
//! Pages execute *functionally* against the real storage engine, cache,
//! and middleware (real rows, real triggers, real hit/miss behaviour);
//! their physical cost reports are priced by the [`crate::costmodel`] and
//! charged against contended [`genie_sim::Resource`]s (DB CPU, DB disk,
//! cache servers). Throughput and latency are read off the virtual clock,
//! reproducing the paper's saturation behaviour deterministically.
//!
//! Clients advance in smallest-local-time order (activity scanning), so
//! functional execution order tracks virtual time.

use crate::metrics::{PageTypeMetrics, RunResult};
use crate::spec::{CacheMode, PageKind, WorkloadConfig};
use cachegenie::ConsistencyStrategy;
use genie_cache::ClusterConfig;
use genie_sim::{Resource, SimTime, Zipf};
use genie_social::{build_app, AppConfig, AppEnv, PageStats};
use genie_storage::{DbConfig, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

struct Client {
    id: usize,
    now: SimTime,
    rng: StdRng,
    /// Sessions still to run (warm-up + measured).
    sessions_left: usize,
    /// Steps of the current session: None = must start a new session.
    session: Option<SessionState>,
}

struct SessionState {
    user: i64,
    /// Remaining action pages before logout.
    pages_left: usize,
    logged_in: bool,
}

/// Runs one workload configuration to completion.
///
/// # Errors
///
/// Propagates application/database errors (the workload itself is
/// designed not to violate constraints).
pub fn run(config: &WorkloadConfig) -> Result<RunResult> {
    let env = deploy(config)?;
    if !config.triggers_enabled {
        // Experiment 5's "ideal" system: same queries, no consistency
        // maintenance. Cached reads may be stale; the paper argues this
        // still bounds the achievable throughput.
        env.db.set_triggers_enabled(false);
    }

    let mut db_cpu = Resource::new("db_cpu", 1);
    let mut db_disk = Resource::new("db_disk", 1);
    let mut cache_srv = Resource::new("cache", config.cache_servers.max(1));

    // The paper distributes SESSIONS over users with p(x) = x^-a / ζ(a):
    // a user's session count is zipf-distributed, so a LOWER exponent
    // means a fatter tail — a few users log in very often and repeat
    // traffic rises (that is why Figure 3b's cached curves fall as `a`
    // rises). Order statistics of that model give the k-th most active
    // user a session share ∝ k^(-1/(a-1)); we use those deterministic
    // rank weights directly (sampling 400 counts would make the tail —
    // and thus the whole experiment — a coin flip on a few draws).
    let users = config.seed.users.max(1);
    let rank_exponent = (1.0 / (config.zipf_a - 1.0).max(0.1)).min(12.0);
    let rank_weights = Zipf::new(users, rank_exponent);
    let mut cumulative: Vec<f64> = Vec::with_capacity(users);
    let mut total_weight = 0.0f64;
    for rank in 1..=users {
        total_weight += rank_weights.pmf(rank);
        cumulative.push(total_weight);
    }
    let draw_user = |rng: &mut StdRng| -> i64 {
        let roll: f64 = rng.gen_range(0.0..total_weight.max(f64::MIN_POSITIVE));
        (cumulative.partition_point(|&c| c <= roll) + 1).min(users) as i64
    };
    let total_sessions = config.sessions_per_client + config.warmup_sessions_per_client;
    let mut heap: BinaryHeap<Reverse<(SimTime, usize)>> = BinaryHeap::new();
    let mut clients: Vec<Client> = (0..config.clients)
        .map(|id| Client {
            id,
            now: SimTime::ZERO,
            rng: StdRng::seed_from_u64(config.rng_seed.wrapping_add(id as u64 * 7919)),
            sessions_left: total_sessions,
            session: None,
        })
        .collect();
    for c in &clients {
        heap.push(Reverse((c.now, c.id)));
    }

    let mut metrics: BTreeMap<PageKind, PageTypeMetrics> = BTreeMap::new();
    let mut measure_start: Option<SimTime> = None;
    let mut measured_pages: u64 = 0;
    let mut warmup_done_at = SimTime::ZERO;

    while let Some(Reverse((_, id))) = heap.pop() {
        let c = &mut clients[id];
        if c.sessions_left == 0 && c.session.is_none() {
            continue;
        }
        // Advance the cache's TTL clock to this client's time.
        env.cluster.set_now(c.now.as_nanos());

        // Decide the next page.
        let (kind, user) = match &mut c.session {
            None => {
                c.sessions_left -= 1;
                let user = draw_user(&mut c.rng);
                c.session = Some(SessionState {
                    user,
                    pages_left: config.pages_per_session,
                    logged_in: false,
                });
                (PageKind::Login, user)
            }
            Some(s) if !s.logged_in => {
                // Defensive: login happens on session creation.
                s.logged_in = true;
                (PageKind::Login, s.user)
            }
            Some(s) if s.pages_left > 0 => {
                s.pages_left -= 1;
                (draw_page(&config.mix, &mut c.rng), s.user)
            }
            Some(s) => {
                let user = s.user;
                c.session = None;
                (PageKind::Logout, user)
            }
        };
        if kind == PageKind::Login {
            if let Some(s) = &mut c.session {
                s.logged_in = true;
            }
        }

        // Execute the page functionally.
        let stats = execute_page(&env, kind, user, config, &mut c.rng)?;

        // Price it and advance virtual time through the resources.
        let db_reads = (stats.queries - stats.writes).saturating_sub(stats.cache_hit_queries);
        let charge =
            config
                .cost
                .page_charge(&stats.db_cost, db_reads, stats.writes, stats.cache_ops);
        let start = c.now;
        let mut t = start;
        let (cpu_demand, cache_demand) = if config.colocated_cache {
            // memcached shares the DB box: its work occupies the DB CPU.
            (charge.db_cpu + charge.cache, genie_sim::SimDuration::ZERO)
        } else {
            (charge.db_cpu, charge.cache)
        };
        if !cpu_demand.is_zero() {
            t = db_cpu.acquire(t, cpu_demand).end;
        }
        if !charge.db_disk.is_zero() {
            t = db_disk.acquire(t, charge.db_disk).end;
        }
        if !cache_demand.is_zero() {
            t = cache_srv.acquire(t, cache_demand).end;
        }
        let latency = t - start;
        c.now = t;

        // Warm-up bookkeeping: a client is "measured" once it has consumed
        // its warm-up sessions.
        let in_warmup =
            c.sessions_left + usize::from(c.session.is_some()) > config.sessions_per_client;
        if in_warmup {
            warmup_done_at = warmup_done_at.max(t);
        } else {
            if measure_start.is_none() {
                measure_start = Some(start);
                // Reset counters at the measurement boundary so hit ratios
                // and utilization reflect steady state.
                env.db.reset_stats();
                env.cluster.reset_stats();
                env.genie.reset_stats();
                db_cpu.reset_stats();
                db_disk.reset_stats();
                cache_srv.reset_stats();
            }
            measured_pages += 1;
            metrics.entry(kind).or_default().push(latency);
        }

        if c.sessions_left > 0 || c.session.is_some() {
            heap.push(Reverse((c.now, c.id)));
        }
    }

    let end = clients
        .iter()
        .map(|c| c.now)
        .fold(SimTime::ZERO, SimTime::max);
    let measure_start = measure_start.unwrap_or(warmup_done_at);
    let duration = end.saturating_since(measure_start);
    let horizon = SimTime::ZERO + duration;

    Ok(RunResult {
        mode: config.mode,
        pages_completed: measured_pages,
        duration,
        throughput_pages_per_sec: if duration.as_secs_f64() > 0.0 {
            measured_pages as f64 / duration.as_secs_f64()
        } else {
            0.0
        },
        per_page: metrics,
        cache_stats: env.cluster.stats(),
        per_server: env.cluster.per_server_stats(),
        genie_stats: env.genie.stats(),
        db_stats: env.db.stats(),
        pool_stats: env.db.pool_stats(),
        db_cpu_utilization: db_cpu.utilization(horizon),
        db_disk_utilization: db_disk.utilization(horizon),
        cache_utilization: cache_srv.utilization(horizon),
    })
}

/// Builds the deployment for a mode.
fn deploy(config: &WorkloadConfig) -> Result<AppEnv> {
    let strategy = match config.mode {
        CacheMode::NoCache => None,
        CacheMode::Invalidate => Some(ConsistencyStrategy::Invalidate),
        CacheMode::Update => Some(ConsistencyStrategy::UpdateInPlace),
    };
    build_app(&AppConfig {
        db: DbConfig {
            buffer_pool_bytes: config.db_buffer_pool_bytes,
        },
        cluster: ClusterConfig {
            servers: config.cache_servers.max(1),
            capacity_bytes: config.cache_bytes,
            bump_lru_on_trigger: config.bump_lru_on_trigger,
            ..Default::default()
        },
        genie: cachegenie::GenieConfig {
            reuse_trigger_connections: config.reuse_trigger_connections,
        },
        seed: config.seed.clone(),
        strategy,
    })
}

fn draw_page(mix: &crate::spec::PageMix, rng: &mut StdRng) -> PageKind {
    let total = mix.total().max(1);
    let roll = rng.gen_range(0..total);
    if roll < mix.lookup_bm {
        PageKind::LookupBM
    } else if roll < mix.lookup_bm + mix.lookup_fbm {
        PageKind::LookupFBM
    } else if roll < mix.lookup_bm + mix.lookup_fbm + mix.create_bm {
        PageKind::CreateBM
    } else if roll < mix.lookup_bm + mix.lookup_fbm + mix.create_bm + mix.accept_fr {
        PageKind::AcceptFR
    } else {
        PageKind::BatchPost
    }
}

fn execute_page(
    env: &AppEnv,
    kind: PageKind,
    user: i64,
    config: &WorkloadConfig,
    rng: &mut StdRng,
) -> Result<PageStats> {
    match kind {
        PageKind::Login => env.app.login(user),
        PageKind::Logout => env.app.logout(user),
        PageKind::LookupBM => env.app.lookup_bm(user),
        PageKind::LookupFBM => env.app.lookup_fbm(user),
        PageKind::CreateBM => {
            // Mostly existing URLs (bumping instance counts), sometimes a
            // brand-new bookmark.
            let pool = config.seed.unique_bookmarks.max(1);
            let n = rng.gen_range(1..=pool + pool / 4 + 1);
            env.app
                .create_bm(user, &format!("http://bookmark.example/{n}"))
        }
        PageKind::AcceptFR => {
            let peer = rng.gen_range(1..=config.seed.users.max(2)) as i64;
            env.app.accept_fr(user, peer)
        }
        PageKind::BatchPost => {
            // A burst of posts to one (often hot) wall in a single
            // transaction; a configurable fraction rolls back, proving
            // the commit pipeline publishes nothing for them.
            let wall = rng.gen_range(1..=config.seed.users.max(2)) as i64;
            let abort = rng.gen_range(0..100u32) < config.batch_abort_pct;
            env.app
                .post_wall_batch(wall, user, config.batch_posts_per_txn, abort)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_completes_and_reports() {
        let mut cfg = WorkloadConfig::smoke();
        cfg.mode = CacheMode::Update;
        let r = run(&cfg).unwrap();
        assert!(r.pages_completed > 0);
        assert!(r.throughput_pages_per_sec > 0.0);
        assert!(r.mean_latency_s() > 0.0);
        assert!(!r.per_page.is_empty());
        // Cache saw traffic in Update mode.
        assert!(r.cache_stats.store.gets > 0);
    }

    #[test]
    fn nocache_issues_no_cache_traffic() {
        let mut cfg = WorkloadConfig::smoke();
        cfg.mode = CacheMode::NoCache;
        let r = run(&cfg).unwrap();
        assert_eq!(r.cache_stats.store.gets, 0);
        assert_eq!(r.genie_stats.cache_hits, 0);
        assert!(r.pages_completed > 0);
    }

    #[test]
    fn update_beats_nocache_on_default_mix() {
        let base = WorkloadConfig {
            clients: 6,
            sessions_per_client: 6,
            warmup_sessions_per_client: 2,
            pages_per_session: 6,
            seed: genie_social::SeedConfig::tiny(),
            db_buffer_pool_bytes: 48 * 1024,
            ..Default::default()
        };
        let nocache = run(&WorkloadConfig {
            mode: CacheMode::NoCache,
            ..base.clone()
        })
        .unwrap();
        let update = run(&WorkloadConfig {
            mode: CacheMode::Update,
            ..base
        })
        .unwrap();
        assert!(
            update.throughput_pages_per_sec > nocache.throughput_pages_per_sec,
            "update {:.1} vs nocache {:.1} pages/s",
            update.throughput_pages_per_sec,
            nocache.throughput_pages_per_sec
        );
    }

    #[test]
    fn triggers_off_runs_and_is_faster_for_update() {
        let base = WorkloadConfig {
            mode: CacheMode::Update,
            clients: 4,
            sessions_per_client: 5,
            warmup_sessions_per_client: 1,
            pages_per_session: 5,
            seed: genie_social::SeedConfig::tiny(),
            ..Default::default()
        };
        let with = run(&base).unwrap();
        let without = run(&WorkloadConfig {
            triggers_enabled: false,
            ..base
        })
        .unwrap();
        assert!(
            without.throughput_pages_per_sec >= with.throughput_pages_per_sec,
            "ideal (no triggers) {:.1} must be >= real {:.1}",
            without.throughput_pages_per_sec,
            with.throughput_pages_per_sec
        );
    }

    #[test]
    fn batch_post_mix_commits_coalesced_and_rolls_back() {
        let mut cfg = WorkloadConfig::smoke();
        cfg.mode = CacheMode::Update;
        cfg.mix.batch_post = 40; // heavy transactional share
        cfg.batch_abort_pct = 50;
        cfg.sessions_per_client = 6;
        let r = run(&cfg).unwrap();
        assert!(r.pages_completed > 0);
        assert!(
            r.db_stats.commits > 0,
            "batch pages commit: {:?}",
            r.db_stats
        );
        assert!(
            r.db_stats.rollbacks > 0,
            "abort mix rolls back: {:?}",
            r.db_stats
        );
        // Commit-time coalescing: committed transactions' physical cache
        // ops never exceed the per-statement (naive) baseline.
        let g = r.genie_stats;
        assert!(g.commit_batches > 0, "commit pipeline engaged: {g:?}");
        assert!(
            g.commit_cache_ops <= g.commit_cache_ops_naive,
            "coalesced {} > naive {}",
            g.commit_cache_ops,
            g.commit_cache_ops_naive
        );
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let cfg = WorkloadConfig::smoke();
        let a = run(&cfg).unwrap();
        let b = run(&cfg).unwrap();
        assert_eq!(a.pages_completed, b.pages_completed);
        assert_eq!(a.duration, b.duration);
        assert!((a.throughput_pages_per_sec - b.throughput_pages_per_sec).abs() < 1e-9);
    }

    #[test]
    fn colocated_mode_shifts_cache_load_to_db() {
        let base = WorkloadConfig {
            mode: CacheMode::Update,
            clients: 4,
            sessions_per_client: 4,
            warmup_sessions_per_client: 1,
            pages_per_session: 4,
            seed: genie_social::SeedConfig::tiny(),
            ..Default::default()
        };
        let separate = run(&base).unwrap();
        let colocated = run(&WorkloadConfig {
            colocated_cache: true,
            ..base
        })
        .unwrap();
        assert_eq!(colocated.cache_utilization, 0.0);
        assert!(colocated.throughput_pages_per_sec <= separate.throughput_pages_per_sec);
    }
}
