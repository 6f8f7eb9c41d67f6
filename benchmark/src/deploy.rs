//! Building a deployment: database, seed data, cache fill, server.
//!
//! Everything a run writes lives in one per-process scratch directory
//! beside the benchmark executable (inside the build directory, so inside
//! the checkout), removed on every exit path.

use crate::trace::Tracer;
use crate::workloads::{Workload, CLIENTS};
use crate::Res;
use cachegenie_repro::cache::ClusterConfig;
use cachegenie_repro::orm::OrmSession;
use cachegenie_repro::server::{Server, ServerConfig};
use cachegenie_repro::social::{self, AppConfig, AppEnv, SeedConfig, SocialApp};
use cachegenie_repro::storage::{Database, DbConfig, WalConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// The seeded population is part of the deployment, like the schema: it
/// is the same for every `--seed`, which draws only the request streams.
/// (Per-seed populations made the hottest users' list lengths — and with
/// them every metric — differ by several percent from seed to seed.)
const POPULATION_SEED: u64 = 42;

static SCRATCH: OnceLock<PathBuf> = OnceLock::new();
static NEXT_DIR: AtomicUsize = AtomicUsize::new(0);

/// The per-process scratch directory (created on first use).
pub fn scratch() -> Res<&'static Path> {
    if let Some(p) = SCRATCH.get() {
        return Ok(p);
    }
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .ok_or("benchmark executable has no parent directory")?
        .join(format!("bench-tmp-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    Ok(SCRATCH.get_or_init(|| dir))
}

/// Removes the scratch directory. Called from every exit path: the end
/// of `main`, the error path, and the watchdog.
pub fn remove_scratch() {
    if let Some(p) = SCRATCH.get() {
        let _ = std::fs::remove_dir_all(p);
    }
}

/// A fresh, empty directory under the scratch directory.
pub fn fresh_dir(label: &str) -> Res<PathBuf> {
    let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
    let dir = scratch()?.join(format!("{label}-{n}"));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// A deployment: the seeded, cache-filled application.
pub struct Live {
    /// Database, cache cluster, CacheGenie, application facade.
    pub env: AppEnv,
    /// WAL directory of a durable deployment.
    pub wal_dir: Option<PathBuf>,
    /// Seconds spent building the deployment and starting its server.
    pub setup_s: f64,
}

impl Live {
    /// Deletes what the deployment left on disk.
    pub fn discard(self) {
        if let Some(dir) = &self.wal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Builds the workload's deployment and starts its server (2 workers) on
/// `127.0.0.1:0`: database
/// (durable ones get a fresh WAL directory and `WalConfig::default()`:
/// group commit, real `fdatasync`), seed data, the 14 cached objects, one
/// in-process pass of the four read pages for every user in id order
/// (cache fill), then the server. With a tracer, its interceptor wraps
/// CacheGenie's before the server starts.
pub fn bring_up(w: &Workload, tracer: Option<&Arc<Tracer>>) -> Res<(Live, Server)> {
    let t0 = Instant::now();
    let (db, wal_dir) = if w.durable {
        let dir = fresh_dir("wal")?;
        let db = Database::create_durable(&dir, DbConfig::default(), WalConfig::default())?;
        (db, Some(dir))
    } else {
        (Database::new(DbConfig::default()), None)
    };
    let config = AppConfig {
        cluster: ClusterConfig {
            capacity_bytes: w.cache_bytes,
            ..ClusterConfig::default()
        },
        seed: SeedConfig {
            users: w.users,
            rng_seed: POPULATION_SEED,
            ..SeedConfig::default()
        },
        ..AppConfig::default()
    };
    let env = if w.durable {
        // `build_app_on` seeds with one autocommit — one log sync — per
        // row, which makes set-up time a measurement of the device
        // (`fdatasync` here drifts between 90 and 280 µs within minutes).
        // Seeding inside one transaction first costs one sync;
        // `build_app_on` then finds the users and leaves them alone.
        let registry = Arc::new(social::build_registry()?);
        registry.sync(&db)?;
        let seeder = SocialApp::new(OrmSession::new(db.clone(), registry));
        db.transaction(|_| social::seed(&seeder, &config.seed))?;
        let env = social::build_app_on(db, &config)?;
        // The new facade's logical clock restarts; move it past the
        // seeded timestamps so new wall posts sort after seeded ones, as
        // they do on the in-memory deployments.
        let seeded_until = seeder.next_ts();
        while env.app.next_ts() < seeded_until {}
        env
    } else {
        social::build_app_on(db, &config)?
    };
    for user in 1..=env.seeded.users as i64 {
        env.app.lookup_bm(user)?;
        env.app.lookup_fbm(user)?;
        env.app.view_wall(user)?;
        env.app.view_groups(user)?;
    }
    if let Some(tracer) = tracer {
        tracer.install(&env);
    }
    let server = Server::start(
        &env,
        ServerConfig {
            workers: CLIENTS,
            ..ServerConfig::default()
        },
    )?;
    let live = Live {
        env,
        wal_dir,
        setup_s: t0.elapsed().as_secs_f64(),
    };
    Ok((live, server))
}
