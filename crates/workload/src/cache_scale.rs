//! Raw cache-tier scaling driver: N client threads hammer one
//! [`CacheCluster`] directly — no database, no triggers — with a
//! Zipf-skewed get/set mix, measuring aggregate cache-op throughput and
//! GET latency percentiles. This isolates the store's lock-striping and
//! eviction cost from everything else in the stack, which is what the
//! `exp_cache_scale` experiment sweeps:
//!
//! * **threads 1→8, one server**: throughput of the sharded CLOCK
//!   stores as client threads grow;
//! * **servers 1→8, fixed load**: p99 GET latency must stay near-flat
//!   as the ring grows;
//! * **kill/rejoin**: the same mix with a node failure schedule must
//!   finish with every surviving value byte-correct.
//!
//! Correctness is checked inline: every key's canonical payload is a
//! pure function of the key, writers only ever store that payload, so
//! any GET returning different bytes is a violation no matter how the
//! threads interleaved. A miss is always legal (eviction, node death).

use bytes::Bytes;
use genie_cache::{CacheCluster, CacheOrigin, ClusterConfig};
use genie_sim::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Configuration for one raw cache-tier run.
#[derive(Debug, Clone)]
pub struct CacheScaleConfig {
    /// Client threads issuing cache operations concurrently.
    pub client_threads: usize,
    /// Cache servers in the cluster.
    pub servers: usize,
    /// Lock-striped shards per server (1 = a single mutex per server).
    pub shards_per_server: usize,
    /// Distinct keys in the working set.
    pub keys: usize,
    /// Zipf exponent for key popularity (higher = hotter head).
    pub zipf_a: f64,
    /// Percentage of operations that are GETs (the rest are SETs).
    pub get_pct: u32,
    /// Operations each thread issues.
    pub ops_per_thread: usize,
    /// Canonical payload size per key, in bytes.
    pub value_bytes: usize,
    /// Total cluster capacity in bytes.
    pub capacity_bytes: usize,
    /// RNG seed (per-thread streams derive from it).
    pub rng_seed: u64,
    /// Kill server 1 a third of the way through the run and revive it
    /// at two thirds (requires `servers >= 2`).
    pub node_kill: bool,
}

impl Default for CacheScaleConfig {
    fn default() -> Self {
        CacheScaleConfig {
            client_threads: 4,
            servers: 1,
            shards_per_server: 16,
            keys: 8192,
            zipf_a: 1.2,
            get_pct: 90,
            ops_per_thread: 20_000,
            value_bytes: 128,
            capacity_bytes: 64 * 1024 * 1024,
            rng_seed: 7,
            node_kill: false,
        }
    }
}

/// Outcome of one raw cache-tier run.
#[derive(Debug, Clone, Default)]
pub struct CacheScaleResult {
    /// Client threads used.
    pub client_threads: usize,
    /// Servers in the cluster.
    pub servers: usize,
    /// Operations completed (gets + sets).
    pub ops: u64,
    /// GETs issued.
    pub gets: u64,
    /// SETs issued.
    pub sets: u64,
    /// GETs that returned a value.
    pub get_hits: u64,
    /// GETs that missed.
    pub get_misses: u64,
    /// Wall-clock duration of the measured phase.
    pub elapsed: Duration,
    /// Aggregate cache operations per wall-clock second.
    pub ops_per_sec: f64,
    /// Median GET latency in microseconds.
    pub get_p50_us: f64,
    /// 99th-percentile GET latency in microseconds.
    pub get_p99_us: f64,
    /// Nodes killed by the failure schedule.
    pub node_kills: u64,
    /// Nodes revived by the failure schedule.
    pub node_revives: u64,
    /// GETs that returned bytes different from the key's canonical
    /// payload — must be zero.
    pub value_violations: u64,
}

/// The one value `key_of(rank)` is ever stored under: byte-deterministic
/// in the rank, so readers can validate without shared bookkeeping. The
/// driver works on raw bytes (no payload codec) so the measured cost is
/// the store itself, not encode/decode.
fn canonical_bytes(rank: usize, value_bytes: usize) -> Bytes {
    let fill = (rank % 251) as u8;
    Bytes::from(vec![fill; value_bytes.max(1)])
}

fn key_of(rank: usize) -> String {
    format!("obj:{rank}")
}

#[derive(Default)]
struct ClientTally {
    gets: u64,
    sets: u64,
    get_hits: u64,
    get_misses: u64,
    value_violations: u64,
    node_kills: u64,
    node_revives: u64,
    latencies_ns: Vec<u64>,
}

/// Runs one raw cache-tier configuration to completion and validates
/// every surviving value afterwards.
///
/// # Panics
///
/// Panics if a client thread panics (a cache invariant broke) or the
/// configuration is inconsistent (`node_kill` with fewer than two
/// servers).
pub fn run_cache_scale(cfg: &CacheScaleConfig) -> CacheScaleResult {
    assert!(
        !cfg.node_kill || cfg.servers >= 2,
        "node_kill needs at least two cache servers"
    );
    let cluster = CacheCluster::new(ClusterConfig {
        servers: cfg.servers.max(1),
        capacity_bytes: cfg.capacity_bytes,
        shards_per_server: cfg.shards_per_server.max(1),
        ..Default::default()
    });
    let handle = cluster.handle(CacheOrigin::Application);
    // Key strings and canonical values are precomputed so the measured
    // loop allocates nothing of its own: every nanosecond difference
    // between configurations comes from inside the store.
    let keys: Arc<Vec<String>> = Arc::new((1..=cfg.keys).map(key_of).collect());
    let canon: Arc<Vec<Bytes>> = Arc::new(
        (1..=cfg.keys)
            .map(|rank| canonical_bytes(rank, cfg.value_bytes))
            .collect(),
    );
    // Pre-populate so the measured phase starts warm; SETs thereafter
    // rewrite the same canonical bytes.
    for rank in 1..=cfg.keys {
        handle
            .set(&keys[rank - 1], canon[rank - 1].clone(), None)
            .expect("seeding the working set cannot fail");
    }
    let zipf = Arc::new(Zipf::new(cfg.keys.max(1), cfg.zipf_a));
    let threads = cfg.client_threads.max(1);
    let barrier = Arc::new(Barrier::new(threads));
    let total_ops = (threads * cfg.ops_per_thread) as u64;
    let progress = Arc::new(AtomicU64::new(0));

    let start = Instant::now();
    let handles: Vec<std::thread::JoinHandle<ClientTally>> = (0..threads)
        .map(|t| {
            let handle = cluster.handle(CacheOrigin::Application);
            let cluster = cluster.clone();
            let zipf = Arc::clone(&zipf);
            let keys = Arc::clone(&keys);
            let canon = Arc::clone(&canon);
            let barrier = Arc::clone(&barrier);
            let progress = Arc::clone(&progress);
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(cfg.rng_seed.wrapping_add(t as u64 * 7919));
                let mut tally = ClientTally {
                    latencies_ns: Vec::with_capacity(cfg.ops_per_thread / 8 + 1),
                    ..Default::default()
                };
                // The whole Zipf access sequence is drawn before the
                // clock starts: sampling cost is workload-generator
                // overhead, not cache cost, and must not dilute the
                // store-to-store comparison.
                let seq: Vec<u32> = (0..cfg.ops_per_thread)
                    .map(|_| zipf.sample(&mut rng) as u32)
                    .collect();
                barrier.wait();
                let (mut killed, mut revived) = (false, false);
                for (i, &rank32) in seq.iter().enumerate() {
                    // Failure schedule driven off global progress so it
                    // fires at the same workload fraction regardless of
                    // thread count; only thread 0 flips node state, and
                    // each transition happens exactly once. Thread 0's
                    // own progress is a floor: under scheduler skew it
                    // may run far ahead of the global counter, and both
                    // transitions must still fire before it runs out of
                    // iterations.
                    if cfg.node_kill && t == 0 {
                        let done = progress
                            .load(Ordering::Relaxed)
                            .max(i as u64 * threads as u64);
                        if !killed && done >= total_ops / 3 && cluster.kill_node(1) {
                            killed = true;
                            tally.node_kills += 1;
                        } else if killed && !revived && done >= 2 * total_ops / 3 {
                            if cluster.revive_node(1) {
                                tally.node_revives += 1;
                            }
                            revived = true;
                        }
                    }
                    let rank = rank32 as usize;
                    let key = &keys[rank - 1];
                    // Deterministic get/set interleave and a 1-in-8 GET
                    // latency sample: clock reads and extra RNG draws are
                    // shared loop overhead that would dilute the very
                    // store-cost difference the sweep exists to measure.
                    if i % 100 < cfg.get_pct as usize {
                        tally.gets += 1;
                        let sampled = tally.gets.is_multiple_of(8);
                        let t0 = sampled.then(Instant::now);
                        let got = handle.get(key);
                        if let Some(t0) = t0 {
                            tally.latencies_ns.push(t0.elapsed().as_nanos() as u64);
                        }
                        match got {
                            Some(b) => {
                                tally.get_hits += 1;
                                if b != canon[rank - 1] {
                                    tally.value_violations += 1;
                                }
                            }
                            None => tally.get_misses += 1,
                        }
                    } else {
                        tally.sets += 1;
                        let _ = handle.set(key, canon[rank - 1].clone(), None);
                    }
                    if cfg.node_kill {
                        progress.fetch_add(1, Ordering::Relaxed);
                    }
                }
                tally
            })
        })
        .collect();

    let mut result = CacheScaleResult {
        client_threads: threads,
        servers: cfg.servers.max(1),
        ..Default::default()
    };
    let mut latencies: Vec<u64> = Vec::new();
    for h in handles {
        let t = h.join().expect("cache client thread panicked");
        result.gets += t.gets;
        result.sets += t.sets;
        result.get_hits += t.get_hits;
        result.get_misses += t.get_misses;
        result.value_violations += t.value_violations;
        result.node_kills += t.node_kills;
        result.node_revives += t.node_revives;
        latencies.extend(t.latencies_ns);
    }
    result.elapsed = start.elapsed();
    result.ops = result.gets + result.sets;
    result.ops_per_sec = if result.elapsed.as_secs_f64() > 0.0 {
        result.ops as f64 / result.elapsed.as_secs_f64()
    } else {
        0.0
    };
    latencies.sort_unstable();
    result.get_p50_us = percentile_us(&latencies, 50.0);
    result.get_p99_us = percentile_us(&latencies, 99.0);

    // Quiesced: bring any still-dead node back (the sweep is defined
    // over the fully-alive ring — a short run can finish before the
    // schedule's revive point), then validate.
    for idx in 0..result.servers {
        if !cluster.is_alive(idx) && cluster.revive_node(idx) {
            result.node_revives += 1;
        }
    }
    for rank in 1..=cfg.keys {
        let key = &keys[rank - 1];
        // An absent copy is legal (evicted or rehashed away); a present
        // one must carry the canonical payload.
        if let Some(b) = handle.get(key) {
            if b != canon[rank - 1] {
                result.value_violations += 1;
            }
        }
    }
    result
}

/// `pct`-th percentile of sorted nanosecond samples, in microseconds.
fn percentile_us(sorted_ns: &[u64], pct: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((pct / 100.0) * (sorted_ns.len() - 1) as f64).round() as usize;
    sorted_ns[idx.min(sorted_ns.len() - 1)] as f64 / 1_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(threads: usize) -> CacheScaleConfig {
        CacheScaleConfig {
            client_threads: threads,
            ops_per_thread: 2_000,
            keys: 512,
            ..Default::default()
        }
    }

    #[test]
    fn sharded_run_is_clean() {
        let r = run_cache_scale(&quick(4));
        assert_eq!(r.ops, 4 * 2_000);
        assert_eq!(r.value_violations, 0, "{r:?}");
        assert!(r.get_hits > 0);
        assert!(r.get_p99_us >= r.get_p50_us);
    }

    /// One stripe per server: every key behind a single mutex.
    #[test]
    fn baseline_shape_is_clean_too() {
        let r = run_cache_scale(&CacheScaleConfig {
            shards_per_server: 1,
            ..quick(2)
        });
        assert_eq!(r.value_violations, 0, "{r:?}");
    }

    #[test]
    fn run_with_kill_stays_correct() {
        let r = run_cache_scale(&CacheScaleConfig {
            servers: 4,
            node_kill: true,
            ..quick(4)
        });
        assert_eq!(r.value_violations, 0, "{r:?}");
        assert_eq!(r.node_kills, 1, "{r:?}");
        assert_eq!(r.node_revives, 1, "{r:?}");
    }
}
