//! Cache-tier scale-out experiment: sharded lock-striped stores, hot-key
//! replication, and node failure/rejoin.
//!
//! Three legs; under `--check` every leg must run clean and legs 2 and 3
//! are gated:
//!
//! 1. **Thread sweep** (one server): aggregate cache-op throughput of the
//!    sharded CLOCK store at 1–8 client threads under a Zipf hot-key
//!    mix — reported, and checked for zero value/coherence violations.
//! 2. **Server sweep** (fixed load): p99 GET latency as the ring grows
//!    1→8 servers must stay near-flat (within [`P99_FLAT_FACTOR`]× of
//!    the single-server p99) — per-key work must not grow with cluster
//!    size.
//! 3. **Kill/rejoin** (full stack): the transactional cache-heavy mix
//!    with hot-key replication runs through a node kill and revive;
//!    the post-run sweep must find zero coherence violations and the
//!    hot keys must actually have served reads from replicas.
//!
//! ```text
//! cargo run --release -p genie-bench --bin exp_cache_scale
//! cargo run --release -p genie-bench --bin exp_cache_scale -- --check --quick
//! ```

use genie_bench::{finish_checks, write_result, BenchJson, TextTable};
use genie_cache::ClusterConfig;
use genie_workload::{run_cache_scale, run_concurrent, CacheScaleConfig, ConcurrencyConfig};

/// p99 GET latency at 8 servers may be at most this multiple of the
/// single-server p99. Generous on purpose: the gate catches per-key
/// work growing with cluster size, not scheduler noise on a small host.
const P99_FLAT_FACTOR: f64 = 3.0;

fn sharded(threads: usize, servers: usize, ops: usize) -> CacheScaleConfig {
    CacheScaleConfig {
        client_threads: threads,
        servers,
        shards_per_server: 16,
        ops_per_thread: ops,
        ..Default::default()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let quick = args.iter().any(|a| a == "--quick");
    let ops: usize = if quick { 16_000 } else { 40_000 };
    let mut failures: Vec<String> = Vec::new();
    let mut json = BenchJson::new("exp_cache_scale");

    // Leg 1: thread sweep on one server.
    println!("Cache-tier scale-out: sharded CLOCK stores");
    println!("({ops} ops/thread, Zipf key mix)\n");
    let threads_sweep = [1usize, 2, 4, 8];
    let mut table = TextTable::new(&["threads", "ops/s", "vs_1_thread"]);
    let mut shard_tp = Vec::new();
    // Best-of-5 per cell: sub-second measured phases on a small host see
    // real scheduler noise, and the best rep is the least-perturbed one.
    let reps = 5;
    for &t in &threads_sweep {
        let cfg = sharded(t, 1, ops);
        let mut best_tp = 0.0f64;
        for _ in 0..reps {
            let r = run_cache_scale(&cfg);
            if r.value_violations + r.coherence_violations > 0 {
                failures.push(format!("thread sweep at {t} threads was not clean: {r:?}"));
            }
            best_tp = best_tp.max(r.ops_per_sec);
        }
        shard_tp.push(best_tp);
        table.row(vec![
            t.to_string(),
            format!("{best_tp:.0}"),
            format!("{:.2}x", best_tp / shard_tp[0].max(1.0)),
        ]);
    }
    println!("{}", table.render());

    // Leg 2: server sweep, p99 GET latency must stay near-flat.
    let servers_sweep = [1usize, 2, 4, 8];
    let mut p99_table = TextTable::new(&["servers", "ops/s", "p50 us", "p99 us"]);
    let mut p99s = Vec::new();
    for &s in &servers_sweep {
        let r = run_cache_scale(&sharded(4, s, ops));
        if r.value_violations + r.coherence_violations > 0 {
            failures.push(format!("server sweep at {s} servers was not clean: {r:?}"));
        }
        p99_table.row(vec![
            s.to_string(),
            format!("{:.0}", r.ops_per_sec),
            format!("{:.1}", r.get_p50_us),
            format!("{:.1}", r.get_p99_us),
        ]);
        p99s.push(r.get_p99_us);
    }
    println!("{}", p99_table.render());
    let p99_ratio = p99s[p99s.len() - 1] / p99s[0].max(0.001);
    println!("p99 at 8 servers vs 1: {p99_ratio:.2}x (flatness bound {P99_FLAT_FACTOR:.1}x)\n");
    if check && p99_ratio > P99_FLAT_FACTOR {
        failures.push(format!(
            "p99 GET latency grew {p99_ratio:.2}x from 1 to 8 servers \
             (bound {P99_FLAT_FACTOR:.1}x)"
        ));
    }

    // Leg 3: full-stack kill/rejoin with hot-key replication.
    let kill = run_concurrent(&ConcurrencyConfig {
        threads: 4,
        txns_per_thread: if quick { 40 } else { 90 },
        read_every: 1,
        hot_read_pct: 80,
        node_kill: true,
        cluster: ClusterConfig {
            servers: 4,
            hot_key_replicas: 2,
            hot_key_threshold: 8,
            ..Default::default()
        },
        ..Default::default()
    })
    .expect("kill/rejoin run failed to deploy");
    println!(
        "kill/rejoin: {} committed, {} kills, {} revives, {} hot promotions, \
         {} replica reads, {} checked, {} violations",
        kill.committed,
        kill.node_kills,
        kill.node_revives,
        kill.cache_hot_promotions,
        kill.cache_replica_reads,
        kill.checked_objects,
        kill.coherence_violations
    );
    if kill.errors + kill.read_errors > 0 {
        failures.push(format!(
            "kill/rejoin run hit {} txn / {} read errors",
            kill.errors, kill.read_errors
        ));
    }
    if kill.node_kills != 1 || kill.node_revives != 1 {
        failures.push(format!(
            "failure schedule did not execute: {} kills / {} revives",
            kill.node_kills, kill.node_revives
        ));
    }
    if kill.coherence_violations > 0 {
        failures.push(format!(
            "{} coherence violations through node kill/rejoin",
            kill.coherence_violations
        ));
    }
    if kill.cache_hot_promotions == 0 {
        failures.push("hot-key detector never promoted a key".into());
    }
    if kill.cache_replica_reads == 0 {
        failures.push("no read was ever served by a hot-key replica".into());
    }

    write_result(
        "exp_cache_scale.csv",
        &format!("{}\n{}", table.to_csv(), p99_table.to_csv()),
    );
    json = json
        .int("ops_per_thread", ops as u64)
        .ints(
            "threads",
            &threads_sweep.iter().map(|&t| t as u64).collect::<Vec<_>>(),
        )
        .nums("sharded_ops_per_sec", &shard_tp)
        .ints(
            "servers",
            &servers_sweep.iter().map(|&s| s as u64).collect::<Vec<_>>(),
        )
        .nums("get_p99_us_by_servers", &p99s)
        .num("p99_ratio_8_vs_1", p99_ratio)
        .int("kill_committed", kill.committed)
        .int("kill_hot_promotions", kill.cache_hot_promotions)
        .int("kill_replica_reads", kill.cache_replica_reads)
        .int("kill_checked_objects", kill.checked_objects)
        .int("kill_coherence_violations", kill.coherence_violations);
    json.write();

    if check {
        finish_checks(
            "exp_cache_scale",
            "all checks passed",
            "failure",
            &failures,
            true,
        );
    }
}
