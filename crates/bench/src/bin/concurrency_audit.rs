//! CI gate for the multi-writer engine: a thread-count sweep over the
//! transactional mix that must terminate (no livelock), keep the
//! write-conflict rate under a fixed ceiling, and pass the post-run
//! cache/database coherence cross-check with zero violations.
//!
//! The sweep ends with an MVCC readers+writers scenario: dedicated
//! reader transactions run against BatchPost writers that hold
//! uncommitted versions across real think time. Because snapshot
//! readers never wait and the writers' rows are disjoint, the gate
//! requires **zero waits** (nothing ever blocked on a writer), **zero
//! reader errors**, and **zero intra-transaction snapshot violations**.
//!
//! A serving scenario then re-checks the same guarantees through the
//! network front-end: a loopback-TCP client fleet interleaving
//! `snapshot` MVCC probes with writes must see zero snapshot
//! violations, drain without dropping a request or leaking a pooled
//! session, and leave the cache coherent.
//!
//! ```text
//! cargo run --release -p genie-bench --bin concurrency_audit            # report
//! cargo run --release -p genie-bench --bin concurrency_audit -- --check # CI gate
//! ```

use genie_bench::finish_checks;
use genie_social::SeedConfig;
use genie_workload::{run_concurrent, run_serve, ConcurrencyConfig, ServeConfig};

/// First-updater-wins conflicts may claim at most this fraction of
/// attempts on the adversarial all-poke mix. Conflicts are correct
/// behaviour under snapshot isolation (the writer that got to a row
/// second loses, instead of overwriting blind), but past this ceiling
/// the mix makes no progress worth measuring.
const CONFLICT_RATE_CEILING: f64 = 0.80;

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let mut failures: Vec<String> = Vec::new();

    println!("concurrency audit: thread sweep over the transactional mix\n");
    println!(
        "{:<26} {:>7} {:>9} {:>10} {:>13} {:>9} {:>10}",
        "configuration", "threads", "txn/s", "conflicts", "conflict_rate", "checked", "violations"
    );
    for (name, threads, poke_pct, users) in [
        ("batch-post mix", 1, 25, 40),
        ("batch-post mix", 2, 25, 40),
        ("batch-post mix", 4, 25, 40),
        // Adversarial: every transaction updates two hot rows in random
        // order — maximal first-updater-wins conflict pressure.
        ("all-poke hot rows", 4, 100, 4),
    ] {
        let cfg = ConcurrencyConfig {
            threads,
            txns_per_thread: 150,
            poke_pct,
            seed: SeedConfig {
                users,
                ..SeedConfig::tiny()
            },
            ..Default::default()
        };
        let r = match run_concurrent(&cfg) {
            Ok(r) => r,
            Err(e) => {
                failures.push(format!("{name} ({threads} threads): run failed: {e}"));
                continue;
            }
        };
        println!(
            "{:<26} {:>7} {:>9.0} {:>10} {:>13.3} {:>9} {:>10}",
            name,
            threads,
            r.throughput_txns_per_sec,
            r.write_conflicts,
            r.conflict_rate(),
            r.checked_objects,
            r.coherence_violations
        );
        if r.errors + r.read_errors > 0 {
            failures.push(format!(
                "{name} ({threads} threads): {} txn errors, {} read errors",
                r.errors, r.read_errors
            ));
        }
        if r.committed == 0 {
            failures.push(format!(
                "{name} ({threads} threads): no commits (livelock?)"
            ));
        }
        if r.coherence_violations > 0 {
            failures.push(format!(
                "{name} ({threads} threads): {} coherence violations over {} objects",
                r.coherence_violations, r.checked_objects
            ));
        }
        if r.conflict_rate() > CONFLICT_RATE_CEILING {
            failures.push(format!(
                "{name} ({threads} threads): write-conflict rate {:.3} above ceiling {CONFLICT_RATE_CEILING}",
                r.conflict_rate()
            ));
        }
    }

    // MVCC gate: snapshot readers against writers holding uncommitted
    // versions must never block, never fail, and never observe a torn
    // snapshot.
    let mvcc_cfg = ConcurrencyConfig {
        threads: 2,
        txns_per_thread: 100,
        poke_pct: 0, // disjoint inserts: nothing may wait
        abort_pct: 0,
        read_every: 0, // reads come from the dedicated reader threads
        reader_threads: 3,
        reads_per_reader_txn: 4,
        think_us: 100,
        seed: SeedConfig {
            users: 40,
            ..SeedConfig::tiny()
        },
        ..Default::default()
    };
    match run_concurrent(&mvcc_cfg) {
        Ok(r) => {
            println!(
                "{:<26} {:>7} {:>9.0} {:>10} {:>13.3} {:>9} {:>10}",
                "mvcc readers+writers",
                "2+3r",
                r.read_txns_per_sec,
                r.write_conflicts,
                r.conflict_rate(),
                r.checked_objects,
                r.coherence_violations
            );
            if r.lock_waits != 0 {
                failures.push(format!(
                    "mvcc readers+writers: {} waits — a snapshot reader (or disjoint writer) blocked",
                    r.lock_waits
                ));
            }
            if r.snapshot_violations != 0 {
                failures.push(format!(
                    "mvcc readers+writers: {} snapshot violations (repeated reads inside one txn disagreed)",
                    r.snapshot_violations
                ));
            }
            if r.read_txns == 0 || r.committed == 0 {
                failures.push("mvcc readers+writers: no progress".to_owned());
            }
            if r.errors + r.read_errors > 0 {
                failures.push(format!(
                    "mvcc readers+writers: {} txn errors, {} read errors",
                    r.errors, r.read_errors
                ));
            }
            if r.coherence_violations > 0 {
                failures.push(format!(
                    "mvcc readers+writers: {} coherence violations",
                    r.coherence_violations
                ));
            }
        }
        Err(e) => failures.push(format!("mvcc readers+writers: run failed: {e}")),
    }

    // Latch-sharding gate: writers pinned to disjoint tables share
    // nothing above the catalog read latch, so the per-table latch
    // counters must stay at **zero** — any table-latch wait means two
    // statements on different tables still serialized somewhere.
    let disjoint_cfg = ConcurrencyConfig {
        threads: 4,
        txns_per_thread: 100,
        posts_per_txn: 3,
        think_us: 50,
        disjoint_tables: true,
        seed: SeedConfig {
            users: 20,
            ..SeedConfig::tiny()
        },
        ..Default::default()
    };
    match run_concurrent(&disjoint_cfg) {
        Ok(r) => {
            println!(
                "{:<26} {:>7} {:>9.0} {:>10} {:>13.3} {:>9} {:>10}",
                "disjoint-table latch mix",
                4,
                r.throughput_txns_per_sec,
                r.write_conflicts,
                r.conflict_rate(),
                r.checked_objects,
                r.coherence_violations
            );
            if r.latch_table_waits != 0 {
                failures.push(format!(
                    "disjoint-table latch mix: {} table-latch waits — disjoint writers \
                     must never meet on a per-table latch (total latch waits {})",
                    r.latch_table_waits, r.latch_waits
                ));
            }
            if r.errors + r.read_errors > 0 {
                failures.push(format!(
                    "disjoint-table latch mix: {} txn errors, {} read errors",
                    r.errors, r.read_errors
                ));
            }
            if r.committed != 4 * 100 {
                failures.push(format!(
                    "disjoint-table latch mix: {} of {} txns committed (nothing may abort \
                     on disjoint tables)",
                    r.committed,
                    4 * 100
                ));
            }
            if r.coherence_violations > 0 {
                failures.push(format!(
                    "disjoint-table latch mix: {} coherence violations",
                    r.coherence_violations
                ));
            }
        }
        Err(e) => failures.push(format!("disjoint-table latch mix: run failed: {e}")),
    }

    // Cache-tier gate: the cache-heavy mix on four servers runs through
    // a node kill and rejoin. The schedule must actually execute, and
    // the post-run sweep must find zero coherence violations.
    let cache_cfg = ConcurrencyConfig {
        threads: 4,
        txns_per_thread: 90,
        read_every: 1, // a cached read after every transaction
        // Skewed onto users 1-4: traffic concentrates on the keys the
        // kill moves.
        hot_read_pct: 80,
        node_kill: true,
        cluster: genie_cache::ClusterConfig {
            servers: 4,
            ..Default::default()
        },
        seed: SeedConfig {
            users: 20,
            ..SeedConfig::tiny()
        },
        ..Default::default()
    };
    match run_concurrent(&cache_cfg) {
        Ok(r) => {
            println!(
                "{:<26} {:>7} {:>9.0} {:>10} {:>13.3} {:>9} {:>10}",
                "cache tier kill/rejoin",
                4,
                r.throughput_txns_per_sec,
                r.write_conflicts,
                r.conflict_rate(),
                r.checked_objects,
                r.coherence_violations
            );
            if r.node_kills != 1 || r.node_revives != 1 {
                failures.push(format!(
                    "cache tier kill/rejoin: schedule did not execute \
                     ({} kills / {} revives, expected 1/1)",
                    r.node_kills, r.node_revives
                ));
            }
            if r.coherence_violations > 0 {
                failures.push(format!(
                    "cache tier kill/rejoin: {} coherence violations over {} objects \
                     through a node kill",
                    r.coherence_violations, r.checked_objects
                ));
            }
            if r.errors + r.read_errors > 0 {
                failures.push(format!(
                    "cache tier kill/rejoin: {} txn errors, {} read errors",
                    r.errors, r.read_errors
                ));
            }
        }
        Err(e) => failures.push(format!("cache tier kill/rejoin: run failed: {e}")),
    }

    // Serving gate: the same isolation and coherence guarantees must
    // hold when clients arrive over loopback TCP through the full
    // middleware stack. Every fourth request is a protocol-level MVCC
    // probe (`snapshot` page: repeated reads inside one transaction);
    // the drain must drop nothing and leak no pooled session, and the
    // post-drain sweep must find the cache coherent.
    let serve_cfg = ServeConfig {
        clients: 6,
        requests_per_client: 60,
        snapshot_every: 4,
        server: genie_server::ServerConfig {
            workers: 6,
            ..Default::default()
        },
        ..Default::default()
    };
    match run_serve(&serve_cfg) {
        Ok(r) => {
            println!(
                "{:<26} {:>7} {:>9.0} {:>10} {:>13} {:>9} {:>10}",
                "serve front-end mvcc",
                6,
                r.achieved_qps,
                "-",
                "-",
                r.checked_objects,
                r.coherence_violations
            );
            if r.requests_ok == 0 {
                failures.push("serve front-end: no request succeeded".to_owned());
            }
            if r.requests_failed != 0 {
                failures.push(format!(
                    "serve front-end: {} non-retryable request failures",
                    r.requests_failed
                ));
            }
            if r.snapshot_violations != 0 {
                failures.push(format!(
                    "serve front-end: {} snapshot probes saw a torn repeat read",
                    r.snapshot_violations
                ));
            }
            if r.coherence_violations > 0 {
                failures.push(format!(
                    "serve front-end: {} coherence violations over {} objects",
                    r.coherence_violations, r.checked_objects
                ));
            }
            match r.shutdown {
                Some(rep) => {
                    if rep.dropped_in_flight != 0 || rep.leaked_sessions != 0 {
                        failures.push(format!(
                            "serve front-end: drain dropped {} in-flight requests, \
                             leaked {} sessions",
                            rep.dropped_in_flight, rep.leaked_sessions
                        ));
                    }
                }
                None => failures.push("serve front-end: no shutdown report".to_owned()),
            }
        }
        Err(e) => failures.push(format!("serve front-end: run failed: {e}")),
    }

    // Durability gate: the full writer mix on a durable database, with
    // a crash image copied out of the live log directory mid-run and
    // fuzzy checkpoints firing concurrently. The torn image must
    // recover to a committed prefix that still passes the coherence
    // sweep, and the final quiescent directory must recover to the
    // exact post-run state (digest + epoch).
    let base = std::env::temp_dir().join(format!("genie-audit-wal-{}", std::process::id()));
    let wal_dir = base.join("live");
    let copy_dir = base.join("crash");
    let durable_cfg = ConcurrencyConfig {
        threads: 4,
        txns_per_thread: 120,
        wal_dir: Some(wal_dir.clone()),
        crash_copy_dir: Some(copy_dir.clone()),
        wal_config: genie_storage::WalConfig {
            checkpoint_every: 200,
            ..Default::default()
        },
        seed: SeedConfig {
            users: 20,
            ..SeedConfig::tiny()
        },
        ..Default::default()
    };
    match run_concurrent(&durable_cfg) {
        Ok(r) => {
            println!(
                "{:<26} {:>7} {:>9.0} {:>10} {:>13.3} {:>9} {:>10}",
                "durable mix + crash image",
                4,
                r.throughput_txns_per_sec,
                r.write_conflicts,
                r.conflict_rate(),
                r.checked_objects,
                r.coherence_violations
            );
            if r.errors + r.read_errors > 0 {
                failures.push(format!(
                    "durable mix: {} txn errors, {} read errors",
                    r.errors, r.read_errors
                ));
            }
            if r.coherence_violations > 0 {
                failures.push(format!(
                    "durable mix: {} coherence violations",
                    r.coherence_violations
                ));
            }
            if !r.crash_copy_taken {
                failures.push("durable mix: mid-run crash image was never taken".to_owned());
            }
            if r.wal_checkpoints == 0 {
                failures.push("durable mix: no fuzzy checkpoint fired mid-run".to_owned());
            }
            // Recover the torn mid-run image and run the full app +
            // coherence sweep on top of it: a recovered prefix is a
            // valid deployment, not just a pile of rows.
            match genie_storage::Database::open_with_recovery(&copy_dir) {
                Ok(recovered) => {
                    if recovered.commit_epoch() > r.commit_epoch {
                        failures.push(format!(
                            "durable mix: crash image recovered epoch {} beyond the live run's {}",
                            recovered.commit_epoch(),
                            r.commit_epoch
                        ));
                    }
                    match genie_social::build_app_on(
                        recovered,
                        &genie_social::AppConfig {
                            seed: durable_cfg.seed.clone(),
                            ..Default::default()
                        },
                    ) {
                        Ok(env) => {
                            if env.seeded.rows != 0 {
                                failures.push(
                                    "durable mix: recovered deployment re-seeded over live data"
                                        .to_owned(),
                                );
                            }
                            for user in 1..=20i64 {
                                for name in ["wall_post_count", "friend_count", "user_by_id"] {
                                    match env
                                        .genie
                                        .verify_coherence(name, &[genie_storage::Value::Int(user)])
                                    {
                                        Ok(true) => {}
                                        Ok(false) => failures.push(format!(
                                            "durable mix: recovered image incoherent on \
                                             {name}({user})"
                                        )),
                                        Err(e) => failures.push(format!(
                                            "durable mix: coherence sweep on recovered image \
                                             failed: {e}"
                                        )),
                                    }
                                }
                            }
                        }
                        Err(e) => failures.push(format!(
                            "durable mix: rebuilding the app on the recovered image failed: {e}"
                        )),
                    }
                }
                Err(e) => failures.push(format!(
                    "durable mix: recovering the torn crash image failed: {e}"
                )),
            }
            // The quiescent final directory must reproduce the live
            // state bit-for-bit.
            match genie_storage::Database::open_with_recovery(&wal_dir) {
                Ok(recovered) => {
                    if recovered.commit_epoch() != r.commit_epoch
                        || recovered.content_digest() != r.content_digest
                    {
                        failures.push(format!(
                            "durable mix: final recovery diverged (epoch {} vs {}, \
                             digest {:#x} vs {:#x})",
                            recovered.commit_epoch(),
                            r.commit_epoch,
                            recovered.content_digest(),
                            r.content_digest
                        ));
                    }
                }
                Err(e) => failures.push(format!("durable mix: final recovery failed: {e}")),
            }
        }
        Err(e) => failures.push(format!("durable mix: run failed: {e}")),
    }
    let _ = std::fs::remove_dir_all(&base);

    finish_checks(
        "concurrency_audit",
        "all checks passed",
        "failure",
        &failures,
        check,
    );
}
