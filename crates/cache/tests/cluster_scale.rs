//! Scale-out cache tier tests: capacity split, lease-token audit,
//! consistent-hash stability properties, hot-key replication, and node
//! failure/rejoin.

use bytes::Bytes;
use genie_cache::{CacheCluster, CacheOrigin, ClusterConfig, Delta, Payload};
use proptest::prelude::*;

fn cluster(servers: usize) -> CacheCluster {
    CacheCluster::new(ClusterConfig {
        servers,
        capacity_bytes: 16 * 1024 * 1024,
        ..Default::default()
    })
}

/// A cluster with hot-key replication armed at a low threshold.
fn hot_cluster(servers: usize, replicas: usize, threshold: u64) -> CacheCluster {
    CacheCluster::new(ClusterConfig {
        servers,
        capacity_bytes: 16 * 1024 * 1024,
        hot_key_replicas: replicas,
        hot_key_threshold: threshold,
        ..Default::default()
    })
}

// ----- satellite: capacity split loses no remainder bytes -----

#[test]
fn capacity_split_preserves_every_byte() {
    // 1000 over 3 servers used to become 333*3 = 999; the remainder
    // byte must survive the split (and the per-shard split below it).
    for (total, servers) in [(1000, 3), (1_000_003, 7), (64 * 1024 * 1024 + 5, 6)] {
        let c = CacheCluster::new(ClusterConfig {
            servers,
            capacity_bytes: total,
            ..Default::default()
        });
        assert_eq!(
            c.capacity_bytes(),
            total,
            "{total} bytes over {servers} servers"
        );
    }
}

// ----- satellite: lease-token uniqueness and monotonicity -----

#[test]
fn lease_tokens_unique_and_monotonic_across_shards() {
    // Keys spread over all 16 lease shards; tokens must come from one
    // strictly increasing sequence, never colliding across shards.
    let c = cluster(4);
    let mut last = 0u64;
    for i in 0..2000 {
        let token = c.lease(&format!("key:{i}"));
        assert!(
            token > last,
            "token {token} after {last}: not strictly increasing"
        );
        last = token;
    }
}

#[test]
fn lease_token_never_validates_another_key() {
    // A token minted for key A (one lease shard) must not complete a
    // fill for key B (any shard), even though both are outstanding.
    let c = cluster(2);
    let h = c.handle(CacheOrigin::Application);
    for i in 0..64 {
        let a = format!("aa:{i}");
        let b = format!("bb:{i}");
        let tok_a = c.lease(&a);
        let tok_b = c.lease(&b);
        assert!(
            !h.fill(&b, Bytes::from_static(b"x"), None, tok_a).unwrap(),
            "key {b} accepted key {a}'s token"
        );
        assert!(h.fill(&b, Bytes::from_static(b"x"), None, tok_b).unwrap());
        assert!(h.fill(&a, Bytes::from_static(b"y"), None, tok_a).unwrap());
    }
}

// ----- satellite: consistent-hash stability properties -----

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Adding one server to N only ever moves a key TO the new server:
    /// a key whose arc is untouched keeps its placement exactly.
    #[test]
    fn grow_moves_keys_only_to_the_new_server(
        servers in 2usize..8,
        keys in prop::collection::vec("[a-z0-9:]{1,16}", 20..150),
    ) {
        let before = cluster(servers);
        let after = cluster(servers + 1);
        let mut moved = 0usize;
        for k in &keys {
            let old = before.server_for(k);
            let new = after.server_for(k);
            if old != new {
                prop_assert_eq!(
                    new, servers,
                    "key {} moved {} -> {}, not to the new server", k, old, new
                );
                moved += 1;
            }
        }
        // ~K/(N+1) expected; anything at or past half signals rehashing.
        prop_assert!(
            moved < keys.len().div_ceil(2),
            "moved {}/{} keys on grow", moved, keys.len()
        );
    }

    /// Killing one of N servers only remaps keys the victim owned;
    /// every other key keeps its placement through the kill.
    #[test]
    fn kill_remaps_only_the_victims_keys(
        servers in 3usize..8,
        victim_seed in any::<usize>(),
        keys in prop::collection::vec("[a-z0-9:]{1,16}", 20..150),
    ) {
        let c = cluster(servers);
        let victim = victim_seed % servers;
        let before: Vec<usize> = keys.iter().map(|k| c.server_for(k)).collect();
        assert!(c.kill_node(victim));
        let mut moved = 0usize;
        for (k, &old) in keys.iter().zip(&before) {
            let new = c.server_for(k);
            if old == victim {
                prop_assert_ne!(new, victim, "key {} still routed to dead node", k);
                moved += 1;
            } else {
                prop_assert_eq!(new, old, "untouched key {} moved {} -> {}", k, old, new);
            }
        }
        // Revive restores the exact original placement.
        assert!(c.revive_node(victim));
        for (k, &old) in keys.iter().zip(&before) {
            prop_assert_eq!(c.server_for(k), old, "placement changed after rejoin for {}", k);
        }
        prop_assert!(moved <= keys.len());
    }
}

// ----- hot-key replication -----

#[test]
fn hot_key_promotes_and_replicates() {
    let c = hot_cluster(4, 3, 8);
    let h = c.handle(CacheOrigin::Application);
    h.set_payload("celebrity", &Payload::Count(1), None)
        .unwrap();
    assert!(c.replica_set("celebrity").is_none());
    for _ in 0..20 {
        assert_eq!(
            h.get_payload("celebrity").unwrap().unwrap().as_count(),
            Some(1)
        );
    }
    let set = c.replica_set("celebrity").expect("promoted after 20 reads");
    assert_eq!(set.len(), 3, "three copies requested");
    assert_eq!(set[0], c.server_for("celebrity"), "primary leads the set");
    assert!(c.replicas_coherent("celebrity"));
    assert_eq!(c.stats().hot_key_promotions, 1);
    assert_eq!(c.stats().replicated_keys, 1);

    // Reads now spread over replicas (round-robin => non-primary serves).
    for _ in 0..12 {
        h.get("celebrity");
    }
    assert!(
        c.stats().replica_reads > 0,
        "no read was served by a non-primary replica"
    );
}

#[test]
fn writes_update_every_replica_atomically() {
    let c = hot_cluster(4, 3, 4);
    let h = c.handle(CacheOrigin::Application);
    h.set_payload("hot", &Payload::Count(0), None).unwrap();
    for _ in 0..10 {
        h.get("hot");
    }
    assert!(c.replica_set("hot").is_some());
    // Plain set, CAS, incr, fill, delete: every mutation must leave all
    // copies identical, and every replica read must see the new value.
    h.set_payload("hot", &Payload::Count(10), None).unwrap();
    assert!(c.replicas_coherent("hot"));
    for _ in 0..8 {
        assert_eq!(h.get_payload("hot").unwrap().unwrap().as_count(), Some(10));
    }
    let (_, tok) = h.gets_payload("hot").unwrap().unwrap();
    h.cas_payload("hot", &Payload::Count(11), tok, None)
        .unwrap();
    assert!(c.replicas_coherent("hot"));
    assert_eq!(h.incr("hot", 4).unwrap(), Some(15));
    assert!(c.replicas_coherent("hot"));
    for _ in 0..8 {
        assert_eq!(h.get_payload("hot").unwrap().unwrap().as_count(), Some(15));
    }
    let lease = c.lease("hot2");
    h.fill_payload("hot2", &Payload::Count(1), None, lease)
        .unwrap();
    assert!(h.delete("hot"));
    for _ in 0..8 {
        assert!(
            h.get("hot").is_none(),
            "a replica resurrected a deleted key"
        );
    }
}

#[test]
fn trigger_batch_publish_reaches_every_replica() {
    let c = hot_cluster(4, 3, 4);
    let app = c.handle(CacheOrigin::Application);
    app.set_payload("wall", &Payload::Count(0), None).unwrap();
    for _ in 0..10 {
        app.get("wall");
    }
    assert!(c.replica_set("wall").is_some());
    // A commit-pipeline batch: a recorded increment, then publish.
    c.begin_effect_batch();
    c.record("wall", Delta::Incr(5));
    c.commit_effect_batch();
    assert!(c.replicas_coherent("wall"));
    for _ in 0..8 {
        assert_eq!(
            app.get_payload("wall").unwrap().unwrap().as_count(),
            Some(5),
            "a replica served the pre-publish value"
        );
    }
}

// ----- node failure / rejoin -----

#[test]
fn kill_node_fails_over_hot_keys_and_misses_cold_ones() {
    let c = hot_cluster(4, 3, 4);
    let h = c.handle(CacheOrigin::Application);
    h.set_payload("hot", &Payload::Count(42), None).unwrap();
    for _ in 0..10 {
        h.get("hot");
    }
    let primary = c.server_for("hot");
    // Cold keys living on the hot key's primary.
    let mut cold_on_primary = Vec::new();
    for i in 0..200 {
        let k = format!("cold:{i}");
        if c.server_for(&k) == primary {
            h.set_payload(&k, &Payload::Count(i), None).unwrap();
            cold_on_primary.push(k);
        }
    }
    assert!(!cold_on_primary.is_empty());

    assert!(c.kill_node(primary));
    assert!(!c.is_alive(primary));
    assert_eq!(c.alive_count(), 3);
    assert_eq!(c.stats().dead_nodes, 1);

    // Hot key survives via replica promotion...
    assert_eq!(
        h.get_payload("hot").unwrap().unwrap().as_count(),
        Some(42),
        "hot key lost through node kill despite replicas"
    );
    let set = c.replica_set("hot").unwrap();
    assert!(!set.contains(&primary), "dead node still in replica set");
    assert!(c.replicas_coherent("hot"));
    // ...cold keys rehash as misses (their only copy died with the node).
    for k in &cold_on_primary {
        assert_ne!(c.server_for(k), primary);
        assert!(h.get(k).is_none(), "cold key {k} survived a node wipe?");
    }

    // Rejoin: the node comes back cold and rejoins the ring.
    assert!(c.revive_node(primary));
    assert!(c.is_alive(primary));
    assert_eq!(c.alive_count(), 4);
    assert!(c.replicas_coherent("hot"));
    assert_eq!(h.get_payload("hot").unwrap().unwrap().as_count(), Some(42));
}

#[test]
fn rejoin_never_resurrects_stale_values() {
    // The adversarial cycle: write v1, kill the owner, write v2 (lands
    // on the successor), revive the owner (rehash => miss), then kill
    // the owner AGAIN. If the successor kept its v2 copy after rejoin
    // that would now be correct — but if the *owner's* pre-kill v1 or
    // the successor's orphaned copy survived wrongly, a failover read
    // would serve stale data. The rejoin sweep must prevent that.
    let c = cluster(4);
    let h = c.handle(CacheOrigin::Application);
    let key = "k:stale";
    let owner = c.server_for(key);

    h.set_payload(key, &Payload::Count(1), None).unwrap();
    assert!(c.kill_node(owner));
    // The write during the outage lands on the ring successor.
    h.set_payload(key, &Payload::Count(2), None).unwrap();
    let successor = c.server_for(key);
    assert_ne!(successor, owner);

    assert!(c.revive_node(owner));
    // Rehash-as-miss: the revived owner is cold, and the successor's
    // orphaned copy was dropped by the rejoin sweep.
    assert!(
        h.get(key).is_none(),
        "rejoined node served a value it cannot have"
    );

    // Second failover: the successor must NOT serve the orphaned v2
    // (let alone v1) — the key was swept at rejoin.
    assert!(c.kill_node(owner));
    assert!(
        h.get(key).is_none(),
        "failover served a stale orphaned copy after rejoin cycle"
    );
    assert!(c.revive_node(owner));
}

#[test]
fn kill_refuses_last_alive_node_and_double_kill() {
    let c = cluster(2);
    assert!(c.kill_node(0));
    assert!(!c.kill_node(0), "double kill");
    assert!(!c.kill_node(1), "killing the last alive node");
    assert!(c.alive_count() == 1);
    assert!(!c.revive_node(1), "reviving an alive node");
    assert!(c.revive_node(0));
    assert!(!c.kill_node(7), "out of range");
}

#[test]
fn cluster_works_through_kill_revive_churn() {
    let c = hot_cluster(3, 2, 6);
    let h = c.handle(CacheOrigin::Application);
    for round in 0..3 {
        for i in 0..60 {
            h.set_payload(&format!("r{round}:k{i}"), &Payload::Count(i), None)
                .unwrap();
        }
        let victim = round % 3;
        assert!(c.kill_node(victim));
        // Everything still readable-or-miss, never wrong.
        for i in 0..60 {
            let k = format!("r{round}:k{i}");
            if let Some(p) = h.get_payload(&k).unwrap() {
                assert_eq!(p.as_count(), Some(i), "stale value for {k}");
            }
        }
        assert!(c.revive_node(victim));
    }
}
