//! Scale-out cache tier tests: capacity split, lease-token audit,
//! consistent-hash stability properties, and node failure/rejoin.

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

// ----- node failure / rejoin -----

#[test]
fn kill_node_misses_the_victims_keys_and_rejoins() {
    let c = cluster(4);
    let h = c.handle(CacheOrigin::Application);
    let victim = c.server_for("cold:0");
    // A key elsewhere on the ring keeps its value through it all.
    let kept = (0..)
        .map(|i| format!("kept:{i}"))
        .find(|k| c.server_for(k) != victim)
        .unwrap();
    h.set_payload(&kept, &Payload::Count(42), None).unwrap();
    // Keys living on the victim.
    let mut on_victim = Vec::new();
    for i in 0..200 {
        let k = format!("cold:{i}");
        if c.server_for(&k) == victim {
            h.set_payload(&k, &Payload::Count(i), None).unwrap();
            on_victim.push(k);
        }
    }
    assert!(!on_victim.is_empty());

    assert!(c.kill_node(victim));
    assert!(!c.is_alive(victim));
    assert_eq!(c.alive_count(), 3);
    assert_eq!(c.stats().dead_nodes, 1);

    assert_eq!(h.get_payload(&kept).unwrap().unwrap().as_count(), Some(42));
    // The victim's keys rehash as misses (their only copy died with
    // the node).
    for k in &on_victim {
        assert_ne!(c.server_for(k), victim);
        assert!(h.get(k).is_none(), "key {k} survived a node wipe?");
    }

    // Rejoin: the node comes back cold and rejoins the ring.
    assert!(c.revive_node(victim));
    assert!(c.is_alive(victim));
    assert_eq!(c.alive_count(), 4);
    assert_eq!(h.get_payload(&kept).unwrap().unwrap().as_count(), Some(42));
}

/// Completes a lease-checked read-through fill of `key` with count `n`.
fn fill(c: &CacheCluster, key: &str, n: i64) {
    let app = c.handle(CacheOrigin::Application);
    let landed = app
        .fill_payload(key, &Payload::Count(n), None, c.lease(key))
        .unwrap();
    assert!(landed, "fill of {key} refused");
}

#[test]
fn rejoin_never_resurrects_stale_values() {
    // The adversarial cycle: write v1, kill the owner, write v2 (lands
    // on the successor), revive the owner (rehash => miss), then kill
    // the owner AGAIN. If the successor kept its v2 copy after rejoin
    // that would now be correct — but if the *owner's* pre-kill v1 or
    // the successor's orphaned copy survived wrongly, a failover read
    // would serve stale data. The rejoin sweep must prevent that.
    // v2 arrives by each write path the system uses: an application
    // set, a read-through fill, and a published trigger batch.
    for path in ["set", "fill", "published incr"] {
        let c = cluster(4);
        let h = c.handle(CacheOrigin::Application);
        let key = "k:stale";
        let owner = c.server_for(key);

        h.set_payload(key, &Payload::Count(1), None).unwrap();
        assert!(c.kill_node(owner));
        // The write during the outage lands on the ring successor.
        let v2 = match path {
            "set" => {
                h.set_payload(key, &Payload::Count(2), None).unwrap();
                2
            }
            "fill" => {
                fill(&c, key, 2);
                2
            }
            _ => {
                // An increment of the successor's (filled) copy.
                fill(&c, key, 2);
                c.begin_effect_batch();
                c.record(key, Delta::Incr(1));
                assert_eq!(c.commit_effect_batch().applied.in_place, 1);
                3
            }
        };
        let successor = c.server_for(key);
        assert_ne!(successor, owner);
        assert_eq!(
            h.get_payload(key).unwrap().unwrap().as_count(),
            Some(v2),
            "{path}"
        );

        assert!(c.revive_node(owner));
        // Rehash-as-miss: the revived owner is cold, and the successor's
        // orphaned copy was dropped by the rejoin sweep.
        assert!(
            h.get(key).is_none(),
            "{path}: rejoined node served a value it cannot have"
        );

        // Second failover: the successor must NOT serve the orphaned v2
        // (let alone v1) — the key was swept at rejoin.
        assert!(c.kill_node(owner));
        assert!(
            h.get(key).is_none(),
            "{path}: failover served a stale orphaned copy after rejoin cycle"
        );
        assert!(c.revive_node(owner));
    }
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
    let c = cluster(3);
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
