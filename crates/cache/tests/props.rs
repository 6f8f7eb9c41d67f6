//! Property-based tests for the cache crate.

use bytes::Bytes;
use genie_cache::{CacheCluster, CacheOrigin, CacheStore, ClusterConfig, Payload, StoreConfig};
use genie_storage::{Row, Value};
use proptest::prelude::*;

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        "[a-zA-Z0-9 '%_]{0,24}".prop_map(Value::Text),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Timestamp),
    ]
}

fn row_strategy() -> impl Strategy<Value = Row> {
    prop::collection::vec(value_strategy(), 0..8).prop_map(Row::new)
}

fn payload_strategy() -> impl Strategy<Value = Payload> {
    prop_oneof![
        prop::collection::vec(row_strategy(), 0..10).prop_map(Payload::Rows),
        any::<i64>().prop_map(Payload::Count),
        prop::collection::vec(any::<u8>(), 0..64).prop_map(Payload::Raw),
        (prop::collection::vec(row_strategy(), 0..10), any::<bool>())
            .prop_map(|(rows, complete)| Payload::TopK { rows, complete }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// encode → decode is the identity for every payload. (Float NaN
    /// compares equal under the storage ordering `Row` uses.)
    #[test]
    fn codec_roundtrip(p in payload_strategy()) {
        let enc = p.encode();
        let dec = Payload::decode(&enc).unwrap();
        prop_assert_eq!(dec, p);
    }

    /// Single-bit corruption anywhere in the buffer is always detected.
    #[test]
    fn codec_detects_bitflips(p in payload_strategy(), byte in any::<prop::sample::Index>(), bit in 0u8..8) {
        let mut enc = p.encode().to_vec();
        let idx = byte.index(enc.len());
        enc[idx] ^= 1 << bit;
        match Payload::decode(&enc) {
            Err(_) => {}
            // A flip in padding-free formats must change the decoded value
            // OR be caught; if it decodes, it must not silently equal the
            // original (checksum would have caught identity flips).
            Ok(dec) => prop_assert_ne!(dec, p),
        }
    }

    /// The LRU store never exceeds its configured byte budget, whatever
    /// the operation mix.
    #[test]
    fn store_memory_bound_holds(
        ops in prop::collection::vec(
            ("[a-d]{1,3}", 0usize..200, any::<bool>()),
            1..150,
        )
    ) {
        let mut s = CacheStore::new(StoreConfig {
            capacity_bytes: 700,
            item_limit_bytes: 400,
        });
        for (key, size, del) in &ops {
            if *del {
                s.delete(key);
            } else {
                let _ = s.set(key, Bytes::from(vec![0u8; *size]), None, 0);
            }
            prop_assert!(s.bytes_used() <= 700, "{} > 700", s.bytes_used());
        }
    }

    /// A cluster behaves exactly like one big hash map for get/set/delete:
    /// sharding must never change observable contents.
    #[test]
    fn cluster_matches_reference_map(
        servers in 1usize..6,
        ops in prop::collection::vec(("[a-z]{1,4}", any::<i64>(), any::<bool>()), 1..120),
    ) {
        use std::collections::HashMap;
        let cluster = CacheCluster::new(ClusterConfig {
            servers,
            capacity_bytes: 16 * 1024 * 1024, // ample: no evictions
            ..Default::default()
        });
        let h = cluster.handle(CacheOrigin::Application);
        let mut reference: HashMap<String, i64> = HashMap::new();
        for (key, val, del) in &ops {
            if *del {
                h.delete(key);
                reference.remove(key);
            } else {
                h.set_payload(key, &Payload::Count(*val), None).unwrap();
                reference.insert(key.clone(), *val);
            }
        }
        for (key, expect) in &reference {
            let got = h.get_payload(key).unwrap().and_then(|p| p.as_count());
            prop_assert_eq!(got, Some(*expect), "key {}", key);
        }
        prop_assert_eq!(cluster.stats().items, reference.len());
    }

    /// CAS loops converge: concurrent-style interleaved read-modify-write
    /// retried on conflict never loses increments.
    #[test]
    fn cas_retry_preserves_all_increments(n in 1usize..60) {
        let cluster = CacheCluster::new(ClusterConfig::default());
        let h = cluster.handle(CacheOrigin::Application);
        h.set_payload("ctr", &Payload::Count(0), None).unwrap();
        for i in 0..n {
            // Simulate a stale-token retry every third increment.
            let (p, token) = h.gets_payload("ctr").unwrap().unwrap();
            let v = p.as_count().unwrap();
            if i % 3 == 0 {
                // Interfering writer bumps the value (and the CAS token).
                h.set_payload("ctr", &Payload::Count(v), None).unwrap();
                // Our stale CAS must fail...
                prop_assert!(h.cas_payload("ctr", &Payload::Count(v + 1), token, None).is_err());
                // ...and the retry with a fresh token must succeed.
                let (p2, t2) = h.gets_payload("ctr").unwrap().unwrap();
                h.cas_payload("ctr", &Payload::Count(p2.as_count().unwrap() + 1), t2, None)
                    .unwrap();
            } else {
                h.cas_payload("ctr", &Payload::Count(v + 1), token, None).unwrap();
            }
        }
        let final_v = h.get_payload("ctr").unwrap().unwrap().as_count().unwrap();
        prop_assert_eq!(final_v, n as i64);
    }
}
