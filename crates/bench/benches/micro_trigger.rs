//! Criterion micro-bench: INSERT cost with 0, 1 no-op, and CacheGenie
//! triggers attached (the engine-level counterpart of §5.3's trigger
//! overhead measurement), and a trigger's list edit — recorded, then
//! applied where the value lives — against cached lists of 10 / 100 /
//! 1 000 rows.

use cachegenie::{CacheGenie, CacheableDef, SortOrder};
use criterion::{criterion_group, criterion_main, Criterion};
use genie_cache::{
    CacheCluster, CacheOrigin, ClusterConfig, Delta, EncodedList, Mutation, Payload,
};
use genie_orm::{FieldDef, ModelDef, ModelRegistry};
use genie_storage::{row, Database, Row, Trigger, TriggerCtx, TriggerEvent, Value};
use std::hint::black_box;
use std::sync::Arc;

fn registry() -> Arc<ModelRegistry> {
    let mut reg = ModelRegistry::new();
    reg.register(
        ModelDef::builder("WallPost", "wall")
            .field(FieldDef::new("user_id", genie_storage::ValueType::Int).indexed())
            .field(FieldDef::new("date_posted", genie_storage::ValueType::Timestamp).indexed())
            .build(),
    )
    .unwrap();
    Arc::new(reg)
}

fn bench_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("insert");

    // Plain insert.
    {
        let reg = registry();
        let db = Database::default();
        reg.sync(&db).unwrap();
        let mut i = 0i64;
        group.bench_function("plain", |b| {
            b.iter(|| {
                i += 1;
                black_box(
                    db.execute_sql("INSERT INTO wall VALUES ($1, 1, TS(1))", &[Value::Int(i)])
                        .unwrap()
                        .result
                        .rows_affected,
                )
            })
        });
    }

    // No-op trigger.
    {
        let reg = registry();
        let db = Database::default();
        reg.sync(&db).unwrap();
        db.create_trigger(Trigger::new(
            "noop",
            "wall",
            TriggerEvent::Insert,
            |_: &mut TriggerCtx<'_>| Ok(()),
        ))
        .unwrap();
        let mut i = 0i64;
        group.bench_function("noop_trigger", |b| {
            b.iter(|| {
                i += 1;
                black_box(
                    db.execute_sql("INSERT INTO wall VALUES ($1, 1, TS(1))", &[Value::Int(i)])
                        .unwrap()
                        .result
                        .rows_affected,
                )
            })
        });
    }

    // A real CacheGenie Top-K maintenance trigger with a warm cached list.
    {
        let reg = registry();
        let db = Database::default();
        reg.sync(&db).unwrap();
        let genie = CacheGenie::new(
            db.clone(),
            CacheCluster::new(ClusterConfig::default()),
            Arc::clone(&reg),
            Default::default(),
        );
        genie
            .cacheable(
                CacheableDef::top_k(
                    "latest",
                    "WallPost",
                    "date_posted",
                    SortOrder::Descending,
                    20,
                )
                .where_fields(&["user_id"]),
            )
            .unwrap();
        genie.evaluate("latest", &[Value::Int(1)]).unwrap(); // warm key
        let mut i = 0i64;
        group.bench_function("cachegenie_topk_trigger", |b| {
            b.iter(|| {
                i += 1;
                black_box(
                    db.execute_sql(
                        "INSERT INTO wall VALUES ($1, 1, $2)",
                        &[Value::Int(i), Value::Timestamp(i)],
                    )
                    .unwrap()
                    .result
                    .rows_affected,
                )
            })
        });
    }

    group.finish();
}

/// The cache half of an in-place trigger — record the splice
/// `core/mutation.rs` builds, publish the batch, which applies it on the
/// node — against a cached list held at `len` rows (the key is put back
/// to its `len`-row bytes before every round). The splice copies the
/// frames it does not change, so the line across list lengths stays near
/// flat where decode → edit → encode grew with every row.
fn bench_list_length(c: &mut Criterion) {
    let mut group = c.benchmark_group("splice_cached_list");
    let cluster = CacheCluster::new(ClusterConfig::default());
    let cache = cluster.handle(CacheOrigin::Application);
    // Wall posts as `bench_insert` stores them, newest first.
    let post = |id: i64| row![id, 1i64, Value::Timestamp(id)];
    for len in [10i64, 100, 1000] {
        let rows: Vec<Row> = (0..len).rev().map(post).collect();
        let newest = post(len);
        let mut round_trip =
            |name: &str, list: Payload, splice: fn(&EncodedList, &Row, usize) -> EncodedList| {
                let list = list.encode();
                group.bench_function(format!("{name}/{len}"), |b| {
                    b.iter(|| {
                        cache.set("k", list.clone(), None).unwrap();
                        let top_k = name == "top_k_insert";
                        let newest = newest.clone();
                        cluster.begin_effect_batch();
                        cluster.record(
                            "k",
                            Delta::edit(top_k, move |l| {
                                Ok(Mutation::Keep(splice(l, &newest, len as usize)))
                            }),
                        );
                        assert_eq!(cluster.commit_effect_batch().applied.in_place, 1);
                    })
                });
            };
        // Feature/Link insert: the row goes on the tail.
        round_trip("append", Payload::Rows(rows.clone()), |l, newest, _| {
            l.append(std::slice::from_ref(newest)).unwrap()
        });
        // Top-K insert into a list at capacity: in at the head, trimmed at
        // the tail.
        let full = Payload::TopK {
            rows,
            complete: false,
        };
        round_trip("top_k_insert", full, |l, newest, len| {
            l.insert_ranked(newest, len, |cached| Ok(*newest.get(2) > cached.get(2)?))
                .unwrap()
                .expect("ranks first")
        });
    }
    group.finish();
}

criterion_group!(benches, bench_insert, bench_list_length);
criterion_main!(benches);
