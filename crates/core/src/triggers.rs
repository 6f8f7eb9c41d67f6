//! Trigger generation: the paper's §3.2.
//!
//! For each cached object CacheGenie installs INSERT/UPDATE/DELETE
//! triggers on every underlying table (one table for Feature/Count/TopK,
//! two for Link). Each generated trigger also carries a rendered source
//! listing — the artifact the paper counts when it reports "1720 lines of
//! generated trigger code" for Pinax.
//!
//! Trigger bodies follow the paper's four-step recipe: receive the
//! modified row, derive the affected cache key(s), compute the incremental
//! update (or pick invalidation), and apply it. The last step is split in
//! two: a body records the update as a [`Delta`] on the commit's effect
//! batch without reading the cache, and the commit's publication applies
//! it where the cached value lives — the paper's `gets` → modify → `cas`
//! without the client read, so without a CAS retry loop.

use crate::def::{CacheClassKind, ConsistencyStrategy};
use crate::genie::GenieConfig;
use crate::mutation;
use crate::object::ObjectInner;
use crate::stats::GenieStats;
use genie_cache::{CacheCluster, Delta, EncodedList, Mutation};
use genie_storage::{Result, Row, Trigger, TriggerCtx, TriggerEvent, Value, ValueType};
use std::sync::Arc;

/// Builds all triggers for one compiled object (none for `Expire`).
pub(crate) fn build_triggers(
    obj: &Arc<ObjectInner>,
    cache: &CacheCluster,
    stats: &Arc<GenieStats>,
    config: &GenieConfig,
) -> Vec<Trigger> {
    if matches!(obj.def.strategy, ConsistencyStrategy::Expire { .. }) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let events = [
        TriggerEvent::Insert,
        TriggerEvent::Update,
        TriggerEvent::Delete,
    ];
    for event in events {
        out.push(make_trigger(
            obj,
            cache,
            stats,
            config,
            &obj.table.clone(),
            event,
            false,
        ));
    }
    if let Some(link) = &obj.link {
        let target = link.target_table.clone();
        for event in events {
            out.push(make_trigger(
                obj, cache, stats, config, &target, event, true,
            ));
        }
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn make_trigger(
    obj: &Arc<ObjectInner>,
    cache: &CacheCluster,
    stats: &Arc<GenieStats>,
    config: &GenieConfig,
    table: &str,
    event: TriggerEvent,
    on_link_target: bool,
) -> Trigger {
    let name = format!(
        "cg_{}_{}_{}",
        obj.def.name,
        table,
        event.to_string().to_lowercase()
    );
    let source = render_source(obj, table, event, on_link_target);
    let o = Arc::clone(obj);
    let c = cache.clone();
    let s = Arc::clone(stats);
    let reuse_conn = config.reuse_trigger_connections;
    let body = move |ctx: &mut TriggerCtx<'_>| -> Result<()> {
        // The paper's generated Python triggers open a remote memcached
        // connection on every firing — the dominant trigger cost in §5.3.
        if !reuse_conn {
            ctx.charge_connection_open();
        }
        // The body's own cache round trips are its probes; publication
        // prices the recorded deltas.
        let probes = if on_link_target {
            fire_link_target(&o, &c, ctx)?;
            0
        } else {
            fire_main(&o, &c, &s, ctx)?
        };
        ctx.charge_cache_ops(probes);
        Ok(())
    };
    Trigger::new(name, table, event, body).with_source(source)
}

// ---------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------

/// Records a splice of `key`'s cached list ([`crate::mutation`]), to run
/// on the list the key holds at publication. A payload that is not the
/// list shape this object caches (`top_k`) is dropped there, and one the
/// codec refuses — in its header, or in any frame `f` had to read — is
/// deleted so the next read recomputes it.
fn edit(
    cache: &CacheCluster,
    key: &str,
    top_k: bool,
    f: impl FnOnce(&EncodedList) -> genie_cache::Result<Mutation> + Send + 'static,
) {
    cache.record(key, Delta::edit(top_k, f));
}

fn invalidate_keys(cache: &CacheCluster, keys: &[String]) {
    let mut seen: Vec<&String> = Vec::new();
    for key in keys {
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        cache.record(key, Delta::Delete);
    }
}

fn pk_of(row: &Row) -> &Value {
    row.get(0)
}

// ---------------------------------------------------------------------
// Main-table events
// ---------------------------------------------------------------------

/// Returns the cache probes the body made.
fn fire_main(
    obj: &Arc<ObjectInner>,
    cache: &CacheCluster,
    stats: &GenieStats,
    ctx: &mut TriggerCtx<'_>,
) -> Result<u64> {
    // Invalidate strategy: per-key precise deletion, all classes alike.
    if obj.def.strategy == ConsistencyStrategy::Invalidate {
        let mut keys = Vec::new();
        if let Some(old) = ctx.old {
            keys.push(obj.key_from_row(old));
        }
        if let Some(new) = ctx.new {
            keys.push(obj.key_from_row(new));
        }
        invalidate_keys(cache, &keys);
        return Ok(0);
    }
    match &obj.def.kind {
        CacheClassKind::Feature => fire_feature(obj, cache, ctx),
        CacheClassKind::Count => fire_count(obj, cache, stats, ctx),
        CacheClassKind::TopK { .. } => fire_top_k(obj, cache, ctx),
        CacheClassKind::Link { .. } => return fire_link_main(obj, cache, stats, ctx),
    }
    Ok(0)
}

fn fire_feature(obj: &ObjectInner, cache: &CacheCluster, ctx: &TriggerCtx<'_>) {
    let append = |new: &Row| {
        let new = new.clone();
        edit(cache, &obj.key_from_row(&new), false, move |l| {
            mutation::append(l, std::slice::from_ref(&new))
        });
    };
    match ctx.event {
        TriggerEvent::Insert => append(ctx.new.expect("insert has NEW")),
        TriggerEvent::Delete => {
            let old = ctx.old.expect("delete has OLD");
            let pk = pk_of(old).clone();
            edit(cache, &obj.key_from_row(old), false, move |l| {
                mutation::remove_pk(l, &pk).map(mutation::keep_if_changed)
            });
        }
        TriggerEvent::Update => {
            let old = ctx.old.expect("update has OLD");
            let new = ctx.new.expect("update has NEW");
            if obj.key_fields_changed(old, new) {
                // The row moved between keys: remove then add.
                let pk = pk_of(old).clone();
                edit(cache, &obj.key_from_row(old), false, move |l| {
                    mutation::remove_pk(l, &pk).map(|edited| mutation::keep_or_rewrite(edited, l))
                });
                append(new);
            } else {
                let new = new.clone();
                edit(cache, &obj.key_from_row(&new), false, move |l| {
                    mutation::replace_pk_or_append(l, &new)
                });
            }
        }
    }
}

fn fire_count(obj: &ObjectInner, cache: &CacheCluster, stats: &GenieStats, ctx: &TriggerCtx<'_>) {
    let bump = |row: &Row, delta: i64| cache.record(&obj.key_from_row(row), Delta::Incr(delta));
    match ctx.event {
        TriggerEvent::Insert => bump(ctx.new.expect("NEW"), 1),
        TriggerEvent::Delete => bump(ctx.old.expect("OLD"), -1),
        TriggerEvent::Update => {
            let old = ctx.old.expect("OLD");
            let new = ctx.new.expect("NEW");
            if obj.key_fields_changed(old, new) {
                bump(old, -1);
                bump(new, 1);
            } else {
                stats.bump(&stats.trigger_noops);
            }
        }
    }
}

fn fire_top_k(obj: &Arc<ObjectInner>, cache: &CacheCluster, ctx: &TriggerCtx<'_>) {
    let insert = |new: &Row| {
        let (o, new) = (Arc::clone(obj), new.clone());
        edit(cache, &obj.key_from_row(&new), true, move |l| {
            mutation::top_k_insert(&o, l, &new).map(mutation::keep_if_changed)
        });
    };
    let remove = |old: &Row| {
        let (o, pk) = (Arc::clone(obj), pk_of(old).clone());
        edit(cache, &obj.key_from_row(old), true, move |l| {
            mutation::top_k_remove(&o, l, &pk)
        });
    };
    match ctx.event {
        TriggerEvent::Insert => insert(ctx.new.expect("NEW")),
        TriggerEvent::Delete => remove(ctx.old.expect("OLD")),
        TriggerEvent::Update => {
            let old = ctx.old.expect("OLD");
            let new = ctx.new.expect("NEW");
            if obj.key_fields_changed(old, new) {
                // Moved between lists: delete from old, insert into new.
                remove(old);
                insert(new);
            } else {
                // Same list: reposition (sort value may have changed).
                let (o, pk, new) = (Arc::clone(obj), pk_of(old).clone(), new.clone());
                edit(cache, &obj.key_from_row(&new), true, move |l| {
                    mutation::top_k_reposition(&o, l, &pk, &new)
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// Link-class events
// ---------------------------------------------------------------------

/// Combined rows contributed by one base row, fetched from inside the
/// trigger (Postgres triggers query the database the same way).
fn link_rows_for_base(
    obj: &ObjectInner,
    ctx: &mut TriggerCtx<'_>,
    base_pk: &Value,
) -> Result<Vec<Row>> {
    let link = obj.link.as_ref().expect("link object");
    let result = ctx.query_prepared(&link.by_pk_template, std::slice::from_ref(base_pk))?;
    Ok(result.rows)
}

/// Returns the cache probes the body made.
fn fire_link_main(
    obj: &ObjectInner,
    cache: &CacheCluster,
    stats: &GenieStats,
    ctx: &mut TriggerCtx<'_>,
) -> Result<u64> {
    // Adds the fresh join image of `new` under `key` if it is cached —
    // the probe (which names the key, so a miss stays a miss until this
    // commit publishes) saves the join query when it is not.
    let append_if_cached = |ctx: &mut TriggerCtx<'_>, key: &str, new: &Row| -> Result<()> {
        if !cache.probe(key) {
            stats.bump(&stats.trigger_noops);
            return Ok(());
        }
        let fresh = link_rows_for_base(obj, ctx, pk_of(new))?;
        edit(cache, key, false, move |l| mutation::append(l, &fresh));
        Ok(())
    };
    match ctx.event {
        TriggerEvent::Insert => {
            let new = ctx.new.expect("NEW");
            append_if_cached(ctx, &obj.key_from_row(new), new)?;
            Ok(1)
        }
        TriggerEvent::Delete => {
            let old = ctx.old.expect("OLD");
            let pk = pk_of(old).clone();
            edit(cache, &obj.key_from_row(old), false, move |l| {
                mutation::remove_pk(l, &pk).map(mutation::keep_if_changed)
            });
            Ok(0)
        }
        TriggerEvent::Update => {
            let old = ctx.old.expect("OLD");
            let new = ctx.new.expect("NEW");
            // Drop the stale combined rows for this base row from the key
            // it was under (the same key, unless a key field moved).
            let pk = pk_of(old).clone();
            edit(cache, &obj.key_from_row(old), false, move |l| {
                mutation::remove_pk(l, &pk).map(|edited| mutation::keep_or_rewrite(edited, l))
            });
            append_if_cached(ctx, &obj.key_from_row(new), new)?;
            Ok(1)
        }
    }
}

/// Events on the joined (target) table. Affected base rows — and thus
/// affected cache keys — are found with the reverse query; updates are
/// applied in place where possible.
fn fire_link_target(
    obj: &ObjectInner,
    cache: &CacheCluster,
    ctx: &mut TriggerCtx<'_>,
) -> Result<()> {
    let link = obj.link.as_ref().expect("link object");
    let tc = link.target_column_pos;
    let base_arity = obj.base_arity;

    let affected_keys = |ctx: &mut TriggerCtx<'_>, join_value: &Value| -> Result<Vec<String>> {
        let result =
            ctx.query_prepared(&link.reverse_template, std::slice::from_ref(join_value))?;
        let mut keys: Vec<String> = result.rows.iter().map(|r| obj.key_from_row(r)).collect();
        keys.sort();
        keys.dedup();
        Ok(keys)
    };

    if obj.def.strategy == ConsistencyStrategy::Invalidate {
        let mut keys = Vec::new();
        if let Some(old) = ctx.old {
            keys.extend(affected_keys(ctx, old.get(tc))?);
        }
        if let Some(new) = ctx.new {
            keys.extend(affected_keys(ctx, new.get(tc))?);
        }
        invalidate_keys(cache, &keys);
        return Ok(());
    }

    // A target row joins every base row holding its join value: each of
    // those keys gains `base ++ target` on the tail.
    let append_joined = |ctx: &mut TriggerCtx<'_>, target: &Row| -> Result<()> {
        let bases =
            ctx.query_prepared(&link.reverse_template, std::slice::from_ref(target.get(tc)))?;
        for base in &bases.rows {
            let joined = [base
                .values()
                .iter()
                .chain(target.values())
                .cloned()
                .collect()];
            edit(cache, &obj.key_from_row(base), false, move |l| {
                mutation::append(l, &joined)
            });
        }
        Ok(())
    };

    match ctx.event {
        TriggerEvent::Insert => append_joined(ctx, ctx.new.expect("NEW")),
        TriggerEvent::Delete => {
            let old = ctx.old.expect("OLD");
            for key in affected_keys(ctx, old.get(tc))? {
                let old = old.clone();
                edit(cache, &key, false, move |l| {
                    mutation::remove_target(l, base_arity, &old).map(mutation::keep_if_changed)
                });
            }
            Ok(())
        }
        TriggerEvent::Update => {
            let old = ctx.old.expect("OLD");
            let new = ctx.new.expect("NEW");
            if old.get(tc) != new.get(tc) {
                // The join column moved: old joiners lose the row, new
                // joiners gain it.
                for key in affected_keys(ctx, old.get(tc))? {
                    let old = old.clone();
                    edit(cache, &key, false, move |l| {
                        mutation::remove_target(l, base_arity, &old)
                            .map(|edited| mutation::keep_or_rewrite(edited, l))
                    });
                }
                append_joined(ctx, new)
            } else {
                // In-place: replace the target portion of matching rows.
                for key in affected_keys(ctx, new.get(tc))? {
                    let (old, new) = (old.clone(), new.clone());
                    edit(cache, &key, false, move |l| {
                        mutation::replace_target(l, base_arity, &old, &new)
                            .map(mutation::keep_if_changed)
                    });
                }
                Ok(())
            }
        }
    }
}

// ---------------------------------------------------------------------
// Source rendering (the paper's generated-code metric)
// ---------------------------------------------------------------------

/// The listing's expression for the cache key
/// [`ObjectInner::key_from_row`] files the row named `row` under: `~` for
/// NULL, `%`, `:` and `~` percent-escaped in text, `T`-prefixed
/// timestamps and `t`/`f` booleans.
fn key_expr(obj: &ObjectInner, row: &str) -> String {
    let mut expr = format!("'cg:{}'", obj.def.name);
    for (col, ty) in obj.def.where_fields.iter().zip(&obj.key_types) {
        let v = format!("{row}['{col}']");
        let part = match ty {
            ValueType::Int => format!("str({v})"),
            ValueType::Float => format!("repr({v}).removesuffix('.0')"),
            ValueType::Text => {
                format!("{v}.replace('%', '%25').replace(':', '%3A').replace('~', '%7E')")
            }
            ValueType::Bool => format!("('t' if {v} else 'f')"),
            ValueType::Timestamp => format!("'T' + str({v})"),
        };
        expr.push_str(&format!(" + ':' + ('~' if {v} is None else {part})"));
    }
    expr
}

/// Renders the trigger body as the Python-like listing CacheGenie would
/// install into Postgres (cf. the generated trigger in §3.2). The listing
/// is what [`genie_storage::TriggerManager::generated_source_lines`]
/// counts for the §5.2 programmer-effort table.
pub(crate) fn render_source(
    obj: &ObjectInner,
    table: &str,
    event: TriggerEvent,
    on_link_target: bool,
) -> String {
    let mut s = String::new();
    let class = obj.def.kind.class_name();
    let strategy = match obj.def.strategy {
        ConsistencyStrategy::UpdateInPlace => "update-in-place",
        ConsistencyStrategy::Invalidate => "invalidate",
        ConsistencyStrategy::Expire { .. } => "expire",
    };
    let ev = event.to_string();
    s.push_str(&format!(
        "# Auto-generated by CacheGenie: {class} object '{}'\n",
        obj.def.name
    ));
    s.push_str(&format!(
        "# AFTER {ev} ON {table} FOR EACH ROW ({strategy})\n"
    ));
    s.push_str("import memcache\n");
    s.push_str("cache = memcache.Client(['cachehost:11211'])\n");
    s.push_str(&format!("table = '{table}'\n"));
    s.push_str(&format!("key_columns = {:?}\n", obj.def.where_fields));
    match event {
        TriggerEvent::Insert => s.push_str("row = trigger_data['new']\n"),
        TriggerEvent::Delete => s.push_str("row = trigger_data['old']\n"),
        TriggerEvent::Update => {
            s.push_str("old_row = trigger_data['old']\n");
            s.push_str("row = trigger_data['new']\n");
        }
    }
    if on_link_target {
        s.push_str("# reverse-map the joined row to affected base rows\n");
        s.push_str(&format!(
            "base_rows = plpy.execute(\"{}\", [row[{}]])\n",
            obj.link
                .as_ref()
                .map(|l| l.reverse_template.select().to_string())
                .unwrap_or_default(),
            obj.link.as_ref().map(|l| l.target_column_pos).unwrap_or(0),
        ));
        s.push_str("keys = set()\n");
        s.push_str(&format!(
            "for base in base_rows:\n    keys.add({})\n",
            key_expr(obj, "base")
        ));
    } else {
        s.push_str(&format!("cache_key = {}\n", key_expr(obj, "row")));
        s.push_str("keys = [cache_key]\n");
    }
    if obj.def.strategy == ConsistencyStrategy::Invalidate {
        s.push_str("for key in keys:\n");
        s.push_str("    cache.delete(key)\n");
        return s;
    }
    s.push_str("for key in keys:\n");
    s.push_str("    while True:\n");
    s.push_str("        (cached, cas_token) = cache.gets(key)\n");
    s.push_str("        if cached is None:\n");
    s.push_str("            break  # nothing cached; next read repopulates\n");
    match &obj.def.kind {
        CacheClassKind::Count => {
            let delta = match event {
                TriggerEvent::Insert => "+1",
                TriggerEvent::Delete => "-1",
                TriggerEvent::Update => "0  # adjusted when key columns move",
            };
            s.push_str(&format!("        cached = cached {delta}\n"));
        }
        CacheClassKind::TopK {
            sort_field,
            k,
            reserve,
            ..
        } => {
            s.push_str(&format!("        sort_column = '{sort_field}'\n"));
            s.push_str(&format!("        capacity = {k} + {reserve}\n"));
            match event {
                TriggerEvent::Insert => {
                    s.push_str("        insert_pos = 0\n");
                    s.push_str("        for cached_row in cached:\n");
                    s.push_str("            if row[sort_column] > cached_row[sort_column]:\n");
                    s.push_str("                break\n");
                    s.push_str("            insert_pos += 1\n");
                    s.push_str("        if insert_pos < len(cached) or cached.complete:\n");
                    s.push_str("            cached.insert(insert_pos, row)\n");
                    s.push_str("            del cached[capacity:]\n");
                }
                TriggerEvent::Delete => {
                    s.push_str("        cached = [r for r in cached if r['id'] != row['id']]\n");
                    s.push_str(&format!(
                        "        if len(cached) < {k} and not cached.complete:\n"
                    ));
                    s.push_str("            cache.delete(key)  # reserve exhausted\n");
                    s.push_str("            break\n");
                }
                TriggerEvent::Update => {
                    s.push_str("        cached = [r for r in cached if r['id'] != row['id']]\n");
                    s.push_str("        # reinsert at the new sort position\n");
                    s.push_str("        insert_pos = bisect(cached, row[sort_column])\n");
                    s.push_str("        cached.insert(insert_pos, row)\n");
                }
            }
        }
        _ => match event {
            TriggerEvent::Insert => {
                s.push_str("        cached.append(row)\n");
            }
            TriggerEvent::Delete => {
                s.push_str("        cached = [r for r in cached if r['id'] != row['id']]\n");
            }
            TriggerEvent::Update => {
                s.push_str(
                    "        cached = [row if r['id'] == row['id'] else r for r in cached]\n",
                );
            }
        },
    }
    s.push_str("        if cache.cas(key, cached, cas_token):\n");
    s.push_str("            break\n");
    s.push_str("        # CAS lost the race: reread and retry\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::def::CacheableDef;
    use crate::mutation::tests::{registry, top_k_obj};
    use genie_cache::Payload;

    fn post(id: i64, user: i64, ts: i64) -> Row {
        genie_storage::row![id, user, Value::Timestamp(ts)]
    }

    /// `mutation::top_k_insert` on the encoded list, decoded again.
    fn top_k_insert(
        obj: &ObjectInner,
        rows: Vec<Row>,
        complete: bool,
        row: &Row,
    ) -> Option<(Vec<Row>, bool)> {
        let list = EncodedList::parse(Payload::TopK { rows, complete }.encode())
            .unwrap()
            .unwrap();
        let inserted = mutation::top_k_insert(obj, &list, row).unwrap()?;
        match Payload::decode(&inserted.into_bytes()).unwrap() {
            Payload::TopK { rows, complete } => Some((rows, complete)),
            other => panic!("expected a Top-K payload, got {other:?}"),
        }
    }

    #[test]
    fn top_k_insert_positions() {
        let obj = top_k_obj();
        // Complete list of 2: insert in the middle and at the tail.
        let rows = vec![post(1, 7, 100), post(2, 7, 50)];
        let (mid, complete) = top_k_insert(&obj, rows.clone(), true, &post(3, 7, 75)).unwrap();
        assert!(complete);
        let ts: Vec<i64> = mid
            .iter()
            .map(|r| r.get(2).as_timestamp().unwrap())
            .collect();
        assert_eq!(ts, vec![100, 75, 50]);
        // Tail insert allowed only when complete.
        let (tail, _) = top_k_insert(&obj, rows.clone(), true, &post(4, 7, 10)).unwrap();
        assert_eq!(tail.len(), 3);
        assert!(
            top_k_insert(&obj, rows, false, &post(4, 7, 10)).is_none(),
            "tail insert into incomplete list must be a no-op"
        );
    }

    #[test]
    fn top_k_insert_truncates_at_capacity() {
        let obj = top_k_obj(); // capacity 5
        let rows: Vec<Row> = (0..5).map(|i| post(i, 7, 100 - i)).collect();
        let (rows, complete) = top_k_insert(&obj, rows, true, &post(99, 7, 98)).unwrap();
        assert_eq!(rows.len(), 5);
        assert!(!complete, "truncation loses coverage");
    }

    #[test]
    fn source_rendering_is_substantial_and_class_specific() {
        let obj = top_k_obj();
        let src = render_source(&obj, "wall", TriggerEvent::Insert, false);
        assert!(src.lines().count() >= 20, "{src}");
        assert!(src.contains("insert_pos"));
        assert!(src.contains("cas"));
        let del = render_source(&obj, "wall", TriggerEvent::Delete, false);
        assert!(del.contains("reserve exhausted"));
    }

    #[test]
    fn rendered_key_line_builds_the_key_the_trigger_writes() {
        let reg = registry();
        let by_name = ObjectInner::compile(
            CacheableDef::feature("by_name", "User").where_fields(&["name"]),
            &reg,
        )
        .unwrap();
        let src = render_source(&by_name, "users", TriggerEvent::Insert, false);
        let key_line = src
            .lines()
            .find(|l| l.starts_with("cache_key = "))
            .expect("key line");
        assert_eq!(
            key_line,
            "cache_key = 'cg:by_name' + ':' + ('~' if row['name'] is None else \
             row['name'].replace('%', '%25').replace(':', '%3A').replace('~', '%7E'))"
        );
        let by_date = ObjectInner::compile(
            CacheableDef::feature("by_date", "WallPost").where_fields(&["date_posted"]),
            &reg,
        )
        .unwrap();
        let src = render_source(&by_date, "wall", TriggerEvent::Delete, false);
        assert!(
            src.contains("('~' if row['date_posted'] is None else 'T' + str(row['date_posted']))"),
            "{src}"
        );
    }

    #[test]
    fn invalidate_strategy_renders_deletes_only() {
        let reg = registry();
        let obj = Arc::new(
            ObjectInner::compile(
                CacheableDef::feature("p", "WallPost")
                    .where_fields(&["user_id"])
                    .strategy(ConsistencyStrategy::Invalidate),
                &reg,
            )
            .unwrap(),
        );
        let src = render_source(&obj, "wall", TriggerEvent::Update, false);
        assert!(src.contains("cache.delete"));
        assert!(!src.contains("cas"));
    }

    #[test]
    fn expire_strategy_builds_no_triggers() {
        let reg = registry();
        let obj = Arc::new(
            ObjectInner::compile(
                CacheableDef::feature("p", "WallPost")
                    .where_fields(&["user_id"])
                    .strategy(ConsistencyStrategy::Expire { ttl: 30 }),
                &reg,
            )
            .unwrap(),
        );
        let cluster = genie_cache::CacheCluster::new(Default::default());
        let stats = Arc::new(GenieStats::new());
        let triggers = build_triggers(&obj, &cluster, &stats, &GenieConfig::default());
        assert!(triggers.is_empty());
    }

    #[test]
    fn non_link_objects_get_three_triggers() {
        let obj = Arc::new(top_k_obj());
        let cluster = genie_cache::CacheCluster::new(Default::default());
        let stats = Arc::new(GenieStats::new());
        let triggers = build_triggers(&obj, &cluster, &stats, &GenieConfig::default());
        assert_eq!(triggers.len(), 3);
        assert!(triggers.iter().all(|t| t.table == "wall"));
        assert!(triggers.iter().all(|t| t.source.is_some()));
    }
}
