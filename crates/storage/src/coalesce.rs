//! Commit-time change coalescing: a transaction's buffered row changes
//! netted to one change per (table, primary key), so N statements
//! touching the same row fire that row's triggers once at commit (§3.2).
//!
//! The work is O(changes): each change looks up its key in a hash index
//! over the net list instead of scanning the list, so a bulk transaction
//! of N rows commits in time linear in N.

use crate::exec::RowChange;
use crate::latch::TableSet;
use crate::row::Row;
use crate::trigger::TriggerEvent;
use crate::value::Value;
use std::collections::HashMap;

/// Coalesces a transaction's row changes to one net change per
/// (table, primary key), preserving first-touch order — N statements
/// touching the same row fire that row's triggers once at commit, and a
/// row inserted then deleted inside the transaction publishes nothing.
///
/// `net` keeps one entry per row history in first-touch order. A key
/// can own several entries over a transaction (a row deleted at a pk,
/// then another row moved onto it), so `index` maps each key to its
/// entries' positions, split into live and emptied.
pub(crate) fn coalesce_changes(tables: &TableSet<'_>, changes: Vec<RowChange>) -> Vec<RowChange> {
    if changes.len() <= 1 {
        return changes;
    }
    let mut net: Vec<Option<RowChange>> = Vec::with_capacity(changes.len());
    // Keys borrow the table name from the latched schema, so a change
    // costs no name copy.
    let mut index: HashMap<(&str, Value), KeyEntries> = HashMap::with_capacity(changes.len());
    for change in changes {
        let Ok(table) = tables.table(&change.table) else {
            // No schema, no key: the change passes through on its own.
            net.push(Some(change));
            continue;
        };
        let schema = table.schema();
        let pk_pos = schema.primary_key_pos();
        let row_pk = |row: &Option<Row>| {
            row.as_ref()
                .map(|r| r.get(pk_pos).clone())
                .unwrap_or(Value::Null)
        };
        // The key a previous change to this row lives under (its current
        // image's pk); an update may then move the row to a new key.
        let old_key = (
            schema.name(),
            match change.event {
                TriggerEvent::Insert => row_pk(&change.new),
                _ => row_pk(&change.old),
            },
        );
        let new_key = (
            schema.name(),
            match change.event {
                TriggerEvent::Delete => row_pk(&change.old),
                _ => row_pk(&change.new),
            },
        );
        // Take the MOST RECENT live entry under the key: only the latest
        // history is the row's — an older Delete at the same pk must
        // survive untouched so its trigger still fires.
        let prior = index
            .get_mut(&old_key)
            .and_then(KeyEntries::take_live)
            .and_then(|p| net[p].take());
        let merged = match prior {
            None => Some(change),
            Some(p) => merge_changes(p, change),
        };
        // The merged change refills the most recent emptied entry under
        // its key, which keeps the row's first-touch position; otherwise
        // it starts a new history.
        let entries = index.entry(new_key).or_default();
        if let Some(p) = merged.as_ref().and_then(|_| entries.refill()) {
            net[p] = merged;
        } else {
            let list = if merged.is_some() {
                &mut entries.live
            } else {
                &mut entries.emptied
            };
            list.push(net.len());
            net.push(merged);
        }
    }
    net.into_iter().flatten().collect()
}

/// One (table, pk) key's entries in the net list, split by whether the
/// entry still holds a change. Both lists are sorted oldest first, so
/// the most recent entry of either kind is the last one.
#[derive(Default)]
struct KeyEntries {
    live: Vec<usize>,
    emptied: Vec<usize>,
}

impl KeyEntries {
    /// Empties the most recent live entry; returns its position.
    fn take_live(&mut self) -> Option<usize> {
        let p = self.live.pop()?;
        insert_sorted(&mut self.emptied, p);
        Some(p)
    }

    /// Marks the most recent emptied entry live again; returns its
    /// position.
    fn refill(&mut self) -> Option<usize> {
        let p = self.emptied.pop()?;
        insert_sorted(&mut self.live, p);
        Some(p)
    }
}

/// Inserts `p` into sorted `v`; `p` is almost always the new maximum.
fn insert_sorted(v: &mut Vec<usize>, p: usize) {
    let at = v.partition_point(|&q| q < p);
    v.insert(at, p);
}

/// Nets two consecutive changes to the same row. `None` means the pair
/// cancels (insert followed by delete).
fn merge_changes(first: RowChange, second: RowChange) -> Option<RowChange> {
    use TriggerEvent as E;
    let table = first.table;
    match (first.event, second.event) {
        (E::Insert, E::Update) => Some(RowChange {
            table,
            event: E::Insert,
            old: None,
            new: second.new,
        }),
        (E::Insert, E::Delete) => None,
        (E::Update, E::Update) => Some(RowChange {
            table,
            event: E::Update,
            old: first.old,
            new: second.new,
        }),
        (E::Update, E::Delete) => Some(RowChange {
            table,
            event: E::Delete,
            old: first.old,
            new: None,
        }),
        (E::Delete, E::Insert) => Some(RowChange {
            table,
            event: E::Update,
            old: first.old,
            new: second.new,
        }),
        // Remaining pairs (insert+insert, delete+update, ...) cannot arise
        // for one primary key; keep both defensively.
        _ => {
            // `first` was already taken out of the net list; re-emitting
            // only `second` would drop it. Fall back to the second change
            // with the first's pre-image where one exists.
            Some(RowChange {
                table,
                event: second.event,
                old: second.old.or(first.old),
                new: second.new,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::schema::{ColumnDef, TableSchema};
    use crate::value::ValueType;
    use proptest::prelude::*;

    /// The linear-scan coalescer the indexed one replaced, kept as the
    /// reference: the same rules, found by scanning `net` backwards.
    fn coalesce_changes_linear(tables: &TableSet<'_>, changes: Vec<RowChange>) -> Vec<RowChange> {
        if changes.len() <= 1 {
            return changes;
        }
        let mut net: Vec<((String, Value), Option<RowChange>)> = Vec::new();
        for change in changes {
            let Ok(pk_pos) = tables
                .table(&change.table)
                .map(|t| t.schema().primary_key_pos())
            else {
                net.push(((change.table.clone(), Value::Null), Some(change)));
                continue;
            };
            let row_pk = |row: &Option<Row>| {
                row.as_ref()
                    .map(|r| r.get(pk_pos).clone())
                    .unwrap_or(Value::Null)
            };
            let old_key = (
                change.table.clone(),
                match change.event {
                    TriggerEvent::Insert => row_pk(&change.new),
                    _ => row_pk(&change.old),
                },
            );
            let new_key = (
                change.table.clone(),
                match change.event {
                    TriggerEvent::Delete => row_pk(&change.old),
                    _ => row_pk(&change.new),
                },
            );
            let prior = net
                .iter_mut()
                .rev()
                .find(|(k, slot)| *k == old_key && slot.is_some())
                .and_then(|(_, slot)| slot.take());
            let merged = match prior {
                None => Some(change),
                Some(p) => merge_changes(p, change),
            };
            match net
                .iter_mut()
                .rev()
                .find(|(k, slot)| *k == new_key && slot.is_none())
            {
                Some((_, slot)) if merged.is_some() => *slot = merged,
                _ => net.push((new_key, merged)),
            }
        }
        net.into_iter().filter_map(|(_, c)| c).collect()
    }

    const TABLES: [&str; 3] = ["a", "b", "c"];

    fn catalog() -> Catalog {
        let mut catalog = Catalog::new();
        for t in TABLES {
            catalog
                .create_table(
                    TableSchema::builder(t)
                        .pk("id")
                        .column(ColumnDef::new("v", ValueType::Int))
                        .build()
                        .unwrap(),
                )
                .unwrap();
        }
        catalog
    }

    fn row(pk: i64, v: i64) -> Row {
        Row::new(vec![Value::Int(pk), Value::Int(v)])
    }

    fn change(table: &str, event: TriggerEvent, old: Option<Row>, new: Option<Row>) -> RowChange {
        RowChange {
            table: table.into(),
            event,
            old,
            new,
        }
    }

    fn ins(table: &str, pk: i64, v: i64) -> RowChange {
        change(table, TriggerEvent::Insert, None, Some(row(pk, v)))
    }

    fn upd(table: &str, from: (i64, i64), to: (i64, i64)) -> RowChange {
        change(
            table,
            TriggerEvent::Update,
            Some(row(from.0, from.1)),
            Some(row(to.0, to.1)),
        )
    }

    fn del(table: &str, pk: i64, v: i64) -> RowChange {
        change(table, TriggerEvent::Delete, Some(row(pk, v)), None)
    }

    /// Coalesces with both implementations and asserts they agree.
    fn both(changes: Vec<RowChange>) -> Vec<RowChange> {
        let mut catalog = catalog();
        let tables = TableSet::exclusive(&mut catalog);
        let indexed = coalesce_changes(&tables, changes.clone());
        let linear = coalesce_changes_linear(&tables, changes);
        assert_eq!(
            indexed, linear,
            "indexed coalescer diverged from the reference"
        );
        indexed
    }

    /// One generated statement: `slot` picks the row (among live rows for
    /// updates and deletes) and `pk` is the target key for inserts and
    /// pk-moving updates. Keys are drawn from a small space so re-inserts
    /// after deletes and moves onto deleted pks are common.
    #[derive(Debug, Clone)]
    enum Op {
        Insert {
            table: usize,
            pk: i64,
        },
        Update {
            table: usize,
            slot: usize,
        },
        Move {
            table: usize,
            slot: usize,
            pk: i64,
        },
        Delete {
            table: usize,
            slot: usize,
        },
        /// A change to a table the catalog does not have.
        Unknown,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0..3usize, 0..6i64).prop_map(|(table, pk)| Op::Insert { table, pk }),
            (0..3usize, 0..8usize).prop_map(|(table, slot)| Op::Update { table, slot }),
            (0..3usize, 0..8usize, 0..6i64).prop_map(|(table, slot, pk)| Op::Move {
                table,
                slot,
                pk
            }),
            (0..3usize, 0..8usize).prop_map(|(table, slot)| Op::Delete { table, slot }),
            Just(Op::Unknown),
        ]
    }

    /// Replays `ops` against a model of each table's live rows (pk →
    /// value), emitting the change stream a real engine would: ops that
    /// would violate a primary key or find no row are skipped.
    fn stream(ops: &[Op]) -> Vec<RowChange> {
        let mut live: [Vec<(i64, i64)>; 3] = Default::default();
        let taken = |rows: &[(i64, i64)], pk: i64| rows.iter().any(|&(p, _)| p == pk);
        let mut version = 0i64;
        let mut out = Vec::new();
        for op in ops {
            version += 1;
            match *op {
                Op::Insert { table, pk } if !taken(&live[table], pk) => {
                    live[table].push((pk, version));
                    out.push(ins(TABLES[table], pk, version));
                }
                Op::Update { table, slot } if !live[table].is_empty() => {
                    let i = slot % live[table].len();
                    let from = live[table][i];
                    live[table][i].1 = version;
                    out.push(upd(TABLES[table], from, live[table][i]));
                }
                Op::Move { table, slot, pk }
                    if !live[table].is_empty() && !taken(&live[table], pk) =>
                {
                    let i = slot % live[table].len();
                    let from = live[table][i];
                    live[table][i] = (pk, version);
                    out.push(upd(TABLES[table], from, live[table][i]));
                }
                Op::Delete { table, slot } if !live[table].is_empty() => {
                    let (pk, v) = live[table].remove(slot % live[table].len());
                    out.push(del(TABLES[table], pk, v));
                }
                Op::Unknown => out.push(ins("gone", 0, version)),
                _ => {}
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn indexed_coalescer_matches_the_linear_reference(
            ops in proptest::collection::vec(op(), 0..60)
        ) {
            both(stream(&ops));
        }
    }

    #[test]
    fn a_pk_carries_two_histories() {
        // Row 1 deleted, row 2 moved onto pk 1, then updated there: the
        // Delete of the original row 1 stays its own net change.
        let net = both(vec![
            upd("a", (1, 0), (1, 1)),
            del("a", 1, 1),
            upd("a", (2, 0), (1, 2)),
            upd("a", (1, 2), (1, 3)),
        ]);
        assert_eq!(
            net,
            vec![
                change("a", TriggerEvent::Delete, Some(row(1, 0)), None),
                upd("a", (2, 0), (1, 3)),
            ]
        );
    }

    #[test]
    fn insert_update_delete_cancels() {
        let net = both(vec![
            ins("a", 1, 0),
            upd("a", (1, 0), (1, 1)),
            ins("b", 1, 0),
            del("a", 1, 1),
        ]);
        assert_eq!(net, vec![ins("b", 1, 0)]);
    }

    #[test]
    fn update_chain_nets_first_old_to_last_new() {
        let net = both(vec![
            upd("a", (1, 0), (1, 1)),
            upd("a", (1, 1), (4, 2)),
            upd("a", (4, 2), (5, 3)),
            upd("a", (5, 3), (5, 4)),
        ]);
        assert_eq!(net, vec![upd("a", (1, 0), (5, 4))]);
    }

    #[test]
    fn reinsert_after_cancel_keeps_its_late_position() {
        // The cancelled insert's emptied entry is older than b's; the
        // re-insert lands in the newer emptied entry the cancel left.
        let net = both(vec![
            ins("a", 1, 0),
            ins("b", 2, 0),
            del("a", 1, 0),
            ins("a", 1, 1),
        ]);
        assert_eq!(net, vec![ins("b", 2, 0), ins("a", 1, 1)]);
    }

    #[test]
    fn insert_delete_churn_on_one_pk_stays_cheap() {
        // Every cycle leaves an emptied entry behind; each lookup must
        // still pop rather than scan them.
        let mut changes = Vec::new();
        for v in 0..20_000 {
            changes.push(ins("a", 1, v));
            changes.push(del("a", 1, v));
        }
        changes.push(ins("a", 1, -1));
        let mut catalog = catalog();
        let tables = TableSet::exclusive(&mut catalog);
        assert_eq!(coalesce_changes(&tables, changes), vec![ins("a", 1, -1)]);
    }
}
