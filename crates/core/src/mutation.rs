//! The list edits a generated trigger records (§3.2), as splices of the
//! encoded payload: each one copies the frames it does not change and
//! builds only the rows it does ([`EncodedList`]). `triggers.rs` picks
//! the keys and records the edit as a [`genie_cache::Delta`]; the cache
//! runs it on the cached list at publication. Nothing here touches the
//! cache.

use crate::object::ObjectInner;
use genie_cache::{Edit, EncodedList, Mutation, Result, RowView};
use genie_storage::{Row, Value};
use std::cmp::Ordering;

/// Stores the edited list, or does nothing when the edit matched no row.
pub(crate) fn keep_if_changed(edited: Option<EncodedList>) -> Mutation {
    edited.map_or(Mutation::Noop, Mutation::Keep)
}

/// Stores the edited list, or the list as it was when the edit matched
/// no row (the paths that write back unconditionally).
pub(crate) fn keep_or_rewrite(edited: Option<EncodedList>, list: &EncodedList) -> Mutation {
    Mutation::Keep(edited.unwrap_or_else(|| list.clone()))
}

/// Feature and Link inserts: the rows go on the tail.
pub(crate) fn append(list: &EncodedList, rows: &[Row]) -> Result<Mutation> {
    list.append(rows).map(Mutation::Keep)
}

/// Removes every row whose primary key (column 0) is `pk`.
pub(crate) fn remove_pk(list: &EncodedList, pk: &Value) -> Result<Option<EncodedList>> {
    list.edit(|frame| {
        Ok(if frame.row()?.get(0)? == *pk {
            Edit::Remove
        } else {
            Edit::Keep
        })
    })
}

/// Feature update under an unchanged key: `new` takes the place of the
/// first row with its primary key, or heals onto the tail when the row
/// that should have been there is not. Frames after the match are not
/// read.
pub(crate) fn replace_pk_or_append(list: &EncodedList, new: &Row) -> Result<Mutation> {
    let mut replaced = false;
    let edited = list.edit(|frame| {
        if !replaced && frame.row()?.get(0)? == *new.get(0) {
            replaced = true;
            return Ok(Edit::Replace(new.clone()));
        }
        Ok(Edit::Keep)
    })?;
    match edited {
        Some(list) => Ok(Mutation::Keep(list)),
        None => append(list, std::slice::from_ref(new)),
    }
}

/// True if the joined row ends with exactly the `target` row.
fn joins_target(joined: &RowView<'_>, base_arity: usize, target: &Row) -> Result<bool> {
    Ok(joined.values_from(base_arity)? == target.values())
}

/// Link: removes every joined row (`base ++ target`) whose target part is
/// `target`.
pub(crate) fn remove_target(
    list: &EncodedList,
    base_arity: usize,
    target: &Row,
) -> Result<Option<EncodedList>> {
    list.edit(|frame| {
        Ok(if joins_target(&frame.row()?, base_arity, target)? {
            Edit::Remove
        } else {
            Edit::Keep
        })
    })
}

/// Link: rewrites the target part of every joined row that ends with
/// `old` to `new`, keeping its base part.
pub(crate) fn replace_target(
    list: &EncodedList,
    base_arity: usize,
    old: &Row,
    new: &Row,
) -> Result<Option<EncodedList>> {
    list.edit(|frame| {
        let joined = frame.row()?;
        if !joins_target(&joined, base_arity, old)? {
            return Ok(Edit::Keep);
        }
        let base = joined.values_from(0)?.into_iter().take(base_arity);
        Ok(Edit::Replace(
            base.chain(new.values().iter().cloned()).collect(),
        ))
    })
}

/// Inserts `row` into a Top-K list per the paper's §3.2 algorithm,
/// honouring the completeness flag. `None` when the row ranks below
/// everything cached and coverage is incomplete: it may or may not
/// belong at the tail, so the list is left alone (the paper's
/// `insert_pos == len` early exit).
pub(crate) fn top_k_insert(
    obj: &ObjectInner,
    list: &EncodedList,
    row: &Row,
) -> Result<Option<EncodedList>> {
    let pos = obj.sort_position.expect("Top-K objects have a sort field");
    list.insert_ranked(row, obj.capacity, |cached| {
        Ok(obj.rank_cmp(row.get(pos), &cached.get(pos)?) == Ordering::Less)
    })
}

/// A Top-K list a row has just left: one short of K that does not cover
/// every row has used up its reserve and is recomputed on the next read.
fn after_removal(obj: &ObjectInner, rest: EncodedList) -> Mutation {
    if rest.len() < obj.k() && !rest.complete() {
        Mutation::Drop
    } else {
        Mutation::Keep(rest)
    }
}

/// Top-K delete: removes `pk`.
pub(crate) fn top_k_remove(obj: &ObjectInner, list: &EncodedList, pk: &Value) -> Result<Mutation> {
    Ok(remove_pk(list, pk)?.map_or(Mutation::Noop, |rest| after_removal(obj, rest)))
}

/// Top-K update within one list: take the old image out and put the new
/// one in at its (possibly new) rank.
pub(crate) fn top_k_reposition(
    obj: &ObjectInner,
    list: &EncodedList,
    old_pk: &Value,
    new: &Row,
) -> Result<Mutation> {
    let Some(without) = remove_pk(list, old_pk)? else {
        return top_k_insert(obj, list, new).map(keep_if_changed);
    };
    Ok(match top_k_insert(obj, &without, new)? {
        Some(moved) => Mutation::Keep(moved),
        // The row sank below everything an incomplete list holds: for
        // this list it is a delete, and its old image must not stay.
        None => after_removal(obj, without),
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::def::{CacheableDef, SortOrder};
    use genie_cache::{CacheCluster, CacheOrigin, Delta, Payload};
    use genie_orm::{FieldDef, ModelDef, ModelRegistry};
    use genie_storage::ValueType;
    use proptest::prelude::*;
    use std::sync::Arc;

    pub(crate) fn registry() -> ModelRegistry {
        let mut reg = ModelRegistry::new();
        reg.register(
            ModelDef::builder("User", "users")
                .field(FieldDef::new("name", ValueType::Text))
                .build(),
        )
        .unwrap();
        reg.register(
            ModelDef::builder("WallPost", "wall")
                .foreign_key("user_id", "User")
                .field(FieldDef::new("date_posted", ValueType::Timestamp))
                .build(),
        )
        .unwrap();
        reg
    }

    /// Latest 3 wall posts per user, reserve 2 (capacity 5), sorted
    /// descending on column 2.
    pub(crate) fn top_k_obj() -> ObjectInner {
        ObjectInner::compile(
            CacheableDef::top_k(
                "latest",
                "WallPost",
                "date_posted",
                SortOrder::Descending,
                3,
            )
            .where_fields(&["user_id"])
            .reserve(2),
            &registry(),
        )
        .unwrap()
    }

    /// The materialising bodies the splices above replaced — decode the
    /// whole list, edit a `Vec<Row>`, hand it back to be encoded — kept
    /// as they were, as the reference the splices are held equal to.
    mod reference {
        use super::super::ObjectInner;
        use genie_cache::Payload;
        use genie_storage::{Row, Value};

        #[derive(Debug, PartialEq)]
        pub enum Mutation {
            Keep(Payload),
            Drop,
            Noop,
        }

        fn pk_of(row: &Row) -> &Value {
            row.get(0)
        }

        pub fn append(p: Payload, fresh: &[Row]) -> Mutation {
            match p {
                Payload::Rows(mut rows) => {
                    rows.extend(fresh.iter().cloned());
                    Mutation::Keep(Payload::Rows(rows))
                }
                _ => Mutation::Drop,
            }
        }

        pub fn remove_pk(p: Payload, pk: &Value, noop_if_absent: bool) -> Mutation {
            match p {
                Payload::Rows(mut rows) => {
                    let before = rows.len();
                    rows.retain(|r| pk_of(r) != pk);
                    if noop_if_absent && rows.len() == before {
                        Mutation::Noop
                    } else {
                        Mutation::Keep(Payload::Rows(rows))
                    }
                }
                _ => Mutation::Drop,
            }
        }

        pub fn replace_pk_or_append(p: Payload, new: &Row) -> Mutation {
            match p {
                Payload::Rows(mut rows) => {
                    match rows.iter_mut().find(|r| pk_of(r) == pk_of(new)) {
                        Some(slot) => *slot = new.clone(),
                        // Heal: the row should have been present.
                        None => rows.push(new.clone()),
                    }
                    Mutation::Keep(Payload::Rows(rows))
                }
                _ => Mutation::Drop,
            }
        }

        pub fn remove_target(
            p: Payload,
            base_arity: usize,
            old: &Row,
            noop_if_absent: bool,
        ) -> Mutation {
            match p {
                Payload::Rows(mut rows) => {
                    let before = rows.len();
                    rows.retain(|r| r.values()[base_arity..] != *old.values());
                    if noop_if_absent && rows.len() == before {
                        Mutation::Noop
                    } else {
                        Mutation::Keep(Payload::Rows(rows))
                    }
                }
                _ => Mutation::Drop,
            }
        }

        pub fn replace_target(p: Payload, base_arity: usize, old: &Row, new: &Row) -> Mutation {
            match p {
                Payload::Rows(mut rows) => {
                    let mut touched = false;
                    for r in &mut rows {
                        if r.values()[base_arity..] == *old.values() {
                            *r = r.values()[..base_arity]
                                .iter()
                                .chain(new.values())
                                .cloned()
                                .collect();
                            touched = true;
                        }
                    }
                    if touched {
                        Mutation::Keep(Payload::Rows(rows))
                    } else {
                        Mutation::Noop
                    }
                }
                _ => Mutation::Drop,
            }
        }

        fn rank_cmp(obj: &ObjectInner, a: &Row, b: &Row) -> std::cmp::Ordering {
            let pos = obj.sort_position.unwrap();
            obj.rank_cmp(a.get(pos), b.get(pos))
        }

        fn insert(
            obj: &ObjectInner,
            mut rows: Vec<Row>,
            mut complete: bool,
            row: &Row,
        ) -> Mutation {
            let pos = rows
                .iter()
                .position(|r| rank_cmp(obj, row, r) == std::cmp::Ordering::Less)
                .unwrap_or(rows.len());
            if pos < rows.len() || complete {
                rows.insert(pos, row.clone());
                if rows.len() > obj.capacity {
                    rows.truncate(obj.capacity);
                    complete = false;
                }
                Mutation::Keep(Payload::TopK { rows, complete })
            } else {
                Mutation::Noop
            }
        }

        fn remove(rows: &mut Vec<Row>, pk: &Value) -> bool {
            let before = rows.len();
            rows.retain(|r| pk_of(r) != pk);
            rows.len() != before
        }

        pub fn top_k_insert(obj: &ObjectInner, p: Payload, row: &Row) -> Mutation {
            match p {
                Payload::TopK { rows, complete } => insert(obj, rows, complete, row),
                _ => Mutation::Drop,
            }
        }

        pub fn top_k_remove(obj: &ObjectInner, p: Payload, pk: &Value) -> Mutation {
            match p {
                Payload::TopK { mut rows, complete } => {
                    if !remove(&mut rows, pk) {
                        return Mutation::Noop;
                    }
                    if rows.len() < obj.k() && !complete {
                        // Reserve exhausted: recompute on next read.
                        Mutation::Drop
                    } else {
                        Mutation::Keep(Payload::TopK { rows, complete })
                    }
                }
                _ => Mutation::Drop,
            }
        }

        /// As it was, but for one arm: when the row was cached and the
        /// re-insert is a no-op, the old code answered `Noop` and left the
        /// row's old image in the cached list (see the e2e test
        /// `top_k_update_that_sinks_a_cached_row_below_the_list_…`).
        pub fn top_k_reposition(
            obj: &ObjectInner,
            p: Payload,
            old_pk: &Value,
            new: &Row,
        ) -> Mutation {
            match p {
                Payload::TopK { mut rows, complete } => {
                    let was_cached = remove(&mut rows, old_pk);
                    match insert(obj, rows.clone(), complete, new) {
                        Mutation::Noop if was_cached => {
                            if rows.len() < obj.k() && !complete {
                                Mutation::Drop
                            } else {
                                Mutation::Keep(Payload::TopK { rows, complete })
                            }
                        }
                        other => other,
                    }
                }
                _ => Mutation::Drop,
            }
        }
    }

    /// One trigger mutation, as data.
    #[derive(Debug, Clone)]
    enum Op {
        Append(Vec<Row>),
        RemovePk { pk: Value, noop_if_absent: bool },
        ReplacePkOrAppend(Row),
        RemoveTarget { target: Row, noop_if_absent: bool },
        ReplaceTarget { old: Row, new: Row },
        TopKInsert(Row),
        TopKRemove(Value),
        TopKReposition { old_pk: Value, new: Row },
    }

    /// Joined rows in the differential test are `base ++ target` with a
    /// two-column base part.
    const BASE_ARITY: usize = 2;

    impl Op {
        fn wants_top_k(&self) -> bool {
            matches!(
                self,
                Op::TopKInsert(_) | Op::TopKRemove(_) | Op::TopKReposition { .. }
            )
        }

        fn reference(&self, obj: &ObjectInner, p: Payload) -> reference::Mutation {
            match self {
                Op::Append(rows) => reference::append(p, rows),
                Op::RemovePk { pk, noop_if_absent } => reference::remove_pk(p, pk, *noop_if_absent),
                Op::ReplacePkOrAppend(new) => reference::replace_pk_or_append(p, new),
                Op::RemoveTarget {
                    target,
                    noop_if_absent,
                } => reference::remove_target(p, BASE_ARITY, target, *noop_if_absent),
                Op::ReplaceTarget { old, new } => {
                    reference::replace_target(p, BASE_ARITY, old, new)
                }
                Op::TopKInsert(row) => reference::top_k_insert(obj, p, row),
                Op::TopKRemove(pk) => reference::top_k_remove(obj, p, pk),
                Op::TopKReposition { old_pk, new } => {
                    reference::top_k_reposition(obj, p, old_pk, new)
                }
            }
        }

        /// The splice the trigger runs for this mutation (`triggers.rs`).
        fn splice(&self, obj: &ObjectInner, l: &EncodedList) -> Result<Mutation> {
            let settle = |edited, noop_if_absent: &bool| {
                if *noop_if_absent {
                    keep_if_changed(edited)
                } else {
                    keep_or_rewrite(edited, l)
                }
            };
            match self {
                Op::Append(rows) => append(l, rows),
                Op::RemovePk { pk, noop_if_absent } => {
                    Ok(settle(remove_pk(l, pk)?, noop_if_absent))
                }
                Op::ReplacePkOrAppend(new) => replace_pk_or_append(l, new),
                Op::RemoveTarget {
                    target,
                    noop_if_absent,
                } => Ok(settle(
                    remove_target(l, BASE_ARITY, target)?,
                    noop_if_absent,
                )),
                Op::ReplaceTarget { old, new } => {
                    replace_target(l, BASE_ARITY, old, new).map(keep_if_changed)
                }
                Op::TopKInsert(row) => top_k_insert(obj, l, row).map(keep_if_changed),
                Op::TopKRemove(pk) => top_k_remove(obj, l, pk),
                Op::TopKReposition { old_pk, new } => top_k_reposition(obj, l, old_pk, new),
            }
        }
    }

    /// What a recorded edit does at publication — shape check, then
    /// the splice — with the spliced bytes decoded for comparison.
    fn run_splice(op: &Op, obj: &ObjectInner, encoded: &Payload) -> reference::Mutation {
        let spliced = match EncodedList::parse(encoded.encode()).unwrap() {
            Some(l) if l.is_top_k() == op.wants_top_k() => op.splice(obj, &l).unwrap(),
            _ => Mutation::Drop,
        };
        match spliced {
            Mutation::Keep(l) => {
                let len = l.len();
                let p = Payload::decode(&l.into_bytes()).unwrap();
                let rows = p.as_rows().or(p.as_top_k().map(|t| t.0)).unwrap();
                assert_eq!(rows.len(), len, "header count");
                reference::Mutation::Keep(p)
            }
            Mutation::Drop => reference::Mutation::Drop,
            Mutation::Noop => reference::Mutation::Noop,
        }
    }

    /// Values from a small pool so keys, targets and ranks collide —
    /// including `Float(2.0)`, which storage equality holds equal to
    /// `Int(2)` though its bytes differ.
    fn small_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            (0i64..5).prop_map(Value::Int),
            (0i64..5).prop_map(Value::Int),
            (0i64..5).prop_map(Value::Timestamp),
            Just(Value::Float(2.0)),
            Just(Value::Null),
            "[ab]{0,2}".prop_map(Value::Text),
            any::<bool>().prop_map(Value::Bool),
        ]
    }

    fn row_of(arity: std::ops::Range<usize>) -> impl Strategy<Value = Row> {
        prop::collection::vec(small_value(), arity).prop_map(Row::new)
    }

    fn payload() -> impl Strategy<Value = Payload> {
        // Every row has at least the base part, as the reference's
        // `values()[base_arity..]` needs; Top-K lists run to nine rows,
        // past the object's capacity of five.
        let rows = || prop::collection::vec(row_of(BASE_ARITY..6), 0..10);
        prop_oneof![
            rows().prop_map(Payload::Rows),
            rows().prop_map(Payload::Rows),
            (rows(), any::<bool>()).prop_map(|(rows, complete)| Payload::TopK { rows, complete }),
            (rows(), any::<bool>()).prop_map(|(rows, complete)| Payload::TopK { rows, complete }),
            any::<i64>().prop_map(Payload::Count),
        ]
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            prop::collection::vec(row_of(BASE_ARITY..6), 0..3).prop_map(Op::Append),
            (small_value(), any::<bool>())
                .prop_map(|(pk, noop_if_absent)| Op::RemovePk { pk, noop_if_absent }),
            row_of(BASE_ARITY..6).prop_map(Op::ReplacePkOrAppend),
            (row_of(0..4), any::<bool>()).prop_map(|(target, noop_if_absent)| Op::RemoveTarget {
                target,
                noop_if_absent
            }),
            (row_of(0..4), row_of(0..4)).prop_map(|(old, new)| Op::ReplaceTarget { old, new }),
            row_of(BASE_ARITY..6).prop_map(Op::TopKInsert),
            small_value().prop_map(Op::TopKRemove),
            (small_value(), row_of(BASE_ARITY..6))
                .prop_map(|(old_pk, new)| Op::TopKReposition { old_pk, new }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// For any payload and any sequence of trigger mutations,
        /// splicing the encoded bytes and decoding gives exactly what
        /// the materialising reference gives — `Noop` and `Drop`
        /// included — and each spliced payload is the next step's input.
        #[test]
        fn splices_match_the_materialising_reference(
            start in payload(),
            ops in prop::collection::vec(op(), 1..12),
        ) {
            let obj = top_k_obj();
            let mut current = start;
            for op in &ops {
                let want = op.reference(&obj, current.clone());
                let got = run_splice(op, &obj, &current);
                prop_assert_eq!(&got, &want, "{:?} on {:?}", op, current);
                if let reference::Mutation::Keep(next) = want {
                    current = next;
                }
            }
        }
    }

    /// One delta a commit records, on cache key 0 or 1.
    #[derive(Debug, Clone)]
    enum Step {
        Edit(usize, Op),
        Incr(usize, i64),
        Delete(usize),
        /// A Feature update that moves `new` to the other key: remove by
        /// pk on `from` (writing the list back unconditionally), append
        /// on the other key — as `triggers.rs` records it.
        Move {
            from: usize,
            new: Row,
        },
    }

    impl Step {
        /// The deltas this step records, with the key each goes to.
        fn deltas(&self, obj: &Arc<ObjectInner>) -> Vec<(usize, Delta)> {
            let edit = |key: usize, op: Op| {
                let obj = Arc::clone(obj);
                (
                    key,
                    Delta::edit(op.wants_top_k(), move |l| op.splice(&obj, l)),
                )
            };
            match self.clone() {
                Step::Edit(key, op) => vec![edit(key, op)],
                Step::Incr(key, n) => vec![(key, Delta::Incr(n))],
                Step::Delete(key) => vec![(key, Delta::Delete)],
                Step::Move { from, new } => {
                    let pk = new.get(0).clone();
                    vec![
                        edit(
                            from,
                            Op::RemovePk {
                                pk,
                                noop_if_absent: false,
                            },
                        ),
                        edit(1 - from, Op::Append(vec![new])),
                    ]
                }
            }
        }

        /// The same step on decoded payloads (`None` = absent key).
        fn reference(&self, obj: &ObjectInner, keys: &mut [Option<Payload>; 2]) {
            let edit = |state: &mut Option<Payload>, op: &Op| {
                if let Some(p) = state.take() {
                    *state = match op.reference(obj, p.clone()) {
                        reference::Mutation::Keep(next) => Some(next),
                        reference::Mutation::Drop => None,
                        reference::Mutation::Noop => Some(p),
                    };
                }
            };
            match self {
                Step::Edit(key, op) => edit(&mut keys[*key], op),
                Step::Incr(key, n) => {
                    keys[*key] = match keys[*key].take() {
                        Some(Payload::Count(c)) => Some(Payload::Count(c + n)),
                        _ => None,
                    }
                }
                Step::Delete(key) => keys[*key] = None,
                Step::Move { from, new } => {
                    let pk = new.get(0).clone();
                    edit(
                        &mut keys[*from],
                        &Op::RemovePk {
                            pk,
                            noop_if_absent: false,
                        },
                    );
                    edit(&mut keys[1 - from], &Op::Append(vec![new.clone()]));
                }
            }
        }
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            (0usize..2, op()).prop_map(|(key, op)| Step::Edit(key, op)),
            (0usize..2, op()).prop_map(|(key, op)| Step::Edit(key, op)),
            (0usize..2, op()).prop_map(|(key, op)| Step::Edit(key, op)),
            (0usize..2, -3i64..4).prop_map(|(key, n)| Step::Incr(key, n)),
            (0usize..2).prop_map(Step::Delete),
            (0usize..2, row_of(BASE_ARITY..6)).prop_map(|(from, new)| Step::Move { from, new }),
        ]
    }

    /// A key's starting value: absent, or a payload (counts kept far
    /// from overflow).
    fn start() -> impl Strategy<Value = Option<Payload>> {
        prop_oneof![
            Just(None),
            payload().prop_map(|p| Some(match p {
                Payload::Count(n) => Payload::Count(n % 1_000),
                p => p,
            })),
        ]
    }

    /// Flips one byte inside the first frame of an encoded list (past
    /// the 13-byte header), so the frame's own checksum refuses it.
    fn corrupt_first_frame(p: &Payload) -> Option<Vec<u8>> {
        let rows = p.as_rows().or(p.as_top_k().map(|t| t.0))?;
        if rows.is_empty() {
            return None;
        }
        let mut bytes = p.encode().to_vec();
        bytes[13 + 4] ^= 0x40;
        Some(bytes)
    }

    /// Records `steps` as deltas in one effect batch over keys holding
    /// `starts` (key 0 corrupt when `corrupt`), publishes, and returns
    /// what each key holds: `None` absent, `Some(Err)` undecodable.
    fn node_side_apply(
        obj: &Arc<ObjectInner>,
        starts: &[Option<Payload>; 2],
        corrupt: bool,
        steps: &[Step],
    ) -> Vec<Option<std::result::Result<Payload, genie_cache::CacheError>>> {
        let cluster = CacheCluster::new(Default::default());
        let app = cluster.handle(CacheOrigin::Application);
        let keys = ["k0", "k1"];
        for (key, start) in keys.iter().zip(starts) {
            if let Some(p) = start {
                app.set_payload(key, p, None).unwrap();
            }
        }
        if corrupt {
            if let Some(bytes) = starts[0].as_ref().and_then(corrupt_first_frame) {
                app.set(keys[0], bytes.into(), None).unwrap();
            }
        }
        cluster.begin_effect_batch();
        for step in steps {
            for (key, delta) in step.deltas(obj) {
                cluster.record(keys[key], delta);
            }
        }
        cluster.commit_effect_batch();
        keys.iter()
            .map(|k| app.get(k).map(|b| Payload::decode(&b)))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Publishing a batch of recorded deltas — node-side, one
        /// read-modify-write per key — leaves each key exactly where
        /// folding the materialising reference over the decoded payload
        /// does: absent keys, drops (Top-K reserve exhaustion, wrong
        /// shapes), counts and key-moving updates included. With a
        /// corrupt frame in key 0, the key is deleted or stays refused
        /// (never laundered), or the splices never read the bad frame
        /// and the result is the reference's on the intact payload.
        #[test]
        fn node_side_apply_matches_the_reference_fold(
            starts in (start(), start()),
            corrupt in any::<bool>(),
            steps in prop::collection::vec(step(), 1..10),
        ) {
            let obj = Arc::new(top_k_obj());
            let starts = [starts.0, starts.1];
            let mut want = starts.clone();
            for step in &steps {
                step.reference(&obj, &mut want);
            }
            let got = node_side_apply(&obj, &starts, corrupt, &steps);
            let was_corrupt = corrupt && starts[0].as_ref().and_then(corrupt_first_frame).is_some();
            for (key, (got, want)) in got.into_iter().zip(want).enumerate() {
                match got {
                    None if key == 0 && was_corrupt => {}
                    Some(Err(_)) => prop_assert!(key == 0 && was_corrupt, "key {} undecodable", key),
                    got => prop_assert_eq!(got.map(|r| r.unwrap()), want, "key {} after {:?}", key, steps),
                }
            }
        }
    }

    fn post(id: i64, user: i64, ts: i64) -> Row {
        genie_storage::row![id, user, Value::Timestamp(ts)]
    }

    fn top_k(rows: Vec<Row>, complete: bool) -> EncodedList {
        EncodedList::parse(Payload::TopK { rows, complete }.encode())
            .unwrap()
            .unwrap()
    }

    /// Top-K insert at every rank of a list at, under and over capacity,
    /// with `complete` both ways.
    #[test]
    fn top_k_insert_at_every_rank() {
        let obj = top_k_obj(); // k 3, capacity 5
        for len in 0..=7i64 {
            let rows: Vec<Row> = (0..len).map(|i| post(i, 7, 100 - 10 * i)).collect();
            for complete in [true, false] {
                let p = Payload::TopK {
                    rows: rows.clone(),
                    complete,
                };
                // A sort value above, between, equal to and below every row.
                for ts in (20..=110).step_by(5) {
                    let op = Op::TopKInsert(post(99, 7, ts));
                    let want = op.reference(&obj, p.clone());
                    let got = run_splice(&op, &obj, &p);
                    assert_eq!(got, want, "len {len} complete {complete} ts {ts}");
                }
            }
        }
    }

    #[test]
    fn top_k_delete_drops_a_list_whose_reserve_is_gone() {
        let obj = top_k_obj();
        let rows: Vec<Row> = (0..3).map(|i| post(i, 7, 100 - i)).collect();
        let gone = top_k_remove(&obj, &top_k(rows.clone(), false), &Value::Int(1)).unwrap();
        assert!(matches!(gone, Mutation::Drop));
        let kept = top_k_remove(&obj, &top_k(rows.clone(), true), &Value::Int(1)).unwrap();
        assert!(matches!(kept, Mutation::Keep(l) if l.len() == 2 && l.complete()));
        let absent = top_k_remove(&obj, &top_k(rows, true), &Value::Int(9)).unwrap();
        assert!(matches!(absent, Mutation::Noop));
    }

    /// `replace_pk_or_append` stops reading at the row it replaces: a
    /// corrupt frame after it is copied through, one before it is an
    /// error.
    #[test]
    fn replace_reads_no_further_than_the_match() {
        let rows: Vec<Row> = (0..4).map(|i| post(i, 7, i)).collect();
        let enc = Payload::Rows(rows).encode().to_vec();
        let mut bad = enc.clone();
        let last = bad.len() - 6;
        bad[last] ^= 1;
        let l = EncodedList::parse(bad.into()).unwrap().unwrap();
        let Mutation::Keep(out) = replace_pk_or_append(&l, &post(1, 7, 50)).unwrap() else {
            panic!("expected keep");
        };
        assert!(Payload::decode(&out.into_bytes()).is_err(), "not laundered");
        assert!(replace_pk_or_append(&l, &post(3, 7, 50)).is_err());
        assert!(
            replace_pk_or_append(&l, &post(8, 7, 50)).is_err(),
            "heal scans all"
        );
    }
}
