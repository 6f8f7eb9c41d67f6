//! Trigger effects as data. A commit's trigger bodies do not read the
//! cache: they record, per key, an ordered list of [`Delta`]s, and the
//! commit's publication folds them over the key's value where it lives
//! ([`crate::PreparedEffectBatch::publish`]). What an edit means for a
//! cached object is the caller's business; this module only knows list
//! bytes, counts and deletion.

use crate::codec::{EncodedList, Payload};
use crate::error::Result;
use bytes::Bytes;

/// What a list edit does with the cached list it is given.
#[derive(Debug)]
pub enum Mutation {
    /// Store the edited list.
    Keep(EncodedList),
    /// Remove the key (the edit cannot keep the list correct).
    Drop,
    /// Leave the list as it is.
    Noop,
}

/// A list edit: runs once, on the key's list at publication. An error
/// (a frame the codec refuses) deletes the key.
pub type ListEdit = Box<dyn FnOnce(&EncodedList) -> Result<Mutation> + Send>;

/// One recorded change to a cache key. On an absent key every delta is
/// a no-op: nothing is cached, so the next read recomputes the value.
pub enum Delta {
    /// Splice the cached list. A value that is not a list of the
    /// `top_k` shape is dropped.
    Edit {
        /// Whether the edit expects a `TopK` list (else `Rows`).
        top_k: bool,
        /// The splice.
        edit: ListEdit,
    },
    /// Add to a cached count; a value that is not a count is deleted.
    Incr(i64),
    /// Remove the key.
    Delete,
}

impl Delta {
    /// A [`Delta::Edit`] from a closure.
    pub fn edit(
        top_k: bool,
        edit: impl FnOnce(&EncodedList) -> Result<Mutation> + Send + 'static,
    ) -> Delta {
        Delta::Edit {
            top_k,
            edit: Box::new(edit),
        }
    }
}

impl std::fmt::Debug for Delta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Delta::Edit { top_k, .. } => f.debug_struct("Edit").field("top_k", top_k).finish(),
            Delta::Incr(n) => f.debug_tuple("Incr").field(n).finish(),
            Delta::Delete => f.write_str("Delete"),
        }
    }
}

/// How applied deltas turned out, one outcome per delta.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Applied {
    /// Edits and increments that changed a cached value in place.
    pub in_place: u64,
    /// Deltas that found nothing to change (absent key, or an edit that
    /// matched no row).
    pub noops: u64,
    /// Edits that dropped the key (wrong shape, Top-K reserve gone).
    pub drops: u64,
    /// Deletes, and values the codec refused or the store would not
    /// take (each deletes the key).
    pub invalidations: u64,
    /// Cache round trips a client applying the same deltas one at a time
    /// spends: a `gets` (or `incr`, or `delete`) per delta, plus the
    /// `cas` or `delete` that follows a read which changed the value.
    pub round_trips: u64,
}

/// Folds `deltas`, in order, over a key's current value (`None` =
/// absent). Returns `None` when the value is unchanged, else the value
/// to store (`Some(None)` = delete the key).
pub(crate) fn fold(
    mut value: Option<Bytes>,
    deltas: Vec<Delta>,
    applied: &mut Applied,
) -> Option<Option<Bytes>> {
    let mut changed = false;
    for delta in deltas {
        applied.round_trips += 1;
        let wrote;
        (value, wrote) = match (delta, value.take()) {
            (Delta::Delete, _) => {
                applied.invalidations += 1;
                (None, true)
            }
            (_, None) => {
                applied.noops += 1;
                (None, false)
            }
            (Delta::Incr(n), Some(data)) => {
                match Payload::decode(&data).ok().and_then(|p| p.as_count()) {
                    Some(count) => {
                        applied.in_place += 1;
                        (Some(Payload::Count(count + n).encode()), true)
                    }
                    None => {
                        applied.round_trips += 1;
                        applied.invalidations += 1;
                        (None, true)
                    }
                }
            }
            (Delta::Edit { top_k, edit }, Some(data)) => {
                let mutation = match EncodedList::parse(data.clone()) {
                    Ok(Some(list)) if list.is_top_k() == top_k => edit(&list),
                    Ok(_) => Ok(Mutation::Drop),
                    Err(e) => Err(e),
                };
                let next = match mutation {
                    Ok(Mutation::Noop) => {
                        applied.noops += 1;
                        (Some(data), false)
                    }
                    Ok(Mutation::Keep(list)) => {
                        applied.in_place += 1;
                        (Some(list.into_bytes()), true)
                    }
                    Ok(Mutation::Drop) => {
                        applied.drops += 1;
                        (None, true)
                    }
                    Err(_) => {
                        applied.invalidations += 1;
                        (None, true)
                    }
                };
                // Anything but a no-op writes back (`cas`) or deletes.
                applied.round_trips += u64::from(next.1);
                next
            }
        };
        changed |= wrote;
    }
    changed.then_some(value)
}
