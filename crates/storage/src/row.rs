//! Rows and row identities.

use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// Internal identity of a stored row (heap slot number).
///
/// Stable for the lifetime of the row; never reused within a table's
/// lifetime so undo logs and triggers can refer to rows unambiguously.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowId(pub u64);

impl fmt::Display for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rid:{}", self.0)
    }
}

/// A single tuple: one value per schema column, in declaration order.
///
/// Rows are immutable and shared. The values live in one reference-counted
/// allocation, so `clone` is a count increment: a SELECT hands out the
/// heap's own row versions, and a cache fill encodes the very rows the
/// query returned. No row is ever mutated in place — [`Row::values_mut`]
/// copies the values first unless this handle is the only one, so a held
/// result row keeps the values it was read with whatever later writes do
/// to the heap.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Row {
    values: Arc<[Value]>,
}

impl Row {
    /// Creates a row from its column values (one copy into the shared
    /// allocation; collecting an iterator builds the row in place).
    pub fn new(values: Vec<Value>) -> Self {
        Row {
            values: values.into(),
        }
    }

    /// Builds a row of `arity` columns in its one shared allocation: every
    /// slot starts NULL and `fill` writes them, stopping at its first error.
    ///
    /// # Errors
    ///
    /// Whatever `fill` returns.
    pub fn try_build<E>(
        arity: usize,
        fill: impl FnOnce(&mut [Value]) -> Result<(), E>,
    ) -> Result<Self, E> {
        let mut values: Arc<[Value]> = std::iter::repeat_n(Value::Null, arity).collect();
        fill(Arc::get_mut(&mut values).expect("a row being built is unshared"))?;
        Ok(Row { values })
    }

    /// The values, in column order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Mutable access to this handle's values (used by UPDATE execution
    /// to build the new image). Copy-on-write: while the allocation is
    /// shared — with the heap or any other handle — the values are copied
    /// first, so no other holder sees the change.
    pub fn values_mut(&mut self) -> &mut [Value] {
        Arc::make_mut(&mut self.values)
    }

    /// The value at column position `i`, or NULL if out of range.
    ///
    /// Out-of-range access returns NULL rather than panicking because
    /// projection lists are validated before execution; a miss here means a
    /// ragged literal row in tests.
    pub fn get(&self, i: usize) -> &Value {
        static NULL: Value = Value::Null;
        self.values.get(i).unwrap_or(&NULL)
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// True if the row has no columns.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Approximate in-memory footprint, used by the buffer-pool model and
    /// the cache's memory accounting.
    pub fn byte_size(&self) -> usize {
        8 + self.values.iter().map(Value::byte_size).sum::<usize>()
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row::new(values)
    }
}

/// Collects straight into the shared allocation when the iterator knows
/// its exact length (a slice's `iter().cloned()`, `map`, `chain`,
/// `repeat_n`, ...).
impl FromIterator<Value> for Row {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Row {
            values: iter.into_iter().collect(),
        }
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v}")?;
        }
        f.write_str(")")
    }
}

/// Builds a [`Row`] from a list of values convertible to [`Value`].
///
/// ```
/// use genie_storage::row;
/// let r = row![1i64, "alice", true];
/// assert_eq!(r.arity(), 3);
/// ```
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        <$crate::Row as ::std::iter::FromIterator<$crate::Value>>::from_iter(
            [$($crate::Value::from($v)),*]
        )
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_out_of_range_is_null() {
        let r = Row::new(vec![Value::Int(1)]);
        assert_eq!(r.get(0), &Value::Int(1));
        assert!(r.get(5).is_null());
    }

    #[test]
    fn row_macro_converts() {
        let r = row![42i64, "bob", false];
        assert_eq!(r.get(0), &Value::Int(42));
        assert_eq!(r.get(1), &Value::Text("bob".into()));
        assert_eq!(r.get(2), &Value::Bool(false));
    }

    #[test]
    fn display_renders_tuple() {
        let r = row![1i64, "x"];
        assert_eq!(r.to_string(), "(1, 'x')");
    }

    #[test]
    fn byte_size_is_positive() {
        assert!(Row::default().byte_size() > 0);
        assert!(row![1i64].byte_size() > Row::default().byte_size());
    }

    #[test]
    fn from_iterator_collects() {
        let r: Row = (0..3).map(Value::Int).collect();
        assert_eq!(r.arity(), 3);
    }

    #[test]
    fn clone_shares_and_values_mut_copies_on_write() {
        let a = row![1i64, "x"];
        let mut b = a.clone();
        assert!(std::ptr::eq(a.values(), b.values()));
        b.values_mut()[0] = Value::Int(2);
        assert_eq!(a, row![1i64, "x"]);
        assert_eq!(b, row![2i64, "x"]);
    }

    #[test]
    fn try_build_fills_or_fails() {
        let r = Row::try_build(2, |v| {
            v[1] = Value::Int(7);
            Ok::<_, ()>(())
        });
        assert_eq!(r, Ok(row![Value::Null, 7i64]));
        assert_eq!(Row::try_build(3, |_| Err("bad")), Err("bad"));
    }
}
