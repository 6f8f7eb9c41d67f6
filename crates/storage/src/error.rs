//! Error types for the storage engine.
//!
//! One variant is a *retryable abort* rather than a failure:
//! [`StorageError::WriteConflict`] (first-updater-wins — another
//! transaction wrote a version of a row this transaction's snapshot
//! cannot see: an uncommitted write, or a commit after the snapshot).
//! Writers never wait for each other inside a transaction, so the
//! conflict is reported at once; roll the transaction back and retry it
//! on a fresh snapshot:
//!
//! ```
//! use genie_storage::{Database, StorageError, Value};
//!
//! fn transfer(db: &Database, from: i64, to: i64) -> Result<(), StorageError> {
//!     db.transaction(|t| {
//!         t.execute_sql("UPDATE acct SET bal = bal - 1 WHERE id = $1", &[Value::Int(from)])?;
//!         t.execute_sql("UPDATE acct SET bal = bal + 1 WHERE id = $1", &[Value::Int(to)])?;
//!         Ok(())
//!     })
//! }
//!
//! # fn main() -> Result<(), StorageError> {
//! let db = Database::default();
//! db.execute_sql("CREATE TABLE acct (id INT PRIMARY KEY, bal INT)", &[])?;
//! db.execute_sql("INSERT INTO acct VALUES (1, 10), (2, 10)", &[])?;
//! // The canonical retry loop: aborts are expected under contention.
//! loop {
//!     match transfer(&db, 1, 2) {
//!         Ok(()) => break,
//!         Err(StorageError::WriteConflict { .. }) => {
//!             continue; // rolled back; retry on a fresh snapshot
//!         }
//!         Err(e) => return Err(e), // real error
//!     }
//! }
//! assert_eq!(
//!     db.execute_sql("SELECT bal FROM acct WHERE id = 2", &[])?.result.rows[0].get(0),
//!     &Value::Int(11),
//! );
//! # Ok(())
//! # }
//! ```

use std::fmt;

/// Any error produced by the storage engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The named table does not exist.
    UnknownTable(String),
    /// The named column does not exist on the referenced table.
    UnknownColumn { table: String, column: String },
    /// The named index does not exist.
    UnknownIndex(String),
    /// An object with this name already exists.
    AlreadyExists(String),
    /// A value was incompatible with the column's declared type.
    TypeMismatch {
        column: String,
        expected: String,
        got: String,
    },
    /// A NOT NULL column received NULL.
    NullViolation(String),
    /// A UNIQUE or PRIMARY KEY constraint was violated.
    UniqueViolation { index: String, key: String },
    /// A FOREIGN KEY constraint was violated.
    ForeignKeyViolation { constraint: String, detail: String },
    /// SQL text failed to lex or parse.
    Parse(String),
    /// The statement is recognised but unsupported by the engine.
    Unsupported(String),
    /// A trigger body returned an error; the statement is aborted.
    TriggerFailed { trigger: String, detail: String },
    /// The transaction was aborted (a failed commit, or a nested BEGIN).
    TransactionAborted(String),
    /// A transactional operation was issued outside a transaction.
    NoTransaction,
    /// A strict-mode (§3.3) cache-key lock could not be acquired within
    /// its attempt budget; the commit was aborted.
    LockTimeout { table: String },
    /// First-updater-wins: the transaction tried to write a row version
    /// that another transaction already superseded — with a write not
    /// yet committed, or committed after this transaction's snapshot was
    /// taken — or a key another transaction's unfinished write still
    /// holds. Roll the transaction back and retry it on a fresh
    /// snapshot. `row` is true when the conflict is on the row or
    /// primary key the statement writes; an autocommitted statement
    /// then waits for the other writer to finish and retries itself, so
    /// only a transaction's statements report it. A unique-secondary-key
    /// or foreign-key collision (`row == false`) is reported either way.
    WriteConflict {
        table: String,
        key: String,
        row: bool,
    },
    /// An arithmetic or evaluation error inside an expression.
    Eval(String),
    /// A write-ahead-log failure: log I/O error (the log is fail-stop —
    /// once poisoned, no later commit is ever reported durable), a
    /// corrupt checkpoint, or an unrecoverable log during restart.
    Wal(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::UnknownTable(t) => write!(f, "unknown table {t:?}"),
            StorageError::UnknownColumn { table, column } => {
                write!(f, "unknown column {column:?} on table {table:?}")
            }
            StorageError::UnknownIndex(i) => write!(f, "unknown index {i:?}"),
            StorageError::AlreadyExists(n) => write!(f, "object {n:?} already exists"),
            StorageError::TypeMismatch {
                column,
                expected,
                got,
            } => write!(
                f,
                "type mismatch for column {column:?}: expected {expected}, got {got}"
            ),
            StorageError::NullViolation(c) => {
                write!(f, "null value in NOT NULL column {c:?}")
            }
            StorageError::UniqueViolation { index, key } => {
                write!(f, "duplicate key {key} violates unique index {index:?}")
            }
            StorageError::ForeignKeyViolation { constraint, detail } => {
                write!(f, "foreign key {constraint:?} violated: {detail}")
            }
            StorageError::Parse(m) => write!(f, "parse error: {m}"),
            StorageError::Unsupported(m) => write!(f, "unsupported: {m}"),
            StorageError::TriggerFailed { trigger, detail } => {
                write!(f, "trigger {trigger:?} failed: {detail}")
            }
            StorageError::TransactionAborted(m) => write!(f, "transaction aborted: {m}"),
            StorageError::NoTransaction => write!(f, "no transaction is active"),
            StorageError::LockTimeout { table } => {
                write!(f, "lock timeout on table {table:?}")
            }
            StorageError::WriteConflict { table, key, .. } => {
                write!(
                    f,
                    "write conflict on {table:?} key {key}: another transaction's version \
                     superseded this transaction's snapshot (first-updater-wins)"
                )
            }
            StorageError::Eval(m) => write!(f, "evaluation error: {m}"),
            StorageError::Wal(m) => write!(f, "wal: {m}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// Convenience result alias for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = StorageError::UnknownColumn {
            table: "wall".into(),
            column: "nope".into(),
        };
        let s = e.to_string();
        assert!(s.contains("wall") && s.contains("nope"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StorageError>();
    }
}
