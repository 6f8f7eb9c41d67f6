//! The two front doors of a write — autocommit and an explicit
//! transaction — lead to one commit path. A random stream of
//! single-statement writes, run once autocommitted and once with every
//! statement wrapped in `BEGIN … COMMIT`, must fire the same triggers
//! with the same row images, leave the same committed state, and log the
//! same commit records — which recovery then replays to that state.

use genie_storage::{
    Database, DbConfig, StorageError, Trigger, TriggerCtx, TriggerEvent, Value, WalConfig,
};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

static TMP_SEQ: AtomicU32 = AtomicU32::new(0);

/// Process-unique scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "genie-front-doors-{tag}-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        Scratch(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn wal_cfg() -> WalConfig {
    WalConfig {
        checkpoint_every: 0, // recovery replays every record
        ..WalConfig::default()
    }
}

/// One write statement. Keys come from small ranges so streams collide:
/// duplicate inserts, missing FK parents, updates and deletes that match
/// nothing, pk moves onto taken keys.
#[derive(Debug, Clone)]
enum Op {
    InsertUser(i64),
    InsertPost {
        id: i64,
        user: i64,
        v: i64,
    },
    /// Pk-targeted update of a non-key column.
    SetPost {
        id: i64,
        v: i64,
    },
    /// Pk-targeted update that moves the row to another key.
    MovePost {
        from: i64,
        to: i64,
    },
    /// Update by a non-key column: a table-exclusive lock, many rows.
    SetUserPosts {
        user: i64,
        v: i64,
    },
    DeletePost(i64),
    DeleteUser(i64),
    /// An update whose predicate matches no row.
    NoMatch(i64),
}

impl Op {
    fn sql(&self) -> (&'static str, Vec<Value>) {
        let i = Value::Int;
        match *self {
            Op::InsertUser(id) => ("INSERT INTO users VALUES ($1, $2)", vec![i(id), i(id * 10)]),
            Op::InsertPost { id, user, v } => (
                "INSERT INTO posts VALUES ($1, $2, $3)",
                vec![i(id), i(user), i(v)],
            ),
            Op::SetPost { id, v } => ("UPDATE posts SET v = $1 WHERE id = $2", vec![i(v), i(id)]),
            Op::MovePost { from, to } => (
                "UPDATE posts SET id = $1 WHERE id = $2",
                vec![i(to), i(from)],
            ),
            Op::SetUserPosts { user, v } => (
                "UPDATE posts SET v = $1 WHERE user_id = $2",
                vec![i(v), i(user)],
            ),
            Op::DeletePost(id) => ("DELETE FROM posts WHERE id = $1", vec![i(id)]),
            Op::DeleteUser(id) => ("DELETE FROM users WHERE id = $1", vec![i(id)]),
            Op::NoMatch(v) => ("UPDATE posts SET v = $1 WHERE id = 1000", vec![i(v)]),
        }
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..6i64).prop_map(Op::InsertUser),
        (0..12i64, 0..6i64, 0..100i64).prop_map(|(id, user, v)| Op::InsertPost { id, user, v }),
        (0..12i64, 0..100i64).prop_map(|(id, v)| Op::SetPost { id, v }),
        (0..12i64, 0..12i64).prop_map(|(from, to)| Op::MovePost { from, to }),
        (0..6i64, 0..100i64).prop_map(|(user, v)| Op::SetUserPosts { user, v }),
        (0..12i64).prop_map(Op::DeletePost),
        (0..6i64).prop_map(Op::DeleteUser),
        (0..100i64).prop_map(Op::NoMatch),
    ]
}

/// A durable database with an FK-linked, seeded schema and a trigger on
/// every (table, event) that appends `(event, table, old, new)` to the
/// log.
fn open(dir: &Path) -> (Database, Arc<Mutex<Vec<String>>>) {
    let db = Database::create_durable(dir, DbConfig::default(), wal_cfg()).unwrap();
    db.execute_sql("CREATE TABLE users (id INT PRIMARY KEY, karma INT)", &[])
        .unwrap();
    db.execute_sql(
        "CREATE TABLE posts (id INT PRIMARY KEY, user_id INT NOT NULL, v INT, \
         FOREIGN KEY (user_id) REFERENCES users (id))",
        &[],
    )
    .unwrap();
    db.execute_sql("CREATE INDEX posts_user ON posts (user_id)", &[])
        .unwrap();
    // Most keys start taken, so the stream's writes mostly hit rows.
    for user in 0..5 {
        run(&db, &Op::InsertUser(user), false).unwrap();
    }
    for id in 0..8 {
        let post = Op::InsertPost {
            id,
            user: id % 5,
            v: id,
        };
        run(&db, &post, false).unwrap();
    }
    let log = Arc::new(Mutex::new(Vec::new()));
    for table in ["users", "posts"] {
        for event in [
            TriggerEvent::Insert,
            TriggerEvent::Update,
            TriggerEvent::Delete,
        ] {
            let log = Arc::clone(&log);
            db.create_trigger(Trigger::new(
                format!("log_{table}_{event}"),
                table,
                event,
                move |ctx: &mut TriggerCtx<'_>| {
                    log.lock().unwrap().push(format!(
                        "{} {} {:?} {:?}",
                        ctx.event, ctx.table, ctx.old, ctx.new
                    ));
                    Ok(())
                },
            ))
            .unwrap();
        }
    }
    (db, log)
}

/// Runs `op` through one front door; returns rows affected or the error
/// kind (constraint violations are part of the stream).
fn run(db: &Database, op: &Op, wrapped: bool) -> Result<u64, String> {
    let (sql, params) = op.sql();
    let kind = |e: StorageError| {
        format!("{e:?}")
            .split([' ', '(', '{'])
            .next()
            .unwrap()
            .to_owned()
    };
    if !wrapped {
        return db
            .execute_sql(sql, &params)
            .map(|o| o.result.rows_affected)
            .map_err(kind);
    }
    db.execute_sql("BEGIN", &[]).unwrap();
    match db.execute_sql(sql, &params) {
        Ok(out) => {
            db.execute_sql("COMMIT", &[]).map_err(kind)?;
            Ok(out.result.rows_affected)
        }
        Err(e) => {
            db.execute_sql("ROLLBACK", &[]).unwrap();
            Err(kind(e))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn autocommit_and_wrapped_statements_commit_identically(
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let dirs = [Scratch::new("auto"), Scratch::new("wrapped")];
        let mut runs = Vec::new();
        for (dir, wrapped) in dirs.iter().zip([false, true]) {
            let (db, log) = open(dir.path());
            let results: Vec<_> = ops.iter().map(|op| run(&db, op, wrapped)).collect();
            let log = log.lock().unwrap().clone();
            let wal = db.wal_stats().unwrap();
            let digest = db.content_digest();
            drop(db);
            let recovered = Database::open_with_recovery(dir.path()).unwrap();
            prop_assert_eq!(recovered.content_digest(), digest, "recovery (wrapped: {})", wrapped);
            runs.push((results, log, wal.records, wal.bytes, digest));
        }
        let (auto, wrapped) = (&runs[0], &runs[1]);
        prop_assert_eq!(&auto.0, &wrapped.0, "statement results");
        prop_assert_eq!(&auto.1, &wrapped.1, "trigger logs");
        prop_assert_eq!(auto.2, wrapped.2, "log records");
        prop_assert_eq!(auto.3, wrapped.3, "log bytes");
        prop_assert_eq!(auto.4, wrapped.4, "content digest");
    }
}
