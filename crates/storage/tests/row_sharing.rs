//! Rows are shared, not copied. A SELECT hands out the heap's own row
//! versions by reference count, so its allocations do not grow with the
//! rows it returns; and because every write goes through copy-on-write,
//! a result row, a trigger image and an older snapshot's version each
//! keep the values they were read with.
//!
//! This is a test binary of its own because it installs a counting
//! global allocator. Counts are per thread, so tests running beside each
//! other do not disturb them.

use genie_storage::{row, Database, Row, Trigger, TriggerCtx, TriggerEvent, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialised thread-local cell, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) this thread made while running `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

const SELECT_BY_SENDER: &str = "SELECT * FROM wall_posts WHERE sender_id = $1";

/// A `wall_posts`-shaped table indexed on `sender_id`: sender `s` has
/// `counts[s]` posts.
fn wall_posts(counts: &[i64]) -> Database {
    let db = Database::default();
    db.execute_sql(
        "CREATE TABLE wall_posts (id INT PRIMARY KEY, user_id INT NOT NULL, \
         sender_id INT NOT NULL, content TEXT, date_posted TIMESTAMP NOT NULL)",
        &[],
    )
    .unwrap();
    db.execute_sql(
        "CREATE INDEX wall_posts_sender ON wall_posts (sender_id)",
        &[],
    )
    .unwrap();
    let mut id = 0;
    for (sender, &n) in counts.iter().enumerate() {
        for _ in 0..n {
            id += 1;
            db.execute_sql(
                "INSERT INTO wall_posts VALUES ($1, $2, $3, $4, $5)",
                &[
                    Value::Int(id),
                    Value::Int(id % 7),
                    Value::Int(sender as i64),
                    Value::Text(format!("post number {id} on the wall")),
                    Value::Timestamp(1_000 + id),
                ],
            )
            .unwrap();
        }
    }
    db
}

fn select_by_sender(db: &Database, sender: i64) -> Vec<Row> {
    db.execute_sql(SELECT_BY_SENDER, &[Value::Int(sender)])
        .unwrap()
        .result
        .rows
}

/// The rows a select returns cost a reference count each, not a copy:
/// ten times the rows costs (almost) no more allocations. A deep copy
/// costs at least two per row here (the values and the text), so 90
/// extra rows would add 180.
#[test]
fn select_allocations_do_not_grow_with_rows_returned() {
    let db = wall_posts(&[0, 10, 100]);
    // Warm the statement cache and any lazily built state.
    assert_eq!(select_by_sender(&db, 1).len(), 10);
    assert_eq!(select_by_sender(&db, 2).len(), 100);

    let (small, rows) = allocations(|| select_by_sender(&db, 1));
    assert_eq!(rows.len(), 10);
    let (large, rows) = allocations(|| select_by_sender(&db, 2));
    assert_eq!(rows.len(), 100);
    assert!(
        large < small + 10,
        "a 100-row select made {large} allocations, a 10-row one {small}: \
         returned rows are being copied"
    );
}

#[test]
fn held_result_row_keeps_its_values_across_an_update() {
    let db = wall_posts(&[0, 3]);
    let held = select_by_sender(&db, 1);
    db.execute_sql(
        "UPDATE wall_posts SET content = 'edited' WHERE sender_id = $1",
        &[Value::Int(1)],
    )
    .unwrap();
    for (r, now) in held.iter().zip(select_by_sender(&db, 1)) {
        assert_ne!(r.get(3), &Value::Text("edited".into()));
        assert_eq!(now.get(3), &Value::Text("edited".into()));
        assert_eq!(r.get(0), now.get(0));
    }
}

#[test]
fn values_mut_on_a_result_row_leaves_the_heap_unchanged() {
    let db = wall_posts(&[0, 3]);
    let before = select_by_sender(&db, 1);
    let mut rows = before.clone();
    for r in &mut rows {
        r.values_mut()[3] = Value::Text("scribbled".into());
    }
    assert_eq!(select_by_sender(&db, 1), before);
    assert!(rows
        .iter()
        .all(|r| r.get(3) == &Value::Text("scribbled".into())));
}

/// An UPDATE's trigger images and the version it leaves for an older
/// snapshot all share allocations with rows handed out before and after;
/// writing into any handed-out row touches none of them.
#[test]
fn trigger_images_and_history_versions_are_unaffected() {
    let db = wall_posts(&[0, 1]);
    let images: Arc<Mutex<Vec<(Row, Row)>>> = Arc::default();
    let log = Arc::clone(&images);
    db.create_trigger(Trigger::new(
        "capture",
        "wall_posts",
        TriggerEvent::Update,
        move |ctx: &mut TriggerCtx<'_>| {
            let (old, new) = (ctx.old.unwrap().clone(), ctx.new.unwrap().clone());
            log.lock().unwrap().push((old, new));
            Ok(())
        },
    ))
    .unwrap();
    let original = select_by_sender(&db, 1).remove(0);

    // An older snapshot opens before the update, which commits on
    // another thread.
    db.execute_sql("BEGIN", &[]).unwrap();
    assert_eq!(select_by_sender(&db, 1), vec![original.clone()]);
    let writer = db.clone();
    std::thread::spawn(move || {
        writer
            .execute_sql("UPDATE wall_posts SET content = 'new' WHERE id = 1", &[])
            .unwrap();
    })
    .join()
    .unwrap();

    let mut history = select_by_sender(&db, 1).remove(0);
    assert_eq!(history, original, "the snapshot reads the history version");
    history.values_mut()[3] = Value::Text("scribbled".into());
    let mut held = original.clone();
    held.values_mut()[3] = Value::Text("scribbled".into());
    assert_eq!(select_by_sender(&db, 1), vec![original.clone()]);
    db.execute_sql("COMMIT", &[]).unwrap();

    let mut current = select_by_sender(&db, 1).remove(0);
    let updated = row![1i64, 1i64, 1i64, "new", Value::Timestamp(1_001)];
    assert_eq!(current, updated);
    current.values_mut()[3] = Value::Text("scribbled".into());

    let images = images.lock().unwrap();
    assert_eq!(*images, vec![(original, updated.clone())]);
    assert_eq!(select_by_sender(&db, 1), vec![updated]);
}
