//! Index entries are compact. A key of one or two columns lives inline
//! in the B-tree node, and so does the posting of a key that names one
//! row, so such an entry costs no heap block of its own; the pk index
//! holds its one-row postings inline too.
//!
//! This is a test binary of its own because it installs a counting
//! global allocator. It tracks the bytes and blocks this thread holds,
//! so one load of a table with and one without the index tell what the
//! index entries cost.

use genie_storage::{Database, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Requested bytes this thread holds.
    static BYTES: Cell<i64> = const { Cell::new(0) };
    /// Heap blocks this thread holds.
    static BLOCKS: Cell<i64> = const { Cell::new(0) };
}

fn track(bytes: i64, blocks: i64) {
    // `try_with`: the slots are gone while the thread tears down.
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes));
    let _ = BLOCKS.try_with(|n| n.set(n.get() + blocks));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only const-initialised thread-local cells, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as i64, 1);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as i64, 1);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as i64 - layout.size() as i64, 0);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64), -1);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const ROWS: i64 = 20_000;

/// What loading the table left held: (requested bytes, heap blocks).
fn held_after<T>(f: impl FnOnce() -> T) -> ((i64, i64), T) {
    let before = (BYTES.with(Cell::get), BLOCKS.with(Cell::get));
    let out = f();
    let after = (BYTES.with(Cell::get), BLOCKS.with(Cell::get));
    ((after.0 - before.0, after.1 - before.1), out)
}

/// A table of `ROWS` rows inserted in one transaction and settled by
/// vacuum; with `indexed`, an Int index whose every key names one row.
fn load(indexed: bool) -> ((i64, i64), Database) {
    let db = Database::default();
    db.execute_sql("CREATE TABLE t (id INT PRIMARY KEY, k INT NOT NULL)", &[])
        .unwrap();
    if indexed {
        db.execute_sql("CREATE INDEX t_k ON t (k)", &[]).unwrap();
    }
    held_after(|| {
        db.execute_sql("BEGIN", &[]).unwrap();
        for i in 0..ROWS {
            db.execute_sql(
                "INSERT INTO t VALUES ($1, $2)",
                &[Value::Int(i), Value::Int(i)],
            )
            .unwrap();
        }
        db.execute_sql("COMMIT", &[]).unwrap();
        db.vacuum();
        db
    })
}

/// The layout this gate pins: an entry of a key that names one row.
/// With a `Vec<Value>` key over a `BTreeSet<RowId>` posting, this load
/// held 220.9 bytes in 2.17 blocks per entry, and with a one-rid `Vec`
/// posting per pk the pk index plus heap held 217.0 bytes per row.
/// Inline keys and postings hold 136.9 bytes in 0.17 blocks (the
/// B-tree's own nodes) and 185.0 bytes.
#[test]
fn one_row_index_entries_cost_no_block_of_their_own() {
    let ((plain_bytes, plain_blocks), plain) = load(false);
    let ((indexed_bytes, indexed_blocks), indexed) = load(true);
    assert_eq!(plain.row_count("t").unwrap(), ROWS as usize);
    assert_eq!(indexed.row_count("t").unwrap(), ROWS as usize);

    let n = ROWS as f64;
    let entry_bytes = (indexed_bytes - plain_bytes) as f64 / n;
    let entry_blocks = (indexed_blocks - plain_blocks) as f64 / n;
    let row_bytes = plain_bytes as f64 / n;
    println!(
        "per index entry: {entry_bytes:.1} bytes in {entry_blocks:.2} blocks; \
         pk + heap per row: {row_bytes:.1} bytes"
    );
    assert!(
        entry_bytes <= 150.0,
        "an index entry holds {entry_bytes:.1} bytes (gate 150)"
    );
    assert!(
        entry_blocks <= 0.5,
        "an index entry holds {entry_blocks:.2} heap blocks (gate 0.5)"
    );
    assert!(
        row_bytes <= 200.0,
        "pk index + heap hold {row_bytes:.1} bytes per row (gate 200)"
    );
}
