//! A cached item is one heap block. The store keeps the key's length,
//! the key and the value of an item in a single refcounted block, which
//! the map and the CLOCK ring share, so storing N items adds N live
//! blocks (beside the map's and the ring's own tables), and an eviction
//! sweep allocates nothing but the item coming in.
//!
//! This is a test binary of its own because it installs a counting
//! global allocator. Counts are per thread, so tests running beside each
//! other do not disturb them.

use bytes::Bytes;
use genie_cache::{CacheStore, StoreConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = counter.try_with(|n| n.set(n.get() + 1));
}

fn add_bytes(delta: i64) {
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + delta));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only const-initialised thread-local cells, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        add_bytes(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        add_bytes(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counts as an allocation, not as a new live block.
        bump(&ALLOCS);
        bump(&FREES);
        add_bytes(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREES);
        add_bytes(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Blocks this thread has allocated and not freed.
fn live_blocks() -> i64 {
    ALLOCS.with(Cell::get) as i64 - FREES.with(Cell::get) as i64
}

/// Allocations (and reallocations) this thread made while running `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// A 23-byte key, the length of the social app's cache keys.
fn key(i: usize) -> String {
    format!("user:{i:018}")
}

/// A value built the way the codec builds one: a vector taken over.
fn value(len: usize) -> Bytes {
    Bytes::from(vec![7u8; len])
}

#[test]
fn each_stored_item_is_one_live_block() {
    const N: usize = 2_000;
    let mut store = CacheStore::new(StoreConfig::default());
    let (blocks, bytes) = (live_blocks(), LIVE_BYTES.with(Cell::get));
    for i in 0..N {
        store.set(&key(i), value(400), None, 0).unwrap();
    }
    let grown = live_blocks() - blocks;
    let grown_bytes = LIVE_BYTES.with(Cell::get) - bytes;
    println!(
        "{N} items of 23 + 400 bytes: {grown} live blocks, {:.1} heap bytes per item",
        grown_bytes as f64 / N as f64
    );
    assert_eq!(store.len(), N);
    // One block per item, plus the map's table, the ring's vector and
    // the buffer items are laid out in.
    assert!(grown <= N as i64 + 3, "{grown} live blocks for {N} items");
    assert_eq!(store.get(&key(N - 1), 0, true).unwrap(), value(400));
}

#[test]
fn an_eviction_sweep_allocates_only_the_incoming_item() {
    let mut store = CacheStore::new(StoreConfig {
        capacity_bytes: 50_000,
        ..StoreConfig::default()
    });
    // Grow the map and the ring well past what the test stores, and the
    // layout buffer to the incoming item's size, so none of them
    // reallocates inside the measured set.
    for i in 0..600 {
        store.set(&key(i), value(0), None, 0).unwrap();
    }
    store
        .set("incoming:0000000000000", value(4_000), None, 0)
        .unwrap();
    store.flush_all();
    // Fill to capacity and churn, referencing every third item so the
    // sweep clears bits as well as evicting.
    for i in 0..400 {
        store.set(&key(i), value(400), None, 0).unwrap();
        if i % 3 == 0 {
            store.get(&key(i), 0, true);
        }
    }
    let before = store.stats().evictions;
    let incoming = value(4_000);
    let (allocs, stored) = allocations(|| store.set("incoming:0000000000000", incoming, None, 0));
    stored.unwrap();
    let evicted = store.stats().evictions - before;
    assert!(evicted >= 2, "the incoming item evicted {evicted}");
    assert!(store.bytes_used() <= store.capacity_bytes());
    assert_eq!(
        allocs, 1,
        "a set that evicted {evicted} items allocated {allocs} times"
    );
}
