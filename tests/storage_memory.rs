//! Storage memory stays bounded across checkpoints.
//!
//! A checkpoint writes an all-new image of its table; the superseded image
//! must be freed with the last snapshot handle that holds it, not kept for
//! good. A counting global allocator over `System` measures live heap bytes
//! with no dependency. The counter covers the whole process, so this binary
//! holds exactly one `#[test]` and nothing else allocates beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use scanshare::prelude::*;

/// Live heap bytes: allocated minus freed.
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call forwards to `System` unchanged; the counter only
// observes the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

const PAGE: u64 = 4096;
const CHUNK: u64 = 1_000;
const ROWS: u64 = 50_000;
const COLUMNS: usize = 4;
/// The values of one image of the table.
const IMAGE_BYTES: usize = ROWS as usize * COLUMNS * 8;
/// Checkpoint cycles before the first measurement.
const K: usize = 3;

/// A unique, self-cleaning temp directory.
struct TestDir(PathBuf);

impl TestDir {
    fn new(tag: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("scanshare-memory-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        Self(path)
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn engine(wal_dir: Option<&Path>) -> (Arc<Engine>, TableId) {
    let storage = Storage::new(PAGE, CHUNK);
    let columns = (0..COLUMNS)
        .map(|c| ColumnSpec::new(format!("c{c}"), ColumnType::Int64))
        .collect();
    let table = storage
        .create_table_with_data(
            TableSpec::new("t", columns, ROWS),
            vec![DataGen::Sequential { start: 0, step: 1 }; COLUMNS],
        )
        .unwrap();
    let mut config = ScanShareConfig {
        page_size_bytes: PAGE,
        chunk_tuples: CHUNK,
        buffer_pool_bytes: 64 * PAGE,
        policy: PolicyKind::Lru,
        ..Default::default()
    };
    if let Some(dir) = wal_dir {
        config = config.with_wal_dir(dir);
    }
    (Engine::new(storage, config).unwrap(), table)
}

/// Every row, in order.
fn rows(query: Query) -> Vec<Vec<i64>> {
    query
        .columns(["c0", "c1", "c2", "c3"])
        .range(..)
        .in_order()
        .rows()
        .unwrap()
}

/// One cycle: a few auto-commits that keep the row count, a full scan, and
/// a checkpoint that writes the next image.
fn cycles(engine: &Arc<Engine>, table: TableId, n: usize) {
    for _ in 0..n {
        let stamp = engine.visible_rows(table).unwrap() as i64;
        engine.update_value(table, 7, 1, -stamp).unwrap();
        engine.insert_row(table, 0, vec![-1; COLUMNS]).unwrap();
        engine.delete_row(table, 100).unwrap();
        assert_eq!(rows(engine.query(table)).len() as u64, ROWS);
        engine.checkpoint(table).unwrap();
    }
}

fn memory_stays_flat(tag: &str, wal_dir: Option<&Path>) {
    let (engine, table) = engine(wal_dir);

    cycles(&engine, table, K);
    let after_k = live_bytes();
    cycles(&engine, table, 3 * K);
    let after_4k = live_bytes();
    assert!(
        after_4k <= after_k + IMAGE_BYTES,
        "{tag}: {after_4k} live bytes after {} cycles vs {after_k} after {K}: \
         more than one image ({IMAGE_BYTES} B) of growth",
        4 * K
    );

    // A reader pinned across two checkpoints reads its image exactly...
    let mut reader = engine.begin();
    let image = rows(reader.query(table).unwrap());
    cycles(&engine, table, 2);
    assert_eq!(rows(reader.query(table).unwrap()), image, "{tag}");
    assert_ne!(
        rows(engine.query(table)),
        image,
        "{tag}: the table moved on"
    );
    drop(image);
    // ...and its image is freed with the pin.
    let pinned = live_bytes();
    drop(reader);
    let released = live_bytes();
    assert!(
        released + IMAGE_BYTES <= pinned,
        "{tag}: dropping the pin freed {} B, less than one image ({IMAGE_BYTES} B)",
        pinned.saturating_sub(released)
    );
}

#[test]
fn superseded_images_die_with_their_last_pin() {
    memory_stays_flat("in-memory", None);
    let dir = TestDir::new("durable");
    memory_stays_flat("durable", Some(&dir.0));
}
