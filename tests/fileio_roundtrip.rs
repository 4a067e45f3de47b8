//! Round-trip property test for the on-disk column segment layer: a table —
//! including a checkpoint taken mid-workload — is materialized to segment
//! files, reopened cold from nothing but the directory, and must serve
//! byte-identical pages and identical query results under every policy,
//! with the real-file I/O device doing the reads.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use scanshare::prelude::*;
use scanshare::workload::microbench;

const PAGE: u64 = 16 * 1024;
const CHUNK: u64 = 5_000;
const TUPLES: u64 = 30_000;

static TEST_DIR_SEQ: AtomicU32 = AtomicU32::new(0);

/// Self-cleaning tempdir (no external tempfile dependency).
struct TestDir(PathBuf);

impl TestDir {
    fn new(tag: &str) -> Self {
        let seq = TEST_DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "scanshare-roundtrip-{tag}-{}-{seq}",
            std::process::id()
        ));
        std::fs::create_dir_all(&path).unwrap();
        Self(path)
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn engine_for(storage: &Arc<Storage>, policy: PolicyKind, device: DeviceKind) -> Arc<Engine> {
    Engine::new(
        Arc::clone(storage),
        ScanShareConfig {
            page_size_bytes: PAGE,
            chunk_tuples: CHUNK,
            buffer_pool_bytes: 64 * PAGE,
            policy,
            device,
            ..Default::default()
        },
    )
    .unwrap()
}

/// Count + per-column sums over the whole table: a compact fingerprint of
/// every value the scan produced.
fn fingerprint(engine: &Arc<Engine>, table: TableId) -> (u64, Vec<i64>) {
    let result = engine
        .query(table)
        .columns(["l_quantity", "l_extendedprice", "l_shipdate"])
        .aggregate(AggrSpec::global(vec![
            Aggregate::Sum(0),
            Aggregate::Sum(1),
            Aggregate::Sum(2),
        ]))
        .parallelism(2)
        .run()
        .unwrap();
    let group = &result[&0];
    (group.count, group.accumulators.clone())
}

/// Builds a lineitem table, runs a little update workload with a checkpoint
/// taken while a scan is still open, and materializes the result to `dir`.
fn build_and_materialize(dir: &std::path::Path) -> (Arc<Storage>, TableId) {
    let storage = Storage::with_seed(PAGE, CHUNK, 4242);
    let table = microbench::setup_lineitem(&storage, TUPLES).unwrap();
    let engine = engine_for(&storage, PolicyKind::Pbm, DeviceKind::Sim);

    // Open a scan mid-workload so the checkpoint has to race it.
    let pin = engine.table_pin(table).unwrap();
    let mut open_scan = engine
        .scan_pinned(
            pin,
            &["l_quantity"],
            TupleRange::new(0, TUPLES),
            false,
            None,
        )
        .unwrap();
    open_scan.next_batch().unwrap().expect("first batch");

    // A handful of updates: deletes at the front, inserts past the end.
    for rid in 0..50 {
        engine.delete_row(table, rid).unwrap();
    }
    for i in 0..25 {
        // Append at the visible end (50 deletes shrank it, inserts grow it).
        engine
            .insert_row(table, TUPLES - 50 + i, vec![7, 700, 1, 1, 0, 0, 9_000])
            .unwrap();
    }
    let snapshot = engine.checkpoint(table).unwrap();
    assert_eq!(snapshot.stable_tuples(), TUPLES - 50 + 25);

    // Drain the pre-checkpoint scan: it must still see the old state.
    let mut seen = 0;
    while let Some(batch) = open_scan.next_batch().unwrap() {
        seen += batch.len();
    }
    drop(open_scan);
    assert!(seen > 0);

    // Materialize the checkpointed master snapshot as segment files.
    storage.materialize_table(table, dir).unwrap();
    (storage, table)
}

#[test]
fn cold_reopen_serves_byte_identical_pages() {
    let dir = TestDir::new("pages");
    let (storage, table) = build_and_materialize(&dir.0);
    let reopened = Storage::open_directory(&dir.0).unwrap();
    let cold_table = reopened.table_by_name("lineitem").unwrap().id;

    let layout = storage.layout(table).unwrap();
    let cold_layout = reopened.layout(cold_table).unwrap();
    let snapshot = storage.master_snapshot(table).unwrap();
    let cold = reopened.master_snapshot(cold_table).unwrap();

    assert_eq!(cold.stable_tuples(), snapshot.stable_tuples());
    for col in 0..layout.column_count() {
        // The manifest records page ids verbatim, so `Snapshot::page` maps
        // to the same ids — I/O traces are comparable across the round trip.
        assert_eq!(
            cold.column_pages(col),
            snapshot.column_pages(col),
            "column {col} page ids survive the round trip"
        );
        for page_index in 0..snapshot.column_pages(col).len() as u64 {
            let warm = storage
                .read_page(&layout, &snapshot, col, page_index)
                .unwrap();
            let disk = reopened
                .read_page(&cold_layout, &cold, col, page_index)
                .unwrap();
            assert_eq!(
                warm.values, disk.values,
                "column {col} page {page_index} is byte-identical after cold reopen"
            );
        }
    }
}

#[test]
fn cold_reopen_answers_queries_identically_under_every_policy() {
    let dir = TestDir::new("aggr");
    let (storage, table) = build_and_materialize(&dir.0);
    let reopened = Storage::open_directory(&dir.0).unwrap();
    let cold_table = reopened.table_by_name("lineitem").unwrap().id;

    for policy in [PolicyKind::Lru, PolicyKind::Pbm, PolicyKind::CScan] {
        let warm = fingerprint(&engine_for(&storage, policy, DeviceKind::Sim), table);
        let disk = fingerprint(&engine_for(&reopened, policy, DeviceKind::File), cold_table);
        assert_eq!(warm, disk, "{policy}: file-backed engine matches in-memory");
        assert_eq!(warm.0, TUPLES - 50 + 25, "{policy}: count reflects updates");
    }
}

#[test]
fn file_device_reports_real_read_latencies() {
    let dir = TestDir::new("latency");
    let (_storage, _table) = build_and_materialize(&dir.0);
    let reopened = Storage::open_directory(&dir.0).unwrap();
    let cold_table = reopened.table_by_name("lineitem").unwrap().id;

    let engine = engine_for(&reopened, PolicyKind::Pbm, DeviceKind::File);
    assert_eq!(engine.device().name(), "file");
    let (count, _) = fingerprint(&engine, cold_table);
    assert_eq!(count, TUPLES - 50 + 25);

    let stats = engine.device().stats();
    assert!(stats.bytes_read > 0, "the segment files were actually read");
    let latency = engine
        .device()
        .latency()
        .expect("the file device measures wall-clock latencies");
    let demand = latency.demand;
    assert!(demand.samples > 0, "demand reads were sampled");
    assert!(demand.p50_nanos <= demand.p95_nanos && demand.p95_nanos <= demand.p99_nanos);
}
