//! Behavioural integration tests of the buffer-management policies driven
//! through the execution engine (not the simulator): the situations where
//! PBM's scan knowledge pays off over plain LRU, and where OPT bounds both.

use std::sync::Arc;

use scanshare::common::PageId;
use scanshare::core::lru::LruPolicy;
use scanshare::core::opt::simulate_opt;
use scanshare::core::pbm::PbmPolicy;
use scanshare::core::policy::ReplacementPolicy;
use scanshare::prelude::*;

fn lineitem(tuples: u64) -> (Arc<Storage>, TableId) {
    let storage = Storage::with_seed(64 * 1024, 10_000, 17);
    let table = scanshare::workload::microbench::setup_lineitem(&storage, tuples).unwrap();
    (storage, table)
}

/// Replays two interleaved scans over the same table through a buffer pool
/// and returns (io_bytes, reference trace).
fn interleaved_scans(
    storage: &Arc<Storage>,
    table: TableId,
    pool_pages: usize,
    policy: Box<dyn ReplacementPolicy>,
    offset_pages: usize,
) -> (u64, Vec<PageId>) {
    let layout = storage.layout(table).unwrap();
    let snapshot = storage.master_snapshot(table).unwrap();
    let columns: Vec<usize> = vec![0, 1, 2, 6];
    let ranges = RangeList::single(0, snapshot.stable_tuples());
    let plan = layout.scan_page_plan(&snapshot, &columns, &ranges);
    let pages: Vec<(PageId, u64)> = plan
        .interleaved()
        .iter()
        .map(|p| (p.page, p.tuples_behind))
        .collect();

    let pool = BufferPool::new(pool_pages, 64 * 1024, policy);
    let now = VirtualInstant::EPOCH;
    let scan_a = pool.register_scan(&plan, now);
    let scan_b = pool.register_scan(&plan, now);

    // Scan B trails scan A by `offset_pages`.
    let mut trace = Vec::new();
    for i in 0..pages.len() + offset_pages {
        if i < pages.len() {
            let (page, position) = pages[i];
            pool.request_page(page, Some(scan_a), now).unwrap();
            pool.report_scan_position(scan_a, position, now);
            trace.push(page);
        }
        if i >= offset_pages {
            let (page, position) = pages[i - offset_pages];
            pool.request_page(page, Some(scan_b), now).unwrap();
            pool.report_scan_position(scan_b, position, now);
            trace.push(page);
        }
    }
    pool.unregister_scan(scan_a, now);
    pool.unregister_scan(scan_b, now);
    (pool.stats().io_bytes, trace)
}

#[test]
fn pbm_beats_lru_when_a_trailing_scan_can_reuse_pages() {
    let (storage, table) = lineitem(200_000);
    // Table (4 columns) is ~44 pages; pool of 16 pages; the trailing scan is
    // 8 pages behind, so keeping just-read pages a little longer pays off.
    let pool_pages = 16;
    let offset = 8;
    let (lru_io, trace) = interleaved_scans(
        &storage,
        table,
        pool_pages,
        Box::new(LruPolicy::new()),
        offset,
    );
    let (pbm_io, _) = interleaved_scans(
        &storage,
        table,
        pool_pages,
        Box::new(PbmPolicy::new()),
        offset,
    );
    assert!(
        pbm_io <= lru_io,
        "PBM ({pbm_io} B) must not do more I/O than LRU ({lru_io} B) with a trailing scan"
    );

    // OPT on the same reference string is a lower bound for both.
    let opt = simulate_opt(&trace, pool_pages);
    assert!(opt.io_bytes(64 * 1024) <= pbm_io);
    assert!(opt.io_bytes(64 * 1024) <= lru_io);
}

#[test]
fn engine_level_scan_sharing_under_pbm() {
    let (storage, table) = lineitem(300_000);
    // Pool big enough for the 4 scanned columns of the table, so a second
    // query runs entirely from memory.
    let engine = Engine::new(
        Arc::clone(&storage),
        ScanShareConfig {
            page_size_bytes: 64 * 1024,
            chunk_tuples: 10_000,
            buffer_pool_bytes: 16 << 20,
            policy: PolicyKind::Pbm,
            ..Default::default()
        },
    )
    .unwrap();
    let q6 = |range: TupleRange| {
        engine
            .query(table)
            .columns(["l_quantity", "l_extendedprice", "l_discount", "l_shipdate"])
            .tuple_range(range)
            .filter(Predicate::new(0, CompareOp::Le, 24))
            .aggregate(AggrSpec::global(vec![Aggregate::Sum(1), Aggregate::Count]))
            .parallelism(2)
            .run()
            .unwrap()
    };
    let full = TupleRange::new(0, 300_000);
    let first = q6(full);
    let io_after_first = engine.buffer_stats().io_bytes;
    let second = q6(full);
    let io_after_second = engine.buffer_stats().io_bytes;
    assert_eq!(first, second, "same query, same answer");
    assert_eq!(
        io_after_first, io_after_second,
        "the second identical query is served entirely from the buffer pool"
    );

    // A partially overlapping query only loads the pages it has not seen.
    let _third = q6(TupleRange::new(150_000, 300_000));
    assert_eq!(engine.buffer_stats().io_bytes, io_after_second);
}

#[test]
fn opt_engine_reports_a_lower_bound_for_its_own_trace() {
    let (storage, table) = lineitem(150_000);
    let engine = Engine::new(
        Arc::clone(&storage),
        ScanShareConfig {
            page_size_bytes: 64 * 1024,
            chunk_tuples: 10_000,
            buffer_pool_bytes: 1 << 20, // deliberately small: 16 pages
            policy: PolicyKind::Opt,
            ..Default::default()
        },
    )
    .unwrap();
    // Two overlapping scans through the engine.
    for range in [
        TupleRange::new(0, 150_000),
        TupleRange::new(50_000, 150_000),
    ] {
        let result = engine
            .query(table)
            .columns(["l_quantity", "l_shipdate"])
            .tuple_range(range)
            .aggregate(AggrSpec::global(vec![Aggregate::Count]))
            .parallelism(2)
            .run()
            .unwrap();
        assert_eq!(result[&0].count, range.len());
    }
    let engine_stats = engine.buffer_stats();
    let opt = engine.opt_result().unwrap();
    assert!(
        opt.misses <= engine_stats.misses,
        "OPT replay cannot miss more than the PBM run"
    );
    assert!(opt.hits + opt.misses > 0);
}
