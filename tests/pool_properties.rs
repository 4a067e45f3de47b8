//! The pool-transparency property: for *any* trace, the `BufferPool`
//! produces exactly the outcomes, statistics and prefetch decisions of the
//! eagerly applied, single-threaded `EagerPool` oracle (`pool_harness`) —
//! per policy, byte for byte.
//!
//! This is the invariant the engine's I/O accounting rests on. The traces
//! are randomized (deterministic xorshift, like the other property tests in
//! this workspace): interleaved scans with page plans, progress reports,
//! scanless accesses, prefetch admissions and virtual-time advances,
//! replayed under replacement pressure. The trace grammar and replayer live
//! in `pool_harness` and are shared with `policy_zoo.rs`, which runs the
//! same property for CLOCK and SIEVE. The remaining tests drive the pool
//! from concurrent threads and through the engine and the workload driver.

mod pool_harness;

use std::sync::Arc;

use pool_harness::{random_trace, replay, EagerPool, Rng, Step};
use scanshare::core::lru::LruPolicy;
use scanshare::core::pbm::PbmPolicy;
use scanshare::core::pbm_lru::PbmLruPolicy;
use scanshare::core::policy::ReplacementPolicy;
use scanshare::core::pool::BufferPool;

type PolicyFactory = fn() -> Box<dyn ReplacementPolicy>;

fn policies() -> Vec<(&'static str, PolicyFactory)> {
    vec![
        ("lru", || Box::new(LruPolicy::new())),
        ("pbm", || Box::new(PbmPolicy::new())),
        ("pbm-lru", || Box::new(PbmLruPolicy::new())),
    ]
}

#[test]
fn any_trace_matches_the_eager_oracle_per_policy() {
    let cases = if cfg!(debug_assertions) { 12 } else { 40 };
    for case in 0..cases {
        let mut rng = Rng::new(0x5eed_0000 + case * 7919);
        let capacity = 2 + rng.below(24) as usize;
        let pages = capacity as u64 / 2 + rng.below(3 * capacity as u64 + 8);
        let steps = 300;
        let trace = random_trace(&mut rng, pages, capacity, steps);

        for (name, make_policy) in policies() {
            let mut reference = EagerPool::new(capacity, 1024, make_policy());
            let (expected_obs, expected_stats) = replay(&mut reference, &trace);
            assert!(
                expected_stats.hits + expected_stats.misses > 0,
                "case {case}: trace exercised no accesses"
            );
            let mut pool = BufferPool::new(capacity, 1024, make_policy());
            let (obs, stats) = replay(&mut pool, &trace);
            assert_eq!(
                stats, expected_stats,
                "case {case} policy {name}: statistics diverged \
                 (hits/misses/evictions/io must be byte-identical)"
            );
            assert_eq!(
                obs, expected_obs,
                "case {case} policy {name}: outcomes diverged"
            );
        }
    }
}

/// The deterministic scan-shaped case of the property above: one registered
/// PBM scan walking its plan under replacement pressure, reporting its
/// position after every page — the access pattern the simulator and the
/// engine's scan operator produce.
#[test]
fn pbm_scan_trace_matches_the_eager_oracle_exactly() {
    let make_policy = || -> Box<dyn ReplacementPolicy> { Box::new(PbmPolicy::new()) };
    let pages: Vec<u64> = (0..12).collect();
    let mut trace = vec![Step::Register {
        pages: pages.clone(),
        tuples_per_page: 100,
    }];
    for (i, &page) in pages.iter().enumerate() {
        trace.push(Step::Access {
            scan: Some(0),
            page,
        });
        trace.push(Step::Report {
            scan: 0,
            tuples: (i as u64 + 1) * 100,
        });
    }
    trace.push(Step::Unregister { scan: 0 });

    let (expected_obs, expected_stats) =
        replay(&mut EagerPool::new(4, 1024, make_policy()), &trace);
    assert_eq!(expected_stats.misses, 12);
    let (obs, stats) = replay(&mut BufferPool::new(4, 1024, make_policy()), &trace);
    assert_eq!(obs, expected_obs);
    assert_eq!(stats, expected_stats);
}

/// Through the *engine*: the same sequential query mix under replacement
/// pressure does exactly the same I/O on two fresh engines. (The trace
/// property above covers the pool in isolation; this covers the wiring.)
#[test]
fn engine_io_is_deterministic_for_sequential_queries() {
    use scanshare::prelude::*;

    let storage = Storage::with_seed(2048, 1_000, 23);
    let table = storage
        .create_table_with_data(
            TableSpec::new(
                "t",
                vec![
                    ColumnSpec::with_width("k", ColumnType::Int64, 8.0),
                    ColumnSpec::with_width("v", ColumnType::Int64, 4.0),
                ],
                40_000,
            ),
            vec![
                DataGen::Sequential { start: 0, step: 1 },
                DataGen::Constant(5),
            ],
        )
        .unwrap();
    let storage = Arc::new(storage);

    for policy in [PolicyKind::Lru, PolicyKind::Pbm] {
        let mut reference: Option<BufferStats> = None;
        for run in 0..2 {
            let engine = Engine::new(
                Arc::clone(&storage),
                ScanShareConfig {
                    page_size_bytes: 2048,
                    chunk_tuples: 1_000,
                    buffer_pool_bytes: 24 * 2048, // pressure: ~24 of ~293 pages
                    policy,
                    ..Default::default()
                },
            )
            .unwrap();
            // Sequential (single-threaded) query mix: identical access
            // order on every run.
            for round in 0..2 {
                let count = engine
                    .query(table)
                    .columns(["k", "v"])
                    .aggregate(AggrSpec::global(vec![Aggregate::Count]))
                    .run()
                    .unwrap()[&0]
                    .count;
                assert_eq!(count, 40_000, "{policy} run {run} round {round}");
            }
            let stats = engine.buffer_stats();
            assert!(stats.evictions > 0, "{policy}: no replacement pressure");
            match &reference {
                None => reference = Some(stats),
                Some(expected) => assert_eq!(
                    *expected, stats,
                    "{policy} run {run}: engine-level I/O accounting diverged"
                ),
            }
        }
    }
}

/// The buffer-manager protocol from concurrent threads: eight streams
/// register scans over a warm pool (capacity == page count, so nothing is
/// ever evicted), sweep their pages, report progress and unregister. The
/// interleaving differs run to run; the accounting must not.
#[test]
fn concurrent_sweeps_over_a_warm_pool_account_exactly() {
    use scanshare::common::{ColumnId, PageId, TableId, TupleRange, VirtualInstant};
    use scanshare::storage::layout::{PageDescriptor, ScanPagePlan};

    const PAGE: u64 = 1024;
    const PAGES: u64 = 512;
    const QUERY_PAGES: u64 = 64;
    const STREAMS: u64 = 8;
    const QUERIES: u64 = 6;
    const TUPLES_PER_PAGE: u64 = 1_000;
    let now = VirtualInstant::EPOCH;
    let plan = |first: u64| ScanPagePlan {
        table: TableId::new(0),
        total_tuples: QUERY_PAGES * TUPLES_PER_PAGE,
        pages: (0..QUERY_PAGES)
            .map(|i| PageDescriptor {
                page: PageId::new((first + i) % PAGES),
                column: ColumnId::new(0),
                column_index: 0,
                sid_range: TupleRange::new(i * TUPLES_PER_PAGE, (i + 1) * TUPLES_PER_PAGE),
                tuples_behind: i * TUPLES_PER_PAGE,
                tuple_count: TUPLES_PER_PAGE,
            })
            .collect(),
    };

    for (policy, make_policy) in policies() {
        let pool = BufferPool::new(PAGES as usize, PAGE, make_policy());
        for page in 0..PAGES {
            pool.request_page(PageId::new(page), None, now).unwrap();
        }
        std::thread::scope(|scope| {
            for stream in 0..STREAMS {
                let (pool, plan) = (&pool, &plan);
                scope.spawn(move || {
                    let mut cursor = stream * (PAGES / STREAMS);
                    for _ in 0..QUERIES {
                        let plan = plan(cursor);
                        let scan = pool.register_scan(&plan, now);
                        for (i, desc) in plan.pages.iter().enumerate() {
                            pool.request_page(desc.page, Some(scan), now).unwrap();
                            if i % 16 == 15 {
                                pool.report_scan_position(scan, desc.tuples_behind, now);
                            }
                        }
                        pool.unregister_scan(scan, now);
                        cursor = (cursor + QUERY_PAGES) % PAGES;
                    }
                });
            }
        });
        let stats = pool.stats();
        assert_eq!(
            (stats.io_bytes, stats.misses, stats.hits, stats.evictions),
            (PAGES * PAGE, PAGES, STREAMS * QUERIES * QUERY_PAGES, 0),
            "{policy}"
        );
    }
}

/// The same through the multi-threaded `WorkloadDriver`: with a pool that
/// holds the whole table every page loads exactly once under any thread
/// interleaving, so the cold pass's I/O volume and request count are the
/// same under LRU and PBM and the warm pass misses nothing. Cooperative
/// Scans run the workload twice without starving a stream.
#[test]
fn a_headroom_pool_rereads_nothing_under_the_driver() {
    use scanshare::prelude::*;
    use scanshare::workload::microbench;

    const PAGE: u64 = 16 * 1024;
    const CHUNK: u64 = 5_000;
    let micro = MicrobenchConfig {
        streams: 8,
        queries_per_stream: 2,
        lineitem_tuples: 20_000,
        ..Default::default()
    };
    let (storage, workload) = microbench::build(&micro, PAGE, CHUNK).unwrap();
    let config = |policy| ScanShareConfig {
        page_size_bytes: PAGE,
        chunk_tuples: CHUNK,
        buffer_pool_bytes: 64 << 20,
        policy,
        ..Default::default()
    };

    let mut reference = None;
    for policy in [PolicyKind::Lru, PolicyKind::Pbm] {
        let driver =
            WorkloadDriver::new(Engine::new(Arc::clone(&storage), config(policy)).unwrap());
        let cold = driver.run(&workload).unwrap().buffer;
        let cold = (cold.io_bytes, cold.hits + cold.misses);
        assert_eq!(
            *reference.get_or_insert(cold),
            cold,
            "{policy}: cold I/O volume / request count"
        );
        let warm = driver.run(&workload).unwrap().buffer;
        assert_eq!(warm.misses, 0, "{policy}: warm pass");
    }

    let driver =
        WorkloadDriver::new(Engine::new(Arc::clone(&storage), config(PolicyKind::CScan)).unwrap());
    for pass in 0..2 {
        let report = driver.run(&workload).unwrap();
        assert!(
            report.stream_errors.is_empty(),
            "cscan pass {pass}: {:?}",
            report.stream_errors
        );
    }
}
