//! Concurrency stress test: many threads firing builder-API queries at one
//! shared `Engine`, under every policy and with the asynchronous prefetcher
//! both off and on.
//!
//! Asserts three things per configuration:
//! 1. the run completes (no deadlock between the shared backend, the
//!    virtual clock and the I/O device);
//! 2. every thread's aggregates are exactly right, no matter how the
//!    sessions interleave on the shared buffer manager;
//! 3. the metrics add up across sessions: the buffer manager's total I/O
//!    volume equals what the device transferred, and the device's
//!    demand/prefetch split sums to its total.

use std::sync::Arc;

use scanshare::prelude::*;

const TUPLES: u64 = 20_000;
const THREADS: u64 = 4;
const ROUNDS: u64 = 2;

fn build_engine(policy: PolicyKind, prefetch_pages: usize) -> (Arc<Engine>, TableId) {
    let storage = Storage::with_seed(1024, 2_000, 7);
    let spec = TableSpec::new(
        "t",
        vec![
            ColumnSpec::with_width("k", ColumnType::Int64, 8.0),
            ColumnSpec::with_width("v", ColumnType::Int64, 4.0),
        ],
        TUPLES,
    );
    let table = storage
        .create_table_with_data(
            spec,
            vec![
                DataGen::Sequential { start: 0, step: 1 },
                DataGen::Constant(7),
            ],
        )
        .unwrap();
    let config = ScanShareConfig {
        page_size_bytes: 1024,
        chunk_tuples: 2_000,
        buffer_pool_bytes: 64 * 1024, // 64 pages: real replacement pressure
        policy,
        prefetch_pages,
        ..Default::default()
    };
    (Engine::new(storage, config).unwrap(), table)
}

/// One thread's query mix; returns after asserting every answer.
fn run_session(engine: &Arc<Engine>, table: TableId, thread: u64) {
    for round in 0..ROUNDS {
        // Full-table count, alternating between inline and parallel plans so
        // scans from nested worker threads also hit the shared backend.
        let workers = if (thread + round) % 2 == 0 { 1 } else { 2 };
        let count = engine
            .query(table)
            .columns(["k"])
            .aggregate(AggrSpec::global(vec![Aggregate::Count]))
            .parallelism(workers as usize)
            .run()
            .unwrap()[&0]
            .count;
        assert_eq!(count, TUPLES, "thread {thread} round {round}");

        // A range sum with a closed-form answer, staggered per thread.
        let lo = 1_000 * thread;
        let hi = lo + 2_000;
        let sum = engine
            .query(table)
            .columns(["k", "v"])
            .range(lo..hi)
            .aggregate(AggrSpec::global(vec![Aggregate::Sum(0), Aggregate::Count]))
            .run()
            .unwrap();
        let expected: i64 = (lo..hi).map(|k| k as i64).sum();
        assert_eq!(sum[&0].accumulators[0], expected, "thread {thread}");
        assert_eq!(sum[&0].count, 2_000, "thread {thread}");

        // A filtered count: k <= 999 qualifies exactly 1000 rows.
        let filtered = engine
            .query(table)
            .columns(["k"])
            .filter(Predicate::new(0, CompareOp::Le, 999))
            .aggregate(AggrSpec::global(vec![Aggregate::Count]))
            .run()
            .unwrap()[&0]
            .count;
        assert_eq!(filtered, 1_000, "thread {thread} round {round}");
    }
}

fn stress(policy: PolicyKind, prefetch_pages: usize) {
    stress_threads(policy, prefetch_pages, THREADS);
}

fn stress_threads(policy: PolicyKind, prefetch_pages: usize, threads: u64) {
    let (engine, table) = build_engine(policy, prefetch_pages);
    std::thread::scope(|scope| {
        for thread in 0..threads {
            let engine = Arc::clone(&engine);
            scope.spawn(move || run_session(&engine, table, thread));
        }
    });

    // Metrics accounting sums across every session and worker thread.
    let buffer = engine.buffer_stats();
    let device = engine.device().stats();
    assert!(
        buffer.hits + buffer.misses > 0,
        "{policy}: no page requests"
    );
    assert!(buffer.io_bytes > 0, "{policy}: no I/O recorded");
    assert_eq!(
        buffer.io_bytes, device.bytes_read,
        "{policy} (window {prefetch_pages}): buffer-manager I/O must equal \
         what the device transferred"
    );
    assert_eq!(
        device.demand_bytes + device.prefetch_bytes,
        device.bytes_read,
        "{policy}: demand + prefetch bytes must sum to the total"
    );
    assert_eq!(
        device.demand_requests + device.prefetch_requests,
        device.requests,
        "{policy}: demand + prefetch requests must sum to the total"
    );
    assert_eq!(
        buffer.prefetch_io_bytes, device.prefetch_bytes,
        "{policy}: pool and device must agree on the prefetch volume"
    );
    if prefetch_pages == 0 {
        assert_eq!(
            device.prefetch_bytes, 0,
            "{policy}: window 0 never prefetches"
        );
    }
    if policy == PolicyKind::Opt {
        // The demand reference trace stays replayable under Belady's OPT.
        let opt = engine.opt_result().unwrap();
        assert!(opt.misses > 0);
    }
}

#[test]
fn concurrent_queries_under_lru() {
    stress(PolicyKind::Lru, 0);
    stress(PolicyKind::Lru, 4);
}

#[test]
fn concurrent_queries_under_pbm() {
    stress(PolicyKind::Pbm, 0);
    stress(PolicyKind::Pbm, 4);
}

#[test]
fn concurrent_queries_under_opt_trace_recording() {
    stress(PolicyKind::Opt, 0);
    stress(PolicyKind::Opt, 4);
}

#[test]
fn concurrent_queries_under_cooperative_scans() {
    // The ABM ignores the page-level prefetch window; both settings must
    // behave identically.
    stress(PolicyKind::CScan, 0);
    stress(PolicyKind::CScan, 4);
}

#[test]
fn concurrent_queries_eight_streams() {
    // The multi-stream throughput configuration: 8 session threads on one
    // pool (more threads than cores), with and without the prefetch
    // window, under every pooled policy. Exact aggregates and the
    // cross-layer pool == device accounting must survive the contention.
    for policy in [PolicyKind::Lru, PolicyKind::Pbm, PolicyKind::Opt] {
        stress_threads(policy, 0, 8);
        stress_threads(policy, 4, 8);
    }
}

#[test]
fn concurrent_queries_thread_sweep_under_pbm() {
    // With one lock per buffer manager the contention knob left is the
    // session count: a lone session, a pair, and twice the eight-stream
    // configuration all take the same lock paths (eviction, scan
    // registration, position reports) and must account exactly.
    for threads in [1u64, 2, 16] {
        stress_threads(PolicyKind::Pbm, 0, threads);
    }
}

#[test]
fn concurrent_queries_cscan_eight_streams() {
    // Cooperative Scans in the same multi-stream configuration the pooled
    // policies run: 8 session threads on one ABM. Exact aggregates and the
    // cross-layer ABM == device I/O accounting must survive out-of-order
    // delivery to contending streams.
    stress_threads(PolicyKind::CScan, 0, 8);
}
