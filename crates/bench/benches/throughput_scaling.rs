//! Throughput scaling: wall-clock multi-stream throughput of the live
//! engine across buffer-pool shard counts (streams × shards × policy),
//! with LRU, PBM **and Cooperative Scans** competing in one gated figure.
//!
//! Two measurements per configuration, both at 8 concurrent streams:
//!
//! * **end-to-end**: the [`WorkloadDriver`] runs a microbenchmark
//!   [`WorkloadSpec`](scanshare_workload::WorkloadSpec) against the engine —
//!   one real thread per stream, full scan → select → aggregate queries.
//!   This number includes tuple materialization and aggregation, which
//!   dominate the engine's per-tuple cost, so it bounds how much of a real
//!   query the buffer manager is;
//! * **backend**: the same thread count drives the buffer-manager protocol
//!   itself (register scan → page requests over a warm [`ShardedPool`] →
//!   progress reports → unregister) with no tuple processing. This isolates
//!   the structure the shards exist to scale — the paper-relevant question
//!   "how many concurrent scans can one buffer manager feed?" — and is the
//!   figure's queries/s metric.
//!
//! Sharding never changes *what* is read: replacement decisions are
//! globally exact (see `scanshare_core::sharded`), so the figure asserts
//! that total I/O volume is byte-identical across shard counts. The
//! wall-clock speedup, by contrast, requires physical parallelism: the
//! ≥1.5× scaling assertion is enforced on hosts with ≥8 logical CPUs (or
//! whenever `SCANSHARE_BENCH_ASSERT_SCALING` is set) — a lock can only be
//! contended if threads actually run at once, and small shared runners are
//! too jittery to enforce a wall-clock ratio on. The measured factor is
//! always printed and emitted to `BENCH_throughput_scaling.json`.
//!
//! The Cooperative Scans side mirrors both measurements: an end-to-end
//! `WorkloadDriver` run under `PolicyKind::CScan` (directory shards ×
//! load-scheduler window), and a backend phase driving the raw ABM chunk
//! protocol — `RegisterCScan` → `GetChunk`… → `UnregisterCScan` over a
//! warm chunk cache — against the ABM at several directory shard counts.
//! Accounting is asserted identical across shard counts (equivalence with
//! the pre-refactor monolithic ABM is `tests/abm_equivalence.rs`'s job,
//! byte for byte).

use std::sync::Arc;
use std::time::Instant;

use scanshare_bench::crit::Criterion;
use scanshare_bench::json::Json;
use scanshare_bench::{bench_preset, criterion_group, criterion_main, write_bench_json};

use scanshare_common::{
    ColumnId, PageId, PolicyKind, RangeList, ScanShareConfig, TupleRange, VirtualInstant,
};
use scanshare_core::abm::{Abm, AbmConfig, CScanRequest};
use scanshare_core::registry::{pooled_policy_name, PolicyRegistry};
use scanshare_core::sharded::ShardedPool;
use scanshare_exec::{Engine, WorkloadDriver};
use scanshare_sim::{SimConfig, Simulation};
use scanshare_storage::column::{ColumnSpec, ColumnType};
use scanshare_storage::datagen::DataGen;
use scanshare_storage::layout::{PageDescriptor, ScanPagePlan};
use scanshare_storage::storage::Storage;
use scanshare_storage::table::TableSpec;
use scanshare_workload::microbench::{self, MicrobenchConfig};

const STREAMS: usize = 8;
const PAGE: u64 = 16 * 1024;
const CHUNK: u64 = 5_000;

struct Preset {
    name: &'static str,
    lineitem_tuples: u64,
    queries_per_stream: usize,
    e2e_shards: &'static [usize],
    backend_shards: &'static [usize],
    /// Backend phase: pages in the (fully warm) pool.
    backend_pages: u64,
    /// Backend phase: page requests per backend query.
    backend_query_pages: u64,
    /// Backend phase: queries per stream thread.
    backend_queries: u64,
    /// CScan backend phase: chunks in the (fully warm) ABM.
    cscan_chunks: u64,
    /// CScan backend phase: chunks per protocol query.
    cscan_span_chunks: u64,
    /// CScan backend phase: queries per stream thread.
    cscan_queries: u64,
}

fn preset() -> Preset {
    match bench_preset() {
        "smoke" => Preset {
            name: "smoke",
            lineitem_tuples: 40_000,
            queries_per_stream: 3,
            e2e_shards: &[1, 4],
            backend_shards: &[1, 2, 4, 8],
            backend_pages: 4_096,
            backend_query_pages: 512,
            backend_queries: 48,
            cscan_chunks: 32,
            cscan_span_chunks: 8,
            cscan_queries: 64,
        },
        _ => Preset {
            name: "full",
            lineitem_tuples: 200_000,
            queries_per_stream: 8,
            e2e_shards: &[1, 2, 4, 8],
            backend_shards: &[1, 2, 4, 8],
            backend_pages: 8_192,
            backend_query_pages: 512,
            backend_queries: 192,
            cscan_chunks: 64,
            cscan_span_chunks: 16,
            cscan_queries: 256,
        },
    }
}

fn engine_config(policy: PolicyKind, pool_bytes: u64, shards: usize) -> ScanShareConfig {
    ScanShareConfig {
        page_size_bytes: PAGE,
        chunk_tuples: CHUNK,
        buffer_pool_bytes: pool_bytes,
        policy,
        pool_shards: shards,
        ..Default::default()
    }
}

/// A synthetic single-column page plan over `pages` pages starting at
/// `first`, used to register backend-phase scans (PBM derives its
/// next-consumption estimates from `tuples_behind`).
fn backend_plan(first: u64, pages: u64, total_pages: u64) -> ScanPagePlan {
    const TUPLES_PER_PAGE: u64 = 1_000;
    let descs: Vec<PageDescriptor> = (0..pages)
        .map(|i| {
            let page = (first + i) % total_pages;
            PageDescriptor {
                page: PageId::new(page),
                column: ColumnId::new(0),
                column_index: 0,
                sid_range: TupleRange::new(i * TUPLES_PER_PAGE, (i + 1) * TUPLES_PER_PAGE),
                tuples_behind: i * TUPLES_PER_PAGE,
                tuple_count: TUPLES_PER_PAGE,
            }
        })
        .collect();
    ScanPagePlan {
        table: scanshare_common::TableId::new(0),
        total_tuples: pages * TUPLES_PER_PAGE,
        pages: descs,
    }
}

/// Runs the backend-protocol phase: `STREAMS` threads, each registering
/// scans over a warm pool and sweeping their pages. Returns (queries/s,
/// total I/O bytes, hits+misses).
fn backend_throughput(policy: PolicyKind, shards: usize, preset: &Preset) -> (f64, u64, u64) {
    let config = engine_config(policy, preset.backend_pages * PAGE, shards);
    let name = pooled_policy_name(&config, policy);
    let replacement = PolicyRegistry::default()
        .build(name, &config)
        .expect("policy");
    let pool = Arc::new(ShardedPool::new(
        preset.backend_pages as usize,
        PAGE,
        replacement,
        shards,
    ));
    let now = VirtualInstant::EPOCH;

    // Warm the pool: every page misses exactly once, then stays resident
    // (capacity equals the page count, so no eviction ever runs and the
    // measured phase is pure hits).
    for page in 0..preset.backend_pages {
        pool.request_page(PageId::new(page), None, now)
            .expect("warm");
    }

    let started = Instant::now();
    std::thread::scope(|scope| {
        for stream in 0..STREAMS as u64 {
            let pool = Arc::clone(&pool);
            let pages = preset.backend_pages;
            let query_pages = preset.backend_query_pages;
            let queries = preset.backend_queries;
            scope.spawn(move || {
                // Each stream starts its sweeps at a different offset so
                // concurrent scans spread over the page (and shard) space,
                // like the microbenchmark's random scan placement.
                let mut cursor = stream * (pages / STREAMS as u64);
                for _ in 0..queries {
                    let plan = backend_plan(cursor, query_pages, pages);
                    let scan = pool.register_scan(&plan, now);
                    for (i, desc) in plan.pages.iter().enumerate() {
                        pool.request_page(desc.page, Some(scan), now).expect("hit");
                        if i % 64 == 63 {
                            pool.report_scan_position(scan, desc.tuples_behind, now);
                        }
                    }
                    pool.unregister_scan(scan, now);
                    cursor = (cursor + query_pages) % pages;
                }
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64();
    let stats = pool.stats();
    let total_queries = (STREAMS as u64 * preset.backend_queries) as f64;
    (
        total_queries / elapsed,
        stats.io_bytes,
        stats.hits + stats.misses,
    )
}

// ---------------------------------------------------------------------------
// CScan backend phase: the ABM protocol (RegisterCScan -> GetChunk ->
// UnregisterCScan) over a warm chunk cache
// ---------------------------------------------------------------------------

/// Builds the CScan phase table: two columns over `chunks` ABM chunks.
fn cscan_storage(chunks: u64) -> (Arc<Storage>, scanshare_common::TableId, u64) {
    const CHUNK_TUPLES: u64 = 1_000;
    let tuples = chunks * CHUNK_TUPLES;
    let storage = Storage::with_seed(1024, CHUNK_TUPLES, 17);
    let spec = TableSpec::new(
        "t",
        vec![
            ColumnSpec::with_width("a", ColumnType::Int64, 4.0),
            ColumnSpec::with_width("b", ColumnType::Int64, 2.0),
        ],
        tuples,
    );
    let table = storage
        .create_table_with_data(
            spec,
            vec![
                DataGen::Sequential { start: 0, step: 1 },
                DataGen::Constant(1),
            ],
        )
        .expect("cscan table");
    (storage, table, tuples)
}

/// Runs the CScan protocol phase: a keeper scan warms every chunk, then
/// `STREAMS` threads register scans over cached subranges and drain their
/// chunk deliveries — the ABM hot path with zero load traffic, so the
/// measurement isolates the delivery/registration structure the directory
/// shards exist to scale. Returns (queries/s, total I/O bytes, deliveries).
fn cscan_backend_throughput(abm: &Abm, preset: &Preset) -> (f64, u64, u64) {
    const CHUNK_TUPLES: u64 = 1_000;
    let (storage, table, tuples) = cscan_storage(preset.cscan_chunks);
    let layout = storage.layout(table).expect("layout");
    let snapshot = storage.master_snapshot(table).expect("snapshot");
    let request = |start: u64, end: u64| CScanRequest {
        table,
        snapshot: Arc::clone(&snapshot),
        layout: Arc::clone(&layout),
        columns: vec![0, 1],
        ranges: RangeList::single(start, end),
        in_order: false,
    };

    // Warm phase: a keeper scan pins the table version and pulls every
    // chunk into the ABM cache. It never consumes, so the chunks stay
    // cached (and protected from metadata teardown) for the whole
    // measured phase.
    let now = VirtualInstant::EPOCH;
    let keeper = abm.register_cscan(request(0, tuples)).expect("register");
    while let Some(plan) = abm.next_load(now) {
        abm.complete_load(&plan, now).expect("complete");
    }

    let span = preset.cscan_span_chunks * CHUNK_TUPLES;
    let started = Instant::now();
    std::thread::scope(|scope| {
        for stream in 0..STREAMS as u64 {
            let request = &request;
            let queries = preset.cscan_queries;
            scope.spawn(move || {
                for q in 0..queries {
                    // Spread scans over the chunk space like the
                    // microbenchmark's random placement.
                    let positions = preset.cscan_chunks - preset.cscan_span_chunks;
                    let start = ((stream * 7 + q * 3) % positions.max(1)) * CHUNK_TUPLES;
                    let handle = abm
                        .register_cscan(request(start, start + span))
                        .expect("register");
                    let mut delivered = 0usize;
                    while abm.get_chunk(handle.id).expect("get_chunk").is_some() {
                        delivered += 1;
                    }
                    assert_eq!(
                        delivered, handle.total_chunks,
                        "warm ABM must deliver every chunk without loads"
                    );
                    abm.unregister_cscan(handle.id).expect("unregister");
                }
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64();
    let stats = abm.stats();
    abm.unregister_cscan(keeper.id).expect("unregister");
    let total_queries = (STREAMS as u64 * preset.cscan_queries) as f64;
    (total_queries / elapsed, stats.io_bytes, stats.hits)
}

fn bench(c: &mut Criterion) {
    let preset = preset();
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let micro = MicrobenchConfig {
        streams: STREAMS,
        queries_per_stream: preset.queries_per_stream,
        lineitem_tuples: preset.lineitem_tuples,
        ..Default::default()
    };
    let (storage, workload) = microbench::build(&micro, PAGE, CHUNK).expect("workload");
    let accessed = Simulation::new(
        Arc::clone(&storage),
        SimConfig {
            scanshare: engine_config(PolicyKind::Lru, 1 << 30, 1),
            cores: STREAMS,
            sharing_sample_interval: None,
        },
    )
    .expect("sim")
    .accessed_volume(&workload)
    .expect("accessed volume");
    // Headroom pool: every accessed page loads exactly once, so the I/O
    // volume is deterministic under any thread interleaving.
    let pool_bytes = accessed * 2;

    println!(
        "throughput scaling ({}): {} streams, {:.1} MB accessed, host parallelism {}",
        preset.name,
        STREAMS,
        accessed as f64 / 1e6,
        parallelism
    );

    let mut metrics = Json::object();
    let mut io_bytes_doc = Json::object();
    let mut best_backend_speedup: f64 = 0.0;

    for policy in [PolicyKind::Lru, PolicyKind::Pbm] {
        // -------------------------------------------------------------
        // End-to-end: WorkloadDriver against the live engine
        // -------------------------------------------------------------
        println!(
            "{:<8} {:>7} {:>12} {:>14} {:>12} {:>10} {:>10}",
            "policy", "shards", "e2e q/s", "e2e Mtup/s", "p95 ms", "io MB", "hits"
        );
        let mut e2e_qps_by_shards: Vec<(usize, f64)> = Vec::new();
        let mut reference_io: Option<(u64, u64)> = None;
        for &shards in preset.e2e_shards {
            let engine = Engine::new(
                Arc::clone(&storage),
                engine_config(policy, pool_bytes, shards),
            )
            .expect("engine");
            let driver = WorkloadDriver::new(engine);
            // Cold pass loads every accessed page; its I/O volume is the
            // deterministic quantity sharding must not change.
            let cold = driver.run(&workload).expect("cold run");
            match reference_io {
                None => {
                    reference_io =
                        Some((cold.buffer.io_bytes, cold.buffer.hits + cold.buffer.misses))
                }
                Some((io, requests)) => {
                    assert_eq!(
                        cold.buffer.io_bytes, io,
                        "{policy}: I/O volume must be identical across shard counts"
                    );
                    assert_eq!(
                        cold.buffer.hits + cold.buffer.misses,
                        requests,
                        "{policy}: page-request count must be identical across shard counts"
                    );
                }
            }
            // Warm pass: the throughput measurement.
            let warm = driver.run(&workload).expect("warm run");
            assert_eq!(
                warm.buffer.misses, 0,
                "{policy}: the warm pass must be served entirely from the pool"
            );
            let qps = warm.queries_per_sec();
            println!(
                "{:<8} {:>7} {:>12.1} {:>14.2} {:>12.3} {:>10.1} {:>10}",
                policy.name(),
                shards,
                qps,
                warm.tuples_per_sec() / 1e6,
                warm.p95().map(|d| d.as_secs_f64() * 1e3).unwrap_or(0.0),
                cold.buffer.io_megabytes(),
                warm.buffer.hits,
            );
            metrics.set(format!("qps_e2e_s{STREAMS}_sh{shards}_{policy}"), qps);
            e2e_qps_by_shards.push((shards, qps));
        }
        let (io, _) = reference_io.expect("at least one shard count ran");
        io_bytes_doc.set(format!("cold_io_bytes_s{STREAMS}_{policy}"), io);
        if let Some(speedup) = speedup_vs_one_shard(&e2e_qps_by_shards) {
            println!("{policy}: end-to-end speedup 1 -> >=4 shards: {speedup:.2}x");
            metrics.set(format!("speedup_e2e_s{STREAMS}_{policy}"), speedup);
        }

        // -------------------------------------------------------------
        // Backend protocol: ShardedPool driven directly
        // -------------------------------------------------------------
        println!(
            "{:<8} {:>7} {:>14} {:>14}",
            "policy", "shards", "backend q/s", "Mpages/s"
        );
        let mut backend_qps_by_shards: Vec<(usize, f64)> = Vec::new();
        let mut backend_reference: Option<(u64, u64)> = None;
        for &shards in preset.backend_shards {
            let (qps, io, requests) = backend_throughput(policy, shards, &preset);
            match backend_reference {
                None => backend_reference = Some((io, requests)),
                Some(expected) => assert_eq!(
                    (io, requests),
                    expected,
                    "{policy}: backend I/O accounting must be identical across shard counts"
                ),
            }
            println!(
                "{:<8} {:>7} {:>14.1} {:>14.2}",
                policy.name(),
                shards,
                qps,
                qps * preset.backend_query_pages as f64 / 1e6,
            );
            metrics.set(format!("qps_backend_s{STREAMS}_sh{shards}_{policy}"), qps);
            backend_qps_by_shards.push((shards, qps));
        }
        if let Some(speedup) = speedup_vs_one_shard(&backend_qps_by_shards) {
            println!("{policy}: backend speedup 1 -> >=4 shards: {speedup:.2}x");
            metrics.set(format!("speedup_backend_s{STREAMS}_{policy}"), speedup);
            best_backend_speedup = best_backend_speedup.max(speedup);
        }
    }

    // -----------------------------------------------------------------
    // Cooperative Scans: end-to-end driver throughput
    // -----------------------------------------------------------------
    println!(
        "{:<8} {:>7} {:>7} {:>12} {:>14} {:>12} {:>10}",
        "policy", "shards", "window", "e2e q/s", "e2e Mtup/s", "p95 ms", "io MB"
    );
    for (shards, window) in [(1usize, 1usize), (4, 4)] {
        let mut config = engine_config(PolicyKind::CScan, pool_bytes, shards);
        config.cscan_load_window = window;
        let engine = Engine::new(Arc::clone(&storage), config).expect("cscan engine");
        let driver = WorkloadDriver::new(engine);
        // First pass warms nothing durable — ABM chunk metadata lives only
        // while scans are registered — so both passes do real chunk I/O;
        // the second pass is the measurement.
        let _first = driver.run(&workload).expect("cscan first run");
        let report = driver.run(&workload).expect("cscan run");
        assert!(report.stream_errors.is_empty(), "no stream may starve");
        let qps = report.queries_per_sec();
        println!(
            "{:<8} {:>7} {:>7} {:>12.1} {:>14.2} {:>12.3} {:>10.1}",
            "cscan",
            shards,
            window,
            qps,
            report.tuples_per_sec() / 1e6,
            report.p95().map(|d| d.as_secs_f64() * 1e3).unwrap_or(0.0),
            report.buffer.io_megabytes(),
        );
        metrics.set(
            format!("qps_e2e_s{STREAMS}_sh{shards}_w{window}_cscan"),
            qps,
        );
    }

    // -----------------------------------------------------------------
    // Cooperative Scans: ABM protocol across directory shard counts
    // -----------------------------------------------------------------
    println!("{:>7} {:>14} {:>14}", "shards", "cscan q/s", "deliveries/s");
    let span = preset.cscan_span_chunks as f64;
    let mut accounting = None;
    for &shards in preset.backend_shards {
        let (qps, io, hits) = cscan_backend_throughput(
            &Abm::new(AbmConfig::new(1 << 22, 1024).with_shards(shards)),
            &preset,
        );
        // The protocol is deterministic in what it reads and delivers:
        // every shard count must account the identical I/O volume and
        // delivery count.
        assert_eq!(
            *accounting.get_or_insert((io, hits)),
            (io, hits),
            "cscan backend accounting must not depend on the shard count (shards {shards})"
        );
        println!("{:>7} {:>14.1} {:>14.1}", shards, qps, qps * span);
        metrics.set(format!("qps_backend_cscan_s{STREAMS}_sh{shards}"), qps);
    }

    // Emit the machine-readable results *before* any wall-clock assertion:
    // if the scaling check fails, the numbers behind it must still land in
    // the CI artifact for diagnosis.
    let mut doc = Json::object();
    doc.set("figure", "throughput_scaling")
        .set("preset", preset.name)
        .set("streams", STREAMS)
        .set("host_parallelism", parallelism)
        .set("metrics", metrics)
        .set("io_bytes", io_bytes_doc);
    write_bench_json("throughput_scaling", &doc);

    // The scaling claim needs hardware that can actually run streams in
    // parallel: a single-core host serializes every thread and measures
    // scheduler noise, and small shared runners report SMT-inflated logical
    // counts (4 vCPUs = 2 busy physical cores) that are too jittery to
    // enforce a wall-clock ratio on. Enforce at >= 8 logical CPUs, or
    // whenever SCANSHARE_BENCH_ASSERT_SCALING is set; otherwise report.
    let force = std::env::var_os("SCANSHARE_BENCH_ASSERT_SCALING").is_some();
    if parallelism >= 8 || force {
        assert!(
            best_backend_speedup >= 1.5,
            "sharding the pool must scale the backend path at {STREAMS} streams \
             (measured {best_backend_speedup:.2}x, expected >= 1.5x)"
        );
    } else {
        println!(
            "note: host parallelism {parallelism} < 8; scaling assertion skipped \
             (best backend speedup {best_backend_speedup:.2}x; set \
             SCANSHARE_BENCH_ASSERT_SCALING=1 to enforce)"
        );
    }

    // A stable point for the crit harness: backend throughput at 4 shards.
    let mut group = c.benchmark_group("throughput_scaling");
    group.sample_size(3);
    group.bench_function("backend_pbm_4shards", |b| {
        b.iter(|| backend_throughput(PolicyKind::Pbm, 4, &preset))
    });
    group.finish();
}

/// Best throughput at >= 4 shards relative to the 1-shard configuration.
fn speedup_vs_one_shard(qps_by_shards: &[(usize, f64)]) -> Option<f64> {
    let one = qps_by_shards
        .iter()
        .find(|(s, _)| *s == 1)
        .map(|(_, q)| *q)?;
    let best = qps_by_shards
        .iter()
        .filter(|(s, _)| *s >= 4)
        .map(|(_, q)| *q)
        .fold(f64::NAN, f64::max);
    (best.is_finite() && one > 0.0).then(|| best / one)
}

criterion_group!(benches, bench);
criterion_main!(benches);
