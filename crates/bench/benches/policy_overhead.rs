//! CPU overhead of the buffer-management policies themselves.
//!
//! Section 3 of the paper stresses that PBM must be CPU-efficient: its bucket
//! timeline gives O(1) page registration, priority updates and victim
//! selection (a binary heap "turned out to incur too much overhead").
//! This bench measures the per-operation cost of LRU and PBM on the hot
//! paths: page requests (hits), scan registration and eviction decisions,
//! plus the OPT replay used by the harness.

use scanshare_bench::crit::{BenchmarkId, Criterion};
use scanshare_bench::{criterion_group, criterion_main};

use scanshare_common::{PageId, ScanShareConfig, VirtualInstant};
use scanshare_core::lru::LruPolicy;
use scanshare_core::opt::simulate_opt;
use scanshare_core::pbm::{PbmConfig, PbmPolicy};
use scanshare_core::policy::ReplacementPolicy;
use scanshare_core::ShardedPool;
use scanshare_storage::storage::Storage;
use scanshare_workload::microbench;

fn make_policy(name: &str) -> Box<dyn ReplacementPolicy> {
    match name {
        "lru" => Box::new(LruPolicy::new()),
        _ => Box::new(PbmPolicy::new(PbmConfig {
            default_scan_speed: ScanShareConfig::default().cpu_tuples_per_sec as f64,
            ..PbmConfig::default()
        })),
    }
}

fn bench(c: &mut Criterion) {
    let page_size = 64 * 1024u64;
    let storage = Storage::with_seed(page_size, 10_000, 9);
    let lineitem = microbench::setup_lineitem(&storage, 200_000).expect("table");
    let layout = storage.layout(lineitem).unwrap();
    let snapshot = storage.master_snapshot(lineitem).unwrap();
    let columns: Vec<usize> = (0..layout.column_count()).collect();
    let plan = layout.scan_page_plan(
        &snapshot,
        &columns,
        &scanshare_common::RangeList::single(0, 200_000),
    );
    let now = VirtualInstant::EPOCH;

    // Hot path 1: page request hits on a warm pool.
    let mut group = c.benchmark_group("request_page_hit");
    for policy_name in ["lru", "pbm"] {
        group.bench_with_input(
            BenchmarkId::from_parameter(policy_name),
            &policy_name,
            |b, name| {
                let pool = ShardedPool::new(4096, page_size, make_policy(name), 1);
                let scan = pool.register_scan(&plan, now);
                for desc in plan.interleaved() {
                    pool.request_page(desc.page, Some(scan), now).unwrap();
                }
                let pages: Vec<PageId> = plan.interleaved().iter().map(|d| d.page).collect();
                let mut i = 0;
                b.iter(|| {
                    let page = pages[i % pages.len()];
                    i += 1;
                    pool.request_page(page, Some(scan), now).unwrap()
                });
            },
        );
    }
    group.finish();

    // Hot path 2: RegisterScan over the whole table plan.
    let mut group = c.benchmark_group("register_scan");
    for policy_name in ["lru", "pbm"] {
        group.bench_with_input(
            BenchmarkId::from_parameter(policy_name),
            &policy_name,
            |b, name| {
                b.iter(|| {
                    let pool = ShardedPool::new(4096, page_size, make_policy(name), 1);
                    let id = pool.register_scan(&plan, now);
                    pool.unregister_scan(id, now);
                });
            },
        );
    }
    group.finish();

    // Hot path 3: eviction pressure (every request misses and evicts).
    let mut group = c.benchmark_group("evict_under_pressure");
    for policy_name in ["lru", "pbm"] {
        group.bench_with_input(
            BenchmarkId::from_parameter(policy_name),
            &policy_name,
            |b, name| {
                let pool = ShardedPool::new(64, page_size, make_policy(name), 1);
                let scan = pool.register_scan(&plan, now);
                let pages: Vec<PageId> = plan.interleaved().iter().map(|d| d.page).collect();
                let mut i = 0;
                b.iter(|| {
                    let page = pages[i % pages.len()];
                    i += 1;
                    pool.request_page(page, Some(scan), now).unwrap()
                });
            },
        );
    }
    group.finish();

    // The OPT replay itself (cost of the oracle simulation, not a policy).
    let mut group = c.benchmark_group("opt_replay");
    let trace: Vec<PageId> = (0..50_000u64).map(|i| PageId::new(i % 1000)).collect();
    group.bench_function("50k_refs_256_pages", |b| {
        b.iter(|| simulate_opt(&trace, 256))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
