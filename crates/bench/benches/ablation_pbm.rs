//! Ablation: how PBM's design knobs affect the I/O volume it saves.
//!
//! The paper motivates two design choices we ablate here on the
//! microbenchmark workload at heavy memory pressure (10 % pool):
//!
//! * the bucket timeline granularity (`time_slice`, buckets per group) —
//!   coarse buckets approximate the next-consumption ordering badly;
//! * progress reporting — without `ReportScanPosition` the speed estimates
//!   never improve over the initial default.
//!
//! The printed table compares the resulting I/O volume against LRU and
//! against the default PBM configuration.

use std::sync::Arc;

use scanshare_bench::crit::Criterion;
use scanshare_bench::{criterion_group, criterion_main};

use scanshare_bench::measured_scale;
use scanshare_common::VirtualDuration;
use scanshare_common::{PolicyKind, ScanShareConfig, VirtualInstant};
use scanshare_core::lru::LruPolicy;
use scanshare_core::pbm::{PbmConfig, PbmPolicy};
use scanshare_core::policy::ReplacementPolicy;
use scanshare_core::ShardedPool;
use scanshare_storage::storage::Storage;
use scanshare_workload::microbench::{self, MicrobenchConfig};

/// Replays the interleaved page-reference streams of the microbenchmark
/// queries through a pool with the given policy, round-robin across streams,
/// and returns the resulting I/O bytes.
fn replay(
    storage: &Arc<Storage>,
    workload: &scanshare_workload::WorkloadSpec,
    pool_pages: usize,
    page_size: u64,
    policy: Box<dyn ReplacementPolicy>,
    report_progress: bool,
) -> u64 {
    let pool = ShardedPool::new(pool_pages, page_size, policy, 1);
    let now = VirtualInstant::EPOCH;
    // Build per-stream page queues (streams interleave page by page).
    let mut queues: Vec<Vec<(scanshare_common::ScanId, scanshare_common::PageId, u64, u64)>> =
        Vec::new();
    for stream in &workload.streams {
        let mut queue = Vec::new();
        for query in &stream.queries {
            for scan in &query.scans {
                let layout = storage.layout(scan.table).unwrap();
                let snapshot = storage.master_snapshot(scan.table).unwrap();
                let plan = layout.scan_page_plan(&snapshot, &scan.columns, &scan.ranges);
                let id = pool.register_scan(&plan, now);
                let mut consumed = 0;
                for page in plan.interleaved() {
                    consumed += page.tuple_count;
                    queue.push((id, page.page, page.tuple_count, consumed));
                }
            }
        }
        queues.push(queue);
    }
    let mut cursors = vec![0usize; queues.len()];
    loop {
        let mut progressed = false;
        for (s, queue) in queues.iter().enumerate() {
            if cursors[s] >= queue.len() {
                continue;
            }
            let (scan, page, _tuples, consumed) = queue[cursors[s]];
            cursors[s] += 1;
            progressed = true;
            pool.request_page(page, Some(scan), now).unwrap();
            if report_progress {
                pool.report_scan_position(scan, consumed, now);
            }
        }
        if !progressed {
            break;
        }
    }
    pool.stats().io_bytes
}

fn bench(c: &mut Criterion) {
    let scale = measured_scale();
    let micro = MicrobenchConfig {
        streams: 4,
        lineitem_tuples: scale.micro_lineitem_tuples,
        ..MicrobenchConfig::default()
    };
    let page_size = scale.page_size_bytes;
    let (storage, workload) = microbench::build(&micro, page_size, scale.chunk_tuples).unwrap();

    // Pool of roughly 10% of the table.
    let table_pages = {
        let layout = storage
            .layout(workload.streams[0].queries[0].scans[0].table)
            .unwrap();
        let cols: Vec<usize> = (0..layout.column_count()).collect();
        layout.bytes_for_scan(&cols, micro.lineitem_tuples) / page_size
    };
    let pool_pages = ((table_pages / 10) as usize).max(8);

    type PolicyFactory = Box<dyn Fn() -> Box<dyn ReplacementPolicy>>;
    let default_speed = ScanShareConfig::default().cpu_tuples_per_sec as f64;
    let variants: Vec<(&str, PolicyFactory, bool)> = vec![
        (
            "lru",
            Box::new(|| Box::new(LruPolicy::new()) as Box<dyn ReplacementPolicy>),
            true,
        ),
        (
            "pbm-default",
            Box::new(move || {
                Box::new(PbmPolicy::new(PbmConfig {
                    default_scan_speed: default_speed,
                    ..PbmConfig::default()
                })) as Box<dyn ReplacementPolicy>
            }),
            true,
        ),
        (
            "pbm-coarse-buckets",
            Box::new(move || {
                Box::new(PbmPolicy::new(PbmConfig {
                    default_scan_speed: default_speed,
                    time_slice: VirtualDuration::from_secs(10),
                    bucket_groups: 1,
                    buckets_per_group: 2,
                })) as Box<dyn ReplacementPolicy>
            }),
            true,
        ),
        (
            "pbm-no-progress-reports",
            Box::new(move || {
                Box::new(PbmPolicy::new(PbmConfig {
                    default_scan_speed: default_speed,
                    ..PbmConfig::default()
                })) as Box<dyn ReplacementPolicy>
            }),
            false,
        ),
    ];

    println!(
        "PBM ablation (pool = {pool_pages} pages, {PolicyKind:?})",
        PolicyKind = PolicyKind::Pbm
    );
    println!("{:<26}{:>16}", "variant", "I/O [MB]");
    for (name, make_policy, report) in &variants {
        let io = replay(
            &storage,
            &workload,
            pool_pages,
            page_size,
            make_policy(),
            *report,
        );
        println!("{name:<26}{:>16.1}", io as f64 / 1e6);
    }

    let mut group = c.benchmark_group("ablation_pbm");
    group.sample_size(10);
    for (name, make_policy, report) in variants {
        group.bench_function(name, |b| {
            b.iter(|| {
                replay(
                    &storage,
                    &workload,
                    pool_pages,
                    page_size,
                    make_policy(),
                    report,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
