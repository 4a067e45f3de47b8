//! Ablation: what PBM's design knobs are worth on the microbenchmark
//! workload at heavy memory pressure (10 % pool).
//!
//! Two choices are swept against LRU and the default configuration:
//!
//! * the bucket timeline granularity (`time_slice`, groups, buckets per
//!   group) — from the paper's 100 ms / 10 x 10 down to two 10 s buckets;
//! * progress reporting — without `ReportScanPosition` a scan stays at its
//!   registration position and the default speed.
//!
//! The sweep is expected to be **nearly flat**, and the table says so. A
//! bucket orders its pages by predicted consumption instant, so which bucket
//! a page lands in only decides how often it is re-estimated, not the victim
//! order; before buckets were ordered, a coarse timeline evicted in page-id
//! order and every PBM row read 29.6 MB, 1 % under LRU. The replay also
//! keeps the clock at the epoch (it measures I/O volume of a fixed
//! interleaving, not time), so no scan speed is ever measured and a report
//! only moves the scan's position: **this table cannot show what the speed
//! estimate is worth** — every scan stays at `default_scan_speed` in every
//! row. Measured at the `test` scale (pool = 8 pages):
//!
//! ```text
//! variant                           I/O [MB]
//! lru                                   30.0
//! pbm-default                           27.6
//! pbm-coarse-buckets                    27.6
//! pbm-no-progress-reports               27.6
//! ```
//!
//! The second table is driven by the simulator, where time passes and scans
//! are measured: two points of the paper's microbenchmark at the `test`
//! scale, under LRU, PBM as configured, and PBM with
//! `PbmConfig::default_scan_speed` wrong by a factor of 100 either way. PBM
//! assumes that speed for unreported scans only until its first
//! measurement and the mean of the measured scans from then on, so the three
//! PBM rows are expected within a few percent of each other — the knob is
//! inert, which is the evidence for deleting it. Nothing is gated.
//!
//! ```text
//! point                     variant            I/O [MB]  stream time [s]
//! fig11, 40 % pool          lru                    30.5           0.0829
//! fig11, 40 % pool          pbm                    20.8           0.0567
//! fig11, 40 % pool          pbm-prior-x0.01        20.8           0.0567
//! fig11, 40 % pool          pbm-prior-x100         20.8           0.0567
//! fig13, 16 streams         lru                   149.4           0.4207
//! fig13, 16 streams         pbm                   106.8           0.3045
//! fig13, 16 streams         pbm-prior-x0.01       106.8           0.3057
//! fig13, 16 streams         pbm-prior-x100        106.8           0.3045
//! ```

use std::sync::Arc;

use scanshare_common::{Bandwidth, PolicyKind, ScanShareConfig, VirtualDuration, VirtualInstant};
use scanshare_core::lru::LruPolicy;
use scanshare_core::pbm::{PbmConfig, PbmPolicy};
use scanshare_core::policy::ReplacementPolicy;
use scanshare_core::registry::{pbm_config_for, PolicyRegistry};
use scanshare_core::BufferPool;
use scanshare_sim::{ExperimentScale, SimConfig, Simulation};
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
    let pool = BufferPool::new(pool_pages, page_size, policy);
    let now = VirtualInstant::EPOCH;
    // Build per-stream page queues (streams interleave page by page).
    let mut queues: Vec<Vec<(scanshare_common::ScanId, scanshare_common::PageId, u64)>> =
        Vec::new();
    for stream in &workload.streams {
        let mut queue = Vec::new();
        for query in &stream.queries {
            for scan in &query.scans {
                let layout = storage.layout(scan.table).unwrap();
                let snapshot = storage.master_snapshot(scan.table).unwrap();
                let plan = layout.scan_page_plan(&snapshot, &scan.columns, &scan.ranges);
                let id = pool.register_scan(&plan, now);
                for page in plan.interleaved() {
                    queue.push((id, page.page, page.tuples_behind));
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
            let (scan, page, position) = queue[cursors[s]];
            cursors[s] += 1;
            progressed = true;
            pool.request_page(page, Some(scan), now).unwrap();
            if report_progress {
                pool.report_scan_position(scan, position, now);
            }
        }
        if !progressed {
            break;
        }
    }
    pool.stats().io_bytes
}

/// Simulates one point of the microbenchmark the way the figure harness
/// does (pool = 40 % of the accessed volume, 700 MB/s, 8 cores) under LRU,
/// PBM, and PBM whose bootstrap speed is off by `x0.01` and `x100`, and
/// prints a row per variant.
fn simulate_prior_ablation(point: &str, scale: &ExperimentScale, micro: &MicrobenchConfig) {
    let (storage, workload) =
        microbench::build(micro, scale.page_size_bytes, scale.chunk_tuples).unwrap();
    let mut config = SimConfig {
        scanshare: ScanShareConfig {
            page_size_bytes: scale.page_size_bytes,
            chunk_tuples: scale.chunk_tuples,
            io_bandwidth: Bandwidth::from_mb_per_sec(scale.micro_default_bandwidth_mb),
            ..ScanShareConfig::default()
        },
        cores: 8,
        sharing_sample_interval: None,
    };
    let accessed = Simulation::new(Arc::clone(&storage), config.clone())
        .unwrap()
        .accessed_volume(&workload)
        .unwrap();
    config.scanshare.buffer_pool_bytes =
        (accessed as f64 * scale.micro_default_pool_fraction) as u64;
    for (variant, policy, prior_factor) in [
        ("lru", PolicyKind::Lru, 1.0),
        ("pbm", PolicyKind::Pbm, 1.0),
        ("pbm-prior-x0.01", PolicyKind::Pbm, 0.01),
        ("pbm-prior-x100", PolicyKind::Pbm, 100.0),
    ] {
        let mut registry = PolicyRegistry::default();
        registry.register("pbm", move |config| {
            let pbm = pbm_config_for(config);
            Box::new(PbmPolicy::new(PbmConfig {
                default_scan_speed: pbm.default_scan_speed * prior_factor,
                ..pbm
            }))
        });
        config.scanshare.policy = policy;
        let result = Simulation::with_registry(Arc::clone(&storage), config.clone(), &registry)
            .unwrap()
            .run(&workload)
            .unwrap();
        println!(
            "{point:<26}{variant:<16}{:>11.1}{:>17.4}",
            result.total_io_bytes as f64 / 1e6,
            result.avg_stream_time_secs().unwrap()
        );
    }
}

fn main() {
    let scale = ExperimentScale::test();
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

    println!("\nPBM speed prior (simulator, `test` scale)");
    println!(
        "{:<26}{:<16}{:>11}{:>17}",
        "point", "variant", "I/O [MB]", "stream time [s]"
    );
    simulate_prior_ablation("fig11, 40 % pool", &scale, &micro);
    let fig13 = MicrobenchConfig {
        streams: 16,
        ..micro.clone()
    }
    .with_fixed_percentage(50);
    simulate_prior_ablation("fig13, 16 streams", &scale, &fig13);
}
