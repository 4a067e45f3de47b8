//! Prefetch overlap: stream time with and without the asynchronous prefetch
//! window, across the paper's bandwidth sweep.
//!
//! The synchronous model (`prefetch_pages = 0`, the configuration every
//! figure of the paper uses) serializes each miss behind the scan; with a
//! prefetch window the policy-predicted pages load while tuples are
//! processed. The single-stream setup below is the regime the window is for:
//! with concurrent streams one stream's compute already overlaps another's
//! I/O, but a lone scan on a synchronous device pays `io + cpu` per page —
//! prefetching turns that into `max(io, cpu)`, so once bandwidth is high
//! enough that compute dominates, the transfers vanish from the stream time.
//! The total I/O volume stays the same: prefetching changes *when* pages are
//! read, not *which* (it never evicts).

use std::sync::Arc;

use scanshare_bench::json::Json;
use scanshare_bench::{bench_preset, write_bench_json};

use scanshare_common::{Bandwidth, PolicyKind, ScanShareConfig};
use scanshare_sim::{SimConfig, Simulation};
use scanshare_workload::microbench::{self, MicrobenchConfig};

const PAGE: u64 = 64 * 1024;
const CHUNK: u64 = 10_000;
const WINDOW: usize = 8;

fn sim(
    storage: &Arc<scanshare_storage::storage::Storage>,
    policy: PolicyKind,
    pool_bytes: u64,
    bandwidth_mb: f64,
    prefetch_pages: usize,
) -> Simulation {
    let config = SimConfig {
        scanshare: ScanShareConfig {
            page_size_bytes: PAGE,
            chunk_tuples: CHUNK,
            buffer_pool_bytes: pool_bytes,
            io_bandwidth: Bandwidth::from_mb_per_sec(bandwidth_mb),
            // A fast device: at 10us per request the fixed latency no longer
            // dominates the 64 KiB transfers, so the bandwidth sweep actually
            // moves the io/cpu balance.
            io_latency_nanos: 10_000,
            policy,
            prefetch_pages,
            ..Default::default()
        },
        // One core: a single scan-select-aggregate stream at the paper's
        // per-core processing rate, the regime where overlapping I/O with
        // computation is the only source of concurrency.
        cores: 1,
        sharing_sample_interval: None,
    };
    Simulation::new(Arc::clone(storage), config).expect("simulation")
}

fn main() {
    // The smoke preset (CI's bench-smoke job) shrinks the workload so the
    // figure runs in seconds; both clocks here are *virtual*, so the
    // speedups are deterministic and machine-independent at either scale.
    let preset = bench_preset();
    let (queries_per_stream, lineitem_tuples) = match preset {
        "smoke" => (2, 120_000),
        _ => (4, 480_000),
    };
    let micro = MicrobenchConfig {
        streams: 1,
        queries_per_stream,
        lineitem_tuples,
        ..Default::default()
    };
    let (storage, workload) = microbench::build(&micro, PAGE, CHUNK).expect("workload");
    let accessed = sim(&storage, PolicyKind::Lru, 1 << 30, 700.0, 0)
        .accessed_volume(&workload)
        .expect("accessed volume");

    println!(
        "prefetch overlap: micro workload, {:.1} MB accessed, window {WINDOW} pages",
        accessed as f64 / 1e6
    );
    println!(
        "{:<8} {:>7} {:>8} {:>12} {:>12} {:>9} {:>10}",
        "policy", "pool %", "MB/s", "sync s", "prefetch s", "speedup", "io ratio"
    );
    let mut pbm_headroom_fast: Option<(f64, f64)> = None;
    let mut metrics = Json::object();
    let mut io_violations: Vec<String> = Vec::new();
    for policy in [PolicyKind::Lru, PolicyKind::Pbm] {
        // 40 % is the paper's pressure point (prefetch never evicts, so it
        // is inert once the pool fills); 110 % is the headroom regime where
        // cold transfers fully overlap with computation.
        for fraction in [0.4, 1.1] {
            let pool = ((accessed as f64 * fraction) as u64).max((WINDOW as u64 + 4) * PAGE);
            for mb in [200.0, 700.0, 2000.0] {
                let sync = sim(&storage, policy, pool, mb, 0)
                    .run(&workload)
                    .expect("sync run");
                let prefetch = sim(&storage, policy, pool, mb, WINDOW)
                    .run(&workload)
                    .expect("prefetch run");
                let t_sync = sync.avg_stream_time_secs().expect("timing");
                let t_pf = prefetch.avg_stream_time_secs().expect("timing");
                println!(
                    "{:<8} {:>7.0} {:>8.0} {:>12.4} {:>12.4} {:>8.2}x {:>10.3}",
                    policy.name(),
                    fraction * 100.0,
                    mb,
                    t_sync,
                    t_pf,
                    t_sync / t_pf,
                    prefetch.total_io_bytes as f64 / sync.total_io_bytes as f64,
                );
                // Prefetching never evicts, so it must change *when* bytes
                // move, never *how many*. Collected here, asserted exactly
                // after the JSON artifact is written: a one-sided throughput
                // gate could not catch an upward regression of this ratio,
                // and a failing figure must still upload its numbers.
                if prefetch.total_io_bytes != sync.total_io_bytes {
                    io_violations.push(format!(
                        "{policy} pool {:.0}% bw {mb}: prefetch {} vs sync {} bytes",
                        fraction * 100.0,
                        prefetch.total_io_bytes,
                        sync.total_io_bytes
                    ));
                }
                metrics.set(
                    format!(
                        "virtual_speedup_{}_pool{:.0}_bw{:.0}",
                        policy.name(),
                        fraction * 100.0,
                        mb
                    ),
                    t_sync / t_pf,
                );
                if policy == PolicyKind::Pbm && fraction > 1.0 && mb >= 2000.0 {
                    pbm_headroom_fast = Some((t_sync, t_pf));
                    metrics.set(
                        "io_ratio_pbm_headroom",
                        prefetch.total_io_bytes as f64 / sync.total_io_bytes as f64,
                    );
                }
            }
        }
    }

    let (t_sync, t_pf) = pbm_headroom_fast.expect("PBM headroom high-bandwidth point");
    metrics.set("virtual_speedup_pbm_headroom", t_sync / t_pf);

    // Emit the artifact before any assertion so a failing figure still
    // uploads the numbers behind the failure.
    let mut doc = Json::object();
    doc.set("figure", "prefetch_overlap")
        .set("preset", preset)
        .set("metrics", metrics);
    write_bench_json("prefetch_overlap", &doc);

    assert!(
        io_violations.is_empty(),
        "prefetching changed the I/O volume:\n{}",
        io_violations.join("\n")
    );
    // The acceptance property of the figure: with bandwidth high enough that
    // compute can hide the transfers (and pool headroom for the window),
    // prefetching PBM beats the synchronous baseline on average stream time.
    assert!(
        t_pf < t_sync,
        "prefetching PBM must beat the synchronous baseline at high bandwidth \
         (sync {t_sync:.4}s vs prefetch {t_pf:.4}s)"
    );
}
