//! Concurrent scans: the scenario the paper is about.
//!
//! Several "users" scan overlapping ranges of the same large table at the
//! same time. Under LRU they compete for the buffer pool; under PBM the pool
//! knows when each page will be needed next; under Cooperative Scans the
//! Active Buffer Manager hands chunks out of order to maximize reuse. This
//! example runs the same concurrent workload under every policy (plus the
//! OPT oracle) through the discrete-event simulator and prints the paper's
//! two metrics: average stream time and total I/O volume.
//!
//! Run with: `cargo run --release --example concurrent_scans`

use std::sync::Arc;

use scanshare::prelude::*;
use scanshare::sim::experiment::ALL_POLICIES;
use scanshare::workload::microbench;

fn main() {
    // The scan-sharing microbenchmark: 8 streams of Q1/Q6-style range scans
    // over lineitem, each covering 1-100% of the table at a random position.
    let micro = MicrobenchConfig {
        streams: 8,
        queries_per_stream: 16,
        lineitem_tuples: 1_000_000,
        ..Default::default()
    };
    let page_size = 128 * 1024;
    let chunk_tuples = 50_000;
    let (storage, workload) =
        microbench::build(&micro, page_size, chunk_tuples).expect("build workload");

    println!(
        "concurrent_scans — {} streams x {} queries",
        micro.streams, micro.queries_per_stream
    );

    // Buffer pool: 40% of the accessed data volume, 700 MB/s of bandwidth
    // (the defaults of the paper's microbenchmark section).
    let base = SimConfig {
        scanshare: ScanShareConfig {
            page_size_bytes: page_size,
            chunk_tuples,
            io_bandwidth: Bandwidth::from_mb_per_sec(700.0),
            ..Default::default()
        },
        cores: 8,
        sharing_sample_interval: None,
    };
    let probe = Simulation::new(Arc::clone(&storage), base.clone()).expect("sim");
    let accessed = probe.accessed_volume(&workload).expect("volume");
    println!(
        "accessed data volume: {:.1} MB, buffer pool: {:.1} MB (40%)\n",
        accessed as f64 / 1e6,
        accessed as f64 * 0.4 / 1e6
    );

    println!(
        "{:<8} {:>20} {:>18} {:>12}",
        "policy", "avg stream time [s]", "total I/O [GB]", "hit ratio"
    );
    for policy in ALL_POLICIES {
        let mut config = base.clone();
        config.scanshare.policy = policy;
        config.scanshare.buffer_pool_bytes = (accessed as f64 * 0.4) as u64;
        let sim = Simulation::new(Arc::clone(&storage), config).expect("sim");
        let result = sim.run(&workload).expect("run");
        println!(
            "{:<8} {:>20} {:>18.3} {:>12.2}",
            policy.name(),
            result
                .avg_stream_time_secs()
                .map(|t| format!("{t:.2}"))
                .unwrap_or_else(|| "(trace only)".into()),
            result.total_io_gb(),
            result.buffer.hit_ratio(),
        );
    }

    println!(
        "\nExpected shape (paper, Figure 11 at 40% pool): LRU does the most I/O;\n\
         PBM and Cooperative Scans are close to each other and to OPT."
    );

    // -----------------------------------------------------------------
    // The same comparison on the LIVE engine: the WorkloadDriver lowers an
    // identical multi-stream workload onto the page pool (PBM) and onto
    // the Active Buffer Manager (CScan) — one session task per stream,
    // wall-clock throughput.
    // -----------------------------------------------------------------
    let live_micro = MicrobenchConfig {
        streams: 8,
        queries_per_stream: 4,
        lineitem_tuples: 200_000,
        ..Default::default()
    };
    let live_page = 16 * 1024;
    let live_chunk = 10_000;
    let (live_storage, live_workload) =
        microbench::build(&live_micro, live_page, live_chunk).expect("build live workload");
    let live_accessed = Simulation::new(
        Arc::clone(&live_storage),
        SimConfig {
            scanshare: ScanShareConfig {
                page_size_bytes: live_page,
                chunk_tuples: live_chunk,
                ..Default::default()
            },
            cores: 8,
            sharing_sample_interval: None,
        },
    )
    .expect("probe")
    .accessed_volume(&live_workload)
    .expect("volume");

    println!(
        "\nlive engine — {} streams x {} queries through the WorkloadDriver:",
        live_micro.streams, live_micro.queries_per_stream
    );
    println!(
        "{:<8} {:>12} {:>12} {:>10} {:>12} {:>14}",
        "policy", "queries/s", "Mtuples/s", "p95 ms", "io MB", "stream errors"
    );
    let mut tuples = Vec::new();
    for policy in [PolicyKind::Pbm, PolicyKind::CScan] {
        let engine = Engine::new(
            Arc::clone(&live_storage),
            ScanShareConfig {
                page_size_bytes: live_page,
                chunk_tuples: live_chunk,
                buffer_pool_bytes: (live_accessed as f64 * 0.4) as u64,
                policy,
                ..Default::default()
            },
        )
        .expect("engine");
        let report = WorkloadDriver::new(engine)
            .run(&live_workload)
            .expect("driver run");
        println!(
            "{:<8} {:>12.1} {:>12.2} {:>10.2} {:>12.1} {:>14}",
            policy.name(),
            report.queries_per_sec(),
            report.tuples_per_sec() / 1e6,
            report.p95().map(|d| d.as_secs_f64() * 1e3).unwrap_or(0.0),
            report.buffer.io_megabytes(),
            report.stream_errors.len(),
        );
        assert!(
            report.stream_errors.is_empty(),
            "{}: {:?}",
            policy.name(),
            report.stream_errors
        );
        tuples.push(report.tuples);
    }
    assert_eq!(tuples[0], tuples[1], "both backends scan the same tuples");
    println!(
        "\nBoth backends run the identical specs: PBM through the page pool,\n\
         Cooperative Scans through the ABM with out-of-order chunk delivery."
    );
}
