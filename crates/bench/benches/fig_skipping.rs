//! Zone-map data skipping: demand I/O versus predicate selectivity, per
//! buffer-management policy, with the skipping-disabled baseline and an
//! exact engine == simulator parity gate.
//!
//! The skipping workload scans a clustered `events` table filtered by
//! `ev_key < selectivity * tuples`: with zone maps enabled both executors
//! prune every chunk whose `[min, max]` refutes the predicate before the
//! buffer manager ever sees it — so cooperative-scan relevance accounting
//! and PBM consumption predictions only consider the chunks a query will
//! actually read. Swept knobs: selectivity (100 % / 10 % / 1 %) × policy
//! (LRU / PBM / CScan), each point simulated with zone maps on and off.
//!
//! The single read stream runs on the live engine too (`WorkloadDriver`):
//! its I/O volume and skipped-tuple count must match the simulator **byte
//! for byte** at every swept point, and at 1 % selectivity the pruned run
//! must move at least 10x fewer bytes than the skipping-off baseline; both
//! are asserted after the JSON artifact is written. The deterministic
//! `io_skip_ratio_*` metrics are gated by `bench/baseline.json` through
//! `bench_gate`.

use scanshare_bench::json::Json;
use scanshare_bench::{bench_preset, write_bench_json};

use scanshare_common::{PolicyKind, ScanShareConfig};
use scanshare_exec::{Engine, WorkloadDriver};
use scanshare_sim::{SimConfig, SimResult, Simulation};
use scanshare_workload::skipping::{self, SkippingConfig};

const PAGE: u64 = 16 * 1024;
const CHUNK: u64 = 1_000;

struct Preset {
    queries_per_stream: usize,
    tuples: u64,
    selectivities: Vec<f64>,
}

fn preset_of(preset: &str) -> Preset {
    match preset {
        "smoke" => Preset {
            queries_per_stream: 3,
            tuples: 100_000,
            selectivities: vec![1.0, 0.10, 0.01],
        },
        _ => Preset {
            queries_per_stream: 4,
            tuples: 500_000,
            selectivities: vec![1.0, 0.10, 0.01],
        },
    }
}

/// One swept point: a single stream (so the engine's page-request sequence
/// is deterministic and the parity gate can demand byte equality, as in the
/// other single-stream figures) at one fixed selectivity.
fn skip_config(preset: &Preset, selectivity: f64) -> SkippingConfig {
    SkippingConfig {
        streams: 1,
        queries_per_stream: preset.queries_per_stream,
        tuples: preset.tuples,
        value_span: 10_000,
        seed: 0x51a9,
        ..SkippingConfig::default()
    }
    .with_selectivity(selectivity)
}

fn scanshare_config(policy: PolicyKind, pool_bytes: u64, zone_maps: bool) -> ScanShareConfig {
    ScanShareConfig {
        page_size_bytes: PAGE,
        chunk_tuples: CHUNK,
        buffer_pool_bytes: pool_bytes,
        policy,
        zone_maps,
        ..Default::default()
    }
}

fn run_sim(
    config: &SkippingConfig,
    policy: PolicyKind,
    pool_bytes: u64,
    zone_maps: bool,
) -> SimResult {
    let (storage, workload) = skipping::build(config, PAGE, CHUNK).expect("workload");
    Simulation::new(
        storage,
        SimConfig {
            scanshare: scanshare_config(policy, pool_bytes, zone_maps),
            cores: 8,
            sharing_sample_interval: None,
        },
    )
    .expect("sim")
    .run(&workload)
    .expect("sim run")
}

fn main() {
    let preset_name = bench_preset();
    let preset = preset_of(preset_name);

    // Pool under pressure: 40 % of the unpruned accessed volume, so the
    // skipping-off baseline actually churns while a pruned probe fits.
    let accessed = {
        let config = skip_config(&preset, 1.0);
        let (storage, workload) = skipping::build(&config, PAGE, CHUNK).expect("workload");
        Simulation::new(
            storage,
            SimConfig {
                scanshare: scanshare_config(PolicyKind::Lru, 1 << 30, false),
                cores: 8,
                sharing_sample_interval: None,
            },
        )
        .expect("probe sim")
        .accessed_volume(&workload)
        .expect("accessed volume")
    };
    let pool = (accessed * 2 / 5).max(8 * PAGE);

    println!(
        "fig_skipping: 1 stream x {} predicated scans of {} tuples, \
         {:.1} MB accessed, pool {:.1} MB",
        preset.queries_per_stream,
        preset.tuples,
        accessed as f64 / 1e6,
        pool as f64 / 1e6
    );
    println!(
        "{:<8} {:>6} {:>12} {:>12} {:>8} {:>14} {:>14}",
        "policy", "sel%", "skip MB", "noskip MB", "ratio", "engine MB", "pruned tuples"
    );

    let mut metrics = Json::object();
    let mut violations: Vec<String> = Vec::new();
    for policy in [PolicyKind::Lru, PolicyKind::Pbm, PolicyKind::CScan] {
        for &selectivity in &preset.selectivities {
            let config = skip_config(&preset, selectivity);
            let on = run_sim(&config, policy, pool, true);
            let off = run_sim(&config, policy, pool, false);

            let (engine_storage, workload) =
                skipping::build(&config, PAGE, CHUNK).expect("workload");
            let engine =
                Engine::new(engine_storage, scanshare_config(policy, pool, true)).expect("engine");
            let report = WorkloadDriver::new(engine)
                .run(&workload)
                .expect("driver run");
            assert!(
                report.stream_errors.is_empty(),
                "{policy} sel {selectivity}: stream errors {:?}",
                report.stream_errors
            );

            let sel_pct = (selectivity * 100.0).round() as u64;
            let ratio = off.total_io_bytes as f64 / (on.total_io_bytes as f64).max(1.0);
            println!(
                "{:<8} {:>6} {:>12.2} {:>12.2} {:>8.1} {:>14.2} {:>14}",
                policy.name(),
                sel_pct,
                on.total_io_bytes as f64 / 1e6,
                off.total_io_bytes as f64 / 1e6,
                ratio,
                report.buffer.io_bytes as f64 / 1e6,
                on.buffer.pruned_tuples,
            );
            // Collected here, asserted after the JSON artifact is written:
            // a failing figure must still upload its numbers.
            if report.buffer.io_bytes != on.total_io_bytes {
                violations.push(format!(
                    "{policy} sel {selectivity}: engine {} vs simulator {} bytes",
                    report.buffer.io_bytes, on.total_io_bytes
                ));
            }
            if report.buffer.pruned_tuples != on.buffer.pruned_tuples {
                violations.push(format!(
                    "{policy} sel {selectivity}: engine pruned {} vs simulator {} tuples",
                    report.buffer.pruned_tuples, on.buffer.pruned_tuples
                ));
            }
            if selectivity < 1.0 && on.buffer.pruned_tuples == 0 {
                violations.push(format!("{policy} sel {selectivity}: nothing was pruned"));
            }
            metrics
                .set(
                    format!("io_mb_skip_{}_sel{sel_pct}", policy.name()),
                    on.total_io_bytes as f64 / 1e6,
                )
                .set(
                    format!("io_mb_noskip_{}_sel{sel_pct}", policy.name()),
                    off.total_io_bytes as f64 / 1e6,
                )
                .set(
                    format!("io_skip_ratio_{}_sel{sel_pct}", policy.name()),
                    ratio,
                );
        }
    }

    let mut doc = Json::object();
    doc.set("figure", "fig_skipping")
        .set("preset", preset_name)
        .set("metrics", metrics);
    write_bench_json("fig_skipping", &doc);

    assert!(
        violations.is_empty(),
        "engine and simulator disagreed under zone-map skipping:\n{}",
        violations.join("\n")
    );
    // The headline acceptance bar: at 1 % selectivity, pruning cuts the
    // I/O moved by at least an order of magnitude under every policy.
    for policy in [PolicyKind::Lru, PolicyKind::Pbm, PolicyKind::CScan] {
        let config = skip_config(&preset, 0.01);
        let on = run_sim(&config, policy, pool, true);
        let off = run_sim(&config, policy, pool, false);
        assert!(
            on.total_io_bytes * 10 <= off.total_io_bytes,
            "{policy}: skipping saved less than 10x at 1% selectivity \
             ({} vs {} bytes)",
            on.total_io_bytes,
            off.total_io_bytes
        );
    }
}
