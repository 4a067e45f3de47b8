//! Updates vs. scans: total I/O and throughput as the update rate grows,
//! per buffer-management policy — with an exact engine == simulator parity
//! gate.
//!
//! The paper's central argument for retiring Cooperative Scans was the
//! interaction between buffer management and Vectorwise's differential
//! update infrastructure (PDTs, checkpoints). This figure measures that
//! interaction end to end: a read stream scans `lineitem` while an update
//! stream applies insert/delete/modify batches between queries and
//! periodically checkpoints the table — swapping the whole stable image and
//! invalidating the superseded pages from the buffer manager. Swept knobs:
//! update rate (operations per round) × policy (LRU / PBM / CScan).
//!
//! Two executors run the identical round schedule over the same update
//! barrier (`scanshare_exec::UpdateBarrier`: snapshot-isolated `Txn`
//! commits, background-safe checkpoints): the live engine (`WorkloadDriver`,
//! one session task per stream on the task scheduler) and the
//! discrete-event simulator (an engine of its own, stepped in virtual
//! time). Their I/O volumes must match **byte for
//! byte** at every swept point; any divergence fails the figure after the
//! JSON artifact is written. The `virtual_qps_*` metrics come from the
//! simulator's deterministic virtual clock and are gated by
//! `bench/baseline.json` through `bench_gate`.

use std::sync::Arc;

use scanshare_bench::json::Json;
use scanshare_bench::{bench_preset, write_bench_json};

use scanshare_common::{PolicyKind, ScanShareConfig};
use scanshare_exec::{Engine, WorkloadDriver};
use scanshare_sim::{SimConfig, Simulation};
use scanshare_storage::storage::Storage;
use scanshare_workload::microbench::{self, MicrobenchConfig};
use scanshare_workload::spec::{UpdateMix, UpdateStreamSpec, WorkloadSpec};

const PAGE: u64 = 64 * 1024;
const CHUNK: u64 = 10_000;

struct Preset {
    queries_per_stream: usize,
    lineitem_tuples: u64,
    rates: Vec<u64>,
}

fn preset_of(preset: &str) -> Preset {
    match preset {
        "smoke" => Preset {
            queries_per_stream: 4,
            lineitem_tuples: 60_000,
            rates: vec![0, 32, 128],
        },
        _ => Preset {
            queries_per_stream: 8,
            lineitem_tuples: 200_000,
            rates: vec![0, 64, 256, 1024],
        },
    }
}

/// Builds a fresh storage + mixed workload for one swept point. Mixed runs
/// mutate storage (checkpoints install snapshots), so the engine and the
/// simulator each get their own deterministically rebuilt instance.
fn build(preset: &Preset, rate: u64) -> (Arc<Storage>, WorkloadSpec) {
    let config = MicrobenchConfig {
        streams: 1,
        queries_per_stream: preset.queries_per_stream,
        lineitem_tuples: preset.lineitem_tuples,
        ..Default::default()
    };
    let (storage, workload) = microbench::build(&config, PAGE, CHUNK).expect("workload");
    let table = storage.table_ids()[0];
    let workload = workload.with_update_stream(UpdateStreamSpec {
        label: "updates".into(),
        table,
        ops_per_round: rate,
        mix: UpdateMix::mostly_modifies(),
        checkpoint_every: Some(2),
        seed: 0xf19,
    });
    (storage, workload)
}

fn scanshare_config(policy: PolicyKind, pool_bytes: u64) -> ScanShareConfig {
    ScanShareConfig {
        page_size_bytes: PAGE,
        chunk_tuples: CHUNK,
        buffer_pool_bytes: pool_bytes,
        policy,
        ..Default::default()
    }
}

fn sim_config(policy: PolicyKind, pool_bytes: u64) -> SimConfig {
    SimConfig {
        scanshare: scanshare_config(policy, pool_bytes),
        cores: 8,
        sharing_sample_interval: None,
    }
}

fn main() {
    let preset_name = bench_preset();
    let preset = preset_of(preset_name);

    // Pool under pressure: 40 % of the accessed volume, the paper's default
    // setting, probed on the read-only slice of the workload.
    let accessed = {
        let (storage, workload) = build(&preset, 0);
        Simulation::new(storage, sim_config(PolicyKind::Lru, 1 << 30))
            .expect("probe sim")
            .accessed_volume(&workload)
            .expect("accessed volume")
    };
    let pool = (accessed * 2 / 5).max(8 * PAGE);

    println!(
        "fig_updates: 1 read stream x {} queries, update stream (checkpoint every 2 rounds), \
         {:.1} MB accessed, pool {:.1} MB",
        preset.queries_per_stream,
        accessed as f64 / 1e6,
        pool as f64 / 1e6
    );
    println!(
        "{:<8} {:>10} {:>12} {:>12} {:>12} {:>10}",
        "policy", "ops/round", "engine MB", "sim MB", "virtual qps", "invalidated"
    );

    let mut metrics = Json::object();
    let mut parity_violations: Vec<String> = Vec::new();
    for policy in [PolicyKind::Lru, PolicyKind::Pbm, PolicyKind::CScan] {
        for &rate in &preset.rates {
            let (engine_storage, workload) = build(&preset, rate);
            let engine =
                Engine::new(engine_storage, scanshare_config(policy, pool)).expect("engine");
            let report = WorkloadDriver::new(engine)
                .run(&workload)
                .expect("driver run");
            assert!(
                report.stream_errors.is_empty(),
                "{policy} rate {rate}: stream errors {:?}",
                report.stream_errors
            );

            let (sim_storage, workload) = build(&preset, rate);
            let sim = Simulation::new(sim_storage, sim_config(policy, pool))
                .expect("sim")
                .run(&workload)
                .expect("sim run");

            let virtual_qps = report.queries as f64 / sim.makespan.as_secs_f64().max(1e-12);
            println!(
                "{:<8} {:>10} {:>12.2} {:>12.2} {:>12.2} {:>10}",
                policy.name(),
                rate,
                report.buffer.io_bytes as f64 / 1e6,
                sim.total_io_bytes as f64 / 1e6,
                virtual_qps,
                report.buffer.invalidated_pages,
            );
            // Collected here, asserted after the JSON artifact is written:
            // a failing figure must still upload its numbers.
            if report.buffer.io_bytes != sim.total_io_bytes {
                parity_violations.push(format!(
                    "{policy} rate {rate}: engine {} vs simulator {} bytes",
                    report.buffer.io_bytes, sim.total_io_bytes
                ));
            }
            if report.buffer.invalidated_pages != sim.buffer.invalidated_pages {
                parity_violations.push(format!(
                    "{policy} rate {rate}: engine invalidated {} vs simulator {} pages",
                    report.buffer.invalidated_pages, sim.buffer.invalidated_pages
                ));
            }
            metrics
                .set(
                    format!("io_mb_{}_rate{rate}", policy.name()),
                    sim.total_io_bytes as f64 / 1e6,
                )
                .set(
                    format!("virtual_qps_{}_rate{rate}", policy.name()),
                    virtual_qps,
                );
        }
    }

    let mut doc = Json::object();
    doc.set("figure", "fig_updates")
        .set("preset", preset_name)
        .set("metrics", metrics);
    write_bench_json("fig_updates", &doc);

    assert!(
        parity_violations.is_empty(),
        "engine and simulator disagreed on mixed read/write I/O:\n{}",
        parity_violations.join("\n")
    );
}
