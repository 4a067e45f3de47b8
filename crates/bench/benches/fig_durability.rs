//! Durability: commit throughput under the write-ahead log as the group
//! commit size and update rate grow — with a crash/recovery parity gate.
//!
//! The WAL turns every commit into an append + fsync; group commit batches
//! the fsyncs so one durable write amortizes over up to `group` commits, at
//! the cost of losing up to `group - 1` trailing commits in a crash. This
//! figure sweeps group commit size × update rate over the mixed
//! read/write microbenchmark running against a **durable** engine (real
//! on-disk segments, WAL appends on every commit, checkpoints installing
//! versioned images), and reports the committed-update throughput.
//!
//! After every swept point the engine is dropped — a simulated crash — and
//! `Engine::recover` rebuilds it cold from the directory. Two parity gates
//! run on the recovered state, collected first and asserted only after the
//! JSON artifact is written:
//!
//! 1. **recovery parity** — the recovered table must match the pre-crash
//!    committed rows cell for cell (`recovery_parity` = 1.0 is gated by
//!    `bench/baseline.json`, so a silent recovery regression fails CI);
//! 2. **engine == simulator bytes** — after a checkpoint folds the replayed
//!    deltas into a durable image, a read-only workload on a freshly
//!    recovered engine must move byte-for-byte the I/O volume the
//!    discrete-event simulator predicts for the reopened storage.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use scanshare_bench::json::Json;
use scanshare_bench::{bench_preset, write_bench_json};

use scanshare_common::{PolicyKind, ScanShareConfig, TableId};
use scanshare_exec::{Engine, WorkloadDriver};
use scanshare_sim::{SimConfig, Simulation};
use scanshare_storage::storage::Storage;
use scanshare_storage::wal::Wal;
use scanshare_workload::microbench::{self, MicrobenchConfig};
use scanshare_workload::spec::{UpdateMix, UpdateStreamSpec, WorkloadSpec};

const PAGE: u64 = 64 * 1024;
const CHUNK: u64 = 10_000;

struct Preset {
    queries_per_stream: usize,
    lineitem_tuples: u64,
    groups: Vec<usize>,
    rates: Vec<u64>,
}

fn preset_of(preset: &str) -> Preset {
    match preset {
        "smoke" => Preset {
            queries_per_stream: 3,
            lineitem_tuples: 60_000,
            groups: vec![1, 8],
            rates: vec![32, 128],
        },
        _ => Preset {
            queries_per_stream: 6,
            lineitem_tuples: 120_000,
            groups: vec![1, 4, 16],
            rates: vec![32, 128, 512],
        },
    }
}

/// Scratch durability directory for one swept point, removed on drop.
struct BenchDir(PathBuf);

impl BenchDir {
    fn new(tag: &str) -> Self {
        use std::sync::atomic::{AtomicU32, Ordering};
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "scanshare-fig-durability-{tag}-{}-{seq}",
            std::process::id()
        ));
        std::fs::create_dir_all(&path).expect("bench dir");
        Self(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for BenchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Mixed read/write workload over a fresh deterministic lineitem table.
fn build(preset: &Preset, rate: u64) -> (Arc<Storage>, TableId, WorkloadSpec) {
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
        seed: 0xd0b,
    });
    (storage, table, workload)
}

/// The read-only slice of the same workload, for the post-recovery
/// engine == simulator comparison.
fn read_only(preset: &Preset) -> WorkloadSpec {
    let config = MicrobenchConfig {
        streams: 1,
        queries_per_stream: preset.queries_per_stream,
        lineitem_tuples: preset.lineitem_tuples,
        ..Default::default()
    };
    let (_, workload) = microbench::build(&config, PAGE, CHUNK).expect("workload");
    workload
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

/// Every committed cell of `table`, in row order — the value recovery must
/// reproduce exactly.
fn table_rows(engine: &Arc<Engine>, table: TableId) -> Vec<Vec<i64>> {
    engine
        .query(table)
        .columns(["l_quantity", "l_extendedprice", "l_shipdate"])
        .range(..)
        .in_order()
        .rows()
        .expect("table rows")
}

fn main() {
    let preset_name = bench_preset();
    let preset = preset_of(preset_name);

    // Pool under pressure, probed on the read-only slice like fig_updates.
    let accessed = {
        let (storage, _, _) = build(&preset, 0);
        Simulation::new(storage, sim_config(PolicyKind::Lru, 1 << 30))
            .expect("probe sim")
            .accessed_volume(&read_only(&preset))
            .expect("accessed volume")
    };
    let pool = (accessed * 2 / 5).max(8 * PAGE);

    println!(
        "fig_durability: 1 read stream x {} queries + update stream (checkpoint every 2 rounds), \
         durable engine (WAL + on-disk segments), pool {:.1} MB",
        preset.queries_per_stream,
        pool as f64 / 1e6
    );
    println!(
        "{:>6} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "group", "ops/round", "commits/s", "engine qps", "wal MB", "parity"
    );

    let mut metrics = Json::object();
    let mut violations: Vec<String> = Vec::new();
    for &group in &preset.groups {
        for &rate in &preset.rates {
            let dir = BenchDir::new(&format!("g{group}-r{rate}"));
            let (storage, table, workload) = build(&preset, rate);
            let engine = Engine::new(
                storage,
                scanshare_config(PolicyKind::Pbm, pool)
                    .with_wal_dir(dir.path())
                    .with_wal_group_commit(group),
            )
            .expect("durable engine");
            let report = WorkloadDriver::new(engine.clone())
                .run(&workload)
                .expect("driver run");
            assert!(
                report.stream_errors.is_empty(),
                "group {group} rate {rate}: stream errors {:?}",
                report.stream_errors
            );
            let committed = table_rows(&engine, table);
            let ops_per_sec = report.update_ops as f64 / report.wall.as_secs_f64().max(1e-12);
            // The records' frames (header, kind byte, body; not a rotation's
            // 17-byte marker), not the file's length, which runs on in zeros.
            let wal_mb = Wal::read_records(dir.path()).map_or(0.0, |records| {
                records.iter().map(|r| 9 + r.body.len()).sum::<usize>() as f64 / 1e6
            });
            drop(engine); // "crash"

            // Gate 1: cold recovery reproduces the committed state exactly.
            let recovered = Engine::recover(dir.path(), scanshare_config(PolicyKind::Pbm, pool))
                .expect("recover");
            let parity = if table_rows(&recovered, table) == committed {
                1.0
            } else {
                violations.push(format!(
                    "group {group} rate {rate}: recovered rows differ from committed rows"
                ));
                0.0
            };

            // Gate 2: checkpoint the replayed deltas into a durable image,
            // then a read-only run on a freshly recovered engine must match
            // the simulator on the reopened storage byte for byte.
            if group == preset.groups[0] && rate == *preset.rates.last().expect("rates") {
                recovered.checkpoint(table).expect("fold replayed deltas");
                drop(recovered);
                let fresh = Engine::recover(dir.path(), scanshare_config(PolicyKind::Pbm, pool))
                    .expect("recover checkpointed");
                let read_report = WorkloadDriver::new(fresh)
                    .run(&read_only(&preset))
                    .expect("read-only run");
                let sim_storage = Storage::open_directory(dir.path()).expect("reopen for sim");
                let sim = Simulation::new(sim_storage, sim_config(PolicyKind::Pbm, pool))
                    .expect("sim")
                    .run(&read_only(&preset))
                    .expect("sim run");
                if read_report.buffer.io_bytes != sim.total_io_bytes {
                    violations.push(format!(
                        "post-recovery read-only: engine {} vs simulator {} bytes",
                        read_report.buffer.io_bytes, sim.total_io_bytes
                    ));
                }
            }

            println!(
                "{:>6} {:>10} {:>12.0} {:>12.1} {:>12.2} {:>12.1}",
                group,
                rate,
                ops_per_sec,
                report.queries_per_sec(),
                wal_mb,
                parity
            );
            metrics
                .set(
                    format!("commit_ops_per_sec_g{group}_rate{rate}"),
                    ops_per_sec,
                )
                .set(format!("recovery_parity_g{group}_rate{rate}"), parity)
                .set(format!("wal_mb_g{group}_rate{rate}"), wal_mb);
        }
    }

    let mut doc = Json::object();
    doc.set("figure", "fig_durability")
        .set("preset", preset_name)
        .set("metrics", metrics);
    write_bench_json("fig_durability", &doc);

    assert!(
        violations.is_empty(),
        "crash recovery diverged from the committed state:\n{}",
        violations.join("\n")
    );
}
