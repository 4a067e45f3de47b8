//! Query-pipeline figure: plan shape × replacement policy.
//!
//! Sweeps three single-stream plan shapes — a plain projection scan, a
//! zone-map-prunable filtered scan, and a broadcast hash join (build side
//! scanned and hashed first, probe side streamed through the shared-scan
//! machinery) — across the full policy zoo: LRU, PBM, Cooperative Scans,
//! plus CLOCK and SIEVE resolved by name through the `PolicyRegistry`.
//!
//! Every swept point runs on both executors. The workload driver (real
//! engine, real buffer pool) must account **byte-identical** I/O to the
//! discrete-event simulator — collected as `parity_*` metrics (1.0 = equal)
//! and asserted after the JSON artifact is written. The simulator's virtual
//! stream times yield the deterministic `virtual_speedup_<shape>_<policy>`
//! metrics (time under LRU / time under the policy, > 1 means the policy
//! beats LRU) gated by `bench/baseline.json`, exact on any machine.

use std::sync::Arc;

use scanshare_bench::json::Json;
use scanshare_bench::{bench_preset, write_bench_json};

use scanshare_common::{PolicyKind, RangeList, ScanShareConfig, TableId, TupleRange};
use scanshare_exec::{Engine, WorkloadDriver};
use scanshare_sim::{SimConfig, SimResult, Simulation};
use scanshare_storage::datagen::DataGen;
use scanshare_storage::{ColumnSpec, ColumnType, Storage, TableSpec};
use scanshare_workload::spec::{JoinSpec, QuerySpec, ScanSpec, StreamSpec, WorkloadSpec};

const PAGE: u64 = 16 * 1024;
const CHUNK: u64 = 1_000;
const DIM_ROWS: u64 = 32;

struct Preset {
    tuples: u64,
    queries_per_shape: usize,
}

fn preset_of(preset: &str) -> Preset {
    match preset {
        "smoke" => Preset {
            tuples: 60_000,
            queries_per_shape: 4,
        },
        _ => Preset {
            tuples: 300_000,
            queries_per_shape: 6,
        },
    }
}

/// `fact` (projection columns f_key/f_cat/f_val/f_qty) plus a 32-row `dim`
/// whose key exactly covers f_cat's domain, so each probe row joins one
/// build row.
fn setup(tuples: u64) -> (Arc<Storage>, TableId, TableId) {
    let storage = Storage::with_seed(PAGE, CHUNK, 0x00f1_90e5);
    let fact = storage
        .create_table_with_data(
            TableSpec::new(
                "fact",
                vec![
                    ColumnSpec::new("f_key", ColumnType::Int64),
                    ColumnSpec::new("f_cat", ColumnType::Int64),
                    ColumnSpec::new("f_val", ColumnType::Int64),
                    ColumnSpec::new("f_qty", ColumnType::Int64),
                ],
                tuples,
            ),
            vec![
                DataGen::Sequential { start: 0, step: 1 },
                DataGen::Cyclic {
                    period: DIM_ROWS,
                    min: 0,
                    max: DIM_ROWS as i64 - 1,
                },
                DataGen::Uniform { min: -50, max: 50 },
                DataGen::Uniform { min: 1, max: 20 },
            ],
        )
        .expect("fact table");
    let dim = storage
        .create_table_with_data(
            TableSpec::new(
                "dim",
                vec![
                    ColumnSpec::new("d_key", ColumnType::Int64),
                    ColumnSpec::new("d_bonus", ColumnType::Int64),
                ],
                DIM_ROWS,
            ),
            vec![
                DataGen::Sequential { start: 0, step: 1 },
                DataGen::Sequential {
                    start: 100,
                    step: 10,
                },
            ],
        )
        .expect("dim table");
    (storage, fact, dim)
}

/// One single-stream workload per plan shape; single stream + parallelism 1
/// keeps the request sequence deterministic so engine/simulator parity can
/// be byte-exact (as in the other single-stream figures).
fn shape_workload(shape: &str, preset: &Preset, fact: TableId, dim: TableId) -> WorkloadSpec {
    use scanshare_storage::zone::{ZoneOp, ZonePredicate};
    let tuples = preset.tuples;
    let queries = (0..preset.queries_per_shape)
        .map(|i| {
            // Overlapping windows so scans share pages across queries.
            let start = (i as u64 * tuples / 8) % (tuples / 2);
            let end = (start + tuples / 2).min(tuples);
            let probe = ScanSpec {
                table: fact,
                columns: vec![0, 1, 2, 3],
                ranges: RangeList::from_ranges([TupleRange::new(start, end)]),
                predicate: (shape == "filter").then(|| {
                    // f_key is sequential: "< 10%" prunes ~90% of chunks.
                    ZonePredicate::new(0, ZoneOp::Lt, (tuples / 10) as i64)
                }),
            };
            QuerySpec {
                label: format!("{shape}{i}"),
                scans: if shape == "join" {
                    vec![
                        ScanSpec {
                            table: dim,
                            columns: vec![0, 1],
                            ranges: RangeList::single(0, DIM_ROWS),
                            predicate: None,
                        },
                        probe,
                    ]
                } else {
                    vec![probe]
                },
                cpu_factor: 1.0,
                join: (shape == "join").then_some(JoinSpec {
                    left_col: 1, // f_cat within the probe projection
                    right_col: 0,
                }),
            }
        })
        .collect();
    WorkloadSpec::read_only(
        format!("fig-queries-{shape}"),
        vec![StreamSpec {
            label: "s0".into(),
            queries,
        }],
    )
}

/// The policy zoo: built-in kinds plus clock/sieve via the registry.
fn policies() -> Vec<(&'static str, ScanShareConfig)> {
    let base = ScanShareConfig {
        page_size_bytes: PAGE,
        chunk_tuples: CHUNK,
        ..Default::default()
    };
    vec![
        (
            "lru",
            ScanShareConfig {
                policy: PolicyKind::Lru,
                ..base.clone()
            },
        ),
        (
            "pbm",
            ScanShareConfig {
                policy: PolicyKind::Pbm,
                ..base.clone()
            },
        ),
        (
            "cscan",
            ScanShareConfig {
                policy: PolicyKind::CScan,
                ..base.clone()
            },
        ),
        ("clock", base.clone().with_custom_policy("clock")),
        ("sieve", base.with_custom_policy("sieve")),
    ]
}

fn run_sim(storage: &Arc<Storage>, workload: &WorkloadSpec, config: ScanShareConfig) -> SimResult {
    Simulation::new(
        Arc::clone(storage),
        SimConfig {
            scanshare: config,
            cores: 4,
            sharing_sample_interval: None,
        },
    )
    .expect("sim")
    .run(workload)
    .expect("sim run")
}

fn main() {
    let preset_name = bench_preset();
    let preset = preset_of(preset_name);
    let (storage, fact, dim) = setup(preset.tuples);

    // Pool under pressure: 40% of the plain-scan accessed volume, so
    // replacement decisions actually differentiate the policies.
    let accessed = {
        let workload = shape_workload("scan", &preset, fact, dim);
        Simulation::new(
            Arc::clone(&storage),
            SimConfig {
                scanshare: ScanShareConfig {
                    page_size_bytes: PAGE,
                    chunk_tuples: CHUNK,
                    buffer_pool_bytes: 1 << 30,
                    ..Default::default()
                },
                cores: 4,
                sharing_sample_interval: None,
            },
        )
        .expect("probe sim")
        .accessed_volume(&workload)
        .expect("accessed volume")
    };
    let pool = (accessed * 2 / 5).max(8 * PAGE);

    println!(
        "fig_queries: {} tuples, {} queries per shape, {:.1} MB accessed, pool {:.1} MB",
        preset.tuples,
        preset.queries_per_shape,
        accessed as f64 / 1e6,
        pool as f64 / 1e6
    );
    println!(
        "{:<8} {:<8} {:>10} {:>12} {:>10} {:>10}",
        "shape", "policy", "sim MB", "engine MB", "v-time s", "speedup"
    );

    let mut metrics = Json::object();
    let mut violations: Vec<String> = Vec::new();
    for shape in ["scan", "filter", "join"] {
        let workload = shape_workload(shape, &preset, fact, dim);
        let mut lru_time = None;
        for (name, config) in policies() {
            let config = ScanShareConfig {
                buffer_pool_bytes: pool,
                ..config
            };
            let sim = run_sim(&storage, &workload, config.clone());
            let engine = Engine::new(Arc::clone(&storage), config).expect("engine");
            let report = WorkloadDriver::new(engine).run(&workload).expect("driver");
            if !report.stream_errors.is_empty() {
                violations.push(format!(
                    "{shape}/{name}: stream errors {:?}",
                    report.stream_errors
                ));
            }
            let parity = if report.buffer.io_bytes == sim.total_io_bytes {
                1.0
            } else {
                violations.push(format!(
                    "{shape}/{name}: engine {} vs simulator {} bytes",
                    report.buffer.io_bytes, sim.total_io_bytes
                ));
                0.0
            };
            let vtime = sim.avg_stream_time_secs().expect("stream time");
            let speedup = match lru_time {
                None => {
                    lru_time = Some(vtime);
                    1.0
                }
                Some(lru) => lru / vtime,
            };
            println!(
                "{:<8} {:<8} {:>10.2} {:>12.2} {:>10.4} {:>10.3}",
                shape,
                name,
                sim.total_io_bytes as f64 / 1e6,
                report.buffer.io_bytes as f64 / 1e6,
                vtime,
                speedup,
            );
            metrics
                .set(
                    format!("io_mb_{shape}_{name}"),
                    sim.total_io_bytes as f64 / 1e6,
                )
                .set(format!("parity_{shape}_{name}"), parity)
                .set(format!("virtual_speedup_{shape}_{name}"), speedup);
        }
    }

    let mut doc = Json::object();
    doc.set("figure", "fig_queries")
        .set("preset", preset_name)
        .set("metrics", metrics);
    write_bench_json("fig_queries", &doc);

    assert!(
        violations.is_empty(),
        "engine and simulator disagreed on query-pipeline workloads:\n{}",
        violations.join("\n")
    );
}
