//! Randomized differential testing of the vectorized query pipelines: a
//! naive row-at-a-time reference executor, computed from raw `Storage`
//! values, must agree **byte for byte** with the engine's operators —
//! filters × multi-key group-by (one key through both the single-key and
//! the multi-key API) × top-k × broadcast hash join — under every
//! replacement policy (including CLOCK and SIEVE via the registry), across
//! parallelism degrees, over many seeds.
//!
//! The reference executor shares no code with the engine's batch pipeline:
//! it reads column values through `Storage::read_range`, zips them into
//! rows, and evaluates each plan with plain loops and sorts. Agreement is
//! meaningful because the engine's grouped results are ordered maps and its
//! top-k uses a total order, so results are functions of the row multiset —
//! the out-of-order delivery of Cooperative Scans cannot change them.
//!
//! A second test runs randomized scan/join workloads through both the
//! workload driver (real engine) and the discrete-event simulator and
//! asserts they account the identical I/O volume.

mod pool_harness;

use std::collections::BTreeMap;
use std::sync::Arc;

use pool_harness::Rng;
use scanshare::exec::ops::{GroupState, SortOrder};
use scanshare::prelude::*;
use scanshare::storage::datagen::Value;
use scanshare::storage::zone::{ZoneOp, ZonePredicate};
use scanshare::workload::spec::{JoinSpec, QuerySpec, ScanSpec, StreamSpec};

const PAGE: u64 = 4096;
const CHUNK: u64 = 512;
const FACT_ROWS: u64 = 12_000;
const DIM_ROWS: u64 = 7;

const FACT_COLUMNS: [&str; 4] = ["f_key", "f_cat", "f_val", "f_qty"];
const DIM_EXTRAS: [&str; 2] = ["d_bonus", "d_rank"];

/// `fact` (12k rows) and a 7-row `dim` whose key column exactly covers
/// `f_cat`'s 0..=6 domain, so every probe row has exactly one join match.
fn setup(seed: u64) -> (Arc<Storage>, TableId, TableId) {
    let storage = Storage::with_seed(PAGE, CHUNK, 0xd1ff + seed);
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
                FACT_ROWS,
            ),
            vec![
                DataGen::Sequential { start: 0, step: 1 },
                DataGen::Cyclic {
                    period: 7,
                    min: 0,
                    max: 6,
                },
                DataGen::Uniform { min: -50, max: 50 },
                DataGen::Uniform { min: 1, max: 20 },
            ],
        )
        .unwrap();
    let dim = storage
        .create_table_with_data(
            TableSpec::new(
                "dim",
                vec![
                    ColumnSpec::new("d_key", ColumnType::Int64),
                    ColumnSpec::new("d_bonus", ColumnType::Int64),
                    ColumnSpec::new("d_rank", ColumnType::Int64),
                ],
                DIM_ROWS,
            ),
            vec![
                DataGen::Sequential { start: 0, step: 1 },
                DataGen::Sequential {
                    start: 100,
                    step: 10,
                },
                DataGen::Uniform { min: 0, max: 5 },
            ],
        )
        .unwrap();
    (storage, fact, dim)
}

// ---------------------------------------------------------------------------
// Random plans
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Shape {
    /// `.run()`: optional single-column group-by plus aggregates.
    Agg {
        group_by: Option<usize>,
        aggregates: Vec<Aggregate>,
    },
    /// `.group_by(&keys)` + `.run_grouped()`.
    Grouped {
        keys: Vec<usize>,
        aggregates: Vec<Aggregate>,
    },
    /// One key both ways: `.group_by(&[key]).run_grouped()` must equal
    /// `.aggregate(AggrSpec::grouped(key, ..)).run()` key for key
    /// (`vec![key]` vs `key`), at parallelism 1 and 4.
    SingleKey {
        key: usize,
        aggregates: Vec<Aggregate>,
    },
    /// `.top_k(column, k, order)` + `.rows()`.
    TopK {
        column: usize,
        k: usize,
        order: SortOrder,
    },
}

#[derive(Debug, Clone)]
struct Plan {
    start: u64,
    end: u64,
    filter: Option<Predicate>,
    /// Build-side extra columns; `None` means no join.
    join: Option<Vec<&'static str>>,
    shape: Shape,
    parallelism: usize,
}

fn random_aggregates(rng: &mut Rng, width: usize, n: usize) -> Vec<Aggregate> {
    (0..n)
        .map(|_| {
            let col = rng.below(width as u64) as usize;
            match rng.below(4) {
                0 => Aggregate::Count,
                1 => Aggregate::Sum(col),
                2 => Aggregate::Min(col),
                _ => Aggregate::Max(col),
            }
        })
        .collect()
}

fn random_plan(rng: &mut Rng) -> Plan {
    let start = rng.below(FACT_ROWS);
    let end = (start + 1 + rng.below(FACT_ROWS - start)).min(FACT_ROWS);
    let join = match rng.below(5) {
        0 | 1 => Some(match rng.below(3) {
            0 => vec![],
            1 => vec![DIM_EXTRAS[rng.below(2) as usize]],
            _ => vec!["d_bonus", "d_rank"],
        }),
        _ => None,
    };
    let width = match &join {
        Some(extras) => FACT_COLUMNS.len() + 1 + extras.len(),
        None => FACT_COLUMNS.len(),
    };
    // Filters refer to the probe projection (pre-join), so the column is
    // always one of the four fact columns.
    let filter = (rng.below(2) == 0).then(|| {
        let column = rng.below(FACT_COLUMNS.len() as u64) as usize;
        let op = match rng.below(5) {
            0 => CompareOp::Lt,
            1 => CompareOp::Le,
            2 => CompareOp::Gt,
            3 => CompareOp::Ge,
            _ => CompareOp::Eq,
        };
        let value = rng.below(121) as Value - 60;
        Predicate::new(column, op, value)
    });
    let shape = match rng.below(5) {
        0 => {
            let n = 1 + rng.below(3) as usize;
            Shape::Agg {
                group_by: None,
                aggregates: random_aggregates(rng, width, n),
            }
        }
        1 => {
            let group_by = Some(rng.below(width as u64) as usize);
            let n = 1 + rng.below(2) as usize;
            Shape::Agg {
                group_by,
                aggregates: random_aggregates(rng, width, n),
            }
        }
        2 => {
            let mut keys = vec![rng.below(width as u64) as usize];
            if rng.below(2) == 0 {
                let second = rng.below(width as u64) as usize;
                if !keys.contains(&second) {
                    keys.push(second);
                }
            }
            let n = 1 + rng.below(2) as usize;
            Shape::Grouped {
                keys,
                aggregates: random_aggregates(rng, width, n),
            }
        }
        3 => {
            let key = rng.below(width as u64) as usize;
            let n = 1 + rng.below(2) as usize;
            Shape::SingleKey {
                key,
                aggregates: random_aggregates(rng, width, n),
            }
        }
        _ => Shape::TopK {
            column: rng.below(width as u64) as usize,
            k: 1 + rng.below(12) as usize,
            order: if rng.below(2) == 0 {
                SortOrder::Asc
            } else {
                SortOrder::Desc
            },
        },
    };
    Plan {
        start,
        end,
        filter,
        join,
        shape,
        parallelism: 1 + rng.below(3) as usize,
    }
}

// ---------------------------------------------------------------------------
// The naive reference executor
// ---------------------------------------------------------------------------

/// Reads `columns` of `table` row-at-a-time from raw storage values.
fn raw_rows(
    storage: &Arc<Storage>,
    table: TableId,
    columns: &[&str],
    range: TupleRange,
) -> Vec<Vec<Value>> {
    let layout = storage.layout(table).unwrap();
    let snapshot = storage.master_snapshot(table).unwrap();
    let indices = storage.resolve_columns(table, columns).unwrap();
    let cols: Vec<Vec<Value>> = indices
        .iter()
        .map(|&c| storage.read_range(&layout, &snapshot, c, range).unwrap())
        .collect();
    (0..cols[0].len())
        .map(|row| cols.iter().map(|col| col[row]).collect())
        .collect()
}

fn reference_rows(
    storage: &Arc<Storage>,
    fact: TableId,
    dim: TableId,
    plan: &Plan,
) -> Vec<Vec<Value>> {
    let mut rows = raw_rows(
        storage,
        fact,
        &FACT_COLUMNS,
        TupleRange::new(plan.start, plan.end),
    );
    if let Some(pred) = &plan.filter {
        rows.retain(|row| pred.matches(row[pred.column]));
    }
    if let Some(extras) = &plan.join {
        let mut build_cols = vec!["d_key"];
        build_cols.extend(extras.iter().copied());
        let build = raw_rows(storage, dim, &build_cols, TupleRange::new(0, DIM_ROWS));
        let table: BTreeMap<Value, Vec<Vec<Value>>> = {
            let mut map: BTreeMap<Value, Vec<Vec<Value>>> = BTreeMap::new();
            for row in build {
                map.entry(row[0]).or_default().push(row);
            }
            map
        };
        rows = rows
            .into_iter()
            .flat_map(|probe| {
                table
                    .get(&probe[1]) // f_cat is the join key
                    .into_iter()
                    .flatten()
                    .map(move |build| {
                        let mut joined = probe.clone();
                        joined.extend(build.iter().copied());
                        joined
                    })
            })
            .collect();
    }
    rows
}

fn fold_reference(rows: &[Vec<Value>], aggregates: &[Aggregate], into: &mut GroupState) {
    for row in rows {
        into.count += 1;
        for (acc, agg) in into.accumulators.iter_mut().zip(aggregates) {
            match agg {
                Aggregate::Count => *acc += 1,
                Aggregate::Sum(c) => *acc = acc.wrapping_add(row[*c]),
                Aggregate::Min(c) => *acc = (*acc).min(row[*c]),
                Aggregate::Max(c) => *acc = (*acc).max(row[*c]),
            }
        }
    }
}

fn empty_state(aggregates: &[Aggregate]) -> GroupState {
    GroupState {
        count: 0,
        accumulators: aggregates
            .iter()
            .map(|a| match a {
                Aggregate::Count | Aggregate::Sum(_) => 0,
                Aggregate::Min(_) => Value::MAX,
                Aggregate::Max(_) => Value::MIN,
            })
            .collect(),
    }
}

/// Runs `plan` against the engine and the reference and asserts byte
/// equality of the result (context goes into the panic message).
fn assert_plan_matches(
    engine: &Arc<Engine>,
    storage: &Arc<Storage>,
    fact: TableId,
    dim: TableId,
    plan: &Plan,
    context: &str,
) {
    let mut query = engine
        .query(fact)
        .columns(FACT_COLUMNS)
        .range(plan.start..plan.end)
        .parallelism(plan.parallelism);
    if let Some(pred) = &plan.filter {
        query = query.filter(*pred);
    }
    if let Some(extras) = &plan.join {
        query = query
            .join(dim, 1, "d_key")
            .join_columns(extras.iter().copied());
    }
    let rows = reference_rows(storage, fact, dim, plan);
    match &plan.shape {
        Shape::Agg {
            group_by,
            aggregates,
        } => {
            let got = query
                .aggregate(AggrSpec {
                    group_by: *group_by,
                    aggregates: aggregates.clone(),
                })
                .run()
                .unwrap();
            let mut expected: BTreeMap<Value, GroupState> = BTreeMap::new();
            for row in &rows {
                let key = group_by.map(|c| row[c]).unwrap_or(0);
                let entry = expected
                    .entry(key)
                    .or_insert_with(|| empty_state(aggregates));
                fold_reference(std::slice::from_ref(row), aggregates, entry);
            }
            assert_eq!(got, expected, "{context}: aggregate diverged for {plan:?}");
        }
        Shape::Grouped { keys, aggregates } => {
            let got = query
                .group_by(keys)
                .aggregate(AggrSpec::global(aggregates.clone()))
                .run_grouped()
                .unwrap();
            let mut expected: BTreeMap<Vec<Value>, GroupState> = BTreeMap::new();
            for row in &rows {
                let key: Vec<Value> = keys.iter().map(|&c| row[c]).collect();
                let entry = expected
                    .entry(key)
                    .or_insert_with(|| empty_state(aggregates));
                fold_reference(std::slice::from_ref(row), aggregates, entry);
            }
            assert_eq!(got, expected, "{context}: group-by diverged for {plan:?}");
        }
        Shape::SingleKey { key, aggregates } => {
            let mut expected: BTreeMap<Vec<Value>, GroupState> = BTreeMap::new();
            for row in &rows {
                let entry = expected
                    .entry(vec![row[*key]])
                    .or_insert_with(|| empty_state(aggregates));
                fold_reference(std::slice::from_ref(row), aggregates, entry);
            }
            for parallelism in [1, 4] {
                let query = query.clone().parallelism(parallelism);
                let multi = query
                    .clone()
                    .group_by(&[*key])
                    .aggregate(AggrSpec::global(aggregates.clone()))
                    .run_grouped()
                    .unwrap();
                let single: BTreeMap<Vec<Value>, GroupState> = query
                    .aggregate(AggrSpec::grouped(*key, aggregates.clone()))
                    .run()
                    .unwrap()
                    .into_iter()
                    .map(|(key, state)| (vec![key], state))
                    .collect();
                let context = format!("{context} parallelism {parallelism}");
                assert_eq!(multi, single, "{context}: one key diverged for {plan:?}");
                assert_eq!(multi, expected, "{context}: one key diverged for {plan:?}");
            }
        }
        Shape::TopK { column, k, order } => {
            let got = query.top_k(*column, *k, *order).rows().unwrap();
            let mut expected = rows;
            expected.sort_unstable_by(|a, b| {
                let primary = match order {
                    SortOrder::Asc => a[*column].cmp(&b[*column]),
                    SortOrder::Desc => b[*column].cmp(&a[*column]),
                };
                primary.then_with(|| a.cmp(b))
            });
            expected.truncate(*k);
            assert_eq!(got, expected, "{context}: top-k diverged for {plan:?}");
        }
    }
}

/// The five policies of the zoo as engine configurations; `clock` and
/// `sieve` resolve through the `PolicyRegistry` by name.
fn policy_configs() -> Vec<(&'static str, ScanShareConfig)> {
    let base = ScanShareConfig {
        page_size_bytes: PAGE,
        chunk_tuples: CHUNK,
        buffer_pool_bytes: 20 * PAGE, // pressure: the pool is far smaller than the fact table
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

#[test]
fn random_plans_match_the_reference_executor_under_every_policy() {
    let seeds = if cfg!(debug_assertions) { 5 } else { 8 };
    let plans_per_seed = 10;
    for seed in 0..seeds {
        let (storage, fact, dim) = setup(seed);
        let mut rng = Rng::new(0x9e37_79b9 + seed * 104_729);
        let plans: Vec<Plan> = (0..plans_per_seed).map(|_| random_plan(&mut rng)).collect();
        for (name, config) in policy_configs() {
            let engine = Engine::new(Arc::clone(&storage), config).unwrap();
            for (i, plan) in plans.iter().enumerate() {
                let context = format!("seed {seed} plan {i} policy {name}");
                assert_plan_matches(&engine, &storage, fact, dim, plan, &context);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Engine == simulator I/O parity over randomized workloads
// ---------------------------------------------------------------------------

/// A random single-stream workload of plain, filtered and join queries.
/// Single stream + parallelism 1 keeps the request sequence deterministic,
/// so I/O parity can be asserted byte for byte.
fn random_workload(rng: &mut Rng, fact: TableId, dim: TableId) -> WorkloadSpec {
    let queries = (0..4)
        .map(|i| {
            let start = rng.below(FACT_ROWS / 2);
            let end = start + FACT_ROWS / 4 + rng.below(FACT_ROWS - start - FACT_ROWS / 4);
            let predicate = (rng.below(3) == 0).then(|| {
                // f_key is sequential, so range predicates prune zones.
                ZonePredicate::new(0, ZoneOp::Lt, rng.below(FACT_ROWS) as Value)
            });
            let probe = ScanSpec {
                table: fact,
                columns: vec![0, 1, 2, 3],
                ranges: RangeList::single(start, end),
                predicate,
            };
            let join = rng.below(2) == 0;
            QuerySpec {
                label: format!("q{i}"),
                scans: if join {
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
                join: join.then_some(JoinSpec {
                    left_col: 1, // f_cat within the probe projection
                    right_col: 0,
                }),
            }
        })
        .collect();
    WorkloadSpec::read_only(
        "query-differential",
        vec![StreamSpec {
            label: "s0".into(),
            queries,
        }],
    )
}

#[test]
fn random_workloads_do_identical_io_on_engine_and_simulator() {
    let seeds = if cfg!(debug_assertions) { 5 } else { 6 };
    for seed in 0..seeds {
        let (storage, fact, dim) = setup(100 + seed);
        let mut rng = Rng::new(0x051b_077e + seed * 7919);
        let workload = random_workload(&mut rng, fact, dim);
        for (name, config) in policy_configs() {
            let sim = Simulation::new(
                Arc::clone(&storage),
                SimConfig {
                    scanshare: config.clone(),
                    cores: 4,
                    sharing_sample_interval: None,
                },
            )
            .unwrap()
            .run(&workload)
            .unwrap();
            let engine = Engine::new(Arc::clone(&storage), config).unwrap();
            let report = WorkloadDriver::new(engine).run(&workload).unwrap();
            assert!(
                report.stream_errors.is_empty(),
                "seed {seed} policy {name}: {:?}",
                report.stream_errors
            );
            assert_eq!(
                report.buffer.io_bytes, sim.total_io_bytes,
                "seed {seed} policy {name}: I/O diverged"
            );
        }
    }
}
