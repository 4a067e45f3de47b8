//! `micro_pbm` / `micro_cscan`: the paper's section 4.1 microbenchmark on
//! the live engine. Eight closed-loop streams of sixteen Q1/Q6-shaped
//! queries run as tasks on a `TaskScheduler`; every result is compared with
//! a naive reference executor over raw page values.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use scanshare_common::{
    PolicyKind, RangeList, Result, ScanId, TableId, TupleRange, VirtualDuration, VirtualInstant,
};
use scanshare_core::abm::{Abm, AbmConfig, CScanRequest};
use scanshare_core::registry::PolicyRegistry;
use scanshare_core::{BufferStats, ShardedPool};
use scanshare_exec::ops::{fold_batch, AggrResult, CompareOp, GroupState};
use scanshare_exec::{
    AggrSpec, Aggregate, Engine, Predicate, Query, QueryTask, Task, TaskOutcome, TaskScheduler,
    TaskStep,
};
use scanshare_iosim::{BlockDevice, IoDevice};
use scanshare_sim::{SimConfig, Simulation};
use scanshare_storage::datagen::{splitmix64, Value};
use scanshare_storage::Storage;
use scanshare_workload::microbench::{self, Q1_COLUMNS, Q6_COLUMNS};
use scanshare_workload::spec::{QuerySpec, ScanSpec, StreamSpec};
use scanshare_workload::WorkloadSpec;

use crate::common::{ratio, timed, Env, Outcome, PAGE};
use crate::stats;
use crate::trace;
use crate::wrappers::{timed_registry, TimedDevice, POLICY_SPAN, SUBMIT_SPAN};

pub const LINEITEM_TUPLES: u64 = 300_000;
pub const STREAMS: usize = 8;
const POOL_SHARE: f64 = 0.4;
const MB_PER_SEC: f64 = 700.0;
const SCAN_PERCENTAGES: [u64; 4] = [1, 10, 50, 100];
/// Cold-pool passes a run makes at least.
const MIN_PASSES: usize = 3;
/// Replays of each kind (traced, untraced) in the traced run.
const REPLAYS: usize = 3;

/// The columns of `microbench::lineitem_spec`, in table order.
pub const COLUMN_NAMES: [&str; 7] = [
    "l_quantity",
    "l_extendedprice",
    "l_discount",
    "l_tax",
    "l_returnflag",
    "l_linestatus",
    "l_shipdate",
];

/// The microbenchmark's query mix with the *shape* of the mix fixed and
/// only placement and order drawn from `seed`: every stream runs each
/// (range share, Q1|Q6) combination exactly twice, in a shuffled order, at
/// random positions. `microbench::generate` draws the range share of every
/// query independently, which moves the scanned volume by ~9% between seeds
/// and would put the seed-to-seed spread of every metric above its bound.
pub fn stratified_spec(seed: u64, tuples: u64, table: TableId, streams: usize) -> WorkloadSpec {
    let mut state = seed | 1;
    let mut next = move |limit: u64| {
        state = splitmix64(state);
        state % limit.max(1)
    };
    let streams = (0..streams)
        .map(|s| {
            let mut mix: Vec<(u64, bool)> = Vec::new();
            for _ in 0..2 {
                for pct in SCAN_PERCENTAGES {
                    mix.extend([(pct, true), (pct, false)]);
                }
            }
            for i in (1..mix.len()).rev() {
                mix.swap(i, next(i as u64 + 1) as usize);
            }
            let queries = mix
                .into_iter()
                .enumerate()
                .map(|(q, (pct, is_q1))| {
                    let span = (tuples * pct / 100).max(1);
                    let start = next(tuples - span + 1);
                    let (columns, shape, cpu_factor) = if is_q1 {
                        (Q1_COLUMNS.to_vec(), "q1", 1.4)
                    } else {
                        (Q6_COLUMNS.to_vec(), "q6", 1.0)
                    };
                    QuerySpec {
                        label: format!("micro-{shape}-{pct}%#{s}.{q}"),
                        scans: vec![ScanSpec {
                            table,
                            columns,
                            ranges: RangeList::single(start, start + span),
                            predicate: None,
                        }],
                        cpu_factor,
                        join: None,
                    }
                })
                .collect();
            StreamSpec {
                label: format!("stream-{s}"),
                queries,
            }
        })
        .collect();
    WorkloadSpec::read_only(format!("micro-stratified-{seed}"), streams)
}

/// The buffer pool the paper sizes against: `share` of the distinct data
/// volume the workload touches.
pub fn pool_bytes(storage: &Arc<Storage>, env: &Env, spec: &WorkloadSpec, share: f64) -> u64 {
    let probe = Simulation::new(
        Arc::clone(storage),
        SimConfig {
            scanshare: env.config(),
            ..SimConfig::default()
        },
    )
    .expect("probe simulation");
    let accessed = probe.accessed_volume(spec).expect("accessed volume");
    ((accessed as f64 * share) as u64).max(4 * PAGE)
}

/// The plan shape of a generated query.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// 7 columns, `l_shipdate <= 10_200`, grouped on `l_returnflag`.
    Q1,
    /// 4 columns, `l_discount >= 5`, global aggregates.
    Q6,
}

impl Shape {
    fn of(query: &QuerySpec) -> Self {
        if query.scans[0].columns.len() == Q1_COLUMNS.len() {
            Shape::Q1
        } else {
            Shape::Q6
        }
    }

    /// Projected column names; predicate and aggregate indices below are
    /// positions in this projection.
    fn columns(self) -> Vec<&'static str> {
        let indices: &[usize] = match self {
            Shape::Q1 => &Q1_COLUMNS,
            Shape::Q6 => &Q6_COLUMNS,
        };
        indices.iter().map(|&c| COLUMN_NAMES[c]).collect()
    }

    fn filter(self) -> Predicate {
        match self {
            Shape::Q1 => Predicate::new(6, CompareOp::Le, 10_200),
            Shape::Q6 => Predicate::new(2, CompareOp::Ge, 5),
        }
    }

    fn aggregate(self) -> AggrSpec {
        match self {
            Shape::Q1 => AggrSpec::grouped(
                4,
                vec![
                    Aggregate::Count,
                    Aggregate::Sum(0),
                    Aggregate::Sum(1),
                    Aggregate::Sum(2),
                ],
            ),
            Shape::Q6 => AggrSpec::global(vec![Aggregate::Count, Aggregate::Sum(1)]),
        }
    }
}

fn range_of(query: &QuerySpec) -> TupleRange {
    query.scans[0].ranges.ranges()[0]
}

fn plan(engine: &Arc<Engine>, table: TableId, query: &QuerySpec) -> Query {
    let shape = Shape::of(query);
    engine
        .query(table)
        .columns(shape.columns())
        .tuple_range(range_of(query))
        .filter(shape.filter())
        .aggregate(shape.aggregate())
}

/// Every column of `table`, decoded page by page through
/// `Storage::read_page`.
pub fn decode_table(storage: &Storage, table: TableId) -> Vec<Vec<Value>> {
    let layout = storage.layout(table).expect("layout");
    let snapshot = storage.master_snapshot(table).expect("snapshot");
    (0..layout.column_count())
        .map(|col| {
            let mut values = Vec::with_capacity(snapshot.stable_tuples() as usize);
            for page in 0..snapshot.column_pages(col).len() as u64 {
                let data = storage
                    .read_page(&layout, &snapshot, col, page)
                    .expect("read_page");
                values.extend_from_slice(&data.values);
            }
            values
        })
        .collect()
}

/// The naive reference executor: one row at a time over the raw values.
#[allow(clippy::needless_range_loop)] // `row` indexes several columns at once
fn reference(columns: &[Vec<Value>], query: &QuerySpec) -> AggrResult {
    let shape = Shape::of(query);
    let projection: &[usize] = match shape {
        Shape::Q1 => &Q1_COLUMNS,
        Shape::Q6 => &Q6_COLUMNS,
    };
    let (filter, spec) = (shape.filter(), shape.aggregate());
    let mut groups = AggrResult::new();
    let range = range_of(query);
    for row in range.start as usize..range.end as usize {
        let at = |c: usize| columns[projection[c]][row];
        if !filter.matches(at(filter.column)) {
            continue;
        }
        let key = spec.group_by.map_or(0, at);
        let state = groups.entry(key).or_insert_with(|| GroupState {
            count: 0,
            accumulators: vec![0; spec.aggregates.len()],
        });
        state.count += 1;
        for (acc, aggregate) in state.accumulators.iter_mut().zip(&spec.aggregates) {
            match aggregate {
                Aggregate::Count => *acc += 1,
                Aggregate::Sum(c) => *acc += at(*c),
                Aggregate::Min(c) => *acc = (*acc).min(at(*c)),
                Aggregate::Max(c) => *acc = (*acc).max(at(*c)),
            }
        }
    }
    groups
}

/// Generated inputs plus the expected result of every query.
struct Inputs {
    storage: Arc<Storage>,
    table: TableId,
    spec: WorkloadSpec,
    pool_bytes: u64,
    /// `expected[stream][query]`.
    expected: Vec<Vec<AggrResult>>,
    build_s: f64,
    reference_s: f64,
}

fn setup(env: &Env) -> Inputs {
    let tuples = env.scaled(LINEITEM_TUPLES);
    let ((storage, table, spec, pool_bytes), build_s) = timed(|| {
        let storage = Storage::with_seed(PAGE, crate::common::CHUNK, env.seed);
        let table = microbench::setup_lineitem(&storage, tuples).expect("lineitem");
        let spec = stratified_spec(env.seed, tuples, table, STREAMS);
        let pool = pool_bytes(&storage, env, &spec, POOL_SHARE);
        (storage, table, spec, pool)
    });
    let (expected, reference_s) = timed(|| {
        let columns = decode_table(&storage, table);
        spec.streams
            .iter()
            .map(|s| s.queries.iter().map(|q| reference(&columns, q)).collect())
            .collect()
    });
    Inputs {
        storage,
        table,
        spec,
        pool_bytes,
        expected,
        build_s,
        reference_s,
    }
}

/// One closed-loop stream: the next query is planned when the previous one
/// returns. Each `step` runs one quantum of the current `QueryTask`.
struct StreamTask {
    engine: Arc<Engine>,
    table: TableId,
    pending: VecDeque<QuerySpec>,
    current: Option<(QueryTask, Instant)>,
    started: Instant,
    results: Vec<AggrResult>,
    latencies_s: Vec<f64>,
    stream_time_s: f64,
}

impl Task for StreamTask {
    fn step(&mut self) -> Result<TaskStep> {
        if self.current.is_none() {
            let Some(query) = self.pending.pop_front() else {
                self.stream_time_s = self.started.elapsed().as_secs_f64();
                return Ok(TaskStep::Done);
            };
            let issued = Instant::now();
            let task = plan(&self.engine, self.table, &query).into_task()?;
            self.current = Some((task, issued));
        }
        let (task, issued) = self.current.as_mut().expect("set above");
        if task.step()? == TaskStep::Done {
            self.latencies_s.push(issued.elapsed().as_secs_f64());
            let (task, _) = self.current.take().expect("set above");
            self.results.push(task.into_result());
        }
        Ok(TaskStep::Yield)
    }
}

/// What one cold-pool pass of all streams observed.
struct Pass {
    /// From the first stream's spawn until the last stream finished.
    wall_s: f64,
    /// Tuples scanned by queries whose result matched the reference.
    tuples_ok: u64,
    queries: u64,
    wrong: u64,
    stream_times_s: Vec<f64>,
    query_latencies_s: Vec<f64>,
    buffer: BufferStats,
}

fn run_pass(env: &Env, inputs: &Inputs, policy: PolicyKind) -> Pass {
    let engine = Engine::new(
        Arc::clone(&inputs.storage),
        scanshare_common::ScanShareConfig {
            buffer_pool_bytes: inputs.pool_bytes,
            policy,
            ..env.config_at(MB_PER_SEC)
        },
    )
    .expect("engine");
    let scheduler = TaskScheduler::new(env.workers);
    let started = Instant::now();
    let handles: Vec<_> = inputs
        .spec
        .streams
        .iter()
        .map(|stream| {
            scheduler.spawn(StreamTask {
                engine: Arc::clone(&engine),
                table: inputs.table,
                pending: stream.queries.iter().cloned().collect(),
                current: None,
                started,
                results: Vec::new(),
                latencies_s: Vec::new(),
                stream_time_s: 0.0,
            })
        })
        .collect();
    let finished: Vec<Option<StreamTask>> = handles
        .into_iter()
        .map(|handle| match handle.wait() {
            TaskOutcome::Finished(task) => Some(task),
            TaskOutcome::Failed(error) => {
                eprintln!("stream failed: {error}");
                None
            }
            TaskOutcome::Panicked(message) => {
                eprintln!("stream panicked: {message}");
                None
            }
        })
        .collect();

    let mut pass = Pass {
        wall_s: started.elapsed().as_secs_f64(),
        tuples_ok: 0,
        queries: inputs.spec.query_count() as u64,
        wrong: 0,
        stream_times_s: Vec::new(),
        query_latencies_s: Vec::new(),
        buffer: engine.buffer_stats(),
    };
    for ((stream, expected), task) in inputs
        .spec
        .streams
        .iter()
        .zip(&inputs.expected)
        .zip(finished)
    {
        let results = task.as_ref().map_or(&[][..], |t| &t.results[..]);
        for (i, query) in stream.queries.iter().enumerate() {
            if results.get(i) == Some(&expected[i]) {
                pass.tuples_ok += query.total_tuples();
            } else {
                pass.wrong += 1;
            }
        }
        if let Some(task) = task {
            pass.stream_times_s.push(task.stream_time_s);
            pass.query_latencies_s.extend(task.latencies_s);
        }
    }
    pass
}

/// The end-to-end run: cold-pool passes until the budget is spent.
pub fn run(env: &Env, policy: PolicyKind) -> Outcome {
    let mut out = Outcome::default();
    let (inputs, setup_s) = env.timed_setup(|| setup(env));
    out.note("lineitem_tuples", env.scaled(LINEITEM_TUPLES) as f64);
    out.note("pool_bytes", inputs.pool_bytes as f64);
    if env.trace {
        traced(env, &inputs, policy, &mut out);
        return out;
    }
    out.set("setup_s", setup_s);

    let budget = env.budget(MIN_PASSES);
    let mut passes = Vec::new();
    while budget.another(passes.len()) {
        passes.push(run_pass(env, &inputs, policy));
    }
    let queries: u64 = passes.iter().map(|p| p.queries).sum();
    out.attempted = queries;
    out.failed = passes.iter().map(|p| p.wrong).sum();
    out.note("passes", passes.len() as f64);

    // Busy wall: the time the streams were running, pass by pass (building
    // the cold engine between passes is not part of it).
    let wall: f64 = passes.iter().map(|p| p.wall_s).sum();
    let tuples: u64 = passes.iter().map(|p| p.tuples_ok).sum();
    out.set("tuples_per_s", tuples as f64 / wall);
    // No per-request client here; both latency cells carry the median
    // pass, ten passes supporting no tail (see `metrics::NOT_APPLICABLE`).
    let pass_ms: Vec<f64> = passes.iter().map(|p| p.wall_s * 1e3).collect();
    out.set("latency_p50_ms", stats::median(&pass_ms));
    out.set("latency_p99_ms", stats::median(&pass_ms));
    out
}

// ---------------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------------

const NEXT_BATCH_SPAN: &str = "exec.scan.next_batch";
const OPEN_SPAN: &str = "exec.scan.open";
const CLOSE_SPAN: &str = "exec.scan.close";
const FOLD_SPAN: &str = "exec.ops.fold";
const FOLD_GROUPED_SPAN: &str = "exec.ops.fold_grouped";

/// Row counts of one single-threaded replay.
#[derive(Default)]
struct Replay {
    wall_s: f64,
    batches: u64,
    rows_in: u64,
    rows_in_grouped: u64,
    rows_kept: u64,
    wrong: u64,
    queries: u64,
}

/// Replays every query on the calling thread through `Engine::scan_pinned`
/// and `fold_batch` — the calls a `QueryTask` quantum makes — with a span
/// around each. Queries go round-robin over the streams.
fn replay(env: &Env, inputs: &Inputs, engine: &Arc<Engine>) -> Replay {
    let rec = &env.recorder;
    let mut replay = Replay::default();
    let started = Instant::now();
    let rounds = inputs.spec.streams[0].queries.len();
    for q in 0..rounds {
        for (s, stream) in inputs.spec.streams.iter().enumerate() {
            let query = &stream.queries[q];
            let request = Some((s * rounds + q) as u64);
            let shape = Shape::of(query);
            let (filter, spec) = (shape.filter(), shape.aggregate());
            let fold_span = if shape == Shape::Q1 {
                FOLD_GROUPED_SPAN
            } else {
                FOLD_SPAN
            };
            let mut scan = {
                let _span = rec.enter(OPEN_SPAN, request);
                let pin = engine.table_pin(inputs.table).expect("pin");
                engine
                    .scan_pinned(pin, &shape.columns(), range_of(query), false, Some(&filter))
                    .expect("scan")
            };
            let mut groups = AggrResult::new();
            loop {
                let batch = {
                    let _span = rec.enter(NEXT_BATCH_SPAN, request);
                    scan.next_batch().expect("next_batch")
                };
                let Some(batch) = batch else { break };
                replay.batches += 1;
                replay.rows_in += batch.len() as u64;
                if shape == Shape::Q1 {
                    replay.rows_in_grouped += batch.len() as u64;
                }
                let _span = rec.enter(fold_span, request);
                fold_batch(&mut groups, batch, Some(&filter), &spec);
            }
            {
                let _span = rec.enter(CLOSE_SPAN, request);
                drop(scan);
            }
            replay.queries += 1;
            replay.rows_kept += groups.values().map(|g| g.count).sum::<u64>();
            replay.wrong += u64::from(groups != inputs.expected[s][q]);
        }
    }
    replay.wall_s = started.elapsed().as_secs_f64();
    replay
}

fn traced(env: &Env, inputs: &Inputs, policy: PolicyKind, out: &mut Outcome) {
    out.set("setup.build_s", inputs.build_s);
    out.set("setup.reference_s", inputs.reference_s);
    let config = scanshare_common::ScanShareConfig {
        buffer_pool_bytes: inputs.pool_bytes,
        policy,
        ..env.config_at(MB_PER_SEC)
    };

    // The live multi-threaded pass: client-side fairness and buffer
    // statistics (they vary with interleaving).
    let pass = run_pass(env, inputs, policy);
    out.attempted += pass.queries;
    out.failed += pass.wrong;
    out.set(
        "exec.stream_time_s",
        ratio(pass.stream_times_s.iter().sum(), STREAMS as f64),
    );
    let query_ms = stats::sorted(pass.query_latencies_s.iter().map(|s| s * 1e3).collect());
    out.set(
        "exec.query_p50_ms",
        stats::quantile(&query_ms, 0.5).unwrap_or(0.0),
    );
    out.set(
        "exec.query_p90_ms",
        stats::quantile(&query_ms, 0.9).unwrap_or(0.0),
    );
    out.set_buffer_stats(&pass.buffer);

    // The replays, each on a cold pool: alternately on a plain engine with
    // the recorder off, and with the recorder on on an engine whose device
    // and policy are wrapped. The difference between the two kinds is the
    // tracing overhead; the last traced replay gives the ledger.
    let registry = match policy {
        PolicyKind::CScan => PolicyRegistry::default(),
        _ => timed_registry("pbm", &env.recorder),
    };
    let (mut traced_s, mut untraced_s) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..REPLAYS {
        let plain = Engine::new(Arc::clone(&inputs.storage), config.clone()).expect("engine");
        let untraced = replay(env, inputs, &plain);
        untraced_s.push(untraced.wall_s);
        out.attempted += untraced.queries;
        out.failed += untraced.wrong;

        let sim_device: Arc<dyn BlockDevice> = Arc::new(IoDevice::new(
            config.io_bandwidth,
            VirtualDuration::from_nanos(config.io_latency_nanos),
        ));
        let device = TimedDevice::wrap(sim_device, Arc::clone(&env.recorder));
        let engine = Engine::with_device(
            Arc::clone(&inputs.storage),
            config.clone(),
            &registry,
            Arc::clone(&device),
        )
        .expect("traced engine");
        let first_span = env.recorder.len();
        env.recorder.set_enabled(true);
        let window_start = env.recorder.now_ns();
        let traced = replay(env, inputs, &engine);
        let window_end = env.recorder.now_ns();
        env.recorder.set_enabled(false);
        traced_s.push(traced.wall_s);
        out.attempted += traced.queries;
        out.failed += traced.wrong;
        last = Some((traced, device, first_span, window_start, window_end));
    }
    let (traced, device, first_span, window_start, window_end) = last.expect("REPLAYS > 0");
    let spans = env.recorder.spans_from(first_span);

    let totals = trace::totals(&spans);
    let of = |name: &str| totals.get(name).copied().unwrap_or_default();
    let (next, open, close) = (of(NEXT_BATCH_SPAN), of(OPEN_SPAN), of(CLOSE_SPAN));
    let (fold, fold_grouped) = (of(FOLD_SPAN), of(FOLD_GROUPED_SPAN));
    let rows = traced.rows_in as f64;
    out.set(
        "exec.scan.next_batch_ns_per_tuple",
        ratio(next.total_ns as f64, rows),
    );
    out.set(
        "exec.scan.self_ns_per_tuple",
        ratio((next.self_ns + open.self_ns + close.self_ns) as f64, rows),
    );
    out.set("exec.scan.batches", traced.batches as f64);
    out.set("exec.scan.tuples", rows);
    out.set(
        "exec.ops.fold_ns_per_tuple",
        ratio(fold.total_ns as f64, rows - traced.rows_in_grouped as f64),
    );
    out.set(
        "exec.ops.fold_grouped_ns_per_tuple",
        ratio(fold_grouped.total_ns as f64, traced.rows_in_grouped as f64),
    );
    out.set(
        "exec.ops.filter_kept_frac",
        ratio(traced.rows_kept as f64, rows),
    );
    out.set("core.policy_busy_s", of(POLICY_SPAN).total_ns as f64 / 1e9);
    let submit = of(SUBMIT_SPAN);
    out.set(
        "iosim.sim_submit_ns",
        ratio(submit.total_ns as f64, submit.count as f64),
    );
    let io = device.stats();
    out.set("iosim.requests", io.requests as f64);
    out.set("iosim.bytes_read", io.bytes_read as f64);

    // The ledger: scan self + policy + submit + fold + residual = wall.
    // Every root span is one of the first four terms, so the residual is
    // the share of the replay's wall time outside any root span.
    out.set(
        "trace.residual_frac",
        trace::residual_frac(&spans, window_start, window_end),
    );
    out.set(
        "trace.overhead_frac",
        trace::overhead_frac(&traced_s, &untraced_s),
    );

    // Isolation probes of the layers this workload leans on.
    out.set(
        "storage.read_page_ns",
        read_page_probe(&inputs.storage, inputs.table),
    );
    match policy {
        PolicyKind::CScan => out.set("core.abm.get_chunk_ns", abm_probe(env, inputs)),
        _ => {
            out.set("core.lru.request_ns", pool_probe(env, inputs, "lru"));
            out.set("core.pbm.request_ns", pool_probe(env, inputs, "pbm"));
        }
    }
}

/// Wall time per `Storage::read_page` over every page of the table
/// (generator-backed here; `mixed_durable` runs it on files).
pub fn read_page_probe(storage: &Storage, table: TableId) -> f64 {
    let layout = storage.layout(table).expect("layout");
    let snapshot = storage.master_snapshot(table).expect("snapshot");
    let mut pages = 0u64;
    let started = Instant::now();
    for col in 0..layout.column_count() {
        for page in 0..snapshot.column_pages(col).len() as u64 {
            let data = storage.read_page(&layout, &snapshot, col, page);
            std::hint::black_box(data.expect("read_page"));
            pages += 1;
        }
    }
    ratio(started.elapsed().as_nanos() as f64, pages as f64)
}

/// A virtual clock for the isolation probes: a request costs 10 us of
/// simulated CPU, a miss one page transfer at the workload's bandwidth.
struct ProbeClock(u64);

impl ProbeClock {
    const REQUEST_NS: u64 = 10_000;
    const MISS_NS: u64 = (PAGE as f64 / (MB_PER_SEC * 1e6) * 1e9) as u64;

    fn now(&self) -> VirtualInstant {
        VirtualInstant::from_nanos(self.0)
    }
}

/// Replays the workload's page-request sequence against a `ShardedPool`
/// of the workload's size: one cursor per stream, one request per cursor
/// per turn, so streams interleave and eviction runs. Returns wall
/// nanoseconds per `request_page` (registration and progress reports
/// included, as the engine makes them too).
fn pool_probe(env: &Env, inputs: &Inputs, policy: &str) -> f64 {
    struct Cursor<'a> {
        queries: std::slice::Iter<'a, QuerySpec>,
        scan: Option<ScanId>,
        pages: Vec<(scanshare_common::PageId, u64)>,
        at: usize,
    }
    let config = env.config_at(MB_PER_SEC);
    let replacement = PolicyRegistry::default()
        .build(policy, &config)
        .expect("built-in policy");
    let capacity = (inputs.pool_bytes / PAGE) as usize;
    let pool = ShardedPool::new(capacity.max(1), PAGE, replacement, 1);
    let layout = inputs.storage.layout(inputs.table).expect("layout");
    let snapshot = inputs
        .storage
        .master_snapshot(inputs.table)
        .expect("snapshot");
    let mut cursors: Vec<Cursor<'_>> = inputs
        .spec
        .streams
        .iter()
        .map(|s| Cursor {
            queries: s.queries.iter(),
            scan: None,
            pages: Vec::new(),
            at: 0,
        })
        .collect();
    let mut clock = ProbeClock(0);
    let mut requests = 0u64;
    let started = Instant::now();
    let mut live = cursors.len();
    while live > 0 {
        live = 0;
        for cursor in &mut cursors {
            if cursor.at == cursor.pages.len() {
                if let Some(scan) = cursor.scan.take() {
                    pool.unregister_scan(scan, clock.now());
                }
                let Some(query) = cursor.queries.next() else {
                    continue;
                };
                let scan = &query.scans[0];
                let plan = layout.scan_page_plan(&snapshot, &scan.columns, &scan.ranges);
                cursor.scan = Some(pool.register_scan(&plan, clock.now()));
                cursor.pages = plan
                    .interleaved()
                    .iter()
                    .map(|p| (p.page, p.tuples_behind))
                    .collect();
                cursor.at = 0;
            }
            live += 1;
            let (page, consumed) = cursor.pages[cursor.at];
            cursor.at += 1;
            let scan = cursor.scan.expect("registered above");
            pool.report_scan_position(scan, consumed, clock.now());
            let outcome = pool
                .request_page(page, Some(scan), clock.now())
                .expect("request_page");
            clock.0 += ProbeClock::REQUEST_NS;
            if !outcome.is_hit() {
                clock.0 += ProbeClock::MISS_NS;
            }
            requests += 1;
        }
    }
    ratio(started.elapsed().as_nanos() as f64, requests as f64)
}

/// Replays the workload's chunk-request sequence against an `Abm` of the
/// workload's size, one scan per stream, loads retired one at a time as the
/// backend's load scheduler does. Returns wall nanoseconds of ABM work
/// (`get_chunk`, `next_load`, `complete_load`, registration) per delivered
/// chunk.
fn abm_probe(_env: &Env, inputs: &Inputs) -> f64 {
    let abm = Abm::new(AbmConfig::new(inputs.pool_bytes, PAGE));
    let layout = inputs.storage.layout(inputs.table).expect("layout");
    let snapshot = inputs
        .storage
        .master_snapshot(inputs.table)
        .expect("snapshot");
    let mut queries: Vec<_> = inputs
        .spec
        .streams
        .iter()
        .map(|s| s.queries.iter())
        .collect();
    let mut scans: Vec<Option<ScanId>> = vec![None; queries.len()];
    let mut clock = ProbeClock(0);
    let mut delivered = 0u64;
    let started = Instant::now();
    loop {
        let mut live = 0;
        let mut progressed = false;
        for (slot, pending) in scans.iter_mut().zip(&mut queries) {
            if slot.is_none() {
                let Some(query) = pending.next() else {
                    continue;
                };
                let scan = &query.scans[0];
                let handle = abm
                    .register_cscan(CScanRequest {
                        table: inputs.table,
                        snapshot: Arc::clone(&snapshot),
                        layout: Arc::clone(&layout),
                        columns: scan.columns.clone(),
                        ranges: scan.ranges.clone(),
                        in_order: false,
                    })
                    .expect("register_cscan");
                *slot = Some(handle.id);
            }
            live += 1;
            let scan = slot.expect("registered above");
            if abm.get_chunk(scan).expect("get_chunk").is_some() {
                delivered += 1;
                progressed = true;
                clock.0 += ProbeClock::REQUEST_NS;
            } else if abm.is_finished(scan) {
                abm.unregister_cscan(scan).expect("unregister_cscan");
                *slot = None;
                progressed = true;
            }
        }
        if live == 0 {
            break;
        }
        if !progressed {
            let plan = abm
                .next_load(clock.now())
                .expect("a starved scan always has a loadable chunk");
            clock.0 += ProbeClock::MISS_NS * plan.pages.len() as u64;
            abm.complete_load(&plan, clock.now())
                .expect("complete_load");
        }
    }
    ratio(started.elapsed().as_nanos() as f64, delivered as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stratified_spec_fixes_the_mix_and_varies_only_placement() {
        let table = TableId::new(0);
        let a = stratified_spec(1, 100_000, table, STREAMS);
        let b = stratified_spec(2, 100_000, table, STREAMS);
        assert_eq!(a, stratified_spec(1, 100_000, table, STREAMS));
        assert_ne!(a, b);
        assert_eq!(a.query_count(), 128);
        assert_eq!(a.total_tuples(), b.total_tuples());
        for stream in a.streams.iter().chain(&b.streams) {
            let q1 = stream
                .queries
                .iter()
                .filter(|q| q.scans[0].columns.len() == 7);
            assert_eq!(q1.count(), 8);
            let tuples: u64 = stream.queries.iter().map(QuerySpec::total_tuples).sum();
            assert_eq!(tuples, 4 * (1_000 + 10_000 + 50_000 + 100_000));
            for query in &stream.queries {
                assert!(range_of(query).end <= 100_000);
            }
        }
    }
}
