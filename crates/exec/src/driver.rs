//! Executes a [`WorkloadSpec`] against a live [`Engine`].
//!
//! The `workload` crate's multi-stream specifications (microbenchmark and
//! TPC-H-like) used to be executable only by the discrete-event simulator;
//! the driver closes that gap. Each stream becomes one cooperative session
//! task on the [`TaskScheduler`] — a fixed
//! pool of [`ScanShareConfig::scheduler_workers`](scanshare_common::ScanShareConfig::scheduler_workers)
//! OS threads — with every query lowered from its
//! [`QuerySpec`] (through the shared [`QuerySpec::steps`] lowering) onto the
//! builder [`Query`] API against the shared engine —
//! and therefore the shared, concurrently-driven buffer-management backend.
//! The driver is deliberately a *thin client* of the scheduler: the same
//! session-task machinery serves the `scanshare-serve` network frontend,
//! where thousands of logical sessions multiplex onto the same pool.
//!
//! Two clocks are reported side by side:
//!
//! * **wall-clock** throughput (`queries/s`, `tuples/s`) and per-query
//!   latency percentiles — the real cost of running the streams, including
//!   every lock the backend takes. The repo benchmark (`benchmark/`)
//!   measures it as `tuples_per_s` / `queries_per_s`;
//! * the engine's **virtual** elapsed time plus the aggregated
//!   [`BufferStats`]/[`IoStats`] — the paper's deterministic I/O-volume
//!   accounting, unchanged by scheduling.

use std::sync::Arc;
use std::time::{Duration, Instant};

use scanshare_common::{Error, Result, TupleRange, VirtualDuration};
use scanshare_core::metrics::BufferStats;
use scanshare_iosim::{IoLatency, IoStats};
use scanshare_workload::spec::{
    QuerySpec, QueryStep, UpdateOp, UpdateOpGen, UpdateStreamSpec, WorkloadSpec,
};

use std::collections::VecDeque;

use scanshare_common::sync::Mutex;
use scanshare_common::TableId;

use crate::engine::Engine;
use crate::ops::{AggrSpec, Aggregate, Predicate};
use crate::query::Query;
use crate::sched::{Task, TaskHandle, TaskOutcome, TaskScheduler, TaskStep};

/// Runs [`WorkloadSpec`]s against an [`Engine`], one cooperative session
/// task per stream on a morsel-driven scheduler.
#[derive(Debug)]
pub struct WorkloadDriver {
    engine: Arc<Engine>,
}

/// A per-stream failure surfaced in the report instead of aborting the
/// workload: the affected stream stops early, the remaining streams run to
/// completion, and the caller decides how to react. Two shapes exist —
/// typed errors the stream returned (Cooperative Scans starvation,
/// [`Error::ScanStarved`], and device I/O faults, [`Error::Io`]) and
/// panics caught from the stream's session task, which would previously
/// abort the entire workload run.
#[derive(Debug, Clone)]
pub enum StreamError {
    /// The stream's query returned a per-stream typed error.
    Failed {
        /// Label of the stream that failed (from its
        /// [`StreamSpec`](scanshare_workload::spec::StreamSpec)).
        stream: String,
        /// The typed error that ended the stream.
        error: Error,
    },
    /// The stream's session task panicked; the panic was caught on the
    /// scheduler worker instead of propagating into the driver.
    Panicked {
        /// Label of the stream that panicked.
        stream: String,
        /// The panic payload, when it was a string (the common case).
        message: String,
    },
}

impl StreamError {
    /// The typed error, for failures that have one (`None` for panics).
    pub fn error(&self) -> Option<&Error> {
        match self {
            StreamError::Failed { error, .. } => Some(error),
            StreamError::Panicked { .. } => None,
        }
    }
}

/// How one stream ended ahead of schedule: with a typed error from its own
/// queries, or with a panic caught on the scheduler worker that was
/// stepping it. Panics are always stream-local — a panicking stream must
/// never take the rest of the workload down with it.
enum StreamEnd {
    Error(Error),
    Panic(String),
}

/// Whether an error is a per-stream outcome (reported in
/// [`WorkloadReport::stream_errors`]) rather than a workload-level failure
/// (returned as `Err` from [`WorkloadDriver::run`]). Scheduling starvation
/// and device I/O faults end one stream; everything else fails the run.
fn is_stream_local(error: &Error) -> bool {
    matches!(error, Error::ScanStarved(_) | Error::Io(_))
}

/// What one driver run measured.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Name of the executed workload.
    pub workload: String,
    /// Number of concurrent streams (one session task each).
    pub streams: usize,
    /// Queries executed across all streams.
    pub queries: u64,
    /// Tuples scanned across all *completed* queries (per the specs' scan
    /// ranges); queries a stream never ran because it ended early on a
    /// [`StreamError`] do not count.
    pub tuples: u64,
    /// Wall-clock time from the first query starting to the last finishing.
    pub wall: Duration,
    /// Virtual time the engine's clock advanced during the run.
    pub virtual_elapsed: VirtualDuration,
    /// Per-query wall-clock latencies, sorted ascending.
    pub latencies: Vec<Duration>,
    /// Buffer-manager counters accumulated during the run.
    pub buffer: BufferStats,
    /// I/O-device counters accumulated during the run.
    pub io: IoStats,
    /// Per-kind wall-clock latency percentiles (p50/p95/p99) measured by
    /// the device, for devices that measure them: the file-backed device
    /// reports real `pread` timings, the simulated device reports `None`.
    /// Covers every request the device served since its statistics were
    /// last reset (the sample buffer is not differenced per run).
    pub device_latency: Option<IoLatency>,
    /// Streams that ended early — on a per-stream typed error or on a
    /// caught panic (see [`StreamError`]); empty on a clean run.
    pub stream_errors: Vec<StreamError>,
    /// Update operations applied by the workload's update streams (0 for
    /// read-only workloads).
    pub update_ops: u64,
    /// Checkpoints performed by the workload's update streams.
    pub checkpoints: u64,
}

impl WorkloadReport {
    /// Wall-clock queries per second.
    pub fn queries_per_sec(&self) -> f64 {
        self.queries as f64 / self.wall.as_secs_f64().max(1e-12)
    }

    /// Wall-clock tuples per second.
    pub fn tuples_per_sec(&self) -> f64 {
        self.tuples as f64 / self.wall.as_secs_f64().max(1e-12)
    }

    /// The `q`-quantile (`0.0..=1.0`) of the per-query wall-clock latency
    /// (nearest-rank, via [`scanshare_common::quantile`]). `None` when the
    /// workload had no queries. Latencies are **pooled** across all streams
    /// before ranking — never computed per stream and averaged, which would
    /// underestimate the tail.
    pub fn latency_quantile(&self, q: f64) -> Option<Duration> {
        scanshare_common::quantile::nearest_rank(&self.latencies, q)
    }

    /// Median per-query latency.
    pub fn p50(&self) -> Option<Duration> {
        self.latency_quantile(0.50)
    }

    /// 95th-percentile per-query latency.
    pub fn p95(&self) -> Option<Duration> {
        self.latency_quantile(0.95)
    }

    /// 99th-percentile per-query latency.
    pub fn p99(&self) -> Option<Duration> {
        self.latency_quantile(0.99)
    }
}

impl WorkloadDriver {
    /// Creates a driver over `engine`. Queries run single-threaded inside
    /// their stream (the spec's streams provide the concurrency).
    pub fn new(engine: Arc<Engine>) -> Self {
        Self { engine }
    }

    /// The engine the driver executes against.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Executes `workload` and collects the merged report.
    ///
    /// All query execution runs on a [`TaskScheduler`] with
    /// [`ScanShareConfig::scheduler_workers`](scanshare_common::ScanShareConfig::scheduler_workers)
    /// worker threads, created for the duration of the run.
    ///
    /// The workload runs phase by phase ([`WorkloadSpec::phases`]), with
    /// the [`UpdateBarrier`] before each: one session task per stream with
    /// queries in the phase, each running them back to back through the
    /// builder API, all sessions interleaving cooperatively on the worker
    /// pool. A read-only workload is one phase; a mixed one is a phase per
    /// round, so every update batch and checkpoint lands between two rounds
    /// of queries — the schedule the discrete-event simulator executes over
    /// the same barrier, which is what makes engine == simulator I/O parity
    /// exact under updates.
    ///
    /// A failing query ends its own stream immediately; streams are
    /// independent sessions and are never aborted mid-query, and a stream
    /// that ended sits out the later phases. Per-stream scheduling errors
    /// (Cooperative Scans starvation, [`Error::ScanStarved`]) are surfaced
    /// in [`WorkloadReport::stream_errors`] while the other streams' results
    /// still count; any other error is returned once the remaining streams
    /// have run to completion.
    pub fn run(&self, workload: &WorkloadSpec) -> Result<WorkloadReport> {
        let virtual_start = self.engine.now();
        let buffer_start = self.engine.buffer_stats();
        let io_start = self.engine.device().stats();
        let wall_start = Instant::now();
        let scheduler = TaskScheduler::new(self.engine.config().scheduler_workers);

        // Updates grow and shrink the row space between phases, so a mixed
        // workload checks each query's count against the rows visible then.
        let clamp_to_visible = workload.has_updates();
        let mut barrier = UpdateBarrier::new(workload);
        let mut stream_results: Vec<(Vec<Duration>, u64, Option<StreamEnd>)> = workload
            .streams
            .iter()
            .map(|_| (Vec::new(), 0, None))
            .collect();
        for (round, phase) in workload.phases().into_iter().enumerate() {
            barrier.apply(&self.engine, round)?;
            let sessions: Vec<(usize, _)> = phase
                .into_iter()
                .enumerate()
                .filter(|(s, queries)| stream_results[*s].2.is_none() && !queries.is_empty())
                .map(|(s, queries)| {
                    let accum = Arc::new(Mutex::new(SessionAccum::default()));
                    let task = StreamSessionTask {
                        engine: Arc::clone(&self.engine),
                        clamp_to_visible,
                        pending: queries.iter().cloned().collect(),
                        current: None,
                        accum: Arc::clone(&accum),
                    };
                    (s, (accum, scheduler.spawn(task)))
                })
                .collect();
            for (s, session) in sessions {
                let (latencies, tuples, end) = collect_session(session);
                let result = &mut stream_results[s];
                result.0.extend(latencies);
                result.1 += tuples;
                result.2 = end;
            }
        }

        let wall = wall_start.elapsed();
        let mut latencies = Vec::with_capacity(workload.query_count());
        let mut tuples = 0u64;
        let mut stream_errors = Vec::new();
        let mut fatal: Option<Error> = None;
        for (spec, (stream_latencies, stream_tuples, error)) in
            workload.streams.iter().zip(stream_results)
        {
            latencies.extend(stream_latencies);
            tuples += stream_tuples;
            match error {
                Some(StreamEnd::Panic(message)) => stream_errors.push(StreamError::Panicked {
                    stream: spec.label.clone(),
                    message,
                }),
                Some(StreamEnd::Error(error)) if is_stream_local(&error) => {
                    stream_errors.push(StreamError::Failed {
                        stream: spec.label.clone(),
                        error,
                    })
                }
                Some(StreamEnd::Error(error)) => fatal = fatal.or(Some(error)),
                None => {}
            }
        }
        if let Some(error) = fatal {
            return Err(error);
        }
        latencies.sort_unstable();

        Ok(WorkloadReport {
            workload: workload.name.clone(),
            streams: workload.stream_count(),
            queries: latencies.len() as u64,
            tuples,
            wall,
            virtual_elapsed: self.engine.now().since(virtual_start),
            latencies,
            buffer: self.engine.buffer_stats().since(&buffer_start),
            io: self.engine.device().stats().since(&io_start),
            device_latency: self.engine.device().latency(),
            stream_errors,
            update_ops: barrier.update_ops,
            checkpoints: barrier.checkpoints,
        })
    }
}

/// The update barrier of a workload, which both executors run before every
/// phase (see [`WorkloadSpec::phases`]): each update stream, in spec order,
/// commits its round's batch as one transaction and checkpoints its table
/// when due. Without update streams it does nothing.
#[derive(Debug)]
pub struct UpdateBarrier<'a> {
    streams: &'a [UpdateStreamSpec],
    /// One deterministic generator per update stream, so both executors
    /// apply the byte-identical operation sequence.
    generators: Vec<UpdateOpGen>,
    /// Update operations applied so far.
    pub update_ops: u64,
    /// Checkpoints performed so far.
    pub checkpoints: u64,
}

impl<'a> UpdateBarrier<'a> {
    /// The barrier of `workload`'s update streams, before its first round.
    pub fn new(workload: &'a WorkloadSpec) -> Self {
        let streams = workload.update_streams.as_slice();
        Self {
            streams,
            generators: streams.iter().map(UpdateStreamSpec::ops).collect(),
            update_ops: 0,
            checkpoints: 0,
        }
    }

    /// Applies every update stream's batch for (0-based) `round` to
    /// `engine`, each as a single transaction, plus the periodic checkpoint
    /// when due.
    pub fn apply(&mut self, engine: &Arc<Engine>, round: usize) -> Result<()> {
        for (spec, generator) in self.streams.iter().zip(&mut self.generators) {
            let columns = engine.storage().table(spec.table)?.spec.columns.len();
            if spec.ops_per_round > 0 {
                let mut txn = engine.begin();
                for _ in 0..spec.ops_per_round {
                    let visible = txn.visible_rows(spec.table)?;
                    match generator.next_op(visible, columns) {
                        UpdateOp::Insert { rid, row } => txn.insert(spec.table, rid, row)?,
                        UpdateOp::Delete { rid } => txn.delete(spec.table, rid)?,
                        UpdateOp::Modify { rid, col, value } => {
                            txn.modify(spec.table, rid, col, value)?
                        }
                    }
                }
                txn.commit()?;
            }
            self.update_ops += spec.ops_per_round;
            if spec.checkpoint_due(round) {
                engine.checkpoint(spec.table)?;
                self.checkpoints += 1;
            }
        }
        Ok(())
    }
}

/// What one session has completed so far. Shared between the session task
/// and the driver so results accumulated *before* a typed error are still
/// reported when the stream ends early (a caught panic discards them).
#[derive(Default)]
struct SessionAccum {
    latencies: Vec<Duration>,
    tuples: u64,
}

/// Waits for one session task and maps its outcome onto the driver's
/// per-stream result shape.
fn collect_session(
    session: (Arc<Mutex<SessionAccum>>, TaskHandle<StreamSessionTask>),
) -> (Vec<Duration>, u64, Option<StreamEnd>) {
    let (accum, handle) = session;
    let end = match handle.wait() {
        TaskOutcome::Finished(_) => None,
        TaskOutcome::Failed(error) => Some(StreamEnd::Error(error)),
        TaskOutcome::Panicked(message) => return (Vec::new(), 0, Some(StreamEnd::Panic(message))),
    };
    let mut accum = accum.lock();
    (std::mem::take(&mut accum.latencies), accum.tuples, end)
}

/// One [`QueryStep`] of a lowered [`QuerySpec`] as an aggregation query
/// (count + sum over the first column) over its range, so every registered
/// page is actually read and processed. A join's build step rides on its
/// probe step's query through the builder API's `.join(...)` clause.
struct QueryUnit {
    /// The unit's query, pinned when it opens.
    query: Query,
    range: TupleRange,
    /// Exact tuple count the unit must produce; `None` for predicated and
    /// joined units, whose count depends on the data.
    expected: Option<u64>,
}

/// One [`QuerySpec`] mid-execution inside a session task.
struct RunningQuery {
    label: String,
    started: Instant,
    tuples: u64,
    units: VecDeque<QueryUnit>,
    active: Option<(crate::sched::QueryTask, TupleRange, Option<u64>)>,
}

/// A workload stream as a cooperative session task: runs its
/// [`QuerySpec`]s back to back, one scan-range unit at a time, yielding at
/// every unit's batch boundaries via the embedded
/// [`QueryTask`](crate::sched::QueryTask).
struct StreamSessionTask {
    engine: Arc<Engine>,
    /// Relaxes the exact-count check to the rows currently visible — needed
    /// for mixed workloads, whose updates grow and shrink the row space
    /// between rounds (the visible count is barrier-stable, so the clamped
    /// expectation is still exact). Read-only workloads keep the strict
    /// check, so a spec range reaching past the table still surfaces as an
    /// error instead of silently scanning less.
    clamp_to_visible: bool,
    pending: VecDeque<QuerySpec>,
    current: Option<RunningQuery>,
    accum: Arc<Mutex<SessionAccum>>,
}

impl StreamSessionTask {
    /// Resolves a step's table-relative column indices to column names.
    fn resolve_columns(&self, label: &str, step: &QueryStep) -> Result<Vec<String>> {
        let table = self.engine.storage().table(step.table)?;
        step.columns
            .iter()
            .map(|&idx| {
                table
                    .spec
                    .columns
                    .get(idx)
                    .map(|c| c.name.clone())
                    .ok_or_else(|| {
                        Error::plan(format!(
                            "scan of query {label:?} selects column index {idx}, but table {} has \
                             only {} columns",
                            table.spec.name,
                            table.spec.columns.len()
                        ))
                    })
            })
            .collect()
    }

    /// Lowers a step's table-relative zone predicate into the builder API's
    /// projection-relative row predicate.
    fn resolve_predicate(label: &str, step: &QueryStep) -> Result<Option<Predicate>> {
        let Some(pred) = &step.predicate else {
            return Ok(None);
        };
        // The spec's predicate is table-relative; the builder API wants the
        // column's position within the projection.
        let position = step
            .columns
            .iter()
            .position(|&idx| idx == pred.column)
            .ok_or_else(|| {
                Error::plan(format!(
                    "scan of query {label:?} filters on column index {}, which is not among \
                     its scanned columns {:?}",
                    pred.column, step.columns
                ))
            })?;
        Ok(Some(Predicate::new(position, pred.op, pred.value)))
    }

    /// Lowers one [`QuerySpec`] into its units — one per [`QueryStep`] of the
    /// shared lowering, with a join's build step attached to its probe unit
    /// through the builder API's `.join(...)` clause (the build scan still
    /// registers with the backend and fully drains before any probe I/O) —
    /// resolving column indices to names and fixing each unit's expected
    /// tuple count.
    fn lower(&self, query: &QuerySpec) -> Result<RunningQuery> {
        let label = &query.label;
        let steps = query.steps(&mut |table| self.engine.visible_rows(table))?;
        let mut units = VecDeque::new();
        let mut build: Option<(TableId, Vec<String>)> = None;
        for (i, step) in steps.iter().enumerate() {
            let columns = self.resolve_columns(label, step)?;
            if steps.get(i + 1).is_some_and(|next| next.join_key.is_some()) {
                build = Some((step.table, columns));
                continue;
            }
            let predicate = Self::resolve_predicate(label, step)?;
            let join = step.join_key.zip(build.take());
            let expected = if predicate.is_some() || join.is_some() {
                // Predicated and joined units count whatever matches; the
                // spec cannot know the data-dependent cardinality.
                None
            } else if self.clamp_to_visible {
                let visible = self.engine.visible_rows(step.table)?;
                Some(step.range.intersect(&TupleRange::new(0, visible)).len())
            } else {
                Some(step.range.len())
            };
            let mut query = self
                .engine
                .query(step.table)
                .columns(columns)
                .tuple_range(step.range)
                .aggregate(AggrSpec::global(vec![Aggregate::Count, Aggregate::Sum(0)]));
            if let Some(predicate) = predicate {
                query = query.filter(predicate);
            }
            if let Some((left_col, (table, mut names))) = join {
                let right_key = names.remove(0);
                query = query.join(table, left_col, right_key).join_columns(names);
            }
            units.push_back(QueryUnit {
                query,
                range: step.range,
                expected,
            });
        }
        Ok(RunningQuery {
            label: label.clone(),
            started: Instant::now(),
            tuples: query.total_tuples(),
            units,
            active: None,
        })
    }
}

impl Task for StreamSessionTask {
    fn step(&mut self) -> Result<TaskStep> {
        // The running query is taken out of `self` for the quantum (and put
        // back unless it completed); on an error path it stays out, but an
        // erroring step ends the whole session anyway.
        let Some(mut running) = self.current.take() else {
            // Between queries: lower the next spec or finish the session.
            return match self.pending.pop_front() {
                Some(query) => {
                    self.current = Some(self.lower(&query)?);
                    Ok(TaskStep::Yield)
                }
                None => Ok(TaskStep::Done),
            };
        };
        if let Some((task, range, expected)) = &mut running.active {
            match task.step()? {
                TaskStep::Yield => {
                    self.current = Some(running);
                    return Ok(TaskStep::Yield);
                }
                TaskStep::Done => {
                    let counted = task.result().get(&0).map(|g| g.count).unwrap_or(0);
                    if let Some(expected) = *expected {
                        if counted != expected {
                            return Err(Error::internal(format!(
                                "query {:?} counted {counted} tuples in {range:?}, expected \
                                 {expected}",
                                running.label
                            )));
                        }
                    }
                    running.active = None;
                }
            }
        }
        match running.units.pop_front() {
            Some(unit) => {
                let task = unit.query.into_task()?;
                running.active = Some((task, unit.range, unit.expected));
                self.current = Some(running);
            }
            None => {
                let mut accum = self.accum.lock();
                accum.latencies.push(running.started.elapsed());
                accum.tuples += running.tuples;
            }
        }
        Ok(TaskStep::Yield)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanshare_common::{PolicyKind, RangeList, ScanShareConfig, TableId};
    use scanshare_storage::storage::Storage;
    use scanshare_workload::microbench::{self, MicrobenchConfig};
    use scanshare_workload::spec::{JoinSpec, ScanSpec, StreamSpec};

    const PAGE: u64 = 16 * 1024;

    fn setup() -> (Arc<Storage>, WorkloadSpec) {
        let config = MicrobenchConfig {
            streams: 3,
            queries_per_stream: 2,
            lineitem_tuples: 30_000,
            ..MicrobenchConfig::tiny()
        };
        microbench::build(&config, PAGE, 5_000).unwrap()
    }

    fn engine(storage: &Arc<Storage>, policy: PolicyKind) -> Arc<Engine> {
        Engine::new(
            Arc::clone(storage),
            ScanShareConfig {
                page_size_bytes: PAGE,
                chunk_tuples: 5_000,
                buffer_pool_bytes: 64 * PAGE,
                policy,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn driver_executes_every_stream_and_reports_consistent_metrics() {
        let (storage, workload) = setup();
        for policy in [PolicyKind::Lru, PolicyKind::Pbm, PolicyKind::CScan] {
            let engine = engine(&storage, policy);
            let report = WorkloadDriver::new(Arc::clone(&engine))
                .run(&workload)
                .unwrap();
            assert_eq!(report.streams, 3, "{policy}");
            assert_eq!(report.queries, 6, "{policy}");
            assert_eq!(report.tuples, workload.total_tuples(), "{policy}");
            assert_eq!(report.latencies.len(), 6, "{policy}");
            assert!(report.queries_per_sec() > 0.0, "{policy}");
            assert!(report.tuples_per_sec() > 0.0, "{policy}");
            assert!(report.virtual_elapsed > VirtualDuration::ZERO, "{policy}");
            // Percentiles are ordered and taken from the observed samples.
            let (p50, p99) = (report.p50().unwrap(), report.p99().unwrap());
            assert!(p50 <= p99, "{policy}");
            assert_eq!(p99, *report.latencies.last().unwrap(), "{policy}");
            // The pool and the device agree on the transferred volume.
            assert!(report.buffer.io_bytes > 0, "{policy}");
            assert_eq!(report.buffer.io_bytes, report.io.bytes_read, "{policy}");
        }
    }

    #[test]
    fn starvation_is_stream_local_and_clean_cscan_runs_report_no_stream_errors() {
        use scanshare_common::ScanId;
        // Classification: only starvation is surfaced per stream; anything
        // else fails the workload as before.
        assert!(is_stream_local(&Error::ScanStarved(ScanId::new(1))));
        assert!(is_stream_local(&Error::io("pread failed")));
        assert!(!is_stream_local(&Error::internal("boom")));
        assert!(!is_stream_local(&Error::UnknownScan(ScanId::new(1))));
        // A healthy multi-stream CScan workload reports no stream errors.
        let (storage, workload) = setup();
        let engine = engine(&storage, PolicyKind::CScan);
        let report = WorkloadDriver::new(engine).run(&workload).unwrap();
        assert!(report.stream_errors.is_empty());
        assert_eq!(report.queries, 6);
    }

    #[test]
    fn driver_rejects_specs_with_out_of_range_columns() {
        let (storage, _) = setup();
        let engine = engine(&storage, PolicyKind::Lru);
        let bogus = WorkloadSpec::read_only(
            "bogus",
            vec![StreamSpec {
                label: "s0".into(),
                queries: vec![QuerySpec {
                    label: "bad".into(),
                    scans: vec![ScanSpec {
                        table: TableId::new(0),
                        columns: vec![99],
                        ranges: RangeList::single(0, 10),
                        predicate: None,
                    }],
                    cpu_factor: 1.0,
                    join: None,
                }],
            }],
        );
        assert!(WorkloadDriver::new(engine).run(&bogus).is_err());
    }

    #[test]
    fn join_queries_run_through_the_driver() {
        use scanshare_storage::column::{ColumnSpec, ColumnType};
        use scanshare_storage::datagen::DataGen;
        use scanshare_storage::table::TableSpec;

        let (storage, _) = setup();
        let dim = storage
            .create_table_with_data(
                TableSpec::new(
                    "dim",
                    vec![
                        ColumnSpec::with_width("d_key", ColumnType::Dict { cardinality: 3 }, 0.5),
                        ColumnSpec::with_width("d_weight", ColumnType::Decimal, 2.0),
                    ],
                    3,
                ),
                vec![
                    DataGen::Cyclic {
                        period: 3,
                        min: 0,
                        max: 2,
                    },
                    DataGen::Uniform { min: 1, max: 9 },
                ],
            )
            .unwrap();
        // Probe lineitem's l_returnflag (cardinality 3) against the 3-row
        // dim key: every probe row matches exactly one build row.
        let workload = WorkloadSpec::read_only(
            "join",
            vec![StreamSpec {
                label: "s0".into(),
                queries: vec![QuerySpec {
                    label: "join-q".into(),
                    scans: vec![
                        ScanSpec {
                            table: dim,
                            columns: vec![0, 1],
                            ranges: RangeList::single(0, 3),
                            predicate: None,
                        },
                        ScanSpec {
                            table: TableId::new(0),
                            columns: vec![0, 4],
                            ranges: RangeList::single(0, 10_000),
                            predicate: None,
                        },
                    ],
                    cpu_factor: 1.0,
                    join: Some(JoinSpec {
                        left_col: 1,
                        right_col: 0,
                    }),
                }],
            }],
        );
        for policy in [PolicyKind::Lru, PolicyKind::Pbm, PolicyKind::CScan] {
            let engine = engine(&storage, policy);
            let report = WorkloadDriver::new(engine).run(&workload).unwrap();
            assert!(report.stream_errors.is_empty(), "{policy}");
            assert_eq!(report.queries, 1, "{policy}");
            assert_eq!(report.tuples, 10_003, "{policy}");
            assert!(report.buffer.io_bytes > 0, "{policy}");
        }
        // A build scan that does not cover the full table is a plan error.
        let mut bad = workload.clone();
        bad.streams[0].queries[0].scans[0].ranges = RangeList::single(0, 2);
        let err = WorkloadDriver::new(engine(&storage, PolicyKind::Lru))
            .run(&bad)
            .unwrap_err();
        assert!(err.to_string().contains("full build table"), "{err}");
    }

    #[test]
    fn empty_workloads_produce_an_empty_report() {
        let (storage, _) = setup();
        let engine = engine(&storage, PolicyKind::Lru);
        let empty = WorkloadSpec::read_only("empty", Vec::new());
        let report = WorkloadDriver::new(engine).run(&empty).unwrap();
        assert_eq!(report.queries, 0);
        assert!(report.p50().is_none());
    }

    #[test]
    fn a_panicking_stream_is_reported_not_propagated() {
        use scanshare_core::policy::{ReplacementPolicy, ScanInfo};
        use scanshare_core::registry::PolicyRegistry;
        use scanshare_storage::layout::ScanPagePlan;
        use std::collections::HashSet;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc as StdArc;

        /// FIFO eviction that panics on the first scan registration — the
        /// stream that reaches the backend first dies mid-query.
        #[derive(Debug)]
        struct PanicOnce {
            tripped: StdArc<AtomicBool>,
            order: Vec<scanshare_common::PageId>,
        }

        impl ReplacementPolicy for PanicOnce {
            fn name(&self) -> &'static str {
                "panic-once"
            }
            fn register_scan(
                &mut self,
                _: &ScanInfo,
                _: &ScanPagePlan,
                _: scanshare_common::VirtualInstant,
            ) {
                if !self.tripped.swap(true, Ordering::SeqCst) {
                    panic!("injected register_scan panic");
                }
            }
            fn report_scan_position(
                &mut self,
                _: scanshare_common::ScanId,
                _: u64,
                _: scanshare_common::VirtualInstant,
            ) {
            }
            fn unregister_scan(
                &mut self,
                _: scanshare_common::ScanId,
                _: scanshare_common::VirtualInstant,
            ) {
            }
            fn on_access(
                &mut self,
                _: scanshare_common::PageId,
                _: Option<scanshare_common::ScanId>,
                _: scanshare_common::VirtualInstant,
            ) {
            }
            fn on_admit(
                &mut self,
                page: scanshare_common::PageId,
                _: scanshare_common::VirtualInstant,
            ) {
                self.order.push(page);
            }
            fn on_evict(&mut self, page: scanshare_common::PageId) {
                self.order.retain(|&p| p != page);
            }
            fn choose_victims(
                &mut self,
                count: usize,
                exclude: &HashSet<scanshare_common::PageId>,
                _: scanshare_common::VirtualInstant,
            ) -> Vec<scanshare_common::PageId> {
                self.order
                    .iter()
                    .copied()
                    .filter(|p| !exclude.contains(p))
                    .take(count)
                    .collect()
            }
        }

        let (storage, workload) = setup();
        let tripped = StdArc::new(AtomicBool::new(false));
        let mut registry = PolicyRegistry::default();
        let shared = StdArc::clone(&tripped);
        registry.register("panic-once", move |_| {
            Box::new(PanicOnce {
                tripped: StdArc::clone(&shared),
                order: Vec::new(),
            })
        });
        let config = ScanShareConfig {
            page_size_bytes: PAGE,
            chunk_tuples: 5_000,
            buffer_pool_bytes: 64 * PAGE,
            policy: PolicyKind::Lru,
            ..Default::default()
        }
        .with_custom_policy("panic-once");
        let engine = Engine::with_registry(storage, config, &registry).unwrap();
        let report = WorkloadDriver::new(engine).run(&workload).unwrap();
        assert!(tripped.load(Ordering::SeqCst), "the panic fired");
        // Exactly one stream ends on the caught panic; the others run to
        // completion (3 streams x 2 queries - the panicked stream's 2).
        assert_eq!(report.stream_errors.len(), 1);
        assert!(matches!(
            report.stream_errors[0],
            StreamError::Panicked { .. }
        ));
        assert!(report.stream_errors[0].error().is_none());
        assert!(format!("{:?}", report.stream_errors[0]).contains("injected register_scan panic"));
        assert_eq!(report.queries, 4);
    }
}
