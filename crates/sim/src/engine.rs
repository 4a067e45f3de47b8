//! The discrete-event simulator.
//!
//! The simulator runs its workload on an execution [`Engine`] and replaces only
//! the engine's *clock*. Every run builds one engine over the simulated device
//! ([`DeviceKind::Sim`]) and uses it for everything but timing: the event loop
//! drives the engine's [`ScanBackend`] — registering, requesting, reporting and
//! unregistering through the trait, never looking behind it — queries are
//! planned against the engine's table pins, update batches and checkpoints go
//! through the [`UpdateBarrier`] the engine-side `WorkloadDriver` runs, and OPT
//! is the engine's [`opt_result`](Engine::opt_result). Backends are clock-free,
//! so where the engine advances a shared monotone clock to the instant a call
//! returned, the simulator schedules the stream's next event there.
//!
//! Streams execute their queries back to back. A query is lowered into its scan
//! steps by the shared [`QuerySpec::steps`], and each step's backend request is
//! built by the engine's own builder, [`Engine::scan_request`], the one its
//! scan operator registers through. One event loop (`Simulation::phase`) then
//! drives every backend the way the engine's scan operator does: a registered
//! scan asks `next_chunk` for the next range to produce — in table order from
//! the page-level policies (LRU, PBM, the PBM run recording OPT's trace), in
//! whatever order the Active Buffer Manager chooses under Cooperative Scans —
//! and a stream consumes one step of that range per event, blocking while
//! starved; the backend's loader step ([`ScanBackend::pump_loads`], the one the
//! engine runs before every probe) runs beside the streams for the backends
//! that load chunks. Misses and chunk loads are served by a bandwidth-limited
//! [`IoDevice`](scanshare_iosim::IoDevice); CPU work is charged by the shared
//! [`cpu_time`], per tuple of a step, scaled by the query's CPU factor and
//! divided by the effective intra-query parallelism (`cores / streams`, at
//! least 1), where the engine charges its rows at factor 1 on one core
//! (ARCHITECTURE.md, "The CPU charge", lists what still differs).
//!
//! # Mixed read/write workloads
//!
//! Like the `WorkloadDriver`, the simulator runs a workload phase by phase
//! ([`WorkloadSpec::phases`]) with the update barrier before each: a
//! read-only workload is one phase, a mixed one a phase per **round**. At
//! every round barrier each update stream commits its generated batch as
//! one engine transaction and checkpoints its table when due (the new image
//! swapped in, the superseded pages handed to the backend's
//! `invalidate_stale` hook); then one query per stream runs concurrently.
//! The engine logs nothing (no simulator run sets a durability directory).
//! Scans are planned against the engine's pins, so both executors touch the
//! identical page sets and their I/O volumes match byte for byte. The
//! engine, its backend and its I/O device persist across rounds — the whole
//! point of the model is measuring how updates and checkpoints churn a
//! *warm* buffer pool.
//!
//! Note that simulating a mixed workload **mutates the storage** (checkpoint
//! snapshots are installed and promoted to master); give each mixed run its
//! own deterministically rebuilt `Storage` rather than sharing one across
//! runs.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};
use std::sync::Arc;

use scanshare_common::hash::IdHashSet;
use scanshare_common::{
    cpu_time, DeviceKind, Error, PageId, PolicyKind, RangeList, Result, ScanId, ScanShareConfig,
    VirtualDuration, VirtualInstant,
};
use scanshare_core::backend::{ScanBackend, ScanRequest, ScanStep};
use scanshare_core::metrics::BufferStats;
use scanshare_exec::{Engine, UpdateBarrier};
use scanshare_storage::storage::Storage;
use scanshare_workload::spec::{QuerySpec, WorkloadSpec};

use crate::result::SimResult;
use crate::sharing::SharingProfile;

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Storage / buffer / policy configuration shared with the rest of the
    /// workspace.
    pub scanshare: ScanShareConfig,
    /// Number of CPU cores of the simulated server (the paper's machine has
    /// two 4-core CPUs).
    pub cores: usize,
    /// When set, the simulator records a sharing-potential sample every this
    /// much virtual time (Figures 17/18).
    pub sharing_sample_interval: Option<VirtualDuration>,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            scanshare: ScanShareConfig::default(),
            cores: 8,
            sharing_sample_interval: None,
        }
    }
}

/// A simulation of one workload against one policy.
#[derive(Debug)]
pub struct Simulation {
    storage: Arc<Storage>,
    config: SimConfig,
}

// ---------------------------------------------------------------------------
// Internal run state
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    /// Stream `s` takes its next step.
    Stream(usize),
    /// The chunk load in flight completes: blocked streams wake.
    LoadDone,
}

/// The event queue of one phase: events pop in time order, ties in push
/// order.
#[derive(Debug, Default)]
struct EventQueue {
    heap: BinaryHeap<Reverse<(u64, u64, EventKind)>>,
    seq: u64,
    /// Completion of the chunk load in flight, whose `LoadDone` is queued.
    load_due: Option<u64>,
}

impl EventQueue {
    /// Runs the backend's loader step at `now`, queueing a `LoadDone` at the
    /// completion of a load the step newly put in flight.
    fn pump_loads(&mut self, backend: &dyn ScanBackend, now: VirtualInstant) -> Result<()> {
        let due = backend.pump_loads(now)?.map(VirtualInstant::as_nanos);
        if let Some(done) = due.filter(|&done| Some(done) != self.load_due) {
            self.push(done, EventKind::LoadDone);
        }
        self.load_due = due;
        Ok(())
    }

    fn push(&mut self, time_ns: u64, kind: EventKind) {
        self.heap.push(Reverse((time_ns, self.seq, kind)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(u64, EventKind)> {
        self.heap
            .pop()
            .map(|Reverse((time_ns, _, kind))| (time_ns, kind))
    }
}

/// One scan step of a query, planned against the `(Snapshot, Pdt)` pair its
/// executor pins: the master snapshot untouched for read-only workloads, the
/// table state's (possibly checkpoint-swapped, updated) pair in mixed ones.
#[derive(Debug, Clone)]
struct ResolvedScan {
    /// What the step registers; `None` when the visible range maps to no
    /// stable data (no backend scan is registered then — pure PDT rows cost
    /// no I/O).
    request: Option<ScanRequest>,
    /// The probe step of a join: it registers only once every earlier step
    /// of its query (the build side) has drained, exactly like the engine's
    /// `QueryTask` join phase.
    barrier: bool,
}

/// What a stream consumes in one event: one page of a delivered range, or
/// a whole delivered chunk (see [`Simulation::steps_of`]).
#[derive(Debug, Clone, Copy)]
struct Step {
    /// The page to request first; `None` when the backend already loaded
    /// the range.
    page: Option<PageId>,
    /// Tuples consumed: the step's CPU charge.
    tuples: u64,
    /// Rows of the scan's range list consumed before the step
    /// (`PageDescriptor::tuples_behind` of the whole scan's plan): the
    /// position reported with it.
    position: u64,
}

/// One registered scan of a query in flight.
#[derive(Debug, Clone)]
struct Part {
    request: ScanRequest,
    id: ScanId,
    /// The ranges `next_chunk` delivered so far, the one being consumed
    /// included.
    delivered: RangeList,
    /// Rows of the scan's range list in `delivered`.
    rows: u64,
    /// The steps of the range being consumed; `next` is the first one not
    /// consumed yet.
    steps: Vec<Step>,
    next: usize,
}

/// One query with its scan steps resolved, queued or in flight.
#[derive(Debug, Clone)]
struct QueryRun {
    /// The registered scans; the front one is being consumed.
    parts: VecDeque<Part>,
    /// The steps not registered yet, in step order.
    waiting: VecDeque<ResolvedScan>,
    /// The query's [`QuerySpec::cpu_factor`].
    cpu_factor: f64,
    started: VirtualInstant,
}

/// One stream of a phase: its queued queries, the query in flight and the
/// time it ran out of queries.
#[derive(Debug)]
struct Stream {
    queries: VecDeque<QueryRun>,
    current: Option<QueryRun>,
    finished: Option<VirtualInstant>,
}

/// Periodic sharing-potential sampling state (Figures 17/18); it survives
/// the phases of a mixed run.
struct SharingSampler {
    profile: Option<SharingProfile>,
    next_sample: u64,
    interval: u64,
}

impl SharingSampler {
    fn new(interval: Option<VirtualDuration>) -> Self {
        Self {
            profile: interval.map(|_| SharingProfile::default()),
            next_sample: 0,
            interval: interval.map(|d| d.as_nanos()).unwrap_or(u64::MAX),
        }
    }

    /// Pushes a sample when `time_ns` reached the next sampling point;
    /// `outstanding` (the per-scan still-to-consume page sets) is only
    /// evaluated when a sample is actually taken.
    fn sample_if_due<F>(&mut self, time_ns: u64, page_size: u64, outstanding: F)
    where
        F: FnOnce() -> Vec<Vec<PageId>>,
    {
        let Some(profile) = self.profile.as_mut() else {
            return;
        };
        if time_ns < self.next_sample {
            return;
        }
        let outstanding = outstanding();
        profile.push(SharingProfile::sample_from_outstanding(
            VirtualInstant::from_nanos(time_ns),
            page_size,
            outstanding.iter(),
        ));
        self.next_sample = time_ns + self.interval;
    }

    fn into_profile(self) -> Option<SharingProfile> {
        self.profile
    }
}

/// Persistent state of a run: survives round barriers so checkpointed tables
/// churn warm buffers, exactly as in the engine.
struct RunState<'a> {
    backend: &'a dyn ScanBackend,
    sampler: SharingSampler,
    query_latencies: Vec<VirtualDuration>,
}

impl Simulation {
    /// Creates a simulation over `storage` (which must already contain the
    /// workload's tables).
    pub fn new(storage: Arc<Storage>, config: SimConfig) -> Result<Self> {
        config.scanshare.validate()?;
        if config.cores == 0 {
            return Err(Error::config(
                "the simulated machine needs at least one core",
            ));
        }
        Ok(Self { storage, config })
    }

    /// Total volume of distinct data accessed by the workload, in bytes
    /// (the quantity the paper sizes buffer pools against: "buffer pool
    /// capacity equal to 40% of accessed data volume"). Computed against the
    /// current master snapshots, before any update stream runs.
    pub fn accessed_volume(&self, workload: &WorkloadSpec) -> Result<u64> {
        let mut pages: IdHashSet<PageId> = IdHashSet::default();
        for stream in &workload.streams {
            for query in &stream.queries {
                for scan in &query.scans {
                    let layout = self.storage.layout(scan.table)?;
                    let snapshot = self.storage.master_snapshot(scan.table)?;
                    let plan = layout.scan_page_plan(&snapshot, &scan.columns, &scan.ranges);
                    pages.extend(plan.pages.iter().map(|p| p.page));
                }
            }
        }
        Ok(pages.len() as u64 * self.config.scanshare.page_size_bytes)
    }

    /// Runs `workload` under the policy selected in the configuration: its
    /// queries are resolved and run through the event loop over one
    /// engine's backend, phase by phase behind the update barrier. See the
    /// [module docs](self) for how workloads with update streams are
    /// executed (and note they mutate the storage).
    ///
    /// `PolicyKind::Opt` runs under PBM while the backend records the page
    /// reference trace, then replays the trace through Belady's algorithm:
    /// the result carries the oracle's I/O volume and no timing, exactly
    /// like the paper's OPT methodology.
    pub fn run(&self, workload: &WorkloadSpec) -> Result<SimResult> {
        let policy = self.config.scanshare.policy;
        if workload.has_updates() && policy == PolicyKind::Opt {
            return Err(Error::Unsupported(
                "OPT trace replay is undefined across checkpoint invalidations; \
                 run mixed workloads under lru, pbm or cscan"
                    .into(),
            ));
        }
        let scanshare = &self.config.scanshare;
        let engine = Engine::new(
            Arc::clone(&self.storage),
            scanshare.clone().with_device(DeviceKind::Sim),
        )?;
        let mut state = RunState {
            backend: engine.backend(),
            sampler: SharingSampler::new(self.config.sharing_sample_interval),
            query_latencies: Vec::new(),
        };
        let mut barrier = UpdateBarrier::new(workload);
        let mut finish_ns = vec![0u64; workload.stream_count()];
        let mut start_ns = 0u64;
        for (round, phase) in workload.phases().into_iter().enumerate() {
            barrier.apply(&engine, round)?;
            let queries: Vec<VecDeque<QueryRun>> = phase
                .iter()
                .map(|queries| queries.iter().map(|q| Self::resolve(&engine, q)).collect())
                .collect::<Result<_>>()?;
            let phase_finish = self.phase(&mut state, queries, start_ns)?;
            // A stream idle in this phase keeps the finish time of its last
            // query; the next phase starts once every stream is done.
            for (s, queries) in phase.iter().enumerate() {
                if !queries.is_empty() {
                    finish_ns[s] = phase_finish[s];
                }
            }
            start_ns = start_ns.max(phase_finish.iter().copied().max().unwrap_or(start_ns));
        }

        let since_epoch = |ns: u64| VirtualInstant::from_nanos(ns).since(VirtualInstant::EPOCH);
        let stats = engine.buffer_stats();
        let mut result = SimResult {
            workload: workload.name.clone(),
            policy,
            stream_times: finish_ns.iter().map(|&ns| since_epoch(ns)).collect(),
            query_latencies: state.query_latencies,
            total_io_bytes: stats.io_bytes,
            buffer: stats,
            makespan: since_epoch(finish_ns.iter().copied().max().unwrap_or(0)),
            has_timing: true,
            sharing: state.sampler.into_profile(),
        };
        if policy == PolicyKind::Opt {
            let opt = engine.opt_result()?;
            let io_bytes = opt.io_bytes(scanshare.page_size_bytes);
            result.query_latencies = Vec::new();
            result.total_io_bytes = io_bytes;
            result.buffer = BufferStats {
                hits: opt.hits,
                misses: opt.misses,
                evictions: opt.evictions,
                pages_loaded: opt.misses,
                io_bytes,
                ..BufferStats::default()
            };
            result.has_timing = false;
            result.sharing = None;
        }
        Ok(result)
    }

    /// Resolves a query against the engine's table pins, the way the
    /// engine's own scans resolve it: the shared lowering turns the spec into
    /// scan steps, and the engine's request builder
    /// ([`Engine::scan_request`]) turns each step's visible-row range into
    /// the request to register (clamped, translated through the pinned PDT,
    /// zone-pruned under the configuration's and the empty-PDT gate),
    /// recording the skipped tuples.
    fn resolve(engine: &Engine, query: &QuerySpec) -> Result<QueryRun> {
        let steps = query.steps(&mut |table| engine.visible_rows(table))?;
        let mut waiting = VecDeque::with_capacity(steps.len());
        for step in steps {
            let pin = engine.table_pin(step.table)?;
            let flat = pin.flatten()?;
            let predicate = step.predicate.as_ref();
            let (_, request) =
                engine.scan_request(&pin, &flat, &step.columns, step.range, predicate, false)?;
            let barrier = step.join_key.is_some();
            waiting.push_back(ResolvedScan { request, barrier });
        }
        Ok(QueryRun {
            parts: VecDeque::new(),
            waiting,
            cpu_factor: query.cpu_factor,
            started: VirtualInstant::EPOCH,
        })
    }

    /// Registers the query's next steps once none of its registered scans is
    /// left, skipping the steps with no stable data (the engine registers no
    /// backend scan for PDT-only ranges).
    ///
    /// One of the model's two differences from the engine (ROADMAP "One CPU
    /// model in one function"): a page-level backend registers every step up
    /// to the next join barrier at once, so the probe scan opens only once
    /// the build side drained; Cooperative Scans, like the engine, register
    /// one scan at a time.
    fn register_next(
        backend: &dyn ScanBackend,
        run: &mut QueryRun,
        now: VirtualInstant,
    ) -> Result<()> {
        while run.parts.is_empty() && !run.waiting.is_empty() {
            let group = if backend.kind().is_order_preserving() {
                let barrier = run.waiting.iter().skip(1).position(|s| s.barrier);
                barrier.map_or(run.waiting.len(), |i| i + 1)
            } else {
                1
            };
            for scan in run.waiting.drain(..group) {
                let Some(request) = scan.request else {
                    continue;
                };
                run.parts.push_back(Part {
                    id: backend.register_scan(request.clone(), now)?,
                    request,
                    delivered: RangeList::new(),
                    rows: 0,
                    steps: Vec::new(),
                    next: 0,
                });
            }
        }
        Ok(())
    }

    /// The steps of consuming `ranges` — the part of the scan's range list
    /// in the range `next_chunk` just delivered to `part`, after the ranges
    /// it already consumed.
    ///
    /// The other of the model's two differences from the engine (ROADMAP
    /// "One CPU model in one function"): a page-level backend gets one step
    /// per page of the range, in the `(tuples_behind, column)` order the
    /// engine's merge cursor requests them, each charged the page's
    /// `tuple_count` — a scan of k columns pays k times per row; Cooperative
    /// Scans get one step per chunk, charged once per row like the engine.
    fn steps_of(backend: &dyn ScanBackend, part: &Part, ranges: &RangeList) -> Vec<Step> {
        if !backend.kind().is_order_preserving() {
            return vec![Step {
                page: None,
                tuples: ranges.total_tuples(),
                position: part.rows,
            }];
        }
        let request = &part.request;
        let plan = request
            .layout
            .scan_page_plan(&request.snapshot, &request.columns, ranges);
        let steps = plan.interleaved().into_iter().map(|p| Step {
            page: Some(p.page),
            tuples: p.tuple_count,
            position: part.rows + p.tuples_behind,
        });
        steps.collect()
    }

    /// The distinct pages `part` still has to read, ascending: the rest of
    /// the range being consumed and every range not delivered yet (the
    /// sharing-potential sampling input of Figures 17/18).
    fn outstanding_pages(part: &Part) -> Vec<PageId> {
        let request = &part.request;
        let remaining = request.ranges.subtract(&part.delivered);
        let plan = request
            .layout
            .scan_page_plan(&request.snapshot, &request.columns, &remaining);
        let mut pages: Vec<PageId> = part.steps[part.next..]
            .iter()
            .filter_map(|step| step.page)
            .chain(plan.pages.iter().map(|p| p.page))
            .collect();
        pages.sort_unstable();
        pages.dedup();
        pages
    }

    /// Runs one phase (a whole read-only workload, or one round of a mixed
    /// one) of the event loop over the persistent `state`, driving the
    /// backend the way the engine's scan operator does: a stream's front
    /// registered scan asks `next_chunk` for the next range to produce, and
    /// one event consumes one [`Step`] of it, the stream's next event
    /// falling at the instant the step's page is usable (at once when it has
    /// none) plus the step's CPU time. A starved stream blocks; the loader —
    /// the backend's `pump_loads` step, run at each `LoadDone` event, at
    /// query start, at scan finish and on starvation — runs beside the
    /// streams, and a `LoadDone` wakes the blocked ones whenever a load
    /// lands (a pooled backend never loads one). `phase_queries` holds each
    /// stream's queries for this phase; all streams start at `start_ns`.
    /// Returns each stream's finish time.
    fn phase(
        &self,
        state: &mut RunState<'_>,
        phase_queries: Vec<VecDeque<QueryRun>>,
        start_ns: u64,
    ) -> Result<Vec<u64>> {
        let page_size = self.config.scanshare.page_size_bytes;
        let parallelism = (self.config.cores / phase_queries.len().max(1)).max(1) as u64;
        let backend = state.backend;
        let mut streams: Vec<Stream> = phase_queries
            .into_iter()
            .map(|queries| Stream {
                queries,
                current: None,
                finished: None,
            })
            .collect();
        let mut events = EventQueue::default();
        for s in 0..streams.len() {
            events.push(start_ns, EventKind::Stream(s));
        }
        // Ordered: blocked streams wake in index order, so scheduling (and
        // therefore I/O volumes) cannot vary between processes.
        let mut blocked: BTreeSet<usize> = BTreeSet::new();

        'events: while let Some((now_ns, kind)) = events.pop() {
            let now = VirtualInstant::from_nanos(now_ns);
            state.sampler.sample_if_due(now_ns, page_size, || {
                streams
                    .iter()
                    .filter_map(|st| st.current.as_ref())
                    .flat_map(|q| q.parts.iter().map(Self::outstanding_pages))
                    .collect()
            });

            let s = match kind {
                EventKind::LoadDone => {
                    for s in std::mem::take(&mut blocked) {
                        events.push(now_ns, EventKind::Stream(s));
                    }
                    events.pump_loads(backend, now)?;
                    continue;
                }
                EventKind::Stream(s) => s,
            };

            let stream = &mut streams[s];
            if stream.current.is_none() {
                let Some(mut run) = stream.queries.pop_front() else {
                    stream.finished.get_or_insert(now);
                    continue;
                };
                run.started = now;
                Self::register_next(backend, &mut run, now)?;
                stream.current = Some(run);
                events.pump_loads(backend, now)?;
            }

            let run = stream.current.as_mut().expect("set above");
            let Some(part) = run.parts.front_mut() else {
                // Every step drained: the query is finished.
                state.query_latencies.push(now.since(run.started));
                stream.current = None;
                events.push(now_ns, EventKind::Stream(s));
                continue;
            };
            while part.next == part.steps.len() {
                match backend.next_chunk(part.id)? {
                    ScanStep::Deliver(range) => {
                        let ranges = part.request.ranges.intersect_range(&range);
                        part.steps = Self::steps_of(backend, part, &ranges);
                        part.next = 0;
                        part.rows += ranges.total_tuples();
                        part.delivered.add(range);
                    }
                    ScanStep::Finished => {
                        backend.finish_scan(part.id, now);
                        run.parts.pop_front();
                        Self::register_next(backend, run, now)?;
                        events.push(now_ns, EventKind::Stream(s));
                        events.pump_loads(backend, now)?;
                        continue 'events;
                    }
                    ScanStep::Starved => {
                        blocked.insert(s);
                        events.pump_loads(backend, now)?;
                        continue 'events;
                    }
                }
            }
            let step = part.steps[part.next];
            part.next += 1;
            let ready = match step.page {
                Some(page) => backend.request_page(part.id, page, now)?,
                None => now,
            };
            backend.report_position(part.id, step.position, now);
            let cpu = cpu_time(step.tuples, run.cpu_factor, parallelism);
            events.push((ready + cpu).as_nanos(), EventKind::Stream(s));
        }

        let finish: Option<Vec<u64>> = streams
            .iter()
            .map(|s| s.finished.map(|at| at.as_nanos()))
            .collect();
        finish.ok_or_else(|| {
            Error::internal("simulation deadlocked: buffer pool too small for one chunk")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    use scanshare_common::{Bandwidth, TupleRange};
    use scanshare_storage::layout::ScanPagePlan;
    use scanshare_workload::microbench::{self, MicrobenchConfig};
    use scanshare_workload::spec::ScanSpec;

    fn sim_config(policy: PolicyKind, pool_bytes: u64) -> SimConfig {
        SimConfig {
            scanshare: ScanShareConfig {
                page_size_bytes: 64 * 1024,
                chunk_tuples: 10_000,
                buffer_pool_bytes: pool_bytes,
                io_bandwidth: Bandwidth::from_mb_per_sec(700.0),
                policy,
                ..Default::default()
            },
            cores: 8,
            sharing_sample_interval: None,
        }
    }

    fn build_micro() -> (Arc<Storage>, scanshare_workload::WorkloadSpec) {
        let config = MicrobenchConfig::tiny();
        microbench::build(&config, 64 * 1024, 10_000).unwrap()
    }

    #[test]
    fn all_policies_complete_the_microbenchmark() {
        let (storage, workload) = build_micro();
        for policy in PolicyKind::ALL {
            let sim =
                Simulation::new(Arc::clone(&storage), sim_config(policy, 512 * 1024)).unwrap();
            let result = sim.run(&workload).unwrap();
            assert_eq!(result.policy, policy);
            assert!(result.total_io_bytes > 0, "{policy}: no I/O recorded");
            if policy != PolicyKind::Opt {
                assert_eq!(result.stream_times.len(), workload.stream_count());
                assert!(result.makespan > VirtualDuration::ZERO);
                assert_eq!(result.query_latencies.len(), workload.query_count());
                assert!(result.avg_stream_time_secs().unwrap() > 0.0);
            } else {
                assert!(result.avg_stream_time_secs().is_none());
            }
        }
    }

    #[test]
    fn accessed_volume_counts_distinct_pages_once() {
        let (storage, workload) = build_micro();
        let sim = Simulation::new(storage, sim_config(PolicyKind::Lru, 1 << 20)).unwrap();
        let accessed = sim.accessed_volume(&workload).unwrap();
        assert!(accessed > 0);
        // Accessed volume can never exceed the total compressed table size
        // (plus page rounding per column).
        let table_bytes = 1_200_000u64; // 100k tuples * ~11 B/tuple + slack
        assert!(
            accessed < 2 * table_bytes,
            "accessed volume {accessed} looks too large"
        );
    }

    #[test]
    fn scan_aware_policies_do_less_io_than_lru_under_pressure() {
        let (storage, workload) = build_micro();
        let sim_of = |policy| {
            let accessed = {
                let sim =
                    Simulation::new(Arc::clone(&storage), sim_config(policy, 1 << 20)).unwrap();
                sim.accessed_volume(&workload).unwrap()
            };
            // 40% of the accessed volume, as in the paper's default setting.
            let pool = (accessed * 2 / 5).max(4 * 64 * 1024);
            Simulation::new(Arc::clone(&storage), sim_config(policy, pool)).unwrap()
        };
        let lru = sim_of(PolicyKind::Lru).run(&workload).unwrap();
        let pbm = sim_of(PolicyKind::Pbm).run(&workload).unwrap();
        let cscan = sim_of(PolicyKind::CScan).run(&workload).unwrap();
        let opt = sim_of(PolicyKind::Opt).run(&workload).unwrap();
        assert!(
            pbm.total_io_bytes <= lru.total_io_bytes,
            "PBM ({}) must not exceed LRU ({})",
            pbm.total_io_bytes,
            lru.total_io_bytes
        );
        assert!(
            cscan.total_io_bytes <= lru.total_io_bytes,
            "CScans ({}) must not exceed LRU ({})",
            cscan.total_io_bytes,
            lru.total_io_bytes
        );
        assert!(
            opt.total_io_bytes <= pbm.total_io_bytes,
            "OPT is a lower bound for the PBM trace"
        );
    }

    #[test]
    fn larger_buffer_pools_reduce_io() {
        let (storage, workload) = build_micro();
        let small = Simulation::new(
            Arc::clone(&storage),
            sim_config(PolicyKind::Pbm, 256 * 1024),
        )
        .unwrap()
        .run(&workload)
        .unwrap();
        let large = Simulation::new(Arc::clone(&storage), sim_config(PolicyKind::Pbm, 8 << 20))
            .unwrap()
            .run(&workload)
            .unwrap();
        assert!(large.total_io_bytes <= small.total_io_bytes);
    }

    #[test]
    fn higher_bandwidth_reduces_stream_time_but_not_io() {
        // What Figure 12 supports, at its pool (40 % of the accessed volume;
        // on a pool of a few pages one victim more or less is tens of
        // percent). "Approximately constant" I/O is not a property PBM can
        // have more tightly than its traces allow: the scans' observed
        // speeds, hence the consumption order, hence what even OPT must
        // read, depend on how fast pages arrive. Over this 10x range OPT's
        // volume on PBM's traces spans x1.23 here (x1.22 at the `quick`
        // scale of Figure 12), PBM's x1.28 (x1.23) and LRU's x1.38 at
        // `quick`; the band is checked against OPT's spread so it cannot be
        // re-fitted below what the traces themselves allow.
        const BAND: f64 = 1.4;
        let (storage, workload) = build_micro();
        let probe =
            Simulation::new(Arc::clone(&storage), sim_config(PolicyKind::Lru, 1 << 20)).unwrap();
        let pool = probe.accessed_volume(&workload).unwrap() * 2 / 5;
        let run = |policy, mb_per_sec| {
            let mut config = sim_config(policy, pool);
            config.scanshare.io_bandwidth = Bandwidth::from_mb_per_sec(mb_per_sec);
            Simulation::new(Arc::clone(&storage), config)
                .unwrap()
                .run(&workload)
                .unwrap()
        };
        let spread = |volumes: &[u64]| {
            *volumes.iter().max().unwrap() as f64 / *volumes.iter().min().unwrap() as f64
        };
        let (mut pbm_io, mut opt_io, mut pbm_time) = (Vec::new(), Vec::new(), Vec::new());
        for mb_per_sec in [200.0, 700.0, 2000.0] {
            let pbm = run(PolicyKind::Pbm, mb_per_sec);
            let lru = run(PolicyKind::Lru, mb_per_sec);
            assert!(
                pbm.total_io_bytes <= lru.total_io_bytes,
                "{mb_per_sec} MB/s: pbm read {}, lru {}",
                pbm.total_io_bytes,
                lru.total_io_bytes
            );
            pbm_io.push(pbm.total_io_bytes);
            pbm_time.push(pbm.avg_stream_time_secs().unwrap());
            opt_io.push(run(PolicyKind::Opt, mb_per_sec).total_io_bytes);
        }
        assert!(
            pbm_time.windows(2).all(|w| w[1] <= w[0]),
            "stream time must fall with bandwidth: {pbm_time:?}"
        );
        assert!(
            spread(&opt_io) <= BAND,
            "the band is tighter than OPT's own spread: {opt_io:?}"
        );
        assert!(
            spread(&pbm_io) <= BAND,
            "I/O volume changed too much: {pbm_io:?}"
        );
    }

    /// A backend with every page resident that delivers each scan's
    /// registered ranges front to back, like `PooledBackend`, under whatever
    /// policy family it claims to be, and logs what the event loop tells it.
    #[derive(Debug, Clone)]
    struct LogBackend {
        kind: PolicyKind,
        log: Arc<Mutex<Logged>>,
    }

    #[derive(Debug, Default)]
    struct Logged {
        /// The plan of each registered scan; scan ids index it.
        plans: Vec<ScanPagePlan>,
        /// The ranges of each registered scan not delivered yet.
        pending: Vec<VecDeque<TupleRange>>,
        calls: Vec<Call>,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Call {
        Register(ScanId),
        /// A page request and the position reported with it.
        Request(ScanId, PageId, Option<u64>),
        Finish(ScanId),
    }

    impl LogBackend {
        fn new(kind: PolicyKind) -> Self {
            Self {
                kind,
                log: Arc::default(),
            }
        }

        fn run_state(&self) -> RunState<'_> {
            RunState {
                backend: self,
                sampler: SharingSampler::new(None),
                query_latencies: Vec::new(),
            }
        }
    }

    impl ScanBackend for LogBackend {
        fn name(&self) -> &'static str {
            "log"
        }
        fn kind(&self) -> PolicyKind {
            self.kind
        }
        fn register_scan(&self, request: ScanRequest, _: VirtualInstant) -> Result<ScanId> {
            let mut log = self.log.lock().unwrap();
            let id = ScanId::new(log.plans.len() as u64);
            let plan =
                request
                    .layout
                    .scan_page_plan(&request.snapshot, &request.columns, &request.ranges);
            log.plans.push(plan);
            log.pending
                .push(request.ranges.ranges().iter().copied().collect());
            log.calls.push(Call::Register(id));
            Ok(id)
        }
        fn next_chunk(&self, scan: ScanId) -> Result<ScanStep> {
            let mut log = self.log.lock().unwrap();
            Ok(match log.pending[scan.index()].pop_front() {
                Some(range) => ScanStep::Deliver(range),
                None => ScanStep::Finished,
            })
        }
        fn request_page(
            &self,
            scan: ScanId,
            page: PageId,
            now: VirtualInstant,
        ) -> Result<VirtualInstant> {
            let calls = &mut self.log.lock().unwrap().calls;
            calls.push(Call::Request(scan, page, None));
            Ok(now)
        }
        fn report_position(&self, scan: ScanId, tuples_consumed: u64, _: VirtualInstant) {
            let calls = &mut self.log.lock().unwrap().calls;
            if let Some(Call::Request(requested, _, position)) = calls.last_mut() {
                assert_eq!((*requested, *position), (scan, None));
                *position = Some(tuples_consumed);
            }
        }
        fn finish_scan(&self, scan: ScanId, _: VirtualInstant) {
            self.log.lock().unwrap().calls.push(Call::Finish(scan));
        }
        fn stats(&self) -> BufferStats {
            BufferStats::default()
        }
    }

    #[test]
    fn reported_positions_are_rows_of_the_scan_not_tuples_of_its_pages() {
        let (storage, workload) = build_micro();
        let table = storage.table_ids()[0];
        let snapshot = storage.master_snapshot(table).unwrap();
        let rows = snapshot.stable_tuples();
        let three_columns = QuerySpec {
            label: "three-columns".into(),
            scans: vec![ScanSpec {
                table,
                columns: vec![0, 1, 2],
                ranges: RangeList::single(0, rows),
                predicate: None,
            }],
            cpu_factor: 1.0,
            join: None,
        };
        // The microbenchmark's own (wider, partial-range) queries follow it
        // and run beside it on the other streams.
        let mut queries: Vec<Vec<QuerySpec>> =
            workload.streams.iter().map(|s| s.queries.clone()).collect();
        queries[0].insert(0, three_columns);

        let sim = Simulation::new(storage, sim_config(PolicyKind::Pbm, 1 << 20)).unwrap();
        let engine = Engine::new(Arc::clone(&sim.storage), sim.config.scanshare.clone()).unwrap();
        let log = LogBackend::new(PolicyKind::Pbm);
        let mut resolved = queries
            .iter()
            .map(|stream| {
                stream
                    .iter()
                    .map(|q| Simulation::resolve(&engine, q))
                    .collect::<Result<VecDeque<_>>>()
            })
            .collect::<Result<Vec<_>>>()
            .unwrap();
        // No workload lowers to a scan of several ranges: its positions must
        // run on across the ranges it is delivered, the first two of which
        // share pages.
        let ranges = [(0, 1_000), (1_500, 30_000), (rows - 7, rows)];
        resolved[1].push_front(QueryRun {
            parts: VecDeque::new(),
            waiting: VecDeque::from([ResolvedScan {
                request: Some(ScanRequest {
                    table,
                    snapshot,
                    layout: sim.storage.layout(table).unwrap(),
                    columns: vec![0, 1],
                    ranges: RangeList::from_ranges(ranges.map(|(s, e)| TupleRange::new(s, e))),
                    in_order: false,
                }),
                barrier: false,
            }]),
            cpu_factor: 1.0,
            started: VirtualInstant::EPOCH,
        });
        sim.phase(&mut log.run_state(), resolved, 0).unwrap();

        let Logged { plans, calls, .. } = &*log.log.lock().unwrap();
        assert_eq!(
            plans[0].total_tuples, rows,
            "the three-column scan registers first"
        );
        assert_eq!(
            plans[0].pages.iter().map(|p| p.tuple_count).sum::<u64>(),
            3 * rows
        );
        assert_eq!(plans[1].total_tuples, 1_000 + 28_500 + 7);
        for (id, plan) in plans.iter().enumerate() {
            let reported: Vec<(PageId, Option<u64>)> = calls
                .iter()
                .filter_map(|&call| match call {
                    Call::Request(scan, page, position) if scan.index() == id => {
                        Some((page, position))
                    }
                    _ => None,
                })
                .collect();
            let expected: Vec<(PageId, Option<u64>)> = plan
                .interleaved()
                .iter()
                .map(|p| (p.page, Some(p.tuples_behind)))
                .collect();
            assert_eq!(reported, expected, "scan {id}");
            assert!(reported
                .iter()
                .all(|&(_, pos)| pos < Some(plan.total_tuples)));
        }
    }

    /// The model's registration rule, which differs from the engine's under
    /// the page-level policies (ROADMAP "One CPU model in one function"):
    /// they register every step before a join barrier at once, and the
    /// probe once the build side drained; Cooperative Scans register one
    /// scan at a time.
    #[test]
    fn page_level_backends_register_up_to_the_join_barrier_cscan_one_scan_at_a_time() {
        let (storage, _) = build_micro();
        let table = storage.table_ids()[0];
        let snapshot = storage.master_snapshot(table).unwrap();
        let layout = storage.layout(table).unwrap();
        let scan = |start, end, barrier| ResolvedScan {
            request: Some(ScanRequest {
                table,
                snapshot: Arc::clone(&snapshot),
                layout: Arc::clone(&layout),
                columns: vec![0, 1],
                ranges: RangeList::single(start, end),
                in_order: false,
            }),
            barrier,
        };
        // Two steps before the barrier, the build scan last, then the probe.
        let query = QueryRun {
            parts: VecDeque::new(),
            waiting: VecDeque::from([
                scan(40_000, 60_000, false),
                scan(0, 20_000, false),
                scan(0, 30_000, true),
            ]),
            cpu_factor: 1.0,
            started: VirtualInstant::EPOCH,
        };
        let sim = Simulation::new(storage, sim_config(PolicyKind::Pbm, 1 << 20)).unwrap();
        let (pre_barrier, probe) = ([ScanId::new(0), ScanId::new(1)], ScanId::new(2));
        for kind in [PolicyKind::Lru, PolicyKind::Pbm, PolicyKind::CScan] {
            let log = LogBackend::new(kind);
            let queries = vec![VecDeque::from([query.clone()])];
            sim.phase(&mut log.run_state(), queries, 0).unwrap();
            let calls = &log.log.lock().unwrap().calls;
            let at = |wanted: Call| calls.iter().position(|&c| c == wanted).unwrap();
            let registered = calls
                .iter()
                .filter(|c| matches!(c, Call::Register(_)))
                .count();
            assert_eq!(registered, 3, "{kind}");
            if kind != PolicyKind::CScan {
                let first_request = calls
                    .iter()
                    .position(|c| matches!(c, Call::Request(..)))
                    .unwrap();
                for id in pre_barrier {
                    assert!(at(Call::Register(id)) < first_request, "{kind}");
                    assert!(at(Call::Finish(id)) < at(Call::Register(probe)), "{kind}");
                }
            } else {
                let mut live = 0;
                for call in calls {
                    match call {
                        Call::Register(_) => live += 1,
                        Call::Finish(_) => live -= 1,
                        Call::Request(..) => {}
                    }
                    assert!(live <= 1, "{kind}: {calls:?}");
                }
            }
        }
    }

    #[test]
    fn sharing_profile_is_recorded_when_enabled() {
        let (storage, workload) = build_micro();
        let mut cfg = sim_config(PolicyKind::Pbm, 512 * 1024);
        cfg.sharing_sample_interval = Some(VirtualDuration::from_micros(500));
        let result = Simulation::new(storage, cfg)
            .unwrap()
            .run(&workload)
            .unwrap();
        let profile = result.sharing.expect("sampling enabled");
        assert!(!profile.is_empty());
        assert!(profile.peak_outstanding_bytes() > 0);
    }

    #[test]
    fn simulation_is_deterministic() {
        let (storage, workload) = build_micro();
        let run = || {
            Simulation::new(
                Arc::clone(&storage),
                sim_config(PolicyKind::Pbm, 512 * 1024),
            )
            .unwrap()
            .run(&workload)
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.total_io_bytes, b.total_io_bytes);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.stream_times, b.stream_times);
    }

    #[test]
    fn zero_core_config_is_rejected() {
        let (storage, _) = build_micro();
        let mut cfg = sim_config(PolicyKind::Lru, 1 << 20);
        cfg.cores = 0;
        assert!(Simulation::new(storage, cfg).is_err());
    }

    // -----------------------------------------------------------------
    // Mixed read/write workloads
    // -----------------------------------------------------------------

    use scanshare_workload::spec::{UpdateMix, UpdateStreamSpec};

    fn mixed_workload(
        rate: u64,
        checkpoint_every: Option<u64>,
    ) -> scanshare_workload::WorkloadSpec {
        let config = MicrobenchConfig {
            streams: 2,
            queries_per_stream: 4,
            ..MicrobenchConfig::tiny()
        };
        let (storage, workload) = microbench::build(&config, 64 * 1024, 10_000).unwrap();
        let table = storage.table_ids()[0];
        drop(storage);
        workload.with_update_stream(UpdateStreamSpec {
            label: "updates".into(),
            table,
            ops_per_round: rate,
            mix: UpdateMix::balanced(),
            checkpoint_every,
            seed: 0xfeed,
        })
    }

    /// Fresh storage matching `mixed_workload` (mixed runs mutate storage,
    /// so every run gets its own deterministically rebuilt instance).
    fn mixed_storage() -> Arc<Storage> {
        let config = MicrobenchConfig {
            streams: 2,
            queries_per_stream: 4,
            ..MicrobenchConfig::tiny()
        };
        microbench::build(&config, 64 * 1024, 10_000).unwrap().0
    }

    #[test]
    fn mixed_workloads_run_deterministically_under_every_policy() {
        let workload = mixed_workload(32, Some(2));
        for policy in [PolicyKind::Lru, PolicyKind::Pbm, PolicyKind::CScan] {
            let run = || {
                Simulation::new(mixed_storage(), sim_config(policy, 1 << 20))
                    .unwrap()
                    .run(&workload)
                    .unwrap()
            };
            let a = run();
            let b = run();
            assert!(a.total_io_bytes > 0, "{policy}");
            assert_eq!(a.total_io_bytes, b.total_io_bytes, "{policy}");
            assert_eq!(a.stream_times, b.stream_times, "{policy}");
            assert_eq!(a.query_latencies.len(), workload.query_count(), "{policy}");
        }
    }

    #[test]
    fn checkpoints_cold_start_future_scans() {
        // Checkpointing swaps the whole stable image: scans after a
        // checkpoint read brand-new pages, so a pool that fit the table
        // now re-reads it — more I/O than the update-only run.
        let no_ckpt = Simulation::new(mixed_storage(), sim_config(PolicyKind::Lru, 8 << 20))
            .unwrap()
            .run(&mixed_workload(16, None))
            .unwrap();
        let ckpt = Simulation::new(mixed_storage(), sim_config(PolicyKind::Lru, 8 << 20))
            .unwrap()
            .run(&mixed_workload(16, Some(1)))
            .unwrap();
        assert!(
            ckpt.total_io_bytes > no_ckpt.total_io_bytes,
            "checkpoints must invalidate the warm pool (ckpt {} vs none {})",
            ckpt.total_io_bytes,
            no_ckpt.total_io_bytes
        );
        assert!(ckpt.buffer.invalidated_pages > 0);
        assert_eq!(no_ckpt.buffer.invalidated_pages, 0);
    }

    #[test]
    fn zone_maps_cut_io_for_selective_workloads() {
        use scanshare_workload::skipping::{self, SkippingConfig};
        let config = SkippingConfig::tiny().with_selectivity(0.01);
        let run = |policy: PolicyKind, zone_maps: bool| {
            let (storage, workload) = skipping::build(&config, 16 * 1024, 1000).unwrap();
            let mut cfg = sim_config(policy, 256 * 1024);
            cfg.scanshare.page_size_bytes = 16 * 1024;
            cfg.scanshare.chunk_tuples = 1000;
            cfg.scanshare.zone_maps = zone_maps;
            Simulation::new(storage, cfg)
                .unwrap()
                .run(&workload)
                .unwrap()
        };
        for policy in [PolicyKind::Lru, PolicyKind::Pbm, PolicyKind::CScan] {
            let on = run(policy, true);
            let off = run(policy, false);
            assert!(on.buffer.pruned_tuples > 0, "{policy}: nothing pruned");
            assert_eq!(off.buffer.pruned_tuples, 0, "{policy}");
            assert!(
                on.total_io_bytes * 5 <= off.total_io_bytes,
                "{policy}: skipping saved too little I/O ({} vs {})",
                on.total_io_bytes,
                off.total_io_bytes
            );
        }
    }

    /// The shared `cpu_time` is, bit for bit, both charges it replaced: the
    /// simulator's per-step product of a precomputed per-tuple cost, and
    /// the engine's per-batch `from_secs_f64(tuples / rate)`.
    #[test]
    fn cpu_time_reproduces_both_former_charges() {
        use scanshare_exec::scan::BATCH_SIZE;
        use scanshare_workload::tpch::{self, TpchConfig};
        let (_, _, tpch) = tpch::build(&TpchConfig::tiny(), 64 * 1024, 10_000).unwrap();
        let mut factors = vec![1.0, 1.4];
        factors.extend(
            tpch.streams
                .iter()
                .flat_map(|st| st.queries.iter())
                .map(|q| q.cpu_factor),
        );
        factors.sort_by(f64::total_cmp);
        factors.dedup();
        assert!(factors.len() > 5, "{factors:?}");
        let tuple_counts = (0..=4_096u64)
            .chain((12..48).flat_map(|k| [(1u64 << k) - 1, 1 << k, 3 << (k - 1), (1 << k) + 7]))
            .chain([10_000, 262_144, 999_983, 6_000_000]);
        for tuples in tuple_counts {
            for &factor in &factors {
                for parallelism in [1u64, 2, 8] {
                    let ns_per_tuple = 1e9 * factor / (250e6 * parallelism as f64);
                    let former = (tuples as f64 * ns_per_tuple).round() as u64;
                    assert_eq!(
                        cpu_time(tuples, factor, parallelism).as_nanos(),
                        former,
                        "{tuples} tuples, factor {factor}, parallelism {parallelism}"
                    );
                }
            }
        }
        for tuples in 0..=BATCH_SIZE as u64 {
            let former = VirtualDuration::from_secs_f64(tuples as f64 / 250e6);
            assert_eq!(cpu_time(tuples, 1.0, 1), former, "{tuples} tuples");
        }
    }

    /// A CPU factor no time can be charged for is one typed plan error from
    /// both executors' shared lowering, before any I/O: an infinite factor
    /// would overflow the simulator's event time, and a NaN or negative one
    /// would charge nothing.
    #[test]
    fn unchargeable_cpu_factors_are_plan_errors_from_both_executors() {
        let (storage, workload) = build_micro();
        for factor in [f64::NAN, f64::INFINITY, -1.0] {
            let mut broken = workload.clone();
            broken.streams[0].queries[0].cpu_factor = factor;
            let config = sim_config(PolicyKind::Pbm, 1 << 20);
            let from_sim = Simulation::new(Arc::clone(&storage), config.clone())
                .unwrap()
                .run(&broken)
                .unwrap_err();
            let engine = Engine::new(Arc::clone(&storage), config.scanshare).unwrap();
            let from_engine = scanshare_exec::WorkloadDriver::new(engine)
                .run(&broken)
                .unwrap_err();
            for err in [&from_sim, &from_engine] {
                assert!(
                    matches!(err, Error::InvalidPlan(msg) if msg.contains("cpu_factor")),
                    "{factor}: {err}"
                );
            }
            assert_eq!(from_sim.to_string(), from_engine.to_string(), "{factor}");
        }
    }

    #[test]
    fn mixed_opt_is_rejected() {
        let workload = mixed_workload(8, None);
        let err = Simulation::new(mixed_storage(), sim_config(PolicyKind::Opt, 1 << 20))
            .unwrap()
            .run(&workload)
            .unwrap_err();
        assert!(matches!(err, Error::Unsupported(_)));
    }
}
