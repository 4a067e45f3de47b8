//! The discrete-event simulator.
//!
//! Streams execute their queries back to back. A query is a sequence of range
//! scans; each scan either issues page requests in order against the shared
//! [`ShardedPool`] — the pool type the execution engine runs, built the same
//! way with one shard (LRU, PBM, OPT-trace runs) — or attaches to the
//! [`Abm`] and consumes chunks out of order
//! (Cooperative Scans). Misses are served by a bandwidth-limited
//! [`IoDevice`]; CPU work is charged per tuple, scaled by the query's CPU
//! factor and by the effective intra-query parallelism
//! (`min(threads_per_query, cores / streams)`).
//!
//! # Mixed read/write workloads
//!
//! A workload with update streams executes in **rounds**, mirroring the
//! engine-side `WorkloadDriver` exactly: at every round barrier the
//! simulator applies each update stream's generated batch to a per-table
//! *mirror* — the same `(Snapshot, PdtStack)` algebra the engine's
//! transaction layer uses, driven by the identical deterministic operation
//! generator — checkpoints when due (merging the mirrored PDT stack into a
//! brand-new stable image via the engine's own `checkpoint_stack`, then
//! invalidating the superseded pages from the pool, exactly like the
//! engine's epoch-tagged invalidation hook), and then simulates one query
//! per stream concurrently. Scan ranges are translated from visible-row
//! (RID) space to stable (SID) space through the mirrored PDTs with the
//! *same* `scanshare_pdt::translate` functions the engine's scan operator
//! uses, so both executors touch the identical page sets and their I/O
//! volumes match byte for byte. The buffer pool (or ABM) and the I/O device
//! persist across rounds — the whole point of the model is measuring how
//! updates and checkpoints churn a *warm* buffer pool.
//!
//! Note that simulating a mixed workload **mutates the storage** (checkpoint
//! snapshots are installed and promoted to master); give each mixed run its
//! own deterministically rebuilt `Storage` rather than sharing one across
//! runs.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::sync::Arc;

use scanshare_common::{
    Error, PageId, PolicyKind, RangeList, Result, Rid, ScanId, ScanShareConfig, TableId,
    TupleRange, VirtualDuration, VirtualInstant,
};
use scanshare_core::abm::{Abm, AbmConfig, CScanHandle, CScanRequest, LoadPlan};
use scanshare_core::metrics::BufferStats;
use scanshare_core::opt::simulate_opt;
use scanshare_core::registry::{pooled_policy_name, PolicyRegistry};
use scanshare_core::sharded::{top_up_prefetch_window, ShardedPool};
use scanshare_iosim::{IoDevice, ReferenceTrace};
use scanshare_pdt::checkpoint::checkpoint_stack;
use scanshare_pdt::pdt::Pdt;
use scanshare_pdt::stack::PdtStack;
use scanshare_pdt::translate::rid_range_to_sid_ranges;
use scanshare_storage::snapshot::Snapshot;
use scanshare_storage::storage::Storage;
use scanshare_workload::spec::{QuerySpec, UpdateOp, UpdateOpGen, UpdateStreamSpec, WorkloadSpec};

use crate::result::SimResult;
use crate::sharing::SharingProfile;

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Storage / buffer / policy configuration shared with the rest of the
    /// workspace. The simulator is single-threaded, so it always builds its
    /// pool with one shard and `ScanShareConfig::pool_shards` — a
    /// lock-partitioning knob for the live engine — has no effect here; that
    /// is sound because sharding never changes replacement decisions or I/O
    /// accounting (see `scanshare_core::sharded`), only contention.
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    Stream(usize),
    LoadDone,
}

#[derive(Debug)]
struct Event {
    time: u64,
    seq: u64,
    kind: EventKind,
    plan: Option<LoadPlan>,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// One scan of a query, resolved against the snapshot and SID ranges its
/// executor actually reads. For read-only workloads this is the spec
/// verbatim against the master snapshot; in mixed workloads the ranges went
/// through the mirrored PDT translation and the snapshot is the mirror's
/// (possibly checkpoint-swapped) pinned image.
#[derive(Debug, Clone)]
struct ResolvedScan {
    table: TableId,
    columns: Vec<usize>,
    snapshot: Arc<Snapshot>,
    /// Stable ranges to read; empty when the visible range maps to no
    /// stable data (the engine then registers no backend scan either).
    sid_ranges: RangeList,
}

/// One query with its scans resolved and its CPU cost precomputed.
#[derive(Debug, Clone)]
struct ResolvedQuery {
    scans: Vec<ResolvedScan>,
    cpu_ns_per_tuple: f64,
    /// Whether this is a broadcast-join query: `scans[0]` is the build side
    /// and the remaining scans (the probe side) register with the pool only
    /// once the build scan has fully drained, exactly like the engine's
    /// `QueryTask` join phase.
    join: bool,
}

/// Finishes query resolution (shared by the read-only and mixed paths):
/// validates a join spec's shape and mirrors the engine's build-side
/// projection order — the join key first, the remaining columns after — so
/// the simulated build scan reads the identical page sequence the engine's
/// `open_build_scan` does.
fn finish_resolve(
    query: &QuerySpec,
    mut scans: Vec<ResolvedScan>,
    cpu_ns_per_tuple: f64,
) -> Result<ResolvedQuery> {
    if let Some(join) = &query.join {
        if scans.len() != 2 {
            return Err(Error::plan(format!(
                "join query {:?} needs exactly two scans (build, probe), got {}",
                query.label,
                scans.len()
            )));
        }
        let build = &mut scans[0];
        if join.right_col >= build.columns.len() {
            return Err(Error::plan(format!(
                "join query {:?} keys on build column {} of {}",
                query.label,
                join.right_col,
                build.columns.len()
            )));
        }
        let key = build.columns.remove(join.right_col);
        build.columns.insert(0, key);
    }
    Ok(ResolvedQuery {
        scans,
        cpu_ns_per_tuple,
        join: query.join.is_some(),
    })
}

/// One scan of a query in the page-level (order-preserving) model.
#[derive(Debug)]
struct PartRun {
    scan_id: ScanId,
    /// (page, tuples on that page) in consumption order.
    pages: Vec<(PageId, u64)>,
    next: usize,
    consumed: u64,
}

#[derive(Debug)]
struct QueryRun {
    parts: Vec<PartRun>,
    part_idx: usize,
    /// Probe-side scans of a join query, registered with the pool only once
    /// every already-registered part has drained (the engine's probe scans
    /// open together after the build phase finishes).
    pending: Vec<ResolvedScan>,
    cpu_ns_per_tuple: f64,
    started: VirtualInstant,
}

/// One stream of a phase: its queued queries, the query in flight (`R` is
/// the page-level [`QueryRun`] or the chunk-level [`CScanQueryRun`]) and the
/// time it ran out of queries.
#[derive(Debug)]
struct StreamState<R> {
    queries: VecDeque<ResolvedQuery>,
    current: Option<R>,
    finished: Option<VirtualInstant>,
}

fn start_streams<R>(phase_queries: Vec<VecDeque<ResolvedQuery>>) -> Vec<StreamState<R>> {
    phase_queries
        .into_iter()
        .map(|queries| StreamState {
            queries,
            current: None,
            finished: None,
        })
        .collect()
}

/// When each stream ran out of queries; `None` if one never did.
fn finish_times<R>(streams: &[StreamState<R>]) -> Option<Vec<u64>> {
    streams
        .iter()
        .map(|s| s.finished.map(|at| at.as_nanos()))
        .collect()
}

/// One query in the chunk-level (Cooperative Scans) model.
#[derive(Debug)]
struct CScanQueryRun {
    scans: Vec<ResolvedScan>,
    part_idx: usize,
    active: Option<CScanHandle>,
    cpu_ns_per_tuple: f64,
    started: VirtualInstant,
}

/// Periodic sharing-potential sampling state (Figures 17/18), shared by the
/// pooled and Cooperative Scans event loops so the sampling cadence exists
/// exactly once; the loops differ only in how each computes the outstanding
/// page sets.
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

/// The engine-state mirror of a mixed workload: per table, the pinned
/// snapshot and PDT stack the engine's transaction layer would publish at
/// the same round barrier.
#[derive(Debug, Default)]
struct UpdateMirror {
    tables: HashMap<TableId, MirrorTable>,
}

#[derive(Debug)]
struct MirrorTable {
    snapshot: Arc<Snapshot>,
    stack: PdtStack,
}

/// Persistent state of a run: survives round barriers so checkpointed tables
/// churn warm buffers, exactly as in the engine. `B` is what buffers the
/// pages: [`PoolBuffers`] (LRU / PBM / OPT-trace runs) or the [`Abm`]
/// (Cooperative Scans).
struct RunState<B> {
    buffers: B,
    device: IoDevice,
    sampler: SharingSampler,
    query_latencies: Vec<VirtualDuration>,
}

/// One phase of a run's event loop (`Simulation::pool_phase` or
/// `Simulation::cscan_phase`): every stream starts its queued queries at the
/// given time; returns when each stream finished.
type PhaseFn<B> =
    fn(&Simulation, &mut RunState<B>, Vec<VecDeque<ResolvedQuery>>, u64) -> Result<Vec<u64>>;

/// The buffers of a pooled run.
struct PoolBuffers {
    pool: ShardedPool,
    /// The asynchronous prefetch window, mirroring
    /// `PooledBackend::top_up_prefetch` in the execution engine: page ->
    /// completion time of prefetch transfers that may still be in flight.
    inflight: HashMap<PageId, VirtualInstant>,
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

    /// The simulator configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Total volume of distinct data accessed by the workload, in bytes
    /// (the quantity the paper sizes buffer pools against: "buffer pool
    /// capacity equal to 40% of accessed data volume"). Computed against the
    /// current master snapshots, before any update stream runs.
    pub fn accessed_volume(&self, workload: &WorkloadSpec) -> Result<u64> {
        let mut pages: HashSet<PageId> = HashSet::new();
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

    /// Runs `workload` under the policy selected in the configuration. See
    /// the [module docs](self) for how workloads with update streams are
    /// executed (and note they mutate the storage).
    pub fn run(&self, workload: &WorkloadSpec) -> Result<SimResult> {
        if workload.has_updates() && self.config.scanshare.policy == PolicyKind::Opt {
            return Err(Error::Unsupported(
                "OPT trace replay is undefined across checkpoint invalidations; \
                 run mixed workloads under lru, pbm or cscan"
                    .into(),
            ));
        }
        match self.config.scanshare.policy {
            PolicyKind::CScan => self.run_cscan(workload),
            PolicyKind::Opt => self.run_opt(workload),
            policy => self.run_pool(workload, policy, None),
        }
    }

    fn effective_parallelism(&self, streams: usize) -> u64 {
        let per_stream = (self.config.cores / streams.max(1)).max(1);
        per_stream.min(self.config.scanshare.threads_per_query) as u64
    }

    fn cpu_ns_per_tuple(&self, query: &QuerySpec, streams: usize) -> f64 {
        let parallelism = self.effective_parallelism(streams) as f64;
        1e9 * query.cpu_factor / (self.config.scanshare.cpu_tuples_per_sec as f64 * parallelism)
    }

    fn device(&self) -> IoDevice {
        IoDevice::new(
            self.config.scanshare.io_bandwidth,
            VirtualDuration::from_nanos(self.config.scanshare.io_latency_nanos),
        )
    }

    // -----------------------------------------------------------------
    // Query resolution and the update mirror
    // -----------------------------------------------------------------

    /// Resolves a query of a read-only workload: spec ranges verbatim (they
    /// are already SID ranges when no updates exist) against the master
    /// snapshot, minus the chunks whose zone maps refute the scan's
    /// predicate — the identical `prune_sid_ranges` call (and the identical
    /// skipped-tuple accounting into `pruned`) the engine's scan operator
    /// performs.
    fn resolve_read_only(
        &self,
        query: &QuerySpec,
        streams: usize,
        pruned: &mut u64,
    ) -> Result<ResolvedQuery> {
        let mut scans = Vec::with_capacity(query.scans.len());
        for scan in &query.scans {
            let snapshot = self.storage.master_snapshot(scan.table)?;
            let mut sid_ranges = scan.ranges.clone();
            if let Some(pred) = scan.predicate {
                if self.config.scanshare.zone_maps {
                    let (kept, skipped) =
                        self.storage.prune_sid_ranges(&snapshot, &pred, &sid_ranges);
                    *pruned += skipped;
                    sid_ranges = kept;
                }
            }
            scans.push(ResolvedScan {
                table: scan.table,
                columns: scan.columns.clone(),
                snapshot,
                sid_ranges,
            });
        }
        finish_resolve(query, scans, self.cpu_ns_per_tuple(query, streams))
    }

    /// The mirror entry of `table`, created on first touch from the current
    /// master snapshot — exactly like the engine's per-table state.
    fn mirror_table<'a>(
        &self,
        mirror: &'a mut UpdateMirror,
        table: TableId,
    ) -> Result<&'a mut MirrorTable> {
        use std::collections::hash_map::Entry;
        match mirror.tables.entry(table) {
            Entry::Occupied(entry) => Ok(entry.into_mut()),
            Entry::Vacant(entry) => {
                let snapshot = self.storage.master_snapshot(table)?;
                let columns = self.storage.table(table)?.spec.columns.len();
                Ok(entry.insert(MirrorTable {
                    snapshot,
                    stack: PdtStack::new(columns, 1),
                }))
            }
        }
    }

    /// Resolves a query of a mixed workload against the mirror: the spec's
    /// visible-row ranges are clamped to the mirrored visible count and
    /// translated to SID ranges through the mirrored PDT — the same
    /// `rid_range_to_sid_ranges` call the engine's scan operator performs
    /// on its pin.
    fn resolve_mixed(
        &self,
        mirror: &mut UpdateMirror,
        query: &QuerySpec,
        streams: usize,
        pruned: &mut u64,
    ) -> Result<ResolvedQuery> {
        let cpu_ns_per_tuple = self.cpu_ns_per_tuple(query, streams);
        let mut scans = Vec::with_capacity(query.scans.len());
        for scan in &query.scans {
            let table = self.mirror_table(mirror, scan.table)?;
            let stable = table.snapshot.stable_tuples();
            let flat = table.stack.flatten(stable)?;
            let visible = flat.visible_count(stable);
            let mut sid_ranges = RangeList::new();
            for &range in scan.ranges.ranges() {
                let rid_range = range.intersect(&TupleRange::new(0, visible));
                for &sids in rid_range_to_sid_ranges(&flat, &rid_range, stable).ranges() {
                    sid_ranges.add(sids);
                }
            }
            // Zone-map pruning mirrors the engine's scan operator exactly,
            // including its safety gate: prune only while the mirrored PDT
            // is empty (RID == SID), because a pending Modify could make a
            // base-failing row match the predicate.
            if let Some(pred) = scan.predicate {
                if self.config.scanshare.zone_maps && flat.is_empty() {
                    let (kept, skipped) =
                        self.storage
                            .prune_sid_ranges(&table.snapshot, &pred, &sid_ranges);
                    *pruned += skipped;
                    sid_ranges = kept;
                }
            }
            scans.push(ResolvedScan {
                table: scan.table,
                columns: scan.columns.clone(),
                snapshot: Arc::clone(&table.snapshot),
                sid_ranges,
            });
        }
        finish_resolve(query, scans, cpu_ns_per_tuple)
    }

    /// Applies one update stream's round batch to the mirror — one
    /// transaction through the identical `PdtStack` algebra the engine's
    /// `Txn::commit` uses — and performs the periodic checkpoint when due:
    /// the same merged `checkpoint_stack` the engine runs (so the new image
    /// carries values and zone maps), plus `invalidate(stale_pages)`,
    /// matching the engine's epoch-tagged buffer invalidation.
    fn mirror_update_batch(
        &self,
        mirror: &mut UpdateMirror,
        spec: &UpdateStreamSpec,
        generator: &mut UpdateOpGen,
        round: usize,
        invalidate: &mut dyn FnMut(&[PageId]),
    ) -> Result<()> {
        let columns = self.storage.table(spec.table)?.spec.columns.len();
        if spec.ops_per_round > 0 {
            let table = self.mirror_table(mirror, spec.table)?;
            let stable = table.snapshot.stable_tuples();
            let mut work = table.stack.clone();
            work.push_layer(Pdt::new(columns));
            for _ in 0..spec.ops_per_round {
                let visible = work.visible_count(stable);
                match generator.next_op(visible, columns) {
                    UpdateOp::Insert { rid, row } => work.insert(Rid::new(rid), row, stable)?,
                    UpdateOp::Delete { rid } => work.delete(Rid::new(rid), stable)?,
                    UpdateOp::Modify { rid, col, value } => {
                        work.modify(Rid::new(rid), col, value, stable)?
                    }
                }
            }
            let private = work.pop_layer().expect("pushed above");
            table.stack.absorb_top(&private, stable)?;
        }
        if spec.checkpoint_due(round) {
            let table = self.mirror_table(mirror, spec.table)?;
            let stale: Vec<PageId> = table.snapshot.pages().collect();
            // A real merged checkpoint (not a metadata-only install): the new
            // stable image carries the merged values, so its zone maps are
            // rebuilt exactly as the engine's checkpoint rebuilds them — the
            // post-checkpoint pruning decisions of both executors agree.
            let new_snapshot =
                checkpoint_stack(&self.storage, spec.table, &table.snapshot, &table.stack)?;
            table.snapshot = new_snapshot;
            table.stack = PdtStack::new(columns, 1);
            invalidate(&stale);
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // Order-preserving policies: LRU / PBM (and the PBM run behind OPT)
    // -----------------------------------------------------------------

    fn make_pool(
        &self,
        policy: PolicyKind,
        trace: Option<Arc<ReferenceTrace>>,
    ) -> Result<ShardedPool> {
        // The simulator shares pool and policy construction with the
        // execution engine: the page-level policy comes from the registry
        // (honouring `custom_policy`), so the policies the figures measure
        // are the policies the engine runs. One shard: the simulator is
        // single-threaded and decisions are shard-invariant.
        let name = pooled_policy_name(&self.config.scanshare, policy);
        let replacement = PolicyRegistry::default().build(name, &self.config.scanshare)?;
        let mut pool = ShardedPool::new(
            self.config.scanshare.buffer_pool_pages().max(1),
            self.config.scanshare.page_size_bytes,
            replacement,
            1,
        );
        if let Some(trace) = trace {
            pool = pool.with_trace(trace);
        }
        Ok(pool)
    }

    /// Registers one resolved scan with the pool and lays out its page
    /// consumption order; `None` for scans whose visible range maps to no
    /// stable data (the engine then registers no backend scan either —
    /// pure PDT rows cost no I/O).
    fn build_part_run(
        &self,
        pool: &ShardedPool,
        scan: &ResolvedScan,
        now: VirtualInstant,
    ) -> Result<Option<PartRun>> {
        if scan.sid_ranges.is_empty() {
            return Ok(None);
        }
        let layout = self.storage.layout(scan.table)?;
        let plan = layout.scan_page_plan(&scan.snapshot, &scan.columns, &scan.sid_ranges);
        let scan_id = pool.register_scan(&plan, now);
        let pages: Vec<(PageId, u64)> = plan
            .interleaved()
            .iter()
            .map(|p| (p.page, p.tuple_count))
            .collect();
        Ok(Some(PartRun {
            scan_id,
            pages,
            next: 0,
            consumed: 0,
        }))
    }

    fn build_query_run(
        &self,
        pool: &ShardedPool,
        query: &ResolvedQuery,
        now: VirtualInstant,
    ) -> Result<QueryRun> {
        // A join query registers only its build scan up front; the probe
        // scans stay pending until the build side has drained, matching the
        // engine's build-then-probe registration order.
        let (eager, pending) = if query.join {
            query.scans.split_at(1.min(query.scans.len()))
        } else {
            query.scans.split_at(query.scans.len())
        };
        let mut parts = Vec::with_capacity(eager.len());
        for scan in eager {
            if let Some(part) = self.build_part_run(pool, scan, now)? {
                parts.push(part);
            }
        }
        Ok(QueryRun {
            parts,
            part_idx: 0,
            pending: pending.to_vec(),
            cpu_ns_per_tuple: query.cpu_ns_per_tuple,
            started: now,
        })
    }

    /// Runs one phase (a whole read-only workload, or one round of a mixed
    /// one) of the page-level event loop over the persistent `state`.
    /// `phase_queries` holds each stream's queries for this phase; all
    /// streams start at `start_ns`. Returns each stream's finish time.
    fn pool_phase(
        &self,
        state: &mut RunState<PoolBuffers>,
        phase_queries: Vec<VecDeque<ResolvedQuery>>,
        start_ns: u64,
    ) -> Result<Vec<u64>> {
        let page_size = self.config.scanshare.page_size_bytes;
        let prefetch_window = self.config.scanshare.prefetch_pages;

        let mut streams: Vec<StreamState<QueryRun>> = start_streams(phase_queries);

        let mut heap: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut push = |heap: &mut BinaryHeap<Reverse<Event>>, time: u64, kind: EventKind| {
            heap.push(Reverse(Event {
                time,
                seq,
                kind,
                plan: None,
            }));
            seq += 1;
        };
        for s in 0..streams.len() {
            push(&mut heap, start_ns, EventKind::Stream(s));
        }

        while let Some(Reverse(event)) = heap.pop() {
            let now = VirtualInstant::from_nanos(event.time);
            let EventKind::Stream(s) = event.kind else {
                unreachable!("no loader in pool mode")
            };

            // Periodic sharing-potential sampling.
            state.sampler.sample_if_due(event.time, page_size, || {
                streams
                    .iter()
                    .filter_map(|st| st.current.as_ref())
                    .flat_map(|q| {
                        q.parts[q.part_idx..].iter().map(|part| {
                            let mut pages: Vec<PageId> =
                                part.pages[part.next..].iter().map(|(p, _)| *p).collect();
                            pages.sort_unstable();
                            pages.dedup();
                            pages
                        })
                    })
                    .collect()
            });

            // Start the next query if needed.
            if streams[s].current.is_none() {
                let Some(query) = streams[s].queries.pop_front() else {
                    if streams[s].finished.is_none() {
                        streams[s].finished = Some(now);
                    }
                    continue;
                };
                let run = self.build_query_run(&state.buffers.pool, &query, now)?;
                streams[s].current = Some(run);
            }

            // Process one page of the current query.
            let run = streams[s].current.as_mut().expect("set above");
            if run.part_idx >= run.parts.len() {
                if !run.pending.is_empty() {
                    // Build side of a join drained: register the probe
                    // scans, exactly when the engine's task opens them.
                    let pending = std::mem::take(&mut run.pending);
                    for scan in &pending {
                        if let Some(part) = self.build_part_run(&state.buffers.pool, scan, now)? {
                            run.parts.push(part);
                        }
                    }
                    push(&mut heap, event.time, EventKind::Stream(s));
                    continue;
                }
                // Query finished.
                state.query_latencies.push(now.since(run.started));
                streams[s].current = None;
                push(&mut heap, event.time, EventKind::Stream(s));
                continue;
            }
            let cpu_ns_per_tuple = run.cpu_ns_per_tuple;
            let part = &mut run.parts[run.part_idx];
            if part.next >= part.pages.len() {
                state.buffers.pool.unregister_scan(part.scan_id, now);
                run.part_idx += 1;
                push(&mut heap, event.time, EventKind::Stream(s));
                continue;
            }
            let (page, tuples) = part.pages[part.next];
            part.next += 1;
            part.consumed += tuples;
            let outcome = state
                .buffers
                .pool
                .request_page(page, Some(part.scan_id), now)?;
            state
                .buffers
                .pool
                .report_scan_position(part.scan_id, part.consumed, now);
            let cpu_ns = (tuples as f64 * cpu_ns_per_tuple).round() as u64;
            let mut consumed_inflight = false;
            let io_done = if outcome.is_hit() {
                // A hit on a page whose prefetch is still in flight waits
                // for the remaining transfer time only.
                match state.buffers.inflight.remove(&page) {
                    Some(done) => {
                        consumed_inflight = true;
                        done.as_nanos().max(event.time)
                    }
                    None => event.time,
                }
            } else {
                state.device.submit(now, page_size).as_nanos()
            };
            // Top up the prefetch window (after the demand read, which must
            // not queue behind new speculative transfers), but — like the
            // engine's PooledBackend — only when this access changed the
            // prefetch picture, so warm-pool hits stay cheap.
            if !outcome.is_hit() || consumed_inflight {
                top_up_prefetch_window(
                    &state.buffers.pool,
                    &state.device,
                    &mut state.buffers.inflight,
                    prefetch_window,
                    now,
                );
            }
            push(&mut heap, io_done + cpu_ns, EventKind::Stream(s));
        }

        Ok(finish_times(&streams).expect("every pooled stream drains its queue"))
    }

    fn run_pool(
        &self,
        workload: &WorkloadSpec,
        policy: PolicyKind,
        trace: Option<Arc<ReferenceTrace>>,
    ) -> Result<SimResult> {
        let buffers = PoolBuffers {
            pool: self.make_pool(policy, trace)?,
            inflight: HashMap::new(),
        };
        self.run_rounds(
            workload,
            policy,
            buffers,
            Self::pool_phase,
            // The same hook semantics the engine's backend uses.
            |buffers, stale| {
                for page in stale {
                    buffers.inflight.remove(page);
                }
                buffers.pool.invalidate_pages(stale);
            },
            |buffers| buffers.pool.stats(),
        )
    }

    /// The orchestration every policy shares: resolves the workload's
    /// queries, runs them through `phase` over `buffers` — in one phase when
    /// the workload is read-only, else round by round behind the update
    /// barrier, with `invalidate` dropping checkpointed pages — and
    /// assembles the result from the finish times and `stats`.
    fn run_rounds<B>(
        &self,
        workload: &WorkloadSpec,
        policy: PolicyKind,
        buffers: B,
        phase: PhaseFn<B>,
        invalidate: fn(&mut B, &[PageId]),
        stats: fn(&B) -> BufferStats,
    ) -> Result<SimResult> {
        let stream_count = workload.stream_count();
        let mut state = RunState {
            buffers,
            device: self.device(),
            sampler: SharingSampler::new(self.config.sharing_sample_interval),
            query_latencies: Vec::new(),
        };
        let mut pruned = 0u64;

        let finish_ns = if !workload.has_updates() {
            let queries: Vec<VecDeque<ResolvedQuery>> = workload
                .streams
                .iter()
                .map(|s| {
                    s.queries
                        .iter()
                        .map(|q| self.resolve_read_only(q, stream_count, &mut pruned))
                        .collect::<Result<VecDeque<_>>>()
                })
                .collect::<Result<_>>()?;
            phase(self, &mut state, queries, 0)?
        } else {
            let mut generators: Vec<UpdateOpGen> = workload
                .update_streams
                .iter()
                .map(UpdateStreamSpec::ops)
                .collect();
            let mut mirror = UpdateMirror::default();
            let mut finish = vec![0u64; stream_count];
            let mut barrier_ns = 0u64;
            for round in 0..workload.rounds() {
                // Barrier: apply the update batches (in spec order, exactly
                // like the driver), invalidating checkpointed pages from
                // the persistent buffers.
                for (spec, generator) in workload.update_streams.iter().zip(generators.iter_mut()) {
                    self.mirror_update_batch(&mut mirror, spec, generator, round, &mut |stale| {
                        invalidate(&mut state.buffers, stale)
                    })?;
                }
                // Concurrent phase: this round's query of every stream.
                let queries: Vec<VecDeque<ResolvedQuery>> = workload
                    .streams
                    .iter()
                    .map(|stream| {
                        let mut queries = VecDeque::new();
                        if round < stream.queries.len() {
                            queries.push_back(self.resolve_mixed(
                                &mut mirror,
                                &stream.queries[round],
                                stream_count,
                                &mut pruned,
                            )?);
                        }
                        Ok(queries)
                    })
                    .collect::<Result<_>>()?;
                let round_finish = phase(self, &mut state, queries, barrier_ns)?;
                for (s, stream) in workload.streams.iter().enumerate() {
                    if round < stream.queries.len() {
                        finish[s] = round_finish[s];
                    }
                }
                barrier_ns =
                    barrier_ns.max(round_finish.iter().copied().max().unwrap_or(barrier_ns));
            }
            finish
        };

        let makespan_ns = finish_ns.iter().copied().max().unwrap_or(0);
        let stream_times: Vec<VirtualDuration> = finish_ns
            .iter()
            .map(|&ns| VirtualInstant::from_nanos(ns).since(VirtualInstant::EPOCH))
            .collect();
        let mut stats = stats(&state.buffers);
        stats.pruned_tuples = pruned;
        Ok(SimResult {
            workload: workload.name.clone(),
            policy,
            stream_times,
            query_latencies: state.query_latencies,
            total_io_bytes: stats.io_bytes,
            buffer: stats,
            makespan: VirtualInstant::from_nanos(makespan_ns).since(VirtualInstant::EPOCH),
            has_timing: true,
            sharing: state.sampler.into_profile(),
        })
    }

    // -----------------------------------------------------------------
    // OPT: replay the PBM trace through Belady's algorithm
    // -----------------------------------------------------------------

    fn run_opt(&self, workload: &WorkloadSpec) -> Result<SimResult> {
        let trace = Arc::new(ReferenceTrace::new());
        let pbm_result = self.run_pool(workload, PolicyKind::Pbm, Some(Arc::clone(&trace)))?;
        let capacity = self.config.scanshare.buffer_pool_pages().max(1);
        let opt = simulate_opt(&trace.pages(), capacity);
        let page_size = self.config.scanshare.page_size_bytes;
        Ok(SimResult {
            workload: workload.name.clone(),
            policy: PolicyKind::Opt,
            stream_times: pbm_result.stream_times,
            query_latencies: Vec::new(),
            total_io_bytes: opt.io_bytes(page_size),
            buffer: BufferStats {
                hits: opt.hits,
                misses: opt.misses,
                evictions: opt.evictions,
                pages_loaded: opt.misses,
                io_bytes: opt.io_bytes(page_size),
                ..BufferStats::default()
            },
            makespan: pbm_result.makespan,
            has_timing: false,
            sharing: None,
        })
    }

    // -----------------------------------------------------------------
    // Cooperative Scans
    // -----------------------------------------------------------------

    fn register_cscan_part(&self, abm: &Abm, scan: &ResolvedScan) -> Result<CScanHandle> {
        let layout = self.storage.layout(scan.table)?;
        abm.register_cscan(CScanRequest {
            table: scan.table,
            snapshot: Arc::clone(&scan.snapshot),
            layout,
            columns: scan.columns.clone(),
            ranges: scan.sid_ranges.clone(),
            in_order: false,
        })
    }

    /// Advances a CScan query to its next part with stable data to read,
    /// registering it; `None` when the query has no further parts.
    fn activate_next_cscan_part(
        &self,
        abm: &Abm,
        run: &mut CScanQueryRun,
    ) -> Result<Option<CScanHandle>> {
        while run.part_idx < run.scans.len() {
            let scan = &run.scans[run.part_idx];
            if scan.sid_ranges.is_empty() {
                // The engine registers no backend scan for PDT-only ranges.
                run.part_idx += 1;
                continue;
            }
            return Ok(Some(self.register_cscan_part(abm, scan)?));
        }
        Ok(None)
    }

    /// One phase of the Cooperative Scans event loop over the persistent
    /// `state`; the ABM's chunk cache survives phases.
    fn cscan_phase(
        &self,
        state: &mut RunState<Abm>,
        phase_queries: Vec<VecDeque<ResolvedQuery>>,
        start_ns: u64,
    ) -> Result<Vec<u64>> {
        let page_size = self.config.scanshare.page_size_bytes;

        let abm = &state.buffers;
        let mut streams: Vec<StreamState<CScanQueryRun>> = start_streams(phase_queries);

        let mut heap: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut push_event = |heap: &mut BinaryHeap<Reverse<Event>>,
                              time: u64,
                              kind: EventKind,
                              plan: Option<LoadPlan>| {
            heap.push(Reverse(Event {
                time,
                seq,
                kind,
                plan,
            }));
            seq += 1;
        };
        for s in 0..streams.len() {
            push_event(&mut heap, start_ns, EventKind::Stream(s), None);
        }

        let mut blocked: HashSet<usize> = HashSet::new();
        let mut loader_busy = false;

        macro_rules! kick_loader {
            ($heap:expr, $now:expr) => {
                if !loader_busy {
                    if let Some(plan) = abm.next_load(VirtualInstant::from_nanos($now)) {
                        let done = state
                            .device
                            .submit(VirtualInstant::from_nanos($now), plan.bytes)
                            .as_nanos();
                        loader_busy = true;
                        push_event($heap, done, EventKind::LoadDone, Some(plan));
                    }
                }
            };
        }

        while let Some(Reverse(event)) = heap.pop() {
            let now_ns = event.time;
            let now = VirtualInstant::from_nanos(now_ns);

            // Periodic sharing-potential sampling: the outstanding data of
            // a CScan is the page set of its still-needed chunks, which the
            // ABM tracks directly.
            state.sampler.sample_if_due(event.time, page_size, || {
                streams
                    .iter()
                    .filter_map(|st| st.current.as_ref())
                    .filter_map(|q| q.active)
                    .map(|handle| abm.outstanding_pages(handle.id))
                    .collect()
            });

            match event.kind {
                EventKind::LoadDone => {
                    let plan = event.plan.expect("load event carries its plan");
                    abm.complete_load(&plan, now)?;
                    loader_busy = false;
                    // Wake blocked streams in index order: HashSet iteration
                    // order varies between processes and would make ABM
                    // scheduling (and therefore I/O volumes) nondeterministic.
                    let mut woken: Vec<usize> = blocked.drain().collect();
                    woken.sort_unstable();
                    for s in woken {
                        push_event(&mut heap, now_ns, EventKind::Stream(s), None);
                    }
                    kick_loader!(&mut heap, now_ns);
                }
                EventKind::Stream(s) => {
                    if streams[s].current.is_none() {
                        let Some(query) = streams[s].queries.pop_front() else {
                            if streams[s].finished.is_none() {
                                streams[s].finished = Some(now);
                            }
                            continue;
                        };
                        let mut run = CScanQueryRun {
                            scans: query.scans,
                            part_idx: 0,
                            active: None,
                            cpu_ns_per_tuple: query.cpu_ns_per_tuple,
                            started: now,
                        };
                        run.active = self.activate_next_cscan_part(abm, &mut run)?;
                        streams[s].current = Some(run);
                        kick_loader!(&mut heap, now_ns);
                    }

                    let run = streams[s].current.as_mut().expect("set above");
                    let Some(handle) = run.active else {
                        // All parts done: the query is finished.
                        state.query_latencies.push(now.since(run.started));
                        streams[s].current = None;
                        push_event(&mut heap, now_ns, EventKind::Stream(s), None);
                        continue;
                    };

                    match abm.get_chunk(handle.id)? {
                        Some(delivery) => {
                            let cpu_ns =
                                (delivery.tuples as f64 * run.cpu_ns_per_tuple).round() as u64;
                            push_event(&mut heap, now_ns + cpu_ns, EventKind::Stream(s), None);
                        }
                        None => {
                            if abm.is_finished(handle.id) {
                                abm.unregister_cscan(handle.id)?;
                                run.part_idx += 1;
                                run.active = self.activate_next_cscan_part(abm, run)?;
                                push_event(&mut heap, now_ns, EventKind::Stream(s), None);
                                kick_loader!(&mut heap, now_ns);
                            } else {
                                blocked.insert(s);
                                kick_loader!(&mut heap, now_ns);
                            }
                        }
                    }
                }
            }
        }

        finish_times(&streams).ok_or_else(|| {
            Error::internal(
                "Cooperative Scans simulation deadlocked: buffer pool too small for one chunk",
            )
        })
    }

    fn run_cscan(&self, workload: &WorkloadSpec) -> Result<SimResult> {
        let abm = Abm::new(AbmConfig::new(
            self.config.scanshare.buffer_pool_bytes,
            self.config.scanshare.page_size_bytes,
        ));
        self.run_rounds(
            workload,
            PolicyKind::CScan,
            abm,
            Self::cscan_phase,
            // The ABM's chunk cache is snapshot-versioned: stale versions
            // die with their last scan (the engine-side CScanBackend
            // invalidation hook is likewise a no-op), so checkpoint
            // invalidation drops nothing here.
            |_, _| {},
            Abm::stats,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanshare_common::Bandwidth;
    use scanshare_workload::microbench::{self, MicrobenchConfig};

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
        let (storage, workload) = build_micro();
        let mut slow_cfg = sim_config(PolicyKind::Pbm, 512 * 1024);
        slow_cfg.scanshare.io_bandwidth = Bandwidth::from_mb_per_sec(200.0);
        let mut fast_cfg = sim_config(PolicyKind::Pbm, 512 * 1024);
        fast_cfg.scanshare.io_bandwidth = Bandwidth::from_gb_per_sec(2.0);
        let slow = Simulation::new(Arc::clone(&storage), slow_cfg)
            .unwrap()
            .run(&workload)
            .unwrap();
        let fast = Simulation::new(Arc::clone(&storage), fast_cfg)
            .unwrap()
            .run(&workload)
            .unwrap();
        assert!(fast.avg_stream_time_secs().unwrap() <= slow.avg_stream_time_secs().unwrap());
        // The I/O volume is (approximately) bandwidth-independent. It is not
        // exactly equal for PBM because the scans' observed speeds — and
        // therefore the next-consumption estimates — depend on how fast pages
        // arrive, which is precisely the paper's "approximately constant".
        let ratio = fast.total_io_bytes as f64 / slow.total_io_bytes as f64;
        assert!(
            (0.85..=1.15).contains(&ratio),
            "I/O volume changed too much: {ratio}"
        );
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

    use scanshare_workload::spec::UpdateMix;

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
