//! The scan-backend abstraction unifying page-level buffer pools and the
//! Active Buffer Manager behind one interface.
//!
//! The paper's central observation is that Predictive Buffer Management
//! delivers most of Cooperative Scans' benefit *without* forking the system
//! architecture. The execution layer mirrors that: a scan operator talks to
//! a [`ScanBackend`] and never needs to know whether the engine runs a
//! passive page buffer (a [`BufferPool`] with a pluggable replacement
//! policy, [`PooledBackend`]) or the chunk-dispatching [`Abm`]
//! ([`CScanBackend`]).
//!
//! The protocol is the paper's buffer-manager interface (Figure 3 /
//! Section 2):
//!
//! 1. [`ScanBackend::register_scan`] — `RegisterScan` / `RegisterCScan`:
//!    announce the stable (SID) ranges and columns the scan will read (a
//!    pooled backend with a prefetch window tops it up here);
//! 2. [`ScanBackend::next_chunk`] — a non-blocking probe for the next SID
//!    range the scan should produce: sequential for pooled backends, the
//!    ABM's `GetChunk` choice (generally out of table order) for
//!    Cooperative Scans, [`ScanStep::Starved`] when nothing the scan needs
//!    is cached — the driver then waits for the load that
//!    [`ScanBackend::pump_loads`], the loader's one step, left in flight;
//! 3. [`ScanBackend::request_page`] — page-granular requests issued while
//!    producing a delivered range (pooled backends count hits/misses,
//!    charge misses to the device and top up their prefetch window; the ABM
//!    already loaded the chunk);
//! 4. [`ScanBackend::report_position`] — `ReportScanPosition`: progress
//!    feedback that PBM turns into next-consumption estimates;
//! 5. [`ScanBackend::finish_scan`] — `UnregisterScan` / `UnregisterCScan`.
//!
//! # Clock-free
//!
//! Backends own no clock. Every call that happens *at* a point in time
//! takes that instant as `now` (the convention of
//! [`ReplacementPolicy`](crate::policy::ReplacementPolicy), [`BufferPool`]
//! and [`Abm`]), and every call that costs time returns the instant its
//! result is usable. The caller owns time: the execution engine reads `now`
//! from its shared monotone clock and advances it to whatever a call
//! returned; the discrete-event simulator passes its event time and
//! schedules the stream's next event at the returned instant. One
//! implementation therefore serves both executors, and both build it with
//! the one constructor, [`build_backend`].

use std::collections::VecDeque;
use std::sync::Arc;

use scanshare_common::hash::IdHashMap;
use scanshare_common::sync::Mutex;
use scanshare_common::{
    Error, PageId, PolicyKind, RangeList, Result, ScanId, ScanShareConfig, TableId, TupleRange,
    VirtualInstant,
};
use scanshare_iosim::{BlockDevice, IoKind, ReadSpec, ReferenceTrace};
use scanshare_storage::layout::TableLayout;
use scanshare_storage::snapshot::Snapshot;

use crate::abm::{Abm, AbmConfig};
use crate::metrics::BufferStats;
use crate::pool::BufferPool;
use crate::registry::{pooled_policy_name, PolicyRegistry};

/// What a scan announces to a backend when it registers: the stable data it
/// is going to read. [`CScanBackend`] hands it to the [`Abm`] as it is, which
/// keeps it for the scan's lifetime.
#[derive(Debug, Clone)]
pub struct ScanRequest {
    /// Table being scanned.
    pub table: TableId,
    /// Storage snapshot the scan's transaction works on.
    pub snapshot: Arc<Snapshot>,
    /// Layout of the table.
    pub layout: Arc<TableLayout>,
    /// Column indices the scan reads.
    pub columns: Vec<usize>,
    /// Stable (SID) ranges the scan must cover.
    pub ranges: RangeList,
    /// Whether delivery must follow table order even on backends that prefer
    /// to reorder (the "CScan as drop-in replacement for Scan" mode of
    /// Section 2.3). Pooled backends always deliver in order.
    pub in_order: bool,
}

/// One scheduling step handed to a scan operator by [`ScanBackend::next_chunk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanStep {
    /// Produce the rows of this stable (SID) range next. Under
    /// [`CScanBackend`] the range is a cached chunk: its I/O was performed and
    /// accounted when the load retired. Under [`PooledBackend`] it is only
    /// the next registered range: each of its pages is requested, and a miss
    /// charged, at [`ScanBackend::request_page`].
    Deliver(TupleRange),
    /// Every registered range has been delivered.
    Finished,
    /// Nothing the scan still needs is cached: the caller must wait for the
    /// load [`ScanBackend::pump_loads`] left in flight, pump again at its
    /// completion and probe again. A scan that is still starved with the
    /// loader idle cannot progress ([`Error::ScanStarved`]). Pooled backends
    /// never starve.
    Starved,
}

/// A concurrent-scan buffer-management backend.
///
/// Implementations use interior mutability: one backend instance is shared
/// by every scan of an engine, across the worker threads of parallel plans.
pub trait ScanBackend: Send + Sync + std::fmt::Debug {
    /// Short name of the backing policy ("lru", "pbm", "cscan", ...).
    fn name(&self) -> &'static str;

    /// Which policy family the backend implements.
    fn kind(&self) -> PolicyKind;

    /// Registers a scan and its data interest at `now`; returns the scan id
    /// used in all subsequent calls.
    fn register_scan(&self, request: ScanRequest, now: VirtualInstant) -> Result<ScanId>;

    /// Probes for the next SID range `scan` should produce. Never blocks
    /// and never performs I/O; see [`ScanStep`].
    fn next_chunk(&self, scan: ScanId) -> Result<ScanStep>;

    /// A page-granular request issued at `now` while producing a delivered
    /// range. Returns the instant the page is usable: `now` on a hit, the
    /// in-flight transfer's completion on a hit on a page still being
    /// prefetched, the demand read's completion on a miss.
    fn request_page(
        &self,
        scan: ScanId,
        page: PageId,
        now: VirtualInstant,
    ) -> Result<VirtualInstant>;

    /// The scan consumed `tuples_consumed` rows of its own range list so far
    /// (`ReportScanPosition`) — the unit of
    /// [`ReplacementPolicy::report_scan_position`](crate::policy::ReplacementPolicy::report_scan_position):
    /// rows, not tuples summed over the pages of every column.
    fn report_position(&self, scan: ScanId, tuples_consumed: u64, now: VirtualInstant);

    /// The scan finished (or was dropped) and its metadata can be freed.
    fn finish_scan(&self, scan: ScanId, now: VirtualInstant);

    /// The chunk loader's one step, run at `now`: retires every load whose
    /// transfer completed by `now`, planning the next load at each
    /// retirement's completion instant, and plans one at `now` if nothing is
    /// in flight. Returns the completion instant of the load left in flight
    /// (always after `now`; a starved scan waits until then), or `None` when
    /// the loader is idle. Backends that load on demand (the pooled ones)
    /// never load anything.
    fn pump_loads(&self, now: VirtualInstant) -> Result<Option<VirtualInstant>> {
        let _ = now;
        Ok(None)
    }

    /// Accumulated buffer statistics (`io_bytes` is the paper's total I/O
    /// volume metric).
    fn stats(&self) -> BufferStats;

    /// Notifies the backend that a checkpoint replaced `table`'s stable
    /// image: `stale_pages` belonged to the superseded master snapshot and
    /// can never be requested by a scan pinned to the new image. The caller
    /// delivers each checkpoint's invalidation once, and a table's
    /// invalidations in checkpoint order (the engine calls this under the
    /// table's checkpoint lock), so a backend need not guard against late or
    /// replayed calls.
    ///
    /// The default does nothing — correctness never depends on this hook
    /// (stale pages are simply never requested again); it exists so pooled
    /// backends can return the capacity immediately instead of waiting for
    /// the replacement policy to age the dead pages out.
    fn invalidate_stale(&self, table: TableId, stale_pages: &[PageId]) {
        let _ = (table, stale_pages);
    }
}

/// Builds the scan backend `config` selects — the one constructor behind
/// both executors: a [`CScanBackend`] over a fresh [`Abm`] for
/// `PolicyKind::CScan`, otherwise a [`PooledBackend`] over a
/// [`BufferPool`] whose replacement policy `registry` resolves (see
/// [`pooled_policy_name`]). All I/O is charged to `device`.
///
/// `PolicyKind::Opt` runs under PBM while recording the page-reference
/// trace returned alongside, for replay under Belady's algorithm
/// ([`simulate_opt`](crate::opt::simulate_opt)).
#[allow(clippy::type_complexity)]
pub fn build_backend(
    config: &ScanShareConfig,
    registry: &PolicyRegistry,
    device: Arc<dyn BlockDevice>,
) -> Result<(Box<dyn ScanBackend>, Option<Arc<ReferenceTrace>>)> {
    if config.policy == PolicyKind::CScan {
        let abm = Abm::new(AbmConfig::new(
            config.buffer_pool_bytes,
            config.page_size_bytes,
        ));
        return Ok((Box::new(CScanBackend::new(abm, device)), None));
    }
    let replacement = registry.build(pooled_policy_name(config, config.policy), config)?;
    let mut pool = BufferPool::new(
        config.buffer_pool_pages().max(1),
        config.page_size_bytes,
        replacement,
    );
    let trace = (config.policy == PolicyKind::Opt).then(|| Arc::new(ReferenceTrace::new()));
    if let Some(trace) = &trace {
        pool = pool.with_trace(Arc::clone(trace));
    }
    let backend =
        PooledBackend::new(pool, device, config.policy).with_prefetch_window(config.prefetch_pages);
    Ok((Box::new(backend), trace))
}

// ---------------------------------------------------------------------------
// PooledBackend: BufferPool + ReplacementPolicy (LRU / PBM / OPT / custom)
// ---------------------------------------------------------------------------

/// A [`ScanBackend`] over the page-level [`BufferPool`] and its pluggable
/// [`ReplacementPolicy`](crate::policy::ReplacementPolicy).
///
/// Ranges are delivered strictly in registration order; the interesting
/// decisions (what to evict, what the scans' progress reports mean) happen
/// inside the replacement policy on every [`ScanBackend::request_page`].
/// The pool synchronizes internally (one lock, see [`pool`](crate::pool)),
/// so the concurrent scans of a multi-stream workload share it directly.
///
/// With a non-zero prefetch window
/// ([`PooledBackend::with_prefetch_window`]), the backend additionally keeps
/// up to `prefetch_pages` policy-predicted pages in flight on the I/O
/// device: their transfers proceed in virtual time while scans compute, and
/// a demand access to a page still in flight waits only for the *remaining*
/// transfer time instead of a full synchronous load. The window is topped
/// up at [`ScanBackend::register_scan`] and at every
/// [`ScanBackend::request_page`] that changed the prefetch picture (a miss,
/// or a hit that consumed a window slot), always at the caller's `now` —
/// the same two points in both executors.
#[derive(Debug)]
pub struct PooledBackend {
    pool: BufferPool,
    /// Pending SID ranges per registered scan, delivered front to back.
    pending: Mutex<IdHashMap<ScanId, VecDeque<TupleRange>>>,
    /// Prefetched pages whose transfer may still be in flight, with their
    /// completion times. Entries leave the map when the transfer completes
    /// (freeing a window slot) or when a demand access consumes the page.
    ///
    /// Lock order: the pool's internal lock may be taken while holding
    /// `inflight` (the prefetch top-up path), never the other way around.
    inflight: Mutex<IdHashMap<PageId, VirtualInstant>>,
    prefetch_pages: usize,
    device: Arc<dyn BlockDevice>,
    kind: PolicyKind,
    name: &'static str,
    page_size_bytes: u64,
}

impl PooledBackend {
    /// Wraps `pool`, charging misses to `device`. `kind` is the policy
    /// family reported by [`ScanBackend::kind`] (custom registry policies
    /// report the family they were configured under).
    pub fn new(pool: BufferPool, device: Arc<dyn BlockDevice>, kind: PolicyKind) -> Self {
        let name = pool.policy_name();
        let page_size_bytes = pool.page_size_bytes();
        Self {
            pool,
            pending: Mutex::new(IdHashMap::default()),
            inflight: Mutex::new(IdHashMap::default()),
            prefetch_pages: 0,
            device,
            kind,
            name,
            page_size_bytes,
        }
    }

    /// Enables asynchronous prefetching with a window of `pages` in-flight
    /// transfers (`0` keeps the synchronous behaviour).
    pub fn with_prefetch_window(mut self, pages: usize) -> Self {
        self.prefetch_pages = pages;
        self
    }

    /// Tops up the prefetch window at `now`: drops completed transfers from
    /// `inflight`, asks the pool (and through it the policy) for the most
    /// urgent non-resident pages, admits them (never evicting — only free
    /// capacity is filled) and submits their transfers without blocking.
    fn top_up_prefetch(&self, now: VirtualInstant) {
        if self.prefetch_pages == 0 {
            return;
        }
        let mut inflight = self.inflight.lock();
        // Completed transfers free their window slots; their pages stay
        // resident in the pool.
        inflight.retain(|_, done| *done > now);
        let slots = self
            .prefetch_pages
            .saturating_sub(inflight.len())
            .min(self.pool.free_pages());
        if slots == 0 {
            return;
        }
        for page in self.pool.prefetch_candidates(slots, now) {
            if self.pool.admit_prefetch(page, now) {
                let targets = std::slice::from_ref(&page);
                let spec = ReadSpec::for_pages(targets, self.page_size_bytes, IoKind::Prefetch);
                // A failed speculative submission costs only the window slot:
                // the page stays admitted and a later demand access loads it
                // through the ordinary (error-reporting) miss path.
                if let Ok(completion) = self.device.submit_read(now, spec) {
                    inflight.insert(page, completion.done_at);
                }
            }
        }
    }
}

impl ScanBackend for PooledBackend {
    fn name(&self) -> &'static str {
        self.name
    }

    fn kind(&self) -> PolicyKind {
        self.kind
    }

    fn register_scan(&self, request: ScanRequest, now: VirtualInstant) -> Result<ScanId> {
        let plan =
            request
                .layout
                .scan_page_plan(&request.snapshot, &request.columns, &request.ranges);
        let id = self.pool.register_scan(&plan, now);
        // A fresh scan's first pages can start loading immediately.
        self.top_up_prefetch(now);
        self.pending
            .lock()
            .insert(id, request.ranges.ranges().iter().copied().collect());
        Ok(id)
    }

    fn next_chunk(&self, scan: ScanId) -> Result<ScanStep> {
        let mut pending = self.pending.lock();
        let queue = pending.get_mut(&scan).ok_or(Error::UnknownScan(scan))?;
        Ok(match queue.pop_front() {
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
        let outcome = self.pool.request_page(page, Some(scan), now)?;
        let ready = if !outcome.is_hit() {
            // The demand read is submitted before any new prefetches so it
            // never queues behind speculative transfers it did not need.
            let targets = std::slice::from_ref(&page);
            let spec = ReadSpec::for_pages(targets, self.page_size_bytes, IoKind::Demand);
            self.device.submit_read(now, spec)?.done_at
        } else {
            // A hit on a page whose prefetch is still in flight waits for
            // the remaining transfer time — the overlapped part is free. Any
            // other hit returns without topping up: a hit on an already-warm
            // pool must not pay an O(tracked pages) policy scan.
            let in_flight = match self.prefetch_pages {
                0 => None,
                _ => self.inflight.lock().remove(&page),
            };
            match in_flight {
                Some(done) => done.max(now),
                None => return Ok(now),
            }
        };
        // This access changed the prefetch picture (a miss loaded a page, or
        // a window slot was consumed).
        self.top_up_prefetch(now);
        Ok(ready)
    }

    fn report_position(&self, scan: ScanId, tuples_consumed: u64, now: VirtualInstant) {
        self.pool.report_scan_position(scan, tuples_consumed, now);
    }

    fn finish_scan(&self, scan: ScanId, now: VirtualInstant) {
        if self.pending.lock().remove(&scan).is_some() {
            self.pool.unregister_scan(scan, now);
        }
    }

    fn stats(&self) -> BufferStats {
        self.pool.stats()
    }

    fn invalidate_stale(&self, _table: TableId, stale_pages: &[PageId]) {
        // Stale pages whose prefetch is still in flight just lose their
        // window slot; the transfer itself already happened (or is charged
        // regardless), exactly as for a page evicted mid-flight.
        if self.prefetch_pages > 0 {
            let mut inflight = self.inflight.lock();
            for page in stale_pages {
                inflight.remove(page);
            }
        }
        self.pool.invalidate_pages(stale_pages);
    }
}

// ---------------------------------------------------------------------------
// CScanBackend: the Active Buffer Manager (Cooperative Scans)
// ---------------------------------------------------------------------------

/// A [`ScanBackend`] over the [`Abm`]: chunks are delivered in whatever
/// order the ABM's relevance functions consider best, and chunk loads are
/// charged to the device one at a time (the paper's model), each submitted
/// the instant its predecessor completes while scans consume what is
/// cached. In a real system a dedicated ABM thread does this; here
/// [`ScanBackend::pump_loads`] replays that thread up to the caller's `now`
/// — the engine calls it before every probe, the simulator's event loop at
/// its load completions and stream events.
///
/// Every Cooperative Scans fact, the load in flight included, lives in the
/// ABM behind its one lock (see [`abm`](crate::abm)). A probe is one
/// acquisition of that lock, which answers with the delivered chunk's SID
/// range. So is a loader step, the device submission included; any stream's
/// step retires the loads due, whoever planned them. The step plans through
/// the same core as [`Abm::next_load`], so a caller drives one or the other:
/// whoever plans through `next_load` runs no backend step over the same ABM.
/// The backend holds only the ABM and the device.
///
/// [`ScanBackend::invalidate_stale`] keeps its no-op default: the ABM caches
/// at chunk granularity, keyed by snapshot *version*. Scans pinned to a
/// checkpoint-superseded snapshot keep their version (and its cached chunks
/// — they still need them), and the version is destroyed, releasing every
/// cached byte, the moment its last scan unregisters — the paper's
/// PDT-checkpoint semantics. There is nothing to drop eagerly that some live
/// scan does not still reference.
#[derive(Debug)]
pub struct CScanBackend {
    abm: Abm,
    device: Arc<dyn BlockDevice>,
}

impl CScanBackend {
    /// Wraps `abm`, charging chunk loads to `device`, one load in flight at
    /// a time (the paper's model).
    pub fn new(abm: Abm, device: Arc<dyn BlockDevice>) -> Self {
        Self { abm, device }
    }
}

impl ScanBackend for CScanBackend {
    fn name(&self) -> &'static str {
        "cscan"
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::CScan
    }

    fn register_scan(&self, request: ScanRequest, _now: VirtualInstant) -> Result<ScanId> {
        Ok(self.abm.register_cscan(request)?.id)
    }

    fn next_chunk(&self, scan: ScanId) -> Result<ScanStep> {
        self.abm.next_chunk(scan)
    }

    fn request_page(
        &self,
        _scan: ScanId,
        _page: PageId,
        now: VirtualInstant,
    ) -> Result<VirtualInstant> {
        // Chunk loads already brought the pages in and accounted the I/O.
        Ok(now)
    }

    fn pump_loads(&self, now: VirtualInstant) -> Result<Option<VirtualInstant>> {
        self.abm.pump_loads(now, self.device.as_ref())
    }

    fn report_position(&self, _scan: ScanId, _tuples_consumed: u64, _now: VirtualInstant) {
        // The ABM tracks progress through chunk deliveries, not positions.
    }

    fn finish_scan(&self, scan: ScanId, _now: VirtualInstant) {
        // An unknown (or already finished) scan is a harmless no-op.
        let _ = self.abm.unregister_cscan(scan);
    }

    fn stats(&self) -> BufferStats {
        self.abm.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abm::LoadPlan;
    use crate::lru::LruPolicy;
    use scanshare_common::{Bandwidth, VirtualDuration};
    use scanshare_iosim::IoDevice;
    use scanshare_storage::column::{ColumnSpec, ColumnType};
    use scanshare_storage::datagen::DataGen;
    use scanshare_storage::storage::Storage;
    use scanshare_storage::table::TableSpec;

    const PAGE: u64 = 1024;
    const T0: VirtualInstant = VirtualInstant::EPOCH;

    fn setup(tuples: u64) -> (Arc<Storage>, ScanRequest) {
        let storage = Storage::with_seed(PAGE, 500, 3);
        let spec = TableSpec::new(
            "t",
            vec![
                ColumnSpec::with_width("k", ColumnType::Int64, 8.0),
                ColumnSpec::with_width("v", ColumnType::Int64, 4.0),
            ],
            tuples,
        );
        let table = storage
            .create_table_with_data(
                spec,
                vec![
                    DataGen::Sequential { start: 0, step: 1 },
                    DataGen::Constant(1),
                ],
            )
            .unwrap();
        let request = ScanRequest {
            table,
            snapshot: storage.master_snapshot(table).unwrap(),
            layout: storage.layout(table).unwrap(),
            columns: vec![0, 1],
            ranges: RangeList::single(0, tuples),
            in_order: false,
        };
        (storage, request)
    }

    fn device() -> Arc<IoDevice> {
        Arc::new(IoDevice::new(
            Bandwidth::from_mb_per_sec(700.0),
            VirtualDuration::from_micros(100),
        ))
    }

    fn lru_backend(pages: usize, device: Arc<IoDevice>) -> PooledBackend {
        let pool = BufferPool::new(pages, PAGE, Box::new(LruPolicy::new()));
        PooledBackend::new(pool, device, PolicyKind::Lru)
    }

    fn cscan_backend() -> CScanBackend {
        CScanBackend::new(Abm::new(AbmConfig::new(1 << 20, PAGE)), device())
    }

    /// The driver side of the chunk protocol in one place, on a local
    /// clock: pump the loader and probe; while starved, advance `now` to
    /// the completion of the load in flight.
    fn next_delivery(
        backend: &dyn ScanBackend,
        scan: ScanId,
        now: &mut VirtualInstant,
    ) -> Option<TupleRange> {
        loop {
            let due = backend.pump_loads(*now).unwrap();
            match backend.next_chunk(scan).unwrap() {
                ScanStep::Deliver(sids) => return Some(sids),
                ScanStep::Finished => return None,
                ScanStep::Starved => *now = due.expect("a starved scan has a load to wait for"),
            }
        }
    }

    #[test]
    fn pooled_backend_delivers_ranges_in_order_and_counts_io() {
        let (_storage, request) = setup(2000);
        let backend = lru_backend(64, device());
        assert_eq!(backend.name(), "lru");
        assert_eq!(backend.kind(), PolicyKind::Lru);
        let scan = backend.register_scan(request.clone(), T0).unwrap();
        assert_eq!(
            backend.next_chunk(scan).unwrap(),
            ScanStep::Deliver(TupleRange::new(0, 2000))
        );
        assert_eq!(backend.next_chunk(scan).unwrap(), ScanStep::Finished);
        // Pooled backends load on demand: the loader step does nothing.
        assert_eq!(backend.pump_loads(T0).unwrap(), None);

        // A miss is usable when its demand read completes, a hit at once.
        let page = request.snapshot.page(0, 0).unwrap();
        let ready = backend.request_page(scan, page, T0).unwrap();
        assert!(ready > T0, "a miss pays I/O time");
        assert_eq!(backend.request_page(scan, page, ready).unwrap(), ready);
        let stats = backend.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        backend.report_position(scan, 1000, ready);
        backend.finish_scan(scan, ready);
        assert!(
            backend.next_chunk(scan).is_err(),
            "finished scans are unregistered"
        );
    }

    #[test]
    fn cscan_backend_delivers_every_chunk_and_accounts_loads() {
        let (_storage, request) = setup(3000);
        let backend = cscan_backend();
        assert_eq!(backend.name(), "cscan");
        assert_eq!(backend.kind(), PolicyKind::CScan);
        let mut now = T0;
        let scan = backend.register_scan(request, now).unwrap();
        assert_eq!(
            backend.next_chunk(scan).unwrap(),
            ScanStep::Starved,
            "the probe never loads by itself"
        );
        let mut delivered = RangeList::new();
        while let Some(sids) = next_delivery(&backend, scan, &mut now) {
            delivered.add(sids);
        }
        assert_eq!(
            delivered.total_tuples(),
            3000,
            "chunks cover the whole range"
        );
        assert!(backend.stats().io_bytes > 0);
        assert!(now > T0, "waiting for loads moved the caller's clock");
        assert_eq!(
            backend.pump_loads(now).unwrap(),
            None,
            "nothing left to load"
        );
        // Page requests are free (the chunk load brought the pages in) and
        // progress reports are accepted (and ignored) for API symmetry.
        assert_eq!(
            backend.request_page(scan, PageId::new(0), now).unwrap(),
            now
        );
        backend.report_position(scan, 1, now);
        backend.finish_scan(scan, now);
    }

    #[test]
    fn backends_are_usable_as_trait_objects() {
        let (_storage, request) = setup(500);
        let backends: Vec<Box<dyn ScanBackend>> = vec![
            Box::new(lru_backend(64, device())),
            Box::new(cscan_backend()),
        ];
        for backend in backends {
            let mut now = T0;
            let scan = backend.register_scan(request.clone(), now).unwrap();
            let mut steps = 0;
            while next_delivery(backend.as_ref(), scan, &mut now).is_some() {
                steps += 1;
                assert!(steps < 100);
            }
            assert!(steps > 0);
            backend.finish_scan(scan, now);
        }
    }

    #[test]
    fn build_backend_follows_the_configured_policy() {
        let config = |policy| ScanShareConfig {
            page_size_bytes: PAGE,
            buffer_pool_bytes: 64 * PAGE,
            policy,
            ..Default::default()
        };
        let registry = PolicyRegistry::default();
        for (policy, name) in [
            (PolicyKind::Lru, "lru"),
            (PolicyKind::Pbm, "pbm"),
            (PolicyKind::Opt, "pbm"),
            (PolicyKind::CScan, "cscan"),
        ] {
            let (backend, trace) = build_backend(&config(policy), &registry, device()).unwrap();
            assert_eq!((backend.kind(), backend.name()), (policy, name));
            assert_eq!(trace.is_some(), policy == PolicyKind::Opt, "{policy}");
        }
        let custom = config(PolicyKind::Lru).with_custom_policy("sieve");
        let (backend, _) = build_backend(&custom, &registry, device()).unwrap();
        assert_eq!((backend.kind(), backend.name()), (PolicyKind::Lru, "sieve"));
        let unknown = config(PolicyKind::Lru).with_custom_policy("no-such-policy");
        assert!(build_backend(&unknown, &registry, device()).is_err());
    }

    #[test]
    fn prefetch_window_overlaps_io_with_demand_accesses() {
        let (_storage, request) = setup(2000);
        // Synchronous baseline.
        let sync_device = device();
        let sync_backend = lru_backend(64, sync_device.clone());
        // Prefetching backend with a 4-page window.
        let pf_device = device();
        let pf_backend = lru_backend(64, pf_device.clone()).with_prefetch_window(4);

        // Drives one scan on a local clock; returns when it finished.
        let run = |backend: &dyn ScanBackend| {
            let mut now = T0;
            let scan = backend.register_scan(request.clone(), now).unwrap();
            while let ScanStep::Deliver(range) = backend.next_chunk(scan).unwrap() {
                for sid in (range.start..range.end).step_by(128) {
                    for col in 0..2 {
                        if let Some(page) = request.snapshot.page(col, sid / 128) {
                            now = backend.request_page(scan, page, now).unwrap();
                        }
                    }
                    // Compute on the batch while the window's transfers
                    // proceed; the next page request tops the window up.
                    now = now.after(VirtualDuration::from_micros(20));
                }
            }
            backend.finish_scan(scan, now);
            now
        };
        let sync_done = run(&sync_backend);
        let pf_done = run(&pf_backend);

        // Both read every distinct page exactly once (the pool holds the
        // whole table), but the prefetching backend loaded most of them
        // speculatively and overlapped the transfers: its demand path waits
        // less virtual time.
        let sync_stats = sync_backend.stats();
        let pf_stats = pf_backend.stats();
        assert_eq!(sync_stats.io_bytes, pf_stats.io_bytes);
        assert!(pf_stats.prefetched_pages > 0);
        assert_eq!(
            pf_stats.prefetch_io_bytes,
            pf_device.stats().prefetch_bytes,
            "pool and device agree on the prefetch volume"
        );
        assert_eq!(sync_device.stats().prefetch_bytes, 0);
        assert!(
            pf_done < sync_done,
            "prefetching hides transfers behind compute (pf {pf_done} vs sync {sync_done})"
        );
    }

    /// The backend's one-lock probe answers exactly what the ABM's own
    /// `GetChunk` and `is_finished` say, translated into SID ranges: an
    /// out-of-order and an in-order scan over a table whose last chunk is
    /// partial, registered on a `CScanBackend` and on a bare `Abm` alike.
    #[test]
    fn cscan_probe_matches_the_abm_get_chunk() {
        const ROWS: u64 = 2_250;
        let (_storage, request) = setup(ROWS);
        let layout = Arc::clone(&request.layout);
        let in_order = ScanRequest {
            ranges: RangeList::single(100, ROWS),
            in_order: true,
            ..request.clone()
        };
        let backend = cscan_backend();
        let abm = Abm::new(AbmConfig::new(1 << 20, PAGE));
        let scans: Vec<ScanId> = [request, in_order]
            .into_iter()
            .map(|request| {
                let id = backend.register_scan(request.clone(), T0).unwrap();
                assert_eq!(abm.register_cscan(request).unwrap().id, id);
                id
            })
            .collect();
        let mut now = T0;
        let mut mirror: Option<(LoadPlan, VirtualInstant)> = None;
        let mut delivered: Vec<Vec<TupleRange>> = vec![Vec::new(); scans.len()];
        while !scans.iter().all(|&scan| abm.is_finished(scan)) {
            // The loader step, mirrored on the bare ABM and timed by the
            // backend's device: `now` only ever advances to a completion, so
            // each step retires at most the one load due.
            let due = backend.pump_loads(now).unwrap();
            if mirror.as_ref().is_some_and(|&(_, done)| done <= now) {
                let (plan, done) = mirror.take().unwrap();
                abm.complete_load(&plan, done).unwrap();
            }
            if mirror.is_none() {
                mirror = abm
                    .next_load(now)
                    .map(|plan| (plan, due.expect("the same decision")));
            }
            assert_eq!(mirror.as_ref().map(|&(_, done)| done), due);
            let mut progressed = false;
            for (i, &scan) in scans.iter().enumerate() {
                let expected = match abm.get_chunk(scan).unwrap() {
                    Some(delivery) => {
                        ScanStep::Deliver(layout.chunk_sid_range(delivery.chunk, ROWS))
                    }
                    None if abm.is_finished(scan) => ScanStep::Finished,
                    None => ScanStep::Starved,
                };
                assert_eq!(backend.next_chunk(scan).unwrap(), expected, "scan {i}");
                if let ScanStep::Deliver(sids) = expected {
                    delivered[i].push(sids);
                    progressed = true;
                }
            }
            if !progressed {
                now = due.expect("a starved scan waits for a load");
            }
        }
        for &scan in &scans {
            assert_eq!(backend.next_chunk(scan).unwrap(), ScanStep::Finished);
        }
        assert_eq!(backend.stats(), abm.stats());
        let last = TupleRange::new(2_000, ROWS);
        for sids in &delivered {
            assert_eq!(sids.len(), 5);
            assert!(
                sids.contains(&last),
                "the partial chunk ends at the table's end"
            );
        }
        let chunk_starts: Vec<u64> = delivered[1].iter().map(|r| r.start).collect();
        assert_eq!(
            chunk_starts,
            [0, 500, 1_000, 1_500, 2_000],
            "in table order"
        );
    }

    /// The loader runs beside the scans: a step taken late retires every load
    /// due by then, each successor submitted at its predecessor's
    /// completion, exactly as a step taken at every completion would.
    #[test]
    fn a_late_loader_step_chains_loads_at_their_predecessors_completion() {
        let (_storage, request) = setup(3000);
        let punctual = cscan_backend();
        punctual.register_scan(request.clone(), T0).unwrap();
        let mut completions = Vec::new();
        let mut now = T0;
        while let Some(done) = punctual.pump_loads(now).unwrap() {
            assert!(done > now);
            completions.push(done);
            now = done;
        }
        assert!(completions.len() >= 3, "{completions:?}");
        let (d2, d3) = (completions[1], completions[2]);

        let late = cscan_backend();
        late.register_scan(request, T0).unwrap();
        assert_eq!(late.pump_loads(T0).unwrap(), Some(completions[0]));
        let between = VirtualInstant::from_nanos((d2.as_nanos() + d3.as_nanos()) / 2);
        assert_eq!(late.pump_loads(between).unwrap(), Some(d3));
        assert_eq!(late.pump_loads(now).unwrap(), None);
        assert_eq!(late.stats(), punctual.stats());
    }

    /// A load in flight outlives the scan it was planned for: the next step
    /// at its completion retires it for the scan that still needs the chunk,
    /// and its bytes are counted once.
    #[test]
    fn a_load_in_flight_survives_its_planning_scan_finishing() {
        let (_storage, request) = setup(3000);
        let layout = Arc::clone(&request.layout);
        let device = device();
        let backend = CScanBackend::new(Abm::new(AbmConfig::new(1 << 20, PAGE)), device.clone());
        // A bare ABM with the same registrations names the first plan.
        let mirror = Abm::new(AbmConfig::new(1 << 20, PAGE));
        for _ in 0..2 {
            let id = backend.register_scan(request.clone(), T0).unwrap();
            assert_eq!(mirror.register_cscan(request.clone()).unwrap().id, id);
        }
        let plan = mirror.next_load(T0).unwrap();
        let done = backend.pump_loads(T0).unwrap().expect("a load in flight");
        backend.finish_scan(plan.scan, T0);
        let survivor = ScanId::new(1 - plan.scan.raw());
        assert_eq!(backend.next_chunk(survivor).unwrap(), ScanStep::Starved);

        backend.pump_loads(done).unwrap();
        assert_eq!(backend.stats().io_bytes, plan.bytes);
        assert_eq!(
            backend.next_chunk(survivor).unwrap(),
            ScanStep::Deliver(layout.chunk_sid_range(plan.chunk, 3000))
        );
        let mut now = done;
        while next_delivery(&backend, survivor, &mut now).is_some() {}
        assert_eq!(backend.pump_loads(now).unwrap(), None);
        assert_eq!(backend.stats().io_bytes, device.stats().bytes_read);
    }

    #[test]
    fn unknown_scan_ids_error() {
        let (_storage, request) = setup(500);
        let backends: Vec<Box<dyn ScanBackend>> = vec![
            Box::new(lru_backend(4, device())),
            Box::new(cscan_backend()),
        ];
        let unknown = |result: Result<ScanStep>, id: ScanId| matches!(result, Err(Error::UnknownScan(scan)) if scan == id);
        for backend in backends {
            let name = backend.name();
            assert!(
                unknown(backend.next_chunk(ScanId::new(7)), ScanId::new(7)),
                "{name}"
            );
            // finish_scan of an unknown id is a harmless no-op (Drop paths).
            backend.finish_scan(ScanId::new(7), T0);
            let scan = backend.register_scan(request.clone(), T0).unwrap();
            backend.finish_scan(scan, T0);
            let stats = backend.stats();
            backend.finish_scan(scan, T0);
            assert_eq!(backend.stats(), stats, "{name}: a second finish is a no-op");
            assert!(unknown(backend.next_chunk(scan), scan), "{name}");
        }
    }
}
