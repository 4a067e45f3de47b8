//! The scan-backend abstraction unifying page-level buffer pools and the
//! Active Buffer Manager behind one interface.
//!
//! The paper's central observation is that Predictive Buffer Management
//! delivers most of Cooperative Scans' benefit *without* forking the system
//! architecture. The execution layer mirrors that: a scan operator talks to
//! a [`ScanBackend`] and never needs to know whether the engine runs a
//! passive page buffer (a [`ShardedPool`] with a pluggable replacement
//! policy, [`PooledBackend`]) or the chunk-dispatching [`Abm`]
//! ([`CScanBackend`]).
//!
//! The protocol is the paper's buffer-manager interface (Figure 3 /
//! Section 2):
//!
//! 1. [`ScanBackend::register_scan`] — `RegisterScan` / `RegisterCScan`:
//!    announce the stable (SID) ranges and columns the scan will read;
//! 2. [`ScanBackend::next_chunk`] — the backend schedules the next SID range
//!    the scan should produce: sequential for pooled backends, the ABM's
//!    `GetChunk` choice (generally out of table order) for Cooperative
//!    Scans. The backend performs and accounts any I/O this requires;
//! 3. [`ScanBackend::request_page`] — page-granular requests issued while
//!    producing a delivered range (pooled backends count hits/misses and
//!    charge misses to the device; the ABM already loaded the chunk);
//! 4. [`ScanBackend::report_position`] — `ReportScanPosition`: progress
//!    feedback that PBM turns into next-consumption estimates;
//! 5. [`ScanBackend::finish_scan`] — `UnregisterScan` / `UnregisterCScan`.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use scanshare_common::sync::{Mutex, RwLock};
use scanshare_common::{
    Error, PageId, PolicyKind, RangeList, Result, ScanId, TableId, TupleRange, VirtualClock,
    VirtualInstant,
};
use scanshare_iosim::{BlockDevice, IoKind, ReadSpec};
use scanshare_storage::layout::TableLayout;
use scanshare_storage::snapshot::Snapshot;

use crate::abm::{Abm, CScanRequest, LoadScheduler, PumpOutcome};
use crate::metrics::BufferStats;
use crate::sharded::ShardedPool;

/// What a scan announces to a backend when it registers: the stable data it
/// is going to read.
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
    /// Produce the rows of this stable (SID) range next. Any I/O needed to
    /// make the range available has already been performed and accounted.
    Deliver(TupleRange),
    /// Every registered range has been delivered.
    Finished,
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

    /// Registers a scan and its data interest; returns the scan id used in
    /// all subsequent calls.
    fn register_scan(&self, request: ScanRequest) -> Result<ScanId>;

    /// Schedules the next SID range `scan` should produce, loading data (and
    /// charging the I/O device in virtual time) as required.
    fn next_chunk(&self, scan: ScanId) -> Result<ScanStep>;

    /// A page-granular request issued while producing a delivered range.
    fn request_page(&self, scan: ScanId, page: PageId) -> Result<()>;

    /// The scan consumed `tuples_consumed` tuples so far (`ReportScanPosition`).
    fn report_position(&self, scan: ScanId, tuples_consumed: u64);

    /// The scan finished (or was dropped) and its metadata can be freed.
    fn finish_scan(&self, scan: ScanId);

    /// Accumulated buffer statistics (`io_bytes` is the paper's total I/O
    /// volume metric).
    fn stats(&self) -> BufferStats;

    /// Records that zone-map pruning removed `tuples` stable tuples from a
    /// scan's interest *before* registration: the backend never sees a page
    /// request, an ABM chunk interest or a PBM consumption prediction for
    /// them. Called even when pruning removes the entire range (and the scan
    /// therefore never registers), so the counter reflects every skipped
    /// tuple. Folded into [`BufferStats::pruned_tuples`].
    fn record_pruned(&self, tuples: u64) {
        let _ = tuples;
    }

    /// Gives the backend an opportunity to issue asynchronous prefetch I/O
    /// (top up its in-flight window from the policy's
    /// [`prefetch_hints`](crate::policy::ReplacementPolicy::prefetch_hints)).
    /// Called by scan operators at compute points — between producing
    /// batches — so transfers overlap with tuple processing. The default
    /// does nothing; backends without a prefetcher (or with
    /// `prefetch_pages == 0`) ignore it.
    fn drive_prefetch(&self) {}

    /// Notifies the backend that a checkpoint replaced `table`'s stable
    /// image: `stale_pages` belonged to the superseded master snapshot and
    /// can never be requested by a scan pinned to the new image. `epoch` is
    /// the table's checkpoint epoch *after* the swap; backends record the
    /// largest epoch seen per table and ignore calls that do not advance it,
    /// so a late or replayed invalidation can never clobber state installed
    /// by a newer checkpoint.
    ///
    /// The default does nothing — correctness never depends on this hook
    /// (stale pages are simply never requested again); it exists so pooled
    /// backends can return the capacity immediately instead of waiting for
    /// the replacement policy to age the dead pages out.
    fn invalidate_stale(&self, table: TableId, epoch: u64, stale_pages: &[PageId]) {
        let _ = (table, epoch, stale_pages);
    }
}

/// Charges a demand read of `targets` (`bytes` in total) to the device and
/// waits (in virtual time) for the transfer to complete. Device faults are
/// surfaced to the caller as typed errors.
fn charge_io(
    device: &dyn BlockDevice,
    clock: &VirtualClock,
    bytes: u64,
    targets: &[PageId],
) -> Result<()> {
    if bytes == 0 {
        return Ok(());
    }
    let spec = ReadSpec {
        bytes,
        pages: targets.len() as u64,
        kind: IoKind::Demand,
        targets,
    };
    let done = device.submit_read(clock.now(), spec)?.done_at;
    clock.advance_to(done);
    Ok(())
}

// ---------------------------------------------------------------------------
// PooledBackend: ShardedPool + ReplacementPolicy (LRU / PBM / OPT / custom)
// ---------------------------------------------------------------------------

/// A [`ScanBackend`] over the page-level [`ShardedPool`] and its pluggable
/// [`ReplacementPolicy`](crate::policy::ReplacementPolicy).
///
/// Ranges are delivered strictly in registration order; the interesting
/// decisions (what to evict, what the scans' progress reports mean) happen
/// inside the replacement policy on every [`ScanBackend::request_page`].
/// The pool synchronizes internally (per-shard page-table locks, one policy
/// lock fed by an order-preserving event queue — see
/// [`sharded`](crate::sharded)), so concurrent scans of a multi-stream
/// workload contend only on the shard owning the page they touch.
///
/// With a non-zero prefetch window
/// ([`PooledBackend::with_prefetch_window`]), the backend additionally keeps
/// up to `prefetch_pages` policy-predicted pages in flight on the I/O
/// device: their transfers proceed in virtual time while scans compute, and
/// a demand access to a page still in flight waits only for the *remaining*
/// transfer time instead of a full synchronous load.
#[derive(Debug)]
pub struct PooledBackend {
    pool: ShardedPool,
    /// Pending SID ranges per registered scan, delivered front to back.
    pending: Mutex<HashMap<ScanId, VecDeque<TupleRange>>>,
    /// Prefetched pages whose transfer may still be in flight, with their
    /// completion times. Entries leave the map when the transfer completes
    /// (freeing a window slot) or when a demand access consumes the page.
    ///
    /// Lock order: the pool's internal locks may be taken while holding
    /// `inflight` (the prefetch top-up path), never the other way around.
    inflight: Mutex<HashMap<PageId, VirtualInstant>>,
    prefetch_pages: usize,
    /// Largest checkpoint epoch seen per table (see
    /// [`ScanBackend::invalidate_stale`]).
    invalidation_epochs: Mutex<HashMap<TableId, u64>>,
    /// Tuples skipped by zone-map pruning before scans registered (see
    /// [`ScanBackend::record_pruned`]).
    pruned_tuples: AtomicU64,
    clock: Arc<VirtualClock>,
    device: Arc<dyn BlockDevice>,
    kind: PolicyKind,
    name: &'static str,
    page_size_bytes: u64,
}

impl PooledBackend {
    /// Wraps `pool`, charging misses to `device` on `clock`. `kind` is the
    /// policy family reported by [`ScanBackend::kind`] (custom registry
    /// policies report the family they were configured under).
    pub fn new(
        pool: ShardedPool,
        clock: Arc<VirtualClock>,
        device: Arc<dyn BlockDevice>,
        kind: PolicyKind,
    ) -> Self {
        let name = pool.policy_name();
        let page_size_bytes = pool.page_size_bytes();
        Self {
            pool,
            pending: Mutex::new(HashMap::new()),
            inflight: Mutex::new(HashMap::new()),
            prefetch_pages: 0,
            invalidation_epochs: Mutex::new(HashMap::new()),
            pruned_tuples: AtomicU64::new(0),
            clock,
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

    /// The configured prefetch window, in pages.
    pub fn prefetch_window(&self) -> usize {
        self.prefetch_pages
    }

    /// Tops up the prefetch window: asks the pool (and through it the
    /// policy) for the most urgent non-resident pages and submits their
    /// transfers asynchronously, without advancing the caller's clock.
    fn top_up_prefetch(&self) {
        if self.prefetch_pages == 0 {
            return;
        }
        crate::sharded::top_up_prefetch_window(
            &self.pool,
            self.device.as_ref(),
            &mut self.inflight.lock(),
            self.prefetch_pages,
            self.clock.now(),
        );
    }
}

impl ScanBackend for PooledBackend {
    fn name(&self) -> &'static str {
        self.name
    }

    fn kind(&self) -> PolicyKind {
        self.kind
    }

    fn register_scan(&self, request: ScanRequest) -> Result<ScanId> {
        let plan =
            request
                .layout
                .scan_page_plan(&request.snapshot, &request.columns, &request.ranges);
        let id = self.pool.register_scan(&plan, self.clock.now());
        // A fresh scan's first pages can start loading immediately.
        self.top_up_prefetch();
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

    fn request_page(&self, scan: ScanId, page: PageId) -> Result<()> {
        let outcome = self.pool.request_page(page, Some(scan), self.clock.now())?;
        let mut consumed_inflight = false;
        if outcome.is_hit() {
            // A hit on a page whose prefetch is still in flight waits for
            // the remaining transfer time — the overlapped part is free.
            if self.prefetch_pages > 0 {
                if let Some(done) = self.inflight.lock().remove(&page) {
                    self.clock.advance_to(done);
                    consumed_inflight = true;
                }
            }
        } else {
            // The demand read is submitted before any new prefetches so it
            // never queues behind speculative transfers it did not need.
            charge_io(
                self.device.as_ref(),
                &self.clock,
                self.page_size_bytes,
                std::slice::from_ref(&page),
            )?;
        }
        // Top up only when this access changed the prefetch picture (a miss
        // loaded a page, or a window slot was consumed): a hit on an
        // already-warm pool must not pay an O(tracked pages) policy scan.
        if self.prefetch_pages > 0 && (!outcome.is_hit() || consumed_inflight) {
            self.top_up_prefetch();
        }
        Ok(())
    }

    fn report_position(&self, scan: ScanId, tuples_consumed: u64) {
        self.pool
            .report_scan_position(scan, tuples_consumed, self.clock.now());
    }

    fn finish_scan(&self, scan: ScanId) {
        if self.pending.lock().remove(&scan).is_some() {
            self.pool.unregister_scan(scan, self.clock.now());
        }
    }

    fn stats(&self) -> BufferStats {
        let mut stats = self.pool.stats();
        stats.pruned_tuples = self.pruned_tuples.load(Ordering::Relaxed);
        stats
    }

    fn record_pruned(&self, tuples: u64) {
        self.pruned_tuples.fetch_add(tuples, Ordering::Relaxed);
    }

    fn drive_prefetch(&self) {
        self.top_up_prefetch();
    }

    fn invalidate_stale(&self, table: TableId, epoch: u64, stale_pages: &[PageId]) {
        {
            let mut epochs = self.invalidation_epochs.lock();
            let seen = epochs.entry(table).or_insert(0);
            if epoch <= *seen {
                return;
            }
            *seen = epoch;
        }
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

/// Per-scan metadata the backend needs to translate ABM chunk deliveries
/// back into SID ranges.
#[derive(Debug)]
struct CScanMeta {
    layout: Arc<TableLayout>,
    stable_tuples: u64,
}

/// A [`ScanBackend`] over the [`Abm`]: chunks are delivered in whatever
/// order the ABM's relevance functions consider best, and chunk loads are
/// pumped through a shared [`LoadScheduler`] (charged to the device in
/// virtual time) whenever a scan would otherwise starve.
///
/// The backend holds no outer mutex: the decomposed ABM synchronizes
/// internally (per-shard directory locks for delivery, one relevance-core
/// lock for decisions — see [`abm`](crate::abm)), the per-scan translation
/// metadata sits behind a read-mostly `RwLock`, and starved streams retire
/// each other's in-flight loads through the scheduler instead of
/// spin-polling one `Mutex<Abm>`.
#[derive(Debug)]
pub struct CScanBackend {
    abm: Abm,
    scans: RwLock<HashMap<ScanId, CScanMeta>>,
    scheduler: LoadScheduler,
    /// Largest checkpoint epoch seen per table (see
    /// [`ScanBackend::invalidate_stale`]).
    invalidation_epochs: Mutex<HashMap<TableId, u64>>,
    /// Tuples skipped by zone-map pruning before scans registered (see
    /// [`ScanBackend::record_pruned`]).
    pruned_tuples: AtomicU64,
    clock: Arc<VirtualClock>,
    device: Arc<dyn BlockDevice>,
}

impl CScanBackend {
    /// Wraps `abm`, charging chunk loads to `device` on `clock`, with the
    /// paper-faithful one-load-at-a-time window (see
    /// [`CScanBackend::with_load_window`]).
    pub fn new(abm: Abm, clock: Arc<VirtualClock>, device: Arc<dyn BlockDevice>) -> Self {
        Self {
            abm,
            scans: RwLock::new(HashMap::new()),
            scheduler: LoadScheduler::new(1),
            invalidation_epochs: Mutex::new(HashMap::new()),
            pruned_tuples: AtomicU64::new(0),
            clock,
            device,
        }
    }

    /// Sets the load scheduler's window: up to `window` chunk loads are
    /// kept in flight on the device at once (`1` keeps the one-load-at-a-
    /// time model whose decisions match the monolithic ABM byte for byte).
    pub fn with_load_window(mut self, window: usize) -> Self {
        self.scheduler = LoadScheduler::new(window.max(1));
        self
    }

    /// The configured load window.
    pub fn load_window(&self) -> usize {
        self.scheduler.window()
    }

    /// The underlying Active Buffer Manager.
    pub fn abm(&self) -> &Abm {
        &self.abm
    }
}

impl ScanBackend for CScanBackend {
    fn name(&self) -> &'static str {
        "cscan"
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::CScan
    }

    fn register_scan(&self, request: ScanRequest) -> Result<ScanId> {
        let meta = CScanMeta {
            layout: Arc::clone(&request.layout),
            stable_tuples: request.snapshot.stable_tuples(),
        };
        let handle = self.abm.register_cscan(CScanRequest {
            table: request.table,
            snapshot: request.snapshot,
            layout: request.layout,
            columns: request.columns,
            ranges: request.ranges,
            in_order: request.in_order,
        })?;
        self.scans.write().insert(handle.id, meta);
        Ok(handle.id)
    }

    fn next_chunk(&self, scan: ScanId) -> Result<ScanStep> {
        loop {
            // Delivery is the sharded fast path: only the directory shard
            // owning this scan is locked.
            if let Some(delivery) = self.abm.get_chunk(scan)? {
                let scans = self.scans.read();
                let meta = scans.get(&scan).ok_or(Error::UnknownScan(scan))?;
                let sids = meta
                    .layout
                    .chunk_sid_range(delivery.chunk, meta.stable_tuples);
                return Ok(ScanStep::Deliver(sids));
            }
            if self.abm.is_finished(scan) {
                return Ok(ScanStep::Finished);
            }
            // The scan is starved: pump the load scheduler. In a real system
            // a dedicated ABM thread does this; in the embedded engine
            // whichever stream is starved drives the pipeline — planning a
            // new load if the window has room, otherwise retiring the
            // earliest in-flight load (possibly one another stream planned).
            match self
                .scheduler
                .pump(&self.abm, &self.clock, self.device.as_ref())?
            {
                PumpOutcome::Progress => continue,
                PumpOutcome::Idle => {
                    // Between our failed delivery probe and this pump,
                    // another stream may have retired the very load this
                    // scan was waiting for (the pipeline is then rightly
                    // empty): re-probe before declaring starvation. A scan
                    // that is still starved here cannot progress — nothing
                    // cached, nothing loadable, nothing in flight.
                    if self.abm.has_cached_chunk(scan) || self.abm.is_finished(scan) {
                        continue;
                    }
                    return Err(Error::ScanStarved(scan));
                }
            }
        }
    }

    fn request_page(&self, _scan: ScanId, _page: PageId) -> Result<()> {
        // Chunk loads already brought the pages in and accounted the I/O.
        Ok(())
    }

    fn report_position(&self, _scan: ScanId, _tuples_consumed: u64) {
        // The ABM tracks progress through chunk deliveries, not positions.
    }

    fn finish_scan(&self, scan: ScanId) {
        if self.scans.write().remove(&scan).is_some() {
            let _ = self.abm.unregister_cscan(scan);
        }
    }

    fn stats(&self) -> BufferStats {
        let mut stats = self.abm.stats();
        stats.pruned_tuples = self.pruned_tuples.load(Ordering::Relaxed);
        stats
    }

    fn record_pruned(&self, tuples: u64) {
        self.pruned_tuples.fetch_add(tuples, Ordering::Relaxed);
    }

    fn invalidate_stale(&self, table: TableId, epoch: u64, _stale_pages: &[PageId]) {
        // The ABM caches at chunk granularity, keyed by snapshot *version*:
        // scans pinned to the superseded snapshot keep their version (and
        // its cached chunks — they still need them), and the version is
        // destroyed, releasing every cached byte, the moment its last scan
        // unregisters (`Abm::unregister_cscan`). That is precisely the
        // paper's PDT-checkpoint semantics, so the hook only has to record
        // the epoch for the staleness contract; there is nothing to drop
        // eagerly that some live scan does not still reference.
        let mut epochs = self.invalidation_epochs.lock();
        let seen = epochs.entry(table).or_insert(0);
        *seen = (*seen).max(epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abm::AbmConfig;
    use crate::lru::LruPolicy;
    use scanshare_common::{Bandwidth, VirtualDuration};
    use scanshare_iosim::IoDevice;
    use scanshare_storage::column::{ColumnSpec, ColumnType};
    use scanshare_storage::datagen::DataGen;
    use scanshare_storage::storage::Storage;
    use scanshare_storage::table::TableSpec;

    const PAGE: u64 = 1024;

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

    fn clock_and_device() -> (Arc<VirtualClock>, Arc<IoDevice>) {
        (
            VirtualClock::shared(),
            Arc::new(IoDevice::new(
                Bandwidth::from_mb_per_sec(700.0),
                VirtualDuration::from_micros(100),
            )),
        )
    }

    #[test]
    fn pooled_backend_delivers_ranges_in_order_and_counts_io() {
        let (_storage, request) = setup(2000);
        let (clock, device) = clock_and_device();
        let backend = PooledBackend::new(
            ShardedPool::new(64, PAGE, Box::new(LruPolicy::new()), 2),
            Arc::clone(&clock),
            device,
            PolicyKind::Lru,
        );
        assert_eq!(backend.name(), "lru");
        assert_eq!(backend.kind(), PolicyKind::Lru);
        let scan = backend.register_scan(request.clone()).unwrap();
        assert_eq!(
            backend.next_chunk(scan).unwrap(),
            ScanStep::Deliver(TupleRange::new(0, 2000))
        );
        assert_eq!(backend.next_chunk(scan).unwrap(), ScanStep::Finished);

        // Page requests count misses and advance the virtual clock.
        let t0 = clock.now();
        let page = request.snapshot.page(0, 0).unwrap();
        backend.request_page(scan, page).unwrap();
        assert!(clock.now() > t0, "a miss pays I/O time");
        backend.request_page(scan, page).unwrap();
        let stats = backend.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        backend.report_position(scan, 1000);
        backend.finish_scan(scan);
        assert!(
            backend.next_chunk(scan).is_err(),
            "finished scans are unregistered"
        );
    }

    #[test]
    fn cscan_backend_delivers_every_chunk_and_accounts_loads() {
        let (_storage, request) = setup(3000);
        let (clock, device) = clock_and_device();
        let backend = CScanBackend::new(
            Abm::new(AbmConfig::new(1 << 20, PAGE)),
            Arc::clone(&clock),
            device,
        );
        assert_eq!(backend.name(), "cscan");
        assert_eq!(backend.kind(), PolicyKind::CScan);
        let scan = backend.register_scan(request).unwrap();
        let mut delivered = RangeList::new();
        while let ScanStep::Deliver(sids) = backend.next_chunk(scan).unwrap() {
            delivered.add(sids);
        }
        assert_eq!(
            delivered.total_tuples(),
            3000,
            "chunks cover the whole range"
        );
        assert!(backend.stats().io_bytes > 0);
        assert!(
            clock.now().as_nanos() > 0,
            "loads advanced the virtual clock"
        );
        // Progress reports are accepted (and ignored) for API symmetry.
        backend.report_position(scan, 1);
        backend.finish_scan(scan);
    }

    #[test]
    fn cscan_backend_load_window_pipelines_with_bounded_io_overhead() {
        // A deep load window loads the same chunks; overlapping in-flight
        // loads may each fetch a chunk-boundary page the other also plans
        // (a plan excludes only *resident* pages — exactly what happens
        // when parallel workers claim overlapping loads), so the volume may
        // exceed the serial case by at most a page per chunk boundary.
        let run = |window: usize| {
            let (_storage, request) = setup(4000);
            let (clock, device) = clock_and_device();
            let backend = CScanBackend::new(
                Abm::new(AbmConfig::new(1 << 20, PAGE).with_shards(2)),
                clock,
                device,
            )
            .with_load_window(window);
            assert_eq!(backend.load_window(), window);
            let scan = backend.register_scan(request).unwrap();
            while let ScanStep::Deliver(_) = backend.next_chunk(scan).unwrap() {}
            backend.finish_scan(scan);
            backend.stats()
        };
        let sync = run(1);
        let deep = run(4);
        assert_eq!(sync.misses, deep.misses, "same chunks loaded");
        assert!(deep.io_bytes >= sync.io_bytes);
        // 8 chunks x 2 columns: at most one duplicated boundary page per
        // column per adjacent chunk pair.
        assert!(deep.io_bytes <= sync.io_bytes + 2 * 7 * PAGE);
        assert!(sync.io_bytes > 0);
    }

    #[test]
    fn backends_are_usable_as_trait_objects() {
        let (_storage, request) = setup(500);
        let (clock, device) = clock_and_device();
        let backends: Vec<Box<dyn ScanBackend>> = vec![
            Box::new(PooledBackend::new(
                ShardedPool::new(64, PAGE, Box::new(LruPolicy::new()), 2),
                Arc::clone(&clock),
                device.clone(),
                PolicyKind::Lru,
            )),
            Box::new(CScanBackend::new(
                Abm::new(AbmConfig::new(1 << 20, PAGE)),
                clock,
                device,
            )),
        ];
        for backend in backends {
            let scan = backend.register_scan(request.clone()).unwrap();
            let mut steps = 0;
            while let ScanStep::Deliver(_) = backend.next_chunk(scan).unwrap() {
                steps += 1;
                assert!(steps < 100);
            }
            assert!(steps > 0);
            backend.finish_scan(scan);
        }
    }

    #[test]
    fn prefetch_window_overlaps_io_with_demand_accesses() {
        let (_storage, request) = setup(2000);
        // Synchronous baseline.
        let (sync_clock, sync_device) = clock_and_device();
        let sync_backend = PooledBackend::new(
            ShardedPool::new(64, PAGE, Box::new(LruPolicy::new()), 2),
            Arc::clone(&sync_clock),
            sync_device.clone(),
            PolicyKind::Lru,
        );
        assert_eq!(sync_backend.prefetch_window(), 0);
        // Prefetching backend with a 4-page window.
        let (pf_clock, pf_device) = clock_and_device();
        let pf_backend = PooledBackend::new(
            ShardedPool::new(64, PAGE, Box::new(LruPolicy::new()), 2),
            Arc::clone(&pf_clock),
            pf_device.clone(),
            PolicyKind::Lru,
        )
        .with_prefetch_window(4);
        assert_eq!(pf_backend.prefetch_window(), 4);

        let run = |backend: &dyn ScanBackend| {
            let scan = backend.register_scan(request.clone()).unwrap();
            while let ScanStep::Deliver(range) = backend.next_chunk(scan).unwrap() {
                for sid in (range.start..range.end).step_by(128) {
                    for col in 0..2 {
                        if let Some(page) = request.snapshot.page(col, sid / 128) {
                            backend.request_page(scan, page).unwrap();
                        }
                    }
                    backend.drive_prefetch();
                }
            }
            backend.finish_scan(scan);
        };
        run(&sync_backend);
        run(&pf_backend);

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
            pf_clock.now() <= sync_clock.now(),
            "prefetching never makes the scan slower (pf {} vs sync {})",
            pf_clock.now(),
            sync_clock.now()
        );
    }

    #[test]
    fn record_pruned_accumulates_into_stats_on_both_backends() {
        let (clock, device) = clock_and_device();
        let backends: Vec<Box<dyn ScanBackend>> = vec![
            Box::new(PooledBackend::new(
                ShardedPool::new(4, PAGE, Box::new(LruPolicy::new()), 1),
                Arc::clone(&clock),
                device.clone(),
                PolicyKind::Lru,
            )),
            Box::new(CScanBackend::new(
                Abm::new(AbmConfig::new(1 << 20, PAGE)),
                clock,
                device,
            )),
        ];
        for backend in backends {
            assert_eq!(backend.stats().pruned_tuples, 0);
            backend.record_pruned(1000);
            backend.record_pruned(24);
            assert_eq!(backend.stats().pruned_tuples, 1024);
        }
    }

    #[test]
    fn unknown_scan_ids_error() {
        let (clock, device) = clock_and_device();
        let backend = PooledBackend::new(
            ShardedPool::new(4, PAGE, Box::new(LruPolicy::new()), 1),
            clock,
            device,
            PolicyKind::Lru,
        );
        assert!(backend.next_chunk(ScanId::new(7)).is_err());
        // finish_scan of an unknown id is a harmless no-op (Drop paths).
        backend.finish_scan(ScanId::new(7));
    }
}
