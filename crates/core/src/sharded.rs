//! A sharded page buffer with globally exact replacement decisions.
//!
//! [`ShardedPool`] is the one page-level pool of the workspace: the
//! execution engine shares it between its scan threads and the discrete-event
//! simulator runs on a one-shard instance of it (both behind a
//! [`PooledBackend`](crate::backend::PooledBackend)). It tracks which pages are
//! resident, delegates every replacement decision to a pluggable
//! [`ReplacementPolicy`], maintains the statistics reported in the paper's
//! figures and can record a page-reference trace for the OPT simulation. It
//! is free of timing concerns: callers decide *when* a miss completes using
//! the I/O device; the pool only answers *whether* a request hits and *which*
//! pages get evicted.
//!
//! The page table, pin counts and statistics are partitioned across N
//! independently locked shards (`shard = page id mod N`), so concurrent scans
//! hitting warm pages synchronize only on the shard that owns the page
//! instead of on one global pool lock.
//!
//! ## Why the policy is *not* partitioned
//!
//! Splitting the replacement policy itself into per-shard instances with
//! per-shard capacity would change its decisions: global LRU is not the
//! composition of shard-local LRUs (a skewed trace can overflow one shard
//! while another has room, producing misses the global policy never takes).
//! This reproduction's figures hinge on exact I/O-volume accounting, so the
//! pool keeps **one** policy instance and guarantees it observes *exactly*
//! the access sequence a single-shard pool would feed it:
//!
//! * the hot path (a hit) takes only the owning shard's lock, bumps the
//!   shard-local hit counter and **buffers** the policy callback
//!   (`on_access`, and likewise `report_scan_position`) tagged with a
//!   global sequence number;
//! * every path that *reads or decides on* policy state — misses (eviction),
//!   scan registration, prefetch — first drains all buffers and replays the
//!   events to the policy in sequence order.
//!
//! The policy therefore sees the same calls, with the same arguments, in the
//! same order, at every decision point, for every shard count: hit counts
//! and total I/O volume are byte-identical to a pool that calls the policy
//! eagerly for any single-threaded trace (`tests/sharded_pool_properties.rs`
//! asserts this against such an oracle over randomized traces), and misses —
//! which pay virtual I/O anyway — are the only accesses that serialize on
//! the policy.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use scanshare_common::sync::{Mutex, MutexGuard};
use scanshare_common::{Error, PageId, Result, ScanId, VirtualInstant};
use scanshare_iosim::{BlockDevice, IoKind, ReadSpec, ReferenceTrace};
use scanshare_storage::layout::ScanPagePlan;

use crate::metrics::BufferStats;
use crate::policy::{ReplacementPolicy, ScanInfo};

/// How many buffered policy events a single shard (or the report queue)
/// accumulates before forcing a drain, bounding memory on hit-only
/// workloads. Draining is order-preserving, so the threshold affects only
/// *when* the policy catches up, never *what* it observes.
const EVENT_FLUSH_THRESHOLD: usize = 1024;

/// Result of a page request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The page was already resident.
    Hit,
    /// The page had to be loaded; the listed pages were evicted to make room.
    Miss {
        /// Pages evicted to make room for the new page.
        evicted: Vec<PageId>,
    },
}

impl AccessOutcome {
    /// Whether the access was a hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }
}

/// A deferred policy callback, tagged with its global arrival sequence.
#[derive(Debug)]
enum PendingEvent {
    /// `ReplacementPolicy::on_access` from the hit fast path.
    Access {
        page: PageId,
        scan: Option<ScanId>,
        now: VirtualInstant,
    },
    /// `ReplacementPolicy::report_scan_position`.
    Report {
        scan: ScanId,
        tuples_consumed: u64,
        now: VirtualInstant,
    },
}

/// One lock domain: the pages whose id hashes here, their pin counts, the
/// statistics they accumulated and the not-yet-replayed policy events.
#[derive(Debug, Default)]
struct Shard {
    resident: HashSet<PageId>,
    pinned: HashMap<PageId, u32>,
    stats: BufferStats,
    events: Vec<(u64, PendingEvent)>,
}

/// The single policy instance plus the scan-id allocator, guarded by the
/// lock every *decision* path takes (and hit paths never do).
#[derive(Debug)]
struct PoolCore {
    policy: Box<dyn ReplacementPolicy>,
    next_scan: u64,
    /// Where a drain gathers and sorts the pending events; empty between
    /// drains, kept for its capacity.
    scratch: Vec<(u64, PendingEvent)>,
}

/// All locks held at once, with every pending event already replayed: the
/// state a single-shard pool would be in. Shard locks are always taken in
/// ascending index order, then the core; the report queue is a leaf lock,
/// held only while its events move out and never while another lock is
/// being acquired.
struct Locked<'a> {
    shards: Vec<MutexGuard<'a, Shard>>,
    core: MutexGuard<'a, PoolCore>,
}

/// A fixed-capacity page buffer partitioned into independently-locked
/// shards, driven by one globally consistent replacement policy.
///
/// Every method takes `&self`: the pool is shared directly between the scan
/// threads of an engine (see [`PooledBackend`](crate::backend::PooledBackend))
/// without an outer lock.
#[derive(Debug)]
pub struct ShardedPool {
    shards: Vec<Mutex<Shard>>,
    reports: Mutex<Vec<(u64, PendingEvent)>>,
    core: Mutex<PoolCore>,
    /// Global arrival order of deferred events.
    seq: AtomicU64,
    /// Total resident pages across shards (kept for lock-free capacity
    /// probes; the authoritative count is the sum of the shard sets).
    resident_total: AtomicUsize,
    capacity_pages: usize,
    page_size_bytes: u64,
    trace: Option<Arc<ReferenceTrace>>,
    name: &'static str,
}

impl ShardedPool {
    /// Creates a pool of `capacity_pages` pages of `page_size_bytes` each,
    /// partitioned into `shards` lock domains. `shards == 1` is a fully
    /// serialized pool (and any other shard count reproduces its
    /// *decisions* — see the module docs).
    pub fn new(
        capacity_pages: usize,
        page_size_bytes: u64,
        policy: Box<dyn ReplacementPolicy>,
        shards: usize,
    ) -> Self {
        assert!(
            capacity_pages > 0,
            "buffer pool must hold at least one page"
        );
        assert!(shards > 0, "the pool needs at least one shard");
        let name = policy.name();
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            reports: Mutex::new(Vec::new()),
            core: Mutex::new(PoolCore {
                policy,
                next_scan: 0,
                scratch: Vec::new(),
            }),
            seq: AtomicU64::new(0),
            resident_total: AtomicUsize::new(0),
            capacity_pages,
            page_size_bytes,
            trace: None,
            name,
        }
    }

    /// Attaches a reference-trace recorder (used to later replay the same
    /// page-reference sequence under OPT, exactly like the paper does with
    /// the trace of a PBM run).
    pub fn with_trace(mut self, trace: Arc<ReferenceTrace>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// The policy's short name.
    pub fn policy_name(&self) -> &'static str {
        self.name
    }

    /// Page size in bytes.
    pub fn page_size_bytes(&self) -> u64 {
        self.page_size_bytes
    }

    /// Number of resident pages (across all shards).
    pub fn resident_count(&self) -> usize {
        self.resident_total.load(Ordering::Relaxed)
    }

    /// Number of unused page slots (the only capacity prefetching may use).
    pub fn free_pages(&self) -> usize {
        self.capacity_pages.saturating_sub(self.resident_count())
    }

    /// Whether `page` is resident.
    pub fn contains(&self, page: PageId) -> bool {
        self.shards[self.shard_index(page)]
            .lock()
            .resident
            .contains(&page)
    }

    /// Statistics aggregated across every shard.
    pub fn stats(&self) -> BufferStats {
        let mut total = BufferStats::default();
        for shard in &self.shards {
            total.merge(&shard.lock().stats);
        }
        total
    }

    fn shard_index(&self, page: PageId) -> usize {
        (page.raw() % self.shards.len() as u64) as usize
    }

    fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Takes every lock (shards in ascending order, then the core) and
    /// replays all pending events in global arrival order, leaving the
    /// policy in exactly the state a single-shard pool would have.
    fn lock_all(&self) -> Locked<'_> {
        let mut shards: Vec<MutexGuard<'_, Shard>> = self.shards.iter().map(|s| s.lock()).collect();
        let mut core = self.core.lock();
        let PoolCore {
            policy, scratch, ..
        } = &mut *core;
        scratch.append(&mut self.reports.lock());
        for shard in &mut shards {
            scratch.append(&mut shard.events);
        }
        scratch.sort_unstable_by_key(|(seq, _)| *seq);
        for (_, event) in scratch.drain(..) {
            match event {
                PendingEvent::Access { page, scan, now } => policy.on_access(page, scan, now),
                PendingEvent::Report {
                    scan,
                    tuples_consumed,
                    now,
                } => policy.report_scan_position(scan, tuples_consumed, now),
            }
        }
        Locked { shards, core }
    }

    /// Drains and replays all buffered events (bounding buffer memory).
    fn drain_events(&self) {
        drop(self.lock_all());
    }

    /// Registers a scan and announces its page plan to the policy
    /// (`RegisterScan`). Returns the scan id to use in subsequent calls.
    pub fn register_scan(&self, plan: &ScanPagePlan, now: VirtualInstant) -> ScanId {
        let mut locked = self.lock_all();
        let id = ScanId::new(locked.core.next_scan);
        locked.core.next_scan += 1;
        let info = ScanInfo {
            id,
            total_tuples: plan.total_tuples,
            distinct_pages: plan.distinct_pages(),
        };
        locked.core.policy.register_scan(&info, plan, now);
        id
    }

    /// Reports scan progress (`ReportScanPosition`). Buffered like hit-path
    /// accesses; the policy replays it in order before its next decision.
    pub fn report_scan_position(&self, scan: ScanId, tuples_consumed: u64, now: VirtualInstant) {
        let queued = {
            let mut reports = self.reports.lock();
            // The sequence number is taken under the queue lock (like the
            // hit path takes it under its shard lock) so a drain can never
            // observe a later event while an earlier one is still in flight.
            let seq = self.next_seq();
            reports.push((
                seq,
                PendingEvent::Report {
                    scan,
                    tuples_consumed,
                    now,
                },
            ));
            reports.len()
        };
        if queued >= EVENT_FLUSH_THRESHOLD {
            self.drain_events();
        }
    }

    /// Unregisters a finished scan (`UnregisterScan`).
    pub fn unregister_scan(&self, scan: ScanId, now: VirtualInstant) {
        let mut locked = self.lock_all();
        locked.core.policy.unregister_scan(scan, now);
    }

    /// Pins a page, preventing its eviction until unpinned.
    pub fn pin(&self, page: PageId) {
        let mut shard = self.shards[self.shard_index(page)].lock();
        *shard.pinned.entry(page).or_insert(0) += 1;
    }

    /// Unpins a page previously pinned.
    pub fn unpin(&self, page: PageId) {
        let mut shard = self.shards[self.shard_index(page)].lock();
        if let Some(count) = shard.pinned.get_mut(&page) {
            *count -= 1;
            if *count == 0 {
                shard.pinned.remove(&page);
            }
        }
    }

    /// Requests a page on behalf of `scan`. Hits touch only the shard owning
    /// the page; on a miss the page is admitted immediately (the caller
    /// accounts for the load time) after evicting enough unpinned pages —
    /// chosen by the shared policy, exactly as a single-shard pool would —
    /// to stay within the global capacity.
    pub fn request_page(
        &self,
        page: PageId,
        scan: Option<ScanId>,
        now: VirtualInstant,
    ) -> Result<AccessOutcome> {
        let shard_idx = self.shard_index(page);
        let flush_after = {
            let mut shard = self.shards[shard_idx].lock();
            if let Some(trace) = &self.trace {
                trace.record(page, scan);
            }
            if !shard.resident.contains(&page) {
                drop(shard);
                return self.admit_demand(page, scan, now);
            }
            shard.stats.hits += 1;
            let seq = self.next_seq();
            shard
                .events
                .push((seq, PendingEvent::Access { page, scan, now }));
            shard.events.len() >= EVENT_FLUSH_THRESHOLD
        };
        if flush_after {
            self.drain_events();
        }
        Ok(AccessOutcome::Hit)
    }

    /// The miss path: replays pending events, evicts via the shared policy
    /// and admits `page`. The reference trace was already recorded by
    /// [`ShardedPool::request_page`].
    fn admit_demand(
        &self,
        page: PageId,
        scan: Option<ScanId>,
        now: VirtualInstant,
    ) -> Result<AccessOutcome> {
        let mut locked = self.lock_all();
        let shard_idx = self.shard_index(page);
        if locked.shards[shard_idx].resident.contains(&page) {
            // Another thread admitted the page between our shard probe and
            // the full lock: this request is served from the pool.
            locked.shards[shard_idx].stats.hits += 1;
            locked.core.policy.on_access(page, scan, now);
            return Ok(AccessOutcome::Hit);
        }

        let mut evicted = Vec::new();
        let resident: usize = locked.shards.iter().map(|s| s.resident.len()).sum();
        if resident >= self.capacity_pages {
            let want = resident + 1 - self.capacity_pages;
            let mut exclude: HashSet<PageId> = locked
                .shards
                .iter()
                .flat_map(|s| s.pinned.keys().copied())
                .collect();
            exclude.insert(page);
            let victims = locked.core.policy.choose_victims(want, &exclude, now);
            for victim in victims {
                let vs = self.shard_index(victim);
                if locked.shards[vs].resident.remove(&victim) {
                    locked.core.policy.on_evict(victim);
                    locked.shards[vs].stats.evictions += 1;
                    self.resident_total.fetch_sub(1, Ordering::Relaxed);
                    evicted.push(victim);
                }
            }
            let resident: usize = locked.shards.iter().map(|s| s.resident.len()).sum();
            if resident >= self.capacity_pages {
                let pinned: usize = locked.shards.iter().map(|s| s.pinned.len()).sum();
                return Err(Error::BufferPoolTooSmall {
                    capacity_pages: self.capacity_pages,
                    required_pages: pinned + 1,
                });
            }
        }

        locked.shards[shard_idx].resident.insert(page);
        self.resident_total.fetch_add(1, Ordering::Relaxed);
        locked.core.policy.on_admit(page, now);
        locked.core.policy.on_access(page, scan, now);
        let stats = &mut locked.shards[shard_idx].stats;
        stats.misses += 1;
        stats.pages_loaded += 1;
        stats.io_bytes += self.page_size_bytes;
        Ok(AccessOutcome::Miss { evicted })
    }

    /// Asks the policy which non-resident pages to stage next (see
    /// [`ReplacementPolicy::prefetch_hints`]) and filters the answer against
    /// the current residency set. Returns at most `budget` pages, most
    /// urgent first.
    pub fn prefetch_candidates(&self, budget: usize, now: VirtualInstant) -> Vec<PageId> {
        if budget == 0 {
            return Vec::new();
        }
        let mut locked = self.lock_all();
        let hints = locked.core.policy.prefetch_hints(now, budget);
        let mut seen = HashSet::with_capacity(hints.len());
        hints
            .into_iter()
            .filter(|p| {
                !locked.shards[self.shard_index(*p)].resident.contains(p) && seen.insert(*p)
            })
            .take(budget)
            .collect()
    }

    /// Admits `page` speculatively (the caller has submitted the transfer to
    /// the I/O device). Counts as prefetch I/O, not as a miss: the demand
    /// access that later consumes the page is a hit.
    ///
    /// Prefetch admissions **never evict**: they only fill otherwise-unused
    /// capacity. Evicting for a speculative load would let one scan's
    /// readahead displace pages other scans still need — under memory
    /// pressure that cascades into re-read storms that cost far more I/O
    /// than the overlap saves. Bounding prefetch to free buffers caps the
    /// downside at zero extra misses while keeping the full benefit where it
    /// exists (cold data, pools with headroom).
    ///
    /// Returns `false` without side effects when the page is already
    /// resident or the pool is full (prefetching is best-effort and never
    /// errors a scan).
    pub fn admit_prefetch(&self, page: PageId, now: VirtualInstant) -> bool {
        let mut locked = self.lock_all();
        let shard_idx = self.shard_index(page);
        let resident: usize = locked.shards.iter().map(|s| s.resident.len()).sum();
        if locked.shards[shard_idx].resident.contains(&page) || resident >= self.capacity_pages {
            return false;
        }
        if let Some(trace) = &self.trace {
            trace.record_prefetch(page);
        }
        locked.shards[shard_idx].resident.insert(page);
        self.resident_total.fetch_add(1, Ordering::Relaxed);
        locked.core.policy.on_admit(page, now);
        let stats = &mut locked.shards[shard_idx].stats;
        stats.pages_loaded += 1;
        stats.io_bytes += self.page_size_bytes;
        stats.prefetched_pages += 1;
        stats.prefetch_io_bytes += self.page_size_bytes;
        true
    }

    /// Drops the listed pages from the pool if resident and unpinned, in the
    /// given order, telling the policy to forget each one. Used when a
    /// checkpoint replaces a table's stable image: the old snapshot's pages
    /// can never be requested again, so keeping them resident only wastes
    /// capacity. Counted as `invalidated_pages`, not as evictions. Returns
    /// how many pages were dropped. All pending policy events are replayed
    /// first, so the policy observes the invalidation at exactly the same
    /// point in the event sequence a single-shard pool would.
    pub fn invalidate_pages(&self, pages: &[PageId]) -> usize {
        let mut locked = self.lock_all();
        let mut dropped = 0;
        for &page in pages {
            let shard_idx = self.shard_index(page);
            let shard = &mut locked.shards[shard_idx];
            if shard.pinned.contains_key(&page) {
                continue;
            }
            if shard.resident.remove(&page) {
                locked.core.policy.on_evict(page);
                shard.stats.invalidated_pages += 1;
                self.resident_total.fetch_sub(1, Ordering::Relaxed);
                dropped += 1;
            }
        }
        dropped
    }
}

/// Tops up a bounded asynchronous prefetch window: drops completed transfers
/// from `inflight`, asks the pool's policy for the most urgent non-resident
/// pages, admits them (never evicting — only free capacity is filled) and
/// submits their transfers to `device` without blocking.
///
/// This is the one implementation of the window semantics: `PooledBackend`
/// calls it at the explicit `now` of a registration, page request or
/// compute point, whichever executor drives the backend.
pub fn top_up_prefetch_window(
    pool: &ShardedPool,
    device: &dyn BlockDevice,
    inflight: &mut HashMap<PageId, VirtualInstant>,
    window: usize,
    now: VirtualInstant,
) {
    if window == 0 {
        return;
    }
    // Completed transfers free their window slots; their pages stay
    // resident in the pool.
    inflight.retain(|_, done| *done > now);
    let slots = window.saturating_sub(inflight.len()).min(pool.free_pages());
    if slots == 0 {
        return;
    }
    let page_size = pool.page_size_bytes();
    for page in pool.prefetch_candidates(slots, now) {
        if pool.admit_prefetch(page, now) {
            let spec =
                ReadSpec::for_pages(std::slice::from_ref(&page), page_size, IoKind::Prefetch);
            // A failed speculative submission costs only the window slot:
            // the page stays admitted and a later demand access loads it
            // through the ordinary (error-reporting) miss path.
            if let Ok(completion) = device.submit_read(now, spec) {
                inflight.insert(page, completion.done_at);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lru::LruPolicy;

    fn pool(capacity: usize, shards: usize) -> ShardedPool {
        ShardedPool::new(capacity, 1024, Box::new(LruPolicy::new()), shards)
    }

    fn p(i: u64) -> PageId {
        PageId::new(i)
    }

    fn now() -> VirtualInstant {
        VirtualInstant::EPOCH
    }

    #[test]
    fn hits_and_misses_are_counted_across_shards() {
        for shards in [1, 2, 8] {
            let pool = pool(2, shards);
            assert!(!pool.request_page(p(1), None, now()).unwrap().is_hit());
            assert!(pool.request_page(p(1), None, now()).unwrap().is_hit());
            assert!(!pool.request_page(p(2), None, now()).unwrap().is_hit());
            let stats = pool.stats();
            assert_eq!((stats.hits, stats.misses), (1, 2), "shards {shards}");
            assert_eq!(stats.io_bytes, 2048);
            assert_eq!(pool.resident_count(), 2);
            assert_eq!(pool.free_pages(), 0);
        }
    }

    #[test]
    fn capacity_is_globally_enforced() {
        for shards in [1, 3, 8] {
            let pool = pool(3, shards);
            for i in 0..10 {
                pool.request_page(p(i), None, now()).unwrap();
                assert!(pool.resident_count() <= 3, "shards {shards}");
            }
            assert_eq!(pool.stats().evictions, 7, "shards {shards}");
        }
    }

    #[test]
    fn lru_eviction_order_is_global_not_per_shard() {
        // Pages 1 and 3 share shard 1 of 2; page 2 lives in shard 0. A
        // per-shard LRU with split capacity would evict 1 to admit 3; the
        // globally exact policy evicts 2, the least recently used page.
        let pool = pool(2, 2);
        pool.request_page(p(1), None, now()).unwrap();
        pool.request_page(p(2), None, now()).unwrap();
        pool.request_page(p(1), None, now()).unwrap();
        let outcome = pool.request_page(p(3), None, now()).unwrap();
        assert_eq!(
            outcome,
            AccessOutcome::Miss {
                evicted: vec![p(2)]
            }
        );
        assert!(pool.contains(p(1)));
        assert!(!pool.contains(p(2)));
        assert!(pool.contains(p(3)));
    }

    #[test]
    fn pinned_pages_survive_eviction_and_exhaust_the_pool() {
        let pool = pool(2, 4);
        pool.request_page(p(1), None, now()).unwrap();
        pool.pin(p(1));
        pool.request_page(p(2), None, now()).unwrap();
        pool.request_page(p(3), None, now()).unwrap();
        assert!(pool.contains(p(1)), "pinned page survived");
        pool.pin(p(3));
        let err = pool.request_page(p(4), None, now()).unwrap_err();
        assert!(matches!(err, Error::BufferPoolTooSmall { .. }));
        pool.unpin(p(1));
        pool.request_page(p(4), None, now()).unwrap();
        assert!(!pool.contains(p(1)));
    }

    #[test]
    fn trace_records_every_request_in_order() {
        let trace = Arc::new(ReferenceTrace::new());
        let pool =
            ShardedPool::new(2, 1024, Box::new(LruPolicy::new()), 4).with_trace(Arc::clone(&trace));
        pool.request_page(p(5), Some(ScanId::new(9)), now())
            .unwrap();
        pool.request_page(p(6), None, now()).unwrap();
        pool.request_page(p(5), None, now()).unwrap();
        assert_eq!(trace.pages(), vec![p(5), p(6), p(5)]);
        assert_eq!(trace.snapshot()[0].scan, Some(ScanId::new(9)));
    }

    #[test]
    fn invalidation_respects_pins_and_is_not_an_eviction() {
        for shards in [1, 2, 8] {
            let pool = pool(4, shards);
            for i in 0..4 {
                pool.request_page(p(i), None, now()).unwrap();
            }
            pool.pin(p(3));
            let dropped = pool.invalidate_pages(&[p(0), p(1), p(3), p(7)]);
            assert_eq!(dropped, 2, "shards {shards}");
            assert_eq!(pool.resident_count(), 2, "shards {shards}");
            assert!(pool.contains(p(2)) && pool.contains(p(3)));
            let stats = pool.stats();
            assert_eq!(stats.invalidated_pages, 2, "shards {shards}");
            assert_eq!(stats.evictions, 0, "shards {shards}");
            // Invalidated pages are gone from the policy too: re-requesting
            // them misses and the LRU order continues from the survivors.
            assert!(!pool.request_page(p(0), None, now()).unwrap().is_hit());
        }
    }

    #[test]
    fn prefetch_admissions_fill_free_capacity_only() {
        let pool = pool(2, 2);
        assert!(pool.admit_prefetch(p(1), now()));
        assert!(!pool.admit_prefetch(p(1), now()), "already resident");
        assert!(pool.admit_prefetch(p(2), now()));
        assert!(!pool.admit_prefetch(p(3), now()), "pool is full");
        let stats = pool.stats();
        assert_eq!(stats.prefetched_pages, 2);
        assert_eq!(stats.prefetch_io_bytes, 2048);
        assert_eq!(stats.evictions, 0);
        // The demand access that consumes a prefetched page is a hit.
        assert!(pool.request_page(p(1), None, now()).unwrap().is_hit());
        // Once capacity frees up, prefetching resumes.
        pool.invalidate_pages(&[p(2)]);
        assert!(pool.admit_prefetch(p(3), now()));
        assert!(pool.contains(p(3)));
    }

    #[test]
    fn buffered_events_are_replayed_before_decisions() {
        // Hit page 1 repeatedly (buffered, no policy lock), then force an
        // eviction: the policy must know 1 is the most recent and evict 2.
        let pool = pool(2, 2);
        pool.request_page(p(1), None, now()).unwrap();
        pool.request_page(p(2), None, now()).unwrap();
        for _ in 0..10 {
            pool.request_page(p(1), None, now()).unwrap();
        }
        let outcome = pool.request_page(p(3), None, now()).unwrap();
        assert_eq!(
            outcome,
            AccessOutcome::Miss {
                evicted: vec![p(2)]
            }
        );
    }

    #[test]
    fn event_buffers_are_bounded_on_hit_only_workloads() {
        let pool = pool(4, 2);
        pool.request_page(p(0), None, now()).unwrap();
        for _ in 0..(3 * EVENT_FLUSH_THRESHOLD) {
            pool.request_page(p(0), None, now()).unwrap();
        }
        let buffered: usize = pool.shards.iter().map(|s| s.lock().events.len()).sum();
        assert!(
            buffered < EVENT_FLUSH_THRESHOLD,
            "buffers must drain periodically (held {buffered})"
        );
        // Reports are bounded the same way.
        for i in 0..(2 * EVENT_FLUSH_THRESHOLD) {
            pool.report_scan_position(ScanId::new(0), i as u64, now());
        }
        assert!(pool.reports.lock().len() < EVENT_FLUSH_THRESHOLD);
    }

    #[test]
    fn scan_registration_assigns_increasing_ids() {
        let pool = pool(2, 2);
        let plan = ScanPagePlan {
            table: scanshare_common::TableId::new(0),
            total_tuples: 0,
            pages: vec![],
        };
        let a = pool.register_scan(&plan, now());
        let b = pool.register_scan(&plan, now());
        assert!(b > a);
        pool.report_scan_position(a, 10, now());
        pool.unregister_scan(a, now());
        pool.unregister_scan(b, now());
    }

    #[test]
    fn prefetch_admission_counts_as_prefetch_io_not_as_miss() {
        let pool = pool(2, 2);
        assert!(pool.admit_prefetch(p(1), now()));
        let stats = pool.stats();
        assert_eq!((stats.hits, stats.misses), (0, 0));
        assert_eq!(stats.prefetched_pages, 1);
        assert_eq!(stats.prefetch_io_bytes, 1024);
        assert_eq!(stats.io_bytes, 1024);
        // The demand access that consumes the prefetched page is a hit.
        assert!(pool.request_page(p(1), None, now()).unwrap().is_hit());
        assert_eq!(pool.stats().hits, 1);
        // Re-prefetching a resident page is a no-op.
        assert!(!pool.admit_prefetch(p(1), now()));
        assert_eq!(pool.stats().prefetched_pages, 1);
    }

    #[test]
    fn prefetch_candidates_come_from_the_policy_filtered_by_residency() {
        // The plain LRU pool only yields candidates once a scan registered a
        // plan; candidates never include resident pages.
        let pool = pool(4, 2);
        let plan = ScanPagePlan {
            table: scanshare_common::TableId::new(0),
            total_tuples: 300,
            pages: (0..3)
                .map(|i| scanshare_storage::layout::PageDescriptor {
                    page: p(i),
                    column: scanshare_common::ColumnId::new(0),
                    column_index: 0,
                    sid_range: scanshare_common::TupleRange::new(i * 100, (i + 1) * 100),
                    tuples_behind: i * 100,
                    tuple_count: 100,
                })
                .collect(),
        };
        let scan = pool.register_scan(&plan, now());
        assert_eq!(pool.prefetch_candidates(2, now()), vec![p(0), p(1)]);
        pool.request_page(p(0), Some(scan), now()).unwrap();
        assert_eq!(pool.prefetch_candidates(4, now()), vec![p(1), p(2)]);
        assert!(pool.prefetch_candidates(0, now()).is_empty());
    }

    #[test]
    fn concurrent_hammering_keeps_global_invariants() {
        let pool = Arc::new(pool(16, 4));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let pool = Arc::clone(&pool);
                scope.spawn(move || {
                    let mut x = t + 1;
                    for _ in 0..2000 {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let page = p((x >> 33) % 64);
                        pool.request_page(page, None, now()).unwrap();
                    }
                });
            }
        });
        let stats = pool.stats();
        assert_eq!(stats.hits + stats.misses, 4 * 2000);
        assert_eq!(stats.io_bytes, stats.pages_loaded * 1024);
        assert!(pool.resident_count() <= 16);
        // The resident counter agrees with the shard sets.
        let exact: usize = pool.shards.iter().map(|s| s.lock().resident.len()).sum();
        assert_eq!(pool.resident_count(), exact);
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_capacity_is_rejected() {
        let _ = pool(0, 1);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_are_rejected() {
        let _ = pool(4, 0);
    }
}
