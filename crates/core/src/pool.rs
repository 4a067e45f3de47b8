//! The page buffer: one lock over residency, statistics and the
//! replacement policy.
//!
//! [`BufferPool`] is the one page-level pool of the workspace: the execution
//! engine shares it between its scan threads and the discrete-event
//! simulator runs on it too (both behind a
//! [`PooledBackend`](crate::backend::PooledBackend)). It tracks which pages are
//! resident, delegates every replacement decision to a pluggable
//! [`ReplacementPolicy`], maintains the statistics reported in the paper's
//! figures and can record a page-reference trace for the OPT simulation. It
//! is free of timing concerns: callers decide *when* a miss completes using
//! the I/O device; the pool only answers *whether* a request hits and *which*
//! pages get evicted.
//!
//! One mutex guards the page table, the statistics, the scan-id counter and
//! the policy, and every policy callback runs eagerly, in arrival order,
//! under it. The policy therefore observes exactly the
//! call sequence of the single-threaded `EagerPool` oracle in
//! `tests/pool_harness` (`tests/pool_properties.rs` asserts this over
//! randomized traces for every built-in policy).

use std::collections::HashSet;
use std::sync::Arc;

use scanshare_common::hash::IdHashSet;
use scanshare_common::sync::Mutex;
use scanshare_common::{Error, PageId, Result, ScanId, VirtualInstant};
use scanshare_iosim::ReferenceTrace;
use scanshare_storage::layout::ScanPagePlan;

use crate::metrics::BufferStats;
use crate::policy::{ReplacementPolicy, ScanInfo};

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

/// Everything the pool lock guards.
#[derive(Debug)]
struct PoolState {
    policy: Box<dyn ReplacementPolicy>,
    resident: IdHashSet<PageId>,
    /// The pages a miss may not evict (just the page being admitted), kept
    /// so a miss allocates no set. It stays on std hashing:
    /// `choose_victims` takes a std `HashSet`.
    exclude: HashSet<PageId>,
    stats: BufferStats,
    next_scan: u64,
}

/// A fixed-capacity page buffer driven by one replacement policy.
///
/// Every method takes `&self`: the pool is shared directly between the scan
/// threads of an engine (see [`PooledBackend`](crate::backend::PooledBackend))
/// without an outer lock.
#[derive(Debug)]
pub struct BufferPool {
    state: Mutex<PoolState>,
    capacity_pages: usize,
    page_size_bytes: u64,
    trace: Option<Arc<ReferenceTrace>>,
    name: &'static str,
}

impl BufferPool {
    /// Creates a pool of `capacity_pages` pages of `page_size_bytes` each.
    pub fn new(
        capacity_pages: usize,
        page_size_bytes: u64,
        policy: Box<dyn ReplacementPolicy>,
    ) -> Self {
        assert!(
            capacity_pages > 0,
            "buffer pool must hold at least one page"
        );
        let name = policy.name();
        Self {
            state: Mutex::new(PoolState {
                policy,
                resident: IdHashSet::default(),
                exclude: HashSet::new(),
                stats: BufferStats::default(),
                next_scan: 0,
            }),
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

    /// Number of resident pages.
    pub fn resident_count(&self) -> usize {
        self.state.lock().resident.len()
    }

    /// Number of unused page slots (the only capacity prefetching may use).
    pub fn free_pages(&self) -> usize {
        self.capacity_pages.saturating_sub(self.resident_count())
    }

    /// Whether `page` is resident.
    pub fn contains(&self, page: PageId) -> bool {
        self.state.lock().resident.contains(&page)
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> BufferStats {
        self.state.lock().stats
    }

    /// Registers a scan and announces its page plan to the policy
    /// (`RegisterScan`). Returns the scan id to use in subsequent calls.
    pub fn register_scan(&self, plan: &ScanPagePlan, now: VirtualInstant) -> ScanId {
        let mut state = self.state.lock();
        let id = ScanId::new(state.next_scan);
        state.next_scan += 1;
        let info = ScanInfo {
            id,
            total_tuples: plan.total_tuples,
            distinct_pages: plan.distinct_pages(),
        };
        state.policy.register_scan(&info, plan, now);
        id
    }

    /// Reports scan progress (`ReportScanPosition`).
    pub fn report_scan_position(&self, scan: ScanId, tuples_consumed: u64, now: VirtualInstant) {
        self.state
            .lock()
            .policy
            .report_scan_position(scan, tuples_consumed, now);
    }

    /// Unregisters a finished scan (`UnregisterScan`).
    pub fn unregister_scan(&self, scan: ScanId, now: VirtualInstant) {
        self.state.lock().policy.unregister_scan(scan, now);
    }

    /// Requests a page on behalf of `scan`. On a miss the page is admitted
    /// immediately (the caller accounts for the load time) after evicting
    /// enough pages, chosen by the policy, to stay within capacity. Fails
    /// only if the policy names too few resident victims, which no built-in
    /// policy does.
    pub fn request_page(
        &self,
        page: PageId,
        scan: Option<ScanId>,
        now: VirtualInstant,
    ) -> Result<AccessOutcome> {
        let mut guard = self.state.lock();
        let state = &mut *guard;
        if let Some(trace) = &self.trace {
            trace.record(page, scan);
        }
        if state.resident.contains(&page) {
            state.stats.hits += 1;
            state.policy.on_access(page, scan, now);
            return Ok(AccessOutcome::Hit);
        }

        let mut evicted = Vec::new();
        if state.resident.len() >= self.capacity_pages {
            let want = state.resident.len() + 1 - self.capacity_pages;
            state.exclude.clear();
            state.exclude.insert(page);
            for victim in state.policy.choose_victims(want, &state.exclude, now) {
                if state.resident.remove(&victim) {
                    state.policy.on_evict(victim);
                    state.stats.evictions += 1;
                    evicted.push(victim);
                }
            }
            if evicted.len() < want {
                return Err(Error::internal(format!(
                    "policy {} returned {} resident victims where {want} were needed",
                    self.name,
                    evicted.len()
                )));
            }
        }

        state.resident.insert(page);
        state.policy.on_admit(page, now);
        state.policy.on_access(page, scan, now);
        state.stats.misses += 1;
        state.stats.pages_loaded += 1;
        state.stats.io_bytes += self.page_size_bytes;
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
        let mut state = self.state.lock();
        let hints = state.policy.prefetch_hints(now, budget);
        let mut seen = IdHashSet::default();
        hints
            .into_iter()
            .filter(|p| !state.resident.contains(p) && seen.insert(*p))
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
        let mut guard = self.state.lock();
        let state = &mut *guard;
        if state.resident.contains(&page) || state.resident.len() >= self.capacity_pages {
            return false;
        }
        if let Some(trace) = &self.trace {
            trace.record_prefetch(page);
        }
        state.resident.insert(page);
        state.policy.on_admit(page, now);
        state.stats.pages_loaded += 1;
        state.stats.io_bytes += self.page_size_bytes;
        state.stats.prefetched_pages += 1;
        state.stats.prefetch_io_bytes += self.page_size_bytes;
        true
    }

    /// Drops the listed pages from the pool if resident, in the given order,
    /// telling the policy to forget each one. Used when a checkpoint replaces
    /// a table's stable image: the old snapshot's pages can never be
    /// requested again, so keeping them resident only wastes capacity.
    /// Counted as `invalidated_pages`, not as evictions. Returns how many
    /// pages were dropped.
    pub fn invalidate_pages(&self, pages: &[PageId]) -> usize {
        let mut guard = self.state.lock();
        let state = &mut *guard;
        let mut dropped = 0;
        for page in pages {
            if state.resident.remove(page) {
                state.policy.on_evict(*page);
                state.stats.invalidated_pages += 1;
                dropped += 1;
            }
        }
        dropped
    }
}

/// The former name of [`BufferPool`], kept only because the frozen
/// `benchmark/` crate still calls `ShardedPool::new(.., 1)`. The ruler
/// refresh of ROADMAP "One CPU model in one function; then regenerate
/// once" points it at [`BufferPool::new`] and deletes this shim.
#[doc(hidden)]
#[derive(Debug)]
pub struct ShardedPool;

impl ShardedPool {
    /// [`BufferPool::new`]; `shards` must be 1.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(
        capacity_pages: usize,
        page_size_bytes: u64,
        policy: Box<dyn ReplacementPolicy>,
        shards: usize,
    ) -> BufferPool {
        assert_eq!(shards, 1, "the buffer pool has exactly one lock");
        BufferPool::new(capacity_pages, page_size_bytes, policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lru::LruPolicy;

    fn pool(capacity: usize) -> BufferPool {
        BufferPool::new(capacity, 1024, Box::new(LruPolicy::new()))
    }

    fn p(i: u64) -> PageId {
        PageId::new(i)
    }

    fn now() -> VirtualInstant {
        VirtualInstant::EPOCH
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let pool = pool(2);
        assert!(!pool.request_page(p(1), None, now()).unwrap().is_hit());
        assert!(pool.request_page(p(1), None, now()).unwrap().is_hit());
        assert!(!pool.request_page(p(2), None, now()).unwrap().is_hit());
        let stats = pool.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
        assert_eq!(stats.io_bytes, 2048);
        assert_eq!(pool.resident_count(), 2);
        assert_eq!(pool.free_pages(), 0);
    }

    #[test]
    fn capacity_is_globally_enforced() {
        let pool = pool(3);
        for i in 0..10 {
            pool.request_page(p(i), None, now()).unwrap();
            assert!(pool.resident_count() <= 3);
        }
        assert_eq!(pool.stats().evictions, 7);
    }

    #[test]
    fn hits_update_recency_before_the_next_eviction() {
        // Hit page 1 repeatedly, then force an eviction: the policy must
        // know 1 is the most recent and evict 2.
        let pool = pool(2);
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
    fn lru_evicts_the_least_recently_used_page() {
        // 1, 2, 1, 3 with room for two pages: 2 is the least recently
        // used page when 3 needs a frame.
        let pool = pool(2);
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

    /// A policy that never names a victim: the pool cannot make room.
    #[derive(Debug)]
    struct NoVictims;

    impl ReplacementPolicy for NoVictims {
        fn name(&self) -> &'static str {
            "no-victims"
        }
        fn register_scan(&mut self, _: &ScanInfo, _: &ScanPagePlan, _: VirtualInstant) {}
        fn report_scan_position(&mut self, _: ScanId, _: u64, _: VirtualInstant) {}
        fn unregister_scan(&mut self, _: ScanId, _: VirtualInstant) {}
        fn on_access(&mut self, _: PageId, _: Option<ScanId>, _: VirtualInstant) {}
        fn on_admit(&mut self, _: PageId, _: VirtualInstant) {}
        fn on_evict(&mut self, _: PageId) {}
        fn choose_victims(
            &mut self,
            _: usize,
            _: &HashSet<PageId>,
            _: VirtualInstant,
        ) -> Vec<PageId> {
            Vec::new()
        }
    }

    #[test]
    fn a_policy_naming_too_few_victims_is_an_internal_error() {
        let pool = BufferPool::new(2, 1024, Box::new(NoVictims));
        pool.request_page(p(1), None, now()).unwrap();
        pool.request_page(p(2), None, now()).unwrap();
        let err = pool.request_page(p(3), None, now()).unwrap_err();
        assert!(matches!(err, Error::Internal(_)), "{err}");
        let msg = err.to_string();
        assert!(msg.contains("no-victims"), "{msg}");
        assert!(
            msg.contains("returned 0 resident victims where 1 were needed"),
            "{msg}"
        );
        assert_eq!(pool.resident_count(), 2);
        assert!(!pool.contains(p(3)));
        assert_eq!(pool.stats().misses, 2);
    }

    #[test]
    fn trace_records_every_request_in_order() {
        let trace = Arc::new(ReferenceTrace::new());
        let pool = pool(2).with_trace(Arc::clone(&trace));
        pool.request_page(p(5), Some(ScanId::new(9)), now())
            .unwrap();
        pool.request_page(p(6), None, now()).unwrap();
        pool.request_page(p(5), None, now()).unwrap();
        assert_eq!(trace.pages(), vec![p(5), p(6), p(5)]);
        assert_eq!(trace.snapshot()[0].scan, Some(ScanId::new(9)));
    }

    #[test]
    fn invalidation_drops_resident_pages_and_is_not_an_eviction() {
        let pool = pool(4);
        for i in 0..4 {
            pool.request_page(p(i), None, now()).unwrap();
        }
        let dropped = pool.invalidate_pages(&[p(0), p(1), p(7)]);
        assert_eq!(dropped, 2);
        assert_eq!(pool.resident_count(), 2);
        assert!(pool.contains(p(2)) && pool.contains(p(3)));
        let stats = pool.stats();
        assert_eq!(stats.invalidated_pages, 2);
        assert_eq!(stats.evictions, 0);
        // Invalidated pages are gone from the policy too: re-requesting
        // them misses and the LRU order continues from the survivors.
        assert!(!pool.request_page(p(0), None, now()).unwrap().is_hit());
    }

    #[test]
    fn prefetch_admissions_fill_free_capacity_only() {
        let pool = pool(2);
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
    fn scan_registration_assigns_increasing_ids() {
        let pool = pool(2);
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
        let pool = pool(2);
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
        let pool = pool(4);
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
        let pool = Arc::new(pool(16));
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
        assert_eq!(stats.misses, stats.evictions + pool.resident_count() as u64);
        assert!(pool.resident_count() <= 16);
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_capacity_is_rejected() {
        let _ = pool(0);
    }

    #[test]
    #[should_panic(expected = "exactly one lock")]
    fn the_sharded_pool_shim_accepts_one_shard_only() {
        let _ = ShardedPool::new(4, 1024, Box::new(LruPolicy::new()), 2);
    }
}
