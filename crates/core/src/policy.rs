//! The replacement-policy abstraction shared by LRU and PBM.
//!
//! The [`BufferPool`](crate::pool::BufferPool) delegates every
//! replacement decision to a [`ReplacementPolicy`]. The interface
//! mirrors the three functions PBM adds to the buffer manager
//! (`RegisterScan`, `ReportScanPosition`, `UnregisterScan`, Figure 3 of the
//! paper) plus the page-lifecycle callbacks any policy needs. LRU simply
//! ignores the scan-level information.

use std::collections::HashSet;

use scanshare_common::{PageId, ScanId, VirtualInstant};
use scanshare_storage::layout::ScanPagePlan;

/// Information about a scan registered with the buffer manager.
#[derive(Debug, Clone)]
pub struct ScanInfo {
    /// The scan id assigned by the buffer pool.
    pub id: ScanId,
    /// Total number of rows the scan will process (rows of its range list,
    /// however many columns it reads).
    pub total_tuples: u64,
    /// Number of distinct pages the scan will touch.
    pub distinct_pages: usize,
}

/// A page-replacement policy plugged into the buffer pool.
///
/// All methods take `now` in virtual time so that policies can reason about
/// time (PBM's consumption estimates) without owning a clock.
pub trait ReplacementPolicy: Send + std::fmt::Debug {
    /// Short name used in reports ("lru", "pbm", ...).
    fn name(&self) -> &'static str;

    /// A scan announced the pages it is going to read (`RegisterScan`).
    /// Policies that do not exploit scan knowledge may ignore this.
    fn register_scan(&mut self, info: &ScanInfo, plan: &ScanPagePlan, now: VirtualInstant);

    /// A scan reported its progress (`ReportScanPosition`).
    ///
    /// `tuples_consumed` has one unit for every caller: **rows of the scan's
    /// own range list consumed so far** — the unit of
    /// [`PageDescriptor::tuples_behind`](scanshare_storage::layout::PageDescriptor::tuples_behind)
    /// in the plan the scan registered, and at most [`ScanInfo::total_tuples`].
    /// A scan of k columns consumes a row once, not k times: a caller walking
    /// the plan page by page reports the `tuples_behind` of the page it is
    /// at, never a sum of `tuple_count` over the pages of all columns.
    fn report_scan_position(&mut self, scan: ScanId, tuples_consumed: u64, now: VirtualInstant);

    /// A scan finished and its metadata can be freed (`UnregisterScan`).
    fn unregister_scan(&mut self, scan: ScanId, now: VirtualInstant);

    /// A page was requested (hit or miss) by `scan`.
    fn on_access(&mut self, page: PageId, scan: Option<ScanId>, now: VirtualInstant);

    /// A page entered the buffer pool.
    fn on_admit(&mut self, page: PageId, now: VirtualInstant);

    /// A page left the buffer pool.
    fn on_evict(&mut self, page: PageId);

    /// Chooses up to `count` eviction victims among resident pages, never
    /// returning pages in `exclude` (the pool passes the page currently
    /// being admitted). The pool evicts exactly the returned pages.
    fn choose_victims(
        &mut self,
        count: usize,
        exclude: &HashSet<PageId>,
        now: VirtualInstant,
    ) -> Vec<PageId>;

    /// Proposes up to `budget` non-resident pages worth loading *ahead* of
    /// the scan cursors, most urgent first — the prediction side of the
    /// paper's Predictive Buffer Management turned into prefetching: a policy
    /// that knows *when* each page will next be consumed can also say *which*
    /// pages to stage next so that their transfers overlap with computation.
    ///
    /// Implementations should only return pages they believe are not
    /// resident (the buffer pool filters again as a safety net) and must be
    /// deterministic for a given policy state. The default returns no hints,
    /// which disables prefetching for policies without scan knowledge.
    ///
    /// Built-in implementations: [`PbmPolicy`](crate::pbm::PbmPolicy) ranks
    /// pages by estimated next-consumption time (nearest first);
    /// [`LruPolicy`](crate::lru::LruPolicy) performs sequential readahead
    /// along each registered scan's page plan.
    fn prefetch_hints(&mut self, _now: VirtualInstant, _budget: usize) -> Vec<PageId> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // A trivial FIFO policy used to exercise the trait object plumbing.
    #[derive(Debug, Default)]
    struct Fifo {
        order: Vec<PageId>,
    }

    impl ReplacementPolicy for Fifo {
        fn name(&self) -> &'static str {
            "fifo"
        }
        fn register_scan(&mut self, _: &ScanInfo, _: &ScanPagePlan, _: VirtualInstant) {}
        fn report_scan_position(&mut self, _: ScanId, _: u64, _: VirtualInstant) {}
        fn unregister_scan(&mut self, _: ScanId, _: VirtualInstant) {}
        fn on_access(&mut self, _: PageId, _: Option<ScanId>, _: VirtualInstant) {}
        fn on_admit(&mut self, page: PageId, _: VirtualInstant) {
            self.order.push(page);
        }
        fn on_evict(&mut self, page: PageId) {
            self.order.retain(|&p| p != page);
        }
        fn choose_victims(
            &mut self,
            count: usize,
            exclude: &HashSet<PageId>,
            _: VirtualInstant,
        ) -> Vec<PageId> {
            self.order
                .iter()
                .copied()
                .filter(|p| !exclude.contains(p))
                .take(count)
                .collect()
        }
    }

    #[test]
    fn policies_are_usable_as_trait_objects() {
        let mut policy: Box<dyn ReplacementPolicy> = Box::new(Fifo::default());
        let now = VirtualInstant::EPOCH;
        policy.on_admit(PageId::new(1), now);
        policy.on_admit(PageId::new(2), now);
        let victims = policy.choose_victims(1, &HashSet::new(), now);
        assert_eq!(victims, vec![PageId::new(1)]);
        let mut exclude = HashSet::new();
        exclude.insert(PageId::new(1));
        let victims = policy.choose_victims(2, &exclude, now);
        assert_eq!(victims, vec![PageId::new(2)]);
        assert_eq!(policy.name(), "fifo");
        // Policies without scan knowledge inherit the empty default.
        assert!(policy.prefetch_hints(now, 8).is_empty());
    }
}
