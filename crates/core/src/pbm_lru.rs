//! PBM/LRU: frequency-based estimates for pages no active scan wants.
//!
//! Basic PBM treats every page that is not requested by a registered scan as
//! having the lowest priority, which penalizes small, frequently re-read
//! dimension tables (Section 3, "PBM/LRU"). The paper sketches a refinement:
//! estimate the next consumption of such pages from their *access history*
//! (e.g. the average distance between their last four uses) and age that
//! estimate as time passes, evicting from the far end of both timelines.
//!
//! [`PbmLruPolicy`] implements that refinement as a composition over
//! [`PbmPolicy`]: the scan-registered side is untouched, while pages without
//! an interested scan are kept in a history structure ordered by their
//! estimated next use (last access + average historical gap). Eviction takes
//! the history page with the furthest estimated next use first and only then
//! falls back to PBM's own victim selection. Compared to the paper's sketch
//! this uses an ordered map rather than a second set of counter-rotating
//! buckets, trading O(1) for O(log n) in exchange for a much smaller
//! implementation — the *policy decisions* are the same.

use std::collections::{BTreeSet, HashSet, VecDeque};

use scanshare_common::hash::{IdHashMap, IdHashSet};
use scanshare_common::{PageId, ScanId, VirtualDuration, VirtualInstant};
use scanshare_storage::layout::ScanPagePlan;

use crate::pbm::PbmPolicy;
use crate::policy::{ReplacementPolicy, ScanInfo};

/// How many past access timestamps are kept per page (the paper suggests the
/// last four uses).
pub const HISTORY_WINDOW: usize = 4;
/// Estimate used for a page seen only once (it has no gap history yet).
pub const DEFAULT_REUSE_INTERVAL: VirtualDuration = VirtualDuration::from_secs(10);

#[derive(Debug, Default)]
struct PageHistory {
    /// Recent access times, newest last.
    accesses: VecDeque<u64>,
    /// Key currently stored in the order structure, if the page is resident
    /// and unrequested.
    order_key: Option<(u64, PageId)>,
}

/// The PBM/LRU replacement policy.
#[derive(Debug, Default)]
pub struct PbmLruPolicy {
    pbm: PbmPolicy,
    history: IdHashMap<PageId, PageHistory>,
    /// Resident, unrequested pages ordered by estimated next use
    /// (largest = evict first).
    order: BTreeSet<(u64, PageId)>,
    resident: IdHashSet<PageId>,
}

impl PbmLruPolicy {
    /// Creates a PBM/LRU policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// The estimated next use of a page based on its access history: last
    /// access plus the average gap between its recent accesses.
    pub fn estimated_next_use(&self, page: PageId) -> Option<VirtualInstant> {
        let history = self.history.get(&page)?;
        let last = *history.accesses.back()?;
        let gap = if history.accesses.len() >= 2 {
            let first = *history.accesses.front().expect("non-empty");
            (last - first) / (history.accesses.len() as u64 - 1)
        } else {
            DEFAULT_REUSE_INTERVAL.as_nanos()
        };
        Some(VirtualInstant::from_nanos(last + gap.max(1)))
    }

    fn record_access(&mut self, page: PageId, now: VirtualInstant) {
        let history = self.history.entry(page).or_default();
        history.accesses.push_back(now.as_nanos());
        while history.accesses.len() > HISTORY_WINDOW {
            history.accesses.pop_front();
        }
    }

    /// Places (or removes) the page on the history side depending on whether
    /// any registered scan still wants it.
    fn reclassify(&mut self, page: PageId) {
        // Remove any stale entry first.
        if let Some(history) = self.history.get_mut(&page) {
            if let Some(key) = history.order_key.take() {
                self.order.remove(&key);
            }
        }
        if !self.resident.contains(&page) {
            return;
        }
        if self.pbm.next_consumption(page).is_some() {
            return; // the scan-registered side owns it
        }
        let Some(estimate) = self.estimated_next_use(page) else {
            return;
        };
        let key = (estimate.as_nanos(), page);
        self.order.insert(key);
        self.history.entry(page).or_default().order_key = Some(key);
    }
}

impl ReplacementPolicy for PbmLruPolicy {
    fn name(&self) -> &'static str {
        "pbm-lru"
    }

    fn register_scan(&mut self, info: &ScanInfo, plan: &ScanPagePlan, now: VirtualInstant) {
        self.pbm.register_scan(info, plan, now);
        // Pages the new scan wants leave the history side.
        for desc in &plan.pages {
            self.reclassify(desc.page);
        }
    }

    fn report_scan_position(&mut self, scan: ScanId, tuples_consumed: u64, now: VirtualInstant) {
        self.pbm.report_scan_position(scan, tuples_consumed, now);
    }

    fn unregister_scan(&mut self, scan: ScanId, now: VirtualInstant) {
        self.pbm.unregister_scan(scan, now);
        // Pages may have become unrequested; reclassify the resident ones.
        let resident: Vec<PageId> = self.resident.iter().copied().collect();
        for page in resident {
            self.reclassify(page);
        }
    }

    fn on_access(&mut self, page: PageId, scan: Option<ScanId>, now: VirtualInstant) {
        self.pbm.on_access(page, scan, now);
        self.record_access(page, now);
        self.reclassify(page);
    }

    fn on_admit(&mut self, page: PageId, now: VirtualInstant) {
        self.pbm.on_admit(page, now);
        self.resident.insert(page);
        self.record_access(page, now);
        self.reclassify(page);
    }

    fn on_evict(&mut self, page: PageId) {
        self.pbm.on_evict(page);
        self.resident.remove(&page);
        if let Some(history) = self.history.get_mut(&page) {
            if let Some(key) = history.order_key.take() {
                self.order.remove(&key);
            }
            // Keep the access history itself: if the page comes back we still
            // know its reuse interval (that is the whole point of PBM/LRU).
        }
    }

    fn choose_victims(
        &mut self,
        count: usize,
        exclude: &HashSet<PageId>,
        now: VirtualInstant,
    ) -> Vec<PageId> {
        let mut victims = Vec::with_capacity(count);
        // 1. Unrequested pages with the furthest estimated next use.
        for &(_, page) in self.order.iter().rev() {
            if victims.len() >= count {
                break;
            }
            if !exclude.contains(&page) {
                victims.push(page);
            }
        }
        // 2. Whatever the scan-registered side would evict, skipping what we
        //    already picked.
        if victims.len() < count {
            let mut extended = exclude.clone();
            extended.extend(victims.iter().copied());
            victims.extend(
                self.pbm
                    .choose_victims(count - victims.len(), &extended, now),
            );
        }
        victims
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanshare_common::{ColumnId, TableId, TupleRange};
    use scanshare_storage::layout::PageDescriptor;

    fn p(i: u64) -> PageId {
        PageId::new(i)
    }

    fn at(ms: u64) -> VirtualInstant {
        VirtualInstant::from_nanos(ms * 1_000_000)
    }

    fn plan(pages: &[u64], tuples_per_page: u64) -> ScanPagePlan {
        ScanPagePlan {
            table: TableId::new(0),
            total_tuples: pages.len() as u64 * tuples_per_page,
            pages: pages
                .iter()
                .enumerate()
                .map(|(i, &page)| PageDescriptor {
                    page: p(page),
                    column: ColumnId::new(0),
                    column_index: 0,
                    sid_range: TupleRange::new(
                        i as u64 * tuples_per_page,
                        (i as u64 + 1) * tuples_per_page,
                    ),
                    tuples_behind: i as u64 * tuples_per_page,
                    tuple_count: tuples_per_page,
                })
                .collect(),
        }
    }

    fn register(
        policy: &mut PbmLruPolicy,
        id: u64,
        plan: &ScanPagePlan,
        now: VirtualInstant,
    ) -> ScanId {
        let sid = ScanId::new(id);
        let info = ScanInfo {
            id: sid,
            total_tuples: plan.total_tuples,
            distinct_pages: plan.distinct_pages(),
        };
        policy.register_scan(&info, plan, now);
        sid
    }

    #[test]
    fn frequently_reused_pages_outlive_cold_ones() {
        let mut policy = PbmLruPolicy::default();
        // Three unrequested pages: 10 is touched often (hot dimension table),
        // 11 and 12 are touched once.
        for page in [10, 11, 12] {
            policy.on_admit(p(page), at(0));
        }
        for t in 1..=4 {
            policy.on_access(p(10), None, at(t * 10));
        }
        assert_eq!(policy.order.len(), 3);
        let victims = policy.choose_victims(2, &HashSet::new(), at(50));
        assert!(
            !victims.contains(&p(10)),
            "the frequently reused page survives: {victims:?}"
        );
        assert_eq!(victims.len(), 2);
    }

    #[test]
    fn estimated_next_use_follows_the_observed_period() {
        let mut policy = PbmLruPolicy::default();
        policy.on_admit(p(1), at(0));
        policy.on_access(p(1), None, at(100));
        policy.on_access(p(1), None, at(200));
        policy.on_access(p(1), None, at(300));
        let estimate = policy.estimated_next_use(p(1)).unwrap();
        // Average gap is 100ms, last access at 300ms.
        assert_eq!(estimate, at(400));
        // A page seen once uses the default reuse interval.
        policy.on_admit(p(2), at(300));
        let cold = policy.estimated_next_use(p(2)).unwrap();
        assert!(cold > at(300));
        assert_eq!(policy.estimated_next_use(p(99)), None);
    }

    #[test]
    fn scan_registered_pages_stay_on_the_pbm_side() {
        let mut policy = PbmLruPolicy::default();
        let pl = plan(&[1, 2], 100);
        let scan = register(&mut policy, 1, &pl, at(0));
        policy.on_admit(p(1), at(0));
        policy.on_admit(p(2), at(0));
        policy.on_admit(p(50), at(0)); // unrequested
        assert_eq!(
            policy.order.len(),
            1,
            "only the unrequested page is history-tracked"
        );
        // Eviction prefers the unrequested page even though it was admitted
        // at the same time.
        let victims = policy.choose_victims(1, &HashSet::new(), at(1));
        assert_eq!(victims, vec![p(50)]);
        // Once the scan finishes, its pages move to the history side.
        policy.unregister_scan(scan, at(2));
        assert_eq!(policy.order.len(), 3);
    }

    #[test]
    fn eviction_falls_back_to_pbm_for_requested_pages() {
        // The plan's pages are due at distinct instants, so the
        // furthest-needed page is distinct at any bootstrap speed.
        let mut policy = PbmLruPolicy::new();
        let pl = plan(&[1, 2, 3], 100);
        register(&mut policy, 1, &pl, at(0));
        for page in [1, 2, 3] {
            policy.on_admit(p(page), at(0));
        }
        // No unrequested pages exist; victims must come from the PBM side,
        // furthest-needed first.
        let victims = policy.choose_victims(2, &HashSet::new(), at(0));
        assert_eq!(victims.len(), 2);
        assert!(victims.contains(&p(3)));
        assert!(!victims.contains(&p(1)));
    }

    #[test]
    fn excluded_pages_are_skipped_and_history_survives_eviction() {
        let mut policy = PbmLruPolicy::default();
        policy.on_admit(p(7), at(0));
        policy.on_access(p(7), None, at(10));
        let mut exclude = HashSet::new();
        exclude.insert(p(7));
        assert!(policy.choose_victims(1, &exclude, at(20)).is_empty());
        policy.on_evict(p(7));
        assert_eq!(policy.order.len(), 0);
        // Reuse history survives the eviction, so a re-admitted page keeps
        // its estimated period.
        policy.on_admit(p(7), at(30));
        let estimate = policy.estimated_next_use(p(7)).unwrap();
        assert!(estimate > at(30));
    }
}
