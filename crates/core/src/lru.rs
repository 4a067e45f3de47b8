//! Traditional buffer management: least-recently-used replacement.
//!
//! This is the baseline every figure of the paper compares against. The
//! implementation keeps an explicit recency order with O(1) amortized
//! updates (a monotonically increasing access stamp per page plus a queue
//! with lazy deletion), and ignores all scan-level information for its
//! *eviction* decisions.
//!
//! For *prefetching* LRU implements classic sequential readahead: it
//! remembers each registered scan's page plan and, when asked for
//! [`prefetch_hints`](ReplacementPolicy::prefetch_hints), proposes the next
//! non-resident pages directly ahead of each scan's furthest access — the
//! traditional counterpart to PBM's prediction-ranked prefetching.

use std::collections::{BTreeMap, HashSet, VecDeque};

use scanshare_common::hash::{IdHashMap, IdHashSet};
use scanshare_common::{PageId, ScanId, VirtualInstant};
use scanshare_storage::layout::ScanPagePlan;

use crate::policy::{ReplacementPolicy, ScanInfo};

/// Sequential-readahead state for one registered scan.
#[derive(Debug)]
struct ScanReadahead {
    /// Distinct pages in first-consumption order (the interleaved plan order
    /// with duplicates removed).
    pages: Vec<PageId>,
    /// Position of each page in `pages`.
    index: IdHashMap<PageId, usize>,
    /// One past the furthest plan position the scan has accessed.
    cursor: usize,
}

/// Least-recently-used replacement policy.
#[derive(Debug, Default)]
pub struct LruPolicy {
    /// Current stamp of each resident page.
    resident: IdHashMap<PageId, u64>,
    /// Recency queue, oldest first; entries whose stamp is stale are skipped.
    queue: VecDeque<(PageId, u64)>,
    next_stamp: u64,
    /// Readahead cursors, keyed by scan id (ordered for determinism).
    scans: BTreeMap<ScanId, ScanReadahead>,
}

impl LruPolicy {
    /// Creates an LRU policy.
    pub fn new() -> Self {
        Self::default()
    }

    fn touch(&mut self, page: PageId) {
        if !self.resident.contains_key(&page) {
            return;
        }
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.resident.insert(page, stamp);
        self.queue.push_back((page, stamp));
        self.maybe_compact();
    }

    fn maybe_compact(&mut self) {
        // Keep the queue from growing unboundedly due to lazy deletion.
        if self.queue.len() > 4 * self.resident.len().max(16) {
            let resident = &self.resident;
            self.queue.retain(|(p, s)| resident.get(p) == Some(s));
        }
    }
}

impl ReplacementPolicy for LruPolicy {
    fn name(&self) -> &'static str {
        "lru"
    }

    fn register_scan(&mut self, info: &ScanInfo, plan: &ScanPagePlan, _now: VirtualInstant) {
        // Remember the plan for sequential readahead (eviction stays
        // oblivious to scans). Duplicates keep their first consumption slot.
        let mut pages = Vec::with_capacity(plan.pages.len());
        let mut index = IdHashMap::default();
        index.reserve(plan.pages.len());
        for desc in plan.interleaved() {
            if let std::collections::hash_map::Entry::Vacant(slot) = index.entry(desc.page) {
                slot.insert(pages.len());
                pages.push(desc.page);
            }
        }
        self.scans.insert(
            info.id,
            ScanReadahead {
                pages,
                index,
                cursor: 0,
            },
        );
    }

    fn report_scan_position(&mut self, _scan: ScanId, _tuples: u64, _now: VirtualInstant) {}

    fn unregister_scan(&mut self, scan: ScanId, _now: VirtualInstant) {
        self.scans.remove(&scan);
    }

    fn on_access(&mut self, page: PageId, scan: Option<ScanId>, _now: VirtualInstant) {
        self.touch(page);
        // Advance the owning scan's readahead cursor past the accessed page.
        // Driving the cursor off the access stream (rather than off progress
        // reports) keeps readahead in lockstep with the actual reference
        // string, however often the scan reports.
        if let Some(ra) = scan.and_then(|s| self.scans.get_mut(&s)) {
            if let Some(&idx) = ra.index.get(&page) {
                ra.cursor = ra.cursor.max(idx + 1);
            }
        }
    }

    fn on_admit(&mut self, page: PageId, _now: VirtualInstant) {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.resident.insert(page, stamp);
        self.queue.push_back((page, stamp));
        self.maybe_compact();
    }

    fn on_evict(&mut self, page: PageId) {
        self.resident.remove(&page);
    }

    fn choose_victims(
        &mut self,
        count: usize,
        exclude: &HashSet<PageId>,
        _now: VirtualInstant,
    ) -> Vec<PageId> {
        let mut victims = Vec::with_capacity(count);
        let mut skipped = Vec::new();
        while victims.len() < count {
            let Some((page, stamp)) = self.queue.pop_front() else {
                break;
            };
            if self.resident.get(&page) != Some(&stamp) {
                continue; // stale entry
            }
            if exclude.contains(&page) {
                skipped.push((page, stamp));
                continue;
            }
            victims.push(page);
        }
        // Entries we skipped (excluded pages) keep their recency position at
        // the front of the queue.
        for entry in skipped.into_iter().rev() {
            self.queue.push_front(entry);
        }
        victims
    }

    /// Sequential readahead: the next non-resident pages directly ahead of
    /// each registered scan's furthest access, scans visited in id order.
    fn prefetch_hints(&mut self, _now: VirtualInstant, budget: usize) -> Vec<PageId> {
        let mut hints = Vec::with_capacity(budget);
        let mut seen: IdHashSet<PageId> = IdHashSet::default();
        let resident = &self.resident;
        for ra in self.scans.values_mut() {
            // Fast-forward past resident pages at the cursor: on a warm pool
            // this makes the steady state O(1) instead of re-walking the
            // whole remaining plan on every call. Skipped pages that later
            // get evicted are simply served by demand misses.
            while ra.cursor < ra.pages.len() && resident.contains_key(&ra.pages[ra.cursor]) {
                ra.cursor += 1;
            }
            for &page in &ra.pages[ra.cursor..] {
                if hints.len() >= budget {
                    return hints;
                }
                if !resident.contains_key(&page) && seen.insert(page) {
                    hints.push(page);
                }
            }
        }
        hints
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn now() -> VirtualInstant {
        VirtualInstant::EPOCH
    }

    fn p(i: u64) -> PageId {
        PageId::new(i)
    }

    #[test]
    fn evicts_least_recently_used_first() {
        let mut lru = LruPolicy::new();
        for i in 0..4 {
            lru.on_admit(p(i), now());
        }
        lru.on_access(p(0), None, now()); // 0 becomes most recent
        let victims = lru.choose_victims(2, &HashSet::new(), now());
        assert_eq!(victims, vec![p(1), p(2)]);
        lru.on_evict(p(1));
        lru.on_evict(p(2));
        assert_eq!(
            lru.choose_victims(2, &HashSet::new(), now()),
            vec![p(3), p(0)]
        );
    }

    #[test]
    fn excluded_pages_are_skipped_but_keep_their_position() {
        let mut lru = LruPolicy::new();
        for i in 0..3 {
            lru.on_admit(p(i), now());
        }
        let mut exclude = HashSet::new();
        exclude.insert(p(0));
        assert_eq!(lru.choose_victims(1, &exclude, now()), vec![p(1)]);
        lru.on_evict(p(1));
        // Page 0 is still the oldest once no longer excluded.
        assert_eq!(lru.choose_victims(1, &HashSet::new(), now()), vec![p(0)]);
    }

    #[test]
    fn accessing_unknown_pages_is_a_no_op() {
        let mut lru = LruPolicy::new();
        lru.on_access(p(42), None, now());
        assert_eq!(lru.resident.len(), 0);
        assert!(lru.choose_victims(1, &HashSet::new(), now()).is_empty());
    }

    #[test]
    fn eviction_removes_tracking() {
        let mut lru = LruPolicy::new();
        lru.on_admit(p(1), now());
        lru.on_evict(p(1));
        assert_eq!(lru.resident.len(), 0);
        assert!(lru.choose_victims(4, &HashSet::new(), now()).is_empty());
    }

    #[test]
    fn repeated_touches_do_not_leak_queue_entries() {
        let mut lru = LruPolicy::new();
        for i in 0..8 {
            lru.on_admit(p(i), now());
        }
        for _ in 0..10_000 {
            lru.on_access(p(3), None, now());
        }
        assert!(lru.queue.len() <= 4 * lru.resident.len().max(16) + 8);
        // Behaviour is still correct: 3 is the most recent.
        let order = lru.choose_victims(8, &HashSet::new(), now());
        assert_eq!(*order.last().unwrap(), p(3));
    }

    #[test]
    fn scan_callbacks_are_ignored_gracefully() {
        let mut lru = LruPolicy::new();
        let info = ScanInfo {
            id: ScanId::new(1),
            total_tuples: 10,
            distinct_pages: 2,
        };
        let plan = ScanPagePlan {
            table: scanshare_common::TableId::new(0),
            total_tuples: 10,
            pages: vec![],
        };
        lru.register_scan(&info, &plan, now());
        lru.report_scan_position(ScanId::new(1), 5, now());
        lru.unregister_scan(ScanId::new(1), now());
        assert_eq!(lru.name(), "lru");
    }

    fn plan_over(pages: &[u64], tuples_per_page: u64) -> ScanPagePlan {
        use scanshare_common::{ColumnId, TupleRange};
        use scanshare_storage::layout::PageDescriptor;
        let descs = pages
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
            .collect();
        ScanPagePlan {
            table: scanshare_common::TableId::new(0),
            total_tuples: pages.len() as u64 * tuples_per_page,
            pages: descs,
        }
    }

    fn register(lru: &mut LruPolicy, id: u64, plan: &ScanPagePlan) -> ScanId {
        let sid = ScanId::new(id);
        let info = ScanInfo {
            id: sid,
            total_tuples: plan.total_tuples,
            distinct_pages: plan.distinct_pages(),
        };
        lru.register_scan(&info, plan, now());
        sid
    }

    #[test]
    fn readahead_follows_the_scan_cursor() {
        let mut lru = LruPolicy::new();
        let scan = register(&mut lru, 1, &plan_over(&[10, 11, 12, 13, 14], 100));
        // Cold scan: the hints are the head of the plan.
        assert_eq!(lru.prefetch_hints(now(), 2), vec![p(10), p(11)]);
        // Accessing a page moves the cursor past it.
        lru.on_admit(p(10), now());
        lru.on_access(p(10), Some(scan), now());
        lru.on_admit(p(11), now());
        lru.on_access(p(11), Some(scan), now());
        assert_eq!(lru.prefetch_hints(now(), 2), vec![p(12), p(13)]);
        // Resident pages ahead of the cursor are skipped.
        lru.on_admit(p(12), now());
        assert_eq!(lru.prefetch_hints(now(), 2), vec![p(13), p(14)]);
        // The budget truncates; unregistering clears the readahead state.
        assert_eq!(lru.prefetch_hints(now(), 1), vec![p(13)]);
        lru.unregister_scan(scan, now());
        assert!(lru.prefetch_hints(now(), 4).is_empty());
    }

    #[test]
    fn readahead_merges_multiple_scans_without_duplicates() {
        let mut lru = LruPolicy::new();
        register(&mut lru, 1, &plan_over(&[1, 2, 3], 100));
        register(&mut lru, 2, &plan_over(&[2, 3, 4], 100));
        // Scans are visited in id order and shared pages appear once.
        assert_eq!(lru.prefetch_hints(now(), 10), vec![p(1), p(2), p(3), p(4)]);
    }
}
