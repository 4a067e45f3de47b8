//! Predictive Buffer Management (PBM).
//!
//! PBM is the paper's main contribution: a buffer-replacement policy that
//! approximates the OPT oracle by *predicting* when each page will next be
//! consumed. Scans register the pages they are going to read together with
//! the number of tuples they must process before reaching each page
//! (`RegisterScan`, Figure 9), periodically report their position and speed
//! (`ReportScanPosition`), and unregister when done. The estimated time of
//! next consumption of a page is
//!
//! ```text
//! next_consumption(page) = min over scans s that still need the page of
//!     (tuples_behind(s, page) - tuples_consumed(s)) / speed(s)
//! ```
//!
//! Pages are kept in a **timeline of buckets** (Figure 10): `n` groups of `m`
//! buckets, where the time range covered by a bucket doubles with every
//! group, so a bounded number of buckets covers an exponentially long
//! horizon with an O(1) choice of bucket and O(1) (amortized) aging. Pages
//! not needed by any registered scan live in a separate *not requested*
//! bucket kept in LRU order. Eviction takes pages from the not-requested
//! bucket first, then from the requested buckets furthest in the future.
//!
//! **Inside a bucket** pages are ordered too. A bucket is a max-heap of
//! `(due, page, stamp)` entries, where `due` is the absolute instant the
//! page was predicted to be consumed at when it was last pushed (`now +
//! next_consumption`), and eviction takes a bucket from its top: the page
//! predicted furthest away goes first, ties broken by page id. Without that
//! order the victim among the pages of one bucket is arbitrary, and a run
//! that is short against `time_slice` keeps nearly all its pages in a
//! handful of buckets — the policy would then depend on the ratio of run
//! length to slice length. Nothing is ever removed from a heap in place:
//! every push gives the page a fresh `stamp`, and an entry is live only while
//! its page is requested and still carries that stamp, so a re-push or an
//! eviction leaves the old entry behind as garbage. Eviction drops the
//! stale entries it meets on top, and once the entries outnumber the tracked
//! pages `COMPACT_FACTOR` (4) times over, every heap keeps only its live ones.
//! The not-requested queue uses the same stamps. A `due` key is a snapshot,
//! not a live estimate: it goes stale when the consuming scan's measured
//! speed changes. The staleness is bounded the same way a page's *bucket*
//! is: a consuming access, a registration or an unregistration re-pushes the
//! pages it touches, and a page whose bucket ages off the front of the
//! timeline (`refresh`) is re-estimated from the scans' current positions
//! and speeds.
//!
//! Because a key outlives the estimate it was made from, the estimate made
//! at registration matters: the already resident pages of a new scan are
//! keyed before the scan has moved. `speed(s)` is the scan's lifetime
//! average, known from its first progress report on. Until then the scan is
//! assumed to run as fast as the scans the policy *has* measured — the mean
//! speed of the registered scans that have reported, or the last such mean
//! when none is registered. A fixed prior taken from the cost model's CPU
//! rate is what a scan does on a resident table with the device to itself;
//! under the memory pressure and bandwidth sharing that make eviction
//! matter, scans run an order of magnitude slower, so a new scan's pages
//! looked that much nearer than they were and outranked the accurately keyed
//! pages of its neighbours. [`BOOTSTRAP_SCAN_SPEED`] is still read, but only
//! until the policy's first measurement.
//!
//! The timeline and the bootstrap speed are fixed in code, not configured:
//! at the figure harness's `test` scale a bootstrap speed × 0.01 or × 100
//! read the same 20.8 MB at the Figure 11 point and 106.8 MB at the Figure 13
//! point as the default, and a timeline of two 10 s buckets read the same
//! 27.6 MB as the default one in a replay at heavy memory pressure.

use std::collections::{BinaryHeap, HashSet, VecDeque};

use scanshare_common::hash::IdHashMap;
use scanshare_common::{PageId, ScanId, VirtualDuration, VirtualInstant, CPU_TUPLES_PER_SEC};
use scanshare_storage::layout::ScanPagePlan;

use crate::policy::{ReplacementPolicy, ScanInfo};

/// Length of the finest bucket (the paper's `time_slice`, 100 ms in its
/// example).
pub const TIME_SLICE: VirtualDuration = VirtualDuration::from_millis(100);
/// Number of bucket groups (`n`). The time range length doubles with every
/// successive group.
pub const BUCKET_GROUPS: usize = 10;
/// Buckets per group (`m`).
pub const BUCKETS_PER_GROUP: usize = 10;
/// Total number of requested-page buckets.
const TOTAL_BUCKETS: usize = BUCKET_GROUPS * BUCKETS_PER_GROUP;
/// Bootstrap only: the speed (tuples per second) assumed for a scan that has
/// not reported yet, until the policy's first-ever measurement. From then on
/// such a scan runs at the mean measured speed of the scans that have
/// reported (see the module docs). It is the cost model's CPU rate.
pub const BOOTSTRAP_SCAN_SPEED: f64 = CPU_TUPLES_PER_SEC as f64;
/// The timeline heaps keep only their live entries once they hold more than
/// this many per tracked page, which bounds them as pushes leave garbage.
const COMPACT_FACTOR: usize = 4;

/// A timeline entry: predicted consumption instant, page, stamp of the push.
type Entry = (VirtualInstant, PageId, u64);
type Pages = IdHashMap<PageId, PageMeta>;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum PageState {
    /// Not in the buffer pool; only interest metadata is kept.
    #[default]
    NotResident,
    /// Resident and wanted by at least one scan: the page's live entry sits
    /// in a timeline bucket.
    Requested,
    /// Resident but not wanted by any registered scan (kept in LRU order).
    NotRequested,
}

#[derive(Debug, Default)]
struct PageMeta {
    /// Scans that will consume this page, as slots of the scan table, with
    /// the number of tuples each must process before reaching it
    /// (`page.consuming_scans` in Figure 9), one entry per scan, in no
    /// particular order: a page has a handful of consumers, and the estimate
    /// is a minimum over them.
    consuming: Vec<(usize, u64)>,
    state: PageState,
    /// The stamp of the page's latest push: its entry in a timeline bucket
    /// or in the not-requested queue is live only while it carries this one.
    stamp: u64,
}

impl PageMeta {
    fn is_resident(&self) -> bool {
        self.state != PageState::NotResident
    }
    /// Drops the interest of the scan in `slot`; whether it had any.
    fn remove_consumer(&mut self, slot: usize) -> bool {
        let found = self.consuming.iter().position(|&(s, _)| s == slot);
        found.map(|i| self.consuming.swap_remove(i)).is_some()
    }
}

#[derive(Debug)]
struct ScanState {
    tuples_consumed: u64,
    total_tuples: u64,
    /// Lifetime average speed (tuples per second), `None` until the first
    /// report that yields a measurement.
    speed_tps: Option<f64>,
    registered_at: VirtualInstant,
    pages: Vec<PageId>,
}

/// The Predictive Buffer Management replacement policy.
#[derive(Debug)]
pub struct PbmPolicy {
    /// Registered scans in a dense slot table, so a page's consumers reach
    /// their scan without hashing; `None` slots are on `free_slots`.
    scans: Vec<Option<ScanState>>,
    free_slots: Vec<usize>,
    slot_of: IdHashMap<ScanId, usize>,
    pages: Pages,
    /// Requested buckets; index 0 is the nearest future. Each is a max-heap
    /// of live and stale entries (see the module docs).
    buckets: Vec<BinaryHeap<Entry>>,
    /// No bucket past this one holds an entry.
    far: usize,
    /// Entries in `buckets`, live and stale.
    heap_entries: usize,
    /// Pages in `Requested` state: the live entries in `buckets`.
    requested: usize,
    /// LRU queue (with lazy deletion) for the "not requested" bucket.
    not_requested: VecDeque<(PageId, u64)>,
    next_stamp: u64,
    /// Number of whole time slices already applied by `refresh`.
    refreshed_slices: u64,
    /// Sum and count of the measured speeds of the registered scans that
    /// have reported. Kept incrementally, in call order: a sum over `scans`
    /// would follow the table's slot order, which depends on the order
    /// scans came and went, and float addition is not associative, so
    /// victims would depend on how the table is laid out.
    speed_sum: f64,
    speed_count: usize,
    /// What an unreported scan runs at while `speed_count` is zero: the
    /// speed of the last reporting scan to unregister, [`BOOTSTRAP_SCAN_SPEED`]
    /// before the first measurement.
    idle_speed: f64,
}

impl Default for PbmPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl PbmPolicy {
    /// Creates a PBM policy.
    pub fn new() -> Self {
        Self {
            idle_speed: BOOTSTRAP_SCAN_SPEED,
            speed_sum: 0.0,
            speed_count: 0,
            scans: Vec::new(),
            free_slots: Vec::new(),
            slot_of: IdHashMap::default(),
            pages: IdHashMap::default(),
            buckets: vec![BinaryHeap::new(); TOTAL_BUCKETS],
            far: 0,
            heap_entries: 0,
            requested: 0,
            not_requested: VecDeque::new(),
            next_stamp: 0,
            refreshed_slices: 0,
        }
    }

    /// Number of registered scans.
    pub fn registered_scans(&self) -> usize {
        self.slot_of.len()
    }

    /// Number of resident pages currently in requested buckets.
    pub fn requested_pages(&self) -> usize {
        self.requested
    }

    /// Number of resident pages currently in the not-requested bucket.
    pub fn not_requested_pages(&self) -> usize {
        self.pages
            .values()
            .filter(|m| m.state == PageState::NotRequested)
            .count()
    }

    /// The speed a scan that has not reported yet is assumed to run at: the
    /// mean measured speed of the registered scans that have.
    fn unreported_speed(&self) -> f64 {
        if self.speed_count == 0 {
            self.idle_speed
        } else {
            self.speed_sum / self.speed_count as f64
        }
    }

    /// Estimated time until the next consumption of `page`
    /// (`PageNextConsumption`): the minimum over all scans that registered
    /// the page. Returns `None` when no registered scan needs the page.
    pub fn next_consumption(&self, page: PageId) -> Option<VirtualDuration> {
        let meta = self.pages.get(&page)?;
        estimate(&self.scans, self.unreported_speed(), &meta.consuming)
    }

    /// Re-computes the priority of a resident page and places it in the
    /// appropriate bucket (`PagePush`), keyed by the instant it is now
    /// predicted to be consumed at. The page's previous entry goes stale.
    fn page_push(&mut self, page: PageId, now: VirtualInstant) {
        let unreported = self.unreported_speed();
        let meta = self.pages.entry(page).or_default();
        let was_requested = meta.state == PageState::Requested;
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        meta.stamp = stamp;
        match estimate(&self.scans, unreported, &meta.consuming) {
            None => {
                meta.state = PageState::NotRequested;
                self.requested -= usize::from(was_requested);
                self.not_requested.push_back((page, stamp));
                // Superseded entries are otherwise dropped only when an
                // eviction pops them, so a pool that never evicts would grow
                // the queue by one entry per re-push, forever. Each tracked
                // page has at most one live entry: past twice their number
                // the stale ones are the majority. The live ones keep their
                // order, so no victim changes.
                if self.not_requested.len() > 2 * self.pages.len() {
                    let pages = &self.pages;
                    self.not_requested.retain(|&(page, stamp)| {
                        is_live(pages, page, stamp, PageState::NotRequested)
                    });
                }
            }
            Some(d) => {
                meta.state = PageState::Requested;
                self.requested += usize::from(!was_requested);
                let bucket = bucket_index(d);
                self.buckets[bucket].push((now.after(d), page, stamp));
                self.far = self.far.max(bucket);
                self.heap_entries += 1;
                // The same bound for the timeline. A heap orders the live
                // entries it keeps as before, so no victim changes.
                if self.heap_entries > COMPACT_FACTOR * self.pages.len() {
                    let pages = &self.pages;
                    for bucket in &mut self.buckets {
                        bucket.retain(|&(_, page, stamp)| {
                            is_live(pages, page, stamp, PageState::Requested)
                        });
                    }
                    self.heap_entries = self.buckets.iter().map(BinaryHeap::len).sum();
                }
            }
        }
    }

    /// Ages the bucket timeline (`RefreshRequestedBuckets`): every
    /// `time_slice` the nearest buckets shift one position towards "now";
    /// a bucket in group `g` shifts every `2^g` slices. Pages that fall off
    /// the front get their priority recalculated.
    fn refresh(&mut self, now: VirtualInstant) {
        let target_slices = now.as_nanos() / TIME_SLICE.as_nanos();
        if target_slices <= self.refreshed_slices {
            return;
        }
        for slice in self.refreshed_slices + 1..=target_slices {
            // Group g shifts when 2^g divides the slice: always a prefix.
            let shifted_groups = (slice.trailing_zeros() as usize + 1).min(BUCKET_GROUPS);
            let k = shifted_groups * BUCKETS_PER_GROUP;
            // Bucket 0 falls off the timeline and the next k - 1 move one
            // position towards now; entries do not name their bucket, so
            // nothing else changes. The live pages that fell off are
            // re-pushed in `(due, page)` order.
            self.buckets[..k].rotate_left(1);
            let overflow = std::mem::take(&mut self.buckets[k - 1]).into_sorted_vec();
            self.heap_entries -= overflow.len();
            for (_, page, stamp) in overflow {
                if is_live(&self.pages, page, stamp, PageState::Requested) {
                    self.page_push(page, now);
                }
            }
        }
        self.refreshed_slices = target_slices;
    }

    fn pop_not_requested(&mut self, exclude: &HashSet<PageId>) -> Option<PageId> {
        let mut skipped = Vec::new();
        let mut found = None;
        while let Some((page, stamp)) = self.not_requested.pop_front() {
            if !is_live(&self.pages, page, stamp, PageState::NotRequested) {
                continue;
            }
            if exclude.contains(&page) {
                skipped.push((page, stamp));
                continue;
            }
            found = Some(page);
            break;
        }
        for entry in skipped.into_iter().rev() {
            self.not_requested.push_front(entry);
        }
        found
    }
}

/// Whether the entry `(page, stamp)` of the queue or timeline that holds the
/// pages in `state` is the page's current one: the page is still in that
/// state and was not re-pushed since.
fn is_live(pages: &Pages, page: PageId, stamp: u64, state: PageState) -> bool {
    pages
        .get(&page)
        .is_some_and(|m| m.state == state && m.stamp == stamp)
}

/// `PageNextConsumption` over a page's consumers, `unreported` being the
/// speed assumed for a scan that has not reported yet.
fn estimate(
    scans: &[Option<ScanState>],
    unreported: f64,
    consuming: &[(usize, u64)],
) -> Option<VirtualDuration> {
    let secs = consuming.iter().filter_map(|&(slot, tuples_behind)| {
        let scan = scans[slot].as_ref()?;
        let remaining = tuples_behind.saturating_sub(scan.tuples_consumed) as f64;
        Some(remaining / scan.speed_tps.unwrap_or(unreported).max(1.0))
    });
    secs.reduce(f64::min).map(VirtualDuration::from_secs_f64)
}

/// The bucket index a page with `next_consumption` `d` in the future is
/// assigned to (`TimeToBucketNumber`).
fn bucket_index(d: VirtualDuration) -> usize {
    let mut remaining = d.as_nanos() / TIME_SLICE.as_nanos();
    let mut idx = 0;
    for g in 0..BUCKET_GROUPS {
        let len = 1u64 << g;
        let span = BUCKETS_PER_GROUP as u64 * len;
        if remaining < span {
            return idx + (remaining / len) as usize;
        }
        remaining -= span;
        idx += BUCKETS_PER_GROUP;
    }
    TOTAL_BUCKETS - 1
}

impl ReplacementPolicy for PbmPolicy {
    fn name(&self) -> &'static str {
        "pbm"
    }

    /// Scan ids are unique per registration, as the buffer pool assigns them.
    fn register_scan(&mut self, info: &ScanInfo, plan: &ScanPagePlan, now: VirtualInstant) {
        let slot = self.free_slots.pop().unwrap_or_else(|| {
            self.scans.push(None);
            self.scans.len() - 1
        });
        self.slot_of.insert(info.id, slot);
        let mut page_list = Vec::with_capacity(plan.pages.len());
        for desc in &plan.pages {
            let meta = self.pages.entry(desc.page).or_default();
            // A page may be registered once per column; the scan needs it as
            // soon as it reaches the *earliest* of those positions.
            match meta.consuming.iter_mut().find(|(s, _)| *s == slot) {
                Some((_, behind)) => *behind = (*behind).min(desc.tuples_behind),
                None => meta.consuming.push((slot, desc.tuples_behind)),
            }
            page_list.push(desc.page);
        }
        page_list.sort_unstable();
        page_list.dedup();
        self.scans[slot] = Some(ScanState {
            tuples_consumed: 0,
            total_tuples: info.total_tuples,
            speed_tps: None,
            registered_at: now,
            pages: page_list.clone(),
        });
        // Re-prioritize the pages of this scan that are already resident.
        for page in page_list {
            if self.pages[&page].is_resident() {
                self.page_push(page, now);
            }
        }
    }

    fn report_scan_position(&mut self, scan: ScanId, tuples_consumed: u64, now: VirtualInstant) {
        self.refresh(now);
        let Some(&slot) = self.slot_of.get(&scan) else {
            return;
        };
        let state = self.scans[slot]
            .as_mut()
            .expect("a registered scan has a slot");
        // The engine counts the rows it produced, which include rows the
        // PDT inserted on top of the registered stable ranges; the clamp
        // is for those, not for a caller counting a row once per column.
        state.tuples_consumed = tuples_consumed.min(state.total_tuples);
        let elapsed = now.since(state.registered_at).as_secs_f64();
        if elapsed > 0.0 && tuples_consumed > 0 {
            let speed = tuples_consumed as f64 / elapsed;
            match state.speed_tps.replace(speed) {
                Some(old) => self.speed_sum += speed - old,
                None => {
                    self.speed_sum += speed;
                    self.speed_count += 1;
                }
            }
        }
    }

    fn unregister_scan(&mut self, scan: ScanId, now: VirtualInstant) {
        let Some(slot) = self.slot_of.remove(&scan) else {
            return;
        };
        let state = self.scans[slot]
            .take()
            .expect("a registered scan has a slot");
        self.free_slots.push(slot);
        if let Some(speed) = state.speed_tps {
            self.speed_count -= 1;
            if self.speed_count == 0 {
                // Restarting the sum from zero also drops whatever rounding
                // error the increments accumulated.
                self.idle_speed = speed;
                self.speed_sum = 0.0;
            } else {
                self.speed_sum -= speed;
            }
        }
        // No page names the slot after this loop, so it is free to reuse.
        for page in state.pages {
            let Some(meta) = self.pages.get_mut(&page) else {
                continue;
            };
            meta.remove_consumer(slot);
            if meta.is_resident() {
                self.page_push(page, now);
            } else if meta.consuming.is_empty() {
                self.pages.remove(&page);
            }
        }
    }

    fn on_access(&mut self, page: PageId, scan: Option<ScanId>, now: VirtualInstant) {
        let Some(meta) = self.pages.get_mut(&page) else {
            return;
        };
        // A consumption by the registered scan removes that scan's interest
        // in the page (it will not read it again) and re-prioritizes it.
        let changed = match scan.and_then(|scan| self.slot_of.get(&scan)) {
            Some(&slot) => meta.remove_consumer(slot),
            None => false,
        };
        if meta.is_resident() && (changed || scan.is_none()) {
            self.page_push(page, now);
        }
    }

    fn on_admit(&mut self, page: PageId, now: VirtualInstant) {
        self.refresh(now);
        self.page_push(page, now);
    }

    fn on_evict(&mut self, page: PageId) {
        // The page's entry in the timeline or the queue goes stale with
        // its state.
        let Some(meta) = self.pages.get_mut(&page) else {
            return;
        };
        self.requested -= usize::from(meta.state == PageState::Requested);
        meta.state = PageState::NotResident;
        if meta.consuming.is_empty() {
            self.pages.remove(&page);
        }
    }

    fn choose_victims(
        &mut self,
        count: usize,
        exclude: &HashSet<PageId>,
        now: VirtualInstant,
    ) -> Vec<PageId> {
        self.refresh(now);
        let mut victims = Vec::with_capacity(count);
        // 1. Pages not requested by any scan, in LRU order.
        while victims.len() < count {
            match self.pop_not_requested(exclude) {
                Some(page) => victims.push(page),
                None => break,
            }
        }
        // 2. Requested pages, furthest predicted consumption first: buckets
        //    from the far end of the timeline, each from its top. The
        //    `(due, page)` key is a total order over the live entries, so
        //    victim selection (and therefore every experiment) is
        //    deterministic. Stale entries met on top are dropped; the live
        //    ones taken off a heap go back on it, and the last victim is
        //    only peeked at.
        while self.far > 0 && self.buckets[self.far].is_empty() {
            self.far -= 1;
        }
        let mut held = Vec::new();
        for bucket in self.buckets[..=self.far].iter_mut().rev() {
            while victims.len() < count {
                let Some(&(_, page, stamp)) = bucket.peek() else {
                    break;
                };
                if !is_live(&self.pages, page, stamp, PageState::Requested) {
                    bucket.pop();
                    self.heap_entries -= 1;
                    continue;
                }
                if !exclude.contains(&page) {
                    victims.push(page);
                    if victims.len() == count {
                        break;
                    }
                }
                held.extend(bucket.pop());
            }
            bucket.extend(held.drain(..));
            if victims.len() == count {
                break;
            }
        }
        victims
    }

    /// PBM prefetching: the same next-consumption estimates that rank
    /// eviction victims (furthest first) rank prefetch candidates *nearest*
    /// first. Returns the up-to-`budget` non-resident pages some registered
    /// scan will consume soonest, ties broken by page id for determinism.
    fn prefetch_hints(&mut self, now: VirtualInstant, budget: usize) -> Vec<PageId> {
        if budget == 0 {
            return Vec::new();
        }
        self.refresh(now);
        let unreported = self.unreported_speed();
        let mut candidates: Vec<(u64, PageId)> = self
            .pages
            .iter()
            .filter(|(_, meta)| !meta.is_resident() && !meta.consuming.is_empty())
            .filter_map(|(&page, meta)| {
                estimate(&self.scans, unreported, &meta.consuming).map(|d| (d.as_nanos(), page))
            })
            .collect();
        // Partial selection: only the `budget` nearest candidates need
        // ordering, so avoid a full sort of every tracked page.
        if budget < candidates.len() {
            candidates.select_nth_unstable(budget - 1);
            candidates.truncate(budget);
        }
        candidates.sort_unstable();
        candidates.into_iter().map(|(_, page)| page).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanshare_common::{ColumnId, TableId, TupleRange};
    use scanshare_storage::layout::PageDescriptor;

    fn now_ms(ms: u64) -> VirtualInstant {
        VirtualInstant::from_nanos(ms * 1_000_000)
    }

    fn p(i: u64) -> PageId {
        PageId::new(i)
    }

    /// Builds a single-column scan plan over `pages` of `tuples_per_page`
    /// tuples each.
    fn plan(pages: &[u64], tuples_per_page: u64) -> ScanPagePlan {
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
            table: TableId::new(0),
            total_tuples: pages.len() as u64 * tuples_per_page,
            pages: descs,
        }
    }

    /// A policy that assumes `speed` tuples per second for unreported scans
    /// until its first measurement.
    fn pbm_with_speed(speed: f64) -> PbmPolicy {
        PbmPolicy {
            idle_speed: speed,
            ..PbmPolicy::new()
        }
    }

    fn register(pbm: &mut PbmPolicy, id: u64, plan: &ScanPagePlan, now: VirtualInstant) -> ScanId {
        let sid = ScanId::new(id);
        let info = ScanInfo {
            id: sid,
            total_tuples: plan.total_tuples,
            distinct_pages: plan.distinct_pages(),
        };
        pbm.register_scan(&info, plan, now);
        sid
    }

    /// The buckets holding a live entry of `page`, once per entry.
    fn live_buckets(pbm: &PbmPolicy, page: PageId) -> Vec<usize> {
        let mut found = Vec::new();
        for (b, bucket) in pbm.buckets.iter().enumerate() {
            for &(_, q, stamp) in bucket.iter() {
                if q == page && is_live(&pbm.pages, q, stamp, PageState::Requested) {
                    found.push(b);
                }
            }
        }
        found
    }

    /// The timeline bucket resident page `page` currently sits in: the one
    /// bucket that holds its one live entry.
    fn bucket_of(pbm: &PbmPolicy, page: u64) -> usize {
        let state = pbm.pages[&p(page)].state;
        assert_eq!(state, PageState::Requested, "page {page}");
        match live_buckets(pbm, p(page))[..] {
            [bucket] => bucket,
            ref other => panic!("page {page} has live entries in buckets {other:?}"),
        }
    }

    #[test]
    fn bucket_index_is_monotone_and_respects_group_lengths() {
        // Group 0: buckets 0..=9 of 100 ms each; group 1: buckets 10..=19 of
        // 200 ms; group 2: buckets 20..=29 of 400 ms.
        let ms = |ms| bucket_index(VirtualDuration::from_millis(ms));
        assert_eq!(ms(0), 0);
        assert_eq!(ms(99), 0);
        assert_eq!(ms(100), 1);
        assert_eq!(ms(999), 9);
        assert_eq!(ms(1000), 10);
        assert_eq!(ms(1199), 10);
        assert_eq!(ms(1200), 11);
        assert_eq!(ms(2999), 19);
        assert_eq!(ms(3000), 20);
        assert_eq!(ms(3399), 20);
        assert_eq!(ms(3400), 21);
        // Far beyond the horizon still lands in the last bucket.
        assert_eq!(bucket_index(VirtualDuration::from_secs(3600)), 99);
        // Monotonicity.
        let mut last = 0;
        for t in (0..20_000).step_by(10) {
            let idx = ms(t);
            assert!(idx >= last);
            last = idx;
        }
    }

    #[test]
    fn the_production_timeline_is_ten_doubling_groups_of_ten_buckets() {
        let slices = |n: u64| VirtualDuration::from_nanos(n * TIME_SLICE.as_nanos());
        let before = |n: u64| VirtualDuration::from_nanos(n * TIME_SLICE.as_nanos() - 1);
        assert_eq!(TIME_SLICE, VirtualDuration::from_millis(100));
        for b in 0..10 {
            // Group 0: one 100 ms slice per bucket.
            assert_eq!(bucket_index(slices(b)), b as usize);
            assert_eq!(bucket_index(before(b + 1)), b as usize);
            // Group 1: two slices (200 ms) per bucket, from 1 s on.
            assert_eq!(bucket_index(slices(10 + 2 * b)), 10 + b as usize);
            assert_eq!(bucket_index(before(12 + 2 * b)), 10 + b as usize);
        }
        // The last bucket is group 9's tenth, 2^9 slices long; the horizon
        // is 10 * (2^10 - 1) = 10 230 slices (1 023 s), and anything further
        // stays in the last bucket.
        let horizon = 10_230;
        assert_eq!(slices(horizon), VirtualDuration::from_secs(1023));
        assert_eq!(bucket_index(before(horizon - 512)), 98);
        assert_eq!(bucket_index(slices(horizon - 512)), 99);
        assert_eq!(bucket_index(before(horizon)), 99);
        assert_eq!(bucket_index(slices(horizon)), 99);
        assert_eq!(bucket_index(slices(10 * horizon)), 99);
        // Monotone, one slice at a time, and no bucket is skipped.
        let mut last = 0;
        for n in 0..=horizon {
            let idx = bucket_index(slices(n));
            assert!(idx == last || idx == last + 1, "slice {n}: {last} -> {idx}");
            last = idx;
        }
        assert_eq!(last, TOTAL_BUCKETS - 1);
    }

    #[test]
    fn next_consumption_uses_nearest_interested_scan() {
        // Speed: 1000 tuples/sec so 100 tuples = 100ms.
        let mut pbm = pbm_with_speed(1000.0);
        let pl = plan(&[1, 2, 3], 100);
        let s1 = register(&mut pbm, 1, &pl, now_ms(0));
        // A second scan that is further behind page 3 does not matter; the
        // nearest consumer defines the estimate.
        let pl2 = plan(&[3], 100);
        let _s2 = register(&mut pbm, 2, &pl2, now_ms(0));

        // Within scan 1: page 1 is needed before page 2.
        let d1 = pbm.next_consumption(p(1)).unwrap();
        let d2 = pbm.next_consumption(p(2)).unwrap();
        assert!(d1 < d2);
        // Page 3: scan 1 needs it after 200 tuples (200ms), scan 2 needs it
        // immediately — the *nearest* consumer defines the estimate.
        let d3 = pbm.next_consumption(p(3)).unwrap();
        assert_eq!(bucket_index(d3), 0);
        assert!(d3 < VirtualDuration::from_millis(200));

        // After scan 1 consumed 150 tuples, page 2 is only 50 tuples away.
        pbm.report_scan_position(s1, 150, now_ms(150));
        let d2 = pbm.next_consumption(p(2)).unwrap();
        assert!(d2 <= VirtualDuration::from_millis(60));
        assert_eq!(pbm.next_consumption(p(99)), None);
    }

    #[test]
    fn eviction_prefers_not_requested_then_furthest_requested() {
        let mut pbm = pbm_with_speed(1000.0);
        let pl = plan(&[1, 2, 3], 1000); // 1 second of work per page
        register(&mut pbm, 1, &pl, now_ms(0));
        // Admit pages 1..3 (requested) and 10 (not requested by any scan).
        for page in [1, 2, 3, 10] {
            pbm.on_admit(p(page), now_ms(0));
        }
        assert_eq!(pbm.not_requested_pages(), 1);
        assert_eq!(pbm.requested_pages(), 3);

        let victims = pbm.choose_victims(2, &HashSet::new(), now_ms(0));
        // First the unrequested page, then the requested page needed last.
        assert_eq!(victims[0], p(10));
        assert_eq!(victims[1], p(3));
    }

    #[test]
    fn consumed_pages_lose_the_consuming_scans_interest() {
        let mut pbm = pbm_with_speed(1000.0);
        let pl = plan(&[1, 2], 100);
        let s = register(&mut pbm, 1, &pl, now_ms(0));
        pbm.on_admit(p(1), now_ms(0));
        pbm.on_admit(p(2), now_ms(0));
        assert_eq!(pbm.not_requested_pages(), 0);
        // Scan consumes page 1: it becomes "not requested".
        pbm.on_access(p(1), Some(s), now_ms(10));
        assert_eq!(pbm.not_requested_pages(), 1);
        let victims = pbm.choose_victims(1, &HashSet::new(), now_ms(10));
        assert_eq!(victims, vec![p(1)]);
    }

    #[test]
    fn unregister_scan_demotes_its_pages_to_lru() {
        let mut pbm = pbm_with_speed(1000.0);
        let pl = plan(&[1, 2], 100);
        let s = register(&mut pbm, 1, &pl, now_ms(0));
        pbm.on_admit(p(1), now_ms(0));
        pbm.on_admit(p(2), now_ms(0));
        pbm.unregister_scan(s, now_ms(5));
        assert_eq!(pbm.registered_scans(), 0);
        assert_eq!(pbm.requested_pages(), 0);
        assert_eq!(pbm.not_requested_pages(), 2);
        // Non-resident page metadata of the finished scan is dropped.
        let mut pbm2 = pbm_with_speed(1000.0);
        let s2 = register(&mut pbm2, 7, &plan(&[5], 10), now_ms(0));
        pbm2.unregister_scan(s2, now_ms(0));
        assert!(pbm2.pages.is_empty());
    }

    #[test]
    fn two_scans_same_page_keeps_interest_after_one_finishes() {
        let mut pbm = pbm_with_speed(1000.0);
        let s1 = register(&mut pbm, 1, &plan(&[7], 100), now_ms(0));
        let _s2 = register(&mut pbm, 2, &plan(&[7], 100), now_ms(0));
        pbm.on_admit(p(7), now_ms(0));
        pbm.on_access(p(7), Some(s1), now_ms(1));
        // Scan 2 still wants it: the page must stay in a requested bucket.
        assert_eq!(pbm.requested_pages(), 1);
        assert_eq!(pbm.not_requested_pages(), 0);
    }

    #[test]
    fn faster_reported_speed_moves_pages_to_nearer_buckets() {
        let mut pbm = pbm_with_speed(100.0); // very slow default: 100 tuples/s
        let s = register(&mut pbm, 1, &plan(&[1, 2, 3, 4], 100), now_ms(0));
        pbm.on_admit(p(4), now_ms(0));
        let before = bucket_of(&pbm, 4);
        // After 100ms the scan has done 200 tuples: 2000 tuples/sec.
        pbm.report_scan_position(s, 200, now_ms(100));
        pbm.on_admit(p(4), now_ms(100)); // re-push via admit path
        let after = bucket_of(&pbm, 4);
        assert!(
            after < before,
            "higher speed => sooner consumption => nearer bucket"
        );
    }

    #[test]
    fn refresh_shifts_pages_towards_the_present() {
        let mut pbm = pbm_with_speed(1000.0);
        // Group 1 holds buckets 10..=19 of 200 ms each. Page 11 is needed
        // after 1 000 tuples (1 000 ms) and page 12 after 1 100 tuples
        // (1 100 ms), so both land in bucket 10.
        let pages: Vec<u64> = (1..=12).collect();
        register(&mut pbm, 1, &plan(&pages, 100), now_ms(0));
        pbm.on_admit(p(12), now_ms(0));
        assert_eq!(bucket_of(&pbm, 12), 10);
        pbm.on_admit(p(11), now_ms(0));
        assert_eq!(bucket_of(&pbm, 11), 10);

        // Group 1 shifts every second slice: after one slice the pages have
        // not moved, after two they sit at the end of group 0.
        pbm.refresh(now_ms(100));
        assert_eq!((bucket_of(&pbm, 11), bucket_of(&pbm, 12)), (10, 10));
        pbm.refresh(now_ms(200));
        assert_eq!(
            (bucket_of(&pbm, 11), bucket_of(&pbm, 12)),
            (9, 9),
            "both pages moved towards the present"
        );
    }

    #[test]
    fn refresh_overflow_pages_are_reprioritized_not_lost() {
        let mut pbm = pbm_with_speed(1_000_000.0);
        register(&mut pbm, 1, &plan(&[1], 100), now_ms(0));
        pbm.on_admit(p(1), now_ms(0));
        assert_eq!(pbm.requested_pages(), 1);
        // Let a lot of virtual time pass; the page keeps being tracked.
        pbm.refresh(now_ms(10_000));
        assert_eq!(pbm.requested_pages() + pbm.not_requested_pages(), 1);
        let victims = pbm.choose_victims(1, &HashSet::new(), now_ms(10_000));
        assert_eq!(victims, vec![p(1)]);
    }

    #[test]
    fn excluded_pages_are_never_chosen() {
        let mut pbm = pbm_with_speed(1000.0);
        register(&mut pbm, 1, &plan(&[1, 2], 100), now_ms(0));
        pbm.on_admit(p(1), now_ms(0));
        pbm.on_admit(p(2), now_ms(0));
        let exclude: HashSet<PageId> = [p(1), p(2)].into_iter().collect();
        assert!(pbm.choose_victims(2, &exclude, now_ms(0)).is_empty());
        let exclude: HashSet<PageId> = [p(2)].into_iter().collect();
        assert_eq!(pbm.choose_victims(2, &exclude, now_ms(0)), vec![p(1)]);
    }

    /// Every evictable page, in eviction order.
    fn all_victims(pbm: &mut PbmPolicy, exclude: &[u64], now: VirtualInstant) -> Vec<PageId> {
        let exclude: HashSet<PageId> = exclude.iter().map(|&i| p(i)).collect();
        pbm.choose_victims(pbm.pages.len(), &exclude, now)
    }

    #[test]
    fn victims_inside_a_bucket_are_taken_furthest_first() {
        // 1000 tuples/s and 10 tuples per page: consecutive pages are due
        // 10 ms apart, all inside the first 100 ms bucket — whichever way the
        // page ids run against the scan order.
        for pages in [[1, 2, 3], [3, 2, 1]] {
            let mut pbm = pbm_with_speed(1000.0);
            register(&mut pbm, 1, &plan(&pages, 10), now_ms(0));
            for page in pages {
                pbm.on_admit(p(page), now_ms(0));
                assert_eq!(bucket_of(&pbm, page), 0);
            }
            let last_first: Vec<PageId> = pages.iter().rev().map(|&i| p(i)).collect();
            assert_eq!(all_victims(&mut pbm, &[], now_ms(0)), last_first);
            // `exclude` is honoured from the back of the bucket.
            assert_eq!(
                all_victims(&mut pbm, &[pages[2]], now_ms(0)),
                last_first[1..]
            );
        }
    }

    #[test]
    fn pages_due_at_the_same_instant_break_ties_by_page_id() {
        let mut pbm = pbm_with_speed(1000.0);
        // Three scans, each about to consume its only page.
        for (scan, page) in [(1, 9), (2, 5), (3, 7)] {
            register(&mut pbm, scan, &plan(&[page], 10), now_ms(0));
            pbm.on_admit(p(page), now_ms(0));
        }
        assert_eq!(
            all_victims(&mut pbm, &[], now_ms(0)),
            vec![p(9), p(7), p(5)]
        );
    }

    #[test]
    fn every_requested_page_sits_in_its_bucket_under_its_key() {
        // A deterministic mix of every call that moves pages between states:
        // every page in `Requested` state must have exactly one live entry
        // in the heaps, the one carrying its stamp (a second one would let
        // `choose_victims` return the page from a bucket it left), and no
        // other page any. The counters must match a recount.
        // At 100 tuples/s a scan's pages spread over the first three groups.
        let mut pbm = pbm_with_speed(100.0);
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: u64| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) % bound
        };
        let mut resident: HashSet<PageId> = HashSet::new();
        let mut live_scans: Vec<ScanId> = Vec::new();
        let mut now = 0;
        for step in 0..2000 {
            now += next(40);
            let at = now_ms(now);
            let page = p(next(24));
            match next(7) {
                0 => {
                    let first = next(16);
                    let pages: Vec<u64> = (first..first + 8).collect();
                    live_scans.push(register(&mut pbm, step, &plan(&pages, 25), at));
                }
                1 if !live_scans.is_empty() => {
                    let scan = live_scans.swap_remove(next(live_scans.len() as u64) as usize);
                    pbm.unregister_scan(scan, at);
                }
                2 if !live_scans.is_empty() => {
                    let scan = live_scans[next(live_scans.len() as u64) as usize];
                    pbm.report_scan_position(scan, next(250), at);
                }
                3 if resident.contains(&page) => {
                    let scan = live_scans.first().copied().filter(|_| next(2) == 0);
                    pbm.on_access(page, scan, at);
                }
                4 if resident.remove(&page) => pbm.on_evict(page),
                5 => {
                    for victim in pbm.choose_victims(2, &HashSet::new(), at) {
                        assert!(resident.remove(&victim), "victim {victim} not resident");
                        pbm.on_evict(victim);
                    }
                }
                _ => {
                    resident.insert(page);
                    pbm.on_admit(page, at);
                }
            }
            let mut requested = 0;
            for (&page, meta) in &pbm.pages {
                assert_eq!(meta.is_resident(), resident.contains(&page), "{page}");
                if meta.state == PageState::Requested {
                    bucket_of(&pbm, page.raw());
                    requested += 1;
                } else {
                    assert!(live_buckets(&pbm, page).is_empty(), "{page}");
                }
            }
            assert_eq!(pbm.requested_pages(), requested, "step {step}");
            assert_eq!(
                pbm.heap_entries,
                pbm.buckets.iter().map(BinaryHeap::len).sum::<usize>(),
                "step {step}"
            );
            assert_eq!(
                requested + pbm.not_requested_pages(),
                resident.len(),
                "step {step}"
            );
            // The incremental pair is the mean over the reporting scans,
            // here summed in `ScanId` order.
            let mut reporting: Vec<(ScanId, f64)> = pbm
                .slot_of
                .iter()
                .filter_map(|(&id, &slot)| Some((id, pbm.scans[slot].as_ref()?.speed_tps?)))
                .collect();
            reporting.sort_unstable_by_key(|&(id, _)| id);
            assert_eq!(pbm.speed_count, reporting.len(), "step {step}");
            if !reporting.is_empty() {
                let mean = reporting.iter().map(|&(_, s)| s).sum::<f64>() / reporting.len() as f64;
                let got = pbm.unreported_speed();
                assert!(
                    (got - mean).abs() <= 1e-9 * mean,
                    "step {step}: incremental mean {got}, recomputed {mean}"
                );
            }
        }
    }

    #[test]
    fn an_unreported_scan_runs_at_the_measured_speed_of_its_neighbours() {
        // A default that is wrong by five orders of magnitude.
        let mut pbm = pbm_with_speed(100_000_000.0);
        let s1 = register(&mut pbm, 1, &plan(&[1, 2, 3], 100), now_ms(0));
        assert_eq!(
            pbm.next_consumption(p(3)),
            Some(VirtualDuration::from_nanos(2_000)),
            "before any measurement only the bootstrap speed is known"
        );
        // 100 tuples in 100 ms: 1000 tuples/s.
        pbm.report_scan_position(s1, 100, now_ms(100));
        let s2 = register(&mut pbm, 2, &plan(&[7, 8, 9], 100), now_ms(100));
        // Scan 2 has not reported: page 9, 200 tuples ahead of it, is 200 ms
        // away at its neighbour's speed.
        assert_eq!(
            pbm.next_consumption(p(9)),
            Some(VirtualDuration::from_millis(200))
        );
        // Its own first report replaces the assumption: 100 tuples in 50 ms.
        pbm.report_scan_position(s2, 100, now_ms(150));
        assert_eq!(
            pbm.next_consumption(p(9)),
            Some(VirtualDuration::from_millis(50))
        );
        // A third scan sees the mean of the two: (1000 + 2000) / 2.
        register(&mut pbm, 3, &plan(&[20, 21], 150), now_ms(150));
        assert_eq!(
            pbm.next_consumption(p(21)),
            Some(VirtualDuration::from_millis(100))
        );
    }

    #[test]
    fn the_learned_speed_survives_the_last_reporting_scan() {
        let mut pbm = pbm_with_speed(100_000_000.0);
        let s1 = register(&mut pbm, 1, &plan(&[1, 2], 100), now_ms(0));
        pbm.report_scan_position(s1, 100, now_ms(100));
        // A scan that never reported leaves no trace when it unregisters.
        let s2 = register(&mut pbm, 2, &plan(&[3], 100), now_ms(100));
        pbm.unregister_scan(s2, now_ms(100));
        pbm.unregister_scan(s1, now_ms(100));
        assert_eq!((pbm.speed_count, pbm.speed_sum), (0, 0.0));
        register(&mut pbm, 3, &plan(&[7, 8, 9], 100), now_ms(200));
        assert_eq!(
            pbm.next_consumption(p(9)),
            Some(VirtualDuration::from_millis(200)),
            "1000 tuples/s, as last measured"
        );
    }

    #[test]
    fn two_policies_fed_the_same_calls_evict_the_same_pages() {
        // Run-to-run repeatability: the maps hash with the unseeded
        // `IdHasher`, so two policies fed the same calls lay them out alike
        // and this test no longer exposes an iteration-order leak; that is
        // what `the_estimate_ignores_the_order_of_a_pages_consumers` guards
        // against. The victims are what must repeat; the estimate's bits are
        // compared too because a last-bit difference only rarely flips a
        // nanosecond key.
        let run = || {
            let mut pbm = pbm_with_speed(100_000_000.0);
            let mut trace = Vec::new();
            let mut scans = Vec::new();
            for step in 0..200u64 {
                let now = now_ms(step * 7);
                // Overlapping 12-page scans, a new one every fifth step;
                // each scan advances at its own pace.
                if step % 5 == 0 {
                    let pages: Vec<u64> = (step % 16..step % 16 + 12).collect();
                    scans.push((register(&mut pbm, step, &plan(&pages, 10), now), 0u64));
                }
                for (scan, consumed) in scans.iter_mut() {
                    *consumed += 3 + scan.raw() % 5;
                    pbm.report_scan_position(*scan, *consumed, now);
                }
                if scans.len() > 6 {
                    pbm.unregister_scan(scans.remove(0).0, now);
                }
                for page in step % 28..step % 28 + 4 {
                    if !pbm.pages.get(&p(page)).is_some_and(PageMeta::is_resident) {
                        pbm.on_admit(p(page), now);
                    }
                }
                let victims =
                    pbm.choose_victims(usize::from(step % 3 == 0) * 3, &HashSet::new(), now);
                for &victim in &victims {
                    pbm.on_evict(victim);
                }
                trace.push((pbm.unreported_speed().to_bits(), victims));
            }
            trace
        };
        let first = run();
        assert!(first.iter().flat_map(|(_, victims)| victims).count() > 100);
        for _ in 0..4 {
            assert_eq!(run(), first);
        }
    }

    #[test]
    fn the_estimate_ignores_the_order_of_a_pages_consumers() {
        // Page 100 is 100, 200 and 300 tuples ahead of scans 1, 2 and 3,
        // which run at 2 000, 5 000 and 9 000 tuples/s: 40, 30 and 23.3 ms.
        let plans = [
            plan(&[1, 100], 100),
            plan(&[2, 3, 100], 100),
            plan(&[3, 4, 5, 100], 100),
        ];
        let consumed = [20, 50, 90];
        let run = |order: [usize; 3]| {
            let mut pbm = pbm_with_speed(1000.0);
            for page in [100, 1, 2, 3, 4, 5] {
                pbm.on_admit(p(page), now_ms(0));
            }
            // Registration order is the order of the page's consumer list.
            for i in order {
                register(&mut pbm, i as u64 + 1, &plans[i], now_ms(0));
            }
            for (i, &tuples) in consumed.iter().enumerate() {
                pbm.report_scan_position(ScanId::new(i as u64 + 1), tuples, now_ms(10));
            }
            let bits = |pbm: &PbmPolicy| {
                pbm.next_consumption(p(100))
                    .map(|d| d.as_secs_f64().to_bits())
            };
            let before = bits(&pbm);
            // The nearest consumer reads the page: scan 2 is nearest now.
            pbm.on_access(p(100), Some(ScanId::new(3)), now_ms(20));
            let after = bits(&pbm);
            assert_ne!(before, after, "{order:?}");
            (before, after, all_victims(&mut pbm, &[], now_ms(20)))
        };
        let first = run([0, 1, 2]);
        assert!(first.1.is_some());
        assert_eq!(first.2.len(), 6);
        for order in [[0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            assert_eq!(run(order), first, "{order:?}");
        }
    }

    #[test]
    fn not_requested_pages_are_evicted_in_lru_order() {
        let mut pbm = pbm_with_speed(1000.0);
        for page in [10, 11, 12] {
            pbm.on_admit(p(page), now_ms(0));
        }
        // Touch page 10 so it becomes the most recently used.
        pbm.on_access(p(10), None, now_ms(1));
        let victims = pbm.choose_victims(2, &HashSet::new(), now_ms(1));
        assert_eq!(victims, vec![p(11), p(12)]);
    }

    #[test]
    fn a_pool_that_never_evicts_keeps_the_not_requested_queue_bounded() {
        let mut pbm = pbm_with_speed(1000.0);
        let pages: Vec<u64> = (1..=16).collect();
        for &page in &pages {
            pbm.on_admit(p(page), now_ms(0));
        }
        // The expected LRU order: every push of an unrequested page moves it
        // to the back.
        let mut lru: Vec<u64> = pages.clone();
        let touch = |lru: &mut Vec<u64>, page: u64| {
            lru.retain(|&q| q != page);
            lru.push(page);
        };
        let mut rng = 0x5eed_u64;
        for cycle in 0..3_000u64 {
            let now = now_ms(cycle);
            let scan = register(&mut pbm, cycle, &plan(&pages, 100), now);
            for &page in &pages {
                pbm.on_access(p(page), Some(scan), now);
                touch(&mut lru, page);
            }
            pbm.unregister_scan(scan, now);
            for &page in &pages {
                touch(&mut lru, page);
            }
            // An unregistered reader between queries scrambles the order.
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let page = pages[(rng >> 33) as usize % pages.len()];
            pbm.on_access(p(page), None, now);
            touch(&mut lru, page);
            assert!(
                pbm.not_requested.len() <= 2 * pages.len() + 1,
                "cycle {cycle}: {} queue entries for {} resident pages",
                pbm.not_requested.len(),
                pages.len()
            );
        }
        assert_eq!(pbm.not_requested_pages(), pages.len());
        let victims = pbm.choose_victims(pages.len(), &HashSet::new(), now_ms(3_000));
        assert_eq!(victims, lru.iter().map(|&q| p(q)).collect::<Vec<_>>());
    }

    #[test]
    fn a_pool_that_never_evicts_keeps_the_timeline_heaps_bounded() {
        // Every report and re-admission re-pushes requested pages, and only
        // an eviction or a compaction drops the entries they leave behind.
        let mut pbm = pbm_with_speed(1000.0);
        let pages: Vec<u64> = (1..=16).collect();
        let mut pushes = 0;
        for cycle in 0..250u64 {
            let now = now_ms(cycle * 40);
            let scan = register(&mut pbm, cycle, &plan(&pages, 100), now);
            for step in 1..=8 {
                let now = now_ms(cycle * 40 + step * 5);
                pbm.report_scan_position(scan, step * 50, now);
                for &page in &pages {
                    pbm.on_admit(p(page), now);
                    pushes += 1;
                    assert!(
                        pbm.heap_entries <= COMPACT_FACTOR * pbm.pages.len(),
                        "cycle {cycle}: {} heap entries for {} tracked pages",
                        pbm.heap_entries,
                        pbm.pages.len()
                    );
                }
            }
            pbm.unregister_scan(scan, now);
        }
        assert!(pushes > 30_000);
        assert_eq!(
            pbm.heap_entries,
            pbm.buckets.iter().map(BinaryHeap::len).sum::<usize>()
        );
        assert_eq!(pbm.not_requested_pages(), pages.len());
        assert_eq!(pbm.requested_pages(), 0);
    }

    #[test]
    fn prefetch_hints_rank_nonresident_pages_by_next_consumption() {
        let mut pbm = pbm_with_speed(1000.0);
        let s = register(&mut pbm, 1, &plan(&[1, 2, 3, 4], 100), now_ms(0));
        // Page 2 is already resident: it must not be hinted.
        pbm.on_admit(p(2), now_ms(0));
        let hints = pbm.prefetch_hints(now_ms(0), 2);
        assert_eq!(hints, vec![p(1), p(3)], "nearest non-resident pages first");
        // Larger budgets extend further into the future; zero budget is empty.
        assert_eq!(pbm.prefetch_hints(now_ms(0), 10), vec![p(1), p(3), p(4)]);
        assert!(pbm.prefetch_hints(now_ms(0), 0).is_empty());
        // Progress moves the cursor: after 250 tuples pages 1 and 2 are
        // consumed (interest removed on access) and 3 is nearest.
        pbm.on_access(p(1), Some(s), now_ms(100));
        pbm.on_access(p(2), Some(s), now_ms(200));
        pbm.report_scan_position(s, 250, now_ms(250));
        assert_eq!(pbm.prefetch_hints(now_ms(250), 2), vec![p(3), p(4)]);
        // Unregistering the scan removes all interest: no hints remain.
        pbm.unregister_scan(s, now_ms(300));
        assert!(pbm.prefetch_hints(now_ms(300), 4).is_empty());
    }

    #[test]
    fn behaves_like_an_opt_approximation_for_two_scans() {
        // Scan A is at the start of pages [1..10]; scan B is at the start of
        // pages [6..10] only. Pages 6..10 will be consumed (by B) sooner than
        // A reaches them, so with room for only a few pages the policy must
        // prefer evicting pages that are far for *everyone*.
        let mut pbm = pbm_with_speed(1000.0);
        register(
            &mut pbm,
            1,
            &plan(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 100),
            now_ms(0),
        );
        let pl_b = plan(&[6, 7, 8, 9, 10], 100);
        register(&mut pbm, 2, &pl_b, now_ms(0));
        for page in 1..=10 {
            pbm.on_admit(p(page), now_ms(0));
        }
        let victims = pbm.choose_victims(3, &HashSet::new(), now_ms(0));
        // The furthest-needed pages are 5 (only A needs it, 400ms away) and
        // 10 (B reaches it after 400ms, long before A); pages that B needs
        // soon (6, 7, 8) must survive.
        assert!(victims.contains(&p(5)));
        assert!(victims.contains(&p(10)));
        assert!(!victims.contains(&p(6)));
        assert!(!victims.contains(&p(7)));
        assert!(!victims.contains(&p(8)));
    }
}
