//! The PBM policy as it stood at commit `0630c17`, kept as the executable
//! specification of PBM's decisions.
//!
//! This is that commit's `PbmPolicy` — a timeline of `BTreeSet` buckets
//! keyed by `(due, page)` and scans in a hash map — copied verbatim; only
//! the imports changed, to the public `scanshare::` paths, which is why it
//! lives beside the test and not in the production crate.
//! `pbm_equivalence.rs` replays seeded call sequences through this
//! implementation and through the production policy and asserts identical
//! victims and estimates after every call.
//!
//! The policy semantics are documented on `scanshare::core::pbm`; do not
//! modify this file when changing how PBM keeps its books — change the
//! production policy and let the equivalence test tell you what diverged.

#![allow(dead_code)] // the equivalence trace drives a subset of the surface

use std::collections::{BTreeSet, HashSet, VecDeque};

use scanshare::common::hash::IdHashMap;
use scanshare::common::{PageId, ScanId, VirtualDuration, VirtualInstant};
use scanshare::core::policy::{ReplacementPolicy, ScanInfo};
use scanshare::storage::layout::ScanPagePlan;

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
/// reported (see the module docs). It is the default CPU processing rate.
pub const BOOTSTRAP_SCAN_SPEED: f64 = 250_000_000.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PageState {
    /// Not in the buffer pool; only interest metadata is kept.
    NotResident,
    /// Resident and wanted by at least one scan: the bucket index on the
    /// timeline and the predicted consumption instant the page is keyed by
    /// inside that bucket.
    Requested { bucket: usize, due: VirtualInstant },
    /// Resident but not wanted by any registered scan (kept in LRU order).
    NotRequested,
}

#[derive(Debug, Default)]
struct PageMeta {
    /// Scans that will consume this page, with the number of tuples each
    /// must process before reaching it (`page.consuming_scans` in Figure 9),
    /// one entry per scan, in no particular order: a page has a handful of
    /// consumers, and the estimate is a minimum over them.
    consuming: Vec<(ScanId, u64)>,
    state: Option<PageState>,
    lru_stamp: u64,
}

impl PageMeta {
    fn state(&self) -> PageState {
        self.state.unwrap_or(PageState::NotResident)
    }
    fn is_resident(&self) -> bool {
        !matches!(self.state(), PageState::NotResident)
    }
    /// Drops `scan`'s interest in the page; whether it had any.
    fn remove_consumer(&mut self, scan: ScanId) -> bool {
        let found = self.consuming.iter().position(|&(s, _)| s == scan);
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
    scans: IdHashMap<ScanId, ScanState>,
    pages: IdHashMap<PageId, PageMeta>,
    /// Requested buckets; index 0 is the nearest future. Each is ordered by
    /// `(predicted consumption instant at push, page)`.
    buckets: Vec<BTreeSet<(VirtualInstant, PageId)>>,
    /// LRU queue (with lazy deletion) for the "not requested" bucket.
    not_requested: VecDeque<(PageId, u64)>,
    next_stamp: u64,
    /// Number of whole time slices already applied by `refresh`.
    refreshed_slices: u64,
    /// Sum and count of the measured speeds of the registered scans that
    /// have reported. Kept incrementally, in call order: a sum over `scans`
    /// would follow the map's iteration order, which depends on its hasher
    /// and capacity, and float addition is not associative, so victims would
    /// depend on how the map is laid out.
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
            scans: IdHashMap::default(),
            pages: IdHashMap::default(),
            buckets: vec![BTreeSet::new(); TOTAL_BUCKETS],
            not_requested: VecDeque::new(),
            next_stamp: 0,
            refreshed_slices: 0,
        }
    }

    /// Number of registered scans.
    pub fn registered_scans(&self) -> usize {
        self.scans.len()
    }

    /// Number of resident pages currently in requested buckets.
    pub fn requested_pages(&self) -> usize {
        self.buckets.iter().map(BTreeSet::len).sum()
    }

    /// Number of resident pages currently in the not-requested bucket.
    pub fn not_requested_pages(&self) -> usize {
        self.pages
            .values()
            .filter(|m| m.state() == PageState::NotRequested)
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
        let unreported = self.unreported_speed();
        let mut nearest: Option<f64> = None;
        for &(scan_id, tuples_behind) in &meta.consuming {
            let Some(scan) = self.scans.get(&scan_id) else {
                continue;
            };
            let remaining = tuples_behind.saturating_sub(scan.tuples_consumed) as f64;
            let secs = remaining / scan.speed_tps.unwrap_or(unreported).max(1.0);
            nearest = Some(match nearest {
                Some(cur) => cur.min(secs),
                None => secs,
            });
        }
        nearest.map(VirtualDuration::from_secs_f64)
    }

    fn remove_from_current_bucket(&mut self, page: PageId) {
        if let Some(meta) = self.pages.get(&page) {
            if let PageState::Requested { bucket, due } = meta.state() {
                self.buckets[bucket].remove(&(due, page));
            }
        }
    }

    /// Re-computes the priority of a resident page and places it in the
    /// appropriate bucket (`PagePush`), keyed by the instant it is now
    /// predicted to be consumed at.
    fn page_push(&mut self, page: PageId, now: VirtualInstant) {
        let placement = self
            .next_consumption(page)
            .map(|d| (bucket_index(d), now.after(d)));
        let meta = self.pages.entry(page).or_default();
        if let PageState::Requested { bucket, due } = meta.state() {
            self.buckets[bucket].remove(&(due, page));
        }
        match placement {
            None => {
                meta.state = Some(PageState::NotRequested);
                meta.lru_stamp = self.next_stamp;
                self.not_requested.push_back((page, self.next_stamp));
                self.next_stamp += 1;
                // Superseded entries are otherwise dropped only when an
                // eviction pops them, so a pool that never evicts would grow
                // the queue by one entry per re-push, forever. Each tracked
                // page has at most one live entry: past twice their number
                // the stale ones are the majority. The live ones keep their
                // order, so no victim changes.
                if self.not_requested.len() > 2 * self.pages.len() {
                    let pages = &self.pages;
                    self.not_requested
                        .retain(|&(page, stamp)| is_live_entry(pages, page, stamp));
                }
            }
            Some((bucket, due)) => {
                meta.state = Some(PageState::Requested { bucket, due });
                self.buckets[bucket].insert((due, page));
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
            // How many whole groups shift at this tick (always a prefix).
            let mut shifted_groups = 0usize;
            for g in 0..BUCKET_GROUPS {
                if slice % (1u64 << g) == 0 {
                    shifted_groups = g + 1;
                } else {
                    break;
                }
            }
            let k = shifted_groups * BUCKETS_PER_GROUP;
            if k == 0 {
                continue;
            }
            // Bucket 0 falls off the timeline; its pages are re-pushed below.
            let overflow = std::mem::take(&mut self.buckets[0]);
            for i in 1..k {
                let set = std::mem::take(&mut self.buckets[i]);
                for &(due, page) in &set {
                    if let Some(meta) = self.pages.get_mut(&page) {
                        meta.state = Some(PageState::Requested { bucket: i - 1, due });
                    }
                }
                self.buckets[i - 1] = set;
            }
            self.refreshed_slices = slice;
            for (_, page) in overflow {
                self.page_push(page, now);
            }
        }
        self.refreshed_slices = target_slices;
    }

    fn pop_not_requested(&mut self, exclude: &HashSet<PageId>) -> Option<PageId> {
        let mut skipped = Vec::new();
        let mut found = None;
        while let Some((page, stamp)) = self.not_requested.pop_front() {
            if !is_live_entry(&self.pages, page, stamp) {
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

/// Whether the `not_requested` entry `(page, stamp)` is the page's current
/// one: the page is still unrequested and was not re-pushed since.
fn is_live_entry(pages: &IdHashMap<PageId, PageMeta>, page: PageId, stamp: u64) -> bool {
    pages
        .get(&page)
        .is_some_and(|m| m.state() == PageState::NotRequested && m.lru_stamp == stamp)
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

    fn register_scan(&mut self, info: &ScanInfo, plan: &ScanPagePlan, now: VirtualInstant) {
        let mut page_list = Vec::with_capacity(plan.pages.len());
        for desc in &plan.pages {
            let meta = self.pages.entry(desc.page).or_default();
            // A page may be registered once per column; the scan needs it as
            // soon as it reaches the *earliest* of those positions.
            match meta.consuming.iter_mut().find(|(s, _)| *s == info.id) {
                Some((_, behind)) => *behind = (*behind).min(desc.tuples_behind),
                None => meta.consuming.push((info.id, desc.tuples_behind)),
            }
            page_list.push(desc.page);
        }
        page_list.sort_unstable();
        page_list.dedup();
        self.scans.insert(
            info.id,
            ScanState {
                tuples_consumed: 0,
                total_tuples: info.total_tuples,
                speed_tps: None,
                registered_at: now,
                pages: page_list.clone(),
            },
        );
        // Re-prioritize the pages of this scan that are already resident.
        for page in page_list {
            if self
                .pages
                .get(&page)
                .map(|m| m.is_resident())
                .unwrap_or(false)
            {
                self.page_push(page, now);
            }
        }
    }

    fn report_scan_position(&mut self, scan: ScanId, tuples_consumed: u64, now: VirtualInstant) {
        self.refresh(now);
        if let Some(state) = self.scans.get_mut(&scan) {
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
    }

    fn unregister_scan(&mut self, scan: ScanId, now: VirtualInstant) {
        let Some(state) = self.scans.remove(&scan) else {
            return;
        };
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
        for page in state.pages {
            let mut resident = false;
            let mut remove_meta = false;
            if let Some(meta) = self.pages.get_mut(&page) {
                meta.remove_consumer(scan);
                resident = meta.is_resident();
                remove_meta = meta.consuming.is_empty() && !resident;
            }
            if resident {
                self.page_push(page, now);
            } else if remove_meta {
                self.pages.remove(&page);
            }
        }
    }

    fn on_access(&mut self, page: PageId, scan: Option<ScanId>, now: VirtualInstant) {
        // A consumption by the registered scan removes that scan's interest
        // in the page (it will not read it again) and re-prioritizes it.
        let mut changed = false;
        if let Some(scan) = scan {
            if let Some(meta) = self.pages.get_mut(&page) {
                changed = meta.remove_consumer(scan);
            }
        }
        let resident = self
            .pages
            .get(&page)
            .map(|m| m.is_resident())
            .unwrap_or(false);
        if resident && (changed || scan.is_none()) {
            self.page_push(page, now);
        }
    }

    fn on_admit(&mut self, page: PageId, now: VirtualInstant) {
        self.refresh(now);
        self.pages.entry(page).or_default();
        self.page_push(page, now);
    }

    fn on_evict(&mut self, page: PageId) {
        self.remove_from_current_bucket(page);
        let remove = if let Some(meta) = self.pages.get_mut(&page) {
            meta.state = Some(PageState::NotResident);
            meta.consuming.is_empty()
        } else {
            false
        };
        if remove {
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
        //    from the far end of the timeline, each bucket from its back.
        //    The `(due, page)` key is a total order, so victim selection
        //    (and therefore every experiment) is deterministic.
        let needed = count - victims.len();
        victims.extend(
            self.buckets
                .iter()
                .rev()
                .flat_map(|bucket| bucket.iter().rev())
                .map(|&(_, page)| page)
                .filter(|page| !exclude.contains(page))
                .take(needed),
        );
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
        let mut candidates: Vec<(u64, PageId)> = self
            .pages
            .iter()
            .filter(|(_, meta)| !meta.is_resident() && !meta.consuming.is_empty())
            .filter_map(|(&page, _)| self.next_consumption(page).map(|d| (d.as_nanos(), page)))
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
