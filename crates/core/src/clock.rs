//! CLOCK (second-chance) replacement — a classic LRU approximation.
//!
//! Resident pages sit on a circular list swept by a *hand*. Every access
//! sets the page's reference bit; when a victim is needed the hand walks the
//! ring: a set bit buys the page one more lap (the bit is cleared and the
//! page re-queued behind the hand), a clear bit makes the page the victim.
//! The paper predates SIEVE but CLOCK was already the canonical low-overhead
//! baseline — racing it against LRU/PBM/CScan shows how much of PBM's win
//! comes from scan knowledge rather than from recency bookkeeping.
//!
//! Like [`LruPolicy`](crate::lru::LruPolicy), the implementation is a pure
//! deterministic function of the observed event sequence, so its decisions
//! under the [`BufferPool`](crate::pool::BufferPool) are byte-identical to
//! the single-threaded oracle's for the same trace. The hand only ever
//! moves forward: [`ClockPolicy::
//! hand_advances`] exposes the monotone sweep counter the policy-zoo tests
//! assert on.

use std::collections::{HashSet, VecDeque};

use scanshare_common::hash::IdHashMap;
use scanshare_common::{PageId, ScanId, VirtualInstant};
use scanshare_storage::layout::ScanPagePlan;

use crate::policy::{ReplacementPolicy, ScanInfo};

#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Stamp of the live ring entry; older entries for the page are stale.
    stamp: u64,
    /// The reference bit, set on access and cleared by the sweeping hand.
    referenced: bool,
}

/// CLOCK second-chance replacement over a lazily-compacted ring.
///
/// The ring is a deque whose front is the hand position: `choose_victims`
/// pops from the front, giving referenced pages a second chance by pushing
/// them to the back (one full lap behind the hand). Admissions also join at
/// the back, i.e. just behind the hand, so a fresh page is examined last —
/// the standard CLOCK insertion point. Evicted pages leave a stale deque
/// entry that is skipped (stamp mismatch) and periodically compacted away.
#[derive(Debug, Default)]
pub struct ClockPolicy {
    resident: IdHashMap<PageId, Slot>,
    /// Sweep order, hand at the front. Entries are `(page, stamp)`; an entry
    /// whose stamp differs from the page's resident slot is stale.
    ring: VecDeque<(PageId, u64)>,
    next_stamp: u64,
    hand_advances: u64,
}

impl ClockPolicy {
    /// A fresh CLOCK policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of (non-stale) ring entries the hand has examined. The
    /// hand never moves backwards, so this counter is monotone — the
    /// policy-zoo invariant tests assert exactly that.
    pub fn hand_advances(&self) -> u64 {
        self.hand_advances
    }

    /// The reference bit of `page`, or `None` when it is not tracked.
    pub fn referenced(&self, page: PageId) -> Option<bool> {
        self.resident.get(&page).map(|slot| slot.referenced)
    }

    fn maybe_compact(&mut self) {
        if self.ring.len() > 4 * self.resident.len().max(16) {
            let resident = &self.resident;
            self.ring
                .retain(|(page, stamp)| resident.get(page).is_some_and(|s| s.stamp == *stamp));
        }
    }
}

impl ReplacementPolicy for ClockPolicy {
    fn name(&self) -> &'static str {
        "clock"
    }

    fn register_scan(&mut self, _: &ScanInfo, _: &ScanPagePlan, _: VirtualInstant) {}

    fn report_scan_position(&mut self, _: ScanId, _: u64, _: VirtualInstant) {}

    fn unregister_scan(&mut self, _: ScanId, _: VirtualInstant) {}

    fn on_access(&mut self, page: PageId, _: Option<ScanId>, _: VirtualInstant) {
        if let Some(slot) = self.resident.get_mut(&page) {
            slot.referenced = true;
        }
    }

    fn on_admit(&mut self, page: PageId, _: VirtualInstant) {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        // Admission does not count as a reference; the demand access that
        // follows a miss sets the bit (prefetch admissions stay clear until
        // first consumed, which is exactly what makes useless readahead the
        // first thing the hand reclaims).
        self.resident.insert(
            page,
            Slot {
                stamp,
                referenced: false,
            },
        );
        self.ring.push_back((page, stamp));
        self.maybe_compact();
    }

    fn on_evict(&mut self, page: PageId) {
        self.resident.remove(&page);
        if self.resident.is_empty() {
            self.ring.clear();
        }
    }

    fn choose_victims(
        &mut self,
        count: usize,
        exclude: &HashSet<PageId>,
        _: VirtualInstant,
    ) -> Vec<PageId> {
        let mut victims = Vec::with_capacity(count);
        // Excluded pages the hand passed over; restored in front of the hand
        // afterwards so their sweep position is preserved.
        let mut skipped = Vec::new();
        while victims.len() < count {
            let Some((page, stamp)) = self.ring.pop_front() else {
                break;
            };
            let Some(slot) = self.resident.get_mut(&page) else {
                continue; // stale: the page was evicted or invalidated
            };
            if slot.stamp != stamp {
                continue; // stale: the page was re-admitted since
            }
            self.hand_advances += 1;
            if exclude.contains(&page) {
                // Excluded (being admitted): the hand passes without
                // spending the page's reference bit.
                skipped.push((page, stamp));
                continue;
            }
            if slot.referenced {
                slot.referenced = false;
                self.ring.push_back((page, stamp)); // second chance
                continue;
            }
            victims.push(page);
        }
        for entry in skipped.into_iter().rev() {
            self.ring.push_front(entry);
        }
        victims
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u64) -> PageId {
        PageId::new(i)
    }

    fn now() -> VirtualInstant {
        VirtualInstant::EPOCH
    }

    /// Admit + demand access, exactly like the buffer pool's miss path.
    fn load(policy: &mut ClockPolicy, page: PageId) {
        policy.on_admit(page, now());
        policy.on_access(page, None, now());
    }

    #[test]
    fn sweeps_in_ring_order() {
        let mut clock = ClockPolicy::new();
        for i in 0..4 {
            clock.on_admit(p(i), now());
        }
        assert_eq!(
            clock.choose_victims(2, &HashSet::new(), now()),
            [p(0), p(1)]
        );
        assert_eq!(
            clock.choose_victims(2, &HashSet::new(), now()),
            [p(2), p(3)]
        );
    }

    #[test]
    fn referenced_pages_get_a_second_chance() {
        let mut clock = ClockPolicy::new();
        for i in 0..3 {
            clock.on_admit(p(i), now());
        }
        clock.on_access(p(1), None, now());
        let mut order = Vec::new();
        for _ in 0..3 {
            let victim = clock.choose_victims(1, &HashSet::new(), now());
            order.extend(victim.iter().copied());
            for v in victim {
                clock.on_evict(v);
            }
        }
        // Page 1 spends its reference bit and survives one extra lap.
        assert_eq!(order, [p(0), p(2), p(1)]);
    }

    #[test]
    fn demand_loads_are_referenced_until_the_hand_passes() {
        let mut clock = ClockPolicy::new();
        load(&mut clock, p(0));
        load(&mut clock, p(1));
        assert_eq!(clock.referenced(p(0)), Some(true));
        // Both bits are spent on the first lap; the second lap finds page 0.
        assert_eq!(clock.choose_victims(1, &HashSet::new(), now()), [p(0)]);
        assert_eq!(clock.referenced(p(1)), Some(false));
    }

    #[test]
    fn excluded_pages_keep_position_and_reference_bit() {
        let mut clock = ClockPolicy::new();
        for i in 0..3 {
            clock.on_admit(p(i), now());
        }
        clock.on_access(p(0), None, now());
        let mut pinned = HashSet::new();
        pinned.insert(p(0));
        // 0 is pinned (bit untouched), 1 is the first clear-bit page.
        assert_eq!(clock.choose_victims(2, &pinned, now()), [p(1), p(2)]);
        assert_eq!(clock.referenced(p(0)), Some(true));
        // Unpinned again: still at the hand, spends its bit, then evicts.
        assert_eq!(clock.choose_victims(1, &HashSet::new(), now()), [p(0)]);
    }

    #[test]
    fn readmission_moves_a_page_behind_the_hand() {
        let mut clock = ClockPolicy::new();
        clock.on_admit(p(0), now());
        clock.on_admit(p(1), now());
        clock.on_evict(p(0));
        clock.on_admit(p(0), now());
        // The stale front entry for page 0 is skipped; 1 is now oldest.
        assert_eq!(clock.choose_victims(1, &HashSet::new(), now()), [p(1)]);
        assert_eq!(clock.choose_victims(1, &HashSet::new(), now()), [p(0)]);
    }

    #[test]
    fn hand_only_moves_forward() {
        let mut clock = ClockPolicy::new();
        let mut last = clock.hand_advances();
        for round in 0..50u64 {
            load(&mut clock, p(round % 7));
            if round % 3 == 0 {
                clock.on_access(p(round % 5), None, now());
            }
            if round % 2 == 0 {
                for v in clock.choose_victims(1, &HashSet::new(), now()) {
                    clock.on_evict(v);
                }
            }
            let advances = clock.hand_advances();
            assert!(advances >= last, "hand moved backwards at round {round}");
            last = advances;
        }
        assert!(last > 0);
    }

    #[test]
    fn fully_pinned_ring_yields_no_victims_and_preserves_order() {
        let mut clock = ClockPolicy::new();
        for i in 0..3 {
            clock.on_admit(p(i), now());
        }
        let pinned: HashSet<PageId> = (0..3).map(p).collect();
        assert!(clock.choose_victims(2, &pinned, now()).is_empty());
        // Positions survived the fruitless sweep.
        assert_eq!(
            clock.choose_victims(3, &HashSet::new(), now()),
            [p(0), p(1), p(2)]
        );
    }

    #[test]
    fn stale_entries_are_compacted_away() {
        let mut clock = ClockPolicy::new();
        clock.on_admit(p(1000), now());
        // Invalidations (evict without a hand sweep) leave stale ring
        // entries behind; compaction must keep the ring bounded.
        for i in 0..200 {
            clock.on_admit(p(i), now());
            clock.on_evict(p(i));
        }
        assert!(clock.ring.len() <= 4 * 16 + 2, "{}", clock.ring.len());
        // Every stale entry is skipped; the survivor is still found.
        assert_eq!(clock.choose_victims(1, &HashSet::new(), now()), [p(1000)]);
    }
}
