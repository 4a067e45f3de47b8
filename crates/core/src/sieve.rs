//! SIEVE replacement (Zhang et al., NSDI '24) — eviction with lazy promotion
//! and quick demotion.
//!
//! Pages live on a FIFO list (newest at the head). Each page carries a
//! *visited* bit set on re-reference — crucially, the access that faults a
//! page in does **not** count, which is what separates SIEVE from CLOCK. A
//! persistent hand starts at the tail (oldest) and walks toward the head:
//! visited pages have their bit cleared and *keep their position* (no
//! re-queueing, unlike CLOCK's second chance), unvisited pages are evicted.
//! The hand survives across evictions and wraps back to the tail when it
//! reaches the head, so one-hit-wonder pages admitted after the hand passed
//! are sifted out quickly while re-referenced pages survive laps in place.
//!
//! Like every policy in this crate the implementation is a deterministic
//! function of the observed event sequence — the linked list is traversed
//! through explicit indices, hash maps are used for keyed lookup only — so
//! the same trace yields byte-identical decisions under the
//! [`BufferPool`](crate::pool::BufferPool) and under the single-threaded
//! oracle.

use std::collections::HashSet;

use scanshare_common::hash::IdHashMap;
use scanshare_common::{PageId, ScanId, VirtualInstant};
use scanshare_storage::layout::ScanPagePlan;

use crate::policy::{ReplacementPolicy, ScanInfo};

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Node {
    page: PageId,
    /// Set on re-reference, cleared by the sweeping hand.
    visited: bool,
    /// Admission is pending its first demand access (the buffer pool calls
    /// `on_admit` then `on_access` for the same fault; that first access is
    /// the insertion itself, not a re-reference).
    fresh: bool,
    /// Neighbor toward the head (more recently admitted); `NIL` at the head.
    newer: usize,
    /// Neighbor toward the tail (older); `NIL` at the tail.
    older: usize,
}

/// SIEVE replacement over a slab-allocated doubly-linked FIFO list.
#[derive(Debug, Default)]
pub struct SievePolicy {
    nodes: Vec<Node>,
    free: Vec<usize>,
    slot: IdHashMap<PageId, usize>,
    /// Most recently admitted page; `NIL` when empty.
    head: usize,
    /// Oldest page; `NIL` when empty.
    tail: usize,
    /// The sifting hand; `NIL` means "start from the tail".
    hand: usize,
}

impl SievePolicy {
    /// A fresh SIEVE policy.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            free: Vec::new(),
            slot: IdHashMap::default(),
            head: NIL,
            tail: NIL,
            hand: NIL,
        }
    }

    /// The visited bit of `page`, or `None` when it is not tracked.
    pub fn visited(&self, page: PageId) -> Option<bool> {
        self.slot.get(&page).map(|&s| self.nodes[s].visited)
    }

    /// Tracked pages in FIFO order, oldest first (test observability).
    pub fn pages_oldest_first(&self) -> Vec<PageId> {
        let mut out = Vec::with_capacity(self.slot.len());
        let mut cur = self.tail;
        while cur != NIL {
            out.push(self.nodes[cur].page);
            cur = self.nodes[cur].newer;
        }
        out
    }

    fn alloc(&mut self, node: Node) -> usize {
        match self.free.pop() {
            Some(idx) => {
                self.nodes[idx] = node;
                idx
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (newer, older) = (self.nodes[idx].newer, self.nodes[idx].older);
        if newer != NIL {
            self.nodes[newer].older = older;
        } else {
            self.head = older;
        }
        if older != NIL {
            self.nodes[older].newer = newer;
        } else {
            self.tail = newer;
        }
        if self.hand == idx {
            // Continue from the node the hand would have examined next.
            self.hand = newer;
        }
        self.free.push(idx);
    }
}

impl ReplacementPolicy for SievePolicy {
    fn name(&self) -> &'static str {
        "sieve"
    }

    fn register_scan(&mut self, _: &ScanInfo, _: &ScanPagePlan, _: VirtualInstant) {}

    fn report_scan_position(&mut self, _: ScanId, _: u64, _: VirtualInstant) {}

    fn unregister_scan(&mut self, _: ScanId, _: VirtualInstant) {}

    fn on_access(&mut self, page: PageId, _: Option<ScanId>, _: VirtualInstant) {
        if let Some(&s) = self.slot.get(&page) {
            let node = &mut self.nodes[s];
            if node.fresh {
                node.fresh = false; // the faulting access: insertion, not reuse
            } else {
                node.visited = true;
            }
        }
    }

    fn on_admit(&mut self, page: PageId, _: VirtualInstant) {
        if self.slot.contains_key(&page) {
            return;
        }
        let old_head = self.head;
        let idx = self.alloc(Node {
            page,
            visited: false,
            fresh: true,
            newer: NIL,
            older: old_head,
        });
        if old_head != NIL {
            self.nodes[old_head].newer = idx;
        } else {
            self.tail = idx;
        }
        self.head = idx;
        self.slot.insert(page, idx);
    }

    fn on_evict(&mut self, page: PageId) {
        if let Some(idx) = self.slot.remove(&page) {
            self.unlink(idx);
        }
    }

    fn choose_victims(
        &mut self,
        count: usize,
        exclude: &HashSet<PageId>,
        _: VirtualInstant,
    ) -> Vec<PageId> {
        let mut victims = Vec::with_capacity(count);
        // After one full lap every visited bit is clear, so a victim must
        // appear within two laps unless every page is excluded.
        let mut fruitless = 0usize;
        while victims.len() < count {
            if fruitless > 2 * self.slot.len() + 2 {
                break; // everything evictable is excluded
            }
            let cur = if self.hand != NIL {
                self.hand
            } else {
                self.tail
            };
            if cur == NIL {
                break; // nothing tracked
            }
            let node = &mut self.nodes[cur];
            if node.visited {
                node.visited = false;
                self.hand = node.newer; // bit spent; page keeps its position
                fruitless += 1;
                continue;
            }
            if exclude.contains(&node.page) {
                self.hand = node.newer; // excluded: pass without spending a bit
                fruitless += 1;
                continue;
            }
            let page = node.page;
            victims.push(page);
            fruitless = 0;
            // Remove now so a wrapping hand cannot re-select the page; the
            // pool's follow-up `on_evict` finds it already forgotten.
            self.slot.remove(&page);
            self.unlink(cur);
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
    fn load(policy: &mut SievePolicy, page: PageId) {
        policy.on_admit(page, now());
        policy.on_access(page, None, now());
    }

    #[test]
    fn evicts_oldest_unvisited_first() {
        let mut sieve = SievePolicy::new();
        for i in 0..3 {
            load(&mut sieve, p(i));
        }
        assert_eq!(
            sieve.choose_victims(2, &HashSet::new(), now()),
            [p(0), p(1)]
        );
        assert_eq!(sieve.pages_oldest_first(), [p(2)]);
    }

    #[test]
    fn insertion_is_not_a_reference() {
        let mut sieve = SievePolicy::new();
        load(&mut sieve, p(0));
        load(&mut sieve, p(1));
        // The faulting accesses did not set visited bits: page 0 is evicted
        // immediately (this is where SIEVE differs from CLOCK).
        assert_eq!(sieve.visited(p(0)), Some(false));
        assert_eq!(sieve.choose_victims(1, &HashSet::new(), now()), [p(0)]);
    }

    #[test]
    fn visited_pages_survive_in_place_while_unvisited_exist() {
        let mut sieve = SievePolicy::new();
        for i in 0..3 {
            load(&mut sieve, p(i));
        }
        sieve.on_access(p(1), None, now()); // re-reference: visited
                                            // 1 is passed over (bit cleared, position kept); 0 and 2 go first.
        assert_eq!(
            sieve.choose_victims(2, &HashSet::new(), now()),
            [p(0), p(2)]
        );
        assert_eq!(sieve.pages_oldest_first(), [p(1)]);
        assert_eq!(sieve.visited(p(1)), Some(false));
        // Only now, with no unvisited page left, is 1 evicted.
        assert_eq!(sieve.choose_victims(1, &HashSet::new(), now()), [p(1)]);
    }

    #[test]
    fn hand_survives_evictions_and_wraps_to_the_tail() {
        let mut sieve = SievePolicy::new();
        for i in 0..4 {
            load(&mut sieve, p(i));
        }
        sieve.on_access(p(0), None, now());
        // Hand at tail: clears 0's bit, evicts 1. Hand now points at 2.
        assert_eq!(sieve.choose_victims(1, &HashSet::new(), now()), [p(1)]);
        // A page admitted at the head is behind the hand...
        load(&mut sieve, p(9));
        // ...so the sweep continues from 2, wraps past the head, and only
        // then reaches the unvisited tail page 0.
        assert_eq!(
            sieve.choose_victims(3, &HashSet::new(), now()),
            [p(2), p(3), p(9)]
        );
        assert_eq!(sieve.choose_victims(1, &HashSet::new(), now()), [p(0)]);
    }

    #[test]
    fn excluded_pages_are_passed_without_spending_their_bit() {
        let mut sieve = SievePolicy::new();
        for i in 0..3 {
            load(&mut sieve, p(i));
        }
        sieve.on_access(p(0), None, now());
        let mut pinned = HashSet::new();
        pinned.insert(p(1));
        assert_eq!(sieve.choose_victims(2, &pinned, now()), [p(2), p(0)]);
        assert_eq!(sieve.pages_oldest_first(), [p(1)]);
        // A fully pinned list terminates without victims.
        pinned.insert(p(0));
        assert!(sieve.choose_victims(1, &pinned, now()).is_empty());
    }

    #[test]
    fn never_evicts_a_visited_page_while_an_unvisited_one_exists() {
        // Randomized (deterministic LCG) version of the core invariant: as
        // long as some page has a clear visited bit, no set-bit page is the
        // next victim.
        for seed in 0..5u64 {
            let mut sieve = SievePolicy::new();
            let mut state = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let mut rng = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state >> 33
            };
            for i in 0..16 {
                load(&mut sieve, p(i));
            }
            let mut hot = HashSet::new();
            for _ in 0..8 {
                let page = p(rng() % 16);
                sieve.on_access(page, None, now());
                hot.insert(page);
            }
            let cold = 16 - hot.len();
            for k in 0..cold {
                let victim = sieve.choose_victims(1, &HashSet::new(), now());
                assert_eq!(victim.len(), 1, "seed {seed}");
                assert!(
                    !hot.contains(&victim[0]),
                    "seed {seed}: evicted visited page {:?} with {} unvisited left",
                    victim[0],
                    cold - k
                );
            }
        }
    }

    #[test]
    fn invalidation_of_the_hand_page_keeps_the_sweep_going() {
        let mut sieve = SievePolicy::new();
        for i in 0..3 {
            load(&mut sieve, p(i));
        }
        sieve.on_access(p(0), None, now());
        // Sweep once so the hand points at page 1.
        assert_eq!(sieve.choose_victims(1, &HashSet::new(), now()), [p(1)]);
        // A checkpoint invalidates the page under the hand (page 2).
        sieve.on_evict(p(2));
        // The hand falls through to the head and wraps back to page 0.
        assert_eq!(sieve.choose_victims(1, &HashSet::new(), now()), [p(0)]);
        assert!(sieve.pages_oldest_first().is_empty());
    }
}
