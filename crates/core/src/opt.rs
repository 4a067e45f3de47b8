//! OPT (Belady / MIN) simulation over a recorded page-reference trace.
//!
//! OPT is the provably optimal replacement algorithm for order-preserving
//! policies: given perfect knowledge of all future references, it evicts the
//! page that will be referenced furthest in the future (or never again).
//! Like the paper, we do not run OPT online; instead we record the page
//! reference trace of a PBM run and replay it here, reporting the I/O volume
//! the oracle would have caused.

use std::collections::BinaryHeap;

use scanshare_common::hash::IdHashMap;
use scanshare_common::PageId;

/// Result of replaying a trace under OPT.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptResult {
    /// References served from the buffer.
    pub hits: u64,
    /// References that required a load.
    pub misses: u64,
    /// Pages evicted.
    pub evictions: u64,
}

impl OptResult {
    /// Total references replayed.
    pub fn references(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit ratio in `[0, 1]`.
    pub fn hit_ratio(&self) -> f64 {
        if self.references() == 0 {
            0.0
        } else {
            self.hits as f64 / self.references() as f64
        }
    }

    /// I/O volume in bytes, assuming uniform pages of `page_size` bytes.
    pub fn io_bytes(&self, page_size: u64) -> u64 {
        self.misses * page_size
    }
}

/// Replays `trace` through a buffer of `capacity_pages` pages under Belady's
/// OPT policy and returns the resulting counters.
///
/// Complexity is `O(n log n)` in the trace length: the next use of every
/// reference is precomputed, and the resident pages sit in a max-heap keyed
/// by next use. A hit pushes the page's new key and leaves the old one
/// behind; an entry counts only while it matches the page's key in
/// `resident`, and an eviction pops the stale ones it finds on top.
pub fn simulate_opt(trace: &[PageId], capacity_pages: usize) -> OptResult {
    assert!(
        capacity_pages > 0,
        "OPT needs a buffer of at least one page"
    );
    let n = trace.len();
    // next_use[i] = index of the next reference to trace[i] after i, or
    // usize::MAX if it is never referenced again.
    let mut next_use = vec![usize::MAX; n];
    let mut last_seen: IdHashMap<PageId, usize> = IdHashMap::default();
    for (i, &page) in trace.iter().enumerate().rev() {
        if let Some(&later) = last_seen.get(&page) {
            next_use[i] = later;
        }
        last_seen.insert(page, i);
    }

    // Resident set: page -> next use index, and the heap of (next_use,
    // page) keys, live and stale. Next uses are distinct trace indices, so
    // a page's live key is the only entry of the heap that matches it.
    let mut resident: IdHashMap<PageId, usize> = IdHashMap::default();
    let mut by_next_use: BinaryHeap<(usize, PageId)> = BinaryHeap::new();
    let mut result = OptResult::default();

    for (i, &page) in trace.iter().enumerate() {
        if let Some(next) = resident.get_mut(&page) {
            result.hits += 1;
            *next = next_use[i];
        } else {
            result.misses += 1;
            if resident.len() >= capacity_pages {
                // Evict the resident page referenced furthest in the future.
                loop {
                    let (next, victim) = by_next_use.pop().expect("resident set is non-empty");
                    if resident.get(&victim) == Some(&next) {
                        resident.remove(&victim);
                        result.evictions += 1;
                        break;
                    }
                }
            }
            resident.insert(page, next_use[i]);
        }
        by_next_use.push((next_use[i], page));
        // Hits leave stale keys behind; past a few per resident page, drop
        // them all.
        if by_next_use.len() > 4 * resident.len() {
            by_next_use.retain(|&(next, page)| resident.get(&page) == Some(&next));
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u64) -> PageId {
        PageId::new(i)
    }

    fn trace(ids: &[u64]) -> Vec<PageId> {
        ids.iter().map(|&i| p(i)).collect()
    }

    #[test]
    fn cold_misses_only_when_capacity_suffices() {
        let t = trace(&[1, 2, 3, 1, 2, 3, 1, 2, 3]);
        let r = simulate_opt(&t, 3);
        assert_eq!(r.misses, 3);
        assert_eq!(r.hits, 6);
        assert_eq!(r.evictions, 0);
        assert!((r.hit_ratio() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.io_bytes(1000), 3000);
    }

    #[test]
    fn textbook_belady_example() {
        // Classic example: reference string with a 3-page buffer.
        let t = trace(&[7, 0, 1, 2, 0, 3, 0, 4, 2, 3, 0, 3, 2, 1, 2, 0, 1, 7, 0, 1]);
        let r = simulate_opt(&t, 3);
        // Belady's algorithm incurs 9 faults on this classic string.
        assert_eq!(r.misses, 9);
        assert_eq!(r.hits, 11);
    }

    #[test]
    fn opt_never_does_worse_than_any_other_policy_on_lru_adversary() {
        // Sequential flooding: LRU with capacity 3 over 1..=4 repeated gets
        // zero hits; OPT keeps some pages and does better.
        let mut ids = Vec::new();
        for _ in 0..10 {
            ids.extend_from_slice(&[1, 2, 3, 4]);
        }
        let r = simulate_opt(&trace(&ids), 3);
        assert!(r.hits > 0);
        assert!(r.misses < ids.len() as u64);
    }

    #[test]
    fn capacity_one_hits_only_on_immediate_repeats() {
        let t = trace(&[1, 1, 2, 2, 2, 1]);
        let r = simulate_opt(&t, 1);
        assert_eq!(r.hits, 3);
        assert_eq!(r.misses, 3);
    }

    #[test]
    fn larger_capacity_never_increases_misses() {
        let mut ids = Vec::new();
        for i in 0..200u64 {
            ids.push(i % 17);
            ids.push((i * 7) % 13);
        }
        let t = trace(&ids);
        let mut last = u64::MAX;
        for cap in [1usize, 2, 4, 8, 16, 32] {
            let r = simulate_opt(&t, cap);
            assert!(r.misses <= last, "OPT misses must be monotone in capacity");
            last = r.misses;
            assert_eq!(r.references(), ids.len() as u64);
        }
    }

    /// The replay as it was with an ordered map of the resident pages,
    /// which the lazy heap must match decision for decision.
    fn simulate_opt_ordered(trace: &[PageId], capacity_pages: usize) -> OptResult {
        let mut next_use = vec![usize::MAX; trace.len()];
        let mut last_seen: IdHashMap<PageId, usize> = IdHashMap::default();
        for (i, &page) in trace.iter().enumerate().rev() {
            if let Some(&later) = last_seen.get(&page) {
                next_use[i] = later;
            }
            last_seen.insert(page, i);
        }
        let mut resident: IdHashMap<PageId, usize> = IdHashMap::default();
        let mut by_next_use = std::collections::BTreeSet::new();
        let mut result = OptResult::default();
        for (i, &page) in trace.iter().enumerate() {
            if let Some(&old_next) = resident.get(&page) {
                result.hits += 1;
                by_next_use.remove(&(old_next, page));
            } else {
                result.misses += 1;
                if resident.len() >= capacity_pages {
                    let (_, victim) = by_next_use.pop_last().expect("resident set is non-empty");
                    resident.remove(&victim);
                    result.evictions += 1;
                }
            }
            resident.insert(page, next_use[i]);
            by_next_use.insert((next_use[i], page));
        }
        result
    }

    #[test]
    fn the_lazy_heap_matches_the_ordered_replay() {
        let mut state = 0x0dd_b1a5_u64;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        for round in 0..16 {
            // Skewed references over a universe that outgrows some
            // capacities and not others, with runs of repeats.
            let universe = 2 + next(60);
            let ids: Vec<u64> = (0..1_000)
                .map(|_| match next(4) {
                    0 => next(4),
                    _ => next(universe),
                })
                .collect();
            let t = trace(&ids);
            for cap in 1..=40 {
                assert_eq!(
                    simulate_opt(&t, cap),
                    simulate_opt_ordered(&t, cap),
                    "round {round}, capacity {cap}"
                );
            }
        }
    }

    #[test]
    fn empty_trace_is_fine() {
        let r = simulate_opt(&[], 4);
        assert_eq!(r, OptResult::default());
        assert_eq!(r.hit_ratio(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_capacity_is_rejected() {
        let _ = simulate_opt(&trace(&[1]), 0);
    }
}
