//! The relevance core: the paper's four ABM scoring functions as pure,
//! lock-free code.
//!
//! Section 2 of the paper drives every Active Buffer Manager decision
//! through four relevance functions. The monolithic implementation buried
//! them inside its state machine; this module lifts the arithmetic out so
//! it is unit-testable in isolation and reusable by other relevance-driven
//! chunk-selection schemes (the same I/O-avoidance idea that data-skipping
//! systems generalize):
//!
//! * [`query_priority`] — *QueryRelevance*: which CScan most urgently needs
//!   data (starved queries first, then short queries);
//! * [`load_relevance`] — *LoadRelevance*: how much a candidate chunk is
//!   worth loading (interested scans plus the shared-chunk bonus);
//! * [`keep_relevance`] — *KeepRelevance*: how much a cached chunk is worth
//!   keeping (same score; the lowest scoring cached chunk is the eviction
//!   victim);
//! * [`use_preference`] — *UseRelevance*: which cached chunk to hand to a
//!   CScan (the one the fewest scans still need, so it becomes evictable
//!   soonest).
//!
//! Every function here is a total, deterministic mapping from counters to a
//! score or ordering key — no locks, no shared state.

use std::cmp::Ordering;

use scanshare_common::ChunkId;

/// QueryRelevance key of a registered CScan: starved queries (nothing
/// cached to process) rank above non-starved ones, then queries with fewer
/// remaining chunks rank higher. The key sorts *descending* under the
/// `(Reverse(starved), Reverse(key.1), scan_id)` ordering the scheduler
/// applies, exactly as the monolithic ABM ranked queries.
pub fn query_priority(starved: bool, remaining_chunks: usize) -> (bool, i64) {
    (starved, -(remaining_chunks as i64))
}

/// Extra LoadRelevance and KeepRelevance of a shared chunk: half an
/// interested scan. Relevance is otherwise a whole number of scans, so every
/// bonus strictly between 0 and 1 makes the same decisions: the bonus breaks
/// ties between chunks the same number of scans want.
pub const SHARED_CHUNK_BONUS: f64 = 0.5;

/// LoadRelevance of a chunk: the number of registered scans still
/// interested in it, with [`SHARED_CHUNK_BONUS`] added when the chunk lies
/// inside a snapshot prefix shared by at least two scans (shared chunks are
/// worth loading early — they are reused across snapshot versions).
pub fn load_relevance(interested: usize, shared: bool) -> f64 {
    interested as f64 + if shared { SHARED_CHUNK_BONUS } else { 0.0 }
}

/// KeepRelevance of a cached chunk: how much it is worth keeping. The
/// paper scores keeping exactly like loading — a chunk is evicted only when
/// its keep score is below the load candidate's relevance.
pub fn keep_relevance(interested: usize, shared: bool) -> f64 {
    load_relevance(interested, shared)
}

/// UseRelevance preference key of a cached chunk for delivery: lower is
/// better. Preferring the chunk with the fewest interested scans makes it
/// evictable soonest; ties break on the chunk id so the choice is
/// deterministic.
pub fn use_preference(interested: usize, chunk: ChunkId) -> (usize, u32) {
    (interested, chunk.raw())
}

/// Ordering used to pick the best load candidate under `max_by`: higher
/// LoadRelevance wins, and among equals the *lower* chunk id wins (the
/// reversed id comparison preserves sequential locality, exactly as the
/// monolithic ABM broke ties).
pub fn load_candidate_order(
    relevance_a: f64,
    chunk_a: ChunkId,
    relevance_b: f64,
    chunk_b: ChunkId,
) -> Ordering {
    relevance_a
        .partial_cmp(&relevance_b)
        .unwrap_or(Ordering::Equal)
        .then(chunk_b.cmp(&chunk_a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;

    fn c(i: u32) -> ChunkId {
        ChunkId::new(i)
    }

    #[test]
    fn starved_queries_outrank_short_queries() {
        // The scheduler sorts by (Reverse(starved), Reverse(priority.1), id):
        // a starved long query must come before a non-starved short one.
        let starved_long = query_priority(true, 100);
        let fed_short = query_priority(false, 1);
        let key = |p: (bool, i64)| (Reverse(p.0), Reverse(p.1));
        assert!(key(starved_long) < key(fed_short));
        // Among starved queries the shorter one wins.
        let starved_short = query_priority(true, 2);
        assert!(key(starved_short) < key(starved_long));
    }

    #[test]
    fn shared_chunks_score_a_bonus() {
        assert_eq!(load_relevance(3, false), 3.0);
        assert_eq!(load_relevance(3, true), 3.5);
        // Keep and load relevance agree, as the eviction rule requires.
        assert_eq!(keep_relevance(3, true), load_relevance(3, true));
        assert_eq!(load_relevance(0, false), 0.0);
    }

    #[test]
    fn use_preference_prefers_least_shared_then_lowest_chunk() {
        assert!(use_preference(1, c(9)) < use_preference(2, c(0)));
        assert!(use_preference(1, c(0)) < use_preference(1, c(9)));
    }

    #[test]
    fn load_candidate_order_prefers_relevance_then_low_chunk_id() {
        use Ordering::*;
        // Higher relevance is Greater (wins under max_by).
        assert_eq!(load_candidate_order(2.0, c(9), 1.0, c(0)), Greater);
        // Equal relevance: the lower chunk id is Greater (wins).
        assert_eq!(load_candidate_order(1.0, c(0), 1.0, c(9)), Greater);
        assert_eq!(load_candidate_order(1.0, c(9), 1.0, c(0)), Less);
        // NaN degrades to the id tie-break instead of panicking.
        assert_eq!(load_candidate_order(f64::NAN, c(0), 1.0, c(1)), Greater);
    }

    #[test]
    fn max_by_over_load_candidates_is_iteration_order_independent() {
        let score = |c: ChunkId| if c.raw() == 3 { 2.0 } else { 1.0 };
        let pick = |chunks: &[ChunkId]| {
            chunks
                .iter()
                .copied()
                .max_by(|a, b| load_candidate_order(score(*a), *a, score(*b), *b))
                .unwrap()
        };
        let forward = [c(1), c(2), c(3), c(4)];
        let mut reversed = forward;
        reversed.reverse();
        assert_eq!(pick(&forward), c(3));
        assert_eq!(pick(&reversed), c(3));
        // All-equal relevance: smallest id regardless of order.
        let all_equal = |chunks: &[ChunkId]| {
            chunks
                .iter()
                .copied()
                .max_by(|a, b| load_candidate_order(1.0, *a, 1.0, *b))
                .unwrap()
        };
        assert_eq!(all_equal(&forward), c(1));
        assert_eq!(all_equal(&reversed), c(1));
    }
}
