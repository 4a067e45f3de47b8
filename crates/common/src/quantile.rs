//! Nearest-rank quantiles — the one percentile implementation every report
//! in the workspace shares.
//!
//! Latency percentiles appear in three places: the workload driver's
//! `WorkloadReport` per-query latencies, the serving layer's load-generator
//! report, and the I/O device statistics.
//! They must agree on the math, and the math must be *pooled*: percentiles
//! are computed over the combined sample population, never by averaging
//! per-stream percentiles (averaging the p95 of each stream systematically
//! underestimates the tail whenever streams are skewed — the regression
//! test below demonstrates the failure mode).

/// The nearest-rank `q`-quantile (`0.0..=1.0`) of `sorted` ascending
/// samples: the smallest element such that at least `⌈q·n⌉` samples are
/// `<=` it. `None` when there are no samples; `q` is clamped to `0.0..=1.0`
/// and `q = 0.0` returns the smallest sample.
pub fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_has_no_quantiles() {
        assert_eq!(nearest_rank::<u64>(&[], 0.5), None);
    }

    #[test]
    fn nearest_rank_basics() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&samples, 0.0), Some(1));
        assert_eq!(nearest_rank(&samples, 0.01), Some(1));
        assert_eq!(nearest_rank(&samples, 0.50), Some(50));
        assert_eq!(nearest_rank(&samples, 0.95), Some(95));
        assert_eq!(nearest_rank(&samples, 0.99), Some(99));
        assert_eq!(nearest_rank(&samples, 1.0), Some(100));
        // Out-of-range q is clamped, not an error.
        assert_eq!(nearest_rank(&samples, 7.0), Some(100));
        assert_eq!(nearest_rank(&samples, -1.0), Some(1));
    }

    #[test]
    fn single_sample_is_every_quantile() {
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(nearest_rank(&[42u64], q), Some(42));
        }
    }

    #[test]
    fn ceil_rank_matches_the_definition() {
        // 4 samples: p95 needs ⌈0.95·4⌉ = 4 samples ≤ it → the maximum.
        assert_eq!(nearest_rank(&[10u64, 20, 30, 40], 0.95), Some(40));
        // 20 samples: ⌈0.95·20⌉ = 19 → the 19th.
        let samples: Vec<u64> = (1..=20).collect();
        assert_eq!(nearest_rank(&samples, 0.95), Some(19));
    }

    /// The regression the shared helper guards against: percentiles must be
    /// pooled over all streams' samples, because averaging per-stream
    /// percentiles underestimates the tail. Ten streams, one of which is
    /// slow: the averaged p95 misses the real tail by an order of
    /// magnitude.
    #[test]
    fn pooled_tail_is_not_the_average_of_per_stream_tails() {
        // Nine fast streams (all samples 10ms) and one slow stream (all
        // samples 1000ms), 20 samples each.
        let fast = vec![10u64; 20];
        let slow = vec![1000u64; 20];
        let streams: Vec<&[u64]> = vec![
            &fast, &fast, &fast, &fast, &fast, &fast, &fast, &fast, &fast, &slow,
        ];

        let averaged_p95 = streams
            .iter()
            .map(|s| nearest_rank(s, 0.95).unwrap())
            .sum::<u64>() as f64
            / streams.len() as f64;

        let mut pooled: Vec<u64> = streams.iter().flat_map(|s| s.iter().copied()).collect();
        pooled.sort_unstable();
        let pooled_p95 = nearest_rank(&pooled, 0.95).unwrap();

        // 10% of all queries took 1000ms, so the true pooled p95 IS 1000ms.
        assert_eq!(pooled_p95, 1000);
        // The per-stream average says ~109ms — off by 9×.
        assert!((averaged_p95 - 109.0).abs() < 1e-9);
        assert!(pooled_p95 as f64 > 5.0 * averaged_p95);
    }
}
