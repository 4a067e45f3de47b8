//! Buffer-manager statistics.

/// Counters maintained by the buffer pool (and by the ABM for Cooperative
/// Scans). `io_bytes` is the "total volume of performed I/O" reported in all
/// of the paper's figures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Page requests satisfied from the pool.
    pub hits: u64,
    /// Page requests that required a load.
    pub misses: u64,
    /// Pages evicted.
    pub evictions: u64,
    /// Pages loaded from the I/O subsystem.
    pub pages_loaded: u64,
    /// Bytes loaded from the I/O subsystem (demand misses *and* prefetches:
    /// the total performed I/O volume).
    pub io_bytes: u64,
    /// Pages loaded speculatively by the prefetcher (a subset of
    /// `pages_loaded`).
    pub prefetched_pages: u64,
    /// Bytes loaded speculatively by the prefetcher (a subset of
    /// `io_bytes`).
    pub prefetch_io_bytes: u64,
    /// Pages dropped by an explicit invalidation (a checkpoint replacing a
    /// table's stable image), **not** counted as evictions: the pages were
    /// not displaced by a replacement decision, their data simply ceased to
    /// exist in the live snapshot.
    pub invalidated_pages: u64,
    /// Tuples that scans skipped via zone-map pruning before registering: the
    /// backend never saw a page request, an ABM chunk interest or a PBM
    /// consumption prediction for them. Tuple-granular (not chunk-granular)
    /// because parallel query parts split ranges at arbitrary boundaries.
    /// The execution engine counts these (a backend's own statistics leave
    /// it 0).
    pub pruned_tuples: u64,
}

impl BufferStats {
    /// Hit ratio in `[0, 1]`; zero when nothing was requested.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// I/O volume in (decimal) megabytes.
    pub fn io_megabytes(&self) -> f64 {
        self.io_bytes as f64 / 1_000_000.0
    }

    /// What was counted after `earlier`, an earlier reading of the same
    /// counters.
    pub fn since(&self, earlier: &BufferStats) -> BufferStats {
        BufferStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            pages_loaded: self.pages_loaded - earlier.pages_loaded,
            io_bytes: self.io_bytes - earlier.io_bytes,
            prefetched_pages: self.prefetched_pages - earlier.prefetched_pages,
            prefetch_io_bytes: self.prefetch_io_bytes - earlier.prefetch_io_bytes,
            invalidated_pages: self.invalidated_pages - earlier.invalidated_pages,
            pruned_tuples: self.pruned_tuples - earlier.pruned_tuples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_ratio_handles_empty_and_counts() {
        let mut s = BufferStats::default();
        assert_eq!(s.hit_ratio(), 0.0);
        s.hits = 3;
        s.misses = 1;
        assert!((s.hit_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn since_subtracts_every_field() {
        let a = BufferStats {
            hits: 1,
            misses: 2,
            evictions: 3,
            pages_loaded: 4,
            io_bytes: 5,
            prefetched_pages: 6,
            prefetch_io_bytes: 7,
            invalidated_pages: 8,
            pruned_tuples: 9,
        };
        let b = BufferStats {
            hits: 11,
            misses: 22,
            evictions: 33,
            pages_loaded: 44,
            io_bytes: 55,
            prefetched_pages: 66,
            prefetch_io_bytes: 77,
            invalidated_pages: 88,
            pruned_tuples: 99,
        };
        let delta = b.since(&a);
        assert_eq!(
            delta,
            BufferStats {
                hits: 10,
                misses: 20,
                evictions: 30,
                pages_loaded: 40,
                io_bytes: 50,
                prefetched_pages: 60,
                prefetch_io_bytes: 70,
                invalidated_pages: 80,
                pruned_tuples: 90,
            }
        );
        assert_eq!(a.since(&a), BufferStats::default());
        assert!((a.io_megabytes() - 5e-6).abs() < 1e-15);
    }
}
