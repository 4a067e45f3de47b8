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

    /// Merges another stats snapshot into this one.
    pub fn merge(&mut self, other: &BufferStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.pages_loaded += other.pages_loaded;
        self.io_bytes += other.io_bytes;
        self.prefetched_pages += other.prefetched_pages;
        self.prefetch_io_bytes += other.prefetch_io_bytes;
        self.invalidated_pages += other.invalidated_pages;
        self.pruned_tuples += other.pruned_tuples;
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
    fn merge_accumulates_all_fields() {
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
        let mut b = a;
        b.merge(&a);
        assert_eq!(b.hits, 2);
        assert_eq!(b.misses, 4);
        assert_eq!(b.evictions, 6);
        assert_eq!(b.pages_loaded, 8);
        assert_eq!(b.io_bytes, 10);
        assert_eq!(b.prefetched_pages, 12);
        assert_eq!(b.prefetch_io_bytes, 14);
        assert_eq!(b.invalidated_pages, 16);
        assert_eq!(b.pruned_tuples, 18);
        assert!((a.io_megabytes() - 5e-6).abs() < 1e-15);
    }
}
