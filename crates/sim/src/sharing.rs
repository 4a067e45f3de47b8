//! Sharing-potential analysis (Figures 17 and 18 of the paper).
//!
//! "In a system loaded with concurrently working queries, at any moment in
//! time, one can count for each page how many active scans still want to
//! consume it. Thus, one can compute the volume of data that is needed at
//! some moment by only one scan, exactly two scans etc."
//!
//! The simulator samples this distribution at a fixed virtual-time interval;
//! the benchmark harness prints the same stacked series the paper plots.

use scanshare_common::hash::IdHashMap;
use scanshare_common::{PageId, VirtualInstant};

/// Overlap classes used by the paper's plots: data needed by exactly one
/// scan, two scans, three scans, or four and more scans.
pub const OVERLAP_CLASSES: usize = 4;

/// One sample of the sharing-potential distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SharingSample {
    /// Virtual time of the sample.
    pub time: VirtualInstant,
    /// Bytes needed by exactly 1, 2, 3 and >=4 active scans.
    pub bytes_by_overlap: [u64; OVERLAP_CLASSES],
}

impl SharingSample {
    /// Total outstanding bytes at this sample.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_by_overlap.iter().sum()
    }

    /// Bytes needed by at least `n` scans (`n` is 1-based).
    pub fn bytes_with_overlap_at_least(&self, n: usize) -> u64 {
        self.bytes_by_overlap[(n - 1).min(OVERLAP_CLASSES - 1)..]
            .iter()
            .sum()
    }
}

/// A time series of sharing samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SharingProfile {
    /// Samples in time order.
    pub samples: Vec<SharingSample>,
}

impl SharingProfile {
    /// Builds a sample from the outstanding pages of every active scan.
    ///
    /// `outstanding` yields, per active scan, the distinct pages it still has
    /// to consume.
    pub fn sample_from_outstanding<'a, I>(
        time: VirtualInstant,
        page_size: u64,
        outstanding: I,
    ) -> SharingSample
    where
        I: IntoIterator<Item = &'a Vec<PageId>>,
    {
        let mut counts: IdHashMap<PageId, u32> = IdHashMap::default();
        for pages in outstanding {
            for &page in pages {
                *counts.entry(page).or_insert(0) += 1;
            }
        }
        let mut bytes_by_overlap = [0u64; OVERLAP_CLASSES];
        for (_, count) in counts {
            let class = (count as usize).min(OVERLAP_CLASSES) - 1;
            bytes_by_overlap[class] += page_size;
        }
        SharingSample {
            time,
            bytes_by_overlap,
        }
    }

    /// Appends a sample.
    pub fn push(&mut self, sample: SharingSample) {
        self.samples.push(sample);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the profile has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Average (over samples) of the fraction of outstanding data that is
    /// wanted by at least two scans: a scalar summary of the reuse potential.
    pub fn avg_shared_fraction(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let fractions: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.total_bytes() > 0)
            .map(|s| s.bytes_with_overlap_at_least(2) as f64 / s.total_bytes() as f64)
            .collect();
        if fractions.is_empty() {
            0.0
        } else {
            fractions.iter().sum::<f64>() / fractions.len() as f64
        }
    }

    /// Peak of the total outstanding volume across samples, in bytes.
    pub fn peak_outstanding_bytes(&self) -> u64 {
        self.samples
            .iter()
            .map(SharingSample::total_bytes)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pages(ids: &[u64]) -> Vec<PageId> {
        ids.iter().map(|&i| PageId::new(i)).collect()
    }

    #[test]
    fn sample_classifies_pages_by_overlap() {
        let a = pages(&[1, 2, 3, 4]);
        let b = pages(&[3, 4, 5]);
        let c = pages(&[4, 5]);
        let d = pages(&[4]);
        let sample =
            SharingProfile::sample_from_outstanding(VirtualInstant::EPOCH, 1000, [&a, &b, &c, &d]);
        // Page 1,2 -> 1 scan; 3 -> 2 scans; 5 -> 2 scans; 4 -> 4 scans.
        assert_eq!(sample.bytes_by_overlap, [2000, 2000, 0, 1000]);
        assert_eq!(sample.total_bytes(), 5000);
        assert_eq!(sample.bytes_with_overlap_at_least(2), 3000);
        assert_eq!(sample.bytes_with_overlap_at_least(4), 1000);
    }

    #[test]
    fn overlap_beyond_four_lands_in_the_last_class() {
        let a = pages(&[7]);
        let outstanding: Vec<Vec<PageId>> = (0..10).map(|_| a.clone()).collect();
        let sample =
            SharingProfile::sample_from_outstanding(VirtualInstant::EPOCH, 512, outstanding.iter());
        assert_eq!(sample.bytes_by_overlap, [0, 0, 0, 512]);
    }

    #[test]
    fn profile_summaries() {
        let mut profile = SharingProfile::default();
        assert!(profile.is_empty());
        assert_eq!(profile.avg_shared_fraction(), 0.0);
        profile.push(SharingSample {
            time: VirtualInstant::EPOCH,
            bytes_by_overlap: [100, 100, 0, 0],
        });
        profile.push(SharingSample {
            time: VirtualInstant::from_nanos(1),
            bytes_by_overlap: [300, 0, 0, 100],
        });
        assert_eq!(profile.len(), 2);
        assert!((profile.avg_shared_fraction() - (0.5 + 0.25) / 2.0).abs() < 1e-12);
        assert_eq!(profile.peak_outstanding_bytes(), 400);
    }
}
