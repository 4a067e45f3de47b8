//! Half-open tuple ranges and normalized range lists.
//!
//! Scans in the paper are *range scans*: a query registers the list of tuple
//! ranges it is going to read (either in RID space, at the query plan level,
//! or in SID space, at the storage level). [`TupleRange`] is a half-open
//! `[start, end)` interval over raw `u64` positions and [`RangeList`] is a
//! normalized (sorted, non-overlapping, non-adjacent) list of such ranges.
//!
//! [`TupleRange::split_even`] implements Equation (1) of the paper: the
//! static partitioning of a scanned range over `n` parallel threads.

use std::fmt;

/// A half-open interval `[start, end)` of tuple positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleRange {
    /// Inclusive start position.
    pub start: u64,
    /// Exclusive end position.
    pub end: u64,
}

impl TupleRange {
    /// Creates a new range. `start > end` is normalized to an empty range at
    /// `start`.
    pub fn new(start: u64, end: u64) -> Self {
        if end < start {
            Self { start, end: start }
        } else {
            Self { start, end }
        }
    }

    /// A range covering `[0, len)`.
    pub fn from_len(len: u64) -> Self {
        Self::new(0, len)
    }

    /// Number of tuples in the range.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Whether the range contains no tuples.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// Whether `pos` falls inside the range.
    pub fn contains(&self, pos: u64) -> bool {
        pos >= self.start && pos < self.end
    }

    /// Whether `other` is fully contained in `self`.
    pub fn contains_range(&self, other: &TupleRange) -> bool {
        other.is_empty() || (other.start >= self.start && other.end <= self.end)
    }

    /// Intersection of two ranges (possibly empty).
    pub fn intersect(&self, other: &TupleRange) -> TupleRange {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        TupleRange::new(start, end.max(start))
    }

    /// Whether the two ranges are adjacent or overlapping (i.e. their union
    /// is a single range).
    pub fn touches(&self, other: &TupleRange) -> bool {
        self.start <= other.end && other.start <= self.end
    }

    /// Splits the range into `n` near-equal contiguous sub-ranges following
    /// Equation (1) of the paper:
    ///
    /// `range [a..b)` becomes `range [a + (b-a)*i/n .. a + (b-a)*(i+1)/n)` for
    /// `i` in `0..n`.
    ///
    /// All sub-ranges are returned, including empty ones when `n > len`.
    pub fn split_even(&self, n: usize) -> Vec<TupleRange> {
        assert!(n > 0, "split_even requires at least one partition");
        let a = self.start;
        let len = self.len();
        (0..n as u64)
            .map(|i| {
                let lo = a + len * i / n as u64;
                let hi = a + len * (i + 1) / n as u64;
                TupleRange::new(lo, hi)
            })
            .collect()
    }
}

impl fmt::Display for TupleRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// A normalized list of tuple ranges: sorted by start, non-overlapping and
/// non-adjacent (touching ranges are coalesced).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RangeList {
    ranges: Vec<TupleRange>,
}

impl RangeList {
    /// An empty range list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a normalized list from arbitrary ranges.
    pub fn from_ranges<I: IntoIterator<Item = TupleRange>>(ranges: I) -> Self {
        let mut list = Self::new();
        for r in ranges {
            list.add(r);
        }
        list
    }

    /// A list containing the single range `[start, end)`.
    pub fn single(start: u64, end: u64) -> Self {
        Self::from_ranges([TupleRange::new(start, end)])
    }

    /// Adds a range, keeping the list normalized.
    pub fn add(&mut self, range: TupleRange) {
        if range.is_empty() {
            return;
        }
        // Find insertion window of all ranges that touch the new one.
        let mut merged = range;
        let mut out = Vec::with_capacity(self.ranges.len() + 1);
        let mut inserted = false;
        for r in &self.ranges {
            if r.touches(&merged) {
                merged = TupleRange::new(merged.start.min(r.start), merged.end.max(r.end));
            } else if r.end < merged.start {
                out.push(*r);
            } else {
                if !inserted {
                    out.push(merged);
                    inserted = true;
                }
                out.push(*r);
            }
        }
        if !inserted {
            out.push(merged);
        }
        self.ranges = out;
    }

    /// Whether the list contains no tuples.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Total number of tuples covered.
    pub fn total_tuples(&self) -> u64 {
        self.ranges.iter().map(TupleRange::len).sum()
    }

    /// The ranges, sorted and non-overlapping.
    pub fn ranges(&self) -> &[TupleRange] {
        &self.ranges
    }

    /// Whether `pos` falls in any range of the list.
    pub fn contains(&self, pos: u64) -> bool {
        // Binary search on the start positions.
        self.ranges
            .binary_search_by(|r| {
                use std::cmp::Ordering;
                if pos < r.start {
                    Ordering::Greater
                } else if pos >= r.end {
                    Ordering::Less
                } else {
                    Ordering::Equal
                }
            })
            .is_ok()
    }

    /// Intersects the list with a single range.
    pub fn intersect_range(&self, range: &TupleRange) -> RangeList {
        RangeList {
            ranges: self
                .ranges
                .iter()
                .map(|r| r.intersect(range))
                .filter(|r| !r.is_empty())
                .collect(),
        }
    }

    /// Intersects two range lists.
    pub fn intersect(&self, other: &RangeList) -> RangeList {
        let mut out = RangeList::new();
        for r in &other.ranges {
            for i in self.intersect_range(r).ranges {
                out.add(i);
            }
        }
        out
    }

    /// Union of two range lists.
    pub fn union(&self, other: &RangeList) -> RangeList {
        let mut out = self.clone();
        for r in &other.ranges {
            out.add(*r);
        }
        out
    }

    /// Removes every position covered by `other`, returning the remainder.
    /// Used to trim chunk-derived RID ranges against the rows a CScan has
    /// already produced (Section 2.1 of the paper).
    pub fn subtract(&self, other: &RangeList) -> RangeList {
        let mut out = RangeList::new();
        for r in &self.ranges {
            let mut start = r.start;
            for cut in &other.ranges {
                if cut.end <= start {
                    continue;
                }
                if cut.start >= r.end {
                    break;
                }
                if cut.start > start {
                    out.add(TupleRange::new(start, cut.start.min(r.end)));
                }
                start = start.max(cut.end);
                if start >= r.end {
                    break;
                }
            }
            if start < r.end {
                out.add(TupleRange::new(start, r.end));
            }
        }
        out
    }

    /// Splits the covered tuples into `n` partitions of contiguous work,
    /// applying Equation (1) *per range* (this mirrors how Vectorwise splits
    /// the RID ranges handed to each parallel scan).
    pub fn split_even(&self, n: usize) -> Vec<RangeList> {
        assert!(n > 0);
        let mut parts = vec![RangeList::new(); n];
        for r in &self.ranges {
            for (i, sub) in r.split_even(n).into_iter().enumerate() {
                parts[i].add(sub);
            }
        }
        parts
    }
}

impl fmt::Display for RangeList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, r) in self.ranges.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<TupleRange> for RangeList {
    fn from_iter<T: IntoIterator<Item = TupleRange>>(iter: T) -> Self {
        Self::from_ranges(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_len() {
        assert!(TupleRange::new(5, 5).is_empty());
        assert!(TupleRange::new(7, 3).is_empty());
        assert_eq!(TupleRange::new(2, 10).len(), 8);
    }

    #[test]
    fn contains_and_intersect() {
        let r = TupleRange::new(10, 20);
        assert!(r.contains(10));
        assert!(!r.contains(20));
        assert_eq!(
            r.intersect(&TupleRange::new(15, 30)),
            TupleRange::new(15, 20)
        );
        assert!(r.intersect(&TupleRange::new(20, 30)).is_empty());
    }

    #[test]
    fn split_even_matches_equation_1() {
        // range [0, 1000) over 2 threads -> [0,500) and [500,1000)
        let parts = TupleRange::new(0, 1000).split_even(2);
        assert_eq!(
            parts,
            vec![TupleRange::new(0, 500), TupleRange::new(500, 1000)]
        );

        // Uneven split keeps full coverage without overlap.
        let parts = TupleRange::new(0, 10).split_even(3);
        assert_eq!(parts.iter().map(TupleRange::len).sum::<u64>(), 10);
        for w in parts.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn split_even_with_more_parts_than_tuples() {
        let parts = TupleRange::new(0, 2).split_even(4);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts.iter().map(TupleRange::len).sum::<u64>(), 2);
    }

    #[test]
    #[should_panic]
    fn split_even_zero_parts_panics() {
        let _ = TupleRange::new(0, 10).split_even(0);
    }

    #[test]
    fn range_list_normalizes_overlaps_and_adjacency() {
        let list = RangeList::from_ranges([
            TupleRange::new(10, 20),
            TupleRange::new(0, 5),
            TupleRange::new(5, 10),
            TupleRange::new(18, 25),
        ]);
        assert_eq!(list.ranges(), &[TupleRange::new(0, 25)]);
        assert_eq!(list.total_tuples(), 25);
    }

    #[test]
    fn range_list_keeps_disjoint_ranges() {
        let list = RangeList::from_ranges([TupleRange::new(0, 5), TupleRange::new(10, 15)]);
        assert_eq!(list.ranges().len(), 2);
        assert!(list.contains(3));
        assert!(!list.contains(7));
        assert!(list.contains(14));
        assert!(!list.contains(15));
    }

    #[test]
    fn range_list_ignores_empty_ranges() {
        let mut list = RangeList::new();
        list.add(TupleRange::new(5, 5));
        assert!(list.is_empty());
    }

    #[test]
    fn intersect_and_union() {
        let a = RangeList::from_ranges([TupleRange::new(0, 10), TupleRange::new(20, 30)]);
        let b = RangeList::single(5, 25);
        let i = a.intersect(&b);
        assert_eq!(
            i.ranges(),
            &[TupleRange::new(5, 10), TupleRange::new(20, 25)]
        );
        let u = a.union(&b);
        assert_eq!(u.ranges(), &[TupleRange::new(0, 30)]);
    }

    #[test]
    fn subtract_removes_covered_positions() {
        let a = RangeList::single(0, 100);
        let b = RangeList::from_ranges([TupleRange::new(10, 20), TupleRange::new(50, 60)]);
        let d = a.subtract(&b);
        assert_eq!(
            d.ranges(),
            &[
                TupleRange::new(0, 10),
                TupleRange::new(20, 50),
                TupleRange::new(60, 100)
            ]
        );
        // Subtracting a superset leaves nothing.
        assert!(b.subtract(&a).is_empty());
        // Subtracting something disjoint leaves the original.
        assert_eq!(a.subtract(&RangeList::single(200, 300)), a);
        // Subtracting an empty list is the identity.
        assert_eq!(a.subtract(&RangeList::new()), a);
        // Partial overlap at both ends.
        let c = RangeList::single(40, 80);
        let d = c.subtract(&RangeList::from_ranges([
            TupleRange::new(0, 45),
            TupleRange::new(70, 200),
        ]));
        assert_eq!(d.ranges(), &[TupleRange::new(45, 70)]);
    }

    #[test]
    fn subtract_then_union_restores_whole_when_disjoint_parts() {
        let whole = RangeList::single(0, 1000);
        let part = RangeList::from_ranges([TupleRange::new(100, 300), TupleRange::new(700, 900)]);
        let rest = whole.subtract(&part);
        assert_eq!(rest.total_tuples() + part.total_tuples(), 1000);
        assert_eq!(rest.union(&part), whole);
        assert!(rest.intersect(&part).is_empty());
    }

    #[test]
    fn split_even_list_partitions_each_range() {
        let list = RangeList::from_ranges([TupleRange::new(0, 100), TupleRange::new(200, 300)]);
        let parts = list.split_even(2);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].total_tuples(), 100);
        assert_eq!(parts[1].total_tuples(), 100);
        assert!(parts[0].contains(0));
        assert!(parts[0].contains(249));
        assert!(parts[1].contains(50));
        assert!(parts[1].contains(299));
    }

    #[test]
    fn display_formats() {
        assert_eq!(TupleRange::new(1, 4).to_string(), "[1, 4)");
        assert_eq!(RangeList::single(1, 4).to_string(), "{[1, 4)}");
    }
}
