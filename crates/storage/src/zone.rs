//! Zone maps: per-chunk min/max summaries for data skipping.
//!
//! A [`ZoneMap`] records, for every column of a snapshot, the minimum and
//! maximum value of each *chunk* (the scan-sharing granularity of the
//! paper). A selective query intersects its predicate with the zone
//! metadata before the scan ever reaches the buffer-management backend:
//! chunks whose `[min, max]` interval cannot satisfy the predicate are
//! removed from the scan's SID ranges, so neither the page-level policies
//! (LRU/PBM) nor the Active Buffer Manager see them at all. That is what
//! wires skipping into the sharing machinery *for free* — a pruned chunk is
//! never registered, so ABM relevance and PBM consumption predictions only
//! count scans that still want the chunk.
//!
//! Zone entries are **conservative**: an entry may cover a wider interval
//! than the data (e.g. a pseudo-random column reports its generator span),
//! which can only cause a chunk to be kept, never wrongly skipped. Chunks
//! with no entry always survive.

use scanshare_common::{RangeList, TupleRange};

use crate::datagen::Value;

/// The `[min, max]` interval of one chunk of one column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZoneEntry {
    /// Smallest value in the chunk (inclusive, possibly conservative).
    pub min: Value,
    /// Largest value in the chunk (inclusive, possibly conservative).
    pub max: Value,
}

impl ZoneEntry {
    /// An entry covering exactly `value`.
    pub fn point(value: Value) -> Self {
        Self {
            min: value,
            max: value,
        }
    }

    /// The widest (never-prunes) entry.
    pub fn full() -> Self {
        Self {
            min: Value::MIN,
            max: Value::MAX,
        }
    }

    /// Widens the entry to cover `value`.
    pub fn widen(&mut self, value: Value) {
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merges two entries into one covering both.
    pub fn merge(&self, other: &ZoneEntry) -> ZoneEntry {
        ZoneEntry {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// The exact entry of a value slice (`None` for an empty slice).
    pub fn of_values(values: &[Value]) -> Option<ZoneEntry> {
        let (&first, rest) = values.split_first()?;
        let mut entry = ZoneEntry::point(first);
        for &v in rest {
            entry.widen(v);
        }
        Some(entry)
    }
}

/// Comparison operators of single-column predicates: what a zone map can
/// prune against, and (re-exported as `scanshare_exec::ops::CompareOp`) what
/// the executor filters rows by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZoneOp {
    /// `value < constant`
    Lt,
    /// `value <= constant`
    Le,
    /// `value > constant`
    Gt,
    /// `value >= constant`
    Ge,
    /// `value == constant`
    Eq,
}

/// A single-column comparison predicate in zone-map form. Unlike the
/// executor's `Predicate` (whose column index is positional within the
/// query's projection), `column` here is the **table** column index, so the
/// same value is meaningful to the storage layer, the execution engine and
/// the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZonePredicate {
    /// Table column index the predicate applies to.
    pub column: usize,
    /// Comparison operator.
    pub op: ZoneOp,
    /// Constant to compare against.
    pub value: Value,
}

impl ZonePredicate {
    /// Creates a predicate over table column `column`.
    pub fn new(column: usize, op: ZoneOp, value: Value) -> Self {
        Self { column, op, value }
    }

    /// Whether a chunk with interval `entry` can contain a matching value.
    pub fn may_match(&self, entry: &ZoneEntry) -> bool {
        match self.op {
            ZoneOp::Lt => entry.min < self.value,
            ZoneOp::Le => entry.min <= self.value,
            ZoneOp::Gt => entry.max > self.value,
            ZoneOp::Ge => entry.max >= self.value,
            ZoneOp::Eq => entry.min <= self.value && self.value <= entry.max,
        }
    }

    /// Whether one concrete value matches (used by tests to cross-check
    /// pruning against row-level evaluation).
    pub fn matches(&self, v: Value) -> bool {
        match self.op {
            ZoneOp::Lt => v < self.value,
            ZoneOp::Le => v <= self.value,
            ZoneOp::Gt => v > self.value,
            ZoneOp::Ge => v >= self.value,
            ZoneOp::Eq => v == self.value,
        }
    }
}

/// Per-chunk min/max metadata of one snapshot: `columns[col][chunk]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZoneMap {
    chunk_tuples: u64,
    columns: Vec<Vec<ZoneEntry>>,
}

impl ZoneMap {
    /// Builds a zone map directly from per-column entry vectors (all columns
    /// must agree on the chunk count).
    pub fn from_entries(chunk_tuples: u64, columns: Vec<Vec<ZoneEntry>>) -> Self {
        debug_assert!(chunk_tuples > 0);
        debug_assert!(columns.windows(2).all(|w| w[0].len() == w[1].len()));
        Self {
            chunk_tuples,
            columns,
        }
    }

    /// Builds the exact zone map of column-major `values` (one vector per
    /// column, equal lengths) — the checkpoint-install path, where the
    /// merged data is materialized anyway.
    pub fn from_values(chunk_tuples: u64, values: &[Vec<Value>]) -> Self {
        debug_assert!(chunk_tuples > 0);
        let columns = values
            .iter()
            .map(|col| {
                col.chunks(chunk_tuples as usize)
                    .map(|chunk| ZoneEntry::of_values(chunk).unwrap_or_else(ZoneEntry::full))
                    .collect()
            })
            .collect();
        Self {
            chunk_tuples,
            columns,
        }
    }

    /// Number of chunks covered (0 for an empty map).
    pub fn chunk_count(&self) -> usize {
        self.columns.first().map(Vec::len).unwrap_or(0)
    }

    /// The entry of `(col, chunk)`, if recorded.
    pub fn entry(&self, col: usize, chunk: usize) -> Option<ZoneEntry> {
        self.columns.get(col).and_then(|c| c.get(chunk)).copied()
    }

    /// The per-column entry vectors (for manifest serialization).
    pub fn entries(&self) -> &[Vec<ZoneEntry>] {
        &self.columns
    }

    /// Widens the entries covering the appended SID range
    /// `[old_tuples, old_tuples + rows)` with the appended values
    /// (column-major), growing the chunk vectors as needed — the bulk-append
    /// path, which extends the last partial chunk and adds fresh ones.
    pub fn widen_append(&mut self, old_tuples: u64, rows: &[Vec<Value>]) {
        for (col, values) in rows.iter().enumerate() {
            if col >= self.columns.len() {
                break;
            }
            for (i, &v) in values.iter().enumerate() {
                let chunk = ((old_tuples + i as u64) / self.chunk_tuples) as usize;
                let entries = &mut self.columns[col];
                while entries.len() <= chunk {
                    entries.push(ZoneEntry::point(v));
                }
                entries[chunk].widen(v);
            }
        }
    }

    /// Whether chunk `chunk` can contain a row matching `pred`. Chunks
    /// without an entry (or predicates on uncovered columns) always may.
    pub fn chunk_may_match(&self, pred: &ZonePredicate, chunk: usize) -> bool {
        match self.entry(pred.column, chunk) {
            Some(entry) => pred.may_match(&entry),
            None => true,
        }
    }

    /// The chunk-aligned SID ranges of `[0, stable)` that survive `pred`:
    /// the complement is what a scan can skip. Chunks beyond the map's
    /// coverage always survive.
    pub fn surviving_ranges(&self, pred: &ZonePredicate, stable: u64) -> RangeList {
        let mut out = RangeList::new();
        if stable == 0 {
            return out;
        }
        let chunks = stable.div_ceil(self.chunk_tuples);
        for chunk in 0..chunks {
            if self.chunk_may_match(pred, chunk as usize) {
                let start = chunk * self.chunk_tuples;
                let end = (start + self.chunk_tuples).min(stable);
                out.add(TupleRange::new(start, end));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> ZoneMap {
        // One column, 3 chunks of 10 tuples: [0,9], [10,19], [20,29].
        ZoneMap::from_entries(
            10,
            vec![vec![
                ZoneEntry { min: 0, max: 9 },
                ZoneEntry { min: 10, max: 19 },
                ZoneEntry { min: 20, max: 29 },
            ]],
        )
    }

    #[test]
    fn operators_prune_and_keep_correctly() {
        let m = map();
        let keep = |op, value| m.surviving_ranges(&ZonePredicate::new(0, op, value), 30);
        assert_eq!(keep(ZoneOp::Lt, 10).total_tuples(), 10);
        assert_eq!(keep(ZoneOp::Le, 10).total_tuples(), 20);
        assert_eq!(keep(ZoneOp::Gt, 19).total_tuples(), 10);
        assert_eq!(keep(ZoneOp::Ge, 19).total_tuples(), 20);
        assert_eq!(keep(ZoneOp::Eq, 15).total_tuples(), 10);
        assert_eq!(keep(ZoneOp::Eq, 95).total_tuples(), 0);
        assert_eq!(keep(ZoneOp::Ge, -100).total_tuples(), 30);
    }

    #[test]
    fn surviving_ranges_are_chunk_aligned_and_clamped() {
        let m = map();
        // stable smaller than coverage: last chunk is clamped.
        let survivors = m.surviving_ranges(&ZonePredicate::new(0, ZoneOp::Ge, 20), 25);
        assert_eq!(survivors.ranges(), &[TupleRange::new(20, 25)]);
        // stable larger than coverage: uncovered chunks always survive.
        let survivors = m.surviving_ranges(&ZonePredicate::new(0, ZoneOp::Lt, 0), 45);
        assert_eq!(survivors.ranges(), &[TupleRange::new(30, 45)]);
    }

    #[test]
    fn uncovered_columns_never_prune() {
        let m = map();
        let survivors = m.surviving_ranges(&ZonePredicate::new(7, ZoneOp::Eq, -1), 30);
        assert_eq!(survivors.total_tuples(), 30);
    }

    #[test]
    fn from_values_is_exact() {
        let m = ZoneMap::from_values(3, &[vec![5, 1, 9, 2, 2, 2, 7]]);
        assert_eq!(m.chunk_count(), 3);
        assert_eq!(m.entry(0, 0), Some(ZoneEntry { min: 1, max: 9 }));
        assert_eq!(m.entry(0, 1), Some(ZoneEntry { min: 2, max: 2 }));
        assert_eq!(m.entry(0, 2), Some(ZoneEntry { min: 7, max: 7 }));
    }

    #[test]
    fn widen_append_extends_partial_and_new_chunks() {
        let mut m = ZoneMap::from_values(4, &[vec![1, 2, 3]]);
        assert_eq!(m.chunk_count(), 1);
        m.widen_append(3, &[vec![100, -5, 8, 9, 10]]);
        // Chunk 0 absorbed sid 3 (value 100); chunk 1 holds sids 4..8.
        assert_eq!(m.entry(0, 0), Some(ZoneEntry { min: 1, max: 100 }));
        assert_eq!(m.entry(0, 1), Some(ZoneEntry { min: -5, max: 10 }));
    }

    #[test]
    fn entry_merge_and_point_cover_both_sides() {
        let a = ZoneEntry::point(3);
        let b = ZoneEntry { min: -1, max: 2 };
        assert_eq!(a.merge(&b), ZoneEntry { min: -1, max: 3 });
        assert_eq!(ZoneEntry::of_values(&[]), None);
        assert!(ZoneEntry::full().min < ZoneEntry::full().max);
    }

    #[test]
    fn pruning_never_drops_a_matching_row() {
        // Cross-check surviving_ranges against row-level evaluation for a
        // deterministic pseudo-random column.
        let values: Vec<Value> = (0..200u64)
            .map(|sid| (crate::datagen::splitmix64(sid) % 50) as i64)
            .collect();
        let m = ZoneMap::from_values(16, std::slice::from_ref(&values));
        for (op, value) in [
            (ZoneOp::Lt, 5),
            (ZoneOp::Le, 0),
            (ZoneOp::Gt, 45),
            (ZoneOp::Ge, 49),
            (ZoneOp::Eq, 13),
        ] {
            let pred = ZonePredicate::new(0, op, value);
            let survivors = m.surviving_ranges(&pred, 200);
            for (sid, &v) in values.iter().enumerate() {
                if pred.matches(v) {
                    assert!(
                        survivors.contains(sid as u64),
                        "{pred:?} pruned matching sid {sid} (value {v})"
                    );
                }
            }
        }
    }
}
