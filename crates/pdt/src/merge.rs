//! PDT merging: applying differential updates to a stable tuple stream.
//!
//! Every scan (classical `Scan` or `CScan`) reads *stale* columnar data and
//! merges the PDT on the fly so that its output corresponds to the latest
//! visible database state. The merge is positional and **run-based**: the
//! PDT's anchors cut the stable image into maximal untouched runs, and
//! between two anchors the visible stream *is* the stable image. A run goes
//! from the [`StableSource`] to the output columns in one
//! [`StableSource::fill`] call (a slice copy, or a generator run straight
//! into the output); only inserted rows are copied one row at a time. A
//! deleted stable tuple ends a run, a modified one starts the next run and
//! has its cells patched in, and an empty PDT never sees a row.
//!
//! Out-of-order chunk delivery (Cooperative Scans) means the merge must be
//! **re-initializable at an arbitrary position**: whenever a new chunk
//! arrives, the proper starting position inside the PDT has to be found
//! again. [`MergeCursor::seek`] does exactly that, once per delivered range;
//! the cursor then carries its position across the batches of that range.
//!
//! [`merge_range`] is the row-at-a-time walk of the whole visible stream,
//! kept as the oracle the tests compare the columnar merge against.

use scanshare_common::{Result, Rid, TupleRange};
use scanshare_storage::datagen::Value;

use crate::pdt::Pdt;

/// A source of stable (on-disk, pre-update) tuple values.
pub trait StableSource {
    /// Number of stable tuples available.
    fn stable_tuples(&self) -> u64;
    /// Appends the stable tuples `sids`, column `columns[i]` to `out[i]`
    /// for every `i`. On an error the output columns are left in an
    /// unspecified (possibly ragged) state.
    fn fill(&mut self, columns: &[usize], sids: TupleRange, out: &mut [Vec<Value>]) -> Result<()>;
}

impl<S: StableSource + ?Sized> StableSource for &mut S {
    fn stable_tuples(&self) -> u64 {
        (**self).stable_tuples()
    }
    fn fill(&mut self, columns: &[usize], sids: TupleRange, out: &mut [Vec<Value>]) -> Result<()> {
        (**self).fill(columns, sids, out)
    }
}

/// A [`StableSource`] backed by in-memory column slices (column-major).
#[derive(Debug, Clone)]
pub struct SliceSource {
    columns: Vec<Vec<Value>>,
}

impl SliceSource {
    /// Creates a source from column-major data. All columns must have equal
    /// length.
    pub fn new(columns: Vec<Vec<Value>>) -> Self {
        if let Some(first) = columns.first() {
            assert!(
                columns.iter().all(|c| c.len() == first.len()),
                "column lengths must match"
            );
        }
        Self { columns }
    }

    /// Builds a source with `columns` generated as `f(col, sid)`.
    pub fn generate(column_count: usize, tuples: u64, f: impl Fn(usize, u64) -> Value) -> Self {
        Self::new(
            (0..column_count)
                .map(|c| (0..tuples).map(|s| f(c, s)).collect())
                .collect(),
        )
    }
}

impl StableSource for SliceSource {
    fn stable_tuples(&self) -> u64 {
        self.columns.first().map(|c| c.len() as u64).unwrap_or(0)
    }

    fn fill(&mut self, columns: &[usize], sids: TupleRange, out: &mut [Vec<Value>]) -> Result<()> {
        for (&col, out) in columns.iter().zip(out) {
            out.extend_from_slice(&self.columns[col][sids.start as usize..sids.end as usize]);
        }
        Ok(())
    }
}

/// The position of a columnar merge inside one RID range: where in the PDT
/// and the stable image the next visible row comes from. Seeking costs a
/// positional translation; advancing ([`MergeCursor::merge`]) costs one
/// ordered walk of the PDT's nodes per call, so a scan seeks once per
/// delivered range and carries the cursor across its batches.
#[derive(Debug, Clone, Copy)]
pub struct MergeCursor {
    next_rid: u64,
    end_rid: u64,
    /// The anchor position the next row belongs to.
    sid: u64,
    /// How many rows anchored at `sid` are already produced: below the
    /// position's insert count the next row is that insert, at it the next
    /// row is stable tuple `sid` itself.
    offset: usize,
}

impl MergeCursor {
    /// Positions a cursor at the start of `rid_range` (clamped to the
    /// visible rows). This is what a CScan does whenever ABM delivers the
    /// next (out-of-order) chunk.
    pub fn seek(pdt: &Pdt, stable_tuples: u64, rid_range: TupleRange) -> Self {
        let visible = pdt.visible_count(stable_tuples);
        let clamped = rid_range.intersect(&TupleRange::new(0, visible));
        let (sid, offset) = if clamped.start >= visible {
            (stable_tuples, pdt.node_inserts(stable_tuples))
        } else {
            pdt.locate(Rid::new(clamped.start), stable_tuples)
        };
        Self {
            next_rid: clamped.start,
            end_rid: clamped.end,
            sid,
            offset,
        }
    }

    /// The RID the next produced row will have.
    pub fn position(&self) -> Rid {
        Rid::new(self.next_rid)
    }

    /// Rows of the range not produced yet.
    pub fn remaining(&self) -> u64 {
        self.end_rid - self.next_rid
    }

    /// Whether the cursor has produced every row of its range.
    pub fn is_exhausted(&self) -> bool {
        self.next_rid >= self.end_rid
    }

    /// Appends up to `limit` of the remaining visible rows, projected on
    /// `columns`, to `out` (one vector per projected column) and returns how
    /// many. A call walks the PDT's nodes from the cursor on with one
    /// ordered iterator. Each untouched run of the stable image is one
    /// source fill, in ascending SID order; a surviving anchored tuple
    /// starts the run after it, and its modified cells are patched into
    /// the output afterwards. So a call costs at most one fill per anchor it
    /// passes, plus one. On an error `out` may be ragged and the cursor is
    /// mid-batch: restore a copy taken before the call to retry.
    pub fn merge<S: StableSource + ?Sized>(
        &mut self,
        pdt: &Pdt,
        source: &mut S,
        columns: &[usize],
        limit: u64,
        out: &mut [Vec<Value>],
    ) -> Result<u64> {
        debug_assert_eq!(columns.len(), out.len());
        let stable = source.stable_tuples();
        let wanted = limit.min(self.remaining());
        let mut left = wanted;
        let mut nodes = pdt.nodes_from(self.sid).peekable();
        while left > 0 {
            // The anchor at the cursor, if any: its rows inserted before the
            // stable tuple, then the tuple itself unless deleted.
            let mut patch = None;
            if let Some(&(_, node)) = nodes.peek().filter(|&&(anchor, _)| anchor == self.sid) {
                while self.offset < node.inserts.len() && left > 0 {
                    let row = &node.inserts[self.offset];
                    for (out, &col) in out.iter_mut().zip(columns) {
                        out.push(row[col]);
                    }
                    self.offset += 1;
                    left -= 1;
                }
                if left == 0 {
                    break;
                }
                nodes.next();
                self.offset = 0;
                if node.deleted || self.sid >= stable {
                    self.sid += 1;
                    continue;
                }
                patch = Some(&node.modifies);
            }
            // An untouched run up to the next anchor, starting with the
            // surviving anchored tuple when there is one.
            let run_end = nodes
                .peek()
                .map_or(stable, |&(anchor, _)| anchor.min(stable));
            if run_end <= self.sid {
                // Past the stable image with no insert left: cannot happen
                // for a clamped range, but never spin.
                self.end_rid = self.next_rid + (wanted - left);
                break;
            }
            let run = TupleRange::new(self.sid, run_end.min(self.sid + left));
            source.fill(columns, run, out)?;
            if let Some(modifies) = patch {
                for (out, col) in out.iter_mut().zip(columns) {
                    if let Some(&value) = modifies.get(col) {
                        let at = out.len() - run.len() as usize;
                        out[at] = value;
                    }
                }
            }
            self.sid = run.end;
            left -= run.len();
        }
        let produced = wanted - left;
        self.next_rid += produced;
        Ok(produced)
    }
}

/// Merges `pdt` over `source` for `rid_range`, projecting `columns`, into
/// one vector per projected column.
pub fn merge_columns<S: StableSource + ?Sized>(
    pdt: &Pdt,
    source: &mut S,
    columns: &[usize],
    rid_range: TupleRange,
) -> Result<Vec<Vec<Value>>> {
    let mut cursor = MergeCursor::seek(pdt, source.stable_tuples(), rid_range);
    let mut out: Vec<Vec<Value>> = (0..columns.len())
        .map(|_| Vec::with_capacity(cursor.remaining() as usize))
        .collect();
    cursor.merge(pdt, source, columns, u64::MAX, &mut out)?;
    Ok(out)
}

/// The test oracle of the columnar merge: walks the whole visible stream of
/// `pdt` over `source` one row at a time — every anchor position's inserts,
/// then its stable tuple unless deleted, with modifies applied — and returns
/// the rows whose position falls in `rid_range`, projected on `columns`.
/// Deliberately shares neither the seek nor the run logic of
/// [`MergeCursor`].
///
/// # Panics
/// Panics when the source fails; oracle sources are in-memory.
pub fn merge_range<S: StableSource>(
    pdt: &Pdt,
    mut source: S,
    columns: &[usize],
    rid_range: TupleRange,
) -> Vec<Vec<Value>> {
    let stable = source.stable_tuples();
    let mut rows = Vec::new();
    let mut rid = 0;
    for sid in 0..=stable {
        for i in 0..pdt.node_inserts(sid) {
            if rid_range.contains(rid) {
                let row = pdt.node_insert_row(sid, i).expect("i < inserts");
                rows.push(columns.iter().map(|&c| row[c]).collect());
            }
            rid += 1;
        }
        if sid < stable && !pdt.node_deleted(sid) {
            if rid_range.contains(rid) {
                let mut row = vec![Vec::new(); columns.len()];
                source
                    .fill(columns, TupleRange::new(sid, sid + 1), &mut row)
                    .expect("oracle sources do not fail");
                rows.push(
                    columns
                        .iter()
                        .zip(row)
                        .map(|(&c, stable)| pdt.node_modify(sid, c).unwrap_or(stable[0]))
                        .collect(),
                );
            }
            rid += 1;
        }
    }
    rows
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use scanshare_common::Sid;

    fn source(n: u64) -> SliceSource {
        SliceSource::generate(2, n, |c, s| (s * 10 + c as u64) as Value)
    }

    pub(crate) fn to_rows(columns: &[Vec<Value>]) -> Vec<Vec<Value>> {
        (0..columns.first().map_or(0, Vec::len))
            .map(|r| columns.iter().map(|c| c[r]).collect())
            .collect()
    }

    /// The columnar merge of `range` over `source(n)`, as rows, checked
    /// against the oracle.
    fn merged(pdt: &Pdt, n: u64, columns: &[usize], range: TupleRange) -> Vec<Vec<Value>> {
        let rows = to_rows(&merge_columns(pdt, &mut source(n), columns, range).unwrap());
        assert_eq!(rows, merge_range(pdt, source(n), columns, range));
        rows
    }

    #[test]
    fn identity_merge_returns_stable_rows() {
        let pdt = Pdt::new(2);
        let rows = merged(&pdt, 5, &[0, 1], TupleRange::new(0, 5));
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[3], vec![30, 31]);
    }

    #[test]
    fn projection_selects_columns_in_order() {
        let pdt = Pdt::new(2);
        let rows = merged(&pdt, 3, &[1], TupleRange::new(1, 3));
        assert_eq!(rows, vec![vec![11], vec![21]]);
        let rows = merged(&pdt, 3, &[1, 0], TupleRange::new(0, 1));
        assert_eq!(rows, vec![vec![1, 0]]);
    }

    #[test]
    fn merge_applies_inserts_deletes_modifies() {
        let n = 6;
        let mut pdt = Pdt::new(2);
        pdt.delete(Rid::new(0), n).unwrap();
        pdt.insert(Rid::new(2), vec![-1, -2], n).unwrap();
        pdt.modify(Rid::new(0), 1, 999, n).unwrap();
        // Visible stream: [10,999], [20,21], [-1,-2], [30,31], [40,41], [50,51]
        let rows = merged(&pdt, n, &[0, 1], TupleRange::new(0, 6));
        assert_eq!(
            rows,
            vec![
                vec![10, 999],
                vec![20, 21],
                vec![-1, -2],
                vec![30, 31],
                vec![40, 41],
                vec![50, 51]
            ]
        );
    }

    #[test]
    fn range_is_clamped_to_visible_count() {
        let mut pdt = Pdt::new(2);
        pdt.delete(Rid::new(0), 4).unwrap();
        let rows = merged(&pdt, 4, &[0], TupleRange::new(0, 100));
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn partial_ranges_match_full_merge() {
        let n = 20;
        let mut pdt = Pdt::new(2);
        for i in 0..5 {
            pdt.insert(Rid::new(i * 3), vec![-(i as Value), 0], n)
                .unwrap();
        }
        pdt.delete(Rid::new(10), n).unwrap();
        pdt.modify(Rid::new(7), 0, 777, n).unwrap();

        let full = merged(&pdt, n, &[0, 1], TupleRange::new(0, 100));
        let visible = pdt.visible_count(n);
        assert_eq!(full.len() as u64, visible);

        // Any split into sub-ranges must reproduce the same stream.
        for split in 1..visible {
            let mut parts = merged(&pdt, n, &[0, 1], TupleRange::new(0, split));
            parts.extend(merged(&pdt, n, &[0, 1], TupleRange::new(split, visible)));
            assert_eq!(parts, full, "split at {split}");
        }
    }

    #[test]
    fn cursor_can_be_reused_across_chunks_out_of_order() {
        let n = 12;
        let mut pdt = Pdt::new(2);
        pdt.insert(Rid::new(4), vec![100, 200], n).unwrap();
        pdt.delete(Rid::new(9), n).unwrap();
        let full = merged(&pdt, n, &[0], TupleRange::new(0, 12));

        // Deliver "chunks" out of order — [8,12), [0,4), [4,8) — into one
        // source, re-seeking per chunk.
        let mut source = source(n);
        let mut chunk = |range| to_rows(&merge_columns(&pdt, &mut source, &[0], range).unwrap());
        let mut c3 = chunk(TupleRange::new(8, 12));
        let c1 = chunk(TupleRange::new(0, 4));
        let c2 = chunk(TupleRange::new(4, 8));

        let mut reassembled = c1;
        reassembled.extend(c2);
        reassembled.append(&mut c3);
        assert_eq!(reassembled, full);
    }

    #[test]
    fn seek_tracks_position() {
        let n = 5;
        let mut pdt = Pdt::new(2);
        pdt.insert(Rid::new(1), vec![-1, -2], n).unwrap();
        let mut source = source(n);
        let mut cursor = MergeCursor::seek(&pdt, n, TupleRange::new(0, 6));
        let mut out = vec![Vec::new()];
        assert_eq!(cursor.position(), Rid::new(0));
        // One row at a time: every batch boundary falls somewhere else.
        let mut step = |cursor: &mut MergeCursor, out: &mut [Vec<Value>]| {
            cursor.merge(&pdt, &mut source, &[0], 1, out).unwrap()
        };
        assert_eq!(step(&mut cursor, &mut out), 1);
        assert_eq!(cursor.position(), Rid::new(1));
        assert_eq!(cursor.remaining(), 5);
        assert!(!cursor.is_exhausted());
        while !cursor.is_exhausted() {
            assert_eq!(step(&mut cursor, &mut out), 1);
        }
        assert_eq!(step(&mut cursor, &mut out), 0);
        assert_eq!(out[0], vec![0, -1, 10, 20, 30, 40]);
    }

    #[test]
    fn translation_and_merge_are_consistent_for_chunk_boundaries() {
        // Mimic what a CScan does: translate a SID chunk boundary to a RID
        // range (low/high) and merge that range.
        let n = 30;
        let mut pdt = Pdt::new(2);
        for i in 0..6 {
            pdt.insert(Rid::new(i * 4 + 1), vec![1000 + i as Value, 0], n)
                .unwrap();
        }
        for _ in 0..3 {
            pdt.delete(Rid::new(12), n).unwrap();
        }
        let chunk = TupleRange::new(10, 20); // SID space
        let lo = pdt.sid_to_rid_low(Sid::new(chunk.start)).raw();
        let hi = pdt.sid_to_rid_high(Sid::new(chunk.end - 1)).raw() + 1;
        let rows = merged(&pdt, n, &[0], TupleRange::new(lo, hi));
        // The produced rows must be exactly the slice [lo, hi) of the full
        // visible stream.
        let full = merged(&pdt, n, &[0], TupleRange::new(0, 100));
        assert_eq!(rows.as_slice(), &full[lo as usize..hi as usize]);
    }

    /// A [`SliceSource`] that counts its `fill` calls.
    struct CountingSource {
        inner: SliceSource,
        fills: usize,
    }

    impl StableSource for CountingSource {
        fn stable_tuples(&self) -> u64 {
            self.inner.stable_tuples()
        }
        fn fill(
            &mut self,
            columns: &[usize],
            sids: TupleRange,
            out: &mut [Vec<Value>],
        ) -> Result<()> {
            self.fills += 1;
            self.inner.fill(columns, sids, out)
        }
    }

    #[test]
    fn merge_equals_its_oracle_at_every_batch_boundary() {
        use scanshare_storage::datagen::splitmix64;
        let n = 60;
        let three = |n| SliceSource::generate(3, n, |c, s| (s * 10 + c as u64) as Value);
        let projections: [&[usize]; 4] = [&[0, 1, 2], &[2, 0], &[1, 1, 2], &[2]];
        for seed in 0..6u64 {
            let mut rng = splitmix64(0x3e7c_e000 + seed);
            let mut next = |bound: u64| {
                rng = splitmix64(rng);
                rng % bound.max(1)
            };
            let mut pdt = Pdt::new(3);
            // A stable tuple modified in two columns right before a deleted
            // one, an inserted row modified in place, inserts at the end.
            pdt.modify(Rid::new(5), 0, -50, n).unwrap();
            pdt.modify(Rid::new(5), 2, -52, n).unwrap();
            pdt.delete(Rid::new(6), n).unwrap();
            pdt.insert(Rid::new(10), vec![-1, -2, -3], n).unwrap();
            pdt.modify(Rid::new(10), 1, -20, n).unwrap();
            for _ in 0..2 {
                let end = pdt.visible_count(n);
                pdt.insert(Rid::new(end), vec![-7, -8, -9], n).unwrap();
            }
            for step in 0..40 {
                let visible = pdt.visible_count(n);
                let value = -100 - step as Value;
                match next(3) {
                    0 => {
                        let row = vec![value, value - 1, value - 2];
                        pdt.insert(Rid::new(next(visible + 1)), row, n).unwrap();
                    }
                    1 => pdt.delete(Rid::new(next(visible)), n).unwrap(),
                    _ => pdt
                        .modify(Rid::new(next(visible)), next(3) as usize, value, n)
                        .unwrap(),
                }
            }
            let visible = pdt.visible_count(n);
            let start = next(visible / 2);
            for range in [TupleRange::new(0, visible), TupleRange::new(start, visible)] {
                for columns in projections {
                    let expected = merge_range(&pdt, three(n), columns, range);
                    let mut source = CountingSource {
                        inner: three(n),
                        fills: 0,
                    };
                    let mut cursor = MergeCursor::seek(&pdt, n, range);
                    let mut out = vec![Vec::new(); columns.len()];
                    while !cursor.is_exhausted() {
                        let (from, fills) = (cursor.sid, source.fills);
                        let limit = if next(8) == 0 { 1 << 20 } else { 1 + next(7) };
                        let produced = cursor
                            .merge(&pdt, &mut source, columns, limit, &mut out)
                            .unwrap();
                        assert!(produced > 0 && produced <= limit, "seed {seed}");
                        let passed = pdt.anchors_in(from, cursor.sid).count();
                        assert!(
                            source.fills - fills <= passed + 1,
                            "seed {seed} {columns:?}: {} fills passing {passed} anchors",
                            source.fills - fills
                        );
                    }
                    assert_eq!(to_rows(&out), expected, "seed {seed} {columns:?} {range:?}");
                }
            }
        }
    }

    #[test]
    fn generate_and_slice_source_agree() {
        let mut s = SliceSource::new(vec![vec![1, 2, 3], vec![4, 5, 6]]);
        assert_eq!(s.stable_tuples(), 3);
        let mut out = vec![Vec::new(), vec![9]];
        s.fill(&[1, 0], TupleRange::new(1, 3), &mut out).unwrap();
        assert_eq!(out, vec![vec![5, 6], vec![9, 2, 3]]);
        let empty = SliceSource::new(vec![]);
        assert_eq!(empty.stable_tuples(), 0);
    }

    #[test]
    #[should_panic(expected = "column lengths")]
    fn slice_source_rejects_ragged_columns() {
        let _ = SliceSource::new(vec![vec![1], vec![2, 3]]);
    }
}
