//! The Positional Delta Tree structure and SID/RID translation.
//!
//! A PDT stores Delete, Insert and Modification actions organised by **SID**
//! (stable position). Updates are *applied* by callers in **RID** space (the
//! positions of the visible, update-merged stream), so the structure supports
//! translation in both directions:
//!
//! * [`Pdt::rid_to_sid`] maps a visible row back to the stable position it is
//!   anchored at (inserted rows map to the SID of the first stable tuple that
//!   follows them);
//! * [`Pdt::sid_to_rid_low`] / [`Pdt::sid_to_rid_high`] map a stable position
//!   to the lowest / highest visible position anchored at it (they differ
//!   when rows were inserted before a stable tuple).
//!
//! Internally the PDT is an ordered map from SID to an update node plus a
//! two-level index, one entry per node in SID order, that gives the
//! "running delta" of the paper by two binary searches. The entries sit in
//! blocks of at most `2·B` (`B` = `BLOCK`); an entry's counts are local
//! to its block and a block holds the counts of all blocks before it. An
//! update keeps the index current in place: one binary search over the
//! blocks and one inside its block, at most one entry inserted or removed,
//! ±1 on the rest of its block and on the bases of later blocks (a modify
//! changes no count), a split of a block grown past `2·B` and the drop of
//! an emptied one. On top of its RID-to-SID translation an update thus
//! costs `O(B + n/B)` for `n` anchors; nothing rebuilds the index.

use std::collections::BTreeMap;

use scanshare_common::{Error, Result, Rid, Sid};
use scanshare_storage::datagen::Value;

/// Updates anchored at one stable position.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Node {
    /// Rows inserted *before* stable tuple `sid`, in visible order. Each row
    /// carries one value per table column.
    pub inserts: Vec<Vec<Value>>,
    /// Whether stable tuple `sid` is deleted.
    pub deleted: bool,
    /// Per-column new values for stable tuple `sid`.
    pub modifies: BTreeMap<usize, Value>,
}

impl Node {
    fn is_empty(&self) -> bool {
        self.inserts.is_empty() && !self.deleted && self.modifies.is_empty()
    }
}

/// Half the most entries an index block holds: a block splits above
/// `2 * BLOCK`, so an update touches `O(BLOCK)` entries and `O(n / BLOCK)`
/// block bases.
const BLOCK: usize = 64;

/// Cumulative counters at (and including) one PDT node, used to compute the
/// running delta between RID and SID.
#[derive(Debug, Clone, Copy, PartialEq)]
struct IndexEntry {
    sid: u64,
    /// Inserted rows anchored at keys `<= sid` and deleted stable tuples
    /// with position `<= sid`.
    incl: (u64, u64),
}

/// A run of index entries whose counts start at `base`, the counts of all
/// earlier blocks. Never empty.
#[derive(Debug, Clone, Default)]
struct IndexBlock {
    base: (u64, u64),
    entries: Vec<IndexEntry>,
}

/// Summary statistics of a PDT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UpdateStats {
    /// Total inserted rows.
    pub inserts: u64,
    /// Total deleted stable tuples.
    pub deletes: u64,
    /// Modified cells (column values) of stable tuples that are not deleted.
    pub modifies: u64,
    /// Number of distinct anchor positions.
    pub nodes: u64,
}

/// A Positional Delta Tree over a table with `column_count` columns.
#[derive(Debug, Clone, Default)]
pub struct Pdt {
    column_count: usize,
    nodes: BTreeMap<u64, Node>,
    /// One entry per node of `nodes`, in SID order, in blocks of at most
    /// `2 * BLOCK`, with the running counts through it (block base plus
    /// entry). An update keeps it current in place: two binary searches, at
    /// most one entry inserted or removed, ±1 on the rest of its block and on
    /// the later blocks' bases, so `O(BLOCK + n / BLOCK)` for `n` entries.
    index: Vec<IndexBlock>,
    total_inserts: u64,
    total_deletes: u64,
    total_modifies: u64,
}

impl Pdt {
    /// Creates an empty PDT for a table with `column_count` columns.
    pub fn new(column_count: usize) -> Self {
        Self {
            column_count,
            ..Default::default()
        }
    }

    /// Number of table columns each inserted row must provide.
    pub fn column_count(&self) -> usize {
        self.column_count
    }

    /// Whether the PDT holds no updates (merging is the identity).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Summary statistics.
    pub fn stats(&self) -> UpdateStats {
        UpdateStats {
            inserts: self.total_inserts,
            deletes: self.total_deletes,
            modifies: self.total_modifies,
            nodes: self.nodes.len() as u64,
        }
    }

    /// Number of rows visible after merging, for a stable image of
    /// `stable_tuples` tuples.
    pub fn visible_count(&self, stable_tuples: u64) -> u64 {
        stable_tuples + self.total_inserts - self.total_deletes
    }

    // ------------------------------------------------------------------
    // Running-delta index
    // ------------------------------------------------------------------

    /// Inserted rows anchored strictly before `sid` / deletes strictly before
    /// `sid`.
    fn deltas_before(&self, sid: u64) -> (u64, u64) {
        let b = self.index.partition_point(|blk| blk.entries[0].sid < sid);
        let Some(blk) = b.checked_sub(1).map(|b| &self.index[b]) else {
            return (0, 0);
        };
        let e = blk.entries[blk.entries.partition_point(|e| e.sid < sid) - 1];
        (blk.base.0 + e.incl.0, blk.base.1 + e.incl.1)
    }

    /// Keeps the index current after an update at `sid` that changed the
    /// rows inserted there by `inserts` and the deleted tuples by `deletes`:
    /// lists a node that appeared, drops the entry of one that emptied, adds
    /// the change to the running counts from `sid` on, and splits or drops
    /// the block it touched.
    fn reindex(&mut self, sid: u64, inserts: i64, deletes: u64) {
        let b = match self.index.partition_point(|blk| blk.entries[0].sid <= sid) {
            0 if self.index.is_empty() => {
                self.index.push(IndexBlock::default());
                0
            }
            b => b.saturating_sub(1),
        };
        let (head, later) = self.index.split_at_mut(b + 1);
        let entries = &mut head[b].entries;
        let pos = entries.partition_point(|e| e.sid < sid);
        let listed = entries.get(pos).is_some_and(|e| e.sid == sid);
        match (listed, self.nodes.contains_key(&sid)) {
            (false, true) => {
                let incl = pos.checked_sub(1).map_or((0, 0), |p| entries[p].incl);
                entries.insert(pos, IndexEntry { sid, incl });
            }
            (true, false) => {
                entries.remove(pos);
            }
            _ => {}
        }
        if inserts != 0 || deletes != 0 {
            let entry_counts = entries[pos..].iter_mut().map(|e| &mut e.incl);
            for counts in entry_counts.chain(later.iter_mut().map(|blk| &mut blk.base)) {
                *counts = (counts.0.wrapping_add_signed(inserts), counts.1 + deletes);
            }
        }
        let blk = &mut self.index[b];
        if blk.entries.is_empty() {
            self.index.remove(b);
        } else if blk.entries.len() > 2 * BLOCK {
            let mut entries = blk.entries.split_off(BLOCK);
            let last = blk.entries[BLOCK - 1].incl;
            for e in &mut entries {
                e.incl = (e.incl.0 - last.0, e.incl.1 - last.1);
            }
            let base = (blk.base.0 + last.0, blk.base.1 + last.1);
            self.index.insert(b + 1, IndexBlock { base, entries });
        }
    }

    fn node(&self, sid: u64) -> Option<&Node> {
        self.nodes.get(&sid)
    }

    pub(crate) fn node_inserts(&self, sid: u64) -> usize {
        self.node(sid).map(|n| n.inserts.len()).unwrap_or(0)
    }

    pub(crate) fn node_deleted(&self, sid: u64) -> bool {
        self.node(sid).map(|n| n.deleted).unwrap_or(false)
    }

    pub(crate) fn node_insert_row(&self, sid: u64, offset: usize) -> Option<&Vec<Value>> {
        self.node(sid).and_then(|n| n.inserts.get(offset))
    }

    pub(crate) fn node_modify(&self, sid: u64, col: usize) -> Option<Value> {
        self.node(sid).and_then(|n| n.modifies.get(&col).copied())
    }

    /// Iterates the anchor SIDs present in the PDT within `[from, to)`.
    pub(crate) fn anchors_in(&self, from: u64, to: u64) -> impl Iterator<Item = u64> + '_ {
        self.nodes.range(from..to).map(|(&sid, _)| sid)
    }

    /// Iterates the nodes anchored at or after `from` with their anchor
    /// SIDs, in SID order: one ordered walk (the merge's per call, the WAL
    /// encoding's from 0).
    pub(crate) fn nodes_from(&self, from: u64) -> impl Iterator<Item = (u64, &Node)> + '_ {
        self.nodes.range(from..).map(|(&sid, node)| (sid, node))
    }

    /// Installs a fully-formed node at `sid` (WAL replay decoding), counting
    /// its inserts, delete and modified cells as the updates that built it
    /// did. A record lists its nodes in SID order, so `sid` holds no node yet.
    pub(crate) fn set_node(&mut self, sid: u64, node: Node) {
        if node.is_empty() {
            return;
        }
        let (inserts, deletes) = (node.inserts.len() as u64, u64::from(node.deleted));
        self.total_inserts += inserts;
        self.total_deletes += deletes;
        self.total_modifies += node.modifies.len() as u64;
        let replaced = self.nodes.insert(sid, node);
        debug_assert!(replaced.is_none(), "sid {sid} already holds a node");
        self.reindex(sid, inserts as i64, deletes);
    }

    // ------------------------------------------------------------------
    // Positional translation (Figure 4)
    // ------------------------------------------------------------------

    /// RID of the first visible row anchored at `sid` (the "low" variant of
    /// SID-to-RID conversion). For a deleted stable tuple with no inserts the
    /// result is the RID of the first following visible row, exactly as the
    /// paper describes.
    pub fn sid_to_rid_low(&self, sid: Sid) -> Rid {
        let (ins, del) = self.deltas_before(sid.raw());
        Rid::new(sid.raw() - del + ins)
    }

    /// RID of the last visible row anchored at `sid` (the "high" variant).
    pub fn sid_to_rid_high(&self, sid: Sid) -> Rid {
        let low = self.sid_to_rid_low(sid).raw();
        let rows = self.rows_at(sid.raw());
        Rid::new(low + rows.saturating_sub(1))
    }

    /// Number of visible rows anchored at `sid`: its inserts plus the stable
    /// tuple itself when not deleted.
    fn rows_at(&self, sid: u64) -> u64 {
        match self.node(sid) {
            Some(n) => n.inserts.len() as u64 + u64::from(!n.deleted),
            None => 1,
        }
    }

    /// Maps a visible row position back to the stable position it is anchored
    /// at. Inserted rows translate to the SID of the first stable tuple that
    /// follows them; positions at or past the end of the visible stream
    /// translate to `stable_tuples`.
    pub fn rid_to_sid(&self, rid: Rid, stable_tuples: u64) -> Sid {
        if self.is_empty() {
            // No anchors: every sid's first row is at rid == sid.
            return Sid::new(rid.raw().min(stable_tuples));
        }
        self.search_rid_to_sid(rid, stable_tuples)
    }

    /// [`Pdt::rid_to_sid`] by binary search, whatever the PDT holds.
    fn search_rid_to_sid(&self, rid: Rid, stable_tuples: u64) -> Sid {
        let rid = rid.raw();
        // Binary search the largest sid in [0, stable_tuples] whose first
        // anchored row is at or before `rid`.
        let mut lo = 0u64;
        let mut hi = stable_tuples;
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            if self.sid_to_rid_low(Sid::new(mid)).raw() <= rid {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        Sid::new(lo)
    }

    /// Describes the visible row at `rid`: `(sid, offset)` where `offset <
    /// inserts_at(sid)` means the row is the `offset`-th insert anchored at
    /// `sid`, and `offset == inserts_at(sid)` means it is stable tuple `sid`
    /// itself.
    pub(crate) fn locate(&self, rid: Rid, stable_tuples: u64) -> (u64, usize) {
        let sid = self.rid_to_sid(rid, stable_tuples).raw();
        let low = self.sid_to_rid_low(Sid::new(sid)).raw();
        (sid, (rid.raw() - low) as usize)
    }

    // ------------------------------------------------------------------
    // Updates (positions given in RID space of the current visible stream)
    // ------------------------------------------------------------------

    fn check_row(&self, row: &[Value]) -> Result<()> {
        if row.len() != self.column_count {
            return Err(Error::config(format!(
                "inserted row has {} values but the table has {} columns",
                row.len(),
                self.column_count
            )));
        }
        Ok(())
    }

    /// Inserts `row` so that it becomes the row at position `rid` in the new
    /// visible stream (rows at `rid` and beyond shift right by one).
    pub fn insert(&mut self, rid: Rid, row: Vec<Value>, stable_tuples: u64) -> Result<()> {
        self.check_row(&row)?;
        let visible = self.visible_count(stable_tuples);
        if rid.raw() > visible {
            return Err(Error::PositionOutOfBounds {
                position: rid.raw(),
                visible,
            });
        }
        let (sid, offset) = if rid.raw() == visible {
            // Append at the very end: anchor at the end-of-table position.
            (stable_tuples, self.node_inserts(stable_tuples))
        } else {
            self.locate(rid, stable_tuples)
        };
        let node = self.nodes.entry(sid).or_default();
        let offset = offset.min(node.inserts.len());
        node.inserts.insert(offset, row);
        self.total_inserts += 1;
        self.reindex(sid, 1, 0);
        Ok(())
    }

    /// Deletes the visible row at `rid`.
    pub fn delete(&mut self, rid: Rid, stable_tuples: u64) -> Result<()> {
        let visible = self.visible_count(stable_tuples);
        if rid.raw() >= visible {
            return Err(Error::PositionOutOfBounds {
                position: rid.raw(),
                visible,
            });
        }
        let (sid, offset) = self.locate(rid, stable_tuples);
        let node = self.nodes.entry(sid).or_default();
        let (inserts, deletes) = if offset < node.inserts.len() {
            node.inserts.remove(offset);
            self.total_inserts -= 1;
            (-1, 0)
        } else {
            debug_assert!(
                !node.deleted,
                "visible row cannot be an already deleted tuple"
            );
            node.deleted = true;
            self.total_modifies -= node.modifies.len() as u64;
            node.modifies.clear();
            self.total_deletes += 1;
            (0, 1)
        };
        if node.is_empty() {
            self.nodes.remove(&sid);
        }
        self.reindex(sid, inserts, deletes);
        Ok(())
    }

    /// Changes column `col` of the visible row at `rid` to `value`.
    pub fn modify(&mut self, rid: Rid, col: usize, value: Value, stable_tuples: u64) -> Result<()> {
        if col >= self.column_count {
            return Err(Error::config(format!(
                "column index {col} out of range for {} columns",
                self.column_count
            )));
        }
        let visible = self.visible_count(stable_tuples);
        if rid.raw() >= visible {
            return Err(Error::PositionOutOfBounds {
                position: rid.raw(),
                visible,
            });
        }
        let (sid, offset) = self.locate(rid, stable_tuples);
        let node = self.nodes.entry(sid).or_default();
        if offset < node.inserts.len() {
            node.inserts[offset][col] = value;
        } else {
            debug_assert!(!node.deleted);
            if node.modifies.insert(col, value).is_none() {
                self.total_modifies += 1;
            }
        }
        self.reindex(sid, 0, 0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference model: the visible stream as an explicit vector of rows,
    /// where a row is `(origin_sid_or_none, values)`.
    #[derive(Debug, Clone)]
    struct Model {
        rows: Vec<Vec<Value>>,
    }

    impl Model {
        fn new(stable: &[Vec<Value>]) -> Self {
            Self {
                rows: stable.to_vec(),
            }
        }
        fn insert(&mut self, rid: usize, row: Vec<Value>) {
            self.rows.insert(rid, row);
        }
        fn delete(&mut self, rid: usize) {
            self.rows.remove(rid);
        }
        fn modify(&mut self, rid: usize, col: usize, v: Value) {
            self.rows[rid][col] = v;
        }
    }

    fn stable(n: u64) -> Vec<Vec<Value>> {
        (0..n)
            .map(|i| vec![i as Value, (i * 10) as Value])
            .collect()
    }

    /// Merge `pdt` over the given stable rows (test helper mirroring what the
    /// merge cursor does, but written independently for cross-checking).
    fn merged(pdt: &Pdt, stable_rows: &[Vec<Value>]) -> Vec<Vec<Value>> {
        let mut out = Vec::new();
        for sid in 0..=stable_rows.len() as u64 {
            for i in 0..pdt.node_inserts(sid) {
                out.push(pdt.node_insert_row(sid, i).unwrap().clone());
            }
            if sid < stable_rows.len() as u64 && !pdt.node_deleted(sid) {
                let mut row = stable_rows[sid as usize].clone();
                for (col, value) in row.iter_mut().enumerate() {
                    if let Some(v) = pdt.node_modify(sid, col) {
                        *value = v;
                    }
                }
                out.push(row);
            }
        }
        out
    }

    #[test]
    fn empty_pdt_is_identity() {
        let pdt = Pdt::new(2);
        assert!(pdt.is_empty());
        assert_eq!(pdt.visible_count(10), 10);
        assert_eq!(pdt.rid_to_sid(Rid::new(7), 10), Sid::new(7));
        assert_eq!(pdt.sid_to_rid_low(Sid::new(7)), Rid::new(7));
        assert_eq!(pdt.sid_to_rid_high(Sid::new(7)), Rid::new(7));
    }

    /// The empty-PDT shortcut of `rid_to_sid` gives what the binary search
    /// gives, past the end of the stream included, for stable images of 0,
    /// 1 and a few tuples.
    #[test]
    fn empty_pdt_rid_to_sid_matches_the_search() {
        let pdt = Pdt::new(2);
        for stable in [0u64, 1, 2, 7, 64] {
            for rid in 0..=stable + 2 {
                assert_eq!(
                    pdt.rid_to_sid(Rid::new(rid), stable),
                    pdt.search_rid_to_sid(Rid::new(rid), stable),
                    "rid {rid} of {stable} stable tuples"
                );
            }
        }
    }

    #[test]
    fn insert_shifts_following_rids() {
        let n = 10;
        let mut pdt = Pdt::new(2);
        pdt.insert(Rid::new(3), vec![100, 200], n).unwrap();
        assert_eq!(pdt.visible_count(n), 11);
        // The inserted row is anchored at stable tuple 3.
        assert_eq!(pdt.rid_to_sid(Rid::new(3), n), Sid::new(3));
        // Stable tuple 3 now lives at RID 4.
        assert_eq!(pdt.sid_to_rid_low(Sid::new(3)), Rid::new(3));
        assert_eq!(pdt.sid_to_rid_high(Sid::new(3)), Rid::new(4));
        // Stable tuple 4 shifted to RID 5.
        assert_eq!(pdt.sid_to_rid_low(Sid::new(4)), Rid::new(5));
        // Positions before the insert are unaffected.
        assert_eq!(pdt.rid_to_sid(Rid::new(2), n), Sid::new(2));
    }

    #[test]
    fn delete_makes_sid_unreachable_from_rid() {
        let n = 10;
        let mut pdt = Pdt::new(2);
        pdt.delete(Rid::new(4), n).unwrap();
        assert_eq!(pdt.visible_count(n), 9);
        // No RID maps to SID 4 any more: RID 4 now belongs to stable tuple 5.
        assert_eq!(pdt.rid_to_sid(Rid::new(4), n), Sid::new(5));
        // But SID 4 still translates to a RID (that of the next visible row).
        assert_eq!(pdt.sid_to_rid_low(Sid::new(4)), Rid::new(4));
        assert_eq!(pdt.sid_to_rid_high(Sid::new(4)), Rid::new(4));
        assert_eq!(pdt.rid_to_sid(Rid::new(8), n), Sid::new(9));
    }

    #[test]
    fn delete_of_inserted_row_cancels_out() {
        let n = 5;
        let mut pdt = Pdt::new(1);
        pdt.insert(Rid::new(2), vec![42], n).unwrap();
        assert_eq!(pdt.visible_count(n), 6);
        pdt.delete(Rid::new(2), n).unwrap();
        assert_eq!(pdt.visible_count(n), 5);
        assert!(
            pdt.is_empty(),
            "insert followed by delete of it leaves no state"
        );
    }

    #[test]
    fn modify_stable_and_inserted_rows() {
        let n = 4;
        let rows = stable(n);
        let mut pdt = Pdt::new(2);
        pdt.modify(Rid::new(1), 1, 999, n).unwrap();
        pdt.insert(Rid::new(0), vec![7, 8], n).unwrap();
        pdt.modify(Rid::new(0), 0, 70, n).unwrap(); // modifies the inserted row
        let out = merged(&pdt, &rows);
        assert_eq!(out[0], vec![70, 8]);
        assert_eq!(out[2], vec![1, 999]);
        // Modifying an inserted row does not create a Modify node.
        assert_eq!(pdt.stats().modifies, 1);
    }

    #[test]
    fn out_of_bounds_positions_are_rejected() {
        let n = 3;
        let mut pdt = Pdt::new(1);
        assert!(pdt.insert(Rid::new(5), vec![1], n).is_err());
        assert!(pdt.delete(Rid::new(3), n).is_err());
        assert!(pdt.modify(Rid::new(3), 0, 1, n).is_err());
        assert!(
            pdt.insert(Rid::new(3), vec![1], n).is_ok(),
            "append at end is allowed"
        );
        assert!(
            pdt.modify(Rid::new(0), 5, 1, n).is_err(),
            "column bound checked"
        );
        assert!(
            pdt.insert(Rid::new(0), vec![1, 2], n).is_err(),
            "row arity checked"
        );
    }

    #[test]
    fn figure_4_style_mixed_updates() {
        // Build a scenario similar to Figure 4: deletes and inserts mixed.
        let n = 8;
        let rows = stable(n);
        let mut pdt = Pdt::new(2);
        // Delete stable tuples 1 and 2 (visible positions 1 and then 1 again).
        pdt.delete(Rid::new(1), n).unwrap();
        pdt.delete(Rid::new(1), n).unwrap();
        // Insert two rows before (what is now) position 3.
        pdt.insert(Rid::new(3), vec![100, 100], n).unwrap();
        pdt.insert(Rid::new(4), vec![101, 101], n).unwrap();
        let out = merged(&pdt, &rows);
        assert_eq!(pdt.visible_count(n), out.len() as u64);
        assert_eq!(out.len(), 8);
        assert_eq!(out[0], vec![0, 0]);
        assert_eq!(out[1], vec![3, 30]);
        assert_eq!(out[2], vec![4, 40]);
        assert_eq!(out[3], vec![100, 100]);
        assert_eq!(out[4], vec![101, 101]);
        assert_eq!(out[5], vec![5, 50]);

        // Deleted tuples: sid_to_rid is still defined but no RID maps back to
        // them — the RID they translate to belongs to the first following
        // visible stable tuple (SID 3).
        for deleted_sid in [1u64, 2] {
            let rid = pdt.sid_to_rid_low(Sid::new(deleted_sid));
            assert_eq!(rid, Rid::new(1));
            assert_eq!(pdt.rid_to_sid(rid, n), Sid::new(3));
        }
        // Inserted rows map to the SID of the first following stable tuple (5).
        assert_eq!(pdt.rid_to_sid(Rid::new(3), n), Sid::new(5));
        assert_eq!(pdt.rid_to_sid(Rid::new(4), n), Sid::new(5));
        // Low/high conversions bracket the insert block + stable tuple 5.
        assert_eq!(pdt.sid_to_rid_low(Sid::new(5)), Rid::new(3));
        assert_eq!(pdt.sid_to_rid_high(Sid::new(5)), Rid::new(5));
    }

    /// The index as one list of entries with running counts from the start,
    /// checking that no block is empty or over `2 * BLOCK` entries.
    fn flat_index(pdt: &Pdt) -> Vec<IndexEntry> {
        let mut flat = Vec::new();
        for blk in &pdt.index {
            assert!(
                (1..=2 * BLOCK).contains(&blk.entries.len()),
                "block of {}",
                blk.entries.len()
            );
            flat.extend(blk.entries.iter().map(|e| IndexEntry {
                sid: e.sid,
                incl: (blk.base.0 + e.incl.0, blk.base.1 + e.incl.1),
            }));
        }
        flat
    }

    /// The index recomputed from the nodes: what every update must leave.
    fn rebuilt_index(pdt: &Pdt) -> Vec<IndexEntry> {
        let (mut inserts_incl, mut deletes_incl) = (0, 0);
        pdt.nodes_from(0)
            .map(|(sid, node)| {
                inserts_incl += node.inserts.len() as u64;
                deletes_incl += u64::from(node.deleted);
                IndexEntry {
                    sid,
                    incl: (inserts_incl, deletes_incl),
                }
            })
            .collect()
    }

    /// Random inserts, deletes and modifies against the reference model over
    /// several seeds. After every operation the merged stream equals the
    /// model, the index and the modified-cell count equal ones recomputed
    /// from the nodes, and every visible row round-trips through `locate`
    /// and the SID-to-RID translations.
    #[test]
    fn random_operations_match_reference_model() {
        use scanshare_storage::datagen::splitmix64;
        let n = 50u64;
        let base = stable(n);
        let mut emptied_nodes = 0;
        for seed in [0xfeed_f00d_u64, 1, 2, 3, 0x5eed] {
            let mut model = Model::new(&base);
            let mut pdt = Pdt::new(2);
            let mut rng = seed;
            for step in 0..400 {
                rng = splitmix64(rng ^ step);
                let visible = pdt.visible_count(n);
                assert_eq!(visible as usize, model.rows.len());
                let nodes_before = pdt.stats().nodes;
                match rng % 3 {
                    0 => {
                        let pos = rng.rotate_left(17) % (visible + 1);
                        let row = vec![step as Value, (step * 2) as Value];
                        pdt.insert(Rid::new(pos), row.clone(), n).unwrap();
                        model.insert(pos as usize, row);
                    }
                    1 if visible > 0 => {
                        let pos = rng.rotate_left(23) % visible;
                        let (sid, offset) = pdt.locate(Rid::new(pos), n);
                        let inserted = offset < pdt.node_inserts(sid);
                        pdt.delete(Rid::new(pos), n).unwrap();
                        model.delete(pos as usize);
                        if inserted && pdt.stats().nodes < nodes_before {
                            emptied_nodes += 1;
                        }
                    }
                    2 if visible > 0 => {
                        let pos = rng.rotate_left(31) % visible;
                        let col = (rng >> 7) as usize % 2;
                        pdt.modify(Rid::new(pos), col, -(step as Value), n).unwrap();
                        model.modify(pos as usize, col, -(step as Value));
                    }
                    _ => {}
                }
                let context = format!("seed {seed:#x}, step {step}");
                assert_eq!(flat_index(&pdt), rebuilt_index(&pdt), "{context}");
                let cells: usize = pdt.nodes_from(0).map(|(_, node)| node.modifies.len()).sum();
                assert_eq!(pdt.stats().modifies, cells as u64, "{context}");
                assert_eq!(merged(&pdt, &base), model.rows, "{context}");
                for rid in 0..pdt.visible_count(n) {
                    let (sid, offset) = pdt.locate(Rid::new(rid), n);
                    let low = pdt.sid_to_rid_low(Sid::new(sid)).raw();
                    let high = pdt.sid_to_rid_high(Sid::new(sid)).raw();
                    assert_eq!(low + offset as u64, rid, "{context}, rid {rid}");
                    assert!(high >= rid, "{context}, rid {rid} past [{low},{high}]");
                    assert!(
                        offset < pdt.node_inserts(sid) || (sid < n && !pdt.node_deleted(sid)),
                        "{context}, rid {rid} locates to no visible row"
                    );
                }
            }
        }
        assert!(
            emptied_nodes > 0,
            "no delete of an inserted row emptied a node"
        );
    }

    /// The two-level index equals its rebuild after every one of thousands
    /// of random operations over 3 000 stable tuples, through block splits
    /// and the drop of emptied blocks. Rows anchored in the lower half of
    /// the table only take inserts and deletes of inserted rows, so their
    /// blocks hold insert-only nodes; a final drain deletes every inserted
    /// row, which empties those blocks.
    #[test]
    fn two_level_index_equals_its_rebuild_through_splits_and_removals() {
        use scanshare_storage::datagen::splitmix64;
        let n = 3_000u64;
        let base = stable(n);
        for seed in [0x1dea_u64, 7, 0xb10c] {
            let mut model = Model::new(&base);
            let mut pdt = Pdt::new(2);
            let mut rng = seed;
            let (mut ops, mut most_blocks, mut emptied) = (0, 0, 0);
            let mut check = |pdt: &Pdt, blocks_before: usize, context: &str| {
                assert_eq!(flat_index(pdt), rebuilt_index(pdt), "{context}");
                most_blocks = most_blocks.max(pdt.index.len());
                if pdt.index.len() < blocks_before {
                    emptied += 1;
                }
            };
            for step in 0..6_000u64 {
                rng = splitmix64(rng ^ step);
                let visible = pdt.visible_count(n);
                let pos = rng.rotate_left(17) % visible;
                let (sid, offset) = pdt.locate(Rid::new(pos), n);
                let inserted = offset < pdt.node_inserts(sid);
                let blocks_before = pdt.index.len();
                match rng % 3 {
                    1 if inserted || sid >= n / 2 => {
                        pdt.delete(Rid::new(pos), n).unwrap();
                        model.delete(pos as usize);
                    }
                    2 if inserted || sid >= n / 2 => {
                        let col = (rng >> 7) as usize % 2;
                        pdt.modify(Rid::new(pos), col, -(step as Value), n).unwrap();
                        model.modify(pos as usize, col, -(step as Value));
                    }
                    _ => {
                        let row = vec![step as Value, (step * 2) as Value];
                        pdt.insert(Rid::new(pos), row.clone(), n).unwrap();
                        model.insert(pos as usize, row);
                    }
                }
                ops += 1;
                check(&pdt, blocks_before, &format!("seed {seed:#x}, step {step}"));
            }
            while pdt.stats().inserts > 0 {
                rng = splitmix64(rng);
                let mut k = rng % pdt.stats().inserts;
                let (sid, offset) = pdt
                    .nodes_from(0)
                    .find_map(
                        |(sid, node)| match k.checked_sub(node.inserts.len() as u64) {
                            Some(rest) => {
                                k = rest;
                                None
                            }
                            None => Some((sid, k)),
                        },
                    )
                    .unwrap();
                let rid = pdt.sid_to_rid_low(Sid::new(sid)).raw() + offset;
                let blocks_before = pdt.index.len();
                pdt.delete(Rid::new(rid), n).unwrap();
                model.delete(rid as usize);
                ops += 1;
                check(
                    &pdt,
                    blocks_before,
                    &format!("seed {seed:#x}, drain op {ops}"),
                );
            }
            assert!(ops >= 6_000);
            assert!(
                most_blocks > 10,
                "seed {seed:#x}: only {most_blocks} blocks formed"
            );
            assert!(emptied > 0, "seed {seed:#x}: no block emptied");
            assert_eq!(merged(&pdt, &base), model.rows, "seed {seed:#x}");
        }
    }

    #[test]
    fn translation_round_trips_for_visible_rows() {
        let n = 30u64;
        let mut pdt = Pdt::new(1);
        for i in 0..10 {
            pdt.insert(Rid::new(i * 2), vec![i as Value], n).unwrap();
        }
        for _ in 0..5 {
            pdt.delete(Rid::new(7), n).unwrap();
        }
        let visible = pdt.visible_count(n);
        for rid in 0..visible {
            let sid = pdt.rid_to_sid(Rid::new(rid), n);
            let low = pdt.sid_to_rid_low(sid).raw();
            let high = pdt.sid_to_rid_high(sid).raw();
            assert!(
                (low..=high).contains(&rid),
                "rid {rid} -> sid {sid} but [{low},{high}] does not contain it"
            );
        }
    }

    #[test]
    fn stats_track_totals() {
        let n = 10;
        let mut pdt = Pdt::new(1);
        pdt.insert(Rid::new(0), vec![1], n).unwrap();
        pdt.delete(Rid::new(5), n).unwrap();
        pdt.modify(Rid::new(2), 0, 9, n).unwrap();
        let s = pdt.stats();
        assert_eq!(s.inserts, 1);
        assert_eq!(s.deletes, 1);
        assert_eq!(s.modifies, 1);
        assert!(s.nodes >= 2);
    }
}
