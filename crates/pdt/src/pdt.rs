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
//! Internally the PDT is one counted structure: its nodes, in SID order, sit
//! in blocks of at most `2·B` entries (`B` = `BLOCK`), and each entry holds
//! its anchor SID, its node and the running counts of inserted rows and
//! deleted tuples through it, local to its block; a block holds the counts
//! of all blocks before it. Either translation is two binary searches, one
//! over the blocks and one inside a block: SID-to-RID by anchor SID, and
//! RID-to-SID by the first RID after each anchor. Every update takes one
//! path: the two searches by SID, the change to the node, ±1 on the rest of
//! its block and on the bases of later blocks (a modify changes no count), a
//! split of a block grown past `2·B` and the drop of an emptied node or
//! block. On top of its RID-to-SID translation an update thus costs
//! `O(B + n/B)` for `n` anchors.

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
    /// Per-column new values for stable tuple `sid`; empty when it is
    /// deleted.
    pub modifies: BTreeMap<usize, Value>,
}

impl Node {
    /// What the node adds to its PDT's [`UpdateStats`].
    fn stats(&self) -> UpdateStats {
        let (inserts, deletes) = (self.inserts.len() as u64, u64::from(self.deleted));
        let modifies = self.modifies.len() as u64;
        UpdateStats {
            inserts,
            deletes,
            modifies,
            nodes: u64::from(inserts + deletes + modifies > 0),
        }
    }
}

/// Half the most entries a block holds: a block splits above `2 * BLOCK`, so
/// an update touches `O(BLOCK)` entries and `O(n / BLOCK)` block bases.
const BLOCK: usize = 64;

/// One node with the running counts through it, counted from the start of
/// its block: rows inserted at anchors `<= sid` and deleted stable tuples at
/// positions `<= sid`.
#[derive(Debug, Clone)]
struct Entry {
    sid: u64,
    incl: (u64, u64),
    node: Node,
}

/// A run of entries whose counts start at `base`, the counts of all earlier
/// blocks. Never empty.
#[derive(Debug, Clone, Default)]
struct Block {
    base: (u64, u64),
    entries: Vec<Entry>,
}

impl Block {
    /// The running counts through `entry`, one of this block's.
    fn through(&self, entry: &Entry) -> (u64, u64) {
        (self.base.0 + entry.incl.0, self.base.1 + entry.incl.1)
    }
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
    /// Every node, in SID order, in blocks of at most `2 * BLOCK` entries.
    blocks: Vec<Block>,
    stats: UpdateStats,
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
        self.blocks.is_empty()
    }

    /// Summary statistics.
    pub fn stats(&self) -> UpdateStats {
        self.stats
    }

    /// Number of rows visible after merging, for a stable image of
    /// `stable_tuples` tuples.
    pub fn visible_count(&self, stable_tuples: u64) -> u64 {
        stable_tuples + self.stats.inserts - self.stats.deletes
    }

    // ------------------------------------------------------------------
    // The counted blocks
    // ------------------------------------------------------------------

    /// Inserted rows anchored strictly before `sid` / deletes strictly before
    /// `sid`.
    fn deltas_before(&self, sid: u64) -> (u64, u64) {
        let b = self.blocks.partition_point(|blk| blk.entries[0].sid < sid);
        let Some(blk) = b.checked_sub(1).map(|b| &self.blocks[b]) else {
            return (0, 0);
        };
        blk.through(&blk.entries[blk.entries.partition_point(|e| e.sid < sid) - 1])
    }

    /// Applies `change` to the node at `sid`, an empty one if there is none.
    /// The stats and the running counts from `sid` on then take the
    /// difference between the node's stats before and after; a node left
    /// empty is dropped, and its block splits once past `2 * BLOCK` entries
    /// or drops once empty.
    fn update(&mut self, sid: u64, change: impl FnOnce(&mut Node)) {
        let b = self.blocks.partition_point(|blk| blk.entries[0].sid <= sid);
        let b = b.saturating_sub(1);
        if self.blocks.is_empty() {
            self.blocks.push(Block::default());
        }
        let (head, later) = self.blocks.split_at_mut(b + 1);
        let blk = &mut head[b];
        let pos = blk.entries.partition_point(|e| e.sid < sid);
        if !blk.entries.get(pos).is_some_and(|e| e.sid == sid) {
            let incl = pos.checked_sub(1).map_or((0, 0), |p| blk.entries[p].incl);
            let node = Node::default();
            blk.entries.insert(pos, Entry { sid, incl, node });
        }
        let node = &mut blk.entries[pos].node;
        let before = node.stats();
        change(node);
        let after = node.stats();
        let total = &mut self.stats;
        total.inserts = total.inserts + after.inserts - before.inserts;
        total.deletes = total.deletes + after.deletes - before.deletes;
        total.modifies = total.modifies + after.modifies - before.modifies;
        total.nodes = total.nodes + after.nodes - before.nodes;
        if after.nodes == 0 {
            blk.entries.remove(pos);
        }
        let inserts = after.inserts as i64 - before.inserts as i64;
        let deletes = after.deletes as i64 - before.deletes as i64;
        if inserts != 0 || deletes != 0 {
            let entry_counts = blk.entries[pos..].iter_mut().map(|e| &mut e.incl);
            for counts in entry_counts.chain(later.iter_mut().map(|blk| &mut blk.base)) {
                counts.0 = counts.0.wrapping_add_signed(inserts);
                counts.1 = counts.1.wrapping_add_signed(deletes);
            }
        }
        if blk.entries.is_empty() {
            self.blocks.remove(b);
        } else if blk.entries.len() > 2 * BLOCK {
            let base = blk.through(&blk.entries[BLOCK - 1]);
            let last = blk.entries[BLOCK - 1].incl;
            let mut entries = blk.entries.split_off(BLOCK);
            for e in &mut entries {
                e.incl = (e.incl.0 - last.0, e.incl.1 - last.1);
            }
            self.blocks.insert(b + 1, Block { base, entries });
        }
    }

    /// The node anchored at `sid`, if any.
    pub(crate) fn node(&self, sid: u64) -> Option<&Node> {
        let (anchor, node) = self.nodes_from(sid).next()?;
        (anchor == sid).then_some(node)
    }

    /// Iterates the nodes anchored at or after `from` with their anchor
    /// SIDs, in SID order: one ordered walk (the merge's per call, the WAL
    /// encoding's from 0, a composition's backwards from the end).
    pub(crate) fn nodes_from(
        &self,
        from: u64,
    ) -> impl DoubleEndedIterator<Item = (u64, &Node)> + '_ {
        let b = self
            .blocks
            .partition_point(|blk| blk.entries[blk.entries.len() - 1].sid < from);
        let first = self.blocks.get(b).map_or(&[][..], |blk| {
            &blk.entries[blk.entries.partition_point(|e| e.sid < from)..]
        });
        let rest = self.blocks.get(b + 1..).unwrap_or_default();
        let entries = first.iter().chain(rest.iter().flat_map(|blk| &blk.entries));
        entries.map(|e| (e.sid, &e.node))
    }

    /// Installs a fully-formed node at `sid` (WAL replay decoding), counting
    /// its inserts, delete and modified cells as the updates that built it
    /// did. A record lists its nodes in SID order, so `sid` holds no node yet.
    pub(crate) fn set_node(&mut self, sid: u64, node: Node) {
        self.update(sid, |slot| {
            debug_assert_eq!(*slot, Node::default(), "sid {sid} already holds a node");
            *slot = node;
        });
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
        Sid::new(self.locate(rid, stable_tuples).0)
    }

    /// Describes the visible row at `rid`: `(sid, offset)` where `offset <
    /// inserts_at(sid)` means the row is the `offset`-th insert anchored at
    /// `sid`, and `offset == inserts_at(sid)` means it is stable tuple `sid`
    /// itself. `rid` equal to the visible count gives the end of the stream,
    /// `(stable_tuples, inserts_at(stable_tuples))`; the offset of a `rid`
    /// past it means nothing.
    ///
    /// One two-level search finds the last anchor whose first following RID,
    /// `sid + 1 + inserts - deletes` with the counts through it, is at most
    /// `rid`. Every SID `s` after that anchor, up to the next one, starts at
    /// RID `s + inserts - deletes`, so `rid` belongs to SID `rid + deletes -
    /// inserts`, capped by the next anchor and by `stable_tuples`.
    pub(crate) fn locate(&self, rid: Rid, stable_tuples: u64) -> (u64, usize) {
        let rid = rid.raw();
        let after = |blk: &Block, e: &Entry| {
            let (inserts, deletes) = blk.through(e);
            e.sid + 1 + inserts - deletes
        };
        let b = self
            .blocks
            .partition_point(|blk| after(blk, &blk.entries[0]) <= rid);
        let ((inserts, deletes), next) = match b.checked_sub(1) {
            None => ((0, 0), self.blocks.first().map(|blk| &blk.entries[0])),
            Some(b) => {
                let blk = &self.blocks[b];
                let p = blk.entries.partition_point(|e| after(blk, e) <= rid);
                let next = blk.entries.get(p);
                let next = next.or_else(|| self.blocks.get(b + 1).map(|blk| &blk.entries[0]));
                (blk.through(&blk.entries[p - 1]), next)
            }
        };
        let unshifted = rid + deletes - inserts;
        let sid = unshifted
            .min(next.map_or(u64::MAX, |e| e.sid))
            .min(stable_tuples);
        (sid, (unshifted - sid) as usize)
    }

    // ------------------------------------------------------------------
    // Updates (positions given in RID space of the current visible stream)
    // ------------------------------------------------------------------

    /// [`Pdt::locate`] of `rid`, or `PositionOutOfBounds` unless `rid` is
    /// below the visible count plus `past_end` (1 for an insert, which may
    /// append).
    fn locate_within(&self, rid: Rid, stable_tuples: u64, past_end: u64) -> Result<(u64, usize)> {
        let visible = self.visible_count(stable_tuples);
        if rid.raw() >= visible + past_end {
            return Err(Error::PositionOutOfBounds {
                position: rid.raw(),
                visible,
            });
        }
        Ok(self.locate(rid, stable_tuples))
    }

    /// Inserts `row` so that it becomes the row at position `rid` in the new
    /// visible stream (rows at `rid` and beyond shift right by one).
    pub fn insert(&mut self, rid: Rid, row: Vec<Value>, stable_tuples: u64) -> Result<()> {
        if row.len() != self.column_count {
            return Err(Error::config(format!(
                "inserted row has {} values but the table has {} columns",
                row.len(),
                self.column_count
            )));
        }
        let (sid, offset) = self.locate_within(rid, stable_tuples, 1)?;
        self.update(sid, |node| node.inserts.insert(offset, row));
        Ok(())
    }

    /// Deletes the visible row at `rid`.
    pub fn delete(&mut self, rid: Rid, stable_tuples: u64) -> Result<()> {
        let (sid, offset) = self.locate_within(rid, stable_tuples, 0)?;
        self.update(sid, |node| {
            if offset < node.inserts.len() {
                node.inserts.remove(offset);
            } else {
                debug_assert!(
                    !node.deleted,
                    "visible row cannot be an already deleted tuple"
                );
                node.deleted = true;
                node.modifies.clear();
            }
        });
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
        let (sid, offset) = self.locate_within(rid, stable_tuples, 0)?;
        self.update(sid, |node| match node.inserts.get_mut(offset) {
            Some(row) => row[col] = value,
            None => {
                debug_assert!(!node.deleted);
                node.modifies.insert(col, value);
            }
        });
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
            let node = pdt.node(sid).cloned().unwrap_or_default();
            out.extend(node.inserts);
            if sid < stable_rows.len() as u64 && !node.deleted {
                let mut row = stable_rows[sid as usize].clone();
                for (col, value) in node.modifies {
                    row[col] = value;
                }
                out.push(row);
            }
        }
        out
    }

    /// Rows inserted before stable tuple `sid`.
    fn inserts_at(pdt: &Pdt, sid: u64) -> usize {
        pdt.node(sid).map_or(0, |node| node.inserts.len())
    }

    /// The test oracle of [`Pdt::rid_to_sid`]: bisects `[0, stable]` for the
    /// largest SID whose first row is at or before `rid`.
    fn bisected_rid_to_sid(pdt: &Pdt, rid: u64, stable: u64) -> Sid {
        let (mut lo, mut hi) = (0u64, stable);
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            if pdt.sid_to_rid_low(Sid::new(mid)).raw() <= rid {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        Sid::new(lo)
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

    /// On an empty PDT `rid_to_sid` gives what the bisection oracle gives,
    /// past the end of the stream included, for stable images of 0, 1 and a
    /// few tuples.
    #[test]
    fn empty_pdt_rid_to_sid_matches_the_search() {
        let pdt = Pdt::new(2);
        for stable in [0u64, 1, 2, 7, 64] {
            for rid in 0..=stable + 2 {
                assert_eq!(
                    pdt.rid_to_sid(Rid::new(rid), stable),
                    bisected_rid_to_sid(&pdt, rid, stable),
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

    /// Every entry's anchor and running counts from the start, checking that
    /// no block is empty or over `2 * BLOCK` entries.
    fn flat_index(pdt: &Pdt) -> Vec<(u64, (u64, u64))> {
        let mut flat = Vec::new();
        for blk in &pdt.blocks {
            assert!(
                (1..=2 * BLOCK).contains(&blk.entries.len()),
                "block of {}",
                blk.entries.len()
            );
            flat.extend(blk.entries.iter().map(|e| (e.sid, blk.through(e))));
        }
        flat
    }

    /// The running counts recomputed from the nodes: what every update must
    /// leave.
    fn rebuilt_index(pdt: &Pdt) -> Vec<(u64, (u64, u64))> {
        let (mut inserts_incl, mut deletes_incl) = (0, 0);
        pdt.nodes_from(0)
            .map(|(sid, node)| {
                inserts_incl += node.inserts.len() as u64;
                deletes_incl += u64::from(node.deleted);
                (sid, (inserts_incl, deletes_incl))
            })
            .collect()
    }

    /// Random inserts, deletes and modifies against the reference model over
    /// several seeds. After every operation the merged stream equals the
    /// model, the running counts, the modified-cell count and the node count
    /// equal ones recomputed from the nodes, and every visible row
    /// round-trips through `locate` and the SID-to-RID translations.
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
                        let inserted = offset < inserts_at(&pdt, sid);
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
                let nodes = pdt.nodes_from(0).count();
                assert_eq!(pdt.stats().nodes, nodes as u64, "{context}");
                assert_eq!(merged(&pdt, &base), model.rows, "{context}");
                for rid in 0..pdt.visible_count(n) {
                    let (sid, offset) = pdt.locate(Rid::new(rid), n);
                    let low = pdt.sid_to_rid_low(Sid::new(sid)).raw();
                    let high = pdt.sid_to_rid_high(Sid::new(sid)).raw();
                    assert_eq!(low + offset as u64, rid, "{context}, rid {rid}");
                    assert!(high >= rid, "{context}, rid {rid} past [{low},{high}]");
                    assert!(
                        offset < inserts_at(&pdt, sid)
                            || (sid < n && !pdt.node(sid).is_some_and(|node| node.deleted)),
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

    /// The two-level running counts equal their rebuild after every one of
    /// thousands of random operations over 3 000 stable tuples, through
    /// block splits and the drop of emptied blocks, and `rid_to_sid` equals
    /// the bisection oracle around every block's first and last anchor and
    /// past the end of the stream. Rows anchored in the lower half of
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
                let ends = pdt
                    .blocks
                    .iter()
                    .flat_map(|blk| [&blk.entries[0], &blk.entries[blk.entries.len() - 1]]);
                let rids = ends.flat_map(|e| {
                    let low = pdt.sid_to_rid_low(Sid::new(e.sid)).raw();
                    low.saturating_sub(1)..low + e.node.inserts.len() as u64 + 2
                });
                let visible = pdt.visible_count(n);
                for rid in rids.chain(visible..visible + 3) {
                    let sid = pdt.rid_to_sid(Rid::new(rid), n);
                    let oracle = bisected_rid_to_sid(pdt, rid, n);
                    assert_eq!(sid, oracle, "{context}, rid {rid}");
                }
                most_blocks = most_blocks.max(pdt.blocks.len());
                if pdt.blocks.len() < blocks_before {
                    emptied += 1;
                }
            };
            for step in 0..6_000u64 {
                rng = splitmix64(rng ^ step);
                let visible = pdt.visible_count(n);
                let pos = rng.rotate_left(17) % visible;
                let (sid, offset) = pdt.locate(Rid::new(pos), n);
                let inserted = offset < inserts_at(&pdt, sid);
                let blocks_before = pdt.blocks.len();
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
                let blocks_before = pdt.blocks.len();
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
