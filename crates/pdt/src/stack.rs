//! Stacked PDTs: differences on differences.
//!
//! Vectorwise keeps three PDT layers per table (Section 2.1): a large
//! *read-optimized* PDT shared by all transactions, a smaller *shared* PDT,
//! and a tiny *trans-private* PDT per snapshot. Only the top-most layer is
//! private; the lower layers are shared, which keeps the memory cost of
//! snapshot isolation low.
//!
//! The positions stored in layer `k` refer to the output (RID space) of layer
//! `k-1`, so reads *compose* the layers: translation goes through every layer
//! and the merged stream of layer `k-1` acts as the "stable" input of layer
//! `k`. [`PdtStack::absorb_top`] folds a transaction's private layer into
//! the top one when it commits.
//!
//! Layers are `Arc`s, copied on write: cloning a stack shares every layer,
//! and [`PdtStack::absorb_top`] / [`PdtStack::top_mut`] clone the top layer
//! only while someone else holds it. [`PdtStack::flatten`] of a one-layer
//! stack is that layer itself, O(1); a scan holding it makes the next commit
//! copy the top layer once, and nothing else is copied.

use std::sync::Arc;

use scanshare_common::{Result, Rid, Sid, TupleRange};
use scanshare_storage::datagen::Value;

use crate::merge::{merge_columns, MergeCursor, StableSource};
use crate::pdt::Pdt;

/// A stack of PDT layers. `layers[0]` is closest to stable storage; the last
/// layer is the top (most recent, typically transaction-private) one.
#[derive(Debug, Clone)]
pub struct PdtStack {
    column_count: usize,
    layers: Vec<Arc<Pdt>>,
}

impl PdtStack {
    /// Creates a stack of `depth` empty layers (Vectorwise uses three).
    pub fn new(column_count: usize, depth: usize) -> Self {
        assert!(depth >= 1, "a stack needs at least one layer");
        Self {
            column_count,
            layers: (0..depth)
                .map(|_| Arc::new(Pdt::new(column_count)))
                .collect(),
        }
    }

    /// Number of table columns.
    pub fn column_count(&self) -> usize {
        self.column_count
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Immutable access to a layer (0 = closest to stable storage).
    pub fn layer(&self, i: usize) -> &Pdt {
        &self.layers[i]
    }

    /// Mutable access to the top (private) layer, where new updates land;
    /// clones the layer first if another stack or a scan still holds it.
    pub fn top_mut(&mut self) -> &mut Pdt {
        Arc::make_mut(self.layers.last_mut().expect("depth >= 1"))
    }

    /// Immutable access to the top layer.
    pub fn top(&self) -> &Pdt {
        self.layers.last().expect("depth >= 1")
    }

    /// Number of rows visible after all layers are applied.
    pub fn visible_count(&self, stable_tuples: u64) -> u64 {
        visible_through(&self.layers, stable_tuples)
    }

    /// Visible count after applying only the first `upto` layers.
    fn visible_below(&self, stable_tuples: u64, upto: usize) -> u64 {
        visible_through(&self.layers[..upto], stable_tuples)
    }

    /// Translates a top-level RID down to the stable SID it is anchored at,
    /// going through every layer.
    pub fn rid_to_sid(&self, rid: Rid, stable_tuples: u64) -> Sid {
        let mut pos = rid.raw();
        for (i, layer) in self.layers.iter().enumerate().rev() {
            let below = self.visible_below(stable_tuples, i);
            pos = layer.rid_to_sid(Rid::new(pos), below).raw();
        }
        Sid::new(pos)
    }

    /// Lowest top-level RID anchored at stable position `sid`.
    pub fn sid_to_rid_low(&self, sid: Sid) -> Rid {
        let mut pos = sid.raw();
        for layer in &self.layers {
            pos = layer.sid_to_rid_low(Sid::new(pos)).raw();
        }
        Rid::new(pos)
    }

    /// Highest top-level RID anchored at stable position `sid`.
    pub fn sid_to_rid_high(&self, sid: Sid) -> Rid {
        let mut pos = sid.raw();
        for layer in &self.layers {
            pos = layer.sid_to_rid_high(Sid::new(pos)).raw();
        }
        Rid::new(pos)
    }

    /// Inserts a row at top-level position `rid`.
    pub fn insert(&mut self, rid: Rid, row: Vec<Value>, stable_tuples: u64) -> Result<()> {
        let below = self.visible_below(stable_tuples, self.layers.len() - 1);
        self.top_mut().insert(rid, row, below)
    }

    /// Deletes the visible row at top-level position `rid`.
    pub fn delete(&mut self, rid: Rid, stable_tuples: u64) -> Result<()> {
        let below = self.visible_below(stable_tuples, self.layers.len() - 1);
        self.top_mut().delete(rid, below)
    }

    /// Modifies column `col` of the visible row at top-level position `rid`.
    pub fn modify(&mut self, rid: Rid, col: usize, value: Value, stable_tuples: u64) -> Result<()> {
        let below = self.visible_below(stable_tuples, self.layers.len() - 1);
        self.top_mut().modify(rid, col, value, below)
    }

    /// Merges the whole stack over `source` for a top-level RID range,
    /// projecting `columns`, into one vector per projected column. Every
    /// layer runs the columnar merge with the merged output of the layers
    /// below it as its stable input.
    pub fn merge_columns(
        &self,
        source: &mut dyn StableSource,
        columns: &[usize],
        rid_range: TupleRange,
    ) -> Result<Vec<Vec<Value>>> {
        let (top, lower) = self.layers.split_last().expect("depth >= 1");
        let mut below = StackSource {
            layers: lower,
            source,
        };
        merge_columns(top, &mut below, columns, rid_range)
    }

    /// Whether every layer is empty (no pending differences at all).
    pub fn is_empty(&self) -> bool {
        self.layers.iter().all(|layer| layer.is_empty())
    }

    /// Pushes `layer` as the new top (most private) layer. Its positions must
    /// refer to the output stream of the current stack.
    ///
    /// # Panics
    /// Panics when `layer` was built for a different column count.
    pub fn push_layer(&mut self, layer: Pdt) {
        assert_eq!(
            layer.column_count(),
            self.column_count,
            "layer column count must match the stack"
        );
        self.layers.push(Arc::new(layer));
    }

    /// Pops and returns the top layer. Returns `None` when only one layer is
    /// left (a stack never goes below depth 1).
    pub fn pop_layer(&mut self) -> Option<Arc<Pdt>> {
        if self.layers.len() <= 1 {
            return None;
        }
        self.layers.pop()
    }

    /// Folds `upper` — whose positions refer to the output stream of this
    /// stack — into the top layer, so the stack alone now produces the
    /// stream `self` followed by `upper` would. This is the commit operation
    /// of a snapshot-isolated transaction: the transaction's private PDT is
    /// absorbed into the shared top layer.
    pub fn absorb_top(&mut self, upper: &Pdt, stable_tuples: u64) -> Result<()> {
        let below = self.visible_below(stable_tuples, self.layers.len() - 1);
        compose_into(self.top_mut(), upper, below)
    }

    /// Shares the layers above index `at` (exclusive of the bottom `at`
    /// layers) in a new stack. Used after a checkpoint: the bottom layers
    /// were materialized into a new stable image, and the layers above them
    /// — anchored on exactly that image's visible stream — carry on as the
    /// table's live differences. Returns a single empty layer when `at`
    /// covers the whole stack.
    pub fn split_upper(&self, at: usize) -> PdtStack {
        let layers = self.layers[at.min(self.layers.len())..].to_vec();
        if layers.is_empty() {
            return PdtStack::new(self.column_count, 1);
        }
        Self {
            column_count: self.column_count,
            layers,
        }
    }

    /// Flattens every layer into a single equivalent PDT (what scans merge
    /// with and checkpoints materialize). For a one-layer stack that is the
    /// layer itself, shared in O(1): the next commit copies it on write.
    /// Deeper stacks (a checkpoint window) compose a new PDT.
    ///
    /// The combined PDT stays anchored directly on stable storage, so every
    /// composition step passes the same `stable_tuples` count.
    pub fn flatten(&self, stable_tuples: u64) -> Result<Arc<Pdt>> {
        let mut combined = Arc::clone(&self.layers[0]);
        for layer in &self.layers[1..] {
            compose_into(Arc::make_mut(&mut combined), layer, stable_tuples)?;
        }
        Ok(combined)
    }
}

/// Rows visible after applying `layers`, bottom first, over `stable_tuples`.
fn visible_through(layers: &[Arc<Pdt>], stable_tuples: u64) -> u64 {
    layers
        .iter()
        .fold(stable_tuples, |acc, layer| layer.visible_count(acc))
}

/// Applies every update of `upper` (whose positions live in the output space
/// of `lower`) onto `lower`, so that `lower` alone produces the same visible
/// stream as `lower` followed by `upper`.
///
/// Updates are replayed in descending position order: edits at a position
/// never disturb the meaning of positions smaller than it, so later (smaller)
/// replays still refer to the correct rows.
fn compose_into(lower: &mut Pdt, upper: &Pdt, lower_stable: u64) -> Result<()> {
    let lower_visible = lower.visible_count(lower_stable);
    let anchors: Vec<u64> = upper.anchors_in(0, u64::MAX).collect();
    for &anchor in anchors.iter().rev() {
        // 1. Delete / modify of the row at position `anchor` (a position in
        //    lower's output space).
        if upper.node_deleted(anchor) {
            lower.delete(Rid::new(anchor), lower_stable)?;
        } else {
            for col in 0..upper.column_count() {
                if let Some(v) = upper.node_modify(anchor, col) {
                    lower.modify(Rid::new(anchor), col, v, lower_stable)?;
                }
            }
        }
        // 2. Rows inserted before position `anchor`, preserving their order.
        let inserts = upper.node_inserts(anchor);
        for i in 0..inserts {
            let row = upper
                .node_insert_row(anchor, i)
                .expect("i < inserts")
                .clone();
            let pos = (anchor + i as u64).min(lower_visible + i as u64);
            lower.insert(Rid::new(pos), row, lower_stable)?;
        }
    }
    Ok(())
}

/// A [`StableSource`] producing the merged output of `layers` over `source`:
/// the stable input of the layer above them.
struct StackSource<'a> {
    layers: &'a [Arc<Pdt>],
    source: &'a mut dyn StableSource,
}

impl StableSource for StackSource<'_> {
    fn stable_tuples(&self) -> u64 {
        visible_through(self.layers, self.source.stable_tuples())
    }

    fn fill(&mut self, columns: &[usize], sids: TupleRange, out: &mut [Vec<Value>]) -> Result<()> {
        let Some((top, lower)) = self.layers.split_last() else {
            return self.source.fill(columns, sids, out);
        };
        let mut below = StackSource {
            layers: lower,
            source: &mut *self.source,
        };
        let mut cursor = MergeCursor::seek(top, below.stable_tuples(), sids);
        cursor.merge(top, &mut below, columns, u64::MAX, out)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::tests::to_rows;
    use crate::merge::{merge_range, SliceSource};

    fn source(n: u64) -> SliceSource {
        SliceSource::generate(2, n, |c, s| (s * 10 + c as u64) as Value)
    }

    /// The layered columnar merge of `range`, as rows.
    fn merged(stack: &PdtStack, n: u64, columns: &[usize], range: TupleRange) -> Vec<Vec<Value>> {
        to_rows(&stack.merge_columns(&mut source(n), columns, range).unwrap())
    }

    #[test]
    fn single_layer_stack_behaves_like_a_pdt() {
        let n = 10;
        let mut stack = PdtStack::new(2, 1);
        stack.insert(Rid::new(2), vec![-1, -2], n).unwrap();
        stack.delete(Rid::new(5), n).unwrap();
        let mut pdt = Pdt::new(2);
        pdt.insert(Rid::new(2), vec![-1, -2], n).unwrap();
        pdt.delete(Rid::new(5), n).unwrap();
        assert_eq!(
            merged(&stack, n, &[0, 1], TupleRange::new(0, 100)),
            merge_range(&pdt, source(n), &[0, 1], TupleRange::new(0, 100))
        );
        assert_eq!(stack.visible_count(n), pdt.visible_count(n));
    }

    #[test]
    fn updates_land_in_the_top_layer_only() {
        let n = 10;
        let mut stack = PdtStack::new(2, 3);
        stack.insert(Rid::new(0), vec![1, 1], n).unwrap();
        assert!(stack.layer(0).is_empty());
        assert!(stack.layer(1).is_empty());
        assert_eq!(stack.top().stats().inserts, 1);
    }

    #[test]
    fn stacked_layers_compose_for_reads() {
        let n = 10;
        let mut stack = PdtStack::new(2, 1);
        // Layer 0 (shared): delete stable row 0.
        stack.delete(Rid::new(0), n).unwrap();
        stack.push_layer(Pdt::new(2));
        assert_eq!(stack.layer(0).stats().deletes, 1);
        // Layer 1 (private): insert at the new position 0.
        stack.insert(Rid::new(0), vec![-5, -6], n).unwrap();
        let rows = merged(&stack, n, &[0, 1], TupleRange::new(0, 3));
        assert_eq!(rows, vec![vec![-5, -6], vec![10, 11], vec![20, 21]]);
        assert_eq!(stack.visible_count(n), 10);
    }

    #[test]
    fn translation_composes_through_layers() {
        let n = 10;
        let mut stack = PdtStack::new(2, 1);
        stack.insert(Rid::new(3), vec![0, 0], n).unwrap();
        stack.push_layer(Pdt::new(2));
        stack.insert(Rid::new(0), vec![1, 1], n).unwrap();
        // Visible: [ins(1,1)], s0, s1, s2, [ins(0,0)], s3, ...
        assert_eq!(stack.rid_to_sid(Rid::new(0), n), Sid::new(0));
        assert_eq!(stack.rid_to_sid(Rid::new(1), n), Sid::new(0));
        assert_eq!(stack.rid_to_sid(Rid::new(4), n), Sid::new(3));
        assert_eq!(stack.rid_to_sid(Rid::new(5), n), Sid::new(3));
        assert_eq!(stack.sid_to_rid_low(Sid::new(0)), Rid::new(0));
        assert_eq!(stack.sid_to_rid_high(Sid::new(0)), Rid::new(1));
        assert_eq!(stack.sid_to_rid_low(Sid::new(3)), Rid::new(4));
        assert_eq!(stack.sid_to_rid_high(Sid::new(3)), Rid::new(5));
    }

    #[test]
    fn flatten_produces_equivalent_single_pdt() {
        let n = 15;
        let mut stack = PdtStack::new(2, 1);
        stack.insert(Rid::new(3), vec![-1, -2], n).unwrap();
        stack.push_layer(Pdt::new(2));
        stack.delete(Rid::new(0), n).unwrap();
        stack.modify(Rid::new(5), 0, 500, n).unwrap();
        stack.push_layer(Pdt::new(2));
        stack.insert(Rid::new(7), vec![-3, -4], n).unwrap();

        let flat = stack.flatten(n).unwrap();
        assert_eq!(
            merge_range(&flat, source(n), &[0, 1], TupleRange::new(0, 100)),
            merged(&stack, n, &[0, 1], TupleRange::new(0, 100))
        );
        assert_eq!(flat.visible_count(n), stack.visible_count(n));
    }

    #[test]
    fn partial_range_merge_through_stack_matches_slice_of_full() {
        let n = 25;
        let mut stack = PdtStack::new(2, 1);
        for i in 0..5 {
            stack
                .insert(Rid::new(i * 5), vec![-(i as Value), 0], n)
                .unwrap();
        }
        stack.push_layer(Pdt::new(2));
        stack.delete(Rid::new(3), n).unwrap();
        let full = merged(&stack, n, &[0], TupleRange::new(0, 1000));
        let part = merged(&stack, n, &[0], TupleRange::new(10, 20));
        assert_eq!(part.as_slice(), &full[10..20]);
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn zero_depth_stack_is_rejected() {
        let _ = PdtStack::new(1, 0);
    }

    #[test]
    fn absorb_top_matches_a_transactions_private_layer() {
        use scanshare_storage::datagen::splitmix64;
        // A transaction works on base + private; committing via absorb_top
        // must produce the same stream the layered stack showed.
        let n = 20;
        let mut base = PdtStack::new(2, 1);
        base.insert(Rid::new(3), vec![-1, -1], n).unwrap();
        base.delete(Rid::new(10), n).unwrap();

        let mut work = base.clone();
        work.push_layer(Pdt::new(2));
        work.insert(Rid::new(0), vec![-9, -9], n).unwrap();
        work.modify(Rid::new(5), 1, 42, n).unwrap();
        let expected = merged(&work, n, &[0, 1], TupleRange::new(0, 100));

        let private = work.pop_layer().expect("depth 2");
        base.absorb_top(&private, n).unwrap();
        assert_eq!(base.depth(), 1);
        assert_eq!(merged(&base, n, &[0, 1], TupleRange::new(0, 100)), expected);
        assert_eq!(base.visible_count(n), expected.len() as u64);

        // The auto-commit path: hundreds of one-op private layers absorbed
        // one at a time give the stream of the same ops applied to one
        // layer, and so does absorbing them into the extra top layer a
        // checkpoint pushes, read through the layers and through `flatten`.
        let all = TupleRange::new(0, u64::MAX);
        let mut direct = base;
        let mut auto = direct.clone();
        let mut window = direct.clone();
        window.push_layer(Pdt::new(2));
        let mut rng = 0xab50_4b1d_u64;
        for step in 0..300u64 {
            rng = splitmix64(rng ^ step);
            let visible = direct.visible_count(n);
            let pos = rng.rotate_left(17) % visible.max(1);
            let value = -(step as Value) - 10;
            let mut private = Pdt::new(2);
            match rng % 3 {
                0 => {
                    let pos = rng.rotate_left(29) % (visible + 1);
                    direct.insert(Rid::new(pos), vec![value, value], n).unwrap();
                    private
                        .insert(Rid::new(pos), vec![value, value], visible)
                        .unwrap();
                }
                1 if visible > 0 => {
                    direct.delete(Rid::new(pos), n).unwrap();
                    private.delete(Rid::new(pos), visible).unwrap();
                }
                _ if visible > 0 => {
                    let col = (rng >> 9) as usize % 2;
                    direct.modify(Rid::new(pos), col, value, n).unwrap();
                    private.modify(Rid::new(pos), col, value, visible).unwrap();
                }
                _ => continue,
            }
            auto.absorb_top(&private, n).unwrap();
            window.absorb_top(&private, n).unwrap();
            if step % 50 == 49 {
                let expected = merged(&direct, n, &[0, 1], all);
                assert_eq!(merged(&auto, n, &[0, 1], all), expected, "step {step}");
                assert_eq!(merged(&window, n, &[0, 1], all), expected, "step {step}");
                let flat = window.flatten(n).unwrap();
                assert_eq!(
                    merge_range(&flat, source(n), &[0, 1], all),
                    expected,
                    "step {step}"
                );
                assert_eq!(auto.top().stats(), direct.top().stats(), "step {step}");
            }
        }
        assert_eq!(auto.visible_count(n), direct.visible_count(n));
    }

    #[test]
    fn pop_layer_never_empties_the_stack() {
        let mut stack = PdtStack::new(1, 1);
        assert!(stack.pop_layer().is_none());
        stack.push_layer(Pdt::new(1));
        assert!(stack.pop_layer().is_some());
        assert_eq!(stack.depth(), 1);
    }

    #[test]
    fn split_upper_keeps_the_during_checkpoint_layers() {
        let n = 10;
        let mut stack = PdtStack::new(2, 1);
        stack.delete(Rid::new(0), n).unwrap(); // frozen by the checkpoint
        stack.push_layer(Pdt::new(2)); // pushed at checkpoint begin
        stack.insert(Rid::new(0), vec![7, 7], n).unwrap(); // committed mid-checkpoint
        let upper = stack.split_upper(1);
        assert_eq!(upper.depth(), 1);
        assert_eq!(upper.top().stats().inserts, 1);
        assert_eq!(upper.top().stats().deletes, 0);
        // Splitting past the end yields a fresh empty stack.
        assert!(stack.split_upper(99).is_empty());
        assert!(!stack.is_empty());
        assert!(PdtStack::new(2, 3).is_empty());
        assert_eq!(stack.depth(), 2);
    }

    #[test]
    #[should_panic(expected = "column count")]
    fn push_layer_rejects_mismatched_columns() {
        let mut stack = PdtStack::new(2, 1);
        stack.push_layer(Pdt::new(3));
    }
}
