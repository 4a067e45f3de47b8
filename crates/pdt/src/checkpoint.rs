//! PDT checkpoints: migrating in-memory differences to a new stable image.
//!
//! When PDT memory grows too large, its contents are migrated to disk by
//! scanning the table, merging the PDT changes and writing the result as a
//! brand-new version of the table (Figure 7 of the paper). The new master
//! snapshot shares **no** pages with the old one; transactions still running
//! on the old snapshot keep reading the old pages until they finish.

use std::sync::Arc;

use scanshare_common::{Result, TableId, TupleRange};
use scanshare_storage::datagen::Value;
use scanshare_storage::layout::TableLayout;
use scanshare_storage::snapshot::Snapshot;
use scanshare_storage::storage::Storage;

use crate::merge::{merge_columns, StableSource};
use crate::pdt::Pdt;
use crate::stack::PdtStack;

/// The stable image of one snapshot, read straight from storage: every run
/// the merge asks for is copied out of the pages that hold it.
struct SnapshotSource<'a> {
    storage: &'a Storage,
    layout: &'a TableLayout,
    snapshot: &'a Snapshot,
}

impl StableSource for SnapshotSource<'_> {
    fn stable_tuples(&self) -> u64 {
        self.snapshot.stable_tuples()
    }

    fn fill(&mut self, columns: &[usize], sids: TupleRange, out: &mut [Vec<Value>]) -> Result<()> {
        for (&col, out) in columns.iter().zip(out) {
            self.storage
                .read_range_into(self.layout, self.snapshot, col, sids, out)?;
        }
        Ok(())
    }
}

/// Scans `snapshot` of `table`, merges `pdt`, and installs the merged result
/// as a new checkpointed master snapshot. Returns the new snapshot.
///
/// The merge is the scans' columnar one, run a column at a time: the only
/// full-size buffers are the new image's own columns.
///
/// The installation is a compare-and-swap against `snapshot`: if the
/// table's master changed while the merge ran (a concurrent bulk append
/// committed), the checkpoint fails with
/// [`Error::TransactionConflict`](scanshare_common::Error::TransactionConflict)
/// instead of silently discarding the appended rows; retry against the new
/// master.
pub fn checkpoint_table(
    storage: &Arc<Storage>,
    table: TableId,
    snapshot: &Snapshot,
    pdt: &Pdt,
) -> Result<Arc<Snapshot>> {
    let layout = storage.layout(table)?;
    let visible = pdt.visible_count(snapshot.stable_tuples());
    let mut source = SnapshotSource {
        storage,
        layout: &layout,
        snapshot,
    };
    let new_values = (0..layout.column_count())
        .map(|col| {
            let merged = merge_columns(pdt, &mut source, &[col], TupleRange::new(0, visible))?;
            Ok(merged.into_iter().next().expect("one projected column"))
        })
        .collect::<Result<Vec<_>>>()?;
    storage.install_checkpoint(table, snapshot.id(), new_values)
}

/// Checkpoints a full [`PdtStack`] by flattening it into a single PDT first.
/// After the checkpoint the caller should replace its stack with a fresh,
/// empty one anchored on the returned snapshot.
pub fn checkpoint_stack(
    storage: &Arc<Storage>,
    table: TableId,
    snapshot: &Snapshot,
    stack: &PdtStack,
) -> Result<Arc<Snapshot>> {
    let flat = stack.flatten(snapshot.stable_tuples())?;
    checkpoint_table(storage, table, snapshot, &flat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanshare_common::Rid;
    use scanshare_storage::column::{ColumnSpec, ColumnType};
    use scanshare_storage::datagen::DataGen;
    use scanshare_storage::table::TableSpec;

    fn setup(base: u64) -> (Arc<Storage>, TableId) {
        let storage = Storage::with_seed(1024, 500, 3);
        let spec = TableSpec::new(
            "t",
            vec![
                ColumnSpec::with_width("a", ColumnType::Int64, 8.0),
                ColumnSpec::with_width("b", ColumnType::Int64, 4.0),
            ],
            base,
        );
        let id = storage
            .create_table_with_data(
                spec,
                vec![
                    DataGen::Sequential { start: 0, step: 1 },
                    DataGen::Constant(7),
                ],
            )
            .unwrap();
        (storage, id)
    }

    #[test]
    fn checkpoint_materializes_merged_data_in_new_pages() {
        let (storage, table) = setup(1000);
        let layout = storage.layout(table).unwrap();
        let old = storage.master_snapshot(table).unwrap();

        let mut pdt = Pdt::new(2);
        pdt.delete(Rid::new(0), 1000).unwrap();
        pdt.insert(Rid::new(10), vec![-5, -6], 1000).unwrap();
        pdt.modify(Rid::new(500), 1, 999, 1000).unwrap();

        let new = checkpoint_table(&storage, table, &old, &pdt).unwrap();
        assert_eq!(new.stable_tuples(), 1000); // -1 delete +1 insert
        assert_eq!(old.common_prefix_pages(&new).iter().sum::<usize>(), 0);
        assert_eq!(storage.master_snapshot(table).unwrap().id(), new.id());

        // Row 0 of the new image is old stable tuple 1 (tuple 0 was deleted).
        let head = storage
            .read_range(&layout, &new, 0, TupleRange::new(0, 3))
            .unwrap();
        assert_eq!(head, vec![1, 2, 3]);
        // The inserted row shows up at position 10.
        let ins = storage
            .read_range(&layout, &new, 0, TupleRange::new(10, 11))
            .unwrap();
        assert_eq!(ins, vec![-5]);
        // The modification is applied (old RID 500 shifted: delete at 0 and
        // insert at 10 cancel out for positions past 10, so it is still 500).
        let modified = storage
            .read_range(&layout, &new, 1, TupleRange::new(500, 501))
            .unwrap();
        assert_eq!(modified, vec![999]);

        // The old snapshot still reads pre-checkpoint data.
        let old_head = storage
            .read_range(&layout, &old, 0, TupleRange::new(0, 3))
            .unwrap();
        assert_eq!(old_head, vec![0, 1, 2]);
    }

    #[test]
    fn checkpoint_of_empty_pdt_copies_the_table() {
        let (storage, table) = setup(300);
        let layout = storage.layout(table).unwrap();
        let old = storage.master_snapshot(table).unwrap();
        let new = checkpoint_table(&storage, table, &old, &Pdt::new(2)).unwrap();
        assert_eq!(new.stable_tuples(), 300);
        let a = storage
            .read_range(&layout, &new, 0, TupleRange::new(0, 300))
            .unwrap();
        let b = storage
            .read_range(&layout, &old, 0, TupleRange::new(0, 300))
            .unwrap();
        assert_eq!(a, b);
        assert!(!new.same_pages(&old));
    }

    #[test]
    fn checkpoint_stack_flattens_layers() {
        let (storage, table) = setup(200);
        let layout = storage.layout(table).unwrap();
        let old = storage.master_snapshot(table).unwrap();

        let mut stack = PdtStack::new(2, 1);
        stack.insert(Rid::new(0), vec![-1, -1], 200).unwrap();
        stack.push_layer(Pdt::new(2));
        stack.delete(Rid::new(5), 200).unwrap();

        let new = checkpoint_stack(&storage, table, &old, &stack).unwrap();
        assert_eq!(new.stable_tuples(), 200);
        let head = storage
            .read_range(&layout, &new, 0, TupleRange::new(0, 6))
            .unwrap();
        // Visible stream: [-1], 0, 1, 2, 3, (4 deleted at visible pos 5), 5...
        assert_eq!(head, vec![-1, 0, 1, 2, 3, 5]);
    }
}
