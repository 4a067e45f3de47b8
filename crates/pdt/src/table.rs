//! The update state of one table, shared by every executor.
//!
//! Vectorwise gives every transaction a consistent pair of (storage
//! snapshot, PDT layer stack) and keeps the transaction's own updates in a
//! tiny private PDT on top of the shared layers (Section 2.1; Héman et al.,
//! SIGMOD 2010). This module is that per-table algebra as plain data:
//! [`TableState`] is the **published** `(Snapshot, PdtStack, commit_seq,
//! epoch)` of a table, [`TablePin`] an immutable view of it, [`TableWrites`]
//! the **private** layer of one writer over a pin.
//!
//! No locks, no log, no buffer manager here. The execution engine wraps a
//! `TableState` in a mutex and adds what is its own — id-ordered
//! multi-table locking, the WAL append before [`TableState::apply`] and the
//! fsync after the locks drop, checkpoint markers, stale-page invalidation
//! of its scan backend. The simulator runs its workloads on an engine of its
//! own, through the same update barrier as the engine's workload driver,
//! which is why both executors pin identical pairs for the same update
//! history.

use std::sync::Arc;

use scanshare_common::{Error, PageId, Result, Rid, TableId};
use scanshare_storage::datagen::Value;
use scanshare_storage::snapshot::Snapshot;
use scanshare_storage::storage::Storage;

use crate::pdt::Pdt;
use crate::stack::PdtStack;
use crate::wal::CommitTableRecord;

/// A consistent view of one table: the storage snapshot and PDT layer stack
/// a scan or transaction works against, captured atomically from the
/// table's published state.
///
/// Pins are cheap (two `Arc` clones) and immutable: updates committed after
/// the pin was taken swap the published `Arc`s and never mutate the pinned
/// ones.
#[derive(Debug, Clone)]
pub struct TablePin {
    /// The pinned table.
    pub table: TableId,
    /// The stable storage image the stack is anchored on.
    pub snapshot: Arc<Snapshot>,
    /// The differential-update layers visible to this pin (bottom layer
    /// anchored directly on `snapshot`).
    pub stack: Arc<PdtStack>,
    /// The table's commit sequence number when the pin was taken; used for
    /// first-committer-wins conflict detection.
    pub commit_seq: u64,
    /// The table's checkpoint epoch when the pin was taken.
    pub epoch: u64,
}

impl TablePin {
    /// Number of rows visible through this pin.
    pub fn visible_rows(&self) -> u64 {
        self.stack.visible_count(self.snapshot.stable_tuples())
    }

    /// Flattens the pinned layer stack into a single equivalent [`Pdt`]
    /// anchored directly on the pinned snapshot (what a scan operator merges
    /// with). Outside a checkpoint window the stack has one layer and this is
    /// that layer, shared in O(1); the table's next commit copies it on write
    /// ([`PdtStack::flatten`]).
    pub fn flatten(&self) -> Result<Arc<Pdt>> {
        self.stack.flatten(self.snapshot.stable_tuples())
    }
}

/// The published transactional state of one table: an immutable
/// `(Snapshot, PdtStack)` pair that scans and transactions pin with two
/// `Arc` clones, replaced — never mutated in place while pinned — by
/// commits, checkpoints and storage-append adoption.
#[derive(Debug)]
pub struct TableState {
    table: TableId,
    /// The stable storage image the stack is anchored on (the adopted master
    /// snapshot; see [`TableState::adopt_master`] for when it diverges from
    /// the storage-level master).
    snapshot: Arc<Snapshot>,
    /// The shared differential-update layers (depth 1 normally; a second,
    /// fresh top layer exists between `freeze` and `install`/`thaw`).
    stack: Arc<PdtStack>,
    /// Moved by every committed write (transactions, auto-commit updates,
    /// replayed records and adopted bulk appends); the
    /// first-committer-wins conflict check compares against it.
    commit_seq: u64,
    /// Bumped by every installed checkpoint; tags the stale-page
    /// invalidations sent to the scan backend.
    epoch: u64,
}

impl TableState {
    /// Opens the state of `table` from the current storage master snapshot,
    /// with no pending updates.
    ///
    /// The commit sequence starts at the WAL sequence the durable image
    /// already covers (0 for in-memory tables), so replay after
    /// `Storage::open_directory` can tell folded-in commits from the ones
    /// it must re-apply.
    pub fn open(storage: &Storage, table: TableId) -> Result<Self> {
        let columns = storage.table(table)?.spec.columns.len();
        Ok(Self {
            table,
            snapshot: storage.master_snapshot(table)?,
            stack: Arc::new(PdtStack::new(columns, 1)),
            commit_seq: storage.durable_wal_seq(table),
            epoch: 0,
        })
    }

    /// Pins the current published pair: the consistent view every scan (and
    /// every writer, at its first touch of the table) works against.
    pub fn pin(&self) -> TablePin {
        TablePin {
            table: self.table,
            snapshot: Arc::clone(&self.snapshot),
            stack: Arc::clone(&self.stack),
            commit_seq: self.commit_seq,
            epoch: self.epoch,
        }
    }

    fn visible_rows(&self) -> u64 {
        self.stack.visible_count(self.snapshot.stable_tuples())
    }

    /// The sequence number the next committed write of this table takes.
    fn next_commit_seq(&self) -> u64 {
        self.commit_seq + 1
    }

    /// Adopts a storage-level master change (a committed bulk append, or a
    /// checkpoint installed by another owner of the same storage) when it is
    /// safe: always when no differential updates are pending, and for
    /// append-derived snapshots — whose stable stream extends the adopted
    /// one — even with pending updates, which are then interpreted over the
    /// appended image. Adoption counts as a commit (the visible stream
    /// changed), so open transactions conflict.
    pub fn adopt_master(&mut self, storage: &Storage) -> Result<()> {
        let master = storage.master_snapshot(self.table)?;
        if master.id() == self.snapshot.id() {
            return Ok(());
        }
        if self.stack.is_empty() || master.derives_from(self.snapshot.id()) {
            self.snapshot = master;
            self.commit_seq = self.next_commit_seq();
        }
        Ok(())
    }

    /// Turns a writer's private layer into the record that commits it, with
    /// first-committer-wins semantics: if anything committed to the table
    /// (another writer, or an adopted bulk append) since `writes` pinned it,
    /// the result is [`Error::TransactionConflict`]. A write set that wrote
    /// nothing never conflicts and produces no record.
    ///
    /// Passing the check means the table's visible stream is exactly the one
    /// the private layer's positions refer to — even if a checkpoint swapped
    /// the underlying representation since the pin (a checkpoint changes the
    /// anchoring, never the stream).
    ///
    /// The record is not applied: a durable caller logs it first, then
    /// hands it to [`TableState::apply`] — without releasing whatever
    /// serializes writers of this table in between.
    pub fn commit_record(&self, writes: TableWrites) -> Result<Option<CommitTableRecord>> {
        if writes.is_read_only() {
            return Ok(None);
        }
        if self.commit_seq != writes.base.commit_seq {
            return Err(Error::TransactionConflict(format!(
                "table {}: commit sequence advanced from {} to {} since the \
                 transaction began (first committer wins)",
                self.table, writes.base.commit_seq, self.commit_seq
            )));
        }
        Ok(Some(CommitTableRecord {
            table: self.table,
            commit_seq: self.next_commit_seq(),
            visible_before: self.visible_rows(),
            pdt: Arc::new(writes.private),
        }))
    }

    /// Folds a committed private layer into the shared top layer
    /// ([`PdtStack::absorb_top`]) and moves the commit sequence to the
    /// record's. Live commits and WAL replay both come through here.
    ///
    /// Records the state already covers (sequence at or below the current
    /// one — a completed checkpoint folded them into the durable image) are
    /// skipped; sequence *gaps* are tolerated — adopted bulk appends move
    /// the live sequence without writing a record — but the logged
    /// pre-commit visible row count must match exactly, which catches a
    /// stale image, a lost append or record misordering as
    /// [`Error::WalCorrupt`] instead of silently diverging.
    pub fn apply(&mut self, record: &CommitTableRecord) -> Result<()> {
        debug_assert_eq!(record.table, self.table);
        if record.commit_seq <= self.commit_seq {
            return Ok(());
        }
        let visible = self.visible_rows();
        if visible != record.visible_before {
            return Err(Error::WalCorrupt(format!(
                "commit {} of table {} expects {} visible rows but the recovered state has {}",
                record.commit_seq, record.table, record.visible_before, visible
            )));
        }
        let stable = self.snapshot.stable_tuples();
        Arc::make_mut(&mut self.stack).absorb_top(&record.pdt, stable)?;
        self.commit_seq = record.commit_seq;
        Ok(())
    }

    /// First step of a checkpoint: pins the current pair — the input of the
    /// materialization, and `commit_seq` is the sequence the new image will
    /// cover — and pushes a fresh top layer. Commits applied until
    /// [`install`](TableState::install) fold into that top layer, whose
    /// positions refer to the frozen stream, which is exactly the new
    /// image's stable stream.
    pub fn freeze(&mut self) -> TablePin {
        let frozen = self.pin();
        Arc::make_mut(&mut self.stack).push_layer(Pdt::new(frozen.stack.column_count()));
        frozen
    }

    /// Undoes a [`freeze`](TableState::freeze) whose materialization failed:
    /// folds the during-checkpoint layer back into the layer it was pushed
    /// onto.
    pub fn thaw(&mut self) -> Result<()> {
        let stable = self.snapshot.stable_tuples();
        let stack = Arc::make_mut(&mut self.stack);
        if let Some(top) = stack.pop_layer() {
            stack.absorb_top(&top, stable)?;
        }
        Ok(())
    }

    /// Last step of a checkpoint: publishes `new_snapshot` — the
    /// materialized image of `frozen` — under exactly the layers pushed
    /// since the freeze, and starts a new epoch. Returns the epoch and the
    /// frozen snapshot's pages, which no later pin can reach, for the
    /// buffer manager's invalidation.
    pub fn install(
        &mut self,
        frozen: &TablePin,
        new_snapshot: Arc<Snapshot>,
    ) -> (u64, Vec<PageId>) {
        self.stack = Arc::new(self.stack.split_upper(frozen.stack.depth()));
        self.snapshot = new_snapshot;
        self.epoch += 1;
        (self.epoch, frozen.snapshot.pages().collect())
    }
}

/// One writer's uncommitted updates to one table: a private PDT layer over
/// the pin captured at first touch. Reads compose the pinned shared layers
/// with the private one; nothing a concurrent committer or checkpointer
/// does is ever visible. Committed through [`TableState::commit_record`];
/// dropping it discards the updates.
#[derive(Debug)]
pub struct TableWrites {
    base: TablePin,
    /// Rows visible through `base`: the stream the private layer's positions
    /// refer to.
    below: u64,
    private: Pdt,
}

impl TableWrites {
    /// An empty private layer over `base`.
    pub fn new(base: TablePin) -> Self {
        Self {
            below: base.visible_rows(),
            private: Pdt::new(base.stack.column_count()),
            base,
        }
    }

    /// The written table.
    pub fn table(&self) -> TableId {
        self.base.table
    }

    /// Number of rows visible to this writer (its own updates included).
    pub fn visible_rows(&self) -> u64 {
        self.private.visible_count(self.below)
    }

    /// Inserts a row at visible position `rid` of this writer's view (use
    /// [`TableWrites::visible_rows`] to append at the end).
    pub fn insert(&mut self, rid: u64, row: Vec<Value>) -> Result<()> {
        self.private.insert(Rid::new(rid), row, self.below)
    }

    /// Deletes the visible row at `rid` of this writer's view.
    pub fn delete(&mut self, rid: u64) -> Result<()> {
        self.private.delete(Rid::new(rid), self.below)
    }

    /// Updates column `col` of the visible row at `rid` of this writer's
    /// view.
    pub fn modify(&mut self, rid: u64, col: usize, value: Value) -> Result<()> {
        self.private.modify(Rid::new(rid), col, value, self.below)
    }

    /// Whether nothing was written.
    pub fn is_read_only(&self) -> bool {
        self.private.is_empty()
    }

    /// A pin of this writer's current view: the base snapshot and shared
    /// layers plus a copy of the private layer. Scans opened from it see
    /// the uncommitted updates.
    pub fn pin(&self) -> TablePin {
        let mut stack = (*self.base.stack).clone();
        stack.push_layer(self.private.clone());
        TablePin {
            stack: Arc::new(stack),
            ..self.base.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::checkpoint_stack;
    use crate::merge::SliceSource;
    use crate::pdt::Node;
    use scanshare_common::TupleRange;
    use scanshare_storage::column::{ColumnSpec, ColumnType};
    use scanshare_storage::datagen::DataGen;
    use scanshare_storage::table::TableSpec;

    fn open(tuples: u64) -> (Arc<Storage>, TableState) {
        let storage = Storage::with_seed(1024, 500, 3);
        let spec = TableSpec::new(
            "t",
            vec![
                ColumnSpec::with_width("a", ColumnType::Int64, 8.0),
                ColumnSpec::with_width("b", ColumnType::Int64, 4.0),
            ],
            tuples,
        );
        let gens = vec![
            DataGen::Sequential { start: 0, step: 1 },
            DataGen::Constant(7),
        ];
        let table = storage.create_table_with_data(spec, gens).unwrap();
        let state = TableState::open(&storage, table).unwrap();
        (storage, state)
    }

    /// Commits `op`'s writes over the current pin.
    fn commit(state: &mut TableState, op: impl FnOnce(&mut TableWrites)) {
        let mut writes = TableWrites::new(state.pin());
        op(&mut writes);
        let record = state.commit_record(writes).unwrap().expect("a write");
        state.apply(&record).unwrap();
    }

    /// The stable image `pin` is anchored on.
    fn stable(storage: &Storage, pin: &TablePin) -> SliceSource {
        let layout = storage.layout(pin.table).unwrap();
        let all = TupleRange::new(0, pin.snapshot.stable_tuples());
        let read = |col| storage.read_range(&layout, &pin.snapshot, col, all);
        SliceSource::new((0..2).map(|col| read(col).unwrap()).collect())
    }

    /// The visible stream of `pin`, column-major.
    fn stream(storage: &Storage, pin: &TablePin) -> Vec<Vec<Value>> {
        let visible = TupleRange::new(0, pin.visible_rows());
        pin.stack
            .merge_columns(&mut stable(storage, pin), &[0, 1], visible)
            .unwrap()
    }

    fn layers(pin: &TablePin) -> Vec<Vec<(u64, Node)>> {
        let nodes = |layer: &Pdt| layer.nodes_from(0).map(|(s, n)| (s, n.clone())).collect();
        let stack = &pin.stack;
        (0..stack.depth()).map(|i| nodes(stack.layer(i))).collect()
    }

    #[test]
    fn an_advanced_commit_seq_conflicts_and_read_only_write_sets_never_do() {
        let (_storage, mut state) = open(100);
        let mut first = TableWrites::new(state.pin());
        let mut second = TableWrites::new(state.pin());
        let reader = TableWrites::new(state.pin());
        first.modify(0, 1, 111).unwrap();
        second.modify(0, 1, 222).unwrap();
        assert_eq!(reader.visible_rows(), 100);

        let record = state.commit_record(first).unwrap().expect("a write");
        assert_eq!((record.commit_seq, record.visible_before), (1, 100));
        state.apply(&record).unwrap();
        assert_eq!(state.pin().commit_seq, 1);

        let err = state.commit_record(second).unwrap_err();
        assert!(
            matches!(&err, Error::TransactionConflict(m) if m.contains("advanced from 0 to 1")),
            "got {err:?}"
        );
        assert!(state.commit_record(reader).unwrap().is_none());
        assert_eq!(state.pin().commit_seq, 1, "neither moved the sequence");
    }

    #[test]
    fn replay_skips_covered_records_tolerates_gaps_and_rejects_contradictions() {
        let (_storage, mut state) = open(50);
        commit(&mut state, |w| w.delete(0).unwrap());
        let record = |commit_seq, visible_before| {
            let mut pdt = Pdt::new(2);
            pdt.delete(Rid::new(0), visible_before).unwrap();
            CommitTableRecord {
                table: state.pin().table,
                commit_seq,
                visible_before,
                pdt: pdt.into(),
            }
        };
        let (covered, gap, stale) = (record(1, 50), record(5, 49), record(6, 42));

        state.apply(&covered).unwrap();
        assert_eq!(
            (state.pin().commit_seq, state.pin().visible_rows()),
            (1, 49)
        );

        state.apply(&gap).unwrap();
        assert_eq!(
            (state.pin().commit_seq, state.pin().visible_rows()),
            (5, 48)
        );

        let err = state.apply(&stale).unwrap_err();
        assert!(matches!(err, Error::WalCorrupt(_)), "got {err:?}");
        assert_eq!(
            (state.pin().commit_seq, state.pin().visible_rows()),
            (5, 48)
        );
    }

    #[test]
    fn thaw_restores_the_stack_and_install_keeps_mid_checkpoint_commits() {
        let (storage, mut state) = open(200);
        commit(&mut state, |w| {
            w.delete(0).unwrap();
            w.insert(5, vec![-5, -6]).unwrap();
        });

        // A failed materialization: the commit that arrived meanwhile is
        // folded back, an empty window restores the stack exactly.
        let before = layers(&state.pin());
        state.freeze();
        assert_eq!(state.pin().stack.depth(), 2);
        state.thaw().unwrap();
        assert_eq!(layers(&state.pin()), before);
        state.freeze();
        commit(&mut state, |w| w.modify(9, 1, 99).unwrap());
        let expected = stream(&storage, &state.pin());
        state.thaw().unwrap();
        assert_eq!(state.pin().stack.depth(), 1);
        assert_eq!(stream(&storage, &state.pin()), expected);

        // A completed one: the new image carries the frozen layers, the
        // during-checkpoint commit rides on top of it.
        let frozen = state.freeze();
        commit(&mut state, |w| {
            w.insert(0, vec![-1, -2]).unwrap();
            w.modify(3, 1, 33).unwrap();
        });
        let expected = stream(&storage, &state.pin());
        let table = frozen.table;
        let image = checkpoint_stack(&storage, table, &frozen.snapshot, &frozen.stack).unwrap();
        let (epoch, stale) = state.install(&frozen, Arc::clone(&image));
        assert_eq!(epoch, 1);
        assert_eq!(stale, frozen.snapshot.pages().collect::<Vec<_>>());
        let pin = state.pin();
        assert_eq!((pin.epoch, pin.commit_seq), (1, frozen.commit_seq + 1));
        assert_eq!(pin.snapshot.id(), image.id());
        assert_eq!(image.stable_tuples(), frozen.visible_rows());
        assert_eq!(pin.stack.depth(), 1);
        assert_eq!(
            pin.stack.top().stats().nodes,
            2,
            "only the mid-checkpoint commit"
        );
        assert_eq!(stream(&storage, &pin), expected);
        // The installed image is the storage master: nothing to adopt.
        state.adopt_master(&storage).unwrap();
        assert_eq!(state.pin().commit_seq, pin.commit_seq);
    }

    #[test]
    fn flatten_shares_one_layer_and_commits_copy_only_the_top_layer() {
        use std::ptr::eq;
        let (storage, mut state) = open(100);
        commit(&mut state, |w| w.delete(0).unwrap());
        let pin = state.pin();
        let flat = pin.flatten().unwrap();
        assert!(
            eq(&*flat, pin.stack.layer(0)),
            "one layer: the layer itself"
        );
        assert!(Arc::ptr_eq(&flat, &pin.flatten().unwrap()));
        // A commit clones the layer a scan holds and leaves the scan's alone.
        commit(&mut state, |w| w.insert(0, vec![-1, -1]).unwrap());
        assert_eq!((flat.stats().inserts, flat.stats().deletes), (0, 1));
        assert!(!eq(state.pin().stack.layer(0), &*flat));

        // A checkpoint window: the frozen layer is shared by the freeze and
        // by every commit after it; only the top layer is copied.
        let frozen = state.freeze();
        let window = state.pin();
        assert_eq!(window.stack.depth(), 2);
        assert!(eq(window.stack.layer(0), frozen.stack.layer(0)));
        commit(&mut state, |w| w.modify(3, 1, 33).unwrap());
        let after = state.pin();
        assert!(eq(after.stack.layer(0), frozen.stack.layer(0)));
        assert!(!eq(after.stack.layer(1), window.stack.layer(1)));
        assert!(
            window.stack.top().is_empty(),
            "the window pin's top is intact"
        );
        // Two layers: `flatten` composes a new PDT equal to the layered view.
        let composed = after.flatten().unwrap();
        assert!((0..2).all(|i| !eq(&*composed, after.stack.layer(i))));
        let visible = TupleRange::new(0, after.visible_rows());
        let merged =
            crate::merge::merge_columns(&composed, &mut stable(&storage, &after), &[0, 1], visible)
                .unwrap();
        assert_eq!(merged, stream(&storage, &after));
    }

    #[test]
    fn adoption_needs_an_empty_stack_or_an_append_derived_master() {
        let (storage, mut state) = open(100);
        let table = state.pin().table;
        let append = |value: Value| {
            let mut tx = storage.begin_append(table).unwrap();
            tx.append_rows(&[vec![value], vec![value]]).unwrap();
            tx.commit().unwrap()
        };
        let checkpoint = |rows: usize| {
            let master = storage.master_snapshot(table).unwrap().id();
            storage
                .install_checkpoint(table, master, vec![vec![0; rows]; 2])
                .unwrap()
        };

        // No pending updates: any master is adopted, and counts as a commit.
        let mut writer = TableWrites::new(state.pin());
        let foreign = checkpoint(80);
        state.adopt_master(&storage).unwrap();
        let pin = state.pin();
        assert_eq!((pin.snapshot.id(), pin.commit_seq), (foreign.id(), 1));
        assert_eq!(pin.visible_rows(), 80);
        writer.delete(0).unwrap();
        assert!(matches!(
            state.commit_record(writer).unwrap_err(),
            Error::TransactionConflict(_)
        ));

        // Pending updates: an append-derived master extends the stream the
        // updates refer to, so it is adopted under them...
        commit(&mut state, |w| w.delete(0).unwrap());
        let appended = append(1000);
        state.adopt_master(&storage).unwrap();
        let pin = state.pin();
        assert_eq!((pin.snapshot.id(), pin.commit_seq), (appended.id(), 3));
        assert_eq!(pin.visible_rows(), 80 - 1 + 1);

        // ...through a chain of appends too, even once nothing holds the
        // middle one any more...
        let middle = Arc::downgrade(&append(2000));
        let last = append(3000);
        assert!(middle.upgrade().is_none(), "the middle append is gone");
        state.adopt_master(&storage).unwrap();
        let pin = state.pin();
        assert_eq!((pin.snapshot.id(), pin.commit_seq), (last.id(), 4));
        assert_eq!(pin.visible_rows(), 80 - 1 + 3);

        // ...any other master is not.
        checkpoint(10);
        state.adopt_master(&storage).unwrap();
        let pin = state.pin();
        assert_eq!((pin.snapshot.id(), pin.commit_seq), (last.id(), 4));
    }
}
