//! Snapshot-isolated update transactions over stacked PDTs.
//!
//! Vectorwise gives every transaction a consistent pair of (storage
//! snapshot, PDT layer stack) and keeps its own updates in a tiny
//! transaction-private PDT on top of the shared layers (Section 2.1; Héman
//! et al., SIGMOD 2010). That algebra — the published per-table state, the
//! pin, the private layer, first-committer-wins, the one `apply` — lives in
//! [`scanshare_pdt::table`]; this module is the engine's transaction around
//! it:
//!
//! * [`Engine::begin`](crate::engine::Engine::begin) returns a [`Txn`].
//!   The first touch of each table captures a [`TablePin`] — the table's
//!   published `(Snapshot, PdtStack)` pair plus its commit sequence number —
//!   and starts a private [`TableWrites`] layer over it. Reads and scans
//!   inside the transaction compose the shared layers with the private one;
//!   nothing a concurrent committer or checkpointer does is ever visible.
//! * [`Txn::commit`] locks every written table's state in table-id order,
//!   validates all of them (**first-committer-wins**: if any written
//!   table's commit sequence advanced since the pin was taken, the commit
//!   fails with [`Error::TransactionConflict`](scanshare_common::Error) and
//!   the private updates are discarded), logs the write sets to the WAL and
//!   only then applies them — all-or-nothing.
//! * Scans never block writers and writers never block scans: the published
//!   state is an immutable `Arc` pair swapped under a short mutex, so a
//!   scan pins it with two reference-count bumps and merges on the fly.
//!
//! Background checkpoints interleave freely with transactions (see
//! [`Engine::checkpoint`](crate::engine::Engine::checkpoint)). A
//! transaction's RID space is unchanged by a checkpoint, so transactions
//! spanning one commit normally.

use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::Arc;

use scanshare_common::{Result, TableId};
pub use scanshare_pdt::table::TablePin;
use scanshare_pdt::table::TableWrites;
use scanshare_storage::datagen::Value;

use crate::engine::Engine;
use crate::query::Query;

/// A snapshot-isolated update transaction; created with
/// [`Engine::begin`](crate::engine::Engine::begin). See the [module
/// docs](self) for the isolation and commit semantics.
///
/// Dropping a transaction without committing discards its updates
/// (rollback is the default).
#[derive(Debug)]
#[must_use = "a Txn's updates are discarded unless `.commit()` is called"]
pub struct Txn {
    engine: Arc<Engine>,
    /// Touched tables in id order (which is also the commit lock order).
    tables: BTreeMap<TableId, TableWrites>,
}

impl Txn {
    pub(crate) fn new(engine: Arc<Engine>) -> Self {
        Self {
            engine,
            tables: BTreeMap::new(),
        }
    }

    /// This transaction's private layer over `table`, started from the
    /// engine's published pin on first touch.
    fn table_mut(&mut self, table: TableId) -> Result<&mut TableWrites> {
        Ok(match self.tables.entry(table) {
            Entry::Occupied(entry) => entry.into_mut(),
            Entry::Vacant(entry) => entry.insert(TableWrites::new(self.engine.table_pin(table)?)),
        })
    }

    /// Number of rows visible to this transaction (its own uncommitted
    /// updates included).
    pub fn visible_rows(&mut self, table: TableId) -> Result<u64> {
        Ok(self.table_mut(table)?.visible_rows())
    }

    /// Inserts a row at visible position `rid` of this transaction's view
    /// (use [`Txn::visible_rows`] to append at the end).
    pub fn insert(&mut self, table: TableId, rid: u64, row: Vec<Value>) -> Result<()> {
        self.table_mut(table)?.insert(rid, row)
    }

    /// Deletes the visible row at `rid` of this transaction's view.
    pub fn delete(&mut self, table: TableId, rid: u64) -> Result<()> {
        self.table_mut(table)?.delete(rid)
    }

    /// Updates column `col` of the visible row at `rid` of this
    /// transaction's view.
    pub fn modify(&mut self, table: TableId, rid: u64, col: usize, value: Value) -> Result<()> {
        self.table_mut(table)?.modify(rid, col, value)
    }

    /// A pin of this transaction's current view of `table`: the base
    /// snapshot and shared layers plus a copy of the private layer. Scans
    /// opened from it see the transaction's own uncommitted updates.
    pub fn pin(&mut self, table: TableId) -> Result<TablePin> {
        Ok(self.table_mut(table)?.pin())
    }

    /// Starts building a query that reads this transaction's view of
    /// `table` (shared layers + private updates), like
    /// [`Engine::query`](crate::engine::Engine::query) does for the
    /// committed state.
    pub fn query(&mut self, table: TableId) -> Result<Query> {
        let pin = self.pin(table)?;
        Ok(Query::with_pin(Arc::clone(&self.engine), table, pin))
    }

    /// Whether the transaction wrote anything.
    pub fn is_read_only(&self) -> bool {
        self.tables.values().all(TableWrites::is_read_only)
    }

    /// Commits the transaction with first-committer-wins semantics: for
    /// every *written* table, if any other transaction (or an engine-level
    /// auto-commit update, or a storage bulk append the engine adopted)
    /// committed to it since this transaction first touched it, the whole
    /// commit fails with
    /// [`Error::TransactionConflict`](scanshare_common::Error)
    /// and no table is modified. Tables the transaction only read never
    /// conflict.
    ///
    /// On success each private layer is folded into its table's shared top
    /// layer; scans pinned before the commit keep their view.
    pub fn commit(mut self) -> Result<()> {
        let written: Vec<TableWrites> = std::mem::take(&mut self.tables)
            .into_values()
            .filter(|writes| !writes.is_read_only())
            .collect();
        if written.is_empty() {
            return Ok(());
        }

        // Lock every written table's state in table-id order (`written` is
        // BTreeMap-ordered), then validate all, log and apply —
        // all-or-nothing. The fsync (subject to group commit) happens after
        // the locks are released.
        let updates: Vec<_> = written
            .iter()
            .map(|writes| self.engine.table_updates(writes.table()))
            .collect::<Result<_>>()?;
        let mut guards: Vec<_> = updates
            .iter()
            .map(|u| u.lock(self.engine.storage()))
            .collect::<Result<_>>()?;
        let wal_seq = self.engine.commit_locked(&mut guards, written)?;
        drop(guards);
        self.engine.wal_commit_sync(wal_seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{AggrSpec, Aggregate};
    use scanshare_common::{Error, PolicyKind, ScanShareConfig};
    use scanshare_storage::column::{ColumnSpec, ColumnType};
    use scanshare_storage::datagen::DataGen;
    use scanshare_storage::storage::Storage;
    use scanshare_storage::table::TableSpec;

    fn engine(tuples: u64) -> (Arc<Engine>, TableId) {
        let storage = Storage::with_seed(1024, 500, 5);
        let spec = TableSpec::new(
            "t",
            vec![
                ColumnSpec::with_width("k", ColumnType::Int64, 8.0),
                ColumnSpec::with_width("v", ColumnType::Int64, 4.0),
            ],
            tuples,
        );
        let table = storage
            .create_table_with_data(
                spec,
                vec![
                    DataGen::Sequential { start: 0, step: 1 },
                    DataGen::Constant(7),
                ],
            )
            .unwrap();
        let config = ScanShareConfig {
            page_size_bytes: 1024,
            chunk_tuples: 500,
            buffer_pool_bytes: 64 * 1024,
            policy: PolicyKind::Lru,
            ..Default::default()
        };
        (Engine::new(storage, config).unwrap(), table)
    }

    fn count(engine: &Arc<Engine>, table: TableId) -> u64 {
        engine
            .query(table)
            .columns(["k"])
            .aggregate(AggrSpec::global(vec![Aggregate::Count]))
            .run()
            .unwrap()
            .get(&0)
            .map(|g| g.count)
            .unwrap_or(0)
    }

    #[test]
    fn uncommitted_updates_are_private() {
        let (engine, table) = engine(100);
        let mut txn = engine.begin();
        txn.insert(table, 0, vec![-1, -1]).unwrap();
        txn.delete(table, 50).unwrap();
        assert_eq!(txn.visible_rows(table).unwrap(), 100);
        // The engine's committed state is untouched.
        assert_eq!(engine.visible_rows(table).unwrap(), 100);
        assert_eq!(count(&engine, table), 100);
        // The transaction's own queries see the private updates.
        let rows = txn
            .query(table)
            .unwrap()
            .columns(["k", "v"])
            .range(..2)
            .in_order()
            .rows()
            .unwrap();
        assert_eq!(rows[0], vec![-1, -1]);
        txn.commit().unwrap();
        assert_eq!(engine.visible_rows(table).unwrap(), 100);
        assert_eq!(count(&engine, table), 100);
    }

    #[test]
    fn first_committer_wins() {
        let (engine, table) = engine(100);
        let mut a = engine.begin();
        let mut b = engine.begin();
        a.modify(table, 0, 1, 111).unwrap();
        b.modify(table, 0, 1, 222).unwrap();
        a.commit().unwrap();
        let err = b.commit().unwrap_err();
        assert!(matches!(err, Error::TransactionConflict(_)));
        // The first committer's value survived.
        let rows = engine
            .query(table)
            .columns(["v"])
            .range(..1)
            .rows()
            .unwrap();
        assert_eq!(rows[0], vec![111]);
    }

    #[test]
    fn read_only_transactions_never_conflict() {
        let (engine, table) = engine(100);
        let mut reader = engine.begin();
        assert_eq!(reader.visible_rows(table).unwrap(), 100);
        let mut writer = engine.begin();
        writer.delete(table, 0).unwrap();
        writer.commit().unwrap();
        assert!(reader.is_read_only());
        // Snapshot isolation: the reader still sees its begin state...
        assert_eq!(reader.visible_rows(table).unwrap(), 100);
        // ...and commits cleanly despite the interleaved writer.
        reader.commit().unwrap();
    }

    #[test]
    fn autocommit_updates_conflict_with_open_transactions() {
        let (engine, table) = engine(100);
        let mut txn = engine.begin();
        txn.delete(table, 1).unwrap();
        engine.update_value(table, 0, 1, 9).unwrap();
        assert!(matches!(
            txn.commit().unwrap_err(),
            Error::TransactionConflict(_)
        ));
    }

    #[test]
    fn rollback_discards_updates() {
        let (engine, table) = engine(50);
        // Dropping without commit is the rollback, and does not bump the
        // commit sequence: a later transaction commits cleanly.
        let mut dropped = engine.begin();
        dropped.delete(table, 0).unwrap();
        drop(dropped);
        assert_eq!(engine.visible_rows(table).unwrap(), 50);
        let mut txn = engine.begin();
        txn.insert(table, 0, vec![1, 2]).unwrap();
        txn.commit().unwrap();
        assert_eq!(engine.visible_rows(table).unwrap(), 51);
    }

    #[test]
    fn scans_pin_their_begin_snapshot() {
        let (engine, table) = engine(200);
        let pin = engine.table_pin(table).unwrap();
        let mut txn = engine.begin();
        txn.delete(table, 0).unwrap();
        txn.commit().unwrap();
        // The pre-commit pin still sees 200 rows; a fresh pin sees 199.
        assert_eq!(pin.visible_rows(), 200);
        assert_eq!(engine.table_pin(table).unwrap().visible_rows(), 199);
        assert_eq!(pin.flatten().unwrap().visible_count(200), 200);
    }

    #[test]
    fn multi_table_commits_are_atomic() {
        let (engine, t1) = engine(100);
        let storage = Arc::clone(engine.storage());
        let t2 = storage
            .create_table_with_data(
                TableSpec::new(
                    "u",
                    vec![ColumnSpec::with_width("x", ColumnType::Int64, 8.0)],
                    40,
                ),
                vec![DataGen::Constant(1)],
            )
            .unwrap();
        // A competing single-table commit on t2 lands first.
        let mut both = engine.begin();
        both.delete(t1, 0).unwrap();
        both.delete(t2, 0).unwrap();
        engine.delete_row(t2, 5).unwrap();
        assert!(matches!(
            both.commit().unwrap_err(),
            Error::TransactionConflict(_)
        ));
        // Neither table saw the conflicted transaction's updates.
        assert_eq!(engine.visible_rows(t1).unwrap(), 100);
        assert_eq!(engine.visible_rows(t2).unwrap(), 39);
    }
}
