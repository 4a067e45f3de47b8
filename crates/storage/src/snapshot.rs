//! Storage snapshots: versioned per-column arrays of page references.
//!
//! Vectorwise gives every transaction a *storage snapshot*: per column, an
//! array of page identifiers (Section 2.1, "Bulk Appends"). Appending data
//! creates new pages and adds references to them in a transaction-local
//! snapshot; committing promotes that snapshot to the *master* snapshot that
//! new transactions start from. A PDT checkpoint creates a snapshot whose
//! pages are all new (Figure 7).
//!
//! Two snapshots of the same table always share a *common prefix* of pages
//! (possibly empty after a checkpoint). The Active Buffer Manager uses the
//! longest prefix shared by at least two running CScans to mark chunks as
//! *shared* or *local*.
//!
//! A snapshot owns its image: the values of the pages an append or a
//! checkpoint wrote for it and its zone map. Nothing else keeps an image
//! alive, so a superseded one is freed with the last handle to it.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use scanshare_common::{Error, PageId, RangeList, Result, SnapshotId, TableId, TupleRange};

use crate::datagen::Value;
use crate::layout::TableLayout;
use crate::zone::{ZoneMap, ZonePredicate};

/// An immutable storage snapshot of one table.
pub struct Snapshot {
    id: SnapshotId,
    table: TableId,
    /// Page references per column (outer index = column index in the table
    /// spec, inner index = page index).
    column_pages: Vec<Vec<PageId>>,
    /// Stored values, parallel to `column_pages`: `Some` for a page an
    /// append or a checkpoint wrote (an append shares its parent's `Arc`s
    /// for the unchanged prefix), `None` for a page the file store or the
    /// data generator serves.
    stored: Vec<Vec<Option<Arc<Vec<Value>>>>>,
    /// Number of tuples stored in stable storage under this snapshot.
    stable_tuples: u64,
    /// Ids of the snapshots this one was derived from by appends, nearest
    /// first (empty for a base snapshot or a checkpoint image). Ids rather
    /// than handles, so an append never keeps its parents' rewritten pages
    /// alive.
    ancestors: Vec<SnapshotId>,
    /// Chunk-granular min/max metadata for data skipping; `None` prunes
    /// nothing.
    zones: Option<Arc<ZoneMap>>,
}

impl fmt::Debug for Snapshot {
    /// Everything but the stored values, which are the image itself.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Snapshot")
            .field("id", &self.id)
            .field("table", &self.table)
            .field("stable_tuples", &self.stable_tuples)
            .field("pages", &self.total_pages())
            .field("ancestors", &self.ancestors)
            .finish_non_exhaustive()
    }
}

impl Snapshot {
    /// The snapshot id.
    pub fn id(&self) -> SnapshotId {
        self.id
    }

    /// The table this snapshot belongs to.
    pub fn table(&self) -> TableId {
        self.table
    }

    /// Number of stable tuples visible in this snapshot.
    pub fn stable_tuples(&self) -> u64 {
        self.stable_tuples
    }

    /// Whether this snapshot was derived, through any chain of appends, from
    /// the snapshot with id `ancestor` — whether or not anything still holds
    /// that snapshot.
    pub fn derives_from(&self, ancestor: SnapshotId) -> bool {
        self.ancestors.contains(&ancestor)
    }

    /// The snapshot's zone metadata, if any was recorded for it.
    pub(crate) fn zone_map(&self) -> Option<&Arc<ZoneMap>> {
        self.zones.as_ref()
    }

    /// Intersects a scan's SID `ranges` with the chunks that can satisfy
    /// `pred`, returning the pruned ranges and the number of tuples skipped.
    /// A snapshot without zone metadata prunes nothing.
    ///
    /// Both executors (engine and simulator) route their skipping decisions
    /// through this one helper so the pruned sets — and therefore every
    /// downstream ABM relevance and PBM prediction — are byte-identical.
    pub fn prune_sid_ranges(&self, pred: &ZonePredicate, ranges: &RangeList) -> (RangeList, u64) {
        let Some(zones) = &self.zones else {
            return (ranges.clone(), 0);
        };
        let survivors = zones.surviving_ranges(pred, self.stable_tuples);
        let pruned = ranges.intersect(&survivors);
        let skipped = ranges.total_tuples() - pruned.total_tuples();
        (pruned, skipped)
    }

    /// Page reference `page_index` of column `col`, if it exists.
    pub fn page(&self, col: usize, page_index: u64) -> Option<PageId> {
        self.column_pages
            .get(col)
            .and_then(|pages| pages.get(page_index as usize))
            .copied()
    }

    /// The stored values of page `page_index` of column `col`, if this
    /// snapshot holds them.
    pub(crate) fn stored_page(&self, col: usize, page_index: u64) -> Option<&Arc<Vec<Value>>> {
        self.stored.get(col)?.get(page_index as usize)?.as_ref()
    }

    /// Attaches the values of a page allocated while deriving this snapshot.
    pub(crate) fn store_page(&mut self, page: &NewPage, values: Vec<Value>) {
        debug_assert_eq!(values.len() as u64, page.sid_range.len());
        self.stored[page.column_index][page.page_index as usize] = Some(Arc::new(values));
    }

    /// All page references of column `col`.
    pub fn column_pages(&self, col: usize) -> &[PageId] {
        self.column_pages.get(col).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total number of page references across all columns.
    pub fn total_pages(&self) -> usize {
        self.column_pages.iter().map(Vec::len).sum()
    }

    /// All page references of the snapshot, column by column in table-spec
    /// order, pages in ascending page-index order within each column. The
    /// iteration order is deterministic; the engine's checkpoint path feeds
    /// it verbatim to the buffer-manager invalidation hook, and the
    /// simulator must invalidate in the identical order to keep replacement
    /// state byte-identical.
    pub fn pages(&self) -> impl Iterator<Item = PageId> + '_ {
        self.column_pages.iter().flatten().copied()
    }

    /// Per-column count of leading page references that are identical in
    /// `self` and `other`.
    pub fn common_prefix_pages(&self, other: &Snapshot) -> Vec<usize> {
        self.column_pages
            .iter()
            .zip(other.column_pages.iter())
            .map(|(a, b)| a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count())
            .collect()
    }

    /// Number of leading *tuples* whose pages (in **all** columns) are shared
    /// between the two snapshots. A chunk is "shared" only if every page of
    /// every column in the chunk belongs to both snapshots, so the shared
    /// tuple prefix is the minimum over columns of the tuples covered by the
    /// shared page prefix.
    pub fn shared_prefix_tuples(&self, other: &Snapshot, layout: &TableLayout) -> u64 {
        if self.table != other.table || self.column_pages.len() != other.column_pages.len() {
            return 0;
        }
        let limit = self.stable_tuples.min(other.stable_tuples);
        self.common_prefix_pages(other)
            .iter()
            .enumerate()
            .map(|(col, &prefix)| (prefix as u64 * layout.tuples_per_page(col)).min(limit))
            .min()
            .unwrap_or(0)
    }

    /// Whether the two snapshots reference exactly the same pages.
    pub fn same_pages(&self, other: &Snapshot) -> bool {
        self.column_pages == other.column_pages
    }
}

/// Descriptor of a page that was newly allocated while deriving a snapshot
/// (by an append or a checkpoint). The storage layer uses this to attach the
/// page's data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NewPage {
    /// Column (index in the table spec) the page belongs to.
    pub column_index: usize,
    /// Index of the page within its column.
    pub page_index: u64,
    /// SID range the page covers in the *new* snapshot.
    pub sid_range: TupleRange,
}

/// Allocates page ids and snapshot ids, derives snapshots and holds the
/// master snapshot of every table — the only snapshots it keeps alive.
#[derive(Debug, Default)]
pub struct SnapshotStore {
    next_page: u64,
    next_snapshot: u64,
    masters: HashMap<TableId, Arc<Snapshot>>,
}

impl SnapshotStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    fn allocate_page(&mut self) -> PageId {
        let page = PageId::new(self.next_page);
        self.next_page += 1;
        page
    }

    fn allocate_snapshot_id(&mut self) -> SnapshotId {
        let id = SnapshotId::new(self.next_snapshot);
        self.next_snapshot += 1;
        id
    }

    /// A snapshot with no stored values, which becomes its table's master.
    fn install_master(
        &mut self,
        id: SnapshotId,
        table: TableId,
        column_pages: Vec<Vec<PageId>>,
        stable_tuples: u64,
        zones: Option<Arc<ZoneMap>>,
    ) -> Arc<Snapshot> {
        let snapshot = Arc::new(Snapshot {
            id,
            table,
            stored: column_pages.iter().map(|p| vec![None; p.len()]).collect(),
            column_pages,
            stable_tuples,
            ancestors: Vec::new(),
            zones,
        });
        self.set_master(Arc::clone(&snapshot));
        snapshot
    }

    /// Creates the base snapshot of a table (its initial stable image, whose
    /// pages the data generators serve) and makes it the table's master.
    pub fn create_base_snapshot(
        &mut self,
        layout: &TableLayout,
        zones: Option<Arc<ZoneMap>>,
    ) -> Arc<Snapshot> {
        let id = self.allocate_snapshot_id();
        let base_tuples = layout.spec().base_tuples;
        let column_pages = (0..layout.column_count())
            .map(|col| {
                (0..layout.pages_for_tuples(col, base_tuples))
                    .map(|_| self.allocate_page())
                    .collect()
            })
            .collect();
        self.install_master(id, layout.table(), column_pages, base_tuples, zones)
    }

    /// Installs a snapshot with *explicit* page references and makes it the
    /// table's master. Used when reopening a table directory cold: the
    /// on-disk manifest records the page ids the materialized snapshot was
    /// built with, and those ids must survive the round trip so
    /// `Snapshot::page` keeps mapping to the same (file, offset) slots. The
    /// page counter is bumped past every installed id so later appends and
    /// checkpoints never collide.
    pub fn install_snapshot(
        &mut self,
        table: TableId,
        column_pages: Vec<Vec<PageId>>,
        stable_tuples: u64,
        zones: Option<Arc<ZoneMap>>,
    ) -> Arc<Snapshot> {
        let id = self.allocate_snapshot_id();
        if let Some(max) = column_pages.iter().flatten().map(|p| p.raw()).max() {
            self.next_page = self.next_page.max(max + 1);
        }
        self.install_master(id, table, column_pages, stable_tuples, zones)
    }

    /// The master snapshot of a table.
    pub fn master(&self, table: TableId) -> Result<Arc<Snapshot>> {
        self.masters
            .get(&table)
            .cloned()
            .ok_or(Error::UnknownTable(table))
    }

    /// Promotes `snapshot` to be the master snapshot of its table.
    pub fn set_master(&mut self, snapshot: Arc<Snapshot>) {
        self.masters.insert(snapshot.table, snapshot);
    }

    /// Derives a new snapshot from `parent` by appending `added_tuples`
    /// tuples, with the given zone metadata. Following the copy-on-write
    /// rule, a partially-filled last page of any column is replaced by a
    /// fresh page (this is why "even after appending a single value to a
    /// table, its last chunk becomes local").
    ///
    /// Returns the derived snapshot, which shares its parent's stored values
    /// for every unchanged page, and the newly allocated pages, whose values
    /// the caller attaches.
    pub fn derive_append(
        &mut self,
        layout: &TableLayout,
        parent: &Snapshot,
        added_tuples: u64,
        zones: Option<Arc<ZoneMap>>,
    ) -> (Snapshot, Vec<NewPage>) {
        let id = self.allocate_snapshot_id();
        let old_tuples = parent.stable_tuples;
        let new_tuples = old_tuples + added_tuples;
        let mut column_pages = parent.column_pages.clone();
        let mut stored = parent.stored.clone();
        let mut new_pages = Vec::new();

        if added_tuples > 0 {
            for (col, (pages, stored)) in column_pages.iter_mut().zip(&mut stored).enumerate() {
                // Replace a partial last page (copy-on-write), then append
                // brand-new pages until new_tuples are covered.
                if old_tuples % layout.tuples_per_page(col) != 0 {
                    pages.pop();
                    stored.pop();
                }
                for idx in pages.len() as u64..layout.pages_for_tuples(col, new_tuples) {
                    pages.push(self.allocate_page());
                    stored.push(None);
                    new_pages.push(NewPage {
                        column_index: col,
                        page_index: idx,
                        sid_range: layout.sid_range_of_page(col, idx, new_tuples),
                    });
                }
            }
        }

        let mut ancestors = Vec::with_capacity(parent.ancestors.len() + 1);
        ancestors.push(parent.id);
        ancestors.extend_from_slice(&parent.ancestors);
        let snapshot = Snapshot {
            id,
            table: parent.table,
            column_pages,
            stored,
            stable_tuples: new_tuples,
            ancestors,
            zones,
        };
        (snapshot, new_pages)
    }

    /// Derives a checkpoint snapshot: a completely new set of pages holding
    /// `new_tuples` tuples (the result of merging PDT changes into the old
    /// image), with the given zone metadata. The old and new snapshot share
    /// no pages at all; the caller attaches every new page's values.
    pub fn derive_checkpoint(
        &mut self,
        layout: &TableLayout,
        new_tuples: u64,
        zones: Option<Arc<ZoneMap>>,
    ) -> (Snapshot, Vec<NewPage>) {
        let id = self.allocate_snapshot_id();
        let mut new_pages = Vec::new();
        let column_pages: Vec<Vec<PageId>> = (0..layout.column_count())
            .map(|col| {
                (0..layout.pages_for_tuples(col, new_tuples))
                    .map(|idx| {
                        new_pages.push(NewPage {
                            column_index: col,
                            page_index: idx,
                            sid_range: layout.sid_range_of_page(col, idx, new_tuples),
                        });
                        self.allocate_page()
                    })
                    .collect()
            })
            .collect();
        let snapshot = Snapshot {
            id,
            table: layout.table(),
            stored: column_pages.iter().map(|p| vec![None; p.len()]).collect(),
            column_pages,
            stable_tuples: new_tuples,
            ancestors: Vec::new(),
            zones,
        };
        (snapshot, new_pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{ColumnSpec, ColumnType};
    use crate::table::TableSpec;
    use scanshare_common::ColumnId;

    fn layout(base_tuples: u64) -> TableLayout {
        // 1024-byte pages; wide column 8 B/tuple (128 t/page), narrow 1 B/tuple (1024 t/page).
        let spec = TableSpec::new(
            "t",
            vec![
                ColumnSpec::with_width("wide", ColumnType::Int64, 8.0),
                ColumnSpec::with_width("narrow", ColumnType::Dict { cardinality: 200 }, 1.0),
            ],
            base_tuples,
        );
        TableLayout::new(
            TableId::new(0),
            spec,
            vec![ColumnId::new(0), ColumnId::new(1)],
            1024,
            1000,
        )
    }

    #[test]
    fn base_snapshot_allocates_expected_pages() {
        let layout = layout(1000);
        let mut store = SnapshotStore::new();
        let snap = store.create_base_snapshot(&layout, None);
        assert_eq!(snap.column_pages(0).len(), 8); // 1000/128 -> 8 pages
        assert_eq!(snap.column_pages(1).len(), 1); // 1000/1024 -> 1 page
        assert_eq!(snap.stable_tuples(), 1000);
        assert_eq!(store.master(TableId::new(0)).unwrap().id(), snap.id());
        assert_eq!(store.next_page, 9);
    }

    #[test]
    fn append_reuses_prefix_and_rewrites_partial_last_page() {
        let layout = layout(1000);
        let mut store = SnapshotStore::new();
        let base = store.create_base_snapshot(&layout, None);
        let (appended, new_pages) = store.derive_append(&layout, &base, 500, None);
        assert_eq!(appended.stable_tuples(), 1500);
        assert!(appended.derives_from(base.id()));
        assert!(!base.derives_from(appended.id()));

        // Wide column: 1000 tuples = 7 full pages + 1 partial page of 104 tuples.
        // The partial page is rewritten, and 1500 tuples need 12 pages total.
        assert_eq!(appended.column_pages(0).len(), 12);
        let prefix = base.common_prefix_pages(&appended);
        assert_eq!(
            prefix[0], 7,
            "partial last page of the wide column is rewritten"
        );
        // Narrow column: 1000 of 1024 used -> its single page is rewritten too.
        assert_eq!(prefix[1], 0);

        // New pages are reported for both columns.
        assert!(new_pages.iter().any(|p| p.column_index == 0));
        assert!(new_pages.iter().any(|p| p.column_index == 1));
        // All new pages really are new (not referenced by the base snapshot).
        for p in &new_pages {
            let page = appended.page(p.column_index, p.page_index).unwrap();
            assert!(base.pages().all(|old| old != page));
        }
        assert_eq!(
            new_pages.len() as u64,
            store.next_page - 9,
            "every fresh page is reported"
        );
    }

    #[test]
    fn append_on_page_boundary_keeps_whole_prefix() {
        let layout = layout(1024); // narrow column exactly fills one page
        let mut store = SnapshotStore::new();
        let base = store.create_base_snapshot(&layout, None);
        let (appended, _) = store.derive_append(&layout, &base, 1024, None);
        let prefix = base.common_prefix_pages(&appended);
        assert_eq!(prefix[1], 1, "full pages are shared, not rewritten");
        assert_eq!(appended.column_pages(1).len(), 2);
    }

    #[test]
    fn append_zero_tuples_shares_everything() {
        let layout = layout(1000);
        let mut store = SnapshotStore::new();
        let base = store.create_base_snapshot(&layout, None);
        let (same, new_pages) = store.derive_append(&layout, &base, 0, None);
        assert!(new_pages.is_empty());
        assert!(same.same_pages(&base));
    }

    #[test]
    fn shared_prefix_tuples_is_min_over_columns() {
        let layout = layout(1000);
        let mut store = SnapshotStore::new();
        let base = store.create_base_snapshot(&layout, None);
        let (appended, _) = store.derive_append(&layout, &base, 500, None);
        // Wide column shares 7 pages = 896 tuples; narrow shares 0 pages.
        assert_eq!(base.shared_prefix_tuples(&appended, &layout), 0);
        // A snapshot always fully shares with itself (clamped to tuple count).
        assert_eq!(base.shared_prefix_tuples(&base, &layout), 1000);
    }

    #[test]
    fn checkpoint_shares_no_pages() {
        let layout = layout(1000);
        let mut store = SnapshotStore::new();
        let base = store.create_base_snapshot(&layout, None);
        let (ckpt, new_pages) = store.derive_checkpoint(&layout, 900, None);
        assert_eq!(ckpt.stable_tuples(), 900);
        assert_eq!(base.common_prefix_pages(&ckpt), vec![0, 0]);
        assert_eq!(base.shared_prefix_tuples(&ckpt, &layout), 0);
        assert_eq!(new_pages.len(), ckpt.total_pages());
        assert!(!ckpt.derives_from(base.id()));
    }

    #[test]
    fn master_promotion() {
        let layout = layout(1000);
        let mut store = SnapshotStore::new();
        let base = store.create_base_snapshot(&layout, None);
        let (appended, _) = store.derive_append(&layout, &base, 10, None);
        let appended = Arc::new(appended);
        store.set_master(Arc::clone(&appended));
        assert_eq!(store.master(TableId::new(0)).unwrap().id(), appended.id());
        // The store holds only masters: the superseded base lives as long as
        // a handle to it does.
        let weak = Arc::downgrade(&base);
        drop(base);
        assert!(weak.upgrade().is_none());
    }

    #[test]
    fn snapshot_lookup_errors_on_unknown_id() {
        let store = SnapshotStore::new();
        assert!(matches!(
            store.master(TableId::new(3)),
            Err(Error::UnknownTable(_))
        ));
    }
}
