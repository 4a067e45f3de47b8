//! The storage facade: catalog + snapshots + page contents.
//!
//! [`Storage`] is the single object the execution engine and the buffer
//! managers talk to. It owns the catalog, the snapshot store (the master
//! snapshot of every table) and the base-data generators. Base table pages
//! are materialized lazily from deterministic generators or read from the
//! segment files; pages created by appends or checkpoints are owned by the
//! snapshots that hold them, so an image lives exactly as long as something
//! holds a snapshot of it.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use scanshare_common::sync::RwLock;

use scanshare_common::{Error, PageId, Result, SnapshotId, TableId, TupleRange};

use crate::catalog::{Catalog, TableEntry};
use crate::datagen::{DataGen, Value};
use crate::layout::TableLayout;
use crate::segment::{self, FileStore};
use crate::snapshot::{Snapshot, SnapshotStore};
use crate::table::TableSpec;
use crate::zone::ZoneMap;

/// The materialized contents of one page of one column.
#[derive(Debug, Clone)]
pub struct PageData {
    /// The page id.
    pub page: PageId,
    /// The SID range the values cover.
    pub sid_range: TupleRange,
    /// One value per SID in `sid_range`.
    pub values: Arc<Vec<Value>>,
}

/// Where the values of an opened page come from.
#[derive(Debug, Clone)]
enum PageValues {
    /// Stored (appended / checkpointed) or file-decoded values, one per SID
    /// of the page.
    Stored(Arc<Vec<Value>>),
    /// A base page: a pure function of the SID, generated on demand.
    Generated { gen: DataGen, seed: u64 },
}

/// One page of one column opened for ranged reads ([`Storage::open_page`]):
/// a scan copies out exactly the SIDs it needs — a slice of the stored
/// values, or the generator run for just those SIDs — instead of
/// materializing the page around them.
#[derive(Debug, Clone)]
pub struct PageHandle {
    /// The page id.
    pub page: PageId,
    /// The SID range the page covers.
    pub sid_range: TupleRange,
    values: PageValues,
}

impl PageHandle {
    /// Appends the values of `sids` to `out`.
    ///
    /// # Panics
    /// Panics when `sids` is not inside the page's `sid_range`.
    pub fn fill(&self, sids: TupleRange, out: &mut Vec<Value>) {
        assert!(
            sids.is_empty() || self.sid_range.contains_range(&sids),
            "page {} covers {} but {sids} was asked for",
            self.page,
            self.sid_range
        );
        match &self.values {
            PageValues::Stored(values) => {
                let at = |sid: u64| (sid - self.sid_range.start) as usize;
                out.extend_from_slice(&values[at(sids.start)..at(sids.end)]);
            }
            PageValues::Generated { gen, seed } => gen.fill(*seed, sids.start, sids.end, out),
        }
    }
}

#[derive(Debug)]
struct Inner {
    catalog: Catalog,
    snapshots: SnapshotStore,
    /// Per table: one generator per column for base data.
    datagens: HashMap<TableId, Vec<DataGen>>,
    /// Per table: the WAL sequence number covered by the durable on-disk
    /// image (from the manifest on reopen, updated on materialization).
    wal_seqs: HashMap<TableId, u64>,
    seed: u64,
}

impl Inner {
    /// The page lookup behind [`Storage::open_page`]: the values `snapshot`
    /// stores (appended / checkpointed pages) first, then the file store,
    /// then the base-data generator. Over `&Inner` so that writers already
    /// holding the lock resolve pages the same way readers do.
    ///
    /// A checkpointed page keeps its in-memory copy even once it is on
    /// disk: re-materializing a table drops the superseded image's file
    /// slots, and memory is then the only place a reader still pinned to
    /// that image can read it from.
    fn open_page(
        &self,
        file_store: Option<&FileStore>,
        layout: &TableLayout,
        snapshot: &Snapshot,
        col: usize,
        page_index: u64,
    ) -> Result<PageHandle> {
        let page = snapshot
            .page(col, page_index)
            .ok_or_else(|| Error::internal(format!("column {col} has no page {page_index}")))?;
        let sid_range = layout.sid_range_of_page(col, page_index, snapshot.stable_tuples());
        let values = if let Some(values) = snapshot.stored_page(col, page_index) {
            PageValues::Stored(Arc::clone(values))
        } else if let Some(values) = file_store
            .map(|store| store.page_values(page))
            .transpose()
            .map_err(|e| Error::io(format!("reading page {page}: {e}")))?
            .flatten()
        {
            // File-backed page: decode-cache hit if the I/O device already
            // read it, synchronous segment read otherwise — correctness
            // never depends on the device having been asked first.
            debug_assert_eq!(values.len() as u64, sid_range.len());
            PageValues::Stored(values)
        } else {
            // Base page: generated on demand.
            let gens = self
                .datagens
                .get(&layout.table())
                .ok_or_else(|| Error::UnknownTable(layout.table()))?;
            PageValues::Generated {
                gen: gens.get(col).copied().unwrap_or(DataGen::Constant(0)),
                seed: self.seed ^ ((layout.table().raw() as u64) << 32) ^ col as u64,
            }
        };
        Ok(PageHandle {
            page,
            sid_range,
            values,
        })
    }
}

/// Shared storage engine.
#[derive(Debug)]
pub struct Storage {
    inner: RwLock<Inner>,
    /// On-disk segment store, present once a table has been materialized
    /// (or the storage was opened cold from a directory).
    file_store: RwLock<Option<Arc<FileStore>>>,
    page_size_bytes: u64,
    chunk_tuples: u64,
}

impl Storage {
    /// Creates an empty storage engine.
    pub fn new(page_size_bytes: u64, chunk_tuples: u64) -> Arc<Self> {
        Self::with_seed(page_size_bytes, chunk_tuples, 0x5ca5_5a17)
    }

    /// Creates an empty storage engine with an explicit data-generation seed.
    pub fn with_seed(page_size_bytes: u64, chunk_tuples: u64, seed: u64) -> Arc<Self> {
        Arc::new(Self {
            inner: RwLock::new(Inner {
                catalog: Catalog::new(page_size_bytes, chunk_tuples),
                snapshots: SnapshotStore::new(),
                datagens: HashMap::new(),
                wal_seqs: HashMap::new(),
                seed,
            }),
            file_store: RwLock::new(None),
            page_size_bytes,
            chunk_tuples,
        })
    }

    /// Materializes the current master snapshot of `table` as on-disk column
    /// segments in `dir` and registers the pages with the storage's
    /// [`FileStore`] (creating it if this is the first materialization).
    ///
    /// Whatever the snapshot serves in memory — generated base data,
    /// appended pages, checkpoint images — is exactly what lands on disk, so
    /// the call works mid-workload on a freshly installed checkpoint too.
    /// Re-materializing a table replaces its previous segments.
    pub fn materialize_table(&self, table: TableId, dir: &Path) -> Result<Arc<FileStore>> {
        let snapshot = self.master_snapshot(table)?;
        self.materialize_snapshot(&snapshot, dir)
    }

    /// Like [`Storage::materialize_table`], but for an explicit snapshot
    /// (e.g. a checkpoint image that is not master yet). Preserves the
    /// table's recorded WAL sequence number.
    pub fn materialize_snapshot(&self, snapshot: &Snapshot, dir: &Path) -> Result<Arc<FileStore>> {
        let wal_seq = self.durable_wal_seq(snapshot.table());
        self.materialize_snapshot_logged(snapshot, dir, wal_seq)
    }

    /// Like [`Storage::materialize_snapshot`], but stamps the manifest with
    /// the WAL sequence number the image covers: on recovery, commit
    /// records with a per-table sequence at or below `wal_seq` are already
    /// folded into the segments and are skipped during replay.
    pub fn materialize_snapshot_logged(
        &self,
        snapshot: &Snapshot,
        dir: &Path,
        wal_seq: u64,
    ) -> Result<Arc<FileStore>> {
        let layout = self.layout(snapshot.table())?;
        let version = segment::write_table(self, &layout, snapshot, dir, wal_seq)?;
        let store = {
            let mut slot = self.file_store.write();
            match slot.as_ref() {
                Some(existing) if existing.dir() == dir => Arc::clone(existing),
                _ => {
                    let fresh = Arc::new(FileStore::new(dir));
                    *slot = Some(Arc::clone(&fresh));
                    fresh
                }
            }
        };
        store.register_table(&layout, snapshot, version)?;
        self.inner
            .write()
            .wal_seqs
            .insert(snapshot.table(), wal_seq);
        Ok(store)
    }

    /// The WAL sequence number covered by the table's durable on-disk image
    /// (`0` if the table was never materialized with a WAL sequence).
    pub fn durable_wal_seq(&self, table: TableId) -> u64 {
        self.inner.read().wal_seqs.get(&table).copied().unwrap_or(0)
    }

    /// Whether `dir` holds a durable manifest for `table` (used by the
    /// engine to decide which tables still need a first materialization
    /// when durability is enabled).
    pub fn table_is_materialized(&self, table: TableId, dir: &Path) -> Result<bool> {
        let entry = self.table(table)?;
        Ok(dir
            .join(segment::manifest_file_name(&entry.spec.name))
            .exists())
    }

    /// The on-disk segment store, if any table has been materialized (or the
    /// storage was opened cold). The real-file I/O device is built over this
    /// handle.
    pub fn file_store(&self) -> Option<Arc<FileStore>> {
        self.file_store.read().clone()
    }

    /// Reopens a directory of materialized tables cold: a brand-new storage
    /// whose catalog, snapshots and page ids are reconstructed purely from
    /// the manifests, with every page served from the segment files.
    ///
    /// The manifests record the materialized snapshots' page ids verbatim
    /// and the reopened master snapshots reference those same ids, so
    /// `Snapshot::page` keeps mapping to the same on-disk slots and I/O
    /// traces are comparable across the round trip. Tables are created in
    /// manifest-file-name order, so table ids are deterministic.
    pub fn open_directory(dir: &Path) -> Result<Arc<Self>> {
        let manifests = segment::read_manifests(dir)?;
        let first = manifests
            .first()
            .ok_or_else(|| Error::io(format!("{}: no table manifests found", dir.display())))?;
        let (page_size, chunk_tuples) = (first.page_size, first.chunk_tuples);
        if manifests
            .iter()
            .any(|m| m.page_size != page_size || m.chunk_tuples != chunk_tuples)
        {
            return Err(Error::io(format!(
                "{}: manifests disagree on page size or chunk granularity",
                dir.display()
            )));
        }
        let storage = Self::with_seed(page_size, chunk_tuples, 0);
        let store = Arc::new(FileStore::new(dir));
        for manifest in manifests {
            let (version, wal_seq) = (manifest.version, manifest.wal_seq);
            let spec = TableSpec::new(
                manifest.name.clone(),
                manifest.columns.clone(),
                manifest.stable_tuples,
            );
            let (layout, snapshot) = {
                let mut inner = storage.inner.write();
                let id = inner.catalog.create_table(spec)?;
                // Manifests that record their original table id must get it
                // back: WAL commit records reference tables by id, so an id
                // shuffle would silently replay updates onto the wrong
                // table.
                if manifest.table_id.is_some_and(|want| want != id.raw()) {
                    return Err(Error::io(format!(
                        "{}: table {} was materialized as id {} but reopened as {}; the \
                         directory is missing the manifests of earlier tables",
                        dir.display(),
                        manifest.name,
                        manifest.table_id.unwrap_or_default(),
                        id.raw()
                    )));
                }
                let layout = inner.catalog.layout(id)?;
                // Restore persisted zone metadata so cold reopens keep
                // pruning exactly like the engine that wrote the manifest.
                let zones = (!manifest.zones.is_empty())
                    .then(|| Arc::new(ZoneMap::from_entries(chunk_tuples, manifest.zones.clone())));
                let snapshot = inner.snapshots.install_snapshot(
                    id,
                    manifest.column_pages.clone(),
                    manifest.stable_tuples,
                    zones,
                );
                inner.wal_seqs.insert(id, wal_seq);
                (layout, snapshot)
            };
            for (col, pages) in manifest.column_pages.iter().enumerate() {
                let expected = layout.pages_for_tuples(col, manifest.stable_tuples);
                if pages.len() as u64 != expected {
                    return Err(Error::io(format!(
                        "{}: table {} column {col} lists {} pages but its layout needs {expected}",
                        dir.display(),
                        manifest.name,
                        pages.len()
                    )));
                }
            }
            store.register_table(&layout, &snapshot, version)?;
        }
        *storage.file_store.write() = Some(store);
        Ok(storage)
    }

    /// Page size in bytes (uniform across the engine).
    pub fn page_size_bytes(&self) -> u64 {
        self.page_size_bytes
    }

    /// Chunk granularity in tuples.
    pub fn chunk_tuples(&self) -> u64 {
        self.chunk_tuples
    }

    /// Creates a table with default generators (uniform values per column).
    pub fn create_table(self: &Arc<Self>, spec: TableSpec) -> Result<TableId> {
        let gens = spec
            .columns
            .iter()
            .map(|_| DataGen::Uniform {
                min: 0,
                max: 10_000,
            })
            .collect();
        self.create_table_with_data(spec, gens)
    }

    /// Creates a table whose base data is produced by the given generators
    /// (one per column). Fails with [`Error::InvalidConfig`] on a generator
    /// count that does not match the columns or on a generator
    /// [`DataGen::validate`] rejects.
    pub fn create_table_with_data(
        self: &Arc<Self>,
        spec: TableSpec,
        generators: Vec<DataGen>,
    ) -> Result<TableId> {
        if generators.len() != spec.columns.len() {
            return Err(Error::config(format!(
                "table {} has {} columns but {} generators were supplied",
                spec.name,
                spec.columns.len(),
                generators.len()
            )));
        }
        for (col, gen) in generators.iter().enumerate() {
            gen.validate()
                .map_err(|e| Error::config(format!("table {} column {col}: {e}", spec.name)))?;
        }
        let stable = spec.base_tuples;
        let mut inner = self.inner.write();
        let id = inner.catalog.create_table(spec)?;
        let layout = inner.catalog.layout(id)?;
        // Zone metadata of the base image, straight from the generators:
        // O(chunks), conservative where a generator is pseudo-random.
        let entries = generators
            .iter()
            .map(|gen| {
                (0..stable.div_ceil(self.chunk_tuples))
                    .map(|chunk| {
                        let first = chunk * self.chunk_tuples;
                        let last = ((chunk + 1) * self.chunk_tuples).min(stable) - 1;
                        gen.zone_entry(first, last)
                    })
                    .collect()
            })
            .collect();
        let zones = ZoneMap::from_entries(self.chunk_tuples, entries);
        inner
            .snapshots
            .create_base_snapshot(&layout, Some(Arc::new(zones)));
        inner.datagens.insert(id, generators);
        Ok(id)
    }

    /// Looks up a table entry by name.
    pub fn table_by_name(&self, name: &str) -> Result<Arc<TableEntry>> {
        Ok(Arc::clone(self.inner.read().catalog.table_by_name(name)?))
    }

    /// Looks up a table entry by id.
    pub fn table(&self, id: TableId) -> Result<Arc<TableEntry>> {
        Ok(Arc::clone(self.inner.read().catalog.table(id)?))
    }

    /// The layout helper of a table.
    pub fn layout(&self, id: TableId) -> Result<Arc<TableLayout>> {
        self.inner.read().catalog.layout(id)
    }

    /// Resolves column names to indices.
    pub fn resolve_columns(&self, table: TableId, names: &[&str]) -> Result<Vec<usize>> {
        self.inner.read().catalog.resolve_columns(table, names)
    }

    /// Ids of all tables currently in the catalog.
    pub fn table_ids(&self) -> Vec<TableId> {
        self.inner.read().catalog.tables().map(|t| t.id).collect()
    }

    /// The current master snapshot of a table.
    pub fn master_snapshot(&self, table: TableId) -> Result<Arc<Snapshot>> {
        self.inner.read().snapshots.master(table)
    }

    /// Starts an append transaction against the current master snapshot of
    /// `table`.
    ///
    /// An append is durable only after the next checkpoint: nothing logs its
    /// rows, so a crash before then loses them. Recovery comes up at the
    /// pre-append rows without a word when no commit followed the append,
    /// and fails with [`Error::WalCorrupt`] when one did (its logged row
    /// count no longer matches).
    pub fn begin_append(self: &Arc<Self>, table: TableId) -> Result<AppendTransaction> {
        let inner = self.inner.read();
        let master = inner.snapshots.master(table)?;
        Ok(AppendTransaction {
            storage: Arc::clone(self),
            table,
            base_master: master.id(),
            working: master,
        })
    }

    /// Opens one page of one column under a snapshot for ranged reads.
    pub fn open_page(
        &self,
        layout: &TableLayout,
        snapshot: &Snapshot,
        col: usize,
        page_index: u64,
    ) -> Result<PageHandle> {
        let inner = self.inner.read();
        let file_store = self.file_store.read();
        inner.open_page(file_store.as_deref(), layout, snapshot, col, page_index)
    }

    /// Materializes one page of one column under a snapshot.
    pub fn read_page(
        &self,
        layout: &TableLayout,
        snapshot: &Snapshot,
        col: usize,
        page_index: u64,
    ) -> Result<PageData> {
        let handle = self.open_page(layout, snapshot, col, page_index)?;
        let values = match handle.values {
            PageValues::Stored(values) => values,
            PageValues::Generated { gen, seed } => {
                Arc::new(gen.materialize(seed, handle.sid_range.start, handle.sid_range.end))
            }
        };
        Ok(PageData {
            page: handle.page,
            sid_range: handle.sid_range,
            values,
        })
    }

    /// Appends the values of a column over a SID range (clamped to the
    /// snapshot, crossing page boundaries as needed) to `out`.
    pub fn read_range_into(
        &self,
        layout: &TableLayout,
        snapshot: &Snapshot,
        col: usize,
        range: TupleRange,
        out: &mut Vec<Value>,
    ) -> Result<()> {
        let clamped = range.intersect(&TupleRange::new(0, snapshot.stable_tuples()));
        let Some((first, last)) = layout.page_index_range(col, &clamped) else {
            return Ok(());
        };
        for idx in first..=last {
            let page = self.open_page(layout, snapshot, col, idx)?;
            page.fill(page.sid_range.intersect(&clamped), out);
        }
        Ok(())
    }

    /// Convenience: reads the values of a column over a SID range (crossing
    /// page boundaries as needed).
    pub fn read_range(
        &self,
        layout: &TableLayout,
        snapshot: &Snapshot,
        col: usize,
        range: TupleRange,
    ) -> Result<Vec<Value>> {
        let mut out = Vec::new();
        self.read_range_into(layout, snapshot, col, range, &mut out)?;
        Ok(out)
    }

    /// Installs a checkpoint image of `table`: a brand-new set of pages
    /// holding `values`, one vector per column, all of one length. The new
    /// snapshot becomes the master; older snapshots remain readable by
    /// whoever still holds them, and their images are freed with the last
    /// such handle.
    ///
    /// The install is a compare-and-swap: it happens only if the table's
    /// master is still `expected_master`, so a bulk append that committed
    /// while the checkpoint materialized is never silently overwritten (the
    /// append wins; the checkpoint fails with [`Error::TransactionConflict`]
    /// and can be retried against the new image).
    pub fn install_checkpoint(
        &self,
        table: TableId,
        expected_master: SnapshotId,
        values: Vec<Vec<Value>>,
    ) -> Result<Arc<Snapshot>> {
        let mut inner = self.inner.write();
        let current = inner.snapshots.master(table)?.id();
        if current != expected_master {
            return Err(Error::TransactionConflict(format!(
                "table {table}: master snapshot changed from {expected_master} to {current} while \
                 the checkpoint materialized (a concurrent bulk append committed; retry the \
                 checkpoint against the new image)"
            )));
        }
        let layout = inner.catalog.layout(table)?;
        if values.len() != layout.column_count() {
            return Err(Error::config("checkpoint values must cover every column"));
        }
        let new_tuples = values.first().map_or(0, Vec::len) as u64;
        if values.iter().any(|col| col.len() as u64 != new_tuples) {
            return Err(Error::config("checkpoint columns must have equal lengths"));
        }
        // Exact zone metadata rebuilt from the merged data: this is how
        // PDT-touched chunks get fresh bounds on absorb.
        let zones = ZoneMap::from_values(self.chunk_tuples, &values);
        let (mut snapshot, new_pages) =
            inner
                .snapshots
                .derive_checkpoint(&layout, new_tuples, Some(Arc::new(zones)));
        for np in &new_pages {
            let sids = np.sid_range.start as usize..np.sid_range.end as usize;
            snapshot.store_page(np, values[np.column_index][sids].to_vec());
        }
        let snapshot = Arc::new(snapshot);
        inner.snapshots.set_master(Arc::clone(&snapshot));
        Ok(snapshot)
    }

    /// Internal: total pages currently referenced by the master snapshots
    /// (useful for sanity checks in tests).
    pub fn master_page_count(&self, table: TableId) -> Result<usize> {
        Ok(self.master_snapshot(table)?.total_pages())
    }

    fn commit_append(
        &self,
        table: TableId,
        base_master: SnapshotId,
        working: &Arc<Snapshot>,
    ) -> Result<Arc<Snapshot>> {
        let mut inner = self.inner.write();
        let current_master = inner.snapshots.master(table)?.id();
        if current_master != base_master {
            return Err(Error::TransactionConflict(format!(
                "table {table}: master snapshot changed from {base_master} to {current_master} \
                 while the append transaction was running"
            )));
        }
        inner.snapshots.set_master(Arc::clone(working));
        Ok(Arc::clone(working))
    }

    fn append_to_snapshot(
        &self,
        table: TableId,
        working: &Snapshot,
        rows: &[Vec<Value>],
    ) -> Result<Arc<Snapshot>> {
        let mut inner = self.inner.write();
        let layout = inner.catalog.layout(table)?;
        if rows.len() != layout.column_count() {
            return Err(Error::config(format!(
                "append must provide {} columns, got {}",
                layout.column_count(),
                rows.len()
            )));
        }
        let added = rows.first().map(|c| c.len()).unwrap_or(0) as u64;
        if rows.iter().any(|c| c.len() as u64 != added) {
            return Err(Error::config("append columns must have equal lengths"));
        }
        let old_tuples = working.stable_tuples();
        // Inherit the parent snapshot's zone metadata, widened by the
        // appended rows (the last partial chunk absorbs them; fresh chunks
        // get exact entries). Parents without zones stay zone-less.
        let zones = working.zone_map().map(|parent| {
            let mut zones = (**parent).clone();
            zones.widen_append(old_tuples, rows);
            Arc::new(zones)
        });
        let (mut snapshot, new_pages) = inner
            .snapshots
            .derive_append(&layout, working, added, zones);
        let file_store = self.file_store.read().clone();

        // Materialize data for the new pages: the tuples a rewritten partial
        // page already held come from the parent snapshot's pages, appended
        // tuples from `rows`.
        for np in &new_pages {
            let col = np.column_index;
            let mut values = Vec::with_capacity(np.sid_range.len() as usize);
            let old = np.sid_range.intersect(&TupleRange::new(0, old_tuples));
            if let Some((first, last)) = layout.page_index_range(col, &old) {
                for idx in first..=last {
                    let page =
                        inner.open_page(file_store.as_deref(), &layout, working, col, idx)?;
                    page.fill(page.sid_range.intersect(&old), &mut values);
                }
            }
            let new = np
                .sid_range
                .intersect(&TupleRange::new(old_tuples, u64::MAX));
            let at = |sid: u64| (sid - old_tuples) as usize;
            values.extend_from_slice(&rows[col][at(new.start)..at(new.end)]);
            snapshot.store_page(np, values);
        }
        Ok(Arc::new(snapshot))
    }
}

/// A bulk-append transaction (the paper's `Append` operator followed by
/// `Commit`, Figure 5).
///
/// The transaction works on its own snapshot, which scans inside the same
/// transaction (and the Active Buffer Manager) can hold through
/// [`AppendTransaction::snapshot`] before commit. Only one of several
/// concurrent appenders to the same table can commit; the others fail with
/// [`Error::TransactionConflict`]. A committed append is durable only after
/// the next checkpoint (see [`Storage::begin_append`]). Dropping the
/// transaction uncommitted aborts it: its snapshot never becomes master and
/// is freed with the last handle to it (a scan may still hold one).
#[derive(Debug)]
pub struct AppendTransaction {
    storage: Arc<Storage>,
    table: TableId,
    base_master: SnapshotId,
    working: Arc<Snapshot>,
}

impl AppendTransaction {
    /// The snapshot this transaction currently sees (its own appends
    /// included).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.working)
    }

    /// Appends a batch of rows given column-major (`rows[col][i]`).
    pub fn append_rows(&mut self, rows: &[Vec<Value>]) -> Result<()> {
        self.working = self
            .storage
            .append_to_snapshot(self.table, &self.working, rows)?;
        Ok(())
    }

    /// Commits the transaction, promoting its snapshot to master.
    pub fn commit(self) -> Result<Arc<Snapshot>> {
        self.storage
            .commit_append(self.table, self.base_master, &self.working)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{ColumnSpec, ColumnType};
    use scanshare_common::RangeList;

    fn small_storage() -> Arc<Storage> {
        Storage::with_seed(1024, 1000, 7)
    }

    fn two_col_spec(base: u64) -> TableSpec {
        TableSpec::new(
            "t",
            vec![
                ColumnSpec::with_width("a", ColumnType::Int64, 8.0),
                ColumnSpec::with_width("b", ColumnType::Int64, 4.0),
            ],
            base,
        )
    }

    #[test]
    fn create_table_and_read_base_data() {
        let storage = small_storage();
        let id = storage
            .create_table_with_data(
                two_col_spec(1000),
                vec![
                    DataGen::Sequential { start: 0, step: 1 },
                    DataGen::Constant(5),
                ],
            )
            .unwrap();
        let layout = storage.layout(id).unwrap();
        let snap = storage.master_snapshot(id).unwrap();
        let a = storage
            .read_range(&layout, &snap, 0, TupleRange::new(100, 105))
            .unwrap();
        assert_eq!(a, vec![100, 101, 102, 103, 104]);
        let b = storage
            .read_range(&layout, &snap, 1, TupleRange::new(0, 3))
            .unwrap();
        assert_eq!(b, vec![5, 5, 5]);
    }

    #[test]
    fn read_range_is_clamped_to_table_size() {
        let storage = small_storage();
        let id = storage.create_table(two_col_spec(100)).unwrap();
        let layout = storage.layout(id).unwrap();
        let snap = storage.master_snapshot(id).unwrap();
        let v = storage
            .read_range(&layout, &snap, 0, TupleRange::new(90, 500))
            .unwrap();
        assert_eq!(v.len(), 10);
    }

    #[test]
    fn generator_count_must_match_columns() {
        let storage = small_storage();
        let err = storage
            .create_table_with_data(two_col_spec(10), vec![DataGen::Constant(1)])
            .unwrap_err();
        assert!(err.to_string().contains("generators"));
    }

    /// Creating a table whose second column uses `gen` fails with
    /// `InvalidConfig` and registers nothing: the same name then works.
    fn assert_generator_rejected(gen: DataGen) {
        let storage = small_storage();
        let seq = DataGen::Sequential { start: 0, step: 1 };
        let err = storage
            .create_table_with_data(two_col_spec(100), vec![seq, gen])
            .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)), "{gen:?}: {err}");
        assert!(err.to_string().contains("column 1"), "{err}");
        storage
            .create_table_with_data(two_col_spec(100), vec![seq, DataGen::Constant(1)])
            .unwrap();
    }

    #[test]
    fn cyclic_period_zero_is_rejected() {
        // Would divide by zero inside a scan worker on the first read.
        assert_generator_rejected(DataGen::Cyclic {
            period: 0,
            min: 0,
            max: 9,
        });
    }

    #[test]
    fn zipfian_span_zero_is_rejected() {
        // Would panic in `clamp(0, -1)`.
        assert_generator_rejected(DataGen::Zipfian { span: 0 });
    }

    #[test]
    fn uniform_max_below_min_is_rejected() {
        // Would wrap to values outside the zone entry's `[min, max]`.
        assert_generator_rejected(DataGen::Uniform { min: 10, max: 9 });
    }

    #[test]
    fn cyclic_period_times_span_overflow_is_rejected() {
        // `pos * span` would wrap for the late positions of the cycle.
        assert_generator_rejected(DataGen::Cyclic {
            period: 1 << 40,
            min: 0,
            max: 1 << 30,
        });
    }

    #[test]
    fn span_beyond_u64_is_rejected() {
        // 2^64 values: `max - min + 1` wraps to 0, a remainder by zero.
        assert_generator_rejected(DataGen::Uniform {
            min: i64::MIN,
            max: i64::MAX,
        });
    }

    #[test]
    fn append_commit_changes_master_and_preserves_data() {
        let storage = small_storage();
        let id = storage
            .create_table_with_data(
                two_col_spec(1000),
                vec![
                    DataGen::Sequential { start: 0, step: 1 },
                    DataGen::Constant(5),
                ],
            )
            .unwrap();
        let layout = storage.layout(id).unwrap();
        let before = storage.master_snapshot(id).unwrap();

        let mut tx = storage.begin_append(id).unwrap();
        tx.append_rows(&[vec![-1, -2, -3], vec![50, 51, 52]])
            .unwrap();
        // The transaction sees its own appended rows before commit.
        let local = tx.snapshot();
        assert_eq!(local.stable_tuples(), 1003);
        let tail = storage
            .read_range(&layout, &local, 0, TupleRange::new(1000, 1003))
            .unwrap();
        assert_eq!(tail, vec![-1, -2, -3]);
        // Old values on the rewritten partial page are preserved.
        let old = storage
            .read_range(&layout, &local, 0, TupleRange::new(995, 1000))
            .unwrap();
        assert_eq!(old, vec![995, 996, 997, 998, 999]);

        // Other transactions still see the old master until commit.
        assert_eq!(storage.master_snapshot(id).unwrap().id(), before.id());
        let committed = tx.commit().unwrap();
        assert_eq!(storage.master_snapshot(id).unwrap().id(), committed.id());
    }

    #[test]
    fn conflicting_appends_abort_the_second_committer() {
        let storage = small_storage();
        let id = storage.create_table(two_col_spec(1000)).unwrap();
        let mut t1 = storage.begin_append(id).unwrap();
        let mut t2 = storage.begin_append(id).unwrap();
        t1.append_rows(&[vec![1], vec![1]]).unwrap();
        t2.append_rows(&[vec![2], vec![2]]).unwrap();
        t2.commit().unwrap();
        let err = t1.commit().unwrap_err();
        assert!(matches!(err, Error::TransactionConflict(_)));
    }

    #[test]
    fn aborted_append_never_becomes_master() {
        let storage = small_storage();
        let id = storage.create_table(two_col_spec(1000)).unwrap();
        let before = storage.master_snapshot(id).unwrap().id();
        let mut tx = storage.begin_append(id).unwrap();
        tx.append_rows(&[vec![1, 2], vec![3, 4]]).unwrap();
        drop(tx); // the abort
        assert_eq!(storage.master_snapshot(id).unwrap().id(), before);
    }

    #[test]
    fn append_after_commit_is_rejected() {
        let storage = small_storage();
        let id = storage.create_table(two_col_spec(10)).unwrap();
        let tx = storage.begin_append(id).unwrap();
        let snapshot = tx.snapshot();
        tx.commit().unwrap();
        // a second transaction object for the same base would conflict only
        // if masters changed; committing an empty append keeps the master.
        assert_eq!(storage.master_snapshot(id).unwrap().id(), snapshot.id());
    }

    #[test]
    fn mismatched_append_shapes_are_rejected() {
        let storage = small_storage();
        let id = storage.create_table(two_col_spec(10)).unwrap();
        let mut tx = storage.begin_append(id).unwrap();
        assert!(tx.append_rows(&[vec![1]]).is_err());
        assert!(tx.append_rows(&[vec![1], vec![2, 3]]).is_err());
    }

    #[test]
    fn checkpoint_installs_fresh_pages_and_new_master() {
        let storage = small_storage();
        let id = storage
            .create_table_with_data(
                two_col_spec(1000),
                vec![
                    DataGen::Sequential { start: 0, step: 1 },
                    DataGen::Constant(5),
                ],
            )
            .unwrap();
        let layout = storage.layout(id).unwrap();
        let old = storage.master_snapshot(id).unwrap();
        let new_vals = vec![(0..900).map(|i| i * 2).collect::<Vec<i64>>(), vec![9; 900]];
        let ckpt = storage.install_checkpoint(id, old.id(), new_vals).unwrap();
        assert_eq!(storage.master_snapshot(id).unwrap().id(), ckpt.id());
        assert_eq!(old.common_prefix_pages(&ckpt).iter().sum::<usize>(), 0);
        let v = storage
            .read_range(&layout, &ckpt, 0, TupleRange::new(10, 13))
            .unwrap();
        assert_eq!(v, vec![20, 22, 24]);
        // The old snapshot still reads its original data.
        let v_old = storage
            .read_range(&layout, &old, 0, TupleRange::new(10, 13))
            .unwrap();
        assert_eq!(v_old, vec![10, 11, 12]);
    }

    #[test]
    fn checkpoint_value_shape_is_validated() {
        let storage = small_storage();
        let id = storage.create_table(two_col_spec(10)).unwrap();
        let master = storage.master_snapshot(id).unwrap().id();
        assert!(storage
            .install_checkpoint(id, master, vec![vec![1; 5]])
            .is_err());
        assert!(storage
            .install_checkpoint(id, master, vec![vec![1; 4], vec![1; 5]])
            .is_err());
        let ckpt = storage
            .install_checkpoint(id, master, vec![vec![1; 5]; 2])
            .unwrap();
        assert_eq!(ckpt.stable_tuples(), 5);
        // The compare-and-swap: the master moved, so the same install now
        // conflicts.
        assert!(matches!(
            storage.install_checkpoint(id, master, vec![vec![1; 5]; 2]),
            Err(Error::TransactionConflict(_))
        ));
    }

    #[test]
    fn base_tables_get_zone_maps_and_prune_clustered_columns() {
        use crate::zone::{ZoneOp, ZonePredicate};
        let storage = small_storage();
        let id = storage
            .create_table_with_data(
                two_col_spec(10_000),
                vec![
                    DataGen::Sequential { start: 0, step: 1 },
                    DataGen::Uniform { min: 0, max: 100 },
                ],
            )
            .unwrap();
        let snap = storage.master_snapshot(id).unwrap();
        assert!(snap.zone_map().is_some());
        // Clustered column: value < 1000 keeps exactly the first chunk.
        let all = RangeList::single(0, 10_000);
        let (kept, skipped) = snap.prune_sid_ranges(&ZonePredicate::new(0, ZoneOp::Lt, 1000), &all);
        assert_eq!(kept.total_tuples(), 1000);
        assert_eq!(skipped, 9000);
        // Random column: conservative entries keep everything.
        let (kept, skipped) = snap.prune_sid_ranges(&ZonePredicate::new(1, ZoneOp::Eq, 7), &all);
        assert_eq!(kept.total_tuples(), 10_000);
        assert_eq!(skipped, 0);
    }

    #[test]
    fn appends_widen_zones_and_value_checkpoints_rebuild_them() {
        use crate::zone::{ZoneOp, ZonePredicate};
        let storage = small_storage();
        let id = storage
            .create_table_with_data(
                two_col_spec(1000),
                vec![
                    DataGen::Sequential { start: 0, step: 1 },
                    DataGen::Constant(5),
                ],
            )
            .unwrap();
        // Append a value far outside the base range: the predicate that used
        // to prune the tail chunk must now keep it.
        let mut tx = storage.begin_append(id).unwrap();
        tx.append_rows(&[vec![-50], vec![5]]).unwrap();
        let appended = tx.commit().unwrap();
        let zones = appended.zone_map().expect("append keeps zones");
        let pred = ZonePredicate::new(0, ZoneOp::Lt, 0);
        let survivors = zones.surviving_ranges(&pred, appended.stable_tuples());
        assert!(
            survivors.contains(1000),
            "widened tail chunk must survive a value<0 predicate"
        );
        // Base chunk [0, 1000) has min 0 and is still pruned; only the
        // one-tuple tail chunk survives.
        assert_eq!(survivors.total_tuples(), 1);
        // A checkpoint rebuilds exact zones from its values.
        let vals = vec![(0..900).map(|i| i * 2).collect::<Vec<i64>>(), vec![9; 900]];
        let ckpt = storage.install_checkpoint(id, appended.id(), vals).unwrap();
        let zones = ckpt.zone_map().expect("checkpoint rebuilds");
        assert_eq!(zones.entry(0, 0).unwrap().min, 0);
        let all = RangeList::single(0, 900);
        let (kept, skipped) = ckpt.prune_sid_ranges(&ZonePredicate::new(0, ZoneOp::Lt, 0), &all);
        assert_eq!((kept.total_tuples(), skipped), (0, 900));
    }

    #[test]
    fn scan_page_plan_through_storage_layout() {
        let storage = small_storage();
        let id = storage.create_table(two_col_spec(1000)).unwrap();
        let layout = storage.layout(id).unwrap();
        let snap = storage.master_snapshot(id).unwrap();
        let plan = layout.scan_page_plan(&snap, &[0, 1], &RangeList::single(0, 1000));
        // col a: 8 B/tuple, 128 t/page -> 8 pages; col b: 4 B/tuple, 256 t/page -> 4 pages.
        assert_eq!(plan.distinct_pages(), 12);
    }
}
