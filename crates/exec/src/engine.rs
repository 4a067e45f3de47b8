//! The engine/session object tying storage, updates and buffer management
//! together.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use scanshare_common::sync::{Mutex, MutexGuard, RwLock};
use scanshare_common::{
    cpu_time, DeviceKind, Error, RangeList, Result, ScanId, ScanShareConfig, TableId, TupleRange,
    VirtualClock, VirtualDuration, VirtualInstant,
};
use scanshare_core::backend::{build_backend, ScanBackend, ScanRequest, ScanStep};
use scanshare_core::metrics::BufferStats;
use scanshare_core::opt::{simulate_opt, OptResult};
use scanshare_core::registry::PolicyRegistry;
use scanshare_iosim::{BlockDevice, FileIoDevice, IoDevice, ReferenceTrace};
use scanshare_pdt::checkpoint::checkpoint_stack;
use scanshare_pdt::pdt::Pdt;
use scanshare_pdt::table::{TablePin, TableState, TableWrites};
use scanshare_pdt::translate::plan_scan;
use scanshare_pdt::wal::{decode_commit, encode_commit, CommitTableRecord};
use scanshare_storage::datagen::Value;
use scanshare_storage::snapshot::Snapshot;
use scanshare_storage::storage::Storage;
use scanshare_storage::wal::{decode_marker, Wal, WalRecordKind};
use scanshare_storage::zone::ZonePredicate;

use crate::ops::{BatchSource, Predicate};
use crate::query::Query;
use crate::scan::ScanOperator;
use crate::txn::Txn;

/// Capacity of the file device's bounded prefetch queue: submitters block
/// once this many prefetches are waiting.
const FILE_IO_QUEUE_DEPTH: usize = 64;

/// Per-table transaction bookkeeping: the published [`TableState`] behind
/// the mutex writers hold only for a commit's validate → log → apply (or a
/// checkpoint's freeze and swap), never across I/O or materialization, plus
/// the mutex that serializes checkpoints of this table (checkpoints of
/// different tables, and writers of this one, proceed concurrently).
#[derive(Debug)]
pub(crate) struct TableUpdates {
    state: Mutex<TableState>,
    checkpoint: Mutex<()>,
}

impl TableUpdates {
    /// Locks the published state, first adopting any storage-level master
    /// change (see [`TableState::adopt_master`]) so every pin, commit and
    /// checkpoint starts from the current image.
    pub(crate) fn lock(&self, storage: &Storage) -> Result<MutexGuard<'_, TableState>> {
        let mut state = self.state.lock();
        state.adopt_master(storage)?;
        Ok(state)
    }
}

/// A query-execution session: storage + differential updates + the
/// configured concurrent-scan buffer-management backend.
///
/// The engine holds exactly one [`ScanBackend`], built by
/// [`build_backend`]: a pooled backend for the page-level policies (LRU /
/// PBM / OPT / anything registered with a [`PolicyRegistry`]) or the
/// Cooperative Scans backend. Scans never branch on the policy — they drive
/// whichever backend is installed. The backends are clock-free; the engine
/// owns the shared monotone [`VirtualClock`] they are driven on.
#[derive(Debug)]
pub struct Engine {
    storage: Arc<Storage>,
    config: ScanShareConfig,
    backend: Box<dyn ScanBackend>,
    device: Arc<dyn BlockDevice>,
    clock: Arc<VirtualClock>,
    trace: Option<Arc<ReferenceTrace>>,
    tables: RwLock<HashMap<TableId, Arc<TableUpdates>>>,
    /// The write-ahead log, present when
    /// [`ScanShareConfig::wal_dir`] selects a durability directory. Commits
    /// append to it before they are acknowledged; [`Engine::recover`]
    /// replays it over the last durable segment image.
    wal: Option<Arc<Wal>>,
    /// Tuples zone-map pruning removed before registration (counted by
    /// [`Engine::scan_request`]), reported as [`BufferStats::pruned_tuples`].
    pruned_tuples: AtomicU64,
}

impl Engine {
    /// Creates an engine over `storage` with the policy selected in `config`,
    /// resolving page-level policies from the default [`PolicyRegistry`]
    /// (`"lru"`, `"pbm"`, `"pbm-lru"`).
    ///
    /// `PolicyKind::Opt` runs the engine under PBM while recording the page
    /// reference trace; [`Engine::opt_result`] then replays that trace under
    /// Belady's algorithm, exactly like the paper's OPT methodology.
    pub fn new(storage: Arc<Storage>, config: ScanShareConfig) -> Result<Arc<Self>> {
        Self::with_registry(storage, config, &PolicyRegistry::default())
    }

    /// Like [`Engine::new`], resolving the replacement policy from a caller
    /// supplied registry. `config.custom_policy` selects a registered policy
    /// by name; otherwise `config.policy` maps to the built-in names.
    pub fn with_registry(
        storage: Arc<Storage>,
        config: ScanShareConfig,
        registry: &PolicyRegistry,
    ) -> Result<Arc<Self>> {
        config.validate()?;
        // A durability directory needs a base image for every table before
        // the device is built: `DeviceKind::File` requires the file store
        // the materialization creates.
        Self::ensure_durable_base(&storage, &config)?;
        let device: Arc<dyn BlockDevice> = match config.device {
            DeviceKind::Sim => Arc::new(IoDevice::new(
                config.io_bandwidth,
                VirtualDuration::from_nanos(config.io_latency_nanos),
            )),
            DeviceKind::File => {
                let store = storage.file_store().ok_or_else(|| {
                    Error::config(
                        "device = file requires file-backed storage: materialize the tables \
                         (Storage::materialize_table) or open an on-disk directory \
                         (Storage::open_directory) first",
                    )
                })?;
                Arc::new(FileIoDevice::new(
                    store,
                    config.io_workers,
                    FILE_IO_QUEUE_DEPTH,
                ))
            }
        };
        Self::with_device(storage, config, registry, device)
    }

    /// Like [`Engine::with_registry`], running all I/O through a caller
    /// supplied [`BlockDevice`] — the hook used by fault-injection tests and
    /// custom device wrappers. The device's virtual-time completions drive
    /// the engine's clock exactly as the built-in devices do.
    pub fn with_device(
        storage: Arc<Storage>,
        config: ScanShareConfig,
        registry: &PolicyRegistry,
        device: Arc<dyn BlockDevice>,
    ) -> Result<Arc<Self>> {
        config.validate()?;
        Self::ensure_durable_base(&storage, &config)?;
        let wal = match &config.wal_dir {
            Some(dir) => Some(Arc::new(Wal::open(dir, config.wal_group_commit)?)),
            None => None,
        };
        let (backend, trace) = build_backend(&config, registry, Arc::clone(&device))?;

        Ok(Arc::new(Self {
            storage,
            config,
            backend,
            device,
            clock: VirtualClock::shared(),
            trace,
            tables: RwLock::new(HashMap::new()),
            wal,
            pruned_tuples: AtomicU64::new(0),
        }))
    }

    /// When `config.wal_dir` selects a durability directory, materializes
    /// every catalog table that has no on-disk manifest there yet, so the
    /// WAL always replays over a complete durable base image. Idempotent:
    /// already-materialized tables (including everything restored by
    /// [`Storage::open_directory`]) are left untouched.
    fn ensure_durable_base(storage: &Arc<Storage>, config: &ScanShareConfig) -> Result<()> {
        let Some(dir) = &config.wal_dir else {
            return Ok(());
        };
        for table in storage.table_ids() {
            if !storage.table_is_materialized(table, dir)? {
                let snapshot = storage.master_snapshot(table)?;
                storage.materialize_snapshot(&snapshot, dir)?;
            }
        }
        Ok(())
    }

    /// The engine's write-ahead log, when durability is configured.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.as_ref()
    }

    /// The commit sequence [`Txn::commit`] and the auto-commit updates
    /// share, run under the written tables' state locks (`written[i]` goes
    /// to `states[i]`; none is read-only): validates every write set
    /// (first-committer-wins) before applying any, and appends the commit's
    /// WAL record *before* the in-memory apply — under the locks, so the log
    /// order matches the commit-sequence order. Returns the record's log
    /// sequence for [`Engine::wal_commit_sync`], which the caller runs once
    /// the locks are released.
    pub(crate) fn commit_locked(
        &self,
        states: &mut [MutexGuard<'_, TableState>],
        written: Vec<TableWrites>,
    ) -> Result<Option<u64>> {
        let mut records = Vec::with_capacity(written.len());
        for (writes, state) in written.into_iter().zip(states.iter()) {
            records.extend(state.commit_record(writes)?);
        }
        debug_assert_eq!(records.len(), states.len());
        let wal_seq = match &self.wal {
            Some(wal) => Some(wal.append_commit(&encode_commit(&records))?),
            None => None,
        };
        for (record, state) in records.iter().zip(states) {
            state.apply(record)?;
        }
        Ok(wal_seq)
    }

    /// Makes the commit record `seq` durable subject to group commit; a
    /// no-op for engines without a WAL.
    pub(crate) fn wal_commit_sync(&self, seq: Option<u64>) -> Result<()> {
        if let (Some(wal), Some(seq)) = (&self.wal, seq) {
            wal.commit_sync(seq)?;
        }
        Ok(())
    }

    /// The underlying storage engine.
    pub fn storage(&self) -> &Arc<Storage> {
        &self.storage
    }

    /// The engine configuration.
    pub fn config(&self) -> &ScanShareConfig {
        &self.config
    }

    /// The engine's virtual clock.
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.clock
    }

    /// The I/O device every backend charge goes through: the simulated
    /// device by default, the file-backed device under
    /// [`DeviceKind::File`], or whatever [`Engine::with_device`] injected.
    pub fn device(&self) -> &Arc<dyn BlockDevice> {
        &self.device
    }

    /// Current virtual time.
    pub fn now(&self) -> VirtualInstant {
        self.clock.now()
    }

    /// The scan backend every scan of this engine drives.
    pub fn backend(&self) -> &dyn ScanBackend {
        self.backend.as_ref()
    }

    /// Blocks `scan` (in virtual time) until the backend delivers its next
    /// SID range; `None` once every registered range was delivered.
    ///
    /// Every probe first runs the backend's loader step at `now`
    /// ([`ScanBackend::pump_loads`]), which catches the chunk loader up as
    /// if it had run beside the scans — in a real system a dedicated ABM
    /// thread does. A starved scan advances the clock to the completion of
    /// the load left in flight (possibly one another stream planned) and
    /// probes again. The step is atomic in the backend, so an idle loader
    /// is a fact about the pipeline, not a race between two streams.
    pub(crate) fn wait_for_chunk(&self, scan: ScanId) -> Result<Option<TupleRange>> {
        let mut idle = false;
        loop {
            let due = self.backend.pump_loads(self.now())?;
            match self.backend.next_chunk(scan)? {
                ScanStep::Deliver(sids) => return Ok(Some(sids)),
                ScanStep::Finished => return Ok(None),
                ScanStep::Starved => match due {
                    Some(done) => {
                        self.clock.advance_to(done);
                    }
                    // Idle at two steps with a probe between: nothing
                    // cached, nothing loadable, nothing in flight.
                    None if idle => return Err(Error::ScanStarved(scan)),
                    None => idle = true,
                },
            }
        }
    }

    /// Aggregated buffer-manager statistics, with the engine's pruning count.
    pub fn buffer_stats(&self) -> BufferStats {
        BufferStats {
            pruned_tuples: self.pruned_tuples.load(Ordering::Relaxed),
            ..self.backend.stats()
        }
    }

    /// Replays the recorded page-reference trace under Belady's OPT with the
    /// configured buffer capacity. Only available when the engine was created
    /// with `PolicyKind::Opt`.
    pub fn opt_result(&self) -> Result<OptResult> {
        let trace = self
            .trace
            .as_ref()
            .ok_or_else(|| Error::Unsupported("OPT trace recording is not enabled".into()))?;
        Ok(simulate_opt(
            &trace.pages(),
            self.config.buffer_pool_pages().max(1),
        ))
    }

    // ------------------------------------------------------------------
    // Differential updates: snapshot-isolated transactions over stacked
    // PDTs (see `txn` for the isolation model)
    // ------------------------------------------------------------------

    /// The transaction bookkeeping of a table (created on first use from
    /// the current storage master snapshot).
    pub(crate) fn table_updates(&self, table: TableId) -> Result<Arc<TableUpdates>> {
        {
            let tables = self.tables.read();
            if let Some(updates) = tables.get(&table) {
                return Ok(Arc::clone(updates));
            }
        }
        let state = TableState::open(&self.storage, table)?;
        let mut tables = self.tables.write();
        Ok(Arc::clone(tables.entry(table).or_insert_with(|| {
            Arc::new(TableUpdates {
                state: Mutex::new(state),
                checkpoint: Mutex::new(()),
            })
        })))
    }

    /// Pins the current published `(Snapshot, PdtStack)` pair of `table`:
    /// the consistent view every scan (and every transaction, at its first
    /// touch of the table) works against. Cheap — two `Arc` clones under a
    /// short mutex.
    pub fn table_pin(&self, table: TableId) -> Result<TablePin> {
        Ok(self.table_updates(table)?.lock(&self.storage)?.pin())
    }

    /// Begins a snapshot-isolated update transaction; see [`Txn`].
    pub fn begin(self: &Arc<Self>) -> Txn {
        Txn::new(Arc::clone(self))
    }

    /// Applies one auto-committed update under the state mutex (a one-op
    /// transaction that can never conflict). The op runs against a private
    /// layer — exactly like a [`Txn`] — so the committed delta can be
    /// logged to the WAL before it is folded into the shared stack.
    fn autocommit(
        &self,
        table: TableId,
        op: impl FnOnce(&mut TableWrites) -> Result<()>,
    ) -> Result<()> {
        let updates = self.table_updates(table)?;
        let mut state = updates.lock(&self.storage)?;
        let mut writes = TableWrites::new(state.pin());
        op(&mut writes)?;
        if writes.is_read_only() {
            return Ok(());
        }
        // The commit consumes `writes` and with it the pin, so the layer is
        // folded into the shared stack in place, not into a copy of it.
        let wal_seq = self.commit_locked(std::slice::from_mut(&mut state), vec![writes])?;
        drop(state);
        self.wal_commit_sync(wal_seq)
    }

    /// Number of rows currently visible in `table` (stable tuples of the
    /// adopted snapshot plus PDT inserts minus deletes).
    pub fn visible_rows(&self, table: TableId) -> Result<u64> {
        Ok(self.table_pin(table)?.visible_rows())
    }

    /// Inserts a row at visible position `rid` (use `visible_rows` to append
    /// at the end) as a single auto-committed transaction.
    pub fn insert_row(&self, table: TableId, rid: u64, row: Vec<Value>) -> Result<()> {
        self.autocommit(table, |writes| writes.insert(rid, row))
    }

    /// Deletes the visible row at `rid` as a single auto-committed
    /// transaction.
    pub fn delete_row(&self, table: TableId, rid: u64) -> Result<()> {
        self.autocommit(table, |writes| writes.delete(rid))
    }

    /// Updates column `col` of the visible row at `rid` as a single
    /// auto-committed transaction.
    pub fn update_value(&self, table: TableId, rid: u64, col: usize, value: Value) -> Result<()> {
        self.autocommit(table, |writes| writes.modify(rid, col, value))
    }

    /// Checkpoints `table`: materializes the pending differential updates
    /// into a brand-new stable image (Figure 7) and swaps it in as the
    /// table's published snapshot, with a fresh (empty apart from
    /// mid-checkpoint commits) PDT stack on top.
    ///
    /// The checkpoint is **background-safe**: the table's state mutex is
    /// held only for the freeze and the final swap, never across the
    /// materialization itself, so writers commit and scans start throughout
    /// (a regression test drives writers mid-checkpoint). Concretely:
    ///
    /// 1. **Freeze** — pin the current `(snapshot, stack)` pair and push a
    ///    fresh top layer; commits arriving while the checkpoint runs fold
    ///    into that top layer, whose positions refer to the frozen stream —
    ///    which is exactly the new image's stable stream.
    /// 2. **Materialize** — scan the pinned snapshot, merge the frozen
    ///    layers, install the result as a new storage snapshot sharing no
    ///    pages with the old one. Scans pinned to the old pair keep reading
    ///    the old pages.
    /// 3. **Swap** — atomically publish (new snapshot, during-checkpoint
    ///    layers), bump the checkpoint epoch and hand the old snapshot's
    ///    now-unreachable pages to the scan backend's
    ///    [`invalidate_stale`](scanshare_core::backend::ScanBackend::invalidate_stale)
    ///    hook so the buffer manager returns their capacity immediately —
    ///    still under the table's checkpoint lock, so a table's
    ///    invalidations reach the backend once each and in order.
    ///
    /// Checkpoints of the same table serialize; checkpoints of different
    /// tables run concurrently. Returns the new master snapshot.
    pub fn checkpoint(&self, table: TableId) -> Result<Arc<Snapshot>> {
        let updates = self.table_updates(table)?;
        let _one_at_a_time = updates.checkpoint.lock();

        // Phase 1: freeze.
        let frozen = updates.lock(&self.storage)?.freeze();
        let through_seq = frozen.commit_seq;

        // Phase 2: materialize without holding the state mutex. For durable
        // engines the phase is bracketed by WAL markers and additionally
        // writes the new image's segments + manifest (atomically renamed —
        // the real durable commit point of the checkpoint); the manifest is
        // stamped with `through_seq`, so recovery replays exactly the
        // commits that arrived while the checkpoint ran.
        let materialized = (|| -> Result<Arc<Snapshot>> {
            if let Some(wal) = &self.wal {
                wal.append_marker(WalRecordKind::CheckpointBegin, table, through_seq)?;
            }
            let new_snapshot =
                checkpoint_stack(&self.storage, table, &frozen.snapshot, &frozen.stack)?;
            if let Some(dir) = &self.config.wal_dir {
                self.storage
                    .materialize_snapshot_logged(&new_snapshot, dir, through_seq)?;
            }
            Ok(new_snapshot)
        })();
        let new_snapshot = match materialized {
            Ok(snapshot) => snapshot,
            Err(err) => {
                updates.state.lock().thaw()?;
                return Err(err);
            }
        };

        // Phase 3: swap and invalidate.
        let (_, stale) = updates
            .state
            .lock()
            .install(&frozen, Arc::clone(&new_snapshot));
        self.backend.invalidate_stale(table, &stale);
        if let Some(wal) = &self.wal {
            wal.append_marker(WalRecordKind::CheckpointEnd, table, through_seq)?;
            // The durable images now cover everything up to `through_seq`
            // for this table: rotate the covered prefix out of the log so it
            // stops growing without bound across checkpoints.
            self.rotate_wal(wal)?;
        }
        Ok(new_snapshot)
    }

    /// Rotates the WAL, dropping every record the durable segment manifests
    /// already cover: commit records whose *every* table entry is at or
    /// below that table's manifest `wal_seq`, and checkpoint markers of
    /// completed checkpoints. Records that fail to decode are conservatively
    /// kept (recovery, not rotation, is the place to diagnose them).
    fn rotate_wal(&self, wal: &Wal) -> Result<()> {
        let storage = &self.storage;
        wal.rotate(|record| match record.kind {
            WalRecordKind::Commit => match decode_commit(&record.body) {
                Ok(entries) => entries
                    .iter()
                    .all(|e| e.commit_seq <= storage.durable_wal_seq(e.table)),
                Err(_) => false,
            },
            WalRecordKind::CheckpointBegin | WalRecordKind::CheckpointEnd => {
                match decode_marker(&record.body) {
                    Ok((table, seq)) => seq <= storage.durable_wal_seq(table),
                    Err(_) => false,
                }
            }
        })?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Crash recovery
    // ------------------------------------------------------------------

    /// Recovers an engine from a durability directory after a crash: reopens
    /// the last durable segment images cold ([`Storage::open_directory`]),
    /// then replays the write-ahead log's commit records on top — skipping
    /// everything a completed checkpoint already folded into the segments —
    /// so the recovered engine sees exactly the durable prefix of the
    /// committed history (every synced commit; under group commit, possibly
    /// minus up to `group_commit - 1` of the newest unsynced ones).
    ///
    /// `config`'s physical layout (`page_size_bytes`, `chunk_tuples`) is
    /// overridden by what the manifests record, and `wal_dir` is pointed at
    /// `dir`, so the recovered engine keeps logging to the same WAL.
    ///
    /// Torn state is handled, never fatal: a torn final WAL record is
    /// truncated away, and a checkpoint that crashed between its begin/end
    /// markers is ignored (the atomically-renamed manifest means the old
    /// image is still the authoritative base). Structural contradictions
    /// surface as typed errors instead of panics:
    /// [`Error::WalCorrupt`] for records that contradict the rebuilt state
    /// and [`Error::WalUnknownTable`] for records naming a table absent
    /// from the recovered catalog.
    pub fn recover(dir: impl AsRef<Path>, config: ScanShareConfig) -> Result<Arc<Self>> {
        let dir = dir.as_ref();
        let storage = Storage::open_directory(dir)?;
        let mut config = config;
        config.page_size_bytes = storage.page_size_bytes();
        config.chunk_tuples = storage.chunk_tuples();
        config.wal_dir = Some(dir.to_path_buf());
        let engine = Self::new(storage, config)?;
        engine.replay_wal(dir)?;
        Ok(engine)
    }

    /// Replays every verified WAL record over the freshly opened durable
    /// images. Commit records re-apply their serialized private PDTs through
    /// the same [`TableState::apply`] a live commit uses; checkpoint
    /// markers are validated but drive no state (the manifest rename is the
    /// checkpoint's durable commit point).
    fn replay_wal(&self, dir: &Path) -> Result<()> {
        for record in Wal::read_records(dir)? {
            match record.kind {
                WalRecordKind::Commit => {
                    for entry in decode_commit(&record.body)? {
                        self.replay_commit(entry)?;
                    }
                }
                WalRecordKind::CheckpointBegin | WalRecordKind::CheckpointEnd => {
                    let (table, _seq) = decode_marker(&record.body)?;
                    if self.storage.table(table).is_err() {
                        return Err(Error::WalUnknownTable(table));
                    }
                }
            }
        }
        Ok(())
    }

    /// Re-applies one table's share of a logged commit through
    /// [`TableState::apply`], which skips what the durable image already
    /// covers and rejects a record that contradicts the rebuilt state. No
    /// master adoption here: replay runs over exactly the image it opened.
    fn replay_commit(&self, entry: CommitTableRecord) -> Result<()> {
        if self.storage.table(entry.table).is_err() {
            return Err(Error::WalUnknownTable(entry.table));
        }
        self.table_updates(entry.table)?.state.lock().apply(&entry)
    }

    // ------------------------------------------------------------------
    // Queries and scans
    // ------------------------------------------------------------------

    /// Starts building a query over `table`; see [`Query`] for the available
    /// clauses. This is the primary entry point for running queries:
    ///
    /// ```ignore
    /// let result = engine
    ///     .query(table)
    ///     .columns(["k", "v"])
    ///     .range(..)
    ///     .filter(Predicate::new(1, CompareOp::Le, 50))
    ///     .aggregate(AggrSpec::global(vec![Aggregate::Count]))
    ///     .parallelism(4)
    ///     .run()?;
    /// ```
    pub fn query(self: &Arc<Self>, table: TableId) -> Query {
        Query::new(Arc::clone(self), table)
    }

    /// Opens a scan over `columns` (by name) of the visible row range
    /// `rid_range`, reading through `pin` — the table's current state from
    /// [`Engine::table_pin`], a transaction's view, or a pin captured
    /// earlier for a consistent multi-scan read — and driven by the engine's
    /// backend: sequential range delivery for pooled backends, ABM chunk
    /// dispatch (out of table order) for Cooperative Scans unless `in_order`
    /// forces table order (the "CScan as drop-in replacement for Scan" mode
    /// of Section 2.3). `filter` is the row-level predicate the plan will
    /// apply (column index within the `columns` projection); the engine uses
    /// it for zone-map pruning — chunks whose min/max metadata proves no row
    /// can match are removed from the scan's stable interest *before* the
    /// backend sees the chunk list — while the row-level filtering itself
    /// stays the caller's job.
    pub fn scan_pinned(
        self: &Arc<Self>,
        pin: TablePin,
        columns: &[&str],
        rid_range: TupleRange,
        in_order: bool,
        filter: Option<&Predicate>,
    ) -> Result<Box<dyn BatchSource + Send>> {
        let column_indices = self.storage.resolve_columns(pin.table, columns)?;
        // Translate the projection-relative predicate into a table-relative
        // zone predicate. A predicate naming a column outside the projection
        // never prunes here, and nothing later rejects it — batches are
        // indexed unchecked — so `Query::validate` refuses such a plan before
        // it opens a scan; a direct caller must do the same.
        let zone_pred = filter.and_then(|pred| {
            let table_col = *column_indices.get(pred.column)?;
            Some(ZonePredicate::new(table_col, pred.op, pred.value))
        });
        Ok(Box::new(ScanOperator::with_pin(
            Arc::clone(self),
            pin,
            column_indices,
            rid_range,
            in_order,
            zone_pred,
        )?))
    }

    /// Builds the backend request of a scan of the visible rows `rid_range`
    /// over `columns` of `pin`, whose layer stack flattens to `pdt`: the one
    /// builder both executors register their scans through. [`plan_scan`]
    /// clamps and translates the range and, when
    /// [`ScanShareConfig::zone_maps`] is on, prunes it by `zone_pred`; the
    /// skipped tuples are counted here, also when no scan registers. Returns
    /// the requested RID ranges and the request, `None` when the range
    /// touches no stable data (empty, pure PDT inserts or wholly pruned).
    pub fn scan_request(
        &self,
        pin: &TablePin,
        pdt: &Pdt,
        columns: &[usize],
        rid_range: TupleRange,
        zone_pred: Option<&ZonePredicate>,
        in_order: bool,
    ) -> Result<(RangeList, Option<ScanRequest>)> {
        let zone_pred = zone_pred.filter(|_| self.config.zone_maps);
        let (requested, ranges, skipped) = plan_scan(&pin.snapshot, pdt, rid_range, zone_pred);
        self.pruned_tuples.fetch_add(skipped, Ordering::Relaxed);
        if ranges.is_empty() {
            return Ok((requested, None));
        }
        let request = ScanRequest {
            table: pin.table,
            snapshot: Arc::clone(&pin.snapshot),
            layout: self.storage.layout(pin.table)?,
            columns: columns.to_vec(),
            ranges,
            in_order,
        };
        Ok((requested, Some(request)))
    }

    /// Charges `tuples` of CPU work to the engine's virtual clock.
    pub(crate) fn charge_cpu(&self, tuples: u64) {
        self.clock.advance(cpu_time(tuples, 1.0, 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanshare_common::{PolicyKind, Rid};
    use scanshare_core::policy::{ReplacementPolicy, ScanInfo};
    use scanshare_pdt::pdt::Pdt;
    use scanshare_storage::column::{ColumnSpec, ColumnType};
    use scanshare_storage::datagen::DataGen;
    use scanshare_storage::layout::ScanPagePlan;
    use scanshare_storage::table::TableSpec;

    fn storage_with_table(tuples: u64) -> (Arc<Storage>, TableId) {
        let storage = Storage::with_seed(1024, 500, 5);
        let spec = TableSpec::new(
            "t",
            vec![
                ColumnSpec::with_width("k", ColumnType::Int64, 8.0),
                ColumnSpec::with_width("v", ColumnType::Int64, 4.0),
            ],
            tuples,
        );
        let id = storage
            .create_table_with_data(
                spec,
                vec![
                    DataGen::Sequential { start: 0, step: 1 },
                    DataGen::Constant(2),
                ],
            )
            .unwrap();
        (storage, id)
    }

    fn config(policy: PolicyKind) -> ScanShareConfig {
        ScanShareConfig {
            page_size_bytes: 1024,
            chunk_tuples: 500,
            buffer_pool_bytes: 64 * 1024,
            policy,
            ..Default::default()
        }
    }

    #[test]
    fn engine_selects_backend_by_policy() {
        let (storage, _) = storage_with_table(100);
        let lru = Engine::new(Arc::clone(&storage), config(PolicyKind::Lru)).unwrap();
        assert_eq!(lru.backend().kind(), PolicyKind::Lru);
        assert_eq!(lru.backend().name(), "lru");
        let pbm = Engine::new(Arc::clone(&storage), config(PolicyKind::Pbm)).unwrap();
        assert_eq!(pbm.backend().name(), "pbm");
        let cscan = Engine::new(Arc::clone(&storage), config(PolicyKind::CScan)).unwrap();
        assert_eq!(cscan.backend().kind(), PolicyKind::CScan);
        assert_eq!(cscan.backend().name(), "cscan");
        let opt = Engine::new(storage, config(PolicyKind::Opt)).unwrap();
        assert_eq!(opt.backend().name(), "pbm", "OPT records a trace under PBM");
        assert!(opt.opt_result().is_ok());
        assert!(lru.opt_result().is_err());
    }

    /// The engine counts pruning once, whatever the backend — also for a
    /// range pruning removes entirely, whose scan never registers.
    #[test]
    fn pruned_tuples_are_counted_by_the_engine_on_every_backend() {
        use crate::ops::{AggrSpec, Aggregate, CompareOp, Predicate};
        for policy in [PolicyKind::Lru, PolicyKind::Pbm, PolicyKind::CScan] {
            let (storage, table) = storage_with_table(3000);
            let engine = Engine::new(storage, config(policy)).unwrap();
            assert_eq!(engine.buffer_stats().pruned_tuples, 0, "{policy}");
            let count_below_500 = |range: TupleRange| {
                let result = engine
                    .query(table)
                    .columns(["k", "v"])
                    .tuple_range(range)
                    .filter(Predicate::new(0, CompareOp::Lt, 500))
                    .aggregate(AggrSpec::global(vec![Aggregate::Count]))
                    .run()
                    .unwrap();
                result.get(&0).map_or(0, |group| group.count)
            };
            // Chunk c holds the keys [500c, 500c + 500): five of six chunks
            // are pruned.
            assert_eq!(count_below_500(TupleRange::new(0, 3000)), 500, "{policy}");
            let before = engine.buffer_stats();
            assert_eq!(before.pruned_tuples, 2500, "{policy}");
            // No key in 1000..2000 is below 500: the whole range is pruned,
            // so no scan registers and nothing is read.
            assert_eq!(count_below_500(TupleRange::new(1000, 2000)), 0, "{policy}");
            let after = engine.buffer_stats();
            assert_eq!(after.pruned_tuples, 3500, "{policy}");
            assert_eq!(
                (after.hits, after.misses, after.io_bytes),
                (before.hits, before.misses, before.io_bytes),
                "{policy}"
            );
        }
    }

    #[derive(Debug)]
    struct NeverEvict;

    impl ReplacementPolicy for NeverEvict {
        fn name(&self) -> &'static str {
            "never-evict"
        }
        fn register_scan(&mut self, _: &ScanInfo, _: &ScanPagePlan, _: VirtualInstant) {}
        fn report_scan_position(&mut self, _: scanshare_common::ScanId, _: u64, _: VirtualInstant) {
        }
        fn unregister_scan(&mut self, _: scanshare_common::ScanId, _: VirtualInstant) {}
        fn on_access(
            &mut self,
            _: scanshare_common::PageId,
            _: Option<scanshare_common::ScanId>,
            _: VirtualInstant,
        ) {
        }
        fn on_admit(&mut self, _: scanshare_common::PageId, _: VirtualInstant) {}
        fn on_evict(&mut self, _: scanshare_common::PageId) {}
        fn choose_victims(
            &mut self,
            _: usize,
            _: &std::collections::HashSet<scanshare_common::PageId>,
            _: VirtualInstant,
        ) -> Vec<scanshare_common::PageId> {
            Vec::new()
        }
    }

    #[test]
    fn custom_policies_plug_in_through_the_registry() {
        let (storage, table) = storage_with_table(200);
        let mut registry = PolicyRegistry::default();
        registry.register("never-evict", |_| Box::new(NeverEvict));
        let cfg = config(PolicyKind::Lru).with_custom_policy("never-evict");
        let engine = Engine::with_registry(Arc::clone(&storage), cfg, &registry).unwrap();
        assert_eq!(engine.backend().name(), "never-evict");
        // The engine actually scans through the custom policy.
        let count = engine
            .query(table)
            .columns(["k"])
            .aggregate(crate::ops::AggrSpec::global(vec![
                crate::ops::Aggregate::Count,
            ]))
            .run()
            .unwrap()[&0]
            .count;
        assert_eq!(count, 200);

        // Unknown names surface a configuration error.
        let bad = config(PolicyKind::Lru).with_custom_policy("does-not-exist");
        assert!(Engine::with_registry(storage, bad, &registry).is_err());
    }

    #[test]
    fn invalid_config_is_rejected() {
        let (storage, _) = storage_with_table(10);
        let bad = ScanShareConfig {
            page_size_bytes: 0,
            ..config(PolicyKind::Lru)
        };
        assert!(Engine::new(Arc::clone(&storage), bad).is_err());
        let conflicting = config(PolicyKind::CScan).with_custom_policy("lru");
        assert!(Engine::new(storage, conflicting).is_err());
    }

    #[test]
    fn updates_change_visible_rows() {
        let (storage, table) = storage_with_table(100);
        let engine = Engine::new(storage, config(PolicyKind::Lru)).unwrap();
        assert_eq!(engine.visible_rows(table).unwrap(), 100);
        engine.insert_row(table, 0, vec![-1, -1]).unwrap();
        assert_eq!(engine.visible_rows(table).unwrap(), 101);
        engine.delete_row(table, 5).unwrap();
        engine.delete_row(table, 5).unwrap();
        assert_eq!(engine.visible_rows(table).unwrap(), 99);
        engine.update_value(table, 0, 1, 42).unwrap();
        // Bad positions surface errors.
        assert!(engine.insert_row(table, 10_000, vec![0, 0]).is_err());
    }

    #[test]
    fn checkpoint_clears_the_pdt_and_keeps_visible_data() {
        let (storage, table) = storage_with_table(200);
        let engine = Engine::new(Arc::clone(&storage), config(PolicyKind::Lru)).unwrap();
        engine.delete_row(table, 0).unwrap();
        engine.insert_row(table, 0, vec![-7, -8]).unwrap();
        let before = engine.visible_rows(table).unwrap();
        let snapshot = engine.checkpoint(table).unwrap();
        assert_eq!(snapshot.stable_tuples(), before);
        assert!(engine.table_pin(table).unwrap().stack.is_empty());
        assert_eq!(engine.visible_rows(table).unwrap(), before);
        // The checkpointed data starts with the inserted row.
        let layout = storage.layout(table).unwrap();
        let head = storage
            .read_range(&layout, &snapshot, 0, TupleRange::new(0, 2))
            .unwrap();
        assert_eq!(head, vec![-7, 1]);
    }

    struct TestDir(std::path::PathBuf);

    impl TestDir {
        fn new(tag: &str) -> Self {
            use std::sync::atomic::{AtomicU32, Ordering};
            static SEQ: AtomicU32 = AtomicU32::new(0);
            let seq = SEQ.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir().join(format!(
                "scanshare-engine-{tag}-{}-{seq}",
                std::process::id()
            ));
            std::fs::create_dir_all(&path).unwrap();
            Self(path)
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn head_rows(engine: &Arc<Engine>, table: TableId, n: u64) -> Vec<Vec<Value>> {
        engine
            .query(table)
            .columns(["k", "v"])
            .range(..n)
            .in_order()
            .rows()
            .unwrap()
    }

    #[test]
    fn committed_updates_survive_recovery() {
        let dir = TestDir::new("recover");
        let (storage, table) = storage_with_table(100);
        let cfg = config(PolicyKind::Lru).with_wal_dir(&dir.0);
        let engine = Engine::new(storage, cfg).unwrap();
        assert!(engine.wal().is_some());
        engine.insert_row(table, 0, vec![-1, -2]).unwrap();
        engine.delete_row(table, 50).unwrap();
        engine.update_value(table, 1, 1, 99).unwrap();
        let mut txn = engine.begin();
        txn.insert(table, 0, vec![-3, -4]).unwrap();
        txn.delete(table, 2).unwrap();
        txn.commit().unwrap();
        let visible = engine.visible_rows(table).unwrap();
        let head = head_rows(&engine, table, 4);
        drop(engine);

        // "Crash": recover cold from the directory, replaying the WAL.
        let recovered = Engine::recover(&dir.0, config(PolicyKind::Lru)).unwrap();
        assert_eq!(recovered.visible_rows(table).unwrap(), visible);
        assert_eq!(head_rows(&recovered, table, 4), head);

        // A checkpoint folds the replayed updates into a new durable image;
        // commits after it land in the WAL and survive another recovery.
        recovered.checkpoint(table).unwrap();
        recovered.delete_row(table, 0).unwrap();
        drop(recovered);
        let again = Engine::recover(&dir.0, config(PolicyKind::Lru)).unwrap();
        assert_eq!(again.visible_rows(table).unwrap(), visible - 1);
    }

    #[test]
    fn recovery_rejects_records_for_unknown_tables() {
        use scanshare_pdt::wal::{encode_commit, CommitTableRecord};
        use scanshare_storage::wal::{Wal, WalRecordKind};

        let dir = TestDir::new("unknown");
        let (storage, table) = storage_with_table(50);
        let engine = Engine::new(storage, config(PolicyKind::Lru).with_wal_dir(&dir.0)).unwrap();
        engine.delete_row(table, 0).unwrap();
        drop(engine);

        // Forge a commit record naming a table the catalog never had.
        let wal = Wal::open(&dir.0, 1).unwrap();
        let mut pdt = Pdt::new(2);
        pdt.delete(Rid::new(0), 10).unwrap();
        let body = encode_commit(&[CommitTableRecord {
            table: TableId::new(9),
            commit_seq: 1,
            visible_before: 10,
            pdt: pdt.into(),
        }]);
        wal.append_commit(&body).unwrap();
        wal.sync_all().unwrap();
        drop(wal);
        let err = Engine::recover(&dir.0, config(PolicyKind::Lru)).unwrap_err();
        assert!(
            matches!(err, Error::WalUnknownTable(t) if t == TableId::new(9)),
            "got {err:?}"
        );

        // The same applies to checkpoint markers naming absent tables.
        let wal = Wal::open(&dir.0, 1).unwrap();
        // Drop the forged commit by rewriting the log: truncate to empty.
        drop(wal);
        std::fs::write(dir.0.join("wal.log"), b"").unwrap();
        let wal = Wal::open(&dir.0, 1).unwrap();
        wal.append_marker(WalRecordKind::CheckpointBegin, TableId::new(8), 1)
            .unwrap();
        drop(wal);
        let err = Engine::recover(&dir.0, config(PolicyKind::Lru)).unwrap_err();
        assert!(matches!(err, Error::WalUnknownTable(t) if t == TableId::new(8)));
    }

    #[test]
    fn recovery_detects_visible_count_contradictions() {
        use scanshare_pdt::wal::{encode_commit, CommitTableRecord};
        use scanshare_storage::wal::Wal;

        let dir = TestDir::new("contradict");
        let (storage, table) = storage_with_table(50);
        let engine = Engine::new(storage, config(PolicyKind::Lru).with_wal_dir(&dir.0)).unwrap();
        engine.delete_row(table, 0).unwrap();
        drop(engine);

        // A record whose pre-commit visible count contradicts the rebuilt
        // state (50 stable - 1 replayed delete = 49, not 42).
        let wal = Wal::open(&dir.0, 1).unwrap();
        let mut pdt = Pdt::new(2);
        pdt.delete(Rid::new(0), 50).unwrap();
        let body = encode_commit(&[CommitTableRecord {
            table,
            commit_seq: 5,
            visible_before: 42,
            pdt: pdt.into(),
        }]);
        wal.append_commit(&body).unwrap();
        wal.sync_all().unwrap();
        drop(wal);
        let err = Engine::recover(&dir.0, config(PolicyKind::Lru)).unwrap_err();
        assert!(matches!(err, Error::WalCorrupt(_)), "got {err:?}");
    }

    #[test]
    fn charge_cpu_advances_the_clock() {
        let (storage, _) = storage_with_table(10);
        let engine = Engine::new(storage, config(PolicyKind::Lru)).unwrap();
        let t0 = engine.now();
        engine.charge_cpu(1_000_000);
        assert!(engine.now() > t0);
    }
}
