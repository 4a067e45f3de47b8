//! The unified scan operator.
//!
//! One operator drives every
//! [`ScanBackend`](scanshare_core::backend::ScanBackend): it plans its scan
//! with [`Engine::scan_request`] (the request builder the simulator shares),
//! registers the stable (SID) ranges, asks the backend for the next range to
//! produce ([`next_chunk`](scanshare_core::backend::ScanBackend::next_chunk))
//! and merges the table's PDT on the fly. The backends are clock-free: every
//! call passes the engine clock's `now`, and the clock is advanced to
//! whatever instant a call returned — on a page request here, on a chunk
//! wait in `Engine::wait_for_chunk`, the one blocking wait.
//!
//! The scan is **columnar** from page to batch. The merge
//! ([`MergeCursor::merge`]) appends straight into the batch's column
//! vectors: an untouched run of the stable image is one
//! [`StableSource::fill`] call, which `PooledSource` serves by copying the
//! run out of each column's open page (a slice of a stored or file-decoded
//! page, or the generator run for exactly those SIDs — never a whole page);
//! only positions the PDT touches are produced a row at a time. Page
//! requests are issued *inside* that fill, before the copy that needs the
//! page: whenever a column's open page does not cover the next SID, in
//! ascending SID order and, among columns crossing a page boundary at the
//! same SID, in projection order — which is what PBM exploits, and the order
//! the simulator replays.
//!
//! For pooled backends the delivered ranges are sequential. For Cooperative
//! Scans the backend hands out ABM-chosen chunks, generally **out of table
//! order**; per delivered chunk the operator:
//!
//! 1. translates the chunk's SID range into the widest RID range it can
//!    produce (`SIDtoRIDlow` / `SIDtoRIDhigh`, Section 2.1),
//! 2. trims that RID range against the rows it has already produced (ranges
//!    of neighbouring chunks may overlap after translation),
//! 3. seeks one merge cursor per trimmed range — the only positional
//!    translation the range costs — and produces its rows batch by batch
//!    from that cursor.
//!
//! Rows that exist only in the PDT (inserts anchored past the last stable
//! tuple) are produced after the backend reports completion.

use std::collections::VecDeque;
use std::sync::Arc;

use scanshare_common::{Error, RangeList, Result, ScanId, TupleRange};
use scanshare_pdt::merge::{MergeCursor, StableSource};
use scanshare_pdt::pdt::Pdt;
use scanshare_pdt::translate::sid_range_to_rid_range;
use scanshare_storage::datagen::Value;
use scanshare_storage::layout::TableLayout;
use scanshare_storage::snapshot::Snapshot;
use scanshare_storage::storage::PageHandle;
use scanshare_storage::zone::ZonePredicate;

use crate::batch::Batch;
use crate::engine::Engine;
use crate::ops::BatchSource;
use crate::txn::TablePin;

/// How many tuples are produced per batch.
pub const BATCH_SIZE: usize = 1024;
/// How often (in tuples) the scan reports its position to the buffer manager.
const REPORT_INTERVAL: u64 = 4096;

/// A stable-tuple source that fetches pages through the engine's scan
/// backend, waiting on the engine's virtual clock until each is usable.
pub(crate) struct PooledSource {
    engine: Arc<Engine>,
    layout: Arc<TableLayout>,
    snapshot: Arc<Snapshot>,
    scan_id: Option<ScanId>,
    /// The page last opened per table column.
    pages: Vec<Option<PageHandle>>,
}

impl PooledSource {
    pub(crate) fn new(
        engine: Arc<Engine>,
        layout: Arc<TableLayout>,
        snapshot: Arc<Snapshot>,
        scan_id: Option<ScanId>,
    ) -> Self {
        let pages = vec![None; layout.column_count()];
        Self {
            engine,
            layout,
            snapshot,
            scan_id,
            pages,
        }
    }

    /// Makes the open page of `col` the one covering `sid` and returns the
    /// end of its SID range. A page not open yet is first requested through
    /// the backend: pooled backends count the hit/miss and charge misses to
    /// the I/O device, the ABM already loaded and accounted the chunk.
    fn open(&mut self, col: usize, sid: u64) -> Result<u64> {
        if let Some(page) = &self.pages[col] {
            if page.sid_range.contains(sid) {
                return Ok(page.sid_range.end);
            }
        }
        let page_index = self.layout.page_index_for_sid(col, sid);
        if let (Some(scan_id), Some(page_id)) = (self.scan_id, self.snapshot.page(col, page_index))
        {
            let now = self.engine.now();
            let ready = self.engine.backend().request_page(scan_id, page_id, now)?;
            self.engine.clock().advance_to(ready);
        }
        let page =
            self.engine
                .storage()
                .open_page(&self.layout, &self.snapshot, col, page_index)?;
        if !page.sid_range.contains(sid) {
            return Err(Error::internal(format!(
                "page {page_index} of column {col} does not cover sid {sid}"
            )));
        }
        let end = page.sid_range.end;
        self.pages[col] = Some(page);
        Ok(end)
    }
}

impl StableSource for PooledSource {
    fn stable_tuples(&self) -> u64 {
        self.snapshot.stable_tuples()
    }

    fn fill(&mut self, columns: &[usize], sids: TupleRange, out: &mut [Vec<Value>]) -> Result<()> {
        let mut start = sids.start;
        while start < sids.end {
            // Open (and request), in projection order, every page that does
            // not cover `start`; the piece ends where the first of them does.
            let mut end = sids.end;
            for &col in columns {
                end = end.min(self.open(col, start)?);
            }
            let piece = TupleRange::new(start, end);
            for (&col, out) in columns.iter().zip(out.iter_mut()) {
                let page = self.pages[col].as_ref().expect("opened above");
                page.fill(piece, out);
            }
            start = end;
        }
        Ok(())
    }
}

/// The scan operator: produces the visible rows of its RID range in batches,
/// in whatever order its backend schedules the underlying stable data.
pub struct ScanOperator {
    engine: Arc<Engine>,
    /// The pin's flattened PDT: its one layer, shared with the table until
    /// the next commit copies it on write.
    pdt: Arc<Pdt>,
    source: PooledSource,
    columns: Vec<usize>,
    scan_id: Option<ScanId>,
    /// RID ranges requested by the plan.
    requested: RangeList,
    /// RID ranges already produced (chunk translations may overlap).
    produced: RangeList,
    /// The RID ranges of the delivered chunk still to produce, each as the
    /// merge cursor sought when it was queued.
    window: VecDeque<MergeCursor>,
    /// The backend has delivered every registered range.
    backend_done: bool,
    /// PDT-only rows (past the stable data) have been scheduled.
    drained: bool,
    tuples_produced: u64,
    last_report: u64,
    finished: bool,
}

impl ScanOperator {
    /// Creates a scan over `columns` covering the visible rows in
    /// `rid_range`, reading through `pin`: the operator's whole lifetime —
    /// positional translation, PDT merging, backend registration — uses
    /// exactly the pinned `(Snapshot, PdtStack)` pair, so concurrent commits
    /// and checkpoints are invisible to it. `in_order` forces in-order
    /// delivery on backends that would otherwise reorder (pooled backends
    /// always deliver in order).
    ///
    /// `zone_pred` enables data skipping when the configuration's zone maps
    /// are on, under `plan_scan`'s safety gate ([`Engine::scan_request`]
    /// builds the registration): pruned chunks leave the scan's interest
    /// before the backend registration, so the buffer manager never sees a
    /// page request, an ABM chunk interest or a PBM consumption prediction
    /// for them. The caller must apply the same predicate row-level.
    pub fn with_pin(
        engine: Arc<Engine>,
        pin: TablePin,
        columns: Vec<usize>,
        rid_range: TupleRange,
        in_order: bool,
        zone_pred: Option<ZonePredicate>,
    ) -> Result<Self> {
        let layout = engine.storage().layout(pin.table)?;
        let pdt = pin.flatten()?;
        let (requested, request) = engine.scan_request(
            &pin,
            &pdt,
            &columns,
            rid_range,
            zone_pred.as_ref(),
            in_order,
        )?;
        // RegisterScan / RegisterCScan, unless no stable data is read.
        let scan_id = match request {
            Some(request) => Some(engine.backend().register_scan(request, engine.now())?),
            None => None,
        };
        let source = PooledSource::new(Arc::clone(&engine), layout, pin.snapshot, scan_id);
        Ok(Self {
            engine,
            pdt,
            source,
            columns,
            scan_id,
            requested,
            produced: RangeList::new(),
            window: VecDeque::new(),
            backend_done: scan_id.is_none(),
            drained: false,
            tuples_produced: 0,
            last_report: 0,
            finished: false,
        })
    }

    fn report_progress(&mut self) {
        if let Some(scan_id) = self.scan_id {
            self.engine
                .backend()
                .report_position(scan_id, self.tuples_produced, self.engine.now());
        }
        self.last_report = self.tuples_produced;
    }

    fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        if let Some(scan_id) = self.scan_id {
            self.engine
                .backend()
                .finish_scan(scan_id, self.engine.now());
        }
    }

    /// Produces up to [`BATCH_SIZE`] rows from the front of the current
    /// window, continuing its cursor. A device or storage fault aborts the
    /// batch with the typed error and leaves the cursor where the batch
    /// started.
    fn produce_from_window(&mut self) -> Result<Batch> {
        let cursor = self.window.front_mut().expect("window is non-empty");
        let start = *cursor;
        let capacity = cursor.remaining().min(BATCH_SIZE as u64) as usize;
        let mut columns: Vec<Vec<Value>> = (0..self.columns.len())
            .map(|_| Vec::with_capacity(capacity))
            .collect();
        let merged = cursor.merge(
            &self.pdt,
            &mut self.source,
            &self.columns,
            BATCH_SIZE as u64,
            &mut columns,
        );
        let produced = match merged {
            Ok(produced) => produced,
            Err(err) => {
                *cursor = start;
                return Err(err);
            }
        };
        let piece = TupleRange::new(start.position().raw(), cursor.position().raw());
        if cursor.is_exhausted() {
            self.window.pop_front();
        }
        self.produced.add(piece);
        self.tuples_produced += produced;
        self.engine.charge_cpu(produced);
        if self.tuples_produced - self.last_report >= REPORT_INTERVAL {
            self.report_progress();
        }
        Ok(Batch::new(columns))
    }

    /// Queues `ranges` on the window, seeking the merge to the start of each.
    fn queue(&mut self, ranges: &RangeList) {
        let stable = self.source.stable_tuples();
        let cursors = ranges
            .ranges()
            .iter()
            .map(|&range| MergeCursor::seek(&self.pdt, stable, range));
        self.window.extend(cursors);
    }

    /// Translates a delivered chunk into the RID ranges still to produce and
    /// queues them on the window.
    fn queue_chunk(&mut self, chunk_sids: TupleRange) {
        let rid_window = sid_range_to_rid_range(&self.pdt, &chunk_sids);
        let fresh = RangeList::from_ranges([rid_window])
            .intersect(&self.requested)
            .subtract(&self.produced);
        self.queue(&fresh);
    }
}

impl BatchSource for ScanOperator {
    fn width(&self) -> usize {
        self.columns.len()
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        loop {
            if self.finished {
                return Ok(None);
            }
            if !self.window.is_empty() {
                let batch = self.produce_from_window()?;
                if batch.is_empty() {
                    continue;
                }
                return Ok(Some(batch));
            }
            if !self.backend_done {
                let scan_id = self.scan_id.expect("backend_done is set when unregistered");
                match self.engine.wait_for_chunk(scan_id)? {
                    Some(chunk_sids) => self.queue_chunk(chunk_sids),
                    None => self.backend_done = true,
                }
                continue;
            }
            if !self.drained {
                // Rows that exist only in the PDT (inserts anchored past the
                // last stable tuple) are not covered by any chunk window.
                self.drained = true;
                let rest = self.requested.subtract(&self.produced);
                self.queue(&rest);
                continue;
            }
            self.finish();
            return Ok(None);
        }
    }
}

impl Drop for ScanOperator {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanshare_common::{PolicyKind, ScanShareConfig, TableId};
    use scanshare_storage::column::{ColumnSpec, ColumnType};
    use scanshare_storage::datagen::DataGen;
    use scanshare_storage::storage::Storage;
    use scanshare_storage::table::TableSpec;

    fn engine_with(
        policy: PolicyKind,
        buffer_bytes: u64,
        tuples: u64,
        fill: Value,
    ) -> (Arc<Engine>, TableId) {
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
                    DataGen::Constant(fill),
                ],
            )
            .unwrap();
        let config = ScanShareConfig {
            page_size_bytes: 1024,
            chunk_tuples: 500,
            buffer_pool_bytes: buffer_bytes,
            policy,
            ..Default::default()
        };
        (Engine::new(storage, config).unwrap(), table)
    }

    fn engine(policy: PolicyKind, tuples: u64) -> (Arc<Engine>, TableId) {
        engine_with(policy, 32 * 1024, tuples, 3)
    }

    /// A scan of `table`'s current state.
    fn scan(
        engine: &Arc<Engine>,
        table: TableId,
        columns: Vec<usize>,
        rid_range: TupleRange,
        in_order: bool,
    ) -> ScanOperator {
        let pin = engine.table_pin(table).unwrap();
        ScanOperator::with_pin(Arc::clone(engine), pin, columns, rid_range, in_order, None).unwrap()
    }

    fn collect(op: &mut dyn BatchSource) -> Vec<Vec<Value>> {
        let mut rows = Vec::new();
        while let Some(batch) = op.next_batch().unwrap() {
            rows.extend(batch.to_rows());
        }
        rows
    }

    fn collect_sorted(op: &mut dyn BatchSource) -> Vec<Vec<Value>> {
        let mut rows = collect(op);
        rows.sort();
        rows
    }

    #[test]
    fn scan_returns_all_rows_in_order() {
        let (engine, table) = engine(PolicyKind::Lru, 3000);
        let mut op = scan(&engine, table, vec![0, 1], TupleRange::new(0, 3000), false);
        let rows = collect(&mut op);
        assert_eq!(rows.len(), 3000);
        assert_eq!(rows[0], vec![0, 3]);
        assert_eq!(rows[2999], vec![2999, 3]);
        // In-order delivery.
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row[0], i as i64);
        }
        let stats = engine.buffer_stats();
        assert!(stats.misses > 0);
        assert!(stats.io_bytes > 0);
    }

    #[test]
    fn scan_respects_rid_range_and_projection() {
        let (engine, table) = engine(PolicyKind::Pbm, 2000);
        let mut op = scan(&engine, table, vec![0], TupleRange::new(100, 110), false);
        let rows = collect(&mut op);
        assert_eq!(rows, (100..110).map(|i| vec![i as i64]).collect::<Vec<_>>());
        // Out-of-bounds ranges are clamped.
        let mut op = scan(
            &engine,
            table,
            vec![0],
            TupleRange::new(1990, 99_999),
            false,
        );
        assert_eq!(collect(&mut op).len(), 10);
        // Empty ranges produce an empty scan without touching the backend.
        let mut op = scan(&engine, table, vec![0], TupleRange::new(5, 5), false);
        assert!(op.scan_id.is_none());
        assert!(collect(&mut op).is_empty());
    }

    #[test]
    fn scan_sees_pdt_updates() {
        for policy in [PolicyKind::Lru, PolicyKind::Pbm, PolicyKind::CScan] {
            let (engine, table) = engine(policy, 1000);
            engine.delete_row(table, 0).unwrap();
            engine.insert_row(table, 0, vec![-1, -2]).unwrap();
            engine.update_value(table, 10, 1, 99).unwrap();
            let mut op = scan(&engine, table, vec![0, 1], TupleRange::new(0, 20), true);
            let rows = collect(&mut op);
            assert_eq!(rows[0], vec![-1, -2], "{policy}");
            assert_eq!(rows[1], vec![1, 3], "{policy}");
            assert_eq!(rows[10], vec![10, 99], "{policy}");
        }
    }

    #[test]
    fn scan_produces_trailing_inserts_past_the_stable_data() {
        for policy in [PolicyKind::Lru, PolicyKind::CScan] {
            let (engine, table) = engine(policy, 1000);
            engine.insert_row(table, 1000, vec![7_000, 7_001]).unwrap();
            engine.insert_row(table, 1001, vec![8_000, 8_001]).unwrap();
            let visible = engine.visible_rows(table).unwrap();
            assert_eq!(visible, 1002);
            let mut op = scan(
                &engine,
                table,
                vec![0, 1],
                TupleRange::new(0, visible),
                false,
            );
            let rows = collect_sorted(&mut op);
            assert_eq!(rows.len(), 1002, "{policy}");
            assert!(rows.contains(&vec![7_000, 7_001]), "{policy}");
            assert!(rows.contains(&vec![8_000, 8_001]), "{policy}");
        }
    }

    #[test]
    fn scan_isolation_from_later_updates() {
        let (engine, table) = engine(PolicyKind::Lru, 100);
        let mut op = scan(&engine, table, vec![0], TupleRange::new(0, 100), false);
        // Updates applied after the operator was created are not visible to it.
        engine.delete_row(table, 0).unwrap();
        let rows = collect(&mut op);
        assert_eq!(rows.len(), 100);
        assert_eq!(rows[0], vec![0]);
    }

    #[test]
    fn scan_keeps_its_view_while_commits_land() {
        for policy in [PolicyKind::Lru, PolicyKind::CScan] {
            let (engine, table) = engine_with(policy, 1 << 20, 3000, 7);
            engine.delete_row(table, 5).unwrap();
            engine.insert_row(table, 9, vec![-9, -9]).unwrap();
            let mut model = collect(&mut scan(
                &engine,
                table,
                vec![0, 1],
                TupleRange::new(0, 3000),
                true,
            ));
            let mut op = scan(&engine, table, vec![0, 1], TupleRange::new(0, 3000), true);
            let mut rows = op.next_batch().unwrap().expect("a batch").to_rows();
            let pinned = model.clone();
            // 100 auto-commits: the first clones the layer the scan holds.
            for i in 0..100u64 {
                let rid = i * 29 % model.len() as u64;
                match i % 3 {
                    0 => {
                        engine
                            .insert_row(table, rid, vec![-(i as Value), 0])
                            .unwrap();
                        model.insert(rid as usize, vec![-(i as Value), 0]);
                    }
                    1 => {
                        engine.delete_row(table, rid).unwrap();
                        model.remove(rid as usize);
                    }
                    _ => {
                        engine
                            .update_value(table, rid, 1, 1000 + i as Value)
                            .unwrap();
                        model[rid as usize][1] = 1000 + i as Value;
                    }
                }
            }
            rows.extend(collect(&mut op));
            assert_eq!(rows, pinned, "{policy}: the scan's pinned rows");
            let visible = engine.visible_rows(table).unwrap();
            let mut fresh = scan(
                &engine,
                table,
                vec![0, 1],
                TupleRange::new(0, visible),
                true,
            );
            assert_eq!(collect(&mut fresh), model, "{policy}: the next pin's rows");
        }
    }

    #[test]
    fn repeated_scans_hit_the_buffer_pool() {
        let (engine, table) = engine(PolicyKind::Lru, 1000);
        let run = |engine: &Arc<Engine>| {
            let mut op = scan(engine, table, vec![0, 1], TupleRange::new(0, 1000), false);
            collect(&mut op).len()
        };
        assert_eq!(run(&engine), 1000);
        let cold = engine.buffer_stats();
        assert_eq!(run(&engine), 1000);
        let warm = engine.buffer_stats();
        // Table is 8+4 bytes/tuple * 1000 = 12 pages < 32 KiB pool: the second
        // scan is served entirely from the buffer pool.
        assert_eq!(warm.io_bytes, cold.io_bytes);
        assert!(warm.hits > cold.hits);
    }

    // ------------------------------------------------------------------
    // Cooperative Scans (out-of-order chunk delivery)
    // ------------------------------------------------------------------

    #[test]
    fn cscan_produces_every_row_exactly_once() {
        let (engine, table) = engine_with(PolicyKind::CScan, 1 << 20, 3000, 7);
        let mut op = scan(&engine, table, vec![0, 1], TupleRange::new(0, 3000), false);
        let rows = collect_sorted(&mut op);
        assert_eq!(rows.len(), 3000);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row[0], i as i64);
            assert_eq!(row[1], 7);
        }
        assert!(engine.buffer_stats().io_bytes > 0);
    }

    #[test]
    fn cscan_sees_pdt_updates_despite_out_of_order_delivery() {
        let (engine, table) = engine_with(PolicyKind::CScan, 1 << 20, 2000, 7);
        engine.delete_row(table, 100).unwrap();
        engine.insert_row(table, 0, vec![-5, -5]).unwrap();
        engine.update_value(table, 1999, 1, 42).unwrap();
        let visible = engine.visible_rows(table).unwrap();
        assert_eq!(visible, 2000);
        let mut op = scan(
            &engine,
            table,
            vec![0, 1],
            TupleRange::new(0, visible),
            false,
        );
        let rows = collect_sorted(&mut op);
        assert_eq!(rows.len(), 2000);
        assert!(rows.contains(&vec![-5, -5]));
        assert!(
            !rows.iter().any(|r| r[0] == 100),
            "deleted row must not appear"
        );
        assert!(rows.contains(&vec![1999, 42]));
    }

    #[test]
    fn cscan_with_small_buffer_still_completes() {
        // Each chunk is ~6 pages; give the ABM room for only two chunks.
        let (engine, table) = engine_with(PolicyKind::CScan, 12 * 1024, 5000, 7);
        let mut op = scan(&engine, table, vec![0, 1], TupleRange::new(0, 5000), false);
        let rows = collect_sorted(&mut op);
        assert_eq!(rows.len(), 5000);
        assert!(engine.buffer_stats().evictions > 0);
    }

    #[test]
    fn two_concurrent_cscans_share_io() {
        let (engine, table) = engine_with(PolicyKind::CScan, 1 << 20, 4000, 7);
        let mut a = scan(&engine, table, vec![0, 1], TupleRange::new(0, 4000), false);
        let mut b = scan(&engine, table, vec![0, 1], TupleRange::new(0, 4000), false);
        // Interleave the two scans so they run "concurrently".
        let mut rows_a = Vec::new();
        let mut rows_b = Vec::new();
        loop {
            let batch_a = a.next_batch().unwrap();
            let batch_b = b.next_batch().unwrap();
            if let Some(batch) = &batch_a {
                rows_a.extend(batch.to_rows());
            }
            if let Some(batch) = &batch_b {
                rows_b.extend(batch.to_rows());
            }
            if batch_a.is_none() && batch_b.is_none() {
                break;
            }
        }
        assert_eq!(rows_a.len(), 4000);
        assert_eq!(rows_b.len(), 4000);
        // The table occupies 32 pages (column k, 8 B/tuple) + 16 pages
        // (column v, 4 B/tuple) = 48 pages. Two cooperative scans sharing
        // chunks read it exactly once instead of twice.
        let io = engine.buffer_stats().io_bytes;
        assert_eq!(
            io,
            48 * 1024,
            "two cooperative scans read the table exactly once"
        );
    }

    #[test]
    fn in_order_cscan_delivers_rows_in_rid_order() {
        let (engine, table) = engine_with(PolicyKind::CScan, 1 << 20, 2000, 7);
        let mut op = scan(&engine, table, vec![0], TupleRange::new(0, 2000), true);
        let mut last = -1;
        while let Some(batch) = op.next_batch().unwrap() {
            for &v in batch.column(0) {
                assert!(v > last, "in-order CScan must deliver ascending keys");
                last = v;
            }
        }
        assert_eq!(last, 1999);
    }

    #[test]
    fn zone_pruning_skips_chunks_and_keeps_results_exact() {
        use crate::ops::{AggrSpec, Aggregate, CompareOp, Predicate};
        for policy in [PolicyKind::Lru, PolicyKind::Pbm, PolicyKind::CScan] {
            // Column k is Sequential: chunk c holds exactly [500c, 500c+500).
            let run = |filtered: bool| {
                let (engine, table) = engine(policy, 3000);
                let mut query = engine
                    .query(table)
                    .columns(["k", "v"])
                    .aggregate(AggrSpec::global(vec![Aggregate::Count, Aggregate::Sum(0)]));
                if filtered {
                    query = query.filter(Predicate::new(0, CompareOp::Lt, 500));
                }
                let result = query.run().unwrap();
                (result[&0].clone(), engine.buffer_stats())
            };
            let (full, full_stats) = run(false);
            let (sel, sel_stats) = run(true);
            assert_eq!(full.count, 3000, "{policy}");
            assert_eq!(sel.count, 500, "{policy}");
            assert_eq!(sel.accumulators[1], (0..500).sum::<i64>(), "{policy}");
            assert_eq!(full_stats.pruned_tuples, 0, "{policy}");
            assert_eq!(
                sel_stats.pruned_tuples, 2500,
                "{policy}: five of six chunks pruned"
            );
            assert!(
                sel_stats.io_bytes * 5 <= full_stats.io_bytes,
                "{policy}: pruning must cut I/O ~6x ({} vs {})",
                sel_stats.io_bytes,
                full_stats.io_bytes
            );
        }
    }

    #[test]
    fn zone_pruning_is_disabled_by_config_and_by_pending_updates() {
        use crate::ops::{AggrSpec, Aggregate, CompareOp, Predicate};
        let run = |zone_maps: bool, update: bool| {
            let storage = Storage::with_seed(1024, 500, 5);
            let spec = TableSpec::new(
                "t",
                vec![
                    ColumnSpec::with_width("k", ColumnType::Int64, 8.0),
                    ColumnSpec::with_width("v", ColumnType::Int64, 4.0),
                ],
                3000,
            );
            let table = storage
                .create_table_with_data(
                    spec,
                    vec![
                        DataGen::Sequential { start: 0, step: 1 },
                        DataGen::Constant(3),
                    ],
                )
                .unwrap();
            let config = ScanShareConfig {
                page_size_bytes: 1024,
                chunk_tuples: 500,
                buffer_pool_bytes: 32 * 1024,
                policy: PolicyKind::Lru,
                zone_maps,
                ..Default::default()
            };
            let engine = Engine::new(storage, config).unwrap();
            if update {
                // Any pending differential update suspends pruning: a PDT
                // modify could turn a base-failing row into a match.
                engine.update_value(table, 2999, 0, -1).unwrap();
            }
            let count = engine
                .query(table)
                .columns(["k", "v"])
                .filter(Predicate::new(0, CompareOp::Lt, 500))
                .aggregate(AggrSpec::global(vec![Aggregate::Count]))
                .run()
                .unwrap()[&0]
                .count;
            (count, engine.buffer_stats().pruned_tuples)
        };
        assert_eq!(run(true, false), (500, 2500));
        assert_eq!(run(false, false), (500, 0), "config off: no pruning");
        assert_eq!(
            run(true, true),
            (501, 0),
            "pending PDT: no pruning, and the modified row matches"
        );
    }

    #[test]
    fn pinned_scan_ignores_later_commits_and_checkpoints() {
        let (engine, table) = engine(PolicyKind::Lru, 300);
        let pin = engine.table_pin(table).unwrap();
        engine.delete_row(table, 0).unwrap();
        engine.checkpoint(table).unwrap();
        let mut op = ScanOperator::with_pin(
            Arc::clone(&engine),
            pin,
            vec![0],
            TupleRange::new(0, 300),
            true,
            None,
        )
        .unwrap();
        let rows = collect(&mut op);
        assert_eq!(rows.len(), 300, "the pinned view still has every row");
        assert_eq!(rows[0], vec![0]);
        // A fresh scan sees the post-commit, post-checkpoint state.
        let mut fresh = scan(&engine, table, vec![0], TupleRange::new(0, 300), true);
        let fresh_rows = collect(&mut fresh);
        assert_eq!(fresh_rows.len(), 299);
        assert_eq!(fresh_rows[0], vec![1]);
    }
}
