//! Page layout: translation between tuple positions (SIDs), chunks and pages.
//!
//! The Active Buffer Manager schedules data at *chunk* granularity, where a
//! chunk is a fixed range of consecutive SIDs (hundreds of thousands of
//! tuples). In a column store a chunk is **not** a set of pages: every column
//! has a different compressed width, so the same chunk maps to one page for a
//! narrow column and to thousands of pages for a wide one, and a single page
//! can span several adjacent chunks. This module owns that arithmetic.
//!
//! It also builds the [`ScanPagePlan`] used by Predictive Buffer Management's
//! `RegisterScan` (Figure 9 of the paper): the list of pages a scan will
//! touch, each annotated with the number of tuples the scan must process
//! before it reaches that page.

use std::sync::Arc;

use scanshare_common::{ChunkId, ColumnId, PageId, RangeList, TableId, TupleRange};

use crate::snapshot::Snapshot;
use crate::table::TableSpec;

/// Page-layout metadata for one table.
#[derive(Debug)]
pub struct TableLayout {
    table: TableId,
    spec: TableSpec,
    column_ids: Vec<ColumnId>,
    page_size_bytes: u64,
    chunk_tuples: u64,
    tuples_per_page: Vec<u64>,
}

impl TableLayout {
    /// Creates the layout helper for a table.
    pub fn new(
        table: TableId,
        spec: TableSpec,
        column_ids: Vec<ColumnId>,
        page_size_bytes: u64,
        chunk_tuples: u64,
    ) -> Self {
        assert_eq!(spec.columns.len(), column_ids.len());
        let tuples_per_page = spec
            .columns
            .iter()
            .map(|c| c.tuples_per_page(page_size_bytes))
            .collect();
        Self {
            table,
            spec,
            column_ids,
            page_size_bytes,
            chunk_tuples,
            tuples_per_page,
        }
    }

    /// The table this layout describes.
    pub fn table(&self) -> TableId {
        self.table
    }

    /// The table specification.
    pub fn spec(&self) -> &TableSpec {
        &self.spec
    }

    /// Page size in bytes.
    pub fn page_size_bytes(&self) -> u64 {
        self.page_size_bytes
    }

    /// Chunk granularity in tuples.
    pub fn chunk_tuples(&self) -> u64 {
        self.chunk_tuples
    }

    /// Number of columns.
    pub fn column_count(&self) -> usize {
        self.spec.columns.len()
    }

    /// Tuples per page for column `col` (index into `spec().columns`).
    pub fn tuples_per_page(&self, col: usize) -> u64 {
        self.tuples_per_page[col]
    }

    /// Number of pages column `col` needs to store `tuples` tuples.
    pub fn pages_for_tuples(&self, col: usize, tuples: u64) -> u64 {
        if tuples == 0 {
            0
        } else {
            tuples.div_ceil(self.tuples_per_page[col])
        }
    }

    /// Page index (within the column's page array) holding `sid`.
    pub fn page_index_for_sid(&self, col: usize, sid: u64) -> u64 {
        sid / self.tuples_per_page[col]
    }

    /// SID range covered by page `page_index` of column `col`, clamped to
    /// `stable_tuples`.
    pub fn sid_range_of_page(&self, col: usize, page_index: u64, stable_tuples: u64) -> TupleRange {
        let tpp = self.tuples_per_page[col];
        let start = page_index * tpp;
        let end = (start + tpp).min(stable_tuples);
        TupleRange::new(start.min(end), end)
    }

    /// Page-index range `[first, last]` (inclusive) covering the SID range
    /// for column `col`, or `None` if the range is empty.
    pub fn page_index_range(&self, col: usize, range: &TupleRange) -> Option<(u64, u64)> {
        if range.is_empty() {
            return None;
        }
        let first = self.page_index_for_sid(col, range.start);
        let last = self.page_index_for_sid(col, range.end - 1);
        Some((first, last))
    }

    /// Number of chunks needed for `tuples` tuples.
    pub fn chunk_count(&self, tuples: u64) -> u32 {
        if tuples == 0 {
            0
        } else {
            tuples.div_ceil(self.chunk_tuples) as u32
        }
    }

    /// SID range of a chunk, clamped to `stable_tuples`.
    pub fn chunk_sid_range(&self, chunk: ChunkId, stable_tuples: u64) -> TupleRange {
        let start = chunk.raw() as u64 * self.chunk_tuples;
        let end = (start + self.chunk_tuples).min(stable_tuples);
        TupleRange::new(start.min(end), end)
    }

    /// The chunks overlapping a SID range list, clamped to `stable_tuples`.
    pub fn chunks_for_ranges(&self, ranges: &RangeList, stable_tuples: u64) -> Vec<ChunkId> {
        let mut out = Vec::new();
        for r in ranges.ranges() {
            let clamped = r.intersect(&TupleRange::new(0, stable_tuples));
            if clamped.is_empty() {
                continue;
            }
            let first = clamped.start / self.chunk_tuples;
            let last = (clamped.end - 1) / self.chunk_tuples;
            for c in first..=last {
                let id = ChunkId::new(c as u32);
                if out.last() != Some(&id) {
                    out.push(id);
                }
            }
        }
        out.dedup();
        out
    }

    /// Resolves the pages of `chunk` for the given columns in `snapshot`.
    pub fn pages_for_chunk(
        &self,
        snapshot: &Snapshot,
        columns: &[usize],
        chunk: ChunkId,
    ) -> Vec<PageId> {
        let range = self.chunk_sid_range(chunk, snapshot.stable_tuples());
        let mut out = Vec::new();
        if range.is_empty() {
            return out;
        }
        for &col in columns {
            if let Some((first, last)) = self.page_index_range(col, &range) {
                for idx in first..=last {
                    if let Some(page) = snapshot.page(col, idx) {
                        out.push(page);
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Builds a [`ChunkMap`] describing every chunk of `snapshot` for the
    /// given columns.
    pub fn chunk_map(self: &Arc<Self>, snapshot: &Snapshot, columns: &[usize]) -> ChunkMap {
        ChunkMap::build(self, snapshot, columns)
    }

    /// Builds the page plan PBM's `RegisterScan` walks: every page the scan
    /// of `columns` over `ranges` (SID space) will read, in consumption
    /// order, annotated with how many tuples the scan processes before
    /// needing the page.
    pub fn scan_page_plan(
        &self,
        snapshot: &Snapshot,
        columns: &[usize],
        ranges: &RangeList,
    ) -> ScanPagePlan {
        let stable = snapshot.stable_tuples();
        let mut pages = Vec::new();
        for &col in columns {
            let mut tuples_behind: u64 = 0;
            for range in ranges.ranges() {
                let clamped = range.intersect(&TupleRange::new(0, stable));
                if clamped.is_empty() {
                    continue;
                }
                let (first, last) = self
                    .page_index_range(col, &clamped)
                    .expect("non-empty range must map to pages");
                for idx in first..=last {
                    let page_range = self.sid_range_of_page(col, idx, stable);
                    let covered = page_range.intersect(&clamped);
                    if let Some(page_id) = snapshot.page(col, idx) {
                        pages.push(PageDescriptor {
                            page: page_id,
                            column: self.column_ids[col],
                            column_index: col,
                            sid_range: page_range,
                            tuples_behind,
                            tuple_count: covered.len(),
                        });
                    }
                    tuples_behind += covered.len();
                }
            }
        }
        ScanPagePlan {
            table: self.table,
            total_tuples: ranges.total_tuples(),
            pages,
        }
    }
}

/// One page access of a scan, annotated for PBM registration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageDescriptor {
    /// The physical page.
    pub page: PageId,
    /// Global id of the column the page belongs to.
    pub column: ColumnId,
    /// Index of the column within the table spec.
    pub column_index: usize,
    /// SID range stored on the page.
    pub sid_range: TupleRange,
    /// Tuples the scan will process (in this column) before reaching the page.
    pub tuples_behind: u64,
    /// Tuples of the scan's ranges that live on this page.
    pub tuple_count: u64,
}

/// The ordered list of page accesses a scan will perform.
#[derive(Debug, Clone)]
pub struct ScanPagePlan {
    /// Table being scanned.
    pub table: TableId,
    /// Total tuples (per column) the scan covers.
    pub total_tuples: u64,
    /// Page accesses in consumption order, column-major (all pages of the
    /// first column in SID order, then the next column, ...), exactly like
    /// the nested loops of the paper's `RegisterScan` pseudocode.
    pub pages: Vec<PageDescriptor>,
}

impl ScanPagePlan {
    /// Number of distinct pages in the plan.
    pub fn distinct_pages(&self) -> usize {
        let mut ids: Vec<PageId> = self.pages.iter().map(|p| p.page).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Iterates over the page accesses in the interleaved order in which a
    /// tuple-at-a-time scan actually needs them: ordered by `tuples_behind`
    /// (ties broken by column index). This is the per-page reference order
    /// used to drive LRU and to record OPT traces.
    pub fn interleaved(&self) -> Vec<&PageDescriptor> {
        let mut refs: Vec<&PageDescriptor> = self.pages.iter().collect();
        refs.sort_by_key(|p| (p.tuples_behind, p.column_index, p.page));
        refs
    }
}

/// Mapping from chunks to pages for one (snapshot, column set) pair.
#[derive(Debug, Clone)]
pub struct ChunkMap {
    /// Pages of each chunk (sorted, deduplicated).
    chunk_pages: Vec<Vec<PageId>>,
}

impl ChunkMap {
    fn build(layout: &TableLayout, snapshot: &Snapshot, columns: &[usize]) -> Self {
        let count = layout.chunk_count(snapshot.stable_tuples());
        let chunk_pages = (0..count)
            .map(|c| layout.pages_for_chunk(snapshot, columns, ChunkId::new(c)))
            .collect();
        Self { chunk_pages }
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> u32 {
        self.chunk_pages.len() as u32
    }

    /// Pages of a chunk (for the columns the map was built with).
    pub fn pages(&self, chunk: ChunkId) -> &[PageId] {
        self.chunk_pages
            .get(chunk.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Total number of distinct pages across all chunks.
    pub fn total_pages(&self) -> usize {
        let mut all: Vec<PageId> = self
            .chunk_pages
            .iter()
            .flat_map(|v| v.iter().copied())
            .collect();
        all.sort_unstable();
        all.dedup();
        all.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{ColumnSpec, ColumnType};
    use crate::snapshot::SnapshotStore;

    /// Two columns with very different widths: 8 bytes/tuple and 0.5 bytes/tuple.
    fn test_layout(
        page_size: u64,
        chunk_tuples: u64,
        base_tuples: u64,
    ) -> (Arc<TableLayout>, Arc<Snapshot>) {
        let spec = TableSpec::new(
            "t",
            vec![
                ColumnSpec::with_width("wide", ColumnType::Int64, 8.0),
                ColumnSpec::with_width("narrow", ColumnType::Dict { cardinality: 4 }, 0.5),
            ],
            base_tuples,
        );
        let layout = Arc::new(TableLayout::new(
            TableId::new(0),
            spec,
            vec![ColumnId::new(0), ColumnId::new(1)],
            page_size,
            chunk_tuples,
        ));
        let mut store = SnapshotStore::new();
        let snap = store.create_base_snapshot(&layout, None);
        (layout, snap)
    }

    #[test]
    fn tuples_per_page_reflects_column_width() {
        let (layout, _snap) = test_layout(1024, 1000, 10_000);
        assert_eq!(layout.tuples_per_page(0), 128); // 1024/8
        assert_eq!(layout.tuples_per_page(1), 2048); // 1024/0.5
    }

    #[test]
    fn page_index_and_sid_range_round_trip() {
        let (layout, _snap) = test_layout(1024, 1000, 10_000);
        assert_eq!(layout.page_index_for_sid(0, 0), 0);
        assert_eq!(layout.page_index_for_sid(0, 127), 0);
        assert_eq!(layout.page_index_for_sid(0, 128), 1);
        assert_eq!(
            layout.sid_range_of_page(0, 1, 10_000),
            TupleRange::new(128, 256)
        );
        // Last page is clamped to the stable tuple count.
        assert_eq!(
            layout.sid_range_of_page(0, 78, 10_000),
            TupleRange::new(9984, 10_000)
        );
    }

    #[test]
    fn chunk_arithmetic() {
        let (layout, _snap) = test_layout(1024, 1000, 10_500);
        assert_eq!(layout.chunk_count(10_500), 11);
        assert_eq!(
            layout.chunk_sid_range(ChunkId::new(10), 10_500),
            TupleRange::new(10_000, 10_500)
        );
        let chunks = layout.chunks_for_ranges(&RangeList::single(500, 2500), 10_500);
        assert_eq!(
            chunks,
            vec![ChunkId::new(0), ChunkId::new(1), ChunkId::new(2)]
        );
    }

    #[test]
    fn chunks_for_ranges_clamps_to_table_size() {
        let (layout, _snap) = test_layout(1024, 1000, 2_000);
        let chunks = layout.chunks_for_ranges(&RangeList::single(1500, 99_999), 2_000);
        assert_eq!(chunks, vec![ChunkId::new(1)]);
    }

    #[test]
    fn pages_for_chunk_unions_columns() {
        let (layout, snap) = test_layout(1024, 1000, 10_000);
        // Chunk 0 covers SIDs [0,1000): wide column needs pages 0..=7 (128 t/p),
        // narrow column needs page 0 (2048 t/p) -> 8 + 1 = 9 distinct pages.
        let pages = layout.pages_for_chunk(&snap, &[0, 1], ChunkId::new(0));
        assert_eq!(pages.len(), 9);
        // Only the narrow column: a single page covers more than two chunks.
        let narrow_chunk0 = layout.pages_for_chunk(&snap, &[1], ChunkId::new(0));
        let narrow_chunk1 = layout.pages_for_chunk(&snap, &[1], ChunkId::new(1));
        assert_eq!(
            narrow_chunk0, narrow_chunk1,
            "one page spans adjacent chunks"
        );
    }

    #[test]
    fn scan_page_plan_accumulates_tuples_behind_per_column() {
        let (layout, snap) = test_layout(1024, 1000, 10_000);
        let plan = layout.scan_page_plan(&snap, &[0, 1], &RangeList::single(0, 256));
        // wide column: pages 0 and 1 (128 tuples each); narrow column: page 0.
        assert_eq!(plan.pages.len(), 3);
        let wide: Vec<_> = plan.pages.iter().filter(|p| p.column_index == 0).collect();
        assert_eq!(wide[0].tuples_behind, 0);
        assert_eq!(wide[0].tuple_count, 128);
        assert_eq!(wide[1].tuples_behind, 128);
        assert_eq!(wide[1].tuple_count, 128);
        let narrow: Vec<_> = plan.pages.iter().filter(|p| p.column_index == 1).collect();
        assert_eq!(narrow[0].tuples_behind, 0);
        assert_eq!(narrow[0].tuple_count, 256);
        assert_eq!(plan.total_tuples, 256);
        assert_eq!(plan.distinct_pages(), 3);
    }

    #[test]
    fn scan_page_plan_respects_multiple_ranges() {
        let (layout, snap) = test_layout(1024, 1000, 10_000);
        let ranges = RangeList::from_ranges([TupleRange::new(0, 100), TupleRange::new(5000, 5100)]);
        let plan = layout.scan_page_plan(&snap, &[0], &ranges);
        assert_eq!(plan.pages.len(), 2);
        assert_eq!(plan.pages[0].tuples_behind, 0);
        assert_eq!(plan.pages[1].tuples_behind, 100);
        assert_eq!(plan.pages[1].tuple_count, 100);
    }

    #[test]
    fn interleaved_orders_by_scan_progress() {
        let (layout, snap) = test_layout(1024, 1000, 10_000);
        let plan = layout.scan_page_plan(&snap, &[0, 1], &RangeList::single(0, 512));
        let order = plan.interleaved();
        let mut last = 0;
        for p in order {
            assert!(p.tuples_behind >= last);
            last = p.tuples_behind;
        }
    }

    #[test]
    fn chunk_map_covers_all_chunks() {
        let (layout, snap) = test_layout(1024, 1000, 10_000);
        let map = layout.chunk_map(&snap, &[0, 1]);
        assert_eq!(map.chunk_count(), 10);
        assert!(!map.pages(ChunkId::new(3)).is_empty());
        assert_eq!(map.pages(ChunkId::new(99)), &[] as &[PageId]);
        // total distinct pages = wide (79 pages for 10000 tuples @128/page)
        // + narrow (5 pages @2048/page)
        assert_eq!(map.total_pages(), 79 + 5);
    }
}
