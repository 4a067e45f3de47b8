//! The pre-refactor monolithic Active Buffer Manager, kept as the
//! executable specification of ABM behaviour.
//!
//! [`MonolithicAbm`] is the single-lock state machine the decomposed
//! [`Abm`](scanshare::core::abm::Abm) replaced: every operation takes
//! `&mut self`. It is retained (frozen, bug-for-bug) as the **executable
//! spec**: `abm_equivalence.rs` replays randomized traces through this
//! implementation and through the decomposed ABM
//! and asserts byte-identical chunk-delivery order, load plans, statistics
//! and I/O volume. It uses only public `scanshare::core::abm` types, which
//! is why it lives beside the test and not in the production crate.
//!
//! The relevance semantics are documented on `scanshare::core::abm`; do not
//! modify this file when changing ABM behaviour — change the decomposed
//! implementation and let the equivalence test tell you what diverged.

#![allow(dead_code)] // the equivalence trace drives a subset of the surface

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use scanshare::common::{ChunkId, Error, PageId, Result, ScanId, TableId, VirtualInstant};
use scanshare::core::abm::{AbmConfig, CScanHandle, CScanRequest, ChunkDelivery, LoadPlan};
use scanshare::core::BufferStats;
use scanshare::storage::layout::ChunkMap;
use scanshare::storage::snapshot::Snapshot;

/// Extra Load/KeepRelevance of a chunk inside a shared snapshot prefix. The
/// spec's own value, not an import of the production constant, so that a
/// production bonus that changes a decision fails the equivalence test.
const SHARED_CHUNK_BONUS: f64 = 0.5;

#[derive(Debug)]
struct ChunkState {
    /// Pages this cached chunk holds in the buffer (union over interested
    /// scans' column sets). Pages on chunk boundaries may also be held by the
    /// neighbouring chunk; table-level reference counts track real residency.
    cached_pages: HashSet<PageId>,
    /// Full page set of a load in flight (set while `loading`).
    pending_pages: Vec<PageId>,
    /// Whether a load for this chunk is in flight.
    loading: bool,
    /// Whether the chunk has been loaded (it may legitimately own zero new
    /// pages when its pages are all shared with already-cached chunks).
    cached: bool,
    /// Scans that still need to consume this chunk.
    interested: HashSet<ScanId>,
    /// Whether the chunk lies inside the longest snapshot prefix shared by at
    /// least two registered scans.
    shared: bool,
}

impl ChunkState {
    fn new() -> Self {
        Self {
            cached_pages: HashSet::new(),
            pending_pages: Vec::new(),
            loading: false,
            cached: false,
            interested: HashSet::new(),
            shared: false,
        }
    }
    fn is_cached(&self) -> bool {
        self.cached && !self.loading
    }
}

#[derive(Debug)]
struct VersionState {
    snapshot: Arc<Snapshot>,
    chunks: HashMap<ChunkId, ChunkState>,
    scans: HashSet<ScanId>,
}

#[derive(Debug, Default)]
struct TableState {
    versions: Vec<VersionState>,
    /// Reference counts of resident pages: how many cached chunks (across
    /// versions) currently hold each page. Pages referenced by several
    /// snapshots or by adjacent chunks are counted once for I/O purposes.
    resident_pages: HashMap<PageId, usize>,
    /// Number of leading chunks shared by at least two registered scans.
    shared_prefix_chunks: u32,
}

#[derive(Debug)]
struct CScanState {
    request: CScanRequest,
    chunk_map: Arc<ChunkMap>,
    version: usize,
    /// Chunks not yet delivered, with the tuple count needed from each.
    needed: HashMap<ChunkId, u64>,
    /// Chunk ids in ascending (table) order, for in-order delivery.
    order: Vec<ChunkId>,
    next_in_order: usize,
    /// Number of still-needed chunks that are currently cached. A cached
    /// chunk that is the *only* available chunk of some scan must not be
    /// evicted before that scan consumes it (otherwise two starved scans can
    /// keep evicting each other's freshly loaded chunks forever).
    cached_available: usize,
}

/// The single-lock Active Buffer Manager (see the module docs for why it is
/// kept around).
#[derive(Debug)]
pub struct MonolithicAbm {
    config: AbmConfig,
    scans: HashMap<ScanId, CScanState>,
    tables: HashMap<TableId, TableState>,
    stats: BufferStats,
    cached_bytes: u64,
    next_scan: u64,
}

impl MonolithicAbm {
    /// Creates an ABM managing a buffer of `config.buffer_capacity_bytes`.
    pub fn new(config: AbmConfig) -> Self {
        assert!(config.buffer_capacity_bytes >= config.page_size_bytes);
        Self {
            config,
            scans: HashMap::new(),
            tables: HashMap::new(),
            stats: BufferStats::default(),
            cached_bytes: 0,
            next_scan: 0,
        }
    }

    /// Accumulated statistics (`io_bytes` is the total I/O volume).
    pub fn stats(&self) -> BufferStats {
        self.stats
    }

    /// Bytes currently cached.
    pub fn cached_bytes(&self) -> u64 {
        self.cached_bytes
    }

    /// Number of registered CScans.
    pub fn registered_scans(&self) -> usize {
        self.scans.len()
    }

    /// Number of distinct table versions registered for `table`.
    pub fn version_count(&self, table: TableId) -> usize {
        self.tables
            .get(&table)
            .map(|t| t.versions.len())
            .unwrap_or(0)
    }

    /// Number of leading chunks of `table` currently marked shared.
    pub fn shared_prefix_chunks(&self, table: TableId) -> u32 {
        self.tables
            .get(&table)
            .map(|t| t.shared_prefix_chunks)
            .unwrap_or(0)
    }

    /// Whether `chunk` of the version used by `scan` is cached.
    pub fn chunk_is_cached(&self, scan: ScanId, chunk: ChunkId) -> bool {
        let Some(state) = self.scans.get(&scan) else {
            return false;
        };
        self.tables
            .get(&state.request.table)
            .and_then(|t| t.versions.get(state.version))
            .and_then(|v| v.chunks.get(&chunk))
            .map(|c| c.is_cached())
            .unwrap_or(false)
    }

    /// Registers a CScan (`RegisterCScan`).
    pub fn register_cscan(&mut self, request: CScanRequest) -> Result<CScanHandle> {
        let id = ScanId::new(self.next_scan);
        self.next_scan += 1;

        let chunk_map = Arc::new(
            request
                .layout
                .chunk_map(&request.snapshot, &request.columns),
        );
        let stable = request.snapshot.stable_tuples();
        let chunk_ids = request.layout.chunks_for_ranges(&request.ranges, stable);
        if chunk_ids.is_empty() {
            return Err(Error::plan("CScan covers no chunks"));
        }
        let mut needed = HashMap::with_capacity(chunk_ids.len());
        let mut order = Vec::with_capacity(chunk_ids.len());
        let mut total_tuples = 0u64;
        for &chunk in &chunk_ids {
            let chunk_range = request.layout.chunk_sid_range(chunk, stable);
            let tuples = request.ranges.intersect_range(&chunk_range).total_tuples();
            if tuples == 0 {
                continue;
            }
            needed.insert(chunk, tuples);
            order.push(chunk);
            total_tuples += tuples;
        }
        order.sort_unstable();

        // Find or create the table version this snapshot belongs to
        // (checkpoint cases (i), (ii) and (iv) of Section 2.1).
        let table_state = self.tables.entry(request.table).or_default();
        let version = match table_state
            .versions
            .iter()
            .position(|v| v.snapshot.same_pages(&request.snapshot))
        {
            Some(idx) => idx,
            None => {
                table_state.versions.push(VersionState {
                    snapshot: Arc::clone(&request.snapshot),
                    chunks: HashMap::new(),
                    scans: HashSet::new(),
                });
                table_state.versions.len() - 1
            }
        };
        table_state.versions[version].scans.insert(id);
        for &chunk in order.iter() {
            table_state.versions[version]
                .chunks
                .entry(chunk)
                .or_insert_with(ChunkState::new)
                .interested
                .insert(id);
        }

        let handle = CScanHandle {
            id,
            total_chunks: order.len(),
            total_tuples,
        };
        // Some of the requested chunks may already be cached (loaded for
        // other scans or by a previous query on the same table version).
        let cached_available = order
            .iter()
            .filter(|c| {
                table_state.versions[version]
                    .chunks
                    .get(c)
                    .map(|cs| cs.is_cached())
                    .unwrap_or(false)
            })
            .count();
        self.scans.insert(
            id,
            CScanState {
                request,
                chunk_map,
                version,
                needed,
                order,
                next_in_order: 0,
                cached_available,
            },
        );
        self.recompute_shared_prefix(handle.id);
        Ok(handle)
    }

    /// Unregisters a finished (or aborted) CScan (`UnregisterCScan`). Chunk
    /// metadata of table versions that no longer have any registered scan is
    /// destroyed, as described for PDT checkpoints.
    pub fn unregister_cscan(&mut self, scan: ScanId) -> Result<()> {
        let state = self.scans.remove(&scan).ok_or(Error::UnknownScan(scan))?;
        let table = state.request.table;
        if let Some(table_state) = self.tables.get_mut(&table) {
            if let Some(version) = table_state.versions.get_mut(state.version) {
                version.scans.remove(&scan);
                for chunk in version.chunks.values_mut() {
                    chunk.interested.remove(&scan);
                }
            }
            // Drop versions without scans, releasing their cached bytes via
            // the page reference counts.
            let page_size = self.config.page_size_bytes;
            let mut freed = 0u64;
            let mut kept = Vec::new();
            for version in table_state.versions.drain(..) {
                if version.scans.is_empty() {
                    for chunk in version.chunks.values() {
                        for page in &chunk.cached_pages {
                            if let Some(count) = table_state.resident_pages.get_mut(page) {
                                *count -= 1;
                                if *count == 0 {
                                    table_state.resident_pages.remove(page);
                                    freed += page_size;
                                }
                            }
                        }
                    }
                } else {
                    kept.push(version);
                }
            }
            table_state.versions = kept;
            self.cached_bytes -= freed;
            if table_state.versions.is_empty() {
                self.tables.remove(&table);
            }
        }
        // Version indices of remaining scans may have shifted.
        self.reindex_versions(table);
        self.recompute_shared_prefix_for_table(table);
        Ok(())
    }

    fn reindex_versions(&mut self, table: TableId) {
        let Some(table_state) = self.tables.get(&table) else {
            return;
        };
        let mapping: Vec<(usize, Vec<ScanId>)> = table_state
            .versions
            .iter()
            .enumerate()
            .map(|(idx, v)| (idx, v.scans.iter().copied().collect()))
            .collect();
        for (idx, scan_ids) in mapping {
            for sid in scan_ids {
                if let Some(scan) = self.scans.get_mut(&sid) {
                    scan.version = idx;
                }
            }
        }
    }

    fn recompute_shared_prefix(&mut self, _new_scan: ScanId) {
        let tables: Vec<TableId> = self.tables.keys().copied().collect();
        for table in tables {
            self.recompute_shared_prefix_for_table(table);
        }
    }

    /// Finds the longest prefix (in chunks) shared by at least two registered
    /// CScans of `table` and marks chunks accordingly.
    fn recompute_shared_prefix_for_table(&mut self, table: TableId) {
        let Some(table_state) = self.tables.get(&table) else {
            return;
        };
        let scans: Vec<&CScanState> = table_state
            .versions
            .iter()
            .flat_map(|v| v.scans.iter())
            .filter_map(|s| self.scans.get(s))
            .collect();
        let mut best_tuples = 0u64;
        for i in 0..scans.len() {
            for j in i + 1..scans.len() {
                let a = &scans[i].request;
                let b = &scans[j].request;
                let prefix = a.snapshot.shared_prefix_tuples(&b.snapshot, &a.layout);
                best_tuples = best_tuples.max(prefix);
            }
        }
        let chunk_tuples = scans
            .first()
            .map(|s| s.request.layout.chunk_tuples())
            .unwrap_or(1)
            .max(1);
        let prefix_chunks = (best_tuples / chunk_tuples) as u32;
        let table_state = self.tables.get_mut(&table).expect("checked above");
        table_state.shared_prefix_chunks = prefix_chunks;
        for version in &mut table_state.versions {
            for (&chunk, state) in &mut version.chunks {
                state.shared = chunk.raw() < prefix_chunks;
            }
        }
    }

    // ------------------------------------------------------------------
    // Relevance functions
    // ------------------------------------------------------------------

    /// QueryRelevance: starved queries first (they have no cached chunk to
    /// process), then queries with the fewest chunks left.
    fn query_relevance(&self, scan: ScanId) -> Option<(bool, i64)> {
        let state = self.scans.get(&scan)?;
        if state.needed.is_empty() {
            return None;
        }
        // Does the scan have anything cached it could process right now?
        let starved = self.cached_chunk_for(scan).is_none();
        let remaining = state.needed.len() as i64;
        Some((starved, -remaining))
    }

    /// LoadRelevance of `chunk` for the version of `scan`: the number of
    /// interested scans, with a bonus for shared chunks.
    fn load_relevance(&self, scan: ScanId, chunk: ChunkId) -> f64 {
        let Some(state) = self.scans.get(&scan) else {
            return 0.0;
        };
        let Some(chunk_state) = self
            .tables
            .get(&state.request.table)
            .and_then(|t| t.versions.get(state.version))
            .and_then(|v| v.chunks.get(&chunk))
        else {
            return 0.0;
        };
        chunk_state.interested.len() as f64
            + if chunk_state.shared {
                SHARED_CHUNK_BONUS
            } else {
                0.0
            }
    }

    /// KeepRelevance of a cached chunk: how much it is worth keeping (the
    /// number of scans still interested, plus the shared bonus). The lowest
    /// scoring chunk is the eviction candidate.
    fn keep_relevance(chunk_state: &ChunkState, shared_bonus: f64) -> f64 {
        chunk_state.interested.len() as f64
            + if chunk_state.shared {
                shared_bonus
            } else {
                0.0
            }
    }

    /// The cached chunk `scan` should process next (UseRelevance): the cached
    /// chunk it needs that the fewest *other* scans are interested in. For
    /// in-order scans only the next sequential chunk qualifies.
    fn cached_chunk_for(&self, scan: ScanId) -> Option<ChunkId> {
        let state = self.scans.get(&scan)?;
        let version = self
            .tables
            .get(&state.request.table)
            .and_then(|t| t.versions.get(state.version))?;
        if state.request.in_order {
            let next = state.order.get(state.next_in_order)?;
            let cached = version
                .chunks
                .get(next)
                .map(|c| c.is_cached())
                .unwrap_or(false);
            return cached.then_some(*next);
        }
        state
            .needed
            .keys()
            .filter(|chunk| {
                version
                    .chunks
                    .get(chunk)
                    .map(|c| c.is_cached())
                    .unwrap_or(false)
            })
            .min_by_key(|chunk| {
                let interest = version
                    .chunks
                    .get(chunk)
                    .map(|c| c.interested.len())
                    .unwrap_or(0);
                (interest, chunk.raw())
            })
            .copied()
    }

    // ------------------------------------------------------------------
    // Scheduling
    // ------------------------------------------------------------------

    /// Chooses the next chunk to load: the most relevant query (QueryRelevance),
    /// then its most relevant chunk (LoadRelevance). Evicts low-KeepRelevance
    /// chunks to make room; returns `None` when nothing should or can be
    /// loaded.
    pub fn next_load(&mut self, _now: VirtualInstant) -> Option<LoadPlan> {
        // Rank queries: starved first, then shortest remaining, then id.
        let mut candidates: Vec<(bool, i64, ScanId)> = self
            .scans
            .keys()
            .filter_map(|&id| {
                self.query_relevance(id)
                    .map(|(starved, rem)| (starved, rem, id))
            })
            .collect();
        candidates.sort_by_key(|&(starved, rem, id)| {
            (std::cmp::Reverse(starved), std::cmp::Reverse(rem), id)
        });

        for (_starved, _rem, scan_id) in candidates {
            if let Some(plan) = self.plan_load_for(scan_id) {
                return Some(plan);
            }
        }
        None
    }

    fn plan_load_for(&mut self, scan_id: ScanId) -> Option<LoadPlan> {
        let state = self.scans.get(&scan_id)?;
        let table = state.request.table;
        let version_idx = state.version;
        let in_order = state.request.in_order;

        // Candidate chunks: not cached, not loading.
        let version = self.tables.get(&table)?.versions.get(version_idx)?;
        let loadable: Vec<ChunkId> = if in_order {
            state
                .order
                .get(state.next_in_order)
                .into_iter()
                .copied()
                .filter(|c| {
                    version
                        .chunks
                        .get(c)
                        .map(|cs| !cs.is_cached() && !cs.loading)
                        .unwrap_or(false)
                })
                .collect()
        } else {
            state
                .needed
                .keys()
                .copied()
                .filter(|c| {
                    version
                        .chunks
                        .get(c)
                        .map(|cs| !cs.is_cached() && !cs.loading)
                        .unwrap_or(false)
                })
                .collect()
        };
        if loadable.is_empty() {
            return None;
        }

        // LoadRelevance: most interested scans (shared bonus), then lowest id
        // to preserve some sequential locality.
        let best_chunk = loadable.into_iter().max_by(|a, b| {
            let ra = self.load_relevance(scan_id, *a);
            let rb = self.load_relevance(scan_id, *b);
            ra.partial_cmp(&rb)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.cmp(a))
        })?;
        let load_relevance = self.load_relevance(scan_id, best_chunk);

        // Pages to load: union of the pages every interested scan needs for
        // this chunk, minus what is already resident in the buffer (pages on
        // chunk boundaries or shared between snapshot versions are not read
        // twice).
        let state = self.scans.get(&scan_id)?;
        let table_state = self.tables.get(&table)?;
        let version = table_state.versions.get(version_idx)?;
        let chunk_state = version.chunks.get(&best_chunk)?;
        let mut pages: BTreeSet<PageId> = BTreeSet::new();
        for interested in &chunk_state.interested {
            if let Some(other) = self.scans.get(interested) {
                for &p in other.chunk_map.pages(best_chunk) {
                    pages.insert(p);
                }
            }
        }
        if pages.is_empty() {
            for &p in state.chunk_map.pages(best_chunk) {
                pages.insert(p);
            }
        }
        let full_pages: Vec<PageId> = pages.iter().copied().collect();
        let new_pages: Vec<PageId> = pages
            .into_iter()
            .filter(|p| !table_state.resident_pages.contains_key(p))
            .collect();
        let bytes = new_pages.len() as u64 * self.config.page_size_bytes;

        // Make room, evicting chunks whose KeepRelevance is lower than the
        // candidate's LoadRelevance (forced if the requesting scan is starved).
        let starved = self.cached_chunk_for(scan_id).is_none();
        if !self.make_room(
            bytes,
            load_relevance,
            starved,
            table,
            version_idx,
            best_chunk,
        ) {
            return None;
        }

        // Mark loading.
        let version = self
            .tables
            .get_mut(&table)
            .and_then(|t| t.versions.get_mut(version_idx))?;
        let chunk_state = version.chunks.get_mut(&best_chunk)?;
        chunk_state.loading = true;
        chunk_state.pending_pages = full_pages;

        Some(LoadPlan {
            scan: scan_id,
            chunk: best_chunk,
            table,
            pages: new_pages,
            bytes,
        })
    }

    /// Evicts cached chunks until `bytes` more fit in the buffer. Only chunks
    /// scoring below `load_relevance` are evicted unless `force` is set (the
    /// requesting query is starved). Returns whether enough space is free.
    fn make_room(
        &mut self,
        bytes: u64,
        load_relevance: f64,
        force: bool,
        skip_table: TableId,
        skip_version: usize,
        skip_chunk: ChunkId,
    ) -> bool {
        let capacity = self.config.buffer_capacity_bytes;
        let shared_bonus = SHARED_CHUNK_BONUS;
        while self.cached_bytes + bytes > capacity {
            // Find the cached, unprotected chunk with the lowest
            // KeepRelevance; ties are broken by (table, version, chunk) so
            // the decision is deterministic.
            let mut victim: Option<(f64, TableId, usize, ChunkId)> = None;
            for (&table, table_state) in &self.tables {
                for (vidx, version) in table_state.versions.iter().enumerate() {
                    for (&chunk, chunk_state) in &version.chunks {
                        if !chunk_state.cached || chunk_state.loading {
                            continue;
                        }
                        if table == skip_table && vidx == skip_version && chunk == skip_chunk {
                            continue;
                        }
                        if self.is_protected(chunk_state) {
                            continue;
                        }
                        let keep = Self::keep_relevance(chunk_state, shared_bonus);
                        let candidate = (keep, table, vidx, chunk);
                        let better = match &victim {
                            None => true,
                            Some(best) => (candidate.0, candidate.1, candidate.2, candidate.3)
                                .partial_cmp(&(best.0, best.1, best.2, best.3))
                                .map(|o| o.is_lt())
                                .unwrap_or(false),
                        };
                        if better {
                            victim = Some(candidate);
                        }
                    }
                }
            }
            let Some((keep, table, vidx, chunk)) = victim else {
                // Nothing can be evicted right now (everything cached is
                // either being loaded, protected for a starved scan, or
                // belongs to the chunk being admitted). Overcommit rather
                // than refuse: the protected chunks are about to be consumed,
                // after which the pool shrinks back below its capacity.
                break;
            };
            if keep >= load_relevance && !force {
                return false;
            }
            let freed = self.evict_chunk(table, vidx, chunk);
            self.stats.evictions += freed / self.config.page_size_bytes;
        }
        true
    }

    /// Drops a cached chunk, releasing the pages no other cached chunk still
    /// holds. Returns the number of bytes actually freed.
    fn evict_chunk(&mut self, table: TableId, version_idx: usize, chunk: ChunkId) -> u64 {
        let page_size = self.config.page_size_bytes;
        let Some(table_state) = self.tables.get_mut(&table) else {
            return 0;
        };
        let Some(chunk_state) = table_state
            .versions
            .get_mut(version_idx)
            .and_then(|v| v.chunks.get_mut(&chunk))
        else {
            return 0;
        };
        if !chunk_state.cached {
            return 0;
        }
        let pages: Vec<PageId> = chunk_state.cached_pages.drain().collect();
        let interested: Vec<ScanId> = chunk_state.interested.iter().copied().collect();
        chunk_state.cached = false;
        let mut freed = 0u64;
        for page in pages {
            if let Some(count) = table_state.resident_pages.get_mut(&page) {
                *count -= 1;
                if *count == 0 {
                    table_state.resident_pages.remove(&page);
                    freed += page_size;
                }
            }
        }
        for scan_id in interested {
            if let Some(scan) = self.scans.get_mut(&scan_id) {
                scan.cached_available = scan.cached_available.saturating_sub(1);
            }
        }
        self.cached_bytes -= freed;
        freed
    }

    /// A cached chunk is protected from eviction while it is the *only*
    /// cached chunk of some scan that still needs it: evicting it would put
    /// that scan right back to being starved, which (with several starved
    /// scans and a small pool) can livelock the ABM.
    fn is_protected(&self, chunk_state: &ChunkState) -> bool {
        chunk_state.interested.iter().any(|scan| {
            self.scans
                .get(scan)
                .map(|s| s.cached_available <= 1)
                .unwrap_or(false)
        })
    }

    /// Marks a chunk load as finished (the ABM thread performed the actual
    /// loading). The chunk's pages now occupy buffer space; pages that were
    /// already resident (chunk boundaries, shared snapshot prefixes) are
    /// reference-counted rather than duplicated.
    pub fn complete_load(&mut self, plan: &LoadPlan, _now: VirtualInstant) -> Result<()> {
        let scan = self
            .scans
            .get(&plan.scan)
            .ok_or(Error::UnknownScan(plan.scan))?;
        let version_idx = scan.version;
        let page_size = self.config.page_size_bytes;
        let table_state = self
            .tables
            .get_mut(&plan.table)
            .ok_or(Error::UnknownTable(plan.table))?;
        let chunk_state = table_state
            .versions
            .get_mut(version_idx)
            .and_then(|v| v.chunks.get_mut(&plan.chunk))
            .ok_or(Error::UnknownChunk(plan.chunk))?;
        chunk_state.loading = false;
        chunk_state.cached = true;
        let full_pages = std::mem::take(&mut chunk_state.pending_pages);
        let interested: Vec<ScanId> = chunk_state.interested.iter().copied().collect();
        let mut newly_resident = 0u64;
        for page in full_pages {
            chunk_state.cached_pages.insert(page);
            let count = table_state.resident_pages.entry(page).or_insert(0);
            *count += 1;
            if *count == 1 {
                newly_resident += page_size;
            }
        }
        // The chunk is now available to every scan that still needs it.
        for scan_id in interested {
            if let Some(scan) = self.scans.get_mut(&scan_id) {
                scan.cached_available += 1;
            }
        }
        self.cached_bytes += newly_resident;
        self.stats.misses += 1;
        self.stats.pages_loaded += plan.pages.len() as u64;
        self.stats.io_bytes += plan.bytes;
        Ok(())
    }

    /// Hands the best cached chunk to `scan` (`GetChunk`). Returns `None` if
    /// nothing it needs is cached (the scan should block) or if it already
    /// received everything.
    pub fn get_chunk(&mut self, scan: ScanId) -> Result<Option<ChunkDelivery>> {
        if !self.scans.contains_key(&scan) {
            return Err(Error::UnknownScan(scan));
        }
        let Some(chunk) = self.cached_chunk_for(scan) else {
            return Ok(None);
        };
        let state = self.scans.get_mut(&scan).expect("checked above");
        let tuples = state.needed.remove(&chunk).unwrap_or(0);
        if state.request.in_order {
            state.next_in_order += 1;
        }
        // The delivered chunk was one of this scan's cached-available chunks.
        state.cached_available = state.cached_available.saturating_sub(1);
        let table = state.request.table;
        let version_idx = state.version;
        // Reuse counts as a hit for every delivery after the initial load.
        self.stats.hits += 1;
        if let Some(chunk_state) = self
            .tables
            .get_mut(&table)
            .and_then(|t| t.versions.get_mut(version_idx))
            .and_then(|v| v.chunks.get_mut(&chunk))
        {
            chunk_state.interested.remove(&scan);
        }
        Ok(Some(ChunkDelivery { chunk, tuples }))
    }

    /// Whether a chunk is currently cached and available for `scan` (a
    /// non-consuming variant of [`MonolithicAbm::get_chunk`]).
    pub fn has_cached_chunk(&self, scan: ScanId) -> bool {
        self.cached_chunk_for(scan).is_some()
    }

    /// Whether `scan` has received every chunk it registered for.
    pub fn is_finished(&self, scan: ScanId) -> bool {
        self.scans
            .get(&scan)
            .map(|s| s.needed.is_empty())
            .unwrap_or(true)
    }

    /// Number of chunks `scan` still needs.
    pub fn remaining_chunks(&self, scan: ScanId) -> usize {
        self.scans.get(&scan).map(|s| s.needed.len()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanshare::common::{RangeList, TupleRange};
    use scanshare::storage::column::{ColumnSpec, ColumnType};
    use scanshare::storage::datagen::DataGen;
    use scanshare::storage::storage::Storage;
    use scanshare::storage::table::TableSpec;

    const PAGE: u64 = 1024;
    const CHUNK: u64 = 1000;

    fn setup(base_tuples: u64) -> (Arc<Storage>, TableId) {
        let storage = Storage::with_seed(PAGE, CHUNK, 11);
        let spec = TableSpec::new(
            "lineitem",
            vec![
                ColumnSpec::with_width("a", ColumnType::Int64, 4.0),
                ColumnSpec::with_width("b", ColumnType::Int64, 2.0),
            ],
            base_tuples,
        );
        let id = storage
            .create_table_with_data(
                spec,
                vec![
                    DataGen::Sequential { start: 0, step: 1 },
                    DataGen::Constant(1),
                ],
            )
            .unwrap();
        (storage, id)
    }

    fn request(storage: &Arc<Storage>, table: TableId, range: TupleRange) -> CScanRequest {
        let layout = storage.layout(table).unwrap();
        let snapshot = storage.master_snapshot(table).unwrap();
        CScanRequest {
            table,
            snapshot,
            layout,
            columns: vec![0, 1],
            ranges: RangeList::from_ranges([range]),
            in_order: false,
        }
    }

    fn abm(capacity_bytes: u64) -> MonolithicAbm {
        MonolithicAbm::new(AbmConfig::new(capacity_bytes, PAGE))
    }

    fn now() -> VirtualInstant {
        VirtualInstant::EPOCH
    }

    #[test]
    fn single_scan_receives_all_chunks_exactly_once() {
        let (storage, table) = setup(5_000);
        let mut abm = abm(1 << 20);
        let handle = abm
            .register_cscan(request(&storage, table, TupleRange::new(0, 5_000)))
            .unwrap();
        let mut delivered = Vec::new();
        let mut guard = 0;
        while !abm.is_finished(handle.id) {
            guard += 1;
            assert!(guard < 1000);
            if let Some(d) = abm.get_chunk(handle.id).unwrap() {
                delivered.push(d.chunk);
            } else {
                let plan = abm.next_load(now()).expect("starved");
                abm.complete_load(&plan, now()).unwrap();
            }
        }
        delivered.sort_unstable();
        delivered.dedup();
        assert_eq!(delivered.len(), handle.total_chunks);
        abm.unregister_cscan(handle.id).unwrap();
        assert_eq!(abm.registered_scans(), 0);
        assert_eq!(
            abm.version_count(table),
            0,
            "metadata destroyed with the last scan"
        );
    }

    #[test]
    fn concurrent_scans_share_loaded_chunks() {
        let (storage, table) = setup(10_000);
        // Plenty of buffer: every chunk is loaded at most once.
        let mut abm = abm(1 << 22);
        let a = abm
            .register_cscan(request(&storage, table, TupleRange::new(0, 10_000)))
            .unwrap();
        let b = abm
            .register_cscan(request(&storage, table, TupleRange::new(0, 10_000)))
            .unwrap();

        // Drive both scans round-robin.
        let mut guard = 0;
        while !(abm.is_finished(a.id) && abm.is_finished(b.id)) {
            guard += 1;
            assert!(guard < 10_000);
            let mut progressed = false;
            for scan in [a.id, b.id] {
                if !abm.is_finished(scan) && abm.get_chunk(scan).unwrap().is_some() {
                    progressed = true;
                }
            }
            if !progressed {
                let plan = abm
                    .next_load(now())
                    .expect("both scans starved but ABM idle");
                abm.complete_load(&plan, now()).unwrap();
            }
        }
        let stats = abm.stats();
        // 10 chunks were loaded once each but delivered twice (20 deliveries).
        assert_eq!(stats.misses, 10);
        assert_eq!(stats.hits, 20);
        // Total I/O equals the table size (each page loaded exactly once):
        // column a: 4 B/tuple -> 40 pages, column b: 2 B/tuple -> 20 pages.
        assert_eq!(stats.io_bytes, 60 * PAGE);
    }

    #[test]
    fn eviction_respects_keep_relevance_and_capacity() {
        let (storage, table) = setup(10_000);
        // Column a needs 4 pages per chunk, column b 2 pages per chunk ->
        // 6 KiB per chunk. Capacity of 2 chunks.
        let mut abm = abm(12 * PAGE);
        let a = abm
            .register_cscan(request(&storage, table, TupleRange::new(0, 10_000)))
            .unwrap();
        let mut loads = 0;
        let mut guard = 0;
        while !abm.is_finished(a.id) {
            guard += 1;
            assert!(guard < 10_000, "scan did not make progress");
            if abm.get_chunk(a.id).unwrap().is_some() {
                continue;
            }
            let plan = abm.next_load(now()).expect("scan starved but ABM is idle");
            abm.complete_load(&plan, now()).unwrap();
            loads += 1;
        }
        assert_eq!(loads, 10, "every chunk loaded exactly once");
        assert!(abm.stats().evictions > 0, "small buffer forces evictions");
        assert!(abm.cached_bytes() <= 12 * PAGE);
    }

    #[test]
    fn unknown_scan_operations_error() {
        let mut abm = abm(1 << 20);
        assert!(abm.get_chunk(ScanId::new(99)).is_err());
        assert!(abm.unregister_cscan(ScanId::new(99)).is_err());
        assert!(abm.is_finished(ScanId::new(99)));
        assert_eq!(abm.remaining_chunks(ScanId::new(99)), 0);
    }
}
