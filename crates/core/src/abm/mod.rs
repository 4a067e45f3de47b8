//! Cooperative Scans: the Active Buffer Manager (ABM).
//!
//! Under Cooperative Scans the buffer manager stops being a passive cache:
//! CScan operators register their data interest up front
//! ([`Abm::register_cscan`]), repeatedly ask for whatever chunk is best to
//! process next ([`Abm::get_chunk`]) and unregister when done. The ABM
//! decides *which chunk to load next, for whom, what to hand out and what
//! to evict* using the four relevance functions of Section 2 of the paper
//! (see [`relevance`] for the scoring itself). It works at **chunk**
//! granularity and is snapshot-aware: scans on different snapshots of the
//! same table share the longest common prefix of their page arrays, and
//! chunks inside that prefix are marked shared (worth loading early and
//! keeping).
//!
//! # Layering
//!
//! * this module — the ABM's state: per-scan progress and the per-version
//!   chunk table (residency, interested scans, cached pages), all behind
//!   **one lock**. Every operation, delivery included, applies its effects
//!   immediately, so decisions are byte-identical to the frozen monolithic
//!   original kept as the executable spec in `tests/abm_reference`
//!   (`tests/abm_equivalence.rs` asserts this over randomized traces);
//! * [`relevance`] — QueryRelevance, LoadRelevance, UseRelevance and
//!   KeepRelevance as pure, unit-testable functions;
//! * [`scheduler`] — the **load scheduler**: one chunk load at a time issued
//!   through [`BlockDevice::submit_read`](scanshare_iosim::BlockDevice::submit_read),
//!   so starved streams retire each other's loads instead of spin-polling.

pub mod relevance;
pub mod scheduler;

pub use scheduler::LoadScheduler;

use std::cmp::Reverse;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use scanshare_common::sync::Mutex;
use scanshare_common::{
    ChunkId, Error, PageId, RangeList, Result, ScanId, TableId, VirtualInstant,
};
use scanshare_storage::layout::{ChunkMap, TableLayout};
use scanshare_storage::snapshot::Snapshot;

use crate::metrics::BufferStats;

/// Tuning knobs of the Active Buffer Manager.
#[derive(Debug, Clone, PartialEq)]
pub struct AbmConfig {
    /// Capacity of the buffer pool managed by ABM, in bytes.
    pub buffer_capacity_bytes: u64,
    /// Page size in bytes (uniform).
    pub page_size_bytes: u64,
    /// Extra load-relevance weight given to shared chunks.
    pub shared_chunk_bonus: f64,
}

impl AbmConfig {
    /// Creates a configuration for the given pool capacity and page size.
    pub fn new(buffer_capacity_bytes: u64, page_size_bytes: u64) -> Self {
        Self {
            buffer_capacity_bytes,
            page_size_bytes,
            shared_chunk_bonus: 0.5,
        }
    }
}

/// A request to register a CScan with the ABM.
#[derive(Debug, Clone)]
pub struct CScanRequest {
    /// Table being scanned.
    pub table: TableId,
    /// Storage snapshot the scan's transaction works on.
    pub snapshot: Arc<Snapshot>,
    /// Layout of the table.
    pub layout: Arc<TableLayout>,
    /// Column indices the scan reads.
    pub columns: Vec<usize>,
    /// SID ranges the scan must cover.
    pub ranges: RangeList,
    /// Whether the scan demands in-order (chunk-by-chunk, ascending)
    /// delivery and therefore acts as a drop-in replacement for a
    /// traditional Scan.
    pub in_order: bool,
}

/// Handle returned by [`Abm::register_cscan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CScanHandle {
    /// The scan id to use in subsequent calls.
    pub id: ScanId,
    /// Number of chunks the scan will consume.
    pub total_chunks: usize,
    /// Number of tuples the scan will produce (before PDT merging).
    pub total_tuples: u64,
}

/// A chunk-load decision produced by [`Abm::next_load`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadPlan {
    /// The scan whose QueryRelevance triggered the load.
    pub scan: ScanId,
    /// The chunk to load.
    pub chunk: ChunkId,
    /// The table the chunk belongs to.
    pub table: TableId,
    /// Pages that actually need to be read (already-cached pages excluded).
    pub pages: Vec<PageId>,
    /// Bytes that need to be read.
    pub bytes: u64,
}

/// A chunk handed to a CScan by [`Abm::get_chunk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkDelivery {
    /// The delivered chunk.
    pub chunk: ChunkId,
    /// Number of tuples of the scan's ranges inside this chunk.
    pub tuples: u64,
}

// ---------------------------------------------------------------------------
// State (one lock)
// ---------------------------------------------------------------------------

/// Where a chunk's data is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Residency {
    Empty,
    Loading,
    Cached,
}

#[derive(Debug)]
struct CoreChunk {
    /// Pages this cached chunk holds in the buffer (union over interested
    /// scans' column sets). Pages on chunk boundaries may also be held by
    /// the neighbouring chunk; table-level reference counts track real
    /// residency.
    cached_pages: HashSet<PageId>,
    /// Full page set of a load in flight (set while loading).
    pending_pages: Vec<PageId>,
    /// Scans that still need to consume this chunk; its size is the
    /// usefulness count behind Use/Load/KeepRelevance.
    interested: HashSet<ScanId>,
    /// Whether the chunk lies inside the longest snapshot prefix shared by
    /// at least two registered scans.
    shared: bool,
    residency: Residency,
}

impl CoreChunk {
    fn new() -> Self {
        Self {
            cached_pages: HashSet::new(),
            pending_pages: Vec::new(),
            interested: HashSet::new(),
            shared: false,
            residency: Residency::Empty,
        }
    }
}

#[derive(Debug)]
struct VersionState {
    snapshot: Arc<Snapshot>,
    chunks: HashMap<ChunkId, CoreChunk>,
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
struct CoreScan {
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
    /// evicted before that scan consumes it (otherwise two starved scans
    /// can keep evicting each other's freshly loaded chunks forever).
    cached_available: usize,
}

#[derive(Debug)]
struct AbmState {
    scans: HashMap<ScanId, CoreScan>,
    tables: HashMap<TableId, TableState>,
    stats: BufferStats,
    cached_bytes: u64,
    next_scan: u64,
}

impl AbmState {
    /// The chunk table of the version `scan` reads.
    fn version_of(&self, scan: &CoreScan) -> Option<&VersionState> {
        self.tables
            .get(&scan.request.table)
            .and_then(|t| t.versions.get(scan.version))
    }

    /// The state of `chunk` in the version `scan` reads.
    fn chunk_of(&self, scan: ScanId, chunk: ChunkId) -> Option<&CoreChunk> {
        self.version_of(self.scans.get(&scan)?)?.chunks.get(&chunk)
    }

    /// UseRelevance: the cached chunk `scan` should process next — the
    /// cached needed chunk with the lowest
    /// [`use_preference`](relevance::use_preference) key; for in-order scans
    /// only the next sequential chunk qualifies.
    fn cached_candidate(&self, scan: ScanId) -> Option<ChunkId> {
        let state = self.scans.get(&scan)?;
        let version = self.version_of(state)?;
        let cached = |chunk: &ChunkId| {
            version
                .chunks
                .get(chunk)
                .filter(|c| c.residency == Residency::Cached)
        };
        if state.request.in_order {
            let next = state.order.get(state.next_in_order)?;
            return cached(next).map(|_| *next);
        }
        state
            .needed
            .keys()
            .filter_map(|&chunk| {
                let interest = cached(&chunk)?.interested.len();
                Some((relevance::use_preference(interest, chunk), chunk))
            })
            .min_by_key(|(key, _)| *key)
            .map(|(_, chunk)| chunk)
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

    /// Finds the longest prefix (in chunks) shared by at least two
    /// registered CScans of `table` and marks chunks accordingly.
    fn recompute_shared_prefix_for_table(&mut self, table: TableId) {
        let Some(table_state) = self.tables.get(&table) else {
            return;
        };
        let scans: Vec<&CoreScan> = table_state
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

    fn recompute_shared_prefixes(&mut self) {
        let tables: Vec<TableId> = self.tables.keys().copied().collect();
        for table in tables {
            self.recompute_shared_prefix_for_table(table);
        }
    }

    /// QueryRelevance: starved queries first (they have no cached chunk to
    /// process), then queries with the fewest chunks left.
    fn query_relevance(&self, scan: ScanId) -> Option<(bool, i64)> {
        let state = self.scans.get(&scan)?;
        if state.needed.is_empty() {
            return None;
        }
        let starved = self.cached_candidate(scan).is_none();
        Some(relevance::query_priority(starved, state.needed.len()))
    }

    /// LoadRelevance of `chunk` for the version of `scan`.
    fn load_relevance(&self, scan: ScanId, chunk: ChunkId, config: &AbmConfig) -> f64 {
        let Some(chunk_state) = self.chunk_of(scan, chunk) else {
            return 0.0;
        };
        relevance::load_relevance(
            chunk_state.interested.len(),
            chunk_state.shared,
            config.shared_chunk_bonus,
        )
    }

    /// Chooses the next chunk to load: the most relevant query
    /// (QueryRelevance), then its most relevant chunk (LoadRelevance).
    /// Evicts low-KeepRelevance chunks to make room; returns `None` when
    /// nothing should or can be loaded.
    fn next_load(&mut self, config: &AbmConfig) -> Option<LoadPlan> {
        // Rank queries: starved first, then shortest remaining, then id.
        let mut candidates: Vec<(bool, i64, ScanId)> = self
            .scans
            .keys()
            .filter_map(|&id| {
                self.query_relevance(id)
                    .map(|(starved, rem)| (starved, rem, id))
            })
            .collect();
        candidates.sort_by_key(|&(starved, rem, id)| (Reverse(starved), Reverse(rem), id));

        for (_starved, _rem, scan_id) in candidates {
            if let Some(plan) = self.plan_load_for(scan_id, config) {
                return Some(plan);
            }
        }
        None
    }

    fn plan_load_for(&mut self, scan_id: ScanId, config: &AbmConfig) -> Option<LoadPlan> {
        let state = self.scans.get(&scan_id)?;
        let table = state.request.table;
        let version_idx = state.version;

        // Candidate chunks: not cached, not loading.
        let version = self.version_of(state)?;
        let is_loadable = |c: &ChunkId| {
            version
                .chunks
                .get(c)
                .map(|cs| cs.residency == Residency::Empty)
                .unwrap_or(false)
        };
        let loadable: Vec<ChunkId> = if state.request.in_order {
            state
                .order
                .get(state.next_in_order)
                .into_iter()
                .copied()
                .filter(is_loadable)
                .collect()
        } else {
            state.needed.keys().copied().filter(is_loadable).collect()
        };
        if loadable.is_empty() {
            return None;
        }

        // LoadRelevance: most interested scans (shared bonus), then lowest
        // id to preserve some sequential locality.
        let best_chunk = loadable.into_iter().max_by(|a, b| {
            let ra = self.load_relevance(scan_id, *a, config);
            let rb = self.load_relevance(scan_id, *b, config);
            relevance::load_candidate_order(ra, *a, rb, *b)
        })?;
        let load_relevance = self.load_relevance(scan_id, best_chunk, config);

        // Pages to load: union of the pages every interested scan needs for
        // this chunk, minus what is already resident in the buffer (pages
        // on chunk boundaries or shared between snapshot versions are not
        // read twice).
        let table_state = self.tables.get(&table)?;
        let chunk_state = table_state
            .versions
            .get(version_idx)?
            .chunks
            .get(&best_chunk)?;
        let mut pages: BTreeSet<PageId> = BTreeSet::new();
        for interested in &chunk_state.interested {
            if let Some(other) = self.scans.get(interested) {
                pages.extend(other.chunk_map.pages(best_chunk));
            }
        }
        if pages.is_empty() {
            pages.extend(state.chunk_map.pages(best_chunk));
        }
        let full_pages: Vec<PageId> = pages.iter().copied().collect();
        let new_pages: Vec<PageId> = pages
            .into_iter()
            .filter(|p| !table_state.resident_pages.contains_key(p))
            .collect();
        let bytes = new_pages.len() as u64 * config.page_size_bytes;

        // Make room, evicting chunks whose KeepRelevance is lower than the
        // candidate's LoadRelevance (forced if the requesting scan is
        // starved).
        let starved = self.cached_candidate(scan_id).is_none();
        if !self.make_room(
            bytes,
            load_relevance,
            starved,
            (table, version_idx, best_chunk),
            config,
        ) {
            return None;
        }

        // Mark loading.
        let chunk_state = self
            .tables
            .get_mut(&table)
            .and_then(|t| t.versions.get_mut(version_idx))
            .and_then(|v| v.chunks.get_mut(&best_chunk))?;
        chunk_state.residency = Residency::Loading;
        chunk_state.pending_pages = full_pages;

        Some(LoadPlan {
            scan: scan_id,
            chunk: best_chunk,
            table,
            pages: new_pages,
            bytes,
        })
    }

    /// Evicts cached chunks until `bytes` more fit in the buffer. Only
    /// chunks scoring below `load_relevance` are evicted unless `force` is
    /// set (the requesting query is starved); `skip` (table, version,
    /// chunk) is the chunk being admitted. Returns whether enough space is
    /// free.
    fn make_room(
        &mut self,
        bytes: u64,
        load_relevance: f64,
        force: bool,
        skip: (TableId, usize, ChunkId),
        config: &AbmConfig,
    ) -> bool {
        while self.cached_bytes + bytes > config.buffer_capacity_bytes {
            // Find the cached, unprotected chunk with the lowest
            // KeepRelevance; ties are broken by (table, version, chunk) so
            // the decision is deterministic.
            let mut victim: Option<(f64, TableId, usize, ChunkId)> = None;
            for (&table, table_state) in self.tables.iter() {
                for (vidx, version) in table_state.versions.iter().enumerate() {
                    for (&chunk, chunk_state) in &version.chunks {
                        if chunk_state.residency != Residency::Cached
                            || (table, vidx, chunk) == skip
                            || self.is_protected(chunk_state)
                        {
                            continue;
                        }
                        let keep = relevance::keep_relevance(
                            chunk_state.interested.len(),
                            chunk_state.shared,
                            config.shared_chunk_bonus,
                        );
                        let candidate = (keep, table, vidx, chunk);
                        let better = match &victim {
                            None => true,
                            Some(best) => candidate
                                .partial_cmp(best)
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
                // than refuse: the protected chunks are about to be
                // consumed, after which the pool shrinks back below its
                // capacity.
                break;
            };
            if keep >= load_relevance && !force {
                return false;
            }
            let freed = self.evict_chunk(table, vidx, chunk, config);
            self.stats.evictions += freed / config.page_size_bytes;
        }
        true
    }

    /// A cached chunk is protected from eviction while it is the *only*
    /// cached chunk of some scan that still needs it: evicting it would put
    /// that scan right back to being starved, which (with several starved
    /// scans and a small pool) can livelock the ABM.
    fn is_protected(&self, chunk_state: &CoreChunk) -> bool {
        chunk_state.interested.iter().any(|scan| {
            self.scans
                .get(scan)
                .map(|s| s.cached_available <= 1)
                .unwrap_or(false)
        })
    }

    /// Drops a cached chunk, releasing the pages no other cached chunk
    /// still holds. Returns the number of bytes actually freed.
    fn evict_chunk(
        &mut self,
        table: TableId,
        version_idx: usize,
        chunk: ChunkId,
        config: &AbmConfig,
    ) -> u64 {
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
        if chunk_state.residency != Residency::Cached {
            return 0;
        }
        let pages: Vec<PageId> = chunk_state.cached_pages.drain().collect();
        let interested: Vec<ScanId> = chunk_state.interested.iter().copied().collect();
        chunk_state.residency = Residency::Empty;
        let mut freed = 0u64;
        for page in pages {
            if let Some(count) = table_state.resident_pages.get_mut(&page) {
                *count -= 1;
                if *count == 0 {
                    table_state.resident_pages.remove(&page);
                    freed += config.page_size_bytes;
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

    /// Counts a finished transfer in the I/O statistics.
    fn account_load(&mut self, plan: &LoadPlan) {
        self.stats.misses += 1;
        self.stats.pages_loaded += plan.pages.len() as u64;
        self.stats.io_bytes += plan.bytes;
    }

    /// Marks a chunk load as finished. The chunk's pages now occupy buffer
    /// space; pages that were already resident (chunk boundaries, shared
    /// snapshot prefixes) are reference-counted rather than duplicated.
    fn complete_load(&mut self, plan: &LoadPlan, config: &AbmConfig) -> Result<()> {
        // Resolve the target version through the planning scan when it is
        // still registered. A scan may unregister (mid-flight abort, a
        // dropped operator) while its load is in flight; the transfer still
        // happened, so fall back to whichever version of the table has the
        // chunk mid-load — the load completes for the surviving interested
        // scans instead of poisoning the pipeline. (The frozen
        // `MonolithicAbm` errors here instead; its synchronous callers
        // completed every load before the scan could go away.)
        let version_idx = match self.scans.get(&plan.scan) {
            Some(scan) => Some(scan.version),
            None => self.tables.get(&plan.table).and_then(|t| {
                t.versions.iter().position(|v| {
                    v.chunks
                        .get(&plan.chunk)
                        .map(|c| c.residency == Residency::Loading)
                        .unwrap_or(false)
                })
            }),
        };
        let Some(version_idx) = version_idx else {
            // The scan and its whole version are gone (it was the last
            // registered scan): there is nothing left to cache, but the
            // bytes were transferred — account them so the ABM and the
            // device keep agreeing on the I/O volume.
            self.account_load(plan);
            return Ok(());
        };
        let table_state = self
            .tables
            .get_mut(&plan.table)
            .ok_or(Error::UnknownTable(plan.table))?;
        let chunk_state = table_state
            .versions
            .get_mut(version_idx)
            .and_then(|v| v.chunks.get_mut(&plan.chunk))
            .ok_or(Error::UnknownChunk(plan.chunk))?;
        if chunk_state.residency != Residency::Loading {
            // The chunk is not mid-load: a straggler fallback (above) raced
            // this completion, or the registration is new. Re-applying the
            // completion side effects would double-count cached_available —
            // and silently defeat the is_protected anti-livelock rule — so
            // only account the transferred bytes.
            self.account_load(plan);
            return Ok(());
        }
        chunk_state.residency = Residency::Cached;
        let full_pages = std::mem::take(&mut chunk_state.pending_pages);
        let interested: Vec<ScanId> = chunk_state.interested.iter().copied().collect();
        let mut newly_resident = 0u64;
        for page in full_pages {
            chunk_state.cached_pages.insert(page);
            let count = table_state.resident_pages.entry(page).or_insert(0);
            *count += 1;
            if *count == 1 {
                newly_resident += config.page_size_bytes;
            }
        }
        // The chunk is now available to every scan that still needs it.
        for scan_id in interested {
            if let Some(scan) = self.scans.get_mut(&scan_id) {
                scan.cached_available += 1;
            }
        }
        self.cached_bytes += newly_resident;
        self.account_load(plan);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The facade
// ---------------------------------------------------------------------------

/// The Active Buffer Manager: its state behind one lock, the pure
/// [`relevance`] scoring and (via [`scheduler::LoadScheduler`]) an
/// asynchronous load pipeline. All methods take `&self`: one `Abm` is
/// shared by every CScan stream of an engine without an outer lock.
#[derive(Debug)]
pub struct Abm {
    config: AbmConfig,
    state: Mutex<AbmState>,
}

impl Abm {
    /// Creates an ABM managing a buffer of `config.buffer_capacity_bytes`.
    pub fn new(config: AbmConfig) -> Self {
        assert!(config.buffer_capacity_bytes >= config.page_size_bytes);
        Self {
            state: Mutex::new(AbmState {
                scans: HashMap::new(),
                tables: HashMap::new(),
                stats: BufferStats::default(),
                cached_bytes: 0,
                next_scan: 0,
            }),
            config,
        }
    }

    /// Accumulated statistics (`io_bytes` is the total I/O volume).
    pub fn stats(&self) -> BufferStats {
        self.state.lock().stats
    }

    /// Bytes currently cached.
    pub fn cached_bytes(&self) -> u64 {
        self.state.lock().cached_bytes
    }

    /// Number of registered CScans.
    pub fn registered_scans(&self) -> usize {
        self.state.lock().scans.len()
    }

    /// Number of distinct table versions registered for `table`.
    pub fn version_count(&self, table: TableId) -> usize {
        self.state
            .lock()
            .tables
            .get(&table)
            .map(|t| t.versions.len())
            .unwrap_or(0)
    }

    /// Number of leading chunks of `table` currently marked shared.
    pub fn shared_prefix_chunks(&self, table: TableId) -> u32 {
        self.state
            .lock()
            .tables
            .get(&table)
            .map(|t| t.shared_prefix_chunks)
            .unwrap_or(0)
    }

    /// Whether `chunk` of the version used by `scan` is cached.
    pub fn chunk_is_cached(&self, scan: ScanId, chunk: ChunkId) -> bool {
        self.state
            .lock()
            .chunk_of(scan, chunk)
            .map(|c| c.residency == Residency::Cached)
            .unwrap_or(false)
    }

    /// Registers a CScan (`RegisterCScan`).
    pub fn register_cscan(&self, request: CScanRequest) -> Result<CScanHandle> {
        // Pure derivation first: the chunk map and needed set depend only
        // on the request.
        let chunk_map = Arc::new(
            request
                .layout
                .chunk_map(&request.snapshot, &request.columns),
        );
        let stable = request.snapshot.stable_tuples();
        let chunk_ids = request.layout.chunks_for_ranges(&request.ranges, stable);
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

        let mut state = self.state.lock();
        let id = ScanId::new(state.next_scan);
        state.next_scan += 1;
        // The id is consumed even for an empty registration, exactly as the
        // monolithic ABM allocated it before validating.
        if chunk_ids.is_empty() {
            return Err(Error::plan("CScan covers no chunks"));
        }

        // Find or create the table version this snapshot belongs to
        // (checkpoint cases (i), (ii) and (iv) of Section 2.1).
        let table_state = state.tables.entry(request.table).or_default();
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
        let version_state = &mut table_state.versions[version];
        version_state.scans.insert(id);
        // Some of the requested chunks may already be cached (loaded for
        // other scans or by a previous query on the same table version).
        let mut cached_available = 0;
        for &chunk in &order {
            let chunk_state = version_state
                .chunks
                .entry(chunk)
                .or_insert_with(CoreChunk::new);
            chunk_state.interested.insert(id);
            cached_available += usize::from(chunk_state.residency == Residency::Cached);
        }

        let handle = CScanHandle {
            id,
            total_chunks: order.len(),
            total_tuples,
        };
        state.scans.insert(
            id,
            CoreScan {
                request,
                chunk_map,
                version,
                needed,
                order,
                next_in_order: 0,
                cached_available,
            },
        );
        state.recompute_shared_prefixes();
        Ok(handle)
    }

    /// Unregisters a finished (or aborted) CScan (`UnregisterCScan`). Chunk
    /// metadata of table versions that no longer have any registered scan
    /// is destroyed, as described for PDT checkpoints.
    pub fn unregister_cscan(&self, scan: ScanId) -> Result<()> {
        let mut guard = self.state.lock();
        let state = &mut *guard;
        let removed = state.scans.remove(&scan).ok_or(Error::UnknownScan(scan))?;
        let table = removed.request.table;
        if let Some(table_state) = state.tables.get_mut(&table) {
            if let Some(version) = table_state.versions.get_mut(removed.version) {
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
            state.cached_bytes -= freed;
            if table_state.versions.is_empty() {
                state.tables.remove(&table);
            }
        }
        // Version indices of remaining scans may have shifted.
        state.reindex_versions(table);
        state.recompute_shared_prefix_for_table(table);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Scheduling
    // ------------------------------------------------------------------

    /// Chooses the next chunk to load (the
    /// QueryRelevance → LoadRelevance → KeepRelevance pipeline).
    pub fn next_load(&self, _now: VirtualInstant) -> Option<LoadPlan> {
        self.state.lock().next_load(&self.config)
    }

    /// Marks a chunk load as finished (the caller performed and accounted
    /// the actual transfer).
    pub fn complete_load(&self, plan: &LoadPlan, _now: VirtualInstant) -> Result<()> {
        self.state.lock().complete_load(plan, &self.config)
    }

    /// Hands the best cached chunk to `scan` (`GetChunk`). Returns `None`
    /// if nothing it needs is cached (the scan should block) or if it
    /// already received everything.
    pub fn get_chunk(&self, scan: ScanId) -> Result<Option<ChunkDelivery>> {
        let mut guard = self.state.lock();
        let state = &mut *guard;
        if !state.scans.contains_key(&scan) {
            return Err(Error::UnknownScan(scan));
        }
        let Some(chunk) = state.cached_candidate(scan) else {
            return Ok(None);
        };
        let scan_state = state.scans.get_mut(&scan).expect("checked above");
        let tuples = scan_state.needed.remove(&chunk).unwrap_or(0);
        if scan_state.request.in_order {
            scan_state.next_in_order += 1;
        }
        // The delivered chunk was one of this scan's cached-available chunks.
        scan_state.cached_available = scan_state.cached_available.saturating_sub(1);
        let (table, version) = (scan_state.request.table, scan_state.version);
        state.stats.hits += 1;
        if let Some(chunk_state) = state
            .tables
            .get_mut(&table)
            .and_then(|t| t.versions.get_mut(version))
            .and_then(|v| v.chunks.get_mut(&chunk))
        {
            chunk_state.interested.remove(&scan);
        }
        Ok(Some(ChunkDelivery { chunk, tuples }))
    }

    /// Whether a chunk is currently cached and available for `scan` (a
    /// non-consuming variant of [`Abm::get_chunk`]).
    pub fn has_cached_chunk(&self, scan: ScanId) -> bool {
        self.state.lock().cached_candidate(scan).is_some()
    }

    /// Whether `scan` has received every chunk it registered for (unknown
    /// scans count as finished).
    pub fn is_finished(&self, scan: ScanId) -> bool {
        self.remaining_chunks(scan) == 0
    }

    /// Number of chunks `scan` still needs.
    pub fn remaining_chunks(&self, scan: ScanId) -> usize {
        self.state
            .lock()
            .scans
            .get(&scan)
            .map(|s| s.needed.len())
            .unwrap_or(0)
    }

    #[cfg(test)]
    pub(crate) fn plan_load_for(&self, scan: ScanId) -> Option<LoadPlan> {
        self.state.lock().plan_load_for(scan, &self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanshare_common::TupleRange;
    use scanshare_storage::column::{ColumnSpec, ColumnType};
    use scanshare_storage::datagen::DataGen;
    use scanshare_storage::storage::Storage;
    use scanshare_storage::table::TableSpec;

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

    fn request(
        storage: &Arc<Storage>,
        table: TableId,
        range: TupleRange,
        in_order: bool,
    ) -> CScanRequest {
        let layout = storage.layout(table).unwrap();
        let snapshot = storage.master_snapshot(table).unwrap();
        CScanRequest {
            table,
            snapshot,
            layout,
            columns: vec![0, 1],
            ranges: RangeList::from_ranges([range]),
            in_order,
        }
    }

    fn abm(capacity_bytes: u64) -> Abm {
        Abm::new(AbmConfig::new(capacity_bytes, PAGE))
    }

    fn now() -> VirtualInstant {
        VirtualInstant::EPOCH
    }

    /// Drives the ABM until `scan` has consumed all of its chunks, returning
    /// the number of loads performed. Panics if no progress is possible.
    fn drain_scan(abm: &Abm, scan: ScanId) -> usize {
        let mut loads = 0;
        let mut guard = 0;
        while !abm.is_finished(scan) {
            guard += 1;
            assert!(guard < 10_000, "scan did not make progress");
            if let Some(delivery) = abm.get_chunk(scan).unwrap() {
                assert!(delivery.tuples > 0);
                continue;
            }
            let plan = abm.next_load(now()).expect("scan starved but ABM is idle");
            abm.complete_load(&plan, now()).unwrap();
            loads += 1;
        }
        loads
    }

    #[test]
    fn register_reports_chunks_and_tuples() {
        let (storage, table) = setup(10_000);
        let abm = abm(1 << 20);
        let handle = abm
            .register_cscan(request(&storage, table, TupleRange::new(0, 10_000), false))
            .unwrap();
        assert_eq!(handle.total_chunks, 10);
        assert_eq!(handle.total_tuples, 10_000);
        assert_eq!(abm.registered_scans(), 1);
        // Partial range: 2.5 chunks worth of tuples.
        let handle2 = abm
            .register_cscan(request(&storage, table, TupleRange::new(500, 3000), false))
            .unwrap();
        assert_eq!(handle2.total_chunks, 3);
        assert_eq!(handle2.total_tuples, 2500);
    }

    #[test]
    fn empty_range_registration_is_rejected() {
        let (storage, table) = setup(1_000);
        let abm = abm(1 << 20);
        let mut req = request(&storage, table, TupleRange::new(0, 0), false);
        req.ranges = RangeList::new();
        assert!(abm.register_cscan(req).is_err());
    }

    #[test]
    fn single_scan_receives_all_chunks_exactly_once() {
        let (storage, table) = setup(5_000);
        let abm = abm(1 << 20);
        let handle = abm
            .register_cscan(request(&storage, table, TupleRange::new(0, 5_000), false))
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
        let abm = abm(1 << 22);
        let a = abm
            .register_cscan(request(&storage, table, TupleRange::new(0, 10_000), false))
            .unwrap();
        let b = abm
            .register_cscan(request(&storage, table, TupleRange::new(0, 10_000), false))
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
    fn load_relevance_prefers_chunks_wanted_by_more_scans() {
        let (storage, table) = setup(10_000);
        let abm = abm(1 << 22);
        // Scan A needs everything; scan B only chunks 5..10.
        let a = abm
            .register_cscan(request(&storage, table, TupleRange::new(0, 10_000), false))
            .unwrap();
        let _b = abm
            .register_cscan(request(
                &storage,
                table,
                TupleRange::new(5_000, 10_000),
                false,
            ))
            .unwrap();
        // First load decision for A must pick a chunk B also wants.
        let plan = abm.plan_load_for(a.id).unwrap();
        assert!(
            plan.chunk.raw() >= 5,
            "chunk {} is not shared with scan B",
            plan.chunk
        );
    }

    #[test]
    fn eviction_respects_keep_relevance_and_capacity() {
        let (storage, table) = setup(10_000);
        // Column a needs 4 pages per chunk, column b 2 pages per chunk ->
        // 6 KiB per chunk. Capacity of 2 chunks.
        let abm = abm(12 * PAGE);
        let a = abm
            .register_cscan(request(&storage, table, TupleRange::new(0, 10_000), false))
            .unwrap();
        let loads = drain_scan(&abm, a.id);
        assert_eq!(loads, 10, "every chunk loaded exactly once");
        assert!(abm.stats().evictions > 0, "small buffer forces evictions");
        assert!(abm.cached_bytes() <= 12 * PAGE);
    }

    #[test]
    fn in_order_scans_get_chunks_sequentially() {
        let (storage, table) = setup(5_000);
        let abm = abm(1 << 22);
        let handle = abm
            .register_cscan(request(&storage, table, TupleRange::new(0, 5_000), true))
            .unwrap();
        let mut seen = Vec::new();
        while !abm.is_finished(handle.id) {
            if let Some(d) = abm.get_chunk(handle.id).unwrap() {
                seen.push(d.chunk.raw());
            } else {
                let plan = abm.next_load(now()).expect("starved");
                abm.complete_load(&plan, now()).unwrap();
            }
        }
        let expected: Vec<u32> = (0..5).collect();
        assert_eq!(
            seen, expected,
            "in-order CScan must receive chunks in table order"
        );
    }

    #[test]
    fn snapshots_with_common_prefix_share_chunks() {
        let (storage, table) = setup(10_000);
        let layout = storage.layout(table).unwrap();
        let base = storage.master_snapshot(table).unwrap();

        // An append transaction commits, creating a second snapshot version.
        let mut tx = storage.begin_append(table).unwrap();
        tx.append_rows(&[vec![1; 3000], vec![2; 3000]]).unwrap();
        let appended = tx.commit().unwrap();
        assert_eq!(appended.stable_tuples(), 13_000);

        let abm = abm(1 << 22);
        let old_req = CScanRequest {
            table,
            snapshot: Arc::clone(&base),
            layout: Arc::clone(&layout),
            columns: vec![0, 1],
            ranges: RangeList::single(0, 10_000),
            in_order: false,
        };
        let new_req = CScanRequest {
            table,
            snapshot: Arc::clone(&appended),
            layout: Arc::clone(&layout),
            columns: vec![0, 1],
            ranges: RangeList::single(0, 13_000),
            in_order: false,
        };
        let _a = abm.register_cscan(old_req).unwrap();
        let _b = abm.register_cscan(new_req).unwrap();
        assert_eq!(
            abm.version_count(table),
            2,
            "different snapshots are different versions"
        );
        // 10,000 base tuples: the wide column has 256 tuples/page so the last
        // partial page is rewritten by the append; the shared prefix covers
        // all but the tail of the table.
        let prefix = abm.shared_prefix_chunks(table);
        assert!(
            prefix >= 9,
            "most of the table is shared, got {prefix} chunks"
        );
        assert!(prefix <= 10);
    }

    #[test]
    fn disjoint_snapshots_after_checkpoint_share_nothing() {
        let (storage, table) = setup(5_000);
        let layout = storage.layout(table).unwrap();
        let old = storage.master_snapshot(table).unwrap();
        let new = storage
            .install_checkpoint(table, old.id(), vec![vec![0; 5_000]; 2])
            .unwrap();

        let abm = abm(1 << 22);
        let req_old = CScanRequest {
            table,
            snapshot: old,
            layout: Arc::clone(&layout),
            columns: vec![0],
            ranges: RangeList::single(0, 5_000),
            in_order: false,
        };
        let req_new = CScanRequest {
            table,
            snapshot: new,
            layout,
            columns: vec![0],
            ranges: RangeList::single(0, 5_000),
            in_order: false,
        };
        let a = abm.register_cscan(req_old).unwrap();
        let _b = abm.register_cscan(req_new).unwrap();
        assert_eq!(abm.version_count(table), 2);
        assert_eq!(abm.shared_prefix_chunks(table), 0);

        // Unregistering the old scan destroys its version's metadata.
        abm.unregister_cscan(a.id).unwrap();
        assert_eq!(abm.version_count(table), 1);
    }

    #[test]
    fn same_snapshot_scans_reuse_the_version() {
        let (storage, table) = setup(3_000);
        let abm = abm(1 << 22);
        let a = abm
            .register_cscan(request(&storage, table, TupleRange::new(0, 3_000), false))
            .unwrap();
        let b = abm
            .register_cscan(request(&storage, table, TupleRange::new(0, 3_000), false))
            .unwrap();
        assert_eq!(abm.version_count(table), 1);
        abm.unregister_cscan(a.id).unwrap();
        assert_eq!(abm.version_count(table), 1);
        abm.unregister_cscan(b.id).unwrap();
        assert_eq!(abm.version_count(table), 0);
    }

    #[test]
    fn starved_short_query_is_served_before_long_query() {
        let (storage, table) = setup(10_000);
        let abm = abm(1 << 22);
        let long = abm
            .register_cscan(request(&storage, table, TupleRange::new(0, 10_000), false))
            .unwrap();
        let short = abm
            .register_cscan(request(
                &storage,
                table,
                TupleRange::new(9_000, 10_000),
                false,
            ))
            .unwrap();
        // Both are starved; the shorter query (1 chunk) wins QueryRelevance.
        let plan = abm.next_load(now()).unwrap();
        assert_eq!(plan.scan, short.id);
        abm.complete_load(&plan, now()).unwrap();
        // The loaded chunk is also the one the long scan will reuse later.
        assert!(abm.chunk_is_cached(long.id, plan.chunk));
    }

    #[test]
    fn unknown_scan_operations_error() {
        let abm = abm(1 << 20);
        assert!(abm.get_chunk(ScanId::new(99)).is_err());
        assert!(abm.unregister_cscan(ScanId::new(99)).is_err());
        assert!(abm.is_finished(ScanId::new(99)));
        assert_eq!(abm.remaining_chunks(ScanId::new(99)), 0);
        assert!(!abm.has_cached_chunk(ScanId::new(99)));
    }

    #[test]
    fn loads_in_flight_survive_their_scan_unregistering() {
        // A load planned for one scan may still be in flight in the
        // scheduler when that scan aborts. Completing it must neither error
        // nor leave the chunk stuck mid-load: survivors of the same
        // version get the chunk, and the transferred bytes stay accounted.
        let (storage, table) = setup(5_000);
        let abm = abm(1 << 22);
        let a = abm
            .register_cscan(request(&storage, table, TupleRange::new(0, 5_000), false))
            .unwrap();
        let b = abm
            .register_cscan(request(&storage, table, TupleRange::new(0, 5_000), false))
            .unwrap();
        let plan = abm.next_load(now()).unwrap();
        abm.unregister_cscan(plan.scan).unwrap();
        abm.complete_load(&plan, now()).unwrap();
        let survivor = if plan.scan == a.id { b.id } else { a.id };
        assert!(
            abm.chunk_is_cached(survivor, plan.chunk),
            "the completed load must serve the surviving scan"
        );
        assert_eq!(abm.get_chunk(survivor).unwrap().unwrap().chunk, plan.chunk);
        assert_eq!(abm.stats().io_bytes, plan.bytes);

        // When even the last scan of the version is gone, a straggler
        // completion only accounts its I/O (nothing is left to cache).
        let plan2 = abm.next_load(now()).unwrap();
        abm.unregister_cscan(plan2.scan).unwrap();
        abm.complete_load(&plan2, now()).unwrap();
        assert_eq!(abm.version_count(table), 0);
        assert_eq!(abm.stats().io_bytes, plan.bytes + plan2.bytes);
        assert_eq!(abm.cached_bytes(), 0);
    }
}
