//! Cooperative Scans: the Active Buffer Manager (ABM).
//!
//! Under Cooperative Scans the buffer manager stops being a passive cache:
//! CScan operators register their data interest up front
//! ([`Abm::register_cscan`]), repeatedly ask for whatever chunk is best to
//! process next ([`Abm::get_chunk`]) and unregister when done. The ABM
//! decides *which chunk to load next, for whom, what to hand out and what
//! to evict* using the four relevance functions of Section 2 of the paper.
//! It works at **chunk** granularity and is snapshot-aware: scans on
//! different snapshots of the same table share the longest common prefix of
//! their page arrays, and chunks inside that prefix are marked shared (worth
//! loading early and keeping).
//!
//! # One lock
//!
//! This module is the one place that knows the Cooperative Scans state:
//! per-scan progress, the per-version chunk table (residency, interested
//! scans, pages) and the chunk load in flight, all behind **one lock**.
//! Every operation, delivery included, applies its effects immediately, so
//! decisions are byte-identical to the frozen monolithic original kept as
//! the executable spec in `tests/abm_reference` (`tests/abm_equivalence.rs`
//! asserts this over randomized traces). The four relevance functions are
//! the keys of the one `sort`, `max_by` or `min_by_key` that applies each:
//!
//! * *QueryRelevance* ([`Abm::next_load`]): starved scans first, then those
//!   with the fewest chunks left, then the lowest scan id;
//! * *LoadRelevance*: the number of scans still interested in a chunk, plus
//!   `SHARED_CHUNK_BONUS` inside the shared snapshot prefix; the lowest
//!   chunk id breaks ties, for sequential locality;
//! * *KeepRelevance*: scored exactly like LoadRelevance — a cached chunk is
//!   evicted only for a load candidate it scores below;
//! * *UseRelevance*: deliver the cached chunk the fewest scans still need
//!   (it becomes evictable soonest), the lowest id among equals.
//!
//! The chunk loader works on the same state: [`ScanBackend::pump_loads`]
//! (`CScanBackend`'s step) and direct callers of [`Abm::next_load`] /
//! [`Abm::complete_load`] plan through the same core, so a caller drives one
//! or the other, never both.
//!
//! [`ScanBackend::pump_loads`]: crate::backend::ScanBackend::pump_loads
//!
//! # Indexed state
//!
//! A decision reads an index instead of walking a scan's chunks:
//!
//! * a table version's chunk table is a `Vec` indexed by [`ChunkId`], and a
//!   scan keeps the tuples it needs per chunk id, plus how many chunks
//!   remain;
//! * a scan keeps `available`, the chunks it still needs that are cached:
//!   UseRelevance is the minimum over it, and an unordered scan is starved
//!   exactly when it is empty;
//! * a table's versions sit in a `BTreeMap` under a stable id that follows
//!   registration order, so dropping a version renumbers nothing and
//!   `make_room`'s tie-break by version is registration order; a scan names
//!   its version by that id, and a version counts its scans;
//! * the shared prefix is recomputed only for the table whose scans
//!   changed, comparing the versions' own snapshots once per version and
//!   per pair of versions (the scans of one version read the same pages),
//!   and a chunk is shared iff its id lies below it;
//! * a version holds one [`ChunkMap`] per column set, shared by its scans
//!   and dropped with it;
//! * the id-keyed maps hash with [`IdHasher`](scanshare_common::hash::IdHasher).

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::sync::Arc;

use scanshare_common::hash::IdHashMap;
use scanshare_common::sync::Mutex;
use scanshare_common::{ChunkId, Error, PageId, Result, ScanId, TableId, VirtualInstant};
use scanshare_iosim::{BlockDevice, IoKind, ReadSpec};
use scanshare_storage::layout::{ChunkMap, TableLayout};
use scanshare_storage::snapshot::Snapshot;

use crate::backend::{ScanRequest, ScanStep};
use crate::metrics::BufferStats;

/// Extra LoadRelevance and KeepRelevance of a shared chunk: half an
/// interested scan. Relevance is otherwise a whole number of scans, so every
/// bonus strictly between 0 and 1 makes the same decisions: the bonus breaks
/// ties between chunks the same number of scans want.
const SHARED_CHUNK_BONUS: f64 = 0.5;

/// LoadRelevance and KeepRelevance of a chunk `interested` scans still need:
/// shared chunks (inside a snapshot prefix at least two scans read) are
/// worth loading early and keeping.
fn relevance(interested: usize, shared: bool) -> f64 {
    interested as f64 + if shared { SHARED_CHUNK_BONUS } else { 0.0 }
}

/// The buffer the Active Buffer Manager manages.
#[derive(Debug, Clone, PartialEq)]
pub struct AbmConfig {
    /// Capacity of the buffer pool managed by ABM, in bytes.
    pub buffer_capacity_bytes: u64,
    /// Page size in bytes (uniform).
    pub page_size_bytes: u64,
}

impl AbmConfig {
    /// Creates a configuration for the given pool capacity and page size.
    pub fn new(buffer_capacity_bytes: u64, page_size_bytes: u64) -> Self {
        Self {
            buffer_capacity_bytes,
            page_size_bytes,
        }
    }
}

/// A request to register a CScan with the ABM: the one [`ScanRequest`]
/// every backend registers with, under the name the paper's `RegisterCScan`
/// callers use.
pub type CScanRequest = ScanRequest;

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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Residency {
    #[default]
    Empty,
    Loading,
    Cached,
}

#[derive(Debug, Default)]
struct CoreChunk {
    /// The chunk's pages, sorted: those its load in flight brings in while
    /// `Loading`, those it holds in the buffer while `Cached` (the union
    /// over the interested scans' column sets), none while `Empty`. Pages on
    /// chunk boundaries may also be held by the neighbouring chunk;
    /// table-level reference counts track real residency.
    pages: Vec<PageId>,
    /// Scans that still need to consume this chunk; its length is the
    /// usefulness count behind Use/Load/KeepRelevance.
    interested: Vec<ScanId>,
    residency: Residency,
}

#[derive(Debug)]
struct VersionState {
    snapshot: Arc<Snapshot>,
    layout: Arc<TableLayout>,
    /// The chunk table, indexed by chunk id.
    chunks: Vec<CoreChunk>,
    /// Number of scans registered on this version.
    scans: usize,
    /// One chunk map per column set read on this version, shared by the
    /// scans that read it.
    chunk_maps: Vec<(Vec<usize>, Arc<ChunkMap>)>,
}

impl VersionState {
    /// The chunk map of `columns` on this version, built on first use.
    fn chunk_map(&mut self, columns: &[usize]) -> Arc<ChunkMap> {
        if let Some((_, map)) = self.chunk_maps.iter().find(|(cols, _)| cols == columns) {
            return Arc::clone(map);
        }
        let map = Arc::new(self.layout.chunk_map(&self.snapshot, columns));
        self.chunk_maps.push((columns.to_vec(), Arc::clone(&map)));
        map
    }
}

/// The ABM's state of one table: its registered versions.
#[derive(Debug, Default)]
struct TableChunks {
    /// The registered versions by id; ids follow registration order.
    versions: BTreeMap<u64, VersionState>,
    /// The id the next new version gets.
    next_version: u64,
    /// Number of leading chunks shared by at least two registered scans.
    shared_prefix_chunks: u32,
}

impl TableChunks {
    /// Whether `chunk` lies inside the shared snapshot prefix.
    fn is_shared(&self, chunk: ChunkId) -> bool {
        chunk.raw() < self.shared_prefix_chunks
    }

    /// Recomputes the longest prefix (in chunks) shared by at least two
    /// registered CScans. The scans of one version read the same pages, so
    /// a version with two scans shares its whole snapshot, and two versions
    /// share their snapshots' common prefix: one comparison per version and
    /// per pair of versions, not per pair of scans.
    fn recompute_shared_prefix(&mut self) {
        let mut best_tuples = 0u64;
        for (i, a) in self.versions.values().enumerate() {
            let shared = |b: &VersionState| a.snapshot.shared_prefix_tuples(&b.snapshot, &a.layout);
            if a.scans >= 2 {
                best_tuples = best_tuples.max(shared(a));
            }
            for b in self.versions.values().skip(i + 1) {
                best_tuples = best_tuples.max(shared(b));
            }
        }
        let chunk_tuples = self
            .versions
            .values()
            .next()
            .map_or(1, |v| v.layout.chunk_tuples());
        self.shared_prefix_chunks = (best_tuples / chunk_tuples.max(1)) as u32;
    }
}

/// Drops one reference to each of `pages`, returning the bytes of those no
/// cached chunk holds any more.
fn release(resident: &mut IdHashMap<PageId, usize>, pages: &[PageId], page_size: u64) -> u64 {
    let mut freed = 0;
    for page in pages {
        if let Some(count) = resident.get_mut(page) {
            *count -= 1;
            if *count == 0 {
                resident.remove(page);
                freed += page_size;
            }
        }
    }
    freed
}

#[derive(Debug)]
struct CoreScan {
    request: CScanRequest,
    chunk_map: Arc<ChunkMap>,
    /// The id of the table version the scan reads.
    version: u64,
    /// Per chunk id, the tuples still needed from the chunk (0 once it is
    /// delivered, or when it lies outside the scan's ranges).
    needed: Vec<u64>,
    /// Number of chunks not yet delivered.
    remaining: usize,
    /// The still-needed chunks that are cached. A cached chunk that is the
    /// *only* available chunk of some scan must not be evicted before that
    /// scan consumes it (otherwise two starved scans can keep evicting each
    /// other's freshly loaded chunks forever).
    available: Vec<ChunkId>,
}

impl CoreScan {
    /// The chunks not yet delivered, in table order.
    fn pending(&self) -> impl Iterator<Item = ChunkId> + '_ {
        (0u32..)
            .zip(&self.needed)
            .filter(|&(_, &tuples)| tuples > 0)
            .map(|(chunk, _)| ChunkId::new(chunk))
    }

    /// Removes `chunk` from the available set (it was delivered or evicted).
    fn forget_available(&mut self, chunk: ChunkId) {
        if let Some(pos) = self.available.iter().position(|&c| c == chunk) {
            self.available.swap_remove(pos);
        }
    }
}

#[derive(Debug, Default)]
struct AbmState {
    scans: IdHashMap<ScanId, CoreScan>,
    tables: IdHashMap<TableId, TableChunks>,
    /// Reference counts of resident pages: how many cached chunks (across
    /// versions and tables) currently hold each page. Pages referenced by
    /// several snapshots or by adjacent chunks are counted once for I/O
    /// purposes. One map serves every table: a `Storage` allocates each
    /// page id once, so tables never share one.
    resident_pages: IdHashMap<PageId, usize>,
    stats: BufferStats,
    next_scan: u64,
    /// The chunk load [`Abm::pump_loads`] left in flight, with its
    /// completion instant.
    inflight: Option<(LoadPlan, VirtualInstant)>,
}

impl AbmState {
    /// Bytes the cached chunks hold: every resident page once.
    fn resident_bytes(&self, config: &AbmConfig) -> u64 {
        self.resident_pages.len() as u64 * config.page_size_bytes
    }

    /// The chunk table of the version `scan` reads.
    fn version_of(&self, scan: &CoreScan) -> Option<&VersionState> {
        self.tables
            .get(&scan.request.table)
            .and_then(|t| t.versions.get(&scan.version))
    }

    /// The state of `chunk` in the version `scan` reads.
    fn chunk_of(&self, scan: ScanId, chunk: ChunkId) -> Option<&CoreChunk> {
        self.version_of(self.scans.get(&scan)?)?
            .chunks
            .get(chunk.index())
    }

    /// UseRelevance: the cached chunk `scan` should process next — the
    /// available chunk the fewest scans still need, the lowest id among
    /// equals; for in-order scans only the next sequential chunk qualifies.
    fn cached_candidate(&self, scan: &CoreScan) -> Option<ChunkId> {
        let version = self.version_of(scan)?;
        if scan.request.in_order {
            let next = scan.pending().next()?;
            return (version.chunks[next.index()].residency == Residency::Cached).then_some(next);
        }
        scan.available
            .iter()
            .copied()
            .min_by_key(|&chunk| (version.chunks[chunk.index()].interested.len(), chunk))
    }

    /// Whether `scan` has no cached chunk to process right now.
    fn starved(&self, scan: &CoreScan) -> bool {
        if scan.request.in_order {
            self.cached_candidate(scan).is_none()
        } else {
            scan.available.is_empty()
        }
    }

    /// Chooses the next chunk to load: the most relevant query
    /// (QueryRelevance: starved queries first, as they have no cached chunk
    /// to process, then those with the fewest chunks left, then the lowest
    /// id), then its most relevant chunk (LoadRelevance). Evicts
    /// low-KeepRelevance chunks to make room; returns `None` when nothing
    /// should or can be loaded.
    fn next_load(&mut self, config: &AbmConfig) -> Option<LoadPlan> {
        let mut candidates: Vec<_> = self
            .scans
            .iter()
            .filter(|(_, scan)| scan.remaining > 0)
            .map(|(&id, scan)| (Reverse(self.starved(scan)), scan.remaining, id))
            .collect();
        candidates.sort_unstable();
        candidates
            .into_iter()
            .find_map(|(_, _, scan)| self.plan_load_for(scan, config))
    }

    fn plan_load_for(&mut self, scan_id: ScanId, config: &AbmConfig) -> Option<LoadPlan> {
        let state = self.scans.get(&scan_id)?;
        let table = state.request.table;
        let version_id = state.version;
        let table_state = self.tables.get(&table)?;
        let version = table_state.versions.get(&version_id)?;

        // Candidate chunks: not cached, not loading; an in-order scan may
        // load only its next chunk. LoadRelevance, scored once per
        // candidate: most interested scans (shared bonus), then lowest id
        // to preserve some sequential locality.
        let window = if state.request.in_order {
            1
        } else {
            usize::MAX
        };
        let (best_chunk, load_relevance) = state
            .pending()
            .take(window)
            .filter(|c| version.chunks[c.index()].residency == Residency::Empty)
            .map(|c| {
                let interested = version.chunks[c.index()].interested.len();
                (c, relevance(interested, table_state.is_shared(c)))
            })
            .max_by(|(a, ra), (b, rb)| ra.total_cmp(rb).then(b.cmp(a)))?;

        // Pages to load: union of the pages every interested scan (the
        // requesting one among them) needs for this chunk, minus what is
        // already resident in the buffer (pages on chunk boundaries or
        // shared between snapshot versions are not read twice).
        let mut pages: Vec<PageId> = Vec::new();
        for interested in &version.chunks[best_chunk.index()].interested {
            if let Some(other) = self.scans.get(interested) {
                pages.extend_from_slice(other.chunk_map.pages(best_chunk));
            }
        }
        pages.sort_unstable();
        pages.dedup();
        let new_pages: Vec<PageId> = pages
            .iter()
            .copied()
            .filter(|p| !self.resident_pages.contains_key(p))
            .collect();
        let bytes = new_pages.len() as u64 * config.page_size_bytes;

        // Make room, evicting chunks whose KeepRelevance is lower than the
        // candidate's LoadRelevance (forced if the requesting scan is
        // starved).
        let starved = self.starved(state);
        if !self.make_room(
            bytes,
            load_relevance,
            starved,
            (table, version_id, best_chunk),
            config,
        ) {
            return None;
        }

        // Mark loading.
        let chunk_state = self
            .tables
            .get_mut(&table)
            .and_then(|t| t.versions.get_mut(&version_id))
            .and_then(|v| v.chunks.get_mut(best_chunk.index()))?;
        chunk_state.residency = Residency::Loading;
        chunk_state.pages = pages;

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
        skip: (TableId, u64, ChunkId),
        config: &AbmConfig,
    ) -> bool {
        while self.resident_bytes(config) + bytes > config.buffer_capacity_bytes {
            // Find the cached, unprotected chunk with the lowest
            // KeepRelevance; ties are broken by (table, version, chunk) so
            // the decision is deterministic.
            let mut victim: Option<(f64, TableId, u64, ChunkId)> = None;
            for (&table, table_state) in &self.tables {
                for (&vid, version) in &table_state.versions {
                    for (idx, chunk_state) in version.chunks.iter().enumerate() {
                        let chunk = ChunkId::new(idx as u32);
                        if chunk_state.residency != Residency::Cached
                            || (table, vid, chunk) == skip
                            || self.is_protected(chunk_state)
                        {
                            continue;
                        }
                        let keep =
                            relevance(chunk_state.interested.len(), table_state.is_shared(chunk));
                        let candidate = (keep, table, vid, chunk);
                        let better = match victim {
                            None => true,
                            Some(best) => candidate < best,
                        };
                        if better {
                            victim = Some(candidate);
                        }
                    }
                }
            }
            let Some((keep, table, vid, chunk)) = victim else {
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
            let freed = self.evict_chunk(table, vid, chunk, config);
            self.stats.evictions += freed / config.page_size_bytes;
        }
        true
    }

    /// A cached chunk is protected from eviction while it is the *only*
    /// cached chunk of some scan that still needs it: evicting it would put
    /// that scan right back to being starved, which (with several starved
    /// scans and a small pool) can livelock the ABM.
    fn is_protected(&self, chunk_state: &CoreChunk) -> bool {
        chunk_state
            .interested
            .iter()
            .any(|scan| self.scans.get(scan).is_some_and(|s| s.available.len() <= 1))
    }

    /// Drops a cached chunk, releasing the pages no other cached chunk
    /// still holds. Returns the number of bytes actually freed.
    fn evict_chunk(
        &mut self,
        table: TableId,
        version: u64,
        chunk: ChunkId,
        config: &AbmConfig,
    ) -> u64 {
        let Some(chunk_state) = self
            .tables
            .get_mut(&table)
            .and_then(|t| t.versions.get_mut(&version))
            .and_then(|v| v.chunks.get_mut(chunk.index()))
            .filter(|c| c.residency == Residency::Cached)
        else {
            return 0;
        };
        chunk_state.residency = Residency::Empty;
        let pages = std::mem::take(&mut chunk_state.pages);
        let freed = release(&mut self.resident_pages, &pages, config.page_size_bytes);
        for scan_id in &chunk_state.interested {
            if let Some(scan) = self.scans.get_mut(scan_id) {
                scan.forget_available(chunk);
            }
        }
        freed
    }

    /// Marks a chunk load as finished and counts its transfer. The chunk's
    /// pages now occupy buffer space; pages that were already resident
    /// (chunk boundaries, shared snapshot prefixes) are reference-counted
    /// rather than duplicated.
    fn complete_load(&mut self, plan: &LoadPlan) {
        self.stats.misses += 1;
        self.stats.pages_loaded += plan.pages.len() as u64;
        self.stats.io_bytes += plan.bytes;
        // The chunk mid-load in the planning scan's version. A scan may
        // unregister (mid-flight abort, a dropped operator) while its load is
        // in flight; the transfer still happened, so fall back to whichever
        // version of the table has the chunk mid-load — the load completes
        // for the surviving interested scans instead of poisoning the
        // pipeline. (The frozen `MonolithicAbm` errors here instead; its
        // synchronous callers completed every load before the scan could go
        // away.)
        let planner = self.scans.get(&plan.scan).map(|scan| scan.version);
        let Some(table_state) = self.tables.get_mut(&plan.table) else {
            return;
        };
        let loading = table_state
            .versions
            .iter_mut()
            .filter(|(&id, _)| planner.map_or(true, |planner| planner == id))
            .find_map(|(_, version)| {
                version
                    .chunks
                    .get_mut(plan.chunk.index())
                    .filter(|c| c.residency == Residency::Loading)
            });
        // Otherwise only the bytes count: the scan and its whole version are
        // gone (nothing is left to cache), or the chunk is not mid-load (a
        // straggler raced this completion), where re-applying the side
        // effects would add the chunk to `available` twice and silently
        // defeat the is_protected anti-livelock rule.
        let Some(chunk_state) = loading else {
            return;
        };
        chunk_state.residency = Residency::Cached;
        for &page in &chunk_state.pages {
            *self.resident_pages.entry(page).or_insert(0) += 1;
        }
        // The chunk is now available to every scan that still needs it.
        for scan_id in &chunk_state.interested {
            if let Some(scan) = self.scans.get_mut(scan_id) {
                scan.available.push(plan.chunk);
            }
        }
    }

    /// UseRelevance's choice for `scan`, consumed (`GetChunk`); `None` when
    /// nothing it needs is cached or it already received everything.
    fn get_chunk(&mut self, scan: ScanId) -> Result<Option<ChunkDelivery>> {
        let scan_state = self.scans.get(&scan).ok_or(Error::UnknownScan(scan))?;
        let Some(chunk) = self.cached_candidate(scan_state) else {
            return Ok(None);
        };
        let scan_state = self.scans.get_mut(&scan).expect("checked above");
        let tuples = std::mem::take(&mut scan_state.needed[chunk.index()]);
        scan_state.remaining -= 1;
        scan_state.forget_available(chunk);
        let (table, version) = (scan_state.request.table, scan_state.version);
        self.stats.hits += 1;
        if let Some(chunk_state) = self
            .tables
            .get_mut(&table)
            .and_then(|t| t.versions.get_mut(&version))
            .and_then(|v| v.chunks.get_mut(chunk.index()))
        {
            chunk_state.interested.retain(|&s| s != scan);
        }
        Ok(Some(ChunkDelivery { chunk, tuples }))
    }
}

// ---------------------------------------------------------------------------
// The facade
// ---------------------------------------------------------------------------

/// The Active Buffer Manager: every Cooperative Scans fact, the load in
/// flight included, behind one lock. All methods take `&self`: one `Abm` is
/// shared by every CScan stream of an engine without an outer lock. A load
/// runs in two halves, [`Abm::next_load`] and [`Abm::complete_load`], with
/// the transfer between them. Callers run those halves themselves, or leave
/// them to the loader step that
/// [`CScanBackend`](crate::backend::CScanBackend) runs, never both: the two
/// plan through the same core.
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
            state: Mutex::new(AbmState::default()),
            config,
        }
    }

    /// Accumulated statistics (`io_bytes` is the total I/O volume).
    pub fn stats(&self) -> BufferStats {
        self.state.lock().stats
    }

    /// Bytes currently cached.
    pub fn cached_bytes(&self) -> u64 {
        self.state.lock().resident_bytes(&self.config)
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
        // Pure derivation first: the needed chunks depend only on the
        // request.
        let stable = request.snapshot.stable_tuples();
        let chunk_count = request.layout.chunk_count(stable) as usize;
        let chunk_ids = request.layout.chunks_for_ranges(&request.ranges, stable);
        let mut needed = vec![0; chunk_count];
        for &chunk in &chunk_ids {
            let chunk_range = request.layout.chunk_sid_range(chunk, stable);
            needed[chunk.index()] = request.ranges.intersect_range(&chunk_range).total_tuples();
        }

        let mut guard = self.state.lock();
        let state = &mut *guard;
        let id = ScanId::new(state.next_scan);
        state.next_scan += 1;
        // The id is consumed even for an empty registration, exactly as the
        // monolithic ABM allocated it before validating.
        if chunk_ids.is_empty() {
            return Err(Error::plan("CScan covers no chunks"));
        }

        // Find or create the table version this snapshot belongs to
        // (checkpoint cases (i), (ii) and (iv) of Section 2.1).
        let table = request.table;
        let table_state = state.tables.entry(table).or_default();
        let existing = table_state
            .versions
            .iter()
            .find(|(_, v)| v.snapshot.same_pages(&request.snapshot));
        let version = match existing {
            Some((&id, _)) => id,
            None => {
                let id = table_state.next_version;
                table_state.next_version += 1;
                table_state.versions.insert(
                    id,
                    VersionState {
                        snapshot: Arc::clone(&request.snapshot),
                        layout: Arc::clone(&request.layout),
                        chunks: Vec::new(),
                        scans: 0,
                        chunk_maps: Vec::new(),
                    },
                );
                id
            }
        };
        let version_state = table_state
            .versions
            .get_mut(&version)
            .expect("found or inserted above");
        if version_state.chunks.len() < chunk_count {
            version_state
                .chunks
                .resize_with(chunk_count, CoreChunk::default);
        }
        version_state.scans += 1;
        let chunk_map = version_state.chunk_map(&request.columns);
        // Some of the requested chunks may already be cached (loaded for
        // other scans or by a previous query on the same table version).
        let mut scan = CoreScan {
            request,
            chunk_map,
            version,
            needed,
            remaining: 0,
            available: Vec::new(),
        };
        for chunk in scan.pending().collect::<Vec<_>>() {
            let chunk_state = &mut version_state.chunks[chunk.index()];
            chunk_state.interested.push(id);
            if chunk_state.residency == Residency::Cached {
                scan.available.push(chunk);
            }
            scan.remaining += 1;
        }
        let handle = CScanHandle {
            id,
            total_chunks: scan.remaining,
            total_tuples: scan.needed.iter().sum(),
        };
        state.scans.insert(id, scan);
        table_state.recompute_shared_prefix();
        Ok(handle)
    }

    /// Unregisters a finished (or aborted) CScan (`UnregisterCScan`). Chunk
    /// metadata of a table version that no longer has any registered scan
    /// is destroyed, as described for PDT checkpoints.
    pub fn unregister_cscan(&self, scan: ScanId) -> Result<()> {
        let mut guard = self.state.lock();
        let state = &mut *guard;
        let removed = state.scans.remove(&scan).ok_or(Error::UnknownScan(scan))?;
        let table = removed.request.table;
        if let Some(table_state) = state.tables.get_mut(&table) {
            if let Some(version) = table_state.versions.get_mut(&removed.version) {
                version.scans -= 1;
                for chunk in removed.pending() {
                    version.chunks[chunk.index()]
                        .interested
                        .retain(|&s| s != scan);
                }
                if version.scans == 0 {
                    // Drop the version, releasing its cached bytes via the
                    // page reference counts.
                    let dropped = table_state.versions.remove(&removed.version);
                    let dropped = dropped.expect("the version was just updated");
                    let page_size = self.config.page_size_bytes;
                    for chunk in &dropped.chunks {
                        if chunk.residency == Residency::Cached {
                            release(&mut state.resident_pages, &chunk.pages, page_size);
                        }
                    }
                }
            }
            if table_state.versions.is_empty() {
                state.tables.remove(&table);
            } else {
                table_state.recompute_shared_prefix();
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Scheduling
    // ------------------------------------------------------------------

    /// Chooses the next chunk to load (the
    /// QueryRelevance → LoadRelevance → KeepRelevance pipeline) and marks it
    /// loading. This is the loader step's planner: a caller that plans here
    /// performs the transfer and calls [`Abm::complete_load`] itself, and
    /// does not also run [`ScanBackend::pump_loads`] on a backend over this
    /// ABM.
    ///
    /// [`ScanBackend::pump_loads`]: crate::backend::ScanBackend::pump_loads
    pub fn next_load(&self, _now: VirtualInstant) -> Option<LoadPlan> {
        self.state.lock().next_load(&self.config)
    }

    /// Marks a chunk load as finished (the caller performed the actual
    /// transfer) and counts its bytes.
    pub fn complete_load(&self, plan: &LoadPlan, _now: VirtualInstant) -> Result<()> {
        self.state.lock().complete_load(plan);
        Ok(())
    }

    /// The chunk loader's one step at `now` (see
    /// [`ScanBackend::pump_loads`]), charging each load to `device`, one load
    /// in flight at a time (the paper's model). The read is submitted under
    /// the ABM's lock, so one step is atomic across threads. A plan whose
    /// pages are all resident already (chunk boundaries, shared snapshot
    /// prefixes) is submitted like any other: its zero-byte request pays the
    /// device's fixed latency, as the simulator has always modelled it.
    ///
    /// [`ScanBackend::pump_loads`]: crate::backend::ScanBackend::pump_loads
    pub(crate) fn pump_loads(
        &self,
        now: VirtualInstant,
        device: &dyn BlockDevice,
    ) -> Result<Option<VirtualInstant>> {
        let mut state = self.state.lock();
        let mut at = now;
        loop {
            match state.inflight.take() {
                Some((plan, done_at)) if done_at > now => {
                    state.inflight = Some((plan, done_at));
                    return Ok(Some(done_at));
                }
                Some((plan, done_at)) => {
                    state.complete_load(&plan);
                    at = done_at;
                }
                None => {}
            }
            let Some(plan) = state.next_load(&self.config) else {
                return Ok(None);
            };
            let spec = ReadSpec {
                bytes: plan.bytes,
                pages: plan.pages.len() as u64,
                kind: IoKind::Demand,
                targets: &plan.pages,
            };
            match device.submit_read(at, spec) {
                Ok(completion) => state.inflight = Some((plan, completion.done_at)),
                Err(err) => {
                    // The plan is already claimed: complete it anyway so the
                    // chunk pipeline cannot wedge (correctness never depends
                    // on the device — storage reads fall back to a
                    // synchronous path), then surface the device fault to the
                    // pumping stream.
                    state.complete_load(&plan);
                    return Err(err);
                }
            }
        }
    }

    /// Hands the best cached chunk to `scan` (`GetChunk`). Returns `None`
    /// if nothing it needs is cached (the scan should block) or if it
    /// already received everything.
    pub fn get_chunk(&self, scan: ScanId) -> Result<Option<ChunkDelivery>> {
        self.state.lock().get_chunk(scan)
    }

    /// A CScan's probe under one acquisition of the ABM's lock: `GetChunk`,
    /// with the delivered chunk's SID range computed from the registered
    /// request, or whether the scan is finished or starved.
    pub(crate) fn next_chunk(&self, scan: ScanId) -> Result<ScanStep> {
        let mut state = self.state.lock();
        let delivery = state.get_chunk(scan)?;
        let scan_state = &state.scans[&scan];
        Ok(match delivery {
            Some(delivery) => {
                let request = &scan_state.request;
                let stable = request.snapshot.stable_tuples();
                ScanStep::Deliver(request.layout.chunk_sid_range(delivery.chunk, stable))
            }
            None if scan_state.remaining == 0 => ScanStep::Finished,
            None => ScanStep::Starved,
        })
    }

    /// Whether a chunk is currently cached and available for `scan` (a
    /// non-consuming variant of [`Abm::get_chunk`]).
    pub fn has_cached_chunk(&self, scan: ScanId) -> bool {
        let state = self.state.lock();
        state.scans.get(&scan).is_some_and(|s| !state.starved(s))
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
            .map(|s| s.remaining)
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
    use scanshare_common::{RangeList, TupleRange};
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
    fn equal_load_relevance_loads_the_lowest_chunk_first() {
        let (storage, table) = setup(10_000);
        let abm = abm(1 << 22);
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
        // Chunks 5..10 are wanted by both scans: the lowest of them first.
        assert_eq!(abm.plan_load_for(a.id).unwrap().chunk, ChunkId::new(5));
        // A lone scan wants every chunk equally: table order.
        let (storage, table) = setup(3_000);
        let lone = self::abm(1 << 22);
        lone.register_cscan(request(&storage, table, TupleRange::new(0, 3_000), false))
            .unwrap();
        let loaded: Vec<u32> = std::iter::from_fn(|| lone.next_load(now()))
            .map(|plan| plan.chunk.raw())
            .collect();
        assert_eq!(loaded, [0, 1, 2]);
    }

    #[test]
    fn use_relevance_delivers_the_least_wanted_then_the_lowest_chunk() {
        let (storage, table) = setup(3_000);
        let abm = abm(1 << 22);
        let a = abm
            .register_cscan(request(&storage, table, TupleRange::new(0, 3_000), false))
            .unwrap();
        let b = abm
            .register_cscan(request(
                &storage,
                table,
                TupleRange::new(2_000, 3_000),
                false,
            ))
            .unwrap();
        // The one-chunk scan loads (and consumes) chunk 2 first; then chunks
        // 0 and 1 load behind it, so `a` holds them in the order 2, 0, 1.
        let plan = abm.next_load(now()).unwrap();
        assert_eq!((plan.scan, plan.chunk), (b.id, ChunkId::new(2)));
        abm.complete_load(&plan, now()).unwrap();
        assert_eq!(abm.get_chunk(b.id).unwrap().unwrap().chunk.raw(), 2);
        for _ in 0..2 {
            let plan = abm.next_load(now()).unwrap();
            abm.complete_load(&plan, now()).unwrap();
        }
        assert_eq!(abm.state.lock().scans[&a.id].available.len(), 3);
        // One interested scan each: the lowest id first.
        let delivered: Vec<u32> = std::iter::from_fn(|| abm.get_chunk(a.id).unwrap())
            .map(|d| d.chunk.raw())
            .collect();
        assert_eq!(delivered, [0, 1, 2]);

        // Chunk 0 is wanted by two scans and chunk 1 by one: chunk 1 first.
        let (storage, table) = setup(2_000);
        let shared = self::abm(1 << 22);
        let a = shared
            .register_cscan(request(&storage, table, TupleRange::new(0, 2_000), false))
            .unwrap();
        shared
            .register_cscan(request(&storage, table, TupleRange::new(0, 1_000), false))
            .unwrap();
        for _ in 0..2 {
            let plan = shared.next_load(now()).unwrap();
            shared.complete_load(&plan, now()).unwrap();
        }
        assert_eq!(shared.get_chunk(a.id).unwrap().unwrap().chunk.raw(), 1);
    }

    #[test]
    fn query_relevance_ranks_starved_then_fewest_left_then_lowest_id() {
        let (storage, table) = setup(10_000);
        let abm = abm(1 << 22);
        let long = abm
            .register_cscan(request(&storage, table, TupleRange::new(0, 5_000), false))
            .unwrap();
        let short = abm
            .register_cscan(request(
                &storage,
                table,
                TupleRange::new(8_000, 10_000),
                false,
            ))
            .unwrap();
        // Both starved: the scan with fewer chunks left.
        let plan = abm.next_load(now()).unwrap();
        assert_eq!(plan.scan, short.id);
        abm.complete_load(&plan, now()).unwrap();
        // `short` holds a cached chunk now: the starved scan comes first,
        // although it has more chunks left.
        assert_eq!(abm.next_load(now()).unwrap().scan, long.id);

        // Equal in both: the lowest scan id.
        let (storage, table) = setup(2_000);
        let twins = self::abm(1 << 22);
        let ids: Vec<ScanId> = (0..2)
            .map(|_| {
                let request = request(&storage, table, TupleRange::new(0, 2_000), false);
                twins.register_cscan(request).unwrap().id
            })
            .collect();
        assert_eq!(twins.next_load(now()).unwrap().scan, ids[0]);
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
    fn available_holds_exactly_the_cached_chunks_a_scan_still_needs() {
        let (storage, table) = setup(3_000);
        let abm = abm(1 << 22);
        let scan = abm
            .register_cscan(request(&storage, table, TupleRange::new(0, 3_000), false))
            .unwrap()
            .id;
        let first = abm.next_load(now()).unwrap();
        abm.complete_load(&first, now()).unwrap();
        {
            let mut state = abm.state.lock();
            assert_eq!(state.scans[&scan].available, [first.chunk]);
            let chunk = state.chunk_of(scan, first.chunk).unwrap();
            assert!(
                state.is_protected(chunk),
                "a scan's only available chunk is protected"
            );
            // Evicting the scan's last cached chunk starves it.
            state.evict_chunk(table, 0, first.chunk, &abm.config);
            assert!(state.starved(&state.scans[&scan]));
        }
        assert!(!abm.has_cached_chunk(scan));

        for _ in 0..2 {
            let plan = abm.next_load(now()).unwrap();
            abm.complete_load(&plan, now()).unwrap();
        }
        {
            let state = abm.state.lock();
            let available = &state.scans[&scan].available;
            assert_eq!(available.len(), 2);
            for &chunk in available {
                assert!(!state.is_protected(state.chunk_of(scan, chunk).unwrap()));
            }
        }
        // A delivery consumes its chunk, which leaves the other one the
        // scan's only available chunk.
        let delivered = abm.get_chunk(scan).unwrap().unwrap().chunk;
        let state = abm.state.lock();
        let available = &state.scans[&scan].available;
        assert_eq!(available.len(), 1);
        assert_ne!(available[0], delivered);
        assert!(state.is_protected(state.chunk_of(scan, available[0]).unwrap()));
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
