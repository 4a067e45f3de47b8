//! The chunk directory: the ABM's sharded hot-path state.
//!
//! The directory partitions per-scan progress (the still-needed chunk set,
//! in-order cursor, cached-available protection counter) across N
//! independently-locked shards (`shard = scan id mod N`), exactly like
//! [`ShardedPool`](crate::sharded::ShardedPool) partitions the page table.
//! Chunk residency and usefulness are published through
//! [`ChunkFlags`] — small atomic cells shared between the directory's scan
//! slots and the relevance core's chunk table — so the delivery fast path
//! ([`ChunkDirectory::try_deliver`], the paper's `GetChunk`) touches **only
//! the shard owning the scan**: it reads the candidate chunks' cached state
//! and interest counts from the atomics, applies the pure
//! [`use_preference`](super::relevance::use_preference) scoring, mutates
//! the slot, bumps the shard-local hit counter and *buffers* the
//! membership side effect (removing the scan from the chunk's interested
//! set) as a sequence-tagged event.
//!
//! Every path that *decides* — load planning, eviction, registration —
//! first takes all shard locks and replays the buffered events in global
//! arrival order (see `Abm::lock_all` in the parent module), so the
//! relevance core observes exactly the interest sets a single-lock ABM
//! would: relevance decisions are byte-identical to the monolithic
//! original (`tests/abm_reference`) for any shard count.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use scanshare_common::sync::{Mutex, MutexGuard};
use scanshare_common::{ChunkId, Error, Result, ScanId};

use super::relevance;
use super::ChunkDelivery;
use crate::metrics::BufferStats;

/// How many buffered delivery events one shard accumulates before the
/// facade forces a drain, bounding memory on delivery-heavy workloads.
/// Draining is order-preserving, so the threshold affects only *when* the
/// relevance core catches up, never *what* it observes.
pub(super) const EVENT_FLUSH_THRESHOLD: usize = 1024;

const STATE_EMPTY: u32 = 0;
const STATE_LOADING: u32 = 1;
const STATE_CACHED: u32 = 2;

/// The residency / usefulness cell of one chunk, shared between the
/// relevance core (which owns every transition) and the directory shards
/// (which read it lock-free on the delivery fast path).
#[derive(Debug)]
pub(super) struct ChunkFlags {
    /// `STATE_EMPTY` / `STATE_LOADING` / `STATE_CACHED`. Only the decision
    /// core (holding every lock) writes this, so a fast-path read under the
    /// scan's shard lock can never race a transition.
    state: AtomicU32,
    /// Number of registered scans still interested in the chunk — the
    /// usefulness count behind Use/Load/KeepRelevance. Incremented on
    /// registration (under all locks), decremented eagerly on delivery
    /// (under the delivering scan's shard lock), so fast-path readers see
    /// the same count the monolithic ABM's `interested.len()` would show.
    interest: AtomicU32,
}

impl ChunkFlags {
    pub(super) fn new() -> Self {
        Self {
            state: AtomicU32::new(STATE_EMPTY),
            interest: AtomicU32::new(0),
        }
    }

    /// Whether the chunk is cached and not mid-load (the monolithic
    /// `cached && !loading`).
    pub(super) fn is_cached(&self) -> bool {
        self.state.load(Ordering::SeqCst) == STATE_CACHED
    }

    /// Whether the chunk may be chosen for loading (neither cached nor
    /// already in flight).
    pub(super) fn is_loadable(&self) -> bool {
        self.state.load(Ordering::SeqCst) == STATE_EMPTY
    }

    pub(super) fn is_loading(&self) -> bool {
        self.state.load(Ordering::SeqCst) == STATE_LOADING
    }

    pub(super) fn set_loading(&self) {
        self.state.store(STATE_LOADING, Ordering::SeqCst);
    }

    pub(super) fn set_cached(&self) {
        self.state.store(STATE_CACHED, Ordering::SeqCst);
    }

    pub(super) fn set_empty(&self) {
        self.state.store(STATE_EMPTY, Ordering::SeqCst);
    }

    pub(super) fn interest(&self) -> usize {
        self.interest.load(Ordering::SeqCst) as usize
    }

    pub(super) fn add_interest(&self) {
        self.interest.fetch_add(1, Ordering::SeqCst);
    }

    pub(super) fn remove_interest(&self) {
        self.interest.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Per-scan hot state, owned by the shard the scan id hashes to.
#[derive(Debug)]
pub(super) struct ScanSlot {
    /// Chunks not yet delivered, with the tuple count needed from each.
    pub needed: HashMap<ChunkId, u64>,
    /// Chunk ids in ascending (table) order, for in-order delivery.
    pub order: Vec<ChunkId>,
    pub next_in_order: usize,
    /// Number of still-needed chunks that are currently cached. A cached
    /// chunk that is the *only* available chunk of some scan must not be
    /// evicted before that scan consumes it (otherwise two starved scans
    /// can keep evicting each other's freshly loaded chunks forever).
    pub cached_available: usize,
    pub in_order: bool,
    /// Residency/usefulness cells of every chunk this scan registered for
    /// (kept after delivery, for the `chunk_is_cached` probe).
    pub flags: HashMap<ChunkId, Arc<ChunkFlags>>,
}

impl ScanSlot {
    /// UseRelevance: the cached chunk this scan should process next — the
    /// cached needed chunk with the lowest
    /// [`use_preference`](relevance::use_preference) key; for in-order
    /// scans only the next sequential chunk qualifies. Mirrors the
    /// monolithic `cached_chunk_for` exactly.
    pub(super) fn cached_candidate(&self) -> Option<ChunkId> {
        let flag_cached = |chunk: &ChunkId| {
            self.flags
                .get(chunk)
                .map(|f| f.is_cached())
                .unwrap_or(false)
        };
        if self.in_order {
            let next = self.order.get(self.next_in_order)?;
            return flag_cached(next).then_some(*next);
        }
        self.needed
            .keys()
            .filter(|chunk| flag_cached(chunk))
            .min_by_key(|chunk| {
                let interest = self.flags.get(chunk).map(|f| f.interest()).unwrap_or(0);
                relevance::use_preference(interest, **chunk)
            })
            .copied()
    }
}

/// A deferred relevance-core side effect, tagged with its global arrival
/// sequence (the order-preserving event queue of PR 3's `ShardedPool`).
#[derive(Debug)]
pub(super) enum DirEvent {
    /// `scan` consumed `chunk`: remove it from the chunk's interested set.
    Delivered { scan: ScanId, chunk: ChunkId },
}

/// The one scan → shard mapping, used by the directory's own fast paths
/// and by the parent module's decision-path slot lookups (which hold every
/// shard guard and index the same way).
pub(super) fn shard_of(scan: ScanId, shard_count: usize) -> usize {
    (scan.raw() % shard_count as u64) as usize
}

/// One lock domain: the scans whose id hashes here, the statistics they
/// accumulated and the not-yet-replayed membership events.
#[derive(Debug, Default)]
pub(super) struct DirShard {
    pub scans: HashMap<ScanId, ScanSlot>,
    pub stats: BufferStats,
    pub events: Vec<(u64, DirEvent)>,
}

/// The sharded chunk directory. See the module docs for the locking
/// discipline; the short version: `try_deliver` and the probes take one
/// shard lock, everything else goes through the parent module's
/// all-locks-plus-replay path.
#[derive(Debug)]
pub(super) struct ChunkDirectory {
    shards: Vec<Mutex<DirShard>>,
    /// Global arrival order of deferred events.
    seq: AtomicU64,
}

impl ChunkDirectory {
    pub(super) fn new(shards: usize) -> Self {
        assert!(shards > 0, "the chunk directory needs at least one shard");
        Self {
            shards: (0..shards)
                .map(|_| Mutex::new(DirShard::default()))
                .collect(),
            seq: AtomicU64::new(0),
        }
    }

    pub(super) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, scan: ScanId) -> &Mutex<DirShard> {
        &self.shards[shard_of(scan, self.shards.len())]
    }

    /// The delivery fast path (`GetChunk`): picks, consumes and accounts
    /// the best cached chunk under the owning shard's lock only. Returns
    /// the delivery plus whether the caller must force an event drain.
    pub(super) fn try_deliver(&self, scan: ScanId) -> Result<(Option<ChunkDelivery>, bool)> {
        let mut shard = self.shard(scan).lock();
        let shard = &mut *shard;
        let slot = shard.scans.get_mut(&scan).ok_or(Error::UnknownScan(scan))?;
        let Some(chunk) = slot.cached_candidate() else {
            return Ok((None, false));
        };
        let tuples = slot.needed.remove(&chunk).unwrap_or(0);
        if slot.in_order {
            slot.next_in_order += 1;
        }
        // The delivered chunk was one of this scan's cached-available
        // chunks; the interest decrement is published eagerly through the
        // atomic cell, the membership removal is replayed at the next
        // decision point.
        slot.cached_available = slot.cached_available.saturating_sub(1);
        if let Some(flags) = slot.flags.get(&chunk) {
            flags.remove_interest();
        }
        shard.stats.hits += 1;
        // The sequence number is taken under the shard lock so a drain can
        // never observe a later event while an earlier one is in flight.
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        shard
            .events
            .push((seq, DirEvent::Delivered { scan, chunk }));
        let flush = shard.events.len() >= EVENT_FLUSH_THRESHOLD;
        Ok((Some(ChunkDelivery { chunk, tuples }), flush))
    }

    /// Whether a chunk is currently cached and available for `scan` (the
    /// non-consuming probe behind the backend's poll loop).
    pub(super) fn has_cached_chunk(&self, scan: ScanId) -> bool {
        self.shard(scan)
            .lock()
            .scans
            .get(&scan)
            .and_then(ScanSlot::cached_candidate)
            .is_some()
    }

    /// Whether `scan` has received every chunk it registered for (unknown
    /// scans count as finished, as in the monolithic ABM).
    pub(super) fn is_finished(&self, scan: ScanId) -> bool {
        self.shard(scan)
            .lock()
            .scans
            .get(&scan)
            .map(|slot| slot.needed.is_empty())
            .unwrap_or(true)
    }

    /// Number of chunks `scan` still needs.
    pub(super) fn remaining_chunks(&self, scan: ScanId) -> usize {
        self.shard(scan)
            .lock()
            .scans
            .get(&scan)
            .map(|slot| slot.needed.len())
            .unwrap_or(0)
    }

    /// The cached state of one of the scan's registered chunks, or `None`
    /// when the scan (or the chunk in its set) is unknown to the shard.
    pub(super) fn chunk_flag_cached(&self, scan: ScanId, chunk: ChunkId) -> Option<bool> {
        self.shard(scan)
            .lock()
            .scans
            .get(&scan)
            .and_then(|slot| slot.flags.get(&chunk))
            .map(|flags| flags.is_cached())
    }

    /// The chunks `scan` still has to consume (for sharing-potential
    /// sampling).
    pub(super) fn needed_chunks(&self, scan: ScanId) -> Vec<ChunkId> {
        self.shard(scan)
            .lock()
            .scans
            .get(&scan)
            .map(|slot| slot.needed.keys().copied().collect())
            .unwrap_or_default()
    }

    /// Statistics aggregated across every shard (the hit counters; the
    /// decision-side counters live in the relevance core).
    pub(super) fn stats(&self) -> BufferStats {
        let mut total = BufferStats::default();
        for shard in &self.shards {
            total.merge(&shard.lock().stats);
        }
        total
    }

    /// Takes every shard lock in ascending index order (the first half of
    /// the decision-path locking protocol).
    pub(super) fn lock_shards(&self) -> Vec<MutexGuard<'_, DirShard>> {
        self.shards.iter().map(|s| s.lock()).collect()
    }

    /// Drains the buffered events of already-locked shards, sorted into
    /// global arrival order, ready to be replayed against the core.
    pub(super) fn take_events(shards: &mut [MutexGuard<'_, DirShard>]) -> Vec<(u64, DirEvent)> {
        let mut pending: Vec<(u64, DirEvent)> = Vec::new();
        for shard in shards.iter_mut() {
            pending.append(&mut shard.events);
        }
        pending.sort_unstable_by_key(|(seq, _)| *seq);
        pending
    }
}
