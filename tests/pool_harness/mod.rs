//! Shared buffer-pool trace harness for the property tests: a deterministic
//! RNG, a trace grammar over pool operations, the `EagerPool` oracle (a
//! single-threaded pool that calls the policy immediately), a `TracePool`
//! adapter over the oracle and `BufferPool`, and a replayer that records
//! everything observable.
//!
//! Used by `pool_properties.rs` (pool transparency for the built-in
//! policies) and `policy_zoo.rs` (the same property for CLOCK and SIEVE,
//! plus policy-specific invariants).

#![allow(dead_code)] // each test binary uses a subset of the harness

use std::collections::HashSet;

use scanshare::common::{ColumnId, PageId, ScanId, TableId, TupleRange, VirtualInstant};
use scanshare::core::policy::{ReplacementPolicy, ScanInfo};
use scanshare::core::{AccessOutcome, BufferPool, BufferStats};
use scanshare::storage::layout::{PageDescriptor, ScanPagePlan};

/// Deterministic xorshift64* generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed.max(1))
    }
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

/// One step of a trace. Scan handles are *indices* into the registration
/// order (the pools assign their own `ScanId`s; equal call sequences make
/// them equal, which the replay asserts).
#[derive(Debug, Clone)]
pub enum Step {
    Register {
        pages: Vec<u64>,
        tuples_per_page: u64,
    },
    Access {
        scan: Option<usize>,
        page: u64,
    },
    Report {
        scan: usize,
        tuples: u64,
    },
    Unregister {
        scan: usize,
    },
    Prefetch {
        budget: usize,
    },
    Advance {
        millis: u64,
    },
}

/// What a replay observed; compared across pool implementations.
#[derive(Debug, PartialEq)]
pub enum Observation {
    Outcome(AccessOutcome),
    ScanId(ScanId),
    Candidates(Vec<PageId>, Vec<bool>),
}

pub fn plan_over(pages: &[u64], tuples_per_page: u64) -> ScanPagePlan {
    let descs: Vec<PageDescriptor> = pages
        .iter()
        .enumerate()
        .map(|(i, &page)| PageDescriptor {
            page: PageId::new(page),
            column: ColumnId::new(0),
            column_index: 0,
            sid_range: TupleRange::new(
                i as u64 * tuples_per_page,
                (i as u64 + 1) * tuples_per_page,
            ),
            tuples_behind: i as u64 * tuples_per_page,
            tuple_count: tuples_per_page,
        })
        .collect();
    ScanPagePlan {
        table: TableId::new(0),
        total_tuples: pages.len() as u64 * tuples_per_page,
        pages: descs,
    }
}

/// The trace operations a pool under test must support. `EagerPool` takes
/// `&mut self`, `BufferPool` synchronizes internally; the trait papers
/// over that difference for the replay.
pub trait TracePool {
    fn register(&mut self, plan: &ScanPagePlan, now: VirtualInstant) -> ScanId;
    fn request(&mut self, page: PageId, scan: Option<ScanId>, now: VirtualInstant)
        -> AccessOutcome;
    fn report(&mut self, scan: ScanId, tuples: u64, now: VirtualInstant);
    fn unregister(&mut self, scan: ScanId, now: VirtualInstant);
    fn candidates(&mut self, budget: usize, now: VirtualInstant) -> Vec<PageId>;
    fn admit_prefetch(&mut self, page: PageId, now: VirtualInstant) -> bool;
    fn stats(&self) -> BufferStats;
}

/// The reference the buffer pool is compared against: a resident set and a
/// policy that hears about every event the moment it happens,
/// with no lock. It shares none of the code under test beyond the policy
/// itself.
pub struct EagerPool {
    capacity_pages: usize,
    page_size_bytes: u64,
    policy: Box<dyn ReplacementPolicy>,
    resident: HashSet<PageId>,
    stats: BufferStats,
    next_scan: u64,
}

impl EagerPool {
    pub fn new(
        capacity_pages: usize,
        page_size_bytes: u64,
        policy: Box<dyn ReplacementPolicy>,
    ) -> Self {
        Self {
            capacity_pages,
            page_size_bytes,
            policy,
            resident: HashSet::new(),
            stats: BufferStats::default(),
            next_scan: 0,
        }
    }
}

impl TracePool for EagerPool {
    fn register(&mut self, plan: &ScanPagePlan, now: VirtualInstant) -> ScanId {
        let id = ScanId::new(self.next_scan);
        self.next_scan += 1;
        let info = ScanInfo {
            id,
            total_tuples: plan.total_tuples,
            distinct_pages: plan.distinct_pages(),
        };
        self.policy.register_scan(&info, plan, now);
        id
    }
    fn request(
        &mut self,
        page: PageId,
        scan: Option<ScanId>,
        now: VirtualInstant,
    ) -> AccessOutcome {
        if self.resident.contains(&page) {
            self.stats.hits += 1;
            self.policy.on_access(page, scan, now);
            return AccessOutcome::Hit;
        }
        let mut evicted = Vec::new();
        if self.resident.len() >= self.capacity_pages {
            let exclude = HashSet::from([page]);
            for victim in self.policy.choose_victims(1, &exclude, now) {
                if self.resident.remove(&victim) {
                    self.policy.on_evict(victim);
                    self.stats.evictions += 1;
                    evicted.push(victim);
                }
            }
        }
        assert!(
            self.resident.len() < self.capacity_pages,
            "the policy named a victim"
        );
        self.resident.insert(page);
        self.policy.on_admit(page, now);
        self.policy.on_access(page, scan, now);
        self.stats.misses += 1;
        self.stats.pages_loaded += 1;
        self.stats.io_bytes += self.page_size_bytes;
        AccessOutcome::Miss { evicted }
    }
    fn report(&mut self, scan: ScanId, tuples: u64, now: VirtualInstant) {
        self.policy.report_scan_position(scan, tuples, now)
    }
    fn unregister(&mut self, scan: ScanId, now: VirtualInstant) {
        self.policy.unregister_scan(scan, now)
    }
    fn candidates(&mut self, budget: usize, now: VirtualInstant) -> Vec<PageId> {
        if budget == 0 {
            return Vec::new();
        }
        let mut seen = HashSet::new();
        self.policy
            .prefetch_hints(now, budget)
            .into_iter()
            .filter(|p| !self.resident.contains(p) && seen.insert(*p))
            .take(budget)
            .collect()
    }
    fn admit_prefetch(&mut self, page: PageId, now: VirtualInstant) -> bool {
        if self.resident.contains(&page) || self.resident.len() >= self.capacity_pages {
            return false;
        }
        self.resident.insert(page);
        self.policy.on_admit(page, now);
        self.stats.pages_loaded += 1;
        self.stats.io_bytes += self.page_size_bytes;
        self.stats.prefetched_pages += 1;
        self.stats.prefetch_io_bytes += self.page_size_bytes;
        true
    }
    fn stats(&self) -> BufferStats {
        self.stats
    }
}

impl TracePool for BufferPool {
    fn register(&mut self, plan: &ScanPagePlan, now: VirtualInstant) -> ScanId {
        BufferPool::register_scan(self, plan, now)
    }
    fn request(
        &mut self,
        page: PageId,
        scan: Option<ScanId>,
        now: VirtualInstant,
    ) -> AccessOutcome {
        BufferPool::request_page(self, page, scan, now).expect("the policy named a victim")
    }
    fn report(&mut self, scan: ScanId, tuples: u64, now: VirtualInstant) {
        BufferPool::report_scan_position(self, scan, tuples, now)
    }
    fn unregister(&mut self, scan: ScanId, now: VirtualInstant) {
        BufferPool::unregister_scan(self, scan, now)
    }
    fn candidates(&mut self, budget: usize, now: VirtualInstant) -> Vec<PageId> {
        BufferPool::prefetch_candidates(self, budget, now)
    }
    fn admit_prefetch(&mut self, page: PageId, now: VirtualInstant) -> bool {
        BufferPool::admit_prefetch(self, page, now)
    }
    fn stats(&self) -> BufferStats {
        BufferPool::stats(self)
    }
}

/// Generates a random trace over `pages` page ids with registered scans,
/// progress reports, scanless accesses, prefetch probes and virtual-time
/// advances. Every step is valid at any capacity, so the trace does not
/// depend on `_capacity`.
pub fn random_trace(rng: &mut Rng, pages: u64, _capacity: usize, steps: usize) -> Vec<Step> {
    let mut trace = Vec::with_capacity(steps);
    let mut live_scans: Vec<(usize, Vec<u64>, usize)> = Vec::new(); // (index, plan, cursor)
    let mut registered = 0usize;
    for _ in 0..steps {
        match rng.below(16) {
            0 => {
                // Register a scan over a random contiguous-ish page window.
                let len = 2 + rng.below(pages.min(12)) as usize;
                let start = rng.below(pages);
                let plan: Vec<u64> = (0..len as u64).map(|i| (start + i) % pages).collect();
                trace.push(Step::Register {
                    pages: plan.clone(),
                    tuples_per_page: 100,
                });
                live_scans.push((registered, plan, 0));
                registered += 1;
            }
            1 if !live_scans.is_empty() => {
                let idx = rng.below(live_scans.len() as u64) as usize;
                let (scan, _, _) = live_scans.remove(idx);
                trace.push(Step::Unregister { scan });
            }
            2 if !live_scans.is_empty() => {
                let idx = rng.below(live_scans.len() as u64) as usize;
                let (scan, _, cursor) = &live_scans[idx];
                trace.push(Step::Report {
                    scan: *scan,
                    tuples: *cursor as u64 * 100,
                });
            }
            5 => trace.push(Step::Prefetch {
                budget: 1 + rng.below(6) as usize,
            }),
            6 => trace.push(Step::Advance {
                millis: rng.below(400),
            }),
            n if n < 12 && !live_scans.is_empty() => {
                // Advance a scan along its plan (the PBM-relevant pattern).
                let idx = rng.below(live_scans.len() as u64) as usize;
                let (scan, plan, cursor) = &mut live_scans[idx];
                let page = plan[*cursor % plan.len()];
                *cursor += 1;
                trace.push(Step::Access {
                    scan: Some(*scan),
                    page,
                });
            }
            _ => trace.push(Step::Access {
                scan: None,
                page: rng.below(pages),
            }),
        }
    }
    trace
}

/// Replays `trace` against `pool`, returning everything observable.
pub fn replay(pool: &mut dyn TracePool, trace: &[Step]) -> (Vec<Observation>, BufferStats) {
    let mut observations = Vec::with_capacity(trace.len());
    let mut scan_ids: Vec<ScanId> = Vec::new();
    let mut now = VirtualInstant::EPOCH;
    for step in trace {
        match step {
            Step::Register {
                pages,
                tuples_per_page,
            } => {
                let id = pool.register(&plan_over(pages, *tuples_per_page), now);
                scan_ids.push(id);
                observations.push(Observation::ScanId(id));
            }
            Step::Access { scan, page } => {
                let scan = scan.map(|idx| scan_ids[idx]);
                observations.push(Observation::Outcome(pool.request(
                    PageId::new(*page),
                    scan,
                    now,
                )));
            }
            Step::Report { scan, tuples } => pool.report(scan_ids[*scan], *tuples, now),
            Step::Unregister { scan } => pool.unregister(scan_ids[*scan], now),
            Step::Prefetch { budget } => {
                let candidates = pool.candidates(*budget, now);
                let admitted = candidates
                    .iter()
                    .map(|&p| pool.admit_prefetch(p, now))
                    .collect();
                observations.push(Observation::Candidates(candidates, admitted));
            }
            Step::Advance { millis } => {
                now = VirtualInstant::from_nanos(now.as_nanos() + millis * 1_000_000);
            }
        }
    }
    (observations, pool.stats())
}
