//! PBM's bookkeeping equivalence property.
//!
//! The production `PbmPolicy` keeps its timeline in lazy-deletion heaps and
//! its scans in a dense slot table; the frozen spec in `pbm_reference` keeps
//! ordered sets and a hash map. How the books are kept must not change a
//! single decision: this test replays seeded call sequences through both
//! and asserts, after every call, identical victims, prefetch hints, page
//! counts and next-consumption estimates for every page.
//!
//! The calls cover multi-column plans that name a page twice, progress
//! reports (some past the scan's end), accesses with and without a scan,
//! admissions with and without a following access, evictions,
//! `choose_victims` with counts 1-4 and a non-empty exclude set (whose
//! victims are sometimes left resident, as a composed policy may do),
//! unregistrations, and time gaps longer than the timeline's 1 023 s
//! horizon, so every bucket group shifts.

mod pbm_reference;

use std::collections::{BTreeSet, HashSet};

use pbm_reference::PbmPolicy as ReferencePbm;
use scanshare::common::{ColumnId, PageId, ScanId, TableId, TupleRange, VirtualInstant};
use scanshare::core::pbm::PbmPolicy;
use scanshare::core::policy::{ReplacementPolicy, ScanInfo};
use scanshare::storage::datagen::splitmix64;
use scanshare::storage::layout::{PageDescriptor, ScanPagePlan};

/// Pages the traces touch, and how many of them fit in the pool.
const PAGES: u64 = 48;
const CAPACITY: usize = 20;
const CALLS_PER_SEED: usize = 6_000;
/// Registered scans at most, so a page has a handful of consumers.
const MAX_SCANS: usize = 8;

struct Rng(u64);

impl Rng {
    fn below(&mut self, bound: u64) -> u64 {
        self.0 = splitmix64(self.0);
        self.0 % bound
    }
    fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }
}

/// A scan plan over 1-3 columns of `len` pages each, column-major like the
/// planner's. The columns' page runs overlap, so a page can appear under
/// two columns at different positions.
fn plan(rng: &mut Rng) -> ScanPagePlan {
    let columns = 1 + rng.below(3);
    let len = 2 + rng.below(9);
    let tuples_per_page = 50 + rng.below(450);
    let first = rng.below(PAGES);
    let stride = rng.below(len);
    let mut pages = Vec::new();
    for c in 0..columns {
        for i in 0..len {
            pages.push(PageDescriptor {
                page: PageId::new((first + c * stride + i) % PAGES),
                column: ColumnId::new(c as u32),
                column_index: c as usize,
                sid_range: TupleRange::new(i * tuples_per_page, (i + 1) * tuples_per_page),
                tuples_behind: i * tuples_per_page,
                tuple_count: tuples_per_page,
            });
        }
    }
    ScanPagePlan {
        table: TableId::new(0),
        total_tuples: len * tuples_per_page,
        pages,
    }
}

/// The two policies fed the same calls, compared after each one.
struct Pair {
    spec: ReferencePbm,
    prod: PbmPolicy,
    calls: usize,
}

impl Pair {
    fn both<T: PartialEq + std::fmt::Debug>(
        &mut self,
        what: &str,
        mut call: impl FnMut(&mut dyn ReplacementPolicy) -> T,
    ) -> T {
        let expected = call(&mut self.spec);
        let got = call(&mut self.prod);
        self.calls += 1;
        assert_eq!(got, expected, "call {} ({what})", self.calls);
        self.check(what);
        got
    }

    fn check(&self, what: &str) {
        let call = self.calls;
        assert_eq!(
            self.prod.requested_pages(),
            self.spec.requested_pages(),
            "requested pages after call {call} ({what})"
        );
        assert_eq!(
            self.prod.not_requested_pages(),
            self.spec.not_requested_pages(),
            "not-requested pages after call {call} ({what})"
        );
        assert_eq!(
            self.prod.registered_scans(),
            self.spec.registered_scans(),
            "registered scans after call {call} ({what})"
        );
        for page in (0..PAGES).map(PageId::new) {
            assert_eq!(
                self.prod.next_consumption(page),
                self.spec.next_consumption(page),
                "estimate of {page} after call {call} ({what})"
            );
        }
    }
}

/// What a replay exercised.
#[derive(Default)]
struct Coverage {
    victims: usize,
    /// Victims some registered scan still wanted: taken from the timeline.
    requested_victims: usize,
    /// Time gaps past the timeline's horizon.
    gaps: usize,
}

impl Coverage {
    fn count(&mut self, pair: &Pair, victims: &[PageId]) {
        self.victims += victims.len();
        self.requested_victims += victims
            .iter()
            .filter(|&&page| pair.prod.next_consumption(page).is_some())
            .count();
    }
}

/// Replays one seeded call sequence.
fn replay(seed: u64) -> Coverage {
    let mut rng = Rng(seed);
    let mut pair = Pair {
        spec: ReferencePbm::new(),
        prod: PbmPolicy::new(),
        calls: 0,
    };
    let mut resident: BTreeSet<PageId> = BTreeSet::new();
    // Registered scans with the rows they have consumed.
    let mut scans: Vec<(ScanId, u64)> = Vec::new();
    let mut next_scan = 0;
    let mut now_ns = 0u64;
    let mut coverage = Coverage::default();
    while pair.calls < CALLS_PER_SEED {
        now_ns += if rng.chance(1_000) {
            // Past the horizon: every bucket group shifts at least once.
            coverage.gaps += 1;
            1_024_000_000_000 + rng.below(100_000_000_000)
        } else {
            rng.below(150_000_000)
        };
        let now = VirtualInstant::from_nanos(now_ns);
        let page = PageId::new(rng.below(PAGES));
        let scan = (!scans.is_empty()).then(|| rng.below(scans.len() as u64) as usize);
        match (rng.below(10), scan) {
            (0, _) if scans.len() < MAX_SCANS => {
                let plan = plan(&mut rng);
                let info = ScanInfo {
                    id: ScanId::new(next_scan),
                    total_tuples: plan.total_tuples,
                    distinct_pages: plan.distinct_pages(),
                };
                next_scan += 1;
                pair.both("register", |p| p.register_scan(&info, &plan, now));
                scans.push((info.id, 0));
            }
            (1 | 2, Some(i)) => {
                // Reports run past the scan's end now and then.
                scans[i].1 += rng.below(400);
                let (id, consumed) = scans[i];
                pair.both("report", |p| p.report_scan_position(id, consumed, now));
            }
            (3, Some(i)) => {
                let (id, _) = scans.swap_remove(i);
                pair.both("unregister", |p| p.unregister_scan(id, now));
            }
            (4, scan) => {
                let id = scan.filter(|_| rng.chance(3)).map(|i| scans[i].0);
                pair.both("access", |p| p.on_access(page, id, now));
            }
            (5, _) if resident.contains(&page) => {
                resident.remove(&page);
                pair.both("evict", |p| p.on_evict(page));
            }
            (6, _) => {
                // Victims for 1-4 pages, never one of 1-3 excluded pages;
                // they are evicted, except now and then.
                let count = 1 + rng.below(4) as usize;
                let exclude: HashSet<PageId> = (0..1 + rng.below(3))
                    .map(|_| PageId::new(rng.below(PAGES)))
                    .collect();
                let victims =
                    pair.both("choose_victims", |p| p.choose_victims(count, &exclude, now));
                for victim in &victims {
                    assert!(resident.contains(victim), "{victim} is not resident");
                    assert!(!exclude.contains(victim), "{victim} is excluded");
                }
                coverage.count(&pair, &victims);
                if !rng.chance(5) {
                    for victim in victims {
                        resident.remove(&victim);
                        pair.both("evict", |p| p.on_evict(victim));
                    }
                }
            }
            (7, _) => {
                let budget = rng.below(5) as usize;
                pair.both("prefetch_hints", |p| p.prefetch_hints(now, budget));
            }
            _ if !resident.contains(&page) => {
                // A miss: make room like the pool, admit, and mostly access.
                if resident.len() >= CAPACITY {
                    let exclude: HashSet<PageId> = [page].into_iter().collect();
                    let victims =
                        pair.both("choose_victims", |p| p.choose_victims(1, &exclude, now));
                    coverage.count(&pair, &victims);
                    for victim in victims {
                        resident.remove(&victim);
                        pair.both("evict", |p| p.on_evict(victim));
                    }
                }
                resident.insert(page);
                pair.both("admit", |p| p.on_admit(page, now));
                if !rng.chance(3) {
                    let id = scan.filter(|_| rng.chance(2)).map(|i| scans[i].0);
                    pair.both("access", |p| p.on_access(page, id, now));
                }
            }
            _ => {}
        }
    }
    coverage
}

#[test]
fn heaps_and_slots_make_the_decisions_of_the_ordered_spec() {
    for seed in 0..8 {
        let Coverage {
            victims,
            requested_victims,
            gaps,
        } = replay(0x9b3_0000 + seed);
        assert!(victims > 500, "seed {seed}: only {victims} victims");
        assert!(
            requested_victims > 100,
            "seed {seed}: only {requested_victims} victims from the timeline"
        );
        assert!(gaps >= 2, "seed {seed}: only {gaps} gaps past the horizon");
    }
}
