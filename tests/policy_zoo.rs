//! The policy zoo: CLOCK and SIEVE behave like first-class citizens of the
//! buffer-pool stack.
//!
//! Three layers of guarantees:
//!
//! 1. **Pool transparency** — replaying any randomized trace (the
//!    `pool_harness` grammar shared with `pool_properties.rs`) against a
//!    `BufferPool` yields byte-identical outcomes, statistics and prefetch
//!    decisions to the single-threaded `EagerPool` oracle.
//! 2. **Policy invariants** — SIEVE never evicts a visited page while an
//!    unvisited one exists; CLOCK's hand only ever moves forward. Both are
//!    asserted over randomized operation streams against the public
//!    observables (`SievePolicy::visited`/`pages_oldest_first`,
//!    `ClockPolicy::hand_advances`/`referenced`).
//! 3. **Registry wiring** — `custom_policy: "clock" | "sieve"` resolves
//!    through the `PolicyRegistry` into a working engine under replacement
//!    pressure.

mod pool_harness;

use std::collections::HashSet;
use std::sync::Arc;

use pool_harness::{random_trace, replay, EagerPool, Rng};
use scanshare::common::{PageId, VirtualInstant};
use scanshare::core::clock::ClockPolicy;
use scanshare::core::policy::ReplacementPolicy;
use scanshare::core::pool::BufferPool;
use scanshare::core::sieve::SievePolicy;

type PolicyFactory = fn() -> Box<dyn ReplacementPolicy>;

fn zoo() -> Vec<(&'static str, PolicyFactory)> {
    vec![
        ("clock", || Box::new(ClockPolicy::new())),
        ("sieve", || Box::new(SievePolicy::new())),
    ]
}

/// Same property as `pool_properties`, for the policies the zoo adds.
#[test]
fn clock_and_sieve_traces_match_the_eager_oracle() {
    let cases = if cfg!(debug_assertions) { 10 } else { 32 };
    for case in 0..cases {
        let mut rng = Rng::new(0x0200_5eed + case * 6151);
        let capacity = 2 + rng.below(24) as usize;
        let pages = capacity as u64 / 2 + rng.below(3 * capacity as u64 + 8);
        let trace = random_trace(&mut rng, pages, capacity, 300);

        for (name, make_policy) in zoo() {
            let mut reference = EagerPool::new(capacity, 1024, make_policy());
            let (expected_obs, expected_stats) = replay(&mut reference, &trace);
            assert!(
                expected_stats.hits + expected_stats.misses > 0,
                "case {case}: trace exercised no accesses"
            );
            let mut pool = BufferPool::new(capacity, 1024, make_policy());
            let (obs, stats) = replay(&mut pool, &trace);
            assert_eq!(
                stats, expected_stats,
                "case {case} policy {name}: statistics diverged"
            );
            assert_eq!(
                obs, expected_obs,
                "case {case} policy {name}: outcomes diverged"
            );
        }
    }
}

/// Drives a bare policy exactly like the buffer pool's miss path does:
/// admit + demand access when over capacity, evicting chosen victims.
fn fault(
    policy: &mut dyn ReplacementPolicy,
    resident: &mut HashSet<PageId>,
    page: PageId,
    cap: usize,
) {
    let now = VirtualInstant::EPOCH;
    if resident.contains(&page) {
        policy.on_access(page, None, now);
        return;
    }
    while resident.len() >= cap {
        let victims = policy.choose_victims(1, &HashSet::new(), now);
        assert_eq!(
            victims.len(),
            1,
            "no victim with {} resident",
            resident.len()
        );
        assert!(resident.remove(&victims[0]), "victim not resident");
        policy.on_evict(victims[0]);
    }
    policy.on_admit(page, now);
    policy.on_access(page, None, now); // the faulting access
    resident.insert(page);
}

/// SIEVE's defining invariant, randomized: whenever at least one tracked
/// page has a clear visited bit, the next victim is one of those pages —
/// a set bit always buys survival while colder pages remain.
#[test]
fn sieve_never_evicts_a_visited_page_while_an_unvisited_one_exists() {
    for seed in 0..8u64 {
        let mut rng = Rng::new(0x51e7e + seed);
        let mut sieve = SievePolicy::new();
        let mut resident = HashSet::new();
        let cap = 12usize;
        let now = VirtualInstant::EPOCH;
        for step in 0..600 {
            let page = PageId::new(rng.below(40));
            // Snapshot visited bits before the fault path may evict.
            let unvisited: HashSet<PageId> = sieve
                .pages_oldest_first()
                .into_iter()
                .filter(|&p| sieve.visited(p) == Some(false))
                .collect();
            if resident.len() >= cap && !resident.contains(&page) && !unvisited.is_empty() {
                let victim = sieve.choose_victims(1, &HashSet::new(), now);
                assert_eq!(victim.len(), 1);
                assert!(
                    unvisited.contains(&victim[0]),
                    "seed {seed} step {step}: evicted visited page {:?} while {} unvisited pages existed",
                    victim[0],
                    unvisited.len()
                );
                assert!(resident.remove(&victim[0]));
                sieve.on_evict(victim[0]);
            }
            fault(&mut sieve, &mut resident, page, cap);
        }
        // The observable list and the model agree about who is tracked.
        let tracked: HashSet<PageId> = sieve.pages_oldest_first().into_iter().collect();
        assert_eq!(tracked, resident, "seed {seed}");
    }
}

/// CLOCK's hand is a monotone sweep: across any randomized workload the
/// advance counter never decreases, and the reference bit observable
/// reflects demand accesses.
#[test]
fn clock_hand_only_moves_forward() {
    for seed in 0..8u64 {
        let mut rng = Rng::new(0xc10c + seed);
        let mut clock = ClockPolicy::new();
        let mut resident = HashSet::new();
        let cap = 10usize;
        let now = VirtualInstant::EPOCH;
        let mut last = clock.hand_advances();
        for step in 0..600 {
            let page = PageId::new(rng.below(32));
            fault(&mut clock, &mut resident, page, cap);
            assert_eq!(
                clock.referenced(page),
                Some(true),
                "seed {seed} step {step}: a demand access must set the reference bit"
            );
            if rng.below(4) == 0 {
                // Spontaneous pressure, like a prefetch admission would cause.
                for victim in clock.choose_victims(1, &HashSet::new(), now) {
                    assert!(resident.remove(&victim));
                    clock.on_evict(victim);
                }
            }
            let advances = clock.hand_advances();
            assert!(
                advances >= last,
                "seed {seed} step {step}: hand moved backwards ({last} -> {advances})"
            );
            last = advances;
        }
        assert!(last > 0, "seed {seed}: the hand never swept");
    }
}

/// `custom_policy` resolves clock and sieve by name through the registry,
/// and the resulting engines answer exactly under replacement pressure.
#[test]
fn registry_wires_clock_and_sieve_into_working_engines() {
    use scanshare::prelude::*;

    let registry = PolicyRegistry::default();
    let names = registry.names();
    for name in ["clock", "sieve"] {
        assert!(
            names.contains(&name),
            "{name} missing from registry: {names:?}"
        );
    }

    let storage = Storage::with_seed(2048, 1_000, 29);
    let table = storage
        .create_table_with_data(
            TableSpec::new(
                "t",
                vec![
                    ColumnSpec::new("k", ColumnType::Int64),
                    ColumnSpec::new("v", ColumnType::Int64),
                ],
                30_000,
            ),
            vec![
                DataGen::Sequential { start: 0, step: 1 },
                DataGen::Uniform { min: 0, max: 100 },
            ],
        )
        .unwrap();
    let storage = Arc::new(storage);

    for name in ["clock", "sieve"] {
        let engine = Engine::new(
            Arc::clone(&storage),
            ScanShareConfig {
                page_size_bytes: 2048,
                chunk_tuples: 1_000,
                buffer_pool_bytes: 20 * 2048, // pressure
                ..Default::default()
            }
            .with_custom_policy(name),
        )
        .unwrap();
        assert_eq!(engine.backend().name(), name);
        for _ in 0..2 {
            let count = engine
                .query(table)
                .columns(["k", "v"])
                .aggregate(AggrSpec::global(vec![Aggregate::Count]))
                .run()
                .unwrap()[&0]
                .count;
            assert_eq!(count, 30_000, "{name}");
        }
        let stats = engine.buffer_stats();
        assert!(stats.evictions > 0, "{name}: no replacement pressure");
        assert_eq!(stats.io_bytes, stats.misses * 2048, "{name}");
    }
}
