//! The ABM decomposition invariance property.
//!
//! The Active Buffer Manager (`scanshare_core::abm`) splits the original
//! monolithic state machine into its state, a pure relevance core and a
//! load scheduler. The split must not change a single decision: this test
//! replays randomized CScan traces — staggered registrations, interleaved
//! `GetChunk` calls, load planning/completion, mid-flight aborts — through
//! the frozen original (`MonolithicAbm`, the executable spec) and through
//! the decomposed ABM, and asserts that the **entire op-level outcome log**
//! is byte-identical: chunk-delivery order per scan, every load plan
//! (chunk, page list, byte count), starvation probes, and the final
//! statistics / cached-bytes / I/O volume, plus every table's version count
//! and shared prefix after each (un)registration. One set of traces spans
//! two tables and three snapshot versions of one of them, and one pins the
//! weight of the shared-prefix bonus. A last test drives the decomposed ABM
//! from eight threads.

mod abm_reference;

use std::sync::Arc;

use abm_reference::MonolithicAbm;
use scanshare::core::abm::{Abm, AbmConfig, CScanRequest, LoadPlan};
use scanshare::prelude::*;
use scanshare::storage::datagen::{splitmix64, DataGen};

const PAGE: u64 = 1024;
const CHUNK: u64 = 1000;

fn setup(tuples: u64) -> (Arc<Storage>, TableId) {
    let storage = Storage::with_seed(PAGE, CHUNK, 23);
    let spec = TableSpec::new(
        "lineitem",
        vec![
            ColumnSpec::with_width("a", ColumnType::Int64, 4.0),
            ColumnSpec::with_width("b", ColumnType::Int64, 2.0),
            ColumnSpec::with_width("c", ColumnType::Int64, 1.0),
        ],
        tuples,
    );
    let table = storage
        .create_table_with_data(
            spec,
            vec![
                DataGen::Sequential { start: 0, step: 1 },
                DataGen::Constant(1),
                DataGen::Constant(2),
            ],
        )
        .unwrap();
    (storage, table)
}

/// Both implementations behind one op interface, so the trace driver is
/// shared verbatim.
enum AbmUnderTest {
    Monolithic(MonolithicAbm),
    Decomposed(Abm),
}

impl AbmUnderTest {
    fn register(&mut self, request: CScanRequest) -> scanshare::core::abm::CScanHandle {
        match self {
            AbmUnderTest::Monolithic(abm) => abm.register_cscan(request).unwrap(),
            AbmUnderTest::Decomposed(abm) => abm.register_cscan(request).unwrap(),
        }
    }
    fn unregister(&mut self, scan: scanshare::common::ScanId) {
        match self {
            AbmUnderTest::Monolithic(abm) => abm.unregister_cscan(scan).unwrap(),
            AbmUnderTest::Decomposed(abm) => abm.unregister_cscan(scan).unwrap(),
        }
    }
    fn get_chunk(
        &mut self,
        scan: scanshare::common::ScanId,
    ) -> Option<scanshare::core::abm::ChunkDelivery> {
        match self {
            AbmUnderTest::Monolithic(abm) => abm.get_chunk(scan).unwrap(),
            AbmUnderTest::Decomposed(abm) => abm.get_chunk(scan).unwrap(),
        }
    }
    fn next_load(&mut self) -> Option<LoadPlan> {
        let now = VirtualInstant::EPOCH;
        match self {
            AbmUnderTest::Monolithic(abm) => abm.next_load(now),
            AbmUnderTest::Decomposed(abm) => abm.next_load(now),
        }
    }
    fn complete_load(&mut self, plan: &LoadPlan) {
        let now = VirtualInstant::EPOCH;
        match self {
            AbmUnderTest::Monolithic(abm) => abm.complete_load(plan, now).unwrap(),
            AbmUnderTest::Decomposed(abm) => abm.complete_load(plan, now).unwrap(),
        }
    }
    fn is_finished(&self, scan: scanshare::common::ScanId) -> bool {
        match self {
            AbmUnderTest::Monolithic(abm) => abm.is_finished(scan),
            AbmUnderTest::Decomposed(abm) => abm.is_finished(scan),
        }
    }
    fn has_cached_chunk(&self, scan: scanshare::common::ScanId) -> bool {
        match self {
            AbmUnderTest::Monolithic(abm) => abm.has_cached_chunk(scan),
            AbmUnderTest::Decomposed(abm) => abm.has_cached_chunk(scan),
        }
    }
    fn remaining_chunks(&self, scan: scanshare::common::ScanId) -> usize {
        match self {
            AbmUnderTest::Monolithic(abm) => abm.remaining_chunks(scan),
            AbmUnderTest::Decomposed(abm) => abm.remaining_chunks(scan),
        }
    }
    fn version_count(&self, table: TableId) -> usize {
        match self {
            AbmUnderTest::Monolithic(abm) => abm.version_count(table),
            AbmUnderTest::Decomposed(abm) => abm.version_count(table),
        }
    }
    fn shared_prefix_chunks(&self, table: TableId) -> u32 {
        match self {
            AbmUnderTest::Monolithic(abm) => abm.shared_prefix_chunks(table),
            AbmUnderTest::Decomposed(abm) => abm.shared_prefix_chunks(table),
        }
    }
    /// Per table of the trace: its version count and shared prefix.
    fn table_states(&self, tables: &[TableId]) -> String {
        let states: Vec<String> = tables
            .iter()
            .map(|&t| {
                let (prefix, versions) = (self.shared_prefix_chunks(t), self.version_count(t));
                format!("{t} prefix={prefix} versions={versions}")
            })
            .collect();
        format!("tables {}", states.join("; "))
    }
    fn stats(&self) -> scanshare::core::BufferStats {
        match self {
            AbmUnderTest::Monolithic(abm) => abm.stats(),
            AbmUnderTest::Decomposed(abm) => abm.stats(),
        }
    }
    fn cached_bytes(&self) -> u64 {
        match self {
            AbmUnderTest::Monolithic(abm) => abm.cached_bytes(),
            AbmUnderTest::Decomposed(abm) => abm.cached_bytes(),
        }
    }
}

/// The randomized scan mix for one seed: overlapping ranges (so interest
/// counts matter), a couple of duplicated full scans (sharing), different
/// column subsets (page-union loads) and an occasional in-order scan.
fn scan_requests(
    storage: &Arc<Storage>,
    table: TableId,
    tuples: u64,
    seed: u64,
) -> Vec<CScanRequest> {
    let layout = storage.layout(table).unwrap();
    let snapshot = storage.master_snapshot(table).unwrap();
    let mut rng = seed | 1;
    let mut next = |limit: u64| -> u64 {
        rng = splitmix64(rng);
        if limit == 0 {
            0
        } else {
            rng % limit
        }
    };
    (0..6)
        .map(|i| {
            let span = (tuples / 6).max(CHUNK) * (1 + next(5));
            let span = span.min(tuples);
            let start = next((tuples - span).max(1));
            let columns = match next(3) {
                0 => vec![0, 1, 2],
                1 => vec![0, 1],
                _ => vec![0, 2],
            };
            CScanRequest {
                table,
                snapshot: Arc::clone(&snapshot),
                layout: Arc::clone(&layout),
                columns,
                ranges: RangeList::single(start, start + span),
                in_order: i == 4 && next(2) == 0,
            }
        })
        .collect()
}

/// Replays one randomized trace, returning the serialized outcome of every
/// operation (the byte-identical artefact the property compares).
fn run_trace(mut abm: AbmUnderTest, requests: Vec<CScanRequest>, seed: u64) -> Vec<String> {
    let mut log: Vec<String> = Vec::new();
    let mut tables: Vec<TableId> = requests.iter().map(|r| r.table).collect();
    tables.sort_unstable();
    tables.dedup();
    let mut to_register = requests;
    let mut active: Vec<scanshare::common::ScanId> = Vec::new();
    let mut rng = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    let mut next = |limit: u64| -> u64 {
        rng = splitmix64(rng);
        if limit == 0 {
            0
        } else {
            rng % limit
        }
    };
    let mut guard = 0u32;
    loop {
        guard += 1;
        assert!(guard < 200_000, "trace made no progress");
        let all_done = to_register.is_empty() && active.iter().all(|s| abm.is_finished(*s));
        if all_done {
            break;
        }
        let choice = next(10);
        if !to_register.is_empty() && (choice < 3 || active.is_empty()) {
            let handle = abm.register(to_register.remove(0));
            log.push(format!("register -> {handle:?}"));
            log.push(abm.table_states(&tables));
            active.push(handle.id);
            continue;
        }
        let unfinished: Vec<_> = active
            .iter()
            .copied()
            .filter(|s| !abm.is_finished(*s))
            .collect();
        if unfinished.is_empty() {
            continue;
        }
        let scan = unfinished[next(unfinished.len() as u64) as usize];
        if choice == 9 && active.len() > 1 {
            // Abort a scan mid-flight.
            abm.unregister(scan);
            active.retain(|s| *s != scan);
            log.push(format!("abort {scan:?}"));
            log.push(abm.table_states(&tables));
            continue;
        }
        if choice < 8 {
            log.push(format!(
                "probe {scan:?} cached={} remaining={}",
                abm.has_cached_chunk(scan),
                abm.remaining_chunks(scan)
            ));
            let delivery = abm.get_chunk(scan);
            log.push(format!("get {scan:?} -> {delivery:?}"));
            if delivery.is_some() {
                continue;
            }
        }
        // Starved (or a scheduled load step): drive the loader once.
        let plan = abm.next_load();
        log.push(format!("load -> {plan:?}"));
        if let Some(plan) = plan {
            abm.complete_load(&plan);
        }
    }
    // Unregister the survivors in randomized order.
    while !active.is_empty() {
        let scan = active.remove(next(active.len() as u64) as usize);
        abm.unregister(scan);
        log.push(format!("unregister {scan:?}"));
        log.push(abm.table_states(&tables));
    }
    log.push(format!(
        "final stats={:?} cached_bytes={}",
        abm.stats(),
        abm.cached_bytes()
    ));
    log
}

/// Replays one trace through the spec and the decomposed ABM, asserts the
/// logs are identical and returns the spec's.
fn assert_matches_spec(requests: Vec<CScanRequest>, capacity: u64, seed: u64) -> Vec<String> {
    let reference = run_trace(
        AbmUnderTest::Monolithic(MonolithicAbm::new(AbmConfig::new(capacity, PAGE))),
        requests.clone(),
        seed,
    );
    assert!(
        reference.iter().any(|line| line.starts_with("get")),
        "seed {seed}: trace must deliver chunks"
    );
    let decomposed = run_trace(
        AbmUnderTest::Decomposed(Abm::new(AbmConfig::new(capacity, PAGE))),
        requests,
        seed,
    );
    assert_eq!(
        decomposed.len(),
        reference.len(),
        "seed {seed}: trace lengths diverge"
    );
    for (idx, (got, want)) in decomposed.iter().zip(reference.iter()).enumerate() {
        assert_eq!(got, want, "seed {seed}: divergence at op {idx}");
    }
    reference
}

#[test]
fn decomposed_abm_matches_the_monolithic_spec() {
    const TUPLES: u64 = 12_000;
    let (storage, table) = setup(TUPLES);
    // Capacity of ~8 chunks of the widest column mix: real replacement
    // pressure, so KeepRelevance eviction and the protection rule fire.
    let capacity = 56 * PAGE;
    for seed in [1u64, 7, 42, 1234, 0xdead] {
        assert_matches_spec(scan_requests(&storage, table, TUPLES, seed), capacity, seed);
    }
}

/// Two tables, and three snapshot versions of one of them: the base image,
/// an append that shares a prefix with it and a disjoint checkpoint image.
/// Scans over all four snapshots, with differing column sets, check the
/// per-version chunk tables, the shared prefixes and the version lifetimes
/// against the spec (`version_count` and `shared_prefix_chunks` are logged
/// after every registration and unregistration).
#[test]
fn multi_table_multi_version_traces_match_the_spec() {
    const TUPLES: u64 = 12_000;
    let (storage, lineitem) = setup(TUPLES);
    let orders = storage
        .create_table_with_data(
            TableSpec::new(
                "orders",
                vec![
                    ColumnSpec::with_width("k", ColumnType::Int64, 8.0),
                    ColumnSpec::with_width("f", ColumnType::Int64, 1.0),
                ],
                6_000,
            ),
            vec![
                DataGen::Sequential { start: 0, step: 1 },
                DataGen::Constant(3),
            ],
        )
        .unwrap();
    let layout = storage.layout(lineitem).unwrap();
    let base = storage.master_snapshot(lineitem).unwrap();
    let mut tx = storage.begin_append(lineitem).unwrap();
    tx.append_rows(&[vec![1; 3_000], vec![2; 3_000], vec![3; 3_000]])
        .unwrap();
    let appended = tx.commit().unwrap();
    let checkpoint = storage
        .install_checkpoint(lineitem, appended.id(), vec![vec![0; 14_000]; 3])
        .unwrap();
    assert!(base.shared_prefix_tuples(&appended, &layout) >= 4 * CHUNK);
    assert_eq!(base.shared_prefix_tuples(&checkpoint, &layout), 0);
    let snapshots = [
        (
            lineitem,
            base,
            &[vec![0, 1, 2], vec![0, 1], vec![2], vec![1, 2]][..],
        ),
        (
            lineitem,
            appended,
            &[vec![0, 1, 2], vec![0, 2], vec![1]][..],
        ),
        (lineitem, checkpoint, &[vec![0, 1, 2], vec![2]][..]),
        (
            orders,
            storage.master_snapshot(orders).unwrap(),
            &[vec![0, 1], vec![1]][..],
        ),
    ];

    let mut saw_three_versions = false;
    let mut saw_shared_prefix = false;
    for seed in [3u64, 11, 99, 2024] {
        let mut rng = seed | 1;
        let mut next = |limit: u64| -> u64 {
            rng = splitmix64(rng);
            rng % limit.max(1)
        };
        let requests: Vec<CScanRequest> = (0..9)
            .map(|i| {
                // Every snapshot at least twice, then a random one.
                let (table, snapshot, column_sets) = &snapshots[if i < 8 {
                    i % snapshots.len()
                } else {
                    next(snapshots.len() as u64) as usize
                }];
                let stable = snapshot.stable_tuples();
                let span = (CHUNK * (2 + next(stable / CHUNK))).min(stable);
                let start = next(stable - span + 1);
                CScanRequest {
                    table: *table,
                    snapshot: Arc::clone(snapshot),
                    layout: storage.layout(*table).unwrap(),
                    columns: column_sets[next(column_sets.len() as u64) as usize].clone(),
                    ranges: RangeList::single(start, start + span),
                    in_order: next(5) == 0,
                }
            })
            .collect();
        let log = assert_matches_spec(requests, 48 * PAGE, seed);
        let states: Vec<&String> = log.iter().filter(|l| l.starts_with("tables")).collect();
        saw_three_versions |= states.iter().any(|l| l.contains("versions=3"));
        let unshared = format!("{lineitem} prefix=0 ");
        saw_shared_prefix |= states.iter().any(|l| !l.contains(&unshared));
    }
    assert!(
        saw_three_versions,
        "no trace held all three versions at once"
    );
    assert!(saw_shared_prefix, "no trace marked a shared prefix");
}

/// The magnitude of the shared-chunk bonus is part of the spec. Two scans
/// of one snapshot share it up to its last whole chunk, so the partial
/// chunk 12 is the one local chunk. Scan A wants every chunk, scan B only
/// chunks 11 and 12: once chunk 11 is loaded, A chooses between shared
/// chunks only it wants and the local chunk both want, and a bonus of one
/// interested scan or more flips that choice.
#[test]
fn the_shared_prefix_bonus_weighs_less_than_one_interested_scan() {
    const TUPLES: u64 = 12_500;
    let (storage, table) = setup(TUPLES);
    let request = |start: u64| CScanRequest {
        table,
        snapshot: storage.master_snapshot(table).unwrap(),
        layout: storage.layout(table).unwrap(),
        columns: vec![0, 1, 2],
        ranges: RangeList::single(start, TUPLES),
        in_order: false,
    };
    for seed in 0..16u64 {
        assert_matches_spec(vec![request(0), request(11 * CHUNK)], 48 * PAGE, seed);
    }
}

#[test]
fn headroom_traces_are_also_invariant_and_load_each_page_once() {
    const TUPLES: u64 = 10_000;
    let (storage, table) = setup(TUPLES);
    let layout = storage.layout(table).unwrap();
    let snapshot = storage.master_snapshot(table).unwrap();
    // Two identical full scans plus a suffix scan, plenty of buffer.
    let requests: Vec<CScanRequest> = [
        (0u64, TUPLES, vec![0usize, 1, 2]),
        (0, TUPLES, vec![0, 1, 2]),
        (5 * CHUNK, TUPLES, vec![0, 1, 2]),
    ]
    .into_iter()
    .map(|(start, end, columns)| CScanRequest {
        table,
        snapshot: Arc::clone(&snapshot),
        layout: Arc::clone(&layout),
        columns,
        ranges: RangeList::single(start, end),
        in_order: false,
    })
    .collect();
    let reference = assert_matches_spec(requests, 1 << 22, 3);
    // With headroom, the trace ends with every distinct page loaded once:
    // 4+2+1 bytes/tuple over 10k tuples = 70 pages.
    let last = reference.last().unwrap();
    assert!(
        last.contains("io_bytes: 71680"),
        "unexpected final line {last}"
    );
}

/// The chunk protocol over a warm cache, from concurrent threads: a keeper
/// scan that never consumes pins every chunk in the cache, so eight threads
/// registering scans over cached subranges must drain every chunk of every
/// scan without a single load, and every delivery must be counted.
#[test]
fn warm_abm_serves_concurrent_scans_without_loads() {
    const CHUNKS: u64 = 32;
    const SPAN_CHUNKS: u64 = 8;
    const STREAMS: u64 = 8;
    const QUERIES: u64 = 16;
    let (storage, table) = setup(CHUNKS * CHUNK);
    let layout = storage.layout(table).unwrap();
    let snapshot = storage.master_snapshot(table).unwrap();
    let request = |start: u64, end: u64| CScanRequest {
        table,
        snapshot: Arc::clone(&snapshot),
        layout: Arc::clone(&layout),
        columns: vec![0, 1],
        ranges: RangeList::single(start, end),
        in_order: false,
    };
    let now = VirtualInstant::EPOCH;

    let abm = Abm::new(AbmConfig::new(1 << 22, PAGE));
    let keeper = abm.register_cscan(request(0, CHUNKS * CHUNK)).unwrap();
    while let Some(plan) = abm.next_load(now) {
        abm.complete_load(&plan, now).unwrap();
    }
    let warm_io = abm.stats().io_bytes;

    std::thread::scope(|scope| {
        for stream in 0..STREAMS {
            let (abm, request) = (&abm, &request);
            scope.spawn(move || {
                for q in 0..QUERIES {
                    let start = ((stream * 7 + q * 3) % (CHUNKS - SPAN_CHUNKS)) * CHUNK;
                    let handle = abm
                        .register_cscan(request(start, start + SPAN_CHUNKS * CHUNK))
                        .unwrap();
                    let mut delivered = 0;
                    while abm.get_chunk(handle.id).unwrap().is_some() {
                        delivered += 1;
                    }
                    assert_eq!(
                        delivered, handle.total_chunks,
                        "a warm ABM delivers every chunk without loads"
                    );
                    abm.unregister_cscan(handle.id).unwrap();
                }
            });
        }
    });

    let stats = abm.stats();
    abm.unregister_cscan(keeper.id).unwrap();
    assert_eq!(stats.io_bytes, warm_io, "the drain loaded");
    assert_eq!(stats.hits, STREAMS * QUERIES * SPAN_CHUNKS);
}
