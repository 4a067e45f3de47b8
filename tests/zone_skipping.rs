//! Zone-map correctness properties: data skipping is an optimization, never
//! a semantics change. Randomized (but seeded and deterministic) predicated
//! queries must return byte-identical results with zone maps on and off,
//! across every policy; pruning must survive checkpoints
//! and cold restarts, and must disable itself while uncheckpointed updates
//! are pending.

use std::sync::Arc;

use scanshare::prelude::*;
use scanshare::workload::skipping::{self, SkippingConfig};

const PAGE: u64 = 16 * 1024;
const CHUNK: u64 = 1_000;
const TUPLES: u64 = 30_000;

/// splitmix64: the same tiny deterministic generator the storage layer's
/// datagen uses, so the test needs no RNG dependency.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn events_config() -> SkippingConfig {
    SkippingConfig {
        streams: 1,
        queries_per_stream: 1,
        tuples: TUPLES,
        selectivities: vec![1.0],
        value_span: 10_000,
        seed: 0x20e5,
    }
}

fn events_storage() -> (Arc<Storage>, TableId) {
    let storage = Storage::with_seed(PAGE, CHUNK, 0x20e5);
    let table = skipping::setup_events(&storage, &events_config()).unwrap();
    (storage, table)
}

fn engine(storage: &Arc<Storage>, policy: PolicyKind, zone_maps: bool) -> Arc<Engine> {
    Engine::new(
        Arc::clone(storage),
        ScanShareConfig {
            page_size_bytes: PAGE,
            chunk_tuples: CHUNK,
            buffer_pool_bytes: 8 << 20,
            policy,
            zone_maps,
            ..Default::default()
        },
    )
    .unwrap()
}

/// A deterministic pseudo-random predicate: any column, any operator, a
/// value drawn from (slightly beyond) that column's data span.
fn random_predicate(rng: &mut u64) -> Predicate {
    let column = (splitmix64(rng) % 3) as usize;
    let op = match splitmix64(rng) % 5 {
        0 => CompareOp::Lt,
        1 => CompareOp::Le,
        2 => CompareOp::Gt,
        3 => CompareOp::Ge,
        _ => CompareOp::Eq,
    };
    let span = match column {
        0 => TUPLES + TUPLES / 10,
        1 => 11_000,
        _ => 1_100_000,
    };
    Predicate::new(column, op, (splitmix64(rng) % span) as i64)
}

/// A deterministic pseudo-random scan range within the table.
fn random_range(rng: &mut u64) -> (u64, u64) {
    let a = splitmix64(rng) % (TUPLES + 1);
    let b = splitmix64(rng) % (TUPLES + 1);
    (a.min(b), a.max(b))
}

fn predicated_rows(
    engine: &Arc<Engine>,
    table: TableId,
    pred: Predicate,
    range: (u64, u64),
) -> Vec<Vec<i64>> {
    engine
        .query(table)
        .columns(["ev_key", "ev_value", "ev_payload"])
        .range(range.0..range.1)
        .filter(pred)
        .in_order()
        .rows()
        .unwrap()
}

/// The tentpole property: for a few dozen randomized predicates and ranges,
/// every policy returns byte-identical rows with zone maps
/// enabled and disabled — and the enabled runs actually pruned something.
#[test]
fn random_predicates_return_identical_rows_with_zone_maps_on_and_off() {
    let (storage, table) = events_storage();
    let mut rng = 0xdecaf_u64;
    let mut queries: Vec<(Predicate, (u64, u64))> = (0..24)
        .map(|_| (random_predicate(&mut rng), random_range(&mut rng)))
        .collect();
    // A guaranteed-selective probe on the clustered key, so the pruning
    // counter below cannot be satisfied vacuously.
    queries.push((
        Predicate::new(0, CompareOp::Lt, (TUPLES / 100) as i64),
        (0, TUPLES),
    ));

    let reference = engine(&storage, PolicyKind::Lru, false);
    for (pred, range) in &queries {
        let expected = predicated_rows(&reference, table, *pred, *range);
        for policy in [PolicyKind::Lru, PolicyKind::Pbm, PolicyKind::CScan] {
            let on = engine(&storage, policy, true);
            assert_eq!(
                predicated_rows(&on, table, *pred, *range),
                expected,
                "{policy} pred {pred:?} range {range:?}"
            );
        }
    }

    // Re-run the whole battery on one zones-on engine to check pruning
    // actually engaged (per-engine stats accumulate across queries).
    let on = engine(&storage, PolicyKind::Pbm, true);
    for (pred, range) in &queries {
        let _ = predicated_rows(&on, table, *pred, *range);
    }
    assert!(
        on.buffer_stats().pruned_tuples > 0,
        "the randomized battery must exercise real pruning"
    );
    assert_eq!(reference.buffer_stats().pruned_tuples, 0);
}

/// Aggregates (not just row streams) are byte-identical too, under the
/// aggregation path's out-of-order delivery.
#[test]
fn aggregates_are_identical_with_zone_maps_on_and_off() {
    let (storage, table) = events_storage();
    let pred = Predicate::new(0, CompareOp::Lt, (TUPLES / 50) as i64);
    let aggr = |zone_maps: bool, policy: PolicyKind| {
        let engine = engine(&storage, policy, zone_maps);
        engine
            .query(table)
            .columns(["ev_key", "ev_value", "ev_payload"])
            .filter(pred)
            .aggregate(AggrSpec::global(vec![
                Aggregate::Count,
                Aggregate::Sum(1),
                Aggregate::Sum(2),
            ]))
            .run()
            .unwrap()
    };
    let expected = aggr(false, PolicyKind::Lru);
    assert_eq!(expected[&0].count, TUPLES / 50);
    for policy in [PolicyKind::Lru, PolicyKind::Pbm, PolicyKind::CScan] {
        assert_eq!(aggr(true, policy), expected, "{policy}");
    }
}

/// Pending updates disable pruning (a PDT modify can make a base-failing
/// row match), and a checkpoint — which rebuilds the zone maps over the
/// merged image — re-enables it with the updated bounds.
#[test]
fn updates_gate_pruning_and_checkpoints_rebuild_the_zones() {
    let (storage, table) = events_storage();
    let eng = engine(&storage, PolicyKind::Pbm, true);
    let pred = Predicate::new(0, CompareOp::Lt, 100);
    let base = predicated_rows(&eng, table, pred, (0, TUPLES));
    assert_eq!(base.len(), 100);
    let pruned_before = eng.buffer_stats().pruned_tuples;
    assert!(pruned_before > 0);

    // Make a row deep in the pruned region match the predicate. The gate
    // must stop pruning immediately: the new row appears.
    eng.update_value(table, TUPLES - 5, 0, 50).unwrap();
    let with_update = predicated_rows(&eng, table, pred, (0, TUPLES));
    assert_eq!(with_update.len(), 101, "the updated row must match");
    assert_eq!(
        eng.buffer_stats().pruned_tuples,
        pruned_before,
        "no pruning while the update is pending"
    );

    // Checkpoint: zones are rebuilt over the merged image; pruning resumes
    // and the chunk containing the updated row survives it.
    eng.checkpoint(table).unwrap();
    let after_ckpt = predicated_rows(&eng, table, pred, (0, TUPLES));
    assert_eq!(after_ckpt, with_update);
    assert!(
        eng.buffer_stats().pruned_tuples > pruned_before,
        "pruning must resume after the checkpoint"
    );
}

/// Zone maps persist in the checkpoint manifest: a cold restart from disk
/// prunes exactly like the pre-crash engine and returns identical rows.
#[test]
fn zone_maps_survive_a_cold_restart() {
    struct TestDir(std::path::PathBuf);
    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
    let dir = TestDir(
        std::env::temp_dir().join(format!("scanshare-zones-reopen-{}", std::process::id())),
    );
    std::fs::create_dir_all(&dir.0).unwrap();

    let (storage, table) = events_storage();
    let config = ScanShareConfig {
        page_size_bytes: PAGE,
        chunk_tuples: CHUNK,
        buffer_pool_bytes: 8 << 20,
        policy: PolicyKind::Pbm,
        zone_maps: true,
        ..Default::default()
    };
    let eng = Engine::new(storage, config.clone().with_wal_dir(&dir.0)).unwrap();
    let pred = Predicate::new(0, CompareOp::Lt, 700);
    eng.update_value(table, 10, 1, -9).unwrap();
    eng.checkpoint(table).unwrap();
    let expected = predicated_rows(&eng, table, pred, (0, TUPLES));
    assert_eq!(expected.len(), 700);
    assert_eq!(expected[10][1], -9);
    drop(eng);

    let recovered = Engine::recover(&dir.0, config).unwrap();
    assert_eq!(
        predicated_rows(&recovered, table, pred, (0, TUPLES)),
        expected
    );
    assert!(
        recovered.buffer_stats().pruned_tuples > 0,
        "the reopened engine must prune from the manifest-loaded zones"
    );
}
