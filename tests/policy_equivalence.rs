//! Cross-crate integration tests: every buffer-management policy must return
//! byte-identical query results on the same database state, including under
//! trickle updates, bulk appends and checkpoints.

use std::sync::Arc;

use scanshare::prelude::*;

fn build(policy: PolicyKind, storage: &Arc<Storage>) -> Arc<Engine> {
    let config = ScanShareConfig {
        page_size_bytes: 64 * 1024,
        chunk_tuples: 10_000,
        buffer_pool_bytes: 2 << 20,
        policy,
        ..Default::default()
    };
    Engine::new(Arc::clone(storage), config).expect("engine")
}

fn lineitem_storage(tuples: u64) -> (Arc<Storage>, TableId) {
    let storage = Storage::with_seed(64 * 1024, 10_000, 21);
    let table = scanshare::workload::microbench::setup_lineitem(&storage, tuples).unwrap();
    (storage, table)
}

fn q1(engine: &Arc<Engine>, table: TableId, rows: u64) -> Vec<(i64, i64, u64)> {
    let result = engine
        .query(table)
        .columns([
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_tax",
            "l_returnflag",
            "l_linestatus",
            "l_shipdate",
        ])
        .range(..rows)
        .filter(Predicate::new(6, CompareOp::Le, 10_200))
        .aggregate(AggrSpec::grouped(
            4,
            vec![Aggregate::Sum(0), Aggregate::Count],
        ))
        .parallelism(4)
        .run()
        .expect("q1");
    result
        .iter()
        .map(|(k, g)| (*k, g.accumulators[0], g.count))
        .collect()
}

#[test]
fn all_policies_agree_on_a_read_only_workload() {
    let (storage, table) = lineitem_storage(120_000);
    let mut reference = None;
    for policy in [
        PolicyKind::Lru,
        PolicyKind::Pbm,
        PolicyKind::Opt,
        PolicyKind::CScan,
    ] {
        let engine = build(policy, &storage);
        let rows = engine.visible_rows(table).unwrap();
        let answer = q1(&engine, table, rows);
        assert!(!answer.is_empty());
        match &reference {
            None => reference = Some(answer),
            Some(expected) => assert_eq!(expected, &answer, "policy {policy} diverged"),
        }
        // Every policy must actually have performed I/O through its manager.
        assert!(engine.buffer_stats().io_bytes > 0, "{policy} did no I/O");
    }
}

#[test]
fn all_policies_agree_after_updates_appends_and_checkpoint() {
    let (storage, table) = lineitem_storage(60_000);

    // Apply trickle updates through one engine (the PDT is shared via storage
    // state? No: PDTs are engine-local, so apply them via a single engine and
    // checkpoint to make them durable for all engines).
    let writer = build(PolicyKind::Pbm, &storage);
    for i in 0..50 {
        writer.delete_row(table, i * 7).unwrap();
    }
    for i in 0..20 {
        writer
            .insert_row(table, i * 11, vec![1, 2, 3, 4, 0, 1, 9_000 + i as i64])
            .unwrap();
    }
    for i in 0..30 {
        writer.update_value(table, i * 13, 1, -5).unwrap();
    }
    let visible_before = writer.visible_rows(table).unwrap();
    let expected = q1(&writer, table, visible_before);

    // Checkpoint so the merged state becomes the stable image every engine sees.
    let snapshot = writer.checkpoint(table).unwrap();
    assert_eq!(snapshot.stable_tuples(), visible_before);

    // A bulk append on top of the checkpointed image.
    let mut tx = storage.begin_append(table).unwrap();
    tx.append_rows(&[
        vec![5; 100],
        vec![50; 100],
        vec![1; 100],
        vec![1; 100],
        vec![0; 100],
        vec![1; 100],
        vec![9_100; 100],
    ])
    .unwrap();
    tx.commit().unwrap();

    let mut reference = None;
    for policy in [PolicyKind::Lru, PolicyKind::Pbm, PolicyKind::CScan] {
        let engine = build(policy, &storage);
        let rows = engine.visible_rows(table).unwrap();
        assert_eq!(rows, visible_before + 100);
        let answer = q1(&engine, table, rows);
        match &reference {
            None => reference = Some(answer),
            Some(exp) => assert_eq!(exp, &answer, "policy {policy} diverged after updates"),
        }
    }
    // The checkpoint must have changed the answer relative to the pre-update
    // state in a predictable way (more rows with the appended shipdate 9100).
    let post = reference.unwrap();
    let total_rows: u64 = post.iter().map(|(_, _, c)| c).sum();
    let expected_rows: u64 = expected.iter().map(|(_, _, c)| c).sum();
    assert_eq!(total_rows, expected_rows + 100);
}

#[test]
fn scan_and_cscan_coexist_on_the_same_abm_engine() {
    let (storage, table) = lineitem_storage(50_000);
    let engine = build(PolicyKind::CScan, &storage);
    // In-order CScan (drop-in Scan replacement) and a normal out-of-order
    // CScan running against the same ABM must both return the full table.
    let scan = |in_order| {
        let pin = engine.table_pin(table).unwrap();
        let columns = ["l_quantity", "l_shipdate"];
        engine
            .scan_pinned(pin, &columns, TupleRange::new(0, 50_000), in_order, None)
            .unwrap()
    };
    let mut in_order = scan(true);
    let mut out_of_order = scan(false);

    let mut rows_in_order = 0usize;
    let mut rows_out_of_order = 0usize;
    loop {
        let a = in_order.next_batch().unwrap();
        let b = out_of_order.next_batch().unwrap();
        if let Some(batch) = &a {
            rows_in_order += batch.len();
        }
        if let Some(batch) = &b {
            rows_out_of_order += batch.len();
        }
        if a.is_none() && b.is_none() {
            break;
        }
    }
    assert_eq!(rows_in_order, 50_000);
    assert_eq!(rows_out_of_order, 50_000);
}
