//! Snapshot isolation of the PdtStack transaction layer: randomized traces
//! against a model, no torn reads across concurrent commits and
//! checkpoints, first-committer-wins semantics spanning checkpoints, and
//! the regression test proving writers make progress while a checkpoint
//! materializes (the old implementation held the table's PDT write lock for
//! the whole materialization).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use scanshare::prelude::*;
use scanshare::storage::datagen::splitmix64;

fn build_storage(tuples: u64) -> (Arc<Storage>, TableId) {
    let storage = Storage::with_seed(4 * 1024, 2_000, 0xdead);
    let table = storage
        .create_table_with_data(
            TableSpec::new(
                "t",
                vec![
                    ColumnSpec::with_width("k", ColumnType::Int64, 8.0),
                    ColumnSpec::with_width("v", ColumnType::Int64, 8.0),
                ],
                tuples,
            ),
            vec![
                DataGen::Sequential { start: 0, step: 1 },
                DataGen::Sequential { start: 0, step: 1 },
            ],
        )
        .unwrap();
    (storage, table)
}

fn build_engine(policy: PolicyKind, tuples: u64, pool_bytes: u64) -> (Arc<Engine>, TableId) {
    let (storage, table) = build_storage(tuples);
    let config = ScanShareConfig {
        page_size_bytes: 4 * 1024,
        chunk_tuples: 2_000,
        buffer_pool_bytes: pool_bytes,
        policy,
        ..Default::default()
    };
    (Engine::new(storage, config).unwrap(), table)
}

/// Reads the whole table through one consistent pin; returns the pinned
/// visible count and the materialized rows.
fn pinned_read(engine: &Arc<Engine>, table: TableId) -> (u64, Vec<Vec<i64>>) {
    let pin = engine.table_pin(table).unwrap();
    let expected = pin.visible_rows();
    let mut scan = engine
        .scan_pinned(pin, &["k", "v"], TupleRange::new(0, u64::MAX), true, None)
        .unwrap();
    let mut rows = Vec::new();
    while let Some(batch) = scan.next_batch().unwrap() {
        rows.extend(batch.to_rows());
    }
    (expected, rows)
}

// ---------------------------------------------------------------------------
// Randomized trace vs. a model: every scan observes exactly its
// begin-snapshot, across interleaved transactions and checkpoints
// ---------------------------------------------------------------------------

#[test]
fn randomized_update_checkpoint_trace_matches_model() {
    for policy in [PolicyKind::Lru, PolicyKind::Pbm, PolicyKind::CScan] {
        for seed in [1u64, 7, 42] {
            let (engine, table) = build_engine(policy, 500, 1 << 20);
            let mut model: Vec<(i64, i64)> = (0..500).map(|i| (i, i)).collect();
            let mut state = seed | 1;
            let mut next = |limit: u64| -> u64 {
                state = splitmix64(state);
                if limit == 0 {
                    0
                } else {
                    state % limit
                }
            };
            for step in 0..120 {
                match next(10) {
                    0..=2 => {
                        // Insert through a transaction.
                        let rid = next(model.len() as u64 + 1) as usize;
                        let val = 10_000 + step;
                        let mut txn = engine.begin();
                        txn.insert(table, rid as u64, vec![val, val]).unwrap();
                        txn.commit().unwrap();
                        model.insert(rid, (val, val));
                    }
                    3..=4 => {
                        if !model.is_empty() {
                            let rid = next(model.len() as u64);
                            engine.delete_row(table, rid).unwrap();
                            model.remove(rid as usize);
                        }
                    }
                    5..=6 => {
                        if !model.is_empty() {
                            let rid = next(model.len() as u64);
                            let val = 20_000 + step;
                            let mut txn = engine.begin();
                            txn.modify(table, rid, 0, val).unwrap();
                            txn.modify(table, rid, 1, val).unwrap();
                            txn.commit().unwrap();
                            model[rid as usize] = (val, val);
                        }
                    }
                    7 => {
                        engine.checkpoint(table).unwrap();
                    }
                    _ => {
                        // A scan pinned *before* further updates: capture
                        // the pin, mutate, then read through the stale pin —
                        // it must still see the pre-mutation model.
                        let pin = engine.table_pin(table).unwrap();
                        let before = model.clone();
                        if !model.is_empty() {
                            engine.delete_row(table, 0).unwrap();
                            model.remove(0);
                        }
                        let mut scan = engine
                            .scan_pinned(pin, &["k", "v"], TupleRange::new(0, u64::MAX), true, None)
                            .unwrap();
                        let mut rows = Vec::new();
                        while let Some(batch) = scan.next_batch().unwrap() {
                            rows.extend(batch.to_rows());
                        }
                        let expected: Vec<Vec<i64>> =
                            before.iter().map(|&(k, v)| vec![k, v]).collect();
                        assert_eq!(rows, expected, "{policy} seed {seed} step {step}");
                    }
                }
                // The committed state always matches the model exactly.
                let (visible, rows) = pinned_read(&engine, table);
                assert_eq!(visible as usize, model.len(), "{policy} seed {seed}");
                let expected: Vec<Vec<i64>> = model.iter().map(|&(k, v)| vec![k, v]).collect();
                assert_eq!(rows, expected, "{policy} seed {seed} step {step}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The engine's transaction layer vs. the table state it wraps
// ---------------------------------------------------------------------------

/// `Engine::{begin, commit, checkpoint}` add locks, a log and a backend
/// around `pdt::TableState`; they must not change what it computes. The same
/// seeded update batches and checkpoint cadence, driven through an engine
/// and through a bare state over an identically built storage (the
/// simulator's side of the mixed-workload parity), publish the same pin
/// after every round.
#[test]
fn engine_and_bare_table_state_publish_the_same_pin_every_round() {
    use scanshare::pdt::{checkpoint_stack, encode_commit, CommitTableRecord};
    use scanshare::pdt::{TableState, TableWrites};
    use scanshare::workload::spec::UpdateOp;

    fn fingerprint(pin: &TablePin) -> (Vec<u8>, u64, u64, u64) {
        let flat = encode_commit(&[CommitTableRecord {
            table: pin.table,
            commit_seq: 0,
            visible_before: 0,
            pdt: pin.flatten().unwrap(),
        }]);
        (flat, pin.visible_rows(), pin.commit_seq, pin.epoch)
    }

    let (engine, table) = build_engine(PolicyKind::Pbm, 500, 1 << 20);
    let (storage, bare_table) = build_storage(500);
    assert_eq!(table, bare_table);
    let mut state = TableState::open(&storage, table).unwrap();
    let spec = UpdateStreamSpec {
        label: "updates".into(),
        table,
        ops_per_round: 24,
        mix: UpdateMix::balanced(),
        checkpoint_every: Some(3),
        seed: 0xfeed,
    };
    let (mut engine_ops, mut bare_ops) = (spec.ops(), spec.ops());

    for round in 0..8 {
        let mut txn = engine.begin();
        let mut writes = TableWrites::new(state.pin());
        for _ in 0..spec.ops_per_round {
            let visible = txn.visible_rows(table).unwrap();
            match engine_ops.next_op(visible, 2) {
                UpdateOp::Insert { rid, row } => txn.insert(table, rid, row).unwrap(),
                UpdateOp::Delete { rid } => txn.delete(table, rid).unwrap(),
                UpdateOp::Modify { rid, col, value } => txn.modify(table, rid, col, value).unwrap(),
            }
            match bare_ops.next_op(writes.visible_rows(), 2) {
                UpdateOp::Insert { rid, row } => writes.insert(rid, row).unwrap(),
                UpdateOp::Delete { rid } => writes.delete(rid).unwrap(),
                UpdateOp::Modify { rid, col, value } => writes.modify(rid, col, value).unwrap(),
            }
        }
        txn.commit().unwrap();
        let record = state
            .commit_record(writes)
            .unwrap()
            .expect("a written batch");
        state.apply(&record).unwrap();
        if spec.checkpoint_due(round) {
            engine.checkpoint(table).unwrap();
            let frozen = state.freeze();
            let image = checkpoint_stack(&storage, table, &frozen.snapshot, &frozen.stack).unwrap();
            state.install(&frozen, image);
        }
        assert_eq!(
            fingerprint(&engine.table_pin(table).unwrap()),
            fingerprint(&state.pin()),
            "round {round}"
        );
    }
    let pin = state.pin();
    assert_eq!((pin.commit_seq, pin.epoch), (8, 2));
    assert!(!pin.stack.is_empty(), "rounds 6 and 7 are still pending");
}

// ---------------------------------------------------------------------------
// Concurrent writers + checkpoints + readers: no torn reads
// ---------------------------------------------------------------------------

/// Writers keep the invariant `k == v` on every row by updating both
/// columns inside one transaction; a checkpointer migrates the PDTs to new
/// stable images throughout. Any reader observing `k != v`, or a row count
/// different from its own pin's visible count, saw a torn (non-snapshot)
/// state.
#[test]
fn concurrent_scans_never_observe_torn_state() {
    for policy in [PolicyKind::Lru, PolicyKind::CScan] {
        let (engine, table) = build_engine(policy, 2_000, 1 << 20);
        let stop = AtomicBool::new(false);
        let commits = AtomicU64::new(0);
        let conflicts = AtomicU64::new(0);

        std::thread::scope(|scope| {
            // Two writer threads: paired modifies, inserts and deletes,
            // always preserving k == v; conflicts are retried ambient work.
            for w in 0..2u64 {
                let engine = Arc::clone(&engine);
                let (stop, commits, conflicts) = (&stop, &commits, &conflicts);
                scope.spawn(move || {
                    let mut state = 0x5eed ^ w;
                    let mut step = 0i64;
                    while !stop.load(Ordering::Relaxed) {
                        state = splitmix64(state);
                        step += 1;
                        let val = (w as i64 + 1) * 1_000_000 + step;
                        let mut txn = engine.begin();
                        let visible = txn.visible_rows(table).unwrap();
                        let result = match state % 4 {
                            0 => txn
                                .insert(table, state % (visible + 1), vec![val, val])
                                .and_then(|()| txn.commit()),
                            1 if visible > 500 => txn
                                .delete(table, state % visible)
                                .and_then(|()| txn.commit()),
                            _ => {
                                let rid = state % visible.max(1);
                                txn.modify(table, rid, 0, val)
                                    .and_then(|()| txn.modify(table, rid, 1, val))
                                    .and_then(|()| txn.commit())
                            }
                        };
                        match result {
                            Ok(()) => {
                                commits.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(scanshare::common::Error::TransactionConflict(_)) => {
                                conflicts.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(other) => panic!("writer failed: {other}"),
                        }
                    }
                });
            }
            // A background checkpointer.
            {
                let engine = Arc::clone(&engine);
                let stop = &stop;
                scope.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        engine.checkpoint(table).unwrap();
                    }
                });
            }
            // Readers: every scan must see a consistent snapshot.
            for _ in 0..2 {
                let engine = Arc::clone(&engine);
                let stop = &stop;
                scope.spawn(move || {
                    let mut reads = 0;
                    while reads < 30 {
                        let (expected, rows) = pinned_read(&engine, table);
                        assert_eq!(
                            rows.len() as u64,
                            expected,
                            "scan saw a row count different from its pinned snapshot"
                        );
                        for row in &rows {
                            assert_eq!(
                                row[0], row[1],
                                "torn read: a scan observed half of a paired update"
                            );
                        }
                        reads += 1;
                    }
                    stop.store(true, Ordering::Relaxed);
                });
            }
        });

        assert!(
            commits.load(Ordering::Relaxed) > 0,
            "{policy}: writers must have committed during the run"
        );
        // The final state is consistent too.
        let (expected, rows) = pinned_read(&engine, table);
        assert_eq!(rows.len() as u64, expected);
        assert!(rows.iter().all(|r| r[0] == r[1]));
    }
}

// ---------------------------------------------------------------------------
// Transactions spanning checkpoints
// ---------------------------------------------------------------------------

#[test]
fn transactions_span_checkpoints_without_conflicting() {
    let (engine, table) = build_engine(PolicyKind::Lru, 400, 1 << 20);
    // A checkpoint changes the anchoring, never the visible stream: a
    // transaction that began before it commits cleanly afterwards.
    let mut txn = engine.begin();
    txn.modify(table, 7, 1, -7).unwrap();
    engine.checkpoint(table).unwrap();
    txn.commit().unwrap();
    let rows = engine
        .query(table)
        .columns(["v"])
        .range(7..8)
        .rows()
        .unwrap();
    assert_eq!(rows[0], vec![-7]);

    // But another committer during the checkpoint window still conflicts.
    let mut loser = engine.begin();
    loser.modify(table, 0, 1, -1).unwrap();
    engine.update_value(table, 1, 1, -2).unwrap();
    engine.checkpoint(table).unwrap();
    assert!(matches!(
        loser.commit().unwrap_err(),
        scanshare::common::Error::TransactionConflict(_)
    ));
}

// ---------------------------------------------------------------------------
// Checkpoints vs. concurrent bulk appends
// ---------------------------------------------------------------------------

/// A checkpoint installation is a compare-and-swap against the snapshot it
/// materialized from: a bulk append that commits while the checkpoint
/// materializes wins, and the checkpoint fails with `TransactionConflict`
/// instead of silently discarding the appended rows.
#[test]
fn checkpoint_yields_to_a_concurrent_bulk_append() {
    let (engine, table) = build_engine(PolicyKind::Lru, 400, 1 << 20);
    engine.update_value(table, 0, 1, -1).unwrap();
    let storage = Arc::clone(engine.storage());

    // The snapshot a checkpoint would have frozen...
    let stale = storage.master_snapshot(table).unwrap();
    // ...then an append commits during its materialization window.
    let mut tx = storage.begin_append(table).unwrap();
    tx.append_rows(&[vec![1000], vec![1000]]).unwrap();
    let appended = tx.commit().unwrap();

    // Installing against the stale snapshot must now fail...
    let err = scanshare::pdt::checkpoint_table(&storage, table, &stale, &Pdt::new(2)).unwrap_err();
    assert!(matches!(
        err,
        scanshare::common::Error::TransactionConflict(_)
    ));
    // ...and the appended image stays master.
    assert_eq!(storage.master_snapshot(table).unwrap().id(), appended.id());

    // The engine-level checkpoint adopts the appended image and succeeds:
    // appended row and pending update both survive into the new image.
    let snapshot = engine.checkpoint(table).unwrap();
    assert_eq!(snapshot.stable_tuples(), 401);
    let (visible, rows) = pinned_read(&engine, table);
    assert_eq!(visible, 401);
    assert_eq!(rows[0], vec![0, -1]);
    assert_eq!(rows[400], vec![1000, 1000]);
}

// ---------------------------------------------------------------------------
// Regression: writers make progress while a checkpoint materializes
// ---------------------------------------------------------------------------

/// The old `Engine::checkpoint` held the table's PDT write lock across the
/// whole materialization, stalling every writer for its duration. The
/// pinned-snapshot checkpoint holds the state mutex only to freeze and to
/// swap: a writer must complete commits (microseconds each) while the
/// checkpoint of a 400k-row table (milliseconds) is still running.
#[test]
fn writers_make_progress_while_a_checkpoint_materializes() {
    let (engine, table) = build_engine(PolicyKind::Lru, 400_000, 1 << 22);
    // Something for the checkpoint to materialize.
    engine.insert_row(table, 0, vec![-1, -1]).unwrap();

    let started = AtomicBool::new(false);
    let finished = AtomicBool::new(false);
    let mid_checkpoint_commits = AtomicU64::new(0);

    std::thread::scope(|scope| {
        scope.spawn(|| {
            started.store(true, Ordering::SeqCst);
            engine.checkpoint(table).unwrap();
            finished.store(true, Ordering::SeqCst);
        });
        while !started.load(Ordering::SeqCst) {
            std::hint::spin_loop();
        }
        // Commit until the checkpoint completes; with the old blocking
        // implementation the first commit would stall until `finished`,
        // leaving the mid-checkpoint counter at zero.
        while !finished.load(Ordering::SeqCst) {
            engine.insert_row(table, 0, vec![-2, -2]).unwrap();
            if !finished.load(Ordering::SeqCst) {
                mid_checkpoint_commits.fetch_add(1, Ordering::SeqCst);
            }
        }
    });

    assert!(
        mid_checkpoint_commits.load(Ordering::SeqCst) > 0,
        "no writer committed while the checkpoint materialized — the \
         checkpoint is blocking writers again"
    );
    // Every mid-checkpoint commit survived the snapshot swap.
    let (visible, rows) = pinned_read(&engine, table);
    assert_eq!(rows.len() as u64, visible);
    let inserted = rows.iter().filter(|r| r[0] == -2).count() as u64;
    assert!(inserted >= mid_checkpoint_commits.load(Ordering::SeqCst));
}
