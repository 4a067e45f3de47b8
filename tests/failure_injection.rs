//! Failure-injection style integration tests: transactions that abort,
//! conflicting committers, scans abandoned mid-flight, and checkpoints racing
//! already-running scans. The system must stay consistent in every case.

use std::sync::Arc;

use scanshare::core::abm::{Abm, AbmConfig, CScanRequest};
use scanshare::prelude::*;

fn lineitem(tuples: u64) -> (Arc<Storage>, TableId) {
    let storage = Storage::with_seed(64 * 1024, 10_000, 99);
    let table = scanshare::workload::microbench::setup_lineitem(&storage, tuples).unwrap();
    (storage, table)
}

fn engine(policy: PolicyKind, storage: &Arc<Storage>) -> Arc<Engine> {
    Engine::new(
        Arc::clone(storage),
        ScanShareConfig {
            page_size_bytes: 64 * 1024,
            chunk_tuples: 10_000,
            buffer_pool_bytes: 2 << 20,
            policy,
            ..Default::default()
        },
    )
    .unwrap()
}

fn count_rows(engine: &Arc<Engine>, table: TableId) -> u64 {
    let result = engine
        .query(table)
        .columns(["l_quantity"])
        .aggregate(AggrSpec::global(vec![Aggregate::Count]))
        .parallelism(2)
        .run()
        .unwrap();
    result[&0].count
}

#[test]
fn aborted_appends_are_never_visible() {
    let (storage, table) = lineitem(20_000);
    let engine = engine(PolicyKind::Pbm, &storage);
    assert_eq!(count_rows(&engine, table), 20_000);

    let mut tx = storage.begin_append(table).unwrap();
    tx.append_rows(&[
        vec![1; 500],
        vec![2; 500],
        vec![3; 500],
        vec![4; 500],
        vec![0; 500],
        vec![1; 500],
        vec![9000; 500],
    ])
    .unwrap();
    // The transaction itself sees its rows ...
    assert_eq!(tx.snapshot().stable_tuples(), 20_500);
    // ... but once it is dropped (the abort) the master snapshot and every
    // query are unchanged.
    drop(tx);
    assert_eq!(
        storage.master_snapshot(table).unwrap().stable_tuples(),
        20_000
    );
    assert_eq!(count_rows(&engine, table), 20_000);
}

#[test]
fn only_one_of_two_conflicting_appenders_wins() {
    let (storage, table) = lineitem(10_000);
    let engine = engine(PolicyKind::Lru, &storage);

    let row = |v: i64| vec![vec![v; 10]; 7];
    let mut t1 = storage.begin_append(table).unwrap();
    let mut t2 = storage.begin_append(table).unwrap();
    t1.append_rows(&row(1)).unwrap();
    t2.append_rows(&row(2)).unwrap();
    t1.commit().unwrap();
    assert!(t2.commit().is_err(), "second committer must conflict");
    assert_eq!(count_rows(&engine, table), 10_010);
}

#[test]
fn abandoning_a_scan_mid_flight_leaves_the_system_usable() {
    let (storage, table) = lineitem(50_000);
    for policy in [PolicyKind::Lru, PolicyKind::Pbm, PolicyKind::CScan] {
        let engine = engine(policy, &storage);
        // Start a scan, consume only a couple of batches, then drop it.
        {
            let pin = engine.table_pin(table).unwrap();
            let mut op = engine
                .scan_pinned(
                    pin,
                    &["l_quantity", "l_shipdate"],
                    TupleRange::new(0, 50_000),
                    false,
                    None,
                )
                .unwrap();
            let first = op.next_batch().unwrap().expect("at least one batch");
            assert!(!first.is_empty());
            let _ = op.next_batch().unwrap();
            // Dropped here: the operator unregisters from its buffer manager.
        }
        // A fresh scan still sees the whole table and completes.
        assert_eq!(count_rows(&engine, table), 50_000, "policy {policy}");
    }
}

#[test]
fn scans_started_before_a_checkpoint_keep_their_snapshot() {
    let (storage, table) = lineitem(30_000);
    let engine = engine(PolicyKind::Pbm, &storage);

    // Open a scan on the current state.
    let pin = engine.table_pin(table).unwrap();
    let mut old_scan = engine
        .scan_pinned(
            pin,
            &["l_quantity"],
            TupleRange::new(0, 30_000),
            false,
            None,
        )
        .unwrap();
    let first = old_scan.next_batch().unwrap().expect("batch");
    assert!(!first.is_empty());

    // Delete rows and checkpoint while the old scan is still open.
    for _ in 0..100 {
        engine.delete_row(table, 0).unwrap();
    }
    let new_snapshot = engine.checkpoint(table).unwrap();
    assert_eq!(new_snapshot.stable_tuples(), 29_900);

    // The old scan keeps producing from its original snapshot + PDT state.
    let mut produced = first.len();
    while let Some(batch) = old_scan.next_batch().unwrap() {
        produced += batch.len();
    }
    assert_eq!(produced, 30_000, "pre-checkpoint scan sees the old state");

    // New queries see the checkpointed state under every policy.
    drop(old_scan);
    for policy in [PolicyKind::Lru, PolicyKind::CScan] {
        let fresh = Engine::new(
            Arc::clone(&storage),
            ScanShareConfig {
                page_size_bytes: 64 * 1024,
                chunk_tuples: 10_000,
                buffer_pool_bytes: 2 << 20,
                policy,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(count_rows(&fresh, table), 29_900);
    }
}

#[test]
fn abm_unregisters_cleanly_when_a_cscan_aborts_half_way() {
    let (storage, table) = lineitem(40_000);
    let layout = storage.layout(table).unwrap();
    let snapshot = storage.master_snapshot(table).unwrap();
    let abm = Abm::new(AbmConfig::new(4 << 20, 64 * 1024));

    let request = |range: TupleRange| CScanRequest {
        table,
        snapshot: Arc::clone(&snapshot),
        layout: Arc::clone(&layout),
        columns: vec![0, 1, 6],
        ranges: RangeList::from_ranges([range]),
        in_order: false,
    };
    let doomed = abm
        .register_cscan(request(TupleRange::new(0, 40_000)))
        .unwrap();
    let survivor = abm
        .register_cscan(request(TupleRange::new(0, 40_000)))
        .unwrap();
    assert_eq!(abm.registered_scans(), 2);

    // Let the doomed scan consume a single chunk, then unregister it.
    let now = VirtualInstant::EPOCH;
    while abm.get_chunk(doomed.id).unwrap().is_none() {
        let plan = abm.next_load(now).expect("nothing to load");
        abm.complete_load(&plan, now).unwrap();
    }
    abm.unregister_cscan(doomed.id).unwrap();
    assert_eq!(abm.registered_scans(), 1);
    assert!(
        abm.get_chunk(doomed.id).is_err(),
        "the aborted scan is gone"
    );

    // The surviving scan still receives every one of its chunks.
    let mut delivered = 0;
    let mut guard = 0;
    while !abm.is_finished(survivor.id) {
        guard += 1;
        assert!(guard < 10_000, "survivor made no progress");
        if abm.get_chunk(survivor.id).unwrap().is_some() {
            delivered += 1;
        } else {
            let plan = abm.next_load(now).expect("survivor starved");
            abm.complete_load(&plan, now).unwrap()
        }
    }
    assert_eq!(delivered, survivor.total_chunks);

    // With the last scan gone, the ABM destroys the table metadata.
    abm.unregister_cscan(survivor.id).unwrap();
    assert_eq!(abm.version_count(table), 0);
    assert_eq!(abm.registered_scans(), 0);
}

// ---------------------------------------------------------------------------
// Device faults: a failing BlockDevice must surface as typed Error::Io
// values on the stream that hit it — never a panic, never a wedged workload.
// ---------------------------------------------------------------------------

mod device_faults {
    use std::sync::Arc;

    use scanshare::common::Error;
    use scanshare::core::registry::PolicyRegistry;
    use scanshare::iosim::{FaultInjectingDevice, FaultKind};
    use scanshare::prelude::*;
    use scanshare::workload::microbench::{self, MicrobenchConfig};

    const PAGE: u64 = 16 * 1024;

    fn workload() -> (Arc<Storage>, WorkloadSpec) {
        let micro = MicrobenchConfig {
            streams: 3,
            queries_per_stream: 2,
            lineitem_tuples: 30_000,
            ..MicrobenchConfig::tiny()
        };
        microbench::build(&micro, PAGE, 5_000).unwrap()
    }

    fn config(policy: PolicyKind) -> ScanShareConfig {
        ScanShareConfig {
            page_size_bytes: PAGE,
            chunk_tuples: 5_000,
            buffer_pool_bytes: 64 * PAGE,
            policy,
            ..Default::default()
        }
    }

    fn sim_device() -> Arc<dyn BlockDevice> {
        Arc::new(IoDevice::new(
            Bandwidth::from_mb_per_sec(700.0),
            VirtualDuration::from_micros(100),
        ))
    }

    fn engine_with_device(
        storage: &Arc<Storage>,
        policy: PolicyKind,
        device: Arc<FaultInjectingDevice>,
    ) -> Arc<Engine> {
        Engine::with_device(
            Arc::clone(storage),
            config(policy),
            &PolicyRegistry::default(),
            device,
        )
        .unwrap()
    }

    #[test]
    fn one_hard_fault_ends_exactly_one_stream_with_a_typed_io_error() {
        let (storage, workload) = workload();
        for (policy, fault) in [
            (PolicyKind::Pbm, FaultKind::HardError),
            (PolicyKind::Lru, FaultKind::ShortRead),
            (PolicyKind::CScan, FaultKind::HardError),
        ] {
            // Fault the third read: every policy reaches it (the cooperative
            // backend loads each chunk only once, so it issues far fewer
            // device requests than the per-stream policies).
            let device = Arc::new(FaultInjectingDevice::new(sim_device()).with_fault(2, fault));
            let engine = engine_with_device(&storage, policy, Arc::clone(&device));
            assert_eq!(engine.device().name(), "fault-injecting");
            let report = WorkloadDriver::new(engine).run(&workload).unwrap();
            assert_eq!(
                report.stream_errors.len(),
                1,
                "{policy}: exactly the stream that hit the faulted read ends early"
            );
            assert!(
                matches!(report.stream_errors[0].error(), Some(Error::Io(_))),
                "{policy}: the fault surfaces as a typed I/O error, got {:?}",
                report.stream_errors[0]
            );
            // The other streams ran to completion: 3 streams x 2 queries,
            // minus the 1 or 2 the failed stream never finished.
            assert!(
                (4..6).contains(&report.queries),
                "{policy}: {} queries",
                report.queries
            );
            assert_eq!(device.injected_faults(), 1, "{policy}");
        }
    }

    /// A hard fault on the k-th page read of a three-column scan: the
    /// ranged fill that needed the page returns the typed error out of
    /// `next_batch`, and whatever the fill had already appended to the
    /// batch under construction is never seen — every row of every batch
    /// that *was* returned carries its real values (no generator here ever
    /// produces the `0` a placeholder would be).
    #[test]
    fn a_fault_on_the_kth_page_fails_next_batch_and_never_yields_a_placeholder() {
        const TUPLES: u64 = 20_000;
        let storage = Storage::with_seed(PAGE, 5_000, 17);
        let spec = TableSpec::new(
            "t",
            vec![
                ColumnSpec::with_width("k", ColumnType::Int64, 8.0),
                ColumnSpec::with_width("u", ColumnType::Int64, 4.0),
                ColumnSpec::with_width("c", ColumnType::Int64, 12.0),
            ],
            TUPLES,
        );
        let gens = vec![
            DataGen::Sequential { start: 1, step: 1 },
            DataGen::Uniform { min: 1, max: 9 },
            DataGen::Constant(7),
        ];
        let table = storage.create_table_with_data(spec, gens).unwrap();
        let layout = storage.layout(table).unwrap();
        let snapshot = storage.master_snapshot(table).unwrap();
        let expected_u = storage
            .read_range(&layout, &snapshot, 1, TupleRange::new(0, TUPLES))
            .unwrap();

        for policy in [PolicyKind::Lru, PolicyKind::Pbm, PolicyKind::CScan] {
            // A pooled scan reads its 10 + 5 + 15 pages one request each;
            // the cooperative backend issues one request per chunk (4).
            let faulted: &[u64] = match policy {
                PolicyKind::CScan => &[0, 1, 3],
                _ => &[0, 4, 7, 22],
            };
            for &k in faulted {
                let device = Arc::new(
                    FaultInjectingDevice::new(sim_device()).with_fault(k, FaultKind::HardError),
                );
                let engine = engine_with_device(&storage, policy, Arc::clone(&device));
                let pin = engine.table_pin(table).unwrap();
                let mut scan = engine
                    .scan_pinned(
                        pin,
                        &["k", "u", "c"],
                        TupleRange::new(0, TUPLES),
                        false,
                        None,
                    )
                    .unwrap();
                let mut rows = 0;
                let error = loop {
                    match scan.next_batch() {
                        Ok(Some(batch)) => {
                            rows += batch.len() as u64;
                            for row in batch.to_rows() {
                                let sid = (row[0] - 1) as usize;
                                assert_eq!(
                                    row,
                                    vec![sid as i64 + 1, expected_u[sid], 7],
                                    "{policy} k={k}"
                                );
                            }
                        }
                        Ok(None) => panic!("{policy} k={k}: the fault never surfaced"),
                        Err(error) => break error,
                    }
                };
                assert!(matches!(error, Error::Io(_)), "{policy} k={k}: {error:?}");
                assert!(rows < TUPLES, "{policy} k={k}");
                assert_eq!(device.injected_faults(), 1, "{policy} k={k}");
                // The failed batch left the scan where the batch started
                // and the faulted chunk load did not wedge the loader: the
                // fault was one-shot, so carrying on produces every
                // remaining row exactly once.
                while let Some(batch) = scan.next_batch().unwrap() {
                    rows += batch.len() as u64;
                }
                assert_eq!(rows, TUPLES, "{policy} k={k}");
            }
        }
    }

    #[test]
    fn a_dead_device_fails_every_stream_without_wedging_the_driver() {
        let (storage, workload) = workload();
        for policy in [PolicyKind::Pbm, PolicyKind::CScan] {
            let device = Arc::new(FaultInjectingDevice::new(sim_device()).with_fail_all_after(0));
            let engine = engine_with_device(&storage, policy, Arc::clone(&device));
            // The run completes (no panic, no deadlock) and reports the
            // failures per stream instead of returning a workload error.
            let report = WorkloadDriver::new(engine).run(&workload).unwrap();
            assert!(
                !report.stream_errors.is_empty(),
                "{policy}: a dead device must surface on at least one stream"
            );
            for err in &report.stream_errors {
                assert!(
                    matches!(err.error(), Some(Error::Io(_))),
                    "{policy}: {err:?}"
                );
            }
            assert!(device.injected_faults() > 0, "{policy}");
        }
    }

    #[test]
    fn transient_faults_are_retried_inside_the_device_and_never_surface() {
        let (storage, workload) = workload();
        for policy in [PolicyKind::Pbm, PolicyKind::CScan] {
            let device = Arc::new(
                FaultInjectingDevice::new(sim_device())
                    .with_fault(2, FaultKind::Transient { failures: 3 }),
            );
            let engine = engine_with_device(&storage, policy, Arc::clone(&device));
            let report = WorkloadDriver::new(engine).run(&workload).unwrap();
            assert!(report.stream_errors.is_empty(), "{policy}");
            assert_eq!(report.queries, 6, "{policy}");
            assert_eq!(device.retries_injected(), 3, "{policy}");
            assert!(report.io.bytes_read > 0, "{policy}");
        }
    }
}

// ---------------------------------------------------------------------------
// Crash/recovery kill points: simulate a crash at every WAL-append and
// checkpoint boundary by snapshotting the durability directory, then recover
// each snapshot and compare against a shadow model of the committed prefix.
// ---------------------------------------------------------------------------

mod crash_recovery {
    use std::path::{Path, PathBuf};
    use std::sync::Arc;

    use scanshare::common::Error;
    use scanshare::prelude::*;
    use scanshare::storage::wal::{Wal, WalRecordKind, WAL_FILE_NAME};

    const PAGE: u64 = 16 * 1024;
    const CHUNK: u64 = 1_000;

    struct TestDir(PathBuf);

    impl TestDir {
        fn new(tag: &str) -> Self {
            use std::sync::atomic::{AtomicU32, Ordering};
            static SEQ: AtomicU32 = AtomicU32::new(0);
            let seq = SEQ.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir().join(format!(
                "scanshare-crash-{tag}-{}-{seq}",
                std::process::id()
            ));
            std::fs::create_dir_all(&path).unwrap();
            Self(path)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// Byte-for-byte snapshot of the durability directory: what a crashed
    /// process would leave behind at this instant.
    fn copy_dir(src: &Path, dst: &Path) {
        std::fs::create_dir_all(dst).unwrap();
        for entry in std::fs::read_dir(src).unwrap() {
            let entry = entry.unwrap();
            let to = dst.join(entry.file_name());
            if entry.file_type().unwrap().is_dir() {
                copy_dir(&entry.path(), &to);
            } else {
                std::fs::copy(entry.path(), &to).unwrap();
            }
        }
    }

    fn config() -> ScanShareConfig {
        ScanShareConfig {
            page_size_bytes: PAGE,
            chunk_tuples: CHUNK,
            buffer_pool_bytes: 64 * PAGE,
            policy: PolicyKind::Lru,
            ..Default::default()
        }
    }

    /// A durable two-column table plus its shadow model: the rows the
    /// committed state must contain, maintained alongside every operation.
    fn durable_engine(
        dir: &Path,
        tuples: u64,
        group_commit: usize,
    ) -> (Arc<Engine>, TableId, Vec<Vec<i64>>) {
        let storage = Storage::new(PAGE, CHUNK);
        let table = storage
            .create_table_with_data(
                TableSpec::new(
                    "t",
                    vec![
                        ColumnSpec::new("k", ColumnType::Int64),
                        ColumnSpec::new("v", ColumnType::Int64),
                    ],
                    tuples,
                ),
                vec![
                    DataGen::Sequential { start: 0, step: 1 },
                    DataGen::Constant(7),
                ],
            )
            .unwrap();
        let engine = Engine::new(
            storage,
            config()
                .with_wal_dir(dir)
                .with_wal_group_commit(group_commit),
        )
        .unwrap();
        let shadow = (0..tuples as i64).map(|k| vec![k, 7]).collect();
        (engine, table, shadow)
    }

    /// End of each frame of the never-rotated log in `dir`, summed from the
    /// records read back (an 8-byte header, a kind byte and the body each).
    /// The file itself runs on past the last one in zeros.
    fn frame_ends(dir: &Path) -> Vec<usize> {
        Wal::read_records(dir)
            .unwrap()
            .iter()
            .scan(0, |end, r| {
                *end += 9 + r.body.len();
                Some(*end)
            })
            .collect()
    }

    fn all_rows(engine: &Arc<Engine>, table: TableId) -> Vec<Vec<i64>> {
        engine
            .query(table)
            .columns(["k", "v"])
            .range(..)
            .in_order()
            .rows()
            .unwrap()
    }

    /// The tentpole property: snapshot the durability directory after every
    /// commit and checkpoint boundary (each snapshot is one kill point), then
    /// recover each one cold and compare it row-for-row against the shadow
    /// model of the operations committed up to that point.
    #[test]
    fn recovery_matches_the_committed_prefix_at_every_kill_point() {
        let live = TestDir::new("killpoints");
        let copies = TestDir::new("killpoints-copies");
        let (engine, table, mut shadow) = durable_engine(live.path(), 2 * CHUNK + CHUNK / 2, 1);

        let mut points: Vec<(PathBuf, Vec<Vec<i64>>)> = Vec::new();
        for step in 0..12u64 {
            match step % 4 {
                0 => {
                    // Auto-committed insert at the front of the table.
                    let row = vec![-(step as i64) - 1, 1_000 + step as i64];
                    engine.insert_row(table, 0, row.clone()).unwrap();
                    shadow.insert(0, row);
                }
                1 => {
                    // Auto-committed delete in the middle.
                    let rid = shadow.len() as u64 / 2;
                    engine.delete_row(table, rid).unwrap();
                    shadow.remove(rid as usize);
                }
                2 => {
                    // Multi-operation snapshot-isolated transaction.
                    let end = shadow.len() as u64;
                    let mut txn = engine.begin();
                    txn.insert(table, end, vec![9_000 + step as i64, -5])
                        .unwrap();
                    txn.modify(table, 1, 1, step as i64).unwrap();
                    txn.commit().unwrap();
                    shadow.push(vec![9_000 + step as i64, -5]);
                    shadow[1][1] = step as i64;
                }
                _ => {
                    // Checkpoint: new durable image + end marker.
                    engine.checkpoint(table).unwrap();
                }
            }
            let copy = copies.path().join(format!("kp{step}"));
            copy_dir(live.path(), &copy);
            points.push((copy, shadow.clone()));
        }
        drop(engine);

        for (idx, (dir, expected)) in points.iter().enumerate() {
            let recovered = Engine::recover(dir, config()).unwrap();
            assert_eq!(
                recovered.visible_rows(table).unwrap(),
                expected.len() as u64,
                "kill point {idx}: visible row count"
            );
            assert_eq!(
                &all_rows(&recovered, table),
                expected,
                "kill point {idx}: recovered rows"
            );
        }
    }

    /// A crash mid-`write(2)` leaves a torn final record; recovery must drop
    /// it and come up at the previous commit, whatever the torn length.
    #[test]
    fn a_torn_final_wal_record_rolls_back_to_the_previous_commit() {
        let live = TestDir::new("torn-wal");
        let (engine, table, mut shadow) = durable_engine(live.path(), 2 * CHUNK, 1);
        engine.insert_row(table, 0, vec![-1, -1]).unwrap();
        shadow.insert(0, vec![-1, -1]);
        let after_first = shadow.clone();
        engine.delete_row(table, 5).unwrap();
        drop(engine);

        let wal_path = live.path().join(WAL_FILE_NAME);
        let bytes = std::fs::read(&wal_path).unwrap();
        let ends = frame_ends(live.path());
        let (last_start, end) = (ends[ends.len() - 2], ends[ends.len() - 1]);
        for cut in [1, 3, 8] {
            assert!(
                end - cut > last_start,
                "cut {cut} lands inside the last frame"
            );
            std::fs::write(&wal_path, &bytes[..end - cut]).unwrap();
            let recovered = Engine::recover(live.path(), config()).unwrap();
            assert_eq!(
                all_rows(&recovered, table),
                after_first,
                "cut {cut} bytes: the torn record is dropped, the prefix survives"
            );
        }
    }

    /// With group commit the fsync lags the append, so a crash can lose a
    /// suffix of trailing commits. Whatever survives must be a consistent
    /// prefix: truncate the log at every record boundary and recover.
    #[test]
    fn losing_a_suffix_of_commits_leaves_a_consistent_prefix() {
        let live = TestDir::new("prefix");
        let (engine, table, mut shadow) = durable_engine(live.path(), CHUNK, 4);
        let wal_path = live.path().join(WAL_FILE_NAME);

        // (log length, shadow state) after each commit = one kill point each.
        let mut points: Vec<(usize, Vec<Vec<i64>>)> = Vec::new();
        for step in 0..6i64 {
            if step % 2 == 0 {
                engine.insert_row(table, 0, vec![-step - 1, step]).unwrap();
                shadow.insert(0, vec![-step - 1, step]);
            } else {
                engine.delete_row(table, 3).unwrap();
                shadow.remove(3);
            }
            let end = *frame_ends(live.path()).last().unwrap();
            points.push((end, shadow.clone()));
        }
        drop(engine);

        let bytes = std::fs::read(&wal_path).unwrap();
        let ends = frame_ends(live.path());
        for (idx, (len, expected)) in points.iter().enumerate() {
            assert!(
                ends.contains(len),
                "kill point {idx} is on a frame boundary"
            );
            std::fs::write(&wal_path, &bytes[..*len]).unwrap();
            let recovered = Engine::recover(live.path(), config()).unwrap();
            assert_eq!(
                &all_rows(&recovered, table),
                expected,
                "prefix of {} commits",
                idx + 1
            );
        }
    }

    /// A crash between the CheckpointBegin marker and the manifest install
    /// leaves Begin with no matching End and no new image. The markers are
    /// informational: recovery replays the full log over the old image, and
    /// the recovered engine checkpoints and commits normally afterwards.
    #[test]
    fn a_checkpoint_that_crashed_after_its_begin_marker_recovers_cleanly() {
        let live = TestDir::new("ckpt-begin");
        let (engine, table, mut shadow) = durable_engine(live.path(), CHUNK + CHUNK / 2, 1);
        engine.update_value(table, 3, 1, 42).unwrap();
        shadow[3][1] = 42;
        drop(engine);

        let wal = Wal::open(live.path(), 1).unwrap();
        wal.append_marker(WalRecordKind::CheckpointBegin, table, 1)
            .unwrap();
        drop(wal);

        let recovered = Engine::recover(live.path(), config()).unwrap();
        assert_eq!(all_rows(&recovered, table), shadow);

        recovered.checkpoint(table).unwrap();
        recovered.delete_row(table, 0).unwrap();
        shadow.remove(0);
        drop(recovered);
        let again = Engine::recover(live.path(), config()).unwrap();
        assert_eq!(all_rows(&again, table), shadow);
    }

    /// Checkpoints rotate the WAL: records the durable image already covers
    /// are dropped, so the log stops growing without bound. The rotation is
    /// crash-atomic — a kill point immediately after the checkpoint (and
    /// after every post-rotation commit) must still recover to exactly the
    /// committed state from the shrunken log.
    #[test]
    fn wal_rotation_after_a_checkpoint_shrinks_the_log_and_survives_a_crash() {
        let live = TestDir::new("wal-rotate");
        let copies = TestDir::new("wal-rotate-copies");
        let (engine, table, mut shadow) = durable_engine(live.path(), CHUNK + CHUNK / 2, 1);
        let wal_path = live.path().join(WAL_FILE_NAME);

        for step in 0..4i64 {
            engine.insert_row(table, 0, vec![-step - 1, step]).unwrap();
            shadow.insert(0, vec![-step - 1, step]);
        }
        let before = std::fs::metadata(&wal_path).unwrap().len();
        engine.checkpoint(table).unwrap();
        let after = std::fs::metadata(&wal_path).unwrap().len();
        assert!(
            after < before,
            "rotation must shrink the log ({after} vs {before})"
        );
        assert_eq!(engine.wal().unwrap().wal_rotated(), 1);

        // Kill point right after the rotation, and after each of a few
        // post-rotation commits appended to the rotated log.
        let mut points: Vec<(PathBuf, Vec<Vec<i64>>)> = Vec::new();
        let snap = copies.path().join("kp-rotated");
        copy_dir(live.path(), &snap);
        points.push((snap, shadow.clone()));
        for step in 0..3i64 {
            engine
                .insert_row(table, 0, vec![100 + step, -step])
                .unwrap();
            shadow.insert(0, vec![100 + step, -step]);
            let snap = copies.path().join(format!("kp-after-{step}"));
            copy_dir(live.path(), &snap);
            points.push((snap, shadow.clone()));
        }
        // A second checkpoint rotates the post-rotation commits out again.
        engine.checkpoint(table).unwrap();
        assert_eq!(engine.wal().unwrap().wal_rotated(), 2);
        let snap = copies.path().join("kp-rotated-again");
        copy_dir(live.path(), &snap);
        points.push((snap, shadow.clone()));
        drop(engine);

        for (dir, expected) in &points {
            let recovered = Engine::recover(dir, config()).unwrap();
            assert_eq!(
                &all_rows(&recovered, table),
                expected,
                "kill point {dir:?}: recovered rows"
            );
        }
    }

    /// A bulk append is durable only after the next checkpoint: nothing logs
    /// its rows. A crash right after it recovers the pre-append rows and
    /// reports nothing. Once a logged commit follows the append, that
    /// record's row count no longer matches the rebuilt table, so recovery
    /// fails with `WalCorrupt` instead of replaying onto the wrong rows.
    #[test]
    fn a_bulk_append_before_the_next_checkpoint_is_lost_at_a_crash() {
        let live = TestDir::new("append-window");
        let copies = TestDir::new("append-window-copies");
        let (engine, table, shadow) = durable_engine(live.path(), CHUNK, 1);
        let mut tx = engine.storage().begin_append(table).unwrap();
        tx.append_rows(&[vec![-1, -2], vec![0, 0]]).unwrap();
        tx.commit().unwrap();
        assert_eq!(engine.visible_rows(table).unwrap(), CHUNK + 2);
        let appended = copies.path().join("appended");
        copy_dir(live.path(), &appended);

        engine.insert_row(table, 0, vec![-3, 0]).unwrap();
        let committed = copies.path().join("committed");
        copy_dir(live.path(), &committed);
        drop(engine);

        let recovered = Engine::recover(&appended, config()).unwrap();
        assert_eq!(all_rows(&recovered, table), shadow, "the append is gone");
        let err = Engine::recover(&committed, config())
            .expect_err("the commit after the append cannot replay");
        assert!(matches!(err, Error::WalCorrupt(_)), "got {err:?}");
    }

    /// A crash mid-manifest-install leaves a partially written `.tmp` next to
    /// the authoritative manifest; reopening must ignore it.
    #[test]
    fn a_torn_manifest_temp_file_is_ignored_at_recovery() {
        let live = TestDir::new("torn-manifest");
        let (engine, table, mut shadow) = durable_engine(live.path(), CHUNK, 1);
        engine.delete_row(table, 10).unwrap();
        shadow.remove(10);
        drop(engine);

        std::fs::write(
            live.path().join("t.manifest.tmp"),
            b"scanshare-table-manifest v1\ntable t\ntrunca",
        )
        .unwrap();
        let recovered = Engine::recover(live.path(), config()).unwrap();
        assert_eq!(all_rows(&recovered, table), shadow);
    }
}
