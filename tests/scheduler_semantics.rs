//! Semantics of the morsel-driven task scheduler: query results are
//! identical at any worker count, short sessions are not starved behind a
//! long scan, and hundreds of logical sessions complete on a handful of
//! workers.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use scanshare::prelude::*;

const PAGE: u64 = 64 * 1024;
const CHUNK: u64 = 10_000;
const TUPLES: u64 = 400_000;

fn build_engine() -> (Arc<Engine>, TableId) {
    let storage = Storage::new(PAGE, CHUNK);
    let table = storage
        .create_table_with_data(
            TableSpec::new(
                "t",
                vec![
                    ColumnSpec::new("k", ColumnType::Int64),
                    ColumnSpec::new("g", ColumnType::Int64),
                    ColumnSpec::new("v", ColumnType::Int64),
                ],
                TUPLES,
            ),
            vec![
                DataGen::Sequential { start: 0, step: 1 },
                DataGen::Cyclic {
                    period: 7,
                    min: 0,
                    max: 6,
                },
                DataGen::Uniform { min: 1, max: 1000 },
            ],
        )
        .unwrap();
    let engine = Engine::new(
        storage,
        ScanShareConfig {
            page_size_bytes: PAGE,
            chunk_tuples: CHUNK,
            buffer_pool_bytes: 4 << 20,
            policy: PolicyKind::Pbm,
            ..Default::default()
        },
    )
    .unwrap();
    (engine, table)
}

fn grouped_task(engine: &Arc<Engine>, table: TableId, parallelism: usize) -> QueryTask {
    engine
        .query(table)
        .columns(["k", "g", "v"])
        .filter(Predicate::new(2, CompareOp::Le, 700))
        .aggregate(AggrSpec::grouped(
            1,
            vec![Aggregate::Count, Aggregate::Sum(2), Aggregate::Max(0)],
        ))
        .parallelism(parallelism)
        .into_task()
        .unwrap()
}

/// The same query must produce bit-identical aggregates whether its task
/// runs on one worker or many, at any intra-query parallelism.
#[test]
fn results_are_identical_at_any_worker_count() {
    let (engine, table) = build_engine();
    let reference = engine
        .query(table)
        .columns(["k", "g", "v"])
        .filter(Predicate::new(2, CompareOp::Le, 700))
        .aggregate(AggrSpec::grouped(
            1,
            vec![Aggregate::Count, Aggregate::Sum(2), Aggregate::Max(0)],
        ))
        .run()
        .unwrap();
    assert_eq!(reference.len(), 7, "cyclic column should give 7 groups");

    for workers in [1, 4, 8] {
        for parallelism in [1, 4] {
            let scheduler = TaskScheduler::new(workers);
            let handles: Vec<_> = (0..6)
                .map(|_| scheduler.spawn(grouped_task(&engine, table, parallelism)))
                .collect();
            for handle in handles {
                let result = handle.wait().into_result().unwrap().into_result();
                assert_eq!(
                    result, reference,
                    "workers={workers} parallelism={parallelism}"
                );
            }
        }
    }
}

/// Runs `inner`, holding its first quantum until `start` is set and its
/// last until `finish` is set or five seconds have passed (so a scheduler
/// that never runs the other sessions fails an assert instead of hanging).
struct Gated<T> {
    start: Arc<AtomicBool>,
    finish: Arc<AtomicBool>,
    inner: T,
}

impl<T: Task> Task for Gated<T> {
    fn step(&mut self) -> scanshare::common::Result<TaskStep> {
        while !self.start.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        let step = self.inner.step()?;
        if step == TaskStep::Done {
            let deadline = Instant::now() + Duration::from_secs(5);
            while !self.finish.load(Ordering::SeqCst) && Instant::now() < deadline {
                std::thread::yield_now();
            }
        }
        Ok(step)
    }
}

/// Round-robin quanta on a single worker: a batch of one-quantum sessions
/// spawned behind a long full-table scan must all finish while the long
/// scan is still running — no session stalls behind it.
#[test]
fn short_sessions_are_not_starved_behind_a_long_scan() {
    let (engine, table) = build_engine();
    let scheduler = TaskScheduler::new(1);

    let short_tasks: Vec<_> = (0..20)
        .map(|i| {
            engine
                .query(table)
                .columns(["k"])
                .range(i * 100..(i + 1) * 100)
                .aggregate(AggrSpec::global(vec![Aggregate::Count]))
                .into_task()
                .unwrap()
        })
        .collect();

    // ~50 quanta of work (400k tuples / 1k batch / 8 batches per quantum).
    // Its first quantum waits until every short session is queued and its
    // last until the check below has run, so neither a preempted spawning
    // thread nor a preempted waiting one can let the scan drain first.
    let start = Arc::new(AtomicBool::new(false));
    let finish = Arc::new(AtomicBool::new(false));
    let long = scheduler.spawn(Gated {
        start: Arc::clone(&start),
        finish: Arc::clone(&finish),
        inner: grouped_task(&engine, table, 1),
    });
    let shorts: Vec<_> = short_tasks
        .into_iter()
        .map(|task| scheduler.spawn(task))
        .collect();
    start.store(true, Ordering::SeqCst);

    for short in shorts {
        let result = short.wait().into_result().unwrap().into_result();
        assert_eq!(result[&0].count, 100);
    }
    assert!(
        !long.is_done(),
        "a 20-session batch of small queries drained before the long scan \
         finished; the scheduler is not round-robining quanta"
    );
    finish.store(true, Ordering::SeqCst);
    let result = long.wait().into_result().unwrap().inner.into_result();
    assert_eq!(result.len(), 7);
}

/// Many more logical sessions than workers: everything completes, with the
/// correct result, and the scheduler observed cooperative yields.
#[test]
fn hundreds_of_sessions_complete_on_four_workers() {
    let (engine, table) = build_engine();
    let scheduler = TaskScheduler::new(4);
    let handles: Vec<_> = (0..300)
        .map(|i| {
            let start = (i % 50) * 1000;
            let task = engine
                .query(table)
                .columns(["k", "v"])
                .range(start..start + 1000)
                .aggregate(AggrSpec::global(vec![Aggregate::Count, Aggregate::Sum(1)]))
                .into_task()
                .unwrap();
            scheduler.spawn(task)
        })
        .collect();
    for handle in handles {
        let result = handle.wait().into_result().unwrap().into_result();
        assert_eq!(result[&0].count, 1000);
    }
    let stats = scheduler.stats();
    assert_eq!(stats.completed, 300);
    assert_eq!(stats.submitted, 300);
}

/// On one scheduler worker the streams' quanta run in one order, so a
/// multi-stream Cooperative Scans run, whose chunk loads and evictions
/// follow the order in which streams probe the ABM, is a function of its
/// input: fresh engines account identical buffer statistics and virtual
/// time. On several workers the threads interleave and the I/O volume
/// varies from run to run.
#[test]
fn multi_stream_cscan_runs_repeat_exactly_on_one_worker() {
    let config = MicrobenchConfig {
        streams: 4,
        queries_per_stream: 4,
        lineitem_tuples: 200_000,
        ..Default::default()
    };
    let (storage, workload) = scanshare::workload::microbench::build(&config, PAGE, CHUNK).unwrap();
    let scanshare = ScanShareConfig {
        page_size_bytes: PAGE,
        chunk_tuples: CHUNK,
        policy: PolicyKind::CScan,
        scheduler_workers: 1,
        ..Default::default()
    };
    let sim = SimConfig {
        scanshare: scanshare.clone(),
        cores: 8,
        sharing_sample_interval: None,
    };
    let accessed = Simulation::new(Arc::clone(&storage), sim)
        .unwrap()
        .accessed_volume(&workload)
        .unwrap();
    let scanshare = ScanShareConfig {
        buffer_pool_bytes: accessed * 2 / 5,
        ..scanshare
    };
    let run = || {
        let engine = Engine::new(Arc::clone(&storage), scanshare.clone()).unwrap();
        let report = WorkloadDriver::new(engine).run(&workload).unwrap();
        assert!(
            report.stream_errors.is_empty(),
            "{:?}",
            report.stream_errors
        );
        (report.buffer, report.virtual_elapsed)
    };
    let first = run();
    assert!(
        first.0.evictions > 0,
        "the pool is under pressure: {first:?}"
    );
    for _ in 0..4 {
        assert_eq!(run(), first);
    }
}
