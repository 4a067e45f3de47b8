//! `mixed_durable`: writes beside reads on real files. A durable engine
//! (on-disk segments, WAL with group commit, `DeviceKind::File`) runs
//! rounds in which one writer applies auto-commit operations while reader
//! threads each run one full-table pinned query; every tenth round ends in
//! a checkpoint. Afterwards the engine is dropped, recovered from the
//! directory alone and compared row for row with the state before the drop.

use std::sync::Arc;
use std::time::Instant;

use scanshare_common::{DeviceKind, PolicyKind, Result, ScanShareConfig, TableId, TupleRange};
use scanshare_exec::ops::aggregate;
use scanshare_exec::{AggrSpec, Aggregate, Engine};
use scanshare_storage::datagen::Value;
use scanshare_storage::wal::{Wal, WalRecordKind, WAL_FILE_NAME};
use scanshare_storage::Storage;
use scanshare_workload::microbench;
use scanshare_workload::spec::{UpdateMix, UpdateOp, UpdateOpGen, UpdateStreamSpec};

use crate::common::{ratio, timed, Env, Outcome, Scratch, CHUNK, PAGE};
use crate::micro::{read_page_probe, COLUMN_NAMES};
use crate::stats;

pub const LINEITEM_TUPLES: u64 = 250_000;
const OPS_PER_ROUND: u64 = 1_000;
const CHECKPOINT_EVERY: usize = 10;
const GROUP_COMMIT: usize = 8;
const POOL_SHARE: f64 = 0.4;
const READER_COLUMNS: [&str; 2] = ["l_quantity", "l_extendedprice"];

const COMMIT_SPAN: &str = "commit";
const READER_SPAN: &str = "reader_query";
const CHECKPOINT_SPAN: &str = "checkpoint";
const RECOVER_SPAN: &str = "recover";

struct Inputs {
    engine: Arc<Engine>,
    table: TableId,
    config: ScanShareConfig,
    /// Declared after the engine so the files outlive it.
    scratch: Scratch,
    build_s: f64,
    materialize_s: f64,
}

fn setup(env: &Env) -> Inputs {
    let tuples = env.scaled(LINEITEM_TUPLES);
    let scratch = env.scratch("durable").expect("scratch dir");
    let ((storage, table), build_s) = timed(|| {
        let storage = Storage::with_seed(PAGE, CHUNK, env.seed);
        let table = microbench::setup_lineitem(&storage, tuples).expect("lineitem");
        (storage, table)
    });
    let (_, materialize_s) = timed(|| {
        storage
            .materialize_table(table, scratch.path())
            .expect("materialize_table")
    });
    let table_bytes = storage.master_page_count(table).expect("pages") as u64 * PAGE;
    let config = ScanShareConfig {
        buffer_pool_bytes: ((table_bytes as f64 * POOL_SHARE) as u64).max(4 * PAGE),
        policy: PolicyKind::Pbm,
        device: DeviceKind::File,
        ..env.config()
    }
    .with_wal_dir(scratch.path())
    .with_wal_group_commit(GROUP_COMMIT);
    let engine = Engine::new(storage, config.clone()).expect("durable engine");
    // Warm-up: one full scan, so the first measured reader does not pay for
    // first-touch file reads alone.
    reader_query(&engine, table).expect("warm-up scan");
    Inputs {
        engine,
        table,
        config,
        scratch,
        build_s,
        materialize_s,
    }
}

/// One full-table `[Count, Sum]` query through a fresh pin. Returns the
/// rows the pin shows and the rows the query counted.
fn reader_query(engine: &Arc<Engine>, table: TableId) -> Result<(u64, u64)> {
    let pin = engine.table_pin(table)?;
    let visible = pin.visible_rows();
    let mut scan = engine.scan_pinned(
        pin,
        &READER_COLUMNS,
        TupleRange::from_len(visible),
        false,
        None,
    )?;
    let spec = AggrSpec::global(vec![Aggregate::Count, Aggregate::Sum(1)]);
    let result = aggregate(&mut *scan, None, &spec)?;
    Ok((visible, result.get(&0).map_or(0, |g| g.count)))
}

fn apply(engine: &Engine, table: TableId, op: UpdateOp) -> Result<()> {
    match op {
        UpdateOp::Insert { rid, row } => engine.insert_row(table, rid, row),
        UpdateOp::Delete { rid } => engine.delete_row(table, rid),
        UpdateOp::Modify { rid, col, value } => engine.update_value(table, rid, col, value),
    }
}

#[derive(Clone, Copy)]
struct Commit {
    /// Whether a span was recorded around it.
    traced: bool,
    secs: f64,
    synced: bool,
}

#[derive(Default)]
struct Round {
    commit_loop_s: f64,
    /// One per auto-commit.
    commits: Vec<Commit>,
    commits_failed: u64,
    reader_busy_s: f64,
    reader_tuples_ok: u64,
    reader_queries: u64,
    reader_wrong: u64,
}

fn run_round(
    env: &Env,
    inputs: &Inputs,
    wal: &Wal,
    ops: &mut UpdateOpGen,
    round: usize,
    readers: usize,
) -> Round {
    let (engine, table) = (&inputs.engine, inputs.table);
    let rec = &env.recorder;
    let mut result = Round::default();
    rec.set_enabled(env.trace);
    let reader_results: Vec<(f64, Result<(u64, u64)>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..readers)
            .map(|r| {
                scope.spawn(move || {
                    let _span = rec.enter(READER_SPAN, Some((round * readers + r) as u64));
                    let (outcome, secs) = timed(|| reader_query(engine, table));
                    (secs, outcome)
                })
            })
            .collect();

        // The writer runs on this thread, beside the readers.
        let mut visible = engine.visible_rows(table).expect("visible rows");
        let mut synced = wal.synced();
        let loop_started = Instant::now();
        for i in 0..env.scaled(OPS_PER_ROUND) {
            let op = ops.next_op(visible, COLUMN_NAMES.len());
            let delta: i64 = match op {
                UpdateOp::Insert { .. } => 1,
                UpdateOp::Delete { .. } => -1,
                UpdateOp::Modify { .. } => 0,
            };
            // The traced run spans every other group of commits, so it
            // also measures what a span costs.
            let traced = env.trace && (i / GROUP_COMMIT as u64) % 2 == 0;
            let (applied, secs) = timed(|| {
                let id = round as u64 * OPS_PER_ROUND + i;
                let _span = traced.then(|| rec.enter(COMMIT_SPAN, Some(id)));
                apply(engine, table, op)
            });
            let now_synced = wal.synced();
            result.commits.push(Commit {
                traced,
                secs,
                synced: now_synced != synced,
            });
            synced = now_synced;
            match applied {
                Ok(()) => visible = visible.wrapping_add_signed(delta),
                Err(error) => {
                    eprintln!("commit failed: {error}");
                    result.commits_failed += 1;
                }
            }
        }
        result.commit_loop_s = loop_started.elapsed().as_secs_f64();
        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread"))
            .collect()
    });
    rec.set_enabled(false);
    for (secs, outcome) in reader_results {
        result.reader_queries += 1;
        result.reader_busy_s += secs;
        match outcome {
            Ok((visible, counted)) if visible == counted => result.reader_tuples_ok += counted,
            Ok((visible, counted)) => {
                eprintln!("reader counted {counted} rows, its pin shows {visible}");
                result.reader_wrong += 1;
            }
            Err(error) => {
                eprintln!("reader failed: {error}");
                result.reader_wrong += 1;
            }
        }
    }
    result
}

fn all_rows(engine: &Arc<Engine>, table: TableId) -> Vec<Vec<Value>> {
    engine
        .query(table)
        .columns(COLUMN_NAMES)
        .range(..)
        .in_order()
        .rows()
        .expect("table rows")
}

pub fn run(env: &Env) -> Outcome {
    let mut out = Outcome::default();
    let (inputs, setup_s) = env.timed_setup(|| setup(env));
    let readers = env.workers.saturating_sub(1).max(1);
    out.note("lineitem_tuples", env.scaled(LINEITEM_TUPLES) as f64);
    out.note("readers", readers as f64);
    out.note("pool_bytes", inputs.config.buffer_pool_bytes as f64);

    let (engine, table) = (&inputs.engine, inputs.table);
    let wal = Arc::clone(engine.wal().expect("a durable engine has a WAL"));
    let wal_path = inputs.scratch.path().join(WAL_FILE_NAME);
    let wal_len = || std::fs::metadata(&wal_path).map_or(0, |m| m.len());
    let mut ops = UpdateStreamSpec {
        label: "writer".into(),
        table,
        ops_per_round: OPS_PER_ROUND,
        mix: UpdateMix::balanced(),
        checkpoint_every: None,
        seed: env.seed,
    }
    .ops();

    // Whole checkpoint cycles only, and a fixed number of them: commits and
    // merges get dearer as the pending delta grows and every checkpoint
    // adds an image to the process, so a run that stopped wherever the
    // clock said would report a different mix of work, and a different
    // footprint, each time. One cycle takes three quarters of a second on
    // the reference sandbox; `--seconds` is read as that many cycles.
    let cycles = (env.seconds.round() as usize).max(2);
    let mut rounds: Vec<Round> = Vec::new();
    let mut checkpoints_s = Vec::new();
    // Wall time of each cycle, its checkpoint included.
    let mut cycles_s = Vec::new();
    let mut cycle_started = Instant::now();
    let (mut wal_bytes, mut wal_appended) = (0u64, 0u64);
    while rounds.len() < cycles * CHECKPOINT_EVERY {
        let before = (wal_len(), wal.appended());
        let round = run_round(env, &inputs, &wal, &mut ops, rounds.len(), readers);
        // Rotation at a checkpoint rewrites the log, so its growth is
        // measured per round, never across a checkpoint.
        wal_bytes += wal_len().saturating_sub(before.0);
        wal_appended += wal.appended() - before.1;
        rounds.push(round);
        if rounds.len() % CHECKPOINT_EVERY == 0 {
            env.recorder.set_enabled(env.trace);
            let (snapshot, secs) = {
                let _span = env
                    .recorder
                    .enter(CHECKPOINT_SPAN, Some(rounds.len() as u64));
                timed(|| engine.checkpoint(table))
            };
            env.recorder.set_enabled(false);
            out.check(snapshot.is_ok());
            checkpoints_s.push(secs);
            cycles_s.push(cycle_started.elapsed().as_secs_f64());
            cycle_started = Instant::now();
        }
    }

    // Crash and recover: drop the engine, rebuild it from the directory,
    // compare every row.
    let before = all_rows(engine, table);
    let buffer = engine.buffer_stats();
    let io = engine.device().stats();
    let io_latency = engine.device().latency().unwrap_or_default();
    let read_page_file_ns = if env.trace {
        read_page_probe(engine.storage(), table)
    } else {
        0.0
    };
    drop(wal);
    let Inputs {
        engine,
        config,
        scratch,
        build_s,
        materialize_s,
        ..
    } = inputs;
    drop(engine);
    let replayed = Wal::read_records(scratch.path()).map_or(0, |records| {
        records
            .iter()
            .filter(|r| r.kind == WalRecordKind::Commit)
            .count()
    });
    env.recorder.set_enabled(env.trace);
    let (recovered, recover_s) = {
        let _span = env.recorder.enter(RECOVER_SPAN, None);
        timed(|| Engine::recover(scratch.path(), config))
    };
    env.recorder.set_enabled(false);
    match recovered {
        Ok(recovered) => out.check(all_rows(&recovered, table) == before),
        Err(error) => {
            eprintln!("recovery failed: {error}");
            out.check(false);
        }
    }

    let commits: u64 = rounds.iter().map(|r| r.commits.len() as u64).sum();
    let commits_failed: u64 = rounds.iter().map(|r| r.commits_failed).sum();
    let reader_queries: u64 = rounds.iter().map(|r| r.reader_queries).sum();
    let reader_wrong: u64 = rounds.iter().map(|r| r.reader_wrong).sum();
    out.attempted += commits + reader_queries;
    out.failed += commits_failed + reader_wrong;
    out.note("rounds", rounds.len() as f64);
    out.note("commits", commits as f64);
    let reader_busy: f64 = rounds.iter().map(|r| r.reader_busy_s).sum();
    let reader_tuples: u64 = rounds.iter().map(|r| r.reader_tuples_ok).sum();
    let commit_us = stats::sorted(
        rounds
            .iter()
            .flat_map(|r| r.commits.iter().map(|c| c.secs * 1e6))
            .collect(),
    );
    if !env.trace {
        out.set("setup_s", setup_s);
        // Every checkpoint cycle does the same work (ten rounds under a
        // delta growing from nothing, then the checkpoint), so each is one
        // sample of the rates, and the run reports the median over its
        // cycles: load on the host that comes and goes spoils the cycles it
        // hits, not the figure.
        let cycles: Vec<&[Round]> = rounds.chunks(CHECKPOINT_EVERY).collect();
        let over_cycles = |f: fn(&[Round], usize) -> f64| -> f64 {
            stats::median(&cycles.iter().map(|c| f(c, readers)).collect::<Vec<f64>>())
        };
        out.set(
            "tuples_per_s",
            over_cycles(|cycle, readers| {
                let busy: f64 = cycle.iter().map(|r| r.reader_busy_s).sum();
                let tuples: u64 = cycle.iter().map(|r| r.reader_tuples_ok).sum();
                // Readers run side by side: their own busy time, per reader.
                tuples as f64 / (busy / readers as f64)
            }),
        );
        out.set(
            "commits_per_s",
            over_cycles(|cycle, _| {
                let ok: u64 = cycle
                    .iter()
                    .map(|r| r.commits.len() as u64 - r.commits_failed)
                    .sum();
                ok as f64 / cycle.iter().map(|r| r.commit_loop_s).sum::<f64>()
            }),
        );
        // ISSUE 11 defines no latency here; both latency cells carry the
        // median checkpoint cycle, its checkpoint included (see
        // `metrics::NOT_APPLICABLE`).
        let cycle_ms: Vec<f64> = cycles_s.iter().map(|s| s * 1e3).collect();
        out.set("latency_p50_ms", stats::median(&cycle_ms));
        out.set("latency_p99_ms", stats::median(&cycle_ms));
        return out;
    }

    out.set("setup.build_s", build_s);
    out.set("storage.materialize_s", materialize_s);
    out.set("storage.read_page_file_ns", read_page_file_ns);
    out.set(
        "pdt.commit_us_p50",
        stats::quantile(&commit_us, 0.5).unwrap_or(0.0),
    );
    out.set(
        "pdt.commit_us_p99",
        stats::quantile(&commit_us, 0.99).unwrap_or(0.0),
    );
    out.set("pdt.checkpoint_s", stats::median(&checkpoints_s));
    out.set(
        "pdt.pending_ops_at_checkpoint",
        (CHECKPOINT_EVERY as u64 * env.scaled(OPS_PER_ROUND)) as f64,
    );
    out.set(
        "pdt.merge_ns_per_tuple",
        ratio(reader_busy * 1e9, reader_tuples as f64),
    );
    out.set("exec.recover_s", recover_s);
    out.set("exec.recover_commits", replayed as f64);
    out.set_buffer_stats(&buffer);
    out.set("iosim.requests", io.requests as f64);
    out.set("iosim.bytes_read", io.bytes_read as f64);
    out.set(
        "iosim.file_read_us_p50",
        io_latency.demand.p50_nanos as f64 / 1e3,
    );
    out.set(
        "iosim.file_read_us_p99",
        io_latency.demand.p99_nanos as f64 / 1e3,
    );
    out.set(
        "storage.wal_bytes_per_commit",
        ratio(wal_bytes as f64, wal_appended as f64),
    );
    let wal_syncs = rounds
        .iter()
        .flat_map(|r| &r.commits)
        .filter(|c| c.synced)
        .count();
    out.set(
        "storage.wal_syncs_per_commit",
        ratio(wal_syncs as f64, commits as f64),
    );
    let (append_us, sync_us) =
        wal_probe(env, ratio(wal_bytes as f64, wal_appended as f64) as usize);
    out.set("storage.wal_append_us", append_us);
    out.set("storage.wal_sync_us", sync_us);

    let commit_s = |traced: bool| -> Vec<f64> {
        let all = rounds.iter().flat_map(|r| &r.commits);
        all.filter(|c| c.traced == traced).map(|c| c.secs).collect()
    };
    out.set_trace_cost(
        env.recorder.total(COMMIT_SPAN),
        &commit_s(true),
        &commit_s(false),
    );
    out
}

/// `Wal::append_commit` and `Wal::commit_sync` alone, on a scratch log with
/// every commit individually durable: microseconds per call, for bodies of
/// the size the workload's commits have.
fn wal_probe(env: &Env, body_len: usize) -> (f64, f64) {
    let scratch = env.scratch("walprobe").expect("scratch dir");
    let wal = Wal::open(scratch.path(), 1).expect("scratch wal");
    let body = vec![0xA5u8; body_len.max(16)];
    let (mut append_us, mut sync_us) = (Vec::new(), Vec::new());
    for _ in 0..env.scaled(500) {
        let (seq, secs) = timed(|| wal.append_commit(&body).expect("append_commit"));
        append_us.push(secs * 1e6);
        sync_us.push(timed(|| wal.commit_sync(seq).expect("commit_sync")).1 * 1e6);
    }
    (stats::median(&append_us), stats::median(&sync_us))
}
