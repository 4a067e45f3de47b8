//! `serve_closed`: a `Server` on a Unix socket in front of a `pbm` engine
//! whose pool holds the whole table, driven by the crate's closed-loop load
//! generator. One batch of `exec` work per query, so framing, admission,
//! the writer queue and the scheduler dominate; the buffer manager only
//! sees hits.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use scanshare_common::{PolicyKind, RangeList, Result, ScanShareConfig};
use scanshare_exec::ops::{AggrResult, CompareOp};
use scanshare_exec::{
    AggrSpec, Aggregate, Engine, Predicate, Task, TaskOutcome, TaskScheduler, TaskStep,
};
use scanshare_serve::loadgen::{self, LoadReport, LoadgenConfig, Target};
use scanshare_serve::protocol::{read_frame, write_frame, Message};
use scanshare_serve::{QueryRequest, ResultGroup, ServeClient, ServeConfig, Server};
use scanshare_storage::datagen::splitmix64;
use scanshare_storage::Storage;
use scanshare_workload::microbench;

use crate::common::{ratio, timed, Env, Outcome, Scratch, CHUNK, PAGE};
use crate::micro::COLUMN_NAMES;
use crate::stats;

pub const LINEITEM_TUPLES: u64 = 200_000;
const SESSIONS: usize = 32;
const REQUEST_TUPLES: u64 = 1_000;
/// Queries per session in one load-generator round: 2 048 per round, about
/// 0.4 s. Short, so that a burst of another tenant's load on the host spoils
/// few of a run's rounds (README, "Steadiness"); long against the round's
/// two handshakes; and with twenty samples beyond its 99th percentile.
const ROUND_QUERIES_PER_SESSION: u64 = 64;
const WARMUP_QUERIES: u64 = 2_000;
/// `l_quantity` and `l_shipdate`, as positions in the table.
const REQUEST_COLUMNS: [usize; 2] = [0, 6];
const TENANT: &str = "bench";
const REQUEST_SPAN: &str = "request";

struct Inputs {
    /// Declared before the scratch directory so it shuts down first.
    server: Server,
    engine: Arc<Engine>,
    scratch: Scratch,
    request: QueryRequest,
    /// The direct-engine result of `request`.
    expected: AggrResult,
    build_s: f64,
    reference_s: f64,
}

impl Inputs {
    fn socket(&self) -> PathBuf {
        self.scratch.path().join("s.sock")
    }

    fn load(&self, env: &Env, queries_per_session: u64) -> Result<LoadReport> {
        loadgen::run(&LoadgenConfig {
            target: Target::Unix(self.socket()),
            tenant: TENANT.into(),
            connections: env.connections,
            sessions: SESSIONS,
            queries_per_session: queries_per_session.max(1) as usize,
            request: self.request.clone(),
        })
    }

    /// The request through the blocking client, compared with the
    /// direct-engine result.
    fn served_result_matches(&self) -> bool {
        let served = ServeClient::connect_unix(self.socket(), TENANT)
            .and_then(|mut client| client.query(self.request.clone()));
        match served {
            Ok(groups) => same_result(&groups, &self.expected),
            Err(error) => {
                eprintln!("served query failed: {error}");
                false
            }
        }
    }
}

/// What one load-generator round measured.
struct Round {
    completed: u64,
    refused: u64,
    wall_s: f64,
    queries_per_s: f64,
    p50_ms: f64,
    p99_ms: f64,
}

impl Round {
    fn of(report: &LoadReport) -> Self {
        let latency_ms: Vec<f64> = report
            .latencies()
            .iter()
            .map(|l| l.as_secs_f64() * 1e3)
            .collect();
        let wall_s = report.wall.as_secs_f64();
        Self {
            completed: report.completed,
            refused: report.shed + report.errors,
            wall_s,
            queries_per_s: report.completed as f64 / wall_s,
            p50_ms: stats::median(&latency_ms),
            p99_ms: stats::tail(&latency_ms, 0.99),
        }
    }
}

fn same_result(served: &[ResultGroup], expected: &AggrResult) -> bool {
    served.len() == expected.len()
        && served.iter().zip(expected).all(|(group, (key, state))| {
            group.key == *key
                && group.count == state.count
                && group.accumulators == state.accumulators
        })
}

fn run_direct(engine: &Arc<Engine>, request: &QueryRequest) -> AggrResult {
    let table = engine
        .storage()
        .table_by_name(&request.table)
        .expect("table")
        .id;
    let mut query = engine
        .query(table)
        .columns(request.columns.iter().cloned())
        .range(request.start..request.end.expect("bounded request"))
        .aggregate(AggrSpec {
            group_by: request.group_by,
            aggregates: request.aggregates.clone(),
        });
    if let Some(filter) = request.filter {
        query = query.filter(filter);
    }
    query.run().expect("direct query")
}

/// Where the request's window starts: drawn from `seed` among the windows
/// that lie inside one chunk and, per column, one page as long as the
/// column's first. A window across a boundary costs a second batch
/// (measured: 2 900 against 5 300 queries/s), one on the table's short last
/// page less than half a query (11 000 queries/s) - either would make this
/// a different workload from one seed to the next.
fn request_start(engine: &Engine, tuples: u64, seed: u64) -> u64 {
    let storage = engine.storage();
    let table = storage.table_by_name("lineitem").expect("lineitem").id;
    let layout = storage.layout(table).expect("layout");
    let snapshot = storage.master_snapshot(table).expect("snapshot");
    let mut state = seed;
    loop {
        state = splitmix64(state);
        let start = state % (tuples - REQUEST_TUPLES);
        let last = start + REQUEST_TUPLES - 1;
        let window = RangeList::single(start, last + 1);
        let pages = layout.scan_page_plan(&snapshot, &REQUEST_COLUMNS, &window);
        let stable = snapshot.stable_tuples();
        let like_the_first = pages.pages.iter().all(|p| {
            p.sid_range.len() == layout.sid_range_of_page(p.column_index, 0, stable).len()
        });
        if start / CHUNK == last / CHUNK
            && pages.pages.len() == REQUEST_COLUMNS.len()
            && like_the_first
        {
            return start;
        }
    }
}

fn setup(env: &Env) -> Inputs {
    let tuples = env.scaled(LINEITEM_TUPLES).max(2 * REQUEST_TUPLES);
    let ((server, engine, scratch, request), build_s) = timed(|| {
        let storage = Storage::with_seed(PAGE, CHUNK, env.seed);
        let table = microbench::setup_lineitem(&storage, tuples).expect("lineitem");
        let table_bytes = storage.master_page_count(table).expect("pages") as u64 * PAGE;
        let engine = Engine::new(
            storage,
            ScanShareConfig {
                buffer_pool_bytes: 2 * table_bytes,
                policy: PolicyKind::Pbm,
                ..env.config()
            },
        )
        .expect("engine");
        let server = Server::new(Arc::clone(&engine), ServeConfig::default());
        let scratch = env.scratch("serve").expect("scratch dir");
        server
            .bind_unix(scratch.path().join("s.sock"))
            .expect("bind unix socket");
        let start = request_start(&engine, tuples, env.seed);
        let request = QueryRequest {
            start,
            end: Some(start + REQUEST_TUPLES),
            filter: Some(Predicate::new(1, CompareOp::Le, 10_200)),
            aggregates: vec![Aggregate::Count, Aggregate::Sum(0)],
            ..QueryRequest::count_star(
                "lineitem",
                REQUEST_COLUMNS
                    .iter()
                    .map(|&c| COLUMN_NAMES[c].into())
                    .collect(),
            )
        };
        (server, engine, scratch, request)
    });
    let (expected, reference_s) = timed(|| run_direct(&engine, &request));
    let inputs = Inputs {
        server,
        engine,
        scratch,
        request,
        expected,
        build_s,
        reference_s,
    };
    // Untimed by the measured phase: the pool is resident afterwards.
    let warmup = env.scaled(WARMUP_QUERIES) / SESSIONS as u64;
    inputs.load(env, warmup).expect("warm-up");
    inputs
}

pub fn run(env: &Env) -> Outcome {
    let mut out = Outcome::default();
    let (mut inputs, setup_s) = env.timed_setup(|| setup(env));
    out.note("lineitem_tuples", env.scaled(LINEITEM_TUPLES) as f64);
    out.note("sessions", SESSIONS as f64);
    out.note("connections", env.connections as f64);

    out.check(inputs.served_result_matches());
    let per_session = env.scaled(ROUND_QUERIES_PER_SESSION);
    let budget = env.budget(1);
    // A round's samples are summarised and dropped when it ends, so the
    // footprint does not follow the number of rounds.
    let mut rounds: Vec<Round> = Vec::new();
    while budget.another(rounds.len()) {
        match inputs.load(env, per_session) {
            Ok(report) => rounds.push(Round::of(&report)),
            Err(error) => {
                eprintln!("load generator failed: {error}");
                out.check(false);
                break;
            }
        }
    }
    out.check(inputs.served_result_matches());

    let wall: f64 = rounds.iter().map(|r| r.wall_s).sum();
    let completed: u64 = rounds.iter().map(|r| r.completed).sum();
    let refused: u64 = rounds.iter().map(|r| r.refused).sum();
    out.attempted += completed + refused;
    out.failed += refused;
    out.note("rounds", rounds.len() as f64);
    if env.trace {
        traced(env, &inputs, wall, completed, &mut out);
    } else {
        out.set("setup_s", setup_s);
        // Every round is the same closed loop, so each is one sample of the
        // rate and of the latency quantiles, and the run reports the median
        // over its rounds: load on the host that comes and goes spoils the
        // rounds it hits, not the figure.
        let over_rounds = |f: fn(&Round) -> f64| -> f64 {
            stats::median(&rounds.iter().map(f).collect::<Vec<f64>>())
        };
        let queries_per_s = over_rounds(|r| r.queries_per_s);
        out.set("tuples_per_s", queries_per_s * REQUEST_TUPLES as f64);
        out.set("queries_per_s", queries_per_s);
        out.note("latency_samples", completed as f64);
        out.set("latency_p50_ms", over_rounds(|r| r.p50_ms));
        out.set("latency_p99_ms", over_rounds(|r| r.p99_ms));
    }
    inputs.server.shutdown();
    out
}

fn traced(env: &Env, inputs: &Inputs, wall: f64, completed: u64, out: &mut Outcome) {
    out.set("setup.build_s", inputs.build_s);
    out.set("setup.reference_s", inputs.reference_s);

    // What the serving path adds to one query: worker time per served
    // query minus the cost of running the same request inline.
    let inline_runs = env.scaled(2_000);
    let (_, inline_s) = timed(|| {
        for _ in 0..inline_runs {
            std::hint::black_box(run_direct(&inputs.engine, &inputs.request));
        }
    });
    let inline_us = inline_s * 1e6 / inline_runs as f64;
    out.set(
        "serve.overhead_us_per_query",
        ratio(wall * 1e6 * env.workers as f64, completed as f64) - inline_us,
    );
    let stats = inputs.server.stats();
    out.set("serve.admitted", stats.admitted as f64);
    out.set("serve.queued", stats.queued as f64);
    out.set("serve.shed", stats.shed as f64);
    out.set("serve.completed", stats.completed as f64);
    let sched = inputs.server.scheduler_stats().unwrap_or_default();
    out.set("exec.sched.yields", sched.yields as f64);
    out.set("exec.sched.steals", sched.steals as f64);
    out.set_buffer_stats(&inputs.engine.buffer_stats());

    // One blocking client on the idle server: ping round trips, then a
    // span per request.
    let mut client = ServeClient::connect_unix(inputs.socket(), TENANT).expect("connect");
    let pings: Vec<f64> = (0..env.scaled(2_000))
        .map(|_| timed(|| client.ping().expect("ping")).1 * 1e6)
        .collect();
    out.set("serve.ping_rtt_us", stats::median(&pings));
    // Every other request gets a span, so the loop also measures what a
    // span costs.
    let (mut traced_s, mut untraced_s) = (Vec::new(), Vec::new());
    env.recorder.set_enabled(true);
    for i in 0..env.scaled(4_000) {
        let traced = i % 2 == 0;
        let (groups, secs) = timed(|| {
            let _span = traced.then(|| env.recorder.enter(REQUEST_SPAN, Some(i)));
            client.query(inputs.request.clone())
        });
        out.check(groups.is_ok_and(|g| same_result(&g, &inputs.expected)));
        if traced {
            traced_s.push(secs);
        } else {
            untraced_s.push(secs);
        }
    }
    env.recorder.set_enabled(false);
    out.set_trace_cost(env.recorder.total(REQUEST_SPAN), &traced_s, &untraced_s);

    out.set(
        "serve.codec_ns_per_frame",
        codec_probe(env, &inputs.request),
    );
    let (quantum_ns, spawn_to_done_us) = sched_probe(env);
    out.set("exec.sched.quantum_ns", quantum_ns);
    out.set("exec.sched.spawn_to_done_us", spawn_to_done_us);
}

/// Encode, frame, unframe and decode the workload's QUERY message on a
/// memory buffer; wall nanoseconds per frame.
fn codec_probe(env: &Env, request: &QueryRequest) -> f64 {
    let frames = env.scaled(100_000);
    let mut buffer: Vec<u8> = Vec::new();
    let started = Instant::now();
    for session in 0..frames {
        buffer.clear();
        let message = Message::Query(request.clone());
        write_frame(&mut buffer, &message.encode(session as u32)).expect("write_frame");
        let frame = read_frame(&mut buffer.as_slice())
            .expect("read_frame")
            .expect("one frame");
        std::hint::black_box(Message::decode(&frame).expect("decode"));
    }
    ratio(started.elapsed().as_nanos() as f64, frames as f64)
}

/// A task that yields `left` times and does nothing else.
struct NoopTask {
    left: u32,
}

impl Task for NoopTask {
    fn step(&mut self) -> Result<TaskStep> {
        if self.left == 0 {
            return Ok(TaskStep::Done);
        }
        self.left -= 1;
        Ok(TaskStep::Yield)
    }
}

/// The scheduler alone: worker time per quantum with many no-op tasks in
/// flight, and spawn-to-completion time of a single task on an idle pool.
fn sched_probe(env: &Env) -> (f64, f64) {
    let scheduler = TaskScheduler::new(env.workers);
    let (tasks, yields) = (env.scaled(1_000), 100u32);
    let started = Instant::now();
    let handles: Vec<_> = (0..tasks)
        .map(|_| scheduler.spawn(NoopTask { left: yields }))
        .collect();
    for handle in handles {
        assert!(matches!(handle.wait(), TaskOutcome::Finished(_)));
    }
    let quanta = tasks as f64 * f64::from(yields + 1);
    let quantum_ns = started.elapsed().as_nanos() as f64 * env.workers as f64 / quanta;

    let singles: Vec<f64> = (0..env.scaled(2_000))
        .map(|_| timed(|| drop(scheduler.spawn(NoopTask { left: 0 }).wait())).1 * 1e6)
        .collect();
    (quantum_ns, stats::median(&singles))
}
