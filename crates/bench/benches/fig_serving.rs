//! Serving-layer scalability: thousands of closed-loop sessions multiplexed
//! onto a fixed pool of scheduler workers, measured through the real wire
//! protocol over a Unix-domain socket.
//!
//! Two experiments:
//!
//! 1. **Sessions scaling** — the session count sweeps far past the worker
//!    count with admission limits wide open; every query must be served and
//!    the p50/p95/p99/p999 tail latencies are reported per session count.
//!    On hosts with at least 8 CPUs (or with
//!    `SCANSHARE_BENCH_ASSERT_SCALING=1`), the ≥1000-session point is
//!    asserted: all queries served on ≤ 8 scheduler workers, no errors.
//! 2. **Overload** — admission is squeezed (`max_inflight` 8, tenant queue
//!    64) under a 1024-session burst of full-table scans, so shedding with
//!    `OVERLOADED` is certain. Every query must still be *answered*
//!    (result or typed error, nothing hangs) — that fraction and the fact
//!    that shedding engaged are the deterministic gated metrics.
//!
//! Wall-clock latencies are machine-dependent and reported ungated.

use std::path::PathBuf;
use std::sync::Arc;

use scanshare_bench::json::Json;
use scanshare_bench::{bench_preset, write_bench_json};

use scanshare_common::{PolicyKind, ScanShareConfig};
use scanshare_exec::{Aggregate, Engine};
use scanshare_serve::loadgen::{self, LoadgenConfig, Target};
use scanshare_serve::{QueryRequest, ServeConfig, Server};
use scanshare_storage::datagen::DataGen;
use scanshare_storage::{ColumnSpec, ColumnType, Storage, TableSpec};

const PAGE: u64 = 64 * 1024;
const CHUNK: u64 = 10_000;
const WORKERS: usize = 8;

/// Self-cleaning tempdir for the Unix socket.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Self {
        let path = std::env::temp_dir().join(format!("scanshare-serving-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create bench tempdir");
        Self(path)
    }

    fn socket(&self, tag: &str) -> PathBuf {
        self.0.join(format!("{tag}.sock"))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn build_engine(tuples: u64) -> Arc<Engine> {
    let storage = Storage::with_seed(PAGE, CHUNK, 42);
    storage
        .create_table_with_data(
            TableSpec::new(
                "lineitem",
                vec![
                    ColumnSpec::new("l_orderkey", ColumnType::Int64),
                    ColumnSpec::new("l_quantity", ColumnType::Int64),
                ],
                tuples,
            ),
            vec![
                DataGen::Sequential { start: 1, step: 1 },
                DataGen::Uniform { min: 1, max: 50 },
            ],
        )
        .expect("lineitem");
    Engine::new(
        storage,
        ScanShareConfig {
            page_size_bytes: PAGE,
            chunk_tuples: CHUNK,
            buffer_pool_bytes: 16 << 20,
            policy: PolicyKind::Pbm,
            ..Default::default()
        }
        .with_scheduler_workers(WORKERS),
    )
    .expect("engine")
}

fn request(scan_tuples: u64) -> QueryRequest {
    let mut request =
        QueryRequest::count_star("lineitem", vec!["l_orderkey".into(), "l_quantity".into()]);
    request.end = Some(scan_tuples);
    request.aggregates.push(Aggregate::Sum(1));
    request
}

fn run_load(
    socket: PathBuf,
    sessions: usize,
    connections: usize,
    queries_per_session: usize,
    scan_tuples: u64,
) -> loadgen::LoadReport {
    loadgen::run(&LoadgenConfig {
        target: Target::Unix(socket),
        tenant: "bench".into(),
        connections,
        sessions,
        queries_per_session,
        request: request(scan_tuples),
    })
    .expect("loadgen run")
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() {
    let preset = bench_preset();
    let (tuples, session_sweep, queries_per_session): (u64, &[usize], usize) = match preset {
        "smoke" => (200_000, &[64, 256, 1024], 2),
        _ => (400_000, &[64, 256, 1024, 2048], 3),
    };
    let scan_tuples = 5_000; // cheap per-query scan for the scaling sweep

    let dir = TempDir::new();
    let engine = build_engine(tuples);
    let mut metrics = Json::object();

    // --- 1. Sessions scaling: thousands of sessions on 8 workers ----------
    println!(
        "fig_serving [{preset}]: {tuples} tuples, {WORKERS} scheduler workers, \
         {queries_per_session} queries/session of {scan_tuples} tuples each"
    );
    println!(
        "{:<10} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "sessions", "conns", "p50[ms]", "p95[ms]", "p99[ms]", "p999[ms]", "q/s", "shed"
    );
    let mut scaling_ok = true;
    let mut server = Server::new(
        Arc::clone(&engine),
        ServeConfig::default().with_max_queued_per_tenant(1 << 14),
    );
    let socket = dir.socket("scaling");
    server.bind_unix(&socket).expect("bind unix");
    for &sessions in session_sweep {
        let connections = 8.min(sessions);
        let report = run_load(
            socket.clone(),
            sessions,
            connections,
            queries_per_session,
            scan_tuples,
        );
        println!(
            "{:<10} {:>8} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.0} {:>8}",
            sessions,
            connections,
            ms(report.p50()),
            ms(report.p95()),
            ms(report.p99()),
            ms(report.p999()),
            report.qps(),
            report.shed
        );
        metrics
            .set(format!("p50_ms_s{sessions}"), ms(report.p50()))
            .set(format!("p95_ms_s{sessions}"), ms(report.p95()))
            .set(format!("p99_ms_s{sessions}"), ms(report.p99()))
            .set(format!("p999_ms_s{sessions}"), ms(report.p999()))
            .set(format!("queries_per_s_s{sessions}"), report.qps());
        if sessions >= 1000 {
            let expected = (sessions * queries_per_session) as u64;
            scaling_ok &= report.completed == expected && report.errors == 0;
            metrics.set(
                format!("served_frac_s{sessions}"),
                report.completed as f64 / expected as f64,
            );
        }
    }
    if let Some(stats) = server.scheduler_stats() {
        println!(
            "scheduler: {} tasks, {} yields on {WORKERS} workers",
            stats.completed, stats.yields
        );
        metrics.set("scheduler_yields", stats.yields as f64);
    }
    server.shutdown();

    // --- 2. Overload: admission visibly sheds, everything is answered -----
    let mut server = Server::new(
        Arc::clone(&engine),
        ServeConfig::default()
            .with_max_inflight(8)
            .with_max_queued_per_tenant(64),
    );
    let socket = dir.socket("overload");
    server.bind_unix(&socket).expect("bind unix");
    let overload_sessions = 1024;
    // Full-table scans so admitted queries are slow enough for the burst
    // to pile up against max_inflight=8 deterministically.
    let report = run_load(socket, overload_sessions, 8, 1, tuples);
    let total = overload_sessions as u64;
    let answered_frac = (report.completed + report.shed) as f64 / total as f64;
    let overload_engaged = if report.shed > 0 { 1.0 } else { 0.0 };
    println!(
        "overload: {} sessions -> {} served, {} shed, {} errors \
         (p99 {:.3} ms over served)",
        overload_sessions,
        report.completed,
        report.shed,
        report.errors,
        ms(report.p99())
    );
    metrics
        .set("answered_frac_s1024", answered_frac)
        .set("overload_engaged_s1024", overload_engaged)
        .set("overload_served_s1024", report.completed as f64)
        .set("overload_shed_s1024", report.shed as f64)
        .set("overload_p99_ms", ms(report.p99()));
    server.shutdown();

    // Emit the artifact before any assertion so a failing run still uploads
    // the numbers behind the failure.
    let mut doc = Json::object();
    doc.set("figure", "fig_serving")
        .set("preset", preset)
        .set("scheduler_workers", WORKERS as f64)
        .set("metrics", metrics);
    write_bench_json("fig_serving", &doc);

    // Deterministic acceptance: overload answered everything and shed.
    assert!(
        (answered_frac - 1.0).abs() < f64::EPSILON,
        "under overload every query must get a result or a typed error \
         (answered fraction {answered_frac})"
    );
    assert!(
        overload_engaged == 1.0,
        "a 1024-session burst against max_inflight=8 must shed"
    );

    // Machine-dependent acceptance, gated only where the host can take it:
    // ≥1000 concurrent sessions served completely on ≤8 workers.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let assert_scaling = cpus >= 8
        || std::env::var("SCANSHARE_BENCH_ASSERT_SCALING")
            .map(|v| v == "1")
            .unwrap_or(false);
    if assert_scaling {
        assert!(
            scaling_ok,
            "the >=1000-session sweep must serve every query on {WORKERS} workers"
        );
    } else {
        println!("({cpus} CPUs: sessions-scaling assert skipped; set SCANSHARE_BENCH_ASSERT_SCALING=1 to force)");
    }
}
