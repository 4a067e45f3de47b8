//! End-to-end tests of the serving layer over a Unix-domain socket:
//! wire results match in-process engine results across concurrent
//! sessions, protocol violations and bad queries come back as typed
//! error frames, admission control sheds under overload, and shutdown
//! mid-query is clean.

#![cfg(unix)]

use std::collections::HashSet;
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use scanshare::common::{PageId, ScanId};
use scanshare::core::policy::{ReplacementPolicy, ScanInfo};
use scanshare::prelude::*;
use scanshare::serve::loadgen::{self, LoadgenConfig, Target};
use scanshare::serve::protocol::{read_frame, Message, PROTOCOL_VERSION};
use scanshare::storage::layout::ScanPagePlan;

const PAGE: u64 = 64 * 1024;
const CHUNK: u64 = 10_000;
const TUPLES: u64 = 200_000;

static TEST_DIR_SEQ: AtomicU32 = AtomicU32::new(0);

/// Self-cleaning tempdir (no external tempfile dependency).
struct TestDir(PathBuf);

impl TestDir {
    fn new(tag: &str) -> Self {
        let seq = TEST_DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "scanshare-serve-{tag}-{}-{seq}",
            std::process::id()
        ));
        std::fs::create_dir_all(&path).unwrap();
        Self(path)
    }

    fn socket(&self) -> PathBuf {
        self.0.join("serve.sock")
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn build_engine() -> (Arc<Engine>, TableId) {
    build_engine_with(&PolicyRegistry::default(), test_config())
}

/// The test engine's configuration: PBM over a 4 MiB pool.
fn test_config() -> ScanShareConfig {
    ScanShareConfig {
        page_size_bytes: PAGE,
        chunk_tuples: CHUNK,
        buffer_pool_bytes: 4 << 20,
        policy: PolicyKind::Pbm,
        ..Default::default()
    }
}

/// The test engine under `config`, its page-level policy resolved from
/// `registry`.
fn build_engine_with(registry: &PolicyRegistry, config: ScanShareConfig) -> (Arc<Engine>, TableId) {
    let storage = Storage::new(PAGE, CHUNK);
    let table = storage
        .create_table_with_data(
            TableSpec::new(
                "lineitem",
                vec![
                    ColumnSpec::new("l_orderkey", ColumnType::Int64),
                    ColumnSpec::new("l_quantity", ColumnType::Int64),
                ],
                TUPLES,
            ),
            vec![
                DataGen::Sequential { start: 1, step: 1 },
                DataGen::Uniform { min: 1, max: 50 },
            ],
        )
        .unwrap();
    let engine = Engine::with_registry(storage, config, registry).unwrap();
    (engine, table)
}

/// LRU, except that the `panic_at`-th `on_access` panics (once): a policy
/// bug striking on a scheduler worker in the middle of a served query.
#[derive(Debug)]
struct PanicsOnce {
    inner: LruPolicy,
    accesses: u64,
    panic_at: u64,
}

impl ReplacementPolicy for PanicsOnce {
    fn name(&self) -> &'static str {
        "panics-once"
    }
    fn register_scan(&mut self, info: &ScanInfo, plan: &ScanPagePlan, now: VirtualInstant) {
        self.inner.register_scan(info, plan, now)
    }
    fn report_scan_position(&mut self, scan: ScanId, tuples: u64, now: VirtualInstant) {
        self.inner.report_scan_position(scan, tuples, now)
    }
    fn unregister_scan(&mut self, scan: ScanId, now: VirtualInstant) {
        self.inner.unregister_scan(scan, now)
    }
    fn on_access(&mut self, page: PageId, scan: Option<ScanId>, now: VirtualInstant) {
        self.accesses += 1;
        assert_ne!(self.accesses, self.panic_at, "injected policy panic");
        self.inner.on_access(page, scan, now)
    }
    fn on_admit(&mut self, page: PageId, now: VirtualInstant) {
        self.inner.on_admit(page, now)
    }
    fn on_evict(&mut self, page: PageId) {
        self.inner.on_evict(page)
    }
    fn choose_victims(
        &mut self,
        count: usize,
        exclude: &HashSet<PageId>,
        now: VirtualInstant,
    ) -> Vec<PageId> {
        self.inner.choose_victims(count, exclude, now)
    }
}

/// An engine whose replacement policy panics on its fifth page access.
fn build_panicking_engine() -> (Arc<Engine>, TableId) {
    let mut registry = PolicyRegistry::default();
    registry.register("panics-once", |_| {
        Box::new(PanicsOnce {
            inner: LruPolicy::new(),
            accesses: 0,
            panic_at: 5,
        })
    });
    let config = ScanShareConfig {
        custom_policy: Some("panics-once".into()),
        ..test_config()
    };
    build_engine_with(&registry, config)
}

fn sum_request() -> QueryRequest {
    let mut request =
        QueryRequest::count_star("lineitem", vec!["l_orderkey".into(), "l_quantity".into()]);
    request.aggregates.push(Aggregate::Sum(1));
    request
}

/// A raw connection past the handshake, for frames `ServeClient` never
/// sends or reads it never stops doing; reads time out instead of hanging.
fn raw_connection(socket: &Path) -> UnixStream {
    let mut sock = UnixStream::connect(socket).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    sock.write_all(
        &Message::Hello {
            version: PROTOCOL_VERSION,
            tenant: "tenant-a".into(),
        }
        .encode(0),
    )
    .unwrap();
    let welcome = read_frame(&mut sock).unwrap().expect("WELCOME");
    match Message::decode(&welcome).unwrap() {
        Message::Welcome { session_limit, .. } => assert_eq!(session_limit, 65_536),
        other => panic!("expected WELCOME, got {other:?}"),
    }
    sock
}

/// The code of the ERROR frame that must come next on `sock`.
fn next_error_code(sock: &mut UnixStream) -> u16 {
    let frame = read_frame(sock).unwrap().expect("an error frame");
    match Message::decode(&frame).unwrap() {
        Message::Error { code, .. } => code,
        other => panic!("expected ERROR frame, got {other:?}"),
    }
}

/// Concurrent sessions over one Unix socket must each receive exactly the
/// result the in-process engine computes.
#[test]
fn concurrent_sessions_match_direct_engine_results() {
    let dir = TestDir::new("parity");
    let (engine, table) = build_engine();
    let reference = engine
        .query(table)
        .columns(["l_orderkey", "l_quantity"])
        .aggregate(AggrSpec::global(vec![Aggregate::Count, Aggregate::Sum(1)]))
        .run()
        .unwrap();
    let expected_count = reference[&0].count;
    let expected_sum = reference[&0].accumulators[1];

    let mut server = Server::new(engine, ServeConfig::default());
    server.bind_unix(dir.socket()).unwrap();

    let threads: Vec<_> = (0..8)
        .map(|_| {
            let socket = dir.socket();
            std::thread::spawn(move || {
                let mut client = ServeClient::connect_unix(&socket, "tenant-a").unwrap();
                for _ in 0..3 {
                    let groups = client.query(sum_request()).unwrap();
                    assert_eq!(groups.len(), 1);
                    assert_eq!(groups[0].count, expected_count);
                    assert_eq!(groups[0].accumulators[1], expected_sum);
                }
            })
        })
        .collect();
    for thread in threads {
        thread.join().unwrap();
    }

    let stats = server.stats();
    assert_eq!(stats.completed, 24);
    assert_eq!(stats.shed, 0);
    server.shutdown();
}

/// The load generator multiplexes many logical sessions over few
/// connections; with generous admission limits every query is served.
#[test]
fn multiplexed_sessions_all_complete() {
    let dir = TestDir::new("loadgen");
    let (engine, _) = build_engine();
    let mut server = Server::new(
        engine,
        ServeConfig::default().with_max_queued_per_tenant(4096),
    );
    server.bind_unix(dir.socket()).unwrap();

    let mut request = sum_request();
    request.end = Some(5_000); // keep each query cheap
    let report = loadgen::run(&LoadgenConfig {
        target: Target::Unix(dir.socket()),
        tenant: "tenant-a".into(),
        connections: 4,
        sessions: 96,
        queries_per_session: 2,
        request,
    })
    .unwrap();

    assert_eq!(report.completed, 96 * 2);
    assert_eq!(report.shed, 0);
    assert_eq!(report.errors, 0);
    assert!(report.p50() <= report.p999());
    server.shutdown();
}

/// A join query over the wire (protocol v2) returns exactly the result the
/// in-process builder API computes, and an unknown build table comes back
/// as a typed UNKNOWN_TABLE frame without killing the session.
#[test]
fn join_queries_over_the_wire_match_the_engine() {
    use scanshare::serve::protocol::JoinRequest;

    let dir = TestDir::new("join");
    let (engine, table) = build_engine();
    // A 50-row "part" table keyed 1..=50, so every l_quantity value joins
    // exactly one part row.
    let part = engine
        .storage()
        .create_table_with_data(
            TableSpec::new(
                "part",
                vec![
                    ColumnSpec::new("p_key", ColumnType::Int64),
                    ColumnSpec::new("p_weight", ColumnType::Int64),
                ],
                50,
            ),
            vec![
                DataGen::Sequential { start: 1, step: 1 },
                DataGen::Sequential {
                    start: 100,
                    step: 1,
                },
            ],
        )
        .unwrap();
    // Joined layout: [l_orderkey, l_quantity, p_key, p_weight].
    let reference = engine
        .query(table)
        .columns(["l_orderkey", "l_quantity"])
        .aggregate(AggrSpec::global(vec![Aggregate::Count, Aggregate::Sum(3)]))
        .parallelism(2)
        .join(part, 1, "p_key")
        .join_columns(["p_weight"])
        .run()
        .unwrap();
    let expected = &reference[&0];
    assert_eq!(expected.count, TUPLES, "every probe row must match");

    let mut server = Server::new(engine, ServeConfig::default());
    server.bind_unix(dir.socket()).unwrap();
    let mut client = ServeClient::connect_unix(dir.socket(), "tenant-a").unwrap();

    let join = JoinRequest {
        table: "part".into(),
        left_col: 1,
        right_col: "p_key".into(),
        columns: vec!["p_weight".into()],
    };
    let mut request = sum_request();
    request.aggregates = vec![Aggregate::Count, Aggregate::Sum(3)];
    request.parallelism = 2;
    request.join = Some(join.clone());
    let groups = client.query(request).unwrap();
    assert_eq!(groups.len(), 1);
    assert_eq!(groups[0].count, expected.count);
    assert_eq!(groups[0].accumulators, expected.accumulators);

    // Unknown build table: typed error, session stays usable.
    let mut bad_join = join;
    bad_join.table = "no_such_dim".into();
    let request = QueryRequest {
        join: Some(bad_join),
        ..sum_request()
    };
    match client.query(request) {
        Err(scanshare::common::Error::Remote { code, .. }) => {
            assert_eq!(code, ErrorCode::UnknownTable.as_u16())
        }
        other => panic!("expected UNKNOWN_TABLE error frame, got {other:?}"),
    }
    let groups = client.query(sum_request()).unwrap();
    assert_eq!(groups[0].count, TUPLES);
    server.shutdown();
}

/// Server-side failures arrive as typed ERROR frames, and a failed query
/// leaves the session usable for the next one.
#[test]
fn bad_requests_get_typed_error_frames() {
    let dir = TestDir::new("errors");
    let (engine, _) = build_engine();
    let mut server = Server::new(engine, ServeConfig::default());
    server.bind_unix(dir.socket()).unwrap();

    let mut client = ServeClient::connect_unix(dir.socket(), "tenant-a").unwrap();

    let mut unknown_table = sum_request();
    unknown_table.table = "no_such_table".into();
    match client.query(unknown_table) {
        Err(scanshare::common::Error::Remote { code, .. }) => {
            assert_eq!(code, ErrorCode::UnknownTable.as_u16())
        }
        other => panic!("expected UNKNOWN_TABLE error frame, got {other:?}"),
    }

    let mut unknown_column = sum_request();
    unknown_column.columns = vec!["no_such_column".into()];
    match client.query(unknown_column) {
        Err(scanshare::common::Error::Remote { code, .. }) => {
            assert_eq!(code, ErrorCode::BadQuery.as_u16())
        }
        other => panic!("expected BAD_QUERY error frame, got {other:?}"),
    }

    // A filter, group-by or aggregate column outside the 2-column
    // projection is a plan error, not a worker panic: each gets a BAD_QUERY
    // frame naming the index, and the session answers the next query.
    let mut bad_filter = sum_request();
    bad_filter.filter = Some(Predicate::new(2, CompareOp::Le, 10));
    let mut bad_group_by = sum_request();
    bad_group_by.group_by = Some(5);
    let mut bad_aggregate = sum_request();
    bad_aggregate.aggregates = vec![Aggregate::Count, Aggregate::Sum(9)];
    for (request, index) in [
        (bad_filter, "column 2"),
        (bad_group_by, "column 5"),
        (bad_aggregate, "column 9"),
    ] {
        match client.query(request) {
            Err(scanshare::common::Error::Remote { code, message }) => {
                assert_eq!(code, ErrorCode::BadQuery.as_u16(), "{message}");
                assert!(message.contains(index), "{message}");
                assert!(message.contains("2-column"), "{message}");
            }
            other => panic!("expected BAD_QUERY error frame, got {other:?}"),
        }
        // The session survives typed errors: a good query still works.
        let groups = client.query(sum_request()).unwrap();
        assert_eq!(groups[0].count, TUPLES);
    }
    server.shutdown();

    // A query task that dies of a panic mid-scan (here: in the replacement
    // policy, on a scheduler worker) still answers its session — one
    // INTERNAL frame instead of silence — and the session answers the next
    // query. The client runs on its own thread so a missing frame fails the
    // test instead of hanging it.
    let (engine, _) = build_panicking_engine();
    let mut server = Server::new(engine, ServeConfig::default());
    let socket = TestDir::new("panic");
    server.bind_unix(socket.socket()).unwrap();
    let mut client = ServeClient::connect_unix(socket.socket(), "tenant-a").unwrap();
    let (answers, answered) = std::sync::mpsc::channel();
    let session = std::thread::spawn(move || {
        for _ in 0..2 {
            answers.send(client.query(sum_request())).unwrap();
        }
    });
    let answer = || {
        answered
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("the session must get a frame for every query")
    };
    match answer() {
        Err(scanshare::common::Error::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::Internal.as_u16(), "{message}");
            assert!(message.contains("injected policy panic"), "{message}");
        }
        other => panic!("expected INTERNAL error frame, got {other:?}"),
    }
    assert_eq!(answer().unwrap()[0].count, TUPLES);
    session.join().unwrap();
    server.shutdown();
}

/// The blocking terminals (`Query::run`, `Query::rows`, which drive the query
/// task on the caller's thread) give the same guarantee the served task path
/// does, at every parallelism: a panic below the scan is a typed error to
/// the caller, and the engine answers the next query exactly.
#[test]
fn a_panicking_scan_worker_is_a_typed_error_on_the_inline_path() {
    let query =
        |engine: &Arc<Engine>, table| engine.query(table).columns(["l_orderkey", "l_quantity"]);
    let sum = |engine: &Arc<Engine>, table, parallelism| {
        query(engine, table)
            .aggregate(AggrSpec::global(vec![Aggregate::Count, Aggregate::Sum(1)]))
            .parallelism(parallelism)
            .run()
            .map(|groups| groups[&0].accumulators.clone())
    };
    let rows = |engine: &Arc<Engine>, table| query(engine, table).in_order().rows();
    let (healthy, table) = build_engine();
    let expected_sum = sum(&healthy, table, 1).unwrap();
    assert_eq!(expected_sum[0], TUPLES as i64);
    let expected_rows = rows(&healthy, table).unwrap();
    assert_eq!(expected_rows.len() as u64, TUPLES);
    for parallelism in [1, 4] {
        let (engine, table) = build_panicking_engine();
        let message = sum(&engine, table, parallelism)
            .expect_err("the policy panics mid-scan")
            .to_string();
        assert!(message.contains("injected policy panic"), "{message}");
        assert_eq!(sum(&engine, table, parallelism).unwrap(), expected_sum);
    }
    let (engine, table) = build_panicking_engine();
    let message = rows(&engine, table)
        .expect_err("the policy panics mid-scan")
        .to_string();
    assert!(message.contains("injected policy panic"), "{message}");
    assert_eq!(rows(&engine, table).unwrap(), expected_rows);
}

/// Handshake violations — a wrong protocol version, a QUERY before HELLO —
/// and a server-to-client kind (PONG) sent by the client are rejected with
/// the documented codes, closing the connection.
#[test]
fn handshake_violations_are_rejected() {
    let dir = TestDir::new("handshake");
    let (engine, _) = build_engine();
    let mut server = Server::new(engine, ServeConfig::default());
    server.bind_unix(dir.socket()).unwrap();

    // Wrong version.
    let mut sock = UnixStream::connect(dir.socket()).unwrap();
    sock.write_all(
        &Message::Hello {
            version: PROTOCOL_VERSION + 7,
            tenant: "tenant-a".into(),
        }
        .encode(0),
    )
    .unwrap();
    assert_eq!(
        next_error_code(&mut sock),
        ErrorCode::UnsupportedVersion.as_u16()
    );
    assert!(
        read_frame(&mut sock).unwrap().is_none(),
        "connection closes"
    );

    // QUERY before HELLO.
    let mut sock = UnixStream::connect(dir.socket()).unwrap();
    sock.write_all(&Message::Query(sum_request()).encode(0))
        .unwrap();
    assert_eq!(next_error_code(&mut sock), ErrorCode::BadFrame.as_u16());
    assert!(
        read_frame(&mut sock).unwrap().is_none(),
        "connection closes"
    );

    // PONG from the client, after a good handshake.
    let mut sock = raw_connection(&dir.socket());
    sock.write_all(&Message::Pong.encode(0)).unwrap();
    assert_eq!(next_error_code(&mut sock), ErrorCode::BadFrame.as_u16());
    assert!(
        read_frame(&mut sock).unwrap().is_none(),
        "connection closes"
    );
    server.shutdown();
}

/// GOODBYE is not answered, and the connection stays usable after it: an
/// answer would arrive where `ping` expects its PONG.
#[test]
fn goodbye_is_unanswered_and_the_connection_stays_usable() {
    let dir = TestDir::new("goodbye");
    let (engine, _) = build_engine();
    let mut server = Server::new(engine, ServeConfig::default());
    server.bind_unix(dir.socket()).unwrap();

    let mut client = ServeClient::connect_unix(dir.socket(), "tenant-a").unwrap();
    client.goodbye().unwrap();
    client.ping().unwrap();
    assert_eq!(client.query(sum_request()).unwrap()[0].count, TUPLES);
    server.shutdown();
}

/// A client that stops reading mid-result stalls only itself. On one
/// scheduler worker, connection A's query grouped on `l_orderkey` owes
/// 200 000 RESULT_GROUP frames — far past the 1 024-frame outbound queue
/// plus the socket buffer — and A reads none of them, so A's task can only
/// yield on backpressure. Connection B's query still completes on that one
/// worker. A second QUERY on A's busy session, sent before A reads anything
/// and so while the first is necessarily in flight, gets BAD_QUERY. Then A
/// reads its whole result in key order.
#[test]
fn a_stalled_client_blocks_neither_the_worker_nor_other_connections() {
    let dir = TestDir::new("stalled");
    let config = test_config().with_scheduler_workers(1);
    let (engine, _) = build_engine_with(&PolicyRegistry::default(), config);
    let mut server = Server::new(engine, ServeConfig::default());
    server.bind_unix(dir.socket()).unwrap();

    let mut grouped = sum_request();
    grouped.group_by = Some(0);
    let mut a = raw_connection(&dir.socket());
    a.write_all(&Message::Query(grouped.clone()).encode(1))
        .unwrap();
    a.write_all(&Message::Query(grouped).encode(1)).unwrap();
    // Counted as completed once aggregated: from then on A's task is
    // draining into a queue that only A can empty.
    let deadline = Instant::now() + Duration::from_secs(20);
    while server.stats().completed == 0 {
        assert!(Instant::now() < deadline, "A's query never aggregated");
        std::thread::sleep(Duration::from_millis(5));
    }

    // B on its own thread, so a blocked worker fails the test, not hangs it.
    let socket = dir.socket();
    let (answer, answered) = mpsc::channel();
    let b = std::thread::spawn(move || {
        let mut client = ServeClient::connect_unix(&socket, "tenant-b").unwrap();
        answer.send(client.query(sum_request())).unwrap();
    });
    let groups = answered
        .recv_timeout(Duration::from_secs(20))
        .expect("B's query must complete while A stalls")
        .unwrap();
    assert_eq!(groups[0].count, TUPLES);
    b.join().unwrap();

    // A's frames: the BAD_QUERY reply wherever the reader thread got it into
    // the queue, the groups in key order, RESULT_DONE after the last group.
    let (mut groups, mut bad_query, mut done) = (0u64, 0, None);
    while done.is_none() || bad_query == 0 {
        let frame = read_frame(&mut a).unwrap().expect("A's result");
        assert_eq!(frame.session, 1);
        match Message::decode(&frame).unwrap() {
            Message::ResultGroup(group) => {
                assert!(done.is_none(), "a group after RESULT_DONE");
                groups += 1;
                assert_eq!(group.key, groups as i64);
                assert_eq!(group.count, 1);
            }
            Message::ResultDone { groups } => done = Some(groups),
            Message::Error { code, .. } => {
                assert_eq!(code, ErrorCode::BadQuery.as_u16());
                bad_query += 1;
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(groups, TUPLES);
    assert_eq!(done, Some(TUPLES as u32));
    assert_eq!(bad_query, 1);
    server.shutdown();
}

/// With max_inflight 1 and no queueing, a burst of closed-loop sessions is
/// visibly shed with OVERLOADED while admitted queries still complete.
#[test]
fn overload_sheds_with_typed_errors() {
    let dir = TestDir::new("overload");
    let (engine, _) = build_engine();
    let mut server = Server::new(
        engine,
        ServeConfig::default()
            .with_max_inflight(1)
            .with_max_queued_per_tenant(0),
    );
    server.bind_unix(dir.socket()).unwrap();

    let report = loadgen::run(&LoadgenConfig {
        target: Target::Unix(dir.socket()),
        tenant: "tenant-a".into(),
        connections: 2,
        sessions: 16,
        queries_per_session: 3,
        request: sum_request(), // full 200k-tuple scan: slow enough to pile up
    })
    .unwrap();

    assert_eq!(report.completed + report.shed, 16 * 3);
    assert_eq!(report.errors, 0);
    assert!(report.completed >= 1, "admitted queries must still finish");
    assert!(
        report.shed > 0,
        "a 16-session burst against max_inflight=1 with no queue must shed"
    );
    let stats = server.stats();
    assert_eq!(stats.shed, report.shed);
    server.shutdown();
}

/// Shutting the server down mid-query neither hangs the server nor the
/// client: the client observes a closed connection or a SHUTTING_DOWN
/// frame, and `shutdown()` returns promptly.
#[test]
fn shutdown_mid_query_is_clean() {
    let dir = TestDir::new("shutdown");
    let (engine, _) = build_engine();
    let mut server = Server::new(engine, ServeConfig::default());
    server.bind_unix(dir.socket()).unwrap();

    let socket = dir.socket();
    let client = std::thread::spawn(move || {
        let mut client = ServeClient::connect_unix(&socket, "tenant-a").unwrap();
        // Keep querying until the server goes away.
        loop {
            match client.query(sum_request()) {
                Ok(groups) => assert_eq!(groups[0].count, TUPLES),
                Err(error) => return error,
            }
        }
    });

    // Let at least one query get in flight, then pull the plug.
    std::thread::sleep(std::time::Duration::from_millis(50));
    server.shutdown();

    let error = client.join().unwrap();
    match error {
        scanshare::common::Error::Remote { code, .. } => {
            assert_eq!(code, ErrorCode::ShuttingDown.as_u16())
        }
        scanshare::common::Error::Protocol(_) | scanshare::common::Error::Io(_) => {}
        other => panic!("expected a shutdown-shaped error, got {other:?}"),
    }
}

/// A request the wire format cannot carry unchanged (`Sum(300)` would go out
/// as `Sum(255)`) is refused on the client side, typed, and not one byte of
/// it reaches the socket: a listener that plays the server's half of the
/// handshake sees the connection end with nothing after HELLO, and the load
/// generator does not even connect.
#[test]
fn unencodable_requests_are_rejected_before_anything_is_written() {
    use scanshare::common::Error;
    use std::io::Read;
    use std::os::unix::net::UnixListener;

    let mut request = sum_request();
    request.aggregates = vec![Aggregate::Sum(300)];

    let dir = TestDir::new("unencodable");
    let listener = UnixListener::bind(dir.socket()).unwrap();
    let peer = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        let hello = read_frame(&mut sock).unwrap().expect("HELLO");
        assert!(matches!(
            Message::decode(&hello).unwrap(),
            Message::Hello { .. }
        ));
        let welcome = Message::Welcome {
            version: PROTOCOL_VERSION,
            session_limit: 1,
        };
        sock.write_all(&welcome.encode(0)).unwrap();
        let mut rest = Vec::new();
        sock.read_to_end(&mut rest).unwrap();
        // Back to the test: what followed HELLO, and whether anyone else
        // connected meanwhile.
        listener.set_nonblocking(true).unwrap();
        (rest, listener.accept().is_ok())
    });

    let mut client = ServeClient::connect_unix(dir.socket(), "tenant-a").unwrap();
    match client.query(request.clone()) {
        Err(Error::Protocol(message)) => {
            assert!(message.contains("aggregates.column"), "{message}");
            assert!(message.contains("255"), "{message}");
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
    let config = LoadgenConfig {
        target: Target::Unix(dir.socket()),
        tenant: "tenant-a".into(),
        connections: 2,
        sessions: 4,
        queries_per_session: 1,
        request,
    };
    assert!(matches!(loadgen::run(&config), Err(Error::Protocol(_))));
    drop(client);

    let (after_hello, second_connection) = peer.join().unwrap();
    assert!(after_hello.is_empty(), "client wrote {after_hello:?}");
    assert!(!second_connection, "loadgen connected");
}
