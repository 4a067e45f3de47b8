//! The serving layer: sessions over TCP/Unix sockets, executed as
//! cooperative tasks on the engine's morsel-driven scheduler.
//!
//! # Architecture
//!
//! Each accepted connection gets two OS threads — a **reader** that decodes
//! frames and a **writer** that drains a bounded outbound frame queue — and
//! *no* per-session threads: a connection carries any number of logical
//! sessions (the session id in every frame), and each session's queries run
//! as [`Task`]s on the shared
//! [`TaskScheduler`] worker pool.
//! Thousands of sessions therefore cost a handful of sockets plus
//! [`ScanShareConfig::scheduler_workers`](scanshare_common::ScanShareConfig::scheduler_workers)
//! workers. A connection opens at most 65 536 sessions (the limit WELCOME
//! advertises).
//!
//! One socket type serves the whole crate: these connections,
//! [`ServeClient`](crate::ServeClient) and the [load generator](crate::loadgen)
//! all read and write a private `Sock` (TCP or Unix-domain, `sock.rs`).
//! [`Server::bind_tcp`] and [`Server::bind_unix`] share one accept loop; an
//! accept that fails (`ECONNABORTED`, `EMFILE`, ...) backs off and keeps
//! listening.
//!
//! # Admission control, fairness, backpressure
//!
//! A query is **admitted** while fewer than [`ServeConfig::max_inflight`]
//! queries are running; otherwise it is **queued** on its tenant's bounded
//! queue ([`ServeConfig::max_queued_per_tenant`]) and admitted round-robin
//! across tenants as running queries finish; when the tenant queue is full
//! it is **shed** with an [`ErrorCode::Overloaded`] error frame. Result
//! delivery is backpressured cooperatively: a query task whose connection's
//! outbound queue (1 024 frames) is full *yields* and retries next quantum
//! — it never blocks a scheduler worker on a slow client.

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
#[cfg(unix)]
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use std::time::Duration;

use scanshare_common::{Error, Result};
use scanshare_exec::ops::AggrSpec;
use scanshare_exec::sched::{panic_message, QueryTask, SchedHandle, SchedulerStats, TaskScheduler};
use scanshare_exec::{Engine, Task, TaskStep};

use crate::protocol::{read_frame, ErrorCode, Message};
use crate::sock::Sock;

/// Logical sessions one connection may open; advertised in WELCOME.
const MAX_SESSIONS_PER_CONN: u32 = 65_536;

/// Capacity (frames) of each connection's outbound queue — the backpressure
/// buffer between query tasks and the socket.
const WRITER_QUEUE_FRAMES: usize = 1024;

/// Serving-layer tuning knobs, layered on top of the engine's
/// [`ScanShareConfig`](scanshare_common::ScanShareConfig).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Queries allowed to run on the scheduler simultaneously; arrivals
    /// beyond this are queued per tenant. Default 64.
    pub max_inflight: usize,
    /// Bound on each tenant's admission queue; arrivals beyond it are shed
    /// with [`ErrorCode::Overloaded`]. Default 256.
    pub max_queued_per_tenant: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_inflight: 64,
            max_queued_per_tenant: 256,
        }
    }
}

impl ServeConfig {
    /// Sets [`ServeConfig::max_inflight`].
    pub fn with_max_inflight(mut self, max_inflight: usize) -> Self {
        self.max_inflight = max_inflight.max(1);
        self
    }

    /// Sets [`ServeConfig::max_queued_per_tenant`].
    pub fn with_max_queued_per_tenant(mut self, max_queued: usize) -> Self {
        self.max_queued_per_tenant = max_queued;
        self
    }
}

/// Lifetime counters of a [`Server`]; snapshot with [`Server::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Queries admitted straight onto the scheduler.
    pub admitted: u64,
    /// Queries that waited in a tenant's admission queue first.
    pub queued: u64,
    /// Queries shed with [`ErrorCode::Overloaded`].
    pub shed: u64,
    /// Queries whose full result (terminated by RESULT_DONE) was handed to
    /// the connection writer.
    pub completed: u64,
}

// ---------------------------------------------------------------------------
// Outbound frame queue (the backpressure buffer)
// ---------------------------------------------------------------------------

struct QueueState {
    frames: VecDeque<Vec<u8>>,
    closed: bool,
}

/// Bounded MPSC queue of encoded frames between query tasks / the reader
/// thread (producers) and the connection's writer thread (consumer).
pub(crate) struct FrameQueue {
    state: std::sync::Mutex<QueueState>,
    readable: Condvar,
    writable: Condvar,
    capacity: usize,
}

pub(crate) enum Push {
    Ok,
    /// Queue at capacity; ownership of the frame is handed back so the
    /// caller can retry it later.
    Full(Vec<u8>),
    Closed,
}

impl FrameQueue {
    pub(crate) fn new(capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            state: std::sync::Mutex::new(QueueState {
                frames: VecDeque::new(),
                closed: false,
            }),
            readable: Condvar::new(),
            writable: Condvar::new(),
            capacity,
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Non-blocking push, for scheduler tasks: a full queue means the
    /// client is slow — the task yields instead of blocking a worker.
    pub(crate) fn try_push(&self, frame: Vec<u8>) -> Push {
        let mut state = self.lock();
        if state.closed {
            return Push::Closed;
        }
        if state.frames.len() >= self.capacity {
            return Push::Full(frame);
        }
        state.frames.push_back(frame);
        drop(state);
        self.readable.notify_one();
        Push::Ok
    }

    /// Blocking push, for the reader thread's control replies (WELCOME,
    /// PONG, error frames): blocks while the queue is full, returns `false`
    /// if the queue closed.
    pub(crate) fn push_wait(&self, frame: Vec<u8>) -> bool {
        let mut state = self.lock();
        while !state.closed && state.frames.len() >= self.capacity {
            state = self.writable.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        if state.closed {
            return false;
        }
        state.frames.push_back(frame);
        drop(state);
        self.readable.notify_one();
        true
    }

    /// Blocking pop for the writer thread; `None` once the queue is closed
    /// *and* drained.
    pub(crate) fn pop_wait(&self) -> Option<Vec<u8>> {
        let mut state = self.lock();
        loop {
            if let Some(frame) = state.frames.pop_front() {
                drop(state);
                self.writable.notify_one();
                return Some(frame);
            }
            if state.closed {
                return None;
            }
            state = self.readable.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.readable.notify_all();
        self.writable.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

/// Releases a session's in-flight slot when the query (or queued request)
/// is dropped, so a session can run its next query.
struct SessionSlot {
    conn: Arc<ConnShared>,
    session: u32,
}

impl Drop for SessionSlot {
    fn drop(&mut self) {
        self.conn
            .inflight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&self.session);
    }
}

/// A query waiting in a tenant's admission queue.
struct PendingQuery {
    request: crate::protocol::QueryRequest,
    session: u32,
    writer: Arc<FrameQueue>,
    slot: SessionSlot,
}

#[derive(Default)]
struct AdmissionState {
    running: usize,
    closed: bool,
    queues: BTreeMap<String, VecDeque<PendingQuery>>,
    round_robin: VecDeque<String>,
}

enum Submit {
    Accepted,
    Shed(ErrorCode, &'static str),
}

/// Releases one admission slot on drop and pulls the next queued query in
/// round-robin tenant order onto the scheduler.
struct AdmissionTicket {
    inner: Arc<ServerInner>,
}

impl Drop for AdmissionTicket {
    fn drop(&mut self) {
        self.inner.admission_release();
    }
}

// ---------------------------------------------------------------------------
// The query task
// ---------------------------------------------------------------------------

enum QueryState {
    /// Not yet lowered onto the engine (build errors become error frames).
    Pending(Box<crate::protocol::QueryRequest>),
    /// Aggregating, one quantum at a time (boxed: a join-capable
    /// `QueryTask` is much larger than the other states).
    Running(Box<QueryTask>),
    /// Result (or error) frames encoded, draining into the writer queue.
    Draining,
}

/// One session query on the scheduler: lowers the wire request onto a
/// [`QueryTask`], then delivers result frames through the connection's
/// bounded queue, yielding under backpressure.
struct ServeQueryTask {
    engine: Arc<Engine>,
    state: QueryState,
    out: VecDeque<Vec<u8>>,
    writer: Arc<FrameQueue>,
    session: u32,
    stats: Arc<StatCounters>,
    /// Dropped (in task drop) after the query fully completes or is
    /// cancelled — releasing the admission slot either way.
    _ticket: AdmissionTicket,
    /// The session's one-query-in-flight slot; released explicitly just
    /// before the final result frame is enqueued (see `step`), or on drop
    /// if the task is cancelled.
    slot: Option<SessionSlot>,
}

/// An ERROR frame on `session`.
fn error_frame(code: ErrorCode, message: impl Into<String>, session: u32) -> Vec<u8> {
    Message::Error {
        code: code.as_u16(),
        message: message.into(),
    }
    .encode(session)
}

/// Maps engine errors onto wire error codes.
fn code_for(error: &Error) -> ErrorCode {
    match error {
        Error::UnknownTable(_) => ErrorCode::UnknownTable,
        Error::UnknownColumn { .. } | Error::InvalidPlan(_) | Error::Unsupported(_) => {
            ErrorCode::BadQuery
        }
        _ => ErrorCode::Internal,
    }
}

impl ServeQueryTask {
    fn fail(&mut self, code: ErrorCode, message: String) {
        self.out.push_back(error_frame(code, message, self.session));
        self.state = QueryState::Draining;
    }

    fn build(&mut self, request: crate::protocol::QueryRequest) {
        let table = match self.engine.storage().table_by_name(&request.table) {
            Ok(table) => table.id,
            Err(_) => {
                return self.fail(
                    ErrorCode::UnknownTable,
                    format!("unknown table {:?}", request.table),
                )
            }
        };
        let mut query = self
            .engine
            .query(table)
            .columns(request.columns.iter().map(String::as_str))
            .aggregate(AggrSpec {
                group_by: request.group_by,
                aggregates: request.aggregates.clone(),
            })
            .parallelism(request.parallelism.max(1));
        query = match request.end {
            Some(end) => query.range(request.start..end),
            None => query.range(request.start..),
        };
        if let Some(filter) = request.filter {
            query = query.filter(filter);
        }
        if let Some(join) = request.join {
            let build = match self.engine.storage().table_by_name(&join.table) {
                Ok(table) => table.id,
                Err(_) => {
                    return self.fail(
                        ErrorCode::UnknownTable,
                        format!("unknown join table {:?}", join.table),
                    )
                }
            };
            query = query
                .join(build, join.left_col, join.right_col)
                .join_columns(join.columns);
        }
        match query.into_task() {
            Ok(task) => self.state = QueryState::Running(Box::new(task)),
            Err(error) => self.fail(code_for(&error), error.to_string()),
        }
    }
}

impl Task for ServeQueryTask {
    /// One quantum of [`ServeQueryTask::advance`]. The task is detached —
    /// nobody waits on its scheduler outcome — so a panic below it must not
    /// end it silently: the session would never get a frame and its client
    /// would wait forever. The panic becomes the query's answer instead, one
    /// INTERNAL error frame delivered through the normal draining path (so
    /// the session slot is released just before it, as for any final frame).
    fn step(&mut self) -> scanshare_common::Result<TaskStep> {
        catch_unwind(AssertUnwindSafe(|| self.advance())).unwrap_or_else(|payload| {
            self.out.clear();
            self.fail(
                ErrorCode::Internal,
                format!("query task panicked: {}", panic_message(payload)),
            );
            Ok(TaskStep::Yield)
        })
    }
}

impl ServeQueryTask {
    fn advance(&mut self) -> scanshare_common::Result<TaskStep> {
        match std::mem::replace(&mut self.state, QueryState::Draining) {
            QueryState::Pending(request) => {
                self.build(*request);
                Ok(TaskStep::Yield)
            }
            QueryState::Running(mut task) => {
                match task.step() {
                    Ok(TaskStep::Yield) => self.state = QueryState::Running(task),
                    Ok(TaskStep::Done) => {
                        let groups = task.into_result();
                        let total = groups.len().min(u32::MAX as usize) as u32;
                        for (key, state) in groups {
                            self.out.push_back(
                                Message::ResultGroup(crate::protocol::ResultGroup {
                                    key,
                                    count: state.count,
                                    accumulators: state.accumulators,
                                })
                                .encode(self.session),
                            );
                        }
                        self.out
                            .push_back(Message::ResultDone { groups: total }.encode(self.session));
                        self.stats.completed.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(error) => {
                        let code = code_for(&error);
                        self.fail(code, error.to_string());
                    }
                }
                Ok(TaskStep::Yield)
            }
            QueryState::Draining => {
                while let Some(frame) = self.out.pop_front() {
                    if self.out.is_empty() {
                        // The final frame of the query (RESULT_DONE or
                        // ERROR): free the session's in-flight slot before
                        // the frame can reach the client, so the session's
                        // next query — sent in reaction to this frame —
                        // can never race the slot release.
                        self.slot = None;
                    }
                    match self.writer.try_push(frame) {
                        Push::Ok => {}
                        Push::Full(frame) => {
                            // Slow client: put the frame back and yield —
                            // cooperative backpressure, the worker moves on.
                            self.out.push_front(frame);
                            return Ok(TaskStep::Yield);
                        }
                        Push::Closed => {
                            // Connection gone; discard the rest.
                            self.out.clear();
                            return Ok(TaskStep::Done);
                        }
                    }
                }
                Ok(TaskStep::Done)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

#[derive(Default)]
struct StatCounters {
    admitted: AtomicU64,
    queued: AtomicU64,
    shed: AtomicU64,
    completed: AtomicU64,
}

/// State shared by one connection's reader, writer and query tasks.
struct ConnShared {
    /// Sessions with a query currently in flight (admitted or queued);
    /// enforces the one-outstanding-query-per-session protocol rule.
    inflight: std::sync::Mutex<HashSet<u32>>,
}

/// What the server keeps per accepted connection.
struct Conn {
    /// Socket clone used to unblock the reader thread at shutdown.
    sock: Sock,
    writer_queue: Arc<FrameQueue>,
    /// The reader and the writer thread.
    threads: [JoinHandle<()>; 2],
}

struct ServerInner {
    engine: Arc<Engine>,
    config: ServeConfig,
    sched: SchedHandle,
    admission: std::sync::Mutex<AdmissionState>,
    stats: Arc<StatCounters>,
    shutdown: AtomicBool,
    /// The live connections; one that has closed is reaped (threads joined,
    /// socket clone dropped) when the next one is accepted.
    conns: std::sync::Mutex<Vec<Conn>>,
    /// The accept loops.
    threads: std::sync::Mutex<Vec<JoinHandle<()>>>,
}

impl ServerInner {
    fn admission_lock(&self) -> std::sync::MutexGuard<'_, AdmissionState> {
        self.admission.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Admission decision for one arriving query.
    fn submit(self: &Arc<Self>, tenant: &str, pending: PendingQuery) -> Submit {
        let mut state = self.admission_lock();
        if state.closed || self.shutdown.load(Ordering::SeqCst) {
            return Submit::Shed(ErrorCode::ShuttingDown, "server is shutting down");
        }
        if state.running < self.config.max_inflight {
            state.running += 1;
            drop(state);
            self.stats.admitted.fetch_add(1, Ordering::Relaxed);
            self.spawn_query(pending);
            return Submit::Accepted;
        }
        let queue = state.queues.entry(tenant.to_string()).or_default();
        if queue.len() >= self.config.max_queued_per_tenant {
            self.stats.shed.fetch_add(1, Ordering::Relaxed);
            return Submit::Shed(
                ErrorCode::Overloaded,
                "admission queue for this tenant is full",
            );
        }
        let newly_nonempty = queue.is_empty();
        queue.push_back(pending);
        if newly_nonempty {
            state.round_robin.push_back(tenant.to_string());
        }
        self.stats.queued.fetch_add(1, Ordering::Relaxed);
        Submit::Accepted
    }

    /// Called when an admission ticket drops: frees the slot and admits the
    /// next queued query, round-robin across tenants.
    fn admission_release(self: &Arc<Self>) {
        let next = {
            let mut state = self.admission_lock();
            state.running = state.running.saturating_sub(1);
            if state.closed {
                state.queues.clear();
                state.round_robin.clear();
                None
            } else {
                let mut picked = None;
                while let Some(tenant) = state.round_robin.pop_front() {
                    let Some(queue) = state.queues.get_mut(&tenant) else {
                        continue;
                    };
                    let Some(pending) = queue.pop_front() else {
                        state.queues.remove(&tenant);
                        continue;
                    };
                    if queue.is_empty() {
                        state.queues.remove(&tenant);
                    } else {
                        state.round_robin.push_back(tenant);
                    }
                    picked = Some(pending);
                    break;
                }
                if picked.is_some() {
                    state.running += 1;
                }
                picked
            }
        };
        if let Some(pending) = next {
            self.spawn_query(pending);
        }
    }

    /// Puts one admitted query onto the scheduler (slot already counted).
    fn spawn_query(self: &Arc<Self>, pending: PendingQuery) {
        let task = ServeQueryTask {
            engine: Arc::clone(&self.engine),
            state: QueryState::Pending(Box::new(pending.request)),
            out: VecDeque::new(),
            writer: pending.writer,
            session: pending.session,
            stats: Arc::clone(&self.stats),
            _ticket: AdmissionTicket {
                inner: Arc::clone(self),
            },
            slot: Some(pending.slot),
        };
        // Detached: the task delivers its own result over the wire. After
        // scheduler shutdown the spawn cancels immediately, dropping the
        // task and releasing its ticket/slot.
        drop(self.sched.spawn(task));
    }
}

/// The serving-layer server: owns the task scheduler, its listeners and
/// all per-connection threads. See the [module docs](self) and the
/// repository's `PROTOCOL.md`.
pub struct Server {
    inner: Arc<ServerInner>,
    scheduler: Option<TaskScheduler>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("stats", &self.stats())
            .finish()
    }
}

impl Server {
    /// Creates a server over `engine`, starting a scheduler with
    /// [`ScanShareConfig::scheduler_workers`](scanshare_common::ScanShareConfig::scheduler_workers)
    /// workers. Listeners are added with [`Server::bind_tcp`] /
    /// [`Server::bind_unix`].
    pub fn new(engine: Arc<Engine>, config: ServeConfig) -> Self {
        let scheduler = TaskScheduler::new(engine.config().scheduler_workers);
        let inner = Arc::new(ServerInner {
            engine,
            config,
            sched: scheduler.handle(),
            admission: std::sync::Mutex::new(AdmissionState::default()),
            stats: Arc::new(StatCounters::default()),
            shutdown: AtomicBool::new(false),
            conns: std::sync::Mutex::new(Vec::new()),
            threads: std::sync::Mutex::new(Vec::new()),
        });
        Self {
            inner,
            scheduler: Some(scheduler),
        }
    }

    /// Starts accepting TCP connections on `addr`; returns the bound
    /// address (useful with port 0).
    pub fn bind_tcp(&self, addr: impl ToSocketAddrs) -> Result<SocketAddr> {
        let listener = TcpListener::bind(addr).map_err(Error::io)?;
        let local = listener.local_addr().map_err(Error::io)?;
        listener.set_nonblocking(true).map_err(Error::io)?;
        self.accept_on("tcp", move || {
            let (stream, _) = listener.accept()?;
            stream.set_nonblocking(false)?;
            Ok(Sock::Tcp(stream))
        })?;
        Ok(local)
    }

    /// Starts accepting Unix-domain connections on `path` (removed first if
    /// it exists, like most daemons do).
    #[cfg(unix)]
    pub fn bind_unix(&self, path: impl AsRef<Path>) -> Result<()> {
        let path = path.as_ref();
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path).map_err(Error::io)?;
        listener.set_nonblocking(true).map_err(Error::io)?;
        self.accept_on("unix", move || {
            let (stream, _) = listener.accept()?;
            stream.set_nonblocking(false)?;
            Ok(Sock::Unix(stream))
        })
    }

    /// The accept loop of one listener: `accept` polls it (non-blocking) for
    /// the next connection. Until shutdown, an accept that yields none —
    /// nothing pending, or a failure such as `ECONNABORTED` or `EMFILE` —
    /// backs off 5 ms and tries again; a listener never stops on an error.
    fn accept_on(
        &self,
        name: &str,
        mut accept: impl FnMut() -> io::Result<Sock> + Send + 'static,
    ) -> Result<()> {
        let inner = Arc::clone(&self.inner);
        let handle = std::thread::Builder::new()
            .name(format!("serve-accept-{name}"))
            .spawn(move || {
                while !inner.shutdown.load(Ordering::SeqCst) {
                    match accept() {
                        Ok(sock) => start_connection(&inner, sock),
                        Err(_) => std::thread::sleep(Duration::from_millis(5)),
                    }
                }
            })
            .map_err(Error::io)?;
        self.inner
            .threads
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(handle);
        Ok(())
    }

    /// A snapshot of the server's admission/completion counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            admitted: self.inner.stats.admitted.load(Ordering::Relaxed),
            queued: self.inner.stats.queued.load(Ordering::Relaxed),
            shed: self.inner.stats.shed.load(Ordering::Relaxed),
            completed: self.inner.stats.completed.load(Ordering::Relaxed),
        }
    }

    /// The scheduler's counters (tasks, yields, ...), for benches.
    pub fn scheduler_stats(&self) -> Option<SchedulerStats> {
        self.scheduler.as_ref().map(TaskScheduler::stats)
    }

    /// Stops the server: stops accepting, sheds every queued query, cancels
    /// running query tasks at their next yield point, closes all
    /// connections and joins every thread. In-flight clients observe a
    /// closed connection (mid-query) or an
    /// [`ErrorCode::ShuttingDown`] error frame (new queries racing the
    /// shutdown). Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.inner.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Close admission first so released slots stop respawning work.
        {
            let mut state = self.inner.admission_lock();
            state.closed = true;
            state.queues.clear();
            state.round_robin.clear();
        }
        // Stop the scheduler: running tasks finish their current quantum,
        // queued ones are cancelled (dropping tickets and session slots).
        if let Some(mut scheduler) = self.scheduler.take() {
            scheduler.shutdown();
        }
        // Join the accept loops: no connection starts after that.
        let accept_loops: Vec<_> = {
            let mut guard = self.inner.threads.lock().unwrap_or_else(|e| e.into_inner());
            guard.drain(..).collect()
        };
        for handle in accept_loops {
            let _ = handle.join();
        }
        // Unblock, close and join every connection.
        let conns: Vec<Conn> = {
            let mut guard = self.inner.conns.lock().unwrap_or_else(|e| e.into_inner());
            guard.drain(..).collect()
        };
        for conn in &conns {
            conn.writer_queue.close();
            conn.sock.shutdown_both();
        }
        for handle in conns.into_iter().flat_map(|conn| conn.threads) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Spawns the reader + writer threads for one accepted connection.
fn start_connection(inner: &Arc<ServerInner>, sock: Sock) {
    let writer_queue = FrameQueue::new(WRITER_QUEUE_FRAMES);
    let Ok(read_half) = sock.try_clone() else {
        return;
    };
    let Ok(shutdown_half) = sock.try_clone() else {
        return;
    };
    let mut write_half = sock;

    let queue = Arc::clone(&writer_queue);
    let writer = std::thread::Builder::new()
        .name("serve-writer".into())
        .spawn(move || {
            while let Some(frame) = queue.pop_wait() {
                if write_half.write_all(&frame).is_err() {
                    queue.close();
                    break;
                }
            }
            // The server also holds a clone of this socket (for shutdown),
            // so the peer only sees EOF if the connection is shut down
            // explicitly once the outbound queue has drained.
            write_half.shutdown_both();
        });

    let inner_reader = Arc::clone(inner);
    let queue = Arc::clone(&writer_queue);
    let reader = std::thread::Builder::new()
        .name("serve-reader".into())
        .spawn(move || {
            reader_loop(&inner_reader, read_half, &queue);
            // Reader gone (EOF, protocol error or shutdown): let the writer
            // finish the queued frames and exit.
            queue.close();
        });

    let mut conns = inner.conns.lock().unwrap_or_else(|e| e.into_inner());
    // Reap the connections that have closed since: an exited thread keeps
    // its stack until it is joined, and the clone keeps the socket open.
    let (closed, live): (Vec<Conn>, Vec<Conn>) = std::mem::take(&mut *conns)
        .into_iter()
        .partition(|conn| conn.threads.iter().all(JoinHandle::is_finished));
    *conns = live;
    for handle in closed.into_iter().flat_map(|conn| conn.threads) {
        let _ = handle.join();
    }
    match (reader, writer) {
        (Ok(reader), Ok(writer)) => conns.push(Conn {
            sock: shutdown_half,
            writer_queue,
            threads: [reader, writer],
        }),
        _ => writer_queue.close(),
    }
}

/// Decodes and dispatches frames until EOF, a protocol violation or server
/// shutdown.
fn reader_loop(inner: &Arc<ServerInner>, mut sock: Sock, writer: &Arc<FrameQueue>) {
    let conn = Arc::new(ConnShared {
        inflight: std::sync::Mutex::new(HashSet::new()),
    });
    let mut tenant: Option<String> = None;
    let mut sessions: HashSet<u32> = HashSet::new();
    loop {
        let frame = match read_frame(&mut sock) {
            Ok(Some(frame)) => frame,
            // Clean EOF: client closed the connection.
            Ok(None) => return,
            Err(error) => {
                // Frame-level violation: report and close the connection.
                writer.push_wait(error_frame(ErrorCode::BadFrame, error.to_string(), 0));
                return;
            }
        };
        if inner.shutdown.load(Ordering::SeqCst) {
            writer.push_wait(error_frame(
                ErrorCode::ShuttingDown,
                "server is shutting down",
                frame.session,
            ));
            return;
        }
        let message = match Message::decode(&frame) {
            Ok(message) => message,
            Err(error) => {
                writer.push_wait(error_frame(
                    ErrorCode::BadFrame,
                    error.to_string(),
                    frame.session,
                ));
                return;
            }
        };
        match message {
            Message::Hello { version, tenant: t } => {
                if version != crate::protocol::PROTOCOL_VERSION {
                    writer.push_wait(error_frame(
                        ErrorCode::UnsupportedVersion,
                        format!(
                            "server speaks protocol version {}, client sent {version}",
                            crate::protocol::PROTOCOL_VERSION
                        ),
                        0,
                    ));
                    return;
                }
                tenant = Some(t);
                writer.push_wait(
                    Message::Welcome {
                        version: crate::protocol::PROTOCOL_VERSION,
                        session_limit: MAX_SESSIONS_PER_CONN,
                    }
                    .encode(0),
                );
            }
            Message::Query(request) => {
                let Some(tenant) = tenant.as_deref() else {
                    writer.push_wait(error_frame(
                        ErrorCode::BadFrame,
                        "QUERY before HELLO handshake",
                        frame.session,
                    ));
                    return;
                };
                if !sessions.contains(&frame.session) {
                    if sessions.len() as u32 >= MAX_SESSIONS_PER_CONN {
                        writer.push_wait(error_frame(
                            ErrorCode::SessionLimit,
                            format!(
                                "connection reached its limit of {MAX_SESSIONS_PER_CONN} sessions"
                            ),
                            frame.session,
                        ));
                        continue;
                    }
                    sessions.insert(frame.session);
                }
                if !conn
                    .inflight
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .insert(frame.session)
                {
                    writer.push_wait(error_frame(
                        ErrorCode::BadQuery,
                        "session already has a query in flight",
                        frame.session,
                    ));
                    continue;
                }
                let pending = PendingQuery {
                    request,
                    session: frame.session,
                    writer: Arc::clone(writer),
                    slot: SessionSlot {
                        conn: Arc::clone(&conn),
                        session: frame.session,
                    },
                };
                if let Submit::Shed(code, reason) = inner.submit(tenant, pending) {
                    writer.push_wait(error_frame(code, reason, frame.session));
                }
            }
            Message::Goodbye => {
                sessions.remove(&frame.session);
            }
            Message::Ping => {
                writer.push_wait(Message::Pong.encode(frame.session));
            }
            // Server-to-client kinds arriving at the server are violations.
            Message::Welcome { .. }
            | Message::ResultGroup(_)
            | Message::ResultDone { .. }
            | Message::Error { .. }
            | Message::Pong => {
                writer.push_wait(error_frame(
                    ErrorCode::BadFrame,
                    "client sent a server-to-client frame kind",
                    frame.session,
                ));
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanshare_common::ScanShareConfig;
    use scanshare_storage::{Storage, TableSpec};
    use std::net::TcpStream;

    fn server() -> Server {
        let storage = Storage::new(4096, 100);
        storage
            .create_table(TableSpec::with_int_columns("t", 1, 100))
            .unwrap();
        let engine = Engine::new(storage, ScanShareConfig::default()).unwrap();
        Server::new(engine, ServeConfig::default())
    }

    /// A connection that has closed is reaped — its two threads joined, its
    /// socket clone dropped — when the next one is accepted, so what the
    /// server holds follows the open connections, not every connection it
    /// ever served.
    #[test]
    fn closed_connections_are_reaped_when_the_next_one_is_accepted() {
        let mut server = server();
        let addr = server.bind_tcp("127.0.0.1:0").unwrap();
        let held = |server: &Server| server.inner.conns.lock().unwrap().len();

        // A handshake per connection: each one was accepted, and served.
        let knock = || drop(crate::client::ServeClient::connect_tcp(addr, "t").unwrap());
        for _ in 0..16 {
            knock();
        }
        // Exiting is asynchronous: keep knocking until the backlog of closed
        // connections has been reaped (the last knock may still be held).
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while held(&server) > 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "{} connections still held",
                held(&server)
            );
            std::thread::sleep(Duration::from_millis(10));
            knock();
        }
        server.shutdown();
        assert_eq!(held(&server), 0);
    }

    /// A failed accept does not end the listener: the loop backs off and the
    /// next connection is accepted and served.
    #[test]
    fn a_failed_accept_does_not_stop_the_accept_loop() {
        let mut server = server();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut calls = 0;
        server
            .accept_on("scripted", move || {
                calls += 1;
                match calls {
                    1 => Err(io::ErrorKind::ConnectionAborted.into()),
                    2 => Ok(Sock::Tcp(listener.accept()?.0)),
                    _ => Err(io::ErrorKind::WouldBlock.into()),
                }
            })
            .unwrap();

        let stream = TcpStream::connect(addr).unwrap();
        // A loop that stopped at the first error never accepts this
        // connection: the handshake then fails on the timeout, not hangs.
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let session_limit = crate::client::handshake(&mut Sock::Tcp(stream), "t").unwrap();
        assert_eq!(session_limit, MAX_SESSIONS_PER_CONN);
        server.shutdown();
    }
}
