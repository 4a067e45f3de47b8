//! A closed-loop load generator for the serving layer.
//!
//! Drives thousands of logical sessions over a handful of connections:
//! each session keeps exactly one query outstanding (closed loop) and
//! issues the next one the moment its result — or a typed error — arrives.
//! Sessions are multiplexed onto connections, so 1000 sessions over 8
//! connections cost 16 client threads, mirroring how the server runs them
//! on a fixed scheduler pool.
//!
//! Shed queries ([`ErrorCode::Overloaded`])
//! are counted separately and do **not** contribute latency samples — the
//! report's percentiles describe served queries under the measured load.

use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use scanshare_common::{Error, Result};

use crate::client::handshake;
use crate::protocol::{read_frame, write_frame, ErrorCode, Message, QueryRequest};
use crate::sock::Sock;

/// Where the load generator connects.
#[derive(Debug, Clone)]
pub enum Target {
    /// A TCP address, e.g. `"127.0.0.1:7878"`.
    Tcp(String),
    /// A Unix-domain socket path.
    #[cfg(unix)]
    Unix(PathBuf),
}

/// Load-generator parameters; see [`run`].
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server endpoint.
    pub target: Target,
    /// Tenant name sent in the HELLO handshake (one tenant per run).
    pub tenant: String,
    /// Connections to open; sessions are spread round-robin across them.
    pub connections: usize,
    /// Total logical sessions.
    pub sessions: usize,
    /// Queries each session issues, back to back.
    pub queries_per_session: usize,
    /// The query every session runs.
    pub request: QueryRequest,
}

/// What one load-generator run observed; latency percentiles cover served
/// queries only (shed queries are counted, not timed).
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Logical sessions driven.
    pub sessions: usize,
    /// Queries answered with a full result.
    pub completed: u64,
    /// Queries shed by admission control (OVERLOADED / SHUTTING_DOWN).
    pub shed: u64,
    /// Queries answered with any other error frame.
    pub errors: u64,
    /// Wall-clock duration of the whole run.
    pub wall: Duration,
    latencies: Vec<Duration>,
}

impl LoadReport {
    /// Served queries per second over the run's wall clock.
    pub fn qps(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.completed as f64 / self.wall.as_secs_f64()
    }

    /// The `p`-th latency percentile (0 < p ≤ 100) over served queries,
    /// pooled across all sessions (nearest-rank, via
    /// [`scanshare_common::quantile`]); zero when nothing was served.
    pub fn percentile(&self, p: f64) -> Duration {
        scanshare_common::quantile::nearest_rank(&self.latencies, p / 100.0)
            .unwrap_or(Duration::ZERO)
    }

    /// Median latency.
    pub fn p50(&self) -> Duration {
        self.percentile(50.0)
    }

    /// 95th-percentile latency.
    pub fn p95(&self) -> Duration {
        self.percentile(95.0)
    }

    /// 99th-percentile latency.
    pub fn p99(&self) -> Duration {
        self.percentile(99.0)
    }

    /// 99.9th-percentile latency.
    pub fn p999(&self) -> Duration {
        self.percentile(99.9)
    }

    /// All latency samples, sorted ascending.
    pub fn latencies(&self) -> &[Duration] {
        &self.latencies
    }
}

#[derive(Default)]
struct ConnOutcome {
    latencies: Vec<Duration>,
    completed: u64,
    shed: u64,
    errors: u64,
}

/// Runs the configured workload to completion and reports tail latencies.
///
/// Every session issues [`LoadgenConfig::queries_per_session`] queries
/// closed-loop; the run ends when all of them have been answered (result,
/// shed or error). A request the wire format cannot carry unchanged
/// ([`QueryRequest::check_encodable`]) fails the run before it connects.
pub fn run(config: &LoadgenConfig) -> Result<LoadReport> {
    if config.connections == 0 || config.sessions == 0 {
        return Err(Error::config(
            "loadgen needs at least 1 connection and 1 session",
        ));
    }
    config.request.check_encodable()?;
    let connections = config.connections.min(config.sessions);
    let started = Instant::now();
    let mut joins = Vec::with_capacity(connections);
    for conn in 0..connections {
        // Round-robin split: connection `conn` drives sessions
        // conn, conn+C, conn+2C, ... of the global session space.
        let sessions =
            config.sessions / connections + usize::from(conn < config.sessions % connections);
        let target = config.target.clone();
        let tenant = config.tenant.clone();
        let request = config.request.clone();
        let queries = config.queries_per_session;
        joins.push(
            std::thread::Builder::new()
                .name(format!("loadgen-conn-{conn}"))
                .spawn(move || drive_connection(&target, &tenant, sessions, queries, &request))
                .map_err(Error::io)?,
        );
    }
    let mut outcome = ConnOutcome::default();
    let mut first_error = None;
    for join in joins {
        match join.join() {
            Ok(Ok(conn)) => {
                outcome.latencies.extend(conn.latencies);
                outcome.completed += conn.completed;
                outcome.shed += conn.shed;
                outcome.errors += conn.errors;
            }
            Ok(Err(error)) => first_error = first_error.or(Some(error)),
            Err(_) => {
                first_error =
                    first_error.or_else(|| Some(Error::io("a loadgen connection thread panicked")))
            }
        }
    }
    if let Some(error) = first_error {
        return Err(error);
    }
    let wall = started.elapsed();
    outcome.latencies.sort_unstable();
    Ok(LoadReport {
        sessions: config.sessions,
        completed: outcome.completed,
        shed: outcome.shed,
        errors: outcome.errors,
        wall,
        latencies: outcome.latencies,
    })
}

/// Drives `sessions` closed-loop sessions over one connection.
///
/// Two threads: this one reads result frames and decides which session
/// issues its next query; a writer thread drains the issue channel onto the
/// socket. Splitting the directions means the initial burst of queries can
/// never deadlock against a flood of early responses.
fn drive_connection(
    target: &Target,
    tenant: &str,
    sessions: usize,
    queries_per_session: usize,
    request: &QueryRequest,
) -> Result<ConnOutcome> {
    let mut outcome = ConnOutcome::default();
    if sessions == 0 || queries_per_session == 0 {
        return Ok(outcome);
    }
    // Handshake on the reader thread, before the writer exists.
    let mut reader = Sock::connect(target)?;
    handshake(&mut reader, tenant)?;
    let mut writer_sock = reader.try_clone()?;

    let (issue, next) = mpsc::channel::<u32>();
    let frames: Vec<Vec<u8>> = (0..sessions as u32)
        .map(|s| Message::Query(request.clone()).encode(s))
        .collect();
    let writer = std::thread::Builder::new()
        .name("loadgen-writer".into())
        .spawn(move || {
            while let Ok(session) = next.recv() {
                if write_frame(&mut writer_sock, &frames[session as usize]).is_err() {
                    return;
                }
            }
        })
        .map_err(Error::io)?;

    let mut starts = vec![Instant::now(); sessions];
    let mut issued = vec![1usize; sessions];
    let mut active = sessions;
    for session in 0..sessions as u32 {
        starts[session as usize] = Instant::now();
        let _ = issue.send(session);
    }

    let result = (|| -> Result<()> {
        while active > 0 {
            let frame = read_frame(&mut reader)?
                .ok_or_else(|| Error::protocol("server closed the connection mid-run"))?;
            let session = frame.session as usize;
            if session >= sessions {
                return Err(Error::protocol(format!(
                    "result frame for unknown session {session}"
                )));
            }
            let advance = match Message::decode(&frame)? {
                Message::ResultGroup(_) => false,
                Message::ResultDone { .. } => {
                    outcome.completed += 1;
                    outcome.latencies.push(starts[session].elapsed());
                    true
                }
                Message::Error { code, .. } => {
                    if code == ErrorCode::Overloaded.as_u16()
                        || code == ErrorCode::ShuttingDown.as_u16()
                    {
                        outcome.shed += 1;
                    } else {
                        outcome.errors += 1;
                    }
                    true
                }
                Message::Pong => false,
                other => {
                    return Err(Error::protocol(format!(
                        "unexpected {:?} frame in a loadgen session",
                        other.kind()
                    )))
                }
            };
            if advance {
                if issued[session] < queries_per_session {
                    issued[session] += 1;
                    starts[session] = Instant::now();
                    let _ = issue.send(frame.session);
                } else {
                    active -= 1;
                }
            }
        }
        Ok(())
    })();

    // Dropping the sender stops the writer thread.
    drop(issue);
    let _ = writer.join();
    result.map(|()| outcome)
}
