//! A minimal blocking client for the scanshare wire protocol.
//!
//! [`ServeClient`] keeps **one query outstanding at a time** on a single
//! session — the simplest correct use of the protocol, good for tests,
//! examples and scripting. The load generator ([`crate::loadgen`])
//! multiplexes many sessions per connection instead; both speak the same
//! frames (see `PROTOCOL.md`).

use std::net::ToSocketAddrs;
#[cfg(unix)]
use std::path::Path;

use scanshare_common::{Error, Result};

#[cfg(unix)]
use crate::loadgen::Target;
use crate::protocol::{
    read_frame, write_frame, Message, QueryRequest, ResultGroup, PROTOCOL_VERSION,
};
use crate::sock::Sock;

/// The client half of the HELLO/WELCOME handshake, as `tenant`; returns the
/// per-connection session limit the server advertised.
pub(crate) fn handshake(sock: &mut Sock, tenant: &str) -> Result<u32> {
    let hello = Message::Hello {
        version: PROTOCOL_VERSION,
        tenant: tenant.to_string(),
    }
    .encode(0);
    write_frame(sock, &hello)?;
    let frame = read_frame(sock)?
        .ok_or_else(|| Error::protocol("server closed the connection during handshake"))?;
    match Message::decode(&frame)? {
        Message::Welcome { session_limit, .. } => Ok(session_limit),
        Message::Error { code, message } => Err(Error::Remote { code, message }),
        other => Err(Error::protocol(format!(
            "expected WELCOME, got {:?} frame",
            other.kind()
        ))),
    }
}

/// A blocking, single-session client connection to a scanshare
/// [`Server`](crate::Server).
///
/// Created with [`ServeClient::connect_tcp`] or
/// [`ServeClient::connect_unix`]; the constructor performs the
/// HELLO/WELCOME handshake, so a connected client is ready to
/// [`query`](ServeClient::query).
pub struct ServeClient {
    sock: Sock,
}

impl std::fmt::Debug for ServeClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeClient").finish_non_exhaustive()
    }
}

impl ServeClient {
    /// Connects over TCP and performs the protocol handshake as `tenant`.
    pub fn connect_tcp(addr: impl ToSocketAddrs, tenant: &str) -> Result<Self> {
        Self::over(Sock::connect_tcp(addr)?, tenant)
    }

    /// Connects over a Unix-domain socket and performs the handshake as
    /// `tenant`.
    #[cfg(unix)]
    pub fn connect_unix(path: impl AsRef<Path>, tenant: &str) -> Result<Self> {
        Self::over(Sock::connect(&Target::Unix(path.as_ref().into()))?, tenant)
    }

    fn over(mut sock: Sock, tenant: &str) -> Result<Self> {
        handshake(&mut sock, tenant)?;
        Ok(Self { sock })
    }

    /// Runs one query on session 0 and blocks until the full result
    /// arrived: the aggregated groups, in group-key order.
    ///
    /// A typed server-side failure (unknown table, malformed query,
    /// admission shedding, ...) surfaces as
    /// [`Error::Remote`] carrying the wire
    /// error code. A request the wire format cannot carry unchanged is
    /// rejected by [`QueryRequest::check_encodable`] before anything is
    /// written.
    pub fn query(&mut self, request: QueryRequest) -> Result<Vec<ResultGroup>> {
        request.check_encodable()?;
        write_frame(&mut self.sock, &Message::Query(request).encode(0))?;
        let mut groups = Vec::new();
        loop {
            let frame = read_frame(&mut self.sock)?
                .ok_or_else(|| Error::protocol("server closed the connection mid-result"))?;
            match Message::decode(&frame)? {
                Message::ResultGroup(group) => groups.push(group),
                Message::ResultDone { groups: total } => {
                    if groups.len() as u32 != total {
                        return Err(Error::protocol(format!(
                            "RESULT_DONE declared {total} groups but {} arrived",
                            groups.len()
                        )));
                    }
                    return Ok(groups);
                }
                Message::Error { code, message } => return Err(Error::Remote { code, message }),
                other => {
                    return Err(Error::protocol(format!(
                        "unexpected {:?} frame inside a result stream",
                        other.kind()
                    )))
                }
            }
        }
    }

    /// Round-trips a PING frame; returns once the PONG arrives.
    pub fn ping(&mut self) -> Result<()> {
        write_frame(&mut self.sock, &Message::Ping.encode(0))?;
        let frame = read_frame(&mut self.sock)?
            .ok_or_else(|| Error::protocol("server closed the connection awaiting PONG"))?;
        match Message::decode(&frame)? {
            Message::Pong => Ok(()),
            Message::Error { code, message } => Err(Error::Remote { code, message }),
            other => Err(Error::protocol(format!(
                "unexpected {:?} frame awaiting PONG",
                other.kind()
            ))),
        }
    }

    /// Sends GOODBYE for session 0. The connection itself closes on drop.
    pub fn goodbye(&mut self) -> Result<()> {
        write_frame(&mut self.sock, &Message::Goodbye.encode(0))
    }
}
