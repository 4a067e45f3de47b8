//! The scanshare wire protocol: length-prefixed frames over a byte stream.
//!
//! This module is the single source of truth for encoding and decoding;
//! both the server and the client (including the load generator) go through
//! [`Message::encode`] / [`Message::decode`]. The byte-level layout of every
//! frame is documented in `PROTOCOL.md` at the repository root — keep the
//! two in sync.
//!
//! # Frame layout
//!
//! ```text
//! [ u32 LE length ][ u8 kind ][ u32 LE session ][ payload … ]
//!                  '------------- length bytes -------------'
//! ```
//!
//! `length` counts everything after the length field itself (kind, session
//! and payload) and is capped at [`MAX_FRAME_LEN`]; a peer announcing a
//! larger frame is violating the protocol and the connection is closed.
//! `session`
//! identifies the *logical session* the frame belongs to — many sessions
//! multiplex over one connection, which is how thousands of sessions reach
//! the server over a handful of sockets.
//!
//! All integers are little-endian. Strings are UTF-8, length-prefixed with
//! a `u16`.

use std::io::{Read, Write};

use scanshare_common::{Error, Result};
use scanshare_exec::ops::{Aggregate, CompareOp, Predicate};

/// Version carried in HELLO/WELCOME; bumped on incompatible changes.
/// Version 2 added the optional broadcast-join clause to QUERY frames.
pub const PROTOCOL_VERSION: u16 = 2;

/// Upper bound on a frame's `length` field (1 MiB). Larger announcements
/// are treated as a protocol violation, bounding per-connection memory.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// Client → server: handshake (must be the first frame on a connection).
pub const KIND_HELLO: u8 = 0x01;
/// Client → server: run a query on a session.
pub const KIND_QUERY: u8 = 0x02;
/// Client → server: end a session.
pub const KIND_GOODBYE: u8 = 0x03;
/// Client → server: liveness probe.
pub const KIND_PING: u8 = 0x04;
/// Server → client: handshake accepted.
pub const KIND_WELCOME: u8 = 0x81;
/// Server → client: one result group of a finished query.
pub const KIND_RESULT_GROUP: u8 = 0x82;
/// Server → client: all result groups of a query have been sent.
pub const KIND_RESULT_DONE: u8 = 0x83;
/// Server → client: a typed error.
pub const KIND_ERROR: u8 = 0x84;
/// Server → client: reply to [`KIND_PING`].
pub const KIND_PONG: u8 = 0x85;

/// Typed error codes carried by ERROR frames (`u16` on the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// The frame could not be decoded (bad length, unknown kind, truncated
    /// payload, or a message out of protocol order). Connection-fatal.
    BadFrame = 1,
    /// The HELLO version is not supported by this server.
    UnsupportedVersion = 2,
    /// The query names a table the server does not have.
    UnknownTable = 3,
    /// The query is malformed (unknown column, bad aggregate, empty
    /// projection, a second query on a session that already has one in
    /// flight, ...).
    BadQuery = 4,
    /// Admission control shed the query: the server is at its inflight
    /// limit and the tenant's queue is full. Retry later.
    Overloaded = 5,
    /// The server is shutting down and no longer accepts queries.
    ShuttingDown = 6,
    /// The server hit an internal error executing the query.
    Internal = 7,
    /// The connection reached its logical-session limit.
    SessionLimit = 8,
}

impl ErrorCode {
    /// The wire representation.
    pub fn as_u16(self) -> u16 {
        self as u16
    }

    /// Decodes a wire code; unknown codes map to `None`.
    pub fn from_u16(code: u16) -> Option<Self> {
        Some(match code {
            1 => ErrorCode::BadFrame,
            2 => ErrorCode::UnsupportedVersion,
            3 => ErrorCode::UnknownTable,
            4 => ErrorCode::BadQuery,
            5 => ErrorCode::Overloaded,
            6 => ErrorCode::ShuttingDown,
            7 => ErrorCode::Internal,
            8 => ErrorCode::SessionLimit,
            _ => return None,
        })
    }
}

/// The broadcast-join clause of a [`QueryRequest`] (protocol version 2):
/// the named build table is fully scanned and hashed before the query's
/// probe scan streams, mirroring the builder API's `.join(...)` /
/// `.join_columns(...)` clauses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinRequest {
    /// Build-side table name (resolved against the server's catalog).
    pub table: String,
    /// Probe-side join key: an index into the query's projection.
    pub left_col: usize,
    /// Build-side join-key column name.
    pub right_col: String,
    /// Extra build-side columns carried into the join output after the key
    /// (aggregate/group-by indices past the probe projection refer to the
    /// key, then these, in order).
    pub columns: Vec<String>,
}

/// A query expressed in wire terms: builder-API fields by name/index.
/// Lowered by the server onto
/// [`Engine::query`](scanshare_exec::Engine::query).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryRequest {
    /// Table name (resolved against the server's catalog).
    pub table: String,
    /// First RID of the scanned range.
    pub start: u64,
    /// One-past-last RID; `None` scans to the end of the visible rows.
    pub end: Option<u64>,
    /// Projected columns by name; predicate/aggregate indices refer to
    /// positions in this projection.
    pub columns: Vec<String>,
    /// Optional selection over one projected column.
    pub filter: Option<Predicate>,
    /// Optional group-by column (projection index).
    pub group_by: Option<usize>,
    /// Aggregates to compute; must be non-empty.
    pub aggregates: Vec<Aggregate>,
    /// Partial scans the query interleaves (the builder's `.parallelism`).
    pub parallelism: usize,
    /// Optional broadcast hash join against a second table.
    pub join: Option<JoinRequest>,
}

impl QueryRequest {
    /// A count-star query over `columns` of `table` — the smallest useful
    /// request, used by the quickstart and as the load generator default.
    pub fn count_star(table: impl Into<String>, columns: Vec<String>) -> Self {
        Self {
            table: table.into(),
            start: 0,
            end: None,
            columns,
            filter: None,
            group_by: None,
            aggregates: vec![Aggregate::Count],
            parallelism: 1,
            join: None,
        }
    }

    /// Returns the request with a broadcast-join clause attached.
    pub fn with_join(mut self, join: JoinRequest) -> Self {
        self.join = Some(join);
        self
    }
}

/// One group of a query result: the group key (0 for global aggregation),
/// its row count and one accumulator per requested aggregate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultGroup {
    /// Group-by key (0 when the query had no group-by).
    pub key: i64,
    /// Rows aggregated into this group.
    pub count: u64,
    /// Aggregate values, in request order.
    pub accumulators: Vec<i64>,
}

/// A decoded protocol message (frame kind + payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Handshake: protocol version + tenant name (admission control is
    /// fair across tenants).
    Hello {
        /// Version the client speaks.
        version: u16,
        /// Tenant the connection's sessions belong to.
        tenant: String,
    },
    /// Run a query on the frame's session.
    Query(QueryRequest),
    /// End the frame's session.
    Goodbye,
    /// Liveness probe.
    Ping,
    /// Handshake accepted.
    Welcome {
        /// Version the server speaks.
        version: u16,
        /// Maximum logical sessions per connection.
        session_limit: u32,
    },
    /// One result group (streamed; order is ascending group key).
    ResultGroup(ResultGroup),
    /// All result groups of the session's query have been sent.
    ResultDone {
        /// Number of RESULT_GROUP frames that preceded this frame.
        groups: u32,
    },
    /// A typed error; see [`ErrorCode`].
    Error {
        /// The wire error code.
        code: u16,
        /// Human-readable diagnostic.
        message: String,
    },
    /// Reply to [`Message::Ping`].
    Pong,
}

/// A raw frame: kind + session + undecoded payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Message kind (one of the `KIND_*` constants).
    pub kind: u8,
    /// Logical session the frame belongs to.
    pub session: u32,
    /// Kind-specific payload bytes.
    pub payload: Vec<u8>,
}

/// Reads one frame. Returns `Ok(None)` on a clean EOF at a frame boundary;
/// EOF mid-frame is a protocol error.
pub fn read_frame(reader: &mut impl Read) -> Result<Option<Frame>> {
    let mut len_bytes = [0u8; 4];
    match reader.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(Error::io(e)),
    }
    let length = u32::from_le_bytes(len_bytes);
    if length < 5 {
        return Err(Error::protocol(format!(
            "frame length {length} is shorter than the kind + session header"
        )));
    }
    if length > MAX_FRAME_LEN {
        return Err(Error::protocol(format!(
            "frame length {length} exceeds the {MAX_FRAME_LEN}-byte limit"
        )));
    }
    let mut body = vec![0u8; length as usize];
    reader
        .read_exact(&mut body)
        .map_err(|e| Error::protocol(format!("connection ended mid-frame: {e}")))?;
    let kind = body[0];
    let session = u32::from_le_bytes([body[1], body[2], body[3], body[4]]);
    Ok(Some(Frame {
        kind,
        session,
        payload: body.split_off(5),
    }))
}

/// Writes pre-encoded frame bytes (as produced by [`Message::encode`]).
pub fn write_frame(writer: &mut impl Write, frame: &[u8]) -> Result<()> {
    writer.write_all(frame).map_err(Error::io)
}

// --- encoding helpers -----------------------------------------------------

fn put_str(out: &mut Vec<u8>, s: &str) {
    let len = s.len().min(u16::MAX as usize) as u16;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&s.as_bytes()[..len as usize]);
}

/// Cursor over a payload with typed, bounds-checked reads.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.at + n > self.bytes.len() {
            return Err(Error::protocol(format!(
                "payload truncated: wanted {n} bytes at offset {}, have {}",
                self.at,
                self.bytes.len()
            )));
        }
        let slice = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2B")))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4B")))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8B")))
    }

    fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8B")))
    }

    fn string(&mut self) -> Result<String> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| Error::protocol("string payload is not valid UTF-8"))
    }

    fn finish(&self) -> Result<()> {
        if self.at != self.bytes.len() {
            return Err(Error::protocol(format!(
                "{} trailing bytes after the payload",
                self.bytes.len() - self.at
            )));
        }
        Ok(())
    }
}

fn cmp_op_code(op: CompareOp) -> u8 {
    match op {
        CompareOp::Lt => 0,
        CompareOp::Le => 1,
        CompareOp::Gt => 2,
        CompareOp::Ge => 3,
        CompareOp::Eq => 4,
    }
}

fn cmp_op_from(code: u8) -> Result<CompareOp> {
    Ok(match code {
        0 => CompareOp::Lt,
        1 => CompareOp::Le,
        2 => CompareOp::Gt,
        3 => CompareOp::Ge,
        4 => CompareOp::Eq,
        other => return Err(Error::protocol(format!("unknown comparison op {other}"))),
    })
}

fn encode_query(out: &mut Vec<u8>, q: &QueryRequest) {
    put_str(out, &q.table);
    out.extend_from_slice(&q.start.to_le_bytes());
    out.extend_from_slice(&q.end.unwrap_or(u64::MAX).to_le_bytes());
    out.push(q.columns.len().min(255) as u8);
    for column in q.columns.iter().take(255) {
        put_str(out, column);
    }
    match &q.filter {
        Some(p) => {
            out.push(1);
            out.push(p.column.min(255) as u8);
            out.push(cmp_op_code(p.op));
            out.extend_from_slice(&p.value.to_le_bytes());
        }
        None => out.push(0),
    }
    match q.group_by {
        Some(column) => {
            out.push(1);
            out.push(column.min(255) as u8);
        }
        None => out.push(0),
    }
    out.push(q.aggregates.len().min(255) as u8);
    for aggregate in q.aggregates.iter().take(255) {
        let (kind, column) = match aggregate {
            Aggregate::Count => (0u8, 0usize),
            Aggregate::Sum(c) => (1, *c),
            Aggregate::Min(c) => (2, *c),
            Aggregate::Max(c) => (3, *c),
        };
        out.push(kind);
        out.push(column.min(255) as u8);
    }
    out.push(q.parallelism.clamp(1, 255) as u8);
    match &q.join {
        Some(join) => {
            out.push(1);
            put_str(out, &join.table);
            out.push(join.left_col.min(255) as u8);
            put_str(out, &join.right_col);
            out.push(join.columns.len().min(255) as u8);
            for column in join.columns.iter().take(255) {
                put_str(out, column);
            }
        }
        None => out.push(0),
    }
}

fn decode_query(cursor: &mut Cursor<'_>) -> Result<QueryRequest> {
    let table = cursor.string()?;
    let start = cursor.u64()?;
    let end = match cursor.u64()? {
        u64::MAX => None,
        end => Some(end),
    };
    let n_columns = cursor.u8()? as usize;
    let mut columns = Vec::with_capacity(n_columns);
    for _ in 0..n_columns {
        columns.push(cursor.string()?);
    }
    let filter = match cursor.u8()? {
        0 => None,
        1 => {
            let column = cursor.u8()? as usize;
            let op = cmp_op_from(cursor.u8()?)?;
            let value = cursor.i64()?;
            Some(Predicate::new(column, op, value))
        }
        other => return Err(Error::protocol(format!("bad filter flag {other}"))),
    };
    let group_by = match cursor.u8()? {
        0 => None,
        1 => Some(cursor.u8()? as usize),
        other => return Err(Error::protocol(format!("bad group-by flag {other}"))),
    };
    let n_aggregates = cursor.u8()? as usize;
    let mut aggregates = Vec::with_capacity(n_aggregates);
    for _ in 0..n_aggregates {
        let kind = cursor.u8()?;
        let column = cursor.u8()? as usize;
        aggregates.push(match kind {
            0 => Aggregate::Count,
            1 => Aggregate::Sum(column),
            2 => Aggregate::Min(column),
            3 => Aggregate::Max(column),
            other => return Err(Error::protocol(format!("unknown aggregate kind {other}"))),
        });
    }
    let parallelism = cursor.u8()?.max(1) as usize;
    let join = match cursor.u8()? {
        0 => None,
        1 => {
            let table = cursor.string()?;
            let left_col = cursor.u8()? as usize;
            let right_col = cursor.string()?;
            let n = cursor.u8()? as usize;
            let mut join_columns = Vec::with_capacity(n);
            for _ in 0..n {
                join_columns.push(cursor.string()?);
            }
            Some(JoinRequest {
                table,
                left_col,
                right_col,
                columns: join_columns,
            })
        }
        other => return Err(Error::protocol(format!("bad join flag {other}"))),
    };
    Ok(QueryRequest {
        table,
        start,
        end,
        columns,
        filter,
        group_by,
        aggregates,
        parallelism,
        join,
    })
}

impl Message {
    /// The frame kind this message encodes to.
    pub fn kind(&self) -> u8 {
        match self {
            Message::Hello { .. } => KIND_HELLO,
            Message::Query(_) => KIND_QUERY,
            Message::Goodbye => KIND_GOODBYE,
            Message::Ping => KIND_PING,
            Message::Welcome { .. } => KIND_WELCOME,
            Message::ResultGroup(_) => KIND_RESULT_GROUP,
            Message::ResultDone { .. } => KIND_RESULT_DONE,
            Message::Error { .. } => KIND_ERROR,
            Message::Pong => KIND_PONG,
        }
    }

    /// Encodes the message as one complete frame (length prefix included)
    /// addressed to `session`.
    pub fn encode(&self, session: u32) -> Vec<u8> {
        let mut payload = Vec::new();
        match self {
            Message::Hello { version, tenant } => {
                payload.extend_from_slice(&version.to_le_bytes());
                put_str(&mut payload, tenant);
            }
            Message::Query(query) => encode_query(&mut payload, query),
            Message::Goodbye | Message::Ping | Message::Pong => {}
            Message::Welcome {
                version,
                session_limit,
            } => {
                payload.extend_from_slice(&version.to_le_bytes());
                payload.extend_from_slice(&session_limit.to_le_bytes());
            }
            Message::ResultGroup(group) => {
                payload.extend_from_slice(&group.key.to_le_bytes());
                payload.extend_from_slice(&group.count.to_le_bytes());
                payload.push(group.accumulators.len().min(255) as u8);
                for accumulator in group.accumulators.iter().take(255) {
                    payload.extend_from_slice(&accumulator.to_le_bytes());
                }
            }
            Message::ResultDone { groups } => {
                payload.extend_from_slice(&groups.to_le_bytes());
            }
            Message::Error { code, message } => {
                payload.extend_from_slice(&code.to_le_bytes());
                put_str(&mut payload, message);
            }
        }
        let length = (5 + payload.len()) as u32;
        let mut frame = Vec::with_capacity(4 + length as usize);
        frame.extend_from_slice(&length.to_le_bytes());
        frame.push(self.kind());
        frame.extend_from_slice(&session.to_le_bytes());
        frame.extend_from_slice(&payload);
        frame
    }

    /// Decodes a frame's payload according to its kind. Unknown kinds and
    /// malformed payloads are [`Error::Protocol`] — connection-fatal.
    pub fn decode(frame: &Frame) -> Result<Message> {
        let mut cursor = Cursor::new(&frame.payload);
        let message = match frame.kind {
            KIND_HELLO => Message::Hello {
                version: cursor.u16()?,
                tenant: cursor.string()?,
            },
            KIND_QUERY => Message::Query(decode_query(&mut cursor)?),
            KIND_GOODBYE => Message::Goodbye,
            KIND_PING => Message::Ping,
            KIND_WELCOME => Message::Welcome {
                version: cursor.u16()?,
                session_limit: cursor.u32()?,
            },
            KIND_RESULT_GROUP => {
                let key = cursor.i64()?;
                let count = cursor.u64()?;
                let n = cursor.u8()? as usize;
                let mut accumulators = Vec::with_capacity(n);
                for _ in 0..n {
                    accumulators.push(cursor.i64()?);
                }
                Message::ResultGroup(ResultGroup {
                    key,
                    count,
                    accumulators,
                })
            }
            KIND_RESULT_DONE => Message::ResultDone {
                groups: cursor.u32()?,
            },
            KIND_ERROR => Message::Error {
                code: cursor.u16()?,
                message: cursor.string()?,
            },
            KIND_PONG => Message::Pong,
            other => return Err(Error::protocol(format!("unknown frame kind {other:#04x}"))),
        };
        cursor.finish()?;
        Ok(message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(message: Message, session: u32) {
        let bytes = message.encode(session);
        let frame = read_frame(&mut bytes.as_slice()).unwrap().unwrap();
        assert_eq!(frame.session, session);
        assert_eq!(Message::decode(&frame).unwrap(), message);
    }

    #[test]
    fn every_message_kind_roundtrips() {
        roundtrip(
            Message::Hello {
                version: PROTOCOL_VERSION,
                tenant: "tenant-a".into(),
            },
            0,
        );
        roundtrip(
            Message::Query(QueryRequest {
                table: "lineitem".into(),
                start: 100,
                end: Some(5000),
                columns: vec!["l_flag".into(), "l_quantity".into()],
                filter: Some(Predicate::new(1, CompareOp::Le, 24)),
                group_by: Some(0),
                aggregates: vec![Aggregate::Count, Aggregate::Sum(1), Aggregate::Max(1)],
                parallelism: 4,
                join: None,
            }),
            7,
        );
        roundtrip(
            Message::Query(
                QueryRequest::count_star("lineitem", vec!["l_qty".into(), "l_flag".into()])
                    .with_join(JoinRequest {
                        table: "part".into(),
                        left_col: 1,
                        right_col: "p_key".into(),
                        columns: vec!["p_weight".into(), "p_size".into()],
                    }),
            ),
            11,
        );
        roundtrip(
            Message::Query(QueryRequest::count_star("t", vec!["k".into()]).with_join(
                JoinRequest {
                    table: "d".into(),
                    left_col: 0,
                    right_col: "k".into(),
                    columns: Vec::new(),
                },
            )),
            12,
        );
        roundtrip(
            Message::Query(QueryRequest::count_star("t", vec!["k".into()])),
            u32::MAX,
        );
        roundtrip(Message::Goodbye, 3);
        roundtrip(Message::Ping, 0);
        roundtrip(
            Message::Welcome {
                version: 1,
                session_limit: 4096,
            },
            0,
        );
        roundtrip(
            Message::ResultGroup(ResultGroup {
                key: -3,
                count: 42,
                accumulators: vec![1, -2, i64::MAX],
            }),
            9,
        );
        roundtrip(Message::ResultDone { groups: 4 }, 9);
        roundtrip(
            Message::Error {
                code: ErrorCode::Overloaded.as_u16(),
                message: "admission queue full".into(),
            },
            9,
        );
        roundtrip(Message::Pong, 0);
    }

    #[test]
    fn clean_eof_is_none_and_partial_frames_error() {
        let mut empty: &[u8] = &[];
        assert!(read_frame(&mut empty).unwrap().is_none());
        // A frame announcing 10 bytes but delivering 3 is a violation.
        let mut torn: &[u8] = &[10, 0, 0, 0, 0x01, 0, 0];
        assert!(matches!(
            read_frame(&mut torn).unwrap_err(),
            Error::Protocol(_)
        ));
    }

    #[test]
    fn oversized_and_undersized_lengths_are_rejected() {
        let huge = (MAX_FRAME_LEN + 1).to_le_bytes();
        let mut bytes: &[u8] = &huge;
        assert!(matches!(
            read_frame(&mut bytes).unwrap_err(),
            Error::Protocol(_)
        ));
        let mut tiny: &[u8] = &[4, 0, 0, 0, 0, 0, 0, 0];
        assert!(matches!(
            read_frame(&mut tiny).unwrap_err(),
            Error::Protocol(_)
        ));
    }

    #[test]
    fn unknown_kinds_and_trailing_bytes_are_rejected() {
        let frame = Frame {
            kind: 0x7f,
            session: 0,
            payload: Vec::new(),
        };
        assert!(matches!(
            Message::decode(&frame).unwrap_err(),
            Error::Protocol(_)
        ));
        let frame = Frame {
            kind: KIND_PONG,
            session: 0,
            payload: vec![1],
        };
        assert!(matches!(
            Message::decode(&frame).unwrap_err(),
            Error::Protocol(_)
        ));
    }

    #[test]
    fn error_codes_roundtrip_and_unknown_codes_are_none() {
        for code in [
            ErrorCode::BadFrame,
            ErrorCode::UnsupportedVersion,
            ErrorCode::UnknownTable,
            ErrorCode::BadQuery,
            ErrorCode::Overloaded,
            ErrorCode::ShuttingDown,
            ErrorCode::Internal,
            ErrorCode::SessionLimit,
        ] {
            assert_eq!(ErrorCode::from_u16(code.as_u16()), Some(code));
        }
        assert_eq!(ErrorCode::from_u16(0), None);
        assert_eq!(ErrorCode::from_u16(999), None);
    }
}
