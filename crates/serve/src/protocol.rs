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

/// Longest string the wire carries: its byte length is a `u16`.
pub const MAX_STRING_LEN: usize = u16::MAX as usize;

/// Largest value of a one-byte QUERY field: a projection index, the number
/// of columns, aggregates or join columns, and the parallelism.
pub const MAX_U8_FIELD: usize = u8::MAX as usize;

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

    /// Checks that the wire format can carry this request as it is: every
    /// string at most [`MAX_STRING_LEN`] bytes, every projection index and
    /// list length at most [`MAX_U8_FIELD`], `parallelism` in
    /// `1..=MAX_U8_FIELD`, and the whole frame within [`MAX_FRAME_LEN`].
    ///
    /// [`Message::encode`] is infallible and clamps what does not fit, which
    /// would make the server answer a different query; clients call this
    /// before encoding ([`ServeClient::query`](crate::ServeClient::query)
    /// and [`loadgen::run`](crate::loadgen::run) do). The error is an
    /// [`Error::Protocol`] naming the field and the limit.
    pub fn check_encodable(&self) -> Result<()> {
        fn at_most(field: &str, what: &str, value: usize, limit: usize) -> Result<()> {
            if value > limit {
                return Err(Error::protocol(format!(
                    "{field}: {what} {value} exceeds the wire limit of {limit}"
                )));
            }
            Ok(())
        }
        let string = |field, s: &str| at_most(field, "byte length", s.len(), MAX_STRING_LEN);
        let index = |field, i| at_most(field, "column index", i, MAX_U8_FIELD);
        let count = |field, n| at_most(field, "element count", n, MAX_U8_FIELD);
        let strings = |field, list: &[String]| {
            count(field, list.len())?;
            list.iter().try_for_each(|s| string(field, s))
        };

        string("table", &self.table)?;
        strings("columns", &self.columns)?;
        if let Some(predicate) = &self.filter {
            index("filter.column", predicate.column)?;
        }
        if let Some(column) = self.group_by {
            index("group_by", column)?;
        }
        count("aggregates", self.aggregates.len())?;
        for aggregate in &self.aggregates {
            match aggregate {
                Aggregate::Count => {}
                Aggregate::Sum(c) | Aggregate::Min(c) | Aggregate::Max(c) => {
                    index("aggregates.column", *c)?
                }
            }
        }
        if self.parallelism == 0 {
            return Err(Error::protocol("parallelism: 0 is below the minimum of 1"));
        }
        at_most("parallelism", "value", self.parallelism, MAX_U8_FIELD)?;
        if let Some(join) = &self.join {
            string("join.table", &join.table)?;
            index("join.left_col", join.left_col)?;
            string("join.right_col", &join.right_col)?;
            strings("join.columns", &join.columns)?;
        }
        // Every field fits, so the encoding below is faithful; what is left
        // is the sum (255 strings of 64 KiB do not fit one frame).
        let mut payload = Vec::new();
        encode_query(&mut payload, self);
        at_most(
            "QUERY frame",
            "length",
            5 + payload.len(),
            MAX_FRAME_LEN as usize,
        )
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

/// Writes a `u16`-length-prefixed string. A longer one (a diagnostic
/// message; requests are checked by `QueryRequest::check_encodable`) is cut
/// at the last character boundary that fits, so the peer still decodes
/// valid UTF-8.
fn put_str(out: &mut Vec<u8>, s: &str) {
    let mut len = s.len().min(MAX_STRING_LEN);
    while !s.is_char_boundary(len) {
        len -= 1;
    }
    out.extend_from_slice(&(len as u16).to_le_bytes());
    out.extend_from_slice(&s.as_bytes()[..len]);
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
    ///
    /// Infallible: a field the format cannot carry is clamped or truncated
    /// to its limit. For [`Message::Query`] that changes the query, so call
    /// [`QueryRequest::check_encodable`] first.
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
            Message::Query(QueryRequest {
                join: Some(JoinRequest {
                    table: "part".into(),
                    left_col: 1,
                    right_col: "p_key".into(),
                    columns: vec!["p_weight".into(), "p_size".into()],
                }),
                ..QueryRequest::count_star("lineitem", vec!["l_qty".into(), "l_flag".into()])
            }),
            11,
        );
        roundtrip(
            Message::Query(QueryRequest {
                join: Some(JoinRequest {
                    table: "d".into(),
                    left_col: 0,
                    right_col: "k".into(),
                    columns: Vec::new(),
                }),
                ..QueryRequest::count_star("t", vec!["k".into()])
            }),
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

    /// `check_encodable` on `request`: `Ok` must also mean the frame decodes
    /// back to the same request, `Err` must be typed and name `field`.
    fn encodable(request: &QueryRequest, field: Option<&str>) {
        match (request.check_encodable(), field) {
            (Ok(()), None) => roundtrip(Message::Query(request.clone()), 1),
            (Err(Error::Protocol(message)), Some(field)) => {
                assert!(message.starts_with(field), "{message:?} names {field}")
            }
            (outcome, _) => panic!("expected {field:?}, got {outcome:?}"),
        }
    }

    #[test]
    fn check_encodable_accepts_each_limit_and_rejects_one_above() {
        let base = || QueryRequest::count_star("t", vec!["k".into()]);
        let join = || JoinRequest {
            table: "d".into(),
            left_col: 0,
            right_col: "k".into(),
            columns: Vec::new(),
        };
        let with_join = |join| QueryRequest {
            join: Some(join),
            ..base()
        };
        encodable(&base(), None);
        // At each limit (`over` 0) the request is carried; one above, the
        // named field is refused.
        for over in [0usize, 1] {
            let index = MAX_U8_FIELD + over;
            let count = |n| vec!["c".to_string(); n];
            let text = |n| "x".repeat(n);
            let expect = |field: &'static str| (over == 1).then_some(field);

            let mut q = base();
            q.filter = Some(Predicate::new(index, CompareOp::Le, 1));
            encodable(&q, expect("filter.column"));
            let mut q = base();
            q.group_by = Some(index);
            encodable(&q, expect("group_by"));
            for aggregate in [Aggregate::Sum, Aggregate::Min, Aggregate::Max] {
                let mut q = base();
                q.aggregates = vec![Aggregate::Count, aggregate(index)];
                encodable(&q, expect("aggregates.column"));
            }
            let mut q = base();
            q.aggregates = vec![Aggregate::Count; index];
            encodable(&q, expect("aggregates"));
            let mut q = base();
            q.columns = count(index);
            encodable(&q, expect("columns"));
            let mut q = base();
            q.parallelism = index;
            encodable(&q, expect("parallelism"));

            let mut q = base();
            q.table = text(MAX_STRING_LEN + over);
            encodable(&q, expect("table"));
            let mut q = base();
            q.columns = vec!["k".into(), text(MAX_STRING_LEN + over)];
            encodable(&q, expect("columns"));

            let mut j = join();
            j.left_col = index;
            encodable(&with_join(j), expect("join.left_col"));
            let mut j = join();
            j.columns = count(index);
            encodable(&with_join(j), expect("join.columns"));
            let mut j = join();
            j.table = text(MAX_STRING_LEN + over);
            encodable(&with_join(j), expect("join.table"));
            let mut j = join();
            j.right_col = text(MAX_STRING_LEN + over);
            encodable(&with_join(j), expect("join.right_col"));
            let mut j = join();
            j.columns = vec![text(MAX_STRING_LEN + over)];
            encodable(&with_join(j), expect("join.columns"));
        }
        let mut q = base();
        q.parallelism = 0;
        encodable(&q, Some("parallelism"));

        // Fields that each fit can still overflow the frame: sixteen 64 KiB
        // names are past MAX_FRAME_LEN; trimming the last one to the byte
        // lands exactly on it.
        let mut q = base();
        q.columns = vec!["x".repeat(MAX_STRING_LEN); 16];
        encodable(&q, Some("QUERY frame"));
        let excess = Message::Query(q.clone()).encode(0).len() - 4 - MAX_FRAME_LEN as usize;
        q.columns[15].truncate(MAX_STRING_LEN - excess);
        assert_eq!(
            Message::Query(q.clone()).encode(0).len(),
            4 + MAX_FRAME_LEN as usize
        );
        encodable(&q, None);
        q.columns[15].push('x');
        encodable(&q, Some("QUERY frame"));
    }

    #[test]
    fn overlong_diagnostics_are_cut_on_a_character_boundary() {
        // 'é' is two bytes and the cut at 65 535 falls inside one: the
        // encoder must drop the whole character, not half of it.
        let message = Message::Error {
            code: ErrorCode::Internal.as_u16(),
            message: "é".repeat(40_000),
        };
        let bytes = message.encode(0);
        let frame = read_frame(&mut bytes.as_slice()).unwrap().unwrap();
        match Message::decode(&frame).unwrap() {
            Message::Error { message, .. } => assert_eq!(message, "é".repeat(32_767)),
            other => panic!("{other:?}"),
        }
    }

    /// One encoded instance of every message kind, the QUERY with every
    /// optional clause present.
    fn corpus() -> Vec<Vec<u8>> {
        let query = QueryRequest {
            table: "lineitem".into(),
            start: 100,
            end: Some(5000),
            columns: vec!["l_flag".into(), "l_quantity".into()],
            filter: Some(Predicate::new(1, CompareOp::Le, 24)),
            group_by: Some(0),
            aggregates: vec![Aggregate::Count, Aggregate::Sum(1), Aggregate::Max(3)],
            parallelism: 4,
            join: Some(JoinRequest {
                table: "part".into(),
                left_col: 1,
                right_col: "p_key".into(),
                columns: vec!["p_weight".into(), "p_size".into()],
            }),
        };
        [
            Message::Hello {
                version: PROTOCOL_VERSION,
                tenant: "tenant-a".into(),
            },
            Message::Query(query),
            Message::Goodbye,
            Message::Ping,
            Message::Welcome {
                version: PROTOCOL_VERSION,
                session_limit: 4096,
            },
            Message::ResultGroup(ResultGroup {
                key: -3,
                count: 42,
                accumulators: vec![1, -2, i64::MAX],
            }),
            Message::ResultDone { groups: 4 },
            Message::Error {
                code: ErrorCode::BadQuery.as_u16(),
                message: "unknown column \u{e9}".into(),
            },
            Message::Pong,
        ]
        .iter()
        .map(|message| message.encode(7))
        .collect()
    }

    /// What the decoder owes any byte string: a message, a clean EOF or a
    /// typed protocol error — and a message it accepts must survive
    /// re-encoding unchanged (a QUERY within `check_encodable`'s limits).
    fn decode_bytes(bytes: &[u8]) {
        let length = bytes
            .get(..4)
            .map(|prefix| u32::from_le_bytes(prefix.try_into().unwrap()));
        let frame = match read_frame(&mut &bytes[..]) {
            Ok(Some(frame)) => frame,
            Ok(None) => return assert!(bytes.len() < 4, "EOF inside a frame went unnoticed"),
            Err(Error::Protocol(_)) => return,
            Err(other) => panic!("untyped framing error {other:?}"),
        };
        // The body buffer is sized by the length prefix: only a checked one
        // may get this far.
        let length = length.expect("a frame has a prefix") as usize;
        assert!((5..=MAX_FRAME_LEN as usize).contains(&length));
        assert_eq!(frame.payload.len(), length - 5);
        match Message::decode(&frame) {
            Ok(message) => {
                if let Message::Query(query) = &message {
                    query.check_encodable().expect("decoded QUERY is encodable");
                }
                let again = message.encode(frame.session);
                let reread = read_frame(&mut again.as_slice()).unwrap().unwrap();
                assert_eq!(Message::decode(&reread).unwrap(), message);
            }
            Err(Error::Protocol(_)) => {}
            Err(other) => panic!("untyped decode error {other:?}"),
        }
    }

    /// Seeded frame mutation (ROADMAP "Whole-system deterministic torture
    /// test"): bit flips, truncation at every offset, length-prefix
    /// rewrites up to and past `MAX_FRAME_LEN`, a `u16` rewritten at every
    /// payload offset (so every inner string length is hit), random tails,
    /// and stacks of those. Every outcome is `Ok` or a typed `Err`; a panic
    /// fails the test with the seed and the mutated bytes.
    #[test]
    fn mutated_frames_decode_to_a_message_or_a_typed_error() {
        const SEED: u64 = 0x5ca7_5ea7_0000_0020;
        let mut draws = 0u64;
        let mut next = move || {
            draws += 1;
            scanshare_storage::datagen::splitmix64(SEED.wrapping_add(draws))
        };
        let corpus = corpus();
        let mut cases: Vec<Vec<u8>> = Vec::new();

        let lengths = |len: u32| {
            let max = MAX_FRAME_LEN;
            [
                0,
                4,
                5,
                6,
                len - 5,
                len - 3,
                len + 1,
                max - 1,
                max,
                max + 1,
                u32::MAX,
            ]
        };
        for frame in &corpus {
            for cut in 0..frame.len() {
                cases.push(frame[..cut].to_vec());
            }
            for length in lengths(frame.len() as u32) {
                let mut mutated = frame.clone();
                mutated[..4].copy_from_slice(&length.to_le_bytes());
                cases.push(mutated);
            }
            for at in 9..frame.len().saturating_sub(1) {
                for value in [0u16, 1, (frame.len() - at) as u16, 0x7fff, u16::MAX] {
                    let mut mutated = frame.clone();
                    mutated[at..at + 2].copy_from_slice(&value.to_le_bytes());
                    cases.push(mutated);
                }
            }
        }
        // Random single mutations and stacks of up to three.
        let mutate = |bytes: &mut Vec<u8>, next: &mut dyn FnMut() -> u64| match next() % 5 {
            0 | 1 => {
                let bit = next() as usize % (bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            2 => bytes.truncate(next() as usize % bytes.len().max(1)),
            3 => {
                // A random tail, announced by the prefix half of the time.
                let tail = 1 + next() % 64;
                bytes.extend((0..tail).map(|_| next() as u8));
                if next() % 2 == 0 && bytes.len() >= 4 {
                    let length = (bytes.len() - 4) as u32;
                    bytes[..4].copy_from_slice(&length.to_le_bytes());
                }
            }
            _ => {
                if bytes.len() >= 4 {
                    let length = match next() % 3 {
                        0 => next() as u32,
                        1 => MAX_FRAME_LEN - 2 + (next() % 5) as u32,
                        _ => (next() % 512) as u32,
                    };
                    bytes[..4].copy_from_slice(&length.to_le_bytes());
                }
            }
        };
        while cases.len() < 12_000 {
            let mut mutated = corpus[next() as usize % corpus.len()].clone();
            for _ in 0..1 + next() % 3 {
                if !mutated.is_empty() {
                    mutate(&mut mutated, &mut next);
                }
            }
            cases.push(mutated);
        }

        for (case, bytes) in cases.iter().enumerate() {
            if let Err(panic) = std::panic::catch_unwind(|| decode_bytes(bytes)) {
                let what = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string panic");
                panic!("seed {SEED:#x} case {case}: {what}\nframe bytes: {bytes:02x?}");
            }
        }
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
    fn error_codes_are_the_wire_numbers_one_to_eight() {
        let codes = [
            ErrorCode::BadFrame,
            ErrorCode::UnsupportedVersion,
            ErrorCode::UnknownTable,
            ErrorCode::BadQuery,
            ErrorCode::Overloaded,
            ErrorCode::ShuttingDown,
            ErrorCode::Internal,
            ErrorCode::SessionLimit,
        ];
        let numbers: Vec<u16> = codes.iter().map(|c| c.as_u16()).collect();
        assert_eq!(numbers, (1..=8).collect::<Vec<u16>>());
    }
}
