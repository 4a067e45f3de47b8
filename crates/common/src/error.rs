//! Workspace-wide error type.
//!
//! The error enum is deliberately small: the storage, buffer-management and
//! execution crates all surface their failure modes through it so that the
//! public API of the facade crate (`scanshare`) exposes a single `Result`.

use std::fmt;

use crate::ids::{ChunkId, PageId, ScanId, TableId};

/// Convenience alias used across the workspace.
pub type Result<T, E = Error> = std::result::Result<T, E>;

/// Errors produced by the scanshare crates.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A table id was not found in the catalog.
    UnknownTable(TableId),
    /// A column name was not found in a table.
    UnknownColumn {
        /// Table that was searched.
        table: TableId,
        /// The missing column name.
        column: String,
    },
    /// A page id was not present in stable storage.
    UnknownPage(PageId),
    /// A chunk id was not registered with the Active Buffer Manager.
    UnknownChunk(ChunkId),
    /// A scan id was not registered with the buffer manager.
    UnknownScan(ScanId),
    /// A transaction conflict was detected (concurrent appends to the same
    /// table, only one of which may commit).
    TransactionConflict(String),
    /// An update position was out of bounds for the visible table image.
    PositionOutOfBounds {
        /// The offending position (RID space).
        position: u64,
        /// Number of visible tuples.
        visible: u64,
    },
    /// A query plan was malformed (wrong arity, unknown columns, ...).
    InvalidPlan(String),
    /// A configuration value was invalid.
    InvalidConfig(String),
    /// A Cooperative Scan is starved — nothing it needs is cached — but the
    /// ABM has nothing to load and no load is in flight, so the scan cannot
    /// make progress. A per-stream scheduling outcome (the workload driver
    /// reports it per stream instead of aborting the whole workload), not a
    /// workload-level failure.
    ScanStarved(ScanId),
    /// An operation is not supported in the current mode (e.g. out-of-order
    /// delivery requested from an in-order CScan).
    Unsupported(String),
    /// A real-device I/O operation failed (read error, short read after
    /// retries, worker pool shut down, ...). Carries the rendered OS error so
    /// the enum keeps its `Clone`/`Eq` derives. Stream-local: the workload
    /// driver reports it in `stream_errors` instead of aborting the workload.
    Io(String),
    /// The write-ahead log (or a recovery input derived from it) is
    /// corrupt beyond the torn tail that recovery silently truncates:
    /// a record whose checksum verifies but whose contents contradict
    /// the durable snapshot it would replay over.
    WalCorrupt(String),
    /// A verified WAL record references a table id that is absent from
    /// the recovered catalog. Surfaced as a typed error by
    /// `Engine::recover` instead of panicking during replay.
    WalUnknownTable(TableId),
    /// A wire-protocol violation on a serving-layer connection: a frame
    /// that cannot be decoded, an oversized length prefix, an unknown
    /// message kind, or a message arriving out of protocol order (e.g. a
    /// query before the handshake). The connection that produced it is
    /// closed; other connections and sessions are unaffected.
    Protocol(String),
    /// A typed error frame received from a serving-layer peer: the
    /// numeric protocol error code (see `scanshare-serve`'s `ErrorCode`)
    /// plus the human-readable message the server attached.
    Remote {
        /// The protocol error code from the wire.
        code: u16,
        /// The server's diagnostic message.
        message: String,
    },
    /// Internal invariant violation; indicates a bug in this library.
    Internal(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownTable(t) => write!(f, "unknown table {t}"),
            Error::UnknownColumn { table, column } => {
                write!(f, "unknown column {column:?} in table {table}")
            }
            Error::UnknownPage(p) => write!(f, "unknown page {p}"),
            Error::UnknownChunk(c) => write!(f, "unknown chunk {c}"),
            Error::UnknownScan(s) => write!(f, "unknown scan {s}"),
            Error::TransactionConflict(msg) => write!(f, "transaction conflict: {msg}"),
            Error::PositionOutOfBounds { position, visible } => write!(
                f,
                "position {position} is out of bounds for a table with {visible} visible tuples"
            ),
            Error::InvalidPlan(msg) => write!(f, "invalid plan: {msg}"),
            Error::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Error::ScanStarved(s) => write!(
                f,
                "cooperative scan {s} is starved but the ABM has nothing to load"
            ),
            Error::Unsupported(msg) => write!(f, "unsupported operation: {msg}"),
            Error::Io(msg) => write!(f, "I/O error: {msg}"),
            Error::WalCorrupt(msg) => write!(f, "write-ahead log corrupt: {msg}"),
            Error::WalUnknownTable(t) => write!(
                f,
                "write-ahead log references table {t} absent from the recovered catalog"
            ),
            Error::Protocol(msg) => write!(f, "wire protocol violation: {msg}"),
            Error::Remote { code, message } => {
                write!(f, "server error {code}: {message}")
            }
            Error::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

impl Error {
    /// Helper constructing an [`Error::Internal`] from anything printable.
    pub fn internal(msg: impl fmt::Display) -> Self {
        Error::Internal(msg.to_string())
    }

    /// Helper constructing an [`Error::InvalidConfig`].
    pub fn config(msg: impl fmt::Display) -> Self {
        Error::InvalidConfig(msg.to_string())
    }

    /// Helper constructing an [`Error::InvalidPlan`].
    pub fn plan(msg: impl fmt::Display) -> Self {
        Error::InvalidPlan(msg.to_string())
    }

    /// Helper constructing an [`Error::Io`] from anything printable
    /// (typically a `std::io::Error`).
    pub fn io(msg: impl fmt::Display) -> Self {
        Error::Io(msg.to_string())
    }

    /// Helper constructing an [`Error::Protocol`].
    pub fn protocol(msg: impl fmt::Display) -> Self {
        Error::Protocol(msg.to_string())
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_descriptive() {
        let e = Error::UnknownColumn {
            table: TableId::new(1),
            column: "l_extendedprice".into(),
        };
        assert!(e.to_string().contains("l_extendedprice"));
        assert!(e.to_string().contains("T1"));
    }

    #[test]
    fn helpers_build_expected_variants() {
        assert!(matches!(Error::internal("x"), Error::Internal(_)));
        assert!(matches!(Error::config("x"), Error::InvalidConfig(_)));
        assert!(matches!(Error::plan("x"), Error::InvalidPlan(_)));
        assert!(matches!(Error::io("x"), Error::Io(_)));
    }

    #[test]
    fn io_errors_convert_and_render() {
        let os = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "short read");
        let e: Error = os.into();
        assert!(matches!(e, Error::Io(_)));
        assert!(e.to_string().contains("short read"));
    }

    #[test]
    fn scan_starved_names_the_scan() {
        let e = Error::ScanStarved(ScanId::new(3));
        assert!(e.to_string().contains("starved"));
        assert!(e.to_string().contains("S3"));
    }

    #[test]
    fn wal_errors_render() {
        let e = Error::WalCorrupt("record 3 body truncated".into());
        assert!(e.to_string().contains("write-ahead log"));
        assert!(e.to_string().contains("record 3"));

        let e = Error::WalUnknownTable(TableId::new(9));
        assert!(e.to_string().contains("T9"));
        assert!(e.to_string().contains("recovered catalog"));
    }

    #[test]
    fn serving_errors_render() {
        let e = Error::protocol("frame of 9 GiB exceeds the limit");
        assert!(e.to_string().contains("wire protocol"));
        assert!(e.to_string().contains("9 GiB"));

        let e = Error::Remote {
            code: 5,
            message: "admission queue full".into(),
        };
        assert!(e.to_string().contains("server error 5"));
        assert!(e.to_string().contains("admission queue full"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_e: &dyn std::error::Error) {}
        takes_err(&Error::internal("x"));
    }
}
