//! Shared vocabulary types for the `scanshare` workspace.
//!
//! This crate defines the identifiers, positional types (SID/RID), tuple
//! ranges, the virtual clock used by the simulator and the execution engine,
//! bandwidth/latency modelling helpers, error types and the configuration
//! structs that are shared by every other crate in the workspace.
//!
//! The workspace reproduces the VLDB 2012 paper *"From Cooperative Scans to
//! Predictive Buffer Management"* (Świtakowski, Boncz, Żukowski). See the
//! repository-level `DESIGN.md` for the full system inventory.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clock;
pub mod config;
pub mod error;
pub mod hash;
pub mod ids;
pub mod quantile;
pub mod range;
pub mod rid;
pub mod sync;

pub use clock::{
    cpu_time, Bandwidth, VirtualClock, VirtualDuration, VirtualInstant, CPU_TUPLES_PER_SEC,
};
pub use config::{DeviceKind, PolicyKind, ScanShareConfig};
pub use error::{Error, Result};
pub use ids::{ChunkId, ColumnId, PageId, QueryId, ScanId, SnapshotId, StreamId, TableId};
pub use quantile::nearest_rank;
pub use range::{RangeList, TupleRange};
pub use rid::{Rid, Sid};
