//! Columnar storage substrate for the scanshare workspace.
//!
//! This crate models the storage layer of a Vectorwise-style columnar
//! database at the level of detail the buffer-management algorithms in the
//! paper care about:
//!
//! * a **catalog** of tables, each with columns of very different physical
//!   width (bytes per tuple after compression), so that one logical *chunk*
//!   of tuples maps to a very different number of **pages** per column
//!   (Section 2 of the paper);
//! * **snapshots**: versioned per-column arrays of page references, used for
//!   snapshot isolation of bulk appends (Figure 6) and PDT checkpoints
//!   (Figure 7), including detection of the longest shared prefix;
//! * a **stable store** that can materialize the actual values of any page
//!   (deterministically generated for base data, explicitly stored for
//!   appended data) so the execution engine can run real queries;
//! * the **layout** translation used by the buffer managers: SID range ↔
//!   pages per column, chunk ↔ pages, and the page enumeration used by
//!   PBM's `RegisterScan`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod catalog;
pub mod column;
pub mod datagen;
pub mod layout;
pub mod segment;
pub mod snapshot;
pub mod storage;
pub mod table;
pub mod wal;
pub mod zone;

pub use catalog::Catalog;
pub use column::{ColumnSpec, ColumnType};
pub use layout::{ChunkMap, PageDescriptor, ScanPagePlan, TableLayout};
pub use segment::FileStore;
pub use snapshot::{Snapshot, SnapshotStore};
pub use storage::{AppendTransaction, PageData, PageHandle, Storage};
pub use table::TableSpec;
pub use wal::{Wal, WalRecord, WalRecordKind};
pub use zone::{ZoneEntry, ZoneMap, ZoneOp, ZonePredicate};
